//! Static probe worlds for radio-medium benchmarks.
//!
//! The neighbor-query benchmarks need worlds whose *only* cost is the
//! medium itself — no protocol stacks, no timers — at controlled vehicle
//! counts well beyond what a Table-I scenario spawns. [`probe_world`]
//! populates a highway-shaped strip with stationary [`ProbeNode`]s placed
//! by a deterministic LCG, so every run (and every comparison between the
//! grid index and the brute-force scan) sees identical geometry.

use blackdp_sim::{Channel, Context, Node, NodeId, Position, Time, World, WorldConfig};

/// Length of the probe highway strip in meters.
pub const STRIP_LENGTH_M: f64 = 10_000.0;

/// Width of the probe highway strip in meters.
pub const STRIP_WIDTH_M: f64 = 200.0;

/// A stationary node that ignores all traffic; exists purely to occupy a
/// position on the radio medium.
#[derive(Debug)]
pub struct ProbeNode {
    at: Position,
}

impl ProbeNode {
    /// A probe pinned at `at`.
    pub fn new(at: Position) -> Self {
        ProbeNode { at }
    }
}

impl Node<u32, u8> for ProbeNode {
    fn position(&self, _now: Time) -> Position {
        self.at
    }

    fn on_packet(&mut self, _ctx: &mut Context<'_, u32, u8>, _from: NodeId, _p: u32, _ch: Channel) {
    }

    fn on_timer(&mut self, _ctx: &mut Context<'_, u32, u8>, _token: u8) {}
}

/// The deterministic probe layout: `n` positions on the strip, derived
/// from `seed` by a 64-bit LCG (same multiplier as MMIX).
pub fn probe_positions(n: usize, seed: u64) -> Vec<Position> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut step = || {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        // Map the top 53 bits to [0, 1): uniform and exactly representable.
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    (0..n)
        .map(|_| {
            let x = step() * STRIP_LENGTH_M;
            let y = step() * STRIP_WIDTH_M;
            Position::new(x, y)
        })
        .collect()
}

/// Builds a world of `n` stationary probes with the given radio range.
///
/// The world uses [`WorldConfig::default`] apart from `radio_range_m`, so
/// the neighbor index is whatever the simulator defaults to (the grid);
/// callers compare against [`World::neighbors_of_scan`] for the
/// brute-force reference.
pub fn probe_world(n: usize, radio_range_m: f64, seed: u64) -> (World<u32, u8>, Vec<NodeId>) {
    let cfg = WorldConfig {
        radio_range_m,
        ..WorldConfig::default()
    };
    let mut world = World::new(cfg);
    let ids = probe_positions(n, seed)
        .into_iter()
        .map(|at| world.spawn(Box::new(ProbeNode::new(at))))
        .collect();
    (world, ids)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_is_deterministic_and_in_bounds() {
        let a = probe_positions(100, 7);
        let b = probe_positions(100, 7);
        assert_eq!(a.len(), 100);
        for (pa, pb) in a.iter().zip(&b) {
            assert_eq!((pa.x, pa.y), (pb.x, pb.y));
            assert!((0.0..STRIP_LENGTH_M).contains(&pa.x));
            assert!((0.0..STRIP_WIDTH_M).contains(&pa.y));
        }
        let c = probe_positions(100, 8);
        assert!(
            a.iter().zip(&c).any(|(pa, pc)| pa.x != pc.x),
            "different seeds must change the layout"
        );
    }

    #[test]
    fn probe_world_spawns_all_nodes() {
        let (mut world, ids) = probe_world(100, 300.0, 1);
        assert_eq!(ids.len(), 100);
        assert_eq!(world.node_count(), 100);
        // Grid and scan agree on every probe's neighborhood, and some
        // neighborhoods are non-empty.
        let mut heard = 0;
        for &id in &ids {
            let grid = world.neighbors_of(id);
            assert_eq!(grid, world.neighbors_of_scan(id));
            heard += grid.len();
        }
        assert!(heard > 0, "probes must have neighbors");
    }
}
