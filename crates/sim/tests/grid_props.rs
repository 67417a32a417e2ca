//! Differential property tests: the spatial-grid neighbor index must be
//! indistinguishable from the brute-force scan — same nodes, same order —
//! on arbitrary layouts, including nodes exactly at `radio_range_m`
//! (the boundary is inclusive) and after mid-run despawns. World sizes
//! run from a single node to about a hundred, so layouts range from
//! near-empty buckets to many multi-node cells.

use blackdp_sim::{Channel, Context, Node, NodeId, Position, Time, World, WorldConfig};
use proptest::prelude::*;

/// A stationary node with no behaviour; the tests only exercise the
/// radio medium's neighbor queries.
struct StaticNode {
    at: Position,
}

impl Node<u32, u8> for StaticNode {
    fn position(&self, _now: Time) -> Position {
        self.at
    }
    fn on_packet(&mut self, _ctx: &mut Context<'_, u32, u8>, _from: NodeId, _p: u32, _ch: Channel) {
    }
    fn on_timer(&mut self, _ctx: &mut Context<'_, u32, u8>, _token: u8) {}
}

fn build_world(range: f64, positions: &[(f64, f64)]) -> (World<u32, u8>, Vec<NodeId>) {
    let cfg = WorldConfig {
        radio_range_m: range,
        ..WorldConfig::default()
    };
    let mut world = World::new(cfg);
    let ids = positions
        .iter()
        .map(|&(x, y)| {
            world.spawn(Box::new(StaticNode {
                at: Position::new(x, y),
            }))
        })
        .collect();
    (world, ids)
}

proptest! {
    #[test]
    fn grid_matches_scan_on_random_layouts(
        positions in prop::collection::vec(
            (-2000.0f64..2000.0, -500.0f64..500.0),
            1..110,
        ),
        range_m in 50u32..800,
    ) {
        // An integral range makes range² exact, so the appended boundary
        // node at (range, 0) from the origin node sits at distance exactly
        // `range` — it must be found (the range check is inclusive).
        let range = f64::from(range_m);
        let mut positions = positions;
        positions.insert(0, (0.0, 0.0));
        positions.push((range, 0.0));
        let (mut world, ids) = build_world(range, &positions);

        let boundary = *ids.last().unwrap();
        prop_assert!(
            world.neighbors_of(ids[0]).contains(&boundary),
            "node exactly at radio_range_m must be a neighbor"
        );

        for &id in &ids {
            let grid = world.neighbors_of(id);
            let scan = world.neighbors_of_scan(id);
            prop_assert_eq!(grid, scan, "grid/scan diverged for {:?}", id);
        }
    }

    #[test]
    fn grid_matches_scan_after_despawns(
        positions in prop::collection::vec(
            (-1000.0f64..1000.0, -300.0f64..300.0),
            2..100,
        ),
        despawn_mask in any::<u64>(),
        range_m in 50u32..800,
    ) {
        let range = f64::from(range_m);
        let (mut world, ids) = build_world(range, &positions);

        // Query once so the grid is built, then despawn a subset within
        // the same timestamp: the stale grid must filter them out exactly
        // like the scan does.
        let _ = world.neighbors_of(ids[0]);
        for (i, &id) in ids.iter().enumerate().skip(1) {
            if despawn_mask >> (i % 64) & 1 == 1 {
                world.despawn(id);
            }
        }
        for &id in &ids {
            if !world.is_active(id) {
                continue;
            }
            let grid = world.neighbors_of(id);
            let scan = world.neighbors_of_scan(id);
            prop_assert_eq!(grid, scan, "grid/scan diverged for {:?} after despawns", id);
        }
    }
}
