//! Boundary edge cases for the sharded spatial backend, each checked
//! against the serial oracle (`neighbors_of_scan`):
//!
//! - a node sitting *exactly* on a shard-band boundary (a grid-cell
//!   column edge),
//! - a node that crosses a band boundary and returns (A → B → A) across
//!   consecutive rebuild horizons — the double-handoff case,
//! - a radio disk whose 3-column query window spans three one-column
//!   bands, with receivers straddling a boundary.
//!
//! The attacker-straddles-a-boundary case lives at the scenario level
//! (`tests/determinism.rs`), where a real attacker stack exists.

use blackdp_sim::{
    Channel, Context, Node, NodeId, Position, Time, World, WorldBackend, WorldConfig,
};

/// Stationary marker node.
struct Still(Position);

impl Node<u32, u8> for Still {
    fn position(&self, _now: Time) -> Position {
        self.0
    }
    fn on_packet(&mut self, _ctx: &mut Context<'_, u32, u8>, _from: NodeId, _p: u32, _ch: Channel) {
    }
    fn on_timer(&mut self, _ctx: &mut Context<'_, u32, u8>, _token: u8) {}
}

/// Oscillates on the x-axis around `center` with a triangle wave:
/// `center ± amp`, half-period `half_secs`, so it repeatedly crosses any
/// band boundary near `center` and comes back. Peak speed is
/// `amp / half_secs` m/s.
struct Zigzag {
    center: f64,
    y: f64,
    amp: f64,
    half_secs: f64,
}

impl Node<u32, u8> for Zigzag {
    fn position(&self, now: Time) -> Position {
        let phase = now.as_secs_f64() / self.half_secs;
        // Triangle in [-1, 1]: rises on even half-periods, falls on odd.
        let cycle = phase.rem_euclid(2.0);
        let tri = if cycle <= 1.0 { cycle } else { 2.0 - cycle } * 2.0 - 1.0;
        Position::new(self.center + self.amp * tri, self.y)
    }
    fn on_packet(&mut self, _ctx: &mut Context<'_, u32, u8>, _from: NodeId, _p: u32, _ch: Channel) {
    }
    fn on_timer(&mut self, _ctx: &mut Context<'_, u32, u8>, _token: u8) {}
}

/// Spawns `n` stationary filler nodes in a strip, so queries cover several
/// populated cells and bands of the sharded index.
fn spawn_strip(world: &mut World<u32, u8>, n: usize, spacing: f64) -> Vec<NodeId> {
    (0..n)
        .map(|i| {
            world.spawn(Box::new(Still(Position::new(
                i as f64 * spacing,
                -200.0,
            ))))
        })
        .collect()
}

fn assert_all_match_scan(world: &mut World<u32, u8>, ids: &[NodeId], what: &str) {
    for &id in ids {
        if !world.is_active(id) {
            continue;
        }
        let sharded = world.neighbors_of(id);
        let scan = world.neighbors_of_scan(id);
        assert_eq!(sharded, scan, "{what}: diverged for {id:?}");
    }
}

/// A node at exactly `k · cell_size` sits on the edge between two cell
/// columns — and, with the right shard count, between two *bands*. Its
/// queries, and queries about it, must still match the scan exactly.
#[test]
fn node_exactly_on_a_band_boundary() {
    let range = 500.0; // cell size = 2·range = 1000
    for shards in [2u32, 3, 7] {
        let cfg = WorldConfig {
            radio_range_m: range,
            backend: WorldBackend::Sharded { shards },
            ..WorldConfig::default()
        };
        let mut world: World<u32, u8> = World::new(cfg);
        // 80 nodes spaced 250 m: every fourth sits exactly on a column
        // edge (x = 0, 1000, 2000, …).
        let ids = spawn_strip(&mut world, 80, 250.0);
        assert_all_match_scan(&mut world, &ids, &format!("boundary strip, {shards} shards"));

        // The node exactly at x = 4000 must see symmetric neighbors on
        // both sides of its boundary (x = 3500..=4500, itself excluded).
        let on_edge = ids[16]; // 16 · 250 = 4000
        let neighbors = world.neighbors_of(on_edge);
        assert_eq!(
            neighbors.len(),
            4,
            "x = 4000 must see 3500, 3750, 4250, 4500"
        );
    }
}

/// A zigzag node crosses a band boundary and comes back across
/// consecutive rebuild horizons (A → B → A). Every rebuild must hand it
/// off to the band owning its current position, and every query in
/// between must still match the scan.
#[test]
fn same_tick_double_handoff_a_b_a() {
    let range = 500.0; // cell = 1000; horizon = 0.5·500/150 ≈ 1.67 s
    let bound = 150.0;
    let cfg = WorldConfig {
        radio_range_m: range,
        backend: WorldBackend::Sharded { shards: 4 },
        motion_bound_mps: bound,
        ..WorldConfig::default()
    };
    let mut world: World<u32, u8> = World::new(cfg);
    let mut ids = spawn_strip(&mut world, 78, 150.0); // strip 0..11550
    // Oscillates 5200 ↔ 6400 every 4 s at 150 m/s: with ~1.67 s horizons
    // it lands on alternating sides of the x = 6000 column edge at
    // successive rebuilds.
    let zig = world.spawn(Box::new(Zigzag {
        center: 5800.0,
        y: 0.0,
        amp: 600.0,
        half_secs: 4.0,
    }));
    ids.push(zig);

    let mut bands_seen = Vec::new();
    for millis in (0..=16_000u64).step_by(500) {
        world.run_until(Time::from_millis(millis));
        assert_all_match_scan(&mut world, &ids, &format!("t = {millis} ms"));
        if let Some(band) = world.shard_band_of(zig) {
            if bands_seen.last() != Some(&band) {
                bands_seen.push(band);
            }
        }
    }
    // The node's *current* band (from live geometry) must flip A → B → A…
    assert!(
        bands_seen.len() >= 3,
        "zigzag must alternate bands, saw {bands_seen:?}"
    );
    // …and the index must have processed boundary handoffs in both
    // directions across rebuilds.
    let diag = world.shard_diagnostics().expect("sharded backend ran");
    assert!(
        diag.handoffs >= 2,
        "expected ≥ 2 handoffs (A→B then B→A), got {}",
        diag.handoffs
    );
    assert!(diag.full_rebuilds >= 4, "horizons must have expired");
}

/// With one-column bands, a query's 3-column window spans three distinct
/// bands, and a querier on a column edge has receivers straddling a band
/// boundary. The emitted set must match the scan, and the cross-band
/// candidate counter must see the straddle.
#[test]
fn radio_disk_window_spans_three_one_column_bands() {
    let range = 500.0; // cell = 1000
    let cfg = WorldConfig {
        radio_range_m: range,
        // Far more shards than the 4-column strip needs: band width
        // clamps to one column, so adjacent columns are distinct bands.
        backend: WorldBackend::Sharded { shards: 32 },
        ..WorldConfig::default()
    };
    let mut world: World<u32, u8> = World::new(cfg);
    // 80 nodes spaced 200 m: strip 0..15800, 16 columns.
    let ids = spawn_strip(&mut world, 80, 200.0);
    assert_all_match_scan(&mut world, &ids, "one-column bands");

    // Querier exactly at x = 5000, the edge between columns 4 and 5:
    // in-range receivers [4500, 5500] live in two different bands.
    let querier = ids[25]; // 25 · 200 = 5000
    let neighbors = world.neighbors_of(querier);
    assert_eq!(neighbors, world.neighbors_of_scan(querier));
    let bands: std::collections::BTreeSet<u32> = neighbors
        .iter()
        .filter_map(|&n| world.shard_band_of(n))
        .collect();
    assert!(
        bands.len() >= 2,
        "receivers must straddle a band boundary, got bands {bands:?}"
    );
    let diag = world.shard_diagnostics().expect("sharded backend ran");
    assert!(
        diag.cross_band_candidates > 0,
        "cross-band candidates must be counted"
    );
}
