//! Differential property tests: the sharded spatial backend must be
//! indistinguishable from the brute-force scan — same neighbors, same
//! order — and a sharded `World` must be **bit-identical** to the serial
//! oracle: same `EngineStamp` witnesses and `Stats::digest` for any shard
//! count, on arbitrary layouts, moving nodes across staleness horizons,
//! and after mid-run despawns.
//!
//! Worlds here hold at least `MIN_NODES` slots, so several bands are
//! populated. `neighbors_of` always answers from the sharded index.

use blackdp_sim::{
    Channel, Context, Duration, Node, NodeId, Position, Time, World, WorldBackend, WorldConfig,
};
use proptest::prelude::*;

/// Minimum node count: enough to populate several bands.
const MIN_NODES: usize = 70;

/// A beacon moving at constant velocity that rebroadcasts on a periodic
/// timer — the minimal workload that exercises jittered broadcasts,
/// per-receiver RNG draws, and index staleness all at once.
struct Beacon {
    start: Position,
    velocity: (f64, f64),
    period: Duration,
    heard: u64,
}

impl Beacon {
    fn still(x: f64, y: f64) -> Beacon {
        Beacon {
            start: Position::new(x, y),
            velocity: (0.0, 0.0),
            period: Duration::ZERO,
            heard: 0,
        }
    }
}

impl Node<u32, u8> for Beacon {
    fn position(&self, now: Time) -> Position {
        let t = now.as_secs_f64();
        Position::new(
            self.start.x + self.velocity.0 * t,
            self.start.y + self.velocity.1 * t,
        )
    }
    fn on_start(&mut self, ctx: &mut Context<'_, u32, u8>) {
        if !self.period.is_zero() {
            ctx.set_timer(self.period, 0);
        }
    }
    fn on_packet(&mut self, _ctx: &mut Context<'_, u32, u8>, _from: NodeId, _p: u32, _ch: Channel) {
        self.heard += 1;
    }
    fn on_timer(&mut self, ctx: &mut Context<'_, u32, u8>, _token: u8) {
        ctx.broadcast(0);
        ctx.set_timer(self.period, 0);
    }
    fn state_digest(&self) -> u64 {
        self.heard
    }
}

fn world_with(cfg: WorldConfig, beacons: Vec<Beacon>) -> (World<u32, u8>, Vec<NodeId>) {
    let mut world = World::new(cfg);
    let ids = beacons
        .into_iter()
        .map(|b| world.spawn(Box::new(b)))
        .collect();
    (world, ids)
}

proptest! {
    /// Static layouts: for every node and every shard count, the sharded
    /// index must return exactly the scan's neighbor list (including a
    /// node at distance exactly `radio_range_m` — the check is inclusive),
    /// and must keep doing so after mid-timestamp despawns.
    #[test]
    fn sharded_matches_scan_on_random_layouts(
        positions in prop::collection::vec(
            (-4000.0f64..4000.0, -500.0f64..500.0),
            MIN_NODES..120,
        ),
        despawn_mask in any::<u64>(),
        range_m in 50u32..800,
        shard_pick in 0usize..4,
    ) {
        let shards = [1u32, 2, 3, 7][shard_pick];
        let range = f64::from(range_m);
        let mut positions = positions;
        positions.insert(0, (0.0, 0.0));
        positions.push((range, 0.0));
        let cfg = WorldConfig {
            radio_range_m: range,
            backend: WorldBackend::Sharded { shards },
            ..WorldConfig::default()
        };
        let beacons = positions.iter().map(|&(x, y)| Beacon::still(x, y)).collect();
        let (mut world, ids) = world_with(cfg, beacons);

        let boundary = *ids.last().unwrap();
        prop_assert!(
            world.neighbors_of(ids[0]).contains(&boundary),
            "node exactly at radio_range_m must be a neighbor"
        );
        for &id in &ids {
            let sharded = world.neighbors_of(id);
            let scan = world.neighbors_of_scan(id);
            prop_assert_eq!(sharded, scan, "sharded/scan diverged for {:?}", id);
        }

        // Despawn a subset within the same timestamp: the (stale) index
        // must filter them at query time, exactly like the scan.
        for (i, &id) in ids.iter().enumerate().skip(1) {
            if despawn_mask >> (i % 64) & 1 == 1 {
                world.despawn(id);
            }
        }
        for &id in &ids {
            if !world.is_active(id) {
                continue;
            }
            let sharded = world.neighbors_of(id);
            let scan = world.neighbors_of_scan(id);
            prop_assert_eq!(sharded, scan, "diverged for {:?} after despawns", id);
        }
    }

    /// Moving nodes with a finite motion bound: the index goes stale
    /// between rebuild horizons, and its answers must still match the
    /// scan at every sampled timestamp — the staleness-horizon exactness
    /// claim, checked differentially.
    #[test]
    fn sharded_matches_scan_across_staleness_horizons(
        seeds in prop::collection::vec(0u64..1_000_000, MIN_NODES..90,),
        shard_pick in 0usize..4,
    ) {
        let shards = [1u32, 2, 3, 7][shard_pick];
        let range = 400.0;
        let bound = 30.0; // m/s; horizon = 0.5·range/bound ≈ 6.7 s
        let cfg = WorldConfig {
            radio_range_m: range,
            backend: WorldBackend::Sharded { shards },
            motion_bound_mps: bound,
            ..WorldConfig::default()
        };
        let beacons = seeds
            .iter()
            .enumerate()
            .map(|(i, &s)| {
                // Deterministic pseudo-random strip layout and speeds
                // within the declared bound (some nodes drive backward).
                let x = (s % 9000) as f64;
                let y = (s / 9000 % 100) as f64;
                let v = 10.0 + (s % 21) as f64; // 10..=30 ≤ bound
                let dir = if i % 3 == 0 { -1.0 } else { 1.0 };
                Beacon {
                    start: Position::new(x, y),
                    velocity: (v * dir, 0.0),
                    period: Duration::ZERO,
                    heard: 0,
                }
            })
            .collect();
        let (mut world, ids) = world_with(cfg, beacons);

        // Sample both inside the first horizon (stale index) and well
        // past several expiries (rebuilds + boundary handoffs).
        for secs in [1u64, 4, 8, 15, 23, 30] {
            world.run_until(Time::from_secs(secs));
            for &id in &ids {
                let sharded = world.neighbors_of(id);
                let scan = world.neighbors_of_scan(id);
                prop_assert_eq!(
                    sharded, scan,
                    "diverged for {:?} at t = {} s (shards = {})", id, secs, shards
                );
            }
        }
        let diag = world.shard_diagnostics().expect("sharded backend ran");
        prop_assert!(diag.full_rebuilds >= 2, "horizon expiries must rebuild");
    }

    /// The full differential-oracle claim: a sharded world running a live
    /// jittered broadcast workload produces the **same** `EngineStamp`
    /// witness and `Stats::digest` as the serial world, for any shard
    /// count — same RNG state, same scheduler counters, same node digests.
    #[test]
    fn sharded_world_is_bit_identical_to_serial(
        seed in 0u64..10_000,
        shard_pick in 0usize..4,
    ) {
        let shards = [1u32, 2, 3, 7][shard_pick];
        let build = |backend: WorldBackend| {
            let cfg = WorldConfig {
                radio_range_m: 300.0,
                seed,
                backend,
                motion_bound_mps: 35.0,
                ..WorldConfig::default()
            };
            let beacons: Vec<Beacon> = (0..MIN_NODES + 10)
                .map(|i| Beacon {
                    start: Position::new((i as f64) * 120.0, (i % 4) as f64 * 40.0),
                    velocity: (if i % 2 == 0 { 25.0 } else { -25.0 }, 0.0),
                    period: Duration::from_millis(700 + (i as u64 % 5) * 130),
                    heard: 0,
                })
                .collect();
            world_with(cfg, beacons).0
        };

        let mut serial = build(WorldBackend::Serial);
        let mut sharded = build(WorldBackend::Sharded { shards });
        for secs in [5u64, 12] {
            serial.run_until(Time::from_secs(secs));
            sharded.run_until(Time::from_secs(secs));
            prop_assert_eq!(
                serial.engine_stamp(),
                sharded.engine_stamp(),
                "witness diverged at t = {} s (shards = {})", secs, shards
            );
        }
        prop_assert_eq!(serial.stats().digest(), sharded.stats().digest());
    }
}
