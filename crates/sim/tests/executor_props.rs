//! Differential property tests for the conservative-window parallel
//! executor: a `Windowed { threads }` world must be **bit-identical** to
//! the serial executor — same delivery trace bytes, same `EngineStamp`
//! witnesses, same `Stats::digest` — for any thread count × shard count,
//! on live jittered broadcast workloads, including runs whose windows
//! are split by mid-run crash/restart fault edges.
//!
//! These are differential oracles, not statistical ones: the windowed
//! executor stages handler effects and commits them in serial
//! `(time, seq)` order by construction, so *any* byte of drift is an
//! engine bug.

use std::cell::RefCell;
use std::rc::Rc;

use blackdp_sim::{
    Channel, Context, CrashFault, Duration, ExecutorMode, FaultPlan, Node, NodeId, Position, Time,
    World, WorldBackend, WorldConfig,
};
use proptest::prelude::*;

/// Enough beacons to populate several bands, so sharded × windowed runs
/// exercise the band-ownership lane partition on a real index.
const NODES: usize = 72;

/// A beacon moving at constant velocity that rebroadcasts on a periodic
/// timer and counts what it hears — jittered broadcasts give every
/// window multiple same-span deliveries to parallelize, and the heard
/// counter feeds `state_digest` so reordered handler execution would
/// surface in the `EngineStamp`.
struct Beacon {
    start: Position,
    velocity: (f64, f64),
    period: Duration,
    heard: u64,
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
        ctx.set_timer(self.period, 0);
    }
    fn on_packet(&mut self, ctx: &mut Context<'_, u32, u8>, from: NodeId, p: u32, _ch: Channel) {
        self.heard += 1;
        ctx.count("heard");
        // Every 16th packet triggers an immediate reply, so windows also
        // carry handler-emitted sends whose RNG draws must stay in
        // serial commit order.
        if self.heard.is_multiple_of(16) {
            ctx.send(from, p ^ 0xA5A5);
        }
    }
    fn on_timer(&mut self, ctx: &mut Context<'_, u32, u8>, _token: u8) {
        ctx.broadcast(self.heard as u32);
        ctx.set_timer(self.period, 0);
    }
    fn on_restart(&mut self, ctx: &mut Context<'_, u32, u8>) {
        // Re-arm the beacon so a restarted node keeps participating.
        ctx.set_timer(self.period, 0);
    }
    fn state_digest(&self) -> u64 {
        self.heard
    }
}

/// One run's observable behavior, byte-for-byte.
#[derive(PartialEq, Debug)]
struct RunWitness {
    /// Serialized delivery trace: every radio/wired delivery in
    /// execution order.
    trace: Vec<u8>,
    /// Scheduler/RNG/digest witnesses sampled mid-run and at the end.
    stamps: Vec<blackdp_sim::EngineStamp>,
    /// Order-insensitive stats digest.
    stats_digest: u64,
}

/// Builds and runs one world, recording the full delivery trace.
fn run(
    seed: u64,
    backend: WorldBackend,
    executor: ExecutorMode,
    faults: FaultPlan,
    until_secs: u64,
) -> RunWitness {
    let cfg = WorldConfig {
        seed,
        radio_range_m: 320.0,
        motion_bound_mps: 35.0,
        backend,
        executor,
        ..WorldConfig::default()
    };
    let mut world: World<u32, u8> = World::new(cfg);
    for i in 0..NODES {
        world.spawn(Box::new(Beacon {
            start: Position::new((i as f64) * 110.0, (i % 4) as f64 * 35.0),
            velocity: (if i % 2 == 0 { 25.0 } else { -25.0 }, 0.0),
            period: Duration::from_millis(600 + (i as u64 % 7) * 110),
            heard: 0,
        }));
    }
    if !faults.is_empty() {
        world.install_faults(faults);
    }
    let trace: Rc<RefCell<Vec<u8>>> = Rc::new(RefCell::new(Vec::new()));
    let sink = Rc::clone(&trace);
    world.set_tap(Box::new(move |at, from, to, payload: &u32, channel| {
        let mut t = sink.borrow_mut();
        t.extend_from_slice(&at.as_micros().to_be_bytes());
        t.extend_from_slice(&from.index().to_be_bytes());
        t.extend_from_slice(&to.index().to_be_bytes());
        t.extend_from_slice(&payload.to_be_bytes());
        t.push(matches!(channel, Channel::Radio) as u8);
    }));
    let mut stamps = Vec::new();
    for step in 1..=2u64 {
        world.run_until(Time::from_secs(until_secs * step / 2));
        stamps.push(world.engine_stamp());
    }
    let stats_digest = world.stats().digest();
    drop(world); // release the tap's clone of the trace handle
    RunWitness {
        trace: Rc::try_unwrap(trace).unwrap().into_inner(),
        stamps,
        stats_digest,
    }
}

/// Crash/restart edges at sub-millisecond offsets, so they land *inside*
/// would-be parallel windows and force the fault-horizon split.
fn crash_plan(seed: u64) -> FaultPlan {
    let mut plan = FaultPlan::none();
    for k in 0..6u64 {
        let node = NodeId::new(((seed >> (k * 7)) % NODES as u64) as u32);
        let at = Time::from_micros(1_000_000 + k * 1_234_567 + (seed % 997) * 13);
        let restart_at = if k % 3 == 2 {
            None
        } else {
            Some(at + Duration::from_millis(1500 + k * 700))
        };
        plan.crashes.push(CrashFault {
            node,
            at,
            restart_at,
        });
    }
    plan
}

proptest! {
    /// The core claim: thread count × shard count never changes a byte.
    #[test]
    fn windowed_executor_is_bit_identical_to_serial(
        seed in 0u64..10_000,
        thread_pick in 0usize..3,
        shard_pick in 0usize..3,
    ) {
        let threads = [1usize, 2, 8][thread_pick];
        let shards = [1u32, 3, 7][shard_pick];
        let backend = WorldBackend::Sharded { shards };
        let serial = run(seed, backend, ExecutorMode::Serial, FaultPlan::none(), 8);
        let windowed = run(
            seed,
            backend,
            ExecutorMode::Windowed { threads },
            FaultPlan::none(),
            8,
        );
        prop_assert_eq!(
            serial, windowed,
            "windowed run diverged (threads = {}, shards = {})", threads, shards
        );
    }

    /// Same claim with crash/restart edges splitting windows mid-run: the
    /// conservative window must stop short of every fault horizon, and
    /// restarted nodes must rejoin identically.
    #[test]
    fn windowed_executor_is_bit_identical_under_crash_faults(
        seed in 0u64..10_000,
        thread_pick in 0usize..3,
        shard_pick in 0usize..3,
    ) {
        let threads = [1usize, 2, 8][thread_pick];
        let shards = [1u32, 3, 7][shard_pick];
        let backend = WorldBackend::Sharded { shards };
        let serial = run(seed, backend, ExecutorMode::Serial, crash_plan(seed), 8);
        let windowed = run(
            seed,
            backend,
            ExecutorMode::Windowed { threads },
            crash_plan(seed),
            8,
        );
        prop_assert_eq!(
            serial, windowed,
            "faulted windowed run diverged (threads = {}, shards = {})", threads, shards
        );
    }

    /// The serial backend (no band map) must also agree: lane assignment
    /// falls back to id-hashing and the result still cannot drift.
    #[test]
    fn windowed_executor_matches_serial_on_the_serial_backend(
        seed in 0u64..10_000,
    ) {
        let serial = run(seed, WorldBackend::Serial, ExecutorMode::Serial, FaultPlan::none(), 8);
        let windowed = run(
            seed,
            WorldBackend::Serial,
            ExecutorMode::Windowed { threads: 8 },
            FaultPlan::none(),
            8,
        );
        prop_assert_eq!(serial, windowed);
    }
}

/// Guard against the windowed path silently degenerating to the serial
/// fallback: on this workload real multi-delivery windows must form, and
/// the window tap must observe them.
#[test]
fn windowed_runs_actually_form_parallel_windows() {
    let cfg = WorldConfig {
        seed: 7,
        radio_range_m: 320.0,
        motion_bound_mps: 35.0,
        backend: WorldBackend::Sharded { shards: 3 },
        executor: ExecutorMode::Windowed { threads: 8 },
        ..WorldConfig::default()
    };
    let mut world: World<u32, u8> = World::new(cfg);
    for i in 0..NODES {
        world.spawn(Box::new(Beacon {
            start: Position::new((i as f64) * 110.0, (i % 4) as f64 * 35.0),
            velocity: (if i % 2 == 0 { 25.0 } else { -25.0 }, 0.0),
            period: Duration::from_millis(600 + (i as u64 % 7) * 110),
            heard: 0,
        }));
    }
    let counts: Rc<RefCell<(u64, u64)>> = Rc::new(RefCell::new((0, 0)));
    let sink = Rc::clone(&counts);
    world.set_window_tap(Box::new(move |event| {
        let mut c = sink.borrow_mut();
        match event {
            blackdp_sim::WindowEvent::Delivery { .. } => c.0 += 1,
            blackdp_sim::WindowEvent::Flush { .. } => c.1 += 1,
        }
    }));
    world.run_until(Time::from_secs(8));
    let (deliveries, flushes) = *counts.borrow();
    assert!(
        flushes > 0,
        "no parallel window ever formed on a dense broadcast workload"
    );
    let mean = deliveries as f64 / flushes as f64;
    assert!(
        mean >= 2.0,
        "windows are degenerate: {deliveries} deliveries over {flushes} flushes (mean {mean:.2})"
    );
}
