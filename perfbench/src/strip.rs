//! `strip100k`: 100,000 moving beacons on `WorldConfig::default()`, each
//! broadcasting on its own staggered period. No protocol, no crypto: the
//! engine's queue and its default neighbor index carry all the work.
//! Every broadcast lands on a fresh timestamp, so the default grid is
//! rebuilt for each one.

use std::time::{Duration as WallDuration, Instant};

use blackdp_sim::{Channel, Context, Duration, Node, NodeId, Position, Time, World, WorldConfig};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::measure::{median, median_setup, scale_batches, EndToEnd, Mix, Outcome};
use crate::sim_trace::{put_sim_layer, step_for, trace_steps, EngineCounts, StepClass, Stepped};

pub const N: usize = 100_000;

/// Mean spacing along the strip; with the default 1,000 m range each
/// broadcast reaches about twenty receivers.
const SPACING_M: f64 = 100.0;

/// Mean beacon period.
const PERIOD_US: u64 = 1_000_000;

/// Events per timed batch: about 14 broadcasts, some 40 ms.
const BATCH: u64 = 256;

struct Beacon {
    start: Position,
    velocity_x: f64,
    phase: Duration,
    period: Duration,
    heard: u64,
}

impl Node<u32, u8> for Beacon {
    fn position(&self, now: Time) -> Position {
        Position::new(
            self.start.x + self.velocity_x * now.as_secs_f64(),
            self.start.y,
        )
    }
    fn on_start(&mut self, ctx: &mut Context<'_, u32, u8>) {
        ctx.set_timer(self.phase, 0);
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

/// The seed's node parameters: `(start, velocity, phase, period)`.
pub fn layout(seed: u64, n: usize) -> Vec<(Position, f64, Duration, Duration)> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5717_1000);
    (0..n)
        .map(|i| {
            let x = i as f64 * SPACING_M + rng.random_range(0.0..SPACING_M);
            let y = f64::from(rng.random_range(0..4u32)) * 5.0;
            let speed = rng.random_range(10.0..30.0);
            let dir = if rng.random::<bool>() { 1.0 } else { -1.0 };
            let phase = Duration::from_micros(rng.random_range(1..=PERIOD_US));
            let period =
                Duration::from_micros(rng.random_range(PERIOD_US * 9 / 10..PERIOD_US * 11 / 10));
            (Position::new(x, y), speed * dir, phase, period)
        })
        .collect()
}

pub fn build(seed: u64, n: usize) -> World<u32, u8> {
    let mut world = World::new(WorldConfig {
        seed,
        ..WorldConfig::default()
    });
    for (start, velocity_x, phase, period) in layout(seed, n) {
        world.spawn(Box::new(Beacon {
            start,
            velocity_x,
            phase,
            period,
            heard: 0,
        }));
    }
    world
}

/// Deliveries every beacon counted itself.
fn heard_total(world: &World<u32, u8>) -> u64 {
    (0..world.node_count() as u32)
        .filter_map(|i| world.get::<Beacon>(NodeId::new(i)))
        .map(|b| b.heard)
        .sum()
}

pub fn run(seed: u64, seconds: u64, trace: bool) -> Outcome {
    run_n(seed, seconds, trace, N)
}

pub fn run_n(seed: u64, seconds: u64, trace: bool, n: usize) -> Outcome {
    let mut out = Outcome::new();
    let (setup_s, mut world) = median_setup(Mix::Churn, 3, || build(seed, n));

    let Stepped {
        executed,
        windows,
        batch_ms,
    } = step_for(
        &mut world,
        Mix::Churn,
        WallDuration::from_secs(seconds),
        BATCH,
        |w| w.stats().get("radio.tx"),
    );
    let wall = windows.measured_secs();
    let stamp = world.engine_stamp();
    let engine = EngineCounts {
        executed,
        radio_rx: world.stats().get("radio.rx"),
        radio_tx: world.stats().get("radio.tx"),
    };
    out.attempted = executed;
    out.check(stamp.scheduled - stamp.pending == executed, || {
        format!(
            "engine executed {} events, benchmark stepped {executed}",
            stamp.scheduled - stamp.pending
        )
    });
    let heard = heard_total(&world);
    out.check(heard == engine.radio_rx, || {
        format!(
            "beacons heard {heard} deliveries, engine counted radio.rx = {}",
            engine.radio_rx
        )
    });
    out.note(format!(
        "strip100k: {executed} events to virtual {:.3} ms in {wall:.3} s ({} broadcasts)",
        stamp.now_micros as f64 / 1e3,
        engine.radio_tx
    ));
    out.note(format!(
        "host speed {:.3} (median of {} windows)",
        median(&windows.speeds()),
        windows.closed()
    ));
    drop(world);

    if !trace {
        let [events_per_s, ops_per_s] = windows.median_rates();
        out.put_end_to_end(&EndToEnd {
            setup_s,
            events_per_s,
            ops_per_s,
            batch_ms: scale_batches(&batch_ms, &windows),
        });
        return out;
    }

    let mut world = build(seed, n);
    let traced_start = Instant::now();
    let steps = trace_steps(&mut world, executed, |_| StepClass::Deliver);
    let traced_wall = traced_start.elapsed().as_secs_f64();
    out.check(world.engine_stamp() == stamp, || {
        "traced run ended on a different EngineStamp".into()
    });
    out.check(steps.radio == engine.radio_rx, || {
        format!(
            "tap saw {} deliveries, engine counted radio.rx = {}",
            steps.radio, engine.radio_rx
        )
    });
    put_sim_layer(
        &mut out,
        &steps,
        &engine,
        [0.0; 2],
        0.0,
        [wall, traced_wall],
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_is_a_pure_function_of_the_seed() {
        assert_eq!(layout(5, 200), layout(5, 200));
        assert_ne!(layout(5, 200), layout(6, 200));
    }

    #[test]
    fn small_strip_traced_run_passes_its_checks() {
        let out = run_n(3, 1, true, 2_000);
        assert!(out.correct, "{:?}", out.notes);
        assert!(out.attempted > 0);
    }
}
