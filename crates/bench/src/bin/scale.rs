//! `scale` — the PR-8 large-N shard-scaling track (`results/BENCH_pr8.json`).
//!
//! Three sections, all gated:
//!
//! 1. **Scaling curve** — a large moving-beacon world (N = 100,000 in
//!    smoke, N = 1,000,000 in full) runs a fixed event budget under the
//!    serial backend and under `Sharded { shards }` for each tracked shard
//!    count. Every sharded run must finish on the **same** `EngineStamp`
//!    and `Stats::digest` as the serial oracle (the differential claim,
//!    re-checked at benchmark scale), and the recorded events/s must show
//!    the algorithmic win: the serial backend pays an O(N) scan at every
//!    jittered broadcast, while the sharded backend's motion-bound
//!    staleness horizon makes rebuilds rare. Gates: best sharded speedup
//!    ≥ [`SPEEDUP_FLOOR`] over serial, and a tolerance-monotone curve —
//!    on a one-core container extra shards cannot help, but they must
//!    never collapse below [`MONOTONE_FLOOR`] of the best seen so far.
//! 2. **Churn** — a smaller world run long enough that nodes cross band
//!    boundaries across several rebuild horizons; gates that handoffs
//!    actually happened and the stamp still matches serial.
//! 3. **Boundary audit** — a real 90-vehicle scenario on the sharded
//!    backend with [`attach_boundary_audit`] tapping cross-band sealed
//!    envelopes into a [`BoundaryAuditor`](blackdp::BoundaryAuditor) batch; gates that flushes
//!    reached the batch verifier's lane threshold and nothing failed.
//!
//! All gates are absolute floors (like the perf bin's `SPEEDUP_FLOORS`):
//! a baseline file cannot ratchet them away.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

use blackdp_scenario::{
    atomic_write, attach_boundary_audit, build_scenario, drain_boundary_audit, ScenarioConfig,
    TrialSpec,
};
use blackdp_sim::{
    Channel, Context, Duration, Node, NodeId, Position, ShardDiagnostics, Time, World,
    WorldBackend, WorldConfig,
};

const OUT_PATH: &str = "results/BENCH_pr8.json";
const SCHEMA: &str = "blackdp-scale/v1";

/// Shard counts the scaling curve tracks, ascending.
const SHARD_COUNTS: [u32; 4] = [1, 2, 4, 8];

/// Minimum best-sharded-over-serial events/s ratio at benchmark N. The
/// win is algorithmic (rebuild avoidance), not thread parallelism, so it
/// must hold even on a single-core container.
const SPEEDUP_FLOOR: f64 = 3.0;

/// Scaling-curve regression floor: each shard count's events/s must stay
/// within this fraction of the best seen at any smaller shard count. On
/// one core the curve is expected to be flat; this catches a collapse
/// (e.g. per-shard overhead growing superlinearly) without demanding
/// parallel speedup the hardware cannot give.
const MONOTONE_FLOOR: f64 = 0.5;

/// The batch verifier's scalar/SIMD crossover (crypto `LANE_THRESHOLD`):
/// boundary-audit flushes must reach at least this width.
const LANE_THRESHOLD: usize = 4;

// ---------------------------------------------------------------------------
// Workload: moving beacons on a strip
// ---------------------------------------------------------------------------

/// A beacon on a straight-line trajectory that rebroadcasts on a periodic
/// timer. Periods and phases are staggered per index so broadcasts land
/// on distinct timestamps — the access pattern that leaves the serial
/// backend an O(N) scan per broadcast (a grid build would cost more)
/// while the sharded backend's staleness horizon keeps its index live.
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

/// Strip geometry shared by every run of one section, so serial and
/// sharded worlds are built identically (same spawn order, same
/// trajectories) and their stamps are comparable.
struct Strip {
    n: usize,
    spacing_m: f64,
    range_m: f64,
    /// Declared motion bound; actual speeds stay strictly inside it.
    bound_mps: f64,
    period_base: Duration,
}

impl Strip {
    fn build(&self, backend: WorldBackend) -> World<u32, u8> {
        let cfg = WorldConfig {
            radio_range_m: self.range_m,
            seed: 0xb1ac_4d07,
            backend,
            motion_bound_mps: self.bound_mps,
            ..WorldConfig::default()
        };
        let mut world = World::new(cfg);
        let base = self.period_base.as_micros();
        for i in 0..self.n {
            // Speeds 10..30 m/s, alternating direction; periods and start
            // phases staggered so no two broadcasts share a timestamp.
            let speed = 10.0 + (i % 20) as f64;
            let dir = if i % 2 == 0 { 1.0 } else { -1.0 };
            world.spawn(Box::new(Beacon {
                start: Position::new(i as f64 * self.spacing_m, (i % 8) as f64 * 20.0),
                velocity_x: speed * dir,
                phase: Duration::from_micros((i as u64 * 131) % base + 1),
                period: Duration::from_micros(base + (i as u64 % 997) * 404),
                heard: 0,
            }));
        }
        world
    }
}

/// One timed run: executes exactly `budget` events and reports events/s
/// plus the bit-identity witnesses. Build time is excluded — the curve
/// measures steady-state event throughput, not spawn cost.
struct RunResult {
    events_per_s: f64,
    executed: u64,
    stamp: blackdp_sim::EngineStamp,
    stats_digest: u64,
    diagnostics: Option<ShardDiagnostics>,
}

fn timed_run(strip: &Strip, backend: WorldBackend, budget: u64) -> RunResult {
    let mut world = strip.build(backend);
    let started = Instant::now();
    let executed = world.run_to_completion(budget);
    let secs = started.elapsed().as_secs_f64().max(1e-9);
    RunResult {
        events_per_s: executed as f64 / secs,
        executed,
        stamp: world.engine_stamp(),
        stats_digest: world.stats().digest(),
        diagnostics: world.shard_diagnostics(),
    }
}

// ---------------------------------------------------------------------------
// Reporting (mirrors the perf bin's JSON shape)
// ---------------------------------------------------------------------------

struct Metrics(Vec<(String, f64)>);

impl Metrics {
    fn put(&mut self, name: &str, value: f64) {
        self.0.retain(|(n, _)| n != name);
        self.0.push((name.to_owned(), value));
    }
}

fn render_json(mode: &str, n: usize, baseline: &Metrics, latest: &Metrics) -> String {
    let obj = |m: &Metrics| {
        let mut s = String::new();
        for (i, (name, value)) in m.0.iter().enumerate() {
            let sep = if i + 1 == m.0.len() { "" } else { "," };
            let _ = writeln!(s, "    \"{name}\": {value:.3}{sep}");
        }
        s
    };
    format!(
        "{{\n  \"schema\": \"{SCHEMA}\",\n  \"mode\": \"{mode}\",\n  \"n\": {n},\n  \"baseline\": {{\n{}  }},\n  \"latest\": {{\n{}  }}\n}}\n",
        obj(baseline),
        obj(latest)
    )
}

/// Returns the stored `mode` and `baseline` entries of a previous run, or
/// `None` when the file is absent or not recognizably ours.
fn load_baseline(path: &str) -> Option<(String, Metrics)> {
    let text = std::fs::read_to_string(path).ok()?;
    if !text.contains(&format!("\"schema\": \"{SCHEMA}\"")) {
        return None;
    }
    let mode = text
        .split("\"mode\": \"")
        .nth(1)?
        .split('"')
        .next()?
        .to_owned();
    let body = text.split("\"baseline\": {").nth(1)?.split('}').next()?;
    let mut metrics = Metrics(Vec::new());
    for line in body.lines() {
        let line = line.trim().trim_end_matches(',');
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        if let Ok(value) = value.trim().parse::<f64>() {
            metrics.put(name.trim().trim_matches('"'), value);
        }
    }
    Some((mode, metrics))
}

// ---------------------------------------------------------------------------
// Gates
// ---------------------------------------------------------------------------

struct Gate {
    name: String,
    pass: bool,
    detail: String,
}

fn gate(gates: &mut Vec<Gate>, name: &str, pass: bool, detail: String) {
    let verdict = if pass { "PASS" } else { "FAIL" };
    println!("  [{verdict}] {name}: {detail}");
    gates.push(Gate {
        name: name.to_owned(),
        pass,
        detail,
    });
}

fn main() {
    let mode = std::env::args().nth(1).unwrap_or_else(|| "full".into());
    let smoke = match mode.as_str() {
        "smoke" => true,
        "full" => false,
        other => {
            eprintln!("usage: scale [smoke|full] (got {other:?})");
            std::process::exit(2);
        }
    };
    // Full mode scales N to the million-vehicle track; the event budget
    // grows much more slowly because the serial oracle's cost per
    // broadcast is O(N) — the budget only needs enough broadcasts to
    // dominate the one-off build and first rebuild.
    let (n, budget) = if smoke {
        (100_000usize, 120_000u64)
    } else {
        (1_000_000usize, 150_000u64)
    };

    let mut gates: Vec<Gate> = Vec::new();
    let mut latest = Metrics(Vec::new());
    latest.put("scale_n", n as f64);

    // -- Section 1: scaling curve ------------------------------------------
    println!("==> scale: events/s vs shard count, N = {n} ({mode})");
    let strip = Strip {
        n,
        spacing_m: 25.0,
        range_m: 300.0,
        bound_mps: 35.0,
        period_base: Duration::from_secs(1),
    };
    let serial = timed_run(&strip, WorldBackend::Serial, budget);
    println!(
        "  serial: {:>12.0} events/s ({} events)",
        serial.events_per_s, serial.executed
    );
    latest.put("scale_events_per_s_serial", serial.events_per_s);

    let mut best = 0.0f64;
    let mut best_speedup = 0.0f64;
    let mut monotone_ok = true;
    for shards in SHARD_COUNTS {
        let run = timed_run(&strip, WorldBackend::Sharded { shards }, budget);
        let speedup = run.events_per_s / serial.events_per_s;
        let diag = run.diagnostics.expect("sharded run has diagnostics");
        println!(
            "  shards {shards}: {:>12.0} events/s ({speedup:.2}x, {} rebuild(s), {} handoff(s))",
            run.events_per_s, diag.full_rebuilds, diag.handoffs
        );
        latest.put(&format!("scale_events_per_s_shards{shards}"), run.events_per_s);
        latest.put(&format!("scale_speedup_shards{shards}"), speedup);

        // The differential claim at benchmark scale: every sharded run
        // lands on the serial oracle's exact witnesses.
        assert_eq!(run.executed, serial.executed, "event budget mismatch");
        assert_eq!(
            run.stamp, serial.stamp,
            "EngineStamp diverged from serial at {shards} shard(s)"
        );
        assert_eq!(
            run.stats_digest, serial.stats_digest,
            "Stats digest diverged from serial at {shards} shard(s)"
        );

        if run.events_per_s < MONOTONE_FLOOR * best {
            monotone_ok = false;
        }
        best = best.max(run.events_per_s);
        best_speedup = best_speedup.max(speedup);
    }
    latest.put("scale_speedup_best", best_speedup);
    gate(
        &mut gates,
        "scale/identity",
        true,
        format!(
            "serial and all sharded runs agree on EngineStamp and Stats digest at N = {n}"
        ),
    );
    gate(
        &mut gates,
        "scale/speedup",
        best_speedup >= SPEEDUP_FLOOR,
        format!("best sharded speedup {best_speedup:.2}x (floor {SPEEDUP_FLOOR:.1}x)"),
    );
    gate(
        &mut gates,
        "scale/monotone",
        monotone_ok,
        format!(
            "each shard count holds ≥ {MONOTONE_FLOOR:.1}x of the best smaller-count events/s"
        ),
    );

    // -- Section 2: churn (handoffs across horizons) -----------------------
    println!("==> scale: boundary churn, N = 2000 over 30 virtual seconds");
    let churn = Strip {
        n: 2_000,
        spacing_m: 50.0,
        range_m: 300.0,
        bound_mps: 35.0,
        period_base: Duration::from_secs(4),
    };
    let run_churn = |backend: WorldBackend| {
        let mut world = churn.build(backend);
        world.run_until(Time::from_secs(30));
        let diag = world.shard_diagnostics();
        (world.engine_stamp(), world.stats().digest(), diag)
    };
    let (churn_serial_stamp, churn_serial_digest, _) = run_churn(WorldBackend::Serial);
    let (churn_stamp, churn_digest, diag) = run_churn(WorldBackend::Sharded { shards: 4 });
    let diag = diag.expect("sharded churn run has diagnostics");
    latest.put("churn_handoffs", diag.handoffs as f64);
    latest.put("churn_full_rebuilds", diag.full_rebuilds as f64);
    assert_eq!(churn_stamp, churn_serial_stamp, "churn stamp diverged");
    assert_eq!(churn_digest, churn_serial_digest, "churn digest diverged");
    gate(
        &mut gates,
        "churn/handoffs",
        diag.handoffs > 0 && diag.full_rebuilds >= 4,
        format!(
            "{} handoff(s) across {} rebuild horizon(s), stamp identical to serial",
            diag.handoffs, diag.full_rebuilds
        ),
    );

    // -- Section 3: boundary audit through the batch verifier --------------
    println!("==> scale: cross-band boundary audit, 90-vehicle scenario");
    let mut cfg = ScenarioConfig::small_test();
    cfg.vehicles = 90;
    cfg.sim_duration = Duration::from_secs(8);
    cfg.backend = WorldBackend::Sharded { shards: 4 };
    let mut built = build_scenario(&cfg, &TrialSpec::single(7, 2, 10));
    let auditor = attach_boundary_audit(&mut built, 2 * LANE_THRESHOLD);
    built
        .world
        .run_until(Time::from_micros(cfg.sim_duration.as_micros()));
    let audit = drain_boundary_audit(&auditor);
    latest.put("audit_enqueued", audit.enqueued as f64);
    latest.put("audit_flushes", audit.flushes as f64);
    latest.put("audit_max_width", audit.max_width as f64);
    latest.put("audit_failures", audit.failures as f64);
    gate(
        &mut gates,
        "audit/width",
        audit.max_width >= LANE_THRESHOLD && audit.enqueued > 0,
        format!(
            "{} envelope(s) in {} flush(es), widest {} (lane threshold {LANE_THRESHOLD})",
            audit.enqueued, audit.flushes, audit.max_width
        ),
    );
    gate(
        &mut gates,
        "audit/clean",
        audit.failures == 0,
        format!("{} audit failure(s)", audit.failures),
    );

    // -- Report ------------------------------------------------------------
    // Baseline policy mirrors the perf bin: keep a stored same-mode
    // baseline for events/s history, else this run seeds it. All gates
    // above are absolute, so the baseline is informational.
    let baseline = match load_baseline(OUT_PATH) {
        Some((stored_mode, stored)) if stored_mode == mode => stored,
        _ => Metrics(latest.0.clone()),
    };
    let json = render_json(&mode, n, &baseline, &latest);
    atomic_write(Path::new(OUT_PATH), json.as_bytes()).expect("write BENCH_pr8.json");
    println!("wrote {OUT_PATH}");

    let failed: Vec<&Gate> = gates.iter().filter(|g| !g.pass).collect();
    if failed.is_empty() {
        println!("scale: all {} gate(s) pass", gates.len());
    } else {
        for g in &failed {
            eprintln!("scale: FAILED {}: {}", g.name, g.detail);
        }
        std::process::exit(1);
    }
}
