//! Performance gate: times the optimized hot paths — neighbor queries
//! (spatial grid vs. brute-force scan), the crypto substrate (SHA-256,
//! fixed-base exponentiation, Schnorr sign/verify, cached certificate
//! verification) and end-to-end trial throughput (serial vs. parallel
//! sweep) — then writes `results/BENCH_pr2.json` and fails if any gated
//! metric regressed more than 25% against the recorded baseline.
//!
//! The PR-7 raw-speed track adds batch Schnorr verification (per-sig
//! cost at storm batch sizes vs. the inline `verify_ns`), multi-lane
//! SHA-256 throughput, and a steady-state allocation probe for the
//! event loop (the binary runs under a counting allocator; after the
//! probe workload warms up, processing further events must allocate
//! nothing and the event slab must not grow). Those metrics land in
//! `results/BENCH_pr7.json` with the same baseline-comparison format.
//!
//! Usage: `perf [smoke|full]` (default `full`). Smoke shrinks repeat
//! counts and the end-to-end scenario so CI finishes in seconds.
//!
//! Gating policy: per-operation metrics (`*_ns`, `*_mb_s`) are gated
//! against the recorded baseline, normalized by a calibration probe so
//! CPU-frequency drift is not read as a regression. Speedup ratios are
//! quotients of two measurements — their noise compounds — so they are
//! held to absolute floors (`SPEEDUP_FLOORS`) instead: a broken
//! optimization collapses toward 1x, far below any floor. End-to-end
//! wall-clock metrics are recorded for inspection but *not* gated —
//! they track container load, not code. The parallel-sweep speedup is
//! additionally required to reach 2x, but only when more than one
//! worker thread is actually available (a single-core container cannot
//! speed anything up).

use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use blackdp_bench::probe::probe_world;
use blackdp_crypto::field::{pow_g, pow_mod, G, P, Q};
use blackdp_crypto::sha256::lanes;
use blackdp_crypto::sig::VerifyBatch;
use blackdp_crypto::{cert_cache_clear, sha256, Keypair, LongTermId, TaId, TrustedAuthority};
use blackdp_scenario::{
    fig4_cell, fig4_cell_serial, worker_count, AttackKind, ScenarioConfig,
};
use blackdp_sim::{
    Channel, Context, Duration, Node, NodeId, Position, Time, World, WorldConfig,
};
use std::hint::black_box;

/// Counts every heap allocation the process makes, so the event-loop
/// probe can assert the sim's steady state allocates nothing per event.
/// Deallocations are uncounted on purpose: a free/alloc churn pair per
/// event is exactly the regression the probe exists to catch.
struct CountingAlloc;

static ALLOC_COUNT: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_COUNT.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC_COUNT.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_COUNT.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

const OUT_PATH: &str = "results/BENCH_pr2.json";
const OUT_PATH_PR7: &str = "results/BENCH_pr7.json";
const SCHEMA: &str = "blackdp-perf/v1";
const NEIGHBOR_COUNTS: [usize; 4] = [60, 250, 1000, 4000];
/// Regression tolerance: latest may be at most 25% worse than baseline.
const TOLERANCE: f64 = 1.25;
/// Acceptance floor for the parallel sweep (when threads are available).
const MIN_PARALLEL_SPEEDUP: f64 = 2.0;
/// The seed tree's end-to-end throughput (`e2e_trials_per_s` recorded in
/// BENCH_pr2.json before the raw-speed pass), the denominator for
/// `e2e_speedup_vs_seed`, whose floor is in [`SPEEDUP_FLOORS`].
const SEED_TRIALS_PER_S: f64 = 157.5;
/// Signatures per batch in the RREP-storm measurement. Well past the
/// "batch ≥ 16" point the acceptance gate cares about, and big enough
/// that per-batch fixed costs stop dominating the per-signature figure.
const STORM_BATCH: usize = 64;
/// Absolute floors for speedup ratios. A ratio is the quotient of two
/// measurements, so its run-to-run noise compounds — gating it against a
/// recorded baseline flakes. A floor is what actually matters: if an
/// optimization stops working its ratio collapses toward 1x, far below
/// any of these.
const SPEEDUP_FLOORS: &[(&str, f64)] = &[
    ("neighbor_speedup_250", 2.0),
    ("neighbor_speedup_1000", 5.0),
    ("neighbor_speedup_4000", 5.0),
    ("pow_g_speedup", 2.0),
    ("cert_cache_speedup", 2.0),
    ("batch_verify_speedup", 3.0),
    ("sha256_lanes_speedup", 2.0),
    // Honest floor, not the 5x aspiration: the in-loop improvement that
    // survives bit-identical-trace discipline lands near 2x (see
    // EXPERIMENTS E13), and both this ratio's terms are wall-clock, so
    // the floor keeps margin for container load. A collapsed
    // optimization still lands at ~1x, well below it.
    ("e2e_speedup_vs_seed", 1.5),
];

/// This run's reference probe reading (`calib_lcg_ns`), as `f64` bits.
/// Set once in `main` after warmup; single-threaded, so relaxed ordering.
static REF_PROBE_NS: AtomicU64 = AtomicU64::new(0);

fn ref_probe_ns() -> f64 {
    f64::from_bits(REF_PROBE_NS.load(Ordering::Relaxed))
}

/// One fixed serial-dependency multiply/add chain — a proxy for the
/// machine's current effective clock.
#[inline(never)]
fn lcg_chain() {
    let mut x = black_box(0x243F_6A88_85A3_08D3u64);
    for _ in 0..64 {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
    }
    black_box(x);
}

/// Raw timing of `chains` probe chains, in ns per chain.
fn probe_ns(chains: u32) -> f64 {
    let start = Instant::now();
    for _ in 0..chains {
        lcg_chain();
    }
    start.elapsed().as_nanos() as f64 / f64::from(chains)
}

/// Best-of-`reps` raw probe reading. Recorded as `calib_lcg_ns`, used as
/// this run's reference machine speed, and compared across runs by the
/// gate so persistent CPU-frequency differences between a baseline
/// recording and a CI run do not read as code regressions.
fn calibrate(reps: u32) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        best = best.min(probe_ns(20_000));
    }
    best
}

/// Best-of-`reps` timing of `inner` invocations of `f`, in ns per call.
///
/// The container is CPU-quota throttled: a measurement window either
/// runs clean or is hit by a multi-millisecond stall that inflates it
/// wildly. Short windows and best-of-many discard the stalls. Each rep
/// is additionally bracketed by calibration probes; when even the
/// cleaner probe ran >10% over the run's reference the whole
/// neighbourhood was being throttled, and the reading is scaled back
/// toward reference speed (at most 3x — the dead-band and the "never
/// scale up" clamp keep probe jitter from deflating clean readings).
/// Code regressions cannot hide behind this: slow *code* leaves the
/// adjacent probes at full speed.
fn time_ns(reps: u32, inner: u32, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let pre = probe_ns(2_000);
        let start = Instant::now();
        for _ in 0..inner {
            f();
        }
        let ns = start.elapsed().as_nanos() as f64 / f64::from(inner);
        let post = probe_ns(2_000);
        let reference = ref_probe_ns();
        let forgive = if reference > 0.0 {
            (1.1 * reference / pre.min(post)).clamp(1.0 / 3.0, 1.0)
        } else {
            1.0
        };
        best = best.min(ns * forgive);
    }
    best
}

/// Robust speedup measurement: times `base` and `fast` in immediately
/// adjacent windows within each rep and takes the median of the per-rep
/// ratios. Pairing cancels slow drift (CPU frequency, container
/// contention) that plagues ratios of independently-timed best-of
/// readings, and the median discards reps where a quota stall hit one
/// window of the pair.
fn ratio_median(
    reps: u32,
    inner_base: u32,
    mut base: impl FnMut(),
    inner_fast: u32,
    mut fast: impl FnMut(),
) -> f64 {
    let window = |inner: u32, f: &mut dyn FnMut()| {
        let start = Instant::now();
        for _ in 0..inner {
            f();
        }
        start.elapsed().as_nanos() as f64 / f64::from(inner)
    };
    let mut ratios: Vec<f64> = (0..reps.max(9))
        .map(|_| window(inner_base, &mut base) / window(inner_fast, &mut fast))
        .collect();
    ratios.sort_by(f64::total_cmp);
    ratios[ratios.len() / 2]
}

struct Metrics(Vec<(String, f64)>);

impl Metrics {
    fn put(&mut self, name: &str, value: f64) {
        self.0.push((name.to_owned(), value));
    }

    fn get(&self, name: &str) -> Option<f64> {
        self.0
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }
}

fn measure_neighbors(m: &mut Metrics, reps: u32, inner: u32) {
    for n in NEIGHBOR_COUNTS {
        let (mut world, ids) = probe_world(n, 300.0, 42);
        // Average over a spread of query centers so one lucky cell cannot
        // skew the figure.
        let centers: Vec<_> = (0..16).map(|i| ids[i * n / 16]).collect();
        let grid_ns = time_ns(reps, inner, || {
            for &c in &centers {
                black_box(world.neighbors_of(black_box(c)));
            }
        }) / centers.len() as f64;
        let (world, _) = probe_world(n, 300.0, 42);
        let scan_ns = time_ns(reps, inner, || {
            for &c in &centers {
                black_box(world.neighbors_of_scan(black_box(c)));
            }
        }) / centers.len() as f64;
        m.put(&format!("neighbor_grid_ns_{n}"), grid_ns);
        m.put(&format!("neighbor_scan_ns_{n}"), scan_ns);
        m.put(&format!("neighbor_speedup_{n}"), scan_ns / grid_ns);
    }
}

fn measure_crypto(m: &mut Metrics, reps: u32, inner: u32) {
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    // Hashing 4 KiB is slow per call; many short timing windows dodge
    // scheduler interference better than a few long ones.
    let data = vec![0x5Au8; 4096];
    let ns = time_ns(reps * 5, (inner / 20).max(25), || {
        black_box(sha256(black_box(&data)));
    });
    m.put("sha256_mb_s", data.len() as f64 * 1000.0 / ns);

    let scalars: Vec<u64> = (1..64u64)
        .map(|i| (i.wrapping_mul(0x2545_F491) % Q).max(1))
        .collect();
    let mut i = 0;
    let pow_mod_ns = time_ns(reps, inner, || {
        i = (i + 1) % scalars.len();
        black_box(pow_mod(G, black_box(scalars[i]), P));
    });
    let mut i = 0;
    let pow_g_ns = time_ns(reps, inner, || {
        i = (i + 1) % scalars.len();
        black_box(pow_g(black_box(scalars[i])));
    });
    m.put("pow_mod_ns", pow_mod_ns);
    m.put("pow_g_ns", pow_g_ns);
    m.put("pow_g_speedup", pow_mod_ns / pow_g_ns);

    let mut rng = StdRng::seed_from_u64(11);
    let keys = Keypair::generate(&mut rng);
    let msg = b"RREP dest=7 seq=75 hops=3 lifetime=6s";
    let sig = keys.sign(msg, &mut rng);
    m.put(
        "sign_ns",
        time_ns(reps, inner, || {
            black_box(keys.sign(black_box(msg), &mut rng));
        }),
    );
    m.put(
        "verify_ns",
        time_ns(reps, inner, || {
            black_box(keys.public().verify(black_box(msg), black_box(&sig)));
        }),
    );

    let mut rng = StdRng::seed_from_u64(12);
    let mut ta = TrustedAuthority::new(TaId(0), &mut rng);
    let subject = Keypair::generate(&mut rng);
    let cert = ta.enroll(
        LongTermId(77),
        subject.public(),
        Time::from_secs(0),
        Duration::from_secs(3600),
        &mut rng,
    );
    let now = Time::from_secs(10);
    let ta_key = ta.public_key();
    let cold_ns = time_ns(reps, inner.min(2_000), || {
        cert_cache_clear();
        black_box(cert.verify(ta_key, now)).ok();
    });
    cert_cache_clear();
    let _ = cert.verify(ta_key, now);
    let warm_ns = time_ns(reps, inner, || {
        black_box(cert.verify(ta_key, now)).ok();
    });
    cert_cache_clear();
    m.put("cert_verify_cold_ns", cold_ns);
    m.put("cert_verify_warm_ns", warm_ns);
    m.put("cert_cache_speedup", cold_ns / warm_ns);
}

fn measure_e2e(m: &mut Metrics, smoke: bool) -> usize {
    let cfg = if smoke {
        ScenarioConfig::small_test()
    } else {
        ScenarioConfig::paper_table1()
    };
    let reps = if smoke { 4 } else { 10 };
    let threads = worker_count();

    let start = Instant::now();
    let serial = fig4_cell_serial(&cfg, AttackKind::Single, 2, reps);
    let serial_ms = start.elapsed().as_secs_f64() * 1000.0;

    let start = Instant::now();
    let parallel = fig4_cell(&cfg, AttackKind::Single, 2, reps);
    let parallel_ms = start.elapsed().as_secs_f64() * 1000.0;

    // The parallel sweep must be a pure reordering of work: identical
    // trial outcomes in identical order.
    assert_eq!(
        format!("{serial:?}"),
        format!("{parallel:?}"),
        "parallel sweep diverged from the serial reference"
    );

    m.put("e2e_threads", threads as f64);
    m.put("e2e_serial_ms", serial_ms);
    m.put("e2e_parallel_ms", parallel_ms);
    m.put("e2e_parallel_speedup", serial_ms / parallel_ms);
    m.put(
        "e2e_trials_per_s",
        f64::from(reps) / (parallel_ms / 1000.0),
    );
    threads
}

/// Batch Schnorr verification at RREP-storm shape: one destination
/// answering many route discoveries, so every signature is under the
/// same key and the shared-signer fixed-base fast path is live. The
/// per-signature figure divides the whole round — pushes (arena staging,
/// lane hashing) plus `verify_all` — by the batch size, so it is
/// directly comparable to the inline `verify_ns`.
fn measure_batch_verify(m: &mut Metrics, reps: u32, inner: u32) {
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let mut rng = StdRng::seed_from_u64(13);
    let keys = Keypair::generate(&mut rng);
    let msgs: Vec<Vec<u8>> = (0..STORM_BATCH)
        .map(|i| format!("RREP dest=7 seq={} hops=3 lifetime=6s", 75 + i).into_bytes())
        .collect();
    let sigs: Vec<_> = msgs.iter().map(|msg| keys.sign(msg, &mut rng)).collect();
    let mut batch = VerifyBatch::new();
    let rounds = (inner / STORM_BATCH as u32).max(50);
    let storm_ns = time_ns(reps, rounds, || {
        for (msg, &sig) in msgs.iter().zip(&sigs) {
            batch.push(msg, sig, keys.public());
        }
        assert!(batch.verify_all().all_valid());
    }) / STORM_BATCH as f64;
    m.put("batch_verify_ns_per_sig", storm_ns);

    // Distinct signers (a Hello burst from many neighbors): the general
    // interleaved-ladder path, no shared-base shortcut.
    let signers: Vec<Keypair> = (0..STORM_BATCH).map(|_| Keypair::generate(&mut rng)).collect();
    let multi_sigs: Vec<_> = msgs
        .iter()
        .zip(&signers)
        .map(|(msg, k)| k.sign(msg, &mut rng))
        .collect();
    let multi_ns = time_ns(reps, rounds, || {
        for ((msg, &sig), k) in msgs.iter().zip(&multi_sigs).zip(&signers) {
            batch.push(msg, sig, k.public());
        }
        assert!(batch.verify_all().all_valid());
    }) / STORM_BATCH as f64;
    m.put("batch_verify_multi_ns_per_sig", multi_ns);

    // Speedup ratios come from paired windows (single verifies against a
    // whole batch round, back to back within each rep, median across
    // reps) rather than dividing the independently-timed figures above:
    // the container's load varies enough across a run that unpaired
    // ratios flake the floor gate. One fast window covers a full
    // `STORM_BATCH`-signature round, hence the scale factor.
    let mut batch = VerifyBatch::new();
    let mut i = 0;
    let speedup = STORM_BATCH as f64
        * ratio_median(
            reps,
            (inner / 8).max(64),
            || {
                i = (i + 1) % msgs.len();
                black_box(keys.public().verify(black_box(&msgs[i]), black_box(&sigs[i])));
            },
            (inner / 512).max(4),
            || {
                for (msg, &sig) in msgs.iter().zip(&sigs) {
                    batch.push(msg, sig, keys.public());
                }
                assert!(batch.verify_all().all_valid());
            },
        );
    let mut batch = VerifyBatch::new();
    let mut i = 0;
    let multi_speedup = STORM_BATCH as f64
        * ratio_median(
            reps,
            (inner / 8).max(64),
            || {
                i = (i + 1) % msgs.len();
                black_box(keys.public().verify(black_box(&msgs[i]), black_box(&sigs[i])));
            },
            (inner / 512).max(4),
            || {
                for ((msg, &sig), k) in msgs.iter().zip(&multi_sigs).zip(&signers) {
                    batch.push(msg, sig, k.public());
                }
                assert!(batch.verify_all().all_valid());
            },
        );
    m.put("batch_verify_speedup", speedup);
    m.put("batch_verify_multi_speedup", multi_speedup);
}

/// Multi-lane SHA-256 throughput over a full complement of independent
/// messages, against the streaming scalar core's `sha256_mb_s`.
fn measure_lanes(m: &mut Metrics, reps: u32, inner: u32) {
    let bufs: Vec<Vec<u8>> = (0..STORM_BATCH)
        .map(|i| vec![0x5Au8 ^ i as u8; 4096])
        .collect();
    let refs: Vec<&[u8]> = bufs.iter().map(Vec::as_slice).collect();
    let total_bytes: usize = bufs.iter().map(Vec::len).sum();
    let mut out = Vec::new();
    let ns = time_ns(reps * 5, (inner / 600).max(8), || {
        lanes::sha256_many(black_box(&refs), &mut out);
        black_box(&out);
    });
    let lanes_mb_s = total_bytes as f64 * 1000.0 / ns;
    m.put("sha256_lanes_mb_s", lanes_mb_s);
    // Paired-window median for the ratio (see `ratio_median`): one fast
    // window hashes all `STORM_BATCH` buffers, one base window hashes a
    // single equal-sized buffer, hence the scale factor.
    let mut out2 = Vec::new();
    let speedup = STORM_BATCH as f64
        * ratio_median(
            reps,
            (inner / 40).max(16),
            || {
                black_box(sha256(black_box(&bufs[0])));
            },
            (inner / 1280).max(2),
            || {
                lanes::sha256_many(black_box(&refs), &mut out2);
                black_box(&out2);
            },
        );
    m.put("sha256_lanes_speedup", speedup);
}

/// Two nodes lobbing a `u64` back and forth forever: every event is a
/// radio delivery, with nothing in the node logic that could allocate.
/// Whatever the steady state allocates is therefore the engine's own
/// per-event cost — which the slab queue and recycled scratch buffers
/// are supposed to have driven to zero.
struct PingNode {
    at: Position,
}

impl Node<u64, ()> for PingNode {
    fn position(&self, _now: Time) -> Position {
        self.at
    }
    fn on_packet(&mut self, ctx: &mut Context<'_, u64, ()>, from: NodeId, ball: u64, _ch: Channel) {
        ctx.send(from, ball.wrapping_add(1));
    }
    fn on_timer(&mut self, _ctx: &mut Context<'_, u64, ()>, _token: ()) {}
}

/// Steady-state allocation probe for the event loop. Warms the world
/// past its allocation plateau (buffer growth, stats-key interning, heap
/// and slab sizing all happen here), then counts allocator calls and
/// event-slab growth across a long steady-state window. Both must be
/// exactly zero — gated as hard failures, not baseline comparisons.
fn measure_event_loop_allocs(m: &mut Metrics) {
    const WARMUP_EVENTS: u64 = 20_000;
    const MEASURED_EVENTS: u64 = 50_000;

    let mut world: World<u64, ()> = World::new(WorldConfig::default());
    let a = world.spawn(Box::new(PingNode {
        at: Position::new(0.0, 0.0),
    }));
    let b = world.spawn(Box::new(PingNode {
        at: Position::new(500.0, 0.0),
    }));
    world.inject(Time::ZERO, a, b, 0, Channel::Radio);
    let warmed = world.run_to_completion(WARMUP_EVENTS);
    assert_eq!(warmed, WARMUP_EVENTS, "ping-pong must self-sustain");

    let slots_before = world.event_slab_slots();
    let allocs_before = ALLOC_COUNT.load(Ordering::Relaxed);
    let events = world.run_to_completion(MEASURED_EVENTS);
    let allocs_after = ALLOC_COUNT.load(Ordering::Relaxed);
    let slots_after = world.event_slab_slots();
    assert_eq!(events, MEASURED_EVENTS, "ping-pong must self-sustain");

    m.put(
        "event_loop_allocs_per_event",
        (allocs_after - allocs_before) as f64 / events as f64,
    );
    m.put(
        "event_loop_slab_growth",
        (slots_after - slots_before) as f64,
    );
}

/// Metrics gated against the recorded baseline. End-to-end wall-clock is
/// excluded (it measures machine load) and speedup ratios are gated by
/// [`SPEEDUP_FLOORS`] instead; everything listed here is a per-operation
/// figure that, after machine-speed normalization, is stable run-to-run.
fn gated(name: &str) -> bool {
    name.starts_with("neighbor_grid_ns_")
        || matches!(
            name,
            "sha256_mb_s"
                | "pow_g_ns"
                | "sign_ns"
                | "verify_ns"
                | "cert_verify_warm_ns"
                | "batch_verify_ns_per_sig"
                | "batch_verify_multi_ns_per_sig"
                | "sha256_lanes_mb_s"
        )
}

/// Metrics belonging to the PR-7 raw-speed track, written to
/// `BENCH_pr7.json` (everything else stays in `BENCH_pr2.json`).
fn pr7_metric(name: &str) -> bool {
    name == "calib_lcg_ns"
        || name.starts_with("batch_verify_")
        || name.starts_with("sha256_lanes_")
        || name.starts_with("event_loop_")
        || matches!(name, "e2e_trials_per_s" | "e2e_speedup_vs_seed")
}

/// `true` when smaller values of this metric are better.
fn lower_is_better(name: &str) -> bool {
    // `_ns_` / `_ms_` catches per-size timings like `neighbor_grid_ns_60`.
    ["_ns", "_ms"]
        .iter()
        .any(|u| name.ends_with(u) || name.contains(&format!("{u}_")))
}

fn render_json(mode: &str, threads: usize, baseline: &Metrics, latest: &Metrics) -> String {
    let obj = |m: &Metrics| {
        let mut s = String::new();
        for (i, (name, value)) in m.0.iter().enumerate() {
            let sep = if i + 1 == m.0.len() { "" } else { "," };
            let _ = writeln!(s, "    \"{name}\": {value:.3}{sep}");
        }
        s
    };
    format!(
        "{{\n  \"schema\": \"{SCHEMA}\",\n  \"mode\": \"{mode}\",\n  \"threads\": {threads},\n  \"baseline\": {{\n{}  }},\n  \"latest\": {{\n{}  }}\n}}\n",
        obj(baseline),
        obj(latest)
    )
}

/// Minimal parser for the files this binary writes: returns the stored
/// `mode` and the `baseline` object's entries. Returns `None` when the
/// file is absent or not recognizably ours.
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
        let name = name.trim().trim_matches('"');
        if let Ok(value) = value.trim().parse::<f64>() {
            metrics.put(name, value);
        }
    }
    Some((mode, metrics))
}

fn main() {
    let mode = std::env::args().nth(1).unwrap_or_else(|| "full".into());
    let smoke = match mode.as_str() {
        "smoke" => true,
        "full" => false,
        other => {
            eprintln!("usage: perf [smoke|full] (got {other:?})");
            std::process::exit(2);
        }
    };
    // Full mode buys precision with more repeats, NOT longer windows: on
    // a quota-throttled container a long window is just a bigger target
    // for a stall, while best-of-many short windows converges on clean
    // hardware speed.
    let (reps, inner) = if smoke { (5, 2_000) } else { (17, 2_500) };

    // Let the CPU frequency governor ramp up before taking any timings;
    // the first measurements otherwise land on a half-awake clock.
    let warmup = Instant::now();
    let mut spin = 0u64;
    while warmup.elapsed() < std::time::Duration::from_millis(200) {
        spin = spin.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
    }
    black_box(spin);

    let mut latest = Metrics(Vec::new());
    let calib = calibrate(reps.max(7));
    REF_PROBE_NS.store(calib.to_bits(), Ordering::Relaxed);
    latest.put("calib_lcg_ns", calib);
    println!("perf [{mode}]: timing neighbor queries...");
    measure_neighbors(&mut latest, reps, inner.min(500));
    println!("perf [{mode}]: timing crypto hot paths...");
    measure_crypto(&mut latest, reps, inner);
    println!("perf [{mode}]: timing batch verification...");
    measure_batch_verify(&mut latest, reps, inner);
    println!("perf [{mode}]: timing multi-lane SHA-256...");
    measure_lanes(&mut latest, reps, inner);
    println!("perf [{mode}]: probing event-loop allocations...");
    measure_event_loop_allocs(&mut latest);
    println!("perf [{mode}]: timing end-to-end sweep...");
    let threads = measure_e2e(&mut latest, smoke);
    let trials_per_s = latest.get("e2e_trials_per_s").unwrap_or(0.0);
    latest.put("e2e_speedup_vs_seed", trials_per_s / SEED_TRIALS_PER_S);

    println!("\n{:<30} {:>12}", "metric", "value");
    for (name, value) in &latest.0 {
        println!("{name:<30} {value:>12.1}");
    }
    // The ROADMAP throughput claim drifts; keep the measured figure in
    // everyone's face so it gets corrected instead of quoted.
    println!(
        "\ne2e throughput: {trials_per_s:.1} trials/s vs the recorded {SEED_TRIALS_PER_S:.1}/s \
         seed baseline ({:+.1} trials/s, {:.2}x)",
        trials_per_s - SEED_TRIALS_PER_S,
        trials_per_s / SEED_TRIALS_PER_S,
    );

    // Every gated metric is per-operation and mode-independent (smoke and
    // full differ only in repeat counts), so a baseline recorded under
    // either mode is comparable; only the ungated e2e wall-clock figures
    // depend on the mode's scenario size. PR-7 track metrics baseline
    // from their own file; absent entries simply go ungated this run.
    let mut baseline = match load_baseline(OUT_PATH) {
        Some((_stored_mode, stored)) => stored,
        None => Metrics(
            latest
                .0
                .iter()
                .filter(|(n, _)| !pr7_metric(n) || n == "calib_lcg_ns")
                .cloned()
                .collect(),
        ),
    };
    match load_baseline(OUT_PATH_PR7) {
        Some((_stored_mode, stored)) => {
            for (name, value) in stored.0 {
                if baseline.get(&name).is_none() {
                    baseline.put(&name, value);
                }
            }
        }
        None => {
            for entry in latest.0.iter().filter(|(n, _)| pr7_metric(n)) {
                if baseline.get(&entry.0).is_none() {
                    baseline.0.push(entry.clone());
                }
            }
        }
    }

    // Machine-speed correction for absolute metrics: > 1 means this run's
    // CPU is slower than the baseline's, and the tolerance widens so the
    // drift does not read as a code regression. A faster machine needs no
    // correction (raw comparison is already lenient in that direction),
    // and the clamp keeps a broken calibration from masking real
    // regressions.
    let speed = match (latest.get("calib_lcg_ns"), baseline.get("calib_lcg_ns")) {
        (Some(l), Some(b)) if b > 0.0 => (l / b).clamp(1.0, 2.0),
        _ => 1.0,
    };

    let mut failures = Vec::new();
    for (name, &(_, value)) in latest.0.iter().map(|e| (&e.0, e)) {
        if !gated(name) {
            continue;
        }
        let Some(base) = baseline.get(name) else {
            continue;
        };
        let regressed = if lower_is_better(name) {
            value > base * TOLERANCE * speed
        } else {
            value < base / TOLERANCE / speed
        };
        if regressed {
            failures.push(format!(
                "{name}: {value:.1} regressed >25% vs baseline {base:.1} (machine-speed factor {speed:.2})"
            ));
        }
    }

    for &(name, floor) in SPEEDUP_FLOORS {
        let value = latest.get(name).unwrap_or(0.0);
        if value < floor {
            failures.push(format!(
                "{name}: {value:.2}x below the required {floor}x"
            ));
        }
    }
    let par_speedup = latest.get("e2e_parallel_speedup").unwrap_or(0.0);
    if threads > 1 && par_speedup < MIN_PARALLEL_SPEEDUP {
        failures.push(format!(
            "e2e_parallel_speedup: {par_speedup:.2}x below the required {MIN_PARALLEL_SPEEDUP:.0}x with {threads} threads"
        ));
    }
    // The allocation probe gates on exact zero, not a baseline: one
    // alloc per event is a churn regression no tolerance should absorb.
    let allocs_per_event = latest.get("event_loop_allocs_per_event").unwrap_or(f64::NAN);
    if allocs_per_event != 0.0 {
        failures.push(format!(
            "event_loop_allocs_per_event: {allocs_per_event} in steady state (must be exactly 0)"
        ));
    }
    let slab_growth = latest.get("event_loop_slab_growth").unwrap_or(f64::NAN);
    if slab_growth != 0.0 {
        failures.push(format!(
            "event_loop_slab_growth: {slab_growth} slots in steady state (must be exactly 0)"
        ));
    }

    let subset = |keep: &dyn Fn(&str) -> bool, m: &Metrics| {
        Metrics(m.0.iter().filter(|(n, _)| keep(n)).cloned().collect())
    };
    let pr2 = |name: &str| !pr7_metric(name) || matches!(name, "calib_lcg_ns" | "e2e_trials_per_s");
    blackdp_scenario::atomic_write(
        Path::new(OUT_PATH),
        render_json(&mode, threads, &subset(&pr2, &baseline), &subset(&pr2, &latest)).as_bytes(),
    )
    .expect("write BENCH_pr2.json");
    blackdp_scenario::atomic_write(
        Path::new(OUT_PATH_PR7),
        render_json(
            &mode,
            threads,
            &subset(&pr7_metric, &baseline),
            &subset(&pr7_metric, &latest),
        )
        .as_bytes(),
    )
    .expect("write BENCH_pr7.json");
    println!("\nwrote {OUT_PATH} and {OUT_PATH_PR7}");

    if failures.is_empty() {
        println!("perf gate: PASS ({} metrics checked)", latest.0.len());
    } else {
        for f in &failures {
            eprintln!("perf gate FAIL: {f}");
        }
        std::process::exit(1);
    }
}
