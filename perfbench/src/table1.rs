//! `table1`: a closed loop of Figure-4-style trials on the paper's
//! Table-I scenario, one after another on one thread.
//!
//! Trials are drawn from a fixed pool — every attacker cluster × single /
//! cooperative attack × [`REPS`] repetitions, with the renewal-zone
//! evasions `fig4_cell_spec` draws — so every trial's verdict can be
//! checked against the reference recorded with the benchmark
//! (`table1_reference.txt`). The seed picks the order and the repetition
//! of each trial; each block of 20 trials covers all 20 (cluster, attack)
//! cells once, so every seed runs the same mix.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use blackdp::{envelope_memo_clear, Wire};
use blackdp_scenario::{
    build_scenario, fig4_cell_spec, harvest, AttackKind, Frame, ScenarioConfig, TrialOutcome,
    TrialSpec,
};
use blackdp_sim::{EngineStamp, Time};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::measure::{
    median, median_setup, scale_batches, timed, EndToEnd, Mix, Outcome, Span, Windows, MIN_BATCHES,
    WINDOW,
};
use crate::sim_trace::{put_sim_layer, trace_steps, EngineCounts, StepClass, StepTrace};

/// Repetitions per (cluster, attack) cell in the reference pool.
pub const REPS: u32 = 16;

/// The recorded verdict of every pool trial.
const REFERENCE: &str = include_str!("../table1_reference.txt");

/// One pool trial.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PoolTrial {
    pub cooperative: bool,
    pub cluster: u32,
    pub rep: u32,
}

impl PoolTrial {
    pub fn spec(&self, cfg: &ScenarioConfig) -> TrialSpec {
        let kind = if self.cooperative {
            AttackKind::Cooperative
        } else {
            AttackKind::Single
        };
        fig4_cell_spec(cfg, kind, self.cluster, self.rep)
    }

    fn key(&self) -> String {
        let kind = if self.cooperative {
            "cooperative"
        } else {
            "single"
        };
        format!("{kind} {} {}", self.cluster, self.rep)
    }
}

/// The seed's endless trial sequence: blocks of the 20 cells in a
/// seed-shuffled order, each with a seed-drawn repetition.
pub fn plan(seed: u64) -> impl Iterator<Item = PoolTrial> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7ab1_e100);
    let mut block: Vec<PoolTrial> = Vec::new();
    std::iter::from_fn(move || {
        if block.is_empty() {
            for cluster in 1..=10 {
                for cooperative in [false, true] {
                    block.push(PoolTrial {
                        cooperative,
                        cluster,
                        rep: rng.random_range(0..REPS),
                    });
                }
            }
            // Fisher–Yates; popping from the end consumes it.
            for i in (1..block.len()).rev() {
                let j = rng.random_range(0..=i);
                block.swap(i, j);
            }
        }
        block.pop()
    })
}

/// What the reference records of a trial.
pub fn verdict(o: &TrialOutcome) -> String {
    format!(
        "{:?} revoked={} episodes={}",
        o.class,
        o.attacker_revoked,
        o.detections.len()
    )
}

fn reference() -> HashMap<String, String> {
    REFERENCE
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .filter_map(|l| {
            let mut parts = l.splitn(4, ' ');
            let key = format!("{} {} {}", parts.next()?, parts.next()?, parts.next()?);
            Some((key, parts.next()?.to_owned()))
        })
        .collect()
}

/// Writes the reference file's text: the verdict of every pool trial.
pub fn record_reference() -> String {
    let cfg = ScenarioConfig::paper_table1();
    let mut text = String::from("# table1 reference verdicts: kind cluster rep verdict\n");
    for cooperative in [false, true] {
        for cluster in 1..=10 {
            for rep in 0..REPS {
                let t = PoolTrial {
                    cooperative,
                    cluster,
                    rep,
                };
                let (outcome, _) = run_trial(&cfg, &t.spec(&cfg));
                text.push_str(&format!("{} {}\n", t.key(), verdict(&outcome)));
            }
        }
    }
    text
}

/// Starts a trial with empty verification caches, as a trial of a fresh
/// seed finds them: the envelope memo is process-wide, so a pool trial
/// run twice would otherwise replay its own verdicts.
fn cold_caches() {
    envelope_memo_clear();
    blackdp_crypto::cert_cache_clear();
}

/// One untraced trial: build, run to the configured duration, harvest.
pub fn run_trial(cfg: &ScenarioConfig, spec: &TrialSpec) -> (TrialOutcome, EngineStamp) {
    cold_caches();
    let mut built = build_scenario(cfg, spec);
    built.world.run_until(Time::ZERO + cfg.sim_duration);
    let stamp = built.world.engine_stamp();
    (harvest(cfg, spec, &built), stamp)
}

fn classify(frame: &Frame) -> StepClass {
    match &frame.wire {
        Wire::Aodv(m) => match m.kind() {
            "hello" => StepClass::Hello,
            "rreq" => StepClass::Rreq,
            _ => StepClass::Route,
        },
        Wire::SecuredRrep { .. } => StepClass::Route,
        Wire::BlackDp(m) => match m.kind() {
            "jreq" | "jrep" | "leave" => StepClass::Membership,
            _ => StepClass::Detect,
        },
    }
}

/// The traced twin of [`run_trial`]: the same trial stepped event by
/// event, ending on the untraced stamp.
pub struct TracedTrial {
    pub outcome: TrialOutcome,
    pub stamp: EngineStamp,
    pub steps: StepTrace,
    pub radio_rx: u64,
    pub radio_tx: u64,
    pub wired_rx: u64,
    /// This thread's certificate-cache `(hits, misses)` over the trial.
    pub cert_cache: (u64, u64),
}

pub fn traced_trial(
    cfg: &ScenarioConfig,
    spec: &TrialSpec,
    events: u64,
    build: &mut Span,
    harvest_span: &mut Span,
) -> TracedTrial {
    cold_caches();
    let mut built = timed(build, || build_scenario(cfg, spec));
    let steps = trace_steps(&mut built.world, events, classify);
    // Every remaining event lies past the horizon, so this only moves the
    // clock to it, as the untraced `run_until` did.
    built.world.run_until(Time::ZERO + cfg.sim_duration);
    let stamp = built.world.engine_stamp();
    let stats = built.world.stats();
    let (radio_rx, radio_tx, wired_rx) = (
        stats.get("radio.rx"),
        stats.get("radio.tx"),
        stats.get("wired.rx"),
    );
    let outcome = timed(harvest_span, || harvest(cfg, spec, &built));
    TracedTrial {
        cert_cache: blackdp_crypto::cert_cache_stats(),
        outcome,
        stamp,
        steps,
        radio_rx,
        radio_tx,
        wired_rx,
    }
}

/// What the traced twins of a run add up to.
#[derive(Default)]
struct Traced {
    build: Span,
    harvest: Span,
    steps: StepTrace,
    radio_rx: u64,
    radio_tx: u64,
    cert_cache: (u64, u64),
    wall: Duration,
}

impl Traced {
    /// Replays one trial traced and checks it against its untraced run.
    fn twin(
        &mut self,
        cfg: &ScenarioConfig,
        trial: PoolTrial,
        spec: &TrialSpec,
        stamp: &EngineStamp,
        untraced_verdict: &str,
        out: &mut Outcome,
    ) {
        let start = Instant::now();
        let events = stamp.scheduled - stamp.pending;
        let t = traced_trial(cfg, spec, events, &mut self.build, &mut self.harvest);
        self.wall += start.elapsed();
        out.check(verdict(&t.outcome) == untraced_verdict, || {
            format!("trial {} traced verdict differs from untraced", trial.key())
        });
        out.check(t.stamp == *stamp, || {
            format!("trial {} traced stamp differs from untraced", trial.key())
        });
        out.check(
            t.steps.radio == t.radio_rx && t.steps.wired == t.wired_rx,
            || {
                format!(
                    "trial {}: tap saw {} radio / {} wired deliveries, engine counted {} / {}",
                    trial.key(),
                    t.steps.radio,
                    t.steps.wired,
                    t.radio_rx,
                    t.wired_rx
                )
            },
        );
        self.steps.absorb(&t.steps);
        self.radio_rx += t.radio_rx;
        self.radio_tx += t.radio_tx;
        self.cert_cache.0 += t.cert_cache.0;
        self.cert_cache.1 += t.cert_cache.1;
    }
}

pub fn run(seed: u64, seconds: u64, trace: bool) -> Outcome {
    run_cfg(&ScenarioConfig::paper_table1(), seed, seconds, trace)
}

/// [`run`] on `cfg`. Verdicts are checked against the reference, which
/// holds for `ScenarioConfig::paper_table1()` only.
pub fn run_cfg(cfg: &ScenarioConfig, seed: u64, seconds: u64, trace: bool) -> Outcome {
    let mut out = Outcome::new();
    let reference = reference();
    out.check(reference.len() == 20 * REPS as usize, || {
        format!(
            "reference holds {} verdicts, expected {}",
            reference.len(),
            20 * REPS
        )
    });

    // Set-up: one warm-up trial, fixed across seeds.
    let warm = PoolTrial {
        cooperative: false,
        cluster: 5,
        rep: 0,
    };
    let (setup_s, _) = median_setup(Mix::Churn, 5, || run_trial(cfg, &warm.spec(cfg)));

    let budget = Duration::from_secs(seconds);
    let mut untraced_wall = Duration::ZERO;
    let mut events = 0u64;
    let mut windows = Windows::start(Mix::Churn, [0, 0]);
    // Raw trial milliseconds, with the window each ran in.
    let mut raw_ms: Vec<(f64, usize)> = Vec::new();
    // A traced run pairs each trial with its traced twin right after it,
    // so both see the same load from other tenants of the host and
    // `trace.overhead` compares like with like.
    let mut traced = trace.then(Traced::default);
    for trial in plan(seed) {
        let spec = trial.spec(cfg);
        let t0 = Instant::now();
        let result = catch_unwind(AssertUnwindSafe(|| run_trial(cfg, &spec)));
        let took = t0.elapsed();
        untraced_wall += took;
        raw_ms.push((took.as_secs_f64() * 1e3, windows.closed()));
        out.attempted += 1;
        match result {
            Ok((outcome, stamp)) => {
                events += stamp.scheduled - stamp.pending;
                let got = verdict(&outcome);
                let want = reference.get(&trial.key());
                if want != Some(&got) {
                    out.failed += 1;
                    out.note(format!(
                        "trial {} verdict {got:?}, reference {want:?}",
                        trial.key()
                    ));
                }
                if let Some(acc) = traced.as_mut() {
                    acc.twin(cfg, trial, &spec, &stamp, &got, &mut out);
                }
            }
            Err(_) => {
                out.failed += 1;
                out.note(format!("trial {} panicked", trial.key()));
            }
        }
        if untraced_wall >= budget && raw_ms.len() >= MIN_BATCHES {
            break;
        }
        if windows.open_for() >= WINDOW {
            windows.mark([out.attempted, events]);
        }
    }
    windows.finish([out.attempted, events]);
    let speeds = windows.speeds();
    let wall = untraced_wall.as_secs_f64();
    out.note(format!(
        "table1: {} trials, {events} events in {wall:.3} s (raw p50 {:.3} ms), {} failed; \
         host speed {:.3} (median of {} windows)",
        out.attempted,
        median(&raw_ms.iter().map(|r| r.0).collect::<Vec<_>>()),
        out.failed,
        median(&speeds),
        speeds.len()
    ));

    let Some(Traced {
        build,
        harvest: harvest_span,
        steps,
        radio_rx,
        radio_tx,
        cert_cache: (hits, misses),
        wall: traced_wall,
    }) = traced
    else {
        let [ops_per_s, events_per_s] = windows.median_rates();
        out.put_end_to_end(&EndToEnd {
            setup_s,
            events_per_s,
            ops_per_s,
            batch_ms: scale_batches(&raw_ms, &windows),
        });
        return out;
    };

    let engine = EngineCounts {
        executed: events,
        radio_rx,
        radio_tx,
    };
    put_sim_layer(
        &mut out,
        &steps,
        &engine,
        [0.0; 2],
        build.secs() + harvest_span.secs(),
        [wall, traced_wall.as_secs_f64()],
    );
    out.detail("sim.events.wired", steps.wired as f64, "count");
    for (layer, kind, class) in [
        ("aodv", "hello", StepClass::Hello),
        ("aodv", "rreq", StepClass::Rreq),
        ("aodv", "route", StepClass::Route),
        ("core", "membership", StepClass::Membership),
        ("core", "detect", StepClass::Detect),
    ] {
        let span = steps.span(class);
        out.detail(&format!("{layer}.step.{kind}.self_s"), span.secs(), "s");
        out.detail(
            &format!("{layer}.events.{kind}"),
            span.calls as f64,
            "count",
        );
    }
    out.detail("crypto.cert_cache.hits", hits as f64, "count");
    out.detail("crypto.cert_cache.misses", misses as f64, "count");
    out.detail("scenario.build_s", build.secs(), "s");
    out.detail("scenario.harvest_s", harvest_span.secs(), "s");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_is_a_pure_function_of_the_seed() {
        let a: Vec<_> = plan(7).take(60).collect();
        let b: Vec<_> = plan(7).take(60).collect();
        let c: Vec<_> = plan(8).take(60).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn every_block_covers_each_cell_once() {
        let trials: Vec<_> = plan(3).take(40).collect();
        for block in trials.chunks(20) {
            let mut cells: Vec<_> = block.iter().map(|t| (t.cooperative, t.cluster)).collect();
            cells.sort();
            cells.dedup();
            assert_eq!(cells.len(), 20);
            assert!(block.iter().all(|t| t.rep < REPS));
        }
    }

    #[test]
    fn reference_covers_the_pool() {
        let r = reference();
        assert_eq!(r.len(), 20 * REPS as usize);
        for t in plan(11).take(40) {
            assert!(r.contains_key(&t.key()), "{} missing", t.key());
        }
    }

    #[test]
    fn traced_trial_ends_on_the_untraced_stamp() {
        let cfg = ScenarioConfig {
            sim_duration: blackdp_sim::Duration::from_secs(3),
            ..ScenarioConfig::paper_table1()
        };
        let spec = PoolTrial {
            cooperative: true,
            cluster: 4,
            rep: 1,
        }
        .spec(&cfg);
        let (outcome, stamp) = run_trial(&cfg, &spec);
        let mut build = Span::default();
        let mut harvest_span = Span::default();
        let t = traced_trial(
            &cfg,
            &spec,
            stamp.scheduled - stamp.pending,
            &mut build,
            &mut harvest_span,
        );
        assert_eq!(t.stamp, stamp);
        assert_eq!(t.outcome, outcome);
        assert_eq!(t.steps.radio, t.radio_rx);
        assert_eq!(t.steps.wired, t.wired_rx);
        assert!(t.steps.span(StepClass::Hello).calls > 0);
        assert_eq!(build.calls, 1);
        assert_eq!(harvest_span.calls, 1);
    }
}
