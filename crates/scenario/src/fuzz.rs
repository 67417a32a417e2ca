//! Coverage-guided scenario fuzzing over the Table-I neighborhood.
//!
//! A [`FuzzCase`] is a flat, all-integer description of one randomized
//! trial: vehicle count, attack mixture, evasion, radio imperfections,
//! fault-plan intensity, certificate validity. Cases serialize to a
//! one-line text format (`blackdp-fuzz-v1 k=v …`) so triggering inputs
//! can live in `results/fuzz_corpus/` and replay byte-exactly in CI.
//!
//! [`run_case`] executes a case with the full invariant oracle and a
//! frame journal attached, catching panics, and returns the outcome plus
//! a *coverage signature*: the set of behavior features the run touched
//! (payload kinds and their log₂ volume buckets, engine stat buckets,
//! the trial classification). The driver in `blackdp-bench --bin fuzz`
//! keeps mutating cases that discover new features — classic greybox
//! coverage guidance, but over protocol behavior instead of branch
//! counters.
//!
//! [`metamorphic_failures`] layers the detection-level oracles on top:
//! adding a black hole must not raise PDR, a superset attacker set must
//! not shrink the confirmed-detection count, and attacker-free runs must
//! never confirm anyone. Each oracle has an eligibility predicate — the
//! relations only hold on clean radio topologies with enough honest
//! vehicles, so the fuzzer checks them exactly where they are sound.

use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};

use blackdp_sim::{Duration, ExecutorMode, Time, WorldBackend};
use rand::rngs::StdRng;
use rand::RngExt;

use crate::build::{build_scenario, harvest, stage_false_suspicion};
use crate::config::{far_destination, AttackSetup, ScenarioConfig, TrialSpec};
use crate::faults::FaultSpec;
use crate::invariants::attach_invariants;
use crate::journal::attach_journal;
use crate::metrics::{TrialClass, TrialOutcome};
use crate::vehicle::DefenseMode;
use blackdp_attacks::EvasionPolicy;

/// Corpus line prefix; bump the version on any field change.
pub const CORPUS_TAG: &str = "blackdp-fuzz-v1";

/// Fixed cluster count of the fuzzed geometry (Table I's 10 km highway).
const CLUSTERS: u32 = 10;

/// One randomized trial, flattened to integers for exact text round-trips.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuzzCase {
    /// World seed (placement, speeds, jitter, keys).
    pub seed: u64,
    /// Total vehicles, attackers included.
    pub vehicles: u32,
    /// Virtual run length in seconds.
    pub sim_secs: u32,
    /// Application packets the source sends.
    pub data_packets: u32,
    /// Attack family: 0 none, 1 false-suspicion, 2 single, 3 cooperative,
    /// 4 gray hole, 5 multiple singles, 6 cooperative gray hole.
    pub attack_kind: u8,
    /// First attack parameter (cluster; for false-suspicion, 1 =
    /// cross-cluster).
    pub attack_a: u32,
    /// Second parameter (gray-hole drop % / second multi cluster).
    pub attack_b: u32,
    /// Third multi cluster (0 = unused).
    pub attack_c: u32,
    /// Fourth multi cluster (0 = unused).
    pub attack_d: u32,
    /// Evasion policy: 0 none, 1 act-legitimately, 2 flee, 3 renew.
    pub evasion: u8,
    /// Source vehicle's cluster.
    pub source_cluster: u32,
    /// Destination cluster; 0 = phantom destination.
    pub dest_cluster: u32,
    /// Attacker hops a cluster after answering the first probe (0/1).
    pub attacker_moves: u8,
    /// Attacker fakes Hello replies (0/1).
    pub attacker_fake_hello: u8,
    /// Radio loss probability, percent.
    pub radio_loss_pct: u32,
    /// Fading full-reception fraction, percent; 0 = unit disk.
    pub fading_pct: u32,
    /// Fraction of honest vehicles driving backward, percent.
    pub backward_pct: u32,
    /// Fault-plan intensity, percent (0 = no faults).
    pub fault_intensity_pct: u32,
    /// Certificate validity in seconds (small values force mid-run
    /// expiry and renewal).
    pub cert_validity_secs: u32,
    /// Route-acceptance defense: 0 BlackDP, 1 first-RREP baseline,
    /// 2 peak baseline, 3 threshold baseline, 4 undefended.
    pub defense: u8,
    /// Spatial backend shard count: 0 = the serial oracle, n ≥ 1 =
    /// `WorldBackend::Sharded { shards: n }`. Bit-identical to serial by
    /// design, which is exactly what the shard-invariance metamorphic
    /// oracle checks. Absent from pre-PR-8 corpus lines (defaults to 0).
    pub shards: u32,
    /// Event-executor worker threads: 0 = the serial executor, n ≥ 1 =
    /// `ExecutorMode::Windowed { threads: n }`. Bit-identical to serial
    /// for every thread count by design — the thread-invariance
    /// metamorphic oracle below checks exactly that. Absent from
    /// pre-PR-10 corpus lines (defaults to 0).
    pub threads: u32,
}

impl FuzzCase {
    /// The staged attack this case describes.
    pub fn attack(&self) -> AttackSetup {
        let c = |v: u32| v.clamp(1, CLUSTERS);
        match self.attack_kind {
            1 => AttackSetup::FalseSuspicion {
                cross_cluster: self.attack_a != 0,
            },
            2 => AttackSetup::Single {
                cluster: c(self.attack_a),
            },
            3 => AttackSetup::Cooperative {
                cluster: c(self.attack_a),
            },
            4 => AttackSetup::GrayHole {
                cluster: c(self.attack_a),
                drop_probability: f64::from(self.attack_b.min(100)) / 100.0,
            },
            5 => {
                let slot = |v: u32| if v == 0 { 0 } else { c(v) };
                AttackSetup::MultipleSingles {
                    clusters: [
                        c(self.attack_a),
                        slot(self.attack_b),
                        slot(self.attack_c),
                        slot(self.attack_d),
                    ],
                }
            }
            6 => AttackSetup::CooperativeGrayHole {
                cluster: c(self.attack_a),
                drop_probability: f64::from(self.attack_b.min(100)) / 100.0,
            },
            _ => AttackSetup::None,
        }
    }

    /// The scenario configuration this case describes.
    pub fn config(&self) -> ScenarioConfig {
        let mut cfg = ScenarioConfig::paper_table1();
        cfg.vehicles = self.vehicles.clamp(8, 200);
        cfg.sim_duration = Duration::from_secs(u64::from(self.sim_secs.clamp(5, 60)));
        cfg.data_packets = self.data_packets.clamp(1, 50);
        cfg.radio_loss = f64::from(self.radio_loss_pct.min(50)) / 100.0;
        cfg.fading_full_fraction = if self.fading_pct == 0 {
            None
        } else {
            Some(f64::from(self.fading_pct.clamp(40, 99)) / 100.0)
        };
        cfg.backward_fraction = f64::from(self.backward_pct.min(50)) / 100.0;
        cfg.blackdp.cert_validity =
            Duration::from_secs(u64::from(self.cert_validity_secs.clamp(5, 600)));
        cfg.defense = match self.defense {
            1 => DefenseMode::BaselineFirstRrep,
            2 => DefenseMode::BaselinePeak,
            3 => DefenseMode::BaselineThreshold,
            4 => DefenseMode::None,
            _ => DefenseMode::BlackDp,
        };
        cfg.backend = if self.shards == 0 {
            WorldBackend::Serial
        } else {
            WorldBackend::Sharded {
                shards: self.shards.min(8),
            }
        };
        cfg.executor = if self.threads == 0 {
            ExecutorMode::Serial
        } else {
            ExecutorMode::Windowed {
                threads: self.threads.min(8) as usize,
            }
        };
        cfg
    }

    /// The trial specification this case describes.
    pub fn spec(&self) -> TrialSpec {
        TrialSpec {
            seed: self.seed,
            attack: self.attack(),
            evasion: match self.evasion {
                1 => EvasionPolicy::ActLegitimately,
                2 => EvasionPolicy::Flee,
                3 => EvasionPolicy::RenewIdentity,
                _ => EvasionPolicy::None,
            },
            source_cluster: self.source_cluster.clamp(1, CLUSTERS),
            dest_cluster: if self.dest_cluster == 0 {
                None
            } else {
                Some(self.dest_cluster.clamp(1, CLUSTERS))
            },
            attacker_moves: self.attacker_moves != 0,
            attacker_fake_hello: self.attacker_fake_hello != 0,
        }
    }

    /// The fault plan this case describes (empty at zero intensity).
    pub fn faults(&self) -> FaultSpec {
        if self.fault_intensity_pct == 0 {
            FaultSpec::none()
        } else {
            FaultSpec::randomized(
                self.seed,
                f64::from(self.fault_intensity_pct.min(100)) / 100.0,
                &self.config(),
            )
        }
    }

    /// Serializes to the one-line corpus format.
    pub fn to_line(&self) -> String {
        format!(
            "{CORPUS_TAG} seed={} vehicles={} sim_secs={} data_packets={} \
             attack_kind={} attack_a={} attack_b={} attack_c={} attack_d={} \
             evasion={} source_cluster={} dest_cluster={} attacker_moves={} \
             attacker_fake_hello={} radio_loss_pct={} fading_pct={} \
             backward_pct={} fault_intensity_pct={} cert_validity_secs={} \
             defense={} shards={} threads={}",
            self.seed,
            self.vehicles,
            self.sim_secs,
            self.data_packets,
            self.attack_kind,
            self.attack_a,
            self.attack_b,
            self.attack_c,
            self.attack_d,
            self.evasion,
            self.source_cluster,
            self.dest_cluster,
            self.attacker_moves,
            self.attacker_fake_hello,
            self.radio_loss_pct,
            self.fading_pct,
            self.backward_pct,
            self.fault_intensity_pct,
            self.cert_validity_secs,
            self.defense,
            self.shards,
            self.threads,
        )
    }

    /// Parses a corpus line (inverse of [`Self::to_line`]).
    pub fn parse_line(line: &str) -> Result<FuzzCase, String> {
        let mut parts = line.split_whitespace();
        if parts.next() != Some(CORPUS_TAG) {
            return Err(format!("corpus line must start with `{CORPUS_TAG}`"));
        }
        let mut case = FuzzCase::baseline(0);
        for kv in parts {
            let (k, v) = kv
                .split_once('=')
                .ok_or_else(|| format!("malformed field `{kv}`"))?;
            let n: u64 = v.parse().map_err(|_| format!("non-integer `{kv}`"))?;
            let n32 = n as u32;
            match k {
                "seed" => case.seed = n,
                "vehicles" => case.vehicles = n32,
                "sim_secs" => case.sim_secs = n32,
                "data_packets" => case.data_packets = n32,
                "attack_kind" => case.attack_kind = n as u8,
                "attack_a" => case.attack_a = n32,
                "attack_b" => case.attack_b = n32,
                "attack_c" => case.attack_c = n32,
                "attack_d" => case.attack_d = n32,
                "evasion" => case.evasion = n as u8,
                "source_cluster" => case.source_cluster = n32,
                "dest_cluster" => case.dest_cluster = n32,
                "attacker_moves" => case.attacker_moves = n as u8,
                "attacker_fake_hello" => case.attacker_fake_hello = n as u8,
                "radio_loss_pct" => case.radio_loss_pct = n32,
                "fading_pct" => case.fading_pct = n32,
                "backward_pct" => case.backward_pct = n32,
                "fault_intensity_pct" => case.fault_intensity_pct = n32,
                "cert_validity_secs" => case.cert_validity_secs = n32,
                "defense" => case.defense = n as u8,
                "shards" => case.shards = n32,
                "threads" => case.threads = n32,
                _ => return Err(format!("unknown field `{k}`")),
            }
        }
        Ok(case)
    }

    /// The paper-shaped starting point every mutation chain grows from.
    pub fn baseline(seed: u64) -> FuzzCase {
        FuzzCase {
            seed,
            vehicles: 30,
            sim_secs: 20,
            data_packets: 5,
            attack_kind: 2,
            attack_a: 2,
            attack_b: 0,
            attack_c: 0,
            attack_d: 0,
            evasion: 0,
            source_cluster: 1,
            dest_cluster: far_destination(2, CLUSTERS),
            attacker_moves: 0,
            attacker_fake_hello: 0,
            radio_loss_pct: 0,
            fading_pct: 0,
            backward_pct: 0,
            fault_intensity_pct: 0,
            cert_validity_secs: 600,
            defense: 0,
            shards: 0,
            threads: 0,
        }
    }

    /// Draws a fully random case.
    pub fn random(rng: &mut StdRng) -> FuzzCase {
        FuzzCase {
            seed: rng.random(),
            // The upper range populates several shard bands, so drawn
            // shard counts split the world across real band boundaries.
            vehicles: rng.random_range(10..=80),
            sim_secs: rng.random_range(10..=25),
            data_packets: rng.random_range(2..=20),
            attack_kind: rng.random_range(0..=6),
            attack_a: rng.random_range(1..=CLUSTERS),
            attack_b: rng.random_range(0..=100),
            attack_c: rng.random_range(0..=CLUSTERS),
            attack_d: rng.random_range(0..=CLUSTERS),
            evasion: rng.random_range(0..=3),
            source_cluster: rng.random_range(1..=3),
            dest_cluster: rng.random_range(0..=CLUSTERS),
            attacker_moves: rng.random_range(0..=1),
            attacker_fake_hello: rng.random_range(0..=1),
            radio_loss_pct: *[0u32, 0, 0, 5, 10, 20]
                .get(rng.random_range(0..6usize))
                .unwrap(),
            fading_pct: *[0u32, 0, 0, 60, 80, 95]
                .get(rng.random_range(0..6usize))
                .unwrap(),
            backward_pct: *[0u32, 0, 25, 50].get(rng.random_range(0..4usize)).unwrap(),
            fault_intensity_pct: *[0u32, 0, 0, 30, 60, 100]
                .get(rng.random_range(0..6usize))
                .unwrap(),
            cert_validity_secs: *[600u32, 600, 60, 15, 8]
                .get(rng.random_range(0..5usize))
                .unwrap(),
            defense: *[0u8, 0, 0, 0, 1, 2, 3, 4]
                .get(rng.random_range(0..8usize))
                .unwrap(),
            shards: *[0u32, 0, 0, 0, 1, 2, 3, 7]
                .get(rng.random_range(0..8usize))
                .unwrap(),
            threads: *[0u32, 0, 0, 0, 1, 2, 4, 8]
                .get(rng.random_range(0..8usize))
                .unwrap(),
        }
    }

    /// Mutates one or two fields of an interesting parent case.
    pub fn mutate(&self, rng: &mut StdRng) -> FuzzCase {
        let mut next = self.clone();
        for _ in 0..rng.random_range(1..=2u32) {
            match rng.random_range(0..15u32) {
                0 => next.seed = rng.random(),
                1 => next.vehicles = rng.random_range(10..=80),
                2 => next.attack_kind = rng.random_range(0..=6),
                3 => next.attack_a = rng.random_range(1..=CLUSTERS),
                4 => next.attack_b = rng.random_range(0..=100),
                5 => next.evasion = rng.random_range(0..=3),
                6 => next.dest_cluster = rng.random_range(0..=CLUSTERS),
                7 => next.attacker_moves ^= 1,
                8 => next.radio_loss_pct = rng.random_range(0..=20),
                9 => next.fading_pct = *[0u32, 60, 80, 95].get(rng.random_range(0..4usize)).unwrap(),
                10 => next.fault_intensity_pct = rng.random_range(0..=100),
                11 => next.defense = rng.random_range(0..=4),
                12 => next.shards = *[0u32, 1, 2, 3, 7].get(rng.random_range(0..5usize)).unwrap(),
                13 => next.threads = *[0u32, 1, 2, 4, 8].get(rng.random_range(0..5usize)).unwrap(),
                _ => next.cert_validity_secs = *[600u32, 60, 15, 8].get(rng.random_range(0..4usize)).unwrap(),
            }
        }
        next
    }
}

/// What one fuzz execution produced.
#[derive(Debug)]
pub struct CaseReport {
    /// The executed case.
    pub case: FuzzCase,
    /// Panic payload, if the trial panicked.
    pub panic: Option<String>,
    /// Rendered invariant violations (empty on a clean run).
    pub violations: Vec<String>,
    /// Per-invariant evaluation counts.
    pub exercised: Vec<(&'static str, u64)>,
    /// The harvested trial outcome (absent on panic).
    pub outcome: Option<TrialOutcome>,
    /// Behavior features this run touched (coverage signature).
    pub features: BTreeSet<String>,
}

impl CaseReport {
    /// True when the run neither panicked nor violated an invariant.
    pub fn is_clean(&self) -> bool {
        self.panic.is_none() && self.violations.is_empty()
    }
}

/// log₂ volume bucket: 0, 1, 2, 4, 8, … collapse counts into coarse
/// coverage features so signatures stay small and stable.
fn bucket(n: u64) -> u32 {
    if n == 0 {
        0
    } else {
        64 - n.leading_zeros()
    }
}

/// Executes one case with the oracle and journal attached, catching
/// panics.
pub fn run_case(case: &FuzzCase) -> CaseReport {
    let cfg = case.config();
    let spec = case.spec();
    let faults = case.faults();
    let result = catch_unwind(AssertUnwindSafe(|| {
        let mut built = build_scenario(&cfg, &spec);
        let plan = faults.realize(&cfg, &built);
        if !plan.is_empty() {
            built.world.install_faults(plan);
        }
        let journal = attach_journal(&mut built);
        attach_invariants(&mut built, &cfg);
        stage_false_suspicion(&mut built, &spec);
        built.world.run_until(Time::ZERO + cfg.sim_duration);
        built.world.finish_invariants();
        let outcome = harvest(&cfg, &spec, &built);

        let violations: Vec<String> = built
            .world
            .violations()
            .iter()
            .map(|v| v.to_string())
            .collect();
        let exercised = built.world.invariants_exercised();

        let mut features = BTreeSet::new();
        for (kind, count) in journal.borrow().kind_histogram() {
            features.insert(format!("kind:{kind}:{}", bucket(count as u64)));
        }
        for (key, value) in built.world.stats().iter() {
            features.insert(format!("stat:{key}:{}", bucket(value)));
        }
        features.insert(format!("class:{:?}", outcome.class));
        features.insert(format!("attack:{}", case.attack_kind));
        (violations, exercised, outcome, features)
    }));
    match result {
        Ok((violations, exercised, outcome, features)) => CaseReport {
            case: case.clone(),
            panic: None,
            violations,
            exercised,
            outcome: Some(outcome),
            features,
        },
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".into());
            CaseReport {
                case: case.clone(),
                panic: Some(msg),
                violations: Vec::new(),
                exercised: Vec::new(),
                outcome: None,
                features: BTreeSet::new(),
            }
        }
    }
}

/// True when the PDR metamorphic relation is sound for this case: a pure
/// black-hole attack on a clean, dense radio topology with a real
/// destination. Lossy/fading radios, faults, evasion, gray holes and
/// sparse worlds can all legitimately flip the relation.
fn pdr_relation_eligible(case: &FuzzCase) -> bool {
    matches!(case.attack_kind, 2 | 3 | 5)
        && case.evasion == 0
        && case.attacker_moves == 0
        && case.attacker_fake_hello == 0
        && case.radio_loss_pct == 0
        && case.fading_pct == 0
        && case.fault_intensity_pct == 0
        && case.dest_cluster != 0
        && case.cert_validity_secs >= 60
        && case.vehicles >= case.attack().attacker_count() + 12
}

/// True when the superset-detection relation is sound: independent black
/// holes, no evasion, clean infrastructure.
fn superset_relation_eligible(case: &FuzzCase) -> bool {
    case.attack_kind == 5
        && case.defense == 0
        && case.evasion == 0
        && case.attacker_moves == 0
        && case.attacker_fake_hello == 0
        && case.radio_loss_pct == 0
        && case.fading_pct == 0
        && case.fault_intensity_pct == 0
        && case.dest_cluster != 0
        && case.attack_d == 0
        && case.cert_validity_secs >= 60
        && case.vehicles >= case.attack().attacker_count() + 13
}

/// Seeds used to confirm an apparent metamorphic violation before
/// flagging it. Node-count changes reorder the world's shared jitter
/// draws, so a single pair of runs is a *statistical* comparison, not a
/// differential one — one lucky timing can flip either side. A real
/// oracle break reproduces across seeds; timing luck does not.
const CONFIRM_SEEDS: u64 = 4;

/// Mean-PDR margin a confirmed violation must exceed.
const PDR_MARGIN: f64 = 0.10;

fn mean_pdr_over_seeds(case: &FuzzCase) -> f64 {
    let mut total = 0.0;
    let mut n = 0u32;
    for i in 0..=CONFIRM_SEEDS {
        let mut c = case.clone();
        c.seed = case.seed.wrapping_add(i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        if let Some(o) = run_case(&c).outcome {
            // Skip vacuous runs where the source never sent.
            if o.data_sent > 0 {
                total += o.pdr();
                n += 1;
            }
        }
    }
    if n == 0 {
        1.0
    } else {
        total / f64::from(n)
    }
}

fn mean_detections_over_seeds(case: &FuzzCase) -> f64 {
    let mut total = 0usize;
    let mut n = 0u32;
    for i in 0..=CONFIRM_SEEDS {
        let mut c = case.clone();
        c.seed = case.seed.wrapping_add(i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        if let Some(o) = run_case(&c).outcome {
            total += o.detections.len();
            n += 1;
        }
    }
    if n == 0 {
        0.0
    } else {
        total as f64 / f64::from(n)
    }
}

/// Confirmed detections in an outcome.
fn detections(outcome: &TrialOutcome) -> usize {
    outcome.detections.len()
}

/// Runs the metamorphic detection oracles this case is eligible for and
/// returns the failures (empty = all held or none applied).
pub fn metamorphic_failures(case: &FuzzCase, report: &CaseReport) -> Vec<String> {
    let mut failures = Vec::new();
    let Some(outcome) = &report.outcome else {
        return failures;
    };

    // Shard count never changes any detection outcome: the sharded
    // backend is bit-identical to the serial oracle *by construction*, so
    // re-running the same case under a different shard count must
    // reproduce the exact `TrialOutcome` — class, every detection tuple,
    // PDR numerators, all of it. This is a differential oracle, not a
    // statistical one; any drift is an engine bug. Always eligible.
    {
        let mut resharded = case.clone();
        resharded.shards = if case.shards == 2 { 7 } else { 2 };
        let reshard_report = run_case(&resharded);
        match &reshard_report.outcome {
            Some(other) if other != outcome => failures.push(format!(
                "shard count changed the detection outcome: shards={} \
                 classed {:?}, shards={} classed {:?}",
                case.shards, outcome.class, resharded.shards, other.class
            )),
            None => failures.push(format!(
                "resharded twin (shards={}) panicked: {:?}",
                resharded.shards, reshard_report.panic
            )),
            _ => {}
        }
    }

    // Worker-thread count never changes any detection outcome either: the
    // windowed executor stages handler effects and commits them in serial
    // `(time, seq)` order, so it is bit-identical to the serial executor
    // for every thread count *by construction*. Like the shard oracle
    // above, this is differential, not statistical — any drift is an
    // engine bug. Always eligible.
    {
        let mut rethreaded = case.clone();
        rethreaded.threads = if case.threads == 2 { 8 } else { 2 };
        let rethread_report = run_case(&rethreaded);
        match &rethread_report.outcome {
            Some(other) if other != outcome => failures.push(format!(
                "thread count changed the detection outcome: threads={} \
                 classed {:?}, threads={} classed {:?}",
                case.threads, outcome.class, rethreaded.threads, other.class
            )),
            None => failures.push(format!(
                "rethreaded twin (threads={}) panicked: {:?}",
                rethreaded.threads, rethread_report.panic
            )),
            _ => {}
        }
    }

    // FP stays zero without attackers: nothing may ever be confirmed in
    // an attacker-free world, faults and bad radio included.
    if case.attack_kind == 0
        && (outcome.honest_confirmed || outcome.class == TrialClass::FalsePositive)
    {
        failures.push(format!(
            "false positive in attacker-free run: class {:?}",
            outcome.class
        ));
    }

    // Adding a black hole never increases PDR — on the *undefended* data
    // plane. With a defense active the relation is genuinely unsound:
    // BlackDP's probing vets routes before data flows, so an attacked,
    // defended run can legitimately out-deliver a clean run whose first
    // honest route goes stale mid-stream. The paper's monotone-damage
    // claim is about the raw attack, so both sides run with
    // `DefenseMode::None`. The clean twin keeps the SAME total vehicle
    // count — the would-be attackers become honest vehicles — because
    // removing them thins relay density and biases the twin downward.
    if pdr_relation_eligible(case) {
        let mut attacked = case.clone();
        attacked.defense = 4;
        let mut twin = attacked.clone();
        twin.attack_kind = 0;
        let attacked_report = run_case(&attacked);
        let twin_report = run_case(&twin);
        if let (Some(a), Some(c)) = (&attacked_report.outcome, &twin_report.outcome) {
            // `pdr()` is vacuously 1.0 when nothing was sent; a source
            // that never obtained a route proves nothing either way.
            if a.data_sent > 0 && c.data_sent > 0 && a.pdr() > c.pdr() + 1e-9 {
                // Confirm across seeds before flagging: the twin's node
                // mixture differs, so jitter draws decorrelate and a
                // single pair is timing-noisy.
                let attacked_mean = mean_pdr_over_seeds(&attacked);
                let clean_mean = mean_pdr_over_seeds(&twin);
                if attacked_mean > clean_mean + PDR_MARGIN {
                    failures.push(format!(
                        "adding a black hole raised undefended PDR: attacked \
                         {attacked_mean:.3} > clean {clean_mean:.3} (means over {} seeds)",
                        CONFIRM_SEEDS + 1
                    ));
                }
            }
        }
    }

    // A superset attacker set never decreases confirmed detections:
    // append one more independent black hole in the last free slot (drawn
    // after all existing plans, so the shared prefix is identical).
    if superset_relation_eligible(case) {
        let mut superset = case.clone();
        superset.attack_d = if case.attack_a < CLUSTERS {
            case.attack_a + 1
        } else {
            case.attack_a - 1
        };
        superset.vehicles = case.vehicles + 1;
        let sup_report = run_case(&superset);
        if let Some(sup_outcome) = &sup_report.outcome {
            if detections(sup_outcome) < detections(outcome) {
                let sup_mean = mean_detections_over_seeds(&superset);
                let base_mean = mean_detections_over_seeds(case);
                if sup_mean + 0.5 < base_mean {
                    failures.push(format!(
                        "superset attacker set decreased detections: {sup_mean:.2} < \
                         {base_mean:.2} (means over {} seeds)",
                        CONFIRM_SEEDS + 1
                    ));
                }
            }
        }
    }

    failures
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn corpus_line_round_trips() {
        let mut rng = StdRng::seed_from_u64(99);
        for _ in 0..50 {
            let case = FuzzCase::random(&mut rng);
            let parsed = FuzzCase::parse_line(&case.to_line()).unwrap();
            assert_eq!(parsed, case);
        }
        assert!(FuzzCase::parse_line("not-a-corpus-line").is_err());
        assert!(FuzzCase::parse_line(&format!("{CORPUS_TAG} bogus=1")).is_err());
        assert!(FuzzCase::parse_line(&format!("{CORPUS_TAG} seed=x")).is_err());
    }

    #[test]
    fn baseline_case_runs_clean_and_detects() {
        let case = FuzzCase::baseline(7);
        let report = run_case(&case);
        assert!(report.panic.is_none(), "panic: {:?}", report.panic);
        assert!(
            report.violations.is_empty(),
            "violations: {:?}",
            report.violations
        );
        let outcome = report.outcome.as_ref().unwrap();
        assert!(outcome.attack_present);
        assert!(!report.features.is_empty());
        let active = report.exercised.iter().filter(|(_, n)| *n > 0).count();
        assert!(active >= 4, "exercised: {:?}", report.exercised);
    }

    #[test]
    fn attacker_free_case_has_no_false_positive() {
        let mut case = FuzzCase::baseline(13);
        case.attack_kind = 0;
        let report = run_case(&case);
        assert!(report.is_clean());
        let failures = metamorphic_failures(&case, &report);
        assert!(failures.is_empty(), "failures: {failures:?}");
    }

    #[test]
    fn legacy_corpus_lines_parse_with_serial_backend() {
        // Pre-PR-8 corpus lines carry no `shards=` field; they must keep
        // parsing and land on the serial oracle.
        let line = format!("{CORPUS_TAG} seed=5 vehicles=30 attack_kind=2");
        let case = FuzzCase::parse_line(&line).unwrap();
        assert_eq!(case.shards, 0);
        assert_eq!(case.config().backend, WorldBackend::Serial);
        // Pre-PR-10 lines carry no `threads=` field either; they must
        // land on the serial executor.
        assert_eq!(case.threads, 0);
        assert_eq!(case.config().executor, ExecutorMode::Serial);
    }

    #[test]
    fn thread_count_never_changes_the_detection_outcome() {
        let mut case = FuzzCase::baseline(21);
        case.vehicles = 70;
        let serial = run_case(&case).outcome.unwrap();
        for threads in [1u32, 2, 8] {
            let mut windowed = case.clone();
            windowed.threads = threads;
            let outcome = run_case(&windowed).outcome.unwrap();
            assert_eq!(outcome, serial, "threads = {threads}");
        }
    }

    #[test]
    fn shard_count_never_changes_the_detection_outcome() {
        // Enough vehicles to populate several shard bands.
        let mut case = FuzzCase::baseline(21);
        case.vehicles = 70;
        let serial = run_case(&case).outcome.unwrap();
        for shards in [1u32, 2, 7] {
            let mut sharded = case.clone();
            sharded.shards = shards;
            let outcome = run_case(&sharded).outcome.unwrap();
            assert_eq!(outcome, serial, "shards = {shards}");
        }
    }

    #[test]
    fn bucket_is_log2_coarse() {
        assert_eq!(bucket(0), 0);
        assert_eq!(bucket(1), 1);
        assert_eq!(bucket(2), 2);
        assert_eq!(bucket(3), 2);
        assert_eq!(bucket(4), 3);
        assert_eq!(bucket(1024), 11);
    }
}
