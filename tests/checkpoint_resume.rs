//! Determinism suite for event-sourced checkpoint/restore.
//!
//! The contract under test: for any trial, resuming from *any* checkpoint
//! of its snapshot reproduces the uninterrupted run bit-for-bit — same
//! outcome, same delivery trace — and the checkpointed recorder itself is
//! observationally identical to the plain one. Exercised across the
//! fuzz trigger corpus (each file a once-bug-provoking scenario shape)
//! plus the baseline case, with sizes capped so the suite stays cheap in
//! debug builds.

use blackdp_scenario::{
    atomic_write, nearest_checkpoint, record_trial, record_trial_with_checkpoints, resume_trial,
    FuzzCase, Snapshot, CORPUS_TAG,
};
use blackdp_sim::Duration;

/// Caps a corpus case so debug-mode replays stay fast without changing
/// its structural shape (attack family, evasion, radio imperfections).
fn capped(mut case: FuzzCase) -> FuzzCase {
    case.sim_secs = case.sim_secs.min(8);
    case.vehicles = case.vehicles.min(28);
    case.data_packets = case.data_packets.min(8);
    case
}

/// Loads the checked-in trigger corpus (comment lines skipped).
fn corpus_cases() -> Vec<FuzzCase> {
    let mut cases = Vec::new();
    let mut files: Vec<_> = std::fs::read_dir("results/fuzz_corpus")
        .expect("fuzz corpus present")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "case"))
        .collect();
    files.sort();
    for path in files {
        let text = std::fs::read_to_string(&path).expect("read case");
        for line in text.lines() {
            if line.starts_with(CORPUS_TAG) {
                cases.push(FuzzCase::parse_line(line).expect("parse corpus case"));
            }
        }
    }
    assert!(!cases.is_empty(), "corpus is empty");
    cases
}

fn checkpoint_interval(case: &FuzzCase) -> Duration {
    let horizon = case.config().sim_duration.as_micros();
    Duration::from_micros((horizon / 4).max(1))
}

/// Asserts the full contract for one case: checkpointed run ≡ plain run,
/// and resume from every checkpoint ≡ plain run.
fn assert_resumable(case: &FuzzCase) {
    let (cfg, spec, faults) = (case.config(), case.spec(), case.faults());
    let (plain_outcome, plain_events) = record_trial(&cfg, &spec, &faults);
    let (outcome, events, snapshot) =
        record_trial_with_checkpoints(&cfg, &spec, &faults, checkpoint_interval(case));
    assert_eq!(outcome, plain_outcome, "checkpointing perturbed the outcome");
    assert_eq!(events, plain_events, "checkpointing perturbed the trace");
    assert!(!snapshot.stamps.is_empty());

    for from in 0..snapshot.stamps.len() {
        let (resumed_outcome, resumed_events) =
            resume_trial(&cfg, &spec, &faults, &snapshot, from)
                .unwrap_or_else(|e| panic!("resume from checkpoint {from} failed: {e}"));
        assert_eq!(
            resumed_outcome, plain_outcome,
            "outcome diverged resuming from checkpoint {from}"
        );
        assert_eq!(
            resumed_events, plain_events,
            "trace diverged resuming from checkpoint {from}"
        );
    }
}

#[test]
fn baseline_case_resumes_from_every_checkpoint() {
    assert_resumable(&capped(FuzzCase::baseline(5)));
}

#[test]
fn corpus_cases_resume_from_every_checkpoint() {
    for (i, case) in corpus_cases().into_iter().enumerate() {
        let case = capped(case);
        eprintln!("corpus case {i}: {}", case.to_line());
        assert_resumable(&case);
    }
}

#[test]
fn false_suspicion_trials_resume_identically() {
    // False-suspicion staging pre-advances the world to t = 2 s before
    // injecting the forged report; checkpoint boundaries inside that
    // window are no-op `run_until` calls and must stay consistent between
    // capture and resume.
    let mut case = capped(FuzzCase::baseline(9));
    case.attack_kind = 1;
    case.attack_a = 1;
    assert_resumable(&case);
}

#[test]
fn snapshots_resume_across_backends_in_both_directions() {
    // The execution backend is normalized out of the trial fingerprint,
    // so a snapshot recorded under one backend must resume under any
    // other — and every checkpoint witness (engine stamp, chained trace
    // checksum) is verified during the replay, so a passing resume *is*
    // the proof that the backends agree bit-for-bit at every boundary.
    // 70 vehicles populate several shard bands.
    let mut case = FuzzCase::baseline(11);
    case.vehicles = 70;
    case.sim_secs = 6;
    let (spec, faults) = (case.spec(), case.faults());

    let serial_cfg = case.config();
    let mut sharded = case.clone();
    sharded.shards = 2;
    let sharded_cfg = sharded.config();

    // Record serially, resume sharded (shard counts 2 and 7)…
    let (outcome, events, snapshot) =
        record_trial_with_checkpoints(&serial_cfg, &spec, &faults, checkpoint_interval(&case));
    for shards in [2u32, 7] {
        let mut resume_case = case.clone();
        resume_case.shards = shards;
        let cfg = resume_case.config();
        for from in 0..snapshot.stamps.len() {
            let (resumed_outcome, resumed_events) =
                resume_trial(&cfg, &spec, &faults, &snapshot, from).unwrap_or_else(|e| {
                    panic!("serial snapshot failed to resume under {shards} shard(s): {e}")
                });
            assert_eq!(resumed_outcome, outcome, "outcome drift, {shards} shard(s)");
            assert_eq!(resumed_events, events, "trace drift, {shards} shard(s)");
        }
    }

    // …and record sharded, resume serially.
    let (sh_outcome, sh_events, sh_snapshot) =
        record_trial_with_checkpoints(&sharded_cfg, &spec, &faults, checkpoint_interval(&case));
    assert_eq!(sh_outcome, outcome, "sharded recorder diverged from serial");
    assert_eq!(sh_events, events);
    for from in 0..sh_snapshot.stamps.len() {
        let (resumed_outcome, resumed_events) =
            resume_trial(&serial_cfg, &spec, &faults, &sh_snapshot, from)
                .unwrap_or_else(|e| panic!("sharded snapshot failed to resume serially: {e}"));
        assert_eq!(resumed_outcome, outcome);
        assert_eq!(resumed_events, events);
    }
}

#[test]
fn snapshot_survives_a_disk_round_trip() {
    let case = capped(FuzzCase::baseline(3));
    let (cfg, spec, faults) = (case.config(), case.spec(), case.faults());
    let (_, events, snapshot) =
        record_trial_with_checkpoints(&cfg, &spec, &faults, checkpoint_interval(&case));

    let dir = std::env::temp_dir().join(format!("blackdp_snapshot_rt_{}", std::process::id()));
    let path = dir.join("trial.snap");
    atomic_write(&path, &snapshot.encode()).expect("persist snapshot");
    let loaded = Snapshot::decode(&std::fs::read(&path).expect("read back")).expect("decode");
    assert_eq!(loaded, snapshot);

    let from = nearest_checkpoint(&loaded, cfg.sim_duration.as_micros() / 2)
        .expect("mid-run checkpoint exists");
    let (_, resumed_events) =
        resume_trial(&cfg, &spec, &faults, &loaded, from).expect("resume from disk snapshot");
    assert_eq!(resumed_events, events);
    let _ = std::fs::remove_dir_all(&dir);
}
