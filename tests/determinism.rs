//! Reproducibility: identical seeds must produce identical trials, and
//! different seeds must actually vary the world.

use blackdp_scenario::{
    fig4_cell, fig4_cell_serial, fig4_cell_spec, parallel_map_with, record_trial, run_fault_trial,
    run_trial, AttackKind, FaultSpec, ScenarioConfig, TrialSpec,
};
use blackdp_sim::{Duration, NeighborIndex, WorldBackend};

fn fingerprint(outcome: &blackdp_scenario::TrialOutcome) -> String {
    format!(
        "{:?}|{:?}|{}|{}|{}|{:?}",
        outcome.class,
        outcome.detections,
        outcome.data_sent,
        outcome.data_delivered,
        outcome.data_dropped_by_attacker,
        outcome.detection_packets,
    )
}

#[test]
fn same_seed_same_outcome() {
    let cfg = ScenarioConfig::small_test();
    let spec = TrialSpec::single(1234, 2, 10);
    let a = run_trial(&cfg, &spec);
    let b = run_trial(&cfg, &spec);
    assert_eq!(fingerprint(&a), fingerprint(&b));
}

#[test]
fn same_seed_same_fault_plan_same_outcome() {
    let cfg = ScenarioConfig::small_test();
    let spec = TrialSpec::single(1234, 2, 10);
    let faults = FaultSpec::randomized(1234, 0.8, &cfg);
    let a = run_fault_trial(&cfg, &spec, &faults);
    let b = run_fault_trial(&cfg, &spec, &faults);
    assert_eq!(fingerprint(&a.base), fingerprint(&b.base));
    assert_eq!(a.crashes, b.crashes);
    assert_eq!(a.restarts, b.restarts);
    assert_eq!(a.fault_drops, b.fault_drops);
    assert_eq!(a.time_to_recover, b.time_to_recover);
    assert_eq!(a.revocation_retries, b.revocation_retries);
}

#[test]
fn different_seeds_vary_fault_schedules() {
    let cfg = ScenarioConfig::small_test();
    let a = FaultSpec::randomized(1, 0.8, &cfg);
    let b = FaultSpec::randomized(2, 0.8, &cfg);
    assert_ne!(a, b, "fault schedules must be seed-dependent");
    // And the realized trials must actually diverge, not just the specs.
    let ta = run_fault_trial(&cfg, &TrialSpec::single(1, 2, 10), &a);
    let tb = run_fault_trial(&cfg, &TrialSpec::single(2, 2, 10), &b);
    assert_ne!(
        (ta.crashes, ta.fault_drops, ta.time_to_recover),
        (tb.crashes, tb.fault_drops, tb.time_to_recover),
        "different seeds must realize different fault histories"
    );
}

#[test]
fn parallel_sweep_is_bit_identical_to_serial() {
    let cfg = ScenarioConfig::small_test();
    let reps = 6;
    let serial: Vec<String> = fig4_cell_serial(&cfg, AttackKind::Single, 2, reps)
        .iter()
        .map(fingerprint)
        .collect();

    // The public entry point (however many workers this machine offers)...
    let auto: Vec<String> = fig4_cell(&cfg, AttackKind::Single, 2, reps)
        .iter()
        .map(fingerprint)
        .collect();
    assert_eq!(serial, auto, "fig4_cell must reproduce the serial sweep");

    // ...and explicit worker counts, so multi-threaded merging is
    // exercised even on a single-core CI machine.
    let specs: Vec<TrialSpec> = (0..reps)
        .map(|rep| fig4_cell_spec(&cfg, AttackKind::Single, 2, rep))
        .collect();
    for workers in [2usize, 3, 8] {
        let parallel: Vec<String> = parallel_map_with(workers, &specs, |s| run_trial(&cfg, s))
            .iter()
            .map(fingerprint)
            .collect();
        assert_eq!(
            serial, parallel,
            "sweep with {workers} workers must be bit-identical to serial"
        );
    }
}

#[test]
fn grid_medium_matches_brute_force_scan() {
    let grid_cfg = ScenarioConfig::small_test();
    assert_eq!(
        grid_cfg.neighbor_index,
        NeighborIndex::Grid,
        "grid must be the default medium"
    );
    let mut scan_cfg = ScenarioConfig::small_test();
    scan_cfg.neighbor_index = NeighborIndex::Scan;

    for kind in [AttackKind::Single, AttackKind::Cooperative] {
        let with_grid: Vec<String> = fig4_cell_serial(&grid_cfg, kind, 2, 4)
            .iter()
            .map(fingerprint)
            .collect();
        let with_scan: Vec<String> = fig4_cell_serial(&scan_cfg, kind, 2, 4)
            .iter()
            .map(fingerprint)
            .collect();
        assert_eq!(
            with_grid, with_scan,
            "grid neighbor index must be observationally identical to the scan ({kind:?})"
        );
    }
}

/// A config big enough (70 vehicles + 10 RSUs + 2 TAs = 82 slots) to
/// populate several shard bands, so the sharded backend answers broadcast
/// queries across real band boundaries.
fn sharded_exercising_config() -> ScenarioConfig {
    let mut cfg = ScenarioConfig::small_test();
    cfg.vehicles = 70;
    cfg.sim_duration = Duration::from_secs(10);
    cfg
}

#[test]
fn sharded_backend_is_bit_identical_for_any_shard_count() {
    let cfg = sharded_exercising_config();
    let spec = TrialSpec::single(77, 3, 10);
    let faults = FaultSpec::none();
    let (serial_outcome, serial_trace) = record_trial(&cfg, &spec, &faults);

    for shards in [1u32, 2, 3, 7] {
        let mut sharded_cfg = cfg.clone();
        sharded_cfg.backend = WorldBackend::Sharded { shards };
        let (outcome, trace) = record_trial(&sharded_cfg, &spec, &faults);
        assert_eq!(
            fingerprint(&outcome),
            fingerprint(&serial_outcome),
            "outcome diverged under {shards} shard(s)"
        );
        assert_eq!(
            trace, serial_trace,
            "delivery trace diverged under {shards} shard(s)"
        );
    }
}

#[test]
fn attacker_straddling_a_band_boundary_matches_serial() {
    // Shard bands are columns of 2 · radio_range = 2000 m cells, so the
    // edge of cluster 2 (x = 2000 m) is exactly a band boundary under any
    // shard count: a cluster-2 attacker's victim set straddles it. The
    // cooperative variant adds a teammate, widening the straddling set.
    let cfg = sharded_exercising_config();
    let faults = FaultSpec::none();
    for (kind, spec) in [
        ("single", TrialSpec::single(31, 2, 10)),
        ("cooperative", TrialSpec::cooperative(31, 2, 10)),
    ] {
        let (serial_outcome, serial_trace) = record_trial(&cfg, &spec, &faults);
        let mut sharded_cfg = cfg.clone();
        sharded_cfg.backend = WorldBackend::Sharded { shards: 5 };
        let (outcome, trace) = record_trial(&sharded_cfg, &spec, &faults);
        assert_eq!(
            outcome.detections, serial_outcome.detections,
            "{kind}: detection verdicts diverged"
        );
        assert_eq!(
            fingerprint(&outcome),
            fingerprint(&serial_outcome),
            "{kind}: outcome diverged"
        );
        assert_eq!(trace, serial_trace, "{kind}: trace diverged");
    }
}

#[test]
fn different_seeds_vary_placement() {
    let cfg = ScenarioConfig::small_test();
    let a = run_trial(&cfg, &TrialSpec::single(1, 2, 10));
    let b = run_trial(&cfg, &TrialSpec::single(2, 2, 10));
    // Outcome class will usually match (both TP) but the concrete suspect
    // pseudonyms must differ: fresh keys per seed.
    let sa: Vec<_> = a.detections.iter().map(|(s, _, _)| *s).collect();
    let sb: Vec<_> = b.detections.iter().map(|(s, _, _)| *s).collect();
    assert_ne!(sa, sb, "different seeds must enroll different pseudonyms");
}
