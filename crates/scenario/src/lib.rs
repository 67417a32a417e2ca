//! # blackdp-scenario — full-system simulation scenarios for BlackDP
//!
//! Glues every layer of the reproduction together into runnable trials:
//! the deterministic simulator (`blackdp-sim`), the highway/cluster model
//! (`blackdp-mobility`), the PKI (`blackdp-crypto`), the AODV routing
//! substrate (`blackdp-aodv`), the BlackDP protocol (`blackdp`), the
//! attackers (`blackdp-attacks`) and the related-work baselines
//! (`blackdp-baselines`).
//!
//! The crate provides four node types implementing the simulator's
//! [`Node`](blackdp_sim::Node) trait — honest [`VehicleNode`], malicious
//! [`MaliciousNode`], roadside [`RsuNode`], and off-road [`TaNode`] — plus
//! a scenario builder, a trial runner with outcome harvesting, and the
//! experiment drivers that regenerate the paper's Figure 4 and Figure 5.
//!
//! # Examples
//!
//! Run one single-black-hole trial on the Table I network:
//!
//! ```no_run
//! use blackdp_scenario::{run_trial, ScenarioConfig, TrialSpec};
//!
//! let cfg = ScenarioConfig::paper_table1();
//! let spec = TrialSpec::single(42, /* attacker cluster */ 2, 10);
//! let outcome = run_trial(&cfg, &spec);
//! assert!(outcome.attacker_confirmed);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod boundary;
mod build;
mod config;
mod directory;
mod experiment;
mod faults;
mod frame;
mod fuzz;
mod invariants;
mod journal;
mod malicious_node;
mod metrics;
mod orchestrator;
mod parallel;
mod persist;
mod rsu_node;
mod snapshot;
pub mod stack;
mod ta_node;
mod trace;
mod vehicle;

pub use boundary::{attach_boundary_audit, drain as drain_boundary_audit, AuditorHandle};
pub use build::{build_scenario, harvest, run_trial, BuiltScenario, PHANTOM_DEST, TA_ADDR_BASE};
pub use config::{ch_addr, far_destination, AttackSetup, ScenarioConfig, TrialSpec, CH_ADDR_BASE};
pub use directory::WiredDirectory;
pub use experiment::{
    congestion_dedup, defense_comparison, density_sweep, fading_sweep, fault_sweep, fig4,
    fig4_cell, fig4_cell_serial, fig4_cell_spec, fig5, grayhole_sweep, loss_sweep, two_way_sweep,
    AttackKind, CongestionResult, DefenseResult, FaultSweepPoint, Fig4Point, Fig5Row,
    GrayHolePoint, SweepPoint, RENEWAL_ZONE_EVASION_PROB,
};
pub use faults::{
    run_fault_trial, BackhaulPartition, FaultSpec, FaultTrialOutcome, RadioBurstSpec, RsuCrash,
    TaOutage,
};
pub use frame::{broadcast_wire, send_wire, Frame, L2Cache, Tick};
pub use fuzz::{metamorphic_failures, run_case, CaseReport, FuzzCase, CORPUS_TAG};
pub use invariants::{
    attach_invariants, standard_invariants, CertAcceptance, IsolationPermanence, NoSelfDelivery,
    PacketConservation, RadioRangeCheck, RreqIdMonotonic,
};
pub use journal::{attach_journal, FrameJournal, JournalEntry, JournalHandle};
pub use malicious_node::{MaliciousNode, MaliciousNodeConfig, MaliciousProfile};
pub use metrics::{wilson_half_width, RateSummary, TrialClass, TrialOutcome};
pub use orchestrator::{
    done_path, heartbeat_path, merge_results, run_campaign, BatchSpec, BatchState, CampaignReport,
    OrchestratorConfig, WorkerCommand,
};
pub use parallel::{parallel_map, parallel_map_with, worker_count};
pub use persist::atomic_write;
pub use rsu_node::RsuNode;
pub use snapshot::{
    bisect_divergence, nearest_checkpoint, record_trial_with_checkpoints, resume_trial,
    trial_fingerprint, CheckpointStamp, ResumeError, Snapshot, SnapshotError,
};
pub use ta_node::TaNode;
pub use trace::{
    chain_events as chain_trace, decode as decode_trace, diff as diff_traces, diff_encoded,
    encode as encode_trace, record_trial, replay_divergence, Divergence, TraceError, TraceEvent,
};
pub use vehicle::{DefenseMode, TrafficIntent, VehicleConfig, VehicleNode};
