//! Scenario configuration (Table I defaults) and per-trial specification.

use blackdp::BlackDpConfig;
use blackdp_aodv::AodvConfig;
use blackdp_attacks::EvasionPolicy;
use blackdp_mobility::{ClusterPlan, Highway, Kmh, SpawnConfig};
use blackdp_sim::{Duration, NeighborIndex, WorldBackend};

use crate::vehicle::DefenseMode;
use blackdp_aodv::Addr;
use blackdp_mobility::ClusterId;

/// Base address for RSU cluster heads (`0x7…` region of the address space,
/// disjoint from vehicle pseudonyms). Roadside infrastructure addressing is
/// public knowledge: vehicles derive their segment's CH address from the
/// cluster plan, which is how single-zone joins unicast (Section III-A).
pub const CH_ADDR_BASE: u64 = 0x7000_0000_0000_0000;

/// The well-known protocol address of `cluster`'s head.
pub fn ch_addr(cluster: ClusterId) -> Addr {
    Addr(CH_ADDR_BASE + u64::from(cluster.0))
}

/// Full scenario configuration. Defaults reproduce the paper's Table I.
#[derive(Debug, Clone)]
pub struct ScenarioConfig {
    /// Total vehicle count, attackers included (Table I: 100).
    pub vehicles: u32,
    /// Highway length in meters (Table I: 10 km).
    pub highway_length_m: f64,
    /// Highway width in meters (Table I: 200 m).
    pub highway_width_m: f64,
    /// Cluster length in meters (Table I: 1000 m).
    pub cluster_len_m: f64,
    /// Radio range in meters (Table I / DSRC: 1000 m).
    pub range_m: f64,
    /// Vehicle speed band (Table I: 50–90 km/h).
    pub min_speed_kmh: f64,
    /// Upper bound of the speed band.
    pub max_speed_kmh: f64,
    /// Fixed per-hop radio latency.
    pub radio_latency: Duration,
    /// Random extra radio latency.
    pub radio_jitter: Duration,
    /// Radio loss probability.
    pub radio_loss: f64,
    /// Certificate-renewal zone (paper: clusters 8–10), inclusive.
    pub renewal_zone: (u32, u32),
    /// Cluster ranges per trusted authority, e.g. `[(1,5), (6,10)]`.
    pub ta_regions: Vec<(u32, u32)>,
    /// AODV parameters for every vehicle.
    pub aodv: AodvConfig,
    /// BlackDP parameters for vehicles and RSUs.
    pub blackdp: BlackDpConfig,
    /// Vehicle/RSU tick cadence.
    pub tick: Duration,
    /// Virtual run length per trial.
    pub sim_duration: Duration,
    /// Application packets the source sends once its route is usable.
    pub data_packets: u32,
    /// Gap between application packets.
    pub data_interval: Duration,
    /// Route-acceptance defense run by honest vehicles.
    pub defense: DefenseMode,
    /// Fraction of honest vehicles travelling in the opposite direction
    /// (0.0 = the paper's one-way flow; 0.5 = a balanced two-way highway).
    pub backward_fraction: f64,
    /// Optional fading radio model: reception guaranteed within this
    /// fraction of the range, decaying to zero at the range edge.
    /// `None` = the paper's unit-disk assumption.
    pub fading_full_fraction: Option<f64>,
    /// Broadcast receiver lookup strategy. `Grid` (the default) and `Scan`
    /// are bit-identical; `Scan` is kept for differential testing.
    pub neighbor_index: NeighborIndex,
    /// Engine backend answering grid-indexed neighbor queries: the serial
    /// grid (the default, and the differential oracle) or the sharded
    /// band index. Every backend and shard count is bit-identical —
    /// traces, `Stats::digest`, detection verdicts, and checkpoint
    /// witnesses do not change — so this is purely a throughput knob.
    /// The motion-bound staleness horizon is derived from
    /// `max_speed_kmh`, which already bounds every spawned trajectory.
    pub backend: WorldBackend,
}

impl ScenarioConfig {
    /// The paper's Table I parameters.
    pub fn paper_table1() -> Self {
        ScenarioConfig {
            vehicles: 100,
            highway_length_m: 10_000.0,
            highway_width_m: 200.0,
            cluster_len_m: 1_000.0,
            range_m: 1_000.0,
            min_speed_kmh: 50.0,
            max_speed_kmh: 90.0,
            radio_latency: Duration::from_millis(2),
            radio_jitter: Duration::from_micros(500),
            radio_loss: 0.0,
            renewal_zone: (8, 10),
            ta_regions: vec![(1, 5), (6, 10)],
            aodv: AodvConfig::default(),
            blackdp: BlackDpConfig::default(),
            tick: Duration::from_millis(100),
            sim_duration: Duration::from_secs(30),
            data_packets: 20,
            data_interval: Duration::from_millis(250),
            defense: DefenseMode::BlackDp,
            backward_fraction: 0.0,
            fading_full_fraction: None,
            neighbor_index: NeighborIndex::Grid,
            backend: WorldBackend::Serial,
        }
    }

    /// A smaller, faster variant for unit/integration tests: same geometry,
    /// fewer vehicles, shorter run.
    pub fn small_test() -> Self {
        ScenarioConfig {
            vehicles: 30,
            sim_duration: Duration::from_secs(20),
            data_packets: 5,
            ..Self::paper_table1()
        }
    }

    /// The cluster plan implied by this configuration.
    pub fn plan(&self) -> ClusterPlan {
        ClusterPlan::new(
            Highway::new(self.highway_length_m, self.highway_width_m),
            self.cluster_len_m,
        )
    }

    /// The vehicle speed sampler implied by this configuration.
    pub fn spawn(&self) -> SpawnConfig {
        SpawnConfig {
            min_speed: Kmh(self.min_speed_kmh),
            max_speed: Kmh(self.max_speed_kmh),
        }
    }

    /// Which TA region (index into `ta_regions`) covers `cluster`.
    pub fn region_of(&self, cluster: u32) -> usize {
        self.ta_regions
            .iter()
            .position(|&(lo, hi)| (lo..=hi).contains(&cluster))
            .unwrap_or(0)
    }
}

/// The kind of attack staged in one trial.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AttackSetup {
    /// No attacker at all.
    None,
    /// No attacker, but a legitimate node is falsely reported (exercises
    /// the zero-false-positive property and the 4–6 packet Figure 5 row).
    FalseSuspicion {
        /// Report a member of a *different* cluster than the reporter's,
        /// exercising the forwarded-d_req path.
        cross_cluster: bool,
    },
    /// A single black hole in the given cluster.
    Single {
        /// The attacker's starting cluster (1-based, per Figure 4's x axis).
        cluster: u32,
    },
    /// Two cooperating black holes in the given cluster (within range of
    /// each other, per Section IV-A).
    Cooperative {
        /// The attackers' starting cluster.
        cluster: u32,
    },
    /// A gray hole (selective dropper) in the given cluster — the harder
    /// variant from the related work, used by the grayhole ablation.
    GrayHole {
        /// The attacker's starting cluster.
        cluster: u32,
        /// Probability of dropping each transit data packet.
        drop_probability: f64,
    },
    /// Two cooperating *gray* holes in the given cluster: the cooperative
    /// next-hop endorsement of [`AttackSetup::Cooperative`] combined with
    /// probabilistic dropping, plus whatever renewal-zone evasion the
    /// trial's [`TrialSpec::evasion`] selects. A composed attacker the
    /// middleware stack expresses without a dedicated node type.
    CooperativeGrayHole {
        /// The attackers' starting cluster.
        cluster: u32,
        /// Probability of dropping each transit data packet.
        drop_probability: f64,
    },
    /// Several *independent* single black holes, one per listed cluster
    /// (the paper: "there may be multiple black hole attackers in the
    /// network"). Up to four; zero entries in the array are ignored.
    MultipleSingles {
        /// Attacker clusters (0 = unused slot).
        clusters: [u32; 4],
    },
}

impl AttackSetup {
    /// Number of attacker vehicles this setup spawns.
    pub fn attacker_count(&self) -> u32 {
        match self {
            AttackSetup::None | AttackSetup::FalseSuspicion { .. } => 0,
            AttackSetup::Single { .. } | AttackSetup::GrayHole { .. } => 1,
            AttackSetup::Cooperative { .. } | AttackSetup::CooperativeGrayHole { .. } => 2,
            AttackSetup::MultipleSingles { clusters } => {
                clusters.iter().filter(|&&c| c > 0).count() as u32
            }
        }
    }

    /// The attacker cluster, if any.
    pub fn cluster(&self) -> Option<u32> {
        match self {
            AttackSetup::Single { cluster }
            | AttackSetup::Cooperative { cluster }
            | AttackSetup::GrayHole { cluster, .. }
            | AttackSetup::CooperativeGrayHole { cluster, .. } => Some(*cluster),
            AttackSetup::MultipleSingles { clusters } => clusters.iter().copied().find(|&c| c > 0),
            _ => None,
        }
    }

    /// Every attacker's cluster, in spawn order.
    pub fn clusters(&self) -> Vec<u32> {
        match self {
            AttackSetup::None | AttackSetup::FalseSuspicion { .. } => Vec::new(),
            AttackSetup::Single { cluster } | AttackSetup::GrayHole { cluster, .. } => {
                vec![*cluster]
            }
            AttackSetup::Cooperative { cluster }
            | AttackSetup::CooperativeGrayHole { cluster, .. } => {
                vec![*cluster, *cluster]
            }
            AttackSetup::MultipleSingles { clusters } => {
                clusters.iter().copied().filter(|&c| c > 0).collect()
            }
        }
    }
}

/// Everything that varies between repetitions of one experiment.
#[derive(Debug, Clone)]
pub struct TrialSpec {
    /// RNG seed (drives placement, speeds, jitter, keys).
    pub seed: u64,
    /// The staged attack.
    pub attack: AttackSetup,
    /// Attacker evasion policy (paper: active in the renewal zone).
    pub evasion: EvasionPolicy,
    /// The source vehicle's cluster (paper: "a source car is placed at the
    /// beginning of the highway" — cluster 1).
    pub source_cluster: u32,
    /// The destination's cluster, or `None` when the destination "may not
    /// exist in the clusters" (Section IV-A).
    pub dest_cluster: Option<u32>,
    /// Make the attacker hop to the next cluster right after answering the
    /// first probe (Figure 5's moving-suspect rows).
    pub attacker_moves: bool,
    /// Make the attacker answer Hello probes with a fake reply claiming to
    /// be the destination — the paper's "anonymity response", which lets
    /// the victim report after a single discovery round.
    pub attacker_fake_hello: bool,
}

impl TrialSpec {
    /// A single-attack trial with paper-style placement: source in cluster
    /// 1, attacker in `attacker_cluster`, destination well away from the
    /// attacker (never within radio range of it).
    pub fn single(seed: u64, attacker_cluster: u32, cluster_count: u32) -> Self {
        TrialSpec {
            seed,
            attack: AttackSetup::Single {
                cluster: attacker_cluster,
            },
            evasion: EvasionPolicy::None,
            source_cluster: 1,
            dest_cluster: Some(far_destination(attacker_cluster, cluster_count)),
            attacker_moves: false,
            attacker_fake_hello: false,
        }
    }

    /// A cooperative-attack trial, placement as in [`Self::single`].
    pub fn cooperative(seed: u64, attacker_cluster: u32, cluster_count: u32) -> Self {
        TrialSpec {
            attack: AttackSetup::Cooperative {
                cluster: attacker_cluster,
            },
            ..Self::single(seed, attacker_cluster, cluster_count)
        }
    }
}

/// Picks a destination cluster at least two clusters away from the
/// attacker (so the attacker is never within the destination's radio
/// range, per Section IV-A).
pub fn far_destination(attacker_cluster: u32, cluster_count: u32) -> u32 {
    if attacker_cluster + 3 <= cluster_count {
        attacker_cluster + 3
    } else {
        attacker_cluster.saturating_sub(3).max(2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_defaults_match_paper() {
        let cfg = ScenarioConfig::paper_table1();
        assert_eq!(cfg.vehicles, 100);
        assert_eq!(cfg.highway_length_m, 10_000.0);
        assert_eq!(cfg.highway_width_m, 200.0);
        assert_eq!(cfg.cluster_len_m, 1_000.0);
        assert_eq!(cfg.range_m, 1_000.0);
        assert_eq!(cfg.min_speed_kmh, 50.0);
        assert_eq!(cfg.max_speed_kmh, 90.0);
        // "the least number of CHs required to cover the entire highway is
        // p = l / r" = 10.
        assert_eq!(cfg.plan().cluster_count(), 10);
    }

    #[test]
    fn region_mapping() {
        let cfg = ScenarioConfig::paper_table1();
        assert_eq!(cfg.region_of(1), 0);
        assert_eq!(cfg.region_of(5), 0);
        assert_eq!(cfg.region_of(6), 1);
        assert_eq!(cfg.region_of(10), 1);
    }

    #[test]
    fn far_destination_avoids_attacker_range() {
        for c in 1..=10u32 {
            let d = far_destination(c, 10);
            assert!((1..=10).contains(&d));
            assert!(
                c.abs_diff(d) >= 2,
                "attacker {c} and destination {d} too close"
            );
        }
    }

    #[test]
    fn attack_setup_accessors() {
        assert_eq!(AttackSetup::None.attacker_count(), 0);
        assert_eq!(AttackSetup::Single { cluster: 3 }.attacker_count(), 1);
        assert_eq!(AttackSetup::Cooperative { cluster: 3 }.attacker_count(), 2);
        assert_eq!(AttackSetup::Single { cluster: 3 }.cluster(), Some(3));
        assert_eq!(
            AttackSetup::FalseSuspicion {
                cross_cluster: false
            }
            .cluster(),
            None
        );
    }
}
