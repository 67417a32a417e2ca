//! `platoon`: signed platoon-relay beacons on a ring road of 500 nodes.
//!
//! Every 25th node leads a platoon. Each of its beacons carries six
//! freshly sealed member reports inside its own sealed envelope, and
//! every receiver verifies all seven envelopes through
//! `VerifyQueue::verify_one`. The first receiver of a beacon proves it;
//! the other receivers hit the envelope memo. Serial executor, default
//! neighbor index. The road wraps, so density (and fan-out) stays
//! constant however long the run.

use std::cell::RefCell;
use std::time::{Duration as WallDuration, Instant};

use blackdp::{envelope_memo_clear, Sealed, SignBytes, VerifyQueue};
use blackdp_crypto::{Certificate, Keypair, LongTermId, PublicKey, TaId, TrustedAuthority};
use blackdp_sim::{Channel, Context, Duration, Node, NodeId, Position, Time, World, WorldConfig};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::measure::{median, median_setup, scale_batches, timed, EndToEnd, Mix, Outcome, Span};
use crate::sim_trace::{put_sim_layer, step_for, trace_steps, EngineCounts, StepClass, Stepped};

pub const N: usize = 500;
const LEADER_STRIDE: usize = 25;
const MEMBERS: usize = 6;
/// Envelopes a receiver verifies per beacon.
pub const PER_BEACON: u64 = MEMBERS as u64 + 1;
const SPACING_M: f64 = 25.0;
const RANGE_M: f64 = 300.0;
const PERIOD_US: u64 = 100_000;
/// Far beyond any run's virtual horizon, so no certificate expires
/// however fast the program gets.
const CERT_VALIDITY: Duration = Duration::from_secs(10_000_000);
/// Events per timed batch: some 10 ms.
const BATCH: u64 = 4096;

#[derive(Debug, Clone, PartialEq)]
struct MemberReport {
    member: u32,
    round: u64,
}

impl SignBytes for MemberReport {
    fn write_sign_bytes(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(b"pbmbr");
        out.extend_from_slice(&self.member.to_be_bytes());
        out.extend_from_slice(&self.round.to_be_bytes());
    }
}

/// The leader's beacon: its slot, its round, and the relayed member
/// envelopes, bound by their signature scalars.
#[derive(Debug, Clone, PartialEq)]
struct Beacon {
    leader: u32,
    round: u64,
    members: Vec<Sealed<MemberReport>>,
}

impl SignBytes for Beacon {
    fn write_sign_bytes(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(b"pbbcn");
        out.extend_from_slice(&self.leader.to_be_bytes());
        out.extend_from_slice(&self.round.to_be_bytes());
        for m in &self.members {
            out.extend_from_slice(&m.signature.e.to_be_bytes());
            out.extend_from_slice(&m.signature.s.to_be_bytes());
        }
    }
}

type Packet = Sealed<Beacon>;

#[derive(Clone)]
struct Creds {
    keys: Keypair,
    cert: Certificate,
    members: Vec<(Keypair, Certificate)>,
}

struct Leader {
    creds: Creds,
    phase: Duration,
    period: Duration,
    sign_rng: StdRng,
    round: u64,
}

/// Spans the traced run's nodes record around their calls into `core`
/// and `crypto`. Thread-local because nodes must be `Send + Sync`; the
/// serial executor runs every handler on the calling thread.
#[derive(Default)]
struct ChildSpans {
    seal: Span,
    verify: Span,
    /// Calls on an envelope some receiver already verified.
    repeats: u64,
    /// Highest beacon round any receiver has verified, per leader slot.
    last_round: Vec<u64>,
}

thread_local! {
    static CHILD: RefCell<ChildSpans> = RefCell::default();
}

struct PlatoonNode {
    start: Position,
    velocity_x: f64,
    ring_m: f64,
    leader: Option<Leader>,
    ta_key: PublicKey,
    queue: VerifyQueue,
    traced: bool,
    verified: u64,
}

impl PlatoonNode {
    fn verify_all(&mut self, p: &Packet, now: Time) -> (u64, u64) {
        let (mut ok, mut err) = (0, 0);
        let mut tally = |r: Result<(), blackdp::AuthError>| match r {
            Ok(()) => ok += 1,
            Err(_) => err += 1,
        };
        tally(self.queue.verify_one(p, self.ta_key, now));
        for m in &p.body.members {
            tally(self.queue.verify_one(m, self.ta_key, now));
        }
        (ok, err)
    }

    fn verify_all_traced(&mut self, p: &Packet, now: Time) -> (u64, u64) {
        let (mut ok, mut err) = (0, 0);
        let mut verify = Span::default();
        let mut tally = |r: Result<(), blackdp::AuthError>| match r {
            Ok(()) => ok += 1,
            Err(_) => err += 1,
        };
        tally(timed(&mut verify, || {
            self.queue.verify_one(p, self.ta_key, now)
        }));
        for m in &p.body.members {
            tally(timed(&mut verify, || {
                self.queue.verify_one(m, self.ta_key, now)
            }));
        }
        CHILD.with(|c| {
            let mut c = c.borrow_mut();
            c.verify.calls += verify.calls;
            c.verify.busy += verify.busy;
            let slot = p.body.leader as usize;
            if c.last_round.len() <= slot {
                c.last_round.resize(slot + 1, 0);
            }
            if p.body.round <= c.last_round[slot] {
                c.repeats += verify.calls;
            } else {
                c.last_round[slot] = p.body.round;
            }
        });
        (ok, err)
    }
}

impl Node<Packet, u8> for PlatoonNode {
    fn position(&self, now: Time) -> Position {
        let x = self.start.x + self.velocity_x * now.as_secs_f64();
        Position::new(x.rem_euclid(self.ring_m), self.start.y)
    }
    fn on_start(&mut self, ctx: &mut Context<'_, Packet, u8>) {
        if let Some(leader) = &self.leader {
            ctx.set_timer(leader.phase, 0);
        }
    }
    fn on_packet(
        &mut self,
        ctx: &mut Context<'_, Packet, u8>,
        _from: NodeId,
        p: Packet,
        _ch: Channel,
    ) {
        let now = ctx.now();
        let (ok, err) = if self.traced {
            self.verify_all_traced(&p, now)
        } else {
            self.verify_all(&p, now)
        };
        self.verified += ok + err;
        ctx.count_by("verified_ok", ok);
        ctx.count_by("verified_err", err);
    }
    fn on_timer(&mut self, ctx: &mut Context<'_, Packet, u8>, _token: u8) {
        let traced = self.traced;
        let leader = self.leader.as_mut().expect("only leaders arm timers");
        leader.round += 1;
        let round = leader.round;
        let mut seal = Span::default();
        let mut members = Vec::with_capacity(MEMBERS);
        for (m, (keys, cert)) in leader.creds.members.iter().enumerate() {
            let report = MemberReport {
                member: m as u32,
                round,
            };
            let rng = &mut leader.sign_rng;
            members.push(if traced {
                timed(&mut seal, || Sealed::seal(report, *cert, None, keys, rng))
            } else {
                Sealed::seal(report, *cert, None, keys, rng)
            });
        }
        let body = Beacon {
            leader: ctx.self_id().index(),
            round,
            members,
        };
        let (cert, keys, rng) = (leader.creds.cert, &leader.creds.keys, &mut leader.sign_rng);
        let sealed = if traced {
            timed(&mut seal, || Sealed::seal(body, cert, None, keys, rng))
        } else {
            Sealed::seal(body, cert, None, keys, rng)
        };
        if traced {
            CHILD.with(|c| {
                let mut c = c.borrow_mut();
                c.seal.calls += seal.calls;
                c.seal.busy += seal.busy;
            });
        }
        ctx.broadcast(sealed);
        ctx.set_timer(leader.period, 0);
    }
    fn state_digest(&self) -> u64 {
        let round = self.leader.as_ref().map_or(0, |l| l.round);
        self.verified ^ (round << 32)
    }
}

/// The seed's PKI and road: a trusted authority and every leader's and
/// member's credential, plus each node's trajectory and beacon timing.
pub struct Fleet {
    seed: u64,
    ta_key: PublicKey,
    creds: Vec<Option<Creds>>,
}

impl Fleet {
    pub fn provision(seed: u64, n: usize) -> Fleet {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x91a7_0011);
        let mut ta = TrustedAuthority::new(TaId(1), &mut rng);
        let mut next_id = 0u64;
        let mut enroll = |ta: &mut TrustedAuthority, rng: &mut StdRng| {
            let keys = Keypair::generate(rng);
            next_id += 1;
            let cert = ta.enroll(
                LongTermId(next_id),
                keys.public(),
                Time::ZERO,
                CERT_VALIDITY,
                rng,
            );
            (keys, cert)
        };
        let creds = (0..n)
            .map(|i| {
                (i % LEADER_STRIDE == 0).then(|| {
                    let (keys, cert) = enroll(&mut ta, &mut rng);
                    let members = (0..MEMBERS).map(|_| enroll(&mut ta, &mut rng)).collect();
                    Creds {
                        keys,
                        cert,
                        members,
                    }
                })
            })
            .collect();
        Fleet {
            seed,
            ta_key: ta.public_key(),
            creds,
        }
    }

    fn build(&self, traced: bool) -> World<Packet, u8> {
        let mut world = World::new(WorldConfig {
            radio_range_m: RANGE_M,
            seed: self.seed,
            ..WorldConfig::default()
        });
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0x91a7_0022);
        let ring_m = self.creds.len() as f64 * SPACING_M;
        for (i, creds) in self.creds.iter().enumerate() {
            let start = Position::new(
                i as f64 * SPACING_M + rng.random_range(0.0..SPACING_M),
                f64::from(rng.random_range(0..4u32)) * 5.0,
            );
            let speed: f64 = rng.random_range(10.0..30.0);
            let velocity_x = if rng.random::<bool>() { speed } else { -speed };
            let phase = Duration::from_micros(rng.random_range(1..=PERIOD_US));
            let period =
                Duration::from_micros(rng.random_range(PERIOD_US * 9 / 10..PERIOD_US * 11 / 10));
            let sign_seed = rng.random::<u64>();
            let leader = creds.as_ref().map(|creds| Leader {
                creds: creds.clone(),
                phase,
                period,
                sign_rng: StdRng::seed_from_u64(sign_seed),
                round: 0,
            });
            world.spawn(Box::new(PlatoonNode {
                start,
                velocity_x,
                ring_m,
                leader,
                ta_key: self.ta_key,
                queue: VerifyQueue::new(),
                traced,
                verified: 0,
            }));
        }
        world
    }
}

/// Resets every verification cache the run touches, so untraced and
/// traced runs start equally cold.
fn cold_caches() {
    envelope_memo_clear();
    blackdp_crypto::cert_cache_clear();
}

pub fn run(seed: u64, seconds: u64, trace: bool) -> Outcome {
    run_n(seed, seconds, trace, N)
}

pub fn run_n(seed: u64, seconds: u64, trace: bool, n: usize) -> Outcome {
    let mut out = Outcome::new();
    // Provisioning is sub-millisecond: the median of many repeats keeps
    // it steady.
    let (setup_s, (fleet, mut world)) = median_setup(Mix::ChurnAndWalk, 15, || {
        let fleet = Fleet::provision(seed, n);
        let world = fleet.build(false);
        (fleet, world)
    });

    cold_caches();
    let Stepped {
        executed,
        windows,
        batch_ms,
    } = step_for(
        &mut world,
        Mix::ChurnAndWalk,
        WallDuration::from_secs(seconds),
        BATCH,
        |world| world.stats().get("verified_ok") + world.stats().get("verified_err"),
    );
    let wall = windows.measured_secs();
    let stamp = world.engine_stamp();
    let stats = world.stats();
    let (ok, err) = (stats.get("verified_ok"), stats.get("verified_err"));
    let engine = EngineCounts {
        executed,
        radio_rx: stats.get("radio.rx"),
        radio_tx: stats.get("radio.tx"),
    };
    let radio_rx = engine.radio_rx;
    let verifications = ok + err;
    out.attempted = verifications;
    out.failed = err;
    out.check(err == 0, || {
        format!("{err} verification error(s) on honest traffic")
    });
    out.check(verifications == radio_rx * PER_BEACON, || {
        format!("{verifications} verifications for {radio_rx} deliveries × {PER_BEACON}")
    });
    out.check(stamp.scheduled - stamp.pending == executed, || {
        "engine and benchmark disagree on executed events".into()
    });
    out.note(format!(
        "platoon: {executed} events, {verifications} verifications to virtual {:.3} s in {wall:.3} s",
        stamp.now_micros as f64 / 1e6
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

    cold_caches();
    CHILD.with(|c| *c.borrow_mut() = ChildSpans::default());
    let mut world = fleet.build(true);
    let (hits0, misses0) = blackdp_crypto::cert_cache_stats();
    let traced_start = Instant::now();
    let steps = trace_steps(&mut world, executed, |_| StepClass::Deliver);
    let traced_wall = traced_start.elapsed().as_secs_f64();
    let (hits1, misses1) = blackdp_crypto::cert_cache_stats();
    let child = CHILD.with(|c| std::mem::take(&mut *c.borrow_mut()));
    out.check(world.engine_stamp() == stamp, || {
        "traced run ended on a different EngineStamp".into()
    });
    out.check(steps.radio == radio_rx, || {
        format!(
            "tap saw {} deliveries, engine counted radio.rx = {radio_rx}",
            steps.radio
        )
    });
    out.check(child.verify.calls == verifications, || {
        format!(
            "traced {} verify_one calls, untraced {verifications}",
            child.verify.calls
        )
    });
    put_sim_layer(
        &mut out,
        &steps,
        &engine,
        [child.seal.secs(), child.verify.secs()],
        0.0,
        [wall, traced_wall],
    );
    out.detail("crypto.seal.calls", child.seal.calls as f64, "count");
    out.detail("crypto.seal.self_s", child.seal.secs(), "s");
    out.detail("core.verify_one.calls", child.verify.calls as f64, "count");
    out.detail("core.verify_one.self_s", child.verify.secs(), "s");
    out.detail(
        "core.verify_one.repeat_ratio",
        child.repeats as f64 / child.verify.calls.max(1) as f64,
        "ratio",
    );
    out.detail("crypto.cert_cache.hits", (hits1 - hits0) as f64, "count");
    out.detail(
        "crypto.cert_cache.misses",
        (misses1 - misses0) as f64,
        "count",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fleet_is_a_pure_function_of_the_seed() {
        let stamp = |seed| {
            let mut w = Fleet::provision(seed, 100).build(false);
            w.run_until(Time::from_millis(300));
            w.engine_stamp()
        };
        assert_eq!(stamp(4), stamp(4));
        assert_ne!(stamp(4), stamp(5));
    }

    #[test]
    fn small_platoon_traced_run_passes_its_checks() {
        let out = run_n(2, 1, true, 100);
        assert!(out.correct, "{:?}", out.notes);
        assert_eq!(out.failed, 0);
    }
}
