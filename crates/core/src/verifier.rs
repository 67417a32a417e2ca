//! The originator-side route verification ladder
//! (Section III-B.1, "Source and Destination Verification").
//!
//! After AODV installs a route, the originator must not trust it yet:
//!
//! 1. If the RREP came **from the destination itself**, verifying the
//!    attached certificate + signature suffices.
//! 2. If it came from an **intermediate node** claiming a cached route, the
//!    originator sends a *secure Hello* probe end-to-end and waits for the
//!    destination's authenticated reply.
//! 3. On timeout it redoes route discovery once; a second unanswered probe
//!    behind the **same suspect** triggers a detection request (`d_req`) to
//!    the cluster head.
//! 4. A Hello reply that fails authentication, or authenticates as someone
//!    other than the destination, short-circuits to an immediate `d_req`
//!    ("anonymity response").
//!
//! Implemented sans-io: the host feeds in AODV route events and BlackDP
//! replies, and executes the returned [`VerifierAction`]s.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use blackdp_aodv::{Addr, Rrep};
use blackdp_crypto::cert::CertError;
use blackdp_crypto::sig::VerifyBatch;
use blackdp_crypto::{PseudonymId, PublicKey};
use blackdp_mobility::ClusterId;
use blackdp_sim::Time;

use crate::config::BlackDpConfig;
use crate::wire::{
    addr_of, AuthError, DReq, HelloProbe, HelloReply, RouteAuth, Sealed, SignBytes,
    SuspicionReason,
};

/// Bookkeeping for one enqueued envelope verification.
#[derive(Debug, Clone, Copy)]
struct VerifyJob {
    /// Index of the certificate's TA signature in the batch, with the
    /// digest to memoize after the flush — `None` when the per-thread
    /// certificate cache already knew the answer.
    cert_slot: Option<(u32, u128)>,
    /// The cache's answer for the certificate signature, when it had one.
    cert_cached: Option<bool>,
    /// The validity-window verdict, evaluated eagerly (it depends on the
    /// enqueue-time `now`, which must not drift to the flush).
    window: Option<CertError>,
    /// Index of the body signature in the batch. Unused (left at
    /// `u32::MAX`) when `memo` or `alias_of` resolved the job without
    /// batch work.
    body_slot: u32,
    /// Pre-resolved `(cert_ok, body_ok)` from the process-global envelope
    /// memo: this exact envelope's signature math already ran once, so
    /// the flush reuses the verdict without touching the batch.
    memo: Option<(bool, bool)>,
    /// Store this job's raw verdict under the given envelope digest after
    /// the flush proves it.
    store: Option<u128>,
    /// Copy the raw verdict of an earlier job in the same batch carrying
    /// a byte-identical envelope (the broadcast case: every receiver sees
    /// the same sealed beacon).
    alias_of: Option<u32>,
}

/// Bound on each shard of the process-global envelope memo. When an
/// insert would grow a shard past this, that shard is cleared — crude,
/// but O(1) amortized, allocation-stable, and the memo is a pure cache:
/// losing it costs speed, never correctness.
const ENVELOPE_MEMO_SHARD_CAP: usize = 8_192;

/// Shard count for the envelope memo. Power of two so shard selection is
/// a mask (the digest is fnv output, so its low bits spread uniformly).
/// Each shard grows and rehashes on its own, in steps a sixteenth the
/// size of one whole-memo map's; see [`envelope_memo`].
const ENVELOPE_MEMO_SHARDS: usize = 16;

type MemoShard = std::sync::Mutex<HashMap<u128, (bool, bool), blackdp_crypto::DigestHasherBuilder>>;

/// The process-global envelope-verdict memo: envelope digest →
/// `(cert_ok, body_ok)`, sharded by digest low bits.
///
/// A broadcast beacon is verified once per *receiver*; the memo turns
/// every receiver after the first into a digest lookup. Unlike the
/// per-thread certificate cache it is process-global, so the worker
/// threads of a parallel sweep share one memo. Signature validity is a
/// pure function of the envelope bytes, so sharing verdicts across
/// receivers and threads cannot perturb any result — the validity
/// *window* (time-dependent) is always evaluated fresh and is never
/// memoized.
///
/// The shards bound memory, not lock contention. Each one grows (and,
/// at the cap, clears) independently, so the memo grows in sixteen
/// small rehash steps. A single thread-local map with the same total
/// cap ran the `platoon` benchmark workload at the same events/s but
/// raised its peak RSS from 13.7–14.7 MB to 16.8 MB (4 alternating 10 s
/// pairs on a 2-core x86-64 host): one map grows its whole table in a
/// single step, with the old and the new table live together.
fn envelope_memo() -> &'static [MemoShard; ENVELOPE_MEMO_SHARDS] {
    static MEMO: std::sync::OnceLock<[MemoShard; ENVELOPE_MEMO_SHARDS]> =
        std::sync::OnceLock::new();
    MEMO.get_or_init(|| std::array::from_fn(|_| std::sync::Mutex::new(HashMap::default())))
}

/// Locks one digest's shard, tolerating poisoning: the map holds plain
/// bools, so a panicking holder cannot leave it logically inconsistent.
fn envelope_memo_lock(
    digest: u128,
) -> std::sync::MutexGuard<'static, HashMap<u128, (bool, bool), blackdp_crypto::DigestHasherBuilder>>
{
    envelope_memo()[digest as usize & (ENVELOPE_MEMO_SHARDS - 1)]
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn envelope_memo_lookup(digest: u128) -> Option<(bool, bool)> {
    envelope_memo_lock(digest).get(&digest).copied()
}

fn envelope_memo_store(digest: u128, verdict: (bool, bool)) {
    let mut memo = envelope_memo_lock(digest);
    if memo.len() >= ENVELOPE_MEMO_SHARD_CAP && !memo.contains_key(&digest) {
        memo.clear();
    }
    memo.insert(digest, verdict);
}

/// Empties the process-global envelope memo. Benchmarks and differential
/// tests use this to measure cold-path costs and to keep verdict reuse
/// from leaking between cases.
#[doc(hidden)]
pub fn envelope_memo_clear() {
    for shard in envelope_memo() {
        shard
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .clear();
    }
}

/// Deferred, batch-backed verification of [`Sealed`] envelopes.
///
/// Callers [`enqueue`](VerifyQueue::enqueue) any number of envelopes and
/// then [`flush`](VerifyQueue::flush) once: every signature the flush
/// still has to prove — body signatures, plus certificate signatures the
/// per-thread cache has not memoized — runs through one
/// [`VerifyBatch`], sharing its fixed-base tables, interleaved
/// exponentiation ladders, and multi-lane challenge hashing. Per-job
/// results reproduce [`Sealed::verify`] exactly, including error
/// precedence (certificate signature, then validity window, then body
/// signature); the differential tests below pin that equivalence.
///
/// Determinism: the batch's acceptance-fold coefficients come from an
/// FNV stream over the batch contents — never a caller RNG — and the
/// cheap checks (cache lookups, window comparisons) are evaluated at
/// enqueue time, so routing verification through a queue instead of
/// calling [`Sealed::verify`] inline cannot perturb a simulation.
///
/// Dedup: byte-identical envelopes (one broadcast beacon, many
/// receivers) are proven once. Within a batch, later copies alias the
/// first job's verdict; across flushes — and across threads — a
/// process-global memo keyed by an FNV-128 envelope digest replays the
/// signature verdicts without re-running any math. Signature validity is
/// a pure function of the envelope bytes, so neither layer can change a
/// verdict; the time-dependent validity window is always re-evaluated at
/// the caller's `now` and never memoized.
///
/// All buffers (the batch arena and scratch, the job and result lists)
/// are retained across flushes: steady-state use is allocation-free
/// once warm.
#[derive(Debug, Default)]
pub struct VerifyQueue {
    batch: VerifyBatch,
    jobs: Vec<VerifyJob>,
    results: Vec<Result<(), AuthError>>,
    scratch: Vec<u8>,
    /// Second scratch for certificate bodies, so the envelope bytes in
    /// `scratch` survive from digesting to the body-signature push.
    cert_scratch: Vec<u8>,
    /// Envelope digest → index of the first job in the current batch
    /// carrying it; later byte-identical enqueues alias to that job
    /// instead of pushing duplicate signature work.
    pending_digests: HashMap<u128, u32, blackdp_crypto::DigestHasherBuilder>,
    /// Raw `(cert_ok, body_ok)` per job, resolved in enqueue order during
    /// the flush so alias jobs can copy their primary's verdict. Retained
    /// across flushes to stay allocation-free when warm.
    verdicts: Vec<(bool, bool)>,
}

impl VerifyQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        VerifyQueue::default()
    }

    /// Queues `sealed` for verification at time `now` under the TA root
    /// key. Returns the job's index into [`flush`](VerifyQueue::flush)'s
    /// result slice.
    pub fn enqueue<T: SignBytes>(
        &mut self,
        sealed: &Sealed<T>,
        ta_key: PublicKey,
        now: Time,
    ) -> usize {
        // Validity window: time-dependent, so decided here, not at flush
        // — and never memoized, for the same reason.
        let window = sealed.cert.check_window(now).err();
        let (env_digest, body_len) = self.env_digest_of(sealed, ta_key);
        let index = self.jobs.len();
        // Same envelope already queued in this batch (a broadcast seen by
        // many receivers): alias to the first copy's verdict.
        if let Some(&primary) = self.pending_digests.get(&env_digest) {
            self.jobs.push(VerifyJob {
                cert_slot: None,
                cert_cached: None,
                window,
                body_slot: u32::MAX,
                memo: None,
                store: None,
                alias_of: Some(primary),
            });
            return index;
        }
        // Same envelope already proven by an earlier flush anywhere in
        // the process: reuse the memoized verdict.
        if let Some(verdict) = envelope_memo_lookup(env_digest) {
            self.jobs.push(VerifyJob {
                cert_slot: None,
                cert_cached: None,
                window,
                body_slot: u32::MAX,
                memo: Some(verdict),
                store: None,
                alias_of: None,
            });
            return index;
        }
        // Certificate signature: consult the memo cache now; only a miss
        // costs batch work. The per-thread cache key is computed lazily,
        // here on the memo-miss path only — alias and memo hits above
        // never pay for it.
        let digest = sealed.cert.cache_digest(ta_key);
        let cert_cached = blackdp_crypto::lookup_signature(digest);
        let cert_slot = if cert_cached.is_none() {
            let slot = u32::try_from(self.batch.len()).expect("batch < 4G items");
            // `scratch` still holds the envelope bytes needed for the
            // body push below; the cert body uses its own buffer.
            self.cert_scratch.clear();
            sealed.cert.write_body(&mut self.cert_scratch);
            self.batch
                .push(&self.cert_scratch, sealed.cert.signature, ta_key);
            Some((slot, digest))
        } else {
            None
        };
        // Body signature under the certificate's key. The signed message
        // is the `body_len` prefix of `scratch` — the digest pass above
        // appended cert identity after it.
        let body_slot = u32::try_from(self.batch.len()).expect("batch < 4G items");
        self.batch.push(
            &self.scratch[..body_len],
            sealed.signature,
            sealed.cert.public_key,
        );
        self.pending_digests.insert(env_digest, index as u32);
        self.jobs.push(VerifyJob {
            cert_slot,
            cert_cached,
            window,
            body_slot,
            memo: None,
            store: Some(env_digest),
            alias_of: None,
        });
        index
    }

    /// Number of envelopes queued since the last flush.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Verifies everything queued in one batch and returns the per-job
    /// verdicts, indexed by [`enqueue`](VerifyQueue::enqueue) order. The
    /// queue resets for reuse (capacity retained).
    pub fn flush(&mut self) -> &[Result<(), AuthError>] {
        let outcome = self.batch.verify_all();
        self.results.clear();
        self.verdicts.clear();
        for job in self.jobs.drain(..) {
            // Raw signature verdicts first: memo hit, alias of an earlier
            // job in this batch, or real batch slots.
            let (cert_ok, body_ok) = if let Some(verdict) = job.memo {
                verdict
            } else if let Some(primary) = job.alias_of {
                self.verdicts[primary as usize]
            } else {
                let cert_ok = match (job.cert_cached, job.cert_slot) {
                    (Some(valid), _) => valid,
                    (None, Some((slot, digest))) => {
                        let valid = outcome.is_valid(slot as usize);
                        blackdp_crypto::store_signature(digest, valid);
                        valid
                    }
                    (None, None) => unreachable!("cache miss queues a cert slot"),
                };
                (cert_ok, outcome.is_valid(job.body_slot as usize))
            };
            if let Some(env_digest) = job.store {
                envelope_memo_store(env_digest, (cert_ok, body_ok));
            }
            self.verdicts.push((cert_ok, body_ok));
            // Same precedence as `Sealed::verify`: certificate signature,
            // then validity window, then body signature.
            self.results.push(if !cert_ok {
                Err(AuthError::Cert(CertError::BadSignature))
            } else if let Some(w) = job.window {
                Err(AuthError::Cert(w))
            } else if !body_ok {
                Err(AuthError::BadSignature)
            } else {
                Ok(())
            });
        }
        self.pending_digests.clear();
        &self.results
    }

    /// Serializes the full envelope identity into `scratch` and digests
    /// it in one hash pass: the signed body bytes first — so the
    /// `body_len` prefix of `scratch` is exactly the batch message —
    /// then the body signature scalars, the certificate body, the
    /// certificate signature scalars, and the TA key. Everything the
    /// signature math depends on, one buffer, no allocation when warm:
    /// on the memo-hit path this digest IS the cost of a verification.
    fn env_digest_of<T: SignBytes>(
        &mut self,
        sealed: &Sealed<T>,
        ta_key: PublicKey,
    ) -> (u128, usize) {
        self.scratch.clear();
        sealed.full_bytes_into(&mut self.scratch);
        let body_len = self.scratch.len();
        self.scratch
            .extend_from_slice(&sealed.signature.e.to_be_bytes());
        self.scratch
            .extend_from_slice(&sealed.signature.s.to_be_bytes());
        sealed.cert.write_body(&mut self.scratch);
        self.scratch
            .extend_from_slice(&sealed.cert.signature.e.to_be_bytes());
        self.scratch
            .extend_from_slice(&sealed.cert.signature.s.to_be_bytes());
        self.scratch
            .extend_from_slice(&ta_key.raw().to_be_bytes());
        (blackdp_crypto::fast_hash_128(&[&self.scratch]), body_len)
    }

    /// Verifies a single envelope through the queue: enqueue plus flush.
    /// Below the batch's lane threshold this runs the exact scalar
    /// verifications [`Sealed::verify`] would, minus its per-call
    /// allocations. An envelope already proven anywhere in the process
    /// short-circuits on the memo alone — digest, shard lookup, verdict —
    /// skipping the whole job/flush machinery; every receiver of a
    /// broadcast after the first takes this path.
    pub fn verify_one<T: SignBytes>(
        &mut self,
        sealed: &Sealed<T>,
        ta_key: PublicKey,
        now: Time,
    ) -> Result<(), AuthError> {
        debug_assert!(self.is_empty(), "verify_one on a non-empty queue");
        let (env_digest, _) = self.env_digest_of(sealed, ta_key);
        if let Some((cert_ok, body_ok)) = envelope_memo_lookup(env_digest) {
            // Same precedence as `Sealed::verify` and `flush`: cert
            // signature, then validity window (always live, never
            // memoized), then body signature.
            return if !cert_ok {
                Err(AuthError::Cert(CertError::BadSignature))
            } else if let Err(w) = sealed.cert.check_window(now) {
                Err(AuthError::Cert(w))
            } else if !body_ok {
                Err(AuthError::BadSignature)
            } else {
                Ok(())
            };
        }
        self.enqueue(sealed, ta_key, now);
        self.flush()[0]
    }
}

/// Aggregate counters reported by a [`BoundaryAuditor`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BoundaryAuditStats {
    /// Envelopes observed (enqueued) so far.
    pub enqueued: u64,
    /// Batched flushes executed.
    pub flushes: u64,
    /// Widest single flush, in envelopes. The PR-7 in-sim ceiling was ≤ 2
    /// signatures per flush; boundary auditing exists to push this past
    /// the batch verifier's lane threshold.
    pub max_width: usize,
    /// Envelopes whose audit verification failed.
    pub failures: u64,
}

/// Batched out-of-band verification of envelopes crossing shard
/// boundaries.
///
/// The in-simulation [`VerifyQueue`] is structurally limited to ≤ 2
/// signatures per flush — one envelope per delivery event, and wider
/// deferral would break trace byte-identity (the PR-7 finding). The
/// boundary auditor sits **outside** the protocol: it observes the sealed
/// envelopes of radio deliveries that crossed a shard-band boundary (via
/// the world's boundary tap), accumulates them to a target width, and
/// flushes them through one [`VerifyQueue`] batch. Because the audit makes
/// no RNG draws, touches no [`Stats`](blackdp_sim::Stats) counter, and
/// feeds nothing back into any node, attaching it cannot perturb a
/// simulation — which is exactly what lets it batch freely where the
/// in-sim queue cannot.
///
/// Verdicts reproduce [`Sealed::verify`] exactly (see [`VerifyQueue`]);
/// honest traffic must audit clean, so a nonzero
/// [`failures`](BoundaryAuditStats::failures) on an attacker-free run is a
/// bug detector in its own right.
#[derive(Debug)]
pub struct BoundaryAuditor {
    queue: VerifyQueue,
    ta_key: PublicKey,
    target_width: usize,
    pending: usize,
    stats: BoundaryAuditStats,
}

impl BoundaryAuditor {
    /// Default flush width: comfortably past the batch verifier's lane
    /// threshold while keeping audit latency (and peak arena size) small.
    pub const DEFAULT_WIDTH: usize = 64;

    /// Creates an auditor verifying against the TA root key `ta_key`,
    /// flushing whenever `target_width` envelopes are pending (values
    /// below 1 are treated as 1).
    pub fn new(ta_key: PublicKey, target_width: usize) -> Self {
        BoundaryAuditor {
            queue: VerifyQueue::new(),
            ta_key,
            target_width: target_width.max(1),
            pending: 0,
            stats: BoundaryAuditStats::default(),
        }
    }

    /// Observes one boundary-crossing envelope at time `now`. When the
    /// accumulated batch reaches the target width this flushes and returns
    /// the batch's verdicts (in observation order); otherwise `None`.
    pub fn observe<T: SignBytes>(
        &mut self,
        sealed: &Sealed<T>,
        now: Time,
    ) -> Option<&[Result<(), AuthError>]> {
        self.queue.enqueue(sealed, self.ta_key, now);
        self.pending += 1;
        self.stats.enqueued += 1;
        if self.pending >= self.target_width {
            Some(self.flush())
        } else {
            None
        }
    }

    /// Flushes any pending envelopes through one batched verification and
    /// returns their verdicts (empty if nothing was pending). Call once
    /// after the run to drain the final partial batch.
    pub fn flush(&mut self) -> &[Result<(), AuthError>] {
        if self.pending == 0 {
            return &[];
        }
        self.stats.flushes += 1;
        self.stats.max_width = self.stats.max_width.max(self.pending);
        self.pending = 0;
        let results = self.queue.flush();
        self.stats.failures += results.iter().filter(|r| r.is_err()).count() as u64;
        results
    }

    /// Envelopes accumulated toward the next flush.
    pub fn pending(&self) -> usize {
        self.pending
    }

    /// Aggregate audit counters so far. Drain with
    /// [`flush`](BoundaryAuditor::flush) first for final numbers.
    pub fn stats(&self) -> BoundaryAuditStats {
        self.stats
    }
}

/// An instruction for the host embedding a [`SourceVerifier`].
#[derive(Debug, Clone, PartialEq)]
pub enum VerifierAction {
    /// Seal and route this Hello probe toward its destination.
    SendProbe(HelloProbe),
    /// Tear down the unverified route and rerun AODV route discovery.
    RestartDiscovery {
        /// The destination to rediscover.
        dest: Addr,
    },
    /// Seal this detection request and send it to the cluster head.
    Report(DReq),
    /// The route to `dest` is authenticated end to end; data may flow.
    Verified {
        /// The verified destination.
        dest: Addr,
    },
    /// Verification could not complete (e.g. no route at all); the attack —
    /// if any — was prevented but nothing is reportable.
    GaveUp {
        /// The abandoned destination.
        dest: Addr,
    },
}

#[derive(Debug, Clone)]
struct VerifyState {
    /// The replier behind the route under test: `(address, cluster)`.
    suspect: Option<(Addr, Option<ClusterId>)>,
    /// Outstanding probe: `(probe id, deadline)`.
    probe: Option<(u64, Time)>,
}

/// The per-vehicle verification state machine.
///
/// # Examples
///
/// See the crate-level documentation for a full walkthrough; unit tests in
/// this module exercise every ladder rung.
#[derive(Debug)]
pub struct SourceVerifier {
    cfg: BlackDpConfig,
    ta_key: PublicKey,
    identity: PseudonymId,
    cluster: Option<ClusterId>,
    states: BTreeMap<Addr, VerifyState>,
    /// Unanswered-probe strikes per `(destination, replier)`. Strikes
    /// survive interleaved successful verifications of *other* routes, so
    /// an attacker whose forged RREP keeps re-capturing the route cannot
    /// reset its own count by letting an honest round through.
    strikes: HashMap<(Addr, Addr), u8>,
    /// Repliers already reported to the cluster head; their routes are
    /// held (neither probed again nor used) until the verdict arrives.
    reported: BTreeSet<Addr>,
    /// Batch-backed envelope verification with retained buffers; see
    /// [`VerifyQueue`].
    queue: VerifyQueue,
    next_probe_id: u64,
}

impl SourceVerifier {
    /// Creates a verifier for the vehicle holding `identity`, validating
    /// certificates against `ta_key`.
    pub fn new(cfg: BlackDpConfig, ta_key: PublicKey, identity: PseudonymId) -> Self {
        SourceVerifier {
            cfg,
            ta_key,
            identity,
            cluster: None,
            states: BTreeMap::new(),
            strikes: HashMap::new(),
            reported: BTreeSet::new(),
            queue: VerifyQueue::new(),
            next_probe_id: 0,
        }
    }

    /// Updates the vehicle's identity after pseudonym renewal.
    pub fn set_identity(&mut self, identity: PseudonymId) {
        self.identity = identity;
    }

    /// Records the cluster this vehicle registered with (from the JREP).
    pub fn set_cluster(&mut self, cluster: Option<ClusterId>) {
        self.cluster = cluster;
    }

    /// The destinations currently under verification.
    pub fn pending(&self) -> impl Iterator<Item = Addr> + '_ {
        self.states.keys().copied()
    }

    /// Declares interest in a verified route to `dest`. Route events for
    /// destinations never begun are ignored.
    pub fn begin(&mut self, dest: Addr) {
        self.states.entry(dest).or_insert(VerifyState {
            suspect: None,
            probe: None,
        });
    }

    /// True if `replier` was already reported and awaits a verdict.
    pub fn is_reported(&self, replier: Addr) -> bool {
        self.reported.contains(&replier)
    }

    /// Feed: AODV established a route to `dest`, won by `rrep` (delivered
    /// by neighbor `from`), optionally carrying its authentication
    /// envelope.
    pub fn on_route_established(
        &mut self,
        dest: Addr,
        from: Addr,
        rrep: &Rrep,
        auth: Option<&RouteAuth>,
        now: Time,
    ) -> Vec<VerifierAction> {
        let Some(state) = self.states.get_mut(&dest) else {
            return Vec::new();
        };
        if state.probe.is_some() {
            // Already probing this destination; ignore extra RREPs.
            return Vec::new();
        }

        // Authentication first (the paper: "nodes need to authenticate
        // themselves to the originator node").
        let envelope = match auth {
            Some(env) => env,
            None => {
                // Unsigned RREP: authentication violation. The replier's
                // only identity is its link address.
                let dreq = self.make_dreq(from, None, SuspicionReason::AuthViolation);
                self.states.remove(&dest);
                self.reported.insert(from);
                return vec![VerifierAction::Report(dreq)];
            }
        };
        if self.queue.verify_one(envelope, self.ta_key, now).is_err() {
            let suspect = addr_of(envelope.signer());
            let dreq = self.make_dreq(suspect, envelope.cluster, SuspicionReason::AuthViolation);
            self.states.remove(&dest);
            self.reported.insert(suspect);
            return vec![VerifierAction::Report(dreq)];
        }

        let signer_addr = addr_of(envelope.signer());
        if self.reported.contains(&signer_addr) {
            // Already reported: hold this route until the CH verdict.
            return Vec::new();
        }
        if signer_addr == dest {
            // The destination itself replied and authenticated: done.
            self.states.remove(&dest);
            return vec![VerifierAction::Verified { dest }];
        }

        // An intermediate claims a cached route: probe end to end.
        let _ = rrep;
        state.suspect = Some((signer_addr, envelope.cluster));
        let probe_id = self.next_probe_id;
        self.next_probe_id += 1;
        state.probe = Some((probe_id, now + self.cfg.hello_probe_timeout));
        // NOTE: `make_dreq` borrows &self; capture identity fields first.
        vec![VerifierAction::SendProbe(HelloProbe {
            probe_id,
            src: addr_of(self.identity),
            dest,
            ttl: 16,
        })]
    }

    /// Feed: a sealed Hello reply arrived.
    pub fn on_hello_reply(
        &mut self,
        envelope: &Sealed<HelloReply>,
        now: Time,
    ) -> Vec<VerifierAction> {
        let reply = envelope.body;
        // Find the pending destination this reply claims to answer.
        let dest = reply.src;
        let Some(state) = self.states.get(&dest) else {
            return Vec::new();
        };
        let Some((probe_id, _)) = state.probe else {
            return Vec::new();
        };
        if reply.probe_id != probe_id {
            return Vec::new(); // stale reply from an earlier round
        }

        let authentic = self.queue.verify_one(envelope, self.ta_key, now).is_ok();
        let is_destination = addr_of(envelope.signer()) == dest;
        if authentic && is_destination {
            self.states.remove(&dest);
            return vec![VerifierAction::Verified { dest }];
        }

        // "Node v_B1 may reply with a fake Hello packet claiming that
        // itself or the teammate attacker is the destination ... Node v_1
        // sends the detection request without performing the second route
        // discovery because of the anonymity response."
        let (suspect, suspect_cluster) = state
            .suspect
            .unwrap_or((addr_of(envelope.signer()), envelope.cluster));
        let dreq = self.make_dreq(suspect, suspect_cluster, SuspicionReason::FakeHelloReply);
        self.states.remove(&dest);
        self.reported.insert(suspect);
        vec![VerifierAction::Report(dreq)]
    }

    /// Feed: AODV reported that route discovery for `dest` failed outright.
    /// The paper: a suspect that stays silent on the second round "can only
    /// be prevented", not detected.
    pub fn on_discovery_failed(&mut self, dest: Addr) -> Vec<VerifierAction> {
        if self.states.remove(&dest).is_some() {
            vec![VerifierAction::GaveUp { dest }]
        } else {
            Vec::new()
        }
    }

    /// Periodic maintenance: probe timeouts drive the attempt ladder.
    pub fn tick(&mut self, now: Time) -> Vec<VerifierAction> {
        let mut actions = Vec::new();
        let expired: Vec<Addr> = self
            .states
            .iter()
            .filter(|(_, s)| s.probe.map(|(_, d)| now >= d).unwrap_or(false))
            .map(|(&d, _)| d)
            .collect();
        for dest in expired {
            let state = self.states.get_mut(&dest).expect("just listed");
            state.probe = None;
            let Some((suspect, suspect_cluster)) = state.suspect else {
                self.states.remove(&dest);
                actions.push(VerifierAction::GaveUp { dest });
                continue;
            };
            let strikes = self.strikes.entry((dest, suspect)).or_insert(0);
            *strikes += 1;
            if *strikes >= 2 {
                // Second unanswered probe behind the same replier: report.
                self.states.remove(&dest);
                self.strikes.remove(&(dest, suspect));
                self.reported.insert(suspect);
                actions.push(VerifierAction::Report(self.make_dreq(
                    suspect,
                    suspect_cluster,
                    SuspicionReason::NoHelloResponse,
                )));
            } else {
                // First unanswered probe: redo the route discovery with the
                // authentication process.
                actions.push(VerifierAction::RestartDiscovery { dest });
            }
        }
        actions
    }

    fn make_dreq(
        &self,
        suspect: Addr,
        suspect_cluster: Option<ClusterId>,
        reason: SuspicionReason,
    ) -> DReq {
        DReq {
            reporter: self.identity,
            reporter_cluster: self.cluster.unwrap_or(ClusterId(0)),
            suspect,
            suspect_cluster,
            reason,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blackdp_crypto::{Certificate, Keypair, LongTermId, TaId, TrustedAuthority};
    use blackdp_sim::Duration;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    use crate::wire::RrepBody;

    struct Fixture {
        rng: StdRng,
        ta: TrustedAuthority,
        verifier: SourceVerifier,
    }

    fn fixture() -> Fixture {
        let mut rng = StdRng::seed_from_u64(11);
        let ta = TrustedAuthority::new(TaId(0), &mut rng);
        let verifier =
            SourceVerifier::new(BlackDpConfig::default(), ta.public_key(), PseudonymId(1));
        Fixture { rng, ta, verifier }
    }

    fn enroll(fx: &mut Fixture, long_term: u64) -> (Keypair, Certificate) {
        let keys = Keypair::generate(&mut fx.rng);
        let cert = fx.ta.enroll(
            LongTermId(long_term),
            keys.public(),
            Time::ZERO,
            Duration::from_secs(600),
            &mut fx.rng,
        );
        (keys, cert)
    }

    fn rrep(dest: Addr, seq: u32) -> Rrep {
        Rrep {
            dest,
            dest_seq: seq,
            orig: Addr(1),
            hop_count: 2,
            lifetime: Duration::from_secs(6),
            next_hop: None,
        }
    }

    #[test]
    fn destination_signed_rrep_verifies_directly() {
        let mut fx = fixture();
        let (keys, cert) = enroll(&mut fx, 7);
        let dest = addr_of(cert.pseudonym);
        fx.verifier.begin(dest);
        let auth = Sealed::seal(
            RrepBody(rrep(dest, 75)),
            cert,
            Some(ClusterId(3)),
            &keys,
            &mut fx.rng,
        );
        let actions = fx.verifier.on_route_established(
            dest,
            Addr(22),
            &rrep(dest, 75),
            Some(&auth),
            Time::ZERO,
        );
        assert_eq!(actions, vec![VerifierAction::Verified { dest }]);
        assert_eq!(fx.verifier.pending().count(), 0);
    }

    #[test]
    fn intermediate_rrep_triggers_probe() {
        let mut fx = fixture();
        let (keys, cert) = enroll(&mut fx, 7); // an intermediate, not the dest
        let dest = Addr(999);
        fx.verifier.begin(dest);
        let auth = Sealed::seal(
            RrepBody(rrep(dest, 75)),
            cert,
            Some(ClusterId(2)),
            &keys,
            &mut fx.rng,
        );
        let actions = fx.verifier.on_route_established(
            dest,
            addr_of(cert.pseudonym),
            &rrep(dest, 75),
            Some(&auth),
            Time::ZERO,
        );
        match &actions[..] {
            [VerifierAction::SendProbe(p)] => {
                assert_eq!(p.dest, dest);
                assert_eq!(p.src, Addr(1));
            }
            other => panic!("expected a probe, got {other:?}"),
        }
    }

    #[test]
    fn unsigned_rrep_reports_auth_violation() {
        let mut fx = fixture();
        let dest = Addr(999);
        fx.verifier.begin(dest);
        let actions =
            fx.verifier
                .on_route_established(dest, Addr(66), &rrep(dest, 200), None, Time::ZERO);
        match &actions[..] {
            [VerifierAction::Report(dreq)] => {
                assert_eq!(dreq.suspect, Addr(66));
                assert_eq!(dreq.reason, SuspicionReason::AuthViolation);
            }
            other => panic!("expected a report, got {other:?}"),
        }
    }

    #[test]
    fn bad_signature_reports_auth_violation() {
        let mut fx = fixture();
        let (keys, cert) = enroll(&mut fx, 7);
        let dest = Addr(999);
        fx.verifier.begin(dest);
        let mut auth = Sealed::seal(RrepBody(rrep(dest, 200)), cert, None, &keys, &mut fx.rng);
        // Tamper: claim a different sequence number than was signed.
        auth.body = RrepBody(rrep(dest, 4000));
        let actions = fx.verifier.on_route_established(
            dest,
            addr_of(cert.pseudonym),
            &rrep(dest, 4000),
            Some(&auth),
            Time::ZERO,
        );
        assert!(matches!(
            &actions[..],
            [VerifierAction::Report(d)] if d.reason == SuspicionReason::AuthViolation
        ));
    }

    #[test]
    fn authentic_hello_reply_from_destination_verifies() {
        let mut fx = fixture();
        let (ikeys, icert) = enroll(&mut fx, 7); // intermediate
        let (dkeys, dcert) = enroll(&mut fx, 8); // destination
        let dest = addr_of(dcert.pseudonym);
        fx.verifier.begin(dest);
        let auth = Sealed::seal(RrepBody(rrep(dest, 75)), icert, None, &ikeys, &mut fx.rng);
        let actions = fx.verifier.on_route_established(
            dest,
            addr_of(icert.pseudonym),
            &rrep(dest, 75),
            Some(&auth),
            Time::ZERO,
        );
        let probe_id = match &actions[..] {
            [VerifierAction::SendProbe(p)] => p.probe_id,
            other => panic!("expected probe, got {other:?}"),
        };
        let reply = Sealed::seal(
            HelloReply {
                probe_id,
                src: dest,
                dest: Addr(1),
                ttl: 12,
            },
            dcert,
            None,
            &dkeys,
            &mut fx.rng,
        );
        let actions = fx.verifier.on_hello_reply(&reply, Time::from_millis(10));
        assert_eq!(actions, vec![VerifierAction::Verified { dest }]);
    }

    #[test]
    fn fake_hello_reply_reports_immediately() {
        let mut fx = fixture();
        let (bkeys, bcert) = enroll(&mut fx, 66); // the black hole
        let dest = Addr(999);
        fx.verifier.begin(dest);
        let auth = Sealed::seal(
            RrepBody(rrep(dest, 200)),
            bcert,
            Some(ClusterId(2)),
            &bkeys,
            &mut fx.rng,
        );
        let actions = fx.verifier.on_route_established(
            dest,
            addr_of(bcert.pseudonym),
            &rrep(dest, 200),
            Some(&auth),
            Time::ZERO,
        );
        let probe_id = match &actions[..] {
            [VerifierAction::SendProbe(p)] => p.probe_id,
            other => panic!("expected probe, got {other:?}"),
        };
        // The attacker itself "replies" claiming to be the destination: it
        // must sign as `dest` but only holds its own certificate.
        let fake = Sealed::seal(
            HelloReply {
                probe_id,
                src: dest,
                dest: Addr(1),
                ttl: 12,
            },
            bcert,
            Some(ClusterId(2)),
            &bkeys,
            &mut fx.rng,
        );
        let actions = fx.verifier.on_hello_reply(&fake, Time::from_millis(5));
        match &actions[..] {
            [VerifierAction::Report(dreq)] => {
                assert_eq!(dreq.reason, SuspicionReason::FakeHelloReply);
                assert_eq!(dreq.suspect, addr_of(bcert.pseudonym));
                assert_eq!(dreq.suspect_cluster, Some(ClusterId(2)));
            }
            other => panic!("expected report, got {other:?}"),
        }
    }

    #[test]
    fn two_timeouts_escalate_to_report() {
        let mut fx = fixture();
        let (bkeys, bcert) = enroll(&mut fx, 66);
        let dest = Addr(999);
        fx.verifier.begin(dest);
        let auth = Sealed::seal(
            RrepBody(rrep(dest, 200)),
            bcert,
            Some(ClusterId(4)),
            &bkeys,
            &mut fx.rng,
        );

        // Round 1: probe sent, times out → restart discovery.
        let t0 = Time::ZERO;
        let a1 = fx.verifier.on_route_established(
            dest,
            addr_of(bcert.pseudonym),
            &rrep(dest, 200),
            Some(&auth),
            t0,
        );
        assert!(matches!(&a1[..], [VerifierAction::SendProbe(_)]));
        let t1 = t0 + Duration::from_secs(2);
        let a2 = fx.verifier.tick(t1);
        assert_eq!(a2, vec![VerifierAction::RestartDiscovery { dest }]);

        // Round 2: the attacker answers again, probe again, timeout again
        // → report with NoHelloResponse.
        let a3 = fx.verifier.on_route_established(
            dest,
            addr_of(bcert.pseudonym),
            &rrep(dest, 201),
            Some(&auth),
            t1,
        );
        assert!(matches!(&a3[..], [VerifierAction::SendProbe(_)]));
        let t2 = t1 + Duration::from_secs(2);
        let a4 = fx.verifier.tick(t2);
        match &a4[..] {
            [VerifierAction::Report(dreq)] => {
                assert_eq!(dreq.reason, SuspicionReason::NoHelloResponse);
                assert_eq!(dreq.suspect, addr_of(bcert.pseudonym));
            }
            other => panic!("expected report, got {other:?}"),
        }
        assert_eq!(fx.verifier.pending().count(), 0);
    }

    #[test]
    fn discovery_failure_gives_up_quietly() {
        let mut fx = fixture();
        let dest = Addr(999);
        fx.verifier.begin(dest);
        let actions = fx.verifier.on_discovery_failed(dest);
        assert_eq!(actions, vec![VerifierAction::GaveUp { dest }]);
        assert!(fx.verifier.on_discovery_failed(dest).is_empty());
    }

    #[test]
    fn stale_hello_reply_is_ignored() {
        let mut fx = fixture();
        let (ikeys, icert) = enroll(&mut fx, 7);
        let (dkeys, dcert) = enroll(&mut fx, 8);
        let dest = addr_of(dcert.pseudonym);
        fx.verifier.begin(dest);
        let auth = Sealed::seal(RrepBody(rrep(dest, 75)), icert, None, &ikeys, &mut fx.rng);
        let _ = fx.verifier.on_route_established(
            dest,
            addr_of(icert.pseudonym),
            &rrep(dest, 75),
            Some(&auth),
            Time::ZERO,
        );
        let stale = Sealed::seal(
            HelloReply {
                probe_id: 999, // wrong id
                src: dest,
                dest: Addr(1),
                ttl: 12,
            },
            dcert,
            None,
            &dkeys,
            &mut fx.rng,
        );
        assert!(fx.verifier.on_hello_reply(&stale, Time::ZERO).is_empty());
    }

    #[test]
    fn events_for_unknown_destinations_are_ignored() {
        let mut fx = fixture();
        let actions =
            fx.verifier
                .on_route_established(Addr(5), Addr(6), &rrep(Addr(5), 1), None, Time::ZERO);
        assert!(actions.is_empty(), "begin() was never called for Addr(5)");
    }

    #[test]
    fn strikes_survive_interleaved_honest_verification() {
        // The oscillation scenario: the attacker's forged RREP keeps
        // re-capturing the route, but an honest round verifies in between.
        // Without persistent per-suspect strikes the suspect memory would
        // reset every round and no report would ever fire.
        let mut fx = fixture();
        let (bkeys, bcert) = enroll(&mut fx, 66); // attacker
        let (dkeys, dcert) = enroll(&mut fx, 8); // honest destination
        let dest = addr_of(dcert.pseudonym);
        let battacker = addr_of(bcert.pseudonym);

        // Round 1: attacker's route wins, probe, timeout -> restart.
        fx.verifier.begin(dest);
        let bauth = Sealed::seal(RrepBody(rrep(dest, 200)), bcert, None, &bkeys, &mut fx.rng);
        let a = fx.verifier.on_route_established(
            dest,
            battacker,
            &rrep(dest, 200),
            Some(&bauth),
            Time::ZERO,
        );
        assert!(matches!(&a[..], [VerifierAction::SendProbe(_)]));
        let a = fx.verifier.tick(Time::from_secs(2));
        assert_eq!(a, vec![VerifierAction::RestartDiscovery { dest }]);

        // Interleaved honest round: destination itself replies -> Verified,
        // verifier state for `dest` is gone.
        fx.verifier.begin(dest);
        let dauth = Sealed::seal(RrepBody(rrep(dest, 5)), dcert, None, &dkeys, &mut fx.rng);
        let a = fx.verifier.on_route_established(
            dest,
            Addr(3),
            &rrep(dest, 5),
            Some(&dauth),
            Time::from_secs(2),
        );
        assert_eq!(a, vec![VerifierAction::Verified { dest }]);

        // Round 2: the attacker re-captures the route. One more unanswered
        // probe must escalate straight to a report (strike #2), not loop.
        fx.verifier.begin(dest);
        let auth400 = bauth2(&mut fx, bcert, &bkeys, dest);
        let a = fx.verifier.on_route_established(
            dest,
            battacker,
            &rrep(dest, 400),
            Some(&auth400),
            Time::from_secs(3),
        );
        assert!(matches!(&a[..], [VerifierAction::SendProbe(_)]));
        let a = fx.verifier.tick(Time::from_secs(5));
        match &a[..] {
            [VerifierAction::Report(dreq)] => {
                assert_eq!(dreq.suspect, battacker);
                assert_eq!(dreq.reason, SuspicionReason::NoHelloResponse);
            }
            other => panic!("expected escalation to report, got {other:?}"),
        }
        assert!(fx.verifier.is_reported(battacker));
    }

    fn bauth2(
        fx: &mut Fixture,
        cert: Certificate,
        keys: &Keypair,
        dest: Addr,
    ) -> crate::wire::RouteAuth {
        Sealed::seal(RrepBody(rrep(dest, 400)), cert, None, keys, &mut fx.rng)
    }

    #[test]
    fn reported_suspect_routes_are_held() {
        let mut fx = fixture();
        let (bkeys, bcert) = enroll(&mut fx, 66);
        let dest = Addr(999);
        let battacker = addr_of(bcert.pseudonym);
        fx.verifier.begin(dest);

        // Drive to a report via two unanswered probes.
        let auth = Sealed::seal(RrepBody(rrep(dest, 200)), bcert, None, &bkeys, &mut fx.rng);
        let _ = fx.verifier.on_route_established(
            dest,
            battacker,
            &rrep(dest, 200),
            Some(&auth),
            Time::ZERO,
        );
        let _ = fx.verifier.tick(Time::from_secs(2));
        fx.verifier.begin(dest);
        let auth201 = auth2(&mut fx, bcert, &bkeys, dest, 201);
        let _ = fx.verifier.on_route_established(
            dest,
            battacker,
            &rrep(dest, 201),
            Some(&auth201),
            Time::from_secs(2),
        );
        let a = fx.verifier.tick(Time::from_secs(4));
        assert!(matches!(&a[..], [VerifierAction::Report(_)]));

        // Any further route via the reported suspect is neither probed nor
        // verified: held until the verdict.
        fx.verifier.begin(dest);
        let auth300 = auth2(&mut fx, bcert, &bkeys, dest, 300);
        let a = fx.verifier.on_route_established(
            dest,
            battacker,
            &rrep(dest, 300),
            Some(&auth300),
            Time::from_secs(5),
        );
        assert!(a.is_empty(), "reported suspects are held, got {a:?}");
    }

    fn auth2(
        fx: &mut Fixture,
        cert: Certificate,
        keys: &Keypair,
        dest: Addr,
        seq: u32,
    ) -> crate::wire::RouteAuth {
        Sealed::seal(RrepBody(rrep(dest, seq)), cert, None, keys, &mut fx.rng)
    }

    #[test]
    fn different_suspects_have_independent_strikes() {
        let mut fx = fixture();
        let (k1, c1) = enroll(&mut fx, 61);
        let (k2, c2) = enroll(&mut fx, 62);
        let dest = Addr(999);
        let s1 = addr_of(c1.pseudonym);
        let s2 = addr_of(c2.pseudonym);

        // Strike 1 against suspect 1.
        fx.verifier.begin(dest);
        let a1auth = Sealed::seal(RrepBody(rrep(dest, 100)), c1, None, &k1, &mut fx.rng);
        let _ =
            fx.verifier
                .on_route_established(dest, s1, &rrep(dest, 100), Some(&a1auth), Time::ZERO);
        let _ = fx.verifier.tick(Time::from_secs(2));

        // Suspect 2 answers the rediscovery: its FIRST unanswered probe
        // must restart, not report (its own strike count is zero).
        let a2auth = Sealed::seal(RrepBody(rrep(dest, 150)), c2, None, &k2, &mut fx.rng);
        let a = fx.verifier.on_route_established(
            dest,
            s2,
            &rrep(dest, 150),
            Some(&a2auth),
            Time::from_secs(2),
        );
        assert!(matches!(&a[..], [VerifierAction::SendProbe(_)]));
        let a = fx.verifier.tick(Time::from_secs(4));
        assert_eq!(
            a,
            vec![VerifierAction::RestartDiscovery { dest }],
            "suspect 2's first strike must not inherit suspect 1's"
        );
    }

    // ------------------------------------------------------------------
    // VerifyQueue: batch-backed verification must be observationally
    // identical to `Sealed::verify`, error precedence included.
    // ------------------------------------------------------------------

    fn enroll_at(
        fx: &mut Fixture,
        long_term: u64,
        issued: Time,
        lifetime: Duration,
    ) -> (Keypair, Certificate) {
        let keys = Keypair::generate(&mut fx.rng);
        let cert = fx
            .ta
            .enroll(LongTermId(long_term), keys.public(), issued, lifetime, &mut fx.rng);
        (keys, cert)
    }

    /// Every interesting envelope shape: valid, corrupt body signature,
    /// corrupt certificate signature, not-yet-valid, expired, and the
    /// precedence pairs (bad cert + bad window, bad window + bad body).
    fn verdict_zoo(fx: &mut Fixture) -> Vec<Sealed<RrepBody>> {
        let mut zoo = Vec::new();
        let life = Duration::from_secs(600);
        // Valid.
        let (k, c) = enroll_at(fx, 100, Time::ZERO, life);
        zoo.push(Sealed::seal(RrepBody(rrep(Addr(9), 1)), c, None, &k, &mut fx.rng));
        // Corrupt body signature.
        let (k, c) = enroll_at(fx, 101, Time::ZERO, life);
        let mut s = Sealed::seal(RrepBody(rrep(Addr(9), 2)), c, Some(ClusterId(1)), &k, &mut fx.rng);
        s.signature.e ^= 1;
        zoo.push(s);
        // Corrupt certificate signature.
        let (k, c) = enroll_at(fx, 102, Time::ZERO, life);
        let mut s = Sealed::seal(RrepBody(rrep(Addr(9), 3)), c, None, &k, &mut fx.rng);
        s.cert.signature.s ^= 1;
        zoo.push(s);
        // Not yet valid at t = 1 s.
        let (k, c) = enroll_at(fx, 103, Time::from_secs(30), life);
        zoo.push(Sealed::seal(RrepBody(rrep(Addr(9), 4)), c, None, &k, &mut fx.rng));
        // Expired at t = 1 s.
        let (k, c) = enroll_at(fx, 104, Time::ZERO, Duration::from_millis(10));
        zoo.push(Sealed::seal(RrepBody(rrep(Addr(9), 5)), c, None, &k, &mut fx.rng));
        // Bad certificate signature on an expired certificate: the
        // signature error must win.
        let (k, c) = enroll_at(fx, 105, Time::ZERO, Duration::from_millis(10));
        let mut s = Sealed::seal(RrepBody(rrep(Addr(9), 6)), c, None, &k, &mut fx.rng);
        s.cert.signature.e ^= 1;
        zoo.push(s);
        // Expired certificate and a bad body signature: the window error
        // must win.
        let (k, c) = enroll_at(fx, 106, Time::ZERO, Duration::from_millis(10));
        let mut s = Sealed::seal(RrepBody(rrep(Addr(9), 7)), c, None, &k, &mut fx.rng);
        s.signature.s ^= 1;
        zoo.push(s);
        zoo
    }

    /// Clears every process- or thread-global verification cache: the
    /// per-thread certificate cache and the global envelope memo. The
    /// fixture is deterministic, so byte-identical envelopes recur across
    /// tests — without this, memo hits from *other tests* would mask the
    /// code paths a test means to exercise.
    fn clean_caches() {
        blackdp_crypto::cert_cache_clear();
        envelope_memo_clear();
    }

    #[test]
    fn queue_verify_one_matches_scalar() {
        clean_caches();
        let mut fx = fixture();
        let now = Time::from_secs(1);
        let mut queue = VerifyQueue::new();
        for sealed in verdict_zoo(&mut fx) {
            let scalar = sealed.verify(fx.ta.public_key(), now);
            clean_caches(); // no cross-talk via the memo cache
            let batched = queue.verify_one(&sealed, fx.ta.public_key(), now);
            assert_eq!(batched, scalar);
            assert!(queue.is_empty(), "verify_one must reset the queue");
            clean_caches();
        }
    }

    #[test]
    fn queue_flush_matches_scalar_for_a_full_batch() {
        clean_caches();
        let mut fx = fixture();
        let now = Time::from_secs(1);
        let zoo = verdict_zoo(&mut fx);
        // Pad with valid envelopes so the flush crosses the batch's lane
        // threshold and takes the shared-exponentiation path.
        let mut envelopes = zoo;
        for i in 0..16 {
            let (k, c) = enroll_at(&mut fx, 200 + i, Time::ZERO, Duration::from_secs(600));
            envelopes.push(Sealed::seal(
                RrepBody(rrep(Addr(9), 100 + i as u32)),
                c,
                Some(ClusterId(2)),
                &k,
                &mut fx.rng,
            ));
        }
        let scalar: Vec<_> = envelopes
            .iter()
            .map(|s| s.verify(fx.ta.public_key(), now))
            .collect();
        clean_caches();
        let mut queue = VerifyQueue::new();
        for (i, sealed) in envelopes.iter().enumerate() {
            assert_eq!(queue.enqueue(sealed, fx.ta.public_key(), now), i);
        }
        assert_eq!(queue.len(), envelopes.len());
        assert_eq!(queue.flush(), &scalar[..]);
        clean_caches();
    }

    #[test]
    fn queue_flush_memoizes_certificate_checks() {
        clean_caches();
        let mut fx = fixture();
        let now = Time::from_secs(1);
        let (k, c) = enroll_at(&mut fx, 300, Time::ZERO, Duration::from_secs(600));
        let first = Sealed::seal(RrepBody(rrep(Addr(9), 1)), c, None, &k, &mut fx.rng);
        let second = Sealed::seal(RrepBody(rrep(Addr(9), 2)), c, None, &k, &mut fx.rng);
        let mut queue = VerifyQueue::new();
        assert!(queue.verify_one(&first, fx.ta.public_key(), now).is_ok());
        let (_, misses_after_first) = blackdp_crypto::cert_cache_stats();
        assert!(queue.verify_one(&second, fx.ta.public_key(), now).is_ok());
        let (hits, misses) = blackdp_crypto::cert_cache_stats();
        assert_eq!(
            misses, misses_after_first,
            "the flush must have stored the certificate verdict"
        );
        assert!(hits >= 1, "the second envelope must reuse the stored verdict");
        // A cached *negative* verdict must also round-trip through the queue.
        let mut bad = Sealed::seal(RrepBody(rrep(Addr(9), 3)), c, None, &k, &mut fx.rng);
        bad.cert.signature.e ^= 1;
        let verdict = queue.verify_one(&bad, fx.ta.public_key(), now);
        assert_eq!(verdict, Err(AuthError::Cert(CertError::BadSignature)));
        let verdict = queue.verify_one(&bad, fx.ta.public_key(), now);
        assert_eq!(verdict, Err(AuthError::Cert(CertError::BadSignature)));
        clean_caches();
    }

    #[test]
    fn duplicate_envelopes_in_one_batch_alias_to_a_single_proof() {
        clean_caches();
        let mut fx = fixture();
        let now = Time::from_secs(1);
        let (k, c) = enroll_at(&mut fx, 310, Time::ZERO, Duration::from_secs(600));
        // One broadcast beacon, eight receivers: the batch must prove the
        // envelope once and alias the other seven jobs to that verdict.
        let sealed = Sealed::seal(RrepBody(rrep(Addr(9), 1)), c, Some(ClusterId(3)), &k, &mut fx.rng);
        let scalar = sealed.verify(fx.ta.public_key(), now);
        clean_caches();
        let mut queue = VerifyQueue::new();
        for i in 0..8 {
            assert_eq!(queue.enqueue(&sealed, fx.ta.public_key(), now), i);
        }
        for verdict in queue.flush() {
            assert_eq!(*verdict, scalar);
        }
        let (hits, misses) = blackdp_crypto::cert_cache_stats();
        assert_eq!(
            (hits, misses),
            (0, 1),
            "only the first copy may consult the certificate cache"
        );
        clean_caches();
    }

    #[test]
    fn memo_replays_verdicts_across_flushes_without_signature_work() {
        clean_caches();
        let mut fx = fixture();
        let now = Time::from_secs(1);
        let (k, c) = enroll_at(&mut fx, 311, Time::ZERO, Duration::from_secs(600));
        let good = Sealed::seal(RrepBody(rrep(Addr(9), 1)), c, None, &k, &mut fx.rng);
        let mut bad = Sealed::seal(RrepBody(rrep(Addr(9), 2)), c, None, &k, &mut fx.rng);
        bad.signature.s ^= 1;
        let mut queue = VerifyQueue::new();
        assert!(queue.verify_one(&good, fx.ta.public_key(), now).is_ok());
        assert_eq!(
            queue.verify_one(&bad, fx.ta.public_key(), now),
            Err(AuthError::BadSignature)
        );
        // Re-verifying both envelopes must not touch the certificate
        // cache at all: the envelope memo already holds both verdicts,
        // including the *negative* body verdict.
        let stats_before = blackdp_crypto::cert_cache_stats();
        assert!(queue.verify_one(&good, fx.ta.public_key(), now).is_ok());
        assert_eq!(
            queue.verify_one(&bad, fx.ta.public_key(), now),
            Err(AuthError::BadSignature)
        );
        assert_eq!(
            blackdp_crypto::cert_cache_stats(),
            stats_before,
            "memo hits must bypass the certificate cache entirely"
        );
        clean_caches();
    }

    #[test]
    fn memo_never_caches_the_validity_window() {
        clean_caches();
        let mut fx = fixture();
        let (k, c) = enroll_at(&mut fx, 312, Time::ZERO, Duration::from_secs(10));
        let sealed = Sealed::seal(RrepBody(rrep(Addr(9), 1)), c, None, &k, &mut fx.rng);
        let mut queue = VerifyQueue::new();
        // Valid inside the window; the memo stores the signature verdict.
        assert!(queue
            .verify_one(&sealed, fx.ta.public_key(), Time::from_secs(1))
            .is_ok());
        // The same envelope after expiry must fail on the window even
        // though the memoized signature verdict says the math is fine.
        assert_eq!(
            queue.verify_one(&sealed, fx.ta.public_key(), Time::from_secs(11)),
            Err(AuthError::Cert(CertError::Expired)),
            "the validity window must be re-evaluated at the caller's now"
        );
        clean_caches();
    }

    #[test]
    fn boundary_auditor_batches_to_width_and_matches_scalar() {
        clean_caches();
        let mut fx = fixture();
        let now = Time::from_secs(1);
        // Zoo (7 mixed verdicts) + 10 valid envelopes = 17 observations:
        // at width 4 that is 4 full flushes and a 1-wide final drain.
        let mut envelopes = verdict_zoo(&mut fx);
        for i in 0..10 {
            let (k, c) = enroll_at(&mut fx, 400 + i, Time::ZERO, Duration::from_secs(600));
            envelopes.push(Sealed::seal(
                RrepBody(rrep(Addr(9), 200 + i as u32)),
                c,
                None,
                &k,
                &mut fx.rng,
            ));
        }
        let scalar: Vec<_> = envelopes
            .iter()
            .map(|s| s.verify(fx.ta.public_key(), now))
            .collect();
        let expected_failures = scalar.iter().filter(|r| r.is_err()).count() as u64;
        clean_caches();
        let mut auditor = BoundaryAuditor::new(fx.ta.public_key(), 4);
        let mut verdicts = Vec::new();
        for sealed in &envelopes {
            if let Some(batch) = auditor.observe(sealed, now) {
                verdicts.extend_from_slice(batch);
            }
        }
        assert_eq!(auditor.pending(), 1, "17 observations at width 4");
        verdicts.extend_from_slice(auditor.flush());
        assert_eq!(auditor.pending(), 0);
        assert_eq!(verdicts, scalar, "audit verdicts must match Sealed::verify");
        let stats = auditor.stats();
        assert_eq!(stats.enqueued, 17);
        assert_eq!(stats.flushes, 5);
        assert_eq!(stats.max_width, 4);
        assert_eq!(stats.failures, expected_failures);
        // Draining an empty auditor is a no-op.
        assert!(auditor.flush().is_empty());
        assert_eq!(auditor.stats().flushes, 5);
        clean_caches();
    }
}
