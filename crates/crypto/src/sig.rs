//! Schnorr-style digital signatures over the simulation group.
//!
//! Stands in for the "traditional Elliptic Curve Digital Signature
//! Algorithm" of IEEE 1609.2 that the paper assumes (Section IV-A). The
//! scheme is textbook Schnorr in the order-`Q` subgroup of `Z_P*`:
//!
//! * keygen: secret `x ∈ [1, Q)`, public `y = g^x mod P`
//! * sign(m): nonce `k ∈ [1, Q)`, `r = g^k`, `e = H(r ‖ m) mod Q`,
//!   `s = (k + x·e) mod Q`; signature is `(e, s)`
//! * verify: `r' = g^s · y^(Q−e)`, accept iff `H(r' ‖ m) mod Q == e`
//!
//! See [`crate::field`] for the security caveat: parameters are
//! simulation-grade by design.

use rand::RngExt;

use crate::field::{mul_mod, mul_mod_p, mul_mod_q, multi_pow_mod, pow_g, pow_mod, FixedBaseTable, P, Q};
use crate::sha256::{lanes, Digest, Sha256};

/// A Schnorr secret key (a scalar modulo [`Q`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SecretKey(u64);

/// A Schnorr public key (a group element modulo [`P`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PublicKey(u64);

impl PublicKey {
    /// Raw group element, used in canonical byte encodings.
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// Reconstructs a public key from its raw encoding.
    ///
    /// Accepts any residue; verification simply fails for keys that were
    /// never generated honestly.
    pub const fn from_raw(raw: u64) -> Self {
        PublicKey(raw % P)
    }
}

/// A detached signature `(e, s)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Signature {
    /// The challenge scalar `e = H(r ‖ m) mod Q`.
    pub e: u64,
    /// The response scalar `s = (k + x·e) mod Q`.
    pub s: u64,
}

/// A secret/public key pair.
///
/// # Examples
///
/// ```
/// use blackdp_crypto::sig::Keypair;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let keys = Keypair::generate(&mut rng);
/// let sig = keys.sign(b"RREP seq=75", &mut rng);
/// assert!(keys.public().verify(b"RREP seq=75", &sig));
/// assert!(!keys.public().verify(b"RREP seq=200", &sig));
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Keypair {
    secret: SecretKey,
    public: PublicKey,
}

impl Keypair {
    /// Generates a fresh key pair from `rng`.
    pub fn generate<R: rand::Rng + ?Sized>(rng: &mut R) -> Self {
        let x = rng.random_range(1..Q);
        Keypair {
            secret: SecretKey(x),
            public: PublicKey(pow_g(x)),
        }
    }

    /// The public half.
    pub fn public(&self) -> PublicKey {
        self.public
    }

    /// Signs `message` with a random nonce from `rng`.
    pub fn sign<R: rand::Rng + ?Sized>(&self, message: &[u8], rng: &mut R) -> Signature {
        let k = rng.random_range(1..Q);
        let r = pow_g(k);
        let e = challenge(r, message);
        let s = (k + mul_mod(self.secret.0, e, Q)) % Q;
        Signature { e, s }
    }
}

impl PublicKey {
    /// Verifies `sig` over `message`.
    pub fn verify(&self, message: &[u8], sig: &Signature) -> bool {
        if sig.e >= Q || sig.s >= Q {
            return false;
        }
        // r' = g^s * y^(Q - e): cancels the secret key iff s = k + x*e.
        // The g^s half is fixed-base (precomputed table); y varies per
        // signer, so y^(Q-e) stays on the generic ladder.
        let gs = pow_g(sig.s);
        let y_neg_e = pow_mod(self.0, Q - (sig.e % Q), P);
        let r = mul_mod(gs, y_neg_e, P);
        challenge(r, message) == sig.e
    }
}

/// The Fiat–Shamir challenge `H(r ‖ m) mod Q`.
fn challenge(r: u64, message: &[u8]) -> u64 {
    let mut h = Sha256::new();
    h.update(&r.to_be_bytes());
    h.update(message);
    h.finalize().to_u64() % Q
}

/// The verdict of [`VerifyBatch::verify_all`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BatchOutcome {
    /// Every queued signature verified.
    AllValid,
    /// At least one signature failed; the offenders' queue indices, in
    /// ascending order, found by the bisecting fallback.
    Invalid(Vec<usize>),
}

impl BatchOutcome {
    /// True when no signature failed.
    pub fn all_valid(&self) -> bool {
        matches!(self, BatchOutcome::AllValid)
    }

    /// Whether the item pushed at `index` verified.
    pub fn is_valid(&self, index: usize) -> bool {
        match self {
            BatchOutcome::AllValid => true,
            BatchOutcome::Invalid(bad) => !bad.contains(&index),
        }
    }
}

/// Span of one queued item inside [`VerifyBatch`]'s arena.
#[derive(Debug, Clone, Copy)]
struct BatchItem {
    msg_start: u32,
    msg_len: u32,
    sig: Signature,
    key: PublicKey,
}

/// Small batches gain nothing from lane machinery (dummy hash lanes cost
/// as much as real ones), so they take the scalar path.
const LANE_THRESHOLD: usize = 4;

/// An accumulator that verifies queued `(message, signature, key)`
/// triples together.
///
/// This scheme's `(e, s)` signature form forecloses the classic
/// random-linear-combination trick that *replaces* the per-signature
/// exponentiations with one multi-exponentiation: every commitment
/// `rᵢ = g^sᵢ·yᵢ^(Q−eᵢ)` must be recomputed before it can be hashed, so
/// no exponentiation can be skipped. The batch instead gets its speedup
/// from *how* those per-item computations run — `g^sᵢ` on the fixed-base
/// table, the variable-base halves on [`multi_pow_mod`]'s interleaved
/// compile-time-modulus ladders, and all challenge hashes through the
/// multi-lane SHA-256 — and keeps a random-linear-combination *acceptance
/// fold*: the batch accepts iff `Σ zᵢ·(H(rᵢ‖mᵢ) − eᵢ) ≡ 0 (mod Q)`, one
/// cheap aggregate check whose failure triggers a bisecting fallback over
/// the cached per-item terms to isolate the offenders.
///
/// The coefficients `zᵢ` are drawn from an FNV-1a stream over the batch
/// contents (messages, signatures, keys, commitments) — a pure function
/// of the inputs, never the caller's RNG — so batching cannot perturb a
/// deterministic simulation. A forged batch survives the fold only if
/// its weighted defects cancel modulo the 31-bit `Q` (probability
/// `2⁻³¹` per batch, adversarially groundable only by predicting the
/// FNV stream; acceptable at this crate's simulation-grade parameters,
/// and documented in DESIGN §11).
///
/// Batches below `LANE_THRESHOLD` items run the scalar
/// [`PublicKey::verify`] per item, making small flushes exactly the
/// inline code they replace. All scratch buffers are retained across
/// [`VerifyBatch::verify_all`] calls, so steady-state reuse is
/// allocation-free once warm.
///
/// # Examples
///
/// ```
/// use blackdp_crypto::sig::{Keypair, VerifyBatch};
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// let keys = Keypair::generate(&mut rng);
/// let mut batch = VerifyBatch::new();
/// for i in 0..16u8 {
///     let msg = [b'm', i];
///     let sig = keys.sign(&msg, &mut rng);
///     batch.push(&msg, sig, keys.public());
/// }
/// assert!(batch.verify_all().all_valid());
/// ```
#[derive(Debug, Default)]
pub struct VerifyBatch {
    arena: Vec<u8>,
    items: Vec<BatchItem>,
    // Scratch, retained across flushes.
    bases: Vec<u64>,
    exps: Vec<u64>,
    powers: Vec<u64>,
    chal_arena: Vec<u8>,
    spans: Vec<(u32, u32)>,
    digests: Vec<Digest>,
    terms: Vec<u64>,
}

impl VerifyBatch {
    /// Creates an empty batch.
    pub fn new() -> Self {
        VerifyBatch::default()
    }

    /// Queues one `(message, signature, key)` triple. The message bytes
    /// are copied into the batch's arena.
    pub fn push(&mut self, message: &[u8], sig: Signature, key: PublicKey) {
        let msg_start = u32::try_from(self.arena.len()).expect("batch arena < 4 GiB");
        let msg_len = u32::try_from(message.len()).expect("message < 4 GiB");
        self.arena.extend_from_slice(message);
        self.items.push(BatchItem {
            msg_start,
            msg_len,
            sig,
            key,
        });
    }

    /// Number of queued triples.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Drops any queued triples, retaining all capacity.
    pub fn clear(&mut self) {
        self.arena.clear();
        self.items.clear();
    }

    fn message(&self, item: &BatchItem) -> &[u8] {
        &self.arena[item.msg_start as usize..(item.msg_start + item.msg_len) as usize]
    }

    /// Verifies every queued triple and resets the batch for reuse.
    ///
    /// Agrees with running [`PublicKey::verify`] on each triple
    /// individually (up to the documented `2⁻³¹` aggregate-fold
    /// collision, which the differential proptests pin down).
    pub fn verify_all(&mut self) -> BatchOutcome {
        let outcome = if self.items.len() < LANE_THRESHOLD {
            let mut bad = Vec::new();
            for (i, item) in self.items.iter().enumerate() {
                if !item.key.verify(self.message(item), &item.sig) {
                    bad.push(i);
                }
            }
            if bad.is_empty() {
                BatchOutcome::AllValid
            } else {
                BatchOutcome::Invalid(bad)
            }
        } else {
            self.verify_lanes()
        };
        self.clear();
        outcome
    }

    fn verify_lanes(&mut self) -> BatchOutcome {
        let n = self.items.len();
        // Scalars outside [0, Q) fail unconditionally; exclude them from
        // the shared exponentiation work.
        let mut bad: Vec<usize> = Vec::new();
        self.bases.clear();
        self.exps.clear();
        for item in &self.items {
            let in_range = item.sig.e < Q && item.sig.s < Q;
            // Out-of-range lanes exponentiate by 0 (cost: table lookups
            // only) purely to keep indices aligned.
            self.bases.push(item.key.0);
            self.exps
                .push(if in_range { Q - item.sig.e } else { 0 });
        }
        // Shared-signer fast path: an RREP storm or a Hello-probe burst
        // re-verifies one key many times, so a throwaway fixed-base
        // table for that key (built once, then at most 8 window products
        // per exponent, no squarings) beats the generic interleaved
        // ladders. Mixed-signer batches take the lane ladders.
        if self.bases.iter().all(|&b| b == self.bases[0]) {
            let table = FixedBaseTable::new(self.bases[0]);
            table.pow_many(&self.exps, &mut self.powers);
        } else {
            multi_pow_mod(&self.bases, &self.exps, &mut self.powers);
        }

        // Commitments r_i = g^{s_i} · y_i^{Q-e_i}, then all challenge
        // preimages (r ‖ m) through the lane hasher.
        self.chal_arena.clear();
        self.spans.clear();
        for (i, item) in self.items.iter().enumerate() {
            let r = if item.sig.e < Q && item.sig.s < Q {
                mul_mod_p(pow_g(item.sig.s), self.powers[i])
            } else {
                bad.push(i);
                0
            };
            let start = self.chal_arena.len() as u32;
            let msg = item.msg_start as usize..(item.msg_start + item.msg_len) as usize;
            self.chal_arena.extend_from_slice(&r.to_be_bytes());
            self.chal_arena.extend_from_slice(&self.arena[msg]);
            self.spans.push((start, self.chal_arena.len() as u32));
        }
        lanes::sha256_spans(&self.chal_arena, &self.spans, &mut self.digests);

        // Aggregate fold: Σ z_i · (challenge_i − e_i) mod Q, with the
        // coefficients z_i drawn deterministically from the batch itself.
        self.terms.clear();
        let mut fold = 0u64;
        for (i, item) in self.items.iter().enumerate() {
            if item.sig.e >= Q || item.sig.s >= Q {
                self.terms.push(0); // already marked invalid
                continue;
            }
            let c = self.digests[i].to_u64() % Q;
            let defect = (c + Q - item.sig.e) % Q;
            let z = self.coefficient(i);
            let term = mul_mod_q(z, defect);
            self.terms.push(term);
            fold = (fold + term) % Q;
        }
        if fold == 0 && bad.is_empty() {
            return BatchOutcome::AllValid;
        }
        // Bisecting fallback: walk down sub-ranges whose partial fold is
        // nonzero until single offenders are isolated.
        if fold != 0 {
            self.bisect(0, n, &mut bad);
            bad.sort_unstable();
            bad.dedup();
        }
        BatchOutcome::Invalid(bad)
    }

    /// The deterministic fold coefficient for item `i`: an FNV-style
    /// word stream (xor-multiply over 8-byte words — same mixing as
    /// FNV-1a but word-at-a-time, so the serial multiply chain is ~8x
    /// shorter) over the item's full content and position, mapped into
    /// `[1, Q)`.
    fn coefficient(&self, i: usize) -> u64 {
        let item = &self.items[i];
        let mut h = 0xCBF2_9CE4_8422_2325u64;
        let mut eat = |word: u64| {
            h ^= word;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        };
        eat(i as u64);
        eat(item.sig.e);
        eat(item.sig.s);
        eat(item.key.0);
        let msg = self.message(item);
        let mut words = msg.chunks_exact(8);
        for wbytes in &mut words {
            eat(u64::from_le_bytes(wbytes.try_into().expect("8B word")));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            eat(u64::from_le_bytes(tail));
        }
        eat(msg.len() as u64);
        h % (Q - 1) + 1
    }

    /// Recursively isolates offenders in `[lo, hi)` whose term-fold is
    /// nonzero. A sub-range folding to zero is pruned (same `2⁻³¹`
    /// cancellation caveat as the top-level accept).
    fn bisect(&self, lo: usize, hi: usize, bad: &mut Vec<usize>) {
        let fold = self.terms[lo..hi]
            .iter()
            .fold(0u64, |acc, &t| (acc + t) % Q);
        if fold == 0 {
            return;
        }
        if hi - lo == 1 {
            bad.push(lo);
            return;
        }
        let mid = lo + (hi - lo) / 2;
        self.bisect(lo, mid, bad);
        self.bisect(mid, hi, bad);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    #[test]
    fn sign_verify_round_trip() {
        let mut rng = rng();
        let keys = Keypair::generate(&mut rng);
        for msg in [&b"a"[..], b"", b"a longer message with route data"] {
            let sig = keys.sign(msg, &mut rng);
            assert!(keys.public().verify(msg, &sig));
        }
    }

    #[test]
    fn tampered_message_fails() {
        let mut rng = rng();
        let keys = Keypair::generate(&mut rng);
        let sig = keys.sign(b"seq=75 hops=3", &mut rng);
        assert!(!keys.public().verify(b"seq=200 hops=3", &sig));
        assert!(!keys.public().verify(b"seq=75 hops=4", &sig));
    }

    #[test]
    fn wrong_key_fails() {
        let mut rng = rng();
        let alice = Keypair::generate(&mut rng);
        let mallory = Keypair::generate(&mut rng);
        let sig = alice.sign(b"hello", &mut rng);
        assert!(!mallory.public().verify(b"hello", &sig));
    }

    #[test]
    fn tampered_signature_fails() {
        let mut rng = rng();
        let keys = Keypair::generate(&mut rng);
        let sig = keys.sign(b"payload", &mut rng);
        let bad_e = Signature {
            e: (sig.e + 1) % Q,
            s: sig.s,
        };
        let bad_s = Signature {
            e: sig.e,
            s: (sig.s + 1) % Q,
        };
        assert!(!keys.public().verify(b"payload", &bad_e));
        assert!(!keys.public().verify(b"payload", &bad_s));
    }

    #[test]
    fn out_of_range_scalars_rejected() {
        let mut rng = rng();
        let keys = Keypair::generate(&mut rng);
        let sig = keys.sign(b"m", &mut rng);
        assert!(!keys.public().verify(b"m", &Signature { e: Q, s: sig.s }));
        assert!(!keys.public().verify(b"m", &Signature { e: sig.e, s: Q }));
    }

    #[test]
    fn signatures_are_randomized() {
        let mut rng = rng();
        let keys = Keypair::generate(&mut rng);
        let s1 = keys.sign(b"m", &mut rng);
        let s2 = keys.sign(b"m", &mut rng);
        assert_ne!(s1, s2, "fresh nonces must differ");
        assert!(keys.public().verify(b"m", &s1));
        assert!(keys.public().verify(b"m", &s2));
    }

    #[test]
    fn batch_accepts_all_valid() {
        let mut rng = rng();
        for n in [0usize, 1, 2, 3, 4, 8, 16, 33] {
            let mut batch = VerifyBatch::new();
            for i in 0..n {
                let keys = Keypair::generate(&mut rng);
                let msg = format!("packet {i} of {n}");
                let sig = keys.sign(msg.as_bytes(), &mut rng);
                batch.push(msg.as_bytes(), sig, keys.public());
            }
            assert_eq!(batch.len(), n);
            assert!(batch.verify_all().all_valid(), "n = {n}");
            assert!(batch.is_empty(), "verify_all resets the batch");
        }
    }

    #[test]
    fn batch_isolates_single_offender() {
        let mut rng = rng();
        for n in [1usize, 4, 16, 31] {
            for corrupt in [0, n / 2, n - 1] {
                let mut batch = VerifyBatch::new();
                for i in 0..n {
                    let keys = Keypair::generate(&mut rng);
                    let msg = [b'p', i as u8];
                    let mut sig = keys.sign(&msg, &mut rng);
                    if i == corrupt {
                        sig.s = (sig.s + 1) % Q;
                    }
                    batch.push(&msg, sig, keys.public());
                }
                let outcome = batch.verify_all();
                assert_eq!(
                    outcome,
                    BatchOutcome::Invalid(vec![corrupt]),
                    "n = {n}, corrupt = {corrupt}"
                );
                assert!(!outcome.is_valid(corrupt));
                assert!(outcome.is_valid((corrupt + 1) % n) || n == 1);
            }
        }
    }

    #[test]
    fn batch_isolates_multiple_offenders() {
        let mut rng = rng();
        let n = 16;
        let corrupt = [2usize, 7, 13];
        let mut batch = VerifyBatch::new();
        for i in 0..n {
            let keys = Keypair::generate(&mut rng);
            let msg = [b'q', i as u8];
            let mut sig = keys.sign(&msg, &mut rng);
            if corrupt.contains(&i) {
                sig.e = (sig.e + 3) % Q;
            }
            batch.push(&msg, sig, keys.public());
        }
        assert_eq!(
            batch.verify_all(),
            BatchOutcome::Invalid(corrupt.to_vec())
        );
    }

    #[test]
    fn batch_rejects_out_of_range_scalars() {
        let mut rng = rng();
        let mut batch = VerifyBatch::new();
        for i in 0..8u8 {
            let keys = Keypair::generate(&mut rng);
            let msg = [b'r', i];
            let mut sig = keys.sign(&msg, &mut rng);
            if i == 3 {
                sig.e = Q; // out of range, must fail without arithmetic
            }
            if i == 6 {
                sig.s = Q + 17;
            }
            batch.push(&msg, sig, keys.public());
        }
        assert_eq!(batch.verify_all(), BatchOutcome::Invalid(vec![3, 6]));
    }

    #[test]
    fn batch_matches_individual_verifies() {
        let mut rng = rng();
        // A mixed bag: valid, tampered message, wrong key, tampered sig.
        let mut batch = VerifyBatch::new();
        let mut expect = Vec::new();
        for i in 0..24u8 {
            let keys = Keypair::generate(&mut rng);
            let other = Keypair::generate(&mut rng);
            let msg = [b's', i, i.wrapping_mul(7)];
            let mut sig = keys.sign(&msg, &mut rng);
            let key = match i % 4 {
                1 => other.public(),
                _ => keys.public(),
            };
            if i % 4 == 2 {
                sig.s = (sig.s + i as u64) % Q;
            }
            expect.push(key.verify(&msg, &sig));
            batch.push(&msg, sig, key);
        }
        let outcome = batch.verify_all();
        for (i, &e) in expect.iter().enumerate() {
            assert_eq!(outcome.is_valid(i), e, "item {i}");
        }
    }

    #[test]
    fn batch_reuse_is_clean() {
        let mut rng = rng();
        let keys = Keypair::generate(&mut rng);
        let mut batch = VerifyBatch::new();
        let sig = keys.sign(b"good", &mut rng);
        batch.push(b"good", sig, keys.public());
        let bad = Signature {
            e: (sig.e + 1) % Q,
            s: sig.s,
        };
        batch.push(b"good", bad, keys.public());
        assert_eq!(batch.verify_all(), BatchOutcome::Invalid(vec![1]));
        // Second round on the same accumulator: no state leaks through.
        for i in 0..16u8 {
            let msg = [b'z', i];
            let sig = keys.sign(&msg, &mut rng);
            batch.push(&msg, sig, keys.public());
        }
        assert!(batch.verify_all().all_valid());
    }

    #[test]
    fn public_key_raw_round_trip() {
        let mut rng = rng();
        let keys = Keypair::generate(&mut rng);
        let pk = PublicKey::from_raw(keys.public().raw());
        assert_eq!(pk, keys.public());
    }
}
