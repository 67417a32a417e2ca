//! Modular arithmetic over the simulation's Schnorr group.
//!
//! The group parameters were generated once (see `DESIGN.md`): a 62-bit
//! prime modulus `P = K·Q + 1` with prime order `Q = 2³¹ − 1` and a
//! generator `G` of the order-`Q` subgroup. All arithmetic fits in `u128`
//! intermediates.
//!
//! **This is simulation-grade cryptography.** A 31-bit group order carries
//! no real-world security; it faithfully reproduces the *protocol shape*
//! (keys, signatures, certificates) of the ECDSA/IEEE 1609.2 machinery the
//! paper assumes, which is what the detection logic depends on.

/// The 62-bit prime modulus `P = K·Q + 1`.
pub const P: u64 = 2_305_843_201_413_480_359;
/// The prime order of the signing subgroup, `Q = 2³¹ − 1`.
pub const Q: u64 = 2_147_483_647;
/// Cofactor `K` with `P = K·Q + 1`.
pub const K: u64 = 1_073_741_914;
/// Generator of the order-`Q` subgroup of `Z_P*` (computed as `2^K mod P`).
pub const G: u64 = 157_608_736_213_706_629;

/// Modular multiplication `a·b mod m` using a 128-bit intermediate.
pub fn mul_mod(a: u64, b: u64, m: u64) -> u64 {
    ((a as u128 * b as u128) % m as u128) as u64
}

// --- Montgomery arithmetic modulo P -------------------------------------
//
// The generic `mul_mod` pays for a 128-bit division on every product; a
// constant modulus does not help, because LLVM lowers `u128 % const` to a
// `__umodti3` library call rather than strength-reducing it. Montgomery
// REDC replaces the division with three multiplications: with `R = 2⁶⁴`,
// `redc(t) = (t + (t·P' mod R)·P) / R` computes `t·R⁻¹ mod P` exactly,
// so products of Montgomery-form operands (`x·R mod P`) stay in form.
// Every routine below converts in and out at the edges and is
// bit-identical to its division-based counterpart.

/// `-P⁻¹ mod 2⁶⁴`, by Newton's iteration (each step doubles the valid
/// low bits; six steps cover 64 from the 5-bit seed `P mod 32`).
const MONT_NP: u64 = {
    let mut inv = 1u64;
    let mut i = 0;
    while i < 6 {
        inv = inv.wrapping_mul(2u64.wrapping_sub(P.wrapping_mul(inv)));
        i += 1;
    }
    inv.wrapping_neg()
};

/// `R² mod P`, the to-Montgomery conversion factor.
const MONT_R2: u64 = {
    let r = (1u128 << 64) % P as u128;
    ((r * r) % P as u128) as u64
};

/// `1` in Montgomery form (`R mod P`).
const MONT_ONE: u64 = ((1u128 << 64) % P as u128) as u64;

/// Montgomery product: for `a, b < P`, returns `a·b·R⁻¹ mod P`.
#[inline]
fn mont_mul(a: u64, b: u64) -> u64 {
    let t = a as u128 * b as u128;
    let m = (t as u64).wrapping_mul(MONT_NP);
    // t + m·P < P² + 2⁶⁴·P < 2¹²⁷: no overflow, and the sum's low 64
    // bits are zero by construction of m.
    let u = ((t + m as u128 * P as u128) >> 64) as u64;
    if u >= P {
        u - P
    } else {
        u
    }
}

/// Converts `x` into Montgomery form (`x·R mod P`).
#[inline]
fn to_mont(x: u64) -> u64 {
    mont_mul(x, MONT_R2)
}

/// Converts a Montgomery-form value back to a plain residue.
#[inline]
fn from_mont(x: u64) -> u64 {
    mont_mul(x, 1)
}

/// Modular multiplication `a·b mod P` via Montgomery REDC — bit-identical
/// to `mul_mod(a, b, P)` and several times faster (no 128-bit division).
#[inline]
pub fn mul_mod_p(a: u64, b: u64) -> u64 {
    mont_mul(to_mont(a % P), b % P)
}

/// Modular multiplication `a·b mod Q` exploiting the Mersenne shape of
/// `Q = 2³¹ − 1`: reduction is two shift-and-add folds (`2³¹ ≡ 1`), no
/// division at all. Bit-identical to `mul_mod(a % Q, b % Q, Q)`.
#[inline]
pub fn mul_mod_q(a: u64, b: u64) -> u64 {
    let t = (a % Q) * (b % Q); // < 2⁶², fits u64
    let folded = (t & Q) + (t >> 31); // < 2³²
    let folded = (folded & Q) + (folded >> 31); // ≤ Q + 1
    if folded >= Q {
        folded - Q
    } else {
        folded
    }
}

/// Modular exponentiation `base^exp mod m` by square-and-multiply.
///
/// # Panics
///
/// Panics if `m` is zero.
pub fn pow_mod(mut base: u64, mut exp: u64, m: u64) -> u64 {
    assert!(m != 0, "modulus must be nonzero");
    if m == 1 {
        return 0;
    }
    let mut acc: u64 = 1;
    base %= m;
    while exp > 0 {
        if exp & 1 == 1 {
            acc = mul_mod(acc, base, m);
        }
        base = mul_mod(base, base, m);
        exp >>= 1;
    }
    acc
}

/// Number of 4-bit windows needed to cover every exponent below `2³²`
/// (signing scalars are all below `Q < 2³¹`).
const WINDOWS: usize = 8;

/// Fixed-base precomputation table: `table[w][d] = base^(d · 16^w) mod P`.
///
/// With the table, `base^e` for a 32-bit exponent costs at most 7 modular
/// multiplications (one per nonzero window) instead of the ~31 squarings
/// plus ~15 multiplications of generic square-and-multiply — the classic
/// fixed-base windowing trade. The process-wide [`G`] table serves every
/// keygen, signature, and the `g^s` half of every verification; batch
/// verification builds throwaway tables for repeated signer keys (an RREP
/// storm or Hello burst re-verifies one signer many times), amortized by
/// [`FixedBaseTable::pow_many`].
pub struct FixedBaseTable {
    table: [[u64; 16]; WINDOWS],
}

impl FixedBaseTable {
    /// Builds the window table for `base`. Entries are stored in
    /// Montgomery form so the window products run on `mont_mul`; only
    /// the final accumulator is converted back.
    pub fn new(base: u64) -> Self {
        let mut table = [[MONT_ONE; 16]; WINDOWS];
        // `b` walks base^(16^w) (in Montgomery form) as w advances.
        let mut b = to_mont(base % P);
        for row in table.iter_mut() {
            let mut acc = MONT_ONE;
            for entry in row.iter_mut() {
                *entry = acc;
                acc = mont_mul(acc, b);
            }
            for _ in 0..4 {
                b = mont_mul(b, b);
            }
        }
        FixedBaseTable { table }
    }

    /// `base^exp mod P` for `exp < 2³²`: at most one table multiply per
    /// nonzero 4-bit window.
    pub fn pow(&self, mut exp: u64) -> u64 {
        debug_assert!(exp < 1 << (4 * WINDOWS));
        let mut acc = MONT_ONE;
        let mut w = 0;
        while exp > 0 {
            let digit = (exp & 0xF) as usize;
            if digit != 0 {
                acc = mont_mul(acc, self.table[w][digit]);
            }
            exp >>= 4;
            w += 1;
        }
        from_mont(acc)
    }

    /// Shared-base batch exponentiation: `out[i] = base^exps[i] mod P`.
    ///
    /// Amortizes the table across the whole batch — each exponent costs
    /// at most `WINDOWS` table multiplies (no squarings at all), and
    /// four lookup chains run interleaved for instruction-level
    /// parallelism. Exponents must be below `2³²` (callers pre-screen);
    /// larger ones fall back to the generic ladder. `out` is cleared and
    /// refilled, retaining capacity.
    pub fn pow_many(&self, exps: &[u64], out: &mut Vec<u64>) {
        out.clear();
        out.resize(exps.len(), 0);
        let mut i = 0;
        while i + EXP_LANES <= exps.len() {
            let [e0, e1, e2, e3]: [u64; EXP_LANES] =
                exps[i..i + EXP_LANES].try_into().expect("lane slice");
            if e0 | e1 | e2 | e3 >= 1 << (4 * WINDOWS) {
                break;
            }
            let (mut a0, mut a1, mut a2, mut a3) = (MONT_ONE, MONT_ONE, MONT_ONE, MONT_ONE);
            for (w, row) in self.table.iter().enumerate() {
                // Branchless: a zero digit multiplies by row[0] = 1·R.
                a0 = mont_mul(a0, row[((e0 >> (4 * w)) & 0xF) as usize]);
                a1 = mont_mul(a1, row[((e1 >> (4 * w)) & 0xF) as usize]);
                a2 = mont_mul(a2, row[((e2 >> (4 * w)) & 0xF) as usize]);
                a3 = mont_mul(a3, row[((e3 >> (4 * w)) & 0xF) as usize]);
            }
            out[i] = from_mont(a0);
            out[i + 1] = from_mont(a1);
            out[i + 2] = from_mont(a2);
            out[i + 3] = from_mont(a3);
            i += EXP_LANES;
        }
        for j in i..exps.len() {
            out[j] = if exps[j] < 1 << (4 * WINDOWS) {
                self.pow(exps[j])
            } else {
                let base = from_mont(self.table[0][1]);
                pow_mod(base, exps[j], P)
            };
        }
    }
}

/// The lazily built process-wide table; `OnceLock` keeps initialization
/// race-free when scenario sweeps verify from several worker threads.
static G_TABLE: std::sync::OnceLock<FixedBaseTable> = std::sync::OnceLock::new();

/// Fixed-base exponentiation `G^exp mod P` via the precomputation table.
///
/// Bit-identical to `pow_mod(G, exp, P)` for every exponent; exponents at
/// or above `2³²` (never produced by the signing code, whose scalars are
/// reduced modulo [`Q`]) fall back to the generic routine.
pub fn pow_g(exp: u64) -> u64 {
    if exp >= 1 << (4 * WINDOWS) {
        return pow_mod(G, exp, P);
    }
    G_TABLE.get_or_init(|| FixedBaseTable::new(G)).pow(exp)
}

/// Lane width of [`multi_pow_mod`]'s interleaved ladders. Four ladders in
/// flight are enough to hide the `u128` multiply latency on one core; the
/// work itself has no SIMD form (128-bit products), so the win is
/// instruction-level parallelism on top of the division-free Montgomery
/// reduction.
pub const EXP_LANES: usize = 4;

/// Batch exponentiation `out[i] = bases[i]^exps[i] mod P`.
///
/// Runs [`EXP_LANES`] branchless 4-bit fixed-window ladders in lockstep:
/// each lane squares and multiplies at the same window position, so the
/// serially dependent reduction chains of the lanes overlap instead of
/// stalling one after another. The whole ladder runs in the Montgomery
/// domain — conversion happens once per base at the table build and once
/// per result at the end — so every step is a `mont_mul` instead of a
/// 128-bit division. Bit-identical to `pow_mod(base, exp, P)` for every
/// input; exponents at or above `2³²` (never produced by the signing
/// code) and the sub-lane remainder fall back to the generic ladder.
/// `out` is cleared and refilled, retaining its capacity so a
/// caller-held buffer makes steady-state batches allocation-free.
pub fn multi_pow_mod(bases: &[u64], exps: &[u64], out: &mut Vec<u64>) {
    assert_eq!(bases.len(), exps.len(), "one exponent per base");
    out.clear();
    out.resize(bases.len(), 0);
    let mut i = 0;
    while i + EXP_LANES <= bases.len() {
        let lane_exps: [u64; EXP_LANES] = exps[i..i + EXP_LANES].try_into().expect("lane slice");
        if lane_exps.iter().any(|&e| e >= 1 << (4 * WINDOWS)) {
            break; // oversized exponent: finish on the generic ladder
        }
        // Per-lane power table in Montgomery form:
        // table[d][l] = bases[i+l]^d · R mod P.
        //
        // Lane state lives in named scalars, not an array: the 128-bit
        // Montgomery products have no vector form, and keeping the
        // accumulators as distinct SSA values stops the SLP vectorizer
        // from packing them into XMM registers (cross-domain `vmovq`
        // shuffles that serialize the ladder on AVX targets). The win
        // here is instruction-level parallelism across four independent
        // multiply chains.
        let mut table = [[MONT_ONE; EXP_LANES]; 16];
        let b0 = to_mont(bases[i] % P);
        let b1 = to_mont(bases[i + 1] % P);
        let b2 = to_mont(bases[i + 2] % P);
        let b3 = to_mont(bases[i + 3] % P);
        table[1] = [b0, b1, b2, b3];
        for d in 2..16 {
            table[d] = [
                mont_mul(table[d - 1][0], b0),
                mont_mul(table[d - 1][1], b1),
                mont_mul(table[d - 1][2], b2),
                mont_mul(table[d - 1][3], b3),
            ];
        }
        let [e0, e1, e2, e3] = lane_exps;
        let (mut a0, mut a1, mut a2, mut a3) = (MONT_ONE, MONT_ONE, MONT_ONE, MONT_ONE);
        for w in (0..WINDOWS).rev() {
            if w != WINDOWS - 1 {
                for _ in 0..4 {
                    a0 = mont_mul(a0, a0);
                    a1 = mont_mul(a1, a1);
                    a2 = mont_mul(a2, a2);
                    a3 = mont_mul(a3, a3);
                }
            }
            // Branchless: a zero digit multiplies by table[0] = 1·R.
            a0 = mont_mul(a0, table[((e0 >> (4 * w)) & 0xF) as usize][0]);
            a1 = mont_mul(a1, table[((e1 >> (4 * w)) & 0xF) as usize][1]);
            a2 = mont_mul(a2, table[((e2 >> (4 * w)) & 0xF) as usize][2]);
            a3 = mont_mul(a3, table[((e3 >> (4 * w)) & 0xF) as usize][3]);
        }
        out[i] = from_mont(a0);
        out[i + 1] = from_mont(a1);
        out[i + 2] = from_mont(a2);
        out[i + 3] = from_mont(a3);
        i += EXP_LANES;
    }
    for j in i..bases.len() {
        out[j] = pow_mod(bases[j], exps[j], P);
    }
}

/// Deterministic Miller–Rabin primality test, exact for all `u64`.
///
/// Uses the known-sufficient witness set for 64-bit integers.
pub fn is_prime_u64(n: u64) -> bool {
    if n < 2 {
        return false;
    }
    for &p in &[2u64, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37] {
        if n.is_multiple_of(p) {
            return n == p;
        }
    }
    let mut d = n - 1;
    let mut r = 0u32;
    while d.is_multiple_of(2) {
        d /= 2;
        r += 1;
    }
    'witness: for &a in &[2u64, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37] {
        let mut x = pow_mod(a, d, n);
        if x == 1 || x == n - 1 {
            continue;
        }
        for _ in 0..r - 1 {
            x = mul_mod(x, x, n);
            if x == n - 1 {
                continue 'witness;
            }
        }
        return false;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn group_parameters_are_consistent() {
        assert!(is_prime_u64(P), "P must be prime");
        assert!(is_prime_u64(Q), "Q must be prime");
        assert_eq!(K as u128 * Q as u128 + 1, P as u128, "P = K*Q + 1");
        assert_eq!(pow_mod(G, Q, P), 1, "G must have order dividing Q");
        assert_ne!(G, 1, "G must not be the identity");
        // Q prime and G != 1 with G^Q = 1 implies ord(G) = Q exactly.
    }

    #[test]
    fn pow_mod_small_cases() {
        assert_eq!(pow_mod(2, 10, 1_000_000), 1024);
        assert_eq!(pow_mod(5, 0, 13), 1);
        assert_eq!(pow_mod(7, 1, 13), 7);
        assert_eq!(pow_mod(0, 5, 13), 0);
        assert_eq!(pow_mod(10, 100, 1), 0);
    }

    #[test]
    fn mul_mod_handles_large_operands() {
        let a = P - 1;
        let b = P - 2;
        // (P-1)(P-2) mod P = 2 mod P.
        assert_eq!(mul_mod(a, b, P), 2);
    }

    #[test]
    fn pow_g_matches_pow_mod() {
        for exp in [0u64, 1, 2, 15, 16, 17, 255, 256, Q - 1, Q, Q + 1] {
            assert_eq!(pow_g(exp), pow_mod(G, exp, P), "exp = {exp}");
        }
        // A spread of scalars across the full signing range.
        let mut x = 0x1234_5678u64;
        for _ in 0..200 {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            let exp = x % Q;
            assert_eq!(pow_g(exp), pow_mod(G, exp, P), "exp = {exp}");
        }
        // Above the table's 32-bit window coverage: the fallback path.
        for exp in [1u64 << 32, (1 << 32) + 12345, u64::MAX] {
            assert_eq!(pow_g(exp), pow_mod(G, exp, P), "exp = {exp}");
        }
    }

    #[test]
    fn mul_mod_p_matches_generic() {
        let mut x = 0x9E37_79B9u64;
        for _ in 0..500 {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            let a = x % P;
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            let b = x % P;
            assert_eq!(mul_mod_p(a, b), mul_mod(a, b, P));
        }
        assert_eq!(mul_mod_p(P - 1, P - 2), 2);
        assert_eq!(mul_mod_p(0, 123), 0);
    }

    #[test]
    fn multi_pow_mod_matches_pow_mod() {
        let mut bases = Vec::new();
        let mut exps = Vec::new();
        let mut x = 0xDEAD_BEEFu64;
        for _ in 0..23 {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            bases.push(x % P);
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            exps.push(x % Q);
        }
        // Edge exponents and bases, including the generic-ladder fallback.
        bases.extend_from_slice(&[G, 0, 1, P - 1, G]);
        exps.extend_from_slice(&[0, 5, Q, 2, u64::MAX]);
        let mut out = Vec::new();
        multi_pow_mod(&bases, &exps, &mut out);
        assert_eq!(out.len(), bases.len());
        for ((&b, &e), &got) in bases.iter().zip(&exps).zip(&out) {
            assert_eq!(got, pow_mod(b, e, P), "base {b} exp {e}");
        }
        // Reused buffer: same answers, capacity retained.
        let cap = out.capacity();
        multi_pow_mod(&bases[..8], &exps[..8], &mut out);
        assert_eq!(out.len(), 8);
        assert_eq!(out.capacity(), cap);
        for ((&b, &e), &got) in bases[..8].iter().zip(&exps[..8]).zip(&out) {
            assert_eq!(got, pow_mod(b, e, P));
        }
    }

    #[test]
    fn fermat_little_theorem_holds() {
        for a in [2u64, 3, 12345, 987654321] {
            assert_eq!(pow_mod(a, P - 1, P), 1);
        }
    }

    #[test]
    fn miller_rabin_agrees_with_trial_division() {
        fn naive(n: u64) -> bool {
            if n < 2 {
                return false;
            }
            let mut d = 2;
            while d * d <= n {
                if n.is_multiple_of(d) {
                    return false;
                }
                d += 1;
            }
            true
        }
        for n in 0..2000u64 {
            assert_eq!(is_prime_u64(n), naive(n), "n = {n}");
        }
        // Carmichael numbers must be rejected.
        for c in [561u64, 1105, 1729, 2465, 2821, 6601, 8911] {
            assert!(!is_prime_u64(c), "{c} is Carmichael, not prime");
        }
    }
}
