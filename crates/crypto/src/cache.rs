//! Bounded cache of certificate signature checks.
//!
//! A vehicle re-verifies the same handful of certificates constantly: every
//! heartbeat, RREP, and probe carries the sender's certificate, and the
//! TA-signature check is by far the most expensive step (two modular
//! exponentiations). The *signature* validity of a certificate under a
//! given TA key is a pure function of its bytes, so it can be memoized;
//! the validity-*window* checks depend on the current virtual time and are
//! always re-evaluated by [`Certificate::verify`](crate::Certificate::verify).
//! That makes the cache observationally transparent: cached and uncached
//! verification return identical results at every instant.
//!
//! The cache is thread-local (parallel sweep workers each get their own;
//! no locks on the hot path) and bounded by LRU eviction.

use std::cell::RefCell;
use std::collections::HashMap;

/// Maximum number of distinct certificates remembered per thread. Sized
/// for several full highways' worth of pseudonyms (a Table-I trial enrolls
/// ~100 and renewals add a few more) while keeping eviction scans cheap.
const CAPACITY: usize = 1024;

struct CertCache {
    /// digest → (signature valid?, last-use stamp).
    entries: HashMap<u128, (bool, u64), DigestHasherBuilder>,
    /// Monotonic use counter backing the LRU stamps.
    clock: u64,
    hits: u64,
    misses: u64,
}

thread_local! {
    static CACHE: RefCell<CertCache> = RefCell::new(CertCache {
        entries: HashMap::default(),
        clock: 0,
        hits: 0,
        misses: 0,
    });
}

/// Hash-transparent `BuildHasher` for maps keyed by digests that are
/// already uniformly mixed 128-bit hashes ([`fast_hash_128`] /
/// [`fnv1a_128`] output): folding the two halves together is a full
/// 64-bit state, and re-running SipHash over an existing hash buys no
/// distribution — it only costs time on the verifier's memo-hit path.
/// Only for digest keys; anything attacker-shaped goes through a real
/// hasher.
#[derive(Debug, Default, Clone, Copy)]
pub struct DigestHasherBuilder;

/// See [`DigestHasherBuilder`].
#[derive(Debug, Default)]
pub struct DigestHasher(u64);

impl std::hash::Hasher for DigestHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        // Generic fallback so the hasher is total; digest maps only hit
        // the `write_u128` path.
        for &byte in bytes {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    fn write_u128(&mut self, v: u128) {
        self.0 = (v as u64) ^ ((v >> 64) as u64);
    }
}

impl std::hash::BuildHasher for DigestHasherBuilder {
    type Hasher = DigestHasher;
    fn build_hasher(&self) -> DigestHasher {
        DigestHasher(0)
    }
}

/// FNV-1a, widened to 128 bits to make accidental collisions across a
/// simulation's certificate population negligible. Public because the
/// deferred verifier keys its envelope memo with the same stream.
pub fn fnv1a_128(chunks: &[&[u8]]) -> u128 {
    const OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
    const PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013b;
    let mut hash = OFFSET;
    for chunk in chunks {
        for &byte in *chunk {
            hash ^= byte as u128;
            hash = hash.wrapping_mul(PRIME);
        }
    }
    hash
}

/// Word-at-a-time 128-bit mixer for **process-transient cache keys**
/// (the certificate cache, the envelope-verdict memo).
///
/// [`fnv1a_128`] folds one byte per 128-bit multiply; on the deferred
/// verifier's hot path — one envelope digest per `verify_one`, over
/// hundreds of envelope bytes — that multiply chain *was* the memo-hit
/// cost. This variant folds eight bytes per multiply (same FNV prime,
/// zero-padded tail disambiguated by a per-chunk length fold, final
/// avalanche so low bits spread for shard selection), cutting digest
/// time ~8x. It is not FNV and not cryptographic; never persist its
/// output or compare it across processes — keys live and die with the
/// process.
pub fn fast_hash_128(chunks: &[&[u8]]) -> u128 {
    const OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
    const PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013b;
    let mut hash = OFFSET;
    for chunk in chunks {
        let mut words = chunk.chunks_exact(8);
        for word in &mut words {
            hash ^= u64::from_le_bytes(word.try_into().expect("exact 8-byte chunk")) as u128;
            hash = hash.wrapping_mul(PRIME);
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            let mut padded = [0u8; 8];
            padded[..tail.len()].copy_from_slice(tail);
            hash ^= u64::from_le_bytes(padded) as u128;
            hash = hash.wrapping_mul(PRIME);
        }
        // Folding the length keeps `[1, 0]` and `[1]` (zero-padded to the
        // same word) distinct, and chunk boundaries unambiguous.
        hash ^= chunk.len() as u128;
        hash = hash.wrapping_mul(PRIME);
    }
    hash ^= hash >> 64;
    hash.wrapping_mul(PRIME)
}

/// Looks up `digest`, or computes the signature check with `check` and
/// caches the result, evicting the least-recently-used entry when full.
pub(crate) fn check_signature(digest: u128, check: impl FnOnce() -> bool) -> bool {
    CACHE.with(|cache| {
        let mut cache = cache.borrow_mut();
        cache.clock += 1;
        let stamp = cache.clock;
        if let Some(entry) = cache.entries.get_mut(&digest) {
            entry.1 = stamp;
            let valid = entry.0;
            cache.hits += 1;
            return valid;
        }
        cache.misses += 1;
        let valid = check();
        if cache.entries.len() >= CAPACITY {
            if let Some(&oldest) = cache
                .entries
                .iter()
                .min_by_key(|(_, &(_, used))| used)
                .map(|(k, _)| k)
            {
                cache.entries.remove(&oldest);
            }
        }
        cache.entries.insert(digest, (valid, stamp));
        valid
    })
}

/// Looks up a previously memoized signature check without computing it on
/// a miss. A hit refreshes the entry's LRU stamp, exactly like
/// `check_signature`. Deferred (batched) verification uses this to
/// decide which certificate signatures still need real work.
pub fn lookup_signature(digest: u128) -> Option<bool> {
    CACHE.with(|cache| {
        let mut cache = cache.borrow_mut();
        cache.clock += 1;
        let stamp = cache.clock;
        if let Some(entry) = cache.entries.get_mut(&digest) {
            entry.1 = stamp;
            let valid = entry.0;
            cache.hits += 1;
            Some(valid)
        } else {
            cache.misses += 1;
            None
        }
    })
}

/// Memoizes an externally computed signature check (the batch verifier's
/// flush), with the same LRU eviction as `check_signature`.
pub fn store_signature(digest: u128, valid: bool) {
    CACHE.with(|cache| {
        let mut cache = cache.borrow_mut();
        cache.clock += 1;
        let stamp = cache.clock;
        if cache.entries.len() >= CAPACITY && !cache.entries.contains_key(&digest) {
            if let Some(&oldest) = cache
                .entries
                .iter()
                .min_by_key(|(_, &(_, used))| used)
                .map(|(k, _)| k)
            {
                cache.entries.remove(&oldest);
            }
        }
        cache.entries.insert(digest, (valid, stamp));
    })
}

/// `(hits, misses)` recorded by this thread's certificate cache.
pub fn cert_cache_stats() -> (u64, u64) {
    CACHE.with(|cache| {
        let cache = cache.borrow();
        (cache.hits, cache.misses)
    })
}

/// Empties this thread's certificate cache and zeroes its counters.
/// Benchmarks use this to measure cold-path costs.
pub fn cert_cache_clear() {
    CACHE.with(|cache| {
        let mut cache = cache.borrow_mut();
        cache.entries.clear();
        cache.clock = 0;
        cache.hits = 0;
        cache.misses = 0;
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn caches_and_counts() {
        cert_cache_clear();
        let mut computed = 0;
        for _ in 0..3 {
            assert!(check_signature(42, || {
                computed += 1;
                true
            }));
        }
        assert_eq!(computed, 1, "signature check ran once");
        assert_eq!(cert_cache_stats(), (2, 1));
        cert_cache_clear();
    }

    #[test]
    fn negative_results_are_cached_too() {
        cert_cache_clear();
        assert!(!check_signature(7, || false));
        assert!(!check_signature(7, || panic!("must hit the cache")));
        cert_cache_clear();
    }

    #[test]
    fn evicts_least_recently_used_at_capacity() {
        cert_cache_clear();
        for i in 0..CAPACITY as u128 {
            check_signature(i, || true);
        }
        // Touch entry 0 so it is no longer the oldest, then overflow.
        check_signature(0, || panic!("entry 0 must still be cached"));
        check_signature(u128::MAX, || true);
        // Entry 1 was the LRU and is gone; entry 0 survived.
        let (hits_before, _) = cert_cache_stats();
        check_signature(0, || panic!("entry 0 must have survived eviction"));
        let (hits_after, _) = cert_cache_stats();
        assert_eq!(hits_after, hits_before + 1);
        let mut recomputed = false;
        check_signature(1, || {
            recomputed = true;
            true
        });
        assert!(recomputed, "entry 1 must have been evicted");
        cert_cache_clear();
    }

    #[test]
    fn fnv_distinguishes_chunk_contents() {
        assert_ne!(fnv1a_128(&[b"ab"]), fnv1a_128(&[b"ba"]));
        assert_ne!(fnv1a_128(&[b""]), fnv1a_128(&[b"\0"]));
        // Chunking is an encoding detail: the hash covers concatenated bytes.
        assert_eq!(fnv1a_128(&[b"ab", b"cd"]), fnv1a_128(&[b"abcd"]));
    }
}
