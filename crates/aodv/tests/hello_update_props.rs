//! `RoutingTable::update_hello` must equal the two `update` calls it
//! fuses: the link's 1-hop route with unknown sequence number, then the
//! Hello's sequence number. Prior entries are missing, valid, expired or
//! invalidated, may route through another next hop, and carry sequence
//! numbers on both sides of the rollover point.

use blackdp_aodv::{Addr, RoutingTable, SeqNo};
use blackdp_sim::{Duration, Time};
use proptest::prelude::*;

const NEIGHBOR: Addr = Addr(4);

/// A sequence number near 0, near the rollover point, or anywhere.
fn seq_no() -> impl Strategy<Value = SeqNo> {
    prop_oneof![
        0u32..4,
        (0u32..4).prop_map(|d| u32::MAX - d),
        (0u32..4).prop_map(|d| 0x7FFF_FFFF + d),
        any::<u32>(),
    ]
}

/// A prior entry for `NEIGHBOR`, or none.
#[derive(Debug, Clone)]
struct Prior {
    seq: Option<SeqNo>,
    next_hop: Addr,
    hop_count: u8,
    /// Expiry in ms; `now` is 1,000 ms, so below that it has expired.
    expires_ms: u64,
    invalidated: bool,
    precursor: bool,
}

fn prior() -> impl Strategy<Value = Option<Prior>> {
    prop::option::of(
        (
            prop::option::of(seq_no()),
            prop_oneof![Just(NEIGHBOR), Just(Addr(9))],
            1u8..5,
            0u64..3_000,
            any::<bool>(),
            any::<bool>(),
        )
            .prop_map(
                |(seq, next_hop, hop_count, expires_ms, invalidated, precursor)| Prior {
                    seq,
                    next_hop,
                    hop_count,
                    expires_ms,
                    invalidated,
                    precursor,
                },
            ),
    )
}

/// A table holding the prior entry plus an unrelated route, with its
/// watermark made exact by a sweep at time zero.
fn table(prior: &Option<Prior>) -> RoutingTable {
    let mut t = RoutingTable::new();
    t.update(
        Addr(7),
        Some(1),
        Addr(9),
        2,
        Time::from_secs(30),
        Time::ZERO,
    );
    if let Some(p) = prior {
        let expires = Time::from_millis(p.expires_ms);
        t.update(
            NEIGHBOR,
            p.seq,
            p.next_hop,
            p.hop_count,
            expires,
            Time::ZERO,
        );
        if p.precursor {
            t.add_precursor(NEIGHBOR, Addr(11));
        }
        if p.invalidated {
            t.invalidate(NEIGHBOR);
        }
    }
    t.expire_stale(Time::ZERO);
    t
}

fn entries(t: &RoutingTable) -> Vec<blackdp_aodv::RouteEntry> {
    t.iter().cloned().collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2_000))]

    #[test]
    fn fused_hello_update_equals_two_updates(
        prior in prior(),
        hello_seq in seq_no(),
        link_ms in 0u64..4_000,
        hello_ms in 0u64..4_000,
    ) {
        let now = Time::from_millis(1_000);
        let link_expires = now + Duration::from_millis(link_ms);
        let hello_expires = now + Duration::from_millis(hello_ms);

        let mut two = table(&prior);
        two.update(NEIGHBOR, None, NEIGHBOR, 1, link_expires, now);
        two.update(NEIGHBOR, Some(hello_seq), NEIGHBOR, 1, hello_expires, now);

        let mut fused = table(&prior);
        fused.update_hello(NEIGHBOR, hello_seq, link_expires, hello_expires, now);

        prop_assert_eq!(entries(&fused), entries(&two));

        // Both tables then expire the same entries at the same instants,
        // including the µs an entry's lifetime ends.
        let expiry = fused.lookup(NEIGHBOR).expect("entry installed").expires;
        for t in [
            now,
            Time::from_micros(expiry.as_micros().saturating_sub(1)),
            expiry,
            Time::from_secs(30),
        ] {
            prop_assert_eq!(fused.expire_stale(t), two.expire_stale(t), "at {}", t);
            prop_assert_eq!(entries(&fused), entries(&two), "at {}", t);
        }
    }
}
