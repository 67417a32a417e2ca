//! The AODV routing table (RFC 3561 §2, §6.2).

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet};

use blackdp_sim::Time;

use crate::msg::{Addr, SeqNo};

/// Validity state of a routing table entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteState {
    /// Usable for forwarding.
    Valid,
    /// Expired or broken; retained for its sequence number.
    Invalid,
}

/// One routing table entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouteEntry {
    /// The destination this entry routes toward.
    pub dest: Addr,
    /// Last known destination sequence number (`None` = unknown).
    pub dest_seq: Option<SeqNo>,
    /// Neighbor to forward through.
    pub next_hop: Addr,
    /// Hops to the destination.
    pub hop_count: u8,
    /// Instant after which the entry is stale.
    pub expires: Time,
    /// Validity state.
    pub state: RouteState,
    /// Neighbors that route *through us* to this destination; they must be
    /// notified with a RERR when the route breaks.
    pub precursors: BTreeSet<Addr>,
}

impl RouteEntry {
    /// True if the entry is valid and unexpired at `now`.
    pub fn is_usable(&self, now: Time) -> bool {
        self.state == RouteState::Valid && self.expires > now
    }
}

/// RFC 3561 §6.1: sequence numbers are compared with signed 32-bit
/// rollover arithmetic — `a` is newer than `b` iff `(a - b) as i32 > 0`.
/// A node running long enough wraps its counter past `u32::MAX`; plain
/// `>` would then treat the freshest route as ancient.
pub fn seq_newer(a: SeqNo, b: SeqNo) -> bool {
    (a.wrapping_sub(b) as i32) > 0
}

/// Whether a candidate route should replace the current entry
/// (RFC 3561 §6.2: newer sequence number, or same sequence number with a
/// smaller hop count, or the current entry is unusable).
fn candidate_wins(current: &RouteEntry, cand_seq: Option<SeqNo>, cand_hops: u8, now: Time) -> bool {
    if !current.is_usable(now) {
        return true;
    }
    match (current.dest_seq, cand_seq) {
        (None, _) => true,
        (Some(_), None) => false,
        (Some(cur), Some(cand)) => {
            seq_newer(cand, cur) || (cand == cur && cand_hops < current.hop_count)
        }
    }
}

/// The routing table: destination-keyed entries with RFC update rules.
///
/// # Examples
///
/// ```
/// use blackdp_aodv::{Addr, RouteState, RoutingTable};
/// use blackdp_sim::Time;
///
/// let mut table = RoutingTable::new();
/// table.update(Addr(7), Some(10), Addr(3), 2, Time::from_secs(5), Time::ZERO);
/// assert!(table.lookup_usable(Addr(7), Time::ZERO).is_some());
///
/// // A fresher reply (higher sequence number) replaces the route.
/// table.update(Addr(7), Some(12), Addr(4), 5, Time::from_secs(5), Time::ZERO);
/// assert_eq!(table.lookup_usable(Addr(7), Time::ZERO).unwrap().next_hop, Addr(4));
/// ```
#[derive(Debug, Clone, Default)]
pub struct RoutingTable {
    entries: BTreeMap<Addr, RouteEntry>,
    /// Watermark for [`RoutingTable::expire_stale`]: a lower bound on the
    /// `expires` of every `Valid` entry, so a sweep before it has nothing
    /// to expire. Only `update` and `update_hello` can lower an entry's
    /// `expires` or revalidate it, and both lower this with `min`; each
    /// sweep that runs makes it exact again. Starts at `Time::ZERO`, so
    /// the first sweep always runs.
    next_expiry: Time,
}

/// A fresh `Valid` entry with no precursors.
fn new_entry(
    dest: Addr,
    dest_seq: Option<SeqNo>,
    next_hop: Addr,
    hop_count: u8,
    expires: Time,
) -> RouteEntry {
    RouteEntry {
        dest,
        dest_seq,
        next_hop,
        hop_count,
        expires,
        state: RouteState::Valid,
        precursors: BTreeSet::new(),
    }
}

/// Applies the RFC 3561 update rule for a candidate route to an existing
/// entry. Returns true if the candidate replaced the route.
fn merge(
    entry: &mut RouteEntry,
    dest_seq: Option<SeqNo>,
    next_hop: Addr,
    hop_count: u8,
    expires: Time,
    now: Time,
) -> bool {
    if candidate_wins(entry, dest_seq, hop_count, now) {
        // Keep the best-known sequence number even when the candidate
        // doesn't know one (rollover-aware).
        entry.dest_seq = match (entry.dest_seq, dest_seq) {
            (Some(cur), Some(new)) => Some(if seq_newer(new, cur) { new } else { cur }),
            (cur, new) => new.or(cur),
        };
        entry.next_hop = next_hop;
        entry.hop_count = hop_count;
        entry.expires = expires;
        entry.state = RouteState::Valid;
        true
    } else {
        // Refresh the lifetime of an equally good route through the same
        // neighbor.
        if entry.next_hop == next_hop && entry.is_usable(now) && expires > entry.expires {
            entry.expires = expires;
        }
        false
    }
}

impl RoutingTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        RoutingTable::default()
    }

    /// Looks up any entry (valid or not) for `dest`.
    pub fn lookup(&self, dest: Addr) -> Option<&RouteEntry> {
        self.entries.get(&dest)
    }

    /// Looks up a usable (valid, unexpired) entry for `dest`.
    pub fn lookup_usable(&self, dest: Addr, now: Time) -> Option<&RouteEntry> {
        self.entries.get(&dest).filter(|e| e.is_usable(now))
    }

    /// Applies the RFC 3561 update rule for a candidate route to `dest` via
    /// `next_hop`. Returns true if the table changed.
    pub fn update(
        &mut self,
        dest: Addr,
        dest_seq: Option<SeqNo>,
        next_hop: Addr,
        hop_count: u8,
        expires: Time,
        now: Time,
    ) -> bool {
        let (entry, changed) = match self.entries.entry(dest) {
            Entry::Vacant(slot) => (
                slot.insert(new_entry(dest, dest_seq, next_hop, hop_count, expires)),
                true,
            ),
            Entry::Occupied(slot) => {
                let entry = slot.into_mut();
                let changed = merge(entry, dest_seq, next_hop, hop_count, expires, now);
                (entry, changed)
            }
        };
        // Every update leaves `dest` Valid: a losing candidate implies a
        // usable entry.
        self.next_expiry = self.next_expiry.min(entry.expires);
        changed
    }

    /// A Hello heard directly from `neighbor`: exactly
    /// `update(neighbor, None, neighbor, 1, link_expires, now)` followed by
    /// `update(neighbor, Some(hello_seq), neighbor, 1, hello_expires, now)`
    /// (the link's 1-hop route, then the Hello's sequence number), with one
    /// map lookup instead of two.
    pub fn update_hello(
        &mut self,
        neighbor: Addr,
        hello_seq: SeqNo,
        link_expires: Time,
        hello_expires: Time,
        now: Time,
    ) {
        let entry = match self.entries.entry(neighbor) {
            Entry::Vacant(slot) => {
                slot.insert(new_entry(neighbor, None, neighbor, 1, link_expires))
            }
            Entry::Occupied(slot) => {
                let entry = slot.into_mut();
                merge(entry, None, neighbor, 1, link_expires, now);
                entry
            }
        };
        merge(entry, Some(hello_seq), neighbor, 1, hello_expires, now);
        self.next_expiry = self.next_expiry.min(entry.expires);
    }

    /// Extends the lifetime of a usable entry (data-plane refresh,
    /// RFC 3561 §6.2 last paragraph).
    pub fn refresh(&mut self, dest: Addr, expires: Time, now: Time) {
        if let Some(e) = self.entries.get_mut(&dest) {
            if e.is_usable(now) && expires > e.expires {
                e.expires = expires;
            }
        }
    }

    /// Records that `precursor` routes through us toward `dest`.
    pub fn add_precursor(&mut self, dest: Addr, precursor: Addr) {
        if let Some(e) = self.entries.get_mut(&dest) {
            e.precursors.insert(precursor);
        }
    }

    /// Invalidates the route to `dest`: bumps its sequence number (so stale
    /// information cannot resurrect it) and returns the entry's precursors
    /// and incremented sequence number for RERR generation.
    pub fn invalidate(&mut self, dest: Addr) -> Option<(SeqNo, BTreeSet<Addr>)> {
        let e = self.entries.get_mut(&dest)?;
        if e.state == RouteState::Invalid {
            return None;
        }
        e.state = RouteState::Invalid;
        let seq = e.dest_seq.map(|s| s.wrapping_add(1)).unwrap_or(0);
        e.dest_seq = Some(seq);
        Some((seq, std::mem::take(&mut e.precursors)))
    }

    /// Invalidates every valid route whose next hop is `neighbor` (link
    /// break). Returns `(dest, new_seq, precursors)` triples for RERRs.
    pub fn invalidate_via(&mut self, neighbor: Addr) -> Vec<(Addr, SeqNo, BTreeSet<Addr>)> {
        let broken: Vec<Addr> = self
            .entries
            .values()
            .filter(|e| e.state == RouteState::Valid && e.next_hop == neighbor)
            .map(|e| e.dest)
            .collect();
        broken
            .into_iter()
            .filter_map(|dest| self.invalidate(dest).map(|(seq, pre)| (dest, seq, pre)))
            .collect()
    }

    /// Removes entries (valid or invalid) routing through `neighbor`
    /// entirely — used when a node is blacklisted and its information must
    /// not linger even as sequence-number history.
    pub fn purge_via(&mut self, neighbor: Addr) -> usize {
        let before = self.entries.len();
        self.entries
            .retain(|_, e| e.next_hop != neighbor && e.dest != neighbor);
        before - self.entries.len()
    }

    /// Marks expired valid entries invalid; returns how many were expired.
    /// Before the earliest `expires` of any valid entry this is a no-op
    /// and returns without walking the table.
    pub fn expire_stale(&mut self, now: Time) -> usize {
        if self.next_expiry > now {
            return 0;
        }
        let mut n = 0;
        let mut next_expiry = Time::MAX;
        for e in self.entries.values_mut() {
            if e.state == RouteState::Valid {
                if e.expires <= now {
                    e.state = RouteState::Invalid;
                    n += 1;
                } else {
                    next_expiry = next_expiry.min(e.expires);
                }
            }
        }
        self.next_expiry = next_expiry;
        n
    }

    /// Iterates all entries in address order.
    pub fn iter(&self) -> impl Iterator<Item = &RouteEntry> {
        self.entries.values()
    }

    /// Number of entries (valid and invalid).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if the table has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const NOW: Time = Time::ZERO;

    fn exp(secs: u64) -> Time {
        Time::from_secs(secs)
    }

    #[test]
    fn insert_and_lookup() {
        let mut t = RoutingTable::new();
        assert!(t.is_empty());
        assert!(t.update(Addr(5), Some(10), Addr(2), 3, exp(10), NOW));
        let e = t.lookup_usable(Addr(5), NOW).unwrap();
        assert_eq!(e.next_hop, Addr(2));
        assert_eq!(e.hop_count, 3);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn fresher_sequence_number_wins() {
        let mut t = RoutingTable::new();
        t.update(Addr(5), Some(10), Addr(2), 3, exp(10), NOW);
        assert!(t.update(Addr(5), Some(11), Addr(9), 7, exp(10), NOW));
        assert_eq!(t.lookup(Addr(5)).unwrap().next_hop, Addr(9));
    }

    #[test]
    fn stale_sequence_number_loses() {
        let mut t = RoutingTable::new();
        t.update(Addr(5), Some(10), Addr(2), 3, exp(10), NOW);
        assert!(!t.update(Addr(5), Some(9), Addr(9), 1, exp(10), NOW));
        assert_eq!(t.lookup(Addr(5)).unwrap().next_hop, Addr(2));
    }

    #[test]
    fn equal_seq_smaller_hop_count_wins() {
        let mut t = RoutingTable::new();
        t.update(Addr(5), Some(10), Addr(2), 3, exp(10), NOW);
        assert!(t.update(Addr(5), Some(10), Addr(9), 2, exp(10), NOW));
        assert_eq!(t.lookup(Addr(5)).unwrap().next_hop, Addr(9));
        assert!(!t.update(Addr(5), Some(10), Addr(4), 2, exp(10), NOW));
    }

    #[test]
    fn unknown_seq_never_replaces_known() {
        let mut t = RoutingTable::new();
        t.update(Addr(5), Some(1), Addr(2), 3, exp(10), NOW);
        assert!(!t.update(Addr(5), None, Addr(9), 1, exp(10), NOW));
        // ... but replaces an unusable route.
        t.invalidate(Addr(5));
        assert!(t.update(Addr(5), None, Addr(9), 1, exp(10), NOW));
        // Sequence knowledge is retained across the overwrite.
        assert!(t.lookup(Addr(5)).unwrap().dest_seq.is_some());
    }

    #[test]
    fn expired_route_is_unusable_and_replaceable() {
        let mut t = RoutingTable::new();
        t.update(Addr(5), Some(10), Addr(2), 3, exp(1), NOW);
        assert!(t.lookup_usable(Addr(5), exp(1)).is_none(), "expired at t=1");
        assert!(t.update(Addr(5), Some(5), Addr(9), 1, exp(10), exp(2)));
    }

    #[test]
    fn refresh_extends_lifetime_only_forward() {
        let mut t = RoutingTable::new();
        t.update(Addr(5), Some(10), Addr(2), 3, exp(10), NOW);
        t.refresh(Addr(5), exp(20), NOW);
        assert_eq!(t.lookup(Addr(5)).unwrap().expires, exp(20));
        t.refresh(Addr(5), exp(15), NOW); // earlier: ignored
        assert_eq!(t.lookup(Addr(5)).unwrap().expires, exp(20));
    }

    #[test]
    fn invalidate_bumps_sequence_and_returns_precursors() {
        let mut t = RoutingTable::new();
        t.update(Addr(5), Some(10), Addr(2), 3, exp(10), NOW);
        t.add_precursor(Addr(5), Addr(100));
        t.add_precursor(Addr(5), Addr(101));
        let (seq, pre) = t.invalidate(Addr(5)).unwrap();
        assert_eq!(seq, 11);
        assert_eq!(pre.len(), 2);
        assert!(t.lookup_usable(Addr(5), NOW).is_none());
        // Double invalidation is a no-op.
        assert!(t.invalidate(Addr(5)).is_none());
    }

    #[test]
    fn invalidate_via_breaks_all_routes_through_neighbor() {
        let mut t = RoutingTable::new();
        t.update(Addr(5), Some(1), Addr(2), 3, exp(10), NOW);
        t.update(Addr(6), Some(1), Addr(2), 2, exp(10), NOW);
        t.update(Addr(7), Some(1), Addr(3), 2, exp(10), NOW);
        let broken = t.invalidate_via(Addr(2));
        assert_eq!(broken.len(), 2);
        assert!(t.lookup_usable(Addr(7), NOW).is_some());
    }

    #[test]
    fn purge_via_removes_entries_entirely() {
        let mut t = RoutingTable::new();
        t.update(Addr(5), Some(1), Addr(2), 3, exp(10), NOW);
        t.update(Addr(2), Some(1), Addr(2), 1, exp(10), NOW); // the neighbor itself
        t.update(Addr(7), Some(1), Addr(3), 2, exp(10), NOW);
        assert_eq!(t.purge_via(Addr(2)), 2);
        assert_eq!(t.len(), 1);
        assert!(t.lookup(Addr(5)).is_none());
    }

    #[test]
    fn rollover_comparison_is_signed() {
        assert!(seq_newer(1, 0));
        assert!(!seq_newer(0, 1));
        assert!(!seq_newer(5, 5));
        // Across the wrap: 2 is newer than u32::MAX - 2.
        assert!(seq_newer(2, u32::MAX - 2));
        assert!(!seq_newer(u32::MAX - 2, 2));
        // Half the space apart: ordering follows the signed difference.
        assert!(seq_newer(0x8000_0000, 1));
    }

    #[test]
    fn update_accepts_wrapped_fresher_sequence() {
        let mut t = RoutingTable::new();
        t.update(Addr(5), Some(u32::MAX - 1), Addr(2), 3, exp(10), NOW);
        // The destination's counter wrapped: 3 is *newer* than MAX-1.
        assert!(t.update(Addr(5), Some(3), Addr(9), 2, exp(10), NOW));
        assert_eq!(t.lookup(Addr(5)).unwrap().next_hop, Addr(9));
        assert_eq!(t.lookup(Addr(5)).unwrap().dest_seq, Some(3));
    }

    #[test]
    fn invalidate_wraps_at_the_top() {
        let mut t = RoutingTable::new();
        t.update(Addr(5), Some(u32::MAX), Addr(2), 3, exp(10), NOW);
        let (seq, _) = t.invalidate(Addr(5)).unwrap();
        assert_eq!(seq, 0, "u32::MAX + 1 wraps to 0");
    }

    #[test]
    fn expire_stale_marks_but_keeps_entries() {
        let mut t = RoutingTable::new();
        t.update(Addr(5), Some(1), Addr(2), 3, exp(1), NOW);
        t.update(Addr(6), Some(1), Addr(2), 3, exp(100), NOW);
        assert_eq!(t.expire_stale(exp(2)), 1);
        assert_eq!(t.len(), 2);
        assert_eq!(t.lookup(Addr(5)).unwrap().state, RouteState::Invalid);
        assert_eq!(t.expire_stale(exp(2)), 0, "idempotent");
    }
}
