//! The sans-io AODV state machine.
//!
//! [`Aodv`] owns all protocol state (routing table, sequence numbers,
//! discovery bookkeeping) but performs no I/O: every entry point returns a
//! list of [`Action`]s for the host to execute. The host is responsible for
//! delivering radio messages back into [`Aodv::handle_message`] and calling
//! [`Aodv::tick`] periodically (every few hundred milliseconds).

use std::collections::{BTreeMap, HashMap, VecDeque};

use blackdp_sim::{Duration, Time};

use crate::config::AodvConfig;
use crate::msg::{Addr, DataPacket, Hello, Message, Rerr, Rrep, Rreq, SeqNo};
use crate::table::RoutingTable;

/// An output of the state machine for the host to execute.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Action {
    /// Unicast `msg` to the neighbor `next_hop`.
    SendTo {
        /// The neighbor to transmit to.
        next_hop: Addr,
        /// The message to transmit.
        msg: Message,
    },
    /// Broadcast `msg` to all neighbors.
    Broadcast {
        /// The message to transmit.
        msg: Message,
    },
    /// A protocol event the host (or an upper layer like BlackDP) may care
    /// about. No transmission is implied.
    Event(Event),
}

/// Protocol-level notifications surfaced alongside transmissions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// A data packet addressed to this node arrived.
    DataDelivered(DataPacket),
    /// A data packet was dropped.
    DataDropped {
        /// The dropped packet.
        packet: DataPacket,
        /// Why it was dropped.
        reason: DropReason,
    },
    /// A usable route to `dest` is now installed.
    RouteEstablished {
        /// The destination.
        dest: Addr,
        /// The neighbor packets will be forwarded through.
        next_hop: Addr,
        /// The route's destination sequence number.
        dest_seq: SeqNo,
        /// Hops to the destination.
        hop_count: u8,
    },
    /// Route discovery for `dest` exhausted its retries.
    DiscoveryFailed {
        /// The destination that could not be reached.
        dest: Addr,
    },
    /// An RREP terminating at this node was received (emitted for *every*
    /// such RREP, accepted or not — BlackDP and the sequence-number
    /// baselines inspect these).
    RrepReceived {
        /// The neighbor that delivered the RREP.
        from: Addr,
        /// The reply itself.
        rrep: Rrep,
    },
    /// A neighbor stopped beaconing and its routes were invalidated.
    LinkBroken {
        /// The vanished neighbor.
        neighbor: Addr,
    },
}

/// Why a data packet was dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropReason {
    /// No usable route and discovery failed.
    NoRoute,
    /// The packet's TTL reached zero in flight.
    TtlExpired,
    /// The per-destination discovery buffer was full.
    BufferFull,
    /// This node already forwarded this exact packet (loop or broadcast
    /// echo — a unicast forwarding chain never duplicates).
    Duplicate,
}

#[derive(Debug)]
struct PendingDiscovery {
    attempts: u32,
    deadline: Time,
    buffered: VecDeque<DataPacket>,
    /// Current search radius (equals `net_diameter` unless expanding-ring
    /// search is still widening).
    ttl: u8,
}

/// The first instant at which something last seen at `t` is more than
/// `horizon` old: the least `now` with `now.saturating_since(t) > horizon`.
fn aged_out(t: Time, horizon: Duration) -> Time {
    t + horizon + Duration::from_micros(1)
}

/// An id → last-seen cache whose entries age out `horizon` after they
/// were seen, with a watermark gate on the sweep.
#[derive(Debug)]
struct SeenCache {
    seen: HashMap<(Addr, u64), Time>,
    horizon: Duration,
    /// No entry can age out before this instant. Every insert lowers it
    /// with `min`; each sweep that runs makes it exact. `Time::MAX` while
    /// the cache is empty.
    due: Time,
}

impl SeenCache {
    fn new(horizon: Duration) -> Self {
        SeenCache {
            seen: HashMap::new(),
            horizon,
            due: Time::MAX,
        }
    }

    fn contains(&self, key: (Addr, u64)) -> bool {
        self.seen.contains_key(&key)
    }

    fn insert(&mut self, key: (Addr, u64), now: Time) {
        self.seen.insert(key, now);
        self.due = self.due.min(aged_out(now, self.horizon));
    }

    /// Drops entries seen more than `horizon` before `now`. Before the
    /// watermark that would drop nothing, so it returns at once (which
    /// also spares `HashMap::retain` its walk of an empty bucket array).
    fn prune(&mut self, now: Time) {
        if self.due > now {
            return;
        }
        let horizon = self.horizon;
        let mut due = Time::MAX;
        self.seen.retain(|_, &mut t| {
            let keep = now.saturating_since(t) <= horizon;
            if keep {
                due = due.min(aged_out(t, horizon));
            }
            keep
        });
        self.due = due;
    }
}

/// The AODV protocol instance for one node.
///
/// # Examples
///
/// Destination answers a discovery directly:
///
/// ```
/// use blackdp_aodv::{Action, Addr, Aodv, AodvConfig, Message};
/// use blackdp_sim::Time;
///
/// let now = Time::ZERO;
/// let mut src = Aodv::new(Addr(1), AodvConfig::default());
/// let mut dst = Aodv::new(Addr(2), AodvConfig::default());
///
/// // Source floods an RREQ...
/// let actions = src.send_data(Addr(2), now);
/// let rreq = actions.iter().find_map(|a| match a {
///     Action::Broadcast { msg: m @ Message::Rreq(_) } => Some(m.clone()),
///     _ => None,
/// }).expect("discovery starts with an RREQ broadcast");
///
/// // ...the destination replies with an RREP...
/// let replies = dst.handle_message(Addr(1), rreq, now);
/// assert!(matches!(&replies[..], [Action::SendTo { next_hop: Addr(1), .. }]));
/// ```
#[derive(Debug)]
pub struct Aodv {
    addr: Addr,
    cfg: AodvConfig,
    seq: SeqNo,
    next_rreq_id: u64,
    next_data_seq: u64,
    routes: RoutingTable,
    rreq_seen: SeenCache,
    data_seen: SeenCache,
    pending: BTreeMap<Addr, PendingDiscovery>,
    neighbors: BTreeMap<Addr, Time>,
    /// No neighbor can time out before this instant. Every `hear` lowers
    /// it with `min`; each sweep that runs makes it exact. `Time::MAX`
    /// with no neighbors.
    neighbor_due: Time,
    last_hello: Option<Time>,
}

impl Aodv {
    /// Creates an instance for the node addressed `addr`.
    pub fn new(addr: Addr, cfg: AodvConfig) -> Self {
        Aodv {
            addr,
            seq: 0,
            next_rreq_id: 0,
            next_data_seq: 0,
            routes: RoutingTable::new(),
            rreq_seen: SeenCache::new(cfg.path_discovery_time()),
            data_seen: SeenCache::new(cfg.active_route_timeout),
            pending: BTreeMap::new(),
            neighbors: BTreeMap::new(),
            neighbor_due: Time::MAX,
            last_hello: None,
            cfg,
        }
    }

    /// This node's protocol address.
    pub fn addr(&self) -> Addr {
        self.addr
    }

    /// Rebinds the protocol address (pseudonym renewal). Routing state is
    /// kept: real implementations would gradually re-learn, but the paper's
    /// renewal concerns identity, not topology.
    pub fn set_addr(&mut self, addr: Addr) {
        self.addr = addr;
    }

    /// This node's own sequence number.
    pub fn seq(&self) -> SeqNo {
        self.seq
    }

    /// Read access to the routing table.
    pub fn routes(&self) -> &RoutingTable {
        &self.routes
    }

    /// Currently connected neighbors (heard within the hello lifetime).
    pub fn neighbors(&self) -> impl Iterator<Item = Addr> + '_ {
        self.neighbors.keys().copied()
    }

    /// Invalidates any current route to `dest` — used by BlackDP's
    /// verification ladder before redoing a route discovery, so the fresh
    /// RREQ cannot be answered from this node's own stale cache.
    pub fn invalidate_route(&mut self, dest: Addr) {
        let _ = self.routes.invalidate(dest);
    }

    /// True if a usable route to `dest` exists at `now`.
    pub fn has_route(&self, dest: Addr, now: Time) -> bool {
        self.routes.lookup_usable(dest, now).is_some()
    }

    /// Removes all routing state involving `addr` — the isolation hook:
    /// after a blacklist notification, routes through the attacker must not
    /// survive even as history.
    pub fn purge_node(&mut self, addr: Addr) -> usize {
        self.neighbors.remove(&addr);
        self.pending.remove(&addr);
        self.routes.purge_via(addr)
    }

    /// Queues an application packet for `dest`, starting route discovery if
    /// necessary.
    pub fn send_data(&mut self, dest: Addr, now: Time) -> Vec<Action> {
        let packet = DataPacket {
            orig: self.addr,
            dest,
            seq_no: self.next_data_seq,
            ttl: self.cfg.net_diameter,
        };
        self.next_data_seq += 1;
        let mut actions = Vec::new();
        if dest == self.addr {
            actions.push(Action::Event(Event::DataDelivered(packet)));
            return actions;
        }
        if let Some(route) = self.routes.lookup_usable(dest, now) {
            let next_hop = route.next_hop;
            self.refresh_data_path(&packet, next_hop, now);
            actions.push(Action::SendTo {
                next_hop,
                msg: Message::Data(packet),
            });
            return actions;
        }
        // Buffer and (maybe) start discovery.
        match self.pending.get_mut(&dest) {
            Some(p) => {
                if p.buffered.len() >= self.cfg.max_buffered {
                    actions.push(Action::Event(Event::DataDropped {
                        packet,
                        reason: DropReason::BufferFull,
                    }));
                } else {
                    p.buffered.push_back(packet);
                }
            }
            None => {
                let mut buffered = VecDeque::new();
                buffered.push_back(packet);
                actions.extend(self.begin_discovery(dest, buffered, now));
            }
        }
        actions
    }

    /// Starts (or restarts) a route discovery toward `dest` regardless of
    /// buffered data. Used by upper layers such as BlackDP's second
    /// discovery round.
    pub fn start_discovery(&mut self, dest: Addr, now: Time) -> Vec<Action> {
        let buffered = self
            .pending
            .remove(&dest)
            .map(|p| p.buffered)
            .unwrap_or_default();
        self.begin_discovery(dest, buffered, now)
    }

    fn begin_discovery(
        &mut self,
        dest: Addr,
        buffered: VecDeque<DataPacket>,
        now: Time,
    ) -> Vec<Action> {
        // RFC 3561 §6.3: increment own sequence number before an RREQ
        // (it wraps, §6.1).
        self.seq = self.seq.wrapping_add(1);
        let rreq_id = self.next_rreq_id;
        self.next_rreq_id += 1;
        self.rreq_seen.insert((self.addr, rreq_id), now);
        // Expanding-ring search (§6.4) starts small; otherwise flood the
        // whole diameter at once.
        let ttl = if self.cfg.expanding_ring {
            self.cfg.ttl_start.min(self.cfg.net_diameter)
        } else {
            self.cfg.net_diameter
        };
        let deadline = if ttl < self.cfg.net_diameter {
            now + self.cfg.ring_traversal_time(ttl)
        } else {
            now + self.cfg.net_traversal_time()
        };
        let rreq = Rreq {
            rreq_id,
            dest,
            dest_seq: self.routes.lookup(dest).and_then(|e| e.dest_seq),
            orig: self.addr,
            orig_seq: self.seq,
            hop_count: 0,
            ttl,
            next_hop_inquiry: false,
        };
        self.pending.insert(
            dest,
            PendingDiscovery {
                attempts: 1,
                deadline,
                buffered,
                ttl,
            },
        );
        vec![Action::Broadcast {
            msg: Message::Rreq(rreq),
        }]
    }

    /// Processes a received AODV message from neighbor `from`.
    pub fn handle_message(&mut self, from: Addr, msg: Message, now: Time) -> Vec<Action> {
        // Any reception proves `from` is a live neighbor, and a direct
        // transmission is also a 1-hop route with unknown seq.
        self.hear(from, now);
        let link_expires = now + self.cfg.active_route_timeout;
        if let Message::Hello(hello) = msg {
            if hello.orig == from {
                // The Hello also carries the neighbor's sequence number;
                // both updates go to the one entry in a single lookup.
                let hello_expires = now + self.cfg.neighbor_lifetime() + self.cfg.hello_interval;
                self.routes
                    .update_hello(from, hello.seq, link_expires, hello_expires, now);
                return Vec::new();
            }
        }
        self.routes.update(from, None, from, 1, link_expires, now);
        match msg {
            Message::Rreq(rreq) => self.handle_rreq(from, rreq, now),
            Message::Rrep(rrep) => self.handle_rrep(from, rrep, now),
            Message::Rerr(rerr) => self.handle_rerr(from, rerr, now),
            // A Hello relayed on another node's behalf adds nothing.
            Message::Hello(_) => Vec::new(),
            Message::Data(data) => self.handle_data(from, data, now),
        }
    }

    /// Periodic maintenance: hello beacons, neighbor timeouts, route and
    /// cache expiry, discovery retries. Call every few hundred ms.
    pub fn tick(&mut self, now: Time) -> Vec<Action> {
        let mut actions = Vec::new();

        // Hello beaconing.
        let due = match self.last_hello {
            None => true,
            Some(t) => now.saturating_since(t) >= self.cfg.hello_interval,
        };
        if due {
            self.last_hello = Some(now);
            actions.push(Action::Broadcast {
                msg: Message::Hello(Hello {
                    orig: self.addr,
                    seq: self.seq,
                }),
            });
        }

        // Neighbor timeouts, route expiry and RREQ-id / data-id cache
        // cleanup. Each sweep is gated by its watermark and skipped while
        // it would change nothing, which on most ticks is all of them.
        self.expire_neighbors(now, &mut actions);
        self.routes.expire_stale(now);
        self.rreq_seen.prune(now);
        self.data_seen.prune(now);

        // Discovery retries / failures.
        let expired: Vec<Addr> = self
            .pending
            .iter()
            .filter(|(_, p)| now >= p.deadline)
            .map(|(&d, _)| d)
            .collect();
        for dest in expired {
            let p = self.pending.get_mut(&dest).expect("just listed");
            let widening = p.ttl < self.cfg.net_diameter;
            if !widening && p.attempts > self.cfg.rreq_retries {
                let p = self.pending.remove(&dest).expect("just listed");
                actions.push(Action::Event(Event::DiscoveryFailed { dest }));
                for packet in p.buffered {
                    actions.push(Action::Event(Event::DataDropped {
                        packet,
                        reason: DropReason::NoRoute,
                    }));
                }
                continue;
            }
            if widening {
                // Expanding-ring widening (§6.4): grow the radius; past the
                // threshold, jump straight to the full diameter. Widening
                // rings do not consume full-diameter retries.
                let next = p.ttl.saturating_add(self.cfg.ttl_increment);
                p.ttl = if next > self.cfg.ttl_threshold {
                    self.cfg.net_diameter
                } else {
                    next.min(self.cfg.net_diameter)
                };
                p.deadline = if p.ttl < self.cfg.net_diameter {
                    now + self.cfg.ring_traversal_time(p.ttl)
                } else {
                    now + self.cfg.net_traversal_time()
                };
            } else {
                // Full-diameter retry (binary exponential backoff).
                p.attempts += 1;
                let backoff = self
                    .cfg
                    .net_traversal_time()
                    .saturating_mul(1 << (p.attempts - 1).min(8));
                p.deadline = now + backoff;
            }
            let ttl = p.ttl;
            self.seq = self.seq.wrapping_add(1);
            let rreq_id = self.next_rreq_id;
            self.next_rreq_id += 1;
            self.rreq_seen.insert((self.addr, rreq_id), now);
            let rreq = Rreq {
                rreq_id,
                dest,
                dest_seq: self.routes.lookup(dest).and_then(|e| e.dest_seq),
                orig: self.addr,
                orig_seq: self.seq,
                hop_count: 0,
                ttl,
                next_hop_inquiry: false,
            };
            actions.push(Action::Broadcast {
                msg: Message::Rreq(rreq),
            });
        }

        actions
    }

    /// Neighbor timeouts → link breaks → RERRs.
    fn expire_neighbors(&mut self, now: Time, actions: &mut Vec<Action>) {
        if self.neighbor_due > now {
            return;
        }
        let lifetime = self.cfg.neighbor_lifetime();
        let mut gone = Vec::new();
        let mut due = Time::MAX;
        for (&neighbor, &last) in &self.neighbors {
            if now.saturating_since(last) > lifetime {
                gone.push(neighbor);
            } else {
                due = due.min(aged_out(last, lifetime));
            }
        }
        self.neighbor_due = due;
        for neighbor in gone {
            self.neighbors.remove(&neighbor);
            actions.push(Action::Event(Event::LinkBroken { neighbor }));
            let broken = self.routes.invalidate_via(neighbor);
            let unreachable: Vec<(Addr, SeqNo)> = broken
                .iter()
                .filter(|(_, _, pre)| !pre.is_empty())
                .map(|(d, s, _)| (*d, *s))
                .collect();
            if !unreachable.is_empty() {
                actions.push(Action::Broadcast {
                    msg: Message::Rerr(Rerr { unreachable }),
                });
            }
        }
    }

    /// Records a reception from `from` at `now`.
    fn hear(&mut self, from: Addr, now: Time) {
        self.neighbors.insert(from, now);
        self.neighbor_due = self
            .neighbor_due
            .min(aged_out(now, self.cfg.neighbor_lifetime()));
    }

    fn handle_rreq(&mut self, from: Addr, rreq: Rreq, now: Time) -> Vec<Action> {
        if rreq.orig == self.addr {
            return Vec::new(); // our own flood echoed back
        }
        if self.rreq_seen.contains((rreq.orig, rreq.rreq_id)) {
            return Vec::new();
        }
        self.rreq_seen.insert((rreq.orig, rreq.rreq_id), now);

        // Install/refresh the reverse route to the originator.
        self.routes.update(
            rreq.orig,
            Some(rreq.orig_seq),
            from,
            rreq.hop_count + 1,
            now + self.cfg.active_route_timeout,
            now,
        );

        if rreq.dest == self.addr {
            // RFC 3561 §6.6.1: ensure our seq is at least the one the
            // originator asked for.
            if let Some(ds) = rreq.dest_seq {
                self.seq = self.seq.max(ds);
            }
            let rrep = Rrep {
                dest: self.addr,
                dest_seq: self.seq,
                orig: rreq.orig,
                hop_count: 0,
                lifetime: self.cfg.my_route_timeout,
                next_hop: None,
            };
            return vec![Action::SendTo {
                next_hop: from,
                msg: Message::Rrep(rrep),
            }];
        }

        // Intermediate reply from cache (RFC 3561 §6.6.2) — the behaviour a
        // black hole impersonates.
        if self.cfg.intermediate_reply {
            if let Some(route) = self.routes.lookup_usable(rreq.dest, now) {
                if let Some(route_seq) = route.dest_seq {
                    let fresh_enough = rreq.dest_seq.map(|ds| route_seq >= ds).unwrap_or(true);
                    if fresh_enough {
                        let rrep = Rrep {
                            dest: rreq.dest,
                            dest_seq: route_seq,
                            orig: rreq.orig,
                            hop_count: route.hop_count,
                            lifetime: route.expires.saturating_since(now),
                            next_hop: rreq.next_hop_inquiry.then_some(route.next_hop),
                        };
                        self.routes.add_precursor(rreq.dest, from);
                        return vec![Action::SendTo {
                            next_hop: from,
                            msg: Message::Rrep(rrep),
                        }];
                    }
                }
            }
        }

        // Otherwise keep flooding.
        if rreq.ttl > 0 {
            let forwarded = Rreq {
                hop_count: rreq.hop_count.saturating_add(1),
                ttl: rreq.ttl - 1,
                ..rreq
            };
            return vec![Action::Broadcast {
                msg: Message::Rreq(forwarded),
            }];
        }
        Vec::new()
    }

    fn handle_rrep(&mut self, from: Addr, rrep: Rrep, now: Time) -> Vec<Action> {
        let mut actions = Vec::new();
        // Install/refresh the forward route to the reply's destination.
        let hops_from_here = rrep.hop_count.saturating_add(1);
        self.routes.update(
            rrep.dest,
            Some(rrep.dest_seq),
            from,
            hops_from_here,
            now + rrep.lifetime,
            now,
        );

        if rrep.orig == self.addr {
            // Terminates here: surface it, then complete any pending
            // discovery if the installed route is usable.
            actions.push(Action::Event(Event::RrepReceived { from, rrep }));
            if self.pending.contains_key(&rrep.dest) {
                if let Some(route) = self.routes.lookup_usable(rrep.dest, now) {
                    let next_hop = route.next_hop;
                    let dest_seq = route.dest_seq.unwrap_or(rrep.dest_seq);
                    let hop_count = route.hop_count;
                    let pending = self.pending.remove(&rrep.dest).expect("checked above");
                    actions.push(Action::Event(Event::RouteEstablished {
                        dest: rrep.dest,
                        next_hop,
                        dest_seq,
                        hop_count,
                    }));
                    for packet in pending.buffered {
                        self.refresh_data_path(&packet, next_hop, now);
                        actions.push(Action::SendTo {
                            next_hop,
                            msg: Message::Data(packet),
                        });
                    }
                }
            }
            return actions;
        }

        // Forward toward the originator along the reverse route.
        if let Some(rev) = self.routes.lookup_usable(rrep.orig, now) {
            let rev_next = rev.next_hop;
            let forwarded = Rrep {
                hop_count: hops_from_here,
                ..rrep
            };
            // RFC 3561 §6.7: precursor bookkeeping on both routes.
            self.routes.add_precursor(rrep.dest, rev_next);
            self.routes.add_precursor(rrep.orig, from);
            actions.push(Action::SendTo {
                next_hop: rev_next,
                msg: Message::Rrep(forwarded),
            });
        }
        actions
    }

    fn handle_rerr(&mut self, from: Addr, rerr: Rerr, now: Time) -> Vec<Action> {
        let _ = now;
        let mut propagate = Vec::new();
        for (dest, seq) in rerr.unreachable {
            let Some(entry) = self.routes.lookup(dest) else {
                continue;
            };
            if entry.next_hop != from {
                continue; // we don't route through the reporter
            }
            if let Some((_, precursors)) = self.routes.invalidate(dest) {
                // Adopt the reporter's (already incremented) seq so stale
                // info cannot resurrect the route.
                if !precursors.is_empty() {
                    propagate.push((dest, seq));
                }
            }
        }
        if propagate.is_empty() {
            Vec::new()
        } else {
            vec![Action::Broadcast {
                msg: Message::Rerr(Rerr {
                    unreachable: propagate,
                }),
            }]
        }
    }

    fn handle_data(&mut self, from: Addr, data: DataPacket, now: Time) -> Vec<Action> {
        if data.dest == self.addr {
            // Keep the reverse path fresh for replies.
            self.routes
                .refresh(data.orig, now + self.cfg.active_route_timeout, now);
            return vec![Action::Event(Event::DataDelivered(data))];
        }
        // Forward each distinct packet at most once. `seq_no` is a
        // monotone per-origin counter, so a repeat here is a routing loop
        // or a broadcast echo (a misbehaving node rebroadcasting data);
        // re-forwarding would let N neighbors amplify every copy into an
        // exponential storm only capped by TTL.
        if self.data_seen.contains((data.orig, data.seq_no)) {
            return vec![Action::Event(Event::DataDropped {
                packet: data,
                reason: DropReason::Duplicate,
            })];
        }
        if data.ttl == 0 {
            return vec![Action::Event(Event::DataDropped {
                packet: data,
                reason: DropReason::TtlExpired,
            })];
        }
        if let Some(route) = self.routes.lookup_usable(data.dest, now) {
            // Only a *forwarded* packet is marked seen: a copy we merely
            // overheard without a route must not poison a later, genuine
            // unicast hand-off through this node.
            self.data_seen.insert((data.orig, data.seq_no), now);
            let next_hop = route.next_hop;
            let forwarded = DataPacket {
                ttl: data.ttl - 1,
                ..data
            };
            self.refresh_data_path(&forwarded, next_hop, now);
            self.routes
                .refresh(data.orig, now + self.cfg.active_route_timeout, now);
            let _ = from;
            return vec![Action::SendTo {
                next_hop,
                msg: Message::Data(forwarded),
            }];
        }
        // No route: RERR toward whoever routes through us (RFC 3561 §6.11).
        let mut actions = vec![Action::Event(Event::DataDropped {
            packet: data,
            reason: DropReason::NoRoute,
        })];
        if let Some((seq, precursors)) = self.routes.invalidate(data.dest) {
            if !precursors.is_empty() {
                actions.push(Action::Broadcast {
                    msg: Message::Rerr(Rerr {
                        unreachable: vec![(data.dest, seq)],
                    }),
                });
            }
        }
        actions
    }

    /// Data-plane lifetime refresh for source, destination, and next hop
    /// (RFC 3561 §6.2).
    fn refresh_data_path(&mut self, packet: &DataPacket, next_hop: Addr, now: Time) {
        let until = now + self.cfg.active_route_timeout;
        self.routes.refresh(packet.dest, until, now);
        self.routes.refresh(next_hop, until, now);
    }
}

#[cfg(test)]
mod sweep_oracle;

#[cfg(test)]
mod tests {
    use super::*;
    use blackdp_sim::Duration;

    const NOW: Time = Time::ZERO;

    fn cfg() -> AodvConfig {
        AodvConfig::default()
    }

    fn rreq_from(actions: &[Action]) -> Rreq {
        actions
            .iter()
            .find_map(|a| match a {
                Action::Broadcast {
                    msg: Message::Rreq(r),
                } => Some(*r),
                _ => None,
            })
            .expect("expected an RREQ broadcast")
    }

    fn rrep_to(actions: &[Action]) -> (Addr, Rrep) {
        actions
            .iter()
            .find_map(|a| match a {
                Action::SendTo {
                    next_hop,
                    msg: Message::Rrep(r),
                } => Some((*next_hop, *r)),
                _ => None,
            })
            .expect("expected an RREP unicast")
    }

    #[test]
    fn send_data_without_route_starts_discovery() {
        let mut a = Aodv::new(Addr(1), cfg());
        let actions = a.send_data(Addr(9), NOW);
        let rreq = rreq_from(&actions);
        assert_eq!(rreq.orig, Addr(1));
        assert_eq!(rreq.dest, Addr(9));
        assert_eq!(rreq.hop_count, 0);
        assert_eq!(rreq.dest_seq, None, "destination never seen");
        assert_eq!(a.seq(), 1, "own seq incremented before RREQ");
    }

    #[test]
    fn send_data_to_self_delivers_immediately() {
        let mut a = Aodv::new(Addr(1), cfg());
        let actions = a.send_data(Addr(1), NOW);
        assert!(matches!(
            &actions[..],
            [Action::Event(Event::DataDelivered(_))]
        ));
    }

    #[test]
    fn destination_replies_with_rrep() {
        let mut src = Aodv::new(Addr(1), cfg());
        let mut dst = Aodv::new(Addr(2), cfg());
        let rreq = rreq_from(&src.send_data(Addr(2), NOW));
        let actions = dst.handle_message(Addr(1), Message::Rreq(rreq), NOW);
        let (to, rrep) = rrep_to(&actions);
        assert_eq!(to, Addr(1));
        assert_eq!(rrep.dest, Addr(2));
        assert_eq!(rrep.orig, Addr(1));
        assert_eq!(rrep.hop_count, 0);
    }

    #[test]
    fn rrep_completes_discovery_and_flushes_data() {
        let mut src = Aodv::new(Addr(1), cfg());
        let mut dst = Aodv::new(Addr(2), cfg());
        let rreq = rreq_from(&src.send_data(Addr(2), NOW));
        let replies = dst.handle_message(Addr(1), Message::Rreq(rreq), NOW);
        let (_, rrep) = rrep_to(&replies);
        let actions = src.handle_message(Addr(2), Message::Rrep(rrep), NOW);
        assert!(actions
            .iter()
            .any(|a| matches!(a, Action::Event(Event::RrepReceived { .. }))));
        assert!(actions.iter().any(
            |a| matches!(a, Action::Event(Event::RouteEstablished { dest, .. }) if *dest == Addr(2))
        ));
        assert!(actions.iter().any(|a| matches!(
            a,
            Action::SendTo {
                next_hop: Addr(2),
                msg: Message::Data(_)
            }
        )));
        assert!(src.routes().lookup_usable(Addr(2), NOW).is_some());
    }

    #[test]
    fn three_hop_chain_end_to_end() {
        // 1 —— 2 —— 3: relay through an intermediate node.
        let mut n1 = Aodv::new(Addr(1), cfg());
        let mut n2 = Aodv::new(Addr(2), cfg());
        let mut n3 = Aodv::new(Addr(3), cfg());

        let rreq = rreq_from(&n1.send_data(Addr(3), NOW));
        // n2 has no route: it refloods.
        let fwd = n2.handle_message(Addr(1), Message::Rreq(rreq), NOW);
        let rreq2 = rreq_from(&fwd);
        assert_eq!(rreq2.hop_count, 1);
        // n3 is the destination: replies to n2.
        let rep = n3.handle_message(Addr(2), Message::Rreq(rreq2), NOW);
        let (to, rrep) = rrep_to(&rep);
        assert_eq!(to, Addr(2));
        // n2 forwards the RREP back toward n1 with an incremented hop count.
        let back = n2.handle_message(Addr(3), Message::Rrep(rrep), NOW);
        let (to, rrep_fwd) = rrep_to(&back);
        assert_eq!(to, Addr(1));
        assert_eq!(rrep_fwd.hop_count, 1);
        // n1 completes, and data flows 1 → 2.
        let done = n1.handle_message(Addr(2), Message::Rrep(rrep_fwd), NOW);
        let data = done
            .iter()
            .find_map(|a| match a {
                Action::SendTo {
                    next_hop,
                    msg: Message::Data(d),
                } => Some((*next_hop, *d)),
                _ => None,
            })
            .expect("buffered data flushed");
        assert_eq!(data.0, Addr(2));
        // n2 forwards the data to n3, which delivers it.
        let fwd_data = n2.handle_message(Addr(1), Message::Data(data.1), NOW);
        let (hop, pkt) = fwd_data
            .iter()
            .find_map(|a| match a {
                Action::SendTo {
                    next_hop,
                    msg: Message::Data(d),
                } => Some((*next_hop, *d)),
                _ => None,
            })
            .expect("n2 forwards data");
        assert_eq!(hop, Addr(3));
        let delivered = n3.handle_message(Addr(2), Message::Data(pkt), NOW);
        assert!(delivered
            .iter()
            .any(|a| matches!(a, Action::Event(Event::DataDelivered(d)) if d.orig == Addr(1))));
    }

    #[test]
    fn duplicate_rreq_is_dropped() {
        let mut n2 = Aodv::new(Addr(2), cfg());
        let rreq = Rreq {
            rreq_id: 7,
            dest: Addr(9),
            dest_seq: None,
            orig: Addr(1),
            orig_seq: 1,
            hop_count: 0,
            ttl: 5,
            next_hop_inquiry: false,
        };
        let first = n2.handle_message(Addr(1), Message::Rreq(rreq), NOW);
        assert!(!first.is_empty(), "first copy refloods");
        let second = n2.handle_message(Addr(1), Message::Rreq(rreq), NOW);
        assert!(second.is_empty(), "duplicate is silently dropped");
    }

    #[test]
    fn rreq_ttl_zero_stops_flood() {
        let mut n2 = Aodv::new(Addr(2), cfg());
        let rreq = Rreq {
            rreq_id: 7,
            dest: Addr(9),
            dest_seq: None,
            orig: Addr(1),
            orig_seq: 1,
            hop_count: 3,
            ttl: 0,
            next_hop_inquiry: false,
        };
        let actions = n2.handle_message(Addr(1), Message::Rreq(rreq), NOW);
        assert!(
            !actions.iter().any(|a| matches!(
                a,
                Action::Broadcast {
                    msg: Message::Rreq(_)
                }
            )),
            "ttl-0 RREQ must not be rebroadcast"
        );
    }

    #[test]
    fn intermediate_reply_from_cache_discloses_next_hop_on_inquiry() {
        let mut n2 = Aodv::new(Addr(2), cfg());
        // Teach n2 a cached route to 9 via 5.
        n2.handle_message(
            Addr(5),
            Message::Rrep(Rrep {
                dest: Addr(9),
                dest_seq: 40,
                orig: Addr(2),
                hop_count: 1,
                lifetime: Duration::from_secs(10),
                next_hop: None,
            }),
            NOW,
        );
        let rreq = Rreq {
            rreq_id: 1,
            dest: Addr(9),
            dest_seq: Some(30),
            orig: Addr(1),
            orig_seq: 1,
            hop_count: 0,
            ttl: 5,
            next_hop_inquiry: true,
        };
        let actions = n2.handle_message(Addr(1), Message::Rreq(rreq), NOW);
        let (to, rrep) = rrep_to(&actions);
        assert_eq!(to, Addr(1));
        assert_eq!(rrep.dest_seq, 40);
        assert_eq!(rrep.hop_count, 2);
        assert_eq!(rrep.next_hop, Some(Addr(5)), "inquiry must be answered");
    }

    #[test]
    fn intermediate_with_stale_cache_refloods_instead_of_replying() {
        let mut n2 = Aodv::new(Addr(2), cfg());
        n2.handle_message(
            Addr(5),
            Message::Rrep(Rrep {
                dest: Addr(9),
                dest_seq: 10,
                orig: Addr(2),
                hop_count: 1,
                lifetime: Duration::from_secs(10),
                next_hop: None,
            }),
            NOW,
        );
        // Originator demands seq >= 50; the cache only has 10.
        let rreq = Rreq {
            rreq_id: 1,
            dest: Addr(9),
            dest_seq: Some(50),
            orig: Addr(1),
            orig_seq: 1,
            hop_count: 0,
            ttl: 5,
            next_hop_inquiry: false,
        };
        let actions = n2.handle_message(Addr(1), Message::Rreq(rreq), NOW);
        assert!(
            actions.iter().any(|a| matches!(
                a,
                Action::Broadcast {
                    msg: Message::Rreq(_)
                }
            )),
            "AODV-compliant node must NOT reply with a stale cached route \
             (the rule the black hole violates)"
        );
    }

    #[test]
    fn discovery_retries_then_fails() {
        let mut a = Aodv::new(Addr(1), cfg());
        let _ = a.send_data(Addr(9), NOW);
        let mut t = NOW;
        let mut rreqs = 1;
        let mut failed = false;
        let mut dropped = 0;
        for _ in 0..4000 {
            t += Duration::from_millis(100);
            for action in a.tick(t) {
                match action {
                    Action::Broadcast {
                        msg: Message::Rreq(_),
                    } => rreqs += 1,
                    Action::Event(Event::DiscoveryFailed { dest }) => {
                        assert_eq!(dest, Addr(9));
                        failed = true;
                    }
                    Action::Event(Event::DataDropped { reason, .. }) => {
                        assert_eq!(reason, DropReason::NoRoute);
                        dropped += 1;
                    }
                    _ => {}
                }
            }
            if failed {
                break;
            }
        }
        assert!(failed, "discovery must eventually fail");
        assert_eq!(rreqs, 3, "initial + RREQ_RETRIES attempts");
        assert_eq!(dropped, 1, "the buffered packet is dropped");
    }

    #[test]
    fn hello_beacons_emitted_periodically() {
        let mut a = Aodv::new(Addr(1), cfg());
        let mut hellos = 0;
        let mut t = NOW;
        for _ in 0..35 {
            t += Duration::from_millis(100);
            for action in a.tick(t) {
                if matches!(
                    action,
                    Action::Broadcast {
                        msg: Message::Hello(_)
                    }
                ) {
                    hellos += 1;
                }
            }
        }
        // ~3.5 s with a 1 s interval: 4 beacons (t=0.1 included).
        assert!((3..=4).contains(&hellos), "got {hellos} hellos");
    }

    #[test]
    fn silent_neighbor_is_declared_gone_and_rerr_sent_to_precursors() {
        let mut a = Aodv::new(Addr(1), cfg());
        // Hear neighbor 2; learn a route to 9 via 2 with a precursor 3.
        a.handle_message(
            Addr(2),
            Message::Hello(Hello {
                orig: Addr(2),
                seq: 1,
            }),
            NOW,
        );
        a.handle_message(
            Addr(2),
            Message::Rrep(Rrep {
                dest: Addr(9),
                dest_seq: 5,
                orig: Addr(1),
                hop_count: 1,
                lifetime: Duration::from_secs(60),
                next_hop: None,
            }),
            NOW,
        );
        // Forward a data packet from 3 so 3 becomes a precursor... simpler:
        // directly mark the precursor through the routing-table API is not
        // exposed; instead forward an RREP for orig=3 to create precursors.
        a.handle_message(
            Addr(3),
            Message::Hello(Hello {
                orig: Addr(3),
                seq: 1,
            }),
            NOW,
        );
        a.handle_message(
            Addr(2),
            Message::Rrep(Rrep {
                dest: Addr(9),
                dest_seq: 6,
                orig: Addr(3),
                hop_count: 1,
                lifetime: Duration::from_secs(60),
                next_hop: None,
            }),
            NOW,
        );
        // Now both 2 and 3 are neighbors. Let 2 and 3 go silent long
        // enough to expire (> 2 s), while the route to 9 (60 s) is alive.
        let later = Time::from_secs(10);
        let actions = a.tick(later);
        assert!(actions.iter().any(
            |x| matches!(x, Action::Event(Event::LinkBroken { neighbor }) if *neighbor == Addr(2))
        ));
        assert!(
            actions.iter().any(|x| matches!(
                x,
                Action::Broadcast {
                    msg: Message::Rerr(r)
                } if r.unreachable.iter().any(|(d, _)| *d == Addr(9))
            )),
            "RERR must announce the lost route to 9 (it had a precursor)"
        );
        assert!(a.routes().lookup_usable(Addr(9), later).is_none());
    }

    #[test]
    fn rerr_from_next_hop_invalidates_route() {
        let mut a = Aodv::new(Addr(1), cfg());
        a.handle_message(
            Addr(2),
            Message::Rrep(Rrep {
                dest: Addr(9),
                dest_seq: 5,
                orig: Addr(1),
                hop_count: 1,
                lifetime: Duration::from_secs(60),
                next_hop: None,
            }),
            NOW,
        );
        assert!(a.routes().lookup_usable(Addr(9), NOW).is_some());
        a.handle_message(
            Addr(2),
            Message::Rerr(Rerr {
                unreachable: vec![(Addr(9), 6)],
            }),
            NOW,
        );
        assert!(a.routes().lookup_usable(Addr(9), NOW).is_none());
    }

    #[test]
    fn rerr_from_unrelated_neighbor_is_ignored() {
        let mut a = Aodv::new(Addr(1), cfg());
        a.handle_message(
            Addr(2),
            Message::Rrep(Rrep {
                dest: Addr(9),
                dest_seq: 5,
                orig: Addr(1),
                hop_count: 1,
                lifetime: Duration::from_secs(60),
                next_hop: None,
            }),
            NOW,
        );
        a.handle_message(
            Addr(7),
            Message::Rerr(Rerr {
                unreachable: vec![(Addr(9), 6)],
            }),
            NOW,
        );
        assert!(
            a.routes().lookup_usable(Addr(9), NOW).is_some(),
            "only the route's next hop may kill it"
        );
    }

    #[test]
    fn data_with_no_route_is_dropped_with_rerr_for_precursors() {
        let mut a = Aodv::new(Addr(2), cfg());
        let data = DataPacket {
            orig: Addr(1),
            dest: Addr(9),
            seq_no: 0,
            ttl: 5,
        };
        let actions = a.handle_message(Addr(1), Message::Data(data), NOW);
        assert!(actions.iter().any(|x| matches!(
            x,
            Action::Event(Event::DataDropped {
                reason: DropReason::NoRoute,
                ..
            })
        )));
    }

    #[test]
    fn data_ttl_expiry() {
        let mut a = Aodv::new(Addr(2), cfg());
        let data = DataPacket {
            orig: Addr(1),
            dest: Addr(9),
            seq_no: 0,
            ttl: 0,
        };
        let actions = a.handle_message(Addr(1), Message::Data(data), NOW);
        assert!(actions.iter().any(|x| matches!(
            x,
            Action::Event(Event::DataDropped {
                reason: DropReason::TtlExpired,
                ..
            })
        )));
    }

    #[test]
    fn buffer_overflow_drops_excess_packets() {
        let mut a = Aodv::new(
            Addr(1),
            AodvConfig {
                max_buffered: 2,
                ..cfg()
            },
        );
        let _ = a.send_data(Addr(9), NOW);
        let _ = a.send_data(Addr(9), NOW);
        let actions = a.send_data(Addr(9), NOW);
        assert!(actions.iter().any(|x| matches!(
            x,
            Action::Event(Event::DataDropped {
                reason: DropReason::BufferFull,
                ..
            })
        )));
    }

    #[test]
    fn purge_node_removes_all_traces() {
        let mut a = Aodv::new(Addr(1), cfg());
        a.handle_message(
            Addr(2),
            Message::Rrep(Rrep {
                dest: Addr(9),
                dest_seq: 5,
                orig: Addr(1),
                hop_count: 1,
                lifetime: Duration::from_secs(60),
                next_hop: None,
            }),
            NOW,
        );
        assert!(a.neighbors().any(|n| n == Addr(2)));
        let purged = a.purge_node(Addr(2));
        assert!(purged >= 2, "route to 9 via 2 and route to 2 itself");
        assert!(a.routes().lookup(Addr(9)).is_none());
        assert!(!a.neighbors().any(|n| n == Addr(2)));
    }

    #[test]
    fn expanding_ring_starts_small_and_widens() {
        let mut a = Aodv::new(
            Addr(1),
            AodvConfig {
                expanding_ring: true,
                ..cfg()
            },
        );
        let first = rreq_from(&a.send_data(Addr(9), NOW));
        assert_eq!(first.ttl, 2, "TTL_START");
        // Walk time forward through the widening rings and record TTLs.
        let mut ttls = vec![first.ttl];
        let mut t = NOW;
        for _ in 0..600 {
            t += Duration::from_millis(50);
            for action in a.tick(t) {
                if let Action::Broadcast {
                    msg: Message::Rreq(r),
                } = action
                {
                    ttls.push(r.ttl);
                }
            }
            if ttls.last() == Some(&15) {
                break;
            }
        }
        assert!(
            ttls.windows(2).all(|w| w[0] < w[1]),
            "rings must strictly widen: {ttls:?}"
        );
        assert_eq!(*ttls.last().unwrap(), 15, "ends at NET_DIAMETER: {ttls:?}");
        // 2 → 4 → 6 → (past threshold 7) → 15.
        assert_eq!(ttls, vec![2, 4, 6, 15]);
    }

    #[test]
    fn expanding_ring_stops_when_destination_answers_early() {
        let mut src = Aodv::new(
            Addr(1),
            AodvConfig {
                expanding_ring: true,
                ..cfg()
            },
        );
        let mut dst = Aodv::new(Addr(2), cfg());
        let first = rreq_from(&src.send_data(Addr(2), NOW));
        let replies = dst.handle_message(Addr(1), Message::Rreq(first), NOW);
        let (_, rrep) = rrep_to(&replies);
        let done = src.handle_message(Addr(2), Message::Rrep(rrep), NOW);
        assert!(done.iter().any(
            |a| matches!(a, Action::Event(Event::RouteEstablished { dest, .. }) if *dest == Addr(2))
        ));
        // No further rings after success.
        let mut t = NOW;
        for _ in 0..100 {
            t += Duration::from_millis(50);
            for action in src.tick(t) {
                assert!(
                    !matches!(
                        action,
                        Action::Broadcast {
                            msg: Message::Rreq(_)
                        }
                    ),
                    "search must stop after the route is found"
                );
            }
        }
    }

    #[test]
    fn expanding_ring_still_fails_eventually() {
        let mut a = Aodv::new(
            Addr(1),
            AodvConfig {
                expanding_ring: true,
                ..cfg()
            },
        );
        let _ = a.send_data(Addr(9), NOW);
        let mut t = NOW;
        let mut failed = false;
        for _ in 0..4000 {
            t += Duration::from_millis(100);
            for action in a.tick(t) {
                if matches!(action, Action::Event(Event::DiscoveryFailed { .. })) {
                    failed = true;
                }
            }
            if failed {
                break;
            }
        }
        assert!(failed, "widening must not search forever");
    }

    #[test]
    fn set_addr_rebinds_identity() {
        let mut a = Aodv::new(Addr(1), cfg());
        a.set_addr(Addr(77));
        assert_eq!(a.addr(), Addr(77));
        let actions = a.send_data(Addr(9), NOW);
        assert_eq!(rreq_from(&actions).orig, Addr(77));
    }
}
