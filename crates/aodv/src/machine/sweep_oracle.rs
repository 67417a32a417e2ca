//! Differential test for the watermark-gated sweeps of [`Aodv::tick`].
//!
//! Random interleavings of Hello, RREQ, RREP and data receptions,
//! `purge_node`, `invalidate_route`, `send_data` and ticks drive one
//! [`Aodv`]. Before every tick a brute-force oracle works out what an
//! ungated sweep does, from the routing table (`routes().iter()`), the
//! neighbor set (`neighbors()`, with last-heard times the test keeps
//! itself) and the two id caches. After the tick the machine's link-break
//! actions, table, neighbors and caches must equal the oracle's. The clock
//! often jumps to the exact instant something ages out, or one µs before,
//! so a watermark that skips a sweep one instant too long is caught.

use std::collections::{BTreeMap, HashMap};

use proptest::prelude::*;
use proptest::TestRng;

use super::*;
use crate::table::{RouteEntry, RouteState};

const ME: Addr = Addr(1);

/// One of `n` peer addresses, `Addr(2)..Addr(2 + n)`.
fn peer(rng: &mut TestRng, n: usize) -> Addr {
    Addr(2 + rng.below(n) as u64)
}

/// A sequence number near 0, near the rollover point, or anywhere.
fn seq(rng: &mut TestRng) -> SeqNo {
    match rng.below(3) {
        0 => rng.below(4) as SeqNo,
        1 => u32::MAX - rng.below(4) as SeqNo,
        _ => rng.bits() as SeqNo,
    }
}

fn micros(n: u64) -> Duration {
    Duration::from_micros(n)
}

struct Harness {
    node: Aodv,
    now: Time,
    /// Every neighbor's last-heard time, kept by the test.
    heard: BTreeMap<Addr, Time>,
    seed: u64,
    step: usize,
}

impl Harness {
    fn new(cfg: AodvConfig, seed: u64) -> Self {
        Harness {
            node: Aodv::new(ME, cfg),
            now: Time::ZERO,
            heard: BTreeMap::new(),
            seed,
            step: 0,
        }
    }

    fn receive(&mut self, from: Addr, msg: Message) {
        let _ = self.node.handle_message(from, msg, self.now);
        self.heard.insert(from, self.now);
    }

    /// Every instant at which some entry ages out, and the µs before it.
    fn boundaries(&self) -> Vec<Time> {
        let cfg = &self.node.cfg;
        let mut firsts: Vec<Time> = Vec::new();
        firsts.extend(
            self.heard
                .values()
                .map(|&t| aged_out(t, cfg.neighbor_lifetime())),
        );
        firsts.extend(
            self.node
                .routes()
                .iter()
                .filter(|e| e.state == RouteState::Valid)
                .map(|e| e.expires),
        );
        for cache in [&self.node.rreq_seen, &self.node.data_seen] {
            firsts.extend(cache.seen.values().map(|&t| aged_out(t, cache.horizon)));
        }
        firsts
            .iter()
            .flat_map(|&t| [t, Time::from_micros(t.as_micros().saturating_sub(1))])
            .filter(|&t| t >= self.now)
            .collect()
    }

    /// Moves the clock: stays, steps a little, or lands on a boundary
    /// (half the time the earliest one).
    fn advance(&mut self, rng: &mut TestRng) {
        let mut boundaries = self.boundaries();
        boundaries.sort_unstable();
        self.now = match rng.below(5) {
            0 | 1 => self.now,
            2 | 3 => self.now + micros(1 + rng.below(400_000) as u64),
            _ if boundaries.is_empty() => self.now + micros(rng.below(3_000_000) as u64),
            _ if rng.below(2) == 0 => boundaries[0],
            _ => boundaries[rng.below(boundaries.len())],
        };
    }

    /// Ticks the machine and checks it against the brute-force sweep.
    fn tick(&mut self) {
        let now = self.now;
        let ctx = format!("seed {} step {} at {now}", self.seed, self.step);
        let cfg = self.node.cfg.clone();
        let lifetime = cfg.neighbor_lifetime();

        let mut routes: BTreeMap<Addr, RouteEntry> = self
            .node
            .routes()
            .iter()
            .map(|e| (e.dest, e.clone()))
            .collect();
        let gone: Vec<Addr> = self
            .heard
            .iter()
            .filter(|(_, &t)| now.saturating_since(t) > lifetime)
            .map(|(&a, _)| a)
            .collect();
        let mut link_actions = Vec::new();
        for &neighbor in &gone {
            link_actions.push(Action::Event(Event::LinkBroken { neighbor }));
            let mut unreachable = Vec::new();
            for e in routes.values_mut() {
                if e.state == RouteState::Valid && e.next_hop == neighbor {
                    e.state = RouteState::Invalid;
                    let seq = e.dest_seq.map_or(0, |s| s.wrapping_add(1));
                    e.dest_seq = Some(seq);
                    if !std::mem::take(&mut e.precursors).is_empty() {
                        unreachable.push((e.dest, seq));
                    }
                }
            }
            if !unreachable.is_empty() {
                link_actions.push(Action::Broadcast {
                    msg: Message::Rerr(Rerr { unreachable }),
                });
            }
        }
        for e in routes.values_mut() {
            if e.state == RouteState::Valid && e.expires <= now {
                e.state = RouteState::Invalid;
            }
        }
        let prune = |cache: &SeenCache| -> HashMap<(Addr, u64), Time> {
            cache
                .seen
                .iter()
                .filter(|(_, &t)| now.saturating_since(t) <= cache.horizon)
                .map(|(&k, &t)| (k, t))
                .collect()
        };
        let mut rreq_seen = prune(&self.node.rreq_seen);
        let data_seen = prune(&self.node.data_seen);

        let actions = self.node.tick(now);

        // Discovery retries in the same tick record their own RREQ ids.
        for a in &actions {
            if let Action::Broadcast {
                msg: Message::Rreq(r),
            } = a
            {
                rreq_seen.insert((r.orig, r.rreq_id), now);
            }
        }
        for neighbor in &gone {
            self.heard.remove(neighbor);
        }
        let link: Vec<Action> = actions
            .iter()
            .filter(|a| {
                matches!(
                    a,
                    Action::Event(Event::LinkBroken { .. })
                        | Action::Broadcast {
                            msg: Message::Rerr(_)
                        }
                )
            })
            .cloned()
            .collect();
        assert_eq!(link, link_actions, "link-break actions, {ctx}");
        assert_eq!(
            self.node.routes().iter().cloned().collect::<Vec<_>>(),
            routes.into_values().collect::<Vec<_>>(),
            "routing table, {ctx}"
        );
        assert!(
            self.node.neighbors().eq(self.heard.keys().copied()),
            "neighbors, {ctx}"
        );
        assert_eq!(self.node.rreq_seen.seen, rreq_seen, "RREQ ids, {ctx}");
        assert_eq!(self.node.data_seen.seen, data_seen, "data ids, {ctx}");
    }

    /// One random step.
    fn step(&mut self, rng: &mut TestRng) {
        self.step += 1;
        self.advance(rng);
        let from = peer(rng, 6);
        match rng.below(20) {
            0..=5 => {
                // Mostly a neighbor's own Hello; sometimes one relayed.
                let orig = if rng.below(8) == 0 {
                    peer(rng, 6)
                } else {
                    from
                };
                let seq = seq(rng);
                self.receive(from, Message::Hello(Hello { orig, seq }));
            }
            6 | 7 => {
                let orig = if rng.below(8) == 0 { ME } else { peer(rng, 8) };
                let dest = if rng.below(3) == 0 { ME } else { peer(rng, 9) };
                let rreq = Rreq {
                    rreq_id: rng.below(4) as u64,
                    dest,
                    dest_seq: (rng.below(2) == 0).then(|| seq(rng)),
                    orig,
                    orig_seq: seq(rng),
                    hop_count: rng.below(4) as u8,
                    ttl: rng.below(3) as u8,
                    next_hop_inquiry: rng.below(2) == 0,
                };
                self.receive(from, Message::Rreq(rreq));
            }
            8 | 9 => {
                let rrep = Rrep {
                    dest: peer(rng, 9),
                    dest_seq: seq(rng),
                    orig: if rng.below(2) == 0 { ME } else { peer(rng, 9) },
                    hop_count: rng.below(4) as u8,
                    lifetime: micros(rng.below(4_000_000) as u64),
                    next_hop: None,
                };
                self.receive(from, Message::Rrep(rrep));
            }
            10 | 11 => {
                let data = DataPacket {
                    orig: peer(rng, 9),
                    dest: if rng.below(4) == 0 { ME } else { peer(rng, 9) },
                    seq_no: rng.below(4) as u64,
                    ttl: rng.below(3) as u8,
                };
                self.receive(from, Message::Data(data));
            }
            12 => {
                let gone = peer(rng, 9);
                self.node.purge_node(gone);
                self.heard.remove(&gone);
            }
            13 => self.node.invalidate_route(peer(rng, 9)),
            14 => {
                let _ = self.node.send_data(peer(rng, 9), self.now);
            }
            _ => self.tick(),
        }
        assert!(
            self.node.neighbors().eq(self.heard.keys().copied()),
            "neighbors, seed {} step {}",
            self.seed,
            self.step
        );
    }
}

/// The default timers, or a mix with a zero hello interval (a neighbor's
/// Hello route then expires the instant it is installed) and a short
/// active-route timeout (1-hop routes expire before the link breaks).
fn config(rng: &mut TestRng) -> AodvConfig {
    let mut cfg = AodvConfig::default();
    if rng.below(2) == 0 {
        cfg.hello_interval = micros([0, 300_000, 1_000_000][rng.below(3)]);
        cfg.allowed_hello_loss = 1 + rng.below(3) as u32;
        cfg.active_route_timeout = micros([0, 500_000, 3_000_000][rng.below(3)]);
    }
    cfg
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn gated_sweeps_match_brute_force(seed in any::<u64>()) {
        let mut rng = TestRng::seed(seed);
        let mut h = Harness::new(config(&mut rng), seed);
        for _ in 0..400 {
            h.step(&mut rng);
        }
        h.tick();
    }
}

#[test]
fn neighbor_survives_its_lifetime_and_goes_one_micro_later() {
    let mut node = Aodv::new(ME, AodvConfig::default());
    let lifetime = AodvConfig::default().neighbor_lifetime();
    let heard = Time::from_millis(1_250);
    node.handle_message(
        Addr(7),
        Message::Hello(Hello {
            orig: Addr(7),
            seq: 3,
        }),
        heard,
    );
    let kept = node.tick(heard + lifetime);
    assert!(node.neighbors().eq([Addr(7)]));
    assert!(!kept
        .iter()
        .any(|a| matches!(a, Action::Event(Event::LinkBroken { .. }))));
    let dropped = node.tick(heard + lifetime + micros(1));
    assert_eq!(node.neighbors().count(), 0);
    assert!(dropped.contains(&Action::Event(Event::LinkBroken { neighbor: Addr(7) })));
}

#[test]
fn route_expiring_now_turns_invalid() {
    let mut node = Aodv::new(ME, AodvConfig::default());
    let expires = Time::from_millis(4_000);
    // A reply installs a route to 9 via 2 that expires at 4 s.
    let rrep = Rrep {
        dest: Addr(9),
        dest_seq: 5,
        orig: Addr(3),
        hop_count: 2,
        lifetime: expires.since(Time::ZERO),
        next_hop: None,
    };
    node.handle_message(Addr(2), Message::Rrep(rrep), Time::ZERO);
    // Keep the next hop alive so only expiry can invalidate the route.
    for ms in (0..=3_000).step_by(1_000) {
        let t = Time::from_millis(ms);
        node.handle_message(
            Addr(2),
            Message::Hello(Hello {
                orig: Addr(2),
                seq: 1,
            }),
            t,
        );
    }
    node.tick(Time::from_micros(expires.as_micros() - 1));
    assert_eq!(
        node.routes().lookup(Addr(9)).unwrap().state,
        RouteState::Valid
    );
    node.tick(expires);
    assert_eq!(
        node.routes().lookup(Addr(9)).unwrap().state,
        RouteState::Invalid
    );
}
