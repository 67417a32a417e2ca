//! Driving a [`Node`] outside the simulator.
//!
//! The discrete-event [`World`](crate::World) owns the only code path that
//! constructs a [`Context`] and drains its buffered effects — both are
//! crate-private, which is exactly right inside the simulator but leaves no
//! way for an external host (the `blackdpd` UDP daemon) to reuse the
//! existing sans-io `Node` implementations. [`NodeHarness`] is that way: it
//! holds the per-node runtime state a `World` would (statistics, the
//! dispatch counter that mints timer ids) and exposes
//! [`NodeHarness::dispatch`], which runs one node callback and returns the
//! emitted effects as the public [`NodeEffect`] for the host to execute
//! however it likes (UDP datagrams, OS timers, process exit).
//!
//! The harness shares the engine's effect vocabulary *and* its timer-id
//! scheme: ids are `(dispatch index << 16) | within-dispatch index`,
//! strictly increasing in arming order, exactly as the simulator mints them
//! (see [`Context::set_timer`]). A protocol node therefore cannot observe
//! whether it is running under the simulator or a live daemon.

use crate::event::{Channel, TimerId};
use crate::id::NodeId;
use crate::node::{Context, Effect, Node, TIMER_LOCAL_BITS};
use crate::stats::Stats;
use crate::time::Time;

/// A buffered node effect, surfaced to an external host.
///
/// Mirrors the simulator's internal effect vocabulary one-to-one; the host
/// decides what "unicast" or "set timer" means in its world (for the daemon:
/// a UDP datagram, a socket read deadline).
#[derive(Debug, Clone, PartialEq)]
pub enum NodeEffect<P, T> {
    /// Deliver `payload` to one radio peer.
    Unicast {
        /// The destination node.
        to: NodeId,
        /// The payload to deliver.
        payload: P,
    },
    /// Deliver `payload` to every radio peer in range.
    Broadcast {
        /// The payload to deliver.
        payload: P,
    },
    /// Deliver `payload` over the wired backbone.
    Wired {
        /// The destination node.
        to: NodeId,
        /// The payload to deliver.
        payload: P,
    },
    /// Arm a timer: deliver `token` back to the node at `at`.
    SetTimer {
        /// Identifier for cancellation.
        id: TimerId,
        /// Virtual deadline.
        at: Time,
        /// Token handed back to [`Node::on_timer`].
        token: T,
    },
    /// Disarm a previously set timer (no-op if already fired).
    CancelTimer(
        /// The timer to disarm.
        TimerId,
    ),
    /// The node is done: deliver nothing further and shut it down.
    Despawn,
}

impl<P, T> From<Effect<P, T>> for NodeEffect<P, T> {
    fn from(e: Effect<P, T>) -> Self {
        match e {
            Effect::Unicast { to, payload } => NodeEffect::Unicast { to, payload },
            Effect::Broadcast { payload } => NodeEffect::Broadcast { payload },
            Effect::Wired { to, payload } => NodeEffect::Wired { to, payload },
            Effect::SetTimer { id, at, token } => NodeEffect::SetTimer { id, at, token },
            Effect::CancelTimer(id) => NodeEffect::CancelTimer(id),
            Effect::Despawn => NodeEffect::Despawn,
        }
    }
}

/// Per-node runtime state for hosting a [`Node`] outside the simulator.
#[derive(Debug, Default)]
pub struct NodeHarness {
    stats: Stats,
    next_dispatch: u64,
}

impl NodeHarness {
    /// Creates a fresh harness.
    ///
    /// Node callbacks are pure effect emitters (they hold no engine RNG),
    /// so the harness needs no seed: a node replayed against the same
    /// inputs emits the same effects.
    pub fn new() -> Self {
        NodeHarness::default()
    }

    /// The statistics counters accumulated across dispatches.
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// Runs one node callback at virtual time `now` and returns its result
    /// plus the effects it emitted, in emission order.
    ///
    /// The closure receives the [`Context`]; call [`Node::on_start`],
    /// [`Node::on_packet`], or [`Node::on_timer`] inside it.
    pub fn dispatch<P, T, R>(
        &mut self,
        now: Time,
        self_id: NodeId,
        f: impl FnOnce(&mut Context<'_, P, T>) -> R,
    ) -> (R, Vec<NodeEffect<P, T>>) {
        let timer_base = self.next_dispatch << TIMER_LOCAL_BITS;
        self.next_dispatch += 1;
        let mut ctx = Context {
            now,
            self_id,
            stats: &mut self.stats,
            timer_base,
            timers_armed: 0,
            effects: Vec::new(),
        };
        let result = f(&mut ctx);
        let effects = ctx.effects.into_iter().map(NodeEffect::from).collect();
        (result, effects)
    }

    /// Convenience: delivers a packet via [`Node::on_packet`].
    pub fn deliver<P: 'static, T: 'static>(
        &mut self,
        node: &mut dyn Node<P, T>,
        now: Time,
        self_id: NodeId,
        from: NodeId,
        packet: P,
        channel: Channel,
    ) -> Vec<NodeEffect<P, T>> {
        self.dispatch(now, self_id, |ctx| {
            node.on_packet(ctx, from, packet, channel)
        })
        .1
    }

    /// Convenience: fires a timer via [`Node::on_timer`].
    pub fn fire<P: 'static, T: 'static>(
        &mut self,
        node: &mut dyn Node<P, T>,
        now: Time,
        self_id: NodeId,
        token: T,
    ) -> Vec<NodeEffect<P, T>> {
        self.dispatch(now, self_id, |ctx| node.on_timer(ctx, token)).1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::position::Position;
    use crate::time::Duration;

    /// A toy node: every timer tick broadcasts its tick count and re-arms.
    struct Ticker {
        ticks: u64,
    }

    impl Node<u64, ()> for Ticker {
        fn position(&self, _now: Time) -> Position {
            Position::new(0.0, 0.0)
        }

        fn on_start(&mut self, ctx: &mut Context<'_, u64, ()>) {
            ctx.set_timer(Duration::from_millis(100), ());
        }

        fn on_packet(&mut self, ctx: &mut Context<'_, u64, ()>, _from: NodeId, pkt: u64, _c: Channel) {
            if pkt == 42 {
                ctx.despawn();
            }
        }

        fn on_timer(&mut self, ctx: &mut Context<'_, u64, ()>, _token: ()) {
            self.ticks += 1;
            ctx.broadcast(self.ticks);
            ctx.set_timer(Duration::from_millis(100), ());
        }
    }

    #[test]
    fn dispatch_surfaces_effects_in_emission_order() {
        let mut h = NodeHarness::new();
        let mut node = Ticker { ticks: 0 };
        let id = NodeId::new(3);

        let (_, effects) = h.dispatch(Time::ZERO, id, |ctx| node.on_start(ctx));
        assert!(matches!(
            effects.as_slice(),
            [NodeEffect::SetTimer { at, .. }] if *at == Time::from_millis(100)
        ));

        let effects = h.fire(&mut node, Time::from_millis(100), id, ());
        assert_eq!(effects.len(), 2);
        assert!(matches!(effects[0], NodeEffect::Broadcast { payload: 1 }));
        assert!(matches!(effects[1], NodeEffect::SetTimer { .. }));

        let effects = h.deliver(&mut node, Time::from_millis(150), id, NodeId::new(9), 42, Channel::Radio);
        assert_eq!(effects, vec![NodeEffect::Despawn]);
    }

    #[test]
    fn timer_ids_stay_unique_and_increasing_across_dispatches() {
        let mut h = NodeHarness::new();
        let mut node = Ticker { ticks: 0 };
        let id = NodeId::new(1);
        let mut last = None;
        let mut check = |effects: Vec<NodeEffect<u64, ()>>| {
            for e in effects {
                if let NodeEffect::SetTimer { id, .. } = e {
                    assert!(
                        last.is_none_or(|prev| id.raw() > prev),
                        "timer ids must increase in arming order"
                    );
                    last = Some(id.raw());
                }
            }
        };
        let (_, effects) = h.dispatch::<u64, (), _>(Time::ZERO, id, |ctx| node.on_start(ctx));
        check(effects);
        for i in 1..5u64 {
            check(h.fire(&mut node, Time::from_millis(100 * i), id, ()));
        }
    }
}
