//! # blackdp-sim — deterministic discrete-event VANET simulator
//!
//! This crate is the simulation substrate for the BlackDP reproduction: a
//! single-threaded, fully deterministic discrete-event engine with a
//! unit-disk radio medium, a wired RSU/TA backbone, timers, and statistics
//! counters.
//!
//! The design is deliberately minimal and protocol-agnostic:
//!
//! * **Virtual time** is integer microseconds ([`Time`], [`Duration`]) so
//!   event ordering is exact and runs reproduce bit-for-bit from a seed.
//! * **Nodes** implement the [`Node`] trait — pure state machines that react
//!   to packets and timers through a [`Context`] capability handle.
//! * **The radio** is a unit-disk model: a transmission reaches every active
//!   node within `radio_range_m` meters of the sender at transmission time,
//!   after a configurable latency, jitter, and loss draw. This matches the
//!   paper's assumption of an identical, bidirectional 1000 m DSRC range for
//!   all nodes.
//! * **The wired channel** models the paper's "high speed links" between
//!   RSUs (and to trusted authorities); it ignores distance and never drops
//!   — unless a fault plan severs it.
//! * **Faults are first-class**: a [`FaultPlan`] schedules node
//!   crash/restart windows, wired-backhaul outages, burst radio loss and
//!   payload tampering in virtual time, all drawn from the same seeded
//!   stream so faulty runs stay bit-for-bit reproducible.
//!
//! # Examples
//!
//! A two-node ping-pong:
//!
//! ```
//! use blackdp_sim::{Channel, Context, Node, NodeId, Position, Time, World, WorldConfig};
//!
//! struct Player {
//!     at: Position,
//!     hits: u32,
//! }
//!
//! impl Node<u32, ()> for Player {
//!     fn position(&self, _now: Time) -> Position {
//!         self.at
//!     }
//!     fn on_packet(&mut self, ctx: &mut Context<'_, u32, ()>, from: NodeId, ball: u32, _ch: Channel) {
//!         self.hits += 1;
//!         if ball > 0 {
//!             ctx.send(from, ball - 1);
//!         }
//!     }
//!     fn on_timer(&mut self, _ctx: &mut Context<'_, u32, ()>, _token: ()) {}
//! }
//!
//! let mut world = World::new(WorldConfig::default());
//! let a = world.spawn(Box::new(Player { at: Position::new(0.0, 0.0), hits: 0 }));
//! let b = world.spawn(Box::new(Player { at: Position::new(800.0, 0.0), hits: 0 }));
//! world.inject(Time::ZERO, a, b, 5, Channel::Radio);
//! world.run_to_completion(100);
//! assert_eq!(world.stats().get("radio.rx"), 6);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod budget;
mod event;
mod fault;
mod grid;
mod harness;
mod id;
mod node;
mod oracle;
mod position;
mod shard;
mod stats;
mod time;
mod wallclock;
mod world;

pub use budget::thread_budget;
pub use event::{Channel, TimerId};
pub use harness::{NodeEffect, NodeHarness};
pub use fault::{CrashFault, FaultPlan, FaultWindow, RadioBurst, TamperBurst, WiredOutage};
pub use id::NodeId;
pub use node::{Context, Node};
pub use oracle::{InvariantCheck, SimEvent, Violation, ViolationSink};
pub use position::Position;
pub use shard::ShardDiagnostics;
pub use stats::Stats;
pub use time::{Duration, Time};
pub use wallclock::WallClock;
pub use world::{
    BoundaryTap, EngineStamp, NeighborIndex, RadioModel, Tap, TamperHook, World, WorldBackend,
    WorldConfig,
};
