//! The simulation world: nodes, radio medium, and the event loop.

use std::any::Any;
use std::collections::HashSet;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::event::{Channel, EventQueue, Occurrence, Scheduled};
use crate::fault::{FaultInjector, FaultPlan, Transition};
use crate::grid::SpatialGrid;
use crate::node::{Context, Effect, Node, StatSink, TIMER_LOCAL_BITS};
use crate::oracle::{InvariantCheck, Oracle, SimEvent, Violation};
use crate::shard::{exact_mode, ShardDiagnostics, ShardedIndex, SlotView};
use crate::{Duration, NodeId, Stats, Time};

#[path = "executor.rs"]
mod executor;

/// The radio propagation model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RadioModel {
    /// Classic unit disk: reception succeeds iff the receiver is within
    /// `radio_range_m` (the paper's assumption of an identical,
    /// bidirectional DSRC range).
    UnitDisk,
    /// Distance-dependent fading: reception is certain within
    /// `full_fraction · radio_range_m`, impossible beyond `radio_range_m`,
    /// and decays linearly in between — a lightweight stand-in for
    /// log-distance path loss without per-link state.
    Fading {
        /// Fraction of the range with guaranteed reception, in `(0, 1]`.
        full_fraction: f64,
    },
}

/// The data structure the radio medium uses to find broadcast receivers.
///
/// Both strategies yield **bit-identical** simulations: the grid applies the
/// same inclusive range check to the same positions and hands receivers to
/// the medium in the same ascending-id order as the scan, so every random
/// draw (fading, loss, burst, jitter) happens in the same sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum NeighborIndex {
    /// Spatial index (see [`WorldBackend`]) where one outlives a
    /// timestamp: broadcasts query the sharded index with a staleness
    /// horizon. A per-timestamp index (the serial grid, or the sharded
    /// index in exact mode) must evaluate and hash every position before
    /// it answers, which costs more than a scan, and radio jitter puts
    /// almost every broadcast on a fresh timestamp; so those backends
    /// answer broadcasts with the scan. The default.
    #[default]
    Grid,
    /// Brute-force scan over every node: O(N) per broadcast. Kept as the
    /// reference implementation for differential tests and benchmarks.
    Scan,
}

/// The engine answering broadcast neighbor queries.
///
/// Mirrors [`NeighborIndex`]: every backend is **bit-identical** — same
/// inclusive range check on the same live-evaluated positions, same
/// ascending-id receiver order, hence the same RNG draw sequence, traces,
/// `Stats::digest`, and [`EngineStamp`] witnesses for any shard count. The
/// backend only changes how fast queries are answered.
///
/// On the broadcast path the backend applies only to the sharded index
/// with a staleness horizon under [`NeighborIndex::Grid`] (the default);
/// every other combination answers broadcasts with the brute-force scan
/// (see [`NeighborIndex::Grid`]). [`World::neighbors_of`] always queries
/// the backend's index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WorldBackend {
    /// The serial `SpatialGrid`, rebuilt per `(timestamp, slots)` stamp
    /// for [`World::neighbors_of`]; broadcasts scan. The default, and the
    /// differential oracle for the sharded backend.
    #[default]
    Serial,
    /// Spatially sharded index: contiguous bands of grid-cell columns with
    /// parallel per-band rebuilds, deterministic boundary handoff merges,
    /// and a motion-bound staleness horizon (see
    /// [`WorldConfig::motion_bound_mps`]) that makes rebuilds rare instead
    /// of per-timestamp. See the `shard` module docs for the design.
    Sharded {
        /// Number of bands (shard count); `0` is treated as `1`.
        shards: u32,
    },
}

/// Which event loop [`World::run_until`] drives.
///
/// Both executors are **bit-identical**: the windowed executor stages
/// handler effects and commits them serially in the exact `(time, seq)`
/// order the serial loop would have used, so traces, `Stats::digest`, and
/// [`EngineStamp`] witnesses agree for any thread count. See the
/// `executor` module docs for the safety argument.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecutorMode {
    /// The classic one-event-at-a-time loop. The default, and the
    /// differential oracle for the windowed executor.
    #[default]
    Serial,
    /// Conservative-window parallel executor: runs of same-window
    /// deliveries execute their handlers on worker threads, then commit
    /// serially. `threads = 0` means "use
    /// [`thread_budget`](crate::thread_budget)".
    Windowed {
        /// Worker count; `0` defers to the `BLACKDP_THREADS` budget.
        threads: usize,
    },
}

/// Physical-layer and engine configuration for a [`World`].
///
/// Defaults follow the paper's Table I: a 1000 m DSRC transmission range
/// with a small per-hop latency, a lossless channel, and a fast wired
/// backbone between RSUs.
#[derive(Debug, Clone)]
pub struct WorldConfig {
    /// Unit-disk radio range in meters (DSRC: up to 1000 m).
    pub radio_range_m: f64,
    /// Fixed per-hop radio latency (propagation + MAC + processing).
    pub radio_latency: Duration,
    /// Uniform random extra latency in `[0, radio_jitter]`, breaking ties
    /// between simultaneous transmissions.
    pub radio_jitter: Duration,
    /// Independent per-link drop probability in `[0, 1]`.
    pub radio_loss: f64,
    /// The propagation model applied on top of `radio_range_m`.
    pub radio_model: RadioModel,
    /// Latency of the wired RSU/TA backbone.
    pub wired_latency: Duration,
    /// Seed for the world's deterministic random stream.
    pub seed: u64,
    /// How broadcast receivers are located (grid vs. brute-force scan).
    pub neighbor_index: NeighborIndex,
    /// Which engine answers grid-indexed neighbor queries (serial grid vs.
    /// sharded bands). Bit-identical by construction; see [`WorldBackend`].
    pub backend: WorldBackend,
    /// Upper bound on any node's speed in meters per virtual second,
    /// consumed by the sharded backend's staleness horizon: the index
    /// stays provably exact while no node can have drifted past its cell
    /// slack, so rebuilds happen every `~range / (2 · bound)` virtual
    /// seconds instead of every timestamp. `f64::INFINITY` (the default)
    /// disables the horizon — the sharded index rebuilds on every new
    /// timestamp, exact for arbitrary motion, so broadcasts scan instead
    /// (see [`NeighborIndex::Grid`]). `0.0` declares a static
    /// world (never rebuild). Declaring a bound smaller than a node's
    /// actual speed breaks the coverage guarantee; the serial backend
    /// ignores this field.
    pub motion_bound_mps: f64,
    /// Which event loop [`World::run_until`] drives (serial oracle vs.
    /// conservative-window parallel executor). Bit-identical by
    /// construction; see [`ExecutorMode`].
    pub executor: ExecutorMode,
}

impl Default for WorldConfig {
    fn default() -> Self {
        WorldConfig {
            radio_range_m: 1000.0,
            radio_latency: Duration::from_millis(2),
            radio_jitter: Duration::from_micros(500),
            radio_loss: 0.0,
            radio_model: RadioModel::UnitDisk,
            wired_latency: Duration::from_millis(1),
            seed: 0,
            neighbor_index: NeighborIndex::Grid,
            backend: WorldBackend::Serial,
            motion_bound_mps: f64::INFINITY,
            executor: ExecutorMode::Serial,
        }
    }
}

struct Slot<P, T> {
    node: Box<dyn Node<P, T>>,
    active: bool,
    /// Crashed (fault-injected pause): the node keeps its slot and state
    /// but receives nothing until resumed.
    paused: bool,
    /// Timers with an id below this were armed before the node's most
    /// recent crash and are stale: a rebooted node does not remember them.
    timer_barrier: u64,
}

/// Narrow, `Sync` view over the slot vector handed to the sharded index so
/// its band workers can evaluate positions from scoped threads.
/// (`dyn Node` is `Send + Sync` by trait bound, so sharing `&[Slot]` is
/// safe; nothing else of the world crosses a thread boundary.)
struct SlotsView<'a, P, T>(&'a [Slot<P, T>]);

impl<P: 'static, T: 'static> SlotView for SlotsView<'_, P, T> {
    fn slot_count(&self) -> usize {
        self.0.len()
    }

    fn is_active(&self, index: u32) -> bool {
        self.0[index as usize].active
    }

    fn position(&self, index: u32, now: Time) -> crate::Position {
        self.0[index as usize].node.position(now)
    }
}

/// A discrete-event simulation of radio-equipped nodes on a plane.
///
/// `P` is the packet payload type shared by every protocol in the run; `T`
/// is the timer-token type. Both are typically enums defined by the
/// scenario layer.
///
/// # Examples
///
/// ```
/// use blackdp_sim::{Channel, Context, Node, NodeId, Position, Time, World, WorldConfig};
///
/// struct Echo {
///     at: Position,
///     heard: u32,
/// }
///
/// impl Node<u32, ()> for Echo {
///     fn position(&self, _now: Time) -> Position {
///         self.at
///     }
///     fn on_packet(&mut self, ctx: &mut Context<'_, u32, ()>, from: NodeId, n: u32, _ch: Channel) {
///         self.heard += 1;
///         if n > 0 {
///             ctx.send(from, n - 1);
///         }
///     }
///     fn on_timer(&mut self, _ctx: &mut Context<'_, u32, ()>, _token: ()) {}
/// }
///
/// let mut world = World::new(WorldConfig::default());
/// let a = world.spawn(Box::new(Echo { at: Position::new(0.0, 0.0), heard: 0 }));
/// let b = world.spawn(Box::new(Echo { at: Position::new(500.0, 0.0), heard: 0 }));
/// world.inject(Time::ZERO, a, b, 3, Channel::Radio);
/// world.run_to_completion(10_000);
/// let echo_a: &Echo = world.get(a).unwrap();
/// let echo_b: &Echo = world.get(b).unwrap();
/// assert_eq!(echo_a.heard + echo_b.heard, 4);
/// ```
pub struct World<P, T> {
    cfg: WorldConfig,
    nodes: Vec<Slot<P, T>>,
    queue: EventQueue<P, T>,
    cancelled_timers: HashSet<u64>,
    now: Time,
    rng: StdRng,
    stats: Stats,
    /// Index assigned to the next handler dispatch. Dispatch indices are
    /// handed out in serial `(time, seq)` order — by the serial loop and
    /// by the windowed executor's serial scan alike — and form the high
    /// bits of every [`TimerId`](crate::TimerId) armed during that
    /// dispatch, so timer ids are independent of the thread count.
    next_dispatch: u64,
    /// Timers ever armed, across all dispatches (an [`EngineStamp`]
    /// witness; the successor of the retired global timer-id counter).
    timers_armed_total: u64,
    tap: Option<Tap<P>>,
    injector: Option<FaultInjector>,
    tamper: Option<TamperHook<P>>,
    /// Installed invariant checks, if any (`None` = zero-cost path).
    oracle: Option<Box<Oracle<P>>>,
    /// Spatial index over active-node positions, built lazily by
    /// [`World::neighbors_of`] under the serial backend.
    grid: SpatialGrid,
    /// `(timestamp, slot count)` the grid was last built for. Positions are
    /// pure functions of time and the active set only shrinks within a
    /// timestamp (despawn is one-way; spawning bumps the slot count), so a
    /// matching stamp guarantees the grid is a superset of the live active
    /// set — stale entries are filtered at query time.
    grid_stamp: Option<(Time, usize)>,
    /// Sharded spatial index, built lazily on first use when the backend
    /// is [`WorldBackend::Sharded`]. Like `grid`, this is a derived cache:
    /// it never appears in [`EngineStamp`] witnesses.
    sharded: Option<ShardedIndex>,
    /// Observer of radio deliveries whose sender and receiver sit in
    /// different shard bands; `None` costs nothing.
    boundary_tap: Option<BoundaryTap<P>>,
    /// Observer of windowed-executor window contents and boundaries;
    /// `None` costs nothing and the serial executor never fires it.
    window_tap: Option<WindowTap<P>>,
    /// Reusable receiver buffer for the broadcast hot path.
    recv_scratch: Vec<(u32, f64)>,
    /// Reusable effect buffer for the dispatch hot path.
    effects_scratch: Vec<Effect<P, T>>,
    /// Persistent windowed-executor worker pool, created on the first
    /// multi-lane window and reused for every window after it (spawning
    /// threads per window would dominate sub-millisecond windows). A
    /// derived runtime resource like `grid`: never part of a stamp.
    window_pool: Option<executor::WindowPool<P, T>>,
}

/// A verification witness of the engine's full dynamic state at one
/// instant, captured by [`World::engine_stamp`].
///
/// The simulation is deterministic: its state at any virtual time is a
/// pure function of the construction inputs and the event history. A
/// stamp therefore does not need to serialize nodes or queued payloads —
/// it pins down the trajectory with a handful of exact witnesses (clock,
/// scheduling counters, the RNG's full internal state, digests of the
/// counters and of every node's opt-in
/// [`Node::state_digest`](crate::Node::state_digest)). Two runs whose
/// stamps agree at a checkpoint boundary have made identical random
/// draws, scheduled identical occurrences, and hold identical witnessed
/// node state — which is what checkpoint/restore verifies before resuming
/// a trial mid-flight.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineStamp {
    /// Current virtual time in microseconds.
    pub now_micros: u64,
    /// Occurrences ever scheduled (the queue's insertion counter).
    pub scheduled: u64,
    /// Occurrences still pending in the queue.
    pub pending: u64,
    /// Timers ever armed.
    pub timers_armed: u64,
    /// The engine RNG's full internal state (xoshiro256++ words).
    pub rng_state: [u64; 4],
    /// Digest of every statistics counter ([`Stats::digest`]).
    pub stats_digest: u64,
    /// Order-sensitive fold of every spawned node's
    /// [`Node::state_digest`](crate::Node::state_digest) (inactive slots
    /// contribute their liveness flags, so despawn/crash state is pinned
    /// too).
    pub node_digest: u64,
    /// Spawned nodes still active.
    pub active_nodes: u32,
}

/// A delivery observer: called for every packet delivered to an active
/// node, with `(time, from, to, payload, channel)`.
pub type Tap<P> = Box<dyn FnMut(Time, NodeId, NodeId, &P, Channel)>;

/// A payload-tampering hook installed via [`World::set_tamper_hook`]:
/// called on deliveries selected by an active tamper window with a
/// mutable payload and the world's RNG. Returns whether the payload was
/// actually mutated (counted as `fault.tamper`).
pub type TamperHook<P> = Box<dyn FnMut(&mut P, &mut StdRng) -> bool>;

/// A cross-shard delivery observer installed via
/// [`World::set_boundary_tap`]: called with
/// `(time, from, to, payload, from_band, to_band)` for every radio packet
/// delivered to an active node whose sender and receiver currently sit in
/// **different** shard bands. Only fires under [`WorldBackend::Sharded`]
/// once the band geometry exists; purely observational (no RNG draws, no
/// stats), so installing it cannot perturb a trace.
pub type BoundaryTap<P> = Box<dyn FnMut(Time, NodeId, NodeId, &P, u32, u32)>;

/// One observation fired by the windowed executor's serial scan phase.
///
/// Purely observational (fired before any handler runs, in exact
/// `(time, seq)` order, with no RNG draws and no stats), so installing a
/// window tap cannot perturb a trace. The serial executor never fires it.
#[derive(Debug)]
pub enum WindowEvent<'a, P> {
    /// A delivery admitted to the current parallel window, in serial
    /// order. Fired after the engine's gating (inactive / crashed drops),
    /// so every `Delivery` will reach its node's `on_packet`.
    Delivery {
        /// Delivery time.
        at: Time,
        /// Transmitting node.
        from: NodeId,
        /// Receiving node.
        to: NodeId,
        /// Channel the packet travelled on.
        channel: Channel,
        /// The delivered payload.
        payload: &'a P,
    },
    /// The window's scan is complete; handler execution is about to
    /// begin. `at` is the window's last event time. Listeners that batch
    /// work across a window (e.g. the scenario-level verify prefetcher)
    /// flush here, so results are warm before any handler needs them.
    Flush {
        /// The window's last event time.
        at: Time,
    },
}

/// A window observer installed via [`World::set_window_tap`].
pub type WindowTap<P> = Box<dyn FnMut(WindowEvent<'_, P>)>;

impl<P, T> std::fmt::Debug for World<P, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("World")
            .field("now", &self.now)
            .field("nodes", &self.nodes.len())
            .field("pending_events", &self.queue.len())
            .finish()
    }
}

impl<P: Clone + Send + 'static, T: Clone + Send + 'static> World<P, T> {
    /// Creates an empty world with the given configuration.
    pub fn new(cfg: WorldConfig) -> Self {
        assert!(
            (0.0..=1.0).contains(&cfg.radio_loss),
            "radio_loss must be a probability in [0, 1]"
        );
        assert!(
            cfg.radio_range_m > 0.0 && cfg.radio_range_m.is_finite(),
            "radio_range_m must be positive and finite"
        );
        if let RadioModel::Fading { full_fraction } = cfg.radio_model {
            assert!(
                full_fraction > 0.0 && full_fraction <= 1.0,
                "full_fraction must be in (0, 1]"
            );
        }
        assert!(
            cfg.motion_bound_mps >= 0.0,
            "motion_bound_mps must be non-negative (or infinite for exact mode)"
        );
        let rng = StdRng::seed_from_u64(cfg.seed);
        World {
            cfg,
            nodes: Vec::new(),
            queue: EventQueue::new(),
            cancelled_timers: HashSet::new(),
            now: Time::ZERO,
            rng,
            stats: Stats::new(),
            next_dispatch: 0,
            timers_armed_total: 0,
            tap: None,
            injector: None,
            tamper: None,
            oracle: None,
            grid: SpatialGrid::new(),
            grid_stamp: None,
            sharded: None,
            boundary_tap: None,
            window_tap: None,
            recv_scratch: Vec::new(),
            effects_scratch: Vec::new(),
            window_pool: None,
        }
    }

    /// Installs a [`FaultPlan`], replacing any previous one. Crash and
    /// restart edges are applied at their scheduled virtual times as the
    /// world runs; window-based faults (wired outages, radio bursts,
    /// tampering) take effect whenever the clock is inside their window.
    ///
    /// # Panics
    ///
    /// Panics if the plan is internally inconsistent or schedules a crash
    /// edge in the past.
    pub fn install_faults(&mut self, plan: FaultPlan) {
        let injector = FaultInjector::new(plan);
        if let Some(t) = injector.next_transition_at() {
            assert!(t >= self.now, "fault plan schedules a crash in the past");
        }
        self.injector = Some(injector);
    }

    /// Installs the payload-tampering hook consulted during the plan's
    /// tamper windows. Without a hook, tamper windows have no effect.
    pub fn set_tamper_hook(&mut self, hook: TamperHook<P>) {
        self.tamper = Some(hook);
    }

    /// Installs a delivery observer invoked for every packet that reaches
    /// an active node (after loss/range filtering, at delivery time).
    /// Replaces any previous tap. Used by scenario-level frame journals.
    pub fn set_tap(&mut self, tap: Tap<P>) {
        self.tap = Some(tap);
    }

    /// Installs a [`BoundaryTap`] observing radio deliveries that cross a
    /// shard-band boundary. Replaces any previous tap. Inert unless the
    /// backend is [`WorldBackend::Sharded`] and its index has been built
    /// (in exact mode only [`Self::neighbors_of`] builds it).
    pub fn set_boundary_tap(&mut self, tap: BoundaryTap<P>) {
        self.boundary_tap = Some(tap);
    }

    /// Installs a [`WindowTap`] observing the windowed executor's window
    /// contents and flush boundaries. Replaces any previous tap. Inert
    /// under [`ExecutorMode::Serial`] (and for windows too small to run
    /// in parallel); see [`WindowEvent`] for why it cannot perturb a
    /// trace.
    pub fn set_window_tap(&mut self, tap: WindowTap<P>) {
        self.window_tap = Some(tap);
    }

    /// Activity counters of the sharded backend ([`ShardDiagnostics`]),
    /// once a sharded query has run. `None` under the serial backend (or
    /// before the first broadcast). Deliberately not part of
    /// [`Stats`]: these counters depend on the backend, while
    /// `Stats::digest` must stay backend-invariant.
    pub fn shard_diagnostics(&self) -> Option<ShardDiagnostics> {
        self.sharded.as_ref().map(|s| s.diagnostics())
    }

    /// The shard band owning `id`'s current position, once band geometry
    /// exists. `None` under the serial backend, before the first sharded
    /// query, or if `id` is not active.
    pub fn shard_band_of(&self, id: NodeId) -> Option<u32> {
        let map = self.sharded.as_ref()?.band_map()?;
        Some(map.band_of_pos(self.position_of(id)?) as u32)
    }

    /// Installs a runtime invariant check, evaluated against every packet
    /// event from this point on. Checks accumulate; violations from all of
    /// them share one bounded sink (see [`Self::violations`]).
    pub fn add_invariant(&mut self, check: Box<dyn InvariantCheck<P>>) {
        self.oracle
            .get_or_insert_with(|| Box::new(Oracle::new()))
            .checks
            .push(check);
    }

    /// Runs every installed check's end-of-run audit. Idempotent; called
    /// by harnesses after the simulation horizon.
    pub fn finish_invariants(&mut self) {
        let now = self.now;
        if let Some(oracle) = self.oracle.as_deref_mut() {
            oracle.finish(now);
        }
    }

    /// Invariant violations recorded so far (empty without checks).
    pub fn violations(&self) -> &[Violation] {
        self.oracle
            .as_deref()
            .map(|o| o.sink.violations())
            .unwrap_or(&[])
    }

    /// Violations discarded because the bounded sink was full.
    pub fn violations_overflow(&self) -> u64 {
        self.oracle.as_deref().map_or(0, |o| o.sink.overflow())
    }

    /// `(name, times exercised)` for every installed invariant check.
    pub fn invariants_exercised(&self) -> Vec<(&'static str, u64)> {
        self.oracle
            .as_deref()
            .map(|o| o.checks.iter().map(|c| (c.name(), c.exercised())).collect())
            .unwrap_or_default()
    }

    /// Routes one engine event to the installed checks, if any.
    #[inline]
    fn observe(&mut self, at: Time, event: SimEvent<'_, P>) {
        if let Some(oracle) = self.oracle.as_deref_mut() {
            oracle.observe(at, &event);
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// The world's configuration.
    pub fn config(&self) -> &WorldConfig {
        &self.cfg
    }

    /// Collected statistics counters.
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// Number of spawned nodes (active or not).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Event-slab slots ever created — the queue's allocation high-water
    /// mark. Steady-state traffic recycles slots, so once a workload
    /// reaches its plateau this stops growing; the perf harness uses it to
    /// assert the event loop runs allocation-free per event.
    pub fn event_slab_slots(&self) -> usize {
        self.queue.slab_capacity()
    }

    /// Captures an [`EngineStamp`] witnessing the engine's dynamic state
    /// right now. Cheap (one pass over nodes and counters, no payload
    /// serialization); used by scenario checkpointing at tick boundaries.
    pub fn engine_stamp(&self) -> EngineStamp {
        let mut node_digest = 0xCBF2_9CE4_8422_2325u64;
        let mut active_nodes = 0u32;
        let mut mix = |w: u64| {
            for b in w.to_le_bytes() {
                node_digest ^= u64::from(b);
                node_digest = node_digest.wrapping_mul(0x0000_0100_0000_01B3);
            }
        };
        for (i, slot) in self.nodes.iter().enumerate() {
            if slot.active {
                active_nodes += 1;
            }
            mix(i as u64);
            mix(u64::from(slot.active) | u64::from(slot.paused) << 1);
            mix(slot.timer_barrier);
            mix(slot.node.state_digest());
        }
        EngineStamp {
            now_micros: self.now.as_micros(),
            scheduled: self.queue.pushed(),
            pending: self.queue.len() as u64,
            timers_armed: self.timers_armed_total,
            rng_state: self.rng.state(),
            stats_digest: self.stats.digest(),
            node_digest,
            active_nodes,
        }
    }

    /// Returns true if `id` is spawned and still active (not despawned).
    pub fn is_active(&self, id: NodeId) -> bool {
        self.nodes
            .get(id.as_usize())
            .map(|s| s.active)
            .unwrap_or(false)
    }

    /// Adds a node to the world, invoking its [`Node::on_start`] callback at
    /// the current virtual time. Returns its id.
    pub fn spawn(&mut self, node: Box<dyn Node<P, T>>) -> NodeId {
        let id =
            NodeId::new(u32::try_from(self.nodes.len()).expect("more than u32::MAX nodes spawned"));
        self.nodes.push(Slot {
            node,
            active: true,
            paused: false,
            timer_barrier: 0,
        });
        self.dispatch(id, |node, ctx| node.on_start(ctx));
        id
    }

    /// Returns true if `id` is currently crashed (paused by fault
    /// injection or an explicit [`Self::pause`]).
    pub fn is_paused(&self, id: NodeId) -> bool {
        self.nodes
            .get(id.as_usize())
            .map(|s| s.paused)
            .unwrap_or(false)
    }

    /// Crashes node `id`: it keeps its slot and in-memory state but
    /// receives no packets and no timers until [`Self::resume`]. Timers
    /// armed before the crash are forgotten, like on a real reboot — even
    /// ones scheduled to fire after the restart. No-op if the node is
    /// already paused or was despawned.
    pub fn pause(&mut self, id: NodeId) {
        // Every timer armed before this instant carries a dispatch index
        // below `next_dispatch`, hence an id below this barrier; every
        // timer armed after the restart carries one at or above it.
        let barrier = self.next_dispatch << TIMER_LOCAL_BITS;
        if let Some(slot) = self.nodes.get_mut(id.as_usize()) {
            if slot.active && !slot.paused {
                slot.paused = true;
                slot.timer_barrier = barrier;
                self.stats.incr("fault.crash");
            }
        }
    }

    /// Resumes a crashed node, invoking its
    /// [`Node::on_restart`](crate::Node::on_restart) callback (which
    /// defaults to re-running `on_start`). No-op if the node is not
    /// paused.
    pub fn resume(&mut self, id: NodeId) {
        let Some(slot) = self.nodes.get_mut(id.as_usize()) else {
            return;
        };
        if !slot.paused {
            return;
        }
        slot.paused = false;
        if slot.active {
            self.stats.incr("fault.restart");
            self.dispatch(id, |node, ctx| node.on_restart(ctx));
        }
    }

    /// Marks a node inactive: no further packets or timers reach it. The
    /// node object remains available for inspection via [`Self::get`].
    pub fn despawn(&mut self, id: NodeId) {
        if let Some(slot) = self.nodes.get_mut(id.as_usize()) {
            slot.active = false;
        }
    }

    /// Downcasts the node `id` to its concrete type for inspection.
    ///
    /// Returns `None` if `id` was never spawned or the type does not match.
    pub fn get<N: Any>(&self, id: NodeId) -> Option<&N> {
        let slot = self.nodes.get(id.as_usize())?;
        (slot.node.as_ref() as &dyn Any).downcast_ref::<N>()
    }

    /// Mutable variant of [`Self::get`].
    pub fn get_mut<N: Any>(&mut self, id: NodeId) -> Option<&mut N> {
        let slot = self.nodes.get_mut(id.as_usize())?;
        (slot.node.as_mut() as &mut dyn Any).downcast_mut::<N>()
    }

    /// Position of node `id` at the current time, if it is active.
    pub fn position_of(&self, id: NodeId) -> Option<crate::Position> {
        let slot = self.nodes.get(id.as_usize())?;
        slot.active.then(|| slot.node.position(self.now))
    }

    /// Schedules an externally injected packet delivery — the way scenario
    /// drivers and tests kick off traffic.
    ///
    /// This is a *reliable, out-of-band* control-plane operation: delivery
    /// bypasses the radio medium entirely — no range check, no loss,
    /// fading or burst draw, no jitter — and arrives exactly at `at`. Use
    /// [`Self::inject_radio`] when an injected packet should experience
    /// the medium like node-originated traffic.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past.
    pub fn inject(&mut self, at: Time, from: NodeId, to: NodeId, payload: P, channel: Channel) {
        assert!(at >= self.now, "cannot inject an event in the past");
        self.observe(
            at,
            SimEvent::Enqueued {
                from,
                to,
                channel,
                dist_m: None,
                payload: &payload,
            },
        );
        self.queue.push(
            at,
            to,
            Occurrence::Deliver {
                from,
                payload,
                channel,
            },
        );
    }

    /// Injects a packet *through* the radio medium: range, fading, loss
    /// and burst-loss draws and jitter apply exactly as for a
    /// node-originated unicast, with `at` as the transmission instant.
    ///
    /// Positions are evaluated and random draws made at call time from
    /// the world's seeded stream, so calls must be issued in a
    /// deterministic order to keep runs reproducible.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past.
    pub fn inject_radio(&mut self, at: Time, from: NodeId, to: NodeId, payload: P) {
        assert!(at >= self.now, "cannot inject an event in the past");
        self.stats.incr("radio.tx");
        self.try_radio_deliver(at, from, to, payload);
    }

    /// Executes the next pending event. Returns `false` when the queue is
    /// empty.
    pub fn step(&mut self) -> bool {
        // Crash/restart edges interleave with queued events in time order.
        // A restart may enqueue events *earlier* than the current queue
        // head (e.g. a short timer from `on_restart`), so edges are
        // applied one at a time before committing to an event.
        while let Some(t) = self.queue.peek_time() {
            match self.injector.as_ref().and_then(|i| i.next_transition_at()) {
                Some(tr) if tr <= t => {
                    self.apply_next_fault_transition(tr);
                }
                _ => break,
            }
        }
        let Some(event) = self.queue.pop() else {
            return false;
        };
        debug_assert!(event.time >= self.now, "event queue went backwards");
        self.now = event.time;
        self.process_event(event);
        true
    }

    /// Executes one popped event at `self.now == event.time`: gating
    /// (inactive / crashed / stale-timer drops), tamper draws, taps,
    /// oracle observations, and the handler dispatch itself. Shared by
    /// [`Self::step`] and the windowed executor's solo-event fallbacks.
    fn process_event(&mut self, event: Scheduled<P, T>) {
        let id = event.node;
        let active = self.is_active(id);
        match event.occurrence {
            Occurrence::Deliver {
                from,
                mut payload,
                channel,
            } => {
                if !active {
                    self.stats.incr("drop.inactive");
                    self.observe(
                        event.time,
                        SimEvent::Dropped {
                            from,
                            to: id,
                            channel,
                            payload: &payload,
                        },
                    );
                    return;
                }
                if self.is_paused(id) {
                    self.stats.incr("fault.drop.crashed");
                    self.observe(
                        event.time,
                        SimEvent::Dropped {
                            from,
                            to: id,
                            channel,
                            payload: &payload,
                        },
                    );
                    return;
                }
                if let Some(hook) = self.tamper.as_mut() {
                    let p = self
                        .injector
                        .as_ref()
                        .map_or(0.0, |i| i.tamper_probability(self.now));
                    if p > 0.0 && self.rng.random::<f64>() < p && hook(&mut payload, &mut self.rng)
                    {
                        self.stats.incr("fault.tamper");
                    }
                }
                match channel {
                    Channel::Radio => self.stats.incr("radio.rx"),
                    Channel::Wired => self.stats.incr("wired.rx"),
                }
                if let Some(tap) = self.tap.as_mut() {
                    tap(self.now, from, id, &payload, channel);
                }
                if self.boundary_tap.is_some() && matches!(channel, Channel::Radio) {
                    self.fire_boundary_tap(from, id, &payload);
                }
                self.observe(
                    event.time,
                    SimEvent::Delivered {
                        from,
                        to: id,
                        channel,
                        payload: &payload,
                    },
                );
                self.dispatch(id, |node, ctx| node.on_packet(ctx, from, payload, channel));
            }
            Occurrence::Timer {
                id: timer_id,
                token,
            } => {
                // The emptiness guard skips hashing entirely on the common
                // path — most runs cancel no or very few timers.
                if !self.cancelled_timers.is_empty() && self.cancelled_timers.remove(&timer_id.0) {
                    return;
                }
                if !active {
                    return;
                }
                let slot = &self.nodes[id.as_usize()];
                if slot.paused || timer_id.0 < slot.timer_barrier {
                    // Armed before the node's last crash: a rebooted node
                    // does not remember it.
                    self.stats.incr("fault.drop.timer");
                    return;
                }
                self.dispatch(id, |node, ctx| node.on_timer(ctx, token));
            }
        }
    }

    /// Applies the single next due crash/restart edge at or before
    /// `limit`, advancing the clock to its instant. Returns whether one
    /// was applied.
    fn apply_next_fault_transition(&mut self, limit: Time) -> bool {
        let Some(injector) = self.injector.as_mut() else {
            return false;
        };
        let Some((t, tr)) = injector.pop_due(limit) else {
            return false;
        };
        if t > self.now {
            self.now = t;
        }
        match tr {
            Transition::Down(id) => self.pause(id),
            Transition::Up(id) => self.resume(id),
        }
        true
    }

    /// Runs events until virtual time exceeds `deadline` (events at exactly
    /// `deadline` are executed). Afterwards `now() == deadline`.
    ///
    /// Which event loop runs is chosen by [`WorldConfig::executor`]; both
    /// are bit-identical (see [`ExecutorMode`]).
    pub fn run_until(&mut self, deadline: Time) {
        match self.cfg.executor {
            ExecutorMode::Serial => self.run_until_serial(deadline),
            ExecutorMode::Windowed { threads } => self.run_until_windowed(deadline, threads),
        }
    }

    /// The classic serial event loop behind [`Self::run_until`].
    fn run_until_serial(&mut self, deadline: Time) {
        loop {
            while let Some(t) = self.queue.peek_time() {
                if t > deadline {
                    break;
                }
                self.step();
            }
            // Idle stretches may still hold crash/restart edges, and a
            // restart can enqueue fresh events, so alternate until both
            // sides drain.
            if !self.apply_next_fault_transition(deadline) {
                break;
            }
        }
        if self.now < deadline {
            self.now = deadline;
        }
    }

    /// Runs until the event queue drains or `max_events` have executed.
    /// Returns the number of events executed. Always drives the serial
    /// loop regardless of [`WorldConfig::executor`] — callers use it for
    /// bounded drains and tests where per-event control matters, not for
    /// throughput.
    pub fn run_to_completion(&mut self, max_events: u64) -> u64 {
        let mut executed = 0;
        while executed < max_events && self.step() {
            executed += 1;
        }
        executed
    }

    /// Runs `f` against node `id` with a fresh serial-mode [`Context`]
    /// (stats counted directly, zero allocations on the recycled effect
    /// buffer), then commits the effects it emitted. The two-phase
    /// stage/commit shape is the same as the windowed executor's — here
    /// the commit simply follows each stage immediately.
    fn dispatch<F>(&mut self, id: NodeId, f: F)
    where
        F: FnOnce(&mut dyn Node<P, T>, &mut Context<'_, P, T>),
    {
        // The effect buffer is recycled across dispatches; a (reentrant)
        // `spawn` from inside `apply_effects` would simply fall back to a
        // fresh allocation via `mem::take`.
        let mut effects = std::mem::take(&mut self.effects_scratch);
        effects.clear();
        let timer_base = self.next_dispatch << TIMER_LOCAL_BITS;
        self.next_dispatch += 1;
        let mut ctx = Context {
            now: self.now,
            self_id: id,
            stats: StatSink::Direct(&mut self.stats),
            timer_base,
            timers_armed: 0,
            effects,
        };
        // Split borrows: the node lives in `self.nodes`, the context borrows
        // the engine's stats, so no aliasing occurs.
        let slot = self
            .nodes
            .get_mut(id.as_usize())
            .expect("dispatch to unspawned node");
        f(slot.node.as_mut(), &mut ctx);
        self.timers_armed_total += u64::from(ctx.timers_armed);
        let mut effects = ctx.effects;
        self.apply_effects(id, &mut effects);
        effects.clear();
        self.effects_scratch = effects;
    }

    fn apply_effects(&mut self, sender: NodeId, effects: &mut Vec<Effect<P, T>>) {
        for effect in effects.drain(..) {
            match effect {
                Effect::Unicast { to, payload } => {
                    self.stats.incr("radio.tx");
                    self.try_radio_deliver(self.now, sender, to, payload);
                }
                Effect::Broadcast { payload } => {
                    self.stats.incr("radio.tx");
                    // Take the scratch buffer out so the loop below can call
                    // `&mut self` methods while iterating it; restored after.
                    let mut receivers = std::mem::take(&mut self.recv_scratch);
                    self.collect_broadcast_receivers(sender, &mut receivers);
                    // The final receiver takes the payload by move — one
                    // clone per broadcast saved, and a broadcast with a
                    // single receiver (the unicast-like common case for
                    // sparse traffic) clones nothing at all. `split_last`
                    // makes the split structural: the move-vs-clone choice
                    // cannot drift out of sync with the iteration, so there
                    // is no "payload already moved" state to guard against.
                    // The fading draws stay in receiver order (clones first,
                    // then the final move) to keep RNG consumption, and
                    // therefore traces, bit-identical.
                    if let Some((&(last_to, last_dist), rest)) = receivers.split_last() {
                        for &(to, dist) in rest {
                            if !self.link_succeeds(dist) {
                                self.stats.incr("radio.drop.fading");
                                continue;
                            }
                            self.try_radio_deliver_in_range(
                                self.now,
                                sender,
                                NodeId::new(to),
                                payload.clone(),
                                Some(dist),
                            );
                        }
                        if self.link_succeeds(last_dist) {
                            self.try_radio_deliver_in_range(
                                self.now,
                                sender,
                                NodeId::new(last_to),
                                payload,
                                Some(last_dist),
                            );
                        } else {
                            self.stats.incr("radio.drop.fading");
                        }
                    }
                    receivers.clear();
                    self.recv_scratch = receivers;
                }
                Effect::Wired { to, payload } => {
                    self.stats.incr("wired.tx");
                    if let Some(inj) = &self.injector {
                        if inj.wired_severed(sender, to, self.now) {
                            self.stats.incr("fault.drop.wired_outage");
                            continue;
                        }
                    }
                    let at = self.now + self.cfg.wired_latency;
                    self.observe(
                        at,
                        SimEvent::Enqueued {
                            from: sender,
                            to,
                            channel: Channel::Wired,
                            dist_m: None,
                            payload: &payload,
                        },
                    );
                    self.queue.push(
                        at,
                        to,
                        Occurrence::Deliver {
                            from: sender,
                            payload,
                            channel: Channel::Wired,
                        },
                    );
                }
                Effect::SetTimer { id, at, token } => {
                    self.queue.push(at, sender, Occurrence::Timer { id, token });
                }
                Effect::CancelTimer(id) => {
                    self.cancelled_timers.insert(id.0);
                }
                Effect::Despawn => {
                    self.despawn(sender);
                }
            }
        }
    }

    /// Fills `out` with `(receiver index, distance)` pairs for every active
    /// node (other than `sender`) within radio range of `sender` now, in
    /// ascending index order — the order the linear scan enumerates nodes,
    /// which fixes the sequence of per-receiver random draws.
    ///
    /// Only the sharded index with a staleness horizon is queried; it
    /// outlives a timestamp. A per-timestamp index would be built for
    /// about one query, since jitter gives almost every broadcast a fresh
    /// timestamp, and a build costs more than the scan. Scan and index are
    /// bit-identical (same inclusive range check, same ascending-id order),
    /// so the choice cannot perturb a trace.
    fn collect_broadcast_receivers(&mut self, sender: NodeId, out: &mut Vec<(u32, f64)>) {
        out.clear();
        let Some(from_pos) = self.position_of(sender) else {
            // A node that despawned itself earlier in this callback
            // broadcasts into the void, matching the scan path.
            return;
        };
        let horizon_index = self.cfg.neighbor_index == NeighborIndex::Grid
            && matches!(self.cfg.backend, WorldBackend::Sharded { .. })
            && !exact_mode(self.cfg.motion_bound_mps);
        if horizon_index {
            self.query_index(from_pos, sender, out);
        } else {
            self.scan_receivers(from_pos, sender, out);
        }
    }

    /// The brute-force receiver scan behind most broadcasts.
    ///
    /// The axis prefilter is exact: rounding and `sqrt` are monotone and
    /// `sqrt(fl(dx * dx)) == |dx|`, so a slot with `|dx| > range` (or
    /// `|dy| > range`) can never pass `distance_to(..) <= range`.
    fn scan_receivers(&self, from_pos: crate::Position, sender: NodeId, out: &mut Vec<(u32, f64)>) {
        let range = self.cfg.radio_range_m;
        for (i, slot) in self.nodes.iter().enumerate() {
            let index = i as u32;
            if index == sender.index() || !slot.active {
                continue;
            }
            let pos = slot.node.position(self.now);
            if (pos.x - from_pos.x).abs() > range || (pos.y - from_pos.y).abs() > range {
                continue;
            }
            let dist = from_pos.distance_to(pos);
            if dist <= range {
                out.push((index, dist));
            }
        }
    }

    /// Answers a receiver query from the configured backend's index,
    /// building or refreshing it as needed.
    fn query_index(
        &mut self,
        from_pos: crate::Position,
        sender: NodeId,
        out: &mut Vec<(u32, f64)>,
    ) {
        let range = self.cfg.radio_range_m;
        match self.cfg.backend {
            WorldBackend::Serial => {
                self.ensure_grid();
                self.grid.query_into(from_pos, range, sender.index(), out);
                // The grid was built earlier in this timestamp; drop nodes
                // despawned since (the active set only shrinks). The query
                // already yields ascending index order — the order the
                // brute-force scan produces.
                out.retain(|&(index, _)| self.nodes[index as usize].active);
            }
            WorldBackend::Sharded { shards } => {
                self.ensure_sharded(shards);
                let World {
                    sharded,
                    nodes,
                    now,
                    ..
                } = self;
                let view = SlotsView(nodes.as_slice());
                let index = sharded.as_mut().expect("ensure_sharded installed it");
                // The sharded index filters `active` per candidate and
                // evaluates positions live, so no retain pass is needed:
                // the emitted set already matches the scan.
                index.refresh(&view, *now);
                index.query_into(&view, *now, from_pos, sender.index(), out);
            }
        }
    }

    /// Installs (or re-shards) the sharded index for the configured shard
    /// count. Geometry and counters persist across calls with an unchanged
    /// count.
    fn ensure_sharded(&mut self, shards: u32) {
        let shards = shards.max(1) as usize;
        if self.sharded.as_ref().map(ShardedIndex::shard_count) != Some(shards) {
            self.sharded = Some(ShardedIndex::new(
                shards,
                self.cfg.radio_range_m,
                self.cfg.motion_bound_mps,
            ));
        }
    }

    /// Fires the boundary tap if this radio delivery crossed a shard-band
    /// boundary. Observational only — no RNG, no stats.
    fn fire_boundary_tap(&mut self, from: NodeId, to: NodeId, payload: &P) {
        let Some(map) = self.sharded.as_ref().and_then(ShardedIndex::band_map) else {
            return;
        };
        let (Some(from_pos), Some(to_pos)) = (self.position_of(from), self.position_of(to)) else {
            return;
        };
        let (from_band, to_band) = (map.band_of_pos(from_pos), map.band_of_pos(to_pos));
        if from_band != to_band {
            if let Some(tap) = self.boundary_tap.as_mut() {
                tap(
                    self.now,
                    from,
                    to,
                    payload,
                    from_band as u32,
                    to_band as u32,
                );
            }
        }
    }

    /// Rebuilds the spatial grid if the cached one is not for the current
    /// `(timestamp, slot count)`. Trajectories are pure functions of time,
    /// so one build per timestamp is exact for every query in that tick.
    fn ensure_grid(&mut self) {
        let stamp = (self.now, self.nodes.len());
        if self.grid_stamp == Some(stamp) {
            return;
        }
        let World {
            grid,
            nodes,
            now,
            cfg,
            ..
        } = self;
        let now = *now;
        grid.rebuild(
            cfg.radio_range_m,
            nodes.len(),
            nodes
                .iter()
                .enumerate()
                .filter(|(_, slot)| slot.active)
                .map(|(i, slot)| (i as u32, slot.node.position(now))),
        );
        self.grid_stamp = Some(stamp);
    }

    /// Active nodes (other than `id`) within radio range of `id` right now,
    /// located via the configured backend's spatial index, in ascending id
    /// order. Always answered by the index, even where broadcasts scan,
    /// so differential tests and benchmarks measure the index itself.
    pub fn neighbors_of(&mut self, id: NodeId) -> Vec<NodeId> {
        let mut scratch = std::mem::take(&mut self.recv_scratch);
        scratch.clear();
        if let Some(from_pos) = self.position_of(id) {
            self.query_index(from_pos, id, &mut scratch);
        }
        let out = scratch.iter().map(|&(i, _)| NodeId::new(i)).collect();
        scratch.clear();
        self.recv_scratch = scratch;
        out
    }

    /// Reference implementation of [`Self::neighbors_of`]: a brute-force
    /// scan over every node. The two must agree exactly.
    pub fn neighbors_of_scan(&self, id: NodeId) -> Vec<NodeId> {
        let Some(from_pos) = self.position_of(id) else {
            return Vec::new();
        };
        let range = self.cfg.radio_range_m;
        self.nodes
            .iter()
            .enumerate()
            .filter_map(|(i, slot)| {
                let nid = NodeId::new(i as u32);
                if nid == id || !slot.active {
                    return None;
                }
                slot.node
                    .position(self.now)
                    .within_range(from_pos, range)
                    .then_some(nid)
            })
            .collect()
    }

    /// Draws whether a link of length `dist` succeeds under the configured
    /// propagation model (range already verified to be ≤ `radio_range_m`).
    fn link_succeeds(&mut self, dist: f64) -> bool {
        match self.cfg.radio_model {
            RadioModel::UnitDisk => true,
            RadioModel::Fading { full_fraction } => {
                let full = self.cfg.radio_range_m * full_fraction;
                if dist <= full {
                    true
                } else {
                    let span = (self.cfg.radio_range_m - full).max(f64::EPSILON);
                    let p_fail = (dist - full) / span;
                    self.rng.random::<f64>() >= p_fail
                }
            }
        }
    }

    /// Full radio pipeline for a unicast transmitted at `base` (positions
    /// are evaluated at the current time).
    fn try_radio_deliver(&mut self, base: Time, from: NodeId, to: NodeId, payload: P) {
        let Some(from_pos) = self.position_of(from) else {
            self.stats.incr("radio.drop.sender_gone");
            return;
        };
        let Some(to_pos) = self.position_of(to) else {
            self.stats.incr("radio.drop.receiver_gone");
            return;
        };
        let dist = from_pos.distance_to(to_pos);
        if dist > self.cfg.radio_range_m {
            self.stats.incr("radio.drop.range");
            return;
        }
        if !self.link_succeeds(dist) {
            self.stats.incr("radio.drop.fading");
            return;
        }
        self.try_radio_deliver_in_range(base, from, to, payload, Some(dist));
    }

    /// Delivery once range has been established: applies loss (base rate,
    /// then any active burst window) and latency relative to `base`.
    ///
    /// The burst draw is separate from — and composes with — the base
    /// loss draw, and is only made while a burst window is active, so
    /// runs without faults consume an identical random stream.
    fn try_radio_deliver_in_range(
        &mut self,
        base: Time,
        from: NodeId,
        to: NodeId,
        payload: P,
        dist_m: Option<f64>,
    ) {
        if self.cfg.radio_loss > 0.0 && self.rng.random::<f64>() < self.cfg.radio_loss {
            self.stats.incr("radio.drop.loss");
            return;
        }
        let burst = self.injector.as_ref().map_or(0.0, |i| i.burst_loss(base));
        if burst > 0.0 && self.rng.random::<f64>() < burst {
            self.stats.incr("fault.drop.radio_burst");
            return;
        }
        let jitter = if self.cfg.radio_jitter.is_zero() {
            Duration::ZERO
        } else {
            Duration::from_micros(self.rng.random_range(0..=self.cfg.radio_jitter.as_micros()))
        };
        let at = base + self.cfg.radio_latency + jitter;
        self.observe(
            at,
            SimEvent::Enqueued {
                from,
                to,
                channel: Channel::Radio,
                dist_m,
                payload: &payload,
            },
        );
        self.queue.push(
            at,
            to,
            Occurrence::Deliver {
                from,
                payload,
                channel: Channel::Radio,
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Position;

    /// A stationary node recording everything it hears.
    struct Probe {
        at: Position,
        heard: Vec<(NodeId, u32, Channel)>,
        timers_fired: Vec<u8>,
    }

    impl Probe {
        fn new(x: f64) -> Self {
            Probe {
                at: Position::new(x, 0.0),
                heard: Vec::new(),
                timers_fired: Vec::new(),
            }
        }
    }

    impl Node<u32, u8> for Probe {
        fn position(&self, _now: Time) -> Position {
            self.at
        }
        fn on_packet(
            &mut self,
            _ctx: &mut Context<'_, u32, u8>,
            from: NodeId,
            packet: u32,
            channel: Channel,
        ) {
            self.heard.push((from, packet, channel));
        }
        fn on_timer(&mut self, _ctx: &mut Context<'_, u32, u8>, token: u8) {
            self.timers_fired.push(token);
        }
    }

    /// A node that sends on start: unicast to a target, then broadcast.
    struct Chatter {
        at: Position,
        unicast_to: NodeId,
    }

    impl Node<u32, u8> for Chatter {
        fn position(&self, _now: Time) -> Position {
            self.at
        }
        fn on_start(&mut self, ctx: &mut Context<'_, u32, u8>) {
            ctx.send(self.unicast_to, 7);
            ctx.broadcast(9);
        }
        fn on_packet(&mut self, _: &mut Context<'_, u32, u8>, _: NodeId, _: u32, _: Channel) {}
        fn on_timer(&mut self, _: &mut Context<'_, u32, u8>, _: u8) {}
    }

    fn quiet_config() -> WorldConfig {
        WorldConfig {
            radio_jitter: Duration::ZERO,
            ..WorldConfig::default()
        }
    }

    #[test]
    fn unicast_respects_range() {
        let mut w: World<u32, u8> = World::new(quiet_config());
        let near = w.spawn(Box::new(Probe::new(500.0)));
        let far = w.spawn(Box::new(Probe::new(5000.0)));
        let chatter = w.spawn(Box::new(Chatter {
            at: Position::new(0.0, 0.0),
            unicast_to: far,
        }));
        w.run_to_completion(100);
        assert!(w.get::<Probe>(far).unwrap().heard.is_empty());
        // `near` still got the broadcast.
        let near_heard = &w.get::<Probe>(near).unwrap().heard;
        assert_eq!(near_heard.len(), 1);
        assert_eq!(near_heard[0], (chatter, 9, Channel::Radio));
        assert_eq!(w.stats().get("radio.drop.range"), 1);
    }

    #[test]
    fn broadcast_reaches_all_in_range_but_not_sender() {
        let mut w: World<u32, u8> = World::new(quiet_config());
        let a = w.spawn(Box::new(Probe::new(100.0)));
        let b = w.spawn(Box::new(Probe::new(900.0)));
        let c = w.spawn(Box::new(Probe::new(1500.0)));
        let s = w.spawn(Box::new(Chatter {
            at: Position::new(0.0, 0.0),
            unicast_to: a,
        }));
        w.run_to_completion(100);
        assert_eq!(w.get::<Probe>(a).unwrap().heard.len(), 2); // unicast + bcast
        assert_eq!(w.get::<Probe>(b).unwrap().heard.len(), 1);
        assert!(w.get::<Probe>(c).unwrap().heard.is_empty()); // out of range
                                                              // The sender is a Chatter, not a Probe: downcast to the wrong type fails.
        assert!(w.get::<Probe>(s).is_none());
    }

    #[test]
    fn wired_send_ignores_range() {
        struct WiredSender {
            to: NodeId,
        }
        impl Node<u32, u8> for WiredSender {
            fn position(&self, _now: Time) -> Position {
                Position::ORIGIN
            }
            fn on_start(&mut self, ctx: &mut Context<'_, u32, u8>) {
                ctx.send_wired(self.to, 42);
            }
            fn on_packet(&mut self, _: &mut Context<'_, u32, u8>, _: NodeId, _: u32, _: Channel) {}
            fn on_timer(&mut self, _: &mut Context<'_, u32, u8>, _: u8) {}
        }
        let mut w: World<u32, u8> = World::new(quiet_config());
        let far = w.spawn(Box::new(Probe::new(9_999.0)));
        w.spawn(Box::new(WiredSender { to: far }));
        w.run_to_completion(10);
        let heard = &w.get::<Probe>(far).unwrap().heard;
        assert_eq!(heard.len(), 1);
        assert_eq!(heard[0].2, Channel::Wired);
    }

    #[test]
    fn timers_fire_in_order_and_cancel_works() {
        struct TimerNode {
            cancel_second: bool,
        }
        impl Node<u32, u8> for TimerNode {
            fn position(&self, _now: Time) -> Position {
                Position::ORIGIN
            }
            fn on_start(&mut self, ctx: &mut Context<'_, u32, u8>) {
                ctx.set_timer(Duration::from_secs(1), 1);
                let second = ctx.set_timer(Duration::from_secs(2), 2);
                ctx.set_timer(Duration::from_secs(3), 3);
                if self.cancel_second {
                    ctx.cancel_timer(second);
                }
            }
            fn on_packet(&mut self, _: &mut Context<'_, u32, u8>, _: NodeId, _: u32, _: Channel) {}
            fn on_timer(&mut self, ctx: &mut Context<'_, u32, u8>, token: u8) {
                ctx.count(&format!("fired.{token}"));
            }
        }
        let mut w: World<u32, u8> = World::new(quiet_config());
        w.spawn(Box::new(TimerNode {
            cancel_second: true,
        }));
        w.run_to_completion(10);
        assert_eq!(w.stats().get("fired.1"), 1);
        assert_eq!(w.stats().get("fired.2"), 0);
        assert_eq!(w.stats().get("fired.3"), 1);
        assert_eq!(w.now(), Time::from_secs(3));
    }

    #[test]
    fn despawned_node_receives_nothing() {
        let mut w: World<u32, u8> = World::new(quiet_config());
        let p = w.spawn(Box::new(Probe::new(10.0)));
        let other = w.spawn(Box::new(Probe::new(20.0)));
        w.inject(Time::from_secs(1), other, p, 5, Channel::Radio);
        w.despawn(p);
        w.run_to_completion(10);
        assert!(w.get::<Probe>(p).unwrap().heard.is_empty());
        assert_eq!(w.stats().get("drop.inactive"), 1);
        assert!(!w.is_active(p));
        assert!(w.is_active(other));
    }

    #[test]
    fn lossy_channel_drops_roughly_at_rate() {
        let cfg = WorldConfig {
            radio_loss: 0.5,
            radio_jitter: Duration::ZERO,
            seed: 7,
            ..WorldConfig::default()
        };
        let mut w: World<u32, u8> = World::new(cfg);
        let rx = w.spawn(Box::new(Probe::new(100.0)));
        struct Spammer {
            to: NodeId,
        }
        impl Node<u32, u8> for Spammer {
            fn position(&self, _now: Time) -> Position {
                Position::new(1.0, 0.0)
            }
            fn on_start(&mut self, ctx: &mut Context<'_, u32, u8>) {
                for _ in 0..1000 {
                    ctx.send(self.to, 1);
                }
            }
            fn on_packet(&mut self, _: &mut Context<'_, u32, u8>, _: NodeId, _: u32, _: Channel) {}
            fn on_timer(&mut self, _: &mut Context<'_, u32, u8>, _: u8) {}
        }
        w.spawn(Box::new(Spammer { to: rx }));
        w.run_to_completion(100_000);
        let dropped = w.stats().get("radio.drop.loss");
        assert!(
            (300..=700).contains(&dropped),
            "expected ~500 of 1000 dropped, got {dropped}"
        );
    }

    #[test]
    fn inject_is_reliable_but_inject_radio_draws_loss() {
        // `inject` is the out-of-band control-plane path: every packet
        // arrives regardless of the loss rate. `inject_radio` goes
        // through the medium and loses at the configured rate.
        let cfg = WorldConfig {
            radio_loss: 0.5,
            radio_jitter: Duration::ZERO,
            seed: 7,
            ..WorldConfig::default()
        };
        let mut w: World<u32, u8> = World::new(cfg);
        let rx = w.spawn(Box::new(Probe::new(100.0)));
        let tx = w.spawn(Box::new(Probe::new(0.0)));
        for i in 0..200 {
            w.inject(Time::from_millis(i), tx, rx, 1, Channel::Radio);
        }
        for i in 0..1000 {
            w.inject_radio(Time::from_millis(200 + i), tx, rx, 2);
        }
        w.run_to_completion(100_000);
        let heard = &w.get::<Probe>(rx).unwrap().heard;
        let out_of_band = heard.iter().filter(|(_, p, _)| *p == 1).count();
        let through_medium = heard.iter().filter(|(_, p, _)| *p == 2).count() as u64;
        let dropped = w.stats().get("radio.drop.loss");
        assert_eq!(out_of_band, 200, "out-of-band injection is reliable");
        assert_eq!(through_medium + dropped, 1000);
        assert!(
            (300..=700).contains(&dropped),
            "expected ~500 of 1000 dropped, got {dropped}"
        );
    }

    /// Arms a 1 s periodic timer chain and counts starts and beeps.
    struct Beeper;
    impl Node<u32, u8> for Beeper {
        fn position(&self, _now: Time) -> Position {
            Position::ORIGIN
        }
        fn on_start(&mut self, ctx: &mut Context<'_, u32, u8>) {
            ctx.count("beeper.start");
            ctx.set_timer(Duration::from_secs(1), 0);
        }
        fn on_packet(&mut self, _: &mut Context<'_, u32, u8>, _: NodeId, _: u32, _: Channel) {}
        fn on_timer(&mut self, ctx: &mut Context<'_, u32, u8>, _: u8) {
            ctx.count("beeper.beep");
            ctx.set_timer(Duration::from_secs(1), 0);
        }
    }

    #[test]
    fn crash_window_silences_node_and_restart_reruns_start() {
        use crate::fault::{CrashFault, FaultPlan};
        let mut w: World<u32, u8> = World::new(quiet_config());
        let b = w.spawn(Box::new(Beeper));
        w.install_faults(FaultPlan {
            crashes: vec![CrashFault {
                node: b,
                at: Time::from_millis(2500),
                restart_at: Some(Time::from_millis(5500)),
            }],
            ..FaultPlan::default()
        });
        w.run_until(Time::from_secs(10));
        // Beeps at 1 s and 2 s; the chain's 3 s timer was armed before the
        // crash and is forgotten. `on_restart` (default: `on_start`)
        // re-arms at 5.5 s → beeps at 6.5, 7.5, 8.5, 9.5 s.
        assert_eq!(w.stats().get("beeper.start"), 2);
        assert_eq!(w.stats().get("beeper.beep"), 6);
        assert_eq!(w.stats().get("fault.crash"), 1);
        assert_eq!(w.stats().get("fault.restart"), 1);
        assert_eq!(w.stats().get("fault.drop.timer"), 1);
        assert!(!w.is_paused(b));
    }

    #[test]
    fn deliveries_to_crashed_node_are_dropped_until_restart() {
        use crate::fault::{CrashFault, FaultPlan};
        let mut w: World<u32, u8> = World::new(quiet_config());
        let rx = w.spawn(Box::new(Probe::new(100.0)));
        let tx = w.spawn(Box::new(Probe::new(0.0)));
        w.install_faults(FaultPlan {
            crashes: vec![CrashFault {
                node: rx,
                at: Time::from_secs(1),
                restart_at: Some(Time::from_secs(3)),
            }],
            ..FaultPlan::default()
        });
        w.inject(Time::from_millis(500), tx, rx, 1, Channel::Radio); // before crash
        w.inject(Time::from_secs(2), tx, rx, 2, Channel::Radio); // during crash
        w.inject(Time::from_secs(4), tx, rx, 3, Channel::Radio); // after restart
        w.run_until(Time::from_secs(5));
        let heard: Vec<u32> = w
            .get::<Probe>(rx)
            .unwrap()
            .heard
            .iter()
            .map(|&(_, p, _)| p)
            .collect();
        assert_eq!(heard, vec![1, 3]);
        assert_eq!(w.stats().get("fault.drop.crashed"), 1);
    }

    #[test]
    fn node_without_restart_stays_down() {
        use crate::fault::{CrashFault, FaultPlan};
        let mut w: World<u32, u8> = World::new(quiet_config());
        let b = w.spawn(Box::new(Beeper));
        w.install_faults(FaultPlan {
            crashes: vec![CrashFault {
                node: b,
                at: Time::from_millis(1500),
                restart_at: None,
            }],
            ..FaultPlan::default()
        });
        w.run_until(Time::from_secs(10));
        assert_eq!(w.stats().get("beeper.beep"), 1);
        assert_eq!(w.stats().get("fault.restart"), 0);
        assert!(w.is_paused(b));
        assert!(w.is_active(b), "crashed is not despawned");
    }

    #[test]
    fn wired_outage_severs_backhaul_for_the_window() {
        use crate::fault::{FaultPlan, FaultWindow, WiredOutage};
        /// Sends one wired packet per second.
        struct WiredTicker {
            to: NodeId,
        }
        impl Node<u32, u8> for WiredTicker {
            fn position(&self, _now: Time) -> Position {
                Position::ORIGIN
            }
            fn on_start(&mut self, ctx: &mut Context<'_, u32, u8>) {
                ctx.set_timer(Duration::from_secs(1), 0);
            }
            fn on_packet(&mut self, _: &mut Context<'_, u32, u8>, _: NodeId, _: u32, _: Channel) {}
            fn on_timer(&mut self, ctx: &mut Context<'_, u32, u8>, _: u8) {
                ctx.send_wired(self.to, 1);
                ctx.set_timer(Duration::from_secs(1), 0);
            }
        }
        let mut w: World<u32, u8> = World::new(quiet_config());
        let rx = w.spawn(Box::new(Probe::new(9000.0)));
        let tx = w.spawn(Box::new(WiredTicker { to: rx }));
        w.install_faults(FaultPlan {
            wired_outages: vec![WiredOutage {
                a: tx,
                b: rx,
                window: FaultWindow::new(Time::from_millis(2500), Time::from_millis(4500)),
            }],
            ..FaultPlan::default()
        });
        w.run_until(Time::from_millis(6500));
        // Sends at 1..=6 s; those at 3 and 4 s fall inside the outage.
        assert_eq!(w.stats().get("wired.tx"), 6);
        assert_eq!(w.stats().get("fault.drop.wired_outage"), 2);
        assert_eq!(w.stats().get("wired.rx"), 4);
    }

    #[test]
    fn radio_burst_drops_everything_in_window() {
        use crate::fault::{FaultPlan, FaultWindow, RadioBurst};
        /// Sends one unicast per 100 ms.
        struct RadioTicker {
            to: NodeId,
        }
        impl Node<u32, u8> for RadioTicker {
            fn position(&self, _now: Time) -> Position {
                Position::ORIGIN
            }
            fn on_start(&mut self, ctx: &mut Context<'_, u32, u8>) {
                ctx.set_timer(Duration::from_millis(100), 0);
            }
            fn on_packet(&mut self, _: &mut Context<'_, u32, u8>, _: NodeId, _: u32, _: Channel) {}
            fn on_timer(&mut self, ctx: &mut Context<'_, u32, u8>, _: u8) {
                ctx.send(self.to, 1);
                ctx.set_timer(Duration::from_millis(100), 0);
            }
        }
        let mut w: World<u32, u8> = World::new(quiet_config());
        let rx = w.spawn(Box::new(Probe::new(100.0)));
        let tx = w.spawn(Box::new(RadioTicker { to: rx }));
        w.install_faults(FaultPlan {
            radio_bursts: vec![RadioBurst {
                window: FaultWindow::new(Time::from_secs(1), Time::from_secs(2)),
                extra_loss: 1.0,
            }],
            ..FaultPlan::default()
        });
        w.run_until(Time::from_millis(3050));
        // Sends every 100 ms from 0.1 s to 3.0 s (30 sends); those in
        // [1 s, 2 s) — 1.0 s through 1.9 s inclusive — all drop.
        assert_eq!(w.stats().get("fault.drop.radio_burst"), 10);
        assert_eq!(w.get::<Probe>(rx).unwrap().heard.len(), 20);
        let _ = tx;
    }

    #[test]
    fn tamper_window_mutates_payloads_via_hook() {
        use crate::fault::{FaultPlan, FaultWindow, TamperBurst};
        let mut w: World<u32, u8> = World::new(quiet_config());
        let rx = w.spawn(Box::new(Probe::new(100.0)));
        let tx = w.spawn(Box::new(Probe::new(0.0)));
        w.install_faults(FaultPlan {
            tampering: vec![TamperBurst {
                window: FaultWindow::new(Time::from_secs(1), Time::from_secs(2)),
                probability: 1.0,
            }],
            ..FaultPlan::default()
        });
        w.set_tamper_hook(Box::new(|p, _rng| {
            *p = 999;
            true
        }));
        w.inject(Time::from_millis(500), tx, rx, 7, Channel::Radio); // before window
        w.inject(Time::from_millis(1500), tx, rx, 8, Channel::Radio); // inside window
        w.run_until(Time::from_secs(3));
        let heard: Vec<u32> = w
            .get::<Probe>(rx)
            .unwrap()
            .heard
            .iter()
            .map(|&(_, p, _)| p)
            .collect();
        assert_eq!(heard, vec![7, 999]);
        assert_eq!(w.stats().get("fault.tamper"), 1);
    }

    #[test]
    fn empty_fault_plan_does_not_perturb_the_run() {
        use crate::fault::{FaultPlan, FaultWindow, RadioBurst};
        fn run(plan: Option<FaultPlan>) -> Vec<(NodeId, u32, Channel)> {
            let cfg = WorldConfig {
                radio_loss: 0.3,
                seed: 11,
                ..WorldConfig::default()
            };
            let mut w: World<u32, u8> = World::new(cfg);
            let rx = w.spawn(Box::new(Probe::new(500.0)));
            let tx = w.spawn(Box::new(Probe::new(0.0)));
            if let Some(plan) = plan {
                w.install_faults(plan);
            }
            for i in 0..50 {
                w.inject_radio(Time::from_millis(i), tx, rx, i as u32);
            }
            w.run_until(Time::from_secs(1));
            w.get::<Probe>(rx).unwrap().heard.clone()
        }
        let baseline = run(None);
        assert_eq!(baseline, run(Some(FaultPlan::none())));
        // Windows entirely after the traffic also leave the stream alone.
        let late = FaultPlan {
            radio_bursts: vec![RadioBurst {
                window: FaultWindow::new(Time::from_secs(500), Time::from_secs(600)),
                extra_loss: 1.0,
            }],
            ..FaultPlan::default()
        };
        assert_eq!(baseline, run(Some(late)));
    }

    #[test]
    fn fading_model_is_distance_sensitive() {
        // Many unicasts at three distances: inside the guaranteed band,
        // mid-decay, and just under the max range.
        fn drops_at(x: f64) -> u64 {
            let cfg = WorldConfig {
                radio_model: RadioModel::Fading { full_fraction: 0.5 },
                radio_jitter: Duration::ZERO,
                seed: 5,
                ..WorldConfig::default()
            };
            let mut w: World<u32, u8> = World::new(cfg);
            let rx = w.spawn(Box::new(Probe::new(x)));
            struct Burst {
                to: NodeId,
            }
            impl Node<u32, u8> for Burst {
                fn position(&self, _now: Time) -> Position {
                    Position::ORIGIN
                }
                fn on_start(&mut self, ctx: &mut Context<'_, u32, u8>) {
                    for _ in 0..400 {
                        ctx.send(self.to, 1);
                    }
                }
                fn on_packet(
                    &mut self,
                    _: &mut Context<'_, u32, u8>,
                    _: NodeId,
                    _: u32,
                    _: Channel,
                ) {
                }
                fn on_timer(&mut self, _: &mut Context<'_, u32, u8>, _: u8) {}
            }
            w.spawn(Box::new(Burst { to: rx }));
            w.run_to_completion(10_000);
            w.stats().get("radio.drop.fading")
        }
        assert_eq!(drops_at(300.0), 0, "inside the guaranteed band");
        let mid = drops_at(750.0);
        assert!((100..=300).contains(&mid), "~50% at mid-decay, got {mid}");
        let far = drops_at(990.0);
        assert!(far > 350, "nearly all drop just under max range, got {far}");
    }

    #[test]
    #[should_panic(expected = "full_fraction must be in")]
    fn rejects_invalid_fading_fraction() {
        let cfg = WorldConfig {
            radio_model: RadioModel::Fading { full_fraction: 1.5 },
            ..WorldConfig::default()
        };
        let _: World<u32, u8> = World::new(cfg);
    }

    #[test]
    fn run_until_advances_clock_even_when_idle() {
        let mut w: World<u32, u8> = World::new(quiet_config());
        w.run_until(Time::from_secs(30));
        assert_eq!(w.now(), Time::from_secs(30));
    }

    #[test]
    fn deterministic_given_same_seed() {
        fn run(seed: u64) -> Vec<(NodeId, u32, Channel)> {
            let cfg = WorldConfig {
                radio_loss: 0.3,
                seed,
                ..WorldConfig::default()
            };
            let mut w: World<u32, u8> = World::new(cfg);
            let rx = w.spawn(Box::new(Probe::new(500.0)));
            struct Burst {
                to: NodeId,
            }
            impl Node<u32, u8> for Burst {
                fn position(&self, _now: Time) -> Position {
                    Position::ORIGIN
                }
                fn on_start(&mut self, ctx: &mut Context<'_, u32, u8>) {
                    for i in 0..50 {
                        ctx.send(self.to, i);
                    }
                }
                fn on_packet(
                    &mut self,
                    _: &mut Context<'_, u32, u8>,
                    _: NodeId,
                    _: u32,
                    _: Channel,
                ) {
                }
                fn on_timer(&mut self, _: &mut Context<'_, u32, u8>, _: u8) {}
            }
            w.spawn(Box::new(Burst { to: rx }));
            w.run_to_completion(1000);
            w.get::<Probe>(rx).unwrap().heard.clone()
        }
        assert_eq!(run(11), run(11));
        assert_ne!(run(11), run(12)); // different seed, different losses/jitter
    }

    #[test]
    fn engine_stamp_witnesses_the_trajectory() {
        fn run(seed: u64, probe_mid: bool) -> (Option<EngineStamp>, EngineStamp) {
            let cfg = WorldConfig {
                radio_loss: 0.3,
                seed,
                ..WorldConfig::default()
            };
            let mut w: World<u32, u8> = World::new(cfg);
            let rx = w.spawn(Box::new(Probe::new(500.0)));
            let tx = w.spawn(Box::new(Probe::new(0.0)));
            for i in 0..50 {
                w.inject_radio(Time::from_millis(i), tx, rx, i as u32);
            }
            w.run_until(Time::from_millis(25));
            let mid = probe_mid.then(|| w.engine_stamp());
            w.run_until(Time::from_secs(1));
            (mid, w.engine_stamp())
        }
        let (mid_a, end_a) = run(11, true);
        let (_, end_b) = run(11, false);
        // Same seed: identical final stamp, and capturing a stamp
        // mid-flight perturbs nothing.
        assert_eq!(end_a, end_b);
        assert_ne!(mid_a.unwrap(), end_a, "clock advanced between stamps");
        let (_, end_c) = run(12, false);
        assert_ne!(end_a.rng_state, end_c.rng_state, "different seed differs");
    }

    #[test]
    fn engine_stamp_folds_node_state_digests() {
        struct Digested(u64);
        impl Node<u32, u8> for Digested {
            fn position(&self, _now: Time) -> Position {
                Position::ORIGIN
            }
            fn on_packet(&mut self, _: &mut Context<'_, u32, u8>, _: NodeId, _: u32, _: Channel) {}
            fn on_timer(&mut self, _: &mut Context<'_, u32, u8>, _: u8) {}
            fn state_digest(&self) -> u64 {
                self.0
            }
        }
        let mut a: World<u32, u8> = World::new(quiet_config());
        a.spawn(Box::new(Digested(1)));
        let mut b: World<u32, u8> = World::new(quiet_config());
        b.spawn(Box::new(Digested(2)));
        assert_ne!(
            a.engine_stamp().node_digest,
            b.engine_stamp().node_digest,
            "node-internal state reaches the stamp"
        );
    }

    #[test]
    fn tap_observes_every_delivery() {
        use std::cell::RefCell;
        use std::rc::Rc;
        let mut w: World<u32, u8> = World::new(quiet_config());
        let rx = w.spawn(Box::new(Probe::new(100.0)));
        let tx = w.spawn(Box::new(Probe::new(0.0)));
        let log: Rc<RefCell<Vec<(NodeId, NodeId, u32)>>> = Rc::new(RefCell::new(Vec::new()));
        let sink = Rc::clone(&log);
        w.set_tap(Box::new(move |_, from, to, p, _| {
            sink.borrow_mut().push((from, to, *p));
        }));
        w.inject(Time::from_millis(1), tx, rx, 41, Channel::Radio);
        w.inject(Time::from_millis(2), tx, rx, 42, Channel::Wired);
        w.run_to_completion(10);
        let log = log.borrow();
        assert_eq!(log.len(), 2);
        assert_eq!(log[0], (tx, rx, 41));
        assert_eq!(log[1], (tx, rx, 42));
    }

    #[test]
    fn tap_skips_inactive_receivers() {
        use std::cell::RefCell;
        use std::rc::Rc;
        let mut w: World<u32, u8> = World::new(quiet_config());
        let rx = w.spawn(Box::new(Probe::new(100.0)));
        let tx = w.spawn(Box::new(Probe::new(0.0)));
        let count: Rc<RefCell<usize>> = Rc::new(RefCell::new(0));
        let sink = Rc::clone(&count);
        w.set_tap(Box::new(move |_, _, _, _, _| *sink.borrow_mut() += 1));
        w.inject(Time::from_millis(1), tx, rx, 1, Channel::Radio);
        w.despawn(rx);
        w.run_to_completion(10);
        assert_eq!(
            *count.borrow(),
            0,
            "drops to inactive nodes are not observed"
        );
    }

    /// A conservation check usable against the `u32` payload tests: every
    /// dispatched or dropped delivery must have a matching enqueue.
    struct Conservation {
        pending: std::collections::HashMap<(NodeId, NodeId), i64>,
        exercised: u64,
    }

    impl Conservation {
        fn new() -> Self {
            Conservation {
                pending: std::collections::HashMap::new(),
                exercised: 0,
            }
        }
    }

    impl InvariantCheck<u32> for Conservation {
        fn name(&self) -> &'static str {
            "test-conservation"
        }
        fn observe(
            &mut self,
            _now: Time,
            event: &SimEvent<'_, u32>,
            sink: &mut crate::ViolationSink,
        ) {
            match *event {
                SimEvent::Enqueued { from, to, .. } => {
                    *self.pending.entry((from, to)).or_insert(0) += 1;
                }
                SimEvent::Delivered { from, to, .. } | SimEvent::Dropped { from, to, .. } => {
                    self.exercised += 1;
                    let n = self.pending.entry((from, to)).or_insert(0);
                    *n -= 1;
                    if *n < 0 {
                        sink.report(format!("delivery {from}->{to} without a matching enqueue"));
                    }
                }
            }
        }
        fn exercised(&self) -> u64 {
            self.exercised
        }
    }

    #[test]
    fn oracle_observes_every_packet_path() {
        // Unicast, broadcast, wired, lossy radio, and a despawned receiver
        // all satisfy conservation; the check is exercised for each
        // delivery and drop, and no violations fire.
        let cfg = WorldConfig {
            radio_loss: 0.3,
            seed: 13,
            ..WorldConfig::default()
        };
        let mut w: World<u32, u8> = World::new(cfg);
        let near = w.spawn(Box::new(Probe::new(500.0)));
        let gone = w.spawn(Box::new(Probe::new(600.0)));
        w.add_invariant(Box::new(Conservation::new()));
        let chatter = w.spawn(Box::new(Chatter {
            at: Position::new(0.0, 0.0),
            unicast_to: near,
        }));
        w.inject(Time::from_millis(50), chatter, gone, 3, Channel::Radio);
        w.inject(Time::from_millis(60), chatter, near, 4, Channel::Wired);
        w.despawn(gone);
        w.run_to_completion(1000);
        w.finish_invariants();
        assert_eq!(w.violations(), &[], "conservation holds");
        let exercised = w.invariants_exercised();
        assert_eq!(exercised.len(), 1);
        assert_eq!(exercised[0].0, "test-conservation");
        assert!(exercised[0].1 >= 2, "deliveries and drops were observed");
    }

    #[test]
    fn oracle_reports_violations_with_context() {
        struct AlwaysFail;
        impl InvariantCheck<u32> for AlwaysFail {
            fn name(&self) -> &'static str {
                "always-fail"
            }
            fn observe(
                &mut self,
                _now: Time,
                event: &SimEvent<'_, u32>,
                sink: &mut crate::ViolationSink,
            ) {
                if let SimEvent::Delivered { payload, .. } = event {
                    sink.report(format!("saw {payload}"));
                }
            }
            fn finish(&mut self, _now: Time, sink: &mut crate::ViolationSink) {
                sink.report("end-of-run audit");
            }
            fn exercised(&self) -> u64 {
                1
            }
        }
        let mut w: World<u32, u8> = World::new(quiet_config());
        let rx = w.spawn(Box::new(Probe::new(100.0)));
        let tx = w.spawn(Box::new(Probe::new(0.0)));
        w.add_invariant(Box::new(AlwaysFail));
        w.inject(Time::from_millis(1), tx, rx, 41, Channel::Radio);
        w.run_to_completion(10);
        w.finish_invariants();
        w.finish_invariants(); // idempotent: the audit fires once
        let violations = w.violations();
        assert_eq!(violations.len(), 2);
        assert_eq!(violations[0].invariant, "always-fail");
        assert!(violations[0].detail.contains("41"));
        assert_eq!(violations[1].detail, "end-of-run audit");
        assert_eq!(w.violations_overflow(), 0);
    }

    #[test]
    fn world_without_invariants_reports_nothing() {
        let w: World<u32, u8> = World::new(quiet_config());
        assert!(w.violations().is_empty());
        assert!(w.invariants_exercised().is_empty());
        assert_eq!(w.violations_overflow(), 0);
    }

    /// A stationary node that fires one timer at `phase` and broadcasts
    /// `bursts` times from it, so all its queries share one stamp.
    struct Broadcaster {
        at: Position,
        phase: Duration,
        bursts: u32,
    }

    impl Node<u32, u8> for Broadcaster {
        fn position(&self, _now: Time) -> Position {
            self.at
        }
        fn on_start(&mut self, ctx: &mut Context<'_, u32, u8>) {
            ctx.set_timer(self.phase, 0);
        }
        fn on_packet(&mut self, _: &mut Context<'_, u32, u8>, _: NodeId, _: u32, _: Channel) {}
        fn on_timer(&mut self, ctx: &mut Context<'_, u32, u8>, _: u8) {
            for _ in 0..self.bursts {
                ctx.broadcast(1);
            }
        }
    }

    /// Runs 100 broadcasters, 100 m apart, firing at distinct milliseconds;
    /// returns the world's grid builds and its end-of-run stamp.
    fn broadcast_run(neighbor_index: NeighborIndex, bursts: u32) -> (u64, EngineStamp) {
        let mut w: World<u32, u8> = World::new(WorldConfig {
            neighbor_index,
            ..WorldConfig::default()
        });
        for i in 0..100u64 {
            w.spawn(Box::new(Broadcaster {
                at: Position::new(i as f64 * 100.0, 0.0),
                phase: Duration::from_millis(i + 1),
                bursts,
            }));
        }
        w.run_to_completion(1_000_000);
        assert!(w.stats().get("radio.rx") > 0, "broadcasts must be heard");
        (w.grid.builds, w.engine_stamp())
    }

    #[test]
    fn broadcasts_never_build_a_per_timestamp_index() {
        // One broadcast per timestamp, and three: the serial backend scans
        // either way, and ends on the same stamp as `NeighborIndex::Scan`.
        for bursts in [1, 3] {
            let (builds, stamp) = broadcast_run(NeighborIndex::Grid, bursts);
            assert_eq!(builds, 0, "broadcasts scan (bursts={bursts})");
            assert_eq!(stamp, broadcast_run(NeighborIndex::Scan, bursts).1);
        }
    }

    #[test]
    fn axis_prefilter_is_exact_at_the_range_boundary() {
        let range = WorldConfig::default().radio_range_m;
        let past = f64::from_bits(range.to_bits() + 1);
        let layout = [
            (0.0, 0.0),
            (range, 0.0),
            (past, 0.0),
            (0.0, -range),
            (0.0, -past),
            (-range, 0.0),
            (-past, 0.0),
        ];
        let kept = [1, 3, 5];
        let sharded = WorldConfig {
            backend: WorldBackend::Sharded { shards: 2 },
            ..WorldConfig::default()
        };
        let configs = [
            ("serial", WorldConfig::default()),
            ("sharded exact", sharded.clone()),
            (
                "sharded horizon",
                WorldConfig {
                    motion_bound_mps: 0.0,
                    ..sharded
                },
            ),
        ];
        for (label, cfg) in configs {
            let horizon = !exact_mode(cfg.motion_bound_mps);
            let mut w: World<u32, u8> = World::new(cfg);
            let ids: Vec<NodeId> = layout
                .iter()
                .map(|&(x, y)| {
                    w.spawn(Box::new(Probe {
                        at: Position::new(x, y),
                        ..Probe::new(0.0)
                    }))
                })
                .collect();
            let mut out = Vec::new();
            // Broadcasts ask the index only when it has a horizon.
            w.collect_broadcast_receivers(ids[0], &mut out);
            let heard: Vec<u32> = out.iter().map(|&(i, _)| i).collect();
            assert_eq!(heard, kept, "broadcast, {label}");
            assert_eq!(w.sharded.is_some(), horizon, "{label}");
            assert_eq!(w.grid.builds, 0, "{label}");
            // `neighbors_of` always asks the index; a second query at the
            // same timestamp reuses it.
            let kept_ids: Vec<NodeId> = kept.iter().map(|&i| NodeId::new(i)).collect();
            for _ in 0..2 {
                assert_eq!(w.neighbors_of(ids[0]), kept_ids, "index, {label}");
            }
            assert_eq!(w.neighbors_of_scan(ids[0]), kept_ids, "scan, {label}");
            match w.shard_diagnostics() {
                None => assert_eq!(w.grid.builds, 1, "{label}"),
                Some(diag) => {
                    assert_eq!(w.grid.builds, 0, "{label}");
                    assert_eq!(diag.full_rebuilds, 1, "{label}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "radio_loss must be a probability")]
    fn rejects_invalid_loss() {
        let cfg = WorldConfig {
            radio_loss: 1.5,
            ..WorldConfig::default()
        };
        let _: World<u32, u8> = World::new(cfg);
    }

    #[test]
    #[should_panic(expected = "cannot inject an event in the past")]
    fn rejects_past_injection() {
        let mut w: World<u32, u8> = World::new(quiet_config());
        let a = w.spawn(Box::new(Probe::new(0.0)));
        w.run_until(Time::from_secs(5));
        w.inject(Time::from_secs(1), a, a, 0, Channel::Radio);
    }
}
