//! Outside-in step tracing for simulated workloads: drives `World::step`
//! one event at a time, labels each step through a `World::set_tap`
//! classifier, and times it.

use std::cell::Cell;
use std::rc::Rc;
use std::time::{Duration, Instant};

use blackdp_sim::{Channel, World};

use crate::measure::{allocations, Mix, Outcome, Span, Windows, MIN_BATCHES, WINDOW};

/// What a step did, as seen from outside the engine. A step the tap did
/// not see is a timer (or, rarely, a delivery the engine dropped before
/// dispatch: the tap fires only for deliveries that reach a node).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepClass {
    Timer = 0,
    /// AODV Hello beacon.
    Hello = 1,
    /// AODV route request.
    Rreq = 2,
    /// AODV route replies, errors and data (`rrep`, `secured_rrep`,
    /// `rerr`, `data`).
    Route = 3,
    /// BlackDP cluster membership (`jreq`, `jrep`, `leave`).
    Membership = 4,
    /// Every other BlackDP message: detection, revocation, blacklist,
    /// renewal, resync.
    Detect = 5,
    /// A delivery of a payload that has no finer label.
    Deliver = 6,
}

const CLASSES: usize = 7;

/// Per-class step spans plus the tap's own delivery counts.
#[derive(Debug, Default, Clone)]
pub struct StepTrace {
    pub spans: [Span; CLASSES],
    /// Radio deliveries the tap saw.
    pub radio: u64,
    /// Wired deliveries the tap saw.
    pub wired: u64,
    /// Heap allocations made while stepping.
    pub allocs: u64,
}

impl StepTrace {
    pub fn span(&self, class: StepClass) -> Span {
        self.spans[class as usize]
    }

    /// Steps traced.
    pub fn steps(&self) -> u64 {
        self.spans.iter().map(|s| s.calls).sum()
    }

    /// Wall time inside step spans.
    pub fn busy_secs(&self) -> f64 {
        self.spans.iter().map(Span::secs).sum()
    }

    pub fn absorb(&mut self, other: &StepTrace) {
        for (a, b) in self.spans.iter_mut().zip(&other.spans) {
            a.calls += b.calls;
            a.busy += b.busy;
        }
        self.radio += other.radio;
        self.wired += other.wired;
        self.allocs += other.allocs;
    }
}

/// Executes exactly `steps` events of `world`, timing each and labelling
/// it with `classify` applied to the delivered payload. Installs (and
/// leaves installed) a tap; the tap only observes, so the world's
/// trajectory is unchanged.
///
/// # Panics
///
/// Panics if the queue drains before `steps` events ran.
pub fn trace_steps<P, T>(
    world: &mut World<P, T>,
    steps: u64,
    classify: fn(&P) -> StepClass,
) -> StepTrace
where
    P: Clone + Send + 'static,
    T: Clone + Send + 'static,
{
    let label = Rc::new(Cell::new(StepClass::Timer));
    let counts = Rc::new(Cell::new((0u64, 0u64)));
    {
        let label = Rc::clone(&label);
        let counts = Rc::clone(&counts);
        world.set_tap(Box::new(move |_, _, _, payload: &P, channel| {
            label.set(classify(payload));
            let (radio, wired) = counts.get();
            counts.set(match channel {
                Channel::Radio => (radio + 1, wired),
                Channel::Wired => (radio, wired + 1),
            });
        }));
    }
    let mut trace = StepTrace::default();
    let allocs_before = allocations();
    // Spans abut: one clock read per step boundary, so the bookkeeping
    // between two steps is charged to the step before it instead of
    // falling outside every span.
    let mut boundary = Instant::now();
    for _ in 0..steps {
        label.set(StepClass::Timer);
        let stepped = world.step();
        let now = Instant::now();
        assert!(stepped, "queue drained before the untraced step count");
        trace.spans[label.get() as usize].add(now - boundary);
        boundary = now;
    }
    trace.allocs = allocations() - allocs_before;
    (trace.radio, trace.wired) = counts.get();
    trace
}

/// What [`step_for`] measured.
pub struct Stepped {
    /// Events executed.
    pub executed: u64,
    pub windows: Windows,
    /// Raw wall time of every full batch, in ms, with the window it ran
    /// in.
    pub batch_ms: Vec<(f64, usize)>,
}

/// Steps `world` untraced in batches of `batch` events, for `budget` of
/// wall time and at least [`MIN_BATCHES`] batches, closing a probe
/// window (probing `mix`) about every [`WINDOW`]. The clock is read once
/// per batch. The windows count executed events and whatever `second`
/// reads off the world.
pub fn step_for<P, T>(
    world: &mut World<P, T>,
    mix: Mix,
    budget: Duration,
    batch: u64,
    second: impl Fn(&World<P, T>) -> u64,
) -> Stepped
where
    P: Clone + Send + 'static,
    T: Clone + Send + 'static,
{
    let started = Instant::now();
    let mut windows = Windows::start(mix, [0, second(world)]);
    let mut executed = 0u64;
    let mut batch_ms = Vec::new();
    'run: while started.elapsed() < budget || batch_ms.len() < MIN_BATCHES {
        let t0 = Instant::now();
        for _ in 0..batch {
            if !world.step() {
                break 'run;
            }
            executed += 1;
        }
        batch_ms.push((t0.elapsed().as_secs_f64() * 1e3, windows.closed()));
        if windows.open_for() >= WINDOW {
            windows.mark([executed, second(world)]);
        }
    }
    windows.finish([executed, second(world)]);
    Stepped {
        executed,
        windows,
        batch_ms,
    }
}

/// The engine's own counters over the work a traced run repeats: events
/// executed, radio deliveries and radio broadcasts.
pub struct EngineCounts {
    pub executed: u64,
    pub radio_rx: u64,
    pub radio_tx: u64,
}

/// Puts the per-layer metrics every simulated workload has: the step
/// counts and the two step classes' self time, less `child_s`, the time
/// of finer spans the workload timed inside them (`[timer, deliver]`).
/// `covered_extra_s` is traced time inside spans outside the steps
/// (build, harvest).
pub fn put_sim_layer(
    out: &mut Outcome,
    steps: &StepTrace,
    engine: &EngineCounts,
    child_s: [f64; 2],
    covered_extra_s: f64,
    [untraced_wall, traced_wall]: [f64; 2],
) {
    let timer = steps.span(StepClass::Timer);
    let deliver_s = steps.busy_secs() - timer.secs();
    out.put("sim.events", steps.steps() as f64, "count");
    out.put("sim.events.timer", timer.calls as f64, "count");
    out.put("sim.events.radio", steps.radio as f64, "count");
    out.put(
        "sim.radio.fanout",
        engine.radio_rx as f64 / engine.radio_tx.max(1) as f64,
        "ratio",
    );
    out.put(
        "sim.allocs_per_event",
        steps.allocs as f64 / engine.executed.max(1) as f64,
        "count",
    );
    out.put("sim.step.timer.self_s", timer.secs() - child_s[0], "s");
    out.put("sim.step.deliver.self_s", deliver_s - child_s[1], "s");
    out.put("trace.overhead", traced_wall / untraced_wall, "ratio");
    out.put(
        "trace.coverage",
        (steps.busy_secs() + covered_extra_s) / traced_wall,
        "ratio",
    );
}
