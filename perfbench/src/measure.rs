//! Measurement helpers shared by every workload: the metric sink, order
//! statistics, a counting allocator and the traced-step accumulator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// One reported metric: name, value, unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What one workload run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every output check passed.
    pub correct: bool,
    /// Operations attempted (trials, events, JREQs).
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result (check failures,
    /// run shape).
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn new() -> Self {
        Outcome {
            correct: true,
            ..Outcome::default()
        }
    }

    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        debug_assert!(
            self.metrics.iter().all(|m| m.name != name),
            "metric {name} reported twice"
        );
        self.metrics.push(Metric { name, value, unit });
    }

    /// Records a failed output check: the run is reported as incorrect.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.correct = false;
            self.notes.push(format!("check failed: {}", what()));
        }
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Reports a per-layer reading that only some workloads have (an
    /// AODV span on `table1`, a seal span on `platoon`). It goes out as a
    /// `# layer <name> <value> <unit>` note, not on the result line:
    /// the result line carries the same metric set on every workload.
    pub fn detail(&mut self, name: &str, value: f64, unit: &str) {
        self.notes.push(format!("layer {name} {value} {unit}"));
    }

    /// Puts every end-to-end metric, the same set on every workload, so
    /// none can be left out.
    pub fn put_end_to_end(&mut self, e: &EndToEnd) {
        self.put("setup_s", e.setup_s, "s");
        self.put("events_per_s", e.events_per_s, "1/s");
        self.put("ops_per_s", e.ops_per_s, "1/s");
        for (name, q) in [("batch_ms_p50", 0.5), ("batch_ms_p90", 0.9)] {
            // Every workload runs at least `MIN_BATCHES` batches.
            let ms = percentile(&e.batch_ms, q)
                .unwrap_or_else(|| panic!("{} batches are too few for {name}", e.batch_ms.len()));
            self.put(name, ms, "ms");
        }
        self.put("peak_rss_mb", peak_rss_mb(), "MB");
    }
}

/// The end-to-end readings of one untraced run. Every workload fills all
/// of them; what an operation and a batch are is the workload's own.
#[derive(Debug)]
pub struct EndToEnd {
    /// Median set-up time, scaled (see [`median_setup`]).
    pub setup_s: f64,
    /// Executed events per second, the median over windows.
    pub events_per_s: f64,
    /// The workload's unit of work per second, the median over windows:
    /// trials, broadcasts or envelope verifications.
    pub ops_per_s: f64,
    /// Scaled wall time of every batch: a trial, or a fixed run of
    /// events.
    pub batch_ms: Vec<f64>,
}

/// Scales raw batch times `(ms, window)` by the host speed of the window
/// each ran in (see [`Windows::speeds`]).
pub fn scale_batches(raw: &[(f64, usize)], windows: &Windows) -> Vec<f64> {
    let speeds = windows.speeds();
    raw.iter()
        .map(|&(ms, w)| ms * speeds[w.min(speeds.len() - 1)])
        .collect()
}

/// Median of a non-empty sample (mean of the middle pair when even).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Samples a percentile must leave above it before it is reported.
pub const MIN_TAIL: usize = 10;

/// Batches every run completes at least, so `batch_ms_p90` has
/// [`MIN_TAIL`] samples beyond it.
pub const MIN_BATCHES: usize = 100;

/// The `q`-quantile (nearest rank) of `values`, or `None` when fewer than
/// [`MIN_TAIL`] samples lie beyond it — a percentile resting on a handful
/// of samples is one outlier wide.
pub fn percentile(values: &[f64], q: f64) -> Option<f64> {
    assert!((0.0..1.0).contains(&q), "quantile must lie in [0, 1)");
    let n = values.len();
    // Nearest rank: the smallest value with at least q·n samples at or
    // below it.
    let rank = ((q * n as f64).ceil() as usize).max(1);
    if n < rank + MIN_TAIL {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    Some(v[rank - 1])
}

/// Runs `f` `times` times and returns the median set-up time in seconds,
/// each scaled to the reference host speed by a probe taken just before
/// it (see [`probe`]), plus the last result. Used for every `setup_s`.
pub fn median_setup<R>(mix: Mix, times: usize, mut f: impl FnMut() -> R) -> (f64, R) {
    let mut secs = Vec::with_capacity(times);
    let mut last: Option<R> = None;
    for _ in 0..times {
        // Drop the previous result before building the next, so peak
        // memory holds one copy.
        drop(last.take());
        let speed = probe(mix);
        let start = Instant::now();
        let r = f();
        secs.push(start.elapsed().as_secs_f64() * speed);
        last = Some(r);
    }
    (median(&secs), last.expect("at least one setup"))
}

/// The churn kernel's time, in ms, that counts as speed 1.0.
pub const CHURN_REF_MS: f64 = 3.5;

/// The ring walk's time, in ms, that counts as speed 1.0.
pub const WALK_REF_MS: f64 = 2.5;

/// Entries in the probe's pointer-chasing ring (16 MB of `u32`).
const PROBE_RING: usize = 4 << 20;

/// Which kernels a workload's host-speed probe times.
///
/// The hosts this benchmark runs on are shared, and their speed drifts
/// by tens of percent over seconds to minutes as other tenants come and
/// go. A probe is a fixed kernel of the benchmark's own, timed alongside
/// the workload; timings are multiplied, and rates divided, by the speed
/// the probes around them read. The probe calls nothing in the program
/// under test, so a change to the program cannot move it. Each workload
/// uses the mix whose time tracked its own best on the host `METRICS.md`
/// describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// Heap, hash-map and allocator churn (`table1`, `strip100k`).
    Churn,
    /// The churn, then a dependent walk over a 16 MB ring (`platoon`).
    ChurnAndWalk,
}

/// The walk's ring, built on first use. Sattolo's shuffle: `ring[i]` is
/// the next entry after `i`, in one cycle through every entry.
static RING: std::sync::OnceLock<Vec<u32>> = std::sync::OnceLock::new();

fn ring() -> &'static [u32] {
    RING.get_or_init(|| {
        let mut ring: Vec<u32> = (0..PROBE_RING as u32).collect();
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        for i in (1..PROBE_RING).rev() {
            x = xorshift(x);
            ring.swap(i, (x % i as u64) as usize);
        }
        ring
    })
}

/// Runs the `mix` kernels once and returns the host speed they read: 1.0
/// at their reference time, below 1.0 on a slower host.
pub fn probe(mix: Mix) -> f64 {
    use std::cmp::Reverse;
    use std::collections::{BinaryHeap, HashMap};
    let ring = (mix == Mix::ChurnAndWalk).then(ring);
    let start = Instant::now();
    let mut heap = BinaryHeap::new();
    let mut map: HashMap<u64, u64> = HashMap::new();
    let mut boxes: Vec<Box<[u64; 4]>> = Vec::new();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut acc = 0u64;
    for i in 0..40_000u64 {
        x = xorshift(x);
        heap.push(Reverse(x % 1_000_000));
        *map.entry(x % 8192).or_default() += i;
        if heap.len() > 2000 {
            acc = acc.wrapping_add(heap.pop().map_or(0, |r| r.0));
        }
        if i % 8 == 0 {
            boxes.push(Box::new([x, i, acc, 0]));
            if boxes.len() > 512 {
                boxes.swap_remove((x % 512) as usize);
            }
        }
    }
    let mut ref_ms = CHURN_REF_MS;
    if let Some(ring) = ring {
        let mut at = (acc % PROBE_RING as u64) as u32;
        for _ in 0..10_000 {
            at = ring[at as usize];
        }
        acc = u64::from(at);
        ref_ms += WALK_REF_MS;
    }
    std::hint::black_box((acc, boxes.len(), map.len()));
    ref_ms / (start.elapsed().as_secs_f64() * 1e3)
}

fn xorshift(mut x: u64) -> u64 {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x
}

/// Width of the windows throughput is measured over.
pub const WINDOW: Duration = Duration::from_millis(250);

/// One window boundary: when the previous window closed, when the next
/// opened (the probe runs in between, outside both), the counters, and
/// the host speed the probe read.
#[derive(Debug, Clone, Copy)]
struct Mark {
    closed: Instant,
    opened: Instant,
    counts: [u64; 2],
    speed: f64,
}

/// Counter readings at window boundaries, for rates reported as the
/// median over windows, each scaled by the host speed the probes at its
/// two edges read. A few seconds of interference from other tenants
/// then move the result less than they move the mean.
#[derive(Debug)]
pub struct Windows {
    mix: Mix,
    marks: Vec<Mark>,
}

impl Windows {
    /// Starts the first window now, at counter readings `start`, with
    /// probes of `mix` at every edge.
    pub fn start(mix: Mix, start: [u64; 2]) -> Self {
        let mut w = Windows {
            mix,
            marks: Vec::new(),
        };
        w.mark(start);
        w
    }

    /// Time since the current window opened.
    pub fn open_for(&self) -> Duration {
        self.marks.last().expect("started").opened.elapsed()
    }

    /// Closes the current window at counter readings `counts`.
    pub fn mark(&mut self, counts: [u64; 2]) {
        let closed = Instant::now();
        let speed = probe(self.mix);
        self.marks.push(Mark {
            closed,
            opened: Instant::now(),
            counts,
            speed,
        });
    }

    /// Closes the last window at the end of the run. A tail shorter than
    /// half a window joins the window before it instead of standing as a
    /// rate of its own.
    pub fn finish(&mut self, counts: [u64; 2]) {
        if self.marks.len() >= 2 && self.open_for() < WINDOW / 2 {
            self.marks.pop();
        }
        self.mark(counts);
    }

    /// Wall seconds inside closed windows: the run less its probes.
    pub fn measured_secs(&self) -> f64 {
        self.marks
            .windows(2)
            .map(|w| (w[1].closed - w[0].opened).as_secs_f64())
            .sum()
    }

    /// Closed windows so far.
    pub fn closed(&self) -> usize {
        self.marks.len() - 1
    }

    /// Host speed over each closed window: the mean of its edge probes.
    pub fn speeds(&self) -> Vec<f64> {
        self.marks
            .windows(2)
            .map(|w| (w[0].speed + w[1].speed) / 2.0)
            .collect()
    }

    /// Median speed-scaled per-second rate of each counter over closed
    /// windows.
    pub fn median_rates(&self) -> [f64; 2] {
        assert!(self.marks.len() >= 2, "no closed window");
        std::array::from_fn(|k| {
            let rates: Vec<f64> = self
                .marks
                .windows(2)
                .map(|w| {
                    let secs = (w[1].closed - w[0].opened).as_secs_f64();
                    let speed = (w[0].speed + w[1].speed) / 2.0;
                    (w[1].counts[k] - w[0].counts[k]) as f64 / secs / speed
                })
                .collect();
            median(&rates)
        })
    }
}

/// Peak resident set size of this process in MB (`VmHWM`), less the
/// probe's ring.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
        // The probe's ring is the benchmark's, not the program's.
        - RING.get().map_or(0, |r| std::mem::size_of_val(r.as_slice())) as f64
            / (1024.0 * 1024.0)
}

/// Heap allocations made by this process (every `alloc`, `alloc_zeroed`
/// and `realloc`), counted by [`CountingAlloc`].
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// Reads the process-wide allocation counter.
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// The system allocator plus an allocation counter. The counter publishes
/// no other data, so `Relaxed` suffices.
pub struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter has no effect on memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's `layout` obligations pass through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator with
        // this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr`/`layout` came from this allocator; `new_size`
        // obligations pass through unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Busy time and call count of one named span.
#[derive(Debug, Default, Clone, Copy)]
pub struct Span {
    pub calls: u64,
    pub busy: Duration,
}

impl Span {
    pub fn add(&mut self, d: Duration) {
        self.calls += 1;
        self.busy += d;
    }

    pub fn secs(&self) -> f64 {
        self.busy.as_secs_f64()
    }
}

/// Times `f` into `span`.
pub fn timed<R>(span: &mut Span, f: impl FnOnce() -> R) -> R {
    let start = Instant::now();
    let r = f();
    span.add(start.elapsed());
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        // p90 of 100 samples is rank 90 with exactly ten above it.
        assert_eq!(percentile(&v, 0.90), Some(90.0));
        assert_eq!(percentile(&v[..99], 0.90), None);
        // p99 needs 1,000 samples.
        assert_eq!(percentile(&v, 0.99), None);
        let big: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&big, 0.99), Some(990.0));
        assert_eq!(percentile(&big[..999], 0.99), None);
        // p50 needs 20.
        assert_eq!(percentile(&v[..20], 0.5), Some(10.0));
        assert_eq!(percentile(&v[..19], 0.5), None);
    }

    #[test]
    fn percentile_ignores_input_order() {
        let mut v: Vec<f64> = (0..200).map(|i| f64::from((i * 37) % 200)).collect();
        let p = percentile(&v, 0.5);
        v.sort_by(f64::total_cmp);
        assert_eq!(p, percentile(&v, 0.5));
        assert_eq!(p, Some(99.0));
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
