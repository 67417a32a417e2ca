//! Offline stand-in for the `criterion` crate.
//!
//! The sandbox has no registry access, so this vendors the benchmark API
//! the workspace's `benches/` use — `Criterion`, `benchmark_group`,
//! `bench_function`, `Bencher::iter`/`iter_batched`, `BatchSize`,
//! `Throughput`, and the `criterion_group!`/`criterion_main!` macros —
//! backed by a deliberately small timing loop. There is no statistical
//! analysis; each benchmark calibrates a batch size large enough to
//! resolve against timer granularity, times a few batches, and prints
//! the best per-iteration figure. `cargo test` executes these binaries
//! (benches are `harness = false`), so the loop is sized to finish in
//! milliseconds.

#![forbid(unsafe_code)]

use std::time::{Duration, Instant};

/// How many timed batches each benchmark runs.
const SAMPLES: u32 = 3;

/// Minimum wall-clock per timed batch: far above `Instant` granularity,
/// so nanosecond-scale routines still get meaningful per-iter figures.
const MIN_BATCH_TIME: Duration = Duration::from_micros(200);

/// Upper bound on the calibrated batch size (guards against a routine the
/// optimizer collapsed to nothing spinning the calibration loop forever).
const MAX_BATCH: u32 = 1 << 22;

/// Advises real criterion how to batch inputs; accepted and ignored here.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchSize {
    /// Small per-iteration inputs.
    SmallInput,
    /// Large per-iteration inputs.
    LargeInput,
    /// One input per iteration.
    PerIteration,
}

/// Annotates measured throughput; accepted and echoed here.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Throughput {
    /// Bytes processed per iteration.
    Bytes(u64),
    /// Elements processed per iteration.
    Elements(u64),
}

/// The per-benchmark timing handle.
#[derive(Debug, Default)]
pub struct Bencher {
    mean_ns: f64,
}

impl Bencher {
    /// Times `routine`: calibrates a batch size whose wall-clock exceeds
    /// timer granularity, then reports the fastest of `SAMPLES` batches
    /// (the minimum is the standard noise-rejecting summary for
    /// micro-timings — interference only ever adds time).
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut routine: F) {
        let mut batch: u32 = 1;
        let per_batch = loop {
            let start = Instant::now();
            for _ in 0..batch {
                std::hint::black_box(routine());
            }
            let elapsed = start.elapsed();
            if elapsed >= MIN_BATCH_TIME || batch >= MAX_BATCH {
                break elapsed;
            }
            // Grow geometrically, overshooting toward the target time.
            batch = batch.saturating_mul(4).min(MAX_BATCH);
        };
        let mut best_ns = per_batch.as_nanos() as f64 / f64::from(batch);
        for _ in 1..SAMPLES {
            let start = Instant::now();
            for _ in 0..batch {
                std::hint::black_box(routine());
            }
            let ns = start.elapsed().as_nanos() as f64 / f64::from(batch);
            if ns < best_ns {
                best_ns = ns;
            }
        }
        self.mean_ns = best_ns;
    }

    /// Times `routine` over freshly set-up inputs.
    pub fn iter_batched<I, O, S, F>(&mut self, mut setup: S, mut routine: F, _size: BatchSize)
    where
        S: FnMut() -> I,
        F: FnMut(I) -> O,
    {
        let inputs: Vec<I> = (0..SAMPLES).map(|_| setup()).collect();
        let start = Instant::now();
        for input in inputs {
            std::hint::black_box(routine(input));
        }
        self.mean_ns = start.elapsed().as_nanos() as f64 / f64::from(SAMPLES);
    }
}

/// The top-level benchmark driver.
#[derive(Debug, Default)]
pub struct Criterion {
    group: Option<String>,
    throughput: Option<Throughput>,
}

impl Criterion {
    /// Runs one named benchmark.
    pub fn bench_function<N: AsRef<str>, F: FnMut(&mut Bencher)>(
        &mut self,
        name: N,
        mut f: F,
    ) -> &mut Self {
        let mut bencher = Bencher::default();
        f(&mut bencher);
        let name = name.as_ref();
        let label = match &self.group {
            Some(g) => format!("{g}/{name}"),
            None => name.to_owned(),
        };
        match self.throughput {
            Some(Throughput::Bytes(n)) => {
                println!("bench {label}: {:.0} ns/iter ({n} bytes)", bencher.mean_ns);
            }
            Some(Throughput::Elements(n)) => {
                println!("bench {label}: {:.0} ns/iter ({n} elems)", bencher.mean_ns);
            }
            None => println!("bench {label}: {:.0} ns/iter", bencher.mean_ns),
        }
        self
    }

    /// Opens a named group; benchmarks inside share its label prefix.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            c: Criterion {
                group: Some(name.to_owned()),
                throughput: None,
            },
            _parent: std::marker::PhantomData,
        }
    }
}

/// A labelled collection of benchmarks.
#[derive(Debug)]
pub struct BenchmarkGroup<'a> {
    c: Criterion,
    _parent: std::marker::PhantomData<&'a mut Criterion>,
}

impl BenchmarkGroup<'_> {
    /// Accepts real criterion's sample-count hint; the stub's fixed
    /// `SAMPLES` loop ignores it.
    pub fn sample_size(&mut self, _n: usize) -> &mut Self {
        self
    }

    /// Annotates subsequent benchmarks with a throughput figure.
    pub fn throughput(&mut self, throughput: Throughput) -> &mut Self {
        self.c.throughput = Some(throughput);
        self
    }

    /// Runs one named benchmark within the group.
    pub fn bench_function<N: AsRef<str>, F: FnMut(&mut Bencher)>(
        &mut self,
        name: N,
        f: F,
    ) -> &mut Self {
        self.c.bench_function(name, f);
        self
    }

    /// Closes the group.
    pub fn finish(self) {}
}

/// Re-export for code written against `criterion::black_box`.
pub use std::hint::black_box;

/// Bundles benchmark functions under one group name.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Emits `main` running the listed groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sum_to(n: u64) -> u64 {
        (0..n).sum()
    }

    #[test]
    fn bench_function_runs_routine() {
        let mut c = Criterion::default();
        let mut ran = 0u32;
        c.bench_function("smoke", |b| b.iter(|| ran += 1));
        assert!(ran >= 1);
    }

    #[test]
    fn group_throughput_and_batched() {
        let mut c = Criterion::default();
        let mut group = c.benchmark_group("g");
        group.throughput(Throughput::Bytes(64));
        group.bench_function("batched", |b| {
            b.iter_batched(|| 100u64, sum_to, BatchSize::SmallInput)
        });
        group.finish();
    }
}
