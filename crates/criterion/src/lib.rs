//! Offline stand-in for the [`criterion`](https://docs.rs/criterion) harness.
//!
//! The repository builds in an environment without network access, so the
//! real criterion crate cannot be downloaded. This crate implements the
//! subset of criterion's API used by the `cegis_hot_path` bench in
//! `crates/bench/benches/` on top of `std::time::Instant`:
//!
//! * [`criterion_group!`] / [`criterion_main!`];
//! * [`Criterion::benchmark_group`] and [`BenchmarkGroup::bench_function`];
//! * [`Bencher::iter`];
//! * the per-group sample-count knob ([`BenchmarkGroup::sample_size`]).
//!
//! Timing methodology: each benchmark is warmed up for a fixed number of
//! iterations, then timed over `sample_size` samples, each sample running
//! enough iterations to take roughly one millisecond (or a single iteration
//! for slow benchmarks). Mean, median, and min/max per-iteration times are
//! printed in a criterion-like format. Results are additionally appended to
//! the `CRITERION_JSON` file when that environment variable is set, one JSON
//! object per line, so harness binaries can collect machine-readable output.

use std::fmt::Write as _;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Samples per benchmark unless its group sets [`BenchmarkGroup::sample_size`].
const DEFAULT_SAMPLE_SIZE: usize = 20;

/// Target measurement time per benchmark; sampling stops early once four
/// times this has elapsed (always keeping at least two samples).
const MEASUREMENT_TIME: Duration = Duration::from_secs(2);

/// A single measured sample set for one benchmark function.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Full benchmark id, `group/function`.
    pub id: String,
    /// Per-iteration times of each sample, in nanoseconds.
    pub sample_ns: Vec<f64>,
}

impl Measurement {
    /// Mean per-iteration time in nanoseconds.
    pub fn mean_ns(&self) -> f64 {
        if self.sample_ns.is_empty() {
            return 0.0;
        }
        self.sample_ns.iter().sum::<f64>() / self.sample_ns.len() as f64
    }

    /// Median per-iteration time in nanoseconds.
    pub fn median_ns(&self) -> f64 {
        if self.sample_ns.is_empty() {
            return 0.0;
        }
        let mut sorted = self.sample_ns.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mid = sorted.len() / 2;
        if sorted.len().is_multiple_of(2) {
            (sorted[mid - 1] + sorted[mid]) / 2.0
        } else {
            sorted[mid]
        }
    }

    fn min_ns(&self) -> f64 {
        self.sample_ns.iter().copied().fold(f64::INFINITY, f64::min)
    }

    fn max_ns(&self) -> f64 {
        self.sample_ns.iter().copied().fold(0.0, f64::max)
    }
}

fn fmt_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.2} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} µs", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2} ms", ns / 1_000_000.0)
    } else {
        format!("{:.2} s", ns / 1_000_000_000.0)
    }
}

/// The top-level harness handle, passed to every registered bench function.
#[derive(Default)]
pub struct Criterion;

impl Criterion {
    /// Opens a named benchmark group.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.into(),
            sample_size: DEFAULT_SAMPLE_SIZE,
            _criterion: self,
        }
    }
}

/// A named group of related benchmarks.
pub struct BenchmarkGroup<'c> {
    name: String,
    sample_size: usize,
    _criterion: &'c mut Criterion,
}

impl BenchmarkGroup<'_> {
    /// Sets the number of samples for benchmarks in this group.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n;
        self
    }

    /// Runs one benchmark function and reports its timing.
    pub fn bench_function<F>(&mut self, id: impl Into<String>, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let full_id = format!("{}/{}", self.name, id.into());
        let mut bencher = Bencher {
            sample_size: self.sample_size.max(2),
            measurement: None,
        };
        f(&mut bencher);
        if let Some(mut m) = bencher.measurement.take() {
            m.id = full_id.clone();
            report(&m);
        } else {
            println!("{full_id:<50} (no measurement recorded)");
        }
        self
    }

    /// Ends the group (printing is immediate in this stand-in, so this is a
    /// no-op kept for API compatibility).
    pub fn finish(&mut self) {}
}

fn report(m: &Measurement) {
    println!(
        "{:<50} time: [{} {} {}]  (n={})",
        m.id,
        fmt_ns(m.min_ns()),
        fmt_ns(m.mean_ns()),
        fmt_ns(m.max_ns()),
        m.sample_ns.len(),
    );
    if let Ok(path) = std::env::var("CRITERION_JSON") {
        let mut line = String::new();
        let _ = write!(
            line,
            "{{\"id\":{:?},\"mean_ns\":{:.1},\"median_ns\":{:.1},\"min_ns\":{:.1},\"max_ns\":{:.1},\"samples\":{}}}",
            m.id,
            m.mean_ns(),
            m.median_ns(),
            m.min_ns(),
            m.max_ns(),
            m.sample_ns.len(),
        );
        line.push('\n');
        use std::io::Write as _;
        if let Ok(mut f) = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
        {
            let _ = f.write_all(line.as_bytes());
        }
    }
}

/// Measures a closure's execution time; handed to each benchmark function.
pub struct Bencher {
    sample_size: usize,
    measurement: Option<Measurement>,
}

impl Bencher {
    /// Times `routine`, running it repeatedly per sample.
    pub fn iter<O, R>(&mut self, mut routine: R)
    where
        R: FnMut() -> O,
    {
        // Warm-up + calibration: find how many iterations fill ~1 ms.
        let cal_start = Instant::now();
        black_box(routine());
        let once = cal_start.elapsed();
        let iters_per_sample = if once >= Duration::from_millis(1) {
            1
        } else {
            let per_iter_ns = once.as_nanos().max(1) as u64;
            (1_000_000 / per_iter_ns).clamp(1, 10_000)
        };
        let budget = Instant::now();
        let mut samples = Vec::with_capacity(self.sample_size);
        for _ in 0..self.sample_size {
            let start = Instant::now();
            for _ in 0..iters_per_sample {
                black_box(routine());
            }
            let elapsed = start.elapsed();
            samples.push(elapsed.as_nanos() as f64 / iters_per_sample as f64);
            // Honour the measurement-time budget loosely (always >= 2 samples).
            if budget.elapsed() > MEASUREMENT_TIME * 4 && samples.len() >= 2 {
                break;
            }
        }
        self.measurement = Some(Measurement {
            id: String::new(),
            sample_ns: samples,
        });
    }
}

/// Declares a group of benchmark functions, mirroring criterion's macro.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        pub fn $group() {
            let mut criterion = $crate::Criterion::default();
            $( $target(&mut criterion); )+
        }
    };
}

/// Declares the benchmark entry point, mirroring criterion's macro.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iter_records_samples() {
        let mut c = Criterion;
        let mut group = c.benchmark_group("g");
        group.sample_size(5);
        let mut ran = 0u64;
        group.bench_function("smoke", |b| {
            b.iter(|| {
                ran += 1;
                black_box(ran)
            })
        });
        group.finish();
        assert!(ran > 0);
    }

    #[test]
    fn measurement_stats() {
        let m = Measurement {
            id: "x".into(),
            sample_ns: vec![1.0, 3.0, 2.0],
        };
        assert_eq!(m.mean_ns(), 2.0);
        assert_eq!(m.median_ns(), 2.0);
    }
}
