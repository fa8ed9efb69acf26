//! The experiment harness: runs the inference pipeline over the benchmark
//! suite and regenerates the paper's tables and figures.
//!
//! * `figure7` (binary) — per-benchmark results for the full Hanoi
//!   configuration: invariant size, total/verification/synthesis times and
//!   call counts (Figure 7 / Figure 9);
//! * `figure8` (binary) — cumulative benchmarks-completed-over-time series
//!   for Hanoi, Hanoi−SRC, Hanoi−CLC, ∧Str, LA and OneShot (Figure 8);
//! * `ablation_synth` (binary) — the §5.4 comparison between the Myth-style
//!   synthesizer and the fold-capable prototype;
//! * `hanoi_trace` (binary) — fixed-seed trace emission and held-out
//!   validation for the `/numeric/*` benchmarks.
//!
//! Timings of the whole suite, end to end and per layer, come from the
//! separate `perfbench` package.
//!
//! Runs go through a [`hanoi::Engine`]; whether runs share one engine is a
//! *measurement* decision.  `figure7` (one configuration) uses a single
//! engine; `figure8` and `ablation_synth` compare wall-clock across
//! configurations, so they build a fresh engine per run — sharing would let
//! later configurations start from caches earlier ones warmed and inflate
//! their completion counts.  To reuse warm state deliberately, elaborate the
//! benchmark once and pass the same [`hanoi_abstraction::Problem`] and
//! engine to [`run_problem`] repeatedly.
//!
//! Absolute numbers are not expected to match the paper (different machine,
//! different synthesizer implementation); the harness exists to reproduce the
//! *shape* of the results, and EXPERIMENTS.md records the comparison.

pub mod cli;
pub mod report;

use std::time::Duration;

use hanoi::{Engine, Mode, Optimizations, Outcome, RunOptions, RunStats, SynthChoice};
use hanoi_abstraction::Problem;
use hanoi_benchmarks::Benchmark;
use hanoi_verifier::VerifierBounds;

use hanoi::json::Json;

/// How an individual run ended, in serialisable form.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunStatus {
    /// An invariant was inferred.
    Completed,
    /// The run hit its wall-clock budget.
    TimedOut,
    /// The run was cancelled through its `CancelToken`.
    Cancelled,
    /// The synthesizer gave up or the module violated its spec.
    Failed,
}

impl RunStatus {
    /// Serialised form.
    pub fn as_str(&self) -> &'static str {
        match self {
            RunStatus::Completed => "Completed",
            RunStatus::TimedOut => "TimedOut",
            RunStatus::Cancelled => "Cancelled",
            RunStatus::Failed => "Failed",
        }
    }
}

/// One row of a result table: run identity and outcome, with the full
/// [`RunStats`] embedded (serialized through `RunStats::to_json`, not
/// re-formatted by hand).
#[derive(Debug, Clone)]
pub struct Row {
    /// Benchmark id.
    pub id: String,
    /// Mode label (`Hanoi`, `Hanoi-SRC`, …).
    pub mode: String,
    /// Run status.
    pub status: RunStatus,
    /// Inferred invariant (pretty-printed), when available.
    pub invariant: Option<String>,
    /// The run's statistics (every Figure 7 column plus the cache counters).
    pub stats: RunStats,
    /// Invariant size reported by the paper, for comparison.
    pub paper_size: Option<usize>,
    /// Time reported by the paper (seconds), for comparison.
    pub paper_time_secs: Option<f64>,
}

impl Row {
    /// Invariant size in AST nodes (the paper's *Size*).
    pub fn size(&self) -> Option<usize> {
        self.stats.invariant_size
    }

    /// Total wall-clock seconds (*Time*).
    pub fn time_secs(&self) -> f64 {
        self.stats.total_time.as_secs_f64()
    }

    /// Total verification seconds (*TVT*).
    pub fn tvt_secs(&self) -> f64 {
        self.stats.verification_time.as_secs_f64()
    }

    /// Verification call count (*TVC*).
    pub fn tvc(&self) -> usize {
        self.stats.verification_calls
    }

    /// Total synthesis seconds (*TST*).
    pub fn tst_secs(&self) -> f64 {
        self.stats.synthesis_time.as_secs_f64()
    }

    /// Synthesis call count (*TSC*).
    pub fn tsc(&self) -> usize {
        self.stats.synthesis_calls
    }

    /// CEGIS iterations.
    pub fn iterations(&self) -> usize {
        self.stats.iterations
    }

    /// Mean verification time per call (*MVT*), seconds.
    pub fn mvt_secs(&self) -> Option<f64> {
        self.stats.mean_verification_time().map(|t| t.as_secs_f64())
    }

    /// Mean synthesis time per call (*MST*), seconds.
    pub fn mst_secs(&self) -> Option<f64> {
        self.stats.mean_synthesis_time().map(|t| t.as_secs_f64())
    }

    /// Serialises the row to a JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("id", Json::Str(self.id.clone())),
            ("mode", Json::Str(self.mode.clone())),
            ("status", Json::Str(self.status.as_str().to_string())),
            ("invariant", Json::opt(self.invariant.clone(), Json::Str)),
            ("stats", self.stats.to_json()),
            (
                "paper_size",
                Json::opt(self.paper_size, |s| Json::Num(s as f64)),
            ),
            (
                "paper_time_secs",
                Json::opt(self.paper_time_secs, Json::Num),
            ),
        ])
    }
}

/// Harness-level configuration: which bounds/timeout to use for every run.
#[derive(Debug, Clone)]
pub struct HarnessConfig {
    /// Per-benchmark wall-clock budget.
    pub timeout: Duration,
    /// Use the paper's verifier bounds (`false` = reduced "quick" bounds).
    pub paper_bounds: bool,
    /// The warm-start store directory (`--warm-dir`): every engine built by
    /// [`HarnessConfig::engine`] restores per-problem snapshots from it, and
    /// the binaries save state back into it on exit, so re-invoking a
    /// harness binary starts warm from the previous *process*'s caches.
    /// `None` = cold engines, no filesystem access.
    pub warm_dir: Option<String>,
}

impl HarnessConfig {
    /// A quick configuration for smoke runs and CI: reduced verifier bounds
    /// and a small per-benchmark budget.
    pub fn quick() -> Self {
        HarnessConfig {
            timeout: Duration::from_secs(20),
            paper_bounds: false,
            warm_dir: None,
        }
    }

    /// A fuller configuration closer to the paper's setup (still with a
    /// reduced default budget; pass `--timeout` to the binaries to raise it).
    pub fn full() -> Self {
        HarnessConfig {
            timeout: Duration::from_secs(300),
            paper_bounds: true,
            warm_dir: None,
        }
    }

    /// Builds the engine for one experiment run, attached to the warm-start
    /// store when one is configured.
    pub fn engine(&self) -> Engine {
        let mut config = hanoi::EngineConfig::default();
        if let Some(dir) = &self.warm_dir {
            config = config.with_warm_start_dir(dir);
        }
        Engine::new(config).expect("harness engine config is valid")
    }

    /// Checkpoints an engine into the configured warm-start store (a no-op
    /// without `--warm-dir`), logging failures instead of aborting a
    /// finished experiment.
    pub fn save_engine(&self, engine: &Engine) {
        if self.warm_dir.is_none() {
            return;
        }
        match engine.save_state_to_warm_dir() {
            Ok(written) if written > 0 => eprintln!(
                "saved {written} warm-start snapshot(s) to {}",
                self.warm_dir.as_deref().unwrap_or_default()
            ),
            Ok(_) => {}
            Err(e) => eprintln!("warm-start save failed: {e}"),
        }
    }

    /// Builds the per-run options for one mode.
    pub fn run_options(&self, mode: Mode, optimizations: Optimizations) -> RunOptions {
        let bounds = if self.paper_bounds {
            VerifierBounds::paper()
        } else {
            VerifierBounds::quick()
        };
        RunOptions::paper()
            .with_mode(mode)
            .with_bounds(bounds)
            .with_optimizations(optimizations)
            .with_timeout(Some(self.timeout))
    }
}

/// Runs one already-elaborated problem through the engine and produces a
/// table row.  Runs sharing `problem` (and the engine) reuse its warm pools
/// and term banks.
pub fn run_problem(
    engine: &Engine,
    problem: &Problem,
    benchmark: &Benchmark,
    options: RunOptions,
    mode_label: &str,
) -> Row {
    let result = engine.run(problem, &options);
    let status = match &result.outcome {
        Outcome::Invariant(_) => RunStatus::Completed,
        Outcome::Timeout => RunStatus::TimedOut,
        Outcome::Cancelled => RunStatus::Cancelled,
        Outcome::SpecViolation(_) | Outcome::SynthesisFailure(_) => RunStatus::Failed,
    };
    Row {
        id: benchmark.id.to_string(),
        mode: mode_label.to_string(),
        status,
        invariant: result.outcome.invariant().map(|e| e.to_string()),
        stats: result.stats,
        paper_size: benchmark.paper_size,
        paper_time_secs: benchmark.paper_time_secs,
    }
}

/// Runs one benchmark under one configuration and produces a table row,
/// elaborating the benchmark source first (elaboration failures become
/// [`RunStatus::Failed`] rows).
pub fn run_benchmark(
    engine: &Engine,
    benchmark: &Benchmark,
    options: RunOptions,
    mode_label: &str,
) -> Row {
    match benchmark.problem() {
        Ok(problem) => run_problem(engine, &problem, benchmark, options, mode_label),
        Err(e) => Row {
            id: benchmark.id.to_string(),
            mode: mode_label.to_string(),
            status: RunStatus::Failed,
            invariant: Some(format!("elaboration error: {e}")),
            stats: RunStats::default(),
            paper_size: benchmark.paper_size,
            paper_time_secs: benchmark.paper_time_secs,
        },
    }
}

/// The six configurations of Figure 8, as (label, mode, optimizations).
pub fn figure8_modes() -> Vec<(&'static str, Mode, Optimizations)> {
    vec![
        ("Hanoi", Mode::Hanoi, Optimizations::all()),
        ("Hanoi-SRC", Mode::Hanoi, Optimizations::without_src()),
        ("Hanoi-CLC", Mode::Hanoi, Optimizations::without_clc()),
        ("AndStr", Mode::ConjStr, Optimizations::all()),
        ("LA", Mode::LinearArbitrary, Optimizations::all()),
        ("OneShot", Mode::OneShot, Optimizations::all()),
    ]
}

/// The two synthesizer back ends of the §5.4 ablation.
pub fn ablation_synthesizers() -> Vec<(&'static str, SynthChoice)> {
    vec![("myth", SynthChoice::Myth), ("fold", SynthChoice::Fold)]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_on_an_easy_benchmark_completes() {
        let benchmark = hanoi_benchmarks::find("/other/cache").unwrap();
        let harness = HarnessConfig::quick();
        let engine = harness.engine();
        let options = harness.run_options(Mode::Hanoi, Optimizations::all());
        let row = run_benchmark(&engine, &benchmark, options.clone(), "Hanoi");
        assert_eq!(row.status, RunStatus::Completed, "row: {row:?}");
        assert!(row.size().is_some());
        assert!(row.mvt_secs().is_some());
        assert!(row.time_secs() > 0.0);
        // Serialises cleanly, including the embedded statistics.
        let json = row.to_json();
        assert_eq!(json.get("id").and_then(Json::as_str), Some(row.id.as_str()));
        assert_eq!(
            json.get("status").and_then(Json::as_str),
            Some(row.status.as_str())
        );
        let stats = json.get("stats").unwrap();
        assert_eq!(
            stats.get("iterations").and_then(Json::as_usize),
            Some(row.iterations())
        );
        assert_eq!(
            stats.get("verification_calls").and_then(Json::as_usize),
            Some(row.tvc())
        );

        // A warm re-run through the same engine must agree and skip pool
        // enumeration entirely.
        let problem = benchmark.problem().unwrap();
        let warm = run_problem(&engine, &problem, &benchmark, options.clone(), "Hanoi-warm");
        // (Distinct `Problem` values have distinct cache entries; run twice
        // on the *same* problem to observe warmth.)
        let warmer = run_problem(&engine, &problem, &benchmark, options, "Hanoi-warm");
        assert_eq!(warm.status, warmer.status);
        assert_eq!(warm.invariant, warmer.invariant);
        assert_eq!(warmer.stats.pool_builds, 0, "{:?}", warmer.stats);
    }

    #[test]
    fn mode_and_ablation_tables_are_complete() {
        assert_eq!(figure8_modes().len(), 6);
        assert_eq!(ablation_synthesizers().len(), 2);
        assert_eq!(RunStatus::Cancelled.as_str(), "Cancelled");
    }
}
