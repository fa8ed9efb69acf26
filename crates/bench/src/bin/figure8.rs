//! Regenerates Figure 8: cumulative benchmarks completed over time for the
//! six configurations (Hanoi, Hanoi−SRC, Hanoi−CLC, ∧Str, LA, OneShot).
//!
//! Figure 8 is a *wall-clock* comparison (completions within time
//! thresholds), so every (benchmark, mode) run uses a fresh engine: the
//! modes must not warm each other's caches, or later modes would report
//! inflated completion counts.  Use one long-lived engine only when the
//! wall clock is not the measurement (see `hanoi_bench::run_problem`).
//!
//! Usage:
//!
//! ```text
//! cargo run -p hanoi-bench --release --bin figure8 [-- --quick] [-- --timeout <secs>] [-- --out <path>] [-- --warm-dir <dir>] [-- --benchmark <id>]...
//! ```
//!
//! With `--warm-dir`, every fresh engine restores the problem's snapshot
//! from the store as it opens — all six modes start from the *same*
//! pre-invocation snapshot, so the mode-to-mode comparison stays fair —
//! and the store is updated only after a benchmark's modes have all run
//! (from the primary `Hanoi` engine), never in between.  A second
//! invocation of the binary therefore runs warm from the first one's
//! caches: a cross-*process* warm start.

use hanoi::Engine;
use hanoi_bench::cli::HarnessArgs;
use hanoi_bench::report::{completion_summary, figure8_series};
use hanoi_bench::{run_benchmark, run_problem, Row};

fn main() {
    let args = HarnessArgs::parse(false);
    let harness = args.harness();
    let benchmarks = args.benchmarks();
    let out_path = args.out_or("target/figure8.json");

    eprintln!(
        "figure8: running {} benchmark(s) x 6 modes, timeout {:?}",
        benchmarks.len(),
        harness.timeout
    );

    let mut rows: Vec<Row> = Vec::new();
    for benchmark in &benchmarks {
        let problem = benchmark.problem();
        // The primary (Hanoi) engine is kept alive until every mode has run
        // and is then checkpointed into the warm-start store — saving
        // mid-loop would hand later modes caches earlier modes warmed.
        let mut primary: Option<Engine> = None;
        for (index, (label, mode, optimizations)) in
            hanoi_bench::figure8_modes().into_iter().enumerate()
        {
            let options = harness.run_options(mode, optimizations);
            // A fresh engine per run: cold, standalone cost, like the paper
            // (warm only across processes, through `--warm-dir`).
            let engine = harness.engine();
            let row = match &problem {
                Ok(problem) => run_problem(&engine, problem, benchmark, options, label),
                // Elaboration failed: fall back to the per-benchmark path,
                // which renders the error row.
                Err(_) => run_benchmark(&engine, benchmark, options, label),
            };
            eprintln!(
                "  {} [{label}] -> {:?} in {:.1}s",
                benchmark.id,
                row.status,
                row.time_secs()
            );
            rows.push(row);
            if index == 0 {
                primary = Some(engine);
            }
        }
        if let Some(engine) = primary {
            harness.save_engine(&engine);
        }
    }
    // Figure 8 groups by mode: keep rows in mode-major order for the tables.
    rows.sort_by_key(|row| {
        hanoi_bench::figure8_modes()
            .iter()
            .position(|(label, _, _)| *label == row.mode)
            .unwrap_or(usize::MAX)
    });

    let max = harness.timeout.as_secs_f64();
    let thresholds: Vec<f64> = [0.02, 0.05, 0.1, 0.2, 0.5]
        .iter()
        .map(|f| f * max)
        .chain([max])
        .collect();
    println!("{}", figure8_series(&rows, &thresholds));
    println!("{}", completion_summary(&rows));
    let json = hanoi::json::Json::Arr(rows.iter().map(Row::to_json).collect());
    if std::fs::write(&out_path, json.render_pretty()).is_ok() {
        eprintln!("wrote {out_path}");
    }
}
