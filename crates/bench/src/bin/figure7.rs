//! Regenerates Figure 7 / Figure 9: per-benchmark results for the full Hanoi
//! configuration.
//!
//! Usage:
//!
//! ```text
//! cargo run -p hanoi-bench --release --bin figure7 [-- --quick] [-- --timeout <secs>] [-- --parallelism <n>] [-- --out <path>] [-- --warm-dir <dir>] [-- --benchmark <id>]...
//! ```
//!
//! `--quick` runs the fast subset with reduced verifier bounds (a smoke run);
//! the default runs all 28 benchmarks.  The paper uses a 30-minute timeout
//! per benchmark and averages 10 runs; pass `--timeout 1800` to match (and
//! expect a long wall-clock time).
//!
//! `--warm-dir <dir>` attaches the run to the warm-start store: the engine
//! restores per-problem cache snapshots from the directory before running
//! and saves its state back at the end, so invoking the binary *twice* with
//! the same directory gives the second process warm caches (its rows report
//! `warm_start_loads > 0` and near-total `verification_cache_hits`).

use hanoi::{Mode, Optimizations};
use hanoi_bench::cli::HarnessArgs;
use hanoi_bench::report::{completion_summary, figure7_table};
use hanoi_bench::{run_benchmark, Row};

fn main() {
    let args = HarnessArgs::parse(false);
    let harness = args.harness();
    let benchmarks = args.benchmarks();
    let out_path = args.out_or("target/figure7.json");
    let engine = harness.engine();

    eprintln!(
        "figure7: running {} benchmark(s), timeout {:?}, {} bounds",
        benchmarks.len(),
        harness.timeout,
        if harness.paper_bounds {
            "paper"
        } else {
            "quick"
        }
    );

    let mut rows: Vec<Row> = Vec::new();
    for benchmark in &benchmarks {
        eprintln!("  running {} ...", benchmark.id);
        let options = harness.run_options(Mode::Hanoi, Optimizations::all());
        let row = run_benchmark(&engine, benchmark, options, "Hanoi");
        eprintln!(
            "    -> {:?} in {:.1}s (TVC {}, TSC {})",
            row.status,
            row.time_secs(),
            row.tvc(),
            row.tsc()
        );
        rows.push(row);
    }

    harness.save_engine(&engine);
    println!("{}", figure7_table(&rows));
    println!("{}", completion_summary(&rows));
    let json = hanoi::json::Json::Arr(rows.iter().map(Row::to_json).collect());
    if std::fs::write(&out_path, json.render_pretty()).is_ok() {
        eprintln!("wrote {out_path}");
    }
}
