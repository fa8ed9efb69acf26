//! `perfbench`: the repository's end-to-end benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper-cold|synth-heavy|warm-restart> \
//!     [--seed <n>] [--seconds <n>] [--trace <0|1>]
//! ```
//!
//! Run it from the repository root.  It serves one workload's job list
//! (see `jobs.rs`) in passes until `--seconds` have gone by, checks every
//! verdict independently (`check.rs`), compares the work counters with an
//! earlier run of the same sources (the determinism guard), and prints the
//! end-to-end metrics.  `--trace 1` adds one traced pass plus isolated
//! replays and prints the per-layer metrics instead.  The last line of
//! standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}`.
//!
//! Exit codes: 0 on a finished run, 1 when the run could not be made, 2 on a
//! bad command line, 3 when the determinism guard found a mismatch.

mod check;
mod jobs;
mod metrics;
mod record;
mod report;
mod trace;

use std::collections::BTreeMap;
use std::io;
use std::process::ExitCode;
use std::time::Instant;

use hanoi_lang::json::Json;

use crate::jobs::{Job, JobSpec, Pass, Workload};
use crate::metrics::{Replays, END_TO_END, PER_LAYER};
use crate::trace::Tracer;

const USAGE: &str = "usage: perfbench --workload <paper-cold|synth-heavy|warm-restart> \
                     [--seed <n>] [--seconds <n>] [--trace <0|1>]";

/// How often the job list is elaborated before the first pass and again
/// after each measured pass; `setup_s` counts the fastest of them all.
/// Elaboration takes about a millisecond, so one sample would be mostly
/// noise, and samples spread over the whole run are not all caught by the
/// same slow spell of the host.
const ELABORATION_REPS: usize = 21;

/// Fewest measured passes per run, however long a pass takes.
const MIN_PASSES: usize = 3;

/// The command line.
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 0xC0FFEE;
    let mut seconds: f64 = 10.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} requires an argument"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(&value)
                        .ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if seconds.is_nan() || seconds < 0.0 {
                    return Err("--seconds must be a non-negative number".to_string());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The median of a sample (`0` for an empty one).
fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => values[n / 2],
        _ => (values[n / 2 - 1] + values[n / 2]) / 2.0,
    }
}

/// Elaborates the job list (`Benchmark::problem`), each job inside an
/// `abstraction.elaborate` span.
fn elaborate(specs: &[JobSpec], tracer: &mut Tracer) -> Result<Vec<Job>, String> {
    specs
        .iter()
        .enumerate()
        .map(|(index, spec)| {
            let problem = tracer.time("abstraction.elaborate", Some(index), || spec.elaborate())?;
            Ok(Job {
                spec: spec.clone(),
                problem,
            })
        })
        .collect()
}

/// Elaborates the job list [`ELABORATION_REPS`] times and returns the
/// fastest time.
fn fastest_elaboration(jobs: &[Job]) -> f64 {
    (0..ELABORATION_REPS)
        .map(|_| {
            let start = Instant::now();
            for job in jobs {
                std::hint::black_box(job.spec.elaborate()).ok();
            }
            start.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

/// Everything one run served.
struct Served {
    /// The `warm-restart` set-up pass that built the seed store.
    seed: Option<Pass>,
    /// The untraced passes the end-to-end metrics come from.
    measured: Vec<Pass>,
    /// The traced pass (`--trace 1` only).
    traced: Option<Pass>,
    /// What the traced run's replays measured.
    replays: Replays,
    /// Fastest elaboration of the job list.
    elaborate_s: f64,
}

/// Serves the workload: set-up pass (for `warm-restart`), untraced passes
/// until `--seconds` have gone by, and the traced pass with its replays.
fn serve(args: &Args, jobs: &[Job], tracer: &mut Tracer) -> io::Result<Served> {
    let mut elaborate_s = fastest_elaboration(jobs);
    let work = record::WorkDir::new(&format!("work-{}", std::process::id()))?;
    let seed_store = work.0.join("seed");
    let warm = args.workload == Workload::WarmRestart;
    let seed = if warm {
        Some(jobs::serve_cold(
            jobs,
            Some(&seed_store),
            &mut Tracer::off(),
        )?)
    } else {
        None
    };
    // A warm pass restores from its own copy of the seed store (a restore
    // writes the store's LRU index) and saves into an empty directory.
    let one_pass = |name: &str, tracer: &mut Tracer| -> io::Result<(Pass, (u64, u64))> {
        if !warm {
            return Ok((jobs::serve_cold(jobs, None, tracer)?, (0, 0)));
        }
        let store = work.0.join(format!("{name}-store"));
        let save = work.0.join(format!("{name}-save"));
        record::copy_dir(&seed_store, &store)?;
        std::fs::create_dir_all(&save)?;
        let pass = jobs::serve_warm(jobs, &store, &save, tracer)?;
        let written = record::dir_files(&save.join("chunks"))?;
        std::fs::remove_dir_all(&store)?;
        std::fs::remove_dir_all(&save)?;
        Ok((pass, written))
    };

    let start = Instant::now();
    let mut measured = Vec::new();
    while measured.len() < MIN_PASSES || start.elapsed().as_secs_f64() < args.seconds {
        let (pass, _) = one_pass(&format!("pass{}", measured.len()), &mut Tracer::off())?;
        eprintln!(
            "perfbench: pass {} took {:.3}s",
            measured.len(),
            pass.wall.as_secs_f64()
        );
        measured.push(pass);
        elaborate_s = elaborate_s.min(fastest_elaboration(jobs));
    }

    let mut replays = Replays::default();
    let traced = if args.trace {
        let (pass, written) = one_pass("traced", tracer)?;
        if warm {
            let store = work.0.join("replay-store");
            record::copy_dir(&seed_store, &store)?;
            replays.restore = trace::replay_restore(jobs, &store, tracer)?;
        } else {
            replays.pool_values = trace::replay_verifier(jobs, &pass.runs, tracer);
        }
        replays.written = written;
        Some(pass)
    } else {
        None
    };
    Ok(Served {
        seed,
        measured,
        traced,
        replays,
        elaborate_s,
    })
}

fn run(args: &Args) -> Result<ExitCode, String> {
    let io_err = |e: io::Error| e.to_string();
    std::fs::create_dir_all(record::STATE_DIR).map_err(io_err)?;
    let source = record::source_digest().map_err(io_err)?;
    let mut tracer = if args.trace {
        Tracer::on()
    } else {
        Tracer::off()
    };

    let specs = args.workload.job_specs();
    let jobs = elaborate(&specs, &mut tracer)?;
    let served = serve(args, &jobs, &mut tracer).map_err(io_err)?;
    let setup_s = served.elaborate_s + served.seed.as_ref().map_or(0.0, |p| p.wall.as_secs_f64());

    let verdicts = report::check_verdicts(&jobs, &served, args.seed);
    let judgement = report::judge(&jobs, &served, &verdicts);
    let mismatches = report::guard(args.workload, &source, &jobs, &served).map_err(io_err)?;

    // Fastest pass, and each job's fastest time: other tenants of the host
    // slow the same code down for seconds to minutes at a time, and the
    // quiet moments between are what repeats from run to run (see the
    // README).  `trace.overhead_s` compares one traced pass with the
    // median untraced pass instead.
    let pass_walls = || served.measured.iter().map(|p| p.wall.as_secs_f64());
    let suite_s = pass_walls().fold(f64::INFINITY, f64::min);
    let verdict_p50_s = median(
        (0..jobs.len())
            .map(|index| report::verdict_s(&served.measured, index))
            .collect(),
    );
    let pass_s = median(pass_walls().collect());
    let end_to_end = BTreeMap::from([
        ("suite_s", suite_s),
        ("verdict_p50_s", verdict_p50_s),
        ("setup_s", setup_s),
        ("peak_rss_mb", record::peak_rss_mb().map_err(io_err)?),
    ]);
    let per_layer = served
        .traced
        .as_ref()
        .map(|traced| metrics::per_layer(traced, &tracer, &served.replays, pass_s));

    println!(
        "perfbench {} seed={} passes={} jobs={} (nproc {}, parallelism 1)",
        args.workload.name(),
        args.seed,
        served.measured.len(),
        jobs.len(),
        report::nproc()
    );
    for &(name, unit) in END_TO_END {
        println!("  {name:<14} {:>12.4} {unit}", end_to_end[name]);
    }
    println!(
        "  {:<14} {:>12.4} share ({} of {} job runs)",
        "failed_share",
        judgement.failed as f64 / judgement.attempted.max(1) as f64,
        judgement.failed,
        judgement.attempted
    );
    if let Some(layers) = &per_layer {
        for &(name, unit) in PER_LAYER {
            println!("  {name:<34} {:>16.4} {unit}", layers[name]);
        }
    }
    report::write_records(
        args,
        &source,
        &jobs,
        &served,
        &verdicts,
        &end_to_end,
        per_layer.as_ref(),
        &tracer,
    )
    .map_err(io_err)?;

    let metrics = match &per_layer {
        Some(layers) => metrics::to_json(PER_LAYER, layers),
        None => metrics::to_json(END_TO_END, &end_to_end),
    };
    let correct = judgement.incorrect == 0 && mismatches == 0;
    println!(
        "{}",
        Json::obj([
            ("correct", Json::Bool(correct)),
            ("attempted", Json::Num(judgement.attempted as f64)),
            ("failed", Json::Num(judgement.failed as f64)),
            ("metrics", metrics),
        ])
        .render()
    );
    Ok(if mismatches == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn medians_of_odd_and_even_samples() {
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(vec![4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
