//! Judging a run's verdicts and writing its records.

use std::collections::BTreeMap;
use std::io;
use std::path::Path;

use hanoi_lang::json::Json;
use hanoi_verifier::VerifierBounds;

use crate::jobs::{self, Job, Pass, Workload};
use crate::metrics::{self, END_TO_END, PER_LAYER};
use crate::trace::Tracer;
use crate::{check, record, Args, Served};

/// The independent check's answer per distinct `(job index, invariant
/// digest)`.
pub type Verdicts = BTreeMap<(usize, String), Result<(), String>>;

/// Checks every distinct invariant the run returned, outside every timed
/// region.
pub fn check_verdicts(jobs: &[Job], served: &Served, seed: u64) -> Verdicts {
    let mut verdicts = Verdicts::new();
    let passes = served
        .seed
        .iter()
        .chain(&served.measured)
        .chain(&served.traced);
    for pass in passes {
        for (index, run) in pass.runs.iter().enumerate() {
            if let (Some(invariant), Some(digest)) = (run.result.outcome.invariant(), run.digest())
            {
                verdicts
                    .entry((index, digest))
                    .or_insert_with(|| check::check(&jobs[index], invariant, seed));
            }
        }
    }
    verdicts
}

/// How the measured job runs ended.
#[derive(Debug, Default)]
pub struct Judgement {
    /// Job runs measured.
    pub attempted: u64,
    /// Job runs that failed.
    pub failed: u64,
    /// Failed job runs whose output was wrong (a rejected invariant, or a
    /// warm verdict that differs from the cold one).
    pub incorrect: u64,
}

/// Counts failures among the measured job runs.  A run fails when it ends
/// without an invariant, when the independent check rejects its
/// invariant, or — on `warm-restart` — when its restore quarantined
/// anything, restored nothing, or its verdict differs from the cold pass.
pub fn judge(jobs: &[Job], served: &Served, verdicts: &Verdicts) -> Judgement {
    let mut judgement = Judgement::default();
    let mut failures: Vec<String> = Vec::new();
    for pass in &served.measured {
        for (index, run) in pass.runs.iter().enumerate() {
            judgement.attempted += 1;
            let mut reasons = Vec::new();
            let mut wrong = false;
            if run.result.outcome.invariant().is_none() {
                reasons.push(run.result.outcome.to_string());
            }
            if let Some(Err(why)) = run.digest().and_then(|d| verdicts.get(&(index, d))) {
                reasons.push(format!("independent check rejected the invariant: {why}"));
                wrong = true;
            }
            if let Some(seed) = &served.seed {
                let stats = &run.result.stats;
                if stats.warm_start_loads == 0 {
                    reasons.push("restored nothing from the warm-start store".to_string());
                }
                if stats.warm_start_quarantined > 0 {
                    reasons.push(format!("{} quarantine(s)", stats.warm_start_quarantined));
                }
                if run.digest() != seed.runs[index].digest() {
                    reasons.push("verdict differs from the cold pass".to_string());
                    wrong = true;
                }
            }
            if !reasons.is_empty() {
                judgement.failed += 1;
                judgement.incorrect += u64::from(wrong);
                failures.push(format!(
                    "{}: {}",
                    jobs[index].spec.label(),
                    reasons.join("; ")
                ));
            }
        }
    }
    failures.sort();
    failures.dedup();
    for failure in &failures {
        eprintln!("perfbench: failed job {failure}");
    }
    judgement
}

/// The determinism guard: every pass of this run, and the reference an
/// earlier run of the same sources recorded, must agree exactly on each
/// job's outcome, invariant digest and work counters.  Returns the number
/// of mismatches (each is reported on stderr).
pub fn guard(workload: Workload, source: &str, jobs: &[Job], served: &Served) -> io::Result<usize> {
    let lines_of = |pass: &Pass, prefix: &str| -> Vec<String> {
        pass.runs
            .iter()
            .zip(jobs)
            .map(|(run, job)| format!("{prefix}{}", run.guard_line(&job.spec.label())))
            .collect()
    };
    let reference = lines_of(&served.measured[0], "");
    let mut mismatches: Vec<(String, String)> = Vec::new();
    for pass in served.measured.iter().skip(1).chain(&served.traced) {
        mismatches.extend(
            reference
                .iter()
                .cloned()
                .zip(lines_of(pass, ""))
                .filter(|(a, b)| a != b),
        );
    }
    let mut lines = served
        .seed
        .as_ref()
        .map(|p| lines_of(p, "cold "))
        .unwrap_or_default();
    lines.extend(reference);
    mismatches.extend(record::check_guard(workload.name(), source, &lines)?);
    for (expected, found) in &mismatches {
        eprintln!(
            "perfbench: determinism guard mismatch\n  expected {expected}\n  found    {found}"
        );
    }
    Ok(mismatches.len())
}

/// Fastest time to a verdict of job `index` over the measured passes.
pub fn verdict_s(measured: &[Pass], index: usize) -> f64 {
    measured
        .iter()
        .map(|p| p.runs[index].verdict_time().as_secs_f64())
        .fold(f64::INFINITY, f64::min)
}

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Writes the result record (configuration, one row per job, metrics) and,
/// for traced runs, the spans into [`record::STATE_DIR`].
#[allow(clippy::too_many_arguments)]
pub fn write_records(
    args: &Args,
    source: &str,
    jobs: &[Job],
    served: &Served,
    verdicts: &Verdicts,
    end_to_end: &BTreeMap<&str, f64>,
    per_layer: Option<&BTreeMap<&str, f64>>,
    tracer: &Tracer,
) -> io::Result<()> {
    let state = Path::new(record::STATE_DIR);
    let tag = format!(
        "{}-seed{}-trace{}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    );
    let rows = jobs
        .iter()
        .enumerate()
        .map(|(index, job)| job_json(job, &served.measured, index, verdicts))
        .collect();
    let result = Json::obj([
        ("config", config_json(args, source, jobs)),
        ("jobs", Json::Arr(rows)),
        ("metrics", metrics::to_json(END_TO_END, end_to_end)),
        (
            "per_layer",
            Json::opt(per_layer, |m| metrics::to_json(PER_LAYER, m)),
        ),
    ]);
    std::fs::write(
        state.join(format!("result-{tag}.json")),
        result.render_pretty(),
    )?;
    if args.trace {
        std::fs::write(
            state.join(format!("spans-{tag}.json")),
            tracer.to_json().render(),
        )?;
    }
    Ok(())
}

fn bounds_json(b: &VerifierBounds) -> Json {
    let n = |v: usize| Json::Num(v as f64);
    Json::obj([
        ("single_count", n(b.single_count)),
        ("single_size", n(b.single_size)),
        ("multi_count", n(b.multi_count)),
        ("multi_size", n(b.multi_size)),
        ("total_cap", n(b.total_cap)),
        ("hof_body_size", n(b.hof_body_size)),
        ("hof_max_functions", n(b.hof_max_functions)),
        ("fuel", Json::Num(b.fuel as f64)),
    ])
}

/// The run's configuration: seed, host, bounds, timeouts, grammar and
/// source revision.
fn config_json(args: &Args, source: &str, jobs: &[Job]) -> Json {
    let arith = jobs::widened_arith();
    let jobs = jobs
        .iter()
        .map(|job| {
            Json::obj([
                ("label", Json::Str(job.spec.label())),
                ("bounds", bounds_json(&job.spec.options.bounds)),
                ("numeric_grammar", Json::Bool(job.spec.numeric)),
            ])
        })
        .collect();
    Json::obj([
        ("workload", Json::Str(args.workload.name().to_string())),
        ("seed", Json::Str(args.seed.to_string())),
        ("seconds", Json::Num(args.seconds)),
        ("trace", Json::Bool(args.trace)),
        ("nproc", Json::Num(nproc() as f64)),
        ("parallelism", Json::Num(1.0)),
        ("git_revision", Json::opt(record::git_revision(), Json::Str)),
        ("source_digest", Json::Str(source.to_string())),
        ("job_timeout_s", Json::Num(jobs::JOB_TIMEOUT.as_secs_f64())),
        ("check_samples", Json::Num(check::SAMPLES as f64)),
        (
            "arith_bounds",
            Json::obj([
                ("coeff_bound", Json::Num(arith.coeff_bound as f64)),
                ("const_bound", Json::Num(arith.const_bound as f64)),
                (
                    "moduli",
                    Json::Arr(arith.moduli.iter().map(|&m| Json::Num(m as f64)).collect()),
                ),
            ]),
        ),
        ("jobs", Json::Arr(jobs)),
    ])
}

/// One job's row: outcome, digest, the independent check's answer, fastest
/// verdict time and the first measured pass's `RunStats`.
fn job_json(job: &Job, measured: &[Pass], index: usize, verdicts: &Verdicts) -> Json {
    let run = &measured[0].runs[index];
    let check = run
        .digest()
        .and_then(|d| verdicts.get(&(index, d)))
        .map(|v| match v {
            Ok(()) => "accepted".to_string(),
            Err(why) => format!("rejected: {why}"),
        });
    Json::obj([
        ("label", Json::Str(job.spec.label())),
        ("status", Json::Str(run.status().to_string())),
        ("digest", Json::opt(run.digest(), Json::Str)),
        ("check", Json::opt(check, Json::Str)),
        ("verdict_s", Json::Num(verdict_s(measured, index))),
        ("stats", run.result.stats.to_json()),
    ])
}
