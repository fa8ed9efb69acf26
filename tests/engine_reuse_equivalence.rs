//! Cross-run cache reuse correctness: a *warm* engine — one that has already
//! run inference on a problem and kept its value pools and term banks — must
//! produce results identical to a *cold* engine on every benchmark of the
//! suite.  Both caches are semantically transparent by design; this test
//! pins it end to end, through the public service API.
//!
//! The run options are chosen deterministic (no wall-clock timeout, a small
//! iteration cap, a small search schedule) so outcomes are pure functions of
//! the problem and the caches: any warm/cold divergence is a cache bug, not
//! scheduling noise.

use hanoi_repro::benchmarks::{self, Benchmark};
use hanoi_repro::hanoi::{Engine, Mode, Outcome, RunOptions, RunResult};
use hanoi_repro::synth::arith::ArithBounds;
use hanoi_repro::synth::SearchConfig;
use hanoi_repro::verifier::VerifierBounds;

/// Deterministic options: bounded iterations instead of a wall-clock budget,
/// and a search schedule small enough that even failing searches stay fast
/// in debug builds across all 28 benchmarks.
fn test_options() -> RunOptions {
    RunOptions::quick()
        .with_timeout(None)
        .with_max_iterations(5)
        .with_bounds(VerifierBounds {
            single_count: 250,
            single_size: 12,
            multi_count: 100,
            multi_size: 8,
            total_cap: 2_500,
            ..VerifierBounds::quick()
        })
        .with_search(SearchConfig {
            schedule: vec![(0, 4), (1, 5)],
            max_terms_per_layer: 300,
            fuel: 4_000,
            ..SearchConfig::quick()
        })
}

/// A label for outcome comparison that is total (invariants compare by
/// expression, failures by kind+message).
fn outcome_key(outcome: &Outcome) -> String {
    match outcome {
        Outcome::Invariant(inv) => format!("invariant: {inv}"),
        other => other.to_string(),
    }
}

/// Runs `benchmark` on a cold engine and twice through one warm engine, and
/// asserts the runs agree and the warm re-run rebuilt nothing.  Returns the
/// cold run.
fn assert_warm_matches_cold(benchmark: &Benchmark, options: &RunOptions) -> RunResult {
    let problem = benchmark
        .problem()
        .unwrap_or_else(|e| panic!("{}: {e}", benchmark.id));

    // Cold: a fresh engine, exactly one run.
    let cold = Engine::with_defaults().run(&problem, options);

    // Warm: one engine, the same run twice; the second starts from the
    // first run's pools and term bank.
    let engine = Engine::with_defaults();
    let session = engine.session(&problem);
    let first = session.run(options);
    let warm = session.run(options);

    assert_eq!(
        outcome_key(&first.outcome),
        outcome_key(&cold.outcome),
        "{}: first warm-engine run diverged from a cold engine",
        benchmark.id
    );
    assert_eq!(
        outcome_key(&warm.outcome),
        outcome_key(&cold.outcome),
        "{}: warm re-run diverged from a cold run",
        benchmark.id
    );
    assert_eq!(
        warm.stats.iterations, cold.stats.iterations,
        "{}: warm re-run took a different CEGIS path",
        benchmark.id
    );
    assert_eq!(
        warm.stats.final_positives, cold.stats.final_positives,
        "{}: warm re-run learned a different V+",
        benchmark.id
    );
    assert_eq!(
        warm.stats.final_negatives, cold.stats.final_negatives,
        "{}: warm re-run learned a different V−",
        benchmark.id
    );

    // The warmth must be real: the second run re-enumerates nothing.
    assert_eq!(
        warm.stats.pool_builds, 0,
        "{}: a warm run built pools ({:?})",
        benchmark.id, warm.stats
    );
    assert_eq!(
        warm.stats.pool_slab_builds, 0,
        "{}: a warm run built slabs",
        benchmark.id
    );
    assert!(
        warm.stats.synth_terms_enumerated <= cold.stats.synth_terms_enumerated,
        "{}: a warm bank enumerated more terms than a cold one ({} > {})",
        benchmark.id,
        warm.stats.synth_terms_enumerated,
        cold.stats.synth_terms_enumerated
    );
    cold
}

#[test]
fn warm_engines_match_cold_engines_on_every_benchmark() {
    for benchmark in benchmarks::registry() {
        assert_warm_matches_cold(&benchmark, &test_options());
    }
}

#[test]
fn warm_engines_match_cold_engines_on_every_numeric_benchmark() {
    // The linear-arithmetic grammar replays through the same caches: warm
    // re-runs must agree with cold ones and the grammar must be exercised.
    let options = test_options().with_numeric_grammar(&ArithBounds::default());
    for benchmark in benchmarks::numeric_registry() {
        let cold = assert_warm_matches_cold(&benchmark, &options);
        assert!(
            cold.stats.synth_arith_atoms > 0,
            "{}: no arithmetic atoms enumerated",
            benchmark.id
        );
    }
}

#[test]
fn warm_oneshot_matches_cold_oneshot_after_a_hanoi_run() {
    // The OneShot baseline shares the session's term bank with the main
    // algorithm; a OneShot run served from a Hanoi-warmed bank must be
    // outcome-identical to a cold OneShot run.
    for id in ["/coq/unique-list-::-set", "/other/cache", "/other/rational"] {
        let problem = benchmarks::find(id).unwrap().problem().unwrap();
        let options = test_options();
        let one_shot = test_options().with_mode(Mode::OneShot);

        let engine = Engine::with_defaults();
        let session = engine.session(&problem);
        let _ = session.run(&options);
        let warm = session.run(&one_shot);
        let cold = Engine::with_defaults().run(&problem, &one_shot);
        assert_eq!(
            outcome_key(&warm.outcome),
            outcome_key(&cold.outcome),
            "{id}: OneShot diverged when sharing the Hanoi run's bank"
        );
        // OneShot requests some pool keys of its own (the labelled sample,
        // the spec's base-type pools), so a handful of warm assemblies is
        // legitimate — but the Hanoi run's slabs and pools must be reused,
        // never rebuilt.
        assert!(
            warm.stats.pool_builds <= cold.stats.pool_builds,
            "{id}: warm OneShot built more pools than a cold one"
        );
        assert!(
            warm.stats.pool_slab_builds <= cold.stats.pool_slab_builds,
            "{id}: warm OneShot enumerated more slabs than a cold one"
        );
    }
}

#[test]
fn batches_match_sequential_sessions() {
    use hanoi_repro::hanoi::BatchJob;

    let problems: Vec<_> = ["/other/cache", "/other/rational", "/other/sized-list"]
        .iter()
        .map(|id| benchmarks::find(id).unwrap().problem().unwrap())
        .collect();
    let jobs: Vec<BatchJob<'_>> = problems
        .iter()
        .map(|p| BatchJob::new(p, test_options()))
        .collect();

    let parallel_engine =
        Engine::new(hanoi_repro::hanoi::EngineConfig::default().with_parallelism(2)).unwrap();
    let batched = parallel_engine.run_batch(&jobs);

    for (job, result) in jobs.iter().zip(&batched) {
        let sequential = Engine::with_defaults().run(job.problem, &job.options);
        assert_eq!(
            outcome_key(&result.outcome),
            outcome_key(&sequential.outcome),
            "batched result diverged from a sequential run"
        );
    }
}
