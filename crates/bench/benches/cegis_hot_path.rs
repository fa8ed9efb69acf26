//! The CEGIS verification hot path: serial vs parallel checks, pool-cache
//! behaviour and predicate-evaluation throughput.
//!
//! Measures the verifier's three checks on the §2 running example at
//! parallelism 1 (serial), 2, 4 and 0 (one worker per core), reports each
//! timing through the criterion harness, and writes a machine-readable
//! summary to `BENCH_verification.json` (override the path with the
//! `BENCH_VERIFICATION_OUT` environment variable).
//!
//! The workloads are chosen so the sweep runs to completion (`Valid`
//! outcomes, no short-circuit): that is both the verifier's dominant cost in
//! practice — most CEGIS iterations end in a full sweep — and the best-case
//! shape for parallelism, so the summary's `speedup` column directly reads
//! off how much the parallel refactor buys on this host.
//!
//! On top of the serial/parallel comparison this bench instruments the
//! shared pool cache: each workload reports its *cold* first run (pools
//! enumerated) next to the warm median (pools served from cache), the
//! session's hit/build counters, and the predicate-evaluation throughput of
//! the warm runs — the three numbers the pool-cache + slot-resolution
//! overhaul moves.
//!
//! ```text
//! cargo bench -p hanoi-bench --bench cegis_hot_path
//! ```
//!
//! Set `CEGIS_HOT_PATH_QUICK=1` for a seconds-long smoke configuration
//! (tiny bounds, three samples) used by the `bench-smoke` CI job to catch
//! enumeration/eval regressions without a nightly runner.

use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, Criterion};
use hanoi_bench::json::Json;
use hanoi_benchmarks::find;
use hanoi_lang::parser::parse_expr;
use hanoi_lang::util::Deadline;
use hanoi_lang::value::Value;
use hanoi_synth::engine::Engine;
use hanoi_synth::{ExampleSet, SearchConfig, TermBank};
use hanoi_verifier::{PoolCacheStats, Verifier, VerifierBounds};

/// Parallelism levels measured, in reporting order. `0` = all cores.
const LEVELS: [usize; 4] = [1, 2, 4, 0];

fn quick_mode() -> bool {
    std::env::var("CEGIS_HOT_PATH_QUICK").is_ok_and(|v| !v.is_empty() && v != "0")
}

fn median_secs(mut samples: Vec<Duration>) -> f64 {
    samples.sort();
    samples[samples.len() / 2].as_secs_f64()
}

struct Workload {
    name: &'static str,
    run: Box<dyn Fn(&Verifier<'_>)>,
}

/// The incremental-synthesis workload: a scripted CEGIS-like sequence of
/// growing example sets, run once with a throwaway term bank per iteration
/// (*cold*, the rebuild-per-iteration behaviour the persistent bank
/// replaces) and once with a single persistent bank (*warm*).  Both runs
/// return identical predicates (asserted, serial and parallel); the summary
/// reports the medians, the warm/cold speedup and the bank counters.
fn bench_synthesis_multi_cex(c: &mut Criterion, samples: usize) -> Json {
    let problem = find("/coq/unique-list-::-set")
        .unwrap()
        .problem()
        .expect("benchmark elaborates");
    // Example values sized like a mid-run CEGIS state at paper verifier
    // bounds: the positives are duplicate-free lists up to several elements
    // (what visible-inductiveness sweeps feed back), the negatives are the
    // duplicate-carrying counterexamples full-inductiveness produces.
    let positives: Vec<Value> = [
        vec![],
        vec![0],
        vec![1],
        vec![2],
        vec![1, 0],
        vec![2, 0],
        vec![3, 1],
        vec![2, 1, 0],
        vec![4, 2, 1],
        vec![5, 3, 2, 0],
        vec![6, 4, 3, 1],
        vec![5, 4, 3, 2, 1],
        vec![7, 5, 4, 2, 1, 0],
        vec![8, 6, 5, 4, 3, 2, 1],
    ]
    .iter()
    .map(|items| Value::nat_list(items))
    .collect();
    let negative_stream: &[&[u64]] = if quick_mode() {
        &[&[0, 0], &[1, 1], &[3, 2, 2], &[4, 1, 4, 0]]
    } else {
        &[
            &[0, 0],
            &[1, 1],
            &[3, 2, 2],
            &[4, 1, 4, 0],
            &[2, 5, 3, 2],
            &[5, 4, 4, 1, 0],
            &[6, 3, 2, 6, 1],
            &[4, 3, 2, 1, 4, 0],
            &[7, 6, 5, 3, 3, 1],
            &[8, 7, 5, 4, 2, 1, 8],
        ]
    };
    let sequence: Vec<ExampleSet> = (1..=negative_stream.len())
        .map(|step| {
            let examples = ExampleSet::from_sets(
                positives.iter().cloned(),
                negative_stream[..step].iter().map(|n| Value::nat_list(n)),
            )
            .expect("scripted example sets are disjoint");
            examples
                .trace_completed(&problem.tyenv, problem.concrete_type())
                .0
        })
        .collect();
    let config = if quick_mode() {
        SearchConfig {
            schedule: vec![(0, 5), (1, 7)],
            ..SearchConfig::quick()
        }
    } else {
        SearchConfig {
            schedule: vec![(0, 5), (1, 7), (1, 9)],
            ..SearchConfig::default()
        }
    };
    let engine = Engine::new(&problem, config.clone());

    let run_sequence = |persistent: Option<&TermBank>| -> Vec<Option<hanoi_lang::ast::Expr>> {
        sequence
            .iter()
            .map(|examples| {
                let fresh;
                let bank = match persistent {
                    Some(bank) => bank,
                    None => {
                        fresh = TermBank::new();
                        &fresh
                    }
                };
                engine
                    .synthesize_with_bank(bank, examples, &Deadline::none())
                    .ok()
            })
            .collect()
    };

    // Correctness first: warm ≡ cold, and parallel ≡ serial.
    let cold_predicates = run_sequence(None);
    let warm_bank = TermBank::new();
    let warm_predicates = run_sequence(Some(&warm_bank));
    assert_eq!(
        warm_predicates, cold_predicates,
        "a persistent bank must not change synthesis results"
    );
    let parallel_engine = Engine::new(
        &problem,
        SearchConfig {
            parallelism: Some(0),
            ..config
        },
    );
    let parallel_bank = TermBank::new();
    let parallel_predicates: Vec<Option<hanoi_lang::ast::Expr>> = sequence
        .iter()
        .map(|examples| {
            parallel_engine
                .synthesize_with_bank(&parallel_bank, examples, &Deadline::none())
                .ok()
        })
        .collect();
    assert_eq!(
        parallel_predicates, cold_predicates,
        "parallel synthesis must be outcome-identical to serial"
    );
    let warm_stats = warm_bank.stats();
    assert!(warm_stats.column_appends > 0);
    assert!(warm_stats.bank_hits > 0);
    assert!(
        warm_stats.guess_memo_hits > 0,
        "a growing example sequence must replay unchanged sub-guesses \
         from the guess memo: {warm_stats:?}"
    );
    assert!(warm_stats.probe_batches > 0);
    assert!(warm_stats.bitset_row_ops > 0);

    // Timings: each sample replays the whole sequence from scratch.
    let mut cold_timings = Vec::with_capacity(samples);
    let mut warm_timings = Vec::with_capacity(samples);
    for _ in 0..samples {
        let start = Instant::now();
        let _ = run_sequence(None);
        cold_timings.push(start.elapsed());
        let bank = TermBank::new();
        let start = Instant::now();
        let _ = run_sequence(Some(&bank));
        warm_timings.push(start.elapsed());
    }
    let cold_secs = median_secs(cold_timings);
    let warm_secs = median_secs(warm_timings);

    let mut group = c.benchmark_group("synthesis_multi_cex");
    group.sample_size(samples);
    group.bench_function("cold_rebuild_per_iteration", |b| {
        b.iter(|| run_sequence(None))
    });
    group.bench_function("warm_persistent_bank", |b| {
        b.iter(|| {
            let bank = TermBank::new();
            run_sequence(Some(&bank))
        })
    });
    group.finish();

    Json::obj([
        (
            "benchmark",
            Json::Str("/coq/unique-list-::-set".to_string()),
        ),
        ("iterations", Json::Num(sequence.len() as f64)),
        ("cold_secs", Json::Num(cold_secs)),
        ("warm_secs", Json::Num(warm_secs)),
        (
            "speedup_warm_over_cold",
            Json::Num(cold_secs / warm_secs.max(f64::MIN_POSITIVE)),
        ),
        (
            "terms_enumerated",
            Json::Num(warm_stats.terms_enumerated as f64),
        ),
        (
            "signature_column_appends",
            Json::Num(warm_stats.column_appends as f64),
        ),
        (
            "eq_class_splits",
            Json::Num(warm_stats.eq_class_splits as f64),
        ),
        ("bank_hits", Json::Num(warm_stats.bank_hits as f64)),
        ("bank_misses", Json::Num(warm_stats.bank_misses as f64)),
        (
            "guess_memo_hits",
            Json::Num(warm_stats.guess_memo_hits as f64),
        ),
        ("probe_batches", Json::Num(warm_stats.probe_batches as f64)),
        (
            "bitset_row_ops",
            Json::Num(warm_stats.bitset_row_ops as f64),
        ),
        ("parallel_identical", Json::Bool(true)),
    ])
}

/// The high-parallelism synthesis workload: one big guessing pass — a wide
/// example set (more than 64 worlds, so bitset lanes span multiple words)
/// and a deep schedule — run cold at each parallelism level.  This is the
/// shape where per-probe bank locking used to dominate: every candidate
/// application took the application-store lock individually, so workers
/// serialized on the bank.  With batched probes ([`TermBank::apply_batch`])
/// each worker takes one lock round per component×split chunk; the
/// `probes_per_batch` column is the direct lock-amortization measure (and
/// the honest evidence on single-core CI hosts, where wall-clock speedups
/// cannot show).  Outcomes are asserted identical across every level.
fn bench_high_parallelism_synth(c: &mut Criterion, samples: usize) -> Json {
    use hanoi_lang::enumerate::ValueEnumerator;

    let problem = find("/coq/unique-list-::-set")
        .unwrap()
        .problem()
        .expect("benchmark elaborates");
    let concrete = problem.concrete_type().clone();
    // Enough enumerated values that the trace-completed world set straddles
    // the 64-world bitset word boundary.
    let pool = ValueEnumerator::new(&problem.tyenv).first_values(&concrete, 90, 12);
    let split = (pool.len() * 2) / 5;
    let (positives, negatives) = pool.split_at(split);
    let examples = ExampleSet::from_sets(positives.iter().cloned(), negatives.iter().cloned())
        .expect("enumerated values are distinct")
        .trace_completed(&problem.tyenv, &concrete)
        .0;
    let worlds = examples.len();
    let config = if quick_mode() {
        SearchConfig {
            schedule: vec![(0, 5), (1, 6)],
            ..SearchConfig::quick()
        }
    } else {
        SearchConfig {
            schedule: vec![(0, 5), (1, 7)],
            ..SearchConfig::default()
        }
    };

    let mut group = c.benchmark_group("high_parallelism_synth");
    group.sample_size(samples);
    let mut median_by_level: Vec<(usize, f64)> = Vec::new();
    let mut reference: Option<Option<hanoi_lang::ast::Expr>> = None;
    let mut serial_stats = None;
    for level in LEVELS {
        let engine = Engine::new(
            &problem,
            SearchConfig {
                parallelism: Some(level),
                ..config.clone()
            },
        );
        let mut timings = Vec::with_capacity(samples);
        for _ in 0..samples {
            let bank = TermBank::new();
            let start = Instant::now();
            let outcome = engine
                .synthesize_with_bank(&bank, &examples, &Deadline::none())
                .ok();
            timings.push(start.elapsed());
            match &reference {
                Some(expected) => assert_eq!(
                    &outcome, expected,
                    "parallelism {level} changed the synthesis outcome"
                ),
                None => reference = Some(outcome),
            }
            if level == 1 && serial_stats.is_none() {
                serial_stats = Some(bank.stats());
            }
        }
        group.bench_function(format!("cold_guess_p{level}"), |b| {
            b.iter(|| {
                let bank = TermBank::new();
                engine.synthesize_with_bank(&bank, &examples, &Deadline::none())
            })
        });
        median_by_level.push((level, median_secs(timings)));
    }
    group.finish();

    let stats = serial_stats.expect("level 1 is measured");
    let probes = stats.bank_hits + stats.bank_misses;
    let serial = median_by_level
        .iter()
        .find(|(level, _)| *level == 1)
        .map(|(_, t)| *t)
        .unwrap_or(f64::NAN);
    let best = median_by_level
        .iter()
        .map(|&(_, t)| t)
        .fold(f64::INFINITY, f64::min);
    let levels_json = Json::Obj(
        median_by_level
            .iter()
            .map(|&(level, secs)| {
                let key = if level == 0 {
                    "auto".to_string()
                } else {
                    level.to_string()
                };
                (key, Json::Num(secs))
            })
            .collect(),
    );
    Json::obj([
        (
            "benchmark",
            Json::Str("/coq/unique-list-::-set".to_string()),
        ),
        ("worlds", Json::Num(worlds as f64)),
        ("median_secs_by_parallelism", levels_json),
        ("serial_secs", Json::Num(serial)),
        ("best_secs", Json::Num(best)),
        ("speedup_best_over_serial", Json::Num(serial / best)),
        ("terms_enumerated", Json::Num(stats.terms_enumerated as f64)),
        ("bank_probes", Json::Num(probes as f64)),
        ("probe_batches", Json::Num(stats.probe_batches as f64)),
        (
            "probes_per_batch",
            Json::Num(probes as f64 / (stats.probe_batches as f64).max(1.0)),
        ),
        ("bitset_row_ops", Json::Num(stats.bitset_row_ops as f64)),
        ("outcome_identical_across_levels", Json::Bool(true)),
    ])
}

/// The cross-run reuse workloads: the same problem solved twice through one
/// long-lived `hanoi::Engine` (the second run starts from warm pools,
/// function-candidate pools and a warm term bank) versus two fresh engines
/// (a cold run each).  Two problems are measured: the
/// first-order running example (where per-run predicate sweeps dominate and
/// warmth buys little) and its higher-order variant (where the cold run pays
/// the expensive §4.2 function-candidate enumeration that the engine's pool
/// cache keeps warm).  Warm runs are asserted outcome-identical to cold
/// runs; the summary reports per-workload medians and second-run speedups.
/// The bounds shared by the two cross-engine warm workloads
/// ([`bench_cross_run_warm`], [`bench_cross_process_warm`]): paper-scale
/// single-quantifier pools and HOF limits in the default mode so enumeration
/// is a realistic share of a run; quick mode shrinks everything for the CI
/// smoke job.
fn warm_workload_bounds() -> VerifierBounds {
    if quick_mode() {
        VerifierBounds {
            single_count: 200,
            single_size: 12,
            multi_count: 60,
            multi_size: 8,
            total_cap: 1_000,
            ..VerifierBounds::quick()
        }
    } else {
        VerifierBounds {
            single_count: 1500,
            single_size: 30,
            multi_count: 400,
            multi_size: 12,
            total_cap: 12_000,
            hof_body_size: 6,
            hof_max_functions: 40,
            ..VerifierBounds::quick()
        }
    }
}

fn bench_cross_run_warm(c: &mut Criterion, samples: usize) -> Json {
    use hanoi::{Engine as InferenceEngine, RunOptions};

    let options = RunOptions::quick().with_bounds(warm_workload_bounds());

    let workloads = [
        ("first_order", "/coq/unique-list-::-set"),
        ("higher_order", "/coq/unique-list-::-set+hofs"),
    ];
    let mut rows: Vec<Json> = Vec::new();
    let mut group = c.benchmark_group("cross_run_warm");
    group.sample_size(samples);
    for (name, id) in workloads {
        let problem = find(id).unwrap().problem().expect("benchmark elaborates");

        // Correctness first: the warm second run must match a cold run
        // exactly.
        let cold_reference = InferenceEngine::with_defaults().run(&problem, &options);
        let warm_engine = InferenceEngine::with_defaults();
        let _first = warm_engine.run(&problem, &options);
        let warm_reference = warm_engine.run(&problem, &options);
        assert_eq!(
            warm_reference.outcome, cold_reference.outcome,
            "{id}: a warm engine must not change inference results"
        );
        assert_eq!(
            warm_reference.stats.pool_builds, 0,
            "{id}: the warm run re-enumerated pools"
        );

        // Timings: cold = a fresh engine per run; warm = the second run
        // through an engine that has already solved the problem once.
        let mut cold_timings = Vec::with_capacity(samples);
        let mut warm_timings = Vec::with_capacity(samples);
        for _ in 0..samples {
            let start = Instant::now();
            let result = InferenceEngine::with_defaults().run(&problem, &options);
            cold_timings.push(start.elapsed());
            assert!(result.is_success(), "{id}: {}", result.outcome);

            let engine = InferenceEngine::with_defaults();
            let _ = engine.run(&problem, &options);
            let start = Instant::now();
            let result = engine.run(&problem, &options);
            warm_timings.push(start.elapsed());
            assert!(result.is_success(), "{id}: {}", result.outcome);
        }
        let cold_secs = median_secs(cold_timings);
        let warm_secs = median_secs(warm_timings);

        group.bench_function(format!("{name}_cold_fresh_engine_per_run"), |b| {
            b.iter(|| InferenceEngine::with_defaults().run(&problem, &options))
        });
        let timed_engine = InferenceEngine::with_defaults();
        let _ = timed_engine.run(&problem, &options);
        group.bench_function(format!("{name}_warm_second_run_same_engine"), |b| {
            b.iter(|| timed_engine.run(&problem, &options))
        });

        rows.push(Json::obj([
            ("workload", Json::Str(name.to_string())),
            ("benchmark", Json::Str(id.to_string())),
            ("cold_secs", Json::Num(cold_secs)),
            ("warm_secs", Json::Num(warm_secs)),
            (
                "speedup_warm_over_cold",
                Json::Num(cold_secs / warm_secs.max(f64::MIN_POSITIVE)),
            ),
            (
                "warm_pool_builds",
                Json::Num(warm_reference.stats.pool_builds as f64),
            ),
            (
                "cold_pool_builds",
                Json::Num(cold_reference.stats.pool_builds as f64),
            ),
            (
                "warm_terms_enumerated",
                Json::Num(warm_reference.stats.synth_terms_enumerated as f64),
            ),
            (
                "cold_terms_enumerated",
                Json::Num(cold_reference.stats.synth_terms_enumerated as f64),
            ),
            (
                "warm_bank_hits",
                Json::Num(warm_reference.stats.synth_bank_hits as f64),
            ),
            ("outcome_identical", Json::Bool(true)),
        ]));
    }
    group.finish();
    Json::Arr(rows)
}

/// The numeric-synthesis workload: a trace-driven linear-arithmetic
/// benchmark (`/numeric/window-::-bounded`, whose invariant `b ≤ a + 4`
/// needs both an arithmetic composite and an integer literal) solved cold
/// through fresh engines versus warm through a second run on the same
/// engine.  The grammar extension changes what the enumerator builds —
/// arithmetic composites over `Int` lanes instead of boolean-only atoms —
/// so this workload tracks whether the numeric family stays solvable and
/// how much cross-run warmth buys when dense-id signature rows dominate.
/// Outcome identity and arith-atom exercise are asserted before any timing.
fn bench_numeric_synth(c: &mut Criterion, samples: usize) -> Json {
    use hanoi::{Engine as InferenceEngine, RunOptions};
    use hanoi_synth::arith::ArithBounds;

    let id = "/numeric/window-::-bounded";
    let problem = find(id).unwrap().problem().expect("benchmark elaborates");
    let options = RunOptions::quick()
        .with_bounds(warm_workload_bounds())
        .with_numeric_grammar(&ArithBounds::default());

    // Correctness first: the warm second run must match a cold run exactly,
    // and both must have gone through the arithmetic grammar.
    let cold_reference = InferenceEngine::with_defaults().run(&problem, &options);
    assert!(
        cold_reference.is_success(),
        "{id}: {}",
        cold_reference.outcome
    );
    assert!(
        cold_reference.stats.synth_arith_atoms > 0,
        "{id}: the cold run never built an arithmetic composite: {:?}",
        cold_reference.stats
    );
    let warm_engine = InferenceEngine::with_defaults();
    let _first = warm_engine.run(&problem, &options);
    let warm_reference = warm_engine.run(&problem, &options);
    assert_eq!(
        warm_reference.outcome, cold_reference.outcome,
        "{id}: a warm engine must not change numeric inference results"
    );
    assert_eq!(
        warm_reference.stats.pool_builds, 0,
        "{id}: the warm run re-enumerated pools"
    );

    // Timings: cold = a fresh engine per run; warm = the second run through
    // an engine that has already solved the problem once.
    let mut cold_timings = Vec::with_capacity(samples);
    let mut warm_timings = Vec::with_capacity(samples);
    for _ in 0..samples {
        let start = Instant::now();
        let result = InferenceEngine::with_defaults().run(&problem, &options);
        cold_timings.push(start.elapsed());
        assert!(result.is_success(), "{id}: {}", result.outcome);

        let engine = InferenceEngine::with_defaults();
        let _ = engine.run(&problem, &options);
        let start = Instant::now();
        let result = engine.run(&problem, &options);
        warm_timings.push(start.elapsed());
        assert!(result.is_success(), "{id}: {}", result.outcome);
    }
    let cold_secs = median_secs(cold_timings);
    let warm_secs = median_secs(warm_timings);

    let mut group = c.benchmark_group("numeric_synth");
    group.sample_size(samples);
    group.bench_function("cold_fresh_engine_per_run", |b| {
        b.iter(|| InferenceEngine::with_defaults().run(&problem, &options))
    });
    let timed_engine = InferenceEngine::with_defaults();
    let _ = timed_engine.run(&problem, &options);
    group.bench_function("warm_second_run_same_engine", |b| {
        b.iter(|| timed_engine.run(&problem, &options))
    });
    group.finish();

    Json::obj([
        ("benchmark", Json::Str(id.to_string())),
        ("cold_secs", Json::Num(cold_secs)),
        ("warm_secs", Json::Num(warm_secs)),
        (
            "speedup_warm_over_cold",
            Json::Num(cold_secs / warm_secs.max(f64::MIN_POSITIVE)),
        ),
        (
            "arith_atoms",
            Json::Num(cold_reference.stats.synth_arith_atoms as f64),
        ),
        (
            "warm_arith_atoms",
            Json::Num(warm_reference.stats.synth_arith_atoms as f64),
        ),
        (
            "warm_pool_builds",
            Json::Num(warm_reference.stats.pool_builds as f64),
        ),
        (
            "cold_terms_enumerated",
            Json::Num(cold_reference.stats.synth_terms_enumerated as f64),
        ),
        ("outcome_identical", Json::Bool(true)),
    ])
}

/// The cross-*process* warm workload: the same problem solved by two
/// engines that share nothing but a warm-start directory on disk.  Engine A
/// runs cold and checkpoints (`Engine::save_state`); engine B is a
/// brand-new engine that restores the snapshot purely from the file — the
/// exact code path a second OS process executes (structural digests carry
/// no in-process state, so running both halves in one bench process changes
/// nothing).  The restored run answers every verifier check from the
/// snapshot and is asserted outcome-identical to a cold run; the summary
/// reports cold vs restored medians, the restore speedup and the snapshot
/// size on disk.
fn bench_cross_process_warm(c: &mut Criterion, samples: usize) -> Json {
    use hanoi::{Engine as InferenceEngine, EngineConfig, RunOptions};

    let options = RunOptions::quick().with_bounds(warm_workload_bounds());
    let warm_dir =
        std::env::temp_dir().join(format!("hanoi-cross-process-warm-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&warm_dir);
    let warm_engine = |dir: &std::path::Path| {
        InferenceEngine::new(EngineConfig::default().with_warm_start_dir(dir))
            .expect("warm engine config is valid")
    };

    let workloads = [
        ("first_order", "/coq/unique-list-::-set"),
        ("higher_order", "/coq/unique-list-::-set+hofs"),
    ];
    let mut rows: Vec<Json> = Vec::new();
    let mut group = c.benchmark_group("cross_process_warm");
    group.sample_size(samples);
    for (name, id) in workloads {
        let problem = find(id).unwrap().problem().expect("benchmark elaborates");

        // Correctness first: "process 1" solves and checkpoints, "process 2"
        // restores from disk and must match a cold run exactly while
        // answering every check from the snapshot.
        let cold_reference = InferenceEngine::with_defaults().run(&problem, &options);
        let saver = warm_engine(&warm_dir);
        let first = saver.run(&problem, &options);
        assert!(first.is_success(), "{id}: {}", first.outcome);
        assert_eq!(
            first.stats.warm_start_loads, 0,
            "{id}: nothing to restore on the first process"
        );
        saver
            .save_state(&warm_dir)
            .expect("snapshot write succeeds");
        // Snapshot size on disk = the chunk bytes the problem's manifest
        // references.
        let snapshot_bytes = hanoi_store::ChunkStore::open(&warm_dir)
            .ok()
            .and_then(|store| store.manifest(problem.fingerprint()))
            .map(|manifest| manifest.chunk_bytes())
            .unwrap_or(0);
        assert!(
            snapshot_bytes > 0,
            "{id}: the chunked save must leave a measurable manifest"
        );
        let restored_engine = warm_engine(&warm_dir);
        let restored = restored_engine.run(&problem, &options);
        assert_eq!(
            restored.outcome, cold_reference.outcome,
            "{id}: a disk-restored engine must not change inference results"
        );
        assert!(
            restored.stats.warm_start_loads > 0,
            "{id}: the second process must actually restore the snapshot"
        );
        assert_eq!(
            restored.stats.verification_cache_hits as usize, restored.stats.verification_calls,
            "{id}: every restored check must be a snapshot hit: {:?}",
            restored.stats
        );
        assert_eq!(
            restored.stats.pool_builds, 0,
            "{id}: a fully warm restored run never enumerates a pool"
        );

        // Timings: cold = fresh engine, no store; restored = brand-new
        // engine whose only warmth is the snapshot file.
        let mut cold_timings = Vec::with_capacity(samples);
        let mut restored_timings = Vec::with_capacity(samples);
        for _ in 0..samples {
            let start = Instant::now();
            let result = InferenceEngine::with_defaults().run(&problem, &options);
            cold_timings.push(start.elapsed());
            assert!(result.is_success(), "{id}: {}", result.outcome);

            let engine = warm_engine(&warm_dir);
            let start = Instant::now();
            let result = engine.run(&problem, &options);
            restored_timings.push(start.elapsed());
            assert!(result.is_success(), "{id}: {}", result.outcome);
        }
        let cold_secs = median_secs(cold_timings);
        let restored_secs = median_secs(restored_timings);

        group.bench_function(format!("{name}_cold_no_store"), |b| {
            b.iter(|| InferenceEngine::with_defaults().run(&problem, &options))
        });
        group.bench_function(format!("{name}_restored_from_disk_snapshot"), |b| {
            b.iter(|| warm_engine(&warm_dir).run(&problem, &options))
        });

        rows.push(Json::obj([
            ("workload", Json::Str(name.to_string())),
            ("benchmark", Json::Str(id.to_string())),
            ("cold_secs", Json::Num(cold_secs)),
            ("restored_secs", Json::Num(restored_secs)),
            (
                "speedup_restored_over_cold",
                Json::Num(cold_secs / restored_secs.max(f64::MIN_POSITIVE)),
            ),
            ("snapshot_bytes", Json::Num(snapshot_bytes as f64)),
            (
                "warm_start_loads",
                Json::Num(restored.stats.warm_start_loads as f64),
            ),
            (
                "restored_verification_cache_hits",
                Json::Num(restored.stats.verification_cache_hits as f64),
            ),
            (
                "restored_pool_builds",
                Json::Num(restored.stats.pool_builds as f64),
            ),
            ("outcome_identical", Json::Bool(true)),
        ]));
    }
    group.finish();
    let _ = std::fs::remove_dir_all(&warm_dir);
    Json::Arr(rows)
}

/// The fleet-sync workload: a populated warm store is replicated onto a
/// fresh machine (a full merge), then the source solves *one* more problem
/// and replicates again.  The manifest-diff sync protocol must transfer
/// only the new problem's chunks on the second pass — the summary's
/// `delta_bytes` vs `full_bytes` is the headline number (asserted ≪, so a
/// regression to whole-store copies fails the bench), and a third pass must
/// transfer nothing at all.  Ends with a restore from the replica proving
/// the synced warmth is real.
fn bench_fleet_warm(c: &mut Criterion, samples: usize) -> Json {
    use hanoi::{Engine as InferenceEngine, EngineConfig, RunOptions};
    use hanoi_store::ChunkStore;

    let options = RunOptions::quick().with_bounds(warm_workload_bounds());
    let source_dir = std::env::temp_dir().join(format!("hanoi-fleet-src-{}", std::process::id()));
    let replica_dir = std::env::temp_dir().join(format!("hanoi-fleet-dst-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&source_dir);
    let _ = std::fs::remove_dir_all(&replica_dir);
    std::fs::create_dir_all(&source_dir).expect("scratch dir");
    std::fs::create_dir_all(&replica_dir).expect("scratch dir");

    // The established fleet state: several solved problems, the running
    // example's large check cache among them so `full_bytes` is dominated
    // by warmth the delta pass must *not* re-send.
    let base_ids = [
        "/coq/unique-list-::-set",
        "/other/cache",
        "/other/sized-list",
    ];
    let late_id = "/other/rational";
    let solve_into = |dir: &std::path::Path, id: &str| {
        let problem = find(id).unwrap().problem().expect("benchmark elaborates");
        let engine = InferenceEngine::new(EngineConfig::default().with_warm_start_dir(dir))
            .expect("warm engine config is valid");
        let result = engine.run(&problem, &options);
        assert!(result.is_success(), "{id}: {}", result.outcome);
        engine.save_state(dir).expect("snapshot write succeeds");
        (problem, result)
    };
    for id in base_ids {
        solve_into(&source_dir, id);
    }

    let source = ChunkStore::open(&source_dir).expect("source store opens");
    let replica = ChunkStore::open(&replica_dir).expect("replica store opens");

    // Pass 1: a brand-new machine joins the fleet — everything transfers.
    let full = replica.merge_from(&source).expect("full merge succeeds");
    assert_eq!(full.manifests_copied, base_ids.len(), "{full:?}");
    let full_bytes = full.chunk_bytes_copied;

    // The source solves one more problem; pass 2 must move only its chunks.
    let (late_problem, late_cold) = solve_into(&source_dir, late_id);
    let delta = replica.merge_from(&source).expect("delta merge succeeds");
    assert_eq!(delta.manifests_copied, 1, "{delta:?}");
    let delta_bytes = delta.chunk_bytes_copied;
    assert!(
        delta_bytes * 4 <= full_bytes,
        "the delta pass re-sent the fleet: {delta_bytes} of {full_bytes} bytes"
    );

    // Pass 3: converged — the scan finds nothing to move.
    let converged = replica.merge_from(&source).expect("converged merge");
    assert_eq!(converged.manifests_copied, 0, "{converged:?}");
    assert_eq!(converged.chunks_copied, 0, "{converged:?}");

    // The replicated warmth is real: a brand-new engine pointed at the
    // replica restores the late problem and matches the source's outcome.
    let restored = InferenceEngine::new(EngineConfig::default().with_warm_start_dir(&replica_dir))
        .expect("warm engine config is valid")
        .run(&late_problem, &options);
    assert_eq!(
        restored.outcome, late_cold.outcome,
        "{late_id}: a sync-restored engine must not change inference results"
    );
    assert!(restored.stats.warm_start_loads > 0, "{:?}", restored.stats);
    assert_eq!(
        restored.stats.warm_start_quarantined, 0,
        "{:?}",
        restored.stats
    );

    // Time the converged scan — the steady-state cost every sync interval
    // pays even when nothing changed.
    let mut group = c.benchmark_group("fleet_warm");
    group.sample_size(samples);
    group.bench_function("converged_sync_scan", |b| {
        b.iter(|| replica.merge_from(&source).expect("converged merge"))
    });
    group.finish();

    let replica_stats = replica.stats();
    let summary = Json::obj([
        ("base_problems", Json::Num(base_ids.len() as f64)),
        ("late_problem", Json::Str(late_id.to_string())),
        ("full_bytes", Json::Num(full_bytes as f64)),
        ("full_chunks", Json::Num(full.chunks_copied as f64)),
        ("delta_bytes", Json::Num(delta_bytes as f64)),
        ("delta_chunks", Json::Num(delta.chunks_copied as f64)),
        (
            "delta_over_full",
            Json::Num(delta_bytes as f64 / (full_bytes as f64).max(f64::MIN_POSITIVE)),
        ),
        (
            "replica_store_bytes",
            Json::Num(replica_stats.total_bytes() as f64),
        ),
        (
            "replica_manifests",
            Json::Num(replica_stats.manifests as f64),
        ),
        (
            "restored_warm_start_loads",
            Json::Num(restored.stats.warm_start_loads as f64),
        ),
        ("converged_transfers_nothing", Json::Bool(true)),
        ("outcome_identical", Json::Bool(true)),
    ]);
    let _ = std::fs::remove_dir_all(&source_dir);
    let _ = std::fs::remove_dir_all(&replica_dir);
    summary
}

fn bench_cegis_hot_path(c: &mut Criterion) {
    let samples: usize = if quick_mode() { 3 } else { 7 };
    let problem = find("/coq/unique-list-::-set")
        .unwrap()
        .problem()
        .expect("benchmark elaborates");
    let no_dup = parse_expr(
        "fix inv (l : list) : bool = \
           match l with | Nil -> True | Cons (hd, tl) -> not (lookup tl hd) && inv tl end",
    )
    .unwrap();
    // Paper-scale single-quantifier pools, reduced multi-quantifier pools:
    // big enough for threading and caching to matter, small enough for CI.
    // Quick mode shrinks everything again so the smoke job finishes in
    // seconds while still exercising every code path.
    let bounds = if quick_mode() {
        VerifierBounds {
            single_count: 200,
            single_size: 12,
            multi_count: 60,
            multi_size: 8,
            total_cap: 1_000,
            ..VerifierBounds::quick()
        }
    } else {
        VerifierBounds {
            single_count: 1500,
            single_size: 30,
            multi_count: 400,
            multi_size: 12,
            total_cap: 12_000,
            ..VerifierBounds::quick()
        }
    };

    let sufficiency = no_dup.clone();
    let full = no_dup.clone();
    let v_plus_inv = no_dup.clone();
    let v_plus_count = if quick_mode() { 60 } else { 500 };
    let workloads = [
        Workload {
            name: "sufficiency_valid",
            run: Box::new(move |v| {
                assert!(v.check_sufficiency(&sufficiency).unwrap().is_valid());
            }),
        },
        Workload {
            name: "full_inductiveness_valid",
            run: Box::new(move |v| {
                assert!(v.check_full_inductiveness(&full).unwrap().is_valid());
            }),
        },
        Workload {
            name: "visible_inductiveness_valid",
            run: Box::new(move |v| {
                // V+ = the smallest constructible (duplicate-free) lists; the
                // module operations preserve the invariant on them.
                let v_plus: Vec<_> = v
                    .smallest_concrete_values(v_plus_count)
                    .into_iter()
                    .filter(|value| v.problem().eval_predicate(&v_plus_inv, value).unwrap())
                    .collect();
                assert!(v_plus.len() >= 20, "expected a substantial V+ pool");
                assert!(v
                    .check_visible_inductiveness(&v_plus, &v_plus_inv)
                    .unwrap()
                    .is_valid());
            }),
        },
    ];

    let mut group = c.benchmark_group("cegis_hot_path");
    group.sample_size(samples);

    let mut rows: Vec<Json> = Vec::new();
    let mut session_stats = PoolCacheStats::default();
    for workload in &workloads {
        let mut median_by_level: Vec<(usize, f64)> = Vec::new();
        let mut cold_secs = f64::NAN;
        let mut warm_evals_per_sec = f64::NAN;
        let mut cache_after = PoolCacheStats::default();
        for level in LEVELS {
            let verifier = Verifier::new(&problem)
                .with_bounds(bounds)
                .with_parallelism(level);
            // The first run is the *cold* path: it both warms the interner
            // and pays the session's pool enumeration exactly once.
            let cold_start = Instant::now();
            (workload.run)(&verifier);
            let cold = cold_start.elapsed();
            let evals_before = verifier.pool_stats().predicate_evals;
            let mut timings = Vec::with_capacity(samples);
            for _ in 0..samples {
                let start = Instant::now();
                (workload.run)(&verifier);
                timings.push(start.elapsed());
            }
            let warm_total: Duration = timings.iter().sum();
            let median = median_secs(timings);
            if level == 1 {
                cold_secs = cold.as_secs_f64();
                let evals = verifier.pool_stats().predicate_evals - evals_before;
                warm_evals_per_sec = evals as f64 / warm_total.as_secs_f64().max(f64::MIN_POSITIVE);
                cache_after = verifier.pool_stats();
            }
            // Also surface the point through the criterion harness (one
            // timed iteration: the direct samples above are authoritative).
            group.bench_function(format!("{}_p{}", workload.name, level), |b| {
                b.iter(|| (workload.run)(&verifier))
            });
            median_by_level.push((level, median));
        }
        session_stats.hits += cache_after.hits;
        session_stats.builds += cache_after.builds;
        session_stats.slab_builds += cache_after.slab_builds;
        session_stats.predicate_evals += cache_after.predicate_evals;
        let serial = median_by_level
            .iter()
            .find(|(level, _)| *level == 1)
            .map(|(_, t)| *t)
            .unwrap_or(f64::NAN);
        let best = median_by_level
            .iter()
            .map(|&(_, t)| t)
            .fold(f64::INFINITY, f64::min);
        let levels_json = Json::Obj(
            median_by_level
                .iter()
                .map(|&(level, secs)| {
                    let key = if level == 0 {
                        "auto".to_string()
                    } else {
                        level.to_string()
                    };
                    (key, Json::Num(secs))
                })
                .collect(),
        );
        rows.push(Json::obj([
            ("workload", Json::Str(workload.name.to_string())),
            ("median_secs_by_parallelism", levels_json),
            ("serial_secs", Json::Num(serial)),
            ("best_secs", Json::Num(best)),
            ("speedup_best_over_serial", Json::Num(serial / best)),
            // Pool-cache instrumentation (serial session): the cold first
            // run pays enumeration, warm runs are pure evaluation.
            ("cold_secs", Json::Num(cold_secs)),
            (
                "speedup_warm_over_cold",
                Json::Num(cold_secs / serial.max(f64::MIN_POSITIVE)),
            ),
            ("warm_evals_per_sec", Json::Num(warm_evals_per_sec)),
            ("pool_cache_hits", Json::Num(cache_after.hits as f64)),
            ("pool_cache_builds", Json::Num(cache_after.builds as f64)),
        ]));
    }
    group.finish();

    let synthesis = bench_synthesis_multi_cex(c, samples);
    let high_parallelism = bench_high_parallelism_synth(c, samples);
    let numeric = bench_numeric_synth(c, samples);
    let cross_run = bench_cross_run_warm(c, samples);
    let cross_process = bench_cross_process_warm(c, samples);
    let fleet = bench_fleet_warm(c, samples);

    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let summary = Json::obj([
        (
            "benchmark",
            Json::Str("/coq/unique-list-::-set".to_string()),
        ),
        ("host_cores", Json::Num(cores as f64)),
        ("samples_per_point", Json::Num(samples as f64)),
        ("quick_mode", Json::Bool(quick_mode())),
        ("workloads", Json::Arr(rows)),
        // Aggregate pool-cache behaviour across the serial sessions of all
        // workloads: `builds`/`slab_builds` stay constant as samples grow —
        // enumeration happens once per session, not once per check.
        (
            "pool_cache",
            Json::obj([
                ("hits", Json::Num(session_stats.hits as f64)),
                ("builds", Json::Num(session_stats.builds as f64)),
                ("slab_builds", Json::Num(session_stats.slab_builds as f64)),
                (
                    "predicate_evals",
                    Json::Num(session_stats.predicate_evals as f64),
                ),
            ]),
        ),
        // The incremental-synthesis workload: cold rebuilds the term pool
        // per CEGIS iteration, warm reuses the session's persistent bank.
        ("synthesis_multi_cex", synthesis),
        // The high-parallelism guessing workload: one wide, deep cold guess
        // per parallelism level; `probes_per_batch` measures the bank-lock
        // amortization of batched probes.
        ("high_parallelism_synth", high_parallelism),
        // The numeric/trace workload: a linear-arithmetic benchmark solved
        // cold vs warm, pinning that the extended grammar stays solvable.
        ("numeric_synth", numeric),
        // The cross-run reuse workload: the same problem solved twice
        // through one long-lived engine vs two fresh engines.
        ("cross_run_warm", cross_run),
        // The cross-process reuse workload: a brand-new engine restored
        // from a warm-start snapshot on disk vs a cold engine.
        ("cross_process_warm", cross_process),
        // The fleet-sync workload: replicating a warm store moves the full
        // chunk set once, then only per-problem deltas (asserted ≪ full).
        ("fleet_warm", fleet),
    ]);
    // Default to the workspace root regardless of the bench's CWD — except
    // in quick mode, whose tiny-bounds numbers must never clobber the
    // committed paper-scale results.
    let out = std::env::var("BENCH_VERIFICATION_OUT").unwrap_or_else(|_| {
        if quick_mode() {
            std::env::temp_dir()
                .join("BENCH_verification_smoke.json")
                .display()
                .to_string()
        } else {
            format!(
                "{}/../../BENCH_verification.json",
                env!("CARGO_MANIFEST_DIR")
            )
        }
    });
    match std::fs::write(&out, summary.render_pretty()) {
        Ok(()) => eprintln!("wrote {out}"),
        Err(e) => eprintln!("could not write {out}: {e}"),
    }
}

criterion_group!(benches, bench_cegis_hot_path);
criterion_main!(benches);
