//! Determinism of batches and of caches shared across threads, and
//! stability of the `Arc`-migrated value layer.
//!
//! Every inference run executes on one thread; parallelism lives only
//! across runs: the jobs of `Engine::run_batch`, and the server's
//! concurrent sessions.  Runs of one problem share its pool cache (and the
//! spec memo inside it), check cache and term bank.  These tests pin that
//! a batch reports exactly what serial sessions report, work counters
//! included, and that checks sharing one pool cache from several threads
//! report the counterexamples of checks made alone.  They additionally pin
//! that the `Rc` → `Arc` migration left `Value` equality and hashing
//! untouched (including across threads).

use std::collections::hash_map::DefaultHasher;
use std::collections::HashSet;
use std::hash::{Hash, Hasher};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Barrier};
use std::time::Duration;

use hanoi_repro::hanoi::{BatchJob, Engine, EngineConfig, Outcome, RunOptions, RunStats};
use hanoi_repro::lang::parser::parse_expr;
use hanoi_repro::lang::value::Value;
use hanoi_repro::verifier::{InductivenessOutcome, PoolCache, Verifier, VerifierBounds};

/// How many checks share one pool cache in the shared-cache tests.
const SHARERS: usize = 3;

/// Benchmark modules used for the batch-vs-serial comparison. These three
/// cover a spec with two quantifiers, a tree-based module and a
/// size-tracking module, and all complete quickly under quick bounds.
const MODULES: [&str; 3] = [
    "/other/cache",
    "/coq/unique-list-::-set",
    "/other/sized-list",
];

/// `stats` with its wall-clock times zeroed: the run's outcome-shaped
/// numbers and work counters.
fn work(stats: &RunStats) -> RunStats {
    RunStats {
        total_time: Duration::ZERO,
        verification_time: Duration::ZERO,
        synthesis_time: Duration::ZERO,
        ..stats.clone()
    }
}

/// `f` applied to every item, each on a thread of its own; a barrier
/// starts them all at once.
fn side_by_side<T: Sync, U: Send>(items: &[T], f: impl Fn(&T) -> U + Sync) -> Vec<U> {
    let (start, f) = (&Barrier::new(items.len()), &f);
    std::thread::scope(|scope| {
        let threads: Vec<_> = items
            .iter()
            .map(|item| {
                scope.spawn(move || {
                    start.wait();
                    f(item)
                })
            })
            .collect();
        threads.into_iter().map(|t| t.join().unwrap()).collect()
    })
}

/// `SHARERS` quick verifiers over `problem` sharing one pool cache, as
/// concurrent runs of one problem do.
fn sharing_verifiers(problem: &hanoi_repro::abstraction::Problem) -> Vec<Verifier<'_>> {
    let pools = PoolCache::for_problem(problem);
    (0..SHARERS)
        .map(|_| {
            Verifier::new(problem)
                .with_bounds(VerifierBounds::quick())
                .with_pool_cache(Arc::clone(&pools))
        })
        .collect()
}

#[test]
fn whole_inference_runs_are_parallelism_independent() {
    let problems: Vec<_> = MODULES
        .iter()
        .map(|id| {
            hanoi_repro::benchmarks::find(id)
                .unwrap()
                .problem()
                .unwrap()
        })
        .collect();
    let jobs: Vec<BatchJob<'_>> = problems
        .iter()
        .map(|problem| BatchJob::new(problem, RunOptions::quick()))
        .collect();
    let serial: Vec<_> = problems
        .iter()
        .map(|problem| Engine::with_defaults().run(problem, &RunOptions::quick()))
        .collect();
    for (id, run) in MODULES.iter().zip(&serial) {
        // All three modules must actually complete, otherwise this test
        // compares nothing interesting.
        assert!(
            matches!(run.outcome, Outcome::Invariant(_)),
            "{id}: expected an inferred invariant, got {:?}",
            run.outcome
        );
    }
    for workers in [2, 0] {
        let batch = Engine::new(EngineConfig::default().with_parallelism(workers))
            .unwrap()
            .run_batch(&jobs);
        for ((id, batched), serial) in MODULES.iter().zip(&batch).zip(&serial) {
            assert_eq!(
                batched.outcome, serial.outcome,
                "{id}: outcome diverged at parallelism {workers}"
            );
            // The whole CEGIS trajectory must match, not just the final
            // answer: same iteration count and same final example sets.
            assert_eq!(
                batched.stats.iterations, serial.stats.iterations,
                "{id}: iteration count diverged at parallelism {workers}"
            );
            assert_eq!(
                batched.stats.final_positives, serial.stats.final_positives,
                "{id}: V+ size diverged at parallelism {workers}"
            );
            assert_eq!(
                batched.stats.final_negatives, serial.stats.final_negatives,
                "{id}: V− size diverged at parallelism {workers}"
            );
            // The jobs are distinct problems and each runs on one thread,
            // so every work counter is exact.
            assert_eq!(
                work(&batched.stats),
                work(&serial.stats),
                "{id}: work counters diverged at parallelism {workers}"
            );
        }
    }
}

#[test]
fn verifier_checks_report_identical_counterexamples() {
    for id in MODULES {
        let benchmark = hanoi_repro::benchmarks::find(id).unwrap();
        let problem = benchmark.problem().unwrap();
        // A trivially-true candidate: not sufficient for any of these specs,
        // so sufficiency produces a counterexample whose identity we compare.
        // It is written `not False` rather than `True`, because inductiveness
        // checks return `Valid` for a literal `True` conclusion without a
        // sweep, and the sweeps are what must agree.
        let trivial = parse_expr(&format!(
            "fun (x : {}) -> not False",
            problem.concrete_type()
        ))
        .unwrap();
        let serial = Verifier::new(&problem).with_bounds(VerifierBounds::quick());
        let suf_serial = serial.check_sufficiency(&trivial).unwrap();
        let full_serial = serial.check_full_inductiveness(&trivial).unwrap();
        let v_plus = serial.smallest_concrete_values(5);
        let vis_serial = serial
            .check_visible_inductiveness(&v_plus, &trivial)
            .unwrap();
        assert!(
            serial.counters().predicate_evals.load(Ordering::Relaxed) > 0,
            "{id}: the inductiveness checks sweep"
        );
        let verifiers = sharing_verifiers(&problem);
        let outcomes = side_by_side(&verifiers, |verifier| {
            (
                verifier.check_sufficiency(&trivial).unwrap(),
                verifier.check_full_inductiveness(&trivial).unwrap(),
                verifier
                    .check_visible_inductiveness(&v_plus, &trivial)
                    .unwrap(),
            )
        });
        for (suf, full, vis) in outcomes {
            assert_eq!(suf, suf_serial, "{id}: sufficiency diverged");
            assert_eq!(full, full_serial, "{id}: full inductiveness diverged");
            assert_eq!(vis, vis_serial, "{id}: visible inductiveness diverged");
        }
    }
}

/// Full inductiveness keeps a check-scoped table of the candidate's verdicts
/// on pool values, filled from the shared pool cache: checks made side by
/// side on one cache report what a check made alone reports,
/// counterexamples included.  The `+hofs` modules also look up the values
/// their `fold` callbacks hand back to the module (rule I-Fun's premise).
#[test]
fn full_inductiveness_with_the_verdict_table_is_parallelism_independent() {
    // The §2 candidate: heads must differ from 1.  `insert [] 1 = [1]`
    // violates it, and [1] is a pool value, so the verdict that decides the
    // counterexample comes from the table.
    let head_is_not_one =
        "fun (l : list) -> match l with | Nil -> True | Cons (hd, tl) -> not (hd == 1) end";
    // `not False` holds everywhere but is not literally `True`, so its checks
    // sweep (and look up the `fold` callbacks' values) to a `Valid` verdict.
    let candidates = ["fun (l : list) -> not False", head_is_not_one];
    let bounds = VerifierBounds::quick();
    for id in [
        "/coq/unique-list-::-set+hofs",
        "/coq/sorted-list-::-set+hofs",
    ] {
        let problem = hanoi_repro::benchmarks::find(id)
            .unwrap()
            .problem()
            .unwrap();
        for source in candidates {
            let candidate = parse_expr(source).unwrap();
            let serial = Verifier::new(&problem).with_bounds(bounds);
            let full = serial.check_full_inductiveness(&candidate).unwrap();
            let ops =
                ["filter", "fold"].map(|op| serial.check_op_inductiveness(op, &candidate).unwrap());
            let verifiers = sharing_verifiers(&problem);
            let shared = side_by_side(&verifiers, |verifier| {
                (
                    verifier.check_full_inductiveness(&candidate).unwrap(),
                    ["filter", "fold"]
                        .map(|op| verifier.check_op_inductiveness(op, &candidate).unwrap()),
                )
            });
            for (shared_full, shared_ops) in shared {
                assert_eq!(
                    shared_full, full,
                    "{id}: full inductiveness of {source} diverged on a shared cache"
                );
                assert_eq!(
                    shared_ops, ops,
                    "{id}: per-operation inductiveness under {source} diverged on a shared cache"
                );
            }
            if source == head_is_not_one {
                let InductivenessOutcome::Cex(cex) = full else {
                    panic!("{id}: insert [] 1 = [1] violates {source}");
                };
                let pool = serial.pool_cache().pool(
                    problem.concrete_type(),
                    bounds.multi_count,
                    bounds.multi_size,
                    1,
                );
                assert_eq!(cex.v, vec![Value::nat_list(&[1])], "{id}");
                assert!(pool.contains(&cex.v[0]), "{id}: [1] is a pool value");
            }
        }
    }
}

/// Sufficiency checks record the tuples on which the spec held in the spec
/// memo of their pool cache, with `fetch_or`, so checks of one problem on
/// several threads write and read one memo: a sequence of candidates must
/// report the same outcomes, counterexamples included, as on a verifier of
/// its own.  The `+binfuncs` spec has three quantifiers,
/// `(s1 : t) (s2 : t) (i : nat)`.
#[test]
fn sufficiency_with_the_spec_memo_is_parallelism_independent() {
    let candidates = [
        "fun (l : list) -> True",
        "fun (l : list) -> match l with | Nil -> True | Cons (hd, tl) -> not (hd == 1) end",
        "fix inv (l : list) : bool = \
           match l with | Nil -> True | Cons (hd, tl) -> not (lookup tl hd) && inv tl end",
    ]
    .map(|source| parse_expr(source).unwrap());
    for (id, arity) in [
        ("/coq/unique-list-::-set", 2),
        ("/coq/unique-list-::-set+binfuncs", 3),
    ] {
        let problem = hanoi_repro::benchmarks::find(id)
            .unwrap()
            .problem()
            .unwrap();
        assert_eq!(problem.spec.arity(), arity, "{id}");
        let serial = Verifier::new(&problem).with_bounds(VerifierBounds::quick());
        let expected: Vec<_> = candidates
            .iter()
            .map(|candidate| serial.check_sufficiency(candidate).unwrap())
            .collect();
        let verifiers = sharing_verifiers(&problem);
        let shared = side_by_side(&verifiers, |verifier| {
            candidates
                .iter()
                .map(|candidate| verifier.check_sufficiency(candidate).unwrap())
                .collect::<Vec<_>>()
        });
        for outcomes in shared {
            assert_eq!(
                outcomes, expected,
                "{id}: sufficiency diverged on a shared memo"
            );
        }
        let memo_hits: u64 = verifiers
            .iter()
            .map(|verifier| verifier.counters().spec_memo_hits.load(Ordering::Relaxed))
            .sum();
        assert!(memo_hits > 0, "{id}: later checks skip held tuples");
    }
}

/// A small deterministic generator (splitmix64) for structured values.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    /// A random first-order value: nats, nat lists, pairs and shallow
    /// constructor trees over them.
    fn value(&mut self, depth: usize) -> Value {
        match self.next() % if depth == 0 { 2 } else { 4 } {
            0 => Value::nat(self.next() % 6),
            1 => {
                let items: Vec<u64> = (0..self.next() % 4).map(|_| self.next() % 4).collect();
                Value::nat_list(&items)
            }
            2 => Value::pair(self.value(depth - 1), self.value(depth - 1)),
            _ => Value::Ctor(
                hanoi_repro::lang::Symbol::new("Node"),
                vec![self.value(depth - 1), self.value(depth - 1)].into(),
            ),
        }
    }
}

fn hash_of(value: &Value) -> u64 {
    let mut hasher = DefaultHasher::new();
    value.hash(&mut hasher);
    hasher.finish()
}

#[test]
fn value_equality_and_hashing_survive_the_arc_migration() {
    // Property: structurally identical values (built through independent
    // constructor calls, so no shared allocations beyond the interner)
    // compare equal and hash equal; distinct values compare unequal. This
    // pins the content-based semantics that predate the Arc migration.
    let mut gen = Gen(0xa5c_0001);
    for _ in 0..200 {
        let value = gen.value(3);
        let twin = {
            // Rebuild the value from its printed expression form, producing a
            // fresh allocation tree.
            let expr = value.to_expr().unwrap();
            let reparsed = parse_expr(&expr.to_string()).unwrap();
            fn expr_to_value(e: &hanoi_repro::lang::Expr) -> Value {
                match e {
                    hanoi_repro::lang::Expr::Ctor(c, args) => {
                        Value::Ctor(*c, args.iter().map(expr_to_value).collect())
                    }
                    hanoi_repro::lang::Expr::Tuple(args) => {
                        Value::Tuple(args.iter().map(expr_to_value).collect())
                    }
                    other => panic!("unexpected expr {other:?}"),
                }
            }
            expr_to_value(&reparsed)
        };
        assert_eq!(
            value, twin,
            "structural equality must ignore allocation identity"
        );
        assert_eq!(
            hash_of(&value),
            hash_of(&twin),
            "equal values must hash equal"
        );

        let different = gen.value(3);
        if value != different {
            // Hash collisions are possible in principle but must not be
            // systematic; with this generator and DefaultHasher none occur.
            assert_ne!(
                hash_of(&value),
                hash_of(&different),
                "distinct values {value} and {different} collided"
            );
        }
    }
}

#[test]
fn value_hashing_is_stable_across_threads() {
    let mut gen = Gen(0xa5c_0002);
    let values: Vec<Value> = (0..50).map(|_| gen.value(3)).collect();
    let local_hashes: Vec<u64> = values.iter().map(hash_of).collect();

    // Hand the values to another thread (they are Send now) and also rebuild
    // them from scratch over there: both must hash identically.
    let moved = values.clone();
    let remote_hashes = std::thread::spawn(move || moved.iter().map(hash_of).collect::<Vec<u64>>())
        .join()
        .unwrap();
    assert_eq!(local_hashes, remote_hashes);

    let rebuilt_remotely: Vec<Value> = std::thread::spawn(|| {
        let mut gen = Gen(0xa5c_0002);
        (0..50).map(|_| gen.value(3)).collect()
    })
    .join()
    .unwrap();
    let mut set: HashSet<Value> = HashSet::new();
    set.extend(values.iter().cloned());
    for value in &rebuilt_remotely {
        assert!(
            set.contains(value),
            "cross-thread value {value} not found in local set"
        );
    }
}
