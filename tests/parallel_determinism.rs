//! Determinism of the parallel verifier and stability of the `Arc`-migrated
//! value layer.
//!
//! The verifier guarantees that parallel runs are *outcome-identical* to
//! serial runs: the reported counterexample is always the least tuple under
//! the enumeration order, regardless of which worker finds one first. These
//! tests pin that guarantee end to end — at the level of the three verifier
//! checks and of whole inference runs — on several benchmark modules, and
//! additionally pin that the `Rc` → `Arc` migration left `Value` equality
//! and hashing untouched (including across threads).

use std::collections::hash_map::DefaultHasher;
use std::collections::HashSet;
use std::hash::{Hash, Hasher};

use hanoi_repro::hanoi::{Engine, EngineConfig, Outcome, RunOptions};
use hanoi_repro::lang::parser::parse_expr;
use hanoi_repro::lang::value::Value;
use hanoi_repro::verifier::{InductivenessOutcome, Verifier, VerifierBounds};

const PARALLELISM_LEVELS: [usize; 3] = [2, 4, 8];

/// Benchmark modules used for the serial-vs-parallel comparison. These three
/// cover a spec with two quantifiers, a tree-based module and a
/// size-tracking module, and all complete quickly under quick bounds.
const MODULES: [&str; 3] = [
    "/other/cache",
    "/coq/unique-list-::-set",
    "/other/sized-list",
];

#[test]
fn whole_inference_runs_are_parallelism_independent() {
    for id in MODULES {
        let benchmark = hanoi_repro::benchmarks::find(id).unwrap();
        let problem = benchmark.problem().unwrap();
        let serial = Engine::with_defaults().run(&problem, &RunOptions::quick());
        for workers in PARALLELISM_LEVELS {
            let parallel = Engine::new(EngineConfig::default().with_parallelism(workers))
                .unwrap()
                .run(&problem, &RunOptions::quick());
            assert_eq!(
                parallel.outcome, serial.outcome,
                "{id}: outcome diverged at parallelism {workers}"
            );
            // The whole CEGIS trajectory must match, not just the final
            // answer: same iteration count and same final example sets.
            assert_eq!(
                parallel.stats.iterations, serial.stats.iterations,
                "{id}: iteration count diverged at parallelism {workers}"
            );
            assert_eq!(
                parallel.stats.final_positives, serial.stats.final_positives,
                "{id}: V+ size diverged at parallelism {workers}"
            );
            assert_eq!(
                parallel.stats.final_negatives, serial.stats.final_negatives,
                "{id}: V− size diverged at parallelism {workers}"
            );
        }
        // All three modules must actually complete, otherwise this test
        // compares nothing interesting.
        assert!(
            matches!(serial.outcome, Outcome::Invariant(_)),
            "{id}: expected an inferred invariant, got {:?}",
            serial.outcome
        );
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
        // sweep, and the sweeps are what must agree across worker counts.
        let trivial = parse_expr(&format!(
            "fun (x : {}) -> not False",
            problem.concrete_type()
        ))
        .unwrap();
        let serial = Verifier::new(&problem)
            .with_bounds(VerifierBounds::quick())
            .with_parallelism(1);
        let suf_serial = serial.check_sufficiency(&trivial).unwrap();
        let full_serial = serial.check_full_inductiveness(&trivial).unwrap();
        let v_plus = serial.smallest_concrete_values(5);
        let vis_serial = serial
            .check_visible_inductiveness(&v_plus, &trivial)
            .unwrap();
        assert!(
            serial.pool_stats().predicate_evals > 0,
            "{id}: the inductiveness checks sweep"
        );
        for workers in PARALLELISM_LEVELS {
            let parallel = Verifier::new(&problem)
                .with_bounds(VerifierBounds::quick())
                .with_parallelism(workers);
            assert_eq!(
                parallel.check_sufficiency(&trivial).unwrap(),
                suf_serial,
                "{id}: sufficiency diverged at parallelism {workers}"
            );
            assert_eq!(
                parallel.check_full_inductiveness(&trivial).unwrap(),
                full_serial,
                "{id}: full inductiveness diverged at parallelism {workers}"
            );
            assert_eq!(
                parallel
                    .check_visible_inductiveness(&v_plus, &trivial)
                    .unwrap(),
                vis_serial,
                "{id}: visible inductiveness diverged at parallelism {workers}"
            );
        }
    }
}

/// Full inductiveness keeps a check-scoped table of the candidate's verdicts
/// on pool values, filled by parallel workers and read by the parallel tuple
/// search: outcomes, counterexamples included, must not depend on the worker
/// count.  The `+hofs` modules also look up the values their `fold`
/// callbacks hand back to the module (rule I-Fun's premise).
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
            let verifier = |workers| {
                Verifier::new(&problem)
                    .with_bounds(bounds)
                    .with_parallelism(workers)
            };
            let (serial, parallel) = (verifier(1), verifier(2));
            let full = serial.check_full_inductiveness(&candidate).unwrap();
            assert_eq!(
                parallel.check_full_inductiveness(&candidate).unwrap(),
                full,
                "{id}: full inductiveness of {source} diverged at parallelism 2"
            );
            for op in ["filter", "fold"] {
                assert_eq!(
                    parallel.check_op_inductiveness(op, &candidate).unwrap(),
                    serial.check_op_inductiveness(op, &candidate).unwrap(),
                    "{id}: inductiveness of {op} under {source} diverged at parallelism 2"
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

/// Sufficiency checks record the tuples on which the spec held in the
/// session's spec memo, written by parallel workers and read by later checks:
/// a sequence of candidates on one verifier must report the same outcomes,
/// counterexamples included, at every worker count.  The `+binfuncs` spec
/// has three quantifiers, `(s1 : t) (s2 : t) (i : nat)`.
#[test]
fn sufficiency_with_the_spec_memo_is_parallelism_independent() {
    let candidates = [
        "fun (l : list) -> True",
        "fun (l : list) -> match l with | Nil -> True | Cons (hd, tl) -> not (hd == 1) end",
        "fix inv (l : list) : bool = \
           match l with | Nil -> True | Cons (hd, tl) -> not (lookup tl hd) && inv tl end",
    ];
    for (id, arity) in [
        ("/coq/unique-list-::-set", 2),
        ("/coq/unique-list-::-set+binfuncs", 3),
    ] {
        let problem = hanoi_repro::benchmarks::find(id)
            .unwrap()
            .problem()
            .unwrap();
        assert_eq!(problem.spec.arity(), arity, "{id}");
        let verifier = |workers| {
            Verifier::new(&problem)
                .with_bounds(VerifierBounds::quick())
                .with_parallelism(workers)
        };
        let (serial, parallel) = (verifier(1), verifier(2));
        for source in candidates {
            let candidate = parse_expr(source).unwrap();
            assert_eq!(
                parallel.check_sufficiency(&candidate).unwrap(),
                serial.check_sufficiency(&candidate).unwrap(),
                "{id}: sufficiency of {source} diverged at parallelism 2"
            );
        }
        for (workers, verifier) in [(1, &serial), (2, &parallel)] {
            assert!(
                verifier.pool_stats().spec_memo_hits > 0,
                "{id}: later checks skip held tuples at parallelism {workers}"
            );
        }
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
