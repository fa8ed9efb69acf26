//! Interpreter goldens: outcomes and fuel of the slot-resolved interpreter,
//! pinned over the tier-1 example modules at every layer (specifications,
//! module operations, candidate predicates, whole inference runs).
//!
//! The values were recorded while the historical name-based evaluator still
//! existed and both paths agreed on them exactly, so they pin the
//! interpreter's observable behaviour — values, errors and fuel — against
//! any later change to evaluation.

use hanoi_repro::abstraction::Problem;
use hanoi_repro::hanoi::{Engine, EngineConfig, Outcome, RunOptions};
use hanoi_repro::lang::enumerate::ValueEnumerator;
use hanoi_repro::lang::error::EvalError;
use hanoi_repro::lang::eval::Fuel;
use hanoi_repro::lang::parser::parse_expr;
use hanoi_repro::lang::resolve::resolve;
use hanoi_repro::lang::value::Value;

/// The tier-1 example modules: one spec with two quantifiers, a tree-based
/// module and a size-tracking module — the same trio the parallel
/// determinism suite pins.
const MODULES: [&str; 3] = [
    "/coq/unique-list-::-set",
    "/other/cache",
    "/other/sized-list",
];

fn problem(id: &str) -> Problem {
    let source = hanoi_repro::benchmarks::find(id).unwrap().source;
    Problem::from_source(&source).unwrap()
}

/// Every tuple of the cartesian product of `pools`, keeping at most `cap`
/// prefixes after each position.
fn capped_product(pools: &[Vec<Value>], cap: usize) -> Vec<Vec<Value>> {
    let mut tuples = vec![Vec::new()];
    for pool in pools {
        let mut next = Vec::new();
        for prefix in &tuples {
            for value in pool {
                let mut tuple = prefix.clone();
                tuple.push(value.clone());
                next.push(tuple);
            }
        }
        tuples = next;
        tuples.truncate(cap);
    }
    tuples
}

/// Small sample values for every spec parameter of a problem.
fn spec_sample_tuples(problem: &Problem) -> Vec<Vec<Value>> {
    let mut enumerator = ValueEnumerator::new(&problem.tyenv);
    let pools: Vec<Vec<Value>> = problem
        .spec
        .params
        .iter()
        .map(|(_, ty)| {
            let concrete = ty.subst_abstract(problem.concrete_type());
            enumerator.first_values(&concrete, 12, 8)
        })
        .collect();
    capped_product(&pools, 200)
}

/// How many boolean evaluations returned `true`, `false` and an error, and
/// the fuel they used in total.
#[derive(Debug, Default, PartialEq, Eq)]
struct BoolTally {
    trues: usize,
    falses: usize,
    errors: usize,
    fuel: u64,
}

impl BoolTally {
    fn add(&mut self, result: Result<bool, EvalError>, fuel: &Fuel) {
        match result {
            Ok(true) => self.trues += 1,
            Ok(false) => self.falses += 1,
            Err(_) => self.errors += 1,
        }
        self.fuel += fuel.used();
    }
}

const fn tally(trues: usize, falses: usize, errors: usize, fuel: u64) -> BoolTally {
    BoolTally {
        trues,
        falses,
        errors,
        fuel,
    }
}

#[test]
fn specs_agree_on_values_and_fuel_across_both_paths() {
    const GOLDEN: [(&str, BoolTally); 3] = [
        ("/coq/unique-list-::-set", tally(93, 3, 0, 12_784)),
        ("/other/cache", tally(2, 10, 0, 493)),
        ("/other/sized-list", tally(24, 72, 0, 3_304)),
    ];
    let mut actual = Vec::new();
    for id in MODULES {
        let problem = problem(id);
        let mut seen = BoolTally::default();
        for tuple in spec_sample_tuples(&problem) {
            let mut fuel = Fuel::new(200_000);
            seen.add(problem.eval_spec_with_fuel(&tuple, &mut fuel), &fuel);
        }
        actual.push((id, seen));
    }
    assert_eq!(actual, GOLDEN);
}

#[test]
fn module_operations_agree_on_values_and_fuel_across_both_paths() {
    // Per module: (calls that returned, calls that failed, total fuel).
    const GOLDEN: [(&str, usize, usize, u64); 3] = [
        ("/coq/unique-list-::-set", 49, 0, 976),
        ("/other/cache", 33, 0, 408),
        ("/other/sized-list", 33, 0, 240),
    ];
    let mut actual = Vec::new();
    for id in MODULES {
        let problem = problem(id);
        let mut enumerator = ValueEnumerator::new(&problem.tyenv);
        let (mut returned, mut failed, mut fuel_used) = (0usize, 0usize, 0u64);
        for op in problem.inductive_ops() {
            let (arg_sigs, _) = op.sig.uncurry();
            // Instantiate every argument with the smallest value of its
            // (concretised) type, plus a couple of slightly larger ones for
            // the first argument.
            let arg_pools: Vec<Vec<Value>> = arg_sigs
                .iter()
                .enumerate()
                .map(|(i, sig)| {
                    let concrete = sig.subst_abstract(problem.concrete_type());
                    enumerator.first_values(&concrete, if i == 0 { 8 } else { 2 }, 8)
                })
                .collect();
            if arg_pools.iter().any(|p| p.is_empty()) {
                continue; // higher-order positions have no enumerable values
            }
            for tuple in capped_product(&arg_pools, 32) {
                let mut fuel = Fuel::new(200_000);
                match problem.eval_call_with_fuel(op.name.as_str(), &tuple, &mut fuel) {
                    Ok(_) => returned += 1,
                    Err(_) => failed += 1,
                }
                fuel_used += fuel.used();
            }
        }
        assert!(returned + failed > 0, "{id}: no operation tuples were run");
        actual.push((id, returned, failed, fuel_used));
    }
    assert_eq!(actual, GOLDEN);
}

#[test]
fn candidate_predicates_agree_across_eval_and_eval_resolved() {
    // Per candidate: the fuel used to build its closure, then the tally of
    // applying that closure to every sample.
    const GOLDEN: [(u64, BoolTally); 4] = [
        (1, tally(22, 18, 0, 1_582)),
        (1, tally(40, 0, 0, 80)),
        (1, tally(32, 8, 0, 316)),
        (1, tally(13, 27, 0, 1_059)),
    ];
    let problem = problem("/coq/unique-list-::-set");
    let candidates = [
        "fix inv (l : list) : bool = \
           match l with | Nil -> True | Cons (hd, tl) -> not (lookup tl hd) && inv tl end",
        "fun (l : list) -> True",
        "fun (l : list) -> match l with | Nil -> True | Cons (hd, tl) -> not (hd == 1) end",
        "fun (l : list) -> let x = lookup l 0 in not x",
    ];
    let mut enumerator = ValueEnumerator::new(&problem.tyenv);
    let samples = enumerator.first_values(problem.concrete_type(), 40, 10);
    let evaluator = problem.evaluator();
    let mut actual = Vec::new();
    for source in candidates {
        let expr = resolve(&parse_expr(source).unwrap());
        let mut fuel = Fuel::new(100_000);
        let closure = evaluator
            .eval_resolved(&problem.globals, &expr, &mut fuel)
            .unwrap();
        let mut seen = BoolTally::default();
        for value in &samples {
            let mut fuel = Fuel::new(100_000);
            seen.add(evaluator.apply_pred(&closure, value, &mut fuel), &fuel);
        }
        actual.push((fuel.used(), seen));
    }
    assert_eq!(actual, GOLDEN);
}

#[test]
fn whole_inference_runs_agree_across_both_paths() {
    // The strongest form of the pin: the complete CEGIS trajectory
    // (outcome, iteration count, final example sets) at parallelism 1, 2
    // and 0.  Per module: (outcome, iterations, |V+|, |V−|).
    const GOLDEN: [(&str, &str, usize, usize, usize); 3] = [
        (
            "/coq/unique-list-::-set",
            "fix inv (x : list) : bool = match x with | Nil -> True \
             | Cons (x10, x11) -> inv x11 && not (lookup x11 x10) end",
            12,
            7,
            4,
        ),
        (
            "/other/cache",
            "fun (x : cache) -> match x with | MkCache (x1, x2) -> x == store x x1 end",
            5,
            2,
            2,
        ),
        (
            "/other/sized-list",
            "fun (x : sized) -> match x with | MkSized (x1, x2) -> x1 == len x2 end",
            4,
            2,
            1,
        ),
    ];
    for parallelism in [1usize, 2, 0] {
        let engine = Engine::new(EngineConfig::default().with_parallelism(parallelism)).unwrap();
        let mut actual = Vec::new();
        for id in MODULES {
            let report = engine.run(&problem(id), &RunOptions::quick());
            let outcome = match &report.outcome {
                Outcome::Invariant(e) => e.to_string(),
                other => other.to_string(),
            };
            actual.push((
                id,
                outcome,
                report.stats.iterations,
                report.stats.final_positives,
                report.stats.final_negatives,
            ));
        }
        let golden: Vec<_> = GOLDEN
            .iter()
            .map(|&(id, outcome, i, p, n)| (id, outcome.to_string(), i, p, n))
            .collect();
        assert_eq!(actual, golden, "at parallelism {parallelism}");
    }
}
