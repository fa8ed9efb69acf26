//! The independent check of a returned invariant.
//!
//! The engine's verifier walks a capped product of quantifier pools in one
//! fixed order, so a cap can hide every counterexample (the vacuous `True`
//! on the three-quantifier `+binfuncs` specs is the known case).  This check
//! shares none of that search: it draws seeded random tuples from the
//! pools of `pools::enumerate_values` at the run's bounds, keeps the
//! abstract components the invariant accepts, and evaluates the
//! specification with `Problem::eval_spec_with_fuel`.  Numeric jobs must in
//! addition accept a held-out sample of reachable worlds.

use hanoi_abstraction::Problem;
use hanoi_benchmarks::trace::{ground_truth, sample_worlds, SplitMix64, TraceConfig};
use hanoi_lang::ast::Expr;
use hanoi_lang::digest::Digest;
use hanoi_lang::eval::Fuel;
use hanoi_lang::types::Type;
use hanoi_lang::value::Value;
use hanoi_verifier::pools::{collect_abstract, enumerate_values};

use crate::jobs::Job;

/// Random specification tuples drawn per job.
pub const SAMPLES: usize = 2_000;

/// Checks `invariant` for `job`; `Err` carries the reason it was rejected.
/// The sampler is seeded from `seed` and the job label, the held-out trace
/// sample from `seed + 1`.
pub fn check(job: &Job, invariant: &Expr, seed: u64) -> Result<(), String> {
    let problem = &job.problem;
    let bounds = job.spec.options.bounds;
    let accepts = |value: &Value| {
        problem
            .eval_predicate_with_fuel(invariant, value, &mut Fuel::new(bounds.fuel))
            .unwrap_or(false)
    };

    let arity = problem.spec.arity();
    let mut enumerated: Vec<(Type, Vec<Value>)> = Vec::new();
    let mut pools: Vec<Vec<Value>> = Vec::with_capacity(arity);
    for (position, (_, ty)) in problem.spec.params.iter().enumerate() {
        let concrete = ty.subst_abstract(problem.concrete_type());
        let pool = match enumerated.iter().find(|(t, _)| *t == concrete) {
            Some((_, pool)) => pool.clone(),
            None => {
                let pool = enumerate_values(
                    problem,
                    &concrete,
                    bounds.count_for(arity),
                    bounds.size_for(arity),
                );
                enumerated.push((concrete, pool.clone()));
                pool
            }
        };
        let pool: Vec<Value> = if ty.mentions_abstract() {
            pool.into_iter()
                .filter(|v| collect_abstract(v, ty).iter().all(accepts))
                .collect()
        } else {
            pool
        };
        if pool.is_empty() {
            return Err(format!(
                "no value of quantifier {position} passes the invariant"
            ));
        }
        pools.push(pool);
    }

    let mut rng = SplitMix64::new(seed ^ Digest::of_str(&job.spec.label()).0 as u64);
    for _ in 0..SAMPLES {
        let args: Vec<Value> = pools
            .iter()
            .map(|pool| pool[rng.below(pool.len() as u64) as usize].clone())
            .collect();
        let holds = problem
            .eval_spec_with_fuel(&args, &mut Fuel::new(bounds.fuel))
            .unwrap_or(false);
        if !holds {
            return Err(format!("specification fails on {}", render(&args)));
        }
    }

    if job.spec.numeric {
        held_out(problem, job.spec.id, seed.wrapping_add(1), accepts)?;
    }
    Ok(())
}

/// Every world of a held-out ground-truth trace sample must pass.
fn held_out(
    problem: &Problem,
    id: &str,
    seed: u64,
    accepts: impl Fn(&Value) -> bool,
) -> Result<(), String> {
    let truth = ground_truth(id).ok_or_else(|| format!("{id} has no ground truth"))?;
    let config = TraceConfig {
        seed,
        ..TraceConfig::default()
    };
    let worlds = sample_worlds(problem, &truth, &config).map_err(|e| e.to_string())?;
    match worlds.iter().find(|w| !accepts(w)) {
        Some(world) => Err(format!("rejects the reachable world {world}")),
        None => Ok(()),
    }
}

fn render(args: &[Value]) -> String {
    let parts: Vec<String> = args.iter().map(Value::to_string).collect();
    format!("({})", parts.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jobs::{JobSpec, Workload};
    use hanoi::Engine;

    fn job(id: &str) -> Job {
        let spec = Workload::PaperCold.job_specs().remove(0);
        let spec = JobSpec {
            id: hanoi_benchmarks::find(id).expect("known benchmark").id,
            ..spec
        };
        let problem = spec.elaborate().expect("benchmark elaborates");
        Job { spec, problem }
    }

    /// The engine's verifier accepts `True` on these three benchmarks.
    #[test]
    fn vacuous_binfuncs_invariants_are_rejected() {
        for id in [
            "/coq/bst-::-set+binfuncs",
            "/coq/maxfirst-list-::-heap+binfuncs",
            "/vfa/tree-::-priqueue+binfuncs",
        ] {
            let job = job(id);
            let source = format!("fun (x : {}) -> True", job.problem.concrete_type());
            let vacuous = hanoi_lang::parser::parse_expr(&source).unwrap();
            assert!(check(&job, &vacuous, 0xC0FFEE).is_err(), "{id}");
        }
    }

    #[test]
    fn inferred_invariants_are_accepted() {
        let job = job("/coq/unique-list-::-set");
        let result = Engine::with_defaults().run(&job.problem, &job.spec.options);
        let invariant = result.outcome.invariant().expect("the job completes");
        assert_eq!(check(&job, invariant, 0xC0FFEE), Ok(()));
    }
}
