//! The conditional-inductiveness checker (`CondInductive P Q`, Figure 3).
//!
//! The relation `vm : τm ▶P_Q` is checked one module operation at a time
//! (the operations are the components of the product `τm`, so rule I-Prod
//! reduces the check to its per-operation form).  For an operation of type
//! `σ1 -> … -> σk -> ρ`:
//!
//! * argument positions of abstract type draw their values from the
//!   *conditioning pool* `P` — the set `V+` of known-constructible values for
//!   visible inductiveness, or the enumerated values satisfying the candidate
//!   for full inductiveness (rule I-Fun's contravariant premise);
//! * argument positions of base type are enumerated from smallest to largest;
//! * argument positions of function type are filled with enumerated lambda
//!   terms; if their type mentions the abstract type they are wrapped in a
//!   logging contract (§4.2) so boundary crossings are observed;
//! * the result (and any module-supplied value logged by a contract) is
//!   checked against `Q` (rule I-A); a violation yields the counterexample
//!   `⟨S, V⟩` where `S` collects the abstract-type inputs (`{|·|}σ`, plus
//!   client-supplied contract values) and `V` the violating outputs.

use std::collections::HashSet;
use std::ops::ControlFlow;
use std::sync::Arc;

use hanoi_abstraction::contract::{instrument_function, BoundaryLog};
use hanoi_abstraction::Problem;
use hanoi_lang::ast::Expr;
use hanoi_lang::eval::Fuel;
use hanoi_lang::types::Type;
use hanoi_lang::value::Value;

use crate::bounds::{Deadline, VerifierBounds};
use crate::hof::FunctionCandidate;
use crate::outcome::{InductivenessCex, InductivenessOutcome, VerifierError};
use crate::parallel::par_retain;
use crate::poolcache::PoolCache;
use crate::pools::{collect_abstract, search_product, CompiledPredicate};

/// The conditioning predicate `P` of a conditional-inductiveness check.
#[derive(Debug, Clone, Copy)]
pub enum PoolSpec<'a> {
    /// `P` is membership in an explicit, known-constructible set (`V+`) —
    /// this is the *visible inductiveness* check.
    Known(&'a [Value]),
    /// `P` is a predicate; abstract argument positions are filled with every
    /// enumerated value satisfying it.  With the candidate itself as `P`
    /// this is the *full inductiveness* check (`CondInductive I I`).
    Satisfying(&'a Expr),
}

/// One choice for one argument position, borrowed from a cached pool (or
/// from the caller's `V+` slice).
enum Choice<'a> {
    Val(&'a Value),
    Fun(&'a FunctionCandidate),
}

/// Where one argument position draws its values from; holds the cached pool
/// `Arc`s alive while the per-candidate choice lists borrow from them.
enum Source<'a> {
    /// The caller's known-constructible set, used verbatim.
    Known(&'a [Value]),
    /// A cached value pool; `filter` says whether it must be narrowed to the
    /// values satisfying `P` for this candidate.
    Values(Arc<Vec<Value>>, bool),
    /// A cached pool of enumerated functional arguments.
    Functions(Arc<Vec<FunctionCandidate>>),
}

/// Checks `CondInductive P Q` where `P` is given by `pool` and `Q` is
/// `invariant`, spreading tuple evaluation over `workers` threads (`1` =
/// serial; parallel runs report the same counterexample as serial ones, see
/// [`crate::parallel`]).  Pools come from the shared `pools` cache.
///
/// With `only_op` set, only the module operation of that name is checked:
/// the LinearArbitrary baseline (§5.5) checks inductiveness one operation
/// at a time.
#[allow(clippy::too_many_arguments)]
pub fn check_conditional_inductiveness(
    problem: &Problem,
    pools: &PoolCache,
    bounds: &VerifierBounds,
    deadline: &Deadline,
    pool: PoolSpec<'_>,
    invariant: &Expr,
    only_op: Option<&str>,
    workers: usize,
) -> Result<InductivenessOutcome, VerifierError> {
    let q = CompiledPredicate::compile(problem, invariant, bounds.fuel)?
        .with_eval_counter(pools.eval_counter());
    // Full inductiveness conditions on the candidate itself (`CondInductive
    // I I`); reuse the compiled `Q` instead of compiling the same expression
    // twice.
    let p_predicate = match pool {
        PoolSpec::Satisfying(p) if p == invariant => Some(q.clone()),
        PoolSpec::Satisfying(p) => Some(
            CompiledPredicate::compile(problem, p, bounds.fuel)?
                .with_eval_counter(pools.eval_counter()),
        ),
        PoolSpec::Known(_) => None,
    };
    let known: Option<HashSet<&Value>> = match pool {
        PoolSpec::Known(values) => Some(values.iter().collect()),
        PoolSpec::Satisfying(_) => None,
    };
    let satisfies_p = |v: &Value| -> bool {
        match (&known, &p_predicate) {
            (Some(set), _) => set.contains(v),
            (None, Some(pred)) => pred.test(v),
            (None, None) => unreachable!("one of the two pool forms is always present"),
        }
    };

    for op in problem.inductive_ops() {
        if let Some(only) = only_op {
            if op.name.as_str() != only {
                continue;
            }
        }
        let (arg_sigs, result_sig) = op.sig.uncurry();
        let quantifiers = arg_sigs.len().max(1);
        let per_count = bounds.count_for(quantifiers);
        let per_size = bounds.size_for(quantifiers);
        let cap = bounds.cap_for(quantifiers);

        // Resolve each argument position to its (cached) source, then build
        // the per-candidate choice lists as borrows into those sources: the
        // only per-candidate cost left is the `P` filter itself.
        let sources: Vec<Source<'_>> = arg_sigs
            .iter()
            .map(|sig| {
                if let Type::Arrow(_, _) = sig {
                    Source::Functions(pools.function_pool(problem, sig, bounds))
                } else if sig.mentions_abstract() {
                    match (&pool, sig) {
                        (PoolSpec::Known(known_values), Type::Abstract) => {
                            Source::Known(known_values)
                        }
                        _ => {
                            let concrete = sig.subst_abstract(problem.concrete_type());
                            Source::Values(
                                pools.pool(&concrete, per_count, per_size, workers),
                                true,
                            )
                        }
                    }
                } else {
                    Source::Values(pools.pool(sig, per_count, per_size, workers), false)
                }
            })
            .collect();
        let mut choice_pools: Vec<Vec<Choice<'_>>> = Vec::with_capacity(arg_sigs.len());
        for (source, sig) in sources.iter().zip(&arg_sigs) {
            match source {
                Source::Known(values) => {
                    choice_pools.push(values.iter().map(Choice::Val).collect());
                }
                Source::Functions(candidates) => {
                    choice_pools.push(candidates.iter().map(Choice::Fun).collect());
                }
                Source::Values(values, filter) => {
                    let mut refs: Vec<&Value> = values.iter().collect();
                    if *filter {
                        par_retain(&mut refs, workers, |v| {
                            collect_abstract(v, sig).iter().all(&satisfies_p)
                        });
                    }
                    choice_pools.push(refs.into_iter().map(Choice::Val).collect());
                }
            }
        }

        let found = search_product(&choice_pools, cap, workers, deadline, |tuple| {
            // Materialize arguments, instrumenting abstract-mentioning
            // functional positions with boundary logs.
            let mut args: Vec<Value> = Vec::with_capacity(tuple.len());
            let mut display_args: Vec<Value> = Vec::with_capacity(tuple.len());
            let mut logs: Vec<Arc<BoundaryLog>> = Vec::new();
            for (choice, sig) in tuple.iter().zip(&arg_sigs) {
                match choice {
                    Choice::Val(v) => {
                        args.push((*v).clone());
                        display_args.push((*v).clone());
                    }
                    Choice::Fun(candidate) => {
                        display_args.push(candidate.value.clone());
                        if sig.mentions_abstract() {
                            let log = BoundaryLog::new();
                            args.push(instrument_function(
                                &problem.tyenv,
                                sig,
                                candidate.value.clone(),
                                Arc::clone(&log),
                            ));
                            logs.push(log);
                        } else {
                            args.push(candidate.value.clone());
                        }
                    }
                }
            }

            // Run the operation.
            let mut fuel = Fuel::new(bounds.fuel);
            let result = match problem
                .evaluator()
                .apply_many(op.value.clone(), &args, &mut fuel)
            {
                Ok(result) => result,
                // A failing module operation on enumerated inputs is not a
                // counterexample to inductiveness; skip the tuple.
                Err(_) => return ControlFlow::Continue(()),
            };

            // Rule I-Fun's premise: client-supplied values must satisfy P for
            // the run to witness anything.
            let client_supplied: Vec<Value> = logs
                .iter()
                .flat_map(|log| log.client_supplied_values())
                .collect();
            if !client_supplied.iter().all(&satisfies_p) {
                return ControlFlow::Continue(());
            }

            // Check Q on every module-produced abstract value: the result's
            // abstract components plus anything the module passed into a
            // functional argument.
            let mut produced: Vec<Value> = collect_abstract(&result, result_sig);
            produced.extend(logs.iter().flat_map(|log| log.module_supplied_values()));
            let violations: Vec<Value> = produced.into_iter().filter(|v| !q.test(v)).collect();
            if violations.is_empty() {
                return ControlFlow::Continue(());
            }

            // Build S = {|args|}σ ∪ client-supplied values.
            let mut s: Vec<Value> = Vec::new();
            for (value, sig) in display_args.iter().zip(&arg_sigs) {
                s.extend(collect_abstract(value, sig));
            }
            s.extend(client_supplied);

            ControlFlow::Break(InductivenessCex {
                op: op.name.clone(),
                args: display_args,
                s,
                v: violations,
            })
        })?;

        if let Some(cex) = found {
            return Ok(InductivenessOutcome::Cex(cex));
        }
    }
    Ok(InductivenessOutcome::Valid)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hanoi_lang::parser::parse_expr;

    const LIST_SET: &str = r#"
        type nat = O | S of nat
        type list = Nil | Cons of nat * list

        interface SET = sig
          type t
          val empty : t
          val insert : t -> nat -> t
          val delete : t -> nat -> t
          val lookup : t -> nat -> bool
        end

        module ListSet : SET = struct
          type t = list
          let empty : t = Nil
          let rec lookup (l : t) (x : nat) : bool =
            match l with
            | Nil -> False
            | Cons (hd, tl) -> hd == x || lookup tl x
            end
          let insert (l : t) (x : nat) : t =
            if lookup l x then l else Cons (x, l)
          let rec delete (l : t) (x : nat) : t =
            match l with
            | Nil -> Nil
            | Cons (hd, tl) -> if hd == x then tl else Cons (hd, delete tl x)
            end
        end

        spec (s : t) (i : nat) =
          not (lookup empty i) && lookup (insert s i) i && not (lookup (delete s i) i)
    "#;

    fn problem() -> Problem {
        Problem::from_source(LIST_SET).unwrap()
    }

    fn no_duplicates() -> Expr {
        parse_expr(
            "fix inv (l : list) : bool = \
               match l with \
               | Nil -> True \
               | Cons (hd, tl) -> not (lookup tl hd) && inv tl \
               end",
        )
        .unwrap()
    }

    #[test]
    fn trivially_true_candidate_is_fully_inductive() {
        let problem = problem();
        let candidate = parse_expr("fun (l : list) -> True").unwrap();
        let outcome = check_conditional_inductiveness(
            &problem,
            &PoolCache::for_problem(&problem),
            &VerifierBounds::quick(),
            &Deadline::none(),
            PoolSpec::Satisfying(&candidate),
            &candidate,
            None,
            1,
        )
        .unwrap();
        assert_eq!(outcome, InductivenessOutcome::Valid);
    }

    #[test]
    fn the_paper_invariant_is_fully_inductive() {
        let problem = problem();
        let inv = no_duplicates();
        let outcome = check_conditional_inductiveness(
            &problem,
            &PoolCache::for_problem(&problem),
            &VerifierBounds::quick(),
            &Deadline::none(),
            PoolSpec::Satisfying(&inv),
            &inv,
            None,
            1,
        )
        .unwrap();
        assert_eq!(outcome, InductivenessOutcome::Valid);
    }

    #[test]
    fn section_2_counterexample_is_found() {
        // The candidate from §2: heads must differ from 1.  It is not
        // inductive: insert [0] 1 = [1; 0] violates it while [0] satisfies it.
        let problem = problem();
        let candidate = parse_expr(
            "fun (l : list) : bool -> \
               match l with | Nil -> True | Cons (hd, tl) -> not (hd == 1) end",
        );
        // The surface syntax of `fun` carries no return annotation; re-parse
        // without it.
        let candidate = candidate.unwrap_or_else(|_| {
            parse_expr(
                "fun (l : list) -> match l with | Nil -> True | Cons (hd, tl) -> not (hd == 1) end",
            )
            .unwrap()
        });
        let outcome = check_conditional_inductiveness(
            &problem,
            &PoolCache::for_problem(&problem),
            &VerifierBounds::quick(),
            &Deadline::none(),
            PoolSpec::Satisfying(&candidate),
            &candidate,
            None,
            1,
        )
        .unwrap();
        match outcome {
            InductivenessOutcome::Cex(cex) => {
                assert!(!cex.v.is_empty());
                assert!(
                    !cex.s.is_empty(),
                    "a first-order cex always carries its inputs"
                );
                // Every violating value must indeed falsify the candidate.
                for v in &cex.v {
                    assert!(!problem.eval_predicate(&candidate, v).unwrap());
                }
                // Every S value must satisfy the candidate (they were drawn
                // from the pool).
                for s in &cex.s {
                    assert!(problem.eval_predicate(&candidate, s).unwrap());
                }
            }
            InductivenessOutcome::Valid => panic!("the §2 candidate must not be inductive"),
        }
    }

    #[test]
    fn visible_inductiveness_uses_only_the_known_set() {
        let problem = problem();
        let candidate = parse_expr(
            "fun (l : list) -> match l with | Nil -> True | Cons (hd, tl) -> not (hd == 1) end",
        )
        .unwrap();
        // With V+ = {[]}, the only reachable-in-one-step values are the
        // results of operations on [], e.g. insert [] 1 = [1], which violates
        // the candidate — a visible-inductiveness counterexample.
        let v_plus = vec![Value::nat_list(&[])];
        let outcome = check_conditional_inductiveness(
            &problem,
            &PoolCache::for_problem(&problem),
            &VerifierBounds::quick(),
            &Deadline::none(),
            PoolSpec::Known(&v_plus),
            &candidate,
            None,
            1,
        )
        .unwrap();
        match outcome {
            InductivenessOutcome::Cex(cex) => {
                assert!(cex.v.iter().all(|v| v.as_list().is_some()));
                // S values must come from V+ (or be client-supplied, which
                // cannot happen for this first-order module).
                for s in &cex.s {
                    assert!(v_plus.contains(s));
                }
            }
            InductivenessOutcome::Valid => {
                panic!("insert [] 1 = [1] must violate the head-is-not-1 candidate")
            }
        }
    }

    #[test]
    fn visible_inductiveness_with_empty_pool_checks_constants() {
        let problem = problem();
        // A candidate that rejects the empty list: `empty` itself is a
        // constructible constant, so visible inductiveness must fail even
        // with an empty V+.
        let candidate =
            parse_expr("fun (l : list) -> match l with | Nil -> False | Cons (hd, tl) -> True end")
                .unwrap();
        let outcome = check_conditional_inductiveness(
            &problem,
            &PoolCache::for_problem(&problem),
            &VerifierBounds::quick(),
            &Deadline::none(),
            PoolSpec::Known(&[]),
            &candidate,
            None,
            1,
        )
        .unwrap();
        match outcome {
            InductivenessOutcome::Cex(cex) => {
                assert_eq!(cex.op.as_str(), "empty");
                assert_eq!(cex.v, vec![Value::nat_list(&[])]);
                assert!(cex.s.is_empty());
            }
            InductivenessOutcome::Valid => panic!("`empty` violates the candidate"),
        }
    }
}
