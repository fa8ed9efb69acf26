//! The sufficiency check: `Verify Suf φ M [I]` (Definition 3.4).
//!
//! A candidate invariant `I` is sufficient when every tuple of specification
//! arguments whose abstract-type components satisfy `I` also satisfies the
//! specification body.  The check instantiates every quantifier with the
//! smallest values of its type (abstract-type quantifiers are filtered by
//! `I`), up to the configured bounds, and reports the first violating tuple.

use std::ops::ControlFlow;
use std::sync::Arc;

use hanoi_abstraction::Problem;
use hanoi_lang::ast::Expr;
use hanoi_lang::eval::Fuel;
use hanoi_lang::value::Value;

use crate::bounds::{Deadline, VerifierBounds};
use crate::outcome::{SufficiencyCex, SufficiencyOutcome, VerifierError};
use crate::parallel::par_retain;
use crate::poolcache::PoolCache;
use crate::pools::{search_product, CompiledPredicate};

/// Checks sufficiency of `invariant` for the problem's specification,
/// spreading tuple evaluation over `workers` threads (`1` = serial; parallel
/// runs report the same outcome as serial ones, see [`crate::parallel`]).
/// Quantifier pools are drawn from `pools`, so enumeration is paid at most
/// once per `(type, count, size)` per session.
pub fn check_sufficiency(
    problem: &Problem,
    pools: &PoolCache,
    bounds: &VerifierBounds,
    deadline: &Deadline,
    invariant: &Expr,
    workers: usize,
) -> Result<SufficiencyOutcome, VerifierError> {
    let spec = &problem.spec;
    let quantifiers = spec.arity();
    let per_count = bounds.count_for(quantifiers);
    let per_size = bounds.size_for(quantifiers);
    let cap = bounds.cap_for(quantifiers);

    let predicate = CompiledPredicate::compile(problem, invariant, bounds.fuel)?
        .with_eval_counter(pools.eval_counter());

    // One shared (cached) pool per quantified parameter; the per-candidate
    // work is only the filter, which borrows from the cached slab instead of
    // cloning it.  Filtering abstract-type pools by the candidate runs the
    // interpreter per value, so it is spread over the workers too.
    let shared: Vec<Arc<Vec<Value>>> = spec
        .params
        .iter()
        .map(|(_, param_ty)| {
            let concrete = param_ty.subst_abstract(problem.concrete_type());
            pools.pool(&concrete, per_count, per_size, workers)
        })
        .collect();
    let mut filtered: Vec<Vec<&Value>> = Vec::with_capacity(quantifiers);
    for (pool, (_, param_ty)) in shared.iter().zip(&spec.params) {
        let mut values: Vec<&Value> = pool.iter().collect();
        if param_ty.mentions_abstract() {
            par_retain(&mut values, workers, |v| predicate.test(v));
        }
        filtered.push(values);
    }

    let abstract_positions = spec.abstract_positions();
    let found = search_product(&filtered, cap, workers, deadline, |tuple| {
        let args: Vec<Value> = tuple.iter().map(|v| (**v).clone()).collect();
        let mut fuel = Fuel::new(bounds.fuel);
        let holds = problem
            .eval_spec_with_fuel(&args, &mut fuel)
            .unwrap_or(false);
        if holds {
            ControlFlow::Continue(())
        } else {
            let abstract_args = abstract_positions
                .iter()
                .map(|&i| args[i].clone())
                .collect::<Vec<_>>();
            ControlFlow::Break(SufficiencyCex {
                args,
                abstract_args,
            })
        }
    })?;

    Ok(match found {
        Some(cex) => SufficiencyOutcome::Cex(cex),
        None => SufficiencyOutcome::Valid,
    })
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

    /// The no-duplicates invariant from §2.
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
    fn trivial_candidate_is_not_sufficient() {
        let problem = problem();
        let candidate = parse_expr("fun (l : list) -> True").unwrap();
        let outcome = check_sufficiency(
            &problem,
            &PoolCache::for_problem(&problem),
            &VerifierBounds::quick(),
            &Deadline::none(),
            &candidate,
            1,
        )
        .unwrap();
        match outcome {
            SufficiencyOutcome::Cex(cex) => {
                // The counterexample must be a list with duplicates (that is
                // the only way the ListSet spec fails), e.g. [0; 0].
                assert_eq!(cex.abstract_args.len(), 1);
                let items: Vec<u64> = cex.abstract_args[0]
                    .as_list()
                    .unwrap()
                    .iter()
                    .map(|v| v.as_nat().unwrap())
                    .collect();
                let mut dedup = items.clone();
                dedup.dedup();
                assert!(
                    dedup.len() < items.len(),
                    "expected duplicates, got {items:?}"
                );
            }
            SufficiencyOutcome::Valid => panic!("fun _ -> True must not be sufficient"),
        }
    }

    #[test]
    fn the_paper_invariant_is_sufficient() {
        let problem = problem();
        let outcome = check_sufficiency(
            &problem,
            &PoolCache::for_problem(&problem),
            &VerifierBounds::quick(),
            &Deadline::none(),
            &no_duplicates(),
            1,
        )
        .unwrap();
        assert_eq!(outcome, SufficiencyOutcome::Valid);
    }

    #[test]
    fn too_strong_candidates_are_vacuously_sufficient() {
        let problem = problem();
        let candidate = parse_expr("fun (l : list) -> False").unwrap();
        let outcome = check_sufficiency(
            &problem,
            &PoolCache::for_problem(&problem),
            &VerifierBounds::quick(),
            &Deadline::none(),
            &candidate,
            1,
        )
        .unwrap();
        assert_eq!(outcome, SufficiencyOutcome::Valid);
    }

    #[test]
    fn parallel_runs_report_the_serial_counterexample() {
        let problem = problem();
        let candidate = parse_expr("fun (l : list) -> True").unwrap();
        let serial = check_sufficiency(
            &problem,
            &PoolCache::for_problem(&problem),
            &VerifierBounds::quick(),
            &Deadline::none(),
            &candidate,
            1,
        )
        .unwrap();
        for workers in [2, 4, 8] {
            let parallel = check_sufficiency(
                &problem,
                &PoolCache::for_problem(&problem),
                &VerifierBounds::quick(),
                &Deadline::none(),
                &candidate,
                workers,
            )
            .unwrap();
            assert_eq!(parallel, serial, "workers={workers}");
        }
    }

    #[test]
    fn expired_deadlines_abort() {
        let problem = problem();
        let deadline = Deadline::at(std::time::Instant::now() - std::time::Duration::from_secs(1));
        let candidate = parse_expr("fun (l : list) -> True").unwrap();
        // With an already expired deadline the check either finds the (very
        // early) counterexample before the first poll or times out; both are
        // acceptable, but it must not loop.
        let result = check_sufficiency(
            &problem,
            &PoolCache::for_problem(&problem),
            &VerifierBounds::quick(),
            &deadline,
            &candidate,
            1,
        );
        match result {
            Ok(_) | Err(VerifierError::Timeout) => {}
            Err(other) => panic!("unexpected error {other}"),
        }
    }
}
