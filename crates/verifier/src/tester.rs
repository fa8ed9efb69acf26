//! The sufficiency check: `Verify Suf φ M [I]` (Definition 3.4).
//!
//! A candidate invariant `I` is sufficient when every tuple of specification
//! arguments whose abstract-type components satisfy `I` also satisfies the
//! specification body.  The check instantiates every quantifier with the
//! smallest values of its type (abstract-type quantifiers are filtered by
//! `I`, which must hold on every abstract part of a value — `{|v|}σ` of
//! Figure 3 — so a `t * nat` parameter is filtered by its `t` component), up
//! to the configured bounds, and reports the first violating tuple.
//!
//! The specification's verdict on a tuple does not depend on the candidate,
//! and a CEGIS run checks many candidates against the same quantifier pools.
//! Each check therefore records the tuples on which the specification held
//! in the session's [`SpecMemo`](crate::poolcache::SpecMemo) (kept by the
//! [`PoolCache`](crate::poolcache::PoolCache), keyed by the
//! problem's fingerprint, the fuel bound and the pool bounds), and later checks
//! skip them without evaluating the specification.  Tuples are identified
//! by their indices into the unfiltered pools, so the memo does not depend
//! on which values a candidate filters out or on the visit order.

use std::ops::ControlFlow;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use hanoi_lang::ast::Expr;
use hanoi_lang::eval::Fuel;
use hanoi_lang::parallel::par_retain;
use hanoi_lang::value::Value;

use crate::outcome::{SufficiencyCex, SufficiencyOutcome, VerifierError};
use crate::pools::{abstract_parts, collect_abstract, search_product, CompiledPredicate};
use crate::verifier::Verifier;

/// One quantifier choice: a value and its index in the unfiltered pool.
type Indexed<'a> = (usize, &'a Value);

/// Checks sufficiency of `invariant` for the problem's specification,
/// spreading tuple evaluation over the verifier's workers (parallel runs
/// report the same outcome as serial ones, see [`hanoi_lang::parallel`]).
/// Quantifier pools are drawn from the verifier's pool cache, so enumeration
/// is paid at most once per `(type, count, size)` per session, and so is the
/// specification's evaluation on a tuple where it holds (see the module
/// docs).
pub(crate) fn check_sufficiency(
    verifier: &Verifier<'_>,
    invariant: &Expr,
) -> Result<SufficiencyOutcome, VerifierError> {
    let problem = verifier.problem();
    let pools = verifier.pool_cache();
    let bounds = verifier.bounds();
    let workers = verifier.workers();
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
    let mut filtered: Vec<Vec<Indexed<'_>>> = Vec::with_capacity(quantifiers);
    for (i, (pool, (_, param_ty))) in shared.iter().zip(&spec.params).enumerate() {
        // Parameters of one type share one pool, and so one filtered list.
        if let Some(same) = spec.params[..i].iter().position(|(_, ty)| ty == param_ty) {
            filtered.push(filtered[same].clone());
            continue;
        }
        let mut values: Vec<Indexed<'_>> = pool.iter().enumerate().collect();
        if param_ty.mentions_abstract() {
            par_retain(&mut values, workers, |(_, v)| {
                abstract_parts(v, param_ty)
                    .into_iter()
                    .all(|part| predicate.test(part))
            });
        }
        filtered.push(values);
    }

    let memo = pools.spec_memo(
        problem.fingerprint(),
        bounds.fuel,
        per_count,
        per_size,
        &shared,
    );
    let spec_evals = pools.spec_eval_counter();
    let memo_hits = pools.spec_memo_hit_counter();
    let found = search_product(&filtered, cap, workers, verifier.deadline(), |tuple| {
        let memo_slot = memo
            .as_deref()
            .map(|memo| (memo, memo.slot(tuple.iter().map(|&&(index, _)| index))));
        if let Some((memo, slot)) = memo_slot {
            if memo.holds(slot) {
                memo_hits.fetch_add(1, Ordering::Relaxed);
                return ControlFlow::Continue(());
            }
        }
        spec_evals.fetch_add(1, Ordering::Relaxed);
        let mut fuel = Fuel::new(bounds.fuel);
        let holds = problem
            .eval_spec_with_fuel(tuple.iter().map(|&&(_, v)| v), &mut fuel)
            .unwrap_or(false);
        if holds {
            if let Some((memo, slot)) = memo_slot {
                memo.record(slot);
            }
            ControlFlow::Continue(())
        } else {
            let args: Vec<Value> = tuple.iter().map(|&&(_, v)| v.clone()).collect();
            let abstract_args = args
                .iter()
                .zip(&spec.params)
                .flat_map(|(arg, (_, param_ty))| collect_abstract(arg, param_ty))
                .collect();
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
    use crate::bounds::{Deadline, VerifierBounds};
    use crate::poolcache::PoolCache;
    use hanoi_abstraction::Problem;
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

    fn quick(problem: &Problem) -> Verifier<'_> {
        Verifier::new(problem).with_bounds(VerifierBounds::quick())
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
        let outcome = check_sufficiency(&quick(&problem), &candidate).unwrap();
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
        let outcome = check_sufficiency(&quick(&problem), &no_duplicates()).unwrap();
        assert_eq!(outcome, SufficiencyOutcome::Valid);
    }

    #[test]
    fn too_strong_candidates_are_vacuously_sufficient() {
        let problem = problem();
        let candidate = parse_expr("fun (l : list) -> False").unwrap();
        let outcome = check_sufficiency(&quick(&problem), &candidate).unwrap();
        assert_eq!(outcome, SufficiencyOutcome::Valid);
    }

    #[test]
    fn parallel_runs_report_the_serial_counterexample() {
        let problem = problem();
        let candidate = parse_expr("fun (l : list) -> True").unwrap();
        let serial = check_sufficiency(&quick(&problem), &candidate).unwrap();
        for workers in [2, 4, 8] {
            let parallel =
                check_sufficiency(&quick(&problem).with_parallelism(workers), &candidate).unwrap();
            assert_eq!(parallel, serial, "workers={workers}");
        }
    }

    /// `LIST_SET` with one tuple-typed parameter in place of `(s : t) (i :
    /// nat)`.
    fn tuple_spec_problem() -> Problem {
        let source = LIST_SET.replace(
            "spec (s : t) (i : nat) =\n          not (lookup empty i) && lookup (insert s i) i && not (lookup (delete s i) i)",
            "spec (p : t * nat) = not (lookup empty (snd p)) \
               && lookup (insert (fst p) (snd p)) (snd p) \
               && not (lookup (delete (fst p) (snd p)) (snd p))",
        );
        assert_ne!(source, LIST_SET);
        Problem::from_source(&source).unwrap()
    }

    #[test]
    fn tuple_typed_parameters_are_filtered_by_their_abstract_parts() {
        // The candidate accepts every list, so the spec must fail on a list
        // with duplicates, as it does on the `(s : t) (i : nat)` spec; an
        // application of the candidate to the whole pair would fail, reject
        // every pair and make the check vacuously `Valid`.
        let problem = tuple_spec_problem();
        let candidate =
            parse_expr("fun (l : list) -> match l with | Nil -> True | Cons (hd, tl) -> True end")
                .unwrap();
        let outcome = check_sufficiency(&quick(&problem), &candidate).unwrap();
        let SufficiencyOutcome::Cex(cex) = outcome else {
            panic!("a candidate accepting [0; 0] is not sufficient");
        };
        assert_eq!(cex.args.len(), 1);
        assert_eq!(cex.abstract_args.len(), 1);
        assert!(
            cex.abstract_args.iter().all(|v| v.as_list().is_some()),
            "the abstract arguments are the lists inside the pair, got {:?}",
            cex.abstract_args
        );
    }

    /// `True`, a candidate that is not sufficient, and the §2 invariant.
    fn candidate_sequence() -> Vec<Expr> {
        vec![
            parse_expr("fun (l : list) -> True").unwrap(),
            parse_expr(
                "fun (l : list) -> match l with | Nil -> True | Cons (hd, tl) -> not (hd == 1) end",
            )
            .unwrap(),
            no_duplicates(),
        ]
    }

    #[test]
    fn the_spec_memo_changes_no_outcome() {
        let problem = problem();
        let check = |pools: &Arc<PoolCache>, candidate: &Expr| {
            let verifier = quick(&problem).with_pool_cache(Arc::clone(pools));
            check_sufficiency(&verifier, candidate).unwrap()
        };
        let shared = PoolCache::for_problem(&problem);
        let mut fresh_evals = 0;
        for candidate in candidate_sequence() {
            let fresh = PoolCache::for_problem(&problem);
            assert_eq!(check(&shared, &candidate), check(&fresh, &candidate));
            let stats = fresh.stats();
            assert_eq!(stats.spec_memo_hits, 0, "a fresh cache has no memo");
            fresh_evals += stats.spec_evals;
        }
        let stats = shared.stats();
        assert!(stats.spec_memo_hits > 0, "later checks skip held tuples");
        // Every tuple a search visits is either evaluated or skipped.
        assert_eq!(stats.spec_evals + stats.spec_memo_hits, fresh_evals);
    }

    #[test]
    fn the_spec_memo_is_keyed_by_the_spec() {
        // A weakened spec over the same module (and globals) holds on tuples
        // where the original fails: it must not read the original's memo,
        // nor the original its memo.
        let problem = problem();
        let mut weaker = problem.clone();
        weaker.spec.body =
            hanoi_lang::resolve::resolve(&parse_expr("not (lookup empty i)").unwrap());
        let pools = PoolCache::for_problem(&problem);
        let check = |problem: &Problem| {
            let verifier = quick(problem).with_pool_cache(Arc::clone(&pools));
            check_sufficiency(&verifier, &candidate_sequence()[0]).unwrap()
        };
        assert_eq!(check(&weaker), SufficiencyOutcome::Valid);
        let visited = pools.stats().spec_evals;
        assert!(matches!(check(&problem), SufficiencyOutcome::Cex(_)));
        assert_eq!(pools.stats().spec_memo_hits, 0);
        // The weaker spec's rerun reads its own memo.
        assert_eq!(check(&weaker), SufficiencyOutcome::Valid);
        assert_eq!(pools.stats().spec_memo_hits, visited);
    }

    #[test]
    fn expired_deadlines_abort() {
        let problem = problem();
        let deadline = Deadline::at(std::time::Instant::now() - std::time::Duration::from_secs(1));
        let candidate = parse_expr("fun (l : list) -> True").unwrap();
        // With an already expired deadline the check either finds the (very
        // early) counterexample before the first poll or times out; both are
        // acceptable, but it must not loop.
        let result = check_sufficiency(&quick(&problem).with_deadline(deadline), &candidate);
        match result {
            Ok(_) | Err(VerifierError::Timeout) => {}
            Err(other) => panic!("unexpected error {other}"),
        }
    }
}
