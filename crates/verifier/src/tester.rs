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
use hanoi_lang::value::Value;

use crate::outcome::{SufficiencyCex, SufficiencyOutcome, VerifierError};
use crate::pools::{abstract_parts, collect_abstract, search_product, CompiledPredicate};
use crate::verifier::Verifier;

/// One quantifier choice: a value and its index in the unfiltered pool.
type Indexed<'a> = (usize, &'a Value);

/// Checks sufficiency of `invariant` for the problem's specification.
/// Quantifier pools are drawn from the verifier's pool cache, so enumeration
/// is paid at most once per `(type, count, size)` per session, and so is the
/// specification's evaluation on a tuple where it holds (see the module
/// docs).
pub(crate) fn check_sufficiency(
    verifier: &Verifier<'_>,
    invariant: &Expr,
) -> Result<SufficiencyOutcome, VerifierError> {
    let problem = verifier.problem();
    let bounds = verifier.bounds();
    let counters = verifier.counters();
    let spec = &problem.spec;
    let quantifiers = spec.arity();
    let per_count = bounds.count_for(quantifiers);
    let per_size = bounds.size_for(quantifiers);
    let cap = bounds.cap_for(quantifiers);

    let predicate =
        CompiledPredicate::compile(problem, invariant, bounds.fuel, &counters.predicate_evals)?;

    // One shared (cached) pool per quantified parameter; the per-candidate
    // work is only the filter, which borrows from the cached slab instead of
    // cloning it.
    let shared: Vec<Arc<Vec<Value>>> = spec
        .params
        .iter()
        .map(|(_, param_ty)| {
            let concrete = param_ty.subst_abstract(problem.concrete_type());
            verifier.pool(&concrete, per_count, per_size)
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
            values.retain(|(_, v)| {
                abstract_parts(v, param_ty)
                    .into_iter()
                    .all(|part| predicate.test(part))
            });
        }
        filtered.push(values);
    }

    let memo = verifier.pool_cache().spec_memo(
        problem.fingerprint(),
        bounds.fuel,
        per_count,
        per_size,
        &shared,
    );
    let found = search_product(&filtered, cap, verifier.deadline(), |tuple| {
        let memo_slot = memo
            .as_deref()
            .map(|memo| (memo, memo.slot(tuple.iter().map(|&&(index, _)| index))));
        if let Some((memo, slot)) = memo_slot {
            if memo.holds(slot) {
                counters.spec_memo_hits.fetch_add(1, Ordering::Relaxed);
                return ControlFlow::Continue(());
            }
        }
        counters.spec_evals.fetch_add(1, Ordering::Relaxed);
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
    use hanoi_lang::parallel::par_map;
    use hanoi_lang::parser::parse_expr;
    use std::sync::Barrier;

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

    fn load(counter: &std::sync::atomic::AtomicU64) -> u64 {
        counter.load(Ordering::Relaxed)
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
        // Runs of one problem side by side (as `run_batch` and the server
        // make them) share its pool cache and spec memo: each check still
        // reports the counterexample of a check made alone.
        let problem = problem();
        let candidate = parse_expr("fun (l : list) -> True").unwrap();
        let serial = check_sufficiency(&quick(&problem), &candidate).unwrap();
        let pools = PoolCache::for_problem(&problem);
        let verifiers: Vec<Verifier<'_>> = (0..4)
            .map(|_| quick(&problem).with_pool_cache(Arc::clone(&pools)))
            .collect();
        // With one worker per item, `par_map` hands each worker one
        // verifier, so the barrier starts every check at once.
        let start = Barrier::new(verifiers.len());
        let outcomes = par_map(&verifiers, verifiers.len(), |verifier| {
            start.wait();
            check_sufficiency(verifier, &candidate).unwrap()
        });
        for outcome in outcomes {
            assert_eq!(outcome, serial);
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
        let shared = quick(&problem);
        let mut fresh_evals = 0;
        for candidate in candidate_sequence() {
            let fresh = quick(&problem);
            assert_eq!(
                check_sufficiency(&shared, &candidate).unwrap(),
                check_sufficiency(&fresh, &candidate).unwrap()
            );
            let counters = fresh.counters();
            assert_eq!(
                load(&counters.spec_memo_hits),
                0,
                "a fresh cache has no memo"
            );
            fresh_evals += load(&counters.spec_evals);
        }
        let counters = shared.counters();
        assert!(
            load(&counters.spec_memo_hits) > 0,
            "later checks skip held tuples"
        );
        // Every tuple a search visits is either evaluated or skipped.
        assert_eq!(
            load(&counters.spec_evals) + load(&counters.spec_memo_hits),
            fresh_evals
        );
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
        // One check on the shared pools: its outcome, spec evaluations and
        // spec-memo hits.
        let check = |problem: &Problem| {
            let verifier = quick(problem).with_pool_cache(Arc::clone(&pools));
            let outcome = check_sufficiency(&verifier, &candidate_sequence()[0]).unwrap();
            let counters = verifier.counters();
            (
                outcome,
                load(&counters.spec_evals),
                load(&counters.spec_memo_hits),
            )
        };
        let (outcome, visited, _) = check(&weaker);
        assert_eq!(outcome, SufficiencyOutcome::Valid);
        let (outcome, _, memo_hits) = check(&problem);
        assert!(matches!(outcome, SufficiencyOutcome::Cex(_)));
        assert_eq!(memo_hits, 0);
        // The weaker spec's rerun reads its own memo.
        let (outcome, _, memo_hits) = check(&weaker);
        assert_eq!(outcome, SufficiencyOutcome::Valid);
        assert_eq!(memo_hits, visited);
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
