//! The ∧Str baseline (§5.5): conjunctive strengthening in the style of
//! LoopInvGen / PIE.
//!
//! The mode first searches for a candidate that is *sufficient* for the
//! specification, then repeatedly strengthens it by conjoining additional
//! predicates until the conjunction is inductive.  Unlike Hanoi it has no
//! visible-inductiveness phase: it only discovers new constructible values
//! when it has already over-strengthened (an inductiveness counterexample
//! whose inputs are all known constructible), at which point the whole
//! process restarts.

use hanoi_verifier::{InductivenessOutcome, SufficiencyOutcome};

use crate::context::InferenceContext;
use crate::modes::conjoin;
use crate::outcome::{Outcome, RunResult};

/// Runs the ∧Str baseline to completion.
pub fn run(mut ctx: InferenceContext<'_, '_>) -> RunResult {
    let concrete = ctx.problem.concrete_type().clone();
    'restart: loop {
        if let Some(outcome) = ctx.interrupted() {
            return ctx.finish(outcome);
        }
        // Phase 1: find a sufficient first conjunct.
        ctx.v_minus.clear();
        let first = loop {
            if let Err(outcome) = ctx.begin_iteration() {
                return ctx.finish(outcome);
            }
            let candidate = match ctx.synthesize_candidate() {
                Ok(candidate) => candidate,
                Err(outcome) => return ctx.finish(outcome),
            };
            match ctx.check_sufficiency(&candidate) {
                Ok(SufficiencyOutcome::Valid) => break candidate,
                Ok(SufficiencyOutcome::Cex(cex)) => {
                    let fresh = ctx.add_negatives(&candidate, &cex.abstract_args);
                    if fresh.is_empty() {
                        return ctx.finish(Outcome::SpecViolation(cex.abstract_args));
                    }
                }
                Err(outcome) => return ctx.finish(outcome),
            }
        };

        // Phase 2: strengthen the conjunction until it is inductive.
        let mut conjuncts = vec![first];
        loop {
            if let Err(outcome) = ctx.begin_iteration() {
                return ctx.finish(outcome);
            }
            let conjunction = conjoin(&concrete, &conjuncts);
            match ctx.check_full(&conjunction) {
                Ok(InductivenessOutcome::Valid) => {
                    return ctx.finish(Outcome::Invariant(conjunction));
                }
                Ok(InductivenessOutcome::Cex(cex)) => {
                    let all_known = cex.s.iter().all(|v| ctx.v_plus.contains(v));
                    if all_known {
                        // Over-strengthened: the escaping values are
                        // constructible.  Learn them and restart.
                        ctx.add_positives(cex.v);
                        continue 'restart;
                    }
                    // Otherwise strengthen: the inputs that led outside the
                    // conjunction become negatives for the next conjunct.
                    let fresh = ctx.add_negatives(&conjunction, &cex.s);
                    if fresh.is_empty() {
                        return ctx.finish(Outcome::SpecViolation(cex.s));
                    }
                    let next = match ctx.synthesize_candidate() {
                        Ok(candidate) => candidate,
                        Err(outcome) => return ctx.finish(outcome),
                    };
                    conjuncts.push(next);
                }
                Err(outcome) => return ctx.finish(outcome),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Mode, RunOptions};
    use crate::engine::Engine;
    use hanoi_abstraction::Problem;
    use hanoi_lang::value::Value;

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

    #[test]
    fn conj_str_solves_the_running_example() {
        let problem = Problem::from_source(LIST_SET).unwrap();
        let options = RunOptions::quick().with_mode(Mode::ConjStr);
        let result = Engine::with_defaults().run(&problem, &options);
        match &result.outcome {
            Outcome::Invariant(invariant) => {
                assert!(problem
                    .eval_predicate(invariant, &Value::nat_list(&[2, 1]))
                    .unwrap());
                assert!(!problem
                    .eval_predicate(invariant, &Value::nat_list(&[1, 1]))
                    .unwrap());
            }
            other => panic!("∧Str failed on the running example: {other}"),
        }
        assert!(result.stats.verification_calls > 0);
    }
}
