//! The LA baseline (§5.5): LinearArbitrary-style counterexample handling.
//!
//! Two differences from Hanoi: inductiveness constraints are checked one
//! module operation at a time, and there is no eager search for visible
//! inductiveness counterexamples — positives are only discovered when a full
//! inductiveness counterexample *happens* to have all of its inputs in `V+`.

use hanoi_verifier::{InductivenessOutcome, SufficiencyOutcome};

use crate::context::InferenceContext;
use crate::outcome::{Outcome, RunResult};

/// Runs the LA baseline to completion.
pub fn run(mut ctx: InferenceContext<'_, '_>) -> RunResult {
    let op_names: Vec<String> = ctx
        .problem
        .inductive_ops()
        .iter()
        .map(|op| op.name.as_str().to_string())
        .collect();

    loop {
        if let Err(outcome) = ctx.begin_iteration() {
            return ctx.finish(outcome);
        }

        let candidate = match ctx.synthesize_candidate() {
            Ok(candidate) => candidate,
            Err(outcome) => return ctx.finish(outcome),
        };

        // Sufficiency, exactly as in Hanoi.
        match ctx.check_sufficiency(&candidate) {
            Ok(SufficiencyOutcome::Valid) => {}
            Ok(SufficiencyOutcome::Cex(cex)) => {
                let fresh = ctx.add_negatives(&candidate, &cex.abstract_args);
                if fresh.is_empty() {
                    return ctx.finish(Outcome::SpecViolation(cex.abstract_args));
                }
                continue;
            }
            Err(outcome) => return ctx.finish(outcome),
        }

        // Full inductiveness, one operation at a time; the first violated
        // constraint is handled and the loop restarts.
        let mut found_cex = false;
        for op in &op_names {
            match ctx.check_op(op, &candidate) {
                Ok(InductivenessOutcome::Valid) => {}
                Ok(InductivenessOutcome::Cex(cex)) => {
                    found_cex = true;
                    let visible = !cex.s.is_empty() && cex.s.iter().all(|v| ctx.v_plus.contains(v))
                        || cex.s.is_empty();
                    if visible {
                        // The counterexample happens to be a visible one:
                        // treat it accordingly (weaken).
                        ctx.add_positives(cex.v);
                    } else {
                        let fresh = ctx.add_negatives(&candidate, &cex.s);
                        if fresh.is_empty() {
                            return ctx.finish(Outcome::SpecViolation(cex.s));
                        }
                    }
                    break;
                }
                Err(outcome) => return ctx.finish(outcome),
            }
        }
        if !found_cex {
            return ctx.finish(Outcome::Invariant(candidate));
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
    fn la_solves_the_running_example() {
        let problem = Problem::from_source(LIST_SET).unwrap();
        let options = RunOptions::quick().with_mode(Mode::LinearArbitrary);
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
            other => panic!("LA failed on the running example: {other}"),
        }
    }
}
