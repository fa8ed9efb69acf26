//! End-to-end checks of a cold, one-shot inference run — the Figure 4 loop
//! driven through [`Engine::run`] on the paper's running example (§2).

use crate::config::RunOptions;
use crate::engine::Engine;
use hanoi_abstraction::Problem;

mod tests {
    use super::*;
    use crate::outcome::Outcome;
    use hanoi_lang::value::Value;

    /// The paper's running example (§2).
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
    fn infers_the_no_duplicates_invariant_for_the_running_example() {
        let problem = Problem::from_source(LIST_SET).unwrap();
        let result = Engine::with_defaults().run(&problem, &RunOptions::quick());
        let invariant = match &result.outcome {
            Outcome::Invariant(inv) => inv.clone(),
            other => panic!("expected an invariant, got {other} ({:?})", result.stats),
        };
        // The invariant must hold on constructible (duplicate-free) lists and
        // reject lists with duplicates, like the paper's `I⋆`.
        for positive in [
            Value::nat_list(&[]),
            Value::nat_list(&[3]),
            Value::nat_list(&[2, 5]),
            Value::nat_list(&[4, 2, 0]),
        ] {
            assert!(
                problem.eval_predicate(&invariant, &positive).unwrap(),
                "rejected constructible value {positive}: {invariant}"
            );
        }
        for negative in [
            Value::nat_list(&[1, 1]),
            Value::nat_list(&[0, 2, 0]),
            Value::nat_list(&[2, 2, 1]),
        ] {
            assert!(
                !problem.eval_predicate(&invariant, &negative).unwrap(),
                "accepted spec-violating value {negative}: {invariant}"
            );
        }
        // Statistics are populated.
        assert!(result.stats.verification_calls > 0);
        assert!(result.stats.synthesis_calls > 0);
        assert!(result.stats.invariant_size.is_some());
        assert!(result.stats.iterations > 1);
        assert!(result.stats.final_positives > 0);
    }

    #[test]
    fn reports_spec_violations_for_buggy_modules() {
        // An "insert" that does not de-duplicate: the module does not satisfy
        // the SET specification, and Hanoi must report a constructible
        // counterexample rather than an invariant.
        let buggy = LIST_SET.replace("if lookup l x then l else Cons (x, l)", "Cons (x, l)");
        let problem = Problem::from_source(&buggy).unwrap();
        let result = Engine::with_defaults().run(&problem, &RunOptions::quick());
        match result.outcome {
            Outcome::SpecViolation(witnesses) => {
                assert!(!witnesses.is_empty());
            }
            other => panic!("expected a spec violation, got {other}"),
        }
    }
}
