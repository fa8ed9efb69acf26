//! The OneShot baseline (§5.5): label the smallest values of the concrete
//! type with the specification, synthesize once, and hope.
//!
//! "This algorithm only works when the specification quantifies over a single
//! element of the abstract type" — with more abstract quantifiers the mode
//! reports a synthesis failure.  The synthesized predicate is then checked
//! for sufficiency and full inductiveness; if either fails the benchmark is
//! counted as failed (matching the paper's observation that OneShot's fixed
//! example budget is too small for some benchmarks and too large for others).

use std::ops::ControlFlow;
use std::sync::Arc;

use hanoi_lang::eval::Fuel;
use hanoi_lang::util::for_each_product;
use hanoi_lang::value::Value;
use hanoi_verifier::{InductivenessOutcome, SufficiencyOutcome};

use crate::context::InferenceContext;
use crate::outcome::{Outcome, RunResult};

/// How many of the smallest values of the concrete type are labelled (30 in
/// §5.5).
const ONE_SHOT_SAMPLES: usize = 30;

/// Runs the OneShot baseline.
pub fn run(mut ctx: InferenceContext<'_, '_>) -> RunResult {
    if ctx.problem.spec.abstract_arity() != 1 {
        return ctx.finish(Outcome::SynthesisFailure(
            "OneShot requires a specification with exactly one abstract-type quantifier".into(),
        ));
    }
    ctx.stats.iterations = 1;

    // Label the smallest values by evaluating the specification with every
    // base-type quantifier instantiated over a small enumeration.
    let samples = ctx.verifier().smallest_concrete_values(ONE_SHOT_SAMPLES);
    let labels: Vec<(Value, bool)> = samples
        .iter()
        .map(|sample| (sample.clone(), spec_holds_on(&ctx, sample)))
        .collect();
    for (value, holds) in &labels {
        if *holds {
            ctx.v_plus.insert(value.clone());
        } else {
            ctx.v_minus.insert(value.clone());
        }
    }

    // The labelled samples are already in `V+`/`V−`; the context builds the
    // trace-completed example set and drives the session synthesizer (and
    // with it the run's persistent term bank and statistics).
    let candidate = match ctx.synthesize_candidate() {
        Ok(candidate) => candidate,
        Err(outcome) => return ctx.finish(outcome),
    };

    // Whatever was synthesized is the answer; it still has to be a sufficient
    // representation invariant to count as a success.
    match ctx.check_sufficiency(&candidate) {
        Ok(SufficiencyOutcome::Valid) => {}
        Ok(SufficiencyOutcome::Cex(_)) => {
            return ctx.finish(Outcome::SynthesisFailure(
                "one-shot candidate is not sufficient".into(),
            ))
        }
        Err(outcome) => return ctx.finish(outcome),
    }
    match ctx.check_full(&candidate) {
        Ok(InductivenessOutcome::Valid) => ctx.finish(Outcome::Invariant(candidate)),
        Ok(InductivenessOutcome::Cex(_)) => ctx.finish(Outcome::SynthesisFailure(
            "one-shot candidate is not inductive".into(),
        )),
        Err(outcome) => ctx.finish(outcome),
    }
}

/// Evaluates the specification on `sample` at the abstract position, with all
/// base-type quantifiers instantiated over a small enumeration; `true` only
/// when every instantiation satisfies the spec.
fn spec_holds_on(ctx: &InferenceContext<'_, '_>, sample: &Value) -> bool {
    let spec = &ctx.problem.spec;
    let abstract_position = spec.abstract_positions()[0];
    // Drawn from the session pool cache: this runs once per labelled sample,
    // and re-enumerating the same small pools 30 times was pure waste.
    let pools: Vec<Arc<Vec<Value>>> = spec
        .params
        .iter()
        .enumerate()
        .map(|(index, (_, ty))| {
            if index == abstract_position {
                Arc::new(vec![sample.clone()])
            } else {
                let concrete = ty.subst_abstract(ctx.problem.concrete_type());
                ctx.verifier().pool_cache().pool(&concrete, 20, 8, 1)
            }
        })
        .collect();
    let groups: Vec<&[Value]> = pools.iter().map(|pool| pool.as_slice()).collect();
    let mut holds = true;
    for_each_product(&groups, |args| {
        let ok = ctx
            .problem
            .eval_spec_with_fuel(args.iter().copied(), &mut Fuel::standard())
            .unwrap_or(false);
        if ok {
            ControlFlow::Continue(())
        } else {
            holds = false;
            ControlFlow::Break(())
        }
    });
    holds
}

#[cfg(test)]
mod tests {
    use crate::config::{Mode, RunOptions};
    use crate::engine::Engine;
    use crate::outcome::Outcome;
    use hanoi_abstraction::Problem;

    const UNIQUE_LIST: &str = r#"
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
    fn one_shot_runs_to_a_definite_answer() {
        // The paper reports that OneShot solves coq/unique-list-set (this
        // very module) and fails on most others; either way the run must
        // terminate quickly with a definite outcome and exactly one synthesis
        // call.
        let problem = Problem::from_source(UNIQUE_LIST).unwrap();
        let options = RunOptions::quick().with_mode(Mode::OneShot);
        let result = Engine::with_defaults().run(&problem, &options);
        match &result.outcome {
            Outcome::Invariant(inv) => {
                assert!(!problem
                    .eval_predicate(inv, &hanoi_lang::value::Value::nat_list(&[1, 1]))
                    .unwrap());
            }
            Outcome::SynthesisFailure(_) | Outcome::Timeout | Outcome::Cancelled => {}
            Outcome::SpecViolation(_) => panic!("the module satisfies its spec"),
        }
        assert!(result.stats.synthesis_calls <= 1);
        assert_eq!(result.stats.iterations, 1);
    }

    #[test]
    fn one_shot_rejects_multi_abstract_specs() {
        let src = UNIQUE_LIST.replace(
            "spec (s : t) (i : nat) =\n          not (lookup empty i) && lookup (insert s i) i && not (lookup (delete s i) i)",
            "spec (s1 : t) (s2 : t) (i : nat) = lookup (insert s1 i) i",
        );
        let problem = Problem::from_source(&src).unwrap();
        let options = RunOptions::quick().with_mode(Mode::OneShot);
        let result = Engine::with_defaults().run(&problem, &options);
        assert!(matches!(result.outcome, Outcome::SynthesisFailure(_)));
    }
}
