//! The synthesizer interface the inference driver is parameterized by.
//!
//! A synthesizer is a stateless search procedure.  The memo it searches
//! through — the [`TermBank`] of term evaluations, persisted across CEGIS
//! iterations, runs and processes — belongs to the caller, which keeps one
//! bank per (problem, back end) and passes it to every call.

use hanoi_abstraction::Problem;
use hanoi_lang::ast::Expr;
use hanoi_lang::util::Deadline;

use crate::bank::TermBank;
use crate::error::SynthError;
use crate::examples::ExampleSet;

/// A black-box example-directed synthesizer (`Synth` in Figure 4).
///
/// Implementations must be *sound*: a returned predicate evaluates to `true`
/// on every positive example and `false` on every negative example.  They
/// need not be complete — [`SynthError::NoCandidate`] is an acceptable answer
/// — although the completeness theorem of §3.4 only applies when they are.
pub trait Synthesizer {
    /// A short name used in experiment reports (e.g. `"myth"`, `"fold"`).
    fn name(&self) -> &'static str;

    /// Synthesizes a predicate of type `τc -> bool` separating the example
    /// sets, closed over the problem's prelude and module operations.
    ///
    /// Term evaluations are memoized in, and served from, `bank`.  Its
    /// entries capture the globals of the problem they were computed for,
    /// so a bank must only ever be passed calls on one problem.
    fn synthesize(
        &self,
        problem: &Problem,
        bank: &TermBank,
        examples: &ExampleSet,
        deadline: &Deadline,
    ) -> Result<Expr, SynthError>;
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A trivial synthesizer used to exercise the trait object interface.
    struct ConstTrue;

    impl Synthesizer for ConstTrue {
        fn name(&self) -> &'static str {
            "const-true"
        }

        fn synthesize(
            &self,
            problem: &Problem,
            _bank: &TermBank,
            examples: &ExampleSet,
            _deadline: &Deadline,
        ) -> Result<Expr, SynthError> {
            if !examples.negatives().is_empty() {
                return Err(SynthError::NoCandidate);
            }
            let concrete = problem.concrete_type().clone();
            Ok(Expr::lambda("x", concrete, Expr::tru()))
        }
    }

    #[test]
    fn trait_objects_work() {
        let problem = Problem::from_source(
            r#"
            type nat = O | S of nat
            interface I = sig
              type t
              val make : t
            end
            module M : I = struct
              type t = nat
              let make : t = O
            end
            spec (s : t) = s == s
        "#,
        )
        .unwrap();
        let synth: Box<dyn Synthesizer> = Box::new(ConstTrue);
        assert_eq!(synth.name(), "const-true");
        let result = synth
            .synthesize(
                &problem,
                &TermBank::new(),
                &ExampleSet::new(),
                &Deadline::none(),
            )
            .unwrap();
        problem.typecheck_invariant(&result).unwrap();
    }
}
