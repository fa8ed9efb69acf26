//! The default, Myth-style synthesizer: a stateless front end to the shared
//! search [`Engine`], run against the caller's [`TermBank`].

use hanoi_abstraction::Problem;
use hanoi_lang::ast::Expr;
use hanoi_lang::util::Deadline;

use crate::bank::TermBank;
use crate::engine::{Engine, SearchConfig};
use crate::error::SynthError;
use crate::examples::ExampleSet;
use crate::traits::Synthesizer;

/// A type- and example-directed enumerative synthesizer in the style of Myth
/// [Osera & Zdancewic 2015]: match refinement plus bottom-up guessing with
/// observational-equivalence pruning and structural recursion.
///
/// The synthesizer holds only its search limits; the [`TermBank`] every call
/// searches through is the caller's, so signature evaluations paid for in
/// one CEGIS iteration are reused by every later one.
#[derive(Debug, Clone)]
pub struct MythSynth {
    config: SearchConfig,
    parallelism: usize,
}

impl Default for MythSynth {
    fn default() -> Self {
        MythSynth::new()
    }
}

impl MythSynth {
    /// A serial synthesizer with the default search schedule.
    pub fn new() -> Self {
        MythSynth {
            config: SearchConfig::default(),
            parallelism: 1,
        }
    }

    /// Overrides the search configuration.
    pub fn with_config(mut self, config: SearchConfig) -> Self {
        self.config = config;
        self
    }

    /// Sets the worker-thread count for layer construction (see
    /// [`Engine::with_parallelism`]).
    pub fn with_parallelism(mut self, parallelism: usize) -> Self {
        self.parallelism = parallelism;
        self
    }
}

impl Synthesizer for MythSynth {
    fn name(&self) -> &'static str {
        "myth"
    }

    fn synthesize(
        &self,
        problem: &Problem,
        bank: &TermBank,
        examples: &ExampleSet,
        deadline: &Deadline,
    ) -> Result<Expr, SynthError> {
        Engine::new(problem, self.config.clone())
            .with_parallelism(self.parallelism)
            .synthesize_with_bank(bank, examples, deadline)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hanoi_lang::value::Value;

    const NAT_COUNTER: &str = r#"
        type nat = O | S of nat

        let rec even (n : nat) : bool =
          match n with
          | O -> True
          | S m ->
              match m with
              | O -> False
              | S k -> even k
              end
          end

        interface COUNTER = sig
          type t
          val zero : t
          val incr2 : t -> t
          val is_zero : t -> bool
        end

        module EvenCounter : COUNTER = struct
          type t = nat
          let zero : t = O
          let incr2 (c : t) : t = S (S c)
          let is_zero (c : t) : bool =
            match c with
            | O -> True
            | S m -> False
            end
        end

        spec (c : t) = not (is_zero (incr2 c))
    "#;

    #[test]
    fn synthesizes_an_evenness_style_separator() {
        let problem = Problem::from_source(NAT_COUNTER).unwrap();
        let synth = MythSynth::new();
        assert_eq!(synth.name(), "myth");
        // Positives: even naturals (constructible); negatives: odd ones.
        let examples = ExampleSet::from_sets(
            [Value::nat(0), Value::nat(2), Value::nat(4)],
            [Value::nat(1), Value::nat(3), Value::nat(5)],
        )
        .unwrap();
        let (examples, _) = examples.trace_completed(&problem.tyenv, problem.concrete_type());
        let result = synth
            .synthesize(&problem, &TermBank::new(), &examples, &Deadline::none())
            .unwrap();
        problem.typecheck_invariant(&result).unwrap();
        for (value, expected) in examples.labeled() {
            assert_eq!(
                problem.eval_predicate(&result, &value).unwrap(),
                expected,
                "on {value} with candidate {result}"
            );
        }
    }

    #[test]
    fn respects_the_synth_contract_on_empty_examples() {
        let problem = Problem::from_source(NAT_COUNTER).unwrap();
        let synth = MythSynth::new().with_config(SearchConfig::quick());
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
