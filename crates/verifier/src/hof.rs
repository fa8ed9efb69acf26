//! Enumeration of higher-order (functional) arguments.
//!
//! "There are many ways to build a function, so enumeratively verifying a
//! higher-order function requires searching through many possible functions"
//! (§5.4).  This module enumerates small lambda terms of the required
//! (concretised) function type, built from the module's operations, the
//! prelude and data constructors, and evaluates them to closures the
//! inductiveness checker can pass to module operations.

use hanoi_abstraction::Problem;
use hanoi_lang::ast::Expr;
use hanoi_lang::eval::Fuel;
use hanoi_lang::resolve::resolve;
use hanoi_lang::termgen::{Component, TermGenConfig, TermGenerator};
use hanoi_lang::types::Type;
use hanoi_lang::value::Value;

use crate::bounds::VerifierBounds;

/// One enumerated functional argument.
#[derive(Debug, Clone)]
pub struct FunctionCandidate {
    /// The lambda term (for diagnostics and reproducibility).
    pub expr: Expr,
    /// Its evaluated closure.
    pub value: Value,
    /// The interface-level signature of the position it fills (may mention
    /// the abstract type).
    pub sig: Type,
}

/// Enumerates candidate functional arguments for an argument position with
/// interface signature `sig` (e.g. `nat -> t -> t`).
///
/// The candidates are ordered by body size and capped at
/// `bounds.hof_max_functions`.
pub fn enumerate_function_candidates(
    problem: &Problem,
    sig: &Type,
    bounds: &VerifierBounds,
) -> Vec<FunctionCandidate> {
    let concrete_sig = sig.subst_abstract(problem.concrete_type());
    let components: Vec<Component> = problem
        .synthesis_components()
        .into_iter()
        .filter(|(_, ty)| ty.is_first_order())
        .map(|(name, ty)| Component::new(name, ty))
        .collect();
    let mut generator = TermGenerator::new(&problem.tyenv, components, TermGenConfig::default());
    let evaluator = problem.evaluator();
    let mut out = Vec::new();
    for expr in generator.lambdas_up_to(&concrete_sig, bounds.hof_body_size) {
        if out.len() >= bounds.hof_max_functions {
            break;
        }
        let mut fuel = Fuel::new(bounds.fuel);
        if let Ok(value) = evaluator.eval_resolved(&problem.globals, &resolve(&expr), &mut fuel) {
            out.push(FunctionCandidate {
                expr,
                value,
                sig: sig.clone(),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const HOF_SET: &str = r#"
        type nat = O | S of nat
        type list = Nil | Cons of nat * list

        interface HOSET = sig
          type t
          val empty : t
          val insert : t -> nat -> t
          val lookup : t -> nat -> bool
          val map : (nat -> nat) -> t -> t
          val fold : (nat -> t -> t) -> t -> t -> t
        end

        module ListSet : HOSET = struct
          type t = list
          let empty : t = Nil
          let rec lookup (l : t) (x : nat) : bool =
            match l with
            | Nil -> False
            | Cons (hd, tl) -> hd == x || lookup tl x
            end
          let insert (l : t) (x : nat) : t =
            if lookup l x then l else Cons (x, l)
          let rec map (f : nat -> nat) (l : t) : t =
            match l with
            | Nil -> Nil
            | Cons (hd, tl) -> Cons (f hd, map f tl)
            end
          let rec fold (f : nat -> t -> t) (a : t) (s : t) : t =
            match s with
            | Nil -> a
            | Cons (hd, tl) -> f hd (fold f a tl)
            end
        end

        spec (s : t) (i : nat) = lookup (insert s i) i
    "#;

    #[test]
    fn enumerates_first_order_function_arguments() {
        let problem = Problem::from_source(HOF_SET).unwrap();
        let bounds = VerifierBounds::quick();
        let sig = Type::arrow(Type::named("nat"), Type::named("nat"));
        let candidates = enumerate_function_candidates(&problem, &sig, &bounds);
        assert!(!candidates.is_empty());
        assert!(candidates.len() <= bounds.hof_max_functions);
        // Every candidate must actually be applicable to a nat.
        let evaluator = problem.evaluator();
        for c in &candidates {
            let out = evaluator
                .apply(c.value.clone(), Value::nat(1), &mut Fuel::standard())
                .unwrap();
            assert!(
                out.as_nat().is_some(),
                "candidate {} returned {out}",
                c.expr
            );
        }
    }

    #[test]
    fn enumerates_abstract_mentioning_function_arguments() {
        let problem = Problem::from_source(HOF_SET).unwrap();
        let bounds = VerifierBounds::quick();
        let sig = Type::arrows(vec![Type::named("nat"), Type::Abstract], Type::Abstract);
        let candidates = enumerate_function_candidates(&problem, &sig, &bounds);
        assert!(!candidates.is_empty());
        // Candidates should include something that uses a module operation,
        // e.g. a function equivalent to `fun x acc -> insert acc x` or one
        // that just returns the accumulator.
        let evaluator = problem.evaluator();
        let mut produced_lists = 0usize;
        for c in &candidates {
            let mut fuel = Fuel::standard();
            if let Ok(out) = evaluator.apply_many(
                c.value.clone(),
                &[Value::nat(1), Value::nat_list(&[2])],
                &mut fuel,
            ) {
                if out.as_list().is_some() {
                    produced_lists += 1;
                }
            }
        }
        assert!(produced_lists > 0);
    }

    #[test]
    fn candidate_count_respects_the_bound() {
        let problem = Problem::from_source(HOF_SET).unwrap();
        let mut bounds = VerifierBounds::quick();
        bounds.hof_max_functions = 3;
        let sig = Type::arrow(Type::named("nat"), Type::named("nat"));
        let candidates = enumerate_function_candidates(&problem, &sig, &bounds);
        assert!(candidates.len() <= 3);
    }
}
