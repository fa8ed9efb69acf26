//! Specifications: universally quantified properties of the module.
//!
//! A specification `spec (s : t) (i : nat) = e` is a boolean expression over
//! parameters that are all universally quantified.  Parameters of abstract
//! type are the ones a candidate invariant must be *sufficient* for
//! (Definition 3.4); additional base-type parameters (the `∀i : int` of the
//! paper's running example) are simply enumerated by the verifier.

use hanoi_lang::ast::{Expr, SpecDecl};
use hanoi_lang::symbol::Symbol;
use hanoi_lang::types::Type;

/// An elaborated specification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Spec {
    /// The quantified parameters, with abstract-type positions preserved as
    /// [`Type::Abstract`].
    pub params: Vec<(Symbol, Type)>,
    /// The boolean body, evaluated with the parameters and all module
    /// operations in scope.  Problem elaboration slot-resolves it
    /// ([`hanoi_lang::resolve`]); the quantified parameters stay free
    /// variables, bound by name in the evaluation environment.
    pub body: Expr,
}

impl Spec {
    /// Builds a specification from its surface declaration.
    pub fn from_decl(decl: &SpecDecl) -> Self {
        Spec {
            params: decl.params.clone(),
            body: decl.body.clone(),
        }
    }

    /// Total number of quantified parameters.
    pub fn arity(&self) -> usize {
        self.params.len()
    }

    /// Indices of the parameters of abstract type, in order.
    pub fn abstract_positions(&self) -> Vec<usize> {
        self.params
            .iter()
            .enumerate()
            .filter(|(_, (_, ty))| ty.mentions_abstract())
            .map(|(i, _)| i)
            .collect()
    }

    /// Number of parameters of abstract type.
    pub fn abstract_arity(&self) -> usize {
        self.abstract_positions().len()
    }

    /// Indices of the parameters that are *not* of abstract type.
    pub fn base_positions(&self) -> Vec<usize> {
        self.params
            .iter()
            .enumerate()
            .filter(|(_, (_, ty))| !ty.mentions_abstract())
            .map(|(i, _)| i)
            .collect()
    }

    /// The parameter types with the abstract type replaced by `concrete`.
    pub fn concrete_param_types(&self, concrete: &Type) -> Vec<Type> {
        self.params
            .iter()
            .map(|(_, ty)| ty.subst_abstract(concrete))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hanoi_lang::parser::parse_program;

    fn spec_of(src: &str) -> Spec {
        let program = parse_program(src).unwrap();
        Spec::from_decl(program.spec().unwrap())
    }

    #[test]
    fn single_abstract_parameter() {
        let spec = spec_of("spec (s : t) (i : nat) = lookup (insert s i) i");
        assert_eq!(spec.arity(), 2);
        assert_eq!(spec.abstract_positions(), vec![0]);
        assert_eq!(spec.base_positions(), vec![1]);
        assert_eq!(spec.abstract_arity(), 1);
        assert_eq!(
            spec.concrete_param_types(&Type::named("list")),
            vec![Type::named("list"), Type::named("nat")]
        );
    }

    #[test]
    fn binary_specification() {
        // The φ' of §2.2: quantifies over two sets.
        let spec = spec_of(
            "spec (s1 : t) (s2 : t) (i : nat) = lookup (union s1 s2) i || not (lookup s1 i)",
        );
        assert_eq!(spec.abstract_positions(), vec![0, 1]);
        assert_eq!(spec.abstract_arity(), 2);
        assert_eq!(spec.base_positions(), vec![2]);
    }

    #[test]
    fn no_base_parameters() {
        let spec = spec_of("spec (s : t) = is_wf s");
        assert_eq!(spec.arity(), 1);
        assert!(spec.base_positions().is_empty());
    }
}
