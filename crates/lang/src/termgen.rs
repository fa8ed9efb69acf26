//! Size-ordered enumeration of well-typed *terms*.
//!
//! Two consumers need a stream of candidate expressions ordered by size:
//!
//! * the higher-order-argument generator of the verifier (§4.2,
//!   `hanoi_verifier::hof`), which must enumerate *functions* to pass to
//!   module operations such as `fold` and `map` ("there are many ways to
//!   build a function, so enumeratively verifying a higher-order function
//!   requires searching through many possible functions"); and
//! * the fold synthesizer (`hanoi_synth::fold`), which enumerates the arms
//!   of the catamorphisms it offers the search as helper components.
//!
//! Terms are enumerated bottom-up and memoised per `(type, size)`.  The
//! generator deliberately produces only saturated applications of named
//! components; lambdas are introduced only at the top level of an arrow goal
//! type, which is all the two consumers above require.

use std::collections::HashMap;
use std::ops::ControlFlow;
use std::sync::Arc;

use crate::ast::Expr;
use crate::symbol::Symbol;
use crate::types::{Type, TypeEnv};
use crate::util::{compositions, for_each_product};

/// A named, typed component available to term enumeration: an in-scope
/// variable or a global function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Component {
    /// The component's name, referenced by generated terms.
    pub name: Symbol,
    /// Its type.
    pub ty: Type,
}

impl Component {
    /// Creates a component.
    pub fn new(name: impl Into<Symbol>, ty: Type) -> Self {
        Component {
            name: name.into(),
            ty,
        }
    }
}

/// Configuration for [`TermGenerator`].
#[derive(Debug, Clone)]
pub struct TermGenConfig {
    /// Allow `&&`, `||`, `not` at boolean goal types.
    pub allow_bool_ops: bool,
}

impl Default for TermGenConfig {
    fn default() -> Self {
        TermGenConfig {
            allow_bool_ops: true,
        }
    }
}

/// A memoising, bottom-up, type-directed term enumerator.
#[derive(Debug, Clone)]
pub struct TermGenerator<'a> {
    tyenv: &'a TypeEnv,
    components: Vec<Component>,
    config: TermGenConfig,
    cache: HashMap<(Type, usize), Arc<Vec<Expr>>>,
}

impl<'a> TermGenerator<'a> {
    /// Creates a generator with the given components in scope.
    pub fn new(tyenv: &'a TypeEnv, components: Vec<Component>, config: TermGenConfig) -> Self {
        TermGenerator {
            tyenv,
            components,
            config,
            cache: HashMap::new(),
        }
    }

    /// The components currently in scope.
    pub fn components(&self) -> &[Component] {
        &self.components
    }

    /// All terms of `ty` whose size is exactly `size`.
    pub fn terms_of_size(&mut self, ty: &Type, size: usize) -> Arc<Vec<Expr>> {
        if size == 0 {
            return Arc::new(Vec::new());
        }
        let key = (ty.clone(), size);
        if let Some(cached) = self.cache.get(&key) {
            return cached.clone();
        }
        let computed = Arc::new(self.compute(ty, size));
        self.cache.insert(key, computed.clone());
        computed
    }

    /// All terms of `ty` of size at most `max_size`, smallest first.
    pub fn terms_up_to(&mut self, ty: &Type, max_size: usize) -> Vec<Expr> {
        let mut out = Vec::new();
        for size in 1..=max_size {
            out.extend(self.terms_of_size(ty, size).iter().cloned());
        }
        out
    }

    /// Enumerates *function* terms of the (possibly multi-argument) arrow
    /// type `ty`, as nested lambdas whose bodies are drawn from this
    /// generator's components extended with the lambda parameters.  Bodies
    /// have size at most `max_body_size`; results are ordered by body size.
    pub fn lambdas_up_to(&mut self, ty: &Type, max_body_size: usize) -> Vec<Expr> {
        let (params, ret) = ty.uncurry();
        if params.is_empty() {
            return self.terms_up_to(ty, max_body_size);
        }
        let param_names: Vec<Symbol> = (0..params.len())
            .map(|i| Symbol::new(&format!("__hof_arg{i}")))
            .collect();
        let mut components = self.components.clone();
        for (name, ty) in param_names.iter().zip(&params) {
            components.push(Component::new(*name, (*ty).clone()));
        }
        let mut inner = TermGenerator::new(self.tyenv, components, self.config.clone());
        inner
            .terms_up_to(ret, max_body_size)
            .into_iter()
            .map(|body| {
                param_names
                    .iter()
                    .zip(&params)
                    .rev()
                    .fold(body, |acc, (name, ty)| {
                        Expr::lambda(name.as_str(), (*ty).clone(), acc)
                    })
            })
            .collect()
    }

    fn compute(&mut self, ty: &Type, size: usize) -> Vec<Expr> {
        let mut out = Vec::new();
        // Variables / nullary components.
        if size == 1 {
            for c in &self.components {
                if &c.ty == ty {
                    out.push(Expr::Var(c.name));
                }
            }
        }
        // Saturated applications of function-typed components returning `ty`.
        let candidates: Vec<(Symbol, Vec<Type>)> = self
            .components
            .iter()
            .filter_map(|c| {
                let (args, ret) = c.ty.uncurry();
                if ret == ty && !args.is_empty() {
                    Some((c.name, args.into_iter().cloned().collect()))
                } else {
                    None
                }
            })
            .collect();
        for (name, arg_tys) in candidates {
            // A saturated call `f a1 ... ak` has one Var node, k App nodes and
            // the argument subterms, so the arguments share `size - 1 - k`.
            if size < 1 + 2 * arg_tys.len() {
                continue;
            }
            for split in compositions(size - 1 - arg_tys.len(), arg_tys.len()).iter() {
                let groups: Vec<Arc<Vec<Expr>>> = arg_tys
                    .iter()
                    .zip(split)
                    .map(|(t, &s)| self.terms_of_size(t, s))
                    .collect();
                let groups: Vec<&[Expr]> = groups.iter().map(|g| g.as_slice()).collect();
                for_each_product(&groups, |args| {
                    out.push(Expr::apps(Expr::Var(name), args.iter().copied().cloned()));
                    ControlFlow::Continue(())
                });
            }
        }
        // Constructor applications.
        if let Type::Named(type_name) = ty {
            if let Some(decl) = self.tyenv.lookup(type_name) {
                let ctors: Vec<(Symbol, Vec<Type>)> = decl
                    .ctors
                    .iter()
                    .map(|c| (c.name, c.args.clone()))
                    .collect();
                for (ctor, args) in ctors {
                    if args.is_empty() {
                        if size == 1 {
                            out.push(Expr::Ctor(ctor, Vec::new()));
                        }
                        continue;
                    }
                    if size < 1 + args.len() {
                        continue;
                    }
                    for split in compositions(size - 1, args.len()).iter() {
                        let groups: Vec<Arc<Vec<Expr>>> = args
                            .iter()
                            .zip(split)
                            .map(|(t, &s)| self.terms_of_size(t, s))
                            .collect();
                        let groups: Vec<&[Expr]> = groups.iter().map(|g| g.as_slice()).collect();
                        for_each_product(&groups, |items| {
                            out.push(Expr::Ctor(ctor, items.iter().copied().cloned().collect()));
                            ControlFlow::Continue(())
                        });
                    }
                }
            }
        }
        // Tuples.
        if let Type::Tuple(elems) = ty {
            if !elems.is_empty() && size > elems.len() {
                for split in compositions(size - 1, elems.len()).iter() {
                    let groups: Vec<Arc<Vec<Expr>>> = elems
                        .iter()
                        .zip(split)
                        .map(|(t, &s)| self.terms_of_size(t, s))
                        .collect();
                    let groups: Vec<&[Expr]> = groups.iter().map(|g| g.as_slice()).collect();
                    for_each_product(&groups, |items| {
                        out.push(Expr::Tuple(items.iter().copied().cloned().collect()));
                        ControlFlow::Continue(())
                    });
                }
            }
        }
        // Boolean connectives.
        if ty == &Type::bool() && self.config.allow_bool_ops {
            if size >= 2 {
                for a in self.terms_of_size(&Type::bool(), size - 1).iter() {
                    out.push(Expr::not(a.clone()));
                }
            }
            if size >= 3 {
                for split in compositions(size - 1, 2).iter() {
                    let lefts = self.terms_of_size(&Type::bool(), split[0]);
                    let rights = self.terms_of_size(&Type::bool(), split[1]);
                    for l in lefts.iter() {
                        for r in rights.iter() {
                            out.push(Expr::and(l.clone(), r.clone()));
                            out.push(Expr::or(l.clone(), r.clone()));
                        }
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::typecheck::{TypeChecker, TypeContext};
    use crate::types::{CtorDecl, DataDecl};

    fn tyenv() -> TypeEnv {
        let mut env = TypeEnv::new();
        env.declare(DataDecl::new(
            "nat",
            vec![
                CtorDecl::new("O", vec![]),
                CtorDecl::new("S", vec![Type::named("nat")]),
            ],
        ))
        .unwrap();
        env.declare(DataDecl::new(
            "list",
            vec![
                CtorDecl::new("Nil", vec![]),
                CtorDecl::new("Cons", vec![Type::named("nat"), Type::named("list")]),
            ],
        ))
        .unwrap();
        env
    }

    fn list_components() -> Vec<Component> {
        vec![
            Component::new("l", Type::named("list")),
            Component::new("x", Type::named("nat")),
            Component::new(
                "lookup",
                Type::arrows(vec![Type::named("list"), Type::named("nat")], Type::bool()),
            ),
        ]
    }

    #[test]
    fn variables_come_first() {
        let env = tyenv();
        let mut gen = TermGenerator::new(&env, list_components(), TermGenConfig::default());
        let terms = gen.terms_of_size(&Type::named("list"), 1);
        assert!(terms.contains(&Expr::var("l")));
        assert!(terms.contains(&Expr::ctor("Nil", vec![])));
        assert!(!terms.contains(&Expr::var("x")));
    }

    #[test]
    fn applications_are_generated() {
        let env = tyenv();
        let mut gen = TermGenerator::new(&env, list_components(), TermGenConfig::default());
        let terms = gen.terms_up_to(&Type::bool(), 5);
        assert!(terms.contains(&Expr::call("lookup", [Expr::var("l"), Expr::var("x")])));
    }

    #[test]
    fn all_generated_terms_are_well_typed() {
        let env = tyenv();
        let mut checker = TypeChecker::new(&env);
        for c in list_components() {
            checker.declare_global(c.name, c.ty.clone());
        }
        let mut gen = TermGenerator::new(&env, list_components(), TermGenConfig::default());
        for ty in [Type::bool(), Type::named("nat"), Type::named("list")] {
            for term in gen.terms_up_to(&ty, 5) {
                let inferred = checker
                    .infer(&TypeContext::new(), &term)
                    .unwrap_or_else(|e| panic!("ill-typed term {term}: {e}"));
                assert_eq!(inferred, ty, "term {term}");
            }
        }
    }

    #[test]
    fn generated_terms_have_the_requested_size() {
        let env = tyenv();
        let mut gen = TermGenerator::new(&env, list_components(), TermGenConfig::default());
        for size in 1..=5 {
            for term in gen.terms_of_size(&Type::bool(), size).iter() {
                assert_eq!(crate::size::expr_size(term), size, "term {term}");
            }
        }
    }

    #[test]
    fn lambda_enumeration_for_higher_order_arguments() {
        let env = tyenv();
        let mut gen = TermGenerator::new(&env, Vec::new(), TermGenConfig::default());
        // Functions of type nat -> nat, with bodies up to size 2:
        // candidates include the identity, constants and S applied to the arg.
        let ty = Type::arrow(Type::named("nat"), Type::named("nat"));
        let funcs = gen.lambdas_up_to(&ty, 2);
        assert!(!funcs.is_empty());
        assert!(funcs.iter().all(|f| matches!(f, Expr::Lambda(_))));
        let checker = TypeChecker::new(&env);
        for f in &funcs {
            assert_eq!(checker.infer(&TypeContext::new(), f).unwrap(), ty);
        }
    }

    #[test]
    fn no_duplicate_terms() {
        use std::collections::HashSet;
        let env = tyenv();
        let mut gen = TermGenerator::new(&env, list_components(), TermGenConfig::default());
        let terms = gen.terms_up_to(&Type::bool(), 4);
        let set: HashSet<String> = terms.iter().map(|t| t.to_string()).collect();
        assert_eq!(set.len(), terms.len());
    }
}
