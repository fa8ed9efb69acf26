//! A type checker for core expressions.
//!
//! Because every binder in the core language carries a type annotation, type
//! inference is fully syntax-directed; "checking" an expression against an
//! expected type is inference followed by an equality test.  The checker
//! maintains a mutable table of *global* bindings (prelude functions, module
//! operations) alongside an immutable local [`TypeContext`].

use std::collections::HashMap;

use crate::ast::{Expr, Pattern};
use crate::error::TypeError;
use crate::symbol::Symbol;
use crate::types::{Type, TypeEnv};

/// An immutable local typing context (lambda/match/let binders).
#[derive(Debug, Clone, Default)]
pub struct TypeContext {
    vars: Vec<(Symbol, Type)>,
}

impl TypeContext {
    /// The empty context.
    pub fn new() -> Self {
        TypeContext::default()
    }

    /// A context extended with one binding (shadowing earlier ones).
    pub fn bind(&self, name: Symbol, ty: Type) -> TypeContext {
        let mut vars = self.vars.clone();
        vars.push((name, ty));
        TypeContext { vars }
    }

    /// A context extended with several bindings.
    pub fn bind_all(&self, bindings: impl IntoIterator<Item = (Symbol, Type)>) -> TypeContext {
        let mut vars = self.vars.clone();
        vars.extend(bindings);
        TypeContext { vars }
    }

    /// Looks up the most recent binding of `name`.
    pub fn lookup(&self, name: &Symbol) -> Option<&Type> {
        self.vars
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, t)| t)
    }

    /// All bindings, oldest first (shadowed bindings included).
    pub fn bindings(&self) -> &[(Symbol, Type)] {
        &self.vars
    }
}

/// The type checker.
#[derive(Debug, Clone)]
pub struct TypeChecker<'a> {
    tyenv: &'a TypeEnv,
    globals: HashMap<Symbol, Type>,
}

impl<'a> TypeChecker<'a> {
    /// Creates a checker over the given data type environment.  The integer
    /// builtins ([`crate::ints::builtins`]) are pre-declared — they are bound
    /// in every elaborated program's global environment, so every checking
    /// context (program elaboration, spec checking, invariant re-checking)
    /// must agree that they exist.  User bindings may shadow them.
    pub fn new(tyenv: &'a TypeEnv) -> Self {
        let mut checker = TypeChecker {
            tyenv,
            globals: HashMap::new(),
        };
        for (name, ty, _) in crate::ints::builtins() {
            checker.declare_global(name, ty);
        }
        checker
    }

    /// Declares a global binding (a prelude function or module operation).
    pub fn declare_global(&mut self, name: Symbol, ty: Type) {
        self.globals.insert(name, ty);
    }

    /// The type of a declared global, if any.
    pub fn global(&self, name: &Symbol) -> Option<&Type> {
        self.globals.get(name)
    }

    /// All declared globals.
    pub fn globals(&self) -> impl Iterator<Item = (&Symbol, &Type)> {
        self.globals.iter()
    }

    /// The data type environment.
    pub fn tyenv(&self) -> &'a TypeEnv {
        self.tyenv
    }

    /// Infers the type of a closed expression (only globals in scope).
    pub fn infer_closed(&self, expr: &Expr) -> Result<Type, TypeError> {
        self.infer(&TypeContext::new(), expr)
    }

    /// Checks a closed expression against an expected type.
    pub fn check_closed(&self, expr: &Expr, expected: &Type) -> Result<(), TypeError> {
        self.check(&TypeContext::new(), expr, expected)
    }

    /// Checks `expr` against `expected` in the local context `ctx`.
    pub fn check(&self, ctx: &TypeContext, expr: &Expr, expected: &Type) -> Result<(), TypeError> {
        let found = self.infer(ctx, expr)?;
        if &found == expected {
            Ok(())
        } else {
            Err(TypeError::Mismatch {
                expected: expected.clone(),
                found,
                context: format!("expression `{expr}`"),
            })
        }
    }

    /// Infers the type of `expr` in the local context `ctx`.
    pub fn infer(&self, ctx: &TypeContext, expr: &Expr) -> Result<Type, TypeError> {
        match expr {
            Expr::Var(x) => ctx
                .lookup(x)
                .or_else(|| self.globals.get(x))
                .cloned()
                .ok_or(TypeError::UnboundVariable(*x)),
            // Slot references only exist in already-checked code that went
            // through the resolution pass; they are not re-checkable because
            // the context is name-keyed.
            Expr::Local(_, x) => Err(TypeError::Other(format!(
                "resolved slot reference `{x}` cannot be type-checked; \
                 check the unresolved expression instead"
            ))),
            Expr::Int(_) => Ok(Type::int()),
            Expr::Ctor(c, args) => {
                let info = self
                    .tyenv
                    .ctor(c)
                    .ok_or(TypeError::UnknownConstructor(*c))?;
                if info.args.len() != args.len() {
                    return Err(TypeError::CtorArity {
                        ctor: *c,
                        expected: info.args.len(),
                        found: args.len(),
                    });
                }
                for (arg, expected) in args.iter().zip(&info.args) {
                    self.check(ctx, arg, expected)?;
                }
                Ok(Type::Named(info.data_type))
            }
            Expr::Tuple(args) => {
                let tys: Result<Vec<Type>, TypeError> =
                    args.iter().map(|a| self.infer(ctx, a)).collect();
                Ok(Type::Tuple(tys?))
            }
            Expr::Proj(i, e) => {
                let ty = self.infer(ctx, e)?;
                match ty {
                    Type::Tuple(ts) if *i < ts.len() => Ok(ts[*i].clone()),
                    Type::Tuple(ts) => Err(TypeError::ProjectionOutOfBounds {
                        index: *i,
                        arity: ts.len(),
                    }),
                    other => Err(TypeError::NotATuple(other)),
                }
            }
            Expr::App(f, arg) => {
                let fty = self.infer(ctx, f)?;
                match fty {
                    Type::Arrow(param, ret) => {
                        self.check(ctx, arg, &param)?;
                        Ok(*ret)
                    }
                    other => Err(TypeError::NotAFunction(other)),
                }
            }
            Expr::Lambda(l) => {
                self.tyenv.check_wellformed(&l.param_ty)?;
                let body_ctx = ctx.bind(l.param, l.param_ty.clone());
                let body_ty = self.infer(&body_ctx, &l.body)?;
                Ok(Type::arrow(l.param_ty.clone(), body_ty))
            }
            Expr::Fix(fx) => {
                self.tyenv.check_wellformed(&fx.param_ty)?;
                self.tyenv.check_wellformed(&fx.ret_ty)?;
                let self_ty = Type::arrow(fx.param_ty.clone(), fx.ret_ty.clone());
                let body_ctx = ctx
                    .bind(fx.name, self_ty.clone())
                    .bind(fx.param, fx.param_ty.clone());
                self.check(&body_ctx, &fx.body, &fx.ret_ty)
                    .map_err(|e| TypeError::Other(format!("in the body of `{}`: {e}", fx.name)))?;
                Ok(self_ty)
            }
            Expr::Match(scrutinee, arms) => {
                let scrutinee_ty = self.infer(ctx, scrutinee)?;
                if arms.is_empty() {
                    return Err(TypeError::Other(format!(
                        "match on `{scrutinee}` has no arms"
                    )));
                }
                let mut result: Option<Type> = None;
                for arm in arms {
                    let bindings = self.check_pattern(&arm.pattern, &scrutinee_ty)?;
                    let arm_ctx = ctx.bind_all(bindings);
                    let body_ty = self.infer(&arm_ctx, &arm.body)?;
                    match &result {
                        None => result = Some(body_ty),
                        Some(prev) if prev == &body_ty => {}
                        Some(prev) => {
                            return Err(TypeError::Mismatch {
                                expected: prev.clone(),
                                found: body_ty,
                                context: "match arms".to_string(),
                            })
                        }
                    }
                }
                Ok(result.expect("at least one arm"))
            }
            Expr::Let(x, bound, body) => {
                let bound_ty = self.infer(ctx, bound)?;
                let body_ctx = ctx.bind(*x, bound_ty);
                self.infer(&body_ctx, body)
            }
            Expr::If(cond, then, els) => {
                self.check(ctx, cond, &Type::bool())?;
                let then_ty = self.infer(ctx, then)?;
                self.check(ctx, els, &then_ty)?;
                Ok(then_ty)
            }
            Expr::Eq(a, b) => {
                let aty = self.infer(ctx, a)?;
                if !aty.is_zero_order() {
                    return Err(TypeError::EqualityAtFunctionType(aty));
                }
                self.check(ctx, b, &aty)?;
                Ok(Type::bool())
            }
            Expr::And(a, b) | Expr::Or(a, b) => {
                self.check(ctx, a, &Type::bool())?;
                self.check(ctx, b, &Type::bool())?;
                Ok(Type::bool())
            }
            Expr::Not(a) => {
                self.check(ctx, a, &Type::bool())?;
                Ok(Type::bool())
            }
        }
    }

    /// Checks a pattern against the scrutinee type, returning the bindings it
    /// introduces.
    pub fn check_pattern(
        &self,
        pattern: &Pattern,
        scrutinee: &Type,
    ) -> Result<Vec<(Symbol, Type)>, TypeError> {
        match pattern {
            Pattern::Wildcard => Ok(Vec::new()),
            Pattern::Var(x) => Ok(vec![(*x, scrutinee.clone())]),
            Pattern::Ctor(c, subpatterns) => {
                let info = self
                    .tyenv
                    .ctor(c)
                    .ok_or(TypeError::UnknownConstructor(*c))?;
                let Type::Named(data) = scrutinee else {
                    return Err(TypeError::PatternMismatch {
                        pattern: pattern.to_string(),
                        scrutinee: scrutinee.clone(),
                    });
                };
                if &info.data_type != data {
                    return Err(TypeError::PatternMismatch {
                        pattern: pattern.to_string(),
                        scrutinee: scrutinee.clone(),
                    });
                }
                if info.args.len() != subpatterns.len() {
                    return Err(TypeError::CtorArity {
                        ctor: *c,
                        expected: info.args.len(),
                        found: subpatterns.len(),
                    });
                }
                let mut bindings = Vec::new();
                for (sub, ty) in subpatterns.iter().zip(&info.args) {
                    bindings.extend(self.check_pattern(sub, ty)?);
                }
                Ok(bindings)
            }
            Pattern::Tuple(subpatterns) => {
                let Type::Tuple(tys) = scrutinee else {
                    return Err(TypeError::PatternMismatch {
                        pattern: pattern.to_string(),
                        scrutinee: scrutinee.clone(),
                    });
                };
                if tys.len() != subpatterns.len() {
                    return Err(TypeError::PatternMismatch {
                        pattern: pattern.to_string(),
                        scrutinee: scrutinee.clone(),
                    });
                }
                let mut bindings = Vec::new();
                for (sub, ty) in subpatterns.iter().zip(tys) {
                    bindings.extend(self.check_pattern(sub, ty)?);
                }
                Ok(bindings)
            }
        }
    }

    /// Checks that every arm of a match over `data_ty` is reachable and that
    /// together the arms cover every constructor.  Returns the list of
    /// uncovered constructor names (empty when exhaustive).
    ///
    /// This is a shallow analysis (it does not reason about nested patterns),
    /// which is all the synthesizers need to guarantee the matches they
    /// generate cannot fail at runtime.
    pub fn uncovered_ctors(&self, data_ty: &Type, patterns: &[Pattern]) -> Vec<Symbol> {
        let Type::Named(name) = data_ty else {
            return Vec::new();
        };
        let Some(decl) = self.tyenv.lookup(name) else {
            return Vec::new();
        };
        if patterns
            .iter()
            .any(|p| matches!(p, Pattern::Wildcard | Pattern::Var(_)))
        {
            return Vec::new();
        }
        decl.ctors
            .iter()
            .filter(|c| {
                !patterns
                    .iter()
                    .any(|p| matches!(p, Pattern::Ctor(pc, _) if pc == &c.name))
            })
            .map(|c| c.name)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::MatchArm;
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

    #[test]
    fn infers_constructor_applications() {
        let env = tyenv();
        let checker = TypeChecker::new(&env);
        let e = Expr::ctor(
            "Cons",
            vec![Expr::ctor("O", vec![]), Expr::ctor("Nil", vec![])],
        );
        assert_eq!(checker.infer_closed(&e).unwrap(), Type::named("list"));
    }

    #[test]
    fn rejects_wrong_arity_and_unknown_ctor() {
        let env = tyenv();
        let checker = TypeChecker::new(&env);
        let e = Expr::ctor("S", vec![]);
        assert!(matches!(
            checker.infer_closed(&e),
            Err(TypeError::CtorArity { .. })
        ));
        let e = Expr::ctor("Snoc", vec![]);
        assert!(matches!(
            checker.infer_closed(&e),
            Err(TypeError::UnknownConstructor(_))
        ));
    }

    #[test]
    fn infers_recursive_functions() {
        let env = tyenv();
        let checker = TypeChecker::new(&env);
        // fix len (l : list) : nat = match l with Nil -> O | Cons (h, t) -> S (len t)
        let e = Expr::fix(
            "len",
            "l",
            Type::named("list"),
            Type::named("nat"),
            Expr::match_(
                Expr::var("l"),
                vec![
                    MatchArm::new(Pattern::ctor("Nil", vec![]), Expr::ctor("O", vec![])),
                    MatchArm::new(
                        Pattern::ctor("Cons", vec![Pattern::var("h"), Pattern::var("t")]),
                        Expr::ctor("S", vec![Expr::call("len", [Expr::var("t")])]),
                    ),
                ],
            ),
        );
        assert_eq!(
            checker.infer_closed(&e).unwrap(),
            Type::arrow(Type::named("list"), Type::named("nat"))
        );
    }

    #[test]
    fn match_arms_must_agree() {
        let env = tyenv();
        let checker = TypeChecker::new(&env);
        let e = Expr::match_(
            Expr::ctor("O", vec![]),
            vec![
                MatchArm::new(Pattern::ctor("O", vec![]), Expr::tru()),
                MatchArm::new(
                    Pattern::ctor("S", vec![Pattern::Wildcard]),
                    Expr::ctor("O", vec![]),
                ),
            ],
        );
        assert!(matches!(
            checker.infer_closed(&e),
            Err(TypeError::Mismatch { .. })
        ));
    }

    #[test]
    fn equality_rejected_at_function_type() {
        let env = tyenv();
        let checker = TypeChecker::new(&env);
        let id = Expr::lambda("x", Type::named("nat"), Expr::var("x"));
        let e = Expr::eq(id.clone(), id);
        assert!(matches!(
            checker.infer_closed(&e),
            Err(TypeError::EqualityAtFunctionType(_))
        ));
    }

    #[test]
    fn globals_are_visible() {
        let env = tyenv();
        let mut checker = TypeChecker::new(&env);
        checker.declare_global(
            Symbol::new("lookup"),
            Type::arrows(vec![Type::named("list"), Type::named("nat")], Type::bool()),
        );
        let e = Expr::call(
            "lookup",
            [Expr::ctor("Nil", vec![]), Expr::ctor("O", vec![])],
        );
        assert_eq!(checker.infer_closed(&e).unwrap(), Type::bool());
    }

    #[test]
    fn local_bindings_shadow_globals() {
        let env = tyenv();
        let mut checker = TypeChecker::new(&env);
        checker.declare_global(Symbol::new("x"), Type::bool());
        let ctx = TypeContext::new().bind(Symbol::new("x"), Type::named("nat"));
        assert_eq!(
            checker.infer(&ctx, &Expr::var("x")).unwrap(),
            Type::named("nat")
        );
    }

    #[test]
    fn pattern_checking_produces_bindings() {
        let env = tyenv();
        let checker = TypeChecker::new(&env);
        let p = Pattern::ctor("Cons", vec![Pattern::var("h"), Pattern::var("t")]);
        let bindings = checker.check_pattern(&p, &Type::named("list")).unwrap();
        assert_eq!(bindings.len(), 2);
        assert_eq!(bindings[0].1, Type::named("nat"));
        assert_eq!(bindings[1].1, Type::named("list"));
        assert!(checker.check_pattern(&p, &Type::named("nat")).is_err());
    }

    #[test]
    fn exhaustiveness_analysis() {
        let env = tyenv();
        let checker = TypeChecker::new(&env);
        let pats = vec![Pattern::ctor("Nil", vec![])];
        let missing = checker.uncovered_ctors(&Type::named("list"), &pats);
        assert_eq!(missing, vec![Symbol::new("Cons")]);
        let pats = vec![Pattern::ctor("Nil", vec![]), Pattern::Wildcard];
        assert!(checker
            .uncovered_ctors(&Type::named("list"), &pats)
            .is_empty());
    }

    #[test]
    fn if_requires_bool_condition() {
        let env = tyenv();
        let checker = TypeChecker::new(&env);
        let e = Expr::if_(Expr::ctor("O", vec![]), Expr::tru(), Expr::fls());
        assert!(checker.infer_closed(&e).is_err());
    }

    #[test]
    fn projection_types() {
        let env = tyenv();
        let checker = TypeChecker::new(&env);
        let pair = Expr::Tuple(vec![Expr::ctor("O", vec![]), Expr::tru()]);
        let e = Expr::Proj(1, Box::new(pair.clone()));
        assert_eq!(checker.infer_closed(&e).unwrap(), Type::bool());
        let e = Expr::Proj(5, Box::new(pair));
        assert!(matches!(
            checker.infer_closed(&e),
            Err(TypeError::ProjectionOutOfBounds { .. })
        ));
    }
}
