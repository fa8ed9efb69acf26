//! Abstract syntax: core expressions, patterns and surface-level program
//! items (data declarations, top-level bindings, interfaces, modules and
//! specifications).
//!
//! The core expression language is the first-order lambda calculus of §3.1
//! extended with the conveniences of the paper's implementation language
//! (§4.1): `match` over algebraic data, `let`, `if`, recursive functions and
//! builtin structural equality / boolean connectives.

use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

use crate::error::{LangError, TypeError};
use crate::eval::{Evaluator, Fuel};
use crate::symbol::Symbol;
use crate::typecheck::TypeChecker;
use crate::types::{DataDecl, Type, TypeEnv};
use crate::value::{Env, Value};

/// A pattern in a `match` arm.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Pattern {
    /// Matches anything, binds nothing.
    Wildcard,
    /// Matches anything, binds it to the given variable.
    Var(Symbol),
    /// Matches a constructor application.
    Ctor(Symbol, Vec<Pattern>),
    /// Matches a tuple.
    Tuple(Vec<Pattern>),
}

impl Pattern {
    /// Variable pattern.
    pub fn var(name: &str) -> Pattern {
        Pattern::Var(Symbol::new(name))
    }

    /// Constructor pattern.
    pub fn ctor(name: &str, args: Vec<Pattern>) -> Pattern {
        Pattern::Ctor(Symbol::new(name), args)
    }

    /// All variables bound by the pattern, in left-to-right order.
    pub fn bound_vars(&self) -> Vec<Symbol> {
        let mut out = Vec::new();
        self.collect_bound(&mut out);
        out
    }

    fn collect_bound(&self, out: &mut Vec<Symbol>) {
        match self {
            Pattern::Wildcard => {}
            Pattern::Var(x) => out.push(*x),
            Pattern::Ctor(_, ps) | Pattern::Tuple(ps) => {
                ps.iter().for_each(|p| p.collect_bound(out))
            }
        }
    }
}

/// One arm of a `match` expression.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MatchArm {
    /// The pattern guarding the arm.
    pub pattern: Pattern,
    /// The arm body.
    pub body: Expr,
}

impl MatchArm {
    /// Creates a match arm.
    pub fn new(pattern: Pattern, body: Expr) -> Self {
        MatchArm { pattern, body }
    }
}

/// A lambda abstraction `fun (x : ty) -> body`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LambdaExpr {
    /// Parameter name.
    pub param: Symbol,
    /// Parameter type.
    pub param_ty: Type,
    /// Function body, shared with every closure the lambda evaluates to.
    pub body: Arc<Expr>,
}

/// A recursive function `fix f (x : a) : r = body`; recursive occurrences of
/// `f` are in scope inside `body`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FixExpr {
    /// The function's own name, bound inside the body.
    pub name: Symbol,
    /// Parameter name.
    pub param: Symbol,
    /// Parameter type.
    pub param_ty: Type,
    /// Declared result type (the type of `body`).
    pub ret_ty: Type,
    /// Function body, shared with every closure the fix evaluates to.
    pub body: Arc<Expr>,
}

/// A core expression.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Expr {
    /// A variable reference.
    Var(Symbol),
    /// A resolved local-slot reference produced by [`crate::resolve`]: the
    /// `u32` is a de-Bruijn-style index into the values the interpreter has
    /// bound — its value stack, then the closure's captured [`Locals`]
    /// (`0` = innermost binding); the [`Symbol`] is the original variable
    /// name, kept for display and diagnostics.  The parser never produces
    /// this variant; it only appears in bodies that went through the
    /// slot-resolution pass.
    ///
    /// [`Locals`]: crate::value::Locals
    Local(u32, Symbol),
    /// A saturated constructor application.
    Ctor(Symbol, Vec<Expr>),
    /// A tuple literal (`Tuple(vec![])` is the unit value).
    Tuple(Vec<Expr>),
    /// Projection of the `i`-th component of a tuple (0-based).
    Proj(usize, Box<Expr>),
    /// Function application.
    App(Box<Expr>, Box<Expr>),
    /// Lambda abstraction.
    Lambda(Arc<LambdaExpr>),
    /// Recursive function.
    Fix(Arc<FixExpr>),
    /// Pattern match.
    Match(Box<Expr>, Vec<MatchArm>),
    /// Let binding.
    Let(Symbol, Box<Expr>, Box<Expr>),
    /// Conditional over the builtin `bool` type.
    If(Box<Expr>, Box<Expr>, Box<Expr>),
    /// Builtin structural equality at a 0-order type; evaluates to `bool`.
    Eq(Box<Expr>, Box<Expr>),
    /// Short-circuiting conjunction.
    And(Box<Expr>, Box<Expr>),
    /// Short-circuiting disjunction.
    Or(Box<Expr>, Box<Expr>),
    /// Boolean negation.
    Not(Box<Expr>),
    /// A machine-integer literal of the builtin `int` type (surface syntax
    /// `#5` / `#-3`; bare decimal literals remain Peano-nat sugar).  Declared
    /// last so derived `Ord` keeps the historical variant ordering.
    Int(i64),
}

impl Expr {
    /// A variable reference.
    pub fn var(name: &str) -> Expr {
        Expr::Var(Symbol::new(name))
    }

    /// A constructor application.
    pub fn ctor(name: &str, args: Vec<Expr>) -> Expr {
        Expr::Ctor(Symbol::new(name), args)
    }

    /// A machine-integer literal.
    pub fn int(i: i64) -> Expr {
        Expr::Int(i)
    }

    /// The boolean literal `True`.
    pub fn tru() -> Expr {
        Expr::ctor("True", vec![])
    }

    /// The boolean literal `False`.
    pub fn fls() -> Expr {
        Expr::ctor("False", vec![])
    }

    /// Function application.
    pub fn app(f: Expr, arg: Expr) -> Expr {
        Expr::App(Box::new(f), Box::new(arg))
    }

    /// Applies `f` to several arguments, left-associatively.
    pub fn apps(f: Expr, args: impl IntoIterator<Item = Expr>) -> Expr {
        args.into_iter().fold(f, Expr::app)
    }

    /// Applies a named function to arguments.
    pub fn call(name: &str, args: impl IntoIterator<Item = Expr>) -> Expr {
        Expr::apps(Expr::var(name), args)
    }

    /// A lambda abstraction.
    pub fn lambda(param: &str, param_ty: Type, body: impl Into<Arc<Expr>>) -> Expr {
        Expr::Lambda(Arc::new(LambdaExpr {
            param: Symbol::new(param),
            param_ty,
            body: body.into(),
        }))
    }

    /// A recursive function.
    pub fn fix(
        name: &str,
        param: &str,
        param_ty: Type,
        ret_ty: Type,
        body: impl Into<Arc<Expr>>,
    ) -> Expr {
        Expr::Fix(Arc::new(FixExpr {
            name: Symbol::new(name),
            param: Symbol::new(param),
            param_ty,
            ret_ty,
            body: body.into(),
        }))
    }

    /// A match expression.
    pub fn match_(scrutinee: Expr, arms: Vec<MatchArm>) -> Expr {
        Expr::Match(Box::new(scrutinee), arms)
    }

    /// A let binding.
    pub fn let_(name: &str, bound: Expr, body: Expr) -> Expr {
        Expr::Let(Symbol::new(name), Box::new(bound), Box::new(body))
    }

    /// A conditional.
    pub fn if_(cond: Expr, then: Expr, els: Expr) -> Expr {
        Expr::If(Box::new(cond), Box::new(then), Box::new(els))
    }

    /// Structural equality.
    pub fn eq(a: Expr, b: Expr) -> Expr {
        Expr::Eq(Box::new(a), Box::new(b))
    }

    /// Conjunction.
    pub fn and(a: Expr, b: Expr) -> Expr {
        Expr::And(Box::new(a), Box::new(b))
    }

    /// Conjunction of arbitrarily many expressions (`True` when empty).
    pub fn and_all(es: impl IntoIterator<Item = Expr>) -> Expr {
        let mut iter = es.into_iter();
        match iter.next() {
            None => Expr::tru(),
            Some(first) => iter.fold(first, Expr::and),
        }
    }

    /// Disjunction.
    pub fn or(a: Expr, b: Expr) -> Expr {
        Expr::Or(Box::new(a), Box::new(b))
    }

    /// Negation.
    #[allow(clippy::should_implement_trait)]
    pub fn not(a: Expr) -> Expr {
        Expr::Not(Box::new(a))
    }

    /// The free variables of the expression.
    pub fn free_vars(&self) -> BTreeSet<Symbol> {
        let mut out = BTreeSet::new();
        self.free_vars_into(&mut BTreeSet::new(), &mut out);
        out
    }

    fn free_vars_into(&self, bound: &mut BTreeSet<Symbol>, out: &mut BTreeSet<Symbol>) {
        match self {
            Expr::Var(x) => {
                if !bound.contains(x) {
                    out.insert(*x);
                }
            }
            // A resolved slot points at a lexical binder by construction.
            Expr::Local(_, _) | Expr::Int(_) => {}
            Expr::Ctor(_, args) | Expr::Tuple(args) => {
                args.iter().for_each(|e| e.free_vars_into(bound, out))
            }
            Expr::Proj(_, e) | Expr::Not(e) => e.free_vars_into(bound, out),
            Expr::App(a, b) | Expr::Eq(a, b) | Expr::And(a, b) | Expr::Or(a, b) => {
                a.free_vars_into(bound, out);
                b.free_vars_into(bound, out);
            }
            Expr::If(c, t, e) => {
                c.free_vars_into(bound, out);
                t.free_vars_into(bound, out);
                e.free_vars_into(bound, out);
            }
            Expr::Lambda(l) => {
                let fresh = bound.insert(l.param);
                l.body.free_vars_into(bound, out);
                if fresh {
                    bound.remove(&l.param);
                }
            }
            Expr::Fix(fx) => {
                let fresh_f = bound.insert(fx.name);
                let fresh_x = bound.insert(fx.param);
                fx.body.free_vars_into(bound, out);
                if fresh_x {
                    bound.remove(&fx.param);
                }
                if fresh_f {
                    bound.remove(&fx.name);
                }
            }
            Expr::Match(scrutinee, arms) => {
                scrutinee.free_vars_into(bound, out);
                for arm in arms {
                    let vars = arm.pattern.bound_vars();
                    let newly: Vec<Symbol> =
                        vars.into_iter().filter(|v| bound.insert(*v)).collect();
                    arm.body.free_vars_into(bound, out);
                    for v in newly {
                        bound.remove(&v);
                    }
                }
            }
            Expr::Let(x, bound_expr, body) => {
                bound_expr.free_vars_into(bound, out);
                let fresh = bound.insert(*x);
                body.free_vars_into(bound, out);
                if fresh {
                    bound.remove(x);
                }
            }
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        crate::pretty::fmt_expr(self, f)
    }
}

impl fmt::Display for Pattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        crate::pretty::fmt_pattern(self, f)
    }
}

/// A top-level `let` binding, possibly recursive and possibly with
/// parameters:
///
/// ```text
/// let rec lookup (l : list) (x : nat) : bool = ...
/// let empty : list = Nil
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TopLet {
    /// Binding name.
    pub name: Symbol,
    /// Whether the binding may refer to itself.
    pub recursive: bool,
    /// Parameters (possibly empty for plain value bindings).
    pub params: Vec<(Symbol, Type)>,
    /// Declared result type (type of the body).
    pub ret_ty: Type,
    /// The body expression.
    pub body: Expr,
}

impl TopLet {
    /// The overall (curried) type of the binding.
    pub fn ty(&self) -> Type {
        Type::arrows(
            self.params.iter().map(|(_, t)| t.clone()),
            self.ret_ty.clone(),
        )
    }

    /// Converts the binding into a single core expression (a chain of lambdas
    /// or a `fix` whose body is a chain of lambdas).
    pub fn to_expr(&self) -> Expr {
        if !self.recursive || self.params.is_empty() {
            // Non-recursive bindings (or parameterless ones, which cannot
            // usefully recurse in a terminating CBV language) are plain
            // lambda chains.
            self.params
                .iter()
                .rev()
                .fold(self.body.clone(), |acc, (p, t)| {
                    Expr::lambda(p.as_str(), t.clone(), acc)
                })
        } else {
            let (first_param, first_ty) = &self.params[0];
            let inner = self.params[1..]
                .iter()
                .rev()
                .fold(self.body.clone(), |acc, (p, t)| {
                    Expr::lambda(p.as_str(), t.clone(), acc)
                });
            let inner_ret = Type::arrows(
                self.params[1..].iter().map(|(_, t)| t.clone()),
                self.ret_ty.clone(),
            );
            Expr::fix(
                self.name.as_str(),
                first_param.as_str(),
                first_ty.clone(),
                inner_ret,
                inner,
            )
        }
    }

    /// Applies the substitution `[t ↦ concrete]` to every type annotation in
    /// the binding (used when elaborating module bodies, where the abstract
    /// type is an alias for the concrete representation type).
    pub fn subst_abstract(&self, concrete: &Type) -> TopLet {
        fn subst_expr(e: &Expr, concrete: &Type) -> Expr {
            match e {
                Expr::Var(_) | Expr::Local(_, _) | Expr::Int(_) => e.clone(),
                Expr::Ctor(c, args) => {
                    Expr::Ctor(*c, args.iter().map(|a| subst_expr(a, concrete)).collect())
                }
                Expr::Tuple(args) => {
                    Expr::Tuple(args.iter().map(|a| subst_expr(a, concrete)).collect())
                }
                Expr::Proj(i, e) => Expr::Proj(*i, Box::new(subst_expr(e, concrete))),
                Expr::App(a, b) => Expr::app(subst_expr(a, concrete), subst_expr(b, concrete)),
                Expr::Lambda(l) => Expr::Lambda(Arc::new(LambdaExpr {
                    param: l.param,
                    param_ty: l.param_ty.subst_abstract(concrete),
                    body: Arc::new(subst_expr(&l.body, concrete)),
                })),
                Expr::Fix(fx) => Expr::Fix(Arc::new(FixExpr {
                    name: fx.name,
                    param: fx.param,
                    param_ty: fx.param_ty.subst_abstract(concrete),
                    ret_ty: fx.ret_ty.subst_abstract(concrete),
                    body: Arc::new(subst_expr(&fx.body, concrete)),
                })),
                Expr::Match(s, arms) => Expr::Match(
                    Box::new(subst_expr(s, concrete)),
                    arms.iter()
                        .map(|arm| {
                            MatchArm::new(arm.pattern.clone(), subst_expr(&arm.body, concrete))
                        })
                        .collect(),
                ),
                Expr::Let(x, bound, body) => Expr::Let(
                    *x,
                    Box::new(subst_expr(bound, concrete)),
                    Box::new(subst_expr(body, concrete)),
                ),
                Expr::If(c, t, e2) => Expr::if_(
                    subst_expr(c, concrete),
                    subst_expr(t, concrete),
                    subst_expr(e2, concrete),
                ),
                Expr::Eq(a, b) => Expr::eq(subst_expr(a, concrete), subst_expr(b, concrete)),
                Expr::And(a, b) => Expr::and(subst_expr(a, concrete), subst_expr(b, concrete)),
                Expr::Or(a, b) => Expr::or(subst_expr(a, concrete), subst_expr(b, concrete)),
                Expr::Not(a) => Expr::not(subst_expr(a, concrete)),
            }
        }
        TopLet {
            name: self.name,
            recursive: self.recursive,
            params: self
                .params
                .iter()
                .map(|(p, t)| (*p, t.subst_abstract(concrete)))
                .collect(),
            ret_ty: self.ret_ty.subst_abstract(concrete),
            body: subst_expr(&self.body, concrete),
        }
    }
}

/// An interface declaration `interface NAME = sig type t val f : ... end`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InterfaceDecl {
    /// The interface name.
    pub name: Symbol,
    /// Operation signatures over the abstract type, in declaration order.
    pub vals: Vec<(Symbol, Type)>,
}

/// A module declaration `module NAME : IFACE = struct type t = ... <lets> end`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModuleDecl {
    /// The module name.
    pub name: Symbol,
    /// Name of the interface it claims to implement.
    pub interface: Symbol,
    /// The concrete representation type bound to `t`.
    pub concrete: Type,
    /// The module operations.
    pub lets: Vec<TopLet>,
}

/// A specification declaration `spec (s : t) (i : nat) = e`.  All parameters
/// are universally quantified; parameters of abstract type are the ones that
/// sufficiency counterexamples project onto (§2.2 of the paper).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecDecl {
    /// The quantified parameters.
    pub params: Vec<(Symbol, Type)>,
    /// The boolean body.
    pub body: Expr,
}

/// A single top-level item of a surface program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Item {
    /// A data type declaration.
    Data(DataDecl),
    /// A top-level (prelude) binding.
    Let(TopLet),
    /// An interface declaration.
    Interface(InterfaceDecl),
    /// A module declaration.
    Module(ModuleDecl),
    /// A specification.
    Spec(SpecDecl),
}

/// A parsed surface program: an ordered list of items.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Program {
    /// The items, in source order.
    pub items: Vec<Item>,
}

impl Program {
    /// All data declarations, in order.
    pub fn data_decls(&self) -> impl Iterator<Item = &DataDecl> {
        self.items.iter().filter_map(|i| match i {
            Item::Data(d) => Some(d),
            _ => None,
        })
    }

    /// All top-level (prelude) bindings, in order.
    pub fn top_lets(&self) -> impl Iterator<Item = &TopLet> {
        self.items.iter().filter_map(|i| match i {
            Item::Let(l) => Some(l),
            _ => None,
        })
    }

    /// The first interface declaration, if any.
    pub fn interface(&self) -> Option<&InterfaceDecl> {
        self.items.iter().find_map(|i| match i {
            Item::Interface(d) => Some(d),
            _ => None,
        })
    }

    /// The first module declaration, if any.
    pub fn module(&self) -> Option<&ModuleDecl> {
        self.items.iter().find_map(|i| match i {
            Item::Module(d) => Some(d),
            _ => None,
        })
    }

    /// The first specification, if any.
    pub fn spec(&self) -> Option<&SpecDecl> {
        self.items.iter().find_map(|i| match i {
            Item::Spec(d) => Some(d),
            _ => None,
        })
    }

    /// Type-checks the data declarations and prelude bindings and builds a
    /// global evaluation environment for them.
    ///
    /// Module, interface and specification items are carried through
    /// untouched; the `hanoi-abstraction` crate elaborates those.
    ///
    /// Prelude bindings are evaluated through the slot-resolution pass
    /// ([`crate::resolve`]), like every expression the interpreter runs.
    pub fn elaborate(&self) -> Result<Elaborated, LangError> {
        let mut tyenv = TypeEnv::new();
        for decl in self.data_decls() {
            tyenv.declare(decl.clone())?;
        }
        // `TypeChecker::new` pre-declares the machine-integer builtins
        // (`iadd`, `ile`, ...); here they also get their host-native *values*
        // bound beneath every prelude binding, so any surface program can use
        // them and user bindings may shadow them.
        let mut checker = TypeChecker::new(&tyenv);
        let mut globals = Env::empty();
        for (name, _, value) in crate::ints::builtins() {
            globals = globals.bind(name, value);
        }
        let mut lets = Vec::new();
        for top in self.top_lets() {
            let expr = top.to_expr();
            let declared = top.ty();
            checker.check_closed(&expr, &declared).map_err(|e| {
                LangError::Type(TypeError::Other(format!(
                    "in top-level binding `{}`: {e}",
                    top.name
                )))
            })?;
            let evaluator = Evaluator::new(&tyenv);
            let mut fuel = Fuel::new(1_000_000);
            let value = evaluator
                .eval_resolved(&globals, &crate::resolve::resolve(&expr), &mut fuel)
                .map_err(LangError::Eval)?;
            globals = globals.bind(top.name, value);
            checker.declare_global(top.name, declared);
            lets.push(top.clone());
        }
        Ok(Elaborated {
            tyenv,
            globals,
            lets,
            program: self.clone(),
        })
    }
}

/// The result of elaborating a surface program's data declarations and
/// prelude bindings.
#[derive(Debug, Clone)]
pub struct Elaborated {
    /// The type environment containing every declared data type.
    pub tyenv: TypeEnv,
    /// The global value environment containing every prelude binding.
    pub globals: Env,
    /// The elaborated prelude bindings, in order.
    pub lets: Vec<TopLet>,
    /// The original surface program.
    pub program: Program,
}

impl Elaborated {
    /// Calls a prelude function by name on the given (already evaluated)
    /// arguments.
    pub fn eval_call(&self, name: &str, args: &[Value]) -> Result<Value, LangError> {
        let evaluator = Evaluator::new(&self.tyenv);
        let f = self.globals.lookup(&Symbol::new(name)).ok_or_else(|| {
            LangError::Eval(crate::error::EvalError::UnboundVariable(Symbol::new(name)))
        })?;
        let mut fuel = Fuel::new(1_000_000);
        evaluator
            .apply_many(f.clone(), args, &mut fuel)
            .map_err(LangError::Eval)
    }

    /// The declared (curried) type of a prelude binding, if present.
    pub fn global_type(&self, name: &str) -> Option<Type> {
        self.lets
            .iter()
            .find(|l| l.name.as_str() == name)
            .map(TopLet::ty)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pattern_bound_vars_in_order() {
        let p = Pattern::ctor("Cons", vec![Pattern::var("hd"), Pattern::var("tl")]);
        let vars = p.bound_vars();
        assert_eq!(vars, vec![Symbol::new("hd"), Symbol::new("tl")]);
    }

    #[test]
    fn free_vars_respect_binders() {
        // fun (x : nat) -> plus x y
        let e = Expr::lambda(
            "x",
            Type::named("nat"),
            Expr::call("plus", [Expr::var("x"), Expr::var("y")]),
        );
        let fv = e.free_vars();
        assert!(fv.contains(&Symbol::new("plus")));
        assert!(fv.contains(&Symbol::new("y")));
        assert!(!fv.contains(&Symbol::new("x")));
    }

    #[test]
    fn free_vars_of_match_and_fix() {
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
        assert!(e.free_vars().is_empty());
    }

    #[test]
    fn top_let_to_expr_builds_fix_for_recursive_functions() {
        let top = TopLet {
            name: Symbol::new("id"),
            recursive: true,
            params: vec![(Symbol::new("x"), Type::named("nat"))],
            ret_ty: Type::named("nat"),
            body: Expr::var("x"),
        };
        match top.to_expr() {
            Expr::Fix(fx) => {
                assert_eq!(fx.name, Symbol::new("id"));
                assert_eq!(fx.ret_ty, Type::named("nat"));
            }
            other => panic!("expected a fix, got {other:?}"),
        }
        assert_eq!(
            top.ty(),
            Type::arrow(Type::named("nat"), Type::named("nat"))
        );
    }

    #[test]
    fn top_let_to_expr_builds_lambdas_for_nonrecursive_functions() {
        let top = TopLet {
            name: Symbol::new("const_true"),
            recursive: false,
            params: vec![(Symbol::new("x"), Type::named("bool"))],
            ret_ty: Type::bool(),
            body: Expr::tru(),
        };
        assert!(matches!(top.to_expr(), Expr::Lambda(_)));
    }

    #[test]
    fn subst_abstract_rewrites_annotations() {
        let top = TopLet {
            name: Symbol::new("insert"),
            recursive: false,
            params: vec![
                (Symbol::new("s"), Type::Abstract),
                (Symbol::new("x"), Type::named("nat")),
            ],
            ret_ty: Type::Abstract,
            body: Expr::var("s"),
        };
        let substituted = top.subst_abstract(&Type::named("list"));
        assert_eq!(substituted.params[0].1, Type::named("list"));
        assert_eq!(substituted.ret_ty, Type::named("list"));
    }

    #[test]
    fn and_all_of_empty_is_true() {
        assert_eq!(Expr::and_all([]), Expr::tru());
    }
}
