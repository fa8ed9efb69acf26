//! Slot resolution: rewriting lexically-bound variable references to
//! de-Bruijn-style local-slot indices.
//!
//! This pass runs once per expression, before the interpreter
//! ([`Evaluator::eval_resolved`](crate::eval::Evaluator::eval_resolved))
//! sees it, and rewrites each variable reference that is bound by an
//! enclosing `fun`/`fix`/`let`/`match` binder into
//! [`Expr::Local`]`(slot, name)`, where `slot` counts the values bound
//! between the use and its binder.  The interpreter services those
//! references with a direct indexed read — from its value stack, or below
//! the current frame from the [`Locals`](crate::value::Locals) chain the
//! running closure captured; free (global) variables stay [`Expr::Var`] and
//! are looked up by name in the [`Env`](crate::value::Env).  The name a
//! `Local` carries is for display and error messages only.
//!
//! Slot numbering mirrors the order in which the interpreter binds values:
//!
//! * applying a non-recursive closure binds `[argument]`;
//! * applying a recursive closure binds `[closure, argument]`;
//! * `let x = e1 in e2` binds `[value of e1]` around `e2`;
//! * a `match` arm binds all of its pattern's bound values in
//!   [`Pattern::bound_vars`](crate::ast::Pattern::bound_vars) order.
//!
//! A saturated two-argument call binds `[closure?, a1, a2]` at once, which
//! is the same numbering as applying the outer closure and then the `fun`
//! it returns.
//!
//! Resolution is idempotent and leaves the printed form unchanged.

use std::sync::Arc;

use crate::ast::{Expr, FixExpr, LambdaExpr, MatchArm, Pattern};
use crate::symbol::Symbol;

/// The stack of binder frames in scope, mirroring the values the
/// interpreter will bind at run time.
#[derive(Debug, Default)]
struct Frames {
    frames: Vec<Vec<Symbol>>,
}

impl Frames {
    /// The slot index of `name`, if lexically bound: the number of values
    /// bound more recently than it.
    fn slot_of(&self, name: &Symbol) -> Option<u32> {
        let mut distance = 0u32;
        for frame in self.frames.iter().rev() {
            for bound in frame.iter().rev() {
                if bound == name {
                    return Some(distance);
                }
                distance += 1;
            }
        }
        None
    }
}

/// Rewrites every lexically-bound variable reference in `expr` (a closed
/// expression, or one whose free variables live in a global environment) to a
/// slot reference.  Free variables are left as [`Expr::Var`].
pub fn resolve(expr: &Expr) -> Expr {
    resolve_in(&mut Frames::default(), expr)
}

fn resolve_in(frames: &mut Frames, expr: &Expr) -> Expr {
    match expr {
        Expr::Var(x) => match frames.slot_of(x) {
            Some(slot) => Expr::Local(slot, *x),
            None => expr.clone(),
        },
        // Already resolved (resolution is idempotent).
        Expr::Local(_, _) => expr.clone(),
        Expr::Int(_) => expr.clone(),
        Expr::Ctor(c, args) => Expr::Ctor(*c, args.iter().map(|a| resolve_in(frames, a)).collect()),
        Expr::Tuple(args) => Expr::Tuple(args.iter().map(|a| resolve_in(frames, a)).collect()),
        Expr::Proj(i, e) => Expr::Proj(*i, Box::new(resolve_in(frames, e))),
        Expr::App(f, a) => Expr::app(resolve_in(frames, f), resolve_in(frames, a)),
        Expr::Lambda(l) => {
            frames.frames.push(vec![l.param]);
            let body = resolve_in(frames, &l.body);
            frames.frames.pop();
            Expr::Lambda(Arc::new(LambdaExpr {
                param: l.param,
                param_ty: l.param_ty.clone(),
                body: Arc::new(body),
            }))
        }
        Expr::Fix(fx) => {
            // Application pushes [closure, argument]: the argument is the
            // newer slot.
            frames.frames.push(vec![fx.name, fx.param]);
            let body = resolve_in(frames, &fx.body);
            frames.frames.pop();
            Expr::Fix(Arc::new(FixExpr {
                name: fx.name,
                param: fx.param,
                param_ty: fx.param_ty.clone(),
                ret_ty: fx.ret_ty.clone(),
                body: Arc::new(body),
            }))
        }
        Expr::Match(scrutinee, arms) => {
            let scrutinee = resolve_in(frames, scrutinee);
            let arms = arms
                .iter()
                .map(|arm| {
                    frames.frames.push(arm.pattern.bound_vars());
                    let body = resolve_in(frames, &arm.body);
                    frames.frames.pop();
                    MatchArm::new(arm.pattern.clone(), body)
                })
                .collect();
            Expr::Match(Box::new(scrutinee), arms)
        }
        Expr::Let(x, bound, body) => {
            let bound = resolve_in(frames, bound);
            frames.frames.push(vec![*x]);
            let body = resolve_in(frames, body);
            frames.frames.pop();
            Expr::Let(*x, Box::new(bound), Box::new(body))
        }
        Expr::If(c, t, e) => Expr::if_(
            resolve_in(frames, c),
            resolve_in(frames, t),
            resolve_in(frames, e),
        ),
        Expr::Eq(a, b) => Expr::eq(resolve_in(frames, a), resolve_in(frames, b)),
        Expr::And(a, b) => Expr::and(resolve_in(frames, a), resolve_in(frames, b)),
        Expr::Or(a, b) => Expr::or(resolve_in(frames, a), resolve_in(frames, b)),
        Expr::Not(a) => Expr::not(resolve_in(frames, a)),
    }
}

/// Whether `expr` is slot-resolved, that is a fixed point of [`resolve`]:
/// no variable it reads by name is bound by one of its own binders.  The
/// walk allocates nothing, so the interpreter can assert it on every entry.
pub fn is_resolved(expr: &Expr) -> bool {
    /// The binders enclosing a subexpression, innermost first, each as the
    /// patterns whose variables it binds.
    struct Scope<'a> {
        binders: &'a [Pattern],
        outer: Option<&'a Scope<'a>>,
    }
    fn binds(pattern: &Pattern, x: &Symbol) -> bool {
        match pattern {
            Pattern::Wildcard => false,
            Pattern::Var(y) => y == x,
            Pattern::Ctor(_, ps) | Pattern::Tuple(ps) => ps.iter().any(|p| binds(p, x)),
        }
    }
    fn bound(scope: Option<&Scope>, x: &Symbol) -> bool {
        scope.is_some_and(|s| s.binders.iter().any(|p| binds(p, x)) || bound(s.outer, x))
    }
    fn under(binders: &[Pattern], scope: Option<&Scope>, body: &Expr) -> bool {
        check(
            body,
            Some(&Scope {
                binders,
                outer: scope,
            }),
        )
    }
    fn check(expr: &Expr, scope: Option<&Scope>) -> bool {
        match expr {
            Expr::Var(x) => !bound(scope, x),
            Expr::Local(_, _) | Expr::Int(_) => true,
            Expr::Ctor(_, args) | Expr::Tuple(args) => args.iter().all(|a| check(a, scope)),
            Expr::Proj(_, e) | Expr::Not(e) => check(e, scope),
            Expr::App(a, b) | Expr::Eq(a, b) | Expr::And(a, b) | Expr::Or(a, b) => {
                check(a, scope) && check(b, scope)
            }
            Expr::If(c, t, e) => check(c, scope) && check(t, scope) && check(e, scope),
            Expr::Lambda(l) => under(&[Pattern::Var(l.param)], scope, &l.body),
            Expr::Fix(fx) => under(
                &[Pattern::Var(fx.name), Pattern::Var(fx.param)],
                scope,
                &fx.body,
            ),
            Expr::Let(x, bound, body) => {
                check(bound, scope) && under(&[Pattern::Var(*x)], scope, body)
            }
            Expr::Match(scrutinee, arms) => {
                check(scrutinee, scope)
                    && arms
                        .iter()
                        .all(|arm| under(std::slice::from_ref(&arm.pattern), scope, &arm.body))
            }
        }
    }
    check(expr, None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Type;

    #[test]
    fn lambda_params_resolve_to_slot_zero() {
        let e = Expr::lambda("x", Type::named("nat"), Expr::var("x"));
        match resolve(&e) {
            Expr::Lambda(l) => assert_eq!(*l.body, Expr::Local(0, Symbol::new("x"))),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn fix_binds_name_below_param() {
        // fix f (x : nat) : nat = f x  — application pushes [f, x], so `x`
        // is slot 0 and `f` is slot 1.
        let e = Expr::fix(
            "f",
            "x",
            Type::named("nat"),
            Type::named("nat"),
            Expr::call("f", [Expr::var("x")]),
        );
        match resolve(&e) {
            Expr::Fix(fx) => {
                assert_eq!(
                    *fx.body,
                    Expr::app(
                        Expr::Local(1, Symbol::new("f")),
                        Expr::Local(0, Symbol::new("x"))
                    )
                );
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn match_arms_use_bound_var_order_and_shadowing_wins() {
        // fun (l : list) -> match l with Cons (hd, tl) -> hd | Nil -> l end
        let e = Expr::lambda(
            "l",
            Type::named("list"),
            Expr::match_(
                Expr::var("l"),
                vec![
                    MatchArm::new(
                        Pattern::ctor("Cons", vec![Pattern::var("hd"), Pattern::var("tl")]),
                        Expr::Tuple(vec![Expr::var("hd"), Expr::var("tl"), Expr::var("l")]),
                    ),
                    MatchArm::new(Pattern::ctor("Nil", vec![]), Expr::var("l")),
                ],
            ),
        );
        match resolve(&e) {
            Expr::Lambda(l) => match &*l.body {
                Expr::Match(scrutinee, arms) => {
                    assert_eq!(**scrutinee, Expr::Local(0, Symbol::new("l")));
                    // Arm 1 pushes [hd, tl]: tl is slot 0, hd is slot 1, and
                    // the lambda's `l` moves out to slot 2.
                    assert_eq!(
                        arms[0].body,
                        Expr::Tuple(vec![
                            Expr::Local(1, Symbol::new("hd")),
                            Expr::Local(0, Symbol::new("tl")),
                            Expr::Local(2, Symbol::new("l")),
                        ])
                    );
                    // Arm 2 binds nothing: `l` stays slot 0.
                    assert_eq!(arms[1].body, Expr::Local(0, Symbol::new("l")));
                }
                other => panic!("unexpected body {other:?}"),
            },
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn free_variables_stay_by_name() {
        let e = Expr::lambda(
            "x",
            Type::named("nat"),
            Expr::call("plus", [Expr::var("x"), Expr::var("x")]),
        );
        match resolve(&e) {
            Expr::Lambda(l) => match &*l.body {
                Expr::App(inner, arg) => {
                    assert_eq!(**arg, Expr::Local(0, Symbol::new("x")));
                    match &**inner {
                        Expr::App(f, _) => assert_eq!(**f, Expr::var("plus")),
                        other => panic!("unexpected {other:?}"),
                    }
                }
                other => panic!("unexpected body {other:?}"),
            },
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn let_binding_shifts_outer_slots() {
        // fun x -> let y = x in (x, y)
        let e = Expr::lambda(
            "x",
            Type::named("nat"),
            Expr::let_(
                "y",
                Expr::var("x"),
                Expr::Tuple(vec![Expr::var("x"), Expr::var("y")]),
            ),
        );
        match resolve(&e) {
            Expr::Lambda(l) => match &*l.body {
                Expr::Let(_, bound, body) => {
                    assert_eq!(**bound, Expr::Local(0, Symbol::new("x")));
                    assert_eq!(
                        **body,
                        Expr::Tuple(vec![
                            Expr::Local(1, Symbol::new("x")),
                            Expr::Local(0, Symbol::new("y")),
                        ])
                    );
                }
                other => panic!("unexpected body {other:?}"),
            },
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn resolution_is_idempotent_and_display_preserving() {
        let e = Expr::lambda(
            "x",
            Type::named("nat"),
            Expr::let_("y", Expr::var("x"), Expr::var("y")),
        );
        let once = resolve(&e);
        assert_eq!(resolve(&once), once);
        assert!(is_resolved(&once) && !is_resolved(&e));
        assert_eq!(format!("{e}"), format!("{once}"));
    }
}
