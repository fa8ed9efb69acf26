//! A fuel-limited, call-by-value tree-walking interpreter over slot-resolved
//! expressions.
//!
//! Every expression goes through [`crate::resolve::resolve`] once before it
//! is evaluated: variables bound by an enclosing `fun`/`fix`/`let`/`match`
//! become [`Expr::Local`] slot reads, and only free (global) variables are
//! looked up by name in the [`Env`].  The interpreter never reads a local's
//! name, so α-equivalent expressions evaluate identically.
//!
//! Bound values live on one value stack per evaluation (per call of
//! [`Evaluator::eval_resolved`], [`Evaluator::apply`] or
//! [`Evaluator::apply_many`]).  A function application pushes the frame
//! `[closure?, argument]`, a `let` pushes its value and a matching `match`
//! arm pushes its pattern's bindings; each pops them again on every exit
//! path, errors included.  A slot read below the current frame falls
//! through to the [`Locals`] chain the running closure captured.  Only
//! evaluating a `fun`/`fix` copies the current frame into a persistent
//! [`Locals`] chain, so applying a function, a `let` and a `match` arm
//! allocate nothing.  A saturated call `g a1 a2` of a closure whose body is
//! a `fun` — in an expression, or two arguments of
//! [`Evaluator::apply_many`] — binds `[g?, a1, a2]` as one frame and never
//! builds the intermediate closure; its fuel ticks and depths are those of
//! the curried application, so fuel use and depth-bound errors do not
//! depend on it.
//!
//! The object language itself is intended to be terminating, but the
//! inference loop executes *synthesized* candidate invariants and enumerated
//! higher-order arguments, which may diverge.  Every evaluation therefore
//! carries a [`Fuel`] budget; exhausting it is reported as
//! [`EvalError::OutOfFuel`] and treated by callers as "this candidate
//! misbehaves".

use std::sync::Arc;

use crate::ast::{Expr, Pattern};
use crate::error::EvalError;
use crate::types::TypeEnv;
use crate::value::{Closure, Env, Locals, NativeFn, Slab, Value};

/// A step budget for one evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fuel {
    remaining: u64,
    initial: u64,
}

/// Bound on the depth of nested evaluation (protects the host stack
/// from divergent synthesized candidates before the step budget runs out).
pub const DEFAULT_MAX_DEPTH: u32 = 300;

impl Fuel {
    /// A budget of `n` evaluation steps; nesting is bounded by
    /// [`DEFAULT_MAX_DEPTH`].
    pub fn new(n: u64) -> Fuel {
        Fuel {
            remaining: n,
            initial: n,
        }
    }

    /// The default budget used by most callers (large enough for every
    /// benchmark module operation at the verifier's size bounds).
    pub fn standard() -> Fuel {
        Fuel::new(200_000)
    }

    /// Steps still available.
    pub fn remaining(&self) -> u64 {
        self.remaining
    }

    /// Steps consumed so far.
    pub fn used(&self) -> u64 {
        self.initial - self.remaining
    }

    /// Consumes one step and checks the depth bound.
    fn tick(&mut self, depth: u32) -> Result<(), EvalError> {
        if self.remaining == 0 || depth > DEFAULT_MAX_DEPTH {
            Err(EvalError::OutOfFuel)
        } else {
            self.remaining -= 1;
            Ok(())
        }
    }
}

/// Where an expression's variables live while it runs: globals by name in
/// `env`, the current frame on the value stack from `base` up, and under it
/// the slots the running closure captured in `outer`.
struct Scope<'s> {
    env: &'s Env,
    outer: &'s Locals,
    base: usize,
}

/// Slots reserved on an evaluation's first binding, so that an evaluation
/// whose frames stay this shallow allocates its stack once.
const STACK_CAPACITY: usize = 32;

/// Pushes one bound value onto an evaluation's value stack.
fn bind(stack: &mut Vec<Value>, value: Value) {
    if stack.capacity() == 0 {
        stack.reserve_exact(STACK_CAPACITY);
    }
    stack.push(value);
}

/// Matches `value` against `pattern`, pushing clones of the bound values
/// onto `stack` in [`Pattern::bound_vars`] order (the order the resolution
/// pass numbers slots in).  Returns `false` — with `stack` possibly
/// extended; callers truncate it — when the pattern does not match.
fn bind_pattern(pattern: &Pattern, value: &Value, stack: &mut Vec<Value>) -> bool {
    match (pattern, value) {
        (Pattern::Wildcard, _) => true,
        (Pattern::Var(_), v) => {
            bind(stack, v.clone());
            true
        }
        (Pattern::Ctor(c, ps), Value::Ctor(vc, vs)) if c == vc && ps.len() == vs.len() => ps
            .iter()
            .zip(vs.iter())
            .all(|(p, v)| bind_pattern(p, v, stack)),
        (Pattern::Tuple(ps), Value::Tuple(vs)) if ps.len() == vs.len() => ps
            .iter()
            .zip(vs.iter())
            .all(|(p, v)| bind_pattern(p, v, stack)),
        _ => false,
    }
}

/// The interpreter.
#[derive(Debug, Clone, Copy)]
pub struct Evaluator<'a> {
    tyenv: &'a TypeEnv,
}

impl<'a> Evaluator<'a> {
    /// Creates an interpreter over the given data type environment.
    pub fn new(tyenv: &'a TypeEnv) -> Self {
        Evaluator { tyenv }
    }

    /// The data type environment the interpreter was created with.
    pub fn tyenv(&self) -> &'a TypeEnv {
        self.tyenv
    }

    /// Evaluates a slot-resolved expression (see [`crate::resolve`]) in
    /// `env`, starting from an empty value stack.
    ///
    /// Lexically-bound variables are read from the value stack by index;
    /// only free (global) variables are looked up by name in `env`.
    pub fn eval_resolved(
        &self,
        env: &Env,
        expr: &Expr,
        fuel: &mut Fuel,
    ) -> Result<Value, EvalError> {
        // An unresolved expression evaluated here would silently read
        // same-named *globals* where it meant lexically-bound locals
        // (`let`/`match` never extend `env`).
        debug_assert!(
            crate::resolve::is_resolved(expr),
            "eval_resolved requires a slot-resolved expression \
             (run hanoi_lang::resolve::resolve first)"
        );
        let outer = Locals::empty();
        let scope = Scope {
            env,
            outer: &outer,
            base: 0,
        };
        self.eval_at(&scope, &mut Vec::new(), expr, fuel, 0)
    }

    /// One evaluation step at nesting `depth`: ticks the fuel, then
    /// evaluates every subexpression one level deeper.  Whatever the step
    /// binds on `stack` it pops before returning.
    fn eval_at(
        &self,
        scope: &Scope<'_>,
        stack: &mut Vec<Value>,
        expr: &Expr,
        fuel: &mut Fuel,
        depth: u32,
    ) -> Result<Value, EvalError> {
        fuel.tick(depth)?;
        match expr {
            Expr::Local(slot, x) => {
                let frame = &stack[scope.base..];
                let slot = *slot as usize;
                let value = match slot.checked_sub(frame.len()) {
                    None => Some(&frame[frame.len() - 1 - slot]),
                    Some(captured) => scope.outer.get(captured as u32),
                };
                value.cloned().ok_or(EvalError::UnboundVariable(*x))
            }
            // Free (global) variables are looked up by name.
            Expr::Var(x) => scope
                .env
                .lookup(x)
                .cloned()
                .ok_or(EvalError::UnboundVariable(*x)),
            Expr::Int(i) => Ok(Value::Int(*i)),
            Expr::Ctor(c, args) => {
                if let Some(info) = self.tyenv.ctor(c) {
                    if info.args.len() != args.len() {
                        return Err(EvalError::Other(format!(
                            "constructor `{c}` applied to {} argument(s), expected {}",
                            args.len(),
                            info.args.len()
                        )));
                    }
                }
                let children = children(args, |a| self.eval_at(scope, stack, a, fuel, depth + 1))?;
                Ok(Value::Ctor(*c, children))
            }
            Expr::Tuple(args) => {
                children(args, |a| self.eval_at(scope, stack, a, fuel, depth + 1)).map(Value::Tuple)
            }
            Expr::Proj(i, e) => {
                let v = self.eval_at(scope, stack, e, fuel, depth + 1)?;
                match v {
                    Value::Tuple(items) if *i < items.len() => Ok(items[*i].clone()),
                    other => Err(EvalError::BadProjection(other.to_string())),
                }
            }
            Expr::App(f, arg) => {
                if let Expr::App(g, first) = &**f {
                    return self.eval_spine(scope, stack, [g, first, arg], fuel, depth);
                }
                let fv = self.eval_at(scope, stack, f, fuel, depth + 1)?;
                let av = self.eval_at(scope, stack, arg, fuel, depth + 1)?;
                self.apply_at(fv, av, stack, fuel, depth + 1)
            }
            Expr::Lambda(l) => Ok(Value::Closure(Arc::new(Closure {
                param: l.param,
                body: l.body.clone(),
                env: scope.env.clone(),
                rec_name: None,
                locals: scope.outer.capture(&stack[scope.base..]),
            }))),
            Expr::Fix(fx) => Ok(Value::Closure(Arc::new(Closure {
                param: fx.param,
                body: fx.body.clone(),
                env: scope.env.clone(),
                rec_name: Some(fx.name),
                locals: scope.outer.capture(&stack[scope.base..]),
            }))),
            Expr::Match(scrutinee, arms) => {
                let v = self.eval_at(scope, stack, scrutinee, fuel, depth + 1)?;
                let mark = stack.len();
                for arm in arms {
                    if bind_pattern(&arm.pattern, &v, stack) {
                        let result = self.eval_at(scope, stack, &arm.body, fuel, depth + 1);
                        stack.truncate(mark);
                        return result;
                    }
                    stack.truncate(mark);
                }
                Err(EvalError::MatchFailure(v.to_string()))
            }
            Expr::Let(_, bound, body) => {
                let bv = self.eval_at(scope, stack, bound, fuel, depth + 1)?;
                let mark = stack.len();
                bind(stack, bv);
                let result = self.eval_at(scope, stack, body, fuel, depth + 1);
                stack.truncate(mark);
                result
            }
            Expr::If(cond, then, els) => {
                let cv = self.eval_at(scope, stack, cond, fuel, depth + 1)?;
                match cv.as_bool() {
                    Some(true) => self.eval_at(scope, stack, then, fuel, depth + 1),
                    Some(false) => self.eval_at(scope, stack, els, fuel, depth + 1),
                    None => Err(EvalError::NotABool(cv.to_string())),
                }
            }
            Expr::Eq(a, b) => {
                let av = self.eval_at(scope, stack, a, fuel, depth + 1)?;
                let bv = self.eval_at(scope, stack, b, fuel, depth + 1)?;
                if !av.is_first_order() || !bv.is_first_order() {
                    return Err(EvalError::EqualityOnClosure);
                }
                Ok(Value::bool(av == bv))
            }
            Expr::And(a, b) => {
                let av = self.eval_at(scope, stack, a, fuel, depth + 1)?;
                match av.as_bool() {
                    Some(false) => Ok(Value::fls()),
                    Some(true) => {
                        let bv = self.eval_at(scope, stack, b, fuel, depth + 1)?;
                        bv.as_bool()
                            .map(Value::bool)
                            .ok_or_else(|| EvalError::NotABool(bv.to_string()))
                    }
                    None => Err(EvalError::NotABool(av.to_string())),
                }
            }
            Expr::Or(a, b) => {
                let av = self.eval_at(scope, stack, a, fuel, depth + 1)?;
                match av.as_bool() {
                    Some(true) => Ok(Value::tru()),
                    Some(false) => {
                        let bv = self.eval_at(scope, stack, b, fuel, depth + 1)?;
                        bv.as_bool()
                            .map(Value::bool)
                            .ok_or_else(|| EvalError::NotABool(bv.to_string()))
                    }
                    None => Err(EvalError::NotABool(av.to_string())),
                }
            }
            Expr::Not(a) => {
                let av = self.eval_at(scope, stack, a, fuel, depth + 1)?;
                av.as_bool()
                    .map(|b| Value::bool(!b))
                    .ok_or_else(|| EvalError::NotABool(av.to_string()))
            }
        }
    }

    /// Evaluates `g a1 a2` (the application spine `App(App(g, a1), a2)`
    /// met at `depth`) with [`Evaluator::apply_two`], at the depths the
    /// curried evaluation applies at: `g a1` is evaluated at `depth + 1`,
    /// so it applies at `depth + 2`, and the outer application at
    /// `depth + 1`.  Kept out of line so that [`Evaluator::eval_at`]'s
    /// host-stack frame stays small.
    #[inline(never)]
    fn eval_spine(
        &self,
        scope: &Scope<'_>,
        stack: &mut Vec<Value>,
        [g, a1, a2]: [&Expr; 3],
        fuel: &mut Fuel,
        depth: u32,
    ) -> Result<Value, EvalError> {
        fuel.tick(depth + 1)?;
        let gv = self.eval_at(scope, stack, g, fuel, depth + 2)?;
        // `a1` waits in a local until `a2` is evaluated: on the stack it
        // would shift the slots `a2` reads.
        let first = self.eval_at(scope, stack, a1, fuel, depth + 2)?;
        let second = |stack: &mut Vec<Value>, fuel: &mut Fuel| {
            self.eval_at(scope, stack, a2, fuel, depth + 1)
        };
        self.apply_two(gv, first, second, stack, fuel, [depth + 2, depth + 1])
    }

    /// Applies `g` to `first`, then the result to the value `second`
    /// computes, applying at depths `[inner, outer]`.  When `g` is a
    /// closure whose body is a `fun`, the call binds `[g?, first, second]`
    /// as one frame and runs the inner body: the closure `g first` would
    /// evaluate to is never built.  Every other callee is applied curried.
    ///
    /// Both ways tick the fuel at the same depths in the same order —
    /// applying `g` at `inner`, the `fun` at `inner + 1`, then whatever
    /// `second` ticks, applying to it at `outer`, its body at `outer + 1` —
    /// so fuel use, depth-bound errors and which error a failing call
    /// reports do not depend on the shortcut.
    fn apply_two(
        &self,
        g: Value,
        first: Value,
        second: impl FnOnce(&mut Vec<Value>, &mut Fuel) -> Result<Value, EvalError>,
        stack: &mut Vec<Value>,
        fuel: &mut Fuel,
        [inner, outer]: [u32; 2],
    ) -> Result<Value, EvalError> {
        let saturated = match &g {
            Value::Closure(clo) => match &*clo.body {
                Expr::Lambda(body) => Some((clo, body)),
                _ => None,
            },
            _ => None,
        };
        let Some((clo, body)) = saturated else {
            let fv = self.apply_at(g, first, stack, fuel, inner)?;
            let second = second(stack, fuel)?;
            return self.apply_at(fv, second, stack, fuel, outer);
        };
        fuel.tick(inner)?;
        fuel.tick(inner + 1)?;
        let second = second(stack, fuel)?;
        fuel.tick(outer)?;
        let base = stack.len();
        if clo.rec_name.is_some() {
            bind(stack, g.clone());
        }
        bind(stack, first);
        bind(stack, second);
        self.run_body(clo, &body.body, stack, base, fuel, outer + 1)
    }

    /// Evaluates `body`, a body of `clo`, on the frame bound on `stack`
    /// from `base` up, and pops that frame.
    fn run_body(
        &self,
        clo: &Closure,
        body: &Expr,
        stack: &mut Vec<Value>,
        base: usize,
        fuel: &mut Fuel,
        depth: u32,
    ) -> Result<Value, EvalError> {
        let callee = Scope {
            env: &clo.env,
            outer: &clo.locals,
            base,
        };
        let result = self.eval_at(&callee, stack, body, fuel, depth);
        stack.truncate(base);
        result
    }

    /// Applies a function value to an argument value.
    pub fn apply(&self, f: Value, arg: Value, fuel: &mut Fuel) -> Result<Value, EvalError> {
        self.apply_at(f, arg, &mut Vec::new(), fuel, 0)
    }

    /// Applies `f` to `arg` at nesting `depth`: a closure runs its body on
    /// the frame `[closure?, argument]`, popped again on return.
    fn apply_at(
        &self,
        f: Value,
        arg: Value,
        stack: &mut Vec<Value>,
        fuel: &mut Fuel,
        depth: u32,
    ) -> Result<Value, EvalError> {
        fuel.tick(depth)?;
        match f {
            Value::Closure(clo) => {
                let base = stack.len();
                if clo.rec_name.is_some() {
                    bind(stack, Value::Closure(clo.clone()));
                }
                bind(stack, arg);
                self.run_body(&clo, &clo.body, stack, base, fuel, depth + 1)
            }
            Value::Native(native) => {
                let mut collected = native.collected.clone();
                collected.push(arg);
                if collected.len() >= native.arity {
                    (native.func)(&collected)
                } else {
                    Ok(Value::Native(Arc::new(NativeFn {
                        name: native.name,
                        arity: native.arity,
                        collected,
                        func: native.func.clone(),
                    })))
                }
            }
            other => Err(EvalError::NotAFunction(other.to_string())),
        }
    }

    /// Applies a function value to several arguments in turn.  Arguments
    /// go two at a time, so a closure whose body is a `fun` takes a pair as
    /// one frame, for the fuel applying them one at a time would spend.
    pub fn apply_many(
        &self,
        f: Value,
        args: &[Value],
        fuel: &mut Fuel,
    ) -> Result<Value, EvalError> {
        let mut stack = Vec::new();
        let mut cur = f;
        let mut rest = args;
        while let [first, second, tail @ ..] = rest {
            let second = |_: &mut Vec<Value>, _: &mut Fuel| Ok(second.clone());
            cur = self.apply_two(cur, first.clone(), second, &mut stack, fuel, [0, 0])?;
            rest = tail;
        }
        if let [last] = rest {
            cur = self.apply_at(cur, last.clone(), &mut stack, fuel, 0)?;
        }
        Ok(cur)
    }

    /// Applies a predicate value (of type `σ -> bool`) to an argument.
    pub fn apply_pred(
        &self,
        pred: &Value,
        arg: &Value,
        fuel: &mut Fuel,
    ) -> Result<bool, EvalError> {
        let v = self.apply(pred.clone(), arg.clone(), fuel)?;
        v.as_bool()
            .ok_or_else(|| EvalError::NotABool(v.to_string()))
    }
}

/// Evaluates constructor or tuple arguments left to right into a slab,
/// stopping at the first error.  Up to four children go straight into an
/// exact-size slab (one allocation, none for no children); longer lists are
/// gathered first.
fn children(
    args: &[Expr],
    mut eval: impl FnMut(&Expr) -> Result<Value, EvalError>,
) -> Result<Slab, EvalError> {
    fn exact<const N: usize>(
        args: &[Expr],
        eval: &mut impl FnMut(&Expr) -> Result<Value, EvalError>,
    ) -> Result<Slab, EvalError> {
        let mut failure = None;
        let values: [Value; N] = std::array::from_fn(|i| {
            if failure.is_none() {
                match eval(&args[i]) {
                    Ok(value) => return value,
                    Err(e) => failure = Some(e),
                }
            }
            Value::unit()
        });
        match failure {
            Some(e) => Err(e),
            None => Ok(Slab::from(values)),
        }
    }
    match args.len() {
        0 => Ok(Slab::EMPTY),
        1 => exact::<1>(args, &mut eval),
        2 => exact::<2>(args, &mut eval),
        3 => exact::<3>(args, &mut eval),
        4 => exact::<4>(args, &mut eval),
        _ => args
            .iter()
            .map(eval)
            .collect::<Result<Vec<_>, _>>()
            .map(Slab::from),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::MatchArm;
    use crate::resolve::resolve;
    use crate::types::{CtorDecl, DataDecl, Type};

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

    /// Resolves and evaluates a closed expression.
    fn eval_with(ev: &Evaluator, e: &Expr, fuel: &mut Fuel) -> Result<Value, EvalError> {
        ev.eval_resolved(&Env::empty(), &resolve(e), fuel)
    }

    fn eval_closed(e: &Expr) -> Result<Value, EvalError> {
        let tyenv = tyenv();
        eval_with(&Evaluator::new(&tyenv), e, &mut Fuel::standard())
    }

    /// `plus` as a core expression, used by several tests.
    fn plus_expr() -> Expr {
        Expr::fix(
            "plus",
            "m",
            Type::named("nat"),
            Type::arrow(Type::named("nat"), Type::named("nat")),
            Expr::lambda(
                "n",
                Type::named("nat"),
                Expr::match_(
                    Expr::var("m"),
                    vec![
                        MatchArm::new(Pattern::ctor("O", vec![]), Expr::var("n")),
                        MatchArm::new(
                            Pattern::ctor("S", vec![Pattern::var("m2")]),
                            Expr::ctor(
                                "S",
                                vec![Expr::call("plus", [Expr::var("m2"), Expr::var("n")])],
                            ),
                        ),
                    ],
                ),
            ),
        )
    }

    #[test]
    fn literals_and_tuples() {
        assert_eq!(eval_closed(&Expr::tru()).unwrap(), Value::tru());
        let pair = Expr::Tuple(vec![Expr::ctor("O", vec![]), Expr::tru()]);
        assert_eq!(
            eval_closed(&pair).unwrap(),
            Value::pair(Value::nat(0), Value::tru())
        );
        let proj = Expr::Proj(1, Box::new(pair));
        assert_eq!(eval_closed(&proj).unwrap(), Value::tru());
    }

    #[test]
    fn children_of_every_arity_evaluate_left_to_right() {
        let tyenv = tyenv();
        let ev = Evaluator::new(&tyenv);
        for n in 0..7u64 {
            let items: Vec<Value> = (0..n).map(Value::nat).collect();
            let exprs: Vec<Expr> = items.iter().map(|v| v.to_expr().unwrap()).collect();
            let tuple = Expr::Tuple(exprs.clone());
            assert_eq!(eval_closed(&tuple).unwrap(), Value::tuple_of(items.clone()));
            // The first failing child stops evaluation: the fuel spent is
            // that of the children before it plus the failing lookup.
            for bad in 0..exprs.len() {
                let mut with_ghost = exprs.clone();
                with_ghost[bad] = Expr::var("ghost");
                let prefix = Expr::Tuple(exprs[..bad].to_vec());
                let mut spent = Fuel::standard();
                let mut expected = Fuel::standard();
                let result = eval_with(&ev, &Expr::Tuple(with_ghost), &mut spent);
                assert!(matches!(result, Err(EvalError::UnboundVariable(_))));
                eval_with(&ev, &prefix, &mut expected).unwrap();
                assert_eq!(spent.used(), expected.used() + 1, "n = {n}, bad = {bad}");
            }
        }
    }

    #[test]
    fn recursive_addition() {
        let call = Expr::apps(
            plus_expr(),
            [
                Value::nat(2).to_expr().unwrap(),
                Value::nat(3).to_expr().unwrap(),
            ],
        );
        assert_eq!(eval_closed(&call).unwrap(), Value::nat(5));
    }

    #[test]
    fn let_and_if_and_booleans() {
        let e = Expr::let_(
            "x",
            Expr::tru(),
            Expr::if_(
                Expr::and(Expr::var("x"), Expr::not(Expr::fls())),
                Expr::ctor("O", vec![]),
                Expr::ctor("S", vec![Expr::ctor("O", vec![])]),
            ),
        );
        assert_eq!(eval_closed(&e).unwrap(), Value::nat(0));
    }

    #[test]
    fn structural_equality() {
        let e = Expr::eq(
            Value::nat_list(&[1, 2]).to_expr().unwrap(),
            Value::nat_list(&[1, 2]).to_expr().unwrap(),
        );
        assert_eq!(eval_closed(&e).unwrap(), Value::tru());
        let e = Expr::eq(
            Value::nat_list(&[1]).to_expr().unwrap(),
            Value::nat_list(&[2]).to_expr().unwrap(),
        );
        assert_eq!(eval_closed(&e).unwrap(), Value::fls());
    }

    #[test]
    fn short_circuiting() {
        // False && diverging-ish expression: the right operand would be a
        // match failure if evaluated.
        let bad = Expr::match_(Expr::tru(), vec![]);
        let e = Expr::and(Expr::fls(), bad.clone());
        assert_eq!(eval_closed(&e).unwrap(), Value::fls());
        let e = Expr::or(Expr::tru(), bad);
        assert_eq!(eval_closed(&e).unwrap(), Value::tru());
    }

    #[test]
    fn match_failure_is_reported() {
        let e = Expr::match_(
            Expr::tru(),
            vec![MatchArm::new(Pattern::ctor("False", vec![]), Expr::tru())],
        );
        assert!(matches!(eval_closed(&e), Err(EvalError::MatchFailure(_))));
    }

    #[test]
    fn out_of_fuel_on_divergence() {
        // fix loop (x : nat) : nat = loop x
        let diverge = Expr::fix(
            "loop",
            "x",
            Type::named("nat"),
            Type::named("nat"),
            Expr::call("loop", [Expr::var("x")]),
        );
        let call = Expr::app(diverge, Expr::ctor("O", vec![]));
        let tyenv = tyenv();
        let ev = Evaluator::new(&tyenv);
        let result = eval_with(&ev, &call, &mut Fuel::new(10_000));
        assert_eq!(result, Err(EvalError::OutOfFuel));
    }

    #[test]
    fn apply_many_curries() {
        let tyenv = tyenv();
        let ev = Evaluator::new(&tyenv);
        let plus = eval_with(&ev, &plus_expr(), &mut Fuel::standard()).unwrap();
        let triple = crate::parser::parse_expr("fun (a : nat) (b : nat) (c : nat) -> (c, b, a)");
        let triple = eval_with(&ev, &triple.unwrap(), &mut Fuel::standard()).unwrap();
        let nats = |range: &mut dyn Iterator<Item = u64>| range.map(Value::nat).collect();
        for (f, args, expected) in [
            (plus, vec![Value::nat(4), Value::nat(4)], Value::nat(8)),
            (
                triple,
                nats(&mut (1..=3)),
                Value::tuple_of(nats(&mut (1..=3).rev())),
            ),
        ] {
            // Two arguments at a time or one at a time: the same value for
            // the same fuel.
            let mut many = Fuel::standard();
            assert_eq!(
                ev.apply_many(f.clone(), &args, &mut many),
                Ok(expected.clone())
            );
            let mut curried = Fuel::standard();
            let one_by_one = args
                .iter()
                .try_fold(f, |g, a| ev.apply(g, a.clone(), &mut curried));
            assert_eq!(one_by_one, Ok(expected));
            assert_eq!(many.used(), curried.used());
        }
    }

    #[test]
    fn wrong_ctor_arity_is_a_runtime_error() {
        let e = Expr::ctor("S", vec![]);
        assert!(matches!(eval_closed(&e), Err(EvalError::Other(_))));
    }

    #[test]
    fn unbound_variable() {
        assert!(matches!(
            eval_closed(&Expr::var("ghost")),
            Err(EvalError::UnboundVariable(_))
        ));
    }

    #[test]
    fn fuel_accounting() {
        let mut fuel = Fuel::new(100);
        let tyenv = tyenv();
        let ev = Evaluator::new(&tyenv);
        eval_with(&ev, &Expr::tru(), &mut fuel).unwrap();
        assert!(fuel.used() >= 1);
        assert!(fuel.remaining() < 100);
    }

    /// The body a `fun`/`fix` node hands to the closures it evaluates to.
    fn node_body(e: &Expr) -> &Arc<Expr> {
        match e {
            Expr::Lambda(l) => &l.body,
            Expr::Fix(fx) => &fx.body,
            other => panic!("expected a fun or fix, got {other:?}"),
        }
    }

    fn closure_body(v: &Value) -> &Arc<Expr> {
        match v {
            Value::Closure(clo) => &clo.body,
            other => panic!("expected a closure, got {other:?}"),
        }
    }

    #[test]
    fn closures_share_their_body_with_the_ast_node() {
        let tyenv = tyenv();
        let ev = Evaluator::new(&tyenv);
        let identity = Expr::lambda("x", Type::named("nat"), Expr::var("x"));
        for e in [identity, plus_expr()] {
            let resolved = resolve(&e);
            for _ in 0..2 {
                let closure = ev
                    .eval_resolved(&Env::empty(), &resolved, &mut Fuel::standard())
                    .unwrap();
                assert!(Arc::ptr_eq(closure_body(&closure), node_body(&resolved)));
            }
        }
    }

    #[test]
    fn applying_a_lowered_let_rec_shares_the_inner_body() {
        // `let rec plus (m) (n) = ...` lowers to `fix plus m = fun n -> ...`;
        // applying it to `m` yields the inner lambda's body, not a copy.
        let program = crate::parser::parse_program(
            "let rec plus (m : nat) (n : nat) : nat =
               match m with
               | O -> n
               | S m2 -> S (plus m2 n)
               end",
        )
        .unwrap();
        let tyenv = tyenv();
        let ev = Evaluator::new(&tyenv);
        let resolved = resolve(&program.top_lets().next().unwrap().to_expr());
        let fix = ev
            .eval_resolved(&Env::empty(), &resolved, &mut Fuel::standard())
            .unwrap();
        let inner = node_body(node_body(&resolved));
        for _ in 0..2 {
            let partial = ev
                .apply(fix.clone(), Value::nat(1), &mut Fuel::standard())
                .unwrap();
            assert!(Arc::ptr_eq(closure_body(&partial), inner));
        }
    }

    /// Runs `f` on a thread with a 2 MiB stack, the size of a spawned
    /// worker's, so a recursion that outgrows it aborts the process.
    fn on_small_stack<T: Send>(f: impl FnOnce() -> T + Send) -> T {
        std::thread::scope(|scope| {
            std::thread::Builder::new()
                .stack_size(2 << 20)
                .spawn_scoped(scope, f)
                .unwrap()
                .join()
                .unwrap()
        })
    }

    #[test]
    fn divergence_through_a_right_operand_runs_out_of_fuel() {
        // `fix f (x : bool) : bool = <op>` recursing through the right
        // operand of `==`, `&&` and `||`, and the two-argument
        // `fix f (x : bool) = fun (y : bool) -> f x y` called saturated:
        // the depth bound must trip before the host stack overflows,
        // whatever the step budget.  The fuel spent on the way is pinned to
        // that of plain curried application.
        let call = Expr::call("f", [Expr::var("x")]);
        let one_argument = |body: Expr| {
            let diverge = Expr::fix("f", "x", Type::bool(), Type::bool(), body);
            Expr::app(diverge, Expr::tru())
        };
        let two_arguments = Expr::apps(
            Expr::fix(
                "f",
                "x",
                Type::bool(),
                Type::arrow(Type::bool(), Type::bool()),
                Expr::lambda(
                    "y",
                    Type::bool(),
                    Expr::call("f", [Expr::var("x"), Expr::var("y")]),
                ),
            ),
            [Expr::tru(), Expr::tru()],
        );
        for (applied, expected_used) in [
            (one_argument(Expr::eq(Expr::tru(), call.clone())), 601),
            (one_argument(Expr::and(Expr::tru(), call.clone())), 601),
            (one_argument(Expr::or(Expr::fls(), call.clone())), 601),
            (two_arguments, 1197),
        ] {
            let (result, used) = on_small_stack(|| {
                let tyenv = tyenv();
                let mut fuel = Fuel::standard();
                let result = eval_with(&Evaluator::new(&tyenv), &applied, &mut fuel);
                (result, fuel.used())
            });
            assert_eq!(result, Err(EvalError::OutOfFuel), "{applied}");
            assert_eq!(used, expected_used, "{applied}");
        }
    }
}
