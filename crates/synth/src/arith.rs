//! Bounded linear-arithmetic atoms for the numeric invariant workload.
//!
//! The base grammar of [`crate::engine::Engine`] knows nothing about
//! integers: its atoms are the problem's own components plus structural
//! equality.  For modules whose representation carries machine integers
//! (counters, ranges, trace-derived state), this module widens the grammar
//! with a small, *bounded* family of arithmetic components in the style of
//! linear integer arithmetic templates:
//!
//! * the integer builtins themselves (`iadd`, `isub`, `imul`, `imod`,
//!   `ile`, `ilt`) as passthrough components;
//! * combination atoms `lin{a}_{b} x y = a*x + b*y` for small coprime
//!   coefficient pairs (negative coefficients spell `n`, e.g. `lin1_n1` for
//!   `x - y`), so inequalities such as `x - y <= c` fit inside the guess
//!   size budget;
//! * residue atoms `imod{m} x = x mod m` for a fixed set of small moduli,
//!   covering parity/congruence invariants.
//!
//! Every component is tagged [`crate::engine::ExtraComponent::arith`], so
//! enumeration of the numeric grammar is observable as
//! [`crate::bank::SynthCounters::arith_atoms`].  Alongside the components,
//! [`literal_pool`] supplies the integer constants the search may use as
//! size-1 terms ([`crate::engine::SearchConfig::int_literals`]).
//!
//! All coefficient and constant ranges are deliberately small — the paper's
//! synthesizer succeeds by keeping the per-size term layers tractable, and
//! each extra component multiplies the application frontier.

use hanoi_lang::ast::Expr;
use hanoi_lang::error::EvalError;
use hanoi_lang::ints;
use hanoi_lang::symbol::Symbol;
use hanoi_lang::types::Type;
use hanoi_lang::value::Value;

use crate::engine::ExtraComponent;

/// Bounds of the numeric grammar: how far the coefficient, constant and
/// modulus families reach.  The defaults keep the component roster at a
/// dozen-odd entries, which the benchmark suite's guess sizes tolerate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArithBounds {
    /// Largest absolute coefficient in a `lin{a}_{b}` combination atom.
    pub coeff_bound: i64,
    /// Largest absolute integer literal seeded into the term pool.
    pub const_bound: i64,
    /// Moduli of the residue atoms `imod{m}`.
    pub moduli: Vec<i64>,
}

impl Default for ArithBounds {
    fn default() -> Self {
        ArithBounds {
            coeff_bound: 2,
            const_bound: 4,
            moduli: vec![2, 3],
        }
    }
}

fn want_int(v: &Value, op: &str) -> Result<i64, EvalError> {
    v.as_int()
        .ok_or_else(|| EvalError::Other(format!("arith atom `{op}` expects an int, found {v}")))
}

/// Spells a coefficient inside a component name: identifiers cannot contain
/// `-`, so negative coefficients get an `n` prefix (`-1` → `n1`).
fn coeff_name(c: i64) -> String {
    if c < 0 {
        format!("n{}", -c)
    } else {
        c.to_string()
    }
}

fn gcd(a: i64, b: i64) -> i64 {
    let (mut a, mut b) = (a.abs(), b.abs());
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// The definition `fun (x : int) -> fun (y : int) -> iadd (imul #a x)
/// (imul #b y)` — what the synthesized invariant closes over, so it stays a
/// self-contained expression of the core language.
fn lin_definition(a: i64, b: i64) -> Expr {
    let term = |c: i64, var: &str| Expr::call("imul", [Expr::Int(c), Expr::var(var)]);
    Expr::lambda(
        "x",
        Type::int(),
        Expr::lambda(
            "y",
            Type::int(),
            Expr::call("iadd", [term(a, "x"), term(b, "y")]),
        ),
    )
}

/// The linear-arithmetic component roster for `bounds`, in a fixed
/// deterministic order.  Each component's native value computes exactly what
/// its definition evaluates to (wrapping arithmetic, total modulus), so
/// signature rows built from the value agree with the verifier's evaluation
/// of the assembled invariant.
pub fn components(bounds: &ArithBounds) -> Vec<ExtraComponent> {
    let mut out = Vec::new();

    // The integer builtins as passthrough components: the definition is just
    // the global name, so `let iadd = iadd in …` wrappers in assembled
    // invariants re-bind the builtin that every elaborated program provides.
    for (name, ty, value) in ints::builtins() {
        if !matches!(
            name.as_str(),
            "iadd" | "isub" | "imul" | "imod" | "ile" | "ilt"
        ) {
            continue;
        }
        out.push(ExtraComponent {
            definition: Expr::Var(name),
            name,
            ty,
            value,
            arith: true,
        });
    }

    // Combination atoms `a*x + b*y` for canonical coefficient pairs: a
    // positive, b nonzero, the pair coprime, and the plain sum/difference
    // skipped (those are `iadd`/`isub` verbatim).
    let k = bounds.coeff_bound;
    for a in 1..=k {
        for b in -k..=k {
            if b == 0 || gcd(a, b) != 1 || (a == 1 && (b == 1 || b == -1)) {
                continue;
            }
            let name = format!("lin{}_{}", coeff_name(a), coeff_name(b));
            let value = Value::native(&name, 2, move |args| {
                let x = want_int(&args[0], "lin")?;
                let y = want_int(&args[1], "lin")?;
                Ok(Value::int(
                    a.wrapping_mul(x).wrapping_add(b.wrapping_mul(y)),
                ))
            });
            out.push(ExtraComponent {
                name: Symbol::new(&name),
                ty: Type::arrow(Type::int(), Type::arrow(Type::int(), Type::int())),
                value,
                definition: lin_definition(a, b),
                arith: true,
            });
        }
    }

    // Residue atoms `x mod m` (same total `rem_euclid` semantics as the
    // `imod` builtin).
    for &m in &bounds.moduli {
        let name = format!("imod{m}");
        let value = Value::native(&name, 1, move |args| {
            let x = want_int(&args[0], "imod")?;
            Ok(Value::int(if m == 0 { 0 } else { x.rem_euclid(m) }))
        });
        out.push(ExtraComponent {
            name: Symbol::new(&name),
            ty: Type::arrow(Type::int(), Type::int()),
            value,
            definition: Expr::lambda(
                "x",
                Type::int(),
                Expr::call("imod", [Expr::var("x"), Expr::Int(m)]),
            ),
            arith: true,
        });
    }

    out
}

/// The integer literals seeded as size-1 terms under `bounds`:
/// `-const_bound ..= const_bound`, in ascending order.
pub fn literal_pool(bounds: &ArithBounds) -> Vec<i64> {
    (-bounds.const_bound..=bounds.const_bound).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hanoi_lang::ast::Program;
    use hanoi_lang::eval::{Evaluator, Fuel};
    use hanoi_lang::types::TypeEnv;

    #[test]
    fn roster_is_deterministic_and_canonical() {
        let bounds = ArithBounds::default();
        let a = components(&bounds);
        let b = components(&bounds);
        let names: Vec<&str> = a.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, b.iter().map(|c| c.name.as_str()).collect::<Vec<_>>());
        // Builtins, four canonical coefficient pairs at bound 2, two moduli.
        assert_eq!(
            names,
            [
                "iadd", "isub", "imul", "imod", "ile", "ilt", "lin1_n2", "lin1_2", "lin2_n1",
                "lin2_1", "imod2", "imod3",
            ]
        );
        assert!(a.iter().all(|c| c.arith));
        assert_eq!(literal_pool(&bounds), vec![-4, -3, -2, -1, 0, 1, 2, 3, 4]);
    }

    #[test]
    fn native_values_agree_with_definitions() {
        // The engine evaluates the *value*; the verifier evaluates the
        // *definition* inside the assembled invariant.  They must agree on
        // every input, including the wrapping and total-modulus edge cases.
        let elaborated = Program::default().elaborate().unwrap();
        let tyenv = TypeEnv::new();
        let evaluator = Evaluator::new(&tyenv);
        let probes = [-7i64, -2, -1, 0, 1, 2, 3, 64, i64::MAX, i64::MIN];
        for component in components(&ArithBounds::default()) {
            let arity = component.ty.uncurry().0.len();
            let definition_value = evaluator
                .eval_resolved(
                    &elaborated.globals,
                    &hanoi_lang::resolve::resolve(&component.definition),
                    &mut Fuel::new(10_000),
                )
                .expect("definition evaluates");
            for &x in &probes {
                let args: Vec<Value> = match arity {
                    1 => vec![Value::int(x)],
                    _ => vec![Value::int(x), Value::int(x.wrapping_add(3))],
                };
                let via_value = evaluator
                    .apply_many(component.value.clone(), &args, &mut Fuel::new(10_000))
                    .ok();
                let via_definition = evaluator
                    .apply_many(definition_value.clone(), &args, &mut Fuel::new(10_000))
                    .ok();
                assert_eq!(
                    via_value, via_definition,
                    "component {} disagrees on {args:?}",
                    component.name
                );
            }
        }
    }

    #[test]
    fn definitions_typecheck_against_the_builtin_globals() {
        use hanoi_lang::typecheck::TypeChecker;
        let tyenv = TypeEnv::new();
        let checker = TypeChecker::new(&tyenv);
        for component in components(&ArithBounds::default()) {
            checker
                .check_closed(&component.definition, &component.ty)
                .unwrap_or_else(|e| panic!("component {} fails typecheck: {e}", component.name));
        }
    }
}
