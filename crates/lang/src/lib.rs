//! A pure, simply-typed, call-by-value functional language with recursive
//! data types — the substrate on which representation-invariant inference
//! operates.
//!
//! The language mirrors §4.1 of *Data-Driven Inference of Representation
//! Invariants* (Miltner et al., PLDI 2020): programs consist of monomorphic
//! algebraic data type declarations, (recursive) function definitions over
//! those types, a single module declaring an abstract type together with
//! operations over it, and a universally quantified specification.  Numbers
//! are Peano naturals, i.e. just another recursive data type; the numeric
//! workload additionally gets a builtin machine-integer type `int` with
//! `#5` / `#-3` literals and total host-native arithmetic ([`ints`]).
//!
//! The crate provides:
//!
//! * [`ast`] — the surface and core abstract syntax (expressions, patterns,
//!   declarations, whole programs);
//! * [`types`] — types and algebraic data type environments;
//! * [`parser`] — a lexer and recursive-descent parser for the ML-like
//!   surface syntax;
//! * [`typecheck`] — a bidirectional-ish type checker for core expressions;
//! * [`value`] / [`eval`] — runtime values, environments and a fuel-limited
//!   call-by-value interpreter over slot-resolved expressions;
//! * [`resolve`] — the slot-resolution pass that rewrites lexically-bound
//!   variable references to indexed local slots, run once on every
//!   expression before the interpreter sees it;
//! * [`enumerate`] — size-ordered enumeration of first-order values, the
//!   workhorse of the bounded enumerative verifier;
//! * [`termgen`] — size-ordered enumeration of well-typed *terms*, used both
//!   by the synthesizers and by the higher-order-argument generator;
//! * [`pretty`] / [`size`] — pretty-printing and AST-size metrics (the
//!   paper's "Size" column measures invariants in AST nodes);
//! * [`digest`] — stable, interner-independent structural fingerprints of
//!   expressions, values and types, the keys of every disk-persistable cache;
//! * [`parallel`] — deterministic scoped-thread search, map and filter
//!   primitives whose results equal a serial run's;
//! * [`json`] — a dependency-free JSON reader/writer (the build environment
//!   is offline, so `serde` is unavailable), including the structural
//!   encoding of first-order [`value::Value`]s that cache snapshots use.
//!
//! # Example
//!
//! ```
//! use hanoi_lang::parser::parse_program;
//! use hanoi_lang::eval::Evaluator;
//! use hanoi_lang::value::Value;
//!
//! let src = r#"
//!     type nat = O | S of nat
//!     let rec plus (m : nat) (n : nat) : nat =
//!       match m with
//!       | O -> n
//!       | S m2 -> S (plus m2 n)
//!       end
//! "#;
//! let program = parse_program(src).unwrap();
//! let env = program.elaborate().unwrap();
//! let two_plus_one = env.eval_call("plus", &[Value::nat(2), Value::nat(1)]).unwrap();
//! assert_eq!(two_plus_one, Value::nat(3));
//! ```

pub mod ast;
pub mod digest;
pub mod enumerate;
pub mod error;
pub mod eval;
pub mod ints;
pub mod json;
pub mod parallel;
pub mod parser;
pub mod prelude;
pub mod pretty;
pub mod resolve;
pub mod size;
pub mod symbol;
pub mod termgen;
pub mod typecheck;
pub mod types;
pub mod util;
pub mod value;

pub use ast::{Expr, MatchArm, Pattern, Program, TopLet};
pub use error::{EvalError, LangError, ParseError, TypeError};
pub use eval::{Evaluator, Fuel};
pub use symbol::Symbol;
pub use types::{CtorDecl, DataDecl, Type, TypeEnv};
pub use value::{Env, Locals, Value};
