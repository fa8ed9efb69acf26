//! The verifier: size-bounded enumerative testing (§4.3) and the
//! conditional-inductiveness checker of Figure 3, with counterexample
//! extraction.
//!
//! The paper's `Verify` component is deliberately *unsound*: it tests
//! predicates on all data structures from smallest to largest up to fixed
//! bounds (3000 structures of at most 30 AST nodes for single-quantifier
//! properties; 3000 structures of at most 15 nodes per quantifier and 30000
//! tuples in total for multi-quantifier properties), short-circuiting as soon
//! as a counterexample is found.  Despite the unsoundness, the paper reports
//! that every invariant inferred on the benchmark suite is correct; our
//! reproduction keeps the same design and the same defaults.
//!
//! [`Verifier`] provides the checks the inference modes make:
//!
//! * **sufficiency** (`Suf φ M [I]`, Definition 3.4) — every tuple of spec
//!   arguments whose abstract-type components satisfy the candidate invariant
//!   must satisfy the specification;
//! * **visible inductiveness** (`CondInductive V+ I`) — module operations
//!   applied to known-constructible values from `V+` must produce values
//!   satisfying the candidate;
//! * **full inductiveness** (`CondInductive I I`) — module operations applied
//!   to *any* enumerated value satisfying the candidate must produce values
//!   satisfying the candidate;
//! * **per-operation inductiveness** — full inductiveness of one module
//!   operation, which the LinearArbitrary baseline (§5.5) checks one
//!   operation at a time.
//!
//! These are the only conditional-inductiveness checks the algorithm makes:
//! the conditioning set `P` is either `V+` or the candidate itself, never an
//! unrelated predicate.  Each check goes through one path: the verifier
//! names it, the [`CheckCache`] answers it when it holds the outcome, and
//! otherwise its sweep ([`tester`] for sufficiency, [`inductive`] for the
//! rest) runs.
//!
//! Higher-order operations are handled per §4.2: functional arguments are
//! enumerated as small lambda terms and wrapped in logging contracts so that
//! abstract-type values crossing the module boundary contribute to the
//! counterexample sets.
//!
//! Every check accepts a `parallelism` knob (see
//! [`Verifier::with_parallelism`]): candidate×value work is chunked over a
//! scoped thread pool ([`hanoi_lang::parallel`]), short-circuiting on the
//! first counterexample while keeping counterexample selection
//! deterministic — the reported counterexample is always the least tuple
//! under the enumeration order, regardless of which worker finds one first,
//! so parallel runs are outcome-identical to serial runs.

#![warn(missing_docs)]

pub mod bounds;
pub mod checkcache;
pub mod hof;
pub mod inductive;
pub mod outcome;
pub mod poolcache;
pub mod pools;
pub mod tester;
pub mod verifier;

pub use bounds::{Deadline, VerifierBounds};
pub use checkcache::{CheckCache, CheckCacheStats};
pub use outcome::{
    InductivenessCex, InductivenessOutcome, SufficiencyCex, SufficiencyOutcome, VerifierError,
};
pub use poolcache::{PoolCache, PoolCacheStats};
pub use verifier::Verifier;
