//! Example-directed synthesis of candidate representation invariants.
//!
//! The inference algorithm treats its synthesizer as a black box satisfying a
//! simple contract (§3.3): given disjoint sets `V+` / `V−` of positive and
//! negative example values of the concrete representation type, return a
//! predicate `τc -> bool` that is `true` on every positive and `false` on
//! every negative example.  The paper instantiates this with Myth [Osera &
//! Zdancewic 2015], a type- and example-directed enumerative synthesizer,
//! lightly adapted (§4.3): results are cached and the example set is closed
//! under subvalues ("trace completeness") before every call.
//!
//! This crate provides:
//!
//! * [`examples::ExampleSet`] — the `V+`/`V−` pair with the trace-completeness
//!   closure;
//! * [`engine`] — the shared search machinery: observational-equivalence
//!   pruned bottom-up term guessing, match refinement and structural
//!   recursion over the concrete data type;
//! * [`myth::MythSynth`] — the Myth-style synthesizer used by default;
//! * [`fold::FoldSynth`] — the prototype synthesizer of §5.4, which first
//!   synthesizes auxiliary catamorphisms (folds) over the representation type
//!   and then reuses the same search, letting it find invariants that need
//!   accumulating helper functions;
//! * [`cache::SynthesisCache`] — synthesis-result caching (§4.4);
//! * [`bank::TermBank`] — the persistent, session-scoped store backing
//!   incremental guessing: memoized signature evaluation keyed by
//!   `(component, argument values)`, signature-column bookkeeping per
//!   example world, and equivalence-class split accounting.

#![warn(missing_docs)]

pub mod arith;
pub mod bank;
pub mod cache;
pub mod engine;
pub mod error;
pub mod examples;
pub mod fold;
pub mod myth;
pub mod traits;

pub use bank::{SynthCounters, TermBank, TermBankStats};
pub use cache::SynthesisCache;
pub use engine::SearchConfig;
pub use error::SynthError;
pub use examples::ExampleSet;
pub use fold::FoldSynth;
pub use myth::MythSynth;
pub use traits::Synthesizer;
