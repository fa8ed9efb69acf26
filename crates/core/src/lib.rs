//! The Hanoi inference algorithm (Figure 4 of the paper), its baselines, and
//! the long-lived engine that serves them.
//!
//! Given a [`hanoi_abstraction::Problem`] — a module, its interface and a
//! specification — inference runs counterexample-guided inductive synthesis
//! to find a *sufficient representation invariant*: a predicate over the
//! concrete representation type that (a) implies the specification and (b) is
//! preserved by every module operation.
//!
//! The key algorithmic idea reproduced here is **visible inductiveness**:
//! each candidate invariant is first *weakened* until no module operation,
//! applied to values already known to be constructible (`V+`), escapes it —
//! such escapes are themselves constructible, so they are added to `V+`
//! without any guessing — and only then is the candidate checked for
//! sufficiency and full inductiveness, whose counterexamples *strengthen* it
//! through `V−`.
//!
//! # Service API
//!
//! The public entry point is the long-lived [`Engine`]: it owns the expensive
//! state worth keeping alive across runs (the verifier's pool caches and the
//! synthesizers' term banks, keyed per problem) and hands out [`Session`]s
//! that run inference against it — warm re-runs, shared baseline banks,
//! [`Engine::run_batch`] batches, streamed [`RunEvent`]s and cooperative
//! [`CancelToken`] cancellation.  Engine-wide settings live in
//! [`EngineConfig`], per-run options in [`RunOptions`].
//!
//! Besides the main algorithm the crate provides the paper's two
//! optimizations (synthesis-result caching and counterexample-list caching,
//! §4.4) and the three comparison modes of §5.5 (∧Str, LinearArbitrary-style,
//! OneShot), all selectable through [`RunOptions`].

#![warn(missing_docs)]

pub mod cancel;
pub mod clc;
pub mod config;
pub mod context;
pub mod engine;
pub mod events;
pub mod modes;
pub mod outcome;
pub mod session;
pub mod stats;

/// The hand-rolled JSON reader/writer (re-exported from
/// [`hanoi_lang::json`], where it moved so the verifier's and synthesizer's
/// warm-start snapshots can use it without depending on this crate).
pub use hanoi_lang::json;

pub use cancel::CancelToken;
pub use config::{ConfigError, EngineConfig, Mode, Optimizations, RunOptions, SynthChoice};
pub use engine::{BatchJob, Engine};
pub use events::{CollectingObserver, RunEvent, RunObserver, RunPhase, SequencedEvent, Sequencer};
pub use outcome::{Outcome, RunResult};
pub use session::Session;
pub use stats::RunStats;
