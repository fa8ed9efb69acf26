//! Inference sessions: runs of one problem against a long-lived
//! [`Engine`]'s warm caches.

use hanoi_abstraction::Problem;
use hanoi_lang::util::{CancelToken, Deadline};
use hanoi_verifier::Verifier;
use std::sync::Arc;

use crate::config::{Mode, RunOptions};
use crate::context::InferenceContext;
use crate::engine::{Engine, ProblemCaches};
use crate::events::RunObserver;
use crate::modes;
use crate::outcome::{Outcome, RunResult};
use crate::stats::RunStats;

/// A handle for running inference on one problem through an [`Engine`].
///
/// The session borrows the engine's per-problem caches: every run it
/// executes shares the problem's verifier pool cache and — per synthesizer
/// back end — one persistent term bank.  In particular the driver's
/// synthesizer and the OneShot baseline share a bank within (and across)
/// sessions, so the baseline no longer rebuilds signature columns the main
/// algorithm already paid for.
///
/// Runs accept an optional [`RunObserver`] (streamed [`crate::RunEvent`]s)
/// and an optional [`CancelToken`] (cooperative cancellation); see
/// [`Session::run_with`].
#[derive(Debug)]
pub struct Session<'e, 'p> {
    engine: &'e Engine,
    problem: &'p Problem,
    caches: Arc<ProblemCaches>,
}

impl<'e, 'p> Session<'e, 'p> {
    pub(crate) fn new(
        engine: &'e Engine,
        problem: &'p Problem,
        caches: Arc<ProblemCaches>,
    ) -> Self {
        Session {
            engine,
            problem,
            caches,
        }
    }

    /// The engine this session runs against.
    pub fn engine(&self) -> &'e Engine {
        self.engine
    }

    /// The problem this session runs inference on.
    pub fn problem(&self) -> &'p Problem {
        self.problem
    }

    #[cfg(test)]
    pub(crate) fn caches(&self) -> &Arc<ProblemCaches> {
        &self.caches
    }

    /// Runs inference to completion (or timeout) with the given options.
    pub fn run(&self, options: &RunOptions) -> RunResult {
        self.run_with(options, None, None)
    }

    /// Runs inference, streaming [`crate::RunEvent`]s to `observer`.
    pub fn run_observed(&self, options: &RunOptions, observer: &mut dyn RunObserver) -> RunResult {
        self.run_with(options, Some(observer), None)
    }

    /// Runs inference under external cancellation: cancelling `cancel` (from
    /// any thread) makes the run abort promptly with
    /// [`Outcome::Cancelled`].
    pub fn run_cancellable(&self, options: &RunOptions, cancel: CancelToken) -> RunResult {
        self.run_with(options, None, Some(cancel))
    }

    /// The general run entry point: optional event streaming, optional
    /// cooperative cancellation.
    ///
    /// Invalid options are reported as an [`Outcome::SynthesisFailure`]
    /// carrying the [`crate::ConfigError`] message (validate upfront with
    /// [`RunOptions::validate`] to distinguish them programmatically).
    pub fn run_with(
        &self,
        options: &RunOptions,
        observer: Option<&mut dyn RunObserver>,
        cancel: Option<CancelToken>,
    ) -> RunResult {
        if let Err(error) = options.validate() {
            return RunResult::new(
                Outcome::SynthesisFailure(format!("invalid run options: {error}")),
                RunStats::default(),
            );
        }
        let mut deadline = match options.timeout {
            Some(timeout) => Deadline::after(timeout),
            None => Deadline::none(),
        };
        if let Some(token) = &cancel {
            deadline = deadline.with_cancel(token.clone());
        }

        // Warm state from the engine: the problem's pool cache for the
        // verifier, the back end's persistent term bank for the synthesizer.
        let verifier = Verifier::new(self.problem)
            .with_bounds(options.bounds)
            .with_deadline(deadline.clone())
            .with_pool_cache(self.caches.pools())
            .with_check_cache(self.caches.checks());
        let synthesizer = InferenceContext::make_synthesizer(options);

        let ctx = InferenceContext::from_parts(
            self.problem,
            options.clone(),
            deadline,
            cancel,
            observer,
            verifier,
            synthesizer,
            self.caches.bank(options.synthesizer),
        );
        let mut result = match options.mode {
            Mode::Hanoi => modes::hanoi::run(ctx),
            Mode::ConjStr => modes::conj_str::run(ctx),
            Mode::LinearArbitrary => modes::linear_arbitrary::run(ctx),
            Mode::OneShot => modes::one_shot::run(ctx),
        };
        result.stats.warm_start_loads = self.caches.warm_start_loads();
        result.stats.warm_start_quarantined = self.caches.warm_start_quarantined();
        result
    }

    /// [`Session::run_with`], with the run isolated behind a panic boundary.
    ///
    /// A long-lived service cannot let one defective run take down the
    /// process: this entry point catches a panic anywhere inside the run
    /// (interpreter, verifier, synthesizer, observer) and converts it into
    /// an `Err` carrying the panic message.  Because the panicking thread
    /// may have been holding locks inside this problem's shared caches —
    /// leaving them poisoned or half-updated — the problem's engine entry is
    /// **evicted** ([`Engine::evict_problem`]) before returning: subsequent
    /// runs of the problem start from a fresh (or warm-start-restored) entry
    /// instead of tripping over the wreckage, and no other problem's caches
    /// are touched.  Runs that complete normally are unaffected: their
    /// caches stay warm.
    pub fn run_caught(
        &self,
        options: &RunOptions,
        observer: Option<&mut dyn RunObserver>,
        cancel: Option<CancelToken>,
    ) -> Result<RunResult, String> {
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            self.run_with(options, observer, cancel)
        }));
        outcome.map_err(|payload| {
            self.engine.evict_problem(self.problem);
            panic_message(payload.as_ref())
        })
    }
}

/// Renders a panic payload as text (panics carry `&str` or `String` in
/// practice; anything else gets a placeholder).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::{CollectingObserver, RunEvent};

    const LIST_SET: &str = r#"
        type nat = O | S of nat
        type list = Nil | Cons of nat * list

        interface SET = sig
          type t
          val empty : t
          val insert : t -> nat -> t
          val delete : t -> nat -> t
          val lookup : t -> nat -> bool
        end

        module ListSet : SET = struct
          type t = list
          let empty : t = Nil
          let rec lookup (l : t) (x : nat) : bool =
            match l with
            | Nil -> False
            | Cons (hd, tl) -> hd == x || lookup tl x
            end
          let insert (l : t) (x : nat) : t =
            if lookup l x then l else Cons (x, l)
          let rec delete (l : t) (x : nat) : t =
            match l with
            | Nil -> Nil
            | Cons (hd, tl) -> if hd == x then tl else Cons (hd, delete tl x)
            end
        end

        spec (s : t) (i : nat) =
          not (lookup empty i) && lookup (insert s i) i && not (lookup (delete s i) i)
    "#;

    #[test]
    fn sessions_stream_events() {
        let problem = Problem::from_source(LIST_SET).unwrap();
        let engine = Engine::with_defaults();
        let session = engine.session(&problem);
        let mut observer = CollectingObserver::new();
        let result = session.run_observed(&RunOptions::quick(), &mut observer);
        assert!(result.is_success(), "{}", result.outcome);
        assert!(matches!(
            observer.events.first(),
            Some(RunEvent::RunStarted { .. })
        ));
        assert!(matches!(
            observer.events.last(),
            Some(RunEvent::RunFinished { success: true, .. })
        ));
        // One CandidateProposed per synthesis-or-cache-served candidate; at
        // least one real synthesis happened.
        assert!(
            observer.count(|e| matches!(
                e,
                RunEvent::CandidateProposed {
                    from_cache: false,
                    ..
                }
            )) >= 1
        );
        // Phase timings cover both synthesis and verification.
        assert!(observer.count(|e| matches!(e, RunEvent::PhaseFinished { .. })) > 1);
    }

    #[test]
    fn invalid_options_become_a_failure_outcome() {
        let problem = Problem::from_source(LIST_SET).unwrap();
        let engine = Engine::with_defaults();
        let session = engine.session(&problem);
        let result = session.run(&RunOptions::quick().with_max_iterations(0));
        match &result.outcome {
            Outcome::SynthesisFailure(message) => {
                assert!(message.contains("max_iterations"), "{message}");
            }
            other => panic!("expected a failure outcome, got {other}"),
        }
    }

    #[test]
    fn pre_cancelled_runs_abort_immediately() {
        let problem = Problem::from_source(LIST_SET).unwrap();
        let engine = Engine::with_defaults();
        let session = engine.session(&problem);
        let token = CancelToken::new();
        token.cancel();
        let result = session.run_cancellable(&RunOptions::quick(), token);
        assert_eq!(result.outcome, Outcome::Cancelled);
        assert_eq!(result.stats.synthesis_calls, 0);
    }

    #[test]
    fn panicking_runs_are_caught_and_quarantine_the_entry() {
        let problem = Problem::from_source(LIST_SET).unwrap();
        let engine = Engine::with_defaults();
        let session = engine.session(&problem);
        assert_eq!(engine.cached_problems(), 1);

        // An observer that panics mid-run stands in for any defect inside
        // the run boundary (interpreter bug, poisoned cache, …).
        let mut bomb = |_: &RunEvent| panic!("chaos: observer exploded");
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {})); // keep the test log clean
        let caught = session.run_caught(&RunOptions::quick(), Some(&mut bomb), None);
        std::panic::set_hook(hook);
        let message = caught.expect_err("the run must report the panic");
        assert!(message.contains("observer exploded"), "{message}");

        // The possibly-wrecked entry is gone; a fresh run works and is
        // correct.
        assert_eq!(engine.cached_problems(), 0, "entry must be evicted");
        let retry = engine.run(&problem, &RunOptions::quick());
        assert!(retry.is_success(), "{}", retry.outcome);

        // Runs that do not panic pass through run_caught untouched — and
        // keep their caches.
        let session = engine.session(&problem);
        let fine = session
            .run_caught(&RunOptions::quick(), None, None)
            .expect("clean run");
        assert_eq!(fine.outcome, retry.outcome);
        assert_eq!(fine.stats.pool_builds, 0, "warm entry survived");
    }

    #[test]
    fn oneshot_shares_the_session_term_bank_with_the_driver() {
        let problem = Problem::from_source(LIST_SET).unwrap();
        let engine = Engine::with_defaults();
        let session = engine.session(&problem);

        // The main algorithm populates the problem's persistent bank…
        let hanoi = session.run(&RunOptions::quick());
        assert!(hanoi.is_success(), "{}", hanoi.outcome);
        assert!(hanoi.stats.synth_terms_enumerated > 0);

        // …and the OneShot baseline's single guess is then served from it:
        // the shared-bank run must enumerate no more terms than a cold
        // OneShot run and hit the bank, while returning the identical
        // outcome.
        let one_shot = RunOptions::quick().with_mode(Mode::OneShot);
        let warm = session.run(&one_shot);
        let cold = Engine::with_defaults().run(&problem, &one_shot);
        assert_eq!(warm.outcome, cold.outcome, "shared bank changed OneShot");
        assert!(
            warm.stats.synth_bank_hits >= cold.stats.synth_bank_hits,
            "warm: {:?} cold: {:?}",
            warm.stats,
            cold.stats
        );
    }
}
