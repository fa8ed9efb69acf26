//! Cooperative cancellation: a [`hanoi_repro::hanoi::CancelToken`] must stop
//! an inference run promptly with [`Outcome::Cancelled`] and without
//! panicking, replacing the old timeout-only interruption model.

use std::time::{Duration, Instant};

use hanoi_repro::benchmarks;
use hanoi_repro::hanoi::{CancelToken, Engine, Outcome, RunEvent, RunOptions, RunPhase};
use hanoi_repro::verifier::VerifierBounds;

/// Options for a run that would take far longer than the cancellation delay:
/// the paper's full verifier bounds (3000/30 pools, 30000-tuple
/// multi-quantifier sweeps — tens of seconds per CEGIS iteration in debug
/// builds), no wall-clock timeout, a high iteration cap.
fn long_run_options() -> RunOptions {
    RunOptions::paper()
        .with_timeout(None)
        .with_max_iterations(100_000)
        .with_bounds(VerifierBounds::paper())
}

#[test]
fn cancellation_stops_a_running_inference_promptly() {
    let problem = benchmarks::find("/coq/unique-list-::-set")
        .unwrap()
        .problem()
        .unwrap();
    let engine = Engine::with_defaults();
    let session = engine.session(&problem);
    let token = CancelToken::new();

    // Cancel from inside the run, right after its first synthesis call: the
    // run is then always mid-flight, however fast the build is.
    let mut cancelled_at = None;
    let mut cancel_after_first_synthesis = |event: &RunEvent| {
        let synthesized = matches!(
            event,
            RunEvent::PhaseFinished {
                phase: RunPhase::Synthesis,
                ..
            }
        );
        if synthesized && cancelled_at.is_none() {
            cancelled_at = Some(Instant::now());
            token.cancel();
        }
    };
    let result = session.run_with(
        &long_run_options(),
        Some(&mut cancel_after_first_synthesis),
        Some(token.clone()),
    );
    let cancelled_at = cancelled_at.expect("the run reaches a synthesis call");
    let latency = cancelled_at.elapsed();

    assert_eq!(
        result.outcome,
        Outcome::Cancelled,
        "expected cancellation, got {}",
        result.outcome
    );
    // "Promptly": well under what the full run would take.  The bound is
    // generous because debug builds enumerate paper-scale pools between
    // cancellation points.
    assert!(
        latency < Duration::from_secs(30),
        "cancellation took {latency:?}"
    );
    // Statistics are still well-formed after an aborted run.
    assert!(result.stats.synthesis_calls >= 1);
    assert_eq!(result.stats.invariant_size, None);
}

#[test]
fn pre_cancelled_tokens_abort_before_any_work() {
    let problem = benchmarks::find("/coq/unique-list-::-set")
        .unwrap()
        .problem()
        .unwrap();
    let token = CancelToken::new();
    token.cancel();
    let result = Engine::with_defaults()
        .session(&problem)
        .run_cancellable(&long_run_options(), token);
    assert_eq!(result.outcome, Outcome::Cancelled);
    assert_eq!(result.stats.synthesis_calls, 0);
    assert_eq!(result.stats.verification_calls, 0);
}

#[test]
fn cancellation_does_not_poison_the_engine() {
    // After a cancelled run, the same session must still complete fresh runs
    // normally (the caches warmed by the aborted run stay usable).
    let problem = benchmarks::find("/other/cache").unwrap().problem().unwrap();
    let engine = Engine::with_defaults();
    let session = engine.session(&problem);

    let token = CancelToken::new();
    token.cancel();
    let cancelled = session.run_cancellable(&RunOptions::quick(), token);
    assert_eq!(cancelled.outcome, Outcome::Cancelled);

    let result = session.run(&RunOptions::quick());
    assert!(result.is_success(), "{}", result.outcome);
}
