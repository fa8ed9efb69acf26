//! Cooperative cancellation of inference runs.
//!
//! A [`CancelToken`] is handed to [`crate::Session::run_cancellable`] (or any
//! of the `run_with` entry points); cancelling it from another thread makes
//! the run abort with [`crate::Outcome::Cancelled`] at its next cancellation
//! point.  There is no dedicated polling machinery: the token rides inside
//! the run's [`hanoi_lang::util::Deadline`], so every place the verifier
//! and the synthesizer already poll the deadline — per enumerated tuple batch, per synthesis layer — doubles as a
//! cancellation point.  This replaces the previous timeout-only interruption
//! model: a run can now be stopped for external reasons (client disconnect,
//! shed load, a batch sibling already answered) without waiting for its
//! wall-clock budget.
//!
//! Cancellation is cooperative and prompt, not instantaneous: a run
//! mid-evaluation finishes its current value first.  It is also permanent —
//! a cancelled token cannot be re-armed; use a fresh token per run (tokens
//! are cheap: one shared atomic).

pub use hanoi_lang::util::CancelToken;

#[cfg(test)]
mod tests {
    use super::*;
    use hanoi_lang::util::Deadline;

    #[test]
    fn tokens_flip_deadlines_across_clones() {
        let token = CancelToken::new();
        let deadline = Deadline::none().with_cancel(token.clone());
        assert!(!deadline.expired());
        let clone = token.clone();
        std::thread::spawn(move || clone.cancel()).join().unwrap();
        assert!(deadline.expired());
        assert!(deadline.cancelled());
        assert!(token.is_cancelled());
    }
}
