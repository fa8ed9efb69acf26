//! The main Hanoi algorithm of Figure 4 (visible-inductiveness-first CEGIS),
//! in iterative form.

use hanoi_verifier::{InductivenessOutcome, SufficiencyOutcome};

use crate::context::InferenceContext;
use crate::outcome::{Outcome, RunResult};

/// Runs the Hanoi algorithm of Figure 4 to completion.
///
/// Each iteration corresponds to one recursive call of the figure: synthesize
/// a candidate from the current `V+`/`V−`, weaken it via visible
/// inductiveness (`ClosedPositives`), and only once it is visibly inductive
/// check sufficiency and full inductiveness (`NoNegatives`), strengthening on
/// their counterexamples.
pub fn run(mut ctx: InferenceContext<'_, '_>) -> RunResult {
    loop {
        if let Err(outcome) = ctx.begin_iteration() {
            return ctx.finish(outcome);
        }

        // Synth V+ V−
        let candidate = match ctx.synthesize_candidate() {
            Ok(candidate) => candidate,
            Err(outcome) => return ctx.finish(outcome),
        };

        // ClosedPositives V+ I: weaken until visibly inductive.
        match ctx.check_visible(&candidate) {
            Ok(InductivenessOutcome::Valid) => {}
            Ok(InductivenessOutcome::Cex(cex)) => {
                // Everything reachable in one step from V+ is constructible.
                ctx.add_positives(cex.v);
                continue;
            }
            Err(outcome) => return ctx.finish(outcome),
        }

        // NoNegatives I: sufficiency first…
        match ctx.check_sufficiency(&candidate) {
            Ok(SufficiencyOutcome::Valid) => {}
            Ok(SufficiencyOutcome::Cex(cex)) => {
                let fresh = ctx.add_negatives(&candidate, &cex.abstract_args);
                if fresh.is_empty() {
                    // Every witness is known constructible: the module
                    // genuinely violates its specification.
                    return ctx.finish(Outcome::SpecViolation(cex.abstract_args));
                }
                continue;
            }
            Err(outcome) => return ctx.finish(outcome),
        }

        // …then full inductiveness.
        match ctx.check_full(&candidate) {
            Ok(InductivenessOutcome::Valid) => {
                return ctx.finish(Outcome::Invariant(candidate));
            }
            Ok(InductivenessOutcome::Cex(cex)) => {
                let fresh = ctx.add_negatives(&candidate, &cex.s);
                if fresh.is_empty() {
                    return ctx.finish(Outcome::SpecViolation(cex.s));
                }
                continue;
            }
            Err(outcome) => return ctx.finish(outcome),
        }
    }
}
