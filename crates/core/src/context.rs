//! Shared state and plumbing for the inference session and the baseline
//! modes: example sets, timed verifier/synthesizer calls, caches, statistics,
//! event streaming and cancellation.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use hanoi_abstraction::Problem;
use hanoi_lang::ast::Expr;
use hanoi_lang::util::{CancelToken, Deadline, OrderedSet};
use hanoi_lang::value::Value;
use hanoi_synth::{
    ExampleSet, FoldSynth, MythSynth, SynthCounters, SynthError, SynthesisCache, Synthesizer,
    TermBank,
};
use hanoi_verifier::{InductivenessOutcome, SufficiencyOutcome, Verifier, VerifierError};

use crate::clc::CexListCache;
use crate::config::{RunOptions, SynthChoice};
use crate::events::{RunEvent, RunObserver, RunPhase};
use crate::outcome::{Outcome, RunResult};
use crate::stats::RunStats;

/// Mutable state of one inference run, shared by all modes.
///
/// A context is built by a [`crate::Session`], which hands it the engine's
/// warm caches.  It carries the run's deadline and cancellation token,
/// streams [`RunEvent`]s to the run's observer, and owns the
/// verifier/synthesizer pair every mode drives, together with the term bank
/// the synthesizer searches through.  The run's work is counted in the
/// verifier's [`hanoi_verifier::VerifierCounters`] and in the run's
/// [`SynthCounters`], and copied into [`RunStats`] by
/// [`InferenceContext::finish`].
pub struct InferenceContext<'p, 'o> {
    /// The problem being solved.
    pub problem: &'p Problem,
    /// The per-run options.
    pub options: RunOptions,
    /// The shared wall-clock deadline (carries the cancellation token).
    pub deadline: Deadline,
    /// Statistics being accumulated.
    pub stats: RunStats,
    /// Known-constructible values (`V+`).
    pub v_plus: OrderedSet<Value>,
    /// Values the current candidate must reject (`V−`).
    pub v_minus: OrderedSet<Value>,
    cancel: Option<CancelToken>,
    observer: Option<&'o mut dyn RunObserver>,
    verifier: Verifier<'p>,
    synthesizer: Box<dyn Synthesizer>,
    bank: Arc<TermBank>,
    synth_counters: SynthCounters,
    synth_cache: SynthesisCache,
    cex_cache: CexListCache,
    started: Instant,
}

impl<'p, 'o> InferenceContext<'p, 'o> {
    /// Assembles a context from externally owned parts — the constructor the
    /// [`crate::Session`] uses to hand a run warm caches, an observer and a
    /// cancellation token.  `deadline` must already carry `cancel` (when
    /// given) so the verifier and synthesizer poll it; `bank` must
    /// belong to `problem` and the synthesizer's back end.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_parts(
        problem: &'p Problem,
        options: RunOptions,
        deadline: Deadline,
        cancel: Option<CancelToken>,
        observer: Option<&'o mut dyn RunObserver>,
        verifier: Verifier<'p>,
        synthesizer: Box<dyn Synthesizer>,
        bank: Arc<TermBank>,
    ) -> Self {
        let mut ctx = InferenceContext {
            problem,
            options,
            deadline,
            stats: RunStats::default(),
            v_plus: OrderedSet::new(),
            v_minus: OrderedSet::new(),
            cancel,
            observer,
            verifier,
            synthesizer,
            bank,
            synth_counters: SynthCounters::default(),
            synth_cache: SynthesisCache::new(),
            cex_cache: CexListCache::new(),
            started: Instant::now(),
        };
        ctx.emit(RunEvent::RunStarted {
            mode: ctx.options.mode,
            synthesizer: ctx.options.synthesizer,
        });
        ctx
    }

    /// Builds the configured synthesizer.
    pub fn make_synthesizer(options: &RunOptions) -> Box<dyn Synthesizer> {
        let search = options.search.clone();
        match options.synthesizer {
            SynthChoice::Myth => Box::new(MythSynth::new().with_config(search)),
            SynthChoice::Fold => Box::new(FoldSynth::new().with_config(search)),
        }
    }

    /// Streams an event to the run's observer, if one is registered.
    pub fn emit(&mut self, event: RunEvent) {
        if let Some(observer) = self.observer.as_deref_mut() {
            observer.on_event(&event);
        }
    }

    /// Streams a [`RunEvent::CandidateProposed`], cloning the candidate
    /// expression only when someone is listening.
    fn emit_candidate(&mut self, candidate: &Expr, from_cache: bool) {
        if self.observer.is_none() {
            return;
        }
        let event = RunEvent::CandidateProposed {
            iteration: self.stats.iterations,
            candidate: candidate.clone(),
            from_cache,
        };
        self.emit(event);
    }

    /// `true` once the run's wall-clock budget is exhausted or the run was
    /// cancelled.
    pub fn timed_out(&self) -> bool {
        self.deadline.expired()
    }

    /// The outcome to abort with, when the run can no longer continue:
    /// [`Outcome::Cancelled`] when the cancellation token fired,
    /// [`Outcome::Timeout`] when the wall clock ran out, `None` otherwise.
    pub fn interrupted(&self) -> Option<Outcome> {
        if self.cancel.as_ref().is_some_and(CancelToken::is_cancelled) {
            return Some(Outcome::Cancelled);
        }
        if self.deadline.expired() {
            return Some(Outcome::Timeout);
        }
        None
    }

    /// Starts one iteration of a mode's loop: the outcome to end the run
    /// with when it was interrupted or has used up its iteration cap.
    pub fn begin_iteration(&mut self) -> Result<(), Outcome> {
        if let Some(outcome) = self.interrupted() {
            return Err(outcome);
        }
        self.stats.iterations += 1;
        if self.stats.iterations > self.options.max_iterations {
            return Err(Outcome::SynthesisFailure(format!(
                "iteration cap of {} reached",
                self.options.max_iterations
            )));
        }
        Ok(())
    }

    /// Wraps up the run: fills the time and example-count statistics,
    /// copies the run's verifier and synthesizer counters into them, and
    /// emits the final event.
    pub fn finish(mut self, outcome: Outcome) -> RunResult {
        let stats = &mut self.stats;
        stats.total_time = self.started.elapsed();
        stats.final_positives = self.v_plus.len();
        stats.final_negatives = self.v_minus.len();
        let load = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
        let verifier = self.verifier.counters();
        stats.pool_cache_hits = load(&verifier.pool_cache_hits);
        stats.pool_builds = load(&verifier.pool_builds);
        stats.pool_slab_builds = load(&verifier.pool_slab_builds);
        stats.predicate_evals = load(&verifier.predicate_evals);
        stats.predicate_table_hits = load(&verifier.predicate_table_hits);
        stats.spec_evals = load(&verifier.spec_evals);
        stats.spec_memo_hits = load(&verifier.spec_memo_hits);
        stats.verification_cache_hits = load(&verifier.check_cache_hits);
        stats.check_cache_evictions = load(&verifier.check_cache_evictions);
        let synth = &self.synth_counters;
        stats.synth_terms_enumerated = load(&synth.terms_enumerated);
        stats.synth_column_appends = load(&synth.column_appends);
        stats.synth_eq_class_splits = load(&synth.eq_class_splits);
        stats.synth_bank_hits = load(&synth.bank_hits);
        stats.synth_bitset_row_ops = load(&synth.bitset_row_ops);
        stats.synth_guess_memo_hits = load(&synth.guess_memo_hits);
        stats.synth_probe_batches = load(&synth.probe_batches);
        stats.synth_arith_atoms = load(&synth.arith_atoms);
        self.emit(RunEvent::RunFinished {
            success: outcome.is_success(),
            iterations: self.stats.iterations,
            total: self.stats.total_time,
        });
        RunResult::new(outcome, self.stats)
    }

    /// The verifier used by this run.
    pub fn verifier(&self) -> &Verifier<'p> {
        &self.verifier
    }

    /// Builds the current example set (`V+` / `V−`), applying the
    /// trace-completeness closure and folding the newly added subvalues back
    /// into `V−` (§4.3).
    pub fn current_examples(&mut self) -> Result<ExampleSet, Outcome> {
        let examples =
            ExampleSet::from_sets(self.v_plus.iter().cloned(), self.v_minus.iter().cloned())
                .map_err(|e| Outcome::SynthesisFailure(e.to_string()))?;
        let (closed, _added) =
            examples.trace_completed(&self.problem.tyenv, self.problem.concrete_type());
        for negative in closed.negatives() {
            if !self.v_plus.contains(negative) {
                self.v_minus.insert(negative.clone());
            }
        }
        Ok(closed)
    }

    /// Produces the next candidate invariant: from the synthesis-result cache
    /// when enabled and possible, otherwise by calling the synthesizer.
    pub fn synthesize_candidate(&mut self) -> Result<Expr, Outcome> {
        let examples = self.current_examples()?;
        if self.options.optimizations.synthesis_result_caching {
            if let Some(cached) = self.synth_cache.find_consistent(self.problem, &examples) {
                self.stats.synthesis_cache_hits += 1;
                self.emit_candidate(&cached, true);
                return Ok(cached);
            }
        }
        let start = Instant::now();
        let result = self.synthesizer.synthesize(
            self.problem,
            &self.bank,
            &self.synth_counters,
            &examples,
            &self.deadline,
        );
        let elapsed = start.elapsed();
        self.stats.record_synthesis(elapsed);
        self.emit(RunEvent::PhaseFinished {
            phase: RunPhase::Synthesis,
            elapsed,
        });
        match result {
            Ok(candidate) => {
                self.synth_cache.insert(candidate.clone());
                self.emit_candidate(&candidate, false);
                Ok(candidate)
            }
            Err(SynthError::Timeout) => Err(self.interrupted().unwrap_or(Outcome::Timeout)),
            Err(other) => Err(Outcome::SynthesisFailure(other.to_string())),
        }
    }

    /// Timed visible-inductiveness check (`ClosedPositives`).
    pub fn check_visible(&mut self, candidate: &Expr) -> Result<InductivenessOutcome, Outcome> {
        let start = Instant::now();
        let result = self
            .verifier
            .check_visible_inductiveness(self.v_plus.as_slice(), candidate);
        self.timed(RunPhase::VisibleInductiveness, start, result)
    }

    /// Timed sufficiency check.
    pub fn check_sufficiency(&mut self, candidate: &Expr) -> Result<SufficiencyOutcome, Outcome> {
        let start = Instant::now();
        let result = self.verifier.check_sufficiency(candidate);
        self.timed(RunPhase::Sufficiency, start, result)
    }

    /// Timed full-inductiveness check.
    pub fn check_full(&mut self, candidate: &Expr) -> Result<InductivenessOutcome, Outcome> {
        let start = Instant::now();
        let result = self.verifier.check_full_inductiveness(candidate);
        self.timed(RunPhase::FullInductiveness, start, result)
    }

    /// Timed single-operation full-inductiveness check (LA baseline).
    pub fn check_op(
        &mut self,
        op: &str,
        candidate: &Expr,
    ) -> Result<InductivenessOutcome, Outcome> {
        let start = Instant::now();
        let result = self.verifier.check_op_inductiveness(op, candidate);
        self.timed(RunPhase::OpInductiveness, start, result)
    }

    /// Records a verifier check of `phase` that started at `start`, and maps
    /// its error to the outcome the run ends with: a deadline expiry is a
    /// timeout, or a cancellation when the deadline's token fired.
    fn timed<T>(
        &mut self,
        phase: RunPhase,
        start: Instant,
        result: Result<T, VerifierError>,
    ) -> Result<T, Outcome> {
        let elapsed = start.elapsed();
        self.stats.record_verification(elapsed);
        self.emit(RunEvent::PhaseFinished { phase, elapsed });
        match result {
            Ok(value) => Ok(value),
            Err(VerifierError::Timeout) => Err(self.interrupted().unwrap_or(Outcome::Timeout)),
            Err(other) => Err(Outcome::SynthesisFailure(format!(
                "verifier failed: {other}"
            ))),
        }
    }

    /// Registers newly discovered constructible values: extends `V+`, resets
    /// `V−` (replaying the counterexample-list cache when enabled).
    pub fn add_positives(&mut self, values: impl IntoIterator<Item = Value>) {
        let added = self.v_plus.extend(values);
        self.v_minus.clear();
        if self.options.optimizations.counterexample_list_caching {
            let restored = self.cex_cache.replay(self.problem, self.v_plus.as_slice());
            self.stats.clc_restored_negatives += restored.len();
            self.v_minus.extend(restored);
        } else {
            self.cex_cache = CexListCache::new();
        }
        let event = RunEvent::PositivesAdded {
            added,
            total: self.v_plus.len(),
        };
        self.emit(event);
    }

    /// Registers negative examples produced in response to `candidate`:
    /// extends `V−` with the values not already known constructible and
    /// records the step in the counterexample-list cache.
    ///
    /// Returns the values that were actually added.
    pub fn add_negatives(&mut self, candidate: &Expr, values: &[Value]) -> Vec<Value> {
        let fresh: Vec<Value> = values
            .iter()
            .filter(|v| !self.v_plus.contains(v))
            .cloned()
            .collect();
        self.v_minus.extend(fresh.iter().cloned());
        if !fresh.is_empty() {
            self.cex_cache.record(candidate.clone(), fresh.clone());
        }
        let event = RunEvent::NegativesAdded {
            added: fresh.len(),
            total: self.v_minus.len(),
        };
        self.emit(event);
        fresh
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Optimizations;

    const SIMPLE: &str = r#"
        type nat = O | S of nat
        type list = Nil | Cons of nat * list
        interface SET = sig
          type t
          val empty : t
          val insert : t -> nat -> t
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
        end
        spec (s : t) (i : nat) = lookup (insert s i) i
    "#;

    /// A context over fresh caches, built as a session builds one.
    fn context<'p, 'o>(
        problem: &'p Problem,
        options: RunOptions,
        cancel: Option<CancelToken>,
        observer: Option<&'o mut dyn RunObserver>,
    ) -> InferenceContext<'p, 'o> {
        let deadline = match &cancel {
            Some(token) => Deadline::none().with_cancel(token.clone()),
            None => Deadline::none(),
        };
        let verifier = Verifier::new(problem)
            .with_bounds(options.bounds)
            .with_deadline(deadline.clone());
        let synthesizer = InferenceContext::make_synthesizer(&options);
        InferenceContext::from_parts(
            problem,
            options,
            deadline,
            cancel,
            observer,
            verifier,
            synthesizer,
            Arc::new(TermBank::new()),
        )
    }

    #[test]
    fn example_bookkeeping() {
        let problem = Problem::from_source(SIMPLE).unwrap();
        let mut ctx = context(&problem, RunOptions::quick(), None, None);
        assert!(!ctx.timed_out());
        assert_eq!(ctx.interrupted(), None);

        let candidate = hanoi_lang::parser::parse_expr("fun (l : list) -> True").unwrap();
        let added = ctx.add_negatives(&candidate, &[Value::nat_list(&[1, 1])]);
        assert_eq!(added.len(), 1);
        assert!(ctx.v_minus.contains(&Value::nat_list(&[1, 1])));

        // Trace completeness adds [1] and [] as negatives.
        let examples = ctx.current_examples().unwrap();
        assert_eq!(examples.label(&Value::nat_list(&[1])), Some(false));
        assert!(ctx.v_minus.contains(&Value::nat_list(&[])));

        // A new positive resets V− and (with CLC) replays the surviving
        // prefix of the trace: `true` accepts [], so [1;1] is restored.
        ctx.add_positives([Value::nat_list(&[])]);
        assert!(ctx.v_plus.contains(&Value::nat_list(&[])));
        assert!(ctx.v_minus.contains(&Value::nat_list(&[1, 1])));
        assert_eq!(ctx.stats.clc_restored_negatives, 1);
    }

    #[test]
    fn disabling_clc_resets_v_minus_completely() {
        let problem = Problem::from_source(SIMPLE).unwrap();
        let options = RunOptions::quick().with_optimizations(Optimizations::without_clc());
        let mut ctx = context(&problem, options, None, None);
        let candidate = hanoi_lang::parser::parse_expr("fun (l : list) -> True").unwrap();
        ctx.add_negatives(&candidate, &[Value::nat_list(&[1, 1])]);
        ctx.add_positives([Value::nat_list(&[])]);
        assert!(ctx.v_minus.is_empty());
        assert_eq!(ctx.stats.clc_restored_negatives, 0);
    }

    #[test]
    fn negatives_already_positive_are_not_added() {
        let problem = Problem::from_source(SIMPLE).unwrap();
        let mut ctx = context(&problem, RunOptions::quick(), None, None);
        ctx.add_positives([Value::nat_list(&[2])]);
        let candidate = hanoi_lang::parser::parse_expr("fun (l : list) -> True").unwrap();
        let added = ctx.add_negatives(&candidate, &[Value::nat_list(&[2]), Value::nat_list(&[3])]);
        assert_eq!(added, vec![Value::nat_list(&[3])]);
    }

    #[test]
    fn synthesize_candidate_uses_the_cache() {
        let problem = Problem::from_source(SIMPLE).unwrap();
        let mut ctx = context(&problem, RunOptions::quick(), None, None);
        let first = ctx.synthesize_candidate().unwrap();
        assert_eq!(ctx.stats.synthesis_calls, 1);
        let second = ctx.synthesize_candidate().unwrap();
        assert_eq!(first, second);
        // The second call is served from the synthesis-result cache.
        assert_eq!(ctx.stats.synthesis_calls, 1);
        assert_eq!(ctx.stats.synthesis_cache_hits, 1);
        let result = ctx.finish(Outcome::Invariant(first));
        assert!(result.is_success());
        assert!(result.stats.total_time > std::time::Duration::ZERO);
    }

    #[test]
    fn events_stream_to_the_observer() {
        use crate::events::CollectingObserver;

        let problem = Problem::from_source(SIMPLE).unwrap();
        let mut observer = CollectingObserver::new();
        let mut ctx = context(&problem, RunOptions::quick(), None, Some(&mut observer));
        let candidate = ctx.synthesize_candidate().unwrap();
        let cached = ctx.synthesize_candidate().unwrap();
        assert_eq!(candidate, cached);
        ctx.add_negatives(&candidate, &[Value::nat_list(&[1, 1])]);
        let _ = ctx.check_sufficiency(&candidate).unwrap();
        let result = ctx.finish(Outcome::Invariant(candidate));
        assert!(result.is_success());

        let events = &observer.events;
        assert!(matches!(events[0], RunEvent::RunStarted { .. }));
        assert!(matches!(
            events.last(),
            Some(RunEvent::RunFinished { success: true, .. })
        ));
        assert_eq!(
            observer.count(|e| matches!(
                e,
                RunEvent::CandidateProposed {
                    from_cache: false,
                    ..
                }
            )),
            1
        );
        assert_eq!(
            observer.count(|e| matches!(
                e,
                RunEvent::CandidateProposed {
                    from_cache: true,
                    ..
                }
            )),
            1
        );
        assert_eq!(
            observer.count(|e| matches!(
                e,
                RunEvent::PhaseFinished {
                    phase: RunPhase::Sufficiency,
                    ..
                }
            )),
            1
        );
        assert_eq!(
            observer.count(|e| matches!(e, RunEvent::NegativesAdded { added: 1, .. })),
            1
        );
    }

    #[test]
    fn cancellation_maps_to_the_cancelled_outcome() {
        let problem = Problem::from_source(SIMPLE).unwrap();
        let token = CancelToken::new();
        let ctx = context(&problem, RunOptions::quick(), Some(token.clone()), None);
        assert_eq!(ctx.interrupted(), None);
        token.cancel();
        assert_eq!(ctx.interrupted(), Some(Outcome::Cancelled));
        assert!(ctx.timed_out(), "cancellation expires the shared deadline");
    }
}
