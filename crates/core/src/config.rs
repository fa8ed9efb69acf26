//! Configuration of the inference service.
//!
//! Configuration is split along the lifetime of the state it describes:
//!
//! * [`EngineConfig`] — engine-wide settings that shape the *shared* state a
//!   long-lived [`crate::Engine`] owns (worker threads, cache budgets).
//!   Fixed for the engine's lifetime.
//! * [`RunOptions`] — per-run options (mode, synthesizer, verifier bounds,
//!   search schedule, optimizations, wall-clock budget).  Every
//!   [`crate::Session`] run picks its own.
//!
//! Both carry validating builders: setters keep the value well-formed where
//! possible, and `validate()` rejects the combinations the engine cannot
//! execute (reported as [`ConfigError`]).

use std::fmt;
use std::path::PathBuf;
use std::time::Duration;

use hanoi_synth::SearchConfig;
use hanoi_verifier::VerifierBounds;

/// Which inference algorithm to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mode {
    /// The full Hanoi algorithm (visible-inductiveness-first CEGIS).
    Hanoi,
    /// The conjunctive-strengthening baseline (∧Str, modelled on LoopInvGen).
    ConjStr,
    /// The LinearArbitrary-style baseline: per-operation full-inductiveness
    /// counterexamples only, no eager visible-inductiveness search.
    LinearArbitrary,
    /// One-shot learning from the smallest values labelled by the spec.
    OneShot,
}

impl Mode {
    /// All modes, in the order they appear in Figure 8.
    pub fn all() -> [Mode; 4] {
        [
            Mode::Hanoi,
            Mode::ConjStr,
            Mode::LinearArbitrary,
            Mode::OneShot,
        ]
    }

    /// The label used in experiment reports.
    pub fn label(&self) -> &'static str {
        match self {
            Mode::Hanoi => "Hanoi",
            Mode::ConjStr => "AndStr",
            Mode::LinearArbitrary => "LA",
            Mode::OneShot => "OneShot",
        }
    }
}

/// Which synthesizer backs the `Synth` component.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SynthChoice {
    /// The Myth-style synthesizer (the paper's default back end).
    #[default]
    Myth,
    /// The fold-capable prototype synthesizer of §5.4.
    Fold,
}

impl SynthChoice {
    /// The label used in experiment reports (and as the bank key inside
    /// warm-start snapshot files).
    pub fn label(&self) -> &'static str {
        match self {
            SynthChoice::Myth => "myth",
            SynthChoice::Fold => "fold",
        }
    }

    /// Inverse of [`SynthChoice::label`].
    pub fn from_label(label: &str) -> Option<SynthChoice> {
        match label {
            "myth" => Some(SynthChoice::Myth),
            "fold" => Some(SynthChoice::Fold),
            _ => None,
        }
    }
}

/// The two optimizations of §4.4.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Optimizations {
    /// Synthesis-result caching: reuse previously synthesized candidates that
    /// are already consistent with the current examples.
    pub synthesis_result_caching: bool,
    /// Counterexample-list caching: when a new positive example resets `V−`,
    /// replay the recorded trace of candidates to rebuild `V−` without
    /// re-running synthesis and verification.
    pub counterexample_list_caching: bool,
}

impl Default for Optimizations {
    fn default() -> Self {
        Optimizations {
            synthesis_result_caching: true,
            counterexample_list_caching: true,
        }
    }
}

impl Optimizations {
    /// Both optimizations enabled (the full Hanoi configuration).
    pub fn all() -> Self {
        Optimizations::default()
    }

    /// Synthesis-result caching disabled (the paper's "Hanoi-SRC" mode).
    pub fn without_src() -> Self {
        Optimizations {
            synthesis_result_caching: false,
            ..Optimizations::default()
        }
    }

    /// Counterexample-list caching disabled (the paper's "Hanoi-CLC" mode).
    pub fn without_clc() -> Self {
        Optimizations {
            counterexample_list_caching: false,
            ..Optimizations::default()
        }
    }

    /// Both optimizations disabled.
    pub fn none() -> Self {
        Optimizations {
            synthesis_result_caching: false,
            counterexample_list_caching: false,
        }
    }
}

/// A configuration value the engine cannot execute.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// A field that must be positive was zero.
    ZeroField(&'static str),
    /// The synthesizer's search schedule is empty.
    EmptySchedule,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::ZeroField(field) => write!(f, "`{field}` must be positive"),
            ConfigError::EmptySchedule => f.write_str("the synthesizer search schedule is empty"),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Engine-wide settings: the shape of the shared state a long-lived
/// [`crate::Engine`] owns, fixed for the engine's lifetime.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineConfig {
    /// Worker threads for every parallel stage (bounded verification, pool
    /// slab construction, synthesis layer evaluation, batch execution).
    /// This is the only parallelism setting: every run hands it to its
    /// verifier and its synthesizer.
    ///
    /// * `1` (the default) runs serially, like the paper's implementation.
    /// * `0` uses one worker per available core.
    /// * Any other value is taken literally.
    ///
    /// Every value is outcome-identical: parallel stages are deterministic
    /// by construction (pinned by `tests/parallel_determinism.rs` and
    /// `tests/synth_incremental_equivalence.rs`), so the setting trades wall
    /// clock, never answers.
    pub parallelism: usize,
    /// How many distinct problems the engine keeps warm caches (value pools,
    /// term banks) for.  When a new problem would exceed the budget, the
    /// least-recently-used entry is dropped.
    pub max_cached_problems: usize,
    /// The warm-start store: a directory of per-problem cache snapshots.
    ///
    /// When set, opening a session on a problem the engine has no live entry
    /// for consults the content-addressed chunk store rooted at the
    /// directory (`manifests/<problem fingerprint>.json` plus the chunks it
    /// lists — written by [`crate::Engine::save_state`], possibly by an
    /// *earlier process* or synced from another host) and transparently
    /// restores the problem's check-outcome cache and term banks from it.
    /// Corrupt chunks are quarantined individually and the restore proceeds
    /// without them; a corrupt manifest or a wrapper that fails validation
    /// degrades to a cold start — never a wrong answer.  `None` (the
    /// default) disables both loading and any filesystem access.
    pub warm_start_dir: Option<PathBuf>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            parallelism: 1,
            max_cached_problems: 64,
            warm_start_dir: None,
        }
    }
}

impl EngineConfig {
    /// The default engine configuration (serial, 64 cached problems).
    pub fn new() -> Self {
        EngineConfig::default()
    }

    /// Sets the worker-thread count (`1` = serial, `0` = one worker per
    /// available core).
    pub fn with_parallelism(mut self, parallelism: usize) -> Self {
        self.parallelism = parallelism;
        self
    }

    /// Sets the per-problem cache budget.
    pub fn with_max_cached_problems(mut self, max_cached_problems: usize) -> Self {
        self.max_cached_problems = max_cached_problems;
        self
    }

    /// Points the engine at a warm-start snapshot directory (see
    /// [`EngineConfig::warm_start_dir`]).
    pub fn with_warm_start_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.warm_start_dir = Some(dir.into());
        self
    }

    /// Checks the configuration is executable.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.max_cached_problems == 0 {
            return Err(ConfigError::ZeroField("max_cached_problems"));
        }
        Ok(())
    }
}

/// Per-run options: everything one inference run through a
/// [`crate::Session`] may choose independently of the engine it runs on.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// The algorithm to run.
    pub mode: Mode,
    /// The synthesizer backing `Synth`.
    pub synthesizer: SynthChoice,
    /// Bounds for the enumerative verifier.
    pub bounds: VerifierBounds,
    /// Search configuration for the synthesizer.
    pub search: SearchConfig,
    /// Which optimizations are enabled.
    pub optimizations: Optimizations,
    /// Wall-clock budget for the run (`None` = unlimited).  The paper uses
    /// 30 minutes.  Independent of external cancellation, which is always
    /// available through a [`crate::CancelToken`].
    pub timeout: Option<Duration>,
    /// Safety cap on CEGIS iterations.
    pub max_iterations: usize,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            mode: Mode::Hanoi,
            synthesizer: SynthChoice::Myth,
            bounds: VerifierBounds::default(),
            search: SearchConfig::default(),
            optimizations: Optimizations::default(),
            timeout: Some(Duration::from_secs(30 * 60)),
            max_iterations: 400,
        }
    }
}

impl RunOptions {
    /// The paper's options: full Hanoi, Myth-style synthesis, paper verifier
    /// bounds, 30-minute timeout.
    pub fn paper() -> Self {
        RunOptions::default()
    }

    /// Options for unit/integration tests and quick experiment runs: reduced
    /// verifier bounds and a short timeout.
    pub fn quick() -> Self {
        RunOptions {
            bounds: VerifierBounds::quick(),
            timeout: Some(Duration::from_secs(60)),
            max_iterations: 150,
            ..RunOptions::default()
        }
    }

    /// Switches the inference mode.
    pub fn with_mode(mut self, mode: Mode) -> Self {
        self.mode = mode;
        self
    }

    /// Switches the synthesizer.
    pub fn with_synthesizer(mut self, synthesizer: SynthChoice) -> Self {
        self.synthesizer = synthesizer;
        self
    }

    /// Overrides the verifier bounds.
    pub fn with_bounds(mut self, bounds: VerifierBounds) -> Self {
        self.bounds = bounds;
        self
    }

    /// Overrides the synthesizer search configuration.
    pub fn with_search(mut self, search: SearchConfig) -> Self {
        self.search = search;
        self
    }

    /// Enables the numeric search grammar: the bounded linear-arithmetic
    /// component roster and integer-literal pool of
    /// [`hanoi_synth::arith`] are added to the search, so invariants over
    /// `int`-carrying representations (`a*x + b*y <= c`, parity/residue
    /// constraints) become expressible.  Idempotent on the component roster
    /// is *not* guaranteed — call it once per options value.
    pub fn with_numeric_grammar(mut self, bounds: &hanoi_synth::arith::ArithBounds) -> Self {
        self.search
            .extra_components
            .extend(hanoi_synth::arith::components(bounds));
        self.search.int_literals = hanoi_synth::arith::literal_pool(bounds);
        self
    }

    /// Switches the optimizations.
    pub fn with_optimizations(mut self, optimizations: Optimizations) -> Self {
        self.optimizations = optimizations;
        self
    }

    /// Sets the wall-clock budget.
    pub fn with_timeout(mut self, timeout: Option<Duration>) -> Self {
        self.timeout = timeout;
        self
    }

    /// Sets the CEGIS iteration cap.
    pub fn with_max_iterations(mut self, max_iterations: usize) -> Self {
        self.max_iterations = max_iterations;
        self
    }

    /// Checks the options are executable.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.max_iterations == 0 {
            return Err(ConfigError::ZeroField("max_iterations"));
        }
        if self.bounds.single_count == 0 {
            return Err(ConfigError::ZeroField("bounds.single_count"));
        }
        if self.bounds.fuel == 0 {
            return Err(ConfigError::ZeroField("bounds.fuel"));
        }
        if self.search.schedule.is_empty() {
            return Err(ConfigError::EmptySchedule);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_paper() {
        let options = RunOptions::paper();
        assert_eq!(options.mode, Mode::Hanoi);
        assert_eq!(options.synthesizer, SynthChoice::Myth);
        assert_eq!(options.timeout, Some(Duration::from_secs(1800)));
        assert!(options.optimizations.synthesis_result_caching);
        assert!(options.optimizations.counterexample_list_caching);
        // The paper's implementation is serial; parallelism is opt-in.
        assert_eq!(EngineConfig::default().parallelism, 1);
    }

    #[test]
    fn optimization_presets() {
        assert!(!Optimizations::without_src().synthesis_result_caching);
        assert!(Optimizations::without_src().counterexample_list_caching);
        assert!(!Optimizations::without_clc().counterexample_list_caching);
        assert!(Optimizations::without_clc().synthesis_result_caching);
        assert!(!Optimizations::none().synthesis_result_caching);
    }

    #[test]
    fn validation_rejects_unexecutable_values() {
        assert_eq!(EngineConfig::default().validate(), Ok(()));
        assert_eq!(
            EngineConfig::default()
                .with_max_cached_problems(0)
                .validate(),
            Err(ConfigError::ZeroField("max_cached_problems"))
        );
        assert_eq!(RunOptions::paper().validate(), Ok(()));
        assert_eq!(RunOptions::quick().validate(), Ok(()));
        assert_eq!(
            RunOptions::quick().with_max_iterations(0).validate(),
            Err(ConfigError::ZeroField("max_iterations"))
        );
        let mut empty_schedule = RunOptions::quick();
        empty_schedule.search.schedule.clear();
        assert_eq!(empty_schedule.validate(), Err(ConfigError::EmptySchedule));
        assert!(ConfigError::EmptySchedule.to_string().contains("schedule"));
        assert!(ConfigError::ZeroField("max_iterations")
            .to_string()
            .contains("max_iterations"));
    }

    #[test]
    fn builder_style_updates() {
        let options = RunOptions::quick()
            .with_mode(Mode::OneShot)
            .with_synthesizer(SynthChoice::Fold)
            .with_timeout(None);
        assert_eq!(options.mode, Mode::OneShot);
        assert_eq!(options.synthesizer, SynthChoice::Fold);
        assert_eq!(options.timeout, None);
        assert_eq!(EngineConfig::default().with_parallelism(4).parallelism, 4);
        assert_eq!(Mode::all().len(), 4);
        assert_eq!(Mode::LinearArbitrary.label(), "LA");
        assert_eq!(SynthChoice::Fold.label(), "fold");
    }
}
