//! The long-lived inference engine: process-wide shared state and the
//! service entry points.
//!
//! The paper presents inference as a one-shot procedure, and until this
//! module existed the public API mirrored that: every run built a verifier
//! pool cache and a synthesizer term bank from scratch and dropped them with
//! the run.  An [`Engine`] inverts the ownership: *it* owns a keyed
//! registry of per-problem caches — the verifier's
//! [`hanoi_verifier::PoolCache`] and one persistent
//! [`hanoi_synth::TermBank`] per synthesizer back end — and hands out
//! [`Session`]s that run inference against them.  Re-running the same
//! problem (experiment-harness reruns, figure8 ablations, repeated service
//! requests) therefore starts *warm*: quantifier pools are served from the
//! cache instead of re-enumerated, and signature columns paid for by an
//! earlier run are reused by the next one.  Warm runs are outcome-identical
//! to cold runs — both caches are semantically transparent — which
//! `tests/engine_reuse_equivalence.rs` pins across the whole benchmark
//! suite.
//!
//! Cache entries are keyed by the identity of the problem's globals
//! environment (pinned, so address reuse can never alias two distinct
//! problems) *together with* the problem's structural fingerprint
//! ([`Problem::fingerprint`]) — a `Problem` clone with the same globals
//! but, say, an edited spec gets its own entry rather than another
//! problem's memoized outcomes.  The registry holds at most
//! [`EngineConfig::max_cached_problems`] entries and evicts the least
//! recently used beyond that.
//!
//! # The warm-start store
//!
//! Warmth survives the process.  [`Engine::save_state`] snapshots every
//! live entry's *persistable* caches — the check-outcome cache and the term
//! banks, whose keys are structural digests valid across processes — into
//! the content-addressed chunk store ([`hanoi_store::ChunkStore`]) at the
//! configured directory: each snapshot is split into chunks named by the
//! digest of their own bytes, with a per-problem manifest listing them, so
//! repeated checkpoints share unchanged chunks and two stores sync by
//! manifest diff.  An engine configured with
//! [`EngineConfig::warm_start_dir`] transparently restores those snapshots
//! when a problem is first opened: a freshly started process re-running a
//! problem an earlier process solved answers its verifier checks from the
//! restored cache without a single sweep (`RunStats::warm_start_loads`
//! reports the restore; the `warm-restart` workload of the `perfbench` suite
//! benchmark measures it).  Snapshots are advisory: a
//! corrupt *chunk* is quarantined individually and the restore proceeds with
//! the rest, while corrupt or truncated manifests, version-mismatched or
//! wrong-problem wrappers and components that fail to decode degrade to a
//! cold start — never a wrong answer, as `tests/warm_start_equivalence.rs`
//! pins across the benchmark suite.

use std::collections::HashMap;
use std::path::Path;
use std::sync::{Arc, Mutex, MutexGuard};

use hanoi_abstraction::Problem;
use hanoi_lang::digest::Digest;
use hanoi_lang::json::Json;
use hanoi_lang::value::Env;
use hanoi_store::{ChunkStore, WrapperLoad};
use hanoi_synth::TermBank;
use hanoi_verifier::{CheckCache, PoolCache};

use crate::config::{ConfigError, EngineConfig, RunOptions, SynthChoice};
use crate::outcome::RunResult;
use crate::session::Session;

/// The format version of the per-problem warm-start wrapper written by
/// [`Engine::save_state`] (the store's manifests carry it as
/// `wrapper_version`).  The wrapper holds the component snapshots (check
/// cache, term banks), which carry their own versions; this one covers the
/// wrapper layout.  Version 2 added a pool-slab shape table, which is no
/// longer written and is ignored on read; the layout is otherwise
/// unchanged, so the version stays 2 and stores remain readable by both
/// older and newer builds.
const WARM_START_VERSION: u64 = 2;

/// Locks a mutex, recovering from poison.
///
/// The engine's locks only ever guard single map operations (insert, remove,
/// lookup on `HashMap`s), which cannot be observed half-applied: a panic on
/// one session thread therefore leaves the guarded data intact, and
/// propagating the poison would turn one isolated panic into an engine-wide
/// outage — exactly what a long-lived service must not do.  The deeper
/// caches (pool cache, check cache, term bank) keep standard poisoning; a
/// panic inside *them* is handled by [`crate::Session::run_caught`], which
/// evicts the problem's whole entry.
fn lock_tolerant<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// The warm caches the engine keeps for one problem.
#[derive(Debug)]
pub(crate) struct ProblemCaches {
    /// The problem's globals environment, never read: it is held so the
    /// registry key (its address identity) can never suffer address reuse
    /// while the entry lives.
    _globals: Env,
    /// The problem's stable structural fingerprint — the warm-start manifest
    /// name, and the check that a snapshot belongs to this problem.
    fingerprint: Digest,
    /// The shared verifier pool cache: `(type, count, size)` pools enumerated
    /// at most once per engine, not once per run.  Pools are not persisted:
    /// they are deterministically re-derivable, and a fully warm restored
    /// run answers every check from the check-outcome cache without
    /// requesting a pool.
    pools: Arc<PoolCache>,
    /// The shared check-outcome cache: completed verifier checks memoized
    /// under their full inputs, so re-runs skip entire sweeps.
    checks: Arc<CheckCache>,
    /// One persistent term bank per synthesizer back end.  The driver's
    /// synthesizer and the OneShot baseline of the same session (and every
    /// later run of the problem) share the bank of their back end.
    banks: Mutex<HashMap<SynthChoice, Arc<TermBank>>>,
    /// How many snapshot components (check cache + term banks) this entry
    /// was restored from on creation (`0` = cold start).  Surfaced as
    /// `RunStats::warm_start_loads`.
    warm_start_loads: u64,
    /// How many snapshot artifacts were quarantined at entry creation:
    /// individual chunks whose bytes failed their content-address re-hash
    /// (each renamed to `<digest>.json.corrupt`; the restore proceeded with
    /// the remaining chunks), a defective manifest, or a reassembled wrapper
    /// that failed validation.  Surfaced as
    /// `RunStats::warm_start_quarantined`.
    warm_start_quarantined: u64,
}

impl ProblemCaches {
    fn new(problem: &Problem, fingerprint: Digest) -> Self {
        ProblemCaches {
            _globals: problem.globals.clone(),
            fingerprint,
            pools: PoolCache::for_problem(problem),
            checks: Arc::new(CheckCache::default()),
            banks: Mutex::new(HashMap::new()),
            warm_start_loads: 0,
            warm_start_quarantined: 0,
        }
    }

    /// Builds the entry for `problem`, restoring the check cache and term
    /// banks from the warm-start store at `warm_dir`: when
    /// `manifests/<fingerprint>.json` exists, the wrapper is reassembled
    /// chunk by chunk, quarantining (and counting) corrupt chunks
    /// individually while the restore proceeds with the rest.  Every failure
    /// mode — missing artifacts, I/O error, parse error, version or
    /// fingerprint mismatch, corrupt component — degrades to a cold start
    /// (or a partially warm one); a snapshot can never make a session fail
    /// or (fingerprint collisions aside) answer for a different problem.
    fn restore_or_new(problem: &Problem, fingerprint: Digest, warm_dir: &Path) -> Self {
        let mut caches = ProblemCaches::new(problem, fingerprint);
        let Ok(store) = ChunkStore::open(warm_dir) else {
            return caches;
        };
        match store.load_wrapper(fingerprint) {
            WrapperLoad::Loaded {
                wrapper,
                quarantined,
            } => {
                caches.warm_start_quarantined = quarantined;
                match validate_snapshot_json(&wrapper, fingerprint) {
                    Some((checks, banks, loads)) => {
                        caches.checks = Arc::new(checks);
                        caches.banks = Mutex::new(banks);
                        caches.warm_start_loads = loads;
                    }
                    // A reassembled wrapper that fails engine validation
                    // (e.g. a future wrapper version in the manifest) starts
                    // cold; the manifest stays for diagnosis.
                    None => caches.warm_start_quarantined += 1,
                }
            }
            // The store quarantined the defective manifest.
            WrapperLoad::Corrupt => caches.warm_start_quarantined += 1,
            WrapperLoad::Missing => {}
        }
        caches
    }

    /// Serializes this entry's persistable caches.  Banks that cannot be
    /// encoded structurally are skipped; the check cache always serializes
    /// (only completed, first-order outcomes ever reach it).
    fn snapshot_json(&self) -> Json {
        let banks = lock_tolerant(&self.banks);
        let bank_objs: Vec<(String, Json)> = banks
            .iter()
            .filter_map(|(choice, bank)| Some((choice.label().to_string(), bank.to_json()?)))
            .collect();
        Json::Obj(
            [
                ("version".to_string(), Json::Num(WARM_START_VERSION as f64)),
                (
                    "kind".to_string(),
                    Json::Str("hanoi-warm-start".to_string()),
                ),
                (
                    "fingerprint".to_string(),
                    Json::Str(self.fingerprint.to_hex()),
                ),
                ("check_cache".to_string(), self.checks.to_json()),
                (
                    "banks".to_string(),
                    Json::Obj(bank_objs.into_iter().collect()),
                ),
            ]
            .into_iter()
            .collect(),
        )
    }

    /// How many snapshot components this entry was warm-started from.
    pub(crate) fn warm_start_loads(&self) -> u64 {
        self.warm_start_loads
    }

    /// Whether a defective snapshot was quarantined when this entry was
    /// created.
    pub(crate) fn warm_start_quarantined(&self) -> u64 {
        self.warm_start_quarantined
    }

    /// The shared pool cache.
    pub(crate) fn pools(&self) -> Arc<PoolCache> {
        Arc::clone(&self.pools)
    }

    /// The shared check-outcome cache.
    pub(crate) fn checks(&self) -> Arc<CheckCache> {
        Arc::clone(&self.checks)
    }

    /// The persistent term bank for one synthesizer back end, created on
    /// first use.
    pub(crate) fn bank(&self, choice: SynthChoice) -> Arc<TermBank> {
        let mut banks = lock_tolerant(&self.banks);
        Arc::clone(banks.entry(choice).or_default())
    }
}

/// Validates a warm-start wrapper reassembled from a chunked manifest and
/// decodes its components; `None` means any defect.  A pool-slab shape
/// table left by an older build is ignored.
fn validate_snapshot_json(
    json: &Json,
    fingerprint: Digest,
) -> Option<(CheckCache, HashMap<SynthChoice, Arc<TermBank>>, u64)> {
    if json.get("version").and_then(Json::as_usize)? as u64 != WARM_START_VERSION {
        return None;
    }
    if json.get("kind").and_then(Json::as_str)? != "hanoi-warm-start" {
        return None;
    }
    // The fingerprint inside the wrapper must match the problem being
    // opened: a renamed or copied snapshot is rejected rather than trusted.
    let stored = Digest::from_hex(json.get("fingerprint").and_then(Json::as_str)?)?;
    if stored != fingerprint {
        return None;
    }
    let checks =
        CheckCache::from_json(json.get("check_cache")?, CheckCache::DEFAULT_CAPACITY).ok()?;
    let mut loads = 1;
    let mut banks = HashMap::new();
    if let Json::Obj(bank_objs) = json.get("banks")? {
        for (label, bank_json) in bank_objs {
            let choice = SynthChoice::from_label(label)?;
            let bank = TermBank::from_json(bank_json).ok()?;
            banks.insert(choice, Arc::new(bank));
            loads += 1;
        }
    } else {
        return None;
    }
    Some((checks, banks, loads))
}

/// The registry key for one problem's caches.
///
/// The globals identity alone is *not* enough: `Problem` fields are public,
/// so a clone sharing the globals `Env` can carry a different specification,
/// interface or type environment — and the memoized check outcomes depend on
/// all of them.  The key therefore pairs the identity (covering module
/// semantics — the closures the pools and banks captured) with the problem's
/// structural fingerprint ([`Problem::fingerprint`]), which covers
/// everything else a check outcome depends on — and doubles as the
/// warm-start manifest name.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct ProblemKey {
    /// Address identity of the globals environment (pinned by the entry).
    globals: usize,
    /// Structural fingerprint of the problem definition.  Computed once per
    /// session open; collisions require structurally identical definitions
    /// (up to the 2⁻¹²⁸ digest bound), which is exactly when sharing is
    /// correct.
    fingerprint: Digest,
}

impl ProblemKey {
    fn for_problem(problem: &Problem) -> Self {
        ProblemKey {
            globals: problem.globals.identity(),
            fingerprint: problem.fingerprint(),
        }
    }
}

/// The keyed cache registry: per-problem entries with LRU eviction.
#[derive(Debug, Default)]
struct Registry {
    /// Entries keyed by [`ProblemKey`].
    entries: HashMap<ProblemKey, (u64, Arc<ProblemCaches>)>,
    /// Monotonic recency stamp.
    clock: u64,
}

/// A long-lived inference engine.
///
/// One engine per process (or per tenant) is the intended shape: it is
/// `Send + Sync`, every method takes `&self`, and all shared state sits
/// behind its own lock, so concurrent sessions — including the parallel runs
/// of [`Engine::run_batch`] — are safe.
///
/// ```
/// use hanoi::{Engine, RunOptions};
/// use hanoi_abstraction::Problem;
///
/// let problem = Problem::from_source(r#"
///     type nat = O | S of nat
///     interface I = sig
///       type t
///       val make : t
///     end
///     module M : I = struct
///       type t = nat
///       let make : t = O
///     end
///     spec (s : t) = s == s
/// "#).unwrap();
/// let engine = Engine::with_defaults();
/// let session = engine.session(&problem);
/// let first = session.run(&RunOptions::quick());
/// let warm = session.run(&RunOptions::quick()); // served from warm caches
/// assert_eq!(first.outcome, warm.outcome);
/// ```
#[derive(Debug)]
pub struct Engine {
    config: EngineConfig,
    registry: Mutex<Registry>,
}

impl Default for Engine {
    fn default() -> Self {
        Engine::with_defaults()
    }
}

impl Engine {
    /// Creates an engine, validating the configuration.
    pub fn new(config: EngineConfig) -> Result<Engine, ConfigError> {
        config.validate()?;
        Ok(Engine {
            config,
            registry: Mutex::new(Registry::default()),
        })
    }

    /// An engine with the default configuration (serial, 64 cached
    /// problems).
    pub fn with_defaults() -> Engine {
        Engine::new(EngineConfig::default()).expect("the default engine config is valid")
    }

    /// The engine-wide configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Opens a session on `problem`: the handle runs belonging to one
    /// problem go through.  Sessions borrow the engine; any number may be
    /// open at once.
    pub fn session<'e, 'p>(&'e self, problem: &'p Problem) -> Session<'e, 'p> {
        Session::new(self, problem, self.caches_for(problem))
    }

    /// Convenience: opens a session and executes one run.
    pub fn run(&self, problem: &Problem, options: &RunOptions) -> RunResult {
        self.session(problem).run(options)
    }

    /// Executes many runs, side by side on the engine's worker threads (the
    /// [`EngineConfig::parallelism`] knob), and returns their results in the
    /// order of `jobs` — the result order is deterministic regardless of
    /// scheduling, and each run is itself deterministic, so a batch is
    /// reproducible end to end.  Each run executes on one thread.  Jobs
    /// over the same problem share that problem's warm caches, exactly like
    /// sequential sessions would, and each job's statistics count only its
    /// own work.
    pub fn run_batch(&self, jobs: &[BatchJob<'_>]) -> Vec<RunResult> {
        let workers = hanoi_lang::parallel::effective_workers(self.config.parallelism);
        hanoi_lang::parallel::par_map(jobs, workers, |job| {
            self.session(job.problem).run(&job.options)
        })
    }

    /// How many problems currently have warm caches.
    pub fn cached_problems(&self) -> usize {
        lock_tolerant(&self.registry).entries.len()
    }

    /// Drops the cache entry for `problem`, returning whether one existed.
    ///
    /// This is the panic-isolation hook: when a run panics mid-flight
    /// ([`crate::Session::run_caught`]), the problem's caches may hold
    /// poisoned locks or half-applied state, so the entry is discarded —
    /// the next session on the problem starts cold (or from the warm-start
    /// store) but *correct*, and no other problem is affected.  Sessions
    /// already holding the old entry keep their `Arc` and simply stop
    /// sharing.
    pub fn evict_problem(&self, problem: &Problem) -> bool {
        let key = ProblemKey::for_problem(problem);
        lock_tolerant(&self.registry).entries.remove(&key).is_some()
    }

    /// Persists every live cache entry to the warm-start store at `dir`,
    /// returning how many snapshots were written.
    ///
    /// Each snapshot is saved **chunked**: split into content-addressed
    /// chunks (check-cache stripes, term-bank core/parts) with
    /// a per-problem manifest — chunks already present from an earlier save
    /// are shared, so a periodic checkpoint whose caches only grew writes
    /// deltas, and two stores can sync by manifest diff (`hanoi-store
    /// sync`).  Every file goes through the shared atomic-write helper
    /// ([`hanoi_lang::util::write_atomic`]): temp sibling, **fsync**,
    /// rename — neither a crash mid-checkpoint nor a concurrent reader can
    /// observe a torn artifact.
    ///
    /// Saving is cheap relative to the sweeps the snapshots replace, but not
    /// free; a long-lived service calls this at checkpoints (shutdown,
    /// deploy, periodic flush), not per run.
    pub fn save_state(&self, dir: impl AsRef<Path>) -> std::io::Result<usize> {
        let store = ChunkStore::open(dir)?;
        let mut written = 0;
        for caches in self.live_entries() {
            store.save_wrapper(&caches.snapshot_json())?;
            written += 1;
        }
        Ok(written)
    }

    /// Snapshots the entry list, so serialization happens outside the
    /// registry lock (it can be large; sessions must not stall behind it).
    fn live_entries(&self) -> Vec<Arc<ProblemCaches>> {
        let registry = lock_tolerant(&self.registry);
        registry
            .entries
            .values()
            .map(|(_, entry)| Arc::clone(entry))
            .collect()
    }

    /// [`Engine::save_state`] into the configured
    /// [`EngineConfig::warm_start_dir`]; a no-op returning `0` when none is
    /// configured.
    pub fn save_state_to_warm_dir(&self) -> std::io::Result<usize> {
        match &self.config.warm_start_dir {
            Some(dir) => self.save_state(dir),
            None => Ok(0),
        }
    }

    /// Looks up (or creates) the cache entry for `problem`, refreshing its
    /// recency and evicting the least recently used entry beyond the budget.
    /// Entry creation consults the warm-start store when one is configured.
    fn caches_for(&self, problem: &Problem) -> Arc<ProblemCaches> {
        let key = ProblemKey::for_problem(problem);
        if let Some(entry) = self.touch(&key) {
            return entry;
        }
        // Build the entry — including any warm-start disk restore — *outside*
        // the registry lock: a multi-megabyte snapshot parse must not stall
        // concurrent session opens on other problems.
        let fresh = Arc::new(match &self.config.warm_start_dir {
            Some(dir) => ProblemCaches::restore_or_new(problem, key.fingerprint, dir),
            None => ProblemCaches::new(problem, key.fingerprint),
        });
        let mut registry = lock_tolerant(&self.registry);
        registry.clock += 1;
        let stamp = registry.clock;
        // Double-checked: another session may have created the entry while we
        // were restoring; keep theirs so every session shares one entry.
        if let Some((recency, entry)) = registry.entries.get_mut(&key) {
            *recency = stamp;
            return Arc::clone(entry);
        }
        registry.entries.insert(key, (stamp, Arc::clone(&fresh)));
        while registry.entries.len() > self.config.max_cached_problems {
            let oldest = registry
                .entries
                .iter()
                .min_by_key(|(_, (recency, _))| *recency)
                .map(|(k, _)| k.clone())
                .expect("non-empty registry");
            registry.entries.remove(&oldest);
        }
        fresh
    }

    /// Refreshes and returns the live entry for `key`, when one exists.
    fn touch(&self, key: &ProblemKey) -> Option<Arc<ProblemCaches>> {
        let mut registry = lock_tolerant(&self.registry);
        registry.clock += 1;
        let stamp = registry.clock;
        let (recency, entry) = registry.entries.get_mut(key)?;
        *recency = stamp;
        Some(Arc::clone(entry))
    }
}

/// One unit of work for [`Engine::run_batch`].
#[derive(Debug, Clone)]
pub struct BatchJob<'p> {
    /// The problem to run inference on.
    pub problem: &'p Problem,
    /// The per-run options.
    pub options: RunOptions,
}

impl<'p> BatchJob<'p> {
    /// Creates a batch job.
    pub fn new(problem: &'p Problem, options: RunOptions) -> Self {
        BatchJob { problem, options }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Mode;
    use crate::outcome::Outcome;
    use hanoi_lang::util::Deadline;
    use hanoi_lang::value::Value;
    use hanoi_synth::{ExampleSet, MythSynth, SearchConfig, SynthCounters, Synthesizer};

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
    fn invalid_configs_are_rejected() {
        assert!(Engine::new(EngineConfig::default()).is_ok());
        assert!(Engine::new(EngineConfig::default().with_max_cached_problems(0)).is_err());
    }

    #[test]
    fn warm_reruns_reuse_the_pool_cache_and_term_bank() {
        let problem = Problem::from_source(LIST_SET).unwrap();
        let engine = Engine::with_defaults();
        let options = RunOptions::quick();

        let cold = engine.run(&problem, &options);
        assert!(cold.is_success(), "{}", cold.outcome);
        assert!(cold.stats.pool_builds > 0, "cold runs enumerate pools");

        let warm = engine.run(&problem, &options);
        assert_eq!(warm.outcome, cold.outcome, "warm must equal cold");
        assert_eq!(
            warm.stats.pool_builds, 0,
            "warm runs must not enumerate any pool: {:?}",
            warm.stats
        );
        assert_eq!(warm.stats.pool_slab_builds, 0);
        // Every verifier check of the identical re-run is answered from the
        // cross-run check-outcome cache — no sweeps at all.
        assert_eq!(
            warm.stats.verification_cache_hits as usize, warm.stats.verification_calls,
            "warm checks must be cache hits: {:?}",
            warm.stats
        );
        assert_eq!(cold.stats.verification_cache_hits, 0);
        assert!(
            warm.stats.synth_terms_enumerated <= cold.stats.synth_terms_enumerated,
            "a warm bank cannot enumerate more terms than a cold one"
        );
        assert_eq!(engine.cached_problems(), 1);
    }

    #[test]
    fn problems_sharing_globals_but_not_spec_get_separate_caches() {
        // `Problem` fields are public: a clone can keep the globals Env (and
        // its identity) while carrying a different specification.  Its check
        // outcomes differ, so it must not share the original's cache entry.
        let problem = Problem::from_source(LIST_SET).unwrap();
        let mut weaker = problem.clone();
        weaker.spec = Problem::from_source(
            &LIST_SET.replace(
                "spec (s : t) (i : nat) =\n          not (lookup empty i) && lookup (insert s i) i && not (lookup (delete s i) i)",
                "spec (s : t) (i : nat) = not (lookup empty i)",
            ),
        )
        .unwrap()
        .spec;
        assert_eq!(
            problem.globals.identity(),
            weaker.globals.identity(),
            "the clone shares the globals Env by construction"
        );

        let engine = Engine::with_defaults();
        let _ = engine.session(&problem);
        let _ = engine.session(&weaker);
        assert_eq!(
            engine.cached_problems(),
            2,
            "distinct specs, distinct caches"
        );

        // And the runs disagree exactly as standalone runs would: the
        // original needs the no-duplicates invariant, the weakened spec is
        // satisfied by `true`-like candidates.
        let strict = engine.run(&problem, &RunOptions::quick());
        let weak = engine.run(&weaker, &RunOptions::quick());
        let standalone_weak = Engine::with_defaults().run(&weaker, &RunOptions::quick());
        assert_eq!(weak.outcome, standalone_weak.outcome);
        assert!(strict.is_success());
    }

    #[test]
    fn lru_eviction_respects_the_budget() {
        let problem_a = Problem::from_source(LIST_SET).unwrap();
        let buggy = LIST_SET.replace("if lookup l x then l else Cons (x, l)", "Cons (x, l)");
        let problem_b = Problem::from_source(&buggy).unwrap();
        let problem_c = Problem::from_source(LIST_SET).unwrap();

        let engine = Engine::new(EngineConfig::default().with_max_cached_problems(2)).unwrap();
        let a = engine.session(&problem_a);
        let _b = engine.session(&problem_b);
        assert_eq!(engine.cached_problems(), 2);
        // Touch A so B is the LRU entry, then open C: B must be evicted.
        let _a_again = engine.session(&problem_a);
        let _c = engine.session(&problem_c);
        assert_eq!(engine.cached_problems(), 2);
        // A's caches survived: a new session on A shares them.
        let a_caches = engine.caches_for(&problem_a);
        assert!(Arc::ptr_eq(&a_caches, a.caches()));
    }

    #[test]
    fn the_bank_is_scoped_to_one_problem() {
        // Two problems with the same operation names but different `insert`
        // semantics.  A bank memoizes evaluations by component name and a
        // synthesizer trusts the bank it is handed, so the registry must
        // give each problem (and each back end) its own.
        let problem_a = Problem::from_source(LIST_SET).unwrap();
        let buggy = LIST_SET.replace("if lookup l x then l else Cons (x, l)", "Cons (x, l)");
        assert_ne!(buggy, LIST_SET, "replacement must apply");
        let problem_b = Problem::from_source(&buggy).unwrap();

        let engine = Engine::with_defaults();
        let bank_a = engine.caches_for(&problem_a).bank(SynthChoice::Myth);
        let bank_b = engine.caches_for(&problem_b).bank(SynthChoice::Myth);
        assert!(
            !Arc::ptr_eq(&bank_a, &bank_b),
            "distinct problems, distinct banks"
        );
        let caches_a = engine.caches_for(&problem_a);
        assert!(Arc::ptr_eq(&bank_a, &caches_a.bank(SynthChoice::Myth)));
        assert!(!Arc::ptr_eq(&bank_a, &caches_a.bank(SynthChoice::Fold)));

        // Problem B's bank, handed out after A's was filled, answers exactly
        // like a fresh one.
        let examples = ExampleSet::from_sets(
            [
                Value::nat_list(&[]),
                Value::nat_list(&[0]),
                Value::nat_list(&[1, 0]),
            ],
            [Value::nat_list(&[0, 0])],
        )
        .unwrap()
        .trace_completed(&problem_a.tyenv, problem_a.concrete_type())
        .0;
        let synth = MythSynth::new().with_config(SearchConfig::quick());
        let (counters, deadline) = (SynthCounters::default(), Deadline::none());
        synth
            .synthesize(&problem_a, &bank_a, &counters, &examples, &deadline)
            .unwrap();
        let served = synth.synthesize(&problem_b, &bank_b, &counters, &examples, &deadline);
        let fresh = synth.synthesize(
            &problem_b,
            &TermBank::new(),
            &counters,
            &examples,
            &deadline,
        );
        assert_eq!(served, fresh);
        assert_eq!(bank_b.stats().sessions, 1);
    }

    /// A unique temp directory per test (no external tempfile crate in the
    /// offline build).
    fn scratch_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "hanoi-warm-test-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn warm_start_store_round_trips_across_engines() {
        let problem = Problem::from_source(LIST_SET).unwrap();
        let options = RunOptions::quick();
        let dir = scratch_dir("roundtrip");

        // "Process 1": solve, then checkpoint.
        let first_engine = Engine::with_defaults();
        let cold = first_engine.run(&problem, &options);
        assert!(cold.is_success(), "{}", cold.outcome);
        assert_eq!(cold.stats.warm_start_loads, 0);
        assert_eq!(first_engine.save_state(&dir).unwrap(), 1);
        let manifest_path = dir
            .join("manifests")
            .join(format!("{}.json", problem.fingerprint().to_hex()));
        assert!(manifest_path.is_file(), "{manifest_path:?}");

        // "Process 2": a brand-new engine restores from disk; every check of
        // the re-run is answered from the restored cache.
        let second_engine = Engine::new(EngineConfig::default().with_warm_start_dir(&dir)).unwrap();
        let restored = second_engine.run(&problem, &options);
        assert_eq!(restored.outcome, cold.outcome);
        assert_eq!(restored.stats.iterations, cold.stats.iterations);
        assert!(
            restored.stats.warm_start_loads >= 2,
            "check cache + at least one bank: {:?}",
            restored.stats
        );
        assert_eq!(
            restored.stats.verification_cache_hits as usize, restored.stats.verification_calls,
            "restored checks must all be snapshot hits: {:?}",
            restored.stats
        );
        assert_eq!(
            restored.stats.pool_builds, 0,
            "a fully warm restored run never needs a pool"
        );

        // save_state_to_warm_dir writes through the configured directory.
        assert_eq!(second_engine.save_state_to_warm_dir().unwrap(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn wrappers_with_leftover_pool_shapes_still_validate() {
        // Older builds wrote a `pool_shapes` table into every wrapper; its
        // presence must not cost the restore.
        let problem = Problem::from_source(LIST_SET).unwrap();
        let engine = Engine::with_defaults();
        assert!(engine.run(&problem, &RunOptions::quick()).is_success());
        let Json::Obj(mut wrapper) = engine.caches_for(&problem).snapshot_json() else {
            panic!("the wrapper is an object");
        };
        wrapper.insert(
            "pool_shapes".to_string(),
            Json::Arr(vec![Json::obj([
                ("ty", Json::Str("list".to_string())),
                ("size", Json::Num(3.0)),
            ])]),
        );
        let (_, banks, loads) = validate_snapshot_json(&Json::Obj(wrapper), problem.fingerprint())
            .expect("a leftover pool_shapes key is ignored");
        assert!(!banks.is_empty());
        assert_eq!(loads, 1 + banks.len() as u64);
    }

    #[test]
    fn tampered_chunks_quarantine_individually_and_the_rest_restores() {
        let problem = Problem::from_source(LIST_SET).unwrap();
        let options = RunOptions::quick();
        let dir = scratch_dir("chunk-tamper");
        let engine = Engine::with_defaults();
        let cold = engine.run(&problem, &options);
        assert!(cold.is_success(), "{}", cold.outcome);
        engine.save_state(&dir).unwrap();

        // Flip bytes in one chunk: its content address no longer proves it.
        let store = hanoi_store::ChunkStore::open(&dir).unwrap();
        let manifest = store.manifest(problem.fingerprint()).unwrap();
        let victim = manifest.entries.last().unwrap().chunk;
        std::fs::write(
            dir.join("chunks").join(format!("{}.json", victim.to_hex())),
            "tampered",
        )
        .unwrap();

        let second = Engine::new(EngineConfig::default().with_warm_start_dir(&dir)).unwrap();
        let result = second.run(&problem, &options);
        assert_eq!(result.outcome, cold.outcome, "correctness is untouchable");
        assert_eq!(
            result.stats.warm_start_quarantined, 1,
            "exactly the tampered chunk: {:?}",
            result.stats
        );
        assert!(
            result.stats.warm_start_loads > 0,
            "the restore proceeded with the surviving chunks: {:?}",
            result.stats
        );
        let quarantined = dir
            .join("chunks")
            .join(format!("{}.json.corrupt", victim.to_hex()));
        assert!(quarantined.is_file(), "{quarantined:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_snapshots_fall_back_to_a_cold_start() {
        let problem = Problem::from_source(LIST_SET).unwrap();
        let options = RunOptions::quick();
        let dir = scratch_dir("corrupt");
        let engine = Engine::with_defaults();
        let cold = engine.run(&problem, &options);
        engine.save_state(&dir).unwrap();
        let manifests = dir.join("manifests");
        let path = manifests.join(format!("{}.json", problem.fingerprint().to_hex()));
        let text = std::fs::read_to_string(&path).unwrap();
        let restore = |problem: &Problem| {
            Engine::new(EngineConfig::default().with_warm_start_dir(&dir))
                .unwrap()
                .run(problem, &options)
        };

        // Truncate the manifest mid-file: parse fails, the run is cold and
        // still correct — and the broken manifest is quarantined so the next
        // process start does not re-parse it.
        std::fs::write(&path, &text[..text.len() / 2]).unwrap();
        let result = restore(&problem);
        assert_eq!(result.outcome, cold.outcome);
        assert_eq!(result.stats.warm_start_loads, 0, "{:?}", result.stats);
        assert_eq!(result.stats.verification_cache_hits, 0);
        assert_eq!(result.stats.warm_start_quarantined, 1, "{:?}", result.stats);
        let quarantined = path.with_extension("json.corrupt");
        assert!(quarantined.is_file(), "{quarantined:?}");
        assert!(
            !path.is_file(),
            "the broken manifest must be moved, not copied"
        );

        // A wrapper-version bump is rejected just as cleanly.
        let bumped = text.replacen("\"wrapper_version\": 2", "\"wrapper_version\": 999", 1);
        assert_ne!(bumped, text, "the wrapper version must be present");
        std::fs::write(&path, bumped).unwrap();
        let result = restore(&problem);
        assert_eq!(result.outcome, cold.outcome);
        assert_eq!(result.stats.warm_start_loads, 0);
        assert_eq!(result.stats.warm_start_quarantined, 1);

        // A manifest copied onto another problem's fingerprint is refused.
        std::fs::write(&path, &text).unwrap();
        let buggy = LIST_SET.replace("if lookup l x then l else Cons (x, l)", "Cons (x, l)");
        let other = Problem::from_source(&buggy).unwrap();
        let stolen = manifests.join(format!("{}.json", other.fingerprint().to_hex()));
        std::fs::copy(&path, &stolen).unwrap();
        let result = restore(&other);
        assert_eq!(result.stats.warm_start_loads, 0, "wrong-problem manifest");
        assert_eq!(result.stats.warm_start_quarantined, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn timeout_is_reported() {
        let problem = Problem::from_source(LIST_SET).unwrap();
        let options = RunOptions::quick().with_timeout(Some(std::time::Duration::ZERO));
        let result = Engine::with_defaults().run(&problem, &options);
        assert_eq!(result.outcome, Outcome::Timeout);
    }

    #[test]
    fn batches_preserve_job_order_and_share_caches() {
        let problem = Problem::from_source(LIST_SET).unwrap();
        let buggy = LIST_SET.replace("if lookup l x then l else Cons (x, l)", "Cons (x, l)");
        let buggy_problem = Problem::from_source(&buggy).unwrap();

        let engine = Engine::new(EngineConfig::default().with_parallelism(2)).unwrap();
        let jobs = vec![
            BatchJob::new(&problem, RunOptions::quick()),
            BatchJob::new(&buggy_problem, RunOptions::quick()),
            BatchJob::new(&problem, RunOptions::quick().with_mode(Mode::OneShot)),
        ];
        let results = engine.run_batch(&jobs);
        assert_eq!(results.len(), 3);
        assert!(
            matches!(results[0].outcome, Outcome::Invariant(_)),
            "job 0: {}",
            results[0].outcome
        );
        assert!(
            matches!(results[1].outcome, Outcome::SpecViolation(_)),
            "job 1: {}",
            results[1].outcome
        );
        // Deterministic order: rerunning yields the same outcomes slot by
        // slot.
        let again = engine.run_batch(&jobs);
        for (first, second) in results.iter().zip(&again) {
            assert_eq!(first.outcome, second.outcome);
        }
        assert_eq!(engine.cached_problems(), 2);
    }

    #[test]
    fn infers_the_no_duplicates_invariant_for_the_running_example() {
        let problem = Problem::from_source(LIST_SET).unwrap();
        let result = Engine::with_defaults().run(&problem, &RunOptions::quick());
        let invariant = match &result.outcome {
            Outcome::Invariant(inv) => inv.clone(),
            other => panic!("expected an invariant, got {other} ({:?})", result.stats),
        };
        // The invariant must hold on constructible (duplicate-free) lists and
        // reject lists with duplicates, like the paper's `I⋆`.
        for positive in [
            Value::nat_list(&[]),
            Value::nat_list(&[3]),
            Value::nat_list(&[2, 5]),
            Value::nat_list(&[4, 2, 0]),
        ] {
            assert!(
                problem.eval_predicate(&invariant, &positive).unwrap(),
                "rejected constructible value {positive}: {invariant}"
            );
        }
        for negative in [
            Value::nat_list(&[1, 1]),
            Value::nat_list(&[0, 2, 0]),
            Value::nat_list(&[2, 2, 1]),
        ] {
            assert!(
                !problem.eval_predicate(&invariant, &negative).unwrap(),
                "accepted spec-violating value {negative}: {invariant}"
            );
        }
        // Statistics are populated.
        assert!(result.stats.verification_calls > 0);
        assert!(result.stats.synthesis_calls > 0);
        assert!(result.stats.invariant_size.is_some());
        assert!(result.stats.iterations > 1);
        assert!(result.stats.final_positives > 0);
    }

    #[test]
    fn reports_spec_violations_for_buggy_modules() {
        // An "insert" that does not de-duplicate: the module does not satisfy
        // the SET specification, and Hanoi must report a constructible
        // counterexample rather than an invariant.
        let buggy = LIST_SET.replace("if lookup l x then l else Cons (x, l)", "Cons (x, l)");
        let problem = Problem::from_source(&buggy).unwrap();
        let result = Engine::with_defaults().run(&problem, &RunOptions::quick());
        match result.outcome {
            Outcome::SpecViolation(witnesses) => {
                assert!(!witnesses.is_empty());
            }
            other => panic!("expected a spec violation, got {other}"),
        }
    }
}
