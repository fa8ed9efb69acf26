//! The shared, memoized value-pool subsystem.
//!
//! Every verifier check instantiates its quantifiers from *pools*: the
//! smallest `count` first-order values of a type, none larger than `size`
//! nodes (§4.3).  A CEGIS run makes dozens of candidates, three checks per
//! candidate and several quantifier positions per check, all over the same
//! few pools, so [`PoolCache`] makes enumeration a once-per-session cost:
//!
//! * **per-size slabs** (`(Type, size) → Arc<[Value]>`) are the unit of
//!   construction and sharing.  A pool request only builds the slabs it is
//!   missing, so pools grow monotonically: asking for a larger `count` or
//!   `size` later extends the cached state instead of re-enumerating;
//! * **assembled pools** (`(Type, count, size) → Arc<Vec<Value>>`) are the
//!   size-ordered prefixes checks actually consume, shared by `Arc` so
//!   repeated checks pay zero clone cost;
//! * **function pools** memoize the enumerated higher-order argument
//!   candidates of §4.2, which are even more expensive to build (term
//!   generation plus evaluation) than value pools;
//! * slabs are built one size at a time, smallest first, each by a
//!   [`ValueEnumerator`] seeded with the type's smaller slabs, and only
//!   until the request's `count` is reached;
//! * **spec memos** ([`SpecMemo`]) record, per problem, fuel bound and
//!   quantifier pool bounds, the tuples on which the specification held in
//!   an earlier sufficiency check of the session (see [`crate::tester`]).
//!
//! The cache holds state only.  Its hits and builds are counted in the
//! [`VerifierCounters`] of the verifier that asked, so several verifiers
//! (several runs) may share one cache and each still counts its own work.
//!
//! Nothing here is persisted across processes: pool contents are a
//! deterministic function of `(type, size)`, spec memos are rebuilt by the
//! checks of a session, and a warm-started run that answers its checks from
//! the check-outcome cache never requests a pool.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use hanoi_abstraction::Problem;
use hanoi_lang::digest::Digest;
use hanoi_lang::enumerate::ValueEnumerator;
use hanoi_lang::types::{Type, TypeEnv};
use hanoi_lang::value::Value;

use crate::bounds::VerifierBounds;
use crate::hof::{enumerate_function_candidates, FunctionCandidate};
use crate::verifier::VerifierCounters;

/// Per-size slab store: all values of a type with exactly `size` nodes.
type SlabMap = HashMap<(Type, usize), Arc<Vec<Value>>>;
/// Assembled pool store, keyed by `(type, count, size)`.
type PoolMap = HashMap<(Type, usize, usize), Arc<Vec<Value>>>;
/// Function-candidate store, keyed by `(globals identity, signature, body
/// size, max count, fuel)`.  The problem's globals identity
/// ([`hanoi_lang::value::Env::identity`]) is part of the key because the
/// cached closures capture those globals — a cache shared across problems
/// must not serve one module's operations to another.  Fuel is part of the
/// key because enumeration *evaluates* each candidate and drops the ones
/// that run out of budget.
type FunctionMap = HashMap<(usize, Type, usize, usize, u64), Arc<Vec<FunctionCandidate>>>;
/// Spec memo store, keyed by `(problem fingerprint, fuel, count, size)`.
/// The fingerprint fixes the spec's parameter types, and a pool is a
/// deterministic function of `(type, count, size)`, so the key fixes the
/// quantifier pools a memo's tuple indices point into.
type SpecMemoMap = HashMap<(Digest, u64, usize, usize), Arc<SpecMemo>>;

/// The most tuples a [`SpecMemo`] covers: one bit each, 512 KiB at most.
/// Sufficiency checks over larger unfiltered products are not memoized.
const SPEC_MEMO_MAX_TUPLES: usize = 1 << 22;

/// The tuples of one specification's quantifier pools on which the
/// specification held, one bit per tuple of the *unfiltered* product of the
/// pools, so that the memo is shared by every candidate's sufficiency check.
///
/// A spec verdict is a function of the tuple alone (each evaluation starts
/// from fresh fuel), so a recorded tuple may skip evaluation.  Only "held"
/// is recorded: a failing tuple is evaluated again, which keeps the first
/// failing tuple of every search — its counterexample — unchanged.  Bits
/// are set with `fetch_or`, so concurrent runs of one problem share one memo
/// without a lock.
#[derive(Debug)]
pub struct SpecMemo {
    /// Pool lengths: a tuple's bit is its pool indices read in mixed radix,
    /// the last quantifier as the lowest digit.
    radices: Vec<usize>,
    words: Box<[AtomicU64]>,
}

impl SpecMemo {
    /// A memo over `pools`, or `None` when their product exceeds
    /// [`SPEC_MEMO_MAX_TUPLES`].
    fn new(pools: &[Arc<Vec<Value>>]) -> Option<SpecMemo> {
        let mut tuples = 1usize;
        for pool in pools {
            tuples = tuples.checked_mul(pool.len())?;
        }
        if tuples > SPEC_MEMO_MAX_TUPLES {
            return None;
        }
        Some(SpecMemo {
            radices: pools.iter().map(|pool| pool.len()).collect(),
            words: (0..tuples.div_ceil(64))
                .map(|_| AtomicU64::new(0))
                .collect(),
        })
    }

    /// The bit of the tuple at `indices` (one index per pool).
    pub fn slot(&self, indices: impl IntoIterator<Item = usize>) -> usize {
        indices
            .into_iter()
            .zip(&self.radices)
            .fold(0, |slot, (index, &radix)| slot * radix + index)
    }

    /// Whether the specification is recorded to hold on the tuple at `slot`.
    pub fn holds(&self, slot: usize) -> bool {
        self.words[slot / 64].load(Ordering::Relaxed) & (1 << (slot % 64)) != 0
    }

    /// Records that the specification held on the tuple at `slot`.
    pub fn record(&self, slot: usize) {
        self.words[slot / 64].fetch_or(1 << (slot % 64), Ordering::Relaxed);
    }
}

/// A shared, memoized store of enumeration pools for one verification
/// session.  Cheap to share (`Arc`), safe to use from concurrent runs of
/// one problem.
#[derive(Debug)]
pub struct PoolCache {
    tyenv: TypeEnv,
    /// Per-size slabs: all values of a type with exactly `size` nodes.
    slabs: Mutex<SlabMap>,
    /// Assembled pools: the first `count` values up to `size` nodes.
    pools: Mutex<PoolMap>,
    /// Enumerated higher-order argument candidates, keyed by interface
    /// signature and the HOF bounds that shaped the enumeration.
    functions: Mutex<FunctionMap>,
    /// Spec-held tuples of earlier sufficiency checks.
    spec_memos: Mutex<SpecMemoMap>,
    /// Serializes cache *misses*: held across build-and-insert so that
    /// concurrent requests for the same key enumerate exactly once (hits
    /// never take it).
    build_lock: Mutex<()>,
}

impl PoolCache {
    /// An empty cache over the given data type environment.
    pub fn new(tyenv: TypeEnv) -> PoolCache {
        PoolCache {
            tyenv,
            slabs: Mutex::new(HashMap::new()),
            pools: Mutex::new(HashMap::new()),
            functions: Mutex::new(HashMap::new()),
            spec_memos: Mutex::new(HashMap::new()),
            build_lock: Mutex::new(()),
        }
    }

    /// A shareable cache for one problem's verification session.
    pub fn for_problem(problem: &Problem) -> Arc<PoolCache> {
        Arc::new(PoolCache::new(problem.tyenv.clone()))
    }

    /// The smallest `count` values of `ty` no larger than `size` nodes, in
    /// the enumeration order of
    /// [`ValueEnumerator::first_values`] — assembled once per
    /// `(ty, count, size)` and shared thereafter.  `_workers` is ignored:
    /// pools are built on the calling thread.  The argument stays for the
    /// benchmark's verifier replay, which passes `1`.
    pub fn pool(&self, ty: &Type, count: usize, size: usize, _workers: usize) -> Arc<Vec<Value>> {
        self.fetch(ty, count, size, &VerifierCounters::default())
    }

    /// [`PoolCache::pool`], counting the hit or the pool and slab builds in
    /// `counters`.
    pub(crate) fn fetch(
        &self,
        ty: &Type,
        count: usize,
        size: usize,
        counters: &VerifierCounters,
    ) -> Arc<Vec<Value>> {
        let key = (ty.clone(), count, size);
        if let Some(cached) = self.pools.lock().unwrap().get(&key) {
            counters.pool_cache_hits.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(cached);
        }

        // Serialize misses so concurrent requests for the same key enumerate
        // once; re-check under the lock (the race loser takes the hit path).
        let _building = self.build_lock.lock().unwrap();
        if let Some(cached) = self.pools.lock().unwrap().get(&key) {
            counters.pool_cache_hits.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(cached);
        }

        // Assemble incrementally, smallest sizes first, and stop enumerating
        // as soon as `count` values are collected — exactly like the
        // `first_values` sweep this cache replaces.  This matters for
        // tree-shaped types, whose per-size slabs grow exponentially: the
        // count bound is typically reached long before the size bound, and
        // building every slab up to `size` would materialize millions of
        // values nobody reads.
        let mut out = Vec::new();
        for s in 1..=size {
            if out.len() >= count {
                break;
            }
            let slab = self.slab(ty, s, counters);
            out.extend(slab.iter().take(count - out.len()).cloned());
        }
        let pool = Arc::new(out);
        counters.pool_builds.fetch_add(1, Ordering::Relaxed);
        self.pools.lock().unwrap().insert(key, Arc::clone(&pool));
        pool
    }

    /// The enumerated higher-order argument candidates for an interface
    /// signature `sig`, built once per `(sig, hof bounds)` key; the hit or
    /// the build is counted in `counters`.
    pub(crate) fn function_pool(
        &self,
        problem: &Problem,
        sig: &Type,
        bounds: &VerifierBounds,
        counters: &VerifierCounters,
    ) -> Arc<Vec<FunctionCandidate>> {
        let key = (
            problem.globals.identity(),
            sig.clone(),
            bounds.hof_body_size,
            bounds.hof_max_functions,
            bounds.fuel,
        );
        if let Some(cached) = self.functions.lock().unwrap().get(&key) {
            counters.pool_cache_hits.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(cached);
        }
        let _building = self.build_lock.lock().unwrap();
        if let Some(cached) = self.functions.lock().unwrap().get(&key) {
            counters.pool_cache_hits.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(cached);
        }
        let pool = Arc::new(enumerate_function_candidates(problem, sig, bounds));
        counters.pool_builds.fetch_add(1, Ordering::Relaxed);
        self.functions
            .lock()
            .unwrap()
            .insert(key, Arc::clone(&pool));
        pool
    }

    /// The slab of `ty` at `size`, built (and counted in `counters`) when
    /// missing by an enumerator seeded with every smaller slab of `ty` the
    /// cache holds, so monotonic-growth requests never recompute known
    /// slabs.  Callers hold the build lock.
    fn slab(&self, ty: &Type, size: usize, counters: &VerifierCounters) -> Arc<Vec<Value>> {
        let key = (ty.clone(), size);
        if let Some(slab) = self.slabs.lock().unwrap().get(&key) {
            return Arc::clone(slab);
        }
        counters.pool_slab_builds.fetch_add(1, Ordering::Relaxed);
        let mut enumerator = ValueEnumerator::new(&self.tyenv);
        {
            let slabs = self.slabs.lock().unwrap();
            for s in 1..size {
                if let Some(slab) = slabs.get(&(ty.clone(), s)) {
                    enumerator.seed(ty, s, Arc::clone(slab));
                }
            }
        }
        let slab = enumerator.values_of_size(ty, size);
        self.slabs.lock().unwrap().insert(key, Arc::clone(&slab));
        slab
    }

    /// The session's memo of spec-held tuples for the problem with
    /// fingerprint `problem` (see [`Problem::fingerprint`]), evaluated under
    /// `fuel`, over quantifier `pools`: this cache's pools of `count` values
    /// of at most `size` nodes, one per spec parameter.  `None` when the
    /// pools' product is too large to memoize.
    pub fn spec_memo(
        &self,
        problem: Digest,
        fuel: u64,
        count: usize,
        size: usize,
        pools: &[Arc<Vec<Value>>],
    ) -> Option<Arc<SpecMemo>> {
        let key = (problem, fuel, count, size);
        let mut memos = self.spec_memos.lock().unwrap();
        if let Some(memo) = memos.get(&key) {
            return Some(Arc::clone(memo));
        }
        let memo = Arc::new(SpecMemo::new(pools)?);
        memos.insert(key, Arc::clone(&memo));
        Some(memo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pools::enumerate_values;
    use hanoi_lang::parallel::par_map;
    use std::sync::Barrier;

    const LIST_SET: &str = r#"
        type nat = O | S of nat
        type list = Nil | Cons of nat * list
        interface SET = sig
          type t
          val empty : t
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
        end
        spec (s : t) (i : nat) = not (lookup empty i)
    "#;

    fn problem() -> Problem {
        Problem::from_source(LIST_SET).unwrap()
    }

    fn load(counter: &AtomicU64) -> u64 {
        counter.load(Ordering::Relaxed)
    }

    #[test]
    fn pools_match_fresh_enumeration() {
        let problem = problem();
        let cache = PoolCache::for_problem(&problem);
        for (count, size) in [(10, 8), (50, 12), (400, 14)] {
            let cached = cache.pool(&Type::named("list"), count, size, 1);
            let fresh = enumerate_values(&problem, &Type::named("list"), count, size);
            assert_eq!(*cached, fresh, "count={count} size={size}");
        }
    }

    #[test]
    fn repeated_requests_hit_the_cache() {
        let problem = problem();
        let cache = PoolCache::for_problem(&problem);
        let counters = VerifierCounters::default();
        let first = cache.fetch(&Type::named("list"), 100, 12, &counters);
        assert_eq!(load(&counters.pool_cache_hits), 0);
        assert_eq!(load(&counters.pool_builds), 1);
        let slabs_after_first = load(&counters.pool_slab_builds);
        assert!(slabs_after_first > 0);
        let second = cache.fetch(&Type::named("list"), 100, 12, &counters);
        assert!(Arc::ptr_eq(&first, &second), "hit must share the slab");
        assert_eq!(load(&counters.pool_cache_hits), 1);
        assert_eq!(load(&counters.pool_builds), 1);
        assert_eq!(
            load(&counters.pool_slab_builds),
            slabs_after_first,
            "a hit builds nothing"
        );
    }

    #[test]
    fn pools_grow_monotonically() {
        let problem = problem();
        let cache = PoolCache::for_problem(&problem);
        let counters = VerifierCounters::default();
        let slab_builds = |count, size| {
            cache.fetch(&Type::named("list"), count, size, &counters);
            load(&counters.pool_slab_builds)
        };
        let after_small = slab_builds(50, 10);
        assert!(after_small > 0);
        // A larger request reuses the existing slabs and only enumerates the
        // missing sizes.
        let after_large = slab_builds(5000, 12);
        assert!(after_large > after_small);
        assert!(
            after_large <= 12,
            "slab builds are bounded by the distinct sizes, got {after_large}"
        );
        // A *smaller* request builds nothing at all.
        assert_eq!(slab_builds(10, 8), after_large);
        // Re-requesting an already-built size range builds nothing either.
        assert_eq!(slab_builds(5000, 12), after_large);
    }

    #[test]
    fn slab_building_stops_once_count_is_reached() {
        // Tree-shaped types grow exponentially per size: reaching the count
        // bound must stop enumeration long before the size bound, exactly
        // like the `first_values` sweep the cache replaces.
        use hanoi_lang::types::{CtorDecl, DataDecl, TypeEnv};
        let mut tyenv = TypeEnv::new();
        tyenv
            .declare(DataDecl::new(
                "nat",
                vec![
                    CtorDecl::new("O", vec![]),
                    CtorDecl::new("S", vec![Type::named("nat")]),
                ],
            ))
            .unwrap();
        tyenv
            .declare(DataDecl::new(
                "tree",
                vec![
                    CtorDecl::new("Leaf", vec![]),
                    CtorDecl::new(
                        "Node",
                        vec![Type::named("tree"), Type::named("nat"), Type::named("tree")],
                    ),
                ],
            ))
            .unwrap();
        let cache = PoolCache::new(tyenv.clone());
        let counters = VerifierCounters::default();
        let pool = cache.fetch(&Type::named("tree"), 100, 30, &counters);
        assert_eq!(pool.len(), 100);
        let slab_builds = load(&counters.pool_slab_builds);
        assert!(
            slab_builds < 15,
            "the count cutoff must stop slab enumeration early, \
             built {slab_builds} slabs"
        );
        // And the prefix matches a fresh first_values sweep.
        let fresh = hanoi_lang::enumerate::ValueEnumerator::new(&tyenv).first_values(
            &Type::named("tree"),
            100,
            30,
        );
        assert_eq!(*pool, fresh);
    }

    #[test]
    fn parallel_slab_builds_are_deterministic() {
        // Runs of one problem side by side share its cache: requests of
        // different sizes from several threads leave every pool equal to a
        // fresh enumeration, and each pool is built once.
        let problem = problem();
        let cache = PoolCache::for_problem(&problem);
        let requests = [(3000, 14), (50, 12), (3000, 14), (400, 14)];
        let counters = VerifierCounters::default();
        // With one worker per item, `par_map` hands each worker one
        // request, so the barrier starts every request at once.
        let start = Barrier::new(requests.len());
        let pools = par_map(&requests, requests.len(), |&(count, size)| {
            start.wait();
            cache.fetch(&Type::named("list"), count, size, &counters)
        });
        for (pool, (count, size)) in pools.iter().zip(requests) {
            let fresh = enumerate_values(&problem, &Type::named("list"), count, size);
            assert_eq!(**pool, fresh, "count={count} size={size}");
        }
        assert_eq!(load(&counters.pool_builds), 3);
        assert_eq!(load(&counters.pool_cache_hits), 1);
        assert_eq!(load(&counters.pool_slab_builds), 14);
    }

    #[test]
    fn function_pools_are_cached() {
        let problem = problem();
        let cache = PoolCache::for_problem(&problem);
        let sig = Type::arrow(Type::named("nat"), Type::named("nat"));
        let bounds = VerifierBounds::quick();
        let counters = VerifierCounters::default();
        let first = cache.function_pool(&problem, &sig, &bounds, &counters);
        let second = cache.function_pool(&problem, &sig, &bounds, &counters);
        assert!(Arc::ptr_eq(&first, &second));
        assert!(!first.is_empty());
        assert_eq!(load(&counters.pool_cache_hits), 1);
    }
}
