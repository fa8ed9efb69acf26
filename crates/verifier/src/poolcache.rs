//! The shared, memoized value-pool subsystem.
//!
//! Every verifier check instantiates its quantifiers from *pools*: the
//! smallest `count` first-order values of a type, none larger than `size`
//! nodes (§4.3).  Historically each check re-enumerated its pools from
//! scratch, so a CEGIS run — dozens of candidates, three checks per
//! candidate, several quantifier positions per check — paid the same
//! enumeration cost over and over.  [`PoolCache`] makes enumeration a
//! once-per-session cost:
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
//! * slab construction is **parallelized** over the configured worker count
//!   using the same scoped-thread layer as the parallel verifier
//!   ([`crate::parallel`]): workers claim sizes from a shared cursor,
//!   largest first, each with a private [`ValueEnumerator`]; since
//!   [`ValueEnumerator::values_of_size`] is a deterministic function of
//!   `(type, size)`, the merged size-ordered result is byte-identical to a
//!   serial build regardless of scheduling.
//!
//! The cache is also the verification session's instrumentation hub: it
//! counts pool hits, slab/pool builds and predicate evaluations (the eval
//! counter is shared with [`crate::pools::CompiledPredicate`]), which the
//! inference driver surfaces through `RunStats`.
//!
//! Nothing here is persisted across processes: pool contents are a
//! deterministic function of `(type, size)`, and a warm-started run that
//! answers its checks from the check-outcome cache never requests a pool.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use hanoi_abstraction::Problem;
use hanoi_lang::enumerate::ValueEnumerator;
use hanoi_lang::types::{Type, TypeEnv};
use hanoi_lang::value::Value;

use crate::bounds::VerifierBounds;
use crate::hof::{enumerate_function_candidates, FunctionCandidate};

/// Counter snapshot of one verification session's pool activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolCacheStats {
    /// Pool requests answered from the cache.
    pub hits: u64,
    /// Pools assembled (value pools and function pools; at most one per
    /// distinct `(type, count, size)` / `(signature, bounds)` key).
    pub builds: u64,
    /// Per-size slabs enumerated (at most one per `(type, size)` key).
    pub slab_builds: u64,
    /// Predicate evaluations performed by compiled predicates wired to this
    /// cache (see [`PoolCache::eval_counter`]).
    pub predicate_evals: u64,
}

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

/// A shared, memoized store of enumeration pools for one verification
/// session.  Cheap to share (`Arc`), safe to use from the parallel
/// verifier's worker threads.
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
    /// Serializes cache *misses*: held across build-and-insert so that
    /// concurrent requests for the same key enumerate exactly once (hits
    /// never take it).
    build_lock: Mutex<()>,
    hits: AtomicU64,
    builds: AtomicU64,
    slab_builds: AtomicU64,
    evals: Arc<AtomicU64>,
}

impl PoolCache {
    /// An empty cache over the given data type environment.
    pub fn new(tyenv: TypeEnv) -> PoolCache {
        PoolCache {
            tyenv,
            slabs: Mutex::new(HashMap::new()),
            pools: Mutex::new(HashMap::new()),
            functions: Mutex::new(HashMap::new()),
            build_lock: Mutex::new(()),
            hits: AtomicU64::new(0),
            builds: AtomicU64::new(0),
            slab_builds: AtomicU64::new(0),
            evals: Arc::new(AtomicU64::new(0)),
        }
    }

    /// A shareable cache for one problem's verification session.
    pub fn for_problem(problem: &Problem) -> Arc<PoolCache> {
        Arc::new(PoolCache::new(problem.tyenv.clone()))
    }

    /// The smallest `count` values of `ty` no larger than `size` nodes, in
    /// the enumeration order of
    /// [`ValueEnumerator::first_values`] — assembled once per
    /// `(ty, count, size)` and shared thereafter.  Missing per-size slabs
    /// are built over `workers` threads (`<= 1` = serially).
    pub fn pool(&self, ty: &Type, count: usize, size: usize, workers: usize) -> Arc<Vec<Value>> {
        let key = (ty.clone(), count, size);
        if let Some(cached) = self.pools.lock().unwrap().get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(cached);
        }

        // Serialize misses so concurrent requests for the same key enumerate
        // once; re-check under the lock (the race loser takes the hit path).
        let _building = self.build_lock.lock().unwrap();
        if let Some(cached) = self.pools.lock().unwrap().get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(cached);
        }

        // Assemble incrementally, smallest sizes first, and stop enumerating
        // as soon as `count` values are collected — exactly like the
        // `first_values` sweep this cache replaces.  This matters for
        // tree-shaped types, whose per-size slabs grow exponentially: the
        // count bound is typically reached long before the size bound, and
        // building every slab up to `size` would materialize millions of
        // values nobody reads.  With several workers, slabs are built in
        // batches of `workers` sizes (slight speculative overshoot past the
        // cutoff, kept and reused by later, larger requests).
        let batch = crate::parallel::effective_workers(workers).max(1);
        let mut out = Vec::new();
        let mut next_size = 1usize;
        while next_size <= size && out.len() < count {
            let batch_end = (next_size + batch - 1).min(size);
            self.ensure_slab_range(ty, next_size, batch_end, workers);
            let slabs = self.slabs.lock().unwrap();
            'fill: for s in next_size..=batch_end {
                let slab = slabs
                    .get(&(ty.clone(), s))
                    .expect("ensure_slab_range built every size in the batch");
                for value in slab.iter() {
                    if out.len() >= count {
                        break 'fill;
                    }
                    out.push(value.clone());
                }
            }
            next_size = batch_end + 1;
        }
        let pool = Arc::new(out);
        self.builds.fetch_add(1, Ordering::Relaxed);
        self.pools.lock().unwrap().insert(key, Arc::clone(&pool));
        pool
    }

    /// The enumerated higher-order argument candidates for an interface
    /// signature `sig`, built once per `(sig, hof bounds)` key.
    pub fn function_pool(
        &self,
        problem: &Problem,
        sig: &Type,
        bounds: &VerifierBounds,
    ) -> Arc<Vec<FunctionCandidate>> {
        let key = (
            problem.globals.identity(),
            sig.clone(),
            bounds.hof_body_size,
            bounds.hof_max_functions,
            bounds.fuel,
        );
        if let Some(cached) = self.functions.lock().unwrap().get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(cached);
        }
        let _building = self.build_lock.lock().unwrap();
        if let Some(cached) = self.functions.lock().unwrap().get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(cached);
        }
        let pool = Arc::new(enumerate_function_candidates(problem, sig, bounds));
        self.builds.fetch_add(1, Ordering::Relaxed);
        self.functions
            .lock()
            .unwrap()
            .insert(key, Arc::clone(&pool));
        pool
    }

    /// Builds every missing per-size slab of `ty` for sizes in
    /// `min_size..=max_size`.
    ///
    /// With more than one worker the missing sizes are claimed from a shared
    /// cursor, largest first (the cost of a size is heavily skewed towards
    /// the largest ones), each worker enumerating with a private
    /// [`ValueEnumerator`].  Slab contents are a deterministic function of
    /// `(ty, size)`, so the cache state after this call is identical for
    /// every worker count.
    fn ensure_slab_range(&self, ty: &Type, min_size: usize, max_size: usize, workers: usize) {
        // Snapshot what is already cached for this type: the missing sizes
        // are the work list, the present ones (any size, including below the
        // requested range) seed every enumerator so monotonic-growth
        // requests never recompute known slabs.
        type Seeds = Vec<(usize, Arc<Vec<Value>>)>;
        let (missing, seeds): (Vec<usize>, Seeds) = {
            let slabs = self.slabs.lock().unwrap();
            let mut missing = Vec::new();
            let mut seeds = Seeds::new();
            for s in (1..=max_size).rev() {
                match slabs.get(&(ty.clone(), s)) {
                    Some(slab) => seeds.push((s, Arc::clone(slab))),
                    None if s >= min_size => missing.push(s),
                    None => {}
                }
            }
            (missing, seeds)
        };
        if missing.is_empty() {
            return;
        }
        self.slab_builds
            .fetch_add(missing.len() as u64, Ordering::Relaxed);
        let seeded_enumerator = || {
            let mut enumerator = ValueEnumerator::new(&self.tyenv);
            for (s, slab) in &seeds {
                enumerator.seed(ty, *s, Arc::clone(slab));
            }
            enumerator
        };

        let workers = crate::parallel::effective_workers(workers).min(missing.len());
        if workers <= 1 {
            let mut enumerator = seeded_enumerator();
            let mut slabs = self.slabs.lock().unwrap();
            for &s in &missing {
                slabs.insert((ty.clone(), s), enumerator.values_of_size(ty, s));
            }
            return;
        }

        // Workers claim sizes largest-first (cost is heavily skewed towards
        // the largest sizes).  Each worker enumerates with a private,
        // pre-seeded enumerator; sub-slabs a worker derives for sizes
        // another worker owns are recomputed privately — acceptable because
        // the largest one or two sizes dominate the total cost.
        let cursor = AtomicUsize::new(0);
        let built: Mutex<Vec<(usize, Arc<Vec<Value>>)>> = Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| {
                    let mut enumerator = seeded_enumerator();
                    loop {
                        let index = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(&s) = missing.get(index) else { return };
                        let slab = enumerator.values_of_size(ty, s);
                        built.lock().unwrap().push((s, slab));
                    }
                });
            }
        });
        let mut slabs = self.slabs.lock().unwrap();
        for (s, slab) in built.into_inner().unwrap() {
            slabs.insert((ty.clone(), s), slab);
        }
    }

    /// The shared predicate-evaluation counter; hand it to
    /// [`crate::pools::CompiledPredicate::with_eval_counter`] so evaluations
    /// show up in this session's [`PoolCacheStats`].
    pub fn eval_counter(&self) -> Arc<AtomicU64> {
        Arc::clone(&self.evals)
    }

    /// A snapshot of the session counters.
    pub fn stats(&self) -> PoolCacheStats {
        PoolCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            builds: self.builds.load(Ordering::Relaxed),
            slab_builds: self.slab_builds.load(Ordering::Relaxed),
            predicate_evals: self.evals.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pools::enumerate_values;

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

    #[test]
    fn pools_match_fresh_enumeration() {
        let problem = problem();
        let cache = PoolCache::for_problem(&problem);
        for workers in [1usize, 2, 0] {
            for (count, size) in [(10, 8), (50, 12), (400, 14)] {
                let cached = cache.pool(&Type::named("list"), count, size, workers);
                let fresh = enumerate_values(&problem, &Type::named("list"), count, size);
                assert_eq!(
                    *cached, fresh,
                    "count={count} size={size} workers={workers}"
                );
            }
        }
    }

    #[test]
    fn repeated_requests_hit_the_cache() {
        let problem = problem();
        let cache = PoolCache::for_problem(&problem);
        let first = cache.pool(&Type::named("list"), 100, 12, 1);
        let stats = cache.stats();
        assert_eq!(stats.hits, 0);
        assert_eq!(stats.builds, 1);
        let slabs_after_first = stats.slab_builds;
        assert!(slabs_after_first > 0);
        let second = cache.pool(&Type::named("list"), 100, 12, 1);
        assert!(Arc::ptr_eq(&first, &second), "hit must share the slab");
        let stats = cache.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.builds, 1);
        assert_eq!(stats.slab_builds, slabs_after_first, "a hit builds nothing");
    }

    #[test]
    fn pools_grow_monotonically() {
        let problem = problem();
        let cache = PoolCache::for_problem(&problem);
        cache.pool(&Type::named("list"), 50, 10, 1);
        let after_small = cache.stats().slab_builds;
        assert!(after_small > 0);
        // A larger request reuses the existing slabs and only enumerates the
        // missing sizes.
        cache.pool(&Type::named("list"), 5000, 12, 1);
        let after_large = cache.stats().slab_builds;
        assert!(after_large > after_small);
        assert!(
            after_large <= 12,
            "slab builds are bounded by the distinct sizes, got {after_large}"
        );
        // A *smaller* request builds nothing at all.
        cache.pool(&Type::named("list"), 10, 8, 1);
        assert_eq!(cache.stats().slab_builds, after_large);
        // Re-requesting an already-built size range builds nothing either.
        cache.pool(&Type::named("list"), 5000, 12, 1);
        assert_eq!(cache.stats().slab_builds, after_large);
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
        let pool = cache.pool(&Type::named("tree"), 100, 30, 1);
        assert_eq!(pool.len(), 100);
        let stats = cache.stats();
        assert!(
            stats.slab_builds < 15,
            "the count cutoff must stop slab enumeration early, \
             built {} slabs",
            stats.slab_builds
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
        let problem = problem();
        let serial = PoolCache::for_problem(&problem);
        let expected = serial.pool(&Type::named("list"), 3000, 14, 1);
        for workers in [2usize, 3, 8, 0] {
            let parallel = PoolCache::for_problem(&problem);
            let got = parallel.pool(&Type::named("list"), 3000, 14, workers);
            assert_eq!(*got, *expected, "workers={workers}");
        }
    }

    #[test]
    fn function_pools_are_cached() {
        let problem = problem();
        let cache = PoolCache::for_problem(&problem);
        let sig = Type::arrow(Type::named("nat"), Type::named("nat"));
        let bounds = VerifierBounds::quick();
        let first = cache.function_pool(&problem, &sig, &bounds);
        let second = cache.function_pool(&problem, &sig, &bounds);
        assert!(Arc::ptr_eq(&first, &second));
        assert!(!first.is_empty());
        assert_eq!(cache.stats().hits, 1);
    }
}
