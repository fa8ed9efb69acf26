//! Pool-cache correctness: cached pools are byte-identical to fresh
//! enumeration for every benchmark type, parallel slab construction is
//! deterministic, and enumeration happens at most once per verification
//! session.

use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;

use hanoi_repro::hanoi::{Engine, RunOptions};
use hanoi_repro::lang::parser::parse_expr;
use hanoi_repro::lang::Type;
use hanoi_repro::verifier::poolcache::PoolCache;
use hanoi_repro::verifier::pools::enumerate_values;
use hanoi_repro::verifier::{Verifier, VerifierBounds};

/// Every quantifier type a benchmark's verifier draws pools from: the
/// concrete representation type plus the (concretised) spec parameter types.
fn pool_types(problem: &hanoi_repro::abstraction::Problem) -> Vec<Type> {
    let mut seen = HashSet::new();
    let mut out = Vec::new();
    let mut push = |ty: Type| {
        if seen.insert(ty.clone()) {
            out.push(ty);
        }
    };
    push(problem.concrete_type().clone());
    for (_, param_ty) in &problem.spec.params {
        push(param_ty.subst_abstract(problem.concrete_type()));
    }
    out
}

#[test]
fn cached_pools_match_fresh_enumeration_for_every_benchmark_type() {
    for benchmark in hanoi_repro::benchmarks::registry() {
        let problem = benchmark
            .problem()
            .unwrap_or_else(|e| panic!("{}: {e}", benchmark.id));
        let cache = PoolCache::for_problem(&problem);
        for ty in pool_types(&problem) {
            for (count, size) in [(40, 7), (120, 9)] {
                let cached = cache.pool(&ty, count, size, 1);
                let fresh = enumerate_values(&problem, &ty, count, size);
                assert_eq!(
                    *cached, fresh,
                    "{}: pool diverged for {ty} count={count} size={size}",
                    benchmark.id
                );
            }
        }
    }
}

#[test]
fn parallel_slab_construction_is_deterministic() {
    // Runs of one problem on several threads share its pool cache: requests
    // that race to build the same slabs, paper-scale single-quantifier pools
    // included, leave each pool byte-identical to a build on a cache of its
    // own.
    let problem = hanoi_repro::benchmarks::find("/coq/unique-list-::-set")
        .unwrap()
        .problem()
        .unwrap();
    let list = Type::named("list");
    let requests = [(3000, 14), (400, 14), (3000, 14), (150, 9)];
    let shared = PoolCache::for_problem(&problem);
    let start = Barrier::new(requests.len());
    let pools: Vec<_> = std::thread::scope(|scope| {
        let threads: Vec<_> = requests
            .iter()
            .map(|&(count, size)| {
                let (shared, list, start) = (&shared, &list, &start);
                scope.spawn(move || {
                    start.wait();
                    shared.pool(list, count, size, 1)
                })
            })
            .collect();
        threads.into_iter().map(|t| t.join().unwrap()).collect()
    });
    for (pool, (count, size)) in pools.iter().zip(requests) {
        let alone = PoolCache::for_problem(&problem).pool(&list, count, size, 1);
        assert_eq!(**pool, *alone, "count={count} size={size}");
        assert!(
            pool.windows(2).all(|w| w[0].size() <= w[1].size()),
            "size order violated at count={count} size={size}"
        );
    }
}

#[test]
fn pool_enumeration_happens_at_most_once_per_session() {
    let problem = hanoi_repro::benchmarks::find("/coq/unique-list-::-set")
        .unwrap()
        .problem()
        .unwrap();
    let verifier = Verifier::new(&problem).with_bounds(VerifierBounds::quick());
    let no_dup = parse_expr(
        "fix inv (l : list) : bool = \
           match l with | Nil -> True | Cons (hd, tl) -> not (lookup tl hd) && inv tl end",
    )
    .unwrap();
    // Not literally `True`, whose inductiveness checks skip the sweep.
    let trivial = parse_expr("fun (l : list) -> not False").unwrap();

    let run_all_checks = |candidate| {
        assert!(verifier.check_sufficiency(candidate).is_ok());
        assert!(verifier.check_full_inductiveness(candidate).is_ok());
        let v_plus = verifier.smallest_concrete_values(5);
        assert!(verifier
            .check_visible_inductiveness(&v_plus, candidate)
            .is_ok());
    };

    // The verifier's pool builds, slab builds, pool hits and predicate
    // evaluations so far.
    let work = || {
        let counters = verifier.counters();
        let load = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
        (
            load(&counters.pool_builds),
            load(&counters.pool_slab_builds),
            load(&counters.pool_cache_hits),
            load(&counters.predicate_evals),
        )
    };

    run_all_checks(&no_dup);
    let (builds, slab_builds, hits, evals) = work();
    assert!(builds > 0, "the first pass enumerates pools");

    // A second candidate re-runs every check: pools must be served entirely
    // from the cache — the build counters do not move at all.
    run_all_checks(&trivial);
    run_all_checks(&no_dup);
    let (more_builds, more_slab_builds, more_hits, more_evals) = work();
    assert_eq!(
        more_builds, builds,
        "pool assembly must happen at most once per (type, count, size)"
    );
    assert_eq!(
        more_slab_builds, slab_builds,
        "slab enumeration must happen at most once per (type, size)"
    );
    assert!(more_hits > hits, "later checks are served from the cache");
    assert!(
        more_evals > evals,
        "predicate evaluations keep being counted"
    );
}

#[test]
fn run_stats_surface_the_pool_and_eval_counters() {
    let problem = hanoi_repro::benchmarks::find("/coq/unique-list-::-set")
        .unwrap()
        .problem()
        .unwrap();
    let result = Engine::with_defaults().run(&problem, &RunOptions::quick());
    assert!(result.is_success(), "{:?}", result.outcome);
    let stats = &result.stats;
    assert!(stats.pool_builds > 0, "a run enumerates some pools");
    assert!(
        stats.pool_cache_hits > stats.pool_builds,
        "a CEGIS run makes many checks over few distinct pools: \
         hits={} builds={}",
        stats.pool_cache_hits,
        stats.pool_builds
    );
    assert!(
        stats.predicate_evals > 0,
        "candidate evaluations are counted"
    );
    assert!(
        stats.predicate_table_hits > 0,
        "full-inductiveness checks answer repeated tests from their verdict table"
    );
    assert!(stats.spec_evals > 0, "spec evaluations are counted");
    assert!(
        stats.spec_memo_hits > 0,
        "later sufficiency checks skip tuples an earlier one found the spec to hold on"
    );
}
