//! Fleet-level store operations seen from the engine: merging two stores
//! yields the union of their warmth, GC under a byte budget never breaks a
//! manifest that a later restore needs, bidirectional sync transfers only
//! the difference.
//!
//! `tests/warm_start_equivalence.rs` pins that a *single* store round-trips
//! faithfully; this suite pins that the *administrative* operations
//! (`hanoi-store merge|gc|sync`, exposed on [`ChunkStore`]) keep
//! every surviving snapshot restorable.

use std::path::PathBuf;

use hanoi_repro::benchmarks;
use hanoi_repro::hanoi::{Engine, EngineConfig, Outcome, RunOptions};
use hanoi_repro::store::ChunkStore;
use hanoi_repro::synth::SearchConfig;
use hanoi_repro::verifier::VerifierBounds;

/// Deterministic options, mirroring `tests/warm_start_equivalence.rs`.
fn test_options() -> RunOptions {
    RunOptions::quick()
        .with_timeout(None)
        .with_max_iterations(5)
        .with_bounds(VerifierBounds {
            single_count: 250,
            single_size: 12,
            multi_count: 100,
            multi_size: 8,
            total_cap: 2_500,
            ..VerifierBounds::quick()
        })
        .with_search(SearchConfig {
            schedule: vec![(0, 4), (1, 5)],
            max_terms_per_layer: 300,
            fuel: 4_000,
            ..SearchConfig::quick()
        })
}

/// A label for outcome comparison that is total.
fn outcome_key(outcome: &Outcome) -> String {
    match outcome {
        Outcome::Invariant(inv) => format!("invariant: {inv}"),
        other => other.to_string(),
    }
}

/// A unique scratch directory (the offline build has no tempfile crate).
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "hanoi-store-roundtrip-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn warm_engine(dir: &PathBuf) -> Engine {
    Engine::new(EngineConfig::default().with_warm_start_dir(dir)).unwrap()
}

/// Solve `id` cold and checkpoint its warmth (chunked) into `dir`; returns
/// the cold result for later comparison.
fn populate(dir: &PathBuf, id: &str) -> (hanoi_repro::lang::digest::Digest, String) {
    let problem = benchmarks::find(id).unwrap().problem().unwrap();
    let engine = warm_engine(dir);
    let result = engine.run(&problem, &test_options());
    assert!(engine.save_state(dir).unwrap() >= 1, "{id}: snapshot write");
    (problem.fingerprint(), outcome_key(&result.outcome))
}

/// Run `id` against `dir` and assert it restores fully warm with the
/// expected outcome and nothing quarantined.
fn assert_warm(dir: &PathBuf, id: &str, expected_outcome: &str) {
    let problem = benchmarks::find(id).unwrap().problem().unwrap();
    let result = warm_engine(dir).run(&problem, &test_options());
    assert_eq!(
        outcome_key(&result.outcome),
        expected_outcome,
        "{id}: restored outcome diverged"
    );
    assert!(
        result.stats.warm_start_loads > 0,
        "{id}: expected a warm restore from {dir:?} ({:?})",
        result.stats
    );
    assert_eq!(
        result.stats.warm_start_quarantined, 0,
        "{id}: a clean store quarantined something ({:?})",
        result.stats
    );
}

const A: &str = "/other/cache";
const B: &str = "/other/rational";

#[test]
fn merging_two_disjoint_stores_yields_the_union_of_warmth() {
    let dir_a = scratch_dir("merge-a");
    let dir_b = scratch_dir("merge-b");
    let (_, a_outcome) = populate(&dir_a, A);
    let (_, b_outcome) = populate(&dir_b, B);

    let store_a = ChunkStore::open(&dir_a).unwrap();
    let store_b = ChunkStore::open(&dir_b).unwrap();
    let report = store_a.merge_from(&store_b).unwrap();
    assert_eq!(report.manifests_copied, 1, "{report:?}");
    assert!(report.chunks_copied > 0, "{report:?}");
    assert_eq!(report.manifests_skipped, 0, "{report:?}");

    // The destination now carries both problems' warmth; the source is
    // untouched.
    assert_warm(&dir_a, A, &a_outcome);
    assert_warm(&dir_a, B, &b_outcome);
    assert_warm(&dir_b, B, &b_outcome);

    // Merging again is a no-op: every chunk and manifest already exists.
    let again = store_a.merge_from(&store_b).unwrap();
    assert_eq!(again.manifests_copied, 0, "{again:?}");
    assert_eq!(again.chunks_copied, 0, "{again:?}");

    let _ = std::fs::remove_dir_all(&dir_a);
    let _ = std::fs::remove_dir_all(&dir_b);
}

#[test]
fn sync_transfers_only_the_difference_both_ways() {
    let dir_local = scratch_dir("sync-local");
    let dir_remote = scratch_dir("sync-remote");
    let (_, a_outcome) = populate(&dir_local, A);
    let (_, b_outcome) = populate(&dir_remote, B);

    let local = ChunkStore::open(&dir_local).unwrap();
    let remote = ChunkStore::open(&dir_remote).unwrap();
    let (pulled, pushed) = local.sync(&remote).unwrap();
    assert_eq!(pulled.manifests_copied, 1, "{pulled:?}");
    assert_eq!(pushed.manifests_copied, 1, "{pushed:?}");

    // Both sides now restore both problems.
    for dir in [&dir_local, &dir_remote] {
        assert_warm(dir, A, &a_outcome);
        assert_warm(dir, B, &b_outcome);
    }

    // A second sync finds nothing to move.
    let (pulled, pushed) = local.sync(&remote).unwrap();
    assert_eq!(pulled.manifests_copied + pushed.manifests_copied, 0);
    assert_eq!(pulled.chunks_copied + pushed.chunks_copied, 0);

    let _ = std::fs::remove_dir_all(&dir_local);
    let _ = std::fs::remove_dir_all(&dir_remote);
}

#[test]
fn gc_respects_the_budget_and_never_breaks_a_surviving_manifest() {
    let dir = scratch_dir("gc");
    let (a_fp, _) = populate(&dir, A);
    let (b_fp, b_outcome) = populate(&dir, B);

    let store = ChunkStore::open(&dir).unwrap();
    let before = store.stats();
    assert_eq!(before.manifests, 2);
    let budget = before.total_bytes() - 1;

    // Make B the most recently used so the LRU eviction targets A.
    store.touch(b_fp, 0);
    let report = store.gc(Some(budget)).unwrap();
    assert!(report.manifests_evicted >= 1, "{report:?}");
    assert!(report.bytes_remaining <= budget, "{report:?}");

    let after = store.stats();
    assert!(
        after.total_bytes() <= budget,
        "gc left {} bytes against a budget of {budget}",
        after.total_bytes()
    );
    assert!(store.manifest(a_fp).is_none(), "A was the LRU victim");
    assert!(store.manifest(b_fp).is_some(), "B must survive");

    // The survivor is *fully* restorable: every chunk its manifest names
    // is still present and intact.
    let verify = store.verify();
    assert_eq!(verify.manifests_broken, 0, "{verify:?}");
    assert_eq!(verify.chunks_quarantined, 0, "{verify:?}");
    assert_warm(&dir, B, &b_outcome);

    // A is simply cold again — no error, no quarantine.
    let a_problem = benchmarks::find(A).unwrap().problem().unwrap();
    let a_result = warm_engine(&dir).run(&a_problem, &test_options());
    assert_eq!(a_result.stats.warm_start_loads, 0);
    assert_eq!(a_result.stats.warm_start_quarantined, 0);

    let _ = std::fs::remove_dir_all(&dir);
}
