//! Warm-start store correctness: a run restored from a *disk snapshot* in a
//! brand-new engine — the cross-process reuse path — must produce results
//! identical to a cold run on every benchmark of the suite, and tampering
//! must degrade gracefully: a tampered *chunk* is quarantined individually
//! while the restore proceeds with the remaining chunks, and a defective
//! *manifest* or a wrapper that fails validation degrades to a clean cold
//! start — never a wrong answer either way.
//!
//! This is the cross-process analogue of `tests/engine_reuse_equivalence.rs`
//! (which pins in-process warm ≡ cold): here the warmth travels through
//! `Engine::save_state` → the chunk store (manifests keyed by
//! `Problem::fingerprint()` over digest-named chunks) →
//! `EngineConfig::warm_start_dir`, exercising the structural digest keys,
//! the check-cache and term-bank serializers and chunk codecs, and the
//! snapshot validation, none of which may depend on in-process state.
//!
//! The run options are chosen deterministic (no wall-clock timeout, a small
//! iteration cap, a small search schedule) so outcomes are pure functions of
//! the problem and the caches: any restored/cold divergence is a snapshot
//! bug, not scheduling noise.

use std::path::PathBuf;

use hanoi_repro::benchmarks;
use hanoi_repro::hanoi::json::Json;
use hanoi_repro::hanoi::{Engine, EngineConfig, Outcome, RunOptions};
use hanoi_repro::store::{ChunkLoad, ChunkStore};
use hanoi_repro::synth::SearchConfig;
use hanoi_repro::verifier::VerifierBounds;

/// Deterministic options, mirroring `tests/engine_reuse_equivalence.rs`.
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

/// A label for outcome comparison that is total (invariants compare by
/// expression, failures by kind+message).
fn outcome_key(outcome: &Outcome) -> String {
    match outcome {
        Outcome::Invariant(inv) => format!("invariant: {inv}"),
        other => other.to_string(),
    }
}

/// A unique scratch directory (the offline build has no tempfile crate).
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "hanoi-warm-start-eq-{tag}-{}-{:?}",
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

#[test]
fn snapshot_restored_engines_match_cold_engines_on_every_benchmark() {
    // The equivalence the store must uphold on all 28 benchmarks: restored
    // ≡ cold, on outcome, CEGIS iteration count and the learned V± sets.
    let dir = scratch_dir("suite");
    for benchmark in benchmarks::registry() {
        let problem = benchmark
            .problem()
            .unwrap_or_else(|e| panic!("{}: {e}", benchmark.id));
        let options = test_options();

        // Cold: a fresh engine with no store, exactly one run.
        let cold = Engine::with_defaults().run(&problem, &options);

        // "Process 1": solve once, checkpoint.
        let saver = warm_engine(&dir);
        let first = saver.run(&problem, &options);
        assert_eq!(
            outcome_key(&first.outcome),
            outcome_key(&cold.outcome),
            "{}: a store-attached engine diverged before any snapshot existed",
            benchmark.id
        );
        assert!(
            saver.save_state(&dir).unwrap() >= 1,
            "{}: snapshot write",
            benchmark.id
        );
        assert!(
            dir.join("manifests")
                .join(format!("{}.json", problem.fingerprint().to_hex()))
                .is_file(),
            "{}: the chunked save must produce a manifest",
            benchmark.id
        );

        // "Process 2": a brand-new engine whose only warmth is the disk.
        // Outcome, iteration count and V± must be identical.
        let restored = warm_engine(&dir).run(&problem, &options);
        assert_eq!(
            outcome_key(&restored.outcome),
            outcome_key(&cold.outcome),
            "{}: snapshot-restored run diverged from a cold run",
            benchmark.id
        );
        assert_eq!(
            restored.stats.iterations, cold.stats.iterations,
            "{}: restored run took a different CEGIS path",
            benchmark.id
        );
        assert_eq!(
            restored.stats.final_positives, cold.stats.final_positives,
            "{}: restored run learned a different V+",
            benchmark.id
        );
        assert_eq!(
            restored.stats.final_negatives, cold.stats.final_negatives,
            "{}: restored run learned a different V−",
            benchmark.id
        );

        // The warmth must be real and must have come from the disk.
        assert!(
            restored.stats.warm_start_loads > 0,
            "{}: nothing was restored ({:?})",
            benchmark.id,
            restored.stats
        );
        assert_eq!(
            restored.stats.warm_start_quarantined, 0,
            "{}: a clean store quarantined something ({:?})",
            benchmark.id, restored.stats
        );
        assert_eq!(
            restored.stats.verification_cache_hits as usize, restored.stats.verification_calls,
            "{}: a restored identical re-run must answer every check from the \
             snapshot ({:?})",
            benchmark.id, restored.stats
        );
        assert_eq!(
            restored.stats.pool_builds, 0,
            "{}: a fully warm restored run enumerated pools",
            benchmark.id
        );
        assert!(
            restored.stats.synth_terms_enumerated <= cold.stats.synth_terms_enumerated,
            "{}: a restored bank enumerated more terms than a cold one ({} > {})",
            benchmark.id,
            restored.stats.synth_terms_enumerated,
            cold.stats.synth_terms_enumerated
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn numeric_family_snapshots_restore_identically_in_both_formats() {
    // The numeric/trace family goes through the same store machinery —
    // including Int values in the term-bank interner and arithmetic
    // components in the session digest — so it must uphold the same
    // equivalence: restored ≡ cold.
    let dir = scratch_dir("numeric");
    for benchmark in benchmarks::numeric_registry() {
        let problem = benchmark
            .problem()
            .unwrap_or_else(|e| panic!("{}: {e}", benchmark.id));
        let options =
            test_options().with_numeric_grammar(&hanoi_repro::synth::arith::ArithBounds::default());

        let cold = Engine::with_defaults().run(&problem, &options);

        let saver = warm_engine(&dir);
        let first = saver.run(&problem, &options);
        assert_eq!(
            outcome_key(&first.outcome),
            outcome_key(&cold.outcome),
            "{}: a store-attached engine diverged before any snapshot existed",
            benchmark.id
        );
        assert!(
            first.stats.synth_arith_atoms > 0,
            "{}: the numeric grammar must enumerate arithmetic atoms ({:?})",
            benchmark.id,
            first.stats
        );
        assert!(saver.save_state(&dir).unwrap() >= 1, "{}", benchmark.id);

        let restored = warm_engine(&dir).run(&problem, &options);
        assert_eq!(
            outcome_key(&restored.outcome),
            outcome_key(&cold.outcome),
            "{}: snapshot-restored run diverged from a cold run",
            benchmark.id
        );
        assert_eq!(
            restored.stats.iterations, cold.stats.iterations,
            "{}: restored run took a different CEGIS path",
            benchmark.id
        );
        assert_eq!(
            (
                restored.stats.final_positives,
                restored.stats.final_negatives
            ),
            (cold.stats.final_positives, cold.stats.final_negatives),
            "{}: restored run learned different examples",
            benchmark.id
        );
        assert!(
            restored.stats.warm_start_loads > 0,
            "{}: nothing was restored ({:?})",
            benchmark.id,
            restored.stats
        );
        assert_eq!(
            restored.stats.warm_start_quarantined, 0,
            "{}: a clean store quarantined something",
            benchmark.id
        );
        // Guess memos replay the arithmetic-atom counter: a fully warm
        // identical re-run must report exactly the cold run's count.
        assert_eq!(
            restored.stats.synth_arith_atoms, cold.stats.synth_arith_atoms,
            "{}: memo-served guesses must replay the arithmetic-atom counter ({:?})",
            benchmark.id, restored.stats
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn every_chunk_tampered_in_turn_quarantines_only_itself() {
    // The tamper loop: for each chunk the manifest lists, flip its bytes
    // and restore.  Exactly that chunk must be quarantined, the restore
    // must proceed with the remaining chunks, and the outcome must stay
    // equal to cold — chunk-level corruption isolation, every position.
    let dir = scratch_dir("chunk-tamper-loop");
    let benchmark = benchmarks::find("/coq/unique-list-::-set").unwrap();
    let problem = benchmark.problem().unwrap();
    let options = test_options();
    let cold = Engine::with_defaults().run(&problem, &options);

    let saver = warm_engine(&dir);
    let _ = saver.run(&problem, &options);
    saver.save_state(&dir).unwrap();

    let store = ChunkStore::open(&dir).unwrap();
    let manifest = store.manifest(problem.fingerprint()).unwrap();
    assert!(
        manifest.entries.len() >= 3,
        "a solved benchmark should chunk into check stripe(s) + bank chunks: {:?}",
        manifest.entries.len()
    );
    for (i, entry) in manifest.entries.iter().enumerate() {
        let chunk_path = dir
            .join("chunks")
            .join(format!("{}.json", entry.chunk.to_hex()));
        let pristine = std::fs::read(&chunk_path).unwrap();
        std::fs::write(&chunk_path, b"flipped bytes").unwrap();

        let result = warm_engine(&dir).run(&problem, &options);
        assert_eq!(
            outcome_key(&result.outcome),
            outcome_key(&cold.outcome),
            "chunk {i} ({}): tampering changed the outcome",
            entry.section
        );
        assert_eq!(
            result.stats.iterations, cold.stats.iterations,
            "chunk {i} ({}): tampering changed the CEGIS path",
            entry.section
        );
        assert_eq!(
            result.stats.warm_start_quarantined, 1,
            "chunk {i} ({}): exactly the tampered chunk must be quarantined ({:?})",
            entry.section, result.stats
        );
        assert!(
            result.stats.warm_start_loads > 0,
            "chunk {i} ({}): the surviving chunks must still restore ({:?})",
            entry.section,
            result.stats
        );
        let quarantine_path = dir
            .join("chunks")
            .join(format!("{}.json.corrupt", entry.chunk.to_hex()));
        assert!(
            quarantine_path.is_file(),
            "chunk {i} ({}): the tampered chunk must be preserved for diagnosis",
            entry.section
        );

        // Heal for the next round.
        std::fs::remove_file(&quarantine_path).unwrap();
        std::fs::write(&chunk_path, &pristine).unwrap();
    }

    // After healing, the store restores in full again.
    let restored = warm_engine(&dir).run(&problem, &options);
    assert_eq!(outcome_key(&restored.outcome), outcome_key(&cold.outcome));
    assert_eq!(restored.stats.warm_start_quarantined, 0);
    assert!(restored.stats.warm_start_loads > 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn tampered_snapshots_fall_back_to_cold_never_a_wrong_answer() {
    let dir = scratch_dir("tamper");
    let benchmark = benchmarks::find("/coq/unique-list-::-set").unwrap();
    let problem = benchmark.problem().unwrap();
    let options = test_options();
    let cold = Engine::with_defaults().run(&problem, &options);

    // Save this problem and one other, whose manifest is the "foreign" one.
    let other = benchmarks::find("/other/cache").unwrap().problem().unwrap();
    let saver = warm_engine(&dir);
    let _ = saver.run(&problem, &options);
    let _ = saver.run(&other, &options);
    saver.save_state(&dir).unwrap();
    let store = ChunkStore::open(&dir).unwrap();
    let manifest_path = |fingerprint: hanoi_repro::lang::digest::Digest| {
        dir.join("manifests")
            .join(format!("{}.json", fingerprint.to_hex()))
    };
    let path = manifest_path(problem.fingerprint());
    let pristine = std::fs::read_to_string(&path).unwrap();
    let foreign = std::fs::read_to_string(manifest_path(other.fingerprint())).unwrap();
    let quarantine_path = path.with_extension("json.corrupt");

    // Each tampering mode must yield a *cold* run with the *correct*
    // outcome: no error surfaces, nothing is restored, nothing is wrong.
    // `true` marks the modes where the manifest itself is defective and is
    // moved aside; in the others it parses and the engine rejects the
    // reassembled wrapper.
    let truncated = pristine[..pristine.len() / 3].to_string();
    let garbage = "this is not json{{{".to_string();
    let version_bumped = pristine.replacen("\"wrapper_version\": 2", "\"wrapper_version\": 42", 1);
    assert_ne!(
        version_bumped, pristine,
        "the wrapper version must be present"
    );
    let wrong_kind = pristine.replacen("hanoi-warm-start", "some-other-kind", 1);
    assert_ne!(wrong_kind, pristine);
    for (tag, tampered, moved) in [
        ("truncated", &truncated, true),
        ("garbage", &garbage, true),
        ("version-bumped", &version_bumped, false),
        ("wrong-kind", &wrong_kind, false),
        ("other-problem", &foreign, true),
    ] {
        std::fs::write(&path, tampered).unwrap();
        assert_falls_back_to_cold(&dir, &problem, &cold, tag);
        if moved {
            assert!(
                !path.is_file(),
                "{tag}: the broken manifest must be moved aside"
            );
            assert_eq!(
                std::fs::read_to_string(&quarantine_path).unwrap(),
                **tampered,
                "{tag}: quarantine must preserve the defective bytes for diagnosis"
            );
            std::fs::remove_file(&quarantine_path).unwrap();
        }
    }

    // A lying chunk: valid JSON under a valid content address, but its
    // check stripe carries an entry the check-cache decoder rejects, so the
    // whole wrapper fails validation.
    std::fs::write(&path, &pristine).unwrap();
    let mut lying = store.manifest(problem.fingerprint()).unwrap();
    let stripe = lying
        .entries
        .iter_mut()
        .find(|e| e.section == "checks")
        .expect("a solved benchmark memoizes checks");
    let ChunkLoad::Loaded(Json::Obj(mut chunk)) = store.load_chunk(stripe.chunk) else {
        panic!("the pristine stripe must load");
    };
    let Some(Json::Arr(entries)) = chunk.get_mut("entries") else {
        panic!("a check stripe has an entry list");
    };
    entries.insert(0, Json::Num(17.0));
    (stripe.chunk, stripe.bytes, _) = store.put_chunk(&Json::Obj(chunk).render_pretty()).unwrap();
    store.put_manifest(&lying).unwrap();
    assert_falls_back_to_cold(&dir, &problem, &cold, "lying-chunk");

    // And the pristine snapshot still restores after all that — with
    // nothing quarantined on the clean path.
    std::fs::write(&path, &pristine).unwrap();
    let restored = warm_engine(&dir).run(&problem, &options);
    assert_eq!(outcome_key(&restored.outcome), outcome_key(&cold.outcome));
    assert!(restored.stats.warm_start_loads > 0);
    assert_eq!(restored.stats.warm_start_quarantined, 0);
    assert!(path.is_file(), "a valid manifest stays in place");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Restores `problem` from the tampered store at `dir` and asserts the run
/// is exactly the cold run, with nothing restored and one rejected artifact
/// reported.
fn assert_falls_back_to_cold(
    dir: &PathBuf,
    problem: &hanoi_repro::abstraction::Problem,
    cold: &hanoi_repro::hanoi::RunResult,
    tag: &str,
) {
    let result = warm_engine(dir).run(problem, &test_options());
    assert_eq!(
        outcome_key(&result.outcome),
        outcome_key(&cold.outcome),
        "{tag}: tampered snapshot changed the outcome"
    );
    assert_eq!(
        result.stats.iterations, cold.stats.iterations,
        "{tag}: the fallback run must be exactly the cold run"
    );
    assert_eq!(
        result.stats.warm_start_loads, 0,
        "{tag}: a tampered snapshot must not partially restore"
    );
    assert_eq!(
        result.stats.verification_cache_hits, 0,
        "{tag}: nothing may be served from a rejected snapshot"
    );
    assert_eq!(
        result.stats.warm_start_quarantined, 1,
        "{tag}: a rejected snapshot must be reported as quarantined"
    );
}

#[test]
fn snapshots_accumulate_across_save_load_generations() {
    // Store round trips compose: solve problem A in process 1, problem B in
    // process 2 (which restores A's snapshot untouched), then run both in
    // process 3 — both warm.
    let dir = scratch_dir("generations");
    let options = test_options();
    let a = benchmarks::find("/other/cache").unwrap().problem().unwrap();
    let b = benchmarks::find("/other/rational")
        .unwrap()
        .problem()
        .unwrap();

    let p1 = warm_engine(&dir);
    let a_cold = p1.run(&a, &options);
    p1.save_state(&dir).unwrap();

    let p2 = warm_engine(&dir);
    let b_cold = p2.run(&b, &options);
    assert_eq!(p2.save_state(&dir).unwrap(), 1, "p2 only touched B");

    let p3 = warm_engine(&dir);
    let a_warm = p3.run(&a, &options);
    let b_warm = p3.run(&b, &options);
    assert_eq!(outcome_key(&a_warm.outcome), outcome_key(&a_cold.outcome));
    assert_eq!(outcome_key(&b_warm.outcome), outcome_key(&b_cold.outcome));
    assert!(a_warm.stats.warm_start_loads > 0, "{:?}", a_warm.stats);
    assert!(b_warm.stats.warm_start_loads > 0, "{:?}", b_warm.stats);
    let _ = std::fs::remove_dir_all(&dir);
}
