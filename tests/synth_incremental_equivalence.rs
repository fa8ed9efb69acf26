//! Incremental synthesis correctness: an engine backed by a persistent
//! [`hanoi_repro::synth::TermBank`] must return *identical* predicates (and
//! enumerate identical term counts at parallelism 1) to a
//! rebuild-per-iteration engine, across every benchmark of the suite and a
//! CEGIS-like sequence of growing example sets — parallel guessing must be
//! outcome-identical to serial guessing, and the packed bitset signature
//! rows must be indistinguishable (outcomes, terms enumerated, eq-class
//! splits) from the per-cell id rows they replace.

use hanoi_repro::hanoi::{Engine as InferenceEngine, RunOptions};
use hanoi_repro::lang::enumerate::ValueEnumerator;
use hanoi_repro::lang::util::Deadline;
use hanoi_repro::lang::value::Value;
use hanoi_repro::synth::engine::Engine;
use hanoi_repro::synth::{ExampleSet, SearchConfig, TermBank};

/// A small search configuration: big enough to exercise every generation
/// rule (components, constructors, equality, connectives, match refinement,
/// recursion), small enough that even a failed search over 28 benchmarks
/// stays fast in debug builds.
fn test_config() -> SearchConfig {
    SearchConfig {
        schedule: vec![(0, 4), (1, 5)],
        max_terms_per_layer: 300,
        fuel: 4_000,
        extra_components: Vec::new(),
        use_bitset_rows: true,
        int_literals: Vec::new(),
    }
}

/// The numeric-family search: the base test configuration widened with the
/// bounded linear-arithmetic components and the integer literal pool, and a
/// schedule deep enough to apply binary atoms.
fn numeric_config() -> SearchConfig {
    let bounds = hanoi_repro::synth::arith::ArithBounds::default();
    SearchConfig {
        schedule: vec![(0, 5), (1, 7)],
        extra_components: hanoi_repro::synth::arith::components(&bounds),
        int_literals: hanoi_repro::synth::arith::literal_pool(&bounds),
        ..test_config()
    }
}

/// The same search with the packed bitset rows disabled: every signature
/// stays a per-cell id row.  The two representations must be observably
/// identical.
fn id_row_config() -> SearchConfig {
    SearchConfig {
        use_bitset_rows: false,
        ..test_config()
    }
}

/// A CEGIS-like example sequence for one benchmark: the smallest enumerable
/// values of the concrete type split into a fixed positive set and a stream
/// of negatives added one per iteration, each step trace-completed exactly
/// like the inference driver does.
fn example_sequence(problem: &hanoi_repro::abstraction::Problem) -> Vec<ExampleSet> {
    let concrete = problem.concrete_type().clone();
    let values = ValueEnumerator::new(&problem.tyenv).first_values(&concrete, 9, 7);
    if values.len() < 3 {
        return Vec::new();
    }
    let split = (values.len() * 2) / 3;
    let (positives, negatives) = values.split_at(split);
    let mut sequence = Vec::new();
    for step in 1..=negatives.len() {
        let examples =
            ExampleSet::from_sets(positives.iter().cloned(), negatives[..step].iter().cloned())
                .expect("enumerated values are distinct");
        let (closed, _) = examples.trace_completed(&problem.tyenv, &concrete);
        sequence.push(closed);
    }
    sequence
}

#[test]
fn persistent_bank_engines_match_fresh_engines_on_every_benchmark() {
    for benchmark in hanoi_repro::benchmarks::registry() {
        let problem = benchmark
            .problem()
            .unwrap_or_else(|e| panic!("{}: {e}", benchmark.id));
        let sequence = example_sequence(&problem);
        assert!(
            !sequence.is_empty(),
            "{}: no example sequence",
            benchmark.id
        );

        let serial_engine = Engine::new(&problem, test_config());
        let parallel_engines: Vec<(usize, Engine<'_>)> = [2usize, 0]
            .into_iter()
            .map(|p| (p, Engine::new(&problem, test_config()).with_parallelism(p)))
            .collect();
        let idrow_engines: Vec<(usize, Engine<'_>)> = [1usize, 2, 0]
            .into_iter()
            .map(|p| {
                (
                    p,
                    Engine::new(&problem, id_row_config()).with_parallelism(p),
                )
            })
            .collect();
        let bank = TermBank::new();
        let parallel_banks: Vec<TermBank> =
            parallel_engines.iter().map(|_| TermBank::new()).collect();
        let idrow_banks: Vec<TermBank> = idrow_engines.iter().map(|_| TermBank::new()).collect();

        for (iteration, examples) in sequence.iter().enumerate() {
            // Rebuild-per-iteration baseline: a throwaway bank per call.
            let fresh_bank = TermBank::new();
            let fresh =
                serial_engine.synthesize_with_bank(&fresh_bank, examples, &Deadline::none());

            // Persistent-bank run of the same iteration.
            let terms_before = bank.stats().terms_enumerated;
            let banked = serial_engine.synthesize_with_bank(&bank, examples, &Deadline::none());
            let banked_terms = bank.stats().terms_enumerated - terms_before;

            assert_eq!(
                banked, fresh,
                "{}: iteration {iteration} diverged between persistent and \
                 fresh banks",
                benchmark.id
            );
            assert_eq!(
                banked_terms,
                fresh_bank.stats().terms_enumerated,
                "{}: iteration {iteration} enumerated a different number of \
                 terms with a persistent bank",
                benchmark.id
            );

            // Parallel guessing (own persistent banks) must be
            // outcome-identical to the serial run.
            for ((parallelism, engine), pbank) in parallel_engines.iter().zip(&parallel_banks) {
                let parallel = engine.synthesize_with_bank(pbank, examples, &Deadline::none());
                assert_eq!(
                    parallel, banked,
                    "{}: iteration {iteration} diverged at parallelism \
                     {parallelism}",
                    benchmark.id
                );
            }

            // Per-cell id rows (own persistent banks) must match the packed
            // bitset rows — outcome *and* terms enumerated, at every
            // parallelism level.
            for ((parallelism, engine), ibank) in idrow_engines.iter().zip(&idrow_banks) {
                let iterms_before = ibank.stats().terms_enumerated;
                let idrow = engine.synthesize_with_bank(ibank, examples, &Deadline::none());
                assert_eq!(
                    idrow, banked,
                    "{}: iteration {iteration} diverged between bitset and \
                     id rows at parallelism {parallelism}",
                    benchmark.id
                );
                if *parallelism == 1 {
                    assert_eq!(
                        ibank.stats().terms_enumerated - iterms_before,
                        banked_terms,
                        "{}: iteration {iteration} enumerated a different \
                         number of terms with id rows",
                        benchmark.id
                    );
                }
            }
        }

        // The bitset and id-row representations must partition terms into
        // identical equivalence classes: same split counts over the whole
        // sequence.
        assert_eq!(
            bank.stats().eq_class_splits,
            idrow_banks[0].stats().eq_class_splits,
            "{}: bitset and id rows disagreed on eq-class splits",
            benchmark.id
        );

        // Later iterations of a growing example sequence must actually have
        // exercised the incremental machinery.
        let stats = bank.stats();
        assert_eq!(stats.sessions as usize, sequence.len(), "{}", benchmark.id);
        assert!(
            stats.column_appends > 0,
            "{}: new negatives must append signature columns",
            benchmark.id
        );
    }
}

#[test]
fn numeric_family_engines_agree_across_every_representation() {
    // The linear-arithmetic grammar must satisfy the same equivalence
    // matrix as the base grammar: persistent bank ≡ fresh bank (outcome and
    // term counts, including the arithmetic-atom counter), parallel ≡
    // serial, and bitset ≡ id rows — on every numeric benchmark.
    for benchmark in hanoi_repro::benchmarks::numeric_registry() {
        let problem = benchmark
            .problem()
            .unwrap_or_else(|e| panic!("{}: {e}", benchmark.id));
        let sequence = example_sequence(&problem);
        assert!(
            !sequence.is_empty(),
            "{}: no example sequence",
            benchmark.id
        );

        let serial_engine = Engine::new(&problem, numeric_config());
        let parallel_engines: Vec<(usize, Engine<'_>)> = [2usize, 0]
            .into_iter()
            .map(|p| {
                (
                    p,
                    Engine::new(&problem, numeric_config()).with_parallelism(p),
                )
            })
            .collect();
        let idrow_engine = Engine::new(
            &problem,
            SearchConfig {
                use_bitset_rows: false,
                ..numeric_config()
            },
        );
        let bank = TermBank::new();
        let parallel_banks: Vec<TermBank> =
            parallel_engines.iter().map(|_| TermBank::new()).collect();
        let idrow_bank = TermBank::new();

        for (iteration, examples) in sequence.iter().enumerate() {
            let fresh_bank = TermBank::new();
            let fresh =
                serial_engine.synthesize_with_bank(&fresh_bank, examples, &Deadline::none());

            let before = bank.stats();
            let banked = serial_engine.synthesize_with_bank(&bank, examples, &Deadline::none());
            let after = bank.stats();

            assert_eq!(
                banked, fresh,
                "{}: iteration {iteration} diverged between persistent and fresh banks",
                benchmark.id
            );
            let fresh_stats = fresh_bank.stats();
            assert_eq!(
                after.terms_enumerated - before.terms_enumerated,
                fresh_stats.terms_enumerated,
                "{}: iteration {iteration} term counts diverged",
                benchmark.id
            );
            assert_eq!(
                after.arith_atoms - before.arith_atoms,
                fresh_stats.arith_atoms,
                "{}: iteration {iteration} arith-atom counts diverged between \
                 persistent (memo-replayed) and fresh banks",
                benchmark.id
            );

            for ((parallelism, engine), pbank) in parallel_engines.iter().zip(&parallel_banks) {
                let parallel = engine.synthesize_with_bank(pbank, examples, &Deadline::none());
                assert_eq!(
                    parallel, banked,
                    "{}: iteration {iteration} diverged at parallelism {parallelism}",
                    benchmark.id
                );
            }

            let ibefore = idrow_bank.stats();
            let idrow = idrow_engine.synthesize_with_bank(&idrow_bank, examples, &Deadline::none());
            let iafter = idrow_bank.stats();
            assert_eq!(
                idrow, banked,
                "{}: iteration {iteration} diverged between bitset and id rows",
                benchmark.id
            );
            assert_eq!(
                iafter.terms_enumerated - ibefore.terms_enumerated,
                after.terms_enumerated - before.terms_enumerated,
                "{}: iteration {iteration} enumerated a different number of \
                 terms with id rows",
                benchmark.id
            );
            assert_eq!(
                iafter.arith_atoms - ibefore.arith_atoms,
                after.arith_atoms - before.arith_atoms,
                "{}: iteration {iteration} arith-atom counts depend on the row \
                 representation",
                benchmark.id
            );
        }

        // The numeric grammar must actually have been exercised: integer
        // literals and arithmetic components enumerate on every benchmark.
        assert!(
            bank.stats().arith_atoms > 0,
            "{}: no arithmetic atoms enumerated",
            benchmark.id
        );
        assert_eq!(
            bank.stats().eq_class_splits,
            idrow_bank.stats().eq_class_splits,
            "{}: bitset and id rows disagreed on eq-class splits",
            benchmark.id
        );
    }
}

#[test]
fn bank_reuse_across_iterations_serves_hits() {
    // On a benchmark with real function components the warm iterations must
    // be served largely from the bank.
    let problem = hanoi_repro::benchmarks::find("/coq/unique-list-::-set")
        .unwrap()
        .problem()
        .unwrap();
    let engine = Engine::new(&problem, test_config());
    let bank = TermBank::new();
    for examples in example_sequence(&problem) {
        let _ = engine.synthesize_with_bank(&bank, &examples, &Deadline::none());
    }
    let stats = bank.stats();
    assert!(stats.bank_misses > 0, "cold columns reach the interpreter");
    assert!(
        stats.bank_hits > stats.bank_misses,
        "warm iterations must be dominated by bank hits: hits={} misses={}",
        stats.bank_hits,
        stats.bank_misses
    );
    assert!(
        stats.guess_memo_hits > 0,
        "a growing example sequence must replay unchanged sub-guesses from \
         the guess memo: {stats:?}"
    );
    assert!(
        stats.probe_batches > 0,
        "component applications must go through batched probes: {stats:?}"
    );
}

#[test]
fn eq_class_splits_are_detected_when_a_column_distinguishes_terms() {
    // [0] and [1] are indistinguishable to size-1 terms until an example
    // involving their contents arrives; growing the example set must report
    // re-splits of previously merged equivalence classes.
    let problem = hanoi_repro::benchmarks::find("/coq/unique-list-::-set")
        .unwrap()
        .problem()
        .unwrap();
    let engine = Engine::new(&problem, test_config());
    let bank = TermBank::new();
    let first = ExampleSet::from_sets([Value::nat_list(&[])], [Value::nat_list(&[0, 0])]).unwrap();
    let (first, _) = first.trace_completed(&problem.tyenv, problem.concrete_type());
    let _ = engine.synthesize_with_bank(&bank, &first, &Deadline::none());

    let second = ExampleSet::from_sets(
        [
            Value::nat_list(&[]),
            Value::nat_list(&[1]),
            Value::nat_list(&[2, 1]),
        ],
        [
            Value::nat_list(&[0, 0]),
            Value::nat_list(&[1, 1]),
            Value::nat_list(&[2, 2]),
        ],
    )
    .unwrap();
    let (second, _) = second.trace_completed(&problem.tyenv, problem.concrete_type());
    let _ = engine.synthesize_with_bank(&bank, &second, &Deadline::none());

    let stats = bank.stats();
    assert!(stats.column_appends > 0);
    assert!(
        stats.eq_class_splits > 0,
        "new columns must re-split previously merged classes: {stats:?}"
    );
}

/// The packed signature matrix itself: packing, connectives, equality and
/// projection must behave cell-for-cell like the id rows they replace —
/// including error cells (`None`), mixed boolean/non-boolean rows, and
/// columns that straddle the 64-world word boundary.
mod sig_matrix_units {
    use hanoi_repro::synth::bank::{bool_id, Sig, SigMatrix, FALSE_ID, TRUE_ID};

    /// A deterministic mixed row over `width` worlds: errors every 7th
    /// world, true/false elsewhere by parity.
    fn bool_cells(width: usize, phase: usize) -> Vec<Option<u32>> {
        (0..width)
            .map(|w| {
                (!(w + phase).is_multiple_of(7)).then(|| bool_id((w + phase).is_multiple_of(2)))
            })
            .collect()
    }

    fn cells_of(sig: &Sig, width: usize) -> Vec<Option<u32>> {
        (0..width).map(|w| sig.cell(w)).collect()
    }

    #[test]
    fn boolean_rows_pack_and_read_back_across_word_boundaries() {
        for width in [1usize, 63, 64, 65, 70, 128, 130] {
            let matrix = SigMatrix::new(width, true);
            let cells = bool_cells(width, 0);
            let sig = matrix.pack(true, cells.clone());
            assert!(
                matches!(sig, Sig::Bits(_)),
                "width {width}: boolean rows must pack"
            );
            assert_eq!(cells_of(&sig, width), cells, "width {width}");
        }
    }

    #[test]
    fn non_boolean_and_mixed_rows_fall_back_to_id_rows() {
        let matrix = SigMatrix::new(66, true);
        // A non-boolean type never packs, even when its ids look boolean.
        let sig = matrix.pack(false, vec![Some(TRUE_ID); 66]);
        assert!(matches!(sig, Sig::Ids(_)));
        // A boolean-typed row with one non-boolean id (impossible in real
        // runs, the canonical guard) falls back too.
        let mut cells = bool_cells(66, 0);
        cells[65] = Some(17);
        let sig = matrix.pack(true, cells.clone());
        assert!(matches!(sig, Sig::Ids(_)));
        assert_eq!(cells_of(&sig, 66), cells);
        // With the matrix disabled nothing packs.
        let disabled = SigMatrix::new(66, false);
        let sig = disabled.pack(true, bool_cells(66, 0));
        assert!(matches!(sig, Sig::Ids(_)));
    }

    #[test]
    fn connectives_match_per_cell_semantics_with_error_cells() {
        for width in [5usize, 64, 65, 130] {
            let packed = SigMatrix::new(width, true);
            let plain = SigMatrix::new(width, false);
            let (a, b) = (bool_cells(width, 0), bool_cells(width, 3));
            let pa = packed.pack(true, a.clone());
            let pb = packed.pack(true, b.clone());
            let ia = plain.pack(true, a);
            let ib = plain.pack(true, b);
            for (bits, ids) in [
                (packed.not(&pa), plain.not(&ia)),
                (
                    packed.connective(&pa, &pb, true),
                    plain.connective(&ia, &ib, true),
                ),
                (
                    packed.connective(&pa, &pb, false),
                    plain.connective(&ia, &ib, false),
                ),
                (packed.equality(&pa, &pb), plain.equality(&ia, &ib)),
            ] {
                assert_eq!(
                    cells_of(&bits, width),
                    cells_of(&ids, width),
                    "width {width}: bitset and id connectives diverged"
                );
            }
            // An error operand poisons exactly its own world.
            let not_a = packed.not(&pa);
            for w in 0..width {
                assert_eq!(not_a.cell(w).is_none(), pa.cell(w).is_none(), "world {w}");
            }
        }
    }

    #[test]
    fn equality_of_id_rows_packs_boolean_results() {
        let matrix = SigMatrix::new(65, true);
        let a = matrix.pack(false, (0..65).map(|w| Some(w as u32 + 2)).collect());
        let b = matrix.pack(
            false,
            (0..65)
                .map(|w| Some(if w % 3 == 0 { w as u32 + 2 } else { 1_000_000 }))
                .collect(),
        );
        let eq = matrix.equality(&a, &b);
        assert!(
            matches!(eq, Sig::Bits(_)),
            "equality outcomes are boolean and must pack"
        );
        for w in 0..65 {
            assert_eq!(eq.cell(w), Some(bool_id(w % 3 == 0)), "world {w}");
        }
    }

    #[test]
    fn projections_are_canonical_across_representations() {
        // The same logical row must project to the same `OldSig` whether it
        // was packed or not — otherwise split counts would depend on the
        // representation.
        for width in [8usize, 64, 66, 129] {
            let packed = SigMatrix::new(width, true);
            let plain = SigMatrix::new(width, false);
            let mask: Vec<bool> = (0..width).map(|w| w % 3 != 1).collect();
            let cells = bool_cells(width, 1);
            let from_bits = {
                let sig = packed.pack(true, cells.clone());
                assert!(matches!(sig, Sig::Bits(_)));
                packed.project(&sig, &packed.mask_words(&mask), &mask)
            };
            let from_ids = {
                let sig = plain.pack(true, cells);
                assert!(matches!(sig, Sig::Ids(_)));
                // Project through the *enabled* matrix, as `Sieve::add` does
                // when a packable id row arrives.
                packed.project(&sig, &packed.mask_words(&mask), &mask)
            };
            assert_eq!(from_bits, from_ids, "width {width}");
        }
    }

    #[test]
    fn wide_int_id_rows_stay_dense_and_keep_the_validity_mask_exact() {
        // Int-typed rows are non-boolean: whatever their ids look like, they
        // must stay on the dense-id lane even with packing enabled, and
        // their error cells must survive round trips and equality exactly —
        // in particular in the tail words past the first 64 worlds.
        for width in [65usize, 128, 130, 192] {
            let matrix = SigMatrix::new(width, true);
            // Errors every 9th world; distinct ids elsewhere (simulating
            // interned Int values).
            let cells: Vec<Option<u32>> = (0..width)
                .map(|w| (w % 9 != 5).then(|| w as u32 + 10))
                .collect();
            let sig = matrix.pack(false, cells.clone());
            assert!(
                matches!(sig, Sig::Ids(_)),
                "width {width}: int rows must not pack"
            );
            assert_eq!(cells_of(&sig, width), cells, "width {width}");

            // Equality against a fully-valid row: the result is boolean (so
            // it packs), and its validity mask must equal the int row's —
            // no world, least of all one past a word boundary, may flip
            // from error to valid or back.
            let other = matrix.pack(false, (0..width).map(|w| Some(w as u32 + 10)).collect());
            let eq = matrix.equality(&sig, &other);
            assert!(
                matches!(eq, Sig::Bits(_)),
                "width {width}: equality of int rows is boolean and packs"
            );
            for (w, cell) in cells.iter().enumerate() {
                match cell {
                    None => assert_eq!(eq.cell(w), None, "width {width} world {w}"),
                    Some(_) => assert_eq!(
                        eq.cell(w),
                        Some(TRUE_ID),
                        "width {width} world {w}: equal ids must compare true"
                    ),
                }
            }

            // Projection through a mask keeps the dense representation and
            // the per-world validity, including boundary worlds 63..66.
            let mask: Vec<bool> = (0..width).map(|w| w % 4 != 2).collect();
            let projected = matrix.project(&sig, &matrix.mask_words(&mask), &mask);
            let reference = {
                let plain = SigMatrix::new(width, false);
                let sig = plain.pack(false, cells.clone());
                matrix.project(&sig, &matrix.mask_words(&mask), &mask)
            };
            assert_eq!(
                projected, reference,
                "width {width}: projection is canonical"
            );
        }
    }

    #[test]
    fn matches_compares_whole_rows() {
        let matrix = SigMatrix::new(70, true);
        let target = matrix.pack(true, vec![Some(TRUE_ID); 70]);
        let mut almost = vec![Some(TRUE_ID); 70];
        almost[69] = Some(FALSE_ID);
        assert!(matrix.matches(&target, &matrix.pack(true, vec![Some(TRUE_ID); 70])));
        assert!(!matrix.matches(&matrix.pack(true, almost), &target));
        assert!(matrix.ops() > 0, "bitset comparisons are counted");
    }
}

#[test]
fn word_boundary_example_sets_agree_across_representations() {
    // More than 64 example worlds forces multi-word bitset lanes; the
    // packed and per-cell engines must still agree exactly.
    let problem = hanoi_repro::benchmarks::find("/coq/unique-list-::-set")
        .unwrap()
        .problem()
        .unwrap();
    let concrete = problem.concrete_type().clone();
    let values = ValueEnumerator::new(&problem.tyenv).first_values(&concrete, 90, 12);
    assert!(
        values.len() >= 80,
        "need enough worlds, got {}",
        values.len()
    );
    let (positives, negatives) = values.split_at(40);
    let examples = ExampleSet::from_sets(positives.iter().cloned(), negatives.iter().cloned())
        .expect("enumerated values are distinct");
    let (examples, _) = examples.trace_completed(&problem.tyenv, &concrete);
    assert!(
        examples.len() > 64,
        "the closed example set must straddle the word boundary, got {}",
        examples.len()
    );

    let bitset_engine = Engine::new(&problem, test_config());
    let idrow_engine = Engine::new(&problem, id_row_config());
    let bitset_bank = TermBank::new();
    let idrow_bank = TermBank::new();
    let packed = bitset_engine.synthesize_with_bank(&bitset_bank, &examples, &Deadline::none());
    let plain = idrow_engine.synthesize_with_bank(&idrow_bank, &examples, &Deadline::none());
    assert_eq!(packed, plain);
    let (b, i) = (bitset_bank.stats(), idrow_bank.stats());
    assert_eq!(b.terms_enumerated, i.terms_enumerated);
    assert_eq!(b.eq_class_splits, i.eq_class_splits);
    assert!(b.bitset_row_ops > 0, "the packed path must be exercised");
    assert_eq!(i.bitset_row_ops, 0, "the id-row path must not pack");

    // Parallel guessing over multi-word lanes must not change the outcome
    // at any level.
    for parallelism in [2usize, 4, 0] {
        let engine = Engine::new(&problem, test_config()).with_parallelism(parallelism);
        let parallel = engine.synthesize_with_bank(&TermBank::new(), &examples, &Deadline::none());
        assert_eq!(parallel, packed, "parallelism {parallelism}");
    }
}

#[test]
fn run_stats_surface_the_synthesis_counters() {
    let problem = hanoi_repro::benchmarks::find("/coq/unique-list-::-set")
        .unwrap()
        .problem()
        .unwrap();
    let result = InferenceEngine::with_defaults().run(&problem, &RunOptions::quick());
    assert!(result.is_success(), "{:?}", result.outcome);
    let stats = &result.stats;
    assert!(stats.synth_terms_enumerated > 0, "terms are counted");
    assert!(
        stats.synth_column_appends > 0,
        "counterexamples append signature columns: {stats:?}"
    );
    assert!(
        stats.synth_bank_hits > 0,
        "later iterations reuse banked evaluations: {stats:?}"
    );
}
