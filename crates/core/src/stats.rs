//! Run statistics — the columns of Figure 7.

use std::time::Duration;

use crate::json::counters;

counters! {
    /// Statistics collected during one inference run.
    ///
    /// The field names follow the columns of Figure 7: `TVT` (total verification
    /// time), `TVC` (verification call count), `MVT` (mean verification time),
    /// `TST`/`TSC`/`MST` for synthesis, plus the overall wall-clock time and the
    /// size of the inferred invariant.  The generated `to_json` is the one
    /// serial form of run statistics: server `result` frames, `figure7`
    /// rows and `perfbench` results embed it (durations in seconds).
    #[derive(Debug, Clone, Default, PartialEq, Eq)]
    pub struct RunStats {
        /// Total wall-clock time of the run.
        pub total_time: Duration => "total_secs",
        /// Total time spent in the verifier (TVT).
        pub verification_time: Duration => "verification_secs",
        /// Number of verifier calls (TVC).
        pub verification_calls: usize,
        /// Total time spent in the synthesizer (TST).
        pub synthesis_time: Duration => "synthesis_secs",
        /// Number of synthesizer calls (TSC).
        pub synthesis_calls: usize,
        /// Number of CEGIS iterations (calls to the `Hanoi` recursion of
        /// Figure 4, or the analogous loop of a baseline).
        pub iterations: usize,
        /// Synthesis-result cache hits (candidates reused without a synth call).
        pub synthesis_cache_hits: usize,
        /// Negative examples restored by counterexample-list caching.
        pub clc_restored_negatives: usize,
        /// Verifier pool requests answered from the shared pool cache.
        pub pool_cache_hits: u64,
        /// Verifier pools actually enumerated (at most one per distinct
        /// `(type, count, size)` — or function-pool key — per run).
        pub pool_builds: u64,
        /// Per-size enumeration slabs built by the pool cache (at most one per
        /// `(type, size)` per run).
        pub pool_slab_builds: u64,
        /// Candidate-predicate evaluations performed by the verifier's compiled
        /// predicates (pool filtering plus `P`/`Q` tests).
        pub predicate_evals: u64,
        /// Candidate-predicate tests a full-inductiveness check answered from
        /// its verdict table (the candidate's verdicts on that check's pool
        /// values) instead of evaluating.
        pub predicate_table_hits: u64,
        /// Specification evaluations made by the verifier's sufficiency
        /// searches.
        pub spec_evals: u64,
        /// Sufficiency tuples skipped because an earlier check of the
        /// session found that the specification held on them (the session
        /// spec memo).
        pub spec_memo_hits: u64,
        /// Verifier checks answered from the engine's cross-run check-outcome
        /// cache without re-running their sweep.
        pub verification_cache_hits: u64,
        /// Check-outcome cache entries evicted (LRU) during the run because an
        /// insert exceeded the cache capacity.
        pub check_cache_evictions: u64,
        /// Snapshot components (check cache + term banks) the problem's engine
        /// entry was restored from via the warm-start store
        /// (`EngineConfig::warm_start_dir`).  `0` for cold starts and for
        /// engines without a warm-start directory; identical for every run
        /// sharing the restored entry.
        pub warm_start_loads: u64,
        /// Warm-start artifacts that failed to restore when the problem's engine
        /// entry was created: individual chunks whose bytes failed the
        /// content-address re-hash (renamed `*.corrupt`; the restore proceeded
        /// with the remaining chunks), a defective manifest (renamed
        /// `*.corrupt`), or a reassembled wrapper the engine rejected — a
        /// foreign wrapper version or kind, or a component that fails to decode
        /// (the run starts cold).  `0` when the snapshot was missing or
        /// restored cleanly; like
        /// `warm_start_loads`, identical for every run sharing the entry.
        pub warm_start_quarantined: u64,
        /// Candidate terms enumerated by the synthesis engine (pre-dedup) across
        /// all guesses of the run.
        pub synth_terms_enumerated: u64,
        /// Signature columns appended to the synthesizer's persistent term bank
        /// after the first synthesis call (one per new example world).
        pub synth_column_appends: u64,
        /// Observational-equivalence classes re-split because a freshly appended
        /// signature column distinguished previously-merged terms.
        pub synth_eq_class_splits: u64,
        /// Signature evaluations served from the term bank without touching the
        /// interpreter.
        pub synth_bank_hits: u64,
        /// `u64` bitset words processed by the packed signature matrix (dedup,
        /// target matching and boolean connectives over 64 worlds per op).
        pub synth_bitset_row_ops: u64,
        /// Whole guess outcomes replayed from the term bank's cross-iteration
        /// guess memo instead of re-enumerating.
        pub synth_guess_memo_hits: u64,
        /// Batched term-bank probe calls (one bank lock round per batch instead
        /// of one per candidate application).
        pub synth_probe_batches: u64,
        /// Arithmetic atoms enumerated by the numeric grammar (integer literals
        /// and linear-arithmetic component applications); zero unless the run
        /// enables the numeric search grammar.
        pub synth_arith_atoms: u64,
        /// Size in AST nodes of the inferred invariant, when one was found.
        pub invariant_size: Option<usize>,
        /// Final number of positive examples.
        pub final_positives: usize,
        /// Final number of negative examples.
        pub final_negatives: usize,
    }
}

impl RunStats {
    /// Mean time per verification call (MVT), if any call was made.
    pub fn mean_verification_time(&self) -> Option<Duration> {
        (self.verification_calls > 0)
            .then(|| self.verification_time / self.verification_calls as u32)
    }

    /// Mean time per synthesis call (MST), if any call was made.
    pub fn mean_synthesis_time(&self) -> Option<Duration> {
        (self.synthesis_calls > 0).then(|| self.synthesis_time / self.synthesis_calls as u32)
    }

    /// Records one verifier call.
    pub fn record_verification(&mut self, elapsed: Duration) {
        self.verification_calls += 1;
        self.verification_time += elapsed;
    }

    /// Records one synthesizer call.
    pub fn record_synthesis(&mut self, elapsed: Duration) {
        self.synthesis_calls += 1;
        self.synthesis_time += elapsed;
    }

    /// Copies a verifier pool-cache snapshot into the run statistics.
    pub fn record_pool_cache(&mut self, pool: hanoi_verifier::PoolCacheStats) {
        self.pool_cache_hits = pool.hits;
        self.pool_builds = pool.builds;
        self.pool_slab_builds = pool.slab_builds;
        self.predicate_evals = pool.predicate_evals;
        self.predicate_table_hits = pool.predicate_table_hits;
        self.spec_evals = pool.spec_evals;
        self.spec_memo_hits = pool.spec_memo_hits;
    }

    /// Copies a synthesizer term-bank snapshot into the run statistics.
    pub fn record_term_bank(&mut self, bank: hanoi_synth::TermBankStats) {
        self.synth_terms_enumerated = bank.terms_enumerated;
        self.synth_column_appends = bank.column_appends;
        self.synth_eq_class_splits = bank.eq_class_splits;
        self.synth_bank_hits = bank.bank_hits;
        self.synth_bitset_row_ops = bank.bitset_row_ops;
        self.synth_guess_memo_hits = bank.guess_memo_hits;
        self.synth_probe_batches = bank.probe_batches;
        self.synth_arith_atoms = bank.arith_atoms;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn means_require_calls() {
        let mut stats = RunStats::default();
        assert_eq!(stats.mean_verification_time(), None);
        assert_eq!(stats.mean_synthesis_time(), None);
        stats.record_verification(Duration::from_millis(10));
        stats.record_verification(Duration::from_millis(30));
        stats.record_synthesis(Duration::from_millis(8));
        assert_eq!(stats.verification_calls, 2);
        assert_eq!(
            stats.mean_verification_time(),
            Some(Duration::from_millis(20))
        );
        assert_eq!(stats.mean_synthesis_time(), Some(Duration::from_millis(8)));
        assert_eq!(stats.synthesis_time, Duration::from_millis(8));
    }

    #[test]
    fn json_renders_every_counter() {
        let stats = RunStats {
            total_time: Duration::from_millis(1500),
            verification_time: Duration::from_millis(900),
            verification_calls: 12,
            synthesis_time: Duration::from_millis(400),
            synthesis_calls: 5,
            iterations: 7,
            synthesis_cache_hits: 2,
            clc_restored_negatives: 3,
            pool_cache_hits: 40,
            pool_builds: 4,
            pool_slab_builds: 9,
            predicate_evals: 12345,
            predicate_table_hits: 6789,
            spec_evals: 2468,
            spec_memo_hits: 1357,
            verification_cache_hits: 4,
            check_cache_evictions: 2,
            warm_start_loads: 3,
            warm_start_quarantined: 1,
            synth_terms_enumerated: 678,
            synth_column_appends: 6,
            synth_eq_class_splits: 2,
            synth_bank_hits: 500,
            synth_bitset_row_ops: 4321,
            synth_guess_memo_hits: 7,
            synth_probe_batches: 31,
            synth_arith_atoms: 12,
            invariant_size: Some(18),
            final_positives: 11,
            final_negatives: 8,
        };
        assert_eq!(
            stats.to_json().render(),
            concat!(
                r#"{"check_cache_evictions":2,"clc_restored_negatives":3,"#,
                r#""final_negatives":8,"final_positives":11,"invariant_size":18,"#,
                r#""iterations":7,"pool_builds":4,"pool_cache_hits":40,"#,
                r#""pool_slab_builds":9,"predicate_evals":12345,"#,
                r#""predicate_table_hits":6789,"spec_evals":2468,"spec_memo_hits":1357,"#,
                r#""synth_arith_atoms":12,"synth_bank_hits":500,"#,
                r#""synth_bitset_row_ops":4321,"synth_column_appends":6,"#,
                r#""synth_eq_class_splits":2,"synth_guess_memo_hits":7,"#,
                r#""synth_probe_batches":31,"synth_terms_enumerated":678,"#,
                r#""synthesis_cache_hits":2,"synthesis_calls":5,"synthesis_secs":0.4,"#,
                r#""total_secs":1.5,"verification_cache_hits":4,"verification_calls":12,"#,
                r#""verification_secs":0.9,"warm_start_loads":3,"warm_start_quarantined":1}"#,
            )
        );

        // `None` sizes render as `null`, every other counter as `0`.
        assert_eq!(
            RunStats::default().to_json().render(),
            concat!(
                r#"{"check_cache_evictions":0,"clc_restored_negatives":0,"#,
                r#""final_negatives":0,"final_positives":0,"invariant_size":null,"#,
                r#""iterations":0,"pool_builds":0,"pool_cache_hits":0,"#,
                r#""pool_slab_builds":0,"predicate_evals":0,"#,
                r#""predicate_table_hits":0,"spec_evals":0,"spec_memo_hits":0,"#,
                r#""synth_arith_atoms":0,"synth_bank_hits":0,"#,
                r#""synth_bitset_row_ops":0,"synth_column_appends":0,"#,
                r#""synth_eq_class_splits":0,"synth_guess_memo_hits":0,"#,
                r#""synth_probe_batches":0,"synth_terms_enumerated":0,"#,
                r#""synthesis_cache_hits":0,"synthesis_calls":0,"synthesis_secs":0,"#,
                r#""total_secs":0,"verification_cache_hits":0,"verification_calls":0,"#,
                r#""verification_secs":0,"warm_start_loads":0,"warm_start_quarantined":0}"#,
            )
        );
    }
}
