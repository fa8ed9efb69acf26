//! Run statistics — the columns of Figure 7.

use std::time::Duration;

use crate::json::{Json, JsonError};

/// Statistics collected during one inference run.
///
/// The field names follow the columns of Figure 7: `TVT` (total verification
/// time), `TVC` (verification call count), `MVT` (mean verification time),
/// `TST`/`TSC`/`MST` for synthesis, plus the overall wall-clock time and the
/// size of the inferred invariant.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Total wall-clock time of the run.
    pub total_time: Duration,
    /// Total time spent in the verifier (TVT).
    pub verification_time: Duration,
    /// Number of verifier calls (TVC).
    pub verification_calls: usize,
    /// Total time spent in the synthesizer (TST).
    pub synthesis_time: Duration,
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
    /// Enumeration slabs rebuilt from recorded shapes when a warm-start
    /// snapshot was restored (`0` for cold starts; counted once, lazily, on
    /// the first pool request after a restore).
    pub pool_slab_restores: u64,
    /// Candidate-predicate evaluations performed by the verifier's compiled
    /// predicates (pool filtering plus `P`/`Q` tests).
    pub predicate_evals: u64,
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
        self.pool_slab_restores = pool.slab_restores;
        self.predicate_evals = pool.predicate_evals;
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

    /// Serializes every counter to a JSON object (durations in seconds),
    /// round-tripped by [`RunStats::from_json_value`].  This is the one
    /// serial form of run statistics; the experiment harness embeds it in
    /// its result rows instead of re-formatting each column by hand.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("total_secs", Json::Num(self.total_time.as_secs_f64())),
            (
                "verification_secs",
                Json::Num(self.verification_time.as_secs_f64()),
            ),
            (
                "verification_calls",
                Json::Num(self.verification_calls as f64),
            ),
            (
                "synthesis_secs",
                Json::Num(self.synthesis_time.as_secs_f64()),
            ),
            ("synthesis_calls", Json::Num(self.synthesis_calls as f64)),
            ("iterations", Json::Num(self.iterations as f64)),
            (
                "synthesis_cache_hits",
                Json::Num(self.synthesis_cache_hits as f64),
            ),
            (
                "clc_restored_negatives",
                Json::Num(self.clc_restored_negatives as f64),
            ),
            ("pool_cache_hits", Json::Num(self.pool_cache_hits as f64)),
            ("pool_builds", Json::Num(self.pool_builds as f64)),
            ("pool_slab_builds", Json::Num(self.pool_slab_builds as f64)),
            (
                "pool_slab_restores",
                Json::Num(self.pool_slab_restores as f64),
            ),
            ("predicate_evals", Json::Num(self.predicate_evals as f64)),
            (
                "verification_cache_hits",
                Json::Num(self.verification_cache_hits as f64),
            ),
            (
                "check_cache_evictions",
                Json::Num(self.check_cache_evictions as f64),
            ),
            ("warm_start_loads", Json::Num(self.warm_start_loads as f64)),
            (
                "warm_start_quarantined",
                Json::Num(self.warm_start_quarantined as f64),
            ),
            (
                "synth_terms_enumerated",
                Json::Num(self.synth_terms_enumerated as f64),
            ),
            (
                "synth_column_appends",
                Json::Num(self.synth_column_appends as f64),
            ),
            (
                "synth_eq_class_splits",
                Json::Num(self.synth_eq_class_splits as f64),
            ),
            ("synth_bank_hits", Json::Num(self.synth_bank_hits as f64)),
            (
                "synth_bitset_row_ops",
                Json::Num(self.synth_bitset_row_ops as f64),
            ),
            (
                "synth_guess_memo_hits",
                Json::Num(self.synth_guess_memo_hits as f64),
            ),
            (
                "synth_probe_batches",
                Json::Num(self.synth_probe_batches as f64),
            ),
            (
                "synth_arith_atoms",
                Json::Num(self.synth_arith_atoms as f64),
            ),
            (
                "invariant_size",
                Json::opt(self.invariant_size, |s| Json::Num(s as f64)),
            ),
            ("final_positives", Json::Num(self.final_positives as f64)),
            ("final_negatives", Json::Num(self.final_negatives as f64)),
        ])
    }

    /// Deserializes statistics from the output of [`RunStats::to_json`].
    pub fn from_json_value(value: &Json) -> Result<RunStats, JsonError> {
        let missing = |field: &str| JsonError {
            message: format!("missing or ill-typed stats field `{field}`"),
            offset: 0,
        };
        let secs = |field: &'static str| -> Result<Duration, JsonError> {
            value
                .get(field)
                .and_then(Json::as_f64)
                .filter(|s| *s >= 0.0)
                .map(Duration::from_secs_f64)
                .ok_or_else(|| missing(field))
        };
        let count = |field: &'static str| -> Result<usize, JsonError> {
            value
                .get(field)
                .and_then(Json::as_usize)
                .ok_or_else(|| missing(field))
        };
        let counter =
            |field: &'static str| -> Result<u64, JsonError> { count(field).map(|n| n as u64) };
        Ok(RunStats {
            total_time: secs("total_secs")?,
            verification_time: secs("verification_secs")?,
            verification_calls: count("verification_calls")?,
            synthesis_time: secs("synthesis_secs")?,
            synthesis_calls: count("synthesis_calls")?,
            iterations: count("iterations")?,
            synthesis_cache_hits: count("synthesis_cache_hits")?,
            clc_restored_negatives: count("clc_restored_negatives")?,
            pool_cache_hits: counter("pool_cache_hits")?,
            pool_builds: counter("pool_builds")?,
            pool_slab_builds: counter("pool_slab_builds")?,
            pool_slab_restores: counter("pool_slab_restores")?,
            predicate_evals: counter("predicate_evals")?,
            verification_cache_hits: counter("verification_cache_hits")?,
            check_cache_evictions: counter("check_cache_evictions")?,
            warm_start_loads: counter("warm_start_loads")?,
            warm_start_quarantined: counter("warm_start_quarantined")?,
            synth_terms_enumerated: counter("synth_terms_enumerated")?,
            synth_column_appends: counter("synth_column_appends")?,
            synth_eq_class_splits: counter("synth_eq_class_splits")?,
            synth_bank_hits: counter("synth_bank_hits")?,
            synth_bitset_row_ops: counter("synth_bitset_row_ops")?,
            synth_guess_memo_hits: counter("synth_guess_memo_hits")?,
            synth_probe_batches: counter("synth_probe_batches")?,
            synth_arith_atoms: counter("synth_arith_atoms")?,
            invariant_size: value.get("invariant_size").and_then(Json::as_usize),
            final_positives: count("final_positives")?,
            final_negatives: count("final_negatives")?,
        })
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
    fn json_round_trips_every_counter() {
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
            pool_slab_restores: 5,
            predicate_evals: 12345,
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
        let json = stats.to_json();
        let text = json.render();
        let parsed = crate::json::parse(&text).unwrap();
        let back = RunStats::from_json_value(&parsed).unwrap();
        assert_eq!(back, stats);

        // `None` sizes survive too.
        let empty = RunStats::default();
        let back = RunStats::from_json_value(&empty.to_json()).unwrap();
        assert_eq!(back, empty);
        assert_eq!(back.invariant_size, None);

        // Missing fields are reported by name.
        let err = RunStats::from_json_value(&Json::obj([])).unwrap_err();
        assert!(err.message.contains("total_secs"), "{err}");
    }
}
