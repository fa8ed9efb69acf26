//! The metric tables and how each per-layer metric is computed.

use std::collections::BTreeMap;

use hanoi::RunStats;
use hanoi_lang::json::Json;

use crate::jobs::Pass;
use crate::trace::{RestoreCounts, Tracer};

/// End-to-end metrics (printed untraced): name and unit.
pub const END_TO_END: &[(&str, &str)] = &[
    ("suite_s", "s"),
    ("verdict_p50_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics (printed with `--trace 1`): name and unit.  The crate
/// prefix names the layer.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("verifier.sufficiency_s", "s"),
    ("verifier.full_inductiveness_s", "s"),
    ("verifier.visible_inductiveness_s", "s"),
    ("verifier.calls", "count"),
    ("verifier.predicate_evals", "count"),
    ("verifier.pool_enumerate_s", "s"),
    ("verifier.pool_values", "count"),
    ("verifier.pool_builds", "count"),
    ("verifier.pool_slab_builds", "count"),
    ("verifier.tuple_search_s", "s"),
    ("verifier.full_check_s", "s"),
    ("verifier.check_cache_hits", "count"),
    ("verifier.check_cache_hit_ratio", "ratio"),
    ("synth.synthesis_s", "s"),
    ("synth.calls", "count"),
    ("synth.terms_enumerated", "count"),
    ("synth.terms_per_s", "1/s"),
    ("synth.bank_hits", "count"),
    ("synth.probe_batches", "count"),
    ("synth.bitset_row_ops", "count"),
    ("synth.eq_class_splits", "count"),
    ("synth.arith_atoms", "count"),
    ("synth.guess_memo_hits", "count"),
    ("synth.cache_hits", "count"),
    ("core.session_open_s", "s"),
    ("store.load_wrapper_s", "s"),
    ("lang.json_parse_s", "s"),
    ("lang.json_parse_bytes", "bytes"),
    ("synth.bank_decode_s", "s"),
    ("verifier.check_cache_decode_s", "s"),
    ("store.chunks_read", "count"),
    ("store.bytes_read", "bytes"),
    ("core.save_s", "s"),
    ("store.chunks_written", "count"),
    ("store.bytes_written", "bytes"),
    ("abstraction.elaborate_s", "s"),
    ("core.iterations", "count"),
    ("core.run_overhead_s", "s"),
    ("trace.overhead_s", "s"),
];

/// What the traced run measured besides its spans.
#[derive(Debug, Default)]
pub struct Replays {
    /// Pool values the verifier replay built.
    pub pool_values: u64,
    /// What the restore replay read.
    pub restore: RestoreCounts,
    /// Chunk files and bytes the traced pass saved.
    pub written: (u64, u64),
}

/// The per-layer metrics of the traced pass.  Times come from spans,
/// counts from the runs' `RunStats`, and `trace.overhead_s` is the traced
/// pass's wall time minus the median wall time of the untraced passes.
pub fn per_layer(
    traced: &Pass,
    tracer: &Tracer,
    replays: &Replays,
    untraced_pass_s: f64,
) -> BTreeMap<&'static str, f64> {
    let sum = |f: fn(&RunStats) -> u64| -> f64 {
        traced.runs.iter().map(|r| f(&r.result.stats)).sum::<u64>() as f64
    };
    let calls = sum(|s| s.verification_calls as u64);
    let check_hits = sum(|s| s.verification_cache_hits);
    let synthesis_s = tracer.total("synth.synthesis");
    let terms = sum(|s| s.synth_terms_enumerated);
    let ratio = |n: f64, d: f64| if d > 0.0 { n / d } else { 0.0 };
    let restore = &replays.restore;
    BTreeMap::from([
        (
            "verifier.sufficiency_s",
            tracer.total("verifier.sufficiency"),
        ),
        (
            "verifier.full_inductiveness_s",
            tracer.total("verifier.full_inductiveness"),
        ),
        (
            "verifier.visible_inductiveness_s",
            tracer.total("verifier.visible_inductiveness"),
        ),
        ("verifier.calls", calls),
        ("verifier.predicate_evals", sum(|s| s.predicate_evals)),
        (
            "verifier.pool_enumerate_s",
            tracer.total("verifier.pool_enumerate"),
        ),
        ("verifier.pool_values", replays.pool_values as f64),
        ("verifier.pool_builds", sum(|s| s.pool_builds)),
        ("verifier.pool_slab_builds", sum(|s| s.pool_slab_builds)),
        (
            "verifier.tuple_search_s",
            tracer.total("verifier.tuple_search"),
        ),
        ("verifier.full_check_s", tracer.total("verifier.full_check")),
        ("verifier.check_cache_hits", check_hits),
        ("verifier.check_cache_hit_ratio", ratio(check_hits, calls)),
        ("synth.synthesis_s", synthesis_s),
        ("synth.calls", sum(|s| s.synthesis_calls as u64)),
        ("synth.terms_enumerated", terms),
        ("synth.terms_per_s", ratio(terms, synthesis_s)),
        ("synth.bank_hits", sum(|s| s.synth_bank_hits)),
        ("synth.probe_batches", sum(|s| s.synth_probe_batches)),
        ("synth.bitset_row_ops", sum(|s| s.synth_bitset_row_ops)),
        ("synth.eq_class_splits", sum(|s| s.synth_eq_class_splits)),
        ("synth.arith_atoms", sum(|s| s.synth_arith_atoms)),
        ("synth.guess_memo_hits", sum(|s| s.synth_guess_memo_hits)),
        ("synth.cache_hits", sum(|s| s.synthesis_cache_hits as u64)),
        ("core.session_open_s", tracer.total("core.session_open")),
        ("store.load_wrapper_s", tracer.total("store.load_wrapper")),
        ("lang.json_parse_s", tracer.total("lang.json_parse")),
        ("lang.json_parse_bytes", restore.parsed_bytes as f64),
        ("synth.bank_decode_s", tracer.total("synth.bank_decode")),
        (
            "verifier.check_cache_decode_s",
            tracer.total("verifier.check_cache_decode"),
        ),
        ("store.chunks_read", restore.chunks as f64),
        ("store.bytes_read", restore.bytes as f64),
        ("core.save_s", tracer.total("core.save")),
        ("store.chunks_written", replays.written.0 as f64),
        ("store.bytes_written", replays.written.1 as f64),
        (
            "abstraction.elaborate_s",
            tracer.total("abstraction.elaborate"),
        ),
        ("core.iterations", sum(|s| s.iterations as u64)),
        ("core.run_overhead_s", tracer.self_time("core.run")),
        (
            "trace.overhead_s",
            traced.wall.as_secs_f64() - untraced_pass_s,
        ),
    ])
}

/// `{name: {"value", "unit"}}` for every metric of `table`.
pub fn to_json(table: &[(&str, &str)], values: &BTreeMap<&str, f64>) -> Json {
    Json::Obj(
        table
            .iter()
            .map(|&(name, unit)| {
                let value = values.get(name).copied().unwrap_or(0.0);
                (
                    name.to_string(),
                    Json::obj([
                        ("value", Json::Num(value)),
                        ("unit", Json::Str(unit.to_string())),
                    ]),
                )
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jobs::Workload;

    /// `BENCHMARK.json` at the repository root declares exactly the metrics
    /// and workloads this program prints.
    #[test]
    fn benchmark_json_matches_the_metric_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
        let json = hanoi_lang::json::parse(&text).expect("BENCHMARK.json parses");
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let declared: Vec<(String, String)> = json
                .get(key)
                .and_then(Json::as_arr)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(Json::as_str).unwrap_or_default();
                    (field("name").to_string(), field("unit").to_string())
                })
                .collect();
            let printed: Vec<(String, String)> = table
                .iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(declared, printed, "{key}");
        }
        let workloads: Vec<&str> = json
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workload list")
            .iter()
            .filter_map(|w| w.get("name").and_then(Json::as_str))
            .collect();
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, names);
    }
}
