//! Spans recorded around calls into the engine's public API, and the
//! isolated replays that split a layer's time further.
//!
//! Spans live in memory (name, start, end, parent span, job index) and are
//! written out once the run ends.  Nothing inside the engine is
//! instrumented: every span wraps a public call made from this crate.

use std::io;
use std::path::Path;
use std::time::Instant;

use hanoi_lang::json::Json;
use hanoi_lang::types::Type;
use hanoi_store::{ChunkStore, WrapperLoad};
use hanoi_synth::TermBank;
use hanoi_verifier::{CheckCache, PoolCache, Verifier};

use crate::jobs::{Job, JobRun};

/// One timed call.
#[derive(Debug)]
struct Span {
    /// Layer-qualified name, e.g. `verifier.sufficiency`.
    name: &'static str,
    /// Index of the job the call served (`None` for workload-wide calls).
    job: Option<usize>,
    /// Index of the enclosing span.
    parent: Option<usize>,
    /// When the call started.
    start: Instant,
    /// When it returned.
    end: Instant,
}

impl Span {
    fn secs(&self) -> f64 {
        (self.end - self.start).as_secs_f64()
    }
}

/// An in-memory span recorder; a disabled one records nothing.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder that records nothing (the untraced runs).
    pub fn off() -> Self {
        Tracer {
            enabled: false,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// A recording tracer.
    pub fn on() -> Self {
        Tracer {
            enabled: true,
            ..Tracer::off()
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Starts a span; [`Tracer::close`] ends it.
    pub fn open(&mut self, name: &'static str, job: Option<usize>, parent: Option<usize>) -> usize {
        let now = Instant::now();
        self.record(name, job, parent, now, now)
    }

    /// Ends a span started by [`Tracer::open`].
    pub fn close(&mut self, id: usize) {
        if let Some(span) = self.spans.get_mut(id) {
            span.end = Instant::now();
        }
    }

    /// Records a finished span.
    pub fn record(
        &mut self,
        name: &'static str,
        job: Option<usize>,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        if !self.enabled {
            return usize::MAX;
        }
        self.spans.push(Span {
            name,
            job,
            parent,
            start,
            end,
        });
        self.spans.len() - 1
    }

    /// Runs `f` inside a span.
    pub fn time<T>(&mut self, name: &'static str, job: Option<usize>, f: impl FnOnce() -> T) -> T {
        let id = self.open(name, job, None);
        let value = f();
        self.close(id);
        value
    }

    /// Summed duration of every span named `name`, in seconds.
    pub fn total(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold(0.0, |total, s| total + s.secs())
    }

    /// Summed self time of every span named `name`: its duration minus the
    /// time its child spans cover.
    pub fn self_time(&self, name: &str) -> f64 {
        let mut total = 0.0;
        for (id, span) in self.spans.iter().enumerate() {
            if span.name != name {
                continue;
            }
            let children = self
                .spans
                .iter()
                .filter(|c| c.parent == Some(id))
                .fold(0.0, |total, c| total + c.secs());
            total += span.secs() - children;
        }
        total
    }

    /// Every span, with times in seconds from the tracer's creation.
    pub fn to_json(&self) -> Json {
        let at = |t: Instant| Json::Num(t.saturating_duration_since(self.epoch).as_secs_f64());
        Json::Arr(
            self.spans
                .iter()
                .enumerate()
                .map(|(id, s)| {
                    Json::obj([
                        ("id", Json::Num(id as f64)),
                        ("name", Json::Str(s.name.to_string())),
                        ("job", Json::opt(s.job, |j| Json::Num(j as f64))),
                        ("parent", Json::opt(s.parent, |p| Json::Num(p as f64))),
                        ("start_s", at(s.start)),
                        ("end_s", at(s.end)),
                    ])
                })
                .collect(),
        )
    }
}

/// Replays the verifier work behind each job's final candidate in
/// isolation: a fresh `PoolCache` builds every quantifier pool of the spec
/// (`verifier.pool_enumerate`), then `check_sufficiency`
/// (`verifier.tuple_search`: filtering plus tuple search, pools warm) and
/// `check_full_inductiveness` (`verifier.full_check`) run again on it.
/// Returns the number of pool values built.
pub fn replay_verifier(jobs: &[Job], runs: &[JobRun], tracer: &mut Tracer) -> u64 {
    let mut values = 0u64;
    for (index, (job, run)) in jobs.iter().zip(runs).enumerate() {
        let Some(invariant) = run.result.outcome.invariant() else {
            continue;
        };
        let problem = &job.problem;
        let bounds = job.spec.options.bounds;
        let arity = problem.spec.arity();
        let pools = PoolCache::for_problem(problem);
        let mut shapes: Vec<Type> = Vec::new();
        for (_, ty) in &problem.spec.params {
            let concrete = ty.subst_abstract(problem.concrete_type());
            if shapes.contains(&concrete) {
                continue;
            }
            let pool = tracer.time("verifier.pool_enumerate", Some(index), || {
                pools.pool(
                    &concrete,
                    bounds.count_for(arity),
                    bounds.size_for(arity),
                    1,
                )
            });
            values += pool.len() as u64;
            shapes.push(concrete);
        }
        let verifier = Verifier::new(problem)
            .with_bounds(bounds)
            .with_pool_cache(pools);
        // The outcomes were already checked by the run itself; only the
        // time is of interest here.
        let _ = tracer.time("verifier.tuple_search", Some(index), || {
            verifier.check_sufficiency(invariant)
        });
        let _ = tracer.time("verifier.full_check", Some(index), || {
            verifier.check_full_inductiveness(invariant)
        });
    }
    values
}

/// What the restore replay read.
#[derive(Debug, Default)]
pub struct RestoreCounts {
    /// Chunk files listed by the restored manifests.
    pub chunks: u64,
    /// Their bytes, as the manifests record them.
    pub bytes: u64,
    /// Bytes handed to `json::parse`.
    pub parsed_bytes: u64,
}

/// Replays the warm-start restore of every job against the chunked store
/// at `store_dir`: `ChunkStore::load_wrapper` (`store.load_wrapper`), then
/// `json::parse` of each chunk file on its own (`lang.json_parse`), then the
/// component decoders on the reassembled wrapper (`CheckCache::from_json`
/// as `verifier.check_cache_decode`, `TermBank::from_json` as
/// `synth.bank_decode`).
pub fn replay_restore(
    jobs: &[Job],
    store_dir: &Path,
    tracer: &mut Tracer,
) -> io::Result<RestoreCounts> {
    let store = ChunkStore::open(store_dir)?;
    let mut counts = RestoreCounts::default();
    for (index, job) in jobs.iter().enumerate() {
        let fingerprint = job.problem.fingerprint();
        let load = tracer.time("store.load_wrapper", Some(index), || {
            store.load_wrapper(fingerprint)
        });
        let WrapperLoad::Loaded { wrapper, .. } = load else {
            return Err(io::Error::other(format!(
                "{}: no restorable snapshot in the seed store",
                job.spec.label()
            )));
        };
        let manifest = store
            .manifest(fingerprint)
            .ok_or_else(|| io::Error::other("manifest vanished after a load"))?;
        for entry in &manifest.entries {
            let path = store_dir
                .join("chunks")
                .join(format!("{}.json", entry.chunk.to_hex()));
            let text = std::fs::read_to_string(path)?;
            counts.chunks += 1;
            counts.bytes += entry.bytes;
            counts.parsed_bytes += text.len() as u64;
            tracer
                .time("lang.json_parse", Some(index), || {
                    hanoi_lang::json::parse(&text)
                })
                .map_err(|e| io::Error::other(format!("chunk {}: {e:?}", entry.chunk.to_hex())))?;
        }
        if let Some(checks) = wrapper.get("check_cache") {
            tracer
                .time("verifier.check_cache_decode", Some(index), || {
                    CheckCache::from_json(checks, CheckCache::DEFAULT_CAPACITY)
                })
                .map_err(|e| io::Error::other(format!("check cache: {e:?}")))?;
        }
        if let Some(Json::Obj(banks)) = wrapper.get("banks") {
            for bank in banks.values() {
                tracer
                    .time("synth.bank_decode", Some(index), || {
                        TermBank::from_json(bank)
                    })
                    .map_err(|e| io::Error::other(format!("term bank: {e:?}")))?;
            }
        }
    }
    Ok(counts)
}
