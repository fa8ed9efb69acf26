//! The cross-run, disk-persistable check-outcome cache.
//!
//! Bounded enumerative checks are *deterministic*: the outcome of
//! `Verify Suf`/`CondInductive` is a pure function of the problem, the
//! candidate, the bounds and (for visible inductiveness) the known-positive
//! set — and the deadline can only abort a check, not change its verdict.  A CEGIS re-run
//! of the same problem therefore re-computes byte-identical sweeps: dozens of
//! candidates × three checks × thousands of tuples, all previously answered.
//!
//! [`CheckCache`] memoizes completed check outcomes under exactly that
//! function's arguments.  A long-lived engine keeps one per problem, so
//! re-running a problem (experiment-harness reruns, figure8 ablations,
//! repeated service requests) skips entire verification sweeps instead of
//! merely re-reading warm value pools.  Only *completed* outcomes are stored:
//! a check aborted by a deadline or cancellation is never cached, and errors
//! are never persisted.
//!
//! # Keys
//!
//! Check inputs participate as **structural digests**
//! ([`hanoi_lang::digest::Digest`]): the candidate as the α-invariant
//! 128-bit fingerprint of its resolved AST, the `V+` set as the fingerprint
//! of its ordered value sequence, plus the full [`VerifierBounds`] and (for
//! per-operation checks) the operation name.  Digest keys are small and
//! constant-size (a sweep-size candidate pretty-prints to kilobytes, and a
//! `V+` set holds whole values), and they are *interner-independent* —
//! valid across processes, which is what makes the cache snapshotable to
//! disk ([`CheckCache::to_json`] / [`CheckCache::from_json`]).  The price
//! is a 2⁻¹²⁸ per-pair collision probability instead of exact keys; see
//! the "cache soundness" section of `docs/ARCHITECTURE.md`.
//!
//! # Eviction
//!
//! The cache is bounded by a true LRU: when an insert would exceed
//! `capacity`, the least-recently-*used* entry (hits refresh recency) is
//! evicted.  New entries always land, so a long-lived service session
//! cannot pin a stale working set while every new candidate misses.
//!
//! The cache holds entries only: hits and evictions are counted in the
//! [`VerifierCounters`] of the verifier whose check caused them.
//!
//! # Snapshots
//!
//! [`CheckCache::to_json`] serializes the entries (keys, outcomes,
//! counterexample values) in recency order; [`CheckCache::from_json`]
//! rebuilds a cache from a snapshot, rejecting version mismatches, corrupt
//! structure and oversized entry lists.  Counterexample values serialize
//! through [`hanoi_lang::json::value_to_json`]; entries whose values cannot
//! be serialized structurally (they never arise — counterexample values are
//! first-order — but the code does not assume it) are skipped rather than
//! guessed at.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::Ordering;
use std::sync::Mutex;

use hanoi_lang::digest::Digest;
use hanoi_lang::json::{value_from_json, value_to_json, Json, JsonError};
use hanoi_lang::symbol::Symbol;
use hanoi_lang::value::Value;

use crate::bounds::VerifierBounds;
use crate::outcome::{
    InductivenessCex, InductivenessOutcome, SufficiencyCex, SufficiencyOutcome, VerifierError,
};
use crate::verifier::{Check, VerifierCounters};

/// One memoized check, keyed by the complete argument tuple of the check
/// function in digest form.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct CheckKey {
    check: KeyedCheck,
    /// α-invariant structural digest of the (resolved) candidate.
    candidate: Digest,
    /// The bounds the sweep ran under — part of the check function's
    /// arguments, so part of the key.
    bounds: VerifierBounds,
}

/// A `Check` as a key holds it: `V+` as the digest of its ordered value
/// sequence ([`Digest::of_values`]), the operation by name.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum KeyedCheck {
    Sufficiency,
    Visible(Digest),
    Full,
    Op(String),
}

impl CheckKey {
    fn new(check: Check<'_>, candidate: Digest, bounds: VerifierBounds) -> Self {
        let check = match check {
            Check::Sufficiency => KeyedCheck::Sufficiency,
            Check::Visible(v_plus) => KeyedCheck::Visible(Digest::of_values(v_plus)),
            Check::Full => KeyedCheck::Full,
            Check::Op(op) => KeyedCheck::Op(op.to_string()),
        };
        CheckKey {
            check,
            candidate,
            bounds,
        }
    }
}

/// A memoized outcome (checks have two result shapes).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum CachedOutcome {
    Inductiveness(InductivenessOutcome),
    Sufficiency(SufficiencyOutcome),
}

/// A check's outcome type, as the cache stores it.
pub(crate) trait Memoized: Clone {
    /// The outcome as an entry holds it.
    fn into_cached(self) -> CachedOutcome;
    /// The stored outcome, when it has this shape.
    fn from_cached(cached: CachedOutcome) -> Option<Self>;
}

impl Memoized for InductivenessOutcome {
    fn into_cached(self) -> CachedOutcome {
        CachedOutcome::Inductiveness(self)
    }

    fn from_cached(cached: CachedOutcome) -> Option<Self> {
        match cached {
            CachedOutcome::Inductiveness(outcome) => Some(outcome),
            CachedOutcome::Sufficiency(_) => None,
        }
    }
}

impl Memoized for SufficiencyOutcome {
    fn into_cached(self) -> CachedOutcome {
        CachedOutcome::Sufficiency(self)
    }

    fn from_cached(cached: CachedOutcome) -> Option<Self> {
        match cached {
            CachedOutcome::Sufficiency(outcome) => Some(outcome),
            CachedOutcome::Inductiveness(_) => None,
        }
    }
}

/// The LRU store: entries carry a recency stamp, and a stamp-ordered index
/// finds the least recently used entry in `O(log n)`.
#[derive(Debug, Default)]
struct LruState {
    entries: HashMap<CheckKey, (u64, CachedOutcome)>,
    recency: BTreeMap<u64, CheckKey>,
    clock: u64,
}

impl LruState {
    fn touch(&mut self, key: &CheckKey) -> Option<CachedOutcome> {
        self.clock += 1;
        let stamp = self.clock;
        let (old, outcome) = match self.entries.get_mut(key) {
            Some((old_stamp, outcome)) => {
                let old = *old_stamp;
                *old_stamp = stamp;
                (old, outcome.clone())
            }
            None => return None,
        };
        self.recency.remove(&old);
        self.recency.insert(stamp, key.clone());
        Some(outcome)
    }

    /// Inserts (or refreshes) an entry; returns how many entries were
    /// evicted to stay within `capacity`.
    fn insert(&mut self, key: CheckKey, outcome: CachedOutcome, capacity: usize) -> u64 {
        self.clock += 1;
        let stamp = self.clock;
        if let Some((old, _)) = self.entries.insert(key.clone(), (stamp, outcome)) {
            self.recency.remove(&old);
        }
        self.recency.insert(stamp, key);
        let mut evicted = 0;
        while self.entries.len() > capacity {
            let (_, oldest) = self
                .recency
                .pop_first()
                .expect("recency index tracks every entry");
            self.entries.remove(&oldest);
            evicted += 1;
        }
        evicted
    }
}

/// A shared, LRU-bounded memo of completed verifier check outcomes for one
/// problem.  Cheap to share (`Arc`), safe to use concurrently, and
/// snapshotable to disk for cross-process reuse.
#[derive(Debug)]
pub struct CheckCache {
    state: Mutex<LruState>,
    capacity: usize,
}

impl Default for CheckCache {
    fn default() -> Self {
        CheckCache::new(Self::DEFAULT_CAPACITY)
    }
}

impl CheckCache {
    /// Default entry budget: generous for any realistic CEGIS working set.
    pub const DEFAULT_CAPACITY: usize = 4096;

    /// Hard ceiling on how many entries a snapshot may carry — a corrupt or
    /// hostile snapshot cannot make [`CheckCache::from_json`] allocate
    /// unboundedly.
    pub const MAX_SNAPSHOT_ENTRIES: usize = 65_536;

    /// The snapshot format version written by [`CheckCache::to_json`].  Bump
    /// it whenever the key digests ([`hanoi_lang::digest`]) or the entry
    /// encoding change shape, or a verifier fix changes the outcome a key
    /// stands for; loaders reject mismatching versions cleanly, so stores
    /// written by older builds restore cold.  Version 2: sufficiency filters
    /// tuple-typed spec parameters by their abstract parts, where version 1
    /// builds could store a vacuous `Valid`.
    pub const SNAPSHOT_VERSION: u64 = 2;

    /// An empty cache holding at most `capacity` outcomes.
    pub fn new(capacity: usize) -> Self {
        CheckCache {
            state: Mutex::new(LruState::default()),
            capacity,
        }
    }

    /// The number of stored outcomes.
    pub fn entries(&self) -> usize {
        self.state.lock().unwrap().entries.len()
    }

    /// Memoizes `check` of the candidate with digest `candidate` under
    /// `bounds`: returns the cached outcome, or runs `sweep` and records its
    /// result when it completed.  A hit, and the entries an insert evicts,
    /// are counted in `counters`.
    pub(crate) fn memo<T: Memoized>(
        &self,
        check: Check<'_>,
        candidate: Digest,
        bounds: VerifierBounds,
        counters: &VerifierCounters,
        sweep: impl FnOnce() -> Result<T, VerifierError>,
    ) -> Result<T, VerifierError> {
        let key = CheckKey::new(check, candidate, bounds);
        let found = self.state.lock().unwrap().touch(&key);
        if let Some(outcome) = found.and_then(T::from_cached) {
            counters.check_cache_hits.fetch_add(1, Ordering::Relaxed);
            return Ok(outcome);
        }
        let outcome = sweep()?;
        let cached = outcome.clone().into_cached();
        let evicted = self
            .state
            .lock()
            .unwrap()
            .insert(key, cached, self.capacity);
        counters
            .check_cache_evictions
            .fetch_add(evicted, Ordering::Relaxed);
        Ok(outcome)
    }

    /// Serializes the cache to a versioned snapshot.  Entries are written in
    /// recency order (least recently used first), so a restored cache evicts
    /// in the same order the live one would have.  Completed outcomes only
    /// ever reach the cache, so nothing error-shaped can be persisted.
    pub fn to_json(&self) -> Json {
        // Copy the entries out under the lock (cheap `Arc`/value clones),
        // then encode outside it: concurrent checks on the same problem must
        // not stall behind JSON construction.
        let snapshot: Vec<(CheckKey, CachedOutcome)> = {
            let state = self.state.lock().unwrap();
            state
                .recency
                .values()
                .filter_map(|key| Some((key.clone(), state.entries.get(key)?.1.clone())))
                .collect()
        };
        let entries: Vec<Json> = snapshot
            .iter()
            .filter_map(|(key, outcome)| {
                let outcome = outcome_to_json(outcome)?;
                Some(Json::obj([("key", key_to_json(key)), ("outcome", outcome)]))
            })
            .collect();
        Json::obj([
            ("version", Json::Num(Self::SNAPSHOT_VERSION as f64)),
            ("kind", Json::Str("check-cache".to_string())),
            ("entries", Json::Arr(entries)),
        ])
    }

    /// Rebuilds a cache (with entry budget `capacity`) from the output of
    /// [`CheckCache::to_json`].  Rejects version mismatches, structural
    /// corruption and snapshots carrying more than
    /// [`CheckCache::MAX_SNAPSHOT_ENTRIES`] entries; when a snapshot holds
    /// more entries than `capacity`, only the most recently used `capacity`
    /// of them are kept.  Counters start at zero — a restored cache reports
    /// only the activity of its own process.
    pub fn from_json(json: &Json, capacity: usize) -> Result<CheckCache, JsonError> {
        let corrupt = |message: &str| JsonError {
            message: format!("check-cache snapshot: {message}"),
            offset: 0,
        };
        let version = json
            .get("version")
            .and_then(Json::as_usize)
            .ok_or_else(|| corrupt("missing version"))?;
        if version as u64 != Self::SNAPSHOT_VERSION {
            return Err(corrupt(&format!(
                "version {version} does not match supported version {}",
                Self::SNAPSHOT_VERSION
            )));
        }
        if json.get("kind").and_then(Json::as_str) != Some("check-cache") {
            return Err(corrupt("wrong snapshot kind"));
        }
        let entries = json
            .get("entries")
            .and_then(Json::as_arr)
            .ok_or_else(|| corrupt("missing entries"))?;
        if entries.len() > Self::MAX_SNAPSHOT_ENTRIES {
            return Err(corrupt("snapshot exceeds the entry ceiling"));
        }
        let cache = CheckCache::new(capacity);
        {
            let mut state = cache.state.lock().unwrap();
            // Oldest first: inserting in written order reproduces recency.
            for entry in entries {
                let key = key_from_json(
                    entry
                        .get("key")
                        .ok_or_else(|| corrupt("entry without key"))?,
                )
                .ok_or_else(|| corrupt("malformed key"))?;
                let outcome = outcome_from_json(
                    entry
                        .get("outcome")
                        .ok_or_else(|| corrupt("entry without outcome"))?,
                    &key.check,
                )
                .ok_or_else(|| corrupt("malformed outcome"))?;
                state.insert(key, outcome, capacity);
            }
        }
        Ok(cache)
    }

    /// The `kind` tag of one recency stripe produced by
    /// [`CheckCache::split_snapshot`].
    pub const STRIPE_KIND: &'static str = "check-cache-stripe";

    /// Splits the output of [`CheckCache::to_json`] into *recency stripes*:
    /// consecutive runs of at most `stripe_len` entries, oldest first, each a
    /// self-describing JSON object (`kind = "check-cache-stripe"`).  Stripes
    /// are the chunk granularity of the content-addressed warm-start store
    /// (`hanoi_store`): the chunk digest of a stripe is a pure function of
    /// its entries, so two saves whose older entries did not move produce
    /// byte-identical old stripes — a fleet sync re-transfers only the
    /// stripes that actually changed.  Returns `None` when `snapshot` is not
    /// a valid check-cache snapshot (wrong kind/version/shape).
    pub fn split_snapshot(snapshot: &Json, stripe_len: usize) -> Option<Vec<Json>> {
        if snapshot.get("version").and_then(Json::as_usize)? as u64 != Self::SNAPSHOT_VERSION
            || snapshot.get("kind").and_then(Json::as_str)? != "check-cache"
        {
            return None;
        }
        let entries = snapshot.get("entries").and_then(Json::as_arr)?;
        let stripe_len = stripe_len.max(1);
        Some(
            entries
                .chunks(stripe_len)
                .map(|stripe| {
                    Json::obj([
                        ("version", Json::Num(Self::SNAPSHOT_VERSION as f64)),
                        ("kind", Json::Str(Self::STRIPE_KIND.to_string())),
                        ("entries", Json::Arr(stripe.to_vec())),
                    ])
                })
                .collect(),
        )
    }

    /// Reassembles stripes (in the order [`CheckCache::split_snapshot`]
    /// produced them — oldest first) into one snapshot consumable by
    /// [`CheckCache::from_json`].  Stripes that are not well-formed stripe
    /// objects are *skipped* rather than failing the whole join — chunk-level
    /// corruption isolation: a quarantined stripe costs its own entries,
    /// never the rest of the cache.  Returns the joined snapshot and how many
    /// stripes were skipped.
    pub fn join_stripes<'a>(stripes: impl IntoIterator<Item = &'a Json>) -> (Json, usize) {
        let mut entries: Vec<Json> = Vec::new();
        let mut skipped = 0;
        for stripe in stripes {
            let valid = stripe
                .get("version")
                .and_then(Json::as_usize)
                .map(|v| v as u64)
                == Some(Self::SNAPSHOT_VERSION)
                && stripe.get("kind").and_then(Json::as_str) == Some(Self::STRIPE_KIND);
            match stripe.get("entries").and_then(Json::as_arr) {
                Some(stripe_entries) if valid => entries.extend(stripe_entries.iter().cloned()),
                _ => skipped += 1,
            }
        }
        let joined = Json::obj([
            ("version", Json::Num(Self::SNAPSHOT_VERSION as f64)),
            ("kind", Json::Str("check-cache".to_string())),
            ("entries", Json::Arr(entries)),
        ]);
        (joined, skipped)
    }
}

fn bounds_to_json(bounds: &VerifierBounds) -> Json {
    Json::Arr(
        [
            bounds.single_count as f64,
            bounds.single_size as f64,
            bounds.multi_count as f64,
            bounds.multi_size as f64,
            bounds.total_cap as f64,
            bounds.hof_body_size as f64,
            bounds.hof_max_functions as f64,
            bounds.fuel as f64,
        ]
        .into_iter()
        .map(Json::Num)
        .collect(),
    )
}

fn bounds_from_json(json: &Json) -> Option<VerifierBounds> {
    let fields = json.as_arr()?;
    if fields.len() != 8 {
        return None;
    }
    let at = |i: usize| fields[i].as_usize();
    Some(VerifierBounds {
        single_count: at(0)?,
        single_size: at(1)?,
        multi_count: at(2)?,
        multi_size: at(3)?,
        total_cap: at(4)?,
        hof_body_size: at(5)?,
        hof_max_functions: at(6)?,
        fuel: at(7)? as u64,
    })
}

fn key_to_json(key: &CheckKey) -> Json {
    // Every key carries the `V+` digest and the operation name; the checks
    // without one store zeros and the empty name.
    let (kind, v_plus, op) = match &key.check {
        KeyedCheck::Sufficiency => ("sufficiency", Digest(0), ""),
        KeyedCheck::Visible(v_plus) => ("visible", *v_plus, ""),
        KeyedCheck::Full => ("full", Digest(0), ""),
        KeyedCheck::Op(op) => ("op", Digest(0), op.as_str()),
    };
    Json::obj([
        ("kind", Json::Str(kind.to_string())),
        ("candidate", Json::Str(key.candidate.to_hex())),
        ("v_plus", Json::Str(v_plus.to_hex())),
        ("op", Json::Str(op.to_string())),
        ("bounds", bounds_to_json(&key.bounds)),
    ])
}

fn key_from_json(json: &Json) -> Option<CheckKey> {
    let v_plus = Digest::from_hex(json.get("v_plus")?.as_str()?)?;
    let op = json.get("op")?.as_str()?;
    let check = match (json.get("kind")?.as_str()?, v_plus, op) {
        ("sufficiency", Digest(0), "") => KeyedCheck::Sufficiency,
        ("visible", v_plus, "") => KeyedCheck::Visible(v_plus),
        ("full", Digest(0), "") => KeyedCheck::Full,
        ("op", Digest(0), op) => KeyedCheck::Op(op.to_string()),
        _ => return None,
    };
    Some(CheckKey {
        check,
        candidate: Digest::from_hex(json.get("candidate")?.as_str()?)?,
        bounds: bounds_from_json(json.get("bounds")?)?,
    })
}

fn values_to_json(values: &[Value]) -> Option<Json> {
    let items: Option<Vec<Json>> = values.iter().map(value_to_json).collect();
    Some(Json::Arr(items?))
}

fn values_from_json(json: &Json) -> Option<Vec<Value>> {
    json.as_arr()?.iter().map(value_from_json).collect()
}

fn outcome_to_json(outcome: &CachedOutcome) -> Option<Json> {
    Some(match outcome {
        CachedOutcome::Inductiveness(InductivenessOutcome::Valid) => {
            Json::obj([("inductiveness", Json::Str("valid".to_string()))])
        }
        CachedOutcome::Inductiveness(InductivenessOutcome::Cex(cex)) => Json::obj([(
            "inductiveness",
            Json::obj([
                ("op", Json::Str(cex.op.as_str().to_string())),
                ("args", values_to_json(&cex.args)?),
                ("s", values_to_json(&cex.s)?),
                ("v", values_to_json(&cex.v)?),
            ]),
        )]),
        CachedOutcome::Sufficiency(SufficiencyOutcome::Valid) => {
            Json::obj([("sufficiency", Json::Str("valid".to_string()))])
        }
        CachedOutcome::Sufficiency(SufficiencyOutcome::Cex(cex)) => Json::obj([(
            "sufficiency",
            Json::obj([
                ("args", values_to_json(&cex.args)?),
                ("abstract_args", values_to_json(&cex.abstract_args)?),
            ]),
        )]),
    })
}

/// Decodes the outcome of an entry keyed by `check`: a sufficiency key
/// holds a sufficiency outcome and every other key an inductiveness one, so
/// an outcome of the other shape is malformed.
fn outcome_from_json(json: &Json, check: &KeyedCheck) -> Option<CachedOutcome> {
    if *check == KeyedCheck::Sufficiency {
        let body = json.get("sufficiency")?;
        if body.as_str() == Some("valid") {
            return Some(CachedOutcome::Sufficiency(SufficiencyOutcome::Valid));
        }
        return Some(CachedOutcome::Sufficiency(SufficiencyOutcome::Cex(
            SufficiencyCex {
                args: values_from_json(body.get("args")?)?,
                abstract_args: values_from_json(body.get("abstract_args")?)?,
            },
        )));
    }
    let body = json.get("inductiveness")?;
    if body.as_str() == Some("valid") {
        return Some(CachedOutcome::Inductiveness(InductivenessOutcome::Valid));
    }
    Some(CachedOutcome::Inductiveness(InductivenessOutcome::Cex(
        InductivenessCex {
            op: Symbol::new(body.get("op")?.as_str()?),
            args: values_from_json(body.get("args")?)?,
            s: values_from_json(body.get("s")?)?,
            v: values_from_json(body.get("v")?)?,
        },
    )))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn load(counter: &std::sync::atomic::AtomicU64) -> u64 {
        counter.load(Ordering::Relaxed)
    }

    fn digest_of(name: &str) -> Digest {
        Digest::of_str(name)
    }

    fn cex() -> InductivenessOutcome {
        InductivenessOutcome::Cex(InductivenessCex {
            op: Symbol::new("insert"),
            args: vec![Value::nat(1)],
            s: vec![],
            v: vec![Value::nat_list(&[1, 1])],
        })
    }

    #[test]
    fn completed_outcomes_are_served_from_the_cache() {
        let counters = VerifierCounters::default();
        let cache = CheckCache::default();
        let bounds = VerifierBounds::quick();
        let mut computed = 0;
        for _ in 0..3 {
            let outcome = cache
                .memo(Check::Full, digest_of("inv"), bounds, &counters, || {
                    computed += 1;
                    Ok(cex())
                })
                .unwrap();
            assert_eq!(outcome, cex());
        }
        assert_eq!(computed, 1, "the sweep must run exactly once");
        assert_eq!(load(&counters.check_cache_hits), 2);
        assert_eq!(cache.entries(), 1);
        assert_eq!(load(&counters.check_cache_evictions), 0);
    }

    #[test]
    fn errors_are_never_cached() {
        let counters = VerifierCounters::default();
        let cache = CheckCache::default();
        let bounds = VerifierBounds::quick();
        let timeout: Result<InductivenessOutcome, crate::VerifierError> =
            cache.memo(Check::Full, digest_of("inv"), bounds, &counters, || {
                Err(crate::VerifierError::Timeout)
            });
        assert!(timeout.is_err());
        // The next call computes for real.
        let ok = cache.memo(Check::Full, digest_of("inv"), bounds, &counters, || {
            Ok(InductivenessOutcome::Valid)
        });
        assert_eq!(ok.unwrap(), InductivenessOutcome::Valid);
        assert_eq!(cache.entries(), 1);
    }

    #[test]
    fn keys_distinguish_kind_bounds_and_v_plus() {
        let counters = VerifierCounters::default();
        let cache = CheckCache::default();
        let quick = VerifierBounds::quick();
        let paper = VerifierBounds::paper();
        let valid = || Ok(InductivenessOutcome::Valid);
        cache
            .memo(Check::Full, digest_of("inv"), quick, &counters, valid)
            .unwrap();
        // Same candidate, different bounds: a distinct entry.
        cache
            .memo(Check::Full, digest_of("inv"), paper, &counters, valid)
            .unwrap();
        // Same candidate, visible with two different V+ sets: distinct.
        cache
            .memo(
                Check::Visible(&[Value::nat(0)]),
                digest_of("inv"),
                quick,
                &counters,
                valid,
            )
            .unwrap();
        cache
            .memo(
                Check::Visible(&[Value::nat(1)]),
                digest_of("inv"),
                quick,
                &counters,
                valid,
            )
            .unwrap();
        cache
            .memo(
                Check::Op("insert"),
                digest_of("inv"),
                quick,
                &counters,
                valid,
            )
            .unwrap();
        assert_eq!(cache.entries(), 5);
        assert_eq!(load(&counters.check_cache_hits), 0);
    }

    #[test]
    fn eviction_is_lru_and_counted() {
        let counters = VerifierCounters::default();
        let cache = CheckCache::new(2);
        let bounds = VerifierBounds::quick();
        let valid = || Ok(InductivenessOutcome::Valid);
        cache
            .memo(Check::Full, digest_of("a"), bounds, &counters, valid)
            .unwrap();
        cache
            .memo(Check::Full, digest_of("b"), bounds, &counters, valid)
            .unwrap();
        // Touch `a` so `b` becomes the least recently used entry…
        let mut recomputed = false;
        cache
            .memo(Check::Full, digest_of("a"), bounds, &counters, || {
                recomputed = true;
                Ok(InductivenessOutcome::Valid)
            })
            .unwrap();
        assert!(!recomputed, "`a` must still be cached");
        // …then exceed the capacity: `b` is evicted, `a` survives.
        cache
            .memo(Check::Full, digest_of("c"), bounds, &counters, valid)
            .unwrap();
        assert_eq!(cache.entries(), 2);
        assert_eq!(load(&counters.check_cache_evictions), 1);
        let mut b_recomputed = false;
        cache
            .memo(Check::Full, digest_of("b"), bounds, &counters, || {
                b_recomputed = true;
                Ok(InductivenessOutcome::Valid)
            })
            .unwrap();
        assert!(b_recomputed, "`b` was the LRU entry and must be gone");
        // Re-inserting `b` evicted `a` (the LRU among {a, c}); `c`, the most
        // recently inserted entry, survives.
        assert_eq!(load(&counters.check_cache_evictions), 2);
        let mut c_recomputed = false;
        cache
            .memo(Check::Full, digest_of("c"), bounds, &counters, || {
                c_recomputed = true;
                Ok(InductivenessOutcome::Valid)
            })
            .unwrap();
        assert!(!c_recomputed, "`c` must have survived the second eviction");
    }

    #[test]
    fn admission_never_stops_new_entries_keep_landing() {
        let counters = VerifierCounters::default();
        // The pre-LRU behaviour stopped admitting at capacity; now the
        // *newest* entry always lands and the oldest leaves.
        let cache = CheckCache::new(2);
        let bounds = VerifierBounds::quick();
        for i in 0..5 {
            cache
                .memo(
                    Check::Full,
                    digest_of(&format!("inv{i}")),
                    bounds,
                    &counters,
                    || Ok(InductivenessOutcome::Valid),
                )
                .unwrap();
        }
        assert_eq!(cache.entries(), 2);
        assert_eq!(load(&counters.check_cache_evictions), 3);
        // The most recent entry is resident.
        let mut recomputed = false;
        cache
            .memo(Check::Full, digest_of("inv4"), bounds, &counters, || {
                recomputed = true;
                Ok(InductivenessOutcome::Valid)
            })
            .unwrap();
        assert!(!recomputed);
    }

    #[test]
    fn snapshots_round_trip_entries_and_recency() {
        let counters = VerifierCounters::default();
        let cache = CheckCache::new(8);
        let bounds = VerifierBounds::quick();
        cache
            .memo(Check::Full, digest_of("a"), bounds, &counters, || Ok(cex()))
            .unwrap();
        cache
            .memo(
                Check::Sufficiency,
                digest_of("b"),
                bounds,
                &counters,
                || Ok(SufficiencyOutcome::Valid),
            )
            .unwrap();
        cache
            .memo(
                Check::Sufficiency,
                digest_of("s"),
                bounds,
                &counters,
                || {
                    Ok(SufficiencyOutcome::Cex(SufficiencyCex {
                        args: vec![Value::nat_list(&[1, 1]), Value::nat(1)],
                        abstract_args: vec![Value::nat_list(&[1, 1])],
                    }))
                },
            )
            .unwrap();
        cache
            .memo(
                Check::Visible(&[Value::nat(0)]),
                digest_of("a"),
                bounds,
                &counters,
                || Ok(InductivenessOutcome::Valid),
            )
            .unwrap();
        cache
            .memo(
                Check::Op("insert"),
                digest_of("a"),
                bounds,
                &counters,
                || Ok(InductivenessOutcome::Valid),
            )
            .unwrap();

        let snapshot = cache.to_json().render_pretty();
        let parsed = hanoi_lang::json::parse(&snapshot).unwrap();
        let restored = CheckCache::from_json(&parsed, 8).unwrap();
        assert_eq!(restored.entries(), 5);

        // Every entry answers from the restored cache without recomputing.
        let mut recomputed = false;
        let outcome = restored
            .memo(Check::Full, digest_of("a"), bounds, &counters, || {
                recomputed = true;
                Ok(InductivenessOutcome::Valid)
            })
            .unwrap();
        assert!(!recomputed);
        assert_eq!(outcome, cex(), "counterexample values survived the disk");
        let suf = restored
            .memo(
                Check::Sufficiency,
                digest_of("s"),
                bounds,
                &counters,
                || {
                    recomputed = true;
                    Ok(SufficiencyOutcome::Valid)
                },
            )
            .unwrap();
        assert!(!recomputed);
        assert!(matches!(suf, SufficiencyOutcome::Cex(_)));
    }

    #[test]
    fn snapshot_restore_respects_a_smaller_capacity() {
        let counters = VerifierCounters::default();
        let cache = CheckCache::new(8);
        let bounds = VerifierBounds::quick();
        for i in 0..6 {
            cache
                .memo(
                    Check::Full,
                    digest_of(&format!("inv{i}")),
                    bounds,
                    &counters,
                    || Ok(InductivenessOutcome::Valid),
                )
                .unwrap();
        }
        let restored = CheckCache::from_json(&cache.to_json(), 3).unwrap();
        assert_eq!(restored.entries(), 3);
        // The *most recently used* entries survive the shrink.
        let mut recomputed = false;
        restored
            .memo(Check::Full, digest_of("inv5"), bounds, &counters, || {
                recomputed = true;
                Ok(InductivenessOutcome::Valid)
            })
            .unwrap();
        assert!(!recomputed);
    }

    #[test]
    fn stripes_round_trip_and_respect_recency_order() {
        let counters = VerifierCounters::default();
        let cache = CheckCache::new(32);
        let bounds = VerifierBounds::quick();
        for i in 0..7 {
            cache
                .memo(
                    Check::Full,
                    digest_of(&format!("inv{i}")),
                    bounds,
                    &counters,
                    || Ok(InductivenessOutcome::Valid),
                )
                .unwrap();
        }
        let snapshot = cache.to_json();
        let stripes = CheckCache::split_snapshot(&snapshot, 3).unwrap();
        assert_eq!(stripes.len(), 3, "7 entries at stripe length 3");
        for stripe in &stripes {
            assert_eq!(
                stripe.get("kind").and_then(Json::as_str),
                Some(CheckCache::STRIPE_KIND)
            );
        }
        let (joined, skipped) = CheckCache::join_stripes(&stripes);
        assert_eq!(skipped, 0);
        assert_eq!(
            joined.render_pretty(),
            snapshot.render_pretty(),
            "split ∘ join must be the identity on snapshots"
        );
        let restored = CheckCache::from_json(&joined, 32).unwrap();
        assert_eq!(restored.entries(), 7);
        // Only entries that did not change stripes produce identical chunks:
        // appending one entry leaves the full older stripes byte-stable.
        cache
            .memo(Check::Full, digest_of("inv7"), bounds, &counters, || {
                Ok(InductivenessOutcome::Valid)
            })
            .unwrap();
        let stripes_after = CheckCache::split_snapshot(&cache.to_json(), 3).unwrap();
        assert_eq!(stripes_after.len(), 3, "8 entries at stripe length 3");
        assert_eq!(
            stripes_after[0].render_pretty(),
            stripes[0].render_pretty(),
            "untouched old stripes must be byte-identical across saves"
        );
        assert_eq!(stripes_after[1].render_pretty(), stripes[1].render_pretty());
    }

    #[test]
    fn corrupt_stripes_are_skipped_not_fatal() {
        let counters = VerifierCounters::default();
        let cache = CheckCache::new(32);
        let bounds = VerifierBounds::quick();
        for i in 0..4 {
            cache
                .memo(
                    Check::Full,
                    digest_of(&format!("inv{i}")),
                    bounds,
                    &counters,
                    || Ok(InductivenessOutcome::Valid),
                )
                .unwrap();
        }
        let mut stripes = CheckCache::split_snapshot(&cache.to_json(), 2).unwrap();
        assert_eq!(stripes.len(), 2);
        // One stripe is garbage: the join proceeds with the other.
        stripes[0] = Json::Str("not a stripe".to_string());
        let (joined, skipped) = CheckCache::join_stripes(&stripes);
        assert_eq!(skipped, 1);
        let restored = CheckCache::from_json(&joined, 32).unwrap();
        assert_eq!(
            restored.entries(),
            2,
            "the surviving stripe's entries must all restore"
        );
        // A wrong-kind object is also a skip, not a join of foreign data.
        let foreign = Json::obj([
            ("version", Json::Num(CheckCache::SNAPSHOT_VERSION as f64)),
            ("kind", Json::Str("term-bank-part".to_string())),
            ("entries", Json::Arr(vec![])),
        ]);
        let (_, skipped) = CheckCache::join_stripes([&foreign]);
        assert_eq!(skipped, 1);
        // Splitting something that is not a check-cache snapshot is refused.
        assert!(CheckCache::split_snapshot(&foreign, 2).is_none());
    }

    #[test]
    fn snapshots_of_older_versions_restore_cold() {
        let counters = VerifierCounters::default();
        // Version 1 builds answered sufficiency for tuple-typed spec
        // parameters vacuously; their outcomes must not be served.
        let cache = CheckCache::new(32);
        let bounds = VerifierBounds::quick();
        for i in 0..4 {
            cache
                .memo(
                    Check::Sufficiency,
                    digest_of(&format!("inv{i}")),
                    bounds,
                    &counters,
                    || Ok(SufficiencyOutcome::Valid),
                )
                .unwrap();
        }
        let with_version = |json: &Json, version: u64| {
            let mut json = json.clone();
            if let Json::Obj(map) = &mut json {
                map.insert("version".to_string(), Json::Num(version as f64));
            }
            json
        };
        let old = CheckCache::SNAPSHOT_VERSION - 1;
        assert!(CheckCache::from_json(&with_version(&cache.to_json(), old), 32).is_err());
        assert!(CheckCache::split_snapshot(&with_version(&cache.to_json(), old), 2).is_none());
        // The warm-start store reassembles recency stripes: an older build's
        // stripes are skipped, and the joined snapshot restores empty.
        let stripes = CheckCache::split_snapshot(&cache.to_json(), 2).unwrap();
        let old_stripes: Vec<Json> = stripes.iter().map(|s| with_version(s, old)).collect();
        let (joined, skipped) = CheckCache::join_stripes(&old_stripes);
        assert_eq!(skipped, stripes.len());
        assert_eq!(CheckCache::from_json(&joined, 32).unwrap().entries(), 0);
        // The current version's stripes restore whole.
        let (joined, skipped) = CheckCache::join_stripes(&stripes);
        assert_eq!(skipped, 0);
        assert_eq!(CheckCache::from_json(&joined, 32).unwrap().entries(), 4);
    }

    #[test]
    fn entries_whose_outcome_does_not_fit_their_check_are_rejected() {
        let counters = VerifierCounters::default();
        let cache = CheckCache::default();
        let bounds = VerifierBounds::quick();
        cache
            .memo(Check::Full, digest_of("inv"), bounds, &counters, || {
                Ok(InductivenessOutcome::Valid)
            })
            .unwrap();
        cache
            .memo(
                Check::Sufficiency,
                digest_of("inv"),
                bounds,
                &counters,
                || Ok(SufficiencyOutcome::Valid),
            )
            .unwrap();
        let edited = |from: &str, to: &str| {
            let rendered = cache.to_json().render();
            assert!(rendered.contains(from));
            hanoi_lang::json::parse(&rendered.replace(from, to)).unwrap()
        };
        let relabelled = |from: &str, to: &str| {
            edited(&format!(r#""kind":"{from}""#), &format!(r#""kind":"{to}""#))
        };
        // An inductiveness outcome under a sufficiency key, and the reverse,
        // are malformed entries: the whole snapshot is refused, so a restore
        // starts cold instead of answering (and counting a hit) for a check
        // whose sweep then runs anyway.
        for (from, to) in [("full", "sufficiency"), ("sufficiency", "visible")] {
            let snapshot = relabelled(from, to);
            assert!(
                CheckCache::from_json(&snapshot, 8).is_err(),
                "{from} → {to}"
            );
        }
        assert!(CheckCache::from_json(&relabelled("full", "op"), 8).is_ok());
        // So is an operation name on a check of every operation.
        let named = edited(r#""kind":"full","op":"""#, r#""kind":"full","op":"insert""#);
        assert!(CheckCache::from_json(&named, 8).is_err());
    }

    #[test]
    fn corrupt_and_mismatched_snapshots_are_rejected() {
        let counters = VerifierCounters::default();
        let cache = CheckCache::default();
        let bounds = VerifierBounds::quick();
        cache
            .memo(Check::Full, digest_of("inv"), bounds, &counters, || {
                Ok(InductivenessOutcome::Valid)
            })
            .unwrap();
        let good = cache.to_json();

        // Version mismatch.
        let mut wrong_version = good.clone();
        if let Json::Obj(map) = &mut wrong_version {
            map.insert("version".to_string(), Json::Num(99.0));
        }
        assert!(CheckCache::from_json(&wrong_version, 8).is_err());

        // Wrong kind.
        let mut wrong_kind = good.clone();
        if let Json::Obj(map) = &mut wrong_kind {
            map.insert("kind".to_string(), Json::Str("term-bank".to_string()));
        }
        assert!(CheckCache::from_json(&wrong_kind, 8).is_err());

        // Structural corruption inside an entry.
        let mut bad_entry = good.clone();
        if let Json::Obj(map) = &mut bad_entry {
            map.insert(
                "entries".to_string(),
                Json::Arr(vec![Json::obj([("key", Json::Num(1.0))])]),
            );
        }
        assert!(CheckCache::from_json(&bad_entry, 8).is_err());

        // Not an object at all.
        assert!(CheckCache::from_json(&Json::Num(3.0), 8).is_err());
    }
}
