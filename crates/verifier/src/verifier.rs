//! The [`Verifier`] façade: one object bundling a problem, bounds and a
//! deadline, exposing the checks the inference modes need.  Every check
//! takes one path: a `Check` value, answered from the check cache or by
//! its sweep.  Every check counts its work in the verifier's
//! [`VerifierCounters`].

use std::sync::atomic::AtomicU64;
use std::sync::Arc;

use hanoi_abstraction::Problem;
use hanoi_lang::ast::Expr;
use hanoi_lang::digest::Digest;
use hanoi_lang::types::Type;
use hanoi_lang::value::Value;

use crate::bounds::{Deadline, VerifierBounds};
use crate::checkcache::{CheckCache, Memoized};
use crate::inductive::check_cond_inductive;
use crate::outcome::{InductivenessOutcome, SufficiencyOutcome, VerifierError};
use crate::poolcache::PoolCache;
use crate::tester::check_sufficiency;

/// One of the verifier's checks, as a sweep runs it and as the check cache
/// keys its outcome.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Check<'a> {
    /// `Verify Suf φ M [I]` (Definition 3.4).
    Sufficiency,
    /// `CondInductive V+ I`: abstract arguments come from the given
    /// known-constructible values.
    Visible(&'a [Value]),
    /// `CondInductive I I`: abstract arguments are the enumerated values
    /// satisfying the candidate.
    Full,
    /// `CondInductive I I` for the named module operation only.
    Op(&'a str),
}

/// The work of the checks made through one [`Verifier`] and its clones,
/// counted as it happens.  The caches a verifier shares with other
/// verifiers hold no counts, so a run that overlaps another run of the same
/// problem counts only its own work.
#[derive(Debug, Default)]
pub struct VerifierCounters {
    /// Pool requests answered from the pool cache.
    pub pool_cache_hits: AtomicU64,
    /// Pools assembled: value pools and function pools (at most one per
    /// distinct `(type, count, size)` or function-pool key).
    pub pool_builds: AtomicU64,
    /// Per-size enumeration slabs built (at most one per `(type, size)`).
    pub pool_slab_builds: AtomicU64,
    /// Candidate-predicate evaluations (pool filtering plus `P`/`Q` tests).
    pub predicate_evals: AtomicU64,
    /// Predicate tests a full-inductiveness check answered from its verdict
    /// table instead of evaluating (see [`crate::inductive`]).
    pub predicate_table_hits: AtomicU64,
    /// Specification evaluations made by sufficiency searches.
    pub spec_evals: AtomicU64,
    /// Sufficiency tuples skipped because the session's spec memo records
    /// that the specification held on them (see
    /// [`crate::poolcache::SpecMemo`]).
    pub spec_memo_hits: AtomicU64,
    /// Checks answered from the check-outcome cache without a sweep.
    pub check_cache_hits: AtomicU64,
    /// Check-outcome cache entries evicted (LRU) by this verifier's inserts.
    pub check_cache_evictions: AtomicU64,
}

/// The bounded enumerative verifier.
///
/// A `Verifier` is one *verification session*: it owns a shared
/// [`PoolCache`], so across all the checks made through it (a whole CEGIS
/// run, typically) each `(type, count, size)` pool is enumerated at most
/// once.  An optional [`CheckCache`] ([`Verifier::with_check_cache`])
/// additionally memoizes whole check *outcomes* — the long-lived engine
/// shares one per problem so re-runs skip entire sweeps.  A verifier counts
/// its checks' work in one [`VerifierCounters`] set, created with it.
/// Cloning the verifier shares the caches and the counters.
#[derive(Debug, Clone)]
pub struct Verifier<'p> {
    problem: &'p Problem,
    bounds: VerifierBounds,
    deadline: Deadline,
    pools: Arc<PoolCache>,
    checks: Option<Arc<CheckCache>>,
    counters: Arc<VerifierCounters>,
}

impl<'p> Verifier<'p> {
    /// A verifier with the paper's default bounds, no deadline and a fresh
    /// pool cache.
    pub fn new(problem: &'p Problem) -> Self {
        Verifier {
            problem,
            bounds: VerifierBounds::default(),
            deadline: Deadline::none(),
            pools: PoolCache::for_problem(problem),
            checks: None,
            counters: Arc::default(),
        }
    }

    /// Overrides the enumeration bounds.
    pub fn with_bounds(mut self, bounds: VerifierBounds) -> Self {
        self.bounds = bounds;
        self
    }

    /// Sets a wall-clock deadline shared by all checks.
    pub fn with_deadline(mut self, deadline: Deadline) -> Self {
        self.deadline = deadline;
        self
    }

    /// Shares an existing pool cache (e.g. to keep pools warm across several
    /// `Verifier` values over the same problem).
    pub fn with_pool_cache(mut self, pools: Arc<PoolCache>) -> Self {
        self.pools = pools;
        self
    }

    /// Shares a check-outcome cache: completed checks are memoized under
    /// structural digests of their full inputs (check kind, candidate, `V+`,
    /// bounds) and served without re-sweeping.  The cache must only ever be
    /// shared between verifiers over the *same* problem — outcomes are not
    /// keyed by module semantics (the engine's warm-start store keys the
    /// snapshot *files* by a problem fingerprint for exactly that reason).
    pub fn with_check_cache(mut self, checks: Arc<CheckCache>) -> Self {
        self.checks = Some(checks);
        self
    }

    /// The pool cache backing this verification session.
    pub fn pool_cache(&self) -> &Arc<PoolCache> {
        &self.pools
    }

    /// The work counted by the checks made through this verifier and its
    /// clones.
    pub fn counters(&self) -> &VerifierCounters {
        &self.counters
    }

    /// The smallest `count` values of `ty` no larger than `size` nodes, from
    /// the pool cache (see [`PoolCache::pool`]); the request is counted in
    /// this verifier's [`VerifierCounters`].
    pub fn pool(&self, ty: &Type, count: usize, size: usize) -> Arc<Vec<Value>> {
        self.pools.fetch(ty, count, size, &self.counters)
    }

    /// The problem being verified.
    pub fn problem(&self) -> &'p Problem {
        self.problem
    }

    /// The bounds in effect.
    pub fn bounds(&self) -> &VerifierBounds {
        &self.bounds
    }

    /// The deadline every check polls.
    pub(crate) fn deadline(&self) -> &Deadline {
        &self.deadline
    }

    /// `Verify Suf φ M [I]`: is the candidate sufficient for the spec?
    pub fn check_sufficiency(&self, invariant: &Expr) -> Result<SufficiencyOutcome, VerifierError> {
        self.run(Check::Sufficiency, invariant, |verifier, _, invariant| {
            check_sufficiency(verifier, invariant)
        })
    }

    /// `CondInductive V+ I`: is the candidate visibly inductive relative to
    /// the known-constructible set `v_plus`?
    pub fn check_visible_inductiveness(
        &self,
        v_plus: &[Value],
        invariant: &Expr,
    ) -> Result<InductivenessOutcome, VerifierError> {
        self.run(Check::Visible(v_plus), invariant, check_cond_inductive)
    }

    /// `CondInductive I I`: is the candidate fully inductive?
    pub fn check_full_inductiveness(
        &self,
        invariant: &Expr,
    ) -> Result<InductivenessOutcome, VerifierError> {
        self.run(Check::Full, invariant, check_cond_inductive)
    }

    /// `CondInductive I I` restricted to a single module operation — the
    /// LinearArbitrary baseline checks operations one at a time (§5.5).
    pub fn check_op_inductiveness(
        &self,
        op: &str,
        invariant: &Expr,
    ) -> Result<InductivenessOutcome, VerifierError> {
        self.run(Check::Op(op), invariant, check_cond_inductive)
    }

    /// Answers `check` of `invariant` from the check cache when it holds
    /// the outcome, and runs `sweep` otherwise.
    fn run<T: Memoized>(
        &self,
        check: Check<'_>,
        invariant: &Expr,
        sweep: fn(&Self, Check<'_>, &Expr) -> Result<T, VerifierError>,
    ) -> Result<T, VerifierError> {
        let sweep = || sweep(self, check, invariant);
        match &self.checks {
            Some(cache) => cache.memo(
                check,
                Digest::of_expr(invariant),
                self.bounds,
                &self.counters,
                sweep,
            ),
            None => sweep(),
        }
    }

    /// The smallest `count` values of the concrete representation type — the
    /// sample the OneShot baseline labels with the specification.
    pub fn smallest_concrete_values(&self, count: usize) -> Vec<Value> {
        self.pool(self.problem.concrete_type(), count, self.bounds.single_size)
            .as_ref()
            .clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hanoi_lang::parser::parse_expr;

    const LIST_SET: &str = r#"
        type nat = O | S of nat
        type list = Nil | Cons of nat * list

        interface SET = sig
          type t
          val empty : t
          val insert : t -> nat -> t
          val delete : t -> nat -> t
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
          let insert (l : t) (x : nat) : t =
            if lookup l x then l else Cons (x, l)
          let rec delete (l : t) (x : nat) : t =
            match l with
            | Nil -> Nil
            | Cons (hd, tl) -> if hd == x then tl else Cons (hd, delete tl x)
            end
        end

        spec (s : t) (i : nat) =
          not (lookup empty i) && lookup (insert s i) i && not (lookup (delete s i) i)
    "#;

    #[test]
    fn end_to_end_checks_on_the_running_example() {
        let problem = Problem::from_source(LIST_SET).unwrap();
        let verifier = Verifier::new(&problem).with_bounds(VerifierBounds::quick());

        let no_dup = parse_expr(
            "fix inv (l : list) : bool = \
               match l with \
               | Nil -> True \
               | Cons (hd, tl) -> not (lookup tl hd) && inv tl \
               end",
        )
        .unwrap();

        // The paper's invariant passes all three checks.
        assert!(verifier.check_sufficiency(&no_dup).unwrap().is_valid());
        assert!(verifier
            .check_full_inductiveness(&no_dup)
            .unwrap()
            .is_valid());
        let v_plus = vec![Value::nat_list(&[]), Value::nat_list(&[1])];
        assert!(verifier
            .check_visible_inductiveness(&v_plus, &no_dup)
            .unwrap()
            .is_valid());

        // `true` is inductive but not sufficient; `sorted-heads-not-1` is
        // neither.
        let trivial = parse_expr("fun (l : list) -> True").unwrap();
        assert!(!verifier.check_sufficiency(&trivial).unwrap().is_valid());
        assert!(verifier
            .check_full_inductiveness(&trivial)
            .unwrap()
            .is_valid());
    }

    #[test]
    fn check_cache_snapshots_keep_their_wire_format() {
        // One entry of each check kind, with a sufficiency and an
        // inductiveness counterexample among them: the bytes a warm-start
        // store holds.  Stores written by other builds restore only while
        // these bytes stay put (or `CheckCache::SNAPSHOT_VERSION` moves).
        let problem = Problem::from_source(LIST_SET).unwrap();
        let cache = Arc::new(CheckCache::default());
        let verifier = Verifier::new(&problem)
            .with_bounds(VerifierBounds::quick())
            .with_check_cache(Arc::clone(&cache));
        let trivial = parse_expr("fun (l : list) -> True").unwrap();
        let heads_not_one = parse_expr(
            "fun (l : list) -> match l with | Nil -> True | Cons (hd, tl) -> not (hd == 1) end",
        )
        .unwrap();
        let v_plus = vec![Value::nat_list(&[])];
        assert!(!verifier.check_sufficiency(&trivial).unwrap().is_valid());
        assert!(!verifier
            .check_visible_inductiveness(&v_plus, &heads_not_one)
            .unwrap()
            .is_valid());
        assert!(!verifier
            .check_full_inductiveness(&heads_not_one)
            .unwrap()
            .is_valid());
        assert!(verifier
            .check_op_inductiveness("empty", &heads_not_one)
            .unwrap()
            .is_valid());
        assert_eq!(
            cache.to_json().render(),
            concat!(
                r#"{"entries":[{"key":{"bounds":[400,14,150,9,4000,5,12,100000],"#,
                r#""candidate":"aacdb712642626bc3a980fe7cd3b6b41","kind":"sufficiency","#,
                r#""op":"","v_plus":"00000000000000000000000000000000"},"#,
                r#""outcome":{"sufficiency":{"abstract_args":[{"a":[{"a":[],"c":"O"},"#,
                r#"{"a":[{"a":[],"c":"O"},{"a":[],"c":"Nil"}],"c":"Cons"}],"c":"Cons"}],"#,
                r#""args":[{"a":[{"a":[],"c":"O"},{"a":[{"a":[],"c":"O"},{"a":[],"c":"Nil"}],"#,
                r#""c":"Cons"}],"c":"Cons"},{"a":[],"c":"O"}]}}},"#,
                r#"{"key":{"bounds":[400,14,150,9,4000,5,12,100000],"#,
                r#""candidate":"a92a0595f96bd186fb90a652737c3949","kind":"visible","#,
                r#""op":"","v_plus":"0adfe23acacdad14d9ece254420ee793"},"#,
                r#""outcome":{"inductiveness":{"args":[{"a":[],"c":"Nil"},"#,
                r#"{"a":[{"a":[],"c":"O"}],"c":"S"}],"op":"insert","s":[{"a":[],"c":"Nil"}],"#,
                r#""v":[{"a":[{"a":[{"a":[],"c":"O"}],"c":"S"},{"a":[],"c":"Nil"}],"c":"Cons"}]}}},"#,
                r#"{"key":{"bounds":[400,14,150,9,4000,5,12,100000],"#,
                r#""candidate":"a92a0595f96bd186fb90a652737c3949","kind":"full","#,
                r#""op":"","v_plus":"00000000000000000000000000000000"},"#,
                r#""outcome":{"inductiveness":{"args":[{"a":[],"c":"Nil"},"#,
                r#"{"a":[{"a":[],"c":"O"}],"c":"S"}],"op":"insert","s":[{"a":[],"c":"Nil"}],"#,
                r#""v":[{"a":[{"a":[{"a":[],"c":"O"}],"c":"S"},{"a":[],"c":"Nil"}],"c":"Cons"}]}}},"#,
                r#"{"key":{"bounds":[400,14,150,9,4000,5,12,100000],"#,
                r#""candidate":"a92a0595f96bd186fb90a652737c3949","kind":"op","#,
                r#""op":"empty","v_plus":"00000000000000000000000000000000"},"#,
                r#""outcome":{"inductiveness":"valid"}}],"kind":"check-cache","version":2}"#,
            )
        );
    }

    #[test]
    fn smallest_concrete_values_start_with_nil() {
        let problem = Problem::from_source(LIST_SET).unwrap();
        let verifier = Verifier::new(&problem).with_bounds(VerifierBounds::quick());
        let values = verifier.smallest_concrete_values(5);
        assert_eq!(values.len(), 5);
        assert_eq!(values[0], Value::nat_list(&[]));
    }
}
