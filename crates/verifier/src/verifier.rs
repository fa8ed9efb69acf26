//! The [`Verifier`] façade: one object bundling a problem, bounds and a
//! deadline, exposing the three checks the inference driver needs.

use std::sync::Arc;

use hanoi_abstraction::Problem;
use hanoi_lang::ast::Expr;
use hanoi_lang::digest::Digest;
use hanoi_lang::value::Value;

use crate::bounds::{Deadline, VerifierBounds};
use crate::checkcache::{CheckCache, CheckCacheStats};
use crate::inductive::{check_cond_inductive, PoolSpec};
use crate::outcome::{InductivenessOutcome, SufficiencyOutcome, VerifierError};
use crate::poolcache::{PoolCache, PoolCacheStats};
use crate::tester::check_sufficiency;

/// The bounded enumerative verifier.
///
/// A `Verifier` is one *verification session*: it owns a shared
/// [`PoolCache`], so across all the checks made through it (a whole CEGIS
/// run, typically) each `(type, count, size)` pool is enumerated at most
/// once.  Cloning the verifier shares the cache.  An optional
/// [`CheckCache`] ([`Verifier::with_check_cache`]) additionally memoizes
/// whole check *outcomes* — the long-lived engine shares one per problem so
/// re-runs skip entire sweeps.
#[derive(Debug, Clone)]
pub struct Verifier<'p> {
    problem: &'p Problem,
    bounds: VerifierBounds,
    deadline: Deadline,
    parallelism: usize,
    pools: Arc<PoolCache>,
    checks: Option<Arc<CheckCache>>,
}

impl<'p> Verifier<'p> {
    /// A verifier with the paper's default bounds, no deadline, serial
    /// execution, and a fresh pool cache.
    pub fn new(problem: &'p Problem) -> Self {
        Verifier {
            problem,
            bounds: VerifierBounds::default(),
            deadline: Deadline::none(),
            parallelism: 1,
            pools: PoolCache::for_problem(problem),
            checks: None,
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

    /// Sets the number of worker threads used by every check: `1` (the
    /// default) runs serially, `0` uses one worker per available core, any
    /// other value is taken literally.  Parallel runs produce outcomes
    /// identical to serial ones — counterexample selection is deterministic
    /// (least tuple under the enumeration order), see [`crate::parallel`].
    pub fn with_parallelism(mut self, parallelism: usize) -> Self {
        self.parallelism = parallelism;
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

    /// Counter snapshot of the shared check-outcome cache (zeros when none
    /// is installed).
    pub fn check_cache_stats(&self) -> CheckCacheStats {
        self.checks.as_ref().map(|c| c.stats()).unwrap_or_default()
    }

    /// The pool cache backing this verification session.
    pub fn pool_cache(&self) -> &Arc<PoolCache> {
        &self.pools
    }

    /// Counter snapshot of this session's pool activity (hits, builds,
    /// predicate evaluations).
    pub fn pool_stats(&self) -> PoolCacheStats {
        self.pools.stats()
    }

    /// The effective worker count of this verifier (with `0` resolved to the
    /// available core count).
    pub fn workers(&self) -> usize {
        crate::parallel::effective_workers(self.parallelism)
    }

    /// The problem being verified.
    pub fn problem(&self) -> &'p Problem {
        self.problem
    }

    /// The bounds in effect.
    pub fn bounds(&self) -> &VerifierBounds {
        &self.bounds
    }

    /// `Verify Suf φ M [I]`: is the candidate sufficient for the spec?
    pub fn check_sufficiency(&self, invariant: &Expr) -> Result<SufficiencyOutcome, VerifierError> {
        let compute = || {
            check_sufficiency(
                self.problem,
                &self.pools,
                &self.bounds,
                &self.deadline,
                invariant,
                self.workers(),
            )
        };
        match &self.checks {
            Some(cache) => cache.sufficiency(Digest::of_expr(invariant), self.bounds, compute),
            None => compute(),
        }
    }

    /// `CondInductive V+ I`: is the candidate visibly inductive relative to
    /// the known-constructible set `v_plus`?
    pub fn check_visible_inductiveness(
        &self,
        v_plus: &[Value],
        invariant: &Expr,
    ) -> Result<InductivenessOutcome, VerifierError> {
        let compute = || {
            check_cond_inductive(
                self.problem,
                &self.pools,
                &self.bounds,
                &self.deadline,
                PoolSpec::Known(v_plus),
                invariant,
                None,
                self.workers(),
            )
        };
        match &self.checks {
            Some(cache) => cache.visible(
                Digest::of_expr(invariant),
                Digest::of_values(v_plus),
                self.bounds,
                compute,
            ),
            None => compute(),
        }
    }

    /// `CondInductive I I`: is the candidate fully inductive?
    pub fn check_full_inductiveness(
        &self,
        invariant: &Expr,
    ) -> Result<InductivenessOutcome, VerifierError> {
        let compute = || {
            check_cond_inductive(
                self.problem,
                &self.pools,
                &self.bounds,
                &self.deadline,
                PoolSpec::Satisfying,
                invariant,
                None,
                self.workers(),
            )
        };
        match &self.checks {
            Some(cache) => cache.full(Digest::of_expr(invariant), self.bounds, compute),
            None => compute(),
        }
    }

    /// `CondInductive I I` restricted to a single module operation — the
    /// LinearArbitrary baseline checks operations one at a time (§5.5).
    pub fn check_op_inductiveness(
        &self,
        op: &str,
        invariant: &Expr,
    ) -> Result<InductivenessOutcome, VerifierError> {
        let compute = || {
            check_cond_inductive(
                self.problem,
                &self.pools,
                &self.bounds,
                &self.deadline,
                PoolSpec::Satisfying,
                invariant,
                Some(op),
                self.workers(),
            )
        };
        match &self.checks {
            Some(cache) => cache.op(op, Digest::of_expr(invariant), self.bounds, compute),
            None => compute(),
        }
    }

    /// The smallest `count` values of the concrete representation type — the
    /// sample the OneShot baseline labels with the specification.
    pub fn smallest_concrete_values(&self, count: usize) -> Vec<Value> {
        self.pools
            .pool(
                self.problem.concrete_type(),
                count,
                self.bounds.single_size,
                self.workers(),
            )
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
    fn smallest_concrete_values_start_with_nil() {
        let problem = Problem::from_source(LIST_SET).unwrap();
        let verifier = Verifier::new(&problem).with_bounds(VerifierBounds::quick());
        let values = verifier.smallest_concrete_values(5);
        assert_eq!(values.len(), 5);
        assert_eq!(values[0], Value::nat_list(&[]));
    }
}
