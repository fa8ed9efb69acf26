//! Counterexample-list caching (§4.4, Figures 5 and 6).
//!
//! Whenever a new positive example is discovered, Figure 4 resets `V−` to the
//! empty set, and the unoptimized algorithm re-discovers — through fresh
//! synthesis and verification calls — the same sequence of weak candidates
//! and their negative counterexamples.  The optimization records the trace of
//! (candidate, negative counterexamples added after it) pairs; on a reset it
//! replays the longest prefix of the trace whose candidates are still
//! consistent with the enlarged `V+`, restoring their negative examples
//! directly.

use std::collections::HashSet;

use hanoi_abstraction::Problem;
use hanoi_lang::ast::Expr;
use hanoi_lang::eval::Fuel;
use hanoi_lang::value::Value;

/// One step of the recorded trace: a candidate invariant and the negative
/// examples the verifier produced in response to it.
#[derive(Debug, Clone)]
pub struct TraceStep {
    /// The candidate invariant of this step.
    pub candidate: Expr,
    /// The candidate slot-resolved at record time, not once per replay
    /// probe.
    resolved: Expr,
    /// The negative examples added after checking it.
    pub negatives: Vec<Value>,
}

/// The counterexample-list cache.
#[derive(Debug, Clone, Default)]
pub struct CexListCache {
    trace: Vec<TraceStep>,
}

impl CexListCache {
    /// An empty cache.
    pub fn new() -> Self {
        CexListCache::default()
    }

    /// Records that `candidate` was answered with `negatives`.
    pub fn record(&mut self, candidate: Expr, negatives: Vec<Value>) {
        let resolved = hanoi_lang::resolve::resolve(&candidate);
        self.trace.push(TraceStep {
            candidate,
            resolved,
            negatives,
        });
    }

    /// Number of recorded steps.
    pub fn len(&self) -> usize {
        self.trace.len()
    }

    /// `true` when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.trace.is_empty()
    }

    /// The recorded steps, oldest first.
    pub fn steps(&self) -> &[TraceStep] {
        &self.trace
    }

    /// Replays the trace against an updated positive set: walks the steps in
    /// order, keeps the negatives of every candidate that still returns
    /// `true` on all of `v_plus`, and truncates the trace at the first
    /// candidate that does not (its negatives — and everything after them —
    /// were only relevant to the old, smaller `V+`).
    ///
    /// Returns the negative examples to seed the new `V−` with (values that
    /// are now known positive are filtered out).
    pub fn replay(&mut self, problem: &Problem, v_plus: &[Value]) -> Vec<Value> {
        // Set-based membership: the scan over negatives used to be
        // O(|V−| · |V+|) per replay, which dominated replays on long traces.
        let positives: HashSet<&Value> = v_plus.iter().collect();
        let mut restored = Vec::new();
        let mut keep = 0usize;
        for step in &self.trace {
            let consistent = v_plus.iter().all(|v| {
                problem
                    .eval_predicate_resolved_with_fuel(&step.resolved, v, &mut Fuel::standard())
                    .unwrap_or(false)
            });
            if !consistent {
                break;
            }
            keep += 1;
            restored.extend(
                step.negatives
                    .iter()
                    .filter(|n| !positives.contains(n))
                    .cloned(),
            );
        }
        self.trace.truncate(keep);
        restored
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
        end
        spec (s : t) (i : nat) = not (lookup empty i)
    "#;

    #[test]
    fn replay_keeps_the_consistent_prefix() {
        let problem = Problem::from_source(LIST_SET).unwrap();
        let mut cache = CexListCache::new();
        assert!(cache.is_empty());

        // Step 1: `true` was refuted by the negative [0; 0].
        cache.record(
            parse_expr("fun (l : list) -> True").unwrap(),
            vec![Value::nat_list(&[0, 0])],
        );
        // Step 2: "head is not 0" was refuted by the negative [1; 1].
        cache.record(
            parse_expr(
                "fun (l : list) -> match l with | Nil -> True | Cons (hd, tl) -> not (hd == 0) end",
            )
            .unwrap(),
            vec![Value::nat_list(&[1, 1])],
        );
        assert_eq!(cache.len(), 2);

        // A new positive [0] arrives: the first candidate still accepts it,
        // the second does not, so only the first step's negatives survive and
        // the trace is truncated after it (Figure 6).
        let v_plus = vec![Value::nat_list(&[]), Value::nat_list(&[0])];
        let restored = cache.replay(&problem, &v_plus);
        assert_eq!(restored, vec![Value::nat_list(&[0, 0])]);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn replay_filters_out_values_that_became_positive() {
        let problem = Problem::from_source(LIST_SET).unwrap();
        let mut cache = CexListCache::new();
        cache.record(
            parse_expr("fun (l : list) -> True").unwrap(),
            vec![Value::nat_list(&[1]), Value::nat_list(&[0, 0])],
        );
        let v_plus = vec![Value::nat_list(&[1])];
        let restored = cache.replay(&problem, &v_plus);
        assert_eq!(restored, vec![Value::nat_list(&[0, 0])]);
    }
}
