//! Synthesis-result caching (§4.4).
//!
//! Myth-style synthesis often (re)discovers the same candidate invariants
//! across CEGIS iterations.  The paper's optimization stores every candidate
//! ever synthesized; before calling the synthesizer again, the driver first
//! checks whether a cached candidate is already consistent with the current
//! example sets and reuses it if so, skipping the synthesis call entirely.

use hanoi_abstraction::Problem;
use hanoi_lang::ast::Expr;
use hanoi_lang::eval::Fuel;

use crate::examples::ExampleSet;

/// A store of previously synthesized candidate invariants.
///
/// Candidates are slot-resolved once at insertion, not once per consistency
/// probe against the growing example sets.
#[derive(Debug, Clone, Default)]
pub struct SynthesisCache {
    candidates: Vec<Expr>,
    /// Slot-resolved twin of each candidate, index-parallel to `candidates`.
    resolved: Vec<Expr>,
    hits: usize,
    misses: usize,
}

impl SynthesisCache {
    /// An empty cache.
    pub fn new() -> Self {
        SynthesisCache::default()
    }

    /// Records a candidate (deduplicated syntactically).
    pub fn insert(&mut self, candidate: Expr) {
        if !self.candidates.contains(&candidate) {
            self.resolved.push(hanoi_lang::resolve::resolve(&candidate));
            self.candidates.push(candidate);
        }
    }

    /// Returns the first cached candidate consistent with `examples`, if any,
    /// and updates the hit/miss counters.
    pub fn find_consistent(&mut self, problem: &Problem, examples: &ExampleSet) -> Option<Expr> {
        let labeled = examples.labeled();
        let found = self
            .candidates
            .iter()
            .zip(&self.resolved)
            .find(|(_, resolved)| {
                labeled.iter().all(|(value, expected)| {
                    problem
                        .eval_predicate_resolved_with_fuel(resolved, value, &mut Fuel::standard())
                        .map(|actual| actual == *expected)
                        .unwrap_or(false)
                })
            })
            .map(|(candidate, _)| candidate.clone());
        if found.is_some() {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
        found
    }

    /// Number of stored candidates.
    pub fn len(&self) -> usize {
        self.candidates.len()
    }

    /// `true` when no candidate is stored.
    pub fn is_empty(&self) -> bool {
        self.candidates.is_empty()
    }

    /// Number of successful lookups so far.
    pub fn hits(&self) -> usize {
        self.hits
    }

    /// Number of failed lookups so far.
    pub fn misses(&self) -> usize {
        self.misses
    }

    /// The stored candidates, oldest first.
    pub fn candidates(&self) -> &[Expr] {
        &self.candidates
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hanoi_lang::parser::parse_expr;
    use hanoi_lang::value::Value;

    const SIMPLE: &str = r#"
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
    fn caches_and_reuses_consistent_candidates() {
        let problem = Problem::from_source(SIMPLE).unwrap();
        let mut cache = SynthesisCache::new();
        assert!(cache.is_empty());

        let trivially_true = parse_expr("fun (l : list) -> True").unwrap();
        let no_zero = parse_expr("fun (l : list) -> not (lookup l 0)").unwrap();
        cache.insert(trivially_true.clone());
        cache.insert(no_zero.clone());
        cache.insert(no_zero.clone());
        assert_eq!(cache.len(), 2);

        // With no examples, the first cached candidate works.
        let found = cache.find_consistent(&problem, &ExampleSet::new()).unwrap();
        assert_eq!(found, trivially_true);

        // With [0] as a negative example, only `no_zero` is consistent.
        let examples =
            ExampleSet::from_sets([Value::nat_list(&[1])], [Value::nat_list(&[0])]).unwrap();
        let found = cache.find_consistent(&problem, &examples).unwrap();
        assert_eq!(found, no_zero);

        // With [1] negative too, nothing in the cache works.
        let examples =
            ExampleSet::from_sets([], [Value::nat_list(&[0]), Value::nat_list(&[1])]).unwrap();
        assert!(cache.find_consistent(&problem, &examples).is_none());
        assert_eq!(cache.hits(), 2);
        assert_eq!(cache.misses(), 1);
    }
}
