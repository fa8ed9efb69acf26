//! A ground-truth oracle for α-constructibility (Definition 3.1).
//!
//! A value `v` is α-constructible when some client program, given the module
//! operations, can produce `v` at the abstract type.  The inference algorithm
//! itself never needs the full set — it discovers constructible values lazily
//! through visible-inductiveness counterexamples — but tests and the
//! experiment harness use this oracle to check that inferred invariants
//! over-approximate the representations of the abstract type (Figure 2).
//!
//! The oracle saturates the set of constructible values by repeatedly
//! applying every module operation to already-known constructible values (for
//! abstract argument positions) and enumerated small values (for base-type
//! argument positions), up to configurable bounds.

use std::ops::ControlFlow;

use hanoi_lang::enumerate::ValueEnumerator;
use hanoi_lang::eval::Fuel;
use hanoi_lang::types::Type;
use hanoi_lang::util::{for_each_product, OrderedSet};
use hanoi_lang::value::Value;

use crate::problem::Problem;

/// Bounds for the constructibility saturation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConstructibleBounds {
    /// Maximum number of saturation rounds (module-operation applications
    /// are nested at most this deep).
    pub max_rounds: usize,
    /// Maximum size (in nodes) of base-type argument values supplied to
    /// operations.
    pub base_value_size: usize,
    /// Maximum number of base-type argument values tried per position.
    pub base_value_count: usize,
    /// Discard constructed values larger than this many nodes.
    pub max_value_size: usize,
    /// Stop once this many constructible values are known.
    pub max_values: usize,
}

impl Default for ConstructibleBounds {
    fn default() -> Self {
        ConstructibleBounds {
            max_rounds: 3,
            base_value_size: 5,
            base_value_count: 8,
            max_value_size: 30,
            max_values: 2000,
        }
    }
}

/// The constructibility oracle.
#[derive(Debug, Clone)]
pub struct ConstructibleOracle {
    values: OrderedSet<Value>,
    bounds: ConstructibleBounds,
}

impl ConstructibleOracle {
    /// Saturates the constructible set for `problem` under the given bounds.
    pub fn compute(problem: &Problem, bounds: ConstructibleBounds) -> Self {
        let mut values: OrderedSet<Value> = OrderedSet::new();
        let mut enumerator = ValueEnumerator::new(&problem.tyenv);
        let evaluator = problem.evaluator();

        for _round in 0..bounds.max_rounds {
            let mut added = 0usize;
            for op in problem.module.abstract_ops() {
                let (arg_sigs, result_sig) = op.sig.uncurry();
                if !result_sig.mentions_abstract() {
                    // Operations that only consume the abstract type cannot
                    // create new constructible values.
                    if !arg_sigs.is_empty() {
                        continue;
                    }
                }
                // Skip higher-order operations: applying them requires
                // synthesizing functional arguments, which the oracle does
                // not attempt (matching the paper's first-order theory).
                if arg_sigs.iter().any(|t| !t.is_zero_order()) {
                    continue;
                }
                // Build the candidate argument pools per position.
                let pools: Vec<Vec<Value>> = arg_sigs
                    .iter()
                    .map(|sig| {
                        if sig.mentions_abstract() {
                            values.iter().cloned().collect()
                        } else {
                            enumerator.first_values(
                                sig,
                                bounds.base_value_count,
                                bounds.base_value_size,
                            )
                        }
                    })
                    .collect();
                if pools.iter().any(|p| p.is_empty()) && !arg_sigs.is_empty() {
                    // `empty`-style constants have no pools; anything else
                    // with an empty pool cannot be applied this round.
                    if arg_sigs.iter().any(|t| t.mentions_abstract()) && values.is_empty() {
                        // First round: only constants can fire.
                    }
                    if pools.iter().any(|p| p.is_empty()) {
                        continue;
                    }
                }
                let mut results = Vec::new();
                let pools: Vec<&[Value]> = pools.iter().map(Vec::as_slice).collect();
                for_each_product(&pools, |args| {
                    let args: Vec<Value> = args.iter().copied().cloned().collect();
                    let mut fuel = Fuel::standard();
                    if let Ok(result) = evaluator.apply_many(op.value.clone(), &args, &mut fuel) {
                        results.push(result);
                    }
                    ControlFlow::Continue(())
                });
                if arg_sigs.is_empty() {
                    results.push(op.value.clone());
                }
                for result in results {
                    for projected in project_abstract(&result, result_sig, &problem.module.concrete)
                    {
                        if projected.size() <= bounds.max_value_size
                            && values.len() < bounds.max_values
                            && values.insert(projected)
                        {
                            added += 1;
                        }
                    }
                }
            }
            if added == 0 || values.len() >= bounds.max_values {
                break;
            }
        }
        ConstructibleOracle { values, bounds }
    }

    /// Saturates the constructible set with default bounds.
    pub fn compute_default(problem: &Problem) -> Self {
        Self::compute(problem, ConstructibleBounds::default())
    }

    /// The known constructible values, in discovery order.
    pub fn values(&self) -> &[Value] {
        self.values.as_slice()
    }

    /// `true` if `value` is known to be constructible (within bounds).
    pub fn contains(&self, value: &Value) -> bool {
        self.values.contains(value)
    }

    /// The bounds this oracle was computed with.
    pub fn bounds(&self) -> ConstructibleBounds {
        self.bounds
    }
}

/// Extracts the abstract-type components of an operation result, guided by
/// the result's interface signature: a result of type `t` is itself
/// constructible, a pair containing `t` contributes its components, a result
/// not mentioning `t` contributes nothing.
fn project_abstract(value: &Value, sig: &Type, _concrete: &Type) -> Vec<Value> {
    match sig {
        Type::Abstract => vec![value.clone()],
        Type::Tuple(sigs) => match value {
            Value::Tuple(items) if items.len() == sigs.len() => sigs
                .iter()
                .zip(items.iter())
                .flat_map(|(s, v)| project_abstract(v, s, _concrete))
                .collect(),
            _ => Vec::new(),
        },
        Type::Named(_) => {
            // A named type may still *contain* the abstract type only via
            // declarations, which the surface language does not allow (data
            // declarations cannot mention `t`), so nothing to extract.
            Vec::new()
        }
        Type::Arrow(_, _) => Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn empty_and_inserted_sets_are_constructible() {
        let problem = Problem::from_source(LIST_SET).unwrap();
        let oracle = ConstructibleOracle::compute_default(&problem);
        assert!(oracle.contains(&Value::nat_list(&[])));
        assert!(oracle.contains(&Value::nat_list(&[0])));
        assert!(oracle.contains(&Value::nat_list(&[1])));
        // insert 0 then 1 gives [1; 0]
        assert!(oracle.contains(&Value::nat_list(&[1, 0])));
        assert!(oracle.values().len() > 5);
    }

    #[test]
    fn duplicate_lists_are_not_constructible() {
        let problem = Problem::from_source(LIST_SET).unwrap();
        let oracle = ConstructibleOracle::compute_default(&problem);
        // The ListSet module never builds a list with duplicates.
        assert!(!oracle.contains(&Value::nat_list(&[1, 1])));
        for v in oracle.values() {
            let items: Vec<u64> = v
                .as_list()
                .unwrap()
                .iter()
                .map(|x| x.as_nat().unwrap())
                .collect();
            let mut dedup = items.clone();
            dedup.sort_unstable();
            dedup.dedup();
            assert_eq!(
                dedup.len(),
                items.len(),
                "constructible value {v} has duplicates"
            );
        }
    }

    #[test]
    fn bounds_are_respected() {
        let problem = Problem::from_source(LIST_SET).unwrap();
        let bounds = ConstructibleBounds {
            max_values: 5,
            ..ConstructibleBounds::default()
        };
        let oracle = ConstructibleOracle::compute(&problem, bounds);
        assert!(oracle.values().len() <= 5);
        assert_eq!(oracle.bounds().max_values, 5);
    }
}
