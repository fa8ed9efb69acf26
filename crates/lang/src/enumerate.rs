//! Size-ordered enumeration of first-order values.
//!
//! The paper's verifier (§4.3) "test\[s\] the predicate on data structures,
//! from smallest to largest, until either 3000 data structures have been
//! processed, or the data structure has over 30 AST nodes".  This module
//! provides exactly that stream: all values of a 0-order type, grouped and
//! ordered by their node count, with memoisation so repeated sweeps (one per
//! verification call, of which a run makes dozens) are cheap.

use std::collections::HashMap;
use std::ops::ControlFlow;
use std::sync::Arc;

use crate::symbol::Symbol;
use crate::types::{Type, TypeEnv};
use crate::util::{compositions, for_each_product};
use crate::value::{Slab, Value};

/// A memoising enumerator of first-order values by size.
#[derive(Debug, Clone)]
pub struct ValueEnumerator<'a> {
    tyenv: &'a TypeEnv,
    cache: HashMap<(Type, usize), Arc<Vec<Value>>>,
}

impl<'a> ValueEnumerator<'a> {
    /// Creates an enumerator over the given data type environment.
    pub fn new(tyenv: &'a TypeEnv) -> Self {
        ValueEnumerator {
            tyenv,
            cache: HashMap::new(),
        }
    }

    /// All values of `ty` with exactly `size` constructor/tuple nodes.
    ///
    /// Function types and the abstract type have no enumerable values and
    /// yield an empty list.
    pub fn values_of_size(&mut self, ty: &Type, size: usize) -> Arc<Vec<Value>> {
        if size == 0 {
            return Arc::new(Vec::new());
        }
        let key = (ty.clone(), size);
        if let Some(cached) = self.cache.get(&key) {
            return cached.clone();
        }
        let result = Arc::new(self.compute(ty, size));
        self.cache.insert(key, result.clone());
        result
    }

    fn compute(&mut self, ty: &Type, size: usize) -> Vec<Value> {
        match ty {
            Type::Abstract | Type::Arrow(_, _) => Vec::new(),
            // The builtin `int` is not a declared ADT; its size measure is
            // `1 + |i|`, so exactly the magnitudes ±(size-1) fit each slot
            // (positive first for a deterministic order, one value at size 1).
            Type::Named(name) if name.as_str() == crate::types::INT_TYPE_NAME => {
                let magnitude = (size - 1) as i64;
                if magnitude == 0 {
                    vec![Value::Int(0)]
                } else {
                    vec![Value::Int(magnitude), Value::Int(-magnitude)]
                }
            }
            Type::Named(name) => self.compute_named(name, size),
            Type::Tuple(elems) => {
                if elems.is_empty() {
                    if size == 1 {
                        vec![Value::unit()]
                    } else {
                        Vec::new()
                    }
                } else {
                    let mut out = Vec::new();
                    for split in compositions(size - 1, elems.len()).iter() {
                        let groups: Vec<Arc<Vec<Value>>> = elems
                            .iter()
                            .zip(split)
                            .map(|(t, &s)| self.values_of_size(t, s))
                            .collect();
                        let groups: Vec<&[Value]> = groups.iter().map(|g| g.as_slice()).collect();
                        for_each_product(&groups, |items| {
                            out.push(Value::Tuple(items.iter().copied().cloned().collect()));
                            ControlFlow::Continue(())
                        });
                    }
                    out
                }
            }
        }
    }

    fn compute_named(&mut self, name: &Symbol, size: usize) -> Vec<Value> {
        let Some(decl) = self.tyenv.lookup(name) else {
            return Vec::new();
        };
        let ctors: Vec<(Symbol, Vec<Type>)> = decl
            .ctors
            .iter()
            .map(|c| (c.name, c.args.clone()))
            .collect();
        let mut out = Vec::new();
        for (ctor, args) in ctors {
            if args.is_empty() {
                if size == 1 {
                    out.push(Value::Ctor(ctor, Slab::EMPTY));
                }
                continue;
            }
            if size < 1 + args.len() {
                continue;
            }
            for split in compositions(size - 1, args.len()).iter() {
                let groups: Vec<Arc<Vec<Value>>> = args
                    .iter()
                    .zip(split)
                    .map(|(t, &s)| self.values_of_size(t, s))
                    .collect();
                let groups: Vec<&[Value]> = groups.iter().map(|g| g.as_slice()).collect();
                for_each_product(&groups, |items| {
                    out.push(Value::Ctor(ctor, items.iter().copied().cloned().collect()));
                    ControlFlow::Continue(())
                });
            }
        }
        out
    }

    /// Seeds the memo table with an externally computed slab — all values of
    /// `ty` with exactly `size` nodes, in this enumerator's canonical order.
    /// Callers that cache slabs across enumerator instances (the verifier's
    /// pool cache) use this so a fresh enumerator does not recompute sizes
    /// that are already known.
    pub fn seed(&mut self, ty: &Type, size: usize, slab: Arc<Vec<Value>>) {
        self.cache.insert((ty.clone(), size), slab);
    }

    /// All values of `ty` with at most `max_size` nodes, smallest first
    /// (values of equal size are in a deterministic constructor-declaration
    /// order).
    pub fn values_up_to(&mut self, ty: &Type, max_size: usize) -> Vec<Value> {
        let mut out = Vec::new();
        for size in 1..=max_size {
            out.extend(self.values_of_size(ty, size).iter().cloned());
        }
        out
    }

    /// The first `max_count` values of `ty` in size order, never exceeding
    /// `max_size` nodes — the exact stream the paper's bounded verifier
    /// consumes.
    pub fn first_values(&mut self, ty: &Type, max_count: usize, max_size: usize) -> Vec<Value> {
        let mut out = Vec::new();
        for size in 1..=max_size {
            if out.len() >= max_count {
                break;
            }
            for v in self.values_of_size(ty, size).iter() {
                if out.len() >= max_count {
                    break;
                }
                out.push(v.clone());
            }
        }
        out
    }

    /// Number of values of `ty` with at most `max_size` nodes.
    pub fn count_up_to(&mut self, ty: &Type, max_size: usize) -> usize {
        (1..=max_size)
            .map(|s| self.values_of_size(ty, s).len())
            .sum()
    }

    /// The data type environment this enumerator reads from.
    pub fn tyenv(&self) -> &'a TypeEnv {
        self.tyenv
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{CtorDecl, DataDecl};

    fn tyenv() -> TypeEnv {
        let mut env = TypeEnv::new();
        env.declare(DataDecl::new(
            "nat",
            vec![
                CtorDecl::new("O", vec![]),
                CtorDecl::new("S", vec![Type::named("nat")]),
            ],
        ))
        .unwrap();
        env.declare(DataDecl::new(
            "list",
            vec![
                CtorDecl::new("Nil", vec![]),
                CtorDecl::new("Cons", vec![Type::named("nat"), Type::named("list")]),
            ],
        ))
        .unwrap();
        env.declare(DataDecl::new(
            "tree",
            vec![
                CtorDecl::new("Leaf", vec![]),
                CtorDecl::new(
                    "Node",
                    vec![Type::named("tree"), Type::named("nat"), Type::named("tree")],
                ),
            ],
        ))
        .unwrap();
        env
    }

    #[test]
    fn nat_enumeration_is_one_per_size() {
        let env = tyenv();
        let mut en = ValueEnumerator::new(&env);
        for size in 1..=10 {
            let vals = en.values_of_size(&Type::named("nat"), size);
            assert_eq!(vals.len(), 1, "size {size}");
            assert_eq!(vals[0].as_nat(), Some((size - 1) as u64));
        }
    }

    #[test]
    fn bool_enumeration() {
        let env = tyenv();
        let mut en = ValueEnumerator::new(&env);
        let vals = en.values_of_size(&Type::bool(), 1);
        assert_eq!(vals.len(), 2);
        assert!(en.values_of_size(&Type::bool(), 2).is_empty());
    }

    #[test]
    fn list_counts_match_closed_form() {
        // Lists of nats: a list [n1, ..., nk] has size 1 + sum(1 + (ni+1)).
        // The number of lists with total size s equals the number of
        // compositions, which we cross-check against a direct recurrence.
        let env = tyenv();
        let mut en = ValueEnumerator::new(&env);
        // count lists by brute-force recurrence: L(1) = 1 (Nil);
        // L(s) = sum_{nat size k >= 1, k <= s-2} 1 * L(s-1-k)
        let mut expected = [0usize; 21];
        expected[1] = 1;
        for s in 2..=20usize {
            let mut total = 0;
            for k in 1..=s.saturating_sub(2) {
                total += expected[s - 1 - k];
            }
            expected[s] = total;
        }
        for (s, &expected_count) in expected.iter().enumerate().take(21).skip(1) {
            assert_eq!(
                en.values_of_size(&Type::named("list"), s).len(),
                expected_count,
                "size {s}"
            );
        }
    }

    #[test]
    fn all_enumerated_values_have_the_requested_size() {
        let env = tyenv();
        let mut en = ValueEnumerator::new(&env);
        for ty in [
            Type::named("list"),
            Type::named("tree"),
            Type::pair(Type::named("nat"), Type::bool()),
        ] {
            for size in 1..=8 {
                for v in en.values_of_size(&ty, size).iter() {
                    assert_eq!(v.size(), size, "type {ty}, value {v}");
                }
            }
        }
    }

    #[test]
    fn enumeration_has_no_duplicates() {
        use std::collections::HashSet;
        let env = tyenv();
        let mut en = ValueEnumerator::new(&env);
        let all = en.values_up_to(&Type::named("tree"), 9);
        let set: HashSet<&Value> = all.iter().collect();
        assert_eq!(set.len(), all.len());
    }

    #[test]
    fn first_values_respects_count_and_order() {
        let env = tyenv();
        let mut en = ValueEnumerator::new(&env);
        let vals = en.first_values(&Type::named("list"), 10, 30);
        assert_eq!(vals.len(), 10);
        // Sizes must be non-decreasing.
        for pair in vals.windows(2) {
            assert!(pair[0].size() <= pair[1].size());
        }
        assert_eq!(vals[0], Value::nat_list(&[]));
    }

    #[test]
    fn int_enumeration_sweeps_magnitudes() {
        let env = tyenv();
        let mut en = ValueEnumerator::new(&env);
        assert_eq!(*en.values_of_size(&Type::int(), 1), vec![Value::Int(0)]);
        assert_eq!(
            *en.values_of_size(&Type::int(), 4),
            vec![Value::Int(3), Value::Int(-3)]
        );
        // The size invariant holds for ints and int-bearing tuples too.
        let pair = Type::pair(Type::int(), Type::int());
        for size in 1..=8 {
            for v in en.values_of_size(&pair, size).iter() {
                assert_eq!(v.size(), size, "value {v}");
            }
        }
        // Pool sweep order: first_values covers small magnitudes first.
        let first = en.first_values(&Type::int(), 5, 30);
        assert_eq!(
            first,
            vec![
                Value::Int(0),
                Value::Int(1),
                Value::Int(-1),
                Value::Int(2),
                Value::Int(-2)
            ]
        );
    }

    #[test]
    fn functions_and_abstract_are_not_enumerable() {
        let env = tyenv();
        let mut en = ValueEnumerator::new(&env);
        assert!(en
            .values_of_size(&Type::arrow(Type::bool(), Type::bool()), 3)
            .is_empty());
        assert!(en.values_of_size(&Type::Abstract, 1).is_empty());
    }

    #[test]
    fn tuple_enumeration() {
        let env = tyenv();
        let mut en = ValueEnumerator::new(&env);
        let ty = Type::pair(Type::bool(), Type::bool());
        let vals = en.values_of_size(&ty, 3);
        assert_eq!(vals.len(), 4);
        assert!(en.values_of_size(&Type::unit(), 1).len() == 1);
    }

    #[test]
    fn compositions_are_correct() {
        // The size splits this module draws from the shared helper.
        assert_eq!(*compositions(3, 1), vec![vec![3]]);
        assert_eq!(*compositions(3, 2), vec![vec![1, 2], vec![2, 1]]);
        assert_eq!(compositions(4, 3).len(), 3);
        assert!(compositions(2, 3).is_empty());
    }

    #[test]
    fn count_up_to_consistent_with_values_up_to() {
        let env = tyenv();
        let mut en = ValueEnumerator::new(&env);
        assert_eq!(
            en.count_up_to(&Type::named("tree"), 9),
            en.values_up_to(&Type::named("tree"), 9).len()
        );
    }
}
