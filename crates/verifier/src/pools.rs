//! Shared helpers for the verifier's quantifier instantiation: compiled
//! predicates, value pools and capped cartesian products.

use std::ops::ControlFlow;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use hanoi_abstraction::Problem;
use hanoi_lang::ast::Expr;
use hanoi_lang::enumerate::ValueEnumerator;
use hanoi_lang::eval::Fuel;
use hanoi_lang::resolve::resolve;
use hanoi_lang::types::Type;
use hanoi_lang::value::Value;

use crate::bounds::Deadline;
use crate::outcome::VerifierError;

/// A candidate predicate (`τc -> bool`) evaluated once to a closure so that
/// repeated tests only pay for one application each.
///
/// Compilation runs the slot-resolution pass
/// ([`hanoi_lang::resolve::resolve`]) over the predicate once, not once per
/// test.
#[derive(Debug, Clone)]
pub struct CompiledPredicate<'p> {
    problem: &'p Problem,
    closure: Value,
    fuel: u64,
    evals: Option<Arc<AtomicU64>>,
}

impl<'p> CompiledPredicate<'p> {
    /// Evaluates `predicate` (an expression closed over the problem's
    /// globals) to a function value, slot-resolving it first.
    pub fn compile(
        problem: &'p Problem,
        predicate: &Expr,
        fuel: u64,
    ) -> Result<Self, VerifierError> {
        let resolved = resolve(predicate);
        let closure = problem
            .evaluator()
            .eval_resolved(&problem.globals, &resolved, &mut Fuel::new(fuel))
            .map_err(VerifierError::Eval)?;
        Ok(CompiledPredicate {
            problem,
            closure,
            fuel,
            evals: None,
        })
    }

    /// Wires the predicate to a shared evaluation counter (typically
    /// [`crate::poolcache::PoolCache::eval_counter`]); every subsequent
    /// [`CompiledPredicate::test`] increments it.
    pub fn with_eval_counter(mut self, counter: Arc<AtomicU64>) -> Self {
        self.evals = Some(counter);
        self
    }

    /// Tests the predicate on one value.  Any evaluation failure (divergence
    /// of a synthesized candidate, a match failure, …) counts as `false`,
    /// matching the paper's treatment of misbehaving candidates.
    pub fn test(&self, value: &Value) -> bool {
        if let Some(counter) = &self.evals {
            counter.fetch_add(1, Ordering::Relaxed);
        }
        let mut fuel = Fuel::new(self.fuel);
        self.problem
            .evaluator()
            .apply_pred(&self.closure, value, &mut fuel)
            .unwrap_or(false)
    }
}

/// The smallest `count` values of `ty`, no larger than `size` nodes.
pub fn enumerate_values(problem: &Problem, ty: &Type, count: usize, size: usize) -> Vec<Value> {
    let mut enumerator = ValueEnumerator::new(&problem.tyenv);
    enumerator.first_values(ty, count, size)
}

/// Number of tuples [`search_product`] will visit: the size of the cartesian
/// product of `pools`, capped at `cap`.
pub fn product_len<T>(pools: &[Vec<T>], cap: usize) -> usize {
    let mut total = 1usize;
    for pool in pools {
        total = total.saturating_mul(pool.len());
    }
    total.min(cap)
}

/// Decodes a flat index into one tuple of the cartesian product of `pools`,
/// written to `tuple` (one slot per pool).
///
/// This is the single definition of the verifier's tuple visit order:
/// [`search_product`] tests flat indices `0..product_len` in ascending
/// order, so `decode_tuple(pools, k, _)` writes the `k`-th tuple visited.
/// The order is lexicographic, with the last pool varying fastest.
pub fn decode_tuple<'a, T>(pools: &'a [Vec<T>], mut flat: usize, tuple: &mut [&'a T]) {
    debug_assert_eq!(tuple.len(), pools.len());
    for (slot, pool) in tuple.iter_mut().zip(pools).rev() {
        *slot = &pool[flat % pool.len()];
        flat /= pool.len();
    }
}

/// Searches the (capped) cartesian product of `pools`, in
/// [`decode_tuple`] order, for the first tuple on which `visit` breaks,
/// distributing tuples over `workers` threads.  The deadline is polled
/// every 256 flat indices; an expired one ends the search with
/// [`VerifierError::Timeout`].
///
/// Serial-equivalent by construction: whatever thread breaks first, the
/// reported break is always the one at the least flat index (see
/// [`hanoi_lang::parallel::find_first`]), so callers observe exactly the
/// counterexample a `workers = 1` run would report.  `visit` must therefore
/// be a pure function of the tuple.
pub fn search_product<'a, T, R>(
    pools: &'a [Vec<T>],
    cap: usize,
    workers: usize,
    deadline: &Deadline,
    visit: impl Fn(&[&'a T]) -> ControlFlow<R> + Sync,
) -> Result<Option<R>, VerifierError>
where
    T: Sync,
    R: Send,
{
    let len = product_len(pools, cap);
    hanoi_lang::parallel::find_first(len, workers, PRODUCT_CHUNK, |flat| {
        if flat.is_multiple_of(DEADLINE_POLL) && deadline.expired() {
            return Err(VerifierError::Timeout);
        }
        Ok(with_tuple(pools, flat, &visit).break_value())
    })
}

/// Tuples of at most this many positions are decoded into a buffer on the
/// host stack; wider ones into a `Vec`.
const INLINE_TUPLE: usize = 8;

/// Calls `visit` on the tuple at `flat` (which must be below
/// [`product_len`], so that every pool is non-empty).
fn with_tuple<'a, T, R>(pools: &'a [Vec<T>], flat: usize, visit: impl FnOnce(&[&'a T]) -> R) -> R {
    let Some(first) = pools.first().map(|pool| &pool[0]) else {
        return visit(&[]);
    };
    if pools.len() <= INLINE_TUPLE {
        let mut buffer = [first; INLINE_TUPLE];
        let tuple = &mut buffer[..pools.len()];
        decode_tuple(pools, flat, tuple);
        visit(tuple)
    } else {
        let mut tuple = vec![first; pools.len()];
        decode_tuple(pools, flat, &mut tuple);
        visit(&tuple)
    }
}

/// How often (in flat indices) [`search_product`] polls its deadline.
const DEADLINE_POLL: usize = 256;

/// Chunk size for parallel product search: large enough to amortize the
/// claim, small enough that the short-circuit cutoff stays tight (a tuple
/// evaluation runs the interpreter, so chunks are already milliseconds).
const PRODUCT_CHUNK: usize = 64;

/// Collects the abstract-type components of a first-order value, guided by
/// its interface-level type — the `{|v|}σ` function of Figure 3.
pub fn collect_abstract(value: &Value, sig: &Type) -> Vec<Value> {
    abstract_parts(value, sig).into_iter().cloned().collect()
}

/// [`collect_abstract`] without the clones: the components, borrowed from
/// `value`.
pub fn abstract_parts<'v>(value: &'v Value, sig: &Type) -> Vec<&'v Value> {
    match sig {
        Type::Abstract => vec![value],
        Type::Tuple(sigs) => match value {
            Value::Tuple(items) if items.len() == sigs.len() => sigs
                .iter()
                .zip(items.iter())
                .flat_map(|(s, v)| abstract_parts(v, s))
                .collect(),
            _ => Vec::new(),
        },
        Type::Named(_) | Type::Arrow(_, _) => Vec::new(),
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
    fn compiled_predicates_test_values() {
        let problem = Problem::from_source(LIST_SET).unwrap();
        let pred = parse_expr("fun (l : list) -> not (lookup l 0)").unwrap();
        let compiled = CompiledPredicate::compile(&problem, &pred, 100_000).unwrap();
        assert!(compiled.test(&Value::nat_list(&[1, 2])));
        assert!(!compiled.test(&Value::nat_list(&[0])));
    }

    #[test]
    fn predicate_evaluation_errors_count_as_false() {
        let problem = Problem::from_source(LIST_SET).unwrap();
        // A predicate that diverges on every input.
        let pred = parse_expr("fix loop (l : list) : bool = loop l").unwrap();
        let compiled = CompiledPredicate::compile(&problem, &pred, 10_000).unwrap();
        assert!(!compiled.test(&Value::nat_list(&[])));
    }

    #[test]
    fn enumerate_values_orders_by_size() {
        let problem = Problem::from_source(LIST_SET).unwrap();
        let values = enumerate_values(&problem, &Type::named("list"), 20, 30);
        assert_eq!(values.len(), 20);
        assert!(values.windows(2).all(|w| w[0].size() <= w[1].size()));
    }

    /// Every tuple serial `search_product` visits, in visit order.
    fn visited<T: Copy + Send + Sync>(pools: &[Vec<T>], cap: usize) -> Vec<Vec<T>> {
        let seen = std::sync::Mutex::new(Vec::new());
        let found: Option<()> = search_product(pools, cap, 1, &Deadline::none(), |tuple| {
            seen.lock()
                .unwrap()
                .push(tuple.iter().map(|&&x| x).collect());
            ControlFlow::Continue(())
        })
        .unwrap();
        assert_eq!(found, None);
        seen.into_inner().unwrap()
    }

    /// The bounded product search (`search_product`) visits tuples
    /// lexicographically, last pool fastest, and stops at the cap.
    #[test]
    fn bounded_product_visits_in_order_and_respects_cap() {
        let pools = vec![vec![1, 2, 3], vec![10, 20]];
        let seen = visited(&pools, 100);
        assert_eq!(seen.len(), 6);
        assert_eq!(seen[0], vec![1, 10]);
        assert_eq!(seen[1], vec![1, 20]);
        assert_eq!(seen[5], vec![3, 20]);
        assert_eq!(visited(&pools, 4), seen[..4].to_vec());
        // Tuples wider than the inline buffer visit in the same order.
        let wide: Vec<Vec<u8>> = (0..INLINE_TUPLE + 1).map(|_| vec![0, 1]).collect();
        let binary = |n: usize| -> Vec<u8> {
            (0..wide.len())
                .rev()
                .map(|bit| (n >> bit & 1) as u8)
                .collect()
        };
        assert_eq!(visited(&wide, 3), (0..3).map(binary).collect::<Vec<_>>());
    }

    /// `decode_tuple(pools, k, _)` writes the `k`-th tuple the bounded product
    /// search (`search_product`) visits.
    #[test]
    fn decode_tuple_matches_bounded_product_order() {
        let pools = vec![vec![1, 2, 3], vec![10, 20], vec![100, 200]];
        let mut lexicographic = Vec::new();
        for &a in &pools[0] {
            for &b in &pools[1] {
                for &c in &pools[2] {
                    lexicographic.push(vec![a, b, c]);
                }
            }
        }
        assert_eq!(lexicographic.len(), product_len(&pools, 1000));
        assert_eq!(visited(&pools, 1000), lexicographic);
        for (flat, expected) in lexicographic.iter().enumerate() {
            let mut tuple = [&0; 3];
            decode_tuple(&pools, flat, &mut tuple);
            let decoded: Vec<i32> = tuple.into_iter().copied().collect();
            assert_eq!(&decoded, expected, "flat index {flat}");
        }
    }

    #[test]
    fn search_product_breaks_early() {
        let pools = vec![vec![1, 2, 3]];
        let tested = AtomicU64::new(0);
        let found = search_product(&pools, 100, 1, &Deadline::none(), |tuple| {
            tested.fetch_add(1, Ordering::Relaxed);
            if *tuple[0] == 2 {
                ControlFlow::Break(*tuple[0])
            } else {
                ControlFlow::Continue(())
            }
        });
        assert_eq!(found, Ok(Some(2)));
        assert_eq!(tested.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn search_product_visits_no_tuple_with_an_empty_pool_and_one_with_no_pools() {
        let pools: Vec<Vec<i32>> = vec![vec![1, 2], vec![]];
        assert_eq!(visited(&pools, 10), Vec::<Vec<i32>>::new());
        // A zero-arity product (a module constant such as `empty`) still has
        // one tuple; skipping it would let `False` pass every check.
        let none: Vec<Vec<i32>> = Vec::new();
        assert_eq!(visited(&none, 10), vec![Vec::<i32>::new()]);
    }

    #[test]
    fn search_product_is_serial_equivalent() {
        // The first tuple whose components sum above a threshold; parallel
        // search must find the same (lexicographically least) one as serial.
        let pools = vec![
            (0..7).collect::<Vec<i64>>(),
            (0..9).collect(),
            (0..5).collect(),
        ];
        let first_above = |threshold: i64, workers: usize| -> Option<Vec<i64>> {
            search_product(&pools, 10_000, workers, &Deadline::none(), |tuple| {
                let sum: i64 = tuple.iter().copied().sum();
                if sum >= threshold {
                    ControlFlow::Break(tuple.iter().map(|&&x| x).collect())
                } else {
                    ControlFlow::Continue(())
                }
            })
            .unwrap()
        };
        for threshold in [3i64, 9, 14, 100] {
            let serial = first_above(threshold, 1);
            for workers in [2, 4, 8] {
                assert_eq!(
                    first_above(threshold, workers),
                    serial,
                    "threshold={threshold} workers={workers}"
                );
            }
        }
    }

    #[test]
    fn search_product_respects_the_cap() {
        use std::sync::atomic::AtomicUsize;
        let pools = vec![(0..100).collect::<Vec<i32>>(), (0..100).collect()];
        for workers in [1, 4] {
            let visited = AtomicUsize::new(0);
            let found: Option<()> = search_product(&pools, 37, workers, &Deadline::none(), |_| {
                visited.fetch_add(1, Ordering::Relaxed);
                ControlFlow::Continue(())
            })
            .unwrap();
            assert_eq!(found, None);
            assert_eq!(visited.load(Ordering::Relaxed), 37, "workers={workers}");
        }
    }

    #[test]
    fn collect_abstract_follows_the_signature() {
        let v = Value::pair(Value::nat_list(&[1]), Value::nat(3));
        let sig = Type::pair(Type::Abstract, Type::named("nat"));
        assert_eq!(collect_abstract(&v, &sig), vec![Value::nat_list(&[1])]);
        assert_eq!(
            collect_abstract(&v, &Type::named("nat")),
            Vec::<Value>::new()
        );
        assert_eq!(
            collect_abstract(&Value::nat_list(&[2]), &Type::Abstract),
            vec![Value::nat_list(&[2])]
        );
    }
}
