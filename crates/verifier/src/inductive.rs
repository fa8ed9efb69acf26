//! The conditional-inductiveness checker (`CondInductive P Q`, Figure 3).
//!
//! The verifier's `Check` value picks `P` and the operations: visible
//! inductiveness (`Visible(V+)`) conditions on the known-constructible set
//! `V+`, full inductiveness (`Full`) on the candidate itself, and `Op(name)`
//! is full inductiveness of one operation only (the LinearArbitrary
//! baseline, §5.5, checks operations one at a time).
//!
//! The relation `vm : τm ▶P_Q` is checked one module operation at a time
//! (the operations are the components of the product `τm`, so rule I-Prod
//! reduces the check to its per-operation form).  For an operation of type
//! `σ1 -> … -> σk -> ρ`:
//!
//! * argument positions of abstract type draw their values from the
//!   *conditioning pool* `P` — the set `V+` for visible inductiveness, or
//!   the enumerated values satisfying the candidate otherwise (rule I-Fun's
//!   contravariant premise);
//! * argument positions of base type are enumerated from smallest to largest;
//! * argument positions of function type are filled with enumerated lambda
//!   terms; if their type mentions the abstract type they are wrapped in a
//!   logging contract (§4.2) so boundary crossings are observed;
//! * the result (and any module-supplied value logged by a contract) is
//!   checked against `Q` (rule I-A); a violation yields the counterexample
//!   `⟨S, V⟩` where `S` collects the abstract-type inputs (`{|·|}σ`, plus
//!   client-supplied contract values) and `V` the violating outputs.
//!
//! Under full and per-operation inductiveness `P` and `Q` are the same
//! candidate, and one check tests it on the same values again and again:
//! every operation filters the same enumerated pools, and most operation
//! results are themselves small pool values.  A verdict table therefore keeps the
//! candidate's verdict on every value the pool filter tests (the abstract
//! parts of each pool value, evaluated once per check, not once per
//! operation).  Operation results, module-supplied and client-supplied
//! contract values are looked up in it first; a value outside it is
//! evaluated as usual and not stored, so the table never outgrows the
//! pools.  [`CompiledPredicate::test`] runs each test on fresh fuel, so a
//! verdict depends on the value alone and a stored one equals a re-run.
//! The table lives for one check only: it is never persisted and never
//! shared across candidates.
//!
//! A candidate that is literally `fun (x : τ) -> True` needs no sweep at
//! all: under rule I-A a check fails only when a produced value violates
//! `Q`, and client-supplied values only decide which tuples count, so with
//! `Q ≡ True` every check — visible, full or per-operation — is `Valid`.

use std::collections::{HashMap, HashSet};
use std::hash::Hasher;
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use hanoi_abstraction::contract::{instrument_function, BoundaryLog};
use hanoi_lang::ast::Expr;
use hanoi_lang::eval::Fuel;
use hanoi_lang::parallel::{par_map, par_retain};
use hanoi_lang::symbol::Symbol;
use hanoi_lang::types::Type;
use hanoi_lang::util::{IdHashBuilder, IdHasher};
use hanoi_lang::value::Value;

use crate::hof::FunctionCandidate;
use crate::outcome::{InductivenessCex, InductivenessOutcome, VerifierError};
use crate::pools::{abstract_parts, collect_abstract, search_product, CompiledPredicate};
use crate::verifier::{Check, Verifier};

/// One choice for one argument position, borrowed from a cached pool (or
/// from the caller's `V+` slice).
enum Choice<'a> {
    Val(&'a Value),
    Fun(&'a FunctionCandidate),
}

/// Where one argument position draws its values from; holds the cached pool
/// `Arc`s alive while the per-candidate choice lists borrow from them.
enum Source<'a> {
    /// The caller's known-constructible set, used verbatim.
    Known(&'a [Value]),
    /// A cached value pool; `filter` says whether it must be narrowed to the
    /// values satisfying `P` for this candidate.
    Values(Arc<Vec<Value>>, bool),
    /// A cached pool of enumerated functional arguments.
    Functions(Arc<Vec<FunctionCandidate>>),
}

/// How one check decides `P`.
enum Condition<'a, 'q> {
    /// Membership in the caller's known-constructible set (`V+`).
    Known(HashSet<&'a Value>),
    /// The candidate itself, with its verdicts on pool values kept for the
    /// rest of the check.
    Satisfying(VerdictTable<'q>),
}

/// The verdicts of one candidate on the pool values of one
/// full-inductiveness check (see the module docs).  It is only probed,
/// never iterated, so its keys may hash by symbol address.
struct VerdictTable<'q> {
    q: &'q CompiledPredicate<'q>,
    /// The values the pool filter tested, one list per filtered pool: the
    /// cached pool itself, or the abstract parts of its tuples.  Entries
    /// point into these lists instead of holding a copy of each value.
    tested: Vec<Arc<Vec<Value>>>,
    /// Keyed by [`address_hash`].  Of two values with one hash only the
    /// first is stored; the other is evaluated whenever it is tested.
    slots: HashMap<u64, Held, IdHashBuilder>,
    /// Counts the tests the table answers.
    hits: &'q AtomicU64,
}

/// A stored verdict and where its value lives in [`VerdictTable::tested`].
struct Held {
    list: u32,
    index: u32,
    verdict: bool,
}

impl<'q> VerdictTable<'q> {
    fn new(q: &'q CompiledPredicate<'q>, hits: &'q AtomicU64) -> Self {
        VerdictTable {
            q,
            tested: Vec::new(),
            slots: HashMap::default(),
            hits,
        }
    }

    fn get(&self, hash: u64, value: &Value) -> Option<bool> {
        self.slots
            .get(&hash)
            .filter(|held| &self.tested[held.list as usize][held.index as usize] == value)
            .map(|held| held.verdict)
    }

    /// The candidate's verdict on `value`: from the table when it holds one,
    /// otherwise evaluated (and not stored).
    fn test(&self, value: &Value) -> bool {
        match self.get(address_hash(value), value) {
            Some(verdict) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                verdict
            }
            None => self.q.test(value),
        }
    }

    /// The values of `pool` (the pool of an argument position of type `sig`)
    /// whose abstract parts all satisfy the candidate, in pool order.  Parts
    /// the table lacks are evaluated over `workers` threads and stored
    /// serially, so the result matches a serial filter.
    fn filter<'v>(
        &mut self,
        pool: &'v Arc<Vec<Value>>,
        sig: &Type,
        workers: usize,
    ) -> Vec<&'v Value> {
        let parts = match sig {
            Type::Abstract => Arc::clone(pool),
            _ => Arc::new(pool.iter().flat_map(|v| collect_abstract(v, sig)).collect()),
        };
        let mut hits = 0;
        let mut misses: Vec<(u64, u32)> = Vec::new();
        for (index, part) in parts.iter().enumerate() {
            let hash = address_hash(part);
            if self.get(hash, part).is_some() {
                hits += 1;
            } else {
                misses.push((hash, index as u32));
            }
        }
        self.hits.fetch_add(hits, Ordering::Relaxed);
        if !misses.is_empty() {
            let verdicts = par_map(&misses, workers, |&(_, index)| {
                self.q.test(&parts[index as usize])
            });
            let list = self.tested.len() as u32;
            self.tested.push(parts);
            self.slots.reserve(misses.len());
            for ((hash, index), verdict) in misses.into_iter().zip(verdicts) {
                self.slots.entry(hash).or_insert(Held {
                    list,
                    index,
                    verdict,
                });
            }
        }
        pool.iter()
            .filter(|value| {
                abstract_parts(value, sig).into_iter().all(|part| {
                    // Only a part whose hash a different value holds is
                    // missing.
                    self.get(address_hash(part), part)
                        .unwrap_or_else(|| self.q.test(part))
                })
            })
            .collect()
    }
}

/// A structural hash of `value` that hashes each constructor by its interned
/// symbol's address rather than its name: equal values hash equally (equal
/// symbols share one address), but the hash differs across processes, so it
/// only keys tables that are probed and never iterated.
fn address_hash(value: &Value) -> u64 {
    fn feed(value: &Value, state: &mut IdHasher) {
        match value {
            Value::Ctor(name, args) => {
                state.write_usize(name.as_str().as_ptr() as usize);
                args.iter().for_each(|arg| feed(arg, state));
            }
            Value::Tuple(items) => {
                state.write_usize(items.len());
                items.iter().for_each(|item| feed(item, state));
            }
            Value::Int(i) => state.write_u64(*i as u64),
            Value::Closure(c) => state.write_usize(Arc::as_ptr(c) as usize),
            Value::Native(n) => state.write_usize(Arc::as_ptr(n) as usize),
        }
    }
    let mut state = IdHasher::default();
    feed(value, &mut state);
    state.finish()
}

/// Whether `invariant` is literally `fun (x : τ) -> True`.
fn is_constant_true(invariant: &Expr) -> bool {
    matches!(invariant, Expr::Lambda(lambda)
        if matches!(&*lambda.body, Expr::Ctor(name, args) if *name == Symbol::TRUE && args.is_empty()))
}

/// Checks `CondInductive P Q` where `Q` is `invariant` and `P` comes from
/// `check`: the known-constructible set of [`Check::Visible`], or the
/// candidate itself for [`Check::Full`] and [`Check::Op`].  [`Check::Op`]
/// checks only the named module operation: the LinearArbitrary baseline
/// (§5.5) checks inductiveness one operation at a time.  Pools come from the
/// verifier's pool cache, and tuple evaluation is spread over its workers
/// (parallel runs report the same counterexample as serial ones, see
/// [`hanoi_lang::parallel`]).
pub(crate) fn check_cond_inductive(
    verifier: &Verifier<'_>,
    check: Check<'_>,
    invariant: &Expr,
) -> Result<InductivenessOutcome, VerifierError> {
    let problem = verifier.problem();
    let pools = verifier.pool_cache();
    let bounds = verifier.bounds();
    let workers = verifier.workers();
    let q = CompiledPredicate::compile(problem, invariant, bounds.fuel)?
        .with_eval_counter(pools.eval_counter());
    if is_constant_true(invariant) {
        // Rule I-A: only a produced value violating Q fails the check.
        return Ok(InductivenessOutcome::Valid);
    }
    let mut condition = match check {
        Check::Visible(values) => Condition::Known(values.iter().collect()),
        Check::Full | Check::Op(_) => {
            Condition::Satisfying(VerdictTable::new(&q, pools.table_hit_counter()))
        }
        Check::Sufficiency => unreachable!("sufficiency is not an inductiveness check"),
    };

    for op in problem.inductive_ops() {
        if matches!(check, Check::Op(only) if op.name.as_str() != only) {
            continue;
        }
        let (arg_sigs, result_sig) = op.sig.uncurry();
        let quantifiers = arg_sigs.len().max(1);
        let per_count = bounds.count_for(quantifiers);
        let per_size = bounds.size_for(quantifiers);
        let cap = bounds.cap_for(quantifiers);

        // Resolve each argument position to its (cached) source, then build
        // the per-candidate choice lists as borrows into those sources: the
        // only per-candidate cost left is the `P` filter itself.
        let sources: Vec<Source<'_>> = arg_sigs
            .iter()
            .map(|sig| {
                if let Type::Arrow(_, _) = sig {
                    Source::Functions(pools.function_pool(problem, sig, bounds))
                } else if sig.mentions_abstract() {
                    match (check, sig) {
                        (Check::Visible(known_values), Type::Abstract) => {
                            Source::Known(known_values)
                        }
                        _ => {
                            let concrete = sig.subst_abstract(problem.concrete_type());
                            Source::Values(
                                pools.pool(&concrete, per_count, per_size, workers),
                                true,
                            )
                        }
                    }
                } else {
                    Source::Values(pools.pool(sig, per_count, per_size, workers), false)
                }
            })
            .collect();
        let mut choice_pools: Vec<Vec<Choice<'_>>> = Vec::with_capacity(arg_sigs.len());
        for (source, sig) in sources.iter().zip(&arg_sigs) {
            match source {
                Source::Known(values) => {
                    choice_pools.push(values.iter().map(Choice::Val).collect());
                }
                Source::Functions(candidates) => {
                    choice_pools.push(candidates.iter().map(Choice::Fun).collect());
                }
                Source::Values(values, filter) => {
                    let refs: Vec<&Value> = match &mut condition {
                        _ if !*filter => values.iter().collect(),
                        Condition::Known(set) => {
                            let mut refs: Vec<&Value> = values.iter().collect();
                            par_retain(&mut refs, workers, |v| {
                                abstract_parts(v, sig).into_iter().all(|p| set.contains(p))
                            });
                            refs
                        }
                        Condition::Satisfying(table) => table.filter(values, sig, workers),
                    };
                    choice_pools.push(refs.into_iter().map(Choice::Val).collect());
                }
            }
        }

        let satisfies_p = |v: &Value| match &condition {
            Condition::Known(set) => set.contains(v),
            Condition::Satisfying(table) => table.test(v),
        };
        let satisfies_q = |v: &Value| match &condition {
            Condition::Known(_) => q.test(v),
            Condition::Satisfying(table) => table.test(v),
        };

        let found = search_product(&choice_pools, cap, workers, verifier.deadline(), |tuple| {
            // Materialize arguments, instrumenting abstract-mentioning
            // functional positions with boundary logs.
            let mut args: Vec<Value> = Vec::with_capacity(tuple.len());
            let mut logs: Vec<Arc<BoundaryLog>> = Vec::new();
            for (choice, sig) in tuple.iter().zip(&arg_sigs) {
                match choice {
                    Choice::Val(v) => args.push((*v).clone()),
                    Choice::Fun(candidate) => {
                        if sig.mentions_abstract() {
                            let log = BoundaryLog::new();
                            args.push(instrument_function(
                                &problem.tyenv,
                                sig,
                                candidate.value.clone(),
                                Arc::clone(&log),
                                bounds.fuel,
                            ));
                            logs.push(log);
                        } else {
                            args.push(candidate.value.clone());
                        }
                    }
                }
            }

            // Run the operation.
            let mut fuel = Fuel::new(bounds.fuel);
            let result = match problem
                .evaluator()
                .apply_many(op.value.clone(), &args, &mut fuel)
            {
                Ok(result) => result,
                // A failing module operation on enumerated inputs is not a
                // counterexample to inductiveness; skip the tuple.
                Err(_) => return ControlFlow::Continue(()),
            };

            // Rule I-Fun's premise: client-supplied values must satisfy P for
            // the run to witness anything.
            let client_supplied: Vec<Value> = logs
                .iter()
                .flat_map(|log| log.client_supplied_values())
                .collect();
            if !client_supplied.iter().all(&satisfies_p) {
                return ControlFlow::Continue(());
            }

            // Check Q on every module-produced abstract value: the result's
            // abstract components plus anything the module passed into a
            // functional argument.
            let mut produced: Vec<Value> = collect_abstract(&result, result_sig);
            produced.extend(logs.iter().flat_map(|log| log.module_supplied_values()));
            let violations: Vec<Value> = produced.into_iter().filter(|v| !satisfies_q(v)).collect();
            if violations.is_empty() {
                return ControlFlow::Continue(());
            }

            // Report the arguments as enumerated (functions uninstrumented)
            // and build S = {|args|}σ ∪ client-supplied values.
            let display_args: Vec<Value> = tuple
                .iter()
                .map(|choice| match choice {
                    Choice::Val(v) => (*v).clone(),
                    Choice::Fun(candidate) => candidate.value.clone(),
                })
                .collect();
            let mut s: Vec<Value> = Vec::new();
            for (value, sig) in display_args.iter().zip(&arg_sigs) {
                s.extend(collect_abstract(value, sig));
            }
            s.extend(client_supplied);

            ControlFlow::Break(InductivenessCex {
                op: op.name,
                args: display_args,
                s,
                v: violations,
            })
        })?;

        if let Some(cex) = found {
            return Ok(InductivenessOutcome::Cex(cex));
        }
    }
    Ok(InductivenessOutcome::Valid)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounds::VerifierBounds;
    use crate::poolcache::PoolCache;
    use hanoi_abstraction::Problem;
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

    fn problem() -> Problem {
        Problem::from_source(LIST_SET).unwrap()
    }

    fn quick(problem: &Problem) -> Verifier<'_> {
        Verifier::new(problem).with_bounds(VerifierBounds::quick())
    }

    fn no_duplicates() -> Expr {
        parse_expr(
            "fix inv (l : list) : bool = \
               match l with \
               | Nil -> True \
               | Cons (hd, tl) -> not (lookup tl hd) && inv tl \
               end",
        )
        .unwrap()
    }

    #[test]
    fn trivially_true_candidate_is_fully_inductive() {
        let problem = problem();
        let candidate = parse_expr("fun (l : list) -> True").unwrap();
        let outcome = check_cond_inductive(&quick(&problem), Check::Full, &candidate).unwrap();
        assert_eq!(outcome, InductivenessOutcome::Valid);
    }

    #[test]
    fn the_paper_invariant_is_fully_inductive() {
        let problem = problem();
        let inv = no_duplicates();
        let outcome = check_cond_inductive(&quick(&problem), Check::Full, &inv).unwrap();
        assert_eq!(outcome, InductivenessOutcome::Valid);
    }

    #[test]
    fn section_2_counterexample_is_found() {
        // The candidate from §2: heads must differ from 1.  It is not
        // inductive: insert [0] 1 = [1; 0] violates it while [0] satisfies it.
        let problem = problem();
        let candidate = parse_expr(
            "fun (l : list) : bool -> \
               match l with | Nil -> True | Cons (hd, tl) -> not (hd == 1) end",
        );
        // The surface syntax of `fun` carries no return annotation; re-parse
        // without it.
        let candidate = candidate.unwrap_or_else(|_| {
            parse_expr(
                "fun (l : list) -> match l with | Nil -> True | Cons (hd, tl) -> not (hd == 1) end",
            )
            .unwrap()
        });
        let outcome = check_cond_inductive(&quick(&problem), Check::Full, &candidate).unwrap();
        match outcome {
            InductivenessOutcome::Cex(cex) => {
                assert!(!cex.v.is_empty());
                assert!(
                    !cex.s.is_empty(),
                    "a first-order cex always carries its inputs"
                );
                // Every violating value must indeed falsify the candidate.
                for v in &cex.v {
                    assert!(!problem.eval_predicate(&candidate, v).unwrap());
                }
                // Every S value must satisfy the candidate (they were drawn
                // from the pool).
                for s in &cex.s {
                    assert!(problem.eval_predicate(&candidate, s).unwrap());
                }
            }
            InductivenessOutcome::Valid => panic!("the §2 candidate must not be inductive"),
        }
    }

    #[test]
    fn visible_inductiveness_uses_only_the_known_set() {
        let problem = problem();
        let candidate = parse_expr(
            "fun (l : list) -> match l with | Nil -> True | Cons (hd, tl) -> not (hd == 1) end",
        )
        .unwrap();
        // With V+ = {[]}, the only reachable-in-one-step values are the
        // results of operations on [], e.g. insert [] 1 = [1], which violates
        // the candidate — a visible-inductiveness counterexample.
        let v_plus = vec![Value::nat_list(&[])];
        let outcome =
            check_cond_inductive(&quick(&problem), Check::Visible(&v_plus), &candidate).unwrap();
        match outcome {
            InductivenessOutcome::Cex(cex) => {
                assert!(cex.v.iter().all(|v| v.as_list().is_some()));
                // S values must come from V+ (or be client-supplied, which
                // cannot happen for this first-order module).
                for s in &cex.s {
                    assert!(v_plus.contains(s));
                }
            }
            InductivenessOutcome::Valid => {
                panic!("insert [] 1 = [1] must violate the head-is-not-1 candidate")
            }
        }
    }

    #[test]
    fn visible_inductiveness_with_empty_pool_checks_constants() {
        let problem = problem();
        // A candidate that rejects the empty list: `empty` itself is a
        // constructible constant, so visible inductiveness must fail even
        // with an empty V+.
        let candidate =
            parse_expr("fun (l : list) -> match l with | Nil -> False | Cons (hd, tl) -> True end")
                .unwrap();
        let outcome =
            check_cond_inductive(&quick(&problem), Check::Visible(&[]), &candidate).unwrap();
        match outcome {
            InductivenessOutcome::Cex(cex) => {
                assert_eq!(cex.op.as_str(), "empty");
                assert_eq!(cex.v, vec![Value::nat_list(&[])]);
                assert!(cex.s.is_empty());
            }
            InductivenessOutcome::Valid => panic!("`empty` violates the candidate"),
        }
    }

    /// `check` of `candidate` on a fresh pool cache: its outcome and the
    /// cache's counters.
    fn fresh_check(
        problem: &Problem,
        check: Check<'_>,
        candidate: &Expr,
    ) -> (InductivenessOutcome, crate::PoolCacheStats) {
        let verifier = quick(problem);
        let outcome = check_cond_inductive(&verifier, check, candidate).unwrap();
        (outcome, verifier.pool_stats())
    }

    #[test]
    fn the_verdict_table_evaluates_each_pool_value_once_per_check() {
        // `insert` and `delete` draw their lists from one 2-quantifier pool.
        let problem = problem();
        let inv = no_duplicates();
        let (outcome, full) = fresh_check(&problem, Check::Full, &inv);
        assert_eq!(outcome, InductivenessOutcome::Valid);
        assert_eq!(full.predicate_evals, 165);
        // Before the table this check made 463 evaluations; each of them is
        // now either an evaluation or a table hit.
        assert_eq!(full.predicate_evals + full.predicate_table_hits, 463);

        // Checked one operation at a time, `insert` and `delete` each
        // evaluate the whole pool; checked together, the second one reads
        // the first one's verdicts, so the pool is evaluated once.  Results
        // outside the pool are evaluated in both cases.
        let pool = PoolCache::for_problem(&problem)
            .pool(&Type::named("list"), 150, 9, 1)
            .len() as u64;
        let evals = |op| fresh_check(&problem, Check::Op(op), &inv).1.predicate_evals;
        assert_eq!(
            full.predicate_evals,
            evals("empty") + evals("insert") + evals("delete") - pool
        );
    }

    #[test]
    fn a_violation_decided_by_the_table_is_the_same_counterexample() {
        // The §2 candidate: insert [] 1 = [1], and [1] is a pool value whose
        // verdict the pool filter already holds.
        let problem = problem();
        let candidate = parse_expr(
            "fun (l : list) -> match l with | Nil -> True | Cons (hd, tl) -> not (hd == 1) end",
        )
        .unwrap();
        let (outcome, stats) = fresh_check(&problem, Check::Full, &candidate);
        assert_eq!(
            outcome,
            InductivenessOutcome::Cex(InductivenessCex {
                op: "insert".into(),
                args: vec![Value::nat_list(&[]), Value::nat(1)],
                s: vec![Value::nat_list(&[])],
                v: vec![Value::nat_list(&[1])],
            })
        );
        // `empty`'s result and the pool filter: 35 evaluations; the results
        // [0] and [1] of `insert []`: 2 table hits.
        assert_eq!((stats.predicate_evals, stats.predicate_table_hits), (35, 2));
    }

    #[test]
    fn a_true_conclusion_is_valid_without_a_sweep() {
        let problem = problem();
        let v_plus = vec![Value::nat_list(&[]), Value::nat_list(&[0, 1])];
        let checks = [Check::Visible(&v_plus), Check::Full, Check::Op("insert")];
        let literal = parse_expr("fun (l : list) -> True").unwrap();
        let not_false = parse_expr("fun (l : list) -> not False").unwrap();
        for check in checks {
            let (outcome, stats) = fresh_check(&problem, check, &literal);
            assert_eq!(outcome, InductivenessOutcome::Valid);
            assert_eq!(stats, crate::PoolCacheStats::default(), "no pool, no test");
            // The same predicate, not literally `True`, is swept.
            let (outcome, stats) = fresh_check(&problem, check, &not_false);
            assert_eq!(outcome, InductivenessOutcome::Valid);
            assert!(stats.predicate_evals > 0);
        }
    }

    #[test]
    fn address_hashes_agree_on_equal_values() {
        let a = Value::nat_list(&[3, 1, 2]);
        let b = Value::nat_list(&[3, 1, 2]);
        assert_eq!(address_hash(&a), address_hash(&b));
        assert_ne!(address_hash(&a), address_hash(&Value::nat_list(&[3, 2, 1])));
    }
}
