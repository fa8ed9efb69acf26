//! Property-based integration tests over the language substrate: printing /
//! parsing round trips, enumeration invariants, and the soundness contract of
//! the synthesizer on randomly generated example sets.
//!
//! The build environment is offline, so instead of `proptest` the properties
//! are exercised over cases drawn from a deterministic splitmix-style
//! generator: same spirit (many random-ish structured inputs per property),
//! fully reproducible failures.

use hanoi_repro::abstraction::Problem;
use hanoi_repro::lang::enumerate::ValueEnumerator;
use hanoi_repro::lang::parser::{parse_expr, parse_program};
use hanoi_repro::lang::types::Type;
use hanoi_repro::lang::util::Deadline;
use hanoi_repro::lang::value::Value;
use hanoi_repro::synth::{ExampleSet, MythSynth, SynthCounters, SynthError, Synthesizer, TermBank};

const CASES: u64 = 64;

const LIST_SET: &str = r#"
    type nat = O | S of nat
    type list = Nil | Cons of nat * list
    interface SET = sig
      type t
      val empty : t
      val insert : t -> nat -> t
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
    end
    spec (s : t) (i : nat) = lookup (insert s i) i
"#;

/// A small deterministic generator (splitmix64).
struct Gen(u64);

impl Gen {
    fn new(seed: u64) -> Gen {
        Gen(seed.wrapping_add(0x9e3779b97f4a7c15))
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    /// A value in `lo..hi`.
    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo)
    }

    /// A small nat list: length `0..5`, elements `0..5` — the same strategy
    /// the original proptest version used.
    fn nat_list(&mut self) -> Vec<u64> {
        let len = self.range(0, 5) as usize;
        (0..len).map(|_| self.range(0, 5)).collect()
    }
}

/// Values printed as expressions re-parse to the same expression.
#[test]
fn value_expression_round_trip() {
    let mut gen = Gen::new(0x5eed_0001);
    for _ in 0..CASES {
        let items = gen.nat_list();
        let value = Value::nat_list(&items);
        let expr = value.to_expr().unwrap();
        let printed = expr.to_string();
        let reparsed = parse_expr(&printed).unwrap();
        assert_eq!(expr, reparsed, "round trip failed for {items:?}");
    }
}

/// Structural equality of values agrees with equality of the vectors they
/// were built from.
#[test]
fn value_equality_is_structural() {
    let mut gen = Gen::new(0x5eed_0002);
    for _ in 0..CASES {
        let a = gen.nat_list();
        let b = gen.nat_list();
        assert_eq!(
            Value::nat_list(&a) == Value::nat_list(&b),
            a == b,
            "structural equality disagreed on {a:?} vs {b:?}"
        );
    }
}

/// The module operations preserve the no-duplicates representation
/// invariant (a semantic check of the benchmark itself, independent of
/// inference).
#[test]
fn list_set_insert_preserves_no_duplicates() {
    let problem = Problem::from_source(LIST_SET).unwrap();
    let mut gen = Gen::new(0x5eed_0003);
    for _ in 0..CASES {
        let items = gen.nat_list();
        let x = gen.range(0, 5);
        // Build a duplicate-free list by repeated insertion.
        let mut set_value = Value::nat_list(&[]);
        for item in &items {
            set_value = problem
                .eval_call("insert", &[set_value, Value::nat(*item)])
                .unwrap();
        }
        let result = problem
            .eval_call("insert", &[set_value, Value::nat(x)])
            .unwrap();
        let elements: Vec<u64> = result
            .as_list()
            .unwrap()
            .iter()
            .map(|v| v.as_nat().unwrap())
            .collect();
        let mut dedup = elements.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(
            dedup.len(),
            elements.len(),
            "insert produced duplicates: {elements:?}"
        );
    }
}

/// Any predicate the synthesizer returns is consistent with the examples
/// it was given (the `Synth` soundness contract of §3.3).
#[test]
fn synthesized_predicates_respect_their_examples() {
    let problem = Problem::from_source(LIST_SET).unwrap();
    let mut gen = Gen::new(0x5eed_0004);
    // Synthesis cases are slower; a quarter of the usual case count keeps the
    // test well under a second while still varying the example sets.
    for _ in 0..CASES / 4 {
        let pos: Vec<Vec<u64>> = (0..gen.range(1, 3)).map(|_| gen.nat_list()).collect();
        let neg_seed = gen.nat_list();
        // Negatives: the seed list with an element duplicated at the front
        // (guaranteed distinct from every positive after dedup below).
        let mut neg = neg_seed.clone();
        neg.insert(0, *neg_seed.first().unwrap_or(&0));

        let mut examples = ExampleSet::new();
        for p in &pos {
            let _ = examples.add_positive(Value::nat_list(p));
        }
        let negative = Value::nat_list(&neg);
        if examples.add_negative(negative).is_err() {
            continue; // analogue of prop_assume!: skip contradictory draws
        }
        let (examples, _) = examples.trace_completed(&problem.tyenv, problem.concrete_type());

        let synth = MythSynth::new();
        let bank = TermBank::new();
        let counters = SynthCounters::default();
        match synth.synthesize(&problem, &bank, &counters, &examples, &Deadline::none()) {
            Ok(candidate) => {
                for (value, expected) in examples.labeled() {
                    let actual = problem.eval_predicate(&candidate, &value).unwrap();
                    assert_eq!(
                        actual, expected,
                        "candidate {candidate} misclassifies {value}"
                    );
                }
            }
            Err(SynthError::NoCandidate) | Err(SynthError::Timeout) => {
                // Failing to find a candidate is allowed by the contract.
            }
            Err(other) => panic!("unexpected synthesis error: {other}"),
        }
    }
}

#[test]
fn enumeration_is_duplicate_free_and_size_ordered() {
    let problem = Problem::from_source(LIST_SET).unwrap();
    let mut enumerator = ValueEnumerator::new(&problem.tyenv);
    let values = enumerator.first_values(&Type::named("list"), 500, 30);
    assert_eq!(values.len(), 500);
    for window in values.windows(2) {
        assert!(window[0].size() <= window[1].size());
    }
    let mut seen = std::collections::HashSet::new();
    for v in &values {
        assert!(seen.insert(v.clone()), "duplicate enumerated value {v}");
        assert!(v.has_type(&problem.tyenv, &Type::named("list")));
    }
}

#[test]
fn the_std_prelude_composes_with_benchmark_programs() {
    let program = hanoi_repro::lang::prelude::std_prelude_program().unwrap();
    assert!(program.data_decls().count() >= 3);
    // The prelude plus a tiny module still elaborates into a problem.
    let source = hanoi_repro::lang::prelude::with_std_prelude(
        r#"
        interface BOX = sig
          type t
          val make : nat -> t
          val get : t -> nat
        end
        module NatBox : BOX = struct
          type t = nat
          let make (n : nat) : t = n
          let get (b : t) : nat = b
        end
        spec (b : t) = get b == get b
    "#,
    );
    let problem = Problem::from_source(&source).unwrap();
    assert_eq!(problem.concrete_type(), &Type::named("nat"));
    let parsed = parse_program(&source).unwrap();
    assert!(parsed.module().is_some());
}
