//! Allocation budget of the value layer and the interpreter: evaluating,
//! cloning and dropping childless constructors, booleans and `()` never
//! touches the allocator, applying a function allocates once (the
//! evaluation's value stack), and a recursive two-argument call allocates
//! nothing beyond the values it builds.
//!
//! The counting allocator is process-wide, so this file holds exactly one
//! test; the count is also kept per thread, so whatever the test harness
//! does on its own threads is not counted.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use hanoi_lang::parser::parse_expr;
use hanoi_lang::resolve::resolve;
use hanoi_lang::{CtorDecl, DataDecl, Env, Evaluator, Fuel, Symbol, Type, TypeEnv, Value};

struct Counting;

thread_local! {
    /// Allocations made by this thread while counting, `None` otherwise.
    static COUNT: Cell<Option<usize>> = const { Cell::new(None) };
}

fn note_allocation() {
    let _ = COUNT.try_with(|count| count.set(count.get().map(|n| n + 1)));
}

// SAFETY: every method forwards its arguments unchanged to the system
// allocator, which upholds the `GlobalAlloc` contract; counting touches only
// a thread-local `Cell` and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// How many allocations `f` makes on this thread (dropping its result is
/// not counted).
fn allocations<R>(f: impl FnOnce() -> R) -> usize {
    COUNT.with(|count| count.set(Some(0)));
    let result = f();
    let made = COUNT.with(|count| count.replace(None)).unwrap_or(0);
    drop(result);
    made
}

fn tyenv() -> TypeEnv {
    let mut env = TypeEnv::new();
    for decl in [
        DataDecl::new(
            "nat",
            vec![
                CtorDecl::new("O", vec![]),
                CtorDecl::new("S", vec![Type::named("nat")]),
            ],
        ),
        DataDecl::new(
            "tree",
            vec![
                CtorDecl::new("Leaf", vec![]),
                CtorDecl::new(
                    "Node",
                    vec![Type::named("tree"), Type::named("nat"), Type::named("tree")],
                ),
            ],
        ),
    ] {
        env.declare(decl).unwrap();
    }
    env
}

fn atoms_cost_no_allocation(evaluator: &Evaluator<'_>) {
    let env = Env::empty();
    for source in [
        "True",
        "False",
        "O",
        "Leaf",
        "()",
        "if True then Leaf else O",
        "match O with | O -> Leaf | S n -> O end",
        "match Leaf with | Node (l, x, r) -> False | Leaf -> True end",
        "not (True && False) || O == O",
        "(Leaf == Leaf) && (() == ())",
    ] {
        let expr = resolve(&parse_expr(source).unwrap());
        // Once before counting, so every name is already interned.
        let expected = evaluator
            .eval_resolved(&env, &expr, &mut Fuel::standard())
            .unwrap();
        let mut value = None;
        let made = allocations(|| {
            value = evaluator
                .eval_resolved(&env, &expr, &mut Fuel::standard())
                .ok()
        });
        assert_eq!(made, 0, "evaluating `{source}` allocated");
        assert_eq!(value, Some(expected));
    }

    let leaf = Symbol::new("Leaf");
    let made = allocations(|| {
        let atoms = [
            Value::tru(),
            Value::fls(),
            Value::unit(),
            Value::nat(0),
            Value::nat_list(&[]),
            Value::ctor_of(leaf, Vec::new()),
            Value::tuple_of(Vec::new()),
        ];
        let copies = atoms.clone();
        drop(atoms);
        copies
    });
    assert_eq!(made, 0, "building, cloning or dropping atoms allocated");
}

fn applying_a_function_allocates_once(evaluator: &Evaluator<'_>) {
    let env = Env::empty();
    for (source, args) in [
        ("fun (x : nat) -> x", [Value::nat(0), Value::nat(2)]),
        (
            "fun (b : bool) -> if b then O else match O with | O -> O | S n -> n end",
            [Value::tru(), Value::fls()],
        ),
    ] {
        let expr = resolve(&parse_expr(source).unwrap());
        let function = evaluator
            .eval_resolved(&env, &expr, &mut Fuel::standard())
            .unwrap();
        for arg in &args {
            let made = allocations(|| {
                evaluator.apply(function.clone(), arg.clone(), &mut Fuel::standard())
            });
            assert_eq!(made, 1, "applying `{source}` to {arg}");
        }
    }
}

/// `plus m n` on a first argument of `k` more `S`s allocates `k` more times:
/// once per `S` slab of its result.  Calls, `match` arms and the curried
/// `plus m2` in the recursive call bind on the evaluation's value stack.
fn two_argument_recursion_allocates_only_its_result(evaluator: &Evaluator<'_>) {
    let plus = resolve(
        &parse_expr(
            "fix plus (m : nat) : nat -> nat = fun (n : nat) ->
               match m with | O -> n | S m2 -> S (plus m2 n) end",
        )
        .unwrap(),
    );
    let plus = evaluator
        .eval_resolved(&Env::empty(), &plus, &mut Fuel::standard())
        .unwrap();
    let call = resolve(&parse_expr("plus m n").unwrap());
    let cost = |m: u64| {
        let env = Env::empty()
            .bind(Symbol::new("plus"), plus.clone())
            .bind(Symbol::new("m"), Value::nat(m))
            .bind(Symbol::new("n"), Value::nat(1));
        let mut value = None;
        let made = allocations(|| {
            value = evaluator
                .eval_resolved(&env, &call, &mut Fuel::standard())
                .ok()
        });
        assert_eq!(value, Some(Value::nat(m + 1)), "plus {m} 1");
        made
    };
    let (small, large) = (cost(2), cost(6));
    assert_eq!(small, 1 + 2, "plus 2 1: its value stack and two `S` slabs");
    assert_eq!(
        large,
        small + 4,
        "plus 6 1 allocated {large} times, plus 2 1 {small}"
    );
}

#[test]
fn value_layer_allocation_budget() {
    let tyenv = tyenv();
    let evaluator = Evaluator::new(&tyenv);
    atoms_cost_no_allocation(&evaluator);
    applying_a_function_allocates_once(&evaluator);
    two_argument_recursion_allocates_only_its_result(&evaluator);
}
