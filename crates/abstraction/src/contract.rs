//! Higher-order contract instrumentation (§4.2).
//!
//! When a module operation takes a *functional* argument whose type mentions
//! the abstract type (e.g. `fold : (nat -> t -> t) -> t -> t -> t`), values
//! of abstract type cross the module boundary in both directions every time
//! the module calls that argument: the module *supplies* a value when it
//! passes it to the client's function, and the client *supplies* a value when
//! the function returns.  Following Findler–Felleisen higher-order contracts,
//! the verifier wraps every enumerated functional argument so that these
//! crossings are logged; the log is then checked against the `P`/`Q`
//! predicates of conditional inductiveness to extract counterexamples
//! (the `S` and `V` sets of Figure 3).

use std::sync::{Arc, Mutex};

use hanoi_lang::error::EvalError;
use hanoi_lang::eval::{Evaluator, Fuel};
use hanoi_lang::types::{Type, TypeEnv};
use hanoi_lang::value::Value;

/// A log of the abstract-type values that crossed a module boundary through
/// one instrumented functional argument.
#[derive(Debug, Default)]
pub struct BoundaryLog {
    /// Values of abstract type the *module* passed to the client function
    /// (positive positions of the function argument; checked against `Q`).
    pub module_supplied: Mutex<Vec<Value>>,
    /// Values of abstract type the *client* function returned to the module
    /// (negative positions; these satisfy `P` by construction and join the
    /// counterexample's `S` set).
    pub client_supplied: Mutex<Vec<Value>>,
}

impl BoundaryLog {
    /// A fresh, empty log.
    pub fn new() -> Arc<BoundaryLog> {
        Arc::new(BoundaryLog::default())
    }

    /// Values the module supplied, cloned out of the log.
    pub fn module_supplied_values(&self) -> Vec<Value> {
        self.module_supplied.lock().unwrap().clone()
    }

    /// Values the client supplied, cloned out of the log.
    pub fn client_supplied_values(&self) -> Vec<Value> {
        self.client_supplied.lock().unwrap().clone()
    }

    /// Empties the log.
    pub fn clear(&self) {
        self.module_supplied.lock().unwrap().clear();
        self.client_supplied.lock().unwrap().clear();
    }
}

/// Wraps a functional argument `implementation` of (interface) type `fn_sig`
/// so that every call the module makes to it is observed in `log`.
///
/// `fn_sig` is stated over the abstract type (e.g. `nat -> t -> t`); argument
/// positions whose type mentions `t` are recorded as module-supplied values,
/// and the final result is recorded as a client-supplied value when its type
/// mentions `t`.  The wrapper delegates to `implementation` (an ordinary
/// closure enumerated by the verifier) for the actual computation, giving
/// each call a budget of `fuel` steps (the verifier passes the step bound
/// of the check the wrapper runs in).
pub fn instrument_function(
    tyenv: &TypeEnv,
    fn_sig: &Type,
    implementation: Value,
    log: Arc<BoundaryLog>,
    fuel: u64,
) -> Value {
    let (arg_sigs, result_sig) = fn_sig.uncurry();
    let arg_mentions: Vec<bool> = arg_sigs.iter().map(|t| t.mentions_abstract()).collect();
    let result_mentions = result_sig.mentions_abstract();
    let arity = arg_sigs.len().max(1);
    let tyenv = tyenv.clone();
    Value::native("contract", arity, move |args: &[Value]| {
        for (value, mentions) in args.iter().zip(&arg_mentions) {
            if *mentions && value.is_first_order() {
                log.module_supplied.lock().unwrap().push(value.clone());
            }
        }
        let evaluator = Evaluator::new(&tyenv);
        let result = evaluator.apply_many(implementation.clone(), args, &mut Fuel::new(fuel))?;
        if result_mentions && result.is_first_order() {
            log.client_supplied.lock().unwrap().push(result.clone());
        }
        Ok::<Value, EvalError>(result)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::Problem;
    use hanoi_lang::parser::parse_expr;
    use hanoi_lang::resolve::resolve;

    const FOLD_SET: &str = r#"
        type nat = O | S of nat
        type list = Nil | Cons of nat * list

        interface FSET = sig
          type t
          val empty : t
          val insert : t -> nat -> t
          val lookup : t -> nat -> bool
          val fold : (nat -> t -> t) -> t -> t -> t
        end

        module ListSet : FSET = struct
          type t = list
          let empty : t = Nil
          let rec lookup (l : t) (x : nat) : bool =
            match l with
            | Nil -> False
            | Cons (hd, tl) -> hd == x || lookup tl x
            end
          let insert (l : t) (x : nat) : t =
            if lookup l x then l else Cons (x, l)
          let rec fold (f : nat -> t -> t) (a : t) (s : t) : t =
            match s with
            | Nil -> a
            | Cons (hd, tl) -> f hd (fold f a tl)
            end
        end

        spec (s : t) (i : nat) = lookup (insert s i) i
    "#;

    #[test]
    fn boundary_crossings_are_logged() {
        let problem = Problem::from_source(FOLD_SET).unwrap();
        let log = BoundaryLog::new();
        // The client function re-inserts every element: fun x acc -> insert acc x
        let client = parse_expr("fun (x : nat) (acc : list) -> insert acc x").unwrap();
        let client_value = problem
            .evaluator()
            .eval_resolved(&problem.globals, &resolve(&client), &mut Fuel::standard())
            .unwrap();
        let fn_sig = problem.interface.op("fold").unwrap().ty.uncurry().0[0].clone();
        let wrapped = instrument_function(
            &problem.tyenv,
            &fn_sig,
            client_value,
            Arc::clone(&log),
            Fuel::standard().remaining(),
        );

        let acc = Value::nat_list(&[]);
        let s = Value::nat_list(&[1, 2]);
        let result = problem.eval_call("fold", &[wrapped, acc, s]).unwrap();
        assert_eq!(result, Value::nat_list(&[1, 2]));

        // The module called `f` twice, supplying the accumulators built so
        // far; the client returned two new lists.
        let supplied = log.module_supplied_values();
        let returned = log.client_supplied_values();
        assert_eq!(supplied.len(), 2);
        assert_eq!(returned.len(), 2);
        assert!(returned.contains(&Value::nat_list(&[2])));
        assert!(returned.contains(&Value::nat_list(&[1, 2])));
    }

    #[test]
    fn clearing_resets_the_log() {
        let log = BoundaryLog::new();
        log.module_supplied.lock().unwrap().push(Value::nat(1));
        log.client_supplied.lock().unwrap().push(Value::nat(2));
        log.clear();
        assert!(log.module_supplied_values().is_empty());
        assert!(log.client_supplied_values().is_empty());
    }

    #[test]
    fn non_abstract_positions_are_not_logged() {
        let problem = Problem::from_source(FOLD_SET).unwrap();
        let log = BoundaryLog::new();
        // A function whose signature never mentions t: nat -> nat.
        let client = parse_expr("fun (x : nat) -> S x").unwrap();
        let client_value = problem
            .evaluator()
            .eval_resolved(&problem.globals, &resolve(&client), &mut Fuel::standard())
            .unwrap();
        let sig = Type::arrow(Type::named("nat"), Type::named("nat"));
        let wrapped = instrument_function(
            &problem.tyenv,
            &sig,
            client_value,
            Arc::clone(&log),
            Fuel::standard().remaining(),
        );
        let evaluator = problem.evaluator();
        let out = evaluator
            .apply(wrapped, Value::nat(3), &mut Fuel::standard())
            .unwrap();
        assert_eq!(out, Value::nat(4));
        assert!(log.module_supplied_values().is_empty());
        assert!(log.client_supplied_values().is_empty());
    }

    #[test]
    fn wrapped_calls_run_under_the_given_fuel() {
        let problem = Problem::from_source(FOLD_SET).unwrap();
        let client = parse_expr("fun (x : nat) (acc : list) -> insert acc x").unwrap();
        let client_value = problem
            .evaluator()
            .eval_resolved(&problem.globals, &resolve(&client), &mut Fuel::standard())
            .unwrap();
        let fn_sig = problem.interface.op("fold").unwrap().ty.uncurry().0[0].clone();
        let call = |fuel: u64| {
            let wrapped = instrument_function(
                &problem.tyenv,
                &fn_sig,
                client_value.clone(),
                BoundaryLog::new(),
                fuel,
            );
            // The caller's own budget is ample; only the wrapper's bound
            // limits the client call.
            problem.evaluator().apply_many(
                wrapped,
                &[Value::nat(1), Value::nat_list(&[2, 3])],
                &mut Fuel::standard(),
            )
        };
        assert_eq!(call(1_000), Ok(Value::nat_list(&[1, 2, 3])));
        assert_eq!(call(5), Err(EvalError::OutOfFuel));
    }
}
