//! The verification problem: interface + module + specification, elaborated
//! and ready for the verifier, the synthesizer and the inference driver.

use hanoi_lang::ast::{Expr, Program, TopLet};
use hanoi_lang::digest::{Digest, DigestBuilder};
use hanoi_lang::error::EvalError;
use hanoi_lang::eval::{Evaluator, Fuel};
use hanoi_lang::parser::parse_program;
use hanoi_lang::resolve::resolve;
use hanoi_lang::symbol::Symbol;
use hanoi_lang::typecheck::TypeChecker;
use hanoi_lang::types::{Type, TypeEnv};
use hanoi_lang::value::{Env, Value};

use crate::error::AbstractionError;
use crate::interface::{check_wellformed_with_abstract, Interface};
use crate::module::{Module, ModuleOp};
use crate::spec::Spec;

/// A fully elaborated verification problem.
///
/// Holds everything the inference pipeline needs: the data type environment,
/// a global evaluation environment containing the prelude functions *and* the
/// module operations, the interface/module/spec triple, and the original
/// top-level bindings (used to assemble synthesis component libraries).
#[derive(Debug, Clone)]
pub struct Problem {
    /// Declared data types (including the builtin `bool`).
    pub tyenv: TypeEnv,
    /// Prelude functions and module operations, bound by name.
    pub globals: Env,
    /// The prelude bindings, in order.
    pub prelude: Vec<TopLet>,
    /// The module bindings with the abstract type substituted away, in order.
    pub module_lets: Vec<TopLet>,
    /// The interface.
    pub interface: Interface,
    /// The module.
    pub module: Module,
    /// The specification.
    pub spec: Spec,
    /// An optional human-readable name (benchmark id).
    pub name: Option<String>,
}

impl Problem {
    /// Parses and elaborates a surface program.
    pub fn from_source(source: &str) -> Result<Problem, AbstractionError> {
        let program = parse_program(source)?;
        Self::from_program(&program)
    }

    /// Elaborates an already parsed surface program.
    ///
    /// Every global binding and the specification body go through the
    /// slot-resolution pass ([`hanoi_lang::resolve`]) here, once.
    pub fn from_program(program: &Program) -> Result<Problem, AbstractionError> {
        let elaborated = program.elaborate()?;
        let tyenv = elaborated.tyenv.clone();

        let iface_decl = program
            .interface()
            .ok_or(AbstractionError::MissingInterface)?;
        let module_decl = program.module().ok_or(AbstractionError::MissingModule)?;
        let spec_decl = program.spec().ok_or(AbstractionError::MissingSpec)?;

        let interface = Interface::from_decl(iface_decl, &tyenv)?;
        if module_decl.interface != iface_decl.name {
            return Err(AbstractionError::InterfaceMismatch(format!(
                "module `{}` claims interface `{}` but the program declares `{}`",
                module_decl.name, module_decl.interface, iface_decl.name
            )));
        }

        // The concrete representation type must be a declared, 0-order,
        // inhabited type.
        let concrete = module_decl.concrete.clone();
        tyenv
            .check_wellformed(&concrete)
            .map_err(AbstractionError::from)?;
        if !concrete.is_zero_order() {
            return Err(AbstractionError::InterfaceMismatch(format!(
                "the representation type `{concrete}` must not contain functions"
            )));
        }
        if !tyenv.is_inhabited(&concrete) {
            return Err(AbstractionError::InterfaceMismatch(format!(
                "the representation type `{concrete}` has no finite values"
            )));
        }

        // Type-check and evaluate the module bindings, in order, with the
        // prelude and earlier module bindings in scope.
        let mut checker = TypeChecker::new(&tyenv);
        for top in &elaborated.lets {
            checker.declare_global(top.name, top.ty());
        }
        let mut globals = elaborated.globals.clone();
        let evaluator = Evaluator::new(&tyenv);
        let mut module_lets = Vec::new();
        for top in &module_decl.lets {
            let substituted = top.subst_abstract(&concrete);
            let expr = substituted.to_expr();
            let declared = substituted.ty();
            checker.check_closed(&expr, &declared).map_err(|e| {
                AbstractionError::InterfaceMismatch(format!(
                    "module operation `{}` is ill-typed: {e}",
                    top.name
                ))
            })?;
            let mut fuel = Fuel::new(1_000_000);
            let value = evaluator
                .eval_resolved(&globals, &resolve(&expr), &mut fuel)
                .map_err(AbstractionError::from)?;
            globals = globals.bind(substituted.name, value);
            checker.declare_global(substituted.name, declared);
            module_lets.push(substituted);
        }

        // Check that every interface operation is implemented at the declared
        // type, and collect them in interface order.
        let mut ops = Vec::new();
        for op_sig in &interface.ops {
            let implementation = module_lets
                .iter()
                .find(|l| l.name == op_sig.name)
                .ok_or_else(|| {
                    AbstractionError::InterfaceMismatch(format!(
                        "operation `{}` is declared by the interface but not implemented",
                        op_sig.name
                    ))
                })?;
            let expected = op_sig.ty.subst_abstract(&concrete);
            if implementation.ty() != expected {
                return Err(AbstractionError::InterfaceMismatch(format!(
                    "operation `{}` has type `{}` but the interface requires `{}`",
                    op_sig.name,
                    implementation.ty(),
                    expected
                )));
            }
            let value = globals
                .lookup(&op_sig.name)
                .cloned()
                .expect("module operation was just bound");
            ops.push(ModuleOp {
                name: op_sig.name,
                sig: op_sig.ty.clone(),
                concrete_sig: expected,
                value,
            });
        }
        let module = Module {
            name: module_decl.name,
            concrete: concrete.clone(),
            ops,
        };

        // Elaborate and check the specification: every parameter type must be
        // well formed, and the body must be boolean once the abstract type is
        // substituted away.
        let mut spec = Spec::from_decl(spec_decl);
        if spec.abstract_arity() == 0 {
            return Err(AbstractionError::BadSpec(
                "the specification must quantify over at least one value of abstract type".into(),
            ));
        }
        for (name, ty) in &spec.params {
            check_wellformed_with_abstract(ty, &tyenv)
                .map_err(|msg| AbstractionError::BadSpec(format!("parameter `{name}`: {msg}")))?;
        }
        let mut spec_ctx = hanoi_lang::typecheck::TypeContext::new();
        for (name, ty) in &spec.params {
            spec_ctx = spec_ctx.bind(*name, ty.subst_abstract(&concrete));
        }
        checker
            .check(&spec_ctx, &spec.body, &Type::bool())
            .map_err(|e| AbstractionError::BadSpec(e.to_string()))?;
        // The quantified parameters stay free variables, bound by name in the
        // evaluation environment.
        spec.body = resolve(&spec.body);

        Ok(Problem {
            tyenv,
            globals,
            prelude: elaborated.lets,
            module_lets,
            interface,
            module,
            spec,
            name: None,
        })
    }

    /// Gives the problem a human-readable name (benchmark id).
    pub fn with_name(mut self, name: impl Into<String>) -> Self {
        self.name = Some(name.into());
        self
    }

    /// The concrete representation type `τc`.
    pub fn concrete_type(&self) -> &Type {
        &self.module.concrete
    }

    /// A stable structural fingerprint of the whole problem *definition*:
    /// the declared data types, every prelude and module binding (the
    /// definitional source of the globals environment — the environment
    /// itself is a deterministic function of them), the interface, the
    /// concrete representation type and the specification.
    ///
    /// Two problems share a fingerprint exactly when every cache the engine
    /// keys by problem — value pools, check outcomes, term banks — may be
    /// shared between them, up to the 2⁻¹²⁸ digest collision bound.  Being
    /// interner-independent ([`hanoi_lang::digest`]), the fingerprint is
    /// valid *across processes*: it names the per-problem warm-start
    /// snapshot files (`Engine::save_state` / `EngineConfig::warm_start_dir`
    /// in the core crate).
    pub fn fingerprint(&self) -> Digest {
        let mut b = DigestBuilder::new("hanoi-problem-v1");
        let decls = self.tyenv.decls();
        b.add_u64(decls.len() as u64);
        for decl in decls {
            b.add_str(decl.name.as_str());
            b.add_u64(decl.ctors.len() as u64);
            for ctor in &decl.ctors {
                b.add_str(ctor.name.as_str());
                b.add_u64(ctor.args.len() as u64);
                for arg in &ctor.args {
                    b.add_digest(Digest::of_type(arg));
                }
            }
        }
        let mut add_lets = |label: &str, lets: &[TopLet]| {
            b.add_str(label);
            b.add_u64(lets.len() as u64);
            for top in lets {
                b.add_str(top.name.as_str());
                b.add_u64(top.recursive as u64);
                b.add_digest(Digest::of_type(&top.ty()));
                // Whole-binding digest: `to_expr` folds the parameters into
                // binders, so parameter *names* drop out (α-invariance)
                // while their order and types stay significant.
                b.add_digest(Digest::of_expr(&top.to_expr()));
            }
        };
        add_lets("prelude", &self.prelude);
        add_lets("module", &self.module_lets);
        b.add_str("interface");
        b.add_str(self.interface.name.as_str());
        b.add_u64(self.interface.ops.len() as u64);
        for op in &self.interface.ops {
            b.add_str(op.name.as_str());
            b.add_digest(Digest::of_type(&op.ty));
        }
        b.add_str("concrete");
        b.add_digest(Digest::of_type(self.concrete_type()));
        b.add_str("spec");
        b.add_u64(self.spec.params.len() as u64);
        for (name, ty) in &self.spec.params {
            // Spec parameters are free variables of the body, so their
            // names are significant (unlike binder names).
            b.add_str(name.as_str());
            b.add_digest(Digest::of_type(ty));
        }
        b.add_digest(Digest::of_expr(&self.spec.body));
        b.finish()
    }

    /// An interpreter over this problem's data types.
    pub fn evaluator(&self) -> Evaluator<'_> {
        Evaluator::new(&self.tyenv)
    }

    /// Applies a module operation (or prelude function) by name.
    pub fn eval_call(&self, name: &str, args: &[Value]) -> Result<Value, EvalError> {
        self.eval_call_with_fuel(name, args, &mut Fuel::standard())
    }

    /// Applies a module operation (or prelude function) by name with an
    /// explicit fuel budget.
    pub fn eval_call_with_fuel(
        &self,
        name: &str,
        args: &[Value],
        fuel: &mut Fuel,
    ) -> Result<Value, EvalError> {
        let f = self
            .globals
            .lookup(&Symbol::new(name))
            .cloned()
            .ok_or_else(|| EvalError::UnboundVariable(Symbol::new(name)))?;
        self.evaluator().apply_many(f, args, fuel)
    }

    /// Evaluates the specification body on a full argument tuple (one value
    /// per quantified parameter, in order).
    pub fn eval_spec(&self, args: &[Value]) -> Result<bool, EvalError> {
        self.eval_spec_with_fuel(args, &mut Fuel::standard())
    }

    /// Evaluates the specification with an explicit fuel budget, on any
    /// sequence of borrowed argument values (a `&[Value]`, or a tuple of
    /// references mapped to `&Value`s).
    pub fn eval_spec_with_fuel<'v, I>(&self, args: I, fuel: &mut Fuel) -> Result<bool, EvalError>
    where
        I: IntoIterator<Item = &'v Value>,
        I::IntoIter: ExactSizeIterator,
    {
        let args = args.into_iter();
        if args.len() != self.spec.arity() {
            return Err(EvalError::Other(format!(
                "specification expects {} argument(s), got {}",
                self.spec.arity(),
                args.len()
            )));
        }
        let mut env = self.globals.clone();
        for ((name, _), value) in self.spec.params.iter().zip(args) {
            env = env.bind(*name, value.clone());
        }
        let v = self
            .evaluator()
            .eval_resolved(&env, &self.spec.body, fuel)?;
        v.as_bool()
            .ok_or_else(|| EvalError::NotABool(v.to_string()))
    }

    /// Evaluates a candidate invariant (an expression of type `τc -> bool`
    /// closed over the problem's globals) on one value of the concrete type.
    pub fn eval_predicate(&self, predicate: &Expr, arg: &Value) -> Result<bool, EvalError> {
        self.eval_predicate_with_fuel(predicate, arg, &mut Fuel::standard())
    }

    /// Evaluates a candidate invariant with an explicit fuel budget.  The
    /// predicate is resolved first; callers that evaluate one predicate
    /// many times resolve it once and use
    /// [`Problem::eval_predicate_resolved_with_fuel`].
    pub fn eval_predicate_with_fuel(
        &self,
        predicate: &Expr,
        arg: &Value,
        fuel: &mut Fuel,
    ) -> Result<bool, EvalError> {
        self.eval_predicate_resolved_with_fuel(&resolve(predicate), arg, fuel)
    }

    /// Evaluates a candidate invariant that has already been through the
    /// slot-resolution pass ([`hanoi_lang::resolve::resolve`]).
    pub fn eval_predicate_resolved_with_fuel(
        &self,
        predicate: &Expr,
        arg: &Value,
        fuel: &mut Fuel,
    ) -> Result<bool, EvalError> {
        let evaluator = self.evaluator();
        let pred_value = evaluator.eval_resolved(&self.globals, predicate, fuel)?;
        evaluator.apply_pred(&pred_value, arg, fuel)
    }

    /// Type-checks a candidate invariant against `τc -> bool`.
    pub fn typecheck_invariant(&self, invariant: &Expr) -> Result<(), AbstractionError> {
        let mut checker = TypeChecker::new(&self.tyenv);
        for top in self.prelude.iter().chain(&self.module_lets) {
            checker.declare_global(top.name, top.ty());
        }
        let expected = Type::arrow(self.concrete_type().clone(), Type::bool());
        checker
            .check_closed(invariant, &expected)
            .map_err(AbstractionError::from)
    }

    /// The component library visible to the synthesizers: every prelude
    /// function and module operation, with its (concrete) type.
    pub fn synthesis_components(&self) -> Vec<(Symbol, Type)> {
        self.prelude
            .iter()
            .map(|l| (l.name, l.ty()))
            .chain(self.module_lets.iter().map(|l| (l.name, l.ty())))
            .collect()
    }

    /// The operations that participate in inductiveness checking: those whose
    /// interface signature mentions the abstract type.
    pub fn inductive_ops(&self) -> Vec<&ModuleOp> {
        self.module.abstract_ops().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) const LIST_SET: &str = r#"
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
    fn elaborates_the_running_example() {
        let problem = Problem::from_source(LIST_SET).unwrap().with_name("listset");
        assert_eq!(problem.name.as_deref(), Some("listset"));
        assert_eq!(problem.concrete_type(), &Type::named("list"));
        assert_eq!(problem.interface.len(), 4);
        assert_eq!(problem.inductive_ops().len(), 4);
        assert!(problem
            .synthesis_components()
            .iter()
            .any(|(n, _)| n.as_str() == "lookup"));
    }

    #[test]
    fn fingerprints_are_stable_and_spec_sensitive() {
        let a = Problem::from_source(LIST_SET).unwrap();
        let b = Problem::from_source(LIST_SET).unwrap();
        assert_eq!(
            a.fingerprint(),
            b.fingerprint(),
            "identical sources share a fingerprint (across elaborations)"
        );
        // The name is presentation, not semantics.
        assert_eq!(a.with_name("x").fingerprint(), b.fingerprint());

        // A clone with a weakened spec (sharing the globals Env!) must get
        // its own fingerprint — check outcomes depend on the spec.
        let mut weaker = b.clone();
        weaker.spec.body =
            resolve(&hanoi_lang::parser::parse_expr("not (lookup empty i)").unwrap());
        assert_ne!(weaker.fingerprint(), b.fingerprint());

        // A buggy module body changes the fingerprint even though every
        // type and signature is unchanged.
        let buggy = LIST_SET.replace("if lookup l x then l else Cons (x, l)", "Cons (x, l)");
        let buggy = Problem::from_source(&buggy).unwrap();
        assert_ne!(buggy.fingerprint(), b.fingerprint());
    }

    #[test]
    fn module_operations_execute() {
        let problem = Problem::from_source(LIST_SET).unwrap();
        let s = problem
            .eval_call("insert", &[Value::nat_list(&[]), Value::nat(3)])
            .unwrap();
        assert_eq!(s, Value::nat_list(&[3]));
        let found = problem
            .eval_call("lookup", &[s.clone(), Value::nat(3)])
            .unwrap();
        assert_eq!(found, Value::tru());
        let removed = problem.eval_call("delete", &[s, Value::nat(3)]).unwrap();
        assert_eq!(removed, Value::nat_list(&[]));
    }

    #[test]
    fn spec_evaluation_matches_the_paper() {
        let problem = Problem::from_source(LIST_SET).unwrap();
        // The spec holds on the empty list...
        assert!(problem
            .eval_spec(&[Value::nat_list(&[]), Value::nat(1)])
            .unwrap());
        // ...and on a duplicate-free list...
        assert!(problem
            .eval_spec(&[Value::nat_list(&[2, 3]), Value::nat(3)])
            .unwrap());
        // ...but fails on [1;1] with i = 1 (deleting one copy leaves the other).
        assert!(!problem
            .eval_spec(&[Value::nat_list(&[1, 1]), Value::nat(1)])
            .unwrap());
    }

    #[test]
    fn predicates_are_evaluated_against_globals() {
        let problem = Problem::from_source(LIST_SET).unwrap();
        // fun (l : list) -> not (lookup l 0)
        let pred = hanoi_lang::parser::parse_expr("fun (l : list) -> not (lookup l 0)").unwrap();
        problem.typecheck_invariant(&pred).unwrap();
        assert!(problem
            .eval_predicate(&pred, &Value::nat_list(&[1]))
            .unwrap());
        assert!(!problem
            .eval_predicate(&pred, &Value::nat_list(&[0]))
            .unwrap());
    }

    #[test]
    fn missing_pieces_are_reported() {
        let no_spec = LIST_SET.rsplit_once("spec").unwrap().0;
        assert_eq!(
            Problem::from_source(no_spec).unwrap_err(),
            AbstractionError::MissingSpec
        );
        let err = Problem::from_source(
            r#"
            type nat = O | S of nat
            interface I = sig
              type t
              val make : t
              val get : t -> nat
            end
            module M : I = struct
              type t = nat
              let make : t = O
            end
            spec (s : t) = get s == O
        "#,
        )
        .unwrap_err();
        assert!(err.to_string().contains("get"));
    }

    #[test]
    fn interface_type_mismatches_are_reported() {
        let err = Problem::from_source(
            r#"
            type nat = O | S of nat
            interface I = sig
              type t
              val make : t
              val get : t -> nat
            end
            module M : I = struct
              type t = nat
              let make : t = O
              let get (x : t) : bool = True
            end
            spec (s : t) = get s == O
        "#,
        )
        .unwrap_err();
        assert!(matches!(err, AbstractionError::InterfaceMismatch(_)));
    }

    #[test]
    fn ill_typed_module_bodies_are_reported() {
        let err = Problem::from_source(
            r#"
            type nat = O | S of nat
            interface I = sig
              type t
              val make : t
            end
            module M : I = struct
              type t = nat
              let make : t = True
            end
            spec (s : t) = make == s
        "#,
        )
        .unwrap_err();
        assert!(matches!(err, AbstractionError::InterfaceMismatch(_)));
    }

    #[test]
    fn spec_must_mention_abstract_type() {
        let err = Problem::from_source(
            r#"
            type nat = O | S of nat
            interface I = sig
              type t
              val make : t
            end
            module M : I = struct
              type t = nat
              let make : t = O
            end
            spec (i : nat) = i == i
        "#,
        )
        .unwrap_err();
        assert!(matches!(err, AbstractionError::BadSpec(_)));
    }
}
