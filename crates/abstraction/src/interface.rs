//! Module interfaces: `F = ∃α. τm`.

use hanoi_lang::ast::InterfaceDecl;
use hanoi_lang::symbol::Symbol;
use hanoi_lang::types::{Type, TypeEnv};

use crate::error::AbstractionError;

/// The signature of one interface operation, stated over the abstract type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpSig {
    /// The operation name.
    pub name: Symbol,
    /// Its type over the abstract type `α` (surface `t`).
    pub ty: Type,
}

impl OpSig {
    /// Creates an operation signature.
    pub fn new(name: impl Into<Symbol>, ty: Type) -> Self {
        OpSig {
            name: name.into(),
            ty,
        }
    }

    /// `true` if no argument position of the operation has a function type —
    /// the fragment covered by the paper's formal development.
    pub fn is_first_order(&self) -> bool {
        self.ty.is_first_order()
    }

    /// `true` if the abstract type appears anywhere in the signature.
    pub fn mentions_abstract(&self) -> bool {
        self.ty.mentions_abstract()
    }

    /// The curried argument types and result type of the operation.
    pub fn uncurried(&self) -> (Vec<&Type>, &Type) {
        self.ty.uncurry()
    }
}

/// A module interface: an abstract type together with operation signatures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Interface {
    /// The interface name (e.g. `SET`).
    pub name: Symbol,
    /// The operations, in declaration order.
    pub ops: Vec<OpSig>,
}

impl Interface {
    /// Builds an interface from a parsed declaration, checking that every
    /// named type in the signatures is declared.
    pub fn from_decl(decl: &InterfaceDecl, tyenv: &TypeEnv) -> Result<Self, AbstractionError> {
        let mut ops = Vec::new();
        for (name, ty) in &decl.vals {
            check_wellformed_with_abstract(ty, tyenv).map_err(|msg| {
                AbstractionError::InterfaceMismatch(format!(
                    "signature of `{name}` is ill-formed: {msg}"
                ))
            })?;
            ops.push(OpSig::new(*name, ty.clone()));
        }
        Ok(Interface {
            name: decl.name,
            ops,
        })
    }

    /// Looks up an operation signature by name.
    pub fn op(&self, name: &str) -> Option<&OpSig> {
        self.ops.iter().find(|o| o.name.as_str() == name)
    }

    /// `true` when every operation is first-order (the fragment with the
    /// soundness/completeness proof).
    pub fn is_first_order(&self) -> bool {
        self.ops.iter().all(OpSig::is_first_order)
    }

    /// The operations whose signature mentions the abstract type (only these
    /// participate in inductiveness checking).
    pub fn abstract_ops(&self) -> impl Iterator<Item = &OpSig> {
        self.ops.iter().filter(|o| o.mentions_abstract())
    }

    /// Number of operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// `true` when the interface declares no operations.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

/// Checks that a type references only declared data types; the abstract type
/// is allowed (unlike [`TypeEnv::check_wellformed`]).
pub(crate) fn check_wellformed_with_abstract(ty: &Type, tyenv: &TypeEnv) -> Result<(), String> {
    match ty {
        Type::Abstract => Ok(()),
        Type::Named(n) => {
            if tyenv.is_declared(n) {
                Ok(())
            } else {
                Err(format!("unknown type `{n}`"))
            }
        }
        Type::Tuple(ts) => ts
            .iter()
            .try_for_each(|t| check_wellformed_with_abstract(t, tyenv)),
        Type::Arrow(a, b) => {
            check_wellformed_with_abstract(a, tyenv)?;
            check_wellformed_with_abstract(b, tyenv)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hanoi_lang::parser::parse_program;

    fn set_interface() -> (Interface, TypeEnv) {
        let src = r#"
            type nat = O | S of nat
            type list = Nil | Cons of nat * list
            interface SET = sig
              type t
              val empty : t
              val insert : t -> nat -> t
              val lookup : t -> nat -> bool
              val size : nat
            end
        "#;
        let program = parse_program(src).unwrap();
        let elaborated = program.elaborate().unwrap();
        let iface = Interface::from_decl(program.interface().unwrap(), &elaborated.tyenv).unwrap();
        (iface, elaborated.tyenv)
    }

    #[test]
    fn builds_from_declaration() {
        let (iface, _) = set_interface();
        assert_eq!(iface.name, Symbol::new("SET"));
        assert_eq!(iface.len(), 4);
        assert!(!iface.is_empty());
        let insert = iface.op("insert").unwrap();
        assert_eq!(
            insert.ty,
            Type::arrows(vec![Type::Abstract, Type::named("nat")], Type::Abstract)
        );
        assert!(insert.mentions_abstract());
        assert!(insert.is_first_order());
        assert!(iface.op("delete").is_none());
    }

    #[test]
    fn abstract_ops_excludes_pure_base_operations() {
        let (iface, _) = set_interface();
        let names: Vec<&str> = iface.abstract_ops().map(|o| o.name.as_str()).collect();
        assert_eq!(names, vec!["empty", "insert", "lookup"]);
    }

    #[test]
    fn first_order_classification() {
        let src = r#"
            type nat = O | S of nat
            interface F = sig
              type t
              val fold : (nat -> t -> t) -> t -> t -> t
            end
        "#;
        let program = parse_program(src).unwrap();
        let elaborated = program.elaborate().unwrap();
        let iface = Interface::from_decl(program.interface().unwrap(), &elaborated.tyenv).unwrap();
        assert!(!iface.is_first_order());
        assert!(iface.op("fold").unwrap().mentions_abstract());
    }

    #[test]
    fn unknown_types_are_rejected() {
        let src = r#"
            interface F = sig
              type t
              val get : t -> widget
            end
        "#;
        let program = parse_program(src).unwrap();
        let elaborated = program.elaborate().unwrap();
        let err =
            Interface::from_decl(program.interface().unwrap(), &elaborated.tyenv).unwrap_err();
        assert!(err.to_string().contains("widget"));
    }
}
