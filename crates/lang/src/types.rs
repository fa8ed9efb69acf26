//! Types and algebraic-data-type environments.
//!
//! The type language follows §3.1 of the paper: a base of declared
//! (monomorphic, possibly recursive) algebraic data types, a single
//! designated abstract type `α` (written `t` in the surface syntax of
//! interfaces), products, and first-order arrows.  "0-order" types (`σ`) are
//! those containing no arrows; module operations have "1st-order" types (`τ`)
//! whose argument positions are 0-order.  The implementation additionally
//! allows higher-order operation types (§4.2); helpers below classify types
//! accordingly.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use crate::error::TypeError;
use crate::symbol::Symbol;
use crate::util::IdHashBuilder;

/// The reserved name of the builtin machine-integer type.  `int` is not an
/// algebraic data type — it has no constructors and infinitely many values —
/// so it lives outside the [`TypeEnv`] declaration table and is special-cased
/// wherever declaredness or inhabitation is queried.
pub const INT_TYPE_NAME: &str = "int";

/// A type of the object language.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Type {
    /// A declared algebraic data type, referenced by name (e.g. `nat`, `bool`,
    /// `list`).
    Named(Symbol),
    /// The designated abstract type `α` (surface syntax `t`).  Only meaningful
    /// inside interface signatures and specifications; it is substituted away
    /// (see [`Type::subst_abstract`]) before type checking module bodies.
    Abstract,
    /// An n-ary product type.  `Tuple(vec![])` is the unit type.
    Tuple(Vec<Type>),
    /// A function type.
    Arrow(Box<Type>, Box<Type>),
}

impl Type {
    /// The builtin boolean type.
    pub fn bool() -> Type {
        Type::Named(Symbol::new("bool"))
    }

    /// A named type.
    pub fn named(name: &str) -> Type {
        Type::Named(Symbol::new(name))
    }

    /// The builtin machine-integer type.
    pub fn int() -> Type {
        Type::Named(Symbol::new(INT_TYPE_NAME))
    }

    /// Returns `true` if this is the builtin machine-integer type.
    pub fn is_int(&self) -> bool {
        matches!(self, Type::Named(n) if n.as_str() == INT_TYPE_NAME)
    }

    /// The unit type (empty tuple).
    pub fn unit() -> Type {
        Type::Tuple(Vec::new())
    }

    /// A function type `a -> b`.
    pub fn arrow(a: Type, b: Type) -> Type {
        Type::Arrow(Box::new(a), Box::new(b))
    }

    /// Builds the type `a1 -> a2 -> ... -> ret`.
    pub fn arrows(args: impl IntoIterator<Item = Type>, ret: Type) -> Type {
        let args: Vec<Type> = args.into_iter().collect();
        args.into_iter()
            .rev()
            .fold(ret, |acc, a| Type::arrow(a, acc))
    }

    /// A pair type.
    pub fn pair(a: Type, b: Type) -> Type {
        Type::Tuple(vec![a, b])
    }

    /// Returns `true` if the type contains no arrows ("0-order", `σ` in the
    /// paper).
    pub fn is_zero_order(&self) -> bool {
        match self {
            Type::Named(_) | Type::Abstract => true,
            Type::Tuple(ts) => ts.iter().all(Type::is_zero_order),
            Type::Arrow(_, _) => false,
        }
    }

    /// Returns `true` if the type is first-order in the paper's sense: every
    /// argument position of every arrow is 0-order.
    pub fn is_first_order(&self) -> bool {
        match self {
            Type::Named(_) | Type::Abstract => true,
            Type::Tuple(ts) => ts.iter().all(Type::is_first_order),
            Type::Arrow(a, b) => a.is_zero_order() && b.is_first_order(),
        }
    }

    /// Returns `true` if the abstract type occurs anywhere in this type.
    pub fn mentions_abstract(&self) -> bool {
        match self {
            Type::Abstract => true,
            Type::Named(_) => false,
            Type::Tuple(ts) => ts.iter().any(Type::mentions_abstract),
            Type::Arrow(a, b) => a.mentions_abstract() || b.mentions_abstract(),
        }
    }

    /// Substitutes the concrete type `concrete` for every occurrence of the
    /// abstract type (`τ[α ↦ τc]` in the paper).
    pub fn subst_abstract(&self, concrete: &Type) -> Type {
        match self {
            Type::Abstract => concrete.clone(),
            Type::Named(n) => Type::Named(*n),
            Type::Tuple(ts) => Type::Tuple(ts.iter().map(|t| t.subst_abstract(concrete)).collect()),
            Type::Arrow(a, b) => {
                Type::arrow(a.subst_abstract(concrete), b.subst_abstract(concrete))
            }
        }
    }

    /// Splits a (possibly nullary) function type into its argument types and
    /// final return type: `a -> b -> c` becomes `([a, b], c)`.
    pub fn uncurry(&self) -> (Vec<&Type>, &Type) {
        let mut args = Vec::new();
        let mut cur = self;
        while let Type::Arrow(a, b) = cur {
            args.push(a.as_ref());
            cur = b.as_ref();
        }
        (args, cur)
    }

    /// Number of syntactic nodes in the type, used for diagnostics.
    pub fn size(&self) -> usize {
        match self {
            Type::Named(_) | Type::Abstract => 1,
            Type::Tuple(ts) => 1 + ts.iter().map(Type::size).sum::<usize>(),
            Type::Arrow(a, b) => 1 + a.size() + b.size(),
        }
    }
}

impl fmt::Display for Type {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn atom(t: &Type, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match t {
                Type::Named(n) => write!(f, "{n}"),
                Type::Abstract => f.write_str("t"),
                Type::Tuple(ts) if ts.is_empty() => f.write_str("unit"),
                _ => {
                    f.write_str("(")?;
                    fmt::Display::fmt(t, f)?;
                    f.write_str(")")
                }
            }
        }
        match self {
            Type::Named(_) | Type::Abstract => atom(self, f),
            Type::Tuple(ts) if ts.is_empty() => f.write_str("unit"),
            Type::Tuple(ts) => {
                for (i, t) in ts.iter().enumerate() {
                    if i > 0 {
                        f.write_str(" * ")?;
                    }
                    match t {
                        Type::Tuple(inner) if !inner.is_empty() => atom(t, f)?,
                        Type::Arrow(_, _) => atom(t, f)?,
                        _ => fmt::Display::fmt(t, f)?,
                    }
                }
                Ok(())
            }
            Type::Arrow(a, b) => {
                match a.as_ref() {
                    Type::Arrow(_, _) => atom(a, f)?,
                    _ => fmt::Display::fmt(a, f)?,
                }
                f.write_str(" -> ")?;
                fmt::Display::fmt(b, f)
            }
        }
    }
}

/// A single constructor declaration, e.g. `Cons of nat * list`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CtorDecl {
    /// The constructor name (capitalised by convention).
    pub name: Symbol,
    /// Argument types, in order.  Empty for nullary constructors.
    pub args: Vec<Type>,
}

impl CtorDecl {
    /// A new constructor declaration.
    pub fn new(name: &str, args: Vec<Type>) -> Self {
        CtorDecl {
            name: Symbol::new(name),
            args,
        }
    }

    /// Number of arguments of the constructor.
    pub fn arity(&self) -> usize {
        self.args.len()
    }
}

/// A data type declaration, e.g. `type list = Nil | Cons of nat * list`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DataDecl {
    /// The declared type name.
    pub name: Symbol,
    /// Its constructors.
    pub ctors: Vec<CtorDecl>,
}

impl DataDecl {
    /// A new data type declaration.
    pub fn new(name: &str, ctors: Vec<CtorDecl>) -> Self {
        DataDecl {
            name: Symbol::new(name),
            ctors,
        }
    }

    /// The builtin `bool` declaration (`True | False`).
    pub fn builtin_bool() -> DataDecl {
        DataDecl::new(
            "bool",
            vec![
                CtorDecl::new("True", vec![]),
                CtorDecl::new("False", vec![]),
            ],
        )
    }
}

/// Everything the constructor environment knows about one constructor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CtorInfo {
    /// The data type the constructor belongs to.
    pub data_type: Symbol,
    /// Its argument types.
    pub args: Vec<Type>,
    /// Index of the constructor within its data type declaration.
    pub index: usize,
}

/// An environment of algebraic data type declarations, with a constructor
/// index for fast lookup.
///
/// The tables are shared behind one `Arc`, so cloning an environment is a
/// reference-count bump; [`TypeEnv::declare`] copies them first if they are
/// shared.  Both indexes hash names with the deterministic
/// [`IdHasher`](crate::util::IdHasher): the interpreter looks a constructor
/// up on every constructor evaluation to check its arity.
///
/// The builtin `bool` type is always present.
#[derive(Debug, Clone, Default)]
pub struct TypeEnv(Arc<Tables>);

#[derive(Debug, Clone, Default)]
struct Tables {
    decls: Vec<DataDecl>,
    index: HashMap<Symbol, usize, IdHashBuilder>,
    ctors: HashMap<Symbol, CtorInfo, IdHashBuilder>,
}

impl TypeEnv {
    /// Creates a type environment containing only the builtin `bool` type.
    pub fn new() -> Self {
        let mut env = TypeEnv::default();
        env.declare(DataDecl::builtin_bool())
            .expect("builtin bool declaration is well formed");
        env
    }

    /// Adds a data type declaration, failing on duplicate type or constructor
    /// names or references to unknown types in constructor arguments that are
    /// neither previously declared nor the type being declared (mutual
    /// recursion between distinct declarations is not supported, matching the
    /// paper's benchmarks).
    pub fn declare(&mut self, decl: DataDecl) -> Result<(), TypeError> {
        if self.0.index.contains_key(&decl.name) || decl.name.as_str() == INT_TYPE_NAME {
            return Err(TypeError::DuplicateDefinition(decl.name));
        }
        for ctor in &decl.ctors {
            if self.0.ctors.contains_key(&ctor.name) {
                return Err(TypeError::DuplicateDefinition(ctor.name));
            }
            for arg in &ctor.args {
                self.check_wellformed_with(arg, Some(&decl.name))?;
            }
        }
        let tables = Arc::make_mut(&mut self.0);
        let index = tables.decls.len();
        tables.index.insert(decl.name, index);
        for (i, ctor) in decl.ctors.iter().enumerate() {
            tables.ctors.insert(
                ctor.name,
                CtorInfo {
                    data_type: decl.name,
                    args: ctor.args.clone(),
                    index: i,
                },
            );
        }
        tables.decls.push(decl);
        Ok(())
    }

    /// All declarations, in declaration order (`bool` first).
    pub fn decls(&self) -> &[DataDecl] {
        &self.0.decls
    }

    /// Looks up a data type declaration by name.
    pub fn lookup(&self, name: &Symbol) -> Option<&DataDecl> {
        self.0.index.get(name).map(|&i| &self.0.decls[i])
    }

    /// Looks up constructor information by constructor name.
    pub fn ctor(&self, name: &Symbol) -> Option<&CtorInfo> {
        self.0.ctors.get(name)
    }

    /// Returns `true` if `name` is a declared data type (or the builtin
    /// `int`, which is always available).
    pub fn is_declared(&self, name: &Symbol) -> bool {
        self.0.index.contains_key(name) || name.as_str() == INT_TYPE_NAME
    }

    /// Checks that a type only references declared data types and contains no
    /// abstract type.
    pub fn check_wellformed(&self, ty: &Type) -> Result<(), TypeError> {
        self.check_wellformed_with(ty, None)
    }

    fn check_wellformed_with(&self, ty: &Type, pending: Option<&Symbol>) -> Result<(), TypeError> {
        match ty {
            Type::Named(n) => {
                if self.0.index.contains_key(n) || pending == Some(n) || n.as_str() == INT_TYPE_NAME
                {
                    Ok(())
                } else {
                    Err(TypeError::UnknownType(*n))
                }
            }
            Type::Abstract => Err(TypeError::UnexpectedAbstractType(
                "data type declaration".to_string(),
            )),
            Type::Tuple(ts) => ts
                .iter()
                .try_for_each(|t| self.check_wellformed_with(t, pending)),
            Type::Arrow(a, b) => {
                self.check_wellformed_with(a, pending)?;
                self.check_wellformed_with(b, pending)
            }
        }
    }

    /// Returns `true` if the given 0-order type has at least one value that
    /// can be built in finitely many constructor applications.
    pub fn is_inhabited(&self, ty: &Type) -> bool {
        self.inhabited_inner(ty, &mut Vec::new())
    }

    fn inhabited_inner(&self, ty: &Type, visiting: &mut Vec<Symbol>) -> bool {
        match ty {
            Type::Abstract => false,
            Type::Arrow(_, _) => true,
            Type::Tuple(ts) => ts.iter().all(|t| self.inhabited_inner(t, visiting)),
            Type::Named(n) => {
                if n.as_str() == INT_TYPE_NAME {
                    return true;
                }
                if visiting.contains(n) {
                    return false;
                }
                let Some(decl) = self.lookup(n) else {
                    return false;
                };
                visiting.push(*n);
                let ok = decl
                    .ctors
                    .iter()
                    .any(|c| c.args.iter().all(|a| self.inhabited_inner(a, visiting)));
                visiting.pop();
                ok
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nat_list_env() -> TypeEnv {
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
        env
    }

    #[test]
    fn builtin_bool_is_present() {
        let env = TypeEnv::new();
        assert!(env.is_declared(&Symbol::new("bool")));
        assert_eq!(
            env.ctor(&Symbol::new("True")).unwrap().data_type,
            Symbol::new("bool")
        );
    }

    #[test]
    fn declare_and_lookup() {
        let env = nat_list_env();
        assert_eq!(env.lookup(&Symbol::new("list")).unwrap().ctors.len(), 2);
        let cons = env.ctor(&Symbol::new("Cons")).unwrap();
        assert_eq!(cons.args.len(), 2);
        assert_eq!(cons.data_type, Symbol::new("list"));
    }

    #[test]
    fn duplicate_declaration_rejected() {
        let mut env = nat_list_env();
        let err = env
            .declare(DataDecl::new("nat", vec![CtorDecl::new("Z", vec![])]))
            .unwrap_err();
        assert_eq!(err, TypeError::DuplicateDefinition(Symbol::new("nat")));
        let err = env
            .declare(DataDecl::new("nat2", vec![CtorDecl::new("O", vec![])]))
            .unwrap_err();
        assert_eq!(err, TypeError::DuplicateDefinition(Symbol::new("O")));
    }

    #[test]
    fn unknown_argument_type_rejected() {
        let mut env = TypeEnv::new();
        let err = env
            .declare(DataDecl::new(
                "wrap",
                vec![CtorDecl::new("Wrap", vec![Type::named("zzz")])],
            ))
            .unwrap_err();
        assert_eq!(err, TypeError::UnknownType(Symbol::new("zzz")));
    }

    #[test]
    fn recursive_declaration_allowed() {
        let env = nat_list_env();
        assert!(env.is_declared(&Symbol::new("nat")));
    }

    #[test]
    fn order_classification() {
        let nat = Type::named("nat");
        let t1 = Type::arrow(nat.clone(), Type::bool());
        assert!(nat.is_zero_order());
        assert!(!t1.is_zero_order());
        assert!(t1.is_first_order());
        let higher = Type::arrow(t1.clone(), Type::bool());
        assert!(!higher.is_first_order());
        assert!(Type::pair(nat.clone(), nat.clone()).is_zero_order());
    }

    #[test]
    fn abstract_substitution() {
        let sig = Type::arrows(vec![Type::Abstract, Type::named("nat")], Type::Abstract);
        let concrete = sig.subst_abstract(&Type::named("list"));
        assert_eq!(
            concrete,
            Type::arrows(
                vec![Type::named("list"), Type::named("nat")],
                Type::named("list")
            )
        );
        assert!(sig.mentions_abstract());
        assert!(!concrete.mentions_abstract());
    }

    #[test]
    fn uncurry_splits_arrows() {
        let ty = Type::arrows(vec![Type::named("nat"), Type::bool()], Type::named("list"));
        let (args, ret) = ty.uncurry();
        assert_eq!(args.len(), 2);
        assert_eq!(ret, &Type::named("list"));
    }

    #[test]
    fn display_round_trips_shapes() {
        let ty = Type::arrow(
            Type::pair(Type::named("nat"), Type::named("nat")),
            Type::arrow(Type::named("nat"), Type::bool()),
        );
        assert_eq!(ty.to_string(), "nat * nat -> nat -> bool");
        let ho = Type::arrow(
            Type::arrow(Type::named("nat"), Type::named("nat")),
            Type::bool(),
        );
        assert_eq!(ho.to_string(), "(nat -> nat) -> bool");
    }

    #[test]
    fn inhabitedness() {
        let env = nat_list_env();
        assert!(env.is_inhabited(&Type::named("nat")));
        assert!(env.is_inhabited(&Type::named("list")));
        let mut env2 = TypeEnv::new();
        env2.declare(DataDecl::new(
            "stream",
            vec![CtorDecl::new(
                "SCons",
                vec![Type::named("bool"), Type::named("stream")],
            )],
        ))
        .unwrap();
        assert!(!env2.is_inhabited(&Type::named("stream")));
    }
}
