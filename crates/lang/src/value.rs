//! Runtime values and evaluation environments.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use crate::ast::Expr;
use crate::error::EvalError;
use crate::symbol::Symbol;

/// A runtime closure: a suspended function body together with the environment
/// it was created in.  Recursive closures additionally remember their own
/// name so applications can rebind it.  The body is shared, never copied:
/// every closure a `fun`/`fix` node evaluates to holds the node's own
/// `Arc<Expr>`, so creating one costs a refcount bump however large the
/// body is.
///
/// The body is slot-resolved ([`crate::resolve`]): its lexically-bound
/// variable references are [`crate::ast::Expr::Local`] slot indices.
/// Application binds the (closure and) argument on the interpreter's value
/// stack; slots below that frame read the [`Locals`] captured at creation.
/// Free (global) variables resolve through `env`.
#[derive(Debug, Clone)]
pub struct Closure {
    /// The parameter name.
    pub param: Symbol,
    /// The function body, shared with the `fun`/`fix` node it came from.
    pub body: Arc<Expr>,
    /// The captured environment.
    pub env: Env,
    /// For recursive closures, the function's own name.
    pub rec_name: Option<Symbol>,
    /// The captured local-slot stack.
    pub locals: Locals,
}

/// A host-implemented function value.
///
/// Native functions exist so that host code (in particular the verifier's
/// higher-order contract instrumentation, §4.2 of the paper) can observe the
/// values flowing across a module boundary: the host closure is invoked with
/// the fully collected argument list and may log or check them before
/// delegating to object-level code.
pub struct NativeFn {
    /// A diagnostic name.
    pub name: Symbol,
    /// How many curried arguments the function expects before being invoked.
    pub arity: usize,
    /// Arguments collected by partial applications so far.
    pub collected: Vec<Value>,
    /// The host implementation, called once all arguments are available.
    #[allow(clippy::type_complexity)]
    pub func: Arc<dyn Fn(&[Value]) -> Result<Value, EvalError> + Send + Sync>,
}

impl fmt::Debug for NativeFn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NativeFn")
            .field("name", &self.name)
            .field("arity", &self.arity)
            .field("collected", &self.collected)
            .finish_non_exhaustive()
    }
}

/// A runtime value: a constructor tree, a tuple, a closure, or a
/// host-implemented function.
///
/// First-order values (no closures) support structural equality, hashing and
/// size measurement; these are the values the enumerative verifier and the
/// synthesizers manipulate.
///
/// Constructor and tuple children are stored in a [`Slab`], so **cloning a
/// value is O(1)**: a tag copy plus at most one reference-count bump.  This
/// matters enormously on the interpreter's hot path: every variable lookup,
/// every pattern binding and every pool filter clones values.  Childless
/// constructors (`True`, `O`, `Nil`, `Leaf`, ...) and `()` have an empty
/// slab and a `Copy` [`Symbol`], so creating, cloning and dropping them
/// touches neither a reference count nor the allocator.
#[derive(Debug, Clone)]
pub enum Value {
    /// A saturated constructor application.
    Ctor(Symbol, Slab),
    /// A tuple (the empty tuple is the unit value).
    Tuple(Slab),
    /// A machine integer (the builtin `int` type of the numeric/trace
    /// workload).  Unlike Peano naturals these are wide and shallow: a
    /// single node regardless of magnitude, with the enumeration size
    /// measure `1 + |i|` so bounded verification still sweeps small
    /// magnitudes first.
    Int(i64),
    /// A function value.
    Closure(Arc<Closure>),
    /// A host-implemented function value.
    Native(Arc<NativeFn>),
}

/// The children of a constructor or tuple value: a shared, immutable slice
/// that holds no allocation when empty.
///
/// `Slab` dereferences to `[Value]`, and its equality, hashing and `Debug`
/// output are those of the slice, so a value hashes and prints the same
/// whether or not it has children.  Clones of one non-empty slab share it,
/// and equality short-circuits on shared slabs.
#[derive(Clone, Default)]
pub struct Slab(Option<Arc<[Value]>>);

impl Slab {
    /// The empty slab (no allocation).
    pub const EMPTY: Slab = Slab(None);

    /// Whether both slabs are clones of one allocation.
    fn shares(&self, other: &Slab) -> bool {
        matches!((&self.0, &other.0), (Some(a), Some(b)) if Arc::ptr_eq(a, b))
    }

    /// [`Value::first_order_eq`] over two child lists, in one walk: children
    /// compare pairwise, and after the first mismatch the rest of both lists
    /// is only checked for closures.  A shared slab is checked once.
    fn first_order_eq(&self, other: &Slab) -> Option<bool> {
        if self.shares(other) {
            return self.iter().all(Value::is_first_order).then_some(true);
        }
        let rest_first_order = |from: usize| {
            self[from..]
                .iter()
                .chain(&other[from..])
                .all(Value::is_first_order)
        };
        for (i, (a, b)) in self.iter().zip(other.iter()).enumerate() {
            if !a.first_order_eq(b)? {
                return rest_first_order(i + 1).then_some(false);
            }
        }
        let common = self.len().min(other.len());
        rest_first_order(common).then_some(self.len() == other.len())
    }
}

impl std::ops::Deref for Slab {
    type Target = [Value];

    fn deref(&self) -> &[Value] {
        self.0.as_deref().unwrap_or(&[])
    }
}

impl From<Vec<Value>> for Slab {
    fn from(values: Vec<Value>) -> Slab {
        if values.is_empty() {
            Slab::EMPTY
        } else {
            Slab(Some(values.into()))
        }
    }
}

impl<const N: usize> From<[Value; N]> for Slab {
    fn from(values: [Value; N]) -> Slab {
        if N == 0 {
            Slab::EMPTY
        } else {
            Slab(Some(Arc::new(values)))
        }
    }
}

impl FromIterator<Value> for Slab {
    fn from_iter<I: IntoIterator<Item = Value>>(iter: I) -> Slab {
        let mut iter = iter.into_iter().peekable();
        if iter.peek().is_none() {
            return Slab::EMPTY;
        }
        Slab(Some(iter.collect()))
    }
}

impl PartialEq for Slab {
    fn eq(&self, other: &Slab) -> bool {
        match (&self.0, &other.0) {
            (Some(a), Some(b)) => Arc::ptr_eq(a, b) || a == b,
            (a, b) => a.is_none() && b.is_none(),
        }
    }
}

impl Eq for Slab {}

impl Hash for Slab {
    fn hash<H: Hasher>(&self, state: &mut H) {
        (**self).hash(state);
    }
}

impl fmt::Debug for Slab {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

impl Value {
    /// A constructor application over owned children.
    pub fn ctor_of(name: Symbol, args: Vec<Value>) -> Value {
        Value::Ctor(name, args.into())
    }

    /// A tuple over owned children.
    pub fn tuple_of(items: Vec<Value>) -> Value {
        Value::Tuple(items.into())
    }

    /// The boolean value `True`.
    pub fn tru() -> Value {
        Value::Ctor(Symbol::TRUE, Slab::EMPTY)
    }

    /// The boolean value `False`.
    pub fn fls() -> Value {
        Value::Ctor(Symbol::FALSE, Slab::EMPTY)
    }

    /// A boolean value.
    pub fn bool(b: bool) -> Value {
        if b {
            Value::tru()
        } else {
            Value::fls()
        }
    }

    /// The Peano natural for `n` (`S (S ... O)`).
    pub fn nat(n: u64) -> Value {
        let mut v = Value::Ctor(Symbol::ZERO, Slab::EMPTY);
        for _ in 0..n {
            v = Value::Ctor(Symbol::SUCC, Slab::from([v]));
        }
        v
    }

    /// A `list` of Peano naturals built from `Cons`/`Nil`.
    pub fn nat_list(items: &[u64]) -> Value {
        let mut v = Value::Ctor(Symbol::NIL, Slab::EMPTY);
        for &n in items.iter().rev() {
            v = Value::Ctor(Symbol::CONS, Slab::from([Value::nat(n), v]));
        }
        v
    }

    /// A machine-integer value of the builtin `int` type.
    pub fn int(i: i64) -> Value {
        Value::Int(i)
    }

    /// Interprets the value as a machine integer.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The unit value.
    pub fn unit() -> Value {
        Value::Tuple(Slab::EMPTY)
    }

    /// A pair value.
    pub fn pair(a: Value, b: Value) -> Value {
        Value::Tuple(Slab::from([a, b]))
    }

    /// Interprets the value as a boolean, if it is `True` or `False`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Ctor(c, args) if args.is_empty() && *c == Symbol::TRUE => Some(true),
            Value::Ctor(c, args) if args.is_empty() && *c == Symbol::FALSE => Some(false),
            _ => None,
        }
    }

    /// Interprets the value as a Peano natural, if it is built from `S`/`O`.
    pub fn as_nat(&self) -> Option<u64> {
        let mut n = 0u64;
        let mut cur = self;
        loop {
            match cur {
                Value::Ctor(c, args) if *c == Symbol::ZERO && args.is_empty() => return Some(n),
                Value::Ctor(c, args) if *c == Symbol::SUCC && args.len() == 1 => {
                    n += 1;
                    cur = &args[0];
                }
                _ => return None,
            }
        }
    }

    /// Interprets the value as a `Cons`/`Nil` list of values.
    pub fn as_list(&self) -> Option<Vec<&Value>> {
        let mut out = Vec::new();
        let mut cur = self;
        loop {
            match cur {
                Value::Ctor(c, args) if *c == Symbol::NIL && args.is_empty() => return Some(out),
                Value::Ctor(c, args) if *c == Symbol::CONS && args.len() == 2 => {
                    out.push(&args[0]);
                    cur = &args[1];
                }
                _ => return None,
            }
        }
    }

    /// Builds a host-implemented function value of the given arity.
    pub fn native(
        name: &str,
        arity: usize,
        func: impl Fn(&[Value]) -> Result<Value, EvalError> + Send + Sync + 'static,
    ) -> Value {
        Value::Native(Arc::new(NativeFn {
            name: Symbol::new(name),
            arity,
            collected: Vec::new(),
            func: Arc::new(func),
        }))
    }

    /// Structural equality of two first-order values: `None` when either
    /// value holds a closure or a native function anywhere, whatever the
    /// other holds.  One walk does both jobs: it equals
    /// `(self.is_first_order() && other.is_first_order()).then(|| self == other)`.
    pub fn first_order_eq(&self, other: &Value) -> Option<bool> {
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => Some(a == b),
            (Value::Ctor(c1, a1), Value::Ctor(c2, a2)) if c1 == c2 => a1.first_order_eq(a2),
            (Value::Tuple(a1), Value::Tuple(a2)) => a1.first_order_eq(a2),
            _ => (self.is_first_order() && other.is_first_order()).then_some(false),
        }
    }

    /// `true` when the value contains no closures or native functions.
    pub fn is_first_order(&self) -> bool {
        match self {
            Value::Closure(_) | Value::Native(_) => false,
            Value::Int(_) => true,
            Value::Ctor(_, args) | Value::Tuple(args) => args.iter().all(Value::is_first_order),
        }
    }

    /// Number of constructor and tuple nodes in the value — the "AST node"
    /// size measure the paper's verifier bounds enumeration by.
    pub fn size(&self) -> usize {
        match self {
            Value::Closure(_) | Value::Native(_) => 1,
            // Integers weigh their magnitude so size-bounded enumeration
            // sweeps small magnitudes first (size s covers ±(s-1)).
            Value::Int(i) => 1 + i.unsigned_abs() as usize,
            Value::Ctor(_, args) | Value::Tuple(args) => {
                1 + args.iter().map(Value::size).sum::<usize>()
            }
        }
    }

    /// All strict subvalues (transitively), in pre-order.  Used for the trace
    /// completeness closure of §4.3.
    pub fn strict_subvalues(&self) -> Vec<Value> {
        let mut out = Vec::new();
        fn walk(v: &Value, out: &mut Vec<Value>) {
            if let Value::Ctor(_, args) | Value::Tuple(args) = v {
                for a in args.iter() {
                    out.push(a.clone());
                    walk(a, out);
                }
            }
        }
        walk(self, &mut out);
        out
    }

    /// Checks whether the (first-order part of the) value inhabits `ty`
    /// under the given data type declarations.  Closures and native functions
    /// never have a 0-order type.
    pub fn has_type(&self, tyenv: &crate::types::TypeEnv, ty: &crate::types::Type) -> bool {
        use crate::types::Type;
        match (self, ty) {
            (Value::Ctor(c, args), Type::Named(_)) => match tyenv.ctor(c) {
                Some(info) => {
                    Type::Named(info.data_type) == *ty
                        && info.args.len() == args.len()
                        && args
                            .iter()
                            .zip(&info.args)
                            .all(|(a, t)| a.has_type(tyenv, t))
                }
                None => false,
            },
            (Value::Tuple(items), Type::Tuple(tys)) => {
                items.len() == tys.len() && items.iter().zip(tys).all(|(a, t)| a.has_type(tyenv, t))
            }
            (Value::Int(_), Type::Named(n)) => n.as_str() == crate::types::INT_TYPE_NAME,
            _ => false,
        }
    }

    /// Converts the value into the expression that denotes it.  Closures
    /// cannot be converted and yield `None`.
    pub fn to_expr(&self) -> Option<Expr> {
        match self {
            Value::Ctor(c, args) => {
                let args: Option<Vec<Expr>> = args.iter().map(Value::to_expr).collect();
                Some(Expr::Ctor(*c, args?))
            }
            Value::Tuple(args) => {
                let args: Option<Vec<Expr>> = args.iter().map(Value::to_expr).collect();
                Some(Expr::Tuple(args?))
            }
            Value::Int(i) => Some(Expr::Int(*i)),
            Value::Closure(_) | Value::Native(_) => None,
        }
    }
}

// Compile-time guarantee that the whole runtime representation can be handed
// across threads: the parallel verifier shares pools of `Value`s and
// candidate `Expr`s between workers.
#[allow(dead_code)]
fn _assert_runtime_types_are_thread_safe() {
    fn is_send_sync<T: Send + Sync>() {}
    is_send_sync::<Value>();
    is_send_sync::<Env>();
    is_send_sync::<Locals>();
    is_send_sync::<Closure>();
    is_send_sync::<NativeFn>();
    is_send_sync::<Expr>();
    is_send_sync::<Symbol>();
}

// Atoms stay small: a symbol is one pointer, and a value is a tag plus a
// symbol plus a (possibly empty) slab.
const _: () = assert!(std::mem::size_of::<Symbol>() == 8);
const _: () = assert!(std::mem::size_of::<Value>() <= 32);

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            // Shared slabs (clones of the same pooled value) compare equal
            // without walking the tree.
            (Value::Ctor(c1, a1), Value::Ctor(c2, a2)) => c1 == c2 && a1 == a2,
            (Value::Tuple(a1), Value::Tuple(a2)) => a1 == a2,
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Closure(c1), Value::Closure(c2)) => Arc::ptr_eq(c1, c2),
            (Value::Native(n1), Value::Native(n2)) => Arc::ptr_eq(n1, n2),
            _ => false,
        }
    }
}

impl Eq for Value {}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Value::Ctor(c, args) => {
                0u8.hash(state);
                c.hash(state);
                args.hash(state);
            }
            Value::Tuple(args) => {
                1u8.hash(state);
                args.hash(state);
            }
            Value::Closure(c) => {
                2u8.hash(state);
                (Arc::as_ptr(c) as usize).hash(state);
            }
            Value::Native(n) => {
                3u8.hash(state);
                (Arc::as_ptr(n) as *const () as usize).hash(state);
            }
            Value::Int(i) => {
                4u8.hash(state);
                i.hash(state);
            }
        }
    }
}

impl fmt::Display for Value {
    /// Peano naturals print as decimal numbers, `Cons`/`Nil` lists print as
    /// `[a; b; c]`, everything else prints in constructor form.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        crate::pretty::fmt_value(self, f)
    }
}

/// A persistent evaluation environment, implemented as an immutable linked
/// list so that closures can capture it cheaply.
#[derive(Clone, Default)]
pub struct Env(Option<Arc<EnvNode>>);

struct EnvNode {
    name: Symbol,
    value: Value,
    rest: Env,
}

impl Env {
    /// The empty environment.
    pub fn empty() -> Env {
        Env(None)
    }

    /// Returns a new environment with `name` bound to `value`, shadowing any
    /// previous binding.
    pub fn bind(&self, name: Symbol, value: Value) -> Env {
        Env(Some(Arc::new(EnvNode {
            name,
            value,
            rest: self.clone(),
        })))
    }

    /// Looks up the most recent binding of `name`.
    pub fn lookup(&self, name: &Symbol) -> Option<&Value> {
        let mut cur = self;
        while let Some(node) = &cur.0 {
            if &node.name == name {
                return Some(&node.value);
            }
            cur = &node.rest;
        }
        None
    }

    /// `true` when the environment has no bindings.
    pub fn is_empty(&self) -> bool {
        self.0.is_none()
    }

    /// A cheap identity token for this environment: the address of its head
    /// node (`0` when empty).  Two `Env` clones share an identity; two
    /// independently constructed environments do not, even when their
    /// bindings are structurally equal.  Caches keyed by "which global
    /// environment were these values evaluated in" (the verifier's
    /// function-candidate pool) use this instead of deep comparison.
    pub fn identity(&self) -> usize {
        self.0.as_ref().map_or(0, |node| Arc::as_ptr(node) as usize)
    }

    /// Iterates over the bindings, most recent first.
    pub fn iter(&self) -> impl Iterator<Item = (&Symbol, &Value)> {
        EnvIter { cur: self }
    }

    /// Number of (possibly shadowed) bindings.
    pub fn len(&self) -> usize {
        self.iter().count()
    }
}

/// A persistent chunked stack of captured local-slot values, indexed
/// de-Bruijn style (slot `0` is the most recently bound value).
///
/// The interpreter binds values on a plain value stack that lives for one
/// evaluation (see [`crate::eval`]).  Only a closure outlives it, so
/// evaluating a `fun`/`fix` copies the running frame — the slots bound
/// since the enclosing closure was entered — onto that closure's own
/// captured chain with [`Locals::capture`]; slot reads the frame does not
/// cover continue here.  Compared with [`Env`], which walks a linked list
/// comparing interned names (and walks past every shadowed and global
/// binding on the way), `Locals` jumps straight to the requested slot with
/// no name comparisons at all.
///
/// The stack is persistent (chunks are immutable and `Arc`-shared) so that
/// closures can capture it as cheaply as they capture an [`Env`].  A chunk
/// is stored inline in its node, sized exactly to the values it holds, so
/// a capture costs one allocation per four slots.
#[derive(Clone, Default)]
pub struct Locals(Option<Arc<LocalsNode<[Value]>>>);

/// One chunk of a [`Locals`] stack.  Nodes are built as
/// `LocalsNode<[Value; N]>` and unsized to `LocalsNode<[Value]>`.
struct LocalsNode<T: ?Sized> {
    rest: Locals,
    /// The values of one chunk, oldest first (the newest value is
    /// `chunk.last()`, i.e. slot `0`).
    chunk: T,
}

/// The most values [`Locals::capture`] puts in one node; longer frames are
/// split over several nodes, which leaves slot numbering unchanged.
const MAX_NODE_SLOTS: usize = 4;

impl Locals {
    /// The empty stack.
    pub fn empty() -> Locals {
        Locals(None)
    }

    /// This stack with clones of `frame` on top: its last value becomes
    /// slot `0`.  Clones go into nodes of at most four slots each; an empty
    /// frame adds no node, so slot indices always address a value.
    pub fn capture(&self, frame: &[Value]) -> Locals {
        fn node<const N: usize>(rest: Locals, values: &[Value]) -> Locals {
            let chunk: [Value; N] = std::array::from_fn(|i| values[i].clone());
            let node: Arc<LocalsNode<[Value]>> = Arc::new(LocalsNode { rest, chunk });
            Locals(Some(node))
        }
        frame
            .chunks(MAX_NODE_SLOTS)
            .fold(self.clone(), |locals, chunk| match chunk.len() {
                1 => node::<1>(locals, chunk),
                2 => node::<2>(locals, chunk),
                3 => node::<3>(locals, chunk),
                _ => node::<MAX_NODE_SLOTS>(locals, chunk),
            })
    }

    /// The value at slot `index` (`0` = most recently bound).
    pub fn get(&self, index: u32) -> Option<&Value> {
        let mut remaining = index as usize;
        let mut cur = self;
        while let Some(node) = &cur.0 {
            if remaining < node.chunk.len() {
                return Some(&node.chunk[node.chunk.len() - 1 - remaining]);
            }
            remaining -= node.chunk.len();
            cur = &node.rest;
        }
        None
    }
}

impl fmt::Debug for Locals {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut list = f.debug_list();
        let mut cur = self;
        while let Some(node) = &cur.0 {
            for value in node.chunk.iter().rev() {
                list.entry(&format!("{value}"));
            }
            cur = &node.rest;
        }
        list.finish()
    }
}

struct EnvIter<'a> {
    cur: &'a Env,
}

impl<'a> Iterator for EnvIter<'a> {
    type Item = (&'a Symbol, &'a Value);

    fn next(&mut self) -> Option<Self::Item> {
        let node = self.cur.0.as_ref()?;
        self.cur = &node.rest;
        Some((&node.name, &node.value))
    }
}

impl fmt::Debug for Env {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut map = f.debug_map();
        for (k, v) in self.iter() {
            map.entry(&k.as_str(), &format!("{v}"));
        }
        map.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nat_round_trip() {
        for n in 0..10 {
            assert_eq!(Value::nat(n).as_nat(), Some(n));
        }
        assert_eq!(Value::tru().as_nat(), None);
    }

    #[test]
    fn bool_round_trip() {
        assert_eq!(Value::bool(true).as_bool(), Some(true));
        assert_eq!(Value::bool(false).as_bool(), Some(false));
        assert_eq!(Value::nat(0).as_bool(), None);
    }

    #[test]
    fn nat_list_round_trip() {
        let v = Value::nat_list(&[1, 2, 3]);
        let items = v.as_list().unwrap();
        assert_eq!(items.len(), 3);
        assert_eq!(items[0].as_nat(), Some(1));
        assert_eq!(items[2].as_nat(), Some(3));
    }

    #[test]
    fn size_counts_nodes() {
        assert_eq!(Value::nat(0).size(), 1);
        assert_eq!(Value::nat(3).size(), 4);
        // [1] = Cons(S O, Nil) = 1 + (2 + 1) = 4
        assert_eq!(Value::nat_list(&[1]).size(), 4);
        assert_eq!(Value::pair(Value::nat(0), Value::nat(0)).size(), 3);
    }

    #[test]
    fn strict_subvalues_of_a_list() {
        let v = Value::nat_list(&[1]);
        let subs = v.strict_subvalues();
        // Cons(S O, Nil) has subvalues: S O, O, Nil
        assert!(subs.contains(&Value::nat(1)));
        assert!(subs.contains(&Value::nat(0)));
        assert!(subs.contains(&Value::nat_list(&[])));
        assert!(!subs.contains(&v));
    }

    #[test]
    fn structural_equality_and_hashing() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(Value::nat_list(&[1, 2]));
        assert!(set.contains(&Value::nat_list(&[1, 2])));
        assert!(!set.contains(&Value::nat_list(&[2, 1])));
    }

    #[test]
    fn env_binding_and_shadowing() {
        let env = Env::empty();
        assert!(env.is_empty());
        let env = env.bind(Symbol::new("x"), Value::nat(1));
        let env2 = env.bind(Symbol::new("x"), Value::nat(2));
        assert_eq!(env.lookup(&Symbol::new("x")), Some(&Value::nat(1)));
        assert_eq!(env2.lookup(&Symbol::new("x")), Some(&Value::nat(2)));
        assert_eq!(env2.len(), 2);
        assert_eq!(env2.lookup(&Symbol::new("y")), None);
    }

    #[test]
    fn locals_index_from_the_top() {
        let stack = Locals::empty();
        assert_eq!(stack.get(0), None);
        // One application frame [rec; arg] then a let frame [bound].
        let stack = stack.capture(&[Value::nat(10), Value::nat(11)]);
        let stack = stack.capture(&[Value::nat(12)]);
        assert_eq!(stack.get(0), Some(&Value::nat(12)));
        assert_eq!(stack.get(1), Some(&Value::nat(11)));
        assert_eq!(stack.get(2), Some(&Value::nat(10)));
        assert_eq!(stack.get(3), None);
        // Persistence: capturing onto a captured stack leaves it untouched.
        let captured = stack.clone();
        let extended = stack.capture(&[Value::nat(13)]);
        assert_eq!(captured.get(0), Some(&Value::nat(12)));
        assert_eq!(captured.get(3), None);
        assert_eq!(extended.get(0), Some(&Value::nat(13)));
        assert_eq!(extended.get(1), Some(&Value::nat(12)));
        // Empty frames do not shift slot numbering.
        assert_eq!(captured.capture(&[]).get(0), Some(&Value::nat(12)));
    }

    #[test]
    fn long_chunks_keep_slot_numbering() {
        let values: Vec<Value> = (0..11).map(Value::nat).collect();
        let base = Locals::empty().capture(&[Value::nat(100)]);
        for n in 0..=values.len() {
            let stack = base.capture(&values[..n]);
            for slot in 0..n {
                assert_eq!(stack.get(slot as u32), Some(&values[n - 1 - slot]));
            }
            assert_eq!(stack.get(n as u32), Some(&Value::nat(100)));
            assert_eq!(stack.get(n as u32 + 1), None);
        }
    }

    #[test]
    fn has_type_checks_constructor_shapes() {
        use crate::types::{CtorDecl, DataDecl, Type, TypeEnv};
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
        assert!(Value::nat(3).has_type(&env, &Type::named("nat")));
        assert!(!Value::nat(3).has_type(&env, &Type::named("list")));
        assert!(Value::nat_list(&[1]).has_type(&env, &Type::named("list")));
        assert!(Value::tru().has_type(&env, &Type::bool()));
        assert!(Value::pair(Value::nat(1), Value::tru())
            .has_type(&env, &Type::pair(Type::named("nat"), Type::bool())));
        assert!(!Value::pair(Value::nat(1), Value::tru())
            .has_type(&env, &Type::pair(Type::bool(), Type::bool())));
    }

    #[test]
    fn value_to_expr_round_trip_shape() {
        let v = Value::nat_list(&[0, 1]);
        let e = v.to_expr().unwrap();
        match e {
            Expr::Ctor(c, args) => {
                assert_eq!(c.as_str(), "Cons");
                assert_eq!(args.len(), 2);
            }
            other => panic!("unexpected expr {other:?}"),
        }
    }

    #[test]
    fn first_order_detection() {
        assert!(Value::nat(3).is_first_order());
        let clo = Value::Closure(Arc::new(Closure {
            param: Symbol::new("x"),
            body: Arc::new(Expr::Local(0, Symbol::new("x"))),
            env: Env::empty(),
            rec_name: None,
            locals: Locals::empty(),
        }));
        assert!(!clo.is_first_order());
        assert!(!Value::pair(Value::nat(0), clo).is_first_order());
    }

    #[test]
    fn first_order_equality_is_equality_or_a_closure_error() {
        let clo = Value::Closure(Arc::new(Closure {
            param: Symbol::new("x"),
            body: Arc::new(Expr::Local(0, Symbol::new("x"))),
            env: Env::empty(),
            rec_name: None,
            locals: Locals::empty(),
        }));
        let first_order = [
            Value::nat(0),
            Value::nat(3),
            Value::nat(4),
            Value::nat_list(&[]),
            Value::nat_list(&[1, 2]),
            Value::nat_list(&[1, 3]),
            Value::nat_list(&[1, 2, 0]),
            Value::pair(Value::nat(1), Value::nat_list(&[2])),
            Value::Int(-2),
        ];
        for a in &first_order {
            for b in &first_order {
                assert_eq!(a.first_order_eq(b), Some(a == b), "{a} == {b}");
            }
            // Separately built equal values, and clones sharing a slab.
            assert_eq!(a.first_order_eq(&a.clone()), Some(true));
            let rebuilt = crate::json::value_from_json(&crate::json::value_to_json(a).unwrap());
            assert_eq!(a.first_order_eq(&rebuilt.unwrap()), Some(true));
        }
        // A closure anywhere in either operand is an error, also after the
        // first mismatch and in a slab both sides share.
        let with_closure = [
            clo.clone(),
            Value::pair(Value::nat(1), clo.clone()),
            Value::pair(Value::nat(2), clo.clone()),
            Value::pair(clo.clone(), Value::nat(1)),
            Value::ctor_of(Symbol::new("Cons"), vec![Value::nat(1), clo.clone()]),
        ];
        for a in &with_closure {
            assert_eq!(a.first_order_eq(&a.clone()), None, "{a} == {a}");
            for b in first_order.iter().chain(&with_closure) {
                assert_eq!(a.first_order_eq(b), None, "{a} == {b}");
                assert_eq!(b.first_order_eq(a), None, "{b} == {a}");
            }
        }
    }
}
