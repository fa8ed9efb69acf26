//! Stable structural fingerprints of expressions, values and types.
//!
//! Every cache in the pipeline whose contents are worth persisting to disk
//! (the verifier's check-outcome cache, the engine's per-problem warm-start
//! snapshots) needs keys that are valid *across processes*.  Neither of the
//! in-process identities qualifies: [`Symbol`]s hash by content but their
//! intern table is per-process, `std`'s default hasher is randomly seeded,
//! and pretty-printed keys (the previous check-cache representation) are
//! large and name-sensitive.  This module provides [`Digest`] — a 128-bit
//! structural fingerprint with three properties the warm-start store relies
//! on:
//!
//! * **process-stable** — the hash function is a fixed, explicitly seeded
//!   128-bit construction over little-endian bytes: the same structure
//!   digests to the same bits in every process, on every architecture, and
//!   regardless of what else has been interned (pinned by a golden-value
//!   test);
//! * **α-invariant** — [`Digest::of_expr`] digests the *resolved* AST
//!   ([`crate::resolve`]): lexically bound variables participate as slot
//!   indices, not names, so `fun x -> x` and `fun y -> y` share a digest
//!   while free (global) names still distinguish;
//! * **hash-consed** — subtree digests are combined bottom-up, and shared
//!   subtrees (`Arc`-backed lambda/fix bodies, shared child
//!   [`Slab`](crate::value::Slab)s — ubiquitous in enumerated pools) are
//!   digested once per distinct allocation per call (all empty slabs share
//!   one memo entry, which is sound because they all digest alike).
//!
//! Digests are *fingerprints*, not proofs of identity: two distinct
//! structures collide with probability ≈ 2⁻¹²⁸ per pair.  The caches keyed
//! by digests (see `hanoi_verifier::checkcache`) accept that risk in
//! exchange for compact, serializable, interner-independent keys; the
//! "cache soundness" section of `docs/ARCHITECTURE.md` spells the argument
//! out.

use std::collections::HashMap;
use std::fmt;

use crate::ast::{Expr, MatchArm, Pattern};
use crate::symbol::Symbol;
use crate::types::Type;
use crate::value::Value;

/// A 128-bit structural fingerprint.  Construct one through the
/// [`Digest::of_expr`] / [`Digest::of_value`] / [`Digest::of_values`] /
/// [`Digest::of_type`] entry points or compose one from parts with
/// [`DigestBuilder`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Digest(pub u128);

impl Digest {
    /// The digest of an expression, α-invariantly: the expression is run
    /// through the slot-resolution pass first, so bound-variable *names*
    /// never reach the hash — only binding structure does.  Free variables
    /// (globals, spec parameters) participate by name content.
    pub fn of_expr(expr: &Expr) -> Digest {
        let resolved = crate::resolve::resolve(expr);
        Digest::of_resolved_expr(&resolved)
    }

    /// The digest of an expression that is already a resolution fixed point
    /// (skips the resolution pass; same result as [`Digest::of_expr`] for
    /// such expressions).
    pub fn of_resolved_expr(expr: &Expr) -> Digest {
        let mut memo = HashMap::new();
        digest_expr(expr, &mut memo)
    }

    /// The digest of a first-order value (closures and native functions are
    /// digested by their name/parameter structure only, which is fine for
    /// the caches — persisted keys never contain them).
    pub fn of_value(value: &Value) -> Digest {
        let mut memo = HashMap::new();
        digest_value(value, &mut memo)
    }

    /// The digest of an ordered value sequence (order-sensitive: the
    /// verifier's `V+` sweeps enumerate in order).
    pub fn of_values(values: &[Value]) -> Digest {
        let mut memo = HashMap::new();
        let mut h = StableHasher::new(tags::VALUE_SEQ);
        h.write_u64(values.len() as u64);
        for value in values {
            h.write_digest(digest_value(value, &mut memo));
        }
        Digest(h.finish())
    }

    /// The digest of a type.
    pub fn of_type(ty: &Type) -> Digest {
        digest_type(ty)
    }

    /// The digest of a string (by content).
    pub fn of_str(s: &str) -> Digest {
        let mut h = StableHasher::new(tags::STR);
        h.write_str(s);
        Digest(h.finish())
    }

    /// Renders the digest as 32 lowercase hex digits — the form used in
    /// snapshot files and warm-start file names.
    pub fn to_hex(&self) -> String {
        format!("{:032x}", self.0)
    }

    /// Parses the output of [`Digest::to_hex`].
    pub fn from_hex(hex: &str) -> Option<Digest> {
        if hex.len() != 32 {
            return None;
        }
        u128::from_str_radix(hex, 16).ok().map(Digest)
    }
}

impl fmt::Display for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

/// Composes a digest from heterogeneous parts (sub-digests, strings,
/// integers).  Used by higher layers to build compound fingerprints — e.g.
/// a whole problem's fingerprint out of its spec, interface, types and
/// bindings — without exposing the raw hash construction.
#[derive(Debug)]
pub struct DigestBuilder(StableHasher);

impl DigestBuilder {
    /// A builder seeded with a domain-separation label (different labels
    /// never produce colliding digests for the same parts).
    pub fn new(label: &str) -> DigestBuilder {
        let mut h = StableHasher::new(tags::BUILDER);
        h.write_str(label);
        DigestBuilder(h)
    }

    /// Mixes in a sub-digest.
    pub fn add_digest(&mut self, digest: Digest) -> &mut Self {
        self.0.write_digest(digest);
        self
    }

    /// Mixes in a string by content.
    pub fn add_str(&mut self, s: &str) -> &mut Self {
        self.0.write_str(s);
        self
    }

    /// Mixes in an integer.
    pub fn add_u64(&mut self, n: u64) -> &mut Self {
        self.0.write_u64(n);
        self
    }

    /// The finished digest.
    pub fn finish(&self) -> Digest {
        Digest(self.0.clone().finish())
    }
}

/// Node tags: every structural case mixes a distinct constant first, so
/// different shapes with identical children cannot collide by construction
/// (beyond the generic 2⁻¹²⁸ birthday bound).
mod tags {
    pub const STR: u64 = 0x5354_5247;
    pub const BUILDER: u64 = 0x4255_494c;
    pub const VALUE_SEQ: u64 = 0x5653_4551;

    pub const EXPR_VAR: u64 = 1;
    pub const EXPR_LOCAL: u64 = 2;
    pub const EXPR_CTOR: u64 = 3;
    pub const EXPR_TUPLE: u64 = 4;
    pub const EXPR_PROJ: u64 = 5;
    pub const EXPR_APP: u64 = 6;
    pub const EXPR_LAMBDA: u64 = 7;
    pub const EXPR_FIX: u64 = 8;
    pub const EXPR_MATCH: u64 = 9;
    pub const EXPR_LET: u64 = 10;
    pub const EXPR_IF: u64 = 11;
    pub const EXPR_EQ: u64 = 12;
    pub const EXPR_AND: u64 = 13;
    pub const EXPR_OR: u64 = 14;
    pub const EXPR_NOT: u64 = 15;
    pub const EXPR_INT: u64 = 16;

    pub const PAT_WILDCARD: u64 = 20;
    pub const PAT_VAR: u64 = 21;
    pub const PAT_CTOR: u64 = 22;
    pub const PAT_TUPLE: u64 = 23;

    pub const TYPE_NAMED: u64 = 30;
    pub const TYPE_ABSTRACT: u64 = 31;
    pub const TYPE_TUPLE: u64 = 32;
    pub const TYPE_ARROW: u64 = 33;

    pub const VALUE_CTOR: u64 = 40;
    pub const VALUE_TUPLE: u64 = 41;
    pub const VALUE_CLOSURE: u64 = 42;
    pub const VALUE_NATIVE: u64 = 43;
    pub const VALUE_INT: u64 = 44;
}

/// A fixed-seed 128-bit streaming hash: two 64-bit lanes, each mixed with
/// the splitmix64 finalizer under distinct round constants.  Not
/// cryptographic — collision resistance is the generic birthday bound
/// against non-adversarial inputs, which is what a cache fingerprint needs.
/// All state transitions are pure integer arithmetic over explicitly
/// little-endian bytes, so results are identical on every platform.
#[derive(Debug, Clone)]
struct StableHasher {
    a: u64,
    b: u64,
}

#[inline]
fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl StableHasher {
    fn new(tag: u64) -> StableHasher {
        let mut h = StableHasher {
            a: 0x243F_6A88_85A3_08D3, // π digits: fixed, nothing-up-my-sleeve
            b: 0x1319_8A2E_0370_7344,
        };
        h.write_u64(tag);
        h
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.a = splitmix(self.a ^ v);
        self.b = splitmix(self.b.rotate_left(23) ^ v ^ 0xA5A5_A5A5_A5A5_A5A5);
    }

    fn write_str(&mut self, s: &str) {
        let bytes = s.as_bytes();
        self.write_u64(bytes.len() as u64);
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_digest(&mut self, d: Digest) {
        self.write_u64(d.0 as u64);
        self.write_u64((d.0 >> 64) as u64);
    }

    fn finish(self) -> u128 {
        // One final avalanche so the last write diffuses into both halves.
        let a = splitmix(self.a ^ self.b.rotate_left(32));
        let b = splitmix(self.b ^ a);
        ((a as u128) << 64) | b as u128
    }
}

fn digest_symbol(h: &mut StableHasher, s: &Symbol) {
    h.write_str(s.as_str());
}

fn digest_type(ty: &Type) -> Digest {
    let mut h;
    match ty {
        Type::Named(name) => {
            h = StableHasher::new(tags::TYPE_NAMED);
            digest_symbol(&mut h, name);
        }
        Type::Abstract => {
            h = StableHasher::new(tags::TYPE_ABSTRACT);
        }
        Type::Tuple(items) => {
            h = StableHasher::new(tags::TYPE_TUPLE);
            h.write_u64(items.len() as u64);
            for item in items {
                h.write_digest(digest_type(item));
            }
        }
        Type::Arrow(a, b) => {
            h = StableHasher::new(tags::TYPE_ARROW);
            h.write_digest(digest_type(a));
            h.write_digest(digest_type(b));
        }
    }
    Digest(h.finish())
}

fn digest_pattern(h: &mut StableHasher, p: &Pattern) {
    match p {
        // Binders are positional after resolution: the names a pattern
        // introduces are never consulted by resolved bodies, so they stay
        // out of the digest (α-invariance).
        Pattern::Wildcard => h.write_u64(tags::PAT_WILDCARD),
        Pattern::Var(_) => h.write_u64(tags::PAT_VAR),
        Pattern::Ctor(name, args) => {
            h.write_u64(tags::PAT_CTOR);
            digest_symbol(h, name);
            h.write_u64(args.len() as u64);
            for arg in args {
                digest_pattern(h, arg);
            }
        }
        Pattern::Tuple(args) => {
            h.write_u64(tags::PAT_TUPLE);
            h.write_u64(args.len() as u64);
            for arg in args {
                digest_pattern(h, arg);
            }
        }
    }
}

/// Memo key: the address of a shared (`Arc`-backed) subtree.  Only consulted
/// within one digest computation, while every referenced allocation is kept
/// alive by the tree being digested, so addresses cannot be reused.
type Memo = HashMap<usize, Digest>;

fn digest_expr(expr: &Expr, memo: &mut Memo) -> Digest {
    let mut h;
    match expr {
        Expr::Var(name) => {
            h = StableHasher::new(tags::EXPR_VAR);
            digest_symbol(&mut h, name);
        }
        // The display name is diagnostics only; the slot index *is* the
        // variable, which is what makes the digest α-invariant.
        Expr::Local(slot, _name) => {
            h = StableHasher::new(tags::EXPR_LOCAL);
            h.write_u64(*slot as u64);
        }
        Expr::Ctor(name, args) => {
            h = StableHasher::new(tags::EXPR_CTOR);
            digest_symbol(&mut h, name);
            h.write_u64(args.len() as u64);
            for arg in args {
                h.write_digest(digest_expr(arg, memo));
            }
        }
        Expr::Tuple(args) => {
            h = StableHasher::new(tags::EXPR_TUPLE);
            h.write_u64(args.len() as u64);
            for arg in args {
                h.write_digest(digest_expr(arg, memo));
            }
        }
        Expr::Proj(i, inner) => {
            h = StableHasher::new(tags::EXPR_PROJ);
            h.write_u64(*i as u64);
            h.write_digest(digest_expr(inner, memo));
        }
        Expr::App(f, arg) => {
            h = StableHasher::new(tags::EXPR_APP);
            h.write_digest(digest_expr(f, memo));
            h.write_digest(digest_expr(arg, memo));
        }
        Expr::Lambda(l) => {
            let key = std::sync::Arc::as_ptr(l) as usize;
            if let Some(&cached) = memo.get(&key) {
                return cached;
            }
            h = StableHasher::new(tags::EXPR_LAMBDA);
            h.write_digest(digest_type(&l.param_ty));
            h.write_digest(digest_expr(&l.body, memo));
            let digest = Digest(h.finish());
            memo.insert(key, digest);
            return digest;
        }
        Expr::Fix(fx) => {
            let key = std::sync::Arc::as_ptr(fx) as usize;
            if let Some(&cached) = memo.get(&key) {
                return cached;
            }
            h = StableHasher::new(tags::EXPR_FIX);
            h.write_digest(digest_type(&fx.param_ty));
            h.write_digest(digest_type(&fx.ret_ty));
            h.write_digest(digest_expr(&fx.body, memo));
            let digest = Digest(h.finish());
            memo.insert(key, digest);
            return digest;
        }
        Expr::Match(scrutinee, arms) => {
            h = StableHasher::new(tags::EXPR_MATCH);
            h.write_digest(digest_expr(scrutinee, memo));
            h.write_u64(arms.len() as u64);
            for MatchArm { pattern, body } in arms {
                digest_pattern(&mut h, pattern);
                h.write_digest(digest_expr(body, memo));
            }
        }
        // The bound name is a binder: resolved bodies address it by slot.
        Expr::Let(_name, bound, body) => {
            h = StableHasher::new(tags::EXPR_LET);
            h.write_digest(digest_expr(bound, memo));
            h.write_digest(digest_expr(body, memo));
        }
        Expr::If(c, t, e) => {
            h = StableHasher::new(tags::EXPR_IF);
            h.write_digest(digest_expr(c, memo));
            h.write_digest(digest_expr(t, memo));
            h.write_digest(digest_expr(e, memo));
        }
        Expr::Eq(a, b) => {
            h = StableHasher::new(tags::EXPR_EQ);
            h.write_digest(digest_expr(a, memo));
            h.write_digest(digest_expr(b, memo));
        }
        Expr::And(a, b) => {
            h = StableHasher::new(tags::EXPR_AND);
            h.write_digest(digest_expr(a, memo));
            h.write_digest(digest_expr(b, memo));
        }
        Expr::Or(a, b) => {
            h = StableHasher::new(tags::EXPR_OR);
            h.write_digest(digest_expr(a, memo));
            h.write_digest(digest_expr(b, memo));
        }
        Expr::Not(a) => {
            h = StableHasher::new(tags::EXPR_NOT);
            h.write_digest(digest_expr(a, memo));
        }
        Expr::Int(i) => {
            h = StableHasher::new(tags::EXPR_INT);
            h.write_u64(*i as u64);
        }
    }
    Digest(h.finish())
}

fn digest_value(value: &Value, memo: &mut Memo) -> Digest {
    match value {
        Value::Ctor(name, args) => {
            let key = args.as_ptr() as usize;
            let children = match memo.get(&key) {
                Some(&cached) => cached,
                None => {
                    let mut h = StableHasher::new(tags::VALUE_SEQ);
                    h.write_u64(args.len() as u64);
                    for arg in args.iter() {
                        h.write_digest(digest_value(arg, memo));
                    }
                    let digest = Digest(h.finish());
                    memo.insert(key, digest);
                    digest
                }
            };
            let mut h = StableHasher::new(tags::VALUE_CTOR);
            digest_symbol(&mut h, name);
            h.write_digest(children);
            Digest(h.finish())
        }
        Value::Tuple(items) => {
            let key = items.as_ptr() as usize;
            if let Some(&cached) = memo.get(&key) {
                let mut h = StableHasher::new(tags::VALUE_TUPLE);
                h.write_digest(cached);
                return Digest(h.finish());
            }
            let mut seq = StableHasher::new(tags::VALUE_SEQ);
            seq.write_u64(items.len() as u64);
            for item in items.iter() {
                seq.write_digest(digest_value(item, memo));
            }
            let children = Digest(seq.finish());
            memo.insert(key, children);
            let mut h = StableHasher::new(tags::VALUE_TUPLE);
            h.write_digest(children);
            Digest(h.finish())
        }
        // Function values never appear in persisted keys (persisted
        // counterexample values are first-order); digest enough structure to
        // avoid accidental equality within a process.
        Value::Closure(c) => {
            let mut h = StableHasher::new(tags::VALUE_CLOSURE);
            h.write_digest(digest_expr(&c.body, memo));
            Digest(h.finish())
        }
        Value::Native(n) => {
            let mut h = StableHasher::new(tags::VALUE_NATIVE);
            digest_symbol(&mut h, &n.name);
            h.write_u64(n.arity as u64);
            h.write_u64(n.collected.len() as u64);
            for v in &n.collected {
                h.write_digest(digest_value(v, memo));
            }
            Digest(h.finish())
        }
        Value::Int(i) => {
            let mut h = StableHasher::new(tags::VALUE_INT);
            h.write_u64(*i as u64);
            Digest(h.finish())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_expr;

    #[test]
    fn digests_are_alpha_invariant() {
        let a = parse_expr("fun (x : nat) -> x").unwrap();
        let b = parse_expr("fun (y : nat) -> y").unwrap();
        assert_eq!(Digest::of_expr(&a), Digest::of_expr(&b));

        let f = parse_expr(
            "fix inv (l : list) : bool = match l with | Nil -> True | Cons (hd, tl) -> inv tl end",
        )
        .unwrap();
        let g = parse_expr(
            "fix go (zs : list) : bool = match zs with | Nil -> True | Cons (a, b) -> go b end",
        )
        .unwrap();
        assert_eq!(Digest::of_expr(&f), Digest::of_expr(&g));
    }

    #[test]
    fn digests_distinguish_structure_and_free_names() {
        let a = parse_expr("fun (x : nat) -> lookup x").unwrap();
        let b = parse_expr("fun (x : nat) -> insert x").unwrap();
        assert_ne!(Digest::of_expr(&a), Digest::of_expr(&b), "free names count");

        let c = parse_expr("fun (x : nat) -> x").unwrap();
        let d = parse_expr("fun (x : list) -> x").unwrap();
        assert_ne!(Digest::of_expr(&c), Digest::of_expr(&d), "types count");

        let e = parse_expr("fun (x : nat) -> S x").unwrap();
        let f = parse_expr("fun (x : nat) -> S (S x)").unwrap();
        assert_ne!(Digest::of_expr(&e), Digest::of_expr(&f));
    }

    #[test]
    fn resolved_and_unresolved_forms_agree() {
        let expr = parse_expr(
            "fun (l : list) -> match l with | Nil -> True | Cons (hd, tl) -> hd == hd end",
        )
        .unwrap();
        let resolved = crate::resolve::resolve(&expr);
        assert_eq!(
            Digest::of_expr(&expr),
            Digest::of_resolved_expr(&resolved),
            "of_expr must digest through the resolution pass"
        );
        // And digesting the resolved form through `of_expr` is stable too
        // (resolution is a fixed point).
        assert_eq!(Digest::of_expr(&resolved), Digest::of_expr(&expr));
    }

    #[test]
    fn value_digests_are_structural_and_order_sensitive() {
        assert_eq!(
            Digest::of_value(&Value::nat_list(&[1, 2])),
            Digest::of_value(&Value::nat_list(&[1, 2]))
        );
        assert_ne!(
            Digest::of_value(&Value::nat_list(&[1, 2])),
            Digest::of_value(&Value::nat_list(&[2, 1]))
        );
        assert_ne!(
            Digest::of_values(&[Value::nat(1), Value::nat(2)]),
            Digest::of_values(&[Value::nat(2), Value::nat(1)])
        );
        assert_ne!(
            Digest::of_values(&[Value::nat(1)]),
            Digest::of_values(&[Value::nat(1), Value::nat(1)])
        );
        // A tuple of children is not the constructor of the same children.
        assert_ne!(
            Digest::of_value(&Value::tuple_of(vec![Value::nat(0)])),
            Digest::of_value(&Value::ctor_of(Symbol::new("T"), vec![Value::nat(0)]))
        );
    }

    #[test]
    fn digests_are_stable_across_processes_golden_values() {
        // These constants pin the exact bits of the hash construction: if
        // any of them changes, persisted snapshots from earlier builds stop
        // matching and every warm-start file silently goes cold.  Bump the
        // snapshot format version (`hanoi_verifier::checkcache` /
        // `hanoi_synth::bank`) if a change here is ever intentional.
        assert_eq!(
            Digest::of_str("hanoi").to_hex(),
            "c39e233d3f1dc2c8f5eb535be41675a0"
        );
        assert_eq!(
            Digest::of_value(&Value::nat(3)).to_hex(),
            "89dcbb81df9ac20569250b90ad4d72b4"
        );
        let expr = parse_expr("fun (l : list) -> not (lookup l 0)").unwrap();
        assert_eq!(
            Digest::of_expr(&expr).to_hex(),
            "3fdb9b59034e6f9ab2ac9bfda420b099"
        );
        // Value sequences key the persisted check-cache entries (`v_plus`),
        // including childless constructors, booleans and `()`, which carry
        // no child slab at all.
        let leaf = Value::ctor_of(Symbol::new("Leaf"), Vec::new());
        for (values, golden) in [
            (vec![Value::tru()], "ca996db4cd7e816f061fdc1252c01ea2"),
            (
                vec![Value::nat_list(&[1, 2])],
                "1e26fffcdfe84068397bf11855eebe3d",
            ),
            (
                vec![Value::pair(Value::unit(), Value::nat(1))],
                "8d03ce0c27ed6c44b9c5fbcf68fc1892",
            ),
            (vec![leaf.clone()], "99f6942c51ee134aca61d0848cf2832c"),
            (
                vec![
                    Value::fls(),
                    Value::unit(),
                    Value::pair(Value::unit(), Value::tru()),
                    leaf,
                ],
                "b009c8f757c7e5471064dd2316ae2cd5",
            ),
        ] {
            assert_eq!(Digest::of_values(&values).to_hex(), golden, "{values:?}");
        }
    }

    #[test]
    fn multi_parameter_let_rec_digest_golden_values() {
        // `let rec f (a) (b) = body` lowers to `fix f a = fun b -> body`:
        // both the unresolved and the slot-resolved form of that lowering
        // are check-cache and snapshot keys, so their bits are pinned too.
        let program = crate::parser::parse_program(
            "let rec lookup (l : list) (x : nat) : bool =
               match l with
               | Nil -> False
               | Cons (hd, tl) -> hd == x || lookup tl x
               end",
        )
        .unwrap();
        let expr = program.top_lets().next().unwrap().to_expr();
        let resolved = crate::resolve::resolve(&expr);
        assert_eq!(
            Digest::of_expr(&expr).to_hex(),
            "9a714b52e34af8b373a9394634d1c9a8"
        );
        assert_eq!(
            Digest::of_resolved_expr(&resolved).to_hex(),
            "9a714b52e34af8b373a9394634d1c9a8"
        );
    }

    #[test]
    fn digests_ignore_interner_state() {
        // Interning unrelated symbols between two digest computations must
        // not perturb the result: digests depend on string content only.
        let before = Digest::of_value(&Value::nat_list(&[4, 7]));
        for i in 0..512 {
            let _ = Symbol::new(&format!("interner-noise-{i}"));
        }
        let after = Digest::of_value(&Value::nat_list(&[4, 7]));
        assert_eq!(before, after);
        // And a digest computed on a fresh thread (same process-wide
        // interner, but exercises Send/Sync of everything involved) agrees.
        let on_thread = std::thread::spawn(|| Digest::of_value(&Value::nat_list(&[4, 7])))
            .join()
            .unwrap();
        assert_eq!(before, on_thread);
    }

    #[test]
    fn hex_round_trips() {
        let digest = Digest::of_str("round-trip");
        assert_eq!(Digest::from_hex(&digest.to_hex()), Some(digest));
        assert_eq!(Digest::from_hex("xyz"), None);
        assert_eq!(Digest::from_hex(""), None);
        assert_eq!(digest.to_string().len(), 32);
    }

    #[test]
    fn shared_subtrees_are_digested_once() {
        // A value sharing one slab across many parents digests consistently
        // with an structurally equal unshared value.
        let shared = Value::nat_list(&[1, 2, 3]);
        let pair = Value::pair(shared.clone(), shared.clone());
        let unshared = Value::pair(Value::nat_list(&[1, 2, 3]), Value::nat_list(&[1, 2, 3]));
        assert_eq!(Digest::of_value(&pair), Digest::of_value(&unshared));
    }

    #[test]
    fn builder_composes_with_domain_separation() {
        let mut a = DigestBuilder::new("problem");
        a.add_str("x").add_u64(3);
        let mut b = DigestBuilder::new("problem");
        b.add_str("x").add_u64(3);
        assert_eq!(a.finish(), b.finish());
        let mut c = DigestBuilder::new("other");
        c.add_str("x").add_u64(3);
        assert_ne!(a.finish(), c.finish());
        let mut d = DigestBuilder::new("problem");
        d.add_str("x").add_u64(4);
        assert_ne!(a.finish(), d.finish());
        let mut e = DigestBuilder::new("problem");
        e.add_digest(Digest::of_str("x")).add_u64(3);
        assert_ne!(a.finish(), e.finish());
    }
}
