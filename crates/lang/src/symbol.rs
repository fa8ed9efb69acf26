//! Lightweight interned identifiers.
//!
//! Identifiers (variable names, constructor names, type names) are used and
//! copied pervasively by the interpreter, the enumerators and the
//! synthesizers.  [`Symbol`] is an 8-byte `Copy` handle to an interned,
//! never-freed name, so copying or dropping one touches no reference count
//! and no allocator.  A process-wide intern table makes every construction
//! of the same name (e.g. `"Cons"` during enumeration of tens of thousands of
//! values) return the same handle across *all* threads — the parallel
//! verifier hands values and expressions freely between workers, so `Symbol`
//! is `Send + Sync`.  Interned names live for the rest of the process; the
//! set of names a run ever sees is small and fixed by its sources.
//!
//! Equality is handle identity, which agrees with equality by content
//! because every symbol is interned.  Ordering, hashing, `Display`, `Debug`
//! and [`Borrow<str>`] are all by string *content*, so hash-map lookups by
//! `&str`, sort orders, digests and every serialized form are independent
//! of where a name was interned.

use std::borrow::Borrow;
use std::collections::HashMap;
use std::fmt;
use std::sync::{OnceLock, RwLock};

/// An interned identifier.
#[derive(Clone, Copy)]
pub struct Symbol(&'static &'static str);

/// The process-wide intern table.  Reads (the overwhelmingly common case once
/// a workload warms up) take the shared lock; a miss upgrades to the
/// exclusive lock with a re-check, so concurrent constructors of the same
/// fresh name still converge on one handle.
static INTERN: OnceLock<RwLock<HashMap<&'static str, Symbol>>> = OnceLock::new();

fn intern_table() -> &'static RwLock<HashMap<&'static str, Symbol>> {
    INTERN.get_or_init(|| {
        let known = [
            Symbol::TRUE,
            Symbol::FALSE,
            Symbol::ZERO,
            Symbol::SUCC,
            Symbol::NIL,
            Symbol::CONS,
        ];
        RwLock::new(known.into_iter().map(|s| (s.as_str(), s)).collect())
    })
}

impl Symbol {
    /// The boolean constructor `True`.
    pub const TRUE: Symbol = Symbol(&KNOWN[0]);
    /// The boolean constructor `False`.
    pub const FALSE: Symbol = Symbol(&KNOWN[1]);
    /// The Peano zero `O`.
    pub const ZERO: Symbol = Symbol(&KNOWN[2]);
    /// The Peano successor `S`.
    pub const SUCC: Symbol = Symbol(&KNOWN[3]);
    /// The empty list `Nil`.
    pub const NIL: Symbol = Symbol(&KNOWN[4]);
    /// The list constructor `Cons`.
    pub const CONS: Symbol = Symbol(&KNOWN[5]);

    /// Creates (or reuses) a symbol for `name`.
    pub fn new(name: &str) -> Self {
        let table = intern_table();
        if let Some(&existing) = table.read().unwrap().get(name) {
            return existing;
        }
        let mut table = table.write().unwrap();
        if let Some(&existing) = table.get(name) {
            return existing;
        }
        let text: &'static str = Box::leak(Box::from(name));
        let symbol = Symbol(Box::leak(Box::new(text)));
        table.insert(text, symbol);
        symbol
    }

    /// The textual content of the symbol.
    pub fn as_str(&self) -> &'static str {
        self.0
    }

    /// Returns `true` when the symbol starts with an ASCII uppercase letter,
    /// the surface-syntax convention for constructor names.
    pub fn is_ctor_like(&self) -> bool {
        self.0
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_uppercase())
    }
}

/// The names behind the pre-interned [`Symbol`] constants: the runtime
/// recognises booleans, naturals and lists by comparing against these
/// handles.  A `static`, so each name has exactly one address.
static KNOWN: [&str; 6] = ["True", "False", "O", "S", "Nil", "Cons"];

impl fmt::Debug for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}", self.as_str())
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl PartialEq for Symbol {
    fn eq(&self, other: &Self) -> bool {
        std::ptr::eq(self.0, other.0)
    }
}

impl Eq for Symbol {}

impl PartialOrd for Symbol {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Symbol {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.as_str().cmp(other.as_str())
    }
}

impl std::hash::Hash for Symbol {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_str().hash(state);
    }
}

impl From<&str> for Symbol {
    fn from(s: &str) -> Self {
        Symbol::new(s)
    }
}

impl From<String> for Symbol {
    fn from(s: String) -> Self {
        Symbol::new(&s)
    }
}

impl Borrow<str> for Symbol {
    fn borrow(&self) -> &str {
        self.as_str()
    }
}

impl AsRef<str> for Symbol {
    fn as_ref(&self) -> &str {
        self.as_str()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn symbols_with_same_content_are_equal() {
        assert_eq!(Symbol::new("Cons"), Symbol::new("Cons"));
        assert_ne!(Symbol::new("Cons"), Symbol::new("Nil"));
    }

    #[test]
    fn interning_reuses_allocations() {
        let a = Symbol::new("hello");
        let b = Symbol::new("hello");
        assert!(std::ptr::eq(a.0, b.0));
    }

    #[test]
    fn known_symbols_are_the_interned_ones() {
        for (known, name) in [
            (Symbol::TRUE, "True"),
            (Symbol::FALSE, "False"),
            (Symbol::ZERO, "O"),
            (Symbol::SUCC, "S"),
            (Symbol::NIL, "Nil"),
            (Symbol::CONS, "Cons"),
        ] {
            assert_eq!(known, Symbol::new(name));
            assert_eq!(known.as_str(), name);
        }
        assert_ne!(Symbol::TRUE, Symbol::FALSE);
    }

    #[test]
    fn symbols_hash_by_content() {
        let mut set = HashSet::new();
        set.insert(Symbol::new("x"));
        assert!(set.contains(&Symbol::new("x")));
        assert!(set.contains("x"));
        assert!(!set.contains("y"));
    }

    #[test]
    fn interning_is_shared_across_threads() {
        let a = Symbol::new("cross-thread-symbol");
        let b = std::thread::spawn(|| Symbol::new("cross-thread-symbol"))
            .join()
            .unwrap();
        assert!(std::ptr::eq(a.0, b.0));
        assert_eq!(a, b);
    }

    #[test]
    fn ctor_like_detection() {
        assert!(Symbol::new("Cons").is_ctor_like());
        assert!(!Symbol::new("cons").is_ctor_like());
        assert!(!Symbol::new("_x").is_ctor_like());
    }

    #[test]
    fn ordering_is_lexicographic() {
        assert!(Symbol::new("a") < Symbol::new("b"));
        assert!(Symbol::new("Cons") < Symbol::new("Nil"));
    }

    #[test]
    fn display_and_debug() {
        let s = Symbol::new("insert");
        assert_eq!(s.to_string(), "insert");
        assert_eq!(format!("{s:?}"), "\"insert\"");
    }
}
