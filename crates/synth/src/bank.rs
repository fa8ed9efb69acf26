//! The persistent term bank: incremental, memoized signature evaluation for
//! the synthesis engine.
//!
//! `Engine::guess` historically rebuilt its observational-equivalence term
//! pool from zero on every call: each CEGIS iteration — often triggered by a
//! *single* new counterexample — re-enumerated every term and re-ran the
//! interpreter on every `(term, example world)` pair, even though all but one
//! column of the signature matrix had already been computed in the previous
//! iteration.  [`TermBank`] makes the expensive parts of that matrix a
//! once-per-session cost, the same way the verifier's
//! `hanoi_verifier::poolcache::PoolCache` made quantifier pools a
//! once-per-session cost:
//!
//! * **value interner** — every value that ever appears in a signature cell
//!   is interned to a dense `u32` id ([`TermBank::intern`]), once per
//!   distinct value per session.  Signature rows, deduplication and the
//!   evaluation store all operate on ids, so the hot path hashes and
//!   compares machine integers instead of walking constructor trees; the
//!   booleans get the fixed ids [`TRUE_ID`]/[`FALSE_ID`], making boolean
//!   cells (equality tests, connectives) entirely allocation- and hash-free;
//! * **column-keyed evaluation store** — a signature cell for a
//!   component-application term `f t₁ … tₖ` on world `w` depends only on the
//!   component and the argument value ids `(sig(t₁)[w], …, sig(tₖ)[w])`,
//!   never on the world index.  The bank memoizes
//!   `(component, argument ids) → result id`, so when a new counterexample
//!   appends a column to the signature matrix, every cell of every *old*
//!   column is a cache hit and only the new column's genuinely new argument
//!   rows reach the interpreter.  The memoization is semantically
//!   transparent (each evaluation runs under a fresh fuel budget of the
//!   same size, which is part of the key), which is what makes a
//!   bank-backed engine return byte-identical predicates to a
//!   rebuild-per-iteration engine — pinned by
//!   `tests/synth_incremental_equivalence.rs`;
//! * **constructor store** — structural cells (`S (S O)`-style constants)
//!   are memoized by `(constructor, argument ids)` too, so repeated worlds
//!   share one construction;
//! * **world registry** — the root example values the bank has seen, used to
//!   tag each guess's worlds as *old columns* (already paid for) or *new
//!   columns* (this iteration's counterexamples) and to count column
//!   appends;
//! * **signature matrix** ([`SigMatrix`]) — boolean signature rows are packed
//!   into `u64` bitset words (one bit lane plus one validity-mask lane per
//!   row; see [`BitRow`]), so row deduplication, target matching and the
//!   boolean connectives of the guess loop are word-parallel integer
//!   operations; rows over non-boolean types keep the dense-id
//!   representation as a fallback lane ([`Sig::Ids`]);
//! * **guess memo** — whole guess outcomes, keyed by a structural digest of
//!   everything a guess reads (see `Engine::guess`), are memoized across
//!   schedule entries, CEGIS iterations and — via the snapshot — processes;
//! * **batched probes** — [`TermBank::apply_batch`] answers a whole
//!   component×split batch of signature probes with one lock round-trip per
//!   table instead of one per probe, which is what keeps parallel guess
//!   workers off each other's locks;
//! * **instrumentation hub** — terms enumerated, signature-column appends,
//!   equivalence-class splits (previously-merged terms distinguished by a
//!   new column), bank hit/miss, bitset-op, memo-hit and probe-batch
//!   counters, surfaced through `RunStats` and the per-layer metrics of the
//!   `perfbench` suite benchmark.
//!
//! The bank is owned by the CEGIS session (each synthesizer instance holds
//! one across all of its `synthesize` calls) and is safe to share with the
//! engine's parallel per-size layer construction: the stores sit behind
//! mutexes with short critical sections, and concurrent misses for the same
//! key simply evaluate the same pure function twice.  Which `u32` a value
//! interns to may differ between runs, but every engine decision depends
//! only on id *equality* within one bank, so outcomes are identical across
//! worker counts.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use hanoi_lang::ast::Expr;
use hanoi_lang::digest::Digest;
use hanoi_lang::eval::{Evaluator, Fuel};
use hanoi_lang::json::{value_from_json, value_to_json, Json, JsonError};
use hanoi_lang::parser::parse_expr;
use hanoi_lang::symbol::Symbol;
use hanoi_lang::util::IdHashBuilder;
use hanoi_lang::value::Value;

/// The interned id of `True` (pre-interned by every bank).
pub const TRUE_ID: u32 = 0;
/// The interned id of `False` (pre-interned by every bank).
pub const FALSE_ID: u32 = 1;

/// The id of a boolean value.
pub fn bool_id(b: bool) -> u32 {
    if b {
        TRUE_ID
    } else {
        FALSE_ID
    }
}

/// The boolean denoted by an interned id, if it is one.  Because the two
/// booleans are pre-interned at fixed ids, this never needs the interner.
pub fn bool_of(id: u32) -> Option<bool> {
    match id {
        TRUE_ID => Some(true),
        FALSE_ID => Some(false),
        _ => None,
    }
}

/// A boolean signature row packed into `u64` bitset words: one *bit lane*
/// holding the boolean cell values and one *validity lane* marking which
/// cells hold a boolean at all (a zero validity bit is an error/absent
/// cell).  Two invariants make word-wise equality exactly cell-wise
/// equality: `bits ⊆ valid` (invalid cells carry a zero bit), and bits past
/// the row length are zero in both lanes.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct BitRow {
    len: u32,
    bits: Box<[u64]>,
    valid: Box<[u64]>,
}

impl BitRow {
    /// The cell at world `w` as an interned id ([`TRUE_ID`]/[`FALSE_ID`], or
    /// `None` for an invalid cell).
    pub fn cell(&self, w: usize) -> Option<u32> {
        let (word, bit) = (w / 64, w % 64);
        if self.valid[word] >> bit & 1 == 1 {
            Some(bool_id(self.bits[word] >> bit & 1 == 1))
        } else {
            None
        }
    }

    /// Number of worlds (columns) in the row.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the row has zero columns.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// One term signature across the example worlds, in *canonical* form: a row
/// of a boolean-typed term whose cells are all booleans-or-errors packs to
/// [`Sig::Bits`]; every other row (non-boolean types, or a boolean-typed row
/// holding a non-boolean id) keeps the dense-id fallback lane [`Sig::Ids`].
/// Because the representation is a pure function of the cell contents, equal
/// logical rows always share a variant, so derived equality/hashing is
/// exactly cell-wise row equality — pinned by
/// `tests/synth_incremental_equivalence.rs`, which runs the id-row fallback
/// path against the packed path on the whole benchmark suite.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Sig {
    /// A packed boolean row (shared by reference; rows are immutable).
    Bits(Arc<BitRow>),
    /// One interned value id per world (`None` = evaluation failed there).
    Ids(Arc<[Option<u32>]>),
}

impl Sig {
    /// The cell at world `w`.
    pub fn cell(&self, w: usize) -> Option<u32> {
        match self {
            Sig::Bits(row) => row.cell(w),
            Sig::Ids(cells) => cells[w],
        }
    }

    /// Number of worlds (columns) in the row.
    pub fn len(&self) -> usize {
        match self {
            Sig::Bits(row) => row.len(),
            Sig::Ids(cells) => cells.len(),
        }
    }

    /// Whether the row has zero columns.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The old-column projection of a signature row (equivalence-class split
/// detection).  Canonical exactly like [`Sig`]: if every *old* cell is a
/// boolean-or-error the projection is the masked word lanes (new columns
/// zeroed in both lanes, so word equality is old-cell equality); otherwise
/// it is the compacted old-cell id row.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum OldSig {
    /// Masked lanes of a packed (or packable-on-old-columns) row.
    Bits {
        /// The bit lane with new columns zeroed.
        bits: Box<[u64]>,
        /// The validity lane with new columns zeroed.
        valid: Box<[u64]>,
    },
    /// The old-column cells of an unpackable row, compacted.
    Ids(Box<[Option<u32>]>),
}

/// The signature-matrix factory of one guess: builds canonical [`Sig`] rows
/// of a fixed width, applies the boolean connectives and old-column
/// projections word-parallel where rows are packed, and counts the `u64`
/// word operations it performs (surfaced as
/// [`TermBankStats::bitset_row_ops`]).  With `enabled = false` every row
/// stays in the id-row fallback lane — the pre-bitset representation, kept
/// as a test oracle.
///
/// The matrix is shared by reference with parallel guess workers; the op
/// counter is atomic and all methods take `&self`.
#[derive(Debug)]
pub struct SigMatrix {
    width: usize,
    enabled: bool,
    ops: AtomicU64,
}

impl SigMatrix {
    /// A matrix factory for rows of `width` worlds.
    pub fn new(width: usize, enabled: bool) -> SigMatrix {
        SigMatrix {
            width,
            enabled,
            ops: AtomicU64::new(0),
        }
    }

    /// The row width (number of example worlds).
    pub fn width(&self) -> usize {
        self.width
    }

    /// Words per packed lane.
    fn words(&self) -> usize {
        self.width.div_ceil(64)
    }

    fn count_ops(&self) {
        self.ops.fetch_add(self.words() as u64, Ordering::Relaxed);
    }

    /// Word operations performed so far.
    pub fn ops(&self) -> u64 {
        self.ops.load(Ordering::Relaxed)
    }

    /// Packs boolean-or-error cells into lanes.  `cells` yielding ids other
    /// than [`TRUE_ID`]/[`FALSE_ID`] is a caller bug (checked by `pack`).
    fn pack_lanes(&self, cells: impl Iterator<Item = Option<u32>>) -> BitRow {
        let words = self.words();
        let mut bits = vec![0u64; words];
        let mut valid = vec![0u64; words];
        for (w, cell) in cells.enumerate() {
            if let Some(id) = cell {
                valid[w / 64] |= 1 << (w % 64);
                if id == TRUE_ID {
                    bits[w / 64] |= 1 << (w % 64);
                }
            }
        }
        self.count_ops();
        BitRow {
            len: self.width as u32,
            bits: bits.into(),
            valid: valid.into(),
        }
    }

    /// The canonical row for `cells`: packed when `boolean` (the term's type
    /// is `bool`), the matrix is enabled, and every cell is a
    /// boolean-or-error; the id row otherwise.
    pub fn pack(&self, boolean: bool, cells: Vec<Option<u32>>) -> Sig {
        debug_assert_eq!(cells.len(), self.width);
        if self.enabled
            && boolean
            && cells
                .iter()
                .all(|cell| cell.is_none_or(|id| bool_of(id).is_some()))
        {
            Sig::Bits(Arc::new(self.pack_lanes(cells.into_iter())))
        } else {
            Sig::Ids(cells.into())
        }
    }

    /// Strict boolean negation of a row: non-boolean and error cells stay
    /// invalid.  Word-parallel on packed rows.
    pub fn not(&self, sig: &Sig) -> Sig {
        match sig {
            Sig::Bits(row) => {
                let bits: Box<[u64]> = row
                    .bits
                    .iter()
                    .zip(row.valid.iter())
                    .map(|(b, v)| !b & v)
                    .collect();
                self.count_ops();
                Sig::Bits(Arc::new(BitRow {
                    len: row.len,
                    bits,
                    valid: row.valid.clone(),
                }))
            }
            Sig::Ids(cells) => self.pack(
                true,
                cells
                    .iter()
                    .map(|v| v.and_then(bool_of).map(|b| bool_id(!b)))
                    .collect(),
            ),
        }
    }

    /// Strict conjunction (`conj`) or disjunction of two rows: a cell is
    /// valid only where both operand cells are booleans.  Word-parallel when
    /// both rows are packed.
    pub fn connective(&self, a: &Sig, b: &Sig, conj: bool) -> Sig {
        if let (Sig::Bits(x), Sig::Bits(y)) = (a, b) {
            let valid: Box<[u64]> = x
                .valid
                .iter()
                .zip(y.valid.iter())
                .map(|(p, q)| p & q)
                .collect();
            let bits: Box<[u64]> = if conj {
                x.bits
                    .iter()
                    .zip(y.bits.iter())
                    .map(|(p, q)| p & q)
                    .collect()
            } else {
                x.bits
                    .iter()
                    .zip(y.bits.iter())
                    .zip(valid.iter())
                    .map(|((p, q), v)| (p | q) & v)
                    .collect()
            };
            self.count_ops();
            return Sig::Bits(Arc::new(BitRow {
                len: x.len,
                bits,
                valid,
            }));
        }
        self.pack(
            true,
            (0..self.width)
                .map(|w| {
                    let x = a.cell(w).and_then(bool_of)?;
                    let y = b.cell(w).and_then(bool_of)?;
                    Some(bool_id(if conj { x && y } else { x || y }))
                })
                .collect(),
        )
    }

    /// The structural-equality row of two same-type rows: `bool_id(x == y)`
    /// where both cells are present, invalid elsewhere.  The result is a
    /// boolean row and packs.
    pub fn equality(&self, a: &Sig, b: &Sig) -> Sig {
        self.pack(
            true,
            (0..self.width)
                .map(|w| match (a.cell(w), b.cell(w)) {
                    (Some(x), Some(y)) => Some(bool_id(x == y)),
                    _ => None,
                })
                .collect(),
        )
    }

    /// Whether a candidate row hits the target row (both are canonical, so
    /// plain equality is cell-wise equality; the packed/packed case is one
    /// word compare per lane word).
    pub fn matches(&self, sig: &Sig, target: &Sig) -> bool {
        if let (Sig::Bits(_), Sig::Bits(_)) = (sig, target) {
            self.count_ops();
        }
        sig == target
    }

    /// The old-column mask as lane words (for [`SigMatrix::project`]).
    pub fn mask_words(&self, mask: &[bool]) -> Box<[u64]> {
        let mut words = vec![0u64; self.words()];
        for (w, &old) in mask.iter().enumerate() {
            if old {
                words[w / 64] |= 1 << (w % 64);
            }
        }
        words.into()
    }

    /// Projects a row onto the old columns (`mask[w]`/`mask_words` flag the
    /// old worlds), in canonical [`OldSig`] form: masked word lanes whenever
    /// every old cell is a boolean-or-error, the compacted id row otherwise.
    pub fn project(&self, sig: &Sig, mask_words: &[u64], mask: &[bool]) -> OldSig {
        match sig {
            Sig::Bits(row) => {
                self.count_ops();
                OldSig::Bits {
                    bits: row
                        .bits
                        .iter()
                        .zip(mask_words)
                        .map(|(b, m)| b & m)
                        .collect(),
                    valid: row
                        .valid
                        .iter()
                        .zip(mask_words)
                        .map(|(v, m)| v & m)
                        .collect(),
                }
            }
            Sig::Ids(cells) => {
                let old_cells = || cells.iter().zip(mask).filter(|(_, &old)| old);
                if self.enabled
                    && old_cells().all(|(cell, _)| cell.is_none_or(|id| bool_of(id).is_some()))
                {
                    let words = self.words();
                    let mut bits = vec![0u64; words];
                    let mut valid = vec![0u64; words];
                    for (w, cell) in cells.iter().enumerate() {
                        if !mask[w] {
                            continue;
                        }
                        if let Some(b) = cell.and_then(bool_of) {
                            valid[w / 64] |= 1 << (w % 64);
                            if b {
                                bits[w / 64] |= 1 << (w % 64);
                            }
                        }
                    }
                    self.count_ops();
                    OldSig::Bits {
                        bits: bits.into(),
                        valid: valid.into(),
                    }
                } else {
                    OldSig::Ids(old_cells().map(|(cell, _)| *cell).collect())
                }
            }
        }
    }
}

/// One memoized whole-guess outcome (see `Engine::guess`): the result plus
/// the enumeration counters to *replay* on a hit, so a memo-served guess
/// reports exactly the terms/splits a recomputation would have — which is
/// what keeps the persistent-bank ≡ fresh-bank counter equivalences exact.
#[derive(Debug, Clone, PartialEq)]
pub struct GuessMemo {
    /// The guess outcome: a matching boolean term, or `None` when the guess
    /// exhausted its size budget without a match (failures are memoized too
    /// — they are the expensive case).
    pub result: Option<Expr>,
    /// Terms the original enumeration counted.
    pub terms: u64,
    /// Equivalence-class splits the original enumeration counted.
    pub splits: u64,
    /// Arithmetic atoms (integer literals and linear-arithmetic component
    /// applications) the original enumeration counted.
    pub arith: u64,
}

/// Counter snapshot of one synthesis session's term-bank activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TermBankStats {
    /// Candidate terms enumerated (pre-deduplication) across all guesses.
    pub terms_enumerated: u64,
    /// Signature columns appended after the first synthesize call: one per
    /// new example world (counterexamples plus their trace-completion
    /// subvalues).
    pub column_appends: u64,
    /// Observational-equivalence classes re-split because a freshly appended
    /// column distinguished previously-merged terms.
    pub eq_class_splits: u64,
    /// Component-application evaluations served from the bank without
    /// touching the interpreter.
    pub bank_hits: u64,
    /// Component-application evaluations that reached the interpreter (each
    /// becomes a cached row for every later iteration).
    pub bank_misses: u64,
    /// Number of `synthesize` calls the bank has served.
    pub sessions: u64,
    /// Distinct values interned by the session.
    pub interned_values: u64,
    /// Word-parallel `u64` operations performed on packed signature rows
    /// (packing, connectives, target matches, old-column projections).
    pub bitset_row_ops: u64,
    /// Whole-guess outcomes served from the guess memo instead of being
    /// re-enumerated.
    pub guess_memo_hits: u64,
    /// Batched signature-probe calls ([`TermBank::apply_batch`]): each is one
    /// lock round-trip per bank table for a whole component×split batch.
    pub probe_batches: u64,
    /// Arithmetic atoms enumerated: integer literals seeded into guesses plus
    /// applications of linear-arithmetic components
    /// ([`crate::arith::components`]).  Zero unless the numeric grammar is
    /// enabled.
    pub arith_atoms: u64,
}

/// The session-wide value interner: structural value ↔ dense id.
#[derive(Debug)]
struct Interner {
    ids: HashMap<Value, u32, IdHashBuilder>,
    values: Vec<Value>,
}

impl Interner {
    fn new() -> Interner {
        let mut interner = Interner {
            ids: HashMap::default(),
            values: Vec::new(),
        };
        // Fixed boolean ids (see `TRUE_ID`/`FALSE_ID`).
        interner.intern(&Value::tru());
        interner.intern(&Value::fls());
        interner
    }

    fn intern(&mut self, value: &Value) -> u32 {
        if let Some(&id) = self.ids.get(value) {
            return id;
        }
        let id = self.values.len() as u32;
        self.values.push(value.clone());
        self.ids.insert(value.clone(), id);
        id
    }

    fn value_of(&self, id: u32) -> &Value {
        &self.values[id as usize]
    }
}

/// The interned argument-id tuple of an application or construction key.
/// Tuples of up to four arguments (every benchmark component) are stored
/// inline, so a cache probe allocates nothing.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum ArgsKey {
    Inline([u32; 4], u8),
    Heap(Box<[u32]>),
}

impl ArgsKey {
    fn new(args: &[u32]) -> ArgsKey {
        if args.len() <= 4 {
            let mut inline = [u32::MAX; 4];
            inline[..args.len()].copy_from_slice(args);
            ArgsKey::Inline(inline, args.len() as u8)
        } else {
            ArgsKey::Heap(args.into())
        }
    }

    fn as_slice(&self) -> &[u32] {
        match self {
            ArgsKey::Inline(inline, len) => &inline[..*len as usize],
            ArgsKey::Heap(args) => args,
        }
    }
}

/// Key of one memoized application or construction: the interned name id of
/// the component (or constructor), the interned argument ids, and — for
/// applications — the fuel budget the evaluation ran under.
type AppKey = (u32, ArgsKey, u64);
type CtorKey = (u32, ArgsKey);

/// The persistent term bank of one CEGIS session.
#[derive(Debug)]
pub struct TermBank {
    interner: Mutex<Interner>,
    /// Component/constructor names interned to dense ids, so cache keys hash
    /// integers instead of strings.
    names: Mutex<HashMap<Symbol, u32, IdHashBuilder>>,
    /// `(component, argument ids, fuel) → result id` (`None` = the
    /// application failed or ran out of fuel; failures are memoized too).
    apps: Mutex<HashMap<AppKey, Option<u32>, IdHashBuilder>>,
    /// `(constructor, argument ids) → constructed value id`.
    ctors: Mutex<HashMap<CtorKey, u32, IdHashBuilder>>,
    /// Ids of root example values whose signature columns have been paid
    /// for.
    worlds: Mutex<HashSet<u32, IdHashBuilder>>,
    /// Whole-guess outcomes keyed by the guess digest (see `Engine::guess`
    /// for the key derivation and the soundness argument).
    guesses: Mutex<HashMap<u128, GuessMemo, IdHashBuilder>>,
    sessions: AtomicU64,
    terms: AtomicU64,
    appends: AtomicU64,
    splits: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    bit_ops: AtomicU64,
    memo_hits: AtomicU64,
    batches: AtomicU64,
    arith: AtomicU64,
}

impl Default for TermBank {
    fn default() -> Self {
        TermBank {
            interner: Mutex::new(Interner::new()),
            names: Mutex::new(HashMap::default()),
            apps: Mutex::new(HashMap::default()),
            ctors: Mutex::new(HashMap::default()),
            worlds: Mutex::new(HashSet::default()),
            guesses: Mutex::new(HashMap::default()),
            sessions: AtomicU64::new(0),
            terms: AtomicU64::new(0),
            appends: AtomicU64::new(0),
            splits: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            bit_ops: AtomicU64::new(0),
            memo_hits: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            arith: AtomicU64::new(0),
        }
    }
}

impl TermBank {
    /// An empty bank.
    pub fn new() -> TermBank {
        TermBank::default()
    }

    /// Interns a value (idempotent; one tree walk per distinct value per
    /// session).
    pub fn intern(&self, value: &Value) -> u32 {
        self.interner.lock().unwrap().intern(value)
    }

    /// The value denoted by an interned id.
    pub fn value_of(&self, id: u32) -> Value {
        self.interner.lock().unwrap().value_of(id).clone()
    }

    /// Interns a component or constructor *name* to a dense id (distinct
    /// from the value-id space), so evaluation-cache keys hash integers.
    pub fn name_id(&self, name: &Symbol) -> u32 {
        let mut names = self.names.lock().unwrap();
        let next = names.len() as u32;
        *names.entry(*name).or_insert(next)
    }

    /// Begins one `synthesize` call: registers the root example values and
    /// returns, per example, its interned id and whether its signature
    /// column is *new* to the bank.  Columns arriving after the first call
    /// are counted as appends — the incremental cost of one CEGIS iteration.
    pub fn begin_session(&self, examples: &[(Value, bool)]) -> Vec<(u32, bool)> {
        let first = self.sessions.fetch_add(1, Ordering::Relaxed) == 0;
        let columns: Vec<(u32, bool)> = examples
            .iter()
            .map(|(value, _)| {
                let id = self.intern(value);
                let is_new = self.worlds.lock().unwrap().insert(id);
                (id, is_new)
            })
            .collect();
        if !first {
            let appended = columns.iter().filter(|(_, new)| *new).count() as u64;
            self.appends.fetch_add(appended, Ordering::Relaxed);
        }
        columns
    }

    /// Evaluates `component` (with interned name id `name`) on the values
    /// denoted by `arg_ids`, memoized.  Every actual evaluation runs under a
    /// fresh `fuel`-step budget (part of the key), so the cached result is
    /// exactly what an unmemoized engine would have computed.
    pub fn apply_component(
        &self,
        evaluator: &Evaluator<'_>,
        name: u32,
        component: &Value,
        arg_ids: &[u32],
        fuel: u64,
    ) -> Option<u32> {
        let key: AppKey = (name, ArgsKey::new(arg_ids), fuel);
        if let Some(cached) = self.apps.lock().unwrap().get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return *cached;
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let args: Vec<Value> = {
            let interner = self.interner.lock().unwrap();
            arg_ids
                .iter()
                .map(|&id| interner.value_of(id).clone())
                .collect()
        };
        let result = evaluator
            .apply_many(component.clone(), &args, &mut Fuel::new(fuel))
            .ok()
            .map(|value| self.intern(&value));
        self.apps.lock().unwrap().insert(key, result);
        result
    }

    /// Evaluates a whole batch of component-application probes with one lock
    /// round-trip per bank table, instead of one per probe as
    /// [`TermBank::apply_component`] does.  `probes` is `valid.len()` probes
    /// of `arity` argument ids each, flattened; a probe with `valid[p] ==
    /// false` (an argument failed to evaluate) answers `None` without
    /// touching the bank — exactly the per-probe short-circuit of the
    /// unbatched path.
    ///
    /// Hit/miss accounting matches a sequential probe-by-probe run: the
    /// first occurrence of a missing key in the batch is a miss, duplicate
    /// occurrences are hits.  All misses are evaluated outside any lock and
    /// inserted together.
    #[allow(clippy::too_many_arguments)]
    pub fn apply_batch(
        &self,
        evaluator: &Evaluator<'_>,
        name: u32,
        component: &Value,
        fuel: u64,
        arity: usize,
        probes: &[u32],
        valid: &[bool],
    ) -> Vec<Option<u32>> {
        debug_assert_eq!(probes.len(), valid.len() * arity);
        self.batches.fetch_add(1, Ordering::Relaxed);
        let mut results: Vec<Option<u32>> = vec![None; valid.len()];
        // Pass 1 — one probe of the application store for the whole batch.
        // `pending` holds the genuinely new keys in first-occurrence order;
        // `targets[j]` lists the result slots pending key `j` must fill.
        let mut pending: Vec<AppKey> = Vec::new();
        let mut targets: Vec<Vec<usize>> = Vec::new();
        {
            let mut first_seen: HashMap<AppKey, usize, IdHashBuilder> = HashMap::default();
            let apps = self.apps.lock().unwrap();
            let mut hits = 0u64;
            for (p, &ok) in valid.iter().enumerate() {
                if !ok {
                    continue;
                }
                let key: AppKey = (
                    name,
                    ArgsKey::new(&probes[p * arity..(p + 1) * arity]),
                    fuel,
                );
                if let Some(cached) = apps.get(&key) {
                    hits += 1;
                    results[p] = *cached;
                    continue;
                }
                match first_seen.get(&key) {
                    Some(&j) => {
                        // A duplicate of an in-batch miss: a sequential run
                        // would have found it cached by now.
                        hits += 1;
                        targets[j].push(p);
                    }
                    None => {
                        first_seen.insert(key.clone(), pending.len());
                        targets.push(vec![p]);
                        pending.push(key);
                    }
                }
            }
            self.hits.fetch_add(hits, Ordering::Relaxed);
            self.misses
                .fetch_add(pending.len() as u64, Ordering::Relaxed);
        }
        if pending.is_empty() {
            return results;
        }
        // Pass 2 — materialize every distinct argument tuple under one
        // interner lock, then evaluate lock-free.
        let arg_values: Vec<Vec<Value>> = {
            let interner = self.interner.lock().unwrap();
            pending
                .iter()
                .map(|(_, args, _)| {
                    args.as_slice()
                        .iter()
                        .map(|&id| interner.value_of(id).clone())
                        .collect()
                })
                .collect()
        };
        let outcomes: Vec<Option<Value>> = arg_values
            .iter()
            .map(|args| {
                evaluator
                    .apply_many(component.clone(), args, &mut Fuel::new(fuel))
                    .ok()
            })
            .collect();
        // Pass 3 — intern all results under one interner lock, then publish
        // them to the application store under one store lock.
        let ids: Vec<Option<u32>> = {
            let mut interner = self.interner.lock().unwrap();
            outcomes
                .iter()
                .map(|value| value.as_ref().map(|v| interner.intern(v)))
                .collect()
        };
        {
            let mut apps = self.apps.lock().unwrap();
            for (key, &id) in pending.into_iter().zip(&ids) {
                apps.insert(key, id);
            }
        }
        for (j, slots) in targets.iter().enumerate() {
            for &p in slots {
                results[p] = ids[j];
            }
        }
        results
    }

    /// Looks up a memoized whole-guess outcome.  A hit bumps the
    /// [`TermBankStats::guess_memo_hits`] counter.
    pub fn guess_memo_get(&self, key: Digest) -> Option<GuessMemo> {
        let memo = self.guesses.lock().unwrap().get(&key.0).cloned();
        if memo.is_some() {
            self.memo_hits.fetch_add(1, Ordering::Relaxed);
        }
        memo
    }

    /// Stores a whole-guess outcome under its digest key.
    pub fn guess_memo_put(&self, key: Digest, memo: GuessMemo) {
        self.guesses.lock().unwrap().insert(key.0, memo);
    }

    /// Builds (and interns) the constructor application `ctor(args…)`,
    /// memoized by argument ids so repeated worlds share one construction.
    /// `name` is the interned name id, `ctor` the constructor symbol.
    pub fn make_ctor(&self, name: u32, ctor: &Symbol, arg_ids: &[u32]) -> u32 {
        let key: CtorKey = (name, ArgsKey::new(arg_ids));
        if let Some(&cached) = self.ctors.lock().unwrap().get(&key) {
            return cached;
        }
        let value = {
            let interner = self.interner.lock().unwrap();
            let args: Vec<Value> = arg_ids
                .iter()
                .map(|&id| interner.value_of(id).clone())
                .collect();
            Value::Ctor(*ctor, args.into())
        };
        let id = self.intern(&value);
        self.ctors.lock().unwrap().insert(key, id);
        id
    }

    /// Records one guess's enumeration counters (terms, equivalence-class
    /// splits, arithmetic atoms, and word operations on packed signature
    /// rows).  A memo-served guess replays its stored terms/splits/arith
    /// here with `bit_ops = 0`.
    pub fn record_guess(&self, terms: u64, splits: u64, bit_ops: u64, arith: u64) {
        self.terms.fetch_add(terms, Ordering::Relaxed);
        self.splits.fetch_add(splits, Ordering::Relaxed);
        self.bit_ops.fetch_add(bit_ops, Ordering::Relaxed);
        self.arith.fetch_add(arith, Ordering::Relaxed);
    }

    /// The snapshot format version written by [`TermBank::to_json`].  Bump
    /// it whenever the value encoding or the table layout changes shape;
    /// loaders reject mismatching versions cleanly.  Version 2 added the
    /// guess-memo table.
    pub const SNAPSHOT_VERSION: u64 = 2;

    /// Hard ceiling on the size of any one snapshot table — a corrupt or
    /// hostile snapshot cannot make [`TermBank::from_json`] allocate
    /// unboundedly, and [`TermBank::to_json`] refuses to write a bank that
    /// has outgrown it (`None`).
    pub const MAX_SNAPSHOT_ENTRIES: usize = 1 << 20;

    /// Serializes the bank to a versioned snapshot: the interned values in
    /// id order (so a restore reproduces the same dense ids), the name
    /// table, and the memoized application/constructor/world tables.
    /// Returns `None` when the bank cannot be snapshot faithfully — an
    /// interned value has no structural encoding (never the case for
    /// signature cells, which are first-order by construction) or a table
    /// exceeds [`TermBank::MAX_SNAPSHOT_ENTRIES`].
    ///
    /// Counters are *not* persisted (except the session count, which decides
    /// whether future columns count as appends): a restored bank reports
    /// only the activity of its own process.
    pub fn to_json(&self) -> Option<Json> {
        // Copy all six tables out under their locks — held together so the
        // snapshot is *consistent* (no app row can reference a value id
        // interned after the value table was copied) — and do the expensive
        // part (sorting, JSON construction) after releasing them, so
        // concurrent synthesis on the same bank stalls only for the copies.
        let (values, names, mut app_rows, mut ctor_rows, mut world_ids, mut guess_rows) = {
            let interner = self.interner.lock().unwrap();
            let names = self.names.lock().unwrap();
            let apps = self.apps.lock().unwrap();
            let ctors = self.ctors.lock().unwrap();
            let worlds = self.worlds.lock().unwrap();
            let guesses = self.guesses.lock().unwrap();
            if interner.values.len() > Self::MAX_SNAPSHOT_ENTRIES
                || apps.len() > Self::MAX_SNAPSHOT_ENTRIES
                || ctors.len() > Self::MAX_SNAPSHOT_ENTRIES
                || guesses.len() > Self::MAX_SNAPSHOT_ENTRIES
            {
                return None;
            }
            let app_rows: Vec<(u32, Vec<u32>, u64, Option<u32>)> = apps
                .iter()
                .map(|((name, args, fuel), result)| {
                    (*name, args.as_slice().to_vec(), *fuel, *result)
                })
                .collect();
            let ctor_rows: Vec<(u32, Vec<u32>, u32)> = ctors
                .iter()
                .map(|((name, args), result)| (*name, args.as_slice().to_vec(), *result))
                .collect();
            let guess_rows: Vec<(String, GuessMemo)> = guesses
                .iter()
                .map(|(key, memo)| (Digest(*key).to_hex(), memo.clone()))
                .collect();
            (
                interner.values.clone(),
                names.clone(),
                app_rows,
                ctor_rows,
                worlds.iter().copied().collect::<Vec<u32>>(),
                guess_rows,
            )
        };

        let values: Option<Vec<Json>> = values.iter().map(value_to_json).collect();

        // Invert the name table into id order.
        let mut names_by_id: Vec<Option<&Symbol>> = vec![None; names.len()];
        for (name, &id) in names.iter() {
            *names_by_id.get_mut(id as usize)? = Some(name);
        }
        let names_json: Option<Vec<Json>> = names_by_id
            .iter()
            .map(|n| n.map(|s| Json::Str(s.as_str().to_string())))
            .collect();

        // Deterministic table order keeps snapshots byte-stable for a given
        // bank state.
        app_rows.sort();
        let apps_json: Vec<Json> = app_rows
            .into_iter()
            .map(|(name, args, fuel, result)| {
                Json::obj([
                    ("n", Json::Num(name as f64)),
                    (
                        "a",
                        Json::Arr(args.into_iter().map(|a| Json::Num(a as f64)).collect()),
                    ),
                    ("f", Json::Num(fuel as f64)),
                    ("r", Json::opt(result, |r| Json::Num(r as f64))),
                ])
            })
            .collect();
        ctor_rows.sort();
        let ctors_json: Vec<Json> = ctor_rows
            .into_iter()
            .map(|(name, args, result)| {
                Json::obj([
                    ("n", Json::Num(name as f64)),
                    (
                        "a",
                        Json::Arr(args.into_iter().map(|a| Json::Num(a as f64)).collect()),
                    ),
                    ("r", Json::Num(result as f64)),
                ])
            })
            .collect();
        world_ids.sort_unstable();

        // Guess outcomes persist as pretty-printed expressions.  An entry is
        // written only if its rendering parses back to the identical
        // expression — a self-check that makes persistence *advisory*: a
        // non-round-tripping expression costs a warm hit, never correctness.
        guess_rows.sort_by(|(a, _), (b, _)| a.cmp(b));
        let guesses_json: Vec<Json> = guess_rows
            .into_iter()
            .filter_map(|(key, memo)| {
                let rendered = match &memo.result {
                    None => Json::Null,
                    Some(expr) => {
                        let text = expr.to_string();
                        if parse_expr(&text).ok().as_ref() != Some(expr) {
                            return None;
                        }
                        Json::Str(text)
                    }
                };
                Some(Json::obj([
                    ("k", Json::Str(key)),
                    ("e", rendered),
                    ("t", Json::Num(memo.terms as f64)),
                    ("s", Json::Num(memo.splits as f64)),
                    ("i", Json::Num(memo.arith as f64)),
                ]))
            })
            .collect();

        Some(Json::obj([
            ("version", Json::Num(Self::SNAPSHOT_VERSION as f64)),
            ("kind", Json::Str("term-bank".to_string())),
            (
                "sessions",
                Json::Num(self.sessions.load(Ordering::Relaxed) as f64),
            ),
            ("values", Json::Arr(values?)),
            ("names", Json::Arr(names_json?)),
            ("apps", Json::Arr(apps_json)),
            ("ctors", Json::Arr(ctors_json)),
            (
                "worlds",
                Json::Arr(world_ids.into_iter().map(|w| Json::Num(w as f64)).collect()),
            ),
            ("guesses", Json::Arr(guesses_json)),
        ]))
    }

    /// Rebuilds a bank from the output of [`TermBank::to_json`].  Rejects
    /// version mismatches, structural corruption, dangling ids and oversized
    /// tables — a rejected snapshot leaves the caller exactly where a cold
    /// start would.
    pub fn from_json(json: &Json) -> Result<TermBank, JsonError> {
        let corrupt = |message: &str| JsonError {
            message: format!("term-bank snapshot: {message}"),
            offset: 0,
        };
        let version = json
            .get("version")
            .and_then(Json::as_usize)
            .ok_or_else(|| corrupt("missing version"))?;
        if version as u64 != Self::SNAPSHOT_VERSION {
            return Err(corrupt(&format!(
                "version {version} does not match supported version {}",
                Self::SNAPSHOT_VERSION
            )));
        }
        if json.get("kind").and_then(Json::as_str) != Some("term-bank") {
            return Err(corrupt("wrong snapshot kind"));
        }
        let table = |field: &'static str| -> Result<&[Json], JsonError> {
            let items = json
                .get(field)
                .and_then(Json::as_arr)
                .ok_or_else(|| corrupt(&format!("missing `{field}` table")))?;
            if items.len() > Self::MAX_SNAPSHOT_ENTRIES {
                return Err(corrupt(&format!("`{field}` exceeds the entry ceiling")));
            }
            Ok(items)
        };

        let bank = TermBank::new();
        let values = table("values")?;
        {
            let mut interner = bank.interner.lock().unwrap();
            for (index, encoded) in values.iter().enumerate() {
                let value = value_from_json(encoded).ok_or_else(|| corrupt("unparseable value"))?;
                let id = interner.intern(&value);
                // Ids are positional: interning snapshot values in order must
                // reproduce index = id (values[0] = True, values[1] = False,
                // no duplicates).  Anything else is a corrupt snapshot.
                if id as usize != index {
                    return Err(corrupt("value table is not a dense id ordering"));
                }
            }
        }
        let value_count = values.len() as u32;
        let check_id = |id: u32| -> Result<u32, JsonError> {
            if id < value_count {
                Ok(id)
            } else {
                Err(corrupt("dangling value id"))
            }
        };

        let names = table("names")?;
        {
            let mut name_table = bank.names.lock().unwrap();
            for (index, name) in names.iter().enumerate() {
                let name = name.as_str().ok_or_else(|| corrupt("non-string name"))?;
                name_table.insert(Symbol::new(name), index as u32);
            }
            if name_table.len() != names.len() {
                return Err(corrupt("duplicate names in the name table"));
            }
        }
        let name_count = names.len() as u32;
        let check_name = |id: u32| -> Result<u32, JsonError> {
            if id < name_count {
                Ok(id)
            } else {
                Err(corrupt("dangling name id"))
            }
        };
        let parse_args = |row: &Json| -> Result<Vec<u32>, JsonError> {
            row.get("a")
                .and_then(Json::as_arr)
                .ok_or_else(|| corrupt("row without args"))?
                .iter()
                .map(|a| {
                    a.as_usize()
                        .map(|a| a as u32)
                        .ok_or_else(|| corrupt("non-numeric arg id"))
                        .and_then(check_id)
                })
                .collect()
        };

        {
            let mut apps = bank.apps.lock().unwrap();
            for row in table("apps")? {
                let name = check_name(
                    row.get("n")
                        .and_then(Json::as_usize)
                        .ok_or_else(|| corrupt("app row without name id"))?
                        as u32,
                )?;
                let args = parse_args(row)?;
                let fuel =
                    row.get("f")
                        .and_then(Json::as_usize)
                        .ok_or_else(|| corrupt("app row without fuel"))? as u64;
                let result = match row.get("r") {
                    Some(Json::Null) | None => None,
                    Some(r) => Some(check_id(
                        r.as_usize().ok_or_else(|| corrupt("non-numeric result"))? as u32,
                    )?),
                };
                apps.insert((name, ArgsKey::new(&args), fuel), result);
            }
        }
        {
            let mut ctors = bank.ctors.lock().unwrap();
            for row in table("ctors")? {
                let name = check_name(
                    row.get("n")
                        .and_then(Json::as_usize)
                        .ok_or_else(|| corrupt("ctor row without name id"))?
                        as u32,
                )?;
                let args = parse_args(row)?;
                let result = check_id(
                    row.get("r")
                        .and_then(Json::as_usize)
                        .ok_or_else(|| corrupt("ctor row without result"))?
                        as u32,
                )?;
                ctors.insert((name, ArgsKey::new(&args)), result);
            }
        }
        {
            let mut worlds = bank.worlds.lock().unwrap();
            for id in table("worlds")? {
                let id = check_id(
                    id.as_usize()
                        .ok_or_else(|| corrupt("non-numeric world id"))? as u32,
                )?;
                worlds.insert(id);
            }
        }
        {
            let mut guesses = bank.guesses.lock().unwrap();
            for row in table("guesses")? {
                let key = row
                    .get("k")
                    .and_then(Json::as_str)
                    .and_then(Digest::from_hex)
                    .ok_or_else(|| corrupt("guess row without digest key"))?;
                let result = match row.get("e") {
                    Some(Json::Null) => None,
                    Some(Json::Str(text)) => Some(
                        parse_expr(text).map_err(|_| corrupt("unparseable guess expression"))?,
                    ),
                    _ => return Err(corrupt("guess row without expression")),
                };
                let terms = row
                    .get("t")
                    .and_then(Json::as_usize)
                    .ok_or_else(|| corrupt("guess row without term count"))?
                    as u64;
                let splits = row
                    .get("s")
                    .and_then(Json::as_usize)
                    .ok_or_else(|| corrupt("guess row without split count"))?
                    as u64;
                // Absent in pre-arith snapshots — whose memos were written by
                // sessions without arithmetic components (the session digest
                // keys them apart), so their true arith count is zero.
                let arith = row.get("i").and_then(Json::as_usize).unwrap_or(0) as u64;
                guesses.insert(
                    key.0,
                    GuessMemo {
                        result,
                        terms,
                        splits,
                        arith,
                    },
                );
            }
        }
        let sessions = json
            .get("sessions")
            .and_then(Json::as_usize)
            .ok_or_else(|| corrupt("missing session count"))? as u64;
        bank.sessions.store(sessions, Ordering::Relaxed);
        Ok(bank)
    }

    /// The `kind` tag of the core chunk produced by
    /// [`TermBank::split_snapshot`]: the value interner (in dense-id order),
    /// the name table, the world registry and the session count — the tables
    /// every other chunk's ids resolve against.
    pub const CORE_KIND: &'static str = "term-bank-core";

    /// The `kind` tag of a part chunk: a slice of one memo table (`apps`,
    /// `ctors` or `guesses`), independently restorable against the core.
    pub const PART_KIND: &'static str = "term-bank-part";

    /// Splits the output of [`TermBank::to_json`] into one **core** chunk
    /// plus zero or more **part** chunks of at most `rows_per_part` rows
    /// each.  This is the chunk granularity of the content-addressed
    /// warm-start store (`hanoi_store`): the memo tables are serialized in
    /// deterministic (sorted) order, so a bank that only *grew* keeps most
    /// of its old part chunks byte-identical — a fleet sync transfers only
    /// the parts that changed.  Every id in a part resolves against the core
    /// tables, so dropping a corrupt part can never dangle a reference: the
    /// restore just knows fewer memoized rows.  Returns `None` when
    /// `snapshot` is not a valid term-bank snapshot.
    pub fn split_snapshot(snapshot: &Json, rows_per_part: usize) -> Option<Vec<Json>> {
        if snapshot.get("version").and_then(Json::as_usize)? as u64 != Self::SNAPSHOT_VERSION
            || snapshot.get("kind").and_then(Json::as_str)? != "term-bank"
        {
            return None;
        }
        let rows_per_part = rows_per_part.max(1);
        let mut chunks = vec![Json::obj([
            ("version", Json::Num(Self::SNAPSHOT_VERSION as f64)),
            ("kind", Json::Str(Self::CORE_KIND.to_string())),
            ("sessions", snapshot.get("sessions")?.clone()),
            (
                "values",
                Json::Arr(snapshot.get("values").and_then(Json::as_arr)?.to_vec()),
            ),
            (
                "names",
                Json::Arr(snapshot.get("names").and_then(Json::as_arr)?.to_vec()),
            ),
            (
                "worlds",
                Json::Arr(snapshot.get("worlds").and_then(Json::as_arr)?.to_vec()),
            ),
        ])];
        for table in ["apps", "ctors", "guesses"] {
            let rows = snapshot.get(table).and_then(Json::as_arr)?;
            for slice in rows.chunks(rows_per_part) {
                chunks.push(Json::obj([
                    ("version", Json::Num(Self::SNAPSHOT_VERSION as f64)),
                    ("kind", Json::Str(Self::PART_KIND.to_string())),
                    ("table", Json::Str(table.to_string())),
                    ("rows", Json::Arr(slice.to_vec())),
                ]));
            }
        }
        Some(chunks)
    }

    /// Reassembles a core chunk and its surviving part chunks into one
    /// snapshot consumable by [`TermBank::from_json`].  Parts that are not
    /// well-formed part objects are *skipped* rather than failing the whole
    /// join — chunk-level corruption isolation: a quarantined part costs its
    /// own memo rows, never the bank.  Returns `None` when the core chunk
    /// itself is invalid (without the id-resolution tables nothing else is
    /// restorable), otherwise the joined snapshot and how many parts were
    /// skipped.
    pub fn join_chunks<'a>(
        core: &Json,
        parts: impl IntoIterator<Item = &'a Json>,
    ) -> Option<(Json, usize)> {
        if core.get("version").and_then(Json::as_usize)? as u64 != Self::SNAPSHOT_VERSION
            || core.get("kind").and_then(Json::as_str)? != Self::CORE_KIND
        {
            return None;
        }
        let mut tables: std::collections::HashMap<&str, Vec<Json>> = [
            ("apps", Vec::new()),
            ("ctors", Vec::new()),
            ("guesses", Vec::new()),
        ]
        .into_iter()
        .collect();
        let mut skipped = 0;
        for part in parts {
            let valid = part
                .get("version")
                .and_then(Json::as_usize)
                .map(|v| v as u64)
                == Some(Self::SNAPSHOT_VERSION)
                && part.get("kind").and_then(Json::as_str) == Some(Self::PART_KIND);
            let table = part.get("table").and_then(Json::as_str);
            let rows = part.get("rows").and_then(Json::as_arr);
            match (table.and_then(|t| tables.get_mut(t)), rows) {
                (Some(into), Some(rows)) if valid => into.extend(rows.iter().cloned()),
                _ => skipped += 1,
            }
        }
        let joined = Json::obj([
            ("version", Json::Num(Self::SNAPSHOT_VERSION as f64)),
            ("kind", Json::Str("term-bank".to_string())),
            ("sessions", core.get("sessions")?.clone()),
            ("values", core.get("values")?.clone()),
            ("names", core.get("names")?.clone()),
            ("worlds", core.get("worlds")?.clone()),
            (
                "apps",
                Json::Arr(tables.remove("apps").expect("apps table")),
            ),
            (
                "ctors",
                Json::Arr(tables.remove("ctors").expect("ctors table")),
            ),
            (
                "guesses",
                Json::Arr(tables.remove("guesses").expect("guesses table")),
            ),
        ]);
        Some((joined, skipped))
    }

    /// A snapshot of the session counters.
    pub fn stats(&self) -> TermBankStats {
        TermBankStats {
            terms_enumerated: self.terms.load(Ordering::Relaxed),
            column_appends: self.appends.load(Ordering::Relaxed),
            eq_class_splits: self.splits.load(Ordering::Relaxed),
            bank_hits: self.hits.load(Ordering::Relaxed),
            bank_misses: self.misses.load(Ordering::Relaxed),
            sessions: self.sessions.load(Ordering::Relaxed),
            interned_values: self.interner.lock().unwrap().values.len() as u64,
            bitset_row_ops: self.bit_ops.load(Ordering::Relaxed),
            guess_memo_hits: self.memo_hits.load(Ordering::Relaxed),
            probe_batches: self.batches.load(Ordering::Relaxed),
            arith_atoms: self.arith.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hanoi_lang::types::TypeEnv;

    fn nat_succ() -> Value {
        Value::native("succ", 1, |args| {
            Ok(Value::nat(args[0].as_nat().unwrap_or(0) + 1))
        })
    }

    #[test]
    fn booleans_have_fixed_ids() {
        let bank = TermBank::new();
        assert_eq!(bank.intern(&Value::tru()), TRUE_ID);
        assert_eq!(bank.intern(&Value::fls()), FALSE_ID);
        assert_eq!(bool_id(true), TRUE_ID);
        assert_eq!(bool_of(FALSE_ID), Some(false));
        // A freshly built structural boolean interns to the same id.
        assert_eq!(bank.intern(&Value::bool(true)), TRUE_ID);
        // Non-boolean ids are never booleans.
        let nat = bank.intern(&Value::nat(3));
        assert_eq!(bool_of(nat), None);
        assert_eq!(bank.value_of(nat), Value::nat(3));
    }

    #[test]
    fn application_results_are_memoized_including_failures() {
        let tyenv = TypeEnv::new();
        let evaluator = Evaluator::new(&tyenv);
        let bank = TermBank::new();
        let succ = nat_succ();
        let name = bank.name_id(&Symbol::new("succ"));
        assert_eq!(name, bank.name_id(&Symbol::new("succ")));
        let one = bank.intern(&Value::nat(1));

        let first = bank.apply_component(&evaluator, name, &succ, &[one], 100);
        assert_eq!(first.map(|id| bank.value_of(id)), Some(Value::nat(2)));
        let second = bank.apply_component(&evaluator, name, &succ, &[one], 100);
        assert_eq!(second, first);
        let stats = bank.stats();
        assert_eq!(stats.bank_hits, 1);
        assert_eq!(stats.bank_misses, 1);

        // A non-function "component" fails to apply; the failure is memoized
        // too.
        let broken = Value::nat(0);
        let broken_name = bank.name_id(&Symbol::new("broken"));
        assert_ne!(broken_name, name);
        assert_eq!(
            bank.apply_component(&evaluator, broken_name, &broken, &[one], 100),
            None
        );
        assert_eq!(
            bank.apply_component(&evaluator, broken_name, &broken, &[one], 100),
            None
        );
        assert_eq!(bank.stats().bank_hits, 2);
    }

    #[test]
    fn constructor_cells_are_shared() {
        let bank = TermBank::new();
        let zero = bank.intern(&Value::nat(0));
        let s = Symbol::new("S");
        let s_id = bank.name_id(&s);
        let one_a = bank.make_ctor(s_id, &s, &[zero]);
        let one_b = bank.make_ctor(s_id, &s, &[zero]);
        assert_eq!(one_a, one_b);
        assert_eq!(bank.value_of(one_a), Value::nat(1));
        // And the constructed value coincides with independent interning.
        assert_eq!(bank.intern(&Value::nat(1)), one_a);
    }

    #[test]
    fn inline_and_heap_argument_keys_roundtrip() {
        let bank = TermBank::new();
        let ids: Vec<u32> = (0..6).map(|n| bank.intern(&Value::nat(n))).collect();
        let tuple = Symbol::new("Wide");
        let wide = bank.name_id(&tuple);
        // Six arguments exceed the inline capacity and fall back to the heap
        // key; memoization must still hit.
        let a = bank.make_ctor(wide, &tuple, &ids);
        let b = bank.make_ctor(wide, &tuple, &ids);
        assert_eq!(a, b);
        assert_ne!(ArgsKey::new(&ids[..2]), ArgsKey::new(&ids[..3]));
    }

    #[test]
    fn snapshots_round_trip_every_table() {
        let tyenv = TypeEnv::new();
        let evaluator = Evaluator::new(&tyenv);
        let bank = TermBank::new();
        let succ = nat_succ();
        let succ_name = bank.name_id(&Symbol::new("succ"));
        let one = bank.intern(&Value::nat(1));
        let two = bank
            .apply_component(&evaluator, succ_name, &succ, &[one], 100)
            .unwrap();
        // A memoized failure too.
        let broken_name = bank.name_id(&Symbol::new("broken"));
        assert_eq!(
            bank.apply_component(&evaluator, broken_name, &Value::nat(0), &[one], 100),
            None
        );
        let s = Symbol::new("S");
        let s_id = bank.name_id(&s);
        let three = bank.make_ctor(s_id, &s, &[two]);
        bank.begin_session(&[(Value::nat(1), true)]);

        let snapshot = bank.to_json().expect("first-order bank snapshots");
        let text = snapshot.render_pretty();
        let restored = TermBank::from_json(&hanoi_lang::json::parse(&text).unwrap()).unwrap();

        // Ids are reproduced positionally.
        assert_eq!(restored.intern(&Value::tru()), TRUE_ID);
        assert_eq!(restored.intern(&Value::nat(1)), one);
        assert_eq!(restored.value_of(two), Value::nat(2));
        assert_eq!(restored.value_of(three), Value::nat(3));
        // Memoized applications (including the failure) answer without the
        // interpreter: a broken component would error if re-evaluated, and
        // the hit counter proves the store was consulted.
        assert_eq!(
            restored.apply_component(&evaluator, succ_name, &succ, &[one], 100),
            Some(two)
        );
        assert_eq!(
            restored.apply_component(&evaluator, broken_name, &Value::nat(0), &[one], 100),
            None
        );
        assert_eq!(restored.stats().bank_hits, 2);
        assert_eq!(restored.stats().bank_misses, 0);
        // The name table survived (same ids for the same names).
        assert_eq!(restored.name_id(&Symbol::new("succ")), succ_name);
        assert_eq!(restored.name_id(&s), s_id);
        // Worlds survived: re-registering the same example is not an append.
        let columns = restored.begin_session(&[(Value::nat(1), true)]);
        assert_eq!(columns, vec![(one, false)]);
        assert_eq!(restored.stats().column_appends, 0);
        // …but a genuinely new world still counts as one.
        restored.begin_session(&[(Value::nat(9), true)]);
        assert_eq!(restored.stats().column_appends, 1);
    }

    #[test]
    fn chunked_snapshots_round_trip_and_isolate_corruption() {
        let tyenv = TypeEnv::new();
        let evaluator = Evaluator::new(&tyenv);
        let bank = TermBank::new();
        let succ = nat_succ();
        let succ_name = bank.name_id(&Symbol::new("succ"));
        for n in 0..5 {
            let arg = bank.intern(&Value::nat(n));
            bank.apply_component(&evaluator, succ_name, &succ, &[arg], 100)
                .unwrap();
        }
        let s = Symbol::new("S");
        let s_id = bank.name_id(&s);
        let zero = bank.intern(&Value::nat(0));
        bank.make_ctor(s_id, &s, &[zero]);
        bank.guess_memo_put(
            Digest(11),
            GuessMemo {
                result: None,
                terms: 9,
                splits: 1,
                arith: 0,
            },
        );
        bank.begin_session(&[(Value::nat(1), true)]);
        let snapshot = bank.to_json().unwrap();

        // Split and rejoin reproduce the snapshot byte for byte.
        let chunks = TermBank::split_snapshot(&snapshot, 2).unwrap();
        assert!(
            chunks.len() > 2,
            "five app rows at two per part multi-chunk"
        );
        let (core, parts) = chunks.split_first().unwrap();
        let (joined, skipped) = TermBank::join_chunks(core, parts).unwrap();
        assert_eq!(skipped, 0);
        assert_eq!(joined.render_pretty(), snapshot.render_pretty());

        // A corrupt part is skipped, not fatal: the join still produces a
        // loadable snapshot, just with that part's memo rows missing.
        let mut tampered: Vec<Json> = parts.to_vec();
        tampered[0] = Json::Str("garbage".into());
        let (joined, skipped) = TermBank::join_chunks(core, &tampered).unwrap();
        assert_eq!(skipped, 1);
        let restored = TermBank::from_json(&joined).unwrap();
        assert_eq!(restored.name_id(&Symbol::new("succ")), succ_name);
        assert!(restored.guess_memo_get(Digest(11)).is_some());

        // A corrupt core sinks the whole bank — ids in parts resolve against
        // its tables, so there is nothing sound to salvage.
        assert!(TermBank::join_chunks(&Json::Str("garbage".into()), parts).is_none());
        assert!(TermBank::join_chunks(parts.first().unwrap(), parts).is_none());
        // And a non-bank snapshot refuses to split.
        assert!(TermBank::split_snapshot(&Json::Num(1.0), 2).is_none());
        assert!(TermBank::split_snapshot(&Json::obj([("version", Json::Num(2.0))]), 2).is_none());
    }

    #[test]
    fn unchanged_tables_keep_byte_identical_chunks_as_banks_grow() {
        let tyenv = TypeEnv::new();
        let evaluator = Evaluator::new(&tyenv);
        let bank = TermBank::new();
        let succ = nat_succ();
        let succ_name = bank.name_id(&Symbol::new("succ"));
        let s = Symbol::new("S");
        let s_id = bank.name_id(&s);
        let zero = bank.intern(&Value::nat(0));
        bank.make_ctor(s_id, &s, &[zero]);
        bank.guess_memo_put(
            Digest(5),
            GuessMemo {
                result: None,
                terms: 1,
                splits: 0,
                arith: 0,
            },
        );
        let one = bank.intern(&Value::nat(1));
        bank.apply_component(&evaluator, succ_name, &succ, &[one], 100)
            .unwrap();
        let before = TermBank::split_snapshot(&bank.to_json().unwrap(), usize::MAX).unwrap();

        // Grow only the application memo table.
        let two = bank.intern(&Value::nat(2));
        bank.apply_component(&evaluator, succ_name, &succ, &[two], 100)
            .unwrap();
        let after = TermBank::split_snapshot(&bank.to_json().unwrap(), usize::MAX).unwrap();

        let rendered =
            |chunks: &[Json]| -> Vec<String> { chunks.iter().map(Json::render_pretty).collect() };
        let (before, after) = (rendered(&before), rendered(&after));
        // The ctor and guess parts did not change, so their chunk bytes (and
        // therefore their content addresses in the store) are identical —
        // this is what makes fleet sync a delta transfer.
        let shared: Vec<&String> = before.iter().filter(|c| after.contains(c)).collect();
        assert!(
            shared.len() >= 2,
            "unchanged tables must re-chunk identically, shared: {}",
            shared.len()
        );
        assert_ne!(before, after, "the apps part did change");
    }

    #[test]
    fn batched_probes_match_sequential_semantics() {
        let tyenv = TypeEnv::new();
        let evaluator = Evaluator::new(&tyenv);
        let succ = nat_succ();

        let batched = TermBank::new();
        let name = batched.name_id(&Symbol::new("succ"));
        let ids: Vec<u32> = (0..4).map(|n| batched.intern(&Value::nat(n))).collect();
        // Rows: fresh, fresh, in-batch duplicate, invalid, fresh.
        let probes = vec![ids[0], ids[1], ids[1], ids[2], ids[3]];
        let valid = vec![true, true, true, false, true];
        let results = batched.apply_batch(&evaluator, name, &succ, 100, 1, &probes, &valid);

        let sequential = TermBank::new();
        let sname = sequential.name_id(&Symbol::new("succ"));
        let sids: Vec<u32> = (0..4).map(|n| sequential.intern(&Value::nat(n))).collect();
        let expected: Vec<Option<u32>> = vec![
            sequential.apply_component(&evaluator, sname, &succ, &[sids[0]], 100),
            sequential.apply_component(&evaluator, sname, &succ, &[sids[1]], 100),
            sequential.apply_component(&evaluator, sname, &succ, &[sids[1]], 100),
            None,
            sequential.apply_component(&evaluator, sname, &succ, &[sids[3]], 100),
        ];
        assert_eq!(results, expected);
        let (b, s) = (batched.stats(), sequential.stats());
        assert_eq!(
            b.bank_hits, s.bank_hits,
            "in-batch duplicates count as hits"
        );
        assert_eq!(b.bank_misses, s.bank_misses);
        assert_eq!(b.probe_batches, 1);
        assert_eq!(s.probe_batches, 0);
        // A second identical batch is answered entirely from the store.
        let again = batched.apply_batch(&evaluator, name, &succ, 100, 1, &probes, &valid);
        assert_eq!(again, results);
        let b2 = batched.stats();
        assert_eq!(b2.bank_misses, b.bank_misses, "no re-evaluation");
        assert_eq!(b2.probe_batches, 2);
    }

    #[test]
    fn guess_memos_round_trip_and_count_hits() {
        let bank = TermBank::new();
        let key = Digest(0x1234_5678_9abc_def0_1111_2222_3333_4444);
        let expr = parse_expr("S (S x0) == x1").unwrap();
        bank.guess_memo_put(
            key,
            GuessMemo {
                result: Some(expr.clone()),
                terms: 42,
                splits: 3,
                arith: 0,
            },
        );
        let failed_key = Digest(7);
        bank.guess_memo_put(
            failed_key,
            GuessMemo {
                result: None,
                terms: 5,
                splits: 0,
                arith: 0,
            },
        );
        assert!(bank.guess_memo_get(Digest(99)).is_none());
        assert_eq!(bank.stats().guess_memo_hits, 0, "misses are not hits");

        let snapshot = bank.to_json().expect("guess memos serialize");
        let text = snapshot.render_pretty();
        let restored = TermBank::from_json(&hanoi_lang::json::parse(&text).unwrap()).unwrap();
        let hit = restored.guess_memo_get(key).expect("memo survived");
        assert_eq!(hit.result, Some(expr));
        assert_eq!((hit.terms, hit.splits), (42, 3));
        // Memoized *failures* survive too — replaying "no predicate of this
        // size exists" is exactly as sound as replaying a found predicate.
        let miss = restored
            .guess_memo_get(failed_key)
            .expect("failure survived");
        assert_eq!(miss.result, None);
        assert_eq!((miss.terms, miss.splits), (5, 0));
        assert_eq!(restored.stats().guess_memo_hits, 2);

        // A corrupt guesses table rejects the whole snapshot.
        let mut copy = snapshot.clone();
        if let Json::Obj(map) = &mut copy {
            map.insert("guesses".to_string(), Json::Num(3.0));
        }
        assert!(TermBank::from_json(&copy).is_err());
    }

    #[test]
    fn corrupt_and_mismatched_bank_snapshots_are_rejected() {
        let bank = TermBank::new();
        let one = bank.intern(&Value::nat(1));
        let s = Symbol::new("S");
        let s_id = bank.name_id(&s);
        bank.make_ctor(s_id, &s, &[one]);
        let good = bank.to_json().unwrap();

        let mutate = |field: &str, value: Json| -> Json {
            let mut copy = good.clone();
            if let Json::Obj(map) = &mut copy {
                map.insert(field.to_string(), value);
            }
            copy
        };
        assert!(TermBank::from_json(&mutate("version", Json::Num(99.0))).is_err());
        assert!(TermBank::from_json(&mutate("kind", Json::Str("check-cache".into()))).is_err());
        // A value table not headed by True/False cannot reproduce the fixed
        // boolean ids.
        assert!(TermBank::from_json(&mutate(
            "values",
            Json::Arr(vec![
                hanoi_lang::json::value_to_json(&Value::nat(1)).unwrap()
            ])
        ))
        .is_err());
        // Dangling ids are rejected.
        assert!(
            TermBank::from_json(&mutate("worlds", Json::Arr(vec![Json::Num(10_000.0)]))).is_err()
        );
        assert!(TermBank::from_json(&Json::Num(1.0)).is_err());
    }

    #[test]
    fn sessions_tag_new_columns_and_count_appends() {
        let bank = TermBank::new();
        let first = bank.begin_session(&[(Value::nat(0), true), (Value::nat(1), false)]);
        // The initial population is not an append.
        assert_eq!(
            first.iter().map(|(_, new)| *new).collect::<Vec<_>>(),
            vec![true, true]
        );
        assert_eq!(bank.stats().column_appends, 0);

        // One counterexample arrives: exactly one new column.
        let second = bank.begin_session(&[
            (Value::nat(0), true),
            (Value::nat(1), false),
            (Value::nat(2), false),
        ]);
        assert_eq!(
            second.iter().map(|(_, new)| *new).collect::<Vec<_>>(),
            vec![false, false, true]
        );
        // Ids are stable across sessions.
        assert_eq!(first[0].0, second[0].0);
        assert_eq!(first[1].0, second[1].0);
        let stats = bank.stats();
        assert_eq!(stats.column_appends, 1);
        assert_eq!(stats.sessions, 2);

        // Re-running with the same examples appends nothing.
        let third = bank.begin_session(&[(Value::nat(2), false)]);
        assert_eq!(third, vec![(second[2].0, false)]);
        assert_eq!(bank.stats().column_appends, 1);
    }
}
