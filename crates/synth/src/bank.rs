//! The persistent term bank: incremental, memoized signature evaluation for
//! the synthesis engine.
//!
//! A CEGIS iteration is often triggered by a *single* new counterexample, so
//! all but one column of the guess's signature matrix were already computed
//! in the previous iteration.  [`TermBank`] makes the expensive parts of
//! that matrix a once-per-session cost, the same way the verifier's
//! `hanoi_verifier::poolcache::PoolCache` makes quantifier pools a
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
//!   table instead of one per probe.
//!
//! The bank holds state only.  The work of a `synthesize` call (terms
//! enumerated, column appends, bank hits, …) is counted in the
//! [`SynthCounters`] its caller passes, so runs that share a bank each
//! count their own work.
//!
//! The engine keeps one bank per problem and synthesizer back end, shared
//! by every run of that problem, including runs on other threads (a
//! `run_batch` or the server): the stores sit behind mutexes with short
//! critical sections, and concurrent misses for the same key simply
//! evaluate the same pure function twice.  Which `u32` a value interns to
//! may differ between runs, but every engine decision depends only on id
//! *equality* within one bank, so outcomes do not depend on which run
//! interned a value first.

use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};
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
/// the row length are zero in both lanes.  The hash feeds the lanes one word
/// at a time.
#[derive(Debug, Clone, PartialEq, Eq)]
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

impl Hash for BitRow {
    fn hash<H: Hasher>(&self, state: &mut H) {
        write_lanes(state, &self.bits, &self.valid);
    }
}

/// Feeds a packed row's lanes to `state` one `u64` word at a time, validity
/// word before bit word.  The length is left out: equal rows have equal
/// lanes, and the rows of one table share a width.
fn write_lanes<H: Hasher>(state: &mut H, bits: &[u64], valid: &[u64]) {
    for (&b, &v) in bits.iter().zip(valid) {
        state.write_u64(v);
        state.write_u64(b);
    }
}

/// Feeds an id row to `state` two ids per `u64` word (the first id in the
/// low half); an odd last id fills a word alone.  `id` maps a cell to its
/// id.  The caller writes the length first, so rows of different lengths do
/// not collide on their words alone.
fn write_id_pairs<H: Hasher, T: Copy>(state: &mut H, row: &[T], id: impl Fn(T) -> u32) {
    let mut pairs = row.chunks_exact(2);
    for pair in &mut pairs {
        state.write_u64(u64::from(id(pair[0])) | u64::from(id(pair[1])) << 32);
    }
    if let [last] = pairs.remainder() {
        state.write_u64(u64::from(id(*last)));
    }
}

/// Feeds a signature id row to `state`: its length, then its cells two per
/// word, an absent cell as `u32::MAX` (which no dense interner id reaches).
/// Equality still tells `None` from `Some(u32::MAX)`; only the hash merges
/// them.
fn write_cells<H: Hasher>(state: &mut H, cells: &[Option<u32>]) {
    state.write_usize(cells.len());
    write_id_pairs(state, cells, |cell| cell.unwrap_or(u32::MAX));
}

/// One term signature across the example worlds, in *canonical* form: a row
/// of a boolean-typed term whose cells are all booleans-or-errors packs to
/// [`Sig::Bits`]; every other row (non-boolean types, or a boolean-typed row
/// holding a non-boolean id) keeps the dense-id fallback lane [`Sig::Ids`].
/// Because the representation is a pure function of the cell contents, equal
/// logical rows always share a variant, so derived equality is exactly
/// cell-wise row equality — pinned by
/// `tests/synth_incremental_equivalence.rs`, which runs the id-row fallback
/// path against the packed path on the whole benchmark suite.  Rows hash a
/// word at a time: packed lanes word by word, id rows as their length and
/// then two ids per word.
#[derive(Debug, Clone, PartialEq, Eq)]
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

impl Hash for Sig {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Sig::Bits(row) => row.hash(state),
            Sig::Ids(cells) => write_cells(state, cells),
        }
    }
}

/// The old-column projection of a signature row (equivalence-class split
/// detection).  Canonical exactly like [`Sig`]: if every *old* cell is a
/// boolean-or-error the projection is the masked word lanes (new columns
/// zeroed in both lanes, so word equality is old-cell equality); otherwise
/// it is the compacted old-cell id row.  Hashed a word at a time, like
/// [`Sig`].
#[derive(Debug, Clone, PartialEq, Eq)]
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

impl Hash for OldSig {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            OldSig::Bits { bits, valid } => write_lanes(state, bits, valid),
            OldSig::Ids(cells) => write_cells(state, cells),
        }
    }
}

/// The signature-matrix factory of one guess: builds canonical [`Sig`] rows
/// of a fixed width, applies the boolean connectives and old-column
/// projections word-parallel where rows are packed, and counts the `u64`
/// word operations it performs (surfaced as
/// [`SynthCounters::bitset_row_ops`]).  With `enabled = false` every row
/// stays in the id-row fallback lane — the pre-bitset representation, kept
/// as a test oracle.
///
/// All methods take `&self`; the op counter is atomic.
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

/// The size of a term bank's state.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TermBankStats {
    /// Number of `synthesize` calls the bank has served.
    pub sessions: u64,
    /// Distinct values interned by the session.
    pub interned_values: u64,
    /// Memoized component applications: one per distinct application that
    /// reached the interpreter.
    pub applications: u64,
}

/// The synthesis work of one run, counted by every `synthesize` call the
/// run makes (see [`crate::Synthesizer::synthesize`]).
#[derive(Debug, Default)]
pub struct SynthCounters {
    /// Candidate terms enumerated (pre-deduplication) across all guesses.
    pub terms_enumerated: AtomicU64,
    /// Signature columns appended after the bank's first synthesize call:
    /// one per new example world (counterexamples plus their
    /// trace-completion subvalues).
    pub column_appends: AtomicU64,
    /// Observational-equivalence classes re-split because a freshly appended
    /// column distinguished previously-merged terms.
    pub eq_class_splits: AtomicU64,
    /// Component-application evaluations served from the bank without
    /// touching the interpreter.
    pub bank_hits: AtomicU64,
    /// Word-parallel `u64` operations performed on packed signature rows
    /// (packing, connectives, target matches, old-column projections).
    pub bitset_row_ops: AtomicU64,
    /// Whole-guess outcomes served from the guess memo instead of being
    /// re-enumerated.
    pub guess_memo_hits: AtomicU64,
    /// Batched signature-probe calls ([`TermBank::apply_batch`]): each is one
    /// lock round-trip per bank table for a whole component×split batch.
    pub probe_batches: AtomicU64,
    /// Arithmetic atoms enumerated: integer literals seeded into guesses plus
    /// applications of linear-arithmetic components
    /// ([`crate::arith::components`]).  Zero unless the numeric grammar is
    /// enabled.
    pub arith_atoms: AtomicU64,
}

impl SynthCounters {
    /// Counts one guess's enumeration: terms, equivalence-class splits,
    /// word operations on packed signature rows and arithmetic atoms.  A
    /// memo-served guess replays its stored terms/splits/arith here with
    /// `bit_ops = 0`.
    pub(crate) fn count_guess(&self, terms: u64, splits: u64, bit_ops: u64, arith: u64) {
        self.terms_enumerated.fetch_add(terms, Ordering::Relaxed);
        self.eq_class_splits.fetch_add(splits, Ordering::Relaxed);
        self.bitset_row_ops.fetch_add(bit_ops, Ordering::Relaxed);
        self.arith_atoms.fetch_add(arith, Ordering::Relaxed);
    }
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
/// inline, so a cache probe allocates nothing.  [`ArgsKey::new`] picks the
/// form by length alone, so the derived equality is slice equality, and the
/// hash (the length, then two ids per word) reads only the slice.
#[derive(Debug, Clone, PartialEq, Eq)]
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

impl Hash for ArgsKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        let args = self.as_slice();
        state.write_usize(args.len());
        write_id_pairs(state, args, |id| id);
    }
}

/// Key of one memoized application: the interned name id of the component,
/// the interned argument ids, and the fuel budget the evaluation ran under.
/// The hash is `name << 32 | arity` followed by the argument ids two per
/// word.  The fuel takes part in equality but not in the hash: a bank sees
/// one fuel bound in practice, and keys that differ only in fuel stay
/// distinct entries.
#[derive(Debug, Clone, PartialEq, Eq)]
struct AppKey {
    name: u32,
    args: ArgsKey,
    fuel: u64,
}

impl Hash for AppKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        let args = self.args.as_slice();
        state.write_u64(u64::from(self.name) << 32 | args.len() as u64);
        write_id_pairs(state, args, |id| id);
    }
}

/// Key of one memoized construction: the interned name id of the
/// constructor and the interned argument ids.
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
    /// are counted in `counters` as appends — the incremental cost of one
    /// CEGIS iteration.
    pub fn begin_session(
        &self,
        examples: &[(Value, bool)],
        counters: &SynthCounters,
    ) -> Vec<(u32, bool)> {
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
            counters
                .column_appends
                .fetch_add(appended, Ordering::Relaxed);
        }
        columns
    }

    /// Evaluates `component` (with interned name id `name`) on a whole batch
    /// of argument-id probes, memoized, with one lock round-trip per bank
    /// table for the batch.  `probes` is `valid.len()` probes of `arity`
    /// argument ids each, flattened; a probe with `valid[p] == false` (an
    /// argument failed to evaluate) answers `None` without touching the bank.
    /// Every actual evaluation runs under a fresh `fuel`-step budget (part of
    /// the key), so a cached result is exactly what an unmemoized engine
    /// would have computed; failures are memoized too.
    ///
    /// The batch and its hits are counted in `counters`, and hit accounting
    /// matches a sequential probe-by-probe run: the first occurrence of a
    /// missing key in the batch is a miss, duplicate occurrences are hits.
    /// All misses are evaluated outside any lock and inserted together.
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
        counters: &SynthCounters,
    ) -> Vec<Option<u32>> {
        debug_assert_eq!(probes.len(), valid.len() * arity);
        counters.probe_batches.fetch_add(1, Ordering::Relaxed);
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
                let key = AppKey {
                    name,
                    args: ArgsKey::new(&probes[p * arity..(p + 1) * arity]),
                    fuel,
                };
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
            counters.bank_hits.fetch_add(hits, Ordering::Relaxed);
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
                .map(|key| {
                    key.args
                        .as_slice()
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

    /// Looks up a memoized whole-guess outcome.
    pub fn guess_memo_get(&self, key: Digest) -> Option<GuessMemo> {
        self.guesses.lock().unwrap().get(&key.0).cloned()
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
    /// The session count is persisted: it decides whether future columns
    /// count as appends.
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
                .map(|(key, result)| (key.name, key.args.as_slice().to_vec(), key.fuel, *result))
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
                apps.insert(
                    AppKey {
                        name,
                        args: ArgsKey::new(&args),
                        fuel,
                    },
                    result,
                );
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

    /// The size of the bank's state.
    pub fn stats(&self) -> TermBankStats {
        TermBankStats {
            sessions: self.sessions.load(Ordering::Relaxed),
            interned_values: self.interner.lock().unwrap().values.len() as u64,
            applications: self.apps.lock().unwrap().len() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hanoi_lang::types::TypeEnv;

    fn load(counter: &AtomicU64) -> u64 {
        counter.load(Ordering::Relaxed)
    }

    /// `component` applied to `arg` as a one-probe batch, under fuel 100.
    fn apply(
        bank: &TermBank,
        name: u32,
        f: &Value,
        arg: u32,
        counters: &SynthCounters,
    ) -> Option<u32> {
        let tyenv = TypeEnv::new();
        let evaluator = Evaluator::new(&tyenv);
        bank.apply_batch(&evaluator, name, f, 100, 1, &[arg], &[true], counters)[0]
    }

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
        let bank = TermBank::new();
        let succ = nat_succ();
        let name = bank.name_id(&Symbol::new("succ"));
        assert_eq!(name, bank.name_id(&Symbol::new("succ")));
        let one = bank.intern(&Value::nat(1));
        let counters = SynthCounters::default();

        let first = apply(&bank, name, &succ, one, &counters);
        assert_eq!(first.map(|id| bank.value_of(id)), Some(Value::nat(2)));
        let second = apply(&bank, name, &succ, one, &counters);
        assert_eq!(second, first);
        assert_eq!(load(&counters.bank_hits), 1);
        assert_eq!(bank.stats().applications, 1);

        // A non-function "component" fails to apply; the failure is memoized
        // too.
        let broken = Value::nat(0);
        let broken_name = bank.name_id(&Symbol::new("broken"));
        assert_ne!(broken_name, name);
        assert_eq!(apply(&bank, broken_name, &broken, one, &counters), None);
        assert_eq!(apply(&bank, broken_name, &broken, one, &counters), None);
        assert_eq!(load(&counters.bank_hits), 2);
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
    fn equal_rows_dedupe_and_distinct_rows_do_not() {
        let matrix = SigMatrix::new(3, true);
        let mut rows: HashSet<Sig, IdHashBuilder> = HashSet::default();
        // Equal rows built separately are one member, in either lane.
        let ids = || vec![Some(7), None, Some(9)];
        assert!(rows.insert(matrix.pack(false, ids())));
        assert!(!rows.insert(matrix.pack(false, ids())));
        let bools = || vec![Some(TRUE_ID), None, Some(FALSE_ID)];
        assert!(matches!(matrix.pack(true, bools()), Sig::Bits(_)));
        assert!(rows.insert(matrix.pack(true, bools())));
        assert!(!rows.insert(matrix.pack(true, bools())));
        assert_eq!(rows.len(), 2);
        // An absent cell hashes like `u32::MAX`, but the rows stay distinct
        // members.
        assert!(rows.insert(matrix.pack(false, vec![Some(7), Some(u32::MAX), Some(9)])));
        assert_eq!(rows.len(), 3);
        // Id rows of every length up to five (odd lengths leave a lone id).
        for len in 0..=5 {
            let row = |tail: u32| -> Sig {
                Sig::Ids((0..len).map(|w| Some(w + tail)).collect::<Vec<_>>().into())
            };
            assert!(rows.insert(row(100)), "length {len}");
            assert!(!rows.insert(row(100)), "length {len}");
        }
        // Old-column projections follow the same contract.
        let mut old: HashSet<OldSig, IdHashBuilder> = HashSet::default();
        assert!(old.insert(OldSig::Ids(vec![Some(3), None].into())));
        assert!(!old.insert(OldSig::Ids(vec![Some(3), None].into())));
        assert!(old.insert(OldSig::Ids(vec![Some(3), Some(u32::MAX)].into())));
    }

    #[test]
    fn applications_under_two_fuel_bounds_are_two_entries() {
        let bank = TermBank::new();
        let succ = nat_succ();
        let name = bank.name_id(&Symbol::new("succ"));
        let one = bank.intern(&Value::nat(1));
        let counters = SynthCounters::default();
        let tyenv = TypeEnv::new();
        let evaluator = Evaluator::new(&tyenv);
        for fuel in [100, 200, 100, 200] {
            let result =
                bank.apply_batch(&evaluator, name, &succ, fuel, 1, &[one], &[true], &counters);
            assert_eq!(result[0].map(|id| bank.value_of(id)), Some(Value::nat(2)));
        }
        assert_eq!(bank.stats().applications, 2);
        assert_eq!(load(&counters.bank_hits), 2);
    }

    #[test]
    fn heap_argument_keys_are_found_again() {
        let bank = TermBank::new();
        let ids: Vec<u32> = (0..5).map(|n| bank.intern(&Value::nat(n))).collect();
        let mut keys: HashSet<ArgsKey, IdHashBuilder> = HashSet::default();
        assert!(matches!(ArgsKey::new(&ids), ArgsKey::Heap(_)));
        assert!(keys.insert(ArgsKey::new(&ids)));
        assert!(keys.contains(&ArgsKey::new(&ids)));
        assert!(!keys.contains(&ArgsKey::new(&ids[..4])));
        // A five-argument application is memoized under its heap key.
        let sum = Value::native("sum5", 5, |args| {
            Ok(Value::nat(args.iter().filter_map(Value::as_nat).sum()))
        });
        let name = bank.name_id(&Symbol::new("sum5"));
        let counters = SynthCounters::default();
        let tyenv = TypeEnv::new();
        let evaluator = Evaluator::new(&tyenv);
        for _ in 0..2 {
            let result = bank.apply_batch(&evaluator, name, &sum, 100, 5, &ids, &[true], &counters);
            assert_eq!(result[0].map(|id| bank.value_of(id)), Some(Value::nat(10)));
        }
        assert_eq!(bank.stats().applications, 1);
        assert_eq!(load(&counters.bank_hits), 1);
    }

    #[test]
    fn snapshots_round_trip_every_table() {
        let bank = TermBank::new();
        let succ = nat_succ();
        let succ_name = bank.name_id(&Symbol::new("succ"));
        let one = bank.intern(&Value::nat(1));
        let counters = SynthCounters::default();
        let two = apply(&bank, succ_name, &succ, one, &counters).unwrap();
        // A memoized failure too.
        let broken_name = bank.name_id(&Symbol::new("broken"));
        assert_eq!(
            apply(&bank, broken_name, &Value::nat(0), one, &counters),
            None
        );
        let s = Symbol::new("S");
        let s_id = bank.name_id(&s);
        let three = bank.make_ctor(s_id, &s, &[two]);
        bank.begin_session(&[(Value::nat(1), true)], &counters);

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
        let counters = SynthCounters::default();
        assert_eq!(
            apply(&restored, succ_name, &succ, one, &counters),
            Some(two)
        );
        assert_eq!(
            apply(&restored, broken_name, &Value::nat(0), one, &counters),
            None
        );
        assert_eq!(load(&counters.bank_hits), 2);
        assert_eq!(restored.stats().applications, bank.stats().applications);
        // The name table survived (same ids for the same names).
        assert_eq!(restored.name_id(&Symbol::new("succ")), succ_name);
        assert_eq!(restored.name_id(&s), s_id);
        // Worlds survived: re-registering the same example is not an append.
        let columns = restored.begin_session(&[(Value::nat(1), true)], &counters);
        assert_eq!(columns, vec![(one, false)]);
        assert_eq!(load(&counters.column_appends), 0);
        // …but a genuinely new world still counts as one.
        restored.begin_session(&[(Value::nat(9), true)], &counters);
        assert_eq!(load(&counters.column_appends), 1);
    }

    #[test]
    fn chunked_snapshots_round_trip_and_isolate_corruption() {
        let bank = TermBank::new();
        let succ = nat_succ();
        let succ_name = bank.name_id(&Symbol::new("succ"));
        for n in 0..5 {
            let arg = bank.intern(&Value::nat(n));
            apply(&bank, succ_name, &succ, arg, &SynthCounters::default()).unwrap();
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
        bank.begin_session(&[(Value::nat(1), true)], &SynthCounters::default());
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
        apply(&bank, succ_name, &succ, one, &SynthCounters::default()).unwrap();
        let before = TermBank::split_snapshot(&bank.to_json().unwrap(), usize::MAX).unwrap();

        // Grow only the application memo table.
        let two = bank.intern(&Value::nat(2));
        apply(&bank, succ_name, &succ, two, &SynthCounters::default()).unwrap();
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
        let b = SynthCounters::default();
        let results = batched.apply_batch(&evaluator, name, &succ, 100, 1, &probes, &valid, &b);

        let sequential = TermBank::new();
        let sname = sequential.name_id(&Symbol::new("succ"));
        let sids: Vec<u32> = (0..4).map(|n| sequential.intern(&Value::nat(n))).collect();
        let s = SynthCounters::default();
        let expected: Vec<Option<u32>> = vec![
            apply(&sequential, sname, &succ, sids[0], &s),
            apply(&sequential, sname, &succ, sids[1], &s),
            apply(&sequential, sname, &succ, sids[1], &s),
            None,
            apply(&sequential, sname, &succ, sids[3], &s),
        ];
        assert_eq!(results, expected);
        assert_eq!(
            load(&b.bank_hits),
            load(&s.bank_hits),
            "in-batch duplicates count as hits"
        );
        assert_eq!(
            batched.stats().applications,
            sequential.stats().applications
        );
        assert_eq!(load(&b.probe_batches), 1);
        assert_eq!(load(&s.probe_batches), 4, "one batch per probe");
        // A second identical batch is answered entirely from the store.
        let evaluated = batched.stats().applications;
        let again = batched.apply_batch(&evaluator, name, &succ, 100, 1, &probes, &valid, &b);
        assert_eq!(again, results);
        assert_eq!(batched.stats().applications, evaluated, "no re-evaluation");
        assert_eq!(load(&b.probe_batches), 2);
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
        let counters = SynthCounters::default();
        let first = bank.begin_session(&[(Value::nat(0), true), (Value::nat(1), false)], &counters);
        // The initial population is not an append.
        assert_eq!(
            first.iter().map(|(_, new)| *new).collect::<Vec<_>>(),
            vec![true, true]
        );
        assert_eq!(load(&counters.column_appends), 0);

        // One counterexample arrives: exactly one new column.
        let second = bank.begin_session(
            &[
                (Value::nat(0), true),
                (Value::nat(1), false),
                (Value::nat(2), false),
            ],
            &counters,
        );
        assert_eq!(
            second.iter().map(|(_, new)| *new).collect::<Vec<_>>(),
            vec![false, false, true]
        );
        // Ids are stable across sessions.
        assert_eq!(first[0].0, second[0].0);
        assert_eq!(first[1].0, second[1].0);
        assert_eq!(load(&counters.column_appends), 1);
        assert_eq!(bank.stats().sessions, 2);

        // Re-running with the same examples appends nothing.
        let third = bank.begin_session(&[(Value::nat(2), false)], &counters);
        assert_eq!(third, vec![(second[2].0, false)]);
        assert_eq!(load(&counters.column_appends), 1);
    }
}
