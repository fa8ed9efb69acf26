//! The shared type- and example-directed search engine.
//!
//! Both synthesizers ([`crate::MythSynth`] and [`crate::FoldSynth`]) are thin
//! wrappers around this engine, which mirrors the structure of Myth \[19\]:
//!
//! 1. **E-guessing** — enumerate expressions bottom-up by size, pruning by
//!    *observational equivalence* (two terms that evaluate identically on
//!    every example world are interchangeable, so only the first is kept),
//!    and return the first boolean term whose behaviour matches the examples;
//! 2. **match refinement** — if guessing fails, split on a scrutinee variable
//!    of algebraic type, partition the example worlds by head constructor and
//!    recurse into each arm with the constructor fields in scope;
//! 3. **structural recursion** — inside an arm, the predicate being
//!    synthesized may be applied to pattern-bound variables of the
//!    representation type (which are strict subvalues of the argument); its
//!    behaviour during search is given by the example table itself, which is
//!    why the caller closes the examples under subvalues first
//!    ("trace completeness", §4.3).
//!
//! The engine finishes by assembling a recursive function, re-checking it
//! against the examples with *real* recursion, and returning it only if it
//! still separates them — this preserves the `Synth` soundness contract even
//! where trace completeness was imperfect.
//!
//! # Incremental guessing
//!
//! Guessing is backed by a persistent [`TermBank`] (see [`crate::bank`]):
//!
//! * the expensive signature cells — interpreter runs of component
//!   applications — are memoized in the bank by `(component, argument
//!   values)`, so a CEGIS iteration that adds one counterexample only pays
//!   for that example's *column* of the signature matrix;
//! * component-application batches (one `compositions` split × cartesian
//!   product of argument layers) are evaluated through
//!   [`TermBank::apply_batch`] — one bank-lock round-trip per batch;
//! * boolean signature rows are packed `u64` bitset lanes
//!   ([`crate::bank::SigMatrix`]), so deduplication, target matching and the
//!   boolean connectives are word-parallel integer operations; rows over
//!   non-boolean types remain interned-id rows, and the old-column
//!   projection (either form) detects equivalence classes that a freshly
//!   appended column has split;
//! * whole guess outcomes are memoized in the bank per `(problem, search
//!   limits, context, worlds, size)` digest — see `Engine::guess` for the
//!   exact key — so repeated guesses across schedule entries and CEGIS
//!   iterations (e.g. match arms whose worlds a new counterexample did not
//!   reach) replay instantly and report identical counters;
//! * candidate predicates are slot-resolved ([`hanoi_lang::resolve`]) once
//!   per examples-consistency re-check, not once per example.

use std::collections::{HashMap, HashSet};
use std::ops::ControlFlow;
use std::sync::atomic::Ordering;

use hanoi_abstraction::Problem;
use hanoi_lang::ast::{Expr, MatchArm, Pattern};
use hanoi_lang::digest::{Digest, DigestBuilder};
use hanoi_lang::eval::Fuel;
use hanoi_lang::resolve::resolve;
use hanoi_lang::symbol::Symbol;
use hanoi_lang::types::{Type, TypeEnv};
use hanoi_lang::util::{compositions, for_each_product, Deadline, IdHashBuilder};
use hanoi_lang::value::Value;

use crate::bank::{bool_id, GuessMemo, OldSig, Sig, SigMatrix, SynthCounters, TermBank};
use crate::error::SynthError;
use crate::examples::ExampleSet;

/// The name bound to the predicate being synthesized inside its own body.
pub const REC_NAME: &str = "inv";
/// The name of the predicate's argument.
pub const ARG_NAME: &str = "x";

/// An additional component made available to the search (used by
/// [`crate::FoldSynth`] for the auxiliary catamorphisms it synthesizes
/// up front).
#[derive(Debug, Clone)]
pub struct ExtraComponent {
    /// Name the generated terms refer to.
    pub name: Symbol,
    /// The component's (first-order) type.
    pub ty: Type,
    /// Its evaluated closure, used to compute term signatures.
    pub value: Value,
    /// Its definition, used to close over the component in the final result
    /// (`let name = definition in …`).
    pub definition: Expr,
    /// Whether the component is a linear-arithmetic atom
    /// ([`crate::arith::components`]) — its applications count toward the
    /// [`crate::bank::SynthCounters::arith_atoms`] count.
    pub arith: bool,
}

/// Search limits and schedule.
#[derive(Debug, Clone)]
pub struct SearchConfig {
    /// Successive `(match depth, maximum guess size)` attempts, cheapest
    /// first.  The search restarts with the next entry whenever the current
    /// one fails.
    pub schedule: Vec<(usize, usize)>,
    /// Cap on the number of observationally distinct terms kept per type and
    /// size (guards against pathological blow-up).
    pub max_terms_per_layer: usize,
    /// Fuel per signature evaluation.
    pub fuel: u64,
    /// Extra components (beyond the problem's prelude and module operations).
    pub extra_components: Vec<ExtraComponent>,
    /// Whether boolean signature rows use the packed `u64` bitset lanes
    /// ([`crate::bank::SigMatrix`]).  `false` keeps every row in the
    /// per-cell interned-id representation — a strictly slower path kept as
    /// a test oracle: outcomes and enumeration counters are identical either
    /// way, pinned by `tests/synth_incremental_equivalence.rs`.
    pub use_bitset_rows: bool,
    /// Machine-integer literals seeded as size-1 terms (the numeric
    /// workload's constant pool, usually [`crate::arith::literal_pool`]).
    /// Empty (the default) leaves the search exactly as it was before the
    /// numeric family existed; literals only enter a guess at all when `int`
    /// is among its types of interest.
    pub int_literals: Vec<i64>,
}

impl Default for SearchConfig {
    fn default() -> Self {
        SearchConfig {
            schedule: vec![(0, 5), (1, 7), (1, 9), (2, 9), (2, 11), (3, 11)],
            max_terms_per_layer: 3000,
            fuel: 20_000,
            extra_components: Vec::new(),
            use_bitset_rows: true,
            int_literals: Vec::new(),
        }
    }
}

impl SearchConfig {
    /// A cheaper schedule for unit tests and quick runs.
    pub fn quick() -> Self {
        SearchConfig {
            schedule: vec![(0, 5), (1, 7), (1, 9), (2, 9)],
            max_terms_per_layer: 1500,
            ..SearchConfig::default()
        }
    }
}

/// One function-like producer available to term generation.
#[derive(Debug, Clone)]
struct FuncComponent {
    name: Symbol,
    /// The name interned in the session bank (evaluation-cache key).
    bank_id: u32,
    arg_tys: Vec<Type>,
    ret_ty: Type,
    value: Value,
    /// Applications count as arithmetic atoms (see [`ExtraComponent::arith`]).
    arith: bool,
}

/// A term kept in the enumeration pool: its syntax and its evaluation
/// signature across the example worlds (packed bitset lanes for boolean
/// rows, interned-id rows otherwise — see [`Sig`]).
#[derive(Debug, Clone)]
struct PoolTerm {
    expr: Expr,
    sig: Sig,
}

/// The example worlds for one search node: per world, the values of every
/// in-scope variable (parallel to the context) with their interned ids, the
/// expected output, and whether this world's signature column is new to the
/// session's term bank.
#[derive(Debug, Clone)]
struct WorldRow {
    values: Vec<Value>,
    /// `values` interned in the session bank, index-parallel.
    ids: Vec<u32>,
    expected: bool,
    is_new: bool,
}

/// The search engine.
#[derive(Debug, Clone)]
pub struct Engine<'p> {
    problem: &'p Problem,
    config: SearchConfig,
}

impl<'p> Engine<'p> {
    /// Creates an engine for `problem` with the given configuration.
    pub fn new(problem: &'p Problem, config: SearchConfig) -> Self {
        Engine { problem, config }
    }

    /// Synthesizes a predicate of type `τc -> bool` consistent with
    /// `examples` (which the caller should already have trace-completed)
    /// against a persistent [`TermBank`]: signature evaluations already paid
    /// for by earlier calls (previous CEGIS iterations) are reused, so only
    /// the new examples' signature columns reach the interpreter.  Results
    /// are identical to a call with a fresh bank.  The call's work is
    /// counted in `counters`.
    pub fn synthesize_with_bank(
        &self,
        bank: &TermBank,
        counters: &SynthCounters,
        examples: &ExampleSet,
        deadline: &Deadline,
    ) -> Result<Expr, SynthError> {
        let concrete = self.problem.concrete_type().clone();
        let labeled = examples.labeled();
        let columns = bank.begin_session(&labeled, counters);
        // Labels keyed by interned id: recursive-call signatures probe this
        // once per world without rehashing the value.
        let example_table: HashMap<u32, bool> = columns
            .iter()
            .zip(&labeled)
            .map(|((id, _), (_, expected))| (*id, *expected))
            .collect();

        let ctx = vec![(Symbol::new(ARG_NAME), concrete.clone())];
        let worlds: Vec<WorldRow> = labeled
            .iter()
            .zip(&columns)
            .map(|((v, expected), (id, is_new))| WorldRow {
                values: vec![v.clone()],
                ids: vec![*id],
                expected: *expected,
                is_new: *is_new,
            })
            .collect();

        let components = self.function_components(bank);
        let session = self.session_digest(&concrete, &components);
        let mut counter = 0usize;

        for &(match_depth, guess_size) in &self.config.schedule {
            if deadline.expired() {
                return Err(SynthError::Timeout);
            }
            let body = self.synth_node(
                bank,
                counters,
                &ctx,
                &worlds,
                match_depth,
                guess_size,
                &components,
                &example_table,
                &session,
                &mut counter,
                deadline,
                &mut HashSet::new(),
            )?;
            if let Some(body) = body {
                let assembled = self.assemble(&concrete, body);
                if self.consistent_with_examples(&assembled, examples) {
                    return Ok(assembled);
                }
            }
        }
        Err(SynthError::NoCandidate)
    }

    /// Wraps a synthesized body into a full predicate, using recursion only
    /// when the body mentions it, and closing over any extra components it
    /// uses.
    fn assemble(&self, concrete: &Type, body: Expr) -> Expr {
        let free = body.free_vars();
        let core = if free.contains(&Symbol::new(REC_NAME)) {
            Expr::fix(REC_NAME, ARG_NAME, concrete.clone(), Type::bool(), body)
        } else {
            Expr::lambda(ARG_NAME, concrete.clone(), body)
        };
        // Close over extra components (innermost last so earlier helpers are
        // visible to later ones).
        let mut wrapped = core;
        for extra in self.config.extra_components.iter().rev() {
            if wrapped.free_vars().contains(&extra.name) {
                wrapped = Expr::Let(
                    extra.name,
                    Box::new(extra.definition.clone()),
                    Box::new(wrapped),
                );
            }
        }
        wrapped
    }

    /// Checks an assembled predicate against the examples using real
    /// recursion.
    fn consistent_with_examples(&self, predicate: &Expr, examples: &ExampleSet) -> bool {
        let resolved = resolve(predicate);
        examples.labeled().iter().all(|(value, expected)| {
            self.problem
                .eval_predicate_resolved_with_fuel(
                    &resolved,
                    value,
                    &mut Fuel::new(self.config.fuel * 10),
                )
                .map(|actual| actual == *expected)
                .unwrap_or(false)
        })
    }

    /// The function-like components visible to term generation, with their
    /// names interned in the session bank.
    fn function_components(&self, bank: &TermBank) -> Vec<FuncComponent> {
        let mut out = Vec::new();
        for (name, ty) in self.problem.synthesis_components() {
            let (args, ret) = ty.uncurry();
            if args.is_empty()
                || !ty.is_first_order()
                || !ret.is_zero_order()
                || args.iter().any(|a| !a.is_zero_order())
            {
                continue;
            }
            let Some(value) = self.problem.globals.lookup(&name) else {
                continue;
            };
            out.push(FuncComponent {
                bank_id: bank.name_id(&name),
                name,
                arg_tys: args.into_iter().cloned().collect(),
                ret_ty: ret.clone(),
                value: value.clone(),
                arith: false,
            });
        }
        for extra in &self.config.extra_components {
            let (args, ret) = extra.ty.uncurry();
            if args.is_empty() {
                continue;
            }
            out.push(FuncComponent {
                name: extra.name,
                bank_id: bank.name_id(&extra.name),
                arg_tys: args.into_iter().cloned().collect(),
                ret_ty: ret.clone(),
                value: extra.value.clone(),
                arith: extra.arith,
            });
        }
        out
    }

    /// The session-constant half of the guess-memo key: everything a guess
    /// outcome depends on that does not vary between guesses of one
    /// `synthesize` call — the problem (structural fingerprint, which covers
    /// component semantics and the type environment), the search limits that
    /// shape enumeration, and the component roster with its types.
    fn session_digest(&self, concrete: &Type, components: &[FuncComponent]) -> Digest {
        let mut b = DigestBuilder::new("guess-session");
        b.add_digest(self.problem.fingerprint());
        b.add_digest(Digest::of_type(concrete));
        b.add_u64(self.config.fuel);
        b.add_u64(self.config.max_terms_per_layer as u64);
        // Recursion is always allowed; the constant stands where the old
        // `allow_recursion` flag was hashed, so persisted keys stay valid.
        b.add_u64(1);
        b.add_u64(components.len() as u64);
        for component in components {
            b.add_str(component.name.as_str());
            b.add_u64(component.arg_tys.len() as u64);
            for ty in &component.arg_tys {
                b.add_digest(Digest::of_type(ty));
            }
            b.add_digest(Digest::of_type(&component.ret_ty));
        }
        b.add_u64(self.config.extra_components.len() as u64);
        for extra in &self.config.extra_components {
            b.add_str(extra.name.as_str());
            b.add_digest(Digest::of_expr(&extra.definition));
        }
        b.add_u64(self.config.int_literals.len() as u64);
        for &n in &self.config.int_literals {
            b.add_u64(n as u64);
        }
        b.finish()
    }

    /// The full guess-memo key for one guess: the session digest plus the
    /// per-node inputs — context (variable names matter: the memoized
    /// expression refers to them; the deterministic `x{counter}` naming
    /// reproduces them), worlds (expected label and the interned id of every
    /// in-scope value — ids are bank-local and reproduced positionally by a
    /// snapshot restore, so persisted keys stay valid), the example-table
    /// labels recursion reads for concrete-typed non-root slots, and the
    /// size budget.  The `is_new` world flags are deliberately *not* keyed:
    /// they steer only the split statistics, not the outcome or term count.
    fn guess_key(
        &self,
        session: &Digest,
        ctx: &[(Symbol, Type)],
        worlds: &[WorldRow],
        max_size: usize,
        example_table: &HashMap<u32, bool>,
    ) -> Digest {
        let concrete = self.problem.concrete_type();
        let mut b = DigestBuilder::new("guess-memo");
        b.add_digest(*session);
        b.add_u64(max_size as u64);
        b.add_u64(ctx.len() as u64);
        for (name, ty) in ctx {
            b.add_str(name.as_str());
            b.add_digest(Digest::of_type(ty));
        }
        b.add_u64(worlds.len() as u64);
        for world in worlds {
            b.add_u64(world.expected as u64);
            for &id in &world.ids {
                b.add_u64(id as u64);
            }
            // The labels recursive-call signatures would read (`inv v` on
            // non-root concrete-typed slots).
            for (index, (_, ty)) in ctx.iter().enumerate().skip(1) {
                if ty == concrete {
                    b.add_u64(match example_table.get(&world.ids[index]) {
                        None => 0,
                        Some(false) => 1,
                        Some(true) => 2,
                    });
                }
            }
        }
        b.finish()
    }

    /// The 0-order types the term pool is stratified by.
    fn types_of_interest(&self, ctx: &[(Symbol, Type)], components: &[FuncComponent]) -> Vec<Type> {
        let mut types = vec![Type::bool(), self.problem.concrete_type().clone()];
        for (_, ty) in ctx {
            types.push(ty.clone());
        }
        for c in components {
            types.push(c.ret_ty.clone());
            types.extend(c.arg_tys.iter().cloned());
        }
        let mut seen = HashSet::new();
        types.retain(|t| t.is_zero_order() && seen.insert(t.clone()));
        types
    }

    /// One node of the refinement search: guess, then (if allowed) match.
    #[allow(clippy::too_many_arguments)]
    fn synth_node(
        &self,
        bank: &TermBank,
        counters: &SynthCounters,
        ctx: &[(Symbol, Type)],
        worlds: &[WorldRow],
        match_depth: usize,
        guess_size: usize,
        components: &[FuncComponent],
        example_table: &HashMap<u32, bool>,
        session: &Digest,
        counter: &mut usize,
        deadline: &Deadline,
        matched_vars: &mut HashSet<Symbol>,
    ) -> Result<Option<Expr>, SynthError> {
        if deadline.expired() {
            return Err(SynthError::Timeout);
        }
        if worlds.is_empty() {
            return Ok(Some(Expr::tru()));
        }
        if let Some(found) = self.guess(
            bank,
            counters,
            ctx,
            worlds,
            guess_size,
            components,
            example_table,
            session,
            deadline,
        )? {
            return Ok(Some(found));
        }
        if match_depth == 0 {
            return Ok(None);
        }

        // Try splitting on each in-scope variable of algebraic type, most
        // recently bound first.
        let tyenv: &TypeEnv = &self.problem.tyenv;
        for index in (0..ctx.len()).rev() {
            let (var, var_ty) = &ctx[index];
            if matched_vars.contains(var) {
                continue;
            }
            let Type::Named(type_name) = var_ty else {
                continue;
            };
            let Some(decl) = tyenv.lookup(type_name) else {
                continue;
            };
            if decl.ctors.len() < 2 && decl.ctors.iter().all(|c| c.args.is_empty()) {
                continue;
            }
            matched_vars.insert(*var);
            let mut arms = Vec::new();
            let mut all_ok = true;
            for ctor in &decl.ctors {
                // Fresh names for the constructor fields.
                let fields: Vec<(Symbol, Type)> = ctor
                    .args
                    .iter()
                    .map(|ty| {
                        *counter += 1;
                        (Symbol::new(&format!("x{counter}")), ty.clone())
                    })
                    .collect();
                let mut arm_ctx = ctx.to_vec();
                arm_ctx.extend(fields.clone());
                let arm_worlds: Vec<WorldRow> = worlds
                    .iter()
                    .filter_map(|row| match &row.values[index] {
                        Value::Ctor(c, args) if c == &ctor.name => {
                            let mut values = row.values.clone();
                            let mut ids = row.ids.clone();
                            for arg in args.iter() {
                                ids.push(bank.intern(arg));
                                values.push(arg.clone());
                            }
                            Some(WorldRow {
                                values,
                                ids,
                                expected: row.expected,
                                is_new: row.is_new,
                            })
                        }
                        _ => None,
                    })
                    .collect();
                let body = self.synth_node(
                    bank,
                    counters,
                    &arm_ctx,
                    &arm_worlds,
                    match_depth - 1,
                    guess_size,
                    components,
                    example_table,
                    session,
                    counter,
                    deadline,
                    matched_vars,
                )?;
                match body {
                    Some(body) => {
                        let pattern = Pattern::Ctor(
                            ctor.name,
                            fields.iter().map(|(name, _)| Pattern::Var(*name)).collect(),
                        );
                        arms.push(MatchArm::new(pattern, body));
                    }
                    None => {
                        all_ok = false;
                        break;
                    }
                }
            }
            matched_vars.remove(var);
            if all_ok {
                return Ok(Some(Expr::Match(Box::new(Expr::Var(*var)), arms)));
            }
        }
        Ok(None)
    }

    /// Bottom-up, observational-equivalence-pruned term guessing, with
    /// whole-outcome memoization and bank-memoized signature evaluation.
    ///
    /// The memo is sound because a guess outcome (and its term/split
    /// counters) is a deterministic function of exactly what
    /// [`Engine::guess_key`] digests: enumeration order is fixed, signature
    /// cells are pure functions of `(component, argument ids, fuel)`, and
    /// the bank's evaluation memo is semantically transparent.  Replaying
    /// the stored counters on a hit therefore reports the numbers a
    /// recomputation would have produced.  Timeouts are never memoized.
    #[allow(clippy::too_many_arguments)]
    fn guess(
        &self,
        bank: &TermBank,
        counters: &SynthCounters,
        ctx: &[(Symbol, Type)],
        worlds: &[WorldRow],
        max_size: usize,
        components: &[FuncComponent],
        example_table: &HashMap<u32, bool>,
        session: &Digest,
        deadline: &Deadline,
    ) -> Result<Option<Expr>, SynthError> {
        let key = self.guess_key(session, ctx, worlds, max_size, example_table);
        if let Some(memo) = bank.guess_memo_get(key) {
            counters.guess_memo_hits.fetch_add(1, Ordering::Relaxed);
            counters.count_guess(memo.terms, memo.splits, 0, memo.arith);
            return Ok(memo.result);
        }
        let types = self.types_of_interest(ctx, components);
        let matrix = SigMatrix::new(worlds.len(), self.config.use_bitset_rows);
        let target = matrix.pack(
            true,
            worlds.iter().map(|w| Some(bool_id(w.expected))).collect(),
        );
        let old_mask: Vec<bool> = worlds.iter().map(|w| !w.is_new).collect();
        let mut pool = Pool::new(&types, max_size);
        let mut sieve = Sieve::new(
            &types,
            &matrix,
            target,
            old_mask,
            self.config.max_terms_per_layer,
        );
        let result = self.guess_into(
            bank,
            counters,
            ctx,
            worlds,
            max_size,
            components,
            example_table,
            deadline,
            &matrix,
            &mut pool,
            &mut sieve,
        );
        counters.count_guess(sieve.terms, sieve.splits, matrix.ops(), sieve.arith);
        result.map(|()| {
            bank.guess_memo_put(
                key,
                GuessMemo {
                    result: sieve.matched.clone(),
                    terms: sieve.terms,
                    splits: sieve.splits,
                    arith: sieve.arith,
                },
            );
            sieve.matched
        })
    }

    /// The generation loop of [`Engine::guess`], writing into `pool`/`sieve`.
    #[allow(clippy::too_many_arguments)]
    fn guess_into(
        &self,
        bank: &TermBank,
        counters: &SynthCounters,
        ctx: &[(Symbol, Type)],
        worlds: &[WorldRow],
        max_size: usize,
        components: &[FuncComponent],
        example_table: &HashMap<u32, bool>,
        deadline: &Deadline,
        matrix: &SigMatrix,
        pool: &mut Pool,
        sieve: &mut Sieve,
    ) -> Result<(), SynthError> {
        let concrete = self.problem.concrete_type();
        let tyenv = &self.problem.tyenv;
        let evaluator = self.problem.evaluator();
        let bool_ty = Type::bool();
        // Iterate types in stratification order (HashMap iteration order is
        // nondeterministic; generation must not be).
        let types = sieve.type_order.clone();

        // Size 1: variables and nullary constructors.
        for (index, (name, ty)) in ctx.iter().enumerate() {
            let sig = matrix.pack(
                ty == &bool_ty,
                worlds.iter().map(|w| Some(w.ids[index])).collect(),
            );
            sieve.add(matrix, ty, sig, || Expr::Var(*name));
        }
        for ty in &types {
            let Type::Named(type_name) = ty else { continue };
            let Some(decl) = tyenv.lookup(type_name) else {
                continue;
            };
            for ctor in &decl.ctors {
                if !ctor.args.is_empty() {
                    continue;
                }
                let id = bank.make_ctor(bank.name_id(&ctor.name), &ctor.name, &[]);
                let sig = matrix.pack(ty == &bool_ty, worlds.iter().map(|_| Some(id)).collect());
                sieve.add(matrix, ty, sig, || Expr::Ctor(ctor.name, Vec::new()));
            }
        }
        // Machine-integer literals (the numeric grammar's constant pool).
        // `Sieve::add_tagged` drops them silently — without touching any
        // counter — when `int` is not a type of interest to this guess.
        {
            let int_ty = Type::int();
            for &n in &self.config.int_literals {
                let id = bank.intern(&Value::int(n));
                let sig = matrix.pack(false, worlds.iter().map(|_| Some(id)).collect());
                sieve.add_tagged(matrix, &int_ty, sig, true, || Expr::Int(n));
            }
        }
        pool.freeze(sieve, 1);
        if sieve.matched.is_some() {
            return Ok(());
        }

        // Larger sizes.
        for size in 2..=max_size {
            if deadline.expired() {
                return Err(SynthError::Timeout);
            }

            // Recursive calls `inv v` on non-root context variables of the
            // concrete type (application of a unary function costs 3 nodes).
            if size == 3 {
                for (index, (name, ty)) in ctx.iter().enumerate().skip(1) {
                    if ty != concrete {
                        continue;
                    }
                    let sig = matrix.pack(
                        true,
                        worlds
                            .iter()
                            .map(|w| example_table.get(&w.ids[index]).map(|b| bool_id(*b)))
                            .collect(),
                    );
                    sieve.add(matrix, &bool_ty, sig, || {
                        Expr::call(REC_NAME, [Expr::Var(*name)])
                    });
                }
            }

            // Saturated applications of function components: the one place
            // signature evaluation runs the interpreter.  Each
            // (component, size split) batch is answered by one
            // `TermBank::apply_batch` call — one lock round-trip per bank
            // table for the whole batch.
            for component in components {
                let k = component.arg_tys.len();
                if size < 1 + 2 * k || !pool.has_type(&component.ret_ty) {
                    continue;
                }
                let boolean_ret = component.ret_ty == bool_ty;
                for split in compositions(size - 1 - k, k).iter() {
                    let Some(arg_layers) = pool.gather(&component.arg_tys, split) else {
                        continue;
                    };
                    let mut choices: Vec<Vec<&PoolTerm>> = Vec::new();
                    for_each_product(&arg_layers, |choice| {
                        choices.push(choice.to_vec());
                        ControlFlow::Continue(())
                    });
                    let width = worlds.len();
                    let mut probes = vec![0u32; choices.len() * width * k];
                    let mut valid = vec![true; choices.len() * width];
                    for (c, choice) in choices.iter().enumerate() {
                        for w in 0..width {
                            let p = c * width + w;
                            for (slot, term) in choice.iter().enumerate() {
                                match term.sig.cell(w) {
                                    Some(id) => probes[p * k + slot] = id,
                                    None => {
                                        valid[p] = false;
                                        break;
                                    }
                                }
                            }
                        }
                    }
                    let results = bank.apply_batch(
                        &evaluator,
                        component.bank_id,
                        &component.value,
                        self.config.fuel,
                        k,
                        &probes,
                        &valid,
                        counters,
                    );
                    let rows = (0..choices.len()).map(|c| {
                        matrix.pack(boolean_ret, results[c * width..(c + 1) * width].to_vec())
                    });
                    for (choice, sig) in choices.iter().zip(rows) {
                        sieve.add_tagged(matrix, &component.ret_ty, sig, component.arith, || {
                            Expr::apps(
                                Expr::Var(component.name),
                                choice.iter().map(|t| t.expr.clone()),
                            )
                        });
                    }
                    if sieve.matched.is_some() {
                        return Ok(());
                    }
                }
            }

            // Constructor applications at non-representation types (building
            // constants such as `S (S O)`), so numeric literals are reachable.
            for ty in &types {
                if ty == concrete {
                    continue;
                }
                let Type::Named(type_name) = ty else { continue };
                let Some(decl) = tyenv.lookup(type_name) else {
                    continue;
                };
                let ctors: Vec<(Symbol, Vec<Type>)> = decl
                    .ctors
                    .iter()
                    .map(|c| (c.name, c.args.clone()))
                    .collect();
                for (ctor_name, ctor_args) in ctors {
                    let k = ctor_args.len();
                    if k == 0 || size < 1 + k {
                        continue;
                    }
                    let ctor_id = bank.name_id(&ctor_name);
                    for split in compositions(size - 1, k).iter() {
                        let Some(arg_layers) = pool.gather(&ctor_args, split) else {
                            continue;
                        };
                        for_each_product(&arg_layers, |choice| {
                            let mut arg_ids = vec![0u32; choice.len()];
                            let cells: Vec<Option<u32>> = (0..worlds.len())
                                .map(|w| {
                                    for (slot, term) in choice.iter().enumerate() {
                                        arg_ids[slot] = term.sig.cell(w)?;
                                    }
                                    Some(bank.make_ctor(ctor_id, &ctor_name, &arg_ids))
                                })
                                .collect();
                            let sig = matrix.pack(ty == &bool_ty, cells);
                            sieve.add(matrix, ty, sig, || {
                                Expr::Ctor(
                                    ctor_name,
                                    choice.iter().map(|t| t.expr.clone()).collect(),
                                )
                            });
                            ControlFlow::Continue(())
                        });
                        if sieve.matched.is_some() {
                            return Ok(());
                        }
                    }
                }
            }

            // Structural equality between same-type terms.
            if size >= 3 {
                for ty in &types {
                    if ty == &bool_ty {
                        continue;
                    }
                    for split in compositions(size - 1, 2).iter() {
                        let lhs = pool.layer(ty, split[0]);
                        let rhs = pool.layer(ty, split[1]);
                        if lhs.is_empty() || rhs.is_empty() {
                            continue;
                        }
                        for a in lhs {
                            for b in rhs {
                                let sig = matrix.equality(&a.sig, &b.sig);
                                sieve.add(matrix, &bool_ty, sig, || {
                                    Expr::eq(a.expr.clone(), b.expr.clone())
                                });
                            }
                        }
                        if sieve.matched.is_some() {
                            return Ok(());
                        }
                    }
                }
            }

            // Boolean connectives: word-parallel on packed rows.
            if size >= 2 {
                for term in pool.layer(&bool_ty, size - 1) {
                    let sig = matrix.not(&term.sig);
                    sieve.add(matrix, &bool_ty, sig, || Expr::not(term.expr.clone()));
                }
            }
            if size >= 3 {
                for split in compositions(size - 1, 2).iter() {
                    let lhs = pool.layer(&bool_ty, split[0]);
                    let rhs = pool.layer(&bool_ty, split[1]);
                    for a in lhs {
                        for b in rhs {
                            for conj in [true, false] {
                                let sig = matrix.connective(&a.sig, &b.sig, conj);
                                sieve.add(matrix, &bool_ty, sig, || {
                                    if conj {
                                        Expr::and(a.expr.clone(), b.expr.clone())
                                    } else {
                                        Expr::or(a.expr.clone(), b.expr.clone())
                                    }
                                });
                            }
                        }
                    }
                    if sieve.matched.is_some() {
                        return Ok(());
                    }
                }
            }
            pool.freeze(sieve, size);
            if sieve.matched.is_some() {
                return Ok(());
            }
        }
        Ok(())
    }
}

/// The frozen layers of one guessing pass, stratified by type and size.
/// Layers below the size currently being generated are immutable, so reads
/// hand out slices (no snapshot clones) while the current size accumulates
/// in the [`Sieve`]'s staging area.
struct Pool {
    layers: HashMap<Type, Vec<Vec<PoolTerm>>, IdHashBuilder>,
}

impl Pool {
    fn new(types: &[Type], max_size: usize) -> Pool {
        Pool {
            layers: types
                .iter()
                .map(|t| (t.clone(), vec![Vec::new(); max_size]))
                .collect(),
        }
    }

    fn has_type(&self, ty: &Type) -> bool {
        self.layers.contains_key(ty)
    }

    /// The terms of `ty` with exactly `size` nodes (empty slice if the type
    /// is not tracked).
    fn layer(&self, ty: &Type, size: usize) -> &[PoolTerm] {
        self.layers
            .get(ty)
            .and_then(|layers| layers.get(size - 1))
            .map_or(&[], Vec::as_slice)
    }

    /// The layer slices for an argument-type/size split, or `None` when a
    /// type is untracked or a layer is empty.
    fn gather<'a>(&'a self, tys: &[Type], split: &[usize]) -> Option<Vec<&'a [PoolTerm]>> {
        let mut out = Vec::with_capacity(tys.len());
        for (ty, &size) in tys.iter().zip(split) {
            let layer = self.layer(ty, size);
            if layer.is_empty() {
                return None;
            }
            out.push(layer);
        }
        Some(out)
    }

    /// Moves the sieve's staged terms into this pool as the (now immutable)
    /// layer for `size`.  Each type's layer is set on its own, so the walk
    /// does not depend on the table's iteration order.
    fn freeze(&mut self, sieve: &mut Sieve, size: usize) {
        for (ty, sieve_layer) in sieve.layers.iter_mut() {
            if let Some(layers) = self.layers.get_mut(ty) {
                if let Some(layer) = layers.get_mut(size - 1) {
                    *layer = std::mem::take(&mut sieve_layer.staging);
                }
            }
        }
    }
}

/// The per-type state of a [`Sieve`]: one table entry, so a candidate term
/// costs one `Type` hash.
#[derive(Default)]
struct SieveLayer {
    /// Terms kept at the size currently being generated.
    staging: Vec<PoolTerm>,
    /// Signature rows of every kept term.
    seen: HashSet<Sig, IdHashBuilder>,
    /// Old-column projections of kept rows (only tracked incrementally).
    seen_old: HashSet<OldSig, IdHashBuilder>,
}

/// The deduplication and match-detection state of one guessing pass.
///
/// Signature rows arrive in canonical [`Sig`] form: packed `u64` bitset
/// lanes for boolean rows (dedup hashing and target matching are then a few
/// word operations per row), interned-id rows otherwise.  When the pass has
/// both old and new signature columns (an incremental CEGIS iteration),
/// each kept term's row is also projected onto the old columns alone: a
/// projection collision with full-row distinctness means a
/// previously-merged equivalence class has been split by the new columns,
/// which is counted for the session statistics.
struct Sieve {
    /// Insertion-ordered stratification types (generation must not depend on
    /// `HashMap` iteration order).
    type_order: Vec<Type>,
    /// Staged terms and seen rows, per type.
    layers: HashMap<Type, SieveLayer, IdHashBuilder>,
    /// Per world: `true` when the column was already known to the bank.
    old_mask: Vec<bool>,
    /// `old_mask` as bitset lane words (the packed projection mask).
    old_mask_words: Box<[u64]>,
    /// Whether this pass mixes old and new columns.
    track_splits: bool,
    target: Sig,
    bool_ty: Type,
    matched: Option<Expr>,
    max_per_layer: usize,
    terms: u64,
    splits: u64,
    /// Arithmetic atoms considered (integer literals and applications of
    /// arith-tagged components).
    arith: u64,
}

impl Sieve {
    fn new(
        types: &[Type],
        matrix: &SigMatrix,
        target: Sig,
        old_mask: Vec<bool>,
        max_per_layer: usize,
    ) -> Sieve {
        let track_splits = old_mask.iter().any(|&o| o) && old_mask.iter().any(|&o| !o);
        Sieve {
            type_order: types.to_vec(),
            layers: types
                .iter()
                .map(|t| (t.clone(), SieveLayer::default()))
                .collect(),
            old_mask_words: matrix.mask_words(&old_mask),
            old_mask,
            track_splits,
            target,
            bool_ty: Type::bool(),
            matched: None,
            max_per_layer,
            terms: 0,
            splits: 0,
            arith: 0,
        }
    }

    /// Considers one candidate term: deduplicates by signature, records a
    /// match when a boolean term hits the target, stages the term otherwise.
    /// `make_expr` is only invoked for terms that survive deduplication, so
    /// pruned duplicates never pay for syntax construction.
    fn add(&mut self, matrix: &SigMatrix, ty: &Type, sig: Sig, make_expr: impl FnOnce() -> Expr) {
        self.add_tagged(matrix, ty, sig, false, make_expr);
    }

    /// [`Sieve::add`] with an arithmetic-atom tag: `arith` terms that count
    /// toward enumeration also bump the arith counter (integer literals and
    /// applications of arith-tagged components).
    fn add_tagged(
        &mut self,
        matrix: &SigMatrix,
        ty: &Type,
        sig: Sig,
        arith: bool,
        make_expr: impl FnOnce() -> Expr,
    ) {
        if self.matched.is_some() {
            return;
        }
        let Some(layer) = self.layers.get_mut(ty) else {
            return;
        };
        self.terms += 1;
        if arith {
            self.arith += 1;
        }
        if layer.staging.len() >= self.max_per_layer || !layer.seen.insert(sig.clone()) {
            return;
        }
        if self.track_splits {
            let projection = matrix.project(&sig, &self.old_mask_words, &self.old_mask);
            if !layer.seen_old.insert(projection) {
                self.splits += 1;
            }
        }
        if ty == &self.bool_ty && matrix.matches(&sig, &self.target) {
            self.matched = Some(make_expr());
            return;
        }
        layer.staging.push(PoolTerm {
            expr: make_expr(),
            sig,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hanoi_lang::parallel::par_map;
    use std::sync::Barrier;

    const LIST_SET: &str = r#"
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

    fn problem() -> Problem {
        Problem::from_source(LIST_SET).unwrap()
    }

    /// `engine`'s answer on `examples` from a fresh bank.
    fn synthesize_fresh(engine: &Engine<'_>, examples: &ExampleSet) -> Result<Expr, SynthError> {
        let counters = SynthCounters::default();
        engine.synthesize_with_bank(&TermBank::new(), &counters, examples, &Deadline::none())
    }

    fn trace_completed(problem: &Problem, examples: ExampleSet) -> ExampleSet {
        examples
            .trace_completed(&problem.tyenv, problem.concrete_type())
            .0
    }

    #[test]
    fn empty_examples_give_the_trivial_predicate() {
        let problem = problem();
        let engine = Engine::new(&problem, SearchConfig::quick());
        let result = synthesize_fresh(&engine, &ExampleSet::new()).unwrap();
        assert!(problem
            .eval_predicate(&result, &Value::nat_list(&[1, 1]))
            .unwrap());
        assert!(problem
            .eval_predicate(&result, &Value::nat_list(&[]))
            .unwrap());
    }

    #[test]
    fn simple_separations_are_found_without_recursion() {
        let problem = problem();
        let engine = Engine::new(&problem, SearchConfig::quick());
        // Positives: [] and [2]; negative: [0].  A simple non-recursive
        // predicate such as `not (lookup x 0)` separates these.
        let examples = ExampleSet::from_sets(
            [Value::nat_list(&[]), Value::nat_list(&[2])],
            [Value::nat_list(&[0])],
        )
        .unwrap();
        let examples = trace_completed(&problem, examples);
        let result = synthesize_fresh(&engine, &examples).unwrap();
        for (value, expected) in examples.labeled() {
            assert_eq!(
                problem.eval_predicate(&result, &value).unwrap(),
                expected,
                "on {value} (candidate {result})"
            );
        }
    }

    #[test]
    fn the_no_duplicates_invariant_is_synthesizable() {
        let problem = problem();
        let engine = Engine::new(&problem, SearchConfig::default());
        // Examples in the spirit of a mid-run Hanoi state: several
        // constructible (duplicate-free) lists and several duplicate lists.
        let examples = ExampleSet::from_sets(
            [
                Value::nat_list(&[]),
                Value::nat_list(&[0]),
                Value::nat_list(&[1]),
                Value::nat_list(&[1, 0]),
                Value::nat_list(&[2, 1]),
                Value::nat_list(&[2, 1, 0]),
            ],
            [
                Value::nat_list(&[0, 0]),
                Value::nat_list(&[1, 1]),
                Value::nat_list(&[0, 1, 0]),
                Value::nat_list(&[2, 2, 1]),
            ],
        )
        .unwrap();
        let examples = trace_completed(&problem, examples);
        let result = synthesize_fresh(&engine, &examples).unwrap();
        for (value, expected) in examples.labeled() {
            assert_eq!(
                problem.eval_predicate(&result, &value).unwrap(),
                expected,
                "on {value} (candidate {result})"
            );
        }
        // The synthesized predicate should generalise like the paper's
        // invariant: it must reject unseen duplicate lists and accept unseen
        // duplicate-free ones.
        assert!(!problem
            .eval_predicate(&result, &Value::nat_list(&[3, 3]))
            .unwrap());
        assert!(problem
            .eval_predicate(&result, &Value::nat_list(&[5, 3, 1]))
            .unwrap());
    }

    #[test]
    fn parallel_guessing_matches_serial_guessing() {
        let problem = problem();
        let examples = ExampleSet::from_sets(
            [
                Value::nat_list(&[]),
                Value::nat_list(&[0]),
                Value::nat_list(&[1]),
                Value::nat_list(&[1, 0]),
                Value::nat_list(&[2, 1]),
            ],
            [
                Value::nat_list(&[0, 0]),
                Value::nat_list(&[1, 1]),
                Value::nat_list(&[0, 1, 0]),
            ],
        )
        .unwrap();
        let examples = trace_completed(&problem, examples);
        let engine = Engine::new(&problem, SearchConfig::default());
        let serial = synthesize_fresh(&engine, &examples).unwrap();
        // Runs of one problem side by side (as `run_batch` and the server
        // make them) guess through one shared bank.
        let bank = TermBank::new();
        // With one worker per item, `par_map` hands each worker one item,
        // so the barrier starts every guess at once.
        let start = Barrier::new(3);
        let guesses = par_map(&[(); 3], 3, |_| {
            start.wait();
            let counters = SynthCounters::default();
            engine
                .synthesize_with_bank(&bank, &counters, &examples, &Deadline::none())
                .unwrap()
        });
        for guess in guesses {
            assert_eq!(guess, serial);
        }
    }

    #[test]
    fn a_persistent_bank_reproduces_fresh_results_incrementally() {
        let problem = problem();
        let engine = Engine::new(&problem, SearchConfig::quick());
        let bank = TermBank::new();
        let counters = SynthCounters::default();
        // A CEGIS-like sequence: the positives stay, negatives accumulate.
        let negatives_by_iteration: [&[&[u64]]; 3] = [
            &[&[0, 0]],
            &[&[0, 0], &[1, 1]],
            &[&[0, 0], &[1, 1], &[0, 1, 0]],
        ];
        for negatives in negatives_by_iteration {
            let examples = ExampleSet::from_sets(
                [
                    Value::nat_list(&[]),
                    Value::nat_list(&[0]),
                    Value::nat_list(&[1, 0]),
                ],
                negatives.iter().map(|items| Value::nat_list(items)),
            )
            .unwrap();
            let examples = trace_completed(&problem, examples);
            let fresh = synthesize_fresh(&engine, &examples);
            let banked =
                engine.synthesize_with_bank(&bank, &counters, &examples, &Deadline::none());
            assert_eq!(banked, fresh);
        }
        assert!(
            counters.bank_hits.load(Ordering::Relaxed) > 0,
            "later iterations reuse evaluations"
        );
        assert!(
            counters.column_appends.load(Ordering::Relaxed) > 0,
            "new counterexamples append columns"
        );
        assert_eq!(bank.stats().sessions, 3);
    }

    #[test]
    fn inconsistent_examples_cannot_be_separated() {
        let problem = problem();
        let engine = Engine::new(&problem, SearchConfig::quick());
        // Directly conflicting example sets cannot even be constructed; what
        // the engine can see is a semantically impossible labeling, e.g. two
        // observationally identical values labelled differently is impossible
        // for values, so instead check the trivial "no candidate" path by
        // asking for a separation with an exhausted schedule.
        let mut config = SearchConfig::quick();
        config.schedule = vec![(0, 1)];
        let engine_small = Engine::new(&problem, config);
        let examples =
            ExampleSet::from_sets([Value::nat_list(&[1, 0])], [Value::nat_list(&[0, 1])]).unwrap();
        let result = synthesize_fresh(&engine_small, &examples);
        assert_eq!(result, Err(SynthError::NoCandidate));
        // The full engine, however, can separate them (e.g. via lookup of the
        // head in the tail or an equality involving constants).
        let _ = engine;
    }

    #[test]
    fn expired_deadline_times_out() {
        let problem = problem();
        let engine = Engine::new(&problem, SearchConfig::quick());
        let deadline = Deadline::at(std::time::Instant::now() - std::time::Duration::from_secs(1));
        let examples =
            ExampleSet::from_sets([Value::nat_list(&[1, 0])], [Value::nat_list(&[1, 1])]).unwrap();
        assert_eq!(
            engine.synthesize_with_bank(
                &TermBank::new(),
                &SynthCounters::default(),
                &examples,
                &deadline
            ),
            Err(SynthError::Timeout)
        );
    }

    #[test]
    fn compositions_helper() {
        // The size splits the engine draws from the shared helper.
        assert_eq!(
            *compositions(4, 2),
            vec![vec![1, 3], vec![2, 2], vec![3, 1]]
        );
        assert!(compositions(1, 2).is_empty());
        // The memo serves repeated requests from the same allocation.
        assert!(std::sync::Arc::ptr_eq(
            &compositions(4, 2),
            &compositions(4, 2)
        ));
    }
}
