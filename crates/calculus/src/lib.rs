//! The GemStone set calculus and set algebra (§3, §5.1, §6).
//!
//! "We have developed a set algebra, and an algorithm to translate a
//! set-calculus expression to a set-algebra expression." The declarative
//! layer is what lets GemStone do "access planning … much more \[than\] with
//! an equivalent query specified procedurally" (§5.2), and §6 notes the
//! OPAL compiler needed "a large addition … to translate calculus
//! expressions into procedural form". This crate is that addition:
//!
//! * [`Query`] — the calculus: range variables over set-valued terms
//!   (domains may mention earlier variables), a predicate, and a result
//!   template;
//! * [`AlgExpr`] — the algebra: dependent scans, selections, index scans,
//!   and the template projection;
//! * [`translate`] — the calculus→algebra algorithm: conjunct extraction,
//!   predicate pushdown, and directory-aware scan replacement;
//! * [`QueryContext`] — the object-graph interface the evaluator runs
//!   against, implemented by the core crate's sessions (and by a mock here
//!   for unit tests).
//!
//! The calculus is deliberately *isomorphic* to the pre-merger STDM calculus
//! in `gemstone-stdm`; it differs in operating over [`Oop`]s and interned
//! [`ElemName`]s so it can run inside the Object Manager with entity
//! identity preserved.

mod algebra;
mod ast;
pub mod stats;
mod translate;

pub use algebra::{
    est_err_pct, eval_algebra, eval_algebra_profiled, eval_algebra_stats, scrape_selectivities,
    AlgExpr, OpNode, OpProfile, PlanStats,
};
pub use ast::{CmpOp, EnvRead, Pred, Query, Range, Term, VarId};
pub use stats::{
    path_key, pred_key, KeySketch, SelObs, SetStats, StatsCatalog, StatsView, VarStats,
};
pub use translate::{
    plan_candidates, plan_query, translate, translate_with, IndexCatalog, PlanDecision, PlanOptions,
};

use gemstone_object::{ElemName, GemResult, Oop, ValueKey};

/// The key a value hashes under in a [`AlgExpr::HashJoin`] table. Reuses
/// the Object Manager's structural key ([`ValueKey`]): `structurally_equal`
/// is *defined* as value-key equality, so hashing by it is exactly
/// consistent with the evaluator's `equals`.
pub type JoinKey = ValueKey;

/// The object-graph view a query evaluates against. Implementations decide
/// how elements are fetched (workspace, permanent store, past state via the
/// time dial) and whether a directory covers a collection.
pub trait QueryContext {
    /// The value of `obj`'s element `name` (nil if absent).
    fn elem(&mut self, obj: Oop, name: ElemName) -> GemResult<Oop>;

    /// Append element `name` of every object in `objs` to `out`, in order:
    /// one column of a block. Must read exactly what calling
    /// [`Self::elem`] on each object in turn would; an implementation
    /// overrides it only to pay per-call costs once per column.
    fn elem_column(&mut self, objs: &[Oop], name: ElemName, out: &mut Vec<Oop>) -> GemResult<()> {
        out.reserve(objs.len());
        for &obj in objs {
            out.push(self.elem(obj, name)?);
        }
        Ok(())
    }

    /// The present element values of a collection, in element-name order.
    fn elements(&mut self, obj: Oop) -> GemResult<Vec<Oop>>;

    /// Structural equivalence (`=`).
    fn equals(&mut self, a: Oop, b: Oop) -> GemResult<bool>;

    /// Ordering for `<`/`>` comparisons (numbers and strings).
    fn compare(&mut self, a: Oop, b: Oop) -> GemResult<Option<std::cmp::Ordering>>;

    /// If a directory indexes `collection` on `path`, return the members
    /// whose path value equals `key` — otherwise `None` and the evaluator
    /// falls back to a scan. This is how "hints given in OPAL for
    /// structuring directories" (§6) reach query evaluation.
    fn index_lookup(
        &mut self,
        collection: Oop,
        path: &[ElemName],
        key: Oop,
    ) -> GemResult<Option<Vec<Oop>>>;

    /// Range analogue of [`Self::index_lookup`]: members whose path value
    /// lies in `(lo, hi)` with the given inclusivities (`None` bound =
    /// unbounded). Returns `None` when no directory covers the collection.
    fn index_range(
        &mut self,
        _collection: Oop,
        _path: &[ElemName],
        _lo: Option<(Oop, bool)>,
        _hi: Option<(Oop, bool)>,
    ) -> GemResult<Option<Vec<Oop>>> {
        Ok(None)
    }

    /// The hash key of `v` for equi-join tables, or `None` when `v` has no
    /// stable hashable image (such rows join by pairwise `equals` instead,
    /// so `None` is always safe — just slower).
    ///
    /// Contract, for any two values whose keys are both `Some`: the keys
    /// are equal **iff** [`Self::equals`] holds. Matched buckets emit
    /// without re-checking `equals`, so a too-coarse key produces wrong
    /// answers, not just wrong speed. The default covers immediates whose
    /// equality every context shares (numbers with `1 = 1.0` folding,
    /// characters, booleans, nil); NaN maps to `None` because `NaN = NaN`
    /// is false while its bits collide.
    fn join_key(&mut self, v: Oop) -> GemResult<Option<JoinKey>> {
        use gemstone_object::OopKind;
        Ok(match v.kind() {
            OopKind::Int(i) => Some(ValueKey::num(i as f64)),
            OopKind::Float(f) => {
                if f.is_nan() {
                    None
                } else {
                    Some(ValueKey::num(f))
                }
            }
            OopKind::Char(c) => Some(ValueKey::Char(c)),
            OopKind::Nil | OopKind::True | OopKind::False => Some(ValueKey::Imm(v.bits())),
            _ => None,
        })
    }
}

/// Evaluate a calculus query: translate to algebra (using `indexes` to spot
/// usable directories), then run the algebra. Returns one binding tuple per
/// result, in template order.
pub fn eval_query<C: QueryContext>(
    ctx: &mut C,
    query: &Query,
    indexes: &IndexCatalog,
) -> GemResult<Vec<Vec<Oop>>> {
    let (rows, _, _) = eval_query_explained(ctx, query, indexes)?;
    Ok(rows)
}

/// [`eval_query`], additionally returning the chosen plan and the operator
/// counters it accumulated — the payload behind `Session::explain()`.
pub fn eval_query_explained<C: QueryContext>(
    ctx: &mut C,
    query: &Query,
    indexes: &IndexCatalog,
) -> GemResult<(Vec<Vec<Oop>>, AlgExpr, PlanStats)> {
    let (rows, decision, stats) =
        eval_query_explained_with(ctx, query, indexes, &PlanOptions::default())?;
    Ok((rows, decision.plan, stats))
}

/// [`eval_query_explained`] with explicit [`PlanOptions`] (statistics for
/// the cost model ride in on `options.stats`), returning the full
/// [`PlanDecision`] so callers can journal the choice.
pub fn eval_query_explained_with<C: QueryContext>(
    ctx: &mut C,
    query: &Query,
    indexes: &IndexCatalog,
    options: &PlanOptions,
) -> GemResult<(Vec<Vec<Oop>>, PlanDecision, PlanStats)> {
    let decision = plan_query(query, indexes, options);
    let mut stats = PlanStats::default();
    let rows = eval_algebra_stats(ctx, &decision.plan, query, &mut stats)?;
    Ok((rows, decision, stats))
}

/// [`eval_query_explained`] with per-operator profiling: also returns an
/// [`OpProfile`] annotating every algebra node with rows-in/rows-out,
/// hash-build sizes, and inclusive wall time read from `clock`
/// (nanoseconds) — the payload behind `Session::explain_analyze`.
pub fn eval_query_profiled<C: QueryContext>(
    ctx: &mut C,
    query: &Query,
    indexes: &IndexCatalog,
    clock: &dyn Fn() -> u64,
) -> GemResult<(Vec<Vec<Oop>>, AlgExpr, PlanStats, OpProfile)> {
    let (rows, decision, stats, profile) =
        eval_query_profiled_with(ctx, query, indexes, &PlanOptions::default(), clock)?;
    Ok((rows, decision.plan, stats, profile))
}

/// [`eval_query_profiled`] with explicit [`PlanOptions`]: the returned
/// [`OpProfile`] carries the planner's per-operator estimates, so every
/// analyzed run reports estimate vs actual.
pub fn eval_query_profiled_with<C: QueryContext>(
    ctx: &mut C,
    query: &Query,
    indexes: &IndexCatalog,
    options: &PlanOptions,
    clock: &dyn Fn() -> u64,
) -> GemResult<(Vec<Vec<Oop>>, PlanDecision, PlanStats, OpProfile)> {
    let decision = plan_query(query, indexes, options);
    let mut stats = PlanStats::default();
    let (rows, mut profile) = eval_algebra_profiled(ctx, &decision.plan, query, &mut stats, clock)?;
    profile.attach_estimates(&decision.est_rows);
    Ok((rows, decision, stats, profile))
}

/// Evaluate by the calculus' direct semantics (pure nested loops, no
/// planning). The algebra must agree with this — checked by tests and
/// property tests.
pub fn eval_naive<C: QueryContext>(ctx: &mut C, query: &Query) -> GemResult<Vec<Vec<Oop>>> {
    let mut out = Vec::new();
    let mut env: Vec<Oop> = vec![Oop::NIL; query.var_count()];
    naive_ranges(ctx, query, 0, &mut env, &mut out)?;
    Ok(out)
}

fn naive_ranges<C: QueryContext>(
    ctx: &mut C,
    query: &Query,
    depth: usize,
    env: &mut Vec<Oop>,
    out: &mut Vec<Vec<Oop>>,
) -> GemResult<()> {
    if depth == query.ranges.len() {
        if ast::eval_pred(ctx, &query.pred, env)? {
            let mut tuple = Vec::with_capacity(query.result.len());
            for (_, term) in &query.result {
                tuple.push(ast::eval_term(ctx, term, env)?);
            }
            out.push(tuple);
        }
        return Ok(());
    }
    let range = &query.ranges[depth];
    let domain = ast::eval_term(ctx, &range.domain, env)?;
    for v in ctx.elements(domain)? {
        env[range.var.0 as usize] = v;
        naive_ranges(ctx, query, depth + 1, env, out)?;
    }
    env[range.var.0 as usize] = Oop::NIL;
    Ok(())
}
