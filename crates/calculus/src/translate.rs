//! The calculus → algebra translation algorithm, and the cost-based
//! planner layered on top of it.
//!
//! §3 / §8: the translation algorithm ("Fred Boals did the initial work on
//! the set calculus to set algebra translation algorithm, and Bob Johnson
//! brought it to its current form"). The strategy:
//!
//! 1. split the predicate into conjuncts;
//! 2. visit ranges in declaration order, building a left-deep tree of
//!    dependent scans;
//! 3. *push down* each conjunct to the earliest point where all its
//!    variables are bound;
//! 4. when the conjunct being pushed is an equality between the newly
//!    scanned variable's path and an already-computable key, and a
//!    directory plausibly covers that path, fuse scan + selection into an
//!    [`AlgExpr::IndexScan`];
//! 5. when a new range is *independent* of everything bound so far (its
//!    domain and scan terms mention no earlier variable) and an equality
//!    conjunct links it to the bound side (`l!path = r!path`), replace the
//!    nested loop with an [`AlgExpr::HashJoin`] — conjuncts over the new
//!    variable alone are pushed onto its scan *before* the join, so the
//!    build side hashes only surviving rows.
//!
//! With statistics ([`PlanOptions::stats`]), [`plan_query`] additionally
//! enumerates every dependency-respecting left-deep range order (plus a
//! scan-only variant per order, so index-vs-scan is a costed choice, not
//! a reflex), estimates each candidate with the cost model below, and
//! picks the cheapest — recording the considered alternatives so the
//! `PlanChoice` journal event can show its work. Without statistics the
//! declaration-order plan is emitted unchanged (`cost_based = false`),
//! which keeps the fixed PR 1 shapes byte-for-byte stable.

use crate::algebra::AlgExpr;
use crate::ast::{CmpOp, Pred, Query, Term, VarId};
use crate::stats::{
    pred_key, StatsView, DEFAULT_CARD, DEFAULT_CMP_SEL, DEFAULT_EQ_SEL, DEFAULT_FANOUT,
};
use gemstone_object::ElemName;
use std::collections::HashSet;

/// Which element paths have directories built over them. Translation only
/// needs plausibility; the [`crate::QueryContext`] makes the final call per
/// collection at run time.
#[derive(Debug, Default, Clone)]
pub struct IndexCatalog {
    paths: HashSet<Vec<ElemName>>,
}

impl IndexCatalog {
    /// An empty catalog (every query plans as pure scans).
    pub fn new() -> IndexCatalog {
        IndexCatalog::default()
    }

    /// Register that directories exist over `path`.
    pub fn add_path(&mut self, path: Vec<ElemName>) {
        self.paths.insert(path);
    }

    /// True if some directory covers `path`.
    pub fn covers(&self, path: &[ElemName]) -> bool {
        self.paths.contains(path)
    }
}

/// Options steering plan selection.
#[derive(Debug, Clone)]
pub struct PlanOptions {
    /// Rewrite independent, equality-linked range pairs into hash joins.
    /// Off forces the pure nested-loop shape (used by benchmarks to measure
    /// the plans against each other on identical queries).
    pub hash_joins: bool,
    /// Statistics resolved for this query's range variables. `None` plans
    /// in declaration order exactly as before; `Some` turns on cost-based
    /// join ordering and index-vs-scan choice.
    pub stats: Option<StatsView>,
}

impl Default for PlanOptions {
    fn default() -> Self {
        PlanOptions { hash_joins: true, stats: None }
    }
}

/// Candidate-order enumeration cap (5! — every order of a 5-way join).
const MAX_ORDERS: usize = 120;
/// How many considered alternatives a decision records for the journal.
const MAX_ALTERNATIVES: usize = 8;
/// Per-probe overhead charged to a directory lookup, in row-visit units.
const INDEX_PROBE_COST: f64 = 1.0;

/// The planner's full answer: the plan plus everything the observability
/// contract wants to know about how it was chosen.
#[derive(Debug, Clone)]
pub struct PlanDecision {
    /// The chosen plan.
    pub plan: AlgExpr,
    /// Canonical plan string (`plan.describe()`), the exact-match identity
    /// used by journal events and the plan-regression gate.
    pub canon: String,
    /// Estimated rows_out per operator, in the same pre-order as
    /// [`crate::OpProfile`] nodes — zipped against actuals after a run.
    pub est_rows: Vec<u64>,
    /// Estimated cost of the chosen plan (row-visit units).
    pub est_cost: f64,
    /// Considered `(canonical plan, estimated cost)` pairs, chosen first.
    pub alternatives: Vec<(String, f64)>,
    /// True when statistics actually drove the choice.
    pub cost_based: bool,
}

/// Translate a calculus query into an algebra plan with default options.
pub fn translate(query: &Query, indexes: &IndexCatalog) -> AlgExpr {
    translate_with(query, indexes, &PlanOptions::default())
}

/// Translate a calculus query into an algebra plan.
pub fn translate_with(query: &Query, indexes: &IndexCatalog, options: &PlanOptions) -> AlgExpr {
    plan_query(query, indexes, options).plan
}

/// Plan a query and report the decision. Without statistics this is the
/// fixed declaration-order translation; with them, the cheapest admissible
/// candidate by the cost model.
pub fn plan_query(query: &Query, indexes: &IndexCatalog, options: &PlanOptions) -> PlanDecision {
    let identity: Vec<usize> = (0..query.ranges.len()).collect();
    let view = options.stats.as_ref();
    if view.is_none() || query.ranges.len() < 2 {
        let plan = build_plan(query, &identity, indexes, options);
        let mut est_rows = Vec::new();
        let est_cost = estimate(&plan, view, &mut est_rows);
        return PlanDecision {
            canon: plan.describe(),
            est_rows,
            est_cost,
            alternatives: vec![(plan.describe(), est_cost)],
            cost_based: false,
            plan,
        };
    }
    let mut candidates: Vec<(AlgExpr, f64, Vec<u64>)> = plan_candidates(query, indexes, options)
        .into_iter()
        .map(|plan| {
            let mut est_rows = Vec::new();
            let cost = estimate(&plan, view, &mut est_rows);
            (plan, cost, est_rows)
        })
        .collect();
    let best = candidates
        .iter()
        .enumerate()
        .min_by(|(ai, a), (bi, b)| a.1.partial_cmp(&b.1).unwrap().then(ai.cmp(bi)))
        .map(|(i, _)| i)
        .unwrap_or(0);
    let mut alternatives = vec![(candidates[best].0.describe(), candidates[best].1)];
    for (i, (p, c, _)) in candidates.iter().enumerate() {
        if i != best && alternatives.len() < MAX_ALTERNATIVES {
            alternatives.push((p.describe(), *c));
        }
    }
    let (plan, est_cost, est_rows) = candidates.swap_remove(best);
    PlanDecision {
        canon: plan.describe(),
        est_rows,
        est_cost,
        alternatives,
        cost_based: true,
        plan,
    }
}

/// Every plan the cost-based planner weighs for `query`, deduplicated:
/// each admissible range order, its index-using variant before its
/// scan-only one, declaration order first (so on a cost tie the earlier
/// candidate wins). Each is an executable plan with the query's meaning —
/// the differential tests run all of them against the calculus semantics.
#[doc(hidden)]
pub fn plan_candidates(
    query: &Query,
    indexes: &IndexCatalog,
    options: &PlanOptions,
) -> Vec<AlgExpr> {
    let empty = IndexCatalog::new();
    let mut out: Vec<AlgExpr> = Vec::new();
    for order in admissible_orders(query, MAX_ORDERS) {
        for catalog in [indexes, &empty] {
            let plan = build_plan(query, &order, catalog, options);
            if !out.contains(&plan) {
                out.push(plan);
            }
        }
    }
    out
}

/// Every range order whose dependent domains stay to the right of the
/// variables they mention, up to `cap`. Declaration order comes first.
fn admissible_orders(query: &Query, cap: usize) -> Vec<Vec<usize>> {
    fn rec(
        query: &Query,
        chosen: &mut Vec<usize>,
        bound: &mut Vec<VarId>,
        out: &mut Vec<Vec<usize>>,
        cap: usize,
    ) {
        if out.len() >= cap {
            return;
        }
        if chosen.len() == query.ranges.len() {
            out.push(chosen.clone());
            return;
        }
        for i in 0..query.ranges.len() {
            if chosen.contains(&i) {
                continue;
            }
            let mut vs = Vec::new();
            query.ranges[i].domain.vars(&mut vs);
            if vs.iter().all(|v| bound.contains(v)) {
                chosen.push(i);
                bound.push(query.ranges[i].var);
                rec(query, chosen, bound, out, cap);
                bound.pop();
                chosen.pop();
            }
        }
    }
    let mut out = Vec::new();
    rec(query, &mut Vec::new(), &mut Vec::new(), &mut out, cap);
    out
}

/// The translation loop proper, visiting ranges in `order` (indices into
/// `query.ranges`). `order = 0..n` reproduces the historical algorithm.
fn build_plan(
    query: &Query,
    order: &[usize],
    indexes: &IndexCatalog,
    options: &PlanOptions,
) -> AlgExpr {
    let mut remaining: Vec<Pred> = query.pred.clone().conjuncts();
    let mut bound: Vec<VarId> = Vec::new();
    let mut plan = AlgExpr::Unit;

    for &ri in order {
        let range = &query.ranges[ri];
        // Try to find an indexable equality conjunct for this range's var,
        // then fall back to range-bound conjuncts.
        let mut fused: Option<(Vec<ElemName>, Term)> = None;
        if let Some(pos) =
            remaining.iter().position(|c| indexable_key(c, range.var, &bound, indexes).is_some())
        {
            let c = remaining.remove(pos);
            fused = indexable_key(&c, range.var, &bound, indexes);
        }
        let mut scan = match fused {
            Some((path, key)) => {
                AlgExpr::IndexScan { var: range.var, domain: range.domain.clone(), path, key }
            }
            None => match extract_range_bounds(&mut remaining, range.var, &bound, indexes) {
                Some((path, lo, hi)) => AlgExpr::IndexRangeScan {
                    var: range.var,
                    domain: range.domain.clone(),
                    path,
                    lo,
                    hi,
                },
                None => AlgExpr::Scan { var: range.var, domain: range.domain.clone() },
            },
        };

        // Pre-join pushdown: conjuncts over the new variable alone filter
        // the scan before any join sees the row (so a hash join's build
        // side hashes only survivors).
        let (early, rest): (Vec<Pred>, Vec<Pred>) = remaining.into_iter().partition(|c| {
            let mut vs = Vec::new();
            c.vars(&mut vs);
            !vs.is_empty() && vs.iter().all(|v| *v == range.var)
        });
        remaining = rest;
        if !early.is_empty() {
            let pred = early.into_iter().reduce(Pred::and).unwrap();
            scan = AlgExpr::Select { input: Box::new(scan), pred };
        }

        plan = if matches!(plan, AlgExpr::Unit) {
            scan
        } else if options.hash_joins && is_independent(&scan, range.var) {
            match take_join_keys(&mut remaining, &bound, range.var) {
                Some((left_key, right_key)) => AlgExpr::HashJoin {
                    left: Box::new(plan),
                    right: Box::new(scan),
                    left_key,
                    right_key,
                },
                None => AlgExpr::NestJoin { left: Box::new(plan), right: Box::new(scan) },
            }
        } else {
            AlgExpr::NestJoin { left: Box::new(plan), right: Box::new(scan) }
        };
        bound.push(range.var);

        // Push down every conjunct now fully bound.
        let (ready, rest): (Vec<Pred>, Vec<Pred>) = remaining.into_iter().partition(|c| {
            let mut vs = Vec::new();
            c.vars(&mut vs);
            vs.iter().all(|v| bound.contains(v))
        });
        remaining = rest;
        if !ready.is_empty() {
            let pred = ready.into_iter().reduce(Pred::and).unwrap();
            plan = AlgExpr::Select { input: Box::new(plan), pred };
        }
    }

    // Conjuncts over no range variables (constants / root-only): final filter.
    if !remaining.is_empty() {
        let pred = remaining.into_iter().reduce(Pred::and).unwrap();
        plan = AlgExpr::Select { input: Box::new(plan), pred };
    }
    plan
}

// ------------------------------------------------------------ cost model

/// Estimate `plan`, filling `est` with per-operator rows_out in the same
/// pre-order as [`crate::algebra::OpProfile`] indexes nodes. Returns the
/// total cost in row-visit units (what [`crate::PlanStats::row_visits`]
/// plus hash build/probe traffic measures after the fact).
fn estimate(plan: &AlgExpr, view: Option<&StatsView>, est: &mut Vec<u64>) -> f64 {
    let (cost, _) = est_node(plan, 1.0, view, est);
    cost
}

/// `(cost, rows)` of one node when its subtree runs `mult` times in total
/// (nest-join right sides run once per left row — their counters, and so
/// their estimates, accumulate across iterations).
fn est_node(expr: &AlgExpr, mult: f64, view: Option<&StatsView>, est: &mut Vec<u64>) -> (f64, f64) {
    let slot = est.len();
    est.push(0);
    let (cost, rows) = match expr {
        AlgExpr::Unit => (0.0, mult),
        AlgExpr::Scan { var, domain } => {
            let card = var_card(*var, domain, view);
            (mult * card, mult * card)
        }
        AlgExpr::IndexScan { var, domain, path, key } => {
            let card = var_card(*var, domain, view);
            let sel = index_eq_sel(*var, path, key, view);
            let rows = mult * card * sel;
            (rows + mult * INDEX_PROBE_COST, rows)
        }
        AlgExpr::IndexRangeScan { var, domain, path, lo, hi } => {
            let card = var_card(*var, domain, view);
            let sel = index_range_sel(*var, path, lo, hi, view);
            let rows = mult * card * sel;
            (rows + mult * INDEX_PROBE_COST, rows)
        }
        AlgExpr::Select { input, pred } => {
            let (in_cost, in_rows) = est_node(input, mult, view, est);
            let sel: f64 = pred.clone().conjuncts().iter().map(|c| conjunct_sel(c, view)).product();
            (in_cost + in_rows, in_rows * sel)
        }
        AlgExpr::NestJoin { left, right } => {
            let (l_cost, l_rows) = est_node(left, mult, view, est);
            let (r_cost, r_rows) = est_node(right, l_rows.max(mult), view, est);
            (l_cost + r_cost, r_rows)
        }
        AlgExpr::HashJoin { left, right, left_key, right_key } => {
            let (l_cost, l_rows) = est_node(left, mult, view, est);
            let (r_cost, r_rows) = est_node(right, mult, view, est);
            let per_l = l_rows / mult.max(1.0);
            let per_r = r_rows / mult.max(1.0);
            let sel = equi_join_sel(left_key, right_key, per_r, view);
            let rows = mult * (per_l * per_r * sel);
            (l_cost + r_cost + l_rows + r_rows, rows)
        }
    };
    est[slot] = rows.round() as u64;
    (cost, rows)
}

/// Base cardinality of one range variable: resolved statistics when the
/// session provided them, otherwise a default by domain shape (independent
/// domains are whole sets; dependent domains are per-row fan-outs).
fn var_card(var: VarId, domain: &Term, view: Option<&StatsView>) -> f64 {
    if let Some(v) = view.and_then(|w| w.var(var.0)) {
        return v.cardinality.max(1) as f64;
    }
    let mut vs = Vec::new();
    domain.vars(&mut vs);
    if vs.is_empty() {
        DEFAULT_CARD as f64
    } else {
        DEFAULT_FANOUT as f64
    }
}

fn const_num(t: &Term) -> Option<f64> {
    match t {
        Term::Const(o) => o.as_number(),
        _ => None,
    }
}

/// Selectivity of an index equality probe on `var!path = key`. A probe
/// keyed by another variable's path is an equi-join in disguise, so it
/// gets the same overlap-window estimate as a hash join. When the
/// variable has statistics but no sketch over `path`, the training pass
/// (one sketch per directory) is evidence that *this* set has no
/// directory there — the runtime will fall back to a scan per probe, so
/// the estimate must not pretend the probe filters anything.
fn index_eq_sel(var: VarId, path: &[ElemName], key: &Term, view: Option<&StatsView>) -> f64 {
    let Some(vstat) = view.and_then(|w| w.var(var.0)) else {
        return DEFAULT_EQ_SEL;
    };
    let Some(sketch) = vstat.sketch(path) else {
        return 1.0;
    };
    match (const_num(key), key) {
        (Some(k), _) => sketch.selectivity_eq(k),
        (None, Term::Path(kv, kpath)) => {
            match view.and_then(|w| w.var(kv.0)).and_then(|v| v.sketch(kpath)) {
                Some(ks) => ks.equi_join_selectivity(sketch),
                None => 1.0 / sketch.distinct.max(1) as f64,
            }
        }
        _ => 1.0 / sketch.distinct.max(1) as f64,
    }
}

/// Selectivity of an index range probe over `var!path`.
fn index_range_sel(
    var: VarId,
    path: &[ElemName],
    lo: &Option<(Term, bool)>,
    hi: &Option<(Term, bool)>,
    view: Option<&StatsView>,
) -> f64 {
    let Some(vstat) = view.and_then(|w| w.var(var.0)) else {
        return DEFAULT_CMP_SEL;
    };
    let Some(sketch) = vstat.sketch(path) else {
        return 1.0; // statistics but no sketch: no directory, probes scan
    };
    let resolve = |b: &Option<(Term, bool)>| match b {
        Some((t, inc)) => const_num(t).map(|k| (k, *inc)),
        None => None,
    };
    match (resolve(lo), resolve(hi)) {
        (l, h) if l.is_some() || h.is_some() => sketch.selectivity_range(l, h),
        _ => DEFAULT_CMP_SEL,
    }
}

/// The sketch covering a join key's path, when one exists.
fn sketch_of<'a>(key: &Term, view: Option<&'a StatsView>) -> Option<&'a crate::stats::KeySketch> {
    let Term::Path(v, path) = key else { return None };
    view.and_then(|w| w.var(v.0)).and_then(|s| s.sketch(path))
}

/// Equi-join selectivity for a hash join: the overlap-window containment
/// estimate when both key columns carry sketches, `1/distinct` of the one
/// sketched side otherwise, and the foreign-key assumption (`1/|R|`) when
/// neither side has key-distribution evidence.
fn equi_join_sel(left_key: &Term, right_key: &Term, per_r: f64, view: Option<&StatsView>) -> f64 {
    match (sketch_of(left_key, view), sketch_of(right_key, view)) {
        (Some(l), Some(r)) => l.equi_join_selectivity(r),
        (None, Some(r)) => 1.0 / r.distinct.max(1) as f64,
        (Some(l), None) => 1.0 / l.distinct.max(1) as f64,
        (None, None) => 1.0 / per_r.max(1.0),
    }
}

/// Selectivity of one residual conjunct: an observed figure when the
/// statement has run analyzed before, a sketch estimate for single-path
/// comparisons against constants, a structural default otherwise.
fn conjunct_sel(c: &Pred, view: Option<&StatsView>) -> f64 {
    let mut vs = Vec::new();
    c.vars(&mut vs);
    if vs.len() == 1 {
        if let Some(vstat) = view.and_then(|w| w.var(vs[0].0)) {
            if let Some(s) = vstat.predicates.get(&pred_key(c)) {
                return s.clamp(0.0, 1.0);
            }
            if let Pred::Cmp(a, op, b) = c {
                let probe = match (a, b) {
                    (Term::Path(v, p), _) if *v == vs[0] => const_num(b).map(|k| (p, *op, k)),
                    (_, Term::Path(v, p)) if *v == vs[0] => const_num(a).map(|k| (p, flip(*op), k)),
                    _ => None,
                };
                if let Some((path, op, k)) = probe {
                    if let Some(sketch) = vstat.sketch(path) {
                        return match op {
                            CmpOp::Eq => sketch.selectivity_eq(k),
                            CmpOp::Ne => 1.0 - sketch.selectivity_eq(k),
                            CmpOp::Lt => sketch.selectivity_range(None, Some((k, false))),
                            CmpOp::Le => sketch.selectivity_range(None, Some((k, true))),
                            CmpOp::Gt => sketch.selectivity_range(Some((k, false)), None),
                            CmpOp::Ge => sketch.selectivity_range(Some((k, true)), None),
                        };
                    }
                }
            }
        }
    }
    match c {
        Pred::Cmp(_, CmpOp::Eq, _) | Pred::In(_, _) => DEFAULT_EQ_SEL,
        Pred::Cmp(_, CmpOp::Ne, _) => 1.0 - DEFAULT_EQ_SEL,
        Pred::Cmp(_, _, _) => DEFAULT_CMP_SEL,
        Pred::True => 1.0,
        _ => 0.5,
    }
}

/// True when every term inside `expr` mentions no variable other than
/// `var` — i.e. the subplan can be evaluated once, independent of rows
/// produced to its left. Required for the hash-join build side.
fn is_independent(expr: &AlgExpr, var: VarId) -> bool {
    let mut vs = Vec::new();
    match expr {
        AlgExpr::Unit => {}
        AlgExpr::Scan { domain, .. } => domain.vars(&mut vs),
        AlgExpr::IndexScan { domain, key, .. } => {
            domain.vars(&mut vs);
            key.vars(&mut vs);
        }
        AlgExpr::IndexRangeScan { domain, lo, hi, .. } => {
            domain.vars(&mut vs);
            if let Some((t, _)) = lo {
                t.vars(&mut vs);
            }
            if let Some((t, _)) = hi {
                t.vars(&mut vs);
            }
        }
        AlgExpr::Select { input, pred } => {
            if !is_independent(input, var) {
                return false;
            }
            pred.vars(&mut vs);
        }
        AlgExpr::NestJoin { left, right } => {
            return is_independent(left, var) && is_independent(right, var);
        }
        AlgExpr::HashJoin { left, right, left_key, right_key } => {
            if !is_independent(left, var) || !is_independent(right, var) {
                return false;
            }
            left_key.vars(&mut vs);
            right_key.vars(&mut vs);
        }
    }
    vs.iter().all(|v| *v == var)
}

/// Find (and remove) an equality conjunct linking the bound side to the new
/// variable: one side computable from `bound` alone (nonempty), the other
/// mentioning exactly the new variable. Returns `(left_key, right_key)` as
/// (bound-side, new-side) probe/build keys.
fn take_join_keys(remaining: &mut Vec<Pred>, bound: &[VarId], var: VarId) -> Option<(Term, Term)> {
    for i in 0..remaining.len() {
        let Pred::Cmp(a, CmpOp::Eq, b) = &remaining[i] else { continue };
        let (mut av, mut bv) = (Vec::new(), Vec::new());
        a.vars(&mut av);
        b.vars(&mut bv);
        let a_bound = !av.is_empty() && av.iter().all(|v| bound.contains(v));
        let b_bound = !bv.is_empty() && bv.iter().all(|v| bound.contains(v));
        let a_new = !av.is_empty() && av.iter().all(|v| *v == var);
        let b_new = !bv.is_empty() && bv.iter().all(|v| *v == var);
        let keys = if a_bound && b_new {
            Some((a.clone(), b.clone()))
        } else if b_bound && a_new {
            Some((b.clone(), a.clone()))
        } else {
            None
        };
        if let Some(k) = keys {
            remaining.remove(i);
            return Some(k);
        }
    }
    None
}

type Bound = Option<(Term, bool)>;

/// Collect `var!path </<=/>/>= key` conjuncts over ONE indexed path into an
/// interval, removing the conjuncts it absorbs. Returns `None` when no
/// range-indexable conjunct exists.
fn extract_range_bounds(
    remaining: &mut Vec<Pred>,
    var: VarId,
    bound: &[VarId],
    indexes: &IndexCatalog,
) -> Option<(Vec<ElemName>, Bound, Bound)> {
    // Find the first range-shaped conjunct to fix the path.
    let first = remaining.iter().position(|c| range_bound(c, var, bound, indexes).is_some())?;
    let (path, _, _) = range_bound(&remaining[first], var, bound, indexes).unwrap();
    let mut lo: Bound = None;
    let mut hi: Bound = None;
    let mut i = 0;
    while i < remaining.len() {
        match range_bound(&remaining[i], var, bound, indexes) {
            Some((p, new_lo, new_hi)) if p == path => {
                // First bound of each side wins; later ones stay as filters.
                let take_lo = new_lo.is_some() && lo.is_none();
                let take_hi = new_hi.is_some() && hi.is_none();
                if take_lo || take_hi {
                    if take_lo {
                        lo = new_lo;
                    }
                    if take_hi {
                        hi = new_hi;
                    }
                    remaining.remove(i);
                    continue;
                }
                i += 1;
            }
            _ => i += 1,
        }
    }
    Some((path, lo, hi))
}

/// If `conj` is a comparison between `var!path` and a computable key over an
/// indexed path, return the bound it contributes.
fn range_bound(
    conj: &Pred,
    var: VarId,
    bound: &[VarId],
    indexes: &IndexCatalog,
) -> Option<(Vec<ElemName>, Bound, Bound)> {
    let Pred::Cmp(a, op, b) = conj else { return None };
    // Normalize to path-op-key.
    let (path, op, key) = match (a, b) {
        (Term::Path(v, p), _) if *v == var => (p, *op, b),
        (_, Term::Path(v, p)) if *v == var => (p, flip(*op), a),
        _ => return None,
    };
    if path.is_empty() || !indexes.covers(path) {
        return None;
    }
    let mut vs = Vec::new();
    key.vars(&mut vs);
    if !vs.iter().all(|u| bound.contains(u)) {
        return None;
    }
    let k = key.clone();
    match op {
        CmpOp::Gt => Some((path.clone(), Some((k, false)), None)),
        CmpOp::Ge => Some((path.clone(), Some((k, true)), None)),
        CmpOp::Lt => Some((path.clone(), None, Some((k, false)))),
        CmpOp::Le => Some((path.clone(), None, Some((k, true)))),
        _ => None,
    }
}

fn flip(op: CmpOp) -> CmpOp {
    match op {
        CmpOp::Gt => CmpOp::Lt,
        CmpOp::Ge => CmpOp::Le,
        CmpOp::Lt => CmpOp::Gt,
        CmpOp::Le => CmpOp::Ge,
        other => other,
    }
}

/// If `conj` is `var!path = key` (either side) with `key` computable from
/// `bound` and a registered directory over `path`, return `(path, key)`.
fn indexable_key(
    conj: &Pred,
    var: VarId,
    bound: &[VarId],
    indexes: &IndexCatalog,
) -> Option<(Vec<ElemName>, Term)> {
    let Pred::Cmp(a, CmpOp::Eq, b) = conj else { return None };
    for (lhs, rhs) in [(a, b), (b, a)] {
        if let Term::Path(v, path) = lhs {
            if *v == var && !path.is_empty() && indexes.covers(path) {
                let mut vs = Vec::new();
                rhs.vars(&mut vs);
                if vs.iter().all(|u| bound.contains(u)) {
                    return Some((path.clone(), rhs.clone()));
                }
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::{KeySketch, VarStats};
    use gemstone_object::{Oop, SymbolId};

    fn sym(n: u32) -> ElemName {
        ElemName::Sym(SymbolId(n))
    }

    fn salary_query() -> Query {
        // e ∈ X, pred: e!salary = 100
        Query {
            result: vec![(SymbolId(9), Term::Var(VarId(0)))],
            ranges: vec![crate::Range { var: VarId(0), domain: Term::Const(Oop::NIL) }],
            pred: Pred::Cmp(
                Term::Path(VarId(0), vec![sym(1)]),
                CmpOp::Eq,
                Term::Const(Oop::int(100)),
            ),
        }
    }

    #[test]
    fn equality_on_indexed_path_becomes_index_scan() {
        let mut idx = IndexCatalog::new();
        idx.add_path(vec![sym(1)]);
        let plan = translate(&salary_query(), &idx);
        assert!(plan.uses_index(), "{}", plan.describe());
        assert!(matches!(plan, AlgExpr::IndexScan { .. }));
    }

    #[test]
    fn no_catalog_entry_means_scan_plus_select() {
        let plan = translate(&salary_query(), &IndexCatalog::new());
        assert!(!plan.uses_index());
        assert!(matches!(plan, AlgExpr::Select { .. }));
    }

    #[test]
    fn inequality_fuses_into_a_range_scan() {
        let mut idx = IndexCatalog::new();
        idx.add_path(vec![sym(1)]);
        let mut q = salary_query();
        q.pred =
            Pred::Cmp(Term::Path(VarId(0), vec![sym(1)]), CmpOp::Gt, Term::Const(Oop::int(100)));
        let plan = translate(&q, &idx);
        match plan {
            AlgExpr::IndexRangeScan { lo: Some((_, false)), hi: None, .. } => {}
            other => panic!("expected exclusive lower-bounded range scan, got {other:?}"),
        }
    }

    #[test]
    fn two_bounds_merge_into_one_interval() {
        // salary > 100 AND salary <= 200 → one range scan, no residual.
        let mut idx = IndexCatalog::new();
        idx.add_path(vec![sym(1)]);
        let mut q = salary_query();
        q.pred =
            Pred::Cmp(Term::Path(VarId(0), vec![sym(1)]), CmpOp::Gt, Term::Const(Oop::int(100)))
                .and(Pred::Cmp(
                    Term::Path(VarId(0), vec![sym(1)]),
                    CmpOp::Le,
                    Term::Const(Oop::int(200)),
                ));
        let plan = translate(&q, &idx);
        match plan {
            AlgExpr::IndexRangeScan { lo: Some((_, false)), hi: Some((_, true)), .. } => {}
            other => panic!("expected two-sided range scan, got {other:?}"),
        }
    }

    #[test]
    fn flipped_comparison_normalizes() {
        // 100 < salary is the same lower bound.
        let mut idx = IndexCatalog::new();
        idx.add_path(vec![sym(1)]);
        let mut q = salary_query();
        q.pred =
            Pred::Cmp(Term::Const(Oop::int(100)), CmpOp::Lt, Term::Path(VarId(0), vec![sym(1)]));
        let plan = translate(&q, &idx);
        assert!(
            matches!(plan, AlgExpr::IndexRangeScan { lo: Some((_, false)), hi: None, .. }),
            "{plan:?}"
        );
    }

    #[test]
    fn key_must_be_computable_from_bound_vars() {
        // e ∈ X, d ∈ Y, pred: e!a = d!b — when scanning e, d is unbound, so
        // the equality cannot drive an index on e; it can drive one on d.
        let mut idx = IndexCatalog::new();
        idx.add_path(vec![sym(1)]);
        idx.add_path(vec![sym(2)]);
        let q = Query {
            result: vec![],
            ranges: vec![
                crate::Range { var: VarId(0), domain: Term::Const(Oop::NIL) },
                crate::Range { var: VarId(1), domain: Term::Const(Oop::NIL) },
            ],
            pred: Pred::Cmp(
                Term::Path(VarId(0), vec![sym(1)]),
                CmpOp::Eq,
                Term::Path(VarId(1), vec![sym(2)]),
            ),
        };
        let plan = translate(&q, &idx);
        // The fusion must be on the SECOND scan (v1), keyed by v0's path.
        match &plan {
            AlgExpr::NestJoin { left, right } => {
                assert!(matches!(**left, AlgExpr::Scan { var: VarId(0), .. }));
                match &**right {
                    AlgExpr::IndexScan { var, key, .. } => {
                        assert_eq!(*var, VarId(1));
                        assert!(matches!(key, Term::Path(VarId(0), _)));
                    }
                    other => panic!("expected IndexScan, got {other:?}"),
                }
            }
            other => panic!("unexpected plan {other:?}"),
        }
    }

    #[test]
    fn pushdown_places_conjuncts_at_earliest_point() {
        // Conjunct on v0 only must sit below the v1 scan.
        let q = Query {
            result: vec![],
            ranges: vec![
                crate::Range { var: VarId(0), domain: Term::Const(Oop::NIL) },
                crate::Range { var: VarId(1), domain: Term::Const(Oop::NIL) },
            ],
            pred: Pred::Cmp(Term::Var(VarId(0)), CmpOp::Gt, Term::Const(Oop::int(3))),
        };
        let plan = translate(&q, &IndexCatalog::new());
        match plan {
            AlgExpr::NestJoin { left, right } => {
                assert!(matches!(*left, AlgExpr::Select { .. }), "filter below the join");
                assert!(matches!(*right, AlgExpr::Scan { .. }));
            }
            other => panic!("unexpected plan {other:?}"),
        }
    }

    /// e ∈ X, d ∈ Y (independent domains), pred: e!a = d!b.
    fn equi_join_query() -> Query {
        Query {
            result: vec![],
            ranges: vec![
                crate::Range { var: VarId(0), domain: Term::Const(Oop::NIL) },
                crate::Range { var: VarId(1), domain: Term::Const(Oop::TRUE) },
            ],
            pred: Pred::Cmp(
                Term::Path(VarId(0), vec![sym(1)]),
                CmpOp::Eq,
                Term::Path(VarId(1), vec![sym(2)]),
            ),
        }
    }

    #[test]
    fn independent_equality_ranges_become_hash_join() {
        let plan = translate(&equi_join_query(), &IndexCatalog::new());
        match &plan {
            AlgExpr::HashJoin { left, right, left_key, right_key } => {
                assert!(matches!(**left, AlgExpr::Scan { var: VarId(0), .. }));
                assert!(matches!(**right, AlgExpr::Scan { var: VarId(1), .. }));
                assert!(matches!(left_key, Term::Path(VarId(0), _)));
                assert!(matches!(right_key, Term::Path(VarId(1), _)));
            }
            other => panic!("expected HashJoin, got {other:?}"),
        }
        assert!(plan.uses_hash_join());
        assert!(plan.describe().contains("hash-join"), "{}", plan.describe());
    }

    #[test]
    fn flipped_equality_still_becomes_hash_join() {
        // d!b = e!a (new var on the left) normalizes to the same join.
        let mut q = equi_join_query();
        q.pred = Pred::Cmp(
            Term::Path(VarId(1), vec![sym(2)]),
            CmpOp::Eq,
            Term::Path(VarId(0), vec![sym(1)]),
        );
        let plan = translate(&q, &IndexCatalog::new());
        match &plan {
            AlgExpr::HashJoin { left_key, right_key, .. } => {
                assert!(matches!(left_key, Term::Path(VarId(0), _)), "probe key is bound side");
                assert!(matches!(right_key, Term::Path(VarId(1), _)), "build key is new side");
            }
            other => panic!("expected HashJoin, got {other:?}"),
        }
    }

    #[test]
    fn dependent_domain_falls_back_to_nest_join() {
        // m ∈ d!Managers depends on d: no hash join possible.
        let mut q = equi_join_query();
        q.ranges[1].domain = Term::Path(VarId(0), vec![sym(3)]);
        let plan = translate(&q, &IndexCatalog::new());
        assert!(!plan.uses_hash_join(), "{}", plan.describe());
    }

    #[test]
    fn hash_join_disabled_by_options() {
        let plan = translate_with(
            &equi_join_query(),
            &IndexCatalog::new(),
            &PlanOptions { hash_joins: false, stats: None },
        );
        assert!(!plan.uses_hash_join(), "{}", plan.describe());
    }

    #[test]
    fn new_var_conjuncts_push_below_the_hash_join_build() {
        // d!b = e!a AND d!c > 5: the d-only filter must wrap d's scan
        // *inside* the join build side, not sit above the join.
        let mut q = equi_join_query();
        q.pred = q.pred.clone().and(Pred::Cmp(
            Term::Path(VarId(1), vec![sym(4)]),
            CmpOp::Gt,
            Term::Const(Oop::int(5)),
        ));
        let plan = translate(&q, &IndexCatalog::new());
        match &plan {
            AlgExpr::HashJoin { right, .. } => {
                assert!(
                    matches!(**right, AlgExpr::Select { .. }),
                    "build side filtered pre-join: {}",
                    plan.describe()
                );
            }
            other => panic!("expected HashJoin, got {other:?}"),
        }
    }

    #[test]
    fn non_equality_link_is_not_a_hash_join() {
        let mut q = equi_join_query();
        q.pred = Pred::Cmp(
            Term::Path(VarId(0), vec![sym(1)]),
            CmpOp::Lt,
            Term::Path(VarId(1), vec![sym(2)]),
        );
        let plan = translate(&q, &IndexCatalog::new());
        assert!(!plan.uses_hash_join(), "{}", plan.describe());
    }

    #[test]
    fn constant_conjuncts_become_final_filter() {
        let q = Query {
            result: vec![],
            ranges: vec![],
            pred: Pred::Cmp(Term::Const(Oop::int(1)), CmpOp::Eq, Term::Const(Oop::int(1))),
        };
        let plan = translate(&q, &IndexCatalog::new());
        assert!(matches!(plan, AlgExpr::Select { .. }));
    }

    // -------------------------------------------------- cost-based tests

    fn view_with_cards(cards: &[u64]) -> StatsView {
        StatsView {
            per_var: cards
                .iter()
                .map(|&c| Some(VarStats { cardinality: c, ..VarStats::default() }))
                .collect(),
        }
    }

    /// v0 ∈ Orders (big), v1 ∈ Parts (mid), v2 ∈ Suppliers (small, heavily
    /// filtered): v0!a = v1!b AND v1!c = v2!d AND v2!e = 7.
    fn three_way_query() -> Query {
        Query {
            result: vec![],
            ranges: vec![
                crate::Range { var: VarId(0), domain: Term::Const(Oop::NIL) },
                crate::Range { var: VarId(1), domain: Term::Const(Oop::TRUE) },
                crate::Range { var: VarId(2), domain: Term::Const(Oop::FALSE) },
            ],
            pred: Pred::Cmp(
                Term::Path(VarId(0), vec![sym(1)]),
                CmpOp::Eq,
                Term::Path(VarId(1), vec![sym(2)]),
            )
            .and(Pred::Cmp(
                Term::Path(VarId(1), vec![sym(3)]),
                CmpOp::Eq,
                Term::Path(VarId(2), vec![sym(4)]),
            ))
            .and(Pred::Cmp(
                Term::Path(VarId(2), vec![sym(5)]),
                CmpOp::Eq,
                Term::Const(Oop::int(7)),
            )),
        }
    }

    #[test]
    fn without_stats_nothing_changes() {
        let q = three_way_query();
        let d = plan_query(&q, &IndexCatalog::new(), &PlanOptions::default());
        assert!(!d.cost_based);
        assert_eq!(d.plan, translate(&q, &IndexCatalog::new()));
        assert_eq!(d.canon, d.plan.describe());
        assert!(!d.est_rows.is_empty(), "estimates exist even without stats");
    }

    #[test]
    fn skewed_cardinalities_reorder_the_join() {
        let q = three_way_query();
        let opts =
            PlanOptions { hash_joins: true, stats: Some(view_with_cards(&[10_000, 100, 10])) };
        let d = plan_query(&q, &IndexCatalog::new(), &opts);
        assert!(d.cost_based);
        assert!(d.alternatives.len() > 1, "alternatives recorded");
        assert_eq!(d.alternatives[0].0, d.canon, "chosen plan listed first");
        let fixed = plan_query(&q, &IndexCatalog::new(), &PlanOptions::default());
        assert_ne!(d.canon, fixed.canon, "the skew must change the order: {}", d.canon);
        assert!(d.est_cost < fixed.est_cost.max(1.0) * 1.0 + f64::MAX.min(1e300));
        // The chosen plan starts from the filtered small side, not Orders.
        assert!(
            d.canon.starts_with("hash-join[v2") || d.canon.contains("(select(scan v2)"),
            "small filtered set drives the left-deep chain: {}",
            d.canon
        );
        // And its cost beats the declaration order's cost under the model.
        let mut est = Vec::new();
        let fixed_cost = estimate(&fixed.plan, opts.stats.as_ref(), &mut est);
        assert!(d.est_cost < fixed_cost, "{} !< {fixed_cost}", d.est_cost);
    }

    #[test]
    fn admissible_orders_respect_dependent_domains() {
        let mut q = three_way_query();
        // v1 ∈ v0!managers: v1 can never precede v0.
        q.ranges[1].domain = Term::Path(VarId(0), vec![sym(9)]);
        let orders = admissible_orders(&q, MAX_ORDERS);
        assert!(!orders.is_empty());
        for o in &orders {
            let p0 = o.iter().position(|&i| i == 0).unwrap();
            let p1 = o.iter().position(|&i| i == 1).unwrap();
            assert!(p0 < p1, "dependent range ordered after its producer: {o:?}");
        }
        assert_eq!(orders[0], vec![0, 1, 2], "declaration order enumerates first");
    }

    #[test]
    fn estimates_align_with_profile_preorder() {
        let q = three_way_query();
        let d = plan_query(
            &q,
            &IndexCatalog::new(),
            &PlanOptions { hash_joins: true, stats: Some(view_with_cards(&[50, 40, 30])) },
        );
        // est_rows must have exactly one entry per operator node.
        fn count(e: &AlgExpr) -> usize {
            match e {
                AlgExpr::Unit
                | AlgExpr::Scan { .. }
                | AlgExpr::IndexScan { .. }
                | AlgExpr::IndexRangeScan { .. } => 1,
                AlgExpr::Select { input, .. } => 1 + count(input),
                AlgExpr::NestJoin { left, right } | AlgExpr::HashJoin { left, right, .. } => {
                    1 + count(left) + count(right)
                }
            }
        }
        assert_eq!(d.est_rows.len(), count(&d.plan));
    }

    #[test]
    fn sketches_sharpen_index_estimates() {
        // Equality on an indexed path: sketch says 90% of keys are 100.
        let mut idx = IndexCatalog::new();
        idx.add_path(vec![sym(1)]);
        let mut keys = vec![100.0; 90];
        keys.extend((0..10).map(|i| i as f64));
        let mut vs = VarStats { cardinality: 100, ..VarStats::default() };
        vs.sketches.insert(crate::stats::path_key(&[sym(1)]), KeySketch::from_keys(&keys));
        let opts =
            PlanOptions { hash_joins: true, stats: Some(StatsView { per_var: vec![Some(vs)] }) };
        let d = plan_query(&salary_query(), &idx, &opts);
        // 90 of 100 rows match e!salary = 100.
        assert_eq!(*d.est_rows.first().unwrap(), 90, "{:?}", d.est_rows);
    }
}
