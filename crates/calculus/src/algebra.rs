//! The set algebra and its block-at-a-time executor.
//!
//! Operators are *dependent*: a scan's domain term may reference variables
//! bound to its left, which is what lets the algebra realize calculus ranges
//! like `m ∈ d!Managers` directly (§5.1's "variables can be bound to
//! functions of other variables"). Independent equality joins get a real
//! [`AlgExpr::HashJoin`] operator instead, so two 1 000-element sets join in
//! O(n + m) row visits rather than the nested loop's O(n·m).
//!
//! Evaluation works a *block* at a time: one column of [`Oop`]s per bound
//! variable, whose rows are the member list one `elements()` or directory
//! call returned, so there is no block-size constant. Every operator pushes
//! blocks into a sink. A comparison between paths, variables and constants
//! is one column read per path through [`QueryContext::elem_column`] and a
//! compare loop that keeps the passing rows; a fetched path column travels
//! with the block, so the result template does not read it again. Any other
//! predicate runs per row, through an [`EnvRead`] view of (block, row). A
//! dependent [`AlgExpr::NestJoin`] evaluates its right side once per left
//! row, with that row as the outer bindings. Results come out in
//! nested-loop order of the plan's scans: a hash join emits each probe
//! row's matches in build order. [`PlanStats`] counts what every operator
//! touched, row by row, which is how the benchmarks verify complexity
//! claims by counters rather than wall clock.

use crate::ast::{self, CmpOp, EnvRead, Pred, Query, Term, VarId};
use crate::{JoinKey, QueryContext};
use gemstone_object::{ElemName, GemResult, Oop};
use std::collections::HashMap;

/// One block of bindings: a column per variable bound inside the operator
/// that made it, all `len` long, plus the path columns already fetched for
/// these rows. Paths borrow their names from the plan or query, which
/// outlive the evaluation.
#[derive(Debug, Default)]
struct Block<'p> {
    len: usize,
    vars: Vec<(VarId, Vec<Oop>)>,
    paths: Vec<(VarId, &'p [ElemName], Vec<Oop>)>,
}

impl<'p> Block<'p> {
    /// `var` bound to each member, in order.
    fn scan(var: VarId, members: Vec<Oop>) -> Block<'p> {
        Block { len: members.len(), vars: vec![(var, members)], paths: Vec::new() }
    }

    fn var(&self, var: VarId) -> Option<usize> {
        self.vars.iter().position(|(v, _)| *v == var)
    }

    /// The rows at `rows`, in that order, of every column.
    fn gather(&self, rows: &[u32]) -> Block<'p> {
        let pick = |col: &[Oop]| rows.iter().map(|&r| col[r as usize]).collect();
        Block {
            len: rows.len(),
            vars: self.vars.iter().map(|(v, c)| (*v, pick(c))).collect(),
            paths: self.paths.iter().map(|(v, p, c)| (*v, *p, pick(c))).collect(),
        }
    }

    /// Keep the rows whose flag is set; `None` when none is.
    fn filter(self, keep: &[bool]) -> Option<Block<'p>> {
        let rows: Vec<u32> = (0..self.len as u32).filter(|&r| keep[r as usize]).collect();
        match rows.len() {
            0 => None,
            n if n == self.len => Some(self),
            _ => Some(self.gather(&rows)),
        }
    }

    /// `outer` with this block's row `r` bound on top: the bindings a
    /// dependent right side sees.
    fn outer_row(&self, r: usize, outer: &[Oop]) -> Vec<Oop> {
        let mut env = outer.to_vec();
        for (v, col) in &self.vars {
            let i = v.0 as usize;
            if env.len() <= i {
                env.resize(i + 1, Oop::NIL);
            }
            env[i] = col[r];
        }
        env
    }

    /// Prefix every row of `self` with row `r` of `left`.
    fn under(mut self, left: &Block<'p>, r: usize) -> Block<'p> {
        let n = self.len;
        let repeat = |col: &[Oop]| vec![col[r]; n];
        self.vars.extend(left.vars.iter().map(|(v, c)| (*v, repeat(c))));
        self.paths.extend(left.paths.iter().map(|(v, p, c)| (*v, *p, repeat(c))));
        self
    }
}

/// One row of a block over the outer bindings, for per-row evaluation.
struct RowEnv<'a, 'p> {
    block: &'a Block<'p>,
    row: usize,
    outer: &'a [Oop],
}

impl EnvRead for RowEnv<'_, '_> {
    fn read(&self, var: VarId) -> Oop {
        match self.block.var(var) {
            Some(i) => self.block.vars[i].1[self.row],
            None => self.outer.read(var),
        }
    }
}

/// A term's value at every row of a block.
enum Col {
    /// A variable column of the block.
    Var(usize),
    /// A fetched path column of the block.
    Path(usize),
    /// The same value at every row (constants, outer bindings).
    Same(Oop),
    /// Evaluated row by row.
    Rows(Vec<Oop>),
}

impl Col {
    fn at(&self, block: &Block<'_>, r: usize) -> Oop {
        match self {
            Col::Var(i) => block.vars[*i].1[r],
            Col::Path(i) => block.paths[*i].2[r],
            Col::Same(v) => *v,
            Col::Rows(vals) => vals[r],
        }
    }
}

/// `base[r]!names` for every row: one `elem_column` call per name.
fn fetch_path<C: QueryContext>(
    ctx: &mut C,
    base: &[Oop],
    names: &[ElemName],
) -> GemResult<Vec<Oop>> {
    let Some((first, rest)) = names.split_first() else { return Ok(base.to_vec()) };
    let mut vals = Vec::with_capacity(base.len());
    ctx.elem_column(base, *first, &mut vals)?;
    for name in rest {
        let mut next = Vec::with_capacity(vals.len());
        ctx.elem_column(&vals, *name, &mut next)?;
        vals = next;
    }
    Ok(vals)
}

/// True for terms read as whole columns: variables, constants and paths.
fn is_column(term: &Term) -> bool {
    matches!(term, Term::Var(_) | Term::Const(_) | Term::Path(..))
}

/// `term` over every row of `block`. A path is fetched once per block, one
/// `elem_column` call per name, and kept with the block; a path from an
/// outer variable is the same at every row and is read once.
fn column<'p, C: QueryContext>(
    ctx: &mut C,
    term: &'p Term,
    block: &mut Block<'p>,
    outer: &[Oop],
) -> GemResult<Col> {
    match term {
        Term::Const(c) => Ok(Col::Same(*c)),
        Term::Var(v) | Term::Path(v, _) => {
            let names: &'p [ElemName] = match term {
                Term::Path(_, names) => names,
                _ => &[],
            };
            let Some(base) = block.var(*v) else {
                return Ok(Col::Same(ast::eval_term(ctx, term, outer)?));
            };
            if names.is_empty() {
                return Ok(Col::Var(base));
            }
            if let Some(i) = block.paths.iter().position(|(pv, p, _)| pv == v && *p == names) {
                return Ok(Col::Path(i));
            }
            let vals = fetch_path(ctx, &block.vars[base].1, names)?;
            block.paths.push((*v, names, vals));
            Ok(Col::Path(block.paths.len() - 1))
        }
        _ => {
            let vals = (0..block.len)
                .map(|row| ast::eval_term(ctx, term, &RowEnv { block, row, outer }))
                .collect::<GemResult<_>>()?;
            Ok(Col::Rows(vals))
        }
    }
}

/// The top-level conjuncts of `pred`, left to right (`True` drops out).
fn conjuncts<'p>(pred: &'p Pred, out: &mut Vec<&'p Pred>) {
    match pred {
        Pred::And(a, b) => {
            conjuncts(a, out);
            conjuncts(b, out);
        }
        Pred::True => {}
        p => out.push(p),
    }
}

/// Which rows of `block` satisfy one conjunct.
fn test_rows<'p, C: QueryContext>(
    ctx: &mut C,
    pred: &'p Pred,
    block: &mut Block<'p>,
    outer: &[Oop],
) -> GemResult<Vec<bool>> {
    if let Pred::Cmp(a, op, b) = pred {
        if is_column(a) && is_column(b) {
            let (a, b) = (column(ctx, a, block, outer)?, column(ctx, b, block, outer)?);
            return (0..block.len)
                .map(|r| ast::cmp_values(ctx, *op, a.at(block, r), b.at(block, r)))
                .collect();
        }
    }
    (0..block.len).map(|row| ast::eval_pred(ctx, pred, &RowEnv { block, row, outer })).collect()
}

/// The members of `d` a directory scan yields: the directory's answer
/// when it has one (`served`), else every member whose `member!path`
/// passes `keep` — the scan-and-filter fallback, whose path column stays
/// with the surviving rows. `None` when no member qualifies.
#[allow(clippy::too_many_arguments)]
fn index_or_filter<'p, C: QueryContext>(
    ctx: &mut C,
    meter: &mut Meter<'_>,
    var: VarId,
    d: Oop,
    path: &'p [ElemName],
    served: Option<Vec<Oop>>,
    keep: impl Fn(&mut C, Oop) -> GemResult<bool>,
) -> GemResult<Option<Block<'p>>> {
    if let Some(members) = served {
        meter.stats.index_hits += 1;
        meter.stats.index_rows += members.len() as u64;
        return Ok((!members.is_empty()).then(|| Block::scan(var, members)));
    }
    meter.stats.index_fallbacks += 1;
    let members = ctx.elements(d)?;
    meter.stats.rows_scanned += members.len() as u64;
    let mut block = Block::scan(var, members);
    let vals = fetch_path(ctx, &block.vars[0].1, path)?;
    let pass = vals.iter().map(|&v| keep(ctx, v)).collect::<GemResult<Vec<bool>>>()?;
    if !path.is_empty() {
        block.paths.push((var, path, vals));
    }
    Ok(block.filter(&pass))
}

/// Whether `v` lies within the optional bounds (`(bound, inclusive)`).
fn in_range<C: QueryContext>(
    ctx: &mut C,
    v: Oop,
    lo: Option<(Oop, bool)>,
    hi: Option<(Oop, bool)>,
) -> GemResult<bool> {
    if let Some((b, inc)) = lo {
        let op = if inc { CmpOp::Ge } else { CmpOp::Gt };
        if !ast::cmp_values(ctx, op, v, b)? {
            return Ok(false);
        }
    }
    match hi {
        Some((b, inc)) => ast::cmp_values(ctx, if inc { CmpOp::Le } else { CmpOp::Lt }, v, b),
        None => Ok(true),
    }
}

/// Counters the evaluator maintains per run: how many rows each operator
/// class visited. The join benchmark asserts complexity on these (an O(n+m)
/// hash join vs the O(n·m) nested loop), so they must count *visits*, not
/// results.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PlanStats {
    /// Bindings produced by plain scans (including index fallbacks, which
    /// visit every member).
    pub rows_scanned: u64,
    /// Bindings produced by directory-served index scans.
    pub index_rows: u64,
    /// Directory probes that were served.
    pub index_hits: u64,
    /// Directory probes that fell back to scan-and-filter.
    pub index_fallbacks: u64,
    /// Bindings entering a residual `Select`.
    pub select_in: u64,
    /// Bindings surviving a residual `Select`.
    pub select_out: u64,
    /// Left bindings that drove a dependent `NestJoin` re-evaluation.
    pub nest_loops: u64,
    /// Rows hashed into a join table (build side).
    pub hash_builds: u64,
    /// Rows probing a join table.
    pub hash_probes: u64,
    /// Matched (probe, build) pairs a hash join emitted.
    pub hash_matches: u64,
    /// Bindings that reached the result template.
    pub rows_out: u64,
}

impl PlanStats {
    /// Total scan-layer row visits — the complexity measure the benchmarks
    /// assert on. A nested equi-join over n×m sets scans n + n·m rows; the
    /// hash join scans n + m.
    pub fn row_visits(&self) -> u64 {
        self.rows_scanned + self.index_rows
    }

    /// One-line rendering for `explain()` output.
    pub fn summary(&self) -> String {
        format!(
            "rows: scanned={} indexed={} out={} | index: hits={} fallbacks={} | \
             select: {}/{} | nest-loops={} | hash: build={} probe={} match={}",
            self.rows_scanned,
            self.index_rows,
            self.rows_out,
            self.index_hits,
            self.index_fallbacks,
            self.select_out,
            self.select_in,
            self.nest_loops,
            self.hash_builds,
            self.hash_probes,
            self.hash_matches,
        )
    }
}

/// An algebra expression.
#[derive(Debug, Clone, PartialEq)]
pub enum AlgExpr {
    /// The empty binding.
    Unit,
    /// Bind `var` to each element value of `domain`.
    Scan { var: VarId, domain: Term },
    /// Bind `var` to the members of `domain` whose `path` value equals
    /// `key` — served by a directory when one covers the collection,
    /// otherwise by scan-and-filter. Replaces `Scan + Select(path = key)`.
    IndexScan { var: VarId, domain: Term, path: Vec<gemstone_object::ElemName>, key: Term },
    /// Bind `var` to the members of `domain` whose `path` value lies in the
    /// half-open/closed interval — the directory's range scan. Bounds are
    /// `(term, inclusive)`. Replaces `Scan + Select(path </<=/>/>= key)`.
    IndexRangeScan {
        var: VarId,
        domain: Term,
        path: Vec<gemstone_object::ElemName>,
        lo: Option<(Term, bool)>,
        hi: Option<(Term, bool)>,
    },
    /// Filter bindings by a residual predicate.
    Select { input: Box<AlgExpr>, pred: Pred },
    /// Dependent product: for each left binding, evaluate the right.
    NestJoin { left: Box<AlgExpr>, right: Box<AlgExpr> },
    /// Independent equality join: evaluate `right` once into a hash table
    /// keyed by `right_key`, then stream `left` probing with `left_key`.
    /// O(n + m) row visits where `NestJoin + Select` is O(n·m).
    HashJoin { left: Box<AlgExpr>, right: Box<AlgExpr>, left_key: Term, right_key: Term },
}

fn term_label(t: &Term) -> String {
    match t {
        Term::Var(v) => format!("v{}", v.0),
        Term::Path(v, p) => format!("v{}!path({} names)", v.0, p.len()),
        Term::Const(_) => "const".into(),
        _ => "expr".into(),
    }
}

impl AlgExpr {
    /// Pretty printer for plan inspection (EXPERIMENTS.md shows plans).
    pub fn describe(&self) -> String {
        match self {
            AlgExpr::Unit => "unit".into(),
            AlgExpr::Scan { var, .. } => format!("scan v{}", var.0),
            AlgExpr::IndexScan { var, path, .. } => {
                format!("index-scan v{} on path({} names)", var.0, path.len())
            }
            AlgExpr::IndexRangeScan { var, path, .. } => {
                format!("index-range-scan v{} on path({} names)", var.0, path.len())
            }
            AlgExpr::Select { input, .. } => format!("select({})", input.describe()),
            AlgExpr::NestJoin { left, right } => {
                format!("({} ⋈ {})", left.describe(), right.describe())
            }
            AlgExpr::HashJoin { left, right, left_key, right_key } => {
                format!(
                    "hash-join[{} = {}]({}, {})",
                    term_label(left_key),
                    term_label(right_key),
                    left.describe(),
                    right.describe()
                )
            }
        }
    }

    /// True if any index scan appears in the plan.
    pub fn uses_index(&self) -> bool {
        match self {
            AlgExpr::Unit | AlgExpr::Scan { .. } => false,
            AlgExpr::IndexScan { .. } | AlgExpr::IndexRangeScan { .. } => true,
            AlgExpr::Select { input, .. } => input.uses_index(),
            AlgExpr::NestJoin { left, right } | AlgExpr::HashJoin { left, right, .. } => {
                left.uses_index() || right.uses_index()
            }
        }
    }

    /// True if a hash join appears in the plan.
    pub fn uses_hash_join(&self) -> bool {
        match self {
            AlgExpr::Unit
            | AlgExpr::Scan { .. }
            | AlgExpr::IndexScan { .. }
            | AlgExpr::IndexRangeScan { .. } => false,
            AlgExpr::Select { input, .. } => input.uses_hash_join(),
            AlgExpr::NestJoin { left, right } => left.uses_hash_join() || right.uses_hash_join(),
            AlgExpr::HashJoin { .. } => true,
        }
    }
}

/// The block consumer threaded through evaluation. The context and meter
/// ride along so sinks can evaluate dependent subplans.
type Sink<'s, 'p, C> = &'s mut dyn FnMut(&mut C, &mut Meter<'_>, Block<'p>) -> GemResult<()>;

/// Per-operator accumulators for one profiled run (parallel to the
/// pre-order node list the profiler built from the plan).
#[derive(Debug, Default, Clone, Copy)]
struct OpAcc {
    rows_out: u64,
    wall_ns: u64,
}

/// Profiling context: a pointer-identity map from plan nodes to pre-order
/// indices, the per-node accumulators, and the caller's clock. The plan is
/// borrowed for the whole evaluation, so node addresses are stable.
struct Prof<'p> {
    ids: &'p HashMap<usize, usize>,
    accs: &'p mut Vec<OpAcc>,
    clock: &'p dyn Fn() -> u64,
}

/// What every operator threads along: the aggregate [`PlanStats`] plus an
/// optional per-operator profiler. The unprofiled path pays one `None`
/// check per operator entry, nothing per block.
struct Meter<'p> {
    stats: &'p mut PlanStats,
    prof: Option<Prof<'p>>,
}

/// Evaluate an algebra expression under the `outer` bindings, pushing each
/// produced block into `out`. When profiling, wrap the sink to count this
/// node's output rows and charge it the inclusive wall time of the
/// invocation. Wall time is *inclusive of downstream consumption* — blocks
/// are pushed, so a parent's sink runs inside the child's call; with the
/// strictly monotonic telemetry clock every invocation still costs ≥ 1 ns,
/// making "nonzero wall time per operator" deterministic.
fn eval_stream<'p, C: QueryContext>(
    ctx: &mut C,
    expr: &'p AlgExpr,
    outer: &[Oop],
    meter: &mut Meter<'_>,
    out: Sink<'_, 'p, C>,
) -> GemResult<()> {
    let node =
        meter.prof.as_ref().and_then(|p| p.ids.get(&(expr as *const AlgExpr as usize)).copied());
    let Some(id) = node else {
        return eval_node(ctx, expr, outer, meter, out);
    };
    let t0 = (meter.prof.as_ref().expect("profiled").clock)();
    let result = eval_node(ctx, expr, outer, meter, &mut |ctx, m, block| {
        if let Some(p) = m.prof.as_mut() {
            p.accs[id].rows_out += block.len as u64;
        }
        out(ctx, m, block)
    });
    let p = meter.prof.as_mut().expect("profiled");
    let t1 = (p.clock)();
    p.accs[id].wall_ns += t1.saturating_sub(t0);
    result
}

/// The operator bodies (recursing through [`eval_stream`] so children are
/// profiled too). No operator emits an empty block.
fn eval_node<'p, C: QueryContext>(
    ctx: &mut C,
    expr: &'p AlgExpr,
    outer: &[Oop],
    meter: &mut Meter<'_>,
    out: Sink<'_, 'p, C>,
) -> GemResult<()> {
    match expr {
        AlgExpr::Unit => out(ctx, meter, Block { len: 1, ..Block::default() }),
        AlgExpr::Scan { var, domain } => {
            let d = ast::eval_term(ctx, domain, outer)?;
            let members = ctx.elements(d)?;
            meter.stats.rows_scanned += members.len() as u64;
            if members.is_empty() {
                return Ok(());
            }
            out(ctx, meter, Block::scan(*var, members))
        }
        AlgExpr::IndexScan { var, domain, path, key } => {
            let d = ast::eval_term(ctx, domain, outer)?;
            let k = ast::eval_term(ctx, key, outer)?;
            let served = ctx.index_lookup(d, path, k)?;
            let block =
                index_or_filter(ctx, meter, *var, d, path, served, |ctx, v| ctx.equals(v, k))?;
            match block {
                Some(block) => out(ctx, meter, block),
                None => Ok(()),
            }
        }
        AlgExpr::IndexRangeScan { var, domain, path, lo, hi } => {
            let d = ast::eval_term(ctx, domain, outer)?;
            let mut bound = |b: &Option<(Term, bool)>| match b {
                Some((t, inc)) => ast::eval_term(ctx, t, outer).map(|v| Some((v, *inc))),
                None => Ok(None),
            };
            let (lo, hi) = (bound(lo)?, bound(hi)?);
            let served = ctx.index_range(d, path, lo, hi)?;
            let keep = |ctx: &mut C, v| in_range(ctx, v, lo, hi);
            let block = index_or_filter(ctx, meter, *var, d, path, served, keep)?;
            match block {
                Some(block) => out(ctx, meter, block),
                None => Ok(()),
            }
        }
        AlgExpr::Select { input, pred } => {
            let mut tests = Vec::new();
            conjuncts(pred, &mut tests);
            eval_stream(ctx, input, outer, meter, &mut |ctx, meter, mut block| {
                meter.stats.select_in += block.len as u64;
                // One conjunct at a time over the rows still passing: the
                // rows each conjunct sees are exactly those `And` would
                // evaluate it on.
                for &test in &tests {
                    let keep = test_rows(ctx, test, &mut block, outer)?;
                    match block.filter(&keep) {
                        Some(kept) => block = kept,
                        None => return Ok(()),
                    }
                }
                meter.stats.select_out += block.len as u64;
                out(ctx, meter, block)
            })
        }
        AlgExpr::NestJoin { left, right } => {
            eval_stream(ctx, left, outer, meter, &mut |ctx, meter, lblock| {
                for r in 0..lblock.len {
                    meter.stats.nest_loops += 1;
                    let env = lblock.outer_row(r, outer);
                    eval_stream(ctx, right, &env, meter, &mut |ctx, meter, rblock| {
                        out(ctx, meter, rblock.under(&lblock, r))
                    })?;
                }
                Ok(())
            })
        }
        AlgExpr::HashJoin { left, right, left_key, right_key } => {
            hash_join(ctx, left, right, left_key, right_key, outer, meter, out)
        }
    }
}

/// The build side of a hash join: every build row's variables and key, and
/// the rows by key. Rows whose key has no hashable image are `loose` and
/// are compared pairwise by `equals`. Both lists are in build order.
struct JoinTable<'p> {
    rows: Block<'p>,
    keys: Vec<Oop>,
    buckets: HashMap<JoinKey, Vec<u32>>,
    loose: Vec<u32>,
}

impl<'p> JoinTable<'p> {
    fn append<C: QueryContext>(
        &mut self,
        ctx: &mut C,
        key: &'p Term,
        mut block: Block<'p>,
        outer: &[Oop],
    ) -> GemResult<()> {
        let col = column(ctx, key, &mut block, outer)?;
        self.keys.extend((0..block.len).map(|r| col.at(&block, r)));
        if self.rows.vars.is_empty() {
            self.rows.vars = block.vars.iter().map(|(v, _)| (*v, Vec::new())).collect();
        }
        for ((_, to), (_, from)) in self.rows.vars.iter_mut().zip(&block.vars) {
            to.extend_from_slice(from);
        }
        self.rows.len += block.len;
        Ok(())
    }

    /// Hash every appended key.
    fn index<C: QueryContext>(&mut self, ctx: &mut C) -> GemResult<()> {
        for (i, &k) in self.keys.iter().enumerate() {
            match ctx.join_key(k)? {
                Some(key) => self.buckets.entry(key).or_default().push(i as u32),
                None => self.loose.push(i as u32),
            }
        }
        Ok(())
    }

    /// Append the build rows matching probe key `kv` to `out`, in build
    /// order: the key's bucket merged with the loose rows that `equals` it.
    fn probe<C: QueryContext>(&self, ctx: &mut C, kv: Oop, out: &mut Vec<u32>) -> GemResult<()> {
        let Some(key) = ctx.join_key(kv)? else {
            // Unhashable probe key: pairwise equality against every row.
            for (i, &rk) in self.keys.iter().enumerate() {
                if ctx.equals(kv, rk)? {
                    out.push(i as u32);
                }
            }
            return Ok(());
        };
        let bucket = self.buckets.get(&key).map_or(&[][..], Vec::as_slice);
        let (mut b, mut l) = (0, 0);
        while b < bucket.len() || l < self.loose.len() {
            if l == self.loose.len() || (b < bucket.len() && bucket[b] < self.loose[l]) {
                out.push(bucket[b]);
                b += 1;
            } else {
                let i = self.loose[l];
                if ctx.equals(kv, self.keys[i as usize])? {
                    out.push(i);
                }
                l += 1;
            }
        }
        Ok(())
    }
}

/// Build: evaluate `right` once under the outer bindings (the translator
/// guarantees independence) and hash it by `right_key`. Probe: each block
/// of `left` reads its key column, and the matching (probe, build) row
/// pairs leave as one block.
#[allow(clippy::too_many_arguments)]
fn hash_join<'p, C: QueryContext>(
    ctx: &mut C,
    left: &'p AlgExpr,
    right: &'p AlgExpr,
    left_key: &'p Term,
    right_key: &'p Term,
    outer: &[Oop],
    meter: &mut Meter<'_>,
    out: Sink<'_, 'p, C>,
) -> GemResult<()> {
    let mut table = JoinTable {
        rows: Block::default(),
        keys: Vec::new(),
        buckets: HashMap::new(),
        loose: Vec::new(),
    };
    eval_stream(ctx, right, outer, meter, &mut |ctx, meter, block| {
        meter.stats.hash_builds += block.len as u64;
        table.append(ctx, right_key, block, outer)
    })?;
    table.index(ctx)?;
    eval_stream(ctx, left, outer, meter, &mut |ctx, meter, mut block| {
        meter.stats.hash_probes += block.len as u64;
        let keys = column(ctx, left_key, &mut block, outer)?;
        let (mut probe_rows, mut build_rows) = (Vec::new(), Vec::new());
        for r in 0..block.len {
            table.probe(ctx, keys.at(&block, r), &mut build_rows)?;
            probe_rows.resize(build_rows.len(), r as u32);
        }
        meter.stats.hash_matches += build_rows.len() as u64;
        if build_rows.is_empty() {
            return Ok(());
        }
        let mut joined = block.gather(&probe_rows);
        joined.vars.extend(table.rows.gather(&build_rows).vars);
        out(ctx, meter, joined)
    })
}

// ------------------------------------------------- per-operator profiles

/// One operator of a profiled plan, in pre-order.
#[derive(Debug, Clone)]
pub struct OpNode {
    /// Shallow operator label (`scan v0`, `hash-join[…]`, …).
    pub label: String,
    /// Tree depth (root = 0); with pre-order, enough to render the tree.
    pub depth: usize,
    /// Pre-order indices of the children.
    pub children: Vec<usize>,
    /// Rows this operator consumed: sum of children `rows_out` (leaves
    /// consume what they emit).
    pub rows_in: u64,
    /// Bindings this operator emitted to its consumer.
    pub rows_out: u64,
    /// Hash joins: rows hashed into the build table (the right child's
    /// output). `None` for every other operator.
    pub build_rows: Option<u64>,
    /// Inclusive wall time of this operator's evaluation, in nanoseconds.
    /// Streaming pushes rows *through* the consumer, so a node's time
    /// includes downstream work on its rows.
    pub wall_ns: u64,
    /// The planner's rows_out estimate for this operator, attached by
    /// [`OpProfile::attach_estimates`] after a planned run. `None` when no
    /// decision was recorded (plain profiled evaluation).
    pub est_rows: Option<u64>,
}

/// Estimate-vs-actual error in percent, signed (positive = actual exceeded
/// the estimate), against a floor-1 denominator so zero estimates stay
/// finite.
pub fn est_err_pct(est: u64, actual: u64) -> i64 {
    ((actual as i128 - est as i128) * 100 / est.max(1) as i128) as i64
}

/// Per-operator counters for one evaluated plan (the EXPLAIN ANALYZE
/// payload), in pre-order of the algebra tree.
#[derive(Debug, Clone, Default)]
pub struct OpProfile {
    pub nodes: Vec<OpNode>,
}

impl OpProfile {
    /// The root operator (none for an empty profile).
    pub fn root(&self) -> Option<&OpNode> {
        self.nodes.first()
    }

    /// Rows the whole plan produced.
    pub fn rows_out(&self) -> u64 {
        self.root().map(|n| n.rows_out).unwrap_or(0)
    }

    /// Zip the planner's pre-order rows_out estimates onto the nodes (both
    /// sides are pre-order walks of the same tree, so indices line up).
    pub fn attach_estimates(&mut self, est_rows: &[u64]) {
        for (n, e) in self.nodes.iter_mut().zip(est_rows) {
            n.est_rows = Some(*e);
        }
    }

    /// The worst estimate-vs-actual node: `(index, est, actual)` by error
    /// ratio, once estimates are attached. Drift detection keys off this.
    pub fn worst_estimate(&self) -> Option<(usize, u64, u64)> {
        self.nodes
            .iter()
            .enumerate()
            .filter_map(|(i, n)| n.est_rows.map(|e| (i, e, n.rows_out)))
            .max_by(|a, b| {
                let ratio = |&(_, e, a): &(usize, u64, u64)| {
                    e.max(a).max(1) as f64 / e.min(a).max(1) as f64
                };
                ratio(a).partial_cmp(&ratio(b)).unwrap()
            })
    }

    /// Indented tree rendering with per-operator annotations.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let width = self.nodes.iter().map(|n| n.depth * 2 + n.label.len()).max().unwrap_or(0);
        for n in &self.nodes {
            let pad = "  ".repeat(n.depth);
            let build = match n.build_rows {
                Some(b) => format!(" build={b}"),
                None => String::new(),
            };
            let est = match n.est_rows {
                Some(e) => {
                    format!(" est={e} err={:+}%", est_err_pct(e, n.rows_out))
                }
                None => String::new(),
            };
            let _ = writeln!(
                out,
                "{pad}{label:<w$}  rows_in={ri} rows_out={ro}{est}{build} wall={ns}ns",
                label = n.label,
                w = width.saturating_sub(n.depth * 2),
                ri = n.rows_in,
                ro = n.rows_out,
                ns = n.wall_ns,
            );
        }
        out
    }
}

/// Pair every single-variable `Select` operator with its observed row flow.
/// The walk is the same pre-order as [`OpProfile`] nodes, so index `i` of
/// the walk is node `i` of the profile. Returns `(var, pred_key, rows_in,
/// rows_out)` tuples — how observed selectivities from an analyzed run get
/// back into the statistics catalog.
pub fn scrape_selectivities(plan: &AlgExpr, profile: &OpProfile) -> Vec<(u16, String, u64, u64)> {
    fn walk(
        e: &AlgExpr,
        idx: &mut usize,
        profile: &OpProfile,
        out: &mut Vec<(u16, String, u64, u64)>,
    ) {
        let my = *idx;
        *idx += 1;
        match e {
            AlgExpr::Unit
            | AlgExpr::Scan { .. }
            | AlgExpr::IndexScan { .. }
            | AlgExpr::IndexRangeScan { .. } => {}
            AlgExpr::Select { input, pred } => {
                let mut vars = Vec::new();
                pred.vars(&mut vars);
                if let (Some(n), [v]) = (profile.nodes.get(my), vars.as_slice()) {
                    out.push((v.0, crate::stats::pred_key(pred), n.rows_in, n.rows_out));
                }
                walk(input, idx, profile, out);
            }
            AlgExpr::NestJoin { left, right } | AlgExpr::HashJoin { left, right, .. } => {
                walk(left, idx, profile, out);
                walk(right, idx, profile, out);
            }
        }
    }
    let mut out = Vec::new();
    walk(plan, &mut 0, profile, &mut out);
    out
}

/// Shallow (single-node) operator label.
fn node_label(e: &AlgExpr) -> String {
    match e {
        AlgExpr::Unit => "unit".into(),
        AlgExpr::Scan { var, .. } => format!("scan v{}", var.0),
        AlgExpr::IndexScan { var, path, .. } => {
            format!("index-scan v{} on path({} names)", var.0, path.len())
        }
        AlgExpr::IndexRangeScan { var, path, .. } => {
            format!("index-range-scan v{} on path({} names)", var.0, path.len())
        }
        AlgExpr::Select { .. } => "select".into(),
        AlgExpr::NestJoin { .. } => "nest-join".into(),
        AlgExpr::HashJoin { left_key, right_key, .. } => {
            format!("hash-join[{} = {}]", term_label(left_key), term_label(right_key))
        }
    }
}

/// Pre-order walk: assign indices by node address, record label/depth and
/// child indices. Returns this subtree's root index.
fn index_plan(
    expr: &AlgExpr,
    depth: usize,
    ids: &mut HashMap<usize, usize>,
    skeleton: &mut Vec<(String, usize, Vec<usize>, bool)>,
) -> usize {
    let id = skeleton.len();
    ids.insert(expr as *const AlgExpr as usize, id);
    let is_hash = matches!(expr, AlgExpr::HashJoin { .. });
    skeleton.push((node_label(expr), depth, Vec::new(), is_hash));
    let children: Vec<usize> = match expr {
        AlgExpr::Unit
        | AlgExpr::Scan { .. }
        | AlgExpr::IndexScan { .. }
        | AlgExpr::IndexRangeScan { .. } => Vec::new(),
        AlgExpr::Select { input, .. } => {
            vec![index_plan(input, depth + 1, ids, skeleton)]
        }
        AlgExpr::NestJoin { left, right } | AlgExpr::HashJoin { left, right, .. } => {
            vec![
                index_plan(left, depth + 1, ids, skeleton),
                index_plan(right, depth + 1, ids, skeleton),
            ]
        }
    };
    skeleton[id].2 = children;
    id
}

/// Run a plan and project each surviving binding through the query's result
/// template, counting operator work into `stats`.
pub fn eval_algebra_stats<C: QueryContext>(
    ctx: &mut C,
    plan: &AlgExpr,
    query: &Query,
    stats: &mut PlanStats,
) -> GemResult<Vec<Vec<Oop>>> {
    let mut meter = Meter { stats, prof: None };
    eval_projected(ctx, plan, query, &mut meter)
}

/// Run a plan with per-operator profiling: same results and aggregate
/// stats as [`eval_algebra_stats`], plus an [`OpProfile`] with per-node
/// rows-in/out, hash-build sizes, and inclusive wall time read from
/// `clock` (nanoseconds; inject a deterministic clock in tests).
pub fn eval_algebra_profiled<C: QueryContext>(
    ctx: &mut C,
    plan: &AlgExpr,
    query: &Query,
    stats: &mut PlanStats,
    clock: &dyn Fn() -> u64,
) -> GemResult<(Vec<Vec<Oop>>, OpProfile)> {
    let mut ids = HashMap::new();
    let mut skeleton = Vec::new();
    index_plan(plan, 0, &mut ids, &mut skeleton);
    let mut accs = vec![OpAcc::default(); skeleton.len()];
    let rows = {
        let mut meter = Meter { stats, prof: Some(Prof { ids: &ids, accs: &mut accs, clock }) };
        eval_projected(ctx, plan, query, &mut meter)?
    };
    let nodes = skeleton
        .into_iter()
        .enumerate()
        .map(|(i, (label, depth, children, is_hash))| {
            let rows_in = if children.is_empty() {
                accs[i].rows_out
            } else {
                children.iter().map(|&c| accs[c].rows_out).sum()
            };
            let build_rows =
                if is_hash { children.get(1).map(|&c| accs[c].rows_out) } else { None };
            OpNode {
                label,
                depth,
                rows_in,
                rows_out: accs[i].rows_out,
                build_rows,
                wall_ns: accs[i].wall_ns,
                children,
                est_rows: None,
            }
        })
        .collect();
    Ok((rows, OpProfile { nodes }))
}

/// Evaluate `plan` and project every row through the result template, a
/// column per template term (a path the predicates already fetched is
/// reused, not read again).
fn eval_projected<'p, C: QueryContext>(
    ctx: &mut C,
    plan: &'p AlgExpr,
    query: &'p Query,
    meter: &mut Meter<'_>,
) -> GemResult<Vec<Vec<Oop>>> {
    let mut rows: Vec<Vec<Oop>> = Vec::new();
    eval_stream(ctx, plan, &[], meter, &mut |ctx, meter, mut block| {
        meter.stats.rows_out += block.len as u64;
        let cols = query
            .result
            .iter()
            .map(|(_, term)| column(ctx, term, &mut block, &[]))
            .collect::<GemResult<Vec<Col>>>()?;
        rows.extend((0..block.len).map(|r| cols.iter().map(|c| c.at(&block, r)).collect()));
        Ok(())
    })?;
    Ok(rows)
}

/// Run a plan and project each surviving binding through the query's result
/// template.
pub fn eval_algebra<C: QueryContext>(
    ctx: &mut C,
    plan: &AlgExpr,
    query: &Query,
) -> GemResult<Vec<Vec<Oop>>> {
    let mut stats = PlanStats::default();
    eval_algebra_stats(ctx, plan, query, &mut stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blocks_gather_filter_and_prefix() {
        let (v0, v1) = (VarId(0), VarId(1));
        let left = Block::scan(v0, vec![Oop::int(1), Oop::int(2)]);
        let right = Block::scan(v1, vec![Oop::int(7), Oop::int(8), Oop::int(9)]);
        let kept = right.filter(&[true, false, true]).expect("two rows pass");
        assert_eq!(kept.vars[0].1, vec![Oop::int(7), Oop::int(9)]);
        let joined = kept.under(&left, 1);
        let env = RowEnv { block: &joined, row: 1, outer: &[] };
        assert_eq!((env.read(v0), env.read(v1)), (Oop::int(2), Oop::int(9)));
        assert_eq!(left.outer_row(0, &[Oop::NIL, Oop::int(5)]), vec![Oop::int(1), Oop::int(5)]);
        assert!(left.filter(&[false, false]).is_none());
    }

    #[test]
    fn describe_shows_hash_join() {
        let plan = AlgExpr::HashJoin {
            left: Box::new(AlgExpr::Scan { var: VarId(0), domain: Term::Const(Oop::NIL) }),
            right: Box::new(AlgExpr::Scan { var: VarId(1), domain: Term::Const(Oop::NIL) }),
            left_key: Term::Path(VarId(0), vec![gemstone_object::ElemName::Int(0)]),
            right_key: Term::Path(VarId(1), vec![gemstone_object::ElemName::Int(0)]),
        };
        let d = plan.describe();
        assert!(d.contains("hash-join"), "{d}");
        assert!(!plan.uses_index());
        assert!(plan.uses_hash_join());
    }
}
