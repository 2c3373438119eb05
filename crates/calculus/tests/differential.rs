//! The planner and the executor checked against two independent
//! specifications of the calculus.
//!
//! Random schemas, data and queries; every plan the planner weighs
//! ([`plan_candidates`], hash joins on and off) runs through the executor.
//! Each must return exactly the rows, in the same order, that the
//! calculus' defining nested loop ([`eval_naive`]) returns when it takes
//! the ranges in the plan's order. In declaration order that loop must in
//! turn agree with the STDM evaluator (`gemstone_stdm::Query::eval`), which
//! shares no code with this crate. When one side errs, both must, and with
//! the same `GemError` variant.
//!
//! Rows carry three numeric fields (`f0`, `f1` always present, `f2` only
//! sometimes) and a `kids` collection of child rows, so ranges can be
//! dependent (`k ∈ r!kids`). A quarter of the numbers are floats, which the
//! mock declines to give a join key: hash joins then match them through the
//! pairwise `equals` path, beside the keyed buckets.

mod common;

use common::MockGraph;
use gemstone_calculus::{
    eval_algebra, eval_algebra_profiled, eval_naive, plan_candidates, AlgExpr, CmpOp, IndexCatalog,
    PlanOptions, PlanStats, Pred, Query, Range, Term, VarId,
};
use gemstone_object::{ElemName, GemResult, Oop, SymbolId};
use gemstone_stdm as stdm;
use proptest::prelude::*;
use proptest::TestRng;
use std::collections::BTreeMap;

/// Field symbols: `f0`..`f2` numeric (`f2` sparse), then the child set and
/// a field no row has.
const FIELDS: u32 = 3;
const SPARSE: u32 = 2;
const KIDS: u32 = 3;
const ABSENT: u32 = 4;

fn sym(f: u32) -> ElemName {
    ElemName::Sym(SymbolId(f))
}

fn label(f: u32) -> stdm::Label {
    stdm::Label::name(match f {
        KIDS => "kids".to_string(),
        ABSENT => "absent".to_string(),
        f => format!("f{f}"),
    })
}

fn below(rng: &mut TestRng, n: u64) -> u64 {
    rng.next_u64() % n
}

#[derive(Debug, Clone, Copy)]
enum Num {
    Int(i64),
    Float(f64),
}

#[derive(Debug)]
struct Row {
    fields: [Option<Num>; FIELDS as usize],
    kids: Vec<Row>,
}

fn gen_num(rng: &mut TestRng) -> Num {
    let k = below(rng, 5) as i64;
    if below(rng, 4) == 0 {
        Num::Float(k as f64)
    } else {
        Num::Int(k)
    }
}

fn gen_row(rng: &mut TestRng, top: bool) -> Row {
    let sparse = if below(rng, 2) == 0 { Some(gen_num(rng)) } else { None };
    let fields = [Some(gen_num(rng)), Some(gen_num(rng)), sparse];
    let kids = if top { (0..below(rng, 3)).map(|_| gen_row(rng, false)).collect() } else { vec![] };
    Row { fields, kids }
}

/// The same rows as a mock object graph and as STDM values.
struct Db {
    graph: MockGraph,
    tables: Vec<Oop>,
    stdm_tables: Vec<stdm::SValue>,
    /// Every collection: the tables and each row's `kids`.
    collections: Vec<Oop>,
}

impl Db {
    fn build(rng: &mut TestRng) -> Db {
        let mut db = Db {
            graph: MockGraph { loose_floats: true, ..MockGraph::default() },
            tables: Vec::new(),
            stdm_tables: Vec::new(),
            collections: Vec::new(),
        };
        for _ in 0..1 + below(rng, 3) {
            let rows: Vec<Row> = (0..below(rng, 7)).map(|_| gen_row(rng, true)).collect();
            let (oop, value) = db.collection(&rows);
            db.tables.push(oop);
            db.stdm_tables.push(value);
        }
        db
    }

    fn collection(&mut self, rows: &[Row]) -> (Oop, stdm::SValue) {
        let mut members = BTreeMap::new();
        let mut set = stdm::LabeledSet::new();
        for (i, row) in rows.iter().enumerate() {
            let (oop, value) = self.row(row);
            members.insert(ElemName::Alias(i as u64), oop);
            set.add(value);
        }
        let oop = self.graph.alloc(members);
        self.collections.push(oop);
        (oop, stdm::SValue::Set(set))
    }

    fn row(&mut self, row: &Row) -> (Oop, stdm::SValue) {
        let mut elems = BTreeMap::new();
        let mut tuple = stdm::LabeledSet::new();
        for (f, v) in row.fields.iter().enumerate() {
            let Some(v) = v else { continue };
            let (oop, value) = match *v {
                Num::Int(i) => (Oop::int(i), stdm::SValue::Int(i)),
                Num::Float(x) => (Oop::float(x), stdm::SValue::Float(x)),
            };
            elems.insert(sym(f as u32), oop);
            tuple.put(label(f as u32), value);
        }
        let (kids, kids_value) = self.collection(&row.kids);
        elems.insert(sym(KIDS), kids);
        tuple.put(label(KIDS), kids_value);
        (self.graph.alloc(elems), stdm::SValue::Set(tuple))
    }
}

/// A random query, and whether the STDM evaluator gives it the same
/// meaning: object identity, nil and deep paths differ between the models,
/// so queries that use them are checked against `eval_naive` only.
struct Gen<'a> {
    rng: &'a mut TestRng,
    vars: u16,
    stdm_ok: bool,
}

impl Gen<'_> {
    fn var(&mut self) -> VarId {
        VarId(below(self.rng, self.vars as u64) as u16)
    }

    fn constant(&mut self) -> Term {
        Term::Const(match gen_num(self.rng) {
            Num::Int(i) => Oop::int(i),
            Num::Float(x) => Oop::float(x),
        })
    }

    fn op(&mut self) -> CmpOp {
        [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge]
            [below(self.rng, 6) as usize]
    }

    /// `v!f` for a numeric field, sometimes the sparse one, sometimes
    /// through the first child (`v!kids!@0!f`).
    fn num_path(&mut self, v: VarId) -> Term {
        let f = below(self.rng, FIELDS as u64) as u32;
        if f == SPARSE {
            self.stdm_ok = false;
        }
        if below(self.rng, 8) == 0 {
            self.stdm_ok = false;
            return Term::Path(v, vec![sym(KIDS), ElemName::Alias(0), sym(f)]);
        }
        Term::Path(v, vec![sym(f)])
    }

    /// A numeric term that is never nil, so arithmetic over it cannot err.
    fn dense_path(&mut self, v: VarId) -> Term {
        Term::Path(v, vec![sym(below(self.rng, SPARSE as u64) as u32)])
    }

    fn cmp(&mut self) -> Pred {
        let (v, w) = (self.var(), self.var());
        match below(self.rng, 6) {
            0 | 1 => {
                let (p, c, op) = (self.num_path(v), self.constant(), self.op());
                if below(self.rng, 2) == 0 {
                    Pred::Cmp(p, op, c)
                } else {
                    Pred::Cmp(c, op, p)
                }
            }
            2 | 3 => Pred::Cmp(self.num_path(v), CmpOp::Eq, self.num_path(w)),
            4 => {
                let op = self.op();
                Pred::Cmp(self.num_path(v), op, self.num_path(w))
            }
            _ => {
                let t = Term::Mul(Box::new(self.dense_path(v)), Box::new(Term::Const(Oop::int(2))));
                let (op, c) = (self.op(), self.constant());
                Pred::Cmp(t, op, c)
            }
        }
    }

    fn conjunct(&mut self) -> Pred {
        match below(self.rng, 10) {
            0 => Pred::Or(Box::new(self.cmp()), Box::new(self.cmp())),
            1 => Pred::Not(Box::new(self.cmp())),
            2 => {
                self.stdm_ok = false;
                let op = if below(self.rng, 2) == 0 { CmpOp::Eq } else { CmpOp::Ne };
                Pred::Cmp(Term::Var(self.var()), op, Term::Var(self.var()))
            }
            3 => {
                self.stdm_ok = false;
                Pred::In(Term::Var(self.var()), Term::Path(self.var(), vec![sym(KIDS)]))
            }
            4 => {
                // Object-valued keys: no join key, so every row is loose.
                self.stdm_ok = false;
                let (v, w) = (self.var(), self.var());
                Pred::Cmp(Term::Path(v, vec![sym(KIDS)]), CmpOp::Eq, Term::Path(w, vec![sym(KIDS)]))
            }
            _ => self.cmp(),
        }
    }

    fn result_term(&mut self) -> Term {
        let v = self.var();
        match below(self.rng, 6) {
            0 => {
                self.stdm_ok = false;
                Term::Var(v)
            }
            1 => self.constant(),
            2 => {
                let w = self.var();
                Term::Add(Box::new(self.dense_path(v)), Box::new(self.dense_path(w)))
            }
            _ => self.num_path(v),
        }
    }

    fn query(&mut self, db: &Db) -> Query {
        if below(self.rng, 12) == 0 {
            // Arithmetic over a field no row has: every evaluator must err.
            let domain = Term::Const(db.tables[below(self.rng, db.tables.len() as u64) as usize]);
            let nil_times_two = Term::Mul(
                Box::new(Term::Path(VarId(0), vec![sym(ABSENT)])),
                Box::new(Term::Const(Oop::int(2))),
            );
            return Query {
                result: vec![(SymbolId(0), Term::Path(VarId(0), vec![sym(0)]))],
                ranges: vec![Range { var: VarId(0), domain }],
                pred: Pred::Cmp(nil_times_two, CmpOp::Gt, Term::Const(Oop::int(0))),
            };
        }
        let mut ranges = Vec::new();
        for i in 0..self.vars {
            let domain = if i > 0 && below(self.rng, 3) == 0 {
                let parent = VarId(below(self.rng, i as u64) as u16);
                Term::Path(parent, vec![sym(KIDS)])
            } else {
                Term::Const(db.tables[below(self.rng, db.tables.len() as u64) as usize])
            };
            ranges.push(Range { var: VarId(i), domain });
        }
        let mut pred = Pred::True;
        for _ in 0..below(self.rng, 4) {
            let c = self.conjunct();
            pred = if pred == Pred::True { c } else { pred.and(c) };
        }
        let result =
            (0..1 + below(self.rng, 3)).map(|i| (SymbolId(i as u32), self.result_term())).collect();
        Query { result, ranges, pred }
    }
}

fn stdm_term(t: &Term, db: &Db) -> stdm::Term {
    let name = |v: &VarId| format!("v{}", v.0);
    let bin = |a: &Term, b: &Term| (Box::new(stdm_term(a, db)), Box::new(stdm_term(b, db)));
    match t {
        Term::Var(v) => stdm::Term::Var(name(v)),
        Term::Path(v, p) => stdm::Term::Path(
            name(v),
            p.iter()
                .map(|n| match n {
                    ElemName::Sym(s) => label(s.0),
                    other => panic!("no STDM label for {other:?}"),
                })
                .collect(),
        ),
        Term::Const(c) => match db.tables.iter().position(|t| t == c) {
            Some(i) => stdm::Term::Const(db.stdm_tables[i].clone()),
            None if c.as_int().is_some() => {
                stdm::Term::Const(stdm::SValue::Int(c.as_int().unwrap()))
            }
            None => stdm::Term::Const(stdm::SValue::Float(c.as_number().expect("numeric"))),
        },
        Term::Mul(a, b) => {
            let (a, b) = bin(a, b);
            stdm::Term::Mul(a, b)
        }
        Term::Add(a, b) => {
            let (a, b) = bin(a, b);
            stdm::Term::Add(a, b)
        }
        other => panic!("not generated: {other:?}"),
    }
}

fn stdm_pred(p: &Pred, db: &Db) -> stdm::Pred {
    let op = |op: &CmpOp| match op {
        CmpOp::Eq => stdm::CmpOp::Eq,
        CmpOp::Ne => stdm::CmpOp::Ne,
        CmpOp::Lt => stdm::CmpOp::Lt,
        CmpOp::Le => stdm::CmpOp::Le,
        CmpOp::Gt => stdm::CmpOp::Gt,
        CmpOp::Ge => stdm::CmpOp::Ge,
    };
    match p {
        Pred::True => stdm::Pred::True,
        Pred::And(a, b) => stdm_pred(a, db).and(stdm_pred(b, db)),
        Pred::Or(a, b) => stdm::Pred::Or(Box::new(stdm_pred(a, db)), Box::new(stdm_pred(b, db))),
        Pred::Not(a) => stdm::Pred::Not(Box::new(stdm_pred(a, db))),
        Pred::Cmp(a, o, b) => stdm::Pred::Cmp(stdm_term(a, db), op(o), stdm_term(b, db)),
        other => panic!("not STDM-checked: {other:?}"),
    }
}

/// The STDM answer as numeric rows, or `None` when it erred.
fn stdm_rows(q: &Query, db: &Db) -> Option<Vec<Vec<f64>>> {
    let sq = stdm::Query {
        result: q.result.iter().map(|(l, t)| (format!("r{}", l.0), stdm_term(t, db))).collect(),
        ranges: q
            .ranges
            .iter()
            .map(|r| stdm::Range { var: format!("v{}", r.var.0), domain: stdm_term(&r.domain, db) })
            .collect(),
        pred: stdm_pred(&q.pred, db),
    };
    let out = sq.eval(&Default::default()).ok()?;
    let rows = out
        .iter()
        .map(|(_, tuple)| {
            let tuple = tuple.as_set().expect("tuple");
            q.result
                .iter()
                .map(|(l, _)| {
                    let v = tuple.get(&stdm::Label::name(format!("r{}", l.0))).expect("field");
                    v.as_number().expect("numeric")
                })
                .collect()
        })
        .collect();
    Some(rows)
}

/// Scan variables of a left-deep plan, leftmost (outermost loop) first.
fn plan_order(plan: &AlgExpr, out: &mut Vec<VarId>) {
    match plan {
        AlgExpr::Unit => {}
        AlgExpr::Scan { var, .. }
        | AlgExpr::IndexScan { var, .. }
        | AlgExpr::IndexRangeScan { var, .. } => out.push(*var),
        AlgExpr::Select { input, .. } => plan_order(input, out),
        AlgExpr::NestJoin { left, right } | AlgExpr::HashJoin { left, right, .. } => {
            plan_order(left, out);
            plan_order(right, out);
        }
    }
}

/// `q` with its ranges taken in `order`: the nested loop a plan with that
/// scan order must reproduce row for row.
fn reordered(q: &Query, order: &[VarId]) -> Query {
    let ranges =
        order.iter().map(|v| q.ranges.iter().find(|r| r.var == *v).unwrap().clone()).collect();
    Query { ranges, ..q.clone() }
}

type Rows = Vec<Vec<Oop>>;

/// Equal rows in equal order, or errors of the same variant.
fn agree(what: &str, got: &GemResult<Rows>, want: &GemResult<Rows>) -> Result<(), String> {
    match (got, want) {
        (Ok(g), Ok(w)) if g == w => Ok(()),
        (Err(g), Err(w)) if std::mem::discriminant(g) == std::mem::discriminant(w) => Ok(()),
        _ => Err(format!("{what}: got {got:?}, want {want:?}")),
    }
}

fn sorted(rows: &GemResult<Rows>) -> GemResult<Rows> {
    rows.clone().map(|mut r| {
        r.sort_by_key(|t| t.iter().map(|o| o.bits()).collect::<Vec<_>>());
        r
    })
}

/// What one case exercised, summed by the coverage test.
#[derive(Default, Debug)]
struct Coverage {
    plans: u64,
    stdm_checked: u64,
    errors: u64,
    dependent: u64,
    range_plans: u64,
    stats: PlanStats,
}

/// Build one random case from `seed` and check every candidate plan.
fn check_case(seed: u64) -> Result<Coverage, String> {
    let mut rng = TestRng::from_seed(seed);
    let mut db = Db::build(&mut rng);
    let mut catalog = IndexCatalog::new();
    for f in 0..FIELDS {
        if below(&mut rng, 2) == 0 {
            catalog.add_path(vec![sym(f)]);
            for &c in &db.collections {
                if below(&mut rng, 2) == 0 {
                    db.graph.indexed.push((c, vec![sym(f)]));
                }
            }
        }
    }
    let vars = 1 + below(&mut rng, 3) as u16;
    let mut gen = Gen { rng: &mut rng, vars, stdm_ok: true };
    let q = gen.query(&db);
    let stdm_ok = gen.stdm_ok;
    let mut cov = Coverage::default();
    let naive = eval_naive(&mut db.graph, &q);
    if naive.is_err() {
        cov.errors += 1;
    }
    if q.ranges.iter().any(|r| matches!(r.domain, Term::Path(..))) {
        cov.dependent += 1;
    }
    let ctx = format!("query {q:?}");
    if stdm_ok {
        cov.stdm_checked += 1;
        let numeric = naive.as_ref().ok().map(|rows| {
            rows.iter()
                .map(|r| r.iter().map(|o| o.as_number().expect("numeric")).collect::<Vec<_>>())
                .collect::<Vec<_>>()
        });
        if numeric != stdm_rows(&q, &db) {
            return Err(format!("eval_naive and STDM disagree on {ctx}: {naive:?}"));
        }
    }
    for hash_joins in [true, false] {
        let options = PlanOptions { hash_joins, stats: None };
        for plan in plan_candidates(&q, &catalog, &options) {
            let mut order = Vec::new();
            plan_order(&plan, &mut order);
            let want = eval_naive(&mut db.graph, &reordered(&q, &order));
            agree("reordered nested loop", &sorted(&want), &sorted(&naive))
                .map_err(|e| format!("{e}\n{ctx}"))?;
            let got = eval_algebra(&mut db.graph, &plan, &q);
            agree(&plan.describe(), &got, &want).map_err(|e| format!("{e}\n{ctx}"))?;
            let mut stats = PlanStats::default();
            let profiled = eval_algebra_profiled(&mut db.graph, &plan, &q, &mut stats, &|| 0);
            if let Ok((rows, profile)) = &profiled {
                let n = rows.len() as u64;
                if stats.rows_out != n || profile.rows_out() != n {
                    return Err(format!("{}: counted {stats:?} for {n} rows", plan.describe()));
                }
            }
            agree("profiled", &profiled.map(|(rows, _)| rows), &want)?;
            cov.plans += 1;
            cov.stats.hash_matches += stats.hash_matches;
            cov.stats.index_hits += stats.index_hits;
            cov.stats.index_fallbacks += stats.index_fallbacks;
            cov.stats.nest_loops += stats.nest_loops;
            cov.stats.select_in += stats.select_in;
            if plan.describe().contains("index-range-scan") {
                cov.range_plans += 1;
            }
        }
    }
    Ok(cov)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    fn every_candidate_plan_matches_the_calculus(seed in any::<u64>()) {
        if let Err(e) = check_case(seed) {
            prop_assert!(false, "seed {}: {}", seed, e);
        }
    }
}

/// The generator reaches every operator and both oracles often enough for
/// the property above to mean something.
#[test]
fn the_generator_covers_every_operator() {
    let mut total = Coverage::default();
    for seed in 0..300 {
        let c = check_case(seed).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        total.plans += c.plans;
        total.stdm_checked += c.stdm_checked;
        total.errors += c.errors;
        total.dependent += c.dependent;
        total.stats.hash_matches += c.stats.hash_matches;
        total.stats.index_hits += c.stats.index_hits;
        total.stats.index_fallbacks += c.stats.index_fallbacks;
        total.stats.nest_loops += c.stats.nest_loops;
        total.stats.select_in += c.stats.select_in;
        total.range_plans += c.range_plans;
    }
    let s = &total.stats;
    for (what, n) in [
        ("STDM-checked queries", total.stdm_checked),
        ("erring queries", total.errors),
        ("dependent ranges", total.dependent),
        ("hash-join matches", s.hash_matches),
        ("directory hits", s.index_hits),
        ("directory fallbacks", s.index_fallbacks),
        ("nest-join loops", s.nest_loops),
        ("selected rows", s.select_in),
        ("range-scan plans", total.range_plans),
    ] {
        assert!(n >= 10, "only {n} {what} in 300 cases: {total:?}");
    }
}
