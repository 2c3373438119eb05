//! Algebra ≡ calculus: the translated plan must return exactly the naive
//! nested-loop semantics, with and without directories, on hand-built and
//! randomized object graphs.

mod common;

use common::MockGraph;
use gemstone_calculus::{
    eval_algebra_stats, eval_naive, eval_query, eval_query_explained, translate, translate_with,
    CmpOp, IndexCatalog, PlanOptions, PlanStats, Pred, Query, Range, Term, VarId,
};
use gemstone_object::{ElemName, Oop, SymbolId};
use proptest::prelude::*;
use std::collections::BTreeMap;

fn sym(n: u32) -> ElemName {
    ElemName::Sym(SymbolId(n))
}

const SALARY: u32 = 1;
const DEPT: u32 = 2;

/// Employees with salary/dept; returns (graph, employees-collection).
fn build_employees(n: usize) -> (MockGraph, Oop) {
    let mut g = MockGraph::default();
    let mut members = Vec::new();
    for i in 0..n {
        let mut elems = BTreeMap::new();
        elems.insert(sym(SALARY), Oop::int((20_000 + (i % 7) * 1000) as i64));
        elems.insert(sym(DEPT), Oop::int((i % 3) as i64));
        members.push(g.alloc(elems));
    }
    let coll: BTreeMap<ElemName, Oop> =
        members.iter().enumerate().map(|(i, m)| (ElemName::Alias(i as u64), *m)).collect();
    let coll = g.alloc(coll);
    (g, coll)
}

fn salary_eq_query(coll: Oop, salary: i64) -> Query {
    Query {
        result: vec![(SymbolId(0), Term::Var(VarId(0)))],
        ranges: vec![Range { var: VarId(0), domain: Term::Const(coll) }],
        pred: Pred::Cmp(
            Term::Path(VarId(0), vec![sym(SALARY)]),
            CmpOp::Eq,
            Term::Const(Oop::int(salary)),
        ),
    }
}

#[test]
fn algebra_matches_naive_on_selection() {
    let (mut g, coll) = build_employees(50);
    let q = salary_eq_query(coll, 23_000);
    let naive = eval_naive(&mut g, &q).unwrap();
    let planned = eval_query(&mut g, &q, &IndexCatalog::new()).unwrap();
    assert_eq!(naive, planned);
    assert!(!naive.is_empty());
}

#[test]
fn index_is_used_when_available_and_answers_match() {
    let (mut g, coll) = build_employees(50);
    g.indexed.push((coll, vec![sym(SALARY)]));
    let mut cat = IndexCatalog::new();
    cat.add_path(vec![sym(SALARY)]);
    let q = salary_eq_query(coll, 23_000);
    let naive = eval_naive(&mut g, &q).unwrap();
    let plan = translate(&q, &cat);
    assert!(plan.uses_index());
    let planned = eval_query(&mut g, &q, &cat).unwrap();
    assert_eq!(sorted(naive), sorted(planned));
    assert!(g.index_probes > 0, "the directory really served the scan");
}

#[test]
fn catalog_without_runtime_directory_falls_back() {
    let (mut g, coll) = build_employees(30);
    // Catalog says salary paths are indexed, but THIS collection has no
    // directory: index_lookup returns None and evaluation falls back.
    let mut cat = IndexCatalog::new();
    cat.add_path(vec![sym(SALARY)]);
    let q = salary_eq_query(coll, 24_000);
    let naive = eval_naive(&mut g, &q).unwrap();
    let planned = eval_query(&mut g, &q, &cat).unwrap();
    assert_eq!(sorted(naive), sorted(planned));
    assert_eq!(g.index_probes, 0);
}

#[test]
fn dependent_join_matches_naive() {
    // e ∈ Emps, d ∈ Depts, e!dept = d!id and e!salary > 22_500
    let mut g = MockGraph::default();
    const ID: u32 = 3;
    let mut emp_members = BTreeMap::new();
    for i in 0..20 {
        let mut elems = BTreeMap::new();
        elems.insert(sym(SALARY), Oop::int(20_000 + (i % 6) * 1000));
        elems.insert(sym(DEPT), Oop::int(i % 4));
        let e = g.alloc(elems);
        emp_members.insert(ElemName::Alias(i as u64), e);
    }
    let emps = g.alloc(emp_members);
    let mut dept_members = BTreeMap::new();
    for i in 0..4 {
        let mut elems = BTreeMap::new();
        elems.insert(sym(ID), Oop::int(i));
        let d = g.alloc(elems);
        dept_members.insert(ElemName::Alias(i as u64), d);
    }
    let depts = g.alloc(dept_members);

    let q = Query {
        result: vec![(SymbolId(0), Term::Var(VarId(0))), (SymbolId(1), Term::Var(VarId(1)))],
        ranges: vec![
            Range { var: VarId(0), domain: Term::Const(emps) },
            Range { var: VarId(1), domain: Term::Const(depts) },
        ],
        pred: Pred::Cmp(
            Term::Path(VarId(0), vec![sym(DEPT)]),
            CmpOp::Eq,
            Term::Path(VarId(1), vec![sym(ID)]),
        )
        .and(Pred::Cmp(
            Term::Path(VarId(0), vec![sym(SALARY)]),
            CmpOp::Gt,
            Term::Const(Oop::int(22_500)),
        )),
    };
    let naive = eval_naive(&mut g, &q).unwrap();
    assert!(!naive.is_empty());
    // Without indexes.
    let planned = eval_query(&mut g, &q, &IndexCatalog::new()).unwrap();
    assert_eq!(sorted(naive.clone()), sorted(planned));
    // With an index on d!id.
    g.indexed.push((depts, vec![sym(ID)]));
    let mut cat = IndexCatalog::new();
    cat.add_path(vec![sym(ID)]);
    assert!(translate(&q, &cat).uses_index());
    let planned_idx = eval_query(&mut g, &q, &cat).unwrap();
    assert_eq!(sorted(naive), sorted(planned_idx));
}

#[test]
fn membership_and_arithmetic_predicates() {
    // x ∈ S where 2 * x > 5 — ranges over immediates inside a collection.
    let mut g = MockGraph::default();
    let coll: BTreeMap<ElemName, Oop> =
        (0..10).map(|i| (ElemName::Alias(i), Oop::int(i as i64))).collect();
    let coll = g.alloc(coll);
    let q = Query {
        result: vec![(SymbolId(0), Term::Var(VarId(0)))],
        ranges: vec![Range { var: VarId(0), domain: Term::Const(coll) }],
        pred: Pred::Cmp(
            Term::Mul(Box::new(Term::Const(Oop::int(2))), Box::new(Term::Var(VarId(0)))),
            CmpOp::Gt,
            Term::Const(Oop::int(5)),
        ),
    };
    let res = eval_query(&mut g, &q, &IndexCatalog::new()).unwrap();
    assert_eq!(res.len(), 7, "3..9 satisfy 2x > 5");
}

/// Two independent collections of sizes (n, m) with a shared-key element;
/// returns (graph, left coll, right coll, equi-join query).
fn build_join(n: i64, m: i64, key_mod: i64) -> (MockGraph, Query) {
    const ID: u32 = 3;
    let mut g = MockGraph::default();
    let mut left_members = BTreeMap::new();
    for i in 0..n {
        let mut elems = BTreeMap::new();
        elems.insert(sym(DEPT), Oop::int(i % key_mod));
        elems.insert(sym(SALARY), Oop::int(20_000 + i));
        let e = g.alloc(elems);
        left_members.insert(ElemName::Alias(i as u64), e);
    }
    let left = g.alloc(left_members);
    let mut right_members = BTreeMap::new();
    for i in 0..m {
        let mut elems = BTreeMap::new();
        elems.insert(sym(ID), Oop::int(i % key_mod));
        let d = g.alloc(elems);
        right_members.insert(ElemName::Alias(i as u64), d);
    }
    let right = g.alloc(right_members);
    let q = Query {
        result: vec![(SymbolId(0), Term::Var(VarId(0))), (SymbolId(1), Term::Var(VarId(1)))],
        ranges: vec![
            Range { var: VarId(0), domain: Term::Const(left) },
            Range { var: VarId(1), domain: Term::Const(right) },
        ],
        pred: Pred::Cmp(
            Term::Path(VarId(0), vec![sym(DEPT)]),
            CmpOp::Eq,
            Term::Path(VarId(1), vec![sym(ID)]),
        ),
    };
    (g, q)
}

#[test]
fn hash_join_matches_naive_with_linear_row_visits() {
    let (n, m) = (40i64, 30i64);
    let (mut g, q) = build_join(n, m, 6);
    let naive = eval_naive(&mut g, &q).unwrap();
    assert!(!naive.is_empty());

    let (rows, plan, stats) = eval_query_explained(&mut g, &q, &IndexCatalog::new()).unwrap();
    assert!(plan.uses_hash_join(), "{}", plan.describe());
    assert_eq!(sorted(naive.clone()), sorted(rows));
    // O(n + m): each side scanned exactly once.
    assert_eq!(stats.row_visits(), (n + m) as u64);
    assert_eq!(stats.hash_builds, m as u64);
    assert_eq!(stats.hash_probes, n as u64);
    assert_eq!(stats.hash_matches as usize, naive.len());

    // The nested plan agrees but visits O(n·m) rows.
    let nested =
        translate_with(&q, &IndexCatalog::new(), &PlanOptions { hash_joins: false, stats: None });
    assert!(!nested.uses_hash_join());
    let mut nstats = PlanStats::default();
    let nrows = eval_algebra_stats(&mut g, &nested, &q, &mut nstats).unwrap();
    assert_eq!(sorted(naive), sorted(nrows));
    assert_eq!(nstats.row_visits(), (n + n * m) as u64);
}

#[test]
fn hash_join_handles_unhashable_keys_via_equals_fallback() {
    // Join on object-valued keys: MockGraph objects have no default hash
    // image (join_key → None), so every row goes through the pairwise
    // loose-list path — answers must still match naive exactly.
    const REF: u32 = 5;
    let mut g = MockGraph::default();
    let shared: Vec<Oop> = (0..3).map(|_| g.alloc(BTreeMap::new())).collect();
    let mut left_members = BTreeMap::new();
    for i in 0..9usize {
        let mut elems = BTreeMap::new();
        elems.insert(sym(REF), shared[i % 3]);
        let e = g.alloc(elems);
        left_members.insert(ElemName::Alias(i as u64), e);
    }
    let left = g.alloc(left_members);
    let mut right_members = BTreeMap::new();
    for i in 0..4usize {
        let mut elems = BTreeMap::new();
        elems.insert(sym(REF), shared[i % 2]);
        let d = g.alloc(elems);
        right_members.insert(ElemName::Alias(i as u64), d);
    }
    let right = g.alloc(right_members);
    let q = Query {
        result: vec![(SymbolId(0), Term::Var(VarId(0))), (SymbolId(1), Term::Var(VarId(1)))],
        ranges: vec![
            Range { var: VarId(0), domain: Term::Const(left) },
            Range { var: VarId(1), domain: Term::Const(right) },
        ],
        pred: Pred::Cmp(
            Term::Path(VarId(0), vec![sym(REF)]),
            CmpOp::Eq,
            Term::Path(VarId(1), vec![sym(REF)]),
        ),
    };
    let naive = eval_naive(&mut g, &q).unwrap();
    assert!(!naive.is_empty());
    let (rows, plan, _) = eval_query_explained(&mut g, &q, &IndexCatalog::new()).unwrap();
    assert!(plan.uses_hash_join(), "{}", plan.describe());
    assert_eq!(sorted(naive), sorted(rows));
}

#[test]
fn hash_join_with_mixed_int_float_keys() {
    // 1 = 1.0 must land in the same bucket (canonical f64 keying).
    let mut g = MockGraph::default();
    const K: u32 = 7;
    let mk = |g: &mut MockGraph, v: Oop| {
        let mut elems = BTreeMap::new();
        elems.insert(sym(K), v);
        g.alloc(elems)
    };
    let l0 = mk(&mut g, Oop::int(1));
    let l1 = mk(&mut g, Oop::float(2.0));
    let left = g.alloc([(ElemName::Alias(0), l0), (ElemName::Alias(1), l1)].into_iter().collect());
    let r0 = mk(&mut g, Oop::float(1.0));
    let r1 = mk(&mut g, Oop::int(2));
    let right = g.alloc([(ElemName::Alias(0), r0), (ElemName::Alias(1), r1)].into_iter().collect());
    let q = Query {
        result: vec![(SymbolId(0), Term::Var(VarId(0))), (SymbolId(1), Term::Var(VarId(1)))],
        ranges: vec![
            Range { var: VarId(0), domain: Term::Const(left) },
            Range { var: VarId(1), domain: Term::Const(right) },
        ],
        pred: Pred::Cmp(
            Term::Path(VarId(0), vec![sym(K)]),
            CmpOp::Eq,
            Term::Path(VarId(1), vec![sym(K)]),
        ),
    };
    let naive = eval_naive(&mut g, &q).unwrap();
    assert_eq!(naive.len(), 2, "1=1.0 and 2.0=2 both match");
    let (rows, plan, _) = eval_query_explained(&mut g, &q, &IndexCatalog::new()).unwrap();
    assert!(plan.uses_hash_join());
    assert_eq!(sorted(naive), sorted(rows));
}

fn sorted(mut v: Vec<Vec<Oop>>) -> Vec<Vec<Oop>> {
    v.sort_by_key(|t| t.iter().map(|o| o.bits()).collect::<Vec<_>>());
    v
}

proptest! {
    /// Randomized agreement: arbitrary salaries/depts, arbitrary predicate
    /// constants, with and without a directory — algebra ≡ calculus.
    #[test]
    fn algebra_equals_calculus(
        salaries in prop::collection::vec(0i64..8, 1..40),
        key in 0i64..8,
        threshold in 0i64..8,
        with_index in any::<bool>(),
    ) {
        let mut g = MockGraph::default();
        let mut members = BTreeMap::new();
        for (i, s) in salaries.iter().enumerate() {
            let mut elems = BTreeMap::new();
            elems.insert(sym(SALARY), Oop::int(*s));
            elems.insert(sym(DEPT), Oop::int((i as i64) % 3));
            let e = g.alloc(elems);
            members.insert(ElemName::Alias(i as u64), e);
        }
        let coll = g.alloc(members);
        let mut cat = IndexCatalog::new();
        if with_index {
            g.indexed.push((coll, vec![sym(SALARY)]));
            cat.add_path(vec![sym(SALARY)]);
        }
        let q = Query {
            result: vec![(SymbolId(0), Term::Var(VarId(0)))],
            ranges: vec![Range { var: VarId(0), domain: Term::Const(coll) }],
            pred: Pred::Cmp(
                Term::Path(VarId(0), vec![sym(SALARY)]),
                CmpOp::Eq,
                Term::Const(Oop::int(key)),
            )
            .and(Pred::Cmp(
                Term::Path(VarId(0), vec![sym(DEPT)]),
                CmpOp::Ge,
                Term::Const(Oop::int(threshold)),
            )),
        };
        let naive = eval_naive(&mut g, &q).unwrap();
        let planned = eval_query(&mut g, &q, &cat).unwrap();
        prop_assert_eq!(sorted(naive), sorted(planned));
    }

    /// Randomized equi-joins: the hash plan and the forced nested plan both
    /// reproduce the naive calculus semantics on arbitrary key skews.
    #[test]
    fn hash_join_equals_calculus(
        n in 1i64..25,
        m in 1i64..25,
        key_mod in 1i64..8,
    ) {
        let (mut g, q) = build_join(n, m, key_mod);
        let naive = eval_naive(&mut g, &q).unwrap();
        let (rows, plan, stats) =
            eval_query_explained(&mut g, &q, &IndexCatalog::new()).unwrap();
        prop_assert!(plan.uses_hash_join());
        prop_assert_eq!(sorted(naive.clone()), sorted(rows));
        prop_assert_eq!(stats.row_visits(), (n + m) as u64);
        let nested =
            translate_with(&q, &IndexCatalog::new(), &PlanOptions { hash_joins: false, stats: None });
        let mut nstats = PlanStats::default();
        let nrows = eval_algebra_stats(&mut g, &nested, &q, &mut nstats).unwrap();
        prop_assert_eq!(sorted(naive), sorted(nrows));
        prop_assert_eq!(nstats.row_visits(), (n + n * m) as u64);
    }
}
