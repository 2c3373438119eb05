//! E-plan: the live statistics observatory feeding the cost-based planner.
//!
//! Four contracts from the issue: (a) on a skewed 3-way join the
//! cost-based order is counter-provably cheaper than the fixed PR 1
//! declaration-order plan; (b) a seeded drift scenario emits a journaled
//! `PlanDrift` and the *next* execution re-plans over fresh statistics to
//! a cheaper plan (`replan = true`); (c) replay determinism still holds
//! with every `stats_update`/`plan_choice`/`plan_drift` event in the
//! stream; (d) statistics stay off by default, so an untouched database
//! plans exactly as before and moves none of the new counters.

use gemstone::{
    replay, DiagnosticBundle, GemStone, Journal, JournalConfig, JournalEvent, Session, StoreConfig,
    Telemetry,
};
use gemstone_calculus::{CmpOp, Pred, Query, Range, Term, VarId};
use gemstone_object::ElemName;
use gemstone_opal::OpalWorld;

mod common;
use common::diag_dir;

/// Skewed order-entry data: 40 orders spread evenly over 5 customers
/// (selective equi-join, 1 match per probe) and bunched into a single
/// region shared by all 5 region rows (explosive equi-join, 5 matches per
/// probe). Every join path carries a directory, so the statistics layer
/// sees cardinalities and key distributions for all three sets.
fn build_skew(s: &mut Session) -> (Query, Query) {
    s.run(
        "| t | Orders := Bag new. Customers := Bag new. Regions := Bag new.
         1 to: 8 do: [:r |
             1 to: 5 do: [:c |
                 t := Dictionary new.
                 t at: #Cust put: c. t at: #Region put: 7.
                 Orders add: t]].
         1 to: 5 do: [:c |
             t := Dictionary new. t at: #Cust put: c. Customers add: t].
         1 to: 5 do: [:i |
             t := Dictionary new. t at: #Region put: 7. Regions add: t].",
    )
    .expect("populate");
    s.commit().expect("commit data");
    s.run("System createIndexOn: Orders path: #Cust").expect("index Orders");
    s.run("System createIndexOn: Orders path: #Region").expect("index Orders region");
    s.run("System createIndexOn: Customers path: #Cust").expect("index Customers");
    s.run("System createIndexOn: Regions path: #Region").expect("index Regions");
    s.commit().expect("commit");

    let (o_sym, r_sym, c_sym) = (s.intern("Orders"), s.intern("Regions"), s.intern("Customers"));
    let o = s.get_global(o_sym).expect("Orders");
    let r = s.get_global(r_sym).expect("Regions");
    let c = s.get_global(c_sym).expect("Customers");
    let cust = ElemName::Sym(s.intern("Cust"));
    let region = ElemName::Sym(s.intern("Region"));
    let label = s.intern("Cust");
    let (v0, v1, v2) = (VarId(0), VarId(1), VarId(2));
    // Declaration order puts the explosive Regions join *first*: the fixed
    // PR 1 translation must execute it first, while the cost-based planner
    // is free to reorder the selective Customers join ahead of it.
    let three_way = Query {
        result: vec![(label, Term::Path(v0, vec![cust]))],
        ranges: vec![
            Range { var: v0, domain: Term::Const(o) },
            Range { var: v1, domain: Term::Const(r) },
            Range { var: v2, domain: Term::Const(c) },
        ],
        pred: Pred::Cmp(Term::Path(v0, vec![region]), CmpOp::Eq, Term::Path(v1, vec![region]))
            .and(Pred::Cmp(Term::Path(v0, vec![cust]), CmpOp::Eq, Term::Path(v2, vec![cust]))),
    };
    let cust2 = ElemName::Sym(s.intern("Cust"));
    let two_way = Query {
        result: vec![(label, Term::Path(v0, vec![cust2]))],
        ranges: vec![
            Range { var: v0, domain: Term::Const(o) },
            Range { var: v1, domain: Term::Const(c) },
        ],
        pred: Pred::Cmp(Term::Path(v0, vec![cust2]), CmpOp::Eq, Term::Path(v1, vec![cust2])),
    };
    (three_way, two_way)
}

/// Total row traffic a query actually caused, from the exact operator
/// counters: rows scanned + directory rows visited + hash build/probe
/// work. The currency both plans are priced in.
fn row_visits(s: &Session) -> u64 {
    let p = s.last_plan_stats().expect("a planned query");
    p.rows_scanned + p.index_rows + p.hash_builds + p.hash_probes
}

// ---------------------------------------------- cost-based join ordering

/// (a) The acceptance skew: declaration order joins the explosive Regions
/// pair first (200 intermediate rows through the second join), the
/// cost-based order joins selective Customers first (40). Same 200
/// answers, counter-provably less work.
#[test]
fn cost_based_order_beats_declaration_order_on_skew() {
    let gs = GemStone::in_memory();
    let mut s = gs.login("system").unwrap();
    let (q, _) = build_skew(&mut s);

    // Fixed PR 1 behavior: statistics off, declaration order, directories
    // probed reflexively.
    let before = s.metrics();
    let rows = s.query(&q).unwrap();
    assert_eq!(rows.len(), 200, "8 orders per customer x 5 region rows x 5 customers");
    let fixed = s.last_decision().expect("decision recorded").clone();
    let fixed_cost = row_visits(&s);
    let d = s.metrics().diff(&before);
    assert!(!fixed.cost_based, "without statistics the planner must not claim cost basis");
    assert_eq!(
        fixed.canon,
        "((scan v0 ⋈ index-scan v1 on path(1 names)) ⋈ index-scan v2 on path(1 names))"
    );
    assert_eq!(d.counter("calculus.plan.choices"), 0, "stats off: no plan-choice events");

    // Train the statistics catalog and replan the identical query.
    let trained = gs.database().enable_stats().unwrap();
    assert_eq!(trained, 4, "one stats refresh per directory");
    let before = s.metrics();
    let rows = s.query(&q).unwrap();
    assert_eq!(rows.len(), 200, "the reordered plan answers the same rows");
    let chosen = s.last_decision().expect("decision recorded").clone();
    let chosen_cost = row_visits(&s);
    let d = s.metrics().diff(&before);

    assert!(chosen.cost_based, "statistics drove this choice");
    assert_eq!(
        chosen.canon,
        "hash-join[v0!path(1 names) = v1!path(1 names)](hash-join[v0!path(1 names) = \
         v2!path(1 names)](scan v0, scan v2), scan v1)",
        "the skew must put the selective Customers join first"
    );
    assert_eq!(chosen.alternatives.len(), 8, "considered alternatives are recorded");
    let (first_canon, first_cost) = &chosen.alternatives[0];
    assert_eq!(first_canon, &chosen.canon, "chosen plan leads the alternatives");
    assert_eq!(*first_cost, chosen.est_cost);
    for (_, cost) in &chosen.alternatives[1..] {
        assert!(*cost >= chosen.est_cost, "no considered alternative may be cheaper");
    }

    // The counter proof: the cost-based order does strictly less row work,
    // with the hash-join counters showing the selective join ran first.
    assert_eq!((fixed_cost, chosen_cost), (440, 140), "row visits: declaration vs cost-based");
    let p = s.last_plan_stats().unwrap();
    assert_eq!(p.hash_builds, 10, "5 customers, then 5 regions");
    assert_eq!(
        p.hash_probes, 80,
        "40 orders probe Customers, then 40 surviving rows probe Regions"
    );
    assert_eq!(d.counter("calculus.plan.choices"), 1);
    assert_eq!(d.counter("calculus.plan.cost_based"), 1);
    assert_eq!(d.counter("calculus.plan.drift"), 0, "fresh statistics: estimates hold");
}

/// (d) Estimates ride the analyzed profile: with fresh statistics every
/// operator's estimate lands within the drift threshold of its actual,
/// and the rendered analysis shows the est/err% column.
#[test]
fn analyzed_profile_carries_estimates() {
    let gs = GemStone::in_memory();
    let mut s = gs.login("system").unwrap();
    let (q, _) = build_skew(&mut s);
    gs.database().enable_stats().unwrap();

    let rows = s.query_analyzed(&q).unwrap();
    assert_eq!(rows.len(), 200);
    let profile = s.last_profile().expect("profiled run");
    let estimated: Vec<_> = profile.nodes.iter().filter_map(|n| n.est_rows).collect();
    assert_eq!(estimated.len(), profile.nodes.len(), "every operator carries an estimate");
    assert!(profile.worst_estimate().is_some());
    let rendered = s.render_analysis().expect("analysis rendered");
    assert!(rendered.contains("est="), "estimate column: {rendered}");
    assert!(rendered.contains("err="), "error column: {rendered}");
}

// ------------------------------------------------------- drift + replan

/// (b) The seeded drift scenario. Statistics are trained while Orders is
/// tiny, then maintenance is frozen and Orders grows 100x with almost
/// entirely non-matching keys. The stale-planned execution misses its
/// estimates by far more than the drift threshold → journaled `PlanDrift`
/// → the sets are marked stale → the next execution refreshes, re-plans
/// to a different, cheaper plan, and flags `replan`.
#[test]
fn drift_triggers_replan_to_cheaper_plan() {
    let gs = GemStone::in_memory();
    let mut s = gs.login("system").unwrap();
    s.run(
        "| t | Orders := Bag new. Customers := Bag new.
         1 to: 4 do: [:c |
             t := Dictionary new. t at: #Cust put: c. Orders add: t].
         1 to: 40 do: [:c |
             t := Dictionary new. t at: #Cust put: c. Customers add: t].",
    )
    .unwrap();
    s.commit().unwrap();
    s.run("System createIndexOn: Orders path: #Cust").unwrap();
    s.run("System createIndexOn: Customers path: #Cust").unwrap();
    s.commit().unwrap();

    let (o_sym, c_sym) = (s.intern("Orders"), s.intern("Customers"));
    let o = s.get_global(o_sym).expect("Orders");
    let c = s.get_global(c_sym).expect("Customers");
    let cust = ElemName::Sym(s.intern("Cust"));
    let label = s.intern("Cust");
    let (v0, v1) = (VarId(0), VarId(1));
    // Probe Customers by each order's key: cheap while Orders has 4 rows.
    let q = Query {
        result: vec![(label, Term::Path(v0, vec![cust]))],
        ranges: vec![
            Range { var: v0, domain: Term::Const(o) },
            Range { var: v1, domain: Term::Const(c) },
        ],
        pred: Pred::Cmp(Term::Path(v0, vec![cust]), CmpOp::Eq, Term::Path(v1, vec![cust])),
    };

    // Train on the tiny shape, then freeze maintenance so the catalog
    // goes stale on purpose (the seeded scenario).
    gs.database().enable_stats().unwrap();
    gs.database().set_stats_maintenance(false);
    s.run(
        "| t | 1 to: 396 do: [:i |
             t := Dictionary new. t at: #Cust put: i + 100. Orders add: t]",
    )
    .unwrap();
    s.commit().unwrap();

    // Execution 1: planned against the stale catalog (Orders "has 4 rows"),
    // profiled so actuals come back. 400 actual scan rows against an
    // estimate of 4 is a 100x miss — far past the drift threshold.
    let before = s.metrics();
    let rows = s.query_analyzed(&q).unwrap();
    assert_eq!(rows.len(), 4, "only the 4 original orders match a customer");
    let stale = s.last_decision().unwrap().clone();
    let stale_cost = row_visits(&s);
    let d = s.metrics().diff(&before);
    assert!(stale.cost_based && !stale.replan);
    assert_eq!(stale.canon, "(scan v0 ⋈ index-scan v1 on path(1 names))");
    assert_eq!(d.counter("calculus.plan.drift"), 1, "the estimate miss is journaled");
    assert_eq!(d.counter("calculus.plan.replans"), 0, "drift is detected, not yet repaired");

    // Execution 2: the drift marked both sets stale, so planning starts
    // with a refresh (even though maintenance stays frozen), re-plans
    // against honest cardinalities, and does strictly less work.
    let before = s.metrics();
    let rows = s.query_analyzed(&q).unwrap();
    assert_eq!(rows.len(), 4, "same answer after the re-plan");
    let fresh = s.last_decision().unwrap().clone();
    let fresh_cost = row_visits(&s);
    let d = s.metrics().diff(&before);
    assert!(fresh.replan, "the re-optimization protocol flags the re-plan");
    assert_eq!(
        fresh.canon, "(scan v1 ⋈ index-scan v0 on path(1 names))",
        "honest statistics flip the scan side"
    );
    assert_eq!((stale_cost, fresh_cost), (404, 44), "row visits: stale plan vs re-plan");
    assert!(d.counter("calculus.stats.updates") >= 2, "the refresh is journaled");
    assert_eq!(d.counter("calculus.plan.replans"), 1);
    assert_eq!(d.counter("calculus.plan.drift"), 0, "fresh estimates hold");
}

// --------------------------------------------------- journal integration

/// (c) Replay determinism with the full statistics event set in the
/// stream, and the v4 events appear in the order the protocol promises:
/// training updates, then choices, a drift episode, the drift-triggered
/// refresh, and finally the re-planning choice.
#[test]
fn stats_events_replay_byte_exact() {
    let dir = diag_dir("plan-events");
    let gs = {
        let telemetry = Telemetry::new();
        telemetry.journal.start(JournalConfig::at(dir.path())).expect("journal start");
        GemStone::create_with(StoreConfig::default(), telemetry).expect("create")
    };
    let mut s = gs.login("system").unwrap();
    let (q3, q2) = build_skew(&mut s);
    gs.database().enable_stats().unwrap();
    s.query(&q3).unwrap();
    // Seed a drift: freeze maintenance, then grow the side the stale plan
    // scans (Customers) 13x with non-matching keys, and run analyzed twice.
    gs.database().set_stats_maintenance(false);
    s.run(
        "| t | 1 to: 59 do: [:i |
             t := Dictionary new. t at: #Cust put: i + 100. Customers add: t]",
    )
    .unwrap();
    s.commit().unwrap();
    s.query_analyzed(&q2).unwrap();
    s.query_analyzed(&q2).unwrap();

    let live = gs.database().metrics_snapshot();
    gs.telemetry().journal.flush();
    let readout = Journal::read_from(&dir).expect("readable journal");
    assert!(readout.complete);
    let replayed = replay(&readout.events).snapshot();
    assert_eq!(
        replayed.to_json_lines(),
        live.to_json_lines(),
        "replaying the stats-era journal must reproduce the live snapshot byte-for-byte"
    );

    let updates =
        readout.events.iter().filter(|e| matches!(e, JournalEvent::StatsUpdate { .. })).count();
    assert!(updates >= 3, "training + drift refresh, got {updates}");
    let drifts: Vec<usize> = readout
        .events
        .iter()
        .enumerate()
        .filter_map(|(i, e)| matches!(e, JournalEvent::PlanDrift { .. }).then_some(i))
        .collect();
    assert_eq!(drifts.len(), 1, "exactly one drift episode");
    let replans: Vec<usize> = readout
        .events
        .iter()
        .enumerate()
        .filter_map(|(i, e)| {
            matches!(e, JournalEvent::PlanChoice { replan: true, .. }).then_some(i)
        })
        .collect();
    assert_eq!(replans.len(), 1, "exactly one re-planning choice");
    assert!(drifts[0] < replans[0], "drift is journaled before the re-plan that repairs it");
    let refresh_after_drift = readout.events[drifts[0]..replans[0]]
        .iter()
        .any(|e| matches!(e, JournalEvent::StatsUpdate { .. }));
    assert!(refresh_after_drift, "the drift-triggered refresh lands between drift and re-plan");
}

/// The doctor's planner-health section end to end: a journaled run with a
/// drift episode distills into a bundle whose `PlannerProfile` carries the
/// choice counts, the per-set refreshes, the worst statement, and the
/// drift episode — rendered and in the `--out` JSON document.
#[test]
fn doctor_bundle_reports_planner_health() {
    let dir = diag_dir("plan-doctor");
    let gs = {
        let telemetry = Telemetry::new();
        telemetry.journal.start(JournalConfig::at(dir.path())).expect("journal start");
        GemStone::create_with(StoreConfig::default(), telemetry).expect("create")
    };
    let mut s = gs.login("system").unwrap();
    let (_, q2) = build_skew(&mut s);
    gs.database().enable_stats().unwrap();
    gs.database().set_stats_maintenance(false);
    s.run(
        "| t | 1 to: 59 do: [:i |
             t := Dictionary new. t at: #Cust put: i + 100. Customers add: t]",
    )
    .unwrap();
    s.commit().unwrap();
    s.query_analyzed(&q2).unwrap();
    s.query_analyzed(&q2).unwrap();

    let live = gs.database().metrics_snapshot();
    gs.telemetry().journal.flush();
    let readout = Journal::read_from(&dir).expect("readable journal");
    let bundle = DiagnosticBundle::build(&readout, Some(&live), "test");
    let p = &bundle.planner;
    assert_eq!(p.choices, 2, "two analyzed executions, one choice each");
    assert_eq!(p.cost_based, 2);
    assert_eq!(p.replans, 1, "the second execution re-planned");
    assert!(p.stats_updates >= 4, "training + drift refresh, got {}", p.stats_updates);
    assert_eq!(p.drift_episodes.len(), 1, "the drift episode is kept");
    assert!(p.drift_episodes[0].err_pct.abs() >= 300, "a seeded 13x miss");
    assert_eq!(p.worst_statements.len(), 1, "one statement drifted");
    assert!(!p.set_refreshes.is_empty(), "per-set refresh counts survive");
    let text = bundle.render();
    assert!(text.contains("planner health:"), "{text}");
    assert!(text.contains("drift:"), "{text}");
    let json = bundle.to_json();
    assert!(json.contains("\"planner\": {\"choices\":2,\"cost_based\":2,\"replans\":1"), "{json}");
    assert!(json.contains("\"drift_episodes\":[{\"session\":"), "{json}");
}

/// (d) Off by default: a database that never calls `enable_stats` moves
/// none of the statistics counters and plans in declaration order — the
/// PR 1 contract, byte for byte.
#[test]
fn stats_off_is_the_pr1_planner() {
    let gs = GemStone::in_memory();
    let mut s = gs.login("system").unwrap();
    let (q, _) = build_skew(&mut s);
    assert!(!gs.database().stats_enabled());

    let before = s.metrics();
    s.query(&q).unwrap();
    s.commit().unwrap();
    let d = s.metrics().diff(&before);
    for c in [
        "calculus.stats.updates",
        "calculus.plan.choices",
        "calculus.plan.cost_based",
        "calculus.plan.replans",
        "calculus.plan.drift",
    ] {
        assert_eq!(d.counter(c), 0, "{c} must stay untouched with statistics off");
    }
    assert_eq!(s.render_stats(), "(statistics catalog empty — enable with Database::enable_stats)");
}
