//! T-obs: the unified telemetry layer, end to end.
//!
//! Three pillars from the issue: (a) metric snapshot diffs match ground
//! truth for a scripted workload — exact commit counts, track-I/O counts
//! cross-checked against the legacy accessors, exact hash-join probe
//! counts; (b) spans nest session → transaction → statement →
//! plan-operator/track-I/O and never leak across sessions; (c)
//! `explain_analyze` profiles report exactly the row counts the real
//! query returns. Plus the counter-based overhead gate and the
//! slow-statement log.

use gemstone::{GemStone, Session, SpanKind, StoreConfig, Telemetry};
use gemstone_calculus::{CmpOp, Pred, Query, Range, Term, VarId};
use gemstone_object::ElemName;
use gemstone_opal::OpalWorld;
use std::collections::{HashMap, HashSet};

mod common;
use common::diag_dir;

/// §5.1-style company data: three employees, two departments, joined on
/// the department name. Two employees work in Sales, so the equi-join
/// answers exactly two rows.
fn build_company(s: &mut Session) -> Query {
    s.run(
        "| t | Employees := Bag new. Departments := Bag new.\n\
         t := Dictionary new. t at: #Name put: 'Peters'. t at: #Dept put: 'Sales'. Employees add: t.\n\
         t := Dictionary new. t at: #Name put: 'Burns'. t at: #Dept put: 'Sales'. Employees add: t.\n\
         t := Dictionary new. t at: #Name put: 'Carter'. t at: #Dept put: 'Marketing'. Employees add: t.\n\
         t := Dictionary new. t at: #Name put: 'Sales'. t at: #Floor put: 1. Departments add: t.\n\
         t := Dictionary new. t at: #Name put: 'Research'. t at: #Floor put: 2. Departments add: t.",
    )
    .expect("populate");
    s.commit().expect("commit");
    let e_sym = s.intern("Employees");
    let d_sym = s.intern("Departments");
    let e = s.get_global(e_sym).expect("Employees");
    let d = s.get_global(d_sym).expect("Departments");
    let dept = ElemName::Sym(s.intern("Dept"));
    let name = ElemName::Sym(s.intern("Name"));
    let floor = ElemName::Sym(s.intern("Floor"));
    let (a, b) = (s.intern("Who"), s.intern("Where"));
    let (v0, v1) = (VarId(0), VarId(1));
    Query {
        result: vec![(a, Term::Path(v0, vec![name])), (b, Term::Path(v1, vec![floor]))],
        ranges: vec![
            Range { var: v0, domain: Term::Const(e) },
            Range { var: v1, domain: Term::Const(d) },
        ],
        pred: Pred::Cmp(Term::Path(v0, vec![dept]), CmpOp::Eq, Term::Path(v1, vec![name])),
    }
}

/// (a) Snapshot diffs match ground truth: exact transaction/commit/
/// statement counts, and the registry's disk counters move in lockstep
/// with the legacy `DiskStats` accessor they now back.
#[test]
fn snapshot_diff_matches_scripted_workload() {
    let gs = GemStone::in_memory();
    let mut s = gs.login("system").unwrap();
    let before = s.metrics();
    let (_, disk_before) = gs.database().storage_stats();

    s.run("Ledger := Dictionary new").unwrap();
    s.commit().unwrap();
    s.run("Ledger at: 1 put: 100").unwrap();
    s.commit().unwrap();

    let d = s.metrics().diff(&before);
    let (_, disk_after) = gs.database().storage_stats();

    assert_eq!(d.counter("txn.begins"), 2);
    assert_eq!(d.counter("txn.commits"), 2);
    assert_eq!(d.counter("txn.aborts"), 0);
    assert_eq!(d.counter("storage.store.commits"), 2);
    assert_eq!(d.counter("session.statements"), 2);
    let h = d.histogram("session.statement_ns").expect("statement histogram");
    assert_eq!(h.count, 2);
    assert!(h.sum > 0, "strict clock makes every statement nonzero-width");

    // The thin-view contract: the registry IS the old accessor's storage.
    assert_eq!(
        d.counter("storage.disk.writes"),
        disk_after.track_writes - disk_before.track_writes
    );
    assert_eq!(d.counter("storage.disk.reads"), disk_after.track_reads - disk_before.track_reads);
    assert!(d.counter("storage.disk.writes") > 0, "two commits must write tracks");
    assert!(d.counter("storage.cache.fills_commit") > 0, "safe-write groups fill the cache");
    assert!(
        d.histogram("storage.commit.group_tracks").expect("group histogram").count >= 2,
        "each commit records its safe-write group size"
    );
}

/// (a') Exact join probe counts for a known equi-join: three probe rows
/// against a two-row build side, two matches.
#[test]
fn join_counters_are_exact() {
    let gs = GemStone::in_memory();
    let mut s = gs.login("system").unwrap();
    let q = build_company(&mut s);

    let before = s.metrics();
    let rows = s.query(&q).unwrap();
    let d = s.metrics().diff(&before);

    assert_eq!(rows.len(), 2);
    assert_eq!(d.counter("calculus.hash_builds"), 2, "departments are the build side");
    assert_eq!(d.counter("calculus.hash_probes"), 3, "each employee probes once");
    assert_eq!(d.counter("calculus.hash_matches"), 2);
    assert_eq!(d.counter("calculus.rows_out"), rows.len() as u64);
    assert_eq!(d.counter("calculus.rows_scanned"), 5);
}

/// (b) Spans nest (statement under transaction under session marker) and
/// never leak across sessions: every event carries its own session id,
/// and the two sessions' event sets are disjoint.
#[test]
fn spans_nest_and_never_leak_across_sessions() {
    let (telemetry, _time) = Telemetry::manual();
    let gs = GemStone::create_with(StoreConfig::default(), telemetry).unwrap();
    let mut s1 = gs.login("system").unwrap();
    let mut s2 = gs.login("system").unwrap();
    s1.set_tracing(true);

    s1.run("X := 1").unwrap();
    s1.commit().unwrap();
    s2.run("Y := 2").unwrap();
    s2.commit().unwrap();

    let t1 = s1.trace();
    let t2 = s2.trace();
    assert!(!t1.is_empty() && !t2.is_empty());
    assert!(t1.iter().all(|e| e.session == s1.session_id()));
    assert!(t2.iter().all(|e| e.session == s2.session_id()));
    let ids1: HashSet<u64> = t1.iter().map(|e| e.id).collect();
    assert!(t2.iter().all(|e| !ids1.contains(&e.id)), "span ids are globally unique");

    // Nesting within session 1.
    let sess = t1.iter().find(|e| e.kind == SpanKind::Session).expect("session marker");
    let txn = t1.iter().find(|e| e.kind == SpanKind::Transaction).expect("txn span");
    let stmt = t1.iter().find(|e| e.kind == SpanKind::Statement).expect("statement span");
    assert_eq!(sess.parent, 0);
    assert_eq!(txn.parent, sess.id);
    assert_eq!(stmt.parent, txn.id);
    assert!(t1.iter().all(|e| e.duration_ns() > 0), "strict clock: no zero-width spans");

    // The commit wrote tracks; those I/O spans hang off this session's tree.
    let io: Vec<_> = t1.iter().filter(|e| e.kind == SpanKind::TrackIo).collect();
    assert!(!io.is_empty(), "commit must record track-I/O spans");
    assert!(io.iter().all(|e| ids1.contains(&e.parent)), "I/O spans attach inside the session");
}

/// (b') Statement sampling: with 1-in-2 sampling only every other
/// statement gets a span, and plan-operator spans of unsampled
/// statements are suppressed rather than orphaned.
#[test]
fn statement_sampling_suppresses_unsampled_subtrees() {
    let gs = GemStone::in_memory();
    let mut s = gs.login("system").unwrap();
    let q = build_company(&mut s);
    s.set_tracing(true);
    s.set_trace_sampling(2);

    for _ in 0..4 {
        s.query_analyzed(&q).unwrap();
        s.run("1 + 1").unwrap();
    }

    let events = s.trace();
    let stmts = events.iter().filter(|e| e.kind == SpanKind::Statement).count();
    assert!(stmts > 0 && stmts < 8, "1-in-2 sampling kept {stmts} of 8 statements");
    let ids: HashSet<u64> = events.iter().map(|e| e.id).collect();
    for op in events.iter().filter(|e| e.kind == SpanKind::PlanOperator) {
        assert!(ids.contains(&op.parent), "plan-operator span must have a recorded parent");
    }
}

/// (c) `explain_analyze` row counts equal the real query output, per
/// operator, on the section-5 company query.
#[test]
fn explain_analyze_counts_match_query_results() {
    let gs = GemStone::in_memory();
    let mut s = gs.login("system").unwrap();
    let q = build_company(&mut s);

    let plain = s.query(&q).unwrap();
    let analyzed = s.query_analyzed(&q).unwrap();
    assert_eq!(plain, analyzed, "profiling must not change the answer");

    let profile = s.last_profile().expect("profile").clone();
    assert_eq!(profile.rows_out(), analyzed.len() as u64, "root emits the result rows");
    assert!(profile.nodes.len() >= 3, "join plus two inputs at minimum");
    for node in &profile.nodes {
        assert!(node.wall_ns > 0, "every operator has nonzero wall time: {}", node.label);
    }
    let hash = profile
        .nodes
        .iter()
        .find(|n| n.label.starts_with("hash-join"))
        .expect("hash join operator");
    assert_eq!(hash.rows_out, 2);
    assert_eq!(hash.rows_in, 5, "three probe rows plus two build rows");
    assert_eq!(hash.build_rows, Some(2), "hash table built from the departments");

    let rendered = s.render_analysis().expect("rendered analysis");
    for node in &profile.nodes {
        assert!(rendered.contains(&node.label), "rendering shows {}", node.label);
    }
    assert!(rendered.contains("rows_in=") && rendered.contains("rows_out="));
    assert!(rendered.contains("wall="));
    assert!(rendered.contains("build="));
}

/// (c') The OPAL select-block path through `explain_analyze` renders the
/// plan with real row counts too.
#[test]
fn explain_analyze_on_opal_source() {
    let gs = GemStone::in_memory();
    let mut s = gs.login("system").unwrap();
    s.run(
        "| t | Employees := Set new.\n\
         t := Dictionary new. t at: #Salary put: 24000. Employees add: t.\n\
         t := Dictionary new. t at: #Salary put: 24650. Employees add: t.\n\
         t := Dictionary new. t at: #Salary put: 142000. Employees add: t.",
    )
    .unwrap();
    s.commit().unwrap();

    let n = s.run("(Employees select: [:e | e Salary > 24500]) size").unwrap();
    let matching = n.as_int().expect("size") as u64;

    let text = s.explain_analyze("(Employees select: [:e | e Salary > 24500]) size").unwrap();
    assert!(text.contains("rows_out="), "analysis rendered: {text}");
    let profile = s.last_profile().expect("profile");
    assert_eq!(profile.rows_out(), matching, "profiled rows equal the select's size");

    let none = s.explain_analyze("3 + 4").unwrap();
    assert!(none.contains("no select block"), "non-query statements say so: {none}");
}

/// The counter-based overhead gate: enabling full tracing adds zero
/// interpreter dispatches (the instrument is outside the bytecode loop),
/// and records a bounded, small number of telemetry events per
/// statement — structurally within any 10% budget.
#[test]
fn telemetry_overhead_gate() {
    let workload = |s: &mut Session| {
        for i in 0..10 {
            s.run(&format!("| x | x := 0. 1 to: 50 do: [:k | x := x + k]. x + {i}")).unwrap();
        }
        s.commit().unwrap();
    };

    let gs_off = GemStone::in_memory();
    let mut s_off = gs_off.login("system").unwrap();
    let before_off = s_off.metrics();
    workload(&mut s_off);
    let d_off = s_off.metrics().diff(&before_off);

    let gs_on = GemStone::in_memory();
    let mut s_on = gs_on.login("system").unwrap();
    s_on.set_tracing(true);
    let before_on = s_on.metrics();
    workload(&mut s_on);
    let d_on = s_on.metrics().diff(&before_on);

    let off = d_off.counter("opal.interp.dispatches");
    let on = d_on.counter("opal.interp.dispatches");
    assert!(off > 1000, "workload is dispatch-heavy: {off}");
    assert_eq!(on, off, "tracing adds no interpreter work");
    assert!(on * 10 <= off * 11, "enabled within 10% of disabled");

    let spans = d_on.counter("telemetry.spans.recorded");
    assert!(spans > 0, "tracing actually recorded spans");
    assert!(
        spans * 10 <= on,
        "telemetry is O(1) per statement, not per bytecode: {spans} spans vs {on} dispatches"
    );
    assert_eq!(d_off.counter("telemetry.spans.recorded"), 0, "disabled records nothing");

    // The flight-recorder leg of the gate: every emission site is
    // permanently attached (the journal-off path is one relaxed atomic
    // load), and enabling the journal changes no interpreter work either
    // — events are emitted beside existing counter moves, never inside
    // the bytecode loop.
    let dir = diag_dir("overhead");
    let gs_j = GemStone::in_memory();
    gs_j.database().start_journal(gemstone::JournalConfig::at(dir.path())).unwrap();
    let mut s_j = gs_j.login("system").unwrap();
    let before_j = s_j.metrics();
    workload(&mut s_j);
    let d_j = s_j.metrics().diff(&before_j);
    let journaled = d_j.counter("opal.interp.dispatches");
    assert_eq!(off, journaled, "journaling adds no interpreter dispatches");
    assert_eq!(
        d_off.counter("opal.interp.dispatches"),
        off,
        "journal disabled (the default above) adds no interpreter dispatches"
    );
}

/// Interpreter and verifier counters flow through the registry.
#[test]
fn interpreter_and_verifier_counters() {
    let gs = GemStone::in_memory();
    let mut s = gs.login("system").unwrap();
    let before = s.metrics();

    s.run("1 + 2").unwrap();
    s.run("'a' , 'b'").unwrap();
    s.run("| n | n := 5. n * n").unwrap();

    let d = s.metrics().diff(&before);
    assert!(d.counter("opal.interp.dispatches") > 0);
    assert!(d.counter("opal.interp.sends") > 0);
    assert!(d.counter("opal.verify.checks") >= 3, "each doit is verified before install");
    assert_eq!(d.counter("opal.verify.rejects"), 0);
}

/// Satellite: after reopen, recovery gauges mirror the `RecoveryReport`
/// thin view exactly, and faulting cold objects fills the cache on the
/// read-through path (not the commit path).
#[test]
fn recovery_gauges_and_read_through_fills() {
    let cfg = StoreConfig { track_size: 512, cache_tracks: 8, replicas: 2 };
    let gs = GemStone::create(cfg).unwrap();
    let mut s = gs.login("system").unwrap();
    let mut src = String::from("| t | Ledger := Dictionary new.\n");
    for i in 0..50 {
        src.push_str(&format!("t := Array new. t add: {i}. Ledger at: {i} put: t.\n"));
    }
    s.run(&src).unwrap();
    s.commit().unwrap();
    drop(s);
    let disk = gs.shutdown().unwrap();

    // Reopen with a one-track cache so cold faults must read through.
    let gs2 = GemStone::open(disk, 1).unwrap();
    let mut s2 = gs2.login("system").unwrap();
    let rep = s2.recovery_report();
    let snap = s2.metrics();
    assert_eq!(snap.gauge("storage.recovery.roots_considered"), rep.roots_considered as i64);
    assert_eq!(snap.gauge("storage.recovery.roots_valid"), rep.roots_valid as i64);
    assert_eq!(snap.gauge("storage.recovery.roots_torn"), rep.roots_torn as i64);
    assert_eq!(snap.gauge("storage.recovery.epoch"), rep.recovered_epoch as i64);
    assert_eq!(snap.gauge("storage.recovery.tracks_salvaged"), rep.tracks_salvaged as i64);
    assert_eq!(snap.gauge("storage.recovery.tracks_discarded"), rep.tracks_discarded as i64);
    assert_eq!(snap.gauge("storage.recovery.log_records"), rep.log_records as i64);
    assert!(rep.log_records >= 1, "the newest catalog record is always read");
    assert_eq!(snap.gauge("storage.recovery.reopen_reads"), rep.reopen_reads as i64);

    let before = s2.metrics();
    let v = s2.run("Ledger size").unwrap();
    assert_eq!(v.as_int(), Some(50));
    let d = s2.metrics().diff(&before);
    assert!(d.counter("storage.cache.fills_read") > 0, "cold faults fill via read-through");
    assert_eq!(d.counter("storage.cache.fills_commit"), 0, "no commit ran");
}

/// Exporters: the text table and JSON-lines renderings carry the metric
/// names and values a scrape would need.
#[test]
fn exporters_render_names_and_values() {
    let gs = GemStone::in_memory();
    let mut s = gs.login("system").unwrap();
    s.run("X := 42").unwrap();
    s.commit().unwrap();

    let snap = s.metrics();
    let table = snap.render_table();
    for name in ["txn.commits", "storage.disk.writes", "opal.interp.dispatches"] {
        assert!(table.contains(name), "table lists {name}");
    }
    let json = snap.to_json_lines();
    assert!(json.lines().count() > 10, "one line per metric");
    for line in json.lines() {
        assert!(line.starts_with('{') && line.ends_with('}'), "JSON object per line: {line}");
        assert!(line.contains("\"metric\""), "named: {line}");
    }

    // Diffing against itself zeroes every counter.
    let zero = snap.diff(&snap);
    assert_eq!(zero.counter("txn.commits"), 0);
}

/// Span ids parented correctly even for queries run outside any
/// statement (direct `query_analyzed` under tracing): operators attach
/// under the session marker rather than leaking parent 0.
#[test]
fn plan_operator_spans_attach_under_session() {
    let gs = GemStone::in_memory();
    let mut s = gs.login("system").unwrap();
    let q = build_company(&mut s);
    s.set_tracing(true);
    s.query_analyzed(&q).unwrap();

    let events = s.trace();
    let ops: Vec<_> = events.iter().filter(|e| e.kind == SpanKind::PlanOperator).collect();
    assert!(ops.len() >= 3, "one span per plan operator");
    let by_id: HashMap<u64, &gemstone::SpanEvent> = events.iter().map(|e| (e.id, e)).collect();
    for op in &ops {
        let mut cur = op.parent;
        let mut hops = 0;
        while cur != 0 {
            let parent = by_id.get(&cur).expect("parent span recorded in same session");
            assert_eq!(parent.session, s.session_id());
            cur = parent.parent;
            hops += 1;
            assert!(hops < 10, "no parent cycles");
        }
    }
}
