//! T-obs2: the persistent flight recorder, end to end.
//!
//! The tentpole contract: replaying a recorded journal through a fresh
//! registry reproduces the live `MetricsSnapshot` **byte-for-byte** — the
//! determinism test that keeps every emission site honest. Around it:
//! segment rotation stays within its disk budget, unknown schema versions
//! are rejected, the doctor's bundle validates its own cache model against
//! the recorded trace, and structured failures auto-capture a bundle.
//!
//! Journals land under `target/diagnostics/` so a failing CI job uploads
//! them as artifacts.

use gemstone::{
    replay, DiagnosticBundle, GemStone, Journal, JournalConfig, JournalEvent, Session, StoreConfig,
    Telemetry, TrackId, JOURNAL_SCHEMA,
};
use gemstone_calculus::{CmpOp, Pred, Query, Range, Term, VarId};
use gemstone_object::ElemName;
use gemstone_opal::OpalWorld;
use proptest::prelude::*;
use std::path::Path;

mod common;
use common::diag_dir;

/// §5.1-style company data (same fixture as the telemetry suite): the
/// equi-join on the department name answers exactly two rows.
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
    company_query(s)
}

/// The Employees ⋈ Departments query, bound to `s`'s workspace.
fn company_query(s: &mut Session) -> Query {
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

/// A GemStone whose flight recorder runs from birth: the journal starts
/// *before* the volume is formatted, so the baseline covers creation.
fn recorded_gemstone(dir: &Path, cfg: StoreConfig) -> GemStone {
    let telemetry = Telemetry::new();
    telemetry.journal.start(JournalConfig::at(dir.to_path_buf())).expect("journal start");
    GemStone::create_with(cfg, telemetry).expect("create")
}

// ------------------------------------------------- replay determinism

/// THE acceptance criterion: live workload → journal → replay → the same
/// snapshot, byte-identical through the JSON exporter.
#[test]
fn journal_replay_reproduces_live_snapshot() {
    let dir = diag_dir("replay");
    let gs = recorded_gemstone(&dir, StoreConfig::default());
    let mut s = gs.login("system").unwrap();
    let q = build_company(&mut s);
    let rows = s.query(&q).unwrap();
    assert_eq!(rows.len(), 2, "the join fixture answers two rows");
    s.run("| x | x := OrderedCollection new. x add: 7. x add: 9. x size").unwrap();
    s.run("1 + 2 * 3").unwrap();
    s.commit().unwrap();

    let live = gs.database().metrics_snapshot();
    gs.telemetry().journal.flush();
    let readout = Journal::read_from(&dir).expect("readable journal");
    assert!(readout.complete, "recorded from birth: segment 1 still present");
    let replayed = replay(&readout.events).snapshot();
    assert_eq!(
        replayed.to_json_lines(),
        live.to_json_lines(),
        "replaying the journal must reproduce the live snapshot byte-for-byte"
    );
}

/// Replay determinism holds across a crash/recovery boundary: reopen the
/// volume with a fresh recorder; the `recovery` event plus baseline keep
/// the replay exact.
#[test]
fn replay_survives_reopen() {
    let dir = diag_dir("reopen");
    let gs = GemStone::create(StoreConfig::default()).unwrap();
    let mut s = gs.login("system").unwrap();
    s.run("Stash := OrderedCollection new. Stash add: 1").unwrap();
    s.commit().unwrap();
    drop(s);
    let disk = gs.shutdown().unwrap();

    let telemetry = Telemetry::new();
    telemetry.journal.start(JournalConfig::at(dir.path())).unwrap();
    let gs2 = GemStone::open_with(disk, 64, telemetry).unwrap();
    let mut s2 = gs2.login("system").unwrap();
    s2.run("Stash add: 2. Stash size").unwrap();
    s2.commit().unwrap();

    let live = gs2.database().metrics_snapshot();
    gs2.telemetry().journal.flush();
    let readout = Journal::read_from(&dir).unwrap();
    let replayed = replay(&readout.events).snapshot();
    assert_eq!(replayed.to_json_lines(), live.to_json_lines());
    // The recovery pass itself was recorded.
    let bundle = DiagnosticBundle::build(&readout, Some(&live), "reopen");
    let rec = bundle.recovery.clone().expect("recovery event recorded at reopen");
    assert!(rec.roots_considered >= 1);
    assert_eq!(rec.log_records, gs2.database().recovery_report().log_records as u64);
    // The doctor's storage-health section says how much log was replayed.
    let text = bundle.render();
    let health = &text[text.find("storage health:").expect("storage-health section")..];
    assert!(
        health.contains(&format!("location log: {} catalog records walked", rec.log_records)),
        "{health}"
    );
    assert_eq!(bundle.replay_matches_live, Some(true));
}

// ------------------------------------------------- rotation & schema

/// Rotation keeps at most `max_segments` files on disk; a truncated
/// journal is flagged incomplete and its replay verdict goes false.
#[test]
fn rotation_bounds_disk_and_flags_incomplete() {
    let dir = diag_dir("rotate");
    let telemetry = Telemetry::new();
    telemetry
        .journal
        .start(JournalConfig { dir: dir.to_path_buf(), max_segment_bytes: 2048, max_segments: 3 })
        .unwrap();
    let gs = GemStone::create_with(StoreConfig::default(), telemetry).unwrap();
    let mut s = gs.login("system").unwrap();
    for i in 0..50 {
        s.run(&format!("{i} + {i}")).unwrap();
    }
    s.commit().unwrap();
    gs.telemetry().journal.flush();

    let segments: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.starts_with("journal-"))
        .collect();
    assert!(segments.len() <= 3, "segment budget exceeded: {segments:?}");
    assert!(segments.len() >= 2, "workload was sized to rotate at least once");

    let readout = Journal::read_from(&dir).unwrap();
    assert!(!readout.complete, "oldest segments were deleted");
    let live = gs.database().metrics_snapshot();
    let bundle = DiagnosticBundle::build(&readout, Some(&live), "rotated");
    assert_eq!(
        bundle.replay_matches_live,
        Some(false),
        "a truncated journal must not claim determinism"
    );
}

/// A journal written by a future build is rejected, not misread.
#[test]
fn unknown_schema_version_is_rejected() {
    let dir = diag_dir("schema");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("journal-00000001.jsonl"), "{\"e\":\"header\",\"v\":99,\"seq\":1}\n")
        .unwrap();
    let err = Journal::read_from(&dir).unwrap_err();
    assert!(err.contains("schema"), "unexpected error text: {err}");
}

// ------------------------------------------------- the doctor's bundle

/// The bundle's cache model is validated against the recorded trace: at
/// the live capacity the simulated hit/miss counts must equal what the
/// real cache did. Heat map and locality come from the same events.
#[test]
fn doctor_bundle_validates_cache_model_and_heat() {
    let dir = diag_dir("bundle");
    let gs =
        recorded_gemstone(&dir, StoreConfig { track_size: 2048, cache_tracks: 8, replicas: 1 });
    let mut s = gs.login("system").unwrap();
    let q = build_company(&mut s);
    s.query(&q).unwrap();
    s.commit().unwrap();
    drop(s);
    // Force re-reads through the small track cache: evict every object,
    // then fault the company back in from a session with nothing cached.
    gs.database().set_object_cache_limit(Some(0));
    gs.database().set_object_cache_limit(None);
    let mut s = gs.login("system").unwrap();
    let q = company_query(&mut s);
    s.query(&q).unwrap();
    s.commit().unwrap();
    drop(s);

    let bundle = gs.database().diagnostic_bundle("doctor-test").unwrap();
    assert_eq!(bundle.replay_matches_live, Some(true));
    assert!(!bundle.heat.is_empty(), "commits and faults touched tracks");
    assert!((0.0..=1.0).contains(&bundle.locality_score));
    assert_eq!(bundle.live_capacity, Some(8));
    assert_eq!(
        bundle.sweep_validated,
        Some(true),
        "LRU model must reproduce the recorded hit/miss counts"
    );
    assert!(!bundle.sweep.is_empty());
    assert!(!bundle.slow_statements.is_empty(), "statements were recorded");

    let text = bundle.render();
    assert!(text.contains("track heat map"), "render: {text}");
    assert!(text.contains("cache hit-rate vs size"));
    let json = bundle.to_json();
    assert!(json.contains("\"replay_matches_live\": true"));
    assert!(json.contains("\"locality_score\""));
}

/// A dead disk mid-statement auto-captures `bundle-disk-dead-*.json`
/// beside the journal segments.
#[test]
fn disk_death_auto_captures_bundle() {
    let dir = diag_dir("capture");
    let gs =
        recorded_gemstone(&dir, StoreConfig { track_size: 8192, cache_tracks: 0, replicas: 1 });
    let mut s = gs.login("system").unwrap();
    s.run("Box := OrderedCollection new. Box add: 42").unwrap();
    s.commit().unwrap();
    drop(s);
    // Evict the committed object, then kill the only replica.
    gs.database().set_object_cache_limit(Some(0));
    gs.database().set_object_cache_limit(None);
    gs.database().with_disk(|d| {
        d.replica_mut(0).fail_after_writes(0);
        let _ = d.replica_mut(0).write_track(TrackId(999), b"x");
    });
    let mut s2 = gs.login("system").unwrap();
    let err = s2.run("Box size");
    assert!(err.is_err(), "faulting from a dead disk must fail");

    let bundles: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.starts_with("bundle-disk-dead-") && n.ends_with(".json"))
        .collect();
    assert_eq!(bundles.len(), 1, "exactly one auto-captured bundle: {bundles:?}");
    let body = std::fs::read_to_string(dir.join(&bundles[0])).unwrap();
    assert!(body.contains("\"reason\": \"disk-dead\""));
}

/// `Database::capture_bundle` is a silent no-op while the recorder is off
/// (the failure paths call it unconditionally).
#[test]
fn capture_without_recorder_is_noop() {
    let gs = GemStone::in_memory();
    assert!(gs.database().capture_bundle("disk-dead").is_none());
    assert!(gs.database().diagnostic_bundle("x").is_err());
}

/// The recorder can start mid-life: the baseline carries the absolute
/// counter state, so replay still reproduces cumulative totals exactly.
#[test]
fn midlife_start_baselines_absolute_state() {
    let dir = diag_dir("midlife");
    let gs = GemStone::in_memory();
    let mut s = gs.login("system").unwrap();
    s.run("Pre := OrderedCollection new. Pre add: 1").unwrap();
    s.commit().unwrap();

    gs.database().start_journal(JournalConfig::at(dir.path())).unwrap();
    s.run("Pre add: 2. Pre size").unwrap();
    s.commit().unwrap();

    let live = gs.database().metrics_snapshot();
    gs.telemetry().journal.flush();
    let readout = Journal::read_from(&dir).unwrap();
    let replayed = replay(&readout.events).snapshot();
    assert_eq!(replayed.to_json_lines(), live.to_json_lines());
    gs.database().stop_journal();
}

/// Fragments of the journal's own syntax, so random lines come close to
/// real events (and cross the reader's edge cases) far more often than
/// random bytes would.
const FRAGMENTS: &[&str] = &[
    "{",
    "}",
    "[",
    "]",
    ":",
    ",",
    "\"",
    " ",
    "\\",
    "\\u",
    "\\u00e9",
    "\\ud800",
    "\\x",
    "\"e\"",
    "\"plan\"",
    "\"base_hist\"",
    "\"txn_conflict\"",
    "\"buckets\"",
    "\"0:1,63:2\"",
    "\"64:1\"",
    "\"goops\"",
    "true",
    "fals",
    "-",
    "0",
    "7",
    "18446744073709551616",
    "-9223372036854775809",
    "999999999999999999999999999999999999999999",
    "é",
    "\n",
    "\t",
];

/// A line of up to 40 random fragments.
fn noise_line() -> impl Strategy<Value = String> {
    prop::collection::vec(0..FRAGMENTS.len(), 0..40)
        .prop_map(|picks| picks.into_iter().map(|i| FRAGMENTS[i]).collect())
}

proptest! {
    /// The journal reader is total: any line is an event or an error.
    #[test]
    fn parse_never_panics(line in noise_line()) {
        let _ = JournalEvent::parse(&line);
    }

    /// A segment with a valid header and arbitrary body lines reads back
    /// as events or an error, never a panic.
    #[test]
    fn read_from_never_panics(body in prop::collection::vec(noise_line(), 0..6)) {
        // Per thread: the test harness may run this property twice at once.
        let dir = diag_dir(&format!("read-noise-{:?}", std::thread::current().id()));
        std::fs::create_dir_all(dir.path()).unwrap();
        let mut text = format!("{{\"e\":\"header\",\"v\":{JOURNAL_SCHEMA},\"seq\":1}}\n");
        text.push_str(&body.join("\n"));
        std::fs::write(dir.path().join("journal-00000001.jsonl"), text).unwrap();
        let _ = Journal::read_from(dir.path());
    }
}
