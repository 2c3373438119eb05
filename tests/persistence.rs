//! PR 8 acceptance ground truth: `create → commit → drop → open` against
//! the real file backend round-trips every committed object — including
//! temporal `@` reads at transaction times recorded before the process
//! boundary — with uncommitted work gone.

mod common;
use common::scratch_dir;

use gemstone::{GemError, GemStone, StoreConfig};

fn small_cfg() -> StoreConfig {
    StoreConfig { track_size: 2048, cache_tracks: 16, replicas: 1 }
}

/// Every committed object kind survives the process boundary; the
/// uncommitted tail does not.
#[test]
fn file_database_round_trips_committed_state() {
    let dir = scratch_dir("target/durability", "roundtrip");
    std::fs::create_dir_all(&dir).unwrap();
    let db = dir.join("round.gem");

    {
        let gs = GemStone::create_file(&db, small_cfg()).unwrap();
        let mut s = gs.login("system").unwrap();
        s.run(
            "| e | Object subclass: 'Employee' instVarNames: #('name' 'salary').
             Staff := OrderedCollection new.
             e := Employee new. e name: 'Peters'. e salary: 24650. Staff add: e.
             Dept := Dictionary new. Dept at: #Name put: 'Sales'. Dept at: #Floor put: 1.
             Tags := Set new. Tags add: 'fast'; add: 'safe'",
        )
        .unwrap();
        s.commit().unwrap();
        // A second commit mutates state, then an uncommitted change dangles.
        s.run("(Staff at: 1) salary: 30000").unwrap();
        s.commit().unwrap();
        s.run("Dept at: #Floor put: 99").unwrap();
        // No commit: the floor change must NOT survive.
        drop(s);
        drop(gs); // process boundary (same process, but the store is gone)
    }

    let gs = GemStone::open_file(&db, 16).unwrap();
    let mut s = gs.login("system").unwrap();
    assert_eq!(s.run("Staff size").unwrap().as_int(), Some(1));
    assert_eq!(s.run_display("(Staff at: 1) name").unwrap(), "'Peters'");
    assert_eq!(s.run("(Staff at: 1) salary").unwrap().as_int(), Some(30000));
    assert_eq!(s.run_display("Dept at: #Name").unwrap(), "'Sales'");
    assert_eq!(s.run("Dept at: #Floor").unwrap().as_int(), Some(1), "uncommitted write discarded");
    assert_eq!(s.run("Tags size").unwrap().as_int(), Some(2));
    // The recovered database accepts new work.
    s.run("Staff add: (Employee new name: 'Burns'; yourself)").unwrap();
    s.commit().unwrap();
    assert_eq!(s.run("Staff size").unwrap().as_int(), Some(2));
}

/// Temporal `@` reads work across the process boundary: transaction times
/// recorded before the drop still answer historical values after reopen.
#[test]
fn temporal_reads_survive_reopen() {
    let dir = scratch_dir("target/durability", "temporal");
    std::fs::create_dir_all(&dir).unwrap();
    let db = dir.join("temporal.gem");

    let (t1, t2);
    {
        let gs = GemStone::create_file(&db, small_cfg()).unwrap();
        let mut s = gs.login("system").unwrap();
        s.run("Car := Dictionary new").unwrap();
        s.commit().unwrap();
        s.run("Car at: #assignedTo put: 'Milton'").unwrap();
        t1 = s.commit().unwrap().ticks();
        s.run("Car at: #assignedTo put: 'Sales'").unwrap();
        t2 = s.commit().unwrap().ticks();
    }

    let gs = GemStone::open_file(&db, 16).unwrap();
    let mut s = gs.login("system").unwrap();
    assert_eq!(s.run_display("Car at: #assignedTo").unwrap(), "'Sales'");
    assert_eq!(s.run_display(&format!("Car ! assignedTo @ {t1}")).unwrap(), "'Milton'");
    assert_eq!(s.run_display(&format!("Car ! assignedTo @ {t2}")).unwrap(), "'Sales'");
    // The time dial rolls the whole session view back, too.
    s.run(&format!("System timeDial: {t1}")).unwrap();
    assert_eq!(s.run_display("Car at: #assignedTo").unwrap(), "'Milton'");
}

/// The group-commit protocol, counted on the real file: every session
/// commit is one safe-write group of exactly two fsyncs (data barrier,
/// ack barrier) however many tracks it writes, and everything acked
/// answers after reopen.
#[test]
fn file_commits_cost_two_fsyncs_per_group() {
    let dir = scratch_dir("target/durability", "fsyncs");
    std::fs::create_dir_all(&dir).unwrap();
    let db = dir.join("fsyncs.gem");

    let gs = GemStone::create_file(&db, small_cfg()).unwrap();
    let mut s = gs.login("system").unwrap();
    s.run("Log := OrderedCollection new").unwrap();
    s.commit().unwrap();

    let before = s.metrics();
    for i in 0..32 {
        s.run(&format!("Log add: {i}")).unwrap();
        s.commit().unwrap();
    }
    let d = s.metrics().diff(&before);
    assert_eq!(d.counter("storage.disk.fsyncs"), 64, "32 groups, two barriers each");
    // Each commit is one extent plus the root. The extent holds the Log
    // image (868–955 B as its history grows), the table's one page (24 B:
    // a one-entry table pages out at every commit, since any catalog
    // record outweighs it) and the 94-byte catalog record — under 1.1 KB,
    // one 2,036-byte track payload. 32 × (1 + 1) = 64.
    assert_eq!(d.counter("storage.disk.writes"), 64);

    let before = s.metrics();
    s.run(
        "| t | Wide := OrderedCollection new.
         1 to: 40 do: [:i | t := Dictionary new. t at: #n put: i. Wide add: t]",
    )
    .unwrap();
    s.commit().unwrap();
    let d = s.metrics().diff(&before);
    // 41 images (3,427 B), the grown symbol table (1,223 B) and globals
    // (28 B) — `Wide` is a new global —, the page-out of the 42-entry
    // page (844 B: 41 log entries outweigh it) and the catalog record
    // (94 B): 5,616 B, three track payloads of 2,036 B. Plus the root: 4.
    assert_eq!(d.counter("storage.disk.writes"), 4, "one wide group");
    assert_eq!(d.counter("storage.disk.fsyncs"), 2, "barriers are per group, not per track");
    drop(s);
    drop(gs);

    let gs = GemStone::open_file(&db, 16).unwrap();
    let mut s = gs.login("system").unwrap();
    assert_eq!(s.run("Log size").unwrap().as_int(), Some(32));
    assert_eq!(s.run("Log last").unwrap().as_int(), Some(31));
    assert_eq!(s.run("Wide size").unwrap().as_int(), Some(40));
    assert_eq!(s.run("(Wide at: 40) at: #n").unwrap().as_int(), Some(40));
}

/// A commit that only rebinds a global stages only the globals blob, not
/// the whole schema: installing fifty methods does not make it any bigger.
/// (Re-serialising all six metadata blobs, the method sources among them,
/// would put several more tracks into every such commit.)
#[test]
fn a_globals_only_commit_does_not_carry_the_schema() {
    let dir = scratch_dir("target/durability", "metas");
    std::fs::create_dir_all(&dir).unwrap();
    let db = dir.join("metas.gem");

    let gs = GemStone::create_file(&db, small_cfg()).unwrap();
    let mut s = gs.login("system").unwrap();
    s.run("Counter := 0. Object subclass: 'Probe' instVarNames: #()").unwrap();
    s.commit().unwrap();
    let rebind = |s: &mut gemstone::Session, v: i64| {
        let before = s.metrics();
        s.run(&format!("Counter := {v}")).unwrap();
        s.commit().unwrap();
        s.metrics().diff(&before).counter("storage.disk.writes")
    };
    let bare = rebind(&mut s, 1);
    assert_eq!(bare, 2, "the globals blob and the catalog record share a track, then the root");
    for i in 0..50 {
        s.run(&format!("Probe compile: 'm{i} ^{i}'")).unwrap();
    }
    s.commit().unwrap();
    assert_eq!(rebind(&mut s, 2), bare, "fifty methods later");
    drop(s);
    drop(gs);

    let gs = GemStone::open_file(&db, 16).unwrap();
    let mut s = gs.login("system").unwrap();
    assert_eq!(s.run("Counter").unwrap().as_int(), Some(2));
    assert_eq!(s.run("Probe new m49").unwrap().as_int(), Some(49), "methods persisted");
}

/// Reopening a path that never held a database is an error, not a crash;
/// creating over an existing database is refused.
#[test]
fn open_and_create_guard_their_paths() {
    let dir = scratch_dir("target/durability", "guards");
    std::fs::create_dir_all(&dir).unwrap();

    match GemStone::open_file(dir.join("absent.gem"), 16) {
        Err(GemError::DiskFailure(msg)) => assert!(msg.contains("open"), "unexpected: {msg}"),
        Err(other) => panic!("opening a missing file must fail cleanly, got {other:?}"),
        Ok(_) => panic!("opening a missing file must fail"),
    }

    let db = dir.join("dup.gem");
    GemStone::create_file(&db, small_cfg()).unwrap();
    assert!(
        GemStone::create_file(&db, small_cfg()).is_err(),
        "create_new semantics: refusing to clobber an existing database"
    );
}
