//! Experiments C5 and C10: safe writes and replication through the full
//! system — a crash anywhere inside a commit group leaves the previous
//! committed state intact, and mirrored replicas survive single-disk loss.

use gemstone::{Database, FaultPlan, GemStone, IoRecord, ReadFault, StoreConfig, TearClass};

fn small_cfg() -> StoreConfig {
    StoreConfig { track_size: 1024, cache_tracks: 32, replicas: 1 }
}

#[test]
fn schema_and_data_survive_restart() {
    let gs = GemStone::create(small_cfg()).unwrap();
    let mut s = gs.login("system").unwrap();
    s.run(
        "| e |
         Object subclass: 'Employee' instVarNames: #('name' 'salary').
         Employee compile: 'raise salary := salary + 1000. ^salary'.
         Staff := Set new.
         e := Employee new. e name: 'Ellen'. e salary: 24650. Staff add: e",
    )
    .unwrap();
    s.commit().unwrap();
    drop(s);
    let disk = gs.shutdown().unwrap();

    let gs2 = GemStone::open(disk, 32).unwrap();
    let mut s = gs2.login("system").unwrap();
    // Data, classes AND recompiled methods all work.
    let v = s.run("(Staff detect: [:e | true]) raise").unwrap();
    assert_eq!(v.as_int(), Some(25650));
    let v = s.run("Staff first isKindOf: Employee").unwrap();
    assert_eq!(v.as_bool(), Some(true));
}

#[test]
fn crash_during_commit_is_all_or_nothing() {
    // Try crashing at every write position inside the second commit's
    // safe-write group; recovery must always see exactly the first commit.
    for fail_after in 0..8 {
        let gs = GemStone::create(small_cfg()).unwrap();
        let mut s = gs.login("system").unwrap();
        s.run("D := Dictionary new. D at: #v put: 'first'. D at: #w put: 'keep'").unwrap();
        s.commit().unwrap();

        s.run("D at: #v put: 'second'. D at: #extra put: 'x'").unwrap();
        // Arm crash injection directly on the store's disk.
        arm_crash(gs.database(), fail_after);
        let res = s.commit();
        drop(s);
        let mut disk = gs.shutdown().unwrap();
        disk.replica_mut(0).revive();

        let gs2 = GemStone::open(disk, 32).unwrap();
        let mut s2 = gs2.login("system").unwrap();
        let v = s2.run_display("D at: #v").unwrap();
        let extra = s2.run("(D at: #extra) isNil").unwrap().as_bool().unwrap();
        if res.is_ok() {
            assert_eq!(v, "'second'", "fail_after={fail_after}");
            assert!(!extra);
        } else {
            assert_eq!(v, "'first'", "fail_after={fail_after}: torn commit must vanish");
            assert!(extra, "fail_after={fail_after}: no partial commit");
        }
        assert_eq!(s2.run_display("D at: #w").unwrap(), "'keep'");
    }
}

fn arm_crash(db: &std::sync::Arc<Database>, after_writes: u64) {
    // Reach the disk through the database's test accessor.
    db.with_disk(|disk| disk.replica_mut(0).fail_after_writes(after_writes));
}

#[test]
fn crash_during_recovery_double_fault() {
    // Power loss mid-commit, then recovery itself is interrupted — twice,
    // at different reads — before being allowed through. Recovery is
    // read-only, so each interrupted attempt must fail cleanly (never fall
    // back to a stale root) and leave the platter untouched for the retry.
    let gs = GemStone::create(small_cfg()).unwrap();
    let mut s = gs.login("system").unwrap();
    s.run("D := Dictionary new. D at: #v put: 'first'").unwrap();
    s.commit().unwrap();
    s.run("D at: #v put: 'second'").unwrap();
    // The group is one data track and the root: power dies between them.
    arm_crash(gs.database(), 1);
    assert!(s.commit().is_err());
    drop(s);
    let mut disk = gs.shutdown().unwrap();
    disk.replica_mut(0).revive();

    for fault_at_read in [0u64, 2] {
        let mut d = disk.checkpoint().unwrap();
        d.replica_mut(0).set_fault_plan(FaultPlan {
            read_fault: Some(ReadFault { after_reads: fault_at_read, count: 1 }),
            ..FaultPlan::default()
        });
        assert!(
            GemStone::open(d, 32).is_err(),
            "recovery interrupted at read {fault_at_read} must abort, not improvise"
        );
    }

    // Third attempt, no faults: identical platter, full recovery.
    let gs2 = GemStone::open(disk, 32).unwrap();
    let mut s2 = gs2.login("system").unwrap();
    assert_eq!(s2.run_display("D at: #v").unwrap(), "'first'", "torn commit stays invisible");
    let rep = s2.recovery_report();
    assert_eq!(rep.roots_considered, 2);
    assert!(rep.roots_valid >= 1);
    assert!(rep.tracks_discarded >= 1, "the torn commit's shadow tracks are orphans");
}

#[test]
fn torn_write_inside_track_header() {
    // Tear the commit group's final write — the root itself — inside the
    // TRACK_HEADER: once within the 4-byte length field, once within the
    // 8-byte checksum field. Both must leave the previous root ruling.
    for tear in [TearClass::HeaderLen, TearClass::HeaderSum] {
        // First pass measures how many writes the commit performs, so the
        // second pass can tear exactly the last one.
        let writes = {
            let gs = GemStone::create(small_cfg()).unwrap();
            let mut s = gs.login("system").unwrap();
            s.run("D := Dictionary new. D at: #v put: 'first'").unwrap();
            s.commit().unwrap();
            gs.database().with_disk(|d| d.replica_mut(0).set_fault_plan(FaultPlan::trace()));
            s.run("D at: #v put: 'second'").unwrap();
            s.commit().unwrap();
            let trace = gs.database().with_disk(|d| d.replica_mut(0).take_io_trace());
            trace.iter().filter(|r| matches!(r, IoRecord::Write { .. })).count() as u64
        };
        assert!(writes >= 2, "commit writes data tracks then the root");

        let gs = GemStone::create(small_cfg()).unwrap();
        let mut s = gs.login("system").unwrap();
        s.run("D := Dictionary new. D at: #v put: 'first'").unwrap();
        s.commit().unwrap();
        s.run("D at: #v put: 'second'").unwrap();
        gs.database().with_disk(|d| {
            d.replica_mut(0).set_fault_plan(FaultPlan {
                crash_after_writes: Some(writes - 1),
                tear,
                ..FaultPlan::default()
            })
        });
        assert!(s.commit().is_err(), "{tear:?}: root write torn");
        drop(s);
        let mut disk = gs.shutdown().unwrap();
        disk.replica_mut(0).revive();

        let gs2 = GemStone::open(disk, 32).unwrap();
        let mut s2 = gs2.login("system").unwrap();
        assert_eq!(
            s2.run_display("D at: #v").unwrap(),
            "'first'",
            "{tear:?}: header-torn root must not validate"
        );
        let rep = s2.recovery_report();
        assert_eq!(rep.roots_considered, 2, "{tear:?}");
        assert!(rep.roots_valid >= 1, "{tear:?}");
    }
}

#[test]
fn replicated_database_survives_primary_loss() {
    let cfg = StoreConfig { track_size: 1024, cache_tracks: 0, replicas: 2 };
    let gs = GemStone::create(cfg).unwrap();
    let mut s = gs.login("system").unwrap();
    s.run("D := Dictionary new. D at: #v put: 42").unwrap();
    s.commit().unwrap();
    // Kill the primary.
    gs.database().with_disk(|disk| {
        disk.replica_mut(0).fail_after_writes(0);
        let _ = disk.replica_mut(0).write_track(gemstone::TrackId(500), b"x");
    });
    // Force refaulting from disk (mirror): evict every object and drop
    // the session's cached copies.
    gs.database().set_object_cache_limit(Some(0));
    gs.database().set_object_cache_limit(None);
    s.abort();
    let v = s.run("D at: #v").unwrap();
    assert_eq!(v.as_int(), Some(42), "mirror serves reads after primary loss");
    // Writes still succeed (degraded).
    s.run("D at: #v put: 43").unwrap();
    s.commit().unwrap();
    assert_eq!(s.run("D at: #v").unwrap().as_int(), Some(43));
}

/// A symbol first interned by a commit that neither edits the schema nor
/// rebinds a global reaches disk with that commit: after a restart, a
/// different new symbol must not inherit its id (at the parent, `#apple`
/// read back nil and its slot answered to `#banana`).
#[test]
fn a_symbol_interned_by_a_data_only_commit_survives_restart() {
    let gs = GemStone::create(small_cfg()).unwrap();
    let mut s = gs.login("system").unwrap();
    s.run("D := Dictionary new").unwrap();
    s.commit().unwrap();
    s.run("D at: #apple put: 1").unwrap();
    s.commit().unwrap();
    drop(s);
    let gs2 = GemStone::open(gs.shutdown().unwrap(), 32).unwrap();
    let mut s = gs2.login("system").unwrap();
    s.run("D at: #banana put: 2").unwrap();
    assert_eq!(s.run("D at: #apple").unwrap().as_int(), Some(1));
    assert_eq!(s.run("D at: #banana").unwrap().as_int(), Some(2));
    assert_eq!(s.run("D size").unwrap().as_int(), Some(2));
}

#[test]
fn many_commits_then_recover_everything() {
    let gs = GemStone::create(small_cfg()).unwrap();
    let mut s = gs.login("system").unwrap();
    s.run("Ledger := Dictionary new").unwrap();
    s.commit().unwrap();
    for i in 0..30 {
        s.run(&format!("Ledger at: {i} put: {}", i * i)).unwrap();
        s.commit().unwrap();
    }
    drop(s);
    let disk = gs.shutdown().unwrap();
    let gs2 = GemStone::open(disk, 32).unwrap();
    let mut s = gs2.login("system").unwrap();
    assert_eq!(s.run("Ledger size").unwrap().as_int(), Some(30));
    assert_eq!(s.run("Ledger at: 17").unwrap().as_int(), Some(289));
    // Histories intact: entry 5 did not exist before its commit.
    let t_first = 2; // Ledger creation committed at t1; entry 0 at t2
    s.run(&format!("System timeDial: {t_first}")).unwrap();
    assert_eq!(s.run("Ledger size").unwrap().as_int(), Some(1));
}
