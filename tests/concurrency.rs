//! Experiment C4: multi-session optimistic concurrency through the full
//! system (§6's Transaction Manager), including SafeTime (§5.4) and a
//! serializability check on concurrent counter updates.

use gemstone::{ConflictKind, GemError, GemStone, Journal, JournalConfig, JournalEvent};

mod common;
use common::diag_dir;

/// PR 9 tentpole: a losing validation yields a structured forensic
/// report — the kind, the culprit commit (time + session), the
/// overlapping objects with their home tracks — surfaced through the
/// error, `Session::last_conflict`, and the database-wide heat tables.
#[test]
fn conflict_forensics_name_the_culprit() {
    let gs = GemStone::in_memory();
    let mut a = gs.login("system").unwrap();
    let mut b = gs.login("system").unwrap();

    a.run("Account := Dictionary new. Account at: #balance put: 100").unwrap();
    a.commit().unwrap();

    a.run("Account at: #balance put: (Account at: #balance) + 10").unwrap();
    b.run("Account at: #balance put: (Account at: #balance) - 10").unwrap();
    let winner_time = a.commit().unwrap();
    let err = b.commit().unwrap_err();
    let GemError::TransactionConflict { kind, detail } = &err else {
        panic!("expected a conflict, got {err:?}");
    };
    assert_eq!(*kind, ConflictKind::Overlap);
    assert!(detail.contains("goop"), "detail names the contested object: {detail}");

    let report = b.last_conflict().expect("losing session has a report");
    assert_eq!(report.kind, ConflictKind::Overlap);
    assert_eq!(report.session, b.session_id());
    assert_eq!(report.culprit_session, a.session_id(), "the killer is named");
    assert_eq!(report.culprit_time, winner_time, "killed by the winning commit");
    assert!(!report.goops.is_empty(), "the contested objects are listed");
    assert!(
        !report.tracks.is_empty(),
        "home tracks resolved (the resolver is installed at database build)"
    );
    assert!(a.last_conflict().is_none(), "the winner has no conflict to report");

    let stats = gs.database().conflict_stats();
    assert_eq!((stats.overlap, stats.watermark), (1, 0));
    assert_eq!(stats.total(), 1);
    let (hot_goop, n) = stats.by_object[0];
    assert_eq!(n, 1);
    assert!(report.goops.contains(&hot_goop), "heat table agrees with the report");
    assert_eq!(stats.by_track[0].1, 1);
}

#[test]
fn conflicting_sessions_abort_the_later_committer() {
    let gs = GemStone::in_memory();
    let mut a = gs.login("system").unwrap();
    let mut b = gs.login("system").unwrap();

    a.run("Account := Dictionary new. Account at: #balance put: 100").unwrap();
    a.commit().unwrap();

    // Both sessions read-modify-write the same element.
    a.run("Account at: #balance put: (Account at: #balance) + 10").unwrap();
    b.run("Account at: #balance put: (Account at: #balance) - 10").unwrap();
    a.commit().unwrap();
    let err = b.commit();
    assert!(matches!(err, Err(GemError::TransactionConflict { .. })), "{err:?}");

    // b retries on fresh state and succeeds.
    b.run("Account at: #balance put: (Account at: #balance) - 10").unwrap();
    b.commit().unwrap();
    let v = a.run("Account at: #balance").unwrap();
    assert_eq!(v.as_int(), Some(100), "both updates applied exactly once");
}

#[test]
fn disjoint_elements_commit_concurrently() {
    let gs = GemStone::in_memory();
    let mut a = gs.login("system").unwrap();
    let mut b = gs.login("system").unwrap();
    a.run("D := Dictionary new. D at: #x put: 0. D at: #y put: 0").unwrap();
    a.commit().unwrap();
    a.run("D at: #x put: 1").unwrap();
    b.run("D at: #y put: 2").unwrap();
    a.commit().unwrap();
    b.commit().expect("different elements of one object must not conflict");
    assert_eq!(a.run("(D at: #x) + (D at: #y)").unwrap().as_int(), Some(3));
}

#[test]
fn sessions_are_isolated_until_commit() {
    let gs = GemStone::in_memory();
    let mut a = gs.login("system").unwrap();
    let mut b = gs.login("system").unwrap();
    a.run("Shared := Dictionary new. Shared at: #v put: 1").unwrap();
    a.commit().unwrap();
    a.run("Shared at: #v put: 2").unwrap(); // uncommitted
    let v = b.run("Shared at: #v").unwrap();
    assert_eq!(v.as_int(), Some(1), "b sees only committed state");
    a.commit().unwrap();
    // b's current transaction now holds a stale read; ending it (the
    // validator would reject a commit of that read) and starting fresh
    // shows the new state.
    b.abort();
    let v = b.run("Shared at: #v").unwrap();
    assert_eq!(v.as_int(), Some(2));
}

#[test]
fn abort_discards_the_workspace() {
    let gs = GemStone::in_memory();
    let mut s = gs.login("system").unwrap();
    s.run("K := Dictionary new. K at: #v put: 7").unwrap();
    s.commit().unwrap();
    s.run("K at: #v put: 99").unwrap();
    s.abort();
    assert_eq!(s.run("K at: #v").unwrap().as_int(), Some(7));
}

#[test]
fn safe_time_is_stable_under_running_writers() {
    let gs = GemStone::in_memory();
    let mut writer = gs.login("system").unwrap();
    writer.run("Log := Dictionary new. Log at: #n put: 0").unwrap();
    writer.commit().unwrap();

    let mut reader = gs.login("system").unwrap();
    // Reader pins its dial to SafeTime; subsequent commits by the writer
    // never change what it sees.
    let safe = reader.run("System safeTime").unwrap().as_int().unwrap();
    reader.run(&format!("System timeDial: {safe}")).unwrap();
    let before = reader.run("Log at: #n").unwrap().as_int().unwrap();
    for i in 1..5 {
        writer.run(&format!("Log at: #n put: {i}")).unwrap();
        writer.commit().unwrap();
        // The reader's dialed view is frozen even across its own txn
        // boundaries.
        reader.commit().unwrap();
        let now = reader.run("Log at: #n").unwrap().as_int().unwrap();
        assert_eq!(now, before, "SafeTime view is immutable");
    }
    reader.run("System timeDialNow").unwrap();
    reader.commit().unwrap();
    assert_eq!(reader.run("Log at: #n").unwrap().as_int(), Some(4));
}

/// Four sessions each land 25 read-modify-write increments, retrying on
/// conflict — all on counter 0 (`shared`) or each on its own — beside a
/// fifth session that only reads. Every thread holds its first
/// transaction open across a barrier, so four commits really race from
/// one snapshot. Answers the aborts the writers observed.
fn hammer(gs: &GemStone, shared: bool) -> u64 {
    let mut setup = gs.login("system").unwrap();
    setup
        .run(
            "Counters := Dictionary new.
             0 to: 3 do: [:i | Counters at: i put: (Dictionary new at: #n put: 0; yourself)]",
        )
        .unwrap();
    setup.commit().unwrap();
    drop(setup);

    let barrier = &std::sync::Barrier::new(5);
    std::thread::scope(|scope| {
        let writers: Vec<_> = (0..4)
            .map(|t| {
                let mut s = gs.login("system").unwrap();
                let k = if shared { 0 } else { t };
                scope.spawn(move || {
                    let (mut done, mut aborts) = (0, 0u64);
                    while done < 25 {
                        s.run(&format!(
                            "(Counters at: {k}) at: #n put: ((Counters at: {k}) at: #n) + 1"
                        ))
                        .unwrap();
                        if done + aborts == 0 {
                            barrier.wait();
                        }
                        match s.commit() {
                            Ok(_) => done += 1,
                            Err(GemError::TransactionConflict { .. }) => aborts += 1, // retry
                            Err(e) => panic!("{e}"),
                        }
                    }
                    aborts
                })
            })
            .collect();
        let mut r = gs.login("system").unwrap();
        scope.spawn(move || {
            for i in 0..25 {
                r.run("(Counters at: 0) at: #n").unwrap();
                if i == 0 {
                    barrier.wait();
                }
                r.commit().expect("a read-only transaction never aborts against a writer");
            }
        });
        writers.into_iter().map(|h| h.join().unwrap()).sum()
    })
}

#[test]
fn concurrent_threads_preserve_serializability() {
    for shared in [false, true] {
        let gs = GemStone::in_memory();
        let aborts = hammer(&gs, shared);
        if shared {
            // One of the four barrier-held commits wins; the other three
            // read the counter it overwrote.
            assert!(aborts >= 3, "full contention must abort, saw {aborts}");
        } else {
            assert_eq!(aborts, 0, "disjoint writers never conflict");
        }
        let mut check = gs.login("system").unwrap();
        let v = check.run("Counters inject: 0 into: [:a :c | a + (c at: #n)]").unwrap();
        assert_eq!(v.as_int(), Some(100), "no lost updates (shared: {shared})");
    }
}

/// Forensics conserve under contention: with the flight recorder on from
/// birth, every observed abort is exactly one journaled `TxnConflict` and
/// one tick of `txn.conflicts`, each overlap names its culprit, and every
/// writing commit leaves exactly one `CommitTimeline`.
#[test]
fn conflict_forensics_conserve_under_contention() {
    let dir = diag_dir("forensics");
    let gs = GemStone::in_memory();
    gs.database().start_journal(JournalConfig::at(dir.path())).unwrap();
    let aborts = hammer(&gs, true);
    gs.telemetry().journal.flush();
    let events = Journal::read_from(&dir).unwrap().events;

    let (mut conflicts, mut timelines) = (0, 0);
    for e in &events {
        match e {
            JournalEvent::TxnConflict {
                kind,
                culprit_time,
                culprit_session,
                goops,
                tracks,
                ..
            } => {
                conflicts += 1;
                assert_eq!(
                    kind.as_str(),
                    "overlap",
                    "begin retries past the prune watermark: never a refusal"
                );
                assert!(
                    *culprit_time > 0
                        && *culprit_session > 0
                        && !goops.is_empty()
                        && !tracks.is_empty(),
                    "unattributed conflict: {e:?}"
                );
            }
            JournalEvent::CommitTimeline { .. } => timelines += 1,
            _ => {}
        }
    }
    assert_eq!(conflicts, aborts, "one journaled TxnConflict per observed abort");
    assert_eq!(gs.database().metrics_snapshot().counter("txn.conflicts"), aborts);
    assert_eq!(timelines, 101, "setup + 100 landed increments; aborted prepares record none");
}

#[test]
fn blind_concurrent_inserts_into_one_collection() {
    // Two sessions adding members to the same committed Set: adds read the
    // membership (equality scan), so they conflict on the collection — the
    // second committer retries and both members land.
    let gs = GemStone::in_memory();
    let mut a = gs.login("system").unwrap();
    a.run("S := Set new").unwrap();
    a.commit().unwrap();
    let mut b = gs.login("system").unwrap();
    a.run("S add: 1").unwrap();
    b.run("S add: 2").unwrap();
    a.commit().unwrap();
    if b.commit().is_err() {
        b.run("S add: 2").unwrap();
        b.commit().unwrap();
    }
    assert_eq!(a.run("S size").unwrap().as_int(), Some(2));
}
