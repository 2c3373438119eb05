//! Experiment C9's administrator side: "while conceptually the entire
//! history of the database exists, some objects in it may become temporarily
//! or permanently inaccessible" (§6) — the DBA archive operation prunes old
//! associations while preserving every state at or after the cut.

use gemstone::{GemError, GemStone, StoreConfig};

#[test]
fn archive_prunes_old_states_and_keeps_recent_ones() {
    let gs = GemStone::in_memory();
    let mut s = gs.login("system").unwrap();
    s.run("A := Dictionary new. A at: #v put: 0").unwrap();
    s.commit().unwrap();
    let mut times = Vec::new();
    for i in 1..=10 {
        s.run(&format!("A at: #v put: {}", i * 100)).unwrap();
        times.push(s.commit().unwrap().ticks());
    }
    let cut = times[5]; // keep the state in force at times[5] and later
    let archived = s.run(&format!("System archiveHistoryBefore: {cut}")).unwrap();
    assert!(archived.as_int().unwrap() > 0, "associations were archived");

    // Recent history intact.
    for (i, t) in times.iter().enumerate().skip(5) {
        let v = s.run(&format!("A ! v @ {t}")).unwrap();
        assert_eq!(v.as_int(), Some((i as i64 + 1) * 100), "state at t{t}");
    }
    // Probes before the cut: the archived past is gone — "some objects in
    // it may become temporarily or permanently inaccessible" (§6).
    let v = s.run(&format!("A ! v @ {}", times[0])).unwrap();
    assert!(v.is_nil(), "archived states read as nonexistent");
    // The oldest retained association is the state at the cut.
    let v = s.run(&format!("A ! v @ {cut}")).unwrap();
    assert_eq!(v.as_int(), Some(600));
    assert_eq!(s.run("A at: #v").unwrap().as_int(), Some(1000));
}

#[test]
fn archive_shrinks_the_recovered_image() {
    let cfg = StoreConfig { track_size: 1024, cache_tracks: 16, replicas: 1 };
    let gs = GemStone::create(cfg).unwrap();
    let mut s = gs.login("system").unwrap();
    s.run("A := Dictionary new").unwrap();
    s.commit().unwrap();
    for i in 0..100 {
        s.run(&format!("A at: #v put: {i}")).unwrap();
        s.commit().unwrap();
    }
    let now = s.run("System currentTime").unwrap().as_int().unwrap();
    let archived = s.run(&format!("System archiveHistoryBefore: {now}")).unwrap();
    assert!(archived.as_int().unwrap() >= 99);
    // The pruned image survives restart, with only the retained state.
    drop(s);
    let disk = gs.shutdown().unwrap();
    let gs2 = GemStone::open(disk, 16).unwrap();
    let mut s = gs2.login("system").unwrap();
    assert_eq!(s.run("A at: #v").unwrap().as_int(), Some(99));
    assert!(
        s.run("A ! v @ 3").unwrap().is_nil(),
        "the archived past is inaccessible after recovery too"
    );
}

/// The archived image is persisted through the location log like any other
/// commit group: reopening right after the archive replays it from the
/// log, and reopening after enough further commits finds it in the pages a
/// page-out rewrote. Either way every retained state answers exactly at
/// its commit time and every archived one reads as nonexistent.
#[test]
fn archive_survives_reopen_through_the_log_and_across_a_page_out() {
    let cfg = StoreConfig { track_size: 1024, cache_tracks: 16, replicas: 1 };
    let gs = GemStone::create(cfg).unwrap();
    let mut s = gs.login("system").unwrap();
    // Sixty more objects on the GOOP-table page make it outweigh a few
    // catalog records, so the log runs several commits between page-outs.
    s.run(
        "| d | A := Dictionary new. Pad := OrderedCollection new.
         1 to: 60 do: [:i | d := Dictionary new. d at: #i put: i. Pad add: d]",
    )
    .unwrap();
    s.commit().unwrap();
    let mut states: Vec<(u64, i64)> = Vec::new(); // (commit time, A at: #v)
    let update = |s: &mut gemstone::Session, states: &mut Vec<(u64, i64)>, v: i64| {
        s.run(&format!("A at: #v put: {v}")).unwrap();
        states.push((s.commit().unwrap().ticks(), v));
    };
    for i in 0..12 {
        update(&mut s, &mut states, i * 10);
    }
    let cut = states[6].0;
    let archived = s.run(&format!("System archiveHistoryBefore: {cut}")).unwrap();
    assert!(archived.as_int().unwrap() >= 6, "the states before the cut were archived");

    let check = |gs: &GemStone, states: &[(u64, i64)], when: &str| {
        let mut s = gs.login("system").unwrap();
        for &(t, v) in states {
            let got = s.run(&format!("A ! v @ {t}")).unwrap();
            if t < cut {
                assert!(got.is_nil(), "{when}: the state at {t} was archived");
            } else {
                assert_eq!(got.as_int(), Some(v), "{when}: the state at {t}");
            }
        }
        assert_eq!(s.run("Pad size").unwrap().as_int(), Some(60), "{when}");
        assert_eq!(s.run("(Pad at: 60) at: #i").unwrap().as_int(), Some(60), "{when}");
    };

    // Reopen straight after the archive.
    drop(s);
    let gs = GemStone::open(gs.shutdown().unwrap(), 16).unwrap();
    let walked = gs.database().recovery_report().log_records;
    assert!(walked >= 2, "the archive group is replayed from the log ({walked} records)");
    check(&gs, &states, "right after the archive");

    // Commit past at least one page-out, then reopen again.
    let mut s = gs.login("system").unwrap();
    let after_archive = 20;
    for i in 0..after_archive {
        update(&mut s, &mut states, 1000 + i);
    }
    drop(s);
    let gs = GemStone::open(gs.shutdown().unwrap(), 16).unwrap();
    let walked = gs.database().recovery_report().log_records;
    assert!(
        walked < after_archive as u32,
        "the reopening replayed {walked} catalog records: a page-out after the archive \
         put its locations in the pages"
    );
    check(&gs, &states, "after a page-out");
}

#[test]
fn only_the_dba_may_archive() {
    let gs = GemStone::in_memory();
    gs.create_user("ellen");
    let mut dba = gs.login("system").unwrap();
    dba.run("A := Dictionary new. A at: #v put: 1").unwrap();
    dba.commit().unwrap();
    let mut ellen = gs.login("ellen").unwrap();
    let err = ellen.run("System archiveHistoryBefore: 1");
    assert!(matches!(err, Err(GemError::AuthorizationDenied { .. })), "{err:?}");
}
