//! What a transaction begin costs: a session brings its cached copies up
//! to the new snapshot by re-reading only what the committed-change feed
//! names since its last begin, and its whole workspace only after idling
//! past the feed's horizon.
//!
//! Re-reads are counted through `storage.store.object_faults` with the
//! store's object cache bounded to nothing, so every read the session makes
//! of a committed object is one fault.

use gemstone::{FaultPlan, GemError, GemStone, ReadFault, Session, StoreConfig};
use gemstone_opal::OpalWorld;
use proptest::prelude::*;

mod common;
use common::diag_dir;

/// More foreign commits than the feed remembers (`FEED_COMMITS` in
/// `crates/core/src/db.rs` is 64). The fallback test asserts the count a
/// whole-workspace walk re-reads, so it fails if the feed outgrows this.
const PAST_HORIZON: usize = 70;

/// `Objs`: a dictionary of `n` dictionaries, `(Objs at: i) at: #v` = `i`.
fn populate(gs: &GemStone, n: usize) {
    let mut dba = gs.login("system").unwrap();
    dba.run("Objs := Dictionary new").unwrap();
    for i in 0..n {
        dba.run(&format!("| d | d := Dictionary new. d at: #v put: {i}. Objs at: {i} put: d"))
            .unwrap();
    }
    dba.commit().unwrap();
}

fn value(s: &mut Session, i: usize) -> i64 {
    s.run(&format!("(Objs at: {i}) at: #v")).unwrap().as_int().unwrap()
}

fn set_value(s: &mut Session, i: usize, v: i64) {
    s.run(&format!("(Objs at: {i}) at: #v put: {v}")).unwrap();
}

fn faults(gs: &GemStone) -> u64 {
    gs.database().storage_stats().0.object_faults
}

/// Object reads made by the begin of `s`'s next transaction.
fn begin_rereads(gs: &GemStone, s: &mut Session) -> u64 {
    let before = faults(gs);
    s.run("nil").unwrap();
    faults(gs) - before
}

#[test]
fn begin_rereads_nothing_when_nothing_was_committed() {
    let gs = GemStone::in_memory();
    populate(&gs, 8);
    let mut a = gs.login("system").unwrap();
    for i in 0..8 {
        assert_eq!(value(&mut a, i), i as i64);
    }
    a.commit().unwrap();
    gs.database().set_object_cache_limit(Some(0));
    assert_eq!(begin_rereads(&gs, &mut a), 0, "no foreign commit, nothing to refresh");
    a.commit().unwrap();
    assert_eq!(begin_rereads(&gs, &mut a), 0, "nor after a read-only commit of its own");
    for i in 0..8 {
        assert_eq!(value(&mut a, i), i as i64);
    }
}

#[test]
fn begin_rereads_exactly_the_cached_objects_a_foreign_commit_changed() {
    let gs = GemStone::in_memory();
    populate(&gs, 8);
    let mut a = gs.login("system").unwrap();
    // A caches Objs and objects 0..4; 4..8 stay unread.
    for i in 0..4 {
        value(&mut a, i);
    }
    let oops: Vec<_> = (0..4).map(|i| a.run(&format!("Objs at: {i}")).unwrap()).collect();
    a.commit().unwrap();
    // B changes k = 4 objects, j = 2 of them cached by A.
    let mut b = gs.login("system").unwrap();
    for i in [2, 3, 6, 7] {
        set_value(&mut b, i, 100 + i as i64);
    }
    b.commit().unwrap();
    gs.database().set_object_cache_limit(Some(0));
    assert_eq!(begin_rereads(&gs, &mut a), 2, "the two cached objects B changed");
    gs.database().set_object_cache_limit(None);
    for i in 0..8 {
        let want = if [2, 3, 6, 7].contains(&i) { 100 + i as i64 } else { i as i64 };
        assert_eq!(value(&mut a, i), want, "object {i}");
    }
    for (i, oop) in oops.iter().enumerate() {
        assert_eq!(a.run(&format!("Objs at: {i}")).unwrap(), *oop, "session pointers stay stable");
    }
}

#[test]
fn idling_past_the_feed_horizon_falls_back_to_the_whole_workspace() {
    let gs = GemStone::in_memory();
    populate(&gs, 8);
    let mut a = gs.login("system").unwrap();
    for i in 0..8 {
        value(&mut a, i);
    }
    a.commit().unwrap();
    let mut b = gs.login("system").unwrap();
    set_value(&mut b, 5, 55);
    b.commit().unwrap();
    for round in 0..PAST_HORIZON {
        set_value(&mut b, 0, round as i64);
        b.commit().unwrap();
    }
    gs.database().set_object_cache_limit(Some(0));
    // Objs itself plus its eight members: everything A ever faulted.
    assert_eq!(begin_rereads(&gs, &mut a), 9, "beyond the horizon the whole workspace is re-read");
    assert_eq!(begin_rereads(&gs, &mut a), 0, "and only once: the session is current again");
    gs.database().set_object_cache_limit(None);
    assert_eq!(value(&mut a, 0), PAST_HORIZON as i64 - 1);
    assert_eq!(value(&mut a, 5), 55, "a change the feed has forgotten is still picked up");
    assert_eq!(value(&mut a, 1), 1);
}

#[test]
fn an_object_faulted_between_transactions_is_refreshed_forward_not_back() {
    let gs = GemStone::in_memory();
    populate(&gs, 2);
    let mut a = gs.login("system").unwrap();
    assert_eq!(value(&mut a, 0), 0);
    a.commit().unwrap();
    let mut b = gs.login("system").unwrap();
    b.run("Late := Dictionary new. Late at: #v put: 1").unwrap();
    set_value(&mut b, 0, 10);
    b.commit().unwrap();
    // Outside any transaction A faults Late at the newest committed time,
    // later than the time its other copies are current as of.
    let sym = a.intern("Late");
    let late = a.get_global(sym).expect("Late is committed");
    let late = a.swizzle(late).unwrap();
    b.run("Late at: #v put: 2").unwrap();
    b.commit().unwrap();
    assert_eq!(a.run("Late at: #v").unwrap().as_int(), Some(2));
    assert_eq!(a.run("Late").unwrap(), late, "the copy faulted early is the copy refreshed");
    assert_eq!(value(&mut a, 0), 10);
}

#[test]
fn own_commit_does_not_hide_a_foreign_commit_to_an_unread_cached_object() {
    let gs = GemStone::in_memory();
    populate(&gs, 2);
    let mut a = gs.login("system").unwrap();
    assert_eq!((value(&mut a, 0), value(&mut a, 1)), (0, 1));
    a.commit().unwrap();
    // A's writing transaction touches object 1 only; B commits object 0
    // while it is open. The two do not conflict.
    set_value(&mut a, 1, 11);
    let mut b = gs.login("system").unwrap();
    set_value(&mut b, 0, 10);
    b.commit().unwrap();
    a.commit().expect("disjoint objects");
    assert_eq!(value(&mut a, 0), 10, "B's commit predates A's own and must still be refreshed");
    assert_eq!(value(&mut a, 1), 11);
}

#[test]
fn a_refresh_that_cannot_reread_fails_the_statement_and_drops_the_workspace() {
    let dir = diag_dir("refresh-fault");
    std::fs::create_dir_all(&dir).unwrap();
    let cfg = StoreConfig { track_size: 1024, cache_tracks: 0, replicas: 1 };
    let gs = GemStone::create_file(dir.join("db.gem"), cfg).unwrap();
    populate(&gs, 2);
    let mut a = gs.login("system").unwrap();
    assert_eq!(value(&mut a, 0), 0);
    a.commit().unwrap();
    let mut b = gs.login("system").unwrap();
    set_value(&mut b, 0, 10);
    b.commit().unwrap();
    // Object 0 is evicted and the file refuses the next read: A's begin
    // cannot bring its copy up to date.
    gs.database().set_object_cache_limit(Some(0));
    gs.database().with_disk(|d| {
        d.replica_mut(0).set_fault_plan(FaultPlan {
            read_fault: Some(ReadFault { after_reads: 0, count: 1 }),
            ..FaultPlan::default()
        })
    });
    let aborts = gs.database().txn_counts().1;
    let err = a.run("(Objs at: 0) at: #v");
    assert!(
        !matches!(err, Ok(_) | Err(GemError::TransactionConflict { .. })),
        "the read error surfaces from the statement that opened the transaction: {err:?}"
    );
    assert_eq!(gs.database().txn_counts().1, aborts + 1, "the transaction was aborted");
    // The fault window has passed; the session starts over from an empty
    // workspace and sees the committed state, not the stale copy.
    assert_eq!(value(&mut a, 0), 10);
}

// ------------------------------------------------- differential property

const OBJECTS: usize = 5;
const SESSIONS: usize = 3;

#[derive(Debug, Clone)]
enum Step {
    /// Session reads `#v` of an object.
    Read(usize, usize),
    /// Session reads `#v` of an object's `#peer`.
    ReadPeer(usize, usize),
    /// Session writes `#v` of an object.
    Write(usize, usize, i64),
    /// Session points an object's `#peer` at another object.
    Link(usize, usize, usize),
    Commit(usize),
    Abort(usize),
    /// Enough foreign commits to push every session past the horizon.
    IdlePastHorizon,
}

fn step_strategy() -> impl Strategy<Value = Step> {
    let (s, o) = (0..SESSIONS, 0..OBJECTS);
    prop_oneof![
        (s.clone(), o.clone()).prop_map(|(s, o)| Step::Read(s, o)),
        (s.clone(), o.clone()).prop_map(|(s, o)| Step::ReadPeer(s, o)),
        (s.clone(), o.clone(), 0i64..1000).prop_map(|(s, o, v)| Step::Write(s, o, v)),
        (s.clone(), o.clone(), o).prop_map(|(s, o, p)| Step::Link(s, o, p)),
        s.clone().prop_map(Step::Commit),
        s.clone().prop_map(Step::Commit),
        s.prop_map(Step::Abort),
        Just(Step::IdlePastHorizon),
    ]
}

/// What one session shows of one object: its value and its peer's id.
fn observe(s: &mut Session, o: usize) -> (Option<i64>, Option<i64>) {
    let v = s.run(&format!("(Objs at: {o}) at: #v")).unwrap().as_int();
    let peer = s.run(&format!("((Objs at: {o}) at: #peer) at: #id")).unwrap().as_int();
    (v, peer)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Whenever a session is about to open a transaction, a begin of its
    /// own shows every object it has cached exactly as a fresh login — an
    /// empty workspace, every read a fault — shows it at that snapshot.
    #[test]
    fn refreshed_copies_equal_fresh_faults(steps in prop::collection::vec(step_strategy(), 1..40)) {
        let gs = GemStone::in_memory();
        let mut dba = gs.login("system").unwrap();
        dba.run("Objs := Dictionary new. Side := Dictionary new").unwrap();
        for o in 0..OBJECTS {
            dba.run(&format!(
                "| d | d := Dictionary new. d at: #id put: {o}. d at: #v put: {o}. Objs at: {o} put: d"
            )).unwrap();
        }
        for o in 0..OBJECTS {
            dba.run(&format!("(Objs at: {o}) at: #peer put: (Objs at: {})", (o + 1) % OBJECTS))
                .unwrap();
        }
        dba.commit().unwrap();
        let mut sessions: Vec<Session> =
            (0..SESSIONS).map(|_| gs.login("system").unwrap()).collect();
        let mut in_txn = [false; SESSIONS];
        let mut filler = 0;

        for step in &steps {
            let who = match step {
                Step::Read(s, _) | Step::ReadPeer(s, _) | Step::Write(s, ..) | Step::Link(s, ..)
                | Step::Commit(s) | Step::Abort(s) => Some(*s),
                Step::IdlePastHorizon => None,
            };
            if let Some(i) = who.filter(|i| !in_txn[*i]) {
                // A read-only transaction of its own: its begin refreshes,
                // its commit keeps the workspace, and the step's own begin
                // then finds the session already current.
                let mut fresh = gs.login("system").unwrap();
                for o in 0..OBJECTS {
                    prop_assert_eq!(
                        observe(&mut sessions[i], o),
                        observe(&mut fresh, o),
                        "session {} object {} before {:?}", i, o, step
                    );
                }
                sessions[i].commit().unwrap();
            }
            match step {
                Step::Read(s, o) => {
                    sessions[*s].run(&format!("(Objs at: {o}) at: #v")).unwrap();
                }
                Step::ReadPeer(s, o) => {
                    sessions[*s].run(&format!("((Objs at: {o}) at: #peer) at: #v")).unwrap();
                }
                Step::Write(s, o, v) => {
                    sessions[*s].run(&format!("(Objs at: {o}) at: #v put: {v}")).unwrap();
                }
                Step::Link(s, o, p) => {
                    sessions[*s]
                        .run(&format!("(Objs at: {o}) at: #peer put: (Objs at: {p})"))
                        .unwrap();
                }
                Step::Commit(s) => match sessions[*s].commit() {
                    Ok(_) | Err(GemError::TransactionConflict { .. }) => {}
                    Err(e) => prop_assert!(false, "commit failed: {e:?}"),
                },
                Step::Abort(s) => sessions[*s].abort(),
                Step::IdlePastHorizon => {
                    for _ in 0..PAST_HORIZON {
                        filler += 1;
                        dba.run(&format!("Side at: #n put: {filler}")).unwrap();
                        dba.commit().unwrap();
                    }
                }
            }
            if let Some(i) = who {
                in_txn[i] = !matches!(step, Step::Commit(_) | Step::Abort(_));
            }
        }
    }
}
