//! §6 authorization: users, segments, privilege checks on element access.

use gemstone::{Access, GemError, GemStone, Oop, SegmentId, Session};
use gemstone_calculus::{CmpOp, Pred, Query, Range, Term, VarId};
use gemstone_object::ElemName;
use gemstone_opal::OpalWorld;

#[test]
fn unknown_users_cannot_log_in() {
    let gs = GemStone::in_memory();
    assert!(gs.login("intruder").is_err());
    gs.create_user("ellen");
    assert!(gs.login("ellen").is_ok());
}

#[test]
fn segment_protection_blocks_reads_and_writes() {
    let gs = GemStone::in_memory();
    gs.create_user("ellen");

    // DBA creates a protected object.
    let mut dba = gs.login("system").unwrap();
    let seg = {
        let db = gs.database();
        let mut inner_seg = None;
        db.with_auth(|auth| inner_seg = Some(auth.create_segment()));
        inner_seg.unwrap()
    };
    dba.run("Secret := Dictionary new. Secret at: #code put: 1234").unwrap();
    let secret = dba.run("Secret").unwrap();
    dba.set_segment(secret, seg).unwrap();
    dba.commit().unwrap();

    // Ellen cannot read it.
    let mut ellen = gs.login("ellen").unwrap();
    let err = ellen.run("Secret at: #code");
    assert!(matches!(err, Err(GemError::AuthorizationDenied { .. })), "{err:?}");

    // Granted read, she can read but not write.
    gs.database().with_auth(|auth| auth.grant("ellen", seg, Access::Read).unwrap());
    ellen.abort();
    assert_eq!(ellen.run("Secret at: #code").unwrap().as_int(), Some(1234));
    let err = ellen.run("Secret at: #code put: 9");
    assert!(matches!(err, Err(GemError::AuthorizationDenied { .. })), "{err:?}");

    // Granted write, everything works.
    gs.database().with_auth(|auth| auth.grant("ellen", seg, Access::Write).unwrap());
    ellen.abort();
    ellen.run("Secret at: #code put: 9").unwrap();
    ellen.commit().unwrap();
    assert_eq!(ellen.run("Secret at: #code").unwrap().as_int(), Some(9));
}

#[test]
fn world_segment_is_open_to_all_users() {
    let gs = GemStone::in_memory();
    gs.create_user("bob");
    let mut dba = gs.login("system").unwrap();
    dba.run("Board := Dictionary new. Board at: #msg put: 'hello'").unwrap();
    dba.commit().unwrap();
    let mut bob = gs.login("bob").unwrap();
    assert_eq!(bob.run_display("Board at: #msg").unwrap(), "'hello'");
    bob.run("Board at: #msg put: 'hi'").unwrap();
    bob.commit().unwrap();
}

#[test]
fn dba_bypasses_segment_checks() {
    let gs = GemStone::in_memory();
    let mut dba = gs.login("system").unwrap();
    let seg = {
        let mut out = SegmentId(0);
        gs.database().with_auth(|auth| out = auth.create_segment());
        out
    };
    dba.run("S := Dictionary new").unwrap();
    let s = dba.run("S").unwrap();
    dba.set_segment(s, seg).unwrap();
    dba.commit().unwrap();
    assert!(dba.run("S at: #x put: 1").is_ok());
}

#[test]
fn segment_move_reaches_a_session_that_cached_the_object() {
    let gs = GemStone::in_memory();
    gs.create_user("ellen");
    let mut dba = gs.login("system").unwrap();
    let mut seg = SegmentId(0);
    gs.database().with_auth(|auth| seg = auth.create_segment());
    dba.run("Memo := Dictionary new. Memo at: #text put: 7").unwrap();
    dba.commit().unwrap();

    // Ellen reads the memo while it is world-readable and keeps her copy.
    let mut ellen = gs.login("ellen").unwrap();
    assert_eq!(ellen.run("Memo at: #text").unwrap().as_int(), Some(7));
    ellen.commit().unwrap();

    // The DBA moves it — and nothing else — to a segment she cannot read.
    let before = dba.run("System currentTime").unwrap().as_int();
    let memo = dba.run("Memo").unwrap();
    dba.set_segment(memo, seg).unwrap();
    dba.commit().unwrap();
    let after = dba.run("System currentTime").unwrap().as_int();
    assert!(after > before, "a segment-only commit consumes a transaction time");

    // Her next transaction — no abort, no fresh login — is refused.
    let err = ellen.run("Memo at: #text");
    assert!(matches!(err, Err(GemError::AuthorizationDenied { .. })), "{err:?}");
}

/// `{e!Salary | e ∈ Staff, e!Salary > 5}` in this session's handles.
fn staff_salaries(s: &mut Session) -> Query {
    let staff = s.intern("Staff");
    let salary = s.intern("Salary");
    let e = VarId(0);
    let path = Term::Path(e, vec![ElemName::Sym(salary)]);
    Query {
        result: vec![(salary, path.clone())],
        ranges: vec![Range { var: e, domain: Term::Const(s.get_global(staff).unwrap()) }],
        pred: Pred::Cmp(path, CmpOp::Gt, Term::Const(Oop::int(5))),
    }
}

/// A calculus scan reads its members' elements a column at a time. A member
/// the user has cached but can no longer read still refuses the query, and
/// a grant lets it through again.
#[test]
fn a_query_over_an_unreadable_member_is_refused() {
    let gs = GemStone::in_memory();
    gs.create_user("ellen");
    let mut dba = gs.login("system").unwrap();
    let mut seg = SegmentId(0);
    gs.database().with_auth(|auth| seg = auth.create_segment());
    dba.run(
        "| e | Staff := Set new. Boss := Dictionary new. Boss at: #Salary put: 90. \
         Staff add: Boss. e := Dictionary new. e at: #Salary put: 10. Staff add: e",
    )
    .unwrap();
    dba.commit().unwrap();

    // Ellen scans while everything is world-readable and keeps her copies.
    let mut ellen = gs.login("ellen").unwrap();
    let q = staff_salaries(&mut ellen);
    assert_eq!(ellen.query(&q).unwrap().len(), 2);
    ellen.commit().unwrap();

    let boss = dba.run("Boss").unwrap();
    dba.set_segment(boss, seg).unwrap();
    dba.commit().unwrap();
    let err = ellen.query(&q);
    assert!(matches!(err, Err(GemError::AuthorizationDenied { .. })), "{err:?}");

    gs.database().with_auth(|auth| auth.grant("ellen", seg, Access::Read).unwrap());
    ellen.abort();
    assert_eq!(ellen.query(&q).unwrap().len(), 2);
}
