//! Effect summaries at the session boundary: the shared per-database
//! summary cache invalidates on method (re)installation, summaries never
//! go stale across `add_method_code`, and transactions whose every
//! statement proves Pure/ReadOnly commit on the static fast path.

use gemstone::GemStone;

/// A callee re-install flips its callers' summaries ReadOnly →
/// WritesGlobal and back — the cache serves the *current* program, not
/// the one that existed when the summary was first computed.
#[test]
fn reinstall_flips_caller_summary_and_back() {
    let gs = GemStone::in_memory();
    let mut s = gs.login("system").unwrap();
    s.run("Object subclass: 'Probe' instVarNames: #()").unwrap();
    s.run("Probe compile: 'peek ^1'").unwrap();
    s.run("Probe compile: 'poll ^self peek'").unwrap();

    let before = s.metrics();
    let summary = s.method_effects("Probe", "poll").unwrap();
    assert!(summary.effect.is_read_only(), "fresh poll is read-only, got {}", summary.effect);
    assert!(summary.globals_written.is_empty());
    assert!(s.metrics().diff(&before).counter("opal.effects.computed") > 0);

    // Re-install the callee with a globally visible effect (a commit
    // through `System`): the cached caller summary must be dropped and
    // recomputed as WritesGlobal.
    let before = s.metrics();
    s.run("Probe compile: 'peek System commitTransaction. ^1'").unwrap();
    assert!(
        s.metrics().diff(&before).counter("opal.effects.invalidations") > 0,
        "re-install did not invalidate the summary cache"
    );
    let summary = s.method_effects("Probe", "poll").unwrap();
    assert_eq!(summary.effect.as_str(), "WritesGlobal", "stale summary survived re-install");

    // And back: restoring the pure callee restores the caller's verdict.
    s.run("Probe compile: 'peek ^1'").unwrap();
    let summary = s.method_effects("Probe", "poll").unwrap();
    assert!(
        summary.effect.is_read_only(),
        "summary did not recover after restoring the callee, got {}",
        summary.effect
    );
}

/// `add_method_code` (the raw install path, no `compile:` sugar) also
/// invalidates — no entry point may leave a stale summary behind.
#[test]
fn add_method_code_invalidates_cached_summaries() {
    let gs = GemStone::in_memory();
    let mut s = gs.login("system").unwrap();
    s.run("Object subclass: 'Raw' instVarNames: #()").unwrap();
    s.run("Raw compile: 'leaf ^7'").unwrap();
    let first = s.method_effects("Raw", "leaf").unwrap();
    assert!(first.effect.is_read_only());

    // Compiling a *doIt* goes through add_doit_code and must NOT
    // invalidate (doIts are never call-graph targets).
    let before = s.metrics();
    s.run("3 + 4").unwrap();
    assert_eq!(
        s.metrics().diff(&before).counter("opal.effects.invalidations"),
        0,
        "running a doIt needlessly flushed the summary cache"
    );

    // A real method install through the same raw path does invalidate,
    // and the follow-up query recomputes rather than serving stale state.
    let before = s.metrics();
    s.run("Raw compile: 'leaf ^OrderedCollection new'").unwrap();
    let diff = s.metrics().diff(&before);
    assert!(diff.counter("opal.effects.invalidations") > 0);
    let second = s.method_effects("Raw", "leaf").unwrap();
    assert_eq!(second.effect.as_str(), "WritesLocal");
}

/// The tentpole consumer: a transaction of statically-classified
/// read-only statements commits via the lock-free fast path (counted by
/// `opal.effects.static_ro_commits`); any write drops the transaction
/// back to the full path.
#[test]
fn static_read_only_transactions_take_the_fast_commit_path() {
    let gs = GemStone::in_memory();
    let mut s = gs.login("system").unwrap();
    s.run("Object subclass: 'Emp' instVarNames: #('salary')").unwrap();
    s.run(
        "Staff := OrderedCollection new.
         Staff add: (Emp new salary: 10; yourself).
         Staff add: (Emp new salary: 30; yourself)",
    )
    .unwrap();
    s.commit().unwrap();

    // Pure reads: every statement classifies read-only before running.
    let before = s.metrics();
    assert_eq!(s.run("Staff size").unwrap().as_int(), Some(2));
    s.run("3 + 4 * 2").unwrap();
    s.commit().unwrap();
    let diff = s.metrics().diff(&before);
    assert_eq!(diff.counter("opal.effects.static_ro_commits"), 1, "fast path not taken");
    assert!(diff.counter("opal.effects.stmts_static_ro") >= 2);
    assert!(diff.counter("opal.effects.stmts_classified") >= 2);

    // One write in the transaction clears the static flag: the commit
    // succeeds but on the full path.
    let before = s.metrics();
    s.run("Staff size").unwrap();
    s.run("Staff add: (Emp new salary: 99; yourself)").unwrap();
    s.commit().unwrap();
    assert_eq!(
        s.metrics().diff(&before).counter("opal.effects.static_ro_commits"),
        0,
        "a writing transaction slipped onto the read-only fast path"
    );
    assert_eq!(s.run("Staff size").unwrap().as_int(), Some(3));

    // The same from concurrent sessions, one read per transaction: every
    // statement is classified read-only before it runs, every commit takes
    // the fast path, none aborts, and no summary comes back Unknown.
    for (threads, ops) in [(1, 25), (2, 50), (4, 100)] {
        let before = s.metrics();
        std::thread::scope(|scope| {
            for _ in 0..threads {
                let mut t = gs.login("system").unwrap();
                scope.spawn(move || {
                    for _ in 0..25 {
                        assert_eq!(t.run("(Staff at: 1) salary").unwrap().as_int(), Some(10));
                        t.commit().expect("the fast path never conflicts");
                    }
                });
            }
        });
        let diff = s.metrics().diff(&before);
        for c in ["static_ro_commits", "stmts_static_ro", "stmts_classified"] {
            assert_eq!(diff.counter(&format!("opal.effects.{c}")), ops, "{c}, {threads} threads");
        }
        assert_eq!(diff.counter("opal.effects.unknown"), 0);
    }

    // Alternating read and write transactions: exactly the read half takes
    // the fast path — no writer leaks onto it, no reader misses it.
    let before = s.metrics();
    for i in 0..10 {
        let stmt = if i % 2 == 0 { "Staff size" } else { "Staff add: Emp new" };
        s.run(stmt).unwrap();
        s.commit().unwrap();
    }
    let diff = s.metrics().diff(&before);
    assert_eq!(diff.counter("opal.effects.static_ro_commits"), 5);
    assert_eq!(diff.counter("opal.effects.stmts_static_ro"), 5);
    assert_eq!(s.run("Staff size").unwrap().as_int(), Some(8), "the write half landed");
}
