//! C-crash: the exhaustive crash-point matrix for the safe-write commit
//! protocol (§7), at two levels.
//!
//! The storage-level matrix enumerates every write of every commit of a
//! scripted ≥25-commit workload, torn at all six byte-offset classes, plus
//! a crash at every read of the recovery pass itself; each point reopens
//! the volume through `PermanentStore::open` and checks all-or-nothing
//! visibility, byte-identical committed history (including temporal
//! reads), newest-root recovery, report accuracy, and that the recovered
//! store accepts the retried commit. The full-system sweep drives the same
//! protocol through `Database::open` — OPAL sessions, schema metadata,
//! recompiled methods — for every write of a smaller workload.
//!
//! Any failing point is reported as a compact `CrashSchedule` token
//! (e.g. `c7.w3.hsum`) that `run_schedule` replays standalone, and the
//! full token list lands in `target/crash_matrix_failures.txt` so CI can
//! upload it as an artifact.

use gemstone::{FaultPlan, GemStone, IoRecord, StoreConfig, TearClass};
use gemstone_storage::crashpoint::{
    enumerate_matrix_on, run_schedule, CrashSchedule, MatrixBackend, Workload,
};

/// Workload size; the nightly workflow raises it via CRASH_MATRIX_COMMITS.
fn matrix_commits() -> usize {
    std::env::var("CRASH_MATRIX_COMMITS").ok().and_then(|v| v.parse().ok()).unwrap_or(25)
}

/// Which backend the matrix drives: `GEMSTONE_BACKEND=file` runs it
/// against real files (in `GEMSTONE_DB_DIR`, or a tmpdir), anything else
/// against the simulated disk. The CI `durability` job and the nightly
/// file-matrix tier set it; local `cargo test` stays in memory.
fn matrix_backend() -> MatrixBackend {
    match std::env::var("GEMSTONE_BACKEND").as_deref() {
        Ok("file") => {
            let dir = std::env::var("GEMSTONE_DB_DIR")
                .map(std::path::PathBuf::from)
                .unwrap_or_else(|_| {
                    std::env::temp_dir().join(format!("gemstone-matrix-{}", std::process::id()))
                });
            MatrixBackend::File { dir }
        }
        _ => MatrixBackend::Sim,
    }
}

#[test]
fn exhaustive_storage_crash_matrix() {
    let commits = matrix_commits();
    let backend = matrix_backend();
    let w = Workload::standard(commits);
    let report = enumerate_matrix_on(&w, &TearClass::ALL, &backend).expect("harness ran");
    eprintln!("crash matrix backend: {backend:?}");
    eprintln!(
        "crash matrix: {} commits, {} writes -> {} commit crash points, \
         {} recovery crash points, {} reopenings, longest log walk {} records, {} violations",
        report.commits,
        report.total_writes,
        report.commit_crash_points,
        report.recovery_crash_points,
        report.reopenings,
        report.max_log_records,
        report.violations.len(),
    );
    if !report.is_clean() {
        let lines: Vec<String> =
            report.violations.iter().map(|(tok, why)| format!("{tok}  {why}")).collect();
        let body = lines.join("\n");
        let _ = std::fs::create_dir_all("target");
        let _ = std::fs::write("target/crash_matrix_failures.txt", &body);
        panic!(
            "safe-write invariant violated at {} crash point(s); \
             repro each token with crashpoint::run_schedule:\n{body}",
            lines.len()
        );
    }
    assert_eq!(report.commits as usize, commits);
    assert!(
        report.total_writes >= 2 * report.commits as u64,
        "every commit writes at least one data track and the root"
    );
    assert_eq!(
        report.commit_crash_points,
        report.total_writes * TearClass::ALL.len() as u64,
        "every write torn at every class"
    );
    assert!(
        report.recovery_crash_points >= 2 * report.commits as u64,
        "recovery performs at least two reads per reopening, all interrupted"
    );
    assert!(report.reopenings > report.commit_crash_points, "each point recovers at least once");
    // Recovery replayed the location log somewhere (a walk of two or more
    // catalog records), and never the whole history: a page-out was
    // crossed, on whichever backend ran.
    assert!(
        (2..report.commits).contains(&report.max_log_records),
        "longest log walk {} records over {} commits",
        report.max_log_records,
        report.commits
    );
}

/// The physical write/fsync stream of real commits on the file backend:
/// each safe-write group must show data writes, a barrier, the root write,
/// and the ack barrier — in that order, twice per group, never more. The
/// full stream is printed when `GEMSTONE_FSYNC_TRACE=1` (the nightly
/// file-matrix tier enables it) so ordering regressions are visible in CI
/// logs even when the assertions still pass.
#[test]
fn file_backend_fsync_trace_shows_group_commit() {
    let dir = std::env::temp_dir().join(format!("gemstone-fsync-trace-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("trace.gem");
    let _ = std::fs::remove_file(&path);
    let cfg = StoreConfig { track_size: 1024, cache_tracks: 32, replicas: 1 };
    let gs = GemStone::create_file(&path, cfg).unwrap();
    let mut s = gs.login("system").unwrap();
    let verbose = std::env::var("GEMSTONE_FSYNC_TRACE").as_deref() == Ok("1");
    for (k, script) in
        ["Log := Dictionary new", "Log at: 1 put: 100", "Log at: 2 put: 'two'"].iter().enumerate()
    {
        gs.database().with_disk(|d| d.replica_mut(0).set_fault_plan(FaultPlan::trace()));
        s.run(script).unwrap();
        s.commit().unwrap();
        let trace = gs.database().with_disk(|d| d.replica_mut(0).take_io_trace());
        if verbose {
            eprintln!("commit {k}: {trace:?}");
        }
        let syncs = trace.iter().filter(|r| **r == IoRecord::Sync).count();
        assert_eq!(syncs, 2, "commit {k}: group commit is two barriers, got {trace:?}");
        assert_eq!(trace.last(), Some(&IoRecord::Sync), "commit {k}: ack barrier last");
        let data_sync = trace.iter().position(|r| *r == IoRecord::Sync).unwrap();
        let root_write = trace
            .iter()
            .position(|r| matches!(r, IoRecord::Write { track, .. } if track.0 < 2))
            .expect("a root-page write");
        assert!(
            data_sync < root_write,
            "commit {k}: root write before the data barrier: {trace:?}"
        );
    }
    drop(s);
    drop(gs);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn schedule_token_is_a_one_line_repro() {
    // The token printed on failure replays the identical crash standalone.
    // The six commits profile at 2, 2, 3, 3, 4, 2 writes (one extent plus
    // the root), so these name: the first data track of the metadata
    // commit, a middle track of the multi-track byte body, the root of
    // commit 5, and the root of commit 3 with its recovery crashed too.
    let w = Workload::standard(6);
    for token in ["c2.w0.clean", "c4.w2.hsum", "c5.w1.tail", "c3.w2.half.r1"] {
        let s: CrashSchedule = token.parse().expect(token);
        assert_eq!(s.to_string(), token, "token roundtrip");
        run_schedule(&w, &s).unwrap_or_else(|e| panic!("{token}: {e}"));
    }
}

/// The full-system sweep: every write of every commit of an OPAL workload
/// (globals, schema changes, object graphs) torn at two classes, recovered
/// through `Database::open` with its schema reload and method recompile.
#[test]
fn full_system_crash_sweep() {
    let cfg = StoreConfig { track_size: 1024, cache_tracks: 32, replicas: 1 };
    // Commit k's script; each leaves `Ledger` with k entries, so recovered
    // state is identifiable by a single query.
    let scripts = [
        "Ledger := Dictionary new",
        "Ledger at: 1 put: 100",
        "Object subclass: 'Acct' instVarNames: #('bal'). Ledger at: 2 put: 'two'",
        "| a | a := Acct new. a bal: 7. Ledger at: 3 put: a",
        "Ledger at: 1 put: 200. Ledger at: 4 put: 'four'",
    ];

    // Profile pass: run the workload once, tracing each commit's write
    // count and checkpointing the platter before each commit.
    let gs = GemStone::create(cfg).unwrap();
    let mut s = gs.login("system").unwrap();
    let mut checkpoints = Vec::new();
    let mut times = Vec::new();
    for script in &scripts {
        checkpoints.push(gs.database().with_disk(|d| d.checkpoint()).unwrap());
        s.run(script).unwrap();
        times.push(s.commit().unwrap());
    }
    // Telemetry satellite: every commit records its safe-write group size
    // (data tracks + root — always at least two tracks) in the histogram.
    let snap = gs.database().metrics_snapshot();
    let groups = snap.histogram("storage.commit.group_tracks").expect("group histogram");
    assert!(groups.count >= scripts.len() as u64, "one group recorded per commit");
    assert!(groups.min >= 2, "each safe-write group spans data and root tracks");
    drop(s);
    drop(gs);

    // Sweep: crash commit k at every write index, two tear classes each.
    // The write count is measured in the sweep's own context — a reopened
    // database replaying commit k with a tracing plan — so index i below
    // names exactly the i+1st write of the group being torn.
    let mut points = 0u64;
    for k in 1..scripts.len() {
        let writes = {
            let mut disk = checkpoints[k].checkpoint().unwrap();
            disk.replica_mut(0).revive();
            disk.replica_mut(0).set_fault_plan(FaultPlan::trace());
            let gs = GemStone::open(disk, 32).unwrap();
            let mut s = gs.login("system").unwrap();
            gs.database().with_disk(|d| {
                d.replica_mut(0).take_io_trace();
            });
            s.run(scripts[k]).unwrap();
            s.commit().unwrap();
            let trace = gs.database().with_disk(|d| d.replica_mut(0).take_io_trace());
            trace.iter().filter(|r| matches!(r, IoRecord::Write { .. })).count() as u64
        };
        assert!(writes >= 2, "commit {k} safe-writes data and a root");
        for write in 0..writes {
            for tear in [TearClass::Half, TearClass::HeaderSum] {
                points += 1;
                let ctx = format!("commit {k}, write {write}, {tear:?}");
                let mut disk = checkpoints[k].checkpoint().unwrap();
                disk.replica_mut(0).revive();
                let gs = GemStone::open(disk, 32).unwrap_or_else(|e| panic!("{ctx}: {e}"));
                let mut s = gs.login("system").unwrap();
                s.run(scripts[k]).unwrap();
                gs.database().with_disk(|d| {
                    d.replica_mut(0).set_fault_plan(FaultPlan {
                        crash_after_writes: Some(write),
                        tear,
                        ..FaultPlan::default()
                    })
                });
                assert!(s.commit().is_err(), "{ctx}: commit must not survive the crash");
                drop(s);
                let mut disk = gs.shutdown().unwrap();
                disk.replica_mut(0).revive();

                let gs2 = GemStone::open(disk, 32).unwrap_or_else(|e| panic!("{ctx}: {e}"));
                let mut s2 = gs2.login("system").unwrap();
                // All-or-nothing: k entries before the crash; the commit may
                // only have landed if its final (root) write was the torn one.
                let size = s2.run("Ledger size").unwrap().as_int().unwrap() as u64;
                let committed = if size == k as u64 - 1 {
                    false
                } else if size == k as u64 && write == writes - 1 {
                    true
                } else {
                    panic!("{ctx}: recovered {size} entries, expected {}", k - 1);
                };
                let c = if committed { k + 1 } else { k };
                if c >= 3 {
                    assert_eq!(s2.run_display("Ledger at: 2").unwrap(), "'two'", "{ctx}");
                    assert!(
                        s2.run("Acct new").is_ok(),
                        "{ctx}: recovered schema instantiates Acct"
                    );
                }
                if c >= 4 {
                    assert_eq!(s2.run("(Ledger at: 3) bal").unwrap().as_int(), Some(7), "{ctx}");
                }
                let want_v1 = if c >= 5 { 200 } else { 100 };
                if c >= 2 {
                    assert_eq!(s2.run("Ledger at: 1").unwrap().as_int(), Some(want_v1), "{ctx}");
                }
                // Temporal reads over recovered history.
                for (j, &t) in times.iter().enumerate().take(c - 1).skip(1) {
                    s2.set_time_dial(t);
                    assert_eq!(
                        s2.run("Ledger size").unwrap().as_int(),
                        Some(j as i64),
                        "{ctx}: state at commit {j}"
                    );
                }
                s2.time_dial_now();
                // The recovery report is observable at session level and
                // consistent with what the crash left behind.
                let rep = s2.recovery_report();
                assert_eq!(rep.roots_considered, 2, "{ctx}");
                assert!(rep.roots_valid >= 1, "{ctx}");
                assert!(rep.reopen_reads > 0, "{ctx}");
                if !committed && write >= 1 {
                    assert!(
                        rep.tracks_discarded >= 1,
                        "{ctx}: the torn commit's shadow tracks are orphans"
                    );
                }
                // The registry gauges are a thin view over the same report,
                // and the post-recovery faults filled the cache read-through.
                let snap = s2.metrics();
                assert_eq!(
                    snap.gauge("storage.recovery.roots_considered"),
                    rep.roots_considered as i64,
                    "{ctx}"
                );
                assert_eq!(
                    snap.gauge("storage.recovery.roots_torn"),
                    rep.roots_torn as i64,
                    "{ctx}"
                );
                assert_eq!(
                    snap.gauge("storage.recovery.tracks_discarded"),
                    rep.tracks_discarded as i64,
                    "{ctx}"
                );
                assert!(
                    snap.counter("storage.cache.fills_read") > 0,
                    "{ctx}: recovered reads are read-through fills"
                );
            }
        }
    }
    eprintln!("full-system sweep: {points} crash points across {} commits", scripts.len() - 1);
    assert!(points >= 2 * (scripts.len() as u64 - 1) * 2, "swept every write, two tears each");
}
