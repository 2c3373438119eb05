//! Process-level durability: the ack is the promise.
//!
//! PR 8 satellite. The `durable_writer` helper binary appends commits to a
//! file-backed database and prints `ack <i>` only after each commit's root
//! page is fsynced. This harness SIGKILLs the writer at a random ack —
//! while the next commit is typically mid-write — drains every ack the
//! writer printed before it died, reopens the database in this process,
//! and asserts that every acknowledged commit survived and that nothing
//! partial is visible: the log is an exact `0..k` prefix with at most the
//! one in-flight commit beyond the last printed ack.
//!
//! The database lives under `target/durability/<test>-<pid>` so a failing
//! CI job uploads the file for post-mortem; on success the guard removes it.

mod common;
use common::scratch_dir;

use gemstone::GemStone;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Command, Stdio};

/// Run the writer asking for `commits` appends, SIGKILL it after reading
/// `kill_at` acks, then read its stdout to EOF. Returns the last ack the
/// writer printed: acks it printed between the `kill_at`-th and the kill
/// landing are promises too, so they are drained rather than left unread.
fn run_and_kill(db: &Path, commits: usize, kill_at: usize) -> i64 {
    let mut child = Command::new(env!("CARGO_BIN_EXE_durable_writer"))
        .arg(db)
        .arg(commits.to_string())
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn durable_writer");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut last_printed = -1i64;
    for (seen, line) in BufReader::new(stdout).lines().enumerate() {
        let line = line.expect("writer stdout");
        last_printed = line
            .strip_prefix("ack ")
            .unwrap_or_else(|| panic!("unexpected writer output: {line:?}"))
            .parse()
            .expect("ack value");
        if seen + 1 == kill_at {
            // `Child::kill` is SIGKILL on unix: no destructors, no flush —
            // the writer dies wherever it happens to be.
            child.kill().expect("SIGKILL writer");
        }
    }
    child.wait().expect("reap writer");
    last_printed
}

/// Reopen the database and assert every printed ack survived with nothing
/// partial. Returns the recovered log size.
fn assert_acked_prefix(db: &Path, last_printed: i64) -> i64 {
    let gs = GemStone::open_file(db, 64).expect("reopen after SIGKILL");
    let mut s = gs.login("system").expect("login");
    let k = s.run("Log size").expect("Log size").as_int().expect("integer");
    assert!(
        k > last_printed,
        "durability violation: last ack was {last_printed} but only {k} commits survived"
    );
    // Nothing phantom either: beyond the last printed ack at most the single
    // in-flight commit may have reached the disk before the kill landed.
    assert!(k <= last_printed + 2, "log size {k} vs last ack {last_printed}: impossible surplus");
    for j in 1..=k {
        let v = s.run(&format!("Log at: {j}")).expect("Log at:").as_int().expect("integer");
        assert_eq!(v, j - 1, "slot {j} holds a torn or reordered value");
    }
    k
}

/// SIGKILL the writer mid-stream twice — once against a fresh database and
/// once against the recovered one — and prove all acked commits survive.
#[test]
fn acked_commits_survive_sigkill() {
    let dir = scratch_dir("target/durability", "sigkill");
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let db = dir.join("kill.gem");
    let mut rng = StdRng::seed_from_u64(u64::from(std::process::id()));

    let kill_at = rng.gen_range(5usize..25);
    let acked = run_and_kill(&db, 40, kill_at);
    assert!(acked >= 0, "writer acked nothing before the kill point");
    let k = assert_acked_prefix(&db, acked);

    // Round 2: the recovered database keeps accepting commits where the
    // log left off, and survives a second kill.
    let kill_at2 = rng.gen_range(3usize..12);
    let acked2 = run_and_kill(&db, 40, kill_at2);
    assert!(acked2 >= k, "resumed writer continues from the recovered prefix");
    assert_acked_prefix(&db, acked2);
}

/// A writer allowed to run to completion leaves a database whose reopen
/// sees every commit — the no-crash baseline for the kill test above.
#[test]
fn uninterrupted_writer_round_trips() {
    let dir = scratch_dir("target/durability", "baseline");
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let db = dir.join("clean.gem");

    let acked = run_and_kill(&db, 12, usize::MAX);
    assert_eq!(acked, 11, "writer acked all 12 commits");
    let k = assert_acked_prefix(&db, acked);
    assert_eq!(k, 12);
}
