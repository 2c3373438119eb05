//! The repo benchmark: one OPAL-transaction benchmark on a `FileDisk`
//! database, four named workloads, every answer checked against a shadow
//! model, and a per-layer time budget measured from outside the program.
//!
//! ```sh
//! cargo run --release -- --workload hot_stmt --seed 1984 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object
//! `{correct, attempted, failed, metrics}`; everything meant for people goes
//! to standard error. `README.md` says why each workload exists and what
//! each metric means.

mod client;
mod db;
mod model;
mod probes;
mod repeat;
mod report;
mod rng;
mod stats;
mod trace;
mod workload;

use client::{Client, Samples, Tracer};
use db::{err, Fallible};
use gemstone::{GemStone, MetricsSnapshot};
use model::{Accounts, Shadow, VALUE_BYTES};
use probes::SessionProbes;
use report::Metric;
use stats::{median, Windows};
use std::path::{Path, PathBuf};
use std::sync::Barrier;
use std::time::{Duration, Instant};
use workload::{Generator, OpKind, Spec};

/// Latency and throughput figures are the trimmed mean of this many windows.
const WINDOWS: usize = 5;
/// Set-ups per run; `setup_s` is their median. At least three; a small
/// database is set up more often, up to nine times or until
/// `SETUP_BUDGET_S` is spent, because its set-up time is noisier.
const SETUPS: usize = 3;
const MAX_SETUPS: usize = 9;
const SETUP_BUDGET_S: f64 = 2.5;
/// Close/reopen cycles per run; `reopen_ms` is their median. At least five,
/// then as many as fit in `REOPEN_BUDGET_S`: a reopen takes a few ms on the
/// small databases, and the machine's speed wanders on a scale of seconds.
const REOPENS: usize = 5;
const REOPEN_BUDGET_S: f64 = 1.5;
/// Untimed transactions each client runs before the first timed phase.
const WARM_OPS: usize = 200;
const DEFAULT_SEED: u64 = 1984;
const DEFAULT_SECONDS: f64 = 6.0;

pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub repeat: usize,
    pub quick: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: gemstone-benchmark [--workload hot_stmt|query_scan|commit_durable|cold_mixed] \
         [--seed N] [--seconds S] [--trace 0|1] [--repeat K] [--quick]\n\
         Without --workload every workload runs, plain then traced, each in a process of its own."
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut a = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        repeat: 1,
        quick: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => a.workload = Some(value()),
            "--seed" => a.seed = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => a.seconds = value().parse().unwrap_or_else(|_| usage()),
            "--trace" => a.trace = value() == "1",
            "--repeat" => a.repeat = value().parse().unwrap_or_else(|_| usage()),
            "--quick" => a.quick = true,
            _ => usage(),
        }
    }
    if !(a.seconds > 0.0 && a.seconds <= 60.0) || a.repeat == 0 {
        usage();
    }
    a
}

/// `benchmark/out` whether run from the repository root or from
/// `benchmark/`: trace files and the scratch databases live there, inside
/// the checkout.
fn out_dir() -> PathBuf {
    if Path::new("benchmark/Cargo.toml").exists() {
        PathBuf::from("benchmark/out")
    } else {
        PathBuf::from("out")
    }
}

fn peak_rss_mb() -> Fallible<f64> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(err("/proc/self/status"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Whether a repeated measurement (set-up, reopen) wants another sample:
/// always one, `at_least` unless `--quick`, then more while they are cheap —
/// up to `at_most` samples or `budget` (in the samples' own unit) spent.
fn wants_another(
    samples: &[f64],
    quick: bool,
    at_least: usize,
    at_most: usize,
    budget: f64,
) -> bool {
    samples.is_empty()
        || (!quick
            && (samples.len() < at_least
                || (samples.len() < at_most && samples.iter().sum::<f64>() < budget)))
}

fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

struct Phase {
    dur: Duration,
    traced: bool,
}

/// What one client thread hands back.
struct ClientOut {
    phases: Vec<(Samples, Option<Tracer>)>,
    accounts: Accounts,
    /// Element values stored since the database was opened.
    values_written: u64,
    probes: Option<(SessionProbes, Tracer)>,
}

/// A harness failure inside a client thread (login or warm-up) cannot be
/// returned without stranding the other threads at a barrier.
fn fatal(why: String) -> ! {
    eprintln!("benchmark: {why}");
    std::process::exit(1)
}

/// All clients and the main thread meet twice at every phase boundary; the
/// main thread reads the counters between the two meetings, while no
/// client is running.
fn boundary(sync: &Barrier) {
    sync.wait();
    sync.wait();
}

fn client_thread(
    gs: &GemStone,
    spec: &Spec,
    gen: Generator,
    phases: &[Phase],
    sync: &Barrier,
    traced: bool,
    runs_probes: bool,
) -> ClientOut {
    let has_queries = spec
        .block
        .iter()
        .any(|(k, _)| matches!(k, OpKind::ScanQuery | OpKind::IndexQuery | OpKind::JoinQuery));
    let mut c = Client::new(gs, spec, gen).unwrap_or_else(|e| fatal(e));
    c.touch_working_set(has_queries).unwrap_or_else(|e| fatal(e));
    let epoch = Instant::now();
    let evictions = gs.telemetry().registry.counter("storage.cache.evictions");
    let mut warmed = 0;
    // A bounded track cache must be full, and evicting, before timing starts.
    while warmed < WARM_OPS
        || (spec.cache_fraction.is_some() && evictions.get() == 0 && warmed < 100 * WARM_OPS)
    {
        let op = c.gen.next_op();
        c.run_op(&op, epoch, None);
        warmed += 1;
    }
    let warm = std::mem::take(&mut c.samples);
    if let Some(why) = warm.first_failure {
        fatal(format!("warm-up transaction failed: {why}"));
    }
    let mut values_written = warm.values_written;
    let mut out = Vec::new();
    for ph in phases {
        boundary(sync);
        let mut tracer = ph.traced.then(Tracer::default);
        let epoch = Instant::now();
        while epoch.elapsed() < ph.dur {
            let op = c.gen.next_op();
            c.run_op(&op, epoch, tracer.as_mut());
        }
        values_written += c.samples.values_written;
        out.push((std::mem::take(&mut c.samples), tracer));
    }
    boundary(sync);
    let mut probes = None;
    if runs_probes {
        let mut tracer = Tracer::default();
        let p = probes::session_probes(&mut c, &mut tracer, gs).unwrap_or_else(|e| fatal(e));
        if let Some(why) = &c.samples.first_failure {
            fatal(format!("probe transaction failed: {why}"));
        }
        values_written += c.samples.values_written;
        probes = Some((p, tracer));
    }
    if traced {
        // The main thread reads the counters once more, after the probes.
        boundary(sync);
    }
    ClientOut { phases: out, accounts: c.gen.accounts, values_written, probes }
}

/// Everything measured in one run of one workload.
pub struct Run<'a> {
    pub spec: &'a Spec,
    pub clients: usize,
    pub setup_s: f64,
    pub built: db::Built,
    pub setup_values: u64,
    /// One per phase, clients merged.
    pub phases: Vec<(Samples, Option<Tracer>, Duration)>,
    /// Counter snapshots at each phase boundary (`phases.len() + 1`, plus
    /// one after the probes in a traced run).
    pub snaps: Vec<MetricsSnapshot>,
    pub values_written: u64,
    pub tracks_at_end: u64,
    pub reopen_ms: f64,
    pub reopen_reads: u64,
    pub peak_rss_mb: f64,
    pub probes: Option<(SessionProbes, Tracer)>,
    pub store: Option<probes::StoreProbe>,
    pub disk: Option<probes::DiskProbe>,
    pub txn_begin_commit_us: f64,
    pub calibration_ns: f64,
    pub failures: Vec<String>,
}

fn run_workload<'a>(spec: &'a Spec, args: &Args, dir: &Path) -> Fallible<Run<'a>> {
    std::fs::create_dir_all(dir).map_err(err("create scratch directory"))?;
    let path = dir.join("db.gem");
    let mut failures = Vec::new();

    // Set-up: create + populate + close, several times; the last is used.
    let mut setup_times: Vec<f64> = Vec::new();
    let mut last = None;
    while wants_another(&setup_times, args.quick, SETUPS, MAX_SETUPS, SETUP_BUDGET_S) {
        if path.exists() {
            std::fs::remove_file(&path).map_err(err("remove database"))?;
        }
        let mut shadow = Shadow::generate(spec.accounts, spec.employees, args.seed);
        let t = Instant::now();
        let built = db::build(&path, &mut shadow)?;
        setup_times.push(t.elapsed().as_secs_f64());
        last = Some((shadow, built));
    }
    let (mut shadow, built) = last.expect("at least one set-up");
    let setup_values = shadow.setup_values_written();

    let clients = spec.clients.min(cores());
    let phases: Vec<Phase> = if args.trace {
        // A plain slice first, so the traced slice's overhead is on record.
        vec![
            Phase { dur: Duration::from_secs_f64(args.seconds * 0.25), traced: false },
            Phase { dur: Duration::from_secs_f64(args.seconds * 0.75), traced: true },
        ]
    } else {
        vec![Phase { dur: Duration::from_secs_f64(args.seconds), traced: false }]
    };

    let gs = db::open(&path, spec, &built)?;
    let registry = gs.telemetry().registry.clone();
    let sync = Barrier::new(clients + 1);
    let mut snaps = Vec::new();
    let parts = shadow.accounts.clone().split(clients);
    let outs: Vec<ClientOut> = std::thread::scope(|scope| {
        let handles: Vec<_> = parts
            .into_iter()
            .enumerate()
            .map(|(i, part)| {
                let gen =
                    Generator::new(spec, args.seed, i, part, &shadow.staff, &shadow.round_ticks);
                let (gs, phases, sync) = (&gs, &phases, &sync);
                let (traced, runs_probes) = (args.trace, args.trace && i == 0);
                scope.spawn(move || client_thread(gs, spec, gen, phases, sync, traced, runs_probes))
            })
            .collect();
        for _ in 0..phases.len() + 1 + usize::from(args.trace) {
            sync.wait();
            snaps.push(registry.snapshot());
            sync.wait();
        }
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });

    let mut merged: Vec<(Samples, Option<Tracer>, Duration)> =
        phases.iter().map(|p| (Samples::default(), None, p.dur)).collect();
    let (mut parts, mut values_written, mut probes) = (Vec::new(), 0, None);
    for out in outs {
        for ((samples, tracer), slot) in out.phases.into_iter().zip(&mut merged) {
            slot.0.merge(samples);
            match (&mut slot.1, tracer) {
                (Some(all), Some(t)) => all.merge(t),
                (first @ None, t) => *first = t,
                (Some(_), None) => {}
            }
        }
        parts.push(out.accounts);
        values_written += out.values_written;
        probes = probes.or(out.probes);
    }
    shadow.accounts = Accounts::join(parts);
    for (samples, _, _) in &merged {
        if let Some(why) = &samples.first_failure {
            failures.push(format!(
                "{} of {} transactions failed, first: {why}",
                samples.failed, samples.attempted
            ));
        }
    }
    let tracks_at_end = gs.database().with_disk(|d| d.replica_mut(0).tracks_in_use()) as u64;
    drop(gs);

    // Durability: drop the database, reopen from the file, and every
    // acknowledged commit must be there exactly.
    let mut reopen_times: Vec<f64> = Vec::new();
    let mut reopened = None;
    while wants_another(&reopen_times, args.quick, REOPENS, usize::MAX, REOPEN_BUDGET_S * 1e3) {
        drop(reopened.take());
        let t = Instant::now();
        let gs = db::open(&path, spec, &built)?;
        let mut s = gs.login("system").map_err(err("login"))?;
        let first = s.run("((Accounts at: 0) at: 0) ! bal").map_err(err("first statement"))?;
        reopen_times.push(t.elapsed().as_secs_f64() * 1e3);
        if first.as_int() != Some(shadow.accounts.bal(0)) {
            failures.push(format!("after reopen account 0 reads {first:?}"));
        }
        drop(s);
        reopened = Some(gs);
    }
    let gs = reopened.expect("at least one reopen");
    let reopen_reads = gs.database().recovery_report().reopen_reads;
    // The store probe wants objects no one has faulted in yet.
    let store = if args.trace {
        Some(probes::store_probe(&gs, db::cache_sizes(spec, &built).1)?)
    } else {
        None
    };
    if let Err(why) = db::verify(&gs, &shadow) {
        failures.push(format!("durability check: {why}"));
    }
    drop(gs);

    let (disk, txn_begin_commit_us, calibration_ns) = if args.trace {
        (Some(probes::disk_probe(dir)?), probes::txn_probe()?, probes::calibration_ns())
    } else {
        (None, 0.0, 0.0)
    };

    Ok(Run {
        spec,
        clients,
        setup_s: median(&mut setup_times),
        built,
        setup_values,
        phases: merged,
        snaps,
        values_written,
        tracks_at_end,
        reopen_ms: median(&mut reopen_times),
        reopen_reads,
        peak_rss_mb: peak_rss_mb()?,
        probes,
        store,
        disk,
        txn_begin_commit_us,
        calibration_ns,
        failures,
    })
}

/// End-to-end metrics of the plain phase (phase 0).
fn end_to_end(run: &Run) -> Fallible<Vec<Metric>> {
    let (s, _, dur) = &run.phases[0];
    let w = Windows::new(dur.as_nanos() as u64, WINDOWS);
    let q = |samples: &[(u64, f64)], p: f64, what: &str| {
        w.quantile(samples, p).ok_or_else(|| format!("no {what} sample in the timed phase"))
    };
    // Whether the phase was stationary is worth a glance: a drift across
    // windows means the workload ages the database as it runs.
    let per_window: Vec<String> = w
        .split(&s.txn)
        .iter()
        .map(|win| format!("{:.0}", win.len() as f64 * 1e9 / w.len_ns as f64))
        .collect();
    eprintln!("  txn/s by window: {}", per_window.join(" "));
    // Amplification of what this workload writes; of building its database
    // if it writes nothing.
    let (user_bytes, file_bytes, written_bytes) = if run.values_written > 0 {
        let last = run.snaps.last().expect("boundary snapshots");
        (
            run.values_written * VALUE_BYTES,
            (run.tracks_at_end - run.built.tracks) * db::TRACK_SIZE as u64,
            last.counter("storage.disk.bytes_written"),
        )
    } else {
        (
            run.setup_values * VALUE_BYTES,
            run.built.tracks * db::TRACK_SIZE as u64,
            run.built.bytes_written,
        )
    };
    Ok(vec![
        Metric::new("txn_per_s", w.rate_per_s(&s.txn), "1/s"),
        Metric::new("txn_p50_us", q(&s.txn, 0.50, "transaction")?, "us"),
        Metric::new("txn_p95_us", q(&s.txn, 0.95, "transaction")?, "us"),
        Metric::new("stmt_p50_us", q(&s.stmt, 0.50, "statement")?, "us"),
        Metric::new("commit_p50_us", q(&s.commit, 0.50, "commit")?, "us"),
        Metric::new("commit_p95_us", q(&s.commit, 0.95, "commit")?, "us"),
        Metric::new("reopen_ms", run.reopen_ms, "ms"),
        Metric::new("space_amp", file_bytes as f64 / user_bytes as f64, "ratio"),
        Metric::new("write_amp", written_bytes as f64 / user_bytes as f64, "ratio"),
        Metric::new("peak_rss_mb", run.peak_rss_mb, "MiB"),
        Metric::new("setup_s", run.setup_s, "s"),
    ])
}

/// Each workload must provably stay on its side of the mechanisms it is
/// there to exercise or to bypass.
fn purity(run: &Run) -> Vec<String> {
    let d = run.snaps[1].diff(&run.snaps[0]);
    let mut broken = Vec::new();
    let mut must_be_zero = |name: &str| {
        if d.counter(name) != 0 {
            broken.push(format!(
                "{}: {name} moved by {} in the timed phase",
                run.spec.name,
                d.counter(name)
            ));
        }
    };
    match run.spec.name {
        "hot_stmt" | "query_scan" => {
            must_be_zero("storage.disk.reads");
            must_be_zero("storage.disk.fsyncs");
        }
        "commit_durable" => {
            must_be_zero("calculus.rows_scanned");
            must_be_zero("calculus.index_rows");
        }
        "cold_mixed" => {
            let (hits, misses) =
                (d.counter("storage.cache.hits"), d.counter("storage.cache.misses"));
            let share = hits as f64 / (hits + misses).max(1) as f64;
            if share > 0.9 {
                broken
                    .push(format!("cold_mixed: track-cache hit share {share:.3} — no longer cold"));
            }
        }
        _ => {}
    }
    broken
}

fn run_one(spec: &Spec, args: &Args) -> i32 {
    let dir = out_dir().join(format!("tmp-{}-{}", spec.name, std::process::id()));
    let mut run = match run_workload(spec, args, &dir) {
        Ok(run) => run,
        Err(why) => {
            eprintln!("benchmark: {why} (scratch files kept in {})", dir.display());
            return 1;
        }
    };
    let mut failures = std::mem::take(&mut run.failures);
    failures.extend(purity(&run));
    let metrics = if args.trace {
        report::per_layer(&run, &out_dir()).map(|(metrics, budget)| {
            eprint!("{}", budget.render(spec.name));
            // A warning, not a failure: the shares are what is being
            // measured, and a later change is free to move them.
            if let Some(short) = report::budget_shortfall(spec.name, &budget) {
                eprintln!("benchmark: warning: {short}");
            }
            metrics
        })
    } else {
        end_to_end(&run)
    };
    let metrics = match metrics {
        Ok(m) => m,
        Err(why) => {
            eprintln!("benchmark: {why} (scratch files kept in {})", dir.display());
            return 1;
        }
    };
    let (attempted, failed) =
        run.phases.iter().fold((0, 0), |(a, f), (s, _, _)| (a + s.attempted, f + s.failed));
    for why in &failures {
        eprintln!("benchmark: FAILED {why}");
    }
    eprintln!(
        "{}: seed {}, {} s, {} client(s) on {} core(s){}{}",
        spec.name,
        args.seed,
        args.seconds,
        run.clients,
        cores(),
        if args.trace { ", traced" } else { "" },
        if args.quick { ", --quick: figures not comparable" } else { "" },
    );
    for m in &metrics {
        eprintln!("  {:<44} {:>16.4} {}", m.name, m.value, m.unit);
    }
    let correct = failures.is_empty();
    if correct {
        // Kept on failure, for the post-mortem.
        let _ = std::fs::remove_dir_all(&dir);
    } else {
        eprintln!("benchmark: scratch files kept in {}", dir.display());
    }
    println!("{}", report::result_line(correct, attempted, failed, &metrics));
    i32::from(!correct)
}

fn main() {
    let mut args = parse_args();
    if args.quick {
        // A twentieth of the measuring time, one set-up, one reopen.
        args.seconds = args.seconds.min(DEFAULT_SECONDS / 20.0);
    }
    let code = match (&args.workload, args.repeat) {
        (Some(name), 1) => match workload::spec_named(name) {
            Some(spec) => run_one(spec, &args),
            None => usage(),
        },
        _ => repeat::run_children(&args),
    };
    std::process::exit(code)
}
