//! Turning a run into named metrics: the per-layer figures and budget of a
//! traced run, and the result line.

use crate::client::BEGIN_LAYER;
use crate::db::{err, Fallible};
use crate::trace::{Budget, BudgetRow, Trace};
use crate::workload::StmtKind;
use crate::Run;
use gemstone::MetricsSnapshot;
use std::path::Path;

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

/// The end-to-end metric names, in output order (`BENCHMARK.json` lists the
/// same; a unit test keeps the two in step).
#[cfg(test)]
pub const END_TO_END: [&str; 11] = [
    "txn_per_s",
    "txn_p50_us",
    "txn_p95_us",
    "stmt_p50_us",
    "commit_p50_us",
    "commit_p95_us",
    "reopen_ms",
    "space_amp",
    "write_amp",
    "peak_rss_mb",
    "setup_s",
];

/// The one line the driver reads.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_num(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        body.join(", ")
    )
}

/// Every digit that was measured; JSON has no NaN or infinity.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn hist_mean(d: &MetricsSnapshot, name: &str) -> f64 {
    d.histogram(name).map_or(0.0, |h| h.mean())
}

fn hist_sum(d: &MetricsSnapshot, name: &str) -> f64 {
    d.histogram(name).map_or(0.0, |h| h.sum as f64)
}

const FRONT_END: [&str; 5] =
    ["opal.lexer", "opal.parser", "opal.compiler", "opal.verify", "opal.effects"];
const QUERY_CALLS: [&str; 3] = ["session.query.scan", "session.query.index", "session.query.join"];

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

fn sum_self(t: &Trace, layers: &[&str]) -> u64 {
    layers.iter().map(|l| t.self_ns(l)).sum()
}

fn sum_count(t: &Trace, layers: &[&str]) -> u64 {
    layers.iter().map(|l| t.count(l)).sum()
}

/// The `Session::run` call layers `t` has spans of (one per statement kind).
fn run_layers(t: &Trace) -> Vec<&'static str> {
    t.layers.keys().copied().filter(|l| l.starts_with("session.run.")).collect()
}

/// Unit costs the budget prices counted events with.
struct UnitCosts {
    /// One object fault whose tracks are cached.
    fault_us: f64,
    /// One track-cache miss: read, checksum, fill.
    track_miss_us: f64,
    ns_per_dispatch: f64,
}

/// The per-layer budget of the traced phase. Spans give the wall time of
/// every harness call; replays give the front-end stages; what happens
/// inside `Session::run` and `Session::commit` beyond that is priced from
/// counters (the program's own commit-phase timers) or modelled as a count
/// times a probed unit cost, and never allowed to exceed the residual it is
/// carved from — so the rows always add up to the transaction wall time.
fn budget(t: &Trace, d: &MetricsSnapshot, unit: &UnitCosts) -> Budget {
    let n = t.txns.max(1) as f64;
    let per_txn = |x: f64| x / n;
    let mut rows = Vec::new();
    let mut row = |layer, us_total: f64, count: f64, how| {
        rows.push(BudgetRow { layer, us_per_txn: per_txn(us_total), per_txn: per_txn(count), how });
    };
    for layer in FRONT_END {
        row(layer, us(t.self_ns(layer)), t.count(layer) as f64, "replay");
    }
    row(
        "calculus.translate",
        us(t.self_ns("calculus.translate")),
        t.count("calculus.translate") as f64,
        "replay",
    );

    // Inside the statement calls: what is left after the replayed stages.
    let query_resid = us(sum_self(t, &QUERY_CALLS));
    let run_layers = run_layers(t);
    let other_resid = us(sum_self(t, &run_layers));
    let faults = d.counter("storage.store.object_faults") as f64;
    let reads = d.counter("storage.disk.reads") as f64;
    let dispatches = d.counter("opal.interp.dispatches") as f64;
    // Faults happen in the begin's refresh as well as in the statements.
    let begin_us = us(t.self_ns(BEGIN_LAYER));
    let resid = begin_us + query_resid + other_resid;
    let want_store = faults * unit.fault_us;
    let want_disk = reads * unit.track_miss_us;
    let scale = ratio(resid, want_store + want_disk).min(1.0);
    let (store_us, disk_read_us) = (want_store * scale, want_disk * scale);
    let keep = 1.0 - ratio(store_us + disk_read_us, resid);
    let (begin_us, query_resid, other_resid) =
        (begin_us * keep, query_resid * keep, other_resid * keep);
    let interp_us = (dispatches * unit.ns_per_dispatch / 1e3).min(other_resid);
    row(BEGIN_LAYER, begin_us, t.count(BEGIN_LAYER) as f64, "span");
    row("opal.interp", interp_us, dispatches, "model");
    row("calculus.algebra", query_resid, sum_count(t, &QUERY_CALLS) as f64, "span");
    row("session.execute", other_resid - interp_us, sum_count(t, &run_layers) as f64, "span");
    row("session.login", us(t.self_ns("session.login")), t.count("session.login") as f64, "span");
    row("storage.store", store_us, faults, "model");
    row("storage.track_miss", disk_read_us, reads, "model");

    // Inside commit: the program's own phase timers, then the rest
    // (building deltas, boxing them into tracks, directory upkeep).
    let commit_us = us(t.self_ns("session.commit"));
    let want_txn =
        hist_sum(d, "commit.phase.validation_us") + hist_sum(d, "commit.phase.publish_us");
    let want_write = hist_sum(d, "commit.phase.safe_write_us");
    let commit_scale = ratio(commit_us, want_txn + want_write).min(1.0);
    let (txn_us, write_us) = (want_txn * commit_scale, want_write * commit_scale);
    let commits = d.counter("storage.store.commits") as f64;
    row("txn.validate_publish", txn_us, commits, "counter");
    row(
        "storage.file_disk.write_sync",
        write_us,
        d.counter("storage.disk.writes") as f64,
        "counter",
    );
    row("session.commit", commit_us - txn_us - write_us, t.count("session.commit") as f64, "span");

    Budget {
        txn_us: per_txn(us(t.wall_ns)),
        rows,
        unattributed_us: per_txn(us(t.self_ns("harness.txn"))),
    }
}

/// The layers each workload exists to load must be where its time goes.
pub fn budget_shortfall(workload: &str, b: &Budget) -> Option<String> {
    let (what, share) = match workload {
        "hot_stmt" => ("opal.* + session.*", b.share(&["opal.", "session."])),
        "query_scan" => ("calculus.*", b.share(&["calculus."])),
        "commit_durable" => {
            ("session.commit + txn.* + storage.*", b.share(&["session.commit", "txn.", "storage."]))
        }
        "cold_mixed" => ("storage.*", b.share(&["storage."])),
        _ => return None,
    };
    (share < 0.5).then(|| {
        format!("{workload}: {what} is {:.1} % of the transaction, under half", 100.0 * share)
    })
}

/// Per-layer metrics of a traced run (phase 0 plain, phase 1 traced, then
/// probes), plus the budget table. Writes the trace file.
pub fn per_layer(run: &Run, out: &Path) -> Fallible<(Vec<Metric>, Budget)> {
    let missing = |what: &str| format!("traced run without {what}");
    let (plain, _, plain_dur) = &run.phases[0];
    let (traced, tracer, traced_dur) = &run.phases[1];
    let tracer = tracer.as_ref().ok_or_else(|| missing("a tracer"))?;
    let t = &tracer.trace;
    let (probes, probe_tracer) = run.probes.as_ref().ok_or_else(|| missing("session probes"))?;
    let pt = &probe_tracer.trace;
    let store = run.store.as_ref().ok_or_else(|| missing("the store probe"))?;
    let disk = run.disk.as_ref().ok_or_else(|| missing("the disk probe"))?;
    let d_tr = run.snaps[2].diff(&run.snaps[1]);
    let d_probe = run.snaps[3].diff(&run.snaps[2]);
    // Commit-path figures: every commit since the first timed phase began.
    let d_life = run.snaps[3].diff(&run.snaps[0]);

    std::fs::create_dir_all(out).map_err(err("create out directory"))?;
    let file = out.join(format!("trace-{}.jsonl", run.spec.name));
    let mut w = std::io::BufWriter::new(std::fs::File::create(&file).map_err(err("trace file"))?);
    t.write_jsonl(&mut w).map_err(err("write trace file"))?;
    std::io::Write::flush(&mut w).map_err(err("flush trace file"))?;

    if tracer.replayed_ns > tracer.call_ns {
        return Err(format!(
            "replayed stages took {} ns, the calls they were replayed for {} ns: negative residual",
            tracer.replayed_ns, tracer.call_ns
        ));
    }
    let unit = UnitCosts {
        fault_us: store.fault_cached_us,
        track_miss_us: store.track_miss_us,
        ns_per_dispatch: probes.ns_per_dispatch,
    };
    let b = budget(t, &d_tr, &unit);
    let total: f64 = b.rows.iter().map(|r| r.us_per_txn).sum::<f64>() + b.unattributed_us;
    if (total - b.txn_us).abs() > 1e-6 * b.txn_us.max(1.0) {
        return Err(format!("budget rows add up to {total} µs, the transaction took {}", b.txn_us));
    }

    let n = t.txns.max(1) as f64;
    // Front-end and execution costs per statement are taken over every
    // statement the traced run replayed, the probes' included: a workload
    // that sends only queries still reports them.
    let per_stmt = |layer: &str| {
        ratio(us(t.self_ns(layer) + pt.self_ns(layer)), (t.count(layer) + pt.count(layer)) as f64)
    };
    let (runs, probe_runs) = (run_layers(t), run_layers(pt));
    let stmts = sum_count(t, &runs) as f64;
    let p50 = |k: StmtKind| probes.stmt_p50_us.get(&k).copied().unwrap_or(0.0);
    let probe_query_ns = sum_self(pt, &QUERY_CALLS) as f64;
    let probe_queries = sum_count(pt, &QUERY_CALLS) as f64;
    let visits = |d: &MetricsSnapshot| {
        (d.counter("calculus.rows_scanned")
            + d.counter("calculus.index_rows")
            + d.counter("calculus.hash_builds")
            + d.counter("calculus.hash_probes")) as f64
    };
    let queries = t.count("calculus.translate") as f64;
    let commits = d_life.counter("storage.store.commits") as f64;
    let rate = |s: &crate::client::Samples, dur: &std::time::Duration| {
        s.txn.len() as f64 / dur.as_secs_f64()
    };

    let m = Metric::new;
    let metrics = vec![
        m("opal.lexer.us_per_stmt", per_stmt("opal.lexer"), "us"),
        m("opal.parser.us_per_stmt", per_stmt("opal.parser"), "us"),
        m("opal.compiler.us_per_stmt", per_stmt("opal.compiler"), "us"),
        m("opal.verify.us_per_stmt", per_stmt("opal.verify"), "us"),
        m("opal.effects.us_per_stmt", per_stmt("opal.effects"), "us"),
        m("opal.frontend_share", ratio(sum_self(t, &FRONT_END) as f64, t.wall_ns as f64), "ratio"),
        m(
            "opal.interp.dispatches_per_stmt",
            ratio(d_tr.counter("opal.interp.dispatches") as f64, stmts),
            "count",
        ),
        m(
            "opal.interp.sends_per_stmt",
            ratio(d_tr.counter("opal.interp.sends") as f64, stmts),
            "count",
        ),
        m("opal.interp.ns_per_dispatch", probes.ns_per_dispatch, "ns"),
        m(
            "session.begin_us",
            ratio(us(t.self_ns(BEGIN_LAYER)), t.count(BEGIN_LAYER) as f64) - probes.nil_us,
            "us",
        ),
        m(
            "session.execute_us_per_stmt",
            ratio(
                us(sum_self(t, &runs) + sum_self(pt, &probe_runs)),
                (sum_count(t, &runs) + sum_count(pt, &probe_runs)) as f64,
            ),
            "us",
        ),
        m("session.commit_ro_us", probes.commit_ro_us, "us"),
        m("session.commit_rw_us", probes.commit_rw_us, "us"),
        m("session.login_us", probes.login_us, "us"),
        m("session.point_read_p50_us", p50(StmtKind::PointRead), "us"),
        m("session.asof_read_p50_us", p50(StmtKind::AsOfRead), "us"),
        m("session.loop_stmt_p50_us", p50(StmtKind::LoopSum), "us"),
        m("session.select_scan_p50_us", p50(StmtKind::SelectScan), "us"),
        m("session.select_index_p50_us", p50(StmtKind::SelectIndex), "us"),
        m("session.join_p50_us", p50(StmtKind::Join), "us"),
        m("session.small_write_p50_us", p50(StmtKind::SmallWrite), "us"),
        m("session.large_write_p50_us", p50(StmtKind::LargeWrite), "us"),
        m(
            "temporal.asof_over_current_ratio",
            ratio(p50(StmtKind::AsOfRead), p50(StmtKind::PointRead)),
            "ratio",
        ),
        m(
            "calculus.translate.us_per_query",
            ratio(us(pt.self_ns("calculus.translate")), pt.count("calculus.translate") as f64),
            "us",
        ),
        m("calculus.algebra.us_per_query", ratio(probe_query_ns / 1e3, probe_queries), "us"),
        m("calculus.ns_per_row_visit", ratio(probe_query_ns, visits(&d_probe)), "ns"),
        m(
            "calculus.rows_scanned_per_result",
            ratio(
                (d_tr.counter("calculus.rows_scanned") + d_tr.counter("calculus.index_rows"))
                    as f64,
                d_tr.counter("calculus.rows_out") as f64,
            ),
            "ratio",
        ),
        m(
            "calculus.index_hit_share",
            ratio(d_tr.counter("calculus.index_hits") as f64, queries),
            "ratio",
        ),
        m(
            "calculus.hash_probes_per_query",
            ratio(d_tr.counter("calculus.hash_probes") as f64, queries),
            "count",
        ),
        m("txn.begin_commit_us", run.txn_begin_commit_us, "us"),
        m(
            "txn.validation_wait_share",
            ratio(hist_sum(&d_tr, "txn.validation_wait_us"), us(t.wall_ns)),
            "ratio",
        ),
        m(
            "txn.conflict_share",
            ratio(d_tr.counter("txn.conflicts") as f64, d_tr.counter("txn.begins") as f64),
            "ratio",
        ),
        m("txn.aborts", d_tr.counter("txn.aborts") as f64, "count"),
        m(
            "storage.store.object_faults_per_txn",
            d_tr.counter("storage.store.object_faults") as f64 / n,
            "count",
        ),
        m("storage.store.get_resident_us", store.get_resident_us, "us"),
        m("storage.store.get_fault_us", store.get_fault_us, "us"),
        m("storage.store.fault_cached_us", store.fault_cached_us, "us"),
        m("storage.cache.track_miss_us", store.track_miss_us, "us"),
        m(
            "storage.cache.hit_share",
            ratio(
                d_tr.counter("storage.cache.hits") as f64,
                (d_tr.counter("storage.cache.hits") + d_tr.counter("storage.cache.misses")) as f64,
            ),
            "ratio",
        ),
        m(
            "storage.cache.evictions_per_txn",
            d_tr.counter("storage.cache.evictions") as f64 / n,
            "count",
        ),
        m(
            "storage.cache.fills_read_per_txn",
            d_tr.counter("storage.cache.fills_read") as f64 / n,
            "count",
        ),
        m(
            "storage.cache.fills_commit_per_txn",
            d_tr.counter("storage.cache.fills_commit") as f64 / n,
            "count",
        ),
        m(
            "storage.commit.group_tracks_mean",
            hist_mean(&d_life, "storage.commit.group_tracks"),
            "count",
        ),
        m(
            "commit.phase.snapshot_age_us_mean",
            hist_mean(&d_life, "commit.phase.snapshot_age_us"),
            "us",
        ),
        m(
            "commit.phase.validation_us_mean",
            hist_mean(&d_life, "commit.phase.validation_us"),
            "us",
        ),
        m(
            "commit.phase.safe_write_us_mean",
            hist_mean(&d_life, "commit.phase.safe_write_us"),
            "us",
        ),
        m("commit.phase.fsync_us_mean", hist_mean(&d_life, "commit.phase.fsync_us"), "us"),
        m("commit.phase.publish_us_mean", hist_mean(&d_life, "commit.phase.publish_us"), "us"),
        m("storage.disk.reads_per_txn", d_tr.counter("storage.disk.reads") as f64 / n, "count"),
        m(
            "storage.disk.writes_per_commit",
            ratio(d_life.counter("storage.disk.writes") as f64, commits),
            "count",
        ),
        m(
            "storage.disk.fsyncs_per_commit",
            ratio(d_life.counter("storage.disk.fsyncs") as f64, commits),
            "count",
        ),
        m(
            "storage.disk.bytes_written_per_commit",
            ratio(d_life.counter("storage.disk.bytes_written") as f64, commits),
            "B",
        ),
        m("storage.disk.fsync_us_mean", hist_mean(&d_life, "storage.disk.fsync_us"), "us"),
        m("storage.file_disk.read_track_us", disk.read_track_us, "us"),
        m("storage.file_disk.write_track_us", disk.write_track_us, "us"),
        m("storage.file_disk.sync_us", disk.sync_us, "us"),
        m("storage.recovery.reopen_reads", run.reopen_reads as f64, "count"),
        m("budget.opal_share", b.share(&["opal."]), "ratio"),
        m("budget.session_share", b.share(&["session."]), "ratio"),
        m("budget.calculus_share", b.share(&["calculus."]), "ratio"),
        m("budget.txn_share", b.share(&["txn."]), "ratio"),
        m("budget.storage_share", b.share(&["storage."]), "ratio"),
        m(
            "harness.trace_overhead_share",
            1.0 - ratio(rate(traced, traced_dur), rate(plain, plain_dur)),
            "ratio",
        ),
        m("harness.unattributed_share", b.unattributed_us / b.txn_us, "ratio"),
        m(
            "harness.negative_residual_share",
            ratio(tracer.negative_residuals as f64, stmts + queries),
            "ratio",
        ),
        m("harness.calibration_ns", run.calibration_ns, "ns"),
    ];
    Ok((metrics, b))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` and the code must name the same workloads and
    /// end-to-end metrics.
    #[test]
    fn benchmark_json_names_what_the_code_reports() {
        let json =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let section = |key: &str| {
            let at = json.find(&format!("\"{key}\"")).unwrap_or_else(|| panic!("no {key}"));
            let end = json[at..].find(']').expect("section end");
            json[at..at + end].to_string()
        };
        let names = |s: &str| -> Vec<String> {
            s.split("\"name\":").skip(1).map(|t| t.split('"').nth(1).unwrap().to_string()).collect()
        };
        assert_eq!(
            names(&section("workloads")),
            crate::workload::SPECS.iter().map(|s| s.name).collect::<Vec<_>>()
        );
        let mut listed = names(&section("end_to_end"));
        listed.sort();
        let mut reported: Vec<String> = END_TO_END.iter().map(|s| s.to_string()).collect();
        reported.sort();
        assert_eq!(listed, reported);
    }
}
