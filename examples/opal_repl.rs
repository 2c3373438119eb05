//! An interactive OPAL session — the paper's host-machine interface in
//! miniature (§6: "Communication with GemStone is done in blocks of OPAL
//! source code. Compilation and execution of those blocks is done entirely
//! in the GemStone system").
//!
//! ```sh
//! cargo run --example opal_repl
//! ```
//!
//! Try:
//! ```text
//! Object subclass: 'Employee' instVarNames: #('name' 'salary')
//! | e | Staff := Set new. e := Employee new. e name: 'Ellen'. e salary: 24650. Staff add: e
//! System commitTransaction
//! (Staff select: [:e | e salary > 20000]) collect: [:e | e name]
//! System timeDial: 1
//! Staff size
//! System timeDialNow
//! ```
//!
//! Telemetry escapes (handled by the REPL, not the compiler):
//! ```text
//! :metrics                 — metrics moved since the last :metrics call
//! :metrics all             — the full cumulative registry
//! :effects Class>>selector — the method's static effect summary
//! :effects                 — classification of the last statement run
//! :explain+ <doIt>         — run the doIt and render its profiled plan
//! :journal <dir>           — start the flight recorder (segments in <dir>)
//! :journal off             — stop it
//! :doctor                  — render a diagnostic bundle from the journal
//! :doctor <dir>            — the same from the journal segments in <dir>
//! :conflicts               — this session's last conflict + database heat
//! :stats                   — the statistics catalog + last plan decision
//! :stats on                — train the catalog and turn the planner cost-based
//! ```

use gemstone::{DiagnosticBundle, GemError, GemStone, Journal, JournalConfig, MetricsSnapshot};
use std::io::{BufRead, Write};
use std::path::Path;

fn main() {
    let gs = GemStone::in_memory();
    let mut session = gs.login("system").expect("login");
    println!("GemStone/OPAL — SIGMOD 1984 reproduction.");
    println!("Each line is a doIt. `System commitTransaction` to commit; ctrl-D to exit.\n");

    // `:metrics` prints the movement since the previous call, so each
    // check shows what the statements in between actually did.
    let mut metrics_mark: MetricsSnapshot = session.metrics();

    let stdin = std::io::stdin();
    let mut out = std::io::stdout();
    loop {
        print!("opal> ");
        out.flush().ok();
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break,
            Ok(_) => {}
            Err(_) => break,
        }
        let src = line.trim();
        if src.is_empty() {
            continue;
        }
        if src == ":metrics" {
            let now = session.metrics();
            println!("  (moved since the last :metrics — `:metrics all` for totals)");
            print!("{}", now.diff(&metrics_mark).render_table());
            metrics_mark = now;
            continue;
        }
        if src == ":metrics all" {
            print!("{}", session.metrics().render_table());
            continue;
        }
        if let Some(arg) = src.strip_prefix(":effects") {
            let arg = arg.trim();
            if arg.is_empty() {
                match session.last_effect() {
                    Some(s) => {
                        let text = session.render_effect(&s.clone());
                        for l in text.lines() {
                            println!("  {l}");
                        }
                    }
                    None => println!("  no statement classified yet — run a doIt first."),
                }
            } else if let Some((class, selector)) = arg.split_once(">>") {
                match session.method_effects(class.trim(), selector.trim()) {
                    Ok(s) => {
                        for l in session.render_effect(&s).lines() {
                            println!("  {l}");
                        }
                    }
                    Err(e) => println!("  !! {e}"),
                }
            } else {
                println!("  usage: :effects Class>>selector  (or bare :effects)");
            }
            continue;
        }
        if let Some(arg) = src.strip_prefix(":journal") {
            let arg = arg.trim();
            if arg.is_empty() {
                match gs.telemetry().journal.status() {
                    Some((seq, live, bytes)) => println!(
                        "  recording to {:?} — segment {seq}, {live} live, {bytes} bytes",
                        gs.telemetry().journal.dir().unwrap_or_default()
                    ),
                    None => println!("  not recording. usage: :journal <dir> | :journal off"),
                }
            } else if arg == "off" {
                gs.database().stop_journal();
                println!("  flight recorder stopped (segments kept on disk).");
            } else {
                match gs.database().start_journal(JournalConfig::at(arg)) {
                    Ok(()) => println!("  flight recorder on → {arg}/journal-*.jsonl"),
                    Err(e) => println!("  !! {e}"),
                }
            }
            continue;
        }
        if src == ":conflicts" {
            match session.last_conflict() {
                Some(r) => {
                    println!(
                        "  last conflict: {} — txn begun {:?} killed by commit {:?} (session {})",
                        r.kind, r.started_at, r.culprit_time, r.culprit_session
                    );
                    if !r.goops.is_empty() {
                        let goops: Vec<String> = r.goops.iter().map(|g| format!("g{g}")).collect();
                        let tracks: Vec<String> = r.tracks.iter().map(|t| t.to_string()).collect();
                        println!(
                            "    objects: {}  home tracks: {}",
                            goops.join(", "),
                            if tracks.is_empty() {
                                "(no resolver)".into()
                            } else {
                                tracks.join(", ")
                            }
                        );
                    }
                }
                None => println!("  no conflict recorded for this session."),
            }
            let s = gs.database().conflict_stats();
            println!(
                "  database: {} conflicts (overlap {}, watermark {})",
                s.total(),
                s.overlap,
                s.watermark
            );
            let heat = |pairs: &[(u64, u64)], what: &str| {
                if !pairs.is_empty() {
                    let per: Vec<String> =
                        pairs.iter().take(8).map(|(k, n)| format!("{what} {k} ×{n}")).collect();
                    println!("    hottest: {}", per.join(", "));
                }
            };
            heat(&s.by_object, "goop");
            heat(&s.by_track, "track");
            continue;
        }
        if src == ":stats" || src == ":stats on" {
            if src == ":stats on" {
                match gs.database().enable_stats() {
                    Ok(n) => {
                        println!("  statistics on — {n} sketches trained; planner is cost-based.")
                    }
                    Err(e) => {
                        println!("  !! {e}");
                        continue;
                    }
                }
            }
            for l in session.render_stats().lines() {
                println!("  {l}");
            }
            if let Some(d) = session.last_decision() {
                println!(
                    "  last plan: {} (est {:.0} row visits, {} alternatives{}{})",
                    d.canon,
                    d.est_cost,
                    d.alternatives.len(),
                    if d.cost_based { ", cost-based" } else { ", declaration order" },
                    if d.replan { ", re-planned after drift" } else { "" }
                );
            }
            continue;
        }
        if let Some(arg) = src.strip_prefix(":doctor") {
            // Bare `:doctor` reads the live recorder; `:doctor <dir>` reads
            // the segments another (perhaps crashed) process left in <dir>.
            // Offline there is no live registry: the bundle's "replayed"
            // section is the reconstruction.
            let arg = arg.trim();
            let bundle = if arg.is_empty() {
                gs.database().diagnostic_bundle("repl")
            } else {
                Journal::read_from(Path::new(arg))
                    .map(|readout| DiagnosticBundle::build(&readout, None, "doctor"))
                    .map_err(GemError::RuntimeError)
            };
            match bundle {
                Ok(bundle) => {
                    for l in bundle.render().lines() {
                        println!("  {l}");
                    }
                }
                Err(e) => println!("  !! {e}"),
            }
            continue;
        }
        if let Some(doit) = src.strip_prefix(":explain+") {
            let doit = doit.trim();
            if doit.is_empty() {
                println!("  usage: :explain+ <doIt containing a select block>");
                continue;
            }
            match session.explain_analyze(doit) {
                Ok(analysis) => {
                    for l in analysis.lines() {
                        println!("  {l}");
                    }
                }
                Err(e) => println!("  !! {e}"),
            }
            continue;
        }
        match session.run_display(src) {
            Ok(shown) => println!("  {shown}"),
            Err(e) => println!("  !! {e}"),
        }
    }
    println!("\nbye — aborting uncommitted work (the workspace is discarded, §6).");
}
