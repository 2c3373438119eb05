//! `--repeat` and the run-everything mode: child processes, one per run,
//! and the run-to-run spread of their end-to-end metrics.

use crate::report::ratio;
use crate::stats::{median, quartiles};
use crate::workload::SPECS;
use crate::Args;

/// `"name": {"value": 1.5, ...}` pairs of a result line's metrics object.
fn parse_metrics(line: &str) -> Vec<(String, f64)> {
    let Some(at) = line.find("\"metrics\"") else { return Vec::new() };
    let mut out = Vec::new();
    let mut rest = &line[at + "\"metrics\"".len()..];
    while let Some(v) = rest.find("{\"value\": ") {
        let name = rest[..v].rsplit('"').nth(1).unwrap_or("").to_string();
        let num = &rest[v + "{\"value\": ".len()..];
        let end = num.find([',', '}']).unwrap_or(num.len());
        if let Ok(x) = num[..end].trim().parse() {
            out.push((name, x));
        }
        rest = &num[end..];
    }
    out
}

/// Run every selected workload in processes of its own — `repeat` plain
/// runs on consecutive seeds, then one traced run — and print, per
/// end-to-end metric, the median, the quartiles and the spread (the
/// distance between the quartiles as a share of the median).
pub fn run_children(args: &Args) -> i32 {
    let Args { workload, seed, seconds, repeat, quick, .. } = args;
    let (seed, repeat) = (*seed, *repeat);
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("benchmark: cannot find own executable: {e}");
            return 1;
        }
    };
    let mut code = 0;
    for spec in SPECS.iter().filter(|s| workload.as_deref().is_none_or(|w| w == s.name)) {
        let child = |seed: u64, trace: bool| {
            let mut cmd = std::process::Command::new(&exe);
            cmd.args(["--workload", spec.name, "--seed", &seed.to_string()]);
            cmd.args(["--seconds", &seconds.to_string(), "--trace", if trace { "1" } else { "0" }]);
            if *quick {
                cmd.arg("--quick");
            }
            // The child's tables go to our stderr; its result line comes back.
            match cmd.stderr(std::process::Stdio::inherit()).output() {
                Ok(out) if out.status.success() => {
                    String::from_utf8_lossy(&out.stdout).lines().last().map(parse_metrics)
                }
                _ => None,
            }
        };
        let mut runs: Vec<Vec<(String, f64)>> = Vec::new();
        for i in 0..repeat {
            match child(seed + i as u64, false) {
                Some(m) => runs.push(m),
                None => code = 1,
            }
        }
        if child(seed, true).is_none() {
            code = 1;
        }
        if runs.len() < 2 {
            continue;
        }
        println!(
            "{}: {} plain runs, seeds {seed}..{}",
            spec.name,
            runs.len(),
            seed + repeat as u64 - 1
        );
        println!(
            "  {:<16} {:>14} {:>14} {:>14} {:>8} {:>14} {:>14}",
            "metric", "median", "q1", "q3", "spread", "min", "max"
        );
        for (name, _) in &runs[0] {
            let mut v: Vec<f64> = runs
                .iter()
                .filter_map(|r| r.iter().find(|(n, _)| n == name).map(|x| x.1))
                .collect();
            let (q1, q3) = quartiles(&mut v);
            let med = median(&mut v);
            println!(
                "  {:<16} {:>14.4} {:>14.4} {:>14.4} {:>7.2}% {:>14.4} {:>14.4}",
                name,
                med,
                q1,
                q3,
                100.0 * ratio(q3 - q1, med),
                v[0],
                v[v.len() - 1]
            );
        }
    }
    code
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{result_line, Metric};

    #[test]
    fn result_line_round_trips_through_the_repeat_parser() {
        let metrics =
            [Metric::new("txn_per_s", 1234.5678, "1/s"), Metric::new("setup_s", 0.25, "s")];
        let line = result_line(true, 10, 0, &metrics);
        assert!(line
            .starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {"));
        assert_eq!(
            parse_metrics(&line),
            vec![("txn_per_s".to_string(), 1234.5678), ("setup_s".to_string(), 0.25)]
        );
        assert!(result_line(false, 0, 0, &[]).contains("\"attempted\": 1,"));
    }
}
