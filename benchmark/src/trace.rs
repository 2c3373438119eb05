//! The harness is the tracer: spans are recorded in memory around its own
//! calls into each layer's public functions and written out when the run
//! ends. Nothing here is compiled into the database.

use std::collections::BTreeMap;
use std::io::Write;

/// One timed interval. Spans of one transaction share `txn`; `parent` is
/// the index, within that transaction's span list, of the span that
/// caused this one.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub txn: u64,
    pub layer: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// True for a front-end stage timed by replaying the statement's source
    /// outside `Session::run`: its duration is measured, its position
    /// inside the parent is not.
    pub replayed: bool,
}

impl Span {
    pub fn dur(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Self time of every span of one transaction: its duration minus the
/// part of that interval its direct children cover (children are clipped
/// to the parent and overlapping children are counted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (lo, hi) = (s.start_ns.max(spans[p].start_ns), s.end_ns.min(spans[p].end_ns));
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0, s.start_ns);
            for (lo, hi) in kids {
                if hi > reach {
                    covered += hi - lo.max(reach);
                    reach = hi;
                }
            }
            s.dur() - covered
        })
        .collect()
}

/// Per-layer totals over many transactions, plus the raw spans of the
/// first [`Trace::KEEP_TXNS`] transactions for the trace file.
#[derive(Debug, Default)]
pub struct Trace {
    pub txns: u64,
    /// Σ duration of the root span of every transaction.
    pub wall_ns: u64,
    /// layer → (Σ self ns, span count).
    pub layers: BTreeMap<&'static str, (u64, u64)>,
    pub kept: Vec<Span>,
}

impl Trace {
    /// A full run records millions of spans; the file keeps the head.
    pub const KEEP_TXNS: u64 = 500;

    /// Fold one finished transaction in. `spans[0]` is its root.
    pub fn add_txn(&mut self, spans: &[Span]) {
        self.txns += 1;
        self.wall_ns += spans[0].dur();
        for (s, own) in spans.iter().zip(self_times(spans)) {
            let e = self.layers.entry(s.layer).or_default();
            e.0 += own;
            e.1 += 1;
        }
        if self.txns <= Trace::KEEP_TXNS {
            self.kept.extend_from_slice(spans);
        }
    }

    pub fn merge(&mut self, other: Trace) {
        self.txns += other.txns;
        self.wall_ns += other.wall_ns;
        for (layer, (ns, n)) in other.layers {
            let e = self.layers.entry(layer).or_default();
            e.0 += ns;
            e.1 += n;
        }
        self.kept.extend(other.kept);
    }

    pub fn self_ns(&self, layer: &str) -> u64 {
        self.layers.get(layer).map_or(0, |e| e.0)
    }

    pub fn count(&self, layer: &str) -> u64 {
        self.layers.get(layer).map_or(0, |e| e.1)
    }

    /// One JSON object per line: `{txn, layer, start_ns, end_ns, parent}`.
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        for s in &self.kept {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"txn_id\": {}, \"layer\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"replayed\": {}}}",
                s.txn, s.layer, s.start_ns, s.end_ns, s.replayed
            )?;
        }
        Ok(())
    }
}

/// One row of the budget table.
#[derive(Debug, Clone, PartialEq)]
pub struct BudgetRow {
    pub layer: &'static str,
    /// Self time per transaction, µs.
    pub us_per_txn: f64,
    /// Calls or counted events per transaction.
    pub per_txn: f64,
    /// How the time was obtained: `span`, `replay`, `counter` or `model`.
    pub how: &'static str,
}

/// The per-layer budget of one traced phase. Rows plus `unattributed`
/// add up to the mean transaction wall time.
#[derive(Debug, Clone, PartialEq)]
pub struct Budget {
    pub txn_us: f64,
    pub rows: Vec<BudgetRow>,
    pub unattributed_us: f64,
}

impl Budget {
    /// Share of the transaction wall time spent in layers whose name starts
    /// with one of `prefixes`.
    pub fn share(&self, prefixes: &[&str]) -> f64 {
        let us: f64 = self
            .rows
            .iter()
            .filter(|r| prefixes.iter().any(|p| r.layer.starts_with(p)))
            .map(|r| r.us_per_txn)
            .sum();
        us / self.txn_us
    }

    pub fn render(&self, workload: &str) -> String {
        let mut out = format!(
            "budget for {workload}: {:.2} µs per transaction (traced)\n  {:<24} {:>12} {:>8} {:>12}  {}\n",
            self.txn_us, "layer", "self µs/txn", "share", "count/txn", "from"
        );
        for r in &self.rows {
            out.push_str(&format!(
                "  {:<24} {:>12.3} {:>7.1}% {:>12.3}  {}\n",
                r.layer,
                r.us_per_txn,
                100.0 * r.us_per_txn / self.txn_us,
                r.per_txn,
                r.how
            ));
        }
        out.push_str(&format!(
            "  {:<24} {:>12.3} {:>7.1}%\n",
            "harness.unattributed",
            self.unattributed_us,
            100.0 * self.unattributed_us / self.txn_us
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span { txn: 1, layer, start_ns: start, end_ns: end, parent, replayed: false }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = [
            span("txn", 0, 100, None),
            span("run", 10, 60, Some(0)),
            span("compile", 10, 30, Some(1)),
            span("parse", 10, 18, Some(2)),
            span("commit", 70, 95, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![25, 30, 12, 8, 25]);
        // Self times of a tree add up to the root's duration.
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_and_overlong_children_are_counted_once_and_clipped() {
        let spans = [
            span("run", 0, 50, None),
            span("a", 0, 30, Some(0)),
            span("b", 20, 40, Some(0)),
            // Replay noise: a child that would outlast its parent.
            span("c", 45, 80, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 50 - 40 - 5);
    }

    #[test]
    fn trace_totals_and_budget_shares() {
        let mut t = Trace::default();
        let spans = [span("txn", 0, 100, None), span("run", 0, 80, Some(0))];
        t.add_txn(&spans);
        t.add_txn(&spans);
        assert_eq!((t.txns, t.wall_ns), (2, 200));
        assert_eq!((t.self_ns("run"), t.count("run")), (160, 2));
        assert_eq!(t.self_ns("txn"), 40);
        let mut buf = Vec::new();
        t.write_jsonl(&mut buf).unwrap();
        assert_eq!(String::from_utf8(buf).unwrap().lines().count(), 4);

        let b = Budget {
            txn_us: 10.0,
            rows: vec![
                BudgetRow { layer: "opal.lexer", us_per_txn: 2.0, per_txn: 1.0, how: "replay" },
                BudgetRow { layer: "session.run", us_per_txn: 5.0, per_txn: 1.0, how: "span" },
            ],
            unattributed_us: 3.0,
        };
        assert!((b.share(&["opal.", "session."]) - 0.7).abs() < 1e-12);
        assert!(b.render("w").contains("harness.unattributed"));
    }
}
