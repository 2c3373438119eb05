//! One closed-loop client: a thread owning one `Session`, sending its next
//! transaction only when the previous `commit` returned, and comparing
//! every answer with the shadow model.

use crate::db::{err, Fallible};
use crate::model::Rows;
use crate::trace::{Span, Trace};
use crate::workload::{loop_sum, Body, Expect, Generator, Op, QuerySpec, Spec, StmtKind};
use gemstone::{GemStone, Session};
use gemstone_calculus::{
    plan_query, CmpOp, IndexCatalog, PlanOptions, Pred, Query, Range, Term, VarId,
};
use gemstone_object::{ElemName, Oop};
use gemstone_opal::{
    compile_doit_with_lints, effects, lexer, parser, verify, EffectCache, OpalWorld,
};
use std::hint::black_box;
use std::time::Instant;

/// Latency samples of one phase: `(end, µs)` with `end` in ns since the
/// phase began, so they can be cut into windows afterwards.
#[derive(Debug, Default)]
pub struct Samples {
    pub txn: Vec<(u64, f64)>,
    pub stmt: Vec<(u64, f64)>,
    pub commit: Vec<(u64, f64)>,
    /// Transactions started.
    pub attempted: u64,
    /// Errors, aborts and answers that disagree with the shadow model. A
    /// failed transaction contributes no latency sample.
    pub failed: u64,
    pub first_failure: Option<String>,
    /// Element values stored by committed transactions.
    pub values_written: u64,
}

impl Samples {
    pub fn merge(&mut self, other: Samples) {
        self.txn.extend(other.txn);
        self.stmt.extend(other.stmt);
        self.commit.extend(other.commit);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.first_failure = self.first_failure.take().or(other.first_failure);
        self.values_written += other.values_written;
    }
}

/// Durations of the most recent transaction, for the probes.
#[derive(Debug, Default)]
pub struct LastOp {
    pub ok: bool,
    /// Kind, start and end (ns since the phase began) of each statement.
    pub stmts: Vec<(StmtKind, u64, u64)>,
    pub commit_ns: u64,
}

/// Front-end stage durations of one statement, measured by replaying its
/// source through the stages' public functions (ns; 0 = stage not run).
#[derive(Debug, Default, Clone, Copy)]
struct Replay {
    lex: u64,
    parse: u64,
    compile: u64,
    verify: u64,
    effects: u64,
    translate: u64,
}

/// State the traced run keeps beside the client: the span totals and a
/// warm effect cache standing in for the database's own.
#[derive(Default)]
pub struct Tracer {
    pub trace: Trace,
    effects: EffectCache,
    /// Statements whose replayed stages took longer than the real call
    /// (the residual would be negative; the spans are clipped).
    pub negative_residuals: u64,
    /// Σ replayed stage time and Σ wall time of the calls it was replayed
    /// for, unclipped: the first must not exceed the second.
    pub replayed_ns: u64,
    pub call_ns: u64,
}

fn ns_since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let t = Instant::now();
    let v = black_box(f());
    (v, ns_since(t))
}

impl Tracer {
    /// Fold another client's tracer of the same phase in.
    pub fn merge(&mut self, other: Tracer) {
        self.trace.merge(other.trace);
        self.negative_residuals += other.negative_residuals;
        self.replayed_ns += other.replayed_ns;
        self.call_ns += other.call_ns;
    }

    fn replay(&mut self, session: &mut Session, call: &Call) -> Replay {
        let mut r = Replay::default();
        match call {
            Call::Run(src) => {
                r.lex = timed(|| lexer::lex(src)).1;
                r.parse = timed(|| parser::parse_doit(src)).1;
                let (compiled, ns) = timed(|| compile_doit_with_lints(session, src));
                r.compile = ns;
                if let Ok((method, _lints)) = compiled {
                    r.verify = timed(|| verify::check(&method)).1;
                    r.effects =
                        timed(|| effects::summarize_body(session, &mut self.effects, &method)).1;
                    self.effects.take_fresh();
                }
            }
            Call::Query(q) => {
                let catalog = index_catalog(session);
                r.translate = timed(|| plan_query(q, &catalog, &PlanOptions::default())).1;
            }
        }
        r
    }
}

/// A statement made ready to send: OPAL source for `Session::run`, or the
/// `Query` value for `Session::query`.
enum Call<'a> {
    Run(&'a str),
    Query(Query),
}

/// The one directory set-up creates: `Employees` on `#Dept`.
fn index_catalog(session: &mut Session) -> IndexCatalog {
    let mut catalog = IndexCatalog::new();
    catalog.add_path(vec![ElemName::Sym(session.intern("Dept"))]);
    catalog
}

/// The calculus `Query` value of a query statement, with this session's
/// handles on the collections it ranges over.
fn calculus_form(session: &mut Session, spec: QuerySpec) -> Query {
    let global = |s: &mut Session, name: &str| {
        let sym = s.intern(name);
        Term::Const(s.get_global(sym).unwrap_or(Oop::NIL))
    };
    let path =
        |s: &mut Session, var, name: &str| Term::Path(var, vec![ElemName::Sym(s.intern(name))]);
    let (e, d) = (VarId(0), VarId(1));
    let employees = Range { var: e, domain: global(session, "Employees") };
    let name = (session.intern("Name"), path(session, e, "Name"));
    let salary_above =
        |s: &mut Session, x| Pred::Cmp(path(s, e, "Salary"), CmpOp::Gt, Term::Const(Oop::int(x)));
    match spec {
        QuerySpec::Scan { min_salary } => Query {
            result: vec![name, (session.intern("Salary"), path(session, e, "Salary"))],
            ranges: vec![employees],
            pred: salary_above(session, min_salary),
        },
        QuerySpec::Index { dept } => Query {
            result: vec![name, (session.intern("Salary"), path(session, e, "Salary"))],
            ranges: vec![employees],
            pred: Pred::Cmp(path(session, e, "Dept"), CmpOp::Eq, Term::Const(Oop::int(dept))),
        },
        QuerySpec::Join { min_salary } => Query {
            result: vec![name, (session.intern("Budget"), path(session, d, "Budget"))],
            ranges: vec![employees, Range { var: d, domain: global(session, "Departments") }],
            pred: Pred::Cmp(path(session, e, "Dept"), CmpOp::Eq, path(session, d, "DeptNo"))
                .and(salary_above(session, min_salary)),
        },
    }
}

/// The span of a transaction's leading `nil` statement: transaction begin
/// plus workspace refresh, plus the few µs `nil` itself costs.
pub const BEGIN_LAYER: &str = "session.begin";

pub struct Client<'a> {
    gs: &'a GemStone,
    spec: &'a Spec,
    session: Session,
    txns_in_session: usize,
    pub gen: Generator<'a>,
    pub samples: Samples,
    pub last: LastOp,
    next_txn: u64,
}

impl<'a> Client<'a> {
    pub fn new(gs: &'a GemStone, spec: &'a Spec, gen: Generator<'a>) -> Fallible<Client<'a>> {
        let session = gs.login("system").map_err(err("login"))?;
        Ok(Client {
            gs,
            spec,
            session,
            txns_in_session: 0,
            gen,
            samples: Samples::default(),
            last: LastOp::default(),
            next_txn: 0,
        })
    }

    /// Read every object the client's transactions can touch, so a long
    /// session's per-transaction refresh cost is stationary before timing
    /// starts. Short-session workloads skip this: their sessions are meant
    /// to be cold.
    pub fn touch_working_set(&mut self, queries: bool) -> Fallible<()> {
        if self.spec.session_life.is_some() {
            return Ok(());
        }
        let sources: Vec<String> =
            self.gen.working_buckets().iter().map(|&b| loop_sum(b)).collect();
        for src in sources {
            self.session.run(&src).map_err(|e| format!("warm-up failed: {e}\n{src}"))?;
        }
        if queries {
            // A full scan and a join touch every employee and department.
            for spec in [QuerySpec::Scan { min_salary: 0 }, QuerySpec::Join { min_salary: 0 }] {
                let q = calculus_form(&mut self.session, spec);
                self.session.query(&q).map_err(err("warm-up query"))?;
            }
        }
        self.session.commit().map_err(err("warm-up commit"))?;
        Ok(())
    }

    fn fail(&mut self, why: String) {
        self.samples.failed += 1;
        self.samples.first_failure.get_or_insert(why);
        self.last.ok = false;
        // The transaction is dead whatever state it reached.
        self.session.abort();
    }

    /// Run `op` as one transaction; `epoch` is when the phase began. With a
    /// tracer, every statement's front end is first replayed outside the
    /// timed transaction and spans are recorded.
    pub fn run_op(&mut self, op: &Op, epoch: Instant, mut tracer: Option<&mut Tracer>) {
        self.samples.attempted += 1;
        self.last.stmts.clear();
        self.last.ok = true;
        self.next_txn += 1;

        let mut login_ns = 0;
        if self.spec.session_life.is_some_and(|life| self.txns_in_session >= life) {
            let (fresh, ns) = timed(|| self.gs.login("system"));
            match fresh {
                Ok(s) => self.session = s,
                Err(e) => return self.fail(format!("login: {e}")),
            }
            (login_ns, self.txns_in_session) = (ns, 0);
        }
        self.txns_in_session += 1;

        // Outside the timed transaction: calculus forms and replays.
        let calls: Vec<Call> = op
            .stmts
            .iter()
            .map(|st| match &st.body {
                Body::Opal(src) => Call::Run(src),
                Body::Query(spec) => Call::Query(calculus_form(&mut self.session, *spec)),
            })
            .collect();
        let replays: Vec<Replay> = match tracer.as_mut() {
            Some(t) => calls.iter().map(|call| t.replay(&mut self.session, call)).collect(),
            None => Vec::new(),
        };

        let began = ns_since(epoch);
        // Traced transactions open with a `nil` statement (probe
        // transactions bring their own): it does nothing but begin the
        // transaction, so begin-plus-refresh gets a span of its own.
        let mut begin_end = None;
        if tracer.is_some() && op.stmts[0].kind != StmtKind::Nil {
            if let Err(e) = self.session.run("nil") {
                return self.fail(format!("nil failed: {e}"));
            }
            begin_end = Some(ns_since(epoch));
        }
        for (st, call) in op.stmts.iter().zip(&calls) {
            let s0 = ns_since(epoch);
            let answer = match call {
                Call::Run(src) => self.session.run(src).map(Answer::Value),
                Call::Query(q) => self.session.query(q).map(Answer::Rows),
            };
            let s1 = ns_since(epoch);
            self.last.stmts.push((st.kind, s0, s1));
            match answer {
                Err(e) => return self.fail(format!("{:?} failed: {e}", st.body)),
                Ok(a) => {
                    if let Some(got) = a.disagrees_with(&st.expect) {
                        return self.fail(format!(
                            "{:?} answered {got}, the shadow model says {:?}",
                            st.body, st.expect
                        ));
                    }
                }
            }
        }
        let c0 = ns_since(epoch);
        let committed = self.session.commit();
        let c1 = ns_since(epoch);
        if let Err(e) = committed {
            return self.fail(format!("commit: {e}"));
        }
        self.last.commit_ns = c1 - c0;
        self.gen.committed(op);
        self.samples.values_written += op.values_written();
        self.samples.txn.push((c1, (c1 - began + login_ns) as f64 / 1e3));
        self.samples.commit.push((c1, (c1 - c0) as f64 / 1e3));
        for &(_, s0, s1) in &self.last.stmts {
            self.samples.stmt.push((s1, (s1 - s0) as f64 / 1e3));
        }

        if let Some(t) = tracer {
            let txn = self.next_txn;
            let root_start = began.saturating_sub(login_ns);
            let mut spans = Vec::with_capacity(3 + 7 * op.stmts.len());
            let mut push = |layer, start_ns, end_ns, parent, replayed| {
                spans.push(Span { txn, layer, start_ns, end_ns, parent, replayed });
                spans.len() - 1
            };
            push("harness.txn", root_start, c1, None, false);
            if login_ns > 0 {
                push("session.login", root_start, began, Some(0), false);
            }
            if let Some(end) = begin_end {
                push(BEGIN_LAYER, began, end, Some(0), false);
            }
            for (i, (&(kind, s0, s1), r)) in self.last.stmts.iter().zip(&replays).enumerate() {
                if i == 0 && kind == StmtKind::Nil {
                    push(BEGIN_LAYER, s0, s1, Some(0), false);
                    continue;
                }
                let run = push(kind.call_layer(), s0, s1, Some(0), false);
                let front = r.compile.max(r.parse).max(r.lex) + r.verify + r.effects + r.translate;
                t.replayed_ns += front;
                t.call_ns += s1 - s0;
                if front > s1 - s0 {
                    t.negative_residuals += 1;
                }
                // Replayed stages are laid end to end from the start of the
                // real call: their lengths are measured, their places are
                // not. None may outlast the call, or the transaction's spans
                // would add up to more than the transaction.
                let mut at = s0;
                let end_of = |at: u64, ns: u64| (at + ns).min(s1);
                if r.compile > 0 {
                    let c_end = end_of(at, r.compile);
                    let compiler = push("opal.compiler", at, c_end, Some(run), true);
                    let p_end = end_of(at, r.parse).min(c_end);
                    let parser = push("opal.parser", at, p_end, Some(compiler), true);
                    push("opal.lexer", at, end_of(at, r.lex).min(p_end), Some(parser), true);
                    at = c_end;
                    for (layer, ns) in [("opal.verify", r.verify), ("opal.effects", r.effects)] {
                        let end = end_of(at, ns);
                        push(layer, at, end, Some(run), true);
                        at = end;
                    }
                }
                if r.translate > 0 {
                    push("calculus.translate", at, end_of(at, r.translate), Some(run), true);
                }
            }
            push("session.commit", c0, c1, Some(0), false);
            t.trace.add_txn(&spans);
        }
    }
}

enum Answer {
    Value(Oop),
    Rows(Vec<Vec<Oop>>),
}

impl Answer {
    /// `None` when the answer matches; otherwise what was answered instead.
    fn disagrees_with(&self, expect: &Expect) -> Option<String> {
        match (self, expect) {
            (Answer::Value(v), Expect::Nil) => (*v != Oop::NIL).then(|| format!("{v:?}")),
            (Answer::Value(v), Expect::Int(want)) => {
                (v.as_int() != Some(*want)).then(|| format!("{v:?}"))
            }
            (Answer::Rows(rows), Expect::Rows(want)) => {
                let mut got = Rows::default();
                for row in rows {
                    match (
                        row.first().and_then(|o| o.as_int()),
                        row.get(1).and_then(|o| o.as_int()),
                    ) {
                        (Some(a), Some(b)) => got.add(a, b),
                        _ => return Some(format!("a malformed row {row:?}")),
                    }
                }
                (got != *want).then(|| format!("{got:?}"))
            }
            (Answer::Value(v), Expect::Rows(_)) => Some(format!("{v:?}")),
            (Answer::Rows(rows), _) => Some(format!("{} rows", rows.len())),
        }
    }
}
