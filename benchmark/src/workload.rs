//! The four workloads and the seeded generator that turns each into OPAL
//! source strings, `Query` parameters and the answers they must produce.

use crate::model::{
    Accounts, Rows, Staff, DEPARTMENTS, HISTORY, PER_BUCKET, SALARY_LO, SALARY_SPAN,
};
use crate::rng::Rng;

/// One kind of transaction. An *operation* is one transaction: its
/// statements plus `commit`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum OpKind {
    /// 8 read-only statements: 5 point path reads, 2 as-of reads, 1 loop.
    HotRead,
    ScanQuery,
    IndexQuery,
    JoinQuery,
    SmallWrite,
    LargeWrite,
    PointRead,
    BucketScan,
    /// Probe transactions (traced runs only): the same statement shapes,
    /// each behind a `nil` statement that absorbs the transaction begin, so
    /// every later statement is timed mid-transaction.
    ProbeRead,
    ProbeSmallWrite,
    ProbeLargeWrite,
    ProbeQuery,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum StmtKind {
    Nil,
    PointRead,
    AsOfRead,
    LoopSum,
    SelectScan,
    SelectIndex,
    Join,
    SmallWrite,
    LargeWrite,
}

impl StmtKind {
    /// The span layer of the harness call that sends a statement of this
    /// kind (`Session::run`, or `Session::query` for the three queries).
    pub fn call_layer(self) -> &'static str {
        match self {
            StmtKind::Nil => "session.run.nil",
            StmtKind::PointRead => "session.run.point_read",
            StmtKind::AsOfRead => "session.run.asof_read",
            StmtKind::LoopSum => "session.run.loop_stmt",
            StmtKind::SelectScan => "session.query.scan",
            StmtKind::SelectIndex => "session.query.index",
            StmtKind::Join => "session.query.join",
            StmtKind::SmallWrite => "session.run.small_write",
            StmtKind::LargeWrite => "session.run.large_write",
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
pub enum Body {
    /// Sent through `Session::run`.
    Opal(String),
    /// Sent through `Session::query` as a calculus `Query` value.
    Query(QuerySpec),
}

/// The three query shapes. All go through `Session::query`: an OPAL
/// `select:` materialises its result as a new Set, which the next `commit`
/// persists — a `select:` transaction is a writing transaction whose
/// session grows by one object per query, so it can be neither read-only
/// nor stationary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum QuerySpec {
    /// `{(Name, Salary) | e ∈ Employees, e.Salary > min_salary}`: full scan.
    Scan { min_salary: i64 },
    /// `{(Name, Salary) | e ∈ Employees, e.Dept = dept}`: served by the
    /// `#Dept` directory.
    Index { dept: i64 },
    /// `{(Name, Budget) | e ∈ Employees, d ∈ Departments, e.Dept = d.DeptNo,
    /// e.Salary > min_salary}`: hash join.
    Join { min_salary: i64 },
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Expect {
    Nil,
    Int(i64),
    Rows(Rows),
}

#[derive(Debug, Clone, PartialEq)]
pub struct Stmt {
    pub kind: StmtKind,
    pub body: Body,
    pub expect: Expect,
}

/// What a committed operation changes in the shadow model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Effect {
    None,
    Transfer { from: usize, to: usize, amount: i64 },
    Batch { buckets: [usize; 2], delta: i64 },
}

#[derive(Debug, Clone, PartialEq)]
pub struct Op {
    pub kind: OpKind,
    pub stmts: Vec<Stmt>,
    pub effect: Effect,
}

impl Op {
    /// Element values this operation stores when it commits.
    pub fn values_written(&self) -> u64 {
        match self.effect {
            Effect::None => 0,
            Effect::Transfer { .. } => 2,
            Effect::Batch { .. } => 2 * PER_BUCKET as u64,
        }
    }
}

/// Sizes and mix of one workload. The figures are recorded in
/// `BENCHMARK.json`; the reasons are in `README.md`.
#[derive(Debug)]
pub struct Spec {
    pub name: &'static str,
    pub accounts: usize,
    pub employees: usize,
    /// Client threads wanted (closed loop, one `Session` each); the harness
    /// never runs more than the machine has cores.
    pub clients: usize,
    /// Transactions per `login`; `None` = one session for the whole run.
    pub session_life: Option<usize>,
    /// `Some(n)`: reopen with track and object caches holding 1/n of the
    /// database. `None`: everything resident.
    pub cache_fraction: Option<usize>,
    /// Point reads and loops stay inside this many buckets per client
    /// (`None` = the client's whole range).
    pub hot_buckets: Option<usize>,
    /// Transactions per block of 20, by kind. The composition is exact and
    /// only the order is shuffled, so the mix does not wander with the seed.
    pub block: &'static [(OpKind, usize)],
}

pub const SPECS: [Spec; 4] = [
    Spec {
        name: "hot_stmt",
        accounts: 1_024,
        employees: 512,
        clients: 1,
        session_life: None,
        cache_fraction: None,
        hot_buckets: Some(2),
        block: &[(OpKind::HotRead, 20)],
    },
    Spec {
        name: "query_scan",
        accounts: 256,
        employees: 5_000,
        clients: 1,
        session_life: None,
        cache_fraction: None,
        hot_buckets: None,
        // Not 50/30/20: with any kind (or pair) at exactly half, the median
        // transaction sits on the border between two latency modes and
        // flips between them from run to run.
        block: &[(OpKind::ScanQuery, 8), (OpKind::IndexQuery, 7), (OpKind::JoinQuery, 5)],
    },
    Spec {
        name: "commit_durable",
        accounts: 4_096,
        employees: 512,
        clients: 2,
        // Not one long session each: a session pays, at every begin, for
        // each object it has ever touched, and over a 2,048-account
        // partition that refresh is three times the commit this workload
        // is about.
        session_life: Some(1),
        cache_fraction: None,
        hot_buckets: None,
        block: &[(OpKind::SmallWrite, 18), (OpKind::LargeWrite, 2)],
    },
    Spec {
        name: "cold_mixed",
        accounts: 8_192,
        employees: 512,
        clients: 1,
        session_life: Some(8),
        cache_fraction: Some(10),
        hot_buckets: None,
        block: &[(OpKind::PointRead, 16), (OpKind::BucketScan, 2), (OpKind::SmallWrite, 2)],
    },
];

/// Queries per read-only query transaction. A long session re-reads every
/// object it has touched at each transaction begin — all 5,000 employees
/// here — so a single query per transaction would mostly measure that.
pub const QUERIES_PER_TXN: usize = 4;

pub fn spec_named(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

fn point_read(g: usize) -> String {
    format!("((Accounts at: {}) at: {}) ! bal", g / PER_BUCKET, g % PER_BUCKET)
}

/// An interpreted loop over one bucket. Indexed, not `do:` — iterating a
/// collection copies its elements into a new Array, and a transaction that
/// allocates is no longer read-only.
pub fn loop_sum(bucket: usize) -> String {
    format!(
        "| s bk | s := 0. bk := Accounts at: {bucket}. \
         0 to: {} do: [:k | s := s + ((bk at: k) ! bal)]. s",
        PER_BUCKET - 1
    )
}

/// Generates one client's operations and keeps that client's part of the
/// shadow model in step with what it has committed.
pub struct Generator<'a> {
    spec: &'a Spec,
    rng: Rng,
    pub accounts: Accounts,
    staff: &'a Staff,
    round_ticks: &'a [u64],
    /// Buckets point reads and loops draw from.
    hot: Vec<usize>,
    /// The rest of the current block, already shuffled.
    block: Vec<OpKind>,
}

impl<'a> Generator<'a> {
    pub fn new(
        spec: &'a Spec,
        seed: u64,
        client: usize,
        accounts: Accounts,
        staff: &'a Staff,
        round_ticks: &'a [u64],
    ) -> Generator<'a> {
        let mut rng = Rng::lane(seed, client as u64 + 1);
        let mut hot: Vec<usize> = accounts.buckets().collect();
        if let Some(n) = spec.hot_buckets {
            rng.shuffle(&mut hot);
            hot.truncate(n);
        }
        Generator { spec, rng, accounts, staff, round_ticks, hot, block: Vec::new() }
    }

    /// Buckets this client's transactions can touch, for the warm-up pass.
    pub fn working_buckets(&self) -> &[usize] {
        &self.hot
    }

    /// The next transaction of the workload's mix.
    pub fn next_op(&mut self) -> Op {
        if self.block.is_empty() {
            for &(kind, n) in self.spec.block {
                self.block.extend(std::iter::repeat_n(kind, n));
            }
            self.rng.shuffle(&mut self.block);
        }
        let kind = self.block.pop().expect("block refilled above");
        self.make(kind)
    }

    fn hot_bucket(&mut self) -> usize {
        self.hot[self.rng.below(self.hot.len() as u64) as usize]
    }

    fn hot_account(&mut self) -> usize {
        self.hot_bucket() * PER_BUCKET + self.rng.below(PER_BUCKET as u64) as usize
    }

    fn stmt_nil() -> Stmt {
        Stmt { kind: StmtKind::Nil, body: Body::Opal("nil".into()), expect: Expect::Nil }
    }

    fn stmt_point(&mut self) -> Stmt {
        let g = self.hot_account();
        Stmt {
            kind: StmtKind::PointRead,
            body: Body::Opal(point_read(g)),
            expect: Expect::Int(self.accounts.bal(g)),
        }
    }

    fn stmt_asof(&mut self) -> Stmt {
        let g = self.hot_account();
        let round = self.rng.below(HISTORY as u64) as usize;
        Stmt {
            kind: StmtKind::AsOfRead,
            body: Body::Opal(format!("{} @ {}", point_read(g), self.round_ticks[round])),
            expect: Expect::Int(self.accounts.bal_after_round(g, round)),
        }
    }

    fn stmt_loop(&mut self) -> Stmt {
        let bucket = self.hot_bucket();
        Stmt {
            kind: StmtKind::LoopSum,
            body: Body::Opal(loop_sum(bucket)),
            expect: Expect::Int(self.accounts.bucket_sum(bucket)),
        }
    }

    /// `Salary > x` with x in the middle fifth of the range: about half the
    /// set qualifies, so result size does not swing the latency.
    fn stmt_scan(&mut self) -> Stmt {
        let x = SALARY_LO + (SALARY_SPAN * 2 / 5 + self.rng.below(SALARY_SPAN / 5)) as i64;
        Stmt {
            kind: StmtKind::SelectScan,
            body: Body::Query(QuerySpec::Scan { min_salary: x }),
            expect: Expect::Rows(self.staff.paid_above(x)),
        }
    }

    fn stmt_index(&mut self) -> Stmt {
        let d = 1 + self.rng.below(DEPARTMENTS as u64) as i64;
        Stmt {
            kind: StmtKind::SelectIndex,
            body: Body::Query(QuerySpec::Index { dept: d }),
            expect: Expect::Rows(self.staff.in_dept(d)),
        }
    }

    /// The join keeps the top 5–15 % of salaries, so hashing and probing,
    /// not building the result, is most of its work.
    fn stmt_join(&mut self) -> Stmt {
        let x = SALARY_LO + (SALARY_SPAN * 17 / 20 + self.rng.below(SALARY_SPAN / 10)) as i64;
        Stmt {
            kind: StmtKind::Join,
            body: Body::Query(QuerySpec::Join { min_salary: x }),
            expect: Expect::Rows(self.staff.join_above(x)),
        }
    }

    fn small_write(&mut self) -> (Stmt, Effect) {
        let from = self.hot_account();
        let to = loop {
            let g = self.hot_account();
            if g != from {
                break g;
            }
        };
        let amount = 1 + self.rng.below(50) as i64;
        let src = format!(
            "| x y | x := (Accounts at: {}) at: {}. y := (Accounts at: {}) at: {}. \
             x at: #bal put: (x at: #bal) - {amount}. y at: #bal put: (y at: #bal) + {amount}. \
             (x at: #bal) - (y at: #bal)",
            from / PER_BUCKET,
            from % PER_BUCKET,
            to / PER_BUCKET,
            to % PER_BUCKET
        );
        let after = (self.accounts.bal(from) - amount) - (self.accounts.bal(to) + amount);
        (
            Stmt { kind: StmtKind::SmallWrite, body: Body::Opal(src), expect: Expect::Int(after) },
            Effect::Transfer { from, to, amount },
        )
    }

    /// 128 accounts (two whole buckets) updated in one statement.
    fn large_write(&mut self) -> (Stmt, Effect) {
        let a = self.hot_bucket();
        let b = loop {
            let b = self.hot_bucket();
            if b != a {
                break b;
            }
        };
        let delta = 1 + self.rng.below(9) as i64;
        let src = format!(
            "| s | s := 0. \
             (Accounts at: {a}) __elements do: [:x | x at: #bal put: (x at: #bal) + {delta}. s := s + (x at: #bal)]. \
             (Accounts at: {b}) __elements do: [:x | x at: #bal put: (x at: #bal) + {delta}. s := s + (x at: #bal)]. \
             s"
        );
        let after = self.accounts.bucket_sum(a)
            + self.accounts.bucket_sum(b)
            + 2 * PER_BUCKET as i64 * delta;
        (
            Stmt { kind: StmtKind::LargeWrite, body: Body::Opal(src), expect: Expect::Int(after) },
            Effect::Batch { buckets: [a, b], delta },
        )
    }

    /// One transaction of the given kind, with the answers the shadow model
    /// predicts for it now.
    pub fn make(&mut self, kind: OpKind) -> Op {
        let probe = matches!(
            kind,
            OpKind::ProbeRead
                | OpKind::ProbeSmallWrite
                | OpKind::ProbeLargeWrite
                | OpKind::ProbeQuery
        );
        let mut stmts = if probe { vec![Self::stmt_nil()] } else { Vec::new() };
        let mut effect = Effect::None;
        match kind {
            OpKind::HotRead => {
                stmts.extend((0..5).map(|_| self.stmt_point()));
                stmts.extend((0..2).map(|_| self.stmt_asof()));
                stmts.push(self.stmt_loop());
                self.rng.shuffle(&mut stmts);
            }
            OpKind::ScanQuery => stmts.extend((0..QUERIES_PER_TXN).map(|_| self.stmt_scan())),
            OpKind::IndexQuery => stmts.extend((0..QUERIES_PER_TXN).map(|_| self.stmt_index())),
            OpKind::JoinQuery => stmts.extend((0..QUERIES_PER_TXN).map(|_| self.stmt_join())),
            OpKind::PointRead => stmts.push(self.stmt_point()),
            OpKind::BucketScan => stmts.push(self.stmt_loop()),
            OpKind::SmallWrite | OpKind::ProbeSmallWrite => {
                let (stmt, e) = self.small_write();
                stmts.push(stmt);
                effect = e;
            }
            OpKind::LargeWrite | OpKind::ProbeLargeWrite => {
                let (stmt, e) = self.large_write();
                stmts.push(stmt);
                effect = e;
            }
            // A second `nil`, timed mid-transaction, is what a leading one
            // costs beyond the begin it absorbs.
            OpKind::ProbeRead => stmts.extend([
                Self::stmt_nil(),
                self.stmt_point(),
                self.stmt_asof(),
                self.stmt_loop(),
            ]),
            OpKind::ProbeQuery => {
                stmts.extend([self.stmt_scan(), self.stmt_index(), self.stmt_join()])
            }
        }
        Op { kind, stmts, effect }
    }

    /// Record that `op` committed.
    pub fn committed(&mut self, op: &Op) {
        match op.effect {
            Effect::None => {}
            Effect::Transfer { from, to, amount } => self.accounts.transfer(from, to, amount),
            Effect::Batch { buckets, delta } => {
                for b in buckets {
                    self.accounts.add_to_bucket(b, delta);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Shadow;

    fn shadow() -> Shadow {
        let mut s = Shadow::generate(8 * PER_BUCKET, 100, 11);
        s.round_ticks = (0..=HISTORY as u64).map(|r| 100 + r).collect();
        for r in 1..=HISTORY {
            s.accounts.apply_round(r);
        }
        s
    }

    #[test]
    fn same_seed_same_operations() {
        let s = shadow();
        let spec = spec_named("cold_mixed").unwrap();
        let ops = |seed| {
            let mut g = Generator::new(spec, seed, 0, s.accounts.clone(), &s.staff, &s.round_ticks);
            (0..60).map(|_| g.next_op()).collect::<Vec<_>>()
        };
        assert_eq!(ops(5), ops(5));
        assert_ne!(ops(5), ops(6));
    }

    #[test]
    fn every_block_has_the_exact_mix() {
        let s = shadow();
        for spec in &SPECS {
            assert_eq!(spec.block.iter().map(|&(_, n)| n).sum::<usize>(), 20, "{}", spec.name);
            let mut g = Generator::new(spec, 1, 0, s.accounts.clone(), &s.staff, &s.round_ticks);
            for _ in 0..3 {
                let block: Vec<OpKind> = (0..20).map(|_| g.next_op().kind).collect();
                for &(kind, n) in spec.block {
                    assert_eq!(block.iter().filter(|&&k| k == kind).count(), n, "{}", spec.name);
                }
            }
        }
    }

    #[test]
    fn writes_predict_the_post_state_and_update_the_model() {
        let s = shadow();
        let spec = spec_named("commit_durable").unwrap();
        let mut g = Generator::new(spec, 3, 0, s.accounts.clone(), &s.staff, &s.round_ticks);
        let total: i64 = g.accounts.bal.iter().sum();
        let op = g.make(OpKind::SmallWrite);
        let Effect::Transfer { from, to, amount } = op.effect else { panic!("not a transfer") };
        assert_ne!(from, to);
        g.committed(&op);
        assert_eq!(op.stmts[0].expect, Expect::Int(g.accounts.bal(from) - g.accounts.bal(to)));
        assert_eq!(g.accounts.bal(from), s.accounts.bal(from) - amount);
        assert_eq!(g.accounts.bal.iter().sum::<i64>(), total);
        let op = g.make(OpKind::LargeWrite);
        let Effect::Batch { buckets, .. } = op.effect else { panic!("not a batch") };
        g.committed(&op);
        let sum = g.accounts.bucket_sum(buckets[0]) + g.accounts.bucket_sum(buckets[1]);
        assert_eq!(op.stmts[0].expect, Expect::Int(sum));
        assert_eq!(op.values_written(), 128);
    }

    #[test]
    fn hot_set_bounds_the_keys() {
        let s = shadow();
        let spec = spec_named("hot_stmt").unwrap();
        let mut g = Generator::new(spec, 2, 0, s.accounts.clone(), &s.staff, &s.round_ticks);
        assert_eq!(g.working_buckets().len(), 2);
        let hot = g.working_buckets().to_vec();
        for _ in 0..20 {
            let op = g.next_op();
            assert_eq!(op.stmts.len(), 8);
            for st in &op.stmts {
                let Body::Opal(src) = &st.body else { panic!("hot_stmt sends OPAL only") };
                assert!(hot.iter().any(|b| src.contains(&format!("Accounts at: {b}"))), "{src}");
            }
        }
    }
}
