//! The harness-side shadow model: what every balance, employee and
//! department must read as. The database only ever sees generated OPAL
//! strings and `Query` values; every answer it gives is compared with this.

use crate::rng::Rng;

/// Accounts per bucket Dictionary (`Accounts at: bucket` → 64 accounts).
pub const PER_BUCKET: usize = 64;
/// Update rounds applied to every account in set-up, so `@` reads have
/// history to skip.
pub const HISTORY: usize = 8;
pub const DEPARTMENTS: usize = 16;
/// Bytes of user data per stored element value (all values are integers).
pub const VALUE_BYTES: u64 = 8;

/// Balances of a contiguous range of accounts. Clients of one workload own
/// disjoint ranges, so each mutates its own part without sharing.
#[derive(Debug, Clone, PartialEq)]
pub struct Accounts {
    /// Global index of the first account in this part.
    pub lo: usize,
    /// Balance right after creation, before the history rounds.
    pub init: Vec<i64>,
    /// Current balance.
    pub bal: Vec<i64>,
}

impl Accounts {
    pub fn generate(n: usize, rng: &mut Rng) -> Accounts {
        assert!(n.is_multiple_of(PER_BUCKET), "accounts come in whole buckets");
        let init: Vec<i64> = (0..n).map(|_| 1_000 + rng.below(9_000) as i64).collect();
        Accounts { lo: 0, bal: init.clone(), init }
    }

    pub fn len(&self) -> usize {
        self.bal.len()
    }

    pub fn buckets(&self) -> std::ops::Range<usize> {
        self.lo / PER_BUCKET..(self.lo + self.len()) / PER_BUCKET
    }

    /// History round `r` (1-based) adds `r` to every balance.
    pub fn apply_round(&mut self, r: usize) {
        for b in &mut self.bal {
            *b += r as i64;
        }
    }

    /// Balance of global account `g` once `r` history rounds had committed.
    pub fn bal_after_round(&self, g: usize, r: usize) -> i64 {
        self.init[g - self.lo] + (r * (r + 1) / 2) as i64
    }

    pub fn bal(&self, g: usize) -> i64 {
        self.bal[g - self.lo]
    }

    pub fn bucket_sum(&self, bucket: usize) -> i64 {
        let at = bucket * PER_BUCKET - self.lo;
        self.bal[at..at + PER_BUCKET].iter().sum()
    }

    pub fn transfer(&mut self, from: usize, to: usize, amount: i64) {
        self.bal[from - self.lo] -= amount;
        self.bal[to - self.lo] += amount;
    }

    pub fn add_to_bucket(&mut self, bucket: usize, delta: i64) {
        let at = bucket * PER_BUCKET - self.lo;
        for b in &mut self.bal[at..at + PER_BUCKET] {
            *b += delta;
        }
    }

    /// Split into `parts` contiguous ranges of whole buckets.
    pub fn split(self, parts: usize) -> Vec<Accounts> {
        let buckets = self.len() / PER_BUCKET;
        assert!(parts >= 1 && buckets >= parts, "fewer buckets than clients");
        (0..parts)
            .map(|p| {
                let (from, to) =
                    (p * buckets / parts * PER_BUCKET, (p + 1) * buckets / parts * PER_BUCKET);
                Accounts {
                    lo: self.lo + from,
                    init: self.init[from..to].to_vec(),
                    bal: self.bal[from..to].to_vec(),
                }
            })
            .collect()
    }

    /// Inverse of [`Accounts::split`].
    pub fn join(mut parts: Vec<Accounts>) -> Accounts {
        parts.sort_by_key(|p| p.lo);
        let mut all = Accounts { lo: parts[0].lo, init: Vec::new(), bal: Vec::new() };
        for p in parts {
            assert_eq!(p.lo, all.lo + all.len(), "account parts must be contiguous");
            all.init.extend(p.init);
            all.bal.extend(p.bal);
        }
        all
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct Employee {
    pub name: i64,
    pub salary: i64,
    pub dept: i64,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Department {
    pub no: i64,
    pub budget: i64,
    pub managers: Vec<i64>,
}

/// The §5.1 shapes. Read-only after set-up, so clients share it.
#[derive(Debug, Clone, PartialEq)]
pub struct Staff {
    pub employees: Vec<Employee>,
    pub departments: Vec<Department>,
}

pub const SALARY_LO: i64 = 18_000;
pub const SALARY_SPAN: u64 = 20_000;

impl Staff {
    pub fn generate(employees: usize, rng: &mut Rng) -> Staff {
        let departments = (1..=DEPARTMENTS as i64)
            .map(|no| Department {
                no,
                budget: 100_000 + rng.below(200_000) as i64,
                managers: vec![no * 1_000 + 1, no * 1_000 + 2],
            })
            .collect();
        let employees = (1..=employees as i64)
            .map(|name| Employee {
                name,
                salary: SALARY_LO + rng.below(SALARY_SPAN) as i64,
                dept: 1 + rng.below(DEPARTMENTS as u64) as i64,
            })
            .collect();
        Staff { employees, departments }
    }

    fn names_and_salaries(&self, keep: impl Fn(&Employee) -> bool) -> Rows {
        let mut rows = Rows::default();
        for e in self.employees.iter().filter(|e| keep(e)) {
            rows.add(e.name, e.salary);
        }
        rows
    }

    /// (Name, Salary) of everyone with `Salary > x`.
    pub fn paid_above(&self, x: i64) -> Rows {
        self.names_and_salaries(|e| e.salary > x)
    }

    /// (Name, Salary) of everyone in department `dept`.
    pub fn in_dept(&self, dept: i64) -> Rows {
        self.names_and_salaries(|e| e.dept == dept)
    }

    /// `Employees ⋈ Departments` on `Dept = DeptNo`, restricted to
    /// `Salary > x`, projected to (Name, Budget).
    pub fn join_above(&self, x: i64) -> Rows {
        let mut rows = Rows::default();
        for e in self.employees.iter().filter(|e| e.salary > x) {
            for d in self.departments.iter().filter(|d| d.no == e.dept) {
                rows.add(e.name, d.budget);
            }
        }
        rows
    }
}

/// An order-free digest of a two-column result: its row count plus a sum
/// that changes if any (a, b) pairing does.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Rows {
    pub count: u64,
    pub digest: i64,
}

impl Rows {
    pub fn add(&mut self, a: i64, b: i64) {
        self.count += 1;
        self.digest = self.digest.wrapping_add(a.wrapping_mul(1_000_003).wrapping_add(b));
    }
}

/// Everything the database holds, as the harness expects to read it back.
#[derive(Debug, Clone, PartialEq)]
pub struct Shadow {
    pub accounts: Accounts,
    pub staff: Staff,
    /// `round_ticks[r]` = commit time at which every account had exactly
    /// `r` history rounds applied (`0` = creation).
    pub round_ticks: Vec<u64>,
}

impl Shadow {
    pub fn generate(accounts: usize, employees: usize, seed: u64) -> Shadow {
        let mut rng = Rng::new(seed);
        Shadow {
            accounts: Accounts::generate(accounts, &mut rng),
            staff: Staff::generate(employees, &mut rng),
            round_ticks: Vec::new(),
        }
    }

    /// Element values the set-up script stores (creation plus history): the
    /// "user bytes written" behind the amplification ratios.
    pub fn setup_values_written(&self) -> u64 {
        let accounts = self.accounts.len() as u64 * (2 + HISTORY as u64);
        let employees = self.staff.employees.len() as u64 * 3;
        let departments: u64 =
            self.staff.departments.iter().map(|d| 2 + d.managers.len() as u64).sum();
        accounts + employees + departments
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_model() {
        assert_eq!(Shadow::generate(128, 50, 7), Shadow::generate(128, 50, 7));
        assert_ne!(Shadow::generate(128, 50, 7), Shadow::generate(128, 50, 8));
    }

    #[test]
    fn history_rounds_are_triangular() {
        let mut a = Accounts::generate(64, &mut Rng::new(1));
        for r in 1..=HISTORY {
            a.apply_round(r);
        }
        assert_eq!(a.bal(5), a.bal_after_round(5, HISTORY));
        assert_eq!(a.bal_after_round(5, 0), a.init[5]);
        assert_eq!(a.bal_after_round(5, 3) - a.init[5], 6);
    }

    #[test]
    fn split_parts_are_disjoint_and_join_back() {
        let mut all = Accounts::generate(4 * PER_BUCKET, &mut Rng::new(3));
        all.apply_round(1);
        let total: i64 = all.bal.iter().sum();
        let mut parts = all.clone().split(2);
        assert_eq!(parts[0].buckets(), 0..2);
        assert_eq!(parts[1].buckets(), 2..4);
        // A transfer inside one part conserves money and leaves the other alone.
        let g = parts[1].lo;
        parts[1].transfer(g, g + 70, 25);
        parts[1].add_to_bucket(3, 2);
        assert_eq!(parts[1].bal(g), all.bal(g) - 25);
        assert_eq!(parts[1].bucket_sum(3), all.bucket_sum(3) + 25 + 2 * PER_BUCKET as i64);
        let joined = Accounts::join(parts);
        assert_eq!(joined.lo, 0);
        assert_eq!(joined.bal.iter().sum::<i64>(), total + 2 * PER_BUCKET as i64);
        assert_eq!(joined.bal[..2 * PER_BUCKET], all.bal[..2 * PER_BUCKET]);
    }

    #[test]
    fn join_digest_sees_a_wrong_pairing() {
        let staff = Staff::generate(200, &mut Rng::new(9));
        let right = staff.join_above(SALARY_LO);
        assert_eq!(right.count, 200);
        let mut wrong = staff.clone();
        wrong.employees[0].dept = wrong.employees[0].dept % DEPARTMENTS as i64 + 1;
        assert_ne!(wrong.join_above(SALARY_LO).digest, right.digest);
        assert_eq!(staff.paid_above(SALARY_LO + SALARY_SPAN as i64).count, 0);
        let by_dept: u64 = (1..=DEPARTMENTS as i64).map(|d| staff.in_dept(d).count).sum();
        assert_eq!(by_dept, 200);
    }
}
