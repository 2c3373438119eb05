//! Set-up, reopen and the durability check — the database is driven only
//! through `GemStone::create_file` / `open_file`, `login`, `Session::run`
//! and `Session::commit`.

use crate::model::{Shadow, HISTORY, PER_BUCKET};
use crate::workload::Spec;
use gemstone::{GemStone, StoreConfig};
use gemstone_opal::OpalWorld;
use std::path::Path;

pub const TRACK_SIZE: usize = 2048;
/// A track cache no resident workload can fill: capacity is a bound, not
/// an allocation.
const UNBOUNDED_TRACKS: usize = 1 << 22;

pub type Fallible<T> = Result<T, String>;

pub fn err<E: std::fmt::Display>(what: &str) -> impl Fn(E) -> String + '_ {
    move |e| format!("{what}: {e}")
}

/// What set-up left on disk.
#[derive(Debug, Clone, Copy)]
pub struct Built {
    pub tracks: u64,
    pub objects: u64,
    pub bytes_written: u64,
}

fn ints(values: impl Iterator<Item = i64>) -> String {
    values.map(|v| v.to_string()).collect::<Vec<_>>().join(" ")
}

/// One set-up transaction in a session of its own. A session re-reads
/// every object it has ever touched at each transaction begin, so a single
/// long loading session would make set-up quadratic in the database size.
fn load(gs: &GemStone, source: &str) -> Fallible<u64> {
    let mut s = gs.login("system").map_err(err("login"))?;
    s.run(source).map_err(|e| format!("set-up statement failed: {e}\n{source}"))?;
    Ok(s.commit().map_err(err("set-up commit"))?.ticks())
}

/// Create the database file at `path` and populate it from the shadow
/// model, recording the commit time of each history round in
/// `shadow.round_ticks`. The database is closed when this returns.
pub fn build(path: &Path, shadow: &mut Shadow) -> Fallible<Built> {
    let cfg = StoreConfig { track_size: TRACK_SIZE, cache_tracks: UNBOUNDED_TRACKS, replicas: 1 };
    let gs = GemStone::create_file(path, cfg).map_err(err("create_file"))?;
    load(&gs, "Accounts := Dictionary new. Employees := Set new. Departments := Set new")?;

    let buckets = shadow.accounts.len() / PER_BUCKET;
    let mut created = 0;
    for b in 0..buckets {
        let init = &shadow.accounts.init[b * PER_BUCKET..(b + 1) * PER_BUCKET];
        created = load(
            &gs,
            &format!(
                "| init bk a | init := #({}). bk := Dictionary new. Accounts at: {b} put: bk. \
                 0 to: {} do: [:k | a := Dictionary new. a at: #bal put: (init at: k + 1). \
                 a at: #owner put: {} + k. bk at: k put: a]",
                ints(init.iter().copied()),
                PER_BUCKET - 1,
                b * PER_BUCKET
            ),
        )?;
    }
    shadow.round_ticks = vec![created];
    for round in 1..=HISTORY {
        let mut done = 0;
        for b in 0..buckets {
            done = load(
                &gs,
                &format!(
                    "(Accounts at: {b}) __elements do: [:a | a at: #bal put: (a at: #bal) + {round}]"
                ),
            )?;
        }
        shadow.accounts.apply_round(round);
        shadow.round_ticks.push(done);
    }

    for d in &shadow.staff.departments {
        load(
            &gs,
            &format!(
                "| d m | d := Dictionary new. d at: #DeptNo put: {}. d at: #Budget put: {}. \
                 m := Set new. #({}) do: [:x | m add: x]. d at: #Managers put: m. Departments add: d",
                d.no,
                d.budget,
                ints(d.managers.iter().copied())
            ),
        )?;
    }
    for chunk in shadow.staff.employees.chunks(250) {
        load(
            &gs,
            &format!(
                "| names sal dep e | names := #({}). sal := #({}). dep := #({}). \
                 1 to: {} do: [:i | e := Dictionary new. e at: #Name put: (names at: i). \
                 e at: #Salary put: (sal at: i). e at: #Dept put: (dep at: i). Employees add: e]",
                ints(chunk.iter().map(|e| e.name)),
                ints(chunk.iter().map(|e| e.salary)),
                ints(chunk.iter().map(|e| e.dept)),
                chunk.len()
            ),
        )?;
    }
    load(&gs, "System createIndexOn: Employees path: #Dept")?;

    let db = gs.database();
    let tracks = db.with_disk(|d| d.replica_mut(0).tracks_in_use()) as u64;
    Ok(Built {
        tracks,
        objects: db.store().object_count() as u64,
        bytes_written: db.storage_stats().1.bytes_written,
    })
}

/// Cache sizes `spec` runs with over a database of `built`'s size. The file
/// is append-only and set-up rewrote every account `HISTORY` times, so only
/// about one track in `HISTORY + 1` holds a live object image: a track cache
/// sized against the whole file would hold the entire live set.
pub fn cache_sizes(spec: &Spec, built: &Built) -> (usize, Option<usize>) {
    match spec.cache_fraction {
        None => (UNBOUNDED_TRACKS, None),
        Some(n) => {
            let live_tracks = built.tracks as usize / (HISTORY + 1);
            ((live_tracks / n).max(8), Some((built.objects as usize / n).max(8)))
        }
    }
}

/// Reopen the database file with the workload's cache sizes.
pub fn open(path: &Path, spec: &Spec, built: &Built) -> Fallible<GemStone> {
    let (tracks, objects) = cache_sizes(spec, built);
    let gs = GemStone::open_file(path, tracks).map_err(err("open_file"))?;
    gs.database().set_object_cache_limit(objects);
    Ok(gs)
}

/// The durability check: every balance, every as-of balance of the oldest
/// and the newest history round, and the staff figures must read back from
/// `gs` exactly as the shadow model holds them — every acknowledged commit
/// present, nothing else applied.
pub fn verify(gs: &GemStone, shadow: &Shadow) -> Fallible<()> {
    let mut s = gs.login("system").map_err(err("login"))?;
    // An answer is an integer or an OrderedCollection of integers.
    let mut ask = |source: &str| -> Fallible<Vec<i64>> {
        let failed = |e| format!("verify failed: {e}\n{source}");
        let v = s.run(source).map_err(failed)?;
        let items = match v.as_int() {
            Some(i) => vec![i],
            None => OpalWorld::elements(&mut s, v)
                .map_err(failed)?
                .into_iter()
                .filter_map(|x| x.as_int())
                .collect(),
        };
        // The collections built to carry answers out are scratch objects.
        s.abort();
        Ok(items)
    };
    let accounts = &shadow.accounts;
    for b in accounts.buckets() {
        let range = b * PER_BUCKET - accounts.lo..(b + 1) * PER_BUCKET - accounts.lo;
        for (what, at, want) in [
            ("current", String::new(), accounts.bal[range.clone()].to_vec()),
            (
                "creation-time",
                format!(" @ {}", shadow.round_ticks[0]),
                accounts.init[range.clone()].to_vec(),
            ),
            (
                "last-round",
                format!(" @ {}", shadow.round_ticks[HISTORY]),
                range.clone().map(|i| accounts.bal_after_round(accounts.lo + i, HISTORY)).collect(),
            ),
        ] {
            let got = ask(&format!(
                "| r bk | r := OrderedCollection new. bk := Accounts at: {b}. \
                 0 to: {} do: [:k | r add: (bk at: k) ! bal{at}]. r",
                PER_BUCKET - 1
            ))?;
            if got != want {
                let k = got.iter().zip(&want).position(|(g, w)| g != w).unwrap_or(0);
                return Err(format!(
                    "bucket {b}: {what} balances differ from the shadow model (account {}: \
                     database {:?}, model {:?})",
                    b * PER_BUCKET + k,
                    got.get(k),
                    want.get(k)
                ));
            }
        }
    }
    let total = ask("Accounts __elements inject: 0 into: [:t :bk | bk __elements inject: t into: [:u :a | u + (a at: #bal)]]")?;
    let want: i64 = accounts.bal.iter().sum();
    if total != [want] {
        return Err(format!("sum of balances is {total:?}, the shadow model has {want}"));
    }
    let staff = &shadow.staff;
    let got = ask(
        "| r | r := OrderedCollection new. r add: Employees size. \
         r add: (Employees inject: 0 into: [:t :e | t + (e at: #Salary)]). \
         r add: (Employees inject: 0 into: [:t :e | t + ((e at: #Dept) * (e at: #Name))]). \
         r add: Departments size. \
         r add: (Departments inject: 0 into: [:t :d | t + (d at: #Budget) + (d at: #Managers) size]). r",
    )?;
    let want = vec![
        staff.employees.len() as i64,
        staff.employees.iter().map(|e| e.salary).sum(),
        staff.employees.iter().map(|e| e.dept * e.name).sum(),
        staff.departments.len() as i64,
        staff.departments.iter().map(|d| d.budget + d.managers.len() as i64).sum(),
    ];
    if got != want {
        return Err(format!("staff figures are {got:?}, the shadow model has {want:?}"));
    }
    Ok(())
}
