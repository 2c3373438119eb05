//! Unit costs, measured by calling each layer's public functions directly
//! — what the harness cannot see from outside `Session::run` it prices
//! from these. Run only in traced mode, after the timed phases.

use crate::client::{Client, Tracer};
use crate::db::{err, Fallible, TRACK_SIZE};
use crate::stats::{mean, median};
use crate::workload::{OpKind, StmtKind};
use gemstone::{FaultFile, GemStone, TrackDisk, TrackId, TxnTime};
use gemstone_object::{ElemName, Goop};
use gemstone_txn::{AccessSet, SlotId, TransactionManager};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

fn us_since(t: Instant) -> f64 {
    t.elapsed().as_nanos() as f64 / 1e3
}

/// Probe transactions per kind: enough for a median, few enough that the
/// probes stay a small part of a traced run.
const PROBE_TXNS: [(OpKind, usize); 4] = [
    (OpKind::ProbeRead, 200),
    (OpKind::ProbeSmallWrite, 50),
    (OpKind::ProbeLargeWrite, 6),
    (OpKind::ProbeQuery, 20),
];

/// Statement and commit medians from the probe transactions, run on the
/// workload's own client: its session state, its cache configuration.
#[derive(Debug, Default)]
pub struct SessionProbes {
    /// Median µs of one statement of each kind, mid-transaction.
    pub stmt_p50_us: BTreeMap<StmtKind, f64>,
    /// A `nil` statement mid-transaction: what a leading `nil` costs beyond
    /// the begin it absorbs.
    pub nil_us: f64,
    pub commit_ro_us: f64,
    pub commit_rw_us: f64,
    pub login_us: f64,
    /// Pure interpretation: a counting loop's time over its dispatches.
    pub ns_per_dispatch: f64,
}

pub fn session_probes(
    client: &mut Client,
    tracer: &mut Tracer,
    gs: &GemStone,
) -> Fallible<SessionProbes> {
    let epoch = Instant::now();
    let mut stmts: BTreeMap<(StmtKind, bool), Vec<f64>> = BTreeMap::new();
    let mut commits: BTreeMap<OpKind, Vec<f64>> = BTreeMap::new();
    for (kind, n) in PROBE_TXNS {
        for _ in 0..n {
            let op = client.gen.make(kind);
            client.run_op(&op, epoch, Some(tracer));
            if !client.last.ok {
                continue;
            }
            for (i, &(st, start, end)) in client.last.stmts.iter().enumerate() {
                stmts.entry((st, i == 0)).or_default().push((end - start) as f64 / 1e3);
            }
            commits.entry(kind).or_default().push(client.last.commit_ns as f64 / 1e3);
        }
    }
    let med = |m: &mut BTreeMap<_, Vec<f64>>, key| m.get_mut(&key).map(|v| median(v));
    let missing = || "a probe transaction kind never succeeded".to_string();
    let nil_mid = med(&mut stmts, (StmtKind::Nil, false)).ok_or_else(missing)?;
    let mut p = SessionProbes { nil_us: nil_mid, ..Default::default() };
    for ((kind, first), v) in &mut stmts {
        if !*first {
            p.stmt_p50_us.insert(*kind, median(v));
        }
    }
    p.commit_ro_us = commits.get_mut(&OpKind::ProbeRead).map(|v| median(v)).ok_or_else(missing)?;
    p.commit_rw_us =
        commits.get_mut(&OpKind::ProbeSmallWrite).map(|v| median(v)).ok_or_else(missing)?;

    let mut logins: Vec<f64> = (0..20)
        .map(|_| {
            let t = Instant::now();
            black_box(gs.login("system").map_err(err("login"))?);
            Ok(us_since(t))
        })
        .collect::<Fallible<_>>()?;
    p.login_us = median(&mut logins);

    // A fresh session, so no refresh cost hides in the loop's time.
    let dispatches = gs.telemetry().registry.counter("opal.interp.dispatches");
    let mut s = gs.login("system").map_err(err("login"))?;
    s.run("nil").map_err(err("interp probe"))?;
    let mut per: Vec<f64> = Vec::new();
    for _ in 0..10 {
        let before = dispatches.get();
        let t = Instant::now();
        s.run("| s | s := 0. 1 to: 20000 do: [:i | s := s + i]. s").map_err(err("interp probe"))?;
        let us = us_since(t);
        per.push(us * 1e3 / (dispatches.get() - before).max(1) as f64);
    }
    s.abort();
    p.ns_per_dispatch = median(&mut per);
    Ok(p)
}

/// Object reads straight from the Object Manager of a freshly reopened
/// database, each `get` classed by what the counters say it did: found the
/// object resident, faulted it from cached tracks, or faulted it and read
/// tracks. (Reopening already faults in whatever the directories index, so
/// "freshly reopened" alone does not make an object cold.)
#[derive(Debug, Default)]
pub struct StoreProbe {
    /// A fault as a cold reader meets it, track reads included.
    pub get_fault_us: f64,
    pub get_resident_us: f64,
    /// A fault whose tracks are cached: locate, copy out, decode.
    pub fault_cached_us: f64,
    /// What one track-cache miss adds to a fault: the read, the checksum,
    /// the cache fill.
    pub track_miss_us: f64,
}

pub fn store_probe(gs: &GemStone, object_limit: Option<usize>) -> Fallible<StoreProbe> {
    let db = gs.database();
    let store = db.store();
    let registry = &gs.telemetry().registry;
    let (faults, reads) =
        (registry.counter("storage.store.object_faults"), registry.counter("storage.disk.reads"));
    let mut goops = store.all_goops();
    goops.sort_unstable_by_key(|g| g.0);
    // Spread over the whole database, and few enough that their tracks stay
    // in the smallest track cache a workload runs with.
    let want = store.cache_capacity().clamp(16, 256);
    let step = (goops.len() / want).max(1);
    let sample: Vec<Goop> = goops.into_iter().step_by(step).take(want).collect();
    let (mut cold_us, mut cold_reads, mut cached_us) = (Vec::new(), Vec::new(), Vec::new());
    // Each object twice: as the reopening left it, then evicted again at
    // once — its tracks are then certainly still cached.
    for &g in &sample {
        for evict_first in [false, true] {
            if evict_first {
                db.set_object_cache_limit(Some(0));
                db.set_object_cache_limit(Some(sample.len()));
            }
            let (f0, r0) = (faults.get(), reads.get());
            let t = Instant::now();
            black_box(store.get(g).map_err(err("store.get"))?);
            let us = us_since(t);
            match (faults.get() - f0, reads.get() - r0) {
                (0, _) => {}
                (_, 0) => cached_us.push(us),
                (_, r) => {
                    cold_us.push(us);
                    cold_reads.push(r as f64);
                }
            }
        }
    }
    // Fault the whole sample back in, then time it resident.
    for &g in &sample {
        store.get(g).map_err(err("store.get"))?;
    }
    let t = Instant::now();
    for &g in &sample {
        black_box(store.get(g).map_err(err("store.get"))?);
    }
    let resident_us = us_since(t) / sample.len() as f64;
    db.set_object_cache_limit(object_limit);
    let (cold, cached) = (mean(&cold_us), mean(&cached_us));
    Ok(StoreProbe {
        get_fault_us: if cold_us.is_empty() { cached } else { cold },
        get_resident_us: resident_us,
        fault_cached_us: cached,
        track_miss_us: ((cold - cached) / mean(&cold_reads).max(1.0)).max(0.0),
    })
}

/// Whole-track I/O on a scratch file of the database's track size.
#[derive(Debug, Default)]
pub struct DiskProbe {
    pub read_track_us: f64,
    pub write_track_us: f64,
    pub sync_us: f64,
}

pub fn disk_probe(dir: &Path) -> Fallible<DiskProbe> {
    const TRACKS: u32 = 256;
    let path = dir.join("scratch.trk");
    let mut disk = FaultFile::create(&path, TRACK_SIZE).map_err(err("scratch file"))?;
    let payload = vec![0xA5u8; TRACK_SIZE - 64];
    let (mut writes, mut syncs, mut reads) = (Vec::new(), Vec::new(), Vec::new());
    for id in 0..TRACKS {
        let t = Instant::now();
        disk.write_track(TrackId(id), &payload).map_err(err("write_track"))?;
        writes.push(us_since(t));
        // A commit group is a few tracks between barriers.
        if id % 4 == 3 {
            let t = Instant::now();
            disk.sync().map_err(err("sync"))?;
            syncs.push(us_since(t));
        }
    }
    for _ in 0..4 {
        for id in 0..TRACKS {
            let t = Instant::now();
            black_box(disk.read_track(TrackId(id)).map_err(err("read_track"))?);
            reads.push(us_since(t));
        }
    }
    drop(disk);
    std::fs::remove_file(&path).map_err(err("remove scratch file"))?;
    Ok(DiskProbe {
        read_track_us: mean(&reads),
        write_track_us: mean(&writes),
        sync_us: median(&mut syncs),
    })
}

/// `begin` + `commit` on a private Transaction Manager with the set sizes
/// of a small transfer (4 element reads, 2 element writes): validation
/// with no storage behind it.
pub fn txn_probe() -> Fallible<f64> {
    const ROUNDS: u64 = 20_000;
    let tm = TransactionManager::new(TxnTime::EPOCH);
    let t = Instant::now();
    for i in 0..ROUNDS {
        let token = tm.begin();
        let (mut reads, mut writes) = (AccessSet::new(), AccessSet::new());
        for k in 0..4 {
            reads.record(SlotId::Elem(Goop(1 + (i * 7 + k) % 4096), ElemName::Int(0)));
        }
        for k in 0..2 {
            writes.record(SlotId::Elem(Goop(1 + (i * 7 + k) % 4096), ElemName::Int(0)));
        }
        tm.commit(token, &reads, &writes).map_err(err("private commit"))?;
    }
    Ok(us_since(t) / ROUNDS as f64)
}

/// Fixed CPU work (an integer mixing loop), timed, so machine speed is on
/// record beside every traced run. Returns ns per iteration.
pub fn calibration_ns() -> f64 {
    const ITERS: u64 = 20_000_000;
    let t = Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for i in 0..ITERS {
        x = black_box((x ^ i).wrapping_mul(0xBF58_476D_1CE4_E5B9).rotate_left(17));
    }
    black_box(x);
    us_since(t) * 1e3 / ITERS as f64
}
