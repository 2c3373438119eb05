//! The experiment report: prints the counted series for every claim-driven
//! experiment in DESIGN.md §3 that is about *counts* (faults, aborts, disk
//! traffic, redundancy) rather than latency — the C4, C6, C7, C9, T2 and
//! C-join tables. EXPERIMENTS.md records a captured run. It writes no file
//! and gates nothing; the counter invariants live in the test suites.
//!
//! ```sh
//! cargo run --release --example report
//! ```

use gemstone::{ElemName, GemError, GemStone, Session, StoreConfig};
use gemstone_calculus::{
    eval_algebra_stats, translate_with, CmpOp, IndexCatalog, PlanOptions, PlanStats, Pred, Query,
    Range, Term, VarId,
};
use gemstone_loom::LoomMemory;
use gemstone_opal::OpalWorld;
use gemstone_stdm::encode::{flatten_children, flattened_bytes, payload_bytes};
use gemstone_stdm::{LabeledSet, SValue};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

fn main() {
    c4_abort_rate();
    c6_directory_crossover();
    c7_loom_vs_object_manager();
    c9_history_growth();
    t2_redundancy();
    c_join_plans();
}

/// A deterministic RNG for workloads.
fn rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// A fresh in-memory GemStone plus a logged-in session.
fn fresh() -> (GemStone, Session) {
    let gs = GemStone::create(StoreConfig::default()).expect("db");
    let s = gs.login("system").expect("login");
    (gs, s)
}

/// Populate `Employees` (a committed Set global) with `n` synthetic staff
/// carrying `Salary`, `Dept` and `Name` elements. Returns the salary values
/// used, in insertion order.
fn build_employees(s: &mut Session, n: usize) -> Vec<i64> {
    let mut r = rng(42);
    s.run("Employees := Set new").expect("create");
    let mut salaries = Vec::with_capacity(n);
    for chunk in (0..n).collect::<Vec<_>>().chunks(500) {
        let mut src = String::from("| e |\n");
        for &i in chunk {
            let salary = 18_000 + r.gen_range(0..20_000) as i64;
            salaries.push(salary);
            src.push_str(&format!(
                "e := Dictionary new. e at: #Salary put: {salary}. \
                 e at: #Dept put: {}. e at: #Name put: 'emp{i}'. Employees add: e.\n",
                i % 7
            ));
        }
        s.run(&src).expect("populate");
        s.commit().expect("commit");
    }
    salaries
}

/// Populate two independent committed sets for the join experiment:
/// `Orders` (`n` elements, each with `#Part`/`#Qty`) and `Parts` (`m`
/// elements with distinct `#PartNo` plus `#Weight`). Order `i` references
/// part `i % m`, so every order joins with exactly one part.
fn build_join_collections(s: &mut Session, n: usize, m: usize) {
    s.run("Orders := Set new. Parts := Set new").expect("create");
    for chunk in (0..n).collect::<Vec<_>>().chunks(500) {
        let mut src = String::from("| o |\n");
        for &i in chunk {
            src.push_str(&format!(
                "o := Dictionary new. o at: #Part put: {}. o at: #Qty put: {}. Orders add: o.\n",
                i % m,
                1 + (i % 9)
            ));
        }
        s.run(&src).expect("orders");
        s.commit().expect("commit");
    }
    for chunk in (0..m).collect::<Vec<_>>().chunks(500) {
        let mut src = String::from("| p |\n");
        for &i in chunk {
            src.push_str(&format!(
                "p := Dictionary new. p at: #PartNo put: {i}. p at: #Weight put: {}. Parts add: p.\n",
                10 + (i % 90)
            ));
        }
        s.run(&src).expect("parts");
        s.commit().expect("commit");
    }
}

/// The calculus equi-join over [`build_join_collections`]'s sets:
/// `{(o!Qty, p!Weight) | o ∈ Orders, p ∈ Parts, o!Part = p!PartNo}`.
/// The two ranges are independent and linked only by the equality, so the
/// planner is free to choose a hash join.
fn join_query(s: &mut Session) -> Query {
    let orders_sym = s.intern("Orders");
    let parts_sym = s.intern("Parts");
    let orders = s.get_global(orders_sym).expect("Orders global");
    let parts = s.get_global(parts_sym).expect("Parts global");
    let part = ElemName::Sym(s.intern("Part"));
    let part_no = ElemName::Sym(s.intern("PartNo"));
    let qty = s.intern("Qty");
    let weight = s.intern("Weight");
    let (v0, v1) = (VarId(0), VarId(1));
    Query {
        result: vec![
            (qty, Term::Path(v0, vec![ElemName::Sym(qty)])),
            (weight, Term::Path(v1, vec![ElemName::Sym(weight)])),
        ],
        ranges: vec![
            Range { var: v0, domain: Term::Const(orders) },
            Range { var: v1, domain: Term::Const(parts) },
        ],
        pred: Pred::Cmp(Term::Path(v0, vec![part]), CmpOp::Eq, Term::Path(v1, vec![part_no])),
    }
}
/// C4: abort rate vs contention (uniform vs hot-key writes).
fn c4_abort_rate() {
    println!("── C4: optimistic concurrency — abort rate vs contention ──");
    println!("{:<22} {:>10} {:>10} {:>12}", "workload", "commits", "aborts", "abort rate");
    for (label, n_keys) in
        [("hot (1 key)", 1usize), ("skewed (4 keys)", 4), ("uniform (256 keys)", 256)]
    {
        let gs = GemStone::in_memory();
        let mut setup = gs.login("system").unwrap();
        setup.run("Accounts := Dictionary new").unwrap();
        setup
            .run(&format!(
                "| a | 0 to: {} do: [:i | a := Dictionary new. a at: #v put: 0. Accounts at: i put: a]",
                n_keys.max(256) - 1
            ))
            .unwrap();
        setup.commit().unwrap();
        drop(setup);
        std::thread::scope(|scope| {
            for t in 0..4 {
                let gs = gs.clone();
                scope.spawn(move || {
                    let mut s = gs.login("system").unwrap();
                    let mut r = rng(t as u64);
                    for _ in 0..100 {
                        let key = r.gen_range(0..n_keys);
                        // Read-compute-write with the transaction held open
                        // across the "computation" — the realistic window in
                        // which optimistic conflicts arise.
                        s.run(&format!("Tmp := (Accounts at: {key}) at: #v")).unwrap();
                        s.run("| x | x := 0. 1 to: 400 do: [:i | x := x + i]. x").unwrap();
                        s.run(&format!("(Accounts at: {key}) at: #v put: Tmp + 1")).unwrap();
                        match s.commit() {
                            Ok(_) | Err(GemError::TransactionConflict { .. }) => {}
                            Err(e) => panic!("{e}"),
                        }
                    }
                });
            }
        });
        let (commits, aborts) = gs.database().txn_counts();
        println!(
            "{label:<22} {commits:>10} {aborts:>10} {:>11.1}%",
            100.0 * aborts as f64 / (commits + aborts) as f64
        );
    }
    println!();
}

/// C6: directory lookup vs scan — crossover on collection size.
fn c6_directory_crossover() {
    println!("── C6: equality selection — scan vs directory (median of runs) ──");
    println!("{:>8} {:>14} {:>14} {:>9}", "size", "scan µs", "directory µs", "speedup");
    for &n in &[100usize, 500, 2000, 8000] {
        let (_gs, mut s) = fresh();
        let salaries = build_employees(&mut s, n);
        let probe = salaries[n / 2];
        let query = format!("(Employees select: [:e | e Salary = {probe}]) size");
        let scan_us = median_us(9, || {
            s.run(&query).unwrap();
        });
        s.run("System createIndexOn: Employees path: #Salary").unwrap();
        s.commit().unwrap();
        let idx_us = median_us(9, || {
            s.run(&query).unwrap();
        });
        println!("{n:>8} {scan_us:>14.1} {idx_us:>14.1} {:>8.1}x", scan_us / idx_us);
    }
    println!();
}

fn median_us(runs: usize, mut f: impl FnMut()) -> f64 {
    let mut samples: Vec<f64> = (0..runs)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[runs / 2]
}

/// C7: LOOM two-level memory vs the GemStone Object Manager — disk reads
/// to serve a random access sweep, across resident-cache sizes. Both run at
/// the storage layer on identical object graphs, with the same resident
/// bytes: the OM's track cache holds as many bytes of the graph as LOOM's
/// object cache holds objects, and the OM sweeps a store freshly reopened
/// from its disk, so no image or track is resident from the load.
fn c7_loom_vs_object_manager() {
    use gemstone_object::{ClassId, ElemName, Goop, PRef, SegmentId};
    use gemstone_storage::{ObjectDelta, PermanentStore};
    use gemstone_temporal::TxnTime;
    use std::collections::BTreeSet;

    println!("── C7: LOOM vs GemStone Object Manager — track reads per 1000 accesses ──");
    println!(
        "{:>14} {:>12} {:>12} {:>12} {:>14}",
        "cache(objects)", "OM tracks", "LOOM reads", "OM reads", "OM advantage"
    );
    const N: usize = 800;
    const ACCESSES: usize = 1000;
    const TRACK: usize = 8192;
    for &cache in &[50usize, 200, 800] {
        // LOOM: objects written one-by-one, no clustering; every fault is
        // that object's own track I/O.
        let mut loom = LoomMemory::new(TRACK, cache);
        let loom_oops: Vec<_> = (0..N).map(|i| loom.create(vec![i as u32]).unwrap()).collect();
        loom.flush().unwrap();
        loom.reset_stats();
        let mut r = rng(11);
        for _ in 0..ACCESSES {
            let i = r.gen_range(0..N);
            loom.read_field(loom_oops[i], 0).unwrap();
        }
        let loom_reads = loom.disk_stats().track_reads;

        // GemStone OM: the same graph committed in batches of 100 — the
        // Boxer clusters each batch onto shared tracks.
        let store =
            PermanentStore::create(StoreConfig { track_size: TRACK, cache_tracks: 8, replicas: 1 })
                .unwrap();
        let goops: Vec<Goop> = (0..N).map(|_| store.alloc_goop()).collect();
        for (batch_no, chunk) in goops.chunks(100).enumerate() {
            let deltas: Vec<ObjectDelta> = chunk
                .iter()
                .map(|g| ObjectDelta {
                    goop: *g,
                    class: ClassId(3),
                    segment: SegmentId(0),
                    alias_next: 0,
                    elem_writes: vec![(ElemName::Int(0), PRef::int(g.0 as i64))],
                    bytes_write: None,
                    is_new: true,
                })
                .collect();
            store.commit_batch(TxnTime::from_ticks(batch_no as u64 + 1), &deltas).unwrap();
        }
        // Image bytes per object, as laid out on disk: the graph's home
        // tracks spread over its objects. The track cache gets `cache`
        // objects' worth of them, at least one track.
        let home: BTreeSet<u64> = goops.iter().filter_map(|g| store.home_track(*g)).collect();
        let image_bytes = home.len() * TRACK / N;
        let cache_tracks = (cache * image_bytes).div_ceil(TRACK).max(1);
        let store = PermanentStore::open(store.into_disk(), cache_tracks).unwrap();
        store.set_object_cache_limit(Some(cache));
        store.reset_stats();
        let mut r = rng(11);
        for _ in 0..ACCESSES {
            let i = r.gen_range(0..N);
            store.get(goops[i]).unwrap();
        }
        let om_reads = store.disk_stats().track_reads;
        let advantage = match om_reads {
            0 => "—".to_string(),
            om => format!("{:.1}x", loom_reads as f64 / om as f64),
        };
        println!("{cache:>14} {cache_tracks:>12} {loom_reads:>12} {om_reads:>12} {advantage:>14}");
    }
    println!(
        "  (LOOM pays one fault per object — §7's clustering critique; the OM\n   \
         amortizes faults across commit-clustered tracks in the same resident bytes.)\n"
    );
}

/// C9: history growth — disk traffic as updates accumulate, and the DBA
/// prune operation.
fn c9_history_growth() {
    println!("── C9: history growth — bytes written per commit as history accumulates ──");
    println!("{:>12} {:>16} {:>18}", "updates", "object assoc.", "bytes/commit");
    let gs =
        GemStone::create(StoreConfig { track_size: 2048, cache_tracks: 64, replicas: 1 }).unwrap();
    let mut s = gs.login("system").unwrap();
    s.run("A := Dictionary new. A at: #v put: 0").unwrap();
    s.commit().unwrap();
    let mut total_updates = 0u64;
    for round in 0..4 {
        let updates = 10usize * 10usize.pow(round);
        gs.database().reset_storage_stats();
        for i in 0..updates {
            s.run(&format!("A at: #v put: {i}")).unwrap();
            s.commit().unwrap();
        }
        total_updates += updates as u64;
        let (_, disk) = gs.database().storage_stats();
        println!(
            "{total_updates:>12} {:>16} {:>18.0}",
            total_updates + 1,
            disk.bytes_written as f64 / updates as f64
        );
    }
    println!("  (each commit rewrites the object's full association table — the\n   growth the paper's DBA archive operation exists to bound)\n");
}

/// C-join: hash join vs nested loop on the equi-join workload — the
/// operator counters and median wall time per evaluation, then what
/// `explain` reports for the plan the session chooses.
fn c_join_plans() {
    println!("── C-join: equi-join — hash plan vs nested loop ──");
    println!(
        "{:>6} {:>6} {:>13} {:>15} {:>12} {:>12}",
        "n", "m", "hash visits", "nested visits", "hash µs", "nested µs"
    );
    for &(n, m) in &[(200usize, 200usize), (1000, 1000)] {
        let (_gs, mut s) = fresh();
        build_join_collections(&mut s, n, m);
        let q = join_query(&mut s);
        let catalog = IndexCatalog::new();
        let hash_plan =
            translate_with(&q, &catalog, &PlanOptions { hash_joins: true, stats: None });
        let nested_plan =
            translate_with(&q, &catalog, &PlanOptions { hash_joins: false, stats: None });
        let mut hash_stats = PlanStats::default();
        eval_algebra_stats(&mut s, &hash_plan, &q, &mut hash_stats).unwrap();
        let mut nested_stats = PlanStats::default();
        eval_algebra_stats(&mut s, &nested_plan, &q, &mut nested_stats).unwrap();
        let hash_us = median_us(5, || {
            let mut st = PlanStats::default();
            eval_algebra_stats(&mut s, &hash_plan, &q, &mut st).unwrap();
        });
        let nested_us = median_us(5, || {
            let mut st = PlanStats::default();
            eval_algebra_stats(&mut s, &nested_plan, &q, &mut st).unwrap();
        });
        println!(
            "{n:>6} {m:>6} {:>13} {:>15} {hash_us:>12.1} {nested_us:>12.1}",
            hash_stats.row_visits(),
            nested_stats.row_visits()
        );
        if (n, m) == (1000, 1000) {
            // The end-to-end path: plan through the session and show what
            // `explain` reports.
            s.query(&q).unwrap();
            for line in s.explain().expect("explain after query").lines() {
                println!("    {line}");
            }
        }
    }
    println!();
}

/// T2: the flattening redundancy of §5.2, swept over family size.
fn t2_redundancy() {
    println!("── T2: §5.2 flattening — repeated bytes vs number of children ──");
    println!(
        "{:>10} {:>14} {:>16} {:>12}",
        "children", "nested bytes", "flattened bytes", "overhead"
    );
    for n in [1usize, 3, 10, 50] {
        let children: Vec<String> = (0..n).map(|i| format!("child{i:02}")).collect();
        let emp = LabeledSet::of([
            ("Name", SValue::Set(LabeledSet::of([("First", "Robert"), ("Last", "Peters")]))),
            ("Children", SValue::Set(LabeledSet::values(children.iter().map(|c| c.as_str())))),
        ]);
        let nested = payload_bytes(&SValue::Set(emp.clone()));
        let flat = flattened_bytes(&flatten_children(&emp));
        println!(
            "{n:>10} {nested:>14} {flat:>16} {:>11.0}%",
            100.0 * (flat as f64 - nested as f64) / nested as f64
        );
    }
    println!();
}
