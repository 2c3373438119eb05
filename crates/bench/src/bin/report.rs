//! The experiment report harness: prints the counted series for every
//! claim-driven experiment in DESIGN.md §3 that is about *counts* (faults,
//! aborts, disk traffic, redundancy) rather than latency. EXPERIMENTS.md
//! records a captured run.
//!
//! ```sh
//! cargo run -p gemstone-bench --bin report --release
//! ```

use gemstone::{GemError, GemStone, StoreConfig};
use gemstone_bench::{build_employees, build_join_collections, fresh, join_query, rng};
use gemstone_calculus::{eval_algebra_stats, translate_with, IndexCatalog, PlanOptions, PlanStats};
use gemstone_loom::LoomMemory;
use gemstone_stdm::encode::{flatten_children, flattened_bytes, payload_bytes};
use gemstone_stdm::{LabeledSet, SValue};
use rand::Rng;
use std::time::Instant;

fn main() {
    c4_abort_rate();
    c6_directory_crossover();
    c7_loom_vs_object_manager();
    c9_history_growth();
    t2_redundancy();
    c_join_plans();
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
        crossbeam::scope(|scope| {
            for t in 0..4 {
                let gs = gs.clone();
                scope.spawn(move |_| {
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
        })
        .unwrap();
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
/// the storage layer on identical object graphs.
fn c7_loom_vs_object_manager() {
    use gemstone_object::{ClassId, ElemName, Goop, PRef, SegmentId};
    use gemstone_storage::{ObjectDelta, PermanentStore};
    use gemstone_temporal::TxnTime;

    println!("── C7: LOOM vs GemStone Object Manager — track reads per 1000 accesses ──");
    println!(
        "{:>14} {:>12} {:>12} {:>14}",
        "cache(objects)", "LOOM reads", "OM reads", "OM advantage"
    );
    const N: usize = 800;
    const ACCESSES: usize = 1000;
    for &cache in &[50usize, 200, 800] {
        // LOOM: objects written one-by-one, no clustering; every fault is
        // that object's own track I/O.
        let mut loom = LoomMemory::new(8192, cache);
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
        // Boxer clusters each batch onto shared tracks — with the object
        // cache bounded to the same resident count.
        let store =
            PermanentStore::create(StoreConfig { track_size: 8192, cache_tracks: 8, replicas: 1 })
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
        store.set_object_cache_limit(Some(cache));
        store.reset_stats();
        let mut r = rng(11);
        for _ in 0..ACCESSES {
            let i = r.gen_range(0..N);
            store.get(goops[i]).unwrap();
        }
        let om_reads = store.disk_stats().track_reads;
        println!(
            "{cache:>14} {loom_reads:>12} {om_reads:>12} {:>13.1}x",
            loom_reads as f64 / om_reads.max(1) as f64
        );
    }
    println!("  (LOOM pays one fault per object — §7's clustering critique; the OM\n   amortizes faults across commit-clustered tracks and its track cache.)\n");
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
