//! Diagnostic bundles: a journal readout distilled into the artefacts an
//! operator wants when something goes wrong.
//!
//! A bundle contains (a) the **track heat map** — reads/writes per track
//! plus a clustering-locality score grounding the paper's clustering
//! claim (§5: objects clustered onto whole tracks mean repeated reads
//! land on few distinct tracks); (b) a **cache hit-rate-vs-size sweep**
//! replaying the recorded access sequence through a standalone LRU model
//! at counterfactual capacities; (c) the **slow-statement log** mined
//! from the recorded statements; (d) the last **recovery pass**; and (e)
//! the **replayed metrics snapshot** with a verdict on whether it matches
//! the live registry — the determinism contract, checked on every bundle.
//!
//! Built here (not in the bench crate) so the `doctor` binary, the REPL's
//! `:doctor`, and `Database`'s auto-capture on structured failures all
//! share one implementation.

use crate::journal::{replay, JournalEvent, JournalReadout, JOURNAL_SCHEMA};
use crate::metrics::{json_escape, MetricsSnapshot};
use std::collections::HashMap;
use std::fmt::Write as _;

/// Per-track I/O totals.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TrackHeat {
    pub track: u64,
    pub reads: u64,
    pub writes: u64,
}

/// One point of the cache replay sweep.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CacheSweepPoint {
    pub capacity: u64,
    pub hits: u64,
    pub misses: u64,
}

impl CacheSweepPoint {
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// One mined slow statement.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SlowEntry {
    pub session: u64,
    pub wall_ns: u64,
    pub label: String,
}

/// Effect-analysis activity distilled from the journal: summaries
/// computed per effect class, statement classification, and how often the
/// static read-only commit fast path fired.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct EffectProfile {
    /// Summaries computed, total and per effect class in lattice order
    /// (Pure, ReadOnly, WritesLocal, WritesGlobal, Unknown).
    pub computed: u64,
    pub per_class: [u64; 5],
    pub stmts_classified: u64,
    pub stmts_static_ro: u64,
    pub static_ro_commits: u64,
    pub invalidations: u64,
}

impl EffectProfile {
    pub const CLASSES: [&'static str; 5] =
        ["Pure", "ReadOnly", "WritesLocal", "WritesGlobal", "Unknown"];

    fn is_empty(&self) -> bool {
        self == &EffectProfile::default()
    }
}

/// Conflict forensics distilled from `TxnConflict` events: abort
/// attribution by kind plus per-object and per-track conflict heat
/// (which goops and which home tracks transactions keep colliding on).
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct ConflictProfile {
    /// Validation conflicts where the read and write sets overlapped.
    pub overlap: u64,
    /// Conservative refusals at the pruned-log watermark.
    pub watermark: u64,
    /// `(goop, conflicts)` hottest first, bounded.
    pub object_heat: Vec<(u64, u64)>,
    /// `(track, conflicts)` hottest first, bounded.
    pub track_heat: Vec<(u64, u64)>,
}

impl ConflictProfile {
    pub fn total(&self) -> u64 {
        self.overlap + self.watermark
    }

    fn is_empty(&self) -> bool {
        self.total() == 0
    }
}

/// Heat entries kept per conflict table (objects, tracks).
const CONFLICT_HEAT_TOP_N: usize = 32;

/// One recorded `PlanDrift` episode: an operator whose actual row count
/// missed the planner's estimate past the drift threshold.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DriftEpisode {
    pub session: u64,
    pub label: String,
    pub plan: String,
    pub op: u64,
    pub est: u64,
    pub actual: u64,
    pub err_pct: i64,
}

/// Planner health distilled from the statistics events: how often the
/// cost model actually drove choices, which statements keep missing
/// their estimates, how fresh each set's statistics are, and the most
/// recent drift episodes.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct PlannerProfile {
    pub choices: u64,
    pub cost_based: u64,
    pub replans: u64,
    pub stats_updates: u64,
    /// `(statement label, worst |err_pct|, drift episodes)` worst first,
    /// bounded at the planner top-N.
    pub worst_statements: Vec<(String, i64, u64)>,
    /// `(set goop, refreshes, last recorded cardinality)` most-refreshed
    /// first, bounded at the planner top-N.
    pub set_refreshes: Vec<(u64, u64, u64)>,
    /// The most recent drift episodes, oldest first, bounded at the
    /// planner top-N.
    pub drift_episodes: Vec<DriftEpisode>,
}

impl PlannerProfile {
    fn is_empty(&self) -> bool {
        self == &PlannerProfile::default()
    }
}

/// Entries kept per planner-health table.
const PLANNER_TOP_N: usize = 10;

/// The last recorded recovery pass.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RecoverySummary {
    pub roots_considered: u64,
    pub roots_valid: u64,
    pub roots_torn: u64,
    pub epoch: u64,
    pub tracks_salvaged: u64,
    pub tracks_discarded: u64,
    /// Catalog records the reopening walked (the location log back to its
    /// last page-out).
    pub log_records: u64,
    pub reopen_reads: u64,
}

/// A journal distilled for diagnosis.
#[derive(Clone, Debug)]
pub struct DiagnosticBundle {
    /// Why the bundle was captured (`"disk-dead"`, `"repl"`, …).
    pub reason: String,
    pub schema: u64,
    /// False when rotation deleted the journal's head: all absolute
    /// numbers below are then lower bounds.
    pub complete: bool,
    pub events: usize,
    /// Tracks sorted hottest-first by total I/O.
    pub heat: Vec<TrackHeat>,
    /// `1 − unique_tracks_read / reads`: 0 when every read visits a new
    /// track, approaching 1 when clustering concentrates reads on few
    /// tracks.
    pub locality_score: f64,
    /// Hit rate at counterfactual LRU capacities, replayed from the
    /// recorded access sequence.
    pub sweep: Vec<CacheSweepPoint>,
    /// The live cache capacity the journal recorded, if any.
    pub live_capacity: Option<u64>,
    /// True when the model at the live capacity reproduces the recorded
    /// hit/miss counts exactly (sanity for the whole sweep).
    pub sweep_validated: Option<bool>,
    /// Top statements by wall time, slowest first.
    pub slow_statements: Vec<SlowEntry>,
    /// Effect-analysis activity (all zeros when no effect events were
    /// recorded).
    pub effects: EffectProfile,
    /// Conflict forensics (all zeros when no conflicts were recorded).
    pub conflicts: ConflictProfile,
    /// Planner health distilled from the statistics events.
    pub planner: PlannerProfile,
    pub recovery: Option<RecoverySummary>,
    /// The journal replayed through a fresh registry.
    pub replayed: MetricsSnapshot,
    /// Whether `replayed` is byte-identical to the live snapshot
    /// (`None` when no live snapshot was supplied).  Expected true for a
    /// journal recorded from birth with span tracing off.
    pub replay_matches_live: Option<bool>,
}

const SLOW_TOP_N: usize = 10;

impl DiagnosticBundle {
    /// Distill `readout` into a bundle; `live` enables the determinism
    /// verdict.
    pub fn build(
        readout: &JournalReadout,
        live: Option<&MetricsSnapshot>,
        reason: &str,
    ) -> DiagnosticBundle {
        let events = &readout.events;
        let (heat, locality_score) = heat_map(events);
        let live_capacity = events.iter().rev().find_map(|e| match e {
            JournalEvent::CacheConfigured { tracks } => Some(*tracks),
            _ => None,
        });
        let (sweep, sweep_validated) = cache_sweep(events, live_capacity);
        let mut slow: Vec<SlowEntry> = events
            .iter()
            .filter_map(|e| match e {
                JournalEvent::Statement { session, wall_ns, label } => {
                    Some(SlowEntry { session: *session, wall_ns: *wall_ns, label: label.clone() })
                }
                _ => None,
            })
            .collect();
        slow.sort_by_key(|s| std::cmp::Reverse(s.wall_ns));
        slow.truncate(SLOW_TOP_N);
        let mut effects = EffectProfile::default();
        for e in events {
            match e {
                JournalEvent::EffectSummary { effect, .. } => {
                    effects.computed += 1;
                    let i = EffectProfile::CLASSES
                        .iter()
                        .position(|c| c == effect)
                        .unwrap_or(EffectProfile::CLASSES.len() - 1);
                    effects.per_class[i] += 1;
                }
                JournalEvent::EffectClassify { static_ro } => {
                    effects.stmts_classified += 1;
                    if *static_ro {
                        effects.stmts_static_ro += 1;
                    }
                }
                JournalEvent::EffectCommit => effects.static_ro_commits += 1,
                JournalEvent::EffectInvalidate => effects.invalidations += 1,
                _ => {}
            }
        }
        let mut conflicts = ConflictProfile::default();
        {
            let mut obj: HashMap<u64, u64> = HashMap::new();
            let mut trk: HashMap<u64, u64> = HashMap::new();
            for e in events {
                if let JournalEvent::TxnConflict { kind, goops, tracks, .. } = e {
                    if kind == "watermark" {
                        conflicts.watermark += 1;
                    } else {
                        conflicts.overlap += 1;
                    }
                    for g in goops {
                        *obj.entry(*g).or_default() += 1;
                    }
                    for t in tracks {
                        *trk.entry(*t).or_default() += 1;
                    }
                }
            }
            conflicts.object_heat = top_heat(obj);
            conflicts.track_heat = top_heat(trk);
        }
        let mut planner = PlannerProfile::default();
        {
            let mut refreshes: HashMap<u64, (u64, u64)> = HashMap::new();
            let mut worst: HashMap<String, (i64, u64)> = HashMap::new();
            for e in events {
                match e {
                    JournalEvent::StatsUpdate { set, cardinality, .. } => {
                        planner.stats_updates += 1;
                        let slot = refreshes.entry(*set).or_default();
                        slot.0 += 1;
                        slot.1 = *cardinality;
                    }
                    JournalEvent::PlanChoice { cost_based, replan, .. } => {
                        planner.choices += 1;
                        if *cost_based {
                            planner.cost_based += 1;
                        }
                        if *replan {
                            planner.replans += 1;
                        }
                    }
                    JournalEvent::PlanDrift { session, label, plan, op, est, actual, err_pct } => {
                        let slot = worst.entry(label.clone()).or_default();
                        slot.0 = slot.0.max(err_pct.abs());
                        slot.1 += 1;
                        planner.drift_episodes.push(DriftEpisode {
                            session: *session,
                            label: label.clone(),
                            plan: plan.clone(),
                            op: *op,
                            est: *est,
                            actual: *actual,
                            err_pct: *err_pct,
                        });
                    }
                    _ => {}
                }
            }
            if planner.drift_episodes.len() > PLANNER_TOP_N {
                let skip = planner.drift_episodes.len() - PLANNER_TOP_N;
                planner.drift_episodes.drain(..skip);
            }
            planner.worst_statements = worst.into_iter().map(|(l, (e, n))| (l, e, n)).collect();
            planner
                .worst_statements
                .sort_by(|a, b| b.1.cmp(&a.1).then(b.2.cmp(&a.2)).then(a.0.cmp(&b.0)));
            planner.worst_statements.truncate(PLANNER_TOP_N);
            let mut sets: Vec<(u64, u64, u64)> =
                refreshes.into_iter().map(|(s, (n, c))| (s, n, c)).collect();
            sets.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
            sets.truncate(PLANNER_TOP_N);
            planner.set_refreshes = sets;
        }
        let recovery = events.iter().rev().find_map(|e| match e {
            JournalEvent::Recovery {
                roots_considered,
                roots_valid,
                roots_torn,
                epoch,
                tracks_salvaged,
                tracks_discarded,
                log_records,
                reopen_reads,
            } => Some(RecoverySummary {
                roots_considered: *roots_considered,
                roots_valid: *roots_valid,
                roots_torn: *roots_torn,
                epoch: *epoch,
                tracks_salvaged: *tracks_salvaged,
                tracks_discarded: *tracks_discarded,
                log_records: *log_records,
                reopen_reads: *reopen_reads,
            }),
            _ => None,
        });
        let replayed = replay(events).snapshot();
        let replay_matches_live = live.map(|l| replayed == *l);
        DiagnosticBundle {
            reason: reason.to_string(),
            schema: JOURNAL_SCHEMA,
            complete: readout.complete,
            events: events.len(),
            heat,
            locality_score,
            sweep,
            live_capacity,
            sweep_validated,
            slow_statements: slow,
            effects,
            conflicts,
            planner,
            recovery,
            replayed,
            replay_matches_live,
        }
    }

    /// Human-readable report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ =
            writeln!(out, "diagnostic bundle · reason={} · schema=v{}", self.reason, self.schema);
        let _ = writeln!(
            out,
            "journal: {} events, {}",
            self.events,
            if self.complete { "complete" } else { "TRUNCATED (rotation dropped the head)" }
        );
        match self.replay_matches_live {
            Some(true) => {
                let _ = writeln!(out, "replay: reproduces the live MetricsSnapshot exactly");
            }
            Some(false) => {
                let _ = writeln!(out, "replay: DIVERGES from the live MetricsSnapshot");
            }
            None => {
                let _ = writeln!(out, "replay: no live snapshot supplied for comparison");
            }
        }
        let _ = writeln!(out, "\ntrack heat map (locality score {:.3}):", self.locality_score);
        let _ = writeln!(out, "  {:>8}  {:>8}  {:>8}", "track", "reads", "writes");
        for h in self.heat.iter().take(20) {
            let _ = writeln!(out, "  {:>8}  {:>8}  {:>8}", h.track, h.reads, h.writes);
        }
        if self.heat.len() > 20 {
            let _ = writeln!(out, "  … {} more tracks", self.heat.len() - 20);
        }
        let _ = writeln!(out, "\ncache hit-rate vs size (replayed from the recorded I/O):");
        for p in &self.sweep {
            let marker = match self.live_capacity {
                Some(c) if c == p.capacity => "  <- live capacity",
                _ => "",
            };
            let _ = writeln!(
                out,
                "  cap {:>6}: {:>6} hits / {:>6} misses  ({:>5.1}%){}",
                p.capacity,
                p.hits,
                p.misses,
                p.hit_rate() * 100.0,
                marker
            );
        }
        if let Some(ok) = self.sweep_validated {
            let _ = writeln!(
                out,
                "  model check at live capacity: {}",
                if ok { "matches recorded hits/misses" } else { "DIVERGES from recorded counts" }
            );
        }
        // Storage health from the replayed registry: fsync latency
        // quantiles and the per-shard cache hit/miss split (a skewed
        // shard is a clustering hot spot the aggregate hit rate hides),
        // plus how much location log the last reopening replayed.
        let fsync = self.replayed.histogram("storage.disk.fsync_us");
        let shards: Vec<(usize, u64, u64)> = (0..64)
            .map(|i| {
                (
                    i,
                    self.replayed.counter(&format!("storage.cache.shard{i}.hits")),
                    self.replayed.counter(&format!("storage.cache.shard{i}.misses")),
                )
            })
            .filter(|&(_, h, m)| h + m > 0)
            .collect();
        if fsync.map(|f| f.count > 0).unwrap_or(false)
            || !shards.is_empty()
            || self.recovery.is_some()
        {
            let _ = writeln!(out, "\nstorage health:");
            if let Some(f) = fsync {
                if f.count > 0 {
                    let _ = writeln!(
                        out,
                        "  fsync latency: {} syncs, p50<={}µs p95<={}µs p99<={}µs",
                        f.count,
                        f.quantile(0.5),
                        f.quantile(0.95),
                        f.quantile(0.99)
                    );
                }
            }
            for (i, h, m) in &shards {
                let total = h + m;
                let pct = if total == 0 { 100.0 } else { *h as f64 / total as f64 * 100.0 };
                let _ = writeln!(out, "  cache shard {i}: {h} hits / {m} misses ({pct:.1}%)");
            }
            if let Some(r) = &self.recovery {
                let _ = writeln!(
                    out,
                    "  location log: {} catalog records walked at reopen",
                    r.log_records
                );
            }
        }
        if !self.slow_statements.is_empty() {
            let _ = writeln!(out, "\nslowest statements:");
            for s in &self.slow_statements {
                let _ = writeln!(
                    out,
                    "  {:>12} ns  [session {}] {}",
                    s.wall_ns,
                    s.session,
                    s.label.replace('\n', "⏎")
                );
            }
        }
        if !self.effects.is_empty() {
            let e = &self.effects;
            let _ = writeln!(out, "\neffect analysis:");
            let per: Vec<String> = EffectProfile::CLASSES
                .iter()
                .zip(e.per_class.iter())
                .filter(|(_, n)| **n > 0)
                .map(|(c, n)| format!("{c} {n}"))
                .collect();
            let _ = writeln!(out, "  {} summaries computed ({})", e.computed, per.join(", "));
            let _ = writeln!(
                out,
                "  {}/{} statements classified statically read-only",
                e.stmts_static_ro, e.stmts_classified
            );
            let _ = writeln!(
                out,
                "  {} static read-only commits, {} cache invalidations",
                e.static_ro_commits, e.invalidations
            );
        }
        if !self.conflicts.is_empty() {
            let c = &self.conflicts;
            let _ = writeln!(out, "\nconflict forensics:");
            let _ = writeln!(
                out,
                "  {} conflicts (overlap {}, watermark {})",
                c.total(),
                c.overlap,
                c.watermark
            );
            if !c.object_heat.is_empty() {
                let per: Vec<String> =
                    c.object_heat.iter().take(10).map(|(g, n)| format!("goop {g} ×{n}")).collect();
                let _ = writeln!(out, "  hottest objects: {}", per.join(", "));
            }
            if !c.track_heat.is_empty() {
                let per: Vec<String> =
                    c.track_heat.iter().take(10).map(|(t, n)| format!("track {t} ×{n}")).collect();
                let _ = writeln!(out, "  hottest tracks: {}", per.join(", "));
            }
        }
        if !self.planner.is_empty() {
            let p = &self.planner;
            let _ = writeln!(out, "\nplanner health:");
            let _ = writeln!(
                out,
                "  {} plan choices ({} cost-based, {} replans), {} stats refreshes",
                p.choices, p.cost_based, p.replans, p.stats_updates
            );
            if !p.worst_statements.is_empty() {
                let _ = writeln!(out, "  worst statements by estimate error:");
                for (label, err, n) in &p.worst_statements {
                    let _ =
                        writeln!(out, "    {:>6}% err ×{}  {}", err, n, label.replace('\n', "⏎"));
                }
            }
            if !p.set_refreshes.is_empty() {
                let per: Vec<String> = p
                    .set_refreshes
                    .iter()
                    .map(|(s, n, c)| format!("goop {s} ×{n} (card {c})"))
                    .collect();
                let _ = writeln!(out, "  stats freshness: {}", per.join(", "));
            }
            for d in &p.drift_episodes {
                let _ = writeln!(
                    out,
                    "  drift: [session {}] op {} est {} actual {} ({}%) in {}",
                    d.session, d.op, d.est, d.actual, d.err_pct, d.plan
                );
            }
        }
        if let Some(r) = &self.recovery {
            let _ = writeln!(
                out,
                "\nlast recovery pass: roots {}/{} valid ({} torn), epoch {}, \
                 {} tracks salvaged, {} discarded, {} reopen reads",
                r.roots_valid,
                r.roots_considered,
                r.roots_torn,
                r.epoch,
                r.tracks_salvaged,
                r.tracks_discarded,
                r.reopen_reads
            );
        }
        out
    }

    /// The bundle as one JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"reason\": \"{}\",", json_escape(&self.reason));
        let _ = writeln!(out, "  \"schema\": {},", self.schema);
        let _ = writeln!(out, "  \"complete\": {},", self.complete);
        let _ = writeln!(out, "  \"events\": {},", self.events);
        let _ = writeln!(out, "  \"locality_score\": {:.6},", self.locality_score);
        out.push_str("  \"heat\": [\n");
        for (i, h) in self.heat.iter().enumerate() {
            let _ = write!(
                out,
                "    {{\"track\":{},\"reads\":{},\"writes\":{}}}",
                h.track, h.reads, h.writes
            );
            out.push_str(if i + 1 < self.heat.len() { ",\n" } else { "\n" });
        }
        out.push_str("  ],\n");
        out.push_str("  \"sweep\": [\n");
        for (i, p) in self.sweep.iter().enumerate() {
            let _ = write!(
                out,
                "    {{\"capacity\":{},\"hits\":{},\"misses\":{},\"hit_rate\":{:.6}}}",
                p.capacity,
                p.hits,
                p.misses,
                p.hit_rate()
            );
            out.push_str(if i + 1 < self.sweep.len() { ",\n" } else { "\n" });
        }
        out.push_str("  ],\n");
        match self.live_capacity {
            Some(c) => {
                let _ = writeln!(out, "  \"live_capacity\": {c},");
            }
            None => {
                let _ = writeln!(out, "  \"live_capacity\": null,");
            }
        }
        match self.sweep_validated {
            Some(v) => {
                let _ = writeln!(out, "  \"sweep_validated\": {v},");
            }
            None => {
                let _ = writeln!(out, "  \"sweep_validated\": null,");
            }
        }
        out.push_str("  \"slow_statements\": [\n");
        for (i, s) in self.slow_statements.iter().enumerate() {
            let _ = write!(
                out,
                "    {{\"session\":{},\"wall_ns\":{},\"label\":\"{}\"}}",
                s.session,
                s.wall_ns,
                json_escape(&s.label)
            );
            out.push_str(if i + 1 < self.slow_statements.len() { ",\n" } else { "\n" });
        }
        out.push_str("  ],\n");
        {
            let e = &self.effects;
            let _ = write!(out, "  \"effects\": {{\"computed\":{},\"per_class\":{{", e.computed);
            for (i, (c, n)) in EffectProfile::CLASSES.iter().zip(e.per_class.iter()).enumerate() {
                let _ = write!(out, "\"{c}\":{n}");
                if i + 1 < EffectProfile::CLASSES.len() {
                    out.push(',');
                }
            }
            let _ = writeln!(
                out,
                "}},\"stmts_classified\":{},\"stmts_static_ro\":{},\
                 \"static_ro_commits\":{},\"invalidations\":{}}},",
                e.stmts_classified, e.stmts_static_ro, e.static_ro_commits, e.invalidations
            );
        }
        {
            let c = &self.conflicts;
            let heat = |pairs: &[(u64, u64)], key: &str| {
                let per: Vec<String> = pairs
                    .iter()
                    .map(|(k, n)| format!("{{\"{key}\":{k},\"conflicts\":{n}}}"))
                    .collect();
                per.join(",")
            };
            let _ = writeln!(
                out,
                "  \"conflicts\": {{\"overlap\":{},\"watermark\":{},\
                 \"object_heat\":[{}],\"track_heat\":[{}]}},",
                c.overlap,
                c.watermark,
                heat(&c.object_heat, "goop"),
                heat(&c.track_heat, "track")
            );
        }
        {
            let p = &self.planner;
            let worst: Vec<String> = p
                .worst_statements
                .iter()
                .map(|(l, e, n)| {
                    format!(
                        "{{\"label\":\"{}\",\"worst_err_pct\":{e},\"episodes\":{n}}}",
                        json_escape(l)
                    )
                })
                .collect();
            let sets: Vec<String> = p
                .set_refreshes
                .iter()
                .map(|(s, n, c)| format!("{{\"set\":{s},\"refreshes\":{n},\"cardinality\":{c}}}"))
                .collect();
            let drifts: Vec<String> = p
                .drift_episodes
                .iter()
                .map(|d| {
                    format!(
                        "{{\"session\":{},\"label\":\"{}\",\"plan\":\"{}\",\"op\":{},\
                         \"est\":{},\"actual\":{},\"err_pct\":{}}}",
                        d.session,
                        json_escape(&d.label),
                        json_escape(&d.plan),
                        d.op,
                        d.est,
                        d.actual,
                        d.err_pct
                    )
                })
                .collect();
            let _ = writeln!(
                out,
                "  \"planner\": {{\"choices\":{},\"cost_based\":{},\"replans\":{},\
                 \"stats_updates\":{},\"worst_statements\":[{}],\"set_refreshes\":[{}],\
                 \"drift_episodes\":[{}]}},",
                p.choices,
                p.cost_based,
                p.replans,
                p.stats_updates,
                worst.join(","),
                sets.join(","),
                drifts.join(",")
            );
        }
        match &self.recovery {
            Some(r) => {
                let _ = writeln!(
                    out,
                    "  \"recovery\": {{\"roots_considered\":{},\"roots_valid\":{},\
                     \"roots_torn\":{},\"epoch\":{},\"tracks_salvaged\":{},\
                     \"tracks_discarded\":{},\"log_records\":{},\"reopen_reads\":{}}},",
                    r.roots_considered,
                    r.roots_valid,
                    r.roots_torn,
                    r.epoch,
                    r.tracks_salvaged,
                    r.tracks_discarded,
                    r.log_records,
                    r.reopen_reads
                );
            }
            None => {
                let _ = writeln!(out, "  \"recovery\": null,");
            }
        }
        match self.replay_matches_live {
            Some(v) => {
                let _ = writeln!(out, "  \"replay_matches_live\": {v},");
            }
            None => {
                let _ = writeln!(out, "  \"replay_matches_live\": null,");
            }
        }
        out.push_str("  \"replayed_metrics\": [\n");
        let json_lines = self.replayed.to_json_lines();
        let all: Vec<&str> = json_lines.lines().collect();
        for (i, line) in all.iter().enumerate() {
            let _ = write!(out, "    {line}");
            out.push_str(if i + 1 < all.len() { ",\n" } else { "\n" });
        }
        out.push_str("  ]\n");
        out.push_str("}\n");
        out
    }
}

/// Sort a heat table hottest-first (count desc, then key asc for
/// determinism) and keep the top entries.
fn top_heat(per: HashMap<u64, u64>) -> Vec<(u64, u64)> {
    let mut heat: Vec<(u64, u64)> = per.into_iter().collect();
    heat.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    heat.truncate(CONFLICT_HEAT_TOP_N);
    heat
}

/// Per-track reads/writes plus the locality score over successful reads.
fn heat_map(events: &[JournalEvent]) -> (Vec<TrackHeat>, f64) {
    let mut per: HashMap<u64, (u64, u64)> = HashMap::new();
    let mut reads_total = 0u64;
    for e in events {
        match e {
            JournalEvent::TrackRead { track, ok: true, .. } => {
                per.entry(*track).or_default().0 += 1;
                reads_total += 1;
            }
            JournalEvent::TrackWrite { track, ok: true, .. } => {
                per.entry(*track).or_default().1 += 1;
            }
            _ => {}
        }
    }
    let unique_read = per.values().filter(|(r, _)| *r > 0).count() as u64;
    let locality =
        if reads_total == 0 { 0.0 } else { 1.0 - unique_read as f64 / reads_total as f64 };
    let mut heat: Vec<TrackHeat> = per
        .into_iter()
        .map(|(track, (reads, writes))| TrackHeat { track, reads, writes })
        .collect();
    heat.sort_by(|a, b| {
        (b.reads + b.writes).cmp(&(a.reads + a.writes)).then(a.track.cmp(&b.track))
    });
    (heat, locality)
}

/// A standalone LRU mirroring `TrackCache` semantics: recency is updated
/// on hit and on insert/refresh; eviction removes the least recently
/// touched entry; capacity 0 caches nothing.
struct ModelLru {
    cap: usize,
    slots: HashMap<u64, u64>,
    tick: u64,
}

impl ModelLru {
    fn new(cap: usize) -> ModelLru {
        ModelLru { cap, slots: HashMap::new(), tick: 0 }
    }

    fn contains(&self, track: u64) -> bool {
        self.slots.contains_key(&track)
    }

    fn touch(&mut self, track: u64) {
        self.tick += 1;
        self.slots.insert(track, self.tick);
    }

    fn insert(&mut self, track: u64) {
        if self.cap == 0 {
            return;
        }
        if !self.slots.contains_key(&track) && self.slots.len() >= self.cap {
            if let Some((&lru, _)) = self.slots.iter().min_by_key(|(_, &t)| t) {
                self.slots.remove(&lru);
            }
        }
        self.touch(track);
    }
}

/// Replay the recorded cache traffic at capacity `cap`.  On an access
/// miss the live system read through and filled the cache, so the model
/// inserts; recorded read-through fills are therefore skipped (they are
/// implied by the model's own misses), while commit-path fills happen at
/// any capacity and are replayed as inserts.
fn simulate(events: &[JournalEvent], cap: u64) -> CacheSweepPoint {
    let mut lru = ModelLru::new(cap as usize);
    let mut hits = 0u64;
    let mut misses = 0u64;
    for e in events {
        match e {
            JournalEvent::CacheAccess { track, .. } => {
                if lru.contains(*track) {
                    hits += 1;
                    lru.touch(*track);
                } else {
                    misses += 1;
                    lru.insert(*track);
                }
            }
            JournalEvent::CacheFill { track, commit: true } => lru.insert(*track),
            _ => {}
        }
    }
    CacheSweepPoint { capacity: cap, hits, misses }
}

fn cache_sweep(
    events: &[JournalEvent],
    live_capacity: Option<u64>,
) -> (Vec<CacheSweepPoint>, Option<bool>) {
    let mut unique: std::collections::HashSet<u64> = std::collections::HashSet::new();
    let mut recorded_hits = 0u64;
    let mut recorded_misses = 0u64;
    for e in events {
        match e {
            JournalEvent::CacheAccess { track, hit, .. } => {
                unique.insert(*track);
                if *hit {
                    recorded_hits += 1;
                } else {
                    recorded_misses += 1;
                }
            }
            JournalEvent::CacheFill { track, .. } => {
                unique.insert(*track);
            }
            _ => {}
        }
    }
    if recorded_hits + recorded_misses == 0 {
        return (Vec::new(), None);
    }
    let mut caps: Vec<u64> = Vec::new();
    let mut c = 1u64;
    while c < unique.len() as u64 * 2 {
        caps.push(c);
        c *= 2;
    }
    caps.push(c);
    if let Some(live) = live_capacity {
        caps.push(live);
    }
    caps.sort_unstable();
    caps.dedup();
    let sweep: Vec<CacheSweepPoint> = caps.iter().map(|&cap| simulate(events, cap)).collect();
    let validated = live_capacity.map(|live| {
        sweep
            .iter()
            .find(|p| p.capacity == live)
            .map(|p| p.hits == recorded_hits && p.misses == recorded_misses)
            .unwrap_or(false)
    });
    (sweep, validated)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn readout(events: Vec<JournalEvent>) -> JournalReadout {
        JournalReadout { events, complete: true, segments: 1 }
    }

    #[test]
    fn heat_map_counts_and_locality() {
        let rd = |track, ok| JournalEvent::TrackRead { track, ok, backend: "sim".into() };
        let events = vec![
            rd(1, true),
            rd(1, true),
            rd(1, true),
            rd(2, true),
            rd(9, false),
            JournalEvent::TrackWrite { track: 2, ok: true, bytes: 100, backend: "sim".into() },
        ];
        let b = DiagnosticBundle::build(&readout(events), None, "test");
        assert_eq!(b.heat[0], TrackHeat { track: 1, reads: 3, writes: 0 });
        assert_eq!(b.heat[1], TrackHeat { track: 2, reads: 1, writes: 1 });
        assert_eq!(b.heat.len(), 2, "failed reads don't heat tracks");
        // 4 successful reads over 2 unique tracks → 1 - 2/4 = 0.5.
        assert!((b.locality_score - 0.5).abs() < 1e-9);
    }

    #[test]
    fn sweep_validates_against_recorded_counts() {
        // Live capacity 1: access A miss (fill), access A hit, access B
        // miss (fill, evicts A), access A miss again.
        let events = vec![
            JournalEvent::CacheConfigured { tracks: 1 },
            JournalEvent::CacheAccess { track: 10, shard: 10 % 8, hit: false },
            JournalEvent::CacheFill { track: 10, commit: false },
            JournalEvent::CacheAccess { track: 10, shard: 10 % 8, hit: true },
            JournalEvent::CacheAccess { track: 20, shard: 20 % 8, hit: false },
            JournalEvent::CacheFill { track: 20, commit: false },
            JournalEvent::CacheAccess { track: 10, shard: 10 % 8, hit: false },
            JournalEvent::CacheFill { track: 10, commit: false },
        ];
        let b = DiagnosticBundle::build(&readout(events), None, "test");
        assert_eq!(b.live_capacity, Some(1));
        assert_eq!(b.sweep_validated, Some(true), "model reproduces the live trace");
        let at2 = b.sweep.iter().find(|p| p.capacity == 2).expect("cap-2 point");
        assert_eq!((at2.hits, at2.misses), (2, 2), "a larger cache keeps both tracks");
    }

    #[test]
    fn slow_statements_ranked_and_bounded() {
        let mut events = Vec::new();
        for i in 0..20u64 {
            events.push(JournalEvent::Statement {
                session: 1,
                wall_ns: i * 100,
                label: format!("stmt {i}"),
            });
        }
        let b = DiagnosticBundle::build(&readout(events), None, "test");
        assert_eq!(b.slow_statements.len(), 10);
        assert_eq!(b.slow_statements[0].label, "stmt 19", "slowest first");
        assert!(b.slow_statements.windows(2).all(|w| w[0].wall_ns >= w[1].wall_ns));
    }

    #[test]
    fn effect_profile_counts_per_class() {
        let events = vec![
            JournalEvent::EffectSummary {
                selector: "do:".into(),
                effect: "WritesLocal".into(),
                reads: 0,
                writes: 0,
            },
            JournalEvent::EffectSummary {
                selector: "size".into(),
                effect: "ReadOnly".into(),
                reads: 1,
                writes: 0,
            },
            JournalEvent::EffectClassify { static_ro: true },
            JournalEvent::EffectClassify { static_ro: false },
            JournalEvent::EffectCommit,
            JournalEvent::EffectInvalidate,
        ];
        let b = DiagnosticBundle::build(&readout(events), None, "test");
        let e = &b.effects;
        assert_eq!(e.computed, 2);
        assert_eq!(e.per_class, [0, 1, 1, 0, 0]);
        assert_eq!((e.stmts_classified, e.stmts_static_ro), (2, 1));
        assert_eq!((e.static_ro_commits, e.invalidations), (1, 1));
        let text = b.render();
        assert!(text.contains("2 summaries computed (ReadOnly 1, WritesLocal 1)"), "{text}");
        assert!(text.contains("1/2 statements classified statically read-only"), "{text}");
        let json = b.to_json();
        assert!(json.contains("\"static_ro_commits\":1"), "{json}");
        // A journal without effect events keeps the section out entirely.
        let quiet = DiagnosticBundle::build(&readout(vec![JournalEvent::TxnBegin]), None, "t");
        assert!(!quiet.render().contains("effect analysis"));
    }

    #[test]
    fn conflict_profile_attributes_and_ranks() {
        let overlap = |goops: Vec<u64>, tracks: Vec<u64>| JournalEvent::TxnConflict {
            kind: "overlap".into(),
            session: 2,
            start: 5,
            culprit_time: 9,
            culprit_session: 1,
            goops,
            tracks,
        };
        let events = vec![
            overlap(vec![77, 90], vec![3]),
            overlap(vec![77], vec![3]),
            JournalEvent::TxnConflict {
                kind: "watermark".into(),
                session: 4,
                start: 1,
                culprit_time: 0,
                culprit_session: 0,
                goops: vec![],
                tracks: vec![],
            },
        ];
        let b = DiagnosticBundle::build(&readout(events), None, "test");
        let c = &b.conflicts;
        assert_eq!((c.overlap, c.watermark, c.total()), (2, 1, 3));
        assert_eq!(c.object_heat, vec![(77, 2), (90, 1)], "hottest goop first");
        assert_eq!(c.track_heat, vec![(3, 2)]);
        let text = b.render();
        assert!(text.contains("3 conflicts (overlap 2, watermark 1)"), "{text}");
        assert!(text.contains("hottest objects: goop 77 ×2, goop 90 ×1"), "{text}");
        assert!(text.contains("hottest tracks: track 3 ×2"), "{text}");
        let json = b.to_json();
        assert!(json.contains("\"object_heat\":[{\"goop\":77,\"conflicts\":2}"), "{json}");
        // A conflict-free journal keeps the section out entirely.
        let quiet = DiagnosticBundle::build(&readout(vec![JournalEvent::TxnBegin]), None, "t");
        assert!(!quiet.render().contains("conflict forensics"));
    }

    #[test]
    fn planner_profile_ranks_statements_and_keeps_drift_episodes() {
        let events = vec![
            JournalEvent::StatsUpdate {
                set: 40,
                path: "Cust".into(),
                cardinality: 100,
                total: 100,
                distinct: 5,
                fuzz: 0,
                points: "1:20".into(),
            },
            JournalEvent::StatsUpdate {
                set: 40,
                path: "Cust".into(),
                cardinality: 140,
                total: 140,
                distinct: 5,
                fuzz: 0,
                points: "1:28".into(),
            },
            JournalEvent::StatsUpdate {
                set: 55,
                path: String::new(),
                cardinality: 7,
                total: 0,
                distinct: 0,
                fuzz: 0,
                points: String::new(),
            },
            JournalEvent::PlanChoice {
                session: 1,
                label: "orders detect".into(),
                chosen: "HashJoin(Scan,Scan)".into(),
                cost_milli: 140_000,
                alternatives: 6,
                cost_based: true,
                replan: false,
            },
            JournalEvent::PlanDrift {
                session: 1,
                label: "orders detect".into(),
                plan: "HashJoin(Scan,Scan)".into(),
                op: 2,
                est: 4,
                actual: 64,
                err_pct: -94,
            },
            JournalEvent::PlanDrift {
                session: 1,
                label: "regions sweep".into(),
                plan: "NestJoin(Scan,IndexScan)".into(),
                op: 1,
                est: 80,
                actual: 5,
                err_pct: 1500,
            },
            JournalEvent::PlanChoice {
                session: 1,
                label: "orders detect".into(),
                chosen: "HashJoin(Scan,IndexScan)".into(),
                cost_milli: 12_000,
                alternatives: 6,
                cost_based: true,
                replan: true,
            },
        ];
        let b = DiagnosticBundle::build(&readout(events), None, "test");
        let p = &b.planner;
        assert_eq!((p.choices, p.cost_based, p.replans, p.stats_updates), (2, 2, 1, 3));
        assert_eq!(
            p.worst_statements,
            vec![("regions sweep".into(), 1500, 1), ("orders detect".into(), 94, 1)],
            "worst |err_pct| first"
        );
        assert_eq!(
            p.set_refreshes,
            vec![(40, 2, 140), (55, 1, 7)],
            "most-refreshed first, last cardinality kept"
        );
        assert_eq!(p.drift_episodes.len(), 2);
        assert_eq!(p.drift_episodes[0].label, "orders detect", "episodes stay in journal order");
        let text = b.render();
        assert!(
            text.contains("2 plan choices (2 cost-based, 1 replans), 3 stats refreshes"),
            "{text}"
        );
        assert!(text.contains("1500% err ×1  regions sweep"), "{text}");
        assert!(text.contains("goop 40 ×2 (card 140)"), "{text}");
        assert!(text.contains("drift: [session 1] op 2 est 4 actual 64 (-94%)"), "{text}");
        let json = b.to_json();
        assert!(
            json.contains("\"planner\": {\"choices\":2,\"cost_based\":2,\"replans\":1"),
            "{json}"
        );
        assert!(json.contains("{\"set\":40,\"refreshes\":2,\"cardinality\":140}"), "{json}");
        assert!(json.contains("\"plan\":\"NestJoin(Scan,IndexScan)\""), "{json}");
        // A journal without planner events keeps the section out entirely.
        let quiet = DiagnosticBundle::build(&readout(vec![JournalEvent::TxnBegin]), None, "t");
        assert!(!quiet.render().contains("planner health"));
    }

    #[test]
    fn replay_verdict_and_renderings() {
        let events = vec![
            JournalEvent::TxnBegin,
            JournalEvent::TxnCommit,
            JournalEvent::Statement { session: 1, wall_ns: 5000, label: "X := 1".into() },
        ];
        let live = replay(&events).snapshot();
        let b = DiagnosticBundle::build(&readout(events), Some(&live), "test");
        assert_eq!(b.replay_matches_live, Some(true));
        let text = b.render();
        assert!(text.contains("reproduces the live MetricsSnapshot exactly"));
        assert!(text.contains("track heat map"));
        let json = b.to_json();
        assert!(json.contains("\"replay_matches_live\": true"));
        assert!(json.contains("\"reason\": \"test\""));
    }
}
