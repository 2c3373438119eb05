//! Crash-point enumeration: an exhaustive recovery harness for the safe-
//! write commit protocol.
//!
//! §7's storage claim is absolute: group safe writes make every commit
//! atomic *no matter when power dies*. Spot checks (tear write 3 of commit
//! 2, see what happens) build confidence but not coverage. This module
//! closes the gap: given a scripted [`Workload`] of commits, it first
//! *profiles* one clean run (a tracing [`FaultPlan`] records that commit k
//! performs w_k writes), then replays the run once per (commit,
//! write-index, tear-class) triple — every write of every commit torn at
//! every structurally distinct byte offset, plus a clean crash before each
//! write, plus transient read faults injected at every read of the
//! recovery pass itself. After each induced crash the volume is reopened
//! through the ordinary [`PermanentStore::open`] path and checked against
//! state images captured from the clean run:
//!
//! * **all-or-nothing** — the recovered state is byte-identical to the
//!   pre-commit image, or (only when the torn write was the root write
//!   itself, which a tear can coincidentally complete) to the post-commit
//!   image; never anything in between;
//! * **history integrity** — every previously committed object, including
//!   its full association tables (temporal `@` reads), survives bit-exact;
//! * **newest root wins** — the recovered epoch is the newest checksummed
//!   root on the platter, as reported by [`RecoveryReport`];
//! * **re-crashable recovery** — recovery is read-only, so an interrupted
//!   reopening fails cleanly and an identical retry succeeds;
//! * **usability** — the recovered store accepts the retried commit and
//!   lands exactly the post-commit image.
//!
//! Every crash point is a printable [`CrashSchedule`] token (`c3.w2.hsum`,
//! `c7.w5.half.r2`) so a matrix failure is a one-line deterministic repro
//! via [`run_schedule`].
//!
//! [`RecoveryReport`]: crate::commit::RecoveryReport

use crate::commit::RecoveryReport;
use crate::disk::{DiskArray, FaultPlan, IoRecord, ReadFault, TearClass};
use crate::format;
use crate::pobj::ObjectDelta;
use crate::store::{PermanentStore, StoreConfig};
use gemstone_object::{ClassId, ElemName, GemError, GemResult, Goop, PRef, SegmentId};
use gemstone_temporal::TxnTime;
use std::collections::BTreeMap;
use std::fmt;
use std::str::FromStr;

/// One crash point, printable as a compact token for one-line repro.
///
/// `c{commit}.w{write}.{tear}` — while applying commit `commit` (0-based),
/// `write` writes succeed and the next one tears per `tear`
/// ([`TearClass::Clean`] = it never lands; power died between writes).
/// An optional `.r{n}` suffix additionally fails the `n`+1st track read of
/// the recovery pass that follows (a crash *during* recovery).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashSchedule {
    /// Which commit of the workload crashes (0-based).
    pub commit: u32,
    /// How many of its writes succeed before the tear.
    pub write: u32,
    /// How the crashing write tears.
    pub tear: TearClass,
    /// `Some(n)`: the recovery pass is itself interrupted at its `n`+1st
    /// track read, then retried.
    pub recovery_read: Option<u32>,
}

impl fmt::Display for CrashSchedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}.w{}.{}", self.commit, self.write, self.tear.token())?;
        if let Some(r) = self.recovery_read {
            write!(f, ".r{r}")?;
        }
        Ok(())
    }
}

impl FromStr for CrashSchedule {
    type Err = String;

    fn from_str(s: &str) -> Result<CrashSchedule, String> {
        let mut parts = s.split('.');
        let commit = parts
            .next()
            .and_then(|p| p.strip_prefix('c'))
            .and_then(|p| p.parse().ok())
            .ok_or_else(|| format!("bad commit field in {s:?}"))?;
        let write = parts
            .next()
            .and_then(|p| p.strip_prefix('w'))
            .and_then(|p| p.parse().ok())
            .ok_or_else(|| format!("bad write field in {s:?}"))?;
        let tear = parts
            .next()
            .and_then(TearClass::from_token)
            .ok_or_else(|| format!("bad tear class in {s:?}"))?;
        let recovery_read = match parts.next() {
            None => None,
            Some(p) => Some(
                p.strip_prefix('r')
                    .and_then(|p| p.parse().ok())
                    .ok_or_else(|| format!("bad recovery-read field in {s:?}"))?,
            ),
        };
        if parts.next().is_some() {
            return Err(format!("trailing garbage in {s:?}"));
        }
        Ok(CrashSchedule { commit, write, tear, recovery_read })
    }
}

/// One scripted commit: metadata blobs staged first, then a delta batch.
#[derive(Debug, Clone)]
pub struct Step {
    /// `set_meta` calls issued before the commit.
    pub metas: Vec<(u8, Vec<u8>)>,
    /// The transaction's object writes.
    pub deltas: Vec<ObjectDelta>,
}

/// A scripted workload: a store configuration and a commit sequence.
/// Everything is fixed up front — no clocks, no randomness — so a replay
/// produces a byte-identical write stream and write index k means the same
/// write on every run.
#[derive(Debug, Clone)]
pub struct Workload {
    pub cfg: StoreConfig,
    pub steps: Vec<Step>,
}

impl Workload {
    /// The standard matrix workload: `commits` commits cycling through the
    /// shapes that stress distinct commit-group layouts — object creation,
    /// element updates, tombstones plus staged metadata, multi-object
    /// groups with cross-references, and byte bodies long enough to span
    /// several tracks. Deterministic by construction.
    pub fn standard(commits: usize) -> Workload {
        let cfg = StoreConfig { track_size: 256, cache_tracks: 16, replicas: 1 };
        let class = ClassId(3);
        let seg = SegmentId(0);
        let update = |goop, writes, bytes: Option<Vec<u8>>| ObjectDelta {
            goop,
            class,
            segment: seg,
            alias_next: 0,
            elem_writes: writes,
            bytes_write: bytes,
            is_new: false,
        };
        let mut created: Vec<Goop> = Vec::new();
        let mut next_goop = 1u64;
        let mut steps = Vec::new();
        for k in 0..commits {
            let ki = k as i64;
            let mut metas = Vec::new();
            let mut deltas = Vec::new();
            match k % 5 {
                0 => {
                    // A fresh object with two elements.
                    let g = Goop(next_goop);
                    next_goop += 1;
                    created.push(g);
                    deltas.push(ObjectDelta {
                        elem_writes: vec![
                            (ElemName::Int(1), PRef::int(ki)),
                            (ElemName::Int(2), PRef::int(2 * ki)),
                        ],
                        is_new: true,
                        ..update(g, vec![], None)
                    });
                }
                1 => {
                    // Update the oldest object and give it a byte body.
                    let g = created[0];
                    deltas.push(update(
                        g,
                        vec![(ElemName::Int(1), PRef::int(100 + ki))],
                        Some(vec![k as u8; 40 + k % 7]),
                    ));
                }
                2 => {
                    // Tombstone an element of the newest object (GOOPs are
                    // handed out in order, and step k - 2 created one);
                    // stage a metadata blob.
                    let g = Goop(next_goop - 1);
                    deltas.push(update(g, vec![(ElemName::Int(2), PRef::NIL)], None));
                    metas.push((1u8, format!("meta-as-of-commit-{k}").into_bytes()));
                }
                3 => {
                    // Multi-object group: create one, cross-reference it.
                    let g = Goop(next_goop);
                    next_goop += 1;
                    created.push(g);
                    let older = created[k % (created.len() - 1)];
                    deltas.push(ObjectDelta {
                        elem_writes: vec![(ElemName::Int(1), PRef::goop(older))],
                        is_new: true,
                        ..update(g, vec![], None)
                    });
                    deltas.push(update(older, vec![(ElemName::Int(3), PRef::goop(g))], None));
                }
                _ => {
                    // Byte body spanning multiple tracks (244-byte payloads).
                    let g = created[k % created.len()];
                    let blob: Vec<u8> = (0..300).map(|i| ((i + k) % 251) as u8).collect();
                    deltas.push(update(g, vec![], Some(blob)));
                }
            }
            steps.push(Step { metas, deltas });
        }
        Workload { cfg, steps }
    }

    /// Commit time of step `k` (fixed, so replays agree).
    fn time(k: usize) -> TxnTime {
        TxnTime::from_ticks(k as u64 + 1)
    }

    /// Every metadata key any step stages.
    fn meta_keys(&self) -> Vec<u8> {
        let mut keys: Vec<u8> =
            self.steps.iter().flat_map(|s| s.metas.iter().map(|(k, _)| *k)).collect();
        keys.sort_unstable();
        keys.dedup();
        keys
    }

    /// Run step `k` against a store: stage metas, commit the batch.
    fn apply(&self, store: &mut PermanentStore, k: usize) -> GemResult<()> {
        for (key, bytes) in &self.steps[k].metas {
            store.set_meta(*key, bytes.clone());
        }
        store.commit_batch(Workload::time(k), &self.steps[k].deltas)
    }
}

/// A logical state image: the canonical serialized form of every committed
/// object (which embeds its complete association tables, i.e. all temporal
/// history), the committed metadata blobs, and the ruling root's identity.
/// Two stores with equal images answer every current and `@`-qualified
/// read identically.
#[derive(Debug, Clone, PartialEq, Eq)]
struct StateImage {
    root_epoch: u64,
    commit_time: TxnTime,
    objects: BTreeMap<u64, Vec<u8>>,
    metas: BTreeMap<u8, Vec<u8>>,
}

impl StateImage {
    fn capture(store: &mut PermanentStore, meta_keys: &[u8]) -> Result<StateImage, String> {
        let root = store.root();
        let mut objects = BTreeMap::new();
        for g in store.all_goops() {
            let obj = store.get(g).map_err(|e| format!("image: get {g:?}: {e}"))?;
            objects.insert(g.0, format::put_object(&obj));
        }
        let mut metas = BTreeMap::new();
        for &key in meta_keys {
            if let Some(b) = store.get_meta(key).map_err(|e| format!("image: meta {key}: {e}"))? {
                metas.insert(key, b);
            }
        }
        Ok(StateImage { root_epoch: root.epoch, commit_time: root.commit_time, objects, metas })
    }

    /// First difference against another image, if any.
    fn diff(&self, other: &StateImage) -> Option<String> {
        if self.root_epoch != other.root_epoch {
            return Some(format!("root epoch {} vs {}", self.root_epoch, other.root_epoch));
        }
        if self.commit_time != other.commit_time {
            return Some(format!("commit time {:?} vs {:?}", self.commit_time, other.commit_time));
        }
        for (g, bytes) in &self.objects {
            match other.objects.get(g) {
                None => return Some(format!("object {g} missing")),
                Some(b) if b != bytes => return Some(format!("object {g} bytes differ")),
                _ => {}
            }
        }
        if let Some(g) = other.objects.keys().find(|g| !self.objects.contains_key(g)) {
            return Some(format!("unexpected object {g}"));
        }
        if self.metas != other.metas {
            return Some("metadata blobs differ".into());
        }
        None
    }
}

/// What one full enumeration saw.
#[derive(Debug, Default, Clone)]
pub struct MatrixReport {
    /// Commits in the workload.
    pub commits: u32,
    /// Total disk writes across all commits (from the profiling run).
    pub total_writes: u64,
    /// (commit, write, tear) crash points exercised.
    pub commit_crash_points: u64,
    /// Crash-during-recovery points exercised.
    pub recovery_crash_points: u64,
    /// Times a volume was reopened through the recovery path.
    pub reopenings: u64,
    /// The most catalog records one successful recovery walked: ≥ 2 means
    /// some recovery replayed the location log, fewer than `commits` that
    /// a page-out cut it short.
    pub max_log_records: u32,
    /// Invariant violations: (schedule token, what failed). Empty = the
    /// protocol held at every enumerated crash point.
    pub violations: Vec<(String, String)>,
}

impl MatrixReport {
    /// True when no enumerated crash point violated an invariant.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Which storage medium a matrix run drives. The enumeration itself is
/// medium-blind — checkpoints, fault arming, tears and recovery all go
/// through the one fault layer ([`Faulty`](crate::Faulty)) — so the only
/// difference is where the bytes live: a [`SimDisk`](crate::SimDisk) in
/// memory, or a real file (plus its checkpoint copies) under `dir`, where
/// [`FaultFile`](crate::FaultFile)'s tears are short `pwrite`s at actual
/// file offsets.
#[derive(Debug, Clone)]
pub enum MatrixBackend {
    /// The in-memory simulated disk (the default).
    Sim,
    /// Real files under `dir` (created if absent). Every file the run
    /// creates — volumes and checkpoint copies — is ephemeral: it is
    /// deleted when its disk handle drops.
    File { dir: std::path::PathBuf },
}

/// Distinguishes concurrently running matrix volumes within one process.
static FILE_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

impl MatrixBackend {
    /// Create a fresh volume for a matrix run.
    fn create_store(&self, cfg: StoreConfig, tag: &str) -> GemResult<PermanentStore> {
        match self {
            MatrixBackend::Sim => PermanentStore::create(cfg),
            MatrixBackend::File { dir } => {
                std::fs::create_dir_all(dir)
                    .map_err(|e| GemError::DiskFailure(format!("create {}: {e}", dir.display())))?;
                let n = FILE_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                let path = dir.join(format!("{tag}-{}-{n}.gem", std::process::id()));
                let mut f = crate::file_disk::FaultFile::create(&path, cfg.track_size)?;
                f.set_ephemeral(true);
                PermanentStore::create_on(DiskArray::from_backend(Box::new(f)), cfg.cache_tracks)
            }
        }
    }
}

/// The clean-run profile: per-commit write counts, a disk checkpoint
/// *before* each commit, and state images around every commit.
struct Profile {
    write_counts: Vec<u32>,
    /// `checkpoints[k]` = the platter after commits `0..k`.
    checkpoints: Vec<DiskArray>,
    /// `images[k]` = the logical state after commits `0..k` (len n+1).
    images: Vec<StateImage>,
}

fn profile(w: &Workload, backend: &MatrixBackend) -> Result<Profile, String> {
    let keys = w.meta_keys();
    let mut store =
        backend.create_store(w.cfg, "matrix-profile").map_err(|e| format!("create: {e}"))?;
    store.disk_mut().replica_mut(0).set_fault_plan(FaultPlan::trace());
    let mut p = Profile {
        write_counts: Vec::new(),
        checkpoints: Vec::new(),
        images: vec![StateImage::capture(&mut store, &keys)?],
    };
    for k in 0..w.steps.len() {
        p.checkpoints.push(checkpoint(store.disk_mut())?);
        w.apply(&mut store, k).map_err(|e| format!("profile commit {k}: {e}"))?;
        p.write_counts.push(traced_writes(store.disk_mut()));
        p.images.push(StateImage::capture(&mut store, &keys)?);
    }
    Ok(p)
}

/// Writes in the primary's I/O trace since it was last taken (draining it).
fn traced_writes(disk: &mut DiskArray) -> u32 {
    let trace = disk.replica_mut(0).take_io_trace();
    trace.iter().filter(|r| matches!(r, IoRecord::Write { .. })).count() as u32
}

fn checkpoint(disk: &DiskArray) -> Result<DiskArray, String> {
    disk.checkpoint().map_err(|e| format!("checkpoint: {e}"))
}

/// Execute one crash schedule against a checkpointed platter and check
/// every invariant. `base` must be the disk after `s.commit` commits;
/// `pre`/`post` the images around that commit. Returns the successful
/// recovery's report (its read count enumerates the crash-during-recovery
/// points), or a violation description.
fn check_schedule(
    w: &Workload,
    s: &CrashSchedule,
    base: &DiskArray,
    pre: &StateImage,
    post: &StateImage,
    write_count: u32,
    reopenings: &mut u64,
) -> Result<RecoveryReport, String> {
    let k = s.commit as usize;
    let keys = w.meta_keys();

    // 1. Reopen the checkpoint and run commit k into the armed fault plan.
    let mut disk = checkpoint(base)?;
    disk.replica_mut(0).revive();
    let mut store = PermanentStore::open(disk, w.cfg.cache_tracks)
        .map_err(|e| format!("checkpoint open: {e}"))?;
    *reopenings += 1;
    store.disk_mut().replica_mut(0).set_fault_plan(FaultPlan {
        crash_after_writes: Some(s.write as u64),
        tear: s.tear,
        ..FaultPlan::default()
    });
    if w.apply(&mut store, k).is_ok() {
        return Err(format!(
            "commit {k} succeeded despite a crash armed at write {} (profile says {} writes)",
            s.write, write_count
        ));
    }

    // 2. Power-up: only the platter survives, so recovery runs over a copy
    //    of it — on a file, one that learns which tracks exist from their
    //    bytes, as a real open does. Optionally interrupt the recovery pass
    //    itself: the interrupted reopening must fail cleanly, and — because
    //    recovery never writes — a retry over the identical platter must
    //    succeed.
    let mut crashed = checkpoint(&store.into_disk())?;
    crashed.replica_mut(0).revive();
    if let Some(r) = s.recovery_read {
        let mut faulted = checkpoint(&crashed)?;
        faulted.replica_mut(0).set_fault_plan(FaultPlan {
            read_fault: Some(ReadFault { after_reads: r as u64, count: 1 }),
            ..FaultPlan::default()
        });
        *reopenings += 1;
        if PermanentStore::open(faulted, w.cfg.cache_tracks).is_ok() {
            return Err(format!("recovery survived a read fault at read {r}"));
        }
    }
    let reads_before = crashed.stats().track_reads;
    let mut recovered = PermanentStore::open(crashed, w.cfg.cache_tracks)
        .map_err(|e| format!("recovery failed: {e}"))?;
    *reopenings += 1;
    let reopen_reads_measured = recovered.disk_stats().track_reads - reads_before;

    // 3. All-or-nothing, byte-identical history. A tear of the root write
    //    itself may coincidentally complete it (e.g. all-but-one-byte with
    //    a matching final byte), so for that write — and only that write —
    //    either side of the commit is legal.
    let img = StateImage::capture(&mut recovered, &keys)?;
    let root_write_torn = s.write == write_count - 1 && s.tear != TearClass::Clean;
    let committed = if img == *pre {
        false
    } else if root_write_torn && img == *post {
        true
    } else {
        let vs = img.diff(pre).unwrap_or_else(|| "?".into());
        return Err(format!("recovered state is neither pre- nor post-commit: {vs}"));
    };

    // 4. The recovery report must agree with ground truth: both root slots
    //    probed, the winner's epoch is the image's, and the discarded
    //    orphans are exactly the shadow writes the torn commit landed.
    let rep = recovered.recovery_report();
    if rep.roots_considered != 2 || rep.roots_valid == 0 {
        return Err(format!("implausible recovery report: {rep:?}"));
    }
    if rep.recovered_epoch != img.root_epoch {
        return Err(format!(
            "report epoch {} but recovered root epoch {}",
            rep.recovered_epoch, img.root_epoch
        ));
    }
    if !committed {
        let data_writes = write_count - 1;
        let mut orphans = s.write.min(data_writes);
        if s.write < data_writes && s.tear != TearClass::Clean {
            orphans += 1; // the torn data track itself reached the platter
        }
        if rep.tracks_discarded != orphans {
            return Err(format!(
                "report discards {} tracks, torn commit left {orphans}",
                rep.tracks_discarded
            ));
        }
    }
    if rep.reopen_reads != reopen_reads_measured {
        return Err("report read count disagrees with disk counters".into());
    }

    // 5. Temporal spot-check on the oldest object: every `@`-qualified
    //    read over its commit times must match the expected image (the
    //    byte comparison above implies this; reading back through the
    //    History API proves the *query path* sees the same associations).
    let expect = if committed { post } else { pre };
    if let Some((&g, bytes)) = expect.objects.iter().next() {
        let want = format::get_object(bytes).map_err(|e| format!("image parse: {e}"))?;
        let got = recovered.get(Goop(g)).map_err(|e| format!("probe get: {e}"))?;
        for t in want.commit_times() {
            let w_elems: Vec<_> = want.elements_at(t).collect();
            let g_elems: Vec<_> = got.elements_at(t).collect();
            if w_elems != g_elems || want.bytes_at(t) != got.bytes_at(t) {
                return Err(format!("temporal read at {t:?} diverges on object {g}"));
            }
        }
    }

    // 6. The recovered store is live: retrying the interrupted commit must
    //    land exactly the post-commit image (skipped when the tear already
    //    completed the commit).
    if !committed {
        w.apply(&mut recovered, k).map_err(|e| format!("retry of commit {k} failed: {e}"))?;
        let after = StateImage::capture(&mut recovered, &keys)?;
        if let Some(vs) = after.diff(post) {
            return Err(format!("retried commit diverged from clean run: {vs}"));
        }
    }
    Ok(rep)
}

/// Enumerate the full crash matrix for a workload: every write of every
/// commit torn at every class in `tears`, plus — per commit — a crash at
/// every read of the recovery pass that follows a mid-root tear. Also
/// replays each commit once with the crash armed exactly one write too
/// late, proving the replayed write count matches the profile (the
/// determinism the whole enumeration rests on). Invariant violations are
/// collected (not panicked) so a CI run can print every failing token.
pub fn enumerate_matrix(w: &Workload, tears: &[TearClass]) -> GemResult<MatrixReport> {
    enumerate_matrix_on(w, tears, &MatrixBackend::Sim)
}

/// [`enumerate_matrix`] against an explicit storage backend. The matrix
/// invariants are backend-independent; a clean run on
/// [`MatrixBackend::File`] proves the §7 atomicity claim against real
/// `pwrite`/`fdatasync` I/O, torn at real file offsets.
pub fn enumerate_matrix_on(
    w: &Workload,
    tears: &[TearClass],
    backend: &MatrixBackend,
) -> GemResult<MatrixReport> {
    assert!(!tears.is_empty(), "need at least one tear class");
    let p = profile(w, backend).map_err(GemError::RuntimeError)?;
    let keys = w.meta_keys();
    let mut report = MatrixReport {
        commits: w.steps.len() as u32,
        total_writes: p.write_counts.iter().map(|&c| c as u64).sum(),
        ..MatrixReport::default()
    };
    for k in 0..w.steps.len() {
        let wc = p.write_counts[k];
        let (base, pre, post) = (&p.checkpoints[k], &p.images[k], &p.images[k + 1]);

        // Determinism probe: armed one write past the end, the commit must
        // succeed and match the clean run — so write index i means the
        // same write here as it did in the profile.
        let mut disk = base.checkpoint()?;
        disk.replica_mut(0).revive();
        let mut store = PermanentStore::open(disk, w.cfg.cache_tracks)
            .map_err(|e| GemError::RuntimeError(format!("checkpoint {k}: {e}")))?;
        report.reopenings += 1;
        store.disk_mut().replica_mut(0).set_fault_plan(FaultPlan::crash_after(wc as u64));
        if let Err(e) = w.apply(&mut store, k) {
            report
                .violations
                .push((format!("c{k}.w{wc}.none"), format!("replay nondeterministic: {e}")));
            continue;
        }
        match StateImage::capture(&mut store, &keys) {
            Err(e) => report.violations.push((format!("c{k}.w{wc}.none"), e)),
            Ok(img) => {
                if let Some(vs) = img.diff(post) {
                    report.violations.push((
                        format!("c{k}.w{wc}.none"),
                        format!("replay diverged from clean run: {vs}"),
                    ));
                }
            }
        }

        // The (write, tear) matrix for this commit.
        let mut recovery_reads = 0;
        for write in 0..wc {
            for &tear in tears {
                let s = CrashSchedule { commit: k as u32, write, tear, recovery_read: None };
                report.commit_crash_points += 1;
                match check_schedule(w, &s, base, pre, post, wc, &mut report.reopenings) {
                    Ok(rep) => {
                        report.max_log_records = report.max_log_records.max(rep.log_records);
                        if write == wc - 1 && tear == TearClass::Half {
                            recovery_reads = rep.reopen_reads;
                        }
                    }
                    Err(v) => report.violations.push((s.to_string(), v)),
                }
            }
        }

        // Crash-during-recovery points: interrupt the recovery that
        // follows a mid-root tear at each of its reads.
        for r in 0..recovery_reads {
            let s = CrashSchedule {
                commit: k as u32,
                write: wc - 1,
                tear: TearClass::Half,
                recovery_read: Some(r as u32),
            };
            report.recovery_crash_points += 1;
            if let Err(v) = check_schedule(w, &s, base, pre, post, wc, &mut report.reopenings) {
                report.violations.push((s.to_string(), v));
            }
        }
    }
    Ok(report)
}

/// Replay a single schedule from scratch — the one-line repro for a token
/// printed by a failing matrix run. Returns the violation, if any.
pub fn run_schedule(w: &Workload, s: &CrashSchedule) -> Result<(), String> {
    run_schedule_on(w, s, &MatrixBackend::Sim)
}

/// [`run_schedule`] against an explicit storage backend.
pub fn run_schedule_on(
    w: &Workload,
    s: &CrashSchedule,
    backend: &MatrixBackend,
) -> Result<(), String> {
    let k = s.commit as usize;
    if k >= w.steps.len() {
        return Err(format!("workload has {} commits, token names c{k}", w.steps.len()));
    }
    let keys = w.meta_keys();
    let mut store =
        backend.create_store(w.cfg, "matrix-repro").map_err(|e| format!("create: {e}"))?;
    store.disk_mut().replica_mut(0).set_fault_plan(FaultPlan::trace());
    for j in 0..k {
        w.apply(&mut store, j).map_err(|e| format!("prefix commit {j}: {e}"))?;
    }
    let pre = StateImage::capture(&mut store, &keys)?;
    let base = checkpoint(store.disk_mut())?;
    store.disk_mut().replica_mut(0).take_io_trace();
    w.apply(&mut store, k).map_err(|e| format!("clean commit {k}: {e}"))?;
    let write_count = traced_writes(store.disk_mut());
    let post = StateImage::capture(&mut store, &keys)?;
    let mut reopenings = 0;
    check_schedule(w, s, &base, &pre, &post, write_count, &mut reopenings).map(|_| ())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_token_roundtrip() {
        for s in [
            CrashSchedule { commit: 0, write: 0, tear: TearClass::Clean, recovery_read: None },
            CrashSchedule { commit: 3, write: 2, tear: TearClass::HeaderSum, recovery_read: None },
            CrashSchedule { commit: 17, write: 6, tear: TearClass::Tail, recovery_read: Some(4) },
        ] {
            let token = s.to_string();
            assert_eq!(token.parse::<CrashSchedule>().unwrap(), s, "{token}");
        }
        assert_eq!(
            CrashSchedule { commit: 3, write: 2, tear: TearClass::HeaderSum, recovery_read: None }
                .to_string(),
            "c3.w2.hsum"
        );
        assert!("x3.w2.hsum".parse::<CrashSchedule>().is_err());
        assert!("c3.w2.bogus".parse::<CrashSchedule>().is_err());
        assert!("c3.w2.half.r1.zz".parse::<CrashSchedule>().is_err());
    }

    #[test]
    fn small_matrix_is_clean() {
        let w = Workload::standard(6);
        let report = enumerate_matrix(&w, &[TearClass::Clean, TearClass::Half]).unwrap();
        assert_eq!(report.commits, 6);
        assert!(report.total_writes >= 12, "each commit writes at least twice");
        assert_eq!(report.commit_crash_points, report.total_writes * 2);
        assert!(report.recovery_crash_points > 0, "recovery reads enumerated");
        assert!(report.reopenings > report.commit_crash_points, "every point reopens");
        assert!(report.is_clean(), "violations: {:?}", report.violations);
    }

    #[test]
    fn small_matrix_is_clean_on_file_backend() {
        let dir = std::env::temp_dir().join(format!("gemstone-matrix-{}", std::process::id()));
        let backend = MatrixBackend::File { dir: dir.clone() };
        let w = Workload::standard(4);
        let report = enumerate_matrix_on(&w, &[TearClass::Clean, TearClass::Tail], &backend)
            .expect("matrix runs");
        assert_eq!(report.commit_crash_points, report.total_writes * 2);
        assert!(report.is_clean(), "violations: {:?}", report.violations);
        // Every volume and checkpoint copy was ephemeral.
        let leftovers = std::fs::read_dir(&dir).map(|d| d.count()).unwrap_or(0);
        assert_eq!(leftovers, 0, "file backend leaked volumes");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn run_schedule_replays_a_token_standalone() {
        let w = Workload::standard(4);
        let s: CrashSchedule = "c3.w1.hlen".parse().unwrap();
        run_schedule(&w, &s).unwrap();
        let during_recovery: CrashSchedule = "c2.w1.half.r0".parse().unwrap();
        run_schedule(&w, &during_recovery).unwrap();
    }

    #[test]
    fn run_schedule_flags_an_unreachable_crash_point() {
        // Arming the crash past the commit's last write means the commit
        // survives — the harness must report that as a violation rather
        // than silently passing.
        let w = Workload::standard(2);
        let s = CrashSchedule { commit: 1, write: 999, tear: TearClass::Half, recovery_read: None };
        let err = run_schedule(&w, &s).unwrap_err();
        assert!(err.contains("succeeded despite"), "{err}");
    }

    #[test]
    fn workload_is_deterministic() {
        // Two independent replays produce identical write traces.
        let w = Workload::standard(7);
        let trace = |w: &Workload| {
            let mut store = PermanentStore::create(w.cfg).unwrap();
            store.disk_mut().replica_mut(0).set_fault_plan(FaultPlan::trace());
            for k in 0..w.steps.len() {
                w.apply(&mut store, k).unwrap();
            }
            store.disk_mut().replica_mut(0).take_io_trace()
        };
        assert_eq!(trace(&w), trace(&w));
    }
}
