//! Lock-order lint: a dependency-free static check of every engine source
//! file against the DESIGN §9 lock hierarchy.
//!
//! The concurrent engine's deadlock-freedom argument is an *ordering*
//! argument: no path acquires a lock further left in the hierarchy while
//! holding one further right. That invariant lives in prose (DESIGN §9)
//! and in reviewers' heads; this lint makes it executable. It scans
//! `crates/*/src` for acquisitions of the named engine locks and reports
//! any function that textually acquires an outer-ranked lock while a
//! guard on an inner-ranked one is still live.
//!
//! Scope and honesty: this is a line-oriented heuristic, not an alias
//! analysis. It sees guards bound with `let` in a single function and
//! their `drop(..)`/scope ends; it cannot see a lock acquired in a callee
//! while the caller holds a guard (the interleaving-model test and
//! ThreadSanitizer cover dynamic order). A heuristic that has caught one
//! inversion at review time has paid for itself; one that false-positives
//! gets deleted — so acquisitions that are not plainly `let`-bound guards
//! are treated as same-statement temporaries.
//!
//! ```sh
//! cargo test -q --test lock_lint
//! ```

use std::path::{Path, PathBuf};

/// The DESIGN §9 hierarchy, outermost first. A lock's rank is its index;
/// acquiring rank *r* while holding rank *r' > r* is a violation.
/// Patterns are matched against comment-stripped source lines.
const HIERARCHY: &[(&str, &[&str])] = &[
    // The effect-summary cache is held across schema reads while the
    // interprocedural analysis walks the call graph, so it sits outside
    // even the commit lock (nothing holds a rightward lock and then
    // classifies).
    ("effects", &[".effects.lock("]),
    ("commit-lock", &["commit_lock.lock("]),
    ("schema", &[".schema.read(", ".schema.write("]),
    ("methods", &[".methods.read(", ".methods.write("]),
    ("txn-inner", &[".inner.lock("]),
    ("store-writer", &[".writer.lock("]),
    ("disk", &[".disk.lock("]),
    ("objects-shard", &[".shard(", ".shards["]),
    ("locations", &[".locations.read(", ".locations.write("]),
    ("root", &[".root.read(", ".root.write("]),
    ("evict", &[".evict.lock("]),
    ("committed-view", &[".committed.read(", ".committed.write("]),
];

/// Sanctioned inversions, `(held, acquired)`. The evict mutex takes
/// object-shard write locks inside it while enforcing the resident bound —
/// the one nesting DESIGN §9 blesses (shard guards are only ever
/// statement-temporaries elsewhere, so no cycle closes).
const SANCTIONED: &[(&str, &str)] = &[("evict", "objects-shard")];

/// A lock acquisition found on one source line.
struct Acquisition {
    rank: usize,
    /// `Some(guard_name)` when `let`-bound (live to scope end), `None`
    /// for a same-statement temporary.
    bound: Option<String>,
}

/// A still-live `let`-bound guard.
struct Held {
    rank: usize,
    name: String,
    depth: i32,
    line: usize,
}

fn rank_name(rank: usize) -> &'static str {
    HIERARCHY[rank].0
}

fn sanctioned(held: usize, acquired: usize) -> bool {
    SANCTIONED.iter().any(|&(h, a)| h == rank_name(held) && a == rank_name(acquired))
}

/// Strip a trailing `// …` comment (good enough for engine sources: lock
/// patterns never appear inside string literals there, and the clean
/// verdict on the real tree guards this assumption).
fn strip_comment(line: &str) -> &str {
    match line.find("//") {
        Some(i) => &line[..i],
        None => line,
    }
}

/// The acquisitions on one comment-stripped line, in pattern order.
fn acquisitions(code: &str) -> Vec<Acquisition> {
    let mut found = Vec::new();
    for (rank, (name, patterns)) in HIERARCHY.iter().enumerate() {
        let hit = match *name {
            // The object/track shard maps are guard-per-entry: only count
            // them when the line actually takes the shard's lock.
            "objects-shard" => {
                patterns.iter().any(|p| code.contains(p))
                    && (code.contains(".read()")
                        || code.contains(".write()")
                        || code.contains(".lock()"))
            }
            _ => patterns.iter().any(|p| code.contains(p)),
        };
        if !hit {
            continue;
        }
        let trimmed = code.trim_end();
        // `let guard = x.lock();` — the guard itself is bound and lives to
        // scope end. A longer chain (`.lock().stats()`) or a bare
        // expression releases within the statement.
        let bound = if code.contains("let ")
            && (trimmed.ends_with(".lock();")
                || trimmed.ends_with(".read();")
                || trimmed.ends_with(".write();"))
        {
            let after_let = &code[code.find("let ").unwrap() + 4..];
            let after_mut = after_let.strip_prefix("mut ").unwrap_or(after_let);
            let name: String =
                after_mut.chars().take_while(|c| c.is_alphanumeric() || *c == '_').collect();
            (!name.is_empty()).then_some(name)
        } else {
            None
        };
        found.push(Acquisition { rank, bound });
    }
    found
}

/// Lint one source text. `label` prefixes each finding (a path for the
/// tree, a fixture name in the self-test).
fn lint_source(label: &str, text: &str) -> Vec<String> {
    let mut findings = Vec::new();
    let mut held: Vec<Held> = Vec::new();
    let mut depth: i32 = 0;
    for (idx, raw) in text.lines().enumerate() {
        let lineno = idx + 1;
        let code = strip_comment(raw);
        // A new function body never inherits guards (the depth rule
        // catches this too; this is belt-and-braces for one-line bodies).
        if code.trim_start().starts_with("fn ") || code.contains(" fn ") {
            held.clear();
        }
        for acq in acquisitions(code) {
            for h in &held {
                if acq.rank < h.rank && !sanctioned(h.rank, acq.rank) {
                    findings.push(format!(
                        "{label}:{lineno}: acquires `{}` while `{}` (guard `{}`, line {}) is \
                         held — DESIGN §9 orders {} before {}",
                        rank_name(acq.rank),
                        rank_name(h.rank),
                        h.name,
                        h.line,
                        rank_name(acq.rank),
                        rank_name(h.rank),
                    ));
                }
            }
            if let Some(name) = acq.bound {
                held.push(Held { rank: acq.rank, name, depth, line: lineno });
            }
        }
        // Explicit early release.
        if let Some(i) = code.find("drop(") {
            let name: String =
                code[i + 5..].chars().take_while(|c| c.is_alphanumeric() || *c == '_').collect();
            held.retain(|h| h.name != name);
        }
        let net = code.matches('{').count() as i32 - code.matches('}').count() as i32;
        depth += net;
        held.retain(|h| h.depth <= depth);
    }
    findings
}

fn rust_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            rust_sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Every `crates/*/src` file of the workspace is free of inversions.
#[test]
fn engine_sources_respect_the_lock_hierarchy() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for entry in std::fs::read_dir(root.join("crates")).expect("crates/ directory").flatten() {
        rust_sources(&entry.path().join("src"), &mut files);
    }
    files.sort();
    assert!(!files.is_empty(), "no engine sources found under crates/*/src");
    let findings: Vec<String> = files
        .iter()
        .flat_map(|path| {
            let text = std::fs::read_to_string(path).expect("read source");
            let label = path.strip_prefix(root).unwrap_or(path).display().to_string();
            lint_source(&label, &text)
        })
        .collect();
    assert!(
        findings.is_empty(),
        "{} lock-order violations in {} files:\n{}",
        findings.len(),
        files.len(),
        findings.join("\n")
    );
}

/// The negative test: a seeded inversion must be caught, a clean ordering
/// must not, and a `drop(..)` release or scope end must clear the guard.
#[test]
fn lint_catches_a_seeded_inversion_and_passes_clean_fixtures() {
    let inverted = r#"
fn bad(&self) {
    let mut schema = self.db.schema.write();
    let _commit = self.db.commit_lock.lock();
    schema.flush();
}
"#;
    let clean = r#"
fn good(&self) {
    let _commit = self.db.commit_lock.lock();
    let mut schema = self.db.schema.write();
    *self.db.committed.write() = view;
}
"#;
    let released = r#"
fn fine(&self) {
    let schema = self.db.schema.write();
    drop(schema);
    let _commit = self.db.commit_lock.lock();
}
"#;
    let scoped = r#"
fn scoped(&self) {
    {
        let schema = self.db.schema.read();
        let x = schema.peek();
    }
    let _commit = self.db.commit_lock.lock();
}
"#;
    let sanctioned_nesting = r#"
fn evictor(&self) {
    let mut ev = self.evict.lock();
    self.shard(candidate).write().remove(&candidate);
}
"#;
    let f = lint_source("inverted", inverted);
    assert!(f.len() == 1 && f[0].contains("commit-lock"), "seeded inversion not caught: {f:?}");
    for (name, fixture) in [
        ("clean", clean),
        ("released", released),
        ("scoped", scoped),
        ("evict", sanctioned_nesting),
    ] {
        let f = lint_source(name, fixture);
        assert!(f.is_empty(), "false positive on {name}: {f:?}");
    }
}
