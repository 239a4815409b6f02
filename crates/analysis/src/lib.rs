//! `pd-analysis` — the workspace's static-analysis pass.
//!
//! Five rule classes turn the repo's prose correctness contracts into
//! machine-checked invariants (see ARCHITECTURE.md "Enforced invariants"):
//!
//! | rule              | contract it encodes                                      |
//! |-------------------|----------------------------------------------------------|
//! | `decode-panic`    | hostile bytes never panic a decode surface (PR 3/4/7/9)  |
//! | `wire-drift`      | codec changes require a `FRAME_VERSION` bump (PR 4–9)    |
//! | `lock-order`      | no lock cycles, no locks held across rpc calls (PR 2/6)  |
//! | `float-exactness` | float folds route through `FloatSum`/`FloatColumn`      |
//! | `unsafe-audit`    | every `unsafe` carries a `// SAFETY:` justification      |
//!
//! Escape hatch, per site: `// pd-analysis: allow(<rule>) -- <reason>` on the
//! offending line or the line above. The reason is mandatory.
//!
//! Run it: `cargo run -p pd-analysis` (add `-- --bless` to regenerate the
//! wire fingerprint after a deliberate, version-bumped codec change). The
//! same pass runs under plain `cargo test` via `tests/static_analysis.rs`.

#![forbid(unsafe_code)]

pub mod lexer;
pub mod rules;

use lexer::SourceFile;
use rules::{floats, locks, panics, unsafety, wire_drift};
use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};

/// One rule violation at a source location.
#[derive(Debug, Clone)]
pub struct Finding {
    pub rule: &'static str,
    pub file: String,
    pub line: u32,
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}:{}: {}", self.rule, self.file, self.line, self.message)
    }
}

/// Workspace-relative path of the committed wire fingerprint.
pub const BASELINE_REL_PATH: &str = "crates/analysis/baselines/wire_fingerprint.txt";

/// Walk upward from `start` to the directory whose `Cargo.toml` declares
/// `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

/// All production `.rs` sources: `src/` of the root package and of every
/// crate under `crates/` (tests/, benches/, examples/ are out of scope — the
/// rules guard shipped code).
fn collect_sources(root: &Path) -> Result<Vec<(String, String)>, String> {
    let mut files = Vec::new();
    let mut roots = vec![root.join("src")];
    let crates_dir = root.join("crates");
    let entries = std::fs::read_dir(&crates_dir)
        .map_err(|e| format!("read_dir {}: {e}", crates_dir.display()))?;
    let mut crate_dirs: Vec<PathBuf> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.join("Cargo.toml").is_file())
        .collect();
    crate_dirs.sort();
    for c in &crate_dirs {
        roots.push(c.join("src"));
    }
    for src in roots {
        collect_rs(&src, root, &mut files)?;
    }
    files.sort();
    Ok(files)
}

fn collect_rs(dir: &Path, root: &Path, out: &mut Vec<(String, String)>) -> Result<(), String> {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return Ok(()); // a crate without src/ (none today) is not an error
    };
    let mut paths: Vec<PathBuf> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    paths.sort();
    for p in paths {
        if p.is_dir() {
            collect_rs(&p, root, out)?;
        } else if p.extension().is_some_and(|e| e == "rs") {
            let rel = p
                .strip_prefix(root)
                .map_err(|e| e.to_string())?
                .to_string_lossy()
                .replace('\\', "/");
            let text =
                std::fs::read_to_string(&p).map_err(|e| format!("read {}: {e}", p.display()))?;
            out.push((rel, text));
        }
    }
    Ok(())
}

/// Which crate a workspace-relative source path belongs to (for the
/// unsafe-free/forbid accounting).
fn crate_of(rel_path: &str) -> Option<String> {
    if let Some(rest) = rel_path.strip_prefix("crates/") {
        return rest.split('/').next().map(|c| format!("pd-{c}"));
    }
    if rel_path.starts_with("src/") {
        return Some("powerdrill".to_string());
    }
    None
}

/// Compute the live wire fingerprint from the codec files on disk.
pub fn compute_fingerprint(root: &Path) -> Result<wire_drift::Fingerprint, String> {
    let mut parsed = Vec::new();
    for rel in wire_drift::CODEC_FILES {
        let path = root.join(rel);
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
        parsed.push(SourceFile::parse(rel, &text));
    }
    let refs: Vec<&SourceFile> = parsed.iter().collect();
    Ok(wire_drift::fingerprint(&refs))
}

/// Load the committed golden fingerprint.
pub fn load_baseline(root: &Path) -> Result<wire_drift::Fingerprint, String> {
    let path = root.join(BASELINE_REL_PATH);
    let text =
        std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
    Ok(wire_drift::Fingerprint::parse(&text))
}

/// Regenerate the committed golden from the live tree.
pub fn bless(root: &Path) -> Result<(), String> {
    let fp = compute_fingerprint(root)?;
    let path = root.join(BASELINE_REL_PATH);
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    }
    std::fs::write(&path, fp.render()).map_err(|e| format!("write {}: {e}", path.display()))
}

/// Run every rule over the workspace and return all surviving findings.
pub fn analyze_workspace(root: &Path) -> Result<Vec<Finding>, String> {
    let sources = collect_sources(root)?;
    let mut findings = Vec::new();
    let mut edges = Vec::new();
    // crate name -> (lib file index, any unsafe seen)
    let mut crates: BTreeMap<String, (Option<usize>, bool)> = BTreeMap::new();
    let mut parsed = Vec::with_capacity(sources.len());

    for (rel, text) in &sources {
        let file = SourceFile::parse(rel, text);
        for &line in &file.malformed_allows {
            findings.push(Finding {
                rule: "allow-syntax",
                file: rel.clone(),
                line,
                message: "malformed pd-analysis directive — expected \
                          `// pd-analysis: allow(<rule>) -- <reason>` (the reason is mandatory)"
                    .to_string(),
            });
        }
        findings.extend(panics::check(&file));
        findings.extend(floats::check(&file));
        findings.extend(unsafety::check(&file));
        let (lock_findings, lock_edges) = locks::check(&file);
        findings.extend(lock_findings);
        edges.extend(lock_edges);

        if let Some(name) = crate_of(rel) {
            let entry = crates.entry(name).or_insert((None, false));
            if rel.ends_with("/lib.rs") && rel.matches('/').count() <= 3 {
                entry.0 = Some(parsed.len());
            }
            entry.1 |= unsafety::file_has_unsafe(&file);
        }
        parsed.push(file);
    }

    findings.extend(locks::check_cycles(&edges));

    for (name, (lib_idx, has_unsafe)) in &crates {
        if let Some(idx) = lib_idx {
            let lib = &parsed[*idx];
            if let Some(f) = unsafety::check_crate_forbid(name, &lib.rel_path, lib, *has_unsafe) {
                findings.push(f);
            }
        }
    }

    // Wire drift: live fingerprint vs the committed golden.
    let live = compute_fingerprint(root)?;
    match load_baseline(root) {
        Ok(golden) => findings.extend(wire_drift::check(&live, &golden)),
        Err(e) => findings.push(Finding {
            rule: wire_drift::RULE,
            file: BASELINE_REL_PATH.to_string(),
            line: 0,
            message: format!(
                "no committed wire fingerprint ({e}) — run `cargo run -p pd-analysis -- --bless` \
                 and commit the golden"
            ),
        }),
    }

    findings
        .sort_by(|a, b| (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule)));
    Ok(findings)
}
