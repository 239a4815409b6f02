//! Rule `lock-order`: the nested-acquisition graph over `pd_common::sync`
//! lock sites must be acyclic, and no lock may be held across an rpc-layer
//! blocking call.
//!
//! Acquisitions are recognized lexically: a no-argument `.lock()` / `.read()`
//! / `.write()` call (the sync shim's entire surface — std's `Read::read` and
//! friends all take arguments, so they never match). The receiver token chain
//! (`self.shared.queue` -> `shared.queue`) names the lock. A guard bound with
//! a plain `let g = recv.lock();` lives to the end of its block or an explicit
//! `drop(g)`; any other acquisition is a temporary that dies at the end of its
//! statement. Nested acquisition A-then-B adds edge A -> B; a cycle anywhere
//! in the workspace-wide graph is a deadlock an unlucky schedule can hit.

use crate::lexer::{Kind, SourceFile};
use crate::Finding;

pub const RULE: &str = "lock-order";

/// The sync shim itself acquires std locks internally; its implementation is
/// the one place the rule must not look.
pub const EXEMPT_FILES: &[&str] = &["crates/common/src/sync.rs"];

const ACQUIRE_METHODS: &[&str] = &["lock", "read", "write"];

/// Calls that block on the network or another thread. Holding any lock across
/// one of these turns a slow peer into a stalled lock for every other thread.
const BLOCKING_CALLS: &[&str] = &[
    "call",
    "call_frame",
    "recv_within",
    "connect",
    "connect_with_retry",
    "connect_by",
    "write_frame",
    "read_frame",
    "read_frame_deadline",
    "write_all_deadline",
    "accept",
    "recv",
    "recv_timeout",
    "join",
    "sleep",
];

/// A nested-acquisition edge: while `held` was held, `acquired` was taken.
#[derive(Debug, Clone)]
pub struct Edge {
    pub held: String,
    pub acquired: String,
    pub site: String, // file:line of the inner acquisition
}

struct Guard {
    name: String,
    binding: Option<String>,
    depth: u32,
}

/// Scan one file; returns direct findings (blocking calls under a lock,
/// immediate re-acquisition) plus the acquisition edges for the global graph.
pub fn check(file: &SourceFile) -> (Vec<Finding>, Vec<Edge>) {
    if EXEMPT_FILES.contains(&file.rel_path.as_str()) {
        return (Vec::new(), Vec::new());
    }
    let mut findings = Vec::new();
    let mut edges = Vec::new();
    let toks = &file.tokens;
    let mut guards: Vec<Guard> = Vec::new();
    let mut current_fn: Option<usize> = None;

    for (i, tok) in toks.iter().enumerate() {
        if tok.in_test {
            continue;
        }
        if tok.func != current_fn {
            // Guards don't survive function boundaries.
            current_fn = tok.func;
            guards.clear();
        }
        match tok.kind {
            Kind::Punct => match tok.text.as_str() {
                "}" => guards.retain(|g| g.depth < tok.depth),
                ";" | "{" => {
                    guards.retain(|g| g.binding.is_some() || g.depth < tok.depth);
                }
                _ => {}
            },
            Kind::Ident => {
                let next_is =
                    |off: usize, s: &str| toks.get(i + off).map(|t| t.text == s).unwrap_or(false);
                let after_dot = i > 0 && toks[i - 1].text == ".";

                // drop(g) releases a named guard early.
                if tok.text == "drop" && next_is(1, "(") {
                    if let Some(binding) = toks.get(i + 2).filter(|t| t.kind == Kind::Ident) {
                        if next_is(3, ")") {
                            guards.retain(|g| g.binding.as_deref() != Some(&binding.text));
                        }
                    }
                    continue;
                }

                let is_acquire = ACQUIRE_METHODS.contains(&tok.text.as_str())
                    && after_dot
                    && next_is(1, "(")
                    && next_is(2, ")");
                if is_acquire {
                    let name = receiver_name(file, i - 1);
                    for g in &guards {
                        if g.name == name && !file.allowed(RULE, tok.line) {
                            findings.push(Finding {
                                rule: RULE,
                                file: file.rel_path.clone(),
                                line: tok.line,
                                message: format!(
                                    "lock `{name}` re-acquired while already held — \
                                     pd_common::sync locks are not reentrant; this deadlocks"
                                ),
                            });
                        } else if g.name != name {
                            edges.push(Edge {
                                held: g.name.clone(),
                                acquired: name.clone(),
                                site: format!("{}:{}", file.rel_path, tok.line),
                            });
                        }
                    }
                    // `let [mut] g = recv.lock();` -> named guard.
                    let binding = named_binding(file, i);
                    guards.push(Guard { name, binding, depth: tok.depth });
                    continue;
                }

                let is_blocking = BLOCKING_CALLS.contains(&tok.text.as_str())
                    && next_is(1, "(")
                    && (i == 0 || toks[i - 1].text != "fn");
                if is_blocking && !guards.is_empty() && !file.allowed(RULE, tok.line) {
                    let held: Vec<&str> = guards.iter().map(|g| g.name.as_str()).collect();
                    findings.push(Finding {
                        rule: RULE,
                        file: file.rel_path.clone(),
                        line: tok.line,
                        message: format!(
                            "blocking call `{}(..)` while holding lock(s) {} — a slow peer \
                             stalls every thread waiting on the lock; drop the guard first",
                            tok.text,
                            held.join(", ")
                        ),
                    });
                }
            }
            _ => {}
        }
    }
    (findings, edges)
}

/// Walk back from the `.` before an acquire method, collecting the
/// `ident(.ident)*` receiver chain. `self.` is stripped so the same field
/// named from different methods unifies.
fn receiver_name(file: &SourceFile, dot_idx: usize) -> String {
    let toks = &file.tokens;
    let mut parts: Vec<&str> = Vec::new();
    let mut j = dot_idx; // toks[j] is the `.`
    loop {
        if j == 0 {
            break;
        }
        let prev = &toks[j - 1];
        if prev.kind == Kind::Ident {
            parts.push(&prev.text);
            if j >= 2 && toks[j - 2].text == "." {
                j -= 2;
                continue;
            }
        }
        break;
    }
    parts.reverse();
    if parts.first() == Some(&"self") {
        parts.remove(0);
    }
    if parts.is_empty() {
        "<expr>".to_string()
    } else {
        parts.join(".")
    }
}

/// If the acquisition is the entire right-hand side of a `let` statement
/// (`let [mut] g = recv.lock();`), return the binding name.
fn named_binding(file: &SourceFile, acquire_idx: usize) -> Option<String> {
    let toks = &file.tokens;
    // Statement must end right after the `()`.
    if toks.get(acquire_idx + 3).map(|t| t.text.as_str()) != Some(";") {
        return None;
    }
    // Walk back over the receiver chain to its head ident.
    let mut j = acquire_idx - 1; // the `.`
    while j >= 2 && toks[j - 1].kind == Kind::Ident && toks[j - 2].text == "." {
        j -= 2;
    }
    if j == 0 || toks[j - 1].kind != Kind::Ident {
        return None;
    }
    let head = j - 1;
    // Expect `let [mut] <binding> =` directly before the receiver head.
    if head < 2 || toks[head - 1].text != "=" {
        return None;
    }
    let binding = toks.get(head - 2).filter(|t| t.kind == Kind::Ident)?;
    let kw = toks.get(head.checked_sub(3)?)?;
    if kw.text == "let" || (kw.text == "mut" && head >= 4 && toks[head - 4].text == "let") {
        Some(binding.text.clone())
    } else {
        None
    }
}

/// Workspace-wide cycle detection over the collected edges.
pub fn check_cycles(edges: &[Edge]) -> Vec<Finding> {
    use std::collections::{BTreeMap, BTreeSet};
    let mut graph: BTreeMap<&str, BTreeMap<&str, &str>> = BTreeMap::new();
    for e in edges {
        graph.entry(&e.held).or_default().entry(&e.acquired).or_insert(&e.site);
    }
    let mut findings = Vec::new();
    let mut reported: BTreeSet<Vec<&str>> = BTreeSet::new();
    let starts: Vec<&str> = graph.keys().copied().collect();
    for start in starts {
        // DFS from each node looking for a path back to it.
        let mut stack = vec![(start, vec![start])];
        let mut seen: BTreeSet<&str> = BTreeSet::new();
        while let Some((node, path)) = stack.pop() {
            let Some(nexts) = graph.get(node) else {
                continue;
            };
            for (&next, &site) in nexts {
                if next == start {
                    let mut key: Vec<&str> = path.clone();
                    key.sort_unstable();
                    key.dedup();
                    if reported.insert(key) {
                        findings.push(Finding {
                            rule: RULE,
                            file: site.split(':').next().unwrap_or("").to_string(),
                            line: site.rsplit(':').next().and_then(|l| l.parse().ok()).unwrap_or(0),
                            message: format!(
                                "lock-order cycle: {} -> {} (edge observed at {}) — two threads \
                                 taking these locks in opposite orders deadlock",
                                path.join(" -> "),
                                start,
                                site
                            ),
                        });
                    }
                } else if seen.insert(next) {
                    let mut p = path.clone();
                    p.push(next);
                    stack.push((next, p));
                }
            }
        }
    }
    findings
}
