//! Rule `float-exactness`: kernel/fold modules must not accumulate `f64`
//! with raw `+` / `+=`.
//!
//! The engine's bit-identical-results guarantee (PR 2's Kulisch `FloatSum`,
//! the double-double `FloatColumn`) holds only because every float
//! aggregation routes through those two types — raw `+` reassociates under
//! sharding/threading and breaks `assert_eq!` on floats across topologies.
//! This rule tracks which identifiers are provably `f64` (typed params,
//! float-literal/`as f64` lets, propagation through `let`) and flags any
//! `+`/`+=` whose operand is one of them, or a float literal.

use crate::lexer::{Kind, SourceFile};
use crate::Finding;
use std::collections::{HashMap, HashSet};

pub const RULE: &str = "float-exactness";

/// The kernel/fold modules where float math is only legal via
/// `FloatSum`/`FloatColumn`. `common/fsum.rs` is the primitive itself and
/// stays out of scope.
pub const TARGET_FILES: &[&str] =
    &["crates/core/src/kernels.rs", "crates/core/src/exec.rs", "crates/core/src/groups.rs"];

pub fn check(file: &SourceFile) -> Vec<Finding> {
    if !TARGET_FILES.contains(&file.rel_path.as_str()) {
        return Vec::new();
    }
    check_file(file)
}

/// Exposed for fixtures: run the rule on any lexed file.
pub fn check_file(file: &SourceFile) -> Vec<Finding> {
    let sig_floats = signature_floats(file);
    let toks = &file.tokens;
    let mut findings = Vec::new();
    // Per-fn known-f64 identifiers, seeded from the signature scan.
    let mut known: HashMap<usize, HashSet<String>> = HashMap::new();

    let is_known = |known: &HashMap<usize, HashSet<String>>, func: Option<usize>, name: &str| {
        func.is_some_and(|f| known.get(&f).is_some_and(|s| s.contains(name)))
    };

    let mut i = 0;
    while i < toks.len() {
        let tok = &toks[i];
        if tok.in_test {
            i += 1;
            continue;
        }
        if let Some(f) = tok.func {
            known
                .entry(f)
                .or_insert_with(|| sig_floats.get(&file.fns[f]).cloned().unwrap_or_default());
        }

        // `let [mut] name … = <rhs up to ;>` — rhs mentioning a float literal,
        // `f64`, or a known-f64 ident marks the binding as f64.
        if tok.kind == Kind::Ident && tok.text == "let" {
            if let Some(func) = tok.func {
                let mut j = i + 1;
                if toks.get(j).map(|t| t.text.as_str()) == Some("mut") {
                    j += 1;
                }
                if let Some(name) = toks.get(j).filter(|t| t.kind == Kind::Ident) {
                    let name = name.text.clone();
                    let mut k = j + 1;
                    let mut floaty = false;
                    while k < toks.len() && toks[k].text != ";" {
                        let t = &toks[k];
                        if t.kind == Kind::Float
                            || (t.kind == Kind::Ident
                                && (t.text == "f64" || is_known(&known, Some(func), &t.text)))
                        {
                            floaty = true;
                        }
                        k += 1;
                    }
                    if floaty {
                        known.entry(func).or_default().insert(name);
                    }
                }
            }
        }

        // `+` / `+=` with a float operand.
        if tok.kind == Kind::Punct && tok.text == "+" {
            let func = tok.func;
            let prev = i.checked_sub(1).map(|p| &toks[p]);
            // Binary position only (Rust has no unary +; `+` after `(`/`,`/`=`
            // can only be a type-bound separator we don't care about).
            let binary = matches!(
                prev,
                Some(p) if p.kind == Kind::Ident
                    || p.kind == Kind::Int
                    || p.kind == Kind::Float
                    || p.text == ")"
                    || p.text == "]"
            );
            if binary {
                let prev_float = match prev {
                    Some(p) if p.kind == Kind::Float => true,
                    Some(p) if p.kind == Kind::Ident => is_known(&known, func, &p.text),
                    _ => false,
                };
                // Look through `(`/`=` (for `+=`) to the next operand.
                let mut k = i + 1;
                while toks.get(k).map(|t| t.text.as_str()) == Some("=")
                    || toks.get(k).map(|t| t.text.as_str()) == Some("(")
                {
                    k += 1;
                }
                let next_float = match toks.get(k) {
                    Some(n) if n.kind == Kind::Float => true,
                    Some(n) if n.kind == Kind::Ident => is_known(&known, func, &n.text),
                    _ => false,
                };
                if (prev_float || next_float) && !file.allowed(RULE, tok.line) {
                    let op = if toks.get(i + 1).map(|t| t.text.as_str()) == Some("=") {
                        "+="
                    } else {
                        "+"
                    };
                    findings.push(Finding {
                        rule: RULE,
                        file: file.rel_path.clone(),
                        line: tok.line,
                        message: format!(
                            "raw f64 `{op}` in a kernel/fold module — float accumulation must \
                             route through FloatSum or FloatColumn to stay bit-identical across \
                             shard/thread topologies"
                        ),
                    });
                }
            }
        }
        i += 1;
    }
    findings
}

/// Pre-scan every `fn` signature for `name: [&][mut] f64` params, keyed by fn
/// name (signature tokens sit outside the body, so `Token::func` can't see
/// them).
fn signature_floats(file: &SourceFile) -> HashMap<String, HashSet<String>> {
    let toks = &file.tokens;
    let mut out: HashMap<String, HashSet<String>> = HashMap::new();
    let mut i = 0;
    while i < toks.len() {
        if toks[i].text != "fn" || toks[i].kind != Kind::Ident {
            i += 1;
            continue;
        }
        let Some(name) = toks.get(i + 1).filter(|t| t.kind == Kind::Ident) else {
            i += 1;
            continue;
        };
        // Scan to the body `{` or declaration-ending `;`.
        let mut j = i + 2;
        while j < toks.len() && toks[j].text != "{" && toks[j].text != ";" {
            if toks[j].text == "f64" {
                // Walk back over `&`/`mut` to the `:` and the param name.
                let mut b = j;
                while b > 0 && (toks[b - 1].text == "&" || toks[b - 1].text == "mut") {
                    b -= 1;
                }
                if b >= 2 && toks[b - 1].text == ":" && toks[b - 2].kind == Kind::Ident {
                    out.entry(name.text.clone()).or_default().insert(toks[b - 2].text.clone());
                }
            }
            j += 1;
        }
        i = j;
    }
    out
}
