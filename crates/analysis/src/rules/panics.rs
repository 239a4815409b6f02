//! Rule `decode-panic`: declared decode surfaces must be panic-free.
//!
//! The frame fuzzers (PR 3/4/7/9) assert "hostile bytes never panic the
//! reader" dynamically; this rule makes the same contract lexical: inside the
//! decode surfaces listed below, `unwrap()`, `expect(…)`, `panic!`-family
//! macros, `assert!`-family macros and `[…]` indexing are all findings unless
//! the code sits in a `#[cfg(test)]` region or carries an inline allow. A
//! surface that names a function its file does not define is a finding too:
//! such a name guards nothing.

use crate::lexer::{Kind, SourceFile};
use crate::Finding;

pub const RULE: &str = "decode-panic";

/// A decode surface: a file, optionally narrowed to a set of functions.
/// `fns: None` means the whole file is a decode surface.
pub struct Surface {
    pub path: &'static str,
    pub fns: Option<&'static [&'static str]>,
}

/// The surfaces named by the contract. `wire.rs` and the two codec files are
/// decode-or-encode throughout, so the whole file is held to the standard;
/// `sortkey.rs` (the check every decoded key cell passes), `groups.rs` (the
/// constructors that check decoded columns against the group table's
/// invariants)/`delta.rs`/`bloom.rs`/`rpc.rs` (and its
/// `frame.rs`/`fanout.rs`)/`meta.rs` mix decode paths with
/// construction-time code, so only the read-side functions are in scope —
/// among them the two that apply a wire-borne append to a shard summary
/// (`absorb_into`, `absorb_append`).
pub const DECODE_SURFACES: &[Surface] = &[
    Surface { path: "crates/common/src/wire.rs", fns: None },
    Surface { path: "crates/common/src/sortkey.rs", fns: Some(&["check"]) },
    Surface { path: "crates/core/src/codec.rs", fns: None },
    Surface { path: "crates/core/src/groups.rs", fns: Some(&["from_columns", "from_parts"]) },
    Surface { path: "crates/sql/src/codec.rs", fns: None },
    Surface { path: "crates/encoding/src/delta.rs", fns: Some(&["decode", "validate"]) },
    Surface { path: "crates/encoding/src/bloom.rs", fns: Some(&["decode"]) },
    Surface { path: "crates/dist/src/rpc.rs", fns: Some(&["decode"]) },
    Surface {
        path: "crates/dist/src/rpc/frame.rs",
        fns: Some(&["parse", "read_frame", "read_frame_deadline", "read_some", "read_more"]),
    },
    Surface { path: "crates/dist/src/rpc/fanout.rs", fns: Some(&["absorb_into"]) },
    Surface { path: "crates/dist/src/meta.rs", fns: Some(&["decode", "absorb_append"]) },
];

const PANIC_MACROS: &[&str] =
    &["panic", "assert", "assert_eq", "assert_ne", "unreachable", "todo", "unimplemented"];

/// Keywords that may legally precede `[` without it being an indexing
/// expression (slice patterns, `for x in [..]`, `return [..]`, …).
const NON_INDEX_KEYWORDS: &[&str] = &[
    "let", "in", "if", "else", "match", "return", "mut", "ref", "move", "box", "as", "break",
    "continue", "loop", "where", "dyn", "impl", "const", "static", "type", "fn", "use", "pub",
    "crate", "super",
];

pub fn check(file: &SourceFile) -> Vec<Finding> {
    let Some(surface) = DECODE_SURFACES.iter().find(|s| s.path == file.rel_path) else {
        return Vec::new();
    };
    check_surface(file, surface.fns)
}

/// Exposed separately so fixtures can exercise the fn-scoped mode directly.
pub fn check_surface(file: &SourceFile, fns: Option<&[&str]>) -> Vec<Finding> {
    let missing =
        fns.unwrap_or_default().iter().filter(|name| !file.fns.iter().any(|f| f == *name));
    let mut findings: Vec<Finding> = missing
        .map(|name| Finding {
            rule: RULE,
            file: file.rel_path.clone(),
            line: 1,
            message: format!("decode surface `{name}` names no function this file defines"),
        })
        .collect();
    let toks = &file.tokens;
    for (i, tok) in toks.iter().enumerate() {
        if tok.in_test {
            continue;
        }
        if let Some(fns) = fns {
            let in_scope =
                tok.func.map(|idx| fns.contains(&file.fns[idx].as_str())).unwrap_or(false);
            if !in_scope {
                continue;
            }
        }
        let next = toks.get(i + 1);
        let prev = i.checked_sub(1).map(|p| &toks[p]);
        let mut flag = |what: &str| {
            if !file.allowed(RULE, tok.line) {
                findings.push(Finding {
                    rule: RULE,
                    file: file.rel_path.clone(),
                    line: tok.line,
                    message: format!(
                        "{what} in a decode surface — hostile bytes must yield Err, never a panic"
                    ),
                });
            }
        };
        match tok.kind {
            Kind::Ident => {
                let is_call = matches!(next, Some(n) if n.text == "(");
                let after_dot = matches!(prev, Some(p) if p.text == ".");
                if is_call && after_dot && (tok.text == "unwrap" || tok.text == "expect") {
                    flag(&format!(".{}()", tok.text));
                } else if PANIC_MACROS.contains(&tok.text.as_str())
                    && matches!(next, Some(n) if n.text == "!")
                {
                    flag(&format!("{}!", tok.text));
                }
            }
            Kind::Punct if tok.text == "[" => {
                // `expr[i]` indexing: `[` directly after an ident (that is not
                // a keyword), a closing bracket, or a closing paren.
                let indexes = match prev {
                    Some(p) if p.kind == Kind::Ident => {
                        !NON_INDEX_KEYWORDS.contains(&p.text.as_str())
                    }
                    Some(p) if p.text == "]" || p.text == ")" || p.text == "?" => true,
                    _ => false,
                };
                if indexes {
                    flag("[..] indexing");
                }
            }
            _ => {}
        }
    }
    findings
}
