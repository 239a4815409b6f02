//! Rule `wire-drift`: the wire format may only change together with a
//! `FRAME_VERSION` bump.
//!
//! The fingerprint captures, from every codec file: the `FRAME_VERSION`
//! value, every `const NAME: u8 = <int>` tag constant, and a token hash of
//! every `impl Encode for T` / `impl Decode for T` body. The fingerprint is
//! diffed against the committed golden (`crates/analysis/baselines/
//! wire_fingerprint.txt`); a mismatch with an *unchanged* version is drift —
//! some peer on the old version would misparse the new frames. A mismatch
//! with a *bumped* version just means the golden is stale: regenerate with
//! `cargo run -p pd-analysis -- --bless`.

use crate::lexer::{Kind, SourceFile};
use crate::Finding;

pub const RULE: &str = "wire-drift";

/// Files whose constants and codec impls define the wire format.
pub const CODEC_FILES: &[&str] = &[
    "crates/common/src/wire.rs",
    "crates/common/src/sortkey.rs",
    "crates/core/src/codec.rs",
    "crates/sql/src/codec.rs",
    "crates/encoding/src/delta.rs",
    "crates/encoding/src/bloom.rs",
    "crates/dist/src/rpc.rs",
    "crates/dist/src/meta.rs",
];

#[derive(Debug, PartialEq, Eq)]
pub struct Fingerprint {
    /// The `FRAME_VERSION` constant, if found.
    pub frame_version: Option<u64>,
    /// Sorted `tag <file> <NAME> = <value>` and `layout <file> <Trait><Type> = <hash>` lines.
    pub lines: Vec<String>,
}

impl Fingerprint {
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("# pd-analysis wire fingerprint (rule: wire-drift)\n");
        out.push_str("# Any diff here without a FRAME_VERSION bump is wire drift.\n");
        out.push_str("# After bumping FRAME_VERSION, regenerate with:\n");
        out.push_str("#   cargo run -p pd-analysis -- --bless\n");
        out.push_str(&format!("frame_version = {}\n", self.frame_version.unwrap_or(0)));
        for line in &self.lines {
            out.push_str(line);
            out.push('\n');
        }
        out
    }

    pub fn parse(text: &str) -> Fingerprint {
        let mut frame_version = None;
        let mut lines = Vec::new();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if let Some(v) = line.strip_prefix("frame_version = ") {
                frame_version = v.trim().parse().ok();
            } else {
                lines.push(line.to_string());
            }
        }
        lines.sort();
        Fingerprint { frame_version, lines }
    }
}

/// Extract the fingerprint from already-lexed codec files.
pub fn fingerprint(files: &[&SourceFile]) -> Fingerprint {
    let mut frame_version = None;
    let mut lines = Vec::new();
    for file in files {
        extract_tags(file, &mut frame_version, &mut lines);
        extract_layouts(file, &mut lines);
    }
    lines.sort();
    Fingerprint { frame_version, lines }
}

/// `const NAME: u8 = <int>;` outside test regions. `u8` scoping keeps
/// unrelated constants (sizes, depths) out of the wire contract.
fn extract_tags(file: &SourceFile, frame_version: &mut Option<u64>, lines: &mut Vec<String>) {
    let toks = &file.tokens;
    for i in 0..toks.len() {
        if toks[i].in_test || toks[i].text != "const" {
            continue;
        }
        let pat = |off: usize| toks.get(i + off).map(|t| t.text.as_str()).unwrap_or("");
        if pat(2) == ":" && pat(3) == "u8" && pat(4) == "=" {
            let name = pat(1);
            let Some(value) = toks.get(i + 5).filter(|t| t.kind == Kind::Int) else {
                continue;
            };
            if pat(6) != ";" {
                continue;
            }
            let parsed: Option<u64> = value.text.replace('_', "").parse().ok();
            let Some(v) = parsed else { continue };
            if name == "FRAME_VERSION" {
                *frame_version = Some(v);
            }
            lines.push(format!("tag {} {} = {}", file.rel_path, name, v));
        }
    }
}

/// Hash the token stream of each `impl Encode for T` / `impl Decode for T`
/// body. Comments and whitespace don't affect the hash; any token change —
/// field order, a new push, a widened integer — does.
fn extract_layouts(file: &SourceFile, lines: &mut Vec<String>) {
    let toks = &file.tokens;
    let mut i = 0;
    while i < toks.len() {
        if toks[i].in_test || toks[i].text != "impl" {
            i += 1;
            continue;
        }
        // Scan the header (up to the body `{`) for `Encode for` / `Decode for`.
        let mut j = i + 1;
        let mut trait_name: Option<&str> = None;
        let mut for_at: Option<usize> = None;
        while j < toks.len() && toks[j].text != "{" && toks[j].text != ";" {
            if toks[j].text == "for" && j > i + 1 {
                let prev = toks[j - 1].text.as_str();
                if prev == "Encode" || prev == "Decode" {
                    trait_name = Some(if prev == "Encode" { "Encode" } else { "Decode" });
                    for_at = Some(j);
                }
            }
            j += 1;
        }
        let (Some(trait_name), Some(for_at), true) = (trait_name, for_at, j < toks.len()) else {
            i = j + 1;
            continue;
        };
        if toks[j].text != "{" {
            i = j + 1;
            continue;
        }
        let type_name: String = toks[for_at + 1..j].iter().map(|t| t.text.as_str()).collect();
        // Hash the balanced body.
        let mut bal = 0i32;
        let mut k = j;
        let mut hash = Fnv::new();
        while k < toks.len() {
            match toks[k].text.as_str() {
                "{" => bal += 1,
                "}" => {
                    bal -= 1;
                    if bal == 0 {
                        break;
                    }
                }
                _ => {}
            }
            hash.write(toks[k].text.as_bytes());
            hash.write(&[0xff]); // token separator
            k += 1;
        }
        lines.push(format!(
            "layout {} {}<{}> = {:016x}",
            file.rel_path,
            trait_name,
            type_name,
            hash.finish()
        ));
        i = k + 1;
    }
}

/// Diff the live fingerprint against the committed golden.
pub fn check(live: &Fingerprint, golden: &Fingerprint) -> Vec<Finding> {
    if live == golden {
        return Vec::new();
    }
    let mut delta = String::new();
    for l in &golden.lines {
        if !live.lines.contains(l) {
            delta.push_str(&format!("\n  - {l}"));
        }
    }
    for l in &live.lines {
        if !golden.lines.contains(l) {
            delta.push_str(&format!("\n  + {l}"));
        }
    }
    let finding = |message: String| Finding {
        rule: RULE,
        file: "crates/analysis/baselines/wire_fingerprint.txt".to_string(),
        line: 0,
        message,
    };
    if live.frame_version == golden.frame_version {
        vec![finding(format!(
            "wire format changed but FRAME_VERSION is still {:?} — a peer on the old version \
             would misparse these frames; bump FRAME_VERSION in crates/common/src/wire.rs, then \
             run `cargo run -p pd-analysis -- --bless`{delta}",
            golden.frame_version
        ))]
    } else {
        vec![finding(format!(
            "FRAME_VERSION bumped ({:?} -> {:?}) but the committed fingerprint is stale — run \
             `cargo run -p pd-analysis -- --bless` and commit the regenerated golden{delta}",
            golden.frame_version, live.frame_version
        ))]
    }
}

/// FNV-1a, 64-bit — deterministic across runs and platforms, unlike
/// `DefaultHasher`.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    fn finish(&self) -> u64 {
        self.0
    }
}
