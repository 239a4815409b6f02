//! Fixture tests: every rule class must catch a seeded violation, respect
//! `#[cfg(test)]` regions, and honor the inline allow escape hatch. These
//! fixtures are the proof that a clean `cargo run -p pd-analysis` means
//! something — a rule that can't fail here enforces nothing.

use pd_analysis::lexer::SourceFile;
use pd_analysis::rules::{floats, locks, panics, unsafety, wire_drift};

fn parse(rel: &str, src: &str) -> SourceFile {
    SourceFile::parse(rel, src)
}

// --- rule 1: decode-panic --------------------------------------------------

/// A path inside the real surface table, whole-file scope.
const WIRE: &str = "crates/common/src/wire.rs";

#[test]
fn decode_panic_catches_unwrap_expect_and_panic() {
    let src = r#"
fn decode(buf: &[u8]) -> u8 {
    let a = buf.first().unwrap();
    let b = buf.last().expect("non-empty");
    if *a == 0 { panic!("zero"); }
    assert!(*b != 0);
    *a
}
"#;
    let findings = panics::check(&parse(WIRE, src));
    let kinds: Vec<&str> = findings.iter().map(|f| f.message.split(' ').next().unwrap()).collect();
    assert_eq!(kinds, vec![".unwrap()", ".expect()", "panic!", "assert!"]);
}

#[test]
fn decode_panic_catches_indexing() {
    let src = "fn decode(buf: &[u8]) -> u8 { buf[0] }\n";
    let findings = panics::check(&parse(WIRE, src));
    assert_eq!(findings.len(), 1);
    assert!(findings[0].message.contains("indexing"));
}

#[test]
fn decode_panic_ignores_cfg_test_regions() {
    let src = "#[cfg(test)]\nmod tests {\n    fn t(buf: &[u8]) { buf[0]; x.unwrap(); }\n}\n";
    assert!(panics::check(&parse(WIRE, src)).is_empty());
}

#[test]
fn decode_panic_respects_fn_scoped_surfaces() {
    // rpc.rs is fn-scoped: `decode` is a surface, `encode_only` is not.
    let rpc = "crates/dist/src/rpc.rs";
    let src = "fn decode(b: &[u8]) -> u8 { b[0] }\nfn encode_only(b: &[u8]) -> u8 { b[0] }\n";
    let findings = panics::check(&parse(rpc, src));
    assert_eq!(findings.len(), 1);
    assert_eq!(findings[0].line, 1);
}

#[test]
fn decode_panic_flags_a_surface_naming_a_missing_function() {
    // A declared name the file does not define guards nothing.
    let src = "fn decode(b: &[u8]) -> u8 { b.len() as u8 }\n";
    let findings = panics::check_surface(&parse(WIRE, src), Some(&["decode", "gone"]));
    assert_eq!(findings.len(), 1);
    assert!(findings[0].message.contains("`gone`"), "{}", findings[0].message);
    // The real table: frame.rs without `read_more` is a finding.
    let frame = "crates/dist/src/rpc/frame.rs";
    let src = "fn parse() {}\nfn read_frame() {}\nfn read_frame_deadline() {}\nfn read_some() {}\n";
    let findings = panics::check(&parse(frame, src));
    assert_eq!(findings.len(), 1);
    assert!(findings[0].message.contains("`read_more`"), "{}", findings[0].message);
}

#[test]
fn decode_panic_honors_inline_allow() {
    let src = "fn decode(b: &[u8]) -> u8 {\n    // pd-analysis: allow(decode-panic) -- bounds checked by caller\n    b[0]\n}\n";
    assert!(panics::check(&parse(WIRE, src)).is_empty());
}

#[test]
fn decode_panic_outside_surface_files_is_ignored() {
    let src = "fn decode(b: &[u8]) -> u8 { b[0] }\n";
    assert!(panics::check(&parse("crates/core/src/exec.rs", src)).is_empty());
}

// --- rule 2: wire-drift ----------------------------------------------------

fn fp_of(src: &str) -> wire_drift::Fingerprint {
    let f = parse("crates/dist/src/rpc.rs", src);
    wire_drift::fingerprint(&[&f])
}

const CODEC_V5: &str = "
pub const FRAME_VERSION: u8 = 5;
const REQ_PING: u8 = 0;
impl Encode for Request {
    fn encode(&self, out: &mut Vec<u8>) { out.push(REQ_PING); }
}
";

#[test]
fn wire_drift_fails_on_tag_change_without_version_bump() {
    let golden = fp_of(CODEC_V5);
    let drifted = fp_of(&CODEC_V5.replace("REQ_PING: u8 = 0", "REQ_PING: u8 = 9"));
    let findings = wire_drift::check(&drifted, &golden);
    assert_eq!(findings.len(), 1);
    assert!(findings[0].message.contains("FRAME_VERSION is still"));
}

#[test]
fn wire_drift_fails_on_layout_change_without_version_bump() {
    let golden = fp_of(CODEC_V5);
    let drifted =
        fp_of(&CODEC_V5.replace("out.push(REQ_PING);", "out.push(REQ_PING); out.push(0);"));
    let findings = wire_drift::check(&drifted, &golden);
    assert_eq!(findings.len(), 1);
    assert!(findings[0].message.contains("misparse"));
}

#[test]
fn wire_drift_with_version_bump_reports_stale_golden() {
    let golden = fp_of(CODEC_V5);
    let bumped = fp_of(
        &CODEC_V5
            .replace("FRAME_VERSION: u8 = 5", "FRAME_VERSION: u8 = 6")
            .replace("REQ_PING: u8 = 0", "REQ_PING: u8 = 9"),
    );
    let findings = wire_drift::check(&bumped, &golden);
    assert_eq!(findings.len(), 1);
    assert!(findings[0].message.contains("--bless"));
}

#[test]
fn wire_drift_clean_when_identical() {
    assert!(wire_drift::check(&fp_of(CODEC_V5), &fp_of(CODEC_V5)).is_empty());
}

#[test]
fn wire_drift_comment_changes_do_not_drift() {
    let commented = CODEC_V5.replace("out.push(REQ_PING);", "out.push(REQ_PING); // the tag\n");
    assert!(wire_drift::check(&fp_of(&commented), &fp_of(CODEC_V5)).is_empty());
}

/// A codec shaped like `ShardMeta`'s: no tag constants, only the order in
/// which fields are written and read.
const META_CODEC: &str = "
impl Encode for ChunkMeta {
    fn encode(&self, out: &mut Vec<u8>) {
        self.rows.encode(out);
        self.columns.encode(out);
    }
}
impl Decode for ChunkMeta {
    fn decode(r: &mut Reader<'_>) -> Result<ChunkMeta> {
        Ok(ChunkMeta { rows: r.u64()?, columns: Vec::<ColumnMeta>::decode(r)? })
    }
}
";

#[test]
fn wire_drift_covers_field_order_in_the_shard_meta_codecs() {
    const META: &str = "crates/dist/src/meta.rs";
    assert!(wire_drift::CODEC_FILES.contains(&META), "ShardMeta's codecs are fingerprinted");
    let fp = |src: &str| {
        let version = parse(WIRE, "pub const FRAME_VERSION: u8 = 5;\n");
        wire_drift::fingerprint(&[&version, &parse(META, src)])
    };
    let golden = fp(META_CODEC);
    assert_eq!(golden.lines.iter().filter(|l| l.starts_with("layout")).count(), 2);
    let reordered = META_CODEC.replace(
        "self.rows.encode(out);\n        self.columns.encode(out);",
        "self.columns.encode(out);\n        self.rows.encode(out);",
    );
    assert_ne!(reordered, META_CODEC);
    let findings = wire_drift::check(&fp(&reordered), &golden);
    assert_eq!(findings.len(), 1);
    assert!(findings[0].message.contains("Encode<ChunkMeta>"), "{}", findings[0].message);
}

#[test]
fn wire_fingerprint_render_parse_round_trips() {
    let fp = fp_of(CODEC_V5);
    let reparsed = wire_drift::Fingerprint::parse(&fp.render());
    assert_eq!(fp, reparsed);
}

// --- rule 3: lock-order ----------------------------------------------------

#[test]
fn lock_order_catches_cycles() {
    let src = "
fn ab(&self) { let g = self.a.lock(); self.b.lock(); }
fn ba(&self) { let g = self.b.lock(); self.a.lock(); }
";
    let (findings, edges) = locks::check(&parse("crates/dist/src/x.rs", src));
    assert!(findings.is_empty());
    let cycles = locks::check_cycles(&edges);
    assert_eq!(cycles.len(), 1);
    assert!(cycles[0].message.contains("cycle"));
}

#[test]
fn lock_order_catches_blocking_call_under_lock() {
    let src = "fn q(&self) { let g = self.conn.lock(); self.client.call(req); }\n";
    let (findings, _) = locks::check(&parse("crates/dist/src/x.rs", src));
    assert_eq!(findings.len(), 1);
    assert!(findings[0].message.contains("blocking call"));
}

#[test]
fn lock_order_drop_releases_named_guard() {
    let src = "fn q(&self) { let g = self.conn.lock(); drop(g); self.client.call(req); }\n";
    let (findings, _) = locks::check(&parse("crates/dist/src/x.rs", src));
    assert!(findings.is_empty());
}

#[test]
fn lock_order_temporary_guard_dies_at_statement_end() {
    let src = "fn q(&self) { let n = *self.count.lock(); self.client.call(req); }\n";
    let (findings, _) = locks::check(&parse("crates/dist/src/x.rs", src));
    assert!(findings.is_empty());
}

#[test]
fn lock_order_catches_reentrant_acquisition() {
    let src = "fn q(&self) { let g = self.m.lock(); let h = self.m.lock(); }\n";
    let (findings, _) = locks::check(&parse("crates/dist/src/x.rs", src));
    assert_eq!(findings.len(), 1);
    assert!(findings[0].message.contains("re-acquired"));
}

#[test]
fn lock_order_honors_inline_allow() {
    let src = "fn q(&self) {\n    // pd-analysis: allow(lock-order) -- serialized on purpose\n    self.conn.lock().call(req);\n}\n";
    let (findings, _) = locks::check(&parse("crates/dist/src/x.rs", src));
    assert!(findings.is_empty());
}

#[test]
fn lock_order_nested_acquisition_in_one_order_is_no_cycle() {
    let src = "fn ab(&self) { let g = self.a.lock(); self.b.lock(); }\n";
    let (findings, edges) = locks::check(&parse("crates/dist/src/x.rs", src));
    assert!(findings.is_empty());
    assert_eq!(edges.len(), 1);
    assert!(locks::check_cycles(&edges).is_empty());
}

// --- rule 4: float-exactness -----------------------------------------------

const KERNELS: &str = "crates/core/src/kernels.rs";

#[test]
fn float_exactness_catches_plus_eq_accumulation() {
    let src =
        "fn fold(vals: &[f64]) {\n    let mut acc = 0.0;\n    for v in vals { acc += 1.0; }\n}\n";
    let findings = floats::check(&parse(KERNELS, src));
    assert_eq!(findings.len(), 1);
    assert!(findings[0].message.contains("+="));
}

#[test]
fn float_exactness_catches_param_addition() {
    let src = "fn mid(a: f64, b: f64) -> f64 { a + b }\n";
    let findings = floats::check(&parse(KERNELS, src));
    assert_eq!(findings.len(), 1);
}

#[test]
fn float_exactness_tracks_known_floats_through_lets() {
    let src = "fn f(x: i64) {\n    let y = x as f64;\n    let z = y + y;\n}\n";
    let findings = floats::check(&parse(KERNELS, src));
    assert_eq!(findings.len(), 1);
}

#[test]
fn float_exactness_ignores_integer_math_and_other_files() {
    let int_src = "fn f(a: u64, b: u64) -> u64 { a + b }\n";
    assert!(floats::check(&parse(KERNELS, int_src)).is_empty());
    let float_src = "fn mid(a: f64, b: f64) -> f64 { a + b }\n";
    assert!(floats::check(&parse("crates/common/src/fsum.rs", float_src)).is_empty());
}

#[test]
fn float_exactness_honors_inline_allow() {
    let src = "fn mid(a: f64, b: f64) -> f64 {\n    // pd-analysis: allow(float-exactness) -- compensated below\n    a + b\n}\n";
    assert!(floats::check(&parse(KERNELS, src)).is_empty());
}

// --- rule 5: unsafe-audit --------------------------------------------------

#[test]
fn unsafe_audit_catches_bare_unsafe() {
    let src = "fn f() { unsafe { std::mem::transmute::<u8, i8>(0) }; }\n";
    let findings = unsafety::check(&parse("crates/core/src/x.rs", src));
    assert_eq!(findings.len(), 1);
    assert!(findings[0].message.contains("SAFETY"));
}

#[test]
fn unsafe_audit_accepts_safety_comment_block() {
    let src = "// SAFETY: the transmute only erases a lifetime; the borrow\n// outlives the job (see the wait loop below).\nfn f() { unsafe { x() } }\n";
    assert!(unsafety::check(&parse("crates/core/src/x.rs", src)).is_empty());
}

#[test]
fn unsafe_audit_requires_contiguous_comment_block() {
    let src = "// SAFETY: stale justification\n\nfn other() {}\nfn f() { unsafe { x() } }\n";
    assert_eq!(unsafety::check(&parse("crates/core/src/x.rs", src)).len(), 1);
}

#[test]
fn unsafe_audit_forbid_detection() {
    let with = parse("crates/common/src/lib.rs", "#![forbid(unsafe_code)]\npub mod a;\n");
    let without = parse("crates/common/src/lib.rs", "pub mod a;\n");
    assert!(unsafety::has_forbid_unsafe(&with));
    assert!(unsafety::check_crate_forbid("pd-common", "crates/common/src/lib.rs", &with, false)
        .is_none());
    let finding =
        unsafety::check_crate_forbid("pd-common", "crates/common/src/lib.rs", &without, false);
    assert!(finding.is_some_and(|f| f.message.contains("forbid(unsafe_code)")));
    // A crate with real unsafe must NOT be asked to forbid it.
    assert!(
        unsafety::check_crate_forbid("pd-core", "crates/core/src/lib.rs", &without, true).is_none()
    );
}

// --- allow-directive hygiene ----------------------------------------------

#[test]
fn allow_without_reason_is_rejected_not_honored() {
    let src = "fn decode(b: &[u8]) -> u8 {\n    // pd-analysis: allow(decode-panic)\n    b[0]\n}\n";
    let file = parse(WIRE, src);
    assert_eq!(file.malformed_allows, vec![2]);
    // And the violation still fires: a reasonless allow suppresses nothing.
    assert_eq!(panics::check(&file).len(), 1);
}
