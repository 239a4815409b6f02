//! Plain `cargo test` coverage for the pd-analysis pass: the workspace must
//! be clean under all five rule classes, and the wire fingerprint must stay
//! pinned to the committed golden at `FRAME_VERSION` 13. The CI `analysis`
//! job runs the same pass as a binary; this wrapper makes a local
//! `cargo test` catch the same regressions without extra steps.

use std::path::Path;

fn workspace_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

#[test]
fn workspace_is_clean_under_pd_analysis() {
    let findings = pd_analysis::analyze_workspace(workspace_root()).expect("analysis pass runs");
    assert!(
        findings.is_empty(),
        "pd-analysis found {} violation(s):\n{}\n\n\
         Fix each site, or justify it inline with\n\
         `// pd-analysis: allow(<rule>) -- <reason>` on the offending line or the line above.",
        findings.len(),
        findings.iter().map(|f| format!("  {f}")).collect::<Vec<_>>().join("\n")
    );
}

/// The golden wire-fingerprint test (the wire-drift rule's `cargo test`
/// face): every request/response tag and codec layout is pinned to
/// `FRAME_VERSION` 13. If this fails you changed the wire format — that is
/// only legal together with a version bump.
#[test]
fn wire_fingerprint_is_pinned_to_frame_version_13() {
    let root = workspace_root();
    let live = pd_analysis::compute_fingerprint(root).expect("codec files lex");
    let golden = pd_analysis::load_baseline(root).expect("committed golden exists");

    assert_eq!(
        golden.frame_version,
        Some(13),
        "the committed golden records FRAME_VERSION {:?}, expected 13 — if you bumped the \
         version on purpose, update this test's pin alongside the golden",
        golden.frame_version
    );
    assert_eq!(
        live.frame_version,
        Some(13),
        "crates/common/src/wire.rs declares FRAME_VERSION {:?}, expected 13 — a version bump \
         must ship with a re-blessed golden (`cargo run -p pd-analysis -- --bless`) and an \
         updated pin here",
        live.frame_version
    );
    assert_eq!(
        live, golden,
        "the live wire fingerprint no longer matches the committed golden.\n\
         The bump rule: any change to a tag constant or an Encode/Decode impl in a codec file \
         changes what peers parse, so it must ship with (1) a FRAME_VERSION bump in \
         crates/common/src/wire.rs, (2) a re-blessed golden via \
         `cargo run -p pd-analysis -- --bless`, and (3) an updated version pin in this test. \
         A diff without all three is silent wire drift."
    );

    // Spot-pin the request/response tags a mixed-version cluster depends on
    // most — a readable failure long before anyone diffs layout hashes.
    let expect_tags = [
        ("REQ_PING", 0),
        ("REQ_LOAD", 1),
        ("REQ_ATTACH", 2),
        ("REQ_QUERY", 3),
        ("REQ_SHUTDOWN", 5),
        ("REQ_APPEND", 6),
        ("RESP_OK", 0),
        ("RESP_ANSWER", 1),
        ("RESP_ERR", 2),
        ("RESP_MALFORMED", 3),
        ("RESP_LOADED", 4),
        ("RESP_FAULT", 5),
        ("RESP_APPENDED", 6),
    ];
    for (name, value) in expect_tags {
        let line = format!("tag crates/dist/src/rpc.rs {name} = {value}");
        assert!(
            live.lines.contains(&line),
            "expected wire tag `{name} = {value}` missing or renumbered (looked for `{line}`)"
        );
    }
}
