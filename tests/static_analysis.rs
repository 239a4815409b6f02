//! Plain `cargo test` coverage for the pd-analysis pass: the workspace must
//! be clean under all five rule classes, and the wire fingerprint must stay
//! pinned to the committed golden at `FRAME_VERSION` 21. The CI `analysis`
//! job runs the same pass as a binary; this wrapper makes a local
//! `cargo test` catch the same regressions without extra steps. Beside
//! them, the size bounds of `dist/src` and `core/src` are counted here.

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
/// `FRAME_VERSION` 21. If this fails you changed the wire format — that is
/// only legal together with a version bump.
#[test]
fn wire_fingerprint_is_pinned_to_frame_version_21() {
    let root = workspace_root();
    let live = pd_analysis::compute_fingerprint(root).expect("codec files lex");
    let golden = pd_analysis::load_baseline(root).expect("committed golden exists");

    assert_eq!(
        golden.frame_version,
        Some(21),
        "the committed golden records FRAME_VERSION {:?}, expected 21 — if you bumped the \
         version on purpose, update this test's pin alongside the golden",
        golden.frame_version
    );
    assert_eq!(
        live.frame_version,
        Some(21),
        "crates/common/src/wire.rs declares FRAME_VERSION {:?}, expected 21 — a version bump \
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

/// The non-test lines of every `.rs` file under `dir`, by two measures:
/// the lines outside `#[cfg(test)] mod … { … }` blocks (a block ends at the
/// first `}` at its `mod` line's indentation, as rustfmt lays it out), and
/// each file's lines up to its first `#[cfg(test)]`.
fn non_test_lines(dir: &Path) -> (usize, usize) {
    let (mut outside, mut to_first) = (0, 0);
    for entry in std::fs::read_dir(dir).expect("source directory lists") {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            let (o, f) = non_test_lines(&path);
            (outside, to_first) = (outside + o, to_first + f);
            continue;
        }
        if path.extension().is_none_or(|ext| ext != "rs") {
            continue;
        }
        let text = std::fs::read_to_string(&path).expect("source file reads");
        let lines: Vec<&str> = text.lines().collect();
        to_first +=
            lines.iter().take_while(|line| !line.trim().starts_with("#[cfg(test)]")).count();
        let indent = |line: &str| line.len() - line.trim_start().len();
        let mut i = 0;
        while i < lines.len() {
            let opens_test_module = lines[i].trim() == "#[cfg(test)]"
                && lines.get(i + 1).is_some_and(|next| {
                    next.trim_start().starts_with("mod ") && next.ends_with(" {")
                });
            if opens_test_module {
                let depth = indent(lines[i + 1]);
                let close = (i + 2..lines.len())
                    .find(|&j| lines[j].trim() == "}" && indent(lines[j]) == depth);
                i = close.expect("a test module closes") + 1;
            } else {
                outside += 1;
                i += 1;
            }
        }
    }
    (outside, to_first)
}

/// The size bounds: `dist/src` ≤ 5 200 non-test lines counted outside test
/// modules, and `core/src` ≤ 6 000 counted to each file's first
/// `#[cfg(test)]`. Both counts are printed, so a change reads its line
/// counts here (`-- --nocapture`).
#[test]
fn engine_crates_stay_inside_their_size_bounds() {
    let crates = workspace_root().join("crates");
    let (dist, dist_to_first) = non_test_lines(&crates.join("dist/src"));
    let (core_outside, core) = non_test_lines(&crates.join("core/src"));
    println!(
        "dist/src: {dist} non-test lines outside test modules, \
         {dist_to_first} to each file's first #[cfg(test)]"
    );
    println!(
        "core/src: {core} non-test lines to each file's first #[cfg(test)], \
         {core_outside} outside test modules"
    );
    assert!(dist <= 5_200, "dist/src: {dist} non-test lines outside test modules, bound 5 200");
    assert!(
        core <= 6_000,
        "core/src: {core} non-test lines to the first #[cfg(test)], bound 6 000"
    );
}
