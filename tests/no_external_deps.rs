//! The zero-external-dependency invariant, enforced mechanically.
//!
//! The whole reproduction builds from the standard library alone (std-only
//! shims replace `parking_lot`/`rand`/`proptest`/`criterion`/`bytes`; the
//! compression codecs are written from scratch). Every workspace-internal
//! package appears in `Cargo.lock` *without* a `source` key; any package
//! pulled from a registry or git would carry one. CI runs the same check
//! as a dedicated `no-external-deps` guard step, so the invariant fails a
//! build instead of relying on review.

#[test]
fn cargo_lock_lists_only_workspace_packages() {
    let lock_path = concat!(env!("CARGO_MANIFEST_DIR"), "/Cargo.lock");
    let lock = std::fs::read_to_string(lock_path).expect("read Cargo.lock");
    let external: Vec<&str> =
        lock.lines().filter(|line| line.trim_start().starts_with("source = ")).collect();
    assert!(
        external.is_empty(),
        "Cargo.lock lists non-workspace packages (zero-dependency invariant):\n{}",
        external.join("\n")
    );
    // Sanity: the lock file actually lists the workspace members, so an
    // empty/renamed file cannot fake a pass.
    for package in ["pd-common", "pd-compress", "pd-dist", "powerdrill"] {
        assert!(
            lock.contains(&format!("name = \"{package}\"")),
            "Cargo.lock is missing workspace package {package}"
        );
    }
}

/// The engine's dependency graph holds what a query runs: `pd-core` no
/// longer measures with a codec, and no engine crate reaches into the
/// experiments (`pd-bench`) or the straw men and oracle (`pd-baselines`).
#[test]
fn engine_manifests_name_no_comparison_code() {
    let names_dep = |krate: &str, dep: &str| {
        let path = format!("{}/crates/{krate}/Cargo.toml", env!("CARGO_MANIFEST_DIR"));
        let manifest = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
        manifest.lines().any(|line| line.trim_start().starts_with(dep))
    };
    assert!(!names_dep("core", "pd-compress"), "pd-core depends on pd-compress again");
    for krate in ["common", "compress", "encoding", "sql", "core", "dist"] {
        for dep in ["pd-bench", "pd-baselines"] {
            assert!(!names_dep(krate, dep), "engine crate pd-{krate} depends on {dep}");
        }
    }
}

/// `pd-dist` holds what a cluster runs: the drill-down click generator and
/// its replay live with the experiments that drive them (`pd-bench`).
#[test]
fn pd_dist_holds_no_workload() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/crates/dist/src/lib.rs");
    let lib = std::fs::read_to_string(path).expect("read pd-dist's lib.rs");
    let code: Vec<&str> = lib.lines().filter(|line| !line.trim_start().starts_with("//")).collect();
    assert!(!code.iter().any(|line| line.contains("mod workload")), "pd-dist declares `workload`");
    for name in ["DrillDownWorkload", "run_production"] {
        assert!(!code.iter().any(|line| line.contains(name)), "pd-dist re-exports {name}");
    }
}

/// `pd-core` groups by order: a chunk's groups are its key tuples in
/// ascending order, and tables merge as sorted runs, so no map is keyed on
/// a tuple of key codes.
#[test]
fn pd_core_groups_by_order_not_by_hash() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/crates/core/src");
    let mut sources = 0;
    for entry in std::fs::read_dir(dir).expect("list pd-core's sources") {
        let path = entry.expect("read a directory entry").path();
        if path.extension().is_none_or(|ext| ext != "rs") {
            continue;
        }
        sources += 1;
        let source = std::fs::read_to_string(&path).expect("read a pd-core source");
        let mut code = source.lines().filter(|line| !line.trim_start().starts_with("//"));
        let keyed = code.find(|line| line.contains("FxHashMap<Box<[u32]>"));
        assert_eq!(keyed, None, "{} keys a map on code tuples", path.display());
    }
    assert!(sources > 10, "pd-core's sources were found");
}

/// The row oracle (`pd_baselines::scan`, and the baselines around it) is
/// blind to the engine it checks: outside comments, no baseline source
/// names the engine's analysis, aggregation states or finalization, and
/// pd-core exports no row-wise state type for it to fill.
#[test]
fn the_row_oracle_names_no_engine_aggregation() {
    let forbidden = [
        "finalize",
        "AggState",
        "from_states",
        "analyze",
        "AnalyzedQuery",
        "Slot",
        "SlotClass",
        "OutputCol",
    ];
    let words = |line: &str| -> Vec<String> {
        let code = line.split("//").next().unwrap_or_default();
        code.split(|c: char| !(c.is_alphanumeric() || c == '_')).map(str::to_owned).collect()
    };
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/crates/baselines/src");
    let mut sources = 0;
    for entry in std::fs::read_dir(dir).expect("list pd-baselines' sources") {
        let path = entry.expect("read a directory entry").path();
        if path.extension().is_none_or(|ext| ext != "rs") {
            continue;
        }
        sources += 1;
        let source = std::fs::read_to_string(&path).expect("read a pd-baselines source");
        for (n, line) in source.lines().enumerate() {
            let named = words(line).into_iter().find(|word| forbidden.contains(&word.as_str()));
            assert_eq!(named, None, "{}:{} names the engine: {line}", path.display(), n + 1);
        }
    }
    assert!(sources >= 6, "pd-baselines' sources were found");

    let lib = concat!(env!("CARGO_MANIFEST_DIR"), "/crates/core/src/lib.rs");
    let lib = std::fs::read_to_string(lib).expect("read pd-core's lib.rs");
    assert!(lib.contains("pub use groups::PartialResult"), "pd-core's exports were found");
    assert!(!lib.lines().any(|line| words(line).contains(&"AggState".to_owned())), "AggState");
}
