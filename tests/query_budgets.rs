//! What a click the root remembers allocates: a chart the root's cache
//! holds costs its parse, a cache probe and the finalize of the remembered
//! table — no scan, no hop, no report per shard — and a chart brought
//! forward over an appended batch costs a scan of that batch besides.
//!
//! A counting global allocator (std only) counts the allocation calls on
//! the thread that asks, so the test harness's other threads do not
//! disturb the count; an in-process cluster with one scan thread per leaf
//! answers on that thread.

use pd_core::BuildOptions;
use pd_data::{generate_logs, LogsSpec};
use pd_dist::{Cluster, ClusterConfig, QueryOutcome};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    /// `Some(calls)` while this thread counts.
    static COUNT: Cell<Option<u64>> = const { Cell::new(None) };
}

fn tick() {
    // A thread being torn down has no counter left; it does not count.
    let _ = COUNT.try_with(|count| count.set(count.get().map(|calls| calls + 1)));
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counter is a const-initialized thread-local `Cell`, which never
// allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tick();
        // SAFETY: the caller's contract for `alloc` is passed on as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        tick();
        // SAFETY: the caller's contract for `alloc_zeroed` is passed on.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        tick();
        // SAFETY: `ptr` and `layout` come from this allocator, which is
        // the system allocator's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` and `layout` come from this allocator, which is
        // the system allocator's.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const NARROW: &str = "SELECT country, COUNT(*) c, SUM(latency) s FROM logs GROUP BY country";
const WIDE: &str = "SELECT table_name, COUNT(*) c, SUM(latency) s FROM logs GROUP BY table_name";

/// One `Cluster::query` of `sql` and the allocation calls this thread made
/// for it.
fn counted(cluster: &Cluster, sql: &str) -> (QueryOutcome, u64) {
    COUNT.with(|count| count.set(Some(0)));
    let outcome = cluster.query(sql).unwrap();
    (outcome, COUNT.with(|count| count.replace(None)).expect("counting"))
}

/// A 4-shard in-process cluster over 40 000 log rows in the production
/// layout, each leaf scanning on the thread that asks; 80 more rows from
/// the same generator; and `NARROW` and `WIDE` asked once, so the root
/// remembers both.
fn remembering_cluster() -> (Cluster, pd_data::Table) {
    let table = generate_logs(&LogsSpec::scaled(40_000));
    let config = ClusterConfig {
        shards: 4,
        build: BuildOptions::production(&["country", "table_name"]),
        threads: 1,
        ..Default::default()
    };
    let cluster = Cluster::build(&table, &config).unwrap();
    for sql in [NARROW, WIDE] {
        assert_eq!(cluster.query(sql).unwrap().worker_cache_hits(), 0, "{sql}: a miss first");
    }
    let batch = generate_logs(&LogsSpec { seed: 7, ..LogsSpec::scaled(80) });
    (cluster, batch)
}

/// A root hit scans no row and allocates a bounded handful: the narrow
/// chart's 25 rows and the wide chart's ~3 000 are what finalize makes of
/// the remembered table.
#[test]
fn a_root_hit_allocates_its_parse_probe_and_finalize_alone() {
    let (cluster, _) = remembering_cluster();
    for (sql, bound) in [(NARROW, NARROW_HIT), (WIDE, WIDE_HIT)] {
        let (hit, calls) = counted(&cluster, sql);
        assert_eq!((hit.worker_cache_hits(), hit.stats.rows_scanned), (1, 0), "{sql}");
        assert!(calls <= bound, "{sql}: a root hit made {calls} allocation calls (bound {bound})");
    }
}

/// A chart brought forward over an 80-row append scans those rows alone,
/// at the root, and merges them into the remembered table.
#[test]
fn a_chart_brought_forward_allocates_a_scan_of_the_batch() {
    let (mut cluster, batch) = remembering_cluster();
    cluster.append(&batch).unwrap();
    let (forward, calls) = counted(&cluster, NARROW);
    assert_eq!(forward.worker_cache_hits(), 1);
    assert!(forward.stats.rows_scanned <= 80, "{}", forward.stats.rows_scanned);
    assert!(calls <= FORWARD, "brought forward: {calls} allocation calls (bound {FORWARD})");
}

// The bounds: the counts this layout makes — 89, 5 913 (about two per
// returned row of 2 937) and 168 — and a slack of a few percent for what a
// toolchain's collections may do differently.
const NARROW_HIT: u64 = 95;
const WIDE_HIT: u64 = 6_050;
const FORWARD: u64 = 180;
