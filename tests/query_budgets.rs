//! What a click the root remembers allocates: a chart the root's cache
//! holds costs a probe of the root's plans, a cache probe and the finalize
//! of the remembered table — no parse, no scan, no hop, no report per
//! shard —, and a text asked again while that table stands costs the rows
//! it returns alone: its groups are the ones its last hit kept. A text
//! asked for the first time costs its plan besides, and a chart brought
//! forward over an appended batch costs a scan of that batch besides.
//!
//! A counting global allocator (std only) counts the allocation calls on
//! the thread that asks, so the test harness's other threads do not
//! disturb the count; an in-process cluster with one scan thread per leaf
//! answers on that thread.

use pd_common::Result;
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
fn counted(cluster: &Cluster, sql: &str) -> (Result<QueryOutcome>, u64) {
    COUNT.with(|count| count.set(Some(0)));
    let outcome = cluster.query(sql);
    (outcome, COUNT.with(|count| count.replace(None)).expect("counting"))
}

/// A 4-shard in-process cluster over 40 000 log rows in the production
/// layout, each leaf scanning on the thread that asks; 80 more rows from
/// the same generator; and `NARROW` and `WIDE` asked once, so the root
/// remembers both, and both texts' plans.
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

/// A repeated text is a root hit that scans no row, plans nothing and
/// allocates a bounded handful: the narrow chart's 25 rows and the wide
/// chart's ~3 000 are what finalize makes of the remembered table. The
/// first hit ranks the table; asked again, the text ranks nothing and
/// allocates less.
#[test]
fn a_root_hit_allocates_its_probes_and_finalize_alone() {
    let (cluster, _) = remembering_cluster();
    for (sql, ranked, kept) in [(NARROW, NARROW_HIT, NARROW_REPEAT), (WIDE, WIDE_HIT, WIDE_REPEAT)]
    {
        let mut before = u64::MAX;
        for (ask, bound) in [("a root hit", ranked), ("its repeat", kept)] {
            let (hit, calls) = counted(&cluster, sql);
            let hit = hit.unwrap();
            assert_eq!((hit.worker_cache_hits(), hit.stats.rows_scanned), (1, 0), "{sql}");
            assert!(calls <= bound, "{sql}: {ask} made {calls} allocation calls (bound {bound})");
            assert!(calls < before, "{sql}: {ask} made {calls} allocation calls, not fewer");
            before = calls;
        }
    }
}

/// A text the root was never asked, whose keys and restriction it
/// remembers a table for, is planned — and then answered as a repeat is:
/// no row scanned. Asked again, it is a repeat.
#[test]
fn a_new_text_of_a_remembered_table_allocates_its_plan_besides() {
    let (cluster, _) = remembering_cluster();
    const COUNTS: &str = "SELECT country, COUNT(*) c FROM logs GROUP BY country";
    let (first, planned) = counted(&cluster, COUNTS);
    let first = first.unwrap();
    assert_eq!((first.worker_cache_hits(), first.stats.rows_scanned), (1, 0));
    assert!(planned <= NEW_TEXT, "a new text: {planned} allocation calls (bound {NEW_TEXT})");
    let (repeat, calls) = counted(&cluster, COUNTS);
    assert_eq!(repeat.unwrap().result, first.result);
    assert!(calls <= NARROW_HIT, "its repeat: {calls} allocation calls (bound {NARROW_HIT})");
}

/// A text asked again while the root holds the table its last hit read
/// ranks nothing: the repeat costs the probes and the k rows it returns —
/// the groups the first hit returned were kept for that table.
#[test]
fn a_repeated_text_allocates_its_probes_and_rows_alone() {
    let (cluster, _) = remembering_cluster();
    const TOP: &str = "SELECT country, COUNT(*) c, SUM(latency) s FROM logs GROUP BY country \
                       ORDER BY c DESC LIMIT 10";
    let (first, _) = counted(&cluster, TOP);
    let first = first.unwrap();
    assert_eq!((first.worker_cache_hits(), first.result.rows.len()), (1, 10));
    let (repeat, calls) = counted(&cluster, TOP);
    let repeat = repeat.unwrap();
    assert_eq!((repeat.worker_cache_hits(), repeat.stats.rows_scanned), (1, 0));
    assert_eq!(repeat.result, first.result);
    assert!(calls <= REPEAT, "a repeated text: {calls} allocation calls (bound {REPEAT})");
}

/// A text that fails to plan fails alike whenever it is asked, and the
/// root remembers nothing of it: the second ask plans it again, to the
/// allocation.
#[test]
fn an_unplannable_text_fails_alike_and_is_not_remembered() {
    let (cluster, _) = remembering_cluster();
    const UNGROUPED: &str = "SELECT country, latency FROM logs GROUP BY country";
    let (first, planned) = counted(&cluster, UNGROUPED);
    let (again, replanned) = counted(&cluster, UNGROUPED);
    let (first, again) = (first.unwrap_err(), again.unwrap_err());
    assert!(matches!(first, pd_common::Error::Schema(_)), "{first:?}");
    assert!(matches!(again, pd_common::Error::Schema(_)), "{again:?}");
    assert_eq!(first.to_string(), again.to_string());
    assert_eq!(planned, replanned, "planned both times");
}

/// A chart brought forward over an 80-row append scans those rows alone,
/// at the root, and merges them into the remembered table.
#[test]
fn a_chart_brought_forward_allocates_a_scan_of_the_batch() {
    let (mut cluster, batch) = remembering_cluster();
    cluster.append(&batch).unwrap();
    let (forward, calls) = counted(&cluster, NARROW);
    let forward = forward.unwrap();
    assert_eq!(forward.worker_cache_hits(), 1);
    assert!(forward.stats.rows_scanned <= 80, "{}", forward.stats.rows_scanned);
    assert!(calls <= FORWARD, "brought forward: {calls} allocation calls (bound {FORWARD})");
}

// The bounds: the counts this layout makes — 69 for the narrow hit, 5 893
// for the wide (about two per returned row of 2 937), 64 and 5 888 for
// their repeats, 34 for a repeated top 10, 85 for a new text's hit (its
// plan, 17 calls, and the plan remembered) and 147 brought forward — and a
// slack of a few percent for what a toolchain's collections may do
// differently.
const NARROW_HIT: u64 = 74;
const WIDE_HIT: u64 = 6_030;
const NARROW_REPEAT: u64 = 67;
const WIDE_REPEAT: u64 = 6_000;
const REPEAT: u64 = 36;
const NEW_TEXT: u64 = 91;
const FORWARD: u64 = 157;
