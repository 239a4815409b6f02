//! What a click the root answers allocates does not grow with the store:
//! a root hit, its repeat, a repeated top 10 and a chart brought forward
//! over an 80-row append make the same allocation calls, of the same
//! bytes, over 40 000 rows as over 400 000. Each path costs its probes,
//! its plan's memory and the rows it returns (and, brought forward, a scan
//! of the appended batch), never a pass over the shards' chunks or rows.
//! The charts are by `country`, whose 25 groups do not grow with rows.
//!
//! An 80-row append does not hold to that yet, and one test records by how
//! much: at 400 000 rows it allocates 7.1 times its bytes at 40 000 (3.07
//! MB against 431 KB). That ratio is a known defect, not a goal. A merge
//! into a column's global dictionary that moves an old id renumbers every
//! chunk dictionary of the column and rewrites the dictionary, so an
//! append costs its store, not its rows; the bound of 8 (the measured 7.12
//! rounded up) only keeps it from growing further.
//!
//! A counting global allocator (std only), as `query_budgets` has, counts
//! the calls and the bytes asked for on the thread that asks; an
//! in-process cluster with one scan thread per leaf answers on that
//! thread, and applies an append there too, at the leaves and at the
//! root's tail alike.

use pd_core::BuildOptions;
use pd_data::{generate_logs, LogsSpec, Table};
use pd_dist::{Cluster, ClusterConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    /// `Some((calls, bytes))` while this thread counts.
    static COUNT: Cell<Option<(u64, u64)>> = const { Cell::new(None) };
}

fn tick(bytes: usize) {
    // A thread being torn down has no counter left; it does not count.
    let _ = COUNT.try_with(|count| {
        count.set(count.get().map(|(calls, total)| (calls + 1, total + bytes as u64)));
    });
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counter is a const-initialized thread-local `Cell`, which never
// allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tick(layout.size());
        // SAFETY: the caller's contract for `alloc` is passed on as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        tick(layout.size());
        // SAFETY: the caller's contract for `alloc_zeroed` is passed on.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        tick(new_size);
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
const TOP: &str = "SELECT country, COUNT(*) c, SUM(latency) s FROM logs GROUP BY country \
                   ORDER BY c DESC LIMIT 10";

/// What `work` returns, and the allocation calls and bytes this thread made
/// for it.
fn counted<T>(work: impl FnOnce() -> T) -> (T, (u64, u64)) {
    COUNT.with(|count| count.set(Some((0, 0))));
    let outcome = work();
    (outcome, COUNT.with(|count| count.replace(None)).expect("counting"))
}

/// A 4-shard in-process cluster over `table` in the production layout
/// (2 000-row chunks), each leaf scanning on the thread that asks.
fn cluster(table: &Table) -> Cluster {
    let mut build = BuildOptions::production(&["country", "table_name"]);
    build.partition.as_mut().expect("production partitions").max_chunk_rows = 2_000;
    let config =
        ClusterConfig { shards: 4, replication: false, build, threads: 1, ..Default::default() };
    Cluster::build(table, &config).unwrap()
}

/// `(calls, bytes)` of the four root paths on [`cluster`] over `rows` log
/// rows: a root hit of `NARROW`, its repeat, a repeat of `TOP`, and
/// `NARROW` brought forward over 80 appended rows.
fn root_paths(rows: usize) -> [(u64, u64); 4] {
    let mut cluster = cluster(&generate_logs(&LogsSpec::scaled(rows)));
    let miss = cluster.query(NARROW).unwrap();
    assert_eq!(miss.worker_cache_hits(), 0, "{rows} rows: a miss first");
    let hit = |sql: &str| {
        let (outcome, counts) = counted(|| cluster.query(sql));
        let outcome = outcome.unwrap();
        assert_eq!((outcome.worker_cache_hits(), outcome.stats.rows_scanned), (1, 0), "{sql}");
        counts
    };
    let narrow = hit(NARROW);
    let repeat = hit(NARROW);
    hit(TOP);
    let top = hit(TOP);
    let batch = generate_logs(&LogsSpec { seed: 7, ..LogsSpec::scaled(80) });
    cluster.append(&batch).unwrap();
    let (forward, brought) = counted(|| cluster.query(NARROW));
    let forward = forward.unwrap();
    assert_eq!(forward.worker_cache_hits(), 1, "{rows} rows: brought forward at the root");
    assert!(forward.stats.rows_scanned <= 80, "{}", forward.stats.rows_scanned);
    [narrow, repeat, top, brought]
}

#[test]
fn root_paths_allocate_alike_at_ten_times_the_rows() {
    let small = root_paths(40_000);
    let large = root_paths(400_000);
    let paths = ["a root hit", "its repeat", "a repeated top 10", "brought forward"];
    for ((path, small), large) in paths.iter().zip(small).zip(large) {
        println!(
            "{path}: {} calls, {} B at 40 000 rows; {} calls, {} B at 400 000",
            small.0, small.1, large.0, large.1
        );
        assert_eq!(small, large, "{path}: (calls, bytes) at 40 000 rows vs 400 000");
    }
}

/// `(calls, bytes)` of one 80-row `Cluster::append` on [`cluster`] over
/// `rows` log rows, after a miss that leaves the root an entry to bring
/// forward. The batch is the next 80 rows of the same generator, so its
/// timestamps follow the store's, as logs arrive.
fn append_cost(rows: usize) -> (u64, u64) {
    let all = generate_logs(&LogsSpec { rows: rows + 80, ..LogsSpec::scaled(rows) });
    let (built, batch): (Vec<usize>, Vec<usize>) = (0..all.len()).partition(|&r| r < rows);
    let batch = all.select_rows(&batch);
    let mut cluster = cluster(&all.select_rows(&built));
    drop(all);
    assert_eq!(cluster.query(NARROW).unwrap().worker_cache_hits(), 0, "{rows} rows: a miss");
    let (outcome, counts) = counted(|| cluster.append(&batch));
    assert_eq!(outcome.unwrap().rows, 80);
    counts
}

#[test]
fn an_append_allocates_at_most_a_bounded_factor_more_at_ten_times_the_rows() {
    let small = append_cost(40_000);
    let large = append_cost(400_000);
    println!(
        "an 80-row append: {} calls, {} B at 40 000 rows; {} calls, {} B at 400 000 ({:.2}x bytes)",
        small.0,
        small.1,
        large.0,
        large.1,
        large.1 as f64 / small.1 as f64
    );
    assert!(large.1 <= 8 * small.1, "{large:?} at 400 000 rows vs {small:?} at 40 000");
}
