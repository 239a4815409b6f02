//! What a filtered scan allocates: a masked one-key chart costs its chunks
//! and their dictionaries, not the rows its mask passes.
//!
//! A counting global allocator (std only) counts the allocation calls and
//! the bytes asked for on the thread that asks, so the test harness's other
//! threads do not disturb the count; the scan runs on that thread
//! (`threads: 1`, no result cache).

use pd_core::{execute, BuildOptions, DataStore, ExecContext, ScanStats};
use pd_data::{generate_logs, LogsSpec};
use pd_sql::{analyze, parse_query, Expr, SlotClass};
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
        count.set(count.get().map(|(calls, held)| (calls + 1, held + bytes as u64)))
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

/// Run `f` and return what it returned with the allocation calls and bytes
/// this thread made meanwhile.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    COUNT.with(|count| count.set(Some((0, 0))));
    let out = f();
    let (calls, bytes) = COUNT.with(|count| count.replace(None)).expect("counting");
    (out, calls, bytes)
}

/// How many entries the chunk dictionaries of `columns` have in all.
fn entries<'a>(store: &DataStore, columns: impl Iterator<Item = &'a Expr>) -> u64 {
    let column = |expr| store.column_for_expr(expr).unwrap();
    let sizes = |expr| column(expr).chunks.iter().map(|ch| u64::from(ch.dict.len())).sum::<u64>();
    columns.map(sizes).sum()
}

/// The four masked one-key charts: a `timestamp` window that passes three
/// quarters of the rows, and `latency >= 50`, over keys of ~180, 10 and 25
/// values. Each is warmed once (a virtual field is materialized by its
/// first use), then counted.
#[test]
fn a_masked_one_key_chart_allocates_per_chunk_not_per_passing_row() {
    let rows = 40_000;
    let table = generate_logs(&LogsSpec::scaled(rows));
    let mut options = BuildOptions::production(&["country", "table_name"]);
    if let Some(spec) = &mut options.partition {
        spec.max_chunk_rows = 2_000;
    }
    let store = DataStore::build(&table, &options).unwrap();
    assert_eq!(store.chunk_count(), 30);

    let ts = table.schema().index_of("timestamp").expect("a timestamp column");
    let stamps = table.column(ts).iter().map(|v| v.as_int().expect("an integer timestamp"));
    let (lo, hi) = stamps.fold((i64::MAX, i64::MIN), |(lo, hi), t| (lo.min(t), hi.max(t)));
    let from = lo + (hi - lo) / 8;
    let window = format!("timestamp >= {from} AND timestamp < {}", from + (hi - lo) / 4 * 3);
    let charts = [
        format!("SELECT date(timestamp) AS k, MIN(latency) AS mn FROM logs WHERE {window} GROUP BY date(timestamp) ORDER BY mn ASC LIMIT 10"),
        format!("SELECT user AS k, SUM(latency) AS s FROM logs WHERE {window} GROUP BY user ORDER BY s DESC LIMIT 10"),
        "SELECT country AS k, COUNT(*) AS c, AVG(latency) AS a FROM logs WHERE latency >= 50 GROUP BY country ORDER BY a DESC LIMIT 10".to_owned(),
        "SELECT country AS k, COUNT(DISTINCT user) AS u FROM logs WHERE latency >= 50 GROUP BY country ORDER BY u DESC LIMIT 10".to_owned(),
    ];

    let ctx = ExecContext { threads: 1, ..Default::default() };
    for sql in &charts {
        let analyzed = analyze(&parse_query(sql).unwrap()).unwrap();
        execute(&store, &analyzed, &ctx).unwrap();
        let ((result, stats), calls, bytes) = counted(|| execute(&store, &analyzed, &ctx).unwrap());
        assert!(!result.rows.is_empty(), "{sql}");
        let ScanStats { chunks_scanned, .. } = stats;
        assert_eq!(chunks_scanned, 30, "{sql}: every chunk is scanned");
        // What a scanned chunk may cost besides a fixed price: per entry
        // of the key's chunk dictionary a few cells (a group's key, its
        // state, a code's presence); per entry of a summed column's chunk
        // dictionary its value; per COUNT DISTINCT a few arrays more (the
        // pairs, the codes held, their hashes, a sketch per group).
        let keys = entries(&store, analyzed.keys.iter());
        let slots = |class| analyzed.slots.iter().filter(move |slot| slot.class == class);
        let summed = entries(&store, slots(SlotClass::Sum).filter_map(|slot| slot.arg.as_ref()));
        let distinct = slots(SlotClass::Distinct).count() as u64;
        let chunks = chunks_scanned as u64;
        let most_calls = 100 + (16 + 10 * distinct) * chunks;
        let most_bytes = 16 * 1024 + 1024 * chunks + 40 * keys + 8 * summed;
        println!(
            "{sql}\n  {calls} allocations (at most {most_calls}), {bytes} bytes (at most \
             {most_bytes}); {chunks} chunks, {keys} key and {summed} summed dictionary entries"
        );
        assert!(calls <= most_calls, "{calls} allocations, at most {most_calls}: {sql}");
        assert!(bytes <= most_bytes, "{bytes} bytes, at most {most_bytes}: {sql}");
    }
}
