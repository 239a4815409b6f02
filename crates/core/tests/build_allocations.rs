//! What an import allocates: a build costs its columns and chunks, not its
//! rows.
//!
//! A counting global allocator (std only) counts the allocations made on
//! the thread that asks, so the test harness's other threads do not
//! disturb the count.

use pd_common::Value;
use pd_core::{BuildOptions, DataStore, PartitionSpec};
use pd_data::{generate_logs, LogsSpec};
use pd_encoding::TableDelta;
use pd_sql::parse_query;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    /// `Some(n)` while this thread counts: `n` allocations so far.
    static COUNT: Cell<Option<u64>> = const { Cell::new(None) };
}

fn tick() {
    // A thread being torn down has no counter left; it does not count.
    let _ = COUNT.try_with(|count| count.set(count.get().map(|n| n + 1)));
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

/// Run `f` and return what it returned with the allocations this thread
/// made meanwhile.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    COUNT.with(|count| count.set(Some(0)));
    let out = f();
    let n = COUNT.with(|count| count.replace(None)).expect("counting");
    (out, n)
}

#[test]
fn an_import_allocates_per_chunk_not_per_row() {
    let rows = 40_000;
    let table = generate_logs(&LogsSpec::scaled(rows));
    let columns: Vec<&[Value]> = (0..table.schema().len()).map(|i| table.column(i)).collect();
    let coded = TableDelta::from_columns(table.schema().clone(), &columns).unwrap();
    let mut options = BuildOptions::production(&["country", "table_name"]);
    options.partition = Some(PartitionSpec::new(&["country", "table_name"], 400));

    let (store, allocations) = counted(|| DataStore::from_coded(coded, &options).unwrap());
    assert_eq!(store.n_rows(), rows);
    assert_eq!(store.chunk_count(), 107);
    // Per chunk, each of the five columns makes a handful (chunk
    // dictionary, lookup map, element array); one allocation per row
    // anywhere would pass the bound by itself.
    assert!(
        allocations < rows as u64 / 5,
        "{allocations} allocations to import {rows} rows in {} chunks",
        store.chunk_count()
    );
}

#[test]
fn a_virtual_field_allocates_per_distinct_input_not_per_row() {
    let rows = 40_000;
    let table = generate_logs(&LogsSpec::scaled(rows));
    let columns: Vec<&[Value]> = (0..table.schema().len()).map(|i| table.column(i)).collect();
    let coded = TableDelta::from_columns(table.schema().clone(), &columns).unwrap();
    let mut options = BuildOptions::production(&["country", "table_name"]);
    options.partition = Some(PartitionSpec::new(&["country", "table_name"], 400));
    let store = DataStore::from_coded(coded, &options).unwrap();
    assert_eq!(store.chunk_count(), 107);

    let field = |expr: &str| {
        parse_query(&format!("SELECT COUNT(*) FROM t GROUP BY {expr}")).unwrap().group_by.remove(0)
    };
    let (lower, date) = (field("lower(country)"), field("date(timestamp)"));
    let (column, allocations) = counted(|| store.column_for_expr(&lower).unwrap());
    let (_, per_timestamp) = counted(|| store.column_for_expr(&date).unwrap());
    println!("lower(country): {allocations} allocations, date(timestamp): {per_timestamp}");
    // Every timestamp is distinct, so `date` runs once per row, and each
    // run makes its day's `String` and nothing else: 41 746 in all. A list
    // of arguments per call would add a row's worth.
    assert!(
        per_timestamp < rows as u64 * 5 / 4,
        "{per_timestamp} allocations to materialize date(timestamp) over {rows} rows"
    );
    assert_eq!(column.len(), rows);
    // Per chunk, an evaluation per country its rows hold and a handful of
    // arrays; one allocation per row anywhere would pass the bound by
    // itself.
    assert!(
        allocations < rows as u64 / 5,
        "{allocations} allocations to materialize lower(country) over {rows} rows in {} chunks",
        store.chunk_count()
    );
}
