//! What SQL text costs to become a plan: parse + analyze allocate for what
//! the plan keeps (its names, literals, expression nodes and lists), not
//! per token.
//!
//! A counting global allocator (std only) counts the allocations made on
//! the thread that asks, so the test harness's other threads do not
//! disturb the count.

use pd_sql::{plan, AnalyzedQuery};
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

/// Parse and analyze `sql`, and count the allocations this thread made
/// meanwhile.
fn planned(sql: &str) -> (AnalyzedQuery, u64) {
    COUNT.with(|count| count.set(Some(0)));
    let analyzed = plan(sql).unwrap();
    let n = COUNT.with(|count| count.replace(None)).expect("counting");
    (analyzed, n)
}

#[test]
fn a_drill_chart_allocates_for_its_plan_not_its_tokens() {
    // 112 bytes, 26 tokens: a chart of the drill-down session.
    let sql = "SELECT table_name as k, COUNT(*) as c FROM logs WHERE country = 'US' \
               GROUP BY table_name ORDER BY c ASC LIMIT 10";
    let (analyzed, allocations) = planned(sql);
    assert_eq!(analyzed.keys.len(), 1);
    // One token list, then what the plan keeps: its names and literal, the
    // filter's nodes, its lists, the restriction and the slots. A `String`
    // per word lexed would add nineteen.
    assert!(allocations <= 24, "{allocations} allocations to plan {sql}");
}

#[test]
fn paper_query_1_allocates_for_its_plan_not_its_tokens() {
    let sql = "SELECT country, COUNT(*) as c FROM data GROUP BY country ORDER BY c DESC LIMIT 10;";
    let (analyzed, allocations) = planned(sql);
    assert_eq!(analyzed.order_by, [(1, true)]);
    // A `String` per word lexed would add fifteen.
    assert!(allocations <= 17, "{allocations} allocations to plan {sql}");
}
