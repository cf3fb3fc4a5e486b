//! What a flooding test asks of the allocator is set by the samples it
//! reports, not by the rounds it simulates: four times the rounds for
//! the same 200 samples must not show in the bytes requested. Exact
//! counts, no timing.

use mbw_core::estimator::GroupedTrimmedMean;
use mbw_core::probe::{run_flooding, FloodingConfig};
use mbw_netsim::{PathConfig, PathModel};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::time::Duration;

thread_local! {
    // Per thread, so the test harness's own threads do not count; const
    // initialised and without a destructor, so reading it never allocates.
    static REQUESTED: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

fn count(bytes: usize) {
    REQUESTED.with(|r| r.set(r.get() + bytes as u64));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter never touches
// the returned memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's `layout` is passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` and `layout` come from a matching `alloc` call on
        // this allocator, which forwarded to `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr`/`layout` come from this allocator (that is, from
        // `System`) and `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Bytes one BTS-APP test requests on a constant 100 Mbps path.
fn bts_app_bytes(base_rtt_ms: u64) -> u64 {
    let path = PathModel::new(PathConfig::constant(
        100e6,
        Duration::from_millis(base_rtt_ms),
    ));
    let mut est = GroupedTrimmedMean::bts_app();
    let config = FloodingConfig::bts_app();
    let before = REQUESTED.with(Cell::get);
    let result = run_flooding(path, &mut est, &config, 7);
    let after = REQUESTED.with(Cell::get);
    assert_eq!(result.samples.len(), 200);
    after - before
}

#[test]
fn flooding_allocations_follow_samples_not_rounds() {
    let slow_rounds = bts_app_bytes(40);
    let fast_rounds = bts_app_bytes(10);
    assert!(
        slow_rounds < 64 * 1024 && fast_rounds < 64 * 1024,
        "a whole test requested {slow_rounds} B at 40 ms and {fast_rounds} B at 10 ms"
    );
    let (lo, hi) = (
        slow_rounds.min(fast_rounds) as f64,
        slow_rounds.max(fast_rounds) as f64,
    );
    assert!(
        hi <= lo * 1.10,
        "4x the rounds moved the request from {slow_rounds} B to {fast_rounds} B"
    );
}
