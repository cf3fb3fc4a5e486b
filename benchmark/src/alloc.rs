//! Counting global allocator.
//!
//! Forwards to the system allocator and, while switched on, counts what
//! the program asks for. The benchmark switches it on for exactly one
//! untimed pass per run ([`account`]), on one thread, so the three
//! numbers it reports are exact and repeat from run to run:
//!
//! - bytes requested (`alloc`, `alloc_zeroed`, and the new size of each
//!   `realloc`),
//! - number of requests,
//! - peak live bytes relative to the start of the accounting window
//!   (memory allocated before the window and freed inside it counts
//!   negative, so the peak is what the pass adds on top of its inputs).
//!
//! Switched off it costs one relaxed load per allocator call.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering::Relaxed};

/// The allocator installed by `main.rs`.
pub struct Counting;

static ON: AtomicBool = AtomicBool::new(false);
static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static CALLS: AtomicU64 = AtomicU64::new(0);

// The counters are statistics that publish no other data, and the
// accounting window runs on one thread: `Relaxed` is enough.
fn grew(bytes: usize) {
    BYTES.fetch_add(bytes as u64, Relaxed);
    CALLS.fetch_add(1, Relaxed);
    let live = LIVE.fetch_add(bytes as i64, Relaxed) + bytes as i64;
    PEAK.fetch_max(live, Relaxed);
}

fn shrank(bytes: usize) {
    LIVE.fetch_sub(bytes as i64, Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters never touch
// the returned memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` is passed through as is.
        let p = unsafe { System.alloc(layout) };
        if ON.load(Relaxed) && !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` is passed through as is.
        let p = unsafe { System.alloc_zeroed(layout) };
        if ON.load(Relaxed) && !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if ON.load(Relaxed) {
            shrank(layout.size());
        }
        // SAFETY: `ptr` and `layout` come from a matching `alloc` call
        // on this allocator, which forwarded to `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr`/`layout` come from this allocator (that is,
        // from `System`) and `new_size` is the caller's.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if ON.load(Relaxed) && !p.is_null() {
            shrank(layout.size());
            grew(new_size);
        }
        p
    }
}

/// What one accounting window saw.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeapCounts {
    /// Peak live bytes above the level at the start of the window.
    pub peak_bytes: u64,
    /// Bytes requested from the allocator.
    pub requested_bytes: u64,
    /// Allocator requests (`alloc`, `alloc_zeroed`, `realloc`).
    pub requests: u64,
}

/// Run `f` with counting on and return its result with the counts.
pub fn account<T>(f: impl FnOnce() -> T) -> (T, HeapCounts) {
    LIVE.store(0, Relaxed);
    PEAK.store(0, Relaxed);
    BYTES.store(0, Relaxed);
    CALLS.store(0, Relaxed);
    ON.store(true, Relaxed);
    let out = f();
    ON.store(false, Relaxed);
    let counts = HeapCounts {
        peak_bytes: PEAK.load(Relaxed).max(0) as u64,
        requested_bytes: BYTES.load(Relaxed),
        requests: CALLS.load(Relaxed),
    };
    (out, counts)
}
