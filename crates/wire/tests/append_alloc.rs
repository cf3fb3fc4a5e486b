//! A results-log append frames its record in a buffer the log owns:
//! a thousand appends must not ask the allocator for a thousand frames.
//! Exact counts, no timing.

use mbw_wire::resultslog::{sample_record, ResultsLog};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

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

#[test]
fn a_thousand_appends_allocate_next_to_nothing() {
    let path = std::env::temp_dir().join(format!("mbw-append-alloc-{}.reslog", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let (mut log, _) = ResultsLog::open(&path).unwrap();

    let before = REQUESTED.with(Cell::get);
    for i in 0..1_000 {
        log.append(&sample_record(i)).unwrap();
    }
    let requested = REQUESTED.with(Cell::get) - before;

    let replay = ResultsLog::read_all(&path).unwrap();
    std::fs::remove_file(&path).unwrap();
    assert!(replay.clean());
    assert_eq!(replay.records.len(), 1_000);
    assert!(
        requested < 4 * 1024,
        "1 000 appends requested {requested} B"
    );
}
