//! Observing asks nothing of the allocator once a set has seen its
//! strata: no stratum stores a sample, so folding a batch into a set
//! that has already seen it requests 0 bytes. Exact counts, no timing.

use mbw_analysis::sweep::FigureSet;
use mbw_dataset::{DatasetConfig, Generator, Year};
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
fn observing_a_batch_a_set_has_already_seen_requests_no_bytes() {
    let batch = |year| {
        Generator::new(DatasetConfig {
            seed: 0xA110C,
            tests: 20_000,
            year,
            ..Default::default()
        })
        .generate()
    };
    let (y20, y21) = (batch(Year::Y2020), batch(Year::Y2021));
    let mut set = FigureSet::new();

    let before = REQUESTED.with(Cell::get);
    set.observe_baseline_records(&y20);
    set.observe_records(&y21);
    let first = REQUESTED.with(Cell::get) - before;
    // The first pass grows the id bitmaps and city tables to their id
    // ranges and nothing else: well under the 60 B a record that the
    // sample vectors held (2.4 MB for these 40 000).
    assert!(
        first < 3 << 20,
        "the first pass over 40 000 records requested {first} B"
    );

    let before = REQUESTED.with(Cell::get);
    set.observe_baseline_records(&y20);
    set.observe_records(&y21);
    let again = REQUESTED.with(Cell::get) - before;
    assert_eq!(again, 0, "a second pass over the same records allocated");
}
