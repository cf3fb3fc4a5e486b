//! Decoding a part asks the allocator for what the decoded set keeps,
//! and little more: every summary is merged into an empty set straight
//! from the bytes, so no row is allocated twice and no decoded copy of
//! a summary is built and dropped. Exact counts, no timing.

use mbw_analysis::summary::{Mean, Sample};
use mbw_analysis::sweep::FigureSet;
use mbw_dataset::{DatasetConfig, Generator, Year};
use mbw_frame::Codec;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    // Per thread, so the test harness's own threads do not count; const
    // initialised and without a destructor, so reading them never
    // allocates.
    static REQUESTED: Cell<u64> = const { Cell::new(0) };
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

struct Counting;

fn count(requested: usize, live: i64) {
    REQUESTED.with(|r| r.set(r.get() + requested as u64));
    LIVE.with(|l| l.set(l.get() + live));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter never touches
// the returned memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size(), layout.size() as i64);
        // SAFETY: the caller's `layout` is passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(0, -(layout.size() as i64));
        // SAFETY: `ptr` and `layout` come from a matching `alloc` call on
        // this allocator, which forwarded to `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size, new_size as i64 - layout.size() as i64);
        // SAFETY: `ptr`/`layout` come from this allocator (that is, from
        // `System`) and `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// The encoding of a part that observed 20 000 records of one year
/// (a baseline part feeds only the two year-over-year figures).
fn part_bytes(year: Year) -> Vec<u8> {
    let records = Generator::new(DatasetConfig {
        seed: 0xDEC0DE,
        tests: 20_000,
        year,
        ..Default::default()
    })
    .generate();
    let mut set = FigureSet::new();
    match year {
        Year::Y2020 => set.observe_baseline_records(&records),
        Year::Y2021 => set.observe_records(&records),
    }
    set.to_bytes()
}

/// Bytes `FigureSet::from_bytes` requests, and bytes its set keeps.
fn decode_counts(bytes: &[u8]) -> (u64, i64) {
    let (requested, live) = (REQUESTED.with(Cell::get), LIVE.with(Cell::get));
    let set = FigureSet::from_bytes(bytes).expect("a valid part decodes");
    let counts = (
        REQUESTED.with(Cell::get) - requested,
        LIVE.with(Cell::get) - live,
    );
    drop(set);
    counts
}

#[test]
fn decoding_a_part_requests_little_more_than_the_set_keeps() {
    for year in [Year::Y2020, Year::Y2021] {
        let bytes = part_bytes(year);
        let (requested, kept) = decode_counts(&bytes);
        assert!(kept > 0, "{year:?}: the decoded set keeps nothing");
        assert!(
            requested * 10 <= kept as u64 * 11,
            "{year:?}: decoding a {} B part requested {requested} B to keep {kept} B",
            bytes.len()
        );
    }
}

/// `SameGroupAcc`'s last row: a nested array of means. Decoding it asks
/// the allocator for nothing at any level.
#[test]
fn decoding_a_nested_array_requests_nothing() {
    let mut rows = [[[Mean::default(); 2]; 2]; 3];
    for (i, mean) in rows.iter_mut().flatten().flatten().enumerate() {
        for k in 0..=i {
            mean.push(Sample::new(k as f64 * 1.5));
        }
    }
    let bytes = rows.to_bytes();
    let (requested, live) = (REQUESTED.with(Cell::get), LIVE.with(Cell::get));
    let decoded = <[[[Mean; 2]; 2]; 3]>::from_bytes(&bytes);
    let counts = (
        REQUESTED.with(Cell::get) - requested,
        LIVE.with(Cell::get) - live,
    );
    assert_eq!(decoded, Ok(rows));
    assert_eq!(counts, (0, 0), "(bytes requested, bytes kept)");
}
