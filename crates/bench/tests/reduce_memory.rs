//! The reducer merges each part into its running sets as the part's
//! body streams through one fixed window (`mbw_frame::WINDOW`, 64 KiB),
//! so at its peak it holds those sets and that window — never a part's
//! body, never a decoded copy of a part — its memory grows neither with
//! the shard count nor with the size of a part, and the order the parts
//! come in does not reach the output. Exact heap counts, no timing.
//!
//! The two older bounds here (a peak within one decoded part across 2
//! and 8 parts; sets plus the largest part's bytes) still hold and are
//! kept; the window bound below is the tighter one. The benchmark's
//! traced `shard_reduce` pass composes the reduce from public calls and
//! still reads each part whole (`read_snapshot`, then decode), so its
//! `frame.snapshot.read` span does not show this saving; the gated
//! `peak_heap_mb` and `alloc_mb_per_pass` of its untraced passes, which
//! call `reduce_parts`, do.

use mbw_analysis::sweep::{FigureSet, SWEEP_IDS};
use mbw_bench::distributed::{
    collect_parts, reduce_parts, run_shard_file, write_plans, DistConfig, DistError, ShardJob,
    ShardPart, COST_SEED,
};
use mbw_bench::eval_sweep::{EvalFigureSet, EVAL_SWEEP_IDS};
use mbw_core::EvalCounts;
use mbw_dataset::{EcosystemProfile, PartitionError, DEFAULT_SHARD_SIZE};
use mbw_frame::{read_snapshot, Codec, Dec, WINDOW};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::PathBuf;

thread_local! {
    // Per thread, so the test harness's own threads do not count; const
    // initialised and without a destructor, so reading them never
    // allocates.
    static LIVE: Cell<i64> = const { Cell::new(0) };
    static PEAK: Cell<i64> = const { Cell::new(0) };
    static WINDOW_SIZED: Cell<u64> = const { Cell::new(0) };
}

/// Count a request of `size` bytes if it is the size of one window.
fn request(size: usize) {
    if size == WINDOW {
        WINDOW_SIZED.with(|n| n.set(n.get() + 1));
    }
}

/// Move this thread's live byte count by `delta` and raise its peak.
fn live(delta: i64) {
    let now = LIVE.with(|l| {
        l.set(l.get() + delta);
        l.get()
    });
    PEAK.with(|p| p.set(p.get().max(now)));
}

/// `f`'s result, the bytes it held live at its peak and the bytes its
/// result still holds, both above what was live when it began.
fn measured<T>(f: impl FnOnce() -> T) -> (T, i64, i64) {
    let before = LIVE.with(Cell::get);
    PEAK.with(|p| p.set(before));
    let out = f();
    let peak = PEAK.with(Cell::get) - before;
    (out, peak, LIVE.with(Cell::get) - before)
}

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter never touches
// the returned memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        request(layout.size());
        live(layout.size() as i64);
        // SAFETY: the caller's `layout` is passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        live(-(layout.size() as i64));
        // SAFETY: `ptr` and `layout` come from a matching `alloc` call on
        // this allocator, which forwarded to `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        request(new_size);
        live(new_size as i64 - layout.size() as i64);
        // SAFETY: `ptr`/`layout` come from this allocator (that is, from
        // `System`) and `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

fn config(records: usize, shards: u32) -> DistConfig {
    DistConfig {
        profile: EcosystemProfile::paper_china(),
        records,
        counts: EvalCounts::uniform(2),
        shards,
    }
}

/// Plan and run every shard of a `shards`-way split; the part files in
/// shard order.
fn parts(tag: &str, shards: u32) -> Vec<PathBuf> {
    parts_of(tag, 2_000, shards)
}

/// [`parts`] of a run of `records` records a year.
fn parts_of(tag: &str, records: usize, shards: u32) -> Vec<PathBuf> {
    let dir = std::env::temp_dir().join(format!("mbw-reduce-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    for plan in write_plans(&config(records, shards), &dir.join("plans")).unwrap() {
        run_shard_file(&plan, &dir.join("parts"), 1).unwrap();
    }
    collect_parts(&dir.join("parts")).unwrap()
}

/// Records a year that make eight streaming units over the two years,
/// so each part of an 8-way split carries one.
const EIGHT_UNITS: usize = 4 * DEFAULT_SHARD_SIZE;

/// [`parts_of`] a run of [`EIGHT_UNITS`] records a year, checked to give
/// every part measurement units: an 8-part reduce of parts that carry
/// no measurement state would measure fewer parts than it names.
fn full_parts(tag: &str, shards: u32) -> Vec<PathBuf> {
    let parts = parts_of(tag, EIGHT_UNITS, shards);
    for part in &parts {
        let (_, body) = read_snapshot(part).unwrap();
        let job = ShardJob::decode(&mut Dec::new(&body)).unwrap();
        assert!(
            job.measure.len > 0,
            "{} carries no measurement units",
            part.display()
        );
    }
    parts
}

fn remove(parts: &[PathBuf]) {
    if let Some(dir) = parts[0].parent().and_then(|p| p.parent()) {
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// Every figure the reduction renders, in id order.
fn text(parts: &[PathBuf]) -> String {
    let reduced = reduce_parts(parts, 1).unwrap();
    let mut text = String::new();
    for id in SWEEP_IDS {
        text.push_str(&reduced.figures.render(id).unwrap());
    }
    for id in EVAL_SWEEP_IDS {
        text.push_str(&format!("{:?}", reduced.eval.render(id)));
    }
    text
}

/// However many parts there are, the reducer holds one part's bytes at
/// a time: a reducer that read or decoded every part before merging
/// would peak higher with every part added.
#[test]
fn eight_parts_reduce_in_the_memory_of_two() {
    let (two, eight) = (full_parts("two", 2), full_parts("eight", 8));
    let (_, body) = read_snapshot(&two[0]).unwrap();
    let (part, _, one_part) = measured(|| ShardPart::from_bytes(&body).unwrap());
    drop((part, body));

    let (reduced, peak_two, _) = measured(|| reduce_parts(&two, 1).unwrap());
    drop(reduced);
    let (reduced, peak_eight, _) = measured(|| reduce_parts(&eight, 1).unwrap());
    drop(reduced);
    remove(&two);
    remove(&eight);
    assert!(
        (peak_eight - peak_two).abs() < one_part,
        "an 8-part reduce peaked at {peak_eight} B and a 2-part one at {peak_two} B: \
         more apart than one decoded part ({one_part} B)"
    );
}

/// At its peak a 4-part reduce holds the sets the parts reduce to, the
/// largest part's bytes and at most 64 KB besides: no decoded copy of a
/// part is alive beside them (with one, this run peaks 0.42 MB higher).
#[test]
fn a_reduce_holds_its_sets_and_one_part_of_bytes_at_its_peak() {
    let parts = parts("four", 4);
    let bodies: Vec<Vec<u8>> = parts.iter().map(|p| read_snapshot(p).unwrap().1).collect();
    let largest = parts
        .iter()
        .map(|p| std::fs::metadata(p).unwrap().len() as i64)
        .max()
        .unwrap();
    let (sets, _, decoded) = measured(|| {
        let mut sets = (FigureSet::new(), EvalFigureSet::new(COST_SEED));
        for body in &bodies {
            let part = ShardPart::from_bytes(body).unwrap();
            sets.0.merge(part.figures);
            sets.1.merge(part.eval);
        }
        sets
    });
    drop((sets, bodies));

    let (reduced, peak, _) = measured(|| reduce_parts(&parts, 1).unwrap());
    drop(reduced);
    remove(&parts);
    assert!(
        peak <= decoded + largest + (64 << 10),
        "a 4-part reduce peaked at {peak} B: more than its decoded sets ({decoded} B), \
         the largest part ({largest} B) and 64 KB"
    );
}

/// The sets `parts` reduce to, merged from decoded parts, and the bytes
/// they hold.
fn decoded_sets(parts: &[PathBuf]) -> i64 {
    let bodies: Vec<Vec<u8>> = parts.iter().map(|p| read_snapshot(p).unwrap().1).collect();
    let (sets, _, decoded) = measured(|| {
        let mut sets = (FigureSet::new(), EvalFigureSet::new(COST_SEED));
        for body in &bodies {
            let part = ShardPart::from_bytes(body).unwrap();
            sets.0.merge(part.figures);
            sets.1.merge(part.eval);
        }
        sets
    });
    drop((sets, bodies));
    decoded
}

/// The bytes a reduce of `parts` holds at its peak.
fn reduce_peak(parts: &[PathBuf]) -> i64 {
    let (reduced, peak, _) = measured(|| reduce_parts(parts, 1).unwrap());
    drop(reduced);
    peak
}

/// What a reduce may hold at its peak besides its sets and one window:
/// the header of the part being read, its provenance and the rows of the
/// partition checks (956 B measured).
const SLACK: i64 = 4 << 10;

/// At its peak a 4-part reduce holds the sets the parts reduce to, one
/// window of the part being read and [`SLACK`] besides: no part's body
/// is held, however large (holding the largest one, as a reducer that
/// reads each part whole does, this run peaks 1.0 MB higher).
#[test]
fn a_reduce_holds_its_sets_and_one_window_at_its_peak() {
    let parts = parts("window", 4);
    let decoded = decoded_sets(&parts);
    let peak = reduce_peak(&parts);
    remove(&parts);
    assert!(
        peak <= decoded + WINDOW as i64 + SLACK,
        "a 4-part reduce peaked at {peak} B: more than its decoded sets ({decoded} B), \
         one window ({WINDOW} B) and {SLACK} B"
    );
}

/// Ten times the records make parts of about the same size and sets of
/// about the same size, and the reducer reads either through one
/// window: the two reduces peak within a window of each other.
#[test]
fn ten_times_the_records_reduce_within_a_window() {
    let (small, big) = (parts_of("small", 2_000, 4), parts_of("big", 20_000, 4));
    let (peak_small, peak_big) = (reduce_peak(&small), reduce_peak(&big));
    remove(&small);
    remove(&big);
    assert!(
        (peak_big - peak_small).abs() < WINDOW as i64,
        "4-part reduces of 2 000 and 20 000 records peaked at {peak_small} B and \
         {peak_big} B: more than one window ({WINDOW} B) apart"
    );
}

/// The reducer lends one window to every part it reads, so an 8-part
/// reduce allocates one window, however many of its parts fill one: a
/// fresh window per part is one request of [`WINDOW`] bytes for each
/// part whose body fills it (a part with a smaller body asks for the
/// body's size). Requests of a window or more would also count the
/// per-city table of the same-group figure, which grows past 64 KiB as
/// the first part is merged.
#[test]
fn eight_parts_reduce_through_one_window_request() {
    let parts = full_parts("lent", 8);
    let filling = parts
        .iter()
        .filter(|p| read_snapshot(p).unwrap().1.len() >= WINDOW)
        .count();
    assert!(
        filling >= 2,
        "{filling} parts fill a window: nothing to share"
    );
    let before = WINDOW_SIZED.with(Cell::get);
    let reduced = reduce_parts(&parts, 1).unwrap();
    let requests = WINDOW_SIZED.with(Cell::get) - before;
    drop(reduced);
    remove(&parts);
    assert_eq!(
        requests, 1,
        "an 8-part reduce, {filling} of whose parts fill a window, made {requests} \
         requests of {WINDOW} B"
    );
}

#[test]
fn parts_in_reverse_order_reduce_to_the_same_text() {
    let parts = parts("reverse", 3);
    let forward = text(&parts);
    let reversed: Vec<PathBuf> = parts.iter().rev().cloned().collect();
    let backward = text(&reversed);
    remove(&parts);
    assert_eq!(forward, backward);
}

#[test]
fn an_empty_reduce_is_a_typed_error() {
    match reduce_parts(&[], 1) {
        Err(DistError::Partition {
            domain: "measurement units",
            error:
                PartitionError::WrongCount {
                    declared: 0,
                    got: 0,
                },
        }) => {}
        Err(other) => panic!("an empty reduce failed with {other}"),
        Ok(_) => panic!("an empty reduce succeeded"),
    }
}
