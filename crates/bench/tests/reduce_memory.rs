//! The reducer merges each part into its running sets straight from
//! the part's bytes, so at its peak it holds those sets and one part's
//! bytes — never a decoded copy of a part — its memory does not grow
//! with the shard count, and the order the parts come in does not reach
//! the output. Exact heap counts, no timing.

use mbw_analysis::accum::FigureAccumulator;
use mbw_analysis::sweep::{FigureSet, SWEEP_IDS};
use mbw_bench::distributed::{
    collect_parts, reduce_parts, run_shard_file, write_plans, DistConfig, DistError, ShardPart,
    COST_SEED,
};
use mbw_bench::eval_sweep::{EvalFigureSet, EVAL_SWEEP_IDS};
use mbw_core::EvalCounts;
use mbw_dataset::{EcosystemProfile, PartitionError};
use mbw_frame::{read_snapshot, Codec};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::PathBuf;

thread_local! {
    // Per thread, so the test harness's own threads do not count; const
    // initialised and without a destructor, so reading them never
    // allocates.
    static LIVE: Cell<i64> = const { Cell::new(0) };
    static PEAK: Cell<i64> = const { Cell::new(0) };
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
        live(new_size as i64 - layout.size() as i64);
        // SAFETY: `ptr`/`layout` come from this allocator (that is, from
        // `System`) and `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

fn config(shards: u32) -> DistConfig {
    DistConfig {
        profile: EcosystemProfile::paper_china(),
        records: 2_000,
        counts: EvalCounts::uniform(2),
        shards,
    }
}

/// Plan and run every shard of a `shards`-way split; the part files in
/// shard order.
fn parts(tag: &str, shards: u32) -> Vec<PathBuf> {
    let dir = std::env::temp_dir().join(format!("mbw-reduce-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    for plan in write_plans(&config(shards), &dir.join("plans")).unwrap() {
        run_shard_file(&plan, &dir.join("parts"), 1).unwrap();
    }
    collect_parts(&dir.join("parts")).unwrap()
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
    let (two, eight) = (parts("two", 2), parts("eight", 8));
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
