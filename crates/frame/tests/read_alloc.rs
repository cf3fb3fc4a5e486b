//! What reading a snapshot asks of the allocator is the file, once:
//! the body comes back in the buffer the file was read into, so a
//! second body-sized allocation cannot return unnoticed. Exact counts,
//! no timing.

use mbw_frame::{read_snapshot, write_snapshot, SnapshotHeader};
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
fn read_snapshot_allocates_the_file_once() {
    let header = SnapshotHeader {
        kind: "mbw.figures-partial".into(),
        seed: 1,
        profile: "paper-china".into(),
        plan_hash: 2,
        shard_index: 0,
        shard_count: 1,
    };
    let body: Vec<u8> = (0..1usize << 20).map(|i| (i * 31 % 251) as u8).collect();
    let path = std::env::temp_dir().join(format!("mbw-read-alloc-{}.snap", std::process::id()));
    write_snapshot(&path, &header, &body).unwrap();
    let file_len = std::fs::metadata(&path).unwrap().len();

    let before = REQUESTED.with(Cell::get);
    let read = read_snapshot(&path);
    let requested = REQUESTED.with(Cell::get) - before;
    std::fs::remove_file(&path).unwrap();

    let (h, b) = read.unwrap();
    assert_eq!(h, header);
    assert_eq!(b, body);
    assert!(
        (requested as f64) < 1.1 * file_len as f64,
        "reading a {file_len} B snapshot requested {requested} B"
    );
}
