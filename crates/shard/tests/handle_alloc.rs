//! What registering a handle costs in heap bytes. A routed handle is
//! made per thread and per wire connection, so its statistics must be
//! sized to what is read from them: one op counter per shard, not a
//! block per bucket.
//!
//! A counting global allocator tallies the bytes the test thread asks
//! for; this binary holds one test so nothing else runs beside it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use lf_shard::{ShardedMap, ShardedSkipList};

struct Counting;

thread_local! {
    /// Bytes this thread allocated while `counting` was set.
    static BYTES: Cell<usize> = const { Cell::new(0) };
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

// SAFETY: every call is forwarded to `System` unchanged; the
// thread-locals are const-initialized with no destructor, so touching
// them never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: forwarded with the caller's layout.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: forwarded with the caller's layout.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size.saturating_sub(layout.size()));
        // SAFETY: forwarded with the caller's pointer and layouts.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded with the caller's pointer and layout.
        unsafe { System.dealloc(ptr, layout) }
    }
}

fn note(bytes: usize) {
    let _ = COUNTING.try_with(|on| {
        if on.get() {
            let _ = BYTES.try_with(|b| b.set(b.get() + bytes));
        }
    });
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Heap bytes `f` asks for on this thread.
fn bytes_allocated<T>(f: impl FnOnce() -> T) -> (T, usize) {
    BYTES.with(|b| b.set(0));
    COUNTING.with(|on| on.set(true));
    let out = f();
    COUNTING.with(|on| on.set(false));
    (out, BYTES.with(Cell::get))
}

#[test]
fn a_fresh_handle_allocates_under_8_kib() {
    const BOUND: usize = 8 * 1024;
    let map: ShardedMap<Vec<u8>, Vec<u8>> = ShardedMap::new(8, 1024);
    let (h, map_bytes) = bytes_allocated(|| map.handle());
    drop(h);
    let list: ShardedSkipList<Vec<u8>, Vec<u8>> = ShardedSkipList::new(8);
    let (h, list_bytes) = bytes_allocated(|| list.handle());
    drop(h);
    println!("ShardedMap(8, 1024).handle(): {map_bytes} B");
    println!("ShardedSkipList(8).handle(): {list_bytes} B");
    assert!(map_bytes < BOUND, "map handle allocated {map_bytes} B");
    assert!(
        list_bytes < BOUND,
        "skip-list handle allocated {list_bytes} B"
    );
}
