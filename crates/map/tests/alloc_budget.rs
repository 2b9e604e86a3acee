//! Construction cost: an empty `BucketMap` allocates its buckets and
//! nothing per bucket besides, and a handle adds one compact block of
//! statistics cells — kilobytes, where per-bucket shared histograms
//! once cost ~116 KiB a bucket (~119 MB for this map).
//!
//! A counting global allocator needs a test binary of its own, with a
//! single test so no other test's allocations are counted.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use lf_map::BucketMap;

struct Counting;

static ALLOCATED: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the byte counter has no bearing on it.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller's `layout` obligations pass through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn empty_map_and_handle_cost_kilobytes() {
    let before = ALLOCATED.load(Ordering::Relaxed);
    let map = BucketMap::<u64, u64>::new(1024);
    let built = ALLOCATED.load(Ordering::Relaxed);
    let handle = map.handle();
    let registered = ALLOCATED.load(Ordering::Relaxed);

    assert!(
        built - before < 512 * 1024,
        "BucketMap::new(1024) allocated {} bytes",
        built - before
    );
    assert!(
        registered - built < 1024 * 1024,
        "handle() allocated {} bytes",
        registered - built
    );

    // A later handle takes over a dropped handle's block.
    drop(handle);
    let _again = map.handle();
    let reused = ALLOCATED.load(Ordering::Relaxed);
    assert!(
        reused - registered < 64 * 1024,
        "second handle() allocated {} bytes",
        reused - registered
    );
}
