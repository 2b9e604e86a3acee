//! Epoch-fed node pools.
//!
//! Every insert in the seed implementation paid one global-allocator
//! round trip per node (and one per *level* for skip-list towers), and
//! every physical deletion paid another on the reclaim path. The pools
//! here close that loop: retired blocks are pushed back to a per-list
//! [`SharedPool`] by the epoch collector's deferred destructors, and
//! each thread's handle pulls from a private [`LocalPool`] cache, so a
//! steady-state insert/delete workload touches the global allocator only
//! to grow the working set.
//!
//! A *block* of capacity `cap` is one allocation of
//! [`Block::layout`]`(cap)`, addressed through a `*mut T` to its start.
//! Both structures store towers (see `crate::tower`): a header and
//! `cap == height` level cells, so a pool buckets blocks by height; a
//! list's blocks all have height 1. Blocks in the pool are
//! **uninitialized** memory: the retire closures `drop_in_place` any
//! live fields before pushing a block, and every reuse `ptr::write`s
//! all fields before the block is published. The quiescent `Drop`
//! paths recycle still-linked blocks into the pool too, which frees
//! every block with its own layout when the pool drops.
//!
//! ABA note: recycling does not weaken the algorithms' CAS protocols.
//! EBR already guarantees an address cannot be reused while any thread
//! that could compare against it is still pinned — the pool recycles on
//! exactly the schedule the global allocator would have.

use std::alloc::{alloc, dealloc, handle_alloc_error, Layout};
use std::cell::RefCell;
use std::marker::PhantomData;
use std::sync::{Arc, Mutex};

/// What a pool stores: blocks addressed by a `*mut Self` to their
/// start, one layout per capacity.
pub(crate) trait Block: Sized {
    /// The allocation of one block of capacity `cap` (`cap >= 1`):
    /// `cap` consecutive `Self`s unless the type says otherwise.
    fn layout(cap: usize) -> Layout {
        Layout::array::<Self>(cap).expect("block layout overflow")
    }
}

/// Blocks a [`LocalPool`] steals from the shared pool per refill.
const STEAL_BATCH: usize = 16;

/// Local free blocks per capacity class before spilling half to the
/// shared pool (bounds per-thread hoarding on asymmetric workloads).
const LOCAL_MAX: usize = 64;

/// The per-structure free-block store, shared by all handles and by the
/// retire closures queued in the epoch collector.
///
/// Holds raw addresses only — never live values — so it is `Send + Sync`
/// for any `T` (the `PhantomData<fn(T)>` keeps it covariant-free without
/// inheriting `T`'s auto traits).
pub(crate) struct SharedPool<T: Block> {
    /// `buckets[c - 1]` holds free blocks of capacity `c`.
    buckets: Mutex<Vec<Vec<usize>>>,
    _marker: PhantomData<fn(T)>,
}

impl<T: Block> SharedPool<T> {
    pub(crate) fn new() -> Arc<Self> {
        Arc::new(SharedPool {
            buckets: Mutex::new(Vec::new()),
            _marker: PhantomData,
        })
    }

    /// Return a retired block to the pool.
    ///
    /// Called from deferred destructors on the (cold) collect path, so
    /// the mutex is never on an operation's critical path.
    ///
    /// # Safety
    ///
    /// `addr` must be a block of capacity `cap` previously produced by
    /// [`LocalPool::acquire`] with the same `T`, with all live fields
    /// already dropped, and must not be pushed twice.
    pub(crate) unsafe fn recycle(&self, addr: usize, cap: usize) {
        let mut buckets = self.buckets.lock().unwrap();
        if buckets.len() < cap {
            buckets.resize_with(cap, Vec::new);
        }
        buckets[cap - 1].push(addr);
    }

    /// Move up to `max` blocks of capacity `cap` into `out`.
    fn steal(&self, cap: usize, max: usize, out: &mut Vec<usize>) {
        let mut buckets = self.buckets.lock().unwrap();
        if let Some(bucket) = buckets.get_mut(cap - 1) {
            let take = bucket.len().min(max);
            out.extend(bucket.drain(bucket.len() - take..));
        }
    }
}

impl<T: Block> Drop for SharedPool<T> {
    fn drop(&mut self) {
        // All handles and retire closures are gone (they hold `Arc`s);
        // every remaining block is uninitialized memory we own.
        let buckets = self.buckets.get_mut().unwrap();
        for (i, bucket) in buckets.iter().enumerate() {
            let layout = T::layout(i + 1);
            for &addr in bucket {
                // SAFETY: `addr` was produced by `alloc` with this same
                // per-bucket layout and is owned solely by the pool.
                unsafe { dealloc(addr as *mut u8, layout) };
            }
        }
    }
}

/// A per-thread (not `Send`) cache in front of a [`SharedPool`].
pub(crate) struct LocalPool<T: Block> {
    shared: Arc<SharedPool<T>>,
    /// `cache[c - 1]` holds locally-cached free blocks of capacity `c`.
    cache: RefCell<Vec<Vec<usize>>>,
}

impl<T: Block> LocalPool<T> {
    pub(crate) fn new(shared: Arc<SharedPool<T>>) -> Self {
        LocalPool {
            shared,
            cache: RefCell::new(Vec::new()),
        }
    }

    /// Obtain an **uninitialized** block of `cap` slots: local cache
    /// first, then a batch steal from the shared pool, then the global
    /// allocator. The caller must `ptr::write` every field it will read.
    ///
    /// The second element reports provenance: `true` means the block is
    /// **recycled** (it has had tenants before, so stale optimistic
    /// readers may still hold stamped pointers into it and its atomic
    /// fields are initialized), `false` means it came straight from the
    /// global allocator and is unreachable by any other thread. Backends
    /// with pin-free reads must re-initialize recycled blocks through
    /// the seqlock protocol (DESIGN.md §9.7); fresh blocks may be
    /// plain-written.
    pub(crate) fn acquire(&self, cap: usize) -> (*mut T, bool) {
        let mut cache = self.cache.borrow_mut();
        if cache.len() < cap {
            cache.resize_with(cap, Vec::new);
        }
        let bucket = &mut cache[cap - 1];
        if bucket.is_empty() {
            self.shared.steal(cap, STEAL_BATCH, bucket);
        }
        if let Some(addr) = bucket.pop() {
            return (addr as *mut T, true);
        }
        let layout = T::layout(cap);
        // SAFETY: `layout` has non-zero size (a block holds a tower
        // header, or at least one `T` under the default layout).
        let ptr = unsafe { alloc(layout) } as *mut T;
        if ptr.is_null() {
            handle_alloc_error(layout);
        }
        (ptr, false)
    }

    /// Return a block whose fields are already dropped (used by the
    /// never-published failure paths, e.g. a duplicate-key insert).
    ///
    /// # Safety
    ///
    /// Same contract as [`SharedPool::recycle`].
    pub(crate) unsafe fn release(&self, ptr: *mut T, cap: usize) {
        let mut cache = self.cache.borrow_mut();
        if cache.len() < cap {
            cache.resize_with(cap, Vec::new);
        }
        let bucket = &mut cache[cap - 1];
        bucket.push(ptr as usize);
        if bucket.len() >= LOCAL_MAX {
            let spill = bucket.split_off(LOCAL_MAX / 2);
            let mut shared = self.shared.buckets.lock().unwrap();
            if shared.len() < cap {
                shared.resize_with(cap, Vec::new);
            }
            shared[cap - 1].extend(spill);
        }
    }
}

impl<T: Block> Drop for LocalPool<T> {
    fn drop(&mut self) {
        // Hand every cached block back so other threads can reuse it.
        let cache = self.cache.get_mut();
        let mut shared = self.shared.buckets.lock().unwrap();
        if shared.len() < cache.len() {
            shared.resize_with(cache.len(), Vec::new);
        }
        for (i, bucket) in cache.iter_mut().enumerate() {
            shared[i].append(bucket);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Block for u64 {}
    impl Block for [u64; 8] {}

    #[test]
    fn acquire_recycle_acquire_reuses_block() {
        let shared = SharedPool::<u64>::new();
        let local = LocalPool::new(Arc::clone(&shared));
        let (p, fresh_recycled) = local.acquire(1);
        assert!(
            !fresh_recycled,
            "first acquire must come from the allocator"
        );
        unsafe {
            p.write(7);
            local.release(p, 1);
        }
        let (q, recycled) = local.acquire(1);
        assert_eq!(q, p, "local cache must hand back the same block");
        assert!(recycled, "cached block must be reported as recycled");
        unsafe { local.release(q, 1) };
    }

    #[test]
    fn blocks_flow_local_to_shared_and_back() {
        let shared = SharedPool::<u64>::new();
        let a = {
            let local = LocalPool::new(Arc::clone(&shared));
            let (a, _) = local.acquire(4);
            unsafe { local.release(a, 4) };
            a
            // local drops: cached block moves to shared.
        };
        let local2 = LocalPool::new(Arc::clone(&shared));
        let (b, recycled) = local2.acquire(4);
        assert_eq!(a, b, "shared pool must recycle the spilled block");
        assert!(recycled, "stolen block must be reported as recycled");
        unsafe { local2.release(b, 4) };
    }

    #[test]
    fn distinct_capacities_use_distinct_buckets() {
        let shared = SharedPool::<u64>::new();
        let local = LocalPool::new(Arc::clone(&shared));
        let (one, _) = local.acquire(1);
        unsafe { local.release(one, 1) };
        let (two, _) = local.acquire(2);
        assert_ne!(
            one, two,
            "capacity-2 request must not reuse capacity-1 block"
        );
        unsafe { local.release(two, 2) };
    }

    #[test]
    fn shared_drop_frees_everything() {
        // Leak-checked under the workspace's sanitizer runs / Miri: all
        // blocks acquired here must be freed by SharedPool::drop.
        let shared = SharedPool::<[u64; 8]>::new();
        let local = LocalPool::new(Arc::clone(&shared));
        let mut blocks = Vec::new();
        for cap in 1..=8 {
            for _ in 0..4 {
                blocks.push((local.acquire(cap).0, cap));
            }
        }
        for (p, cap) in blocks {
            unsafe { local.release(p, cap) };
        }
    }
}
