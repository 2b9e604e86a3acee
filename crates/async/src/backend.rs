//! The backend abstraction: anything with per-thread handles that can
//! execute [`Request`]s.
//!
//! `lf-core`'s handles are deliberately **not** `Send` — they own an
//! epoch-collector registration whose amortized announcement is a
//! thread-local affair. The façade therefore never moves a handle:
//! each lane worker constructs its own handle inside its thread (via
//! [`AsyncBackend::handle`], a GAT borrowing the backend) and futures
//! only ever touch the completion cell. That division is what makes
//! the futures `Send` without weakening the handle contract.

use std::hash::Hash;
use std::ops::Bound;

use lf_core::{merged_range, FrList, SkipList};
use lf_map::{BucketMap, BucketMapHandle};
use lf_reclaim::{Publish, Reclaim};
use lf_shard::{ShardedHandle, ShardedMap, ShardedMapHandle, ShardedSkipList};

use crate::op::{GetWithVisitor, Request, Response, ScanVisitor};

/// Drive a structure's zero-copy `get_with` with the boxed visitor a
/// [`Request::GetWith`] carries.
///
/// The structure's callback is `FnOnce`, so the request visitor is
/// threaded through an `Option`: when the key is found it runs with
/// `Some(&value)` *inside* the structure's epoch pin; otherwise it is
/// recovered afterwards and called with `None`, so the future's slot
/// protocol always observes a completed visit. Returns whether the key
/// was present.
fn run_get_with<V>(
    visitor: GetWithVisitor<V>,
    lookup: impl FnOnce(Box<dyn FnOnce(&V) + '_>) -> Option<()>,
) -> bool {
    let mut slot = Some(visitor);
    let found = lookup(Box::new(|val| {
        (slot.take().expect("visitor runs at most once"))(Some(val));
    }))
    .is_some();
    if let Some(v) = slot.take() {
        v(None);
    }
    found
}

/// Show a [`Request::Scan`]'s visitor one page. `walk` is the
/// structure's ordered traversal from the scan cursor: it calls the
/// closure it is handed for each pair **in place** (inside the
/// structure's pin) until that returns `false` — which it does once
/// the visitor declines or `limit` pairs were shown. The visitor's
/// closing `None` follows in every case, walk or no walk, so its
/// accumulator always reaches the future. Returns the pairs shown.
fn run_scan<K, V>(
    mut visitor: ScanVisitor<K, V>,
    limit: usize,
    walk: impl FnOnce(&mut dyn FnMut(&K, &V) -> bool),
) -> usize {
    let mut shown = 0;
    if limit > 0 {
        walk(&mut |k, v| {
            shown += 1;
            visitor(Some((k, v))) && shown < limit
        });
    }
    visitor(None);
    shown
}

/// How many remove+insert rounds a [`Request::Upsert`] retries when
/// racing other writers of the same key before reporting
/// `Inserted(false)`. On partition-affine backends the owning lane
/// worker is the only ring-side writer of the key, so round two always
/// wins; the budget only matters against direct synchronous-handle
/// writers.
const UPSERT_RETRY_BUDGET: usize = 8;

/// Worker-side upsert over insert-if-absent/remove primitives: retry
/// until one insert round wins or the budget runs out. A refused insert
/// hands the key and value back, so every round reuses them, and the
/// remove discards the old value in place: an upsert clones neither.
/// Runs entirely inside one `apply` call, so the upsert occupies a
/// single slot in its lane's FIFO.
fn run_upsert<K, V>(
    mut key: K,
    mut value: V,
    insert: impl Fn(K, V) -> Result<(), (K, V)>,
    remove: impl Fn(&K),
) -> bool {
    for _ in 0..UPSERT_RETRY_BUDGET {
        match insert(key, value) {
            Ok(()) => return true,
            Err((k, v)) => {
                remove(&k);
                (key, value) = (k, v);
            }
        }
    }
    false
}

/// Where a scan cursor starts: strictly after `after`, or at the
/// smallest key when starting out.
fn scan_start<K>(after: &Option<K>) -> Bound<&K> {
    after.as_ref().map_or(Bound::Unbounded, Bound::Excluded)
}

/// A map structure the async service can front.
pub trait AsyncBackend: Send + Sync + 'static {
    /// Key type.
    type Key: Ord + Clone + Send + Sync + 'static;
    /// Value type.
    type Value: Clone + Send + Sync + 'static;
    /// The per-worker execution handle (not `Send`; never escapes the
    /// worker thread that created it).
    type Handle<'a>: BackendHandle<Self::Key, Self::Value>
    where
        Self: 'a;

    /// Register a handle for the calling worker thread.
    fn handle(&self) -> Self::Handle<'_>;

    /// Racy-fresh size, readable without a handle.
    fn len(&self) -> usize;

    /// Whether the structure is empty (racy-fresh).
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether this backend can serve ordered [`Request::Scan`]s.
    /// Hash tiers (`BucketMap`, `ShardedMap`) cannot — their iteration
    /// order is bucket order, not key order — so callers (the wire
    /// server) refuse SCAN up front instead of enqueueing a request
    /// the worker would answer with zero pairs.
    fn supports_scan(&self) -> bool {
        false
    }

    /// Preferred submission lane for `req` among `lanes` lanes, or
    /// `None` to round-robin. Partitioned backends override this so a
    /// key's requests always land on the lane affine to its partition:
    /// one lane's worker then owns each shard's CAS traffic and the
    /// submission rings carry no cross-lane contention.
    fn lane_for(&self, req: &Request<Self::Key, Self::Value>, lanes: usize) -> Option<usize> {
        let _ = (req, lanes);
        None
    }
}

/// Per-worker execution surface over one backend handle.
pub trait BackendHandle<K, V> {
    /// Execute one request against the structure.
    fn apply(&self, req: Request<K, V>) -> Response<V>;
    /// Share one epoch announcement across `every` consecutive ops
    /// (set to the batch size so a drained batch costs one pin).
    fn amortize_pins(&self, every: u32);
    /// Withdraw the standing epoch announcement (idle worker).
    fn quiesce(&self);
    /// Quiesce and opportunistically advance reclamation.
    fn flush_reclamation(&self);
}

impl<K, V, R> AsyncBackend for FrList<K, V, R>
where
    K: Ord + Clone + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
    R: Reclaim + Publish<K> + Publish<V>,
{
    type Key = K;
    type Value = V;
    type Handle<'a>
        = lf_core::ListHandle<'a, K, V, R>
    where
        Self: 'a;

    fn handle(&self) -> Self::Handle<'_> {
        FrList::handle(self)
    }

    fn len(&self) -> usize {
        FrList::len(self)
    }

    fn supports_scan(&self) -> bool {
        true
    }
}

impl<K, V, R> BackendHandle<K, V> for lf_core::ListHandle<'_, K, V, R>
where
    K: Ord + Clone + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
    R: Reclaim + Publish<K> + Publish<V>,
{
    fn apply(&self, req: Request<K, V>) -> Response<V> {
        match req {
            Request::Get(k) => Response::Value(self.get(&k)),
            Request::Contains(k) => Response::Found(self.contains(&k)),
            Request::Insert(k, v) => Response::Inserted(self.insert(k, v).is_ok()),
            Request::Upsert(k, v) => Response::Inserted(run_upsert(
                k,
                v,
                |k, v| self.insert(k, v),
                |k| {
                    let _ = self.remove_with(k, |_| ());
                },
            )),
            Request::Remove(k) => Response::Removed(self.remove(&k)),
            Request::GetWith(k, f) => Response::Visited(run_get_with(f, |g| self.get_with(&k, g))),
            Request::Scan(after, limit, f) => Response::Scanned(run_scan(f, limit, |page| {
                // The list iterates in key order; skip to strictly
                // after the cursor (no positioned descent on a list).
                let from_cursor = self
                    .iter()
                    .skip_while(|(k, _)| matches!(&after, Some(a) if k <= a));
                for (k, v) in from_cursor {
                    if !page(&k, &v) {
                        break;
                    }
                }
            })),
            Request::Len => Response::Len(self.list().len()),
        }
    }

    fn amortize_pins(&self, every: u32) {
        lf_core::ListHandle::amortize_pins(self, every);
    }

    fn quiesce(&self) {
        lf_core::ListHandle::quiesce(self);
    }

    fn flush_reclamation(&self) {
        lf_core::ListHandle::flush_reclamation(self);
    }
}

impl<K, V, R> AsyncBackend for SkipList<K, V, R>
where
    K: Ord + Clone + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
    R: Reclaim + Publish<K> + Publish<V>,
{
    type Key = K;
    type Value = V;
    type Handle<'a>
        = lf_core::SkipListHandle<'a, K, V, R>
    where
        Self: 'a;

    fn handle(&self) -> Self::Handle<'_> {
        SkipList::handle(self)
    }

    fn len(&self) -> usize {
        SkipList::len(self)
    }

    fn supports_scan(&self) -> bool {
        true
    }
}

impl<K, V, R> BackendHandle<K, V> for lf_core::SkipListHandle<'_, K, V, R>
where
    K: Ord + Clone + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
    R: Reclaim + Publish<K> + Publish<V>,
{
    fn apply(&self, req: Request<K, V>) -> Response<V> {
        match req {
            Request::Get(k) => Response::Value(self.get(&k)),
            Request::Contains(k) => Response::Found(self.contains(&k)),
            Request::Insert(k, v) => Response::Inserted(self.insert(k, v).is_ok()),
            Request::Upsert(k, v) => Response::Inserted(run_upsert(
                k,
                v,
                |k, v| self.insert(k, v),
                |k| {
                    let _ = self.remove_with(k, |_| ());
                },
            )),
            Request::Remove(k) => Response::Removed(self.remove(&k)),
            Request::GetWith(k, f) => Response::Visited(run_get_with(f, |g| self.get_with(&k, g))),
            Request::Scan(after, limit, f) => Response::Scanned(run_scan(f, limit, |page| {
                // The sharded tier's walk, over this one list.
                merged_range(&[self], scan_start(&after), Bound::Unbounded, page);
            })),
            Request::Len => Response::Len(self.list().len()),
        }
    }

    fn amortize_pins(&self, every: u32) {
        lf_core::SkipListHandle::amortize_pins(self, every);
    }

    fn quiesce(&self) {
        lf_core::SkipListHandle::quiesce(self);
    }

    fn flush_reclamation(&self) {
        lf_core::SkipListHandle::flush_reclamation(self);
    }
}

impl<K, V, R> AsyncBackend for ShardedSkipList<K, V, R>
where
    K: Ord + Hash + Clone + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
    R: Reclaim + Publish<K> + Publish<V>,
{
    type Key = K;
    type Value = V;
    type Handle<'a>
        = ShardedHandle<'a, K, V, R>
    where
        Self: 'a;

    fn handle(&self) -> Self::Handle<'_> {
        ShardedSkipList::handle(self)
    }

    fn len(&self) -> usize {
        ShardedSkipList::len(self)
    }

    fn supports_scan(&self) -> bool {
        true
    }

    /// Shard affinity: every keyed request lands on the lane owning
    /// its shard (`shard mod lanes`), so one worker serves each
    /// shard's CAS traffic and submission rings stay cross-lane-free.
    /// `Len` has no key and round-robins.
    fn lane_for(&self, req: &Request<K, V>, lanes: usize) -> Option<usize> {
        req.key().map(|key| self.shard_of(key) % lanes)
    }
}

impl<K, V, R> BackendHandle<K, V> for ShardedHandle<'_, K, V, R>
where
    K: Ord + Hash + Clone + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
    R: Reclaim + Publish<K> + Publish<V>,
{
    fn apply(&self, req: Request<K, V>) -> Response<V> {
        match req {
            Request::Get(k) => Response::Value(self.get(&k)),
            Request::Contains(k) => Response::Found(self.contains(&k)),
            Request::Insert(k, v) => Response::Inserted(self.insert(k, v).is_ok()),
            Request::Upsert(k, v) => Response::Inserted(run_upsert(
                k,
                v,
                |k, v| self.insert(k, v),
                |k| {
                    let _ = self.remove_with(k, |_| ());
                },
            )),
            Request::Remove(k) => Response::Removed(self.remove(&k)),
            Request::GetWith(k, f) => Response::Visited(run_get_with(f, |g| self.get_with(&k, g))),
            Request::Scan(after, limit, f) => Response::Scanned(run_scan(f, limit, |page| {
                // k-way merged range across shards.
                self.range((scan_start(&after), Bound::Unbounded), page);
            })),
            Request::Len => Response::Len(self.len()),
        }
    }

    fn amortize_pins(&self, every: u32) {
        ShardedHandle::amortize_pins(self, every);
    }

    fn quiesce(&self) {
        ShardedHandle::quiesce(self);
    }

    fn flush_reclamation(&self) {
        ShardedHandle::flush_reclamation(self);
    }
}

impl<K, V, R> AsyncBackend for BucketMap<K, V, R>
where
    K: Ord + Hash + Clone + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
    R: Reclaim + Publish<K> + Publish<V>,
{
    type Key = K;
    type Value = V;
    type Handle<'a>
        = BucketMapHandle<'a, K, V, R>
    where
        Self: 'a;

    fn handle(&self) -> Self::Handle<'_> {
        BucketMap::handle(self)
    }

    fn len(&self) -> usize {
        BucketMap::len(self)
    }

    /// Bucket affinity: every keyed request lands on the lane owning
    /// its bucket (`bucket mod lanes`), so one worker serves each
    /// bucket chain's CAS traffic. `Len` has no key and round-robins.
    fn lane_for(&self, req: &Request<K, V>, lanes: usize) -> Option<usize> {
        req.key().map(|key| self.bucket_of(key) % lanes)
    }
}

impl<K, V, R> BackendHandle<K, V> for BucketMapHandle<'_, K, V, R>
where
    K: Ord + Hash + Clone + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
    R: Reclaim + Publish<K> + Publish<V>,
{
    fn apply(&self, req: Request<K, V>) -> Response<V> {
        match req {
            Request::Get(k) => Response::Value(self.get(&k)),
            Request::Contains(k) => Response::Found(self.contains(&k)),
            Request::Insert(k, v) => Response::Inserted(self.insert(k, v).is_ok()),
            Request::Upsert(k, v) => Response::Inserted(run_upsert(
                k,
                v,
                |k, v| self.insert(k, v),
                |k| {
                    let _ = self.remove_with(k, |_| ());
                },
            )),
            Request::Remove(k) => Response::Removed(self.remove(&k)),
            Request::GetWith(k, f) => Response::Visited(run_get_with(f, |g| self.get_with(&k, g))),
            // Hash tier: no ordered scan (`supports_scan()` is false);
            // finish the visitor with an empty page rather than panic
            // so a caller that skipped the capability check completes.
            Request::Scan(_, _, f) => Response::Scanned(run_scan(f, 0, |_| {})),
            Request::Len => Response::Len(self.len()),
        }
    }

    fn amortize_pins(&self, every: u32) {
        BucketMapHandle::amortize_pins(self, every);
    }

    fn quiesce(&self) {
        BucketMapHandle::quiesce(self);
    }

    fn flush_reclamation(&self) {
        BucketMapHandle::flush_reclamation(self);
    }
}

impl<K, V, R> AsyncBackend for ShardedMap<K, V, R>
where
    K: Ord + Hash + Clone + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
    R: Reclaim + Publish<K> + Publish<V>,
{
    type Key = K;
    type Value = V;
    type Handle<'a>
        = ShardedMapHandle<'a, K, V, R>
    where
        Self: 'a;

    fn handle(&self) -> Self::Handle<'_> {
        ShardedMap::handle(self)
    }

    fn len(&self) -> usize {
        ShardedMap::len(self)
    }

    /// Shard affinity, as for
    /// [`ShardedSkipList`](ShardedSkipList::lane_for): one lane's
    /// worker owns each map shard's traffic (and with it that shard's
    /// whole reclamation domain).
    fn lane_for(&self, req: &Request<K, V>, lanes: usize) -> Option<usize> {
        req.key().map(|key| self.shard_of(key) % lanes)
    }
}

impl<K, V, R> BackendHandle<K, V> for ShardedMapHandle<'_, K, V, R>
where
    K: Ord + Hash + Clone + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
    R: Reclaim + Publish<K> + Publish<V>,
{
    fn apply(&self, req: Request<K, V>) -> Response<V> {
        match req {
            Request::Get(k) => Response::Value(self.get(&k)),
            Request::Contains(k) => Response::Found(self.contains(&k)),
            Request::Insert(k, v) => Response::Inserted(self.insert(k, v).is_ok()),
            Request::Upsert(k, v) => Response::Inserted(run_upsert(
                k,
                v,
                |k, v| self.insert(k, v),
                |k| {
                    let _ = self.remove_with(k, |_| ());
                },
            )),
            Request::Remove(k) => Response::Removed(self.remove(&k)),
            Request::GetWith(k, f) => Response::Visited(run_get_with(f, |g| self.get_with(&k, g))),
            // Hash tier: no ordered scan (`supports_scan()` is false);
            // see the `BucketMapHandle` arm.
            Request::Scan(_, _, f) => Response::Scanned(run_scan(f, 0, |_| {})),
            Request::Len => Response::Len(self.len()),
        }
    }

    fn amortize_pins(&self, every: u32) {
        ShardedMapHandle::amortize_pins(self, every);
    }

    fn quiesce(&self) {
        ShardedMapHandle::quiesce(self);
    }

    fn flush_reclamation(&self) {
        ShardedMapHandle::flush_reclamation(self);
    }
}
