//! The backend abstraction: any [`ConcurrentMap`] whose keys and values
//! can cross threads, served through one [`apply`].
//!
//! `lf-core`'s handles are deliberately **not** `Send` — they own an
//! epoch-collector registration whose amortized announcement is a
//! thread-local affair. The façade therefore never moves a handle:
//! each lane worker constructs its own handle inside its thread (via
//! [`ConcurrentMap::handle`], a GAT borrowing the backend) and futures
//! only ever touch the completion cell. That division is what makes
//! the futures `Send` without weakening the handle contract.

use lf_core::ConcurrentMap;
/// Per-worker execution surface over one backend handle.
pub use lf_core::MapHandle as BackendHandle;

use crate::op::{Request, Response};

/// How many remove+insert rounds a [`Request::Upsert`] retries when
/// racing other writers of the same key before reporting
/// `Inserted(false)`. On partition-affine backends the owning lane
/// worker is the only ring-side writer of the key, so round two always
/// wins; the budget only matters against direct synchronous-handle
/// writers.
const UPSERT_RETRY_BUDGET: usize = 8;

/// A map structure the async service can front: every
/// [`ConcurrentMap`] whose keys are ordered and whose keys and values
/// are clonable and thread-safe (the blanket impl below).
///
/// What the service takes from the map: `Get`/`Contains`/`Remove` are
/// the handle's [`get`](BackendHandle::get),
/// [`contains`](BackendHandle::contains) and
/// [`remove`](BackendHandle::remove), `Upsert` retries `insert` and
/// [`remove_with`](BackendHandle::remove_with), lane affinity comes
/// from [`ConcurrentMap::partition_of`] (`partition mod lanes`, so one
/// worker owns each partition's CAS traffic), and the scan capability
/// from [`ConcurrentMap::ORDERED`].
pub trait AsyncBackend:
    ConcurrentMap<Key: Ord + Clone + Send + Sync + 'static, Value: Clone + Send + Sync + 'static>
    + 'static
{
}

impl<M> AsyncBackend for M
where
    M: ConcurrentMap + 'static,
    M::Key: Ord + Clone + Send + Sync + 'static,
    M::Value: Clone + Send + Sync + 'static,
{
}

/// Execute one request against `backend` through the worker's `handle`.
pub(crate) fn apply<B: AsyncBackend>(
    backend: &B,
    handle: &B::Handle<'_>,
    req: Request<B::Key, B::Value>,
) -> Response<B::Value> {
    match req {
        Request::Get(k) => Response::Value(handle.get(&k)),
        Request::Contains(k) => Response::Found(handle.contains(&k)),
        Request::Insert(k, v) => Response::Inserted(handle.insert(k, v).is_ok()),
        // Retry remove+insert until one insert round wins or the budget
        // runs out. A refused insert hands the pair back, so every round
        // reuses it, and the remove discards the old value in place: an
        // upsert clones neither, and occupies one slot in its lane's FIFO.
        Request::Upsert(mut k, mut v) => {
            for _ in 0..UPSERT_RETRY_BUDGET {
                match handle.insert(k, v) {
                    Ok(()) => return Response::Inserted(true),
                    Err(refused) => {
                        let _ = handle.remove_with(&refused.0, |_| ());
                        (k, v) = refused;
                    }
                }
            }
            Response::Inserted(false)
        }
        Request::Remove(k) => Response::Removed(handle.remove(&k)),
        // The visitor runs with `Some(&value)` in place, under the pin;
        // on a miss it is closed with `None` instead, so the future's
        // slot protocol always observes a completed visit.
        Request::GetWith(k, f) => {
            let mut visitor = Some(f);
            let found = handle
                .get_with(&k, |v| visitor.take().map(|f| f(Some(v))))
                .is_some();
            if let Some(f) = visitor {
                f(None);
            }
            Response::Visited(found)
        }
        // Each pair is shown in place until the visitor declines or
        // `limit` pairs were shown; the closing `None` follows in every
        // case, so the accumulator always reaches the future. Hash tiers
        // visit nothing (`ORDERED` is false), so a caller that skipped
        // the capability check completes with an empty page.
        Request::Scan(after, limit, mut visit) => {
            let mut shown = 0;
            if limit > 0 {
                handle.scan(after.as_ref(), &mut |k, v| {
                    shown += 1;
                    visit(Some((k, v))) && shown < limit
                });
            }
            visit(None);
            Response::Scanned(shown)
        }
        Request::Len => Response::Len(backend.len()),
    }
}
