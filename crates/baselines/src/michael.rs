//! Michael's lock-free list-based set (M. Michael, *High Performance
//! Dynamic Lock-Free Hash Tables and List-Based Sets*, SPAA 2002) —
//! the paper's reference \[8\].
//!
//! Michael kept Harris's mark-bit design but made it compatible with
//! **hazard-pointer** safe memory reclamation: a traversal publishes
//! each node in a hazard slot and re-validates its source before
//! dereferencing, and marked nodes are unlinked **one at a time** (no
//! chain snips — a chain's interior nodes couldn't all be protected).
//! Like Harris's list, any C&S failure restarts the operation from the
//! head; the Fomitchev–Ruppert backlinks are exactly what removes that
//! restart.
//!
//! Memory is managed end-to-end by [`lf_hazard`], so the workspace
//! exercises both reclamation schemes named in the paper's related
//! work (epochs in the core crate, hazard pointers here). The node,
//! sentinels, handle and trait impls are the shared [`MarkedList`]
//! core's; this module is the recovery policy.

use std::sync::atomic::Ordering;

use lf_hazard::{Domain, HazardHandle};
use lf_metrics::CasType;
use lf_tagged::{step, AtomicTaggedPtr, StepKind, TaggedPtr};

use crate::marked::{MarkedList, Node, Ops, Recovery};

/// Michael's hazard-pointer list-based set/map.
///
/// # Examples
///
/// ```
/// use lf_baselines::MichaelList;
/// use lf_core::MapHandle;
///
/// let list = MichaelList::new();
/// let h = list.handle();
/// assert!(h.insert(1, "one").is_ok());
/// assert_eq!(h.insert(1, "dup"), Err((1, "dup")));
/// assert_eq!(h.get(&1), Some("one"));
/// assert_eq!(h.remove(&1), Some("one"));
/// assert!(!h.contains(&1));
/// ```
pub type MichaelList<K, V> = MarkedList<K, V, Michael>;

/// Michael's recovery: single-node unlinks, hazard pointers.
pub struct Michael;

type MNode<K, V> = Node<K, V, Michael>;

/// What `find` hands back: the predecessor's successor **field**, the
/// found node, and that node's successor snapshot. Hazard slots 0 and 1
/// protect the predecessor and found node respectively for as long as
/// the caller keeps them.
struct FindResult<K, V> {
    prev_field: *const AtomicTaggedPtr<MNode<K, V>>,
    cur: *mut MNode<K, V>,
    cur_succ: TaggedPtr<MNode<K, V>>,
    found: bool,
}

impl Recovery for Michael {
    const NAME: &'static str = "MichaelList";
    type Word<K, V> = ();
    type Shared<K, V> = Domain;
}

/// Hazard pointers take no epoch pins: the pin methods keep their
/// no-op defaults.
impl<K, V> Ops for MichaelList<K, V>
where
    K: Ord + Send + Sync + 'static,
    V: Send + Sync + 'static,
{
    type Key = K;
    type Value = V;
    type Local = HazardHandle;

    fn register(&self) -> HazardHandle {
        self.shared.register()
    }

    fn insert(&self, hazard: &HazardHandle, key: K, value: V) -> Result<(), (K, V)> {
        let new_node = MNode::alloc_user(key, value);
        // SAFETY: `find` publishes hazard pointers for every node it
        // returns, so the dereferenced nodes cannot be freed until the
        // slots are cleared; retirement goes through the hazard domain.
        op(hazard, || unsafe {
            loop {
                let key_ref = (*new_node).key.as_key().expect("user key");
                let at = self.find(key_ref, hazard);
                if at.found {
                    break Err(MNode::into_pair(new_node));
                }
                (*new_node)
                    .succ
                    .store(TaggedPtr::unmarked(at.cur), Ordering::SeqCst);
                step(StepKind::CasInsert);
                let res = (*at.prev_field).compare_exchange(
                    TaggedPtr::unmarked(at.cur),
                    TaggedPtr::unmarked(new_node),
                    Ordering::SeqCst,
                    Ordering::SeqCst,
                );
                lf_metrics::record_cas(CasType::Insert, res.is_ok());
                if res.is_ok() {
                    self.len.fetch_add(1, Ordering::SeqCst);
                    break Ok(());
                }
                // Restart from the head.
            }
        })
    }

    fn remove_with<T>(&self, hazard: &HazardHandle, key: &K, f: impl FnOnce(&V) -> T) -> Option<T> {
        // SAFETY: as for `insert` — hazards protect every node `find`
        // returns until the slots are cleared.
        op(hazard, || unsafe {
            loop {
                let at = self.find(key, hazard);
                if !at.found {
                    break None;
                }
                // Logical deletion: mark cur's successor field.
                step(StepKind::CasMark);
                let res = (*at.cur).succ.compare_exchange(
                    at.cur_succ,
                    at.cur_succ.with_mark(),
                    Ordering::SeqCst,
                    Ordering::SeqCst,
                );
                lf_metrics::record_cas(CasType::Mark, res.is_ok());
                if res.is_err() {
                    continue; // restart from the head
                }
                self.len.fetch_sub(1, Ordering::SeqCst);
                let value = f((*at.cur).element());
                // Physical deletion: try the single unlink; on failure
                // a later find will do it.
                step(StepKind::CasUnlink);
                let unlinked = (*at.prev_field)
                    .compare_exchange(
                        TaggedPtr::unmarked(at.cur),
                        TaggedPtr::unmarked(at.cur_succ.ptr()),
                        Ordering::SeqCst,
                        Ordering::SeqCst,
                    )
                    .is_ok();
                lf_metrics::record_cas(CasType::Unlink, unlinked);
                if unlinked {
                    hazard.retire(at.cur);
                }
                break Some(value);
            }
        })
    }

    fn get_with<T>(&self, hazard: &HazardHandle, key: &K, f: impl FnOnce(&V) -> T) -> Option<T> {
        // SAFETY: as for `insert` — hazards protect the traversal and
        // the found node until the slots are cleared.
        op(hazard, || unsafe {
            let at = self.find(key, hazard);
            at.found.then(|| f((*at.cur).element()))
        })
    }
}

/// Run `body`, then clear the hazard slots `find` published once it is
/// done with the nodes they protect.
fn op<T>(hazard: &HazardHandle, body: impl FnOnce() -> T) -> T {
    let r = body();
    hazard.clear(0);
    hazard.clear(1);
    r
}

impl<K, V> MichaelList<K, V>
where
    K: Ord + Send + Sync + 'static,
    V: Send + Sync + 'static,
{
    /// Michael's `find`: position on the first node with `key >= k`,
    /// unlinking (and retiring) marked nodes one at a time. On any C&S
    /// failure or validation failure, restarts from the head.
    ///
    /// # Safety
    ///
    /// `hazard` must belong to this list's domain. On return, hazard slots
    /// 0/1 protect the predecessor/current node.
    unsafe fn find(&self, k: &K, hazard: &HazardHandle) -> FindResult<K, V> {
        // SAFETY: the fn's `# Safety` contract covers the whole body.
        unsafe {
            'retry: loop {
                // The head is never retired; no hazard needed for it.
                hazard.clear(0);
                let mut prev_field: *const AtomicTaggedPtr<MNode<K, V>> = &(*self.head).succ;
                step(StepKind::Read);
                let mut cur = (*prev_field).load(Ordering::SeqCst).ptr();
                loop {
                    // Publish cur, then validate prev still points at it
                    // cleanly (Michael's ⟨0, cur⟩ check).
                    hazard.publish(1, cur);
                    step(StepKind::Read);
                    let check = (*prev_field).load(Ordering::SeqCst);
                    if check.ptr() != cur || check.is_marked() {
                        continue 'retry;
                    }
                    step(StepKind::Read);
                    let cur_succ = (*cur).succ.load(Ordering::SeqCst);
                    if cur_succ.is_marked() {
                        // cur is logically deleted: unlink this single node.
                        step(StepKind::CasUnlink);
                        let res = (*prev_field).compare_exchange(
                            TaggedPtr::unmarked(cur),
                            TaggedPtr::unmarked(cur_succ.ptr()),
                            Ordering::SeqCst,
                            Ordering::SeqCst,
                        );
                        lf_metrics::record_cas(CasType::Unlink, res.is_ok());
                        if res.is_err() {
                            continue 'retry;
                        }
                        hazard.retire(cur);
                        cur = cur_succ.ptr();
                        lf_metrics::record_next_update();
                        continue;
                    }
                    if (*cur).key.cmp_key(k).is_ge() {
                        return FindResult {
                            prev_field,
                            cur,
                            cur_succ,
                            found: (*cur).key.as_key() == Some(k),
                        };
                    }
                    // Advance: cur becomes the predecessor (rotate hazards).
                    step(StepKind::Traverse);
                    hazard.publish(0, cur);
                    prev_field = &(*cur).succ;
                    cur = cur_succ.ptr();
                    lf_metrics::record_curr_update();
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lf_core::MapHandle;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;

    /// Values are freed through hazard-pointer scans, not just at drop.
    #[test]
    fn hazard_reclamation_frees_before_drop() {
        #[derive(Clone, Debug)]
        struct Counted(Arc<AtomicUsize>);
        impl Drop for Counted {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let drops = Arc::new(AtomicUsize::new(0));
        let list = MichaelList::new();
        let h = list.handle();
        const N: u32 = 300;
        for k in 0..N {
            assert!(h.insert(k, Counted(drops.clone())).is_ok());
        }
        for k in 0..N {
            drop(h.remove(&k)); // drops the clone immediately
        }
        // Clones account for N; originals free via scans.
        let freed_originals = drops.load(Ordering::SeqCst).saturating_sub(N as usize);
        assert!(
            freed_originals >= (N as usize) / 2,
            "hazard scans freed only {freed_originals}/{N}"
        );
    }
}
