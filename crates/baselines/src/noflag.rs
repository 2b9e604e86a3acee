//! The flag-bit ablation ("Valois-style" recovery): backlinks
//! **without** flag bits.
//!
//! Deletion is two-step (mark, then unlink), as in Harris/Michael, but
//! before marking, the deleter stores a backlink to its *last known*
//! predecessor — which, without the paper's flag bits, may itself
//! already be marked. Operations recover from C&S failures by walking
//! backlinks instead of restarting, exactly like the
//! Fomitchev–Ruppert list, but because backlinks can point at marked
//! nodes, chains of backlinks can **grow rightwards** and be traversed
//! repeatedly — the §3.1 pathology that flag bits exist to eliminate.
//! Experiment E8 measures exactly this difference.
//!
//! # Memory
//!
//! Because a backlink may target a node that was unlinked arbitrarily
//! long ago, epoch reclamation cannot prove those targets alive.
//! Unlinked nodes therefore go to a *graveyard* freed only when the
//! list is dropped. This ablation trades memory for fidelity to the
//! recovery behaviour being measured; the paper treats memory
//! management as orthogonal (§5).
//!
//! The node, sentinels, handle and trait impls are the shared
//! [`MarkedList`] core's; this module is the recovery policy.

use std::marker::PhantomData;
use std::sync::atomic::{AtomicPtr, Ordering};
use std::sync::Mutex;

use lf_metrics::CasType;
use lf_tagged::{step, StepKind, TaggedPtr};

use crate::marked::{MarkedList, Node, Ops, Recovery};

/// Backlinks-without-flags list (ablation baseline for experiment E8).
///
/// # Examples
///
/// ```
/// use lf_baselines::NoFlagList;
/// use lf_core::MapHandle;
///
/// let list = NoFlagList::new();
/// let h = list.handle();
/// assert!(h.insert(7, "seven").is_ok());
/// assert_eq!(h.remove(&7), Some("seven"));
/// assert!(!h.contains(&7));
/// ```
pub type NoFlagList<K, V> = MarkedList<K, V, NoFlag>;

/// The no-flag recovery: backlinks without flags, a graveyard.
pub struct NoFlag;

type NNode<K, V> = Node<K, V, NoFlag>;

/// Unlinked nodes, freed when the list drops (see module docs). It holds
/// addresses only; the list's own `Send`/`Sync` bounds cover `K` and `V`.
pub struct Graveyard<K, V>(Mutex<Vec<usize>>, PhantomData<fn() -> NNode<K, V>>);

impl<K, V> Default for Graveyard<K, V> {
    fn default() -> Self {
        Graveyard(Mutex::new(Vec::new()), PhantomData)
    }
}

impl<K, V> Drop for Graveyard<K, V> {
    fn drop(&mut self) {
        for &addr in self.0.get_mut().unwrap().iter() {
            // SAFETY: graveyard entries are unlinked Box-allocated nodes,
            // recorded exactly once by the winning unlink CAS; the list
            // that could reach them is gone.
            drop(unsafe { Box::from_raw(addr as *mut NNode<K, V>) });
        }
    }
}

impl Recovery for NoFlag {
    const NAME: &'static str = "NoFlagList";
    /// The backlink to the deleter's last known predecessor.
    type Word<K, V> = AtomicPtr<NNode<K, V>>;
    type Shared<K, V> = Graveyard<K, V>;
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Mode {
    Le,
    Lt,
}

#[inline]
fn key_before<K: Ord, V>(node: &NNode<K, V>, k: &K, mode: Mode) -> bool {
    match mode {
        Mode::Le => node.key.cmp_key(k).is_le(),
        Mode::Lt => node.key.cmp_key(k).is_lt(),
    }
}

#[inline]
fn succ<K, V>(node: &NNode<K, V>) -> TaggedPtr<NNode<K, V>> {
    node.succ.load(Ordering::SeqCst)
}

/// The graveyard frees nothing before drop, so there is nothing to pin:
/// the pin methods keep their no-op defaults.
impl<K, V> Ops for NoFlagList<K, V>
where
    K: Ord + Send + Sync + 'static,
    V: Send + Sync + 'static,
{
    type Key = K;
    type Value = V;
    type Local = ();

    fn register(&self) {}

    fn insert(&self, _: &(), key: K, value: V) -> Result<(), (K, V)> {
        // SAFETY: the list is live; the graveyard keeps pointers valid.
        unsafe {
            let (mut prev, mut next) = self.search_from(&key, self.head, Mode::Le);
            if (*prev).key.as_key() == Some(&key) {
                return Err((key, value));
            }
            let new_node = NNode::alloc_user(key, value);
            loop {
                (*new_node)
                    .succ
                    .store(TaggedPtr::unmarked(next), Ordering::SeqCst);
                step(StepKind::CasInsert);
                let res = (*prev).succ.compare_exchange(
                    TaggedPtr::unmarked(next),
                    TaggedPtr::unmarked(new_node),
                    Ordering::SeqCst,
                    Ordering::SeqCst,
                );
                lf_metrics::record_cas(CasType::Insert, res.is_ok());
                if res.is_ok() {
                    self.len.fetch_add(1, Ordering::SeqCst);
                    return Ok(());
                }
                prev = self.recover(prev);
                let key_ref = (*new_node).key.as_key().expect("user key");
                let (p, n) = self.search_from(key_ref, prev, Mode::Le);
                prev = p;
                next = n;
                if (*prev).key == (*new_node).key {
                    return Err(NNode::into_pair(new_node));
                }
            }
        }
    }

    fn remove_with<T>(&self, _: &(), k: &K, f: impl FnOnce(&V) -> T) -> Option<T> {
        // SAFETY: as for `insert`.
        unsafe {
            let (mut prev, del) = self.search_from(k, self.head, Mode::Lt);
            if (*del).key.as_key() != Some(k) {
                return None;
            }
            loop {
                // Store the backlink to the last-known predecessor *before*
                // marking — without a flag, `prev` may already be marked.
                step(StepKind::Write);
                (*del).word.store(prev, Ordering::SeqCst);
                step(StepKind::Read);
                let del_succ = succ(&*del);
                if del_succ.is_marked() {
                    // Another operation's deletion wins.
                    return None;
                }
                step(StepKind::CasMark);
                let res = (*del).succ.compare_exchange(
                    del_succ,
                    del_succ.with_mark(),
                    Ordering::SeqCst,
                    Ordering::SeqCst,
                );
                lf_metrics::record_cas(CasType::Mark, res.is_ok());
                if res.is_ok() {
                    self.len.fetch_sub(1, Ordering::SeqCst);
                    let value = f((*del).element());
                    self.help_marked(prev, del);
                    return Some(value);
                }
                // `del.succ` changed: either someone marked it (next loop
                // iteration returns None) or a node was inserted after it.
                // Keep `prev` fresh enough by re-searching from a recovered
                // position.
                prev = self.recover(prev);
                let (p, d) = self.search_from(k, prev, Mode::Lt);
                prev = p;
                if d != del {
                    // `del` was unlinked by someone else after being marked.
                    return None;
                }
            }
        }
    }

    fn get_with<T>(&self, _: &(), key: &K, f: impl FnOnce(&V) -> T) -> Option<T> {
        // SAFETY: as for `insert`; the found node is a live user node.
        unsafe {
            let (curr, _) = self.search_from(key, self.head, Mode::Le);
            ((*curr).key.as_key() == Some(key)).then(|| f((*curr).element()))
        }
    }
}

impl<K: Ord, V> NoFlagList<K, V> {
    /// Physically unlink the marked `del` from `prev` (both-clean CAS).
    ///
    /// # Safety
    ///
    /// `prev` and `del` must be nodes of this list (unlinked nodes stay valid
    /// via the graveyard).
    unsafe fn help_marked(&self, prev: *mut NNode<K, V>, del: *mut NNode<K, V>) {
        // SAFETY: the fn's `# Safety` contract covers the whole body.
        unsafe {
            step(StepKind::Read);
            let next = succ(&*del).ptr();
            step(StepKind::CasUnlink);
            let res = (*prev).succ.compare_exchange(
                TaggedPtr::unmarked(del),
                TaggedPtr::unmarked(next),
                Ordering::SeqCst,
                Ordering::SeqCst,
            );
            lf_metrics::record_cas(CasType::Unlink, res.is_ok());
            if res.is_ok() {
                self.shared.0.lock().unwrap().push(del as usize);
            }
        }
    }

    /// FR-style `SearchFrom` without the flag machinery.
    ///
    /// # Safety
    ///
    /// `curr` must be a node of this list with `curr.key <= k`.
    unsafe fn search_from(
        &self,
        k: &K,
        mut curr: *mut NNode<K, V>,
        mode: Mode,
    ) -> (*mut NNode<K, V>, *mut NNode<K, V>) {
        // SAFETY: the fn's `# Safety` contract covers the whole body.
        unsafe {
            step(StepKind::Read);
            let mut next = succ(&*curr).ptr();
            while key_before(&*next, k, mode) {
                loop {
                    step(StepKind::Read);
                    let next_succ = succ(&*next);
                    if !next_succ.is_marked() {
                        break;
                    }
                    step(StepKind::Read);
                    let curr_succ = succ(&*curr);
                    if curr_succ.is_marked() && curr_succ.ptr() == next {
                        break;
                    }
                    if succ(&*curr).ptr() == next {
                        self.help_marked(curr, next);
                    }
                    step(StepKind::Read);
                    next = succ(&*curr).ptr();
                    lf_metrics::record_next_update();
                }
                if key_before(&*next, k, mode) {
                    step(StepKind::Traverse);
                    curr = next;
                    lf_metrics::record_curr_update();
                    step(StepKind::Read);
                    next = succ(&*curr).ptr();
                }
            }
            (curr, next)
        }
    }

    /// Walk backlinks from a marked node to the first unmarked one.
    /// Without flags this chain can be long and can revisit nodes.
    ///
    /// # Safety
    ///
    /// `prev` must be a node of this list.
    unsafe fn recover(&self, mut prev: *mut NNode<K, V>) -> *mut NNode<K, V> {
        // SAFETY: the fn's `# Safety` contract covers the whole body.
        unsafe {
            loop {
                step(StepKind::Read);
                if !succ(&*prev).is_marked() {
                    break;
                }
                step(StepKind::Backlink);
                let back = (*prev).word.load(Ordering::SeqCst);
                if back.is_null() {
                    // Marked before any deleter stored a backlink is
                    // impossible (store precedes mark), but be defensive:
                    // restart from the head.
                    return self.head;
                }
                prev = back;
                lf_metrics::record_backlink();
            }
            prev
        }
    }
}
