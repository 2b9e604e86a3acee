//! The step hook: where the lists announce each essential shared-memory
//! access to a deterministic scheduler.
//!
//! The lock-free lists (`lf-core`'s `FrList`/`SkipList`, `lf-baselines`'
//! Harris, Michael and no-flag lists) call [`step`] immediately before
//! every access the paper's analysis counts: each load of a successor
//! field, each backlink store or walk, each traversal hop and each C&S.
//! Hazard publication, pool and reclamation traffic are not announced,
//! so the announced steps are exactly the algorithm's.
//!
//! Nothing is installed by default: [`step`] is then one load of a
//! process-wide counter and a branch that is not taken. `lf-sched`'s
//! `Scheduler` installs its hook for as long as it lives; meanwhile a
//! thread that runs as a scheduler process blocks in [`step`] until the
//! director grants the announced step, and every other thread returns
//! at once.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// The kind of shared-memory step a process is about to take.
///
/// The C&S kinds mirror the paper's Def. 4 classification; `Read`,
/// `Write`, `Traverse` and `Backlink` cover the non-C&S steps.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum StepKind {
    /// Load of a shared field.
    Read,
    /// Store to a shared field (e.g. setting a backlink).
    Write,
    /// Advancing a traversal pointer to the next node.
    Traverse,
    /// Following a backlink pointer.
    Backlink,
    /// Type-1 C&S: insertion.
    CasInsert,
    /// Type-2 C&S: flagging.
    CasFlag,
    /// Type-3 C&S: marking.
    CasMark,
    /// Type-4 C&S: physical deletion.
    CasUnlink,
}

impl StepKind {
    /// Whether this is any C&S attempt.
    pub fn is_cas(self) -> bool {
        matches!(
            self,
            StepKind::CasInsert | StepKind::CasFlag | StepKind::CasMark | StepKind::CasUnlink
        )
    }
}

static HOOK: OnceLock<fn(StepKind)> = OnceLock::new();

/// Live [`StepHook`]s: the hook runs only while at least one exists.
static LIVE: AtomicUsize = AtomicUsize::new(0);

/// Announce the next essential step of the calling thread's operation.
///
/// A pass-through unless a deterministic scheduler holds a
/// [`StepHook`]; see the module docs.
#[inline(always)]
pub fn step(kind: StepKind) {
    // ord: Relaxed — STEP.live: whether to consult the hook at all
    if LIVE.load(Ordering::Relaxed) != 0 {
        run_hook(kind);
    }
}

#[cold]
#[inline(never)]
fn run_hook(kind: StepKind) {
    if let Some(hook) = HOOK.get() {
        hook(kind);
    }
}

/// Keeps the step hook live; `lf-sched`'s `Scheduler` holds one for its
/// lifetime. The first hook installed stays the process's hook; once
/// the last `StepHook` drops, [`step`] is a pass-through again.
#[doc(hidden)]
#[derive(Debug)]
pub struct StepHook(());

impl StepHook {
    /// Install `hook` (if none was installed before) and keep it live.
    pub fn install(hook: fn(StepKind)) -> Self {
        let _ = HOOK.set(hook);
        // ord: Relaxed — STEP.live: a process thread spawned afterwards sees it
        LIVE.fetch_add(1, Ordering::Relaxed);
        StepHook(())
    }
}

impl Drop for StepHook {
    fn drop(&mut self) {
        // ord: Relaxed — STEP.live: no data is guarded by the count
        LIVE.fetch_sub(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// This test binary never installs a hook, so every announcement
    /// returns at once.
    #[test]
    fn step_is_a_no_op_without_a_scheduler() {
        for kind in [
            StepKind::Read,
            StepKind::Write,
            StepKind::Traverse,
            StepKind::Backlink,
            StepKind::CasInsert,
            StepKind::CasFlag,
            StepKind::CasMark,
            StepKind::CasUnlink,
        ] {
            step(kind);
        }
        assert!(HOOK.get().is_none());
        assert_eq!(LIVE.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn write_is_not_a_cas() {
        assert!(!StepKind::Write.is_cas());
        assert!(StepKind::CasFlag.is_cas());
    }
}
