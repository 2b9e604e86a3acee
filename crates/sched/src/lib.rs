//! Deterministic step-machine scheduler for adversarial executions.
//!
//! The paper's lower-bound arguments (§3.1) construct *specific
//! interleavings*: "P_q marks a node right after P_1…P_{q−1} have
//! located the correct insertion position, but before any of them
//! perform a C&S". Real threads cannot be made to interleave that way
//! reliably, so this crate provides a cooperative scheduler:
//!
//! * each process runs on its own OS thread, but **before every
//!   essential shared-memory step** it announces the step's
//!   [`StepKind`] and blocks until the director grants it;
//! * at most one process executes between grants, so the execution is
//!   sequentially consistent and fully determined by the grant order;
//! * the director inspects each process's *pending* step and can pause
//!   it right before a C&S, run another process to completion, then
//!   resume — exactly the adversary of the paper;
//! * every granted step is counted per process and per kind, giving
//!   the step totals the amortized analysis reasons about.
//!
//! The processes run the shipped lists — `lf-core`'s `FrList` and
//! `SkipList`, `lf-baselines`' Harris, Michael and no-flag lists —
//! through ordinary per-thread handles. Those lists announce their
//! steps through [`lf_tagged::step`]; while a [`Scheduler`] lives, its
//! hook turns each announcement of a process thread into a grant point,
//! and any other thread passes straight through.
//! `lf-bench`'s experiments E1/E2/E8/E9/E11 replay the paper's
//! schedules this way. Halting a process forever (simply never granting
//! it) doubles as failure injection for lock-freedom tests.
//!
//! # Examples
//!
//! ```
//! use lf_sched::{Scheduler, StepKind};
//!
//! let sched = Scheduler::new();
//! let op = sched.spawn(|proc| {
//!     proc.step(StepKind::Read);
//!     proc.step(StepKind::CasInsert);
//!     42
//! });
//! // Run until the process is about to CAS, then let it finish.
//! let pid = op.pid();
//! assert!(sched.run_until_pending(pid, |k| k == StepKind::CasInsert));
//! sched.run_to_completion(pid);
//! assert_eq!(op.join(), 42);
//! assert_eq!(sched.steps(pid), 2);
//! ```

pub mod rt;

use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

pub use lf_tagged::StepKind;

/// Identifies a scheduler process.
pub type ProcId = usize;

#[derive(Default)]
struct ProcState {
    pending: Option<StepKind>,
    granted: usize,
    finished: bool,
    steps: u64,
    by_kind: HashMap<StepKind, u64>,
}

#[derive(Default)]
struct State {
    procs: Vec<ProcState>,
}

struct SchedInner {
    state: Mutex<State>,
    /// Signalled whenever any process settles (announces a step or
    /// finishes); the director waits here.
    director_cv: Condvar,
    /// One condvar per process, signalled when that process is granted
    /// steps — avoids thundering-herd wakeups with hundreds of
    /// suspended processes.
    proc_cvs: Mutex<Vec<Arc<Condvar>>>,
}

impl SchedInner {
    fn proc_cv(&self, pid: ProcId) -> Arc<Condvar> {
        self.proc_cvs.lock().unwrap()[pid].clone()
    }
}

/// The director's handle to the cooperative scheduler.
pub struct Scheduler {
    inner: Arc<SchedInner>,
    /// Keeps the lists' step announcements routed to [`step_current`].
    _hook: lf_tagged::StepHook,
}

impl fmt::Debug for Scheduler {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let st = self.inner.state.lock().unwrap();
        f.debug_struct("Scheduler")
            .field("procs", &st.procs.len())
            .finish()
    }
}

impl Default for Scheduler {
    fn default() -> Self {
        Self::new()
    }
}

/// A spawned process's operation; join it for the result.
pub struct OpHandle<R> {
    pid: ProcId,
    thread: JoinHandle<R>,
}

impl<R> OpHandle<R> {
    /// The process id driving this operation.
    pub fn pid(&self) -> ProcId {
        self.pid
    }

    /// Wait for the operation's thread to finish and take its result.
    ///
    /// # Panics
    ///
    /// Panics if the operation thread panicked.
    pub fn join(self) -> R {
        self.thread.join().expect("scheduled operation panicked")
    }
}

/// A process's own handle. The lists announce their steps through
/// [`lf_tagged::step`], which lands in [`Proc::step`] on a process
/// thread; code written directly against the scheduler may call
/// [`Proc::step`] itself.
#[derive(Clone)]
pub struct Proc {
    inner: Arc<SchedInner>,
    pid: ProcId,
}

thread_local! {
    /// The process the current thread runs, if any: what the step hook
    /// blocks on.
    static CURRENT: RefCell<Option<Proc>> = const { RefCell::new(None) };
}

/// The hook a [`Scheduler`] installs into [`lf_tagged::step`]: block on
/// the calling thread's [`Proc`], or return at once on a thread that is
/// not a process.
fn step_current(kind: StepKind) {
    let _ = CURRENT.try_with(|c| {
        if let Some(proc) = c.borrow().as_ref() {
            proc.step(kind);
        }
    });
}

impl Proc {
    /// The process id.
    pub fn pid(&self) -> ProcId {
        self.pid
    }

    /// Announce the next step and block until the director grants it.
    pub fn step(&self, kind: StepKind) {
        let cv = self.inner.proc_cv(self.pid);
        let mut st = self.inner.state.lock().unwrap();
        st.procs[self.pid].pending = Some(kind);
        self.inner.director_cv.notify_all();
        while st.procs[self.pid].granted == 0 {
            st = cv.wait(st).unwrap();
        }
        let p = &mut st.procs[self.pid];
        p.granted -= 1;
        p.pending = None;
        p.steps += 1;
        *p.by_kind.entry(kind).or_insert(0) += 1;
        self.inner.director_cv.notify_all();
    }
}

/// A process thread's binding to its [`Proc`]: installed before the
/// operation runs; on drop — return or unwind — the thread stops being
/// a process and the process is marked finished.
struct Running(Proc);

impl Running {
    fn bind(proc: Proc) -> Self {
        CURRENT.with(|c| *c.borrow_mut() = Some(proc.clone()));
        Running(proc)
    }
}

impl Drop for Running {
    fn drop(&mut self) {
        let _ = CURRENT.try_with(|c| c.borrow_mut().take());
        // Runs while unwinding too: a poisoned lock must not panic here.
        let mut st = self
            .0
            .inner
            .state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        st.procs[self.0.pid].finished = true;
        self.0.inner.director_cv.notify_all();
    }
}

/// What [`Scheduler::peek`] observed about a process.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Observation {
    /// The process is blocked about to take this step.
    Pending(StepKind),
    /// The process's operation has completed.
    Finished,
}

impl Scheduler {
    /// Create a scheduler with no processes. While it lives, the step
    /// hook is installed: process threads block in it, every other
    /// thread passes through.
    pub fn new() -> Self {
        Scheduler {
            inner: Arc::new(SchedInner {
                state: Mutex::new(State::default()),
                director_cv: Condvar::new(),
                proc_cvs: Mutex::new(Vec::new()),
            }),
            _hook: lf_tagged::StepHook::install(step_current),
        }
    }

    /// Spawn a process running `f` on its own thread, and return once
    /// it has settled: blocked at its first step, or finished. So what
    /// an operation does before its first step — registering a handle,
    /// drawing a tower-height ticket — happens in spawn order.
    pub fn spawn<R, F>(&self, f: F) -> OpHandle<R>
    where
        R: Send + 'static,
        F: FnOnce(&Proc) -> R + Send + 'static,
    {
        let pid = {
            let mut st = self.inner.state.lock().unwrap();
            st.procs.push(ProcState::default());
            self.inner
                .proc_cvs
                .lock()
                .unwrap()
                .push(Arc::new(Condvar::new()));
            st.procs.len() - 1
        };
        let proc = Proc {
            inner: self.inner.clone(),
            pid,
        };
        let thread = std::thread::spawn(move || {
            let running = Running::bind(proc);
            f(&running.0)
        });
        self.peek(pid);
        OpHandle { pid, thread }
    }

    /// Wait until `pid` is blocked on a pending step or has finished.
    pub fn peek(&self, pid: ProcId) -> Observation {
        let mut st = self.inner.state.lock().unwrap();
        loop {
            let p = &st.procs[pid];
            // A process holding unconsumed grants (or between steps) is
            // "running"; wait for it to settle at its next announce.
            if p.finished {
                return Observation::Finished;
            }
            if p.granted == 0 {
                if let Some(kind) = p.pending {
                    return Observation::Pending(kind);
                }
            }
            st = self.inner.director_cv.wait(st).unwrap();
        }
    }

    /// Grant `pid` permission to execute its next `n` steps, and wait
    /// until it has consumed them and settled (blocked at its next
    /// announce, or finished).
    ///
    /// Waiting for the *next* announce is what makes the grant
    /// synchronous: a step's shared-memory operation executes after
    /// [`Proc::step`] returns but before the process's next announce,
    /// so once the process settles the granted operations are visible
    /// to the director and to every process it runs afterwards.
    /// Without this, "at most one process executes between grants"
    /// would only hold when the OS happened to schedule the grantee
    /// promptly.
    pub fn grant(&self, pid: ProcId, n: usize) {
        let cv = self.inner.proc_cv(pid);
        let mut st = self.inner.state.lock().unwrap();
        st.procs[pid].granted += n;
        cv.notify_all();
        loop {
            let p = &st.procs[pid];
            if p.finished || (p.granted == 0 && p.pending.is_some()) {
                return;
            }
            st = self.inner.director_cv.wait(st).unwrap();
        }
    }

    /// Run `pid` until its *next pending* step satisfies `pred`
    /// (without executing that step), or until the operation finishes.
    /// Returns `true` if paused at a matching step, `false` if the
    /// operation finished first.
    pub fn run_until_pending(&self, pid: ProcId, pred: impl Fn(StepKind) -> bool) -> bool {
        loop {
            match self.peek(pid) {
                Observation::Finished => return false,
                Observation::Pending(kind) => {
                    if pred(kind) {
                        return true;
                    }
                    self.grant(pid, 1);
                }
            }
        }
    }

    /// Grant steps until the operation finishes.
    pub fn run_to_completion(&self, pid: ProcId) {
        loop {
            match self.peek(pid) {
                Observation::Finished => return,
                Observation::Pending(_) => self.grant(pid, 1),
            }
        }
    }

    /// Total steps executed by `pid`.
    pub fn steps(&self, pid: ProcId) -> u64 {
        self.inner.state.lock().unwrap().procs[pid].steps
    }

    /// Steps of one kind executed by `pid`.
    pub fn steps_of(&self, pid: ProcId, kind: StepKind) -> u64 {
        self.inner.state.lock().unwrap().procs[pid]
            .by_kind
            .get(&kind)
            .copied()
            .unwrap_or(0)
    }

    /// Steps of one kind across all processes.
    pub fn total_steps_of(&self, kind: StepKind) -> u64 {
        let st = self.inner.state.lock().unwrap();
        st.procs
            .iter()
            .map(|p| p.by_kind.get(&kind).copied().unwrap_or(0))
            .sum()
    }

    /// Total steps across all processes.
    pub fn total_steps(&self) -> u64 {
        self.inner
            .state
            .lock()
            .unwrap()
            .procs
            .iter()
            .map(|p| p.steps)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_process_runs_to_completion() {
        let sched = Scheduler::new();
        let op = sched.spawn(|p| {
            for _ in 0..10 {
                p.step(StepKind::Read);
            }
            "done"
        });
        sched.run_to_completion(op.pid());
        assert_eq!(op.join(), "done");
        assert_eq!(sched.steps(0), 10);
        assert_eq!(sched.steps_of(0, StepKind::Read), 10);
    }

    #[test]
    fn pause_before_cas() {
        let sched = Scheduler::new();
        let op = sched.spawn(|p| {
            p.step(StepKind::Read);
            p.step(StepKind::Read);
            p.step(StepKind::CasInsert);
            p.step(StepKind::Read);
        });
        assert!(sched.run_until_pending(op.pid(), StepKind::is_cas));
        // Exactly the two reads have executed.
        assert_eq!(sched.steps(op.pid()), 2);
        sched.run_to_completion(op.pid());
        op.join();
        assert_eq!(sched.steps(0), 4);
    }

    #[test]
    fn interleaving_is_director_controlled() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let sched = Scheduler::new();
        let shared = Arc::new(AtomicUsize::new(0));

        let s1 = shared.clone();
        let a = sched.spawn(move |p| {
            p.step(StepKind::Write);
            s1.store(1, Ordering::SeqCst);
        });
        let s2 = shared.clone();
        let b = sched.spawn(move |p| {
            p.step(StepKind::Write);
            s2.store(2, Ordering::SeqCst);
        });

        // Direct B first, then A: final value must be 1.
        sched.run_to_completion(b.pid());
        sched.run_to_completion(a.pid());
        a.join();
        b.join();
        assert_eq!(shared.load(std::sync::atomic::Ordering::SeqCst), 1);
    }

    #[test]
    fn halted_process_never_runs() {
        let sched = Scheduler::new();
        let stalled = sched.spawn(|p| {
            p.step(StepKind::CasMark);
        });
        let worker = sched.spawn(|p| {
            p.step(StepKind::Read);
            7
        });
        // Never grant `stalled` anything.
        sched.run_to_completion(worker.pid());
        assert_eq!(worker.join(), 7);
        assert_eq!(sched.steps(stalled.pid()), 0);
        // Clean up the stalled thread so the test exits.
        sched.run_to_completion(stalled.pid());
        stalled.join();
    }

    /// `spawn` returns only once the process has settled, so what each
    /// operation does before its first step runs in spawn order.
    #[test]
    fn spawned_processes_register_in_spawn_order() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        for _ in 0..50 {
            let sched = Scheduler::new();
            let tickets = Arc::new(AtomicUsize::new(0));
            let ops: Vec<_> = (0..2)
                .map(|_| {
                    let t = tickets.clone();
                    sched.spawn(move |p| {
                        let ticket = t.fetch_add(1, Ordering::SeqCst);
                        p.step(StepKind::Read);
                        ticket
                    })
                })
                .collect();
            // Run the later process first: its ticket is still 1.
            for op in ops.iter().rev() {
                sched.run_to_completion(op.pid());
            }
            let got: Vec<usize> = ops.into_iter().map(OpHandle::join).collect();
            assert_eq!(got, vec![0, 1]);
        }
    }
}
