//! Cross-layer **causal** op tracing for the lock-free stack.
//!
//! `lf-metrics` (PR 1) answers *how much*: counters and histograms of
//! essential steps. This crate answers *which op, where, blocked by
//! what*: every logical operation gets a 64-bit [`OpId`] minted at the
//! front door (the `lf-async` submission path, or the sync API boundary
//! via `lf_metrics::op_begin`), carried by thread-local context through
//! `lf-shard` routing into the `lf-core` hot paths, with [`Phase`]
//! events recorded into lock-free per-thread ring buffers
//! (generalizing the feature-gated tracer `lf-metrics` shipped in
//! PR 1 — these rings are always compiled, runtime-toggled, and
//! readable mid-flight).
//!
//! Three consumers sit on top:
//!
//! * the **stall watchdog** ([`watchdog`]) — per-lane heartbeats plus
//!   an epoch-advance monitor that detects stuck workers, runaway
//!   retry loops, and reclamation stalls;
//! * the **black-box flight recorder** ([`recorder`]) — on watchdog
//!   trip, `SIGUSR1`, or explicit call, dump the merged, seq-ordered
//!   recent event history as JSON lines, so a hang is diagnosable from
//!   the artifact alone;
//! * the **report tool** ([`report`], `lf-trace` binary) — reconstruct
//!   per-op phase histories and print retry-chain / helping
//!   statistics from a dump.
//!
//! # Cost contract
//!
//! With tracing **disabled** (the default) every hook is one relaxed
//! load and a predictable branch — the same shape as the
//! `lf-metrics` kill-switches, budgeted at ≤ 1 % and priced end to end
//! by stackbench's `harness.trace_overhead_share` row. **Enabled**,
//! each recorded event is one relaxed global `fetch_add` (the seq
//! stamp) plus an owner-only seqlock write into the thread's ring
//! (≤ 10 % budget against a disabled run on the same machine,
//! `crates/bench/tests/trace_overhead.rs`). Events are *per phase
//! transition*, not per pointer hop:
//! the high-frequency `curr`/`next` traversal steps stay counters-only
//! in `lf-metrics`.
//!
//! # OpId propagation rules (normative, DESIGN.md §12)
//!
//! * The id is minted once per logical op, at the outermost boundary
//!   that sees it: [`mint_op`] on the async submission path, or
//!   [`op_scope`] (called by `lf_metrics::op_begin`) for bare sync
//!   calls. An inner boundary that finds a current id **inherits** it.
//! * The id travels in an [`OpCell`-style carrier across threads and
//!   in thread-local context within a thread; it never rides in an
//!   `.await`-crossing closure without its carrier ([`enter_op`] on
//!   the worker re-establishes it before any structure access).
//! * Whoever minted the id emits its [`Phase::Complete`].
//!
//! [`OpCell`-style carrier across threads and
//! in thread-local context within a thread; it never rides in an
//! `.await`-crossing closure without its carrier ([`enter_op`] on
//! the worker re-establishes it before any structure access).]: crate::enter_op

mod ring;

pub mod json;
pub mod recorder;
pub mod report;
pub mod watchdog;

pub use ring::{current_thread_id, set_ring_capacity};

use std::cell::Cell;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// A logical operation's identity: nonzero once minted, `0` meaning
/// "no op context" (events recorded outside any op, or before tracing
/// was enabled).
pub type OpId = u64;

/// Sentinel shard tag: event not attributed to a shard.
pub const NO_SHARD: u16 = u16::MAX;
/// Sentinel lane tag: event not attributed to a submission lane.
pub const NO_LANE: u8 = u8::MAX;

/// What happened, at one point of one logical operation's life.
///
/// The taxonomy follows the op's causal path through the stack:
/// `Enqueue`/`Dequeue` at the async front door, `Pin` when the worker
/// (re-)announces an epoch, `Search` when the structure op starts its
/// traversal, then the contention phases (`CasFail`, `BacklinkWalk`,
/// `Flag`, `Mark`, `Help`), the reclamation phases (`Retire`,
/// `EpochAdvance`), and `Complete`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
#[repr(u8)]
pub enum Phase {
    /// Request enqueued onto a submission lane (`aux` = lane depth).
    Enqueue = 0,
    /// Request popped by a lane worker (`aux` = batch size).
    Dequeue = 1,
    /// Epoch announcement (re-)published by the executing thread.
    Pin = 2,
    /// Structure op began its search/traversal.
    Search = 3,
    /// A C&S attempt failed (`aux` = CAS type, Def. 4 discriminant).
    CasFail = 4,
    /// Backlink recovery walk step (op was pushed back by a deletion).
    BacklinkWalk = 5,
    /// Flag CAS succeeded (deletion step 1).
    Flag = 6,
    /// Mark CAS succeeded (deletion step 2).
    Mark = 7,
    /// Helped another op's deletion to completion (physical unlink).
    Help = 8,
    /// A node was retired to the epoch collector.
    Retire = 9,
    /// The global epoch advanced (reclamation is making progress).
    EpochAdvance = 10,
    /// The logical op finished (`aux` = completion code: 0 ok,
    /// 1 shed, 2 shutdown, 3 rejected, 4 resubmitted — the op bounced
    /// off a full lane under `Block` and retries under a fresh id).
    Complete = 11,
}

impl Phase {
    /// All phases, in discriminant order.
    pub const ALL: [Phase; 12] = [
        Phase::Enqueue,
        Phase::Dequeue,
        Phase::Pin,
        Phase::Search,
        Phase::CasFail,
        Phase::BacklinkWalk,
        Phase::Flag,
        Phase::Mark,
        Phase::Help,
        Phase::Retire,
        Phase::EpochAdvance,
        Phase::Complete,
    ];

    /// Snake-case label (stable: the flight-recorder dump format).
    pub fn label(self) -> &'static str {
        match self {
            Phase::Enqueue => "enqueue",
            Phase::Dequeue => "dequeue",
            Phase::Pin => "pin",
            Phase::Search => "search",
            Phase::CasFail => "cas_fail",
            Phase::BacklinkWalk => "backlink_walk",
            Phase::Flag => "flag",
            Phase::Mark => "mark",
            Phase::Help => "help",
            Phase::Retire => "retire",
            Phase::EpochAdvance => "epoch_advance",
            Phase::Complete => "complete",
        }
    }

    /// Inverse of [`Phase::label`].
    pub fn from_label(s: &str) -> Option<Phase> {
        Phase::ALL.into_iter().find(|p| p.label() == s)
    }

    fn from_u8(v: u8) -> Option<Phase> {
        Phase::ALL.get(v as usize).copied()
    }
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One recorded event, unpacked from its ring slot.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Event {
    /// Globally unique, allocation-ordered stamp (starts at 1).
    pub seq: u64,
    /// Dense id of the recording thread (first-record order).
    pub thread: u32,
    /// The logical op this event belongs to (0 = unattributed).
    pub op: OpId,
    /// What happened.
    pub phase: Phase,
    /// Shard the op was routed to ([`NO_SHARD`] if none).
    pub shard: u16,
    /// Submission lane serving the op ([`NO_LANE`] if none).
    pub lane: u8,
    /// Phase-specific argument (see [`Phase`] docs).
    pub aux: u32,
}

impl Event {
    /// Pack phase/lane/shard/aux into one ring-slot word.
    fn pack_meta(phase: Phase, shard: u16, lane: u8, aux: u32) -> u64 {
        ((phase as u64) << 56) | ((lane as u64) << 48) | ((shard as u64) << 32) | aux as u64
    }

    pub(crate) fn unpack(seq: u64, thread: u32, op: u64, meta: u64) -> Event {
        Event {
            seq,
            thread,
            op,
            phase: Phase::from_u8((meta >> 56) as u8).unwrap_or(Phase::Complete),
            shard: (meta >> 32) as u16,
            lane: (meta >> 48) as u8,
            aux: meta as u32,
        }
    }
}

/// Runtime kill-switch. Off by default.
static ENABLED: AtomicBool = AtomicBool::new(false);
/// Global event-sequence stamp allocator (0 reserved for "empty slot").
static SEQ: AtomicU64 = AtomicU64::new(0);
/// Global [`OpId`] allocator (0 reserved for "no op").
static NEXT_OP: AtomicU64 = AtomicU64::new(0);
/// Snapshot floor: events with `seq <=` this are logically cleared.
static FLOOR: AtomicU64 = AtomicU64::new(0);

/// Turn event recording on.
pub fn enable() {
    // ord: Relaxed — TRACE.toggle: advisory kill-switch, no data guarded
    ENABLED.store(true, Ordering::Relaxed);
}

/// Turn event recording off (rings keep their contents).
pub fn disable() {
    // ord: Relaxed — TRACE.toggle: advisory kill-switch, no data guarded
    ENABLED.store(false, Ordering::Relaxed);
}

/// Whether events are currently being recorded.
#[inline]
pub fn is_enabled() -> bool {
    // ord: Relaxed — TRACE.toggle: advisory kill-switch, no data guarded
    ENABLED.load(Ordering::Relaxed)
}

thread_local! {
    /// The op the calling thread is currently executing on behalf of.
    static CUR_OP: Cell<OpId> = const { Cell::new(0) };
    /// The shard the current op was routed to.
    static CUR_SHARD: Cell<u16> = const { Cell::new(NO_SHARD) };
    /// The submission lane this thread serves (workers set it once).
    static CUR_LANE: Cell<u8> = const { Cell::new(NO_LANE) };
}

/// Mint a fresh [`OpId`] (returns 0 when tracing is disabled, which
/// every downstream hook treats as "unattributed"). The async front
/// door calls this once per submitted request.
#[inline]
pub fn mint_op() -> OpId {
    if !is_enabled() {
        return 0;
    }
    // ord: Relaxed — TRACE.seq: id tickets / capacity hint need only RMW atomicity
    NEXT_OP.fetch_add(1, Ordering::Relaxed) + 1
}

/// The [`OpId`] the calling thread is currently attributed to (0 when
/// none).
#[inline]
pub fn current_op() -> OpId {
    CUR_OP.with(Cell::get)
}

/// RAII scope establishing the current op at a **sync API boundary**:
/// mints a fresh id if the thread has none (bare sync call), inherits
/// the existing one otherwise (op minted upstream, e.g. by the async
/// front door). Dropping the scope restores the previous state.
///
/// Created by `lf_metrics::op_begin` for every structure op, so sync
/// callers get causal attribution without touching this crate.
#[derive(Debug)]
pub struct OpScope {
    /// Whether this scope minted the id (and thus owns its Complete).
    minted: bool,
    /// Whether the scope is live at all (tracing was enabled).
    active: bool,
}

impl OpScope {
    /// Emit [`Phase::Complete`] if this scope minted the op id. Call
    /// at the op's end (e.g. from `lf_metrics::op_end`); the id the
    /// scope set is cleared on drop either way.
    pub fn finish(&self) {
        if self.active && self.minted {
            emit_aux(Phase::Complete, 0);
        }
    }
}

impl Drop for OpScope {
    fn drop(&mut self) {
        if self.active && self.minted {
            CUR_OP.with(|c| c.set(0));
        }
    }
}

/// Open an [`OpScope`] at a sync API boundary (see its docs).
#[inline]
#[must_use = "the scope clears the op context on drop"]
pub fn op_scope() -> OpScope {
    if !is_enabled() {
        return OpScope {
            minted: false,
            active: false,
        };
    }
    let minted = CUR_OP.with(|c| {
        if c.get() != 0 {
            false
        } else {
            // ord: Relaxed — TRACE.seq: id tickets / capacity hint need only RMW atomicity
            c.set(NEXT_OP.fetch_add(1, Ordering::Relaxed) + 1);
            true
        }
    });
    OpScope {
        minted,
        active: true,
    }
}

/// RAII guard adopting an externally minted [`OpId`] on the calling
/// thread — the worker-side half of the propagation rule: a lane
/// worker that dequeues a request re-establishes the request's id
/// *before* any structure access, so the `lf-core` hooks attribute
/// their events to the submitting task's op, not to the worker.
#[derive(Debug)]
pub struct OpGuard {
    prev: OpId,
    active: bool,
}

impl Drop for OpGuard {
    fn drop(&mut self) {
        if self.active {
            CUR_OP.with(|c| c.set(self.prev));
        }
    }
}

/// Adopt `op` as the calling thread's current op (no-op for `op == 0`).
#[inline]
#[must_use = "the guard restores the previous op context on drop"]
pub fn enter_op(op: OpId) -> OpGuard {
    if op == 0 {
        return OpGuard {
            prev: 0,
            active: false,
        };
    }
    let prev = CUR_OP.with(|c| c.replace(op));
    OpGuard { prev, active: true }
}

/// RAII guard tagging events with the shard an op was routed to.
#[derive(Debug)]
pub struct ShardGuard {
    prev: u16,
    active: bool,
}

impl Drop for ShardGuard {
    fn drop(&mut self) {
        if self.active {
            CUR_SHARD.with(|c| c.set(self.prev));
        }
    }
}

/// Tag subsequent events on this thread with `shard` (cheap: two
/// thread-local cell writes; skipped entirely while tracing is
/// disabled).
#[inline]
#[must_use = "the guard restores the previous shard tag on drop"]
pub fn shard_scope(shard: u16) -> ShardGuard {
    if !is_enabled() {
        return ShardGuard {
            prev: NO_SHARD,
            active: false,
        };
    }
    let prev = CUR_SHARD.with(|c| c.replace(shard));
    ShardGuard { prev, active: true }
}

/// Declare the calling thread a submission-lane worker: every event it
/// records is tagged with `lane`. Sticky for the thread's lifetime
/// (workers are long-lived and serve exactly one lane).
pub fn set_thread_lane(lane: u8) {
    CUR_LANE.with(|c| c.set(lane));
}

/// Record `phase` for the current thread context (op/shard/lane from
/// TLS). One relaxed load and a branch when tracing is disabled.
#[inline]
pub fn emit(phase: Phase) {
    emit_aux(phase, 0);
}

/// [`emit`] with a phase-specific argument.
#[inline]
pub fn emit_aux(phase: Phase, aux: u32) {
    if !is_enabled() {
        return;
    }
    record_current(phase, aux);
}

/// Record `phase` for an explicit op (the async submit/complete path,
/// where the op id lives in the cell rather than in TLS).
#[inline]
pub fn emit_for(op: OpId, phase: Phase, aux: u32) {
    if !is_enabled() {
        return;
    }
    let (shard, lane) = (CUR_SHARD.with(Cell::get), CUR_LANE.with(Cell::get));
    record(op, phase, shard, lane, aux);
}

#[cold]
fn record_current(phase: Phase, aux: u32) {
    let op = CUR_OP.with(Cell::get);
    let (shard, lane) = (CUR_SHARD.with(Cell::get), CUR_LANE.with(Cell::get));
    record(op, phase, shard, lane, aux);
}

fn record(op: OpId, phase: Phase, shard: u16, lane: u8, aux: u32) {
    // ord: Relaxed — TRACE.seq: id tickets / capacity hint need only RMW atomicity
    let seq = SEQ.fetch_add(1, Ordering::Relaxed) + 1;
    let meta = Event::pack_meta(phase, shard, lane, aux);
    ring::with_local(|r| r.push(seq, op, meta));
}

/// Merge every thread's ring into one seq-ordered timeline of the
/// events since the last [`clear`]. Safe to call while writers run
/// (events mid-overwrite are skipped, never torn); per thread the
/// result is program order, across threads it is stamp-allocation
/// order.
pub fn snapshot() -> Vec<Event> {
    // ord: Relaxed — TRACE.seq: id tickets / capacity hint need only RMW atomicity
    ring::snapshot_rings(FLOOR.load(Ordering::Relaxed))
}

/// Logically discard all recorded events: later [`snapshot`]s only see
/// events recorded after this call. (The rings are not touched — a
/// concurrent writer cannot be raced safely — the floor just moves.)
pub fn clear() {
    // ord: Relaxed — TRACE.seq: id tickets / capacity hint need only RMW atomicity
    FLOOR.store(SEQ.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// The current global sequence stamp — a horizon marker: events
/// recorded after this call have `seq >` the returned value.
pub fn horizon() -> u64 {
    // ord: Relaxed — TRACE.seq: id tickets / capacity hint need only RMW atomicity
    SEQ.load(Ordering::Relaxed)
}

// ---------------------------------------------------------------------
// Progress counters (fed by lf-reclaim; sampled by the watchdog).
// Unconditional — the watchdog must see reclamation progress even with
// event tracing disabled — but retire/advance are off the per-op hot
// path (once per freed node / once per epoch), so a relaxed fetch_add
// is immaterial.

/// Global count of epoch advances (reclamation progress signal).
static EPOCH_ADVANCES: AtomicU64 = AtomicU64::new(0);
/// Global count of retired nodes (reclamation *pressure* signal).
static RETIRES: AtomicU64 = AtomicU64::new(0);

/// Note one global epoch advance (called by `lf-reclaim`); also emits
/// [`Phase::EpochAdvance`] when tracing is enabled.
#[inline]
pub fn note_epoch_advance() {
    // ord: Relaxed — TRACE.epoch: monotone progress counters, watchdog samples racy-fresh
    EPOCH_ADVANCES.fetch_add(1, Ordering::Relaxed);
    emit(Phase::EpochAdvance);
}

/// Note one retired node (called by `lf-reclaim`); also emits
/// [`Phase::Retire`] when tracing is enabled.
#[inline]
pub fn note_retire() {
    // ord: Relaxed — TRACE.epoch: monotone progress counters, watchdog samples racy-fresh
    RETIRES.fetch_add(1, Ordering::Relaxed);
    emit(Phase::Retire);
}

/// Cumulative epoch advances (watchdog sampling).
pub fn epoch_advances() -> u64 {
    // ord: Relaxed — TRACE.epoch: monotone progress counters, watchdog samples racy-fresh
    EPOCH_ADVANCES.load(Ordering::Relaxed)
}

/// Cumulative retired nodes (watchdog sampling).
pub fn retires() -> u64 {
    // ord: Relaxed — TRACE.epoch: monotone progress counters, watchdog samples racy-fresh
    RETIRES.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    // Trace state is process-global; serialize tests touching it.
    pub(crate) static TEST_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn disabled_emits_nothing_and_mints_zero() {
        let _g = TEST_LOCK.lock().unwrap();
        disable();
        clear();
        assert_eq!(mint_op(), 0);
        emit(Phase::Search);
        let s = op_scope();
        s.finish();
        drop(s);
        assert!(snapshot().is_empty());
    }

    #[test]
    fn sync_scope_mints_attributes_and_completes() {
        let _g = TEST_LOCK.lock().unwrap();
        clear();
        enable();
        let scope = op_scope();
        let id = current_op();
        assert_ne!(id, 0);
        emit(Phase::Search);
        emit_aux(Phase::CasFail, 1);
        scope.finish();
        drop(scope);
        assert_eq!(current_op(), 0);
        disable();
        let tid = current_thread_id();
        let evs: Vec<Event> = snapshot()
            .into_iter()
            .filter(|e| e.thread == tid && e.op == id)
            .collect();
        let phases: Vec<Phase> = evs.iter().map(|e| e.phase).collect();
        assert_eq!(phases, [Phase::Search, Phase::CasFail, Phase::Complete]);
        assert_eq!(evs[1].aux, 1);
    }

    #[test]
    fn inner_scope_inherits_outer_op() {
        let _g = TEST_LOCK.lock().unwrap();
        clear();
        enable();
        let outer = op_scope();
        let id = current_op();
        {
            let inner = op_scope();
            assert_eq!(current_op(), id, "inner boundary must inherit");
            inner.finish(); // not minted: must NOT emit Complete
        }
        outer.finish();
        drop(outer);
        disable();
        let completes = snapshot()
            .iter()
            .filter(|e| e.op == id && e.phase == Phase::Complete)
            .count();
        assert_eq!(completes, 1, "only the minting scope completes");
    }

    #[test]
    fn enter_op_adopts_and_restores() {
        let _g = TEST_LOCK.lock().unwrap();
        clear();
        enable();
        let id = mint_op();
        {
            let _g2 = enter_op(id);
            assert_eq!(current_op(), id);
            emit(Phase::Dequeue);
        }
        assert_eq!(current_op(), 0);
        disable();
        let evs = snapshot();
        assert!(evs.iter().any(|e| e.op == id && e.phase == Phase::Dequeue));
    }

    #[test]
    fn shard_and_lane_tags_ride_on_events() {
        let _g = TEST_LOCK.lock().unwrap();
        clear();
        enable();
        let done: u64 = std::thread::spawn(|| {
            set_thread_lane(3);
            let _s = shard_scope(7);
            let _o = enter_op(mint_op());
            emit_aux(Phase::Enqueue, 42);
            current_op()
        })
        .join()
        .unwrap();
        disable();
        let ev = snapshot()
            .into_iter()
            .find(|e| e.op == done)
            .expect("event recorded");
        assert_eq!(ev.shard, 7);
        assert_eq!(ev.lane, 3);
        assert_eq!(ev.aux, 42);
        assert_eq!(ev.phase, Phase::Enqueue);
    }

    #[test]
    fn snapshot_is_seq_sorted_and_clear_moves_floor() {
        let _g = TEST_LOCK.lock().unwrap();
        clear();
        enable();
        std::thread::scope(|s| {
            for _ in 0..3 {
                s.spawn(|| {
                    for _ in 0..50 {
                        emit(Phase::Search);
                    }
                });
            }
        });
        let evs = snapshot();
        assert!(evs.len() >= 150);
        assert!(evs.windows(2).all(|w| w[0].seq < w[1].seq));
        clear();
        assert!(snapshot().is_empty());
        emit(Phase::Help);
        disable();
        assert_eq!(snapshot().len(), 1);
    }

    #[test]
    fn ring_keeps_newest_events() {
        let _g = TEST_LOCK.lock().unwrap();
        clear();
        set_ring_capacity(8);
        enable();
        let tid = std::thread::spawn(|| {
            for i in 0..20 {
                emit_aux(Phase::CasFail, i);
            }
            current_thread_id()
        })
        .join()
        .unwrap();
        disable();
        set_ring_capacity(4096);
        let evs: Vec<Event> = snapshot().into_iter().filter(|e| e.thread == tid).collect();
        assert_eq!(evs.len(), 8, "ring caps retained events");
        let auxs: Vec<u32> = evs.iter().map(|e| e.aux).collect();
        assert_eq!(auxs, [12, 13, 14, 15, 16, 17, 18, 19], "newest survive");
    }

    #[test]
    fn phase_labels_roundtrip() {
        for p in Phase::ALL {
            assert_eq!(Phase::from_label(p.label()), Some(p));
        }
        assert_eq!(Phase::from_label("nonsense"), None);
    }

    #[test]
    fn progress_counters_are_monotone() {
        let before = (epoch_advances(), retires());
        note_epoch_advance();
        note_retire();
        assert!(epoch_advances() > before.0);
        assert!(retires() > before.1);
    }
}
