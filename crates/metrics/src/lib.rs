//! Essential-step accounting.
//!
//! The amortized analysis in Fomitchev & Ruppert §3.4 counts exactly four
//! kinds of *essential steps*:
//!
//! 1. **C&S attempts**, split by the four CAS types of Def. 4 —
//!    insertion, flagging, marking, physical deletion — and by outcome;
//! 2. **backlink traversals** (`TryFlag` line 10, `Insert` line 18);
//! 3. **`next_node` pointer updates** (`SearchFrom` line 6);
//! 4. **`curr_node` pointer updates** (`SearchFrom` line 8).
//!
//! "Counting these steps gives an accurate picture of the required time
//! (up to a constant factor)". The instrumented list and skip list call
//! the `record_*` functions here at each such step; experiment harnesses
//! take [`snapshot`]s around measurement phases and difference them to
//! validate the `O(n(S) + c(S))` bound empirically.
//!
//! Counters live in per-thread *shards*: the owning thread increments
//! them with relaxed load+store (plain moves on x86, ~1 ns, so
//! instrumentation does not distort throughput measurements), and every
//! shard is registered in a process-wide registry. [`snapshot`] sums
//! the retired aggregate plus every live shard, so counts are visible
//! with **no explicit flush**; join the worker threads (most simply via
//! [`Registry::join_and_snapshot`]) to make a closing snapshot exact
//! rather than merely racy-fresh.
//!
//! # Telemetry
//!
//! Beyond scalar totals, the crate records per-operation
//! *distributions* into log-bucketed [`Histogram`]s (~2 significant
//! figures over the full `u64` range, see [`histogram`]'s layout):
//!
//! * **op latency** in nanoseconds — sampled one op in sixteen per
//!   thread, because even a TSC read is material next to a ~500 ns
//!   list operation (see [`op_begin`]); the other three are exact;
//! * **CAS retries per op** — the empirical `c(S)` contention term of
//!   the paper's `O(n(S) + c(S))` bound;
//! * **backlink chain length per op** — how far a single operation was
//!   pushed back by concurrent deletions;
//! * **search hops per op** (`curr_node` updates) — the empirical
//!   `n(S)` distance term.
//!
//! Capture is at *operation boundaries* ([`op_begin`] / [`op_end`]),
//! never inside CAS loops: the token differences the thread-local step
//! counters around the op, so the hot paths still execute only plain
//! thread-local increments. Per-thread histograms live in the same
//! registered shards as the scalars; [`telemetry`] sums them into a
//! [`Telemetry`] snapshot. Runtime kill-switch:
//! [`set_histograms_enabled`].
//!
//! The [`export`] module renders snapshots as JSON lines or Prometheus
//! text exposition. Event tracing is `lf-trace`'s: the `record_*` and
//! op-boundary hooks here feed its causal tracer.
//!
//! # Examples
//!
//! ```
//! use lf_metrics as metrics;
//!
//! let before = metrics::snapshot();
//! metrics::record_cas(metrics::CasType::Insert, true);
//! metrics::record_curr_update();
//! let delta = metrics::snapshot() - before;
//! assert_eq!(delta.cas_attempts(), 1);
//! assert_eq!(delta.curr_updates, 1);
//! assert_eq!(delta.essential_steps(), 2);
//! ```

mod clock;
pub mod export;
pub mod gauge;
pub mod histogram;
pub mod tally;

pub use gauge::{UnreclaimedGauge, UnreclaimedSnapshot};
pub use histogram::{AtomicHistogram, Histogram};
pub use tally::{PartitionSnapshot, PartitionTally, StepDist, TallySnapshot, TallyWriter};

use std::fmt;
use std::ops::Sub;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

/// The four CAS types of the paper's Def. 4.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum CasType {
    /// Type 1: inserting a new node (`Insert` line 11).
    Insert = 0,
    /// Type 2: flagging a predecessor (`TryFlag` line 4).
    Flag = 1,
    /// Type 3: marking a node (`TryMark` line 3).
    Mark = 2,
    /// Type 4: physical deletion / unflag (`HelpMarked` line 2).
    Unlink = 3,
}

impl CasType {
    /// All four types, in discriminant order.
    pub const ALL: [CasType; 4] = [
        CasType::Insert,
        CasType::Flag,
        CasType::Mark,
        CasType::Unlink,
    ];

    /// Short lowercase label for tables.
    pub fn label(self) -> &'static str {
        match self {
            CasType::Insert => "insert",
            CasType::Flag => "flag",
            CasType::Mark => "mark",
            CasType::Unlink => "unlink",
        }
    }
}

impl fmt::Display for CasType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The per-operation distributions the telemetry layer tracks.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Metric {
    /// Wall-clock latency of one dictionary operation, nanoseconds.
    OpLatencyNs = 0,
    /// Failed CAS attempts within one operation — empirical `c(S)`.
    CasRetries = 1,
    /// Backlink traversals within one operation.
    BacklinkChain = 2,
    /// `curr_node` updates (search hops) within one operation —
    /// empirical `n(S)`.
    SearchHops = 3,
}

impl Metric {
    /// All metrics, in discriminant order.
    pub const ALL: [Metric; 4] = [
        Metric::OpLatencyNs,
        Metric::CasRetries,
        Metric::BacklinkChain,
        Metric::SearchHops,
    ];

    /// Snake-case label used by the exporters.
    pub fn label(self) -> &'static str {
        match self {
            Metric::OpLatencyNs => "op_latency_ns",
            Metric::CasRetries => "cas_retries",
            Metric::BacklinkChain => "backlink_chain",
            Metric::SearchHops => "search_hops",
        }
    }
}

impl fmt::Display for Metric {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Which dictionary structure an operation ran against.
///
/// Mixed deployments (a bucketed hash map and a skip-list map sharing
/// one process) record into the same global telemetry; the structure
/// label keeps their op counts and latency distributions from aliasing.
/// [`op_begin`] is the structure-blind legacy entry point and credits
/// [`Structure::List`]; structures that know better call
/// [`op_begin_for`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Structure {
    /// The FR linked list (also the default for `op_begin`).
    List = 0,
    /// The FR skip list (including its `lf-shard` composition).
    SkipList = 1,
    /// The bucketed hash map (`lf-map`).
    Map = 2,
}

impl Structure {
    /// All structures, in discriminant order.
    pub const ALL: [Structure; 3] = [Structure::List, Structure::SkipList, Structure::Map];

    /// Snake-case label used by the exporters.
    pub fn label(self) -> &'static str {
        match self {
            Structure::List => "list",
            Structure::SkipList => "skiplist",
            Structure::Map => "map",
        }
    }
}

impl fmt::Display for Structure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Histogram slots per shard: one per [`Metric`] (aggregate), then one
/// latency histogram per [`Structure`] (indexed `4 + structure`).
const HIST_SLOTS: usize = Metric::ALL.len() + Structure::ALL.len();

/// Owner-only add: load+store instead of `fetch_add`, because the
/// cell's owner (a thread for its [`Shard`], a handle for its
/// [`TallyWriter`] block) is the sole writer.
#[inline]
fn owner_add(cell: &AtomicU64, n: u64) {
    // ord: Relaxed — MET.shard: single-writer counter, snapshots racy-fresh
    cell.store(cell.load(Ordering::Relaxed) + n, Ordering::Relaxed);
}

/// One thread's counter shard.
///
/// The owning thread is the only writer and bumps each counter with a
/// relaxed load+store ([`Shard::bump`]) — no atomic RMW on the hot
/// path, so an increment compiles to plain moves. Readers walk the
/// shard registry and load Relaxed: racy-but-monotone while the owner
/// is running, exact once the owner has been joined (the join's
/// happens-before edge publishes every prior store).
///
/// Cache-line aligned: each shard is its own heap allocation, but
/// without the alignment the allocator is free to start one thread's
/// shard on the same 64-byte line where another's ends — false sharing
/// between the two hottest write paths in the process. The alignment
/// also keeps the leading counters (`cas_ok`) from straddling a line.
#[repr(align(64))]
struct Shard {
    counts: Counts,
    /// Owner-only baselines from the previous [`op_end`], so per-op
    /// deltas need no counter reads at [`op_begin`]. Not counts — never
    /// folded or summed.
    last_cas_fail: AtomicU64,
    last_backlink: AtomicU64,
    last_curr: AtomicU64,
    /// Lazily allocated once the thread records its first op while
    /// histograms are enabled: the four [`Metric`] aggregates followed
    /// by one latency histogram per [`Structure`] (see [`HIST_SLOTS`]).
    hist: OnceLock<Box<[AtomicHistogram; HIST_SLOTS]>>,
}

/// The count cells a thread's [`Shard`] and the retired aggregate
/// ([`GLOBAL`]) both hold — one field per [`Snapshot`] field — so
/// folding, resetting and summing walk them pairwise.
struct Counts {
    cas_ok: [AtomicU64; 4],
    cas_fail: [AtomicU64; 4],
    backlink_traversals: AtomicU64,
    next_updates: AtomicU64,
    curr_updates: AtomicU64,
    try_read_restarts: AtomicU64,
    try_read_fallbacks: AtomicU64,
    ops: AtomicU64,
    /// Completed operations attributed per [`Structure`] by
    /// [`op_begin_for`]. Bare [`record_op`] calls are structure-blind,
    /// so the per-structure counts sum to at most `ops`.
    ops_by: [AtomicU64; 3],
}

impl Counts {
    const fn new() -> Self {
        Counts {
            cas_ok: [const { AtomicU64::new(0) }; 4],
            cas_fail: [const { AtomicU64::new(0) }; 4],
            backlink_traversals: AtomicU64::new(0),
            next_updates: AtomicU64::new(0),
            curr_updates: AtomicU64::new(0),
            try_read_restarts: AtomicU64::new(0),
            try_read_fallbacks: AtomicU64::new(0),
            ops: AtomicU64::new(0),
            ops_by: [const { AtomicU64::new(0) }; 3],
        }
    }

    /// Every cell, in the order of [`Snapshot::cells_mut`].
    fn cells(&self) -> impl Iterator<Item = &AtomicU64> {
        let singles = [
            &self.backlink_traversals,
            &self.next_updates,
            &self.curr_updates,
            &self.try_read_restarts,
            &self.try_read_fallbacks,
            &self.ops,
        ];
        (self.cas_ok.iter().chain(&self.cas_fail))
            .chain(singles)
            .chain(&self.ops_by)
    }
}

impl Shard {
    fn new() -> Self {
        Shard {
            counts: Counts::new(),
            last_cas_fail: AtomicU64::new(0),
            last_backlink: AtomicU64::new(0),
            last_curr: AtomicU64::new(0),
            hist: OnceLock::new(),
        }
    }

    /// The per-op baselines (tracking the counters, not totals).
    fn baselines(&self) -> [&AtomicU64; 3] {
        [&self.last_cas_fail, &self.last_backlink, &self.last_curr]
    }

    /// Owner-only increment; see [`owner_add`].
    #[inline]
    fn bump(cell: &AtomicU64) {
        owner_add(cell, 1);
    }

    fn cas_failures(&self) -> u64 {
        // ord: Relaxed — MET.shard: single-writer counter, snapshots racy-fresh
        self.counts
            .cas_fail
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .sum()
    }

    fn hists(&self) -> &[AtomicHistogram; HIST_SLOTS] {
        self.hist
            .get_or_init(|| Box::new(std::array::from_fn(|_| AtomicHistogram::new())))
    }

    fn hist_record_op(&self, structure: Structure, latency_ns: Option<u64>, steps: OpSteps) {
        let h = self.hists();
        if let Some(ns) = latency_ns {
            h[Metric::OpLatencyNs as usize].record_owner(ns);
            h[Metric::ALL.len() + structure as usize].record_owner(ns);
        }
        h[Metric::CasRetries as usize].record_owner(steps.cas_retries);
        h[Metric::BacklinkChain as usize].record_owner(steps.backlinks);
        h[Metric::SearchHops as usize].record_owner(steps.hops);
    }
}

/// Every live thread's shard. Readers hold the lock while summing and
/// a retiring thread holds it while folding its counts into the
/// retired aggregate, so each count is observed exactly once.
static SHARDS: Mutex<Vec<Arc<Shard>>> = Mutex::new(Vec::new());

fn shards() -> MutexGuard<'static, Vec<Arc<Shard>>> {
    // Critical sections are short and the only panics possible there
    // are allocation failures; recover from poisoning rather than
    // cascading it through every later snapshot.
    SHARDS.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Fold `shard` into the retired aggregate and zero it.
///
/// Caller must hold the registry lock so the move is invisible to
/// concurrent snapshots (which also hold it).
fn fold_into_retired(shard: &Shard) {
    for (retired, live) in GLOBAL.cells().zip(shard.counts.cells()) {
        // ord: Relaxed — MET.shard: single-writer counter, snapshots racy-fresh
        retired.fetch_add(live.swap(0, Ordering::Relaxed), Ordering::Relaxed);
    }
    // The per-op baselines track the (now zeroed) counters, not totals.
    for baseline in shard.baselines() {
        // ord: Relaxed — MET.shard: single-writer counter, snapshots racy-fresh
        baseline.store(0, Ordering::Relaxed);
    }
    if let Some(h) = shard.hist.get() {
        let g = global_hist();
        for (dst, src) in g.iter().zip(h.iter()) {
            dst.absorb(src);
        }
    }
}

/// Deregisters and retires the thread's shard when the thread exits.
/// Snapshots do not depend on this timing — a shard is readable from
/// the registry for as long as it is live — it only keeps the registry
/// from accumulating dead shards.
struct RetireOnExit(Arc<Shard>);

impl Drop for RetireOnExit {
    fn drop(&mut self) {
        let mut reg = shards();
        reg.retain(|s| !Arc::ptr_eq(s, &self.0));
        fold_into_retired(&self.0);
    }
}

thread_local! {
    static LOCAL: RetireOnExit = RetireOnExit({
        let shard = Arc::new(Shard::new());
        shards().push(shard.clone());
        shard
    });
}

/// The retired aggregate: counts folded out of exited (or flushed)
/// threads' shards.
static GLOBAL: Counts = Counts::new();

static HIST_ENABLED: AtomicBool = AtomicBool::new(true);

/// Runtime kill-switch for histogram capture ([`op_begin`] /
/// [`op_end`]). Scalar counters are unaffected. Enabled by default.
pub fn set_histograms_enabled(on: bool) {
    // ord: Relaxed — MET.toggle: advisory kill-switch, no data guarded
    HIST_ENABLED.store(on, Ordering::Relaxed);
}

/// Whether histogram capture is currently enabled.
pub fn histograms_enabled() -> bool {
    // ord: Relaxed — MET.toggle: advisory kill-switch, no data guarded
    HIST_ENABLED.load(Ordering::Relaxed)
}

static GLOBAL_HIST: OnceLock<[AtomicHistogram; HIST_SLOTS]> = OnceLock::new();

fn global_hist() -> &'static [AtomicHistogram; HIST_SLOTS] {
    GLOBAL_HIST.get_or_init(|| std::array::from_fn(|_| AtomicHistogram::new()))
}

#[inline]
fn with_local(f: impl FnOnce(&Shard)) {
    // Accessing a thread-local during its own destruction fails;
    // metrics are best-effort, so silently drop those increments.
    let _ = LOCAL.try_with(|l| f(&l.0));
}

/// Record one C&S attempt of the given type and outcome.
///
/// Besides the counter, this is a causal-trace hook: failures emit
/// [`lf_trace::Phase::CasFail`] (with the CAS type as `aux`), and the
/// three deletion-protocol successes emit their phase — `Flag`,
/// `Mark`, and `Unlink` as [`lf_trace::Phase::Help`] (physical
/// deletion is performed by whichever op helps the marked node out).
/// Insert successes emit nothing; the op's `complete` covers them.
#[inline]
pub fn record_cas(ty: CasType, success: bool) {
    if !success {
        lf_trace::emit_aux(lf_trace::Phase::CasFail, ty as u32);
    } else {
        match ty {
            CasType::Insert => {}
            CasType::Flag => lf_trace::emit(lf_trace::Phase::Flag),
            CasType::Mark => lf_trace::emit(lf_trace::Phase::Mark),
            CasType::Unlink => lf_trace::emit(lf_trace::Phase::Help),
        }
    }
    with_local(|l| {
        let slot = if success {
            &l.counts.cas_ok[ty as usize]
        } else {
            &l.counts.cas_fail[ty as usize]
        };
        Shard::bump(slot);
    });
}

/// Record one backlink pointer traversal. Also a causal-trace hook
/// ([`lf_trace::Phase::BacklinkWalk`]).
#[inline]
pub fn record_backlink() {
    lf_trace::emit(lf_trace::Phase::BacklinkWalk);
    with_local(|l| Shard::bump(&l.counts.backlink_traversals));
}

/// Record one `next_node` pointer update (`SearchFrom` line 6).
#[inline]
pub fn record_next_update() {
    with_local(|l| Shard::bump(&l.counts.next_updates));
}

/// Record one `curr_node` pointer update (`SearchFrom` line 8).
#[inline]
pub fn record_curr_update() {
    with_local(|l| Shard::bump(&l.counts.curr_updates));
}

/// Record one pin-free `try_read` restart: a birth-stamp validation
/// failed (torn or re-tenanted observation) and the optimistic read
/// started over.
#[inline]
pub fn record_try_read_restart() {
    with_local(|l| Shard::bump(&l.counts.try_read_restarts));
}

/// Record one pin-free `try_read` giving up and falling back to the
/// pinned read path (restart budget exhausted).
#[inline]
pub fn record_try_read_fallback() {
    with_local(|l| Shard::bump(&l.counts.try_read_fallbacks));
}

/// Record one completed dictionary operation (for per-op averages).
#[inline]
pub fn record_op() {
    with_local(|l| Shard::bump(&l.counts.ops));
}

/// Latency is clocked on one op in this many (power of two, checked
/// via a per-thread sequence number): even the TSC costs ~15 ns per
/// read under a hypervisor, and two reads on every ~500 ns list
/// operation would bust the telemetry overhead budget on their own.
/// The counter-difference metrics (retries, backlinks, hops) are exact
/// on *every* op — sampling only thins the latency histogram, whose
/// percentiles are statistically indistinguishable at bench scales
/// (thousands of samples per second remain).
const LATENCY_SAMPLE_EVERY: u64 = 16;

thread_local! {
    /// Per-thread op sequence for latency sampling. Const-initialized
    /// `Cell` with no destructor: access compiles to a direct TLS
    /// load, so `op_begin` never touches the shard at all.
    static OP_SEQ: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Begin a per-operation telemetry capture.
///
/// Deliberately near-free: it checks the kill-switch, advances a
/// per-thread sequence number, and on one op in
/// `LATENCY_SAMPLE_EVERY` (16) reads the TSC-backed clock. All
/// counter attribution happens in [`op_end`], which differences the
/// shard's step counters against baselines remembered from the
/// previous `op_end` — operations are bracketed back-to-back, so the
/// delta is this op's (steps recorded outside any bracket are credited
/// to the following op). The lock-free hot loops between the two calls
/// still execute nothing but their ordinary shard increments. When
/// histograms are disabled the token is inert and `op_end` degenerates
/// to [`record_op`].
#[inline]
#[must_use = "pass the token to op_end to record the operation"]
pub fn op_begin() -> OpToken {
    op_begin_for(Structure::List)
}

/// [`op_begin`] with an explicit [`Structure`] attribution, so mixed
/// deployments (map + skip list in one process) keep separate op counts
/// and latency distributions. Same cost profile as [`op_begin`].
#[inline]
#[must_use = "pass the token to op_end to record the operation"]
pub fn op_begin_for(structure: Structure) -> OpToken {
    // Causal-trace boundary: mint-or-inherit the op's id (a bare sync
    // call mints here; an op minted upstream by the async front door
    // is inherited) and mark the traversal start. Independent of the
    // histogram kill-switch; both are relaxed-load-cheap when off.
    let trace = lf_trace::op_scope();
    lf_trace::emit(lf_trace::Phase::Search);
    if !histograms_enabled() {
        return OpToken {
            active: false,
            structure,
            start: None,
            trace,
        };
    }
    let start = OP_SEQ
        .try_with(|c| {
            let seq = c.get();
            c.set(seq.wrapping_add(1));
            (seq & (LATENCY_SAMPLE_EVERY - 1) == 0).then(clock::now_ticks)
        })
        .ok()
        .flatten();
    OpToken {
        active: true,
        structure,
        start,
        trace,
    }
}

/// The steps one bracketed operation took: the thread's step counters
/// differenced by [`op_end`] against the previous `op_end` on the
/// thread.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OpSteps {
    /// Search hops (`curr_node` updates) — the `n(S)` distance term.
    pub hops: u64,
    /// Failed C&S attempts of any [`CasType`] — the `c(S)` term.
    pub cas_retries: u64,
    /// Backlink traversals.
    pub backlinks: u64,
}

impl std::ops::Add for OpSteps {
    type Output = OpSteps;

    fn add(self, rhs: OpSteps) -> OpSteps {
        OpSteps {
            hops: self.hops + rhs.hops,
            cas_retries: self.cas_retries + rhs.cas_retries,
            backlinks: self.backlinks + rhs.backlinks,
        }
    }
}

/// Finish a per-operation telemetry capture started by [`op_begin`].
///
/// Records the op into the thread-local histograms and counts it
/// (callers must not additionally call [`record_op`]), and returns the
/// op's step delta so a partitioned structure can credit it to a
/// [`PartitionTally`] without reading the counters a second time
/// (zeroes during thread teardown, when the shard is gone).
#[inline]
pub fn op_end(token: OpToken) -> OpSteps {
    // Close the causal scope: emits `complete` iff this boundary
    // minted the id (an async-minted op completes at its front door).
    token.trace.finish();
    // `saturating_sub`: cross-core TSC skew of a few ticks must not
    // wrap into an astronomical latency.
    let latency_ns = token
        .start
        .map(|start| clock::ticks_to_ns(clock::now_ticks().saturating_sub(start)));
    let mut steps = OpSteps::default();
    with_local(|l| {
        Shard::bump(&l.counts.ops);
        Shard::bump(&l.counts.ops_by[token.structure as usize]);
        let cf = l.cas_failures();
        // ord: Relaxed — MET.shard: single-writer counter, snapshots racy-fresh
        let bl = l.counts.backlink_traversals.load(Ordering::Relaxed);
        // ord: Relaxed — MET.shard: single-writer counter, snapshots racy-fresh
        let cu = l.counts.curr_updates.load(Ordering::Relaxed);
        // `saturating_sub` guards against an explicit same-thread
        // `flush_local` between the two ends zeroing the counters (one
        // op's delta clips to zero, then the baselines re-sync).
        steps = OpSteps {
            // ord: Relaxed — MET.shard: single-writer counter, snapshots racy-fresh
            hops: cu.saturating_sub(l.last_curr.load(Ordering::Relaxed)),
            // ord: Relaxed — MET.shard: single-writer counter, snapshots racy-fresh
            cas_retries: cf.saturating_sub(l.last_cas_fail.load(Ordering::Relaxed)),
            // ord: Relaxed — MET.shard: single-writer counter, snapshots racy-fresh
            backlinks: bl.saturating_sub(l.last_backlink.load(Ordering::Relaxed)),
        };
        // ord: Relaxed — MET.shard: single-writer counter, snapshots racy-fresh
        l.last_cas_fail.store(cf, Ordering::Relaxed);
        // ord: Relaxed — MET.shard: single-writer counter, snapshots racy-fresh
        l.last_backlink.store(bl, Ordering::Relaxed);
        // ord: Relaxed — MET.shard: single-writer counter, snapshots racy-fresh
        l.last_curr.store(cu, Ordering::Relaxed);
        // The baselines advance even with the histograms switched off,
        // so the delta stays this op's across a toggle.
        if token.active {
            l.hist_record_op(token.structure, latency_ns, steps);
        }
    });
    steps
}

/// Opaque per-operation capture token; see [`op_begin`].
#[derive(Debug)]
pub struct OpToken {
    /// Whether histograms were enabled at `op_begin`.
    active: bool,
    /// Which structure the op runs against ([`op_begin_for`]).
    structure: Structure,
    /// TSC ticks at `op_begin` on latency-sampled ops, else `None`.
    start: Option<u64>,
    /// Causal-trace scope (op id lifetime); finished by [`op_end`].
    trace: lf_trace::OpScope,
}

/// Materialize the calling thread's shard and histogram storage
/// (~232 KiB) eagerly.
///
/// Benchmark workers call this before their start barrier so the first
/// recorded op doesn't pay registration, allocation, and page fault-in
/// inside a measured window.
pub fn prewarm() {
    with_local(|l| {
        let _ = l.hists();
    });
}

/// Fold this thread's counts into the retired aggregate immediately.
///
/// Rarely needed: [`snapshot`] and [`telemetry`] read live shards
/// directly, so counts are visible without flushing. Useful for a
/// long-lived daemon thread that wants to hand off its tallies.
pub fn flush_local() {
    let _ = LOCAL.try_with(|l| {
        let _reg = shards();
        fold_into_retired(&l.0);
    });
}

/// Reset every count to zero: the retired aggregate, the global
/// histograms, and all live thread shards.
///
/// A thread recording concurrently can reassert an in-flight
/// increment; reset while workers are quiescent.
pub fn reset() {
    let reg = shards();
    for shard in reg.iter() {
        for cell in shard.counts.cells().chain(shard.baselines()) {
            // ord: Relaxed — MET.shard: single-writer counter, snapshots racy-fresh
            cell.store(0, Ordering::Relaxed);
        }
        if let Some(hists) = shard.hist.get() {
            for h in hists.iter() {
                h.reset();
            }
        }
    }
    if let Some(global) = GLOBAL_HIST.get() {
        for g in global {
            g.reset();
        }
    }
    for cell in GLOBAL.cells() {
        // ord: Relaxed — MET.shard: single-writer counter, snapshots racy-fresh
        cell.store(0, Ordering::Relaxed);
    }
}

/// A point-in-time copy of the global aggregate. Difference two
/// snapshots (`after - before`) to measure a phase.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct Snapshot {
    /// Successful CAS count per [`CasType`].
    pub cas_ok: [u64; 4],
    /// Failed CAS count per [`CasType`].
    pub cas_fail: [u64; 4],
    /// Backlink pointer traversals.
    pub backlink_traversals: u64,
    /// `next_node` updates.
    pub next_updates: u64,
    /// `curr_node` updates.
    pub curr_updates: u64,
    /// Pin-free `try_read` restarts (failed birth-stamp validations).
    pub try_read_restarts: u64,
    /// Pin-free `try_read` ops that fell back to the pinned path.
    pub try_read_fallbacks: u64,
    /// Completed operations.
    pub ops: u64,
    /// Completed operations per [`Structure`], indexed by discriminant.
    /// Bare [`record_op`] calls are structure-blind, so these sum to at
    /// most `ops`.
    pub ops_by: [u64; 3],
}

impl Snapshot {
    /// Every field, in the order of [`Counts::cells`].
    fn cells_mut(&mut self) -> impl Iterator<Item = &mut u64> {
        let singles = [
            &mut self.backlink_traversals,
            &mut self.next_updates,
            &mut self.curr_updates,
            &mut self.try_read_restarts,
            &mut self.try_read_fallbacks,
            &mut self.ops,
        ];
        (self.cas_ok.iter_mut().chain(&mut self.cas_fail))
            .chain(singles)
            .chain(&mut self.ops_by)
    }

    /// Completed operations attributed to one [`Structure`].
    pub fn ops_for(&self, s: Structure) -> u64 {
        self.ops_by[s as usize]
    }
    /// Total CAS attempts (all types, both outcomes).
    pub fn cas_attempts(&self) -> u64 {
        self.cas_ok.iter().sum::<u64>() + self.cas_fail.iter().sum::<u64>()
    }

    /// Total successful CAS.
    pub fn cas_successes(&self) -> u64 {
        self.cas_ok.iter().sum()
    }

    /// Total failed CAS.
    pub fn cas_failures(&self) -> u64 {
        self.cas_fail.iter().sum()
    }

    /// The paper's essential-step total: CAS attempts + backlink
    /// traversals + `next_node` updates + `curr_node` updates.
    pub fn essential_steps(&self) -> u64 {
        self.cas_attempts() + self.backlink_traversals + self.next_updates + self.curr_updates
    }

    /// Essential steps per completed operation (0 if no ops recorded).
    pub fn steps_per_op(&self) -> f64 {
        if self.ops == 0 {
            0.0
        } else {
            self.essential_steps() as f64 / self.ops as f64
        }
    }
}

impl Sub for Snapshot {
    type Output = Snapshot;

    fn sub(mut self, mut rhs: Snapshot) -> Snapshot {
        for (l, r) in self.cells_mut().zip(rhs.cells_mut()) {
            *l = l.wrapping_sub(*r);
        }
        self
    }
}

impl fmt::Display for Snapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "steps/op={:.2} (ops={}, essential={})",
            self.steps_per_op(),
            self.ops,
            self.essential_steps()
        )?;
        for ty in CasType::ALL {
            writeln!(
                f,
                "  cas[{}]: ok={} fail={}",
                ty, self.cas_ok[ty as usize], self.cas_fail[ty as usize]
            )?;
        }
        writeln!(
            f,
            "  backlinks={} next_updates={} curr_updates={}",
            self.backlink_traversals, self.next_updates, self.curr_updates
        )?;
        writeln!(
            f,
            "  try_read: restarts={} fallbacks={}",
            self.try_read_restarts, self.try_read_fallbacks
        )?;
        write!(
            f,
            "  ops[list]={} ops[skiplist]={} ops[map]={}",
            self.ops_for(Structure::List),
            self.ops_for(Structure::SkipList),
            self.ops_for(Structure::Map)
        )
    }
}

/// Copy the current aggregate: the retired totals plus every live
/// thread's shard.
///
/// No flush is required — counts recorded by any thread are visible
/// here. Counts from a thread that is still running are racy-fresh;
/// they are exact once that thread has been joined.
pub fn snapshot() -> Snapshot {
    let reg = shards();
    snapshot_locked(&reg)
}

/// Sum the retired aggregate and the given live shards. Caller holds
/// the registry lock.
fn snapshot_locked(reg: &[Arc<Shard>]) -> Snapshot {
    let mut s = Snapshot::default();
    for counts in std::iter::once(&GLOBAL).chain(reg.iter().map(|shard| &shard.counts)) {
        for (sum, cell) in s.cells_mut().zip(counts.cells()) {
            // ord: Relaxed — MET.shard: single-writer counter, snapshots racy-fresh
            *sum += cell.load(Ordering::Relaxed);
        }
    }
    s
}

/// Scalar counters plus the four per-operation distributions, captured
/// together. Difference two (`after - before`) to isolate a phase.
#[derive(Clone, Debug)]
pub struct Telemetry {
    /// The essential-step scalar totals.
    pub counters: Snapshot,
    hists: [Histogram; HIST_SLOTS],
}

impl Default for Telemetry {
    fn default() -> Self {
        Telemetry {
            counters: Snapshot::default(),
            hists: std::array::from_fn(|_| Histogram::new()),
        }
    }
}

impl Telemetry {
    /// The distribution for one [`Metric`].
    pub fn histogram(&self, m: Metric) -> &Histogram {
        &self.hists[m as usize]
    }

    /// Per-op latency distribution for one [`Structure`], nanoseconds.
    ///
    /// The aggregate [`Telemetry::op_latency_ns`] sums every structure;
    /// this view is what keeps a map's ~O(1) point ops from being
    /// averaged into a skip list's O(log n) latencies in mixed
    /// deployments.
    pub fn structure_latency_ns(&self, s: Structure) -> &Histogram {
        &self.hists[Metric::ALL.len() + s as usize]
    }

    /// Per-op latency distribution, nanoseconds.
    pub fn op_latency_ns(&self) -> &Histogram {
        self.histogram(Metric::OpLatencyNs)
    }

    /// Per-op failed-CAS distribution (empirical `c(S)`).
    pub fn cas_retries(&self) -> &Histogram {
        self.histogram(Metric::CasRetries)
    }

    /// Per-op backlink-chain-length distribution.
    pub fn backlink_chain(&self) -> &Histogram {
        self.histogram(Metric::BacklinkChain)
    }

    /// Per-op search-hop distribution (empirical `n(S)`).
    pub fn search_hops(&self) -> &Histogram {
        self.histogram(Metric::SearchHops)
    }
}

impl Sub for Telemetry {
    type Output = Telemetry;

    fn sub(self, rhs: Telemetry) -> Telemetry {
        let mut hists = self.hists;
        let mut rhs_hists = rhs.hists.into_iter();
        for h in hists.iter_mut() {
            let taken = std::mem::take(h);
            *h = taken - rhs_hists.next().expect("matching histogram slots");
        }
        Telemetry {
            counters: self.counters - rhs.counters,
            hists,
        }
    }
}

impl fmt::Display for Telemetry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.counters)?;
        for m in Metric::ALL {
            writeln!(f, "  {}: {}", m, self.histogram(m))?;
        }
        for s in Structure::ALL {
            writeln!(
                f,
                "  op_latency_ns[{}]: {}",
                s,
                self.structure_latency_ns(s)
            )?;
        }
        Ok(())
    }
}

/// Copy the current scalar aggregate and histograms.
///
/// Same visibility contract as [`snapshot`]: every thread's counts and
/// distributions are summed (retired aggregate plus live shards), with
/// no flush required. Prefer [`Registry::join_and_snapshot`] to bound
/// a measurement phase.
pub fn telemetry() -> Telemetry {
    let reg = shards();
    let counters = snapshot_locked(&reg);
    let g = global_hist();
    let mut hists: [Histogram; HIST_SLOTS] = std::array::from_fn(|i| g[i].load());
    for shard in reg.iter() {
        if let Some(h) = shard.hist.get() {
            for (dst, src) in hists.iter_mut().zip(h.iter()) {
                src.add_into(dst);
            }
        }
    }
    Telemetry { counters, hists }
}

/// Namespace for measurement-phase helpers over the process-global
/// metric state.
pub struct Registry;

impl Registry {
    /// Run `work` between two [`telemetry`] snapshots and return its
    /// result together with the phase delta.
    ///
    /// This fixes the flush-before-snapshot footgun. Worker counts
    /// used to become globally visible only when each worker's TLS
    /// destructor flushed them — and `std::thread::scope` can return
    /// *before* a joined worker's TLS destructors have run, silently
    /// dropping whole threads from a naive measurement. Snapshots now
    /// read every live shard straight from the registry, so nothing
    /// depends on destructor timing; `work` joining its workers (e.g.
    /// via [`std::thread::scope`]) establishes the happens-before edge
    /// that makes the closing snapshot exact rather than racy-fresh.
    ///
    /// # Examples
    ///
    /// ```
    /// use lf_metrics::{self as metrics, Registry};
    ///
    /// let (sum, tel) = Registry::join_and_snapshot(|| {
    ///     std::thread::scope(|s| {
    ///         let h = s.spawn(|| {
    ///             let t = metrics::op_begin();
    ///             metrics::record_cas(metrics::CasType::Insert, false);
    ///             metrics::op_end(t);
    ///             21 + 21
    ///         });
    ///         h.join().unwrap()
    ///     })
    /// });
    /// assert_eq!(sum, 42);
    /// assert_eq!(tel.counters.ops, 1);
    /// assert_eq!(tel.cas_retries().count(), 1);
    /// ```
    pub fn join_and_snapshot<R>(work: impl FnOnce() -> R) -> (R, Telemetry) {
        let before = telemetry();
        let result = work();
        (result, telemetry() - before)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Tests share global state; run with a lock so `cargo test` threads
    // don't interleave resets.
    use std::sync::Mutex;
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn shards_are_cache_line_aligned() {
        // No two threads' shards may share a 64-byte line.
        assert_eq!(std::mem::align_of::<Shard>(), 64);
        assert_eq!(std::mem::size_of::<Shard>() % 64, 0);
    }

    #[test]
    fn record_and_snapshot_roundtrip() {
        let _g = TEST_LOCK.lock().unwrap();
        let before = snapshot();
        record_cas(CasType::Insert, true);
        record_cas(CasType::Flag, false);
        record_cas(CasType::Mark, true);
        record_cas(CasType::Unlink, true);
        record_backlink();
        record_backlink();
        record_next_update();
        record_curr_update();
        record_op();
        let delta = snapshot() - before;
        assert_eq!(delta.cas_ok, [1, 0, 1, 1]);
        assert_eq!(delta.cas_fail, [0, 1, 0, 0]);
        assert_eq!(delta.backlink_traversals, 2);
        assert_eq!(delta.next_updates, 1);
        assert_eq!(delta.curr_updates, 1);
        assert_eq!(delta.ops, 1);
        assert_eq!(delta.cas_attempts(), 4);
        assert_eq!(delta.cas_successes(), 3);
        assert_eq!(delta.cas_failures(), 1);
        assert_eq!(delta.essential_steps(), 4 + 2 + 1 + 1);
        assert_eq!(delta.steps_per_op(), 8.0);
    }

    #[test]
    fn try_read_counters_roundtrip() {
        let _g = TEST_LOCK.lock().unwrap();
        let before = snapshot();
        record_try_read_restart();
        record_try_read_restart();
        record_try_read_restart();
        record_try_read_fallback();
        let delta = snapshot() - before;
        assert_eq!(delta.try_read_restarts, 3);
        assert_eq!(delta.try_read_fallbacks, 1);
        // Restarts are not essential steps of the paper's cost model.
        assert_eq!(delta.essential_steps(), 0);
        let shown = delta.to_string();
        assert!(
            shown.contains("try_read: restarts=3 fallbacks=1"),
            "{shown}"
        );
    }

    #[test]
    fn structure_attribution_separates_ops() {
        let _g = TEST_LOCK.lock().unwrap();
        let before = snapshot();
        op_end(op_begin_for(Structure::Map));
        op_end(op_begin_for(Structure::Map));
        op_end(op_begin_for(Structure::SkipList));
        op_end(op_begin()); // structure-blind default credits List
        let delta = snapshot() - before;
        assert_eq!(delta.ops, 4);
        assert_eq!(delta.ops_for(Structure::Map), 2);
        assert_eq!(delta.ops_for(Structure::SkipList), 1);
        assert_eq!(delta.ops_for(Structure::List), 1);
        let shown = delta.to_string();
        assert!(shown.contains("ops[map]=2"), "{shown}");
    }

    #[test]
    fn structure_latency_histograms_do_not_alias() {
        let _g = TEST_LOCK.lock().unwrap();
        let before = telemetry();
        // Latency is sampled 1-in-16 per thread; run enough ops that
        // every structure lands samples regardless of sequence phase.
        for _ in 0..64 {
            op_end(op_begin_for(Structure::Map));
        }
        let delta = telemetry() - before;
        assert_eq!(delta.counters.ops_for(Structure::Map), 64);
        assert!(delta.structure_latency_ns(Structure::Map).count() >= 1);
        assert_eq!(delta.structure_latency_ns(Structure::SkipList).count(), 0);
        // The aggregate histogram still sees the map's samples.
        assert_eq!(
            delta.op_latency_ns().count(),
            delta.structure_latency_ns(Structure::Map).count()
        );
    }

    #[test]
    fn worker_threads_flush_on_exit() {
        let _g = TEST_LOCK.lock().unwrap();
        let before = snapshot();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..100 {
                        record_backlink();
                    }
                });
            }
        });
        let delta = snapshot() - before;
        assert_eq!(delta.backlink_traversals, 400);
    }

    #[test]
    fn reset_zeroes_counts() {
        let _g = TEST_LOCK.lock().unwrap();
        record_op();
        reset();
        let s = snapshot();
        assert_eq!(s.ops, 0);
        assert_eq!(s.essential_steps(), 0);
    }

    #[test]
    fn steps_per_op_zero_ops() {
        assert_eq!(Snapshot::default().steps_per_op(), 0.0);
    }

    #[test]
    fn display_is_nonempty() {
        let s = Snapshot::default();
        assert!(format!("{s}").contains("steps/op"));
        assert_eq!(CasType::Unlink.to_string(), "unlink");
    }

    #[test]
    fn live_thread_counts_visible_without_flush_or_exit() {
        let _g = TEST_LOCK.lock().unwrap();
        let before = snapshot();
        let (ready_tx, ready_rx) = std::sync::mpsc::channel();
        let (done_tx, done_rx) = std::sync::mpsc::channel::<()>();
        let t = std::thread::spawn(move || {
            for _ in 0..25 {
                record_curr_update();
            }
            ready_tx.send(()).unwrap();
            // Stay alive — no flush, no exit — until the main thread
            // has snapshotted.
            done_rx.recv().unwrap();
        });
        ready_rx.recv().unwrap();
        // The channel handshake orders the stores before this load, so
        // the live shard must already show all 25.
        let delta = snapshot() - before;
        assert_eq!(delta.curr_updates, 25);
        done_tx.send(()).unwrap();
        t.join().unwrap();
    }

    #[test]
    fn explicit_flush_makes_counts_visible() {
        let _g = TEST_LOCK.lock().unwrap();
        let before = snapshot();
        let t = std::thread::spawn(|| {
            record_next_update();
            flush_local();
            // Keep the thread alive; flush already published the count.
            std::thread::sleep(std::time::Duration::from_millis(10));
        });
        // Wait for the flush (bounded spin).
        let mut delta = snapshot() - before;
        for _ in 0..1000 {
            if delta.next_updates == 1 {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
            delta = snapshot() - before;
        }
        assert_eq!(delta.next_updates, 1);
        t.join().unwrap();
    }
}
