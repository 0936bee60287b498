//! FTSS — static scheduling for fault tolerance and utility maximization
//! (paper §5.2, Fig. 8).
//!
//! FTSS is a list scheduler over the ready set. Each iteration:
//!
//! 1. **DetermineDropping** — every ready soft process `Pi` is tested by
//!    comparing two hypothetical schedules of the unscheduled soft
//!    processes: `Si′` (contains `Pi`) and `Si″` (treats `Pi` as dropped,
//!    stale coefficients propagating). If `U(Si′) ≤ U(Si″)`, `Pi` is
//!    dropped and its successors become ready.
//! 2. **GetSchedulable** — a ready process `Pi` "leads to a schedulable
//!    solution" if the schedule `SiH` — `Pi` followed by all unscheduled
//!    hard processes (every other soft dropped), at worst-case times plus
//!    the shared `k`-fault delay — meets every hard deadline.
//! 3. **ForcedDropping** — while nothing is schedulable and ready soft
//!    processes remain, the soft process whose dropping costs the least
//!    utility is dropped.
//! 4. **GetBestProcess** — among the schedulable candidates, the soft
//!    process with the highest [`crate::priority::mu_priority`] wins; if no soft candidate
//!    exists, the hard process with the earliest deadline is taken.
//! 5. **AddRecoverySlack** — a hard process is granted all `k`
//!    re-executions; a soft process is granted re-executions one by one
//!    while they keep the hard suffix schedulable *and* the re-executed
//!    completion still carries positive utility.
//!
//! The result is an f-schedule "generated for worst-case execution times,
//! while the utility is maximized for average execution times": all
//! schedulability tests use WCET + shared fault delay, all utility
//! estimates use AET.
//!
//! # Staged pipeline
//!
//! The scheduler is structured as an explicitly staged state machine so a
//! run can be paused, snapshotted, and resumed mid-schedule — the
//! foundation of incremental FTQS expansion (see [`crate::ftqs`]):
//!
//! * `AppModel` — immutable dense model tables (WCETs, deadlines,
//!   penalties, soft-successor lists), derived from the [`Application`]
//!   once per synthesis and shared read-only by every run, including
//!   parallel expansion workers.
//! * `CommittedPrefix` — everything one run has committed so far: the
//!   resolved/ready/dropped masks, the schedule entries and drops, the
//!   clocks, the fault accumulator, and the derived probe caches (EDF
//!   order, suffix slacks, hard-probe prefix tables). Each loop iteration
//!   is one *commit step* (`Scheduler::step`) that resolves at least one
//!   process; between steps the prefix is a complete, self-contained
//!   description of the paused run.
//! * `ProbeScratch` — per-probe transient buffers (generation-stamped
//!   marks, heaps, hypothetical stale coefficients). Never part of a
//!   snapshot: probes restore it to neutral before returning.
//!
//! `SynthesisScratch` owns one `CommittedPrefix` + `ProbeScratch` pair
//! and exposes `checkpoint()`/`restore()`: a checkpoint deep-copies the
//! committed prefix in O(prefix) into a reusable buffer, and a restore
//! copies it back, after which the run continues exactly as if it had
//! never been interrupted. FTQS expansion snapshots the parent context
//! once per expanded node and restores per pivot instead of re-deriving
//! the shared prefix for every sub-schedule; parallel expansion workers
//! each own a private `PrefixCursor` copy, so checkpoints never leak
//! across waves.
//!
//! # Performance
//!
//! FTSS is the synthesis inner loop — FTQS re-runs it once per tree-node
//! pivot position — so its hot paths are allocation-free and mostly
//! incremental:
//!
//! * The committed prefix's slack items live in a
//!   [`FaultDelayAccumulator`] instead of being cloned and re-sorted per
//!   probe.
//! * `SiH` schedulability probes collapse to integer comparisons against
//!   cached *suffix slacks*: the pending hard set's EDF order only changes
//!   when a hard process is committed, and a soft candidate's slack item
//!   carries no allowance, so `slack[r] = min_j (d_j − W_j − D_j(r))` is
//!   rebuilt at most once per commit and answers both soft-candidate
//!   probes (`start ≤ slack[k]`) and re-execution probes (`∀t: start +
//!   t·penalty ≤ slack[k−t]`, via the knapsack decomposition over one
//!   added item) in O(k).
//! * Hard-candidate probes exploit that every probe item carries the full
//!   `k` allowance: the shared delay folds to `max_t (t·p_max +
//!   D_C(k−t))` over the committed-only delay table. When the candidate
//!   has no pending hard successor it is a source of the pending-hard
//!   DAG whose removal cannot reorder the cached EDF walk, so the whole
//!   probe collapses to O(k): three comparisons against prefix/suffix
//!   minima of `d_j − W_j − D(M_j)` precomputed once per commit (see
//!   `Scheduler::hard_probe_cached`). Only candidates that gate other
//!   pending hard processes still walk the precedence heap.
//! * All hypothetical-schedule state (`Si′`/`Si″` soft placements and
//!   ready lists, probe membership marks, scratch stale coefficients)
//!   lives in a `ProbeScratch` of dense `NodeId`-indexed tables
//!   reused across iterations; per-call set membership uses generation
//!   stamps, so nothing is re-zeroed.
//! * `Si′`/`Si″` estimates track soft-subgraph readiness by indegree with
//!   per-candidate stale coefficients cached at readiness (they are
//!   constant within an estimate), and the MU priority reads dense model
//!   tables plus precomputed soft-successor lists.
//!
//! The straightforward implementation is preserved verbatim in
//! [`crate::oracle::ftss_reference`]; equivalence tests pin this optimized
//! scheduler to bit-identical output (`tests/equivalence.rs`).

use crate::fschedule::{FSchedule, ScheduleContext, ScheduleEntry, StaleAlpha, SweepScratch};
use crate::wcdelay::{worst_case_fault_delay, FaultDelayAccumulator, SlackItem};
use crate::{Application, SchedulingError, Time, UtilityFunction};
use ftqs_graph::NodeId;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Tuning knobs of the FTSS scheduler. The defaults reproduce the paper's
/// heuristic;
/// the switches exist for the ablation experiments in the bench crate.
#[derive(Debug, Clone, PartialEq)]
pub struct FtssConfig {
    /// Enable the `DetermineDropping` utility-driven dropping step.
    /// (Forced dropping for schedulability always stays on.)
    pub dropping: bool,
    /// Grant re-executions to soft processes (step 5). When off, soft
    /// processes are abandoned on their first fault.
    pub soft_reexecution: bool,
    /// Lookahead weight of the MU priority (see [`crate::priority`]).
    pub successor_weight: f64,
}

impl Default for FtssConfig {
    fn default() -> Self {
        FtssConfig {
            dropping: true,
            soft_reexecution: true,
            successor_weight: 0.5,
        }
    }
}

/// Immutable dense model tables of one [`Application`], indexed by node
/// index — the probe inner loops run thousands of times per synthesis and
/// must not chase `Application` payloads repeatedly.
///
/// Built once per synthesis call ([`AppModel::build`]) and shared
/// read-only by every FTSS run over the same application: the FTQS tree
/// builder derives it once and every pivot run (including parallel
/// expansion workers) borrows it, instead of re-deriving the tables per
/// sub-schedule.
///
/// The model *owns* its data — the application behind an `Arc`, the
/// utility functions cloned once at build — so it carries no lifetime and
/// can live in long-lived caches: a [`crate::PreparedApp`] holds one
/// model per distinct application and shares it read-only across worker
/// threads and requests ([`AppModel::build_shared`] skips even the
/// application clone for that path).
#[derive(Debug)]
pub(crate) struct AppModel {
    pub(crate) app: std::sync::Arc<Application>,
    k: usize,
    wcet_of: Vec<Time>,
    aet_of: Vec<Time>,
    penalty_of: Vec<Time>,
    /// Hard deadline per node; `Time::MAX` for soft nodes (never read).
    deadline_of: Vec<Time>,
    hard_of: Vec<bool>,
    /// Utility function per node (`None` for hard nodes).
    utility_of: Vec<Option<UtilityFunction>>,
    /// MU-priority density denominator per node (`max(aet, 1)` as f64).
    denom_of: Vec<f64>,
    /// All hard / soft process ids, in node-index order (the same order
    /// `app.hard_processes()` / `app.soft_processes()` yield).
    hards: Vec<NodeId>,
    softs: Vec<NodeId>,
    /// Soft successors per node, with their cached density denominators
    /// and AETs — hard successors never contribute to the MU lookahead
    /// term, so they are filtered out once instead of per evaluation.
    soft_succs: Vec<Vec<(NodeId, f64, Time)>>,
    /// Hard successors per node (the cached-order hard-probe fast path is
    /// only valid for candidates with no *pending* hard successor).
    hard_succs: Vec<Vec<NodeId>>,
}

impl AppModel {
    /// Derives the dense tables from `app`, cloning it behind a fresh
    /// `Arc` (one deep copy per synthesis call — negligible against the
    /// synthesis itself; cached callers use [`AppModel::build_shared`]).
    pub(crate) fn build(app: &Application) -> Self {
        AppModel::build_shared(std::sync::Arc::new(app.clone()))
    }

    /// Derives the dense tables from an already-shared application,
    /// without cloning it.
    pub(crate) fn build_shared(app: std::sync::Arc<Application>) -> Self {
        let n = app.len();
        let mut wcet_of = Vec::with_capacity(n);
        let mut aet_of = Vec::with_capacity(n);
        let mut penalty_of = Vec::with_capacity(n);
        let mut deadline_of = Vec::with_capacity(n);
        let mut hard_of = Vec::with_capacity(n);
        let mut hards = Vec::new();
        let mut softs = Vec::new();
        let mut utility_of = Vec::with_capacity(n);
        let mut denom_of = Vec::with_capacity(n);
        for node in app.processes() {
            let p = app.process(node);
            wcet_of.push(p.times().wcet());
            aet_of.push(p.times().aet());
            penalty_of.push(app.recovery_penalty(node));
            deadline_of.push(p.criticality().deadline().unwrap_or(Time::MAX));
            hard_of.push(p.is_hard());
            utility_of.push(p.criticality().utility().cloned());
            denom_of.push(p.times().aet().as_ms().max(1) as f64);
            if p.is_hard() {
                hards.push(node);
            } else {
                softs.push(node);
            }
        }
        let soft_succs = app
            .processes()
            .map(|node| {
                app.graph()
                    .successors(node)
                    .filter(|j| !hard_of[j.index()])
                    .map(|j| (j, denom_of[j.index()], aet_of[j.index()]))
                    .collect()
            })
            .collect();
        let hard_succs = app
            .processes()
            .map(|node| {
                app.graph()
                    .successors(node)
                    .filter(|j| hard_of[j.index()])
                    .collect()
            })
            .collect();
        let k = app.faults().k;
        AppModel {
            app,
            k,
            wcet_of,
            aet_of,
            penalty_of,
            deadline_of,
            hard_of,
            utility_of,
            denom_of,
            hards,
            softs,
            soft_succs,
            hard_succs,
        }
    }
}

/// The committed state of one (possibly paused) FTSS run: everything the
/// algorithm has decided so far plus the derived probe caches. Between
/// commit steps this is a complete description of the run — deep-copying
/// it ([`CommittedPrefix::copy_from`]) and later restoring it resumes the
/// schedule bit-identically.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct CommittedPrefix {
    /// Pending predecessors per node (only pending nodes count; stale for
    /// resolved nodes, which nothing reads).
    pending_preds: Vec<usize>,
    /// Scheduled or dropped (or pre-completed/dropped by the context).
    resolved: Vec<bool>,
    ready: Vec<bool>,
    /// Context drops + new static drops.
    dropped: Vec<bool>,
    entries: Vec<ScheduleEntry>,
    new_drops: Vec<NodeId>,
    alpha: StaleAlpha,
    avg_clock: Time,
    wcet_clock: Time,
    /// Committed slack items, in schedule order (cold paths only).
    slack_items: Vec<SlackItem>,
    /// The same items as an incremental multiset (hot-path probes).
    acc: FaultDelayAccumulator,
    /// Pending hard processes in EDF-with-precedence order. The pending
    /// hard set only shrinks when a hard process is *committed* (hard
    /// processes are never dropped), so this order is reused by every
    /// soft-candidate `SiH` probe in between — each probe becomes a linear
    /// walk instead of a heap rebuild.
    edf_cache: Vec<NodeId>,
    /// Position of each pending hard process within `edf_cache`
    /// (`u32::MAX` for absent nodes); valid with `hard_cache_valid`.
    edf_pos: Vec<u32>,
    edf_cache_valid: bool,
    /// Cached `slack[r] = min_j (d_j − W_j − D_j(r))` over the EDF suffix
    /// (ms, signed), for every remaining budget `r ≤ k`, where `D_j(r)` is
    /// the worst `r`-fault delay of the committed prefix plus the hard
    /// items up to `j`. Because the greedy knapsack optimum decomposes
    /// over one extra item — `delay(C ∪ {(p,a)}, k) = max_t (t·p +
    /// delay(C, k−t))` — both soft-candidate probes (`start ≤ slack[k]`)
    /// and re-execution-allowance probes (`∀t ≤ a: start + t·p ≤
    /// slack[k−t]`) become O(k) lookups. Invalidated whenever a process is
    /// committed (the prefix grows).
    slack_by_budget: Vec<i128>,
    soft_slack_valid: bool,
    /// Per-EDF-position `G_j = d_j − W_j − D(M_j)` (ms, signed), where
    /// `W_j` is the cumulative WCET of `edf_cache[0..=j]`, `M_j` its
    /// running maximum penalty, and `D(p) = max_t (t·p + D_C(k−t))` the
    /// folded delay over the committed-only table. Together with the
    /// prefix/suffix minima below this answers hard-candidate probes for
    /// DAG-source candidates in O(k) (see `Scheduler::hard_probe_cached`).
    hard_g: Vec<i128>,
    /// Prefix minima of `hard_g` (`hard_g_pre[i] = min hard_g[0..=i]`).
    hard_g_pre: Vec<i128>,
    /// Prefix minima of `d_j − W_j` (the candidate-penalty term).
    hard_h_pre: Vec<i128>,
    /// Suffix minima of `hard_g` (`hard_g_suf[i] = min hard_g[i..]`).
    hard_g_suf: Vec<i128>,
    hard_cache_valid: bool,
    /// Cached `acc.delay_upto` table of the *committed* accumulator
    /// (`k + 1` entries). The accumulator only changes permanently when a
    /// process is committed, so every hard-candidate probe of a step can
    /// read this one table instead of re-querying the accumulator.
    committed_delay: Vec<Time>,
    committed_delay_valid: bool,
}

impl CommittedPrefix {
    /// Initializes the prefix for a fresh run of `model.app` from `ctx`,
    /// reusing every buffer. Processes completed or dropped by the context
    /// start resolved; everything derived (ready set, predecessor counts,
    /// stale coefficients) matches a from-scratch derivation exactly.
    pub(crate) fn init(&mut self, model: &AppModel, ctx: &ScheduleContext) {
        let app = &*model.app;
        let n = app.len();
        self.dropped.clear();
        self.dropped.extend_from_slice(&ctx.dropped);
        self.dropped.resize(n, false);
        self.resolved.clear();
        self.resolved.resize(n, false);
        for i in 0..n {
            if ctx.completed[i] || self.dropped[i] {
                self.resolved[i] = true;
            }
        }
        self.pending_preds.clear();
        self.pending_preds.resize(n, 0);
        for node in app.processes() {
            if !self.resolved[node.index()] {
                self.pending_preds[node.index()] = app
                    .graph()
                    .predecessors(node)
                    .filter(|p| !self.resolved[p.index()])
                    .count();
            }
        }
        self.ready.clear();
        self.ready
            .extend((0..n).map(|i| !self.resolved[i] && self.pending_preds[i] == 0));
        self.alpha.reset(n);
        for i in 0..n {
            if self.dropped[i] {
                self.alpha.mark_dropped(NodeId::from_index(i));
            }
        }
        self.entries.clear();
        self.new_drops.clear();
        self.avg_clock = ctx.start;
        self.wcet_clock = ctx.start;
        self.slack_items.clear();
        self.acc.clear();
        self.edf_cache_valid = false;
        self.soft_slack_valid = false;
        self.hard_cache_valid = false;
        self.committed_delay_valid = false;
    }

    /// Overwrites `self` with `other`, reusing existing buffers — the
    /// allocation-free deep copy behind `checkpoint()`/`restore()`.
    pub(crate) fn copy_from(&mut self, other: &CommittedPrefix) {
        fn cv<T: Clone>(dst: &mut Vec<T>, src: &[T]) {
            dst.clear();
            dst.extend_from_slice(src);
        }
        cv(&mut self.pending_preds, &other.pending_preds);
        cv(&mut self.resolved, &other.resolved);
        cv(&mut self.ready, &other.ready);
        cv(&mut self.dropped, &other.dropped);
        cv(&mut self.entries, &other.entries);
        cv(&mut self.new_drops, &other.new_drops);
        self.alpha.copy_from(&other.alpha);
        self.avg_clock = other.avg_clock;
        self.wcet_clock = other.wcet_clock;
        cv(&mut self.slack_items, &other.slack_items);
        self.acc.copy_from(&other.acc);
        cv(&mut self.edf_cache, &other.edf_cache);
        cv(&mut self.edf_pos, &other.edf_pos);
        self.edf_cache_valid = other.edf_cache_valid;
        cv(&mut self.slack_by_budget, &other.slack_by_budget);
        self.soft_slack_valid = other.soft_slack_valid;
        cv(&mut self.hard_g, &other.hard_g);
        cv(&mut self.hard_g_pre, &other.hard_g_pre);
        cv(&mut self.hard_h_pre, &other.hard_h_pre);
        cv(&mut self.hard_g_suf, &other.hard_g_suf);
        self.hard_cache_valid = other.hard_cache_valid;
        cv(&mut self.committed_delay, &other.committed_delay);
        self.committed_delay_valid = other.committed_delay_valid;
    }

    /// Resolves `n` (scheduled, dropped, or — on the expansion cursor —
    /// completed by a pivot), promoting successors whose last pending
    /// predecessor this was. Hard resolutions shrink the pending hard set,
    /// so the derived probe caches are invalidated.
    fn mark_resolved(&mut self, model: &AppModel, n: NodeId) {
        if model.hard_of[n.index()] {
            self.edf_cache_valid = false;
            self.soft_slack_valid = false;
            self.hard_cache_valid = false;
        }
        self.resolved[n.index()] = true;
        self.ready[n.index()] = false;
        for s in model.app.graph().successors(n) {
            if !self.resolved[s.index()] {
                self.pending_preds[s.index()] -= 1;
                if self.pending_preds[s.index()] == 0 {
                    self.ready[s.index()] = true;
                }
            }
        }
    }

    /// Marks the next pivot entry of the expansion cursor as completed
    /// before the run starts (equivalent to `ctx.completed[p] = true` in a
    /// from-scratch initialization).
    fn advance_completed(&mut self, model: &AppModel, process: NodeId) {
        debug_assert!(
            !self.resolved[process.index()],
            "a pivot entry is pending until the cursor passes it"
        );
        self.mark_resolved(model, process);
    }

    /// Re-bases the clocks for a run starting at `start` (the restored
    /// committed prefix of an expansion pivot is entry-free; only the
    /// start time differs per pivot).
    fn begin_run_at(&mut self, start: Time) {
        debug_assert!(
            self.entries.is_empty() && self.slack_items.is_empty(),
            "per-pivot runs start from an entry-free prefix"
        );
        self.avg_clock = start;
        self.wcet_clock = start;
    }
}

/// Per-probe transient buffers (see the module's *Performance* notes):
/// dense `NodeId`-indexed tables for hypothetical schedules, a deadline
/// heap for the `SiH` walk, scratch stale coefficients, and the
/// accumulator undo log. Every probe borrows it instead of allocating, and
/// every probe leaves it neutral — it is never part of a checkpoint.
#[derive(Debug, Default)]
pub(crate) struct ProbeScratch {
    /// Generation-stamped membership/placement marks, by node index.
    /// `mark[i] == stamp` means "in the current probe's set".
    mark: Vec<u32>,
    /// Current generation; bumped per probe instead of clearing `mark`.
    stamp: u32,
    /// Pending-predecessor counts within the current probe's node set
    /// (hard set for `SiH` walks, soft set for `Si′`/`Si″` estimates).
    pending_degree: Vec<u32>,
    /// Deadline-ordered ready heap for the `SiH` hard-suffix walk.
    heap: BinaryHeap<Reverse<(Time, NodeId)>>,
    /// Pending soft processes of the current `Si′`/`Si″` estimate.
    pending_soft: Vec<NodeId>,
    /// Ready (un-gated, unplaced) soft candidates of the current estimate,
    /// with their cached hypothetical stale coefficients — a candidate's
    /// coefficient cannot change while it stays ready, so it is computed
    /// once at readiness instead of once per selection round.
    ready_soft: Vec<(NodeId, f64)>,
    /// Scratch stale coefficients (copied from the committed state).
    alpha: StaleAlpha,
    /// Per-budget delay buffer for batched accumulator queries.
    delay_buf: Vec<Time>,
}

impl ProbeScratch {
    /// Re-primes the buffers for an application of `n` processes, reusing
    /// existing capacity. Equivalent to freshly built buffers — synthesis
    /// results never depend on what a previous run left behind.
    fn prepare(&mut self, n: usize) {
        self.mark.clear();
        self.mark.resize(n, 0);
        self.stamp = 0;
        self.pending_degree.clear();
        self.pending_degree.resize(n, 0);
        self.heap.clear();
        self.pending_soft.clear();
        self.ready_soft.clear();
        self.alpha.reset(n);
        self.delay_buf.clear();
    }

    /// Opens a fresh mark generation (O(1) except after `u32` wrap-around).
    fn next_stamp(&mut self) -> u32 {
        self.stamp = self.stamp.wrapping_add(1);
        if self.stamp == 0 {
            self.mark.fill(0);
            self.stamp = 1;
        }
        self.stamp
    }
}

/// Reusable synthesis state: the committed prefix of the current (or next)
/// run plus the per-probe transient buffers. One instance serves any
/// number of synthesis runs over any number of applications: a
/// [`crate::Session`] owns one and re-primes it per call, amortizing the
/// allocation work across whole batch runs instead of per run.
///
/// `checkpoint()`/`restore()` snapshot the committed-prefix half in
/// O(prefix): FTQS expansion captures the parent's context once per
/// expanded node and restores it per pivot instead of re-deriving the
/// shared prefix for every sub-schedule.
#[derive(Debug, Default)]
pub(crate) struct SynthesisScratch {
    prefix: CommittedPrefix,
    probe: ProbeScratch,
    /// Interval-sweep buffers (grid, estimator curves, segment walk) for
    /// the FTQS partitioning phase — session-owned so batch runs amortize
    /// them; excluded from checkpoints (transient, like the probe half).
    pub(crate) sweep: SweepScratch,
}

impl SynthesisScratch {
    /// An empty scratch, ready to serve any application.
    #[must_use]
    pub(crate) fn new() -> Self {
        SynthesisScratch::default()
    }

    /// Initializes the committed prefix for a run of `model.app` from
    /// `ctx` (the state a subsequent [`SynthesisScratch::checkpoint`]
    /// captures).
    pub(crate) fn prefix_init(&mut self, model: &AppModel, ctx: &ScheduleContext) {
        self.prefix.init(model, ctx);
    }

    /// Deep-copies the committed-prefix state into `into`, reusing its
    /// buffers. O(prefix); the probe buffers are transient and excluded.
    pub(crate) fn checkpoint(&self, into: &mut PrefixCheckpoint) {
        into.state.copy_from(&self.prefix);
    }

    /// Restores a previously captured committed-prefix state; the next
    /// (resumed) run continues from it bit-identically.
    pub(crate) fn restore(&mut self, checkpoint: &PrefixCheckpoint) {
        self.prefix.copy_from(&checkpoint.state);
    }

    /// Re-bases the restored prefix's clocks for a run starting at `start`.
    pub(crate) fn begin_run_at(&mut self, start: Time) {
        self.prefix.begin_run_at(start);
    }

    #[cfg(test)]
    pub(crate) fn prefix(&self) -> &CommittedPrefix {
        &self.prefix
    }

    #[cfg(test)]
    pub(crate) fn prefix_mut(&mut self) -> &mut CommittedPrefix {
        &mut self.prefix
    }
}

/// A snapshot of a run's committed-prefix state, produced by
/// [`SynthesisScratch::checkpoint`]. Reusable: capturing into an existing
/// checkpoint overwrites it without reallocating.
#[derive(Debug, Clone, Default)]
pub(crate) struct PrefixCheckpoint {
    state: CommittedPrefix,
}

/// A worker-private committed-prefix cursor over a parent schedule's
/// pivots: created from the parent's base checkpoint, it absorbs pivot
/// entries one at a time ([`PrefixCursor::advance_to`]) while staying
/// entry-free, so each pivot's run restores from it in one O(n) copy
/// instead of re-deriving the context from scratch.
///
/// Cursors only ever move forward; in the parallel expansion waves each
/// worker claims pivot indices in strictly ascending order (see
/// [`crate::par`]), skipping the ones other workers claimed, and
/// [`PrefixCursor::advance_to`] absorbs every skipped entry on the way.
#[derive(Debug)]
pub(crate) struct PrefixCursor {
    checkpoint: PrefixCheckpoint,
    /// Number of parent entries already absorbed as completed.
    advanced: usize,
}

impl PrefixCursor {
    /// A fresh private cursor positioned at the parent's own context.
    pub(crate) fn new(base: &PrefixCheckpoint) -> Self {
        PrefixCursor {
            checkpoint: base.clone(),
            advanced: 0,
        }
    }

    /// Absorbs parent entries until `entries[0..=pivot]` are completed.
    pub(crate) fn advance_to(&mut self, model: &AppModel, entries: &[ScheduleEntry], pivot: usize) {
        debug_assert!(
            self.advanced <= pivot + 1,
            "cursors only move forward (pivot {pivot}, already at {})",
            self.advanced
        );
        while self.advanced <= pivot {
            self.checkpoint
                .state
                .advance_completed(model, entries[self.advanced].process);
            self.advanced += 1;
        }
    }

    /// The checkpoint at the cursor's current position.
    pub(crate) fn checkpoint(&self) -> &PrefixCheckpoint {
        &self.checkpoint
    }
}

/// FTSS over a caller-provided scratch — the non-allocating entry point
/// behind [`crate::Session::synthesize`]. Derives a fresh `AppModel`;
/// callers running many times over one application (the FTQS tree builder)
/// use [`ftss_from_context`] with a shared model instead.
pub(crate) fn ftss_with(
    app: &Application,
    ctx: &ScheduleContext,
    config: &FtssConfig,
    scratch: &mut SynthesisScratch,
) -> Result<FSchedule, SchedulingError> {
    let model = AppModel::build(app);
    ftss_from_context(&model, ctx, config, scratch)
}

/// FTSS over a shared model: initializes the committed prefix from `ctx`
/// and runs to completion.
pub(crate) fn ftss_from_context(
    model: &AppModel,
    ctx: &ScheduleContext,
    config: &FtssConfig,
    scratch: &mut SynthesisScratch,
) -> Result<FSchedule, SchedulingError> {
    scratch.prefix.init(model, ctx);
    ftss_resume(model, ctx, config, scratch)
}

/// Resumes (or starts) a run whose committed prefix is already positioned
/// in `scratch` — freshly initialized, restored from a checkpoint, or
/// paused mid-schedule. `ctx` must be the context the prefix describes; it
/// is embedded in the resulting [`FSchedule`].
pub(crate) fn ftss_resume(
    model: &AppModel,
    ctx: &ScheduleContext,
    config: &FtssConfig,
    scratch: &mut SynthesisScratch,
) -> Result<FSchedule, SchedulingError> {
    Scheduler::new(model, config, ctx, scratch).run()
}

struct Scheduler<'s> {
    model: &'s AppModel,
    config: &'s FtssConfig,
    ctx: &'s ScheduleContext,
    prefix: &'s mut CommittedPrefix,
    probe: &'s mut ProbeScratch,
}

impl<'s> Scheduler<'s> {
    fn new(
        model: &'s AppModel,
        config: &'s FtssConfig,
        ctx: &'s ScheduleContext,
        scratch: &'s mut SynthesisScratch,
    ) -> Self {
        scratch.probe.prepare(model.app.len());
        let SynthesisScratch {
            prefix,
            probe,
            sweep: _,
        } = scratch;
        Scheduler {
            model,
            config,
            ctx,
            prefix,
            probe,
        }
    }

    /// Mean-utility-density priority (the `MU` function of
    /// [`crate::priority`]) computed from the dense model tables — the
    /// identical formula and float-operation order, minus the payload
    /// chasing; this runs O(s²) times per `Si′`/`Si″` estimate.
    fn mu_priority_fast(
        &self,
        s: NodeId,
        now: Time,
        alpha: f64,
        mut is_pending: impl FnMut(NodeId) -> bool,
    ) -> f64 {
        let u = self.model.utility_of[s.index()]
            .as_ref()
            .expect("MU priority is defined for soft processes only");
        let own_completion = now + self.model.aet_of[s.index()];
        let mut score = alpha * u.value(own_completion) / self.model.denom_of[s.index()];
        let w = self.config.successor_weight;
        if w != 0.0 {
            let mut succ_sum = 0.0;
            // Soft successors only — hard successors pass the pending gate
            // but carry no utility, contributing nothing to the sum.
            for &(j, denom_j, aet_j) in &self.model.soft_succs[s.index()] {
                if !is_pending(j) {
                    continue;
                }
                let uj = self.model.utility_of[j.index()]
                    .as_ref()
                    .expect("soft successor has a utility function");
                succ_sum += uj.value(own_completion + aet_j) / denom_j;
            }
            score += w * succ_sum;
        }
        score
    }

    fn run(mut self) -> Result<FSchedule, SchedulingError> {
        while self.step()? {}
        debug_assert!(
            self.prefix.resolved.iter().all(|&r| r),
            "FTSS must resolve every pending process"
        );
        Ok(FSchedule::new(
            std::mem::take(&mut self.prefix.entries),
            std::mem::take(&mut self.prefix.new_drops),
            self.ctx.clone(),
        ))
    }

    /// One commit step of the staged pipeline: resolves at least one
    /// pending process (by dropping or scheduling) and returns `true`, or
    /// returns `false` when every process is resolved. Between steps the
    /// `CommittedPrefix` is a complete snapshot of the paused run.
    fn step(&mut self) -> Result<bool, SchedulingError> {
        if self.ready_nodes().next().is_none() {
            return Ok(false);
        }
        if self.config.dropping {
            self.determine_dropping();
        }
        let Some(ready_now) = self.first_nonempty_ready() else {
            return Ok(true); // dropping promoted new nodes; re-enter the loop
        };
        let mut schedulable = self.schedulable_set(&ready_now);
        while schedulable.is_empty() {
            let ready_soft: Vec<NodeId> = self
                .ready_nodes()
                .filter(|&n| !self.model.hard_of[n.index()])
                .collect();
            if ready_soft.is_empty() {
                return Err(self.unschedulable_diagnosis());
            }
            self.forced_dropping(&ready_soft);
            let ready_now: Vec<NodeId> = self.ready_nodes().collect();
            if ready_now.is_empty() {
                return Ok(true); // successors will surface next iteration
            }
            schedulable = self.schedulable_set(&ready_now);
        }
        let Some(best) = self.best_process(&schedulable) else {
            return Ok(true);
        };
        self.schedule(best);
        Ok(true)
    }

    fn ready_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.prefix
            .ready
            .iter()
            .enumerate()
            .filter(|&(i, &r)| r && !self.prefix.resolved[i])
            .map(|(i, _)| NodeId::from_index(i))
    }

    fn first_nonempty_ready(&self) -> Option<Vec<NodeId>> {
        let v: Vec<NodeId> = self.ready_nodes().collect();
        (!v.is_empty()).then_some(v)
    }

    /// Pending = not yet scheduled, not dropped, not pre-completed.
    fn is_pending(&self, n: NodeId) -> bool {
        !self.prefix.resolved[n.index()]
    }

    // ----- DetermineDropping (FTSS line 3) -------------------------------

    fn determine_dropping(&mut self) {
        loop {
            let candidates: Vec<NodeId> = self
                .ready_nodes()
                .filter(|&n| !self.model.hard_of[n.index()])
                .collect();
            if candidates.is_empty() {
                // No ready soft process: nothing can be dropped and the
                // `Si′` estimate would go unread.
                break;
            }
            let mut dropped_any = false;
            // `Si′` (nothing extra dropped) only changes when a drop
            // commits, so it is computed once and refreshed after drops
            // instead of per candidate.
            let mut with = self.soft_suffix_estimate(None);
            for pi in candidates {
                if !self.prefix.ready[pi.index()] || self.prefix.resolved[pi.index()] {
                    continue;
                }
                let without = self.soft_suffix_estimate(Some(pi));
                if with <= without {
                    self.drop_process(pi);
                    dropped_any = true;
                    with = self.soft_suffix_estimate(None);
                }
            }
            if !dropped_any {
                break;
            }
        }
    }

    /// Expected utility of list-scheduling every pending soft process at
    /// average execution times from the current clock, with `extra_drop`
    /// hypothetically dropped (the `Si′`/`Si″` schedules of the paper:
    /// "two schedules ... which contain only unscheduled soft processes").
    ///
    /// Hard predecessors are treated as satisfied — they will execute, so
    /// they neither gate readiness nor degrade stale coefficients here.
    ///
    /// Placement state and the hypothetical stale coefficients live in
    /// `ProbeScratch`; the only per-call cost beyond the list
    /// scheduling itself is one `memcpy` of the committed coefficients.
    fn soft_suffix_estimate(&mut self, extra_drop: Option<NodeId>) -> f64 {
        let app = &*self.model.app;
        self.probe.alpha.copy_from(&self.prefix.alpha);
        if let Some(d) = extra_drop {
            self.probe.alpha.mark_dropped(d);
        }
        // Pending soft processes to place.
        {
            let resolved = &self.prefix.resolved;
            let softs = &self.model.softs;
            self.probe.pending_soft.clear();
            self.probe.pending_soft.extend(
                softs
                    .iter()
                    .copied()
                    .filter(|&s| !resolved[s.index()] && Some(s) != extra_drop),
            );
        }
        // Readiness within the soft-induced subgraph: a pending soft is
        // ready when none of its pending soft ancestors is unplaced.
        // Tracked by in-set predecessor counts feeding a ready list:
        // `mark == in_set` marks the estimate's candidate set,
        // `mark == placed` marks hypothetically placed candidates.
        let in_set = self.probe.next_stamp();
        let placed = self.probe.next_stamp();
        for idx in 0..self.probe.pending_soft.len() {
            let s = self.probe.pending_soft[idx];
            self.probe.mark[s.index()] = in_set;
        }
        let mut now = self.prefix.avg_clock;
        self.probe.ready_soft.clear();
        for idx in 0..self.probe.pending_soft.len() {
            let s = self.probe.pending_soft[idx];
            let degree = app
                .graph()
                .predecessors(s)
                .filter(|p| self.probe.mark[p.index()] == in_set)
                .count();
            self.probe.pending_degree[s.index()] = degree as u32;
            if degree == 0 {
                let a = alpha_preview(app, &mut self.probe.alpha, s);
                self.probe.ready_soft.push((s, a));
            }
        }
        let mut total = 0.0;
        while !self.probe.ready_soft.is_empty() {
            // Argmax of the MU priority over the ready candidates (ties by
            // smallest id) — order-independent, so the ready list needs no
            // particular ordering and placed entries are swap-removed.
            let mut best: Option<(f64, NodeId, usize)> = None;
            for pos in 0..self.probe.ready_soft.len() {
                let (s, a) = self.probe.ready_soft[pos];
                let mark = &self.probe.mark;
                let pr = self.mu_priority_fast(s, now, a, |j| mark[j.index()] == in_set);
                if best.is_none_or(|(bp, bn, _)| pr > bp || (pr == bp && s < bn)) {
                    best = Some((pr, s, pos));
                }
            }
            let Some((_, s, pos)) = best else {
                break;
            };
            self.probe.ready_soft.swap_remove(pos);
            self.probe.mark[s.index()] = placed;
            now += self.model.aet_of[s.index()];
            let av = self.probe.alpha.resolve(app, s);
            if let Some(u) = self.model.utility_of[s.index()].as_ref() {
                total += av * u.value(now);
            }
            for j in app.graph().successors(s) {
                if self.probe.mark[j.index()] == in_set {
                    self.probe.pending_degree[j.index()] -= 1;
                    if self.probe.pending_degree[j.index()] == 0 {
                        let aj = alpha_preview(app, &mut self.probe.alpha, j);
                        self.probe.ready_soft.push((j, aj));
                    }
                }
            }
        }
        total
    }

    // ----- GetSchedulable (FTSS line 4) ----------------------------------

    fn schedulable_set(&mut self, ready: &[NodeId]) -> Vec<NodeId> {
        let mut out = Vec::with_capacity(ready.len());
        for &n in ready {
            if self.leads_to_schedulable(n) {
                out.push(n);
            }
        }
        out
    }

    /// The `SiH` test: candidate first (with `k` re-executions if hard,
    /// none yet if soft), then every unscheduled hard process in
    /// deadline-order list-scheduling, all soft dropped; every hard
    /// deadline must hold at WCET plus the shared `k`-fault delay.
    ///
    /// Neither probe path mutates the accumulator: soft candidates compare
    /// against the cached suffix slack; hard candidates fold their
    /// full-allowance items into `folded_delay` over the committed-only
    /// delay table and — when the candidate gates no pending hard process —
    /// resolve against the cached-order prefix/suffix minima without
    /// touching the heap at all.
    fn leads_to_schedulable(&mut self, candidate: NodeId) -> bool {
        let candidate_hard = self.model.hard_of[candidate.index()];
        let wcet = self.prefix.wcet_clock + self.model.wcet_of[candidate.index()];
        if !candidate_hard {
            // A soft candidate's slack item carries no allowance, so the
            // whole probe collapses to one comparison against the cached
            // suffix slack (no deadline of its own to check either).
            if !self.prefix.soft_slack_valid {
                self.rebuild_soft_slack();
            }
            return wcet.as_ms() as i128 <= self.prefix.slack_by_budget[self.model.k];
        }
        // Hard candidate: every probe item (the candidate's own and the
        // suffix hards') has allowance k, so the shared delay folds to
        // `max_t (t · p_max + D_C(k−t))` over the committed-only delays
        // D_C — no accumulator mutation anywhere in the probe.
        let k = self.model.k;
        self.ensure_committed_delay();
        let p_cand = self.model.penalty_of[candidate.index()];
        let d = self.model.deadline_of[candidate.index()];
        if wcet + folded_delay(&self.prefix.committed_delay, p_cand, k) > d {
            return false;
        }
        if self.has_pending_hard_successor(candidate) {
            // Removing the candidate from the pending-hard DAG would
            // release its successors earlier and can reorder the EDF walk:
            // fall back to the explicit heap walk.
            return self.hard_suffix_feasible_excluding(candidate, wcet, p_cand);
        }
        if !self.prefix.hard_cache_valid {
            self.rebuild_hard_probe_cache();
        }
        self.hard_probe_cached(candidate, wcet, p_cand)
    }

    /// Fills [`CommittedPrefix::committed_delay`] (the `delay_upto` table
    /// of the committed accumulator) if a commit invalidated it.
    fn ensure_committed_delay(&mut self) {
        if !self.prefix.committed_delay_valid {
            self.prefix
                .committed_delay
                .resize(self.model.k + 1, Time::ZERO);
            self.prefix.acc.delay_upto(&mut self.prefix.committed_delay);
            self.prefix.committed_delay_valid = true;
        }
    }

    /// `true` if `candidate` gates at least one pending hard process.
    fn has_pending_hard_successor(&self, candidate: NodeId) -> bool {
        self.model.hard_succs[candidate.index()]
            .iter()
            .any(|&s| !self.prefix.resolved[s.index()])
    }

    /// Feasibility of granting the just-picked soft process a slack item
    /// `(penalty, allowance)` on top of the committed prefix: by the
    /// knapsack decomposition (see [`CommittedPrefix::slack_by_budget`]),
    /// every hard deadline holds iff `start + t·penalty ≤ slack[k − t]`
    /// for every fault split `t ≤ min(allowance, k)`.
    fn reexecution_feasible(&mut self, start: Time, penalty: Time, allowance: usize) -> bool {
        if !self.prefix.soft_slack_valid {
            self.rebuild_soft_slack();
        }
        let base = start.as_ms() as i128;
        let p = penalty.as_ms() as i128;
        (0..=allowance.min(self.model.k))
            .all(|t| base + t as i128 * p <= self.prefix.slack_by_budget[self.model.k - t])
    }

    /// Recomputes [`CommittedPrefix::slack_by_budget`] from the cached EDF
    /// order and the committed shared-slack state.
    ///
    /// Every hard item added along the EDF walk carries the full `k`
    /// allowance, so for any budget `r ≤ k` the greedy optimum never needs
    /// a second distinct added penalty: `delay(C ∪ {p_0..p_i}, r) = max_t
    /// (t · max(p_0..p_i) + D_C(r − t))` — the walk folds a running
    /// maximum penalty over the cached committed-delay table instead of
    /// mutating the accumulator per item (exact integer equality with the
    /// multiset query, as in the hard-candidate probes).
    fn rebuild_soft_slack(&mut self) {
        if !self.prefix.edf_cache_valid {
            self.rebuild_edf_cache();
        }
        let k = self.model.k;
        self.ensure_committed_delay();
        self.prefix.slack_by_budget.clear();
        self.prefix.slack_by_budget.resize(k + 1, i128::MAX);
        let mut w = Time::ZERO;
        let mut p_max = Time::ZERO;
        // Folded per-budget delays for the current running maximum; a zero
        // maximum is the plain committed table.
        self.probe.delay_buf.clear();
        self.probe
            .delay_buf
            .extend_from_slice(&self.prefix.committed_delay);
        for i in 0..self.prefix.edf_cache.len() {
            let h = self.prefix.edf_cache[i];
            w += self.model.wcet_of[h.index()];
            let p_h = self.model.penalty_of[h.index()];
            if p_h > p_max {
                p_max = p_h;
                for r in 0..=k {
                    self.probe.delay_buf[r] = folded_delay(&self.prefix.committed_delay, p_max, r);
                }
            }
            let d = self.model.deadline_of[h.index()].as_ms() as i128;
            for r in 0..=k {
                let need = (w + self.probe.delay_buf[r]).as_ms() as i128;
                let slot = &mut self.prefix.slack_by_budget[r];
                *slot = (*slot).min(d - need);
            }
        }
        self.prefix.soft_slack_valid = true;
    }

    /// Rebuilds [`CommittedPrefix::edf_cache`]: the pending hard processes
    /// in earliest-deadline order under precedence (ties by node id),
    /// exactly the order the heap walk of
    /// [`Self::hard_suffix_feasible_excluding`] visits.
    fn rebuild_edf_cache(&mut self) {
        let app = &*self.model.app;
        self.prefix.edf_cache.clear();
        let stamp = self.probe.next_stamp();
        for i in 0..self.model.hards.len() {
            let h = self.model.hards[i];
            if !self.prefix.resolved[h.index()] {
                self.probe.mark[h.index()] = stamp;
            }
        }
        self.probe.heap.clear();
        for i in 0..self.model.hards.len() {
            let h = self.model.hards[i];
            if self.probe.mark[h.index()] != stamp {
                continue;
            }
            let preds = app
                .graph()
                .predecessors(h)
                .filter(|p| self.probe.mark[p.index()] == stamp)
                .count();
            self.probe.pending_degree[h.index()] = preds as u32;
            if preds == 0 {
                self.probe
                    .heap
                    .push(Reverse((self.model.deadline_of[h.index()], h)));
            }
        }
        while let Some(Reverse((_, h))) = self.probe.heap.pop() {
            self.prefix.edf_cache.push(h);
            for su in app.graph().successors(h) {
                if self.probe.mark[su.index()] == stamp {
                    self.probe.pending_degree[su.index()] -= 1;
                    if self.probe.pending_degree[su.index()] == 0 {
                        self.probe
                            .heap
                            .push(Reverse((self.model.deadline_of[su.index()], su)));
                    }
                }
            }
        }
        self.prefix.edf_cache_valid = true;
    }

    /// Rebuilds the cached-order hard-probe tables: per EDF position `j`,
    /// `G_j = d_j − W_j − D(M_j)` and `H_j = d_j − W_j` (ms, signed),
    /// with prefix minima of both and suffix minima of `G`. `D(p)` is the
    /// folded delay over the committed-only table and `M_j` the running
    /// maximum penalty — recomputed only when the maximum grows, so the
    /// rebuild is O(|pending hards| + distinct-maxima · k) once per commit.
    fn rebuild_hard_probe_cache(&mut self) {
        if !self.prefix.edf_cache_valid {
            self.rebuild_edf_cache();
        }
        let k = self.model.k;
        self.ensure_committed_delay();
        let m = self.prefix.edf_cache.len();
        let n = self.model.hard_of.len();
        self.prefix.edf_pos.clear();
        self.prefix.edf_pos.resize(n, u32::MAX);
        self.prefix.hard_g.clear();
        self.prefix.hard_g_pre.clear();
        self.prefix.hard_h_pre.clear();
        let mut w = Time::ZERO;
        let mut p_max = Time::ZERO;
        // Folded delay of a zero penalty is the plain committed delay.
        let mut d_pmax = self.prefix.committed_delay[k];
        let mut min_g = i128::MAX;
        let mut min_h = i128::MAX;
        for i in 0..m {
            let h = self.prefix.edf_cache[i];
            self.prefix.edf_pos[h.index()] = i as u32;
            w += self.model.wcet_of[h.index()];
            let p_h = self.model.penalty_of[h.index()];
            if p_h > p_max {
                p_max = p_h;
                d_pmax = folded_delay(&self.prefix.committed_delay, p_max, k);
            }
            let d = self.model.deadline_of[h.index()].as_ms() as i128;
            let g = d - (w + d_pmax).as_ms() as i128;
            let hh = d - w.as_ms() as i128;
            min_g = min_g.min(g);
            min_h = min_h.min(hh);
            self.prefix.hard_g.push(g);
            self.prefix.hard_g_pre.push(min_g);
            self.prefix.hard_h_pre.push(min_h);
        }
        self.prefix.hard_g_suf.clear();
        self.prefix.hard_g_suf.resize(m, i128::MAX);
        let mut run = i128::MAX;
        for i in (0..m).rev() {
            run = run.min(self.prefix.hard_g[i]);
            self.prefix.hard_g_suf[i] = run;
        }
        self.prefix.hard_cache_valid = true;
    }

    /// The cached-order hard-candidate probe, valid when the candidate
    /// gates no pending hard process: removing such a source from the
    /// pending-hard DAG leaves every other process's availability — and
    /// therefore the EDF heap walk order — unchanged, so the walk the
    /// fallback would perform is exactly `edf_cache` minus the candidate.
    ///
    /// With `base = wcet_clock + wcet_cand` and the candidate at cached
    /// position `q`, the walk's per-entry check `base + W′_j +
    /// D(max(p_cand, M′_j)) ≤ d_j` decomposes (folded delay is monotone in
    /// the penalty, and `M_j` already includes `p_cand` for `j > q`) into
    /// three range-minimum comparisons:
    ///
    /// * `j < q`: `base ≤ min G_j` and `base + D(p_cand) ≤ min H_j`,
    /// * `j > q`: `base − wcet_cand ≤ min G_j` (the suffix runs one
    ///   candidate-WCET earlier because the candidate left the order).
    fn hard_probe_cached(&mut self, candidate: NodeId, wcet: Time, p_cand: Time) -> bool {
        let k = self.model.k;
        let q = self.prefix.edf_pos[candidate.index()] as usize;
        debug_assert_eq!(self.prefix.edf_cache[q], candidate);
        let base = wcet.as_ms() as i128;
        if q > 0 {
            if base > self.prefix.hard_g_pre[q - 1] {
                return false;
            }
            let d_cand = folded_delay(&self.prefix.committed_delay, p_cand, k).as_ms() as i128;
            if base + d_cand > self.prefix.hard_h_pre[q - 1] {
                return false;
            }
        }
        if q + 1 < self.prefix.edf_cache.len() {
            let w_cand = self.model.wcet_of[candidate.index()].as_ms() as i128;
            if base - w_cand > self.prefix.hard_g_suf[q + 1] {
                return false;
            }
        }
        true
    }

    /// The general `SiH` walk with `skip` excluded from the hard set (the
    /// fallback for hard candidates that gate other pending hard
    /// processes, whose own entry precedes the suffix).
    fn hard_suffix_feasible_excluding(
        &mut self,
        skip: NodeId,
        mut wcet: Time,
        p_cand: Time,
    ) -> bool {
        let app = &*self.model.app;
        let k = self.model.k;
        // Membership pass: the pending hard set, excluding `skip`.
        let stamp = self.probe.next_stamp();
        let mut count = 0usize;
        for i in 0..self.model.hards.len() {
            let h = self.model.hards[i];
            if h != skip && !self.prefix.resolved[h.index()] {
                self.probe.mark[h.index()] = stamp;
                count += 1;
            }
        }
        if count == 0 {
            return true;
        }
        // Precedence among the remaining hard processes only: soft (and the
        // candidate) are assumed dropped/already placed, so they do not
        // gate hard readiness here. Readiness is tracked by in-set
        // predecessor counts feeding a (deadline, id)-ordered heap — the
        // same earliest-deadline-first selection as a repeated min-scan.
        self.probe.heap.clear();
        for i in 0..self.model.hards.len() {
            let h = self.model.hards[i];
            if self.probe.mark[h.index()] != stamp {
                continue;
            }
            let preds = app
                .graph()
                .predecessors(h)
                .filter(|p| self.probe.mark[p.index()] == stamp)
                .count();
            self.probe.pending_degree[h.index()] = preds as u32;
            if preds == 0 {
                self.probe
                    .heap
                    .push(Reverse((self.model.deadline_of[h.index()], h)));
            }
        }
        // Walk, folding every k-allowance item into the running maximum
        // penalty: `delay = max_t (t · p_max + D_C(k−t))` is exact because
        // the budget never exceeds any single item's allowance, so the
        // greedy optimum takes its in-probe units from the largest penalty
        // alone. `cur_delay` only changes when `p_max` grows.
        let mut p_max = p_cand;
        let mut cur_delay = folded_delay(&self.prefix.committed_delay, p_max, k);
        while let Some(Reverse((d, h))) = self.probe.heap.pop() {
            count -= 1;
            wcet += self.model.wcet_of[h.index()];
            let p_h = self.model.penalty_of[h.index()];
            if p_h > p_max {
                p_max = p_h;
                cur_delay = folded_delay(&self.prefix.committed_delay, p_max, k);
            }
            if wcet + cur_delay > d {
                return false;
            }
            for s in app.graph().successors(h) {
                if self.probe.mark[s.index()] == stamp {
                    self.probe.pending_degree[s.index()] -= 1;
                    if self.probe.pending_degree[s.index()] == 0 {
                        self.probe
                            .heap
                            .push(Reverse((self.model.deadline_of[s.index()], s)));
                    }
                }
            }
        }
        count == 0
    }

    // ----- ForcedDropping (FTSS lines 5-9) --------------------------------

    fn forced_dropping(&mut self, ready_soft: &[NodeId]) {
        // No state changes inside the loop, so `Si′` is loop-invariant.
        let with = self.soft_suffix_estimate(None);
        let mut best: Option<(f64, NodeId)> = None;
        for &s in ready_soft {
            let without = self.soft_suffix_estimate(Some(s));
            let loss = with - without;
            if best.is_none_or(|(bl, bn)| loss < bl || (loss == bl && s < bn)) {
                best = Some((loss, s));
            }
        }
        if let Some((_, s)) = best {
            self.drop_process(s);
        }
    }

    // ----- GetBestProcess (FTSS lines 11-12) ------------------------------

    fn best_process(&mut self, schedulable: &[NodeId]) -> Option<NodeId> {
        let softs: Vec<NodeId> = schedulable
            .iter()
            .copied()
            .filter(|&n| !self.model.hard_of[n.index()])
            .collect();
        if !softs.is_empty() {
            let mut best: Option<(f64, NodeId)> = None;
            for &s in &softs {
                let a = alpha_preview(&self.model.app, &mut self.prefix.alpha, s);
                let resolved = &self.prefix.resolved;
                let pr =
                    self.mu_priority_fast(s, self.prefix.avg_clock, a, |j| !resolved[j.index()]);
                if best.is_none_or(|(bp, bn)| pr > bp || (pr == bp && s < bn)) {
                    best = Some((pr, s));
                }
            }
            return best.map(|(_, s)| s);
        }
        schedulable
            .iter()
            .copied()
            .filter(|&n| self.model.hard_of[n.index()])
            .min_by_key(|&h| (self.model.deadline_of[h.index()], h))
    }

    // ----- Schedule + AddRecoverySlack (FTSS lines 13-15) -----------------

    fn schedule(&mut self, best: NodeId) {
        let hard = self.model.hard_of[best.index()];

        self.prefix.wcet_clock += self.model.wcet_of[best.index()];
        let reexecutions = if hard {
            self.model.k
        } else if self.config.soft_reexecution {
            self.soft_reexecution_allowance(best)
        } else {
            0
        };
        let item = SlackItem::new(self.model.penalty_of[best.index()], reexecutions);
        self.prefix.slack_items.push(item);
        self.prefix.acc.push(item);
        // A zero-allowance commit adds nothing to the shared-slack
        // multiset and (for soft processes) leaves the pending hard set
        // untouched, so the suffix-slack, hard-probe, and committed-delay
        // caches stay valid.
        if hard || reexecutions > 0 {
            self.prefix.soft_slack_valid = false;
            self.prefix.hard_cache_valid = false;
            self.prefix.committed_delay_valid = false;
        }
        self.prefix.entries.push(ScheduleEntry {
            process: best,
            reexecutions,
        });
        self.prefix.avg_clock += self.model.aet_of[best.index()];
        self.prefix.alpha.resolve(&self.model.app, best);
        self.prefix.mark_resolved(self.model, best);
    }

    /// Grants re-executions to the just-picked soft process one at a time:
    /// each extra re-execution must keep the remaining hard processes
    /// schedulable (shared slack grows) and must still produce positive
    /// utility at its worst-case completion ("it is evaluated with the
    /// dropping heuristic", paper §5.2).
    fn soft_reexecution_allowance(&mut self, best: NodeId) -> usize {
        let app = &*self.model.app;
        let u = app
            .process(best)
            .criticality()
            .utility()
            .expect("soft process has a utility function");
        let penalty = self.model.penalty_of[best.index()];
        let completion_base = self.prefix.wcet_clock; // includes best's own wcet
        let period = app.period();
        let mut granted = 0usize;
        while granted < self.model.k {
            let try_allow = granted + 1;
            // Worst-case completion of the re-executed process itself.
            let own_wc = completion_base + penalty * try_allow as u64;
            let beneficial = u.value(own_wc) > 0.0 && own_wc <= period;
            if !beneficial {
                break;
            }
            let feasible = self.reexecution_feasible(self.prefix.wcet_clock, penalty, try_allow);
            if !feasible {
                break;
            }
            granted = try_allow;
        }
        granted
    }

    // ----- bookkeeping ----------------------------------------------------

    fn drop_process(&mut self, pi: NodeId) {
        debug_assert!(
            !self.model.app.is_hard(pi),
            "hard processes are never dropped"
        );
        self.prefix.dropped[pi.index()] = true;
        self.prefix.alpha.mark_dropped(pi);
        self.prefix.new_drops.push(pi);
        self.prefix.mark_resolved(self.model, pi);
    }

    fn unschedulable_diagnosis(&self) -> SchedulingError {
        // Report the tightest-deadline pending hard process with the best
        // achievable worst-case completion (every soft dropped). Cold path
        // (executed at most once per synthesis); stays on the simple batch
        // analysis.
        let app = &*self.model.app;
        let mut wcet = self.prefix.wcet_clock;
        let mut items = self.prefix.slack_items.clone();
        let mut worst: Option<(NodeId, Time, Time)> = None;
        let hards: Vec<NodeId> = app
            .hard_processes()
            .filter(|&h| self.is_pending(h))
            .collect();
        let mut placed = vec![false; app.len()];
        for _ in 0..hards.len() {
            let next = hards
                .iter()
                .copied()
                .filter(|&h| {
                    !placed[h.index()]
                        && !app
                            .graph()
                            .predecessors(h)
                            .any(|p| hards.contains(&p) && !placed[p.index()])
                })
                .min_by_key(|&h| app.process(h).criticality().deadline());
            let Some(h) = next else { break };
            placed[h.index()] = true;
            wcet += app.process(h).times().wcet();
            items.push(SlackItem::new(app.recovery_penalty(h), self.model.k));
            let wc = wcet + worst_case_fault_delay(&items, self.model.k);
            let d = app
                .process(h)
                .criticality()
                .deadline()
                .expect("hard process has a deadline");
            if wc > d {
                worst = Some((h, d, wc));
                break;
            }
        }
        let (process, deadline, worst_completion) = worst.unwrap_or_else(|| {
            let h = hards[0];
            (
                h,
                app.process(h).criticality().deadline().unwrap_or(Time::MAX),
                Time::MAX,
            )
        });
        SchedulingError::Unschedulable {
            process,
            deadline,
            worst_completion,
        }
    }
}

/// `max_t (t · p_max + committed[k − t])` — the exact worst-case delay of
/// the committed multiset plus any set of full-allowance items whose
/// largest penalty is `p_max` (see the probe docs in [`Scheduler`]).
fn folded_delay(committed: &[Time], p_max: Time, k: usize) -> Time {
    let mut best = Time::ZERO;
    for (t, &rest) in committed.iter().take(k + 1).rev().enumerate() {
        // iterating r = k..=0 as rest = committed[r], t = k − r
        let v = p_max * t as u64 + rest;
        if v > best {
            best = v;
        }
    }
    best
}

/// Computes the stale coefficient `id` would execute with, without
/// committing it (predecessors are resolved as needed — they are already
/// decided for ready processes).
fn alpha_preview(app: &Application, alpha: &mut StaleAlpha, id: NodeId) -> f64 {
    let mut sum = 0.0;
    let mut count = 0usize;
    for p in app.graph().predecessors(id) {
        sum += alpha.resolve(app, p);
        count += 1;
    }
    (1.0 + sum) / (1.0 + count as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fschedule::expected_suffix_utility;
    use crate::{ExecutionTimes, FaultModel, UtilityFunction};

    /// One-shot FTSS over a fresh scratch (test convenience; production
    /// callers go through [`crate::Engine`]/[`crate::Session`]).
    fn ftss(
        app: &Application,
        ctx: &ScheduleContext,
        config: &FtssConfig,
    ) -> Result<FSchedule, SchedulingError> {
        ftss_with(app, ctx, config, &mut SynthesisScratch::new())
    }

    fn t(ms: u64) -> Time {
        Time::from_ms(ms)
    }

    fn et(b: u64, w: u64) -> ExecutionTimes {
        ExecutionTimes::uniform(t(b), t(w)).unwrap()
    }

    /// Fig. 1 / Fig. 4 application with the Fig. 4a utility functions.
    fn fig1_app() -> (Application, [NodeId; 3]) {
        let mut b = Application::builder(t(300), FaultModel::new(1, t(10)));
        let p1 = b.add_hard("P1", et(30, 70), t(180));
        let p2 = b.add_soft(
            "P2",
            et(30, 70),
            UtilityFunction::step(40.0, [(t(90), 20.0), (t(200), 10.0), (t(250), 0.0)]).unwrap(),
        );
        let p3 = b.add_soft(
            "P3",
            et(40, 80),
            UtilityFunction::step(40.0, [(t(110), 30.0), (t(150), 10.0), (t(220), 0.0)]).unwrap(),
        );
        b.add_dependency(p1, p2).unwrap();
        b.add_dependency(p1, p3).unwrap();
        (b.build().unwrap(), [p1, p2, p3])
    }

    /// A seeded mixed hard/soft DAG (tiny LCG — no dev-deps needed here).
    fn seeded_app(seed: u64) -> Application {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        let n = 6 + (next() % 8) as usize;
        let k = 1 + (next() % 2) as usize;
        let mut b = Application::builder(t(20_000), FaultModel::new(k, t(5 + next() % 10)));
        let mut ids = Vec::with_capacity(n);
        for i in 0..n {
            let w = 10 + next() % 80;
            let bc = next() % (w + 1);
            let times = et(bc, w);
            let id = if next() % 2 == 0 {
                b.add_hard(
                    format!("H{i}"),
                    times,
                    t(2_000 + 300 * i as u64 + next() % 2_000),
                )
            } else {
                let peak = 10.0 + (next() % 90) as f64;
                b.add_soft(
                    format!("S{i}"),
                    times,
                    UtilityFunction::step(peak, [(t(300 + next() % 3_000), 0.0)]).unwrap(),
                )
            };
            ids.push(id);
        }
        for _ in 0..n {
            let i = (next() as usize) % n;
            let j = (next() as usize) % n;
            if i < j {
                let _ = b.add_dependency(ids[i], ids[j]);
            }
        }
        b.build().unwrap()
    }

    #[test]
    fn fig1_ftss_prefers_s2_ordering() {
        // §3: "S2 is better than S1 on average and is, hence, preferred":
        // P1, P3, P2 with average utility 60.
        let (app, [p1, p2, p3]) = fig1_app();
        let s = ftss(&app, &ScheduleContext::root(&app), &FtssConfig::default()).unwrap();
        assert_eq!(s.order_key(), vec![p1, p3, p2]);
        let a = s.analyze(&app);
        assert!(a.is_schedulable());
        let u = expected_suffix_utility(&app, &s, &a, 0, Time::ZERO);
        assert_eq!(u, 60.0);
        // Hard P1 gets the full fault budget.
        assert_eq!(s.entries()[0].reexecutions, 1);
    }

    #[test]
    fn fig4c_reduced_period_drops_a_soft_process() {
        // With T = 250 the worst case does not fit; one soft process must
        // go, and dropping P2 (keeping P3) gives utility U3(100) = 40 —
        // schedule S3 of Fig. 4c3.
        let mut b = Application::builder(t(250), FaultModel::new(1, t(10)));
        let p1 = b.add_hard("P1", et(30, 70), t(180));
        let p2 = b.add_soft(
            "P2",
            et(30, 70),
            UtilityFunction::step(40.0, [(t(90), 20.0), (t(200), 10.0), (t(250), 0.0)]).unwrap(),
        );
        let p3 = b.add_soft(
            "P3",
            et(40, 80),
            UtilityFunction::step(40.0, [(t(110), 30.0), (t(150), 10.0), (t(220), 0.0)]).unwrap(),
        );
        b.add_dependency(p1, p2).unwrap();
        b.add_dependency(p1, p3).unwrap();
        let app = b.build().unwrap();

        let s = ftss(&app, &ScheduleContext::root(&app), &FtssConfig::default()).unwrap();
        let a = s.analyze(&app);
        assert!(a.is_schedulable());
        let u = expected_suffix_utility(&app, &s, &a, 0, Time::ZERO);
        // Our runtime model lets the less valuable soft process be dropped
        // online instead of statically when it still fits the average case;
        // either way P3-before-P2 utility dominates and at least S3's
        // utility must be achieved.
        assert!(u >= 40.0, "expected at least S3's utility, got {u}");
        assert_eq!(s.entries()[0].process, p1);
        // P3 is scheduled before P2 (or P2 dropped entirely).
        let pos3 = s.position_of(p3);
        let pos2 = s.position_of(p2);
        match (pos3, pos2) {
            (Some(i3), Some(i2)) => assert!(i3 < i2),
            (Some(_), None) => {}
            other => panic!("unexpected placement {other:?}"),
        }
    }

    #[test]
    fn hard_only_application_schedules_by_deadline() {
        let mut b = Application::builder(t(1000), FaultModel::new(2, t(5)));
        let a1 = b.add_hard("H1", et(10, 30), t(900));
        let a2 = b.add_hard("H2", et(10, 30), t(400));
        let a3 = b.add_hard("H3", et(10, 30), t(600));
        let app = b.build().unwrap();
        let s = ftss(&app, &ScheduleContext::root(&app), &FtssConfig::default()).unwrap();
        assert_eq!(s.order_key(), vec![a2, a3, a1]);
        assert!(s.entries().iter().all(|e| e.reexecutions == 2));
        assert!(s.analyze(&app).is_schedulable());
    }

    #[test]
    fn infeasible_hard_deadline_is_unschedulable() {
        let mut b = Application::builder(t(1000), FaultModel::new(1, t(10)));
        let h = b.add_hard("H", et(50, 100), t(120)); // wc 100 + 110 = 210 > 120
        let app = b.build().unwrap();
        let err = ftss(&app, &ScheduleContext::root(&app), &FtssConfig::default()).unwrap_err();
        match err {
            SchedulingError::Unschedulable {
                process,
                deadline,
                worst_completion,
            } => {
                assert_eq!(process, h);
                assert_eq!(deadline, t(120));
                assert_eq!(worst_completion, t(210));
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn soft_blocking_hard_is_force_dropped() {
        // A huge soft process in front of a tight hard deadline: scheduling
        // the soft first would violate the hard deadline, so FTSS must drop
        // or defer it.
        let mut b = Application::builder(t(1000), FaultModel::new(1, t(10)));
        let big = b.add_soft(
            "big",
            et(400, 800),
            UtilityFunction::constant(1000.0).unwrap(),
        );
        let h = b.add_hard("H", et(50, 100), t(250));
        let app = b.build().unwrap();
        let s = ftss(&app, &ScheduleContext::root(&app), &FtssConfig::default()).unwrap();
        let a = s.analyze(&app);
        assert!(a.is_schedulable());
        // The hard process is first; the soft one follows or is dropped.
        assert_eq!(s.entries()[0].process, h);
        let _ = big;
    }

    #[test]
    fn worthless_soft_process_is_dropped() {
        let mut b = Application::builder(t(1000), FaultModel::none());
        let dead = b.add_soft(
            "dead",
            et(100, 200),
            // Utility already zero at any reachable completion time.
            UtilityFunction::step(10.0, [(t(50), 0.0)]).unwrap(),
        );
        let live = b.add_soft(
            "live",
            et(100, 200),
            UtilityFunction::constant(50.0).unwrap(),
        );
        let app = b.build().unwrap();
        let s = ftss(&app, &ScheduleContext::root(&app), &FtssConfig::default()).unwrap();
        assert!(s.statically_dropped().contains(&dead));
        assert_eq!(s.position_of(live), Some(0));
    }

    #[test]
    fn dropping_can_be_disabled() {
        let mut b = Application::builder(t(1000), FaultModel::none());
        let dead = b.add_soft(
            "dead",
            et(100, 200),
            UtilityFunction::step(10.0, [(t(50), 0.0)]).unwrap(),
        );
        let app = b.build().unwrap();
        let cfg = FtssConfig {
            dropping: false,
            ..FtssConfig::default()
        };
        let s = ftss(&app, &ScheduleContext::root(&app), &cfg).unwrap();
        assert!(s.statically_dropped().is_empty());
        assert_eq!(s.position_of(dead), Some(0));
    }

    #[test]
    fn soft_reexecutions_granted_when_beneficial() {
        let mut b = Application::builder(t(1000), FaultModel::new(2, t(10)));
        let s1 = b.add_soft(
            "S",
            et(50, 100),
            // Worth something until late: re-executions stay beneficial.
            UtilityFunction::step(100.0, [(t(900), 0.0)]).unwrap(),
        );
        let app = b.build().unwrap();
        let s = ftss(&app, &ScheduleContext::root(&app), &FtssConfig::default()).unwrap();
        assert_eq!(s.entries()[0].process, s1);
        assert_eq!(
            s.entries()[0].reexecutions,
            2,
            "both re-executions fit and pay off"
        );
    }

    #[test]
    fn soft_reexecutions_denied_when_worthless() {
        let mut b = Application::builder(t(1000), FaultModel::new(2, t(10)));
        let _s1 = b.add_soft(
            "S",
            et(50, 100),
            // Utility vanishes right after the nominal completion: a
            // re-executed run (>= 210) is worthless.
            UtilityFunction::step(100.0, [(t(110), 0.0)]).unwrap(),
        );
        let app = b.build().unwrap();
        let s = ftss(&app, &ScheduleContext::root(&app), &FtssConfig::default()).unwrap();
        assert_eq!(s.entries()[0].reexecutions, 0);
    }

    #[test]
    fn soft_reexecution_respects_hard_deadlines() {
        let mut b = Application::builder(t(1000), FaultModel::new(2, t(10)));
        let sid = b.add_soft("S", et(100, 100), UtilityFunction::constant(100.0).unwrap());
        // Hard process right after; granting S re-executions would consume
        // the shared budget with penalty 110 each and push H past 420:
        // 100 + 100 + min-delay... With S allowances 2: delay = 2x110 = 220
        // -> H wc = 200 + 220 = 420 <= d? Pick d = 350 so even one S
        // re-execution (110 + 110 fault on H... ) busts it.
        let h = b.add_hard("H", et(100, 100), t(350));
        let app = b.build().unwrap();
        let s = ftss(&app, &ScheduleContext::root(&app), &FtssConfig::default()).unwrap();
        let a = s.analyze(&app);
        assert!(a.is_schedulable(), "schedule must stay feasible");
        // Whatever allowance was granted, the analysis must confirm H's
        // deadline in the worst case.
        let hpos = s.position_of(h).unwrap();
        assert!(a.worst_completion(hpos) <= t(350));
        let _ = sid;
    }

    #[test]
    fn sub_schedule_context_restricts_to_pending() {
        let (app, [p1, p2, p3]) = fig1_app();
        let mut ctx = ScheduleContext::root(&app);
        ctx.completed[p1.index()] = true;
        ctx.start = t(30); // P1 completed at its bcet
        let s = ftss(&app, &ctx, &FtssConfig::default()).unwrap();
        let key = s.order_key();
        assert!(!key.contains(&p1));
        assert_eq!(key.len(), 2);
        assert!(key.contains(&p2) && key.contains(&p3));
        // At tc = 30 the S1 ordering (P2 first) wins — Fig. 4b5 / schedule
        // S2^1 of the quasi-static tree.
        assert_eq!(key[0], p2, "early completion favors P2 first");
    }

    #[test]
    fn deterministic_across_runs() {
        let (app, _) = fig1_app();
        let a = ftss(&app, &ScheduleContext::root(&app), &FtssConfig::default()).unwrap();
        let b = ftss(&app, &ScheduleContext::root(&app), &FtssConfig::default()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn matches_reference_on_fig1_and_subcontexts() {
        // Unit-level pin of the optimized scheduler to the straightforward
        // oracle (the broad randomized equivalence suite lives in
        // tests/equivalence.rs).
        let (app, [p1, ..]) = fig1_app();
        let cfg = FtssConfig::default();
        let root = ScheduleContext::root(&app);
        assert_eq!(
            ftss(&app, &root, &cfg).unwrap(),
            crate::oracle::ftss_reference(&app, &root, &cfg).unwrap()
        );
        let mut sub = ScheduleContext::root(&app);
        sub.completed[p1.index()] = true;
        sub.start = t(30);
        assert_eq!(
            ftss(&app, &sub, &cfg).unwrap(),
            crate::oracle::ftss_reference(&app, &sub, &cfg).unwrap()
        );
    }

    // ----- checkpoint / restore hygiene ----------------------------------

    #[test]
    fn checkpoint_restore_round_trips_prefix_state_exactly() {
        for seed in 0..24u64 {
            let app = seeded_app(seed);
            let model = AppModel::build(&app);
            let ctx = ScheduleContext::root(&app);
            let mut scratch = SynthesisScratch::new();
            scratch.prefix_mut().init(&model, &ctx);
            let mut cp = PrefixCheckpoint::default();
            scratch.checkpoint(&mut cp);
            let before = scratch.prefix().clone();

            // Mutate: run the full synthesis from the captured state.
            let run = ftss_resume(&model, &ctx, &FtssConfig::default(), &mut scratch);
            if run.is_ok() {
                assert_ne!(
                    scratch.prefix(),
                    &before,
                    "seed {seed}: a completed run must have mutated the prefix"
                );
            }

            // Restore: the committed prefix must match the snapshot exactly.
            scratch.restore(&cp);
            assert_eq!(scratch.prefix(), &before, "seed {seed}: restore diverged");

            // And a run from the restored state is bit-identical to one
            // from a freshly initialized state.
            let a = ftss_resume(&model, &ctx, &FtssConfig::default(), &mut scratch);
            let mut fresh = SynthesisScratch::new();
            let b = ftss_from_context(&model, &ctx, &FtssConfig::default(), &mut fresh);
            assert_eq!(a, b, "seed {seed}: restored run diverged from fresh run");
        }
    }

    #[test]
    fn paused_runs_resume_bit_identically() {
        // Pause after a few commit steps, snapshot, finish, restore, finish
        // again: both completions must equal the uninterrupted run.
        for seed in 0..16u64 {
            let app = seeded_app(seed ^ 0xA5);
            let model = AppModel::build(&app);
            let ctx = ScheduleContext::root(&app);
            let cfg = FtssConfig::default();

            let mut direct = SynthesisScratch::new();
            let straight = ftss_from_context(&model, &ctx, &cfg, &mut direct);

            let mut scratch = SynthesisScratch::new();
            scratch.prefix_mut().init(&model, &ctx);
            // Step the staged pipeline partway by hand.
            let paused = {
                let mut scheduler = Scheduler::new(&model, &cfg, &ctx, &mut scratch);
                let mut fail = None;
                for _ in 0..2 {
                    match scheduler.step() {
                        Ok(true) => {}
                        Ok(false) => break,
                        Err(e) => {
                            fail = Some(e);
                            break;
                        }
                    }
                }
                fail
            };
            if let Some(err) = paused {
                assert_eq!(straight, Err(err), "seed {seed}: early failure diverged");
                continue;
            }
            let mut cp = PrefixCheckpoint::default();
            scratch.checkpoint(&mut cp);

            let first = ftss_resume(&model, &ctx, &cfg, &mut scratch);
            assert_eq!(first, straight, "seed {seed}: resumed run diverged");

            scratch.restore(&cp);
            let second = ftss_resume(&model, &ctx, &cfg, &mut scratch);
            assert_eq!(second, straight, "seed {seed}: re-resumed run diverged");
        }
    }

    #[test]
    fn subcontext_runs_match_reference_on_seeded_corpus() {
        // FTQS re-runs FTSS from mid-schedule contexts; optimized-vs-
        // oracle equivalence must hold there too (this replaces the
        // wrapper-based integration test that left with the pre-0.2 free
        // functions).
        let cfg = FtssConfig::default();
        for seed in 0..20u64 {
            let app = seeded_app(seed ^ 0x3C);
            let ctx = ScheduleContext::root(&app);
            let Ok(root) = ftss(&app, &ctx, &cfg) else {
                continue;
            };
            let entries = root.entries();
            let picks = [0, entries.len() / 2, entries.len().saturating_sub(2)];
            for &p in &picks {
                if p + 1 >= entries.len() {
                    continue;
                }
                let mut sub = ScheduleContext::root(&app);
                let mut start = Time::ZERO;
                for e in &entries[..=p] {
                    sub.completed[e.process.index()] = true;
                    start += app.process(e.process).times().bcet();
                }
                sub.start = start;
                let fast = ftss(&app, &sub, &cfg);
                let slow = crate::oracle::ftss_reference(&app, &sub, &cfg);
                assert_eq!(fast, slow, "seed {seed} pivot {p}");
            }
        }
    }

    #[test]
    fn cursor_advance_matches_fresh_context_derivation() {
        // Advancing a cursor over a schedule prefix must produce runs
        // bit-identical to initializing from the explicit sub-context.
        for seed in 0..16u64 {
            let app = seeded_app(seed ^ 0x5C);
            let model = AppModel::build(&app);
            let root_ctx = ScheduleContext::root(&app);
            let cfg = FtssConfig::default();
            let mut scratch = SynthesisScratch::new();
            let Ok(root) = ftss_from_context(&model, &root_ctx, &cfg, &mut scratch) else {
                continue;
            };
            if root.entries().len() < 2 {
                continue;
            }
            scratch.prefix_mut().init(&model, &root_ctx);
            let mut base = PrefixCheckpoint::default();
            scratch.checkpoint(&mut base);
            let mut cursor = PrefixCursor::new(&base);
            let entries = root.entries().to_vec();
            let mut start = root_ctx.start;
            for p in 0..entries.len() - 1 {
                cursor.advance_to(&model, &entries, p);
                start += app.process(entries[p].process).times().bcet();
                let mut ctx = root_ctx.clone();
                for e in &entries[..=p] {
                    ctx.completed[e.process.index()] = true;
                }
                ctx.start = start;

                scratch.restore(cursor.checkpoint());
                scratch.begin_run_at(ctx.start);
                let via_cursor = ftss_resume(&model, &ctx, &cfg, &mut scratch);
                let mut fresh = SynthesisScratch::new();
                let via_init = ftss_from_context(&model, &ctx, &cfg, &mut fresh);
                assert_eq!(
                    via_cursor, via_init,
                    "seed {seed} pivot {p}: cursor-restored run diverged"
                );
            }
        }
    }
}
