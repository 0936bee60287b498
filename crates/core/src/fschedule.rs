//! The *f-schedule*: a fault-tolerant static schedule with shared recovery
//! slack (paper §3).
//!
//! An f-schedule fixes the execution order of the (non-dropped) processes
//! and grants every entry a *re-execution allowance*: `k` for hard
//! processes (they must tolerate all faults), a scheduler-chosen number for
//! soft processes. Recovery time is not reserved per process — a single
//! shared budget of `k` faults is analyzed with
//! [`worst_case_fault_delay`] over every schedule prefix.
//!
//! [`ScheduleAnalysis`] derives from an f-schedule:
//!
//! * nominal (all-WCET, fault-free) completion times,
//! * worst-case completion times (all-WCET plus the worst distribution of
//!   `k` faults over the granted allowances),
//! * *latest safe start times* per entry and per remaining-fault budget —
//!   the table the online scheduler uses for runtime dropping decisions,
//! * the expected (all-AET) utility, with stale-value coefficients and
//!   runtime-dropping emulation.
//!
//! Expected-utility evaluation comes in two forms: the scalar
//! [`expected_suffix_utility_est`] (one start time per call — the oracle
//! and the expansion heuristics use it) and the crate-internal segmented
//! sweep behind `SweepScratch`, which evaluates a whole ascending grid of
//! start times at once for FTQS interval partitioning. The sweep batches
//! per-entry utility lookups through [`crate::CompiledUtility`] tables and
//! walks the suffix once per drop-set *segment* instead of once per
//! sample, while updating the per-sample accumulators in entry order so
//! its results stay bit-identical to the scalar walk (see
//! [`crate::ftqs`]'s Performance notes for the design).

use crate::wcdelay::{worst_case_fault_delay, FaultDelayAccumulator, SlackItem};
use crate::{Application, Time};
use ftqs_graph::NodeId;
use serde::{Deserialize, Serialize};

/// One slot of an f-schedule: a process and its re-execution allowance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ScheduleEntry {
    /// The scheduled process.
    pub process: NodeId,
    /// Number of re-executions granted after faults (`k` for hard
    /// processes; 0 means the process is abandoned on its first fault).
    pub reexecutions: usize,
}

/// The execution context a (sub-)schedule starts from.
///
/// The root schedule starts at time zero with nothing completed; a
/// quasi-static sub-schedule starts after a prefix of processes has run
/// (`completed`) or been dropped (`dropped`), at the best-case completion
/// time of its pivot process (`start`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScheduleContext {
    /// Time at which the first entry of the schedule may start.
    pub start: Time,
    /// Processes already executed (fresh outputs), indexed by node index.
    pub completed: Vec<bool>,
    /// Processes dropped or abandoned (stale outputs), indexed by node index.
    pub dropped: Vec<bool>,
}

impl ScheduleContext {
    /// The root context for `app`: time zero, nothing completed or dropped.
    #[must_use]
    pub fn root(app: &Application) -> Self {
        ScheduleContext {
            start: Time::ZERO,
            completed: vec![false; app.len()],
            dropped: vec![false; app.len()],
        }
    }

    /// Returns `true` if `id` is still to be scheduled under this context.
    #[must_use]
    pub fn is_pending(&self, id: NodeId) -> bool {
        !self.completed[id.index()] && !self.dropped[id.index()]
    }
}

/// A fault-tolerant static schedule (f-schedule) for one application.
///
/// Produced by the FTSS policy of [`crate::Session::synthesize`] and, for
/// sub-schedules of the quasi-static tree, by re-running FTSS from a
/// [`ScheduleContext`].
///
/// # Example
///
/// ```
/// use ftqs_core::{Engine, SynthesisRequest};
/// # use ftqs_core::{Application, ExecutionTimes, FaultModel, Time, UtilityFunction};
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// # let mut b = Application::builder(Time::from_ms(300), FaultModel::new(1, Time::from_ms(10)));
/// # let p1 = b.add_hard("P1", ExecutionTimes::uniform(30.into(), 70.into())?, Time::from_ms(180));
/// # let app = b.build()?;
/// let report = Engine::new().session().synthesize(&app, &SynthesisRequest::ftss())?;
/// let analysis = report.root_schedule().analyze(&app);
/// assert!(analysis.is_schedulable());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FSchedule {
    entries: Vec<ScheduleEntry>,
    statically_dropped: Vec<NodeId>,
    context: ScheduleContext,
}

impl FSchedule {
    /// Assembles an f-schedule from its parts. Scheduling heuristics use
    /// this; most callers obtain schedules through
    /// [`crate::Session::synthesize`].
    #[must_use]
    pub fn new(
        entries: Vec<ScheduleEntry>,
        statically_dropped: Vec<NodeId>,
        context: ScheduleContext,
    ) -> Self {
        FSchedule {
            entries,
            statically_dropped,
            context,
        }
    }

    /// The ordered schedule slots.
    #[must_use]
    pub fn entries(&self) -> &[ScheduleEntry] {
        &self.entries
    }

    /// Soft processes dropped at synthesis time (never executed under this
    /// schedule).
    #[must_use]
    pub fn statically_dropped(&self) -> &[NodeId] {
        &self.statically_dropped
    }

    /// The context this schedule starts from.
    #[must_use]
    pub fn context(&self) -> &ScheduleContext {
        &self.context
    }

    /// Position of `process` among the entries, if scheduled.
    #[must_use]
    pub fn position_of(&self, process: NodeId) -> Option<usize> {
        self.entries.iter().position(|e| e.process == process)
    }

    /// The process order as a plain id sequence (used for schedule
    /// deduplication in the quasi-static tree).
    #[must_use]
    pub fn order_key(&self) -> Vec<NodeId> {
        self.entries.iter().map(|e| e.process).collect()
    }

    /// The dropped mask implied by this schedule: context drops plus static
    /// drops, indexed by node index.
    #[must_use]
    pub fn dropped_mask(&self, app: &Application) -> Vec<bool> {
        let mut mask = self.context.dropped.clone();
        mask.resize(app.len(), false);
        for &d in &self.statically_dropped {
            mask[d.index()] = true;
        }
        mask
    }

    /// Computes the timing analysis of this schedule under `app`'s fault
    /// model.
    #[must_use]
    pub fn analyze(&self, app: &Application) -> ScheduleAnalysis {
        ScheduleAnalysis::of(app, self)
    }
}

/// A hard process that misses its deadline in the worst case.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HardViolation {
    /// The violating process.
    pub process: NodeId,
    /// Its deadline.
    pub deadline: Time,
    /// Its worst-case completion time under this schedule.
    pub worst_completion: Time,
}

/// Derived timing tables of an [`FSchedule`] (see module docs).
#[derive(Debug, Clone)]
pub struct ScheduleAnalysis {
    nominal_completion: Vec<Time>,
    worst_completion: Vec<Time>,
    /// `hard_safe_start[pos][r]`: latest start of entry `pos` such that all
    /// hard entries at `pos..` still meet their deadlines in the worst case
    /// with `r` remaining faults. `Time::MAX` when no hard entry follows.
    hard_safe_start: Vec<Vec<Time>>,
    violation: Option<HardViolation>,
    k: usize,
}

impl ScheduleAnalysis {
    fn of(app: &Application, schedule: &FSchedule) -> Self {
        let k = app.faults().k;
        let entries = schedule.entries();
        let n = entries.len();
        let start = schedule.context().start;

        // Per-entry slack items and WCET prefix sums, computed once.
        let items: Vec<SlackItem> = entries
            .iter()
            .map(|e| SlackItem::new(app.recovery_penalty(e.process), e.reexecutions))
            .collect();

        // Forward pass: nominal and worst-case completions. The incremental
        // accumulator answers each prefix's worst `k`-fault delay in O(k)
        // instead of re-sorting the prefix.
        let mut nominal_completion = Vec::with_capacity(n);
        let mut worst_completion = Vec::with_capacity(n);
        let mut violation = None;
        let mut wcet_sum = start;
        let mut acc = FaultDelayAccumulator::new();
        for (e, &item) in entries.iter().zip(&items) {
            let times = app.process(e.process).times();
            wcet_sum += times.wcet();
            acc.push(item);
            let wc = wcet_sum + acc.delay(k);
            nominal_completion.push(wcet_sum);
            worst_completion.push(wc);
            if let Some(d) = app.process(e.process).criticality().deadline() {
                if wc > d && violation.is_none() {
                    violation = Some(HardViolation {
                        process: e.process,
                        deadline: d,
                        worst_completion: wc,
                    });
                }
            }
        }

        // Backward pass: latest safe start per position and remaining-fault
        // budget. For position `i` and budget `r`:
        //   min over hard j >= i of  d_j - sum(wcet i..=j) - maxdelay(items i..=j, r)
        // Grown from each hard anchor `j` downward: extending the window
        // from `i + 1` to `i` only adds item `i` to the multiset, so one
        // accumulator serves all `i` for a fixed `j` — O(H·n·k) overall
        // instead of re-solving the knapsack per (i, j, r) triple.
        let mut hard_safe_start = vec![vec![Time::MAX; k + 1]; n];
        let mut window = FaultDelayAccumulator::new();
        for j in 0..n {
            let Some(d) = app.process(entries[j].process).criticality().deadline() else {
                continue;
            };
            window.clear();
            let mut window_wcet = Time::ZERO;
            for i in (0..=j).rev() {
                window_wcet += app.process(entries[i].process).times().wcet();
                window.push(items[i]);
                let row = &mut hard_safe_start[i];
                for (r, slot) in row.iter_mut().enumerate() {
                    let latest = d.saturating_sub(window_wcet + window.delay(r));
                    if latest < *slot {
                        *slot = latest;
                    }
                }
            }
        }

        ScheduleAnalysis {
            nominal_completion,
            worst_completion,
            hard_safe_start,
            violation,
            k,
        }
    }

    /// The straightforward pre-optimization analysis: per-prefix and
    /// per-window batch re-solves of [`worst_case_fault_delay`].
    ///
    /// Kept as the differential-testing oracle (see [`crate::oracle`]) and
    /// as the baseline the synthesis benches measure speedups against. Not
    /// intended for production use — [`FSchedule::analyze`] computes the
    /// identical tables incrementally.
    #[must_use]
    #[allow(clippy::needless_range_loop)] // kept verbatim as the baseline
    pub fn of_reference(app: &Application, schedule: &FSchedule) -> Self {
        let k = app.faults().k;
        let entries = schedule.entries();
        let n = entries.len();
        let start = schedule.context().start;

        // Forward pass: nominal and worst-case completions.
        let mut nominal_completion = Vec::with_capacity(n);
        let mut worst_completion = Vec::with_capacity(n);
        let mut violation = None;
        let mut wcet_sum = start;
        let mut items: Vec<SlackItem> = Vec::with_capacity(n);
        for e in entries {
            let times = app.process(e.process).times();
            wcet_sum += times.wcet();
            items.push(SlackItem::new(
                app.recovery_penalty(e.process),
                e.reexecutions,
            ));
            let wc = wcet_sum + worst_case_fault_delay(&items, k);
            nominal_completion.push(wcet_sum);
            worst_completion.push(wc);
            if let Some(d) = app.process(e.process).criticality().deadline() {
                if wc > d && violation.is_none() {
                    violation = Some(HardViolation {
                        process: e.process,
                        deadline: d,
                        worst_completion: wc,
                    });
                }
            }
        }

        // Backward pass, batch-re-solved per (i, j, r).
        let mut hard_safe_start = vec![vec![Time::MAX; k + 1]; n];
        for i in 0..n {
            let mut suffix_wcet = Time::ZERO;
            let mut suffix_items: Vec<SlackItem> = Vec::new();
            for j in i..n {
                let e = &entries[j];
                suffix_wcet += app.process(e.process).times().wcet();
                suffix_items.push(SlackItem::new(
                    app.recovery_penalty(e.process),
                    e.reexecutions,
                ));
                if let Some(d) = app.process(e.process).criticality().deadline() {
                    for r in 0..=k {
                        let delay = worst_case_fault_delay(&suffix_items, r);
                        let latest = d.saturating_sub(suffix_wcet + delay);
                        if latest < hard_safe_start[i][r] {
                            hard_safe_start[i][r] = latest;
                        }
                    }
                }
            }
        }

        ScheduleAnalysis {
            nominal_completion,
            worst_completion,
            hard_safe_start,
            violation,
            k,
        }
    }

    /// All-WCET, fault-free completion time of entry `pos`.
    #[must_use]
    pub fn nominal_completion(&self, pos: usize) -> Time {
        self.nominal_completion[pos]
    }

    /// Worst-case completion time of entry `pos` (all-WCET plus the worst
    /// distribution of `k` faults over the granted allowances).
    #[must_use]
    pub fn worst_completion(&self, pos: usize) -> Time {
        self.worst_completion[pos]
    }

    /// Latest start of entry `pos` preserving every hard deadline at
    /// `pos..` in the worst case with `r` remaining faults. [`Time::MAX`]
    /// when no hard entry follows `pos`.
    ///
    /// # Panics
    ///
    /// Panics if `r` exceeds the fault budget `k`.
    #[must_use]
    pub fn hard_safe_start(&self, pos: usize, r: usize) -> Time {
        self.hard_safe_start[pos][r]
    }

    /// The runtime-dropping bound for entry `pos` of a schedule over `app`:
    /// the hard-safety bound of [`Self::hard_safe_start`] additionally
    /// capped, for soft entries, at `T - bcet` (a soft process that cannot
    /// even best-case-complete within the period is dropped).
    #[must_use]
    pub fn latest_start(
        &self,
        app: &Application,
        entry: &ScheduleEntry,
        pos: usize,
        r: usize,
    ) -> Time {
        let hard_bound = self.hard_safe_start(pos, r);
        if app.is_hard(entry.process) {
            hard_bound
        } else {
            let period_cap = app
                .period()
                .saturating_sub(app.process(entry.process).times().bcet());
            hard_bound.min(period_cap)
        }
    }

    /// `true` if every hard entry meets its deadline in the worst case.
    #[must_use]
    pub fn is_schedulable(&self) -> bool {
        self.violation.is_none()
    }

    /// The first hard-deadline violation, if any.
    #[must_use]
    pub fn violation(&self) -> Option<HardViolation> {
        self.violation
    }

    /// The fault budget the analysis was computed for.
    #[must_use]
    pub fn fault_budget(&self) -> usize {
        self.k
    }
}

/// Expected utility of executing `schedule`'s entries from position `from`
/// onward, starting at time `start`, with every process at its average
/// execution time — see [`expected_suffix_utility_est`] for the estimate
/// FTQS compares sub-schedules with.
///
/// A soft entry whose start time exceeds its
/// [`ScheduleAnalysis::latest_start`] bound (with the full fault budget
/// remaining, as the online scheduler must assume) is dropped, and
/// stale-value coefficients propagate through the dropped mask exactly as
/// at runtime. Only utilities of entries at `from..` are summed — shared
/// prefixes cancel when two schedules are compared.
#[must_use]
pub fn expected_suffix_utility(
    app: &Application,
    schedule: &FSchedule,
    analysis: &ScheduleAnalysis,
    from: usize,
    start: Time,
) -> f64 {
    suffix_utility_pass(app, schedule, analysis, from, start, |t| t.aet())
}

/// The expected suffix utility FTQS compares a sub-schedule against its
/// parent with: three passes of [`expected_suffix_utility`]'s walk with
/// every process at the 25 %, 50 % and 75 % quantiles of its uniform
/// duration (weights ¼, ½, ¼). Step utilities make the single-point AET
/// estimate brittle — a completion sitting just before a step reads the
/// full value although nearly half the probability mass lies beyond it;
/// the quantile mix smooths that out at 3× cost.
#[must_use]
pub fn expected_suffix_utility_est(
    app: &Application,
    schedule: &FSchedule,
    analysis: &ScheduleAnalysis,
    from: usize,
    start: Time,
) -> f64 {
    let q25 = suffix_utility_pass(app, schedule, analysis, from, start, |t| {
        t.bcet().midpoint(t.aet())
    });
    let q50 = suffix_utility_pass(app, schedule, analysis, from, start, |t| t.aet());
    let q75 = suffix_utility_pass(app, schedule, analysis, from, start, |t| {
        t.aet().midpoint(t.wcet())
    });
    0.25 * q25 + 0.5 * q50 + 0.25 * q75
}

fn suffix_utility_pass(
    app: &Application,
    schedule: &FSchedule,
    analysis: &ScheduleAnalysis,
    from: usize,
    start: Time,
    duration: impl Fn(&crate::ExecutionTimes) -> Time,
) -> f64 {
    let mut dropped = schedule.dropped_mask(app);
    // Entries before `from` are treated as completed (not dropped).
    let mut alpha = StaleAlpha::new(app, &dropped);
    suffix_utility_core(
        app,
        schedule,
        analysis,
        from,
        start,
        duration,
        &mut dropped,
        &mut alpha,
    )
}

/// The shared pass body of the scalar (one start time) evaluation; the
/// batched sweep ([`sweep_pass`]) reproduces this walk's decisions and
/// addition order segment-by-segment over a whole sample grid.
#[allow(clippy::too_many_arguments)]
fn suffix_utility_core(
    app: &Application,
    schedule: &FSchedule,
    analysis: &ScheduleAnalysis,
    from: usize,
    start: Time,
    duration: impl Fn(&crate::ExecutionTimes) -> Time,
    dropped: &mut [bool],
    alpha: &mut StaleAlpha,
) -> f64 {
    let k = app.faults().k;
    let mut now = start;
    let mut total = 0.0;
    for (pos, e) in schedule.entries().iter().enumerate().skip(from) {
        let times = app.process(e.process).times();
        let lst = analysis.latest_start(app, e, pos, k);
        if !app.is_hard(e.process) && now > lst {
            dropped[e.process.index()] = true;
            alpha.mark_dropped(e.process);
            continue;
        }
        now += duration(times);
        let a = alpha.resolve(app, e.process);
        if let Some(u) = app.process(e.process).criticality().utility() {
            total += a * u.value(now);
        }
    }
    total
}

/// Precomputed per-schedule base state for repeated suffix-utility
/// evaluations of the *same* schedule at many start times — the interval-
/// partitioning sweep evaluates hundreds of completion-time samples per
/// arc, and rebuilding the dropped mask and stale-coefficient seed per
/// sample dominated small-application synthesis.
#[derive(Debug, Clone, Default)]
pub(crate) struct SuffixUtilityBase {
    dropped: Vec<bool>,
    alpha: StaleAlpha,
}

impl SuffixUtilityBase {
    /// Re-captures `schedule`'s static state in place, reusing the
    /// buffers — equivalent to capturing a fresh base from the
    /// schedule's dropped mask, without the per-arc allocations.
    pub(crate) fn rebuild(&mut self, app: &Application, schedule: &FSchedule) {
        self.dropped.clear();
        self.dropped.extend_from_slice(&schedule.context().dropped);
        self.dropped.resize(app.len(), false);
        for &d in schedule.statically_dropped() {
            self.dropped[d.index()] = true;
        }
        self.alpha.reset(app.len());
        for (i, &d) in self.dropped.iter().enumerate() {
            if d {
                self.alpha.mark_dropped(NodeId::from_index(i));
            }
        }
    }
}

/// Per-process [`CompiledUtility`] tables for one application, built once
/// per synthesis and shared read-only by every interval-sweep worker.
/// Indexed by node; hard processes (no utility function) hold `None`.
#[derive(Debug)]
pub(crate) struct CompiledUtilities {
    per_process: Vec<Option<crate::CompiledUtility>>,
}

impl CompiledUtilities {
    /// Compiles every soft process's utility function of `app`.
    pub(crate) fn build(app: &Application) -> Self {
        let mut per_process = vec![None; app.len()];
        for id in app.processes() {
            per_process[id.index()] = app
                .process(id)
                .criticality()
                .utility()
                .map(|u| u.compiled());
        }
        CompiledUtilities { per_process }
    }

    pub(crate) fn get(&self, id: NodeId) -> Option<&crate::CompiledUtility> {
        self.per_process[id.index()].as_ref()
    }
}

/// One suffix entry kept (not dropped) by a sweep segment's walk: within
/// the segment its completion is `tc + completion_offset`, contributing
/// `alpha * utility(tc + completion_offset)` for every sample `tc`.
#[derive(Debug, Clone, Copy)]
struct KeptEntry {
    process: NodeId,
    completion_offset: u64,
    alpha: f64,
}

/// Transient state of one segmented sweep pass (the per-segment suffix
/// walk); lives in [`SweepScratch`] so passes allocate nothing.
#[derive(Debug, Default)]
struct SweepWalk {
    alpha: StaleAlpha,
    kept: Vec<KeptEntry>,
}

/// Per-quantile sample buffers of one sweep evaluation.
#[derive(Debug, Default)]
struct QuantileBufs {
    q25: Vec<f64>,
    q50: Vec<f64>,
    q75: Vec<f64>,
}

/// Reusable buffers for one arc's batched interval-partitioning sweep:
/// the sample grid, the child/parent estimator curves over it, and the
/// per-segment walk state. Owned by the synthesis scratch (serial sweeps
/// and the first parallel worker) or created once per extra worker — the
/// sweep itself allocates nothing per arc.
#[derive(Debug, Default)]
pub(crate) struct SweepScratch {
    /// Ascending completion-time samples (ms) of the current arc.
    pub(crate) grid: Vec<u64>,
    /// Estimated suffix utility of switching to the child, per sample.
    pub(crate) child_out: Vec<f64>,
    /// Estimated suffix utility of staying with the parent, per sample.
    pub(crate) parent_out: Vec<f64>,
    child_base: SuffixUtilityBase,
    parent_base: SuffixUtilityBase,
    walk: SweepWalk,
    quantiles: QuantileBufs,
}

impl SweepScratch {
    /// Evaluates one arc: builds the sample grid (`lo`, `lo + step`, …,
    /// clamped to end exactly at `hi` — the same sequence the scalar
    /// sweep visits) and fills `child_out` / `parent_out` with the
    /// estimator curves of the child suffix (from position 0) and the
    /// parent suffix (from `parent_from`). Every value is bit-identical
    /// to the per-sample scalar evaluation the oracle performs.
    ///
    /// Samples past `eval_up_to` are never useful to the caller (the
    /// scalar sweep short-circuits them on its hard-safety bound without
    /// ever evaluating utilities there), so the curves are only computed
    /// for the grid prefix `<= eval_up_to` — `child_out.len()` reports
    /// how many samples were evaluated.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn eval_arc(
        &mut self,
        app: &Application,
        compiled: &CompiledUtilities,
        lo: Time,
        hi: Time,
        step: u64,
        eval_up_to: Time,
        child: (&FSchedule, &ScheduleAnalysis),
        parent: (&FSchedule, &ScheduleAnalysis),
        parent_from: usize,
    ) {
        debug_assert!(lo <= hi && step > 0);
        self.grid.clear();
        let (lo, hi) = (lo.as_ms(), hi.as_ms());
        let mut tc = lo;
        loop {
            self.grid.push(tc);
            if tc >= hi {
                break;
            }
            tc = (tc + step).min(hi);
        }
        self.child_base.rebuild(app, child.0);
        self.parent_base.rebuild(app, parent.0);
        let n = self.grid.partition_point(|&tc| tc <= eval_up_to.as_ms());
        self.child_out.clear();
        self.child_out.resize(n, 0.0);
        self.parent_out.clear();
        self.parent_out.resize(n, 0.0);
        let eval_grid = &self.grid[..n];
        sweep_est(
            app,
            child.0,
            child.1,
            0,
            &self.child_base,
            compiled,
            eval_grid,
            &mut self.walk,
            &mut self.quantiles,
            &mut self.child_out,
        );
        sweep_est(
            app,
            parent.0,
            parent.1,
            parent_from,
            &self.parent_base,
            compiled,
            eval_grid,
            &mut self.walk,
            &mut self.quantiles,
            &mut self.parent_out,
        );
    }
}

/// Batched sibling of [`expected_suffix_utility_est`]: fills
/// `out[i]` with the estimate at start time `grid[i]`, for the whole
/// ascending grid at once.
#[allow(clippy::too_many_arguments)]
fn sweep_est(
    app: &Application,
    schedule: &FSchedule,
    analysis: &ScheduleAnalysis,
    from: usize,
    base: &SuffixUtilityBase,
    compiled: &CompiledUtilities,
    grid: &[u64],
    walk: &mut SweepWalk,
    quantiles: &mut QuantileBufs,
    out: &mut [f64],
) {
    let mut pass = |duration: fn(&crate::ExecutionTimes) -> Time, out: &mut [f64]| {
        sweep_pass(
            app, schedule, analysis, from, duration, base, compiled, grid, walk, out,
        );
    };
    let n = grid.len();
    quantiles.q25.clear();
    quantiles.q25.resize(n, 0.0);
    quantiles.q50.clear();
    quantiles.q50.resize(n, 0.0);
    quantiles.q75.clear();
    quantiles.q75.resize(n, 0.0);
    pass(|t| t.bcet().midpoint(t.aet()), &mut quantiles.q25);
    pass(|t| t.aet(), &mut quantiles.q50);
    pass(|t| t.aet().midpoint(t.wcet()), &mut quantiles.q75);
    // Combined exactly as the scalar estimator combines its three
    // passes, per sample.
    for (i, slot) in out.iter_mut().enumerate() {
        *slot = 0.25 * quantiles.q25[i] + 0.5 * quantiles.q50[i] + 0.25 * quantiles.q75[i];
    }
}

/// One duration-quantile pass of the segmented sweep.
///
/// The scalar pass re-walks the suffix for every sample. Here the walk
/// runs once per *segment* — a maximal run of ascending samples over
/// which the drop set is fixed. Within a segment every kept entry `e`
/// completes at `tc + completion_offset(e)` (the offset is the sum of
/// kept durations before it, a constant), so its contribution over all
/// the segment's samples is one [`crate::CompiledUtility`] merge fill,
/// shifted by the offset and scaled by the entry's stale coefficient.
/// Segment boundaries are the drop-set change events: a kept soft entry
/// crosses its latest-start bound at `tc = lst - offset`, and the walk at
/// the next segment's first sample re-derives the cascaded consequences
/// (offsets shrink when an entry drops, which can revive later entries).
///
/// Bit-identity with the scalar pass holds because (a) within a segment
/// the scalar walk provably makes the same drop decisions at every
/// sample, (b) the accumulator rows are updated in entry order, so each
/// sample's f64 additions happen in the scalar walk's order, and (c) the
/// compiled per-term arithmetic `alpha * value(t)` matches the
/// interpreted term bit for bit.
#[allow(clippy::too_many_arguments)]
fn sweep_pass(
    app: &Application,
    schedule: &FSchedule,
    analysis: &ScheduleAnalysis,
    from: usize,
    duration: fn(&crate::ExecutionTimes) -> Time,
    base: &SuffixUtilityBase,
    compiled: &CompiledUtilities,
    grid: &[u64],
    walk: &mut SweepWalk,
    out: &mut [f64],
) {
    debug_assert_eq!(grid.len(), out.len());
    out.fill(0.0);
    let k = app.faults().k;
    let entries = schedule.entries();
    let mut s = 0usize;
    while s < grid.len() {
        let tc = grid[s];
        walk.alpha.copy_from(&base.alpha);
        walk.kept.clear();
        let mut offset = 0u64;
        // Largest sweep value for which this walk's drop set still holds.
        let mut segment_end_tc = u64::MAX;
        for (pos, e) in entries.iter().enumerate().skip(from) {
            let times = app.process(e.process).times();
            if !app.is_hard(e.process) {
                let lst = analysis.latest_start(app, e, pos, k).as_ms();
                if tc + offset > lst {
                    walk.alpha.mark_dropped(e.process);
                    continue;
                }
                segment_end_tc = segment_end_tc.min(lst - offset);
            }
            offset += duration(times).as_ms();
            let alpha = walk.alpha.resolve(app, e.process);
            if compiled.get(e.process).is_some() {
                walk.kept.push(KeptEntry {
                    process: e.process,
                    completion_offset: offset,
                    alpha,
                });
            }
        }
        let mut end = s + 1;
        while end < grid.len() && grid[end] <= segment_end_tc {
            end += 1;
        }
        let seg_grid = &grid[s..end];
        let seg_out = &mut out[s..end];
        for ke in &walk.kept {
            let u = compiled
                .get(ke.process)
                .expect("kept entries have utilities");
            u.accumulate_shifted(seg_grid, ke.completion_offset, ke.alpha, seg_out);
        }
        s = end;
    }
}

/// Incremental stale-coefficient resolver used by schedule evaluation: the
/// coefficient of a process is computed from its predecessors' coefficients
/// under the evolving dropped mask.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct StaleAlpha {
    alpha: Vec<f64>,
    resolved: Vec<bool>,
}

impl StaleAlpha {
    /// Initializes from a dropped mask: dropped processes resolve to 0.
    pub(crate) fn new(app: &Application, dropped: &[bool]) -> Self {
        let mut s = StaleAlpha {
            alpha: vec![0.0; app.len()],
            resolved: vec![false; app.len()],
        };
        for (i, &d) in dropped.iter().enumerate() {
            if d {
                s.alpha[i] = 0.0;
                s.resolved[i] = true;
            }
        }
        s
    }

    /// Marks `id` dropped (coefficient 0).
    pub(crate) fn mark_dropped(&mut self, id: NodeId) {
        self.alpha[id.index()] = 0.0;
        self.resolved[id.index()] = true;
    }

    /// Resolves the coefficient of `id`, recursively resolving predecessors
    /// (predecessors of a scheduled process are always decided earlier, so
    /// recursion depth is bounded by the graph depth).
    pub(crate) fn resolve(&mut self, app: &Application, id: NodeId) -> f64 {
        if self.resolved[id.index()] {
            return self.alpha[id.index()];
        }
        let mut sum = 0.0;
        let mut count = 0usize;
        for p in app.graph().predecessors(id) {
            sum += self.resolve(app, p);
            count += 1;
        }
        let a = (1.0 + sum) / (1.0 + count as f64);
        self.alpha[id.index()] = a;
        self.resolved[id.index()] = true;
        a
    }

    /// Resets to the all-unresolved state for `n` processes, reusing the
    /// buffers — equivalent to `StaleAlpha::new` over an empty dropped
    /// mask.
    pub(crate) fn reset(&mut self, n: usize) {
        self.alpha.clear();
        self.alpha.resize(n, 0.0);
        self.resolved.clear();
        self.resolved.resize(n, false);
    }

    /// Overwrites `self` with `other`'s state, reusing existing buffers
    /// (the allocation-free replacement for `clone()` in synthesis inner
    /// loops).
    pub(crate) fn copy_from(&mut self, other: &StaleAlpha) {
        self.alpha.clear();
        self.alpha.extend_from_slice(&other.alpha);
        self.resolved.clear();
        self.resolved.extend_from_slice(&other.resolved);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ExecutionTimes, FaultModel, UtilityFunction};

    fn t(ms: u64) -> Time {
        Time::from_ms(ms)
    }

    /// The application of Fig. 1 / Fig. 4 with the Fig. 4a utility
    /// functions: hard P1 (d = 180), soft P2, P3; k = 1, µ = 10, T = 300.
    fn fig1_app() -> (Application, [NodeId; 3]) {
        let mut b = Application::builder(t(300), FaultModel::new(1, t(10)));
        let p1 = b.add_hard("P1", ExecutionTimes::uniform(t(30), t(70)).unwrap(), t(180));
        // U2: 40 until 90, 20 until 200, 10 until 250, then 0.
        let p2 = b.add_soft(
            "P2",
            ExecutionTimes::uniform(t(30), t(70)).unwrap(),
            UtilityFunction::step(40.0, [(t(90), 20.0), (t(200), 10.0), (t(250), 0.0)]).unwrap(),
        );
        // U3: 40 until 110, 30 until 150, 10 until 220, then 0.
        let p3 = b.add_soft(
            "P3",
            ExecutionTimes::uniform(t(40), t(80)).unwrap(),
            UtilityFunction::step(40.0, [(t(110), 30.0), (t(150), 10.0), (t(220), 0.0)]).unwrap(),
        );
        b.add_dependency(p1, p2).unwrap();
        b.add_dependency(p1, p3).unwrap();
        (b.build().unwrap(), [p1, p2, p3])
    }

    fn schedule_of(app: &Application, order: &[(NodeId, usize)]) -> FSchedule {
        FSchedule::new(
            order
                .iter()
                .map(|&(process, reexecutions)| ScheduleEntry {
                    process,
                    reexecutions,
                })
                .collect(),
            Vec::new(),
            ScheduleContext::root(app),
        )
    }

    #[test]
    fn nominal_completions_accumulate_wcets() {
        let (app, [p1, p2, p3]) = fig1_app();
        let s = schedule_of(&app, &[(p1, 1), (p2, 0), (p3, 0)]);
        let a = s.analyze(&app);
        assert_eq!(a.nominal_completion(0), t(70));
        assert_eq!(a.nominal_completion(1), t(140));
        assert_eq!(a.nominal_completion(2), t(220));
    }

    #[test]
    fn worst_completion_adds_shared_fault_delay() {
        let (app, [p1, p2, p3]) = fig1_app();
        // Only P1 may re-execute: every prefix suffers at most one fault on
        // P1, costing wcet + mu = 80.
        let s = schedule_of(&app, &[(p1, 1), (p2, 0), (p3, 0)]);
        let a = s.analyze(&app);
        assert_eq!(a.worst_completion(0), t(70 + 80));
        assert_eq!(a.worst_completion(1), t(140 + 80));
        assert_eq!(a.worst_completion(2), t(220 + 80));
        assert!(a.is_schedulable(), "P1 wc 150 <= 180");
    }

    #[test]
    fn hard_deadline_violation_is_reported() {
        let (app, [p1, p2, p3]) = fig1_app();
        // Scheduling both soft processes before P1 pushes its worst case to
        // 70+80+70 + fault delay 80 = 300 > 180.
        let s = schedule_of(&app, &[(p2, 0), (p3, 0), (p1, 1)]);
        let a = s.analyze(&app);
        // (This order also violates precedence, but the analysis only does
        // timing; the scheduler never produces such orders.)
        assert!(!a.is_schedulable());
        let v = a.violation().unwrap();
        assert_eq!(v.process, p1);
        assert_eq!(v.deadline, t(180));
        assert_eq!(v.worst_completion, t(70 + 80 + 70 + 80));
    }

    #[test]
    fn soft_allowances_enlarge_the_shared_delay() {
        let (app, [p1, p2, p3]) = fig1_app();
        let s = schedule_of(&app, &[(p1, 1), (p2, 1), (p3, 1)]);
        let a = s.analyze(&app);
        // k = 1: the single fault lands on the largest penalty in the
        // prefix; after P3 (penalty 90) the delay is 90.
        assert_eq!(a.worst_completion(2), t(220 + 90));
    }

    #[test]
    fn hard_safe_start_reflects_remaining_budget() {
        let (app, [p1, p2, p3]) = fig1_app();
        let s = schedule_of(&app, &[(p1, 1), (p2, 0), (p3, 0)]);
        let a = s.analyze(&app);
        // At position 0 (P1 itself): with 1 fault remaining the latest start
        // is d - wcet - (wcet + mu) = 180 - 70 - 80 = 30; fault-free it is
        // 180 - 70 = 110.
        assert_eq!(a.hard_safe_start(0, 1), t(30));
        assert_eq!(a.hard_safe_start(0, 0), t(110));
        // No hard process after position 1.
        assert_eq!(a.hard_safe_start(1, 1), Time::MAX);
    }

    #[test]
    fn latest_start_caps_soft_entries_at_period() {
        let (app, [p1, p2, p3]) = fig1_app();
        let s = schedule_of(&app, &[(p1, 1), (p2, 0), (p3, 0)]);
        let a = s.analyze(&app);
        let e2 = s.entries()[1];
        // Soft P2 (bcet 30): latest runtime start is T - bcet = 270.
        assert_eq!(a.latest_start(&app, &e2, 1, 1), t(270));
        // Hard P1 keeps the deadline-driven bound.
        let e1 = s.entries()[0];
        assert_eq!(a.latest_start(&app, &e1, 0, 1), t(30));
    }

    #[test]
    fn fig4_average_case_utilities() {
        // Fig. 4b1/b2: S1 = P1,P2,P3 yields U = U2(100) + U3(160) = 20 + 10
        // = 30; S2 = P1,P3,P2 yields U3(110) + U2(160) = 40 + 20 = 60.
        let (app, [p1, p2, p3]) = fig1_app();
        let s1 = schedule_of(&app, &[(p1, 1), (p2, 0), (p3, 0)]);
        let s2 = schedule_of(&app, &[(p1, 1), (p3, 0), (p2, 0)]);
        let a1 = s1.analyze(&app);
        let a2 = s2.analyze(&app);
        let u1 = expected_suffix_utility(&app, &s1, &a1, 0, Time::ZERO);
        let u2 = expected_suffix_utility(&app, &s2, &a2, 0, Time::ZERO);
        assert_eq!(u1, 30.0);
        assert_eq!(u2, 60.0);
    }

    #[test]
    fn fig4b5_early_completion_flips_the_preference() {
        // "if P1 will finish sooner [at 30], the ordering of S1 is
        // preferable, since it leads to a utility of U2(80) + U3(140) =
        // 40 + 30 = 70, while the utility of S2 would be only 60."
        let (app, [p1, p2, p3]) = fig1_app();
        let s1 = schedule_of(&app, &[(p1, 1), (p2, 0), (p3, 0)]);
        let s2 = schedule_of(&app, &[(p1, 1), (p3, 0), (p2, 0)]);
        let a1 = s1.analyze(&app);
        let a2 = s2.analyze(&app);
        // Suffix after P1 completes at 30.
        let u1 = expected_suffix_utility(&app, &s1, &a1, 1, t(30));
        let u2 = expected_suffix_utility(&app, &s2, &a2, 1, t(30));
        assert_eq!(u1, 70.0);
        assert_eq!(u2, 60.0);
    }

    #[test]
    fn expected_utility_drops_soft_entries_past_their_lst() {
        let (app, [p1, p2, p3]) = fig1_app();
        let s = schedule_of(&app, &[(p1, 1), (p2, 0), (p3, 0)]);
        let a = s.analyze(&app);
        // Starting the suffix absurdly late: both softs start past T - bcet
        // and are dropped; utility 0.
        let u = expected_suffix_utility(&app, &s, &a, 1, t(299));
        assert_eq!(u, 0.0);
    }

    #[test]
    fn statically_dropped_processes_scale_successor_utilities() {
        let (app, [p1, p2, p3]) = fig1_app();
        // Drop P2 statically: its utility vanishes; P3 keeps alpha 1 (its
        // only predecessor P1 completes).
        let s = FSchedule::new(
            vec![
                ScheduleEntry {
                    process: p1,
                    reexecutions: 1,
                },
                ScheduleEntry {
                    process: p3,
                    reexecutions: 0,
                },
            ],
            vec![p2],
            ScheduleContext::root(&app),
        );
        let a = s.analyze(&app);
        let u = expected_suffix_utility(&app, &s, &a, 0, Time::ZERO);
        // P1 aet 50, P3 aet 60 -> completes 110 -> U3 = 40, alpha 1.
        assert_eq!(u, 40.0);
        let mask = s.dropped_mask(&app);
        assert!(mask[p2.index()]);
        assert!(!mask[p3.index()]);
    }

    #[test]
    fn stale_alpha_resolves_recursively() {
        let (app, [p1, p2, _p3]) = fig1_app();
        let mut dropped = vec![false; app.len()];
        dropped[p1.index()] = true;
        let mut sa = StaleAlpha::new(&app, &dropped);
        // P2's single predecessor P1 is dropped: alpha = (1+0)/(1+1) = 0.5.
        assert!((sa.resolve(&app, p2) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn batched_sweep_is_bit_identical_to_scalar_estimates() {
        // The segmented sweep must reproduce the per-sample scalar
        // estimator bit for bit — including across drop-set segment
        // boundaries (late start times drop soft entries).
        let (app, [p1, p2, p3]) = fig1_app();
        let child = schedule_of(&app, &[(p2, 0), (p3, 0)]);
        let parent = schedule_of(&app, &[(p1, 1), (p3, 0), (p2, 0)]);
        let ca = child.analyze(&app);
        let pa = parent.analyze(&app);
        let compiled = CompiledUtilities::build(&app);
        let mut sweep = SweepScratch::default();
        for step in [1u64, 7, 50] {
            sweep.eval_arc(
                &app,
                &compiled,
                Time::from_ms(30),
                app.period(),
                step,
                Time::MAX,
                (&child, &ca),
                (&parent, &pa),
                1,
            );
            assert!(sweep.grid.len() >= 2);
            assert_eq!(*sweep.grid.last().unwrap(), app.period().as_ms());
            assert_eq!(sweep.child_out.len(), sweep.grid.len());
            for (i, &tc) in sweep.grid.iter().enumerate() {
                let tc = Time::from_ms(tc);
                let want_child = expected_suffix_utility_est(&app, &child, &ca, 0, tc);
                let want_parent = expected_suffix_utility_est(&app, &parent, &pa, 1, tc);
                assert_eq!(
                    want_child.to_bits(),
                    sweep.child_out[i].to_bits(),
                    "step {step} tc {tc}: child {want_child} vs {}",
                    sweep.child_out[i]
                );
                assert_eq!(
                    want_parent.to_bits(),
                    sweep.parent_out[i].to_bits(),
                    "step {step} tc {tc}: parent {want_parent} vs {}",
                    sweep.parent_out[i]
                );
            }
        }
        // The evaluation clamp: only the grid prefix up to the bound is
        // computed (the scalar sweep never evaluates past it either).
        sweep.eval_arc(
            &app,
            &compiled,
            Time::from_ms(30),
            app.period(),
            1,
            Time::from_ms(100),
            (&child, &ca),
            (&parent, &pa),
            1,
        );
        assert_eq!(sweep.child_out.len(), 71, "samples 30..=100 at step 1");
        assert_eq!(sweep.parent_out.len(), 71);
        assert!(
            sweep.grid.len() > 71,
            "the grid itself still spans the range"
        );
    }

    #[test]
    fn context_accessors() {
        let (app, [p1, ..]) = fig1_app();
        let ctx = ScheduleContext::root(&app);
        assert!(ctx.is_pending(p1));
        assert_eq!(ctx.start, Time::ZERO);
    }
}
