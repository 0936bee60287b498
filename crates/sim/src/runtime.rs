//! The flat runtime: a cache-friendly structure-of-arrays image of a
//! synthesized [`QuasiStaticTree`] plus a batched, allocation-free Monte
//! Carlo executor on top of it.
//!
//! [`crate::OnlineScheduler`] is the *reference* runtime: readable,
//! event-traced, and pinned to the paper's semantics by the unit suite.
//! Its scenario loop, however, chases `TreeNodeId` indirections through
//! the arena, re-reads `Application` accessors (criticality, utility,
//! predecessor lists) per entry, evaluates latest-start bounds through
//! `ScheduleAnalysis` method calls, and allocates three `vec![...]`s plus
//! a [`Trace`] per scenario. At millions of scenarios those
//! costs dominate.
//!
//! [`FlatRuntime`] is built **once** per tree and flattens everything the
//! scenario loop touches into dense arrays:
//!
//! * per process: WCET, recovery overhead µ, deadline (saturated to
//!   `Time::MAX` when absent), the compiled utility handle, and the
//!   predecessor lists in CSR form (`pred_start` offsets into `preds`,
//!   preserving graph iteration order so stale-coefficient sums keep
//!   their exact f64 addition order);
//! * per tree node: CSR ranges of its schedule entries and static drops;
//! * per flattened entry: one packed record (process index, criticality,
//!   re-execution allowance, switch-arc range — everything the loop
//!   reads per entry in a single indexed load), the **fully
//!   precomputed latest-start table** (`k + 1` values, the `latest_start`
//!   bound for every remaining-budget value, including the soft period
//!   cap), and the CSR-sliced switch arcs conditioned on this entry
//!   (`lo`/`hi`/`child` columns — arc evaluation is a linear scan over a
//!   contiguous slice).
//!
//! [`FlatRuntime::run_cycle`] executes one scenario against that image
//! with zero allocation: per-worker state lives in a reusable
//! [`RunScratch`], events go to an [`EventSink`] generic (the batch path
//! passes [`NoTrace`], which compiles the event work away), and scenario
//! data is read through the [`ScenarioView`] trait (the batch path passes
//! the flat, reusable [`FlatScenario`] buffer). The loop body mirrors
//! `OnlineScheduler::run` statement for statement — same branch
//! structure, same f64 operation order — so outcomes, verdicts, utilities
//! and traces are **bit-identical** to the reference (pinned by the
//! `flat_runtime` integration suite across fault models, policies, and
//! in/out-of-model intensities, at every worker count).
//!
//! [`BatchRunner`] adds the Monte Carlo batching contract on top (see
//! `crate::montecarlo` for the RNG-stream contract it shares with the
//! reference harness): scenario `i` always draws from a fresh stream
//! seeded by `scenario_seed(base, i)`, so results are thread-count
//! invariant, and an explicit attempt-table width provides common random
//! numbers across intensity sweeps. The runner builds its
//! [`ScenarioSampler`] once and shares it read-only with its workers. A
//! fill stores raw generator outputs, and `run_cycle` maps only the
//! attempts it executes (see [`FlatScenario`]), so sampling costs one
//! generator step per attempt slot plus the fault plan.

use crate::montecarlo::{scenario_seed, Evaluation, MonteCarlo};
use crate::online::{DegradationVerdict, SimOutcome};
use crate::scenario::{ExecutionScenario, FaultModel, FlatScenario, ScenarioSampler, ScenarioView};
use crate::trace::{DropReason, EventSink, NoTrace, Trace, TraceEvent};
use ftqs_core::{Application, CompiledUtility, QuasiStaticTree, Time};
use ftqs_graph::NodeId;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Flat structure-of-arrays image of one application + quasi-static tree,
/// ready for batched scenario execution. See the module docs for the
/// layout.
#[derive(Debug, Clone)]
pub struct FlatRuntime {
    /// Number of processes.
    n: usize,
    /// Design fault budget.
    k: usize,

    // Per-process columns (index = node index). The WCET has no column:
    // it is duplicated into each entry's [`EntryRec`] (the overrun check
    // reads it per attempt).
    mu: Vec<Time>,
    /// `Time::MAX` encodes "no deadline" (soft processes) — the miss
    /// check `at > deadline` then never fires.
    deadline: Vec<Time>,
    utility: Vec<Option<CompiledUtility>>,
    /// CSR offsets into `preds`: predecessors of process `p` are
    /// `preds[pred_start[p]..pred_start[p + 1]]`, in graph iteration
    /// order (the stale-coefficient f64 sum order).
    pred_start: Vec<u32>,
    preds: Vec<u32>,

    // Per-node CSR ranges.
    root: u32,
    /// Entries of node `v` are the flat indices
    /// `entry_start[v]..entry_start[v + 1]`.
    entry_start: Vec<u32>,
    /// Static drops of node `v` are `drops[drop_start[v]..drop_start[v+1]]`.
    drop_start: Vec<u32>,
    drops: Vec<u32>,

    /// Packed per-flattened-entry metadata.
    entries: Vec<EntryRec>,
    /// Precomputed latest-start bounds, stride `k + 1`: entry `e` with
    /// remaining budget `r` reads `entry_lst[e * (k + 1) + r]`. Includes
    /// the soft period cap, i.e. exactly `ScheduleAnalysis::latest_start`.
    entry_lst: Vec<Time>,
    /// Switch-arc columns, sliced per entry by [`EntryRec`]'s
    /// `arc_start..arc_end` range, in the node's arc order (first match
    /// wins, as in `QuasiStaticTree::switch_target`).
    arc_lo: Vec<Time>,
    arc_hi: Vec<Time>,
    arc_child: Vec<u32>,
}

/// Everything [`FlatRuntime::run_cycle`] reads per schedule entry, packed
/// into one record so the per-entry cost is a single bounds-checked load
/// (the columnar layout paid five, on as many cache lines).
#[derive(Debug, Clone, Copy)]
struct EntryRec {
    /// The process's WCET, duplicated from the per-process column — read
    /// once per attempt for overrun detection.
    wcet: Time,
    /// Node index of the scheduled process.
    process: u32,
    /// Re-execution allowance (`ScheduleEntry::reexecutions`).
    reexec: u32,
    /// Start of this entry's conditioned switch arcs in the arc columns.
    arc_start: u32,
    /// End (exclusive) of this entry's conditioned switch arcs.
    arc_end: u32,
    /// Whether the process is hard (never dropped, deadline-checked).
    is_hard: bool,
}

impl FlatRuntime {
    /// Builds the flat image of `tree` over `app`, deriving the per-node
    /// schedule analyses internally.
    #[must_use]
    pub fn new(app: &Application, tree: &QuasiStaticTree) -> Self {
        let analyses = tree.analyses(app);
        let n = app.len();
        let k = app.faults().k;

        // Application image.
        let mut wcet = Vec::with_capacity(n);
        let mut mu = Vec::with_capacity(n);
        let mut deadline = Vec::with_capacity(n);
        let mut utility = Vec::with_capacity(n);
        let mut pred_start = Vec::with_capacity(n + 1);
        let mut preds: Vec<u32> = Vec::new();
        for p in app.processes() {
            let proc = app.process(p);
            wcet.push(proc.times().wcet());
            mu.push(app.recovery_overhead(p));
            deadline.push(proc.criticality().deadline().unwrap_or(Time::MAX));
            utility.push(proc.criticality().utility().map(|u| u.compiled()));
            pred_start.push(preds.len() as u32);
            preds.extend(app.graph().predecessors(p).map(|q| q.index() as u32));
        }
        pred_start.push(preds.len() as u32);

        // Tree image.
        let total_entries = tree.total_entries();
        let mut entry_start = Vec::with_capacity(tree.len() + 1);
        let mut drop_start = Vec::with_capacity(tree.len() + 1);
        let mut drops: Vec<u32> = Vec::with_capacity(tree.total_static_drops());
        let mut entries: Vec<EntryRec> = Vec::with_capacity(total_entries);
        let mut entry_lst = Vec::with_capacity(total_entries * (k + 1));
        let mut arc_lo = Vec::new();
        let mut arc_hi = Vec::new();
        let mut arc_child = Vec::new();

        for (id, node, schedule) in tree.iter_schedules() {
            entry_start.push(entries.len() as u32);
            drop_start.push(drops.len() as u32);
            drops.extend(
                schedule
                    .statically_dropped()
                    .iter()
                    .map(|d| d.index() as u32),
            );
            let analysis = &analyses[id];
            for (pos, entry) in schedule.entries().iter().enumerate() {
                for r in 0..=k {
                    entry_lst.push(analysis.latest_start(app, entry, pos, r));
                }
                let arc_start = arc_lo.len() as u32;
                // Arcs conditioned on this entry, preserving the node's
                // arc order so "first matching arc" is unchanged.
                for arc in node.arcs.iter().filter(|a| a.pivot_pos == pos) {
                    arc_lo.push(arc.lo);
                    arc_hi.push(arc.hi);
                    arc_child.push(arc.child as u32);
                }
                entries.push(EntryRec {
                    wcet: wcet[entry.process.index()],
                    process: entry.process.index() as u32,
                    reexec: entry.reexecutions as u32,
                    arc_start,
                    arc_end: arc_lo.len() as u32,
                    is_hard: app.is_hard(entry.process),
                });
            }
        }
        entry_start.push(entries.len() as u32);
        drop_start.push(drops.len() as u32);

        FlatRuntime {
            n,
            k,
            mu,
            deadline,
            utility,
            pred_start,
            preds,
            root: tree.root() as u32,
            entry_start,
            drop_start,
            drops,
            entries,
            entry_lst,
            arc_lo,
            arc_hi,
            arc_child,
        }
    }

    /// Number of processes in the imaged application.
    #[must_use]
    pub fn processes(&self) -> usize {
        self.n
    }

    /// The design fault budget `k` the latest-start tables cover.
    #[must_use]
    pub fn fault_budget(&self) -> usize {
        self.k
    }

    /// Executes one scenario against the flat image. Allocation-free:
    /// per-cycle state lives in `scratch` (reused across calls), events
    /// go to `sink` (pass [`NoTrace`] to compile them away).
    ///
    /// Semantics are bit-identical to
    /// [`OnlineScheduler::run`](crate::OnlineScheduler::run); completion
    /// times remain readable from [`RunScratch::completions`] afterwards.
    pub fn run_cycle<V: ScenarioView, S: EventSink>(
        &self,
        scenario: &V,
        scratch: &mut RunScratch,
        sink: &mut S,
    ) -> CycleOutcome {
        scratch.reset(self.n);
        let k = self.k;
        let stride = k + 1;
        let completions = &mut scratch.completions;
        let dropped = &mut scratch.dropped;
        let alpha = &mut scratch.alpha;

        let mut node = self.root as usize;
        let mut now = Time::ZERO;
        let mut faults_seen = 0usize;
        let mut utility = 0.0f64;
        let mut deadline_miss: Option<(NodeId, Time, Time)> = None;
        let mut wcet_overruns = 0usize;
        let mut switches = 0usize;

        // Register the root schedule's static drops.
        for &d in &self.drops[self.drop_start[node] as usize..self.drop_start[node + 1] as usize] {
            dropped[d as usize] = true;
            sink.record(TraceEvent::Dropped {
                process: NodeId::from_index(d as usize),
                at: now,
                reason: DropReason::Static,
            });
        }

        // Walk the current node's flat entry range directly; a schedule
        // switch re-aims `e..end` at the child's range.
        let mut e = self.entry_start[node] as usize;
        let mut end = self.entry_start[node + 1] as usize;
        while e < end {
            let rec = self.entries[e];
            let p = rec.process as usize;
            let pid = NodeId::from_index(p);
            let hard = rec.is_hard;
            // Saturate: out-of-model scenarios can push faults_seen past
            // k, and the latest-start tables are only defined up to k.
            let remaining = k.saturating_sub(faults_seen);

            // Runtime dropping decision for soft processes.
            if !hard {
                let lst = self.entry_lst[e * stride + remaining];
                if now > lst {
                    dropped[p] = true;
                    sink.record(TraceEvent::Dropped {
                        process: pid,
                        at: now,
                        reason: DropReason::PastLatestStart,
                    });
                    e += 1;
                    continue;
                }
            }

            // Execute, re-executing on faults as allowed.
            let mut attempt = 0usize;
            let completed_at: Option<Time> = loop {
                sink.record(TraceEvent::Started {
                    process: pid,
                    attempt,
                    at: now,
                });
                let (d, hit) = scenario.attempt(p, attempt);
                if d > rec.wcet {
                    wcet_overruns += 1;
                }
                now += d;
                if !hit {
                    break Some(now);
                }
                faults_seen += 1;
                sink.record(TraceEvent::Fault {
                    process: pid,
                    attempt,
                    at: now,
                });
                let mu = self.mu[p];
                let may_recover = if hard {
                    true // hard processes always re-execute, even past the
                         // budget — degradation shows up as a late (or
                         // missed) deadline, never an abandoned hard process
                } else {
                    let lst = self.entry_lst[e * stride + k.saturating_sub(faults_seen)];
                    attempt < rec.reexec as usize && now + mu <= lst
                };
                if !may_recover {
                    break None;
                }
                now += mu; // recovery overhead before the re-execution
                attempt += 1;
            };

            match completed_at {
                Some(at) => {
                    completions[p] = Some(at);
                    // A schedule switch may revive a process an earlier
                    // node dropped statically; completing clears the mark.
                    dropped[p] = false;
                    // Stale coefficient: predecessors are all decided by
                    // now (the schedule respects precedence). Summed in
                    // stored (graph) order — the reference's f64 order.
                    let ps = self.pred_start[p] as usize;
                    let pe = self.pred_start[p + 1] as usize;
                    let mut sum = 0.0f64;
                    for &q in &self.preds[ps..pe] {
                        let q = q as usize;
                        sum += if dropped[q] { 0.0 } else { alpha[q] };
                    }
                    let a = (1.0 + sum) / (1.0 + (pe - ps) as f64);
                    alpha[p] = a;
                    let credited = match &self.utility[p] {
                        Some(u) => a * u.value(at),
                        None => 0.0,
                    };
                    utility += credited;
                    sink.record(TraceEvent::Completed {
                        process: pid,
                        at,
                        utility: credited,
                    });
                    let dl = self.deadline[p];
                    if at > dl {
                        sink.record(TraceEvent::DeadlineMiss {
                            process: pid,
                            at,
                            deadline: dl,
                        });
                        if deadline_miss.is_none() {
                            deadline_miss = Some((pid, dl, at));
                        }
                    }
                    // Consult switch arcs on the final completion.
                    let lo = rec.arc_start as usize;
                    let hi = rec.arc_end as usize;
                    let mut target: Option<usize> = None;
                    for i in lo..hi {
                        if self.arc_lo[i] <= at && at <= self.arc_hi[i] {
                            target = Some(self.arc_child[i] as usize);
                            break;
                        }
                    }
                    if let Some(next) = target {
                        sink.record(TraceEvent::Switched {
                            from: node,
                            to: next,
                            at,
                        });
                        switches += 1;
                        node = next;
                        e = self.entry_start[node] as usize;
                        end = self.entry_start[node + 1] as usize;
                        // The child schedule carries its own static drops.
                        let ds = self.drop_start[node] as usize;
                        let de = self.drop_start[node + 1] as usize;
                        for &d in &self.drops[ds..de] {
                            let d = d as usize;
                            if !dropped[d] && completions[d].is_none() {
                                dropped[d] = true;
                                sink.record(TraceEvent::Dropped {
                                    process: NodeId::from_index(d),
                                    at: now,
                                    reason: DropReason::Static,
                                });
                            }
                        }
                        continue;
                    }
                    e += 1;
                }
                None => {
                    dropped[p] = true;
                    sink.record(TraceEvent::Dropped {
                        process: pid,
                        at: now,
                        reason: DropReason::FaultNoRecovery,
                    });
                    e += 1;
                }
            }
        }

        let verdict = match deadline_miss {
            Some((process, deadline, completed_at)) => DegradationVerdict::HardMiss {
                process,
                deadline,
                completed_at,
            },
            None if faults_seen > k || wcet_overruns > 0 => DegradationVerdict::Degraded {
                faults_beyond_budget: faults_seen.saturating_sub(k),
                wcet_overruns,
            },
            None => DegradationVerdict::InModel,
        };
        CycleOutcome {
            utility,
            deadline_miss: deadline_miss.map(|(p, _, _)| p),
            makespan: now,
            faults_hit: faults_seen,
            wcet_overruns,
            switches,
            verdict,
        }
    }

    /// Convenience single-scenario entry point returning the same
    /// [`SimOutcome`] (full trace, completion table) as
    /// [`OnlineScheduler::run`](crate::OnlineScheduler::run). Allocates
    /// per call; batches should use [`FlatRuntime::run_cycle`] or
    /// [`BatchRunner`].
    #[must_use]
    pub fn run(&self, scenario: &ExecutionScenario) -> SimOutcome {
        let mut scratch = RunScratch::new();
        let mut trace = Trace::new();
        let out = self.run_cycle(scenario, &mut scratch, &mut trace);
        SimOutcome {
            utility: out.utility,
            completions: scratch.completions,
            deadline_miss: out.deadline_miss,
            makespan: out.makespan,
            faults_hit: out.faults_hit,
            wcet_overruns: out.wcet_overruns,
            verdict: out.verdict,
            trace,
        }
    }
}

/// Reusable per-worker cycle state for [`FlatRuntime::run_cycle`]: the
/// completion, dropped and stale-coefficient tables the reference runtime
/// allocates per scenario.
#[derive(Debug, Clone, Default)]
pub struct RunScratch {
    completions: Vec<Option<Time>>,
    dropped: Vec<bool>,
    alpha: Vec<f64>,
}

impl RunScratch {
    /// An empty scratch; the first cycle sizes it.
    #[must_use]
    pub fn new() -> Self {
        RunScratch::default()
    }

    /// Completion time per process from the most recent cycle (`None` if
    /// dropped or never reached), indexed by node index.
    #[must_use]
    pub fn completions(&self) -> &[Option<Time>] {
        &self.completions
    }

    fn reset(&mut self, n: usize) {
        // Steady-state batches hit the same `n` every cycle: overwrite in
        // place (a straight memset) instead of clear + re-extend.
        if self.completions.len() == n {
            self.completions.fill(None);
            self.dropped.fill(false);
            self.alpha.fill(0.0);
        } else {
            self.completions.clear();
            self.completions.resize(n, None);
            self.dropped.clear();
            self.dropped.resize(n, false);
            self.alpha.clear();
            self.alpha.resize(n, 0.0);
        }
    }
}

/// Result of one [`FlatRuntime::run_cycle`] — [`SimOutcome`] minus the
/// allocated parts (trace and completion table), plus the switch count
/// the reference derives from its trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CycleOutcome {
    /// Total utility produced by soft processes (stale-scaled).
    pub utility: f64,
    /// A hard process that missed its deadline, if any.
    pub deadline_miss: Option<NodeId>,
    /// Time at which the last process finished.
    pub makespan: Time,
    /// Faults that actually materialized (hit an executing process).
    pub faults_hit: usize,
    /// Execution attempts whose duration exceeded the process WCET.
    pub wcet_overruns: usize,
    /// Schedule switches taken.
    pub switches: usize,
    /// How gracefully the cycle degraded relative to the design contract.
    pub verdict: DegradationVerdict,
}

/// Batched Monte Carlo executor over a [`FlatRuntime`].
///
/// One shared, read-only flat image and one sampler serve every worker
/// thread; each worker owns a [`RunScratch`] + [`FlatScenario`] pair
/// reused across its whole scenario range, so the steady-state loop
/// performs no heap allocation. Scenario `i` always draws from a fresh
/// RNG stream seeded by `scenario_seed(base_seed, i)` — the same contract
/// as [`MonteCarlo`] — so results are invariant under the thread count
/// and identical to the reference harness.
#[derive(Debug)]
pub struct BatchRunner<'a> {
    runtime: &'a FlatRuntime,
    sampler: ScenarioSampler<'a>,
}

impl<'a> BatchRunner<'a> {
    /// Creates a runner drawing scenarios for `app` from `model` and
    /// executing them against `runtime`.
    #[must_use]
    pub fn new(app: &'a Application, runtime: &'a FlatRuntime, model: FaultModel) -> Self {
        BatchRunner {
            runtime,
            sampler: ScenarioSampler::with_model(app, model),
        }
    }

    /// Evaluates `config.scenarios` scenarios, each planning exactly
    /// `fault_count` faults — the batch behind [`MonteCarlo::evaluate`],
    /// with attempt tables sized to `max(k, fault_count) + 1` exactly as
    /// the reference sampler does.
    #[must_use]
    pub fn evaluate(&self, config: &MonteCarlo, fault_count: usize) -> Evaluation {
        let attempts = self.runtime.fault_budget().max(fault_count) + 1;
        self.evaluate_with_attempts(config, fault_count, attempts)
    }

    /// [`BatchRunner::evaluate`] with an explicit attempt-table width —
    /// the common-random-numbers hook: hold `attempts` fixed at
    /// `max(k, max intensity) + 1` across a sweep and every column
    /// consumes identical duration draws (see
    /// [`ScenarioSampler::sample_into_with_attempts`]).
    ///
    /// # Panics
    ///
    /// Panics (in the workers) if `attempts < max(k, fault_count) + 1`.
    #[must_use]
    pub fn evaluate_with_attempts(
        &self,
        config: &MonteCarlo,
        fault_count: usize,
        attempts: usize,
    ) -> Evaluation {
        let threads = crate::montecarlo::effective_threads(config.threads, config.scenarios);
        if threads <= 1 {
            return self.evaluate_range(fault_count, attempts, config.seed, 0, config.scenarios);
        }
        let chunk = config.scenarios.div_ceil(threads);
        let mut partials: Vec<Evaluation> = Vec::new();
        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for t in 0..threads {
                let lo = t * chunk;
                let hi = ((t + 1) * chunk).min(config.scenarios);
                if lo >= hi {
                    break;
                }
                let seed = config.seed;
                handles.push(
                    scope.spawn(move || self.evaluate_range(fault_count, attempts, seed, lo, hi)),
                );
            }
            for h in handles {
                partials.push(h.join().expect("worker thread panicked"));
            }
        });

        let mut total = Evaluation::default();
        for p in &partials {
            total.merge(p);
        }
        total
    }

    /// Evaluates the scenario index range `lo..hi` — the per-thread
    /// worker. Scratch and scenario buffers are allocated once here and
    /// reused for every scenario of the range.
    fn evaluate_range(
        &self,
        fault_count: usize,
        attempts: usize,
        seed: u64,
        lo: usize,
        hi: usize,
    ) -> Evaluation {
        let mut scratch = RunScratch::new();
        let mut scenario = FlatScenario::new();
        let mut eval = Evaluation::default();
        for i in lo..hi {
            let mut rng = StdRng::seed_from_u64(scenario_seed(seed, i as u64));
            self.sampler
                .sample_into_with_attempts(&mut rng, fault_count, attempts, &mut scenario);
            let out = self
                .runtime
                .run_cycle(&scenario, &mut scratch, &mut NoTrace);
            eval.record(&out);
        }
        eval
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::online::OnlineScheduler;
    use ftqs_core::{
        Engine, ExecutionTimes, FaultModel as DesignFaults, SynthesisRequest, UtilityFunction,
    };

    fn t(ms: u64) -> Time {
        Time::from_ms(ms)
    }

    fn fig1_app() -> Application {
        let mut b = Application::builder(t(300), DesignFaults::new(1, t(10)));
        let p1 = b.add_hard("P1", ExecutionTimes::uniform(t(30), t(70)).unwrap(), t(180));
        let p2 = b.add_soft(
            "P2",
            ExecutionTimes::uniform(t(30), t(70)).unwrap(),
            UtilityFunction::step(40.0, [(t(90), 20.0), (t(200), 10.0), (t(250), 0.0)]).unwrap(),
        );
        let p3 = b.add_soft(
            "P3",
            ExecutionTimes::uniform(t(40), t(80)).unwrap(),
            UtilityFunction::step(40.0, [(t(110), 30.0), (t(150), 10.0), (t(220), 0.0)]).unwrap(),
        );
        b.add_dependency(p1, p2).unwrap();
        b.add_dependency(p1, p3).unwrap();
        b.build().unwrap()
    }

    fn synth_tree(app: &Application, budget: usize) -> QuasiStaticTree {
        Engine::new()
            .session()
            .synthesize(app, &SynthesisRequest::ftqs(budget))
            .unwrap()
            .into_tree()
    }

    #[test]
    fn flat_image_shapes_match_the_tree() {
        let app = fig1_app();
        let tree = synth_tree(&app, 4);
        let rt = FlatRuntime::new(&app, &tree);
        assert_eq!(rt.processes(), app.len());
        assert_eq!(rt.fault_budget(), app.faults().k);
        assert_eq!(rt.entries.len(), tree.total_entries());
        assert_eq!(rt.drops.len(), tree.total_static_drops());
        assert_eq!(rt.entry_start.len(), tree.len() + 1);
        assert_eq!(
            rt.entry_lst.len(),
            tree.total_entries() * (app.faults().k + 1)
        );
        let arcs: usize = tree.iter().map(|(_, n)| n.arcs.len()).sum();
        assert_eq!(rt.arc_lo.len(), arcs);
    }

    #[test]
    fn flat_run_matches_reference_on_average_case() {
        let app = fig1_app();
        let tree = synth_tree(&app, 4);
        let reference = OnlineScheduler::new(&app, &tree);
        let rt = FlatRuntime::new(&app, &tree);
        let sc = ExecutionScenario::average_case(&app);
        let a = reference.run(&sc);
        let b = rt.run(&sc);
        assert_eq!(a.utility.to_bits(), b.utility.to_bits());
        assert_eq!(a.completions, b.completions);
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.verdict, b.verdict);
        assert_eq!(a.trace, b.trace);
    }

    #[test]
    fn flat_run_matches_reference_over_seeded_scenarios() {
        let app = fig1_app();
        let tree = synth_tree(&app, 6);
        let reference = OnlineScheduler::new(&app, &tree);
        let rt = FlatRuntime::new(&app, &tree);
        let sampler = ScenarioSampler::new(&app);
        let mut rng = StdRng::seed_from_u64(99);
        for f in 0..=3 {
            for _ in 0..200 {
                let sc = sampler.sample(&mut rng, f);
                let a = reference.run(&sc);
                let b = rt.run(&sc);
                assert_eq!(a.utility.to_bits(), b.utility.to_bits());
                assert_eq!(a.verdict, b.verdict);
                assert_eq!(a.completions, b.completions);
                assert_eq!(a.faults_hit, b.faults_hit);
                assert_eq!(a.trace, b.trace);
            }
        }
    }

    #[test]
    fn cycle_outcome_counts_switches() {
        let app = fig1_app();
        let tree = synth_tree(&app, 4);
        let rt = FlatRuntime::new(&app, &tree);
        // P1 at BCET triggers the early-completion switch arc.
        let durations: Vec<Vec<Time>> = app
            .processes()
            .map(|p| vec![app.process(p).times().aet(); 2])
            .collect();
        let mut durations = durations;
        durations[0] = vec![t(30); 2];
        let sc = ExecutionScenario::from_tables(
            durations,
            app.processes().map(|_| vec![false; 2]).collect(),
        );
        let mut scratch = RunScratch::new();
        let out = rt.run_cycle(&sc, &mut scratch, &mut NoTrace);
        assert!(out.switches >= 1, "expected a schedule switch");
        assert_eq!(out.switches, rt.run(&sc).trace.switch_count());
    }

    #[test]
    fn batch_runner_matches_monte_carlo_reference() {
        let app = fig1_app();
        let tree = synth_tree(&app, 4);
        let rt = FlatRuntime::new(&app, &tree);
        let mc = MonteCarlo {
            scenarios: 150,
            seed: 77,
            threads: 1,
        };
        let runner = BatchRunner::new(&app, &rt, FaultModel::Independent);
        let batched = runner.evaluate(&mc, 1);
        let reference = mc.evaluate(&app, &tree, 1);
        assert_eq!(
            batched.utility.mean().to_bits(),
            reference.utility.mean().to_bits()
        );
        assert_eq!(batched.deadline_misses, reference.deadline_misses);
        assert_eq!(batched.degraded, reference.degraded);
    }
}
