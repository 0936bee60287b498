//! The tree-walk reference runtime: executes a quasi-static tree (or a
//! single f-schedule wrapped in a one-node tree) against an execution
//! scenario by walking the tree directly. Callers run on
//! [`FlatRuntime`](crate::FlatRuntime), which is pinned bit-identical to
//! this walk; [`OnlineScheduler`] stays as the readable statement of the
//! semantics that tests and benches compare against.
//!
//! The runtime mirrors the paper's model:
//!
//! * processes run non-preemptively in the current schedule's order;
//! * a fault is detected at the end of the faulty execution; recovery costs
//!   µ before the re-execution starts (Fig. 3);
//! * hard processes are *always* re-executed; soft processes only while
//!   their granted allowance lasts and the restart stays within the latest
//!   safe start time (otherwise they are abandoned — dropped);
//! * a soft process whose start time exceeds its latest safe start (hard
//!   deadlines in danger, or it cannot complete within the period) is
//!   dropped and its consumers see stale inputs;
//! * after the *final* completion of each process the scheduler consults
//!   the current tree node's switch arcs and may move to a sub-schedule
//!   ("the scheduler will switch to the best one depending on the
//!   occurrence of faults and the actual execution times").
//!
//! # Degradation semantics
//!
//! The synthesized schedules are provably safe only *inside* the design
//! contract: at most `k` faults, every duration within `[bcet, wcet]`.
//! The runtime, however, must stay total when the environment breaks that
//! contract (see the out-of-model scenarios in `crate::scenario`). Rather
//! than panicking or silently mis-indexing, [`OnlineScheduler::run`]
//! always completes the cycle and labels it with a
//! [`DegradationVerdict`]:
//!
//! * **[`DegradationVerdict::InModel`]** — the materialized faults stayed
//!   within `k` and no duration exceeded its WCET. All guarantees hold;
//!   `deadline_miss` is `None` by the paper's construction. Note this is
//!   judged on *materialized* behaviour: a scenario that *plans* more
//!   than `k` faults but lands the excess on processes the scheduler
//!   drops still executes in-model.
//! * **[`DegradationVerdict::Degraded`]** — the contract was broken
//!   (faults beyond the budget and/or WCET overruns) yet every hard
//!   deadline still held; soft utility is whatever could be salvaged.
//!   Past the budget the runtime keeps its policy: hard processes always
//!   re-execute after a fault, soft processes re-execute while their
//!   allowance and latest-start bound permit, with all internal budget
//!   arithmetic saturating at zero.
//! * **[`DegradationVerdict::HardMiss`]** — a hard process completed
//!   after its deadline (the first such miss is reported, with a
//!   [`TraceEvent::DeadlineMiss`] in the trace). The cycle is still run
//!   to completion so utility/makespan describe the whole degraded
//!   cycle.
//!
//! `crate::montecarlo` aggregates these verdicts into hard-miss rates and
//! utility-degradation curves per fault intensity.

use crate::scenario::ExecutionScenario;
use crate::trace::{DropReason, EventSink, NoTrace, Trace, TraceEvent};
use ftqs_core::{Application, FSchedule, QuasiStaticTree, ScheduleAnalysis, Time, TreeNodeId};
use ftqs_graph::NodeId;

/// How gracefully one simulated cycle degraded relative to the design
/// contract (`k` faults, WCET-bounded durations) — see the module docs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DegradationVerdict {
    /// Materialized behaviour stayed within the design contract; all of
    /// the paper's guarantees hold.
    InModel,
    /// The contract was broken but every hard deadline still held; soft
    /// utility was salvaged on a best-effort basis.
    Degraded {
        /// Materialized faults beyond the design budget `k`.
        faults_beyond_budget: usize,
        /// Execution attempts whose duration exceeded the process WCET.
        wcet_overruns: usize,
    },
    /// A hard process completed after its deadline (first miss reported;
    /// the cycle still ran to completion).
    HardMiss {
        /// The hard process that missed.
        process: NodeId,
        /// Its deadline.
        deadline: Time,
        /// When it actually completed.
        completed_at: Time,
    },
}

impl DegradationVerdict {
    /// Whether this cycle kept every hard deadline.
    #[must_use]
    pub fn hard_deadlines_held(&self) -> bool {
        !matches!(self, DegradationVerdict::HardMiss { .. })
    }
}

/// Result of simulating one operation cycle.
#[derive(Debug, Clone)]
pub struct SimOutcome {
    /// Total utility produced by soft processes (stale-scaled).
    pub utility: f64,
    /// Completion time of each completed process (`None` if dropped or
    /// never reached), indexed by node index.
    pub completions: Vec<Option<Time>>,
    /// A hard process that missed its deadline, if any — the scheduler
    /// guarantees this stays `None` for in-model scenarios; out-of-model
    /// injection can populate it (see [`SimOutcome::verdict`]).
    pub deadline_miss: Option<NodeId>,
    /// Time at which the last process finished.
    pub makespan: Time,
    /// Faults that actually materialized (hit an executing process).
    pub faults_hit: usize,
    /// Execution attempts whose duration exceeded the process WCET
    /// (non-zero only under `FaultModel::WcetStress` or hand-built
    /// scenarios).
    pub wcet_overruns: usize,
    /// How gracefully the cycle degraded relative to the design contract.
    pub verdict: DegradationVerdict,
    /// Full event trace.
    pub trace: Trace,
}

/// Online quasi-static scheduler for one application and schedule tree.
///
/// Create once, then [`OnlineScheduler::run`] any number of scenarios —
/// the per-node analyses (latest-start tables) are precomputed.
///
/// # Example
///
/// ```
/// use ftqs_core::{Engine, SynthesisRequest};
/// use ftqs_sim::{ExecutionScenario, OnlineScheduler};
/// # use ftqs_core::{Application, ExecutionTimes, FaultModel, Time, UtilityFunction};
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// # let mut b = Application::builder(Time::from_ms(300), FaultModel::new(1, Time::from_ms(10)));
/// # let p1 = b.add_hard("P1", ExecutionTimes::uniform(30.into(), 70.into())?, Time::from_ms(180));
/// # let app = b.build()?;
/// let tree = Engine::new()
///     .session()
///     .synthesize(&app, &SynthesisRequest::ftqs(4))?
///     .into_tree();
/// let runner = OnlineScheduler::new(&app, &tree);
/// let outcome = runner.run(&ExecutionScenario::average_case(&app));
/// assert!(outcome.deadline_miss.is_none());
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct OnlineScheduler<'a> {
    app: &'a Application,
    tree: &'a QuasiStaticTree,
    analyses: Vec<ScheduleAnalysis>,
}

impl<'a> OnlineScheduler<'a> {
    /// Creates a scheduler for `tree` over `app`.
    #[must_use]
    pub fn new(app: &'a Application, tree: &'a QuasiStaticTree) -> Self {
        OnlineScheduler {
            app,
            tree,
            analyses: tree.analyses(app),
        }
    }

    /// Simulates one operation cycle under `scenario`, recording a full
    /// event trace.
    #[must_use]
    pub fn run(&self, scenario: &ExecutionScenario) -> SimOutcome {
        let mut trace = Trace::new();
        let mut out = self.run_with_sink(scenario, &mut trace);
        out.trace = trace;
        out
    }

    /// Simulates one operation cycle without recording events
    /// ([`SimOutcome::trace`] stays empty) — the event work compiles away
    /// entirely via the [`NoTrace`] sink.
    #[must_use]
    pub fn run_untraced(&self, scenario: &ExecutionScenario) -> SimOutcome {
        self.run_with_sink(scenario, &mut NoTrace)
    }

    /// Simulates one operation cycle, sending events to `sink`. The
    /// returned outcome carries an empty [`Trace`].
    pub fn run_with_sink<S: EventSink>(
        &self,
        scenario: &ExecutionScenario,
        sink: &mut S,
    ) -> SimOutcome {
        let app = self.app;
        let k = app.faults().k;
        let mut node: TreeNodeId = self.tree.root();
        let mut pos = 0usize;
        let mut now = Time::ZERO;
        let mut faults_seen = 0usize;

        // Per-process outcome state.
        let mut completions: Vec<Option<Time>> = vec![None; app.len()];
        let mut dropped: Vec<bool> = vec![false; app.len()];
        let mut alpha: Vec<f64> = vec![0.0; app.len()];
        let mut utility = 0.0;
        let mut deadline_miss: Option<(NodeId, Time, Time)> = None;
        let mut wcet_overruns = 0usize;

        // Register the root schedule's static drops.
        for &d in self.tree.node_schedule(node).statically_dropped() {
            dropped[d.index()] = true;
            sink.record(TraceEvent::Dropped {
                process: d,
                at: now,
                reason: DropReason::Static,
            });
        }

        loop {
            let schedule = self.tree.node_schedule(node);
            let analysis = &self.analyses[node];
            if pos >= schedule.entries().len() {
                break;
            }
            let entry = schedule.entries()[pos];
            let p = entry.process;
            let hard = app.is_hard(p);
            // Saturate: out-of-model scenarios can push faults_seen past k,
            // and the latest-start tables are only defined up to k.
            let remaining = k.saturating_sub(faults_seen);

            // Runtime dropping decision for soft processes.
            if !hard {
                let lst = analysis.latest_start(app, &entry, pos, remaining);
                if now > lst {
                    dropped[p.index()] = true;
                    sink.record(TraceEvent::Dropped {
                        process: p,
                        at: now,
                        reason: DropReason::PastLatestStart,
                    });
                    pos += 1;
                    continue;
                }
            }

            // Execute, re-executing on faults as allowed.
            let mut attempt = 0usize;
            let completed_at: Option<Time> = loop {
                sink.record(TraceEvent::Started {
                    process: p,
                    attempt,
                    at: now,
                });
                let d = scenario.duration(p, attempt);
                if d > app.process(p).times().wcet() {
                    wcet_overruns += 1;
                }
                now += d;
                if !scenario.is_faulty(p, attempt) {
                    break Some(now);
                }
                faults_seen += 1;
                sink.record(TraceEvent::Fault {
                    process: p,
                    attempt,
                    at: now,
                });
                let mu = app.recovery_overhead(p);
                let may_recover = if hard {
                    true // hard processes always re-execute, even past the
                         // budget — degradation shows up as a late (or
                         // missed) deadline, never an abandoned hard process
                } else {
                    let lst =
                        analysis.latest_start(app, &entry, pos, k.saturating_sub(faults_seen));
                    attempt < entry.reexecutions && now + mu <= lst
                };
                if !may_recover {
                    break None;
                }
                now += mu; // recovery overhead before the re-execution
                attempt += 1;
            };

            match completed_at {
                Some(at) => {
                    completions[p.index()] = Some(at);
                    // A schedule switch may revive a process an earlier node
                    // dropped statically; completing clears the mark.
                    dropped[p.index()] = false;
                    // Stale coefficient: predecessors are all decided by now
                    // (the schedule respects precedence).
                    let preds: Vec<NodeId> = app.graph().predecessors(p).collect();
                    let sum: f64 = preds
                        .iter()
                        .map(|q| {
                            if dropped[q.index()] {
                                0.0
                            } else {
                                alpha[q.index()]
                            }
                        })
                        .sum();
                    let a = (1.0 + sum) / (1.0 + preds.len() as f64);
                    alpha[p.index()] = a;
                    let credited = match app.process(p).criticality().utility() {
                        Some(u) => a * u.value(at),
                        None => 0.0,
                    };
                    utility += credited;
                    sink.record(TraceEvent::Completed {
                        process: p,
                        at,
                        utility: credited,
                    });
                    if let Some(d) = app.process(p).criticality().deadline() {
                        if at > d {
                            sink.record(TraceEvent::DeadlineMiss {
                                process: p,
                                at,
                                deadline: d,
                            });
                            if deadline_miss.is_none() {
                                deadline_miss = Some((p, d, at));
                            }
                        }
                    }
                    // Consult switch arcs on the final completion.
                    if let Some(next) = self.tree.switch_target(node, pos, at) {
                        sink.record(TraceEvent::Switched {
                            from: node,
                            to: next,
                            at,
                        });
                        node = next;
                        pos = 0;
                        // The child schedule carries its own static drops.
                        for &d in self.tree.node_schedule(node).statically_dropped() {
                            if !dropped[d.index()] && completions[d.index()].is_none() {
                                dropped[d.index()] = true;
                                sink.record(TraceEvent::Dropped {
                                    process: d,
                                    at: now,
                                    reason: DropReason::Static,
                                });
                            }
                        }
                        continue;
                    }
                    pos += 1;
                }
                None => {
                    dropped[p.index()] = true;
                    sink.record(TraceEvent::Dropped {
                        process: p,
                        at: now,
                        reason: DropReason::FaultNoRecovery,
                    });
                    pos += 1;
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
        SimOutcome {
            utility,
            completions,
            deadline_miss: deadline_miss.map(|(p, _, _)| p),
            makespan: now,
            // Every increment of `faults_seen` records exactly one Fault
            // event, so this equals the trace's fault count without
            // consulting the (possibly absent) trace.
            faults_hit: faults_seen,
            wcet_overruns,
            verdict,
            trace: Trace::new(),
        }
    }

    /// Convenience: simulate a bare f-schedule (no tree) by wrapping it in
    /// a single-node tree.
    #[must_use]
    pub fn run_static(
        app: &Application,
        schedule: &FSchedule,
        scenario: &ExecutionScenario,
    ) -> SimOutcome {
        let tree = QuasiStaticTree::single(schedule.clone());
        OnlineScheduler::new(app, &tree).run(scenario)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftqs_core::{Engine, ExecutionTimes, FaultModel, SynthesisRequest, UtilityFunction};

    fn t(ms: u64) -> Time {
        Time::from_ms(ms)
    }

    fn synth_tree(app: &Application, budget: usize) -> QuasiStaticTree {
        Engine::new()
            .session()
            .synthesize(app, &SynthesisRequest::ftqs(budget))
            .unwrap()
            .into_tree()
    }

    fn synth_ftss(app: &Application) -> FSchedule {
        Engine::new()
            .session()
            .synthesize(app, &SynthesisRequest::ftss())
            .unwrap()
            .root_schedule()
            .clone()
    }

    fn et(b: u64, w: u64) -> ExecutionTimes {
        ExecutionTimes::uniform(t(b), t(w)).unwrap()
    }

    /// The paper's Fig. 1 / Fig. 4 application.
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

    fn scenario_with(
        app: &Application,
        durs: &[(NodeId, [u64; 2])],
        faults: &[(NodeId, usize)],
    ) -> ExecutionScenario {
        let mut durations: Vec<Vec<Time>> = app
            .processes()
            .map(|p| {
                let w = app.process(p).times().wcet();
                vec![w; 2]
            })
            .collect();
        let mut faulty: Vec<Vec<bool>> = app.processes().map(|_| vec![false; 2]).collect();
        for &(p, ds) in durs {
            durations[p.index()] = ds.iter().map(|&d| t(d)).collect();
        }
        for &(p, a) in faults {
            faulty[p.index()][a] = true;
        }
        ExecutionScenario::from_tables(durations, faulty)
    }

    #[test]
    fn average_case_static_schedule_matches_fig4_s2() {
        // FTSS's root is S2 = P1, P3, P2; in the average case utilities are
        // U3(110) + U2(160) = 40 + 20 = 60 (Fig. 4b2).
        let (app, _) = fig1_app();
        let s = synth_ftss(&app);
        let out = OnlineScheduler::run_static(&app, &s, &ExecutionScenario::average_case(&app));
        assert_eq!(out.utility, 60.0);
        assert!(out.deadline_miss.is_none());
        assert_eq!(out.makespan, t(160));
    }

    #[test]
    fn quasi_static_tree_switches_on_early_completion() {
        // When P1 finishes at 30, the tree switches to the P2-first child
        // and harvests Fig. 4b5's utility 70 instead of 60.
        let (app, [p1, ..]) = fig1_app();
        let tree = synth_tree(&app, 4);
        let runner = OnlineScheduler::new(&app, &tree);
        let sc = scenario_with(&app, &[(p1, [30, 30])], &[]);
        // Soft processes at AET for comparability.
        let mut durations: Vec<Vec<Time>> = app
            .processes()
            .map(|p| vec![app.process(p).times().aet(); 2])
            .collect();
        durations[p1.index()] = vec![t(30); 2];
        let sc2 = ExecutionScenario::from_tables(
            durations,
            app.processes().map(|_| vec![false; 2]).collect(),
        );
        let out = runner.run(&sc2);
        assert!(out.trace.switch_count() >= 1, "expected a schedule switch");
        assert_eq!(out.utility, 70.0);
        let _ = sc;
    }

    #[test]
    fn fault_on_hard_process_triggers_reexecution() {
        let (app, [p1, ..]) = fig1_app();
        let s = synth_ftss(&app);
        // P1 faults on its first attempt (70ms), recovers (10ms), runs again
        // (70ms): completes at 150 <= 180. Worst case of Fig. 4b1/b2.
        let sc = scenario_with(&app, &[], &[(p1, 0)]);
        let out = OnlineScheduler::run_static(&app, &s, &sc);
        assert!(out.deadline_miss.is_none());
        assert_eq!(out.completions[p1.index()], Some(t(150)));
        assert_eq!(out.trace.fault_count(), 1);
    }

    #[test]
    fn soft_process_without_allowance_is_abandoned_on_fault() {
        let (app, [_, p2, p3]) = fig1_app();
        let s = synth_ftss(&app);
        // Fault P3 (scheduled right after P1). Whether it re-executes
        // depends on its granted allowance; if abandoned, it must be marked
        // dropped and P2 still runs.
        let sc = scenario_with(&app, &[], &[(p3, 0)]);
        let out = OnlineScheduler::run_static(&app, &s, &sc);
        assert!(out.deadline_miss.is_none());
        // P2 always completes.
        assert!(out.completions[p2.index()].is_some());
    }

    #[test]
    fn late_running_schedule_drops_soft_past_period() {
        // Force worst-case times plus a fault on P1: P2 (last) would start
        // at 150+80 = 230 and complete at 300 — exactly the period. Push
        // one more: make P3 take wcet so P2 starts at 230... With the
        // default schedule P1,P3,P2 all-wcet + fault: P1 done 150, P3 done
        // 230, P2 would complete at 300 = T, which is allowed (not > LST
        // = T - bcet = 270... start 230 <= 270: executes).
        let (app, [p1, p2, _]) = fig1_app();
        let s = synth_ftss(&app);
        let sc = scenario_with(&app, &[], &[(p1, 0)]);
        let out = OnlineScheduler::run_static(&app, &s, &sc);
        assert!(out.completions[p2.index()].is_some());
        assert_eq!(out.makespan, t(300));
        assert!(out.deadline_miss.is_none());
    }

    #[test]
    fn stale_coefficients_scale_runtime_utility() {
        // A fault abandons `mid` (its re-execution would be worthless, so
        // FTSS grants it no allowance); its consumer `snk` then runs with a
        // stale input and half the coefficient.
        let mut b = Application::builder(t(1000), FaultModel::new(1, t(10)));
        let src = b.add_soft("src", et(10, 10), UtilityFunction::constant(5.0).unwrap());
        let mid = b.add_soft(
            "mid",
            et(10, 10),
            UtilityFunction::step(10.0, [(t(25), 0.0)]).unwrap(), // expires fast
        );
        let snk = b.add_soft("snk", et(10, 10), UtilityFunction::constant(8.0).unwrap());
        b.add_dependency(src, mid).unwrap();
        b.add_dependency(mid, snk).unwrap();
        let app = b.build().unwrap();
        let s = synth_ftss(&app);
        assert_eq!(s.order_key(), vec![src, mid, snk]);
        assert_eq!(
            s.entries()[1].reexecutions,
            0,
            "a re-executed mid (completing >= 40) is worthless"
        );
        let sc = ExecutionScenario::from_tables(
            app.processes()
                .map(|p| vec![app.process(p).times().aet(); 2])
                .collect(),
            vec![vec![false; 2], vec![true, false], vec![false; 2]],
        );
        let out = OnlineScheduler::run_static(&app, &s, &sc);
        // src: 5; mid: abandoned after its fault (0); snk: alpha (1+0)/2 =
        // 0.5 -> 4. Total 9.
        assert!((out.utility - 9.0).abs() < 1e-9, "got {}", out.utility);
        assert_eq!(out.trace.fault_count(), 1);
        assert!(out.completions[mid.index()].is_none());
    }

    #[test]
    fn in_model_cycles_report_in_model_verdict() {
        let (app, _) = fig1_app();
        let s = synth_ftss(&app);
        let out = OnlineScheduler::run_static(&app, &s, &ExecutionScenario::average_case(&app));
        assert_eq!(out.verdict, DegradationVerdict::InModel);
        assert!(out.verdict.hard_deadlines_held());
        assert_eq!(out.wcet_overruns, 0);
    }

    #[test]
    fn wcet_overrun_within_deadline_reports_degraded() {
        // P1 overruns its WCET of 70 but still meets its deadline of 180:
        // the cycle is out-of-contract yet all hard deadlines held.
        let (app, [p1, ..]) = fig1_app();
        let s = synth_ftss(&app);
        let sc = scenario_with(&app, &[(p1, [100, 100])], &[]);
        let out = OnlineScheduler::run_static(&app, &s, &sc);
        assert!(out.deadline_miss.is_none());
        assert_eq!(out.wcet_overruns, 1);
        assert_eq!(
            out.verdict,
            DegradationVerdict::Degraded {
                faults_beyond_budget: 0,
                wcet_overruns: 1
            }
        );
    }

    #[test]
    fn hard_miss_verdict_carries_deadline_details() {
        // P1 takes 200 > its 180 deadline: the run still completes and the
        // verdict pinpoints the miss.
        let (app, [p1, ..]) = fig1_app();
        let s = synth_ftss(&app);
        let sc = scenario_with(&app, &[(p1, [200, 200])], &[]);
        let out = OnlineScheduler::run_static(&app, &s, &sc);
        assert_eq!(out.deadline_miss, Some(p1));
        assert!(!out.verdict.hard_deadlines_held());
        assert_eq!(
            out.verdict,
            DegradationVerdict::HardMiss {
                process: p1,
                deadline: t(180),
                completed_at: t(200),
            }
        );
        assert!(out
            .trace
            .events()
            .iter()
            .any(|e| matches!(e, TraceEvent::DeadlineMiss { .. })));
    }

    #[test]
    fn faults_beyond_budget_materialize_and_are_counted() {
        // k = 1 but the scenario plans 2 faults on the hard process P1: both
        // materialize (hard processes always re-execute) and the verdict
        // reports one fault beyond budget — or a hard miss if the deadline
        // fell. With WCET durations: 70 + 10 + 70 + 10 + 70 = 230 > 180, so
        // this is a HardMiss; with BCET-ish durations it would be Degraded.
        let (app, [p1, ..]) = fig1_app();
        let s = synth_ftss(&app);
        let mut durations: Vec<Vec<Time>> = app
            .processes()
            .map(|p| vec![app.process(p).times().wcet(); 3])
            .collect();
        durations[p1.index()] = vec![t(30); 3];
        let mut faulty: Vec<Vec<bool>> = app.processes().map(|_| vec![false; 3]).collect();
        faulty[p1.index()] = vec![true, true, false];
        let sc = ExecutionScenario::from_tables(durations, faulty);
        let out = OnlineScheduler::run_static(&app, &s, &sc);
        // 30 + 10 + 30 + 10 + 30 = 110 <= 180: deadlines hold.
        assert_eq!(out.completions[p1.index()], Some(t(110)));
        assert_eq!(out.faults_hit, 2);
        assert!(out.deadline_miss.is_none());
        assert_eq!(
            out.verdict,
            DegradationVerdict::Degraded {
                faults_beyond_budget: 1,
                wcet_overruns: 0
            }
        );
    }

    #[test]
    fn hard_deadlines_hold_across_random_scenarios() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let (app, _) = fig1_app();
        let tree = synth_tree(&app, 6);
        let runner = OnlineScheduler::new(&app, &tree);
        let sampler = crate::scenario::ScenarioSampler::new(&app);
        let mut rng = StdRng::seed_from_u64(7);
        for f in 0..=1 {
            for _ in 0..500 {
                let sc = sampler.sample(&mut rng, f);
                let out = runner.run(&sc);
                assert!(
                    out.deadline_miss.is_none(),
                    "deadline miss under scenario with {f} faults"
                );
            }
        }
    }
}
