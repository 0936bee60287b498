//! A purely **online** scheduler — the alternative the paper argues
//! against: "a purely online approach, which computes a new schedule every
//! time a process fails or completes, incurs an unacceptable overhead"
//! (§1, abstract).
//!
//! [`GreedyOnlineScheduler`] makes every decision at run time: after each
//! completion (or fault) it re-examines the ready set, drops soft processes
//! whose expected utility has expired, verifies hard-deadline safety of
//! each candidate with a fresh worst-case analysis, and picks the best
//! candidate by utility density. Functionally it plays the same game as the
//! quasi-static tree — but each decision costs a full O(n²) analysis
//! *inside the control cycle*, which is exactly the overhead quasi-static
//! scheduling moves off-line. No committed bench row measures its
//! per-decision cost yet; ROADMAP's "One runtime surface" item asks for
//! one next to `FlatRuntime`, or for this scheduler's removal.
//!
//! This scheduler guarantees hard deadlines the same way FTSS does: a hard
//! process is started early enough that, even with all remaining faults
//! hitting the worst penalties, every remaining hard process still meets
//! its deadline; soft candidates are only started when the hard suffix
//! stays feasible.
//!
//! On the `expect()`s below: `Application` can only be constructed through
//! its builder, whose `Criticality` enum makes "soft ⇔ has a utility
//! function" and "hard ⇔ has a deadline" type-level invariants. The
//! `expect()`s in this module assert those invariants on values filtered
//! by `is_hard`; no input reachable from the public API can trip them
//! (malformed-application errors are surfaced as `Error::Validation` at
//! build time, not here).

use crate::scenario::ExecutionScenario;
use crate::trace::{DropReason, Trace, TraceEvent};
use ftqs_core::wcdelay::{worst_case_fault_delay, SlackItem};
use ftqs_core::{Application, Time};
use ftqs_graph::NodeId;

/// Outcome of one greedily-scheduled cycle (a subset of
/// [`SimOutcome`](crate::SimOutcome) — the greedy scheduler has no
/// schedule tree to switch between).
#[derive(Debug, Clone)]
pub struct GreedyOutcome {
    /// Total stale-scaled utility.
    pub utility: f64,
    /// Completion times, indexed by node index.
    pub completions: Vec<Option<Time>>,
    /// A hard process that missed its deadline (stays `None` unless the
    /// application was infeasible to begin with).
    pub deadline_miss: Option<NodeId>,
    /// Number of scheduling decisions taken (the online overhead driver).
    pub decisions: usize,
    /// Event trace.
    pub trace: Trace,
}

/// The purely online scheduler (see module docs).
#[derive(Debug)]
pub struct GreedyOnlineScheduler<'a> {
    app: &'a Application,
}

impl<'a> GreedyOnlineScheduler<'a> {
    /// Creates a greedy online scheduler for `app`.
    #[must_use]
    pub fn new(app: &'a Application) -> Self {
        GreedyOnlineScheduler { app }
    }

    /// Simulates one cycle under `scenario`, deciding everything online.
    #[must_use]
    pub fn run(&self, scenario: &ExecutionScenario) -> GreedyOutcome {
        let app = self.app;
        let k = app.faults().k;
        let n = app.len();

        let mut pending_preds: Vec<usize> = app
            .processes()
            .map(|p| app.graph().predecessors(p).count())
            .collect();
        let mut resolved = vec![false; n];
        let mut dropped = vec![false; n];
        let mut completions: Vec<Option<Time>> = vec![None; n];
        let mut alpha = vec![0.0f64; n];
        let mut now = Time::ZERO;
        let mut faults_seen = 0usize;
        let mut utility = 0.0;
        let mut decisions = 0usize;
        let mut deadline_miss = None;
        let mut trace = Trace::new();
        let mut remaining = n;

        while remaining > 0 {
            decisions += 1;
            let ready: Vec<NodeId> = app
                .processes()
                .filter(|&p| !resolved[p.index()] && pending_preds[p.index()] == 0)
                .collect();
            debug_assert!(!ready.is_empty(), "a DAG always has a ready node");

            // Drop soft ready processes that can no longer earn utility or
            // cannot complete within the period.
            let mut candidates: Vec<NodeId> = Vec::with_capacity(ready.len());
            for &p in &ready {
                if app.is_hard(p) {
                    candidates.push(p);
                    continue;
                }
                let times = app.process(p).times();
                let u = app
                    .process(p)
                    .criticality()
                    .utility()
                    .expect("soft process has a utility");
                let expired = u.value(now + times.bcet()) <= 0.0;
                let overruns = now + times.bcet() > app.period();
                if expired || overruns {
                    resolved[p.index()] = true;
                    dropped[p.index()] = true;
                    remaining -= 1;
                    for s in app.graph().successors(p) {
                        pending_preds[s.index()] -= 1;
                    }
                    trace.push(TraceEvent::Dropped {
                        process: p,
                        at: now,
                        reason: DropReason::PastLatestStart,
                    });
                } else {
                    candidates.push(p);
                }
            }
            if candidates.is_empty() {
                continue;
            }

            // Hard-safety filter: starting `p` now must keep every
            // remaining hard process feasible under the remaining faults.
            // Saturating: out-of-model scenarios can exceed the budget.
            let budget = k.saturating_sub(faults_seen);
            let mut safe: Vec<NodeId> = candidates
                .iter()
                .copied()
                .filter(|&p| self.hard_safe(&resolved, p, now, budget))
                .collect();
            if safe.is_empty() {
                // Urgency fallback: run the tightest-deadline ready hard
                // process (if the app was FTSS-schedulable this branch is
                // unreachable; it keeps the scheduler total otherwise).
                let fallback = candidates
                    .iter()
                    .copied()
                    .filter(|&p| app.is_hard(p))
                    .min_by_key(|&p| app.process(p).criticality().deadline());
                match fallback {
                    Some(h) => safe.push(h),
                    None => {
                        // Only soft candidates and none is safe: drop the
                        // longest one and retry.
                        let victim = candidates
                            .iter()
                            .copied()
                            .max_by_key(|&p| app.process(p).times().wcet())
                            .expect("candidates is non-empty");
                        resolved[victim.index()] = true;
                        dropped[victim.index()] = true;
                        remaining -= 1;
                        for s in app.graph().successors(victim) {
                            pending_preds[s.index()] -= 1;
                        }
                        trace.push(TraceEvent::Dropped {
                            process: victim,
                            at: now,
                            reason: DropReason::PastLatestStart,
                        });
                        continue;
                    }
                }
            }

            // Pick: best soft by utility density, else earliest deadline.
            let pick = safe
                .iter()
                .copied()
                .filter(|&p| !app.is_hard(p))
                .map(|p| {
                    let times = app.process(p).times();
                    let u = app
                        .process(p)
                        .criticality()
                        .utility()
                        .expect("soft process has a utility");
                    let density = u.value(now + times.aet()) / times.aet().as_ms().max(1) as f64;
                    (p, density)
                })
                .max_by(|a, b| a.1.total_cmp(&b.1))
                .map(|(p, _)| p)
                .or_else(|| {
                    safe.iter()
                        .copied()
                        .filter(|&p| app.is_hard(p))
                        .min_by_key(|&p| app.process(p).criticality().deadline())
                })
                .expect("safe set is non-empty");

            // Execute with re-execution on faults (hard always; soft while
            // still safe and worthwhile).
            let p = pick;
            let hard = app.is_hard(p);
            let mut attempt = 0usize;
            let completed = loop {
                trace.push(TraceEvent::Started {
                    process: p,
                    attempt,
                    at: now,
                });
                now += scenario.duration(p, attempt);
                if !scenario.is_faulty(p, attempt) {
                    break true;
                }
                faults_seen += 1;
                trace.push(TraceEvent::Fault {
                    process: p,
                    attempt,
                    at: now,
                });
                let mu = app.recovery_overhead(p);
                let retry = if hard {
                    true
                } else {
                    let u = app
                        .process(p)
                        .criticality()
                        .utility()
                        .expect("soft process has a utility");
                    let worthwhile = u.value(now + mu + app.process(p).times().aet()) > 0.0;
                    worthwhile
                        && self.hard_safe(&resolved, p, now + mu, k.saturating_sub(faults_seen))
                };
                if !retry {
                    break false;
                }
                now += mu;
                attempt += 1;
            };

            resolved[p.index()] = true;
            remaining -= 1;
            for s in app.graph().successors(p) {
                pending_preds[s.index()] -= 1;
            }
            if completed {
                completions[p.index()] = Some(now);
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
                let credited = app
                    .process(p)
                    .criticality()
                    .utility()
                    .map_or(0.0, |u| a * u.value(now));
                utility += credited;
                trace.push(TraceEvent::Completed {
                    process: p,
                    at: now,
                    utility: credited,
                });
                if let Some(d) = app.process(p).criticality().deadline() {
                    if now > d && deadline_miss.is_none() {
                        deadline_miss = Some(p);
                    }
                }
            } else {
                dropped[p.index()] = true;
                trace.push(TraceEvent::Dropped {
                    process: p,
                    at: now,
                    reason: DropReason::FaultNoRecovery,
                });
            }
        }

        GreedyOutcome {
            utility,
            completions,
            deadline_miss,
            decisions,
            trace,
        }
    }

    /// Would starting `candidate` at `now` keep every unresolved hard
    /// process feasible with `budget` remaining faults? (The same test as
    /// FTSS's `SiH`, executed online.)
    fn hard_safe(&self, resolved: &[bool], candidate: NodeId, now: Time, budget: usize) -> bool {
        let app = self.app;
        let mut wcet = now + app.process(candidate).times().wcet();
        let mut items = vec![SlackItem::new(
            app.recovery_penalty(candidate),
            if app.is_hard(candidate) { budget } else { 0 },
        )];
        if let Some(d) = app.process(candidate).criticality().deadline() {
            if wcet + worst_case_fault_delay(&items, budget) > d {
                return false;
            }
        }
        // Remaining hard processes in deadline order (precedence among the
        // hard set respected implicitly by deadline monotonicity of our
        // generator; a full EDF-with-precedence pass would be costlier —
        // this IS the overhead the paper talks about).
        let mut hards: Vec<NodeId> = app
            .hard_processes()
            .filter(|&h| h != candidate && !resolved[h.index()])
            .collect();
        hards.sort_by_key(|&h| app.process(h).criticality().deadline());
        for h in hards {
            wcet += app.process(h).times().wcet();
            items.push(SlackItem::new(app.recovery_penalty(h), budget));
            let d = app
                .process(h)
                .criticality()
                .deadline()
                .expect("hard process has a deadline");
            if wcet + worst_case_fault_delay(&items, budget) > d {
                return false;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::ScenarioSampler;
    use ftqs_core::{ExecutionTimes, FaultModel, UtilityFunction};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn t(ms: u64) -> Time {
        Time::from_ms(ms)
    }

    fn fig1_app() -> Application {
        let mut b = Application::builder(t(300), FaultModel::new(1, t(10)));
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

    #[test]
    fn greedy_completes_every_cycle() {
        let app = fig1_app();
        let g = GreedyOnlineScheduler::new(&app);
        let out = g.run(&ExecutionScenario::average_case(&app));
        assert!(out.deadline_miss.is_none());
        assert!(out.utility > 0.0);
        assert!(out.decisions >= app.len());
    }

    #[test]
    fn greedy_keeps_hard_deadlines_across_random_scenarios() {
        let app = fig1_app();
        let g = GreedyOnlineScheduler::new(&app);
        let sampler = ScenarioSampler::new(&app);
        let mut rng = StdRng::seed_from_u64(17);
        for f in 0..=1 {
            for _ in 0..500 {
                let sc = sampler.sample(&mut rng, f);
                let out = g.run(&sc);
                assert!(
                    out.deadline_miss.is_none(),
                    "deadline missed with {f} faults"
                );
            }
        }
    }

    #[test]
    fn greedy_adapts_like_the_tree_on_early_completions() {
        // With P1 at its bcet the greedy scheduler should also pick the
        // P2-first continuation (it decides online with full knowledge of
        // the current time), matching Fig. 4b5's utility.
        let app = fig1_app();
        let attempts = app.faults().k + 1;
        let mut durations: Vec<Vec<Time>> = app
            .processes()
            .map(|p| vec![app.process(p).times().aet(); attempts])
            .collect();
        durations[0] = vec![t(30); attempts];
        let sc = ExecutionScenario::from_tables(
            durations,
            app.processes().map(|_| vec![false; attempts]).collect(),
        );
        let g = GreedyOnlineScheduler::new(&app);
        let out = g.run(&sc);
        assert_eq!(out.utility, 70.0);
    }

    #[test]
    fn greedy_recovers_hard_faults() {
        let app = fig1_app();
        let attempts = app.faults().k + 1;
        let mut faulty: Vec<Vec<bool>> = app.processes().map(|_| vec![false; attempts]).collect();
        faulty[0][0] = true;
        let sc = ExecutionScenario::from_tables(
            app.processes()
                .map(|p| vec![app.process(p).times().wcet(); attempts])
                .collect(),
            faulty,
        );
        let g = GreedyOnlineScheduler::new(&app);
        let out = g.run(&sc);
        assert!(out.deadline_miss.is_none());
        assert_eq!(out.completions[0], Some(t(150)));
        assert_eq!(out.trace.fault_count(), 1);
    }
}
