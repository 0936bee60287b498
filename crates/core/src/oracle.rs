//! Straightforward reference implementations of FTSS and FTQS — the
//! pre-optimization algorithms, kept verbatim.
//!
//! The synthesis hot paths in [`crate::ftss`] and [`crate::ftqs`] are
//! heavily optimized (incremental fault-delay accumulation, reusable
//! scratch buffers, parallel tree expansion). This module preserves the
//! original, allocation-happy, batch-re-solving implementations for two
//! purposes:
//!
//! * **Differential testing** — the optimized synthesis must produce
//!   *bit-identical* schedules, trees, and utilities (see
//!   `tests/equivalence.rs`); any divergence is a bug in the optimization,
//!   never an accepted approximation.
//! * **Performance baselines** — the bench crate measures the optimized
//!   paths against these functions, so speedups are tracked against a
//!   stable reference rather than a moving target.
//!
//! Do not "fix" or optimize this module: its entire value is staying
//! byte-for-byte faithful to the straightforward algorithm (style lints
//! the original tripped are allowed rather than rewritten).
#![allow(clippy::unnecessary_map_or)]

use crate::fschedule::{
    expected_suffix_utility_est, FSchedule, ScheduleAnalysis, ScheduleContext, ScheduleEntry,
    StaleAlpha,
};
use crate::ftqs::{ExpansionPolicy, FtqsConfig, INTERVAL_SAMPLES};
use crate::ftss::{FtssConfig, SUCCESSOR_WEIGHT};
use crate::priority::{mu_priority, PriorityContext};
use crate::tree::{QuasiStaticTree, SwitchArc, TreeNode, TreeNodeId};
use crate::wcdelay::{worst_case_fault_delay, SlackItem};
use crate::{Application, SchedulingError, Time};
use ftqs_graph::NodeId;

/// Reference FTSS: the list scheduler exactly as first implemented, with
/// per-probe `Vec` clones and batch fault-delay re-solves.
///
/// # Errors
///
/// [`SchedulingError::Unschedulable`] under the same conditions as
/// the optimized engine FTSS path.
pub fn ftss_reference(
    app: &Application,
    ctx: &ScheduleContext,
    config: &FtssConfig,
) -> Result<FSchedule, SchedulingError> {
    Scheduler::new(app, ctx, config).run()
}

struct Scheduler<'a> {
    app: &'a Application,
    ctx: &'a ScheduleContext,
    config: &'a FtssConfig,
    k: usize,
    pending_preds: Vec<usize>,
    resolved: Vec<bool>,
    ready: Vec<bool>,
    dropped: Vec<bool>,
    entries: Vec<ScheduleEntry>,
    new_drops: Vec<NodeId>,
    alpha: StaleAlpha,
    avg_clock: Time,
    wcet_clock: Time,
    slack_items: Vec<SlackItem>,
}

impl<'a> Scheduler<'a> {
    fn new(app: &'a Application, ctx: &'a ScheduleContext, config: &'a FtssConfig) -> Self {
        let n = app.len();
        let mut dropped = ctx.dropped.clone();
        dropped.resize(n, false);
        let mut resolved = vec![false; n];
        for i in 0..n {
            if ctx.completed[i] || dropped[i] {
                resolved[i] = true;
            }
        }
        let mut pending_preds = vec![0usize; n];
        for node in app.processes() {
            if !resolved[node.index()] {
                pending_preds[node.index()] = app
                    .graph()
                    .predecessors(node)
                    .filter(|p| !resolved[p.index()])
                    .count();
            }
        }
        let ready = (0..n)
            .map(|i| !resolved[i] && pending_preds[i] == 0)
            .collect();
        let alpha = StaleAlpha::new(app, &dropped);
        Scheduler {
            app,
            ctx,
            config,
            k: app.faults().k,
            pending_preds,
            resolved,
            ready,
            dropped,
            entries: Vec::new(),
            new_drops: Vec::new(),
            alpha,
            avg_clock: ctx.start,
            wcet_clock: ctx.start,
            slack_items: Vec::new(),
        }
    }

    fn run(mut self) -> Result<FSchedule, SchedulingError> {
        while self.ready_nodes().next().is_some() {
            if self.config.dropping {
                self.determine_dropping();
            }
            let Some(ready_now) = self.first_nonempty_ready() else {
                continue;
            };
            let mut schedulable = self.schedulable_set(&ready_now);
            while schedulable.is_empty() {
                let ready_soft: Vec<NodeId> = self
                    .ready_nodes()
                    .filter(|&n| !self.app.is_hard(n))
                    .collect();
                if ready_soft.is_empty() {
                    return Err(self.unschedulable_diagnosis());
                }
                self.forced_dropping(&ready_soft);
                let ready_now: Vec<NodeId> = self.ready_nodes().collect();
                if ready_now.is_empty() {
                    break;
                }
                schedulable = self.schedulable_set(&ready_now);
            }
            let Some(best) = self.best_process(&schedulable) else {
                continue;
            };
            self.schedule(best);
        }
        debug_assert!(
            self.resolved.iter().all(|&r| r),
            "FTSS must resolve every pending process"
        );
        Ok(FSchedule::new(
            self.entries,
            self.new_drops,
            self.ctx.clone(),
        ))
    }

    fn ready_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.ready
            .iter()
            .enumerate()
            .filter(|&(i, &r)| r && !self.resolved[i])
            .map(|(i, _)| NodeId::from_index(i))
    }

    fn first_nonempty_ready(&self) -> Option<Vec<NodeId>> {
        let v: Vec<NodeId> = self.ready_nodes().collect();
        (!v.is_empty()).then_some(v)
    }

    fn is_pending(&self, n: NodeId) -> bool {
        !self.resolved[n.index()]
    }

    fn determine_dropping(&mut self) {
        loop {
            let candidates: Vec<NodeId> = self
                .ready_nodes()
                .filter(|&n| !self.app.is_hard(n))
                .collect();
            let mut dropped_any = false;
            for pi in candidates {
                if !self.ready[pi.index()] || self.resolved[pi.index()] {
                    continue;
                }
                let with = self.soft_suffix_estimate(None);
                let without = self.soft_suffix_estimate(Some(pi));
                if with <= without {
                    self.drop_process(pi);
                    dropped_any = true;
                }
            }
            if !dropped_any {
                break;
            }
        }
    }

    fn soft_suffix_estimate(&self, extra_drop: Option<NodeId>) -> f64 {
        let app = self.app;
        let mut alpha = self.alpha.clone();
        if let Some(d) = extra_drop {
            alpha.mark_dropped(d);
        }
        let pending_soft: Vec<NodeId> = app
            .soft_processes()
            .filter(|&s| self.is_pending(s) && Some(s) != extra_drop)
            .collect();
        let mut placed = vec![false; app.len()];
        let mut now = self.avg_clock;
        let mut total = 0.0;
        let mut remaining = pending_soft.len();
        while remaining > 0 {
            let mut best: Option<(f64, NodeId)> = None;
            for &s in &pending_soft {
                if placed[s.index()] {
                    continue;
                }
                let gated = app.graph().predecessors(s).any(|p| {
                    !placed[p.index()]
                        && self.is_pending(p)
                        && !app.is_hard(p)
                        && Some(p) != extra_drop
                });
                if gated {
                    continue;
                }
                let a = alpha_preview(app, &mut alpha, s);
                let pr = mu_priority(
                    &PriorityContext {
                        app,
                        now,
                        alpha: a,
                        successor_weight: SUCCESSOR_WEIGHT,
                    },
                    s,
                    |j| self.is_pending(j) && !placed[j.index()] && Some(j) != extra_drop,
                );
                if best.map_or(true, |(bp, bn)| pr > bp || (pr == bp && s < bn)) {
                    best = Some((pr, s));
                }
            }
            let Some((_, s)) = best else {
                break;
            };
            placed[s.index()] = true;
            remaining -= 1;
            now += app.process(s).times().aet();
            let a = alpha.resolve(app, s);
            if let Some(u) = app.process(s).criticality().utility() {
                total += a * u.value(now);
            }
        }
        total
    }

    fn schedulable_set(&self, ready: &[NodeId]) -> Vec<NodeId> {
        ready
            .iter()
            .copied()
            .filter(|&n| self.leads_to_schedulable(n))
            .collect()
    }

    fn leads_to_schedulable(&self, candidate: NodeId) -> bool {
        let app = self.app;
        let mut wcet = self.wcet_clock;
        let mut items = self.slack_items.clone();
        let candidate_hard = app.is_hard(candidate);
        wcet += app.process(candidate).times().wcet();
        items.push(SlackItem::new(
            app.recovery_penalty(candidate),
            if candidate_hard { self.k } else { 0 },
        ));
        if candidate_hard {
            let d = app
                .process(candidate)
                .criticality()
                .deadline()
                .expect("hard process has a deadline");
            if wcet + worst_case_fault_delay(&items, self.k) > d {
                return false;
            }
        }
        self.hard_suffix_feasible(candidate, wcet, &mut items)
    }

    fn hard_suffix_feasible(
        &self,
        skip: NodeId,
        mut wcet: Time,
        items: &mut Vec<SlackItem>,
    ) -> bool {
        let app = self.app;
        let hards: Vec<NodeId> = app
            .hard_processes()
            .filter(|&h| h != skip && self.is_pending(h))
            .collect();
        if hards.is_empty() {
            return true;
        }
        let mut placed = vec![false; app.len()];
        let mut count = hards.len();
        while count > 0 {
            let mut best: Option<(Time, NodeId)> = None;
            for &h in &hards {
                if placed[h.index()] {
                    continue;
                }
                let gated = app
                    .graph()
                    .predecessors(h)
                    .any(|p| hards.contains(&p) && !placed[p.index()]);
                if gated {
                    continue;
                }
                let d = app
                    .process(h)
                    .criticality()
                    .deadline()
                    .expect("hard process has a deadline");
                if best.map_or(true, |(bd, bn)| d < bd || (d == bd && h < bn)) {
                    best = Some((d, h));
                }
            }
            let Some((d, h)) = best else {
                return false;
            };
            placed[h.index()] = true;
            count -= 1;
            wcet += app.process(h).times().wcet();
            items.push(SlackItem::new(app.recovery_penalty(h), self.k));
            if wcet + worst_case_fault_delay(items, self.k) > d {
                return false;
            }
        }
        true
    }

    fn forced_dropping(&mut self, ready_soft: &[NodeId]) {
        let mut best: Option<(f64, NodeId)> = None;
        for &s in ready_soft {
            let with = self.soft_suffix_estimate(None);
            let without = self.soft_suffix_estimate(Some(s));
            let loss = with - without;
            if best.map_or(true, |(bl, bn)| loss < bl || (loss == bl && s < bn)) {
                best = Some((loss, s));
            }
        }
        if let Some((_, s)) = best {
            self.drop_process(s);
        }
    }

    fn best_process(&mut self, schedulable: &[NodeId]) -> Option<NodeId> {
        let softs: Vec<NodeId> = schedulable
            .iter()
            .copied()
            .filter(|&n| !self.app.is_hard(n))
            .collect();
        if !softs.is_empty() {
            let mut best: Option<(f64, NodeId)> = None;
            for &s in &softs {
                let a = alpha_preview(self.app, &mut self.alpha, s);
                let pr = mu_priority(
                    &PriorityContext {
                        app: self.app,
                        now: self.avg_clock,
                        alpha: a,
                        successor_weight: SUCCESSOR_WEIGHT,
                    },
                    s,
                    |j| self.is_pending(j),
                );
                if best.map_or(true, |(bp, bn)| pr > bp || (pr == bp && s < bn)) {
                    best = Some((pr, s));
                }
            }
            return best.map(|(_, s)| s);
        }
        schedulable
            .iter()
            .copied()
            .filter(|&n| self.app.is_hard(n))
            .min_by_key(|&h| {
                (
                    self.app
                        .process(h)
                        .criticality()
                        .deadline()
                        .expect("hard process has a deadline"),
                    h,
                )
            })
    }

    fn schedule(&mut self, best: NodeId) {
        let app = self.app;
        let times = *app.process(best).times();
        let hard = app.is_hard(best);

        self.wcet_clock += times.wcet();
        let reexecutions = if hard {
            self.k
        } else {
            self.soft_reexecution_allowance(best)
        };
        self.slack_items
            .push(SlackItem::new(app.recovery_penalty(best), reexecutions));
        self.entries.push(ScheduleEntry {
            process: best,
            reexecutions,
        });
        self.avg_clock += times.aet();
        self.alpha.resolve(app, best);
        self.mark_resolved(best);
    }

    fn soft_reexecution_allowance(&self, best: NodeId) -> usize {
        let app = self.app;
        let u = app
            .process(best)
            .criticality()
            .utility()
            .expect("soft process has a utility function");
        let penalty = app.recovery_penalty(best);
        let completion_base = self.wcet_clock;
        let mut granted = 0usize;
        while granted < self.k {
            let try_allow = granted + 1;
            let mut items = self.slack_items.clone();
            items.push(SlackItem::new(penalty, try_allow));
            let own_wc = completion_base + penalty * try_allow as u64;
            let beneficial = u.value(own_wc) > 0.0 && own_wc <= app.period();
            if !beneficial {
                break;
            }
            let feasible = {
                let mut probe_items = items.clone();
                self.hard_suffix_feasible(best, self.wcet_clock, &mut probe_items)
            };
            if !feasible {
                break;
            }
            granted = try_allow;
        }
        granted
    }

    fn drop_process(&mut self, pi: NodeId) {
        debug_assert!(!self.app.is_hard(pi), "hard processes are never dropped");
        self.dropped[pi.index()] = true;
        self.alpha.mark_dropped(pi);
        self.new_drops.push(pi);
        self.mark_resolved(pi);
    }

    fn mark_resolved(&mut self, n: NodeId) {
        self.resolved[n.index()] = true;
        self.ready[n.index()] = false;
        for s in self.app.graph().successors(n) {
            if !self.resolved[s.index()] {
                self.pending_preds[s.index()] -= 1;
                if self.pending_preds[s.index()] == 0 {
                    self.ready[s.index()] = true;
                }
            }
        }
    }

    fn unschedulable_diagnosis(&self) -> SchedulingError {
        let app = self.app;
        let mut wcet = self.wcet_clock;
        let mut items = self.slack_items.clone();
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
            items.push(SlackItem::new(app.recovery_penalty(h), self.k));
            let wc = wcet + worst_case_fault_delay(&items, self.k);
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

fn alpha_preview(app: &Application, alpha: &mut StaleAlpha, id: NodeId) -> f64 {
    let preds: Vec<NodeId> = app.graph().predecessors(id).collect();
    let mut sum = 0.0;
    for p in &preds {
        sum += alpha.resolve(app, *p);
    }
    (1.0 + sum) / (1.0 + preds.len() as f64)
}

// ---------------------------------------------------------------------------
// Reference FTQS: the serial tree builder with per-node batch analyses.
// ---------------------------------------------------------------------------

/// Reference FTQS: serial tree expansion and interval partitioning, built
/// on [`ftss_reference`] and [`ScheduleAnalysis::of_reference`].
///
/// # Errors
///
/// Same conditions as the optimized engine FTQS path.
pub fn ftqs_reference(
    app: &Application,
    config: &FtqsConfig,
) -> Result<QuasiStaticTree, SchedulingError> {
    if config.max_schedules == 0 {
        return Err(SchedulingError::ZeroTreeBudget);
    }
    let root_schedule = ftss_reference(app, &ScheduleContext::root(app), &config.ftss)?;
    let cannot_switch =
        root_schedule.entries().len() <= 1 && root_schedule.statically_dropped().is_empty();
    if config.max_schedules == 1 || cannot_switch || root_schedule.entries().is_empty() {
        return Ok(QuasiStaticTree::single(root_schedule));
    }
    let mut builder = TreeBuilder::new(app, config);
    builder.push_root(root_schedule);
    builder.grow();
    builder.partition_intervals();
    Ok(builder.finish())
}

struct BuildNode {
    schedule: FSchedule,
    analysis: ScheduleAnalysis,
    parent: Option<TreeNodeId>,
    pivot_pos: Option<usize>,
    depth: usize,
    expanded: bool,
    parent_distance: usize,
    intervals: Vec<(Time, Time)>,
}

struct TreeBuilder<'a> {
    app: &'a Application,
    config: &'a FtqsConfig,
    nodes: Vec<BuildNode>,
}

impl<'a> TreeBuilder<'a> {
    fn new(app: &'a Application, config: &'a FtqsConfig) -> Self {
        TreeBuilder {
            app,
            config,
            nodes: Vec::new(),
        }
    }

    fn push_root(&mut self, schedule: FSchedule) {
        let analysis = ScheduleAnalysis::of_reference(self.app, &schedule);
        self.nodes.push(BuildNode {
            schedule,
            analysis,
            parent: None,
            pivot_pos: None,
            depth: 0,
            expanded: false,
            parent_distance: 0,
            intervals: Vec::new(),
        });
    }

    fn grow(&mut self) {
        while self.nodes.len() < self.config.max_schedules {
            let Some(next) = self.pick_expansion_candidate() else {
                break;
            };
            self.expand(next);
        }
    }

    fn pick_expansion_candidate(&self) -> Option<TreeNodeId> {
        let candidates = self.nodes.iter().enumerate().filter(|(_, n)| !n.expanded);
        match self.config.policy {
            ExpansionPolicy::Fifo => candidates.map(|(i, _)| i).next(),
            ExpansionPolicy::MostSimilar => candidates
                .min_by_key(|(i, n)| (n.depth, n.parent_distance, *i))
                .map(|(i, _)| i),
            ExpansionPolicy::BestImprovement => candidates
                .map(|(i, n)| {
                    let gain = self.improvement_over_parent(n);
                    (i, n.depth, gain)
                })
                .min_by(|a, b| {
                    a.1.cmp(&b.1)
                        .then(b.2.partial_cmp(&a.2).unwrap_or(std::cmp::Ordering::Equal))
                        .then(a.0.cmp(&b.0))
                })
                .map(|(i, _, _)| i),
        }
    }

    fn improvement_over_parent(&self, n: &BuildNode) -> f64 {
        let Some(parent) = n.parent else { return 0.0 };
        let Some(pivot_pos) = n.pivot_pos else {
            return 0.0;
        };
        let p = &self.nodes[parent];
        let tc = n.schedule.context().start;
        let u_child = expected_suffix_utility_est(self.app, &n.schedule, &n.analysis, 0, tc);
        let u_parent =
            expected_suffix_utility_est(self.app, &p.schedule, &p.analysis, pivot_pos + 1, tc);
        u_child - u_parent
    }

    fn expand(&mut self, parent: TreeNodeId) {
        self.nodes[parent].expanded = true;
        let parent_entries = self.nodes[parent].schedule.entries().to_vec();
        let parent_ctx = self.nodes[parent].schedule.context().clone();
        let parent_depth = self.nodes[parent].depth;

        let positions = if self.nodes[parent].schedule.statically_dropped().is_empty() {
            parent_entries.len().saturating_sub(1)
        } else {
            parent_entries.len()
        };
        for p in 0..positions {
            if self.nodes.len() >= self.config.max_schedules {
                break;
            }
            let mut ctx = ScheduleContext {
                start: parent_ctx.start,
                completed: parent_ctx.completed.clone(),
                dropped: parent_ctx.dropped.clone(),
            };
            let mut bcet_sum = parent_ctx.start;
            for e in &parent_entries[..=p] {
                ctx.completed[e.process.index()] = true;
                bcet_sum += self.app.process(e.process).times().bcet();
            }
            ctx.start = bcet_sum;

            let Ok(child) = ftss_reference(self.app, &ctx, &self.config.ftss) else {
                continue;
            };
            let parent_suffix = &parent_entries[p + 1..];
            let same_order =
                child.entries() == parent_suffix && child.statically_dropped().is_empty();
            if same_order || child.entries().is_empty() {
                continue;
            }
            let distance = suffix_distance(
                &parent_suffix.iter().map(|e| e.process).collect::<Vec<_>>(),
                &child.order_key(),
            );
            let analysis = ScheduleAnalysis::of_reference(self.app, &child);
            self.nodes.push(BuildNode {
                schedule: child,
                analysis,
                parent: Some(parent),
                pivot_pos: Some(p),
                depth: parent_depth + 1,
                expanded: false,
                parent_distance: distance,
                intervals: Vec::new(),
            });
        }
    }

    fn partition_intervals(&mut self) {
        for i in 1..self.nodes.len() {
            let (parent, pivot_pos) = {
                let n = &self.nodes[i];
                (
                    n.parent.expect("non-root node has a parent"),
                    n.pivot_pos.expect("non-root node has a pivot"),
                )
            };
            let intervals = self.switch_intervals(parent, i, pivot_pos);
            self.nodes[i].intervals = intervals;
        }
    }

    fn switch_intervals(
        &self,
        parent: TreeNodeId,
        child: TreeNodeId,
        pivot_pos: usize,
    ) -> Vec<(Time, Time)> {
        let app = self.app;
        let k = app.faults().k;
        let pn = &self.nodes[parent];
        let cn = &self.nodes[child];

        let lo = cn.schedule.context().start;
        let hi_sweep = app.period();
        if lo > hi_sweep {
            return Vec::new();
        }
        let child_safe = cn.analysis.hard_safe_start(0, k);

        let range = hi_sweep.as_ms() - lo.as_ms();
        let step = (range / u64::from(INTERVAL_SAMPLES)).max(1);

        let mut runs: Vec<(Time, Time)> = Vec::new();
        let mut run_start: Option<Time> = None;
        let mut last_good = Time::ZERO;
        let mut tc_ms = lo.as_ms();
        loop {
            let tc = Time::from_ms(tc_ms);
            let good = tc <= child_safe && {
                let u_child = expected_suffix_utility_est(app, &cn.schedule, &cn.analysis, 0, tc);
                let u_parent =
                    expected_suffix_utility_est(app, &pn.schedule, &pn.analysis, pivot_pos + 1, tc);
                u_child > u_parent + 1e-9
            };
            if good {
                if run_start.is_none() {
                    run_start = Some(tc);
                }
                last_good = tc;
            } else if let Some(start) = run_start.take() {
                runs.push((start, last_good));
            }
            if tc_ms >= hi_sweep.as_ms() {
                break;
            }
            tc_ms = (tc_ms + step).min(hi_sweep.as_ms());
        }
        if let Some(start) = run_start {
            runs.push((start, last_good));
        }
        runs.iter()
            .map(|&(a, b)| (a, b.min(child_safe)))
            .filter(|&(a, b)| a <= b)
            .collect()
    }

    fn finish(self) -> QuasiStaticTree {
        let n = self.nodes.len();
        let mut keep = vec![false; n];
        keep[0] = true;
        for i in 1..n {
            let node = &self.nodes[i];
            keep[i] = !node.intervals.is_empty() && keep[node.parent.expect("non-root")];
        }
        let mut remap = vec![usize::MAX; n];
        let mut kept = 0usize;
        for i in 0..n {
            if keep[i] {
                remap[i] = kept;
                kept += 1;
            }
        }
        // Arcs per kept node, wired before the schedules are moved out.
        let mut arcs: Vec<Vec<SwitchArc>> = vec![Vec::new(); kept];
        for i in 1..n {
            if !keep[i] {
                continue;
            }
            let node = &self.nodes[i];
            let parent = remap[node.parent.expect("non-root")];
            let pivot_pos = node.pivot_pos.expect("non-root node has a pivot");
            let pivot = self.nodes[node.parent.unwrap()].schedule.entries()[pivot_pos].process;
            for &(lo, hi) in &node.intervals {
                arcs[parent].push(SwitchArc {
                    pivot_pos,
                    pivot,
                    lo,
                    hi,
                    child: remap[i],
                });
            }
        }
        let mut arena = crate::tree::ScheduleArena::new();
        let mut out: Vec<TreeNode> = Vec::with_capacity(kept);
        for (i, node) in self.nodes.into_iter().enumerate() {
            if !keep[i] {
                continue;
            }
            let schedule = arena.alloc(node.schedule);
            out.push(TreeNode {
                schedule,
                parent: node.parent.map(|p| remap[p]),
                arcs: std::mem::take(&mut arcs[remap[i]]),
                depth: node.depth,
            });
        }
        for node in &mut out {
            node.arcs.sort_by_key(|a| (a.pivot_pos, a.lo));
            let mut prev_end: Option<(usize, Time)> = None;
            node.arcs.retain_mut(|a| {
                if let Some((pos, end)) = prev_end {
                    if a.pivot_pos == pos && a.lo <= end {
                        if a.hi <= end {
                            return false;
                        }
                        a.lo = end + Time::from_ms(1);
                    }
                }
                prev_end = Some((a.pivot_pos, a.hi));
                true
            });
        }
        QuasiStaticTree::new(arena, out, 0)
    }
}

/// Number of pairwise order inversions between `reference` and `other`
/// restricted to their common elements.
fn suffix_distance(reference: &[NodeId], other: &[NodeId]) -> usize {
    let pos_in_ref = |x: NodeId| reference.iter().position(|&r| r == x);
    let mapped: Vec<usize> = other.iter().filter_map(|&x| pos_in_ref(x)).collect();
    let mut inversions = 0;
    for i in 0..mapped.len() {
        for j in i + 1..mapped.len() {
            if mapped[i] > mapped[j] {
                inversions += 1;
            }
        }
    }
    inversions
}
