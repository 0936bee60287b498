//! Differential tests: the optimized synthesis pipeline behind the
//! [`Engine`]/[`Session`] API (incremental fault-delay accumulation,
//! scratch-buffer FTSS, parallel FTQS expansion, arena-backed trees) must
//! produce **bit-identical** output to the straightforward reference
//! implementations preserved in `ftqs_core::oracle` — schedule orders,
//! re-execution allowances, static drops, analysis tables, tree arcs, and
//! expected utilities. Any divergence is an optimization bug, never an
//! accepted approximation.
//!
//! Workloads are generated from explicit seeds (8–30 processes, varying
//! deadline tightness so forced dropping and re-execution denial trigger);
//! the acceptance bar is ≥ 20 schedulable seeded workloads checked per
//! property. One `Session` serves a whole corpus sweep — scratch reuse
//! across calls must never leak state between runs, which these tests
//! would catch immediately.

use ftqs_core::fschedule::{expected_suffix_utility_est, ScheduleAnalysis};
use ftqs_core::ftqs::FtqsConfig;
use ftqs_core::oracle::{ftqs_reference, ftss_reference};
use ftqs_core::{
    Application, Engine, Error, ExecutionTimes, FaultModel, FtssConfig, QuasiStaticTree,
    ScheduleContext, Session, SynthesisRequest, Time, UtilityFunction,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Generates a mixed hard/soft application from a seed. Deadline laxity is
/// drawn per seed so the corpus spans comfortable and tight instances.
fn seeded_application(seed: u64) -> Option<Application> {
    let mut rng = StdRng::seed_from_u64(0xE901 ^ seed.wrapping_mul(0x9E37_79B9));
    let n = rng.gen_range(8usize..=30);
    let k = rng.gen_range(1usize..=3);
    let mu = rng.gen_range(2u64..=15);
    let laxity = rng.gen_range(0.8f64..=1.6);

    // Rough worst-case makespan to place period and deadlines.
    let mut wcets = Vec::with_capacity(n);
    let mut bcets = Vec::with_capacity(n);
    let mut total_wcet = 0u64;
    let mut max_penalty = 0u64;
    for _ in 0..n {
        let w = rng.gen_range(10u64..=100);
        let bc = rng.gen_range(0u64..=w);
        total_wcet += w;
        max_penalty = max_penalty.max(w + mu);
        wcets.push(w);
        bcets.push(bc);
    }
    let bound = total_wcet + max_penalty * k as u64;
    let period = (bound as f64 * 1.1).ceil() as u64;

    let mut b = Application::builder(Time::from_ms(period), FaultModel::new(k, Time::from_ms(mu)));
    let mut ids = Vec::with_capacity(n);
    let mut wc_ref = 0u64;
    for i in 0..n {
        let et = ExecutionTimes::uniform(Time::from_ms(bcets[i]), Time::from_ms(wcets[i])).ok()?;
        wc_ref += wcets[i];
        let hard = rng.gen::<f64>() < 0.5;
        let id = if hard {
            let d = (((wc_ref + max_penalty * k as u64) as f64) * laxity).ceil() as u64;
            b.add_hard(format!("P{i}"), et, Time::from_ms(d.min(period)))
        } else {
            let peak = rng.gen_range(10f64..=100.0);
            let anchor = (wc_ref / 2).max(20);
            let hold = anchor * 6 / 10 + rng.gen_range(0..=anchor * 4 / 10);
            let mid = hold + 1 + rng.gen_range(anchor / 6..=anchor / 2 + 1);
            let zero = mid + 1 + rng.gen_range(anchor / 6..=anchor / 2 + 1);
            let u = UtilityFunction::step(
                peak,
                [
                    (Time::from_ms(hold), peak * 0.5),
                    (Time::from_ms(mid), peak * 0.2),
                    (Time::from_ms(zero), 0.0),
                ],
            )
            .ok()?;
            b.add_soft(format!("P{i}"), et, u)
        };
        ids.push(id);
    }
    // Random forward edges (id-ordered, so always acyclic).
    let edges = rng.gen_range(n / 2..n * 2);
    for _ in 0..edges {
        let i = rng.gen_range(0..n);
        let j = rng.gen_range(0..n);
        if i < j {
            let _ = b.add_dependency(ids[i], ids[j]);
        }
    }
    b.build().ok()
}

/// Collects at least `want` seeded workloads that FTSS can schedule.
fn schedulable_corpus(want: usize) -> Vec<(u64, Application)> {
    let mut session = Engine::new().session();
    let mut out = Vec::new();
    for seed in 0..200u64 {
        if out.len() >= want {
            break;
        }
        let Some(app) = seeded_application(seed) else {
            continue;
        };
        if session.synthesize(&app, &SynthesisRequest::ftss()).is_ok() {
            out.push((seed, app));
        }
    }
    assert!(
        out.len() >= want,
        "only {} schedulable workloads found — generator drifted",
        out.len()
    );
    out
}

fn assert_analyses_equal(app: &Application, seed: u64, s: &ftqs_core::FSchedule) {
    let fast = s.analyze(app);
    let slow = ScheduleAnalysis::of_reference(app, s);
    let k = app.faults().k;
    assert_eq!(fast.is_schedulable(), slow.is_schedulable(), "seed {seed}");
    assert_eq!(fast.violation(), slow.violation(), "seed {seed}");
    for pos in 0..s.entries().len() {
        assert_eq!(
            fast.nominal_completion(pos),
            slow.nominal_completion(pos),
            "seed {seed} pos {pos}"
        );
        assert_eq!(
            fast.worst_completion(pos),
            slow.worst_completion(pos),
            "seed {seed} pos {pos}"
        );
        for r in 0..=k {
            assert_eq!(
                fast.hard_safe_start(pos, r),
                slow.hard_safe_start(pos, r),
                "seed {seed} pos {pos} r {r}"
            );
        }
    }
}

/// Node-by-node structural equality of two trees, resolving arena handles.
fn assert_trees_equal(fast: &QuasiStaticTree, slow: &QuasiStaticTree, label: &str) {
    assert_eq!(fast.len(), slow.len(), "{label}: node counts diverge");
    assert_eq!(fast.root(), slow.root(), "{label}: roots diverge");
    for ((i, a), (_, b)) in fast.iter().zip(slow.iter()) {
        assert_eq!(
            fast.schedule(a.schedule),
            slow.schedule(b.schedule),
            "{label} node {i}: schedules diverge"
        );
        assert_eq!(a.arcs, b.arcs, "{label} node {i}: arcs diverge");
        assert_eq!(a.parent, b.parent, "{label} node {i}: parents diverge");
        assert_eq!(a.depth, b.depth, "{label} node {i}: depths diverge");
    }
}

#[test]
fn engine_ftss_matches_reference_on_20_plus_workloads() {
    let corpus = schedulable_corpus(24);
    let configs = [FtssConfig::default(), FtssConfig { dropping: false }];
    for cfg in &configs {
        let mut session = Engine::new().with_ftss_config(cfg.clone()).session();
        for (seed, app) in &corpus {
            let fast = session.synthesize(app, &SynthesisRequest::ftss());
            let slow = ftss_reference(app, &ScheduleContext::root(app), cfg);
            match (fast, slow) {
                (Ok(report), Ok(b)) => {
                    let a = report.root_schedule();
                    assert_eq!(a, &b, "seed {seed}: schedules diverge under {cfg:?}");
                    assert_analyses_equal(app, *seed, a);
                }
                (Err(Error::Scheduling(a)), Err(b)) => {
                    assert_eq!(a, b, "seed {seed}: errors diverge");
                }
                (a, b) => panic!("seed {seed}: feasibility diverges: {a:?} vs {b:?}"),
            }
        }
    }
}

#[test]
fn engine_ftqs_trees_match_reference_on_20_plus_workloads() {
    let corpus = schedulable_corpus(20);
    let mut session = Engine::new().session();
    for (seed, app) in &corpus {
        for budget in [4usize, 6, 12] {
            let fast = session
                .synthesize(app, &SynthesisRequest::ftqs(budget))
                .expect("corpus is schedulable");
            let slow = ftqs_reference(app, &FtqsConfig::with_budget(budget))
                .expect("corpus is schedulable");
            assert_trees_equal(&fast.tree, &slow, &format!("seed {seed} budget {budget}"));
        }
    }
}

#[test]
fn deep_trees_match_reference() {
    // Large budgets force many pivots per parent and multi-wave
    // expansions, so the checkpoint-restore path is exercised hard. The
    // tree comparison also pins the batched, segmented interval sweep:
    // every arc the oracle's per-sample scalar sweep keeps (and its exact
    // interval bounds) must come out bit-identical from the
    // compiled-utility grid evaluation. Each budget is synthesized at the
    // default worker cap and at a cap of 1, where one worker's checkpoint
    // cursor advances across every pivot of each expanded parent.
    let corpus = schedulable_corpus(20);
    let mut session = Engine::new().session();
    for (seed, app) in corpus.iter().take(10) {
        for budget in [16usize, 24, 40] {
            let slow = ftqs_reference(app, &FtqsConfig::with_budget(budget))
                .expect("corpus is schedulable");
            for (workers, request) in [
                ("default", SynthesisRequest::ftqs(budget)),
                ("1", SynthesisRequest::ftqs(budget).with_max_parallelism(1)),
            ] {
                let fast = session
                    .synthesize(app, &request)
                    .expect("corpus is schedulable");
                let case = format!("seed {seed} budget {budget} workers {workers}");
                assert_trees_equal(&fast.tree, &slow, &format!("{case} (engine vs oracle)"));
                // Checkpoint accounting: one snapshot per expanded parent
                // and one restore per pivot.
                if fast.tree.len() > 1 {
                    let stats = fast.stats.expansion;
                    assert!(stats.snapshots >= 1, "{case}");
                    assert!(
                        stats.restores >= fast.tree.len() - 1,
                        "{case}: every kept child was restored"
                    );
                    assert_eq!(
                        stats.restores, stats.prefix_steps_rerun,
                        "{case}: each restore re-derives exactly one prefix step"
                    );
                }
            }
        }
    }
}

#[test]
fn expansion_stats_are_deterministic_across_worker_counts() {
    // The counters describe the serial expansion schedule, so a serial cap
    // must reproduce them exactly (and the trees must match, proving
    // worker-private checkpoints leak nothing across parallel waves).
    let corpus = schedulable_corpus(12);
    let mut session = Engine::new().session();
    for (seed, app) in &corpus {
        let parallel = session
            .synthesize(app, &SynthesisRequest::ftqs(24))
            .expect("schedulable");
        let serial = session
            .synthesize(app, &SynthesisRequest::ftqs(24).with_max_parallelism(1))
            .expect("schedulable");
        assert_trees_equal(&parallel.tree, &serial.tree, &format!("seed {seed}"));
        assert_eq!(
            parallel.stats.expansion, serial.stats.expansion,
            "seed {seed}: checkpoint counters depend on worker count"
        );
    }
}

#[test]
fn engine_trees_are_arena_backed_without_clones() {
    // The structured report exposes the arena's cumulative allocation
    // counter; growth allocates each candidate schedule exactly once and
    // is capped at the budget, so a cloning `finish()` would overshoot.
    let corpus = schedulable_corpus(20);
    let mut session = Engine::new().session();
    for (seed, app) in &corpus {
        for budget in [4usize, 12] {
            let report = session
                .synthesize(app, &SynthesisRequest::ftqs(budget))
                .expect("corpus is schedulable");
            let allocations = report.stats.schedule_allocations;
            assert!(
                allocations <= budget,
                "seed {seed} budget {budget}: {allocations} allocations — finish() cloned"
            );
            assert!(
                allocations >= report.tree.len(),
                "seed {seed}: every kept node was allocated once"
            );
            assert_eq!(
                report.tree.arena().len(),
                report.tree.len(),
                "seed {seed}: compaction keeps exactly one schedule per node"
            );
        }
    }
}

#[test]
fn session_reuse_is_bit_identical_to_fresh_sessions() {
    // The same request through a long-lived session and through one-shot
    // sessions must agree exactly — scratch reuse leaks no state.
    let corpus = schedulable_corpus(12);
    let engine = Engine::new();
    let mut long_lived = engine.session();
    for (seed, app) in &corpus {
        let reused = long_lived
            .synthesize(app, &SynthesisRequest::ftqs(6))
            .expect("schedulable");
        let fresh = engine
            .session()
            .synthesize(app, &SynthesisRequest::ftqs(6))
            .expect("schedulable");
        assert_trees_equal(&reused.tree, &fresh.tree, &format!("seed {seed}"));
    }
}

#[test]
fn expected_utilities_match_reference_tables() {
    // The utility estimator consumes analysis tables; evaluated on both
    // table variants it must agree everywhere the tree comparison samples.
    let corpus = schedulable_corpus(20);
    let mut session = Engine::new().session();
    for (seed, app) in &corpus {
        let report = session
            .synthesize(app, &SynthesisRequest::ftss())
            .expect("schedulable");
        let s = report.root_schedule();
        let fast = s.analyze(app);
        let slow = ScheduleAnalysis::of_reference(app, s);
        for tc in (0..=app.period().as_ms()).step_by((app.period().as_ms() / 16).max(1) as usize) {
            let t = Time::from_ms(tc);
            for from in [0usize, s.entries().len() / 2] {
                let a = expected_suffix_utility_est(app, s, &fast, from, t);
                let b = expected_suffix_utility_est(app, s, &slow, from, t);
                assert_eq!(a.to_bits(), b.to_bits(), "seed {seed} tc {tc} from {from}");
            }
        }
    }
}

/// Sessions must be `Send` so batch servers can move them across workers.
#[test]
fn sessions_are_send() {
    fn assert_send<T: Send>() {}
    assert_send::<Session>();
    assert_send::<Engine>();
}
