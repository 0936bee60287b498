//! Property-style tests of the online runtime: whatever the execution
//! times and fault pattern, the scheduler must (a) never miss a hard
//! deadline, (b) complete every hard process, (c) keep time consistent,
//! and (d) credit utility consistently with the stale-coefficient rules.
//! Cases are generated from explicit seed loops (no proptest in this
//! environment); the failing seed triple is in every assertion message.

use ftqs_core::{
    Application, Engine, ExecutionTimes, FSchedule, FaultModel, QuasiStaticTree, StaleCoefficients,
    SynthesisRequest, Time, UtilityFunction,
};
use ftqs_sim::{ExecutionScenario, OnlineScheduler, ScenarioSampler};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One generated case: which application family, which scenario stream,
/// how many planned faults — mirrors the original proptest strategy.
fn synth_tree(app: &Application, budget: usize) -> QuasiStaticTree {
    Engine::new()
        .session()
        .synthesize(app, &SynthesisRequest::ftqs(budget))
        .expect("schedulable")
        .into_tree()
}

fn synth_ftss(app: &Application) -> FSchedule {
    Engine::new()
        .session()
        .synthesize(app, &SynthesisRequest::ftss())
        .expect("schedulable")
        .root_schedule()
        .clone()
}

fn cases() -> impl Iterator<Item = (u64, u64, usize)> {
    (0..48u64).map(|i| {
        let mut rng = StdRng::seed_from_u64(0xCA5E ^ i);
        (
            rng.gen_range(0u64..8),
            rng.gen::<u64>(),
            rng.gen_range(0usize..=3),
        )
    })
}

fn build_app(seed: u64) -> Application {
    use ftqs_workloads::{synthetic, GeneratorParams};
    let params = GeneratorParams::paper(10 + (seed as usize % 3) * 5);
    let mut rng = StdRng::seed_from_u64(0xD15C + seed);
    synthetic::generate_schedulable(&params, &mut rng, 50)
}

#[test]
fn tree_runtime_never_misses_hard_deadlines() {
    for (app_seed, sc_seed, faults) in cases() {
        let app = build_app(app_seed);
        let faults = faults.min(app.faults().k);
        let tree = synth_tree(&app, 6);
        let runner = OnlineScheduler::new(&app, &tree);
        let sampler = ScenarioSampler::new(&app);
        let sc = sampler.sample(&mut StdRng::seed_from_u64(sc_seed), faults);
        let out = runner.run(&sc);
        assert!(
            out.deadline_miss.is_none(),
            "case {app_seed}/{sc_seed}/{faults}"
        );
        // Every hard process completed.
        for h in app.hard_processes() {
            assert!(
                out.completions[h.index()].is_some(),
                "hard process not run; case {app_seed}/{sc_seed}/{faults}"
            );
        }
    }
}

#[test]
fn completions_are_strictly_ordered_and_positive() {
    for (app_seed, sc_seed, faults) in cases() {
        let app = build_app(app_seed);
        let faults = faults.min(app.faults().k);
        let root = synth_ftss(&app);
        let order = root.order_key();
        let tree = QuasiStaticTree::single(root);
        let runner = OnlineScheduler::new(&app, &tree);
        let sampler = ScenarioSampler::new(&app);
        let sc = sampler.sample(&mut StdRng::seed_from_u64(sc_seed), faults);
        let out = runner.run(&sc);
        // Under a single static schedule, completions follow the schedule
        // order (executed subset) and never move backwards in time (ties
        // are possible: generated BCETs may be zero).
        let mut prev = Time::ZERO;
        for p in order {
            if let Some(at) = out.completions[p.index()] {
                assert!(
                    at >= prev,
                    "completions regress; case {app_seed}/{sc_seed}/{faults}"
                );
                prev = at;
            }
        }
        assert!(out.makespan >= prev, "case {app_seed}/{sc_seed}/{faults}");
    }
}

#[test]
fn utility_matches_stale_recomputation() {
    for (app_seed, sc_seed, faults) in cases() {
        // Recompute the total utility from the outcome's completions and
        // the final dropped set (no revival happens in a 1-node tree, so
        // the final-mask StaleCoefficients equal the runtime-incremental
        // alphas).
        let app = build_app(app_seed);
        let faults = faults.min(app.faults().k);
        let root = synth_ftss(&app);
        let tree = QuasiStaticTree::single(root);
        let runner = OnlineScheduler::new(&app, &tree);
        let sampler = ScenarioSampler::new(&app);
        let sc = sampler.sample(&mut StdRng::seed_from_u64(sc_seed), faults);
        let out = runner.run(&sc);

        let dropped: Vec<bool> = app
            .processes()
            .map(|p| out.completions[p.index()].is_none())
            .collect();
        let alpha = StaleCoefficients::compute(&app, &dropped);
        let mut expect = 0.0;
        for p in app.soft_processes() {
            if let (Some(at), Some(u)) = (
                out.completions[p.index()],
                app.process(p).criticality().utility(),
            ) {
                expect += alpha.get(p) * u.value(at);
            }
        }
        assert!(
            (out.utility - expect).abs() < 1e-9,
            "runtime utility {} != recomputed {expect}; case {app_seed}/{sc_seed}/{faults}",
            out.utility
        );
    }
}

#[test]
fn faults_hit_never_exceed_plan() {
    for (app_seed, sc_seed, faults) in cases() {
        let app = build_app(app_seed);
        let faults = faults.min(app.faults().k);
        let tree = synth_tree(&app, 4);
        let runner = OnlineScheduler::new(&app, &tree);
        let sampler = ScenarioSampler::new(&app);
        let sc = sampler.sample(&mut StdRng::seed_from_u64(sc_seed), faults);
        let out = runner.run(&sc);
        assert!(
            out.faults_hit <= faults,
            "case {app_seed}/{sc_seed}/{faults}"
        );
        assert!(
            out.trace.fault_count() <= faults,
            "case {app_seed}/{sc_seed}/{faults}"
        );
    }
}

/// Deterministic exhaustive check on a tiny app: every fault placement and
/// a grid of execution times — stronger than sampling for the core safety
/// property.
#[test]
fn exhaustive_fault_placements_on_small_app() {
    let ms = Time::from_ms;
    let mut b = Application::builder(ms(400), FaultModel::new(2, ms(5)));
    let h1 = b.add_hard(
        "H1",
        ExecutionTimes::uniform(ms(10), ms(40)).unwrap(),
        ms(200),
    );
    let s1 = b.add_soft(
        "S1",
        ExecutionTimes::uniform(ms(10), ms(40)).unwrap(),
        UtilityFunction::step(20.0, [(ms(120), 10.0), (ms(300), 0.0)]).unwrap(),
    );
    let h2 = b.add_hard(
        "H2",
        ExecutionTimes::uniform(ms(10), ms(40)).unwrap(),
        ms(380),
    );
    b.add_dependency(h1, s1).unwrap();
    b.add_dependency(h1, h2).unwrap();
    let app = b.build().unwrap();
    let tree = synth_tree(&app, 4);
    let runner = OnlineScheduler::new(&app, &tree);

    let attempts = app.faults().k + 1;
    let grid = [10u64, 25, 40];
    for &d1 in &grid {
        for &d2 in &grid {
            for &d3 in &grid {
                // Every way to place up to 2 faults on 3 processes.
                for fa in 0..=2usize {
                    for fb in 0..=(2 - fa) {
                        for fc in 0..=(2 - fa - fb) {
                            let durations = vec![
                                vec![ms(d1); attempts],
                                vec![ms(d2); attempts],
                                vec![ms(d3); attempts],
                            ];
                            let faulty = vec![
                                (0..attempts).map(|a| a < fa).collect(),
                                (0..attempts).map(|a| a < fb).collect(),
                                (0..attempts).map(|a| a < fc).collect(),
                            ];
                            let sc = ExecutionScenario::from_tables(durations, faulty);
                            let out = runner.run(&sc);
                            assert!(
                                out.deadline_miss.is_none(),
                                "miss at d=({d1},{d2},{d3}) f=({fa},{fb},{fc})"
                            );
                            assert!(out.completions[h1.index()].is_some());
                            assert!(out.completions[h2.index()].is_some());
                        }
                    }
                }
            }
        }
    }
}
