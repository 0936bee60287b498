//! Property corpus for the fault-injection subsystem.
//!
//! Two families of seeded cases (no proptest in this environment; every
//! assertion message carries the failing seed triple):
//!
//! * **In-model**: under every duration-bounded fault model (independent,
//!   bursty, intermittent) with at most `k` planned faults, all three
//!   policies (FTQS tree, FTSS schedule, FTSF schedule) keep
//!   `deadline_miss` `None` — the paper's guarantee survives the new
//!   sampler plumbing.
//! * **Out-of-model**: scenarios planning up to `2k` faults and WCET
//!   overruns always simulate to completion with a `DegradationVerdict`
//!   — no panics — for all three policies.
//!
//! Plus the bit-identity pins: the default independent-uniform model must
//! reproduce the historical sampler exactly (scenario digests and Monte
//! Carlo means captured before the `FaultModel` abstraction existed).

use ftqs_core::{
    Application, Engine, ExecutionTimes, FSchedule, FaultModel as DesignFaults, QuasiStaticTree,
    SynthesisRequest, Time, UtilityFunction,
};
use ftqs_sim::{
    DegradationVerdict, FaultModel, MonteCarlo, OnlineScheduler, ScenarioSampler, FAULT_MODEL_NAMES,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn t(ms: u64) -> Time {
    Time::from_ms(ms)
}

fn synth_tree(app: &Application, budget: usize) -> QuasiStaticTree {
    Engine::new()
        .session()
        .synthesize(app, &SynthesisRequest::ftqs(budget))
        .expect("schedulable")
        .into_tree()
}

fn synth_static(app: &Application, req: &SynthesisRequest) -> FSchedule {
    Engine::new()
        .session()
        .synthesize(app, req)
        .expect("schedulable")
        .root_schedule()
        .clone()
}

fn build_app(seed: u64) -> Application {
    use ftqs_workloads::{synthetic, GeneratorParams};
    let params = GeneratorParams::paper(10 + (seed as usize % 3) * 5);
    let mut rng = StdRng::seed_from_u64(0xD15C + seed);
    synthetic::generate_schedulable(&params, &mut rng, 50)
}

fn cases() -> impl Iterator<Item = (u64, u64)> {
    (0..24u64).map(|i| {
        let mut rng = StdRng::seed_from_u64(0xDE64 ^ i);
        (rng.gen_range(0u64..8), rng.gen::<u64>())
    })
}

/// The paper's Fig. 1 application — the app the goldens were captured on.
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

/// FNV-style fold over every (duration, fault) cell of a scenario.
fn scenario_digest(app: &Application, sc: &ftqs_sim::ExecutionScenario) -> u64 {
    let mut digest = 0u64;
    for p in app.processes() {
        for a in 0..sc.attempts() {
            digest = digest
                .wrapping_mul(0x100000001b3)
                .wrapping_add(sc.duration(p, a).as_ms());
            digest = digest
                .wrapping_mul(0x100000001b3)
                .wrapping_add(u64::from(sc.is_faulty(p, a)));
        }
    }
    digest
}

#[test]
fn independent_model_is_bit_identical_to_legacy_sampler() {
    // Digests captured from the sampler before the FaultModel abstraction:
    // same seed must keep producing the same ExecutionScenario.
    let app = fig1_app();
    let sampler = ScenarioSampler::new(&app);
    let goldens: [(u64, usize, u64); 6] = [
        (9, 0, 0x679d5186ff8520cd),
        (9, 1, 0x8042728a82d54316),
        (77, 0, 0xd625cc31c3b0f4d0),
        (77, 1, 0xeecaed3547011719),
        (123, 0, 0x47b33f199526d398),
        (123, 1, 0x2449a34c831899d1),
    ];
    for (seed, faults, want) in goldens {
        let sc = sampler.sample(&mut StdRng::seed_from_u64(seed), faults);
        assert_eq!(
            scenario_digest(&app, &sc),
            want,
            "scenario drifted: seed {seed}, {faults} faults"
        );
    }
}

#[test]
fn generated_app_monte_carlo_means_are_pinned() {
    // Fig9-style pipeline golden: synthetic app, FTQS tree, Monte Carlo
    // means for each paper fault count — bit-for-bit.
    use ftqs_workloads::{synthetic, GeneratorParams};
    let params = GeneratorParams::paper(10);
    let mut rng = StdRng::seed_from_u64(0xF19);
    let app = synthetic::generate_schedulable(&params, &mut rng, 50);
    let tree = synth_tree(&app, 6);
    let mc = MonteCarlo {
        scenarios: 300,
        seed: 0xABCD,
        threads: 1,
    };
    let want = [
        0x406e01408168961cu64,
        0x406b79df8ad04785,
        0x406997d1e6eef327,
        0x40684ae662792fe4,
    ];
    for (f, bits) in want.into_iter().enumerate() {
        let e = mc.evaluate(&app, &tree, f);
        assert_eq!(
            e.utility.mean().to_bits(),
            bits,
            "fig9-style mean drifted at {f} faults (got {})",
            e.utility.mean()
        );
        assert_eq!(e.deadline_misses, 0);
    }
}

#[test]
fn in_model_scenarios_never_miss_under_any_duration_bounded_model() {
    let models = [
        FaultModel::Independent,
        FaultModel::preset("bursty").unwrap(),
        FaultModel::preset("intermittent").unwrap(),
    ];
    for (app_seed, sc_seed) in cases() {
        let app = build_app(app_seed);
        let k = app.faults().k;
        let tree = synth_tree(&app, 6);
        let ftqs = OnlineScheduler::new(&app, &tree);
        let ftss = synth_static(&app, &SynthesisRequest::ftss());
        let ftsf = synth_static(&app, &SynthesisRequest::ftsf());
        for model in models {
            let sampler = ScenarioSampler::with_model(&app, model);
            for faults in 0..=k {
                let sc = sampler.sample(&mut StdRng::seed_from_u64(sc_seed), faults);
                let outs = [
                    ftqs.run(&sc),
                    OnlineScheduler::run_static(&app, &ftss, &sc),
                    OnlineScheduler::run_static(&app, &ftsf, &sc),
                ];
                for (policy, out) in ["ftqs", "ftss", "ftsf"].iter().zip(outs) {
                    assert!(
                        out.deadline_miss.is_none(),
                        "{policy} missed a deadline in-model; model {}, case \
                         {app_seed}/{sc_seed}/{faults}",
                        model.name()
                    );
                    assert_eq!(
                        out.verdict,
                        DegradationVerdict::InModel,
                        "{policy} verdict; model {}, case {app_seed}/{sc_seed}/{faults}",
                        model.name()
                    );
                }
            }
        }
    }
}

#[test]
fn out_of_model_scenarios_always_return_a_verdict() {
    for (app_seed, sc_seed) in cases() {
        let app = build_app(app_seed);
        let k = app.faults().k;
        let tree = synth_tree(&app, 6);
        let ftqs = OnlineScheduler::new(&app, &tree);
        let ftss = synth_static(&app, &SynthesisRequest::ftss());
        let ftsf = synth_static(&app, &SynthesisRequest::ftsf());
        for name in FAULT_MODEL_NAMES {
            let model = FaultModel::preset(name).unwrap();
            let sampler = ScenarioSampler::with_model(&app, model);
            // Fault intensities past the budget, up to 2k.
            for faults in [k + 1, 2 * k] {
                let sc = sampler.sample(&mut StdRng::seed_from_u64(sc_seed), faults);
                let outs = [
                    ftqs.run(&sc),
                    OnlineScheduler::run_static(&app, &ftss, &sc),
                    OnlineScheduler::run_static(&app, &ftsf, &sc),
                ];
                for (policy, out) in ["ftqs", "ftss", "ftsf"].iter().zip(outs) {
                    // The verdict must be consistent with the miss field.
                    match out.verdict {
                        DegradationVerdict::HardMiss { process, .. } => {
                            assert_eq!(
                                out.deadline_miss,
                                Some(process),
                                "{policy}/{name} case {app_seed}/{sc_seed}/{faults}"
                            );
                        }
                        DegradationVerdict::Degraded {
                            faults_beyond_budget,
                            wcet_overruns,
                        } => {
                            assert!(out.deadline_miss.is_none());
                            assert!(
                                faults_beyond_budget > 0 || wcet_overruns > 0,
                                "{policy}/{name} empty degradation; case \
                                 {app_seed}/{sc_seed}/{faults}"
                            );
                        }
                        DegradationVerdict::InModel => {
                            // Legitimate: planned faults can land on dropped
                            // processes and never materialize.
                            assert!(out.deadline_miss.is_none());
                            assert!(out.faults_hit <= k);
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn wcet_overruns_surface_in_the_verdict() {
    // With overrun probability 1 every attempt exceeds its WCET, so any
    // completed cycle must be flagged Degraded or HardMiss — never InModel
    // (every app has at least one process that executes).
    let model = FaultModel::WcetStress {
        overrun_prob: 1.0,
        overrun_factor: 2.0,
    };
    for (app_seed, sc_seed) in cases().take(8) {
        let app = build_app(app_seed);
        let tree = synth_tree(&app, 4);
        let sampler = ScenarioSampler::with_model(&app, model);
        let sc = sampler.sample(&mut StdRng::seed_from_u64(sc_seed), 0);
        let out = OnlineScheduler::new(&app, &tree).run(&sc);
        assert!(out.wcet_overruns > 0, "case {app_seed}/{sc_seed}");
        assert_ne!(
            out.verdict,
            DegradationVerdict::InModel,
            "universal overruns must not report in-model; case {app_seed}/{sc_seed}"
        );
    }
}

#[test]
fn extreme_fault_loads_terminate_on_hard_processes() {
    // Worst case for termination: every planned fault lands on the same
    // hard process (intermittent, reoccur = 1). The attempt table is sized
    // to the plan, saturation ends the fault run, and the cycle completes.
    let app = fig1_app(); // k = 1
    let tree = synth_tree(&app, 4);
    let sampler = ScenarioSampler::with_model(&app, FaultModel::Intermittent { reoccur: 1.0 });
    for planned in [2usize, 4, 8] {
        let sc = sampler.sample(&mut StdRng::seed_from_u64(99), planned);
        let out = OnlineScheduler::new(&app, &tree).run(&sc);
        assert!(
            out.faults_hit <= planned,
            "materialized more than planned at {planned}"
        );
        // Every hard process still ran to completion (possibly late).
        for h in app.hard_processes() {
            assert!(out.completions[h.index()].is_some());
        }
    }
}
