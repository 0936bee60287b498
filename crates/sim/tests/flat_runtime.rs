//! Bit-identity corpus: the flat runtime (`FlatRuntime`/`BatchRunner`)
//! must reproduce the reference `OnlineScheduler` *exactly* — utilities
//! (f64 bits), `DegradationVerdict`s, completion tables, and full event
//! traces — across generated applications × synthesis policies
//! (FTQS/FTSS/FTSF) × all fault-model presets × in- and out-of-model
//! intensities. Plus the batching contracts: thread-count invariance and
//! common-random-numbers behaviour of the sweep evaluators.

use ftqs_core::{Application, Engine, QuasiStaticTree, SynthesisRequest};
use ftqs_sim::{
    BatchRunner, FaultModel, FlatRuntime, MonteCarlo, NoTrace, OnlineScheduler, RunScratch,
    ScenarioSampler, FAULT_MODEL_NAMES,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn build_app(seed: u64) -> Application {
    use ftqs_workloads::{synthetic, GeneratorParams};
    let params = GeneratorParams::paper(10 + (seed as usize % 3) * 5);
    let mut rng = StdRng::seed_from_u64(0xD15C + seed);
    synthetic::generate_schedulable(&params, &mut rng, 50)
}

/// The three synthesis policies of the paper's comparison, as trees.
fn policy_trees(app: &Application) -> Vec<(&'static str, QuasiStaticTree)> {
    let mut session = Engine::new().session();
    vec![
        (
            "ftqs",
            session
                .synthesize(app, &SynthesisRequest::ftqs(6))
                .expect("schedulable")
                .into_tree(),
        ),
        (
            "ftss",
            session
                .synthesize(app, &SynthesisRequest::ftss())
                .expect("schedulable")
                .into_tree(),
        ),
        (
            "ftsf",
            session
                .synthesize(app, &SynthesisRequest::ftsf())
                .expect("schedulable")
                .into_tree(),
        ),
    ]
}

#[test]
fn flat_runtime_is_bit_identical_to_reference_across_corpus() {
    for app_seed in [0u64, 1, 2, 5] {
        let app = build_app(app_seed);
        let k = app.faults().k;
        for (policy, tree) in policy_trees(&app) {
            let reference = OnlineScheduler::new(&app, &tree);
            let flat = FlatRuntime::new(&app, &tree);
            for model_name in FAULT_MODEL_NAMES {
                let model = FaultModel::preset(model_name).unwrap();
                let sampler = ScenarioSampler::with_model(&app, model);
                // In-model (0 and k) and out-of-model (2k) intensities.
                for intensity in [0usize, k, 2 * k] {
                    let mut rng = StdRng::seed_from_u64(
                        0xF1A7 ^ app_seed.wrapping_mul(31) ^ intensity as u64,
                    );
                    for rep in 0..40 {
                        let sc = sampler.sample(&mut rng, intensity);
                        let a = reference.run(&sc);
                        let b = flat.run(&sc);
                        let case =
                            format!("app {app_seed} {policy} {model_name} f={intensity} #{rep}");
                        assert_eq!(
                            a.utility.to_bits(),
                            b.utility.to_bits(),
                            "utility bits diverged: {case}"
                        );
                        assert_eq!(a.verdict, b.verdict, "verdict diverged: {case}");
                        assert_eq!(a.completions, b.completions, "completions diverged: {case}");
                        assert_eq!(a.deadline_miss, b.deadline_miss, "miss diverged: {case}");
                        assert_eq!(a.makespan, b.makespan, "makespan diverged: {case}");
                        assert_eq!(a.faults_hit, b.faults_hit, "faults diverged: {case}");
                        assert_eq!(
                            a.wcet_overruns, b.wcet_overruns,
                            "overruns diverged: {case}"
                        );
                        assert_eq!(a.trace, b.trace, "trace diverged: {case}");
                    }
                }
            }
        }
    }
}

#[test]
fn untraced_paths_match_traced_outcomes() {
    // The EventSink generic must not change semantics: NoTrace runs of
    // both runtimes produce the same numbers as traced runs.
    let app = build_app(3);
    let tree = policy_trees(&app).remove(0).1;
    let reference = OnlineScheduler::new(&app, &tree);
    let flat = FlatRuntime::new(&app, &tree);
    let sampler = ScenarioSampler::new(&app);
    let mut rng = StdRng::seed_from_u64(0xBEEF);
    let mut scratch = RunScratch::new();
    for f in 0..=app.faults().k {
        for _ in 0..50 {
            let sc = sampler.sample(&mut rng, f);
            let traced = reference.run(&sc);
            let untraced = reference.run_untraced(&sc);
            assert_eq!(traced.utility.to_bits(), untraced.utility.to_bits());
            assert_eq!(traced.verdict, untraced.verdict);
            assert!(untraced.trace.events().is_empty());
            let cycle = flat.run_cycle(&sc, &mut scratch, &mut NoTrace);
            assert_eq!(cycle.utility.to_bits(), traced.utility.to_bits());
            assert_eq!(cycle.verdict, traced.verdict);
            assert_eq!(cycle.switches, traced.trace.switch_count());
            assert_eq!(scratch.completions(), traced.completions.as_slice());
        }
    }
}

#[test]
fn batched_evaluation_is_thread_count_invariant() {
    // Per-worker counter-based RNG streams: scenario i's stream depends
    // only on (base seed, i), so any thread split produces identical
    // partials up to Welford merge order — counts and tallies exactly,
    // means to merge rounding. Covers an out-of-model intensity too.
    let app = build_app(1);
    let k = app.faults().k;
    let tree = policy_trees(&app).remove(0).1;
    let runtime = FlatRuntime::new(&app, &tree);
    for (model_name, intensity) in [("independent", k), ("intermittent", 2 * k)] {
        let model = FaultModel::preset(model_name).unwrap();
        let runner = BatchRunner::new(&app, &runtime, model);
        let serial = MonteCarlo {
            scenarios: 257, // deliberately not divisible by thread counts
            seed: 0xAB5EED,
            threads: 1,
        };
        let reference = runner.evaluate(&serial, intensity);
        for threads in [2usize, 3, 5, 8] {
            let par = MonteCarlo { threads, ..serial };
            let got = runner.evaluate(&par, intensity);
            assert_eq!(got.utility.count(), reference.utility.count());
            assert_eq!(
                got.deadline_misses, reference.deadline_misses,
                "{model_name}/{threads}t"
            );
            assert_eq!(got.degraded, reference.degraded, "{model_name}/{threads}t");
            assert!(
                (got.utility.mean() - reference.utility.mean()).abs() < 1e-9,
                "{model_name}: {threads} threads diverged"
            );
            assert!((got.faults.mean() - reference.faults.mean()).abs() < 1e-9);
        }
    }
}

#[test]
fn in_model_sweep_is_bit_identical_to_per_column_evaluation() {
    // Common random numbers must be a no-op while every column stays
    // in-model: attempts = k + 1 either way, so the sweep's columns equal
    // independent per-column evaluations bit for bit.
    let app = build_app(2);
    let k = app.faults().k;
    let tree = policy_trees(&app).remove(0).1;
    let mc = MonteCarlo {
        scenarios: 120,
        seed: 0x5EED,
        threads: 2,
    };
    let counts: Vec<usize> = (0..=k).collect();
    let swept = mc.evaluate_fault_sweep(&app, &tree, &counts);
    for (&f, col) in counts.iter().zip(&swept) {
        let solo = mc.evaluate(&app, &tree, f);
        assert_eq!(
            col.utility.mean().to_bits(),
            solo.utility.mean().to_bits(),
            "column f={f}"
        );
        assert_eq!(col.deadline_misses, solo.deadline_misses);
        assert_eq!(col.degraded, solo.degraded);
    }
}

#[test]
fn sweep_columns_share_duration_draws_across_intensities() {
    // The CRN contract at the sampler level: with the attempt-table width
    // pinned to the sweep maximum, the same per-scenario stream yields
    // identical duration tables for every fault count.
    use ftqs_sim::{FlatScenario, ScenarioView};
    let app = build_app(0);
    let k = app.faults().k;
    let attempts = (2 * k).max(k) + 1;
    let sampler = ScenarioSampler::new(&app);
    let mut base = FlatScenario::new();
    sampler.sample_into_with_attempts(&mut StdRng::seed_from_u64(42), 0, attempts, &mut base);
    for f in 1..=2 * k {
        let mut other = FlatScenario::new();
        sampler.sample_into_with_attempts(&mut StdRng::seed_from_u64(42), f, attempts, &mut other);
        assert_eq!(other.fault_count(), f);
        for p in 0..app.len() {
            for a in 0..attempts {
                assert_eq!(
                    base.attempt_duration(p, a),
                    other.attempt_duration(p, a),
                    "duration draw diverged at p={p} a={a} f={f}"
                );
            }
        }
    }
}

#[test]
fn out_of_model_sweep_columns_complete_with_verdicts() {
    // The CRN sweep must stay total out-of-model and partition scenarios
    // into the three verdict buckets.
    let app = build_app(4);
    let k = app.faults().k;
    let tree = policy_trees(&app).remove(0).1;
    let mc = MonteCarlo {
        scenarios: 100,
        seed: 9,
        threads: 2,
    };
    let intensities: Vec<usize> = (0..=2 * k).collect();
    let evals = mc.evaluate_intensity_sweep(&app, &tree, FaultModel::Independent, &intensities);
    assert_eq!(evals.len(), 2 * k + 1);
    for (&f, e) in intensities.iter().zip(&evals) {
        assert_eq!(e.utility.count(), 100, "column f={f} incomplete");
        if f <= k {
            assert_eq!(e.deadline_misses, 0, "in-model column f={f} missed");
        }
    }
}
