//! Monte Carlo evaluation of schedules and schedule trees.
//!
//! The paper evaluates every synthesized schedule over 20,000 random
//! execution scenarios per fault count (0, 1, 2, 3 faults) and reports the
//! average utility (§6). [`MonteCarlo`] reproduces that harness, replaying
//! identical scenarios against every scheduler under comparison and
//! splitting scenario batches across scoped worker threads.
//!
//! Results are independent of the thread count: scenario `i` derives its
//! seed from `(base_seed, i)` alone (see [`scenario_seed`]), and
//! per-thread partial statistics are merged with Welford/Chan
//! combination, so serial and parallel runs agree to floating-point merge
//! order (means are exactly equal; see the `parallel_means_match_serial`
//! test).
//!
//! Since the flat-runtime work, evaluation executes on
//! [`FlatRuntime`]/[`BatchRunner`] (see `crate::runtime`): the tree image
//! and analyses are built once per call (or once per *sweep*, shared
//! read-only across worker threads and columns), per-worker scratch is
//! reused across scenarios, and sweeps run under common random numbers.
//! Outcomes are pinned bit-identical to the reference
//! `OnlineScheduler`-based harness.
//!
//! Beyond the paper's harness, [`MonteCarlo::evaluate_intensity_sweep`]
//! runs the same machinery under any [`FaultModel`] and any fault
//! intensity — including out-of-model intensities beyond the design budget
//! `k` — and [`Evaluation`] aggregates the resulting
//! [`DegradationVerdict`]s into hard-miss and degradation rates alongside
//! the utility curve.

use crate::online::DegradationVerdict;
use crate::runtime::{BatchRunner, CycleOutcome, FlatRuntime};
use crate::scenario::FaultModel;
use crate::stats::Accumulator;
use ftqs_core::{Application, QuasiStaticTree};

/// Monte Carlo harness configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MonteCarlo {
    /// Scenarios per fault count (the paper uses 20,000).
    pub scenarios: usize,
    /// Base RNG seed; scenario `i` derives its own deterministic stream.
    pub seed: u64,
    /// Number of worker threads (1 = sequential); capped at the scenario
    /// count.
    pub threads: usize,
}

impl Default for MonteCarlo {
    fn default() -> Self {
        MonteCarlo {
            scenarios: 2_000,
            seed: 0xF7_05,
            threads: available_threads(),
        }
    }
}

fn available_threads() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Aggregated outcome of one evaluation run.
#[derive(Debug, Clone, Copy, Default)]
pub struct Evaluation {
    /// Utility statistics over all scenarios.
    pub utility: Accumulator,
    /// Hard-deadline misses observed (must stay 0 for correct schedulers
    /// on in-model scenarios; out-of-model intensities can be non-zero).
    pub deadline_misses: u64,
    /// Scenarios that ran out-of-contract without a hard miss
    /// ([`DegradationVerdict::Degraded`]).
    pub degraded: u64,
    /// Average number of materialized faults per scenario.
    pub faults: Accumulator,
    /// WCET overruns per scenario (non-zero only under
    /// `FaultModel::WcetStress` or hand-built scenarios).
    pub overruns: Accumulator,
}

impl Evaluation {
    /// Fraction of scenarios ending in a hard-deadline miss.
    #[must_use]
    pub fn miss_rate(&self) -> f64 {
        let n = self.utility.count();
        if n == 0 {
            0.0
        } else {
            self.deadline_misses as f64 / n as f64
        }
    }

    /// Fraction of scenarios that degraded without a hard miss.
    #[must_use]
    pub fn degraded_rate(&self) -> f64 {
        let n = self.utility.count();
        if n == 0 {
            0.0
        } else {
            self.degraded as f64 / n as f64
        }
    }

    /// Merges another evaluation (parallel reduction; Welford/Chan for
    /// the statistics).
    pub fn merge(&mut self, other: &Evaluation) {
        self.utility.merge(&other.utility);
        self.faults.merge(&other.faults);
        self.overruns.merge(&other.overruns);
        self.deadline_misses += other.deadline_misses;
        self.degraded += other.degraded;
    }

    /// Accumulates one simulated cycle.
    pub fn record(&mut self, out: &CycleOutcome) {
        self.utility.add(out.utility);
        self.faults.add(out.faults_hit as f64);
        self.overruns.add(out.wcet_overruns as f64);
        match out.verdict {
            DegradationVerdict::HardMiss { .. } => self.deadline_misses += 1,
            DegradationVerdict::Degraded { .. } => self.degraded += 1,
            DegradationVerdict::InModel => {}
        }
    }
}

impl MonteCarlo {
    /// Evaluates `tree` over `self.scenarios` scenarios, each planning
    /// exactly `fault_count` faults.
    ///
    /// Scenario `i` is generated from seed `self.seed ⊕ hash(i)` regardless
    /// of thread count or tree, so different schedulers evaluated with the
    /// same config face identical environments.
    ///
    /// `fault_count` may exceed the application's fault budget; see
    /// [`MonteCarlo::evaluate_intensity_sweep`] for the out-of-model
    /// semantics.
    #[must_use]
    pub fn evaluate(
        &self,
        app: &Application,
        tree: &QuasiStaticTree,
        fault_count: usize,
    ) -> Evaluation {
        let runtime = FlatRuntime::new(app, tree);
        BatchRunner::new(app, &runtime, FaultModel::Independent).evaluate(self, fault_count)
    }

    /// Sweeps fault intensity under one [`FaultModel`] — one
    /// [`Evaluation`] per entry of `intensities` (the paper's
    /// 0/1/2/3-fault columns, or `0..=2k` in the robustness harness).
    ///
    /// Intensities beyond `k` and the non-default models produce
    /// out-of-model scenarios: runs never panic, and the per-scenario
    /// `DegradationVerdict`s are pooled into
    /// [`Evaluation::deadline_misses`] and [`Evaluation::degraded`].
    ///
    /// The flat runtime image is built once and shared across all columns
    /// and worker threads, and every column executes under **common
    /// random numbers**: attempt tables are sized to the sweep's maximum
    /// (`max(k, max intensity) + 1`), so scenario `i` consumes the same
    /// duration draws in every column and column deltas are pure fault
    /// effects. A one-column sweep `&[f]` therefore uses the width
    /// `max(k, f) + 1` of a single evaluation, and under
    /// [`FaultModel::Independent`] it is bit-identical to
    /// [`MonteCarlo::evaluate`]; so is every column of an in-model sweep
    /// (every count `<= k`, the paper's fig9b case), since all of them
    /// already use `k + 1` attempts.
    #[must_use]
    pub fn evaluate_intensity_sweep(
        &self,
        app: &Application,
        tree: &QuasiStaticTree,
        model: FaultModel,
        intensities: &[usize],
    ) -> Vec<Evaluation> {
        let k = app.faults().k;
        let max_intensity = intensities.iter().copied().max().unwrap_or(0);
        let attempts = k.max(max_intensity) + 1;
        let runtime = FlatRuntime::new(app, tree);
        let runner = BatchRunner::new(app, &runtime, model);
        intensities
            .iter()
            .map(|&f| runner.evaluate_with_attempts(self, f, attempts))
            .collect()
    }
}

/// Clamp the requested thread count to between 1 and the scenario count.
pub(crate) fn effective_threads(requested: usize, scenarios: usize) -> usize {
    requested.max(1).min(scenarios.max(1))
}

/// SplitMix64-style mixing so per-scenario seeds are decorrelated.
///
/// This is the RNG-stream contract of the whole evaluation stack:
/// scenario `i` of a run with base seed `s` *always* draws from a fresh
/// `StdRng` seeded with `scenario_seed(s, i)`, regardless of thread
/// count, batch shape, or runtime (reference or flat) — which is what
/// makes results thread-count invariant and schedulers comparable under
/// identical environments.
#[must_use]
pub fn scenario_seed(base: u64, i: u64) -> u64 {
    let mut z = base ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftqs_core::{
        Engine, ExecutionTimes, FaultModel as DesignFaults, SynthesisRequest, Time, UtilityFunction,
    };

    fn synth_tree(app: &Application, budget: usize) -> QuasiStaticTree {
        Engine::new()
            .session()
            .synthesize(app, &SynthesisRequest::ftqs(budget))
            .unwrap()
            .into_tree()
    }

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

    #[test]
    fn evaluation_is_deterministic_for_fixed_seed() {
        let app = fig1_app();
        let tree = synth_tree(&app, 4);
        let mc = MonteCarlo {
            scenarios: 200,
            seed: 42,
            threads: 1,
        };
        let a = mc.evaluate(&app, &tree, 1);
        let b = mc.evaluate(&app, &tree, 1);
        assert_eq!(a.utility.mean(), b.utility.mean());
        assert_eq!(a.deadline_misses, 0);
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let app = fig1_app();
        let tree = synth_tree(&app, 4);
        let base = MonteCarlo {
            scenarios: 300,
            seed: 7,
            threads: 1,
        };
        let par = MonteCarlo { threads: 4, ..base };
        let a = base.evaluate(&app, &tree, 1);
        let b = par.evaluate(&app, &tree, 1);
        assert!((a.utility.mean() - b.utility.mean()).abs() < 1e-9);
        assert_eq!(a.utility.count(), b.utility.count());
    }

    #[test]
    fn parallel_means_match_serial_across_thread_counts() {
        // The ISSUE-mandated property: for a fixed seed, the parallel
        // evaluation's statistics must match the serial ones for every
        // thread split (each scenario's seed depends only on its index).
        let app = fig1_app();
        let tree = synth_tree(&app, 6);
        let serial = MonteCarlo {
            scenarios: 257, // deliberately not divisible by the thread counts
            seed: 0xC0FFEE,
            threads: 1,
        };
        let reference = serial.evaluate(&app, &tree, 1);
        for threads in [2usize, 3, 5, 8] {
            let par = MonteCarlo { threads, ..serial };
            let got = par.evaluate(&app, &tree, 1);
            assert_eq!(got.utility.count(), reference.utility.count());
            assert!(
                (got.utility.mean() - reference.utility.mean()).abs() < 1e-9,
                "{threads} threads diverged"
            );
            assert!((got.faults.mean() - reference.faults.mean()).abs() < 1e-9);
            assert_eq!(got.deadline_misses, reference.deadline_misses);
        }
    }

    #[test]
    fn more_faults_never_help_on_average() {
        let app = fig1_app();
        let tree = synth_tree(&app, 6);
        let mc = MonteCarlo {
            scenarios: 500,
            seed: 3,
            threads: 2,
        };
        let evals = mc.evaluate_intensity_sweep(&app, &tree, FaultModel::Independent, &[0, 1]);
        assert!(
            evals[0].utility.mean() >= evals[1].utility.mean(),
            "faults must not increase average utility"
        );
        assert!(evals[1].faults.mean() > 0.0);
        assert_eq!(evals[0].deadline_misses + evals[1].deadline_misses, 0);
    }

    #[test]
    fn independent_model_means_are_pinned_bit_identical() {
        // Goldens captured from the pre-FaultModel sampler: the default
        // model must reproduce fig9/table1-style means bit-for-bit.
        let app = fig1_app();
        let tree = synth_tree(&app, 4);
        let mc = MonteCarlo {
            scenarios: 200,
            seed: 42,
            threads: 1,
        };
        let f0 = mc.evaluate(&app, &tree, 0);
        let f1 = mc.evaluate(&app, &tree, 1);
        assert_eq!(f0.utility.mean().to_bits(), 0x404b933333333334);
        assert_eq!(f1.utility.mean().to_bits(), 0x403c7fffffffffff);
        // And a one-column sweep is the same machinery.
        let via_sweep = mc.evaluate_intensity_sweep(&app, &tree, FaultModel::Independent, &[1]);
        assert_eq!(via_sweep[0].utility.mean().to_bits(), 0x403c7fffffffffff);
    }

    #[test]
    fn out_of_model_intensities_aggregate_verdicts() {
        // k = 1; planning 2 or 3 faults is out-of-model. Runs must complete
        // and every scenario lands in exactly one verdict bucket.
        let app = fig1_app();
        let tree = synth_tree(&app, 4);
        let mc = MonteCarlo {
            scenarios: 300,
            seed: 11,
            threads: 2,
        };
        for f in [2usize, 3] {
            let e = &mc.evaluate_intensity_sweep(&app, &tree, FaultModel::Independent, &[f])[0];
            assert_eq!(e.utility.count(), 300);
            let in_model = 300 - e.deadline_misses - e.degraded;
            assert!(
                e.deadline_misses + e.degraded > 0,
                "{f} planned faults never exceeded the budget of 1?"
            );
            // Planned faults can land on dropped processes, so some runs
            // may still be in-model; the three buckets always partition.
            assert!(in_model <= 300);
        }
    }

    #[test]
    fn wcet_stress_model_reports_overruns_and_degradation() {
        let app = fig1_app();
        let tree = synth_tree(&app, 4);
        let mc = MonteCarlo {
            scenarios: 200,
            seed: 5,
            threads: 1,
        };
        let model = FaultModel::WcetStress {
            overrun_prob: 0.5,
            overrun_factor: 1.5,
        };
        let e = &mc.evaluate_intensity_sweep(&app, &tree, model, &[0])[0];
        assert!(e.overruns.mean() > 0.0, "stressor produced no overruns");
        assert!(
            e.deadline_misses + e.degraded > 0,
            "overruns must surface as degradation or misses"
        );
        assert!(e.miss_rate() + e.degraded_rate() <= 1.0 + 1e-12);
    }

    #[test]
    fn intensity_sweep_covers_out_of_model_range() {
        let app = fig1_app();
        let tree = synth_tree(&app, 4);
        let mc = MonteCarlo {
            scenarios: 100,
            seed: 23,
            threads: 1,
        };
        let intensities = [0usize, 1, 2];
        let evals = mc.evaluate_intensity_sweep(&app, &tree, FaultModel::Independent, &intensities);
        assert_eq!(evals.len(), 3);
        assert_eq!(evals[0].deadline_misses + evals[0].degraded, 0);
        assert!(evals[0].utility.mean() >= evals[2].utility.mean());
    }

    #[test]
    fn scenario_seed_mixing_decorrelates() {
        let a = scenario_seed(1, 0);
        let b = scenario_seed(1, 1);
        let c = scenario_seed(2, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
    }
}
