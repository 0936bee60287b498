//! # ftqs-bench — experiment harness for the DATE 2008 reproduction
//!
//! Shared machinery for the experiment binaries (`fig9a`, `fig9b`,
//! `table1`, `cruise`) and the `bench_*` binaries: building the three
//! schedulers under comparison (FTQS / FTSS / FTSF) for a workload,
//! evaluating them over identical Monte Carlo scenarios, and printing the
//! paper's tables.
//!
//! Every binary accepts `--apps N`, `--scenarios N`, and `--seed N` to
//! trade fidelity for speed; `--full` selects the paper-scale settings
//! (450 applications, 20,000 scenarios).
//!
//! # Performance
//!
//! Paper-scale runs lean on the synthesis optimizations in `ftqs-core`
//! (see the module docs of `ftqs_core::ftss` for the full design):
//!
//! * **Incremental fault-delay accumulation** — per-prefix worst-case
//!   fault delays come from a `FaultDelayAccumulator` (a penalty-sorted
//!   allowance histogram with O(k) top-of-histogram queries) instead of
//!   re-solving the greedy bounded knapsack per prefix, and the FTSS
//!   schedulability probes collapse to integer comparisons against cached
//!   per-budget *suffix slacks*.
//! * **Scratch buffers** — FTSS's `Si′`/`Si″`/`SiH` hypothetical schedules
//!   and the FTQS interval-partitioning sweeps run on reusable dense
//!   `NodeId`-indexed tables (generation-stamped membership, cached stale
//!   coefficients), so the synthesis inner loops allocate nothing.
//! * **Parallel layers** — FTQS sub-schedule generation and per-arc
//!   interval sweeps, plus Monte Carlo scenario batches in `ftqs-sim`, run
//!   on scoped worker threads sized by the host's CPU count and the
//!   request's cap, with results bit-identical to the serial path.
//!
//! The pre-optimization algorithms are preserved verbatim in
//! `ftqs_core::oracle`; `bench_synthesis` times both and writes
//! `BENCH_synthesis.json` (median ns and speedups at 10/20/40 processes)
//! so the performance trajectory is tracked across PRs.

#![warn(missing_docs)]

use ftqs_core::{Application, Engine, Error, QuasiStaticTree, SynthesisRequest};
use ftqs_sim::{Evaluation, FaultModel, MonteCarlo};

/// The three schedulers of the paper's evaluation, synthesized for one
/// application. All are executed through the same online runtime — FTSS
/// and FTSF as single-node trees.
#[derive(Debug)]
pub struct SchedulerSet {
    /// Quasi-static tree (FTQS).
    pub ftqs: QuasiStaticTree,
    /// Single fault-tolerant static schedule (FTSS).
    pub ftss: QuasiStaticTree,
    /// Straightforward baseline (FTSF).
    pub ftsf: QuasiStaticTree,
}

impl SchedulerSet {
    /// Builds all three schedulers with an FTQS budget of `m` schedules,
    /// through a one-shot engine session.
    ///
    /// # Errors
    ///
    /// Propagates the engine [`Error`] when the application is
    /// unschedulable (callers typically skip such instances, as the paper's
    /// generator only retains schedulable ones).
    pub fn build(app: &Application, m: usize) -> Result<SchedulerSet, Error> {
        SchedulerSet::build_with(&mut Engine::new().session(), app, m)
    }

    /// Builds all three schedulers through a caller-provided session —
    /// batch experiments (hundreds of applications) reuse one session so
    /// the synthesis scratch is allocated once per worker, not per app.
    ///
    /// # Errors
    ///
    /// Propagates the engine [`Error`] when the application is
    /// unschedulable.
    pub fn build_with(
        session: &mut ftqs_core::Session,
        app: &Application,
        m: usize,
    ) -> Result<SchedulerSet, Error> {
        let tree = session
            .synthesize(app, &SynthesisRequest::ftqs(m))?
            .into_tree();
        let root = session
            .synthesize(app, &SynthesisRequest::ftss())?
            .into_tree();
        let baseline = session
            .synthesize(app, &SynthesisRequest::ftsf())?
            .into_tree();
        Ok(SchedulerSet {
            ftqs: tree,
            ftss: root,
            ftsf: baseline,
        })
    }
}

/// Mean utilities of one scheduler across the standard fault counts.
#[derive(Debug, Clone, Copy, Default)]
pub struct FaultSweep {
    /// Mean utility with 0, 1, 2 and 3 faults (entries beyond the
    /// application's budget `k` repeat the `k`-fault value).
    pub by_faults: [f64; 4],
}

/// Evaluates `tree` over 0..=3-fault scenario sets (clamped to the
/// application's `k`).
#[must_use]
pub fn fault_sweep(app: &Application, tree: &QuasiStaticTree, mc: &MonteCarlo) -> FaultSweep {
    let k = app.faults().k;
    let mut out = FaultSweep::default();
    for f in 0..4 {
        let fc = f.min(k);
        let eval = mc.evaluate(app, tree, fc);
        assert_eq!(
            eval.deadline_misses, 0,
            "hard deadline missed during evaluation — scheduler bug"
        );
        out.by_faults[f] = eval.utility.mean();
    }
    out
}

/// Mean no-fault utility of `tree`.
#[must_use]
pub fn no_fault_utility(app: &Application, tree: &QuasiStaticTree, mc: &MonteCarlo) -> f64 {
    let eval = mc.evaluate(app, tree, 0);
    assert_eq!(eval.deadline_misses, 0, "hard deadline missed");
    eval.utility.mean()
}

/// Evaluates `tree` across a fault-intensity grid under one fault model —
/// the robustness analogue of [`fault_sweep`], allowing intensities beyond
/// the design budget and tolerating (counting) deadline misses.
///
/// For duration-bounded models (everything except `wcet-stress`), the
/// in-model cells (`intensity <= k`) are asserted miss-free — the paper's
/// guarantee must hold wherever its assumptions do.
#[must_use]
pub fn degradation_sweep(
    app: &Application,
    tree: &QuasiStaticTree,
    mc: &MonteCarlo,
    model: FaultModel,
    intensities: &[usize],
) -> Vec<Evaluation> {
    let k = app.faults().k;
    let duration_bounded = !matches!(model, FaultModel::WcetStress { .. });
    let evals = mc.evaluate_intensity_sweep(app, tree, model, intensities);
    for (&intensity, eval) in intensities.iter().zip(&evals) {
        if duration_bounded && intensity <= k {
            assert_eq!(
                eval.deadline_misses,
                0,
                "hard deadline missed in-model ({} model, {intensity} faults) — scheduler bug",
                model.name()
            );
        }
    }
    evals
}

/// Percentage of `value` relative to `reference` (100 = equal); 100 when
/// the reference is ~0 (both schedulers produced nothing).
#[must_use]
pub fn normalize(value: f64, reference: f64) -> f64 {
    if reference.abs() < 1e-9 {
        100.0
    } else {
        100.0 * value / reference
    }
}

/// Tiny command-line option reader: `--name value` pairs and bare flags.
#[derive(Debug, Clone)]
pub struct Options {
    args: Vec<String>,
}

impl Options {
    /// Captures the process arguments.
    #[must_use]
    pub fn from_env() -> Self {
        Options {
            args: std::env::args().skip(1).collect(),
        }
    }

    /// Builds options from an explicit list (tests).
    #[must_use]
    pub fn from_vec(args: Vec<String>) -> Self {
        Options { args }
    }

    /// `true` if the bare flag `--name` is present.
    #[must_use]
    pub fn flag(&self, name: &str) -> bool {
        self.args.iter().any(|a| a == name)
    }

    /// The value following `--name`, parsed, or `default`.
    ///
    /// # Panics
    ///
    /// Panics with a usage message if the value fails to parse.
    #[must_use]
    pub fn value<T: std::str::FromStr>(&self, name: &str, default: T) -> T
    where
        T::Err: std::fmt::Display,
    {
        match self.args.iter().position(|a| a == name) {
            Some(i) => {
                let raw = self
                    .args
                    .get(i + 1)
                    .unwrap_or_else(|| panic!("missing value for {name}"));
                raw.parse()
                    .unwrap_or_else(|e| panic!("invalid value for {name}: {e}"))
            }
            None => default,
        }
    }
}

/// Prints a separator-delimited row, space-padding each cell to `width`.
pub fn print_row(cells: &[String], width: usize) {
    let row: Vec<String> = cells.iter().map(|c| format!("{c:>width$}")).collect();
    println!("{}", row.join("  "));
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftqs_workloads::{synthetic, GeneratorParams};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn scheduler_set_builds_for_generated_app() {
        let params = GeneratorParams::paper(10);
        let mut rng = StdRng::seed_from_u64(1);
        let app = synthetic::generate_schedulable(&params, &mut rng, 20);
        let set = SchedulerSet::build(&app, 4).unwrap();
        assert!(!set.ftqs.is_empty());
        assert_eq!(set.ftss.len(), 1);
        assert_eq!(set.ftsf.len(), 1);
    }

    #[test]
    fn fault_sweep_is_monotone_nonincreasing_on_average() {
        let params = GeneratorParams::paper(10);
        let mut rng = StdRng::seed_from_u64(3);
        let app = synthetic::generate_schedulable(&params, &mut rng, 20);
        let set = SchedulerSet::build(&app, 4).unwrap();
        let mc = MonteCarlo {
            scenarios: 300,
            seed: 5,
            threads: 2,
        };
        let sweep = fault_sweep(&app, &set.ftqs, &mc);
        assert!(sweep.by_faults[0] + 1e-9 >= sweep.by_faults[3]);
    }

    #[test]
    fn degradation_sweep_covers_out_of_model_cells() {
        let params = GeneratorParams::paper(10);
        let mut rng = StdRng::seed_from_u64(9);
        let app = synthetic::generate_schedulable(&params, &mut rng, 20);
        let set = SchedulerSet::build(&app, 4).unwrap();
        let mc = MonteCarlo {
            scenarios: 100,
            seed: 13,
            threads: 1,
        };
        let k = app.faults().k;
        let intensities = ftqs_workloads::presets::robustness_intensities(k);
        let evals = degradation_sweep(&app, &set.ftqs, &mc, FaultModel::Independent, &intensities);
        assert_eq!(evals.len(), 2 * k + 1);
        // In-model cells miss-free (asserted inside); utility should not
        // improve as intensity grows past the design point.
        assert!(evals[0].utility.mean() + 1e-9 >= evals[2 * k].utility.mean());
    }

    #[test]
    fn every_preset_model_resolves_for_the_robustness_grid() {
        for name in ftqs_workloads::presets::ROBUSTNESS_MODELS {
            assert!(
                FaultModel::preset(name).is_some(),
                "preset {name} missing from ftqs_sim::FaultModel"
            );
        }
    }

    #[test]
    fn normalize_handles_zero_reference() {
        assert_eq!(normalize(10.0, 0.0), 100.0);
        assert!((normalize(50.0, 100.0) - 50.0).abs() < 1e-12);
    }

    #[test]
    fn options_parse_values_and_flags() {
        let o = Options::from_vec(vec!["--apps".into(), "7".into(), "--full".into()]);
        assert_eq!(o.value("--apps", 1usize), 7);
        assert_eq!(o.value("--scenarios", 99usize), 99);
        assert!(o.flag("--full"));
        assert!(!o.flag("--quick"));
    }
}
