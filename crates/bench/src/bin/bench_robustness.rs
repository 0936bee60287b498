//! Robustness sweep: how far past the design point do the paper's
//! schedules stay useful? Writes `BENCH_robustness.json`.
//!
//! For every fault-model family (`independent`, `bursty`, `intermittent`,
//! `wcet-stress`) and every fault intensity `0..=2k` (the design budget is
//! `k = 3`, so half the grid is out-of-model), the three policies of the
//! paper's evaluation (FTQS / FTSS / FTSF) are Monte Carlo-evaluated over
//! seeded fig9-style applications. Per cell the harness reports:
//!
//! * mean utility as a percentage of the same application's FTQS
//!   utility at zero faults under the independent model (the fig9
//!   normalization, held fixed across models so curves are comparable),
//! * the pooled hard-deadline miss rate and degradation rate
//!   (`DegradationVerdict` aggregation), and
//! * mean materialized faults and WCET overruns per cycle.
//!
//! In-model cells of duration-bounded models are asserted miss-free: the
//! paper's guarantee must hold wherever its assumptions do.
//!
//! Usage: `cargo run --release -p ftqs-bench --bin bench_robustness
//! [--out PATH] [--apps N] [--scenarios N] [--seed N] [--smoke]`
//!
//! `--smoke` shrinks the grid to one size / two apps / 60 scenarios so CI
//! exercises every model × intensity × policy cell in seconds.

use ftqs_bench::{degradation_sweep, normalize, print_row, Options, SchedulerSet};
use ftqs_core::Engine;
use ftqs_sim::stats::Accumulator;
use ftqs_sim::{FaultModel, MonteCarlo};
use ftqs_workloads::{presets, synthetic};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt::Write as _;

const POLICIES: [&str; 3] = ["ftqs", "ftss", "ftsf"];

/// Pooled statistics of one (model, intensity, policy) cell.
#[derive(Debug, Clone, Copy, Default)]
struct Cell {
    utility_pct: Accumulator,
    faults: Accumulator,
    overruns: Accumulator,
    misses: u64,
    degraded: u64,
    scenarios: u64,
}

impl Cell {
    fn miss_rate(&self) -> f64 {
        if self.scenarios == 0 {
            0.0
        } else {
            self.misses as f64 / self.scenarios as f64
        }
    }

    fn degraded_rate(&self) -> f64 {
        if self.scenarios == 0 {
            0.0
        } else {
            self.degraded as f64 / self.scenarios as f64
        }
    }
}

fn main() {
    let opts = Options::from_env(&["--smoke", "--out", "--apps", "--scenarios", "--seed"]);
    let smoke = opts.flag("--smoke");
    let out_path: String = opts.value("--out", "BENCH_robustness.json".to_string());
    let apps: usize = opts.value(
        "--apps",
        if smoke {
            2
        } else {
            presets::ROBUSTNESS_APPS_PER_SIZE
        },
    );
    let scenarios: usize = opts.value("--scenarios", if smoke { 60 } else { 2_000 });
    let seed: u64 = opts.value("--seed", 1u64);
    let sizes: &[usize] = if smoke {
        &presets::ROBUSTNESS_SIZES[..1]
    } else {
        &presets::ROBUSTNESS_SIZES
    };

    let mc = MonteCarlo {
        scenarios,
        seed,
        threads: std::thread::available_parallelism().map_or(1, usize::from),
    };
    // All robustness apps share the paper's design budget.
    let k = presets::fig9_params(sizes[0]).k;
    let intensities = presets::robustness_intensities(k);
    let models: Vec<FaultModel> = presets::ROBUSTNESS_MODELS
        .iter()
        .map(|n| FaultModel::preset(n).expect("known preset"))
        .collect();

    eprintln!(
        "robustness sweep: sizes {sizes:?}, {apps} apps/size, {scenarios} scenarios/cell, \
         k = {k}, intensities 0..={}",
        2 * k
    );

    // cells[model][intensity][policy]
    let mut cells = vec![vec![[Cell::default(); POLICIES.len()]; intensities.len()]; models.len()];
    let mut session = Engine::new().session();
    let mut built = 0usize;

    for &size in sizes {
        let params = presets::fig9_params(size);
        for i in 0..apps {
            let mut rng = StdRng::seed_from_u64(presets::app_seed(seed ^ 0x0B5, i + size * 1000));
            let app = synthetic::generate_schedulable(&params, &mut rng, 50);
            let Ok(set) = SchedulerSet::build_with(&mut session, &app, size) else {
                continue;
            };
            built += 1;
            // The fig9 anchor: FTQS, independent model, zero faults.
            let reference = mc.evaluate(&app, &set.ftqs, 0).utility.mean();
            let trees = [&set.ftqs, &set.ftss, &set.ftsf];
            for (mi, &model) in models.iter().enumerate() {
                for (pi, tree) in trees.iter().enumerate() {
                    let evals = degradation_sweep(&app, tree, &mc, model, &intensities);
                    for (fi, eval) in evals.iter().enumerate() {
                        let cell = &mut cells[mi][fi][pi];
                        cell.utility_pct
                            .add(normalize(eval.utility.mean(), reference));
                        cell.faults.merge(&eval.faults);
                        cell.overruns.merge(&eval.overruns);
                        cell.misses += eval.deadline_misses;
                        cell.degraded += eval.degraded;
                        cell.scenarios += eval.utility.count();
                    }
                }
            }
        }
    }

    // Console summary: FTQS curve per model.
    println!("FTQS mean utility (% of independent/no-fault) and hard-miss rate by intensity");
    let mut header = vec!["model".to_string()];
    header.extend(intensities.iter().map(|f| format!("f={f}")));
    print_row(&header, 14);
    for (mi, name) in presets::ROBUSTNESS_MODELS.iter().enumerate() {
        let mut row = vec![name.to_string()];
        for intensity_cells in &cells[mi] {
            let c = &intensity_cells[0];
            row.push(format!("{:.1}%/{:.3}", c.utility_pct.mean(), c.miss_rate()));
        }
        print_row(&row, 14);
    }

    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"schema\": \"ftqs-bench-robustness/1\",");
    let _ = writeln!(json, "  \"smoke\": {smoke},");
    let _ = writeln!(json, "  \"sizes\": {sizes:?},");
    let _ = writeln!(json, "  \"apps_per_size\": {apps},");
    let _ = writeln!(json, "  \"apps_built\": {built},");
    let _ = writeln!(json, "  \"scenarios_per_cell\": {scenarios},");
    let _ = writeln!(json, "  \"seed\": {seed},");
    let _ = writeln!(json, "  \"fault_budget_k\": {k},");
    let _ = writeln!(json, "  \"intensities\": {intensities:?},");
    let _ = writeln!(json, "  \"host_threads\": {},", mc.threads);
    let _ = writeln!(
        json,
        "  \"normalization\": \"utility_pct is relative to the same app's FTQS mean utility \
         at zero faults under the independent model\","
    );
    json.push_str("  \"results\": [\n");
    let total = models.len() * intensities.len() * POLICIES.len();
    let mut emitted = 0usize;
    for (mi, name) in presets::ROBUSTNESS_MODELS.iter().enumerate() {
        for (fi, &intensity) in intensities.iter().enumerate() {
            for (pi, policy) in POLICIES.iter().enumerate() {
                let c = &cells[mi][fi][pi];
                emitted += 1;
                let _ = write!(
                    json,
                    "    {{\"model\": \"{name}\", \"intensity\": {intensity}, \
                     \"policy\": \"{policy}\", \"utility_pct\": {:.2}, \
                     \"utility_pct_ci95\": {:.2}, \"miss_rate\": {:.5}, \
                     \"degraded_rate\": {:.5}, \"faults_mean\": {:.3}, \
                     \"overruns_mean\": {:.3}, \"scenarios\": {}}}",
                    c.utility_pct.mean(),
                    c.utility_pct.ci95(),
                    c.miss_rate(),
                    c.degraded_rate(),
                    c.faults.mean(),
                    c.overruns.mean(),
                    c.scenarios
                );
                json.push_str(if emitted < total { ",\n" } else { "\n" });
            }
        }
    }
    json.push_str("  ]\n}\n");

    std::fs::write(&out_path, &json).expect("write BENCH_robustness.json");
    println!("wrote {out_path} ({built} apps built)");
}
