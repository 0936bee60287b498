//! Regenerates Fig. 9a of the paper: utility of FTQS / FTSS / FTSF in the
//! **no-fault** scenario, normalized to FTQS (= 100 %), as a function of
//! application size. Also reports the FTSF-vs-FTSS deficit of the paper's
//! first experiment ("FTSF is 20-70% worse in terms of utility compared to
//! FTSS").
//!
//! Usage: `cargo run --release -p ftqs-bench --bin fig9a [--apps N]
//! [--scenarios N] [--seed N] [--full]`

use ftqs_bench::{no_fault_utility, normalize, print_row, Options, SchedulerSet};
use ftqs_sim::MonteCarlo;
use ftqs_workloads::{presets, synthetic};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let opts = Options::from_env(&["--full", "--apps", "--scenarios", "--seed"]);
    let full = opts.flag("--full");
    let apps: usize = opts.value(
        "--apps",
        if full {
            presets::FIG9_APPS_PER_SIZE
        } else {
            10
        },
    );
    let scenarios: usize = opts.value("--scenarios", if full { 20_000 } else { 1_000 });
    let seed: u64 = opts.value("--seed", 1u64);

    let mc = MonteCarlo {
        scenarios,
        seed,
        threads: std::thread::available_parallelism().map_or(1, usize::from),
    };

    println!("Fig. 9a — no-fault utility normalized to FTQS (100%)");
    println!("  {apps} application(s) per size, {scenarios} scenarios each, seed {seed}\n");
    print_row(
        &["size", "FTQS", "FTSS", "FTSF", "FTSF/FTSS"].map(String::from),
        10,
    );

    for &size in &presets::FIG9_SIZES {
        let params = presets::fig9_params(size);
        let mut sum_ftqs = 0.0;
        let mut sum_ftss = 0.0;
        let mut sum_ftsf = 0.0;
        let mut built = 0usize;
        for i in 0..apps {
            let mut rng = StdRng::seed_from_u64(presets::app_seed(seed ^ 0xA, i + size * 1000));
            let app = synthetic::generate_schedulable(&params, &mut rng, 50);
            let Ok(set) = SchedulerSet::build(&app, size) else {
                continue;
            };
            let u_ftqs = no_fault_utility(&app, &set.ftqs, &mc);
            let u_ftss = no_fault_utility(&app, &set.ftss, &mc);
            let u_ftsf = no_fault_utility(&app, &set.ftsf, &mc);
            sum_ftqs += normalize(u_ftqs, u_ftqs);
            sum_ftss += normalize(u_ftss, u_ftqs);
            sum_ftsf += normalize(u_ftsf, u_ftqs);
            built += 1;
        }
        let n = built.max(1) as f64;
        let (ftqs_pct, ftss_pct, ftsf_pct) = (sum_ftqs / n, sum_ftss / n, sum_ftsf / n);
        print_row(
            &[
                size.to_string(),
                format!("{ftqs_pct:.1}"),
                format!("{ftss_pct:.1}"),
                format!("{ftsf_pct:.1}"),
                format!("{:.1}", 100.0 * ftsf_pct / ftss_pct.max(1e-9)),
            ],
            10,
        );
    }
    println!("\npaper shape: FTQS = 100 > FTSS (82-90) > FTSF; FTSF 20-70% below FTSS.");
}
