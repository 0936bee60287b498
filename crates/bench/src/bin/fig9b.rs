//! Regenerates Fig. 9b of the paper: utility under fault scenarios,
//! normalized to **FTQS with no faults** (= 100 %), as a function of
//! application size. Curves: FTQS with 0/1/2/3 faults, FTSS and FTSF with
//! 3 faults (as plotted in the paper).
//!
//! Usage: `cargo run --release -p ftqs-bench --bin fig9b [--apps N]
//! [--scenarios N] [--seed N] [--full]`

use ftqs_bench::{fault_sweep, normalize, print_row, Options, SchedulerSet};
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

    println!("Fig. 9b — utility under faults, normalized to FTQS/no-fault (100%)");
    println!(
        "  {apps} application(s) per size, {scenarios} scenarios per fault count, seed {seed}\n"
    );
    print_row(
        &[
            "size", "FTQS f0", "FTQS f1", "FTQS f2", "FTQS f3", "FTSS f3", "FTSF f3",
        ]
        .map(String::from),
        9,
    );

    for &size in &presets::FIG9_SIZES {
        let params = presets::fig9_params(size);
        let mut acc = [0.0f64; 6];
        let mut built = 0usize;
        for i in 0..apps {
            let mut rng = StdRng::seed_from_u64(presets::app_seed(seed ^ 0xB, i + size * 1000));
            let app = synthetic::generate_schedulable(&params, &mut rng, 50);
            let Ok(set) = SchedulerSet::build(&app, size) else {
                continue;
            };
            let q = fault_sweep(&app, &set.ftqs, &mc);
            let s = fault_sweep(&app, &set.ftss, &mc);
            let f = fault_sweep(&app, &set.ftsf, &mc);
            let base = q.by_faults[0];
            for (slot, v) in [
                q.by_faults[0],
                q.by_faults[1],
                q.by_faults[2],
                q.by_faults[3],
                s.by_faults[3],
                f.by_faults[3],
            ]
            .into_iter()
            .enumerate()
            {
                acc[slot] += normalize(v, base);
            }
            built += 1;
        }
        let n = built.max(1) as f64;
        print_row(
            &{
                let mut cells = vec![size.to_string()];
                cells.extend(acc.iter().map(|v| format!("{:.1}", v / n)));
                cells
            },
            9,
        );
    }
    println!(
        "\npaper shape: FTQS utility drops ~16/31/43% (10 procs) and ~3/7/10% (50 procs)\n\
         for 1/2/3 faults; FTQS dominates FTSS and FTSF at every fault count."
    );
}
