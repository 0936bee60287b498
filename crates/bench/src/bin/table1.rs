//! Regenerates Table 1 of the paper: quality of FTQS as a function of the
//! quasi-static tree size. For each node budget the table reports utility
//! (normalized to FTSS = the 1-node tree = 100 %) under 0/1/2/3 faults,
//! plus the measured synthesis runtime.
//!
//! Workload: "50 applications with 30 processes each ... the percentage of
//! soft and hard processes as 50/50" (§6).
//!
//! Usage: `cargo run --release -p ftqs-bench --bin table1 [--apps N]
//! [--scenarios N] [--seed N] [--full]`

use ftqs_bench::{fault_sweep, normalize, print_row, Options};
use ftqs_core::{Engine, SynthesisRequest};
use ftqs_sim::MonteCarlo;
use ftqs_workloads::{presets, synthetic};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

fn main() {
    let opts = Options::from_env(&["--full", "--apps", "--scenarios", "--seed"]);
    let full = opts.flag("--full");
    let apps: usize = opts.value("--apps", if full { presets::TABLE1_APPS } else { 5 });
    let scenarios: usize = opts.value("--scenarios", if full { 20_000 } else { 1_000 });
    let seed: u64 = opts.value("--seed", 1u64);

    let mc = MonteCarlo {
        scenarios,
        seed,
        threads: std::thread::available_parallelism().map_or(1, usize::from),
    };
    let params = presets::table1_params();

    println!("Table 1 — FTQS utility vs tree size, normalized to FTSS (100%)");
    println!(
        "  {apps} application(s) of 30 processes (50/50 hard/soft), {scenarios} scenarios, seed {seed}\n"
    );
    print_row(
        &["nodes", "kept", "0f", "1f", "2f", "3f", "time", "memory"].map(String::from),
        8,
    );

    // Generate the application set once.
    let mut set = Vec::new();
    for i in 0..apps {
        let mut rng = StdRng::seed_from_u64(presets::app_seed(seed ^ 0xC, i));
        set.push(synthetic::generate_schedulable(&params, &mut rng, 50));
    }

    // FTSS baseline per app (the 1-node tree).
    let mut session = Engine::new().session();
    let baselines: Vec<_> = set
        .iter()
        .map(|app| {
            let tree = session
                .synthesize(app, &SynthesisRequest::ftqs(1))
                .expect("schedulable by filter")
                .into_tree();
            fault_sweep(app, &tree, &mc)
        })
        .collect();

    for &m in &presets::TABLE1_NODES {
        let mut norm = [0.0f64; 4];
        let mut kept_total = 0usize;
        let mut memory_total = 0usize;
        let mut synth_time = std::time::Duration::ZERO;
        for (app, base) in set.iter().zip(&baselines) {
            let t0 = Instant::now();
            let report = session
                .synthesize(app, &SynthesisRequest::ftqs(m))
                .expect("schedulable by filter");
            synth_time += t0.elapsed();
            let tree = report.into_tree();
            kept_total += tree.len();
            memory_total += tree.memory_footprint_bytes();
            let sweep = fault_sweep(app, &tree, &mc);
            for (f, slot) in norm.iter_mut().enumerate() {
                *slot += normalize(sweep.by_faults[f], base.by_faults[f]);
            }
        }
        let n = set.len().max(1) as f64;
        print_row(
            &[
                m.to_string(),
                format!("{:.1}", kept_total as f64 / n),
                format!("{:.1}", norm[0] / n),
                format!("{:.1}", norm[1] / n),
                format!("{:.1}", norm[2] / n),
                format!("{:.1}", norm[3] / n),
                format!("{:.2}ms", synth_time.as_secs_f64() * 1e3 / n),
                format!("{:.1}kB", memory_total as f64 / n / 1024.0),
            ],
            8,
        );
    }
    println!(
        "\npaper shape: utility grows with tree size and saturates\n\
         (paper: 100 -> 111 -> 121 -> ... -> 126% at 89 nodes for no faults);\n\
         synthesis runtime grows with the budget (paper: 0.62s -> 38.79s)."
    );
}
