//! Regenerates the cruise-controller experiment of §6: FTQS vs FTSS vs
//! FTSF on the 32-process CC (9 hard processes, k = 2, µ = 10 % of WCET).
//!
//! The paper reports: "FTQS requires 39 schedules to get 14% improvement
//! over FTSS and 81% improvement over FTSF in case of no faults. The
//! utility of schedules produced with FTQS is reduced by 4% with 1 fault
//! and by only 9% with 2 faults."
//!
//! Usage: `cargo run --release -p ftqs-bench --bin cruise [--scenarios N]
//! [--budget N] [--seed N]`

use ftqs_bench::{fault_sweep, no_fault_utility, normalize, Options, SchedulerSet};
use ftqs_sim::MonteCarlo;
use ftqs_workloads::cruise_controller;

fn main() {
    let opts = Options::from_env(&["--scenarios", "--budget", "--seed"]);
    let scenarios: usize = opts.value("--scenarios", 5_000);
    let budget: usize = opts.value("--budget", 39);
    let seed: u64 = opts.value("--seed", 1u64);

    let app = cruise_controller().expect("the CC model is valid");
    let mc = MonteCarlo {
        scenarios,
        seed,
        threads: std::thread::available_parallelism().map_or(1, usize::from),
    };

    println!("Cruise controller — 32 processes, 9 hard, k = 2, mu = 10% of WCET");
    println!("  FTQS budget {budget} schedules, {scenarios} scenarios, seed {seed}\n");

    let set = SchedulerSet::build(&app, budget).expect("the CC is schedulable");
    println!(
        "  quasi-static tree: {} schedules (depth {})",
        set.ftqs.len(),
        set.ftqs.depth()
    );

    let u_ftqs = no_fault_utility(&app, &set.ftqs, &mc);
    let u_ftss = no_fault_utility(&app, &set.ftss, &mc);
    let u_ftsf = no_fault_utility(&app, &set.ftsf, &mc);
    println!("\nno faults:");
    println!("  FTQS utility {u_ftqs:.2}");
    println!(
        "  FTSS utility {u_ftss:.2}  (FTQS is {:+.1}% vs FTSS; paper: +14%)",
        normalize(u_ftqs, u_ftss) - 100.0
    );
    println!(
        "  FTSF utility {u_ftsf:.2}  (FTQS is {:+.1}% vs FTSF; paper: +81%)",
        normalize(u_ftqs, u_ftsf) - 100.0
    );

    let sweep = fault_sweep(&app, &set.ftqs, &mc);
    println!("\nFTQS under faults (normalized to its no-fault utility):");
    for f in 0..=2 {
        println!(
            "  {f} fault(s): {:.1}%  ({})",
            normalize(sweep.by_faults[f], sweep.by_faults[0]),
            match f {
                1 => "paper: -4%",
                2 => "paper: -9%",
                _ => "reference",
            }
        );
    }
}
