//! Working with spec files and multi-rate applications.
//!
//! Loads two applications from the spec text format (see
//! `ftqs::workloads::spec`), merges them over their hyper-period — the
//! paper's §2 "hyper-graph capturing all process activations for the
//! hyper-period (LCM of all periods)" — synthesizes a quasi-static tree for
//! the merged application, and renders a simulated cycle as an ASCII Gantt
//! chart.
//!
//! Run with `cargo run --release --example spec_and_multirate`.

use ftqs::prelude::*;
use ftqs::sim::gantt;
use ftqs::workloads::{multi, spec};

const FAST: &str = "\
# 100 ms control loop.
period 100
faults 1 5
process sense   hard 5 15 deadline 70
process control hard 5 15 deadline 90
process telem   soft 5 15 utility 12 @ 60:6 95:0
edge sense control
edge control telem
";

const SLOW: &str = "\
# 200 ms supervision loop.
period 200
faults 1 5
process monitor soft 10 30 utility 25 @ 120:10 190:0
process report  soft 5 20 utility 10 @ 180:0
edge monitor report
";

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let fast = spec::parse(FAST)?;
    let slow = spec::parse(SLOW)?;
    println!(
        "fast loop: {} processes @ {}; slow loop: {} processes @ {}",
        fast.len(),
        fast.period(),
        slow.len(),
        slow.period()
    );

    // Hyper-period composition: LCM(100, 200) = 200 ms; the fast loop
    // activates twice, deadlines and utilities shift with each release.
    let merged = multi::merge(&[fast, slow])?;
    println!(
        "merged: {} processes over hyper-period {} ({} hard)",
        merged.len(),
        merged.period(),
        merged.hard_processes().count()
    );
    for h in merged.hard_processes() {
        println!(
            "  {} deadline {}",
            merged.process(h).name(),
            merged.process(h).criticality().deadline().expect("hard")
        );
    }

    // The merged application is an ordinary single-node application: the
    // whole synthesis pipeline applies unchanged.
    let tree = Engine::new()
        .session()
        .synthesize(&merged, &SynthesisRequest::ftqs(12))?
        .into_tree();
    println!("\nquasi-static tree: {} schedules", tree.len());

    // Round-trip through the spec format: the merged application can be
    // written back out and re-parsed.
    let rendered = spec::render(&merged);
    let reparsed = spec::parse(&rendered)?;
    assert_eq!(reparsed.len(), merged.len());
    println!("spec round-trip: {} processes preserved", reparsed.len());

    // One simulated cycle, drawn as a Gantt chart.
    let runner = FlatRuntime::new(&merged, &tree);
    let out = runner.run(&ExecutionScenario::average_case(&merged));
    println!(
        "\naverage-case cycle (utility {:.1}):\n{}",
        out.utility,
        gantt::render(&merged, &out.trace, 72)
    );
    Ok(())
}
