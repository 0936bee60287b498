//! Anatomy of a quasi-static tree: generates a random mixed hard/soft
//! application, synthesizes FTQS trees of growing budgets, and prints how
//! the tree, its switch arcs, and the achievable utility evolve — Table 1
//! of the paper in miniature, with the arcs made visible.
//!
//! Run with `cargo run --release --example quasi_static_tree`.

use ftqs::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let params = GeneratorParams::paper(12);
    let mut rng = StdRng::seed_from_u64(2024);
    let app = ftqs::workloads::synthetic::generate_schedulable(&params, &mut rng, 50);
    println!(
        "application: {} processes ({} hard / {} soft), period {}",
        app.len(),
        app.hard_processes().count(),
        app.soft_processes().count(),
        app.period()
    );

    let mc = MonteCarlo {
        scenarios: 2_000,
        seed: 7,
        threads: std::thread::available_parallelism().map_or(1, usize::from),
    };

    // One engine session synthesizes every budget below.
    let mut session = Engine::new().session();
    println!(
        "\n{:>7}  {:>6}  {:>6}  {:>10}  {:>10}",
        "budget", "nodes", "depth", "u(0 faults)", "u(3 faults)"
    );
    for budget in [1usize, 2, 4, 8, 16, 32] {
        let report = session.synthesize(&app, &SynthesisRequest::ftqs(budget))?;
        let u0 = mc.evaluate(&app, &report.tree, 0).utility.mean();
        let u3 = mc.evaluate(&app, &report.tree, 3).utility.mean();
        println!(
            "{budget:>7}  {:>6}  {:>6}  {u0:>10.2}  {u3:>10.2}",
            report.stats.schedules, report.stats.depth
        );
    }

    // Dissect the largest tree.
    let tree = session
        .synthesize(&app, &SynthesisRequest::ftqs(16))?
        .into_tree();
    println!("\nswitch arcs of the 16-budget tree:");
    for (id, node) in tree.iter() {
        for arc in &node.arcs {
            println!(
                "  node {id} --[{} completes in {}..={}]--> node {}",
                app.process(arc.pivot).name(),
                arc.lo,
                arc.hi,
                arc.child
            );
        }
    }

    // Show one simulated cycle with switching.
    let runner = FlatRuntime::new(&app, &tree);
    let sampler = ScenarioSampler::new(&app);
    let mut rng = StdRng::seed_from_u64(99);
    for _ in 0..50 {
        let sc = sampler.sample(&mut rng, 1);
        let out = runner.run(&sc);
        if out.trace.switch_count() > 0 {
            println!("\na cycle that switched schedules:");
            print!(
                "{}",
                out.trace.render(|n| app.process(n).name().to_string())
            );
            break;
        }
    }
    Ok(())
}
