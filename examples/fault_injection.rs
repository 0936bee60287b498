//! Fault-injection study: how utility degrades with the number of
//! transient faults, and how the shared recovery slack keeps every hard
//! deadline — across thousands of randomized cycles.
//!
//! This is the Fig. 9b experiment on a single application, with the
//! deadline-safety property checked on every cycle rather than assumed.
//! A second sweep then leaves the paper's fault model entirely: more
//! faults than the design budget `k`, injected by a correlated
//! (intermittent) fault process — the runtime completes every cycle and
//! reports a `DegradationVerdict` instead of panicking.
//!
//! Run with `cargo run --release --example fault_injection`.

use ftqs::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let params = GeneratorParams::paper(20);
    let mut rng = StdRng::seed_from_u64(77);
    let app = ftqs::workloads::synthetic::generate_schedulable(&params, &mut rng, 50);
    let k = app.faults().k;
    println!(
        "application: {} processes, k = {k}, mu = {}",
        app.len(),
        app.faults().mu
    );

    let tree = Engine::new()
        .session()
        .synthesize(&app, &SynthesisRequest::ftqs(20))?
        .into_tree();
    let runner = FlatRuntime::new(&app, &tree);
    let sampler = ScenarioSampler::new(&app);

    println!(
        "\n{:>7}  {:>10}  {:>9}  {:>9}  {:>8}",
        "faults", "utility", "switches", "drops", "misses"
    );
    for faults in 0..=k {
        let mut rng = StdRng::seed_from_u64(1000 + faults as u64);
        let mut utility = ftqs::sim::stats::Accumulator::new();
        let mut switches = 0usize;
        let mut drops = 0usize;
        let mut misses = 0usize;
        const CYCLES: usize = 5_000;
        for _ in 0..CYCLES {
            let sc = sampler.sample(&mut rng, faults);
            let out = runner.run(&sc);
            utility.add(out.utility);
            switches += out.trace.switch_count();
            drops += out
                .trace
                .events()
                .iter()
                .filter(|e| matches!(e, ftqs::sim::TraceEvent::Dropped { .. }))
                .count();
            if out.deadline_miss.is_some() {
                misses += 1;
            }
        }
        println!(
            "{faults:>7}  {:>10.2}  {:>9.2}  {:>9.2}  {misses:>8}",
            utility.mean(),
            switches as f64 / CYCLES as f64,
            drops as f64 / CYCLES as f64,
        );
        assert_eq!(
            misses, 0,
            "hard deadlines must hold under any fault pattern"
        );
    }
    println!("\nno hard deadline was ever missed — the recovery slack absorbed every fault.");

    // ----- out of model: past the design budget, correlated faults -------
    //
    // The guarantee above is conditional on the fault model (at most k
    // independent transient faults). Here the environment breaks the
    // contract: an intermittent process re-strikes the same victim, at
    // intensities up to 2k. The runtime must degrade gracefully — finish
    // every cycle and say *how* the contract was broken.
    let sampler = ScenarioSampler::with_model(&app, SimFaultModel::preset("intermittent").unwrap());
    println!(
        "\nout of model (intermittent faults beyond k = {k}):\n\
         {:>7}  {:>10}  {:>9}  {:>9}  {:>8}",
        "faults", "utility", "in-model", "degraded", "misses"
    );
    for faults in k + 1..=2 * k {
        let mut rng = StdRng::seed_from_u64(2000 + faults as u64);
        let mut utility = ftqs::sim::stats::Accumulator::new();
        let (mut in_model, mut degraded, mut misses) = (0usize, 0usize, 0usize);
        const CYCLES: usize = 5_000;
        for _ in 0..CYCLES {
            let sc = sampler.sample(&mut rng, faults);
            let out = runner.run(&sc);
            utility.add(out.utility);
            match out.verdict {
                DegradationVerdict::InModel => in_model += 1,
                DegradationVerdict::Degraded { .. } => degraded += 1,
                DegradationVerdict::HardMiss { .. } => misses += 1,
            }
        }
        println!(
            "{faults:>7}  {:>10.2}  {in_model:>9}  {degraded:>9}  {misses:>8}",
            utility.mean(),
        );
    }
    println!(
        "\nevery out-of-model cycle still completed with an explicit verdict — \
         soft utility is shed first, hard misses are reported, never hidden."
    );
    Ok(())
}
