//! Online-runtime throughput: tree-walk reference vs flat image. Writes
//! `BENCH_runtime.json`.
//!
//! For each fig9-style application size the harness times identical
//! scenario streams through:
//!
//! * **engine** — `tree-walk` (the readable reference path: per-scenario
//!   allocating `ScenarioSampler::sample` + traced `OnlineScheduler::run`)
//!   vs `flat` (`FlatRuntime` + `BatchRunner`: SoA tree image, reused
//!   scratch, `NoTrace` sink, allocation-free steady state);
//! * **mode** — `serial` (one thread) vs `parallel` (all available
//!   threads; identical results by the RNG-stream contract);
//! * **intensity** — in-model (`f = k`) vs out-of-model (`f = 2k` under
//!   the same independent model).
//!
//! Both engines consume the same per-scenario RNG streams
//! (`scenario_seed`), so the comparison is work-for-work. Per cell the
//! report records sustained scenarios/second (best of `--reps` timed
//! passes) plus the mean utility as a cross-engine checksum; the summary
//! block carries the headline numbers the ROADMAP tracks: peak flat
//! throughput and the flat-over-tree-walk serial speedup per size.
//!
//! Usage: `cargo run --release -p ftqs-bench --bin bench_runtime
//! [--out PATH] [--scenarios N] [--reps N] [--seed N] [--smoke]`
//!
//! `--smoke` shrinks the grid to one size and a few thousand scenarios so
//! CI exercises every engine × mode × intensity cell in seconds.
//!
//! The run exits non-zero, naming the cell, when a flat cell runs under
//! [`RATIO_FLOOR`] times its tree-walk cell. A ratio holds across hosts
//! where absolute scenarios/second do not; the JSON is written first.

use ftqs_bench::{print_row, Options};
use ftqs_core::{Application, Engine, QuasiStaticTree, SynthesisRequest};
use ftqs_sim::montecarlo::scenario_seed;
use ftqs_sim::{
    BatchRunner, FaultModel, FlatRuntime, MonteCarlo, OnlineScheduler, ScenarioSampler,
};
use ftqs_workloads::{presets, synthetic};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt::Write as _;
use std::time::Instant;

/// The least flat-over-tree-walk throughput ratio any cell may show.
const RATIO_FLOOR: f64 = 2.0;

/// One timed grid cell.
struct Cell {
    size: usize,
    engine: &'static str,
    mode: &'static str,
    threads: usize,
    intensity_label: &'static str,
    fault_count: usize,
    scenarios: usize,
    scen_per_sec: f64,
    mean_utility: f64,
}

/// Times the reference path exactly as Monte Carlo ran before the flat
/// runtime existed: per-worker `OnlineScheduler` (re-deriving the tree
/// analyses), then per scenario a fresh boxed `ExecutionScenario` from
/// the reference sampler (`sample`: `gen_range` divisions, per-process
/// `Vec` allocations) and a traced, allocating `run`.
fn treewalk_pass(
    app: &Application,
    tree: &QuasiStaticTree,
    fault_count: usize,
    scenarios: usize,
    seed: u64,
    threads: usize,
) -> (f64, f64) {
    let start = Instant::now();
    let chunk = scenarios.div_ceil(threads.max(1));
    let (sum, n) = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for t in 0..threads.max(1) {
            let lo = (t * chunk).min(scenarios);
            let hi = ((t + 1) * chunk).min(scenarios);
            handles.push(scope.spawn(move || {
                let scheduler = OnlineScheduler::new(app, tree);
                let sampler = ScenarioSampler::new(app);
                let mut sum = 0.0f64;
                for i in lo..hi {
                    let mut rng = StdRng::seed_from_u64(scenario_seed(seed, i as u64));
                    let sc = sampler.sample(&mut rng, fault_count);
                    sum += scheduler.run(&sc).utility;
                }
                sum
            }));
        }
        let total: f64 = handles.into_iter().map(|h| h.join().expect("worker")).sum();
        (total, scenarios)
    });
    let secs = start.elapsed().as_secs_f64();
    (n as f64 / secs, sum / n as f64)
}

/// Times the batched flat path (`BatchRunner::evaluate`): shared
/// read-only image, reused per-worker scratch, `NoTrace` sink.
fn flat_pass(
    runner: &BatchRunner<'_>,
    fault_count: usize,
    scenarios: usize,
    seed: u64,
    threads: usize,
) -> (f64, f64) {
    let mc = MonteCarlo {
        scenarios,
        seed,
        threads,
    };
    let start = Instant::now();
    let eval = runner.evaluate(&mc, fault_count);
    let secs = start.elapsed().as_secs_f64();
    (scenarios as f64 / secs, eval.utility.mean())
}

fn main() {
    let opts = Options::from_env(&["--smoke", "--out", "--scenarios", "--reps", "--seed"]);
    let smoke = opts.flag("--smoke");
    let out_path: String = opts.value("--out", "BENCH_runtime.json".to_string());
    let scenarios: usize = opts.value("--scenarios", if smoke { 4_000 } else { 400_000 });
    let reps: usize = opts.value("--reps", if smoke { 1 } else { 3 });
    let seed: u64 = opts.value("--seed", 1u64);
    let sizes: &[usize] = if smoke { &[20] } else { &[10, 20, 40] };
    let threads = std::thread::available_parallelism().map_or(1, usize::from);
    // The reference path is an order of magnitude slower; time fewer
    // scenarios there so full runs stay in seconds per cell.
    let treewalk_scenarios = (scenarios / 10).max(500);

    eprintln!(
        "runtime throughput: sizes {sizes:?}, {scenarios} flat / {treewalk_scenarios} tree-walk \
         scenarios per cell, best of {reps} reps, {threads} host threads"
    );

    let mut session = Engine::new().session();
    let mut cells: Vec<Cell> = Vec::new();
    let mut speedups: Vec<(usize, f64)> = Vec::new();

    let apps: Vec<(usize, Application, QuasiStaticTree)> = sizes
        .iter()
        .map(|&size| {
            let params = presets::fig9_params(size);
            let mut rng = StdRng::seed_from_u64(presets::app_seed(seed ^ 0x0B7, size));
            let app = synthetic::generate_schedulable(&params, &mut rng, 50);
            let tree = session
                .synthesize(&app, &SynthesisRequest::ftqs(6))
                .expect("fig9-style apps are schedulable")
                .into_tree();
            (size, app, tree)
        })
        .collect();

    // One untimed pass per engine on the first app, so the first timed
    // cell does not pay for cold caches and a cold allocator.
    if let Some((_, app, tree)) = apps.first() {
        let runtime = FlatRuntime::new(app, tree);
        let runner = BatchRunner::new(app, &runtime, FaultModel::Independent);
        let k = app.faults().k;
        flat_pass(&runner, k, scenarios, seed, 1);
        treewalk_pass(app, tree, k, treewalk_scenarios, seed, 1);
    }

    for (size, app, tree) in &apps {
        let size = *size;
        let k = app.faults().k;
        let runtime = FlatRuntime::new(app, tree);
        let runner = BatchRunner::new(app, &runtime, FaultModel::Independent);
        let intensities = [("in-model", k), ("out-of-model", 2 * k)];
        let modes: &[(&str, usize)] = if threads > 1 {
            &[("serial", 1), ("parallel", threads)]
        } else {
            &[("serial", 1)]
        };

        let mut serial_in_model = (0.0f64, 0.0f64); // (treewalk, flat) rates
        for &(label, fault_count) in &intensities {
            for &(mode, nthreads) in modes {
                let engines = [("tree-walk", treewalk_scenarios), ("flat", scenarios)];
                let mut best = [0.0f64; 2];
                let mut mean = [0.0f64; 2];
                // Interleave the engines inside the rep loop so both
                // sample the same host-frequency windows — on a noisy
                // shared host, back-to-back passes keep the ratio honest.
                for _ in 0..reps.max(1) {
                    for (idx, &(engine, n)) in engines.iter().enumerate() {
                        let (rate, m) = if engine == "flat" {
                            flat_pass(&runner, fault_count, n, seed, nthreads)
                        } else {
                            treewalk_pass(app, tree, fault_count, n, seed, nthreads)
                        };
                        best[idx] = best[idx].max(rate);
                        mean[idx] = m;
                    }
                }
                for (idx, &(engine, n)) in engines.iter().enumerate() {
                    if label == "in-model" && mode == "serial" {
                        if engine == "tree-walk" {
                            serial_in_model.0 = best[idx];
                        } else {
                            serial_in_model.1 = best[idx];
                        }
                    }
                    cells.push(Cell {
                        size,
                        engine,
                        mode,
                        threads: nthreads,
                        intensity_label: label,
                        fault_count,
                        scenarios: n,
                        scen_per_sec: best[idx],
                        mean_utility: mean[idx],
                    });
                }
            }
        }
        speedups.push((size, serial_in_model.1 / serial_in_model.0.max(1e-12)));
    }

    let peak_flat = cells
        .iter()
        .filter(|c| c.engine == "flat")
        .map(|c| c.scen_per_sec)
        .fold(0.0f64, f64::max);

    println!("scenarios/sec by cell");
    print_row(
        &[
            "size".into(),
            "engine".into(),
            "mode".into(),
            "intensity".into(),
            "scen/s".into(),
            "mean util".into(),
        ],
        12,
    );
    for c in &cells {
        print_row(
            &[
                format!("{}", c.size),
                c.engine.into(),
                c.mode.into(),
                c.intensity_label.into(),
                format!("{:.0}", c.scen_per_sec),
                format!("{:.1}", c.mean_utility),
            ],
            12,
        );
    }
    for &(size, s) in &speedups {
        println!("size {size}: flat is {s:.1}x tree-walk (serial, in-model)");
    }
    println!("peak flat throughput: {peak_flat:.0} scenarios/sec");

    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"schema\": \"ftqs-bench-runtime/1\",");
    let _ = writeln!(json, "  \"smoke\": {smoke},");
    let _ = writeln!(json, "  \"sizes\": {sizes:?},");
    let _ = writeln!(json, "  \"scenarios_flat\": {scenarios},");
    let _ = writeln!(json, "  \"scenarios_treewalk\": {treewalk_scenarios},");
    let _ = writeln!(json, "  \"reps\": {reps},");
    let _ = writeln!(json, "  \"seed\": {seed},");
    let _ = writeln!(json, "  \"host_threads\": {threads},");
    let _ = writeln!(json, "  \"peak_flat_scen_per_sec\": {peak_flat:.0},");
    json.push_str("  \"serial_speedup_by_size\": {");
    for (i, &(size, s)) in speedups.iter().enumerate() {
        let _ = write!(json, "\"{size}\": {s:.2}");
        if i + 1 < speedups.len() {
            json.push_str(", ");
        }
    }
    json.push_str("},\n");
    json.push_str("  \"results\": [\n");
    for (i, c) in cells.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"size\": {}, \"engine\": \"{}\", \"mode\": \"{}\", \"threads\": {}, \
             \"intensity\": \"{}\", \"fault_count\": {}, \"scenarios\": {}, \
             \"scen_per_sec\": {:.0}, \"mean_utility\": {:.4}}}",
            c.size,
            c.engine,
            c.mode,
            c.threads,
            c.intensity_label,
            c.fault_count,
            c.scenarios,
            c.scen_per_sec,
            c.mean_utility
        );
        json.push_str(if i + 1 < cells.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ]\n}\n");

    std::fs::write(&out_path, &json).expect("write BENCH_runtime.json");
    println!("wrote {out_path}");

    // Cells come in (tree-walk, flat) pairs of the same size, mode and
    // intensity.
    let mut below_floor = false;
    for pair in cells.chunks_exact(2) {
        let (walk, flat) = (&pair[0], &pair[1]);
        assert_eq!((walk.engine, flat.engine), ("tree-walk", "flat"));
        let ratio = flat.scen_per_sec / walk.scen_per_sec.max(1e-12);
        if ratio < RATIO_FLOOR {
            eprintln!(
                "size {} {} {}: flat runs {ratio:.2}x tree-walk, under the {RATIO_FLOOR}x floor",
                flat.size, flat.mode, flat.intensity_label
            );
            below_floor = true;
        }
    }
    if below_floor {
        std::process::exit(1);
    }
}
