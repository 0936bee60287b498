//! End-to-end and per-layer benchmark of the ftqs fleet service, the
//! synthesis engine and the Monte Carlo runtime. See `README.md` beside
//! this package for the workloads, the metric map and how to read a
//! traced run.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload fleet-cold --seed 1 --seconds 30 --trace 0
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --smoke
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --manifest
//! ```
//!
//! A run prints a human-readable report and, as its last line, one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.

mod deep;
mod fleet;
mod montecarlo;
mod trace;
mod util;

use std::fmt::Write as _;
use util::Outcomes;

/// One reported metric. `bound` is set for end-to-end metrics only: the
/// share of the parent's median by which the metric may worsen.
struct Metric {
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

/// Reported by every untraced run.
const END_TO_END: [Metric; 6] = [
    e2e("setup_s", "s", "lower", 0.25),
    e2e("throughput_per_s", "1/s", "higher", 0.25),
    e2e("latency_p50_ms", "ms", "lower", 0.25),
    e2e("latency_tail_ms", "ms", "lower", 0.25),
    e2e("peak_rss_mb", "MiB", "lower", 0.2),
    e2e("success_rate", "fraction", "higher", 0.01),
];

/// Reported by every traced run; a layer a workload does not exercise
/// reads 0 there.
const PER_LAYER: [Metric; 41] = [
    layer("transport.parse_us", "us", "lower"),
    layer("transport.serialize_us", "us", "lower"),
    layer("transport.response_bytes", "bytes", "lower"),
    layer("service.queue_wait_us", "us", "lower"),
    layer("service.service_us", "us", "lower"),
    layer("service.overhead_us", "us", "lower"),
    layer("service.residual_us", "us", "lower"),
    layer("service.cache_get_us", "us", "lower"),
    layer("service.cache_hit_ratio", "fraction", "higher"),
    layer("service.cache_evictions", "count", "lower"),
    layer("service.rejected_ratio", "fraction", "lower"),
    layer("service.response_peak_depth", "count", "lower"),
    layer("workloads.resolve_us", "us", "lower"),
    layer("core.digest_us", "us", "lower"),
    layer("core.prepare_us", "us", "lower"),
    layer("core.ftss_us", "us", "lower"),
    layer("core.ftqs_us", "us", "lower"),
    layer("core.expansion_us", "us", "lower"),
    layer("core.par_speedup", "x", "higher"),
    layer("core.schedules", "count", "higher"),
    layer("core.arcs", "count", "higher"),
    layer("core.expansion.prefix_steps_saved", "count", "higher"),
    layer("core.expansion.prefix_steps_rerun", "count", "lower"),
    layer("core.unschedulable_ratio", "fraction", "lower"),
    layer("sim.flat_build_us", "us", "lower"),
    layer("sim.sample_ns.independent-k", "ns", "lower"),
    layer("sim.sample_ns.independent-2k", "ns", "lower"),
    layer("sim.sample_ns.bursty-2k", "ns", "lower"),
    layer("sim.sample_ns.wcet-stress-k", "ns", "lower"),
    layer("sim.cycle_ns.independent-k", "ns", "lower"),
    layer("sim.cycle_ns.independent-2k", "ns", "lower"),
    layer("sim.cycle_ns.bursty-2k", "ns", "lower"),
    layer("sim.cycle_ns.wcet-stress-k", "ns", "lower"),
    layer("sim.switches_per_cycle", "1/cycle", "higher"),
    layer("sim.faults_hit_per_cycle", "1/cycle", "lower"),
    layer("sim.degraded_ratio", "fraction", "lower"),
    layer("sim.in_model_misses", "count", "lower"),
    layer("trace.overhead", "fraction", "lower"),
    layer("trace.untraced_ops_per_s", "1/s", "higher"),
    layer("trace.traced_ops_per_s", "1/s", "higher"),
    layer("trace.spans", "count", "lower"),
];

/// What one workload run hands back.
pub struct Report {
    pub outcomes: Outcomes,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced).
    pub metrics: Vec<(&'static str, f64)>,
    /// Run parameters and sample counts, printed before the result line.
    pub notes: Vec<String>,
}

/// Command-line settings of one workload run.
#[derive(Debug, Clone, Copy)]
pub struct Args {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Scales input pools down for the smoke mode.
    pub smoke: bool,
}

struct Workload {
    name: &'static str,
    why: &'static str,
    run: fn(&Args, &'static str) -> Report,
}

const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "fleet-cold",
        why: "distinct fig9 presets through the NDJSON service loop, so the cache only misses and generation plus synthesis dominate",
        run: fleet::run_cold,
    },
    Workload {
        name: "fleet-repeat",
        why: "spec lines cycling over a small pool, so the cache hits and transport, digest, queue and ring carry a large share",
        run: fleet::run_repeat,
    },
    Workload {
        name: "synth-deep",
        why: "40-process fig9 apps at FTQS budget 40 on nproc workers, where expansion waves and interval sweeps run in parallel",
        run: deep::run,
    },
    Workload {
        name: "montecarlo",
        why: "BatchRunner batches over a rotating in-model and out-of-model fault mix, where the flat runtime does all the work",
        run: montecarlo::run,
    },
];

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1]\n       \
         perfbench --smoke | --manifest",
        WORKLOADS.map(|w| w.name).join("|")
    );
    std::process::exit(2)
}

fn parse_args() -> (Option<&'static str>, Args, bool, bool) {
    let mut workload = None;
    let mut args = Args {
        seed: 1,
        seconds: 10.0,
        trace: false,
        smoke: false,
    };
    let mut manifest = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => {
                let v = value();
                workload = Some(
                    WORKLOADS
                        .iter()
                        .find(|w| w.name == v)
                        .unwrap_or_else(|| usage())
                        .name,
                );
            }
            "--seed" => args.seed = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => {
                args.seconds = value().parse().unwrap_or_else(|_| usage());
                if !(args.seconds > 0.0 && args.seconds.is_finite()) {
                    usage();
                }
            }
            "--trace" => {
                args.trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            "--smoke" => args.smoke = true,
            "--manifest" => manifest = true,
            _ => usage(),
        }
    }
    let smoke = args.smoke;
    if workload.is_none() && !smoke && !manifest {
        usage();
    }
    (workload, args, smoke, manifest)
}

/// `BENCHMARK.json`, rendered from the tables above.
fn manifest() -> String {
    let mut s = String::from("{\n");
    s.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"perfbench/Cargo.toml\", \"--\"],\n",
    );
    s.push_str("  \"paths\": [\"perfbench\"],\n");
    s.push_str("  \"run_seconds\": 30,\n");
    s.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let sep = if i + 1 < WORKLOADS.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{sep}",
            w.name, w.why
        );
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let sep = if i + 1 < END_TO_END.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{sep}",
            m.name,
            m.unit,
            m.better,
            m.bound.expect("end-to-end metrics carry a bound")
        );
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let sep = if i + 1 < PER_LAYER.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{sep}",
            m.name, m.unit, m.better
        );
    }
    s.push_str("  ]\n}\n");
    s
}

fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

/// Prints the report and returns the result line.
fn render(name: &str, args: &Args, report: &Report) -> String {
    let o = &report.outcomes;
    let error_rate = o.failed() as f64 / o.attempted.max(1) as f64;
    let mut metrics = report.metrics.clone();
    if !args.trace {
        metrics.push(("success_rate", 1.0 - error_rate));
    }
    let table: &[Metric] = if args.trace { &PER_LAYER } else { &END_TO_END };
    for (n, _) in &metrics {
        assert!(
            table.iter().any(|m| m.name == *n),
            "{name} reported {n}, which is not in the metric table"
        );
    }
    println!(
        "== {name}: seed {} seconds {} trace {} nproc {} parallel true \
         (the ftqs crates' default feature)",
        args.seed,
        args.seconds,
        u8::from(args.trace),
        util::nproc()
    );
    for note in &report.notes {
        println!("   {note}");
    }
    println!(
        "   outcomes: attempted {} succeeded {} unschedulable {} | failed {}: \
         worker-panic {} deadline {} malformed {} check-mismatch {}",
        o.attempted,
        o.succeeded,
        o.unschedulable,
        o.failed(),
        o.worker_panic,
        o.deadline,
        o.malformed,
        o.check_mismatch
    );
    println!("   error_rate {error_rate} (fraction)");
    for m in &o.messages {
        println!("   failure: {m}");
    }
    let mut json = String::from("{");
    for m in table {
        let value = finite(
            metrics
                .iter()
                .find(|(n, _)| *n == m.name)
                .map_or(0.0, |&(_, v)| v),
        );
        println!("   {:<36} {value:>16.6} {}", m.name, m.unit);
        if json.len() > 1 {
            json.push_str(", ");
        }
        let _ = write!(
            json,
            "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    json.push('}');
    let correct = o.failed() == 0 && o.attempted > 0;
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {json}}}",
        o.attempted.max(1),
        o.failed()
    )
}

fn main() {
    let (workload, args, smoke, manifest_only) = parse_args();
    if manifest_only {
        print!("{}", manifest());
        return;
    }
    if smoke {
        // Every workload, untraced and traced, on shrunken pools: every
        // check runs and every metric name is printed.
        let mut ok = true;
        for w in &WORKLOADS {
            for trace in [false, true] {
                let a = Args {
                    seconds: 0.6,
                    trace,
                    ..args
                };
                let report = (w.run)(&a, w.name);
                let line = render(w.name, &a, &report);
                ok &= report.outcomes.failed() == 0 && report.outcomes.attempted > 0;
                println!("{line}");
            }
        }
        println!("smoke: {}", if ok { "ok" } else { "FAILED" });
        std::process::exit(if ok { 0 } else { 1 });
    }
    let name = workload.expect("parse_args requires a workload");
    let w = WORKLOADS
        .iter()
        .find(|w| w.name == name)
        .expect("parse_args validated the name");
    let report = (w.run)(&args, w.name);
    let line = render(w.name, &args, &report);
    println!("{line}");
    if report.outcomes.failed() > 0 {
        std::process::exit(1);
    }
}
