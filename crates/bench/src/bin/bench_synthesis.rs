//! Machine-readable synthesis-performance snapshot: `BENCH_synthesis.json`.
//!
//! Times FTSS and FTQS synthesis (optimized hot paths vs the preserved
//! straightforward baselines in `ftqs_core::oracle`) on seeded synthetic
//! applications of 10, 20 and 40 processes, and writes median
//! nanoseconds plus speedup factors as JSON. Future PRs regenerate the
//! file on the same machine to track the performance trajectory.
//!
//! Schema `ftqs-bench-synthesis/8`: every FTQS row carries its `budget`
//! and is measured twice — once at the base budget (default 16) and once
//! at budget 40, so deep trees with many pivots per parent are tracked
//! alongside the shallow default. Oracle baselines are measured at the
//! base budget only (the reference implementation is orders of magnitude
//! slower on deep trees). `host_threads` is the host's available
//! parallelism, which is also the FTQS worker count. Each FTQS row is
//! timed at that default worker cap (`optimized_median_ns`) and at
//! `with_max_parallelism(1)` (`serial_median_ns`), with the two timings'
//! reps interleaved; `par_speedup` is serial over default, so it shows
//! what the fork-join of expansion waves and interval sweeps buys.
//!
//! Two ablations ride along:
//!
//! * **A1, shared vs reserved recovery slack** (`slack_sharing`, one row
//!   per size): the worst-case fault delay of the root FTSS schedule when
//!   its processes share one recovery slack (the paper's analysis) and
//!   when each process reserves its own full allowance. Both are exact
//!   model values in ms, not timings.
//! * **A3, utility-driven dropping** (`ftss_no_dropping` rows): FTSS with
//!   `FtssConfig::dropping` off, timed and with its expected utility next
//!   to the `ftss` row's.
//!
//! Timed rows are comparable with those of `/7` files, which lack the
//! serial column.
//!
//! Usage: `cargo run --release -p ftqs-bench --bin bench_synthesis
//! [--out PATH] [--reps N] [--budget M] [--skip-baseline] [--smoke]`
//!
//! Defaults: out `BENCH_synthesis.json`, 9 timed reps per measurement
//! (median reported), base FTQS budget 16 (the `FtqsConfig` default).
//! `--smoke` is the CI fast path: 1 rep, baselines skipped.

use ftqs_bench::Options;
use ftqs_core::ftqs::FtqsConfig;
use ftqs_core::oracle::{ftqs_reference, ftss_reference};
use ftqs_core::wcdelay::{worst_case_fault_delay, SlackItem};
use ftqs_core::{Application, Engine, FtssConfig, ScheduleContext, SynthesisRequest, Time};
use ftqs_workloads::{presets, synthetic};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt::Write as _;
use std::time::Instant;

const SIZES: [usize; 3] = [10, 20, 40];
const DEEP_BUDGET: usize = 40;

fn median(mut samples: Vec<u128>) -> u128 {
    samples.sort_unstable();
    samples[samples.len() / 2]
}

fn time_ns(run: impl FnOnce()) -> u128 {
    let t0 = Instant::now();
    run();
    t0.elapsed().as_nanos()
}

fn median_ns(reps: usize, mut run: impl FnMut()) -> u128 {
    // Warm-up pass, then `reps` timed passes.
    run();
    median((0..reps.max(1)).map(|_| time_ns(&mut run)).collect())
}

/// Medians of `run(inputs[0])` and `run(inputs[1])`, one warm-up each,
/// then `reps` timed passes each with the two interleaved, so both
/// timings see the same host drift.
fn paired_median_ns<I>(reps: usize, inputs: [&I; 2], mut run: impl FnMut(&I)) -> [u128; 2] {
    inputs.iter().for_each(|input| run(input));
    let mut samples = [Vec::new(), Vec::new()];
    for _ in 0..reps.max(1) {
        for (input, timed) in inputs.iter().zip(&mut samples) {
            timed.push(time_ns(|| run(input)));
        }
    }
    samples.map(median)
}

struct Row {
    algorithm: &'static str,
    processes: usize,
    budget: Option<usize>,
    optimized_ns: u128,
    /// The same synthesis at a worker cap of 1 (FTQS rows only).
    serial_ns: Option<u128>,
    baseline_ns: Option<u128>,
    expected_utility: Option<f64>,
}

fn main() {
    let opts = Options::from_env(&["--out", "--smoke", "--reps", "--budget", "--skip-baseline"]);
    let out_path: String = opts.value("--out", "BENCH_synthesis.json".to_string());
    let smoke = opts.flag("--smoke");
    let reps: usize = opts.value("--reps", if smoke { 1 } else { 9usize });
    let base_budget: usize = opts.value("--budget", FtqsConfig::default().max_schedules);
    let skip_baseline = smoke || opts.flag("--skip-baseline");

    // Optimized path: one engine session, reused across every timed rep —
    // the amortized hot path production callers run. Baselines stay on the
    // oracle reference functions.
    let mut session = Engine::new().session();
    let mut no_dropping_session = Engine::new()
        .with_ftss_config(FtssConfig { dropping: false })
        .session();
    let ftss_req = SynthesisRequest::ftss();
    let ftss_cfg = FtssConfig::default();
    let mut rows: Vec<Row> = Vec::new();
    // A1 rows, one JSON object per size.
    let mut slack_rows: Vec<String> = Vec::new();

    // The deep-budget row set tracks trees with many pivots per parent;
    // collapse it when `--budget` already asks for it.
    let budgets: &[usize] = if base_budget == DEEP_BUDGET {
        &[DEEP_BUDGET]
    } else {
        &[base_budget, DEEP_BUDGET]
    };

    for &size in &SIZES {
        let params = presets::fig9_params(size);
        let mut rng = StdRng::seed_from_u64(presets::app_seed(0xBE9C, size));
        let app: Application = synthetic::generate_schedulable(&params, &mut rng, 50);
        let ctx = ScheduleContext::root(&app);

        let ftss = session.synthesize(&app, &ftss_req).expect("schedulable");
        let k = app.faults().k;
        let items: Vec<SlackItem> = ftss
            .root_schedule()
            .entries()
            .iter()
            .map(|e| SlackItem::new(app.recovery_penalty(e.process), e.reexecutions))
            .collect();
        let shared = worst_case_fault_delay(&items, k);
        let reserved: Time = items
            .iter()
            .map(|it| it.penalty * it.allowance.min(k) as u64)
            .sum();
        slack_rows.push(format!(
            "    {{\"processes\": {size}, \"shared_delay_ms\": {}, \"reserved_delay_ms\": {}}}",
            shared.as_ms(),
            reserved.as_ms()
        ));

        let ftss_ns = median_ns(reps, || {
            session.synthesize(&app, &ftss_req).expect("schedulable");
        });
        let ftss_base = (!skip_baseline).then(|| {
            median_ns(reps, || {
                ftss_reference(&app, &ctx, &ftss_cfg).expect("schedulable");
            })
        });
        rows.push(Row {
            algorithm: "ftss",
            processes: size,
            budget: None,
            optimized_ns: ftss_ns,
            serial_ns: None,
            baseline_ns: ftss_base,
            expected_utility: Some(ftss.utility.expected_average_case),
        });
        eprintln!(
            "ftss/{size}: optimized {ftss_ns} ns{}",
            match ftss_base {
                Some(b) => format!(
                    ", baseline {b} ns, speedup {:.2}x",
                    b as f64 / ftss_ns as f64
                ),
                None => String::new(),
            }
        );

        let no_dropping = no_dropping_session
            .synthesize(&app, &ftss_req)
            .expect("schedulable");
        let no_dropping_ns = median_ns(reps, || {
            no_dropping_session
                .synthesize(&app, &ftss_req)
                .expect("schedulable");
        });
        rows.push(Row {
            algorithm: "ftss_no_dropping",
            processes: size,
            budget: None,
            optimized_ns: no_dropping_ns,
            serial_ns: None,
            baseline_ns: None,
            expected_utility: Some(no_dropping.utility.expected_average_case),
        });
        eprintln!(
            "ftss_no_dropping/{size}: optimized {no_dropping_ns} ns, expected utility {:.3} \
             (with dropping {:.3})",
            no_dropping.utility.expected_average_case, ftss.utility.expected_average_case
        );

        for &budget in budgets {
            let ftqs_req = SynthesisRequest::ftqs(budget);
            let serial_req = SynthesisRequest::ftqs(budget).with_max_parallelism(1);
            let ftqs_cfg = FtqsConfig::with_budget(budget);
            let [ftqs_ns, serial_ns] = paired_median_ns(reps, [&ftqs_req, &serial_req], |req| {
                session.synthesize(&app, req).expect("schedulable");
            });
            // Baselines only at the base budget: the oracle re-derives the
            // whole tree per pivot and deep budgets would take minutes.
            let ftqs_base = (!skip_baseline && budget == base_budget).then(|| {
                // The baseline is substantially slower; a few reps suffice
                // for a stable median without hour-long runs at 40
                // processes.
                median_ns(reps.min(5), || {
                    ftqs_reference(&app, &ftqs_cfg).expect("schedulable");
                })
            });
            rows.push(Row {
                algorithm: "ftqs",
                processes: size,
                budget: Some(budget),
                optimized_ns: ftqs_ns,
                serial_ns: Some(serial_ns),
                baseline_ns: ftqs_base,
                expected_utility: None,
            });
            eprintln!(
                "ftqs/{size}/b{budget}: optimized {ftqs_ns} ns, serial {serial_ns} ns \
                 (par speedup {:.2}x){}",
                serial_ns as f64 / ftqs_ns.max(1) as f64,
                match ftqs_base {
                    Some(b) => format!(
                        ", baseline {b} ns, speedup {:.2}x",
                        b as f64 / ftqs_ns as f64
                    ),
                    None => String::new(),
                }
            );
        }
    }

    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"schema\": \"ftqs-bench-synthesis/8\",");
    let _ = writeln!(json, "  \"reps\": {reps},");
    let _ = writeln!(json, "  \"ftqs_budget\": {base_budget},");
    let _ = writeln!(
        json,
        "  \"host_threads\": {},",
        std::thread::available_parallelism().map_or(1, usize::from)
    );
    let _ = writeln!(
        json,
        "  \"slack_sharing\": [\n{}\n  ],",
        slack_rows.join(",\n")
    );
    json.push_str("  \"results\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"algorithm\": \"{}\", \"processes\": {}",
            r.algorithm, r.processes
        );
        if let Some(b) = r.budget {
            let _ = write!(json, ", \"budget\": {b}");
        }
        let _ = write!(json, ", \"optimized_median_ns\": {}", r.optimized_ns);
        if let Some(s) = r.serial_ns {
            let _ = write!(
                json,
                ", \"serial_median_ns\": {s}, \"par_speedup\": {:.2}",
                s as f64 / r.optimized_ns.max(1) as f64
            );
        }
        if let Some(b) = r.baseline_ns {
            let _ = write!(
                json,
                ", \"baseline_median_ns\": {b}, \"speedup\": {:.2}",
                b as f64 / r.optimized_ns.max(1) as f64
            );
        }
        if let Some(u) = r.expected_utility {
            let _ = write!(json, ", \"expected_utility\": {u:.4}");
        }
        json.push('}');
        json.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ]\n}\n");

    std::fs::write(&out_path, &json).expect("write BENCH_synthesis.json");
    println!("wrote {out_path}");
}
