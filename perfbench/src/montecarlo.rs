//! `montecarlo`: synthesized trees → `FlatRuntime` images → `BatchRunner`
//! batches with `threads` = nproc, rotating through a fixed fault mix.
//! The op is one `BatchRunner::evaluate` batch; throughput counts
//! scenarios.

use crate::trace::{layer_table, overhead_metrics, write_spans, Tracer};
use crate::util::{self, Outcomes};
use crate::{Args, Report};
use ftqs_core::{Application, Engine, PreparedApp, QuasiStaticTree, SynthesisRequest};
use ftqs_sim::montecarlo::scenario_seed;
use ftqs_sim::{
    BatchRunner, CycleOutcome, DegradationVerdict, Evaluation, FaultModel, FlatRuntime,
    FlatScenario, MonteCarlo, NoTrace, OnlineScheduler, RunScratch, ScenarioSampler,
};
use ftqs_workloads::{family, Family};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

const SIZES: [usize; 3] = [20, 30, 40];
const APPS_PER_SIZE: usize = 6;
const BUDGET: usize = 16;
/// Scenarios per `BatchRunner::evaluate` batch.
const BATCH: usize = 2048;
/// Scenarios per (app, fault model) replayed one by one in a traced run.
const REPLAY_SCENARIOS: usize = 128;

/// One entry of the rotating fault mix.
struct Mix {
    label: &'static str,
    preset: &'static str,
    /// Planned faults as a multiple of the design budget `k`.
    k_multiple: usize,
    sample_span: &'static str,
    cycle_span: &'static str,
    sample_metric: &'static str,
    cycle_metric: &'static str,
}

impl Mix {
    fn model(&self) -> FaultModel {
        FaultModel::preset(self.preset).expect("preset names are canonical")
    }

    /// In-model: at most `k` faults, independently placed, no overruns —
    /// the paper's guarantee says no hard deadline may be missed.
    fn in_model(&self) -> bool {
        self.k_multiple == 1 && self.preset == "independent"
    }
}

const MIX: [Mix; 4] = [
    Mix {
        label: "independent-k",
        preset: "independent",
        k_multiple: 1,
        sample_span: "sim.sample.independent-k",
        cycle_span: "sim.cycle.independent-k",
        sample_metric: "sim.sample_ns.independent-k",
        cycle_metric: "sim.cycle_ns.independent-k",
    },
    Mix {
        label: "independent-2k",
        preset: "independent",
        k_multiple: 2,
        sample_span: "sim.sample.independent-2k",
        cycle_span: "sim.cycle.independent-2k",
        sample_metric: "sim.sample_ns.independent-2k",
        cycle_metric: "sim.cycle_ns.independent-2k",
    },
    Mix {
        label: "bursty-2k",
        preset: "bursty",
        k_multiple: 2,
        sample_span: "sim.sample.bursty-2k",
        cycle_span: "sim.cycle.bursty-2k",
        sample_metric: "sim.sample_ns.bursty-2k",
        cycle_metric: "sim.cycle_ns.bursty-2k",
    },
    Mix {
        label: "wcet-stress-k",
        preset: "wcet-stress",
        k_multiple: 1,
        sample_span: "sim.sample.wcet-stress-k",
        cycle_span: "sim.cycle.wcet-stress-k",
        sample_metric: "sim.sample_ns.wcet-stress-k",
        cycle_metric: "sim.cycle_ns.wcet-stress-k",
    },
];

struct Sim {
    app: Arc<Application>,
    tree: QuasiStaticTree,
    runtime: FlatRuntime,
}

fn synthesis_request() -> SynthesisRequest {
    SynthesisRequest::ftqs(BUDGET).with_max_parallelism(1)
}

fn setup(seed: u64, per_size: usize) -> Vec<Sim> {
    let mut session = Engine::new().session();
    let base = util::mix64(seed ^ 0x3C3C) & 0xFFFF_FFFF_FFFF;
    let mut sims = Vec::new();
    for (s, &size) in SIZES.iter().enumerate() {
        for j in 0..per_size {
            let app_seed = base + 4096 * (s * per_size + j) as u64;
            let app = Arc::new(family::build_schedulable(Family::Fig9, size, app_seed, 64));
            let tree = session
                .synthesize(&app, &synthesis_request())
                .expect("schedulable apps synthesize")
                .into_tree();
            let runtime = FlatRuntime::new(&app, &tree);
            sims.push(Sim { app, tree, runtime });
        }
    }
    sims
}

/// One timed batch and what the checks need from it.
#[derive(Debug, Clone, Copy)]
struct Batch {
    sim: usize,
    seed: u64,
    faults: usize,
    eval: Evaluation,
}

struct Phase {
    ops: u64,
    elapsed_s: f64,
    windows: util::Windows,
    in_model_misses: u64,
    outcomes: Outcomes,
}

struct Runner {
    sims: Vec<Sim>,
    threads: usize,
    seed: u64,
    next: usize,
    /// The first measured batch of each fault model, for the checks.
    first: [Option<Batch>; MIX.len()],
}

impl Runner {
    fn phase(&mut self, duration: Duration, mut tracer: Option<&mut Tracer>) -> Phase {
        let mut p = Phase {
            ops: 0,
            elapsed_s: 0.0,
            windows: util::Windows::new(BATCH as f64),
            in_model_misses: 0,
            outcomes: Outcomes::default(),
        };
        let start = Instant::now();
        let stop = start + duration;
        let mut now = start;
        while now < stop {
            let op = self.next;
            self.next += 1;
            let m = op % MIX.len();
            let s = (op / MIX.len()) % self.sims.len();
            let sim = &self.sims[s];
            let faults = MIX[m].k_multiple * sim.app.faults().k;
            let config = MonteCarlo {
                scenarios: BATCH,
                seed: util::mix64(self.seed ^ (op as u64) << 8),
                threads: self.threads,
            };
            let began = Instant::now();
            let eval =
                BatchRunner::new(&sim.app, &sim.runtime, MIX[m].model()).evaluate(&config, faults);
            now = Instant::now();
            if let Some(t) = tracer.as_deref_mut() {
                t.record("sim.batch", began, now, None, op as u64);
            }
            p.ops += 1;
            p.outcomes.attempted += 1;
            if now < stop {
                p.windows
                    .push(util::nanos(now - start), util::nanos(now - began));
            }
            if eval.utility.count() != BATCH as u64 {
                p.outcomes
                    .mismatch(format!("batch {op}: {} scenarios", eval.utility.count()));
            } else if MIX[m].in_model() && eval.deadline_misses > 0 {
                p.in_model_misses += eval.deadline_misses;
                p.outcomes.mismatch(format!(
                    "batch {op}: {} in-model hard deadline misses",
                    eval.deadline_misses
                ));
            } else {
                p.outcomes.succeeded += 1;
            }
            self.first[m].get_or_insert(Batch {
                sim: s,
                seed: config.seed,
                faults,
                eval,
            });
        }
        p.elapsed_s = (now - start).as_secs_f64();
        p
    }

    /// Untimed: the first batch of every fault model, re-run serially and
    /// through the tree-walk `OnlineScheduler`, must match bit for bit.
    fn check(&self, outcomes: &mut Outcomes) {
        for (m, mix) in MIX.iter().enumerate() {
            let Some(b) = &self.first[m] else {
                outcomes.mismatch(format!("no {} batch ran", mix.label));
                continue;
            };
            let sim = &self.sims[b.sim];
            let config = MonteCarlo {
                scenarios: BATCH,
                seed: b.seed,
                threads: 1,
            };
            let serial =
                BatchRunner::new(&sim.app, &sim.runtime, mix.model()).evaluate(&config, b.faults);
            let scheduler = OnlineScheduler::new(&sim.app, &sim.tree);
            let sampler = ScenarioSampler::with_model(&sim.app, mix.model());
            let mut reference = Evaluation::default();
            for i in 0..BATCH {
                let mut rng = StdRng::seed_from_u64(scenario_seed(b.seed, i as u64));
                let out = scheduler.run_untraced(&sampler.sample(&mut rng, b.faults));
                reference.record(&CycleOutcome {
                    utility: out.utility,
                    deadline_miss: out.deadline_miss,
                    makespan: out.makespan,
                    faults_hit: out.faults_hit,
                    wcet_overruns: out.wcet_overruns,
                    switches: 0,
                    verdict: out.verdict,
                });
            }
            if fingerprint(&serial) != fingerprint(&reference) {
                outcomes.mismatch(format!(
                    "{}: flat batch differs from the tree walk",
                    mix.label
                ));
            }
            let (p, s) = (&b.eval, &serial);
            let close = (p.utility.mean() - s.utility.mean()).abs()
                <= 1e-9 * s.utility.mean().abs().max(1.0);
            if (p.deadline_misses, p.degraded, p.utility.count())
                != (s.deadline_misses, s.degraded, s.utility.count())
                || !close
            {
                outcomes.mismatch(format!(
                    "{}: {}-thread batch differs from the serial one",
                    mix.label, self.threads
                ));
            }
        }
    }
}

/// Every statistic of an evaluation, as exact bits.
fn fingerprint(e: &Evaluation) -> [u64; 8] {
    [
        e.utility.count(),
        e.utility.mean().to_bits(),
        e.utility.stddev().to_bits(),
        e.deadline_misses,
        e.degraded,
        e.faults.mean().to_bits(),
        e.overruns.mean().to_bits(),
        e.faults.count(),
    ]
}

pub fn run(args: &Args, name: &'static str) -> Report {
    let threads = util::nproc();
    let per_size = if args.smoke { 1 } else { APPS_PER_SIZE };
    // Set-up: generate the apps, synthesize their trees on one thread and
    // build the flat runtime images.
    let (sims, setup_times) = util::timed_setups(|| setup(args.seed, per_size));
    let mut runner = Runner {
        sims,
        threads,
        seed: args.seed,
        next: 0,
        first: [None; MIX.len()],
    };
    // Untimed warm-up: one batch per fault model on the first app.
    let warm = &runner.sims[0];
    for mix in &MIX {
        let config = MonteCarlo {
            scenarios: BATCH,
            seed: util::mix64(!args.seed),
            threads,
        };
        black_box(
            BatchRunner::new(&warm.app, &warm.runtime, mix.model())
                .evaluate(&config, mix.k_multiple * warm.app.faults().k),
        );
    }

    let seconds = Duration::from_secs_f64(args.seconds);
    let mut notes = vec![
        format!(
            "{} apps (fig9 sizes {SIZES:?}), ftqs budget {BUDGET} trees, batches of {BATCH} \
             scenarios on {threads} threads; mix {:?}; unit of work: scenarios",
            runner.sims.len(),
            MIX.map(|m| m.label)
        ),
        format!("setup_s repetitions: {setup_times:?}"),
    ];
    let mut metrics: Vec<(&'static str, f64)> = Vec::new();
    let mut outcomes;
    if args.trace {
        let untraced = runner.phase(seconds / 3, None);
        let mut tracer = Tracer::new();
        let traced = runner.phase(seconds / 3, Some(&mut tracer));
        let scen = |p: &Phase| p.ops as f64 * BATCH as f64 / p.elapsed_s.max(1e-9);
        let (untraced_tput, traced_tput) = (scen(&untraced), scen(&traced));

        // Replay set-up per app, then scenarios one by one per fault model.
        let mut session = Engine::new().session();
        let (mut schedules, mut arcs, mut saved, mut rerun) = (0, 0, 0, 0);
        let (mut cycles, mut switches, mut faults_hit, mut degraded, mut misses) =
            (0u64, 0u64, 0u64, 0u64, 0u64);
        let ftss = SynthesisRequest::ftss().with_max_parallelism(1);
        let mut scenario = FlatScenario::new();
        let mut scratch = RunScratch::new();
        for (s, sim) in runner.sims.iter().enumerate() {
            let id = s as u64;
            let prepared = tracer.time("core.prepare", None, id, || {
                PreparedApp::from_arc(Arc::clone(&sim.app))
            });
            let _ = tracer.time("core.ftss", None, id, || {
                black_box(session.synthesize_prepared(&prepared, &ftss))
            });
            if let Ok(r) = tracer.time("core.ftqs", None, id, || {
                session.synthesize_prepared(&prepared, &synthesis_request())
            }) {
                schedules += r.stats.schedules;
                arcs += r.stats.arcs;
                saved += r.stats.expansion.prefix_steps_saved;
                rerun += r.stats.expansion.prefix_steps_rerun;
            }
            let _ = tracer.time("sim.flat_build", None, id, || {
                black_box(FlatRuntime::new(&sim.app, &sim.tree))
            });
            let k = sim.app.faults().k;
            for mix in &MIX {
                let faults = mix.k_multiple * k;
                let attempts = k.max(faults) + 1;
                let sampler = ScenarioSampler::with_model(&sim.app, mix.model());
                let root = tracer.open("sim.replay", None, id);
                for i in 0..REPLAY_SCENARIOS {
                    let mut rng = StdRng::seed_from_u64(scenario_seed(args.seed, i as u64));
                    tracer.time(mix.sample_span, Some(root), id, || {
                        sampler.sample_into_with_attempts(
                            &mut rng,
                            faults,
                            attempts,
                            &mut scenario,
                        );
                    });
                    let out = tracer.time(mix.cycle_span, Some(root), id, || {
                        sim.runtime.run_cycle(&scenario, &mut scratch, &mut NoTrace)
                    });
                    cycles += 1;
                    switches += out.switches as u64;
                    faults_hit += out.faults_hit as u64;
                    match out.verdict {
                        DegradationVerdict::Degraded { .. } => degraded += 1,
                        DegradationVerdict::HardMiss { .. } if mix.in_model() => misses += 1,
                        _ => {}
                    }
                }
                tracer.close(root);
            }
        }
        let times = tracer.self_times();
        let us = |n: &str| times.get(n).map_or(0.0, |t| t.per_call_us());
        let n = runner.sims.len() as f64;
        let c = cycles.max(1) as f64;
        metrics.extend([
            ("core.prepare_us", us("core.prepare")),
            ("core.ftss_us", us("core.ftss")),
            ("core.ftqs_us", us("core.ftqs")),
            ("core.expansion_us", us("core.ftqs") - us("core.ftss")),
            ("core.schedules", schedules as f64 / n),
            ("core.arcs", arcs as f64 / n),
            ("core.expansion.prefix_steps_saved", saved as f64 / n),
            ("core.expansion.prefix_steps_rerun", rerun as f64 / n),
            ("sim.flat_build_us", us("sim.flat_build")),
            ("sim.switches_per_cycle", switches as f64 / c),
            ("sim.faults_hit_per_cycle", faults_hit as f64 / c),
            ("sim.degraded_ratio", degraded as f64 / c),
            (
                "sim.in_model_misses",
                (misses + untraced.in_model_misses + traced.in_model_misses) as f64,
            ),
        ]);
        for mix in &MIX {
            metrics.push((mix.sample_metric, us(mix.sample_span) * 1e3));
            metrics.push((mix.cycle_metric, us(mix.cycle_span) * 1e3));
        }
        metrics.extend(overhead_metrics(untraced_tput, traced_tput, tracer.len()));
        notes.push(format!(
            "traced run: untraced {} batches, traced {} batches, then per app the set-up \
             layers and {REPLAY_SCENARIOS} scenarios per fault model one by one ({cycles} cycles)",
            untraced.ops, traced.ops
        ));
        notes.push(layer_table(&times, cycles));
        notes.push(write_spans(&tracer, name, args.seed));
        outcomes = untraced.outcomes;
        outcomes.merge(traced.outcomes);
    } else {
        let measured = runner.phase(seconds, None);
        let (e2e, note) = measured.windows.finish(&setup_times);
        notes.push(note);
        metrics.extend(e2e);
        outcomes = measured.outcomes;
    }
    runner.check(&mut outcomes);
    notes.push(
        "checks: zero in-model hard misses in every batch; the first batch of each fault model \
         matches a serial re-run and the tree-walk OnlineScheduler bit for bit"
            .to_string(),
    );
    Report {
        outcomes,
        metrics,
        notes,
    }
}
