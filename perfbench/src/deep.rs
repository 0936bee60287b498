//! `synth-deep`: one schedulable 40-process fig9 app at a time, FTQS
//! budget 40, through an in-process `Session` with `max_parallelism` =
//! nproc — the `ftqs tree` use. The op is one synthesis.

use crate::trace::{layer_table, overhead_metrics, write_spans, Tracer};
use crate::util::{self, oracle_expect, Outcomes};
use crate::{Args, Report};
use ftqs_core::{
    tree_digest, Application, Engine, PreparedApp, Session, SynthesisReport, SynthesisRequest,
};
use ftqs_workloads::{family, Family};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

const SIZE: usize = 40;
const BUDGET: usize = 40;
/// Distinct apps cycled through; enough that one run's latency
/// distribution does not hinge on a few apps of the seed.
const POOL: usize = 64;

/// What must repeat between syntheses of one app: expected-utility bits
/// and tree shape.
fn fingerprint(r: &SynthesisReport) -> (u64, usize, usize) {
    (
        r.utility.expected_average_case.to_bits(),
        r.stats.schedules,
        r.stats.arcs,
    )
}

struct Phase {
    ops: u64,
    elapsed_s: f64,
    windows: util::Windows,
    outcomes: Outcomes,
}

struct Runner {
    apps: Vec<Arc<Application>>,
    session: Session,
    request: SynthesisRequest,
    next: usize,
    /// Each app's first report; every later synthesis must repeat it.
    first: Vec<Option<SynthesisReport>>,
}

impl Runner {
    fn phase(&mut self, duration: Duration, mut tracer: Option<&mut Tracer>) -> Phase {
        let mut p = Phase {
            ops: 0,
            elapsed_s: 0.0,
            windows: util::Windows::new(1.0),
            outcomes: Outcomes::default(),
        };
        let start = Instant::now();
        let stop = start + duration;
        let mut now = start;
        while now < stop {
            let op = self.next;
            let j = op % self.apps.len();
            self.next += 1;
            let began = Instant::now();
            let result = self.session.synthesize(&self.apps[j], &self.request);
            now = Instant::now();
            if let Some(t) = tracer.as_deref_mut() {
                t.record("core.synthesize", began, now, None, op as u64);
            }
            p.ops += 1;
            p.outcomes.attempted += 1;
            if now < stop {
                p.windows
                    .push(util::nanos(now - start), util::nanos(now - began));
            }
            match (result, &self.first[j]) {
                (Ok(report), None) => {
                    p.outcomes.succeeded += 1;
                    self.first[j] = Some(report);
                }
                (Ok(report), Some(first)) if fingerprint(&report) == fingerprint(first) => {
                    p.outcomes.succeeded += 1;
                }
                (Ok(_), Some(_)) => p.outcomes.mismatch(format!(
                    "app {j}: synthesis did not repeat its first result"
                )),
                (Err(e), _) => p.outcomes.mismatch(format!("app {j}: {e}")),
            }
        }
        p.elapsed_s = (now - start).as_secs_f64();
        p
    }

    /// Untimed: every app's first report against the oracle.
    fn check(&mut self, outcomes: &mut Outcomes) {
        for j in 0..self.apps.len() {
            if self.first[j].is_none() {
                match self.session.synthesize(&self.apps[j], &self.request) {
                    Ok(r) => self.first[j] = Some(r),
                    Err(e) => outcomes.mismatch(format!("app {j}: {e}")),
                }
            }
            let Some(report) = &self.first[j] else {
                continue;
            };
            match oracle_expect(&self.apps[j], BUDGET) {
                Ok(Some((digest, bits, _, _))) => {
                    if tree_digest(&report.tree) != digest
                        || report.utility.expected_average_case.to_bits() != bits
                    {
                        outcomes.mismatch(format!("app {j}: tree differs from the oracle"));
                    }
                }
                Ok(None) => outcomes.mismatch(format!("app {j}: oracle finds it unschedulable")),
                Err(msg) => outcomes.mismatch(format!("app {j}: {msg}")),
            }
        }
    }
}

pub fn run(args: &Args, name: &'static str) -> Report {
    let workers = util::nproc();
    let pool = if args.smoke { 4 } else { POOL };
    let seed_base = util::mix64(args.seed ^ 0xDEE9) & 0xFFFF_FFFF_FFFF;
    let (apps, setup_times) = util::timed_setups(|| {
        (0..pool)
            .map(|j| {
                Arc::new(family::build_schedulable(
                    Family::Fig9,
                    SIZE,
                    seed_base + 4096 * j as u64,
                    64,
                ))
            })
            .collect::<Vec<_>>()
    });
    let mut runner = Runner {
        first: vec![None; apps.len()],
        apps,
        session: Engine::new().session(),
        request: SynthesisRequest::ftqs(BUDGET).with_max_parallelism(workers),
        next: 0,
    };
    // Untimed warm-up: one pass over the pool primes the session scratch.
    for app in &runner.apps {
        let _ = black_box(runner.session.synthesize(app, &runner.request));
    }

    let seconds = Duration::from_secs_f64(args.seconds);
    let mut notes = vec![
        format!(
            "in-process Session: {pool} schedulable fig9 apps of {SIZE} processes, ftqs budget \
             {BUDGET}, max_parallelism {workers}; unit of work: syntheses"
        ),
        format!("setup_s repetitions: {setup_times:?}"),
    ];
    let mut metrics: Vec<(&'static str, f64)> = Vec::new();
    let mut outcomes;
    if args.trace {
        let untraced = runner.phase(seconds / 3, None);
        let mut tracer = Tracer::new();
        let traced = runner.phase(seconds / 3, Some(&mut tracer));
        let untraced_tput = untraced.ops as f64 / untraced.elapsed_s.max(1e-9);
        let traced_tput = traced.ops as f64 / traced.elapsed_s.max(1e-9);

        // Split each app's synthesis into its layers, then time FTQS at
        // one worker against nproc workers, interleaved.
        let ftss = SynthesisRequest::ftss().with_max_parallelism(workers);
        let serial = SynthesisRequest::ftqs(BUDGET).with_max_parallelism(1);
        let (mut schedules, mut arcs, mut saved, mut rerun, mut ok) = (0, 0, 0, 0, 0usize);
        let (mut t_serial, mut t_parallel) = (Duration::ZERO, Duration::ZERO);
        for (j, app) in runner.apps.iter().enumerate() {
            let id = j as u64;
            let root = tracer.open("deep.replay", None, id);
            let prepared = tracer.time("core.prepare", Some(root), id, || {
                PreparedApp::from_arc(Arc::clone(app))
            });
            let _ = tracer.time("core.ftss", Some(root), id, || {
                black_box(runner.session.synthesize_prepared(&prepared, &ftss))
            });
            let report = tracer.time("core.ftqs", Some(root), id, || {
                runner
                    .session
                    .synthesize_prepared(&prepared, &runner.request)
            });
            tracer.close(root);
            if let Ok(r) = report {
                ok += 1;
                schedules += r.stats.schedules;
                arcs += r.stats.arcs;
                saved += r.stats.expansion.prefix_steps_saved;
                rerun += r.stats.expansion.prefix_steps_rerun;
            }
            for (req, total) in [(&serial, &mut t_serial), (&runner.request, &mut t_parallel)] {
                let began = Instant::now();
                let _ = black_box(runner.session.synthesize_prepared(&prepared, req));
                *total += began.elapsed();
            }
        }
        let times = tracer.self_times();
        let us = |n: &str| times.get(n).map_or(0.0, |t| t.per_call_us());
        let n = ok.max(1) as f64;
        metrics.extend([
            ("core.prepare_us", us("core.prepare")),
            ("core.ftss_us", us("core.ftss")),
            ("core.ftqs_us", us("core.ftqs")),
            ("core.expansion_us", us("core.ftqs") - us("core.ftss")),
            (
                "core.par_speedup",
                t_serial.as_secs_f64() / t_parallel.as_secs_f64().max(1e-12),
            ),
            ("core.schedules", schedules as f64 / n),
            ("core.arcs", arcs as f64 / n),
            ("core.expansion.prefix_steps_saved", saved as f64 / n),
            ("core.expansion.prefix_steps_rerun", rerun as f64 / n),
            (
                "core.unschedulable_ratio",
                (runner.apps.len() - ok) as f64 / runner.apps.len() as f64,
            ),
        ]);
        metrics.extend(overhead_metrics(untraced_tput, traced_tput, tracer.len()));
        notes.push(format!(
            "traced run: untraced {} syntheses, traced {}, then each of the {} apps split into \
             prepare / ftss / ftqs and timed at 1 vs {workers} workers",
            untraced.ops,
            traced.ops,
            runner.apps.len()
        ));
        notes.push(layer_table(&times, runner.apps.len() as u64));
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
    notes.push(format!(
        "checks: all {} apps match oracle::ftqs_reference (tree digest, expected-utility bits); \
         every synthesis repeats its app's first result",
        runner.apps.len()
    ));
    Report {
        outcomes,
        metrics,
        notes,
    }
}
