//! `fleet-cold` and `fleet-repeat`: NDJSON request lines through the
//! fleet service in a closed loop.
//!
//! One benchmark thread plays `ftqs serve`: it parses each line with
//! `transport::parse_request`, submits it, and on every response
//! serializes the `WireResponse` line and sends the next request, so a
//! fixed window of requests is always in flight. A request's latency runs
//! from the start of its parse to the end of its response line.

use crate::trace::{layer_table, overhead_metrics, write_spans, Tracer};
use crate::util::{self, oracle_expect, Expected, Outcomes};
use crate::{Args, Report};
use ftqs_core::{
    tree_digest, Engine, Error, PreparedApp, SchedulingError, SynthesisReport, SynthesisRequest,
};
use ftqs_service::transport::{self, WireResponse};
use ftqs_service::{
    ArtifactCache, Service, ServiceConfig, ServiceError, ServiceResponse, ServiceStats,
};
use ftqs_workloads::{family, spec, Family};
use serde::Value;
use std::borrow::Cow;
use std::collections::HashMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Requests in flight per worker.
const WINDOW_PER_WORKER: usize = 2;
const QUEUE_CAPACITY: usize = 64;
const RESPONSE_CAPACITY: usize = 64;
const CACHE_CAPACITY: usize = 256;
/// fleet-cold: process counts and FTQS budgets each line draws from.
const COLD_SIZES: [usize; 5] = [20, 25, 30, 35, 40];
const COLD_BUDGETS: [usize; 3] = [4, 8, 16];
/// fleet-cold: one line in this many is a candidate for the oracle check.
const COLD_SAMPLE_STRIDE: u64 = 64;
const COLD_SAMPLE_MAX: usize = 48;
/// fleet-repeat: pool of small apps (sizes taken in turn, members sent
/// round-robin so every seed weighs them alike) and the FTQS budget. The
/// pool fits the cache, so only its first pass misses.
const REPEAT_POOL: usize = 192;
const REPEAT_SIZES: [usize; 3] = [10, 12, 15];
const REPEAT_BUDGET: usize = 4;
/// fleet-repeat: distinct lines (ids), sent cyclically.
const REPEAT_LINES: usize = 8 * REPEAT_POOL;
const WARMUP_REQUESTS: usize = 256;
/// Requests replayed through the worker pipeline in a traced run.
const REPLAY_COLD: usize = 400;
const REPLAY_REPEAT: usize = 4000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    Ok,
    Unschedulable,
    WorkerPanic,
    Deadline,
    Malformed,
    Unexpected,
}

fn classify(outcome: &Result<SynthesisReport, ServiceError>) -> Class {
    match outcome {
        Ok(_) => Class::Ok,
        Err(ServiceError::Synthesis(Error::Scheduling(SchedulingError::Unschedulable {
            ..
        }))) => Class::Unschedulable,
        Err(ServiceError::WorkerPanic(_)) => Class::WorkerPanic,
        Err(ServiceError::DeadlineExceeded { .. }) => Class::Deadline,
        Err(ServiceError::InvalidSource(_)) => Class::Malformed,
        Err(ServiceError::Synthesis(_)) => Class::Unexpected,
    }
}

/// What a line asks for, enough to rebuild the job for the oracle.
#[derive(Debug, Clone, Copy)]
struct LineMeta {
    /// fleet-repeat: index into the spec pool.
    pool: usize,
    size: usize,
    budget: usize,
    seed: u64,
}

/// Where request lines come from. fleet-cold renders each line from its
/// index when it is sent, so no seed is ever sent twice however fast the
/// loop runs; fleet-repeat cycles over lines rendered in set-up.
enum Inputs {
    Cold {
        /// Draws each line's process count and budget.
        key: u64,
        /// Line `i` asks for app seed `seed_base + i` under id `id_base + i`.
        seed_base: u64,
        id_base: u64,
    },
    Repeat {
        lines: Vec<String>,
        /// The spec text of each pool member.
        pool: Vec<String>,
    },
}

impl Inputs {
    fn cold(seed: u64, id_base: u64) -> Self {
        Inputs::Cold {
            key: util::mix64(seed ^ 0xC01D),
            seed_base: util::mix64(seed ^ id_base) & 0xFFFF_FFFF_FFFF,
            id_base,
        }
    }

    fn repeat(seed: u64, pool_size: usize) -> Self {
        let pool: Vec<String> = (0..pool_size)
            .map(|j| {
                let size = REPEAT_SIZES[j % REPEAT_SIZES.len()];
                let app = family::build(Family::Fig9, size, util::mix64(seed) ^ j as u64);
                spec::render(&app)
            })
            .collect();
        let lines = (0..REPEAT_LINES)
            .map(|i| {
                let fields = vec![
                    ("id".to_string(), Value::U64(i as u64)),
                    ("spec".to_string(), Value::Str(pool[i % pool_size].clone())),
                    ("policy".to_string(), Value::Str("ftqs".to_string())),
                    ("budget".to_string(), Value::U64(REPEAT_BUDGET as u64)),
                ];
                serde_json::to_string(&Value::Map(fields)).expect("rendering is infallible")
            })
            .collect();
        Inputs::Repeat { lines, pool }
    }

    fn is_repeat(&self) -> bool {
        matches!(self, Inputs::Repeat { .. })
    }

    fn pool(&self) -> &[String] {
        match self {
            Inputs::Cold { .. } => &[],
            Inputs::Repeat { pool, .. } => pool,
        }
    }

    /// What the `i`-th line sent asks for.
    fn meta(&self, i: usize) -> LineMeta {
        match self {
            Inputs::Cold { key, seed_base, .. } => {
                let draw = util::mix64(key ^ i as u64);
                LineMeta {
                    pool: 0,
                    size: COLD_SIZES[(draw % COLD_SIZES.len() as u64) as usize],
                    budget: COLD_BUDGETS[((draw >> 32) % COLD_BUDGETS.len() as u64) as usize],
                    seed: seed_base + i as u64,
                }
            }
            Inputs::Repeat { lines, pool } => LineMeta {
                pool: (i % lines.len()) % pool.len(),
                size: 0,
                budget: REPEAT_BUDGET,
                seed: 0,
            },
        }
    }

    /// The `i`-th line sent.
    fn line(&self, i: usize) -> Cow<'_, str> {
        match self {
            Inputs::Cold { id_base, .. } => {
                let m = self.meta(i);
                Cow::Owned(transport::preset_request_line(
                    id_base + i as u64,
                    "fig9",
                    m.size,
                    m.seed,
                    "ftqs",
                    m.budget,
                    None,
                    None,
                ))
            }
            Inputs::Repeat { lines, .. } => Cow::Borrowed(&lines[i % lines.len()]),
        }
    }
}

fn start_service(workers: usize) -> Service {
    Service::start(ServiceConfig {
        workers,
        queue_capacity: QUEUE_CAPACITY,
        cache_capacity: CACHE_CAPACITY,
        response_capacity: RESPONSE_CAPACITY,
        intra_parallelism: 1,
        engine: Engine::new(),
        chaos: None,
    })
}

/// The facts of one response that the output checks compare.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Seen {
    class: Class,
    utility_bits: u64,
    schedules: usize,
    arcs: usize,
}

impl Seen {
    fn of(outcome: &Result<SynthesisReport, ServiceError>) -> Self {
        let (utility_bits, schedules, arcs) = match outcome {
            Ok(r) => (
                r.utility.expected_average_case.to_bits(),
                r.stats.schedules,
                r.stats.arcs,
            ),
            Err(_) => (0, 0, 0),
        };
        Seen {
            class: classify(outcome),
            utility_bits,
            schedules,
            arcs,
        }
    }

    fn matches(&self, expected: &Expected) -> bool {
        match expected {
            Some((_, bits, schedules, arcs)) => {
                self.class == Class::Ok
                    && self.utility_bits == *bits
                    && (self.schedules, self.arcs) == (*schedules, *arcs)
            }
            None => self.class == Class::Unschedulable,
        }
    }
}

#[derive(Debug)]
struct InFlight {
    line: usize,
    sent: Instant,
    parsed: Instant,
}

/// One measured stretch of the closed loop.
struct Phase {
    ops: u64,
    elapsed_s: f64,
    windows: util::Windows,
    queued_us: u64,
    service_us: u64,
    overhead_ns: i64,
    bytes: u64,
    outcomes: Outcomes,
}

impl Phase {
    fn per_op(&self, total: f64) -> f64 {
        total / self.ops.max(1) as f64
    }

    fn throughput(&self) -> f64 {
        self.ops as f64 / self.elapsed_s.max(1e-9)
    }
}

/// Closed-loop client state shared by every phase of a run. Its memory
/// does not grow with the number of requests.
struct Client<'a> {
    service: &'a Service,
    inputs: &'a Inputs,
    window: usize,
    /// Submissions so far; selects the next line.
    sent: usize,
    /// Responses kept in full for the oracle check, with their line.
    kept: Vec<(usize, Seen, WireResponse)>,
    /// fleet-repeat: each pool member's first response; every later one
    /// must equal it.
    first: Vec<Option<Seen>>,
    sample_seed: u64,
}

impl<'a> Client<'a> {
    fn new(service: &'a Service, inputs: &'a Inputs, window: usize, seed: u64) -> Self {
        Client {
            service,
            inputs,
            window,
            sent: 0,
            kept: Vec::new(),
            first: vec![None; inputs.pool().len()],
            sample_seed: seed,
        }
    }

    fn submit(&mut self, inflight: &mut HashMap<u64, InFlight>, phase: &mut Phase) {
        let line = self.sent;
        self.sent += 1;
        phase.outcomes.attempted += 1;
        let text = self.inputs.line(line);
        let sent = Instant::now();
        match transport::parse_request(&text) {
            Ok(request) => {
                let parsed = Instant::now();
                let id = request.id;
                match self.service.try_submit(request) {
                    Ok(()) => {
                        inflight.insert(id, InFlight { line, sent, parsed });
                    }
                    Err(e) => phase
                        .outcomes
                        .mismatch(format!("line {line}: submission refused: {e}")),
                }
            }
            Err((_, message)) => {
                phase.outcomes.malformed += 1;
                phase.outcomes.note(format!("line {line}: {message}"));
            }
        }
    }

    /// Files a response for the output checks: fleet-repeat keeps each
    /// pool member's first response and compares later ones with it;
    /// fleet-cold keeps a seeded sample of lines.
    fn record(&mut self, line: usize, seen: Seen, wire: WireResponse, outcomes: &mut Outcomes) {
        if self.inputs.is_repeat() {
            let member = self.inputs.meta(line).pool;
            match self.first[member] {
                None => {
                    self.first[member] = Some(seen);
                    self.kept.push((line, seen, wire));
                }
                Some(first) if first != seen => outcomes.mismatch(format!(
                    "line {line} (pool {member}) differs from the member's first response"
                )),
                Some(_) => {}
            }
        } else if self.kept.len() < COLD_SAMPLE_MAX
            && util::mix64(self.sample_seed ^ line as u64).is_multiple_of(COLD_SAMPLE_STRIDE)
        {
            self.kept.push((line, seen, wire));
        }
    }

    /// Runs the loop for `duration`, then drains the window.
    fn phase(
        &mut self,
        duration: Duration,
        mut tracer: Option<&mut Tracer>,
        record: bool,
    ) -> Phase {
        let mut phase = Phase {
            ops: 0,
            elapsed_s: 0.0,
            windows: util::Windows::new(1.0),
            queued_us: 0,
            service_us: 0,
            overhead_ns: 0,
            bytes: 0,
            outcomes: Outcomes::default(),
        };
        let mut inflight: HashMap<u64, InFlight> = HashMap::with_capacity(2 * self.window);
        let start = Instant::now();
        let stop = start + duration;
        let mut last = start;
        for _ in 0..self.window {
            self.submit(&mut inflight, &mut phase);
        }
        while !inflight.is_empty() {
            let Some(response) = self.service.recv() else {
                phase
                    .outcomes
                    .mismatch(format!("{} responses missing at shutdown", inflight.len()));
                break;
            };
            let received = Instant::now();
            let id = response.id;
            let Some(flight) = inflight.remove(&id) else {
                phase
                    .outcomes
                    .mismatch(format!("response for id {id}, which is not in flight"));
                continue;
            };
            let seen = Seen::of(&response.outcome);
            let (queued, service) = (response.queued_micros, response.service_micros);
            let serialize_start = Instant::now();
            let wire = WireResponse::from(response);
            let text = serde_json::to_string(&wire).expect("response serialization is infallible");
            let done = Instant::now();
            black_box(&text);

            let e2e = util::nanos(done - flight.sent);
            phase.ops += 1;
            if done < stop {
                phase.windows.push(util::nanos(done - start), e2e);
            }
            phase.queued_us += queued;
            phase.service_us += service;
            phase.overhead_ns += e2e as i64 - ((queued + service) * 1000) as i64;
            phase.bytes += text.len() as u64;
            let o = &mut phase.outcomes;
            match seen.class {
                Class::Ok => o.succeeded += 1,
                Class::Unschedulable => o.unschedulable += 1,
                Class::WorkerPanic => o.worker_panic += 1,
                Class::Deadline => o.deadline += 1,
                Class::Malformed => o.malformed += 1,
                Class::Unexpected => o.mismatch(format!("id {id}: {:?}", wire.error)),
            }
            if record {
                self.record(flight.line, seen, wire, &mut phase.outcomes);
            }
            if let Some(t) = tracer.as_deref_mut() {
                let root = t.record("fleet.request", flight.sent, done, None, id);
                t.record(
                    "transport.parse",
                    flight.sent,
                    flight.parsed,
                    Some(root),
                    id,
                );
                t.record("service.roundtrip", flight.parsed, received, Some(root), id);
                t.record("transport.serialize", serialize_start, done, Some(root), id);
            }
            last = done;
            if done < stop {
                self.submit(&mut inflight, &mut phase);
            }
        }
        phase.elapsed_s = (last - start).as_secs_f64();
        phase
    }
}

/// Untimed: every kept response against `oracle::ftqs_reference` on the
/// same source — verdict, expected-utility bits, tree shape and tree
/// digest. Returns how many sources the oracle confirmed.
fn check_outputs(client: &Client<'_>, outcomes: &mut Outcomes) -> usize {
    let inputs = client.inputs;
    for (line, seen, wire) in &client.kept {
        let m = inputs.meta(*line);
        let app = if inputs.is_repeat() {
            match spec::parse(&inputs.pool()[m.pool]) {
                Ok(app) => app,
                Err(e) => {
                    outcomes.mismatch(format!(
                        "pool {}: rendered spec does not parse: {e}",
                        m.pool
                    ));
                    continue;
                }
            }
        } else {
            family::build(Family::Fig9, m.size, m.seed)
        };
        match oracle_expect(&app, m.budget) {
            Ok(expected) => {
                let digest_ok = match (&expected, &wire.report) {
                    (Some((digest, ..)), Some(r)) => tree_digest(&r.tree) == *digest,
                    (None, None) => true,
                    _ => false,
                };
                if !digest_ok || !seen.matches(&expected) {
                    outcomes.mismatch(format!("line {line} disagrees with the oracle"));
                }
            }
            Err(msg) => outcomes.mismatch(format!("line {line}: {msg}")),
        }
    }
    client.kept.len()
}

/// Per-request replay of the worker pipeline in the benchmark thread:
/// digest → cache get/insert → resolve → prepare → synthesize → serialize,
/// each as a span; FTSS on the same prepared app is timed beside it.
#[derive(Default)]
struct Replay {
    requests: u64,
    synthesized: u64,
    unschedulable: u64,
    schedules: u64,
    arcs: u64,
    prefix_saved: u64,
    prefix_rerun: u64,
}

fn replay(inputs: &Inputs, count: usize, tracer: &mut Tracer) -> Replay {
    let engine = Engine::new();
    let mut session = engine.session();
    let config_digest = engine.config_digest();
    let cache = ArtifactCache::new(CACHE_CAPACITY);
    let ftss = SynthesisRequest::ftss().with_max_parallelism(1);
    let mut r = Replay::default();
    for k in 0..count {
        let id = k as u64;
        let line = inputs.line(k);
        let root = tracer.open("service.replay", None, id);
        let parsed = tracer.time("transport.parse", Some(root), id, || {
            transport::parse_request(&line)
        });
        let Ok(req) = parsed else {
            tracer.close(root);
            continue;
        };
        let request = req.request.clone().with_max_parallelism(1);
        let key = tracer.time("core.digest", Some(root), id, || {
            req.source
                .digest()
                .combine(config_digest)
                .combine(request.knob_digest())
        });
        let cached = tracer.time("service.cache_get", Some(root), id, || cache.get(key));
        let (prepared, hit) = match cached {
            Some(p) => (p, true),
            None => {
                let resolved =
                    tracer.time("workloads.resolve", Some(root), id, || req.source.resolve());
                let Ok(app) = resolved else {
                    tracer.close(root);
                    continue;
                };
                let prepared = tracer.time("core.prepare", Some(root), id, || {
                    Arc::new(PreparedApp::from_arc(app))
                });
                tracer.time("service.cache_insert", Some(root), id, || {
                    cache.insert(key, Arc::clone(&prepared));
                });
                (prepared, false)
            }
        };
        let outcome = tracer.time("core.ftqs", Some(root), id, || {
            session.synthesize_prepared(&prepared, &request)
        });
        r.requests += 1;
        match &outcome {
            Ok(report) => {
                r.synthesized += 1;
                r.schedules += report.stats.schedules as u64;
                r.arcs += report.stats.arcs as u64;
                r.prefix_saved += report.stats.expansion.prefix_steps_saved as u64;
                r.prefix_rerun += report.stats.expansion.prefix_steps_rerun as u64;
            }
            Err(_) => r.unschedulable += 1,
        }
        tracer.time("transport.serialize", Some(root), id, || {
            let wire = WireResponse::from(ServiceResponse {
                id: req.id,
                outcome: outcome.map_err(ServiceError::Synthesis),
                cache_hit: hit,
                queued_micros: 0,
                service_micros: 0,
                deadline_missed: false,
            });
            black_box(serde_json::to_string(&wire).expect("response serialization is infallible"));
        });
        tracer.close(root);
        let _ = tracer.time("core.ftss", None, id, || {
            black_box(session.synthesize_prepared(&prepared, &ftss))
        });
    }
    r
}

pub fn run_cold(args: &Args, name: &'static str) -> Report {
    run(args, name, false)
}

pub fn run_repeat(args: &Args, name: &'static str) -> Report {
    run(args, name, true)
}

fn stats_delta(before: &ServiceStats, after: &ServiceStats) -> (u64, u64, u64, u64, u64) {
    (
        after.cache.hits - before.cache.hits,
        after.cache.misses - before.cache.misses,
        after.cache.evictions - before.cache.evictions,
        after.rejected - before.rejected,
        after.submitted - before.submitted,
    )
}

fn run(args: &Args, name: &'static str, repeat: bool) -> Report {
    let workers = util::nproc();
    let window = WINDOW_PER_WORKER * workers;
    let pool_size = if args.smoke { 8 } else { REPEAT_POOL };

    // Set-up: render the fleet-repeat pool and lines, and start the service.
    let ((inputs, mut service), setup_times) = util::timed_setups(|| {
        let inputs = if repeat {
            Inputs::repeat(args.seed, pool_size)
        } else {
            Inputs::cold(args.seed, 0)
        };
        (inputs, start_service(workers))
    });

    // Untimed warm-up on its own inputs: spawns nothing new, fills the
    // fleet-repeat cache, and pages in the synthesis code.
    let warm_inputs = if repeat {
        None
    } else {
        Some(Inputs::cold(args.seed ^ 0xAAAA, 1 << 40))
    };
    {
        let mut warm = Client::new(&service, warm_inputs.as_ref().unwrap_or(&inputs), window, 0);
        let mut done = 0;
        while done < WARMUP_REQUESTS {
            // A zero-length phase sends one window and drains it.
            done += warm.phase(Duration::ZERO, None, false).ops as usize;
        }
    }

    let mut client = Client::new(&service, &inputs, window, args.seed);
    let before = service.stats();
    let seconds = Duration::from_secs_f64(args.seconds);
    let mut notes = vec![
        format!(
            "closed loop: {workers} workers, window {window}, queue {QUEUE_CAPACITY}, \
             responses {RESPONSE_CAPACITY}, cache {CACHE_CAPACITY}, intra_parallelism 1"
        ),
        if repeat {
            format!(
                "inputs: {REPEAT_LINES} spec lines over a pool of {pool_size} fig9 apps of \
                 {REPEAT_SIZES:?} processes, ftqs budget {REPEAT_BUDGET}; unit of work: requests"
            )
        } else {
            format!(
                "inputs: preset lines rendered as they are sent, distinct seeds, fig9 sizes \
                 {COLD_SIZES:?}, budgets {COLD_BUDGETS:?}; unit of work: requests"
            )
        },
        format!("setup_s repetitions: {setup_times:?}"),
    ];

    let mut metrics: Vec<(&'static str, f64)> = Vec::new();
    let mut outcomes;
    if args.trace {
        let untraced = client.phase(seconds / 3, None, true);
        let mut tracer = Tracer::new();
        let traced = client.phase(seconds / 3, Some(&mut tracer), true);
        let after = service.stats();
        let count = if args.smoke {
            40
        } else if repeat {
            REPLAY_REPEAT
        } else {
            REPLAY_COLD
        };
        // fleet-cold replays fresh seeds, so its replay cache only misses.
        let fresh;
        let replay_source = if repeat {
            &inputs
        } else {
            fresh = Inputs::cold(args.seed ^ 0xBBBB, 2 << 40);
            &fresh
        };
        let r = replay(replay_source, count, &mut tracer);
        let times = tracer.self_times();
        let us = |n: &str| times.get(n).map_or(0.0, |t| t.per_call_us());
        let per_request = |n: &str| {
            times
                .get(n)
                .map_or(0.0, |t| t.self_ns as f64 / 1e3 / r.requests.max(1) as f64)
        };
        let worker_side: f64 = [
            "core.digest",
            "service.cache_get",
            "workloads.resolve",
            "core.prepare",
            "service.cache_insert",
            "core.ftqs",
        ]
        .iter()
        .map(|n| per_request(n))
        .sum();
        let service_us = untraced.per_op(untraced.service_us as f64);
        let (hits, misses, evictions, rejected, submitted) = stats_delta(&before, &after);
        let synthesized = r.synthesized.max(1) as f64;
        metrics.extend([
            ("transport.parse_us", us("transport.parse")),
            ("transport.serialize_us", us("transport.serialize")),
            (
                "transport.response_bytes",
                traced.per_op(traced.bytes as f64),
            ),
            (
                "service.queue_wait_us",
                traced.per_op(traced.queued_us as f64),
            ),
            ("service.service_us", service_us),
            (
                "service.overhead_us",
                untraced.per_op(untraced.overhead_ns as f64) / 1e3,
            ),
            ("service.residual_us", service_us - worker_side),
            ("service.cache_get_us", us("service.cache_get")),
            (
                "service.cache_hit_ratio",
                hits as f64 / (hits + misses).max(1) as f64,
            ),
            ("service.cache_evictions", evictions as f64),
            (
                "service.rejected_ratio",
                rejected as f64 / submitted.max(1) as f64,
            ),
            (
                "service.response_peak_depth",
                after.response_peak_depth as f64,
            ),
            ("workloads.resolve_us", us("workloads.resolve")),
            ("core.digest_us", us("core.digest")),
            ("core.prepare_us", us("core.prepare")),
            ("core.ftss_us", us("core.ftss")),
            ("core.ftqs_us", us("core.ftqs")),
            ("core.expansion_us", us("core.ftqs") - us("core.ftss")),
            ("core.schedules", r.schedules as f64 / synthesized),
            ("core.arcs", r.arcs as f64 / synthesized),
            (
                "core.expansion.prefix_steps_saved",
                r.prefix_saved as f64 / synthesized,
            ),
            (
                "core.expansion.prefix_steps_rerun",
                r.prefix_rerun as f64 / synthesized,
            ),
            (
                "core.unschedulable_ratio",
                r.unschedulable as f64 / r.requests.max(1) as f64,
            ),
        ]);
        metrics.extend(overhead_metrics(
            untraced.throughput(),
            traced.throughput(),
            tracer.len(),
        ));
        notes.push(format!(
            "traced run: untraced {} requests, traced {} requests, replayed {} requests \
             ({} synthesized) in the benchmark thread",
            untraced.ops, traced.ops, r.requests, r.synthesized
        ));
        notes.push(layer_table(&times, r.requests));
        notes.push(format!(
            "service_us {service_us:.2} = worker-side self times {worker_side:.2} + residual {:.2} \
             (per request, µs)",
            service_us - worker_side
        ));
        notes.push(write_spans(&tracer, name, args.seed));
        outcomes = untraced.outcomes;
        outcomes.merge(traced.outcomes);
    } else {
        let measured = client.phase(seconds, None, true);
        let (e2e, note) = measured.windows.finish(&setup_times);
        let after = service.stats();
        let (hits, misses, ..) = stats_delta(&before, &after);
        notes.push(note);
        notes.push(format!(
            "cache hit ratio {:.4} ({hits} hits, {misses} misses)",
            hits as f64 / (hits + misses).max(1) as f64
        ));
        metrics.extend(e2e);
        outcomes = measured.outcomes;
    }
    let confirmed = check_outputs(&client, &mut outcomes);
    notes.push(format!(
        "checks: exactly one response per request; {confirmed} {} matched against \
         oracle::ftqs_reference (tree digest, expected-utility bits, unschedulable verdict)",
        if repeat {
            "pool apps (first responses; each later response must equal its app's first)"
        } else {
            "sampled distinct sources"
        }
    ));
    let _ = service.shutdown();
    Report {
        outcomes,
        metrics,
        notes,
    }
}
