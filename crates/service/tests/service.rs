//! Cache-correctness and robustness tests for the fleet service.
//!
//! The load-bearing properties: a response served from the report cache
//! is *bit-identical* to a cold synthesis of the same request — same
//! quasi-static tree (pinned through [`ftqs_core::tree_digest`]) and the
//! same expected utility down to the last mantissa bit — the cache never
//! serves an answer that belongs to one request rather than to its key
//! (gate rejections, panics), and the service
//! degrades gracefully (priorities, deadlines, backpressure, shutdown
//! races) instead of hanging or panicking. Fault-injection coverage
//! (worker panics, kills, supervision) lives in `tests/chaos.rs`.

use ftqs_core::{
    tree_digest, ContentDigest, Engine, Error, SchedulingError, SynthesisReport, SynthesisRequest,
};
use ftqs_service::transport::{self, WireResponse};
use ftqs_service::{
    ChaosPolicy, JobSource, Priority, Service, ServiceConfig, ServiceError, ServiceRequest,
    SubmitError,
};
use ftqs_workloads::family::{build, Family};
use std::sync::Arc;
use std::time::Duration;

fn single_worker_service(cache_capacity: usize) -> Service {
    Service::start(ServiceConfig {
        workers: 1,
        queue_capacity: 64,
        cache_capacity,
        ..ServiceConfig::default()
    })
}

fn preset(id: u64, seed: u64, request: SynthesisRequest) -> ServiceRequest {
    ServiceRequest::new(
        id,
        JobSource::Preset {
            family: "fig9".to_string(),
            size: 15,
            seed,
        },
        request,
    )
}

/// A deliberately heavy request that occupies a worker for many
/// milliseconds (used to hold the queue busy while others pile up).
fn heavy(id: u64) -> ServiceRequest {
    ServiceRequest::new(
        id,
        JobSource::Preset {
            family: "fig9".to_string(),
            size: 30,
            seed: 12,
        },
        SynthesisRequest::ftqs(24),
    )
}

/// Spin until the single worker has taken the queued request in flight
/// (queue empty), so subsequently queued requests demonstrably wait
/// behind it rather than racing it to the worker.
fn occupy(service: &Service) {
    while service.stats().queue_depth > 0 {
        std::thread::yield_now();
    }
}

fn fingerprint(report: &SynthesisReport) -> (ContentDigest, u64, usize) {
    (
        tree_digest(&report.tree),
        report.utility.expected_average_case.to_bits(),
        report.dropped.count,
    )
}

#[test]
fn cache_hit_is_bit_identical_to_cold_for_every_policy() {
    // One worker makes completion order (and therefore which request is
    // the cold one) deterministic.
    let mut service = single_worker_service(16);
    let requests = [
        SynthesisRequest::ftss(),
        SynthesisRequest::ftqs(6),
        SynthesisRequest::ftsf(),
    ];
    for (i, request) in requests.iter().enumerate() {
        let id = i as u64 * 2;
        let responses = service.run_batch(vec![
            preset(id, 9, request.clone()),
            preset(id + 1, 9, request.clone()),
        ]);
        assert_eq!(responses.len(), 2);
        let cold = &responses[0];
        let hit = &responses[1];
        assert_eq!(cold.id, id);
        assert!(!cold.cache_hit, "first request of a key must be cold");
        assert!(hit.cache_hit, "identical second request must hit");
        let cold_report = cold.outcome.as_ref().expect("cold synthesis succeeds");
        let hit_report = hit.outcome.as_ref().expect("cached synthesis succeeds");
        assert_eq!(
            fingerprint(cold_report),
            fingerprint(hit_report),
            "cached synthesis must be bit-identical to cold ({request:?})"
        );

        // And both must match a plain single-shot Session outside the
        // service entirely.
        let app = build(Family::Fig9, 15, 9);
        let direct = Engine::new()
            .session()
            .synthesize(&app, request)
            .expect("direct synthesis succeeds");
        assert_eq!(fingerprint(cold_report), fingerprint(&direct));
    }
    let stats = service.shutdown();
    assert_eq!(stats.completed, 6);
    assert_eq!(stats.failed, 0);
    assert_eq!(stats.cache.hits, 3);
    assert_eq!(stats.panics, 0);
    assert_eq!(stats.respawns, 0);
    assert_eq!(stats.deadline_misses, 0);
}

#[test]
fn eviction_then_reinsert_stays_bit_identical() {
    // Capacity 1: seed 1 and seed 2 fight over the single slot, so seed 1
    // is rebuilt from scratch after being evicted. The rebuilt artifact
    // must produce the same bits as the original.
    let mut service = single_worker_service(1);
    let request = SynthesisRequest::ftqs(6);
    let responses = service.run_batch(vec![
        preset(0, 1, request.clone()), // miss: builds seed 1
        preset(1, 2, request.clone()), // miss: evicts seed 1
        preset(2, 1, request.clone()), // miss: rebuilds seed 1
        preset(3, 1, request.clone()), // hit: cached rebuild
    ]);
    assert_eq!(responses.len(), 4);
    assert_eq!(
        responses.iter().map(|r| r.cache_hit).collect::<Vec<_>>(),
        [false, false, false, true]
    );
    let first = fingerprint(responses[0].outcome.as_ref().unwrap());
    let rebuilt = fingerprint(responses[2].outcome.as_ref().unwrap());
    let rehit = fingerprint(responses[3].outcome.as_ref().unwrap());
    assert_eq!(first, rebuilt, "evict + rebuild must reproduce the bits");
    assert_eq!(first, rehit, "cached rebuild must reproduce the bits");
    let stats = service.shutdown();
    assert!(stats.cache.evictions >= 2, "capacity-1 thrash must evict");
    assert_eq!(stats.cache.entries, 1);
}

#[test]
fn unschedulable_outcomes_are_cached_with_the_same_error() {
    // The first size-25 fig9 seed whose hard deadlines are infeasible.
    let mut session = Engine::new().session();
    let seed = (0..64)
        .find(|&seed| {
            matches!(
                session.synthesize(&build(Family::Fig9, 25, seed), &SynthesisRequest::ftqs(4)),
                Err(Error::Scheduling(SchedulingError::Unschedulable { .. }))
            )
        })
        .expect("some fig9-25 seed below 64 is unschedulable");
    let request = |id| {
        ServiceRequest::new(
            id,
            JobSource::Preset {
                family: "fig9".to_string(),
                size: 25,
                seed,
            },
            SynthesisRequest::ftqs(4),
        )
    };
    let mut service = single_worker_service(8);
    let responses = service.run_batch(vec![request(0), request(1)]);
    let error = |i: usize| match &responses[i].outcome {
        Err(e @ ServiceError::Synthesis(Error::Scheduling(_))) => e.to_string(),
        other => panic!("expected an unschedulable answer, got {other:?}"),
    };
    assert!(!responses[0].cache_hit);
    assert!(responses[1].cache_hit, "a repeated failure is a cache hit");
    assert_eq!(error(0), error(1), "the cached failure keeps its text");
    let stats = service.shutdown();
    assert_eq!((stats.cache.hits, stats.cache.misses), (1, 1));
    assert_eq!(stats.failed, 2);
}

#[test]
fn process_limit_gates_a_cached_entry_and_never_poisons_the_key() {
    let unbounded = SynthesisRequest::ftqs(4);
    let gated = SynthesisRequest::ftqs(4).with_max_processes(10);
    let app = build(Family::Fig9, 15, 9);
    let gate_error = Engine::new()
        .session()
        .synthesize(&app, &gated)
        .expect_err("15 processes exceed a limit of 10")
        .to_string();
    let is_gated = |outcome: &Result<SynthesisReport, ServiceError>| {
        matches!(outcome, Err(ServiceError::Synthesis(e @ Error::InvalidRequest { .. }))
            if e.to_string() == gate_error)
    };
    let mut service = single_worker_service(8);
    let responses = service.run_batch(vec![
        preset(0, 9, gated.clone()),     // miss: rejected, not cached
        preset(1, 9, unbounded.clone()), // miss: synthesized and cached
        preset(2, 9, gated.clone()),     // hit: gated on the stored size
        preset(3, 9, unbounded.clone()), // hit: served
        preset(4, 9, SynthesisRequest::ftqs(4).with_max_processes(15)),
    ]);
    assert!(is_gated(&responses[0].outcome) && !responses[0].cache_hit);
    assert!(
        !responses[1].cache_hit && responses[1].outcome.is_ok(),
        "a gate rejection must not fill the key"
    );
    assert!(
        is_gated(&responses[2].outcome),
        "the gate runs before a hit"
    );
    assert!(responses[3].cache_hit);
    assert!(responses[4].cache_hit, "a limit the app fits is served");
    let cold = fingerprint(responses[1].outcome.as_ref().unwrap());
    for hit in &responses[3..] {
        assert_eq!(fingerprint(hit.outcome.as_ref().unwrap()), cold);
    }
    let stats = service.shutdown();
    assert_eq!(stats.cache.entries, 1);
    assert_eq!(stats.failed, 2);
}

#[test]
fn concurrent_duplicates_are_synthesized_once() {
    // Four workers take the same key at once: one builds, the others wait
    // for its entry instead of synthesizing the same report again.
    let mut service = Service::start(ServiceConfig {
        workers: 4,
        cache_capacity: 8,
        ..ServiceConfig::default()
    });
    let responses = service.run_batch(
        (0..16)
            .map(|id| preset(id, 9, SynthesisRequest::ftqs(8)))
            .collect(),
    );
    assert_eq!(responses.iter().filter(|r| !r.cache_hit).count(), 1);
    let cold = fingerprint(responses[0].outcome.as_ref().unwrap());
    assert!(responses
        .iter()
        .all(|r| fingerprint(r.outcome.as_ref().unwrap()) == cold));
    let stats = service.shutdown();
    assert_eq!((stats.cache.hits, stats.cache.misses), (15, 1));
}

#[test]
fn an_injected_panic_leaves_no_cache_entry() {
    let policy = ChaosPolicy {
        panic_per_mille: 500,
        ..ChaosPolicy::calm(0x5EED)
    };
    let panicking = (0..).find(|&id| policy.decide(id).panic).unwrap();
    let calm = (0..).find(|&id| !policy.decide(id).panic).unwrap();
    let mut service = Service::start(ServiceConfig {
        workers: 1,
        cache_capacity: 8,
        chaos: Some(policy),
        ..ServiceConfig::default()
    });
    let request = SynthesisRequest::ftqs(4);
    let responses = service.run_batch(vec![
        preset(panicking, 9, request.clone()),
        preset(calm, 9, request.clone()),
    ]);
    assert!(matches!(
        responses[0].outcome,
        Err(ServiceError::WorkerPanic(_))
    ));
    assert!(!responses[0].cache_hit);
    assert!(
        !responses[1].cache_hit && responses[1].outcome.is_ok(),
        "the panic must not have left an entry for the key"
    );
    let stats = service.shutdown();
    assert_eq!(stats.panics, 1);
    assert_eq!((stats.cache.hits, stats.cache.entries), (0, 1));
}

#[test]
fn spec_and_app_sources_share_results_with_presets() {
    let app = build(Family::Fig9, 12, 4);
    let spec_text = ftqs_workloads::spec::render(&app);
    let request = SynthesisRequest::ftqs(4);
    let mut service = single_worker_service(8);
    let responses = service.run_batch(vec![
        ServiceRequest::new(0, JobSource::App(Arc::new(app)), request.clone()),
        ServiceRequest::new(1, JobSource::Spec(spec_text), request.clone()),
    ]);
    let a = fingerprint(responses[0].outcome.as_ref().unwrap());
    let b = fingerprint(responses[1].outcome.as_ref().unwrap());
    assert_eq!(a, b, "same application through any source, same bits");
    let _ = service.shutdown();
}

#[test]
fn invalid_sources_fail_per_request_without_poisoning_the_batch() {
    let mut service = single_worker_service(8);
    let responses = service.run_batch(vec![
        preset(0, 5, SynthesisRequest::ftss()),
        ServiceRequest::new(
            1,
            JobSource::Preset {
                family: "no-such-family".to_string(),
                size: 10,
                seed: 0,
            },
            SynthesisRequest::ftss(),
        ),
        ServiceRequest::new(
            2,
            JobSource::Spec("this is not a spec".to_string()),
            SynthesisRequest::ftss(),
        ),
        preset(3, 5, SynthesisRequest::ftss()),
    ]);
    assert_eq!(responses.len(), 4);
    let by_id = |id: u64| responses.iter().find(|r| r.id == id).unwrap();
    assert!(by_id(0).outcome.is_ok());
    assert!(
        by_id(1).outcome.is_err(),
        "unknown family is a per-request error"
    );
    assert!(by_id(2).outcome.is_err(), "bad spec is a per-request error");
    assert!(by_id(3).outcome.is_ok(), "later requests still served");
    let stats = service.shutdown();
    assert_eq!(stats.completed, 4);
    assert_eq!(stats.failed, 2);
}

#[test]
fn overload_surfaces_as_backpressure_not_a_panic() {
    // A single worker chewing on a deliberately heavy request keeps the
    // depth-1 queue occupied long enough for a third submission to bounce.
    let mut service = Service::start(ServiceConfig {
        workers: 1,
        queue_capacity: 1,
        cache_capacity: 4,
        ..ServiceConfig::default()
    });
    let mut accepted = 0u64;
    let mut bounced = 0u64;
    for _ in 0..50 {
        match service.try_submit(heavy(0)) {
            Ok(()) => accepted += 1,
            Err(SubmitError::Backpressure { capacity }) => {
                assert_eq!(capacity, 1);
                bounced += 1;
            }
            Err(SubmitError::Stopped) => panic!("service is running"),
        }
    }
    assert!(bounced > 0, "a depth-1 queue must bounce a 50-burst");
    for _ in 0..accepted {
        let response = service.recv().expect("accepted requests are answered");
        assert!(response.outcome.is_ok());
    }
    let stats = service.shutdown();
    assert_eq!(stats.submitted, accepted);
    assert_eq!(stats.completed, accepted);
    assert_eq!(
        stats.rejected, bounced,
        "every backpressure bounce is counted"
    );
    assert!(stats.queue_peak_depth <= 1);
}

#[test]
fn interactive_requests_overtake_queued_bulk_requests() {
    // The single worker is pinned on a heavy request while the queue
    // fills: three bulk requests, then one interactive. The interactive
    // request must be served before any of the queued bulk ones.
    let mut service = single_worker_service(8);
    service.submit(heavy(0)).unwrap();
    occupy(&service); // the worker now holds request 0 in flight
    for id in 1..=3 {
        service
            .submit(preset(id, 7, SynthesisRequest::ftss()))
            .unwrap();
    }
    service
        .submit(preset(10, 7, SynthesisRequest::ftss()).with_priority(Priority::Interactive))
        .unwrap();
    let order: Vec<u64> = (0..5).map(|_| service.recv().unwrap().id).collect();
    assert_eq!(order[0], 0, "the in-flight request finishes first");
    assert_eq!(order[1], 10, "interactive overtakes every queued bulk");
    assert_eq!(&order[2..], [1, 2, 3], "bulk retains FIFO order");
    let _ = service.shutdown();
}

#[test]
fn expired_deadline_is_answered_without_synthesis() {
    // The worker is busy for many milliseconds; requests with a zero
    // deadline expire in the queue and must come back as
    // DeadlineExceeded with no service time spent.
    let mut service = single_worker_service(8);
    service.submit(heavy(0)).unwrap();
    occupy(&service);
    for id in 1..=3 {
        service
            .submit(preset(id, 7, SynthesisRequest::ftss()).with_deadline(Duration::ZERO))
            .unwrap();
    }
    let responses: Vec<_> = (0..4).map(|_| service.recv().unwrap()).collect();
    assert!(responses[0].outcome.is_ok());
    for response in &responses[1..] {
        assert!(
            matches!(response.outcome, Err(ServiceError::DeadlineExceeded { .. })),
            "expired request must not be synthesized: {:?}",
            response.outcome
        );
        assert_eq!(response.service_micros, 0, "no worker time burned");
        assert!(response.deadline_missed);
    }
    let stats = service.shutdown();
    assert_eq!(stats.deadline_misses, 3);
    assert_eq!(stats.completed, 4, "expired requests still answer");
    // A generous deadline, by contrast, is met and not counted.
    let mut service = single_worker_service(8);
    let responses = service.run_batch(vec![
        preset(0, 9, SynthesisRequest::ftss()).with_deadline(Duration::from_secs(60))
    ]);
    assert!(responses[0].outcome.is_ok());
    assert!(!responses[0].deadline_missed);
    assert_eq!(service.shutdown().deadline_misses, 0);
}

#[test]
fn blocked_submitters_return_stopped_when_the_service_closes() {
    // Producers parked in blocking submit() on a full queue when close()
    // runs must observe SubmitError::Stopped — never hang, never panic.
    // A depth-1 response ring that nobody consumes wedges the pipeline
    // deliberately: the worker blocks delivering its second response, the
    // depth-1 work queue stays full, and the parked submitters have no
    // way forward until the close releases everything.
    let service = Arc::new(Service::start(ServiceConfig {
        workers: 1,
        queue_capacity: 1,
        cache_capacity: 4,
        response_capacity: 1,
        ..ServiceConfig::default()
    }));
    let cheap = |id: u64| preset(id, 3, SynthesisRequest::ftss());
    service.submit(cheap(0)).unwrap();
    // Fill the single queue slot (retrying while the worker takes job 0).
    while service.try_submit(cheap(1)).is_err() {
        std::thread::yield_now();
    }
    let blocked: Vec<_> = (0..4)
        .map(|i| {
            let service = Arc::clone(&service);
            std::thread::spawn(move || service.submit(cheap(10 + i)))
        })
        .collect();
    // Give the submitters time to park on the full queue, then close the
    // intake out from under them.
    std::thread::sleep(Duration::from_millis(50));
    service.close();
    let mut stopped = 0;
    let mut accepted_late = 0;
    for handle in blocked {
        // The join itself is the hang check.
        match handle.join().expect("submitter threads must not panic") {
            Err(SubmitError::Stopped) => stopped += 1,
            Ok(()) => accepted_late += 1,
            Err(SubmitError::Backpressure { .. }) => {
                panic!("blocking submit never reports backpressure")
            }
        }
    }
    // At most one submitter can have slipped into the slot freed when
    // the worker popped job 1 (it then blocked on the response ring, so
    // the slot never freed again); the rest must have been released by
    // the close.
    assert_eq!(stopped + accepted_late, 4);
    assert!(stopped >= 3, "close must release parked submitters");
    // Everything accepted before the close is still served and
    // receivable afterwards, then the stream ends.
    for _ in 0..(2 + accepted_late) {
        assert!(service.recv().is_some(), "accepted requests still answer");
    }
    assert!(service.recv().is_none());
}

#[test]
fn responses_remain_receivable_after_shutdown() {
    let mut service = single_worker_service(8);
    for id in 0..3 {
        service
            .submit(preset(id, 11, SynthesisRequest::ftss()))
            .unwrap();
    }
    // Shut down with every response still undelivered: the queue drains,
    // workers exit, and the buffered responses must survive.
    let stats = service.shutdown();
    assert_eq!(stats.completed, 3);
    assert_eq!(stats.response_depth, 3, "responses buffered, not lost");
    let mut ids: Vec<u64> = (0..3).map(|_| service.recv().unwrap().id).collect();
    ids.sort_unstable();
    assert_eq!(ids, [0, 1, 2]);
    assert!(
        service.recv().is_none(),
        "after the drain the stream reports its end"
    );
}

#[test]
fn bounded_response_ring_throttles_workers_and_loses_nothing() {
    // Ring capacity 2 with a deliberately slow consumer: workers must
    // block on the full ring (peak depth ≤ 2 while live), yet every
    // request is answered exactly once.
    let mut service = Service::start(ServiceConfig {
        workers: 2,
        queue_capacity: 64,
        cache_capacity: 8,
        response_capacity: 2,
        ..ServiceConfig::default()
    });
    let count = 12u64;
    for id in 0..count {
        service
            .submit(preset(id, id % 3, SynthesisRequest::ftss()))
            .unwrap();
    }
    let mut seen = vec![false; count as usize];
    for _ in 0..count {
        std::thread::sleep(Duration::from_millis(2)); // slow consumer
        let response = service.recv().expect("every request answers");
        assert!(
            !std::mem::replace(&mut seen[response.id as usize], true),
            "duplicate response id {}",
            response.id
        );
    }
    assert!(seen.iter().all(|&s| s), "no response lost");
    let stats = service.shutdown();
    assert!(
        stats.response_peak_depth <= 2,
        "bounded ring must throttle, peak {}",
        stats.response_peak_depth
    );
    assert_eq!(stats.completed, count);
}

#[test]
fn malformed_ndjson_lines_answer_in_place_and_spare_the_batch() {
    let mut service = single_worker_service(8);
    let input = concat!(
        "{\"id\": 1, \"preset\": {\"family\": \"fig9\", \"size\": 12, \"seed\": 5}}\n",
        "this is not json at all\n",
        "{\"id\": 7, \"preset\": {\"family\": \"fig9\"}}\n",
        "{\"preset\": {\"family\": \"fig9\", \"size\": 12, \"seed\": 5}}\n",
        "{\"id\": 3, \"preset\": {\"family\": \"marsaglia\", \"size\": 12, \"seed\": 5}}\n",
        "\n",
        "{\"id\": 2, \"preset\": {\"family\": \"fig9\", \"size\": 12, \"seed\": 5}, \"policy\": \"ftss\"}\n",
    );
    let mut output = Vec::new();
    let summary = transport::serve(&service, input.as_bytes(), &mut output).unwrap();
    assert_eq!(summary.accepted, 3, "ids 1, 3, 2 reach the service");
    assert_eq!(summary.malformed, 3, "bad JSON, missing size, missing id");

    let lines: Vec<WireResponse> = String::from_utf8(output)
        .unwrap()
        .lines()
        .map(|l| serde_json::from_str(l).unwrap())
        .collect();
    assert_eq!(lines.len(), 6, "every line answers exactly once");

    let by_id = |id: u64| lines.iter().find(|r| r.id == id).unwrap();
    assert!(by_id(1).ok && by_id(1).report.is_some());
    assert!(by_id(2).ok, "requests after malformed lines still run");
    assert!(!by_id(3).ok, "unknown family fails per-request");
    assert!(by_id(3).error.as_ref().unwrap().contains("marsaglia"));
    assert!(
        !by_id(7).ok && by_id(7).error.is_some(),
        "missing 'size' reports against the extracted id"
    );
    // Lines with no extractable id (the non-JSON line 2 and the id-less
    // line 4) report id 0 and name their line number instead.
    let anonymous: Vec<&str> = lines
        .iter()
        .filter(|r| r.id == 0)
        .map(|r| r.error.as_deref().unwrap())
        .collect();
    assert_eq!(anonymous.len(), 2);
    assert!(anonymous.iter().any(|e| e.contains("line 2")));
    assert!(anonymous.iter().any(|e| e.contains("line 4")));
    let _ = service.shutdown();
}

#[test]
fn deeply_nested_line_is_a_per_line_error() {
    // 200k `[` would overflow the parser's stack without the depth cap,
    // aborting the whole process; it must answer like any malformed line.
    let mut service = single_worker_service(8);
    let input = format!(
        "{}\n{}\n{}\n",
        "{\"id\": 1, \"preset\": {\"family\": \"fig9\", \"size\": 12, \"seed\": 5}}",
        "[".repeat(200_000),
        "{\"id\": 2, \"preset\": {\"family\": \"fig9\", \"size\": 12, \"seed\": 5}}",
    );
    let mut output = Vec::new();
    let summary = transport::serve(&service, input.as_bytes(), &mut output).unwrap();
    assert_eq!((summary.accepted, summary.malformed), (2, 1));
    let lines: Vec<WireResponse> = String::from_utf8(output)
        .unwrap()
        .lines()
        .map(|l| serde_json::from_str(l).unwrap())
        .collect();
    assert_eq!(lines.len(), 3);
    let nested = lines.iter().find(|r| !r.ok).unwrap();
    let error = nested.error.as_deref().unwrap();
    assert!(
        error.contains("line 2") && error.contains("nesting"),
        "{error}"
    );
    let mut served: Vec<u64> = lines.iter().filter(|r| r.ok).map(|r| r.id).collect();
    served.sort_unstable();
    assert_eq!(served, [1, 2], "the neighbouring lines are answered");
    let _ = service.shutdown();
}

#[test]
fn utility_overflow_spec_is_a_per_line_error() {
    // Each peak is finite, but the sum overflows: the application is
    // rejected, and the neighbouring lines are still served.
    let mut service = single_worker_service(8);
    let input = concat!(
        "{\"id\": 1, \"preset\": {\"family\": \"fig9\", \"size\": 12, \"seed\": 5}}\n",
        "{\"id\": 2, \"spec\": \"period 100\\nprocess A soft 5 10 utility 1e308\\n",
        "process B soft 5 10 utility 1e308\\n\"}\n",
        "{\"id\": 3, \"preset\": {\"family\": \"fig9\", \"size\": 12, \"seed\": 5}}\n",
    );
    let mut output = Vec::new();
    let summary = transport::serve(&service, input.as_bytes(), &mut output).unwrap();
    assert_eq!((summary.accepted, summary.malformed), (3, 0));
    let lines: Vec<WireResponse> = String::from_utf8(output)
        .unwrap()
        .lines()
        .map(|l| serde_json::from_str(l).unwrap())
        .collect();
    assert_eq!(lines.len(), 3);
    let by_id = |id: u64| lines.iter().find(|r| r.id == id).unwrap();
    assert!(!by_id(2).ok && by_id(2).report.is_none());
    let error = by_id(2).error.as_deref().unwrap();
    assert!(error.contains("utility"), "{error}");
    assert!(
        by_id(1).ok && by_id(3).ok,
        "the neighbouring lines are served"
    );
    let _ = service.shutdown();
}

#[test]
fn megabyte_spec_line_parses_to_the_same_text() {
    // Parse cost is linear in the line length: a spec line of over 1 MiB
    // with multibyte comments between escapes parses in milliseconds (a
    // per-character re-validation of the rest of the line would take
    // minutes). The text must come back bit-identical.
    let base = ftqs_workloads::spec::render(&build(Family::Fig9, 40, 3));
    let mut spec = String::new();
    while spec.len() < (1 << 20) {
        spec.push_str(&base);
        spec.push_str("# naïve “quotes” \"≥\" \\ 𝄞\tend\n");
    }
    let line = serde_json::to_string(&serde::Value::Map(vec![
        ("id".to_string(), serde::Value::U64(9)),
        ("spec".to_string(), serde::Value::Str(spec.clone())),
    ]))
    .unwrap();
    assert!(line.len() >= 1 << 20);
    let request = transport::parse_request(&line).expect("a long line parses");
    assert_eq!(request.id, 9);
    match request.source {
        JobSource::Spec(text) => assert_eq!(text.as_bytes(), spec.as_bytes()),
        other => panic!("expected a spec source, got {other:?}"),
    }
}

#[test]
fn transport_parses_priority_and_deadline_fields() {
    let line = "{\"id\": 5, \"preset\": {\"family\": \"fig9\", \"size\": 10}, \
                \"priority\": \"interactive\", \"deadline_ms\": 250}";
    let request = transport::parse_request(line).expect("valid request");
    assert_eq!(request.priority, Priority::Interactive);
    assert_eq!(request.deadline, Some(Duration::from_millis(250)));

    let defaulted =
        transport::parse_request("{\"id\": 5, \"preset\": {\"family\": \"fig9\", \"size\": 10}}")
            .unwrap();
    assert_eq!(defaulted.priority, Priority::Bulk);
    assert_eq!(defaulted.deadline, None);

    let (_, err) = transport::parse_request(
        "{\"id\": 5, \"preset\": {\"family\": \"fig9\", \"size\": 10}, \"priority\": \"vip\"}",
    )
    .unwrap_err();
    assert!(err.contains("unknown priority"), "{err}");
}

#[test]
fn round_trip_of_generated_request_lines() {
    let line = transport::preset_request_line(
        42,
        "polar",
        14,
        7,
        "ftqs",
        6,
        Some("interactive"),
        Some(125),
    );
    let request = transport::parse_request(&line).expect("generated lines parse");
    assert_eq!(request.id, 42);
    match &request.source {
        JobSource::Preset { family, size, seed } => {
            assert_eq!(family, "polar");
            assert_eq!(*size, 14);
            assert_eq!(*seed, 7);
        }
        other => panic!("expected preset source, got {other:?}"),
    }
    assert_eq!(request.request, SynthesisRequest::ftqs(6));
    assert_eq!(request.priority, Priority::Interactive);
    assert_eq!(request.deadline, Some(Duration::from_millis(125)));

    // Omitted knobs stay off the wire and default on parse.
    let bare = transport::preset_request_line(1, "fig9", 10, 0, "ftss", 8, None, None);
    assert!(!bare.contains("priority") && !bare.contains("deadline_ms"));
    let parsed = transport::parse_request(&bare).unwrap();
    assert_eq!(parsed.priority, Priority::Bulk);
    assert_eq!(parsed.deadline, None);
}

#[test]
fn duplicate_heavy_stream_reports_a_high_hit_rate() {
    // 24 requests over 4 distinct applications: at most 4 misses once the
    // cache is warm, so the hit rate is at least 20/24.
    let mut service = single_worker_service(8);
    let requests = (0..24)
        .map(|i| preset(i, i % 4, SynthesisRequest::ftqs(4)))
        .collect();
    let responses = service.run_batch(requests);
    assert_eq!(responses.len(), 24);
    let stats = service.shutdown();
    assert_eq!(stats.cache.hits + stats.cache.misses, 24);
    assert_eq!(stats.cache.misses, 4);
    assert!(stats.cache.hit_rate() > 0.8);
}
