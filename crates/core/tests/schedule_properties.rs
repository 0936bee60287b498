//! Property-style tests over randomly generated applications: every
//! schedule FTSS/FTSF emits and every tree FTQS emits must satisfy the
//! structural and timing invariants of `ftqs_core::validate`, and the
//! analyses must behave monotonically. Cases are generated from explicit
//! seeds (no proptest in this environment); a failing seed reproduces the
//! case exactly.

use ftqs_core::validate::{validate_schedule, validate_tree};
use ftqs_core::wcdelay::{worst_case_fault_delay, SlackItem};
use ftqs_core::{
    Application, Engine, ExecutionTimes, FaultModel, SynthesisRequest, Time, UtilityFunction,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A small random application with mixed criticality. Mirrors the ranges
/// of the original proptest strategy; returns `None` when the drawn
/// parameters do not assemble (rare).
fn random_application(seed: u64) -> Option<Application> {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = rng.gen_range(2usize..9);
    let k = rng.gen_range(1usize..=3);
    let mu = rng.gen_range(0u64..=10);
    let mut b = Application::builder(Time::from_ms(2_000), FaultModel::new(k, Time::from_ms(mu)));
    let mut ids = Vec::new();
    for i in 0..n {
        let wcet = rng.gen_range(1u64..=40) + 10;
        let bcet = rng.gen_range(0u64..=30).min(wcet);
        let hard = rng.gen::<bool>();
        let peak = rng.gen_range(5f64..80.0);
        let ttl = rng.gen_range(20u64..200);
        let et = ExecutionTimes::uniform(Time::from_ms(bcet), Time::from_ms(wcet)).ok()?;
        let id = if hard {
            b.add_hard(format!("P{i}"), et, Time::from_ms(1_200 + ttl * 4))
        } else {
            let u = UtilityFunction::step(
                peak,
                [
                    (Time::from_ms(ttl * 3), peak / 2.0),
                    (Time::from_ms(ttl * 6), 0.0),
                ],
            )
            .ok()?;
            b.add_soft(format!("P{i}"), et, u)
        };
        ids.push(id);
    }
    let edges = rng.gen_range(0usize..12);
    for _ in 0..edges {
        let i = rng.gen_range(0..n);
        let j = rng.gen_range(0..n);
        if i < j {
            let _ = b.add_dependency(ids[i], ids[j]);
        }
    }
    b.build().ok()
}

const CASES: u64 = 64;

/// One session serves every seed of a test — exactly the batch-reuse the
/// `Session` API exists for.
fn session() -> ftqs_core::Session {
    Engine::new().session()
}

#[test]
fn ftss_schedules_always_validate() {
    let mut session = session();
    for seed in 0..CASES {
        let Some(app) = random_application(seed) else {
            continue;
        };
        if let Ok(r) = session.synthesize(&app, &SynthesisRequest::ftss()) {
            let s = r.root_schedule();
            assert!(
                validate_schedule(&app, s).is_ok(),
                "seed {seed}: {:?}",
                validate_schedule(&app, s)
            );
        }
    }
}

#[test]
fn ftsf_schedules_always_validate() {
    let mut session = session();
    for seed in 0..CASES {
        let Some(app) = random_application(seed) else {
            continue;
        };
        if let Ok(r) = session.synthesize(&app, &SynthesisRequest::ftsf()) {
            let s = r.root_schedule();
            assert!(
                validate_schedule(&app, s).is_ok(),
                "seed {seed}: {:?}",
                validate_schedule(&app, s)
            );
        }
    }
}

#[test]
fn ftqs_trees_always_validate() {
    let mut session = session();
    for seed in 0..CASES {
        let Some(app) = random_application(seed) else {
            continue;
        };
        for budget in [4, 6] {
            if let Ok(r) = session.synthesize(&app, &SynthesisRequest::ftqs(budget)) {
                assert!(
                    validate_tree(&app, &r.tree).is_ok(),
                    "seed {seed} budget {budget}: {:?}",
                    validate_tree(&app, &r.tree)
                );
            }
        }
    }
}

#[test]
fn worst_completion_monotone_in_position() {
    let mut session = session();
    for seed in 0..CASES {
        let Some(app) = random_application(seed) else {
            continue;
        };
        if let Ok(r) = session.synthesize(&app, &SynthesisRequest::ftss()) {
            let s = r.root_schedule();
            let a = s.analyze(&app);
            for pos in 1..s.entries().len() {
                assert!(
                    a.worst_completion(pos) >= a.worst_completion(pos - 1),
                    "seed {seed}"
                );
                assert!(
                    a.nominal_completion(pos) > a.nominal_completion(pos - 1),
                    "seed {seed}"
                );
                assert!(
                    a.worst_completion(pos) >= a.nominal_completion(pos),
                    "seed {seed}"
                );
            }
        }
    }
}

#[test]
fn hard_safe_start_monotone_in_remaining_faults() {
    let mut session = session();
    for seed in 0..CASES {
        let Some(app) = random_application(seed) else {
            continue;
        };
        if let Ok(r) = session.synthesize(&app, &SynthesisRequest::ftss()) {
            let s = r.root_schedule();
            let a = s.analyze(&app);
            let k = app.faults().k;
            for pos in 0..s.entries().len() {
                for r in 1..=k {
                    // More remaining faults never extend the latest start.
                    assert!(
                        a.hard_safe_start(pos, r) <= a.hard_safe_start(pos, r - 1),
                        "seed {seed}"
                    );
                }
            }
        }
    }
}

#[test]
fn fault_delay_is_subadditive_in_budget_split() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0xDE1A ^ seed);
        let count = rng.gen_range(1usize..10);
        let items: Vec<SlackItem> = (0..count)
            .map(|_| {
                SlackItem::new(
                    Time::from_ms(rng.gen_range(1u64..200)),
                    rng.gen_range(0usize..4),
                )
            })
            .collect();
        let k1 = rng.gen_range(0usize..4);
        let k2 = rng.gen_range(0usize..4);
        let whole = worst_case_fault_delay(&items, k1 + k2);
        let split = worst_case_fault_delay(&items, k1) + worst_case_fault_delay(&items, k2);
        // Greedy on sorted penalties: taking k1+k2 at once is never more
        // than taking k1 and k2 separately (the separate runs may re-use
        // the same top penalties).
        assert!(whole <= split, "seed {seed}");
    }
}
