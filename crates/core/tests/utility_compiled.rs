//! Property tests for the compiled utility representation: for every
//! shape — constant, step, linear, their `shifted` translations, and the
//! degenerate single-point/single-step/adjacent-ms cases —
//! [`CompiledUtility::value`] must be **bit-identical** to the
//! interpreted [`UtilityFunction::value`] on dense integer grids, and the
//! batched [`CompiledUtility::accumulate_shifted`] fill must reproduce the
//! per-sample scalar evaluation exactly. Cases are generated from
//! explicit seeds (no proptest in this environment); a failing seed
//! reproduces the case.

use ftqs_core::{CompiledUtility, Time, UtilityFunction};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn t(ms: u64) -> Time {
    Time::from_ms(ms)
}

/// A random validated utility function plus the dense-grid horizon that
/// covers all its breakpoints with slack on both sides.
fn random_function(seed: u64) -> (UtilityFunction, u64) {
    let mut rng = StdRng::seed_from_u64(0xC0DE ^ seed.wrapping_mul(0x9E37_79B9));
    let shape = rng.gen_range(0u32..4);
    let peak = rng.gen_range(0.0f64..100.0);
    let (f, horizon) = match shape {
        0 => (UtilityFunction::constant(peak).unwrap(), 50),
        1 => {
            // Step: 1..6 strictly increasing breakpoints, non-increasing
            // values, sometimes ending at zero.
            let n = rng.gen_range(1usize..=6);
            let mut time = 0u64;
            let mut value = peak;
            let mut steps = Vec::new();
            for i in 0..n {
                time += rng.gen_range(1u64..=40);
                value *= rng.gen_range(0.0f64..=1.0);
                if i == n - 1 && rng.gen_bool(0.5) {
                    value = 0.0;
                }
                steps.push((t(time), value));
            }
            (UtilityFunction::step(peak, steps).unwrap(), time + 30)
        }
        2 => {
            // Linear: 1..6 strictly increasing points (1 exercises the
            // degenerate constant case), consecutive-ms gaps allowed.
            let n = rng.gen_range(1usize..=6);
            let mut time = rng.gen_range(0u64..10);
            let mut value = peak;
            let mut points = vec![(t(time), value)];
            for _ in 1..n {
                time += rng.gen_range(1u64..=30);
                value *= rng.gen_range(0.0f64..=1.0);
                points.push((t(time), value));
            }
            (UtilityFunction::linear(points).unwrap(), time + 30)
        }
        _ => {
            let hold = rng.gen_range(0u64..60);
            let zero = hold + rng.gen_range(1u64..=60);
            (
                UtilityFunction::ramp(peak, t(hold), t(zero)).unwrap(),
                zero + 30,
            )
        }
    };
    if rng.gen_bool(0.4) {
        let offset = rng.gen_range(1u64..=50);
        (f.shifted(t(offset)), horizon + offset)
    } else {
        (f, horizon)
    }
}

const CASES: u64 = 300;

#[test]
fn compiled_value_is_bit_identical_on_dense_grids() {
    for seed in 0..CASES {
        let (f, horizon) = random_function(seed);
        let c = f.compiled();
        for ms in 0..=horizon {
            let scalar = f.value(t(ms));
            let compiled = c.value(t(ms));
            assert_eq!(
                scalar.to_bits(),
                compiled.to_bits(),
                "seed {seed} t {ms}: scalar {scalar} vs compiled {compiled}"
            );
        }
        // Far past every breakpoint too.
        for ms in [horizon * 2, horizon * 10 + 7, 1_000_000_007] {
            assert_eq!(
                f.value(t(ms)).to_bits(),
                c.value(t(ms)).to_bits(),
                "seed {seed}"
            );
        }
    }
}

#[test]
fn accumulate_shifted_matches_scalar_accumulation() {
    for seed in 0..CASES {
        let (f, horizon) = random_function(seed);
        let c = f.compiled();
        let mut rng = StdRng::seed_from_u64(0xACC0 ^ seed);
        for _ in 0..4 {
            // An ascending, non-uniform grid (duplicates allowed).
            let n = rng.gen_range(1usize..=60);
            let mut grid = Vec::with_capacity(n);
            let mut cur = rng.gen_range(0..=horizon / 2);
            for _ in 0..n {
                grid.push(cur);
                cur += rng.gen_range(0u64..=9);
            }
            let offset = rng.gen_range(0u64..=horizon);
            let scale = rng.gen_range(0.0f64..=1.5);
            let seedvals: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0f64..10.0)).collect();
            let mut acc = seedvals.clone();
            c.accumulate_shifted(&grid, offset, scale, &mut acc);
            for i in 0..n {
                let want = seedvals[i] + scale * f.value(t(grid[i] + offset));
                assert_eq!(
                    want.to_bits(),
                    acc[i].to_bits(),
                    "seed {seed} i {i}: scalar {want} vs batched {}",
                    acc[i]
                );
            }
        }
    }
}

#[test]
fn adjacent_millisecond_linear_points_stay_exact() {
    // The compiled form ends the last interpolating slot one integer ms
    // before the last point; with adjacent-ms points that slot collapses
    // to empty and the clamp must take over exactly at the point.
    let f = UtilityFunction::linear([(t(10), 5.0), (t(11), 0.0)]).unwrap();
    let c = f.compiled();
    for ms in 0..=20 {
        assert_eq!(f.value(t(ms)).to_bits(), c.value(t(ms)).to_bits(), "t {ms}");
    }
    // Paper Fig. 2a shapes and the boundary-inclusive step semantics.
    let s = UtilityFunction::step(40.0, [(t(40), 20.0), (t(100), 0.0)]).unwrap();
    let cs = s.compiled();
    assert_eq!(cs.value(t(40)), 40.0, "value holds through the breakpoint");
    assert_eq!(cs.value(t(41)), 20.0);
    assert_eq!(cs.value(t(100)), 20.0);
    assert_eq!(cs.value(t(101)), 0.0);
    // Degenerate single-point linear is a constant.
    let p = UtilityFunction::linear([(t(30), 7.5)]).unwrap();
    let cp = p.compiled();
    for ms in [0, 29, 30, 31, 500] {
        assert_eq!(cp.value(t(ms)), 7.5, "t {ms}");
    }
    // A compiled clone compares equal (SoA tables are plain data).
    assert_eq!(cp, CompiledUtility::new(&p));
}
