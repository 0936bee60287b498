//! Execution scenarios: sampled execution times plus a fault plan.
//!
//! The paper evaluates schedules over "20,000 different execution scenarios
//! for the case of no faults, 1, 2, and 3 faults", with process completion
//! times "uniformly distributed between the best-case execution time and
//! the worst-case execution time" (§6). An [`ExecutionScenario`] fixes one
//! such outcome: a duration for every potential execution attempt of every
//! process, and which attempts are hit by a transient fault.
//!
//! The same scenario is replayed against every scheduler under comparison,
//! so FTQS/FTSS/FTSF differences are never sampling noise.
//!
//! # Fault-model taxonomy
//!
//! The synthesis side assumes the paper's design contract: at most `k`
//! transient faults per cycle, independently placed, with every duration
//! inside `[bcet, wcet]` (`ftqs_core::FaultModel` carries that contract's
//! parameters `k` and µ). This module's [`FaultModel`] is the *environment*
//! side: the stochastic process that actually generates faults and
//! durations in a simulated cycle, which may or may not respect the
//! contract. Four families are provided:
//!
//! * [`FaultModel::Independent`] — the paper's model and the default.
//!   Durations integer-uniform in `[bcet, wcet]`, fault targets drawn
//!   uniformly with replacement. This variant is pinned **bit-identical**
//!   to the sampler every previous evaluation (fig9, Table 1) used: the
//!   same seed produces the same [`ExecutionScenario`], so Monte Carlo
//!   means are provably unchanged (see the `independent_model_is_bit_identical_to_legacy_sampler`
//!   test and the pinned goldens in `montecarlo`).
//! * [`FaultModel::Bursty`] — correlated faults: a materialized fault
//!   raises the near-term hazard. Modeled as the discrete analogue of a
//!   two-state (calm/burst) Markov process: after each fault the chain is
//!   in the burst state, where with probability `locality` the next fault
//!   strikes within `window` positions of the previous target (processes
//!   adjacent in the application are adjacent in schedule time), and with
//!   probability `1 - locality` the chain relaxes to the calm state's
//!   uniform draw.
//! * [`FaultModel::Intermittent`] — a struck process is likelier to fault
//!   again on re-execution (an intermittent physical cause rather than a
//!   one-shot transient): after each fault, with probability `reoccur` the
//!   next fault hits the *same* process's next attempt.
//! * [`FaultModel::WcetStress`] — an execution-time stressor: fault
//!   placement stays independent, but each attempt's duration exceeds the
//!   WCET with probability `overrun_prob` (uniform in
//!   `(wcet, overrun_factor · wcet]`), violating the analysis assumption
//!   that WCETs are safe bounds.
//!
//! # Out-of-model scenarios
//!
//! [`ScenarioSampler::sample`] accepts any `fault_count`, including counts
//! beyond the application's design budget `k`; attempt tables are sized to
//! the *planned fault load* (`max(k, fault_count) + 1` attempts), not to
//! `k + 1`. Reads past a process's attempt table saturate to a defined
//! outcome (the process's WCET, no fault) instead of panicking, so a
//! runtime that re-executes more often than the plan anticipated stays
//! total. The online scheduler reports how gracefully it degraded under
//! such scenarios via `DegradationVerdict` (see `crate::online`).

use ftqs_core::{Application, Time};
use ftqs_graph::NodeId;
use rand::Rng;
use std::sync::Arc;

/// A precomputed uniform integer range, drawn without hardware division.
///
/// The vendored `gen_range(lo..=hi)` computes `lo + next_u64() % width`
/// with a fresh 64-bit division per draw. Duration envelopes are fixed per
/// process, so the sampler precomputes `m = ceil(2^128 / width)` once and
/// evaluates the *same remainder* by Lemire's direct method (the
/// fractional part of `m·x`, scaled by `width`) — a handful of multiplies
/// replacing the division in the hottest loop of every Monte Carlo run.
/// Draws are bit-identical to `gen_range` by construction (see the
/// `fast_range_matches_gen_range_bit_for_bit` test).
#[derive(Debug, Clone, Copy)]
struct FastRange {
    /// Inclusive lower bound.
    lo: u64,
    /// Inclusive upper bound.
    hi: u64,
    /// `hi - lo + 1`; `0` encodes the degenerate full-u64 range.
    width: u64,
    /// `ceil(2^128 / width)`, wrapping (`0` when `width == 1`).
    magic: u128,
}

impl FastRange {
    /// Range of `gen_range(lo..=hi)`.
    fn inclusive(lo: u64, hi: u64) -> Self {
        debug_assert!(lo <= hi);
        let (width, magic) = match (hi - lo).checked_add(1) {
            Some(w) => (w, (u128::MAX / u128::from(w)).wrapping_add(1)),
            None => (0, 0),
        };
        FastRange {
            lo,
            hi,
            width,
            magic,
        }
    }

    /// Range of `gen_range(lo..hi)` (half-open).
    fn half_open(lo: u64, hi: u64) -> Self {
        debug_assert!(lo < hi);
        FastRange::inclusive(lo, hi - 1)
    }

    /// One draw, bit-identical to the `gen_range` this range mirrors.
    #[inline]
    fn draw<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        self.map(rng.next_u64())
    }

    /// Maps one raw generator output into the range: `draw` is
    /// `map(rng.next_u64())`, so a stored raw output maps to the exact
    /// value drawing it would have returned.
    #[inline]
    fn map(&self, x: u64) -> u64 {
        if self.width == 0 {
            return self.lo.wrapping_add(x);
        }
        // `x % width` as the high half of (frac(m·x / 2^128) · width).
        let lowbits = self.magic.wrapping_mul(u128::from(x));
        let top = (lowbits >> 64) * u128::from(self.width);
        let bot = ((lowbits & u128::from(u64::MAX)) * u128::from(self.width)) >> 64;
        self.lo + ((top + bot) >> 64) as u64
    }
}

/// The stochastic environment process generating faults and execution
/// times for sampled scenarios — see the module docs for the taxonomy.
///
/// Not to be confused with `ftqs_core::FaultModel`, which carries the
/// *design-side* contract (`k`, µ) the schedules were synthesized against;
/// this type describes what the environment actually does, which the
/// robustness harness deliberately pushes beyond that contract.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum FaultModel {
    /// The paper's independent-uniform model (the default) — bit-identical
    /// to the sampler used by every previous evaluation.
    #[default]
    Independent,
    /// Correlated/bursty faults (two-state Markov analogue): after a
    /// fault, with probability `locality` the next fault strikes within
    /// `window` process positions of the previous target.
    Bursty {
        /// Probability that the burst state persists (the next fault is
        /// local to the previous one). Clamped to `[0, 1]` at sampling
        /// time; `0.0` degenerates to [`FaultModel::Independent`]
        /// placement.
        locality: f64,
        /// Index half-width of the burst neighbourhood.
        window: usize,
    },
    /// Intermittent faults: after a fault, with probability `reoccur` the
    /// next fault hits the same process's next attempt (it faults again on
    /// re-execution).
    Intermittent {
        /// Probability a struck process is struck again by the next fault.
        /// Clamped to `[0, 1]` at sampling time; `0.0` degenerates to
        /// [`FaultModel::Independent`] placement.
        reoccur: f64,
    },
    /// Execution-time stressor: independent fault placement, but each
    /// attempt overruns its WCET with probability `overrun_prob`.
    WcetStress {
        /// Per-attempt probability of exceeding the WCET. Clamped to
        /// `[0, 1]` at sampling time.
        overrun_prob: f64,
        /// Upper bound of the overrun as a multiple of the WCET; overrun
        /// durations are uniform in `(wcet, overrun_factor · wcet]`
        /// (at least 1 ms beyond the WCET).
        overrun_factor: f64,
    },
}

/// Canonical preset names accepted by [`FaultModel::preset`], in display
/// order. `ftqs_workloads::presets::ROBUSTNESS_MODELS` mirrors this list
/// for the benchmark grid.
pub const FAULT_MODEL_NAMES: [&str; 4] = ["independent", "bursty", "intermittent", "wcet-stress"];

impl FaultModel {
    /// The canonical parameterization of the named model family, as swept
    /// by `bench_robustness` and the CLI `robustness` command. Returns
    /// `None` for unknown names (see [`FAULT_MODEL_NAMES`]).
    #[must_use]
    pub fn preset(name: &str) -> Option<FaultModel> {
        match name {
            "independent" => Some(FaultModel::Independent),
            "bursty" => Some(FaultModel::Bursty {
                locality: 0.75,
                window: 2,
            }),
            "intermittent" => Some(FaultModel::Intermittent { reoccur: 0.75 }),
            "wcet-stress" => Some(FaultModel::WcetStress {
                overrun_prob: 0.1,
                overrun_factor: 1.5,
            }),
            _ => None,
        }
    }

    /// The family name (the [`FAULT_MODEL_NAMES`] entry this model belongs
    /// to, independent of its parameters).
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            FaultModel::Independent => "independent",
            FaultModel::Bursty { .. } => "bursty",
            FaultModel::Intermittent { .. } => "intermittent",
            FaultModel::WcetStress { .. } => "wcet-stress",
        }
    }
}

/// One fully-determined execution outcome of the environment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecutionScenario {
    /// `durations[p][a]`: execution time of attempt `a` (0 = first run) of
    /// process `p`.
    durations: Vec<Vec<Time>>,
    /// `faulty[p][a]`: attempt `a` of process `p` is hit by a fault.
    faulty: Vec<Vec<bool>>,
    /// Saturation duration per process for attempts beyond the table (the
    /// WCET for sampled scenarios; the per-process table maximum for
    /// [`ExecutionScenario::from_tables`]).
    overflow_duration: Vec<Time>,
    /// Total faults planned (may exceed the application's `k` for
    /// out-of-model scenarios).
    fault_count: usize,
}

impl ExecutionScenario {
    /// Builds a scenario from explicit tables. Used by tests that need an
    /// exact outcome; simulations use [`ScenarioSampler`].
    ///
    /// Attempts beyond a process's table saturate to that process's
    /// maximum tabled duration with no fault (sampled scenarios saturate
    /// to the WCET; explicit tables have no application to read it from).
    ///
    /// # Panics
    ///
    /// Panics if table shapes disagree.
    #[must_use]
    pub fn from_tables(durations: Vec<Vec<Time>>, faulty: Vec<Vec<bool>>) -> Self {
        assert_eq!(durations.len(), faulty.len(), "table shapes must agree");
        for (d, f) in durations.iter().zip(&faulty) {
            assert_eq!(d.len(), f.len(), "attempt counts must agree");
        }
        let fault_count = faulty.iter().flatten().filter(|&&b| b).count();
        let overflow_duration = durations
            .iter()
            .map(|d| d.iter().copied().max().unwrap_or(Time::ZERO))
            .collect();
        ExecutionScenario {
            durations,
            faulty,
            overflow_duration,
            fault_count,
        }
    }

    /// A deterministic scenario: every attempt takes the process's AET and
    /// no faults occur. Useful as a baseline probe.
    #[must_use]
    pub fn average_case(app: &Application) -> Self {
        let attempts = app.faults().k + 1;
        let durations = app
            .processes()
            .map(|p| vec![app.process(p).times().aet(); attempts])
            .collect();
        let faulty = app.processes().map(|_| vec![false; attempts]).collect();
        let overflow_duration = app
            .processes()
            .map(|p| app.process(p).times().wcet())
            .collect();
        ExecutionScenario {
            durations,
            faulty,
            overflow_duration,
            fault_count: 0,
        }
    }

    /// Execution time of attempt `attempt` of `process`.
    ///
    /// Attempts beyond the planned table saturate to the process's
    /// worst-case duration (no `Vec` index panic), so a runtime driven
    /// past the planned fault load stays total.
    ///
    /// # Panics
    ///
    /// Panics if the process is out of range.
    #[must_use]
    pub fn duration(&self, process: NodeId, attempt: usize) -> Time {
        let row = &self.durations[process.index()];
        row.get(attempt)
            .copied()
            .unwrap_or(self.overflow_duration[process.index()])
    }

    /// Whether attempt `attempt` of `process` is hit by a fault. Attempts
    /// beyond the planned table saturate to `false` (no fault).
    ///
    /// # Panics
    ///
    /// Panics if the process is out of range.
    #[must_use]
    pub fn is_faulty(&self, process: NodeId, attempt: usize) -> bool {
        self.faulty[process.index()]
            .get(attempt)
            .copied()
            .unwrap_or(false)
    }

    /// Number of faults planned in this scenario.
    #[must_use]
    pub fn fault_count(&self) -> usize {
        self.fault_count
    }

    /// Number of attempt slots per process (`max(k, planned faults) + 1`
    /// for sampled scenarios).
    #[must_use]
    pub fn attempts(&self) -> usize {
        self.durations.first().map_or(0, Vec::len)
    }
}

/// Read access to one execution outcome, by process *index*.
///
/// The online runtimes are generic over this trait so the same scenario
/// loop runs against the boxed [`ExecutionScenario`] tables (tests,
/// hand-built outcomes) and the allocation-free [`FlatScenario`] buffer
/// (Monte Carlo batches). Reads beyond the attempt table must saturate to
/// a defined outcome (worst-case duration, no fault), never panic.
pub trait ScenarioView {
    /// Execution time of attempt `attempt` of the process at `process`
    /// (its node index). Saturates past the table.
    fn attempt_duration(&self, process: usize, attempt: usize) -> Time;
    /// Whether the attempt is hit by a fault. Saturates to `false`.
    fn attempt_faulty(&self, process: usize, attempt: usize) -> bool;
    /// Duration and fault flag of one attempt in a single call — the
    /// per-attempt read of the runtime hot loop. Implementors sharing an
    /// index computation between the two tables should override this.
    #[inline]
    fn attempt(&self, process: usize, attempt: usize) -> (Time, bool) {
        (
            self.attempt_duration(process, attempt),
            self.attempt_faulty(process, attempt),
        )
    }
}

impl ScenarioView for ExecutionScenario {
    #[inline]
    fn attempt_duration(&self, process: usize, attempt: usize) -> Time {
        self.duration(NodeId::from_index(process), attempt)
    }

    #[inline]
    fn attempt_faulty(&self, process: usize, attempt: usize) -> bool {
        self.is_faulty(NodeId::from_index(process), attempt)
    }
}

/// A reusable, flat scenario buffer for batched simulation.
///
/// Holds the same outcome as [`ExecutionScenario`], sampled lazily: a fill
/// ([`ScenarioSampler::sample_into`]) stores the *raw* generator output of
/// every attempt slot in a dense row-major array
/// (`process * attempts + attempt`), and a read maps the slot into the
/// process's `[bcet, wcet]` range. A cycle executes at most one attempt
/// per process plus one per fault, so most slots are never mapped. The
/// mapping is the arithmetic a direct draw uses, so every read is
/// bit-identical to the duration [`ScenarioSampler::sample`] draws from
/// the same stream. [`FaultModel::WcetStress`] draws a value-dependent
/// number of outputs per slot, so its fills store mapped durations.
///
/// Fault flags are not tabled: attempt `a` of process `p` is faulty iff
/// `a < hits[p]`, the number of faults planned on `p`. The per-process
/// ranges are the filling sampler's shared handle, replaced only when a
/// different sampler fills the buffer. One buffer per Monte Carlo worker
/// is refilled without allocating.
#[derive(Debug, Clone, Default)]
pub struct FlatScenario {
    attempts: usize,
    /// `slots[p * attempts + a]`: the raw generator output of that
    /// attempt, or its duration in ms when `mapped`.
    slots: Vec<u64>,
    /// Whether `slots` holds durations (a [`FaultModel::WcetStress`] fill).
    mapped: bool,
    /// Per-process duration ranges of the filling sampler. Each range's
    /// upper bound is the WCET, the saturation duration past the table.
    ranges: Arc<[FastRange]>,
    /// Faults planned per process.
    hits: Vec<usize>,
    fault_count: usize,
}

impl FlatScenario {
    /// An empty buffer; the first [`ScenarioSampler::sample_into`] sizes
    /// it.
    #[must_use]
    pub fn new() -> Self {
        FlatScenario::default()
    }

    /// Number of processes in the current fill.
    #[must_use]
    pub fn processes(&self) -> usize {
        self.ranges.len()
    }

    /// Number of attempt slots per process in the current fill.
    #[must_use]
    pub fn attempts(&self) -> usize {
        self.attempts
    }

    /// Number of faults planned in the current fill.
    #[must_use]
    pub fn fault_count(&self) -> usize {
        self.fault_count
    }
}

impl ScenarioView for FlatScenario {
    #[inline]
    fn attempt_duration(&self, process: usize, attempt: usize) -> Time {
        self.attempt(process, attempt).0
    }

    #[inline]
    fn attempt_faulty(&self, process: usize, attempt: usize) -> bool {
        // `hits[p] <= fault_count < attempts`, so reads past the table
        // saturate to no fault.
        attempt < self.hits[process]
    }

    #[inline]
    fn attempt(&self, process: usize, attempt: usize) -> (Time, bool) {
        let faulty = attempt < self.hits[process];
        let ms = if attempt < self.attempts {
            let slot = self.slots[process * self.attempts + attempt];
            if self.mapped {
                slot
            } else {
                self.ranges[process].map(slot)
            }
        } else {
            self.ranges[process].hi
        };
        (Time::from_ms(ms), faulty)
    }
}

/// Samples [`ExecutionScenario`]s for an application under a pluggable
/// [`FaultModel`].
///
/// Under the default [`FaultModel::Independent`], durations are
/// integer-uniform in `[bcet, wcet]` per attempt and faults are planned by
/// drawing `fault_count` target processes uniformly (with replacement); a
/// process drawn `c` times has its first `c` attempts faulty — so a
/// re-execution can fault again, as in the paper's Fig. 3 worst case. A
/// fault aimed at a process the scheduler never executes (dropped) does
/// not materialize; applying the identical plan to every scheduler keeps
/// comparisons fair. The other models perturb exactly one axis each (see
/// the [`FaultModel`] docs).
#[derive(Debug)]
pub struct ScenarioSampler<'a> {
    app: &'a Application,
    model: FaultModel,
    /// Per-process `[bcet, wcet]` duration ranges with precomputed
    /// division-free reciprocals, in process-index order. Shared with the
    /// [`FlatScenario`] buffers this sampler fills, which map their raw
    /// slots through it.
    ranges: Arc<[FastRange]>,
    /// The uniform fault-target range `0..n`.
    target: FastRange,
}

impl<'a> ScenarioSampler<'a> {
    /// Creates a sampler for `app` under the paper's independent-uniform
    /// model.
    #[must_use]
    pub fn new(app: &'a Application) -> Self {
        ScenarioSampler::with_model(app, FaultModel::Independent)
    }

    /// Creates a sampler for `app` under `model`.
    #[must_use]
    pub fn with_model(app: &'a Application, model: FaultModel) -> Self {
        let ranges = app
            .processes()
            .map(|p| {
                let t = app.process(p).times();
                FastRange::inclusive(t.bcet().as_ms(), t.wcet().as_ms())
            })
            .collect();
        ScenarioSampler {
            app,
            model,
            ranges,
            target: FastRange::half_open(0, app.len() as u64),
        }
    }

    /// The fault model this sampler draws from.
    #[must_use]
    pub fn model(&self) -> FaultModel {
        self.model
    }

    /// Samples one scenario with exactly `fault_count` planned faults.
    ///
    /// `fault_count` may exceed the application's design budget `k`
    /// (out-of-model injection); the attempt tables are sized to
    /// `max(k, fault_count) + 1` so every planned fault has a re-execution
    /// slot. For `fault_count <= k` under [`FaultModel::Independent`] the
    /// RNG draw sequence is bit-identical to the historical sampler.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R, fault_count: usize) -> ExecutionScenario {
        let attempts = self.app.faults().k.max(fault_count) + 1;
        self.sample_with_attempts(rng, fault_count, attempts)
    }

    /// [`ScenarioSampler::sample`] with an explicit attempt-table width:
    /// the boxed counterpart of [`ScenarioSampler::sample_into_with_attempts`].
    fn sample_with_attempts<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        fault_count: usize,
        attempts: usize,
    ) -> ExecutionScenario {
        let n = self.app.len();

        // Durations first (matching the historical draw order exactly).
        let mut durations = Vec::with_capacity(n);
        for fr in self.ranges.iter() {
            durations.push(
                (0..attempts)
                    .map(|_| self.draw_duration(rng, fr))
                    .collect::<Vec<Time>>(),
            );
        }

        // Fault placement: `fault_count` hits; a process hit `c` times has
        // its first `c` attempts faulty.
        let mut hits = vec![0usize; n];
        self.place_faults(rng, fault_count, &mut hits);
        let faulty = hits
            .iter()
            .map(|&c| (0..attempts).map(|a| a < c).collect())
            .collect();
        let overflow_duration = self.ranges.iter().map(|r| Time::from_ms(r.hi)).collect();
        ExecutionScenario {
            durations,
            faulty,
            overflow_duration,
            fault_count,
        }
    }

    /// The pre-optimization sampler, preserved verbatim as a measurement
    /// baseline (the same convention as `ftqs_core::oracle` on the
    /// synthesis side): durations drawn through the vendored `gen_range`
    /// (one hardware division per draw) into freshly boxed per-process
    /// `Vec`s, exactly as every evaluation before the flat runtime paid
    /// per scenario. `bench_runtime` times the tree-walk baseline through
    /// this path; results are identical to [`ScenarioSampler::sample`]
    /// (asserted by the `reference_sampler_matches_current` test).
    pub fn sample_reference<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        fault_count: usize,
    ) -> ExecutionScenario {
        let k = self.app.faults().k;
        let attempts = k.max(fault_count) + 1;
        let n = self.app.len();

        let mut durations = Vec::with_capacity(n);
        for p in self.app.processes() {
            let t = self.app.process(p).times();
            let (lo, hi) = (t.bcet().as_ms(), t.wcet().as_ms());
            durations.push(match self.model {
                FaultModel::WcetStress {
                    overrun_prob,
                    overrun_factor,
                } => (0..attempts)
                    .map(|_| {
                        let base = rng.gen_range(lo..=hi);
                        if rng.gen_bool(overrun_prob.clamp(0.0, 1.0)) {
                            let extra_max =
                                ((hi as f64 * (overrun_factor - 1.0)).ceil() as u64).max(1);
                            Time::from_ms(hi + rng.gen_range(1..=extra_max))
                        } else {
                            Time::from_ms(base)
                        }
                    })
                    .collect::<Vec<Time>>(),
                _ => (0..attempts)
                    .map(|_| Time::from_ms(rng.gen_range(lo..=hi)))
                    .collect::<Vec<Time>>(),
            });
        }

        let mut hits = vec![0usize; n];
        self.place_faults_reference(rng, fault_count, &mut hits);
        let faulty = hits
            .iter()
            .map(|&c| (0..attempts).map(|a| a < c).collect())
            .collect();
        let overflow_duration = self
            .app
            .processes()
            .map(|p| self.app.process(p).times().wcet())
            .collect();
        ExecutionScenario {
            durations,
            faulty,
            overflow_duration,
            fault_count,
        }
    }

    /// Fault placement of [`ScenarioSampler::sample_reference`]: the
    /// pre-optimization `gen_range` draws, preserved verbatim.
    fn place_faults_reference<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        fault_count: usize,
        hits: &mut [usize],
    ) {
        let n = hits.len();
        match self.model {
            FaultModel::Independent | FaultModel::WcetStress { .. } => {
                for _ in 0..fault_count {
                    hits[rng.gen_range(0..n)] += 1;
                }
            }
            FaultModel::Bursty { locality, window } => {
                let locality = locality.clamp(0.0, 1.0);
                let mut last: Option<usize> = None;
                for _ in 0..fault_count {
                    let target = match last {
                        Some(i) if rng.gen_bool(locality) => {
                            let lo = i.saturating_sub(window);
                            let hi = (i + window).min(n - 1);
                            rng.gen_range(lo..=hi)
                        }
                        _ => rng.gen_range(0..n),
                    };
                    hits[target] += 1;
                    last = Some(target);
                }
            }
            FaultModel::Intermittent { reoccur } => {
                let reoccur = reoccur.clamp(0.0, 1.0);
                let mut last: Option<usize> = None;
                for _ in 0..fault_count {
                    let target = match last {
                        Some(i) if rng.gen_bool(reoccur) => i,
                        _ => rng.gen_range(0..n),
                    };
                    hits[target] += 1;
                    last = Some(target);
                }
            }
        }
    }

    /// Refills `out` with one sampled scenario, allocating nothing after
    /// the first call on a given buffer.
    ///
    /// Consumes the *identical* RNG sequence as [`ScenarioSampler::sample`]
    /// with the same `fault_count` (attempt tables sized to
    /// `max(k, fault_count) + 1`), so a runtime reading the flat buffer
    /// sees bit-identical scenarios.
    pub fn sample_into<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        fault_count: usize,
        out: &mut FlatScenario,
    ) {
        let attempts = self.app.faults().k.max(fault_count) + 1;
        self.sample_into_with_attempts(rng, fault_count, attempts, out);
    }

    /// [`ScenarioSampler::sample_into`] with an explicit attempt-table
    /// width — the common-random-numbers hook for intensity sweeps.
    ///
    /// Holding `attempts` fixed at `max(k, max swept intensity) + 1`
    /// across a sweep makes every fault count consume the *same* duration
    /// draws from the same per-scenario stream, so sweep columns differ
    /// only in fault placement (common random numbers: column deltas are
    /// pure fault effects, not sampling noise). With
    /// `attempts == max(k, fault_count) + 1` the draw sequence is
    /// bit-identical to [`ScenarioSampler::sample`] — which is why an
    /// in-model sweep (all intensities `<= k`) is unchanged by CRN: every
    /// column already uses `k + 1` attempts.
    ///
    /// The fill consumes one generator output per attempt slot, in the
    /// process-major order `sample` draws durations in, and stores it
    /// unmapped; the buffer maps a slot only when the runtime reads it
    /// (see [`FlatScenario`]). [`FaultModel::WcetStress`] slots are
    /// mapped here, since an overrun draws a further output. The fault
    /// plan follows, as in `sample`.
    ///
    /// # Panics
    ///
    /// Panics if `attempts < max(k, fault_count) + 1` (a planned fault
    /// would have no re-execution slot).
    pub fn sample_into_with_attempts<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        fault_count: usize,
        attempts: usize,
        out: &mut FlatScenario,
    ) {
        let k = self.app.faults().k;
        assert!(
            attempts > k.max(fault_count),
            "attempt table too narrow: {attempts} slots for k = {k}, {fault_count} faults"
        );
        let n = self.app.len();

        out.attempts = attempts;
        out.fault_count = fault_count;
        if !Arc::ptr_eq(&out.ranges, &self.ranges) {
            out.ranges = Arc::clone(&self.ranges);
        }
        out.slots.resize(n * attempts, 0);

        // Durations first, process-major — the same draw order as
        // `sample`.
        out.mapped = matches!(self.model, FaultModel::WcetStress { .. });
        if out.mapped {
            for (slots, fr) in out.slots.chunks_exact_mut(attempts).zip(self.ranges.iter()) {
                for slot in slots {
                    *slot = self.draw_duration(rng, fr).as_ms();
                }
            }
        } else {
            for slot in &mut out.slots {
                *slot = rng.next_u64();
            }
        }

        // Then fault placement. Steady-state refills overwrite in place.
        if out.hits.len() == n {
            out.hits.fill(0);
        } else {
            out.hits.clear();
            out.hits.resize(n, 0);
        }
        self.place_faults(rng, fault_count, &mut out.hits);
    }

    /// One attempt-duration draw under this sampler's model. Factored out
    /// so `sample` and `sample_into*` provably consume identical RNG
    /// sequences.
    #[inline]
    fn draw_duration<R: Rng + ?Sized>(&self, rng: &mut R, fr: &FastRange) -> Time {
        match self.model {
            FaultModel::WcetStress {
                overrun_prob,
                overrun_factor,
            } => {
                let base = fr.draw(rng);
                if rng.gen_bool(overrun_prob.clamp(0.0, 1.0)) {
                    // Uniform in (wcet, factor * wcet], at least 1 ms
                    // beyond the WCET even for tiny WCETs.
                    let extra_max = ((fr.hi as f64 * (overrun_factor - 1.0)).ceil() as u64).max(1);
                    Time::from_ms(fr.hi + rng.gen_range(1..=extra_max))
                } else {
                    Time::from_ms(base)
                }
            }
            _ => Time::from_ms(fr.draw(rng)),
        }
    }

    /// Draws the fault plan: `fault_count` hits over `hits` (zeroed by the
    /// caller). Shared by `sample` and `sample_into*`.
    fn place_faults<R: Rng + ?Sized>(&self, rng: &mut R, fault_count: usize, hits: &mut [usize]) {
        let n = hits.len();
        match self.model {
            FaultModel::Independent | FaultModel::WcetStress { .. } => {
                for _ in 0..fault_count {
                    hits[self.target.draw(rng) as usize] += 1;
                }
            }
            FaultModel::Bursty { locality, window } => {
                let locality = locality.clamp(0.0, 1.0);
                let mut last: Option<usize> = None;
                for _ in 0..fault_count {
                    let target = match last {
                        Some(i) if rng.gen_bool(locality) => {
                            let lo = i.saturating_sub(window);
                            let hi = (i + window).min(n - 1);
                            rng.gen_range(lo..=hi)
                        }
                        _ => self.target.draw(rng) as usize,
                    };
                    hits[target] += 1;
                    last = Some(target);
                }
            }
            FaultModel::Intermittent { reoccur } => {
                let reoccur = reoccur.clamp(0.0, 1.0);
                let mut last: Option<usize> = None;
                for _ in 0..fault_count {
                    let target = match last {
                        Some(i) if rng.gen_bool(reoccur) => i,
                        _ => self.target.draw(rng) as usize,
                    };
                    hits[target] += 1;
                    last = Some(target);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftqs_core::{ExecutionTimes, FaultModel as DesignFaults, UtilityFunction};
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    fn t(ms: u64) -> Time {
        Time::from_ms(ms)
    }

    fn app() -> Application {
        let mut b = Application::builder(t(1000), DesignFaults::new(2, t(5)));
        let et = ExecutionTimes::uniform(t(10), t(50)).unwrap();
        let a = b.add_hard("H", et, t(900));
        let s = b.add_soft("S", et, UtilityFunction::constant(10.0).unwrap());
        b.add_dependency(a, s).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn average_case_scenario_uses_aet_everywhere() {
        let app = app();
        let sc = ExecutionScenario::average_case(&app);
        assert_eq!(sc.fault_count(), 0);
        assert_eq!(sc.attempts(), 3);
        for p in app.processes() {
            for a in 0..3 {
                assert_eq!(sc.duration(p, a), t(30));
                assert!(!sc.is_faulty(p, a));
            }
        }
    }

    #[test]
    fn sampled_durations_stay_in_envelope() {
        let app = app();
        let sampler = ScenarioSampler::new(&app);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..200 {
            let sc = sampler.sample(&mut rng, 2);
            for p in app.processes() {
                for a in 0..sc.attempts() {
                    let d = sc.duration(p, a);
                    assert!(d >= t(10) && d <= t(50));
                }
            }
        }
    }

    #[test]
    fn fault_plan_places_exact_count() {
        let app = app();
        let sampler = ScenarioSampler::new(&app);
        let mut rng = StdRng::seed_from_u64(2);
        for f in 0..=2 {
            let sc = sampler.sample(&mut rng, f);
            assert_eq!(sc.fault_count(), f);
            let planned: usize = app
                .processes()
                .map(|p| (0..sc.attempts()).filter(|&a| sc.is_faulty(p, a)).count())
                .sum();
            assert_eq!(planned, f);
        }
    }

    #[test]
    fn repeated_hits_fault_consecutive_attempts() {
        let app = app();
        let sampler = ScenarioSampler::new(&app);
        let mut rng = StdRng::seed_from_u64(3);
        // With 2 faults on a 2-process app, some scenario will double-hit.
        let mut saw_double = false;
        for _ in 0..100 {
            let sc = sampler.sample(&mut rng, 2);
            for p in app.processes() {
                if sc.is_faulty(p, 1) {
                    assert!(sc.is_faulty(p, 0), "faults hit earliest attempts first");
                    saw_double = true;
                }
            }
        }
        assert!(saw_double);
    }

    #[test]
    fn oversized_fault_count_sizes_attempt_tables_to_the_load() {
        // Out-of-model injection: 5 planned faults against a budget of
        // k = 2 used to panic; now the table grows to fit the plan.
        let app = app();
        let sampler = ScenarioSampler::new(&app);
        let mut rng = StdRng::seed_from_u64(4);
        let sc = sampler.sample(&mut rng, 5);
        assert_eq!(sc.fault_count(), 5);
        assert_eq!(sc.attempts(), 6, "max(k, faults) + 1 attempt slots");
        let planned: usize = app
            .processes()
            .map(|p| (0..sc.attempts()).filter(|&a| sc.is_faulty(p, a)).count())
            .sum();
        assert_eq!(planned, 5);
    }

    #[test]
    fn attempt_overflow_saturates_to_wcet_and_no_fault() {
        // The latent index-panic path: reads past the attempt table return
        // (WCET, no fault) instead of panicking.
        let app = app();
        let sampler = ScenarioSampler::new(&app);
        let mut rng = StdRng::seed_from_u64(5);
        let sc = sampler.sample(&mut rng, 2);
        let p = app.processes().next().unwrap();
        for overflow in [sc.attempts(), sc.attempts() + 1, 100] {
            assert_eq!(sc.duration(p, overflow), t(50), "saturates to WCET");
            assert!(!sc.is_faulty(p, overflow), "saturates to no fault");
        }
        // Explicit tables saturate to their per-process maximum.
        let manual = ExecutionScenario::from_tables(
            vec![vec![t(5), t(9)], vec![t(7)]],
            vec![vec![true, false], vec![false]],
        );
        assert_eq!(manual.duration(NodeId::from_index(0), 7), t(9));
        assert_eq!(manual.duration(NodeId::from_index(1), 7), t(7));
        assert!(!manual.is_faulty(NodeId::from_index(0), 7));
    }

    #[test]
    fn from_tables_counts_faults() {
        let sc = ExecutionScenario::from_tables(
            vec![vec![t(5), t(5)], vec![t(7), t(7)]],
            vec![vec![true, false], vec![false, false]],
        );
        assert_eq!(sc.fault_count(), 1);
        assert!(sc.is_faulty(NodeId::from_index(0), 0));
        assert_eq!(sc.duration(NodeId::from_index(1), 1), t(7));
    }

    #[test]
    fn seeded_sampling_is_deterministic() {
        let app = app();
        let sampler = ScenarioSampler::new(&app);
        let a = sampler.sample(&mut StdRng::seed_from_u64(9), 1);
        let b = sampler.sample(&mut StdRng::seed_from_u64(9), 1);
        assert_eq!(a, b);
    }

    #[test]
    fn all_models_are_deterministic_and_place_exact_counts() {
        let app = app();
        for name in FAULT_MODEL_NAMES {
            let model = FaultModel::preset(name).unwrap();
            assert_eq!(model.name(), name);
            let sampler = ScenarioSampler::with_model(&app, model);
            for f in [0usize, 1, 2, 4] {
                let a = sampler.sample(&mut StdRng::seed_from_u64(31), f);
                let b = sampler.sample(&mut StdRng::seed_from_u64(31), f);
                assert_eq!(a, b, "{name} not deterministic");
                assert_eq!(a.fault_count(), f);
                let planned: usize = app
                    .processes()
                    .map(|p| (0..a.attempts()).filter(|&x| a.is_faulty(p, x)).count())
                    .sum();
                assert_eq!(planned, f, "{name} planned {planned} != {f}");
            }
        }
    }

    #[test]
    fn zero_parameter_models_degenerate_to_independent_placement() {
        // locality/reoccur of 0 consume the same RNG draws as the
        // independent placement (one gen_bool per post-first fault is the
        // only difference, so we compare fault sets structurally instead:
        // every draw falls back to the uniform branch).
        let app = app();
        for model in [
            FaultModel::Bursty {
                locality: 0.0,
                window: 1,
            },
            FaultModel::Intermittent { reoccur: 0.0 },
        ] {
            let sampler = ScenarioSampler::with_model(&app, model);
            let mut rng = StdRng::seed_from_u64(77);
            let sc = sampler.sample(&mut rng, 3);
            assert_eq!(sc.fault_count(), 3);
        }
    }

    #[test]
    fn intermittent_reoccurrence_concentrates_hits() {
        // With reoccur = 1.0 every fault after the first hits the same
        // process: one process carries all faults on consecutive attempts.
        let app = app();
        let sampler = ScenarioSampler::with_model(&app, FaultModel::Intermittent { reoccur: 1.0 });
        let mut rng = StdRng::seed_from_u64(11);
        let sc = sampler.sample(&mut rng, 4);
        let per_process: Vec<usize> = app
            .processes()
            .map(|p| (0..sc.attempts()).filter(|&a| sc.is_faulty(p, a)).count())
            .collect();
        assert!(
            per_process.contains(&4),
            "all hits on one process: {per_process:?}"
        );
    }

    #[test]
    fn bursty_with_full_locality_stays_in_window() {
        // 6-process chain app so the window constraint is observable.
        let mut b = Application::builder(t(5000), DesignFaults::new(2, t(5)));
        let et = ExecutionTimes::uniform(t(10), t(20)).unwrap();
        for i in 0..6 {
            b.add_soft(format!("S{i}"), et, UtilityFunction::constant(1.0).unwrap());
        }
        let app = b.build().unwrap();
        let model = FaultModel::Bursty {
            locality: 1.0,
            window: 1,
        };
        let sampler = ScenarioSampler::with_model(&app, model);
        let mut rng = StdRng::seed_from_u64(13);
        for _ in 0..50 {
            let sc = sampler.sample(&mut rng, 4);
            let hit: Vec<usize> = app
                .processes()
                .filter(|&p| sc.is_faulty(p, 0))
                .map(NodeId::index)
                .collect();
            // All struck processes lie within a contiguous band of width
            // <= 1 + number of steps the walk can drift; with window 1 and
            // 4 faults the extreme spread is 3.
            if let (Some(&lo), Some(&hi)) = (hit.iter().min(), hit.iter().max()) {
                assert!(hi - lo <= 3, "burst spread {hit:?}");
            }
        }
    }

    #[test]
    fn wcet_stress_overruns_and_only_overruns_beyond_wcet() {
        let app = app();
        let model = FaultModel::WcetStress {
            overrun_prob: 0.5,
            overrun_factor: 1.5,
        };
        let sampler = ScenarioSampler::with_model(&app, model);
        let mut rng = StdRng::seed_from_u64(17);
        let mut overruns = 0usize;
        let mut total = 0usize;
        for _ in 0..200 {
            let sc = sampler.sample(&mut rng, 1);
            for p in app.processes() {
                for a in 0..sc.attempts() {
                    let d = sc.duration(p, a);
                    total += 1;
                    if d > t(50) {
                        overruns += 1;
                        assert!(d <= t(75), "overrun capped at factor * wcet, got {d}");
                    } else {
                        assert!(d >= t(10));
                    }
                }
            }
        }
        let rate = overruns as f64 / total as f64;
        assert!(
            (0.35..0.65).contains(&rate),
            "overrun rate {rate} far from configured 0.5"
        );
    }

    #[test]
    fn reference_sampler_matches_current() {
        // The preserved baseline and the optimized path must draw the
        // same scenarios from the same streams, for every model.
        let app = app();
        for name in FAULT_MODEL_NAMES {
            let sampler = ScenarioSampler::with_model(&app, FaultModel::preset(name).unwrap());
            for f in [0usize, 1, 2, 5] {
                let a = sampler.sample_reference(&mut StdRng::seed_from_u64(0xCAFE + f as u64), f);
                let b = sampler.sample(&mut StdRng::seed_from_u64(0xCAFE + f as u64), f);
                assert_eq!(a, b, "{name} f={f}");
            }
        }
    }

    #[test]
    fn lazy_flat_reads_match_the_boxed_scenario() {
        // Every read of a lazily filled buffer, saturation past the table
        // included, must equal the boxed scenario drawn from the same
        // stream. One buffer serves every fill: the apps alternate inside
        // the model loop, and two consecutive ones share a size, so a
        // range table kept from an earlier sampler would show.
        use ftqs_workloads::{family, Family};
        let apps: Vec<Application> = [5usize, 20, 20, 10, 40]
            .iter()
            .enumerate()
            .map(|(i, &size)| family::build(Family::Fig9, size, 0x1A2E + i as u64))
            .collect();
        let mut flat = FlatScenario::new();
        for name in FAULT_MODEL_NAMES {
            let model = FaultModel::preset(name).unwrap();
            for (i, app) in apps.iter().enumerate() {
                let sampler = ScenarioSampler::with_model(app, model);
                let k = app.faults().k;
                for f in 0..=2 * k {
                    // The plan's own width, and the CRN width of a 0..=2k
                    // sweep for the in-model columns.
                    let crn = (f <= k).then_some(2 * k + 1);
                    for attempts in std::iter::once(k.max(f) + 1).chain(crn) {
                        let seed = 0x5EED ^ ((i as u64) << 8) ^ ((f as u64) << 16);
                        let mut boxed_rng = StdRng::seed_from_u64(seed);
                        let boxed = sampler.sample_with_attempts(&mut boxed_rng, f, attempts);
                        if attempts == k.max(f) + 1 {
                            assert_eq!(boxed, sampler.sample(&mut StdRng::seed_from_u64(seed), f));
                        }
                        let mut rng = StdRng::seed_from_u64(seed);
                        sampler.sample_into_with_attempts(&mut rng, f, attempts, &mut flat);
                        // Both fills consumed the same stream.
                        assert_eq!(rng.next_u64(), boxed_rng.next_u64());
                        assert_eq!(flat.processes(), app.len());
                        assert_eq!(flat.attempts(), attempts);
                        assert_eq!(flat.fault_count(), f);
                        for p in 0..app.len() {
                            for a in 0..attempts + 2 {
                                let want = boxed.attempt(p, a);
                                let ctx =
                                    format!("{name} app {i} f={f} width {attempts} p={p} a={a}");
                                assert_eq!(flat.attempt(p, a), want, "{ctx}");
                                assert_eq!(flat.attempt_duration(p, a), want.0, "{ctx}");
                                assert_eq!(flat.attempt_faulty(p, a), want.1, "{ctx}");
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn fast_range_matches_gen_range_bit_for_bit() {
        // The division-free draw must reproduce the vendored `gen_range`
        // exactly for every envelope shape: degenerate points, powers of
        // two, odd widths, huge and full-u64 ranges.
        let cases: [(u64, u64); 8] = [
            (5, 5),
            (0, 1),
            (10, 50),
            (7, 7 + 63),
            (1, 1_000_000),
            (0, u64::MAX - 1),
            (3, u64::MAX),
            (0, u64::MAX),
        ];
        for (lo, hi) in cases {
            let fr = FastRange::inclusive(lo, hi);
            let mut a = StdRng::seed_from_u64(lo ^ hi.rotate_left(17) ^ 0xFA57);
            let mut b = a.clone();
            for _ in 0..200 {
                assert_eq!(
                    fr.draw(&mut a),
                    b.gen_range(lo..=hi),
                    "draw diverged for [{lo}, {hi}]"
                );
            }
        }
        // Random envelopes of every bit width.
        let mut shapes = StdRng::seed_from_u64(0x5A9E);
        for _ in 0..2000 {
            let lo = shapes.next_u64() >> shapes.gen_range(0..64u64);
            let hi = lo.saturating_add(shapes.next_u64() >> shapes.gen_range(0..64u64));
            let fr = FastRange::inclusive(lo, hi);
            let mut a = StdRng::seed_from_u64(lo ^ hi);
            let mut b = a.clone();
            for _ in 0..20 {
                assert_eq!(fr.draw(&mut a), b.gen_range(lo..=hi), "[{lo}, {hi}]");
            }
        }
        // Half-open construction mirrors `gen_range(lo..hi)`.
        let fr = FastRange::half_open(0, 17);
        let mut a = StdRng::seed_from_u64(99);
        let mut b = a.clone();
        for _ in 0..200 {
            assert_eq!(fr.draw(&mut a), b.gen_range(0..17u64));
        }
    }

    #[test]
    fn preset_roundtrip_and_unknown_names() {
        for name in FAULT_MODEL_NAMES {
            assert_eq!(FaultModel::preset(name).unwrap().name(), name);
        }
        assert!(FaultModel::preset("gaussian").is_none());
    }
}
