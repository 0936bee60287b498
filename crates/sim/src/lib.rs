//! # ftqs-sim — online scheduler runtime and Monte Carlo evaluation
//!
//! This crate is the *execution* side of the DATE 2008 reproduction: given
//! the schedules synthesized by `ftqs-core`, it simulates operation cycles
//! of the application — actual execution times, transient faults with
//! recovery, runtime dropping of soft processes, and quasi-static schedule
//! switching — and aggregates utility statistics over many random
//! scenarios.
//!
//! * [`ExecutionScenario`] / [`ScenarioSampler`] — one concrete outcome of
//!   the environment (per-attempt durations, fault plan), drawn from a
//!   pluggable [`FaultModel`] (independent-uniform as in the paper, plus
//!   bursty, intermittent and WCET-stress variants for robustness
//!   studies — not to be confused with the *design-side*
//!   `ftqs_core::FaultModel`, which is the `(k, µ)` contract).
//! * [`FlatRuntime`] + [`BatchRunner`] — the runtime of the paper's §3:
//!   executes a [`QuasiStaticTree`](ftqs_core::QuasiStaticTree),
//!   re-executing faulted processes inside the shared recovery slack and
//!   switching schedules on completion-time conditions. Out-of-model
//!   scenarios (more than `k` faults, WCET overruns) degrade gracefully
//!   and are labelled with a [`DegradationVerdict`].
//! * [`OnlineScheduler`] — the readable tree-walk *reference* runtime the
//!   flat one is pinned against, kept for tests and benches.
//! * [`MonteCarlo`] — the 20,000-scenario evaluation harness of §6, with
//!   per-intensity degradation aggregation for the robustness bench.
//! * [`Trace`] — per-cycle event logs for inspection and debugging.
//!
//! # Runtime: the flat image and batched execution
//!
//! [`FlatRuntime`] + [`BatchRunner`] (module [`runtime`]) are the path
//! every caller runs on: single cycles, traces and Monte Carlo batches.
//! [`OnlineScheduler`] walks the tree directly and serves only as the
//! reference. The division of labour:
//!
//! * **Flat image layout** — [`FlatRuntime`] is built once per tree and
//!   holds everything the scenario loop touches as dense
//!   structure-of-arrays columns: per-process WCET/µ/deadline/compiled
//!   utility and CSR predecessor lists; per-node CSR ranges of schedule
//!   entries and static drops; per-entry re-execution allowances,
//!   *fully precomputed* latest-start tables (`k + 1` values per entry),
//!   and CSR-sliced switch arcs. The scenario loop performs no
//!   `TreeNodeId` pointer chasing, no per-node `Vec` walks, and no
//!   `Application` accessor calls.
//! * **Batching** — [`BatchRunner`] shares one read-only flat image
//!   across all worker threads; each worker reuses a
//!   [`runtime::RunScratch`] (completions/dropped/stale-coefficient
//!   tables) and a [`FlatScenario`] buffer across its whole range, so
//!   steady-state execution is allocation-free. The buffer keeps raw
//!   generator outputs and maps only the attempts a cycle executes. Trace recording is
//!   opt-in through the [`trace::EventSink`] generic — batches pass
//!   [`trace::NoTrace`] and the event work compiles away.
//! * **RNG-stream contract** — scenario `i` of a run with base seed `s`
//!   always draws from a fresh stream seeded
//!   [`montecarlo::scenario_seed`]`(s, i)`, independent of thread count
//!   and batch shape, so results are thread-count invariant and every
//!   scheduler faces identical environments. Sweeps
//!   ([`MonteCarlo::evaluate_fault_sweep`] /
//!   [`MonteCarlo::evaluate_intensity_sweep`]) additionally hold the
//!   attempt-table width fixed at `max(k, max intensity) + 1` across
//!   columns (**common random numbers**): every column consumes the same
//!   duration draws and column deltas are pure fault effects.
//!
//! The flat runtime is pinned **bit-identical** to [`OnlineScheduler`] —
//! utilities, verdicts, completions *and traces* — by the
//! `flat_runtime` integration suite, across fault models × policies ×
//! in/out-of-model intensities, at every worker count.
//!
//! ```
//! use ftqs_core::{Engine, SynthesisRequest};
//! use ftqs_sim::{ExecutionScenario, FlatRuntime, MonteCarlo};
//! # use ftqs_core::{Application, ExecutionTimes, FaultModel, Time, UtilityFunction};
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! # let mut b = Application::builder(Time::from_ms(300), FaultModel::new(1, Time::from_ms(10)));
//! # b.add_hard("P1", ExecutionTimes::uniform(30.into(), 70.into())?, Time::from_ms(180));
//! # let app = b.build()?;
//! let tree = Engine::new()
//!     .session()
//!     .synthesize(&app, &SynthesisRequest::ftqs(8))?
//!     .into_tree();
//! let mc = MonteCarlo { scenarios: 1_000, seed: 1, threads: 2 };
//! let eval = mc.evaluate(&app, &tree, 1); // scenarios with one fault
//! assert_eq!(eval.deadline_misses, 0);
//! let out = FlatRuntime::new(&app, &tree).run(&ExecutionScenario::average_case(&app));
//! assert!(out.deadline_miss.is_none());
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod gantt;
pub mod montecarlo;
pub mod online;
pub mod runtime;
pub mod scenario;
pub mod stats;
pub mod trace;

pub use montecarlo::{Evaluation, MonteCarlo};
pub use online::{DegradationVerdict, OnlineScheduler, SimOutcome};
pub use runtime::{BatchRunner, CycleOutcome, FlatRuntime, RunScratch};
pub use scenario::{
    ExecutionScenario, FaultModel, FlatScenario, ScenarioSampler, ScenarioView, FAULT_MODEL_NAMES,
};
pub use trace::{DropReason, EventSink, NoTrace, Trace, TraceEvent};
