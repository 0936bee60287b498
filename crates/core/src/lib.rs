//! # ftqs-core — fault-tolerant static & quasi-static schedule synthesis
//!
//! A from-scratch implementation of the scheduling approach of Izosimov,
//! Pop, Eles & Peng, *"Scheduling of Fault-Tolerant Embedded Systems with
//! Soft and Hard Timing Constraints"* (DATE 2008): single-node embedded
//! applications with mixed hard/soft real-time constraints, transient-fault
//! tolerance by process re-execution with shared recovery slack, and
//! overall-utility maximization through time/utility functions with
//! stale-value propagation.
//!
//! ## Pieces
//!
//! * The **model**: [`Application`] (a DAG of [`Process`]es with a period
//!   and a [`FaultModel`]), [`UtilityFunction`]s for soft processes and
//!   [`StaleCoefficients`] for dropped-output degradation.
//! * The **engine** ([`Engine`] / [`Session`]): the unified front door.
//!   A [`SynthesisRequest`] selects the policy — [`SynthesisPolicy::Ftss`]
//!   (one fault-tolerant static schedule, §5.2),
//!   [`SynthesisPolicy::Ftqs`] (the quasi-static tree of schedules, §5.1)
//!   or [`SynthesisPolicy::Ftsf`] (the straightforward baseline, §6) —
//!   and every policy returns a structured, serializable
//!   [`SynthesisReport`] or the unified [`enum@Error`]. Sessions own the
//!   synthesis scratch buffers and are reused across batch runs.
//! * The **staged synthesis pipeline** ([`ftss`]): the FTSS list
//!   scheduler is an explicit state machine of *commit steps* over a
//!   committed-prefix state object — immutable dense model tables shared
//!   by every run, a resumable committed prefix (schedule entries, drops,
//!   clocks, fault accumulator, probe caches), and transient per-probe
//!   buffers. Runs can be paused, snapshotted in O(prefix) through the
//!   session scratch's checkpoint/restore API, and resumed
//!   bit-identically. FTQS expansion ([`ftqs`]) builds on this: it
//!   snapshots the parent's context once per expanded tree node and
//!   restores per pivot (each parallel worker holding a private
//!   checkpoint cursor) instead of re-deriving the shared prefix for
//!   every sub-schedule; [`ExpansionStats`] reports the
//!   snapshot/restore accounting.
//! * **f-schedules** ([`fschedule`]): fixed process orders with
//!   re-execution allowances, analyzed against the worst distribution of
//!   `k` faults ([`wcdelay`]).
//! * **Trees** ([`tree`]): [`QuasiStaticTree`] with arena-backed schedule
//!   storage ([`ScheduleArena`] / [`ScheduleId`]) — nodes hold handles,
//!   and tree assembly moves schedules instead of cloning them.
//! * The **oracle** ([`oracle`]): the pre-optimization reference
//!   implementations; engine output is pinned bit-identical to them.
//!
//! ## Quick start
//!
//! ```
//! use ftqs_core::{
//!     Application, Engine, ExecutionTimes, FaultModel, SynthesisRequest, Time, UtilityFunction,
//! };
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // The paper's running example (Fig. 1): hard P1 feeding soft P2, P3;
//! // one transient fault to tolerate, 10 ms recovery overhead.
//! let mut b = Application::builder(Time::from_ms(300), FaultModel::new(1, Time::from_ms(10)));
//! let p1 = b.add_hard("P1", ExecutionTimes::uniform(30.into(), 70.into())?, Time::from_ms(180));
//! let p2 = b.add_soft(
//!     "P2",
//!     ExecutionTimes::uniform(30.into(), 70.into())?,
//!     UtilityFunction::step(40.0, [(Time::from_ms(90), 20.0), (Time::from_ms(200), 10.0)])?,
//! );
//! let p3 = b.add_soft(
//!     "P3",
//!     ExecutionTimes::uniform(40.into(), 80.into())?,
//!     UtilityFunction::step(40.0, [(Time::from_ms(110), 30.0), (Time::from_ms(150), 10.0)])?,
//! );
//! b.add_dependency(p1, p2)?;
//! b.add_dependency(p1, p3)?;
//! let app = b.build()?;
//!
//! // One engine, one reusable session, any number of synthesis runs.
//! let engine = Engine::new();
//! let mut session = engine.session();
//!
//! // A quasi-static tree with at most 8 schedules, as a structured report.
//! let report = session.synthesize(&app, &SynthesisRequest::ftqs(8))?;
//! assert!(report.stats.schedules >= 1);
//! println!(
//!     "{} schedules, expected utility {:.1}",
//!     report.stats.schedules, report.utility.expected_average_case
//! );
//!
//! // The same session (and its scratch buffers) serves the next run.
//! let single = session.synthesize(&app, &SynthesisRequest::ftss())?;
//! assert_eq!(single.stats.schedules, 1);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod application;
pub mod digest;
mod engine;
mod error;
pub mod export;
pub mod fschedule;
pub mod ftqs;
pub mod ftsf;
pub mod ftss;
pub mod oracle;
pub mod par;
pub mod priority;
mod process;
mod stale;
mod time;
pub mod tree;
mod utility;
pub mod validate;
pub mod wcdelay;

pub use application::{Application, ApplicationBuilder, ApplicationError, FaultModel};
pub use digest::{application_digest, tree_digest, ContentDigest};
pub use engine::{
    DropReport, Engine, PreparedApp, Session, SynthesisPolicy, SynthesisReport, SynthesisRequest,
    TimingReport, TreeStats, UtilityReport,
};
pub use error::{Error, SchedulingError};
pub use fschedule::{FSchedule, ScheduleAnalysis, ScheduleContext, ScheduleEntry};
pub use ftqs::{ExpansionPolicy, ExpansionStats};
pub use ftss::FtssConfig;
pub use process::{Criticality, ExecutionTimes, ExecutionTimesError, Process};
pub use stale::StaleCoefficients;
pub use time::Time;
pub use tree::{QuasiStaticTree, ScheduleArena, ScheduleId, SwitchArc, TreeNode, TreeNodeId};
pub use utility::{CompiledUtility, UtilityError, UtilityFunction};
