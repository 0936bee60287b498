//! # ftqs — fault-tolerant quasi-static scheduling
//!
//! Umbrella crate of the `ftqs` workspace, a from-scratch Rust
//! implementation of Izosimov, Pop, Eles & Peng, *"Scheduling of
//! Fault-Tolerant Embedded Systems with Soft and Hard Timing Constraints"*
//! (DATE 2008).
//!
//! It re-exports the workspace crates under stable module names:
//!
//! * [`graph`] — the DAG substrate ([`ftqs_graph`]),
//! * [`core`] — the model and the FTSS/FTQS/FTSF algorithms
//!   ([`ftqs_core`]),
//! * [`sim`] — the flat runtime and Monte Carlo evaluation
//!   ([`ftqs_sim`]),
//! * [`workloads`] — synthetic generators and the cruise controller
//!   ([`ftqs_workloads`]),
//!
//! plus a [`prelude`] with the types almost every user needs.
//!
//! ## Example
//!
//! Build the paper's running example, synthesize a quasi-static tree
//! through the engine, and simulate a cycle:
//!
//! ```
//! use ftqs::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = Application::builder(Time::from_ms(300), FaultModel::new(1, Time::from_ms(10)));
//! let p1 = b.add_hard("P1", ExecutionTimes::uniform(30.into(), 70.into())?, Time::from_ms(180));
//! let p2 = b.add_soft(
//!     "P2",
//!     ExecutionTimes::uniform(30.into(), 70.into())?,
//!     UtilityFunction::step(40.0, [(Time::from_ms(90), 20.0), (Time::from_ms(200), 0.0)])?,
//! );
//! b.add_dependency(p1, p2)?;
//! let app = b.build()?;
//!
//! let mut session = Engine::new().session();
//! let report = session.synthesize(&app, &SynthesisRequest::ftqs(8))?;
//! let runtime = FlatRuntime::new(&app, &report.tree);
//! let outcome = runtime.run(&ExecutionScenario::average_case(&app));
//! assert!(outcome.deadline_miss.is_none());
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub use ftqs_core as core;
pub use ftqs_graph as graph;
pub use ftqs_sim as sim;
pub use ftqs_workloads as workloads;

/// The types almost every user of the library needs.
pub mod prelude {
    pub use ftqs_core::ftqs::ExpansionPolicy;
    pub use ftqs_core::{
        Application, Criticality, Engine, Error, ExecutionTimes, FSchedule, FaultModel, FtssConfig,
        Process, QuasiStaticTree, ScheduleContext, SchedulingError, Session, StaleCoefficients,
        SynthesisPolicy, SynthesisReport, SynthesisRequest, Time, UtilityFunction,
    };
    pub use ftqs_graph::{Dag, NodeId};
    pub use ftqs_sim::{
        DegradationVerdict, ExecutionScenario, FaultModel as SimFaultModel, FlatRuntime,
        MonteCarlo, ScenarioSampler, SimOutcome,
    };
    pub use ftqs_workloads::{cruise_controller, GeneratorParams};
}
