//! The application model: a polar process graph plus period and fault model.

use crate::{Process, Time};
use ftqs_graph::{topo, Dag, GraphError, NodeId};
use serde::{Deserialize, Serialize};
use std::error::Error;
use std::fmt;

/// The transient-fault hypothesis (paper §2.2): at most `k` faults per
/// operation cycle, each recovery costing `mu` before re-execution starts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct FaultModel {
    /// Maximum number of transient faults in one operation cycle.
    pub k: usize,
    /// Worst-case recovery overhead µ paid before each re-execution.
    pub mu: Time,
}

impl FaultModel {
    /// The largest fault budget `k` an application may declare. Synthesis
    /// work grows quadratically in `k`: a 50-process fig9 application
    /// (deadlines stretched to stay schedulable) synthesized as an FTQS
    /// tree at budget 40 took at most 0.4 s at `k = 128` and over 1 s at
    /// `k = 256` on a 2-CPU x86-64 host.
    pub const MAX_K: usize = 128;

    /// Creates a fault model tolerating `k` faults with overhead `mu`.
    #[must_use]
    pub fn new(k: usize, mu: Time) -> Self {
        FaultModel { k, mu }
    }

    /// A fault-free model (`k = 0`), useful for baselines and tests.
    #[must_use]
    pub fn none() -> Self {
        FaultModel {
            k: 0,
            mu: Time::ZERO,
        }
    }
}

/// Errors produced while assembling an [`Application`].
#[derive(Debug)]
#[non_exhaustive]
pub enum ApplicationError {
    /// The process graph is empty.
    Empty,
    /// The period is zero.
    ZeroPeriod,
    /// A hard deadline exceeds the period (the cycle would already be over).
    DeadlineBeyondPeriod {
        /// Offending process.
        process: NodeId,
        /// Its name.
        name: String,
        /// Its deadline.
        deadline: Time,
        /// The application period.
        period: Time,
    },
    /// The worst-case horizon `(k+1)·ΣWCET + k·max µ` — the latest
    /// completion any schedule of the application can reach under `k`
    /// faults — or some per-process recovery penalty `wcet + µ` does not
    /// fit the millisecond range of [`Time`].
    HorizonOverflow,
    /// The soft processes' utility peaks sum to more than
    /// [`Application::MAX_TOTAL_UTILITY`].
    UtilityOverflow {
        /// The sum of the soft processes' peak utilities.
        total: f64,
    },
    /// The fault budget `k` exceeds [`FaultModel::MAX_K`].
    TooManyFaults {
        /// The requested fault budget.
        k: usize,
    },
    /// Graph construction failed (cycle, duplicate edge, ...).
    Graph(GraphError),
}

impl fmt::Display for ApplicationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ApplicationError::Empty => write!(f, "application has no processes"),
            ApplicationError::ZeroPeriod => write!(f, "application period must be positive"),
            ApplicationError::DeadlineBeyondPeriod {
                name,
                deadline,
                period,
                ..
            } => write!(
                f,
                "deadline {deadline} of process {name} exceeds period {period}"
            ),
            ApplicationError::HorizonOverflow => write!(
                f,
                "worst-case horizon (k+1)·ΣWCET + k·max µ overflows the time range"
            ),
            ApplicationError::UtilityOverflow { total } => write!(
                f,
                "total soft utility {total:e} overflows the utility range (at most {:e})",
                Application::MAX_TOTAL_UTILITY
            ),
            ApplicationError::TooManyFaults { k } => write!(
                f,
                "fault budget k = {k} exceeds the maximum of {}",
                FaultModel::MAX_K
            ),
            ApplicationError::Graph(e) => write!(f, "graph error: {e}"),
        }
    }
}

impl Error for ApplicationError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ApplicationError::Graph(e) => Some(e),
            _ => None,
        }
    }
}

impl From<GraphError> for ApplicationError {
    fn from(e: GraphError) -> Self {
        ApplicationError::Graph(e)
    }
}

/// An embedded application: a directed acyclic graph of [`Process`]es that
/// runs with period `T` on a single computation node under a transient
/// [`FaultModel`] (paper §2).
///
/// Use [`Application::builder`] to assemble one:
///
/// ```
/// use ftqs_core::{Application, ExecutionTimes, FaultModel, Time, UtilityFunction};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // The application of Fig. 1: hard P1 feeding soft P2 and P3.
/// let mut b = Application::builder(Time::from_ms(300), FaultModel::new(1, Time::from_ms(10)));
/// let p1 = b.add_hard("P1", ExecutionTimes::uniform(30.into(), 70.into())?, Time::from_ms(180));
/// let p2 = b.add_soft(
///     "P2",
///     ExecutionTimes::uniform(30.into(), 70.into())?,
///     UtilityFunction::step(40.0, [(Time::from_ms(90), 20.0), (Time::from_ms(200), 10.0)])?,
/// );
/// let p3 = b.add_soft(
///     "P3",
///     ExecutionTimes::uniform(40.into(), 80.into())?,
///     UtilityFunction::step(40.0, [(Time::from_ms(110), 30.0), (Time::from_ms(150), 10.0)])?,
/// );
/// b.add_dependency(p1, p2)?;
/// b.add_dependency(p1, p3)?;
/// let app = b.build()?;
/// assert_eq!(app.len(), 3);
/// assert_eq!(app.hard_processes().count(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Application {
    graph: Dag<Process>,
    period: Time,
    faults: FaultModel,
}

impl Application {
    /// The largest sum of the soft processes' peak utilities an
    /// application may declare. No cycle earns more than this sum, so
    /// every utility total, mean and deviation stays below it. The Monte
    /// Carlo statistics multiply a squared deviation by two partial sample
    /// counts (Chan's merge); a cap far below `sqrt(f64::MAX)` ≈ 1.3e154
    /// keeps that product finite for any realistic sample count.
    pub const MAX_TOTAL_UTILITY: f64 = 1e100;

    /// Starts building an application with the given period and fault model.
    #[must_use]
    pub fn builder(period: Time, faults: FaultModel) -> ApplicationBuilder {
        ApplicationBuilder {
            graph: Dag::new(),
            period,
            faults,
        }
    }

    /// The process graph.
    #[must_use]
    pub fn graph(&self) -> &Dag<Process> {
        &self.graph
    }

    /// The period `T` of the operation cycle.
    #[must_use]
    pub fn period(&self) -> Time {
        self.period
    }

    /// The fault model (`k`, µ).
    #[must_use]
    pub fn faults(&self) -> &FaultModel {
        &self.faults
    }

    /// Number of processes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.graph.node_count()
    }

    /// Returns `true` if the application has no processes (never true for a
    /// built application; useful for partially-constructed test fixtures).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.graph.is_empty()
    }

    /// The process with id `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a process of this application.
    #[must_use]
    pub fn process(&self, id: NodeId) -> &Process {
        self.graph.payload(id)
    }

    /// Iterates over all process ids.
    pub fn processes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.graph.nodes()
    }

    /// Iterates over the ids of hard processes (the set `H`).
    pub fn hard_processes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.graph
            .nodes()
            .filter(|&n| self.graph.payload(n).is_hard())
    }

    /// Iterates over the ids of soft processes (the set `S`).
    pub fn soft_processes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.graph
            .nodes()
            .filter(|&n| self.graph.payload(n).is_soft())
    }

    /// Returns `true` if `id` is hard.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a process of this application.
    #[must_use]
    pub fn is_hard(&self, id: NodeId) -> bool {
        self.graph.payload(id).is_hard()
    }

    /// A deterministic topological order of all processes.
    #[must_use]
    pub fn topological_order(&self) -> Vec<NodeId> {
        topo::topological_order(&self.graph)
    }

    /// Sum of worst-case execution times of all processes — an upper bound
    /// on the no-fault schedule length.
    #[must_use]
    pub fn total_wcet(&self) -> Time {
        self.processes()
            .map(|n| self.process(n).times().wcet())
            .sum()
    }

    /// The recovery overhead µ of a process: its per-process override if
    /// set, the application-wide [`FaultModel::mu`] otherwise.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a process of this application.
    #[must_use]
    pub fn recovery_overhead(&self, id: NodeId) -> Time {
        self.process(id)
            .recovery_overhead()
            .unwrap_or(self.faults.mu)
    }

    /// The per-fault recovery penalty of a process: `wcet + µ`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a process of this application.
    #[must_use]
    pub fn recovery_penalty(&self, id: NodeId) -> Time {
        self.process(id).times().wcet() + self.recovery_overhead(id)
    }
}

/// Incremental builder for [`Application`]. Created by
/// [`Application::builder`].
#[derive(Debug)]
pub struct ApplicationBuilder {
    graph: Dag<Process>,
    period: Time,
    faults: FaultModel,
}

impl ApplicationBuilder {
    /// Adds a process and returns its id.
    pub fn add_process(&mut self, process: Process) -> NodeId {
        self.graph.add_node(process)
    }

    /// Convenience: adds a hard process.
    pub fn add_hard(
        &mut self,
        name: impl Into<String>,
        times: crate::ExecutionTimes,
        deadline: Time,
    ) -> NodeId {
        self.add_process(Process::hard(name, times, deadline))
    }

    /// Convenience: adds a soft process.
    pub fn add_soft(
        &mut self,
        name: impl Into<String>,
        times: crate::ExecutionTimes,
        utility: crate::UtilityFunction,
    ) -> NodeId {
        self.add_process(Process::soft(name, times, utility))
    }

    /// Adds a data dependency `from -> to`.
    ///
    /// # Errors
    ///
    /// Propagates [`GraphError`] (cycle, duplicate, unknown node).
    pub fn add_dependency(&mut self, from: NodeId, to: NodeId) -> Result<(), GraphError> {
        self.graph.add_edge(from, to)
    }

    /// Validates and finalizes the application.
    ///
    /// # Errors
    ///
    /// * [`ApplicationError::Empty`] if no process was added.
    /// * [`ApplicationError::ZeroPeriod`] if the period is zero.
    /// * [`ApplicationError::DeadlineBeyondPeriod`] if a hard deadline lies
    ///   beyond the period.
    /// * [`ApplicationError::HorizonOverflow`] if the worst-case horizon
    ///   or a recovery penalty overflows [`Time`].
    /// * [`ApplicationError::UtilityOverflow`] if the soft processes' peak
    ///   utilities sum to more than [`Application::MAX_TOTAL_UTILITY`].
    /// * [`ApplicationError::TooManyFaults`] if `k` exceeds
    ///   [`FaultModel::MAX_K`].
    pub fn build(self) -> Result<Application, ApplicationError> {
        if self.graph.is_empty() {
            return Err(ApplicationError::Empty);
        }
        if self.period == Time::ZERO {
            return Err(ApplicationError::ZeroPeriod);
        }
        for n in self.graph.nodes() {
            if let Some(d) = self.graph.payload(n).criticality().deadline() {
                if d > self.period {
                    return Err(ApplicationError::DeadlineBeyondPeriod {
                        process: n,
                        name: self.graph.payload(n).name().to_string(),
                        deadline: d,
                        period: self.period,
                    });
                }
            }
        }
        // Synthesis and analysis add and multiply `Time`s unchecked; every
        // value they form is bounded by the horizon, so checking it once
        // here keeps the guarantee sound on every accepted input.
        if self.horizon_ms().is_none() {
            return Err(ApplicationError::HorizonOverflow);
        }
        let total: f64 = self
            .graph
            .nodes()
            .filter_map(|n| self.graph.payload(n).criticality().utility())
            .map(crate::UtilityFunction::peak)
            .sum();
        if total > Application::MAX_TOTAL_UTILITY {
            return Err(ApplicationError::UtilityOverflow { total });
        }
        if self.faults.k > FaultModel::MAX_K {
            return Err(ApplicationError::TooManyFaults { k: self.faults.k });
        }
        Ok(Application {
            graph: self.graph,
            period: self.period,
            faults: self.faults,
        })
    }

    /// `(k+1)·ΣWCET + k·max µ` in ms (per-process recovery overrides
    /// included), or `None` when it — or any per-process recovery
    /// penalty `wcet + µ` — overflows `u64`.
    fn horizon_ms(&self) -> Option<u64> {
        let k = u64::try_from(self.faults.k).ok()?;
        let mut wcet_sum = 0u64;
        let mut mu_max = self.faults.mu.as_ms();
        for n in self.graph.nodes() {
            let p = self.graph.payload(n);
            let wcet = p.times().wcet().as_ms();
            let mu = p.recovery_overhead().unwrap_or(self.faults.mu).as_ms();
            wcet.checked_add(mu)?;
            wcet_sum = wcet_sum.checked_add(wcet)?;
            mu_max = mu_max.max(mu);
        }
        k.checked_add(1)?
            .checked_mul(wcet_sum)?
            .checked_add(k.checked_mul(mu_max)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ExecutionTimes, UtilityFunction};

    fn t(ms: u64) -> Time {
        Time::from_ms(ms)
    }

    fn et(b: u64, w: u64) -> ExecutionTimes {
        ExecutionTimes::uniform(t(b), t(w)).unwrap()
    }

    #[test]
    fn builder_assembles_fig1_application() {
        let mut b = Application::builder(t(300), FaultModel::new(1, t(10)));
        let p1 = b.add_hard("P1", et(30, 70), t(180));
        let p2 = b.add_soft("P2", et(30, 70), UtilityFunction::constant(10.0).unwrap());
        let p3 = b.add_soft("P3", et(40, 80), UtilityFunction::constant(10.0).unwrap());
        b.add_dependency(p1, p2).unwrap();
        b.add_dependency(p1, p3).unwrap();
        let app = b.build().unwrap();
        assert_eq!(app.len(), 3);
        assert_eq!(app.period(), t(300));
        assert_eq!(app.faults().k, 1);
        assert_eq!(app.hard_processes().collect::<Vec<_>>(), vec![p1]);
        assert_eq!(app.soft_processes().count(), 2);
        assert!(app.is_hard(p1));
        assert!(!app.is_hard(p2));
        assert_eq!(app.total_wcet(), t(220));
        assert_eq!(app.recovery_penalty(p1), t(80));
    }

    #[test]
    fn empty_application_is_rejected() {
        let b = Application::builder(t(100), FaultModel::none());
        assert!(matches!(b.build(), Err(ApplicationError::Empty)));
    }

    #[test]
    fn zero_period_is_rejected() {
        let mut b = Application::builder(Time::ZERO, FaultModel::none());
        b.add_soft("P", et(1, 2), UtilityFunction::constant(1.0).unwrap());
        assert!(matches!(b.build(), Err(ApplicationError::ZeroPeriod)));
    }

    #[test]
    fn deadline_beyond_period_is_rejected() {
        let mut b = Application::builder(t(100), FaultModel::none());
        b.add_hard("P", et(1, 2), t(150));
        let err = b.build().unwrap_err();
        assert!(
            matches!(&err, ApplicationError::DeadlineBeyondPeriod { name, .. } if name == "P"),
            "{err:?}"
        );
        assert!(err.to_string().contains("of process P exceeds"), "{err}");
    }

    #[test]
    fn total_utility_above_the_cap_is_rejected() {
        let with_peaks = |peaks: &[f64]| {
            let mut b = Application::builder(t(100), FaultModel::none());
            b.add_hard("H", et(1, 2), t(100));
            for (i, &peak) in peaks.iter().enumerate() {
                b.add_soft(
                    format!("S{i}"),
                    et(1, 2),
                    UtilityFunction::step(peak, [(t(50), 0.0)]).unwrap(),
                );
            }
            b.build()
        };
        let cap = Application::MAX_TOTAL_UTILITY;
        assert!(with_peaks(&[cap]).is_ok());
        assert!(with_peaks(&[cap / 2.0, cap / 2.0]).is_ok());
        // Past the cap, including sums of finite peaks that overflow f64.
        for peaks in [&[1e308, 1e308][..], &[cap, cap], &[cap * 1.5]] {
            let err = with_peaks(peaks).unwrap_err();
            assert!(
                matches!(err, ApplicationError::UtilityOverflow { total } if total > cap),
                "{peaks:?}: {err:?}"
            );
            assert!(err.to_string().contains("utility"), "{err}");
        }
    }

    #[test]
    fn overflowing_horizon_is_rejected() {
        let max = Time::from_ms(u64::MAX);
        let horizon_of = |k: usize, mu: Time, wcet: Time, recovery: Option<Time>| {
            let mut b = Application::builder(max, FaultModel::new(k, mu));
            let times = ExecutionTimes::uniform(Time::ZERO, wcet).unwrap();
            let p = Process::hard("P", times, max);
            b.add_process(match recovery {
                Some(r) => p.with_recovery_overhead(r),
                None => p,
            });
            b.build()
        };
        let overflow = |r: Result<Application, ApplicationError>| {
            matches!(r, Err(ApplicationError::HorizonOverflow))
        };
        // 2·WCET alone wraps with one fault.
        assert!(overflow(horizon_of(1, t(5), max, None)));
        assert!(overflow(horizon_of(1, max, t(10), None)));
        assert!(overflow(horizon_of(1, t(5), t(10), Some(max))));
        assert!(overflow(horizon_of(usize::MAX, t(5), t(10), None)));
        // Without faults the penalty `wcet + µ` must still fit.
        assert!(overflow(horizon_of(0, t(1), max, None)));
        // The largest horizon that fits is accepted: 2·w + µ = u64::MAX.
        let w = (u64::MAX - 1) / 2;
        assert!(horizon_of(1, t(1), t(w), None).is_ok());
        assert!(overflow(horizon_of(1, t(2), t(w), None)));
        assert!(horizon_of(0, Time::ZERO, max, None).is_ok());
    }

    #[test]
    fn fault_budget_above_the_cap_is_rejected() {
        let with_k = |k: usize| {
            let mut b = Application::builder(t(1000), FaultModel::new(k, t(1)));
            b.add_hard("P", et(1, 1), t(1000));
            b.build()
        };
        assert!(with_k(FaultModel::MAX_K).is_ok());
        let err = with_k(FaultModel::MAX_K + 1).unwrap_err();
        assert!(matches!(err, ApplicationError::TooManyFaults { k } if k == FaultModel::MAX_K + 1));
        assert!(err.to_string().contains("exceeds the maximum"), "{err}");
    }

    #[test]
    fn dependency_cycle_is_rejected() {
        let mut b = Application::builder(t(100), FaultModel::none());
        let a = b.add_soft("A", et(1, 2), UtilityFunction::constant(1.0).unwrap());
        let c = b.add_soft("B", et(1, 2), UtilityFunction::constant(1.0).unwrap());
        b.add_dependency(a, c).unwrap();
        assert!(b.add_dependency(c, a).is_err());
    }

    #[test]
    fn topological_order_covers_all() {
        let mut b = Application::builder(t(100), FaultModel::none());
        let a = b.add_soft("A", et(1, 2), UtilityFunction::constant(1.0).unwrap());
        let c = b.add_soft("B", et(1, 2), UtilityFunction::constant(1.0).unwrap());
        b.add_dependency(a, c).unwrap();
        let app = b.build().unwrap();
        assert_eq!(app.topological_order(), vec![a, c]);
    }

    #[test]
    fn error_display_and_source() {
        let e = ApplicationError::ZeroPeriod;
        assert!(e.to_string().contains("period"));
        let g: ApplicationError = GraphError::SelfLoop(NodeId::from_index(0)).into();
        assert!(Error::source(&g).is_some());
    }
}
