//! The unified synthesis API: [`Engine`], [`Session`],
//! [`SynthesisRequest`], [`SynthesisReport`].
//!
//! The paper's pipeline exposes three synthesis policies — FTSS single
//! schedules, FTQS quasi-static trees, and the FTSF baseline. Historically
//! each was a free function returning a bare schedule or tree; batch and
//! server callers had no way to reuse scratch state across runs, inspect
//! structured results, or handle one error type. This module is the
//! front door that fixes that:
//!
//! * An [`Engine`] holds the synthesis configuration shared by many runs
//!   (the FTSS configuration and the validation posture). It is cheap,
//!   immutable, and shareable.
//! * A [`Session`] (from [`Engine::session`]) owns the synthesis
//!   scratch buffers and is reused call-to-call, amortizing
//!   the synthesis allocations across whole batch runs instead of per
//!   run.
//! * A [`SynthesisRequest`] names the policy
//!   ([`SynthesisPolicy::Ftss`] / [`SynthesisPolicy::Ftqs`] /
//!   [`SynthesisPolicy::Ftsf`]) plus per-request settings: the FTQS
//!   expansion policy, a validation override, a process-count limit, and
//!   a parallelism cap.
//! * Every policy returns the same structured, serializable
//!   [`SynthesisReport`] — the tree (single-node for FTSS/FTSF), tree
//!   statistics, expected utility, dropped-process accounting, and
//!   synthesis timing — and fails with the unified [`enum@crate::Error`].
//!
//! Results are **bit-identical** to the reference implementations in
//! [`crate::oracle`]; the equivalence tests pin this.
//!
//! # Example
//!
//! ```
//! use ftqs_core::{
//!     Application, Engine, ExecutionTimes, FaultModel, SynthesisRequest, Time, UtilityFunction,
//! };
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! # let mut b = Application::builder(Time::from_ms(300), FaultModel::new(1, Time::from_ms(10)));
//! # let p1 = b.add_hard("P1", ExecutionTimes::uniform(30.into(), 70.into())?, Time::from_ms(180));
//! # let p2 = b.add_soft(
//! #     "P2",
//! #     ExecutionTimes::uniform(30.into(), 70.into())?,
//! #     UtilityFunction::step(40.0, [(Time::from_ms(90), 20.0)])?,
//! # );
//! # b.add_dependency(p1, p2)?;
//! # let app = b.build()?;
//! let engine = Engine::new();
//! let mut session = engine.session();
//! let report = session.synthesize(&app, &SynthesisRequest::ftqs(8))?;
//! assert!(report.stats.schedules >= 1);
//! // The same session reuses its scratch buffers for the next run.
//! let ftss = session.synthesize(&app, &SynthesisRequest::ftss())?;
//! assert_eq!(ftss.stats.schedules, 1);
//! # Ok(())
//! # }
//! ```

use crate::digest::{ContentDigest, Hasher};
use crate::fschedule::CompiledUtilities;
use crate::ftqs::{ftqs_prepared, ftqs_with, ExpansionPolicy, ExpansionStats, FtqsConfig};
use crate::ftsf::ftsf_with;
use crate::ftss::{ftss_from_context, ftss_with, AppModel, FtssConfig, SynthesisScratch};
use crate::tree::QuasiStaticTree;
use crate::validate::validate_tree;
use crate::{Application, Error, FSchedule, ScheduleContext};
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use std::time::Instant;

/// Which synthesis pipeline a [`SynthesisRequest`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum SynthesisPolicy {
    /// One fault-tolerant static schedule (paper §5.2), returned as a
    /// single-node tree.
    Ftss,
    /// The quasi-static tree of schedules (paper §5.1).
    Ftqs {
        /// Maximum number of different schedules kept (`M`); must be > 0.
        budget: usize,
    },
    /// The straightforward baseline of the paper's evaluation (§6),
    /// returned as a single-node tree.
    Ftsf,
}

/// Shared synthesis configuration — create once, spawn [`Session`]s per
/// worker/batch. Two knobs: the FTSS configuration
/// ([`Engine::with_ftss_config`], the paper's heuristic by default) and
/// structural validation ([`Engine::with_validation`], off by default).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Engine {
    ftss: FtssConfig,
    validate: bool,
}

impl Engine {
    /// An engine with the paper-faithful default configuration.
    #[must_use]
    pub fn new() -> Self {
        Engine::default()
    }

    /// Replaces the FTSS tuning used by every policy.
    #[must_use]
    pub fn with_ftss_config(mut self, ftss: FtssConfig) -> Self {
        self.ftss = ftss;
        self
    }

    /// Enables (or disables) structural validation of every synthesized
    /// artifact before it is reported. Off by default — synthesis
    /// guarantees the invariants by construction; turn it on where the
    /// artifact is about to leave the process (CLI, export).
    #[must_use]
    pub fn with_validation(mut self, validate: bool) -> Self {
        self.validate = validate;
        self
    }

    /// Opens a synthesis session: the scratch-owning, reusable handle that
    /// actually runs requests. The session carries its own copy of the
    /// engine configuration (cheap — a handful of scalars), so sessions
    /// outlive the engine value and move freely across threads.
    #[must_use]
    pub fn session(&self) -> Session {
        Session {
            engine: self.clone(),
            scratch: SynthesisScratch::new(),
            completed: 0,
        }
    }

    /// The effective FTQS configuration for `request`.
    fn ftqs_config(&self, budget: usize, request: &SynthesisRequest) -> FtqsConfig {
        FtqsConfig {
            max_schedules: budget,
            policy: request.expansion,
            ftss: self.ftss.clone(),
        }
    }

    /// Stable content digest of every engine knob that can influence a
    /// synthesized artifact. Combined with
    /// [`SynthesisRequest::knob_digest`] and
    /// [`crate::application_digest`] it forms a canonical cache key:
    /// equal keys guarantee bit-identical synthesis output.
    #[must_use]
    pub fn config_digest(&self) -> ContentDigest {
        let mut h = Hasher::new();
        h.write_u8(u8::from(self.ftss.dropping));
        h.write_u8(u8::from(self.validate));
        h.finish()
    }
}

/// One synthesis call: the policy plus per-request settings and limits.
///
/// Build with [`SynthesisRequest::ftss`] / [`SynthesisRequest::ftqs`] /
/// [`SynthesisRequest::ftsf`] and chain `with_*` settings: the FTQS
/// expansion policy ([`SynthesisRequest::with_expansion_policy`]), a
/// validation override ([`SynthesisRequest::with_validation`]), a
/// process-count limit ([`SynthesisRequest::with_max_processes`]) and a
/// worker cap ([`SynthesisRequest::with_max_parallelism`]).
#[derive(Debug, Clone, PartialEq)]
pub struct SynthesisRequest {
    policy: SynthesisPolicy,
    expansion: ExpansionPolicy,
    validate: Option<bool>,
    max_processes: Option<usize>,
    max_parallelism: Option<usize>,
}

impl SynthesisRequest {
    /// A request running `policy` with the engine's defaults.
    #[must_use]
    pub fn new(policy: SynthesisPolicy) -> Self {
        SynthesisRequest {
            policy,
            expansion: ExpansionPolicy::MostSimilar,
            validate: None,
            max_processes: None,
            max_parallelism: None,
        }
    }

    /// A single FTSS schedule.
    #[must_use]
    pub fn ftss() -> Self {
        SynthesisRequest::new(SynthesisPolicy::Ftss)
    }

    /// A quasi-static tree with at most `budget` schedules.
    #[must_use]
    pub fn ftqs(budget: usize) -> Self {
        SynthesisRequest::new(SynthesisPolicy::Ftqs { budget })
    }

    /// The FTSF baseline schedule.
    #[must_use]
    pub fn ftsf() -> Self {
        SynthesisRequest::new(SynthesisPolicy::Ftsf)
    }

    /// The requested policy.
    #[must_use]
    pub fn policy(&self) -> SynthesisPolicy {
        self.policy
    }

    /// Sets the FTQS expansion policy ([`ExpansionPolicy::MostSimilar`]
    /// by default).
    #[must_use]
    pub fn with_expansion_policy(mut self, policy: ExpansionPolicy) -> Self {
        self.expansion = policy;
        self
    }

    /// Overrides the engine's validation posture for this request.
    #[must_use]
    pub fn with_validation(mut self, validate: bool) -> Self {
        self.validate = Some(validate);
        self
    }

    /// Rejects applications larger than `n` processes with
    /// [`Error::InvalidRequest`] instead of synthesizing — a guard for
    /// servers accepting untrusted workloads.
    #[must_use]
    pub fn with_max_processes(mut self, n: usize) -> Self {
        self.max_processes = Some(n);
        self
    }

    /// Applies the [`SynthesisRequest::with_max_processes`] gate to an
    /// application of `processes` processes, with the verdict and message
    /// [`Session::synthesize`] gives. A caller serving a stored outcome,
    /// whose cache key excludes the limit, gates it this way.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidRequest`] when `processes` exceeds the limit.
    pub fn check_process_limit(&self, processes: usize) -> Result<(), Error> {
        match self.max_processes {
            Some(max) if processes > max => Err(Error::invalid_request(format!(
                "application has {processes} processes, request allows at most {max}"
            ))),
            _ => Ok(()),
        }
    }

    /// Caps the worker threads the parallel synthesis layers may use for
    /// this request (`1` forces fully serial execution). Results are
    /// bit-identical at any setting; this only trades latency for CPU.
    #[must_use]
    pub fn with_max_parallelism(mut self, workers: usize) -> Self {
        self.max_parallelism = Some(workers.max(1));
        self
    }

    /// Stable content digest of every request knob that can influence the
    /// synthesized artifact: the policy (including the FTQS budget), the
    /// expansion policy and the validation override. `max_processes` and
    /// `max_parallelism` are deliberately excluded — the former only gates
    /// acceptance and the latter is bit-identical at any setting — so
    /// requests differing only in those limits share a cache key.
    #[must_use]
    pub fn knob_digest(&self) -> ContentDigest {
        let mut h = Hasher::new();
        match self.policy {
            SynthesisPolicy::Ftss => h.write_u8(0),
            SynthesisPolicy::Ftqs { budget } => {
                h.write_u8(1);
                h.write_usize(budget);
            }
            SynthesisPolicy::Ftsf => h.write_u8(2),
        }
        h.write_u8(match self.expansion {
            ExpansionPolicy::MostSimilar => 0,
            ExpansionPolicy::Fifo => 1,
            ExpansionPolicy::BestImprovement => 2,
        });
        h.write_u8(match self.validate {
            None => 0,
            Some(false) => 1,
            Some(true) => 2,
        });
        h.finish()
    }
}

/// An application pre-compiled for repeated synthesis: the dense
/// `AppModel` tables and compiled utility functions every FTSS/FTQS run
/// needs, built once and shared read-only by any number of sessions.
///
/// This is the cacheable synthesis artifact handle. A `PreparedApp` is
/// immutable, `Send + Sync`, and cheap to share behind an [`Arc`], for
/// callers that synthesize one application under many requests; a cache
/// of them is keyed by an application digest the caller computes (such
/// as [`crate::application_digest`]) combined with
/// [`Engine::config_digest`] / [`SynthesisRequest::knob_digest`].
/// [`Session::synthesize_prepared`]
/// runs against one without re-deriving any per-application table, and
/// its output is pinned bit-identical to [`Session::synthesize`] on the
/// same application.
///
/// FTSS and FTQS reuse the prepared tables directly. FTSF synthesizes
/// over a fault-free clone of the application (the baseline deliberately
/// ignores the fault model during scheduling), so it only reuses the
/// shared [`Arc`]'d application itself.
#[derive(Debug)]
pub struct PreparedApp {
    app: Arc<Application>,
    model: AppModel,
    compiled: CompiledUtilities,
}

impl PreparedApp {
    /// Prepares `app`, cloning it into shared ownership.
    #[must_use]
    pub fn new(app: &Application) -> Self {
        PreparedApp::from_arc(Arc::new(app.clone()))
    }

    /// Prepares an already-shared application without cloning it.
    #[must_use]
    pub fn from_arc(app: Arc<Application>) -> Self {
        let model = AppModel::build_shared(Arc::clone(&app));
        let compiled = CompiledUtilities::build(&app);
        PreparedApp {
            app,
            model,
            compiled,
        }
    }

    /// The prepared application.
    #[must_use]
    pub fn app(&self) -> &Application {
        &self.app
    }
}

/// A reusable synthesis handle owning the scratch buffers.
///
/// Obtained from [`Engine::session`]; call [`Session::synthesize`] any
/// number of times. The scratch allocations of the first run are reused by
/// every following run (they are re-primed, never re-allocated, as long as
/// application sizes do not grow).
#[derive(Debug)]
pub struct Session {
    engine: Engine,
    scratch: SynthesisScratch,
    completed: u64,
}

impl Session {
    /// Runs one synthesis request against `app`.
    ///
    /// # Errors
    ///
    /// * [`Error::InvalidRequest`] — zero FTQS budget, or `app` exceeds the
    ///   request's process limit.
    /// * [`Error::Scheduling`] — hard deadlines infeasible.
    /// * [`Error::Validation`] — only with validation enabled; indicates a
    ///   synthesis bug rather than a bad workload.
    pub fn synthesize(
        &mut self,
        app: &Application,
        request: &SynthesisRequest,
    ) -> Result<SynthesisReport, Error> {
        self.run(app, None, request)
    }

    /// Runs one synthesis request against a [`PreparedApp`], reusing its
    /// pre-built model tables and compiled utilities instead of deriving
    /// them per call. Output is bit-identical to
    /// [`Session::synthesize`] on the same application — the prepared
    /// path only removes redundant work, never changes a result.
    ///
    /// # Errors
    ///
    /// Same contract as [`Session::synthesize`].
    pub fn synthesize_prepared(
        &mut self,
        prepared: &PreparedApp,
        request: &SynthesisRequest,
    ) -> Result<SynthesisReport, Error> {
        self.run(prepared.app(), Some(prepared), request)
    }

    fn run(
        &mut self,
        app: &Application,
        prepared: Option<&PreparedApp>,
        request: &SynthesisRequest,
    ) -> Result<SynthesisReport, Error> {
        request.check_process_limit(app.len())?;
        if let SynthesisPolicy::Ftqs { budget } = request.policy {
            if budget == 0 {
                return Err(Error::invalid_request(
                    "FTQS needs a schedule budget of at least one schedule",
                ));
            }
        }
        let started = Instant::now();
        let scratch = &mut self.scratch;
        let engine = &self.engine;
        let (tree, expansion) =
            crate::par::with_max_workers(request.max_parallelism, || match request.policy {
                SynthesisPolicy::Ftss => {
                    let ctx = ScheduleContext::root(app);
                    let schedule = match prepared {
                        Some(p) => ftss_from_context(&p.model, &ctx, &engine.ftss, scratch)?,
                        None => ftss_with(app, &ctx, &engine.ftss, scratch)?,
                    };
                    Ok::<_, Error>((QuasiStaticTree::single(schedule), ExpansionStats::default()))
                }
                SynthesisPolicy::Ftqs { budget } => {
                    let config = engine.ftqs_config(budget, request);
                    match prepared {
                        Some(p) => Ok(ftqs_prepared(&p.model, &p.compiled, &config, scratch)?),
                        None => Ok(ftqs_with(app, &config, scratch)?),
                    }
                }
                SynthesisPolicy::Ftsf => {
                    // FTSF schedules a fault-free clone of the
                    // application, so the fault-aware prepared tables do
                    // not apply to it.
                    let schedule = ftsf_with(app, &engine.ftss, scratch)?;
                    Ok((QuasiStaticTree::single(schedule), ExpansionStats::default()))
                }
            })?;
        if request.validate.unwrap_or(engine.validate) {
            validate_tree(app, &tree)?;
        }
        let synthesis_micros = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
        self.completed += 1;
        Ok(SynthesisReport::assemble(
            app,
            request.policy,
            tree,
            expansion,
            synthesis_micros,
        ))
    }

    /// Number of successfully completed synthesize calls on this session.
    #[must_use]
    pub fn completed(&self) -> u64 {
        self.completed
    }
}

/// Structured result of one [`Session::synthesize`] call.
///
/// Serializes with a stable field order (declaration order) — the CLI's
/// `--format json` output and the golden tests rely on that. Everything a
/// downstream consumer needs is machine-readable here; the schedule/tree
/// artifact itself is the `tree` field (single-node for FTSS/FTSF).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SynthesisReport {
    /// The policy that produced this report.
    pub policy: SynthesisPolicy,
    /// Tree shape and footprint statistics.
    pub stats: TreeStats,
    /// Expected-utility accounting of the root schedule.
    pub utility: UtilityReport,
    /// Processes dropped at synthesis time.
    pub dropped: DropReport,
    /// Wall-clock synthesis cost. Excluded from golden comparisons (the
    /// only non-deterministic field; normalize before diffing).
    pub timing: TimingReport,
    /// The synthesized artifact: the quasi-static tree, with FTSS/FTSF
    /// results wrapped as single-node trees.
    pub tree: QuasiStaticTree,
}

/// Shape and footprint of a synthesized tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TreeStats {
    /// Number of schedules kept (the paper's "nodes" column of Table 1).
    pub schedules: usize,
    /// Maximum node depth (root = 0).
    pub depth: usize,
    /// Total switch arcs.
    pub arcs: usize,
    /// Estimated embedded-runtime footprint in bytes.
    pub memory_bytes: usize,
    /// Cumulative schedule-arena allocations during synthesis (capped by
    /// the FTQS budget; proves the tree was assembled without cloning).
    pub schedule_allocations: usize,
    /// Checkpoint/restore accounting of the FTQS expansion (all zero for
    /// FTSS/FTSF policies).
    pub expansion: ExpansionStats,
}

/// Expected-utility accounting of the root schedule.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct UtilityReport {
    /// Expected overall utility at average execution times, fault-free
    /// (the paper's synthesis objective).
    pub expected_average_case: f64,
}

/// Synthesis-time dropped-process accounting.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DropReport {
    /// Number of soft processes dropped statically by the root schedule.
    pub count: usize,
    /// Their names, in drop order.
    pub processes: Vec<String>,
}

/// Wall-clock synthesis cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TimingReport {
    /// Microseconds spent synthesizing (and validating, when enabled).
    pub synthesis_micros: u64,
}

impl SynthesisReport {
    fn assemble(
        app: &Application,
        policy: SynthesisPolicy,
        tree: QuasiStaticTree,
        expansion: ExpansionStats,
        synthesis_micros: u64,
    ) -> Self {
        let root = tree.root_schedule();
        let dropped: Vec<String> = root
            .statically_dropped()
            .iter()
            .map(|&d| app.process(d).name().to_string())
            .collect();
        SynthesisReport {
            policy,
            stats: TreeStats {
                schedules: tree.len(),
                depth: tree.depth(),
                arcs: tree.arc_count(),
                memory_bytes: tree.memory_footprint_bytes(),
                schedule_allocations: tree.arena().allocations(),
                expansion,
            },
            utility: UtilityReport {
                expected_average_case: crate::ftsf::expected_utility(app, root),
            },
            dropped: DropReport {
                count: dropped.len(),
                processes: dropped,
            },
            timing: TimingReport { synthesis_micros },
            tree,
        }
    }

    /// The root schedule of the synthesized tree (the *only* schedule for
    /// FTSS/FTSF policies).
    #[must_use]
    pub fn root_schedule(&self) -> &FSchedule {
        self.tree.root_schedule()
    }

    /// Consumes the report, keeping just the tree artifact.
    #[must_use]
    pub fn into_tree(self) -> QuasiStaticTree {
        self.tree
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ExecutionTimes, FaultModel, Time, UtilityFunction};

    fn t(ms: u64) -> Time {
        Time::from_ms(ms)
    }

    /// The paper's Fig. 1 application.
    fn fig1_app() -> Application {
        let mut b = Application::builder(t(300), FaultModel::new(1, t(10)));
        let p1 = b.add_hard("P1", ExecutionTimes::uniform(t(30), t(70)).unwrap(), t(180));
        let p2 = b.add_soft(
            "P2",
            ExecutionTimes::uniform(t(30), t(70)).unwrap(),
            UtilityFunction::step(40.0, [(t(90), 20.0), (t(200), 10.0), (t(250), 0.0)]).unwrap(),
        );
        let p3 = b.add_soft(
            "P3",
            ExecutionTimes::uniform(t(40), t(80)).unwrap(),
            UtilityFunction::step(40.0, [(t(110), 30.0), (t(150), 10.0), (t(220), 0.0)]).unwrap(),
        );
        b.add_dependency(p1, p2).unwrap();
        b.add_dependency(p1, p3).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn session_runs_all_policies_and_counts_calls() {
        let app = fig1_app();
        let engine = Engine::new();
        let mut session = engine.session();
        let ftss = session.synthesize(&app, &SynthesisRequest::ftss()).unwrap();
        assert_eq!(ftss.stats.schedules, 1);
        assert_eq!(ftss.policy, SynthesisPolicy::Ftss);
        let ftqs = session
            .synthesize(&app, &SynthesisRequest::ftqs(4))
            .unwrap();
        assert!(ftqs.stats.schedules >= 2);
        assert!(ftqs.stats.arcs >= 1);
        let ftsf = session.synthesize(&app, &SynthesisRequest::ftsf()).unwrap();
        assert_eq!(ftsf.stats.schedules, 1);
        assert_eq!(session.completed(), 3);
    }

    #[test]
    fn engine_matches_reference_implementations_bit_for_bit() {
        let app = fig1_app();
        let mut session = Engine::new().session();
        let report = session
            .synthesize(&app, &SynthesisRequest::ftqs(6))
            .unwrap();
        let oracle = crate::oracle::ftqs_reference(&app, &FtqsConfig::with_budget(6)).unwrap();
        assert_eq!(report.tree.len(), oracle.len());
        for ((i, a), (_, b)) in report.tree.iter().zip(oracle.iter()) {
            assert_eq!(
                report.tree.schedule(a.schedule),
                oracle.schedule(b.schedule)
            );
            assert_eq!(a.arcs, b.arcs, "node {i}");
        }

        let ftss_report = session.synthesize(&app, &SynthesisRequest::ftss()).unwrap();
        let oracle_ftss = crate::oracle::ftss_reference(
            &app,
            &ScheduleContext::root(&app),
            &FtssConfig::default(),
        )
        .unwrap();
        assert_eq!(ftss_report.root_schedule(), &oracle_ftss);

        let ftsf_report = session.synthesize(&app, &SynthesisRequest::ftsf()).unwrap();
        let direct_ftsf = crate::ftsf::ftsf_with(
            &app,
            &FtssConfig::default(),
            &mut crate::ftss::SynthesisScratch::new(),
        )
        .unwrap();
        assert_eq!(ftsf_report.root_schedule(), &direct_ftsf);
    }

    #[test]
    fn zero_budget_is_an_invalid_request() {
        let app = fig1_app();
        let mut session = Engine::new().session();
        let err = session
            .synthesize(&app, &SynthesisRequest::ftqs(0))
            .unwrap_err();
        assert!(matches!(err, Error::InvalidRequest { .. }));
        // The diagnosis names the problem instead of echoing internals.
        assert!(err.to_string().contains("budget"));
    }

    #[test]
    fn degenerate_all_dropped_tree_is_a_scheduling_error() {
        // Every process is soft and worthless: FTSS statically drops them
        // all, the root schedule is empty, and the expansion loop has no
        // pivot. The engine must return a typed error, not an entry-less
        // single-node "tree".
        let mut b = Application::builder(t(1000), FaultModel::none());
        for i in 0..2 {
            b.add_soft(
                format!("dead{i}"),
                ExecutionTimes::uniform(t(100), t(200)).unwrap(),
                UtilityFunction::step(10.0, [(t(50), 0.0)]).unwrap(),
            );
        }
        let app = b.build().unwrap();
        let mut session = Engine::new().session();
        let err = session
            .synthesize(&app, &SynthesisRequest::ftqs(4))
            .unwrap_err();
        assert!(matches!(
            err,
            Error::Scheduling(crate::SchedulingError::EmptyRootSchedule)
        ));
    }

    #[test]
    fn process_limit_is_enforced() {
        let app = fig1_app();
        let mut session = Engine::new().session();
        let err = session
            .synthesize(&app, &SynthesisRequest::ftss().with_max_processes(2))
            .unwrap_err();
        assert!(matches!(err, Error::InvalidRequest { .. }));
        assert!(err.to_string().contains("3 processes"));
    }

    #[test]
    fn serial_cap_produces_identical_trees() {
        let app = fig1_app();
        let mut session = Engine::new().session();
        let parallel = session
            .synthesize(&app, &SynthesisRequest::ftqs(6))
            .unwrap();
        let serial = session
            .synthesize(&app, &SynthesisRequest::ftqs(6).with_max_parallelism(1))
            .unwrap();
        assert_eq!(parallel.tree.len(), serial.tree.len());
        for ((_, a), (_, b)) in parallel.tree.iter().zip(serial.tree.iter()) {
            assert_eq!(
                parallel.tree.schedule(a.schedule),
                serial.tree.schedule(b.schedule)
            );
            assert_eq!(a.arcs, b.arcs);
        }
    }

    #[test]
    fn validation_can_be_requested() {
        let app = fig1_app();
        let engine = Engine::new().with_validation(true);
        let mut session = engine.session();
        assert!(session.synthesize(&app, &SynthesisRequest::ftqs(4)).is_ok());
        // And switched off per request.
        assert!(session
            .synthesize(&app, &SynthesisRequest::ftqs(4).with_validation(false))
            .is_ok());
    }

    #[test]
    fn prepared_synthesis_is_bit_identical_to_cold() {
        // The prepared path must only remove redundant work — for every
        // policy the tree digest and the utility bits must match the cold
        // path exactly.
        let app = fig1_app();
        let prepared = PreparedApp::new(&app);
        let mut session = Engine::new().session();
        for request in [
            SynthesisRequest::ftss(),
            SynthesisRequest::ftqs(6),
            SynthesisRequest::ftqs(6).with_expansion_policy(ExpansionPolicy::Fifo),
            SynthesisRequest::ftsf(),
        ] {
            let cold = session.synthesize(&app, &request).unwrap();
            let warm = session.synthesize_prepared(&prepared, &request).unwrap();
            assert_eq!(
                crate::tree_digest(&cold.tree),
                crate::tree_digest(&warm.tree),
                "{:?}",
                request.policy()
            );
            assert_eq!(
                cold.utility.expected_average_case.to_bits(),
                warm.utility.expected_average_case.to_bits(),
                "{:?}",
                request.policy()
            );
            assert_eq!(cold.dropped, warm.dropped);
        }
    }

    #[test]
    fn knob_digests_separate_what_matters_and_ignore_what_does_not() {
        // Policy, budget, expansion policy and validation override steer
        // synthesis: distinct digests.
        let base = SynthesisRequest::ftqs(6);
        assert_ne!(base.knob_digest(), SynthesisRequest::ftss().knob_digest());
        assert_ne!(base.knob_digest(), SynthesisRequest::ftqs(7).knob_digest());
        assert_ne!(
            base.knob_digest(),
            SynthesisRequest::ftqs(6)
                .with_expansion_policy(ExpansionPolicy::Fifo)
                .knob_digest()
        );
        assert_ne!(
            base.knob_digest(),
            SynthesisRequest::ftqs(6)
                .with_validation(true)
                .knob_digest()
        );
        // Acceptance/latency limits cannot change artifact bits: same key.
        assert_eq!(
            base.knob_digest(),
            SynthesisRequest::ftqs(6)
                .with_max_processes(100)
                .with_max_parallelism(1)
                .knob_digest()
        );
        // Engine knobs likewise.
        let engine = Engine::new();
        assert_ne!(
            engine.config_digest(),
            engine
                .clone()
                .with_ftss_config(FtssConfig { dropping: false })
                .config_digest()
        );
        assert_ne!(
            engine.config_digest(),
            engine.clone().with_validation(true).config_digest()
        );
        assert_eq!(engine.config_digest(), Engine::new().config_digest());
    }

    #[test]
    fn report_serializes_with_stable_field_order() {
        let app = fig1_app();
        let mut session = Engine::new().session();
        let report = session
            .synthesize(&app, &SynthesisRequest::ftqs(4))
            .unwrap();
        let json = serde_json::to_string(&report).unwrap();
        let policy_at = json.find("\"policy\"").unwrap();
        let stats_at = json.find("\"stats\"").unwrap();
        let utility_at = json.find("\"utility\"").unwrap();
        let dropped_at = json.find("\"dropped\"").unwrap();
        let timing_at = json.find("\"timing\"").unwrap();
        let tree_at = json.find("\"tree\"").unwrap();
        assert!(policy_at < stats_at);
        assert!(stats_at < utility_at);
        assert!(utility_at < dropped_at);
        assert!(dropped_at < timing_at);
        assert!(timing_at < tree_at);
        // And round-trips.
        let back: SynthesisReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.stats, report.stats);
        assert_eq!(back.dropped, report.dropped);
    }
}
