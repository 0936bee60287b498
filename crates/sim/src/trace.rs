//! Execution traces: what the online scheduler did, when, and why.
//!
//! Traces make schedule behaviour inspectable — both for debugging the
//! scheduler itself and for the examples, which render them as a text
//! Gantt chart.
//!
//! Recording is opt-in: the runtimes are generic over an [`EventSink`],
//! so Monte Carlo batches run with [`NoTrace`] (the no-op sink, which
//! monomorphizes to zero event work — events are never even constructed)
//! while debugging and the CLI `--trace` path plug in a real [`Trace`].

use crate::stats::FIXED_NOTATION_LIMIT;
use ftqs_core::Time;
use ftqs_graph::NodeId;
use std::fmt;

/// One event of an execution trace.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum TraceEvent {
    /// An execution attempt of a process started.
    Started {
        /// The process.
        process: NodeId,
        /// Attempt number (0 = first execution).
        attempt: usize,
        /// Start time.
        at: Time,
    },
    /// A process completed successfully.
    Completed {
        /// The process.
        process: NodeId,
        /// Completion time.
        at: Time,
        /// Utility credited (0 for hard processes).
        utility: f64,
    },
    /// A transient fault hit the running attempt (detected at its end).
    Fault {
        /// The process.
        process: NodeId,
        /// The faulted attempt.
        attempt: usize,
        /// Detection time.
        at: Time,
    },
    /// A soft process was dropped (never started, or abandoned on fault).
    Dropped {
        /// The process.
        process: NodeId,
        /// Decision time.
        at: Time,
        /// Why it was dropped.
        reason: DropReason,
    },
    /// The quasi-static scheduler switched to another tree node.
    Switched {
        /// Tree node executed before the switch.
        from: usize,
        /// Tree node selected.
        to: usize,
        /// Switch time (completion of the pivot).
        at: Time,
    },
    /// A hard process completed after its deadline (only possible in
    /// out-of-model scenarios — see `crate::online`'s degradation
    /// semantics).
    DeadlineMiss {
        /// The hard process.
        process: NodeId,
        /// Actual completion time.
        at: Time,
        /// The deadline it missed.
        deadline: Time,
    },
}

/// Why a soft process produced no fresh output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum DropReason {
    /// Statically dropped at synthesis time.
    Static,
    /// Its latest safe start time had passed at run time.
    PastLatestStart,
    /// A fault hit it and no (usable) re-execution allowance remained.
    FaultNoRecovery,
}

impl fmt::Display for DropReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DropReason::Static => "static",
            DropReason::PastLatestStart => "past latest start",
            DropReason::FaultNoRecovery => "fault without recovery",
        };
        f.write_str(s)
    }
}

/// Receives the events of one simulated cycle.
///
/// The online runtimes are generic over this trait so that callers who do
/// not need a trace pay nothing: with [`NoTrace`] the compiler removes the
/// event construction entirely. [`Trace`] implements it by appending.
pub trait EventSink {
    /// Records one event.
    fn record(&mut self, event: TraceEvent);
}

/// The no-op [`EventSink`]: the batched Monte Carlo path uses this so the
/// scenario loop compiles to no event work at all.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoTrace;

impl EventSink for NoTrace {
    #[inline(always)]
    fn record(&mut self, _event: TraceEvent) {}
}

impl EventSink for Trace {
    #[inline]
    fn record(&mut self, event: TraceEvent) {
        self.push(event);
    }
}

/// An ordered list of [`TraceEvent`]s from one simulated cycle.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trace {
    events: Vec<TraceEvent>,
}

impl Trace {
    /// An empty trace.
    #[must_use]
    pub fn new() -> Self {
        Trace::default()
    }

    /// Appends an event.
    pub fn push(&mut self, event: TraceEvent) {
        self.events.push(event);
    }

    /// The recorded events, in order.
    #[must_use]
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of fault events recorded.
    #[must_use]
    pub fn fault_count(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e, TraceEvent::Fault { .. }))
            .count()
    }

    /// Number of schedule switches recorded.
    #[must_use]
    pub fn switch_count(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e, TraceEvent::Switched { .. }))
            .count()
    }

    /// Renders a human-readable listing; `name` maps process ids to names.
    #[must_use]
    pub fn render(&self, mut name: impl FnMut(NodeId) -> String) -> String {
        use fmt::Write as _;
        let mut out = String::new();
        for e in &self.events {
            let _ = match e {
                TraceEvent::Started {
                    process,
                    attempt,
                    at,
                } => writeln!(
                    out,
                    "{at:>8}  start    {} (attempt {attempt})",
                    name(*process)
                ),
                TraceEvent::Completed {
                    process,
                    at,
                    utility,
                } if utility.abs() < FIXED_NOTATION_LIMIT => writeln!(
                    out,
                    "{at:>8}  done     {} (utility {utility:.1})",
                    name(*process)
                ),
                TraceEvent::Completed {
                    process,
                    at,
                    utility,
                } => writeln!(
                    out,
                    "{at:>8}  done     {} (utility {utility:.3e})",
                    name(*process)
                ),
                TraceEvent::Fault {
                    process,
                    attempt,
                    at,
                } => writeln!(
                    out,
                    "{at:>8}  FAULT    {} (attempt {attempt})",
                    name(*process)
                ),
                TraceEvent::Dropped {
                    process,
                    at,
                    reason,
                } => writeln!(out, "{at:>8}  drop     {} ({reason})", name(*process)),
                TraceEvent::Switched { from, to, at } => {
                    writeln!(out, "{at:>8}  switch   node {from} -> node {to}")
                }
                TraceEvent::DeadlineMiss {
                    process,
                    at,
                    deadline,
                } => writeln!(
                    out,
                    "{at:>8}  MISS     {} (deadline {deadline})",
                    name(*process)
                ),
            };
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nid(i: usize) -> NodeId {
        NodeId::from_index(i)
    }

    #[test]
    fn counters_count() {
        let mut tr = Trace::new();
        tr.push(TraceEvent::Started {
            process: nid(0),
            attempt: 0,
            at: Time::ZERO,
        });
        tr.push(TraceEvent::Fault {
            process: nid(0),
            attempt: 0,
            at: Time::from_ms(10),
        });
        tr.push(TraceEvent::Switched {
            from: 0,
            to: 1,
            at: Time::from_ms(20),
        });
        assert_eq!(tr.fault_count(), 1);
        assert_eq!(tr.switch_count(), 1);
        assert_eq!(tr.events().len(), 3);
    }

    #[test]
    fn render_mentions_names_and_reasons() {
        let mut tr = Trace::new();
        tr.push(TraceEvent::Dropped {
            process: nid(2),
            at: Time::from_ms(42),
            reason: DropReason::PastLatestStart,
        });
        let s = tr.render(|n| format!("P{}", n.index() + 1));
        assert!(s.contains("P3"));
        assert!(s.contains("past latest start"));
        assert!(s.contains("42ms"));
    }

    #[test]
    fn render_marks_deadline_misses() {
        let mut tr = Trace::new();
        tr.push(TraceEvent::DeadlineMiss {
            process: nid(0),
            at: Time::from_ms(210),
            deadline: Time::from_ms(180),
        });
        let s = tr.render(|n| format!("P{}", n.index() + 1));
        assert!(s.contains("MISS"));
        assert!(s.contains("P1"));
        assert!(s.contains("180ms"));
    }

    #[test]
    fn drop_reason_display() {
        assert_eq!(DropReason::Static.to_string(), "static");
        assert_eq!(
            DropReason::FaultNoRecovery.to_string(),
            "fault without recovery"
        );
    }
}
