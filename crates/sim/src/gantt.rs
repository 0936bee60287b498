//! ASCII Gantt rendering of simulated cycles.
//!
//! Turns a [`Trace`] into a proportional text chart — the
//! fastest way to see where recovery slack went, which soft processes were
//! dropped, and where a schedule switch happened.

use crate::trace::{Trace, TraceEvent};
use ftqs_core::{Application, Time};
use std::fmt::Write as _;

/// Renders the executions of `trace` as an ASCII Gantt chart, `width`
/// characters wide (the time axis is scaled to the last event).
///
/// Execution attempts draw as `=`, recovery overhead as `~`, and the final
/// completion as `|`. Dropped processes get a `(dropped: reason)` note.
///
/// # Example
///
/// ```
/// use ftqs_core::{Engine, SynthesisRequest};
/// use ftqs_sim::{gantt, ExecutionScenario, FlatRuntime};
/// # use ftqs_core::{Application, ExecutionTimes, FaultModel, Time, UtilityFunction};
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// # let mut b = Application::builder(Time::from_ms(300), FaultModel::new(1, Time::from_ms(10)));
/// # b.add_hard("P1", ExecutionTimes::uniform(30.into(), 70.into())?, Time::from_ms(180));
/// # let app = b.build()?;
/// let tree = Engine::new().session().synthesize(&app, &SynthesisRequest::ftss())?.into_tree();
/// let out = FlatRuntime::new(&app, &tree).run(&ExecutionScenario::average_case(&app));
/// let chart = gantt::render(&app, &out.trace, 60);
/// assert!(chart.contains("P1"));
/// # Ok(())
/// # }
/// ```
#[must_use]
pub fn render(app: &Application, trace: &Trace, width: usize) -> String {
    let width = width.max(10);
    let horizon = trace
        .events()
        .iter()
        .map(|e| match e {
            TraceEvent::Started { at, .. }
            | TraceEvent::Completed { at, .. }
            | TraceEvent::Fault { at, .. }
            | TraceEvent::Dropped { at, .. }
            | TraceEvent::Switched { at, .. }
            | TraceEvent::DeadlineMiss { at, .. } => *at,
        })
        .max()
        .unwrap_or(Time::ZERO)
        .as_ms()
        .max(1);
    let col = |t: Time| ((t.as_ms() * (width as u64 - 1)) / horizon) as usize;

    // Collect per-process execution segments.
    struct Row {
        name: String,
        segments: Vec<(usize, usize)>, // start col, end col of an attempt
        faults: Vec<usize>,            // fault-detection columns
        note: Option<String>,
    }
    let mut rows: Vec<Row> = app
        .processes()
        .map(|p| Row {
            name: app.process(p).name().to_string(),
            segments: Vec::new(),
            faults: Vec::new(),
            note: None,
        })
        .collect();

    let mut open: Vec<Option<Time>> = vec![None; app.len()];
    for e in trace.events() {
        match e {
            TraceEvent::Started { process, at, .. } => {
                open[process.index()] = Some(*at);
            }
            TraceEvent::Completed { process, at, .. } => {
                if let Some(s) = open[process.index()].take() {
                    rows[process.index()].segments.push((col(s), col(*at)));
                }
            }
            TraceEvent::Fault { process, at, .. } => {
                if let Some(s) = open[process.index()].take() {
                    rows[process.index()].segments.push((col(s), col(*at)));
                    rows[process.index()].faults.push(col(*at));
                }
            }
            TraceEvent::Dropped {
                process, reason, ..
            } => {
                rows[process.index()].note = Some(format!("(dropped: {reason})"));
            }
            TraceEvent::DeadlineMiss { process, .. } => {
                rows[process.index()].note = Some("(MISSED DEADLINE)".to_string());
            }
            TraceEvent::Switched { .. } => {}
        }
    }

    let name_width = rows.iter().map(|r| r.name.len()).max().unwrap_or(4).max(4);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:name_width$} 0{}{}",
        "",
        " ".repeat(width.saturating_sub(horizon.to_string().len() + 1)),
        horizon
    );
    for row in &rows {
        let mut lane = vec![' '; width];
        for &(s, e) in &row.segments {
            let e = e.min(width - 1);
            for cell in lane.iter_mut().take(e + 1).skip(s) {
                if *cell == ' ' {
                    *cell = '=';
                }
            }
            lane[e] = '|';
        }
        for &f in &row.faults {
            lane[f.min(width - 1)] = 'x';
        }
        let lane: String = lane.into_iter().collect();
        match &row.note {
            Some(n) => {
                let _ = writeln!(out, "{:name_width$} {} {}", row.name, lane.trim_end(), n);
            }
            None => {
                let _ = writeln!(out, "{:name_width$} {}", row.name, lane.trim_end());
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::online::OnlineScheduler;
    use crate::scenario::ExecutionScenario;
    use ftqs_core::{
        Application, Engine, ExecutionTimes, FSchedule, FaultModel, SynthesisRequest,
        UtilityFunction,
    };

    fn synth_ftss(app: &Application) -> FSchedule {
        Engine::new()
            .session()
            .synthesize(app, &SynthesisRequest::ftss())
            .unwrap()
            .root_schedule()
            .clone()
    }

    fn t(ms: u64) -> Time {
        Time::from_ms(ms)
    }

    fn app() -> Application {
        let mut b = Application::builder(t(300), FaultModel::new(1, t(10)));
        let p1 = b.add_hard("P1", ExecutionTimes::uniform(t(30), t(70)).unwrap(), t(180));
        let p2 = b.add_soft(
            "P2",
            ExecutionTimes::uniform(t(30), t(70)).unwrap(),
            UtilityFunction::constant(10.0).unwrap(),
        );
        b.add_dependency(p1, p2).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn renders_all_process_rows() {
        let app = app();
        let s = synth_ftss(&app);
        let out = OnlineScheduler::run_static(&app, &s, &ExecutionScenario::average_case(&app));
        let chart = render(&app, &out.trace, 60);
        assert!(chart.contains("P1"));
        assert!(chart.contains("P2"));
        assert!(chart.contains('='));
        assert!(chart.contains('|'));
    }

    #[test]
    fn faulty_run_marks_fault_position() {
        let app = app();
        let s = synth_ftss(&app);
        let sc = ExecutionScenario::from_tables(
            vec![vec![t(70); 2], vec![t(50); 2]],
            vec![vec![true, false], vec![false, false]],
        );
        let out = OnlineScheduler::run_static(&app, &s, &sc);
        let chart = render(&app, &out.trace, 60);
        assert!(chart.contains('x'), "fault marker missing:\n{chart}");
    }

    #[test]
    fn empty_trace_renders_axis_only() {
        let app = app();
        let chart = render(&app, &Trace::new(), 40);
        assert!(chart.lines().count() >= 3);
    }

    #[test]
    fn dropped_processes_carry_a_note() {
        let app = app();
        let mut trace = Trace::new();
        trace.push(TraceEvent::Dropped {
            process: ftqs_graph::NodeId::from_index(1),
            at: t(50),
            reason: crate::trace::DropReason::PastLatestStart,
        });
        let chart = render(&app, &trace, 40);
        assert!(chart.contains("(dropped: past latest start)"));
    }
}
