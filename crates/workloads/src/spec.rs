//! A small line-oriented text format for applications, so task sets can be
//! kept in files, diffed in review, and fed to the `ftqs` CLI.
//!
//! # Format
//!
//! ```text
//! # The paper's Fig. 1 application.
//! period 300
//! faults 1 10                      # k, recovery overhead mu (ms)
//!
//! process P1 hard 30 70 deadline 180
//! process P2 soft 30 70 utility 40 @ 90:20 200:10 250:0
//! process P3 soft 40 80 utility 40 @ 110:30 150:10 220:0
//!
//! edge P1 P2
//! edge P1 P3
//! ```
//!
//! * `process <name> hard <bcet> <wcet> deadline <d> [aet <a>] [recovery <mu>]`
//! * `process <name> soft <bcet> <wcet> utility <peak> [@ t:v ...] [aet <a>] [recovery <mu>]`
//!   — the `t:v` pairs are the downward steps of the utility function;
//!   without them the utility is constant at `peak`.
//! * `edge <from> <to>` — a data dependency.
//! * `#` starts a comment; blank lines are ignored.
//!
//! [`parse`] and [`render`] round-trip ([`render`] emits canonical
//! formatting).

use ftqs_core::{
    Application, ApplicationBuilder, ExecutionTimes, FaultModel, Process, Time, UtilityFunction,
};
use ftqs_graph::NodeId;
use std::collections::HashMap;
use std::error::Error;
use std::fmt;

/// A parse failure, with the 1-based line number it occurred on.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseSpecError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseSpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl Error for ParseSpecError {}

fn err(line: usize, message: impl Into<String>) -> ParseSpecError {
    ParseSpecError {
        line,
        message: message.into(),
    }
}

/// Parses an application from the spec format (see module docs).
///
/// # Errors
///
/// [`ParseSpecError`] with the offending line on any syntax or semantic
/// problem (unknown process in an edge, missing period, invalid envelope,
/// cyclic dependency, ...).
pub fn parse(input: &str) -> Result<Application, ParseSpecError> {
    let mut period: Option<Time> = None;
    let mut faults: Option<FaultModel> = None;
    struct PendingProcess {
        process: Process,
        line: usize,
    }
    let mut processes: Vec<PendingProcess> = Vec::new();
    let mut names: HashMap<String, usize> = HashMap::new();
    let mut edges: Vec<(String, String, usize)> = Vec::new();

    for (idx, raw) in input.lines().enumerate() {
        let lineno = idx + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut tok = line.split_whitespace();
        match tok.next() {
            Some("period") => {
                let v = parse_u64(&mut tok, lineno, "period value")?;
                period = Some(Time::from_ms(v));
            }
            Some("faults") => {
                let k = parse_u64(&mut tok, lineno, "fault count k")? as usize;
                let mu = parse_u64(&mut tok, lineno, "recovery overhead mu")?;
                faults = Some(FaultModel::new(k, Time::from_ms(mu)));
            }
            Some("process") => {
                let name = tok
                    .next()
                    .ok_or_else(|| err(lineno, "missing process name"))?
                    .to_string();
                if names.contains_key(&name) {
                    return Err(err(lineno, format!("duplicate process {name}")));
                }
                let kind = tok
                    .next()
                    .ok_or_else(|| err(lineno, "missing 'hard' or 'soft'"))?;
                let bcet = parse_u64(&mut tok, lineno, "bcet")?;
                let wcet = parse_u64(&mut tok, lineno, "wcet")?;
                let rest: Vec<&str> = tok.collect();
                let process = parse_process_tail(&name, kind, bcet, wcet, &rest, lineno)?;
                names.insert(name, processes.len());
                processes.push(PendingProcess {
                    process,
                    line: lineno,
                });
            }
            Some("edge") => {
                let from = tok
                    .next()
                    .ok_or_else(|| err(lineno, "missing edge source"))?
                    .to_string();
                let to = tok
                    .next()
                    .ok_or_else(|| err(lineno, "missing edge target"))?
                    .to_string();
                edges.push((from, to, lineno));
            }
            Some(other) => {
                return Err(err(lineno, format!("unknown directive '{other}'")));
            }
            None => unreachable!("blank lines were skipped"),
        }
    }

    let period = period.ok_or_else(|| err(0, "missing 'period' directive"))?;
    let faults = faults.unwrap_or_else(FaultModel::none);
    let mut b: ApplicationBuilder = Application::builder(period, faults);
    let ids: Vec<NodeId> = processes
        .iter()
        .map(|p| b.add_process(p.process.clone()))
        .collect();
    for (from, to, lineno) in edges {
        let &fi = names
            .get(&from)
            .ok_or_else(|| err(lineno, format!("unknown process {from}")))?;
        let &ti = names
            .get(&to)
            .ok_or_else(|| err(lineno, format!("unknown process {to}")))?;
        b.add_dependency(ids[fi], ids[ti])
            .map_err(|e| err(lineno, e.to_string()))?;
    }
    let first_line = processes.first().map_or(0, |p| p.line);
    b.build().map_err(|e| err(first_line, e.to_string()))
}

fn parse_u64<'a>(
    tok: &mut impl Iterator<Item = &'a str>,
    line: usize,
    what: &str,
) -> Result<u64, ParseSpecError> {
    let raw = tok
        .next()
        .ok_or_else(|| err(line, format!("missing {what}")))?;
    raw.parse()
        .map_err(|_| err(line, format!("invalid {what}: '{raw}'")))
}

fn parse_process_tail(
    name: &str,
    kind: &str,
    bcet: u64,
    wcet: u64,
    rest: &[&str],
    line: usize,
) -> Result<Process, ParseSpecError> {
    let mut aet: Option<u64> = None;
    let mut recovery: Option<u64> = None;
    let mut deadline: Option<u64> = None;
    let mut peak: Option<f64> = None;
    let mut steps: Vec<(Time, f64)> = Vec::new();

    let mut i = 0;
    while i < rest.len() {
        match rest[i] {
            "deadline" => {
                deadline = Some(take_num(rest, &mut i, line, "deadline")?);
            }
            "aet" => {
                aet = Some(take_num(rest, &mut i, line, "aet")?);
            }
            "recovery" => {
                recovery = Some(take_num(rest, &mut i, line, "recovery")?);
            }
            "utility" => {
                i += 1;
                let raw = rest
                    .get(i)
                    .ok_or_else(|| err(line, "missing utility peak"))?;
                peak = Some(
                    raw.parse()
                        .map_err(|_| err(line, format!("invalid utility peak '{raw}'")))?,
                );
                i += 1;
                if rest.get(i) == Some(&"@") {
                    i += 1;
                    while i < rest.len() && rest[i].contains(':') {
                        let (t, v) = rest[i]
                            .split_once(':')
                            .ok_or_else(|| err(line, "malformed step"))?;
                        let t: u64 = t
                            .parse()
                            .map_err(|_| err(line, format!("invalid step time '{t}'")))?;
                        let v: f64 = v
                            .parse()
                            .map_err(|_| err(line, format!("invalid step value '{v}'")))?;
                        steps.push((Time::from_ms(t), v));
                        i += 1;
                    }
                }
                continue;
            }
            other => {
                return Err(err(line, format!("unexpected token '{other}'")));
            }
        }
        i += 1;
    }

    let times = match aet {
        Some(a) => ExecutionTimes::new(Time::from_ms(bcet), Time::from_ms(a), Time::from_ms(wcet)),
        None => ExecutionTimes::uniform(Time::from_ms(bcet), Time::from_ms(wcet)),
    }
    .map_err(|e| err(line, e.to_string()))?;

    let process = match kind {
        "hard" => {
            let d = deadline.ok_or_else(|| err(line, "hard process needs 'deadline'"))?;
            if peak.is_some() {
                return Err(err(line, "hard processes carry no utility"));
            }
            Process::hard(name, times, Time::from_ms(d))
        }
        "soft" => {
            let p = peak.ok_or_else(|| err(line, "soft process needs 'utility'"))?;
            if deadline.is_some() {
                return Err(err(line, "soft processes carry no deadline"));
            }
            let u = UtilityFunction::step(p, steps).map_err(|e| err(line, e.to_string()))?;
            Process::soft(name, times, u)
        }
        other => {
            return Err(err(
                line,
                format!("expected 'hard' or 'soft', got '{other}'"),
            ))
        }
    };
    Ok(match recovery {
        Some(mu) => process.with_recovery_overhead(Time::from_ms(mu)),
        None => process,
    })
}

fn take_num(rest: &[&str], i: &mut usize, line: usize, what: &str) -> Result<u64, ParseSpecError> {
    *i += 1;
    let raw = rest
        .get(*i)
        .ok_or_else(|| err(line, format!("missing {what} value")))?;
    raw.parse()
        .map_err(|_| err(line, format!("invalid {what} value '{raw}'")))
}

/// Renders an application back into the canonical spec format.
///
/// Utility functions render exactly when they are step functions (the only
/// kind [`parse`] produces); other shapes are approximated by sampling the
/// value right after each breakpoint is unavailable, so `render` falls
/// back to a constant at the peak for them and notes it in a comment.
#[must_use]
pub fn render(app: &Application) -> String {
    use fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "period {}", app.period().as_ms());
    let _ = writeln!(out, "faults {} {}", app.faults().k, app.faults().mu.as_ms());
    out.push('\n');
    for p in app.processes() {
        let proc_ = app.process(p);
        let t = proc_.times();
        let _ = write!(
            out,
            "process {} {} {} {}",
            proc_.name(),
            if proc_.is_hard() { "hard" } else { "soft" },
            t.bcet().as_ms(),
            t.wcet().as_ms()
        );
        if t.aet() != t.bcet().midpoint(t.wcet()) {
            let _ = write!(out, " aet {}", t.aet().as_ms());
        }
        match proc_.criticality() {
            ftqs_core::Criticality::Hard { deadline } => {
                let _ = write!(out, " deadline {}", deadline.as_ms());
            }
            ftqs_core::Criticality::Soft { utility } => {
                let _ = write!(out, " utility {}", utility.peak());
                let mut probe_points: Vec<(u64, f64)> = Vec::new();
                // Reconstruct breakpoints by probing value changes up to the
                // period (utilities beyond the period are irrelevant).
                let mut prev = utility.peak();
                for ms in 1..=app.period().as_ms() {
                    let v = utility.value(Time::from_ms(ms));
                    if v != prev {
                        probe_points.push((ms - 1, v));
                        prev = v;
                    }
                }
                if !probe_points.is_empty() {
                    let _ = write!(out, " @");
                    for (t, v) in probe_points {
                        let _ = write!(out, " {t}:{v}");
                    }
                }
            }
        }
        if let Some(mu) = proc_.recovery_overhead() {
            let _ = write!(out, " recovery {}", mu.as_ms());
        }
        out.push('\n');
    }
    out.push('\n');
    for (from, to) in app.graph().edges() {
        let _ = writeln!(
            out,
            "edge {} {}",
            app.process(from).name(),
            app.process(to).name()
        );
    }
    out
}

/// The paper's Fig. 1 application in spec form — used by docs, tests and
/// the CLI's `--example` flag.
pub const FIG1_SPEC: &str = "\
# Izosimov et al. (DATE 2008), Fig. 1 with the Fig. 4a utility functions.
period 300
faults 1 10

process P1 hard 30 70 deadline 180
process P2 soft 30 70 utility 40 @ 90:20 200:10 250:0
process P3 soft 40 80 utility 40 @ 110:30 150:10 220:0

edge P1 P2
edge P1 P3
";

#[cfg(test)]
mod tests {
    use super::*;

    /// One-shot FTSS through the engine (test convenience).
    fn ftss_schedule(
        app: &ftqs_core::Application,
    ) -> Result<ftqs_core::FSchedule, ftqs_core::Error> {
        Ok(ftqs_core::Engine::new()
            .session()
            .synthesize(app, &ftqs_core::SynthesisRequest::ftss())?
            .root_schedule()
            .clone())
    }

    #[test]
    fn fig1_spec_parses() {
        let app = parse(FIG1_SPEC).unwrap();
        assert_eq!(app.len(), 3);
        assert_eq!(app.period(), Time::from_ms(300));
        assert_eq!(app.faults().k, 1);
        assert_eq!(app.hard_processes().count(), 1);
        let p2 = app
            .processes()
            .find(|&p| app.process(p).name() == "P2")
            .unwrap();
        let u = app.process(p2).criticality().utility().unwrap();
        assert_eq!(u.value(Time::from_ms(100)), 20.0);
    }

    #[test]
    fn round_trip_via_render() {
        let app = parse(FIG1_SPEC).unwrap();
        let rendered = render(&app);
        let back = parse(&rendered).unwrap();
        assert_eq!(back.len(), app.len());
        assert_eq!(back.period(), app.period());
        for (a, b) in app.processes().zip(back.processes()) {
            assert_eq!(app.process(a).name(), back.process(b).name());
            assert_eq!(app.process(a).times(), back.process(b).times());
            assert_eq!(app.process(a).is_hard(), back.process(b).is_hard());
        }
        assert_eq!(back.graph().edge_count(), app.graph().edge_count());
        // Utility values agree on a sweep.
        for p in app.soft_processes() {
            let ua = app.process(p).criticality().utility().unwrap();
            let ub = back.process(p).criticality().utility().unwrap();
            for ms in (0..=300).step_by(7) {
                assert_eq!(ua.value(Time::from_ms(ms)), ub.value(Time::from_ms(ms)));
            }
        }
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let app =
            parse("# header\n\nperiod 100\nfaults 0 0\nprocess A soft 1 2 utility 5 # trailing\n")
                .unwrap();
        assert_eq!(app.len(), 1);
    }

    #[test]
    fn explicit_aet_and_recovery() {
        let app =
            parse("period 100\nfaults 1 5\nprocess A hard 10 30 aet 12 deadline 90 recovery 3\n")
                .unwrap();
        let p = app.processes().next().unwrap();
        assert_eq!(app.process(p).times().aet(), Time::from_ms(12));
        assert_eq!(app.recovery_overhead(p), Time::from_ms(3));
    }

    #[test]
    fn extreme_times_are_rejected_or_analyzed_without_wrapping() {
        // The hard guarantee must hold for every accepted spec: either
        // parsing rejects a value, or no reported worst-case completion
        // falls below the process's own WCET (which a wrapped `Time` sum
        // would produce).
        const MAX: u64 = u64::MAX;
        let fields = [
            "period", "k", "mu", "bcet", "aet", "wcet", "deadline", "recovery",
        ];
        let spec_with = |extreme: Option<&str>| {
            let v = |field: &str, normal: u64| {
                if extreme == Some(field) {
                    MAX
                } else {
                    normal
                }
            };
            format!(
                "period {}\nfaults {} {}\n\
                 process P hard {} {} aet {} deadline {} recovery {}\n\
                 process S soft 5 9 utility 10 @ 400:0\n\
                 edge P S\n",
                v("period", 1000),
                v("k", 1),
                v("mu", 5),
                v("bcet", 10),
                v("wcet", 30),
                v("aet", 20),
                v("deadline", 900),
                v("recovery", 3),
            )
        };
        let mut accepted = 0;
        for extreme in fields.iter().map(|&f| Some(f)).chain([None]) {
            let spec = spec_with(extreme);
            let Ok(app) = parse(&spec) else {
                continue;
            };
            accepted += 1;
            let schedule = ftss_schedule(&app)
                .unwrap_or_else(|e| panic!("{extreme:?}: accepted spec fails synthesis: {e}"));
            let analysis = schedule.analyze(&app);
            for (pos, e) in schedule.entries().iter().enumerate() {
                let wcet = app.process(e.process).times().wcet();
                assert!(
                    analysis.worst_completion(pos) >= wcet,
                    "{extreme:?}: worst-case completion {} of {} below its WCET {wcet}",
                    analysis.worst_completion(pos),
                    app.process(e.process).name()
                );
            }
        }
        assert!(accepted >= 2, "the baseline and the period variant parse");
        // The spec whose 3 ms worst case once passed as schedulable.
        let err = parse(&format!(
            "period {MAX}\nfaults 1 5\nprocess P hard {MAX} {MAX} deadline {MAX}\n"
        ))
        .unwrap_err();
        assert!(err.to_string().contains("horizon"), "{err}");
    }

    #[test]
    fn extreme_utilities_are_rejected_or_synthesized_finite() {
        // Two finite peaks whose sum overflows f64 are rejected at build
        // time instead of turning every downstream sum into `inf`.
        let err = parse(
            "period 100\nprocess A soft 5 10 utility 1e308\nprocess B soft 5 10 utility 1e308\n",
        )
        .unwrap_err();
        assert!(err.message.contains("utility"), "{err}");
        // At the cap, synthesis and its expected utility stay finite.
        let cap = ftqs_core::Application::MAX_TOTAL_UTILITY;
        let app = parse(&format!(
            "period 100\nprocess A soft 5 10 utility {cap:e} @ 9:0\n"
        ))
        .unwrap();
        let report = ftqs_core::Engine::new()
            .session()
            .synthesize(&app, &ftqs_core::SynthesisRequest::ftqs(4))
            .unwrap();
        assert!(report.utility.expected_average_case.is_finite());
        assert!(parse(&format!(
            "period 100\nprocess A soft 5 10 utility {:e}\n",
            cap * 2.0
        ))
        .is_err());
    }

    #[test]
    fn errors_carry_line_numbers() {
        let cases = [
            ("period 100\nbogus x\n", 2, "unknown directive"),
            ("period 100\nprocess A hard 10 30\n", 2, "needs 'deadline'"),
            ("period 100\nprocess A soft 10 30\n", 2, "needs 'utility'"),
            (
                "period 100\nprocess A soft 30 10 utility 5\n",
                2,
                "bcet <= aet <= wcet",
            ),
            (
                "period 100\nprocess A soft 1 2 utility 5\nedge A B\n",
                3,
                "unknown process B",
            ),
            ("process A soft 1 2 utility 5\n", 0, "missing 'period'"),
            (
                "period 100\nprocess A hard 1 2 deadline 90 utility 5\n",
                2,
                "no utility",
            ),
        ];
        for (input, line, needle) in cases {
            let e = parse(input).unwrap_err();
            assert_eq!(e.line, line, "input: {input}");
            assert!(
                e.message.contains(needle),
                "expected '{needle}' in '{}'",
                e.message
            );
        }
    }

    #[test]
    fn duplicate_process_is_rejected() {
        let e = parse("period 100\nprocess A soft 1 2 utility 5\nprocess A soft 1 2 utility 5\n")
            .unwrap_err();
        assert!(e.message.contains("duplicate"));
    }

    #[test]
    fn cycle_is_rejected_with_line() {
        let e = parse(
            "period 100\nprocess A soft 1 2 utility 5\nprocess B soft 1 2 utility 5\nedge A B\nedge B A\n",
        )
        .unwrap_err();
        assert_eq!(e.line, 5);
        assert!(e.message.contains("cycle"));
    }

    #[test]
    fn fault_budget_above_the_cap_fails_to_build() {
        // Synthesis work grows quadratically in k: at k = 30000 this
        // two-process spec would take seconds to synthesize.
        let hostile = "period 100000000\nfaults 30000 0\n\
                       process A hard 1 1 deadline 100000000\n\
                       process B soft 1 1 utility 10\nedge A B\n";
        let e = parse(hostile).unwrap_err();
        assert!(e.message.contains("fault budget k = 30000"), "{e}");
        // Every preset family and the cruise controller stay accepted
        // through a render/parse round trip.
        let mut apps: Vec<_> = crate::family::Family::ALL
            .iter()
            .map(|&f| crate::family::build(f, 50, 7))
            .collect();
        apps.push(crate::cruise::cruise_controller().unwrap());
        for app in &apps {
            assert!(app.faults().k <= 3);
            parse(&render(app)).unwrap();
        }
    }

    #[test]
    fn parsed_spec_is_schedulable_end_to_end() {
        let app = parse(FIG1_SPEC).unwrap();
        let s = ftss_schedule(&app).unwrap();
        assert!(s.analyze(&app).is_schedulable());
    }
}
