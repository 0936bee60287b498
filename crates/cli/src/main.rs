//! `ftqs` — CLI for fault-tolerant quasi-static scheduling.
//!
//! Every command loads a spec and drives the `ftqs_core::Engine` /
//! `Session` synthesis API; `info`, `schedule`, `tree`, `compare`, and
//! `robustness` also emit machine-readable reports with `--format json`:
//!
//! ```text
//! ftqs info <spec> [--format json]          summary + schedulability (InfoReport)
//! ftqs schedule <spec> [--format json]      FTSS schedule with analysis (SynthesisReport)
//! ftqs tree <spec> [--budget N] [--dot|--json|--format json]
//!                                           FTQS tree (SynthesisReport)
//! ftqs graph <spec>                         task graph as Graphviz DOT
//! ftqs simulate <spec> [--cycles N] [--faults F] [--seed S] [--budget N]
//!                      [--model NAME] [--trace]
//! ftqs compare <spec> [--scenarios N] [--budget N] [--seed S] [--format json]
//!                                           FTQS/FTSS/FTSF/greedy (CompareReport)
//! ftqs robustness <spec> [--scenarios N] [--budget N] [--seed S] [--model NAME]
//!                        [--format json]   degradation sweep 0..=2k (RobustnessReport)
//! ftqs trace <spec> [--budget N]            trace one average-case cycle
//! ftqs export <spec> [--budget N] [--prefix SYM]
//!                                           C header (prefix must be a C identifier)
//!
//! ftqs submit <family> [--count N] [--size N] [--seed S] [--distinct D]
//!                      [--policy P] [--budget N]
//!                                           generate an NDJSON request batch
//! ftqs serve <batch.ndjson|-> [--workers N] [--queue N] [--cache N] [--stats]
//!                                           batched synthesis through the fleet
//!                                           service (ftqs_service), one JSON
//!                                           response line per request
//! ```
//!
//! `<spec>` is a spec file path, `-` for stdin, or `--example` for the
//! paper's Fig. 1 application. Malformed numeric flags (e.g. `--budget
//! abc`) are hard errors, never silent defaults. The dispatcher itself is
//! [`ftqs_cli::run_to`], unit-tested in the library through
//! [`ftqs_cli::run`].

use std::io::Write;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // `serve` streams its responses through this buffer as they complete.
    let mut out = std::io::BufWriter::new(std::io::stdout().lock());
    let result = ftqs_cli::run_to(&args, &mut out);
    // Whatever `serve` answered before an error still reaches stdout.
    let flushed = out.flush();
    match result.and_then(|()| Ok(flushed?)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("{}", ftqs_cli::USAGE);
            ExitCode::FAILURE
        }
    }
}
