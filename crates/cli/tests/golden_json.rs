//! Golden-output tests for the CLI's `--format json` reports, `ftqs
//! serve` response lines and `ftqs trace` text.
//!
//! The JSON shapes are an interface: batch pipelines and embedded-runtime
//! tooling parse them, so field order (serde declaration order) and value
//! layout must stay stable. Each golden file under `tests/golden/` is the
//! exact expected output with fixed seeds, on the paper's Fig. 1 example
//! unless its name says otherwise; the wall-clock fields — `timing.synthesis_micros`, and on a response
//! line also `queued_micros` and `service_micros` — are normalized to 0 on
//! both sides before comparison.
//!
//! To regenerate after an *intentional* schema change:
//!
//! ```text
//! cargo run -p ftqs-cli --bin ftqs -- tree --example --budget 4 --format json
//! cargo run -p ftqs-cli --bin ftqs -- compare --example --scenarios 50 --budget 4 --seed 3 --format json
//! cargo run -p ftqs-cli --bin ftqs -- info --example --format json
//! cargo run -p ftqs-cli --bin ftqs -- serve <batch>   # the one request of `serve_line_matches_golden`
//! cargo run -p ftqs-cli --bin ftqs -- trace --example --budget 4
//! cargo run -p ftqs-cli --bin ftqs -- trace <fig9.spec> --budget 8   # the spec of `trace_fig9_matches_golden`
//! ```
//!
//! (normalize the wall-clock fields to 0 by hand) — and read the diff;
//! every changed line is a consumer-visible schema change.

use ftqs_cli::{compare, info, run, tree, OutputFormat, TreeFormat};
use ftqs_workloads::spec::{self, FIG1_SPEC};
use ftqs_workloads::{family, Family};
use serde::Value;

/// Zeroes the integer after every occurrence of each of `needles`.
fn zero_fields(json: &str, needles: &[&str]) -> String {
    let mut json = json.to_string();
    for needle in needles {
        let mut out = String::with_capacity(json.len());
        let mut rest = json.as_str();
        while let Some(at) = rest.find(needle) {
            let value_start = at + needle.len();
            out.push_str(&rest[..value_start]);
            let tail = &rest[value_start..];
            let digits = tail.chars().take_while(char::is_ascii_digit).count();
            out.push('0');
            rest = &tail[digits..];
        }
        out.push_str(rest);
        json = out;
    }
    json
}

/// Zeroes the value of every `"synthesis_micros": N` occurrence — the one
/// wall-clock field in a pretty report.
fn normalize_timing(json: &str) -> String {
    zero_fields(json, &["\"synthesis_micros\": "])
}

fn assert_matches_golden(actual: &str, golden: &str, name: &str) {
    let actual = normalize_timing(actual);
    let golden = normalize_timing(golden);
    if actual != golden {
        // Locate the first diverging line for a readable failure.
        for (i, (a, g)) in actual.lines().zip(golden.lines()).enumerate() {
            assert_eq!(
                a,
                g,
                "golden mismatch in {name} at line {} — schema drift is a \
                 consumer-visible break; regenerate deliberately (see module docs)",
                i + 1
            );
        }
        assert_eq!(
            actual.lines().count(),
            golden.lines().count(),
            "golden mismatch in {name}: line counts differ"
        );
        panic!("golden mismatch in {name}");
    }
}

#[test]
fn tree_json_matches_golden() {
    let actual = tree("--example", 4, TreeFormat::Json).unwrap();
    assert_matches_golden(
        &actual,
        include_str!("golden/tree_fig1_budget4.json"),
        "tree --example --budget 4 --format json",
    );
}

#[test]
fn tree_json_exposes_checkpoint_counters() {
    // The expansion stats are part of the public report schema: batch
    // pipelines A/B the incremental expansion by reading these counters.
    let actual = tree("--example", 4, TreeFormat::Json).unwrap();
    for field in [
        "\"expansion\"",
        "\"snapshots\"",
        "\"restores\"",
        "\"prefix_steps_saved\"",
        "\"prefix_steps_rerun\"",
    ] {
        assert!(
            actual.contains(field),
            "tree --format json lost the {field} checkpoint counter"
        );
    }
}

#[test]
fn compare_json_matches_golden() {
    let actual = compare("--example", 50, 4, 3, OutputFormat::Json).unwrap();
    assert_matches_golden(
        &actual,
        include_str!("golden/compare_fig1_s50_b4_seed3.json"),
        "compare --example --scenarios 50 --budget 4 --seed 3 --format json",
    );
}

#[test]
fn info_json_matches_golden() {
    let actual = info("--example", OutputFormat::Json).unwrap();
    assert_matches_golden(
        &actual,
        include_str!("golden/info_fig1.json"),
        "info --example --format json",
    );
}

#[test]
fn goldens_hold_through_the_argv_dispatcher() {
    // The same bytes must come out of the full `ftqs tree ... --json` path.
    let args: Vec<String> = ["tree", "--example", "--budget", "4", "--json"]
        .iter()
        .map(ToString::to_string)
        .collect();
    let actual = run(&args).unwrap();
    assert_matches_golden(
        &actual,
        include_str!("golden/tree_fig1_budget4.json"),
        "argv tree --json",
    );
}

#[test]
fn serve_line_matches_golden() {
    // One compact NDJSON response line, byte for byte: the service's wire
    // format, written by the same serializer as the pretty reports.
    let request = Value::Map(vec![
        ("id".to_string(), Value::U64(1)),
        ("spec".to_string(), Value::Str(FIG1_SPEC.to_string())),
        ("policy".to_string(), Value::Str("ftqs".to_string())),
        ("budget".to_string(), Value::U64(4)),
    ]);
    let batch =
        std::env::temp_dir().join(format!("ftqs-golden-serve-{}.ndjson", std::process::id()));
    std::fs::write(&batch, serde_json::to_string(&request).unwrap() + "\n").unwrap();
    let args: Vec<String> = vec!["serve".to_string(), batch.display().to_string()];
    let actual = run(&args);
    std::fs::remove_file(&batch).unwrap();
    let wall_clock = [
        "\"synthesis_micros\":",
        "\"queued_micros\":",
        "\"service_micros\":",
    ];
    assert_eq!(
        zero_fields(&actual.unwrap(), &wall_clock),
        zero_fields(
            include_str!("golden/serve_fig1_budget4.ndjson"),
            &wall_clock
        ),
        "serve response line drifted from the golden (see module docs)"
    );
}

#[test]
fn trace_matches_golden() {
    let args: Vec<String> = ["trace", "--example", "--budget", "4"]
        .iter()
        .map(ToString::to_string)
        .collect();
    let actual = run(&args).unwrap();
    assert_eq!(
        actual,
        include_str!("golden/trace_fig1_budget4.txt"),
        "trace --example --budget 4 drifted from the golden"
    );
}

#[test]
fn trace_fig9_matches_golden() {
    // A fig9 app whose average-case cycle drops a process statically and
    // switches schedules mid-cycle.
    let path = std::env::temp_dir().join(format!("ftqs-golden-fig9-{}.spec", std::process::id()));
    std::fs::write(&path, spec::render(&family::build(Family::Fig9, 10, 5))).unwrap();
    let args: Vec<String> = vec![
        "trace".to_string(),
        path.display().to_string(),
        "--budget".to_string(),
        "8".to_string(),
    ];
    let actual = run(&args);
    std::fs::remove_file(&path).unwrap();
    let actual = actual.unwrap();
    assert!(actual.contains("(static)") && actual.contains("switch   node 0 -> node 2"));
    assert_eq!(
        actual,
        include_str!("golden/trace_fig9_10_seed5_budget8.txt"),
        "trace of fig9 size 10 seed 5 at budget 8 drifted from the golden"
    );
}

#[test]
fn normalize_timing_only_touches_the_timing_field() {
    let s = "{\n  \"synthesis_micros\": 123456,\n  \"other\": 123\n}";
    assert_eq!(
        normalize_timing(s),
        "{\n  \"synthesis_micros\": 0,\n  \"other\": 123\n}"
    );
}
