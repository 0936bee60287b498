//! The `ftqs` binary prints the usage text after a malformed command line
//! and only then: a spec or synthesis error keeps its one-line diagnosis.

use std::io::Write;
use std::process::{Command, Stdio};

/// Runs `ftqs` with `args` and `stdin`; returns (success, stderr).
fn ftqs(args: &[&str], stdin: &str) -> (bool, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_ftqs"))
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("ftqs starts");
    child
        .stdin
        .take()
        .unwrap()
        .write_all(stdin.as_bytes())
        .unwrap();
    let out = child.wait_with_output().unwrap();
    (out.status.success(), String::from_utf8(out.stderr).unwrap())
}

#[test]
fn malformed_command_lines_get_the_usage_text() {
    for args in [
        &["tree", "--example", "--bogus"][..],
        &["tree"],
        &["frobnicate", "--example"],
        &["tree", "--example", "--budget", "abc"],
    ] {
        let (ok, stderr) = ftqs(args, "");
        assert!(!ok, "{args:?} must fail");
        assert!(stderr.starts_with("error: "), "{stderr}");
        assert!(stderr.contains("usage: ftqs"), "{args:?}: {stderr}");
    }
}

#[test]
fn spec_errors_print_only_their_diagnosis() {
    let (ok, stderr) = ftqs(
        &["tree", "-"],
        "period 100\nprocess A hard 5 10 deadline 200\n",
    );
    assert!(!ok);
    assert_eq!(
        stderr,
        "error: line 2: deadline 200ms of process A exceeds period 100ms\n"
    );
}
