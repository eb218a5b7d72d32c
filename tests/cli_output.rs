//! The `cluster-eval` binary's stdout contract: a reader that stops early
//! (`cluster-eval list | head -2`) ends the command quietly — exit 0 and
//! no panic report on stderr — instead of the "failed printing to stdout"
//! panic `println!` raises on a broken pipe.

use std::io::{BufRead, BufReader};
use std::process::{Command, Output, Stdio};

fn assert_quiet(out: &Output) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
    assert!(
        out.status.success(),
        "status {:?}, stderr: {stderr}",
        out.status
    );
}

#[test]
fn reading_one_line_then_closing_stdout_is_quiet() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_cluster-eval"))
        .arg("list")
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn cluster-eval");
    let mut first = String::new();
    BufReader::new(child.stdout.take().expect("piped stdout"))
        .read_line(&mut first)
        .expect("read the first line");
    assert_eq!(first, "paper artifacts:\n");
    assert_quiet(&child.wait_with_output().expect("wait for cluster-eval"));
}

#[test]
fn stdout_closed_before_the_first_write_is_quiet() {
    // The read end is gone before the command starts, so every write it
    // makes meets a broken pipe — the deterministic form of the case above.
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    let out = Command::new(env!("CARGO_BIN_EXE_cluster-eval"))
        .arg("list")
        .stdout(writer)
        .stderr(Stdio::piped())
        .output()
        .expect("run cluster-eval");
    assert_quiet(&out);
}
