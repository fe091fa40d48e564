//! A state whose only overloaded cuts separate several demands at once,
//! answered by the daemon without an LP.
//!
//! `examples/serve/cut-condition.jsonl` replaces the boot demands with
//! 15→19, 1→14, 0→43 and 19→47 (10 units each), breaks edges 3, 12,
//! 30, 51 and 56 of Bell, and asks whether the state is routable. Each
//! demand's own min cut is 20, so no single demand is overloaded and no
//! routing order fits; the split {0, 1, 19} against {14, 15, 43, 47} of
//! the endpoints is crossed by 40 units over a min cut of 30. The exact
//! oracle's terminal-split tier (DESIGN.md §2) refutes it with that cut,
//! where an oracle without the tier solves one LP.

use std::io::Write;
use std::process::{Command, Stdio};

const STREAM: &str = include_str!("../../../examples/serve/cut-condition.jsonl");

/// The daemon binary under test.
const BIN: &str = env!("CARGO_BIN_EXE_netrec-cli");

fn replay(workers: &str) -> String {
    let mut child = Command::new(BIN)
        .args([
            "serve",
            "--topology",
            "bell",
            "--pairs",
            "4",
            "--flow",
            "10",
            "--seed",
            "42",
            "--workers",
            workers,
        ])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn daemon");
    child
        .stdin
        .take()
        .expect("stdin piped")
        .write_all(STREAM.as_bytes())
        .expect("write stream");
    let out = child.wait_with_output().expect("wait for daemon");
    assert!(out.status.success(), "daemon exit: {:?}", out.status);
    String::from_utf8(out.stdout).expect("replies are UTF-8")
}

#[test]
fn a_cut_across_several_demands_refutes_the_state_without_an_lp() {
    let replies = replay("1");
    assert_eq!(replay("4"), replies, "replies depend on the worker count");
    let lines: Vec<&str> = replies.lines().collect();
    assert_eq!(lines.len(), 4, "{replies}");
    assert!(lines.iter().all(|l| l.contains("\"ok\":true")), "{replies}");
    let query = lines[2];
    assert!(query.contains("\"op\":\"query_routability\""), "{query}");
    assert!(query.contains("\"routable\":false"), "{query}");
    assert!(query.contains("\"lp_solves\":0"), "{query}");
}
