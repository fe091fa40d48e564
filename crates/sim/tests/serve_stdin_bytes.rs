//! A line on the daemon's stdin that is not UTF-8 costs one typed
//! `parse` error, not the rest of the stream: the daemon answers every
//! line and still reads the `shutdown` behind it.

use std::io::Write;
use std::process::{Command, Stdio};

/// The daemon binary under test.
const BIN: &str = env!("CARGO_BIN_EXE_netrec-cli");

#[test]
fn a_non_utf8_line_on_stdin_is_answered_and_reading_goes_on() {
    let input: &[u8] = b"{\"v\":1,\"id\":\"a\",\"op\":\"query_routability\"}\n\
        {\"v\":1,\"id\":\"b\xff\",\"op\":\"query_routability\"}\n\
        {\"v\":1,\"id\":\"c\",\"op\":\"query_routability\"}\n\
        {\"v\":1,\"id\":\"z\",\"op\":\"shutdown\"}\n";
    let mut child = Command::new(BIN)
        .args(["serve", "--topology", "bell", "--workers", "2"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn daemon");
    child
        .stdin
        .take()
        .expect("stdin piped")
        .write_all(input)
        .expect("write stream");
    let out = child.wait_with_output().expect("wait for daemon");
    assert!(out.status.success(), "daemon exit: {:?}", out.status);
    let replies = String::from_utf8(out.stdout).expect("replies are UTF-8");
    let lines: Vec<&str> = replies.lines().collect();
    assert_eq!(lines.len(), 4, "{replies}");
    assert!(lines[0].contains("\"id\":\"a\""), "{replies}");
    assert!(lines[1].contains("\"id\":null"), "{replies}");
    assert!(lines[1].contains("\"kind\":\"parse\""), "{replies}");
    assert!(lines[2].contains("\"id\":\"c\""), "{replies}");
    assert!(lines[3].contains("\"id\":\"z\""), "{replies}");
    assert!(lines[3].contains("\"op\":\"shutdown\""), "{replies}");
}
