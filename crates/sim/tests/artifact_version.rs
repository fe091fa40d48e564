//! `precompute` writes payload version 2, and the daemon refuses an
//! artifact whose header says version 1 at boot: a usage error (exit 2)
//! whose message tells the operator to re-run `precompute`.

use std::process::{Command, Stdio};

/// The binary under test.
const BIN: &str = env!("CARGO_BIN_EXE_netrec-cli");

const INSTANCE: [&str; 8] = [
    "--topology",
    "bell",
    "--pairs",
    "4",
    "--flow",
    "10",
    "--seed",
    "42",
];

#[test]
fn serve_refuses_a_version_1_artifact_with_exit_2() {
    let dir = std::env::temp_dir().join(format!("netrec-artifact-version-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let current = dir.join("bell.nra");
    let out = Command::new(BIN)
        .arg("precompute")
        .args(INSTANCE)
        .arg("--out")
        .arg(&current)
        .output()
        .expect("run precompute");
    assert!(out.status.success(), "precompute: {:?}", out.status);
    let bytes = std::fs::read(&current).unwrap();
    let header_end = bytes.iter().position(|&b| b == b'\n').unwrap();
    let header = std::str::from_utf8(&bytes[..header_end]).unwrap();
    assert!(
        header.starts_with("NETRECBOX1 routability-artifact 2 "),
        "{header}"
    );

    // The same file with only its header's version edited back to 1.
    let old = dir.join("bell-v1.nra");
    let mut edited = header
        .replacen("routability-artifact 2", "routability-artifact 1", 1)
        .into_bytes();
    edited.extend_from_slice(&bytes[header_end..]);
    std::fs::write(&old, edited).unwrap();
    let out = Command::new(BIN)
        .arg("serve")
        .args(INSTANCE)
        .arg("--artifact")
        .arg(&old)
        .stdin(Stdio::null())
        .output()
        .expect("run serve");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("version 1"), "{stderr}");
    assert!(stderr.contains("netrec-cli precompute"), "{stderr}");
    assert!(out.stdout.is_empty(), "a refused boot answers nothing");
    let _ = std::fs::remove_dir_all(&dir);
}
