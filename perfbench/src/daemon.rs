//! The real `netrec-cli serve` daemon as a child process.

use std::fs::File;
use std::io::{BufRead, BufReader, Write};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// Kernel clock ticks per second for `/proc/*/stat` CPU fields (the
/// Linux ABI value).
const CLK_TCK: f64 = 100.0;
/// How long a daemon may take to exit after `shutdown` before it is
/// killed.
const EXIT_GRACE: Duration = Duration::from_secs(10);

/// A running daemon: its stdin/stdout are the pipe transport, its
/// stderr goes to a file (banner, bound TCP address, shutdown summary).
pub struct Daemon {
    child: Child,
    stdin: ChildStdin,
    stdout: BufReader<ChildStdout>,
    stderr_path: PathBuf,
}

impl Daemon {
    /// Spawns `cli serve ARGS` and waits for its reply to a `health`
    /// probe on stdin. Returns the daemon and the time from spawn to
    /// that reply — the set-up time a user waits for.
    pub fn boot(cli: &Path, args: &[String], stderr_path: &Path) -> Result<(Daemon, f64), String> {
        let stderr = File::create(stderr_path).map_err(|e| format!("stderr file: {e}"))?;
        let started = Instant::now();
        let mut child = Command::new(cli)
            .arg("serve")
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::from(stderr))
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", cli.display()))?;
        let stdin = child.stdin.take().expect("stdin is piped");
        let stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut daemon = Daemon {
            child,
            stdin,
            stdout,
            stderr_path: stderr_path.to_path_buf(),
        };
        let reply = daemon.request(r#"{"v":1,"id":"boot","op":"health"}"#)?;
        let setup = started.elapsed().as_secs_f64();
        if !reply.contains("\"ok\":true") {
            return Err(format!("health probe failed: {reply}"));
        }
        Ok((daemon, setup))
    }

    /// One closed-loop round trip over the stdin/stdout pipe.
    pub fn request(&mut self, line: &str) -> Result<String, String> {
        self.stdin
            .write_all(format!("{line}\n").as_bytes())
            .and_then(|()| self.stdin.flush())
            .map_err(|e| format!("daemon stdin: {e}; stderr: {}", self.stderr()))?;
        let mut reply = String::new();
        match self.stdout.read_line(&mut reply) {
            Ok(0) | Err(_) => Err(format!("daemon closed stdout; stderr: {}", self.stderr())),
            Ok(_) => Ok(reply.trim_end().to_string()),
        }
    }

    /// The daemon's stderr so far.
    pub fn stderr(&self) -> String {
        std::fs::read_to_string(&self.stderr_path).unwrap_or_default()
    }

    /// The TCP address the daemon bound (`--tcp 127.0.0.1:0`), read from
    /// its stderr; present once boot has answered.
    pub fn tcp_addr(&self) -> Result<SocketAddr, String> {
        let text = self.stderr();
        text.lines()
            .find_map(|l| l.strip_prefix("serve: listening on "))
            .and_then(|a| a.trim().parse().ok())
            .ok_or_else(|| format!("no listening address in daemon stderr: {text}"))
    }

    /// The daemon's user + system CPU seconds so far.
    pub fn cpu_seconds(&self) -> f64 {
        proc_cpu_seconds(&self.child.id().to_string())
    }

    /// The daemon's peak resident set (`VmHWM`) in MB.
    pub fn peak_rss_mb(&self) -> f64 {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .unwrap_or_default();
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map_or(0.0, |kb| kb / 1024.0)
    }

    /// Sends `shutdown` and waits for the process to exit (killing it
    /// after a grace period).
    pub fn shutdown(mut self) -> Result<(), String> {
        let reply = self.request(r#"{"v":1,"id":"bye","op":"shutdown"}"#)?;
        if !reply.contains("\"ok\":true") {
            return Err(format!("shutdown refused: {reply}"));
        }
        let deadline = Instant::now() + EXIT_GRACE;
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("daemon exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                _ => return Err("daemon did not exit after shutdown".to_string()),
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// Boots `cli serve ARGS`, shuts it down again, and returns its set-up
/// time (spawn → first `health` reply).
pub fn boot_time(cli: &Path, args: &[String], stderr_path: &Path) -> Result<f64, String> {
    let (daemon, setup) = Daemon::boot(cli, args, stderr_path)?;
    daemon.shutdown()?;
    Ok(setup)
}

/// User + system CPU seconds of process `pid` (`"self"` for this one).
pub fn proc_cpu_seconds(pid: &str) -> f64 {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).unwrap_or_default();
    // Fields after the parenthesised command name start at field 3;
    // utime and stime are fields 14 and 15.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|v| v.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) / CLK_TCK
}

/// Copies a flat directory (a WAL: segments plus checkpoint).
pub fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    std::fs::create_dir_all(to).map_err(|e| format!("{}: {e}", to.display()))?;
    for entry in std::fs::read_dir(from).map_err(|e| format!("{}: {e}", from.display()))? {
        let entry = entry.map_err(|e| e.to_string())?;
        std::fs::copy(entry.path(), to.join(entry.file_name()))
            .map_err(|e| format!("copy {}: {e}", entry.path().display()))?;
    }
    Ok(())
}
