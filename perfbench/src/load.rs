//! Open-loop load over TCP. One thread per connection sends each
//! request when it is due and reads replies as they come; replies on a
//! connection arrive in request order (the daemon's output sequencer),
//! so the k-th reply line answers the k-th request.

use crate::stats::Outcome;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// How long the loop sleeps when nothing is due and no reply is
/// waiting. Replies are timestamped at most this late.
const POLL: Duration = Duration::from_micros(50);

/// One request on the schedule.
#[derive(Debug, Clone)]
pub struct Scheduled {
    /// The request line (no newline).
    pub line: String,
    /// When it is due, in seconds from the phase start.
    pub due: f64,
}

/// One request's fate plus its reply line.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Timing and status.
    pub outcome: Outcome,
    /// The reply line, if one came back.
    pub reply: Option<String>,
}

/// An evenly spaced schedule: `lines` at `rate` per second, starting
/// `offset` seconds into the phase. Even, not random, gaps: a reply's
/// trailing newline waits for the client's next send to carry the ACK,
/// so latency follows the gap to that send, and random gaps make the
/// median swing between runs.
pub fn schedule(lines: Vec<String>, rate: f64, offset: f64) -> Vec<Scheduled> {
    lines
        .into_iter()
        .enumerate()
        .map(|(i, line)| Scheduled {
            line,
            due: offset + i as f64 / rate,
        })
        .collect()
}

/// Drives one connection through `reqs` (ordered by due time), timing
/// from `t0`. Gives up on replies `drain` after the last due time; a
/// request left unanswered has no reply and counts as a miss.
pub fn drive(
    stream: &mut TcpStream,
    reqs: &[Scheduled],
    t0: Instant,
    drain: Duration,
) -> Result<Vec<Sample>, String> {
    stream
        .set_nonblocking(true)
        .map_err(|e| format!("nonblocking: {e}"))?;
    let n = reqs.len();
    let mut out: Vec<Sample> = reqs
        .iter()
        .map(|r| Sample {
            outcome: Outcome {
                due: r.due,
                sent: r.due,
                replied: None,
                ok: false,
            },
            reply: None,
        })
        .collect();
    let last_due = reqs.last().map_or(0.0, |r| r.due);
    let (mut next, mut got) = (0usize, 0usize);
    let mut wbuf: Vec<u8> = Vec::new();
    let mut woff = 0usize;
    let mut rbuf = vec![0u8; 1 << 16];
    let mut pending: Vec<u8> = Vec::new();
    loop {
        let now = t0.elapsed().as_secs_f64();
        while next < n && reqs[next].due <= now {
            wbuf.extend_from_slice(reqs[next].line.as_bytes());
            wbuf.push(b'\n');
            out[next].outcome.sent = now;
            next += 1;
        }
        while woff < wbuf.len() {
            match stream.write(&wbuf[woff..]) {
                Ok(k) => woff += k,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) => return Err(format!("send: {e}")),
            }
        }
        if woff == wbuf.len() {
            wbuf.clear();
            woff = 0;
        }
        let mut read_any = false;
        loop {
            match stream.read(&mut rbuf) {
                Ok(0) => return Err("daemon closed the connection".to_string()),
                Ok(k) => {
                    read_any = true;
                    let at = t0.elapsed().as_secs_f64();
                    pending.extend_from_slice(&rbuf[..k]);
                    let mut start = 0;
                    while let Some(pos) = pending[start..].iter().position(|&b| b == b'\n') {
                        if got < n {
                            let line = String::from_utf8_lossy(&pending[start..start + pos]);
                            out[got].outcome.replied = Some(at);
                            out[got].outcome.ok = line.contains("\"ok\":true");
                            out[got].reply = Some(line.into_owned());
                            got += 1;
                        }
                        start += pos + 1;
                    }
                    pending.drain(..start);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) => return Err(format!("receive: {e}")),
            }
        }
        if got == n {
            break;
        }
        let now = t0.elapsed().as_secs_f64();
        if next == n && now > last_due + drain.as_secs_f64() {
            break;
        }
        let until_due = if next < n {
            reqs[next].due - now
        } else {
            f64::INFINITY
        };
        if !read_any && until_due > 0.0 && woff == 0 {
            std::thread::sleep(POLL.min(Duration::from_secs_f64(until_due.min(1.0))));
        }
    }
    stream
        .set_nonblocking(false)
        .map_err(|e| format!("blocking: {e}"))?;
    Ok(out)
}
