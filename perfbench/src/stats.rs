//! Order statistics and the due-time latency accounting every workload
//! shares.

/// The fewest samples a reported percentile must have beyond it.
pub const MIN_BEYOND: usize = 10;

/// Sorts samples ascending (NaN-free input; `total_cmp` keeps it total).
pub fn sorted(mut samples: Vec<f64>) -> Vec<f64> {
    samples.sort_by(f64::total_cmp);
    samples
}

/// The nearest-rank index of the `p`-th percentile in `n` samples.
fn rank(n: usize, p: f64) -> usize {
    (((p / 100.0) * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank percentile of ascending `sorted`: the smallest sample
/// with at least `p` % of the samples at or below it. `0.0` when empty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(sorted.len(), p) - 1]
}

/// How many of `n` samples lie beyond the `p`-th percentile's rank.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - rank(n, p)
}

/// Whether `n` samples support reporting the `p`-th percentile.
pub fn supports(n: usize, p: f64) -> bool {
    beyond(n, p) >= MIN_BEYOND
}

/// Median of unsorted samples (`0.0` when empty).
pub fn median(samples: &[f64]) -> f64 {
    percentile(&sorted(samples.to_vec()), 50.0)
}

/// What happened to one request of a load loop. Times are seconds from
/// the loop's start.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// When the schedule said to send it (closed loop: when it was sent).
    pub due: f64,
    /// When it actually left the client.
    pub sent: f64,
    /// When its reply line was read, if it was.
    pub replied: Option<f64>,
    /// Whether the reply was `ok` and passed the output check.
    pub ok: bool,
}

impl Outcome {
    /// Latency in ms, measured from the due time so that a stall also
    /// delays every request queued behind it. A request without an ok
    /// reply misses every latency limit: `+inf`.
    pub fn latency_ms(&self) -> f64 {
        match self.replied {
            Some(at) if self.ok => (at - self.due) * 1e3,
            _ => f64::INFINITY,
        }
    }

    /// How far behind schedule the generator sent it, in ms.
    pub fn late_ms(&self) -> f64 {
        ((self.sent - self.due) * 1e3).max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), 50.0);
        assert_eq!(percentile(&s, 99.0), 99.0);
        assert_eq!(percentile(&s, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn the_reported_tail_has_ten_samples_beyond_it() {
        // p99 needs 1000 samples, p90 needs 100: below that the rule fails.
        assert!(supports(1000, 99.0));
        assert!(!supports(999, 99.0));
        assert!(supports(100, 90.0));
        assert!(!supports(99, 90.0));
        assert_eq!(beyond(1000, 99.0), 10);
        assert!(!supports(0, 50.0));
    }

    #[test]
    fn a_stalled_reply_delays_every_later_request() {
        // Replies on one connection come back in request order, so a
        // 50 ms stall on request 1 holds back requests 2 and 3 too, and
        // request 3 also left the client late. Latency counts from the
        // due time, so both the stall and the late send show.
        let due = [0.000, 0.001, 0.002, 0.003];
        let sent = [0.000, 0.001, 0.002, 0.040];
        let replied = [0.0005, 0.051, 0.0511, 0.0512];
        let lat: Vec<f64> = (0..4)
            .map(|i| {
                Outcome {
                    due: due[i],
                    sent: sent[i],
                    replied: Some(replied[i]),
                    ok: true,
                }
                .latency_ms()
            })
            .collect();
        assert!((lat[0] - 0.5).abs() < 1e-9);
        for (i, &l) in lat.iter().enumerate().skip(1) {
            assert!(l > 48.0, "request {i} hides the stall: {l} ms");
        }
        let late = Outcome {
            due: due[3],
            sent: sent[3],
            replied: Some(replied[3]),
            ok: true,
        };
        assert!((late.late_ms() - 37.0).abs() < 1e-9);
        assert!(
            (late.latency_ms() - 48.2).abs() < 1e-9,
            "not from send time"
        );
    }

    #[test]
    fn an_overloaded_or_missing_reply_is_a_miss() {
        let shed = Outcome {
            due: 0.0,
            sent: 0.0,
            replied: Some(0.001),
            ok: false,
        };
        assert_eq!(shed.latency_ms(), f64::INFINITY);
        let lost = Outcome {
            due: 0.0,
            sent: 0.0,
            replied: None,
            ok: true,
        };
        assert_eq!(lost.latency_ms(), f64::INFINITY);
        // One miss in 100 lands in the p99 and above, never below it.
        let mut lat: Vec<f64> = (0..99).map(|_| 1.0).collect();
        lat.push(shed.latency_ms());
        let lat = sorted(lat);
        assert_eq!(percentile(&lat, 99.0), 1.0);
        assert_eq!(percentile(&lat, 100.0), f64::INFINITY);
    }
}
