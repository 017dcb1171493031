//! Open-loop schedule and lateness accounting.
//!
//! Request `i` is due at `i / rate` seconds after the start. Its latency
//! is measured from that due time, not from when it was actually sent, so
//! a stall that delays the sender charges its wait to every request
//! queued behind it. How far behind schedule the sender ran is reported
//! separately as the generator's lateness.

use std::time::{Duration, Instant};

/// A constant-rate schedule.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    interval_ns: f64,
}

impl Schedule {
    /// `rate` requests per second.
    pub fn new(rate: f64) -> Self {
        assert!(rate > 0.0, "rate must be positive");
        Schedule {
            interval_ns: 1e9 / rate,
        }
    }

    /// Requests due within `secs` seconds.
    pub fn count_within(&self, secs: f64) -> usize {
        (secs * 1e9 / self.interval_ns) as usize
    }

    /// When request `i` is due, in ns since the start.
    pub fn due(&self, i: usize) -> u64 {
        (i as f64 * self.interval_ns) as u64
    }

    /// Request `i`'s latency if it completed at `done` (ns since start).
    pub fn latency(&self, i: usize, done: u64) -> u64 {
        done.saturating_sub(self.due(i))
    }

    /// The rate the run achieved: requests completed over the span from
    /// the start to the last completion.
    pub fn achieved_rate(completed: usize, last_done_ns: u64) -> f64 {
        if last_done_ns == 0 {
            return 0.0;
        }
        completed as f64 / (last_done_ns as f64 / 1e9)
    }
}

/// How late the sender ran: the worst `sent - due` over all requests.
#[derive(Debug, Clone, Copy, Default)]
pub struct Lateness {
    /// Worst lateness seen, ns.
    pub max_ns: u64,
    /// Requests sent more than 1 ms late.
    pub late_1ms: u64,
}

impl Lateness {
    /// Records that the request due at `due` left at `sent`.
    pub fn note(&mut self, due: u64, sent: u64) {
        let lag = sent.saturating_sub(due);
        self.max_ns = self.max_ns.max(lag);
        if lag > 1_000_000 {
            self.late_1ms += 1;
        }
    }
}

/// Waits until `due` ns after `start`: sleeps while far off, then
/// yields, so on a small machine the wait leaves the cores to the server.
pub fn pace(start: Instant, due: u64) {
    loop {
        let now = start.elapsed().as_nanos() as u64;
        if now >= due {
            return;
        }
        let left = due - now;
        if left > 120_000 {
            std::thread::sleep(Duration::from_nanos(left - 100_000));
        } else {
            std::thread::yield_now();
        }
    }
}
