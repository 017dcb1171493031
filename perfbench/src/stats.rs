//! Latency samples and the percentile rules the benchmark reports by.
//!
//! * A percentile is the nearest-rank order statistic: the `p`-th
//!   percentile of `n` samples is the `ceil(p/100 * n)`-th smallest.
//! * A failed request is a sample at +∞: it is past every latency limit.
//! * A tail metric is named for the 99th percentile. It is reported at
//!   the highest percentile of [`TAIL_LADDER`] (99 at most) that keeps at
//!   least [`MIN_BEYOND`] samples beyond it, so a tail is never one lucky
//!   or unlucky sample; below that, the median stands in.
//! * Samples live in a fixed-size histogram ([`Samples`]), so a
//!   percentile reads back within 2/[`EXACT`] of the exact order
//!   statistic.

/// Candidate tail percentiles, highest first.
pub const TAIL_LADDER: &[f64] = &[99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples a reported tail must keep beyond its rank.
pub const MIN_BEYOND: usize = 10;

/// The 1-based nearest rank of percentile `p` among `n` samples.
pub fn rank(p: f64, n: usize) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// The highest percentile of [`TAIL_LADDER`] with at least
/// [`MIN_BEYOND`] of `n` samples beyond its rank; 50 when none has.
pub fn tail_percentile(n: usize) -> f64 {
    TAIL_LADDER
        .iter()
        .copied()
        .find(|&p| n.saturating_sub(rank(p, n)) >= MIN_BEYOND)
        .unwrap_or(50.0)
}

/// A percentile summary of one timing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Median, in the samples' unit (+∞ if failures reach it).
    pub p50: f64,
    /// The tail percentile reported ([`tail_percentile`] of `n`).
    pub tail_p: f64,
    /// The value at `tail_p`.
    pub tail: f64,
    /// Samples, failures included.
    pub n: usize,
    /// Failed requests among them (counted at +∞).
    pub failed: u64,
}

/// Latency samples in nanoseconds, kept in a fixed-size histogram, plus
/// failures at +∞.
///
/// Latencies below [`EXACT`] ns keep their exact value; above that, each
/// power of two is split into [`EXACT`]` / 2` equal buckets. A rank that
/// falls in a bucket reads back interpolated across the bucket's width,
/// as if its samples were spread evenly: within one bucket width (at
/// most 2/[`EXACT`] of the value) of the exact order statistic, and
/// within 1/[`EXACT`] when the bucket holds one sample. Latencies are capped at `u32::MAX` ns (4.3 s). The
/// memory a `Samples` takes does not depend on how many samples it holds,
/// so a faster program never makes the benchmark itself bigger.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    /// Count per bucket; empty until the first sample.
    counts: Vec<u32>,
    /// Completed samples (the sum of `counts`).
    n: u64,
    failed: u64,
}

/// Latencies below this many ns are recorded exactly.
pub const EXACT: u64 = 512;
/// Buckets per power of two above [`EXACT`].
const SUB: u64 = EXACT / 2;
/// Buckets, enough for every `u32` latency.
const BUCKETS: usize = (EXACT + (31 - EXACT.trailing_zeros() as u64 + 1) * SUB) as usize;

/// The bucket of latency `ns`.
fn bucket(ns: u64) -> usize {
    if ns < EXACT {
        return ns as usize;
    }
    let e = 63 - ns.leading_zeros() as u64;
    let shift = e + 1 - EXACT.trailing_zeros() as u64;
    (EXACT + (shift - 1) * SUB + ((ns >> shift) - SUB)) as usize
}

/// The lowest latency of bucket `b` and the bucket's width.
fn bounds(b: usize) -> (f64, f64) {
    let b = b as u64;
    if b < EXACT {
        return (b as f64, 0.0);
    }
    let shift = (b - EXACT) / SUB + 1;
    let low = (SUB + (b - EXACT) % SUB) << shift;
    (low as f64, (1u64 << shift) as f64)
}

impl Samples {
    /// Empty.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one completed request's latency.
    pub fn add_ns(&mut self, ns: u64) {
        if self.counts.is_empty() {
            self.counts = vec![0; BUCKETS];
        }
        self.counts[bucket(ns.min(u32::MAX as u64))] += 1;
        self.n += 1;
    }

    /// Records one failed request (a sample at +∞).
    pub fn fail(&mut self) {
        self.failed += 1;
    }

    /// Adds `other`'s samples to `self`.
    pub fn merge(&mut self, other: Samples) {
        if self.counts.is_empty() {
            self.counts = other.counts;
        } else {
            for (a, b) in self.counts.iter_mut().zip(&other.counts) {
                *a += b;
            }
        }
        self.n += other.n;
        self.failed += other.failed;
    }

    /// Samples, failures included.
    pub fn len(&self) -> usize {
        (self.n + self.failed) as usize
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The percentile summary, scaled by `unit_ns` (1000 for µs). `None`
    /// when nothing was recorded.
    pub fn summary(&self, unit_ns: f64) -> Option<Summary> {
        let n = self.len();
        if n == 0 {
            return None;
        }
        let tail_p = tail_percentile(n);
        let p50 = self.at_rank(rank(50.0, n)) / unit_ns;
        let tail = self.at_rank(rank(tail_p, n)) / unit_ns;
        Some(Summary {
            p50,
            tail_p,
            tail,
            n,
            failed: self.failed,
        })
    }

    /// The `r`-th smallest sample (1-based), failures sorting last.
    fn at_rank(&self, r: usize) -> f64 {
        if r as u64 > self.n {
            return f64::INFINITY;
        }
        let mut seen = 0;
        for (b, &c) in self.counts.iter().enumerate() {
            let c = c as u64;
            if seen + c >= r as u64 {
                let (low, width) = bounds(b);
                return low + width * ((r as u64 - seen) as f64 - 0.5) / c as f64;
            }
            seen += c;
        }
        unreachable!("rank {r} within {} samples", self.n)
    }
}

/// Which of a run's windows a windowed timing averages.
///
/// A shared 2-vCPU x86-64 VM, as the benchmark was defined on, runs in
/// spells of about a second, fast or slow (a 10-key scan takes about 1.5
/// times as long in a slow spell), and the share of slow spells varies
/// from run to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Keep {
    /// The middle half (the interquartile mean, see [`trimmed_mean`]):
    /// for windows long enough to mix fast and slow spells. A window that
    /// a transient stall hit falls in the trimmed quarters.
    MiddleHalf,
    /// The fastest quarter (see [`low_mean`]): for windows so short that
    /// each lands wholly in one spell. Their p50s are then bimodal, and a
    /// mean of the middle half moves with the run's share of slow spells;
    /// the fastest quarter reads the program's speed in a fast spell as
    /// long as a quarter of the windows found one.
    FastestQuarter,
}

impl Keep {
    /// The mean of the windows' values `xs` this rule keeps.
    pub fn mean(self, xs: &[f64]) -> f64 {
        match self {
            Keep::MiddleHalf => trimmed_mean(xs, 0.25),
            Keep::FastestQuarter => low_mean(xs, 0.25),
        }
    }
}

/// The summary of a timing measured in several windows of one run: the
/// mean over the windows `keep` keeps of each window's p50, and likewise
/// of each window's tail. The tail percentile is the lowest any window
/// could report; `n` and `failed` are totals.
pub fn windowed(windows: &[Samples], unit_ns: f64, keep: Keep) -> Option<Summary> {
    let sums: Vec<Summary> = windows.iter().filter_map(|w| w.summary(unit_ns)).collect();
    if sums.is_empty() {
        return None;
    }
    let tail_p = sums.iter().map(|s| s.tail_p).fold(f64::INFINITY, f64::min);
    let tails: Vec<f64> = windows
        .iter()
        .filter(|w| !w.is_empty())
        .map(|w| w.at_rank(rank(tail_p, w.len())) / unit_ns)
        .collect();
    let p50s: Vec<f64> = sums.iter().map(|s| s.p50).collect();
    Some(Summary {
        p50: keep.mean(&p50s),
        tail_p,
        tail: keep.mean(&tails),
        n: sums.iter().map(|s| s.n).sum(),
        failed: sums.iter().map(|s| s.failed).sum(),
    })
}

/// Share of restarts the restart metrics drop at each end.
pub const RESTART_TRIM: f64 = 0.1;

/// The mean of `xs` without its lowest and highest `share` (at least one
/// value each way once there are three, never all); 0 for an empty
/// slice.
///
/// Restart timings are bimodal on a shared machine: a restart lands in a
/// fast or a slow mode, and the share of each varies from run to run. A
/// median of such samples jumps between the modes; a mean moves with the
/// share, and trimming keeps stray samples from moving it.
pub fn trimmed_mean(xs: &[f64], share: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    let cut = if n >= 3 {
        ((n as f64 * share) as usize).max(1).min((n - 1) / 2)
    } else {
        0
    };
    let kept = &v[cut..n - cut];
    kept.iter().sum::<f64>() / kept.len() as f64
}

/// The mean of the lowest `share` of `xs` (at least one value); 0 for an
/// empty slice.
pub fn low_mean(xs: &[f64], share: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let kept = &v[..((v.len() as f64 * share) as usize).max(1)];
    kept.iter().sum::<f64>() / kept.len() as f64
}

/// The median of `xs` (mean of the middle pair for even counts); 0 for
/// an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}
