//! The percentile rank rule: nearest rank, failures at +∞, and a tail
//! reported at the highest percentile (99 at most) that keeps at least
//! ten samples beyond it; a lone sample reads back within 1/EXACT of
//! what was recorded, and exactly below EXACT ns.

use perfbench::stats::{
    low_mean, rank, tail_percentile, trimmed_mean, windowed, Keep, Samples, EXACT,
};

#[test]
fn nearest_rank() {
    assert_eq!(rank(50.0, 10), 5);
    assert_eq!(rank(99.0, 1000), 990);
    assert_eq!(rank(99.0, 999), 990); // ceil(989.01)
    assert_eq!(rank(50.0, 1), 1);
}

#[test]
fn tail_keeps_ten_samples_beyond_it() {
    assert_eq!(tail_percentile(1000), 99.0); // 10 beyond rank 990
    assert_eq!(tail_percentile(999), 95.0); // only 9 beyond p99's rank
    assert_eq!(tail_percentile(200), 95.0); // 10 beyond rank 190
    assert_eq!(tail_percentile(199), 90.0);
    assert_eq!(tail_percentile(100_000), 99.0, "never above the named p99");
    assert_eq!(tail_percentile(15), 50.0, "too few samples: the median");
    for n in [20usize, 40, 100, 101, 1000, 12_345] {
        let p = tail_percentile(n);
        assert!(n - rank(p, n) >= 10, "n={n} p={p}");
    }
}

#[test]
fn summary_picks_the_tail_and_counts_samples() {
    let mut s = Samples::new();
    for i in 1..=1000u64 {
        s.add_ns(i * 1000);
    }
    let sum = s.summary(1e3).unwrap();
    assert_eq!(sum.n, 1000);
    assert_eq!(sum.tail_p, 99.0);
    assert_close(sum.p50, 500.0);
    assert_close(sum.tail, 990.0);
}

fn assert_close(got: f64, want: f64) {
    assert!(
        (got - want).abs() <= want / EXACT as f64,
        "{got} is not within 1/{EXACT} of {want}"
    );
}

#[test]
fn samples_keep_their_value_to_within_one_part_in_exact() {
    let mut ns = 1u64;
    while ns < u32::MAX as u64 {
        for v in [ns, ns + ns / 3, ns * 2 - 1] {
            let mut s = Samples::new();
            s.add_ns(v);
            let got = s.summary(1.0).unwrap().p50;
            if v < EXACT {
                assert_eq!(got, v as f64, "below {EXACT} ns samples are exact");
            } else {
                assert_close(got, v as f64);
            }
        }
        ns *= 2;
    }
    let mut s = Samples::new();
    s.add_ns(u64::MAX);
    assert_close(s.summary(1.0).unwrap().p50, u32::MAX as f64);
}

#[test]
fn failures_count_as_infinitely_slow() {
    let mut s = Samples::new();
    for i in 1..=990u64 {
        s.add_ns(i);
    }
    for _ in 0..10 {
        s.fail();
    }
    let sum = s.summary(1.0).unwrap();
    assert_eq!((sum.n, sum.failed), (1000, 10));
    assert_close(sum.tail, 990.0); // rank 990 is the last success
    s.fail();
    let sum = s.summary(1.0).unwrap();
    assert_eq!(sum.n, 1001);
    // Rank ceil(0.99 * 1001) = 991 falls on a failure.
    assert!(sum.tail.is_infinite());
    assert!(Samples::new().summary(1.0).is_none());
}

/// One window per base latency, 100 samples each: `base` and `base + 1`.
fn windows(bases: &[u64]) -> Vec<Samples> {
    bases
        .iter()
        .map(|&base| {
            let mut s = Samples::new();
            for i in 0..100 {
                s.add_ns(base + i % 2);
            }
            s
        })
        .collect()
}

#[test]
fn windows_report_the_middle_windows() {
    let ws = windows(&[10, 20, 1000]);
    let sum = windowed(&ws, 1.0, Keep::MiddleHalf).unwrap();
    assert_eq!(sum.n, 300);
    assert_eq!(sum.p50, 20.0, "the stalled window does not move the result");
    assert_eq!(
        sum.tail_p, 90.0,
        "100 samples per window: p90 leaves exactly 10"
    );
    assert_eq!(sum.tail, 21.0);
}

#[test]
fn short_windows_report_the_fastest_quarter() {
    // Three fast-spell windows among eight slow ones and a stall: the
    // fastest quarter (two of eleven) is the fast spell alone.
    let mut bases = vec![10, 10, 10];
    bases.extend([15; 8]);
    bases.push(1000);
    let sum = windowed(&windows(&bases), 1.0, Keep::FastestQuarter).unwrap();
    assert_eq!(sum.n, 1200);
    assert_eq!(sum.p50, 10.0);
    assert_eq!(sum.tail, 11.0);
    // The middle half moves with the share of slow windows.
    let mid = windowed(&windows(&bases), 1.0, Keep::MiddleHalf).unwrap();
    assert!(mid.p50 > 14.0, "{}", mid.p50);
}

#[test]
fn low_mean_keeps_the_lowest_share() {
    assert_eq!(low_mean(&[], 0.25), 0.0);
    assert_eq!(low_mean(&[7.0], 0.25), 7.0, "at least one value");
    assert_eq!(
        low_mean(&[9.0, 1.0, 5.0, 3.0, 100.0, 7.0, 2.0, 8.0], 0.25),
        1.5
    );
}

#[test]
fn trimmed_mean_drops_the_extremes_and_follows_the_modes() {
    assert_eq!(trimmed_mean(&[], 0.1), 0.0);
    assert_eq!(trimmed_mean(&[4.0, 6.0], 0.1), 5.0);
    assert_eq!(trimmed_mean(&[1.0, 5.0, 100.0], 0.1), 5.0);
    assert_eq!(trimmed_mean(&[1.0, 5.0, 100.0], 0.5), 5.0, "never all");
    // Eleven restarts: one dropped each way, then the mean of the rest.
    let mut xs = vec![40.0; 5];
    xs.extend([60.0; 5]);
    xs.push(500.0);
    assert_eq!(trimmed_mean(&xs, 0.1), (4.0 * 40.0 + 5.0 * 60.0) / 9.0);
    // Sixteen windows: the middle half, so four stalled windows drop out.
    let mut ws: Vec<f64> = (1..=12).map(f64::from).collect();
    ws.extend([1e6; 4]);
    assert_eq!(trimmed_mean(&ws, 0.25), (5..=12).sum::<i32>() as f64 / 8.0);
}
