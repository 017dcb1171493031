//! Open-loop lateness accounting: latency runs from each request's due
//! time, so a sender stall is charged to every request queued behind it,
//! and the lateness tracker reports how far behind the sender ran.

use perfbench::openloop::{Lateness, Schedule};

const MS: u64 = 1_000_000;

#[test]
fn schedule_spaces_requests_evenly() {
    let s = Schedule::new(1000.0);
    assert_eq!(s.due(0), 0);
    assert_eq!(s.due(7), 7 * MS);
    assert_eq!(s.count_within(2.5), 2500);
    let achieved = Schedule::achieved_rate(1000, 1_000 * MS);
    assert!((achieved - 1000.0).abs() < 1e-9);
}

#[test]
fn a_sender_stall_is_charged_to_later_requests() {
    // 1000 req/s. The sender runs on time for requests 0..10, then stalls
    // until t = 50 ms and sends 10..50 at once; the server answers each
    // request 0.1 ms after it is sent.
    let s = Schedule::new(1000.0);
    let mut late = Lateness::default();
    let (mut lat, mut from_send) = (Vec::new(), Vec::new());
    for i in 0..50usize {
        let sent = if i < 10 { s.due(i) } else { 50 * MS };
        late.note(s.due(i), sent);
        let done = sent + MS / 10;
        lat.push(s.latency(i, done));
        from_send.push(done - sent);
    }
    assert_eq!(
        lat[5],
        MS / 10,
        "on-time requests see only the service time"
    );
    // Request 10 was due at 10 ms and answered at 50.1 ms.
    assert_eq!(lat[10], 40 * MS + MS / 10);
    assert_eq!(lat[49], MS + MS / 10);
    assert_eq!(late.max_ns, 40 * MS, "the worst request left 40 ms late");
    assert_eq!(
        late.late_1ms, 39,
        "requests 10..49 left more than 1 ms late"
    );
    assert_eq!(lat.iter().filter(|&&l| l > MS).count(), 40);
    // Timing from the actual send would have hidden the stall entirely.
    assert!(from_send.iter().all(|&l| l == MS / 10));
}

#[test]
fn early_completion_never_underflows() {
    let s = Schedule::new(100.0);
    assert_eq!(s.latency(3, 0), 0);
    let mut late = Lateness::default();
    late.note(10 * MS, 5 * MS);
    assert_eq!(late.max_ns, 0);
}
