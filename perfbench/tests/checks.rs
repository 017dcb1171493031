//! A deliberately corrupted value or a missing acknowledged batch fails
//! the run: the checks the workloads apply to what they read back.

use incll::{Options, Store};
use incll_pmem::PArena;
use perfbench::common::{check_scan, first_pass, reopen, ScanBuf};
use perfbench::crash::{
    check_pair, Acked, PassCounts, BATCH_BASE, BATCH_KEYS, PLAIN_KEYS, VALUE_LEN,
};
use perfbench::report::Report;
use perfbench::trace::SpanLog;
use perfbench::value;

fn options() -> Options {
    Options::new()
        .threads(2)
        .log_bytes_per_thread(2 << 20)
        .shards(4)
}

/// A tracked 4-shard store holding the crash workload's preloaded keys,
/// with one acknowledged cross-shard batch, crashed and reopened.
fn crashed_store() -> (PArena, Store, Acked) {
    let arena = PArena::builder()
        .capacity_bytes(96 << 20)
        .tracked(true)
        .build()
        .unwrap();
    let mut acked: Acked = vec![0; BATCH_KEYS as usize];
    {
        let (store, _) = Store::open(&arena, options()).unwrap();
        let sess = store.session().unwrap();
        for idx in (0..PLAIN_KEYS).chain(BATCH_BASE..BATCH_BASE + BATCH_KEYS) {
            store
                .put(&sess, &value::key(idx), &value::make(idx, 0, VALUE_LEN))
                .unwrap();
        }
        store.checkpoint();
        let mut b = sess.batch();
        for k in 0..8u64 {
            let idx = BATCH_BASE + k * 7;
            b.put(&value::key(idx), &value::make(idx, 99, VALUE_LEN))
                .unwrap();
            acked[(k * 7) as usize] = 99;
        }
        b.commit_durable().unwrap();
    }
    arena.crash_seeded(7);
    let mut log = SpanLog::new(false, std::time::Instant::now(), 0);
    let (store, _, _) = reopen(&arena, options(), &mut log).unwrap();
    (arena, store, acked)
}

fn verify(store: &Store, acked: &Acked) -> Report {
    let mut r = Report::new();
    let mut log = SpanLog::new(false, std::time::Instant::now(), 0);
    let mut counts = PassCounts::default();
    first_pass(store, &mut log, &mut r, |idx, v| {
        counts.note(idx);
        check_pair(acked, idx, v)
    })
    .unwrap();
    r.check(counts.check());
    r
}

#[test]
fn acknowledged_batches_survive_and_pass_the_checks() {
    let (_arena, store, acked) = crashed_store();
    assert!(verify(&store, &acked).correct());
}

#[test]
fn a_corrupted_value_fails_the_run() {
    let (_arena, store, acked) = crashed_store();
    let sess = store.session().unwrap();
    let idx = 1234;
    let mut v = value::make(idx, 0, VALUE_LEN);
    v[20] ^= 0xFF;
    store.put(&sess, &value::key(idx), &v).unwrap();
    drop(sess);
    let r = verify(&store, &acked);
    assert!(!r.correct());
    assert!(r.json(false).starts_with("{\"correct\": false"));
}

#[test]
fn a_lost_acknowledged_batch_value_fails_the_run() {
    let (_arena, store, acked) = crashed_store();
    let sess = store.session().unwrap();
    // Roll one acknowledged batch key back to its preloaded version.
    let idx = BATCH_BASE + 7;
    store
        .put(&sess, &value::key(idx), &value::make(idx, 0, VALUE_LEN))
        .unwrap();
    drop(sess);
    assert!(!verify(&store, &acked).correct());
}

#[test]
fn a_missing_acknowledged_batch_key_fails_the_run() {
    let (_arena, store, acked) = crashed_store();
    let sess = store.session().unwrap();
    assert!(store.remove(&sess, &value::key(BATCH_BASE + 14)));
    drop(sess);
    assert!(!verify(&store, &acked).correct());
}

#[test]
fn values_written_for_another_key_are_rejected() {
    let v = value::make(5, 1, 100);
    assert!(value::check(5, &v, 100).is_ok());
    assert!(value::check(6, &v, 100).is_err());
    let v8 = value::make(5, 1, 8);
    assert!(value::check(6, &v8, 8).is_err());
}

fn scan(entries: &[(u64, Vec<u8>)]) -> ScanBuf {
    let mut b = ScanBuf::default();
    for (idx, v) in entries {
        b.push(&value::key(*idx), v);
    }
    b
}

#[test]
fn scans_must_be_dense_ordered_and_well_formed() {
    let good: Vec<(u64, Vec<u8>)> = (40..50).map(|i| (i, value::make(i, 0, 8))).collect();
    assert!(check_scan(40, 1000, &scan(&good), 8).is_ok());
    assert!(
        check_scan(40, 1000, &scan(&good[..9]), 8).is_err(),
        "short scan"
    );
    let mut skipped = good.clone();
    skipped[3].0 = 44;
    assert!(check_scan(40, 1000, &scan(&skipped), 8).is_err(), "gap");
    let mut bad = good.clone();
    bad[9].1 = value::make(48, 0, 8);
    assert!(
        check_scan(40, 1000, &scan(&bad), 8).is_err(),
        "foreign value"
    );
    // Near the end of the key space a scan returns what is left.
    let tail: Vec<(u64, Vec<u8>)> = (995..1000).map(|i| (i, value::make(i, 0, 8))).collect();
    assert!(check_scan(995, 1000, &scan(&tail), 8).is_ok());
}

#[test]
fn sparse_scans_must_be_ascending_and_well_formed() {
    let check = |idx: u64, v: &[u8]| value::check(idx, v, 8).map(|_| ());
    let sparse: Vec<(u64, Vec<u8>)> = [41u64, 45, 90]
        .iter()
        .map(|&i| (i, value::make(i, 0, 8)))
        .collect();
    assert!(scan(&sparse)
        .check_scan(40, u64::MAX, false, &check)
        .is_ok());
    assert!(
        scan(&sparse)
            .check_scan(42, u64::MAX, false, &check)
            .is_err(),
        "entry before the start"
    );
    let mut back = sparse.clone();
    back.swap(1, 2);
    assert!(scan(&back).check_scan(40, u64::MAX, false, &check).is_err());
    assert!(scan(&[]).check_scan(40, u64::MAX, false, &check).is_err());
}
