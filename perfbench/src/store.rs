//! `store-ycsba-paper`: the paper's Fig. 2 configuration, in process.
//!
//! One tree (`shards(1)`), a 64 ms lazy checkpoint cadence, free fences
//! and the paper's 1.38 ms whole-cache flush per checkpoint. Two threads
//! call `get_ref` / `put` / `scan(10)` directly: zipfian YCSB-A with 5 %
//! of the operations turned into 10-key scans, over 2 M keys with 8-byte
//! values (a working set far beyond the CPU caches). No server, group
//! commit or batch intents run here, so fence changes should not move
//! its times; InCLL, Masstree and allocator changes should.

use std::sync::Arc;
use std::time::{Duration, Instant};

use incll::{Options, Store};
use incll_epoch::Cadence;
use incll_pmem::PArena;

use crate::common::{self, Snap, PAPER_EPOCH, PAPER_WBINVD_NS, REPLAY_READ_NS_PER_KB};
use crate::report::Report;
use crate::rng::Rng;
use crate::stats::{median, Keep, Samples};
use crate::trace::SpanLog;
use crate::value;
use crate::zipf::Zipf;

/// Preloaded keys.
pub const KEYS: u64 = 2_000_000;
/// Value bytes (the paper's 8-byte payloads).
pub const VALUE_LEN: usize = 8;
/// Load threads.
pub const THREADS: usize = 2;
/// Percent of operations that are 10-key scans.
pub const SCAN_PCT: f64 = 5.0;
/// Emulated `sfence` cost: free, as in the paper's Fig. 2.
pub const SFENCE_NS: u64 = 0;
/// External-log bytes per session slot.
const LOG_BYTES: usize = 32 << 20;

fn options() -> Options {
    Options::new()
        .threads(THREADS + 1)
        .log_bytes_per_thread(LOG_BYTES)
        .shards(1)
        .cadence(Cadence::lazy(PAPER_EPOCH))
}

/// Arena bytes: the preloaded store carves about 310 MB (logs included),
/// so this leaves two thirds of that again for epoch churn.
const ARENA_BYTES: usize = 512 << 20;

fn arena() -> Result<PArena, String> {
    let arena = PArena::builder()
        .capacity_bytes(ARENA_BYTES)
        .sfence_latency_ns(SFENCE_NS)
        .wbinvd_latency_ns(PAPER_WBINVD_NS)
        .build()
        .map_err(|e| format!("arena: {e}"))?;
    arena
        .latency()
        .set_replay_read_ns_per_kb(REPLAY_READ_NS_PER_KB);
    Ok(arena)
}

struct Setup {
    arena: PArena,
    store: Store,
}

fn setup(log: &mut SpanLog, i: usize) -> Result<Setup, String> {
    let req = i as u64;
    let arena = log.time("setup.arena", req, arena)?;
    let (store, _) = log
        .time("setup.open", req, || Store::open(&arena, options()))
        .map_err(|e| format!("open: {e}"))?;
    log.time("setup.preload", req, || {
        common::preload(&store, KEYS, VALUE_LEN, THREADS)
    })?;
    let o = log.begin("epoch.checkpoint_shard", req, 0);
    store.checkpoint_shard(0);
    log.end(o);
    Ok(Setup { arena, store })
}

/// One load thread's results.
struct Worker {
    ops: u64,
    get: Samples,
    put: Samples,
    scan: Samples,
    log: SpanLog,
    errors: Vec<String>,
    failed: u64,
}

fn work(
    store: &Store,
    zipf: &Zipf,
    seed: u64,
    tid: u64,
    until: Instant,
    mut log: SpanLog,
) -> Worker {
    let mut w = Worker {
        ops: 0,
        get: Samples::new(),
        put: Samples::new(),
        scan: Samples::new(),
        log: SpanLog::new(false, Instant::now(), 0),
        errors: Vec::new(),
        failed: 0,
    };
    let sess = match store.session() {
        Ok(s) => s,
        Err(e) => {
            w.errors.push(format!("session: {e}"));
            w.log = log;
            return w;
        }
    };
    let mut rng = Rng::new(seed, 100 + tid);
    let mut buf = Vec::with_capacity(VALUE_LEN);
    let mut entries = common::ScanBuf::with_capacity(10, 8 + VALUE_LEN);
    // Versions count up per thread; the top bits tell the threads apart.
    let mut version = tid << 20;
    loop {
        let idx = zipf.next(&mut rng);
        let k = value::key(idx);
        let dice = rng.unit() * 100.0;
        let req = w.ops;
        if dice < SCAN_PCT {
            entries.clear();
            let o = log.begin("core.scan", req, 0);
            let t0 = Instant::now();
            store.scan(&sess, &k, 10, &mut |k, v| entries.push(k, v));
            let t1 = Instant::now();
            log.end(o);
            w.scan.add_ns((t1 - t0).as_nanos() as u64);
            if let Err(e) = common::check_scan(idx, KEYS, &entries, VALUE_LEN) {
                w.errors.push(e);
            }
        } else if dice < SCAN_PCT + (100.0 - SCAN_PCT) / 2.0 {
            let o = log.begin("core.get_ref", req, 0);
            let t0 = Instant::now();
            let got = store.get_ref(&sess, &k);
            let t1 = Instant::now();
            log.end(o);
            w.get.add_ns((t1 - t0).as_nanos() as u64);
            let res = match &got {
                Some(v) => value::check(idx, v, VALUE_LEN).map(|_| ()),
                None => Err(format!("get_ref: key {idx} missing")),
            };
            if let Err(e) = res {
                w.errors.push(e);
            }
        } else {
            version += 1;
            value::encode(idx, version, VALUE_LEN, &mut buf);
            let o = log.begin("core.put", req, 0);
            let t0 = Instant::now();
            let res = store.put(&sess, &k, &buf);
            let t1 = Instant::now();
            log.end(o);
            match res {
                Ok(_) => w.put.add_ns((t1 - t0).as_nanos() as u64),
                Err(e) => {
                    w.put.fail();
                    w.failed += 1;
                    if w.failed == 1 {
                        eprintln!("perfbench: put {idx} failed: {e}");
                    }
                }
            }
        }
        w.ops += 1;
        if w.errors.len() > 20 || (w.ops.is_multiple_of(32) && Instant::now() >= until) {
            break;
        }
    }
    w.log = log;
    w
}

/// Runs the load threads for `secs`; returns the merged results and the
/// phase's wall time.
fn phase(
    store: &Store,
    zipf: &Arc<Zipf>,
    seed: u64,
    secs: f64,
    traced: bool,
    base: Instant,
    stream: u64,
) -> (Vec<Worker>, f64) {
    let t0 = Instant::now();
    let until = t0 + Duration::from_secs_f64(secs);
    let ws = std::thread::scope(|s| {
        let hs: Vec<_> = (0..THREADS as u64)
            .map(|t| {
                let zipf = Arc::clone(zipf);
                let log = SpanLog::new(traced, base, 1 + t + stream * THREADS as u64);
                s.spawn(move || work(store, &zipf, seed, t + stream * 10, until, log))
            })
            .collect();
        hs.into_iter()
            .map(|h| h.join().expect("load thread"))
            .collect::<Vec<_>>()
    });
    (ws, t0.elapsed().as_secs_f64())
}

/// Runs the workload; records metrics and violations into `r` and spans
/// into `log`.
pub fn run(seed: u64, secs: f64, log: &mut SpanLog, r: &mut Report) -> Result<(), String> {
    let traced = log.enabled();
    let base = log.base();
    let (set, setup_s, times) = common::timed_setups(|i| setup(log, i));
    let Setup { arena, store } = set?;
    r.set("setup_s", setup_s, format!("median of {times:.3?}"));
    let zipf = Arc::new(Zipf::new(KEYS));

    // Restarts come first, while the store holds only what the set-up and
    // the restarts' own op-count-bounded doomed epochs wrote: what they
    // recover and read back must not depend on how much the time-bounded
    // windows below managed to write. They are spread out in time
    // ([`common::RESTART_SPREAD`]) for a steady figure.
    let check = |idx: u64, v: &[u8]| {
        if idx >= KEYS {
            return Err(format!("first pass: unexpected key {idx}"));
        }
        value::check(idx, v, VALUE_LEN).map(|_| ())
    };
    let mut store = store;
    let mut rs = common::Restarts::default();
    for i in 0..common::RESTARTS {
        if i > 0 {
            std::thread::sleep(common::restart_gap(secs));
        }
        store = rs.doomed(
            &arena,
            store,
            options(),
            KEYS,
            VALUE_LEN,
            seed,
            log,
            r,
            &check,
        )?;
    }
    for p in rs.passes.iter().filter(|p| p.keys != KEYS) {
        r.violation(format!("first pass saw {} keys, expected {KEYS}", p.keys));
    }
    let live = rs.passes.last().map_or(1, |p| p.live_bytes.max(1));
    let amp = common::carved_bytes(&store) as f64 / live as f64;
    common::report_restarts(r, &rs.open_ms, &rs.reports, &rs.passes, amp);

    // Warm the caches and the allocator lists before measuring.
    let (warm, _) = phase(&store, &zipf, seed, 0.5, false, base, 0);
    absorb(r, warm, log, None);

    // Timing windows. Traced runs trace every other window; the gap
    // between the two halves is the tracing overhead.
    let windows = common::WINDOWS as u64;
    let mut delta = common::Delta::default();
    let (mut get, mut put, mut scan) = (Vec::new(), Vec::new(), Vec::new());
    let (mut ops, mut kops_plain, mut kops_traced) = (0, Vec::new(), Vec::new());
    for w in 0..windows {
        let traced_w = traced && w % 2 == 1;
        let before = Snap::take(&store, (0, 0));
        let (ws, wall) = phase(
            &store,
            &zipf,
            seed,
            secs / windows as f64,
            traced_w,
            base,
            1 + w,
        );
        let mut d = Dists::default();
        let n = absorb(r, ws, log, Some(&mut d));
        delta.add(&before.until(&Snap::take(&store, (0, 0))));
        ops += n;
        if traced_w {
            kops_traced.push(n as f64 / wall / 1e3);
        } else {
            kops_plain.push(n as f64 / wall / 1e3);
            get.push(d.get);
            put.push(d.put);
            scan.push(d.scan);
        }
    }
    common::layer_counts(r, &delta, ops);
    let kops = median(&kops_plain);
    r.set(
        "kops",
        kops,
        format!("median of {} windows, {THREADS} threads", kops_plain.len()),
    );
    if traced {
        let kt = median(&kops_traced);
        r.set(
            "trace.overhead_pct",
            (kops - kt) / kops * 100.0,
            format!("untraced {kops:.1} vs traced {kt:.1} kop/s"),
        );
    }
    let keep = Keep::MiddleHalf;
    common::set_dist(r, "get_p50_us", "get_p99_us", &get, 1e3, keep, "get_ref");
    common::set_dist(r, "put_p50_us", "put_p99_us", &put, 1e3, keep, "put");
    common::set_dist(
        r,
        "scan_p50_us",
        "scan_p99_us",
        &scan,
        1e3,
        keep,
        "scan(10)",
    );
    r.set("palloc.extents_owned", common::extents_owned(&store), "");
    Ok(())
}

/// Latency samples by operation kind.
#[derive(Default)]
struct Dists {
    get: Samples,
    put: Samples,
    scan: Samples,
}

/// Folds the workers' counts, violations and spans into the run; with
/// `d`, also their latency samples. Returns the operations they ran.
fn absorb(r: &mut Report, ws: Vec<Worker>, log: &mut SpanLog, mut d: Option<&mut Dists>) -> u64 {
    let mut ops = 0;
    for w in ws {
        ops += w.ops;
        r.attempted += w.ops;
        r.failed += w.failed;
        for e in w.errors {
            r.violation(e);
        }
        log.absorb(w.log);
        if let Some(d) = d.as_deref_mut() {
            d.get.merge(w.get);
            d.put.merge(w.put);
            d.scan.merge(w.scan);
        }
    }
    ops
}
