//! `crash-restart`: write bursts, simulated power failures and restarts.
//!
//! A tracked arena (every unpersisted store journaled per cache line)
//! holds a 4-shard store recovering on 2 threads. Set-up preloads the
//! keys and checkpoints. Each cycle then:
//! 1. runs a write burst bounded by op count, so the doomed epoch is the
//!    same size every run: one thread does plain puts plus inserts of new
//!    keys and calls `checkpoint_shard` at fixed op counts; the other
//!    commits 8-key cross-shard `commit_durable` batches on a disjoint key
//!    range;
//! 2. crashes the arena (`crash_seeded`: a random legal persisted prefix
//!    per cache line);
//! 3. reopens it with `Store::open` under an emulated NVM replay-read
//!    cost of 1000 ns/KiB;
//! 4. reads every pair once (the first pass, which pays lazy node
//!    repair) and checks that every acknowledged batch value is there
//!    exactly, then probes point reads and 10-key scans;
//! 5. removes the keys the burst inserted and checkpoints, so every cycle
//!    starts from the same store.
//!
//! Recovery, batch redo, lazy repair and the 4-shard merge run nowhere
//! else. Each cycle is one timing window, and each latency is the mean of
//! the fastest quarter of them ([`crate::stats::Keep::FastestQuarter`]);
//! the number of cycles is `--seconds` × [`CYCLES_PER_SECOND`].

use std::time::Instant;

use incll::{Options, Store};
use incll_pmem::PArena;

use crate::common::{self, REPLAY_READ_NS_PER_KB};
use crate::report::Report;
use crate::rng::Rng;
use crate::stats::{median, Keep, Samples};
use crate::trace::SpanLog;
use crate::value;

/// Keyspace shards.
pub const SHARDS: usize = 4;
/// Recovery worker threads.
pub const RECOVERY_THREADS: usize = 2;
/// Preloaded plain keys: indices `0..PLAIN_KEYS`.
pub const PLAIN_KEYS: u64 = 50_000;
/// First batch-range key index.
pub const BATCH_BASE: u64 = 1 << 32;
/// Batch-range keys: indices `BATCH_BASE..BATCH_BASE + BATCH_KEYS`.
pub const BATCH_KEYS: u64 = 4_096;
/// First index of keys inserted during bursts.
pub const NEW_BASE: u64 = 2 << 32;
/// Value bytes.
pub const VALUE_LEN: usize = 32;
/// Plain operations per burst (a quarter of them insert new keys).
pub const PLAIN_OPS: u64 = 20_000;
/// The plain thread checkpoints one shard (round robin) every this many
/// of its operations.
pub const CHECKPOINT_EVERY: u64 = 4_000;
/// Batches per burst.
pub const BATCHES: u64 = 1_000;
/// Keys per batch.
pub const BATCH_OPS: usize = 8;
/// Point reads probed after each restart.
pub const PROBE_GETS: usize = 2_000;
/// 10-key scans probed after each restart.
pub const PROBE_SCANS: usize = 1_000;
/// Cycles per second of `--seconds`. The cycle count is fixed by the
/// argument, not by the clock, so every run does the same work (a
/// cycle takes about a third of a second on the 2-core machine the
/// benchmark was defined on) and a faster program does not get to churn
/// the store through more cycles than a slower one.
pub const CYCLES_PER_SECOND: f64 = 3.0;
/// Fewest cycles in a run.
pub const MIN_CYCLES: u64 = 3;
const SLOTS: usize = 4;
const LOG_BYTES: usize = 8 << 20;
const ARENA_BYTES: usize = 256 << 20;

fn options() -> Options {
    Options::new()
        .threads(SLOTS)
        .log_bytes_per_thread(LOG_BYTES)
        .shards(SHARDS)
        .recovery_threads(RECOVERY_THREADS)
}

fn setup(log: &mut SpanLog, i: usize) -> Result<(PArena, Store), String> {
    let req = i as u64;
    let arena = log.time("setup.arena", req, || {
        PArena::builder()
            .capacity_bytes(ARENA_BYTES)
            .tracked(true)
            .build()
            .map_err(|e| format!("arena: {e}"))
    })?;
    arena
        .latency()
        .set_replay_read_ns_per_kb(REPLAY_READ_NS_PER_KB);
    let (store, _) = log
        .time("setup.open", req, || Store::open(&arena, options()))
        .map_err(|e| format!("open: {e}"))?;
    log.time("setup.preload", req, || -> Result<(), String> {
        common::preload(&store, PLAIN_KEYS, VALUE_LEN, 2)?;
        let sess = store.session().map_err(|e| e.to_string())?;
        for k in 0..BATCH_KEYS {
            let idx = BATCH_BASE + k;
            store
                .put(&sess, &value::key(idx), &value::make(idx, 0, VALUE_LEN))
                .map_err(|e| format!("preload put {idx}: {e}"))?;
        }
        Ok(())
    })?;
    for s in 0..SHARDS {
        let o = log.begin("epoch.checkpoint_shard", req, 0);
        store.checkpoint_shard(s);
        log.end(o);
    }
    Ok((arena, store))
}

/// The batch thread's acknowledged state: the version each batch-range
/// key last committed with.
pub type Acked = Vec<u64>;

/// Checks one first-pass (or probe) pair against the acknowledged batch
/// state: every value must be written for its key, and a batch-range
/// key must hold exactly its last acknowledged version.
pub fn check_pair(acked: &Acked, idx: u64, v: &[u8]) -> Result<(), String> {
    let in_range =
        idx < PLAIN_KEYS || (BATCH_BASE..BATCH_BASE + BATCH_KEYS).contains(&idx) || idx >= NEW_BASE;
    if !in_range {
        return Err(format!("key {idx} was never written"));
    }
    let ver = value::check(idx, v, VALUE_LEN)?;
    if (BATCH_BASE..BATCH_BASE + BATCH_KEYS).contains(&idx) {
        let want = acked[(idx - BATCH_BASE) as usize];
        if ver != want {
            return Err(format!(
                "batch key {idx}: version {ver} after restart, acknowledged {want}"
            ));
        }
    }
    Ok(())
}

/// Counts from a first pass that must match the preloaded and
/// acknowledged key sets.
#[derive(Debug, Default, Clone, Copy)]
pub struct PassCounts {
    /// Keys in the plain preloaded range.
    pub plain: u64,
    /// Keys in the batch range.
    pub batch: u64,
}

impl PassCounts {
    /// Tallies `idx`.
    pub fn note(&mut self, idx: u64) {
        if idx < PLAIN_KEYS {
            self.plain += 1;
        } else if (BATCH_BASE..BATCH_BASE + BATCH_KEYS).contains(&idx) {
            self.batch += 1;
        }
    }

    /// Every preloaded plain key and every batch key must be present.
    pub fn check(&self) -> Result<(), String> {
        if self.plain != PLAIN_KEYS {
            return Err(format!(
                "{} of {PLAIN_KEYS} preloaded keys survived",
                self.plain
            ));
        }
        if self.batch != BATCH_KEYS {
            return Err(format!(
                "{} of {BATCH_KEYS} batch keys survived",
                self.batch
            ));
        }
        Ok(())
    }
}

/// What one burst measured.
struct Burst {
    ops: u64,
    secs: f64,
    put: Samples,
    failed: u64,
    errors: Vec<String>,
}

/// One burst: the plain thread and the batch thread, op-count bounded.
/// `next_new` is the next fresh key index; `acked` is updated with every
/// acknowledged batch.
#[allow(clippy::too_many_arguments)]
fn burst(
    store: &Store,
    seed: u64,
    cycle: u64,
    next_new: &mut u64,
    acked: &mut Acked,
    traced: bool,
    log: &mut SpanLog,
) -> Burst {
    let base = log.base();
    let t0 = Instant::now();
    let start_new = *next_new;
    let (plain, batch) = std::thread::scope(|s| {
        let plain = s.spawn(move || {
            let mut l = SpanLog::new(traced, base, 1_000 + cycle * 2);
            let mut rng = Rng::new(seed, 1_000 + cycle);
            let mut put = Samples::new();
            let mut errors = Vec::new();
            let mut failed = 0;
            let mut new = start_new;
            let sess = match store.session() {
                Ok(s) => s,
                Err(e) => return (put, failed, vec![format!("session: {e}")], new, l),
            };
            let mut buf = Vec::with_capacity(VALUE_LEN);
            let mut shard = 0;
            for op in 1..=PLAIN_OPS {
                let idx = if rng.below(4) == 0 {
                    new += 1;
                    new - 1
                } else {
                    rng.below(PLAIN_KEYS)
                };
                value::encode(idx, cycle * PLAIN_OPS + op, VALUE_LEN, &mut buf);
                let o = l.begin("core.put", op, 0);
                let t = Instant::now();
                let res = store.put(&sess, &value::key(idx), &buf);
                let ns = t.elapsed().as_nanos() as u64;
                l.end(o);
                match res {
                    Ok(_) => put.add_ns(ns),
                    Err(e) => {
                        put.fail();
                        failed += 1;
                        if errors.is_empty() {
                            errors.push(format!("put {idx}: {e}"));
                        }
                    }
                }
                if op % CHECKPOINT_EVERY == 0 {
                    let o = l.begin("epoch.checkpoint_shard", op, 0);
                    store.checkpoint_shard(shard);
                    l.end(o);
                    shard = (shard + 1) % SHARDS;
                }
            }
            (put, failed, errors, new, l)
        });
        let batch = s.spawn(|| {
            let mut l = SpanLog::new(traced, base, 1_001 + cycle * 2);
            let mut rng = Rng::new(seed, 2_000 + cycle);
            let mut errors = Vec::new();
            let mut failed = 0;
            let sess = match store.session() {
                Ok(s) => s,
                Err(e) => return (failed, vec![format!("session: {e}")], l),
            };
            let mut keys = Vec::with_capacity(BATCH_OPS);
            for b in 0..BATCHES {
                let ver = (cycle * BATCHES + b + 1) << 8;
                keys.clear();
                while keys.len() < BATCH_OPS {
                    let k = rng.below(BATCH_KEYS);
                    if !keys.contains(&k) {
                        keys.push(k);
                    }
                }
                let mut wb = sess.batch();
                let staged = keys.iter().try_for_each(|&k| {
                    let idx = BATCH_BASE + k;
                    wb.put(&value::key(idx), &value::make(idx, ver, VALUE_LEN))
                });
                let o = l.begin("core.batch_commit", b, 0);
                let res = staged.and_then(|()| wb.commit_durable());
                l.end(o);
                match res {
                    Ok(_) => {
                        for &k in &keys {
                            acked[k as usize] = ver;
                        }
                    }
                    Err(e) => {
                        failed += 1;
                        if errors.is_empty() {
                            errors.push(format!("batch commit: {e}"));
                        }
                    }
                }
            }
            (failed, errors, l)
        });
        (
            plain.join().expect("plain burst thread"),
            batch.join().expect("batch burst thread"),
        )
    });
    let secs = t0.elapsed().as_secs_f64();
    let (put, pf, mut errors, new, pl) = plain;
    let (bf, be, bl) = batch;
    *next_new = new;
    log.absorb(pl);
    log.absorb(bl);
    errors.extend(be);
    Burst {
        ops: PLAIN_OPS + BATCHES,
        secs,
        put,
        failed: pf + bf,
        errors,
    }
}

/// Runs the workload.
pub fn run(seed: u64, secs: f64, log: &mut SpanLog, r: &mut Report) -> Result<(), String> {
    let traced = log.enabled();
    let (set, setup_s, times) = common::timed_setups(|i| setup(log, i));
    let (arena, mut store) = set?;
    r.set("setup_s", setup_s, format!("median of {times:.3?}"));

    let mut acked: Acked = vec![0; BATCH_KEYS as usize];
    let mut next_new = NEW_BASE;
    let (mut put, mut get, mut scan) = (Vec::new(), Vec::new(), Vec::new());
    let (mut kops_plain, mut kops_traced) = (Vec::new(), Vec::new());
    let (mut open_ms, mut passes, mut amps) = (Vec::new(), Vec::new(), Vec::new());
    let mut reports = Vec::new();
    let mut ops = 0u64;
    let mut counters = common::Delta::default();
    let cycles = ((secs * CYCLES_PER_SECOND).round() as u64).max(MIN_CYCLES);
    for cycle in 0..cycles {
        // Traced runs alternate plain and traced cycles for the overhead.
        let trace_cycle = traced && cycle % 2 == 1;
        let mut clog = SpanLog::new(trace_cycle, log.base(), 3_000 + cycle);
        let first_new = next_new;
        let before = common::Snap::take(&store, (0, 0));
        let b = burst(
            &store,
            seed,
            cycle,
            &mut next_new,
            &mut acked,
            trace_cycle,
            &mut clog,
        );
        counters.add(&before.until(&common::Snap::take(&store, (0, 0))));
        ops += b.ops;
        r.attempted += b.ops;
        r.failed += b.failed;
        for e in b.errors {
            r.violation(e);
        }
        let kops = b.ops as f64 / b.secs / 1e3;
        if trace_cycle {
            kops_traced.push(kops);
        } else {
            kops_plain.push(kops);
            put.push(b.put);
        }

        // Power failure, then restart and read everything back.
        drop(store);
        arena.crash_seeded(seed ^ (cycle + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let (s, rep, ms) = common::reopen(&arena, options(), &mut clog)?;
        store = s;
        let mut counts = PassCounts::default();
        let pass = common::first_pass(&store, &mut clog, r, |idx, v| {
            counts.note(idx);
            check_pair(&acked, idx, v)
        })?;
        r.check(counts.check());
        open_ms.push(ms);
        reports.push(rep);
        passes.push(pass);
        amps.push(common::carved_bytes(&store) as f64 / pass.live_bytes.max(1) as f64);

        let sess = store.session().map_err(|e| e.to_string())?;
        let mut rng = Rng::new(seed, 3_000 + cycle);
        let pick = |rng: &mut Rng| {
            if rng.below(4) == 0 {
                BATCH_BASE + rng.below(BATCH_KEYS)
            } else {
                rng.below(PLAIN_KEYS - 10)
            }
        };
        let (g, s) = common::probe_reads(
            &store,
            &sess,
            &mut rng,
            &pick,
            PROBE_GETS,
            PROBE_SCANS,
            &mut clog,
            r,
            &|idx, v| check_pair(&acked, idx, v),
        );
        if !trace_cycle {
            get.push(g);
            scan.push(s);
        }
        // Take back this cycle's inserts, so every cycle starts from the
        // same store and a faster run (more cycles) reads no more keys.
        for idx in first_new..next_new {
            store.remove(&sess, &value::key(idx));
        }
        drop(sess);
        store.checkpoint();
        log.absorb(clog);
    }
    common::layer_counts(r, &counters, ops);
    let kops = median(&kops_plain);
    r.set(
        "kops",
        kops,
        format!("median burst rate of {} cycles", kops_plain.len()),
    );
    if traced {
        let kt = median(&kops_traced);
        r.set(
            "trace.overhead_pct",
            (kops - kt) / kops * 100.0,
            format!("untraced {kops:.1} vs traced {kt:.1} kop/s"),
        );
    }
    // A cycle's burst and probes are short, so each lands wholly in one
    // of the host's fast or slow spells ([`Keep`]).
    let keep = Keep::FastestQuarter;
    common::set_dist(
        r,
        "put_p50_us",
        "put_p99_us",
        &put,
        1e3,
        keep,
        "burst put/insert",
    );
    let what = "get_ref after restart";
    common::set_dist(r, "get_p50_us", "get_p99_us", &get, 1e3, keep, what);
    let what = "scan(10) after restart";
    common::set_dist(r, "scan_p50_us", "scan_p99_us", &scan, 1e3, keep, what);
    common::report_restarts(r, &open_ms, &reports, &passes, median(&amps));
    r.set("palloc.extents_owned", common::extents_owned(&store), "");
    Ok(())
}
