//! Pieces every workload shares: set-up timing, counter snapshots,
//! restarts and the first pass, read probes, and per-layer summaries.

use std::time::{Duration, Instant};

use incll::{Options, RecoveryReport, Session, Store};
use incll_pmem::{PArena, StatsSnapshot};

use crate::report::Report;
use crate::rng::Rng;
use crate::stats::{median, trimmed_mean, Keep, Samples, RESTART_TRIM};
use crate::trace::{self, Span, SpanLog};
use crate::value;

/// The paper's measured whole-cache flush (`wbinvd`) cost, 1.38 ms (§6.2).
pub const PAPER_WBINVD_NS: u64 = 1_380_000;
/// The paper's epoch length.
pub const PAPER_EPOCH: Duration = Duration::from_millis(64);
/// Emulated NVM streaming-read cost of recovery replay (~1 GiB/s).
pub const REPLAY_READ_NS_PER_KB: u64 = 1000;
/// Timing windows per run. Latency and throughput metrics are medians
/// over windows spread across the run, so a stretch of noise from other
/// tenants of the machine moves a minority of windows, not the metric.
pub const WINDOWS: usize = 16;

/// A check of one read-back pair: key index and value bytes.
pub type PairCheck<'a> = dyn Fn(u64, &[u8]) -> Result<(), String> + 'a;

/// Set-ups timed per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 3;

/// Runs `setup` [`SETUP_REPEATS`] times, dropping each result before the
/// next so only one lives at a time; returns the last and the median
/// seconds.
pub fn timed_setups<T>(mut setup: impl FnMut(usize) -> T) -> (T, f64, Vec<f64>) {
    let mut times = Vec::new();
    let mut last = None;
    for i in 0..SETUP_REPEATS {
        drop(last.take());
        let t0 = Instant::now();
        let v = setup(i);
        times.push(t0.elapsed().as_secs_f64());
        last = Some(v);
    }
    (last.expect("at least one set-up"), median(&times), times)
}

/// Inserts keys `0..keys` from `threads` threads (contiguous slices) with
/// version-0 values of `len` bytes.
pub fn preload(store: &Store, keys: u64, len: usize, threads: usize) -> Result<(), String> {
    std::thread::scope(|s| {
        let hs: Vec<_> = (0..threads as u64)
            .map(|t| {
                s.spawn(move || -> Result<(), String> {
                    let sess = store.session().map_err(|e| e.to_string())?;
                    let mut buf = Vec::with_capacity(len);
                    let per = keys.div_ceil(threads as u64);
                    for idx in t * per..((t + 1) * per).min(keys) {
                        value::encode(idx, 0, len, &mut buf);
                        store
                            .put(&sess, &value::key(idx), &buf)
                            .map_err(|e| format!("preload put {idx}: {e}"))?;
                    }
                    Ok(())
                })
            })
            .collect();
        hs.into_iter()
            .try_for_each(|h| h.join().expect("preload thread"))
    })
}

/// Entries a scan or an iteration hands out, copied into buffers that
/// are reused from one scan to the next: filling it in a timed region
/// costs a copy, never an allocation, and the checks run after the clock
/// stops.
#[derive(Debug, Default)]
pub struct ScanBuf {
    bytes: Vec<u8>,
    /// End of each entry's key and of its value in `bytes`.
    ends: Vec<(usize, usize)>,
}

impl ScanBuf {
    /// Room for `entries` entries of `bytes` key plus value bytes each.
    pub fn with_capacity(entries: usize, bytes: usize) -> Self {
        ScanBuf {
            bytes: Vec::with_capacity(entries * bytes),
            ends: Vec::with_capacity(entries),
        }
    }

    /// Forgets the entries, keeping the buffers.
    pub fn clear(&mut self) {
        self.bytes.clear();
        self.ends.clear();
    }

    /// Appends one entry.
    pub fn push(&mut self, k: &[u8], v: &[u8]) {
        self.bytes.extend_from_slice(k);
        let k_end = self.bytes.len();
        self.bytes.extend_from_slice(v);
        self.ends.push((k_end, self.bytes.len()));
    }

    /// Entries held.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Whether no entry is held.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// The entries, in the order they were pushed.
    pub fn iter(&self) -> impl Iterator<Item = (&[u8], &[u8])> + '_ {
        let starts = std::iter::once(0).chain(self.ends.iter().map(|e| e.1));
        starts
            .zip(&self.ends)
            .map(|(s, &(k, e))| (&self.bytes[s..k], &self.bytes[k..e]))
    }

    /// Checks the entries as a scan from key index `start`: ascending
    /// benchmark keys, each passing `check` (index, value). With `dense`,
    /// also exactly the keys `start..` up to 10 or `keys`.
    pub fn check_scan(
        &self,
        start: u64,
        keys: u64,
        dense: bool,
        check: &PairCheck<'_>,
    ) -> Result<(), String> {
        let want = (keys.saturating_sub(start)).min(10) as usize;
        if (dense && self.len() != want) || (!dense && self.is_empty()) {
            return Err(format!(
                "scan from {start}: {} entries, expected {want}",
                self.len()
            ));
        }
        let mut prev = None;
        for (j, (k, v)) in self.iter().enumerate() {
            let idx = value::key_index(k).ok_or(format!("scan from {start}: foreign key"))?;
            let next = prev.map_or(start, |p| p + 1);
            if idx < next || dense && idx != next {
                return Err(format!("scan from {start}: entry {j} is key {idx}"));
            }
            prev = Some(idx);
            check(idx, v)?;
        }
        Ok(())
    }
}

/// Checks one 10-key scan's entries from `start` on a dense key range:
/// ascending, no gaps, and written for their keys.
pub fn check_scan(start: u64, keys: u64, got: &ScanBuf, len: usize) -> Result<(), String> {
    got.check_scan(start, keys, true, &|idx, v| {
        value::check(idx, v, len).map(|_| ())
    })
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Durable bytes the store has carved: everything below the extent pool
/// plus the extents shards own, or the bump frontier on `shards(1)`.
pub fn carved_bytes(store: &Store) -> u64 {
    match store.extent_stats() {
        Some(x) => {
            let owned: usize = x.owned_per_shard.iter().sum();
            x.pool_base + owned as u64 * x.extent_bytes
        }
        None => store.arena().bump(),
    }
}

/// Extents owned across shards (0 on `shards(1)`).
pub fn extents_owned(store: &Store) -> f64 {
    store
        .extent_stats()
        .map_or(0.0, |x| x.owned_per_shard.iter().sum::<usize>() as f64)
}

/// A counter snapshot: persistence events, epoch advances, group commits.
#[derive(Debug, Clone, Copy)]
pub struct Snap {
    pm: StatsSnapshot,
    advances: u64,
    skipped: u64,
    groups: u64,
    grouped: u64,
    at: Instant,
}

impl Snap {
    /// Reads the counters now; `group` is `Server::group_stats()` or
    /// zeros.
    pub fn take(store: &Store, group: (u64, u64)) -> Snap {
        let (mut advances, mut skipped) = (0, 0);
        for s in 0..store.shard_count() {
            let st = store.shard_stats(s);
            advances += st.advances_fired;
            skipped += st.advances_skipped;
        }
        Snap {
            pm: store.arena().stats().snapshot(),
            advances,
            skipped,
            groups: group.0,
            grouped: group.1,
            at: Instant::now(),
        }
    }

    /// What happened between `self` and the later snapshot `b`.
    pub fn until(&self, b: &Snap) -> Delta {
        Delta {
            pm: b.pm.delta(&self.pm),
            advances: b.advances.saturating_sub(self.advances),
            skipped: b.skipped.saturating_sub(self.skipped),
            groups: b.groups.saturating_sub(self.groups),
            grouped: b.grouped.saturating_sub(self.grouped),
            secs: (b.at - self.at).as_secs_f64(),
        }
    }
}

/// Counter changes over one or more measured intervals.
#[derive(Debug, Clone, Copy, Default)]
pub struct Delta {
    pm: StatsSnapshot,
    advances: u64,
    skipped: u64,
    groups: u64,
    grouped: u64,
    secs: f64,
}

impl Delta {
    /// Adds another interval's changes (a store reopen resets the epoch
    /// counters, so runs that restart sum per-interval deltas).
    pub fn add(&mut self, o: &Delta) {
        let (a, b) = (&mut self.pm, &o.pm);
        a.clwb += b.clwb;
        a.sfence += b.sfence;
        a.global_flush += b.global_flush;
        a.scoped_flush += b.scoped_flush;
        a.ext_nodes_logged += b.ext_nodes_logged;
        a.ext_interior_logged += b.ext_interior_logged;
        a.ext_bytes_logged += b.ext_bytes_logged;
        a.incll_perm_logs += b.incll_perm_logs;
        a.incll_val_logs += b.incll_val_logs;
        a.incll_alloc_logs += b.incll_alloc_logs;
        a.palloc_allocs += b.palloc_allocs;
        a.palloc_frees += b.palloc_frees;
        a.nodes_lazy_recovered += b.nodes_lazy_recovered;
        a.ext_entries_replayed += b.ext_entries_replayed;
        self.advances += o.advances;
        self.skipped += o.skipped;
        self.groups += o.groups;
        self.grouped += o.grouped;
        self.secs += o.secs;
    }
}

/// Sets the per-layer counter metrics from `d`, over `ops` operations.
pub fn layer_counts(r: &mut Report, d: &Delta, ops: u64) {
    let secs = d.secs.max(1e-9);
    let kop = (ops as f64 / 1e3).max(1e-9);
    let note = format!("{ops} ops over {secs:.2} s");
    let per_kop = |x: u64| x as f64 / kop;
    let pm = &d.pm;
    r.set("pmem.sfence_per_kop", per_kop(pm.sfence), &note);
    r.set("pmem.clwb_per_kop", per_kop(pm.clwb), &note);
    r.set("pmem.scoped_flush_per_kop", per_kop(pm.scoped_flush), &note);
    r.set(
        "pmem.global_flush_per_s",
        pm.global_flush as f64 / secs,
        &note,
    );
    r.set("epoch.advances_per_s", d.advances as f64 / secs, &note);
    r.set("epoch.skipped_per_s", d.skipped as f64 / secs, &note);
    r.set("incll.perm_per_kop", per_kop(pm.incll_perm_logs), &note);
    r.set("incll.val_per_kop", per_kop(pm.incll_val_logs), &note);
    r.set("incll.alloc_per_kop", per_kop(pm.incll_alloc_logs), &note);
    r.set("extlog.nodes_per_kop", per_kop(pm.ext_nodes_logged), &note);
    r.set(
        "extlog.interior_per_kop",
        per_kop(pm.ext_interior_logged),
        &note,
    );
    r.set(
        "extlog.bytes_per_op",
        pm.ext_bytes_logged as f64 / (ops as f64).max(1.0),
        &note,
    );
    r.set("palloc.allocs_per_kop", per_kop(pm.palloc_allocs), &note);
    r.set("palloc.frees_per_kop", per_kop(pm.palloc_frees), &note);
    if d.groups > 0 {
        r.set(
            "group.ops_per_group",
            d.grouped as f64 / d.groups as f64,
            format!("{} writes in {} groups", d.grouped, d.groups),
        );
        r.set("group.groups_per_s", d.groups as f64 / secs, &note);
    }
}

/// Recovers the store on `arena`: `Store::open` on media a crash (or a
/// dropped store) left mid-epoch. Returns the store, the report and the
/// open's wall time in ms.
pub fn reopen(
    arena: &PArena,
    options: Options,
    log: &mut SpanLog,
) -> Result<(Store, RecoveryReport, f64), String> {
    let o = log.begin("recovery.open", 0, 0);
    let t0 = Instant::now();
    let (store, rep) = Store::open(arena, options).map_err(|e| format!("reopen: {e}"))?;
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    log.end(o);
    if rep.created {
        return Err("reopen created a fresh store instead of recovering".into());
    }
    Ok((store, rep, ms))
}

/// What the first full read after a restart measured.
#[derive(Debug, Clone, Copy)]
pub struct Pass {
    /// Wall time, ms.
    pub ms: f64,
    /// Keys seen.
    pub keys: u64,
    /// Key plus value bytes seen.
    pub live_bytes: u64,
    /// Nodes repaired lazily during the pass.
    pub lazy_nodes: u64,
}

/// Entries the first pass copies out before it stops the clock to check
/// them: few enough that the copies stay in the CPU cache.
const PASS_CHUNK: usize = 256;

/// Reads every pair once in key order, passing each to `check` (index,
/// value); a key that is not a benchmark key or is out of order is a
/// violation. The pass is timed in chunks of [`PASS_CHUNK`] entries,
/// copied into a reused [`ScanBuf`], and each chunk is checked with the
/// clock stopped.
pub fn first_pass(
    store: &Store,
    log: &mut SpanLog,
    r: &mut Report,
    mut check: impl FnMut(u64, &[u8]) -> Result<(), String>,
) -> Result<Pass, String> {
    let sess = store.session().map_err(|e| format!("session: {e}"))?;
    let lazy0 = store.arena().stats().nodes_lazy_recovered();
    let o = log.begin("core.first_pass", 0, 0);
    let (mut keys, mut live_bytes) = (0u64, 0u64);
    let mut prev: Option<u64> = None;
    let mut chunk = ScanBuf::with_capacity(PASS_CHUNK, 128);
    let mut timed = Duration::ZERO;
    let mut it = store.iter(&sess);
    loop {
        chunk.clear();
        let t0 = Instant::now();
        for (k, v) in it.by_ref().take(PASS_CHUNK) {
            chunk.push(&k, &v);
        }
        timed += t0.elapsed();
        if chunk.is_empty() {
            break;
        }
        for (k, v) in chunk.iter() {
            keys += 1;
            live_bytes += (k.len() + v.len()) as u64;
            let res = match value::key_index(k) {
                Some(idx) if prev.is_some_and(|p| p >= idx) => {
                    Err(format!("first pass: key {idx} out of order"))
                }
                Some(idx) => {
                    prev = Some(idx);
                    check(idx, v)
                }
                None => Err(format!("first pass: foreign key {k:?}")),
            };
            r.check(res);
        }
    }
    log.end(o);
    Ok(Pass {
        ms: timed.as_secs_f64() * 1e3,
        keys,
        live_bytes,
        lazy_nodes: store.arena().stats().nodes_lazy_recovered() - lazy0,
    })
}

/// Restarts per run on the workloads without a crash cycle.
pub const RESTARTS: usize = 21;
/// Share of `--seconds` over which those restarts are spread, idle in
/// between. The machine's speed varies from second to second; restarts
/// done back to back would all sample the same second, so their summary
/// would be as noisy as one restart.
pub const RESTART_SPREAD: f64 = 0.5;

/// The idle gap between two restarts of a run of `secs` seconds.
pub fn restart_gap(secs: f64) -> Duration {
    Duration::from_secs_f64(secs * RESTART_SPREAD / (RESTARTS - 1) as f64)
}
/// Puts in the doomed epoch before each of those restarts.
pub const DOOMED_PUTS: u64 = 30_000;

/// A run's restarts: one entry per restart.
#[derive(Default)]
pub struct Restarts {
    /// `Store::open` wall times, ms.
    pub open_ms: Vec<f64>,
    /// The recovery reports.
    pub reports: Vec<RecoveryReport>,
    /// The first pass after each restart.
    pub passes: Vec<Pass>,
}

impl Restarts {
    /// One restart of a workload without a crash cycle: stop the
    /// cadence, checkpoint, write a doomed epoch of [`DOOMED_PUTS`] puts
    /// (uniform keys in `0..keys`, `len`-byte values), drop the store,
    /// recover it and read everything once with `check`. The doomed
    /// epoch is bounded by op count, so every restart recovers the same
    /// amount of work. Returns the recovered store.
    #[allow(clippy::too_many_arguments)]
    pub fn doomed(
        &mut self,
        arena: &PArena,
        store: Store,
        options: Options,
        keys: u64,
        len: usize,
        seed: u64,
        log: &mut SpanLog,
        r: &mut Report,
        check: &PairCheck<'_>,
    ) -> Result<Store, String> {
        let i = self.open_ms.len() as u64;
        store.halt_cadence();
        for s in 0..store.shard_count() {
            let o = log.begin("epoch.checkpoint_shard", i, 0);
            store.checkpoint_shard(s);
            log.end(o);
        }
        {
            let sess = store.session().map_err(|e| e.to_string())?;
            let mut rng = Rng::new(seed, 5_000 + i);
            let mut buf = Vec::with_capacity(len);
            for j in 0..DOOMED_PUTS {
                let idx = rng.below(keys);
                value::encode(idx, (1 << 23) + i * DOOMED_PUTS + j, len, &mut buf);
                r.attempted += 1;
                let o = log.begin("core.put", j, 0);
                let res = store.put(&sess, &value::key(idx), &buf);
                log.end(o);
                if let Err(e) = res {
                    r.failed += 1;
                    r.violation(format!("doomed put {idx}: {e}"));
                    break;
                }
            }
        }
        drop(store);
        let (store, rep, ms) = reopen(arena, options, log)?;
        self.open_ms.push(ms);
        self.reports.push(rep);
        self.passes.push(first_pass(&store, log, r, check)?);
        Ok(store)
    }
}

/// Sets the restart metrics: `recovery_ms` and `first_pass_ms` (trimmed
/// means over `open_ms` and `passes`, see [`trimmed_mean`]), `space_amp`,
/// and the `recovery.*` per-layer medians.
pub fn report_restarts(
    r: &mut Report,
    open_ms: &[f64],
    reps: &[RecoveryReport],
    passes: &[Pass],
    space_amp: f64,
) {
    let workers = reps.first().map_or(0, |x| x.parallel_workers);
    r.set(
        "recovery_ms",
        trimmed_mean(open_ms, RESTART_TRIM),
        format!("trimmed mean Store::open of {open_ms:.2?}, {workers} workers"),
    );
    let ms: Vec<f64> = passes.iter().map(|p| p.ms).collect();
    let keys = passes.last().map_or(0, |p| p.keys);
    r.set(
        "first_pass_ms",
        trimmed_mean(&ms, RESTART_TRIM),
        format!("trimmed mean of {ms:.1?} over {keys} keys"),
    );
    r.set(
        "space_amp",
        space_amp,
        "carved durable B / live key+value B",
    );
    let med = |f: &dyn Fn(&RecoveryReport) -> f64| median(&reps.iter().map(f).collect::<Vec<_>>());
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let note = format!("median of {} restarts", reps.len());
    r.set("recovery.replay_ms", med(&|x| ms(x.replay_time)), &note);
    r.set(
        "recovery.max_shard_ms",
        med(&|x| {
            x.per_shard
                .iter()
                .map(|s| ms(s.replay_time))
                .fold(0.0, f64::max)
        }),
        &note,
    );
    r.set(
        "recovery.replayed_entries",
        med(&|x| x.replayed_entries as f64),
        &note,
    );
    r.set(
        "recovery.replayed_bytes",
        med(&|x| x.replayed_bytes as f64),
        &note,
    );
    r.set(
        "recovery.batches_redone",
        med(&|x| x.per_shard.iter().map(|s| s.batches_redone).sum::<u64>() as f64),
        &note,
    );
    r.set(
        "recovery.batches_dropped",
        med(&|x| x.per_shard.iter().map(|s| s.batches_dropped).sum::<u64>() as f64),
        &note,
    );
    let lazy: Vec<f64> = passes.iter().map(|p| p.lazy_nodes as f64).collect();
    r.set(
        "recovery.lazy_nodes",
        median(&lazy),
        format!("median of {} passes", lazy.len()),
    );
}

/// Point reads (`get_ref`) and 10-key scans at keys `pick` chooses,
/// each checked with `check` after its clock stops; returns the (get,
/// scan) latency samples.
#[allow(clippy::too_many_arguments)]
pub fn probe_reads(
    store: &Store,
    sess: &Session,
    rng: &mut Rng,
    pick: &dyn Fn(&mut Rng) -> u64,
    gets: usize,
    scans: usize,
    log: &mut SpanLog,
    r: &mut Report,
    check: &PairCheck<'_>,
) -> (Samples, Samples) {
    let (mut g, mut s) = (Samples::new(), Samples::new());
    for i in 0..gets {
        let idx = pick(rng);
        let k = value::key(idx);
        let o = log.begin("core.get_ref", i as u64, 0);
        let t0 = Instant::now();
        let v = store.get_ref(sess, &k);
        g.add_ns(t0.elapsed().as_nanos() as u64);
        log.end(o);
        r.attempted += 1;
        r.check(match &v {
            Some(v) => check(idx, v),
            None => Err(format!("probe: key {idx} missing")),
        });
    }
    let mut got = ScanBuf::with_capacity(10, 128);
    for i in 0..scans {
        let idx = pick(rng);
        got.clear();
        let o = log.begin("core.scan", i as u64, 0);
        let t0 = Instant::now();
        store.scan(sess, &value::key(idx), 10, &mut |k, v| got.push(k, v));
        s.add_ns(t0.elapsed().as_nanos() as u64);
        log.end(o);
        r.attempted += 1;
        r.check(got.check_scan(idx, u64::MAX, false, check));
    }
    (g, s)
}

/// Sets a `*_p50_*` / `*_p99_*` pair from one run's timing windows
/// ([`crate::stats::windowed`]).
pub fn set_dist(
    r: &mut Report,
    p50: &'static str,
    tail: &'static str,
    windows: &[Samples],
    unit_ns: f64,
    keep: Keep,
    what: &str,
) {
    if let Some(s) = crate::stats::windowed(windows, unit_ns, keep) {
        let kept = match keep {
            Keep::MiddleHalf => "interquartile mean",
            Keep::FastestQuarter => "mean of the fastest quarter",
        };
        let note = format!(
            "{what}; {kept} of {} windows, n={} failed={}",
            windows.len(),
            s.n,
            s.failed
        );
        r.set(p50, s.p50, format!("p50 {note}"));
        r.set(tail, s.tail, format!("p{} {note}", s.tail_p));
    }
}

/// Sets the per-layer self-time and span metrics from a traced run.
pub fn layer_times(r: &mut Report, spans: &[Span]) {
    let by = trace::self_time_by_name(spans);
    let mut put = |metric: &'static str, span: &str, scale: f64| {
        if let Some(&(n, med)) = by.get(span) {
            r.set(
                metric,
                med / scale,
                format!("median self time of {n} {span} spans"),
            );
        }
    };
    put("core.get_ref_ns", "core.get_ref", 1.0);
    put("core.put_ns", "core.put", 1.0);
    put("core.scan_us", "core.scan", 1e3);
    put("protocol.encode_ns", "protocol.encode", 1.0);
    put("protocol.decode_ns", "protocol.decode", 1.0);
    put("net.send_us", "net.send", 1e3);
    put("net.wait_us", "net.wait", 1e3);
    for (span, p50, tail, unit) in [
        (
            "epoch.checkpoint_shard",
            "epoch.checkpoint_p50_ms",
            "epoch.checkpoint_p99_ms",
            1e6,
        ),
        (
            "core.batch_commit",
            "core.batch_commit_p50_us",
            "core.batch_commit_p99_us",
            1e3,
        ),
    ] {
        let mut s = Samples::new();
        for sp in spans.iter().filter(|sp| sp.name == span) {
            s.add_ns(sp.end - sp.start);
        }
        set_dist(
            r,
            p50,
            tail,
            std::slice::from_ref(&s),
            unit,
            Keep::MiddleHalf,
            span,
        );
    }
}
