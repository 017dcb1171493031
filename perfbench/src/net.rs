//! `net-ycsba-group`: the TCP server with group commit, driven in process.
//!
//! The server runs with the `incll-server` defaults (4 shards, the
//! default 200 µs group window) and 2 workers, plus the paper's 64 ms lazy
//! cadence, on an emulated NVM with 300 ns fences and the paper's flush
//! cost (1.38 ms `wbinvd`, a scoped flush at a quarter of that). The load
//! is zipfian YCSB-A (50 % GET, 50 % PUT) over 200 k preloaded keys with
//! 100-byte values, in three phases that interleave window by window:
//! * a closed loop: 2 connections, one thread each, 8 requests in flight;
//! * an open loop at a fixed rate: one connection, a sender thread that
//!   never waits for replies and a receiver thread that times each reply
//!   from its request's due time;
//! * a 10-key SCAN probe on one connection, one request in flight.
//!
//! Every reply is checked, and the server's STATS request count must
//! equal the requests the client sent.

use std::collections::VecDeque;
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use incll::{Options, Store};
use incll_epoch::Cadence;
use incll_pmem::PArena;
use incll_server::{
    decode_response, encode_request, read_frame, CommitMode, GroupConfig, Request, Response,
    Server, ServerConfig,
};

use crate::common::{self, Snap, PAPER_EPOCH, PAPER_WBINVD_NS, REPLAY_READ_NS_PER_KB};
use crate::openloop::{pace, Lateness, Schedule};
use crate::report::Report;
use crate::rng::Rng;
use crate::stats::{median, Keep, Samples};
use crate::trace::SpanLog;
use crate::value;
use crate::zipf::Zipf;

/// Preloaded keys.
pub const KEYS: u64 = 200_000;
/// Value bytes.
pub const VALUE_LEN: usize = 100;
/// Keyspace shards (the `incll-server` default).
pub const SHARDS: usize = 4;
/// Server workers.
pub const WORKERS: usize = 2;
/// Session slots (the `incll-server` default).
pub const SLOTS: usize = 8;
/// Arena bytes (the `incll-server` default, 256 MiB).
pub const ARENA_BYTES: usize = 256 << 20;
/// Closed-loop connections, one thread each.
pub const CONNS: usize = 2;
/// Requests each closed-loop connection keeps in flight.
pub const DEPTH: usize = 8;
/// Emulated `sfence` cost, ns.
pub const SFENCE_NS: u64 = 300;
/// Open-loop rate, requests per second: 40 % of the closed loop's
/// saturation, which measured 27.2 kop/s (median of 20 untraced runs of
/// this workload on a 2-vCPU x86-64 VM) when this benchmark was defined.
pub const OPEN_RATE: f64 = 11_000.0;
/// SCAN requests in the probe.
pub const SCANS: usize = 64_000;
/// Closed-loop warm-up before measuring, seconds.
const WARMUP_S: f64 = 0.5;

fn options() -> Options {
    Options::new()
        .threads(SLOTS)
        .shards(SHARDS)
        .cadence(Cadence::lazy(PAPER_EPOCH))
}

fn arena() -> Result<PArena, String> {
    let arena = PArena::builder()
        .capacity_bytes(ARENA_BYTES)
        .sfence_latency_ns(SFENCE_NS)
        .wbinvd_latency_ns(PAPER_WBINVD_NS)
        .build()
        .map_err(|e| format!("arena: {e}"))?;
    arena
        .latency()
        .set_scoped_flush_ns(PAPER_WBINVD_NS / SHARDS as u64);
    arena
        .latency()
        .set_replay_read_ns_per_kb(REPLAY_READ_NS_PER_KB);
    Ok(arena)
}

struct Setup {
    arena: PArena,
    store: Store,
    server: Server,
}

fn setup(log: &mut SpanLog, i: usize) -> Result<Setup, String> {
    let req = i as u64;
    let arena = log.time("setup.arena", req, arena)?;
    let (store, _) = log
        .time("setup.open", req, || Store::open(&arena, options()))
        .map_err(|e| format!("open: {e}"))?;
    log.time("setup.preload", req, || {
        common::preload(&store, KEYS, VALUE_LEN, 2)
    })?;
    for s in 0..SHARDS {
        let o = log.begin("epoch.checkpoint_shard", req, 0);
        store.checkpoint_shard(s);
        log.end(o);
    }
    let server = log.time("setup.server", req, || start_server(&store))?;
    Ok(Setup {
        arena,
        store,
        server,
    })
}

/// Serves `store` on a fresh loopback port: 2 workers, group commit
/// with the default window.
fn start_server(store: &Store) -> Result<Server, String> {
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind loopback: {e}"))?;
    Server::start(
        store.clone(),
        listener,
        ServerConfig {
            workers: WORKERS,
            commit: CommitMode::Group(GroupConfig::default()),
            ..ServerConfig::default()
        },
    )
    .map_err(|e| format!("server start: {e}"))
}

/// One generated request.
#[derive(Debug, Clone, Copy)]
enum Op {
    Get(u64),
    Put(u64, u64),
}

/// YCSB-A request stream: zipfian keys, half GETs, half PUTs with
/// versions unique to the stream.
struct OpGen {
    rng: Rng,
    version: u64,
}

impl OpGen {
    fn new(seed: u64, stream: u64) -> Self {
        OpGen {
            rng: Rng::new(seed, stream),
            version: stream << 32,
        }
    }

    fn next(&mut self, zipf: &Zipf) -> Op {
        let idx = zipf.next(&mut self.rng);
        if self.rng.below(2) == 0 {
            Op::Get(idx)
        } else {
            self.version += 1;
            Op::Put(idx, self.version)
        }
    }
}

fn request(op: Op) -> Request {
    match op {
        Op::Get(idx) => Request::Get {
            key: value::key(idx).to_vec(),
        },
        Op::Put(idx, ver) => Request::Put {
            key: value::key(idx).to_vec(),
            val: value::make(idx, ver, VALUE_LEN),
        },
    }
}

/// How a reply to `op` went: `Ok(true)` served, `Ok(false)` a failure
/// (error reply), `Err` a wrong answer.
fn judge(op: Op, resp: &Response) -> Result<bool, String> {
    match (op, resp) {
        (_, Response::Error(_)) => Ok(false),
        (Op::Get(idx), Response::Value(v)) => value::check(idx, v, VALUE_LEN).map(|_| true),
        (Op::Get(idx), Response::NotFound) => Err(format!("GET {idx}: preloaded key not found")),
        (Op::Put(..), Response::Ok) => Ok(true),
        (op, other) => Err(format!("{op:?}: unexpected reply {other:?}")),
    }
}

/// One connection: a buffered reader and the raw stream for writes.
struct Conn {
    rd: BufReader<TcpStream>,
    wr: TcpStream,
    buf: Vec<u8>,
}

impl Conn {
    fn open(addr: SocketAddr) -> Result<Conn, String> {
        let s = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        s.set_nodelay(true).map_err(|e| e.to_string())?;
        let rd = BufReader::new(s.try_clone().map_err(|e| e.to_string())?);
        Ok(Conn {
            rd,
            wr: s,
            buf: Vec::with_capacity(256),
        })
    }

    fn recv(&mut self) -> std::io::Result<Vec<u8>> {
        read_frame(&mut self.rd)?
            .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::UnexpectedEof, "server closed"))
    }

    /// One synchronous round trip (probes and STATS).
    fn call(&mut self, req: &Request) -> Result<Response, String> {
        self.buf.clear();
        encode_request(req, &mut self.buf);
        self.wr.write_all(&self.buf).map_err(|e| e.to_string())?;
        let payload = self.recv().map_err(|e| e.to_string())?;
        decode_response(&payload).map_err(|e| e.to_string())
    }
}

/// One closed-loop connection's results (its throughput is the metric;
/// latency comes from the open loop).
#[derive(Default)]
struct Loop {
    ops: u64,
    gets: u64,
    puts: u64,
    failed: u64,
    errors: Vec<String>,
}

/// Drives one pipelined closed-loop connection until `until`.
fn closed_conn(
    addr: SocketAddr,
    zipf: &Zipf,
    mut gen: OpGen,
    until: Instant,
    log: &mut SpanLog,
) -> Loop {
    let mut out = Loop::default();
    let mut c = match Conn::open(addr) {
        Ok(c) => c,
        Err(e) => {
            out.errors.push(e);
            return out;
        }
    };
    let mut inflight: VecDeque<(Op, crate::trace::Open)> = VecDeque::new();
    let mut req_id = 0u64;
    let mut sending = true;
    while sending || !inflight.is_empty() {
        while sending && inflight.len() < DEPTH {
            let op = gen.next(zipf);
            req_id += 1;
            let root = log.begin("loadgen.request", req_id, 0);
            let o = log.begin("protocol.encode", req_id, root.id);
            c.buf.clear();
            encode_request(&request(op), &mut c.buf);
            log.end(o);
            let o = log.begin("net.send", req_id, root.id);
            let sent = c.wr.write_all(&c.buf);
            log.end(o);
            if let Err(e) = sent {
                out.errors.push(format!("send: {e}"));
                return out;
            }
            inflight.push_back((op, root));
        }
        let Some((op, root)) = inflight.pop_front() else {
            break;
        };
        let o = log.begin("net.wait", root.req(), root.id);
        let frame = c.recv();
        log.end(o);
        let done = Instant::now();
        out.ops += 1;
        let o = log.begin("protocol.decode", root.req(), root.id);
        let resp = frame
            .map_err(|e| e.to_string())
            .and_then(|p| decode_response(&p).map_err(|e| e.to_string()));
        log.end(o);
        log.end(root);
        match op {
            Op::Get(_) => out.gets += 1,
            Op::Put(..) => out.puts += 1,
        }
        match resp
            .map_err(|e| format!("I/O: {e}"))
            .and_then(|r| judge(op, &r))
        {
            Ok(true) => {}
            Ok(false) => out.failed += 1,
            Err(e) if e.starts_with("I/O") => {
                out.errors.push(e);
                return out;
            }
            Err(e) => out.errors.push(e),
        }
        if out.ops % 64 == 0 && done >= until {
            sending = false;
        }
    }
    out
}

/// Runs the closed loop on [`CONNS`] connections for `secs`.
fn closed_loop(
    addr: SocketAddr,
    zipf: &Arc<Zipf>,
    seed: u64,
    stream: u64,
    secs: f64,
    traced: bool,
    log: &mut SpanLog,
) -> (Vec<Loop>, f64) {
    let t0 = Instant::now();
    let until = t0 + Duration::from_secs_f64(secs);
    let base = log.base();
    let res = std::thread::scope(|s| {
        let hs: Vec<_> = (0..CONNS as u64)
            .map(|c| {
                let zipf = Arc::clone(zipf);
                s.spawn(move || {
                    let mut l = SpanLog::new(traced, base, 10 + stream * 4 + c);
                    let gen = OpGen::new(seed, stream * 16 + c);
                    let out = closed_conn(addr, &zipf, gen, until, &mut l);
                    (out, l)
                })
            })
            .collect();
        hs.into_iter()
            .map(|h| h.join().expect("closed-loop thread"))
            .collect::<Vec<_>>()
    });
    let wall = t0.elapsed().as_secs_f64();
    let loops = res
        .into_iter()
        .map(|(out, l)| {
            log.absorb(l);
            out
        })
        .collect();
    (loops, wall)
}

/// Open-loop results.
struct OpenLoop {
    sent: u64,
    failed: u64,
    get: Samples,
    put: Samples,
    lateness: Lateness,
    achieved_qps: f64,
    errors: Vec<String>,
}

/// Runs the open loop: one connection, a pacing sender thread and this
/// thread receiving in-order replies, for `secs` at [`OPEN_RATE`].
fn open_loop(
    addr: SocketAddr,
    zipf: &Zipf,
    seed: u64,
    stream: u64,
    secs: f64,
) -> Result<OpenLoop, String> {
    let sched = Schedule::new(OPEN_RATE);
    let n = sched.count_within(secs);
    let mut gen = OpGen::new(seed, stream);
    let ops: Arc<Vec<Op>> = Arc::new((0..n).map(|_| gen.next(zipf)).collect());
    let mut c = Conn::open(addr)?;
    let mut wr = c.wr.try_clone().map_err(|e| e.to_string())?;
    let start = Instant::now();
    let sender_ops = Arc::clone(&ops);
    let sender = std::thread::Builder::new()
        .name("open-loop-sender".into())
        .spawn(move || -> (u64, Lateness, Option<String>) {
            let mut late = Lateness::default();
            let mut buf = Vec::with_capacity(256);
            for (i, &op) in sender_ops.iter().enumerate() {
                let due = sched.due(i);
                pace(start, due);
                buf.clear();
                encode_request(&request(op), &mut buf);
                if let Err(e) = wr.write_all(&buf) {
                    return (i as u64, late, Some(format!("open-loop send: {e}")));
                }
                late.note(due, start.elapsed().as_nanos() as u64);
            }
            (sender_ops.len() as u64, late, None)
        })
        .map_err(|e| format!("spawn sender: {e}"))?;
    let mut out = OpenLoop {
        sent: 0,
        failed: 0,
        get: Samples::new(),
        put: Samples::new(),
        lateness: Lateness::default(),
        achieved_qps: 0.0,
        errors: Vec::new(),
    };
    let mut last_done = 0u64;
    for (i, &op) in ops.iter().enumerate() {
        let frame = match c.recv() {
            Ok(f) => f,
            Err(e) => {
                out.errors.push(format!("open-loop receive {i}: {e}"));
                break;
            }
        };
        let done = start.elapsed().as_nanos() as u64;
        last_done = done;
        let lat = sched.latency(i, done);
        let samples = match op {
            Op::Get(_) => &mut out.get,
            Op::Put(..) => &mut out.put,
        };
        match decode_response(&frame)
            .map_err(|e| e.to_string())
            .and_then(|r| judge(op, &r))
        {
            Ok(true) => samples.add_ns(lat),
            Ok(false) => {
                samples.fail();
                out.failed += 1;
            }
            Err(e) => {
                samples.add_ns(lat);
                out.errors.push(e);
            }
        }
    }
    let (sent, lateness, err) = sender.join().expect("open-loop sender");
    out.sent = sent;
    out.lateness = lateness;
    out.errors.extend(err);
    out.achieved_qps = Schedule::achieved_rate(ops.len(), last_done);
    Ok(out)
}

/// Runs `n` 10-key SCANs on `c`, one at a time, checking every reply;
/// returns their round-trip latencies. One SCAN in flight keeps each
/// latency a single request's round trip: with several in flight, each
/// also waits behind the others, and that wait swings with how the
/// server's threads happen to be scheduled.
fn scan_probe(
    c: &mut Conn,
    rng: &mut Rng,
    n: usize,
    sent: &mut Sent,
    r: &mut Report,
) -> Result<Samples, String> {
    let mut out = Samples::new();
    let mut got = common::ScanBuf::with_capacity(10, 8 + VALUE_LEN);
    for _ in 0..n {
        let idx = rng.below(KEYS);
        c.buf.clear();
        let req = Request::Scan {
            start: value::key(idx).to_vec(),
            limit: 10,
        };
        encode_request(&req, &mut c.buf);
        let t0 = Instant::now();
        c.wr.write_all(&c.buf)
            .map_err(|e| format!("SCAN send: {e}"))?;
        let resp = c
            .recv()
            .map_err(|e| e.to_string())
            .and_then(|p| decode_response(&p).map_err(|e| e.to_string()))
            .map_err(|e| format!("SCAN {idx}: {e}"))?;
        let lat = t0.elapsed().as_nanos() as u64;
        r.attempted += 1;
        sent.requests += 1;
        sent.scans += 1;
        match resp {
            Response::Entries(es) => {
                out.add_ns(lat);
                got.clear();
                for (k, v) in &es {
                    got.push(k, v);
                }
                r.check(common::check_scan(idx, KEYS, &got, VALUE_LEN));
            }
            Response::Error(_) => {
                out.fail();
                r.failed += 1;
            }
            other => r.violation(format!("SCAN {idx}: unexpected reply {other:?}")),
        }
    }
    Ok(out)
}

/// The STATS reply: a flat JSON object of counters.
fn stats(c: &mut Conn) -> Result<String, String> {
    match c.call(&Request::Stats)? {
        Response::Stats(s) => Ok(s),
        other => Err(format!("STATS: unexpected reply {other:?}")),
    }
}

/// The counter `k` of a STATS reply.
fn stat(reply: &str, k: &str) -> Result<u64, String> {
    let pat = format!("\"{k}\":");
    let at = reply
        .find(&pat)
        .ok_or_else(|| format!("STATS has no {k}: {reply}"))?;
    let rest = &reply[at + pat.len()..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end]
        .parse()
        .map_err(|_| format!("STATS {k} is not a count: {reply}"))
}

/// Client-side request counts, to hold against the server's STATS.
#[derive(Debug, Default, Clone, Copy)]
struct Sent {
    requests: u64,
    gets: u64,
    puts: u64,
    scans: u64,
}

impl Sent {
    fn add_loops(&mut self, loops: &[Loop]) {
        for l in loops {
            self.requests += l.ops;
            self.gets += l.gets;
            self.puts += l.puts;
        }
    }
}

/// Checks that the server served exactly what the client sent over the
/// server's lifetime (the STATS request itself included), then stops it.
fn stop_server(
    mut server: Server,
    mut ctl: Conn,
    sent: &mut Sent,
    r: &mut Report,
) -> Result<(), String> {
    let st = stats(&mut ctl)?;
    sent.requests += 1;
    for (k, want) in [
        ("requests", sent.requests),
        ("gets", sent.gets),
        ("puts", sent.puts),
        ("scans", sent.scans),
    ] {
        let got = stat(&st, k)?;
        if got != want {
            r.violation(format!("STATS {k} = {got}, client sent {want}"));
        }
    }
    let wire = stat(&st, "wire_errors")?;
    if wire != 0 {
        r.violation(format!("server saw {wire} wire errors"));
    }
    *sent = Sent::default();
    drop(ctl);
    server.shutdown();
    Ok(())
}

/// Runs the workload.
pub fn run(seed: u64, secs: f64, log: &mut SpanLog, r: &mut Report) -> Result<(), String> {
    let traced = log.enabled();
    let (set, setup_s, times) = common::timed_setups(|i| setup(log, i));
    let Setup {
        arena,
        mut store,
        server,
    } = set?;
    r.set("setup_s", setup_s, format!("median of {times:.3?}"));
    let zipf = Arc::new(Zipf::new(KEYS));
    let mut sent = Sent::default();

    // Restarts come first, while the store holds only what the set-up and
    // the restarts' own op-count-bounded doomed epochs wrote: what they
    // recover and read back must not depend on how much the time-bounded
    // phases below managed to write. They are spread out in time
    // ([`common::RESTART_SPREAD`]) for a steady figure.
    let check = |idx: u64, v: &[u8]| {
        if idx >= KEYS {
            return Err(format!("first pass: unexpected key {idx}"));
        }
        value::check(idx, v, VALUE_LEN).map(|_| ())
    };
    let ctl = Conn::open(server.local_addr())?;
    stop_server(server, ctl, &mut sent, r)?;
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
    // Point reads and scans straight on the recovered store: their spans
    // give the core layer's self times on this workload's data.
    let sess = store.session().map_err(|e| e.to_string())?;
    let mut rng = Rng::new(seed, 902);
    let pick = |rng: &mut Rng| rng.below(KEYS);
    common::probe_reads(&store, &sess, &mut rng, &pick, 2_000, 1_000, log, r, &check);
    drop(sess);
    for p in rs.passes.iter().filter(|p| p.keys != KEYS) {
        r.violation(format!("first pass saw {} keys, expected {KEYS}", p.keys));
    }
    let live = rs.passes.last().map_or(1, |p| p.live_bytes.max(1));
    let amp = common::carved_bytes(&store) as f64 / live as f64;
    common::report_restarts(r, &rs.open_ms, &rs.reports, &rs.passes, amp);
    let server = start_server(&store)?;
    let addr = server.local_addr();
    let mut ctl = Conn::open(addr)?;

    let fold = |r: &mut Report, loops: &[Loop]| {
        for l in loops {
            r.attempted += l.ops;
            r.failed += l.failed;
            for e in &l.errors {
                r.violation(e.clone());
            }
        }
    };

    let (warm, _) = closed_loop(addr, &zipf, seed, 0, WARMUP_S, false, log);
    sent.add_loops(&warm);
    fold(r, &warm);

    // The phases interleave window by window (closed loop, open-loop
    // segment, SCAN slice), so every timing samples the whole run and a
    // stretch of machine noise moves a minority of windows, not a metric.
    // Traced runs trace every other closed-loop window; the gap between
    // the two halves is the tracing overhead.
    let windows = common::WINDOWS as u64;
    let win = secs / 2.0 / windows as f64;
    let mut delta = common::Delta::default();
    let (mut ops, mut served, mut wire) = (0, 0, 0);
    let (mut kops_plain, mut kops_traced) = (Vec::new(), Vec::new());
    let (mut get, mut put, mut scan) = (Vec::new(), Vec::new(), Vec::new());
    let (mut qps, mut lag_ns, mut late) = (Vec::new(), 0, 0);
    let mut rng = Rng::new(seed, 901);
    for w in 0..windows {
        let traced_w = traced && w % 2 == 1;
        let st0 = stats(&mut ctl)?;
        let before = Snap::take(&store, server.group_stats());
        let (loops, wall) = closed_loop(addr, &zipf, seed, 1 + w, win, traced_w, log);
        delta.add(&before.until(&Snap::take(&store, server.group_stats())));
        let st1 = stats(&mut ctl)?;
        sent.requests += 2;
        let n = loops.iter().map(|l| l.ops).sum::<u64>();
        ops += n;
        served += stat(&st1, "requests")? - stat(&st0, "requests")? - 1;
        wire += stat(&st1, "wire_errors")? - stat(&st0, "wire_errors")?;
        if traced_w {
            kops_traced.push(n as f64 / wall / 1e3);
        } else {
            kops_plain.push(n as f64 / wall / 1e3);
        }
        sent.add_loops(&loops);
        fold(r, &loops);

        let ol = open_loop(addr, &zipf, seed, 900 + w, win)?;
        r.attempted += ol.sent;
        r.failed += ol.failed;
        sent.requests += ol.sent;
        sent.gets += ol.get.len() as u64;
        sent.puts += ol.put.len() as u64;
        for e in &ol.errors {
            r.violation(e.clone());
        }
        get.push(ol.get);
        put.push(ol.put);
        qps.push(ol.achieved_qps);
        lag_ns = lag_ns.max(ol.lateness.max_ns);
        late += ol.lateness.late_1ms;

        let n = SCANS / common::WINDOWS;
        scan.push(scan_probe(&mut ctl, &mut rng, n, &mut sent, r)?);
    }
    r.set("palloc.extents_owned", common::extents_owned(&store), "");
    stop_server(server, ctl, &mut sent, r)?;
    common::layer_counts(r, &delta, ops);
    let kops = median(&kops_plain);
    r.set(
        "kops",
        kops,
        format!(
            "closed loop, median of {} windows, {CONNS} conns x {DEPTH} in flight",
            kops_plain.len()
        ),
    );
    if traced {
        let kt = median(&kops_traced);
        r.set(
            "trace.overhead_pct",
            (kops - kt) / kops * 100.0,
            format!("untraced {kops:.1} vs traced {kt:.1} kop/s"),
        );
    }
    r.set(
        "server.requests_per_op",
        served as f64 / ops.max(1) as f64,
        format!("{served} served / {ops} sent"),
    );
    r.set("server.wire_errors", wire as f64, "");
    let keep = Keep::MiddleHalf;
    let what = format!("open loop at {OPEN_RATE} req/s");
    common::set_dist(r, "get_p50_us", "get_p99_us", &get, 1e3, keep, &what);
    let what = format!("{what}, to durable ack");
    common::set_dist(r, "put_p50_us", "put_p99_us", &put, 1e3, keep, &what);
    let what = "SCAN(10) probe, 1 conn x 1 in flight";
    common::set_dist(r, "scan_p50_us", "scan_p99_us", &scan, 1e3, keep, what);
    r.set(
        "loadgen.achieved_qps",
        median(&qps),
        format!("median of {} windows, target {OPEN_RATE}", qps.len()),
    );
    r.set(
        "loadgen.max_lag_ms",
        lag_ns as f64 / 1e6,
        format!("{late} requests sent >1 ms late"),
    );
    Ok(())
}
