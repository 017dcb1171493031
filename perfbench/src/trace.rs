//! In-memory spans around the benchmark's calls into each layer.
//!
//! Each benchmark thread owns a [`SpanLog`]; a span records its name,
//! start and end (ns since the run's time base), the request it belongs
//! to and the span that caused it. Logs merge when their threads join,
//! are written out once at the end of the run, and give each layer its
//! self time: a span's duration minus the part of it that its children
//! cover. A disabled log records nothing and reads no clock.

use std::collections::HashMap;
use std::io::Write;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Unique id within the run (never 0).
    pub id: u64,
    /// The causing span's id, 0 for a root.
    pub parent: u64,
    /// The request (or setup step) the span belongs to.
    pub req: u64,
    /// Layer boundary name, e.g. `core.put`.
    pub name: &'static str,
    /// Start, ns since the run's time base.
    pub start: u64,
    /// End, ns since the run's time base.
    pub end: u64,
}

/// A span begun and not yet ended.
#[derive(Debug, Clone, Copy)]
#[must_use]
pub struct Open {
    /// The span's id (0 when tracing is off), to parent child spans.
    pub id: u64,
    parent: u64,
    req: u64,
    name: &'static str,
    start: u64,
}

impl Open {
    /// The request this span belongs to.
    pub fn req(&self) -> u64 {
        self.req
    }
}

/// One thread's span buffer.
#[derive(Debug)]
pub struct SpanLog {
    on: bool,
    base: Instant,
    next: u64,
    spans: Vec<Span>,
}

impl SpanLog {
    /// A log for thread `tid` (ids are unique per `(tid, sequence)`)
    /// measuring from `base`; records only when `on`.
    pub fn new(on: bool, base: Instant, tid: u64) -> Self {
        SpanLog {
            on,
            base,
            next: (tid << 40) + 1,
            spans: Vec::new(),
        }
    }

    /// The time base spans are measured from.
    pub fn base(&self) -> Instant {
        self.base
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.on
    }

    fn now(&self) -> u64 {
        self.base.elapsed().as_nanos() as u64
    }

    /// Begins span `name` for request `req`, caused by span `parent`.
    #[inline]
    pub fn begin(&mut self, name: &'static str, req: u64, parent: u64) -> Open {
        if !self.on {
            return Open {
                id: 0,
                parent,
                req,
                name,
                start: 0,
            };
        }
        let id = self.next;
        self.next += 1;
        Open {
            id,
            parent,
            req,
            name,
            start: self.now(),
        }
    }

    /// Ends `open` now.
    #[inline]
    pub fn end(&mut self, open: Open) {
        if self.on {
            let end = self.now();
            self.push(open, end);
        }
    }

    fn push(&mut self, o: Open, end: u64) {
        self.spans.push(Span {
            id: o.id,
            parent: o.parent,
            req: o.req,
            name: o.name,
            start: o.start,
            end: end.max(o.start),
        });
    }

    /// Runs `f` inside span `name` (a root span for request `req`).
    pub fn time<R>(&mut self, name: &'static str, req: u64, f: impl FnOnce() -> R) -> R {
        let o = self.begin(name, req, 0);
        let r = f();
        self.end(o);
        r
    }

    /// Moves `other`'s spans into this log.
    pub fn absorb(&mut self, other: SpanLog) {
        self.spans.extend(other.spans);
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span, aligned with `spans`: its duration minus the
/// union of its children's intervals clipped to it.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children.entry(s.parent).or_default().push((s.start, s.end));
    }
    spans
        .iter()
        .map(|s| {
            let dur = s.end - s.start;
            let Some(kids) = children.get_mut(&s.id) else {
                return dur;
            };
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cur: Option<(u64, u64)> = None;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(s.start), b.min(s.end));
                if a >= b {
                    continue;
                }
                match cur {
                    Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        cur = Some((a, b));
                    }
                    None => cur = Some((a, b)),
                }
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
            dur - covered
        })
        .collect()
}

/// Per span name: `(count, median self ns)`.
pub fn self_time_by_name(spans: &[Span]) -> HashMap<&'static str, (usize, f64)> {
    let selfs = self_times(spans);
    let mut by: HashMap<&'static str, Vec<f64>> = HashMap::new();
    for (s, t) in spans.iter().zip(selfs) {
        by.entry(s.name).or_default().push(t as f64);
    }
    by.into_iter()
        .map(|(k, v)| (k, (v.len(), crate::stats::median(&v))))
        .collect()
}

/// Writes the spans as CSV (`id,parent,req,name,start_ns,end_ns,self_ns`).
pub fn write_csv(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "id,parent,req,name,start_ns,end_ns,self_ns")?;
    for (s, t) in spans.iter().zip(self_times(spans)) {
        writeln!(
            w,
            "{},{},{},{},{},{},{}",
            s.id, s.parent, s.req, s.name, s.start, s.end, t
        )?;
    }
    w.flush()
}
