//! The metric registry and the result line.
//!
//! [`END_TO_END`] and [`PER_LAYER`] list every metric with its unit and
//! direction; `BENCHMARK.json` at the repository root lists the same
//! names (a test keeps the two in step). Every workload reports every
//! metric of the set its run prints. A per-layer metric whose layer a
//! workload never crosses reads 0 there; the human-readable table marks
//! it `n/a`.

use std::collections::BTreeMap;

/// One metric's name, unit and direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    /// Name, `[A-Za-z0-9_.-]`, starting with a letter or digit.
    pub name: &'static str,
    /// Unit, e.g. `ms`.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

/// What a user of the store or the server sees; printed by `--trace 0`.
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s", "lower"),
    m("peak_rss_mb", "MB", "lower"),
    m("space_amp", "x", "lower"),
    m("kops", "kop/s", "higher"),
    m("get_p50_us", "us", "lower"),
    m("put_p50_us", "us", "lower"),
    m("scan_p50_us", "us", "lower"),
    m("recovery_ms", "ms", "lower"),
    m("first_pass_ms", "ms", "lower"),
];

/// Single-layer counts and self times; printed by `--trace 1`. The three
/// latency tails come first: they are end-to-end figures, but on a
/// 2-core machine they do not repeat from run to run closely enough to
/// gate on, so they are reported here, without a bound. `fail_ratio` is
/// here because it is 0 on every workload (the result line's `failed`
/// and `attempted` carry it too).
pub const PER_LAYER: &[MetricDef] = &[
    m("get_p99_us", "us", "lower"),
    m("put_p99_us", "us", "lower"),
    m("scan_p99_us", "us", "lower"),
    m("fail_ratio", "ratio", "lower"),
    m("pmem.sfence_per_kop", "count", "lower"),
    m("pmem.clwb_per_kop", "count", "lower"),
    m("pmem.scoped_flush_per_kop", "count", "lower"),
    m("pmem.global_flush_per_s", "1/s", "lower"),
    m("epoch.advances_per_s", "1/s", "lower"),
    m("epoch.skipped_per_s", "1/s", "lower"),
    m("epoch.checkpoint_p50_ms", "ms", "lower"),
    m("epoch.checkpoint_p99_ms", "ms", "lower"),
    m("group.ops_per_group", "count", "higher"),
    m("group.groups_per_s", "1/s", "lower"),
    m("core.batch_commit_p50_us", "us", "lower"),
    m("core.batch_commit_p99_us", "us", "lower"),
    m("core.get_ref_ns", "ns", "lower"),
    m("core.put_ns", "ns", "lower"),
    m("core.scan_us", "us", "lower"),
    m("incll.perm_per_kop", "count", "lower"),
    m("incll.val_per_kop", "count", "lower"),
    m("incll.alloc_per_kop", "count", "lower"),
    m("extlog.nodes_per_kop", "count", "lower"),
    m("extlog.interior_per_kop", "count", "lower"),
    m("extlog.bytes_per_op", "B", "lower"),
    m("palloc.allocs_per_kop", "count", "lower"),
    m("palloc.frees_per_kop", "count", "lower"),
    m("palloc.extents_owned", "count", "lower"),
    m("recovery.replay_ms", "ms", "lower"),
    m("recovery.max_shard_ms", "ms", "lower"),
    m("recovery.replayed_entries", "count", "lower"),
    m("recovery.replayed_bytes", "B", "lower"),
    m("recovery.batches_redone", "count", "lower"),
    m("recovery.batches_dropped", "count", "lower"),
    m("recovery.lazy_nodes", "count", "lower"),
    m("protocol.encode_ns", "ns", "lower"),
    m("protocol.decode_ns", "ns", "lower"),
    m("net.send_us", "us", "lower"),
    m("net.wait_us", "us", "lower"),
    m("server.requests_per_op", "ratio", "lower"),
    m("server.wire_errors", "count", "lower"),
    m("loadgen.achieved_qps", "1/s", "higher"),
    m("loadgen.max_lag_ms", "ms", "lower"),
    m("trace.overhead_pct", "%", "lower"),
];

/// Whether `s` is a legal metric or workload name.
pub fn valid_name(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 64
        && s.as_bytes()[0].is_ascii_alphanumeric()
        && s.bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'.' || b == b'-')
}

/// A run's results: metric values with notes, the op counts and every
/// correctness violation seen.
#[derive(Debug, Default)]
pub struct Report {
    values: BTreeMap<&'static str, (f64, String)>,
    /// Operations the run attempted (requests, store calls, batches).
    pub attempted: u64,
    /// Of those, operations that failed (error reply, I/O error, refusal).
    pub failed: u64,
    violations: Vec<String>,
}

impl Report {
    /// Empty.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets metric `name` with a note (sample count, percentile used).
    pub fn set(&mut self, name: &'static str, value: f64, note: impl Into<String>) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|d| d.name == name),
            "unregistered metric {name}"
        );
        self.values.insert(name, (value, note.into()));
    }

    /// Records a correctness violation: the run will print
    /// `"correct": false` and exit non-zero.
    pub fn violation(&mut self, what: impl Into<String>) {
        let what = what.into();
        if self.violations.len() < 20 {
            eprintln!("perfbench: CHECK FAILED: {what}");
        }
        self.violations.push(what);
    }

    /// Folds a check result in.
    pub fn check(&mut self, r: Result<(), String>) {
        if let Err(e) = r {
            self.violation(e);
        }
    }

    /// Whether no check failed.
    pub fn correct(&self) -> bool {
        self.violations.is_empty()
    }

    /// The metric set a run prints.
    pub fn defs(trace: bool) -> &'static [MetricDef] {
        if trace {
            PER_LAYER
        } else {
            END_TO_END
        }
    }

    /// The human-readable table (one line per metric).
    pub fn table(&self, trace: bool) -> String {
        let mut s = String::new();
        for d in Self::defs(trace) {
            let line = match self.values.get(d.name) {
                Some((v, note)) => format!("{:<28} {:>16.4} {:<6} {}\n", d.name, v, d.unit, note),
                None => format!("{:<28} {:>16} {:<6} n/a\n", d.name, 0, d.unit),
            };
            s.push_str(&line);
        }
        s
    }

    /// The result line: `{"correct", "attempted", "failed", "metrics"}`.
    pub fn json(&self, trace: bool) -> String {
        let metrics: Vec<String> = Self::defs(trace)
            .iter()
            .map(|d| {
                let v = self.values.get(d.name).map_or(0.0, |v| v.0);
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    d.name,
                    json_number(v),
                    d.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A JSON number for `v`: every digit Rust's shortest round-trip form
/// gives, +∞ clamped to the largest finite double (JSON has no ∞).
pub fn json_number(v: f64) -> String {
    let v = if v.is_nan() {
        0.0
    } else if v.is_infinite() {
        f64::MAX.copysign(v)
    } else {
        v
    };
    let s = format!("{v}");
    if s.contains(['.', 'e', 'E']) {
        s
    } else {
        format!("{s}.0")
    }
}
