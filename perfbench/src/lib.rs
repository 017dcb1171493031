//! The InCLL repository benchmark.
//!
//! One binary (`perfbench`) runs one named workload per process against
//! the public APIs of the store (`incll::Store`, `WriteBatch`) and the TCP
//! server (`incll_server::Server` plus its protocol functions), checks
//! every output it reads back, and prints its metrics by name with their
//! units. The last stdout line is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end set of `BENCHMARK.json`; with `--trace 1`
//! the run records a span around every benchmark call into a layer and
//! prints the per-layer set instead.
//!
//! Modules, bottom up:
//! * [`rng`], [`zipf`], [`value`]: seeded inputs and self-checking values;
//! * [`stats`]: percentiles with the tail-rank rule, failures at +∞;
//! * [`trace`]: in-memory spans and self time;
//! * [`openloop`]: schedule and lateness accounting for the open loop;
//! * [`report`]: the metric registry and the JSON result line;
//! * [`common`], [`net`], [`store`], [`crash`]: the workloads.

pub mod common;
pub mod crash;
pub mod net;
pub mod openloop;
pub mod report;
pub mod rng;
pub mod stats;
pub mod store;
pub mod trace;
pub mod value;
pub mod zipf;

/// The workloads, by the name `--workload` takes.
pub const WORKLOADS: &[&str] = &["net-ycsba-group", "store-ycsba-paper", "crash-restart"];

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name (one of [`WORKLOADS`]).
    pub workload: String,
    /// Input seed: the same seed gives the same inputs.
    pub seed: u64,
    /// How long the measured phases run, in seconds; 20 by default, the
    /// `run_seconds` of `BENCHMARK.json`.
    pub seconds: f64,
    /// Whether to record spans (the per-layer run).
    pub trace: bool,
}

/// Parses `--workload NAME --seed N --seconds S --trace 0|1`.
pub fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 20.0f64;
    let mut trace = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut val = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(val()?.clone()),
            "--seed" => seed = val()?.parse().map_err(|_| "bad --seed".to_string())?,
            "--seconds" => {
                seconds = val()?.parse().map_err(|_| "bad --seconds".to_string())?;
                if seconds.is_nan() || seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                trace = match val()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; expected one of {WORKLOADS:?}"
        ));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}
