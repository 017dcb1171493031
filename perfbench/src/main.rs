//! `perfbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Runs one workload and prints its metrics: a table (name, value, unit,
//! sample count and percentile used) and, as the last line, the JSON
//! result. Exits 1 when any output check failed, 2 on bad arguments or a
//! run that could not complete.

use std::process::ExitCode;
use std::time::Instant;

use perfbench::common::{layer_times, peak_rss_mb};
use perfbench::report::Report;
use perfbench::trace::{self, SpanLog};
use perfbench::{crash, net, parse_args, store};

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload NAME --seed N --seconds S --trace 0|1");
            return ExitCode::from(2);
        }
    };
    let mut report = Report::new();
    let mut log = SpanLog::new(args.trace, Instant::now(), 0);
    let run = match args.workload.as_str() {
        "net-ycsba-group" => net::run,
        "store-ycsba-paper" => store::run,
        "crash-restart" => crash::run,
        other => unreachable!("parse_args accepted {other}"),
    };
    if let Err(e) = run(args.seed, args.seconds, &mut log, &mut report) {
        eprintln!("perfbench: {}: {e}", args.workload);
        return ExitCode::from(2);
    }
    report.set("peak_rss_mb", peak_rss_mb(), "VmHWM of this process");
    let fail_ratio = report.failed as f64 / report.attempted.max(1) as f64;
    report.set(
        "fail_ratio",
        fail_ratio,
        format!("{} of {} ops failed", report.failed, report.attempted),
    );
    if args.trace {
        let spans = log.spans();
        layer_times(&mut report, spans);
        let path = std::path::PathBuf::from(format!(
            ".bench_build/perfbench-traces/{}-seed{}.csv",
            args.workload, args.seed
        ));
        match trace::write_csv(&path, spans) {
            Ok(()) => println!("# {} spans written to {}", spans.len(), path.display()),
            Err(e) => eprintln!("perfbench: writing spans: {e}"),
        }
    }
    println!(
        "# {} seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    print!("{}", report.table(args.trace));
    println!("{}", report.json(args.trace));
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
