//! The metric and workload names the binary prints match `BENCHMARK.json`
//! and use only `[A-Za-z0-9_.-]`.

use incll_bench::compare::{parse_json, Json};
use perfbench::report::{valid_name, MetricDef, END_TO_END, PER_LAYER};
use perfbench::WORKLOADS;

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    parse_json(&text).expect("BENCHMARK.json parses")
}

/// Accessors over the parsed shapes this test reads.
trait Get {
    fn field(&self, k: &str) -> Option<&Json>;
    fn str(&self) -> Option<&str>;
    fn num(&self) -> Option<f64>;
    fn arr(&self) -> &[Json];
}

impl Get for Json {
    fn field(&self, k: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(k),
            _ => None,
        }
    }

    fn str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    fn num(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    fn arr(&self) -> &[Json] {
        match self {
            Json::Arr(a) => a,
            _ => &[],
        }
    }
}

fn keys(j: &Json) -> Vec<&str> {
    match j {
        Json::Obj(m) => m.keys().map(String::as_str).collect(),
        _ => Vec::new(),
    }
}

fn valid_unit(u: &str) -> bool {
    !u.is_empty()
        && u.len() <= 16
        && u.bytes()
            .all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b))
}

fn check_list(entries: &[Json], defs: &[MetricDef], with_bound: bool) {
    let names: Vec<&str> = entries
        .iter()
        .map(|e| e.field("name").and_then(Json::str).unwrap())
        .collect();
    let want: Vec<&str> = defs.iter().map(|d| d.name).collect();
    assert_eq!(names, want, "metric lists differ");
    for (e, d) in entries.iter().zip(defs) {
        let mut k = vec!["better", "name", "unit"];
        if with_bound {
            k.insert(1, "bound");
            let b = e.field("bound").and_then(Json::num).unwrap();
            assert!(b > 0.0 && b <= 0.25, "{}: bound {b}", d.name);
        }
        assert_eq!(keys(e), k, "{}: keys", d.name);
        assert_eq!(
            e.field("unit").and_then(Json::str),
            Some(d.unit),
            "{}",
            d.name
        );
        assert_eq!(
            e.field("better").and_then(Json::str),
            Some(d.better),
            "{}",
            d.name
        );
        assert!(valid_name(d.name), "bad name {}", d.name);
        assert!(valid_unit(d.unit), "bad unit {}", d.unit);
        assert!(matches!(d.better, "lower" | "higher"));
    }
}

#[test]
fn metrics_match_benchmark_json() {
    let j = benchmark_json();
    check_list(j.field("end_to_end").unwrap().arr(), END_TO_END, true);
    check_list(j.field("per_layer").unwrap().arr(), PER_LAYER, false);
    let setup = END_TO_END.iter().find(|d| d.name == "setup_s").unwrap();
    assert_eq!((setup.unit, setup.better), ("s", "lower"));
    let setup_bound = j.field("end_to_end").unwrap().arr()[0]
        .field("bound")
        .and_then(Json::num)
        .unwrap();
    for e in j.field("end_to_end").unwrap().arr() {
        assert!(e.field("bound").and_then(Json::num).unwrap() <= setup_bound);
    }
}

#[test]
fn names_are_unique() {
    let mut all: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|d| d.name).collect();
    all.extend(WORKLOADS);
    let n = all.len();
    all.sort_unstable();
    all.dedup();
    assert_eq!(all.len(), n);
}

#[test]
fn workloads_match_benchmark_json() {
    let j = benchmark_json();
    let ws = j.field("workloads").unwrap().arr();
    let names: Vec<&str> = ws
        .iter()
        .map(|w| w.field("name").and_then(Json::str).unwrap())
        .collect();
    assert_eq!(names, WORKLOADS);
    for w in ws {
        assert_eq!(keys(w), ["name", "why"]);
        let why = w.field("why").and_then(Json::str).unwrap();
        assert!(!why.is_empty() && why.len() <= 200 && !why.contains('\n'));
        assert!(valid_name(w.field("name").and_then(Json::str).unwrap()));
    }
    assert_eq!(
        keys(&j),
        [
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads"
        ]
    );
    let secs = j.field("run_seconds").and_then(Json::num).unwrap();
    assert!((1.0..=60.0).contains(&secs) && secs.fract() == 0.0);
}

#[test]
fn the_result_line_has_exactly_the_contract_keys() {
    let mut r = perfbench::report::Report::new();
    r.attempted = 5;
    r.set("kops", 12.5, "");
    let line = parse_json(&r.json(false)).unwrap();
    assert_eq!(keys(&line), ["attempted", "correct", "failed", "metrics"]);
    let m = line.field("metrics").unwrap();
    assert_eq!(keys(m).len(), END_TO_END.len());
    assert_eq!(
        m.field("kops").unwrap().field("value").and_then(Json::num),
        Some(12.5)
    );
    let traced = parse_json(&r.json(true)).unwrap();
    assert_eq!(
        keys(traced.field("metrics").unwrap()).len(),
        PER_LAYER.len()
    );
}
