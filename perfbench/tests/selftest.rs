//! Self-tests of the benchmark: the traced rebuild must reproduce
//! `detect()`, and the metrics printed must be the ones `BENCHMARK.json`
//! declares.

use owl::core::{detect, OwlConfig, TracedProgram};
use owl_perfbench::measure::summary_json;
use owl_perfbench::metrics::{result_line, Metric, END_TO_END, PER_LAYER};
use owl_perfbench::traced::traced_detect;
use owl_perfbench::workload::{aes_ttable, jpeg_encode_aslr, Prepared, NAMES};
use serde_json::Value;

/// Asserts that the traced rebuild of `p` equals `detect()` at
/// parallelism 1 and 2: report, counters and summary bytes.
fn assert_rebuild_matches<P>(p: &Prepared<P>)
where
    P: TracedProgram + Sync,
    P::Input: Send + Sync,
{
    let traced = traced_detect(p).expect("traced rebuild runs");
    for parallelism in [1, 2] {
        let config = OwlConfig {
            parallelism,
            ..p.config
        };
        let detection = detect(&p.program, &p.inputs, &config).expect("detect runs");
        assert_eq!(traced.detection.report, detection.report, "{}", p.name);
        assert_eq!(traced.detection.counters, detection.counters, "{}", p.name);
        assert_eq!(traced.detection.verdict, detection.verdict, "{}", p.name);
        assert_eq!(
            traced.summary_json,
            summary_json(p, &detection).expect("summary serialises"),
            "{}",
            p.name
        );
    }
    assert!(
        traced.attributed() <= traced.total,
        "layer times exceed the traced total"
    );
}

#[test]
fn traced_rebuild_equals_detect_with_replication() {
    // 4 keys → 4 classes; 10 runs = one full and one partial chunk, fixed
    // chunks recorded once and replicated.
    let p = aes_ttable("aes-small", 7, 4, 10);
    assert_rebuild_matches(&p);
    let traced = traced_detect(&p).expect("traced rebuild runs");
    assert_eq!(traced.logical_runs, 4 + 10 + 4 * 10);
    assert_eq!(traced.physical_runs, 4 + 10 + 4 * 2);
}

#[test]
fn traced_rebuild_equals_detect_under_aslr() {
    // ASLR on: no replication, every run recorded.
    let p = jpeg_encode_aslr("jpeg-small", 7, 8, 9);
    assert!(p.config.aslr_seed.is_some());
    assert_rebuild_matches(&p);
    let traced = traced_detect(&p).expect("traced rebuild runs");
    assert_eq!(traced.physical_runs, traced.logical_runs);
}

/// `(name, unit)` of every metric in one list of `BENCHMARK.json`.
fn declared(benchmark: &Value, list: &str) -> Vec<(String, String)> {
    let field = |entry: &Value, key: &str| -> String {
        let (_, v) = entry
            .as_map()
            .expect("metric entry is an object")
            .iter()
            .find(|(k, _)| k.as_str() == Some(key))
            .unwrap_or_else(|| panic!("metric entry has a {key}"));
        v.as_str().expect("string field").to_string()
    };
    lookup(benchmark, list)
        .as_seq()
        .expect("a list")
        .iter()
        .map(|e| (field(e, "name"), field(e, "unit")))
        .collect()
}

fn lookup<'a>(object: &'a Value, key: &str) -> &'a Value {
    object
        .as_map()
        .expect("an object")
        .iter()
        .find(|(k, _)| k.as_str() == Some(key))
        .map(|(_, v)| v)
        .unwrap_or_else(|| panic!("no key {key}"))
}

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn owned(metrics: &[Metric]) -> Vec<(String, String)> {
    metrics
        .iter()
        .map(|m| (m.name.to_string(), m.unit.to_string()))
        .collect()
}

/// `(name, unit)` of every metric in a printed result line.
fn printed(line: &str) -> Vec<(String, String)> {
    let result: Value = serde_json::from_str(line).expect("result line parses");
    lookup(&result, "metrics")
        .as_map()
        .expect("metrics object")
        .iter()
        .map(|(k, v)| {
            let unit = lookup(v, "unit").as_str().expect("unit string");
            (k.as_str().expect("name").to_string(), unit.to_string())
        })
        .collect()
}

#[test]
fn printed_metrics_are_the_declared_ones() {
    let benchmark = benchmark_json();
    assert_eq!(declared(&benchmark, "end_to_end"), owned(END_TO_END));
    assert_eq!(declared(&benchmark, "per_layer"), owned(PER_LAYER));
    let workloads: Vec<String> = lookup(&benchmark, "workloads")
        .as_seq()
        .expect("workload list")
        .iter()
        .map(|w| lookup(w, "name").as_str().expect("name").to_string())
        .collect();
    assert_eq!(workloads, NAMES);

    for (trace, metrics) in [(false, END_TO_END), (true, PER_LAYER)] {
        let outcome = owl_perfbench::run(|s| aes_ttable("aes-small", s, 2, 4), 3, 0.0, trace)
            .expect("benchmark runs");
        assert!(outcome.correct, "trace {trace}: {:?}", outcome.lines);
        let line = result_line(&outcome, metrics).expect("every declared metric reported");
        assert_eq!(printed(&line), owned(metrics), "trace {trace}");
    }
}
