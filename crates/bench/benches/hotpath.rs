//! End-to-end throughput of the record-side hot path.
//!
//! Times the whole `detect()` pipeline — trace recording, duplicate
//! filtering, KS analysis — on the AES T-table and direct-histogram
//! workloads at `parallelism = 1`, so the numbers track the per-event
//! cost of the recording inner loop rather than fan-out scheduling.
//! Besides the criterion smoke run, the bench writes `BENCH_hotpath.json`
//! (via [`owl_bench::write_bench_json`]) with one row per workload:
//! best-of-N `detect()` wall-clock and events/sec, where an *event* is a
//! retired warp instruction or a warp-level memory access — each crosses
//! the interpreter/hook/tracer path exactly once.

use criterion::{criterion_group, criterion_main, Criterion};
use owl_bench::write_bench_json;
use owl_core::{detect, Detection, OwlConfig, TracedProgram};
use owl_workloads::aes::AesTTable;
use owl_workloads::histogram::HistogramDirect;
use std::time::{Duration, Instant};

/// Recording runs per `detect()` call; enough to exercise phases 2 and 3
/// while keeping one bench iteration under a second.
const RUNS: usize = 10;

/// Timed `detect()` calls per workload row (best-of is reported).
const ITERS: usize = 5;

fn config() -> OwlConfig {
    OwlConfig {
        runs: RUNS,
        parallelism: 1,
        // Exercise phase 3 even when filtering collapses to one class.
        force_analysis: true,
        ..OwlConfig::default()
    }
}

fn run_detect<P>(program: &P, inputs: &[P::Input]) -> Detection<P::Input>
where
    P: TracedProgram + Sync,
    P::Input: Send + Sync,
{
    detect(program, inputs, &config()).expect("detection")
}

/// One measured row of `BENCH_hotpath.json`.
#[derive(Debug, serde::Serialize)]
struct HotpathRow {
    workload: String,
    runs: usize,
    iters: usize,
    /// How to read `detect_ms`: best-of-`iters` wall clock on a noisy
    /// host, a trend rather than a gate.
    timing: String,
    detect_ms: f64,
    events: u64,
    events_per_sec: f64,
}

fn measure<P>(name: &str, program: &P, inputs: &[P::Input]) -> HotpathRow
where
    P: TracedProgram + Sync,
    P::Input: Send + Sync,
{
    let warm = run_detect(program, inputs);
    let events = warm.counters.instructions + warm.counters.mem_accesses;
    let mut best = f64::INFINITY;
    for _ in 0..ITERS {
        let start = Instant::now();
        let detection = run_detect(program, inputs);
        let elapsed = start.elapsed().as_secs_f64() * 1e3;
        assert_eq!(detection.verdict, warm.verdict, "verdict must be stable");
        best = best.min(elapsed);
    }
    HotpathRow {
        workload: name.to_string(),
        runs: RUNS,
        iters: ITERS,
        timing: format!("best-of-{ITERS} wall-clock, trend only"),
        detect_ms: best,
        events,
        events_per_sec: events as f64 / (best / 1e3),
    }
}

fn aes_inputs() -> (AesTTable, Vec<[u8; 16]>) {
    let aes = AesTTable::new(32);
    (aes, vec![[0u8; 16], [0xffu8; 16], *b"owl-sca-detector"])
}

fn histogram_inputs() -> (HistogramDirect, Vec<Vec<u8>>) {
    let hist = HistogramDirect::new(256);
    let inputs = (1..=3).map(|seed| hist.random_input(seed)).collect();
    (hist, inputs)
}

fn bench_detect(c: &mut Criterion) {
    let mut g = c.benchmark_group("hotpath");
    g.sample_size(10);
    g.warm_up_time(Duration::from_millis(300));
    g.measurement_time(Duration::from_secs(2));
    let (aes, keys) = aes_inputs();
    g.bench_function("detect-aes-ttable", |b| b.iter(|| run_detect(&aes, &keys)));
    let (hist, data) = histogram_inputs();
    g.bench_function("detect-histogram", |b| b.iter(|| run_detect(&hist, &data)));
    g.finish();
}

fn write_rows(_c: &mut Criterion) {
    let (aes, keys) = aes_inputs();
    let (hist, data) = histogram_inputs();
    let rows = vec![
        measure("aes-ttable", &aes, &keys),
        measure("histogram-direct", &hist, &data),
    ];
    let path = write_bench_json("hotpath", &rows).expect("write BENCH_hotpath.json");
    for row in &rows {
        println!(
            "hotpath/{}: detect {:.1} ms, {:.0} events/sec",
            row.workload, row.detect_ms, row.events_per_sec
        );
    }
    println!("wrote {}", path.display());
}

criterion_group!(benches, bench_detect, write_rows);
criterion_main!(benches);
