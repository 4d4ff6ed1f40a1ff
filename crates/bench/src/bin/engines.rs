//! Cross-engine comparison smoke: runs every analysis engine (KS, TVLA,
//! MI) over the same evidence on two representative leaky workloads and
//! reports the per-location agreement/disagreement table.
//!
//! Agreement across methods raises confidence in a leak; a disagreement
//! row localises a case one method is blind to (TVLA's mean-blindness,
//! MI's small-sample guard). The paper's KS engine remains the primary
//! verdict; this artefact records how the alternatives line up with it.
//!
//! ```text
//! cargo run --release -p owl-bench --bin engines
//! ```

use owl_bench::write_bench_json;
use owl_core::{detect, verdict_name, EngineComparison, OwlConfig, TracedProgram};
use owl_workloads::aes::AesTTable;
use owl_workloads::histogram::HistogramDirect;

/// One workload's cross-engine outcome.
#[derive(serde::Serialize)]
struct WorkloadRow {
    name: String,
    verdict: String,
    locations: usize,
    agreements: usize,
    disagreements: usize,
    comparison: EngineComparison,
}

/// The full engine-comparison artefact.
#[derive(serde::Serialize)]
struct EngineBench {
    engines: Vec<String>,
    workloads: Vec<WorkloadRow>,
}

fn compare<P>(
    name: &str,
    program: &P,
    inputs: &[P::Input],
    runs: usize,
) -> Result<WorkloadRow, Box<dyn std::error::Error>>
where
    P: TracedProgram + Sync,
    P::Input: Send + Sync,
{
    let config = OwlConfig {
        runs,
        compare_engines: true,
        ..OwlConfig::default()
    };
    let detection = detect(program, inputs, &config)?;
    let comparison = detection
        .engine_comparison
        .expect("comparison mode records the table");
    println!(
        "  {name:<18} verdict={:<16} locations={:<3} agreed={:<3} split={}",
        verdict_name(detection.verdict),
        comparison.rows.len(),
        comparison.agreements,
        comparison.disagreements
    );
    for (engine, leaks) in comparison.engines.iter().zip(&comparison.leaks_per_engine) {
        println!("    {engine:<5} {leaks} leak(s)");
    }
    Ok(WorkloadRow {
        name: name.into(),
        verdict: verdict_name(detection.verdict).to_string(),
        locations: comparison.rows.len(),
        agreements: comparison.agreements,
        disagreements: comparison.disagreements,
        comparison,
    })
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("Cross-engine agreement (ks / tvla / mi) on leaky workloads");
    println!();
    let mut doc = EngineBench {
        engines: vec!["ks".into(), "tvla".into(), "mi".into()],
        workloads: Vec::new(),
    };

    let aes = AesTTable::new(32);
    let keys = [[0u8; 16], [0xff; 16], *b"owl-sca-detector", [0x3c; 16]];
    doc.workloads
        .push(compare("aes128-ttable", &aes, &keys, 40)?);

    let histogram = HistogramDirect::new(64);
    let inputs: Vec<Vec<u8>> = (0..4).map(|s| histogram.random_input(s)).collect();
    doc.workloads
        .push(compare("histogram-direct", &histogram, &inputs, 40)?);

    let path = write_bench_json("engines", &doc)?;
    println!();
    println!("machine-readable comparison: {}", path.display());
    Ok(())
}
