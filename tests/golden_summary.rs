//! Golden-fixture regression for the machine-readable detection summary.
//!
//! The hot-path overhaul (batched event recording, hybrid histogram
//! storage, lowered kernel IR, cached trace digests) must not change a
//! single observable byte: the pretty-printed [`DetectionSummary`] for a
//! fixed workload is pinned to a checked-in fixture. Regenerate with
//!
//! ```sh
//! OWL_REGEN_GOLDEN=1 cargo test --test golden_summary
//! ```
//!
//! and inspect the diff — any change here is a determinism-contract break
//! until proven otherwise.

use owl::core::{detect, DetectionSummary, OwlConfig};
use owl::workloads::aes::AesTTable;

fn golden_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/aes_ttable_summary.json")
}

fn summary_json() -> String {
    let config = OwlConfig {
        runs: 10,
        parallelism: 2,
        aslr_seed: Some(0xA51A),
        force_analysis: true,
        ..OwlConfig::default()
    };
    let aes = AesTTable::new(32);
    let keys = [[0u8; 16], [0xffu8; 16], *b"owl-sca-detector"];
    let detection = detect(&aes, &keys, &config).expect("detection");
    let summary = DetectionSummary::new("aes-ttable", &detection, &config);
    let mut json = serde_json::to_string_pretty(&summary).expect("json");
    json.push('\n');
    json
}

#[test]
fn detection_summary_matches_golden_fixture() {
    let path = golden_path();
    let actual = summary_json();
    if std::env::var_os("OWL_REGEN_GOLDEN").is_some() {
        std::fs::write(&path, &actual).expect("write fixture");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing fixture {} ({e}); regenerate with OWL_REGEN_GOLDEN=1",
            path.display()
        )
    });
    assert_eq!(
        actual, expected,
        "detection summary drifted from the golden fixture; if the change \
         is intentional, regenerate with OWL_REGEN_GOLDEN=1 and justify the \
         diff in the PR"
    );
}

/// `owl-detect` argument lists whose `--format json` stdout (the
/// pretty-printed [`DetectionSummary`]) is pinned by its FNV-1a digest in
/// `tests/golden/summary_digests.txt`: every non-torch workload under the
/// default KS engine, the TVLA and MI engines and comparison mode on a
/// leaky pair, and the paths that skip the analysis. Every case runs with
/// `--runs 8 --parallelism 2 --format json` unless its own arguments,
/// which come last, override them. Regenerate with `OWL_REGEN_GOLDEN=1`,
/// like the fixture above.
const DIGEST_CASES: &[&[&str]] = &[
    &["aes-ttable"],
    &["aes-scan"],
    &["rsa-sqm"],
    // A single input class: the leak-free early return.
    &["rsa-ladder"],
    &["jpeg-encode"],
    &["jpeg-decode"],
    &["jpeg-encode-fixed"],
    &["noise"],
    &["histogram"],
    &["histogram-oblivious"],
    &["search"],
    &["search-fixed"],
    &["mlp"],
    &["render"],
    &["coalescing"],
    &["dummy"],
    &["aes-ttable", "--engine", "tvla"],
    &["aes-ttable", "--engine", "mi"],
    &["aes-ttable", "--compare-engines"],
    &["dummy", "--engine", "tvla"],
    &["dummy", "--engine", "mi"],
    &["dummy", "--compare-engines"],
    // The random evidence stream is quarantined below quorum.
    &["dummy", "--inject", "quarantine"],
    // Every user input exhausts its budget: no class is left to analyse.
    &["runaway", "--max-instructions", "10000"],
];

fn digests_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/summary_digests.txt")
}

/// One fixture line per case: the stdout digest, then the arguments.
fn digest_line(args: &[&str]) -> String {
    use std::hash::Hasher;
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_owl-detect"))
        .arg(args[0])
        .args(["--runs", "8", "--parallelism", "2", "--format", "json"])
        .args(&args[1..])
        .output()
        .expect("spawn owl-detect");
    assert!(
        matches!(out.status.code(), Some(0 | 2 | 3)),
        "owl-detect {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let mut hasher = owl::core::trace::Fnv1a::default();
    hasher.write(&out.stdout);
    format!("{:016x} {}", hasher.finish(), args.join(" "))
}

#[test]
fn cli_summaries_match_golden_digests() {
    let path = digests_path();
    let actual: String = DIGEST_CASES
        .iter()
        .map(|args| digest_line(args) + "\n")
        .collect();
    if std::env::var_os("OWL_REGEN_GOLDEN").is_some() {
        std::fs::write(&path, &actual).expect("write fixture");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing fixture {} ({e}); regenerate with OWL_REGEN_GOLDEN=1",
            path.display()
        )
    });
    for (actual, expected) in actual.lines().zip(expected.lines()) {
        assert_eq!(
            actual, expected,
            "detection summary drifted from its digest"
        );
    }
    assert_eq!(
        actual.lines().count(),
        expected.lines().count(),
        "the case table and the fixture disagree on the number of cases"
    );
}
