//! End-to-end contract of the `owl-detect` CLI: `--format json` emits a
//! schema-versioned [`DetectionSummary`] that parses, the exit code encodes
//! the verdict (0 = clean, 2 = leaky, 3 = inconclusive, 1 = error), stdout
//! is byte-identical across `--parallelism` settings, and `--metrics-out`
//! captures the wall-clock side in a separate file.

use std::process::{Command, Output, Stdio};

fn owl_detect(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_owl-detect"))
        .args(args)
        .output()
        .expect("spawn owl-detect")
}

/// Looks up `key` in a JSON object value (the vendored `Value` has no
/// `Index` impl).
fn get<'a>(v: &'a serde_json::Value, key: &str) -> &'a serde_json::Value {
    v.as_map()
        .expect("expected a JSON object")
        .iter()
        .find(|(k, _)| k.as_str() == Some(key))
        .map(|(_, v)| v)
        .unwrap_or_else(|| panic!("missing key {key:?}"))
}

#[test]
fn leaky_workload_emits_schema_versioned_json_and_exits_two() {
    let out = owl_detect(&["dummy", "--runs", "8", "--format", "json"]);
    assert_eq!(out.status.code(), Some(2), "leaky verdict must exit 2");
    let stdout = String::from_utf8(out.stdout).expect("utf8 stdout");
    let value: serde_json::Value = serde_json::from_str(&stdout).expect("stdout parses as JSON");
    assert_eq!(
        *get(&value, "schema_version"),
        serde_json::Value::Int(i128::from(owl::core::SCHEMA_VERSION))
    );
    assert_eq!(get(&value, "verdict").as_str(), Some("leaky"));
    assert_eq!(get(&value, "workload").as_str(), Some("dummy"));
    let instructions = get(get(&value, "counters"), "instructions");
    assert!(
        matches!(instructions, serde_json::Value::Int(n) if *n > 0),
        "counters must record execution, got {instructions:?}"
    );
}

#[test]
fn clean_workload_exits_zero() {
    let out = owl_detect(&["rsa-ladder", "--runs", "6", "--format", "json"]);
    assert_eq!(out.status.code(), Some(0), "clean verdict must exit 0");
    let stdout = String::from_utf8(out.stdout).expect("utf8 stdout");
    let value: serde_json::Value = serde_json::from_str(&stdout).expect("stdout parses as JSON");
    let verdict = get(&value, "verdict").as_str().expect("verdict string");
    assert!(
        verdict == "leak_free" || verdict == "no_input_dependence",
        "unexpected verdict {verdict:?}"
    );
}

#[test]
fn injected_quarantine_exits_three_with_fault_log() {
    // `--inject quarantine` persistently kills the whole random evidence
    // stream: E_rnd falls below quorum, the verdict is inconclusive, and
    // the summary carries the quarantine log.
    let out = owl_detect(&[
        "dummy",
        "--runs",
        "8",
        "--inject",
        "quarantine",
        "--format",
        "json",
    ]);
    assert_eq!(
        out.status.code(),
        Some(3),
        "inconclusive verdict must exit 3"
    );
    let stdout = String::from_utf8(out.stdout).expect("utf8 stdout");
    let value: serde_json::Value = serde_json::from_str(&stdout).expect("stdout parses as JSON");
    assert_eq!(get(&value, "verdict").as_str(), Some("inconclusive"));
    let quarantined = get(get(get(&value, "faults"), "evidence"), "quarantined");
    assert_eq!(*quarantined, serde_json::Value::Int(8));
    let log = get(&value, "fault_log").as_seq().expect("fault_log array");
    assert_eq!(log.len(), 8, "one record per lost run");
    assert_eq!(
        get(&log[0], "error_kind").as_str(),
        Some("exec_fuel_exhausted")
    );
    assert_eq!(get(&log[0], "phase").as_str(), Some("evidence"));
}

#[test]
fn injected_transient_faults_keep_the_verdict_and_exit_code() {
    // `--inject transient` fails every random run's first two attempts;
    // the default retry budget recovers all of them, so the workload's
    // normal verdict (leaky → exit 2) stands and only the fault counters
    // record the turbulence.
    let out = owl_detect(&[
        "dummy",
        "--runs",
        "8",
        "--inject",
        "transient",
        "--format",
        "json",
    ]);
    assert_eq!(
        out.status.code(),
        Some(2),
        "recovered runs keep the verdict"
    );
    let stdout = String::from_utf8(out.stdout).expect("utf8 stdout");
    let value: serde_json::Value = serde_json::from_str(&stdout).expect("stdout parses as JSON");
    assert_eq!(get(&value, "verdict").as_str(), Some("leaky"));
    let evidence = get(get(&value, "faults"), "evidence");
    assert_eq!(*get(evidence, "quarantined"), serde_json::Value::Int(0));
    assert_eq!(*get(evidence, "retried"), serde_json::Value::Int(16));
    assert!(get(&value, "fault_log")
        .as_seq()
        .expect("fault_log array")
        .is_empty());
}

#[test]
fn injected_fault_stdout_is_byte_identical_across_parallelism() {
    let base = [
        "dummy",
        "--runs",
        "8",
        "--inject",
        "quarantine",
        "--format",
        "json",
        "--parallelism",
    ];
    let serial = owl_detect(&[&base[..], &["1"]].concat());
    let parallel = owl_detect(&[&base[..], &["4"]].concat());
    assert_eq!(serial.status.code(), Some(3));
    assert_eq!(parallel.status.code(), Some(3));
    assert_eq!(
        String::from_utf8(serial.stdout).expect("utf8"),
        String::from_utf8(parallel.stdout).expect("utf8"),
        "fault log and counters on stdout must not depend on the worker count"
    );
}

/// Malformed invocations, each with the stderr fragments it must produce.
const MALFORMED: &[(&[&str], &[&str])] = &[
    (&["dummy", "--runs"], &["--runs needs a number"]),
    (&["dummy", "--runs", "abc"], &["--runs needs a number"]),
    (&["dummy", "--runs", "-3"], &["--runs needs a number"]),
    (
        &["dummy", "--alpha", "2"],
        &["invalid configuration", "alpha"],
    ),
    (
        &["dummy", "--alpha", "nan"],
        &["invalid configuration", "alpha"],
    ),
    (&["dummy", "--format", "yaml"], &["--format"]),
    (&["dummy", "--bogus"], &["unknown option --bogus"]),
    (&["dummy", "--parallelism", "0"], &["--parallelism"]),
    (
        &["dummy", "--runs", "0"],
        &["invalid configuration", "runs"],
    ),
    (&["dummy", "--retries", "0"], &["--retries"]),
    (
        &["dummy", "--min-runs", "999", "--runs", "4"],
        &["invalid configuration", "min runs"],
    ),
    (&["dummy", "--aslr", "x"], &["--aslr needs a seed"]),
    (&["dummy", "--metrics-out"], &["--metrics-out needs a path"]),
    (&["dummy:abc"], &["bad dummy size"]),
    (&["dummy:0"], &["bad dummy size"]),
    (&["torch:nope"], &["unknown workload"]),
    (&[], &["missing workload"]),
];

/// A malformed invocation exits 1 with empty stdout and one `error:` line on
/// stderr that contains every fragment, and does not panic.
fn assert_usage_error(args: &[&str], fragments: &[&str]) {
    let out = owl_detect(args);
    let stderr = String::from_utf8(out.stderr).expect("utf8 stderr");
    assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?} wrote to stdout");
    assert!(stderr.starts_with("error:"), "{args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    for fragment in fragments {
        assert!(stderr.contains(fragment), "{args:?}: {stderr}");
    }
}

#[test]
fn malformed_invocations_exit_one_with_an_error_line() {
    for &(args, fragments) in MALFORMED {
        assert_usage_error(args, fragments);
    }
}

#[test]
fn unknown_inject_scenario_exits_one() {
    assert_usage_error(
        &["dummy", "--runs", "8", "--inject", "no-such-fault"],
        &["unknown --inject scenario"],
    );
}

#[test]
fn unknown_workload_exits_one() {
    assert_usage_error(&["no-such-workload"], &["unknown workload"]);
}

#[test]
fn unknown_engine_exits_one() {
    assert_usage_error(
        &["dummy", "--runs", "8", "--engine", "anova"],
        &["unknown engine"],
    );
}

#[test]
fn zero_budget_flag_exits_one_with_friendly_error() {
    // Nonsense budgets are usage errors.
    assert_usage_error(
        &["dummy", "--runs", "8", "--max-instructions", "0"],
        &["invalid configuration", "instructions"],
    );
}

#[test]
fn json_stdout_is_byte_identical_across_parallelism() {
    let base = ["dummy", "--runs", "8", "--format", "json", "--parallelism"];
    let serial = owl_detect(&[&base[..], &["1"]].concat());
    let parallel = owl_detect(&[&base[..], &["2"]].concat());
    assert_eq!(serial.status.code(), parallel.status.code());
    assert_eq!(
        String::from_utf8(serial.stdout).expect("utf8"),
        String::from_utf8(parallel.stdout).expect("utf8"),
        "the summary on stdout must not depend on the worker count"
    );
}

#[test]
fn default_engine_is_ks_and_comparison_is_off() {
    let out = owl_detect(&["dummy", "--runs", "8", "--format", "json"]);
    let stdout = String::from_utf8(out.stdout).expect("utf8 stdout");
    let value: serde_json::Value = serde_json::from_str(&stdout).expect("stdout parses as JSON");
    let config = get(&value, "config");
    assert_eq!(get(config, "engine").as_str(), Some("ks"));
    assert_eq!(
        *get(config, "compare_engines"),
        serde_json::Value::Bool(false)
    );
    assert_eq!(
        *get(&value, "engine_comparison"),
        serde_json::Value::Null,
        "no agreement table outside comparison mode"
    );
}

#[test]
fn engine_flag_selects_the_engine_and_keeps_exit_codes() {
    for (engine, echoed) in [("tvla", "tvla"), ("mi", "mi"), ("ks", "ks")] {
        let out = owl_detect(&[
            "dummy", "--runs", "8", "--engine", engine, "--format", "json",
        ]);
        assert_eq!(
            out.status.code(),
            Some(2),
            "dummy is leaky under the {engine} engine too"
        );
        let stdout = String::from_utf8(out.stdout).expect("utf8 stdout");
        let value: serde_json::Value =
            serde_json::from_str(&stdout).expect("stdout parses as JSON");
        assert_eq!(get(&value, "verdict").as_str(), Some("leaky"));
        assert_eq!(get(get(&value, "config"), "engine").as_str(), Some(echoed));
    }
}

#[test]
fn compare_engines_nests_per_engine_verdicts_under_each_leak() {
    let out = owl_detect(&[
        "dummy",
        "--runs",
        "20",
        "--compare-engines",
        "--format",
        "json",
    ]);
    assert_eq!(
        out.status.code(),
        Some(2),
        "the primary (ks) verdict still drives the exit code"
    );
    let stdout = String::from_utf8(out.stdout).expect("utf8 stdout");
    let value: serde_json::Value = serde_json::from_str(&stdout).expect("stdout parses as JSON");
    assert_eq!(
        *get(get(&value, "config"), "compare_engines"),
        serde_json::Value::Bool(true)
    );
    let cmp = get(&value, "engine_comparison");
    let engines = get(cmp, "engines").as_seq().expect("engines array");
    let engine_names: Vec<_> = engines.iter().filter_map(|e| e.as_str()).collect();
    assert_eq!(engine_names, ["ks", "tvla", "mi"]);
    let rows = get(cmp, "rows").as_seq().expect("rows array");
    assert!(
        !rows.is_empty(),
        "dummy must produce at least one table row"
    );
    for row in rows {
        let verdicts = get(row, "verdicts").as_seq().expect("verdicts array");
        assert_eq!(verdicts.len(), 3, "one verdict per engine");
        for (verdict, expected) in verdicts.iter().zip(&engine_names) {
            assert_eq!(get(verdict, "engine").as_str(), Some(*expected));
            assert!(
                matches!(get(verdict, "flagged"), serde_json::Value::Bool(_)),
                "flagged is a boolean"
            );
        }
        // The MI verdict quantifies whenever it flags.
        let mi = &verdicts[2];
        if *get(mi, "flagged") == serde_json::Value::Bool(true) {
            assert!(
                matches!(get(mi, "bits"), serde_json::Value::Float(b) if *b > 0.0),
                "a flagging MI verdict carries a positive bits estimate"
            );
        }
    }
    let agreements = get(cmp, "agreements");
    let disagreements = get(cmp, "disagreements");
    let (a, d) = match (agreements, disagreements) {
        (serde_json::Value::Int(a), serde_json::Value::Int(d)) => (*a, *d),
        other => panic!("agreement counts must be integers, got {other:?}"),
    };
    assert_eq!(a + d, rows.len() as i128, "every row is agreed or split");
}

#[test]
fn compare_engines_stdout_is_byte_identical_across_parallelism() {
    let base = [
        "dummy",
        "--runs",
        "12",
        "--compare-engines",
        "--format",
        "json",
        "--parallelism",
    ];
    let serial = owl_detect(&[&base[..], &["1"]].concat());
    let parallel = owl_detect(&[&base[..], &["4"]].concat());
    assert_eq!(serial.status.code(), parallel.status.code());
    assert_eq!(
        String::from_utf8(serial.stdout).expect("utf8"),
        String::from_utf8(parallel.stdout).expect("utf8"),
        "the agreement table must not depend on the worker count"
    );
}

#[test]
fn runaway_workload_under_instruction_budget_exits_three() {
    let out = owl_detect(&[
        "runaway",
        "--runs",
        "4",
        "--max-instructions",
        "10000",
        "--format",
        "json",
    ]);
    assert_eq!(
        out.status.code(),
        Some(3),
        "a runaway kernel under budget is inconclusive, not a hang"
    );
    let stdout = String::from_utf8(out.stdout).expect("utf8 stdout");
    let value: serde_json::Value = serde_json::from_str(&stdout).expect("stdout parses as JSON");
    assert_eq!(get(&value, "verdict").as_str(), Some("inconclusive"));
    let trace = get(get(&value, "faults"), "trace_collection");
    assert_eq!(*get(trace, "budget_exhausted"), serde_json::Value::Int(3));
    assert_eq!(
        *get(get(&value, "config"), "max_instructions"),
        serde_json::Value::Int(10000)
    );
}

#[test]
fn injected_budget_exhaustion_exits_three() {
    let out = owl_detect(&[
        "dummy", "--runs", "8", "--inject", "budget", "--format", "json",
    ]);
    assert_eq!(out.status.code(), Some(3));
    let stdout = String::from_utf8(out.stdout).expect("utf8 stdout");
    let value: serde_json::Value = serde_json::from_str(&stdout).expect("stdout parses as JSON");
    assert_eq!(get(&value, "verdict").as_str(), Some("inconclusive"));
    let log = get(&value, "fault_log").as_seq().expect("fault_log array");
    assert_eq!(log.len(), 8, "the whole random stream is lost");
    assert_eq!(
        get(&log[0], "error_kind").as_str(),
        Some("budget_exhausted")
    );
}

#[test]
fn injected_deadline_expiry_keeps_a_quorum_intact_verdict() {
    let out = owl_detect(&[
        "dummy", "--runs", "8", "--inject", "deadline", "--format", "json",
    ]);
    assert_eq!(
        out.status.code(),
        Some(2),
        "one cancelled run leaves the quorum intact"
    );
    let stdout = String::from_utf8(out.stdout).expect("utf8 stdout");
    let value: serde_json::Value = serde_json::from_str(&stdout).expect("stdout parses as JSON");
    assert_eq!(get(&value, "verdict").as_str(), Some("leaky"));
    let evidence = get(get(&value, "faults"), "evidence");
    assert_eq!(*get(evidence, "cancelled"), serde_json::Value::Int(1));
}

#[test]
fn deadline_flag_is_echoed_without_affecting_a_fast_run() {
    let out = owl_detect(&[
        "dummy",
        "--runs",
        "8",
        "--deadline-ms",
        "60000",
        "--format",
        "json",
    ]);
    assert_eq!(
        out.status.code(),
        Some(2),
        "a generous deadline never fires"
    );
    let stdout = String::from_utf8(out.stdout).expect("utf8 stdout");
    let value: serde_json::Value = serde_json::from_str(&stdout).expect("stdout parses as JSON");
    assert_eq!(
        *get(get(&value, "config"), "deadline_millis"),
        serde_json::Value::Int(60000)
    );
}

#[test]
fn metrics_out_writes_wall_clock_report() {
    let dir = std::env::temp_dir().join("owl-cli-json-test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("metrics.json");
    let path_str = path.to_str().expect("utf8 path");
    let out = owl_detect(&[
        "dummy",
        "--runs",
        "8",
        "--format",
        "json",
        "--metrics-out",
        path_str,
    ]);
    assert_eq!(out.status.code(), Some(2));
    let text = std::fs::read_to_string(&path).expect("metrics file written");
    let value: serde_json::Value = serde_json::from_str(&text).expect("metrics file parses");
    assert_eq!(
        *get(&value, "schema_version"),
        serde_json::Value::Int(i128::from(owl::core::SCHEMA_VERSION))
    );
    assert!(
        matches!(get(&value, "parallelism"), serde_json::Value::Int(n) if *n >= 1),
        "metrics echo the worker count"
    );
    let spans = get(&value, "spans").as_seq().expect("spans array");
    assert!(!spans.is_empty(), "phase spans must be recorded");
    let stats = get(&value, "phase_stats");
    assert!(
        matches!(get(stats, "total_ms"), serde_json::Value::Float(ms) if *ms >= 0.0),
        "wall-clock totals live in the metrics file"
    );
}

#[test]
fn closed_stdout_keeps_the_exit_code_and_the_metrics_file() {
    let dir = std::env::temp_dir().join("owl-cli-json-epipe");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("metrics.json");
    let _ = std::fs::remove_file(&path);
    let path_str = path.to_str().expect("utf8 path");
    let mut child = Command::new(env!("CARGO_BIN_EXE_owl-detect"))
        .args(["aes-ttable", "--runs", "10", "--format", "json"])
        .args(["--metrics-out", path_str])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn owl-detect");
    // Close the reading end before the summary is written, as `| head`
    // does once it has its lines.
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("wait for owl-detect");
    let stderr = String::from_utf8(out.stderr).expect("utf8 stderr");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
    assert_eq!(
        out.status.code(),
        Some(2),
        "the verdict still sets the code"
    );
    assert!(path.exists(), "metrics are written before stdout");
}

#[test]
fn help_prints_usage_to_stdout_and_exits_zero() {
    for flag in ["--help", "-h"] {
        let out = owl_detect(&[flag]);
        assert_eq!(out.status.code(), Some(0), "{flag}");
        let stdout = String::from_utf8(out.stdout).expect("utf8 stdout");
        assert!(stdout.starts_with("usage: owl-detect"), "{flag}: {stdout}");
        assert!(stdout.contains("aes-ttable"), "{flag}: {stdout}");
        assert!(out.stderr.is_empty(), "{flag}");
    }
}
