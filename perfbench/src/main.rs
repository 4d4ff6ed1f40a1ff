//! Runs one benchmark workload and prints its metrics.
//!
//! ```text
//! owl-perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Report lines come first; the last line of standard output is one JSON
//! object with `correct`, `attempted`, `failed` and `metrics` (the
//! end-to-end metrics, or with `--trace 1` the per-layer ones). Exits 1
//! on a usage or runtime error, without a result line.

use owl_perfbench::alloc::CountingAlloc;
use owl_perfbench::metrics::{result_line, Outcome, END_TO_END, PER_LAYER};
use owl_perfbench::workload::{aes_ttable, jpeg_encode_aslr, NAMES};
use std::process::ExitCode;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| bad(&e))?;
                if !(args.seconds.is_finite() && args.seconds >= 0.0) {
                    return Err(bad(&"not a duration"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

fn run(args: &Args) -> Result<Outcome, String> {
    let (seed, seconds, trace) = (args.seed, args.seconds, args.trace);
    match args.workload.as_str() {
        "aes-ttable-r10" => owl_perfbench::run(
            |s| aes_ttable("aes-ttable-r10", s, 32, 10),
            seed,
            seconds,
            trace,
        ),
        "aes-ttable-r100" => owl_perfbench::run(
            |s| aes_ttable("aes-ttable-r100", s, 32, 100),
            seed,
            seconds,
            trace,
        ),
        "jpeg-encode-aslr-r100" => owl_perfbench::run(
            |s| jpeg_encode_aslr("jpeg-encode-aslr-r100", s, 16, 100),
            seed,
            seconds,
            trace,
        ),
        other => Err(format!(
            "unknown workload {other:?}; expected one of {}",
            NAMES.join(", ")
        )),
    }
}

fn main() -> ExitCode {
    let outcome = parse_args().and_then(|args| {
        let outcome = run(&args)?;
        let declared = if args.trace { PER_LAYER } else { END_TO_END };
        let line = result_line(&outcome, declared)?;
        Ok((outcome, declared, line))
    });
    match outcome {
        Ok((outcome, declared, line)) => {
            for l in &outcome.lines {
                println!("{l}");
            }
            for (m, (_, value)) in declared.iter().zip(&outcome.values) {
                println!("{} = {value} {}", m.name, m.unit);
            }
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("owl-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
