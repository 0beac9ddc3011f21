//! End-to-end and per-layer benchmark of the NTX serving stack.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <serve-mix|train-step|train-step-native|all> \
//!     [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! With `--trace 0` a workload runs its closed loop through the public
//! `Session` API for `--seconds` after set-up and prints the end-to-end
//! metrics; with `--trace 1` it replays a fixed window of the same
//! stream through the layer calls the continuous server makes and
//! prints the per-layer metrics. Either way the last line of standard
//! output is one JSON object. `--workload all` runs every workload in
//! a process of its own. See `perfbench/README.md` for the metrics and
//! which layer moves which end-to-end number.

mod client;
mod procfs;
mod replay;
mod serve;
mod stats;
mod trace;
mod workload;

use std::fmt::Write as _;
use std::process::ExitCode;

use workload::{compile_step, stream_fingerprint, Kind, Stream, Workload};

struct Args {
    workload: Option<Kind>,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 10,
        trace: false,
    };
    let mut all = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                if v == "all" {
                    all = true;
                } else {
                    args.workload = Some(Kind::parse(v).ok_or(format!("unknown workload {v:?}"))?);
                }
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.workload.is_none() && !all {
        return Err("--workload is required".into());
    }
    if args.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(args)
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, f64, &str)],
) -> String {
    let mut m = String::new();
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            m,
            "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        );
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{m}}}}}"
    )
}

/// Checks that one seed yields one stream before measuring it.
fn streams_are_deterministic(kind: Kind, seed: u64) -> bool {
    let step = (kind != Kind::ServeMix).then(compile_step);
    let a = Workload::new(kind, seed, step.clone());
    let b = Workload::new(kind, seed, step);
    let n = if kind == Kind::ServeMix { 64 } else { 2 };
    [Stream::Warmup, Stream::Main]
        .into_iter()
        .all(|s| stream_fingerprint(&a, s, n) == stream_fingerprint(&b, s, n))
}

fn run_one(kind: Kind, args: &Args) -> ExitCode {
    let parallelism = std::thread::available_parallelism().map_or(0, usize::from);
    println!(
        "workload {} seed {} trace {} available_parallelism {parallelism} \
         pool_threads 1 native_threads 1",
        kind.name(),
        args.seed,
        u8::from(args.trace)
    );
    if !streams_are_deterministic(kind, args.seed) {
        eprintln!(
            "error: seed {} does not reproduce its job stream",
            args.seed
        );
        return ExitCode::from(2);
    }
    let (correct, attempted, failed, metrics) = if args.trace {
        let t = replay::run(kind, args.seed);
        for (name, value, unit) in &t.metrics {
            println!("{name:<26} {value} {unit}");
        }
        if let Some(f) = &t.spans_file {
            println!("spans written to {f}");
        }
        (t.failed == 0, t.attempted, t.failed, t.metrics)
    } else {
        let e = serve::run(kind, args.seed, args.seconds);
        for line in e.report() {
            println!("{line}");
        }
        let bad = e.rec.rejected + e.rec.failed + e.wrong + e.warm_errors;
        (bad == 0, e.rec.submitted + e.warm_jobs, bad, e.metrics())
    };
    println!("{}", result_json(correct, attempted, failed, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("error: {failed} jobs were refused, failed or produced wrong outputs");
        ExitCode::FAILURE
    }
}

/// Runs every workload in a child process of its own, so each
/// workload's set-up time and peak RSS are its own.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("error: cannot locate the benchmark executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for kind in Kind::ALL {
        let status = std::process::Command::new(&exe)
            .args(["--workload", kind.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status();
        ok &= status.is_ok_and(|s| s.success());
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: ntx-perfbench --workload <serve-mix|train-step|train-step-native|all> \
                 [--seed N] [--seconds S] [--trace 0|1]"
            );
            return ExitCode::from(2);
        }
    };
    match args.workload {
        Some(kind) => run_one(kind, &args),
        None => run_all(&args),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_benchmark_command_line() {
        let argv: Vec<String> = "--workload train-step --seed 7 --seconds 3 --trace 1"
            .split(' ')
            .map(String::from)
            .collect();
        let a = parse_args(&argv).expect("valid");
        assert_eq!(a.workload, Some(Kind::TrainStep));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 3, true));
        assert!(parse_args(&["--workload".into(), "nope".into()]).is_err());
        assert!(parse_args(&["--seed".into(), "1".into()]).is_err());
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let line = result_json(
            true,
            3,
            0,
            &[("setup_s", 0.5, "s"), ("jobs_per_s", 2.0, "jobs/s")],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}, \
             \"jobs_per_s\": {\"value\": 2.0, \"unit\": \"jobs/s\"}}}"
        );
    }
}
