//! `mugi-servebench`: the repository's end-to-end and per-layer benchmark
//! of the Mugi serving simulator.
//!
//! ```text
//! cargo run --release --manifest-path servebench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` serves the workload through the production path — a fresh
//! [`EventEngine`](mugi_runtime::EventEngine) folding a seeded
//! [`WorkloadStream`](mugi_runtime::WorkloadStream) — for `--seconds`
//! seconds of repetitions and reports the end-to-end metrics. `--trace 1`
//! is the separate traced invocation that reports the per-layer metrics
//! (see `trace.rs`). Either way the last line of standard output is one
//! JSON object; any correctness failure exits non-zero without printing
//! it. Single process, single thread; every time is read from outside the
//! runtime, around calls into its public API. The timed repetitions are
//! clocked by the thread's CPU time (see `cputime.rs`), everything else by
//! the wall clock.

#![deny(unsafe_code)]
#![warn(missing_docs)]

mod cputime;
mod endtoend;
mod replay;
mod report;
mod stats;
mod trace;
mod workload;

use std::process::ExitCode;
use std::time::Instant;
use workload::{Workload, WORKLOADS};

/// The parsed command line.
#[derive(Clone, Copy, Debug)]
pub struct Args {
    /// The workload to serve.
    pub workload: Workload,
    /// Seed of the workload's request stream.
    pub seed: u64,
    /// How long the measured repetitions run.
    pub seconds: u64,
    /// Whether this is the traced (per-layer) invocation.
    pub trace: bool,
}

const USAGE: &str =
    "usage: mugi-servebench --workload <name> --seed <n> --seconds <s> --trace <0|1>";

/// Parses `--workload`, `--seed`, `--seconds` and `--trace`, all required.
fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::named(value)
                        .ok_or_else(|| bad(&format!("expected one of {}", WORKLOADS.join(", "))))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("expected an integer"))?),
            "--seconds" => match value.parse() {
                Ok(s) if s > 0 => seconds = Some(s),
                _ => return Err(bad("expected a positive integer")),
            },
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(bad("expected 0 or 1")),
            },
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The current wall-clock instant. Every host-time measurement of the
/// benchmark starts here.
pub fn clock() -> Instant {
    // mugi-lint: allow(ambient-nondeterminism, "host wall-clock of the benchmark itself; it times calls into the runtime and never feeds simulated state")
    Instant::now()
}

/// Seconds elapsed since `start`.
pub fn seconds_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("mugi-servebench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = if args.trace { trace::run(&args) } else { endtoend::run(&args) };
    match result.and_then(|outcome| outcome.check_finite().map(|()| outcome)) {
        Ok(outcome) => {
            println!(
                "workload {} seed {} ({} run): {} requests attempted, {} rejected",
                args.workload.name,
                args.seed,
                if args.trace { "traced" } else { "end-to-end" },
                outcome.attempted,
                outcome.failed
            );
            print!("{}", outcome.lines());
            println!("{}", outcome.json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("mugi-servebench: {}: {e}", args.workload.name);
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = parse_args(&argv("--workload disagg_8x8 --seed 7 --seconds 10 --trace 1"))
            .expect("valid");
        assert_eq!((a.workload.name, a.seed, a.seconds, a.trace), ("disagg_8x8", 7, 10, true));
    }

    #[test]
    fn refuses_bad_command_lines() {
        for bad in [
            "",
            "--workload tiny_1node --seed 1 --seconds 10",
            "--workload nope --seed 1 --seconds 10 --trace 0",
            "--workload tiny_1node --seed x --seconds 10 --trace 0",
            "--workload tiny_1node --seed 1 --seconds 0 --trace 0",
            "--workload tiny_1node --seed 1 --seconds 10 --trace 2",
            "--workload tiny_1node --seed 1 --seconds 10 --trace",
            "--workload tiny_1node --seed 1 --seconds 10 --trace 0 --extra 1",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad:?} must be refused");
        }
    }
}
