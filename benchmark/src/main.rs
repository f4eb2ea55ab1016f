//! `mmlib-benchmark --workload <name> ...` runs one workload once and prints
//! its result line; without `--workload` it runs the whole suite (see
//! `suite.rs`). `run.sh` builds this program and passes its arguments on.

use std::path::PathBuf;
use std::process::ExitCode;

use mmlib_benchmark::report;
use mmlib_benchmark::suite::{self, SuiteConfig};
use mmlib_benchmark::workload::{RunConfig, Workload};

const USAGE: &str = "usage:
  mmlib-benchmark --workload <name> --seed N --seconds S --trace 0|1 [--out DIR]
  mmlib-benchmark [--seed N] [--seconds S] [--passes N] [--repeat] [--out DIR] [--spec BENCHMARK.json]";

/// The value after `flag`, if the flag is there.
fn value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|at| args.get(at + 1))
        .map(String::as_str)
}

fn number(args: &[String], flag: &str) -> Result<Option<u64>, String> {
    value(args, flag)
        .map(|v| {
            v.parse()
                .map_err(|_| format!("{flag} needs a whole number, not `{v}`"))
        })
        .transpose()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let numbers = number(&args, "--seed").and_then(|seed| {
        Ok((
            seed,
            number(&args, "--seconds")?,
            number(&args, "--passes")?,
        ))
    });
    let (seed, seconds, passes) = match numbers {
        Ok((seed, seconds, passes)) => (seed.unwrap_or(42), seconds, passes.unwrap_or(1)),
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let value = |flag: &str| value(&args, flag);
    let out_dir = PathBuf::from(value("--out").unwrap_or("benchmark/out"));

    let outcome = match value("--workload") {
        Some(name) => {
            let Some(workload) = Workload::from_name(name) else {
                eprintln!("unknown workload {name}\n{USAGE}");
                return ExitCode::from(2);
            };
            let cfg = RunConfig {
                workload,
                seed,
                seconds: seconds.unwrap_or(10) as f64,
                trace: value("--trace") == Some("1"),
                out_dir,
                tiny: false,
            };
            report::run(&cfg).map(|result| {
                for m in &result.metrics {
                    println!("{:<40} {:>18.4} {}", m.name, m.value, m.unit);
                }
                println!("{}", result.to_json());
                // The result line carries `failed`; judging it is the caller's.
                true
            })
        }
        None => std::env::current_exe()
            .map_err(|e| format!("own path: {e}"))
            .and_then(|exe| {
                suite::run(&SuiteConfig {
                    exe,
                    spec: PathBuf::from(value("--spec").unwrap_or("BENCHMARK.json")),
                    out_dir,
                    seed,
                    seconds,
                    passes: passes as usize,
                    repeat: args.iter().any(|a| a == "--repeat"),
                })
            }),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("benchmark: failed operations or a metric outside its bound (see above)");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
