//! `perfbench`: the repository benchmark.
//!
//! ```text
//! perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! runs one workload of the matrix in [`workloads`] (or all of them, one
//! after another) and prints, as its last
//! stdout line, `{"correct", "attempted", "failed", "metrics"}`: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. The subcommands `gen`, `compile` and `trace` are the child
//! processes the runner spawns (input generation, the measured compile
//! process, and the traced replay); they are not meant to be run by hand.

mod checks;
mod compile_run;
mod procfs;
mod runner;
mod serve_mix;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

/// The value following `flag` in `args`.
fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1)).map(String::as_str)
}

fn required<T: std::str::FromStr>(args: &[String], flag: &str) -> Result<T, String> {
    flag_value(args, flag)
        .ok_or_else(|| format!("missing {flag}"))?
        .parse()
        .map_err(|_| format!("{flag}: not a valid value"))
}

fn workload_arg(args: &[String]) -> Result<workloads::Workload, String> {
    let name: String = required(args, "--workload")?;
    workloads::Workload::parse(&name).ok_or_else(|| {
        let known: Vec<&str> = workloads::Workload::ALL.iter().map(|w| w.name()).collect();
        format!("unknown workload '{name}' (expected one of {})", known.join(", "))
    })
}

fn run(args: &[String]) -> Result<(), String> {
    match args.first().map(String::as_str) {
        Some("gen") => {
            let workload = workload_arg(args)?;
            let seed: u64 = required(args, "--seed")?;
            let fresh: usize = required(args, "--fresh")?;
            let out = PathBuf::from(required::<String>(args, "--out")?);
            workloads::generate_inputs(workload, seed, fresh, &out)
                .and_then(|()| workloads::generate_checks(seed, &out))
                .map_err(|e| format!("gen: {e}"))
        }
        Some("compile") => {
            let dir = PathBuf::from(required::<String>(args, "--dir")?);
            compile_run::main(&dir, required(args, "--seconds")?)
        }
        Some("trace") => {
            let dir = PathBuf::from(required::<String>(args, "--dir")?);
            let out = PathBuf::from(required::<String>(args, "--trace-out")?);
            trace::main(&dir, required(args, "--seconds")?, &out)
        }
        _ => {
            let trace: u8 = required(args, "--trace")?;
            if trace > 1 {
                return Err("--trace: expected 0 or 1".into());
            }
            let (seed, seconds) = (required(args, "--seed")?, required(args, "--seconds")?);
            // `--workload all` runs the whole matrix in one command, one
            // result block per workload.
            if flag_value(args, "--workload") == Some("all") {
                for workload in workloads::Workload::ALL {
                    println!("workload {}", workload.name());
                    runner::main(workload, seed, seconds, trace == 1)?;
                }
                return Ok(());
            }
            runner::main(workload_arg(args)?, seed, seconds, trace == 1)
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            ExitCode::FAILURE
        }
    }
}
