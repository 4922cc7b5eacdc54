//! The `autocomm` command-line compiler.
//!
//! `autocomm compile <file.qasm> --nodes N [--ablation ...] [--json]`
//! drives QASM parsing → partitioning → the AutoComm compiler →
//! metrics end to end; `autocomm batch <dir|--suite> --nodes N [--jobs J]`
//! fans a whole workload set across a worker pool; `autocomm serve` keeps
//! a persistent compile daemon with a content-addressed artifact cache
//! (`submit`/`stats`/`shutdown` are its clients). See [`dqc_cli::USAGE`]
//! for the full surface.

use std::process::ExitCode;

use dqc_cli::batch::{run_batch, BatchArgs};
use dqc_cli::serve::{
    parse_addr, run_serve, run_shutdown, run_stats, run_submit, ServeArgs, SubmitArgs,
};
use dqc_cli::{compile, CliError, CompileArgs, USAGE};

/// Exit code 0 on success, 2 with the usage text appended for usage
/// errors, 1 otherwise.
fn exit_code(result: Result<ExitCode, CliError>) -> ExitCode {
    match result {
        Ok(code) => code,
        Err(CliError::Usage(msg)) => {
            eprintln!("{msg}\n\n{USAGE}");
            ExitCode::from(2)
        }
        Err(e) => {
            eprintln!("autocomm: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let done = |()| ExitCode::SUCCESS;
    match args.next().as_deref() {
        Some("compile") => exit_code(CompileArgs::parse(args).and_then(compile).map(|report| {
            if report.args.json {
                println!("{}", report.to_json());
            } else {
                print!("{}", report.to_text());
            }
            ExitCode::SUCCESS
        })),
        Some("batch") => exit_code(BatchArgs::parse(args).and_then(run_batch).map(|report| {
            if report.args.json {
                println!("{}", report.to_json());
            } else {
                print!("{}", report.to_text());
            }
            if report.failures() == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        })),
        Some("serve") => exit_code(ServeArgs::parse(args).and_then(run_serve).map(done)),
        Some("submit") => exit_code(SubmitArgs::parse(args).and_then(|a| run_submit(&a)).map(done)),
        Some("stats") => exit_code(parse_addr(args).and_then(|a| run_stats(&a)).map(done)),
        Some("shutdown") => exit_code(parse_addr(args).and_then(|a| run_shutdown(&a)).map(done)),
        Some("help") | Some("--help") | Some("-h") => {
            print!("{USAGE}");
            ExitCode::SUCCESS
        }
        Some(other) => {
            exit_code(Err(CliError::Usage(format!("autocomm: unknown command '{other}'"))))
        }
        None => {
            eprint!("{USAGE}");
            ExitCode::from(2)
        }
    }
}
