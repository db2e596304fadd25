//! `nfmbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints the run's notes, then one JSON result line.  Exits non-zero,
//! without a result line, when the arguments are wrong, any output
//! fails its check, or the run is otherwise invalid.

use nfmbench::report::{host_line, END_TO_END, PER_LAYER};
use nfmbench::{run, Args};
use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("nfmbench: {e}");
            eprintln!("usage: nfmbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    println!("{}", host_line());
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    let expected = if args.trace { PER_LAYER } else { END_TO_END };
    let outcome = run(&args).and_then(|o| o.validate(expected).map(|()| o));
    match outcome {
        Ok(o) => {
            for line in &o.notes {
                println!("{line}");
            }
            println!("{}", o.result_line(expected));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("nfmbench: run failed: {e}");
            ExitCode::FAILURE
        }
    }
}
