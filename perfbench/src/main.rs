//! `rpt-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints the full `rpt-perf-v1` result document, then — as the last line
//! of standard output — the summary `{"correct", "attempted", "failed",
//! "metrics"}`. A run that cannot be carried out exits 1 without a
//! summary. Scratch files live under `.bench_work/` in the working
//! directory and are removed before exit.

use std::path::PathBuf;
use std::process::ExitCode;

use rpt_perfbench::report::{END_TO_END, PER_LAYER};
use rpt_perfbench::{pretrain, serve, Outcome, RunOpts};

fn run(opts: &RunOpts, work: &std::path::Path) -> Result<Outcome, String> {
    match (opts.workload.as_str(), opts.trace) {
        ("match_bulk_int8", false) => serve::run(opts, work),
        ("match_bulk_int8", true) => serve::run_traced(opts, work),
        ("pretrain_stream", false) => pretrain::run(opts, work),
        ("pretrain_stream", true) => pretrain::run_traced(opts, work),
        (other, _) => Err(format!("unknown workload {other}")),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match RunOpts::parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("rpt-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let work = PathBuf::from(".bench_work").join(format!(
        "{}-{}-{}",
        opts.workload,
        opts.seed,
        std::process::id()
    ));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("rpt-perfbench: cannot create {}: {e}", work.display());
        return ExitCode::FAILURE;
    }
    let result = run(&opts, &work);
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(".bench_work");
    let mut outcome = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("rpt-perfbench: {}: {e}", opts.workload);
            return ExitCode::FAILURE;
        }
    };
    let set = if opts.trace { PER_LAYER } else { END_TO_END };
    if opts.trace {
        outcome.metrics.fill_absent(PER_LAYER);
    }
    for p in &outcome.problems {
        eprintln!("rpt-perfbench: invalid run: {p}");
    }
    println!("{}", outcome.document(&opts, set));
    println!(
        "{}",
        outcome.metrics.result_line(
            set,
            outcome.problems.is_empty(),
            outcome.attempted(),
            outcome.failed()
        )
    );
    ExitCode::SUCCESS
}
