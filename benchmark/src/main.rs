//! Sweep-and-serve benchmark for the power-bound stack.
//!
//! `pcap-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! runs one workload for about `s` seconds on inputs generated from `n`,
//! checks every output against an independent reference, and prints a
//! table, a one-line JSON record of the run, and last a JSON result line.
//! `--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer
//! ones from spans around calls into each module. The exit code is nonzero
//! when any output is wrong. See README.md for the workloads and metrics.

mod report;
mod serve;
mod stats;
mod sweep;
mod trace;

use std::process::ExitCode;

use report::{select, Report, END_TO_END, PER_LAYER};
use stats::Host;
use trace::Tracer;

/// The workloads `BENCHMARK.json` lists, then `bt-fig09`, which reproduces
/// a known solver defect and is not listed (see README.md).
const WORKLOADS: [&str; 4] = ["comd-dense16", "comd-fig09", "serve-mixed", "bt-fig09"];

const USAGE: &str = "usage: pcap-benchmark \\
     --workload <comd-dense16|comd-fig09|serve-mixed|bt-fig09> --seed <n> \\
     --seconds <s> --trace <0|1>";

/// Where traced runs write their spans, relative to the working directory.
const TRACE_DIR: &str = ".bench_traces";

#[derive(Debug, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut args = args.into_iter();
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got '{value}'");
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--workload" => return Err(bad(&format!("one of {}", WORKLOADS.join(", ")))),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("an unsigned integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("a number of seconds"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(bad("a non-negative number of seconds"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown argument '{flag}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Writes the spans to the trace directory; the path on success.
fn write_trace(tracer: &Tracer, workload: &str, seed: u64) -> Option<String> {
    let path = format!("{TRACE_DIR}/{workload}-seed{seed}.json");
    let written =
        std::fs::create_dir_all(TRACE_DIR).and_then(|()| std::fs::write(&path, tracer.to_json()));
    match written {
        Ok(()) => Some(path),
        Err(e) => {
            eprintln!("could not write {path}: {e}");
            None
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // An armed fault plan would make the server fail on purpose.
    if std::env::var_os("PCAP_FAULT_PLAN").is_some() {
        eprintln!("PCAP_FAULT_PLAN is set; unset it to benchmark the server");
        return ExitCode::from(2);
    }
    let host = Host::probe();
    let run = match args.workload.as_str() {
        "serve-mixed" => {
            serve::run(&serve::ServeSpec::mixed(), args.seed, args.seconds, args.trace)
        }
        "comd-dense16" => {
            sweep::run(&sweep::SweepSpec::comd_dense16(), args.seed, args.seconds, args.trace)
        }
        "comd-fig09" => {
            sweep::run(&sweep::SweepSpec::comd_fig09(), args.seed, args.seconds, args.trace)
        }
        _ => sweep::run(&sweep::SweepSpec::bt_fig09(), args.seed, args.seconds, args.trace),
    };
    let table = if args.trace { &PER_LAYER[..] } else { &END_TO_END[..] };
    let metrics = select(table, &run.metrics);
    let trace_file =
        if args.trace { write_trace(&run.tracer, &args.workload, args.seed) } else { None };
    let self_times = run.tracer.self_times_s();
    let report = Report {
        workload: &args.workload,
        seed: args.seed,
        traced: args.trace,
        host: &host,
        outcome: &run.outcome,
        passes: &run.passes,
        latency_ms: &run.latency_ms,
        metrics: &metrics,
        self_times: &self_times,
        trace_file,
    };
    print!("{}", report.table());
    println!("{}", report.record_line());
    println!("{}", report.result_line());
    if run.outcome.failed == 0 && run.outcome.attempted > 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        assert_eq!(
            args("--workload comd-fig09 --seed 42 --seconds 10 --trace 1"),
            Ok(Args { workload: "comd-fig09".into(), seed: 42, seconds: 10.0, trace: true })
        );
        assert!(args("--workload nope --seed 1 --seconds 1 --trace 0").is_err());
        assert!(args("--workload bt-fig09 --seed 1 --seconds 1").is_err());
        assert!(args("--workload bt-fig09 --seed -1 --seconds 1 --trace 0").is_err());
        assert!(args("--workload bt-fig09 --seed 1 --seconds 1 --trace 2").is_err());
        assert!(args("--workload bt-fig09 --seed 1 --seconds nan --trace 0").is_err());
    }
}
