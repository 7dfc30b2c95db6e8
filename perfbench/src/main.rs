//! `dhf_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a summary, then as its last line one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. Exits 1 when an output
//! check failed, 2 on a bad command line and 3 when the run is invalid
//! (generator late, growing backlog, dropped trace events) — an invalid
//! run prints its reasons and no result.

use dhf_perfbench::{end_to_end, parse_args, per_layer, write_spans, USAGE};
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let plan = args.workload.plan();
    println!(
        "perfbench {} seed {} window {} s trace {}: {} sessions at {}x real time, {} workers \
         (nproc {}, simd {})",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        plan.sessions,
        plan.speedup,
        dhf_perfbench::workers(&plan),
        std::thread::available_parallelism().map_or(1, |p| p.get()),
        dhf_dsp::simd::active_level(),
    );
    let outcome = if args.trace {
        let (outcome, traced) = per_layer(&args, &plan);
        let dir = std::env::var_os("CARGO_TARGET_DIR")
            .map_or_else(|| PathBuf::from("perfbench/target"), PathBuf::from);
        let path = dir.join("perfbench").join(format!(
            "spans_{}_{}.jsonl",
            args.workload.name(),
            args.seed
        ));
        match write_spans(&path, &traced) {
            Ok(()) => println!("wrote {} spans to {}", traced.spans.len(), path.display()),
            Err(e) => eprintln!("could not write spans to {}: {e}", path.display()),
        }
        outcome
    } else {
        end_to_end(&args, &plan)
    };
    for line in &outcome.summary {
        println!("{line}");
    }
    for (name, value, unit) in &outcome.metrics {
        println!("{name} = {value} {unit}");
    }
    if !outcome.invalid.is_empty() {
        for why in &outcome.invalid {
            eprintln!("invalid run: {why}");
        }
        return ExitCode::from(3);
    }
    println!("{}", outcome.json());
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
