//! `tdmd-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints one line per metric (name, value, unit, direction), any
//! notes and failed checks, and as its last line one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`; a failed output
//! check shows as `"correct": false`. Exits 2, printing no result, on
//! bad arguments or a run that could not measure anything.

use std::process::ExitCode;

use tdmd_perfbench::{run, Opts};

fn parse(args: &[String]) -> Result<(String, Opts), String> {
    let mut workload = None;
    let mut opts = Opts {
        seed: 42,
        seconds: 10.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => opts.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => opts.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(opts.seconds.is_finite() && opts.seconds > 0.0) {
        return Err("--seconds must be positive".to_string());
    }
    Ok((workload.ok_or("--workload is required")?, opts))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, opts) = match parse(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let report = match run(&workload, &opts) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("error: {workload}: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "# {workload} seed {} {}",
        opts.seed,
        if opts.trace { "traced" } else { "untraced" }
    );
    for (m, value) in report.metrics() {
        println!(
            "{:<30} {value:>16.6} {:<6} ({} is better)",
            m.name, m.unit, m.better
        );
    }
    for note in &report.notes {
        println!("# {note}");
    }
    for problem in &report.problems {
        println!("# CHECK FAILED {problem}");
    }
    println!("{}", report.json_line());
    ExitCode::SUCCESS
}
