//! `tdmd` — command-line front end for the TDMD library.
//!
//! ```text
//! tdmd topo gen --kind ark --size 30 --seed 1 --out topo.json
//! tdmd topo stats --in topo.json
//! tdmd topo dot --in topo.json --highlight 0,4 --out topo.dot
//! tdmd workload gen --topo topo.json --dests 0,1 --density 0.5 --seed 2 --out wl.json
//! tdmd place --topo topo.json --workload wl.json --lambda 0.5 --k 8 \
//!            --algorithm gtp --out plan.json
//! tdmd solve --topo topo.json --workload wl.json --lambda 0.5 --k 8 \
//!            --algorithm gtp --routing joint --k-paths 3 --audit true
//! tdmd evaluate --topo topo.json --workload wl.json --lambda 0.5 --k 8 --plan plan.json
//! tdmd stream gen --workload wl.json --duration 100000 --seed 3 --out spans.json
//! tdmd stream run --topo topo.json --spans spans.json --lambda 0.5 --k 8 \
//!                 --policy incremental --oracle-every 64
//! tdmd stream inject --topo topo.json --spans spans.json --lambda 0.5 --k 8 \
//!                    --mode targeted --period-us 5000 --mttr-us 2000 --seed 4
//! tdmd serve gen --topo topo.json --tenants 3 --duration 100000 --seed 5 \
//!                --out events.ndjson
//! tdmd serve run --topo topo.json --lambda 0.5 --k 8 --in events.ndjson \
//!                --snapshot-every 1000 --snapshot-path state.json
//! tdmd bench --seed 42 --out-dir bench-out
//! tdmd race --seeds 1,2,3,4 --partitions 6
//! ```

#![forbid(unsafe_code)]

use tdmd_cli::args::Args;
use tdmd_cli::commands;

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match run(&argv) {
        Ok(output) => print!("{output}"),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}

fn run(argv: &[String]) -> Result<String, String> {
    let (command, rest) = argv.split_first().ok_or_else(usage)?;
    match command.as_str() {
        "topo" => {
            let (sub, rest) = rest.split_first().ok_or_else(usage)?;
            let args = Args::parse(rest)?;
            match sub.as_str() {
                "gen" => commands::topo::generate(&args),
                "stats" => commands::topo::stats(&args),
                "dot" => commands::topo::dot(&args),
                other => Err(format!("unknown topo subcommand '{other}'")),
            }
        }
        "workload" => {
            let (sub, rest) = rest.split_first().ok_or_else(usage)?;
            let args = Args::parse(rest)?;
            match sub.as_str() {
                "gen" => commands::workload::generate(&args),
                other => Err(format!("unknown workload subcommand '{other}'")),
            }
        }
        "chain" => {
            let (sub, rest) = rest.split_first().ok_or_else(usage)?;
            let args = Args::parse(rest)?;
            match sub.as_str() {
                "place" => commands::chain::place(&args),
                other => Err(format!("unknown chain subcommand '{other}'")),
            }
        }
        "stream" => {
            let (sub, rest) = rest.split_first().ok_or_else(usage)?;
            let args = Args::parse(rest)?;
            match sub.as_str() {
                "gen" => commands::stream::generate(&args),
                "run" => commands::stream::run(&args),
                "inject" => commands::stream::inject(&args),
                other => Err(format!("unknown stream subcommand '{other}'")),
            }
        }
        "serve" => {
            let (sub, rest) = rest.split_first().ok_or_else(usage)?;
            let args = Args::parse(rest)?;
            match sub.as_str() {
                "gen" => commands::serve::generate(&args),
                "run" => commands::serve::run(&args),
                other => Err(format!("unknown serve subcommand '{other}'")),
            }
        }
        "place" | "solve" => commands::place::place(&Args::parse(rest)?),
        "evaluate" => commands::evaluate::evaluate(&Args::parse(rest)?),
        "bench" => commands::bench::bench(&Args::parse(rest)?),
        "race" => commands::race::run(&Args::parse(rest)?),
        "--help" | "-h" | "help" => Ok(usage()),
        other => Err(format!("unknown command '{other}'\n{}", usage())),
    }
}

fn usage() -> String {
    "usage: tdmd <topo gen|topo stats|topo dot|workload gen|place (alias: solve)|\
     evaluate|chain place|stream gen|stream run|stream inject|serve gen|serve run|\
     bench|race> [--flag value ...]\n\
     pass --audit true to place/solve and stream run to re-validate the structural\n\
     invariants in every solve and event (release builds skip them otherwise; see\n\
     tdmd-core::audit); see the crate docs for the full flag list"
        .to_string()
}
