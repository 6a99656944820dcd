//! CLI that regenerates the paper's figures.
//!
//! ```text
//! tdmd-experiments [--quick] [--out DIR] <fig9|fig10|...|fig17|all>...
//! ```
//!
//! Prints each figure's two panels as text tables and writes
//! `<name>.csv` / `<name>.json` under the output directory.

#![forbid(unsafe_code)]

use std::fs;
use std::path::PathBuf;
use tdmd_experiments::figure::FigureResult;
use tdmd_experiments::figures;

fn main() {
    if let Err(e) = run() {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut quick = false;
    let mut out_dir = PathBuf::from("results");
    let mut wanted: Vec<String> = Vec::new();
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--out" => {
                out_dir = PathBuf::from(it.next().unwrap_or_else(|| {
                    eprintln!("--out needs a directory");
                    std::process::exit(2);
                }))
            }
            "--help" | "-h" => {
                println!("usage: tdmd-experiments [--quick] [--out DIR] <fig9..fig17|all>...");
                return Ok(());
            }
            other => wanted.push(other.to_string()),
        }
    }
    if wanted.is_empty() {
        wanted.push("all".to_string());
    }
    let cfg = if quick {
        figures::quick_protocol()
    } else {
        figures::default_protocol()
    };

    let all = wanted.iter().any(|w| w == "all");
    let want = |name: &str| all || wanted.iter().any(|w| w == name);
    let mut results: Vec<FigureResult> = Vec::new();

    macro_rules! figure {
        ($flag:expr, $runner:expr) => {
            if want($flag) {
                eprintln!("running {} ...", $flag);
                results.push($runner);
            }
        };
    }
    figure!("fig9", figures::fig09::run(&cfg));
    figure!("fig10", figures::fig10::run(&cfg));
    figure!("fig11", figures::fig11::run(&cfg));
    figure!("fig12", figures::fig12::run(&cfg));
    figure!("fig13", figures::fig13::run(&cfg));
    figure!("fig14", figures::fig14::run(&cfg));
    figure!("fig15", figures::fig15::run(&cfg));
    figure!("fig16", figures::fig16::run(&cfg));
    if want("fig17") {
        eprintln!("running fig17 ...");
        results.push(figures::fig17::run_tree(&cfg));
        results.push(figures::fig17::run_general(&cfg));
    }
    let mut extra_results = Vec::new();
    if want("extras") {
        eprintln!("running extension experiments ...");
        let trials = if quick { 3 } else { 10 };
        extra_results.push(tdmd_experiments::extras::optimality_gap(trials, cfg.seed));
        extra_results.push(tdmd_experiments::extras::feasibility_rate(trials, cfg.seed));
        extra_results.push(tdmd_experiments::extras::dynamic_replanning(cfg.seed));
        extra_results.push(tdmd_experiments::extras::chain_budget_sweep(cfg.seed));
        extra_results.push(tdmd_experiments::extras::capacity_sweep(cfg.seed));
    }

    if results.is_empty() && extra_results.is_empty() {
        eprintln!("nothing matched; valid names: fig9..fig17, extras, all");
        std::process::exit(2);
    }
    let io = |e: std::io::Error| format!("{}: {e}", out_dir.display());
    fs::create_dir_all(&out_dir).map_err(io)?;
    for fig in &results {
        println!("{}", fig.render());
        fs::write(out_dir.join(format!("{}.csv", fig.name)), fig.to_csv()).map_err(io)?;
        let json = serde_json::to_string_pretty(fig)
            .map_err(|e| format!("serializing {}: {e}", fig.name))?;
        fs::write(out_dir.join(format!("{}.json", fig.name)), json).map_err(io)?;
        for (panel, suffix) in [
            (tdmd_experiments::svg::Panel::Bandwidth, "bandwidth"),
            (tdmd_experiments::svg::Panel::TimeMs, "time"),
        ] {
            fs::write(
                out_dir.join(format!("{}_{suffix}.svg", fig.name)),
                tdmd_experiments::svg::render_svg(fig, panel),
            )
            .map_err(io)?;
        }
    }
    for ex in &extra_results {
        println!("{}", ex.text);
        fs::write(out_dir.join(format!("{}.csv", ex.name)), &ex.csv).map_err(io)?;
    }
    eprintln!(
        "wrote {} figure file pairs and {} extra reports to {}",
        results.len(),
        extra_results.len(),
        out_dir.display()
    );
    Ok(())
}
