//! CLI command implementations. Each returns the text to print so the
//! commands are unit-testable without process spawning.

pub mod bench;
pub mod chain;
pub mod evaluate;
pub mod place;
pub mod race;
pub mod serve;
pub mod stream;
pub mod topo;
pub mod workload;

use crate::args::Args;
use tdmd_graph::io::TopologyDoc;
use tdmd_graph::DiGraph;
use tdmd_online::ReconfigBudget;
use tdmd_traffic::Flow;

/// Parses the migration-budget flags shared by `stream run`,
/// `stream inject` and `serve run` into a [`ReconfigBudget`]:
///
/// * `--budget R` — migration tokens refilled per applied event;
///   absent means an unlimited budget (the pre-budget behaviour).
/// * `--burst B` — token-bucket capacity; defaults to
///   `R × max(sample_every, 1)`, i.e. the bucket can bank up to one
///   drift-sampling window of refill so a periodic replan stays
///   affordable.
/// * `--box-cost C` — tokens per middlebox moved (default 1).
/// * `--flow-cost C` — tokens per flow reassigned (default 0).
/// * `--hysteresis M` — swap hysteresis margin (default 0; applies
///   even without `--budget`).
pub fn budget_from(args: &Args) -> Result<ReconfigBudget, String> {
    let hysteresis: f64 = args.num("hysteresis", 0.0)?;
    let budget = match args.optional("budget") {
        None => ReconfigBudget::unlimited().with_hysteresis(hysteresis),
        Some(_) => {
            let refill: f64 = args.num_required("budget")?;
            let sample_every: u64 = args.num("sample-every", 256)?;
            let burst: f64 = args.num("burst", refill * sample_every.max(1) as f64)?;
            ReconfigBudget {
                box_move_cost: args.num("box-cost", 1.0)?,
                flow_reassign_cost: args.num("flow-cost", 0.0)?,
                refill_per_event: refill,
                burst,
                hysteresis,
            }
        }
    };
    budget.validate().map_err(|e| format!("--budget: {e}"))?;
    Ok(budget)
}

/// Loads a topology JSON file.
pub fn load_topology(path: &str) -> Result<DiGraph, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    Ok(TopologyDoc::from_json(&text)
        .map_err(|e| format!("parse {path}: {e}"))?
        .to_graph())
}

/// Loads a workload JSON file (a `Vec<Flow>`).
pub fn load_workload(path: &str) -> Result<Vec<Flow>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("parse {path}: {e}"))
}

/// Creates the parent directories of `path`, if it names any.
fn create_parent(path: &str) -> Result<(), String> {
    if let Some(parent) = std::path::Path::new(path).parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent).map_err(|e| format!("mkdir {parent:?}: {e}"))?;
        }
    }
    Ok(())
}

/// Writes a string to a file, creating parent directories.
pub fn write_out(path: &str, contents: &str) -> Result<(), String> {
    create_parent(path)?;
    std::fs::write(path, contents).map_err(|e| format!("write {path}: {e}"))
}

/// Opens a file for streamed, buffered writing, creating parent
/// directories like [`write_out`].
pub fn create_out(path: &str) -> Result<std::io::BufWriter<std::fs::File>, String> {
    create_parent(path)?;
    let file = std::fs::File::create(path).map_err(|e| format!("create {path}: {e}"))?;
    Ok(std::io::BufWriter::new(file))
}
