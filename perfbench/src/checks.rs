//! Output checks. Each takes the program's outputs and what the
//! generator knows, and says what is wrong, if anything; the
//! self-test feeds them corrupted outputs to show that they fail.

use tdmd_core::feasibility::is_feasible;
use tdmd_core::{Deployment, Instance};
use tdmd_graph::NodeId;
use tdmd_serve::{Telemetry, WireRecord};

/// cold-solve: every repeat returned the first deployment, which is
/// feasible with at most `k` boxes.
pub fn cold(instance: &Instance, k: usize, deployments: &[Deployment]) -> Result<(), String> {
    let first = deployments.first().ok_or("no solve completed")?;
    if let Some(i) = deployments.iter().position(|d| d != first) {
        return Err(format!(
            "solve {i} returned {:?}, solve 0 returned {:?}",
            deployments[i].vertices(),
            first.vertices()
        ));
    }
    if first.len() > k {
        return Err(format!("{} boxes exceed k = {k}", first.len()));
    }
    if !is_feasible(instance, first) {
        return Err(format!(
            "deployment {:?} leaves flows unserved",
            first.vertices()
        ));
    }
    Ok(())
}

/// churn-batched: the running objective equals the exact one (rates
/// are integral and λ = 0.5, so the sums are exact), and the engine
/// holds as many flows as the generator left active.
pub fn churn(objective: f64, exact: f64, active: usize, expected: usize) -> Result<(), String> {
    if objective.to_bits() != exact.to_bits() {
        return Err(format!("running objective {objective} != exact {exact}"));
    }
    if active != expected {
        return Err(format!("{active} active flows, generator has {expected}"));
    }
    Ok(())
}

/// The records of one serve session, parsed.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeOutput {
    /// `(event, deployment, objective bits)` of every Placement.
    pub placements: Vec<(u64, Vec<NodeId>, u64)>,
    /// Line numbers of every Rejected record.
    pub rejected: Vec<u64>,
    /// `(events, objective)` of every periodic Telemetry record.
    pub telemetry: Vec<(u64, f64)>,
    /// The final record, when it is a Bye.
    pub bye: Option<Telemetry>,
}

impl ServeOutput {
    /// Parses NDJSON output records.
    pub fn parse(out: &[u8]) -> Result<Self, String> {
        let text = std::str::from_utf8(out).map_err(|e| e.to_string())?;
        let mut parsed = Self {
            placements: Vec::new(),
            rejected: Vec::new(),
            telemetry: Vec::new(),
            bye: None,
        };
        for line in text.lines() {
            if parsed.bye.is_some() {
                return Err("records after Bye".to_string());
            }
            let record: WireRecord =
                serde_json::from_str(line).map_err(|e| format!("bad output record: {e}"))?;
            match record {
                WireRecord::Placement {
                    event,
                    deployment,
                    objective,
                } => parsed
                    .placements
                    .push((event, deployment, objective.to_bits())),
                WireRecord::Rejected { line, .. } => parsed.rejected.push(line),
                WireRecord::Telemetry { telemetry } => parsed
                    .telemetry
                    .push((telemetry.events, telemetry.objective)),
                WireRecord::Bye { telemetry } => parsed.bye = Some(telemetry),
                WireRecord::Snapshot { .. } => {}
            }
        }
        Ok(parsed)
    }

    /// Final `(deployment, objective bits)`.
    pub fn final_state(&self) -> Option<(&[NodeId], u64)> {
        self.bye
            .as_ref()
            .map(|t| (t.deployment.as_slice(), t.objective.to_bits()))
    }
}

/// What the generator knows about a serve session's outcome.
#[derive(Debug, Clone, Copy)]
pub struct ServeExpect<'a> {
    /// The planted bad lines, ascending.
    pub planted: &'a [u64],
    /// Session event count the Bye must report.
    pub events: u64,
    /// Active flows the Bye must report.
    pub active: u64,
}

/// serve-*: a final Bye reports every applied line and the generator's
/// active count, and exactly the planted lines were rejected.
pub fn serve(out: &ServeOutput, expect: ServeExpect<'_>) -> Result<(), String> {
    let bye = out.bye.as_ref().ok_or("no final Bye record")?;
    if bye.events != expect.events {
        return Err(format!(
            "Bye.events = {}, expected {}",
            bye.events, expect.events
        ));
    }
    if bye.active_flows != expect.active {
        return Err(format!(
            "Bye.active_flows = {}, generator has {}",
            bye.active_flows, expect.active
        ));
    }
    if out.rejected != expect.planted {
        return Err(format!(
            "rejected lines {:?} != planted {:?}",
            out.rejected, expect.planted
        ));
    }
    Ok(())
}

/// Two serve sessions over the same input agree on every Placement and
/// Rejected record and on the final deployment and objective.
pub fn same_decisions(a: &ServeOutput, b: &ServeOutput) -> Result<(), String> {
    if a.placements != b.placements {
        let i = a
            .placements
            .iter()
            .zip(&b.placements)
            .position(|(x, y)| x != y)
            .unwrap_or(a.placements.len().min(b.placements.len()));
        return Err(format!(
            "placement records differ at #{i} ({} vs {} records)",
            a.placements.len(),
            b.placements.len()
        ));
    }
    if a.rejected != b.rejected {
        return Err("rejected records differ".to_string());
    }
    if a.final_state() != b.final_state() {
        return Err(format!(
            "final state differs: {:?} vs {:?}",
            a.final_state(),
            b.final_state()
        ));
    }
    Ok(())
}

/// serve-oracle: the drift oracle never failed, so the workload has
/// not slid into a shape the budget cannot cover.
pub fn oracle(failures: u64) -> Result<(), String> {
    match failures {
        0 => Ok(()),
        n => Err(format!("{n} oracle solves failed as infeasible")),
    }
}

/// The traced loop is at least `min` covered by layer spans.
pub fn coverage(coverage: f64, min: f64) -> Result<(), String> {
    if coverage >= min {
        Ok(())
    } else {
        Err(format!(
            "layer spans cover {coverage:.4} of the loop, below {min}"
        ))
    }
}
