//! The serve wire format: newline-delimited JSON, one record per
//! line, in both directions.
//!
//! Input lines deserialize to [`WireEvent`]; output lines serialize
//! from [`WireRecord`]. Both are externally tagged
//! (`{"Arrive":{...}}`; payload-free control events are bare strings:
//! `"Snapshot"`, `"Telemetry"`, `"Shutdown"`), so the stream is
//! self-describing and new variants are additive schema changes.
//! Unknown or malformed input lines never kill the daemon — they come
//! back as [`WireRecord::Rejected`] and the loop continues.

use serde::{Deserialize, Serialize};
use tdmd_graph::NodeId;
use tdmd_online::FlowKey;
use tdmd_traffic::TenantId;

/// One input line of the event stream.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum WireEvent {
    /// A flow arrival. `tenant` defaults to `0`, so pre-tenant event
    /// streams keep replaying unchanged.
    Arrive {
        /// Stream-stable flow key.
        key: FlowKey,
        /// Rate in integral rate units.
        rate: u64,
        /// Path as a vertex sequence `src .. dst`.
        path: Vec<NodeId>,
        /// Tenant / traffic class of the flow.
        #[serde(default)]
        tenant: TenantId,
    },
    /// A flow departure.
    Depart {
        /// Key of the departing flow.
        key: FlowKey,
    },
    /// A middlebox failure at a vertex currently hosting one.
    Fail {
        /// Failing vertex.
        vertex: NodeId,
    },
    /// A whole vertex going down (middlebox or not).
    Down {
        /// Failing vertex.
        vertex: NodeId,
    },
    /// Recovery of a failed vertex.
    Recover {
        /// Recovering vertex.
        vertex: NodeId,
    },
    /// Take a state snapshot right now (in addition to any
    /// `--snapshot-every` schedule).
    Snapshot,
    /// Emit a telemetry record right now.
    Telemetry,
    /// Graceful shutdown — same effect as end-of-stream.
    Shutdown,
}

/// Per-tenant fairness figures inside a [`Telemetry`] record.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TenantTelemetry {
    /// Tenant / traffic class id.
    pub tenant: TenantId,
    /// Total rate units of the tenant's flows currently served by a
    /// live middlebox; saturates at `u64::MAX`.
    pub served_bw: u64,
    /// Total rate units of the tenant's flows riding degraded (no
    /// serving middlebox); saturates at `u64::MAX`.
    pub degraded_bw: u64,
    /// Events attributed to this tenant since the session started
    /// (arrivals/departures of its flows, plus every failure-class
    /// event while the tenant had active flows).
    pub events: u64,
    /// p50 of the attributed per-event apply latency in µs; `None`
    /// until the first attributed event (absent data never reads as a
    /// measured 0). Read off a log-linear histogram: at most 1/16
    /// above the exact nearest-rank sample, never above the largest,
    /// rounded to 3 decimals.
    pub apply_p50_us: Option<f64>,
    /// p99 of the attributed per-event apply latency in µs, read like
    /// `apply_p50_us`.
    pub apply_p99_us: Option<f64>,
}

/// A periodic (or requested) telemetry snapshot of the session.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Telemetry {
    /// Events applied by the engine since the session started (or was
    /// restored — the engine's own lifetime counter continues across
    /// restores; this one counts the session's).
    pub events: u64,
    /// Currently active flows.
    pub active_flows: u64,
    /// Current deployment, ascending.
    pub deployment: Vec<NodeId>,
    /// Exact objective of the current state (drift-free sum — equal
    /// bitwise between a restored session and the one that snapshot
    /// it).
    pub objective: f64,
    /// Active flows with no serving middlebox.
    pub degraded_flows: u64,
    /// p50 in µs of the time `engine.apply` takes per event, over
    /// every event handed to the engine (rejected ones included); not
    /// line decode or the session's accounting. Read off a log-linear
    /// histogram: at most 1/16 above the exact nearest-rank sample,
    /// never above the largest, rounded to 3 decimals. `None` before
    /// the first event.
    pub event_p50_us: Option<f64>,
    /// p99 of the same `engine.apply` latency, read like
    /// `event_p50_us`.
    pub event_p99_us: Option<f64>,
    /// State snapshots taken over the session's history (carried
    /// through snapshot/restore).
    pub snapshots_taken: u64,
    /// Times this session line was restored from a snapshot.
    pub snapshots_restored: u64,
    /// Middleboxes moved (deployed or dropped) by repair and replans
    /// over the engine's lifetime. Defaults keep pre-budget telemetry
    /// consumers replaying unchanged.
    #[serde(default)]
    pub boxes_moved: u64,
    /// Flow→middlebox reassignments caused by those moves.
    #[serde(default)]
    pub flows_reassigned: u64,
    /// Reconfigurations skipped because the migration budget could not
    /// cover them (deferred to later events).
    #[serde(default)]
    pub budget_deferrals: u64,
    /// Migration cost charged against the budget over the engine's
    /// lifetime (token units).
    #[serde(default)]
    pub budget_spent: f64,
    /// Migration tokens currently available. `None` when the engine
    /// runs an unlimited budget (no bucket to report).
    #[serde(default)]
    pub budget_tokens: Option<f64>,
    /// Per-tenant fairness figures, ascending by tenant id.
    pub tenants: Vec<TenantTelemetry>,
}

/// One output line of the serve loop.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum WireRecord {
    /// The deployment changed while applying an event.
    Placement {
        /// Session event count at the change.
        event: u64,
        /// New deployment, ascending.
        deployment: Vec<NodeId>,
        /// Exact objective under the new deployment.
        objective: f64,
    },
    /// A periodic or requested telemetry snapshot.
    Telemetry {
        /// The telemetry payload.
        telemetry: Telemetry,
    },
    /// A state snapshot was taken.
    Snapshot {
        /// Session event count at the snapshot.
        event: u64,
        /// File the snapshot was written to, if a path is configured
        /// (it is also retained in memory either way).
        path: Option<String>,
    },
    /// An input line was rejected; the loop continues.
    Rejected {
        /// 1-based input line number.
        line: u64,
        /// Human-readable reason.
        error: String,
    },
    /// Graceful shutdown: the final telemetry.
    Bye {
        /// Final telemetry at shutdown.
        telemetry: Telemetry,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_round_trip_through_json() {
        let events = vec![
            WireEvent::Arrive {
                key: 7,
                rate: 3,
                path: vec![0, 1, 2],
                tenant: 2,
            },
            WireEvent::Depart { key: 7 },
            WireEvent::Fail { vertex: 1 },
            WireEvent::Down { vertex: 2 },
            WireEvent::Recover { vertex: 1 },
            WireEvent::Snapshot,
            WireEvent::Telemetry,
            WireEvent::Shutdown,
        ];
        for ev in events {
            let line = serde_json::to_string(&ev).unwrap();
            let back: WireEvent = serde_json::from_str(&line).unwrap();
            assert_eq!(back, ev);
        }
    }

    #[test]
    fn arrivals_without_tenant_default_to_zero() {
        let line = r#"{"Arrive":{"key":1,"rate":2,"path":[0,1]}}"#;
        let ev: WireEvent = serde_json::from_str(line).unwrap();
        assert_eq!(
            ev,
            WireEvent::Arrive {
                key: 1,
                rate: 2,
                path: vec![0, 1],
                tenant: 0
            }
        );
    }

    #[test]
    fn malformed_lines_fail_to_parse() {
        assert!(serde_json::from_str::<WireEvent>("not json").is_err());
        assert!(serde_json::from_str::<WireEvent>(r#"{"Unknown":{}}"#).is_err());
    }

    #[test]
    fn records_round_trip_through_json() {
        let rec = WireRecord::Placement {
            event: 42,
            deployment: vec![1, 3],
            objective: 8.5,
        };
        let line = serde_json::to_string(&rec).unwrap();
        let back: WireRecord = serde_json::from_str(&line).unwrap();
        assert_eq!(back, rec);
    }
}
