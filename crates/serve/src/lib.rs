//! # tdmd-serve — the long-running placement service
//!
//! Wraps the online engine ([`tdmd_online::OnlineEngine`]) as a
//! daemon: newline-delimited JSON events in, placement decisions and
//! periodic telemetry out, with graceful shutdown and versioned
//! snapshot/restore of the live state.
//!
//! * [`wire`] — the NDJSON protocol: [`WireEvent`] input lines,
//!   [`WireRecord`] output lines, and the [`Telemetry`] payload with
//!   per-tenant fairness figures.
//! * [`session`] — [`ServeSession`], the service loop over any
//!   `BufRead`/`Write` pair (stdin/stdout in the CLI), plus
//!   [`ServeSnapshot`] with the same bitwise-restore contract the
//!   engine gives: restore + replay ≡ never stopping.
//!
//! # Example
//!
//! Drive a session from an in-memory NDJSON transcript:
//!
//! ```
//! use tdmd_graph::DiGraph;
//! use tdmd_core::HopCount;
//! use tdmd_online::{OnlineEngine, RepairPolicy};
//! use tdmd_serve::{ServeConfig, ServeSession};
//!
//! let graph = DiGraph::from_edges(3, &[(0, 1, 1), (1, 2, 1)]);
//! let engine = OnlineEngine::new(graph, 0.5, 1, HopCount, RepairPolicy::default())
//!     .expect("valid parameters");
//! let mut session = ServeSession::new(engine, ServeConfig::default());
//!
//! let input = concat!(
//!     r#"{"Arrive":{"key":1,"rate":4,"path":[0,1,2],"tenant":1}}"#, "\n",
//!     r#""Telemetry""#, "\n",
//!     r#""Shutdown""#, "\n",
//! );
//! let mut output = Vec::new();
//! session.run(input.as_bytes(), &mut output)?;
//! let text = String::from_utf8(output).expect("NDJSON output is UTF-8");
//! assert!(text.contains("\"Placement\""));
//! assert!(text.contains("\"Bye\""));
//! # Ok::<(), std::io::Error>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod session;
pub mod wire;

pub use session::{
    ServeConfig, ServeSession, ServeSnapshot, MAX_LINE_BYTES, SERVE_SNAPSHOT_VERSION,
};
pub use wire::{Telemetry, TenantTelemetry, WireEvent, WireRecord};
