//! # tdmd-cli — library half of the `tdmd` command-line front end
//!
//! Flag parsing and command implementations, kept out of `main.rs` so
//! they are unit-testable (every command is a `fn(&Args) -> Result<
//! String, String>` returning its stdout payload).
//!
//! * [`args`] — the zero-dependency `--flag value` parser.
//! * [`commands::topo`] — `tdmd topo gen|stats|dot`: topology
//!   generation (tree / Ark-like / ER), stats, Graphviz export.
//! * [`commands::workload`] — `tdmd workload gen`: seeded flow sets.
//! * [`commands::place`] / [`commands::evaluate`] — `tdmd place` /
//!   `tdmd evaluate`: run a placement algorithm, score a saved plan.
//! * [`commands::chain`] — `tdmd chain place`: the service-chain
//!   extension.
//! * [`commands::stream`] — `tdmd stream gen|run|inject`: span-file
//!   generation, churn replay through the online engine, and seeded
//!   fault injection with degradation/repair reporting.
//! * [`commands::serve`] — `tdmd serve gen|run`: multi-tenant NDJSON
//!   event-stream generation and the long-running placement service
//!   (`tdmd-serve`), with snapshot/restore across runs.
//! * [`commands::bench`] — `tdmd bench`: the machine-readable solver
//!   and stream benchmark JSON (`tdmd-bench-solve/v3`,
//!   `tdmd-bench-stream/v1`, `tdmd-bench-joint/v1`,
//!   `tdmd-bench-serve/v1`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod args;
pub mod commands;
