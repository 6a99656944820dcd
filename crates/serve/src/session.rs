//! [`ServeSession`] — the long-running placement service loop.
//!
//! A session wraps an [`OnlineEngine`] and drives it from a
//! newline-delimited JSON event stream ([`WireEvent`]), writing
//! placement decisions, periodic telemetry and snapshot notices
//! ([`WireRecord`]) to an output stream. The loop never panics on bad
//! input: malformed lines and engine-rejected events come back as
//! [`WireRecord::Rejected`] and processing continues.
//!
//! # Snapshot / restore
//!
//! [`ServeSession::snapshot`] captures a versioned [`ServeSnapshot`]:
//! the engine's bitwise-restorable state
//! ([`EngineSnapshot`](tdmd_online::EngineSnapshot)) plus the
//! session's tenant map and lifetime counters.
//! [`ServeSession::restore`] rebuilds a session that is bitwise
//! interchangeable with the one that took the snapshot: replaying the
//! same remaining events yields identical deployments and objectives
//! (`exact_objective` bit-for-bit — the engine-level property test
//! pins this; the serve-level test pins it through the full NDJSON
//! pipeline). Per-tenant latency histograms are deliberately *not*
//! carried across a restore — they are measurements of a process
//! lifetime, not replayable state.
//!
//! # Fairness accounting
//!
//! Each tenant's served and degraded bandwidth is an integer sum of
//! its flows' rates, kept up to date on every event, so a telemetry
//! tick costs O(tenants) however many flows are active or events were
//! served. An arrival adds its rate on the side of its status after
//! the engine call, a departure subtracts the rate and status it had
//! before, and every served↔degraded change the engine made in
//! between comes from its flip log ([`DeltaState::flips`]). Integer
//! sums do not depend on the order of these updates, so they equal a
//! from-scratch pass over the live flows at every step.
//!
//! Apply latencies go into log-linear [`Histogram`]s: one for every
//! event handed to the engine, and one per tenant. Arrivals and
//! departures count toward the flow's tenant, failure-class events
//! toward every tenant with active flows at that moment. Memory is a
//! few hundred buckets per tenant, however long the session runs.
//!
//! [`DeltaState::flips`]: tdmd_online::DeltaState::flips

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::io::{BufRead, Error, ErrorKind, Read, Write};
use std::path::PathBuf;

use serde::{Deserialize, Serialize};
use tdmd_core::CostModel;
use tdmd_graph::NodeId;
use tdmd_obs::{normalize_zero, round_metric, Histogram, Stopwatch};
use tdmd_online::{Event, FlowKey, OnlineEngine, RepairPolicy, SnapshotError};
use tdmd_traffic::TenantId;

use crate::wire::{Telemetry, TenantTelemetry, WireEvent, WireRecord};

/// Longest input line [`ServeSession::run`] reads, in bytes (without
/// its `\n`). A longer line is discarded as it streams past, in
/// bounded memory, and answered with one [`WireRecord::Rejected`].
/// The repository's generators write lines of well under 1 KiB.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// Schema version written by [`ServeSession::snapshot`];
/// [`ServeSession::restore`] rejects any other value.
pub const SERVE_SNAPSHOT_VERSION: u32 = 1;

/// Configuration of the serve loop's periodic work.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServeConfig {
    /// Emit a [`WireRecord::Telemetry`] every this many applied
    /// events (`0` = only at shutdown).
    pub telemetry_every: u64,
    /// Take a state snapshot every this many applied events
    /// (`0` = only on explicit [`WireEvent::Snapshot`] requests).
    pub snapshot_every: u64,
    /// Where to write snapshots (overwritten each time, latest wins).
    /// With `None` the latest snapshot is only retained in memory
    /// ([`ServeSession::last_snapshot`]).
    pub snapshot_path: Option<PathBuf>,
}

/// A versioned capture of a serve session: the engine's
/// bitwise-restorable state plus the session's tenant map and
/// lifetime counters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeSnapshot {
    /// Schema version ([`SERVE_SNAPSHOT_VERSION`]).
    pub version: u32,
    /// The wrapped engine state.
    pub engine: tdmd_online::EngineSnapshot,
    /// `(flow key, tenant)` of every active flow, ascending by key.
    pub tenants: Vec<(FlowKey, TenantId)>,
    /// Every tenant the session had ever seen, ascending — restored
    /// sessions keep reporting these in telemetry even when a tenant
    /// has no activity after the restore (their latency histograms
    /// are process-lifetime measurements and are not carried).
    pub known_tenants: Vec<TenantId>,
    /// Events the session had applied when the snapshot was taken.
    pub events: u64,
    /// Snapshots taken over the session line's history (this one
    /// included).
    pub snapshots_taken: u64,
    /// Times the session line had been restored.
    pub snapshots_restored: u64,
}

/// One tenant's running figures.
#[derive(Debug, Default)]
struct TenantSums {
    /// Attributed apply latencies in µs.
    latency: Histogram,
    /// Rate of the tenant's served flows. No sum of `u64` rates over
    /// fewer than 2^64 flows overflows a `u128`.
    served: u128,
    /// Rate of the tenant's degraded flows.
    degraded: u128,
}

impl TenantSums {
    fn side(&mut self, served: bool) -> &mut u128 {
        if served {
            &mut self.served
        } else {
            &mut self.degraded
        }
    }

    fn add(&mut self, rate: u64, served: bool) {
        *self.side(served) += u128::from(rate);
    }

    fn sub(&mut self, rate: u64, served: bool) {
        *self.side(served) -= u128::from(rate);
    }

    /// Whether the tenant has an active flow (every rate is positive).
    fn is_active(&self) -> bool {
        self.served != 0 || self.degraded != 0
    }
}

/// A sum as the wire reports it: saturated at `u64::MAX`.
fn saturate(sum: u128) -> u64 {
    u64::try_from(sum).unwrap_or(u64::MAX)
}

/// A latency percentile as the wire reports it: rounded to ns.
fn report_us(h: &Histogram, p: f64) -> Option<f64> {
    h.percentile(p).map(|us| round_metric(us, 3))
}

/// The long-running placement service: an [`OnlineEngine`] plus
/// tenant accounting, telemetry and snapshot scheduling.
pub struct ServeSession<M: CostModel> {
    engine: OnlineEngine<M>,
    config: ServeConfig,
    /// Tenant of every active flow (arrivals insert, departures
    /// remove). Ordered so that snapshots iterate it deterministically
    /// — see the `map-iter-order` lint.
    tenants: BTreeMap<FlowKey, TenantId>,
    /// Every tenant the session line has seen, with its latency
    /// histogram and rate sums.
    sums: BTreeMap<TenantId, TenantSums>,
    /// `engine.apply` latency in µs of every event handed to the
    /// engine, rejected ones included.
    event_latency: Histogram,
    events: u64,
    snapshots_taken: u64,
    snapshots_restored: u64,
    last_snapshot: Option<ServeSnapshot>,
}

impl<M: CostModel> ServeSession<M> {
    /// Wraps a fresh engine.
    pub fn new(engine: OnlineEngine<M>, config: ServeConfig) -> Self {
        Self {
            engine,
            config,
            tenants: BTreeMap::new(),
            sums: BTreeMap::new(),
            event_latency: Histogram::new(),
            events: 0,
            snapshots_taken: 0,
            snapshots_restored: 0,
            last_snapshot: None,
        }
    }

    /// Rebuilds a session from a snapshot. Topology, model and
    /// policy are supplied by the caller exactly as at construction,
    /// like [`OnlineEngine::restore`]. The tenant sums are derived once
    /// from the snapshot's tenant list; an active flow the list does
    /// not name counts as tenant 0, as an arrival without a tenant
    /// does.
    ///
    /// # Errors
    /// Rejects unknown versions and structurally invalid engine state
    /// ([`SnapshotError`]).
    pub fn restore(
        graph: tdmd_graph::DiGraph,
        model: M,
        policy: RepairPolicy,
        config: ServeConfig,
        snap: &ServeSnapshot,
    ) -> Result<Self, SnapshotError> {
        if snap.version != SERVE_SNAPSHOT_VERSION {
            return Err(SnapshotError::UnsupportedVersion {
                found: snap.version,
            });
        }
        let engine =
            OnlineEngine::restore(graph, model, policy, tdmd_obs::NoopRecorder, &snap.engine)?;
        let mut tenants: BTreeMap<FlowKey, TenantId> = snap.tenants.iter().copied().collect();
        let mut sums: BTreeMap<TenantId, TenantSums> = snap
            .known_tenants
            .iter()
            .map(|&t| (t, TenantSums::default()))
            .collect();
        let state = engine.state();
        let mut named = 0;
        for (&key, &t) in &tenants {
            if let Some(f) = state.flow(key) {
                sums.entry(t).or_default().add(f.rate, f.assigned.is_some());
                named += 1;
            }
        }
        if named < state.active_count() {
            for f in state.active_flows() {
                if let Entry::Vacant(slot) = tenants.entry(f.key) {
                    slot.insert(0);
                    sums.entry(0).or_default().add(f.rate, f.assigned.is_some());
                }
            }
        }
        Ok(Self {
            engine,
            config,
            tenants,
            sums,
            event_latency: Histogram::new(),
            events: snap.events,
            snapshots_taken: snap.snapshots_taken,
            snapshots_restored: snap.snapshots_restored + 1,
            last_snapshot: None,
        })
    }

    /// The wrapped engine.
    #[inline]
    pub fn engine(&self) -> &OnlineEngine<M> {
        &self.engine
    }

    /// Events applied by this session line (carried across restores).
    #[inline]
    pub fn events(&self) -> u64 {
        self.events
    }

    /// The most recent snapshot taken by this session, if any.
    #[inline]
    pub fn last_snapshot(&self) -> Option<&ServeSnapshot> {
        self.last_snapshot.as_ref()
    }

    /// Takes a state snapshot now (canonicalizing the engine in
    /// place — see [`tdmd_online::snapshot`]), retains it as
    /// [`ServeSession::last_snapshot`], and returns a copy. Writing
    /// it anywhere is the caller's concern; the run loop handles the
    /// configured [`ServeConfig::snapshot_path`].
    pub fn snapshot(&mut self) -> ServeSnapshot {
        self.snapshots_taken += 1;
        // BTreeMap iteration is already ascending by key — exactly
        // the snapshot's documented order.
        let tenants: Vec<(FlowKey, TenantId)> =
            self.tenants.iter().map(|(&k, &t)| (k, t)).collect();
        let snap = ServeSnapshot {
            version: SERVE_SNAPSHOT_VERSION,
            engine: self.engine.snapshot(),
            tenants,
            known_tenants: self.sums.keys().copied().collect(),
            events: self.events,
            snapshots_taken: self.snapshots_taken,
            snapshots_restored: self.snapshots_restored,
        };
        self.last_snapshot = Some(snap.clone());
        snap
    }

    /// Builds a telemetry record. Costs O(tenants): the bandwidth sums
    /// are kept up to date per event, and each percentile walks one
    /// bounded histogram. Every tenant the session line has seen is
    /// listed, even when its flows have all drained.
    pub fn telemetry(&self) -> Telemetry {
        let tenants = self
            .sums
            .iter()
            .map(|(&tenant, s)| TenantTelemetry {
                tenant,
                served_bw: saturate(s.served),
                degraded_bw: saturate(s.degraded),
                events: s.latency.count(),
                apply_p50_us: report_us(&s.latency, 50.0),
                apply_p99_us: report_us(&s.latency, 99.0),
            })
            .collect();
        Telemetry {
            events: self.events,
            active_flows: self.engine.active_count() as u64,
            deployment: self.engine.deployment().vertices().to_vec(),
            objective: normalize_zero(self.engine.exact_objective()),
            degraded_flows: self.engine.degraded_count() as u64,
            event_p50_us: report_us(&self.event_latency, 50.0),
            event_p99_us: report_us(&self.event_latency, 99.0),
            snapshots_taken: self.snapshots_taken,
            snapshots_restored: self.snapshots_restored,
            boxes_moved: self.engine.stats().boxes_moved,
            flows_reassigned: self.engine.stats().flows_reassigned,
            budget_deferrals: self.engine.stats().budget_deferrals,
            budget_spent: self.engine.stats().budget_spent,
            budget_tokens: self
                .engine
                .budget_tokens()
                .is_finite()
                .then(|| self.engine.budget_tokens()),
            tenants,
        }
    }

    /// Applies one wire event to the engine with latency accounting.
    /// Returns the engine's verdict; tenant bookkeeping only happens
    /// on success.
    pub fn apply(&mut self, ev: &WireEvent) -> Result<(), tdmd_online::OnlineError> {
        let event = match ev {
            WireEvent::Arrive {
                key, rate, path, ..
            } => Event::FlowArrived {
                key: *key,
                rate: *rate,
                path: path.clone(),
            },
            WireEvent::Depart { key } => Event::FlowDeparted { key: *key },
            WireEvent::Fail { vertex } => Event::MiddleboxFailed { vertex: *vertex },
            WireEvent::Down { vertex } => Event::VertexDown { vertex: *vertex },
            WireEvent::Recover { vertex } => Event::MiddleboxRecovered { vertex: *vertex },
            // Control lines carry no engine event.
            WireEvent::Snapshot | WireEvent::Telemetry | WireEvent::Shutdown => return Ok(()),
        };
        // A departing flow leaves with the rate and status it has now.
        let leaving = match ev {
            WireEvent::Depart { key } => self
                .engine
                .state()
                .flow(*key)
                .map(|f| (f.rate, f.assigned.is_some())),
            _ => None,
        };
        let sw = Stopwatch::start();
        let result = self.engine.apply(&event);
        let us = sw.elapsed_us();
        self.event_latency.record(us);
        let arriving = match ev {
            WireEvent::Arrive { key, .. } => Some(*key),
            _ => None,
        };
        self.account_flips(arriving);
        result?;
        self.events += 1;
        let owner = match ev {
            WireEvent::Arrive {
                key, rate, tenant, ..
            } => {
                self.tenants.insert(*key, *tenant);
                let served = self
                    .engine
                    .state()
                    .flow(*key)
                    .is_some_and(|f| f.assigned.is_some());
                self.sums.entry(*tenant).or_default().add(*rate, served);
                Some(*tenant)
            }
            WireEvent::Depart { key } => {
                let tenant = self.tenants.remove(key);
                if let (Some(t), Some((rate, served))) = (tenant, leaving) {
                    self.sums.entry(t).or_default().sub(rate, served);
                }
                tenant
            }
            _ => None,
        };
        match owner {
            Some(t) => self.sums.entry(t).or_default().latency.record(us),
            // Failure-class events repair every tenant's flows;
            // attribute the latency to each active tenant.
            None => self
                .sums
                .values_mut()
                .filter(|s| s.is_active())
                .for_each(|s| s.latency.record(us)),
        }
        Ok(())
    }

    /// Moves the rate of every flow the last engine call flipped
    /// between served and degraded to the other side of its tenant's
    /// sums. The arriving flow is skipped: it is added once, by its
    /// status after the call.
    fn account_flips(&mut self, arriving: Option<FlowKey>) {
        let state = self.engine.state();
        for &(key, now_served) in state.flips() {
            if Some(key) == arriving {
                continue;
            }
            let (Some(f), Some(t)) = (state.flow(key), self.tenants.get(&key)) else {
                continue;
            };
            if let Some(sums) = self.sums.get_mut(t) {
                sums.sub(f.rate, !now_served);
                sums.add(f.rate, now_served);
            }
        }
    }

    /// Serializes `record` as one NDJSON output line.
    fn emit(&self, writer: &mut impl Write, record: &WireRecord) -> std::io::Result<()> {
        let line = serde_json::to_string(record)
            .map_err(|e| Error::new(ErrorKind::InvalidData, e.to_string()))?;
        writeln!(writer, "{line}")
    }

    /// Takes a snapshot, writes it to the configured path (if any)
    /// and emits the [`WireRecord::Snapshot`] notice.
    fn snapshot_and_emit(&mut self, writer: &mut impl Write) -> std::io::Result<()> {
        let snap = self.snapshot();
        let path = if let Some(p) = &self.config.snapshot_path {
            let json = serde_json::to_string(&snap)
                .map_err(|e| Error::new(ErrorKind::InvalidData, e.to_string()))?;
            std::fs::write(p, json)?;
            Some(p.display().to_string())
        } else {
            None
        };
        self.emit(
            writer,
            &WireRecord::Snapshot {
                event: self.events,
                path,
            },
        )
    }

    /// Runs the service loop: reads NDJSON events from `reader` until
    /// end-of-stream or a [`WireEvent::Shutdown`] line, writing
    /// [`WireRecord`] lines to `writer`. Always ends with a
    /// [`WireRecord::Bye`] carrying the final telemetry, then
    /// flushes.
    ///
    /// # Errors
    /// Only I/O failures on `reader`/`writer` (or the snapshot path)
    /// abort the loop — bad *input lines* are reported as
    /// [`WireRecord::Rejected`] and skipped: malformed, too deeply
    /// nested or engine-rejected events, lines longer than
    /// [`MAX_LINE_BYTES`], and lines that are not UTF-8. Line numbers
    /// are 1-based and count every physical line, blank ones included.
    pub fn run(&mut self, mut reader: impl BufRead, mut writer: impl Write) -> std::io::Result<()> {
        let mut buf = Vec::new();
        // The deployment before each event, to tell whether it moved.
        let mut before: Vec<NodeId> = Vec::new();
        let mut line_no = 0u64;
        while let Some(line) = next_line(&mut reader, &mut buf)? {
            line_no += 1;
            let decoded = match line {
                Line::Text(text) => {
                    let trimmed = text.trim();
                    if trimmed.is_empty() {
                        continue;
                    }
                    serde_json::from_str::<WireEvent>(trimmed).map_err(|e| e.to_string())
                }
                Line::TooLong => Err(format!(
                    "line longer than {MAX_LINE_BYTES} bytes, skipped to its newline"
                )),
                Line::NotUtf8(e) => Err(format!("line is not valid UTF-8: {e}")),
            };
            let ev = match decoded {
                Ok(ev) => ev,
                Err(error) => {
                    self.emit(
                        &mut writer,
                        &WireRecord::Rejected {
                            line: line_no,
                            error,
                        },
                    )?;
                    continue;
                }
            };
            match ev {
                WireEvent::Shutdown => break,
                WireEvent::Snapshot => self.snapshot_and_emit(&mut writer)?,
                WireEvent::Telemetry => {
                    let telemetry = self.telemetry();
                    self.emit(&mut writer, &WireRecord::Telemetry { telemetry })?;
                }
                ref event => {
                    before.clear();
                    before.extend_from_slice(self.engine.deployment().vertices());
                    match self.apply(event) {
                        Ok(()) => {
                            if self.engine.deployment().vertices() != before.as_slice() {
                                self.emit(
                                    &mut writer,
                                    &WireRecord::Placement {
                                        event: self.events,
                                        deployment: self.engine.deployment().vertices().to_vec(),
                                        objective: normalize_zero(self.engine.exact_objective()),
                                    },
                                )?;
                            }
                            let snap_due = self.config.snapshot_every > 0
                                && self.events.is_multiple_of(self.config.snapshot_every);
                            if snap_due {
                                self.snapshot_and_emit(&mut writer)?;
                            }
                            let tele_due = self.config.telemetry_every > 0
                                && self.events.is_multiple_of(self.config.telemetry_every);
                            if tele_due {
                                let telemetry = self.telemetry();
                                self.emit(&mut writer, &WireRecord::Telemetry { telemetry })?;
                            }
                        }
                        Err(e) => self.emit(
                            &mut writer,
                            &WireRecord::Rejected {
                                line: line_no,
                                error: e.to_string(),
                            },
                        )?,
                    }
                }
            }
        }
        let telemetry = self.telemetry();
        self.emit(&mut writer, &WireRecord::Bye { telemetry })?;
        writer.flush()
    }
}

/// One physical input line, as [`next_line`] read it.
enum Line<'a> {
    /// The line's text, without its `\n`.
    Text(&'a str),
    /// The line held more than [`MAX_LINE_BYTES`] bytes; it was read
    /// through to its newline and discarded.
    TooLong,
    /// The line's bytes are not UTF-8.
    NotUtf8(std::str::Utf8Error),
}

/// Reads the next line into `buf` (reused across calls), holding at
/// most [`MAX_LINE_BYTES`] of it in memory. `None` at end of stream; a
/// last line without a `\n` still counts.
fn next_line<'a>(
    reader: &mut impl BufRead,
    buf: &'a mut Vec<u8>,
) -> std::io::Result<Option<Line<'a>>> {
    buf.clear();
    let cap = MAX_LINE_BYTES as u64 + 1;
    if reader.by_ref().take(cap).read_until(b'\n', buf)? == 0 {
        return Ok(None);
    }
    if buf.last() == Some(&b'\n') {
        buf.pop();
    } else if buf.len() > MAX_LINE_BYTES {
        reader.skip_until(b'\n')?;
        return Ok(Some(Line::TooLong));
    }
    Ok(Some(match std::str::from_utf8(buf) {
        Ok(text) => Line::Text(text),
        Err(e) => Line::NotUtf8(e),
    }))
}
