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
//! pipeline). Per-tenant latency samples are deliberately *not*
//! carried across a restore — they are measurements of a process
//! lifetime, not replayable state.
//!
//! # Fairness accounting
//!
//! Per-tenant served/degraded bandwidth is recomputed from the engine
//! state on every telemetry tick by summing integer rates — an
//! order-independent sum, so it never depends on event history.
//! Per-tenant apply latency attributes arrivals/departures to the
//! flow's tenant and failure-class events to every tenant with active
//! flows at that moment.

use std::collections::{BTreeMap, BTreeSet};
use std::io::{BufRead, Error, ErrorKind, Read, Write};
use std::path::PathBuf;

use serde::{Deserialize, Serialize};
use tdmd_obs::{keys, normalize_zero, percentile_opt, Recorder, StatsRecorder, Stopwatch};
use tdmd_online::{Event, FlowKey, OnlineEngine, PathPricer, RepairPolicy, SnapshotError};
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
    /// has no activity after the restore (their latency *samples* are
    /// process-lifetime measurements and are not carried).
    pub known_tenants: Vec<TenantId>,
    /// Events the session had applied when the snapshot was taken.
    pub events: u64,
    /// Snapshots taken over the session line's history (this one
    /// included).
    pub snapshots_taken: u64,
    /// Times the session line had been restored.
    pub snapshots_restored: u64,
}

/// The long-running placement service: an [`OnlineEngine`] plus
/// tenant accounting, telemetry and snapshot scheduling.
pub struct ServeSession<P: PathPricer> {
    engine: OnlineEngine<P>,
    config: ServeConfig,
    /// Tenant of every active flow (arrivals insert, departures
    /// remove). Ordered so that snapshots and telemetry iterate it
    /// deterministically — see the `map-iter-order` lint.
    tenants: BTreeMap<FlowKey, TenantId>,
    /// Session telemetry (event-loop latencies, snapshot counters,
    /// per-tenant bandwidth samples) — the engine itself runs the
    /// zero-cost [`NoopRecorder`](tdmd_obs::NoopRecorder).
    recorder: StatsRecorder,
    /// Per-tenant attributed apply-latency samples in µs.
    latencies: BTreeMap<TenantId, Vec<f64>>,
    events: u64,
    snapshots_taken: u64,
    snapshots_restored: u64,
    last_snapshot: Option<ServeSnapshot>,
}

impl<P: PathPricer> ServeSession<P> {
    /// Wraps a fresh engine.
    pub fn new(engine: OnlineEngine<P>, config: ServeConfig) -> Self {
        Self {
            engine,
            config,
            tenants: BTreeMap::new(),
            recorder: StatsRecorder::new(),
            latencies: BTreeMap::new(),
            events: 0,
            snapshots_taken: 0,
            snapshots_restored: 0,
            last_snapshot: None,
        }
    }

    /// Rebuilds a session from a snapshot. Topology, pricer and
    /// policy are supplied by the caller exactly as at construction,
    /// like [`OnlineEngine::restore`].
    ///
    /// # Errors
    /// Rejects unknown versions and structurally invalid engine state
    /// ([`SnapshotError`]).
    pub fn restore(
        graph: tdmd_graph::DiGraph,
        pricer: P,
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
            OnlineEngine::restore(graph, pricer, policy, tdmd_obs::NoopRecorder, &snap.engine)?;
        let recorder = StatsRecorder::new();
        recorder.count(keys::SNAPSHOTS_RESTORED, 1);
        Ok(Self {
            engine,
            config,
            tenants: snap.tenants.iter().copied().collect(),
            recorder,
            latencies: snap
                .known_tenants
                .iter()
                .map(|&t| (t, Vec::new()))
                .collect(),
            events: snap.events,
            snapshots_taken: snap.snapshots_taken,
            snapshots_restored: snap.snapshots_restored + 1,
            last_snapshot: None,
        })
    }

    /// The wrapped engine.
    #[inline]
    pub fn engine(&self) -> &OnlineEngine<P> {
        &self.engine
    }

    /// Events applied by this session line (carried across restores).
    #[inline]
    pub fn events(&self) -> u64 {
        self.events
    }

    /// The session's telemetry recorder (event-loop latencies,
    /// snapshot counters, per-tenant bandwidth samples).
    #[inline]
    pub fn recorder(&self) -> &StatsRecorder {
        &self.recorder
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
        self.recorder.count(keys::SNAPSHOTS_TAKEN, 1);
        // BTreeMap iteration is already ascending by key — exactly
        // the snapshot's documented order.
        let tenants: Vec<(FlowKey, TenantId)> =
            self.tenants.iter().map(|(&k, &t)| (k, t)).collect();
        let known: BTreeSet<TenantId> = self
            .latencies
            .keys()
            .copied()
            .chain(self.tenants.values().copied())
            .collect();
        let snap = ServeSnapshot {
            version: SERVE_SNAPSHOT_VERSION,
            engine: self.engine.snapshot(),
            tenants,
            known_tenants: known.into_iter().collect(),
            events: self.events,
            snapshots_taken: self.snapshots_taken,
            snapshots_restored: self.snapshots_restored,
        };
        self.last_snapshot = Some(snap.clone());
        snap
    }

    /// Builds a telemetry record — and *ticks* the fairness samplers:
    /// each call records one [`keys::TENANT_SERVED_BW`] /
    /// [`keys::TENANT_DEGRADED_BW`] sample per tenant.
    pub fn telemetry(&self) -> Telemetry {
        // Order-independent integer sums over the live engine state
        // (saturating, so still order-independent).
        // Every tenant the session has ever seen is listed, even when
        // its flows have all drained.
        let mut per: BTreeMap<TenantId, (u64, u64)> = BTreeMap::new();
        for t in self.latencies.keys().chain(self.tenants.values()) {
            per.entry(*t).or_insert((0, 0));
        }
        for f in self.engine.state().active_flows() {
            let t = self.tenants.get(&f.key).copied().unwrap_or(0);
            let entry = per.entry(t).or_insert((0, 0));
            if f.assigned.is_some() {
                entry.0 = entry.0.saturating_add(f.rate);
            } else {
                entry.1 = entry.1.saturating_add(f.rate);
            }
        }
        let mut tenants = Vec::with_capacity(per.len());
        for (t, (served, degraded)) in per {
            self.recorder.sample(keys::TENANT_SERVED_BW, served as f64);
            self.recorder
                .sample(keys::TENANT_DEGRADED_BW, degraded as f64);
            let mut lat = self.latencies.get(&t).cloned().unwrap_or_default();
            lat.sort_by(f64::total_cmp);
            tenants.push(TenantTelemetry {
                tenant: t,
                served_bw: served,
                degraded_bw: degraded,
                events: lat.len() as u64,
                apply_p50_us: percentile_opt(&lat, 50.0),
                apply_p99_us: percentile_opt(&lat, 99.0),
            });
        }
        Telemetry {
            events: self.events,
            active_flows: self.engine.active_count() as u64,
            deployment: self.engine.deployment().vertices().to_vec(),
            objective: normalize_zero(self.engine.exact_objective()),
            degraded_flows: self.engine.degraded_count() as u64,
            event_p50_us: self.recorder.percentile_of(keys::SERVE_EVENT_US, 50.0),
            event_p99_us: self.recorder.percentile_of(keys::SERVE_EVENT_US, 99.0),
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
        let (event, tenant) = match ev {
            WireEvent::Arrive {
                key,
                rate,
                path,
                tenant,
            } => (
                Event::FlowArrived {
                    key: *key,
                    rate: *rate,
                    path: path.clone(),
                },
                Some(*tenant),
            ),
            WireEvent::Depart { key } => (
                Event::FlowDeparted { key: *key },
                self.tenants.get(key).copied(),
            ),
            WireEvent::Fail { vertex } => (Event::MiddleboxFailed { vertex: *vertex }, None),
            WireEvent::Down { vertex } => (Event::VertexDown { vertex: *vertex }, None),
            WireEvent::Recover { vertex } => (Event::MiddleboxRecovered { vertex: *vertex }, None),
            // Control lines carry no engine event.
            WireEvent::Snapshot | WireEvent::Telemetry | WireEvent::Shutdown => return Ok(()),
        };
        let sw = Stopwatch::start();
        let result = self.engine.apply(&event);
        let us = sw.elapsed_us();
        self.recorder.sample(keys::SERVE_EVENT_US, us);
        if result.is_ok() {
            self.events += 1;
            match ev {
                WireEvent::Arrive { key, tenant, .. } => {
                    self.tenants.insert(*key, *tenant);
                }
                WireEvent::Depart { key } => {
                    self.tenants.remove(key);
                }
                _ => {}
            }
            match tenant {
                Some(t) => self.latencies.entry(t).or_default().push(us),
                None => {
                    // Failure-class events repair every tenant's
                    // flows; attribute the latency to each active
                    // tenant.
                    let affected: BTreeSet<TenantId> = self.tenants.values().copied().collect();
                    for t in affected {
                        self.latencies.entry(t).or_default().push(us);
                    }
                }
            }
        }
        result
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
                    let before = self.engine.deployment().vertices().to_vec();
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
