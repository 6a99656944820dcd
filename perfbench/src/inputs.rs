//! Seeded input generation. Everything here runs before the
//! resident-memory meter starts and outside every timed region; the
//! same seed gives the same inputs.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tdmd_graph::generators::erdos_renyi_connected;
use tdmd_graph::{DiGraph, NodeId};
use tdmd_online::{Event, FlowKey};
use tdmd_serve::WireEvent;
use tdmd_traffic::{Flow, GatewayWorkload};

/// Traffic-changing ratio λ of every workload.
pub const LAMBDA: f64 = 0.5;
/// Flow rates are uniform integers in `1..=MAX_RATE`.
const MAX_RATE: u64 = 10;
/// One serve line in this many is a planted bad line.
const PLANT_EVERY: usize = 500;

/// A workload's RNG: the run seed mixed with a per-workload tag, so
/// workloads sharing a seed draw independent inputs.
pub fn rng(seed: u64, tag: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// A connected Erdős–Rényi topology with gateway-destination routing.
pub struct Topology {
    pub graph: DiGraph,
    pub workload: GatewayWorkload,
}

impl Topology {
    /// `nodes` vertices of mean degree `mean_degree`, flows routed to
    /// `gateways` distinct vertices along BFS shortest paths.
    pub fn new(nodes: usize, mean_degree: f64, gateways: usize, rng: &mut StdRng) -> Self {
        let p = (mean_degree / (nodes.saturating_sub(1).max(1)) as f64).min(1.0);
        let graph = erdos_renyi_connected(nodes, p, rng);
        let gws = GatewayWorkload::pick_gateways(nodes, gateways, rng);
        let workload = GatewayWorkload::new(&graph, gws, MAX_RATE);
        Self { graph, workload }
    }

    /// `count` flows with dense ids from 0.
    pub fn flows(&self, count: usize, rng: &mut StdRng) -> Vec<Flow> {
        self.workload.flows(&self.graph, 0, count, rng)
    }
}

/// Unprocessed bandwidth of a flow under hop-count pricing: its
/// contribution to b(∅).
fn base_cost(rate: u64, path: &[NodeId]) -> u64 {
    rate * (path.len() as u64 - 1)
}

/// One churn step.
#[derive(Debug, Clone, PartialEq)]
pub enum Step {
    Arrive {
        key: FlowKey,
        rate: u64,
        path: Vec<NodeId>,
    },
    Depart {
        key: FlowKey,
    },
}

impl Step {
    /// The engine event of this step.
    pub fn event(self) -> Event {
        match self {
            Step::Arrive { key, rate, path } => Event::FlowArrived { key, rate, path },
            Step::Depart { key } => Event::FlowDeparted { key },
        }
    }

    /// The wire line of this step; tenant = key mod 3.
    pub fn wire(self) -> WireEvent {
        match self {
            Step::Arrive { key, rate, path } => WireEvent::Arrive {
                key,
                rate,
                path,
                tenant: (key % 3) as u16,
            },
            Step::Depart { key } => WireEvent::Depart { key },
        }
    }
}

/// 50/50 arrival/departure churn over a standing flow set: departures
/// and arrivals alternate, so the active count stays at the standing
/// size and the state the program works on is the same throughout a
/// run, however long. Tracks the active keys and b(∅) so that checks
/// and the bandwidth ratio need nothing from the program under test.
#[derive(Clone)]
pub struct Churn {
    rng: StdRng,
    /// `(key, base cost)` of every active flow.
    active: Vec<(FlowKey, u64)>,
    next_key: u32,
    base: u64,
    depart_next: bool,
}

impl Churn {
    /// Churn starting from `standing` (keys = flow ids).
    ///
    /// # Panics
    /// Panics if there are more than `u32::MAX` standing flows.
    pub fn new(rng: StdRng, standing: &[Flow]) -> Self {
        let active: Vec<(FlowKey, u64)> = standing
            .iter()
            .map(|f| (FlowKey::from(f.id), base_cost(f.rate, &f.path)))
            .collect();
        let base = active.iter().map(|&(_, c)| c).sum();
        Self {
            rng,
            active,
            next_key: u32::try_from(standing.len()).expect("fewer than 2^32 standing flows"),
            base,
            depart_next: true,
        }
    }

    /// b(∅) of the active flows.
    pub fn base(&self) -> u64 {
        self.base
    }

    /// Number of active flows.
    pub fn active_count(&self) -> usize {
        self.active.len()
    }

    /// The next step: alternately the departure of a uniformly random
    /// active flow and the arrival of a fresh one.
    pub fn step(&mut self, topo: &Topology) -> Step {
        let depart = self.depart_next && !self.active.is_empty();
        self.depart_next = !self.depart_next;
        if depart {
            let i = self.rng.gen_range(0..self.active.len());
            let (key, cost) = self.active.swap_remove(i);
            self.base -= cost;
            Step::Depart { key }
        } else {
            let f = topo
                .workload
                .flow(&topo.graph, self.next_key, &mut self.rng);
            self.next_key += 1;
            let key = FlowKey::from(f.id);
            let cost = base_cost(f.rate, &f.path);
            self.active.push((key, cost));
            self.base += cost;
            Step::Arrive {
                key,
                rate: f.rate,
                path: f.path,
            }
        }
    }

    /// A line that can never be applied: every even-numbered plant is
    /// an `Arrive` cut in half (a decode error), every odd one a
    /// `Depart` of a key no flow ever had (an engine error).
    fn bad_line(&mut self, topo: &Topology, nth: usize) -> String {
        if nth.is_multiple_of(2) {
            let f = topo.workload.flow(&topo.graph, 0, &mut self.rng);
            let line = encode(
                &Step::Arrive {
                    key: 1 << 48,
                    rate: f.rate,
                    path: f.path,
                }
                .wire(),
            );
            line[..line.len() / 2].to_string()
        } else {
            encode(&WireEvent::Depart {
                key: (1 << 48) + nth as u64,
            })
        }
    }
}

fn encode(ev: &WireEvent) -> String {
    serde_json::to_string(ev).expect("wire events serialize")
}

/// An NDJSON event stream for the serve workloads.
pub struct ServeStream {
    /// The lines, each terminated by `\n`.
    pub text: String,
    /// Byte offset just past each line's `\n`.
    pub ends: Vec<usize>,
    /// 1-based numbers of the planted bad lines.
    pub planted: Vec<u64>,
    /// b(∅) before the first line (index 0) and after each applied
    /// line.
    pub base_after: Vec<u64>,
    /// Active flows once every line is applied.
    pub final_active: usize,
}

impl ServeStream {
    /// `lines` lines of churn continuing `churn`, with one bad line at
    /// a seeded position in every block of [`PLANT_EVERY`].
    pub fn new(topo: &Topology, churn: &mut Churn, lines: usize) -> Self {
        let mut text = String::new();
        let mut ends = Vec::with_capacity(lines);
        let mut planted = Vec::new();
        let mut base_after = vec![churn.base()];
        let mut plant_at = 0;
        for i in 0..lines {
            if i % PLANT_EVERY == 0 {
                plant_at = i + churn.rng.gen_range(0..PLANT_EVERY);
            }
            if i == plant_at {
                let line = churn.bad_line(topo, planted.len());
                text.push_str(&line);
                planted.push(i as u64 + 1);
            } else {
                text.push_str(&encode(&churn.step(topo).wire()));
                base_after.push(churn.base());
            }
            text.push('\n');
            ends.push(text.len());
        }
        Self {
            text,
            ends,
            planted,
            base_after,
            final_active: churn.active_count(),
        }
    }

    /// Lines that should be applied (all but the planted ones).
    pub fn applied(&self) -> u64 {
        (self.ends.len() - self.planted.len()) as u64
    }
}
