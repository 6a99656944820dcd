//! Topology import/export.
//!
//! A minimal JSON document format so experiments can be saved,
//! shared and replayed: vertex count plus an undirected or directed
//! edge list. Uses serde throughout. [`TopologyDoc::from_json`]
//! checks the document against the graph it describes, so a hostile
//! file fails with a [`TopologyError`] rather than a panic or a huge
//! allocation in [`TopologyDoc::to_graph`].

use crate::digraph::{DiGraph, NodeId};
use serde::{Deserialize, Serialize};

/// Serializable topology document.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TopologyDoc {
    /// Number of vertices.
    pub nodes: usize,
    /// Directed edges as `(source, target, weight)`.
    pub edges: Vec<(NodeId, NodeId, u64)>,
    /// Free-form name (generator + parameters, dataset id, ...).
    #[serde(default)]
    pub name: String,
}

impl TopologyDoc {
    /// The most vertices a document may declare: 2^24. [`to_graph`]
    /// allocates about 16 bytes per vertex before it reads an edge, so
    /// a 45-byte document naming 4·10^9 vertices would ask for 64 GB;
    /// at the limit it asks for about 256 MB.
    ///
    /// [`to_graph`]: TopologyDoc::to_graph
    pub const MAX_NODES: usize = 1 << 24;

    /// Captures a graph into a document.
    pub fn from_graph(g: &DiGraph, name: impl Into<String>) -> Self {
        Self {
            nodes: g.node_count(),
            edges: g.to_edge_list(),
            name: name.into(),
        }
    }

    /// Rebuilds the graph.
    ///
    /// # Panics
    /// Panics if an edge endpoint is not below `nodes`, which
    /// [`TopologyDoc::from_json`] rejects and
    /// [`TopologyDoc::from_graph`] never produces.
    pub fn to_graph(&self) -> DiGraph {
        DiGraph::from_edges(self.nodes, &self.edges)
    }

    /// Serializes to a JSON string.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("topology doc serializes")
    }

    /// Parses from JSON and checks that the document describes a graph.
    ///
    /// # Errors
    /// Malformed JSON, a `nodes` beyond [`TopologyDoc::MAX_NODES`], or
    /// an edge endpoint not below `nodes`.
    pub fn from_json(s: &str) -> Result<Self, TopologyError> {
        let doc: Self = serde_json::from_str(s).map_err(TopologyError::Json)?;
        doc.validate()?;
        Ok(doc)
    }

    /// Checks that `nodes` is at most [`TopologyDoc::MAX_NODES`] and
    /// that every edge endpoint is a vertex; reports the first field
    /// that does not.
    fn validate(&self) -> Result<(), TopologyError> {
        if self.nodes > Self::MAX_NODES {
            return Err(TopologyError::TooManyNodes { nodes: self.nodes });
        }
        for (edge, &(u, v, _)) in self.edges.iter().enumerate() {
            if let Some(endpoint) = [u, v].into_iter().find(|&x| x as usize >= self.nodes) {
                return Err(TopologyError::EdgeOutOfRange {
                    edge,
                    endpoint,
                    nodes: self.nodes,
                });
            }
        }
        Ok(())
    }
}

/// Why a topology document was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopologyError {
    /// The text is not a well-formed topology document.
    Json(serde_json::Error),
    /// `nodes` exceeds [`TopologyDoc::MAX_NODES`].
    TooManyNodes {
        /// The declared vertex count.
        nodes: usize,
    },
    /// An edge names a vertex at or beyond `nodes`.
    EdgeOutOfRange {
        /// Index of the edge in `edges`.
        edge: usize,
        /// The offending endpoint.
        endpoint: NodeId,
        /// The declared vertex count.
        nodes: usize,
    },
}

impl std::fmt::Display for TopologyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Json(e) => write!(f, "{e}"),
            Self::TooManyNodes { nodes } => write!(
                f,
                "field `nodes`: {nodes} vertices exceed the limit of {}",
                TopologyDoc::MAX_NODES
            ),
            Self::EdgeOutOfRange {
                edge,
                endpoint,
                nodes,
            } => write!(
                f,
                "field `edges`: edge {edge} has endpoint {endpoint}, but `nodes` is {nodes}"
            ),
        }
    }
}

impl std::error::Error for TopologyError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::random::erdos_renyi_connected;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn json_round_trip_preserves_graph() {
        let mut rng = StdRng::seed_from_u64(30);
        let g = erdos_renyi_connected(15, 0.2, &mut rng);
        let doc = TopologyDoc::from_graph(&g, "er-15");
        let parsed = TopologyDoc::from_json(&doc.to_json()).unwrap();
        assert_eq!(parsed, doc);
        assert_eq!(parsed.to_graph(), g);
        assert_eq!(parsed.name, "er-15");
    }

    #[test]
    fn missing_name_defaults_to_empty() {
        let json = r#"{"nodes": 2, "edges": [[0, 1, 1]]}"#;
        let doc = TopologyDoc::from_json(json).unwrap();
        assert_eq!(doc.name, "");
        let g = doc.to_graph();
        assert!(g.has_edge(0, 1));
    }

    #[test]
    fn malformed_json_is_an_error() {
        assert!(matches!(
            TopologyDoc::from_json("{not json"),
            Err(TopologyError::Json(_))
        ));
    }

    #[test]
    fn documents_that_describe_no_graph_are_errors() {
        let err =
            TopologyDoc::from_json(r#"{"nodes": 3, "edges": [[0, 1, 1], [1, 3, 1]]}"#).unwrap_err();
        assert_eq!(
            err,
            TopologyError::EdgeOutOfRange {
                edge: 1,
                endpoint: 3,
                nodes: 3
            }
        );
        assert!(err.to_string().contains("`edges`"), "{err}");
        for nodes in ["100000000000", "4000000000"] {
            let doc = format!(r#"{{"nodes": {nodes}, "edges": []}}"#);
            let err = TopologyDoc::from_json(&doc).unwrap_err();
            assert!(matches!(err, TopologyError::TooManyNodes { .. }));
            assert!(err.to_string().contains("`nodes`"), "{err}");
            assert!(err.to_string().contains("16777216"), "{err}");
        }
        let doc = |nodes: usize| format!(r#"{{"nodes": {nodes}, "edges": []}}"#);
        assert!(TopologyDoc::from_json(&doc(TopologyDoc::MAX_NODES)).is_ok());
        assert_eq!(
            TopologyDoc::from_json(&doc(TopologyDoc::MAX_NODES + 1)).unwrap_err(),
            TopologyError::TooManyNodes {
                nodes: TopologyDoc::MAX_NODES + 1
            }
        );
    }
}
