//! Graph substrate for QHD-based community detection.
//!
//! This crate provides everything the community-detection pipeline needs from a
//! graph library, implemented from scratch:
//!
//! * [`Graph`] — an immutable, undirected, weighted graph stored in compressed
//!   sparse row (CSR) form, built through [`GraphBuilder`].
//! * [`Partition`] — an assignment of nodes to communities with renumbering and
//!   aggregation helpers.
//! * [`modularity`] — quality functions (Newman–Girvan modularity with a
//!   resolution parameter, the constant Potts model), single-move gains and
//!   `ModularityState`, the community bookkeeping static refinement and the
//!   streaming detector share; see [`QualityFunction`].
//! * [`metrics`] — partition-quality metrics (NMI, ARI).
//! * [`generators`] — deterministic synthetic graph generators (planted
//!   partition / SBM, LFR-like power-law, ring of cliques, Zachary's karate
//!   club) used to stand in for the paper's SNAP datasets.
//! * [`DynamicGraph`] — the mutable layer for streaming workloads: sorted
//!   neighbour lists shared copy-on-write between a graph and its clones,
//!   mutated through [`EdgeEvent`]s and compacted back to CSR via
//!   `snapshot()`.
//! * [`io`] — plain edge-list reading and writing, plus edge-event logs.
//! * [`quotient`] — aggregation of a graph by a partition (super-node graphs),
//!   the basic operation behind multilevel coarsening.
//!
//! # Example
//!
//! ```
//! use qhdcd_graph::{GraphBuilder, Partition, modularity};
//!
//! # fn main() -> Result<(), qhdcd_graph::GraphError> {
//! let mut b = GraphBuilder::new(4);
//! b.add_edge(0, 1, 1.0)?;
//! b.add_edge(2, 3, 1.0)?;
//! let g = b.build();
//! let p = Partition::from_labels(vec![0, 0, 1, 1])?;
//! assert!(modularity::modularity(&g, &p) > 0.4);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod builder;
mod dynamic;
mod error;
mod graph;
mod partition;

pub mod generators;
pub mod io;
pub mod metrics;
pub mod modularity;
pub mod quotient;

pub use builder::GraphBuilder;
pub use dynamic::{DynamicGraph, EdgeEvent};
pub use error::GraphError;
pub use graph::{Graph, NeighborIter, NodeId};
pub use modularity::QualityFunction;
pub use partition::Partition;
