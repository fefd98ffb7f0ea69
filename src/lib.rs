//! # qhdcd — Scalable Community Detection with Quantum Hamiltonian Descent
//!
//! This is the facade crate of the `qhdcd` workspace, a from-scratch Rust
//! reproduction of *"Scalable Community Detection Using Quantum Hamiltonian
//! Descent and QUBO Formulation"* (DAC 2025). It re-exports the workspace
//! crates under stable module names so applications only need one dependency:
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`graph`] | `qhdcd-graph` | CSR graphs, partitions, modularity, metrics, generators, I/O |
//! | [`qubo`] | `qhdcd-qubo` | QUBO models, builders, solver trait |
//! | [`qhd`] | `qhdcd-qhd` | Quantum Hamiltonian Descent simulator and solver |
//! | [`solvers`] | `qhdcd-solvers` | branch-and-bound (exact), exhaustive search, the restart portfolio (greedy, annealing, tabu members) |
//! | [`core`] | `qhdcd-core` | QUBO formulation, the multilevel pipeline (direct when no level is built), Louvain baseline |
//! | [`stream`] | `qhdcd-stream` | dynamic graphs, edge events, incremental community maintenance |
//!
//! # Quickstart
//!
//! ```
//! use qhdcd::prelude::*;
//!
//! # fn main() -> Result<(), qhdcd::core::CdError> {
//! // Build (or load) a graph.
//! let graph = qhdcd::graph::generators::karate_club();
//! // Detect communities with the paper's QHD + multilevel pipeline.
//! let result = CommunityDetector::qhd().with_communities(4).with_seed(1).detect(&graph)?;
//! println!("modularity = {:.4}, communities = {}", result.modularity, result.num_communities);
//! assert!(result.modularity > 0.3);
//! # Ok(())
//! # }
//! ```
//!
//! See `examples/` for runnable end-to-end scenarios and `crates/bench` for the
//! harness that regenerates every table and figure of the paper.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Graph substrate: graphs, partitions, modularity, metrics, generators, I/O.
pub use qhdcd_graph as graph;

/// QUBO substrate: models, builders and the solver trait.
pub use qhdcd_qubo as qubo;

/// Quantum Hamiltonian Descent simulator and QUBO solver.
pub use qhdcd_qhd as qhd;

/// Classical baseline QUBO solvers (branch-and-bound, exhaustive search, the
/// restart portfolio).
pub use qhdcd_solvers as solvers;

/// Community detection: formulation, the multilevel pipeline (direct when no
/// level is built), Louvain baseline.
pub use qhdcd_core as core;

/// Streaming subsystem: dynamic graphs, edge events, incremental maintenance.
pub use qhdcd_stream as stream;

/// The most commonly used types, for glob import.
pub mod prelude {
    pub use crate::core::{CdError, CommunityDetector, DetectionResult, Method};
    pub use crate::graph::{
        DynamicGraph, EdgeEvent, Graph, GraphBuilder, Partition, QualityFunction,
    };
    pub use crate::qhd::QhdSolver;
    pub use crate::qubo::{QuboBuilder, QuboModel, QuboSolver, SolveStatus};
    pub use crate::solvers::{BranchAndBound, PortfolioSolver};
    pub use crate::stream::{ServiceConfig, StreamConfig, StreamingDetector, StreamingService};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_re_exports_are_usable_together() {
        let graph = crate::graph::generators::karate_club();
        let result = CommunityDetector::new(Method::Louvain).detect(&graph).unwrap();
        assert!(result.modularity > 0.3);
        let mut b = QuboBuilder::new(2);
        b.add_linear(0, -1.0).unwrap();
        let report = BranchAndBound::default().solve(&b.build()).unwrap();
        assert_eq!(report.status, SolveStatus::Optimal);
    }
}
