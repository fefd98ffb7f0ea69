//! Community detection with Quantum Hamiltonian Descent and QUBO formulation.
//!
//! This crate is the paper's primary contribution, built on the substrates in
//! the sibling crates (`qhdcd-graph`, `qhdcd-qubo`, `qhdcd-qhd`,
//! `qhdcd-solvers`):
//!
//! * [`formulation`] — the community-detection → QUBO encoding of Algorithm 1:
//!   a modularity reward, a one-community-per-node assignment penalty and a
//!   balanced-size penalty, plus the decoder back to a [`Partition`].
//! * [`coarsen`] — heavy-edge-matching coarsening with the paper's Eq. 6 score.
//! * [`multilevel`] — the one detection pipeline, Algorithm 2: coarsen → build
//!   the coarsest graph's QUBO and hand it to any [`QuboSolver`] (QHD by
//!   default) → decode → project → refine. A graph at or below the threshold
//!   θ is not coarsened, which is the paper's direct path for small and
//!   medium graphs (`|V| ≲ 1000`).
//! * [`refine`] — modularity-gain local move refinement used at every level.
//! * [`louvain`] — the classical Louvain baseline (no QUBO involved).
//! * [`detector`] — a one-stop [`CommunityDetector`] front end.
//!
//! # Quickstart
//!
//! ```
//! use qhdcd_core::CommunityDetector;
//! use qhdcd_graph::generators;
//!
//! # fn main() -> Result<(), qhdcd_core::CdError> {
//! let graph = generators::karate_club();
//! let result = CommunityDetector::qhd().with_seed(7).detect(&graph)?;
//! assert!(result.modularity > 0.3);
//! # Ok(())
//! # }
//! ```
//!
//! [`Partition`]: qhdcd_graph::Partition
//! [`QuboSolver`]: qhdcd_qubo::QuboSolver

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;

pub mod coarsen;
pub mod detector;
pub mod formulation;
pub mod louvain;
pub mod multilevel;
pub mod refine;

pub use detector::{CommunityDetector, DetectionResult, Method};
pub use error::CdError;
pub use formulation::FormulationConfig;
pub use multilevel::MultilevelConfig;
