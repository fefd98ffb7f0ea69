//! Quantum Hamiltonian Descent (QHD) simulator and QUBO solver.
//!
//! QHD (Leng et al., 2023) quantises the continuous-time limit of gradient
//! descent: the optimisation variable becomes a wavefunction `Ψ(t, x)` evolving
//! under the time-dependent Schrödinger equation
//!
//! ```text
//! i ∂Ψ/∂t = [ e^{φ_t} (−½ Δ) + e^{χ_t} f(x) ] Ψ
//! ```
//!
//! where the damping schedules `e^{φ_t}` (kinetic) and `e^{χ_t}` (potential)
//! move the dynamics through three phases — kinetic, global search and descent
//! — and quantum tunnelling lets the state escape local minima of `f`.
//!
//! Following QHDOPT, this crate discretises the dynamics so that a time step is
//! nothing but (sparse) matrix multiplication, and offers two backends:
//!
//! * [`statevector`] — an **exact** simulator on the Boolean hypercube for
//!   instances of up to ~16 variables. Used for validation and for the very
//!   coarsest graphs.
//! * [`meanfield`] — a **scalable** product-state (mean-field) simulator: one
//!   wavefunction per binary variable on a discretised `[0,1]` grid, coupled
//!   through expectation values. This is the classical surrogate of the same
//!   Hamiltonian dynamics used for large instances, and is what the paper's
//!   GPU implementation parallelises.
//!
//! The high-level entry point is [`QhdSolver`], which runs many samples in
//! parallel threads on the workspace's restart runtime (standing in for the
//! paper's multi-GPU batching), rounds measurement outcomes to binary
//! solutions and descends each with the classical local search QHDOPT uses as
//! post-processing.
//!
//! # Example
//!
//! ```
//! use qhdcd_qubo::{QuboBuilder, QuboSolver};
//! use qhdcd_qhd::QhdSolver;
//!
//! # fn main() -> Result<(), qhdcd_qubo::QuboError> {
//! let mut b = QuboBuilder::new(4);
//! b.add_quadratic(0, 1, -2.0)?;
//! b.add_linear(2, 1.0)?;
//! let model = b.build();
//! let solver = QhdSolver::builder().samples(8).seed(7).build();
//! let report = solver.solve(&model)?;
//! assert_eq!(report.solution.len(), 4);
//! # Ok(())
//! # }
//! ```

// `unsafe` exists solely inside the feature-gated SIMD kernel backends
// (`kernels::avx2` / `kernels::neon`) and the guarded dispatch calls into
// them: default builds still forbid it outright, and `simd` builds deny it
// everywhere except those modules and the dispatch entry points, which opt
// in explicitly.
#![cfg_attr(not(feature = "simd"), forbid(unsafe_code))]
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod complex;
pub mod grid;
pub mod kernels;
pub mod meanfield;
pub mod refine;
pub mod schedule;
pub mod solver;
pub mod statevector;

pub use batch::{MeanFieldWorkspace, WaveBatch};
pub use grid::ThomasFactors;
pub use kernels::KernelBackend;
pub use schedule::{Phase, Schedule};
pub use solver::{Backend, QhdConfig, QhdConfigBuilder, QhdSolver};
