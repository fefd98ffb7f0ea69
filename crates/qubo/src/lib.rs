//! QUBO (Quadratic Unconstrained Binary Optimization) substrate.
//!
//! The paper reformulates community detection as the minimisation of
//! `E(x) = xᵀ Q x + bᵀ x` over binary vectors `x ∈ {0,1}ⁿ`. This crate provides:
//!
//! * [`QuboModel`] — a sparse, immutable QUBO instance with fast full and
//!   incremental (single-flip) evaluation, built through [`QuboBuilder`].
//! * [`LocalFieldState`] — the incremental local-field engine powering every
//!   single-flip search loop in the workspace: O(1) flip-delta queries,
//!   O(deg) applied flips, rebuilds that read only the set variables' rows
//!   (see [`fields`] for the invariants).
//! * [`SlotForm`] — the node-slot form of a community-detection QUBO's
//!   couplings (a sparse node graph plus rank-one terms per slot), from which
//!   a model that declares it computes its mean fields without reading its
//!   dense couplings.
//! * [`solver`] — the [`QuboSolver`] trait shared by the QHD solver and all
//!   classical baselines, together with [`SolveReport`] / [`SolveStatus`]
//!   describing the outcome (`Optimal` vs `TimeLimit` is exactly the split the
//!   paper's Figures 3 and 4 are built on).
//! * [`generate`] — seeded random QUBO instances with uniform couplings, the
//!   inputs of the solver tests and throughput benches.
//!
//! # Example
//!
//! ```
//! use qhdcd_qubo::QuboBuilder;
//!
//! # fn main() -> Result<(), qhdcd_qubo::QuboError> {
//! let mut b = QuboBuilder::new(3);
//! b.add_linear(0, -1.0)?;
//! b.add_quadratic(0, 1, 2.0)?;
//! let model = b.build();
//! // x = (1, 0, 0) has energy -1.
//! assert_eq!(model.evaluate(&[true, false, false])?, -1.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod builder;
mod error;
mod form;
mod model;

pub mod fields;
pub mod generate;
pub mod solver;

pub use builder::QuboBuilder;
pub use error::QuboError;
pub use fields::LocalFieldState;
pub use form::SlotForm;
pub use model::{BinarySolution, QuboModel};
pub use solver::{Budget, CancelToken, Completion, QuboSolver, SolveReport, SolveStatus};
