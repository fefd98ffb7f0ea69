//! Batched structure-of-arrays storage for mean-field product states.
//!
//! The mean-field backend evolves one wavefunction per binary variable, and
//! every per-step kernel — the diagonal potential phase, the Crank–Nicolson
//! tridiagonal solve, the expectation/measurement reductions — applies the
//! *same* arithmetic to every variable. [`WaveBatch`] stores all `n`
//! wavefunctions as two contiguous `f64` planes (real and imaginary parts
//! split, no interleaved `Complex` pairs) in **grid-point-major** layout:
//!
//! ```text
//! plane[k * n + i]  =  component of ψ_i at grid point k
//! ```
//!
//! i.e. grid row `k` holds the value of every variable's wavefunction at grid
//! point `k`, contiguously. The inner loops of all batched kernels in
//! [`crate::grid`] then run unit-stride *across variables* with identical
//! per-element arithmetic and no cross-iteration dependencies (the recurrences
//! of the Thomas sweep and the phase rotation couple grid rows, not
//! variables), which is exactly the shape the autovectorizer turns into SIMD.
//! The split re/im planes remove the AoS obstacle: a `Vec<Complex>` interleaves
//! real and imaginary parts, so a vector lane would have to shuffle; two flat
//! `f64` planes load straight into lanes.
//!
//! [`MeanFieldWorkspace`] owns every scratch buffer the per-step kernels need
//! (the Thomas intermediate `d′` planes, the phase-rotation registers, the
//! reduction accumulators), so the whole per-step loop runs with **zero heap
//! allocations** — the workspace is allocated once per trajectory (or per
//! worker) and reused across all steps. The `meanfield_throughput` bench
//! asserts the zero-allocation property with a counting allocator.
//!
//! # Determinism contract of the sharded sweep
//!
//! [`crate::meanfield::evolve`] optionally shards the per-step variable sweep
//! over worker threads ([`crate::meanfield::MeanFieldConfig::threads`]). The
//! result is **bit-identical for every thread count** by construction, the
//! same contract the parallel restart runtime in `qhdcd_solvers::runtime`
//! established:
//!
//! * variables are partitioned into *contiguous index ranges*
//!   (`qhdcd_solvers::runtime::shard_ranges`), one [`WaveBatch`] block, one
//!   [`MeanFieldWorkspace`] and one persistent scoped worker thread per range
//!   (spawned once per trajectory, not per step);
//! * within a step, each variable's trajectory is a pure function of its own
//!   amplitudes, its mean field, and per-step data derived from shared pure
//!   inputs (the [`crate::grid::ThomasFactors`] — O(resolution), recomputed
//!   by each worker — and the schedule coefficients) — no arithmetic ever
//!   combines values of two different variables, so block boundaries cannot
//!   change any intermediate;
//! * the cross-variable coupling (the mean fields `h_i = b_i + Σ_j W_ij ⟨x_j⟩`)
//!   is derived by each worker for its own variable range from a copy of the
//!   published expectation vector (one atomic `f64`-bits cell per variable,
//!   disjoint writers) with the serial sweep's gather,
//!   `qhdcd_qubo::QuboModel::mean_fields`. Its every field is a pure
//!   function of the model, the expectation vector and the variable, never
//!   of the range asked for: without a slot form it is
//!   `QuboModel::mean_field`, the variable's adjacency row summed in
//!   ascending-neighbour order; with one (`qhdcd_qubo::SlotForm`) each
//!   worker sums the per-slot aggregates over *all* nodes in ascending
//!   order, then walks the node's sparse row, so a node that a range
//!   boundary cuts gets the same bits on either side. So a field's
//!   additions, and therefore its bits, do not depend on which worker
//!   computes it;
//! * two barriers per step separate every worker's *read* of the expectations
//!   from every worker's *publish* of its refreshed slice, so no half-updated
//!   vector is ever observed.
//!
//! Workers therefore never race, never reduce across variables, and the
//! partition only decides *who* computes a variable, never *what* is computed.

use crate::complex::Complex;

/// All `n` wavefunctions of a mean-field product state, stored as split
/// re/im `f64` planes in grid-point-major layout (`plane[k * n + i]`).
///
/// See the [module docs](self) for the layout rationale and the determinism
/// contract of the sharded sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct WaveBatch {
    num_variables: usize,
    resolution: usize,
    re: Vec<f64>,
    im: Vec<f64>,
}

impl WaveBatch {
    /// Creates a zero-initialised batch of `num_variables` wavefunctions on a
    /// grid of `resolution` points.
    pub fn zeros(num_variables: usize, resolution: usize) -> Self {
        WaveBatch {
            num_variables,
            resolution,
            re: vec![0.0; num_variables * resolution],
            im: vec![0.0; num_variables * resolution],
        }
    }

    /// Number of wavefunctions (variables) in the batch.
    pub fn num_variables(&self) -> usize {
        self.num_variables
    }

    /// Number of grid points per wavefunction.
    pub fn resolution(&self) -> usize {
        self.resolution
    }

    /// The real plane, grid-point-major.
    pub fn re(&self) -> &[f64] {
        &self.re
    }

    /// The imaginary plane, grid-point-major.
    pub fn im(&self) -> &[f64] {
        &self.im
    }

    /// Both planes, mutably (for the in-crate kernels).
    pub(crate) fn planes_mut(&mut self) -> (&mut [f64], &mut [f64]) {
        (&mut self.re, &mut self.im)
    }

    /// Scatters an AoS wavefunction into column `i` of the batch.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range or `psi` has the wrong length.
    pub fn set_variable(&mut self, i: usize, psi: &[Complex]) {
        assert!(i < self.num_variables, "variable index out of range");
        assert_eq!(psi.len(), self.resolution, "state length must match the grid");
        for (k, z) in psi.iter().enumerate() {
            self.re[k * self.num_variables + i] = z.re;
            self.im[k * self.num_variables + i] = z.im;
        }
    }

    /// Gathers column `i` back into an AoS wavefunction.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn variable(&self, i: usize) -> Vec<Complex> {
        assert!(i < self.num_variables, "variable index out of range");
        (0..self.resolution)
            .map(|k| {
                Complex::new(
                    self.re[k * self.num_variables + i],
                    self.im[k * self.num_variables + i],
                )
            })
            .collect()
    }

    /// Squared L2 norm of variable `i`'s wavefunction.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn norm_sqr(&self, i: usize) -> f64 {
        assert!(i < self.num_variables, "variable index out of range");
        (0..self.resolution)
            .map(|k| {
                let idx = k * self.num_variables + i;
                self.re[idx] * self.re[idx] + self.im[idx] * self.im[idx]
            })
            .sum()
    }
}

/// Reusable per-worker scratch space for the batched mean-field kernels.
///
/// Sized for one [`WaveBatch`]; every batched kernel in [`crate::grid`]
/// borrows it instead of allocating, so the per-step loop performs zero heap
/// allocations. Construct once per trajectory (or per sweep worker) and reuse
/// across all steps.
#[derive(Debug, Clone)]
pub struct MeanFieldWorkspace {
    /// Thomas intermediate `d′` planes (grid-point-major, like the batch).
    pub(crate) d_re: Vec<f64>,
    pub(crate) d_im: Vec<f64>,
    /// Per-variable phase rotation step `u_i = e^{-i·dt·slope_i·h}`.
    pub(crate) u_re: Vec<f64>,
    pub(crate) u_im: Vec<f64>,
    /// Per-variable running phase power `u_i^k`.
    pub(crate) cur_re: Vec<f64>,
    pub(crate) cur_im: Vec<f64>,
    /// Reduction accumulators (weighted and total probability mass).
    pub(crate) num: Vec<f64>,
    pub(crate) den: Vec<f64>,
}

impl MeanFieldWorkspace {
    /// Allocates scratch space for a batch of `num_variables` wavefunctions on
    /// a grid of `resolution` points.
    pub fn new(num_variables: usize, resolution: usize) -> Self {
        MeanFieldWorkspace {
            d_re: vec![0.0; num_variables * resolution],
            d_im: vec![0.0; num_variables * resolution],
            u_re: vec![0.0; num_variables],
            u_im: vec![0.0; num_variables],
            cur_re: vec![0.0; num_variables],
            cur_im: vec![0.0; num_variables],
            num: vec![0.0; num_variables],
            den: vec![0.0; num_variables],
        }
    }

    /// Allocates scratch space sized for `batch`.
    pub fn for_batch(batch: &WaveBatch) -> Self {
        Self::new(batch.num_variables(), batch.resolution())
    }

    /// Whether this workspace is large enough for `batch`.
    pub fn fits(&self, batch: &WaveBatch) -> bool {
        self.d_re.len() >= batch.num_variables() * batch.resolution()
            && self.u_re.len() >= batch.num_variables()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::Grid;

    #[test]
    fn scatter_gather_round_trips() {
        let grid = Grid::new(8).unwrap();
        let mut batch = WaveBatch::zeros(3, 8);
        let psi0 = grid.gaussian_state(0.3, 0.1);
        let psi2 = grid.gaussian_state(0.7, 0.2);
        batch.set_variable(0, &psi0);
        batch.set_variable(2, &psi2);
        assert_eq!(batch.variable(0), psi0);
        assert_eq!(batch.variable(2), psi2);
        assert_eq!(batch.variable(1), vec![Complex::ZERO; 8]);
        assert!((batch.norm_sqr(0) - 1.0).abs() < 1e-12);
        assert_eq!(batch.norm_sqr(1), 0.0);
        assert_eq!(batch.num_variables(), 3);
        assert_eq!(batch.resolution(), 8);
    }

    #[test]
    fn layout_is_grid_point_major() {
        let mut batch = WaveBatch::zeros(2, 4);
        batch.set_variable(1, &[Complex::new(1.0, -1.0); 4]);
        // Column 1 of every grid row is set; column 0 untouched.
        for k in 0..4 {
            assert_eq!(batch.re()[k * 2], 0.0);
            assert_eq!(batch.re()[k * 2 + 1], 1.0);
            assert_eq!(batch.im()[k * 2 + 1], -1.0);
        }
    }

    #[test]
    fn workspace_sizing() {
        let batch = WaveBatch::zeros(5, 16);
        let ws = MeanFieldWorkspace::for_batch(&batch);
        assert!(ws.fits(&batch));
        assert!(!MeanFieldWorkspace::new(4, 16).fits(&batch));
        assert!(!MeanFieldWorkspace::new(5, 8).fits(&batch));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_variable_panics() {
        WaveBatch::zeros(2, 4).variable(2);
    }
}
