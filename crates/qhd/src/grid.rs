//! Discretised `[0, 1]` position grid and Schrödinger propagators.
//!
//! The mean-field QHD backend represents each binary variable by a wavefunction
//! on a uniform grid over `[0, 1]`. This module provides the grid itself, the
//! finite-difference kinetic (Laplacian) operator, a Crank–Nicolson kinetic
//! propagator (a tridiagonal solve — "only matrix operations", as the paper
//! emphasises), the diagonal potential phase, and measurement helpers.
//!
//! Two call shapes share **one** set of scalar kernels (in
//! [`crate::kernels`]):
//!
//! * **per-variable** kernels ([`Grid::kinetic_step`],
//!   [`Grid::apply_linear_potential_phase`], …) operating on one AoS
//!   `&mut [Complex]` wavefunction — thin `n = 1` wrappers over the batched
//!   scalar reference, always taking the scalar path regardless of the
//!   selected SIMD backend;
//! * **batched** kernels ([`Grid::kinetic_step_batch`],
//!   [`Grid::apply_potential_phase_batch`], …) operating on a whole
//!   [`WaveBatch`] of split-plane wavefunctions at once, dispatched through
//!   [`crate::kernels`] to the active backend. The Crank–Nicolson system is
//!   *identical for every variable within a step* (it depends only on the
//!   kinetic coefficient, `dt` and the grid spacing), so the batched path
//!   factors it **once per step** into [`ThomasFactors`] and then runs a
//!   single allocation-free forward/backward sweep over the whole batch.

use crate::batch::{MeanFieldWorkspace, WaveBatch};
use crate::complex::{normalize, Complex};
use crate::kernels;
use qhdcd_qubo::QuboError;

/// The per-step Crank–Nicolson factorization, shared by every variable in a
/// [`WaveBatch`].
///
/// For the kinetic Hamiltonian `H_k = c · (−½ d²/dx²)` discretised on a
/// uniform grid, one Crank–Nicolson step solves `A ψ⁺ = B ψ` with
/// `A = I + i·dt/2·H_k` and `B = I − i·dt/2·H_k` — a constant-coefficient
/// tridiagonal system that depends only on `(c, dt, h)`, *not* on the state.
/// The Thomas forward-elimination coefficients `c′_k` and the reciprocal
/// pivots `1/denom_k` are therefore the same for all `n` variables of a step;
/// this struct computes them once (O(resolution)) so the per-variable sweep in
/// [`Grid::kinetic_step_batch`] is pure multiply/add.
///
/// Buffers are reused across [`ThomasFactors::factor`] calls — after the first
/// step the factorization allocates nothing.
#[derive(Debug, Clone, Default)]
pub struct ThomasFactors {
    pub(crate) resolution: usize,
    /// `dt/2 · diag`: the matrices have fixed structure `A = I + i·d·I + i·a·E`,
    /// `B = I − i·d·I − i·a·E` (with `E` the off-diagonal stencil), so only the
    /// two real scalars need to be kept.
    pub(crate) d: f64,
    /// `dt/2 · off` (the off-diagonals are `±i·a`).
    pub(crate) a: f64,
    pub(crate) c_re: Vec<f64>,
    pub(crate) c_im: Vec<f64>,
    pub(crate) inv_re: Vec<f64>,
    pub(crate) inv_im: Vec<f64>,
}

impl ThomasFactors {
    /// Creates an empty factorization; call [`ThomasFactors::factor`] before use.
    pub fn new() -> Self {
        Self::default()
    }

    /// The grid resolution this factorization was computed for (0 before the
    /// first [`ThomasFactors::factor`] call).
    pub fn resolution(&self) -> usize {
        self.resolution
    }

    /// (Re)computes the factorization for one Crank–Nicolson step of
    /// `H_k = coefficient · (−½ d²/dx²)` over time `dt` on `grid`, reusing the
    /// internal buffers.
    pub fn factor(&mut self, grid: &Grid, coefficient: f64, dt: f64) {
        let res = grid.resolution();
        let h2 = grid.spacing() * grid.spacing();
        // H_k tridiagonal entries: diag = c/h², off = −c/(2h²).
        let diag = coefficient / h2;
        let off = -coefficient / (2.0 * h2);
        self.d = dt / 2.0 * diag;
        self.a = dt / 2.0 * off;
        let a_diag = Complex::new(1.0, self.d);
        let a_off = Complex::new(0.0, self.a);
        self.resolution = res;
        self.c_re.resize(res, 0.0);
        self.c_im.resize(res, 0.0);
        self.inv_re.resize(res, 0.0);
        self.inv_im.resize(res, 0.0);
        let mut denom = a_diag;
        for k in 0..res {
            if k > 0 {
                denom = a_diag - a_off * Complex::new(self.c_re[k - 1], self.c_im[k - 1]);
            }
            let inv = denom.recip();
            self.inv_re[k] = inv.re;
            self.inv_im[k] = inv.im;
            let c = a_off * inv;
            self.c_re[k] = c.re;
            self.c_im[k] = c.im;
        }
    }
}

/// A uniform grid of `resolution` points on `[0, 1]` with Dirichlet boundaries.
#[derive(Debug, Clone, PartialEq)]
pub struct Grid {
    points: Vec<f64>,
    spacing: f64,
}

impl Grid {
    /// Creates a grid with `resolution` interior points spanning `[0, 1]`.
    ///
    /// # Errors
    ///
    /// Returns [`QuboError::InvalidConfig`] if `resolution < 4`.
    pub fn new(resolution: usize) -> Result<Self, QuboError> {
        if resolution < 4 {
            return Err(QuboError::InvalidConfig {
                reason: format!("grid resolution must be at least 4, got {resolution}"),
            });
        }
        let spacing = 1.0 / (resolution as f64 - 1.0);
        let points = (0..resolution).map(|k| k as f64 * spacing).collect();
        Ok(Grid { points, spacing })
    }

    /// Number of grid points.
    pub fn resolution(&self) -> usize {
        self.points.len()
    }

    /// The grid point positions in `[0, 1]`.
    pub fn points(&self) -> &[f64] {
        &self.points
    }

    /// The grid spacing `h`.
    pub fn spacing(&self) -> f64 {
        self.spacing
    }

    /// A normalised uniform superposition over the grid — the QHD initial state
    /// (the ground state of the kinetic term spread over the whole box).
    pub fn uniform_state(&self) -> Vec<Complex> {
        let amp = 1.0 / (self.points.len() as f64).sqrt();
        vec![Complex::from_real(amp); self.points.len()]
    }

    /// A normalised Gaussian wave packet centred at `center` with standard
    /// deviation `width`, used for randomised initial conditions.
    pub fn gaussian_state(&self, center: f64, width: f64) -> Vec<Complex> {
        let w = width.max(1e-6);
        let mut psi: Vec<Complex> = self
            .points
            .iter()
            .map(|&x| Complex::from_real((-((x - center) / w).powi(2) / 2.0).exp()))
            .collect();
        normalize(&mut psi);
        psi
    }

    /// Fills every column of `batch` with a normalised Gaussian packet
    /// (`centers[i]`, `widths[i]`) in grid-point-major sweeps, bit-identical
    /// to scattering [`Grid::gaussian_state`] per variable but with
    /// unit-stride inner loops across variables and no per-variable
    /// allocation — initial packet generation is the largest non-engine cost
    /// of a trajectory, so it gets the same SoA treatment as the step
    /// kernels.
    ///
    /// Bit-identity holds because every per-point amplitude uses the exact
    /// per-variable expression and the norm is accumulated in ascending
    /// grid-point order, the same summation order as
    /// [`crate::complex::normalize`] on a single packet.
    ///
    /// # Panics
    ///
    /// Panics if `batch` does not match the grid or `centers`/`widths` do not
    /// match the batch.
    pub fn gaussian_state_batch(&self, batch: &mut WaveBatch, centers: &[f64], widths: &[f64]) {
        assert_eq!(batch.resolution(), self.points.len(), "batch resolution must match grid");
        let n = batch.num_variables();
        assert_eq!(centers.len(), n, "centers length must match batch");
        assert_eq!(widths.len(), n, "widths length must match batch");
        let clamped: Vec<f64> = widths.iter().map(|&w| w.max(1e-6)).collect();
        let (re, im) = batch.planes_mut();
        // Unnormalised packets, one grid row at a time (unit stride across
        // variables). The packets are real, so the imaginary plane is zeroed.
        for (k, &x) in self.points.iter().enumerate() {
            let row = &mut re[k * n..(k + 1) * n];
            for ((slot, &c), &w) in row.iter_mut().zip(centers).zip(&clamped) {
                *slot = (-((x - c) / w).powi(2) / 2.0).exp();
            }
            im[k * n..(k + 1) * n].fill(0.0);
        }
        // Per-variable norms, accumulated in ascending grid-point order.
        let mut norm = vec![0.0f64; n];
        for k in 0..self.points.len() {
            for (acc, &r) in norm.iter_mut().zip(&re[k * n..(k + 1) * n]) {
                *acc += r * r;
            }
        }
        // `normalize` scales by `1.0 / sqrt(norm)` and no-ops on the zero
        // vector; scaling by exactly 1.0 reproduces the no-op bit-for-bit.
        let inv: Vec<f64> = norm
            .iter()
            .map(|&s| {
                let r = s.sqrt();
                if r > 0.0 {
                    1.0 / r
                } else {
                    1.0
                }
            })
            .collect();
        for k in 0..self.points.len() {
            for (slot, &s) in re[k * n..(k + 1) * n].iter_mut().zip(&inv) {
                *slot *= s;
            }
        }
    }

    /// Applies the linear-potential phase `ψ(x) ← e^{-i·dt·slope·x} ψ(x)` in
    /// place — the `n = 1` form of [`Grid::apply_potential_phase_batch`],
    /// running the *same* scalar phase-rotation recurrence (one `sin`/`cos`
    /// for the whole grid, never the SIMD path). The mean-field potential is
    /// always linear in `x`, so this is the only potential shape the engine
    /// needs.
    ///
    /// # Panics
    ///
    /// Panics if `psi` has a different length than the grid.
    pub fn apply_linear_potential_phase(&self, psi: &mut [Complex], slope: f64, dt: f64) {
        let res = self.points.len();
        assert_eq!(psi.len(), res, "state length must match grid");
        let (mut re, mut im) = split_planes(psi);
        // The same per-variable preparation as prepare_potential_phase_batch.
        let (sin, cos) = (-dt * slope * self.spacing).sin_cos();
        let (u_re, u_im) = ([cos], [sin]);
        let (mut cur_re, mut cur_im) = ([0.0], [0.0]);
        kernels::scalar::apply_prepared_phase(
            &mut re,
            &mut im,
            &u_re,
            &u_im,
            &mut cur_re,
            &mut cur_im,
            1,
            res,
            0,
            1,
        );
        merge_planes(psi, &re, &im);
    }

    /// Advances `ψ` by one Crank–Nicolson step of the kinetic Hamiltonian
    /// `H_k = coefficient · (−½ d²/dx²)` over time `dt`, in place.
    ///
    /// Crank–Nicolson solves `(I + i·dt/2·H_k) ψ⁺ = (I − i·dt/2·H_k) ψ`, which is
    /// a single tridiagonal solve per step — unconditionally stable and exactly
    /// norm-preserving up to floating-point error. The `n = 1` form of
    /// [`Grid::kinetic_step_batch`]: it factors the system
    /// ([`ThomasFactors`]) and runs the same scalar Thomas sweep (never the
    /// SIMD path).
    ///
    /// # Panics
    ///
    /// Panics if `psi` has a different length than the grid.
    pub fn kinetic_step(&self, psi: &mut [Complex], coefficient: f64, dt: f64) {
        let res = self.points.len();
        assert_eq!(psi.len(), res, "state length must match grid");
        let mut factors = ThomasFactors::new();
        factors.factor(self, coefficient, dt);
        let (mut re, mut im) = split_planes(psi);
        let mut d_re = vec![0.0; res];
        let mut d_im = vec![0.0; res];
        kernels::scalar::thomas_sweep(&mut re, &mut im, &mut d_re, &mut d_im, &factors, 1, 0, 1);
        merge_planes(psi, &re, &im);
    }

    /// Expectation value `⟨x⟩ = Σ |ψ(x)|² x / Σ |ψ(x)|²`. Returns 0.5 for the
    /// zero state. The `n = 1` form of [`Grid::expectation_position_batch`]
    /// (same scalar reduction, same summation order).
    ///
    /// # Panics
    ///
    /// Panics if `psi` has a different length than the grid.
    pub fn expectation_position(&self, psi: &[Complex]) -> f64 {
        assert_eq!(psi.len(), self.points.len(), "state length must match grid");
        let (re, im) = split_planes(psi);
        let (mut num, mut den) = ([0.0], [0.0]);
        kernels::scalar::expectation_rows(&re, &im, &self.points, &mut num, &mut den, 1, 0, 1);
        if den[0] > 0.0 {
            num[0] / den[0]
        } else {
            0.5
        }
    }

    /// Batched diagonal potential phase: multiplies every wavefunction `i` of
    /// `batch` by `e^{-i·dt·slopes[i]·x}` pointwise over the grid.
    ///
    /// The mean-field potential is linear in `x` (`V_i(x) = slope_i · x`), so
    /// the phase at grid point `x_k = k·h` is the `k`-th power of the
    /// per-variable unit rotation `u_i = e^{-i·dt·slope_i·h}`. The kernel
    /// computes one `sin`/`cos` pair per *variable* and generates the grid
    /// dependence by a running complex power — `n` libm calls per application
    /// instead of `n · resolution`, and a pure multiply/add inner loop that
    /// runs unit-stride across variables. The recurrence accumulates O(res·ε)
    /// rounding relative to per-point `sin`/`cos`, far inside the 1e-12
    /// equivalence budget against the per-variable reference.
    ///
    /// # Panics
    ///
    /// Panics if `batch` does not match the grid, `slopes` does not match the
    /// batch, or `ws` is too small.
    pub fn apply_potential_phase_batch(
        &self,
        batch: &mut WaveBatch,
        slopes: &[f64],
        dt: f64,
        ws: &mut MeanFieldWorkspace,
    ) {
        self.prepare_potential_phase_batch(batch, slopes, dt, ws);
        self.apply_prepared_potential_phase_batch(batch, ws);
    }

    /// Computes the per-variable unit rotations `u_i = e^{-i·dt·slopes[i]·h}`
    /// of the batched potential phase into `ws` — the only `sin`/`cos` work of
    /// the phase. The two half phases of a Strang-split step share the same
    /// slopes and `dt`, so callers prepare once and
    /// [apply](Grid::apply_prepared_potential_phase_batch) twice.
    ///
    /// # Panics
    ///
    /// Panics if `batch` does not match the grid, `slopes` does not match the
    /// batch, or `ws` is too small.
    pub fn prepare_potential_phase_batch(
        &self,
        batch: &WaveBatch,
        slopes: &[f64],
        dt: f64,
        ws: &mut MeanFieldWorkspace,
    ) {
        assert_eq!(batch.resolution(), self.points.len(), "batch resolution must match grid");
        let n = batch.num_variables();
        assert_eq!(slopes.len(), n, "slopes length must match batch");
        assert!(ws.fits(batch), "workspace too small for batch");
        let h = self.spacing;
        for (i, &slope) in slopes.iter().enumerate() {
            let (sin, cos) = (-dt * slope * h).sin_cos();
            ws.u_re[i] = cos;
            ws.u_im[i] = sin;
        }
    }

    /// Applies the batched potential phase from rotations previously computed
    /// by [`Grid::prepare_potential_phase_batch`] — pure multiply/add, no
    /// `sin`/`cos`.
    ///
    /// # Panics
    ///
    /// Panics if `batch` does not match the grid or `ws` is too small.
    pub fn apply_prepared_potential_phase_batch(
        &self,
        batch: &mut WaveBatch,
        ws: &mut MeanFieldWorkspace,
    ) {
        let res = self.points.len();
        assert_eq!(batch.resolution(), res, "batch resolution must match grid");
        assert!(ws.fits(batch), "workspace too small for batch");
        let n = batch.num_variables();
        if n == 0 {
            return;
        }
        let (re, im) = batch.planes_mut();
        kernels::apply_prepared_phase(
            re,
            im,
            &ws.u_re[..n],
            &ws.u_im[..n],
            &mut ws.cur_re[..n],
            &mut ws.cur_im[..n],
            n,
            res,
        );
    }

    /// Fused trailing half-phase + expectation refresh: applies the prepared
    /// potential phase (like [`Grid::apply_prepared_potential_phase_batch`])
    /// and accumulates `⟨x⟩` of every wavefunction into `out` in the *same*
    /// traversal — one read pass over both planes per step instead of two.
    ///
    /// Bit-identical to calling the two kernels separately: the probability
    /// of each row is taken from the exact post-rotation amplitudes and the
    /// reduction keeps its ascending grid order (row 0, whose phase is
    /// exactly 1, is accumulated unrotated — precisely what the separate pass
    /// reads back).
    ///
    /// # Panics
    ///
    /// Panics if `batch` does not match the grid, `out` does not match the
    /// batch, or `ws` is too small.
    pub fn apply_prepared_phase_expectation_batch(
        &self,
        batch: &mut WaveBatch,
        out: &mut [f64],
        ws: &mut MeanFieldWorkspace,
    ) {
        let res = self.points.len();
        assert_eq!(batch.resolution(), res, "batch resolution must match grid");
        assert!(ws.fits(batch), "workspace too small for batch");
        let n = batch.num_variables();
        assert_eq!(out.len(), n, "output length must match batch");
        if n == 0 {
            return;
        }
        {
            let (re, im) = batch.planes_mut();
            kernels::apply_prepared_phase_expectation(
                re,
                im,
                &ws.u_re[..n],
                &ws.u_im[..n],
                &mut ws.cur_re[..n],
                &mut ws.cur_im[..n],
                &self.points,
                &mut ws.num[..n],
                &mut ws.den[..n],
                n,
            );
        }
        for (o, (&nm, &dn)) in out.iter_mut().zip(ws.num[..n].iter().zip(&ws.den[..n])) {
            *o = if dn > 0.0 { nm / dn } else { 0.5 };
        }
    }

    /// Batched Crank–Nicolson kinetic step: advances every wavefunction of
    /// `batch` by the tridiagonal solve `A ψ⁺ = B ψ` using the shared per-step
    /// factorization `factors` (see [`ThomasFactors`]).
    ///
    /// The right-hand side `B ψ` is fused into the Thomas forward sweep (no
    /// rhs buffer), the intermediate `d′` planes live in `ws`, and every inner
    /// loop runs unit-stride across variables — zero heap allocations.
    ///
    /// # Panics
    ///
    /// Panics if `batch` or `factors` do not match the grid, or `ws` is too
    /// small.
    pub fn kinetic_step_batch(
        &self,
        batch: &mut WaveBatch,
        factors: &ThomasFactors,
        ws: &mut MeanFieldWorkspace,
    ) {
        let res = self.points.len();
        assert_eq!(batch.resolution(), res, "batch resolution must match grid");
        assert_eq!(factors.resolution(), res, "factorization must match grid");
        assert!(ws.fits(batch), "workspace too small for batch");
        let n = batch.num_variables();
        if n == 0 {
            return;
        }
        // See kernels::scalar::thomas_sweep for the specialised
        // fixed-structure arithmetic (the diagonals are 1 ± i·d and the
        // off-diagonals ±i·a with real d, a, so the rhs is fused into the
        // forward sweep with ~40 % fewer multiplications than
        // general-coefficient products).
        let (re, im) = batch.planes_mut();
        kernels::thomas_sweep(re, im, &mut ws.d_re[..res * n], &mut ws.d_im[..res * n], factors, n);
    }

    /// Batched expectation values: writes `⟨x⟩` of every wavefunction in
    /// `batch` into `out` (0.5 for zero states). The reduction accumulates in
    /// ascending grid order per variable — the same summation order as the
    /// per-variable [`Grid::expectation_position`].
    ///
    /// # Panics
    ///
    /// Panics if `batch` does not match the grid, `out` does not match the
    /// batch, or `ws` is too small.
    pub fn expectation_position_batch(
        &self,
        batch: &WaveBatch,
        out: &mut [f64],
        ws: &mut MeanFieldWorkspace,
    ) {
        let n = batch.num_variables();
        assert_eq!(batch.resolution(), self.points.len(), "batch resolution must match grid");
        assert_eq!(out.len(), n, "output length must match batch");
        assert!(ws.fits(batch), "workspace too small for batch");
        if n == 0 {
            return;
        }
        kernels::expectation_rows(
            batch.re(),
            batch.im(),
            &self.points,
            &mut ws.num[..n],
            &mut ws.den[..n],
            n,
        );
        for (o, (&nm, &dn)) in out.iter_mut().zip(ws.num[..n].iter().zip(&ws.den[..n])) {
            *o = if dn > 0.0 { nm / dn } else { 0.5 };
        }
    }

    /// Batched upper-half probability mass: writes `P(x > ½)` of every
    /// wavefunction in `batch` into `out` (0.5 for zero states). Same
    /// summation order as the per-variable [`Grid::probability_upper_half`].
    ///
    /// # Panics
    ///
    /// Panics if `batch` does not match the grid, `out` does not match the
    /// batch, or `ws` is too small.
    pub fn probability_upper_half_batch(
        &self,
        batch: &WaveBatch,
        out: &mut [f64],
        ws: &mut MeanFieldWorkspace,
    ) {
        let n = batch.num_variables();
        assert_eq!(batch.resolution(), self.points.len(), "batch resolution must match grid");
        assert_eq!(out.len(), n, "output length must match batch");
        assert!(ws.fits(batch), "workspace too small for batch");
        if n == 0 {
            return;
        }
        kernels::probability_rows(
            batch.re(),
            batch.im(),
            &self.points,
            &mut ws.num[..n],
            &mut ws.den[..n],
            n,
        );
        for (o, (&nm, &dn)) in out.iter_mut().zip(ws.num[..n].iter().zip(&ws.den[..n])) {
            *o = if dn > 0.0 { nm / dn } else { 0.5 };
        }
    }

    /// Probability mass on the upper half of the interval, `P(x > ½)`, used to
    /// sample a binary value from the wavefunction. Returns 0.5 for the zero
    /// state. The `n = 1` form of [`Grid::probability_upper_half_batch`]
    /// (same scalar reduction, same summation order).
    ///
    /// # Panics
    ///
    /// Panics if `psi` has a different length than the grid.
    pub fn probability_upper_half(&self, psi: &[Complex]) -> f64 {
        assert_eq!(psi.len(), self.points.len(), "state length must match grid");
        let (re, im) = split_planes(psi);
        let (mut upper, mut total) = ([0.0], [0.0]);
        kernels::scalar::probability_rows(&re, &im, &self.points, &mut upper, &mut total, 1, 0, 1);
        if total[0] > 0.0 {
            upper[0] / total[0]
        } else {
            0.5
        }
    }
}

/// Splits an AoS wavefunction into separate re/im planes for the split-plane
/// kernels (the `n = 1` wrappers above).
fn split_planes(psi: &[Complex]) -> (Vec<f64>, Vec<f64>) {
    (psi.iter().map(|z| z.re).collect(), psi.iter().map(|z| z.im).collect())
}

/// Gathers split re/im planes back into an AoS wavefunction.
fn merge_planes(psi: &mut [Complex], re: &[f64], im: &[f64]) {
    for ((z, &r), &i) in psi.iter_mut().zip(re).zip(im) {
        *z = Complex::new(r, i);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::norm_sqr;

    #[test]
    fn grid_construction_and_validation() {
        assert!(Grid::new(3).is_err());
        let g = Grid::new(9).unwrap();
        assert_eq!(g.resolution(), 9);
        assert_eq!(g.points()[0], 0.0);
        assert!((g.points()[8] - 1.0).abs() < 1e-12);
        assert!((g.spacing() - 0.125).abs() < 1e-12);
    }

    #[test]
    fn uniform_and_gaussian_states_are_normalised() {
        let g = Grid::new(32).unwrap();
        assert!((norm_sqr(&g.uniform_state()) - 1.0).abs() < 1e-12);
        assert!((norm_sqr(&g.gaussian_state(0.3, 0.1)) - 1.0).abs() < 1e-12);
        // A narrow packet at 0.8 has ⟨x⟩ near 0.8 and mostly upper-half mass.
        let psi = g.gaussian_state(0.8, 0.05);
        assert!((g.expectation_position(&psi) - 0.8).abs() < 0.05);
        assert!(g.probability_upper_half(&psi) > 0.95);
    }

    #[test]
    fn batched_gaussian_init_is_bit_identical_to_per_variable() {
        let g = Grid::new(24).unwrap();
        // Mixed parameters, including a sub-clamp width (exercises the 1e-6
        // floor) and a far-off-grid center (exp underflow territory).
        let centers = [0.25, 0.5, 0.74, 0.1, 0.9, 0.5];
        let widths = [0.15, 0.34, 0.2, 1e-9, 0.25, 0.3];
        let mut batch = WaveBatch::zeros(centers.len(), 24);
        // Poison the planes first so the fill must overwrite every slot.
        batch.set_variable(1, &vec![Complex::new(3.0, -4.0); 24]);
        g.gaussian_state_batch(&mut batch, &centers, &widths);
        for (i, (&c, &w)) in centers.iter().zip(&widths).enumerate() {
            assert_eq!(batch.variable(i), g.gaussian_state(c, w), "variable {i} diverged");
        }
    }

    #[test]
    fn kinetic_step_preserves_norm() {
        let g = Grid::new(64).unwrap();
        let mut psi = g.gaussian_state(0.5, 0.1);
        for _ in 0..50 {
            g.kinetic_step(&mut psi, 1.0, 0.01);
        }
        assert!((norm_sqr(&psi) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn potential_phase_preserves_probability_density() {
        let g = Grid::new(16).unwrap();
        let mut psi = g.gaussian_state(0.4, 0.2);
        let before: Vec<f64> = psi.iter().map(|z| z.norm_sqr()).collect();
        g.apply_linear_potential_phase(&mut psi, 3.0, 0.3);
        let after: Vec<f64> = psi.iter().map(|z| z.norm_sqr()).collect();
        for (b, a) in before.iter().zip(&after) {
            assert!((b - a).abs() < 1e-12);
        }
    }

    #[test]
    fn wave_packet_spreads_under_kinetic_evolution() {
        let g = Grid::new(64).unwrap();
        let mut psi = g.gaussian_state(0.5, 0.05);
        let spread = |psi: &[Complex]| -> f64 {
            let mean = g.expectation_position(psi);
            psi.iter().zip(g.points()).map(|(z, &x)| z.norm_sqr() * (x - mean).powi(2)).sum::<f64>()
        };
        let before = spread(&psi);
        for _ in 0..30 {
            g.kinetic_step(&mut psi, 1.0, 0.005);
        }
        assert!(spread(&psi) > before, "kinetic evolution should spread the packet");
    }

    #[test]
    fn zero_state_measurements_are_neutral() {
        let g = Grid::new(8).unwrap();
        let zero = vec![Complex::ZERO; 8];
        assert_eq!(g.expectation_position(&zero), 0.5);
        assert_eq!(g.probability_upper_half(&zero), 0.5);
    }

    #[test]
    #[should_panic(expected = "must match grid")]
    fn mismatched_state_length_panics() {
        let g = Grid::new(8).unwrap();
        let mut psi = vec![Complex::ONE; 4];
        g.kinetic_step(&mut psi, 1.0, 0.01);
    }

    /// A small batch of distinct wave packets plus its AoS twin.
    fn packet_batch(g: &Grid, n: usize) -> (WaveBatch, Vec<Vec<Complex>>) {
        let mut batch = WaveBatch::zeros(n, g.resolution());
        let mut aos = Vec::with_capacity(n);
        for i in 0..n {
            let center = 0.2 + 0.6 * i as f64 / n as f64;
            let width = 0.05 + 0.02 * i as f64;
            let psi = g.gaussian_state(center, width);
            batch.set_variable(i, &psi);
            aos.push(psi);
        }
        (batch, aos)
    }

    fn max_divergence(batch: &WaveBatch, aos: &[Vec<Complex>]) -> f64 {
        let mut worst = 0.0f64;
        for (i, psi) in aos.iter().enumerate() {
            for (z_batch, z_ref) in batch.variable(i).iter().zip(psi) {
                worst = worst.max((z_batch.re - z_ref.re).abs());
                worst = worst.max((z_batch.im - z_ref.im).abs());
            }
        }
        worst
    }

    /// Verbatim copy of the seed's general-coefficient, division-based Thomas
    /// kinetic step — the naive per-point formulation the engine's
    /// reciprocal-pivot fused-rhs sweep reassociated away from. Kept local so
    /// the 1e-12 pin below stays independent of the production kernels.
    fn naive_kinetic_step(g: &Grid, psi: &mut [Complex], coefficient: f64, dt: f64) {
        let n = g.resolution();
        let h2 = g.spacing() * g.spacing();
        let diag = coefficient / h2;
        let off = -coefficient / (2.0 * h2);
        let half = Complex::new(0.0, dt / 2.0);
        let a_diag = Complex::ONE + half.scale(diag);
        let a_off = half.scale(off);
        let b_diag = Complex::ONE - half.scale(diag);
        let b_off = -half.scale(off);
        let mut rhs = vec![Complex::ZERO; n];
        for i in 0..n {
            let mut v = b_diag * psi[i];
            if i > 0 {
                v += b_off * psi[i - 1];
            }
            if i + 1 < n {
                v += b_off * psi[i + 1];
            }
            rhs[i] = v;
        }
        let mut c_prime = vec![Complex::ZERO; n];
        let mut d_prime = vec![Complex::ZERO; n];
        c_prime[0] = a_off / a_diag;
        d_prime[0] = rhs[0] / a_diag;
        for i in 1..n {
            let denom = a_diag - a_off * c_prime[i - 1];
            c_prime[i] = a_off / denom;
            d_prime[i] = (rhs[i] - a_off * d_prime[i - 1]) / denom;
        }
        psi[n - 1] = d_prime[n - 1];
        for i in (0..n - 1).rev() {
            psi[i] = d_prime[i] - c_prime[i] * psi[i + 1];
        }
    }

    #[test]
    fn kinetic_step_batch_matches_naive_division_thomas() {
        // Pins the documented reassociations of the production sweep — the
        // precomputed reciprocal pivots and the rhs fused into the forward
        // sweep — against the naive division-based elimination at 1e-12.
        let g = Grid::new(32).unwrap();
        let (mut batch, mut aos) = packet_batch(&g, 7);
        let mut ws = MeanFieldWorkspace::for_batch(&batch);
        let mut factors = ThomasFactors::new();
        for step in 0..40 {
            let coeff = 1.0 + 0.05 * step as f64;
            factors.factor(&g, coeff, 0.01);
            g.kinetic_step_batch(&mut batch, &factors, &mut ws);
            for psi in &mut aos {
                naive_kinetic_step(&g, psi, coeff, 0.01);
            }
        }
        assert!(
            max_divergence(&batch, &aos) < 1e-12,
            "divergence {}",
            max_divergence(&batch, &aos)
        );
        for i in 0..7 {
            assert!((batch.norm_sqr(i) - 1.0).abs() < 1e-9, "norm drift on variable {i}");
        }
    }

    #[test]
    fn kinetic_step_is_bit_identical_to_the_batched_kernel() {
        // The per-variable wrapper IS the batched scalar kernel at n = 1.
        let g = Grid::new(32).unwrap();
        let (mut batch, mut aos) = packet_batch(&g, 3);
        let mut ws = MeanFieldWorkspace::for_batch(&batch);
        let mut factors = ThomasFactors::new();
        factors.factor(&g, 1.25, 0.01);
        g.kinetic_step_batch(&mut batch, &factors, &mut ws);
        for (i, psi) in aos.iter_mut().enumerate() {
            g.kinetic_step(psi, 1.25, 0.01);
            assert_eq!(&batch.variable(i), psi, "variable {i}");
        }
    }

    #[test]
    fn potential_phase_batch_matches_per_point_sin_cos() {
        // Pins the documented O(res·ε) reassociation of the rotation
        // recurrence against the naive per-point sin/cos phase at 1e-12.
        let g = Grid::new(48).unwrap();
        let (mut batch, mut aos) = packet_batch(&g, 5);
        let mut ws = MeanFieldWorkspace::for_batch(&batch);
        let slopes = [0.0, -1.3, 2.5, 0.7, -4.0];
        for _ in 0..20 {
            g.apply_potential_phase_batch(&mut batch, &slopes, 0.05, &mut ws);
            for (psi, &slope) in aos.iter_mut().zip(&slopes) {
                for (z, &x) in psi.iter_mut().zip(g.points()) {
                    *z = *z * Complex::from_polar_unit(-0.05 * slope * x);
                }
            }
        }
        assert!(
            max_divergence(&batch, &aos) < 1e-12,
            "divergence {}",
            max_divergence(&batch, &aos)
        );
    }

    #[test]
    fn fused_phase_expectation_is_bit_identical_to_separate_kernels() {
        let g = Grid::new(33).unwrap();
        let (mut fused, _) = packet_batch(&g, 6);
        let mut separate = fused.clone();
        let mut ws_f = MeanFieldWorkspace::for_batch(&fused);
        let mut ws_s = MeanFieldWorkspace::for_batch(&separate);
        let slopes = [0.4, -1.1, 2.2, 0.0, -3.3, 0.9];
        let mut out_f = vec![0.0; 6];
        let mut out_s = vec![0.0; 6];
        for _ in 0..10 {
            g.prepare_potential_phase_batch(&fused, &slopes, 0.05, &mut ws_f);
            g.apply_prepared_phase_expectation_batch(&mut fused, &mut out_f, &mut ws_f);
            g.prepare_potential_phase_batch(&separate, &slopes, 0.05, &mut ws_s);
            g.apply_prepared_potential_phase_batch(&mut separate, &mut ws_s);
            g.expectation_position_batch(&separate, &mut out_s, &mut ws_s);
            assert_eq!(fused, separate, "planes diverged");
            for i in 0..6 {
                assert_eq!(out_f[i].to_bits(), out_s[i].to_bits(), "expectation {i}");
            }
        }
        // Zero states report the neutral 0.5 through the fused path too.
        let mut zero = WaveBatch::zeros(2, 33);
        let mut ws_z = MeanFieldWorkspace::for_batch(&zero);
        let mut out_z = vec![0.0; 2];
        g.prepare_potential_phase_batch(&zero, &[1.0, -1.0], 0.05, &mut ws_z);
        g.apply_prepared_phase_expectation_batch(&mut zero, &mut out_z, &mut ws_z);
        assert_eq!(out_z, vec![0.5, 0.5]);
    }

    #[test]
    fn batched_reductions_match_per_variable_reference() {
        let g = Grid::new(24).unwrap();
        let (batch, aos) = packet_batch(&g, 6);
        let mut ws = MeanFieldWorkspace::for_batch(&batch);
        let mut expectations = vec![0.0; 6];
        let mut probabilities = vec![0.0; 6];
        g.expectation_position_batch(&batch, &mut expectations, &mut ws);
        g.probability_upper_half_batch(&batch, &mut probabilities, &mut ws);
        for (i, psi) in aos.iter().enumerate() {
            // Same summation order ⇒ bit-identical reductions.
            assert_eq!(expectations[i].to_bits(), g.expectation_position(psi).to_bits());
            assert_eq!(probabilities[i].to_bits(), g.probability_upper_half(psi).to_bits());
        }
        // Zero states report the neutral 0.5 like the per-variable kernels.
        let zero = WaveBatch::zeros(2, 24);
        let mut out = vec![0.0; 2];
        g.expectation_position_batch(&zero, &mut out, &mut MeanFieldWorkspace::for_batch(&zero));
        assert_eq!(out, vec![0.5, 0.5]);
        g.probability_upper_half_batch(&zero, &mut out, &mut MeanFieldWorkspace::for_batch(&zero));
        assert_eq!(out, vec![0.5, 0.5]);
    }

    #[test]
    fn thomas_factors_are_reused_across_resolutions() {
        let g32 = Grid::new(32).unwrap();
        let g16 = Grid::new(16).unwrap();
        let mut factors = ThomasFactors::new();
        assert_eq!(factors.resolution(), 0);
        factors.factor(&g32, 1.0, 0.01);
        assert_eq!(factors.resolution(), 32);
        factors.factor(&g16, 0.5, 0.02);
        assert_eq!(factors.resolution(), 16);
        // A fresh factorization with the same parameters is identical.
        let mut fresh = ThomasFactors::new();
        fresh.factor(&g16, 0.5, 0.02);
        assert_eq!(factors.c_re, fresh.c_re);
        assert_eq!(factors.inv_re, fresh.inv_re);
    }

    #[test]
    #[should_panic(expected = "factorization must match grid")]
    fn stale_factorization_is_rejected() {
        let g = Grid::new(16).unwrap();
        let mut batch = WaveBatch::zeros(2, 16);
        let mut ws = MeanFieldWorkspace::for_batch(&batch);
        let mut factors = ThomasFactors::new();
        factors.factor(&Grid::new(8).unwrap(), 1.0, 0.01);
        g.kinetic_step_batch(&mut batch, &factors, &mut ws);
    }
}
