//! Compute kernels of the batched mean-field engine.
//!
//! Every batched kernel of [`crate::grid`] funnels through this module, and
//! each has one source: the safe kernels in `scalar`. On `x86_64` CPUs with
//! AVX2, the three per-step kernels ([`apply_prepared_phase`],
//! [`apply_prepared_phase_expectation`] and [`thomas_sweep`]) run the same
//! kernels compiled a second time, inside `#[target_feature(enable =
//! "avx2")]` functions, where the compiler vectorises them four variables per
//! instruction. Both builds give the same bits:
//!
//! * every kernel is column-independent: the recurrences (the potential-phase
//!   rotation and the Thomas sweep) couple *grid rows*, never variables, so a
//!   vector lane owns one variable and performs the exact per-variable
//!   arithmetic sequence of the loop as written;
//! * the AVX2 build enables `avx2` alone, not `fma`: Rust never contracts
//!   `a*b + c` into a fused multiply-add, and without the feature the
//!   compiler has no fused instruction to choose, so every product is rounded
//!   on its own, as in the plain build;
//! * the reductions keep their ascending-grid-row per-variable summation
//!   order, so no tolerance is needed anywhere — see the unit tests below and
//!   `tests/solver_equivalence.rs`.
//!
//! Each call picks its build with `is_x86_feature_detected!("avx2")`, which
//! the standard library caches after the first call. Nothing else chooses:
//! both builds produce the same bits, so the CPU decides only *how fast* a
//! kernel runs, never *what* it computes. The reductions that run once per
//! trajectory (`⟨x⟩` of the initial packets, `P(x > ½)` of the final state)
//! have only their plain build, `scalar::expectation_rows` and
//! `scalar::probability_rows`.

use crate::grid::ThomasFactors;

/// Batched potential-phase rotation recurrence (see
/// [`crate::grid::Grid::apply_prepared_potential_phase_batch`] for the maths).
#[allow(clippy::too_many_arguments)]
pub(crate) fn apply_prepared_phase(
    re: &mut [f64],
    im: &mut [f64],
    u_re: &[f64],
    u_im: &[f64],
    cur_re: &mut [f64],
    cur_im: &mut [f64],
    n: usize,
    res: usize,
) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: the test above detected AVX2 on this CPU.
        #[allow(unsafe_code)]
        return unsafe { avx2::apply_prepared_phase(re, im, u_re, u_im, cur_re, cur_im, n, res) };
    }
    scalar::apply_prepared_phase(re, im, u_re, u_im, cur_re, cur_im, n, res);
}

/// Fused trailing half-phase + expectation reduction: rotates every row like
/// [`apply_prepared_phase`] and accumulates `Σ|ψ|²·x` / `Σ|ψ|²` into
/// `num`/`den` in the same pass — one read traversal over both planes instead
/// of two per step. Bit-identical to apply-then-reduce because the per-row
/// probability is computed from the exact post-rotation values and the
/// accumulation stays in ascending grid order.
#[allow(clippy::too_many_arguments)]
pub(crate) fn apply_prepared_phase_expectation(
    re: &mut [f64],
    im: &mut [f64],
    u_re: &[f64],
    u_im: &[f64],
    cur_re: &mut [f64],
    cur_im: &mut [f64],
    points: &[f64],
    num: &mut [f64],
    den: &mut [f64],
    n: usize,
) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: the test above detected AVX2 on this CPU.
        #[allow(unsafe_code)]
        return unsafe {
            avx2::apply_prepared_phase_expectation(
                re, im, u_re, u_im, cur_re, cur_im, points, num, den, n,
            )
        };
    }
    scalar::apply_prepared_phase_expectation(
        re, im, u_re, u_im, cur_re, cur_im, points, num, den, n,
    );
}

/// Batched Crank–Nicolson tridiagonal solve (fused rhs + Thomas forward sweep
/// + back substitution); see [`crate::grid::Grid::kinetic_step_batch`].
pub(crate) fn thomas_sweep(
    re: &mut [f64],
    im: &mut [f64],
    d_re: &mut [f64],
    d_im: &mut [f64],
    factors: &ThomasFactors,
    n: usize,
) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: the test above detected AVX2 on this CPU.
        #[allow(unsafe_code)]
        return unsafe { avx2::thomas_sweep(re, im, d_re, d_im, factors, n) };
    }
    scalar::thomas_sweep(re, im, d_re, d_im, factors, n);
}

pub(crate) mod scalar {
    //! The kernels, the one source of their arithmetic.
    //!
    //! The three per-step kernels are `#[inline(always)]`, so each caller
    //! compiles its own copy: the dispatchers above for every CPU, the AVX2
    //! functions below with AVX2 enabled. Their loop schedules are the ones
    //! measured fastest with AVX2, and every CPU runs them: the phase
    //! rotation streams whole grid rows, the Thomas solve works on
    //! [`THOMAS_TILE`]-column tiles, and the fused phase + expectation kernel
    //! walks blocks of [`BLOCK`] columns down the grid. The single-wavefunction
    //! kernels in [`crate::grid`] are these same functions at `n = 1`.

    use crate::complex::cmul_parts;
    use crate::grid::ThomasFactors;

    /// Columns per block of [`apply_prepared_phase_expectation`]: one AVX2
    /// vector of `f64`.
    const BLOCK: usize = 4;

    /// Columns per cache tile of [`thomas_sweep`]. The forward sweep writes
    /// the whole `d′` plane and the backward sweep reads it again; untiled,
    /// that plane (`res·n·16` bytes — megabytes at production batch widths)
    /// is evicted in between and every solve pays its DRAM traffic twice.
    /// A 256-column tile keeps the tile's `ψ`/`d′` working set
    /// (`res·256·32` bytes ≈ 0.5 MB at `res = 64`) inside L2 across both
    /// sweeps.
    const THOMAS_TILE: usize = 256;

    /// Potential-phase rotation recurrence: row `k` is multiplied by the
    /// running per-variable power `u_i^k` (row 0 sits at `x = 0` where the
    /// phase is exactly 1). Rows are walked whole and unit-stride, with the
    /// running powers carried in the `cur` planes from row to row: the
    /// sequential pattern the hardware prefetcher follows. (A
    /// column-block-outer order strides `n·8` bytes between consecutive
    /// accesses and measured slower.)
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    pub(crate) fn apply_prepared_phase(
        re: &mut [f64],
        im: &mut [f64],
        u_re: &[f64],
        u_im: &[f64],
        cur_re: &mut [f64],
        cur_im: &mut [f64],
        n: usize,
        res: usize,
    ) {
        let (u_re, u_im) = (&u_re[..n], &u_im[..n]);
        let (cur_re, cur_im) = (&mut cur_re[..n], &mut cur_im[..n]);
        // Start the running power at u so row 1 is the first one rotated.
        cur_re.copy_from_slice(u_re);
        cur_im.copy_from_slice(u_im);
        for k in 1..res {
            let row_re = &mut re[k * n..][..n];
            let row_im = &mut im[k * n..][..n];
            for i in 0..n {
                let (cr, ci) = (cur_re[i], cur_im[i]);
                (row_re[i], row_im[i]) = cmul_parts(row_re[i], row_im[i], cr, ci);
                (cur_re[i], cur_im[i]) = cmul_parts(cr, ci, u_re[i], u_im[i]);
            }
        }
    }

    /// Fused trailing half-phase + expectation accumulation. Row 0 is only
    /// accumulated (its phase is exactly 1); every later row is rotated
    /// first and its probability read from the exact post-rotation values,
    /// so the accumulators match a separate [`expectation_rows`] pass
    /// bit-for-bit. Columns go in blocks of [`BLOCK`], the remainder one at
    /// a time, each walked down the whole grid with its accumulators and
    /// running phase powers in locals: the per-row read-modify-write of
    /// `num`, `den` and the `cur` planes becomes register work.
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    pub(crate) fn apply_prepared_phase_expectation(
        re: &mut [f64],
        im: &mut [f64],
        u_re: &[f64],
        u_im: &[f64],
        cur_re: &mut [f64],
        cur_im: &mut [f64],
        points: &[f64],
        num: &mut [f64],
        den: &mut [f64],
        n: usize,
    ) {
        let blocked = n - n % BLOCK;
        for i0 in (0..blocked).step_by(BLOCK) {
            phase_expectation_block::<BLOCK>(
                re, im, u_re, u_im, cur_re, cur_im, points, num, den, n, i0,
            );
        }
        for i0 in blocked..n {
            phase_expectation_block::<1>(
                re, im, u_re, u_im, cur_re, cur_im, points, num, den, n, i0,
            );
        }
    }

    /// [`apply_prepared_phase_expectation`] on the `W` columns from `i0`.
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    fn phase_expectation_block<const W: usize>(
        re: &mut [f64],
        im: &mut [f64],
        u_re: &[f64],
        u_im: &[f64],
        cur_re: &mut [f64],
        cur_im: &mut [f64],
        points: &[f64],
        num: &mut [f64],
        den: &mut [f64],
        n: usize,
        i0: usize,
    ) {
        let lanes = |plane: &[f64]| -> [f64; W] { std::array::from_fn(|l| plane[i0 + l]) };
        let (u_r, u_i) = (lanes(u_re), lanes(u_im));
        // Whole `n`-column rows: the block's range `i0..i0 + W` is then the
        // same in every row, a loop-invariant bounds check the compiler
        // makes once instead of once per row.
        let mut rows = re.chunks_exact_mut(n).zip(im.chunks_exact_mut(n)).zip(points);
        let Some(((row_re, row_im), &x0)) = rows.next() else {
            return;
        };
        let (z_r, z_i) = (lanes(row_re), lanes(row_im));
        let (mut acc_num, mut acc_den) = ([0.0; W], [0.0; W]);
        for l in 0..W {
            let p = z_r[l] * z_r[l] + z_i[l] * z_i[l];
            acc_num[l] += p * x0;
            acc_den[l] += p;
        }
        let (mut c_r, mut c_i) = (u_r, u_i);
        for ((row_re, row_im), &x) in rows {
            let (row_re, row_im) = (&mut row_re[i0..i0 + W], &mut row_im[i0..i0 + W]);
            for l in 0..W {
                let (pr, pi) = cmul_parts(row_re[l], row_im[l], c_r[l], c_i[l]);
                row_re[l] = pr;
                row_im[l] = pi;
                let p = pr * pr + pi * pi;
                acc_num[l] += p * x;
                acc_den[l] += p;
                (c_r[l], c_i[l]) = cmul_parts(c_r[l], c_i[l], u_r[l], u_i[l]);
            }
        }
        cur_re[i0..][..W].copy_from_slice(&c_r);
        cur_im[i0..][..W].copy_from_slice(&c_i);
        num[i0..][..W].copy_from_slice(&acc_num);
        den[i0..][..W].copy_from_slice(&acc_den);
    }

    /// Crank–Nicolson solve with the rhs fused into the Thomas forward sweep,
    /// run tile by tile over [`THOMAS_TILE`]-column tiles (columns never
    /// interact, so tiling only reorders identical per-column arithmetic).
    ///
    /// The coefficients have fixed structure: the diagonals are `1 ± i·d` and
    /// the off-diagonals `±i·a` with *real* `d`, `a` (see
    /// [`ThomasFactors::factor`]). Multiplying by a purely imaginary scalar
    /// is a swap-and-negate, so the specialised forms below do the same
    /// complex arithmetic with ~40 % fewer multiplications than the
    /// general-coefficient products:
    ///
    /// ```text
    /// b_diag·z          = (z.re + d·z.im,  z.im − d·z.re)
    /// b_off·s = −i·a·s  = (a·s.im,        −a·s.re)
    /// a_off·w =  i·a·w  = (−a·w.im,        a·w.re)
    /// ```
    ///
    /// At row `k` the original ψ rows `k−1`, `k`, `k+1` are still intact (ψ
    /// is only overwritten during the back substitution), so
    /// `rhs_k = b_diag·ψ_k + b_off·(ψ_{k−1} + ψ_{k+1})` is computed on the
    /// fly — no rhs buffer.
    #[inline(always)]
    pub(crate) fn thomas_sweep(
        re: &mut [f64],
        im: &mut [f64],
        d_re: &mut [f64],
        d_im: &mut [f64],
        factors: &ThomasFactors,
        n: usize,
    ) {
        for t0 in (0..n).step_by(THOMAS_TILE) {
            let width = THOMAS_TILE.min(n - t0);
            thomas_sweep_tile(re, im, d_re, d_im, factors, n, t0, width);
        }
    }

    /// [`thomas_sweep`] on the `w` columns from `i0`. Both sweeps stream
    /// whole tile rows unit-stride; the recurrence neighbours ψ_{k±1} and
    /// d′_{k−1} live one row away and are still cache-hot.
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    fn thomas_sweep_tile(
        re: &mut [f64],
        im: &mut [f64],
        d_re: &mut [f64],
        d_im: &mut [f64],
        factors: &ThomasFactors,
        n: usize,
        i0: usize,
        w: usize,
    ) {
        let res = factors.resolution();
        let (d, a) = (factors.d, factors.a);
        {
            // Row 0 (no ψ_{−1}).
            let (inv_r, inv_i) = (factors.inv_re[0], factors.inv_im[0]);
            let (cur_re, cur_im) = (&re[i0..][..w], &im[i0..][..w]);
            let (next_re, next_im) = (&re[n + i0..][..w], &im[n + i0..][..w]);
            let (dc_re, dc_im) = (&mut d_re[i0..][..w], &mut d_im[i0..][..w]);
            for i in 0..w {
                let (cr, ci) = (cur_re[i], cur_im[i]);
                let rr = cr + d * ci + a * next_im[i];
                let ri = ci - d * cr - a * next_re[i];
                (dc_re[i], dc_im[i]) = cmul_parts(rr, ri, inv_r, inv_i);
            }
        }
        for k in 1..res {
            let (inv_r, inv_i) = (factors.inv_re[k], factors.inv_im[k]);
            let prev_re = &re[(k - 1) * n + i0..][..w];
            let prev_im = &im[(k - 1) * n + i0..][..w];
            let cur_re = &re[k * n + i0..][..w];
            let cur_im = &im[k * n + i0..][..w];
            let (dh_re, dt_re) = d_re.split_at_mut(k * n);
            let (dh_im, dt_im) = d_im.split_at_mut(k * n);
            let dp_re = &dh_re[(k - 1) * n + i0..][..w];
            let dp_im = &dh_im[(k - 1) * n + i0..][..w];
            let dc_re = &mut dt_re[i0..][..w];
            let dc_im = &mut dt_im[i0..][..w];
            if k + 1 < res {
                let next_re = &re[(k + 1) * n + i0..][..w];
                let next_im = &im[(k + 1) * n + i0..][..w];
                for i in 0..w {
                    let sr = prev_re[i] + next_re[i];
                    let si = prev_im[i] + next_im[i];
                    // t = rhs − a_off·d′_{k−1} with rhs = b_diag·ψ_k + b_off·s.
                    let tr = cur_re[i] + d * cur_im[i] + a * si + a * dp_im[i];
                    let ti = cur_im[i] - d * cur_re[i] - a * sr - a * dp_re[i];
                    (dc_re[i], dc_im[i]) = cmul_parts(tr, ti, inv_r, inv_i);
                }
            } else {
                // Last row (no ψ_{res}).
                for i in 0..w {
                    let tr = cur_re[i] + d * cur_im[i] + a * prev_im[i] + a * dp_im[i];
                    let ti = cur_im[i] - d * cur_re[i] - a * prev_re[i] - a * dp_re[i];
                    (dc_re[i], dc_im[i]) = cmul_parts(tr, ti, inv_r, inv_i);
                }
            }
        }

        // Back substitution: ψ_{res−1} = d′_{res−1}, ψ_k = d′_k − c′_k ψ_{k+1}.
        let last = (res - 1) * n + i0;
        re[last..][..w].copy_from_slice(&d_re[last..][..w]);
        im[last..][..w].copy_from_slice(&d_im[last..][..w]);
        for k in (0..res - 1).rev() {
            let (c_r, c_i) = (factors.c_re[k], factors.c_im[k]);
            let dr = &d_re[k * n + i0..][..w];
            let di = &d_im[k * n + i0..][..w];
            let (head_re, tail_re) = re.split_at_mut((k + 1) * n);
            let (head_im, tail_im) = im.split_at_mut((k + 1) * n);
            let psi_re = &mut head_re[k * n + i0..][..w];
            let psi_im = &mut head_im[k * n + i0..][..w];
            let (next_re, next_im) = (&tail_re[i0..][..w], &tail_im[i0..][..w]);
            for i in 0..w {
                let (qr, qi) = cmul_parts(c_r, c_i, next_re[i], next_im[i]);
                psi_re[i] = dr[i] - qr;
                psi_im[i] = di[i] - qi;
            }
        }
    }

    /// `⟨x⟩` reduction accumulators, ascending grid order per variable.
    pub(crate) fn expectation_rows(
        re: &[f64],
        im: &[f64],
        points: &[f64],
        num: &mut [f64],
        den: &mut [f64],
        n: usize,
    ) {
        num[..n].fill(0.0);
        den[..n].fill(0.0);
        for (k, &x) in points.iter().enumerate() {
            let row_re = &re[k * n..(k + 1) * n];
            let row_im = &im[k * n..(k + 1) * n];
            for i in 0..n {
                let p = row_re[i] * row_re[i] + row_im[i] * row_im[i];
                num[i] += p * x;
                den[i] += p;
            }
        }
    }

    /// Upper-half probability mass accumulators, ascending grid order per
    /// variable.
    pub(crate) fn probability_rows(
        re: &[f64],
        im: &[f64],
        points: &[f64],
        upper: &mut [f64],
        total: &mut [f64],
        n: usize,
    ) {
        upper[..n].fill(0.0);
        total[..n].fill(0.0);
        for (k, &x) in points.iter().enumerate() {
            let row_re = &re[k * n..(k + 1) * n];
            let row_im = &im[k * n..(k + 1) * n];
            if x > 0.5 {
                for i in 0..n {
                    let p = row_re[i] * row_re[i] + row_im[i] * row_im[i];
                    total[i] += p;
                    upper[i] += p;
                }
            } else {
                for i in 0..n {
                    total[i] += row_re[i] * row_re[i] + row_im[i] * row_im[i];
                }
            }
        }
    }
}

/// The three per-step kernels compiled with AVX2 enabled: each is the
/// `scalar` kernel, inlined here. Calling one is `unsafe` only because the
/// caller must have detected AVX2 on the running CPU, as the dispatchers
/// above do on every call.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::scalar;
    use crate::grid::ThomasFactors;

    #[target_feature(enable = "avx2")]
    #[allow(clippy::too_many_arguments)]
    pub(super) fn apply_prepared_phase(
        re: &mut [f64],
        im: &mut [f64],
        u_re: &[f64],
        u_im: &[f64],
        cur_re: &mut [f64],
        cur_im: &mut [f64],
        n: usize,
        res: usize,
    ) {
        scalar::apply_prepared_phase(re, im, u_re, u_im, cur_re, cur_im, n, res);
    }

    #[target_feature(enable = "avx2")]
    #[allow(clippy::too_many_arguments)]
    pub(super) fn apply_prepared_phase_expectation(
        re: &mut [f64],
        im: &mut [f64],
        u_re: &[f64],
        u_im: &[f64],
        cur_re: &mut [f64],
        cur_im: &mut [f64],
        points: &[f64],
        num: &mut [f64],
        den: &mut [f64],
        n: usize,
    ) {
        scalar::apply_prepared_phase_expectation(
            re, im, u_re, u_im, cur_re, cur_im, points, num, den, n,
        );
    }

    #[target_feature(enable = "avx2")]
    pub(super) fn thomas_sweep(
        re: &mut [f64],
        im: &mut [f64],
        d_re: &mut [f64],
        d_im: &mut [f64],
        factors: &ThomasFactors,
        n: usize,
    ) {
        scalar::thomas_sweep(re, im, d_re, d_im, factors, n);
    }
}

/// The AVX2 build against the plain build on identical inputs. The
/// contract is `to_bits()` equality, not an epsilon. The tests need an AVX2
/// CPU; on one without, they print a note and check nothing.
#[cfg(all(test, target_arch = "x86_64"))]
#[allow(unsafe_code)]
mod tests {
    use super::{avx2, scalar};
    use crate::batch::{MeanFieldWorkspace, WaveBatch};
    use crate::grid::{Grid, ThomasFactors};

    const DT: f64 = 0.1;

    fn avx2_detected() -> bool {
        let detected = std::arch::is_x86_feature_detected!("avx2");
        if !detected {
            eprintln!("this CPU has no AVX2, so the AVX2 kernels are not checked here");
        }
        detected
    }

    // The kernels below run the AVX2 build when `avx2` is set and the plain
    // build otherwise. Callers set `avx2` only after `avx2_detected()`.

    fn phase(batch: &mut WaveBatch, w: &mut MeanFieldWorkspace, avx2: bool) {
        let (n, res) = (batch.num_variables(), batch.resolution());
        let (re, im) = batch.planes_mut();
        let (ur, ui, cr, ci) = (&w.u_re, &w.u_im, &mut w.cur_re, &mut w.cur_im);
        if avx2 {
            // SAFETY: AVX2 was detected (see above).
            unsafe { avx2::apply_prepared_phase(re, im, ur, ui, cr, ci, n, res) }
        } else {
            scalar::apply_prepared_phase(re, im, ur, ui, cr, ci, n, res);
        }
    }

    fn kinetic(batch: &mut WaveBatch, w: &mut MeanFieldWorkspace, f: &ThomasFactors, avx2: bool) {
        let n = batch.num_variables();
        let (re, im) = batch.planes_mut();
        if avx2 {
            // SAFETY: AVX2 was detected (see above).
            unsafe { avx2::thomas_sweep(re, im, &mut w.d_re, &mut w.d_im, f, n) }
        } else {
            scalar::thomas_sweep(re, im, &mut w.d_re, &mut w.d_im, f, n);
        }
    }

    fn fused(batch: &mut WaveBatch, w: &mut MeanFieldWorkspace, x: &[f64], avx2: bool) {
        let n = batch.num_variables();
        let (re, im) = batch.planes_mut();
        let (ur, ui, cr, ci) = (&w.u_re, &w.u_im, &mut w.cur_re, &mut w.cur_im);
        let (num, den) = (&mut w.num, &mut w.den);
        if avx2 {
            // SAFETY: AVX2 was detected (see above).
            unsafe {
                avx2::apply_prepared_phase_expectation(re, im, ur, ui, cr, ci, x, num, den, n)
            }
        } else {
            scalar::apply_prepared_phase_expectation(re, im, ur, ui, cr, ci, x, num, den, n);
        }
    }

    /// Normalised Gaussian packets with per-column centres and widths.
    fn packets(grid: &Grid, n: usize) -> WaveBatch {
        let centers: Vec<f64> =
            (0..n).map(|i| 0.15 + 0.7 * ((i * 37) % 101) as f64 / 101.0).collect();
        let widths: Vec<f64> = (0..n).map(|i| 0.08 + 0.04 * (i % 5) as f64).collect();
        let mut batch = WaveBatch::zeros(n, grid.resolution());
        grid.gaussian_state_batch(&mut batch, &centers, &widths);
        batch
    }

    /// Potential slopes of `n` columns for each of `steps` steps.
    fn slopes(n: usize, steps: usize) -> Vec<Vec<f64>> {
        (0..steps)
            .map(|step| {
                let phase = (0.3 + step as f64 * 0.37).sin();
                (0..n).map(|i| phase * (0.2 + i as f64 / n as f64)).collect()
            })
            .collect()
    }

    /// One Strang step per entry of `slopes` (half phase, Thomas solve, fused
    /// half phase and expectation) on the build `avx2` picks. Returns the
    /// planes and the workspace holding the last step's `num`/`den`.
    fn strang(
        grid: &Grid,
        mut batch: WaveBatch,
        slopes: &[Vec<f64>],
        avx2: bool,
    ) -> (WaveBatch, MeanFieldWorkspace) {
        let mut ws = MeanFieldWorkspace::for_batch(&batch);
        let mut factors = ThomasFactors::new();
        for (step, step_slopes) in slopes.iter().enumerate() {
            factors.factor(grid, 1.5 / (1.0 + step as f64 * DT), DT);
            grid.prepare_potential_phase_batch(&batch, step_slopes, DT / 2.0, &mut ws);
            phase(&mut batch, &mut ws, avx2);
            kinetic(&mut batch, &mut ws, &factors, avx2);
            fused(&mut batch, &mut ws, grid.points(), avx2);
        }
        (batch, ws)
    }

    fn assert_bits(a: &[f64], b: &[f64], what: &str) {
        assert_eq!(a.len(), b.len(), "{what}: lengths differ");
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}: entry {i} diverged");
        }
    }

    /// Resolutions 17 and 33 are odd, 32 and 64 even. Widths 1, 2 and 3 have
    /// no full block of four columns, 4 and 8 no remainder, 5 and 6 a one- and
    /// a two-column remainder; 257 and 258 are one 256-column Thomas tile and
    /// a one- or two-column tile, 300 ends in a partial tile and 515 is two
    /// full tiles and a three-column tile.
    #[test]
    fn avx2_kernels_are_bit_identical_to_the_scalar_reference() {
        if !avx2_detected() {
            return;
        }
        for resolution in [17usize, 32, 33, 64] {
            let grid = Grid::new(resolution).unwrap();
            for n in [1usize, 2, 3, 4, 5, 6, 8, 257, 258, 300, 515] {
                let what = format!("resolution {resolution}, width {n}");
                let slopes = slopes(n, 3);
                let (scalar, ws_s) = strang(&grid, packets(&grid, n), &slopes, false);
                let (vector, ws_v) = strang(&grid, packets(&grid, n), &slopes, true);
                assert_bits(scalar.re(), vector.re(), &what);
                assert_bits(scalar.im(), vector.im(), &what);
                assert_bits(&ws_s.num, &ws_v.num, &what);
                assert_bits(&ws_s.den, &ws_v.den, &what);
                assert_bits(&ws_s.cur_re, &ws_v.cur_re, &what);
                assert_bits(&ws_s.cur_im, &ws_v.cur_im, &what);
            }
        }
    }

    /// The fused AVX2 phase-and-expectation kernel matches the AVX2 phase
    /// kernel followed by the scalar `⟨x⟩` reduction.
    #[test]
    fn fused_avx2_kernel_matches_separate_kernels() {
        if !avx2_detected() {
            return;
        }
        for (resolution, n) in [(17usize, 5usize), (32, 8), (33, 4), (64, 9), (64, 257)] {
            let grid = Grid::new(resolution).unwrap();
            let mut joint = packets(&grid, n);
            let mut ws = MeanFieldWorkspace::for_batch(&joint);
            grid.prepare_potential_phase_batch(&joint, &slopes(n, 1)[0], 0.07, &mut ws);
            let mut separate = joint.clone();

            fused(&mut joint, &mut ws, grid.points(), true);
            let (joint_num, joint_den) = (ws.num.clone(), ws.den.clone());
            phase(&mut separate, &mut ws, true);
            let (re, im) = (separate.re(), separate.im());
            scalar::expectation_rows(re, im, grid.points(), &mut ws.num, &mut ws.den, n);

            let what = format!("resolution {resolution}, width {n}");
            assert_bits(joint.re(), separate.re(), &what);
            assert_bits(joint.im(), separate.im(), &what);
            assert_bits(&joint_num, &ws.num, &what);
            assert_bits(&joint_den, &ws.den, &what);
        }
    }

    /// Columns never interact: each column of a 5-wide AVX2 run (one block of
    /// four columns and a one-column remainder) lands on the bits of the same
    /// packet run alone as a 1-wide scalar batch.
    #[test]
    fn avx2_columns_match_their_own_single_column_runs() {
        if !avx2_detected() {
            return;
        }
        let grid = Grid::new(32).unwrap();
        let n = 5;
        let slopes = slopes(n, 2);
        let wide = packets(&grid, n);
        let (wide_out, wide_ws) = strang(&grid, wide.clone(), &slopes, true);
        for i in 0..n {
            let mut narrow = WaveBatch::zeros(1, 32);
            narrow.set_variable(0, &wide.variable(i));
            let column: Vec<Vec<f64>> = slopes.iter().map(|s| vec![s[i]]).collect();
            let (narrow_out, narrow_ws) = strang(&grid, narrow, &column, false);
            for k in 0..32 {
                assert_eq!(wide_out.re()[k * n + i].to_bits(), narrow_out.re()[k].to_bits());
                assert_eq!(wide_out.im()[k * n + i].to_bits(), narrow_out.im()[k].to_bits());
            }
            assert_eq!(wide_ws.num[i].to_bits(), narrow_ws.num[0].to_bits());
            assert_eq!(wide_ws.den[i].to_bits(), narrow_ws.den[0].to_bits());
        }
    }
}
