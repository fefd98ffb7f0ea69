//! Compute kernels of the batched mean-field engine.
//!
//! Every batched kernel of [`crate::grid`] funnels through this module. The
//! **scalar** implementations in `scalar` are the source of truth. On
//! `x86_64` CPUs with AVX2, the three per-step kernels
//! ([`apply_prepared_phase`], [`apply_prepared_phase_expectation`] and
//! [`thomas_sweep`]) run hand-written AVX2 bodies instead, pinned to the
//! scalar reference **bit for bit**:
//!
//! * every kernel is column-independent: the recurrences (the potential-phase
//!   rotation and the Thomas sweep) couple *grid rows*, never variables, so a
//!   vector lane owns one variable and performs the exact per-variable
//!   arithmetic sequence of the scalar loop, four variables at a time
//!   instead of one;
//! * the AVX2 bodies use only plain vector multiply/add/subtract (no FMA:
//!   Rust never contracts scalar `a*b + c` into a fused operation, so fused
//!   vector ops would change results);
//! * remainder columns (`n % 4`) run through the *same* scalar code path via
//!   its column-range parameters, so the reductions keep their
//!   ascending-grid-row per-variable summation order and no tolerance is
//!   needed anywhere — see the unit tests below and
//!   `tests/solver_equivalence.rs`.
//!
//! Each call picks its path with `is_x86_feature_detected!("avx2")`, which
//! the standard library caches after the first call. Nothing else chooses:
//! both paths produce the same bits, so the CPU decides only *how fast* a
//! kernel runs, never *what* it computes. The reductions that run once per
//! trajectory (`⟨x⟩` of the initial packets, `P(x > ½)` of the final state)
//! have only their scalar bodies, `scalar::expectation_rows` and
//! `scalar::probability_rows`.

use crate::grid::ThomasFactors;

/// Shared bounds checks making the raw-pointer AVX2 bodies sound: the planes
/// must hold `res` rows of `n` columns and every per-variable vector must
/// hold `n` entries.
fn check_plane_bounds(plane_lens: &[usize], per_variable_lens: &[usize], n: usize, res: usize) {
    for &len in plane_lens {
        assert!(len >= res * n, "plane too small for {res}x{n} kernel");
    }
    for &len in per_variable_lens {
        assert!(len >= n, "per-variable buffer too small for {n} columns");
    }
}

/// Batched potential-phase rotation recurrence (see
/// [`crate::grid::Grid::apply_prepared_potential_phase_batch`] for the maths).
/// Runs AVX2 on CPUs that have it; remainder columns take the scalar path.
#[allow(clippy::too_many_arguments)]
#[allow(unsafe_code)]
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
    check_plane_bounds(
        &[re.len(), im.len()],
        &[u_re.len(), u_im.len(), cur_re.len(), cur_im.len()],
        n,
        res,
    );
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        let nb = n - n % avx2::LANES;
        if nb > 0 {
            // SAFETY: the test above detected AVX2 on this CPU, and
            // `check_plane_bounds` keeps the pointer arithmetic for `nb ≤ n`
            // columns in bounds.
            unsafe { avx2::apply_prepared_phase(re, im, u_re, u_im, cur_re, cur_im, n, res, nb) }
        }
        if nb < n {
            scalar::apply_prepared_phase(re, im, u_re, u_im, cur_re, cur_im, n, res, nb, n);
        }
        return;
    }
    scalar::apply_prepared_phase(re, im, u_re, u_im, cur_re, cur_im, n, res, 0, n);
}

/// Fused trailing half-phase + expectation reduction: rotates every row like
/// [`apply_prepared_phase`] and accumulates `Σ|ψ|²·x` / `Σ|ψ|²` into
/// `num`/`den` in the same pass — one read traversal over both planes instead
/// of two per step. Bit-identical to apply-then-reduce because the per-row
/// probability is computed from the exact post-rotation values and the
/// accumulation stays in ascending grid order.
#[allow(clippy::too_many_arguments)]
#[allow(unsafe_code)]
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
    let res = points.len();
    assert!(res > 0, "grid must have at least one point");
    check_plane_bounds(
        &[re.len(), im.len()],
        &[u_re.len(), u_im.len(), cur_re.len(), cur_im.len(), num.len(), den.len()],
        n,
        res,
    );
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        let nb = n - n % avx2::LANES;
        if nb > 0 {
            // SAFETY: the test above detected AVX2 on this CPU; bounds
            // checked above.
            unsafe {
                avx2::apply_prepared_phase_expectation(
                    re, im, u_re, u_im, cur_re, cur_im, points, num, den, n, nb,
                )
            }
        }
        if nb < n {
            scalar::apply_prepared_phase_expectation(
                re, im, u_re, u_im, cur_re, cur_im, points, num, den, n, nb, n,
            );
        }
        return;
    }
    scalar::apply_prepared_phase_expectation(
        re, im, u_re, u_im, cur_re, cur_im, points, num, den, n, 0, n,
    );
}

/// Batched Crank–Nicolson tridiagonal solve (fused rhs + Thomas forward sweep
/// + back substitution); see [`crate::grid::Grid::kinetic_step_batch`].
#[allow(unsafe_code)]
pub(crate) fn thomas_sweep(
    re: &mut [f64],
    im: &mut [f64],
    d_re: &mut [f64],
    d_im: &mut [f64],
    factors: &ThomasFactors,
    n: usize,
) {
    let res = factors.resolution();
    assert!(res >= 2, "Thomas sweep needs at least two grid rows");
    check_plane_bounds(&[re.len(), im.len(), d_re.len(), d_im.len()], &[], n, res);
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        let nb = n - n % avx2::LANES;
        if nb > 0 {
            // SAFETY: the test above detected AVX2 on this CPU; bounds
            // checked above.
            unsafe { avx2::thomas_sweep(re, im, d_re, d_im, factors, n, nb) }
        }
        if nb < n {
            scalar::thomas_sweep(re, im, d_re, d_im, factors, n, nb, n);
        }
        return;
    }
    scalar::thomas_sweep(re, im, d_re, d_im, factors, n, 0, n);
}

pub(crate) mod scalar {
    //! The pinned scalar reference kernels.
    //!
    //! Each kernel is parameterised by a column range `i0..i1` so the AVX2
    //! path can hand its remainder columns (`n % 4`) to the *exact* code that
    //! defines the semantics — the tail is not a rewrite, it is the
    //! reference. Passing `0..n` runs the full scalar kernel; the
    //! single-wavefunction kernels in [`crate::grid`] are these same
    //! functions at `n = 1`.

    use crate::complex::cmul_parts;
    use crate::grid::ThomasFactors;

    /// Potential-phase rotation recurrence over columns `i0..i1`: row `k` is
    /// multiplied by the running per-variable power `u_i^k` (row 0 sits at
    /// `x = 0` where the phase is exactly 1).
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
        i0: usize,
        i1: usize,
    ) {
        // Start the running power at u so row 1 is the first one rotated.
        cur_re[i0..i1].copy_from_slice(&u_re[i0..i1]);
        cur_im[i0..i1].copy_from_slice(&u_im[i0..i1]);
        for k in 1..res {
            let row_re = &mut re[k * n..(k + 1) * n];
            let row_im = &mut im[k * n..(k + 1) * n];
            for i in i0..i1 {
                let (zr, zi) = (row_re[i], row_im[i]);
                let (cr, ci) = (cur_re[i], cur_im[i]);
                let (pr, pi) = cmul_parts(zr, zi, cr, ci);
                row_re[i] = pr;
                row_im[i] = pi;
                let (nr, ni) = cmul_parts(cr, ci, u_re[i], u_im[i]);
                cur_re[i] = nr;
                cur_im[i] = ni;
            }
        }
    }

    /// Fused trailing half-phase + expectation accumulation over columns
    /// `i0..i1`. Row 0 is only accumulated (its phase is exactly 1); every
    /// later row is rotated first and its probability read from the exact
    /// post-rotation values, so the accumulators match a separate
    /// [`expectation_rows`] pass bit-for-bit.
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
        i0: usize,
        i1: usize,
    ) {
        let res = points.len();
        let x0 = points[0];
        for i in i0..i1 {
            num[i] = 0.0;
            den[i] = 0.0;
            let p = re[i] * re[i] + im[i] * im[i];
            num[i] += p * x0;
            den[i] += p;
        }
        cur_re[i0..i1].copy_from_slice(&u_re[i0..i1]);
        cur_im[i0..i1].copy_from_slice(&u_im[i0..i1]);
        for k in 1..res {
            let x = points[k];
            let row_re = &mut re[k * n..(k + 1) * n];
            let row_im = &mut im[k * n..(k + 1) * n];
            for i in i0..i1 {
                let (zr, zi) = (row_re[i], row_im[i]);
                let (cr, ci) = (cur_re[i], cur_im[i]);
                let (pr, pi) = cmul_parts(zr, zi, cr, ci);
                row_re[i] = pr;
                row_im[i] = pi;
                let p = pr * pr + pi * pi;
                num[i] += p * x;
                den[i] += p;
                let (nr, ni) = cmul_parts(cr, ci, u_re[i], u_im[i]);
                cur_re[i] = nr;
                cur_im[i] = ni;
            }
        }
    }

    /// Crank–Nicolson solve over columns `i0..i1` with the rhs fused into the
    /// Thomas forward sweep.
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
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn thomas_sweep(
        re: &mut [f64],
        im: &mut [f64],
        d_re: &mut [f64],
        d_im: &mut [f64],
        factors: &ThomasFactors,
        n: usize,
        i0: usize,
        i1: usize,
    ) {
        let res = factors.resolution();
        let (d, a) = (factors.d, factors.a);
        {
            // Row 0 (no ψ_{−1}).
            let (inv_r, inv_i) = (factors.inv_re[0], factors.inv_im[0]);
            for i in i0..i1 {
                let (cr, ci) = (re[i], im[i]);
                let (xr, xi) = (re[n + i], im[n + i]);
                let rr = cr + d * ci + a * xi;
                let ri = ci - d * cr - a * xr;
                let (pr, pi) = cmul_parts(rr, ri, inv_r, inv_i);
                d_re[i] = pr;
                d_im[i] = pi;
            }
        }
        for k in 1..res {
            let (inv_r, inv_i) = (factors.inv_re[k], factors.inv_im[k]);
            let interior = k + 1 < res;
            let prev_re = &re[(k - 1) * n..k * n];
            let prev_im = &im[(k - 1) * n..k * n];
            let cur_re = &re[k * n..(k + 1) * n];
            let cur_im = &im[k * n..(k + 1) * n];
            let (dh_re, dt_re) = d_re.split_at_mut(k * n);
            let (dh_im, dt_im) = d_im.split_at_mut(k * n);
            let dp_re = &dh_re[(k - 1) * n..];
            let dp_im = &dh_im[(k - 1) * n..];
            let dc_re = &mut dt_re[..n];
            let dc_im = &mut dt_im[..n];
            if interior {
                let next_re = &re[(k + 1) * n..(k + 2) * n];
                let next_im = &im[(k + 1) * n..(k + 2) * n];
                for i in i0..i1 {
                    let sr = prev_re[i] + next_re[i];
                    let si = prev_im[i] + next_im[i];
                    // t = rhs − a_off·d′_{k−1} with rhs = b_diag·ψ_k + b_off·s.
                    let tr = cur_re[i] + d * cur_im[i] + a * si + a * dp_im[i];
                    let ti = cur_im[i] - d * cur_re[i] - a * sr - a * dp_re[i];
                    let (pr, pi) = cmul_parts(tr, ti, inv_r, inv_i);
                    dc_re[i] = pr;
                    dc_im[i] = pi;
                }
            } else {
                // Last row (no ψ_{res}).
                for i in i0..i1 {
                    let tr = cur_re[i] + d * cur_im[i] + a * prev_im[i] + a * dp_im[i];
                    let ti = cur_im[i] - d * cur_re[i] - a * prev_re[i] - a * dp_re[i];
                    let (pr, pi) = cmul_parts(tr, ti, inv_r, inv_i);
                    dc_re[i] = pr;
                    dc_im[i] = pi;
                }
            }
        }

        // Back substitution: ψ_{res−1} = d′_{res−1}, ψ_k = d′_k − c′_k ψ_{k+1}.
        let last = (res - 1) * n;
        re[last + i0..last + i1].copy_from_slice(&d_re[last + i0..last + i1]);
        im[last + i0..last + i1].copy_from_slice(&d_im[last + i0..last + i1]);
        for k in (0..res - 1).rev() {
            let (c_r, c_i) = (factors.c_re[k], factors.c_im[k]);
            let dr = &d_re[k * n..(k + 1) * n];
            let di = &d_im[k * n..(k + 1) * n];
            let (head_re, tail_re) = re.split_at_mut((k + 1) * n);
            let (head_im, tail_im) = im.split_at_mut((k + 1) * n);
            let psi_re = &mut head_re[k * n..];
            let psi_im = &mut head_im[k * n..];
            let next_re = &tail_re[..n];
            let next_im = &tail_im[..n];
            for i in i0..i1 {
                let (qr, qi) = cmul_parts(c_r, c_i, next_re[i], next_im[i]);
                psi_re[i] = dr[i] - qr;
                psi_im[i] = di[i] - qi;
            }
        }
    }

    /// `⟨x⟩` reduction accumulators over columns `i0..i1`, ascending grid
    /// order per variable.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn expectation_rows(
        re: &[f64],
        im: &[f64],
        points: &[f64],
        num: &mut [f64],
        den: &mut [f64],
        n: usize,
        i0: usize,
        i1: usize,
    ) {
        num[i0..i1].fill(0.0);
        den[i0..i1].fill(0.0);
        for (k, &x) in points.iter().enumerate() {
            let row_re = &re[k * n..(k + 1) * n];
            let row_im = &im[k * n..(k + 1) * n];
            for i in i0..i1 {
                let p = row_re[i] * row_re[i] + row_im[i] * row_im[i];
                num[i] += p * x;
                den[i] += p;
            }
        }
    }

    /// Upper-half probability mass accumulators over columns `i0..i1`,
    /// ascending grid order per variable.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn probability_rows(
        re: &[f64],
        im: &[f64],
        points: &[f64],
        upper: &mut [f64],
        total: &mut [f64],
        n: usize,
        i0: usize,
        i1: usize,
    ) {
        upper[i0..i1].fill(0.0);
        total[i0..i1].fill(0.0);
        for (k, &x) in points.iter().enumerate() {
            let row_re = &re[k * n..(k + 1) * n];
            let row_im = &im[k * n..(k + 1) * n];
            if x > 0.5 {
                for i in i0..i1 {
                    let p = row_re[i] * row_re[i] + row_im[i] * row_im[i];
                    total[i] += p;
                    upper[i] += p;
                }
            } else {
                for i in i0..i1 {
                    total[i] += row_re[i] * row_re[i] + row_im[i] * row_im[i];
                }
            }
        }
    }
}

/// AVX2 bodies: 4×`f64` lanes, one variable per lane.
///
/// Every function here is `unsafe` with `#[target_feature(enable = "avx2")]`:
/// its caller must have detected AVX2 on the running CPU, as the dispatchers
/// above do on every call. Two schedules, chosen per kernel by what the
/// memory system rewards:
///
/// - **Streaming kernels** (`apply_prepared_phase`, `thomas_sweep`) keep the
///   scalar row-outer loop order — whole `n`-wide grid rows are walked
///   unit-stride with the recurrence state flowing through the workspace
///   planes, so the hardware prefetcher sees the same sequential pattern the
///   scalar code produces. (A column-block-outer variant strides `n·8` bytes
///   between consecutive accesses — several KB for realistic batches — and
///   measures *slower* than scalar.)
/// - **The fused reduction kernel** (`apply_prepared_phase_expectation`)
///   iterates column blocks of four variables outermost and carries the
///   accumulators and running phase power in registers the whole way down
///   the grid, which wins because it turns the per-row accumulator
///   read-modify-write traffic into register ops.
///
/// In both schedules the vector ops mirror the scalar expressions term for
/// term (multiply/add/subtract only, no FMA), so each lane computes the exact
/// per-variable arithmetic sequence of [`scalar`].
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod avx2 {
    use crate::grid::ThomasFactors;
    use core::arch::x86_64::*;

    pub(super) const LANES: usize = 4;

    /// # Safety
    ///
    /// AVX2 must be available; planes must hold `res` rows of `n` columns,
    /// the per-variable buffers `n` entries, with `nb ≤ n` and `nb % 4 == 0`.
    ///
    /// Row-outer schedule: the inner loop walks columns unit-stride within
    /// one grid row (prefetch-friendly streaming over the planes, the same
    /// memory order as the scalar reference), with the running phase powers
    /// carried in the `cur` planes between rows exactly like the scalar code.
    #[target_feature(enable = "avx2")]
    #[allow(clippy::too_many_arguments, clippy::missing_safety_doc)]
    pub(super) unsafe fn apply_prepared_phase(
        re: &mut [f64],
        im: &mut [f64],
        u_re: &[f64],
        u_im: &[f64],
        cur_re: &mut [f64],
        cur_im: &mut [f64],
        n: usize,
        res: usize,
        nb: usize,
    ) {
        // Start the running power at u so row 1 is the first one rotated.
        core::ptr::copy_nonoverlapping(u_re.as_ptr(), cur_re.as_mut_ptr(), nb);
        core::ptr::copy_nonoverlapping(u_im.as_ptr(), cur_im.as_mut_ptr(), nb);
        for k in 1..res {
            let base = k * n;
            for i in (0..nb).step_by(LANES) {
                let z_r = _mm256_loadu_pd(re.as_ptr().add(base + i));
                let z_i = _mm256_loadu_pd(im.as_ptr().add(base + i));
                let c_r = _mm256_loadu_pd(cur_re.as_ptr().add(i));
                let c_i = _mm256_loadu_pd(cur_im.as_ptr().add(i));
                // (zr·cr − zi·ci, zr·ci + zi·cr) — the scalar cmul_parts.
                let p_r = _mm256_sub_pd(_mm256_mul_pd(z_r, c_r), _mm256_mul_pd(z_i, c_i));
                let p_i = _mm256_add_pd(_mm256_mul_pd(z_r, c_i), _mm256_mul_pd(z_i, c_r));
                _mm256_storeu_pd(re.as_mut_ptr().add(base + i), p_r);
                _mm256_storeu_pd(im.as_mut_ptr().add(base + i), p_i);
                let u_r = _mm256_loadu_pd(u_re.as_ptr().add(i));
                let u_i = _mm256_loadu_pd(u_im.as_ptr().add(i));
                let n_r = _mm256_sub_pd(_mm256_mul_pd(c_r, u_r), _mm256_mul_pd(c_i, u_i));
                let n_i = _mm256_add_pd(_mm256_mul_pd(c_r, u_i), _mm256_mul_pd(c_i, u_r));
                _mm256_storeu_pd(cur_re.as_mut_ptr().add(i), n_r);
                _mm256_storeu_pd(cur_im.as_mut_ptr().add(i), n_i);
            }
        }
    }

    /// # Safety
    ///
    /// Same contract as [`apply_prepared_phase`]; `points` must be non-empty
    /// and `num`/`den` hold `n` entries.
    #[target_feature(enable = "avx2")]
    #[allow(clippy::too_many_arguments, clippy::missing_safety_doc)]
    pub(super) unsafe fn apply_prepared_phase_expectation(
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
        nb: usize,
    ) {
        let res = points.len();
        let zero = _mm256_setzero_pd();
        for i in (0..nb).step_by(LANES) {
            // Row 0 (phase exactly 1): accumulate only, from a zeroed start —
            // the same 0.0 + p·x first addition as the scalar reference.
            let z_r = _mm256_loadu_pd(re.as_ptr().add(i));
            let z_i = _mm256_loadu_pd(im.as_ptr().add(i));
            let p = _mm256_add_pd(_mm256_mul_pd(z_r, z_r), _mm256_mul_pd(z_i, z_i));
            let x0 = _mm256_set1_pd(points[0]);
            let mut acc_num = _mm256_add_pd(zero, _mm256_mul_pd(p, x0));
            let mut acc_den = _mm256_add_pd(zero, p);
            let u_r = _mm256_loadu_pd(u_re.as_ptr().add(i));
            let u_i = _mm256_loadu_pd(u_im.as_ptr().add(i));
            let mut c_r = u_r;
            let mut c_i = u_i;
            for k in 1..res {
                let idx = k * n + i;
                let z_r = _mm256_loadu_pd(re.as_ptr().add(idx));
                let z_i = _mm256_loadu_pd(im.as_ptr().add(idx));
                let p_r = _mm256_sub_pd(_mm256_mul_pd(z_r, c_r), _mm256_mul_pd(z_i, c_i));
                let p_i = _mm256_add_pd(_mm256_mul_pd(z_r, c_i), _mm256_mul_pd(z_i, c_r));
                _mm256_storeu_pd(re.as_mut_ptr().add(idx), p_r);
                _mm256_storeu_pd(im.as_mut_ptr().add(idx), p_i);
                let p = _mm256_add_pd(_mm256_mul_pd(p_r, p_r), _mm256_mul_pd(p_i, p_i));
                let x = _mm256_set1_pd(*points.get_unchecked(k));
                acc_num = _mm256_add_pd(acc_num, _mm256_mul_pd(p, x));
                acc_den = _mm256_add_pd(acc_den, p);
                let n_r = _mm256_sub_pd(_mm256_mul_pd(c_r, u_r), _mm256_mul_pd(c_i, u_i));
                let n_i = _mm256_add_pd(_mm256_mul_pd(c_r, u_i), _mm256_mul_pd(c_i, u_r));
                c_r = n_r;
                c_i = n_i;
            }
            _mm256_storeu_pd(cur_re.as_mut_ptr().add(i), c_r);
            _mm256_storeu_pd(cur_im.as_mut_ptr().add(i), c_i);
            _mm256_storeu_pd(num.as_mut_ptr().add(i), acc_num);
            _mm256_storeu_pd(den.as_mut_ptr().add(i), acc_den);
        }
    }

    /// Columns per cache tile of the Thomas solve. The forward sweep writes
    /// the whole `d′` plane and the backward sweep reads it again; untiled,
    /// that plane (`res·n·16` bytes — megabytes at production batch widths)
    /// is evicted in between and every solve pays its DRAM traffic twice.
    /// A 256-column tile keeps the tile's `ψ`/`d′` working set
    /// (`res·256·32` bytes ≈ 0.5 MB at `res = 64`) inside L2 across both
    /// sweeps. Must stay a multiple of [`LANES`].
    const THOMAS_TILE: usize = 256;

    /// # Safety
    ///
    /// Same plane/column contract; `factors` must match `res ≥ 2` rows.
    ///
    /// Tiled row-outer schedule: columns are processed in independent
    /// [`THOMAS_TILE`]-wide tiles (columns never interact, so this only
    /// reorders identical per-column arithmetic); within a tile both sweeps
    /// stream whole tile rows unit-stride (the recurrence neighbours ψ_{k±1}
    /// and d′_{k−1} live one row away and are still cache-hot), matching the
    /// scalar reference's memory order.
    #[target_feature(enable = "avx2")]
    #[allow(clippy::too_many_arguments, clippy::missing_safety_doc)]
    pub(super) unsafe fn thomas_sweep(
        re: &mut [f64],
        im: &mut [f64],
        d_re: &mut [f64],
        d_im: &mut [f64],
        factors: &ThomasFactors,
        n: usize,
        nb: usize,
    ) {
        for t0 in (0..nb).step_by(THOMAS_TILE) {
            let t1 = (t0 + THOMAS_TILE).min(nb);
            thomas_sweep_tile(re, im, d_re, d_im, factors, n, t0, t1);
        }
    }

    /// # Safety
    ///
    /// Same contract as [`thomas_sweep`] over columns `t0..t1`, with
    /// `t0 ≤ t1 ≤ nb` and both bounds multiples of 4.
    #[target_feature(enable = "avx2")]
    #[allow(clippy::too_many_arguments, clippy::missing_safety_doc)]
    unsafe fn thomas_sweep_tile(
        re: &mut [f64],
        im: &mut [f64],
        d_re: &mut [f64],
        d_im: &mut [f64],
        factors: &ThomasFactors,
        n: usize,
        t0: usize,
        t1: usize,
    ) {
        let res = factors.resolution();
        let vd = _mm256_set1_pd(factors.d);
        let va = _mm256_set1_pd(factors.a);
        {
            // Row 0 (no ψ_{−1}): rr = ψr + d·ψi + a·(ψ₁)i, ri symmetric.
            let inv_r = _mm256_set1_pd(factors.inv_re[0]);
            let inv_i = _mm256_set1_pd(factors.inv_im[0]);
            for i in (t0..t1).step_by(LANES) {
                let c_r = _mm256_loadu_pd(re.as_ptr().add(i));
                let c_i = _mm256_loadu_pd(im.as_ptr().add(i));
                let x_r = _mm256_loadu_pd(re.as_ptr().add(n + i));
                let x_i = _mm256_loadu_pd(im.as_ptr().add(n + i));
                let rr = _mm256_add_pd(
                    _mm256_add_pd(c_r, _mm256_mul_pd(vd, c_i)),
                    _mm256_mul_pd(va, x_i),
                );
                let ri = _mm256_sub_pd(
                    _mm256_sub_pd(c_i, _mm256_mul_pd(vd, c_r)),
                    _mm256_mul_pd(va, x_r),
                );
                let p_r = _mm256_sub_pd(_mm256_mul_pd(rr, inv_r), _mm256_mul_pd(ri, inv_i));
                let p_i = _mm256_add_pd(_mm256_mul_pd(rr, inv_i), _mm256_mul_pd(ri, inv_r));
                _mm256_storeu_pd(d_re.as_mut_ptr().add(i), p_r);
                _mm256_storeu_pd(d_im.as_mut_ptr().add(i), p_i);
            }
        }
        for k in 1..res {
            let inv_r = _mm256_set1_pd(*factors.inv_re.get_unchecked(k));
            let inv_i = _mm256_set1_pd(*factors.inv_im.get_unchecked(k));
            if k + 1 < res {
                for i in (t0..t1).step_by(LANES) {
                    let prev_r = _mm256_loadu_pd(re.as_ptr().add((k - 1) * n + i));
                    let prev_i = _mm256_loadu_pd(im.as_ptr().add((k - 1) * n + i));
                    let cur_r = _mm256_loadu_pd(re.as_ptr().add(k * n + i));
                    let cur_i = _mm256_loadu_pd(im.as_ptr().add(k * n + i));
                    let next_r = _mm256_loadu_pd(re.as_ptr().add((k + 1) * n + i));
                    let next_i = _mm256_loadu_pd(im.as_ptr().add((k + 1) * n + i));
                    let dp_r = _mm256_loadu_pd(d_re.as_ptr().add((k - 1) * n + i));
                    let dp_i = _mm256_loadu_pd(d_im.as_ptr().add((k - 1) * n + i));
                    let s_r = _mm256_add_pd(prev_r, next_r);
                    let s_i = _mm256_add_pd(prev_i, next_i);
                    // tr = ψr + d·ψi + a·si + a·d′i (left-associated like the
                    // scalar expression), ti symmetric with subtractions.
                    let t_r = _mm256_add_pd(
                        _mm256_add_pd(
                            _mm256_add_pd(cur_r, _mm256_mul_pd(vd, cur_i)),
                            _mm256_mul_pd(va, s_i),
                        ),
                        _mm256_mul_pd(va, dp_i),
                    );
                    let t_i = _mm256_sub_pd(
                        _mm256_sub_pd(
                            _mm256_sub_pd(cur_i, _mm256_mul_pd(vd, cur_r)),
                            _mm256_mul_pd(va, s_r),
                        ),
                        _mm256_mul_pd(va, dp_r),
                    );
                    let p_r = _mm256_sub_pd(_mm256_mul_pd(t_r, inv_r), _mm256_mul_pd(t_i, inv_i));
                    let p_i = _mm256_add_pd(_mm256_mul_pd(t_r, inv_i), _mm256_mul_pd(t_i, inv_r));
                    _mm256_storeu_pd(d_re.as_mut_ptr().add(k * n + i), p_r);
                    _mm256_storeu_pd(d_im.as_mut_ptr().add(k * n + i), p_i);
                }
            } else {
                // Last row (no ψ_{res}).
                for i in (t0..t1).step_by(LANES) {
                    let prev_r = _mm256_loadu_pd(re.as_ptr().add((k - 1) * n + i));
                    let prev_i = _mm256_loadu_pd(im.as_ptr().add((k - 1) * n + i));
                    let cur_r = _mm256_loadu_pd(re.as_ptr().add(k * n + i));
                    let cur_i = _mm256_loadu_pd(im.as_ptr().add(k * n + i));
                    let dp_r = _mm256_loadu_pd(d_re.as_ptr().add((k - 1) * n + i));
                    let dp_i = _mm256_loadu_pd(d_im.as_ptr().add((k - 1) * n + i));
                    let t_r = _mm256_add_pd(
                        _mm256_add_pd(
                            _mm256_add_pd(cur_r, _mm256_mul_pd(vd, cur_i)),
                            _mm256_mul_pd(va, prev_i),
                        ),
                        _mm256_mul_pd(va, dp_i),
                    );
                    let t_i = _mm256_sub_pd(
                        _mm256_sub_pd(
                            _mm256_sub_pd(cur_i, _mm256_mul_pd(vd, cur_r)),
                            _mm256_mul_pd(va, prev_r),
                        ),
                        _mm256_mul_pd(va, dp_r),
                    );
                    let p_r = _mm256_sub_pd(_mm256_mul_pd(t_r, inv_r), _mm256_mul_pd(t_i, inv_i));
                    let p_i = _mm256_add_pd(_mm256_mul_pd(t_r, inv_i), _mm256_mul_pd(t_i, inv_r));
                    _mm256_storeu_pd(d_re.as_mut_ptr().add(k * n + i), p_r);
                    _mm256_storeu_pd(d_im.as_mut_ptr().add(k * n + i), p_i);
                }
            }
        }

        // Back substitution: ψ_{res−1} = d′_{res−1}, ψ_k = d′_k − c′_k ψ_{k+1}.
        let last = (res - 1) * n;
        core::ptr::copy_nonoverlapping(
            d_re.as_ptr().add(last + t0),
            re.as_mut_ptr().add(last + t0),
            t1 - t0,
        );
        core::ptr::copy_nonoverlapping(
            d_im.as_ptr().add(last + t0),
            im.as_mut_ptr().add(last + t0),
            t1 - t0,
        );
        for k in (0..res - 1).rev() {
            let c_r = _mm256_set1_pd(*factors.c_re.get_unchecked(k));
            let c_i = _mm256_set1_pd(*factors.c_im.get_unchecked(k));
            for i in (t0..t1).step_by(LANES) {
                let dr = _mm256_loadu_pd(d_re.as_ptr().add(k * n + i));
                let di = _mm256_loadu_pd(d_im.as_ptr().add(k * n + i));
                let nxt_r = _mm256_loadu_pd(re.as_ptr().add((k + 1) * n + i));
                let nxt_i = _mm256_loadu_pd(im.as_ptr().add((k + 1) * n + i));
                let q_r = _mm256_sub_pd(_mm256_mul_pd(c_r, nxt_r), _mm256_mul_pd(c_i, nxt_i));
                let q_i = _mm256_add_pd(_mm256_mul_pd(c_r, nxt_i), _mm256_mul_pd(c_i, nxt_r));
                let p_r = _mm256_sub_pd(dr, q_r);
                let p_i = _mm256_sub_pd(di, q_i);
                _mm256_storeu_pd(re.as_mut_ptr().add(k * n + i), p_r);
                _mm256_storeu_pd(im.as_mut_ptr().add(k * n + i), p_i);
            }
        }
    }
}

/// AVX2 against the scalar reference on identical inputs. The contract is
/// `to_bits()` equality, not an epsilon. The tests need an AVX2 CPU; on one
/// without, they print a note and check nothing.
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

    // The kernels below run columns `..nb` on the AVX2 bodies and `nb..` on
    // the scalar reference: `nb = n - n % 4` is the split the dispatchers
    // make on an AVX2 CPU, `nb = 0` is all scalar. Callers pass `nb > 0` only
    // after `avx2_detected()`, with `w` sized for `batch`.

    fn phase(batch: &mut WaveBatch, w: &mut MeanFieldWorkspace, nb: usize) {
        let (n, res) = (batch.num_variables(), batch.resolution());
        let (re, im) = batch.planes_mut();
        let (ur, ui, cr, ci) = (&w.u_re, &w.u_im, &mut w.cur_re, &mut w.cur_im);
        if nb > 0 {
            // SAFETY: AVX2 was detected and `w` fits `batch` (see above).
            unsafe { avx2::apply_prepared_phase(re, im, ur, ui, cr, ci, n, res, nb) }
        }
        scalar::apply_prepared_phase(re, im, ur, ui, cr, ci, n, res, nb, n);
    }

    fn kinetic(batch: &mut WaveBatch, w: &mut MeanFieldWorkspace, f: &ThomasFactors, nb: usize) {
        let n = batch.num_variables();
        let (re, im) = batch.planes_mut();
        if nb > 0 {
            // SAFETY: AVX2 was detected and `w` fits `batch` (see above).
            unsafe { avx2::thomas_sweep(re, im, &mut w.d_re, &mut w.d_im, f, n, nb) }
        }
        scalar::thomas_sweep(re, im, &mut w.d_re, &mut w.d_im, f, n, nb, n);
    }

    fn fused(batch: &mut WaveBatch, w: &mut MeanFieldWorkspace, x: &[f64], nb: usize) {
        let n = batch.num_variables();
        let (re, im) = batch.planes_mut();
        let (ur, ui, cr, ci) = (&w.u_re, &w.u_im, &mut w.cur_re, &mut w.cur_im);
        let (num, den) = (&mut w.num, &mut w.den);
        if nb > 0 {
            // SAFETY: AVX2 was detected and `w` fits `batch` (see above).
            unsafe {
                avx2::apply_prepared_phase_expectation(re, im, ur, ui, cr, ci, x, num, den, n, nb)
            }
        }
        scalar::apply_prepared_phase_expectation(re, im, ur, ui, cr, ci, x, num, den, n, nb, n);
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
    /// half phase and expectation) with the `nb` split above. Returns the
    /// planes and the workspace holding the last step's `num`/`den`.
    fn strang(
        grid: &Grid,
        mut batch: WaveBatch,
        slopes: &[Vec<f64>],
        nb: usize,
    ) -> (WaveBatch, MeanFieldWorkspace) {
        let mut ws = MeanFieldWorkspace::for_batch(&batch);
        let mut factors = ThomasFactors::new();
        for (step, step_slopes) in slopes.iter().enumerate() {
            factors.factor(grid, 1.5 / (1.0 + step as f64 * DT), DT);
            grid.prepare_potential_phase_batch(&batch, step_slopes, DT / 2.0, &mut ws);
            phase(&mut batch, &mut ws, nb);
            kinetic(&mut batch, &mut ws, &factors, nb);
            fused(&mut batch, &mut ws, grid.points(), nb);
        }
        (batch, ws)
    }

    fn assert_bits(a: &[f64], b: &[f64], what: &str) {
        assert_eq!(a.len(), b.len(), "{what}: lengths differ");
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}: entry {i} diverged");
        }
    }

    /// Resolutions 17 and 33 are odd, 32 and 64 even. Widths 1 and 3 have no
    /// full vector, 4 and 8 no tail, 5 a one-column tail; 257 is one
    /// 256-column Thomas tile and a tail, 300 ends in a partial tile and 515
    /// is two full tiles and a three-column tail.
    #[test]
    fn avx2_kernels_are_bit_identical_to_the_scalar_reference() {
        if !avx2_detected() {
            return;
        }
        for resolution in [17usize, 32, 33, 64] {
            let grid = Grid::new(resolution).unwrap();
            for n in [1usize, 3, 4, 5, 8, 257, 300, 515] {
                let what = format!("resolution {resolution}, width {n}");
                let slopes = slopes(n, 3);
                let (scalar, ws_s) = strang(&grid, packets(&grid, n), &slopes, 0);
                let nb = n - n % avx2::LANES;
                let (vector, ws_v) = strang(&grid, packets(&grid, n), &slopes, nb);
                assert_bits(scalar.re(), vector.re(), &what);
                assert_bits(scalar.im(), vector.im(), &what);
                assert_bits(&ws_s.num, &ws_v.num, &what);
                assert_bits(&ws_s.den, &ws_v.den, &what);
                assert_bits(&ws_s.cur_re, &ws_v.cur_re, &what);
                assert_bits(&ws_s.cur_im, &ws_v.cur_im, &what);
            }
        }
    }

    /// The fused AVX2 phase-and-expectation body matches the AVX2 phase body
    /// followed by the scalar `⟨x⟩` reduction.
    #[test]
    fn fused_avx2_kernel_matches_separate_kernels() {
        if !avx2_detected() {
            return;
        }
        for (resolution, n) in [(17usize, 5usize), (32, 8), (33, 4), (64, 9), (64, 257)] {
            let grid = Grid::new(resolution).unwrap();
            let nb = n - n % avx2::LANES;
            let mut joint = packets(&grid, n);
            let mut ws = MeanFieldWorkspace::for_batch(&joint);
            grid.prepare_potential_phase_batch(&joint, &slopes(n, 1)[0], 0.07, &mut ws);
            let mut separate = joint.clone();

            fused(&mut joint, &mut ws, grid.points(), nb);
            let (joint_num, joint_den) = (ws.num.clone(), ws.den.clone());
            phase(&mut separate, &mut ws, nb);
            let (re, im) = (separate.re(), separate.im());
            scalar::expectation_rows(re, im, grid.points(), &mut ws.num, &mut ws.den, n, 0, n);

            let what = format!("resolution {resolution}, width {n}");
            assert_bits(joint.re(), separate.re(), &what);
            assert_bits(joint.im(), separate.im(), &what);
            assert_bits(&joint_num, &ws.num, &what);
            assert_bits(&joint_den, &ws.den, &what);
        }
    }

    /// Columns never interact: each column of a 5-wide run (four AVX2 lanes
    /// and a one-column scalar tail) lands on the bits of the same packet run
    /// alone as a 1-wide batch, which is all scalar.
    #[test]
    fn avx2_columns_match_their_own_single_column_runs() {
        if !avx2_detected() {
            return;
        }
        let grid = Grid::new(32).unwrap();
        let n = 5;
        let slopes = slopes(n, 2);
        let wide = packets(&grid, n);
        let (wide_out, wide_ws) = strang(&grid, wide.clone(), &slopes, 4);
        for i in 0..n {
            let mut narrow = WaveBatch::zeros(1, 32);
            narrow.set_variable(0, &wide.variable(i));
            let column: Vec<Vec<f64>> = slopes.iter().map(|s| vec![s[i]]).collect();
            let (narrow_out, narrow_ws) = strang(&grid, narrow, &column, 0);
            for k in 0..32 {
                assert_eq!(wide_out.re()[k * n + i].to_bits(), narrow_out.re()[k].to_bits());
                assert_eq!(wide_out.im()[k * n + i].to_bits(), narrow_out.im()[k].to_bits());
            }
            assert_eq!(wide_ws.num[i].to_bits(), narrow_ws.num[0].to_bits());
            assert_eq!(wide_ws.den[i].to_bits(), narrow_ws.den[0].to_bits());
        }
    }
}
