//! Backend-dispatched compute kernels of the batched mean-field engine.
//!
//! Every batched per-step kernel of [`crate::grid`] funnels through this
//! module, so `batch.rs`/`meanfield.rs` call one API regardless of backend.
//! The **scalar** implementations in `scalar` are the source of truth — they
//! are the exact loop bodies the engine has always run — and the optional SIMD
//! backends (AVX2 on `x86_64`, NEON on `aarch64`, behind the `simd` cargo
//! feature) are pinned to them **bit-for-bit**:
//!
//! * every kernel is column-independent: the recurrences (the potential-phase
//!   rotation and the Thomas sweep) couple *grid rows*, never variables, so a
//!   SIMD lane owns one variable and performs the exact per-variable
//!   arithmetic sequence of the scalar loop — four (AVX2) or two (NEON)
//!   variables at a time instead of one;
//! * the SIMD bodies use only plain vector multiply/add/subtract (no FMA:
//!   Rust never contracts scalar `a*b + c` into a fused operation, so fused
//!   vector ops would change results);
//! * remainder columns (`n % LANES`) run through the *same* scalar code path
//!   via its column-range parameters, so the reductions keep their
//!   ascending-grid-row per-variable summation order and no tolerance is
//!   needed anywhere — see the conformance suites in
//!   `tests/simd_conformance.rs` and `tests/solver_equivalence.rs`.
//!
//! Backend selection is process-global: [`active_backend`] lazily detects CPU
//! features on first use ([`detected_simd`]), honours the `QHDCD_SIMD`
//! environment variable (`0`, `off` or `scalar` forces the scalar path), and
//! can be overridden at runtime with [`select_backend`]. Because every backend
//! produces bit-identical results, a mid-run backend switch is benign — the
//! global only decides *how fast* a kernel runs, never *what* it computes.

use crate::grid::ThomasFactors;
use std::sync::atomic::{AtomicU8, Ordering};

/// A compute backend for the batched mean-field kernels.
///
/// The SIMD variants only exist when the `simd` cargo feature is enabled *and*
/// the target architecture provides them, so no SIMD identifier (or code)
/// leaks into default builds — CI pins this with a symbol grep on the release
/// artifacts, the same zero-cost pattern as the fault-injection hooks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum KernelBackend {
    /// The portable scalar reference path (always available).
    Scalar,
    /// 4×`f64` lanes via `std::arch::x86_64` AVX2 intrinsics.
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    Avx2,
    /// 2×`f64` lanes via `std::arch::aarch64` NEON intrinsics.
    #[cfg(all(feature = "simd", target_arch = "aarch64"))]
    Neon,
}

impl KernelBackend {
    /// A stable identifier for logs and bench records. SIMD names carry the
    /// `qhdcd-simd` prefix that the CI zero-cost guard greps for.
    pub fn name(self) -> &'static str {
        match self {
            KernelBackend::Scalar => "scalar",
            #[cfg(all(feature = "simd", target_arch = "x86_64"))]
            KernelBackend::Avx2 => "qhdcd-simd-avx2",
            #[cfg(all(feature = "simd", target_arch = "aarch64"))]
            KernelBackend::Neon => "qhdcd-simd-neon",
        }
    }
}

const UNSET: u8 = 0;
const SCALAR: u8 = 1;
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
const AVX2: u8 = 2;
#[cfg(all(feature = "simd", target_arch = "aarch64"))]
const NEON: u8 = 3;

/// The process-global backend choice (`UNSET` until first use).
static SELECTED: AtomicU8 = AtomicU8::new(UNSET);

fn encode(backend: KernelBackend) -> u8 {
    match backend {
        KernelBackend::Scalar => SCALAR,
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        KernelBackend::Avx2 => AVX2,
        #[cfg(all(feature = "simd", target_arch = "aarch64"))]
        KernelBackend::Neon => NEON,
    }
}

fn decode(code: u8) -> KernelBackend {
    match code {
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        AVX2 => KernelBackend::Avx2,
        #[cfg(all(feature = "simd", target_arch = "aarch64"))]
        NEON => KernelBackend::Neon,
        _ => KernelBackend::Scalar,
    }
}

/// The SIMD backend this build *and* this CPU support, if any.
///
/// `None` on default (scalar-only) builds, on unsupported architectures, and
/// on CPUs that lack the required feature (AVX2 / NEON) at runtime.
pub fn detected_simd() -> Option<KernelBackend> {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if std::arch::is_x86_feature_detected!("avx2") {
        return Some(KernelBackend::Avx2);
    }
    #[cfg(all(feature = "simd", target_arch = "aarch64"))]
    if std::arch::is_aarch64_feature_detected!("neon") {
        return Some(KernelBackend::Neon);
    }
    None
}

fn default_backend() -> KernelBackend {
    let forced_scalar =
        std::env::var_os("QHDCD_SIMD").is_some_and(|v| v == "0" || v == "off" || v == "scalar");
    if forced_scalar {
        return KernelBackend::Scalar;
    }
    detected_simd().unwrap_or(KernelBackend::Scalar)
}

/// The backend the batched kernels currently dispatch to.
///
/// The first call performs runtime CPU-feature detection (and reads the
/// `QHDCD_SIMD` environment variable); the choice then sticks until
/// [`select_backend`] overrides it.
pub fn active_backend() -> KernelBackend {
    let code = SELECTED.load(Ordering::Relaxed);
    if code == UNSET {
        let detected = default_backend();
        SELECTED.store(encode(detected), Ordering::Relaxed);
        return detected;
    }
    decode(code)
}

/// Overrides the process-global backend. Returns `false` (leaving the
/// selection untouched) if the running CPU does not support `backend`.
///
/// Primarily for conformance tests and benchmarks that pit backends against
/// each other; regular users never need it — detection picks the fastest
/// conforming backend automatically.
pub fn select_backend(backend: KernelBackend) -> bool {
    let supported = match backend {
        KernelBackend::Scalar => true,
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        KernelBackend::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
        #[cfg(all(feature = "simd", target_arch = "aarch64"))]
        KernelBackend::Neon => std::arch::is_aarch64_feature_detected!("neon"),
    };
    if supported {
        SELECTED.store(encode(backend), Ordering::Relaxed);
    }
    supported
}

/// Shared bounds checks making the raw-pointer SIMD bodies sound: the planes
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
/// Dispatches on [`active_backend`]; remainder columns take the scalar path.
#[allow(clippy::too_many_arguments)]
#[cfg_attr(feature = "simd", allow(unsafe_code))]
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
    match active_backend() {
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        KernelBackend::Avx2 => {
            let nb = n - n % avx2::LANES;
            if nb > 0 {
                // SAFETY: AVX2 availability was verified when the backend was
                // selected, and `check_plane_bounds` keeps the pointer
                // arithmetic for `nb ≤ n` columns in bounds.
                unsafe {
                    avx2::apply_prepared_phase(re, im, u_re, u_im, cur_re, cur_im, n, res, nb)
                }
            }
            if nb < n {
                scalar::apply_prepared_phase(re, im, u_re, u_im, cur_re, cur_im, n, res, nb, n);
            }
        }
        #[cfg(all(feature = "simd", target_arch = "aarch64"))]
        KernelBackend::Neon => {
            let nb = n - n % neon::LANES;
            if nb > 0 {
                // SAFETY: NEON availability was verified when the backend was
                // selected; bounds as above.
                unsafe {
                    neon::apply_prepared_phase(re, im, u_re, u_im, cur_re, cur_im, n, res, nb)
                }
            }
            if nb < n {
                scalar::apply_prepared_phase(re, im, u_re, u_im, cur_re, cur_im, n, res, nb, n);
            }
        }
        KernelBackend::Scalar => {
            scalar::apply_prepared_phase(re, im, u_re, u_im, cur_re, cur_im, n, res, 0, n);
        }
    }
}

/// Fused trailing half-phase + expectation reduction: rotates every row like
/// [`apply_prepared_phase`] and accumulates `Σ|ψ|²·x` / `Σ|ψ|²` into
/// `num`/`den` in the same pass — one read traversal over both planes instead
/// of two per step. Bit-identical to apply-then-reduce because the per-row
/// probability is computed from the exact post-rotation values and the
/// accumulation stays in ascending grid order.
#[allow(clippy::too_many_arguments)]
#[cfg_attr(feature = "simd", allow(unsafe_code))]
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
    match active_backend() {
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        KernelBackend::Avx2 => {
            let nb = n - n % avx2::LANES;
            if nb > 0 {
                // SAFETY: backend selection verified AVX2; bounds checked above.
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
        }
        #[cfg(all(feature = "simd", target_arch = "aarch64"))]
        KernelBackend::Neon => {
            let nb = n - n % neon::LANES;
            if nb > 0 {
                // SAFETY: backend selection verified NEON; bounds checked above.
                unsafe {
                    neon::apply_prepared_phase_expectation(
                        re, im, u_re, u_im, cur_re, cur_im, points, num, den, n, nb,
                    )
                }
            }
            if nb < n {
                scalar::apply_prepared_phase_expectation(
                    re, im, u_re, u_im, cur_re, cur_im, points, num, den, n, nb, n,
                );
            }
        }
        KernelBackend::Scalar => {
            scalar::apply_prepared_phase_expectation(
                re, im, u_re, u_im, cur_re, cur_im, points, num, den, n, 0, n,
            );
        }
    }
}

/// Batched Crank–Nicolson tridiagonal solve (fused rhs + Thomas forward sweep
/// + back substitution); see [`crate::grid::Grid::kinetic_step_batch`].
#[cfg_attr(feature = "simd", allow(unsafe_code))]
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
    match active_backend() {
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        KernelBackend::Avx2 => {
            let nb = n - n % avx2::LANES;
            if nb > 0 {
                // SAFETY: backend selection verified AVX2; bounds checked above.
                unsafe { avx2::thomas_sweep(re, im, d_re, d_im, factors, n, nb) }
            }
            if nb < n {
                scalar::thomas_sweep(re, im, d_re, d_im, factors, n, nb, n);
            }
        }
        #[cfg(all(feature = "simd", target_arch = "aarch64"))]
        KernelBackend::Neon => {
            let nb = n - n % neon::LANES;
            if nb > 0 {
                // SAFETY: backend selection verified NEON; bounds checked above.
                unsafe { neon::thomas_sweep(re, im, d_re, d_im, factors, n, nb) }
            }
            if nb < n {
                scalar::thomas_sweep(re, im, d_re, d_im, factors, n, nb, n);
            }
        }
        KernelBackend::Scalar => scalar::thomas_sweep(re, im, d_re, d_im, factors, n, 0, n),
    }
}

/// Batched `⟨x⟩` reduction accumulators (finalisation — the `num/den` divide
/// and the zero-state default — stays with the caller).
#[cfg_attr(feature = "simd", allow(unsafe_code))]
pub(crate) fn expectation_rows(
    re: &[f64],
    im: &[f64],
    points: &[f64],
    num: &mut [f64],
    den: &mut [f64],
    n: usize,
) {
    check_plane_bounds(&[re.len(), im.len()], &[num.len(), den.len()], n, points.len());
    match active_backend() {
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        KernelBackend::Avx2 => {
            let nb = n - n % avx2::LANES;
            if nb > 0 {
                // SAFETY: backend selection verified AVX2; bounds checked above.
                unsafe { avx2::expectation_rows(re, im, points, num, den, n, nb) }
            }
            if nb < n {
                scalar::expectation_rows(re, im, points, num, den, n, nb, n);
            }
        }
        #[cfg(all(feature = "simd", target_arch = "aarch64"))]
        KernelBackend::Neon => {
            let nb = n - n % neon::LANES;
            if nb > 0 {
                // SAFETY: backend selection verified NEON; bounds checked above.
                unsafe { neon::expectation_rows(re, im, points, num, den, n, nb) }
            }
            if nb < n {
                scalar::expectation_rows(re, im, points, num, den, n, nb, n);
            }
        }
        KernelBackend::Scalar => scalar::expectation_rows(re, im, points, num, den, n, 0, n),
    }
}

/// Batched upper-half probability mass accumulators (finalisation stays with
/// the caller).
#[cfg_attr(feature = "simd", allow(unsafe_code))]
pub(crate) fn probability_rows(
    re: &[f64],
    im: &[f64],
    points: &[f64],
    upper: &mut [f64],
    total: &mut [f64],
    n: usize,
) {
    check_plane_bounds(&[re.len(), im.len()], &[upper.len(), total.len()], n, points.len());
    match active_backend() {
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        KernelBackend::Avx2 => {
            let nb = n - n % avx2::LANES;
            if nb > 0 {
                // SAFETY: backend selection verified AVX2; bounds checked above.
                unsafe { avx2::probability_rows(re, im, points, upper, total, n, nb) }
            }
            if nb < n {
                scalar::probability_rows(re, im, points, upper, total, n, nb, n);
            }
        }
        #[cfg(all(feature = "simd", target_arch = "aarch64"))]
        KernelBackend::Neon => {
            let nb = n - n % neon::LANES;
            if nb > 0 {
                // SAFETY: backend selection verified NEON; bounds checked above.
                unsafe { neon::probability_rows(re, im, points, upper, total, n, nb) }
            }
            if nb < n {
                scalar::probability_rows(re, im, points, upper, total, n, nb, n);
            }
        }
        KernelBackend::Scalar => scalar::probability_rows(re, im, points, upper, total, n, 0, n),
    }
}

pub(crate) mod scalar {
    //! The pinned scalar reference kernels.
    //!
    //! Each kernel is parameterised by a column range `i0..i1` so the SIMD
    //! dispatchers can hand their remainder columns (`n % LANES`) to the
    //! *exact* code that defines the semantics — the tail is not a rewrite,
    //! it is the reference. Passing `0..n` runs the full scalar kernel; the
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

/// AVX2 backend: 4×`f64` lanes, one variable per lane.
///
/// Two schedules, chosen per kernel by what the memory system rewards:
///
/// - **Streaming kernels** (`apply_prepared_phase`, `thomas_sweep`) keep the
///   scalar row-outer loop order — whole `n`-wide grid rows are walked
///   unit-stride with the recurrence state flowing through the workspace
///   planes, so the hardware prefetcher sees the same sequential pattern the
///   scalar code produces. (A column-block-outer variant strides `n·8` bytes
///   between consecutive accesses — several KB for realistic batches — and
///   measures *slower* than scalar.)
/// - **Reduction kernels** (`apply_prepared_phase_expectation`,
///   `expectation_rows`, `probability_rows`) iterate column blocks of four
///   variables outermost and carry the accumulators (and running phase power)
///   in registers the whole way down the grid, which wins because it turns
///   the per-row accumulator read-modify-write traffic into register ops.
///
/// In both schedules the vector ops mirror the scalar expressions term for
/// term (multiply/add/subtract only, no FMA), so each lane computes the exact
/// per-variable arithmetic sequence of [`scalar`].
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
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
    /// sweeps. Must stay a multiple of every backend's lane count.
    pub(super) const THOMAS_TILE: usize = 256;

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

    /// # Safety
    ///
    /// Same plane/column contract; `num`/`den` hold `n` entries.
    #[target_feature(enable = "avx2")]
    #[allow(clippy::missing_safety_doc)]
    pub(super) unsafe fn expectation_rows(
        re: &[f64],
        im: &[f64],
        points: &[f64],
        num: &mut [f64],
        den: &mut [f64],
        n: usize,
        nb: usize,
    ) {
        let zero = _mm256_setzero_pd();
        for i in (0..nb).step_by(LANES) {
            let mut acc_num = zero;
            let mut acc_den = zero;
            for (k, &x) in points.iter().enumerate() {
                let idx = k * n + i;
                let z_r = _mm256_loadu_pd(re.as_ptr().add(idx));
                let z_i = _mm256_loadu_pd(im.as_ptr().add(idx));
                let p = _mm256_add_pd(_mm256_mul_pd(z_r, z_r), _mm256_mul_pd(z_i, z_i));
                acc_num = _mm256_add_pd(acc_num, _mm256_mul_pd(p, _mm256_set1_pd(x)));
                acc_den = _mm256_add_pd(acc_den, p);
            }
            _mm256_storeu_pd(num.as_mut_ptr().add(i), acc_num);
            _mm256_storeu_pd(den.as_mut_ptr().add(i), acc_den);
        }
    }

    /// # Safety
    ///
    /// Same plane/column contract; `upper`/`total` hold `n` entries.
    #[target_feature(enable = "avx2")]
    #[allow(clippy::missing_safety_doc)]
    pub(super) unsafe fn probability_rows(
        re: &[f64],
        im: &[f64],
        points: &[f64],
        upper: &mut [f64],
        total: &mut [f64],
        n: usize,
        nb: usize,
    ) {
        let zero = _mm256_setzero_pd();
        for i in (0..nb).step_by(LANES) {
            let mut acc_upper = zero;
            let mut acc_total = zero;
            for (k, &x) in points.iter().enumerate() {
                let idx = k * n + i;
                let z_r = _mm256_loadu_pd(re.as_ptr().add(idx));
                let z_i = _mm256_loadu_pd(im.as_ptr().add(idx));
                let p = _mm256_add_pd(_mm256_mul_pd(z_r, z_r), _mm256_mul_pd(z_i, z_i));
                acc_total = _mm256_add_pd(acc_total, p);
                if x > 0.5 {
                    acc_upper = _mm256_add_pd(acc_upper, p);
                }
            }
            _mm256_storeu_pd(upper.as_mut_ptr().add(i), acc_upper);
            _mm256_storeu_pd(total.as_mut_ptr().add(i), acc_total);
        }
    }
}

/// NEON backend: 2×`f64` lanes, one variable per lane — a line-for-line
/// mirror of the [`avx2`] schedules with the 128-bit `aarch64` intrinsics
/// (`vmulq`/`vaddq`/`vsubq` only; no `vfmaq`, which would fuse and break
/// bit-identity).
#[cfg(all(feature = "simd", target_arch = "aarch64"))]
#[allow(unsafe_code)]
mod neon {
    use crate::grid::ThomasFactors;
    use core::arch::aarch64::*;

    pub(super) const LANES: usize = 2;

    /// # Safety
    ///
    /// NEON must be available; planes must hold `res` rows of `n` columns,
    /// the per-variable buffers `n` entries, with `nb ≤ n` and `nb % 2 == 0`.
    #[target_feature(enable = "neon")]
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
        core::ptr::copy_nonoverlapping(u_re.as_ptr(), cur_re.as_mut_ptr(), nb);
        core::ptr::copy_nonoverlapping(u_im.as_ptr(), cur_im.as_mut_ptr(), nb);
        for k in 1..res {
            let base = k * n;
            for i in (0..nb).step_by(LANES) {
                let z_r = vld1q_f64(re.as_ptr().add(base + i));
                let z_i = vld1q_f64(im.as_ptr().add(base + i));
                let c_r = vld1q_f64(cur_re.as_ptr().add(i));
                let c_i = vld1q_f64(cur_im.as_ptr().add(i));
                let p_r = vsubq_f64(vmulq_f64(z_r, c_r), vmulq_f64(z_i, c_i));
                let p_i = vaddq_f64(vmulq_f64(z_r, c_i), vmulq_f64(z_i, c_r));
                vst1q_f64(re.as_mut_ptr().add(base + i), p_r);
                vst1q_f64(im.as_mut_ptr().add(base + i), p_i);
                let u_r = vld1q_f64(u_re.as_ptr().add(i));
                let u_i = vld1q_f64(u_im.as_ptr().add(i));
                let n_r = vsubq_f64(vmulq_f64(c_r, u_r), vmulq_f64(c_i, u_i));
                let n_i = vaddq_f64(vmulq_f64(c_r, u_i), vmulq_f64(c_i, u_r));
                vst1q_f64(cur_re.as_mut_ptr().add(i), n_r);
                vst1q_f64(cur_im.as_mut_ptr().add(i), n_i);
            }
        }
    }

    /// # Safety
    ///
    /// Same contract as [`apply_prepared_phase`]; `points` non-empty,
    /// `num`/`den` hold `n` entries.
    #[target_feature(enable = "neon")]
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
        let zero = vdupq_n_f64(0.0);
        for i in (0..nb).step_by(LANES) {
            let z_r = vld1q_f64(re.as_ptr().add(i));
            let z_i = vld1q_f64(im.as_ptr().add(i));
            let p = vaddq_f64(vmulq_f64(z_r, z_r), vmulq_f64(z_i, z_i));
            let x0 = vdupq_n_f64(points[0]);
            let mut acc_num = vaddq_f64(zero, vmulq_f64(p, x0));
            let mut acc_den = vaddq_f64(zero, p);
            let u_r = vld1q_f64(u_re.as_ptr().add(i));
            let u_i = vld1q_f64(u_im.as_ptr().add(i));
            let mut c_r = u_r;
            let mut c_i = u_i;
            for k in 1..res {
                let idx = k * n + i;
                let z_r = vld1q_f64(re.as_ptr().add(idx));
                let z_i = vld1q_f64(im.as_ptr().add(idx));
                let p_r = vsubq_f64(vmulq_f64(z_r, c_r), vmulq_f64(z_i, c_i));
                let p_i = vaddq_f64(vmulq_f64(z_r, c_i), vmulq_f64(z_i, c_r));
                vst1q_f64(re.as_mut_ptr().add(idx), p_r);
                vst1q_f64(im.as_mut_ptr().add(idx), p_i);
                let p = vaddq_f64(vmulq_f64(p_r, p_r), vmulq_f64(p_i, p_i));
                let x = vdupq_n_f64(*points.get_unchecked(k));
                acc_num = vaddq_f64(acc_num, vmulq_f64(p, x));
                acc_den = vaddq_f64(acc_den, p);
                let n_r = vsubq_f64(vmulq_f64(c_r, u_r), vmulq_f64(c_i, u_i));
                let n_i = vaddq_f64(vmulq_f64(c_r, u_i), vmulq_f64(c_i, u_r));
                c_r = n_r;
                c_i = n_i;
            }
            vst1q_f64(cur_re.as_mut_ptr().add(i), c_r);
            vst1q_f64(cur_im.as_mut_ptr().add(i), c_i);
            vst1q_f64(num.as_mut_ptr().add(i), acc_num);
            vst1q_f64(den.as_mut_ptr().add(i), acc_den);
        }
    }

    /// # Safety
    ///
    /// Same plane/column contract; `factors` must match `res ≥ 2` rows.
    #[target_feature(enable = "neon")]
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
        let res = factors.resolution();
        let vd = vdupq_n_f64(factors.d);
        let va = vdupq_n_f64(factors.a);
        {
            let inv_r = vdupq_n_f64(factors.inv_re[0]);
            let inv_i = vdupq_n_f64(factors.inv_im[0]);
            for i in (0..nb).step_by(LANES) {
                let c_r = vld1q_f64(re.as_ptr().add(i));
                let c_i = vld1q_f64(im.as_ptr().add(i));
                let x_r = vld1q_f64(re.as_ptr().add(n + i));
                let x_i = vld1q_f64(im.as_ptr().add(n + i));
                let rr = vaddq_f64(vaddq_f64(c_r, vmulq_f64(vd, c_i)), vmulq_f64(va, x_i));
                let ri = vsubq_f64(vsubq_f64(c_i, vmulq_f64(vd, c_r)), vmulq_f64(va, x_r));
                let p_r = vsubq_f64(vmulq_f64(rr, inv_r), vmulq_f64(ri, inv_i));
                let p_i = vaddq_f64(vmulq_f64(rr, inv_i), vmulq_f64(ri, inv_r));
                vst1q_f64(d_re.as_mut_ptr().add(i), p_r);
                vst1q_f64(d_im.as_mut_ptr().add(i), p_i);
            }
        }
        for k in 1..res {
            let inv_r = vdupq_n_f64(*factors.inv_re.get_unchecked(k));
            let inv_i = vdupq_n_f64(*factors.inv_im.get_unchecked(k));
            if k + 1 < res {
                for i in (0..nb).step_by(LANES) {
                    let prev_r = vld1q_f64(re.as_ptr().add((k - 1) * n + i));
                    let prev_i = vld1q_f64(im.as_ptr().add((k - 1) * n + i));
                    let cur_r = vld1q_f64(re.as_ptr().add(k * n + i));
                    let cur_i = vld1q_f64(im.as_ptr().add(k * n + i));
                    let next_r = vld1q_f64(re.as_ptr().add((k + 1) * n + i));
                    let next_i = vld1q_f64(im.as_ptr().add((k + 1) * n + i));
                    let dp_r = vld1q_f64(d_re.as_ptr().add((k - 1) * n + i));
                    let dp_i = vld1q_f64(d_im.as_ptr().add((k - 1) * n + i));
                    let s_r = vaddq_f64(prev_r, next_r);
                    let s_i = vaddq_f64(prev_i, next_i);
                    let t_r = vaddq_f64(
                        vaddq_f64(vaddq_f64(cur_r, vmulq_f64(vd, cur_i)), vmulq_f64(va, s_i)),
                        vmulq_f64(va, dp_i),
                    );
                    let t_i = vsubq_f64(
                        vsubq_f64(vsubq_f64(cur_i, vmulq_f64(vd, cur_r)), vmulq_f64(va, s_r)),
                        vmulq_f64(va, dp_r),
                    );
                    let p_r = vsubq_f64(vmulq_f64(t_r, inv_r), vmulq_f64(t_i, inv_i));
                    let p_i = vaddq_f64(vmulq_f64(t_r, inv_i), vmulq_f64(t_i, inv_r));
                    vst1q_f64(d_re.as_mut_ptr().add(k * n + i), p_r);
                    vst1q_f64(d_im.as_mut_ptr().add(k * n + i), p_i);
                }
            } else {
                for i in (0..nb).step_by(LANES) {
                    let prev_r = vld1q_f64(re.as_ptr().add((k - 1) * n + i));
                    let prev_i = vld1q_f64(im.as_ptr().add((k - 1) * n + i));
                    let cur_r = vld1q_f64(re.as_ptr().add(k * n + i));
                    let cur_i = vld1q_f64(im.as_ptr().add(k * n + i));
                    let dp_r = vld1q_f64(d_re.as_ptr().add((k - 1) * n + i));
                    let dp_i = vld1q_f64(d_im.as_ptr().add((k - 1) * n + i));
                    let t_r = vaddq_f64(
                        vaddq_f64(vaddq_f64(cur_r, vmulq_f64(vd, cur_i)), vmulq_f64(va, prev_i)),
                        vmulq_f64(va, dp_i),
                    );
                    let t_i = vsubq_f64(
                        vsubq_f64(vsubq_f64(cur_i, vmulq_f64(vd, cur_r)), vmulq_f64(va, prev_r)),
                        vmulq_f64(va, dp_r),
                    );
                    let p_r = vsubq_f64(vmulq_f64(t_r, inv_r), vmulq_f64(t_i, inv_i));
                    let p_i = vaddq_f64(vmulq_f64(t_r, inv_i), vmulq_f64(t_i, inv_r));
                    vst1q_f64(d_re.as_mut_ptr().add(k * n + i), p_r);
                    vst1q_f64(d_im.as_mut_ptr().add(k * n + i), p_i);
                }
            }
        }
        let last = (res - 1) * n;
        core::ptr::copy_nonoverlapping(d_re.as_ptr().add(last), re.as_mut_ptr().add(last), nb);
        core::ptr::copy_nonoverlapping(d_im.as_ptr().add(last), im.as_mut_ptr().add(last), nb);
        for k in (0..res - 1).rev() {
            let c_r = vdupq_n_f64(*factors.c_re.get_unchecked(k));
            let c_i = vdupq_n_f64(*factors.c_im.get_unchecked(k));
            for i in (0..nb).step_by(LANES) {
                let dr = vld1q_f64(d_re.as_ptr().add(k * n + i));
                let di = vld1q_f64(d_im.as_ptr().add(k * n + i));
                let nxt_r = vld1q_f64(re.as_ptr().add((k + 1) * n + i));
                let nxt_i = vld1q_f64(im.as_ptr().add((k + 1) * n + i));
                let q_r = vsubq_f64(vmulq_f64(c_r, nxt_r), vmulq_f64(c_i, nxt_i));
                let q_i = vaddq_f64(vmulq_f64(c_r, nxt_i), vmulq_f64(c_i, nxt_r));
                let p_r = vsubq_f64(dr, q_r);
                let p_i = vsubq_f64(di, q_i);
                vst1q_f64(re.as_mut_ptr().add(k * n + i), p_r);
                vst1q_f64(im.as_mut_ptr().add(k * n + i), p_i);
            }
        }
    }

    /// # Safety
    ///
    /// Same plane/column contract; `num`/`den` hold `n` entries.
    #[target_feature(enable = "neon")]
    #[allow(clippy::missing_safety_doc)]
    pub(super) unsafe fn expectation_rows(
        re: &[f64],
        im: &[f64],
        points: &[f64],
        num: &mut [f64],
        den: &mut [f64],
        n: usize,
        nb: usize,
    ) {
        let zero = vdupq_n_f64(0.0);
        for i in (0..nb).step_by(LANES) {
            let mut acc_num = zero;
            let mut acc_den = zero;
            for (k, &x) in points.iter().enumerate() {
                let idx = k * n + i;
                let z_r = vld1q_f64(re.as_ptr().add(idx));
                let z_i = vld1q_f64(im.as_ptr().add(idx));
                let p = vaddq_f64(vmulq_f64(z_r, z_r), vmulq_f64(z_i, z_i));
                acc_num = vaddq_f64(acc_num, vmulq_f64(p, vdupq_n_f64(x)));
                acc_den = vaddq_f64(acc_den, p);
            }
            vst1q_f64(num.as_mut_ptr().add(i), acc_num);
            vst1q_f64(den.as_mut_ptr().add(i), acc_den);
        }
    }

    /// # Safety
    ///
    /// Same plane/column contract; `upper`/`total` hold `n` entries.
    #[target_feature(enable = "neon")]
    #[allow(clippy::missing_safety_doc)]
    pub(super) unsafe fn probability_rows(
        re: &[f64],
        im: &[f64],
        points: &[f64],
        upper: &mut [f64],
        total: &mut [f64],
        n: usize,
        nb: usize,
    ) {
        let zero = vdupq_n_f64(0.0);
        for i in (0..nb).step_by(LANES) {
            let mut acc_upper = zero;
            let mut acc_total = zero;
            for (k, &x) in points.iter().enumerate() {
                let idx = k * n + i;
                let z_r = vld1q_f64(re.as_ptr().add(idx));
                let z_i = vld1q_f64(im.as_ptr().add(idx));
                let p = vaddq_f64(vmulq_f64(z_r, z_r), vmulq_f64(z_i, z_i));
                acc_total = vaddq_f64(acc_total, p);
                if x > 0.5 {
                    acc_upper = vaddq_f64(acc_upper, p);
                }
            }
            vst1q_f64(upper.as_mut_ptr().add(i), acc_upper);
            vst1q_f64(total.as_mut_ptr().add(i), acc_total);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_backend_is_always_selectable() {
        assert!(select_backend(KernelBackend::Scalar));
        assert_eq!(active_backend(), KernelBackend::Scalar);
        assert_eq!(KernelBackend::Scalar.name(), "scalar");
    }

    #[test]
    fn detection_is_stable_and_selectable() {
        // Whatever detection reports must be selectable, and the selection
        // must stick.
        match detected_simd() {
            Some(backend) => {
                assert!(select_backend(backend));
                assert_eq!(active_backend(), backend);
                assert!(backend.name().starts_with("qhdcd-simd-"));
                assert!(select_backend(KernelBackend::Scalar));
            }
            None => {
                // Scalar-only build or CPU: the active backend resolves to
                // scalar and stays there.
                assert!(select_backend(KernelBackend::Scalar));
                assert_eq!(active_backend(), KernelBackend::Scalar);
            }
        }
    }
}
