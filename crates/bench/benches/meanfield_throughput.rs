//! Throughput gate for the batched SoA mean-field engine.
//!
//! Compares the batched engine behind `qhdcd_qhd::meanfield::evolve` (split
//! re/im planes, shared per-step `ThomasFactors`, allocation-free workspaces)
//! against a per-variable AoS reference retained *locally in this bench* (a
//! verbatim copy of the seed's single-wavefunction kernels: per-point phase,
//! division-based Thomas elimination with three scratch allocations per call,
//! naive expectation) on a 2 000-variable, 1 %-density random QUBO at grid
//! resolutions 32 and 64. The copies are deliberately local: the library's
//! single-ψ entry points now delegate to the batched scalar kernels at n = 1,
//! so timing them would compare the engine against itself and collapse the
//! gate.
//!
//! Measurements reported:
//!
//! * **engine step loop** — the per-step propagation loop alone (potential
//!   phases, kinetic solve, fused trailing-phase expectation refresh), the
//!   part the batch engine rewrites; this carries the ≥ 4× single-core
//!   acceptance gate, and a counting global allocator asserts the batch
//!   variant performs **zero heap allocations** inside it. The batch engine
//!   runs the AVX2 build of its kernels on CPUs that have AVX2 (the same
//!   source compiled with AVX2 enabled), so there the gate times that
//!   build's step loop; elsewhere it times the plain build;
//! * **fused trailing phase + expectation** — the fused
//!   `apply_prepared_phase_expectation_batch` step loop against the unfused
//!   (separate trailing half-phase, then expectation sweep) loop it replaced,
//!   pinned bit-identical in-bench before timing;
//! * **end-to-end `evolve`** — the full trajectory including initial packet
//!   generation, mean-field coupling and measurement, reported for context;
//! * **initial packet generation** — per-variable `gaussian_state` +
//!   `set_variable` against the fused `Grid::gaussian_state_batch` fill now
//!   used by `evolve`, pinned bit-identical before timing.
//!
//! Both paths are pinned to equivalent outcomes before anything is timed, so
//! the ratios are pure engine measurements. Set `QHDCD_MEANFIELD_SMOKE=1` for
//! the CI smoke mode: a small instance, the equivalence asserts, the
//! zero-allocation assert and lenient ≥ 1× sanity gates.
//!
//! Besides the criterion groups, the bench prints a machine-readable summary
//! between `BENCH_JSON_BEGIN` / `BENCH_JSON_END` markers (captured into
//! `BENCH_refine.json` at the repo root).

use criterion::{criterion_group, criterion_main, measure, BenchmarkId, Criterion, Summary};
use qhdcd_qhd::batch::{MeanFieldWorkspace, WaveBatch};
use qhdcd_qhd::complex::Complex;
use qhdcd_qhd::grid::{Grid, ThomasFactors};
use qhdcd_qhd::meanfield::{evolve, evolve_reference, MeanFieldConfig};
use qhdcd_qhd::Schedule;
use qhdcd_qubo::generate::{random_qubo, RandomQuboConfig};
use qhdcd_qubo::QuboModel;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// `System` allocator wrapper counting every allocation, used to prove the
/// batch engine's per-step loop is allocation-free.
struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates directly to `System`; the counter is a relaxed atomic.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

const STEPS: usize = 20;
const DT: f64 = 10.0 / STEPS as f64;

struct BenchParams {
    num_variables: usize,
    density: f64,
    required_speedup: f64,
}

fn params() -> BenchParams {
    if smoke_mode() {
        BenchParams { num_variables: 240, density: 0.05, required_speedup: 1.0 }
    } else {
        BenchParams { num_variables: 2_000, density: 0.01, required_speedup: 4.0 }
    }
}

fn smoke_mode() -> bool {
    std::env::var_os("QHDCD_MEANFIELD_SMOKE").is_some_and(|v| v != "0")
}

fn gate_instance(p: &BenchParams) -> QuboModel {
    random_qubo(&RandomQuboConfig {
        num_variables: p.num_variables,
        density: p.density,
        coefficient_range: 1.0,
        seed: 2025,
    })
    .expect("valid generator configuration")
}

fn config(resolution: usize) -> MeanFieldConfig {
    MeanFieldConfig {
        schedule: Schedule::default_qhd(10.0),
        steps: STEPS,
        grid_resolution: resolution,
        shots: 4,
        seed: 7,
        randomize_initial_state: true,
        threads: 1,
    }
}

// ---------------------------------------------------------------------------
// Naive per-variable AoS kernels — verbatim copies of the seed's
// single-wavefunction `Grid` methods, kept here so the ≥ 4× gate keeps
// measuring the batch engine against the original implementation it replaced.
// ---------------------------------------------------------------------------

/// Seed copy of `Grid::apply_potential_phase`: one `sin_cos` per grid point.
fn naive_apply_potential_phase(psi: &mut [Complex], potential: &[f64], dt: f64) {
    for (p, &v) in psi.iter_mut().zip(potential) {
        *p = *p * Complex::from_polar_unit(-dt * v);
    }
}

/// Seed copy of `Grid::kinetic_step`: division-based Thomas elimination over
/// `Complex` values with three scratch allocations per call.
fn naive_kinetic_step(grid: &Grid, psi: &mut [Complex], coefficient: f64, dt: f64) {
    let n = grid.resolution();
    let h2 = grid.spacing() * grid.spacing();
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

/// Seed copy of `Grid::expectation_position`.
fn naive_expectation_position(grid: &Grid, psi: &[Complex]) -> f64 {
    let mut num = 0.0;
    let mut den = 0.0;
    for (z, &x) in psi.iter().zip(grid.points()) {
        let p = z.norm_sqr();
        num += p * x;
        den += p;
    }
    if den > 0.0 {
        num / den
    } else {
        0.5
    }
}

/// Per-step kinetic coefficient / potential slope schedule used by both timed
/// step loops (the values mimic a trajectory; both variants see exactly the
/// same sequence).
fn step_schedule(num_variables: usize) -> Vec<(f64, Vec<f64>)> {
    (0..STEPS)
        .map(|step| {
            let coeff = 1.5 / (1.0 + step as f64 * DT);
            let slopes = (0..num_variables)
                .map(|i| (step as f64 * 0.37).sin() * (0.2 + i as f64 / num_variables as f64))
                .collect();
            (coeff, slopes)
        })
        .collect()
}

/// One batch-engine propagation pass: STEPS × (factor once, half phase,
/// kinetic, fused half phase + expectation refresh). This is the
/// allocation-free per-step loop the ≥ 4× gate times.
fn batch_step_loop(
    grid: &Grid,
    batch: &mut WaveBatch,
    schedule: &[(f64, Vec<f64>)],
    factors: &mut ThomasFactors,
    ws: &mut MeanFieldWorkspace,
    expectations: &mut [f64],
) {
    for (coeff, slopes) in schedule {
        factors.factor(grid, *coeff, DT);
        grid.prepare_potential_phase_batch(batch, slopes, DT / 2.0, ws);
        grid.apply_prepared_potential_phase_batch(batch, ws);
        grid.kinetic_step_batch(batch, factors, ws);
        grid.apply_prepared_phase_expectation_batch(batch, expectations, ws);
    }
}

/// The pre-fusion variant of [`batch_step_loop`]: separate trailing
/// half-phase, then a dedicated expectation sweep (one extra full pass over
/// the batch planes per step). Timed against the fused loop for the ablation.
fn batch_step_loop_unfused(
    grid: &Grid,
    batch: &mut WaveBatch,
    schedule: &[(f64, Vec<f64>)],
    factors: &mut ThomasFactors,
    ws: &mut MeanFieldWorkspace,
    expectations: &mut [f64],
) {
    for (coeff, slopes) in schedule {
        factors.factor(grid, *coeff, DT);
        grid.prepare_potential_phase_batch(batch, slopes, DT / 2.0, ws);
        grid.apply_prepared_potential_phase_batch(batch, ws);
        grid.kinetic_step_batch(batch, factors, ws);
        grid.apply_prepared_potential_phase_batch(batch, ws);
        grid.expectation_position_batch(batch, expectations, ws);
    }
}

/// The per-variable AoS twin of [`batch_step_loop`], built from the local
/// seed-copy kernels above (per-variable potential vector, per-variable
/// Thomas elimination with its own scratch allocations).
fn reference_step_loop(
    grid: &Grid,
    states: &mut [Complex],
    schedule: &[(f64, Vec<f64>)],
    potential: &mut [f64],
    expectations: &mut [f64],
) {
    let resolution = grid.resolution();
    for (coeff, slopes) in schedule {
        for (psi, &slope) in states.chunks_exact_mut(resolution).zip(slopes.iter()) {
            for (slot, &x) in potential.iter_mut().zip(grid.points()) {
                *slot = slope * x;
            }
            naive_apply_potential_phase(psi, potential, DT / 2.0);
            naive_kinetic_step(grid, psi, *coeff, DT);
            naive_apply_potential_phase(psi, potential, DT / 2.0);
        }
        for (e, psi) in expectations.iter_mut().zip(states.chunks_exact(resolution)) {
            *e = naive_expectation_position(grid, psi);
        }
    }
}

/// Asserts batch and reference walk to bit-identical outcomes (the same
/// equivalence `tests/solver_equivalence.rs` pins, re-checked on the bench
/// instance before any timing).
fn assert_equivalent(model: &QuboModel, cfg: &MeanFieldConfig) {
    let batch = evolve(model, cfg).expect("batch engine runs");
    let reference = evolve_reference(model, cfg).expect("reference path runs");
    assert_eq!(batch.best_solution, reference.best_solution, "solutions diverged");
    assert_eq!(batch.best_energy.to_bits(), reference.best_energy.to_bits(), "energies diverged");
    for i in 0..model.num_variables() {
        assert!(
            (batch.probabilities[i] - reference.probabilities[i]).abs() <= 1e-12,
            "probability {i} diverged"
        );
    }
}

/// Strict bit-level comparison of two batches plus their expectation vectors.
fn assert_bits_identical(a: &WaveBatch, b: &WaveBatch, ea: &[f64], eb: &[f64], what: &str) {
    for (x, y) in a.re().iter().zip(b.re()).chain(a.im().iter().zip(b.im())) {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: state planes diverged");
    }
    for (x, y) in ea.iter().zip(eb) {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: expectations diverged");
    }
}

/// Initial packets for the step-loop measurements (identical for both
/// variants).
fn initial_states(grid: &Grid, n: usize) -> (WaveBatch, Vec<Complex>) {
    let mut batch = WaveBatch::zeros(n, grid.resolution());
    let mut aos = Vec::with_capacity(n * grid.resolution());
    for i in 0..n {
        let psi = grid.gaussian_state(0.25 + 0.5 * (i as f64 / n as f64), 0.2);
        batch.set_variable(i, &psi);
        aos.extend_from_slice(&psi);
    }
    (batch, aos)
}

fn bench_meanfield_throughput(c: &mut Criterion) {
    let p = params();
    let model = gate_instance(&p);
    let n = p.num_variables;
    println!(
        "instance: {} variables, {} quadratic terms (density {:.4}), steps {}, smoke={}",
        model.num_variables(),
        model.num_quadratic_terms(),
        model.density(),
        STEPS,
        smoke_mode(),
    );

    // Sanity gates before timing anything: bit-identical outcomes, zero
    // allocations inside the batch per-step loop, and fused == unfused.
    assert_equivalent(&model, &config(32));
    let schedule = step_schedule(n);
    let allocations = {
        let grid = Grid::new(32).expect("valid resolution");
        let (mut batch, _) = initial_states(&grid, n);
        let mut ws = MeanFieldWorkspace::for_batch(&batch);
        let mut factors = ThomasFactors::new();
        factors.factor(&grid, 1.0, DT); // warm the factor buffers
        let mut expectations = vec![0.0f64; n];
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        batch_step_loop(&grid, &mut batch, &schedule, &mut factors, &mut ws, &mut expectations);
        ALLOCATIONS.load(Ordering::Relaxed) - before
    };
    assert_eq!(allocations, 0, "batch per-step loop allocated {allocations} times");
    {
        let grid = Grid::new(33).expect("valid resolution");
        let (seed_batch, _) = initial_states(&grid, n);
        let mut fused = seed_batch.clone();
        let mut unfused = seed_batch;
        let mut ws = MeanFieldWorkspace::for_batch(&fused);
        let mut factors = ThomasFactors::new();
        let mut e_fused = vec![0.0f64; n];
        let mut e_unfused = vec![0.0f64; n];
        batch_step_loop(&grid, &mut fused, &schedule, &mut factors, &mut ws, &mut e_fused);
        batch_step_loop_unfused(
            &grid,
            &mut unfused,
            &schedule,
            &mut factors,
            &mut ws,
            &mut e_unfused,
        );
        assert_bits_identical(&fused, &unfused, &e_fused, &e_unfused, "fused vs unfused");
    }

    let mut group = c.benchmark_group("meanfield_throughput");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(200));
    group.measurement_time(Duration::from_secs(1));
    for resolution in [32usize, 64] {
        let grid = Grid::new(resolution).expect("valid resolution");
        let (mut batch, mut aos) = initial_states(&grid, n);
        let mut ws = MeanFieldWorkspace::for_batch(&batch);
        let mut factors = ThomasFactors::new();
        let mut potential = vec![0.0f64; resolution];
        let mut expectations = vec![0.0f64; n];
        group.bench_with_input(
            BenchmarkId::new("step_loop_reference", resolution),
            &schedule,
            |b, s| {
                b.iter(|| {
                    reference_step_loop(&grid, &mut aos, s, &mut potential, &mut expectations)
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("step_loop_batch", resolution),
            &schedule,
            |b, s| {
                b.iter(|| {
                    batch_step_loop(&grid, &mut batch, s, &mut factors, &mut ws, &mut expectations)
                })
            },
        );
    }
    {
        let cfg = config(32);
        group.bench_with_input(BenchmarkId::new("evolve_reference", 32), &model, |b, m| {
            b.iter(|| evolve_reference(m, &cfg))
        });
        group.bench_with_input(BenchmarkId::new("evolve_batch", 32), &model, |b, m| {
            b.iter(|| evolve(m, &cfg))
        });
    }
    group.finish();

    // Machine-readable speedup summary (the PR gate).
    let warm = Duration::from_millis(200);
    let window = Duration::from_secs(2);
    let time = |s: Summary| s.median.as_secs_f64() * 1e3;
    let mut engine = Vec::new();
    let mut fusion = Vec::new();
    for resolution in [32usize, 64] {
        let grid = Grid::new(resolution).expect("valid resolution");
        let (mut batch, mut aos) = initial_states(&grid, n);
        let mut ws = MeanFieldWorkspace::for_batch(&batch);
        let mut factors = ThomasFactors::new();
        let mut potential = vec![0.0f64; resolution];
        let mut expectations = vec![0.0f64; n];
        let reference = time(measure(
            || reference_step_loop(&grid, &mut aos, &schedule, &mut potential, &mut expectations),
            warm,
            window,
            10,
        ));
        let batch_ms = time(measure(
            || {
                batch_step_loop(
                    &grid,
                    &mut batch,
                    &schedule,
                    &mut factors,
                    &mut ws,
                    &mut expectations,
                )
            },
            warm,
            window,
            10,
        ));
        let unfused_ms = time(measure(
            || {
                batch_step_loop_unfused(
                    &grid,
                    &mut batch,
                    &schedule,
                    &mut factors,
                    &mut ws,
                    &mut expectations,
                )
            },
            warm,
            window,
            10,
        ));
        engine.push((resolution, reference, batch_ms, reference / batch_ms));
        fusion.push((resolution, unfused_ms, batch_ms, unfused_ms / batch_ms));
    }
    let cfg = config(32);
    let e2e_reference = time(measure(|| evolve_reference(&model, &cfg), warm, window, 10));
    let e2e_batch = time(measure(|| evolve(&model, &cfg), warm, window, 10));
    let gate_speedup = engine[0].3;

    // Initial packet generation: the fused plane-major fill against the
    // per-variable gaussian_state + set_variable path it replaced inside
    // `evolve`. Bit-identity is asserted before anything is timed.
    let mut init = Vec::new();
    for resolution in [32usize, 64] {
        let grid = Grid::new(resolution).expect("valid resolution");
        let centers: Vec<f64> = (0..n).map(|i| 0.25 + 0.5 * (i as f64 / n as f64)).collect();
        let widths: Vec<f64> = (0..n).map(|i| 0.15 + 0.2 * ((i % 7) as f64 / 7.0)).collect();
        let mut fused = WaveBatch::zeros(n, resolution);
        grid.gaussian_state_batch(&mut fused, &centers, &widths);
        for i in (0..n).step_by(n / 16 + 1) {
            assert_eq!(
                fused.variable(i),
                grid.gaussian_state(centers[i], widths[i]),
                "fused packet {i} diverged from the per-variable path"
            );
        }
        let mut per_variable = WaveBatch::zeros(n, resolution);
        let reference = time(measure(
            || {
                for i in 0..n {
                    let psi = grid.gaussian_state(centers[i], widths[i]);
                    per_variable.set_variable(i, &psi);
                }
            },
            warm,
            window,
            10,
        ));
        let batch_ms = time(measure(
            || grid.gaussian_state_batch(&mut fused, &centers, &widths),
            warm,
            window,
            10,
        ));
        init.push((resolution, reference, batch_ms, reference / batch_ms));
    }

    println!("BENCH_JSON_BEGIN");
    println!("{{");
    println!("  \"bench\": \"meanfield_throughput\",");
    println!(
        "  \"instance\": {{ \"num_variables\": {}, \"density\": {}, \"quadratic_terms\": {}, \"seed\": 2025 }},",
        p.num_variables,
        p.density,
        model.num_quadratic_terms(),
    );
    println!("  \"steps\": {STEPS}, \"smoke\": {},", smoke_mode());
    for (resolution, reference, batch_ms, speedup) in &engine {
        println!(
            "  \"engine_step_loop_resolution_{resolution}\": {{ \"reference_ms\": {reference:.3}, \"batch_ms\": {batch_ms:.3}, \"speedup\": {speedup:.2} }},"
        );
    }
    for (resolution, unfused_ms, fused_ms, speedup) in &fusion {
        println!(
            "  \"fused_expectation_resolution_{resolution}\": {{ \"unfused_ms\": {unfused_ms:.3}, \"fused_ms\": {fused_ms:.3}, \"speedup\": {speedup:.2} }},"
        );
    }
    println!(
        "  \"end_to_end_evolve_resolution_32\": {{ \"reference_ms\": {e2e_reference:.3}, \"batch_ms\": {e2e_batch:.3}, \"speedup\": {:.2} }},",
        e2e_reference / e2e_batch
    );
    for (resolution, reference, batch_ms, speedup) in &init {
        println!(
            "  \"initial_packet_generation_resolution_{resolution}\": {{ \"reference_ms\": {reference:.3}, \"batch_ms\": {batch_ms:.3}, \"speedup\": {speedup:.2} }},"
        );
    }
    println!("  \"per_step_loop_allocations\": {allocations},");
    println!(
        "  \"gate\": {{ \"required_engine_speedup_at_resolution_32\": {:.1}, \"passed\": {} }}",
        p.required_speedup,
        gate_speedup >= p.required_speedup,
    );
    println!("}}");
    println!("BENCH_JSON_END");
    assert!(
        gate_speedup >= p.required_speedup,
        "engine step-loop speedup {gate_speedup:.2}x below the {:.1}x gate at resolution 32",
        p.required_speedup
    );
}

criterion_group!(benches, bench_meanfield_throughput);
criterion_main!(benches);
