//! Exact QHD simulation on the Boolean hypercube.
//!
//! For a QUBO over `n` binary variables the natural discretisation of the QHD
//! Hamiltonian lives on the hypercube `{0,1}ⁿ`: the kinetic term `−½Δ` becomes
//! `½ L` with `L` the hypercube graph Laplacian (bit-flip mixing, the discrete
//! analogue of the continuum Laplacian and the same operator family used by
//! Hamiltonian-embedding implementations of QHD), and the potential term is the
//! diagonal matrix of QUBO energies. The state vector has `2ⁿ` amplitudes, so
//! this backend is exact but limited to small instances — it is used for
//! validation, for unit tests of tunnelling behaviour and for very coarse
//! graphs in the multilevel pipeline.

use crate::complex::{normalize, Complex};
use crate::schedule::{check_total_time, Schedule};
use qhdcd_qubo::{LocalFieldState, QuboError, QuboModel};
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;

/// Hard cap on the number of variables the exact backend accepts (2¹⁸ amplitudes).
pub const MAX_EXACT_VARIABLES: usize = 18;

/// Configuration of the exact hypercube simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct StateVectorConfig {
    /// The damping schedule (and total evolution time).
    pub schedule: Schedule,
    /// Number of integration steps.
    pub steps: usize,
    /// Number of measurement shots drawn from the final state.
    pub shots: usize,
    /// RNG seed for the measurement shots.
    pub seed: u64,
}

impl Default for StateVectorConfig {
    fn default() -> Self {
        StateVectorConfig { schedule: Schedule::default_qhd(10.0), steps: 400, shots: 64, seed: 0 }
    }
}

/// Result of an exact QHD evolution.
#[derive(Debug, Clone)]
pub struct StateVectorOutcome {
    /// Best measured assignment.
    pub best_solution: Vec<bool>,
    /// Energy of the best measured assignment.
    pub best_energy: f64,
    /// Final probability of measuring the best assignment.
    pub best_probability: f64,
    /// Full final probability distribution over the `2ⁿ` assignments.
    pub distribution: Vec<f64>,
}

/// Checks an exact-simulation configuration against `model`: 1 to
/// [`MAX_EXACT_VARIABLES`] variables, positive steps, and a total time that is
/// finite and positive, in that order.
pub(crate) fn validate(model: &QuboModel, config: &StateVectorConfig) -> Result<(), QuboError> {
    let n = model.num_variables();
    if n == 0 || n > MAX_EXACT_VARIABLES {
        return Err(QuboError::InvalidConfig {
            reason: format!(
                "exact state-vector backend supports 1..={MAX_EXACT_VARIABLES} variables, got {n}"
            ),
        });
    }
    if config.steps == 0 {
        return Err(QuboError::InvalidConfig { reason: "steps must be positive".into() });
    }
    check_total_time(config.schedule.total_time())
}

/// Runs the exact QHD evolution for `model` and measures the final state.
///
/// # Errors
///
/// Returns [`QuboError::InvalidConfig`] if the model has more than
/// [`MAX_EXACT_VARIABLES`] variables or the configuration is degenerate (zero
/// steps, or a schedule whose total time is not finite and positive).
///
/// # Example
///
/// ```
/// use qhdcd_qubo::QuboBuilder;
/// use qhdcd_qhd::statevector::{evolve, StateVectorConfig};
///
/// # fn main() -> Result<(), qhdcd_qubo::QuboError> {
/// let mut b = QuboBuilder::new(2);
/// b.add_linear(0, -1.0)?;
/// b.add_quadratic(0, 1, 2.0)?;
/// let model = b.build();
/// let out = evolve(&model, &StateVectorConfig::default())?;
/// // Global optimum is x = (1, 0) with energy −1.
/// assert_eq!(out.best_solution, vec![true, false]);
/// # Ok(())
/// # }
/// ```
pub fn evolve(
    model: &QuboModel,
    config: &StateVectorConfig,
) -> Result<StateVectorOutcome, QuboError> {
    validate(model, config)?;
    let n = model.num_variables();
    let dim = 1usize << n;

    // Pre-compute the diagonal potential: QUBO energy of every assignment,
    // enumerated in Gray-code order so consecutive assignments differ by one
    // bit and the incremental local-field engine prices each step in O(deg)
    // instead of a full O(n + nnz) re-evaluation — O(2ⁿ·avg_deg) total.
    let mut energies = vec![0.0f64; dim];
    let mut walker = LocalFieldState::new(model, vec![false; n]);
    energies[0] = walker.energy();
    let mut previous_gray = 0usize;
    for k in 1..dim {
        let gray = k ^ (k >> 1);
        let flipped_bit = (previous_gray ^ gray).trailing_zeros() as usize;
        walker.apply_flip(flipped_bit);
        energies[gray] = walker.energy();
        previous_gray = gray;
    }
    walker.debug_validate();
    // Normalise the potential to O(1) scale so one schedule fits all instances.
    let (min_e, max_e) = energies
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &e| (lo.min(e), hi.max(e)));
    let span = (max_e - min_e).max(1e-12);
    let potential: Vec<f64> = energies.iter().map(|&e| (e - min_e) / span).collect();

    // Initial state: uniform superposition (kinetic ground state).
    let mut psi = vec![Complex::from_real(1.0 / (dim as f64).sqrt()); dim];

    // Strang split-step integration of i dψ/dt = H(t) ψ.
    //
    // The hypercube Laplacian is a sum of commuting single-bit Laplacians, so
    // the kinetic propagator factorises exactly into 2×2 rotations applied per
    // bit; the potential propagator is a diagonal phase. Both factors are
    // exactly unitary, so the evolution is unconditionally stable.
    let dt = config.schedule.total_time() / config.steps as f64;
    let apply_potential_phase = |psi: &mut [Complex], strength: f64| {
        for (z, &v) in psi.iter_mut().zip(&potential) {
            *z = *z * Complex::from_polar_unit(-strength * v);
        }
    };
    let apply_kinetic = |psi: &mut [Complex], theta: f64| {
        // e^{-iθ L_bit} = I − c·L_bit with c = (1 − e^{-2iθ})/2, applied to every bit.
        let c = (Complex::ONE - Complex::from_polar_unit(-2.0 * theta)).scale(0.5);
        for bit in 0..n {
            let mask = 1usize << bit;
            for state in 0..dim {
                if state & mask == 0 {
                    let partner = state | mask;
                    let a = psi[state];
                    let b = psi[partner];
                    let diff = a - b;
                    psi[state] = a - c * diff;
                    psi[partner] = b + c * diff;
                }
            }
        }
    };
    // The trailing half phase of step t and the leading half phase of step
    // t+1 are both diagonal in the same potential, so they fuse into a single
    // multiplication with the summed strength — the same unitary with half
    // the sin/cos evaluations over the dominant 2ⁿ-element loop. (The
    // periodic renormalisation is a real scalar and commutes with diagonal
    // phases, so fusing across it is exact up to rounding.)
    let mut pending_strength = 0.0;
    for step in 0..config.steps {
        let t_mid = (step as f64 + 0.5) * dt;
        let k = config.schedule.kinetic(t_mid);
        let p = config.schedule.potential(t_mid);
        apply_potential_phase(&mut psi, pending_strength + 0.5 * dt * p);
        // Kinetic term is ½ L, so the per-step angle is dt·k/2.
        apply_kinetic(&mut psi, 0.5 * dt * k);
        pending_strength = 0.5 * dt * p;
        // Guard against floating-point drift over long evolutions.
        if step % 64 == 63 {
            normalize(&mut psi);
        }
    }
    apply_potential_phase(&mut psi, pending_strength);
    normalize(&mut psi);

    let distribution: Vec<f64> = psi.iter().map(|z| z.norm_sqr()).collect();

    // Measurement: draw shots from the distribution and keep the best energy,
    // also always considering the most probable state.
    let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
    let most_probable = distribution
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).expect("probabilities are finite"))
        .map(|(i, _)| i)
        .unwrap_or(0);
    let mut best_state = most_probable;
    let mut best_energy = energies[most_probable];
    for _ in 0..config.shots {
        let state = sample_index(&distribution, &mut rng);
        if energies[state] < best_energy {
            best_energy = energies[state];
            best_state = state;
        }
    }
    let best_solution: Vec<bool> = (0..n).map(|i| (best_state >> i) & 1 == 1).collect();
    // The Gray-code walk accumulates one rounding per flip; report the exactly
    // re-evaluated energy of the chosen assignment.
    let best_energy = model.evaluate(&best_solution)?;
    Ok(StateVectorOutcome {
        best_solution,
        best_energy,
        best_probability: distribution[best_state],
        distribution,
    })
}

/// Samples an index proportionally to the (non-negative) weights.
fn sample_index<R: Rng>(weights: &[f64], rng: &mut R) -> usize {
    let total: f64 = weights.iter().sum();
    if total <= 0.0 {
        return rng.gen_range(0..weights.len());
    }
    let mut target = rng.gen::<f64>() * total;
    for (i, &w) in weights.iter().enumerate() {
        target -= w;
        if target <= 0.0 {
            return i;
        }
    }
    weights.len() - 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use qhdcd_qubo::QuboBuilder;

    fn brute_force_minimum(model: &QuboModel) -> f64 {
        let n = model.num_variables();
        (0..1usize << n)
            .map(|bits| {
                let x: Vec<bool> = (0..n).map(|i| (bits >> i) & 1 == 1).collect();
                model.evaluate(&x).unwrap()
            })
            .fold(f64::INFINITY, f64::min)
    }

    #[test]
    fn rejects_oversized_and_degenerate_inputs() {
        let model = QuboBuilder::new(MAX_EXACT_VARIABLES + 1).build();
        assert!(evolve(&model, &StateVectorConfig::default()).is_err());
        let model = QuboBuilder::new(0).build();
        assert!(evolve(&model, &StateVectorConfig::default()).is_err());
        let model = QuboBuilder::new(2).build();
        let bad = StateVectorConfig { steps: 0, ..StateVectorConfig::default() };
        assert!(evolve(&model, &bad).is_err());
    }

    #[test]
    fn finds_the_optimum_of_a_simple_instance() {
        // Minimise −x0 − x1 + 2 x0 x1 + x2: optimum at exactly one of x0/x1 set, x2 = 0.
        let mut b = QuboBuilder::new(3);
        b.add_linear(0, -1.0).unwrap();
        b.add_linear(1, -1.0).unwrap();
        b.add_quadratic(0, 1, 2.0).unwrap();
        b.add_linear(2, 1.0).unwrap();
        let model = b.build();
        let out = evolve(&model, &StateVectorConfig::default()).unwrap();
        assert!((out.best_energy - (-1.0)).abs() < 1e-9);
        assert!(!out.best_solution[2]);
        assert_eq!(out.distribution.len(), 8);
    }

    #[test]
    fn distribution_is_normalised_and_concentrates_on_low_energy() {
        let mut b = QuboBuilder::new(4);
        b.add_linear(0, -2.0).unwrap();
        b.add_linear(1, -2.0).unwrap();
        b.add_quadratic(2, 3, 1.5).unwrap();
        let model = b.build();
        let out = evolve(&model, &StateVectorConfig::default()).unwrap();
        let total: f64 = out.distribution.iter().sum();
        assert!((total - 1.0).abs() < 1e-6);
        // The optimum (x0 = x1 = 1, x2 = x3 = 0 → index 0b0011 = 3) should carry
        // more probability than the uniform 1/16.
        assert!(out.distribution[3] > 1.0 / 16.0);
        assert!((out.best_energy - brute_force_minimum(&model)).abs() < 1e-9);
    }

    #[test]
    fn matches_brute_force_on_random_instances() {
        use qhdcd_qubo::generate::{random_qubo, RandomQuboConfig};
        for seed in 0..3 {
            let model = random_qubo(&RandomQuboConfig {
                num_variables: 6,
                density: 0.5,
                coefficient_range: 1.0,
                seed,
            })
            .unwrap();
            let out = evolve(&model, &StateVectorConfig::default()).unwrap();
            let optimum = brute_force_minimum(&model);
            // QHD with measurement shots should land at or very near the optimum
            // for such small instances.
            assert!(
                out.best_energy <= optimum + 0.15 * optimum.abs().max(1.0),
                "seed={seed} best={} optimum={optimum}",
                out.best_energy
            );
        }
    }

    #[test]
    fn tunnelling_escapes_a_local_minimum() {
        // A frustrated instance whose greedy descent from the all-zero state gets
        // stuck: single-flip gains from 0000 all look bad, but the global optimum
        // sets two specific variables jointly.
        let mut b = QuboBuilder::new(2);
        b.add_linear(0, 0.4).unwrap();
        b.add_linear(1, 0.4).unwrap();
        b.add_quadratic(0, 1, -1.5).unwrap();
        let model = b.build();
        // Greedy from all-zero is stuck: each single flip increases the energy.
        assert!(model.flip_delta(&[false, false], 0) > 0.0);
        assert!(model.flip_delta(&[false, false], 1) > 0.0);
        // The global optimum is (1, 1) with energy −0.7; QHD tunnels to it.
        let out = evolve(&model, &StateVectorConfig::default()).unwrap();
        assert_eq!(out.best_solution, vec![true, true]);
        assert!((out.best_energy - (-0.7)).abs() < 1e-9);
    }

    #[test]
    fn sample_index_respects_weights() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let weights = [0.0, 0.0, 1.0, 0.0];
        for _ in 0..20 {
            assert_eq!(sample_index(&weights, &mut rng), 2);
        }
        // Degenerate all-zero weights still return a valid index.
        let idx = sample_index(&[0.0, 0.0], &mut rng);
        assert!(idx < 2);
    }
}
