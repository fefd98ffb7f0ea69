//! Incremental local-field engine for single-flip QUBO search.
//!
//! Every local-search loop in this workspace — greedy descent, simulated
//! annealing, tabu search, the QHD post-refinement — is built from the same
//! primitive: "what would flipping variable `i` do to the energy?". Computing
//! that from scratch via [`QuboModel::flip_delta`] costs an O(deg i) CSR scan
//! per *candidate* move, even for moves that end up rejected; a full sweep of
//! candidates is O(nnz), and an annealing run performs thousands of sweeps.
//!
//! [`LocalFieldState`] removes that factor by caching, for a current
//! assignment `x`, the *local fields*
//!
//! ```text
//! field[i] = linear[i] + Σ_{j≠i} w_ij · x_j
//! ```
//!
//! and the running energy `E(x)`. With those cached:
//!
//! * a **delta query** is O(1):    `Δ_i = (1 − 2 x_i) · field[i]`,
//! * an **applied flip** is O(deg i): toggle `x_i`, add `±w_ij` to each
//!   neighbour's field, add `Δ_i` to the energy,
//! * a **bulk rebuild** is O(n + Σ deg of the set variables), used on
//!   construction and restarts.
//!
//! # Invariants
//!
//! Between public calls the state maintains exactly:
//!
//! 1. `field[i] == model.local_field(&x, i)` for every `i` (up to the
//!    floating-point rounding of a different summation order);
//! 2. `energy() == model.evaluate(&x)` (same caveat);
//! 3. `flip_delta(i) == model.flip_delta(&x, i)` follows from (1).
//!
//! Rounding drift is *bounded per flip* (one add per neighbour field, one add
//! to the energy), not amortised away: after `k` applied flips the absolute
//! energy drift is O(k·ε·scale). Search loops that run millions of flips and
//! need exact final energies should re-evaluate once at the end (the solvers
//! in this workspace report the accumulated energy, which property tests pin
//! to the exact energy within 1e-9 for realistic instance sizes). In debug
//! builds, [`LocalFieldState::debug_validate`] asserts invariants (1)–(2)
//! against the ground truth; release builds compile it to nothing.

use crate::{QuboError, QuboModel};

/// Cached local fields and running energy for a binary assignment, giving O(1)
/// single-flip energy deltas and O(deg) applied flips.
///
/// # Example
///
/// ```
/// use qhdcd_qubo::{LocalFieldState, QuboBuilder};
///
/// # fn main() -> Result<(), qhdcd_qubo::QuboError> {
/// let mut b = QuboBuilder::new(3);
/// b.add_linear(0, -1.0)?;
/// b.add_quadratic(0, 1, 2.0)?;
/// let model = b.build();
/// let mut state = LocalFieldState::new(&model, vec![false, true, false]);
/// assert_eq!(state.energy(), 0.0);
/// assert_eq!(state.flip_delta(0), 1.0); // linear −1 + coupling +2
/// state.apply_flip(1);
/// assert_eq!(state.flip_delta(0), -1.0);
/// state.apply_flip(0);
/// assert_eq!(state.energy(), -1.0);
/// assert_eq!(state.solution(), &[true, false, false]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct LocalFieldState<'m> {
    model: &'m QuboModel,
    x: Vec<bool>,
    field: Vec<f64>,
    energy: f64,
}

impl<'m> LocalFieldState<'m> {
    /// Builds the engine for `solution`, computing fields and energy in
    /// O(n + Σ deg of the set variables).
    ///
    /// # Panics
    ///
    /// Panics if `solution.len()` differs from the model's variable count.
    pub fn new(model: &'m QuboModel, solution: Vec<bool>) -> Self {
        assert_eq!(solution.len(), model.num_variables(), "solution length must match the model");
        let mut state = LocalFieldState {
            model,
            x: solution,
            field: vec![0.0; model.num_variables()],
            energy: 0.0,
        };
        state.rebuild();
        state
    }

    /// Fallible variant of [`LocalFieldState::new`].
    ///
    /// # Errors
    ///
    /// Returns [`QuboError::SolutionSizeMismatch`] on length mismatch.
    pub fn try_new(model: &'m QuboModel, solution: Vec<bool>) -> Result<Self, QuboError> {
        model.check_solution(&solution)?;
        Ok(Self::new(model, solution))
    }

    /// Recomputes every field and the energy from the current assignment in
    /// O(n + Σ deg of the set variables). Called by the constructor and by
    /// [`set_solution`]; also the escape hatch after very long flip sequences
    /// if accumulated rounding drift ever matters.
    ///
    /// Only the rows of set variables are read, in ascending order, and each
    /// is scattered into its neighbours' fields. Every field so adds its set
    /// neighbours' couplings in ascending order, and the energy its set
    /// pairs in pair order: the bits of a sweep over the sorted pair list.
    ///
    /// [`set_solution`]: LocalFieldState::set_solution
    pub fn rebuild(&mut self) {
        let model = self.model;
        let linear = model.linear();
        self.field.copy_from_slice(linear);
        let mut energy = model.offset();
        for (i, &xi) in self.x.iter().enumerate() {
            if xi {
                energy += linear[i];
            }
        }
        for i in 0..self.x.len() {
            if !self.x[i] {
                continue;
            }
            let (vars, weights) = model.row(i);
            for (&j, &w) in vars.iter().zip(weights) {
                self.field[j] += w;
                if j > i && self.x[j] {
                    energy += w;
                }
            }
        }
        self.energy = energy;
    }

    /// Replaces the assignment (same length) and rebuilds in O(n + Σ deg of
    /// the set variables), reusing the internal buffers — the cheap way to
    /// restart a search.
    ///
    /// # Errors
    ///
    /// Returns [`QuboError::SolutionSizeMismatch`] if `solution.len()` differs
    /// from the model's variable count; the state is left untouched.
    pub fn set_solution(&mut self, solution: &[bool]) -> Result<(), QuboError> {
        if solution.len() != self.x.len() {
            return Err(QuboError::SolutionSizeMismatch {
                solution: solution.len(),
                variables: self.x.len(),
            });
        }
        self.x.copy_from_slice(solution);
        self.rebuild();
        Ok(())
    }

    /// The model this state tracks.
    pub fn model(&self) -> &'m QuboModel {
        self.model
    }

    /// Number of variables.
    pub fn num_variables(&self) -> usize {
        self.x.len()
    }

    /// The current assignment.
    pub fn solution(&self) -> &[bool] {
        &self.x
    }

    /// The energy of the current assignment (maintained incrementally).
    pub fn energy(&self) -> f64 {
        self.energy
    }

    /// The cached local field of variable `i`:
    /// `linear[i] + Σ_{j≠i} w_ij x_j`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[inline]
    pub fn field(&self, i: usize) -> f64 {
        self.field[i]
    }

    /// Energy change of flipping variable `i`, in O(1).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[inline]
    pub fn flip_delta(&self, i: usize) -> f64 {
        if self.x[i] {
            -self.field[i]
        } else {
            self.field[i]
        }
    }

    /// Energy change of flipping `i` and `j` together, in O(1), given their
    /// coupling coefficient `w_ij` (zero if uncoupled). Callers iterating a CSR
    /// row already hold `w_ij`; use [`pair_flip_delta`] when they don't.
    ///
    /// The identity is `Δ_{ij} = Δ_i + Δ_j + w_ij (1−2x_i)(1−2x_j)`: the two
    /// single-flip deltas each count the joint `w_ij` term as if the other
    /// variable were fixed, and the correction accounts for both moving.
    ///
    /// [`pair_flip_delta`]: LocalFieldState::pair_flip_delta
    ///
    /// # Panics
    ///
    /// Panics if `i == j` or either index is out of range.
    #[inline]
    pub fn pair_flip_delta_with_coupling(&self, i: usize, j: usize, w_ij: f64) -> f64 {
        assert_ne!(i, j, "pair flip requires two distinct variables");
        let sign = |b: bool| if b { -1.0 } else { 1.0 };
        self.flip_delta(i) + self.flip_delta(j) + w_ij * sign(self.x[i]) * sign(self.x[j])
    }

    /// Energy change of flipping `i` and `j` together. Looks the coupling up
    /// with [`QuboModel::coupling`] (O(log deg)); prefer
    /// [`pair_flip_delta_with_coupling`] inside loops that already iterate the
    /// adjacency.
    ///
    /// [`pair_flip_delta_with_coupling`]: LocalFieldState::pair_flip_delta_with_coupling
    ///
    /// # Panics
    ///
    /// Panics if `i == j` or either index is out of range.
    pub fn pair_flip_delta(&self, i: usize, j: usize) -> f64 {
        self.pair_flip_delta_with_coupling(i, j, self.model.coupling(i, j))
    }

    /// Flips variable `i`, updating the assignment, the energy and every
    /// neighbour's field in O(deg i). Returns the applied energy delta.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn apply_flip(&mut self, i: usize) -> f64 {
        let delta = self.flip_delta(i);
        self.energy += delta;
        let now_set = !self.x[i];
        self.x[i] = now_set;
        if now_set {
            for (j, w) in self.model.couplings(i) {
                self.field[j] += w;
            }
        } else {
            for (j, w) in self.model.couplings(i) {
                self.field[j] -= w;
            }
        }
        delta
    }

    /// Flips `i` and `j` together in O(deg i + deg j). Returns the applied
    /// energy delta (equal to [`pair_flip_delta`] up to rounding).
    ///
    /// [`pair_flip_delta`]: LocalFieldState::pair_flip_delta
    ///
    /// # Panics
    ///
    /// Panics if `i == j` or either index is out of range.
    pub fn apply_pair_flip(&mut self, i: usize, j: usize) -> f64 {
        assert_ne!(i, j, "pair flip requires two distinct variables");
        self.apply_flip(i) + self.apply_flip(j)
    }

    /// Energy change of *reassigning* the set bit `i` to the clear bit `j`
    /// (clear `x_i`, set `x_j`), in O(1), given their coupling `w_ij`.
    ///
    /// This is the native move of one-hot encodings: moving a node between two
    /// community slots clears one indicator and sets another, and pricing the
    /// move as two independent flips would double-count the high one-hot
    /// penalty of the invalid intermediate state. The identity is
    /// `Δ = −field[i] + field[j] − w_ij` (both single-flip deltas count the
    /// joint term as if the other bit were fixed; since the bits move in
    /// opposite directions the correction is `−w_ij`).
    ///
    /// # Panics
    ///
    /// Panics if `i == j` or either index is out of range. Debug builds also
    /// assert the move's orientation (`x_i` set, `x_j` clear).
    #[inline]
    pub fn reassign_delta_with_coupling(&self, i: usize, j: usize, w_ij: f64) -> f64 {
        assert_ne!(i, j, "reassign requires two distinct variables");
        debug_assert!(
            self.x[i] && !self.x[j],
            "reassign moves the set bit {i} to the clear bit {j}"
        );
        // Same association as `apply_reassign` accumulates, so the predicted
        // and applied deltas agree bit for bit.
        -self.field[i] + (self.field[j] - w_ij)
    }

    /// Energy change of reassigning the set bit `i` to the clear bit `j`.
    /// Looks the coupling up with [`QuboModel::coupling`] (O(log deg)); prefer
    /// [`reassign_delta_with_coupling`] inside loops that already hold `w_ij`.
    ///
    /// [`reassign_delta_with_coupling`]: LocalFieldState::reassign_delta_with_coupling
    ///
    /// # Panics
    ///
    /// Panics if `i == j` or either index is out of range.
    pub fn reassign_delta(&self, i: usize, j: usize) -> f64 {
        self.reassign_delta_with_coupling(i, j, self.model.coupling(i, j))
    }

    /// Reassigns the set bit `i` to the clear bit `j` in one fused
    /// O(deg i + deg j) pass: clears `x_i`, sets `x_j`, updates every
    /// neighbour's field and the energy. Returns the applied energy delta
    /// (equal to [`reassign_delta`] up to rounding).
    ///
    /// Unlike [`apply_pair_flip`], the energy never passes through the invalid
    /// intermediate state, and the coupling `w_ij` is picked up during the
    /// neighbour sweep instead of a separate lookup.
    ///
    /// [`reassign_delta`]: LocalFieldState::reassign_delta
    /// [`apply_pair_flip`]: LocalFieldState::apply_pair_flip
    ///
    /// # Panics
    ///
    /// Panics if `i == j` or either index is out of range. Debug builds also
    /// assert the move's orientation (`x_i` set, `x_j` clear).
    pub fn apply_reassign(&mut self, i: usize, j: usize) -> f64 {
        assert_ne!(i, j, "reassign requires two distinct variables");
        debug_assert!(
            self.x[i] && !self.x[j],
            "reassign moves the set bit {i} to the clear bit {j}"
        );
        let field_i = self.field[i];
        let field_j = self.field[j];
        let mut w_ij = 0.0;
        for (v, w) in self.model.couplings(i) {
            if v == j {
                w_ij = w;
            }
            self.field[v] -= w;
        }
        for (v, w) in self.model.couplings(j) {
            self.field[v] += w;
        }
        self.x[i] = false;
        self.x[j] = true;
        // Same association as the sum of the two sequential flip deltas of
        // `apply_pair_flip`: (−field_i) + (field_j − w_ij).
        let delta = -field_i + (field_j - w_ij);
        self.energy += delta;
        delta
    }

    /// One first-improvement single-flip sweep: visits every variable in
    /// ascending order and applies each flip whose delta is below `−1e-15`.
    /// Returns whether any flip was applied. This is the shared inner sweep of
    /// every descent in the workspace (QHD refinement, the classical
    /// baselines, the portfolio runtime), kept in one place so their
    /// trajectories stay identical by construction.
    pub fn single_flip_sweep(&mut self) -> bool {
        let mut improved = false;
        for i in 0..self.x.len() {
            if self.flip_delta(i) < -1e-15 {
                self.apply_flip(i);
                improved = true;
            }
        }
        improved
    }

    /// One coupled-pair sweep: for every quadratic term `(i, j)` with `i < j`
    /// (iterated per CSR row, so the coupling is already in hand), applies the
    /// pair move if its delta is below `−1e-15`. An improving pair with one
    /// set and one clear bit is applied as the native [`apply_reassign`] (the
    /// one-hot "move the indicator" move); same-state pairs fall back to
    /// [`apply_pair_flip`]. Returns whether any move was applied.
    ///
    /// Each row starts at its first `j > i`. The delta is
    /// [`pair_flip_delta_with_coupling`]'s, bit for bit: `Δ_i` and `x_i` stay
    /// in locals until a move touches `i`, and the sign factors, each a
    /// multiplication by ±1 and so exact, are applied as sign-bit flips.
    ///
    /// [`apply_reassign`]: LocalFieldState::apply_reassign
    /// [`apply_pair_flip`]: LocalFieldState::apply_pair_flip
    /// [`pair_flip_delta_with_coupling`]: LocalFieldState::pair_flip_delta_with_coupling
    pub fn coupled_pair_sweep(&mut self) -> bool {
        /// `value`, negated when `negate` holds.
        fn flip(value: f64, negate: bool) -> f64 {
            f64::from_bits(value.to_bits() ^ (u64::from(negate) << 63))
        }
        let model = self.model;
        let mut improved = false;
        for i in 0..self.x.len() {
            let (vars, weights) = model.row(i);
            let above = vars.partition_point(|&j| j <= i);
            let mut x_i = self.x[i];
            let mut delta_i = flip(self.field[i], x_i);
            for (&j, &w_ij) in vars[above..].iter().zip(&weights[above..]) {
                let x_j = self.x[j];
                if delta_i + flip(self.field[j], x_j) + flip(w_ij, x_i ^ x_j) < -1e-15 {
                    match (x_i, x_j) {
                        (true, false) => self.apply_reassign(i, j),
                        (false, true) => self.apply_reassign(j, i),
                        _ => self.apply_pair_flip(i, j),
                    };
                    improved = true;
                    x_i = self.x[i];
                    delta_i = flip(self.field[i], x_i);
                }
            }
        }
        improved
    }

    /// Consumes the engine, returning the assignment and its energy.
    pub fn into_solution(self) -> (Vec<bool>, f64) {
        (self.x, self.energy)
    }

    /// Largest absolute discrepancy between the cached state and the ground
    /// truth recomputed from the model: `max(|energy − evaluate(x)|, max_i
    /// |field[i] − local_field(x, i)|)`. O(n·deg + nnz); exposed for tests and
    /// debug assertions.
    pub fn consistency_error(&self) -> f64 {
        let exact = self.model.evaluate(&self.x).expect("length enforced on construction");
        let mut worst = (self.energy - exact).abs();
        for i in 0..self.x.len() {
            worst = worst.max((self.field[i] - self.model.local_field(&self.x, i)).abs());
        }
        worst
    }

    /// Debug-mode consistency check: asserts the cached fields and energy
    /// agree with [`QuboModel::evaluate`] / [`QuboModel::local_field`] within
    /// a scale-relative tolerance. Compiled out in release builds; the
    /// refactored search loops call it on exit.
    #[inline]
    pub fn debug_validate(&self) {
        #[cfg(debug_assertions)]
        {
            let scale =
                1.0 + self.energy.abs() + self.field.iter().fold(0.0f64, |m, f| m.max(f.abs()));
            let err = self.consistency_error();
            assert!(
                err <= 1e-8 * scale,
                "local-field state out of sync: error {err:e} at scale {scale:e}"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{random_qubo, RandomQuboConfig};
    use crate::QuboBuilder;
    use rand::prelude::*;
    use rand_chacha::ChaCha8Rng;

    fn random_model(n: usize, density: f64, seed: u64) -> QuboModel {
        random_qubo(&RandomQuboConfig { num_variables: n, density, coefficient_range: 2.0, seed })
            .unwrap()
    }

    #[test]
    fn fields_and_energy_match_model_on_construction() {
        let model = random_model(40, 0.3, 1);
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let x: Vec<bool> = (0..40).map(|_| rng.gen()).collect();
        let state = LocalFieldState::new(&model, x.clone());
        assert!((state.energy() - model.evaluate(&x).unwrap()).abs() < 1e-12);
        for i in 0..40 {
            assert!((state.field(i) - model.local_field(&x, i)).abs() < 1e-12);
            assert!((state.flip_delta(i) - model.flip_delta(&x, i)).abs() < 1e-12);
        }
        assert_eq!(state.consistency_error(), state.consistency_error()); // finite
        state.debug_validate();
    }

    #[test]
    fn deltas_stay_consistent_through_long_random_flip_sequences() {
        let model = random_model(30, 0.4, 2);
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mut state = LocalFieldState::new(&model, vec![false; 30]);
        let mut mirror = vec![false; 30];
        for _ in 0..2_000 {
            let i = rng.gen_range(0..30);
            let predicted = state.flip_delta(i);
            let before = model.evaluate(&mirror).unwrap();
            mirror[i] = !mirror[i];
            let after = model.evaluate(&mirror).unwrap();
            assert!((predicted - (after - before)).abs() < 1e-9, "flip {i}");
            let applied = state.apply_flip(i);
            assert_eq!(applied, predicted);
        }
        assert_eq!(state.solution(), &mirror[..]);
        assert!((state.energy() - model.evaluate(&mirror).unwrap()).abs() < 1e-9);
        assert!(state.consistency_error() < 1e-9);
    }

    #[test]
    fn pair_deltas_match_reevaluation_with_and_without_coupling_lookup() {
        let model = random_model(15, 0.5, 4);
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let x: Vec<bool> = (0..15).map(|_| rng.gen()).collect();
        let state = LocalFieldState::new(&model, x.clone());
        let base = model.evaluate(&x).unwrap();
        for i in 0..15 {
            for j in 0..15 {
                if i == j {
                    continue;
                }
                let mut y = x.clone();
                y[i] = !y[i];
                y[j] = !y[j];
                let exact = model.evaluate(&y).unwrap() - base;
                assert!((state.pair_flip_delta(i, j) - exact).abs() < 1e-9, "pair ({i},{j})");
                let w = model.coupling(i, j);
                assert!(
                    (state.pair_flip_delta_with_coupling(i, j, w) - exact).abs() < 1e-9,
                    "pair ({i},{j}) with explicit coupling"
                );
            }
        }
    }

    #[test]
    fn apply_pair_flip_updates_assignment_and_energy() {
        let model = random_model(20, 0.3, 6);
        let mut state = LocalFieldState::new(&model, vec![true; 20]);
        let predicted = state.pair_flip_delta(3, 11);
        let before = state.energy();
        let applied = state.apply_pair_flip(3, 11);
        assert!((applied - predicted).abs() < 1e-9);
        assert!((state.energy() - (before + applied)).abs() < 1e-12);
        assert!(!state.solution()[3] && !state.solution()[11]);
        state.debug_validate();
    }

    #[test]
    fn set_solution_rebuilds_for_restarts() {
        let model = random_model(25, 0.3, 7);
        let mut state = LocalFieldState::new(&model, vec![false; 25]);
        state.apply_flip(0);
        state.apply_flip(10);
        let restart = vec![true; 25];
        state.set_solution(&restart).unwrap();
        assert_eq!(state.solution(), &restart[..]);
        assert!((state.energy() - model.evaluate(&restart).unwrap()).abs() < 1e-12);
        state.debug_validate();
    }

    #[test]
    fn try_new_rejects_wrong_lengths() {
        let model = QuboBuilder::new(3).build();
        assert!(LocalFieldState::try_new(&model, vec![false; 2]).is_err());
        assert!(LocalFieldState::try_new(&model, vec![false; 3]).is_ok());
    }

    #[test]
    fn set_solution_rejects_wrong_lengths_and_leaves_state_intact() {
        // Regression: a wrong-length restart vector used to panic (index out of
        // bounds in the rebuild); it must instead surface a QuboError and keep
        // the engine usable.
        let model = random_model(10, 0.4, 11);
        let mut state = LocalFieldState::new(&model, vec![true; 10]);
        let energy_before = state.energy();
        let err = state.set_solution(&[false; 7]).unwrap_err();
        assert!(matches!(err, QuboError::SolutionSizeMismatch { solution: 7, variables: 10 }));
        let err = state.set_solution(&[false; 12]).unwrap_err();
        assert!(matches!(err, QuboError::SolutionSizeMismatch { solution: 12, variables: 10 }));
        assert_eq!(state.energy(), energy_before);
        assert_eq!(state.solution(), &[true; 10]);
        state.debug_validate();
        assert!(state.set_solution(&[false; 10]).is_ok());
    }

    #[test]
    fn reassign_delta_matches_reevaluation_on_one_hot_states() {
        // A one-hot style instance: 5 "nodes" × 3 "slots" with exactly-one
        // penalties, plus random couplings across groups.
        let mut b = QuboBuilder::new(15);
        for node in 0..5 {
            let vars: Vec<usize> = (0..3).map(|c| node * 3 + c).collect();
            b.add_penalty_exactly_one(&vars, 8.0).unwrap();
        }
        let mut rng = ChaCha8Rng::seed_from_u64(17);
        for i in 0..15 {
            for j in (i + 1)..15 {
                if i / 3 != j / 3 && rng.gen::<f64>() < 0.4 {
                    b.add_quadratic(i, j, rng.gen::<f64>() * 2.0 - 1.0).unwrap();
                }
            }
        }
        let model = b.build();
        // One-hot assignment: node `n` sits in slot `n % 3`.
        let mut x = vec![false; 15];
        for node in 0..5 {
            x[node * 3 + node % 3] = true;
        }
        let state = LocalFieldState::new(&model, x.clone());
        let base = model.evaluate(&x).unwrap();
        for node in 0..5 {
            let from = node * 3 + node % 3;
            for slot in 0..3 {
                let to = node * 3 + slot;
                if to == from {
                    continue;
                }
                let mut y = x.clone();
                y[from] = false;
                y[to] = true;
                let exact = model.evaluate(&y).unwrap() - base;
                assert!(
                    (state.reassign_delta(from, to) - exact).abs() < 1e-9,
                    "node {node}: {from} -> {to}"
                );
                let w = model.coupling(from, to);
                assert!(
                    (state.reassign_delta_with_coupling(from, to, w) - exact).abs() < 1e-9,
                    "node {node}: {from} -> {to} with explicit coupling"
                );
                // The reassign delta equals the pair-flip delta for this
                // orientation — it is the same move, priced natively.
                assert!(
                    (state.reassign_delta(from, to) - state.pair_flip_delta(from, to)).abs()
                        < 1e-12
                );
            }
        }
    }

    #[test]
    fn apply_reassign_matches_pair_flip_and_keeps_state_consistent() {
        let model = random_model(30, 0.3, 19);
        let mut rng = ChaCha8Rng::seed_from_u64(23);
        let x: Vec<bool> = (0..30).map(|_| rng.gen()).collect();
        let mut via_reassign = LocalFieldState::new(&model, x.clone());
        let mut via_pair = LocalFieldState::new(&model, x);
        for _ in 0..200 {
            let set: Vec<usize> = (0..30).filter(|&i| via_reassign.solution()[i]).collect();
            let clear: Vec<usize> = (0..30).filter(|&i| !via_reassign.solution()[i]).collect();
            if set.is_empty() || clear.is_empty() {
                break;
            }
            let i = set[rng.gen_range(0..set.len())];
            let j = clear[rng.gen_range(0..clear.len())];
            let predicted = via_reassign.reassign_delta(i, j);
            let applied = via_reassign.apply_reassign(i, j);
            assert_eq!(applied, predicted, "reassign {i} -> {j}");
            via_pair.apply_pair_flip(i, j);
            assert_eq!(via_reassign.solution(), via_pair.solution());
            assert!((via_reassign.energy() - via_pair.energy()).abs() < 1e-9);
        }
        via_reassign.debug_validate();
        assert!(via_reassign.consistency_error() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "two distinct variables")]
    fn reassign_rejects_identical_indices() {
        let model = QuboBuilder::new(2).build();
        let state = LocalFieldState::new(&model, vec![true, false]);
        state.reassign_delta_with_coupling(1, 1, 0.0);
    }

    #[test]
    #[should_panic(expected = "must match the model")]
    fn new_panics_on_wrong_length() {
        let model = QuboBuilder::new(3).build();
        LocalFieldState::new(&model, vec![false; 4]);
    }

    #[test]
    fn into_solution_round_trips() {
        let model = random_model(10, 0.5, 8);
        let mut state = LocalFieldState::new(&model, vec![false; 10]);
        state.apply_flip(2);
        let energy = state.energy();
        let (x, e) = state.into_solution();
        assert_eq!(e, energy);
        assert!(x[2]);
        assert!((model.evaluate(&x).unwrap() - e).abs() < 1e-12);
    }

    #[test]
    fn offset_and_empty_models_are_handled() {
        let mut b = QuboBuilder::new(2);
        b.set_offset(2.5);
        let model = b.build();
        let mut state = LocalFieldState::new(&model, vec![false, false]);
        assert_eq!(state.energy(), 2.5);
        assert_eq!(state.flip_delta(0), 0.0);
        state.apply_flip(0);
        assert_eq!(state.energy(), 2.5);
        state.debug_validate();
    }
}
