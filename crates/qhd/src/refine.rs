//! Classical post-processing of QHD measurement outcomes.
//!
//! QHDOPT follows every quantum(-inspired) sample with a cheap classical
//! descent that projects the rounded solution onto a local minimum of the
//! QUBO. [`QhdSolver`](crate::QhdSolver) runs those descents on its workers'
//! engines through [`qhdcd_solvers::local_search`]; this module wraps the same
//! loops for owned solutions. Both run on [`LocalFieldState`], which prices a
//! candidate flip in O(1), so a sweep costs O(n) plus O(deg) per accepted flip.

use qhdcd_qubo::{Budget, LocalFieldState, QuboModel};
use qhdcd_solvers::local_search;

/// First-improvement local search: sweeps the variables in order and applies
/// every improving flip immediately, until a full sweep makes no change or
/// `max_sweeps` is reached. Returns the (possibly improved) solution and its
/// energy. The QHD solver uses it for mean-field runs too large for
/// [`pair_aware_descent`].
///
/// # Panics
///
/// Panics if `solution.len()` differs from the model's variable count.
///
/// # Example
///
/// ```
/// use qhdcd_qubo::QuboBuilder;
/// use qhdcd_qhd::refine::first_improvement_descent;
///
/// # fn main() -> Result<(), qhdcd_qubo::QuboError> {
/// let mut b = QuboBuilder::new(2);
/// b.add_linear(0, -1.0)?;
/// let model = b.build();
/// let (solution, energy) = first_improvement_descent(&model, vec![false, false], 10);
/// assert_eq!(solution, vec![true, false]);
/// assert_eq!(energy, -1.0);
/// # Ok(())
/// # }
/// ```
pub fn first_improvement_descent(
    model: &QuboModel,
    solution: Vec<bool>,
    max_sweeps: usize,
) -> (Vec<bool>, f64) {
    local_search::descend(model, solution, max_sweeps)
}

/// Local search combining single-flip and coupled pair moves.
///
/// One-hot encodings (such as the community-detection QUBO, where reassigning
/// a node means clearing one indicator bit and setting another) have the
/// property that every useful move crosses a high-penalty intermediate state,
/// so plain 1-opt descent stalls immediately. This routine alternates
/// first-improvement single-flip sweeps with sweeps over *coupled* variable
/// pairs (pairs sharing a quadratic term), applying any pair move that lowers
/// the energy, until neither move type improves or `max_sweeps` is reached.
/// An improving pair with one set and one clear bit is applied as the engine's
/// native [`LocalFieldState::apply_reassign`], which never passes through the
/// invalid intermediate state (see [`LocalFieldState::coupled_pair_sweep`]).
///
/// # Panics
///
/// Panics if `solution.len()` differs from the model's variable count.
pub fn pair_aware_descent(
    model: &QuboModel,
    solution: Vec<bool>,
    max_sweeps: usize,
) -> (Vec<bool>, f64) {
    let mut state = LocalFieldState::new(model, solution);
    local_search::pair_aware_descend_state(&mut state, max_sweeps, &Budget::unlimited());
    state.debug_validate();
    state.into_solution()
}

#[cfg(test)]
mod tests {
    use super::*;
    use qhdcd_qubo::generate::{random_qubo, RandomQuboConfig};
    use qhdcd_qubo::QuboBuilder;

    fn model(n: usize, density: f64, coefficient_range: f64, seed: u64) -> QuboModel {
        random_qubo(&RandomQuboConfig { num_variables: n, density, coefficient_range, seed })
            .unwrap()
    }

    #[test]
    fn first_improvement_reaches_a_local_minimum() {
        let model = model(25, 0.3, 1.0, 8);
        let (x, e) = first_improvement_descent(&model, vec![false; 25], 1000);
        assert!((model.evaluate(&x).unwrap() - e).abs() < 1e-9);
        // 1-opt local optimality.
        for i in 0..25 {
            assert!(model.flip_delta(&x, i) >= -1e-9, "flip {i} still improves");
        }
    }

    #[test]
    fn first_improvement_never_worsens_and_matches_energy() {
        let model = model(60, 0.1, 2.0, 21);
        let start = vec![true; 60];
        let start_energy = model.evaluate(&start).unwrap();
        let (x, e) = first_improvement_descent(&model, start, 50);
        assert!(e <= start_energy + 1e-9);
        assert!((model.evaluate(&x).unwrap() - e).abs() < 1e-9);
    }

    #[test]
    fn descent_on_an_already_optimal_solution_is_a_no_op() {
        let mut b = QuboBuilder::new(2);
        b.add_linear(0, -1.0).unwrap();
        b.add_linear(1, 1.0).unwrap();
        let model = b.build();
        let (x, e) = first_improvement_descent(&model, vec![true, false], 5);
        assert_eq!(x, vec![true, false]);
        assert_eq!(e, -1.0);
    }

    #[test]
    fn pass_limit_bounds_the_work() {
        // A chain the ascending sweep walks backwards: only x2 pays at first,
        // x1 pays only once x2 is set, and x0 only once x1 is, so each sweep
        // makes exactly one flip.
        let mut b = QuboBuilder::new(3);
        b.add_linear(0, 1.0).unwrap();
        b.add_linear(1, 1.0).unwrap();
        b.add_linear(2, -1.0).unwrap();
        b.add_quadratic(0, 1, -2.0).unwrap();
        b.add_quadratic(1, 2, -2.0).unwrap();
        let model = b.build();
        for sweeps in 1..=3 {
            let (x, _) = first_improvement_descent(&model, vec![false; 3], sweeps);
            assert_eq!(x.iter().filter(|&&v| v).count(), sweeps, "sweeps={sweeps}");
        }
    }

    #[test]
    #[should_panic(expected = "must match the model")]
    fn mismatched_length_panics() {
        let model = QuboBuilder::new(3).build();
        first_improvement_descent(&model, vec![false; 2], 1);
    }

    #[test]
    fn pair_aware_descent_escapes_one_hot_traps() {
        // A one-hot group {0,1} (a "node" with two community slots) and a reward
        // for putting the node in slot 1 (coupling with the already-set bit 2).
        // From the valid assignment "slot 0", every single flip breaks the
        // one-hot constraint, so plain 1-opt is stuck; the pair move (clear slot
        // 0, set slot 1) is exactly the reassignment the pair-aware search finds.
        let mut b = QuboBuilder::new(3);
        b.add_penalty_exactly_one(&[0, 1], 10.0).unwrap();
        b.add_quadratic(1, 2, -2.0).unwrap();
        let model = b.build();
        let start = vec![true, false, true]; // valid, but misses the −2 reward
        let (stuck, stuck_e) = first_improvement_descent(&model, start.clone(), 50);
        assert_eq!(stuck, start, "plain 1-opt must be stuck");
        assert_eq!(stuck_e, 0.0);
        let (escaped, escaped_e) = pair_aware_descent(&model, start, 50);
        assert_eq!(escaped, vec![false, true, true]);
        assert!((escaped_e - (-2.0)).abs() < 1e-12);
    }

    #[test]
    fn pair_aware_descent_never_worsens_random_instances() {
        let model = model(40, 0.2, 1.0, 30);
        let start = vec![false; 40];
        let start_energy = model.evaluate(&start).unwrap();
        let (x, e) = pair_aware_descent(&model, start, 50);
        assert!(e <= start_energy + 1e-9);
        assert!((model.evaluate(&x).unwrap() - e).abs() < 1e-9);
        // The result is at least as good as plain 1-opt from the same start.
        let (_, e1) = first_improvement_descent(&model, vec![false; 40], 50);
        assert!(e <= e1 + 1e-9);
    }
}
