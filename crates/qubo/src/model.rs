use crate::QuboError;

/// A binary assignment of the model's variables (`x ∈ {0,1}ⁿ` stored as `bool`s).
pub type BinarySolution = Vec<bool>;

/// An immutable, sparse QUBO instance.
///
/// The model represents the energy function
///
/// ```text
/// E(x) = Σ_i linear_i x_i  +  Σ_{i<j} quadratic_ij x_i x_j  +  offset
/// ```
///
/// over `x ∈ {0,1}ⁿ`. Diagonal quadratic coefficients are folded into the
/// linear terms at build time (since `x_i² = x_i` for binary variables).
/// Models are built with [`crate::QuboBuilder`].
///
/// # Example
///
/// ```
/// use qhdcd_qubo::QuboBuilder;
///
/// # fn main() -> Result<(), qhdcd_qubo::QuboError> {
/// let mut b = QuboBuilder::new(2);
/// b.add_quadratic(0, 1, -2.0)?;
/// b.add_linear(0, 1.0)?;
/// let m = b.build();
/// assert_eq!(m.evaluate(&[true, true])?, -1.0);
/// assert_eq!(m.num_variables(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct QuboModel {
    num_variables: usize,
    linear: Vec<f64>,
    offset: f64,
    /// CSR-style adjacency over the symmetric coupling structure: for each
    /// variable `i`, the list of `(j, w_ij)` with `j != i`, where `w_ij` is the
    /// full coefficient of the `x_i x_j` term. Each row is sorted by `j`
    /// ascending (a consequence of `pairs` being sorted), which
    /// [`QuboModel::coupling`] exploits for O(log deg) lookups.
    adj_offsets: Vec<usize>,
    adj_vars: Vec<usize>,
    adj_weights: Vec<f64>,
    /// Upper-triangular pair list `(i, j, w)` with `i < j`, sorted.
    pairs: Vec<(usize, usize, f64)>,
}

impl QuboModel {
    pub(crate) fn new(
        num_variables: usize,
        linear: Vec<f64>,
        offset: f64,
        pairs: Vec<(usize, usize, f64)>,
    ) -> Self {
        let mut counts = vec![0usize; num_variables];
        for &(i, j, _) in &pairs {
            counts[i] += 1;
            counts[j] += 1;
        }
        let mut adj_offsets = vec![0usize; num_variables + 1];
        for i in 0..num_variables {
            adj_offsets[i + 1] = adj_offsets[i] + counts[i];
        }
        let mut adj_vars = vec![0usize; adj_offsets[num_variables]];
        let mut adj_weights = vec![0.0f64; adj_offsets[num_variables]];
        let mut cursor = adj_offsets.clone();
        for &(i, j, w) in &pairs {
            adj_vars[cursor[i]] = j;
            adj_weights[cursor[i]] = w;
            cursor[i] += 1;
            adj_vars[cursor[j]] = i;
            adj_weights[cursor[j]] = w;
            cursor[j] += 1;
        }
        debug_assert!(
            pairs.windows(2).all(|w| (w[0].0, w[0].1) < (w[1].0, w[1].1)),
            "pair list must be strictly sorted for CSR rows to come out sorted"
        );
        debug_assert!((0..num_variables).all(|i| {
            adj_vars[adj_offsets[i]..adj_offsets[i + 1]].windows(2).all(|w| w[0] < w[1])
        }));
        QuboModel { num_variables, linear, offset, adj_offsets, adj_vars, adj_weights, pairs }
    }

    /// Number of binary variables.
    pub fn num_variables(&self) -> usize {
        self.num_variables
    }

    /// Number of non-zero off-diagonal quadratic terms (counted once per pair).
    pub fn num_quadratic_terms(&self) -> usize {
        self.pairs.len()
    }

    /// The linear coefficients, indexed by variable.
    pub fn linear(&self) -> &[f64] {
        &self.linear
    }

    /// The constant offset added to every evaluation.
    pub fn offset(&self) -> f64 {
        self.offset
    }

    /// Iterator over the off-diagonal quadratic terms as `(i, j, weight)` with `i < j`.
    pub fn quadratic_terms(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        self.pairs.iter().copied()
    }

    /// Iterator over the couplings of variable `i` as `(j, weight)` pairs.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.num_variables()`.
    pub fn couplings(&self, i: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let range = self.adj_offsets[i]..self.adj_offsets[i + 1];
        self.adj_vars[range.clone()].iter().copied().zip(self.adj_weights[range].iter().copied())
    }

    /// The coupling coefficient `w_ij` of the `x_i x_j` term, or `0.0` if the
    /// variables are uncoupled. Binary search over the sorted CSR row of the
    /// lower-degree endpoint: O(log min(deg i, deg j)).
    ///
    /// # Panics
    ///
    /// Panics if `i == j` or either index is out of range.
    pub fn coupling(&self, i: usize, j: usize) -> f64 {
        assert_ne!(i, j, "the coupling matrix has no diagonal");
        let degree = |v: usize| self.adj_offsets[v + 1] - self.adj_offsets[v];
        let (row, target) = if degree(i) <= degree(j) { (i, j) } else { (j, i) };
        let span = self.adj_offsets[row]..self.adj_offsets[row + 1];
        match self.adj_vars[span.clone()].binary_search(&target) {
            Ok(pos) => self.adj_weights[span.start + pos],
            Err(_) => 0.0,
        }
    }

    /// Density of the quadratic coefficient matrix: fraction of the `n(n−1)/2`
    /// possible off-diagonal pairs with a non-zero coefficient.
    pub fn density(&self) -> f64 {
        let n = self.num_variables as f64;
        if n < 2.0 {
            0.0
        } else {
            self.pairs.len() as f64 / (n * (n - 1.0) / 2.0)
        }
    }

    /// Evaluates the energy of a candidate solution.
    ///
    /// # Errors
    ///
    /// Returns [`QuboError::SolutionSizeMismatch`] if `x` has the wrong length.
    pub fn evaluate(&self, x: &[bool]) -> Result<f64, QuboError> {
        if x.len() != self.num_variables {
            return Err(QuboError::SolutionSizeMismatch {
                solution: x.len(),
                variables: self.num_variables,
            });
        }
        let mut e = self.offset;
        for (i, &xi) in x.iter().enumerate() {
            if xi {
                e += self.linear[i];
            }
        }
        for &(i, j, w) in &self.pairs {
            if x[i] && x[j] {
                e += w;
            }
        }
        Ok(e)
    }

    /// Energy change caused by flipping variable `i` in solution `x`, computed
    /// in time proportional to the number of couplings of `i`.
    ///
    /// The identity `evaluate(flip(x, i)) = evaluate(x) + flip_delta(x, i)` holds
    /// exactly (up to floating-point rounding); a property test enforces it.
    ///
    /// # Panics
    ///
    /// Panics if `x` is shorter than the number of variables or `i` is out of range.
    pub fn flip_delta(&self, x: &[bool], i: usize) -> f64 {
        let mut field = self.linear[i];
        for (j, w) in self.couplings(i) {
            if x[j] {
                field += w;
            }
        }
        if x[i] {
            -field
        } else {
            field
        }
    }

    /// The "local field" of variable `i` under solution `x`: the energy cost of
    /// setting `x_i = 1` given the rest of the assignment. Used by the QHD
    /// mean-field dynamics and the greedy refinements.
    ///
    /// # Panics
    ///
    /// Panics if `x` is shorter than the number of variables or `i` is out of range.
    pub fn local_field(&self, x: &[bool], i: usize) -> f64 {
        let mut field = self.linear[i];
        for (j, w) in self.couplings(i) {
            if x[j] {
                field += w;
            }
        }
        field
    }

    /// Continuous-relaxation local field: like [`QuboModel::local_field`] but with
    /// fractional occupation probabilities `p ∈ [0,1]ⁿ` instead of booleans.
    ///
    /// The terms are added in ascending-neighbour order, starting from the
    /// linear coefficient — the order in which a sweep over the sorted pair
    /// list reaches them — so the result is a pure function of the model,
    /// `p` and `i`. The mean-field QHD sweep relies on that for results that
    /// are bit-identical across shard counts.
    ///
    /// # Panics
    ///
    /// Panics if `p` is shorter than the number of variables or `i` is out of range.
    pub fn mean_field(&self, p: &[f64], i: usize) -> f64 {
        let mut field = self.linear[i];
        for (j, w) in self.couplings(i) {
            field += w * p[j];
        }
        field
    }

    /// Evaluates the continuous relaxation `E(p)` for `p ∈ [0,1]ⁿ`.
    ///
    /// # Errors
    ///
    /// Returns [`QuboError::SolutionSizeMismatch`] if `p` has the wrong length.
    pub fn evaluate_relaxed(&self, p: &[f64]) -> Result<f64, QuboError> {
        if p.len() != self.num_variables {
            return Err(QuboError::SolutionSizeMismatch {
                solution: p.len(),
                variables: self.num_variables,
            });
        }
        let mut e = self.offset;
        for (i, &pi) in p.iter().enumerate() {
            e += self.linear[i] * pi;
        }
        for &(i, j, w) in &self.pairs {
            e += w * p[i] * p[j];
        }
        Ok(e)
    }

    /// Returns the dense symmetric coupling matrix `W` (with `W_ij = W_ji =`
    /// the coefficient of `x_i x_j`, zero diagonal) as a single flat row-major
    /// buffer of length `n²` (entry `(i, j)` at index `i * n + j`). One
    /// contiguous allocation instead of `n` boxed rows, so dense backends can
    /// stream it cache-linearly. `O(n²)` memory; intended for the exact
    /// small-instance QHD simulator and for tests.
    pub fn to_dense(&self) -> Vec<f64> {
        let n = self.num_variables;
        let mut m = vec![0.0; n * n];
        for &(i, j, w) in &self.pairs {
            m[i * n + j] = w;
            m[j * n + i] = w;
        }
        m
    }

    /// Validates a candidate solution length, as a `Result` instead of a panic.
    ///
    /// # Errors
    ///
    /// Returns [`QuboError::SolutionSizeMismatch`] on length mismatch.
    pub fn check_solution(&self, x: &[bool]) -> Result<(), QuboError> {
        if x.len() == self.num_variables {
            Ok(())
        } else {
            Err(QuboError::SolutionSizeMismatch {
                solution: x.len(),
                variables: self.num_variables,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::QuboBuilder;

    fn small_model() -> crate::QuboModel {
        let mut b = QuboBuilder::new(3);
        b.add_linear(0, 1.0).unwrap();
        b.add_linear(1, -2.0).unwrap();
        b.add_quadratic(0, 1, 3.0).unwrap();
        b.add_quadratic(1, 2, -1.5).unwrap();
        b.set_offset(0.25);
        b.build()
    }

    #[test]
    fn evaluation_matches_hand_computation() {
        let m = small_model();
        assert_eq!(m.evaluate(&[false, false, false]).unwrap(), 0.25);
        assert_eq!(m.evaluate(&[true, false, false]).unwrap(), 1.25);
        assert_eq!(m.evaluate(&[true, true, false]).unwrap(), 1.0 - 2.0 + 3.0 + 0.25);
        assert_eq!(m.evaluate(&[false, true, true]).unwrap(), -2.0 - 1.5 + 0.25);
    }

    #[test]
    fn evaluate_rejects_wrong_length() {
        let m = small_model();
        assert!(m.evaluate(&[true, false]).is_err());
        assert!(m.check_solution(&[true, false, true]).is_ok());
        assert!(m.check_solution(&[]).is_err());
    }

    #[test]
    fn flip_delta_matches_full_reevaluation() {
        let m = small_model();
        let assignments =
            [[false, false, false], [true, false, true], [true, true, true], [false, true, false]];
        for x in assignments {
            for i in 0..3 {
                let before = m.evaluate(&x).unwrap();
                let mut y = x;
                y[i] = !y[i];
                let after = m.evaluate(&y).unwrap();
                let delta = m.flip_delta(&x, i);
                assert!((after - before - delta).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn relaxed_evaluation_agrees_on_binary_points() {
        let m = small_model();
        for x in [[true, false, true], [false, true, false]] {
            let p: Vec<f64> = x.iter().map(|&b| if b { 1.0 } else { 0.0 }).collect();
            assert!((m.evaluate(&x).unwrap() - m.evaluate_relaxed(&p).unwrap()).abs() < 1e-12);
        }
        assert!(m.evaluate_relaxed(&[0.5]).is_err());
    }

    #[test]
    fn dense_matrix_is_symmetric_with_zero_diagonal() {
        let m = small_model();
        let d = m.to_dense();
        assert_eq!(d.len(), 9);
        for i in 0..3 {
            assert_eq!(d[i * 3 + i], 0.0);
            for j in 0..3 {
                assert_eq!(d[i * 3 + j], d[j * 3 + i]);
            }
        }
        assert_eq!(d[1], 3.0); // (0, 1)
        assert_eq!(d[5], -1.5); // (1, 2)
    }

    #[test]
    fn coupling_lookup_matches_the_pair_list() {
        let m = small_model();
        assert_eq!(m.coupling(0, 1), 3.0);
        assert_eq!(m.coupling(1, 0), 3.0);
        assert_eq!(m.coupling(1, 2), -1.5);
        assert_eq!(m.coupling(0, 2), 0.0);
    }

    #[test]
    #[should_panic(expected = "no diagonal")]
    fn coupling_rejects_the_diagonal() {
        small_model().coupling(1, 1);
    }

    #[test]
    fn density_and_term_counts() {
        let m = small_model();
        assert_eq!(m.num_variables(), 3);
        assert_eq!(m.num_quadratic_terms(), 2);
        assert!((m.density() - 2.0 / 3.0).abs() < 1e-12);
        let empty = QuboBuilder::new(1).build();
        assert_eq!(empty.density(), 0.0);
    }

    #[test]
    fn couplings_are_symmetric() {
        let m = small_model();
        let c0: Vec<_> = m.couplings(0).collect();
        assert_eq!(c0, vec![(1, 3.0)]);
        let c1: Vec<_> = m.couplings(1).collect();
        assert_eq!(c1.len(), 2);
        assert!(c1.contains(&(0, 3.0)));
        assert!(c1.contains(&(2, -1.5)));
    }

    #[test]
    fn local_and_mean_field() {
        let m = small_model();
        let x = [false, true, false];
        // field of var 0 = linear[0] + w_01 * x1 = 1 + 3 = 4.
        assert_eq!(m.local_field(&x, 0), 4.0);
        let p = [0.0, 0.5, 0.0];
        assert_eq!(m.mean_field(&p, 0), 1.0 + 1.5);
    }
}
