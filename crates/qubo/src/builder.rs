use crate::{QuboError, QuboModel};

/// Incremental builder for [`QuboModel`].
///
/// Coefficients added for the same variable (or pair) accumulate, so penalty
/// terms can be layered on top of an objective. Diagonal quadratic terms
/// `x_i x_i` are folded into the linear coefficient (binary variables satisfy
/// `x_i² = x_i`).
///
/// # Accumulation order
///
/// Linear coefficients and the offset are summed as they are added. Each
/// off-diagonal addition is recorded as it is made, in the row of the pair's
/// smaller index. [`QuboBuilder::build`] sorts each row by the larger index
/// with a stable sort, so each pair's additions keep the order they were
/// made in, and sums them left to right starting from `0.0`. A coefficient
/// therefore has the same bits as the running sum `((0.0 + w₁) + w₂) + …`
/// of its additions in call order, whatever other pairs were added in
/// between.
///
/// # Example
///
/// ```
/// use qhdcd_qubo::QuboBuilder;
///
/// # fn main() -> Result<(), qhdcd_qubo::QuboError> {
/// let mut b = QuboBuilder::new(4);
/// // Objective: minimise -x0*x1.
/// b.add_quadratic(0, 1, -1.0)?;
/// // Penalty: (x0 + x1 - 1)^2 expanded.
/// b.add_penalty_exactly_one(&[0, 1], 10.0)?;
/// let m = b.build();
/// assert!(m.evaluate(&[true, false, false, false])? < m.evaluate(&[true, true, false, false])?);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct QuboBuilder {
    num_variables: usize,
    linear: Vec<f64>,
    offset: f64,
    /// Row `i` holds every off-diagonal addition to a pair `(i, j)` with
    /// `i < j` as `(j, weight)`, in call order; folded per pair by
    /// [`QuboBuilder::build`].
    rows: Vec<Vec<(usize, f64)>>,
}

impl QuboBuilder {
    /// Creates a builder for a model with `num_variables` binary variables and
    /// all coefficients zero.
    pub fn new(num_variables: usize) -> Self {
        QuboBuilder {
            num_variables,
            linear: vec![0.0; num_variables],
            offset: 0.0,
            rows: vec![Vec::new(); num_variables],
        }
    }

    /// Number of variables of the model being built.
    pub fn num_variables(&self) -> usize {
        self.num_variables
    }

    fn check_var(&self, i: usize) -> Result<(), QuboError> {
        if i < self.num_variables {
            Ok(())
        } else {
            Err(QuboError::VariableOutOfBounds { variable: i, num_variables: self.num_variables })
        }
    }

    fn check_coeff(w: f64) -> Result<(), QuboError> {
        if w.is_finite() {
            Ok(())
        } else {
            Err(QuboError::InvalidCoefficient { coefficient: w })
        }
    }

    /// Adds `weight · x_i` to the objective.
    ///
    /// # Errors
    ///
    /// Returns [`QuboError::VariableOutOfBounds`] or [`QuboError::InvalidCoefficient`].
    pub fn add_linear(&mut self, i: usize, weight: f64) -> Result<(), QuboError> {
        self.check_var(i)?;
        Self::check_coeff(weight)?;
        self.linear[i] += weight;
        Ok(())
    }

    /// Adds `weight · x_i x_j` to the objective. `i == j` is folded into the
    /// linear term.
    ///
    /// # Errors
    ///
    /// Returns [`QuboError::VariableOutOfBounds`] or [`QuboError::InvalidCoefficient`].
    pub fn add_quadratic(&mut self, i: usize, j: usize, weight: f64) -> Result<(), QuboError> {
        self.check_var(i)?;
        self.check_var(j)?;
        Self::check_coeff(weight)?;
        if i == j {
            self.linear[i] += weight;
        } else {
            self.rows[i.min(j)].push((i.max(j), weight));
        }
        Ok(())
    }

    /// Adds a constant to the objective (does not affect the argmin).
    pub fn add_offset(&mut self, value: f64) {
        self.offset += value;
    }

    /// Sets the constant offset, replacing any previous value.
    pub fn set_offset(&mut self, value: f64) {
        self.offset = value;
    }

    /// Adds the penalty `weight · (Σ_{i ∈ vars} x_i − 1)²`, which is minimised
    /// (and zero) exactly when one of `vars` is set. This is the assignment
    /// constraint `Q_A` of the paper (Eq. 3) for a single node.
    ///
    /// # Errors
    ///
    /// Returns [`QuboError::VariableOutOfBounds`] or [`QuboError::InvalidCoefficient`].
    pub fn add_penalty_exactly_one(
        &mut self,
        vars: &[usize],
        weight: f64,
    ) -> Result<(), QuboError> {
        self.add_penalty_sum_equals(vars, 1.0, weight)
    }

    /// Adds the penalty `weight · (Σ_{i ∈ vars} x_i − target)²` expanded into
    /// linear, quadratic and constant terms. Used for the balanced community
    /// size constraint `Q_S` of the paper (Eq. 4).
    ///
    /// # Errors
    ///
    /// Returns [`QuboError::VariableOutOfBounds`] or [`QuboError::InvalidCoefficient`].
    pub fn add_penalty_sum_equals(
        &mut self,
        vars: &[usize],
        target: f64,
        weight: f64,
    ) -> Result<(), QuboError> {
        Self::check_coeff(weight)?;
        Self::check_coeff(target)?;
        for &v in vars {
            self.check_var(v)?;
        }
        // (Σ x_i − t)² = Σ_i x_i² + 2 Σ_{i<j} x_i x_j − 2 t Σ_i x_i + t²
        //             = Σ_i (1 − 2t) x_i + 2 Σ_{i<j} x_i x_j + t².
        for (a, &i) in vars.iter().enumerate() {
            self.linear[i] += weight * (1.0 - 2.0 * target);
            for &j in &vars[(a + 1)..] {
                if i == j {
                    // Duplicate index in `vars`: x_i x_i = x_i.
                    self.linear[i] += 2.0 * weight;
                } else {
                    self.rows[i.min(j)].push((i.max(j), 2.0 * weight));
                }
            }
        }
        self.offset += weight * target * target;
        Ok(())
    }

    /// Consumes the builder and produces the immutable [`QuboModel`], dropping
    /// exact-zero quadratic entries. Each pair's coefficient is its additions
    /// summed in call order (see [Accumulation order](Self#accumulation-order)).
    pub fn build(self) -> QuboModel {
        let mut pairs = Vec::new();
        for (i, mut row) in self.rows.into_iter().enumerate() {
            // Stable: each pair's additions stay in call order.
            row.sort_by_key(|&(j, _)| j);
            for run in row.chunk_by(|a, b| a.0 == b.0) {
                let weight = run.iter().fold(0.0, |sum, &(_, w)| sum + w);
                if weight != 0.0 {
                    pairs.push((i, run[0].0, weight));
                }
            }
        }
        QuboModel::new(self.num_variables, self.linear, self.offset, pairs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    #[test]
    fn coefficients_accumulate() {
        let mut b = QuboBuilder::new(2);
        b.add_linear(0, 1.0).unwrap();
        b.add_linear(0, 2.0).unwrap();
        b.add_quadratic(0, 1, 1.0).unwrap();
        b.add_quadratic(1, 0, 0.5).unwrap();
        let m = b.build();
        assert_eq!(m.linear()[0], 3.0);
        assert_eq!(m.quadratic_terms().next(), Some((0, 1, 1.5)));
    }

    #[test]
    fn diagonal_quadratic_folds_into_linear() {
        let mut b = QuboBuilder::new(1);
        b.add_quadratic(0, 0, 4.0).unwrap();
        let m = b.build();
        assert_eq!(m.linear()[0], 4.0);
        assert_eq!(m.num_quadratic_terms(), 0);
    }

    #[test]
    fn bounds_and_nan_are_rejected() {
        let mut b = QuboBuilder::new(2);
        assert!(b.add_linear(2, 1.0).is_err());
        assert!(b.add_quadratic(0, 5, 1.0).is_err());
        assert!(b.add_linear(0, f64::NAN).is_err());
        assert!(b.add_quadratic(0, 1, f64::INFINITY).is_err());
        assert!(b.add_penalty_exactly_one(&[0, 3], 1.0).is_err());
        assert!(b.add_penalty_sum_equals(&[0], 1.0, f64::NAN).is_err());
    }

    #[test]
    fn exactly_one_penalty_is_zero_iff_constraint_holds() {
        let mut b = QuboBuilder::new(3);
        b.add_penalty_exactly_one(&[0, 1, 2], 5.0).unwrap();
        let m = b.build();
        // Valid assignments (exactly one set) have penalty 0.
        for valid in [[true, false, false], [false, true, false], [false, false, true]] {
            assert!((m.evaluate(&valid).unwrap()).abs() < 1e-12);
        }
        // Invalid assignments pay at least the weight.
        assert!(m.evaluate(&[false, false, false]).unwrap() >= 5.0 - 1e-12);
        assert!(m.evaluate(&[true, true, false]).unwrap() >= 5.0 - 1e-12);
        assert!(m.evaluate(&[true, true, true]).unwrap() >= 5.0 - 1e-12);
    }

    #[test]
    fn sum_equals_penalty_matches_direct_expansion() {
        let mut b = QuboBuilder::new(4);
        b.add_penalty_sum_equals(&[0, 1, 2, 3], 2.0, 3.0).unwrap();
        let m = b.build();
        for bits in 0..16u32 {
            let x: Vec<bool> = (0..4).map(|i| bits >> i & 1 == 1).collect();
            let s: f64 = x.iter().filter(|&&v| v).count() as f64;
            let expected = 3.0 * (s - 2.0).powi(2);
            assert!((m.evaluate(&x).unwrap() - expected).abs() < 1e-12);
        }
    }

    #[test]
    fn duplicate_indices_in_penalty_are_handled() {
        let mut b = QuboBuilder::new(2);
        // (x0 + x0 - 1)^2 = (2 x0 - 1)^2 = 4 x0 - 4 x0 + 1 ... evaluate directly.
        b.add_penalty_sum_equals(&[0, 0], 1.0, 1.0).unwrap();
        let m = b.build();
        assert!((m.evaluate(&[false, false]).unwrap() - 1.0).abs() < 1e-12);
        assert!((m.evaluate(&[true, false]).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn zero_quadratic_terms_are_dropped() {
        let mut b = QuboBuilder::new(2);
        b.add_quadratic(0, 1, 1.0).unwrap();
        b.add_quadratic(0, 1, -1.0).unwrap();
        let m = b.build();
        assert_eq!(m.num_quadratic_terms(), 0);
    }

    /// The accumulator `QuboBuilder` used before it sorted and folded: every
    /// pair summed in a `BTreeMap` as it is added, starting from `0.0`.
    struct MapOracle {
        linear: Vec<f64>,
        offset: f64,
        quadratic: BTreeMap<(usize, usize), f64>,
    }

    impl MapOracle {
        fn new(num_variables: usize) -> Self {
            MapOracle { linear: vec![0.0; num_variables], offset: 0.0, quadratic: BTreeMap::new() }
        }

        fn add_quadratic(&mut self, i: usize, j: usize, weight: f64) {
            if i == j {
                self.linear[i] += weight;
            } else {
                *self.quadratic.entry((i.min(j), i.max(j))).or_insert(0.0) += weight;
            }
        }

        fn add_penalty_sum_equals(&mut self, vars: &[usize], target: f64, weight: f64) {
            for (a, &i) in vars.iter().enumerate() {
                self.linear[i] += weight * (1.0 - 2.0 * target);
                for &j in &vars[(a + 1)..] {
                    if i == j {
                        self.linear[i] += 2.0 * weight;
                    } else {
                        *self.quadratic.entry((i.min(j), i.max(j))).or_insert(0.0) += 2.0 * weight;
                    }
                }
            }
            self.offset += weight * target * target;
        }

        /// Pairs with their weight bits, exact zeros dropped.
        fn pairs(&self) -> Vec<(usize, usize, u64)> {
            self.quadratic
                .iter()
                .filter(|&(_, &w)| w != 0.0)
                .map(|(&(i, j), &w)| (i, j, w.to_bits()))
                .collect()
        }
    }

    /// Coefficients whose sums depend on the order they are added in (1e16
    /// absorbs 0.5), cancel exactly to zero (±1, ±0.1), or are signed zeros.
    const WEIGHTS: [f64; 12] = [1.0, -1.0, 0.5, -0.5, 0.1, -0.1, 0.0, -0.0, 3.0, 1e16, -1e16, 0.3];

    /// One builder call: a kind, two indices, a weight and a target from
    /// [`WEIGHTS`], and a variable list for the penalties (duplicates likely).
    type Call = (usize, (usize, usize), (usize, usize), Vec<usize>);

    fn apply(call: &Call, builder: &mut QuboBuilder, oracle: &mut MapOracle) {
        let (kind, (i, j), (w, t), vars) = call;
        let (i, j, weight, target) = (*i, *j, WEIGHTS[*w], WEIGHTS[*t]);
        match kind {
            0 => {
                builder.add_linear(i, weight).unwrap();
                oracle.linear[i] += weight;
            }
            1..=4 => {
                builder.add_quadratic(i, j, weight).unwrap();
                oracle.add_quadratic(i, j, weight);
            }
            5 => {
                builder.add_offset(weight);
                oracle.offset += weight;
            }
            6 => {
                builder.set_offset(weight);
                oracle.offset = weight;
            }
            7 => {
                builder.add_penalty_exactly_one(vars, weight).unwrap();
                oracle.add_penalty_sum_equals(vars, 1.0, weight);
            }
            _ => {
                builder.add_penalty_sum_equals(vars, target, weight).unwrap();
                oracle.add_penalty_sum_equals(vars, target, weight);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn built_models_are_bit_equal_to_the_map_oracle(
            (n, calls) in (1usize..7).prop_flat_map(|n| {
                let call = (
                    0usize..9,
                    (0..n, 0..n),
                    (0..WEIGHTS.len(), 0..WEIGHTS.len()),
                    proptest::collection::vec(0..n, 0..6),
                );
                (Just(n), proptest::collection::vec(call, 0..160))
            })
        ) {
            let mut builder = QuboBuilder::new(n);
            let mut oracle = MapOracle::new(n);
            for call in &calls {
                apply(call, &mut builder, &mut oracle);
            }
            let model = builder.build();
            let pairs: Vec<(usize, usize, u64)> =
                model.quadratic_terms().map(|(i, j, w)| (i, j, w.to_bits())).collect();
            prop_assert_eq!(pairs, oracle.pairs());
            let bits = |v: &[f64]| v.iter().map(|w| w.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(model.linear()), bits(&oracle.linear));
            prop_assert_eq!(model.offset().to_bits(), oracle.offset.to_bits());
        }
    }

    #[test]
    fn offset_handling() {
        let mut b = QuboBuilder::new(1);
        b.add_offset(1.0);
        b.add_offset(2.0);
        assert_eq!(b.clone().build().offset(), 3.0);
        b.set_offset(-1.0);
        assert_eq!(b.build().offset(), -1.0);
    }
}
