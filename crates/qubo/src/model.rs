use crate::{QuboError, SlotForm};
use std::ops::Range;

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
    /// The node-slot form [`QuboModel::with_slot_form`] checked against the
    /// rows; `None` when no declaration held.
    slot_form: Option<SlotForm>,
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
        QuboModel {
            num_variables,
            linear,
            offset,
            adj_offsets,
            adj_vars,
            adj_weights,
            pairs,
            slot_form: None,
        }
    }

    /// Declares that the couplings have `form`, a node-slot form (see
    /// [`SlotForm`]), and records it only if the model's own rows show it:
    /// `form.slots()` slots divide the variables into the form's nodes,
    /// every stored coupling lies within 1e-12 of its form value, relative to
    /// the sum of its terms' magnitudes, and every form value beyond that
    /// tolerance is stored. The check takes time linear in the couplings. A
    /// form that fails records nothing.
    ///
    /// A recorded form changes only how [`QuboModel::mean_fields`] computes,
    /// in O(m·k + n·k) per call instead of O(couplings); every other method
    /// reads the rows.
    pub fn with_slot_form(mut self, form: SlotForm) -> Self {
        if form.holds(&self) {
            self.slot_form = Some(form);
        }
        self
    }

    /// The slot count `k` of the form recorded by
    /// [`QuboModel::with_slot_form`], if a declaration held: variable
    /// `node·k + slot` is then slot `slot` of node `node`.
    pub fn node_slots(&self) -> Option<usize> {
        self.slot_form.as_ref().map(SlotForm::slots)
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
        let (vars, weights) = self.row(i);
        vars.iter().copied().zip(weights.iter().copied())
    }

    /// The CSR row of variable `i`: its coupled variables, ascending, and
    /// their weights.
    pub(crate) fn row(&self, i: usize) -> (&[usize], &[f64]) {
        let range = self.adj_offsets[i]..self.adj_offsets[i + 1];
        (&self.adj_vars[range.clone()], &self.adj_weights[range])
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
    /// `p` and `i`, with the bits of the flat pair sweep of
    /// `qhdcd_qhd::meanfield::evolve_reference`. [`QuboModel::mean_fields`]
    /// reproduces them on a model without a recorded form.
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

    /// The mean fields of the variables in `vars`: `fields[t]` gets the field
    /// of variable `vars.start + t`.
    ///
    /// On a model without a recorded form, each field has the bits of
    /// [`QuboModel::mean_field`]. On a model with one
    /// ([`QuboModel::with_slot_form`]), the fields come from the form in
    /// O(m·k + n·k) (see [`SlotForm`]) and lie within rounding of
    /// `mean_field`. Either way a field is a function of the model, `p` and
    /// its variable alone, whatever range it is asked for in.
    ///
    /// # Panics
    ///
    /// Panics if `vars` reaches past the last variable, if `fields` is not
    /// `vars.len()` long, or if `p` is shorter than the number of variables.
    pub fn mean_fields(&self, p: &[f64], vars: Range<usize>, fields: &mut [f64]) {
        assert!(vars.end <= self.num_variables, "variable range past the model");
        assert_eq!(fields.len(), vars.len(), "one field per variable of the range");
        match &self.slot_form {
            Some(form) => form.mean_fields(&self.linear, &p[..self.num_variables], vars, fields),
            None => {
                for (field, i) in fields.iter_mut().zip(vars) {
                    *field = self.mean_field(p, i);
                }
            }
        }
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
    use crate::{QuboBuilder, SlotForm};

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

    /// The form of [`two_slot_model`]: `s₀₁ = −1.5`, `q = (1, 2, ½)`,
    /// `κ = ¼`, `σ = 0.1` and the one-hot penalty's `ρ = 2·4`.
    fn two_slot_form(kappa: f64, sigma: f64, rho: f64) -> SlotForm {
        SlotForm::new(2, vec![1.0, 2.0, 0.5], kappa, sigma, rho, &[(0, 1, -1.5)])
    }

    /// Three nodes of two slots, `node·2 + slot`: a one-hot pair per node and
    /// in each slot the node-pair couplings `s + κ·q qᵀ + σ`, each term added
    /// on its own.
    fn two_slot_model() -> crate::QuboModel {
        let mut b = QuboBuilder::new(6);
        for (v, w) in [-1.0, 0.5, 2.0, -0.25, 3.0, 1.0].into_iter().enumerate() {
            b.add_linear(v, w).unwrap();
        }
        let q = [1.0, 2.0, 0.5];
        for slot in 0..2 {
            b.add_quadratic(slot, 2 + slot, -1.5).unwrap();
            for (u, v) in [(0, 1), (0, 2), (1, 2)] {
                b.add_quadratic(2 * u + slot, 2 * v + slot, 0.25 * q[u] * q[v]).unwrap();
                b.add_quadratic(2 * u + slot, 2 * v + slot, 0.1).unwrap();
            }
        }
        for node in 0..3 {
            b.add_penalty_exactly_one(&[2 * node, 2 * node + 1], 4.0).unwrap();
        }
        b.build()
    }

    #[test]
    fn node_slots_are_recorded_only_where_the_rows_show_them() {
        let m = two_slot_model();
        assert_eq!(m.node_slots(), None);
        assert_eq!(m.clone().with_slot_form(two_slot_form(0.25, 0.1, 8.0)).node_slots(), Some(2));
        for (name, form) in [
            ("κ off", two_slot_form(0.26, 0.1, 8.0)),
            ("σ off", two_slot_form(0.25, 0.0, 8.0)),
            ("ρ off", two_slot_form(0.25, 0.1, 4.0)),
            ("no sparse term", SlotForm::new(2, vec![1.0, 2.0, 0.5], 0.25, 0.1, 8.0, &[])),
            // At three slots, variables 0 and 4 would be different slots of two nodes.
            ("three slots", SlotForm::new(3, vec![1.0, 1.0], 0.0, 0.1, 8.0, &[])),
            ("a slot count that does not divide", SlotForm::new(4, vec![1.0], 0.0, 0.0, 8.0, &[])),
        ] {
            assert_eq!(m.clone().with_slot_form(form).node_slots(), None, "{name}");
        }
    }

    #[test]
    fn mean_fields_match_mean_field_on_every_range() {
        let p = [0.1, 0.9, 0.35, 0.5, 1.0, 0.0];
        let plain = two_slot_model();
        let declared = two_slot_model().with_slot_form(two_slot_form(0.25, 0.1, 8.0));
        let mut whole = vec![f64::NAN; 6];
        declared.mean_fields(&p, 0..6, &mut whole);
        for (i, field) in whole.iter().enumerate() {
            let exact = plain.mean_field(&p, i);
            let scale = plain.linear()[i].abs()
                + plain.couplings(i).map(|(j, w)| (w * p[j]).abs()).sum::<f64>();
            assert!((field - exact).abs() <= 1e-12 * scale, "variable {i}: {field} vs {exact}");
        }
        for start in 0..=6 {
            for end in start..=6 {
                let mut fields = vec![f64::NAN; end - start];
                plain.mean_fields(&p, start..end, &mut fields);
                for (i, field) in (start..end).zip(&fields) {
                    assert_eq!(
                        field.to_bits(),
                        plain.mean_field(&p, i).to_bits(),
                        "{start}..{end}"
                    );
                }
                declared.mean_fields(&p, start..end, &mut fields);
                for (i, field) in (start..end).zip(&fields) {
                    assert_eq!(field.to_bits(), whole[i].to_bits(), "{start}..{end}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "variable range past the model")]
    fn mean_fields_rejects_a_range_past_the_model() {
        let declared = two_slot_model().with_slot_form(two_slot_form(0.25, 0.1, 8.0));
        assert_eq!(declared.node_slots(), Some(2));
        declared.mean_fields(&[0.5; 7], 4..7, &mut [0.0; 3]);
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
