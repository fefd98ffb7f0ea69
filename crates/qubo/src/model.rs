use crate::QuboError;
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
    /// The slot count `k` of a `node·k + slot` layout that
    /// [`QuboModel::with_node_slots`] checked against the rows; `None` when
    /// no declaration held.
    node_slots: Option<usize>,
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
            node_slots: None,
        }
    }

    /// Declares that variable `node·k + slot` is slot `slot` of node `node`,
    /// with couplings shared by every slot, and records `k` only if the
    /// model's own rows show it:
    ///
    /// * `k ≥ 2` and `k` divides the number of variables;
    /// * every coupling joins two slots of one node or the same slot of two
    ///   nodes;
    /// * each pair of nodes has the same entries, with the same bits, in
    ///   every slot.
    ///
    /// The check takes time linear in the number of couplings. A declaration
    /// that does not hold records nothing. A recorded layout changes only how
    /// [`QuboModel::mean_fields`] walks the rows, never a result. This is the
    /// one-hot layout of a community-detection QUBO (one slot per community),
    /// whose node-pair coefficients repeat in every slot.
    pub fn with_node_slots(mut self, k: usize) -> Self {
        if self.node_slots_hold(k) {
            self.node_slots = Some(k);
        }
        self
    }

    /// The slot count recorded by [`QuboModel::with_node_slots`], if a
    /// declaration held.
    pub fn node_slots(&self) -> Option<usize> {
        self.node_slots
    }

    /// Whether the rows show the layout [`QuboModel::with_node_slots`]
    /// declares for `k` slots per node.
    fn node_slots_hold(&self, k: usize) -> bool {
        if k < 2 || !self.num_variables.is_multiple_of(k) {
            return false;
        }
        (0..self.num_variables / k).all(|node| {
            let own = node * k..node * k + k;
            // Slot `slot`'s couplings to other nodes, shifted to slot 0.
            let shared = |slot: usize| {
                let own = own.clone();
                self.couplings(node * k + slot)
                    .filter(move |(j, _)| !own.contains(j))
                    .map(move |(j, w)| (j.wrapping_sub(slot), w.to_bits()))
            };
            shared(0).all(|(j, _)| j.is_multiple_of(k))
                && (1..k).all(|slot| shared(slot).eq(shared(0)))
        })
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
    /// `p` and `i`. This order is the contract [`QuboModel::mean_fields`]
    /// reproduces bit for bit, on every layout and every variable range, and
    /// the mean-field QHD sweep relies on it for results that are
    /// bit-identical across shard counts.
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

    /// The mean fields of the variables in `vars`: `fields[t]` gets the bits
    /// of [`QuboModel::mean_field`]`(p, vars.start + t)`.
    ///
    /// On a model with recorded node slots ([`QuboModel::with_node_slots`]),
    /// each node whose `k` slots all lie in `vars` is gathered in one pass:
    /// its slot-0 row is walked once, each weight is added into the node's `k`
    /// slot fields together, and each slot's terms within the node come from
    /// that slot's own row, at their place in the ascending order. Every field
    /// so sums the terms `mean_field` sums, in the same order, while the row
    /// is read once instead of `k` times and the `k` additions per weight are
    /// independent. Every other variable is gathered from its own row.
    ///
    /// # Panics
    ///
    /// Panics if `vars` reaches past the last variable, if `fields` is not
    /// `vars.len()` long, or if `p` is shorter than the number of variables.
    pub fn mean_fields(&self, p: &[f64], vars: Range<usize>, fields: &mut [f64]) {
        assert!(vars.end <= self.num_variables, "variable range past the model");
        assert_eq!(fields.len(), vars.len(), "one field per variable of the range");
        let by_row = |fields: &mut [f64], vars: Range<usize>| {
            for (field, i) in fields.iter_mut().zip(vars) {
                *field = self.mean_field(p, i);
            }
        };
        let Some(k) = self.node_slots else {
            return by_row(fields, vars);
        };
        // Whole nodes inside `vars`; a node cut by either end goes by row.
        let (first, last) = (vars.start.div_ceil(k), vars.end / k);
        if first >= last {
            return by_row(fields, vars);
        }
        let (head, rest) = fields.split_at_mut(first * k - vars.start);
        let (body, tail) = rest.split_at_mut((last - first) * k);
        by_row(head, vars.start..first * k);
        for (node, node_fields) in (first..last).zip(body.chunks_exact_mut(k)) {
            self.gather_node(p, node, node_fields);
        }
        by_row(tail, last * k..vars.end);
    }

    /// The mean fields of the `k = fields.len()` slots of `node`, from one
    /// walk over its slot-0 row (see [`QuboModel::mean_fields`]).
    fn gather_node(&self, p: &[f64], node: usize, fields: &mut [f64]) {
        let k = fields.len();
        let base = node * k;
        fields.copy_from_slice(&self.linear[base..base + k]);
        let row = self.adj_offsets[base]..self.adj_offsets[base + 1];
        let (vars, weights) = (&self.adj_vars[row.clone()], &self.adj_weights[row]);
        // The row holds the lower nodes, the node's own slots, then the
        // higher nodes; every slot's row has as many lower and higher entries.
        let own_start = vars.partition_point(|&j| j < base);
        let own_end = vars.partition_point(|&j| j < base + k);
        let higher = vars.len() - own_end;
        add_shared(fields, p, &vars[..own_start], &weights[..own_start]);
        for (slot, field) in fields.iter_mut().enumerate() {
            let own = self.adj_offsets[base + slot] + own_start
                ..self.adj_offsets[base + slot + 1] - higher;
            let mut sum = *field;
            for (&j, &w) in self.adj_vars[own.clone()].iter().zip(&self.adj_weights[own]) {
                sum += w * p[j];
            }
            *field = sum;
        }
        add_shared(fields, p, &vars[own_end..], &weights[own_end..]);
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

/// Adds `w · p[j + slot]` into `fields[slot]` for every `(j, w)` of a
/// slot-0 row span, in row order, for every slot. The slots go in blocks of
/// 8, 4, 2 and 1, which cover any slot count, and a block keeps its sums in
/// registers for the whole span. Wider blocks measured no faster: at 16
/// slots, one 16-slot block ran as fast as two 8-slot blocks.
fn add_shared(fields: &mut [f64], p: &[f64], vars: &[usize], weights: &[f64]) {
    let mut first = 0;
    while first < fields.len() {
        first += match fields.len() - first {
            8.. => add_block::<8>(fields, first, p, vars, weights),
            4..=7 => add_block::<4>(fields, first, p, vars, weights),
            2 | 3 => add_block::<2>(fields, first, p, vars, weights),
            _ => add_block::<1>(fields, first, p, vars, weights),
        };
    }
}

/// [`add_shared`] for the `W` slots from `first`, summed in registers.
/// Returns `W`.
fn add_block<const W: usize>(
    fields: &mut [f64],
    first: usize,
    p: &[f64],
    vars: &[usize],
    weights: &[f64],
) -> usize {
    let block: &mut [f64; W] = (&mut fields[first..first + W]).try_into().expect("W slots");
    let mut sums = *block;
    for (&j, &w) in vars.iter().zip(weights) {
        let x: &[f64; W] = p[j + first..j + first + W].try_into().expect("W slots");
        for (sum, &x) in sums.iter_mut().zip(x) {
            *sum += w * x;
        }
    }
    *block = sums;
    W
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

    /// Three nodes of two slots, `node·2 + slot`: a one-hot pair per node and
    /// the same node-pair couplings in both slots.
    fn two_slot_model() -> crate::QuboModel {
        let mut b = QuboBuilder::new(6);
        for (v, w) in [-1.0, 0.5, 2.0, -0.25, 3.0, 1.0].into_iter().enumerate() {
            b.add_linear(v, w).unwrap();
        }
        for slot in 0..2 {
            b.add_quadratic(slot, 2 + slot, -1.5).unwrap();
            b.add_quadratic(slot, 4 + slot, 0.75).unwrap();
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
        assert_eq!(m.clone().with_node_slots(2).node_slots(), Some(2));
        // At three slots, variables 0 and 4 would be different slots of two nodes.
        assert_eq!(m.clone().with_node_slots(3).node_slots(), None);
        assert_eq!(m.clone().with_node_slots(1).node_slots(), None);
        assert_eq!(m.with_node_slots(4).node_slots(), None);
    }

    #[test]
    fn mean_fields_match_mean_field_on_every_range() {
        let p = [0.1, 0.9, 0.35, 0.5, 1.0, 0.0];
        for m in [two_slot_model(), two_slot_model().with_node_slots(2)] {
            for start in 0..=6 {
                for end in start..=6 {
                    let mut fields = vec![f64::NAN; end - start];
                    m.mean_fields(&p, start..end, &mut fields);
                    for (i, field) in (start..end).zip(fields) {
                        assert_eq!(
                            field.to_bits(),
                            m.mean_field(&p, i).to_bits(),
                            "{start}..{end}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "variable range past the model")]
    fn mean_fields_rejects_a_range_past_the_model() {
        two_slot_model().with_node_slots(2).mean_fields(&[0.5; 7], 4..7, &mut [0.0; 3]);
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
