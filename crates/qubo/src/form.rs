//! The node-slot form of a community-detection QUBO's couplings
//! ([`SlotForm`]).

use crate::QuboModel;
use std::ops::Range;

/// How far a stored coupling may lie from its form value, relative to the
/// sum of the magnitudes of the value's terms (a sum of terms that cancel
/// makes a plain relative test meaningless).
const FORM_TOLERANCE: f64 = 1e-12;

/// The node-slot form of a QUBO's couplings.
///
/// A community-detection QUBO gives node `u` one binary variable per
/// community slot, `u·k + c`, and every coupling either joins two slots of
/// one node or the same slot of two nodes. Per slot, the node-pair block is a
/// sparse graph term plus rank-one terms (the modularity matrix
/// `B = A − γ d dᵀ/2m` and the constant balance penalty), so it need not be
/// read pair by pair. A form holds that structure over `q.len()` nodes of
/// `slots` slots each:
///
/// ```text
/// W(u,c)(v,c)  = s_uv + κ·q_u·q_v + σ     for nodes u ≠ v,
/// W(u,c)(u,c′) = ρ                        for slots c ≠ c′,
/// ```
///
/// every other coupling zero, with `s` sparse (CSR over nodes). The linear
/// terms stay per variable. A form takes effect through
/// [`QuboModel::with_slot_form`], which checks it against the model's rows;
/// the model then gathers its mean fields from the form in O(m·k + n·k) per
/// call instead of reading its n²·k dense couplings: with the per-slot
/// aggregates `S_c = Σ_v q_v p_vc` and `T_c = Σ_v p_vc` and the per-node sum
/// `R_u = Σ_c p_uc`,
///
/// ```text
/// h(u,c) = b(u,c) + Σ_v s_uv p_vc + κ q_u (S_c − q_u p_uc) + σ (T_c − p_uc) + ρ (R_u − p_uc).
/// ```
///
/// Newman 2006 ("Modularity and community structure in networks", PNAS)
/// multiplies by the modularity matrix the same way.
#[derive(Debug, Clone, PartialEq)]
pub struct SlotForm {
    slots: usize,
    q: Vec<f64>,
    kappa: f64,
    sigma: f64,
    rho: f64,
    /// CSR rows of `s` over nodes: row `u` lists `(v, s_uv)` for `v ≠ u`,
    /// sorted by `v`.
    offsets: Vec<usize>,
    neighbors: Vec<usize>,
    weights: Vec<f64>,
}

impl SlotForm {
    /// The form over `q.len()` nodes of `slots` slots each, with the sparse
    /// term `s` given as `pairs`: each unordered node pair at most once, as
    /// `(u, v, s_uv)` with `u ≠ v`.
    ///
    /// # Panics
    ///
    /// Panics if `slots` is zero, or if a pair names a node past `q.len()`,
    /// joins a node to itself or repeats a pair.
    pub fn new(
        slots: usize,
        q: Vec<f64>,
        kappa: f64,
        sigma: f64,
        rho: f64,
        pairs: &[(usize, usize, f64)],
    ) -> Self {
        assert!(slots > 0, "a form needs at least one slot per node");
        let nodes = q.len();
        let mut entries: Vec<(usize, usize, f64)> =
            pairs.iter().flat_map(|&(u, v, s)| [(u, v, s), (v, u, s)]).collect();
        entries.sort_unstable_by_key(|&(u, v, _)| (u, v));
        let mut offsets = vec![0usize; nodes + 1];
        for (at, &(u, v, _)) in entries.iter().enumerate() {
            assert!(u < nodes && v < nodes, "pair ({u}, {v}) past the form's {nodes} nodes");
            assert_ne!(u, v, "the sparse term has no diagonal");
            assert!(at == 0 || entries[at - 1].0 != u || entries[at - 1].1 != v, "pair repeated");
            offsets[u + 1] += 1;
        }
        for u in 0..nodes {
            offsets[u + 1] += offsets[u];
        }
        SlotForm {
            slots,
            q,
            kappa,
            sigma,
            rho,
            offsets,
            neighbors: entries.iter().map(|&(_, v, _)| v).collect(),
            weights: entries.iter().map(|&(.., s)| s).collect(),
        }
    }

    /// The slot count `k`.
    pub(crate) fn slots(&self) -> usize {
        self.slots
    }

    /// Row `u` of the sparse term: its nodes and their weights.
    fn row(&self, u: usize) -> (&[usize], &[f64]) {
        let span = self.offsets[u]..self.offsets[u + 1];
        (&self.neighbors[span.clone()], &self.weights[span])
    }

    /// The form value of `W(u,c)(v,c)` for nodes `u ≠ v` with sparse weight
    /// `s`, and the sum of its terms' magnitudes.
    fn pair(&self, u: usize, v: usize, s: f64) -> (f64, f64) {
        let rank_one = self.kappa * self.q[u] * self.q[v];
        (s + rank_one + self.sigma, s.abs() + rank_one.abs() + self.sigma.abs())
    }

    /// Whether `model`'s rows show this form: `k` slots divide its
    /// variables into the form's nodes, every stored coupling lies within
    /// [`FORM_TOLERANCE`] of its form value, and every form value beyond that
    /// tolerance is stored. Linear in the couplings, plus O(n) per node that
    /// carries a rank-one or `σ` term, whose rows then hold ~n couplings.
    pub(crate) fn holds(&self, model: &QuboModel) -> bool {
        let (k, nodes) = (self.slots, self.q.len());
        let finite = [self.kappa, self.sigma, self.rho].iter().all(|c| c.is_finite())
            && self.q.iter().chain(&self.weights).all(|c| c.is_finite());
        if !finite || nodes.checked_mul(k) != Some(model.num_variables()) {
            return false;
        }
        let close = |w: f64, (value, magnitude): (f64, f64)| {
            (w - value).abs() <= FORM_TOLERANCE * magnitude
        };
        let significant = |(value, magnitude): (f64, f64)| value.abs() > FORM_TOLERANCE * magnitude;
        let own = (self.rho, self.rho.abs());
        // The nodes a dense term can reach: every node under σ ≠ 0, else
        // those with q ≠ 0 (κ·q_u·q_v is zero for the rest).
        let reach: Vec<usize> =
            (0..nodes).filter(|&v| self.sigma != 0.0 || self.q[v] != 0.0).collect();
        (0..nodes).all(|u| {
            let (row, weights) = self.row(u);
            // How many couplings each of u's slot rows must hold.
            let mut required = if significant(own) { k - 1 } else { 0 };
            required +=
                row.iter().zip(weights).filter(|&(&v, &s)| significant(self.pair(u, v, s))).count();
            if self.sigma != 0.0 || self.kappa * self.q[u] != 0.0 {
                let mut next = 0;
                for &v in &reach {
                    while next < row.len() && row[next] < v {
                        next += 1;
                    }
                    let in_row = next < row.len() && row[next] == v;
                    if v != u && !in_row && significant(self.pair(u, v, 0.0)) {
                        required += 1;
                    }
                }
            }
            (0..k).all(|c| {
                let mut held = 0;
                let mut next = 0;
                for (j, w) in model.couplings(u * k + c) {
                    let (v, slot) = (j / k, j % k);
                    let value = if v == u {
                        own
                    } else if slot == c {
                        while next < row.len() && row[next] < v {
                            next += 1;
                        }
                        let s =
                            if next < row.len() && row[next] == v { weights[next] } else { 0.0 };
                        self.pair(u, v, s)
                    } else {
                        return false;
                    };
                    if !close(w, value) {
                        return false;
                    }
                    held += usize::from(significant(value));
                }
                held == required
            })
        })
    }

    /// The mean fields of the variables in `vars` (see [`SlotForm`]), with
    /// the linear terms `linear`. The slots go in
    /// blocks of 8, 4, 2 and 1, which cover any slot count; per block, the
    /// aggregates are summed over every node in ascending order, then each
    /// node's sparse row is walked once with the block's sums in registers.
    /// Every field is so a function of the form, `linear`, `p` and its
    /// variable alone, whatever range it is asked for in.
    pub(crate) fn mean_fields(
        &self,
        linear: &[f64],
        p: &[f64],
        vars: Range<usize>,
        fields: &mut [f64],
    ) {
        let k = self.slots;
        let mut first = 0;
        while first < k {
            first += match k - first {
                8.. => self.block::<8>(linear, p, first, &vars, fields),
                4..=7 => self.block::<4>(linear, p, first, &vars, fields),
                2 | 3 => self.block::<2>(linear, p, first, &vars, fields),
                _ => self.block::<1>(linear, p, first, &vars, fields),
            };
        }
    }

    /// [`SlotForm::mean_fields`] for the `W` slots from `first`. Returns `W`.
    fn block<const W: usize>(
        &self,
        linear: &[f64],
        p: &[f64],
        first: usize,
        vars: &Range<usize>,
        fields: &mut [f64],
    ) -> usize {
        let k = self.slots;
        let lanes = |at: usize| -> &[f64; W] { p[at..at + W].try_into().expect("W slots") };
        let (mut s_agg, mut t_agg) = ([0.0f64; W], [0.0f64; W]);
        for (v, &q) in self.q.iter().enumerate() {
            for ((s, t), &x) in s_agg.iter_mut().zip(&mut t_agg).zip(lanes(v * k + first)) {
                *s += q * x;
                *t += x;
            }
        }
        for u in vars.start / k..vars.end.div_ceil(k) {
            let at = u * k + first;
            let (lo, hi) = (at.max(vars.start), (at + W).min(vars.end));
            if lo >= hi {
                continue;
            }
            let mut sums: [f64; W] = linear[at..at + W].try_into().expect("W slots");
            let (row, weights) = self.row(u);
            for (&v, &w) in row.iter().zip(weights) {
                for (sum, &x) in sums.iter_mut().zip(lanes(v * k + first)) {
                    *sum += w * x;
                }
            }
            let own = &p[u * k..u * k + k];
            let r = own.iter().fold(0.0, |r, &x| r + x);
            let (q, kq) = (self.q[u], self.kappa * self.q[u]);
            for (l, sum) in sums.iter_mut().enumerate() {
                let x = own[first + l];
                *sum += kq * (s_agg[l] - q * x);
                *sum += self.sigma * (t_agg[l] - x);
                *sum += self.rho * (r - x);
            }
            fields[lo - vars.start..hi - vars.start].copy_from_slice(&sums[lo - at..hi - at]);
        }
        W
    }
}
