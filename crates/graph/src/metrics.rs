//! Partition-quality metrics: NMI and ARI.
//!
//! These metrics are used by the integration tests and the benchmark harness to
//! check that detected communities recover the planted ground truth of the
//! synthetic instances (see `generators`).

use crate::Partition;

/// Builds the contingency table between two partitions of the same node set,
/// indexed by renumbered labels of `a` then `b`.
fn contingency(a: &Partition, b: &Partition) -> (Vec<Vec<usize>>, Vec<usize>, Vec<usize>) {
    let ra = a.renumbered();
    let rb = b.renumbered();
    let ka = ra.num_communities();
    let kb = rb.num_communities();
    let mut table = vec![vec![0usize; kb]; ka];
    let mut row = vec![0usize; ka];
    let mut col = vec![0usize; kb];
    for node in 0..ra.num_nodes() {
        let i = ra.community_of(node);
        let j = rb.community_of(node);
        table[i][j] += 1;
        row[i] += 1;
        col[j] += 1;
    }
    (table, row, col)
}

/// Normalized mutual information between two partitions of the same node set,
/// using the arithmetic-mean normalisation. Returns a value in `[0, 1]`,
/// with 1 meaning identical partitions (up to label permutation).
///
/// If both partitions are trivial (a single community each) the NMI is defined
/// as 1.0; if exactly one is trivial it is 0.0.
///
/// # Panics
///
/// Panics if the partitions cover different numbers of nodes.
///
/// # Example
///
/// ```
/// use qhdcd_graph::{Partition, metrics};
///
/// # fn main() -> Result<(), qhdcd_graph::GraphError> {
/// let a = Partition::from_labels(vec![0, 0, 1, 1])?;
/// let b = Partition::from_labels(vec![5, 5, 9, 9])?;
/// assert!((metrics::normalized_mutual_information(&a, &b) - 1.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
pub fn normalized_mutual_information(a: &Partition, b: &Partition) -> f64 {
    assert_eq!(a.num_nodes(), b.num_nodes(), "partitions must cover the same node set");
    let n = a.num_nodes() as f64;
    let (table, row, col) = contingency(a, b);
    let entropy = |counts: &[usize]| -> f64 {
        counts
            .iter()
            .filter(|&&c| c > 0)
            .map(|&c| {
                let p = c as f64 / n;
                -p * p.ln()
            })
            .sum()
    };
    let ha = entropy(&row);
    let hb = entropy(&col);
    if ha == 0.0 && hb == 0.0 {
        return 1.0;
    }
    if ha == 0.0 || hb == 0.0 {
        return 0.0;
    }
    let mut mi = 0.0;
    for (i, r) in table.iter().enumerate() {
        for (j, &nij) in r.iter().enumerate() {
            if nij == 0 {
                continue;
            }
            let pij = nij as f64 / n;
            let pi = row[i] as f64 / n;
            let pj = col[j] as f64 / n;
            mi += pij * (pij / (pi * pj)).ln();
        }
    }
    (2.0 * mi / (ha + hb)).clamp(0.0, 1.0)
}

/// Adjusted Rand index between two partitions of the same node set. Returns a
/// value in `[-1, 1]`, 1 for identical partitions, ~0 for independent ones.
///
/// # Panics
///
/// Panics if the partitions cover different numbers of nodes.
pub fn adjusted_rand_index(a: &Partition, b: &Partition) -> f64 {
    assert_eq!(a.num_nodes(), b.num_nodes(), "partitions must cover the same node set");
    let n = a.num_nodes();
    let (table, row, col) = contingency(a, b);
    let choose2 = |x: usize| -> f64 { (x as f64) * (x as f64 - 1.0) / 2.0 };
    let sum_ij: f64 = table.iter().flatten().map(|&x| choose2(x)).sum();
    let sum_i: f64 = row.iter().map(|&x| choose2(x)).sum();
    let sum_j: f64 = col.iter().map(|&x| choose2(x)).sum();
    let total = choose2(n);
    if total == 0.0 {
        return 1.0;
    }
    let expected = sum_i * sum_j / total;
    let max_index = 0.5 * (sum_i + sum_j);
    if (max_index - expected).abs() < 1e-15 {
        return 1.0;
    }
    (sum_ij - expected) / (max_index - expected)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Partition;

    #[test]
    fn nmi_identical_and_permuted_labels() {
        let a = Partition::from_labels(vec![0, 0, 1, 1, 2, 2]).unwrap();
        let b = Partition::from_labels(vec![9, 9, 4, 4, 7, 7]).unwrap();
        assert!((normalized_mutual_information(&a, &b) - 1.0).abs() < 1e-12);
        assert!((adjusted_rand_index(&a, &b) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn nmi_of_unrelated_partitions_is_low() {
        let a = Partition::from_labels(vec![0, 0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 3]).unwrap();
        let b = Partition::from_labels(vec![0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3]).unwrap();
        let nmi = normalized_mutual_information(&a, &b);
        assert!(nmi < 0.3, "nmi={nmi}");
        let ari = adjusted_rand_index(&a, &b);
        assert!(ari.abs() < 0.3, "ari={ari}");
    }

    #[test]
    fn trivial_partitions() {
        let a = Partition::all_in_one(5);
        let b = Partition::all_in_one(5);
        assert_eq!(normalized_mutual_information(&a, &b), 1.0);
        let c = Partition::from_labels(vec![0, 0, 1, 1, 1]).unwrap();
        assert_eq!(normalized_mutual_information(&a, &c), 0.0);
        assert_eq!(adjusted_rand_index(&a, &a), 1.0);
    }

    #[test]
    #[should_panic(expected = "same node set")]
    fn nmi_panics_on_size_mismatch() {
        let a = Partition::all_in_one(3);
        let b = Partition::all_in_one(4);
        normalized_mutual_information(&a, &b);
    }

    #[test]
    fn ari_is_symmetric() {
        let a = Partition::from_labels(vec![0, 0, 1, 1, 2, 2, 2]).unwrap();
        let b = Partition::from_labels(vec![0, 1, 1, 1, 2, 2, 0]).unwrap();
        let ab = adjusted_rand_index(&a, &b);
        let ba = adjusted_rand_index(&b, &a);
        assert!((ab - ba).abs() < 1e-12);
        let nab = normalized_mutual_information(&a, &b);
        let nba = normalized_mutual_information(&b, &a);
        assert!((nab - nba).abs() < 1e-12);
    }
}
