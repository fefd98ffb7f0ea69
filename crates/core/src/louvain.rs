//! The Louvain method — the standard classical modularity-maximisation baseline.
//!
//! Louvain alternates a local phase (greedy single-node quality-gain moves,
//! shared with [`crate::refine`]) and an aggregation phase (merging communities
//! into super-nodes) until the configured quality stops improving. It is
//! included both as a quality baseline for the QHD pipelines and as a
//! reference implementation of the aggregation machinery.
//!
//! The quality function is taken from `config.refine.quality`. Both families
//! are preserved exactly by aggregation: super-node degrees are the community
//! degree sums (modularity), and super-node weights carry the merged node
//! counts, so coarse-level CPM gains price the `γ n (n − 1)/2` null term
//! exactly too (via [`qhdcd_graph::QualityFunction::gain`]). The
//! reported quality is always evaluated on the original graph.

use crate::refine::{refine_partition, RefineConfig};
use crate::CdError;
use qhdcd_graph::{modularity, quotient, Graph, Partition};

/// Configuration of the Louvain baseline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LouvainConfig {
    /// Maximum number of (local phase + aggregation) rounds.
    pub max_rounds: usize,
    /// Parameters of each local phase, including the quality function driving
    /// every gain and quality evaluation of the run.
    pub refine: RefineConfig,
    /// Minimum quality improvement per round to keep going.
    pub min_improvement: f64,
}

impl Default for LouvainConfig {
    fn default() -> Self {
        LouvainConfig { max_rounds: 10, refine: RefineConfig::default(), min_improvement: 1e-6 }
    }
}

/// Outcome of a Louvain run.
#[derive(Debug, Clone)]
pub struct LouvainOutcome {
    /// The detected partition of the input graph (renumbered).
    pub partition: Partition,
    /// Quality of [`LouvainOutcome::partition`] under the configured quality
    /// function (modularity by default).
    pub modularity: f64,
    /// Number of rounds performed.
    pub rounds: usize,
}

/// Runs the Louvain method on `graph`.
///
/// # Errors
///
/// Returns [`CdError::InvalidConfig`] for a zero round budget and propagates
/// graph errors from aggregation.
///
/// # Example
///
/// ```
/// use qhdcd_core::louvain::{detect, LouvainConfig};
/// use qhdcd_graph::generators;
///
/// # fn main() -> Result<(), qhdcd_core::CdError> {
/// let g = generators::karate_club();
/// let out = detect(&g, &LouvainConfig::default())?;
/// assert!(out.modularity > 0.38);
/// # Ok(())
/// # }
/// ```
pub fn detect(graph: &Graph, config: &LouvainConfig) -> Result<LouvainOutcome, CdError> {
    if config.max_rounds == 0 {
        return Err(CdError::InvalidConfig { reason: "max_rounds must be > 0".into() });
    }
    // `membership[i]` is the community of original node i in terms of the
    // current working (aggregated) graph's node ids.
    let mut membership: Vec<usize> = (0..graph.num_nodes()).collect();
    let mut working = graph.clone();
    let quality = config.refine.quality;
    let mut best_q = modularity::quality(
        graph,
        &Partition::from_labels(membership.clone()).map_err(CdError::Graph)?,
        quality,
    );
    let mut rounds = 0usize;
    for _ in 0..config.max_rounds {
        rounds += 1;
        // Local phase on the working graph, starting from singletons.
        let singletons = Partition::singletons(working.num_nodes());
        let refined = refine_partition(&working, &singletons, &config.refine)?.partition;
        // Translate to a partition of the original graph.
        let original_labels: Vec<usize> =
            membership.iter().map(|&w| refined.community_of(w)).collect();
        let original_partition =
            Partition::from_labels(original_labels.clone()).map_err(CdError::Graph)?;
        let q = modularity::quality(graph, &original_partition, quality);
        if q <= best_q + config.min_improvement && rounds > 1 {
            break;
        }
        best_q = best_q.max(q);
        // Aggregation phase: communities of the working graph become super-nodes.
        // `agg.coarse_of[w]` is the super-node of working-graph node `w`, so the
        // original-node membership is updated by composing the two maps.
        let agg = quotient::aggregate(&working, &refined).map_err(CdError::Graph)?;
        membership = membership.iter().map(|&w| agg.coarse_of[w]).collect();
        working = agg.graph;
        if working.num_nodes() <= 1 {
            break;
        }
    }
    // Final labels: map original nodes through the last membership.
    let partition = Partition::from_labels(membership).map_err(CdError::Graph)?.renumbered();
    let q = modularity::quality(graph, &partition, quality);
    // Guard: if the loop ended in a state worse than an earlier round (possible
    // when the last aggregation did not help), fall back to a single refinement
    // of the final partition on the original graph.
    let polished = refine_partition(graph, &partition, &config.refine)?.partition;
    let q_polished = modularity::quality(graph, &polished, quality);
    if q_polished >= q {
        Ok(LouvainOutcome { partition: polished, modularity: q_polished, rounds })
    } else {
        Ok(LouvainOutcome { partition, modularity: q, rounds })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qhdcd_graph::{generators, metrics};

    #[test]
    fn karate_club_reaches_the_known_modularity_range() {
        let g = generators::karate_club();
        let out = detect(&g, &LouvainConfig::default()).unwrap();
        assert!(out.modularity > 0.38 && out.modularity <= 0.42, "q={}", out.modularity);
        assert!(out.rounds >= 1);
    }

    #[test]
    fn recovers_planted_communities() {
        let pg = generators::planted_partition(&generators::PlantedPartitionConfig {
            num_nodes: 200,
            num_communities: 5,
            p_in: 0.3,
            p_out: 0.01,
            seed: 3,
        })
        .unwrap();
        let out = detect(&pg.graph, &LouvainConfig::default()).unwrap();
        let nmi = metrics::normalized_mutual_information(&out.partition, &pg.ground_truth);
        assert!(nmi > 0.9, "nmi={nmi}");
    }

    #[test]
    fn zero_round_budget_is_rejected() {
        let g = generators::karate_club();
        assert!(detect(&g, &LouvainConfig { max_rounds: 0, ..LouvainConfig::default() }).is_err());
    }

    #[test]
    fn cpm_louvain_partitions_ring_of_cliques_into_cliques() {
        let pg = generators::ring_of_cliques(6, 5).unwrap();
        let config = LouvainConfig {
            refine: RefineConfig {
                quality: qhdcd_graph::QualityFunction::cpm(0.5),
                ..RefineConfig::default()
            },
            ..LouvainConfig::default()
        };
        let out = detect(&pg.graph, &config).unwrap();
        let nmi = metrics::normalized_mutual_information(&out.partition, &pg.ground_truth);
        assert!(nmi > 0.95, "nmi={nmi}");
        // Six cliques, each worth 10 − 0.5·10 = 5 under CPM at γ = 0.5.
        assert!((out.modularity - 30.0).abs() < 1e-9, "q={}", out.modularity);
    }

    #[test]
    fn higher_resolution_never_coarsens_the_karate_partition() {
        let g = generators::karate_club();
        let communities = |resolution: f64| {
            let config = LouvainConfig {
                refine: RefineConfig {
                    quality: qhdcd_graph::QualityFunction::modularity(resolution),
                    ..RefineConfig::default()
                },
                ..LouvainConfig::default()
            };
            detect(&g, &config).unwrap().partition.num_communities()
        };
        let coarse = communities(0.5);
        let default = communities(1.0);
        let fine = communities(4.0);
        assert!(coarse <= default, "γ=0.5 gave {coarse} > γ=1 {default}");
        assert!(fine >= default, "γ=4 gave {fine} < γ=1 {default}");
        assert!(fine > coarse, "resolution sweep had no effect: {coarse}..{fine}");
    }

    #[test]
    fn ring_of_cliques_is_partitioned_into_cliques() {
        let pg = generators::ring_of_cliques(8, 5).unwrap();
        let out = detect(&pg.graph, &LouvainConfig::default()).unwrap();
        let nmi = metrics::normalized_mutual_information(&out.partition, &pg.ground_truth);
        assert!(nmi > 0.95, "nmi={nmi}");
        assert!(out.modularity > 0.7);
    }
}
