//! Deterministic synthetic graph generators.
//!
//! The paper evaluates on SNAP datasets (facebook, lastfm_asia, musae_chameleon,
//! tvshow) and on a corpus of unnamed small/medium networks. Those files are not
//! redistributable in this offline environment, so the benchmark harness uses the
//! generators in this module to synthesise graphs with *matched node counts, edge
//! counts and densities* and with planted community structure (see README.md,
//! "Substitutions"). All generators are seeded and fully deterministic.

use crate::{Graph, GraphBuilder, GraphError, Partition};
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;

/// Configuration for the planted-partition (equal-block stochastic block model)
/// generator, the workhorse for reproducing the paper's instances.
#[derive(Debug, Clone, PartialEq)]
pub struct PlantedPartitionConfig {
    /// Number of nodes.
    pub num_nodes: usize,
    /// Number of planted communities.
    pub num_communities: usize,
    /// Probability of an edge inside a community.
    pub p_in: f64,
    /// Probability of an edge between communities.
    pub p_out: f64,
    /// RNG seed.
    pub seed: u64,
}

impl PlantedPartitionConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::InvalidGeneratorConfig`] if any field is out of range.
    pub fn validate(&self) -> Result<(), GraphError> {
        if self.num_nodes == 0 {
            return Err(GraphError::InvalidGeneratorConfig {
                reason: "num_nodes must be > 0".into(),
            });
        }
        if self.num_communities == 0 || self.num_communities > self.num_nodes {
            return Err(GraphError::InvalidGeneratorConfig {
                reason: "num_communities must be in 1..=num_nodes".into(),
            });
        }
        for (name, p) in [("p_in", self.p_in), ("p_out", self.p_out)] {
            if !(0.0..=1.0).contains(&p) || p.is_nan() {
                return Err(GraphError::InvalidGeneratorConfig {
                    reason: format!("{name} must be a probability in [0, 1], got {p}"),
                });
            }
        }
        Ok(())
    }
}

/// Result of a generator that also knows the planted ground-truth communities.
#[derive(Debug, Clone)]
pub struct PlantedGraph {
    /// The generated graph.
    pub graph: Graph,
    /// The planted ground-truth partition.
    pub ground_truth: Partition,
}

/// Generates a planted-partition graph: nodes are split into equal-size blocks
/// and each pair is connected with probability `p_in` (same block) or `p_out`
/// (different blocks).
///
/// # Errors
///
/// Returns [`GraphError::InvalidGeneratorConfig`] for invalid configurations.
///
/// # Example
///
/// ```
/// use qhdcd_graph::generators::{planted_partition, PlantedPartitionConfig};
///
/// # fn main() -> Result<(), qhdcd_graph::GraphError> {
/// let pg = planted_partition(&PlantedPartitionConfig {
///     num_nodes: 60,
///     num_communities: 3,
///     p_in: 0.5,
///     p_out: 0.02,
///     seed: 7,
/// })?;
/// assert_eq!(pg.graph.num_nodes(), 60);
/// assert_eq!(pg.ground_truth.num_communities(), 3);
/// # Ok(())
/// # }
/// ```
pub fn planted_partition(config: &PlantedPartitionConfig) -> Result<PlantedGraph, GraphError> {
    config.validate()?;
    let n = config.num_nodes;
    let k = config.num_communities;
    let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
    let labels: Vec<usize> = (0..n).map(|i| i * k / n).collect();
    let mut b = GraphBuilder::new(n);
    for i in 0..n {
        for j in (i + 1)..n {
            let p = if labels[i] == labels[j] { config.p_in } else { config.p_out };
            if rng.gen::<f64>() < p {
                b.add_edge(i, j, 1.0)?;
            }
        }
    }
    Ok(PlantedGraph { graph: b.build(), ground_truth: Partition::from_labels(labels)? })
}

/// Generates a planted-partition graph whose expected edge count matches
/// `target_edges`, by choosing `p_in`/`p_out` so that a `mixing` fraction of
/// edges fall between communities. This is how the benchmark harness matches
/// the (nodes, edges) rows of Tables I and II.
///
/// `mixing` is the expected fraction of inter-community edges, typically 0.1–0.3.
///
/// # Errors
///
/// Returns [`GraphError::InvalidGeneratorConfig`] if the target is infeasible
/// (e.g. more edges than node pairs, or `mixing` outside `[0, 1)`).
pub fn planted_partition_with_edge_budget(
    num_nodes: usize,
    num_communities: usize,
    target_edges: usize,
    mixing: f64,
    seed: u64,
) -> Result<PlantedGraph, GraphError> {
    if num_nodes < 2 {
        return Err(GraphError::InvalidGeneratorConfig {
            reason: "need at least two nodes".into(),
        });
    }
    if !(0.0..1.0).contains(&mixing) {
        return Err(GraphError::InvalidGeneratorConfig {
            reason: format!("mixing must be in [0, 1), got {mixing}"),
        });
    }
    let n = num_nodes as f64;
    let k = num_communities as f64;
    let pairs_total = n * (n - 1.0) / 2.0;
    // Expected intra-community pairs with equal blocks of size n/k.
    let pairs_in = k * (n / k) * (n / k - 1.0) / 2.0;
    let pairs_out = pairs_total - pairs_in;
    let m = target_edges as f64;
    if m > pairs_total {
        return Err(GraphError::InvalidGeneratorConfig {
            reason: format!("target_edges {target_edges} exceeds the number of node pairs"),
        });
    }
    let p_in = if pairs_in > 0.0 { ((1.0 - mixing) * m / pairs_in).min(1.0) } else { 0.0 };
    let p_out = if pairs_out > 0.0 { (mixing * m / pairs_out).min(1.0) } else { 0.0 };
    planted_partition(&PlantedPartitionConfig { num_nodes, num_communities, p_in, p_out, seed })
}

/// Generates a ring of `num_cliques` cliques of `clique_size` nodes each, with
/// a single edge connecting consecutive cliques. This family has an obvious and
/// well-separated community structure, useful for tests and examples.
///
/// # Errors
///
/// Returns [`GraphError::InvalidGeneratorConfig`] for degenerate configurations.
pub fn ring_of_cliques(num_cliques: usize, clique_size: usize) -> Result<PlantedGraph, GraphError> {
    if num_cliques == 0 || clique_size == 0 {
        return Err(GraphError::InvalidGeneratorConfig {
            reason: "num_cliques and clique_size must be > 0".into(),
        });
    }
    let n = num_cliques * clique_size;
    let mut b = GraphBuilder::new(n);
    let mut labels = vec![0usize; n];
    for c in 0..num_cliques {
        let base = c * clique_size;
        for i in 0..clique_size {
            labels[base + i] = c;
            for j in (i + 1)..clique_size {
                b.add_edge(base + i, base + j, 1.0)?;
            }
        }
        if num_cliques > 1 {
            let next_base = ((c + 1) % num_cliques) * clique_size;
            b.add_edge(base, next_base, 1.0)?;
        }
    }
    Ok(PlantedGraph { graph: b.build(), ground_truth: Partition::from_labels(labels)? })
}

/// Configuration for the LFR-like power-law community graph generator.
///
/// This is a simplified LFR benchmark: community sizes and node degrees follow
/// truncated power laws and a `mixing` fraction of each node's edges go outside
/// its community. It produces the heavy-tailed degree structure of real social
/// networks used in Table II.
#[derive(Debug, Clone, PartialEq)]
pub struct LfrConfig {
    /// Number of nodes.
    pub num_nodes: usize,
    /// Average degree.
    pub average_degree: f64,
    /// Maximum degree (truncation of the power law).
    pub max_degree: usize,
    /// Degree power-law exponent (typically 2–3).
    pub degree_exponent: f64,
    /// Minimum community size.
    pub min_community: usize,
    /// Maximum community size.
    pub max_community: usize,
    /// Fraction of each node's edges that leave its community.
    pub mixing: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for LfrConfig {
    fn default() -> Self {
        LfrConfig {
            num_nodes: 250,
            average_degree: 8.0,
            max_degree: 40,
            degree_exponent: 2.5,
            min_community: 20,
            max_community: 60,
            mixing: 0.2,
            seed: 1,
        }
    }
}

/// Generates an LFR-like graph with power-law degrees and planted communities.
///
/// # Errors
///
/// Returns [`GraphError::InvalidGeneratorConfig`] for degenerate configurations.
pub fn lfr_like(config: &LfrConfig) -> Result<PlantedGraph, GraphError> {
    if config.num_nodes == 0 {
        return Err(GraphError::InvalidGeneratorConfig { reason: "num_nodes must be > 0".into() });
    }
    if config.min_community == 0 || config.min_community > config.max_community {
        return Err(GraphError::InvalidGeneratorConfig {
            reason: "community size bounds must satisfy 0 < min <= max".into(),
        });
    }
    if !(0.0..1.0).contains(&config.mixing) {
        return Err(GraphError::InvalidGeneratorConfig {
            reason: format!("mixing must be in [0, 1), got {}", config.mixing),
        });
    }
    if config.average_degree <= 0.0 || config.max_degree == 0 {
        return Err(GraphError::InvalidGeneratorConfig {
            reason: "average_degree and max_degree must be positive".into(),
        });
    }
    let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
    let n = config.num_nodes;

    // 1. Assign community sizes from a truncated power law until all nodes are used.
    let mut labels = vec![0usize; n];
    let mut community_of_slot = Vec::new();
    let mut assigned = 0usize;
    let mut community = 0usize;
    while assigned < n {
        let remaining = n - assigned;
        let mut size = sample_power_law(&mut rng, config.min_community, config.max_community, 1.5);
        if size > remaining {
            size = remaining;
        }
        for _ in 0..size {
            labels[assigned] = community;
            community_of_slot.push(community);
            assigned += 1;
        }
        community += 1;
    }
    let num_communities = community;

    // 2. Sample target degrees from a truncated power law with the requested mean.
    let mut degrees: Vec<usize> = (0..n)
        .map(|_| sample_power_law(&mut rng, 1, config.max_degree, config.degree_exponent))
        .collect();
    let current_mean: f64 = degrees.iter().map(|&d| d as f64).sum::<f64>() / n as f64;
    let scale = config.average_degree / current_mean.max(1e-9);
    for d in &mut degrees {
        *d = ((*d as f64 * scale).round() as usize).clamp(1, config.max_degree);
    }

    // 3. Build intra-community and inter-community stubs and pair them up.
    let mut nodes_by_community: Vec<Vec<usize>> = vec![Vec::new(); num_communities];
    for (node, &c) in labels.iter().enumerate() {
        nodes_by_community[c].push(node);
    }
    let mut b = GraphBuilder::new(n);
    let mut intra_stubs: Vec<Vec<usize>> = vec![Vec::new(); num_communities];
    let mut inter_stubs: Vec<usize> = Vec::new();
    for (node, &d) in degrees.iter().enumerate() {
        let inter = (d as f64 * config.mixing).round() as usize;
        let intra = d - inter.min(d);
        for _ in 0..intra {
            intra_stubs[labels[node]].push(node);
        }
        for _ in 0..inter.min(d) {
            inter_stubs.push(node);
        }
    }
    for stubs in intra_stubs.iter_mut() {
        stubs.shuffle(&mut rng);
        pair_stubs(&mut b, stubs)?;
    }
    inter_stubs.shuffle(&mut rng);
    pair_stubs(&mut b, &inter_stubs)?;

    Ok(PlantedGraph { graph: b.build(), ground_truth: Partition::from_labels(labels)? })
}

/// Pairs consecutive stubs into edges, skipping self-pairs.
fn pair_stubs(b: &mut GraphBuilder, stubs: &[usize]) -> Result<(), GraphError> {
    let mut i = 0;
    while i + 1 < stubs.len() {
        let (u, v) = (stubs[i], stubs[i + 1]);
        if u != v {
            b.add_edge(u, v, 1.0)?;
        }
        i += 2;
    }
    Ok(())
}

/// Samples from a truncated power law `P(x) ∝ x^{-exponent}` on `[min, max]`.
fn sample_power_law<R: Rng>(rng: &mut R, min: usize, max: usize, exponent: f64) -> usize {
    if min >= max {
        return min;
    }
    let (a, b) = (min as f64, max as f64 + 1.0);
    let u: f64 = rng.gen();
    let x = if (exponent - 1.0).abs() < 1e-9 {
        a * (b / a).powf(u)
    } else {
        let e = 1.0 - exponent;
        (u * (b.powf(e) - a.powf(e)) + a.powf(e)).powf(1.0 / e)
    };
    (x.floor() as usize).clamp(min, max)
}

/// Zachary's karate club graph (34 nodes, 78 edges), the classic community
/// detection test instance.
pub fn karate_club() -> Graph {
    const EDGES: &[(usize, usize)] = &[
        (0, 1),
        (0, 2),
        (0, 3),
        (0, 4),
        (0, 5),
        (0, 6),
        (0, 7),
        (0, 8),
        (0, 10),
        (0, 11),
        (0, 12),
        (0, 13),
        (0, 17),
        (0, 19),
        (0, 21),
        (0, 31),
        (1, 2),
        (1, 3),
        (1, 7),
        (1, 13),
        (1, 17),
        (1, 19),
        (1, 21),
        (1, 30),
        (2, 3),
        (2, 7),
        (2, 8),
        (2, 9),
        (2, 13),
        (2, 27),
        (2, 28),
        (2, 32),
        (3, 7),
        (3, 12),
        (3, 13),
        (4, 6),
        (4, 10),
        (5, 6),
        (5, 10),
        (5, 16),
        (6, 16),
        (8, 30),
        (8, 32),
        (8, 33),
        (9, 33),
        (13, 33),
        (14, 32),
        (14, 33),
        (15, 32),
        (15, 33),
        (18, 32),
        (18, 33),
        (19, 33),
        (20, 32),
        (20, 33),
        (22, 32),
        (22, 33),
        (23, 25),
        (23, 27),
        (23, 29),
        (23, 32),
        (23, 33),
        (24, 25),
        (24, 27),
        (24, 31),
        (25, 31),
        (26, 29),
        (26, 33),
        (27, 33),
        (28, 31),
        (28, 33),
        (29, 32),
        (29, 33),
        (30, 32),
        (30, 33),
        (31, 32),
        (31, 33),
        (32, 33),
    ];
    GraphBuilder::from_unweighted_edges(34, EDGES.iter().copied())
        .expect("karate club edge list is valid")
}

/// The widely used four-community split of the karate club (modularity ≈ 0.42),
/// useful as a reference partition in tests and examples.
pub fn karate_club_communities() -> Partition {
    let labels = vec![
        0, 0, 0, 0, 1, 1, 1, 0, 2, 2, 1, 0, 0, 0, 2, 2, 1, 0, 2, 0, 2, 0, 2, 3, 3, 3, 2, 3, 3, 2,
        2, 3, 2, 2,
    ];
    Partition::from_labels(labels).expect("karate labels are non-empty")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics;

    #[test]
    fn planted_partition_is_deterministic() {
        let cfg = PlantedPartitionConfig {
            num_nodes: 50,
            num_communities: 5,
            p_in: 0.4,
            p_out: 0.05,
            seed: 42,
        };
        let a = planted_partition(&cfg).unwrap();
        let b = planted_partition(&cfg).unwrap();
        assert_eq!(a.graph, b.graph);
        assert_eq!(a.ground_truth, b.ground_truth);
    }

    #[test]
    fn planted_partition_rejects_bad_config() {
        let mut cfg = PlantedPartitionConfig {
            num_nodes: 10,
            num_communities: 2,
            p_in: 0.5,
            p_out: 0.1,
            seed: 0,
        };
        cfg.p_in = 1.5;
        assert!(planted_partition(&cfg).is_err());
        cfg.p_in = 0.5;
        cfg.num_communities = 0;
        assert!(planted_partition(&cfg).is_err());
        cfg.num_communities = 20;
        assert!(planted_partition(&cfg).is_err());
        cfg.num_communities = 2;
        cfg.num_nodes = 0;
        assert!(planted_partition(&cfg).is_err());
    }

    #[test]
    fn edge_budget_generator_hits_target_within_tolerance() {
        let pg = planted_partition_with_edge_budget(333, 6, 2519, 0.2, 11).unwrap();
        let m = pg.graph.num_edges() as f64;
        assert!((m - 2519.0).abs() / 2519.0 < 0.10, "m={m}");
        assert_eq!(pg.graph.num_nodes(), 333);
    }

    #[test]
    fn edge_budget_generator_rejects_infeasible_targets() {
        assert!(planted_partition_with_edge_budget(10, 2, 1000, 0.2, 1).is_err());
        assert!(planted_partition_with_edge_budget(10, 2, 5, 1.5, 1).is_err());
        assert!(planted_partition_with_edge_budget(1, 1, 0, 0.2, 1).is_err());
    }

    #[test]
    fn ring_of_cliques_structure() {
        let pg = ring_of_cliques(4, 5).unwrap();
        assert_eq!(pg.graph.num_nodes(), 20);
        // Each clique has C(5,2)=10 edges plus 4 bridges.
        assert_eq!(pg.graph.num_edges(), 44);
        assert_eq!(pg.ground_truth.num_communities(), 4);
        assert!(ring_of_cliques(0, 5).is_err());
    }

    #[test]
    fn lfr_like_produces_planted_structure() {
        let pg = lfr_like(&LfrConfig { num_nodes: 300, seed: 9, ..LfrConfig::default() }).unwrap();
        assert_eq!(pg.graph.num_nodes(), 300);
        assert!(pg.graph.num_edges() > 300);
        assert!(pg.ground_truth.num_communities() >= 4);
        // Ground truth should have clearly positive modularity on its own graph.
        let q = crate::modularity::modularity(&pg.graph, &pg.ground_truth);
        assert!(q > 0.3, "q={q}");
    }

    #[test]
    fn lfr_like_rejects_bad_config() {
        let bad = LfrConfig { mixing: 1.2, ..LfrConfig::default() };
        assert!(lfr_like(&bad).is_err());
        let bad = LfrConfig { min_community: 0, ..LfrConfig::default() };
        assert!(lfr_like(&bad).is_err());
        let bad = LfrConfig { num_nodes: 0, ..LfrConfig::default() };
        assert!(lfr_like(&bad).is_err());
        let bad = LfrConfig { average_degree: 0.0, ..LfrConfig::default() };
        assert!(lfr_like(&bad).is_err());
    }

    #[test]
    fn karate_club_statistics() {
        let g = karate_club();
        assert_eq!(g.num_nodes(), 34);
        assert_eq!(g.num_edges(), 78);
        let p = karate_club_communities();
        assert_eq!(p.num_nodes(), 34);
        assert_eq!(p.num_communities(), 4);
    }

    #[test]
    fn planted_structure_is_detectable_by_nmi_with_itself() {
        let pg = planted_partition(&PlantedPartitionConfig {
            num_nodes: 80,
            num_communities: 4,
            p_in: 0.6,
            p_out: 0.02,
            seed: 5,
        })
        .unwrap();
        let nmi = metrics::normalized_mutual_information(&pg.ground_truth, &pg.ground_truth);
        assert!((nmi - 1.0).abs() < 1e-9);
    }

    #[test]
    fn power_law_sampler_respects_bounds() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        for _ in 0..1000 {
            let x = sample_power_law(&mut rng, 3, 17, 2.5);
            assert!((3..=17).contains(&x));
        }
        assert_eq!(sample_power_law(&mut rng, 5, 5, 2.0), 5);
    }
}
