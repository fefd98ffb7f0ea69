//! The paper's experiments: their instances and methods ([`corpus`]), the
//! record and gate of their fixed-seed quality ([`record`]), and the helpers
//! both use.
//!
//! The paper's datasets (SNAP graphs and an unnamed 938-instance QUBO corpus)
//! are not redistributable in this offline environment, so every experiment
//! regenerates *matched synthetic instances*: same node count, edge count and
//! density, with planted community structure (see README.md, "Substitutions").

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod corpus;
pub mod record;

use qhdcd_core::formulation::{build_qubo, CdQubo, FormulationConfig};
use qhdcd_core::CdError;
use qhdcd_graph::generators::{self, PlantedGraph};

/// One row of the paper's Table I or Table II: a network with the modularity
/// the paper reports for GUROBI and for QHD.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PaperRow {
    /// Instance id (Table I) or network name (Table II) used in the paper.
    pub name: &'static str,
    /// Number of nodes.
    pub nodes: usize,
    /// Number of edges.
    pub edges: usize,
    /// Modularity the paper reports for GUROBI.
    pub paper_gurobi: f64,
    /// Modularity the paper reports for QHD.
    pub paper_qhd: f64,
}

/// A row of [`TABLE1_ROWS`] or [`TABLE2_ROWS`].
const fn paper(name: &'static str, nodes: usize, edges: usize, gurobi: f64, qhd: f64) -> PaperRow {
    PaperRow { name, nodes, edges, paper_gurobi: gurobi, paper_qhd: qhd }
}

/// The ten instances of the paper's Table I.
pub const TABLE1_ROWS: &[PaperRow] = &[
    paper("0", 333, 2_519, 0.4523, 0.4610),
    paper("107", 1_034, 26_749, 0.5290, 0.5241),
    paper("348", 224, 3_192, 0.3055, 0.3063),
    paper("414", 150, 1_693, 0.5438, 0.5438),
    paper("686", 168, 1_656, 0.3347, 0.3347),
    paper("698", 61, 270, 0.5369, 0.5369),
    paper("1684", 786, 14_024, 0.5528, 0.5640),
    paper("1912", 747, 30_025, 0.5167, 0.5239),
    paper("3437", 534, 4_813, 0.6724, 0.6784),
    paper("3980", 52, 146, 0.4619, 0.4619),
];

/// The four networks of the paper's Table II (large SNAP networks).
pub const TABLE2_ROWS: &[PaperRow] = &[
    paper("facebook", 4_039, 88_234, 0.7121, 0.7512),
    paper("lastfm_asia", 7_626, 27_807, 0.7455, 0.7172),
    paper("musae_chameleon", 2_279, 31_372, 0.6567, 0.6554),
    paper("tvshow", 3_894, 17_240, 0.8196, 0.8223),
];

/// Number of communities used when synthesising an instance of a given size:
/// roughly one community per 60 nodes, clamped to `[4, 8]` so that the direct
/// QUBO (with its `n·k` variables) stays tractable on the largest Table I rows.
pub fn communities_for(nodes: usize) -> usize {
    (nodes / 60).clamp(4, 8)
}

/// Generates the matched synthetic graph for a (nodes, edges) pair: a planted
/// partition with ~20 % inter-community edges, deterministic in `seed`.
///
/// # Errors
///
/// Propagates generator configuration errors.
pub fn matched_graph(nodes: usize, edges: usize, seed: u64) -> Result<PlantedGraph, CdError> {
    generators::planted_partition_with_edge_budget(nodes, communities_for(nodes), edges, 0.2, seed)
        .map_err(CdError::Graph)
}

/// Builds the community-detection QUBO for a matched graph with the default
/// formulation weights and `k = communities_for(nodes)`.
///
/// # Errors
///
/// Propagates formulation errors.
pub fn cd_qubo(graph: &qhdcd_graph::Graph, k: usize) -> Result<CdQubo, CdError> {
    build_qubo(graph, &FormulationConfig::with_communities(k))
}

/// Simple mean / sample standard deviation helper for experiment summaries.
pub fn mean_std(values: &[f64]) -> (f64, f64) {
    if values.is_empty() {
        return (0.0, 0.0);
    }
    let mean = values.iter().sum::<f64>() / values.len() as f64;
    if values.len() < 2 {
        return (mean, 0.0);
    }
    let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (values.len() - 1) as f64;
    (mean, var.sqrt())
}

/// Reads a `--flag value` style positional override from the command line.
pub fn arg_value(flag: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1).cloned())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_constants_match_the_paper_row_counts() {
        assert_eq!(TABLE1_ROWS.len(), 10);
        assert_eq!(TABLE2_ROWS.len(), 4);
        // Spot checks against the paper's reported values.
        assert_eq!(TABLE1_ROWS[0].nodes, 333);
        assert_eq!(TABLE2_ROWS[0].name, "facebook");
        assert!((TABLE2_ROWS[0].paper_qhd - 0.7512).abs() < 1e-9);
    }

    #[test]
    fn matched_graph_hits_the_requested_size() {
        let pg = matched_graph(333, 2_519, 1).unwrap();
        assert_eq!(pg.graph.num_nodes(), 333);
        let m = pg.graph.num_edges() as f64;
        assert!((m - 2_519.0).abs() / 2_519.0 < 0.1, "m={m}");
    }

    #[test]
    fn communities_scale_with_size() {
        assert_eq!(communities_for(52), 4);
        assert_eq!(communities_for(333), 5);
        assert!(communities_for(10_000) <= 8);
    }

    #[test]
    fn mean_std_basics() {
        let (m, s) = mean_std(&[1.0, 2.0, 3.0]);
        assert!((m - 2.0).abs() < 1e-12);
        assert!((s - 1.0).abs() < 1e-12);
        assert_eq!(mean_std(&[]), (0.0, 0.0));
        assert_eq!(mean_std(&[5.0]).1, 0.0);
    }

    #[test]
    fn cd_qubo_has_n_times_k_variables() {
        let pg = matched_graph(61, 270, 2).unwrap();
        let qubo = cd_qubo(&pg.graph, 4).unwrap();
        assert_eq!(qubo.model().num_variables(), 61 * 4);
    }
}
