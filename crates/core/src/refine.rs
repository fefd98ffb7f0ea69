//! Quality-gain refinement (the Refinement step of Algorithm 2).
//!
//! At each level of the multilevel pipeline, nodes are repeatedly moved to the
//! neighbouring community with the highest positive quality gain — under the
//! configured [`QualityFunction`], unit-resolution modularity by default —
//! until no improving move remains or the pass budget is exhausted. This is
//! the local-move step of Louvain (Blondel et al. 2008), and the same routine
//! runs the local phase of the Louvain baseline.
//!
//! # One kernel
//!
//! Every refinement in the workspace prices and applies moves through one
//! per-node step: [`NeighborScan`] accumulates the node's edge weight into
//! each neighbouring community in one O(deg) pass over its adjacency, prices
//! every candidate from those sums and the per-community aggregates of
//! [`ModularityState`] (`Σtot` degree sums for modularity, carried node counts
//! for CPM), and the best move is applied to the state. [`refine_partition`]
//! runs that step over every node per pass; [`refine_frontier`] runs it over
//! a worklist. The streaming detector calls the same [`NeighborScan`] on its
//! dynamic graph.
//!
//! **Tie-break rule.** A move is applied only if its gain is positive and
//! exceeds [`QualityFunction::move_tolerance`], and the largest gain wins. An
//! exact gain tie goes to the community of the earliest neighbour in the
//! adjacency list when the start has `k ≤ 64` communities, `n·k ≤ 100 000`
//! and `m·k ≤ 1 500 000` (`n` nodes, `m` non-loop edges), and to the lowest
//! community id otherwise. Within those limits refinement used to build a
//! per-slot QUBO whose scan kept first-seen order; larger starts went through
//! an ascending-id scan. Keeping both rules keeps every output bit-identical
//! (pinned in `tests/coarsening.rs` and `tests/quality_functions.rs`): ties
//! are frequent from starts with many small communities and on sparse graphs
//! with equal weights, and there the rule that resolves them moves the reached
//! quality by several percent per instance, in both directions.
//! [`refine_frontier`] always uses the first-seen rule, as the streaming
//! detector does.

use crate::CdError;
use qhdcd_graph::{
    modularity::{ModularityState, NeighborScan},
    Graph, GraphError, Partition, QualityFunction,
};

/// Configuration of the quality-gain refinement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RefineConfig {
    /// Maximum number of full passes over the nodes.
    pub max_passes: usize,
    /// Minimum total quality gain per pass to keep iterating.
    pub min_gain: f64,
    /// The quality function whose gain drives the moves (unit-resolution
    /// modularity by default).
    pub quality: QualityFunction,
}

impl Default for RefineConfig {
    fn default() -> Self {
        RefineConfig { max_passes: 20, min_gain: 1e-7, quality: QualityFunction::default() }
    }
}

/// Outcome of a refinement run.
#[derive(Debug, Clone)]
pub struct RefineOutcome {
    /// The refined partition (renumbered).
    pub partition: Partition,
    /// Total quality gain (in the configured quality function's units)
    /// accumulated over all applied moves.
    pub total_gain: f64,
    /// Number of single-node moves applied.
    pub moves: usize,
    /// Number of full passes performed.
    pub passes: usize,
    /// Whether the last pass applied no move, i.e. the result is a local
    /// optimum of the gain the run priced (for [`refine_frontier`]: the
    /// worklist ran empty). A run cut short by `max_passes` or `min_gain`
    /// while still moving nodes reports `false`.
    pub converged: bool,
}

/// Refines `partition` on `graph` by greedy single-node quality-gain moves
/// under `config.quality` (unit-resolution modularity by default).
///
/// Each pass visits the nodes in ascending order and applies a node's best
/// move before visiting the next (see the module docs for the tie-break
/// rule). The refined partition's quality is never lower than the input's.
///
/// # Errors
///
/// Returns [`CdError::Graph`] if the partition does not cover exactly the nodes
/// of `graph` or `graph` has no nodes, or [`CdError::InvalidConfig`] if
/// `config.max_passes` is zero.
///
/// # Example
///
/// ```
/// use qhdcd_core::refine::{refine_partition, RefineConfig};
/// use qhdcd_graph::{generators, modularity, Partition};
///
/// # fn main() -> Result<(), qhdcd_core::CdError> {
/// let g = generators::karate_club();
/// let start = Partition::singletons(g.num_nodes());
/// let out = refine_partition(&g, &start, &RefineConfig::default())?;
/// assert!(modularity::modularity(&g, &out.partition) > 0.3);
/// # Ok(())
/// # }
/// ```
pub fn refine_partition(
    graph: &Graph,
    partition: &Partition,
    config: &RefineConfig,
) -> Result<RefineOutcome, CdError> {
    let mut state = initial_state(graph, partition, config)?;
    let mut scan = if lowest_id_ties(graph, state.num_community_slots()) {
        NeighborScan::with_lowest_id_ties()
    } else {
        NeighborScan::new()
    };
    let mut total_gain = 0.0;
    let mut moves = 0usize;
    let mut passes = 0usize;
    let mut converged = false;
    for _ in 0..config.max_passes {
        passes += 1;
        let moves_before = moves;
        let mut pass_gain = 0.0;
        for node in 0..graph.num_nodes() {
            if let Some(gain) = move_to_best(graph, &mut state, &mut scan, node) {
                pass_gain += gain;
                moves += 1;
            }
        }
        total_gain += pass_gain;
        converged = moves == moves_before;
        if pass_gain < config.min_gain {
            break;
        }
    }
    Ok(RefineOutcome {
        partition: state.to_partition().renumbered(),
        total_gain,
        moves,
        passes,
        converged,
    })
}

/// Whether [`refine_partition`] resolves exact gain ties to the lowest
/// community id rather than to the first-seen neighbour's community, for a
/// start with `communities` communities (see the tie-break rule in the module
/// docs).
fn lowest_id_ties(graph: &Graph, communities: usize) -> bool {
    communities > 64
        || graph.num_nodes() * communities > 100_000
        || graph.edges().filter(|&(u, v, _)| u != v).count() * communities > 1_500_000
}

/// Checks the inputs both entry points share and sets up the move state.
fn initial_state(
    graph: &Graph,
    partition: &Partition,
    config: &RefineConfig,
) -> Result<ModularityState, CdError> {
    if config.max_passes == 0 {
        return Err(CdError::InvalidConfig { reason: "max_passes must be > 0".into() });
    }
    partition.check_matches(graph).map_err(CdError::Graph)?;
    if graph.num_nodes() == 0 {
        return Err(CdError::Graph(GraphError::EmptyPartition));
    }
    Ok(ModularityState::with_quality(graph, partition, config.quality))
}

/// Moves `node` to its best neighbouring community, if one beats the move
/// tolerance, and returns the gain of that move.
fn move_to_best(
    graph: &Graph,
    state: &mut ModularityState,
    scan: &mut NeighborScan,
    node: usize,
) -> Option<f64> {
    let (target, gain) = scan.best_move_with_quality_weighted(
        node,
        graph.neighbors(node),
        state.labels(),
        graph.degree(node),
        graph.node_weight(node),
        state.two_m(),
        state.sigma_tot(),
        state.quality_function(),
    )?;
    state.apply_move(graph, node, target);
    Some(gain)
}

/// Refines only a *frontier* of nodes (plus whatever the moves reach), leaving
/// the rest of the partition untouched.
///
/// This is the localized counterpart of [`refine_partition`] used by the
/// streaming subsystem: after a batch of edge events perturbs a neighbourhood,
/// only the touched nodes and their surroundings can profit from moving, so
/// the move scan is restricted to a worklist seeded with `frontier`. Whenever
/// a node moves, it and its neighbours are re-enqueued for the next pass, so
/// improvements propagate outward exactly as far as they keep paying off.
///
/// Each node is moved by the same step [`refine_partition`] applies; the
/// traversal is fully deterministic — the worklist is scanned in ascending
/// node order, under the tie-break rule of the module docs — which the
/// streaming determinism contract relies on.
///
/// # Errors
///
/// Returns [`CdError::Graph`] if the partition does not cover exactly the
/// nodes of `graph`, `graph` has no nodes or a frontier node is out of range,
/// and [`CdError::InvalidConfig`] if `config.max_passes` is zero.
pub fn refine_frontier(
    graph: &Graph,
    partition: &Partition,
    frontier: &[usize],
    config: &RefineConfig,
) -> Result<RefineOutcome, CdError> {
    let mut state = initial_state(graph, partition, config)?;
    for &node in frontier {
        graph.check_node(node).map_err(CdError::Graph)?;
    }
    let mut scan = NeighborScan::new();
    let mut worklist: std::collections::BTreeSet<usize> = frontier.iter().copied().collect();
    let mut total_gain = 0.0;
    let mut moves = 0usize;
    let mut passes = 0usize;
    for _ in 0..config.max_passes {
        if worklist.is_empty() {
            break;
        }
        passes += 1;
        let mut pass_gain = 0.0;
        let mut next = std::collections::BTreeSet::new();
        for &node in &worklist {
            if let Some(gain) = move_to_best(graph, &mut state, &mut scan, node) {
                pass_gain += gain;
                moves += 1;
                next.insert(node);
                for (v, _) in graph.neighbors(node) {
                    next.insert(v);
                }
            }
        }
        total_gain += pass_gain;
        worklist = next;
        if pass_gain < config.min_gain {
            break;
        }
    }
    Ok(RefineOutcome {
        partition: state.to_partition().renumbered(),
        total_gain,
        moves,
        passes,
        converged: worklist.is_empty(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use qhdcd_graph::{generators, modularity, GraphBuilder};

    #[test]
    fn refinement_never_decreases_modularity() {
        let planted = |num_nodes, num_communities, p_in, p_out, seed| {
            generators::planted_partition(&generators::PlantedPartitionConfig {
                num_nodes,
                num_communities,
                p_in,
                p_out,
                seed,
            })
            .unwrap()
        };
        let small = planted(120, 4, 0.3, 0.02, 1);
        // 600 singletons: past the 64-community limit of first-seen ties.
        let large = planted(600, 6, 0.1, 0.005, 4);
        for (graph, start) in [
            (&small.graph, Partition::singletons(120)),
            (&small.graph, Partition::all_in_one(120)),
            (&small.graph, small.ground_truth.clone()),
            (&large.graph, Partition::singletons(600)),
        ] {
            let before = modularity::modularity(graph, &start);
            let out = refine_partition(graph, &start, &RefineConfig::default()).unwrap();
            let after = modularity::modularity(graph, &out.partition);
            assert!(after >= before - 1e-12, "before={before} after={after}");
            assert!((after - before - out.total_gain).abs() < 1e-6);
            if start.num_communities() == graph.num_nodes() {
                assert!(out.moves > 0 && after > before, "singletons must improve");
            }
        }
    }

    #[test]
    fn refinement_from_singletons_finds_community_structure() {
        let g = generators::karate_club();
        let out =
            refine_partition(&g, &Partition::singletons(34), &RefineConfig::default()).unwrap();
        let q = modularity::modularity(&g, &out.partition);
        assert!(q > 0.30, "q={q}");
        assert!(out.moves > 0);
        assert!(out.partition.num_communities() < 34);
    }

    #[test]
    fn refinement_of_a_local_optimum_is_a_no_op() {
        let g = generators::karate_club();
        let first =
            refine_partition(&g, &Partition::singletons(34), &RefineConfig::default()).unwrap();
        let second = refine_partition(&g, &first.partition, &RefineConfig::default()).unwrap();
        assert!(second.total_gain.abs() < 1e-6);
        assert_eq!(second.partition, first.partition);
    }

    #[test]
    fn refining_a_local_optimum_reports_convergence_after_one_pass() {
        let g = generators::karate_club();
        let config = RefineConfig::default();
        let first = refine_partition(&g, &Partition::singletons(34), &config).unwrap();
        assert!(first.converged && first.passes > 1);
        let all: Vec<usize> = (0..34).collect();
        // The full sweep and the frontier loop each report a local optimum
        // after one pass that applies no move.
        for again in [
            refine_partition(&g, &first.partition, &config).unwrap(),
            refine_frontier(&g, &first.partition, &all, &config).unwrap(),
        ] {
            assert!(again.converged);
            assert_eq!((again.passes, again.moves), (1, 0));
            assert_eq!(again.partition, first.partition);
        }
        // A pass budget that stops a run while it is still moving nodes is not
        // convergence.
        let one_pass = RefineConfig { max_passes: 1, ..config };
        let cut = refine_partition(&g, &Partition::singletons(34), &one_pass).unwrap();
        assert!(cut.moves > 0 && !cut.converged);
    }

    #[test]
    fn invalid_inputs_are_rejected() {
        let g = generators::karate_club();
        let p = Partition::singletons(10);
        assert!(refine_partition(&g, &p, &RefineConfig::default()).is_err());
        let p = Partition::singletons(34);
        let bad = RefineConfig { max_passes: 0, ..RefineConfig::default() };
        assert!(refine_partition(&g, &p, &bad).is_err());
    }

    #[test]
    fn both_entry_points_reject_an_empty_graph_alike() {
        let g = GraphBuilder::new(0).build();
        let p = Partition::singletons(0);
        let config = RefineConfig::default();
        let empty = Err(CdError::Graph(GraphError::EmptyPartition));
        assert_eq!(refine_partition(&g, &p, &config).map(|out| out.partition), empty);
        assert_eq!(refine_frontier(&g, &p, &[], &config).map(|out| out.partition), empty);
    }

    #[test]
    fn pass_budget_is_respected() {
        let pg = generators::ring_of_cliques(20, 5).unwrap();
        let config = RefineConfig { max_passes: 1, ..RefineConfig::default() };
        let out = refine_partition(&pg.graph, &Partition::singletons(100), &config).unwrap();
        assert_eq!(out.passes, 1);
    }

    #[test]
    fn generalized_refinement_never_decreases_its_quality() {
        let pg = generators::planted_partition(&generators::PlantedPartitionConfig {
            num_nodes: 60,
            num_communities: 3,
            p_in: 0.3,
            p_out: 0.03,
            seed: 11,
        })
        .unwrap();
        for quality in [
            QualityFunction::modularity(0.5),
            QualityFunction::modularity(2.0),
            QualityFunction::cpm(0.05),
        ] {
            let config = RefineConfig { quality, ..RefineConfig::default() };
            for start in [Partition::singletons(60), pg.ground_truth.clone()] {
                let before = modularity::quality(&pg.graph, &start, quality);
                let out = refine_partition(&pg.graph, &start, &config).unwrap();
                let after = modularity::quality(&pg.graph, &out.partition, quality);
                assert!(after >= before - 1e-9, "{quality:?}: before={before} after={after}");
                assert!(
                    (after - before - out.total_gain).abs() < 1e-6,
                    "{quality:?}: gain accounting off: delta={} total_gain={}",
                    after - before,
                    out.total_gain
                );
            }
        }
    }

    #[test]
    fn one_pass_best_move_matches_the_per_candidate_scan() {
        // The one-pass NeighborScan must reproduce the decisions of the
        // per-candidate formulation (first-seen candidate order,
        // ModularityState::gain per candidate) bit for bit, and its gain must
        // be the quality difference the move realizes — under γ ≠ 1, CPM and
        // super-node weights too.
        let naive = |graph: &Graph, state: &ModularityState, node: usize| {
            let cur = state.community_of(node);
            let mut seen: Vec<usize> = Vec::new();
            let mut best: Option<(usize, f64)> = None;
            for (v, _) in graph.neighbors(node) {
                if v == node {
                    continue;
                }
                let c = state.community_of(v);
                if c == cur || seen.contains(&c) {
                    continue;
                }
                seen.push(c);
                let g = state.gain(graph, node, c);
                let tolerance = state.quality_function().move_tolerance(state.two_m());
                if g > best.map_or(0.0, |(_, bg)| bg) && g > tolerance {
                    best = Some((c, g));
                }
            }
            best
        };
        let pg = generators::planted_partition(&generators::PlantedPartitionConfig {
            num_nodes: 70,
            num_communities: 4,
            p_in: 0.3,
            p_out: 0.05,
            seed: 23,
        })
        .unwrap();
        // The same edges on super-nodes standing for 1..=3 original nodes.
        let mut b = GraphBuilder::new(70);
        for (u, v, w) in pg.graph.edges() {
            b.add_edge(u, v, w).unwrap();
        }
        for node in 0..70 {
            b.set_node_weight(node, (1 + node % 3) as f64).unwrap();
        }
        let weighted = b.build();
        let mut scan = NeighborScan::new();
        for graph in [&pg.graph, &weighted] {
            for quality in [
                QualityFunction::default(),
                QualityFunction::modularity(0.25),
                QualityFunction::modularity(4.0),
                QualityFunction::cpm(0.05),
                QualityFunction::cpm(2.0),
            ] {
                for start in [pg.ground_truth.clone(), Partition::singletons(70)] {
                    let state = ModularityState::with_quality(graph, &start, quality);
                    let before = modularity::quality(graph, &state.to_partition(), quality);
                    for node in 0..70 {
                        let fast = scan.best_move_with_quality_weighted(
                            node,
                            graph.neighbors(node),
                            state.labels(),
                            graph.degree(node),
                            graph.node_weight(node),
                            state.two_m(),
                            state.sigma_tot(),
                            quality,
                        );
                        let slow = naive(graph, &state, node);
                        match (fast, slow) {
                            (None, None) => {}
                            (Some((cf, gf)), Some((cs, gs))) => {
                                assert_eq!(cf, cs, "{quality:?} node {node}");
                                assert_eq!(gf.to_bits(), gs.to_bits(), "{quality:?} node {node}");
                                let mut moved = state.to_partition();
                                moved.assign(node, cf);
                                let exact = modularity::quality(graph, &moved, quality) - before;
                                assert!(
                                    (gf - exact).abs() < 1e-9 * before.abs().max(1.0),
                                    "{quality:?} node {node}: scan {gf} exact {exact}"
                                );
                            }
                            other => panic!("{quality:?} node {node}: {other:?}"),
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn frontier_refinement_only_moves_reachable_nodes() {
        // Start from the ground truth with one node misplaced; a frontier
        // containing just that node must fix it without touching the rest.
        let pg = generators::ring_of_cliques(6, 5).unwrap();
        let mut start = pg.ground_truth.clone();
        start.assign(0, start.community_of(7));
        let out = refine_frontier(&pg.graph, &start, &[0], &RefineConfig::default()).unwrap();
        assert!(out.moves >= 1);
        let q_truth = modularity::modularity(&pg.graph, &pg.ground_truth);
        let q_out = modularity::modularity(&pg.graph, &out.partition);
        assert!((q_out - q_truth).abs() < 1e-12, "q_out={q_out} q_truth={q_truth}");
        // An empty frontier is a no-op.
        let noop = refine_frontier(&pg.graph, &start, &[], &RefineConfig::default()).unwrap();
        assert_eq!(noop.moves, 0);
        assert_eq!(noop.total_gain, 0.0);
        assert_eq!(noop.partition, start.renumbered());
    }

    #[test]
    fn frontier_refinement_never_decreases_modularity() {
        let pg = generators::planted_partition(&generators::PlantedPartitionConfig {
            num_nodes: 150,
            num_communities: 5,
            p_in: 0.25,
            p_out: 0.02,
            seed: 3,
        })
        .unwrap();
        let frontier: Vec<usize> = (0..30).collect();
        for start in [Partition::singletons(150), pg.ground_truth.clone()] {
            let before = modularity::modularity(&pg.graph, &start);
            let out =
                refine_frontier(&pg.graph, &start, &frontier, &RefineConfig::default()).unwrap();
            let after = modularity::modularity(&pg.graph, &out.partition);
            assert!(after >= before - 1e-12, "before={before} after={after}");
            assert!((after - before - out.total_gain).abs() < 1e-9);
        }
    }

    #[test]
    fn full_frontier_matches_whole_graph_quality() {
        // With every node in the frontier, the localized refinement must reach
        // the same quality ballpark as refine_partition from the same start.
        let g = generators::karate_club();
        let frontier: Vec<usize> = (0..34).collect();
        let local =
            refine_frontier(&g, &Partition::singletons(34), &frontier, &RefineConfig::default())
                .unwrap();
        let q = modularity::modularity(&g, &local.partition);
        assert!(q > 0.30, "q={q}");
    }

    #[test]
    fn frontier_refinement_rejects_invalid_inputs() {
        let g = generators::karate_club();
        let p = Partition::singletons(34);
        assert!(refine_frontier(&g, &p, &[40], &RefineConfig::default()).is_err());
        assert!(
            refine_frontier(&g, &Partition::singletons(3), &[0], &RefineConfig::default()).is_err()
        );
        let bad = RefineConfig { max_passes: 0, ..RefineConfig::default() };
        assert!(refine_frontier(&g, &p, &[0], &bad).is_err());
    }
}
