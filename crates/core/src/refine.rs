//! Quality-gain refinement (the Refinement step of Algorithm 2).
//!
//! At each level of the multilevel pipeline, nodes are repeatedly moved to the
//! neighbouring community with the highest positive quality gain — under the
//! configured [`QualityFunction`], unit-resolution modularity by default —
//! until no improving move remains or the pass budget is exhausted. The same
//! routine also powers the local phase of the Louvain baseline.
//!
//! # Unified move engine
//!
//! Refinement is one-hot local search: node `i` in community `a` corresponds
//! to the indicator `x_{i,a} = 1`, and moving it to community `b` clears
//! `x_{i,a}` and sets `x_{i,b}` — exactly the native
//! [`LocalFieldState::apply_reassign`] move of the shared QUBO engine. The
//! modularity gain splits into
//!
//! * a **sparse part** `(k_{i→b} − k_{i→a})/m` carried by a per-slot adjacency
//!   QUBO (`nk` variables, one `−2 A_uv` coupling per edge per slot) whose
//!   cached local fields price a candidate reassignment in O(1) via
//!   [`LocalFieldState::reassign_delta_with_coupling`], and
//! * a **dense part** `−d_i (Σtot_b − Σtot_a + d_i)/(2m²)` from the
//!   degree-product term, which collapses to the per-community degree sums
//!   `Σtot_c` and is maintained as a k-length aggregate — it never needs the
//!   O(n²) pair expansion.
//!
//! The sum is algebraically identical to the classical Louvain gain formula
//! (`ModularityState::gain`); a test pins the two paths against each other.
//! Because the engine path materialises `n·k` variables and `m·k` couplings
//! per call, it runs only where that construction pays off: community counts
//! up to [`ENGINE_MAX_SLOTS`] (the multilevel regime) or instances small
//! enough that it is free ([`ENGINE_SMALL_VARIABLES`]), within the
//! [`ENGINE_MAX_VARIABLES`] / [`ENGINE_MAX_COUPLINGS`] memory budget.
//! Everything else — notably the k ≈ n singleton starts of Louvain local
//! phases — keeps the O(m)-setup aggregate-only [`ModularityState`]
//! bookkeeping.

use crate::CdError;
use qhdcd_graph::{
    modularity::{ModularityState, NeighborScan},
    Graph, Partition, QualityFunction,
};
use qhdcd_qubo::{LocalFieldState, QuboBuilder};

/// Upper bound on `n·k` (one-hot indicator variables) for the engine-backed
/// refinement path; larger instances use the aggregate fallback.
pub const ENGINE_MAX_VARIABLES: usize = 100_000;

/// Upper bound on `m·k` (per-slot adjacency couplings) for the engine-backed
/// refinement path; larger instances use the aggregate fallback.
pub const ENGINE_MAX_COUPLINGS: usize = 1_500_000;

/// Upper bound on the community count `k` for the engine-backed path (unless
/// the whole instance is tiny, see [`ENGINE_SMALL_VARIABLES`]). The engine
/// pays O(m·k) construction per call, which is wasted effort in the k ≈ n
/// regime (Louvain local phases start from singletons every level) where the
/// O(m)-setup aggregate path reaches the same quality.
pub const ENGINE_MAX_SLOTS: usize = 64;

/// `n·k` threshold below which the engine path is used regardless of
/// [`ENGINE_MAX_SLOTS`] — tiny instances (karate-scale singleton starts)
/// build their QUBO in microseconds.
pub const ENGINE_SMALL_VARIABLES: usize = 4_096;

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
/// The refined partition's quality is never lower than the input's.
///
/// # Errors
///
/// Returns [`CdError::Graph`] if the partition does not cover exactly the nodes
/// of `graph`, or [`CdError::InvalidConfig`] if `config.max_passes` is zero.
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
    if config.max_passes == 0 {
        return Err(CdError::InvalidConfig { reason: "max_passes must be > 0".into() });
    }
    partition.check_matches(graph).map_err(CdError::Graph)?;
    let renum = partition.renumbered();
    let n = graph.num_nodes();
    let k = renum.num_communities().max(1);
    let num_couplings = k * graph.edges().filter(|&(u, v, _)| u != v).count();
    let within_budget = n * k <= ENGINE_MAX_VARIABLES && num_couplings <= ENGINE_MAX_COUPLINGS;
    let worthwhile = k <= ENGINE_MAX_SLOTS || n * k <= ENGINE_SMALL_VARIABLES;
    if within_budget && worthwhile {
        refine_with_engine(graph, &renum, config)
    } else {
        refine_with_aggregates(graph, &renum, config)
    }
}

/// The engine-backed path: reassign moves on a per-slot adjacency QUBO plus
/// the `Σtot` aggregate for the degree-product term.
fn refine_with_engine(
    graph: &Graph,
    renum: &Partition,
    config: &RefineConfig,
) -> Result<RefineOutcome, CdError> {
    let n = graph.num_nodes();
    let k = renum.num_communities().max(1);
    let two_m = 2.0 * graph.total_edge_weight();
    let m = two_m / 2.0;
    let idx = |node: usize, c: usize| node * k + c;

    // Per-slot adjacency QUBO: E_sparse(x) = −Σ_c Σ_{u<v} 2 A_uv x_uc x_vc.
    // Self-loops contribute identically to every slot of their node and cancel
    // in every reassignment, so they are omitted. The degree-product part of
    // the modularity matrix is handled by the Σtot aggregate below instead of
    // an O(n²k) pair expansion.
    let mut builder = QuboBuilder::new(n * k);
    for (u, v, w) in graph.edges() {
        if u == v {
            continue;
        }
        for c in 0..k {
            builder.add_quadratic(idx(u, c), idx(v, c), -2.0 * w).map_err(CdError::Qubo)?;
        }
    }
    let model = builder.build();

    let mut labels: Vec<usize> = (0..n).map(|node| renum.community_of(node)).collect();
    let mut x = vec![false; n * k];
    for (node, &c) in labels.iter().enumerate() {
        x[idx(node, c)] = true;
    }
    let mut state = LocalFieldState::try_new(&model, x).map_err(CdError::Qubo)?;
    // Per-community aggregate of the configured quality function: Σtot degree
    // sums for modularity, node counts for CPM.
    let quality = config.quality;
    let mut sigma_tot = vec![0.0f64; k];
    for node in 0..n {
        sigma_tot[labels[node]] +=
            quality.node_factor_weighted(graph.degree(node), graph.node_weight(node));
    }
    let tolerance = quality.move_tolerance(two_m);

    // Per-(pass, node) visit stamps for candidate-community deduplication.
    let mut stamp = vec![usize::MAX; k];
    let mut visit = 0usize;

    let mut total_gain = 0.0;
    let mut moves = 0usize;
    let mut passes = 0usize;
    let mut converged = false;
    for _ in 0..config.max_passes {
        passes += 1;
        let moves_before = moves;
        let mut pass_gain = 0.0;
        for node in 0..n {
            visit += 1;
            let cur = labels[node];
            let d_i = graph.degree(node);
            let w_i = graph.node_weight(node);
            let mut best: Option<(usize, f64)> = None;
            for (v, _) in graph.neighbors(node) {
                if v == node {
                    continue;
                }
                let c = labels[v];
                if c == cur || stamp[c] == visit {
                    continue;
                }
                stamp[c] = visit;
                // The two indicators of a node are never coupled (all
                // couplings live within one slot), so w_ij = 0.
                let delta_sparse =
                    state.reassign_delta_with_coupling(idx(node, cur), idx(node, c), 0.0);
                // The sparse reassign delta is −2(k_target − k_cur) for both
                // quality functions; only the dense correction and the overall
                // normalization differ.
                let gain = match quality {
                    QualityFunction::Modularity { resolution } => {
                        let delta_dense = if m > 0.0 {
                            resolution * ((d_i / m) * (sigma_tot[c] - sigma_tot[cur] + d_i))
                        } else {
                            0.0
                        };
                        if two_m > 0.0 {
                            -(delta_sparse + delta_dense) / two_m
                        } else {
                            0.0
                        }
                    }
                    QualityFunction::Cpm { resolution } => {
                        // Weighted CPM null delta (super-node counts carried
                        // through coarsening): 2γ w_i (n_target − n_cur + w_i),
                        // bit-identical to the old counts-as-one form at w = 1.
                        let delta_dense =
                            2.0 * resolution * (w_i * (sigma_tot[c] - sigma_tot[cur] + w_i));
                        -(delta_sparse + delta_dense) / 2.0
                    }
                };
                if gain > best.map_or(0.0, |(_, g)| g) && gain > tolerance {
                    best = Some((c, gain));
                }
            }
            if let Some((target, gain)) = best {
                state.apply_reassign(idx(node, cur), idx(node, target));
                let factor = quality.node_factor_weighted(d_i, w_i);
                sigma_tot[cur] -= factor;
                sigma_tot[target] += factor;
                labels[node] = target;
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
    state.debug_validate();
    let partition = Partition::from_labels(labels).map_err(CdError::Graph)?.renumbered();
    Ok(RefineOutcome { partition, total_gain, moves, passes, converged })
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
/// The gain logic is the same Louvain gain the engine-backed path prices
/// (pinned against it by tests); the traversal is fully deterministic — the
/// worklist is scanned in ascending node order and candidate communities in
/// ascending neighbour order, strict-improvement tie-breaks — which the
/// streaming determinism contract relies on.
///
/// # Errors
///
/// Returns [`CdError::Graph`] if the partition does not cover exactly the
/// nodes of `graph` or a frontier node is out of range, and
/// [`CdError::InvalidConfig`] if `config.max_passes` is zero.
pub fn refine_frontier(
    graph: &Graph,
    partition: &Partition,
    frontier: &[usize],
    config: &RefineConfig,
) -> Result<RefineOutcome, CdError> {
    if config.max_passes == 0 {
        return Err(CdError::InvalidConfig { reason: "max_passes must be > 0".into() });
    }
    partition.check_matches(graph).map_err(CdError::Graph)?;
    for &node in frontier {
        graph.check_node(node).map_err(CdError::Graph)?;
    }
    let mut state = ModularityState::with_quality(graph, &partition.renumbered(), config.quality);
    // The deterministic one-pass best-move scan (first-seen candidate order,
    // O(deg) per node) shared — implementation and all — with the streaming
    // detector's incremental twin, so the two cannot drift apart.
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
            if let Some((target, gain)) = scan.best_move_with_quality_weighted(
                node,
                graph.neighbors(node),
                state.labels(),
                graph.degree(node),
                graph.node_weight(node),
                state.two_m(),
                state.sigma_tot(),
                config.quality,
            ) {
                state.apply_move(graph, node, target);
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

/// The aggregate-only fallback for instances too large to materialise the
/// per-slot QUBO: classic `ModularityState` bookkeeping (`Σtot` per community,
/// O(deg) gain scans).
fn refine_with_aggregates(
    graph: &Graph,
    renum: &Partition,
    config: &RefineConfig,
) -> Result<RefineOutcome, CdError> {
    let mut state = ModularityState::with_quality(graph, renum, config.quality);
    let mut total_gain = 0.0;
    let mut moves = 0usize;
    let mut passes = 0usize;
    let mut converged = false;
    for _ in 0..config.max_passes {
        passes += 1;
        let moves_before = moves;
        let mut pass_gain = 0.0;
        for node in 0..graph.num_nodes() {
            if let Some((target, gain)) = state.best_move(graph, node) {
                state.apply_move(graph, node, target);
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

#[cfg(test)]
mod tests {
    use super::*;
    use qhdcd_graph::{generators, modularity};

    #[test]
    fn refinement_never_decreases_modularity() {
        let pg = generators::planted_partition(&generators::PlantedPartitionConfig {
            num_nodes: 120,
            num_communities: 4,
            p_in: 0.3,
            p_out: 0.02,
            seed: 1,
        })
        .unwrap();
        for start in
            [Partition::singletons(120), Partition::all_in_one(120), pg.ground_truth.clone()]
        {
            let before = modularity::modularity(&pg.graph, &start);
            let out = refine_partition(&pg.graph, &start, &RefineConfig::default()).unwrap();
            let after = modularity::modularity(&pg.graph, &out.partition);
            assert!(after >= before - 1e-12, "before={before} after={after}");
            assert!((after - before - out.total_gain).abs() < 1e-6);
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
        // The engine path, the aggregate path and the frontier loop each
        // report a local optimum after one pass that applies no move.
        let renum = first.partition.renumbered();
        for again in [
            refine_partition(&g, &first.partition, &config).unwrap(),
            refine_with_aggregates(&g, &renum, &config).unwrap(),
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
    fn pass_budget_is_respected() {
        let pg = generators::ring_of_cliques(20, 5).unwrap();
        let config = RefineConfig { max_passes: 1, ..RefineConfig::default() };
        let out = refine_partition(&pg.graph, &Partition::singletons(100), &config).unwrap();
        assert_eq!(out.passes, 1);
    }

    #[test]
    fn engine_and_aggregate_paths_agree_on_quality() {
        // Both paths implement the same greedy gain formula; tie-breaking and
        // rounding can route individual moves differently, so pin the reached
        // modularity (and local-optimality) rather than exact partitions.
        let pg = generators::planted_partition(&generators::PlantedPartitionConfig {
            num_nodes: 90,
            num_communities: 3,
            p_in: 0.3,
            p_out: 0.02,
            seed: 9,
        })
        .unwrap();
        for start in [Partition::singletons(90), pg.ground_truth.clone()] {
            let engine =
                refine_with_engine(&pg.graph, &start.renumbered(), &RefineConfig::default())
                    .unwrap();
            let aggregate =
                refine_with_aggregates(&pg.graph, &start.renumbered(), &RefineConfig::default())
                    .unwrap();
            let q_engine = modularity::modularity(&pg.graph, &engine.partition);
            let q_aggregate = modularity::modularity(&pg.graph, &aggregate.partition);
            assert!(
                (q_engine - q_aggregate).abs() < 0.06,
                "engine={q_engine} aggregate={q_aggregate}"
            );
            // The engine result is a local optimum of the aggregate gain too:
            // one more aggregate pass must find (almost) nothing.
            let polish = refine_with_aggregates(
                &pg.graph,
                &engine.partition,
                &RefineConfig { max_passes: 1, ..RefineConfig::default() },
            )
            .unwrap();
            assert!(polish.total_gain < 1e-6, "residual gain {}", polish.total_gain);
        }
    }

    #[test]
    fn engine_gains_match_the_louvain_gain_formula() {
        // For every node and neighbouring community of a fixed partition, the
        // engine-path gain (sparse reassign delta + Σtot correction) must equal
        // ModularityState::gain and the recomputed modularity difference.
        let pg = generators::ring_of_cliques(4, 5).unwrap();
        let g = &pg.graph;
        let p = pg.ground_truth.renumbered();
        let k = p.num_communities();
        let n = g.num_nodes();
        let idx = |node: usize, c: usize| node * k + c;
        let mut builder = QuboBuilder::new(n * k);
        for (u, v, w) in g.edges() {
            if u != v {
                for c in 0..k {
                    builder.add_quadratic(idx(u, c), idx(v, c), -2.0 * w).unwrap();
                }
            }
        }
        let model = builder.build();
        let mut x = vec![false; n * k];
        for node in 0..n {
            x[idx(node, p.community_of(node))] = true;
        }
        let state = LocalFieldState::new(&model, x);
        let mut sigma_tot = vec![0.0f64; k];
        for node in 0..n {
            sigma_tot[p.community_of(node)] += g.degree(node);
        }
        let two_m = 2.0 * g.total_edge_weight();
        let m = two_m / 2.0;
        let reference = ModularityState::new(g, &p);
        let before = modularity::modularity(g, &p);
        for node in 0..n {
            let cur = p.community_of(node);
            for target in 0..k {
                if target == cur {
                    continue;
                }
                let delta_sparse =
                    state.reassign_delta_with_coupling(idx(node, cur), idx(node, target), 0.0);
                let delta_dense =
                    (g.degree(node) / m) * (sigma_tot[target] - sigma_tot[cur] + g.degree(node));
                let engine_gain = -(delta_sparse + delta_dense) / two_m;
                let louvain_gain = reference.gain(g, node, target);
                assert!(
                    (engine_gain - louvain_gain).abs() < 1e-12,
                    "node {node} -> {target}: engine {engine_gain} louvain {louvain_gain}"
                );
                let mut moved = p.clone();
                moved.assign(node, target);
                let exact = modularity::modularity(g, &moved) - before;
                assert!(
                    (engine_gain - exact).abs() < 1e-9,
                    "node {node} -> {target}: engine {engine_gain} exact {exact}"
                );
            }
        }
    }

    #[test]
    fn engine_and_aggregate_paths_price_generalized_gains_identically() {
        // Under γ≠1 modularity and CPM, the engine-path gain must still match
        // the aggregate path's ModularityState::gain for every candidate move.
        let pg = generators::ring_of_cliques(4, 5).unwrap();
        let g = &pg.graph;
        let p = pg.ground_truth.renumbered();
        let k = p.num_communities();
        let n = g.num_nodes();
        let idx = |node: usize, c: usize| node * k + c;
        let mut builder = QuboBuilder::new(n * k);
        for (u, v, w) in g.edges() {
            if u != v {
                for c in 0..k {
                    builder.add_quadratic(idx(u, c), idx(v, c), -2.0 * w).unwrap();
                }
            }
        }
        let model = builder.build();
        let mut x = vec![false; n * k];
        for node in 0..n {
            x[idx(node, p.community_of(node))] = true;
        }
        let engine = LocalFieldState::new(&model, x);
        let two_m = 2.0 * g.total_edge_weight();
        let m = two_m / 2.0;
        for quality in [
            QualityFunction::modularity(0.25),
            QualityFunction::modularity(4.0),
            QualityFunction::cpm(0.5),
            QualityFunction::cpm(2.0),
        ] {
            let mut sigma_tot = vec![0.0f64; k];
            for node in 0..n {
                sigma_tot[p.community_of(node)] += quality.node_factor(g.degree(node));
            }
            let reference = ModularityState::with_quality(g, &p, quality);
            let before = modularity::quality(g, &p, quality);
            for node in 0..n {
                let cur = p.community_of(node);
                let d_i = g.degree(node);
                for target in 0..k {
                    if target == cur {
                        continue;
                    }
                    let delta_sparse =
                        engine.reassign_delta_with_coupling(idx(node, cur), idx(node, target), 0.0);
                    let engine_gain = match quality {
                        QualityFunction::Modularity { resolution } => {
                            let delta_dense = resolution
                                * ((d_i / m) * (sigma_tot[target] - sigma_tot[cur] + d_i));
                            -(delta_sparse + delta_dense) / two_m
                        }
                        QualityFunction::Cpm { resolution } => {
                            let delta_dense =
                                2.0 * resolution * (sigma_tot[target] - sigma_tot[cur] + 1.0);
                            -(delta_sparse + delta_dense) / 2.0
                        }
                    };
                    let state_gain = reference.gain(g, node, target);
                    assert!(
                        (engine_gain - state_gain).abs() < 1e-12,
                        "{quality:?} node {node} -> {target}: engine {engine_gain} state {state_gain}"
                    );
                    let mut moved = p.clone();
                    moved.assign(node, target);
                    let exact = modularity::quality(g, &moved, quality) - before;
                    assert!(
                        (engine_gain - exact).abs() < 1e-9,
                        "{quality:?} node {node} -> {target}: engine {engine_gain} exact {exact}"
                    );
                }
            }
        }
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
        // original per-candidate formulation (first-seen candidate order,
        // ModularityState::gain per candidate) bit for bit.
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
        let mut scan = NeighborScan::new();
        for start in [pg.ground_truth.clone(), Partition::singletons(70)] {
            let state = ModularityState::new(&pg.graph, &start.renumbered());
            for node in 0..70 {
                let fast = scan.best_move(
                    node,
                    pg.graph.neighbors(node),
                    state.labels(),
                    pg.graph.degree(node),
                    state.two_m(),
                    state.sigma_tot(),
                );
                let slow = naive(&pg.graph, &state, node);
                match (fast, slow) {
                    (None, None) => {}
                    (Some((cf, gf)), Some((cs, gs))) => {
                        assert_eq!(cf, cs, "node {node}");
                        assert_eq!(gf.to_bits(), gs.to_bits(), "node {node}");
                    }
                    other => panic!("node {node}: {other:?}"),
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

    #[test]
    fn oversized_instances_route_to_the_aggregate_fallback() {
        // A singleton start on a larger graph exceeds the n·k variable gate
        // (600 nodes × 600 slots > ENGINE_MAX_VARIABLES) and must still refine
        // correctly through the fallback.
        let pg = generators::planted_partition(&generators::PlantedPartitionConfig {
            num_nodes: 600,
            num_communities: 6,
            p_in: 0.1,
            p_out: 0.005,
            seed: 4,
        })
        .unwrap();
        let (n, k) = (600usize, 600usize);
        assert!(n * k > ENGINE_MAX_VARIABLES, "test premise: singleton start exceeds the gate");
        let before = modularity::modularity(&pg.graph, &Partition::singletons(600));
        let out =
            refine_partition(&pg.graph, &Partition::singletons(600), &RefineConfig::default())
                .unwrap();
        let after = modularity::modularity(&pg.graph, &out.partition);
        assert!(after > before);
        assert!(out.moves > 0);
    }
}
