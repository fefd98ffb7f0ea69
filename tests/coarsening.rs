//! Regression pins for the coarsening layer and the multilevel pipeline.
//!
//! Coarsening scores every edge by Eq. 6 with a stamped neighbourhood
//! intersection, aggregates levels straight into CSR form, and the multilevel
//! pipeline skips a final refine that would only repeat a converged one. All
//! of that is bound by one contract: every hierarchy, matching and partition
//! stays **bit-identical** to the per-edge `HashSet` scoring, `GraphBuilder`
//! aggregation and unconditional final refine it replaced. The fingerprints
//! pinned below were captured on the commit *before* that change.

use qhdcd::core::coarsen::{coarsen_hierarchy, CoarsenConfig, Hierarchy};
use qhdcd::core::formulation::build_qubo;
use qhdcd::core::multilevel::{self, MultilevelConfig};
use qhdcd::core::refine::{refine_partition, RefineConfig};
use qhdcd::graph::{generators, Graph, GraphBuilder, Partition};
use qhdcd::prelude::*;
use qhdcd::qubo::Budget;
use std::time::{Duration, Instant};

/// Pin A: a planted 1 000-node, 8-community graph, θ = 60 (captured
/// pre-change): one fingerprint per hierarchy level, then `detect`'s labels
/// fingerprint and Q bits.
const PIN_A_LEVELS: [u64; 6] = [
    0x6237e077c6cbda93,
    0xb399a7c5965ec62f,
    0x9e1ac2300db9fa19,
    0x0dee0bfb56d02225,
    0x83e67b68ae4ef1e1,
    0x992d1a52e328ee86,
];
const PIN_A_LABELS: u64 = 0x675b39cef08397e3;
const PIN_A_QBITS: u64 = 0x3fe3c2e029442f33;

/// Pin B: a real-weighted graph with self-loops, isolated nodes and a
/// zero-weight edge, θ = 30 (captured pre-change).
const PIN_B_LEVELS: [u64; 5] = [
    0xde5fdf11c79bf5ba,
    0x142a03e0a907d791,
    0xdd48e3201744c049,
    0x04b10e35ae826fac,
    0xa9c0a349c7ba97ca,
];
const PIN_B_LABELS: u64 = 0xa06fcc927392cde5;
const PIN_B_QBITS: u64 = 0x3fd4d35626c03eee;

/// Pin C: a ring of 24 six-cliques, θ = 20 (captured pre-change).
const PIN_C_LEVELS: [u64; 4] =
    [0x8f0266d2806d63a9, 0x92fb2ec183ba4c85, 0xb06812a6910e55ed, 0x93cb3cb279a9a851];
const PIN_C_LABELS: u64 = 0x3fa2709d32b617a5;
const PIN_C_QBITS: u64 = 0x3feae38e38e38e38;

/// 64-bit FNV-1a over little-endian words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, x: u64) {
        for byte in x.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Per level: `coarse_of`, then every node's weight bits followed by its
/// neighbour ids and edge-weight bits.
fn level_fingerprints(hierarchy: &Hierarchy) -> Vec<u64> {
    hierarchy
        .levels
        .iter()
        .map(|level| {
            let mut f = Fnv::new();
            for &c in &level.coarse_of {
                f.word(c as u64);
            }
            let g = &level.graph;
            for u in 0..g.num_nodes() {
                f.word(g.node_weight(u).to_bits());
                for (v, w) in g.neighbors(u) {
                    f.word(v as u64);
                    f.word(w.to_bits());
                }
            }
            f.0
        })
        .collect()
}

fn labels_fingerprint(partition: &Partition) -> u64 {
    let mut f = Fnv::new();
    for &label in partition.labels() {
        f.word(label as u64);
    }
    f.0
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// 240 nodes: random real-weighted edges (parallel ones merged, every 97th a
/// self-loop) among nodes 0..228, node 228 tied to node 5 and to node 229 by
/// a zero-weight edge, and nodes 230..240 isolated.
fn real_weighted() -> Graph {
    let mut b = GraphBuilder::new(240);
    let mut state = 0x00c0_ffee_u64;
    for i in 0..1_400 {
        let u = (splitmix(&mut state) % 228) as usize;
        let v = if i % 97 == 0 { u } else { (splitmix(&mut state) % 228) as usize };
        let w = (splitmix(&mut state) % 10_000) as f64 / 1_337.0 + 0.01;
        b.add_edge(u, v, w).unwrap();
    }
    b.add_edge(228, 5, 1.25).unwrap();
    b.add_edge(228, 229, 0.0).unwrap();
    b.build()
}

/// One input of the pin corpus with its coarsening threshold and the values
/// pinned for it.
struct Case {
    name: &'static str,
    graph: Graph,
    threshold: usize,
    levels: &'static [u64],
    labels: u64,
    qbits: u64,
}

fn corpus() -> [Case; 3] {
    let planted = generators::planted_partition(&generators::PlantedPartitionConfig {
        num_nodes: 1_000,
        num_communities: 8,
        p_in: 0.06,
        p_out: 0.003,
        seed: 11,
    })
    .unwrap()
    .graph;
    [
        Case {
            name: "planted",
            graph: planted,
            threshold: 60,
            levels: &PIN_A_LEVELS,
            labels: PIN_A_LABELS,
            qbits: PIN_A_QBITS,
        },
        Case {
            name: "real-weighted",
            graph: real_weighted(),
            threshold: 30,
            levels: &PIN_B_LEVELS,
            labels: PIN_B_LABELS,
            qbits: PIN_B_QBITS,
        },
        Case {
            name: "ring of cliques",
            graph: generators::ring_of_cliques(24, 6).unwrap().graph,
            threshold: 20,
            levels: &PIN_C_LEVELS,
            labels: PIN_C_LABELS,
            qbits: PIN_C_QBITS,
        },
    ]
}

fn pipeline(threshold: usize) -> (MultilevelConfig, QhdSolver) {
    let config = MultilevelConfig {
        num_communities: 8,
        coarsen: CoarsenConfig { threshold, ..CoarsenConfig::default() },
        ..MultilevelConfig::default()
    };
    (config, QhdSolver::builder().samples(2).steps(40).seed(5).build())
}

#[test]
fn hierarchies_and_detections_are_bit_identical_to_the_pins() {
    for Case { name, graph, threshold, levels, labels, qbits } in corpus() {
        let (config, solver) = pipeline(threshold);
        let hierarchy = coarsen_hierarchy(&graph, &config.coarsen).unwrap();
        assert_eq!(level_fingerprints(&hierarchy), levels, "{name}: hierarchy");
        let out = multilevel::detect(&graph, &solver, &config).unwrap();
        assert_eq!(labels_fingerprint(&out.partition), labels, "{name}: labels");
        assert_eq!(out.modularity.to_bits(), qbits, "{name}: Q");
    }
}

/// `multilevel::detect` composed from its public layer calls with an
/// unconditional final refine, as the benchmark's traced run composes it.
/// Returns the partition after the final refine, the one before it, and
/// whether the uncoarsening refine of the original graph converged.
fn composed(
    graph: &Graph,
    solver: &QhdSolver,
    config: &MultilevelConfig,
) -> (Partition, Partition, bool) {
    let hierarchy = coarsen_hierarchy(graph, &config.coarsen).unwrap();
    let coarsest = hierarchy.coarsest().unwrap_or(graph);
    let mut formulation = config.formulation.clone();
    formulation.num_communities = config.num_communities.min(coarsest.num_nodes().max(1));
    let qubo = build_qubo(coarsest, &formulation).unwrap();
    let report = solver.solve_bounded(qubo.model(), None, &Budget::unlimited()).unwrap();
    let decoded = qubo.decode(coarsest, &report.solution).unwrap();
    let mut out = refine_partition(coarsest, &decoded, &config.refine).unwrap();
    for (index, level) in hierarchy.levels.iter().enumerate().rev() {
        let finer = if index == 0 { graph } else { &hierarchy.levels[index - 1].graph };
        let projected = out.partition.project(&level.coarse_of);
        out = refine_partition(finer, &projected, &config.refine).unwrap();
    }
    let last = refine_partition(graph, &out.partition, &config.refine).unwrap();
    (last.partition, out.partition, out.converged)
}

#[test]
fn skipping_a_converged_final_refine_is_output_identical() {
    let mut final_pass_moved = 0;
    for Case { name, graph, threshold, .. } in corpus() {
        // Default passes: the original graph's refine converges on every
        // corpus graph, so `detect` skips the final pass, and the composition
        // that runs it lands on the same partition.
        let (config, solver) = pipeline(threshold);
        let detected = multilevel::detect(&graph, &solver, &config).unwrap().partition;
        let (with_final, without_final, converged) = composed(&graph, &solver, &config);
        assert!(converged, "{name}: the skip is not exercised");
        assert_eq!(without_final.labels(), with_final.labels(), "{name}: the final pass moved");
        assert_eq!(detected.labels(), with_final.labels(), "{name}");

        // One pass per level stops the original graph's refine while it still
        // moves nodes on the planted and real-weighted graphs: there the final
        // pass must still run, and it changes the partition.
        let one_pass = MultilevelConfig {
            refine: RefineConfig { max_passes: 1, ..RefineConfig::default() },
            ..config
        };
        let detected = multilevel::detect(&graph, &solver, &one_pass).unwrap().partition;
        let (with_final, without_final, converged) = composed(&graph, &solver, &one_pass);
        assert_eq!(detected.labels(), with_final.labels(), "{name}: one pass per level");
        if !converged && without_final != with_final {
            final_pass_moved += 1;
        }
    }
    assert_eq!(final_pass_moved, 2, "unconverged one-pass refines whose final pass moved nodes");
}

/// A star is the worst case for per-edge neighbourhood sets: every edge
/// touches the hub, so building N(hub) per edge is quadratic per level (26 s
/// for a 5 001-node star in a release build). The stamped kernel stamps
/// N(hub) once per level and scans one-element leaf lists, so this stays fast
/// in debug.
#[test]
fn a_hub_does_not_make_coarsening_quadratic() {
    const N: usize = 20_001;
    let config = CoarsenConfig::default();
    for hub in [N - 1, 0] {
        let edges = (0..N).filter(|&leaf| leaf != hub).map(|leaf| (hub, leaf));
        let star = GraphBuilder::from_unweighted_edges(N, edges).unwrap();
        let start = Instant::now();
        let hierarchy = coarsen_hierarchy(&star, &config).unwrap();
        let elapsed = start.elapsed();
        // Only the hub can match, so every level merges it with one leaf.
        assert!((1..=config.max_levels).contains(&hierarchy.num_levels()), "hub {hub}");
        for (index, level) in hierarchy.levels.iter().enumerate() {
            assert_eq!(level.graph.num_nodes(), N - 1 - index, "hub {hub}, level {index}");
            assert_eq!(level.graph.total_node_weight(), N as f64, "hub {hub}, level {index}");
            assert_eq!(level.graph.total_edge_weight(), (N - 1) as f64, "hub {hub}, level {index}");
        }
        assert!(elapsed < Duration::from_secs(120), "hub {hub}: coarsening took {elapsed:?}");
    }
}
