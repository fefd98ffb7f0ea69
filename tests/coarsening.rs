//! Regression pins for the coarsening layer, refinement, QUBO assembly, the
//! mean-field sweep and the multilevel pipeline.
//!
//! Coarsening scores every edge by Eq. 6 with a stamped, branch-free
//! neighbourhood intersection, orders the matching by one integer sort of
//! `u128` keys, and aggregates each level by bucketing edges by their smaller
//! super-node and folding each row straight into CSR form. The multilevel
//! pipeline skips a final refine that would only repeat a converged one.
//! Refinement prices every move with one O(deg) `NeighborScan`. `QuboBuilder`
//! folds its recorded additions after a stable sort, and the mean-field sweep
//! gathers each mean field along its variable's adjacency row. All of that is
//! bound by one contract: every hierarchy, matching, partition, QUBO and
//! mean-field outcome stays **bit-identical** to the per-edge `HashSet`
//! scoring, comparator-sorted matching, `GraphBuilder` and sort-based
//! aggregation, unconditional final refine, per-slot QUBO refinement path,
//! `BTreeMap` accumulation and flat pair sweep it replaced. Refinement from
//! starts past the per-slot path's size limits follows the first-seen tie
//! rule too, held to an oracle below.
//! The fingerprints pinned below were captured on the commit *before* each
//! change. Pins A–C are a small corpus; pins D and E are the two shapes the
//! benchmark runs: a dense graph that halves per level and a sparse one that
//! collapses into a star. Pin F holds `Method::AnnealingMultilevel`, now an
//! annealing-only restart portfolio, to the standalone annealing solver it
//! replaced. Pin G holds the direct methods, now the multilevel pipeline with
//! no coarsening level, to the separate direct pipeline they ran before.

use qhdcd::core::coarsen::{coarsen_hierarchy, CoarsenConfig, Hierarchy};
use qhdcd::core::formulation::{build_qubo, FormulationConfig};
use qhdcd::core::multilevel::{self, MultilevelConfig};
use qhdcd::core::refine::{refine_partition, RefineConfig};
use qhdcd::graph::modularity::{self, ModularityState, NeighborScan};
use qhdcd::graph::{generators, Graph, GraphBuilder, Partition};
use qhdcd::prelude::*;
use qhdcd::qhd::meanfield::{evolve, evolve_reference, MeanFieldConfig, MeanFieldOutcome};
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

/// Pin D: a facebook-like planted graph, `planted_partition_with_edge_budget(
/// 1_000, 8, 21_850, 0.2, 7)`, θ = 40 (captured pre-change): dense, so each
/// level nearly halves the graph, 6 levels from 511 down to 28 nodes.
const PIN_D_LEVELS: [u64; 6] = [
    0xf653b449f1fc801a,
    0x1b9239fdde37aefc,
    0x47ab65e67e706d48,
    0xd5ff75ef79276acb,
    0xac2de574bf2eec4f,
    0x7e0529b8ff22a01c,
];
const PIN_D_LABELS: u64 = 0x511729de5ab5df25;
const PIN_D_QBITS: u64 = 0x3fe5a51c858786c2;

/// Pin E: a lastfm-like planted graph, `planted_partition_with_edge_budget(
/// 2_000, 8, 7_300, 0.2, 3)`, θ = 40 (captured pre-change): sparse, so it
/// collapses into a star whose hub holds 95 % of the nodes, and the late
/// levels each merge the hub with one leaf, 20 levels from 1 067 down to 70
/// nodes.
const PIN_E_LEVELS: [u64; 20] = [
    0x0847133790169cca,
    0x7e0b7a881efde1d9,
    0xeca96ae8c2ab019b,
    0xa52b147a0cc81c95,
    0x3bfcb15aa0704449,
    0xf55b0c11aedd344e,
    0xa0209eb1dca717ef,
    0xe378634a0ec6d336,
    0x05d9a27db2d8f67c,
    0x2bebbf8bc4fdc9da,
    0x7a8a5787d22f53b6,
    0x944c1dd7fc9c2930,
    0xbd2ea01908fe0e59,
    0xb1412e31e75226d8,
    0x749bd8ce43072b32,
    0xff88481a669dcca3,
    0x1ab7dc83f8ae0fe7,
    0x10a6aedd0782dd79,
    0x24f5d53da4dc23f2,
    0xc262c940a8aa9216,
];
const PIN_E_LABELS: u64 = 0x5ae47f246c7e9fc2;
const PIN_E_QBITS: u64 = 0x3fe2933ad8d9ea95;

/// Pin F: `Method::AnnealingMultilevel` through `detect` and through
/// `detect_with_hint` with the hint `(7 i) mod 5`, as labels fingerprint and
/// Q bits, captured while the method still ran the standalone simulated
/// annealing solver (which ignored the hint). Karate club at k = 4, seed 3;
/// `ring_of_cliques(10, 7)` at k = 10, seed 5; a 400-node planted graph at
/// k = 6, seed 7 (coarsened, θ = 200). On the karate club the locally
/// refined hint beats the detection, so the warm run returns it.
const PIN_F: [(u64, u64, u64, u64); 3] = [
    (0x1330a2b27f1aacc4, 0x3fd6af611d744d6c, 0x36393c463f19d8e4, 0x3fd7083f48e0dcd3),
    (0xb0509aff90783662, 0x3fea10c1a10c1a10, 0xb0509aff90783662, 0x3fea10c1a10c1a10),
    (0x5d609541593f9620, 0x3fe0383c9c067946, 0x5d609541593f9620, 0x3fe0383c9c067946),
];

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

/// The two graph shapes the benchmark runs and the corpus above lacks.
fn benchmark_shaped() -> [Case; 2] {
    let planted = |nodes, edges, seed| {
        generators::planted_partition_with_edge_budget(nodes, 8, edges, 0.2, seed).unwrap().graph
    };
    [
        Case {
            name: "facebook-like",
            graph: planted(1_000, 21_850, 7),
            threshold: 40,
            levels: &PIN_D_LEVELS,
            labels: PIN_D_LABELS,
            qbits: PIN_D_QBITS,
        },
        Case {
            name: "lastfm-like star",
            graph: planted(2_000, 7_300, 3),
            threshold: 40,
            levels: &PIN_E_LEVELS,
            labels: PIN_E_LABELS,
            qbits: PIN_E_QBITS,
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
    for Case { name, graph, threshold, levels, labels, qbits } in
        corpus().into_iter().chain(benchmark_shaped())
    {
        let (config, solver) = pipeline(threshold);
        let hierarchy = coarsen_hierarchy(&graph, &config.coarsen).unwrap();
        assert_eq!(level_fingerprints(&hierarchy), levels, "{name}: hierarchy");
        let out = multilevel::detect(&graph, &solver, &config).unwrap();
        assert_eq!(labels_fingerprint(&out.partition), labels, "{name}: labels");
        assert_eq!(out.modularity.to_bits(), qbits, "{name}: Q");
    }
}

#[test]
fn annealing_multilevel_is_bit_identical_to_the_pins() {
    let planted = generators::planted_partition(&generators::PlantedPartitionConfig {
        num_nodes: 400,
        num_communities: 6,
        p_in: 0.08,
        p_out: 0.008,
        seed: 21,
    })
    .unwrap()
    .graph;
    let cases = [
        ("karate", generators::karate_club(), 4, 3),
        ("ring of cliques", generators::ring_of_cliques(10, 7).unwrap().graph, 10, 5),
        ("planted", planted, 6, 7),
    ];
    for ((name, graph, k, seed), pin) in cases.into_iter().zip(PIN_F) {
        let detector =
            CommunityDetector::new(Method::AnnealingMultilevel).with_communities(k).with_seed(seed);
        let hint =
            Partition::from_labels((0..graph.num_nodes()).map(|i| (i * 7) % 5).collect()).unwrap();
        let plain = detector.detect(&graph).unwrap();
        let warm = detector.detect_with_hint(&graph, &hint).unwrap();
        let got = (
            labels_fingerprint(&plain.partition),
            plain.modularity.to_bits(),
            labels_fingerprint(&warm.partition),
            warm.modularity.to_bits(),
        );
        assert_eq!(got, pin, "{name}");
    }
}

/// Pin G: the direct path through `detect` and through `detect_with_hint`
/// with the hint `(7 i) mod 5`, as labels fingerprint and Q bits, captured
/// while `Method::QhdDirect` and `Method::BranchAndBoundDirect` still ran a
/// pipeline of their own: QHD direct on the karate club at k = 4 (default
/// QHD settings) and on a 150-node planted graph at k = 4 (2 samples × 40
/// steps), both seed 3; branch and bound without a time limit on
/// `ring_of_cliques(2, 4)` at k = 2, where it proves optimality; and QHD
/// multilevel on the karate club at k = 4, seed 3 (34 nodes, below θ = 200,
/// so no level is built).
const PIN_G: [(u64, u64, u64, u64); 4] = [
    (0xb785e2c2a6c262c4, 0x3fdaddd53fca2404, 0xb785e2c2a6c262c4, 0x3fdaddd53fca2404),
    (0x7cb51d57026e2e47, 0x3fe2d4fb10386b32, 0x7cb51d57026e2e47, 0x3fe2d4fb10386b32),
    (0xaafde6d0594ae3e5, 0x3fd6db6db6db6db6, 0xaafde6d0594ae3e5, 0x3fd6db6db6db6db6),
    (0xb785e2c2a6c262c4, 0x3fdaddd53fca2404, 0xb785e2c2a6c262c4, 0x3fdaddd53fca2404),
];

#[test]
fn direct_detection_is_bit_identical_to_the_pins() {
    let karate = generators::karate_club;
    let cases = [
        ("qhd-direct karate", CommunityDetector::new(Method::QhdDirect).with_seed(3), karate()),
        (
            "qhd-direct planted",
            CommunityDetector::new(Method::QhdDirect)
                .with_seed(3)
                .with_qhd_samples(2)
                .with_qhd_steps(40),
            planted_small(150, 7),
        ),
        (
            "branch-and-bound-direct",
            CommunityDetector::new(Method::BranchAndBoundDirect).with_communities(2),
            generators::ring_of_cliques(2, 4).unwrap().graph,
        ),
        ("qhd-multilevel karate", CommunityDetector::qhd().with_seed(3), karate()),
    ];
    for ((name, detector, graph), pin) in cases.into_iter().zip(PIN_G) {
        let hint =
            Partition::from_labels((0..graph.num_nodes()).map(|i| (i * 7) % 5).collect()).unwrap();
        let plain = detector.detect(&graph).unwrap();
        let warm = detector.detect_with_hint(&graph, &hint).unwrap();
        let got = (
            labels_fingerprint(&plain.partition),
            plain.modularity.to_bits(),
            labels_fingerprint(&warm.partition),
            warm.modularity.to_bits(),
        );
        assert_eq!(got, pin, "{name}");
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
    // The karate club at θ = usize::MAX builds no level, so its uncoarsening
    // refine is the one refine of the original graph.
    let zero_levels = ("karate club, no level", generators::karate_club(), usize::MAX);
    let cases = corpus().map(|case| (case.name, case.graph, case.threshold));
    for (name, graph, threshold) in cases.into_iter().chain([zero_levels]) {
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

/// A planted 8-community graph whose edges carry integer weights 1..=3:
/// integer sums make exact gain ties common.
fn planted_integer(num_nodes: usize, p_in: f64, p_out: f64, seed: u64) -> Graph {
    let planted = generators::planted_partition(&generators::PlantedPartitionConfig {
        num_nodes,
        num_communities: 8,
        p_in,
        p_out,
        seed,
    })
    .unwrap()
    .graph;
    let mut b = GraphBuilder::new(planted.num_nodes());
    let mut state = seed;
    for (u, v, _) in planted.edges() {
        b.add_edge(u, v, (1 + splitmix(&mut state) % 3) as f64).unwrap();
    }
    b.build()
}

/// Labels drawn uniformly from `0..k`.
fn random_labels(n: usize, k: u64, seed: u64) -> Partition {
    let mut state = seed;
    Partition::from_labels((0..n).map(|_| (splitmix(&mut state) % k) as usize).collect()).unwrap()
}

/// `k` contiguous blocks of nodes with about a quarter of the nodes
/// relabelled at random (at `k = 8`, the planted blocks of
/// [`planted_integer`]).
fn noisy_blocks(n: usize, k: usize, seed: u64) -> Partition {
    let mut state = seed;
    let labels = (0..n)
        .map(|i| {
            if splitmix(&mut state).is_multiple_of(4) {
                (splitmix(&mut state) % k as u64) as usize
            } else {
                i * k / n
            }
        })
        .collect();
    Partition::from_labels(labels).unwrap()
}

/// What a `refine_partition` pin holds: the labels fingerprint, moves, passes
/// and the bits of the reached quality.
type RefinePin = (u64, usize, usize, u64);

/// Refinement pins (captured on the commit before `refine_partition` moved
/// onto `NeighborScan`). Every start has k ≤ 64 communities.
const PIN_R_NOISY8: RefinePin = (0x4360aede32887e01, 470, 4, 0x3fe3b6ad35cf791e);
const PIN_R_RANDOM40: RefinePin = (0x311c7d175b0d1a60, 4365, 15, 0x3fe32ad956f96f92);
const PIN_R_REAL_WEIGHTED: RefinePin = (0xbeeb969ddc145ae1, 243, 8, 0x3fd3c0c8d27ac364);
const PIN_R_CPM: RefinePin = (0xd35e247ca71d91f5, 3966, 20, 0x40becf9999999997);
const PIN_R_GAMMA2: RefinePin = (0xde3a92c8546df775, 4286, 20, 0x3fdb9869d0a3914a);

#[test]
fn refinements_from_few_communities_are_bit_identical_to_the_pins() {
    let planted = planted_integer(2_000, 0.04, 0.002, 3);
    let n = planted.num_nodes();
    let real = real_weighted();
    let cases = [
        ("noisy k = 8", &planted, noisy_blocks(n, 8, 17), QualityFunction::default(), PIN_R_NOISY8),
        ("k = 40", &planted, random_labels(n, 40, 29), QualityFunction::default(), PIN_R_RANDOM40),
        (
            "real-weighted k = 8",
            &real,
            random_labels(real.num_nodes(), 8, 31),
            QualityFunction::default(),
            PIN_R_REAL_WEIGHTED,
        ),
        ("CPM γ = 0.05", &planted, random_labels(n, 40, 29), QualityFunction::cpm(0.05), PIN_R_CPM),
        (
            "modularity γ = 2",
            &planted,
            random_labels(n, 40, 29),
            QualityFunction::modularity(2.0),
            PIN_R_GAMMA2,
        ),
    ];
    for (name, graph, start, quality, pin) in cases {
        let config = RefineConfig { quality, ..RefineConfig::default() };
        let out = refine_partition(graph, &start, &config).unwrap();
        let q = modularity::quality(graph, &out.partition, quality);
        let got = (labels_fingerprint(&out.partition), out.moves, out.passes, q.to_bits());
        assert_eq!(got, pin, "{name}");
    }
}

/// The reference for the tie rule: the same full sweep as
/// `refine_partition`, but each candidate community priced by its own
/// neighbourhood re-scan (`ModularityState::gain`), as refinement ran before
/// `NeighborScan`, and tried in the order its first member appears in the
/// node's adjacency, so an exact gain tie keeps the community seen first.
fn first_seen_order_refine(graph: &Graph, start: &Partition, config: &RefineConfig) -> Partition {
    let mut state = ModularityState::new(graph, start, config.quality);
    let mut scan = NeighborScan::new();
    let tolerance = config.quality.move_tolerance(2.0 * graph.total_edge_weight());
    for _ in 0..config.max_passes {
        let mut pass_gain = 0.0;
        for node in 0..graph.num_nodes() {
            let cur = state.community_of(node);
            let mut candidates: Vec<usize> = Vec::new();
            for (v, _) in graph.neighbors(node).filter(|&(v, _)| v != node) {
                let c = state.community_of(v);
                if c != cur && !candidates.contains(&c) {
                    candidates.push(c);
                }
            }
            let mut best: Option<(usize, f64)> = None;
            for c in candidates {
                let gain = state.gain(graph, node, c);
                if gain > best.map_or(0.0, |(_, g)| g) && gain > tolerance {
                    best = Some((c, gain));
                }
            }
            if let Some((target, gain)) = best {
                state.apply_move(&mut scan, graph, node, target);
                pass_gain += gain;
            }
        }
        if pass_gain < config.min_gain {
            break;
        }
    }
    state.to_partition().renumbered()
}

/// Large starts resolve exact gain ties like small ones, to the community
/// seen first: singletons (more than 64 communities, large or small) and
/// starts with at most 64 communities but `n·k > 100 000` or
/// `m·k > 1 500 000`, the limits past which refinement once sent ties to the
/// lowest community id. On equal or integer weights, where ties are common and
/// their resolution moves the reached quality by several percent, they must
/// reproduce the first-seen oracle exactly.
#[test]
fn large_starts_match_the_first_seen_order_oracle() {
    let mut cases: Vec<(Graph, Partition, QualityFunction)> = Vec::new();
    for seed in 101..=105 {
        let graph = planted_integer(2_000, 0.04, 0.002, seed);
        let start = Partition::singletons(graph.num_nodes());
        for quality in [QualityFunction::default(), QualityFunction::cpm(0.05)] {
            cases.push((graph.clone(), start.clone(), quality));
        }
    }
    let small = planted_integer(300, 0.16, 0.004, 1);
    assert!(300 * 300 <= 100_000 && small.num_edges() * 300 <= 1_500_000, "k premise");
    cases.push((small, Partition::singletons(300), QualityFunction::cpm(0.05)));
    let sparse =
        generators::planted_partition_with_edge_budget(2_000, 8, 7_300, 0.2, 1).unwrap().graph;
    let start = noisy_blocks(2_000, 56, 5);
    assert!(start.num_communities() * 2_000 > 100_000, "n·k premise");
    cases.push((sparse, start, QualityFunction::default()));
    let dense = generators::planted_partition(&generators::PlantedPartitionConfig {
        num_nodes: 1_000,
        num_communities: 8,
        p_in: 0.35,
        p_out: 0.01,
        seed: 1,
    })
    .unwrap()
    .graph;
    let start = noisy_blocks(1_000, 64, 9);
    let k = start.num_communities();
    assert!(k * 1_000 <= 100_000 && k * dense.num_edges() > 1_500_000, "m·k premise");
    cases.push((dense, start, QualityFunction::cpm(0.2)));
    for (graph, start, quality) in &cases {
        let config = RefineConfig { quality: *quality, ..RefineConfig::default() };
        let out = refine_partition(graph, start, &config).unwrap();
        let oracle = first_seen_order_refine(graph, start, &config);
        assert_eq!(out.partition, oracle, "{} nodes, {quality:?}", graph.num_nodes());
    }
}

/// Every bit of a QUBO: the variable count, then each pair's indices and
/// weight bits in pair-list order, every linear coefficient's bits and the
/// offset's bits.
fn model_fingerprint(model: &QuboModel) -> u64 {
    let mut f = Fnv::new();
    f.word(model.num_variables() as u64);
    for (i, j, w) in model.quadratic_terms() {
        f.word(i as u64);
        f.word(j as u64);
        f.word(w.to_bits());
    }
    for &b in model.linear() {
        f.word(b.to_bits());
    }
    f.word(model.offset().to_bits());
    f.0
}

/// What a `build_qubo` pin holds: the model fingerprint and the pair count.
type QuboPin = (u64, usize);

/// `build_qubo` pins (captured on the commit before `QuboBuilder` folded its
/// recorded additions after a stable sort instead of summing them in a
/// `BTreeMap`).
const PIN_Q_GAMMA1: QuboPin = (0xab75d2b4a4b3ed6b, 45_600);
const PIN_Q_GAMMA2: QuboPin = (0xeff128e7ee4b454d, 45_600);
const PIN_Q_CPM: QuboPin = (0x86b744a491921a53, 45_600);
const PIN_Q_UNBALANCED: QuboPin = (0x93d8c9b4c74dae15, 45_600);
const PIN_Q_REAL_WEIGHTED: QuboPin = (0xf92359fad176d5c3, 116_160);

/// A planted 4-community graph small enough for a debug build of its dense
/// k = 4 QUBO.
fn planted_small(num_nodes: usize, seed: u64) -> Graph {
    generators::planted_partition(&generators::PlantedPartitionConfig {
        num_nodes,
        num_communities: 4,
        p_in: 0.15,
        p_out: 0.01,
        seed,
    })
    .unwrap()
    .graph
}

#[test]
fn qubo_models_are_bit_identical_to_the_pins() {
    let planted = planted_small(150, 7);
    let real = real_weighted();
    let base = FormulationConfig::with_communities(4);
    let cases = [
        ("modularity γ = 1", &planted, base.clone(), PIN_Q_GAMMA1),
        (
            "modularity γ = 2",
            &planted,
            FormulationConfig { quality: QualityFunction::modularity(2.0), ..base.clone() },
            PIN_Q_GAMMA2,
        ),
        (
            "CPM γ = 0.05",
            &planted,
            FormulationConfig { quality: QualityFunction::cpm(0.05), ..base.clone() },
            PIN_Q_CPM,
        ),
        (
            "balance_weight 0",
            &planted,
            FormulationConfig { balance_weight: 0.0, ..base.clone() },
            PIN_Q_UNBALANCED,
        ),
        ("real-weighted", &real, base.clone(), PIN_Q_REAL_WEIGHTED),
    ];
    for (name, graph, config, pin) in cases {
        let qubo = build_qubo(graph, &config).unwrap();
        let model = qubo.model();
        assert_eq!((model_fingerprint(model), model.num_quadratic_terms()), pin, "{name}");
    }
}

/// Every bit of a mean-field outcome.
fn outcome_fingerprint(out: &MeanFieldOutcome) -> u64 {
    let mut f = Fnv::new();
    for &bit in &out.best_solution {
        f.word(u64::from(bit));
    }
    f.word(out.best_energy.to_bits());
    for (&e, &p) in out.expectations.iter().zip(&out.probabilities) {
        f.word(e.to_bits());
        f.word(p.to_bits());
    }
    f.word(out.steps_completed as u64);
    f.0
}

/// `meanfield::evolve` pin on an 800-variable `build_qubo` model: the
/// outcome fingerprint and the best energy's bits. The energy bits date from
/// before the serial sweep gathered each mean field by row; the fingerprint,
/// which holds every expectation and probability, was re-captured when the
/// sweep began to compute the fields from the model's slot form instead of
/// its dense rows, which moves them within rounding.
const PIN_MF_DENSE: (u64, u64) = (0x8028ed33f1f4fd18, 0x40ca8c8f8c2c1826);

/// A `build_qubo` variable couples to its node's every other slot and to the
/// same slot of every other node, so each of the 800 rows holds about 200
/// entries: the dense-row shape of the benchmark's coarsest QUBOs, unlike
/// the sparse random QUBOs of the kernel tests. The sweep must reach the
/// pinned outcome at every sharding width, find the flat pair sweep of
/// `evolve_reference`'s best solution and energy, and keep every expectation
/// within 1e-12 of it.
#[test]
fn mean_field_on_a_dense_qubo_is_bit_identical_to_the_pin_at_every_width() {
    let graph = planted_small(200, 9);
    let qubo = build_qubo(&graph, &FormulationConfig::with_communities(4)).unwrap();
    let model = qubo.model();
    assert!(model.num_variables() >= 800);
    assert_eq!(model.node_slots(), Some(4));
    let base = MeanFieldConfig { seed: 3, steps: 40, shots: 8, ..MeanFieldConfig::default() };
    for threads in [1usize, 2, 3, 8] {
        let out = evolve(model, &MeanFieldConfig { threads, ..base.clone() }).unwrap();
        let got = (outcome_fingerprint(&out), out.best_energy.to_bits());
        assert_eq!(got, PIN_MF_DENSE, "threads={threads}");
    }
    let batch = evolve(model, &base).unwrap();
    let reference = evolve_reference(model, &base).unwrap();
    assert_eq!(batch.best_solution, reference.best_solution);
    assert_eq!(batch.best_energy.to_bits(), reference.best_energy.to_bits());
    for (i, (b, r)) in batch.expectations.iter().zip(&reference.expectations).enumerate() {
        assert!((b - r).abs() <= 1e-12, "expectation {i}: {b} vs {r}");
    }
}
