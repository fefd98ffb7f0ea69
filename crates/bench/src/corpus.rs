//! The quality corpus: every instance the paper's experiments run, and the
//! one runner that turns an instance and a method into a recorded [`Row`].
//!
//! The four experiment binaries build their instances here and print their
//! tables from the rows [`run`] returns; [`crate::record`] keeps the rows of
//! the recorded command lines in `BENCH_quality.json` and gates them.

use crate::{cd_qubo, communities_for, matched_graph, TABLE1_ROWS, TABLE2_ROWS};
use qhdcd_core::coarsen::CoarsenConfig;
use qhdcd_core::{multilevel, CdError, CommunityDetector};
use qhdcd_core::{FormulationConfig, MultilevelConfig};
use qhdcd_graph::generators::{self, PlantedGraph, PlantedPartitionConfig};
use qhdcd_graph::metrics::normalized_mutual_information;
use qhdcd_graph::{modularity, Partition};
use qhdcd_qhd::{QhdConfigBuilder, QhdSolver};
use qhdcd_qubo::{QuboSolver, SolveStatus};
use qhdcd_solvers::BranchAndBound;
use std::time::Duration;

/// The pipeline an instance runs its QUBO solvers through.
#[derive(Debug, Clone)]
pub enum Pipeline {
    /// Algorithm 1 on the whole graph, then local refinement: `multilevel::detect`
    /// with `θ = usize::MAX`, so no coarsening level is built.
    Direct(FormulationConfig),
    /// Algorithm 2 (`multilevel::detect`).
    Multilevel(MultilevelConfig),
    /// The `k`-slot CD-QUBO ([`cd_qubo`]) solved alone, as in Figs 3/4; Q and
    /// NMI are those of its decoded, unrefined partition.
    Qubo(usize),
}

impl Pipeline {
    /// The community count `k` the pipeline encodes.
    pub fn communities(&self) -> usize {
        match self {
            Pipeline::Direct(formulation) => formulation.num_communities,
            Pipeline::Multilevel(config) => config.num_communities,
            Pipeline::Qubo(k) => *k,
        }
    }
}

/// One instance of the corpus: a planted graph, the pipeline and QHD
/// settings it runs, and the seed every method gets.
#[derive(Debug, Clone)]
pub struct Instance {
    /// A paper row id or network, a Fig 3/4 instance number, or an ablation
    /// setting.
    pub name: String,
    /// The graph and the planted communities NMI is measured against.
    pub planted: PlantedGraph,
    /// The pipeline QHD and branch and bound run through.
    pub pipeline: Pipeline,
    /// QHD's settings; [`run`] adds the seed.
    pub qhd: QhdConfigBuilder,
    /// The seed every method is given.
    pub seed: u64,
}

/// A method the corpus runs on an instance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Method {
    /// QHD through the instance's pipeline.
    Qhd,
    /// Branch and bound through the instance's pipeline with this wall-time
    /// limit: the paper's Gurobi at QHD's time.
    BranchAndBound(Duration),
    /// Louvain through `CommunityDetector`.
    Louvain,
    /// Portfolio multilevel through `CommunityDetector`, with the instance's
    /// `k`, and its θ on a multilevel instance.
    Portfolio,
    /// Annealing multilevel, like [`Method::Portfolio`].
    Annealing,
}

/// One recorded result: a method run on an instance at a fixed seed.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// The command line that produced the row, e.g. `exp_table2 --scale 1 --repeats 1`.
    pub command: String,
    /// [`Instance::name`].
    pub instance: String,
    /// Nodes of the graph.
    pub n: usize,
    /// Edges of the graph.
    pub m: usize,
    /// Communities the pipeline encodes.
    pub k: usize,
    /// The method: `qhd-direct`, `branch-and-bound-multilevel`, `louvain`, …
    pub method: String,
    /// [`Instance::seed`].
    pub seed: u64,
    /// Modularity of the partition found.
    pub q: f64,
    /// NMI of that partition against the planted communities.
    pub nmi: f64,
    /// Energy of the QUBO solution: the whole graph's QUBO on the direct and
    /// QUBO pipelines, the coarsest graph's on the multilevel one and for
    /// portfolio and annealing multilevel. `None` for Louvain.
    pub energy: Option<f64>,
    /// Wall time of the QUBO solve, or of the whole detection for the
    /// methods run through `CommunityDetector`.
    pub solver_ms: f64,
    /// The QUBO solver's status (`optimal`, `time-limit`, `heuristic`).
    pub status: Option<String>,
}

/// What a method produced on an instance's graph: its name, partition, Q,
/// QUBO energy, solver wall time and QUBO status.
type Outcome = (String, Partition, f64, Option<f64>, Duration, Option<SolveStatus>);

/// Runs `method` on `instance` and returns its row.
///
/// # Errors
///
/// Propagates pipeline errors.
pub fn run(command: &str, instance: &Instance, method: Method) -> Result<Row, CdError> {
    let graph = &instance.planted.graph;
    let (method, partition, q, energy, solver_time, status) = match method {
        Method::Qhd => solve(instance, &instance.qhd.clone().seed(instance.seed).build())?,
        Method::BranchAndBound(limit) => solve(instance, &BranchAndBound::with_time_limit(limit))?,
        Method::Louvain => front_end(instance, qhdcd_core::Method::Louvain)?,
        Method::Portfolio => front_end(instance, qhdcd_core::Method::PortfolioMultilevel)?,
        Method::Annealing => front_end(instance, qhdcd_core::Method::AnnealingMultilevel)?,
    };
    Ok(Row {
        command: command.to_string(),
        instance: instance.name.clone(),
        n: graph.num_nodes(),
        m: graph.num_edges(),
        k: instance.pipeline.communities(),
        method,
        seed: instance.seed,
        q,
        nmi: normalized_mutual_information(&partition, &instance.planted.ground_truth),
        energy,
        solver_ms: solver_time.as_secs_f64() * 1e3,
        status: status.map(|s| s.to_string()),
    })
}

fn solve<S: QuboSolver>(instance: &Instance, solver: &S) -> Result<Outcome, CdError> {
    let graph = &instance.planted.graph;
    let (pipeline, config) = match &instance.pipeline {
        Pipeline::Direct(formulation) => {
            let config = MultilevelConfig {
                num_communities: formulation.num_communities,
                coarsen: CoarsenConfig { threshold: usize::MAX, ..CoarsenConfig::default() },
                formulation: formulation.clone(),
                ..MultilevelConfig::default()
            };
            ("direct", config)
        }
        Pipeline::Multilevel(config) => ("multilevel", config.clone()),
        Pipeline::Qubo(k) => {
            let qubo = cd_qubo(graph, *k)?;
            let report = solver.solve(qubo.model())?;
            let partition = qubo.decode(graph, &report.solution)?;
            let q = modularity::modularity(graph, &partition);
            let (method, energy) = (format!("{}-qubo", solver.name()), Some(report.objective));
            return Ok((method, partition, q, energy, report.elapsed, Some(report.status)));
        }
    };
    let out = multilevel::detect(graph, solver, &config)?;
    let (method, energy) = (format!("{}-{pipeline}", solver.name()), Some(out.qubo_objective));
    Ok((method, out.partition, out.modularity, energy, out.solver_time, Some(out.solver_status)))
}

fn front_end(instance: &Instance, method: qhdcd_core::Method) -> Result<Outcome, CdError> {
    let mut detector = CommunityDetector::new(method)
        .with_communities(instance.pipeline.communities())
        .with_seed(instance.seed);
    if let Pipeline::Multilevel(config) = &instance.pipeline {
        detector = detector.with_coarsen_threshold(config.coarsen.threshold);
    }
    let result = detector.detect(&instance.planted.graph)?;
    let energy = result.qubo_objective;
    Ok((method.to_string(), result.partition, result.modularity, energy, result.elapsed, None))
}

/// Table I row `i`: its matched graph through the direct pipeline, QHD with 4
/// samples of 100 steps, seed `i`.
///
/// # Errors
///
/// Propagates generator errors.
pub fn table1_instance(i: usize) -> Result<Instance, CdError> {
    let row = &TABLE1_ROWS[i];
    let k = communities_for(row.nodes);
    let planted = matched_graph(row.nodes, row.edges, 7_000 + i as u64)?;
    let pipeline = Pipeline::Direct(FormulationConfig::with_communities(k));
    Ok(instance(row.name.into(), &planted, pipeline, qhd(4, 100), i as u64))
}

/// Table II row `i` at `1/scale` of the paper's size (at least 100 nodes),
/// repeat `repeat`: multilevel with θ = 150, QHD with 4 samples of 100 steps.
///
/// # Errors
///
/// Propagates generator errors.
pub fn table2_instance(i: usize, scale: usize, repeat: usize) -> Result<Instance, CdError> {
    let row = &TABLE2_ROWS[i];
    let nodes = (row.nodes / scale).max(100);
    let edges = (row.edges / scale).max(nodes);
    let planted = matched_graph(nodes, edges, 9_000 + (i * 31 + repeat) as u64)?;
    let coarsen = CoarsenConfig { threshold: 150, ..CoarsenConfig::default() };
    let pipeline = multilevel(communities_for(nodes), coarsen);
    Ok(instance(row.name.into(), &planted, pipeline, qhd(4, 100), (i * 100 + repeat) as u64))
}

/// Instance `id` of the Figs 3/4 corpus of `count` CD-QUBOs: the first half
/// is the small stratum (4–16 nodes, k = 3, dense), where branch and bound
/// usually proves optimality, the second the large one (40–120 nodes, or
/// 40–300 with `full`, k ≤ 4, sparse), where it usually runs out of time.
/// QHD runs 8 samples of 150 steps.
///
/// # Errors
///
/// Propagates generator errors.
pub fn fig34_instance(id: usize, count: usize, full: bool) -> Result<Instance, CdError> {
    let small = id < count / 2;
    let (lo, hi) = if small { (4, 16) } else { (40, if full { 300 } else { 120 }) };
    let nodes = lo + (id * 7919) % (hi - lo + 1);
    let k = if small { 3 } else { communities_for(nodes * 12).clamp(2, 4) };
    let (p_in, p_out) = if small { (0.45, 0.08) } else { (0.15, 0.02) };
    let planted = planted(nodes, k, p_in, p_out, 1_000 + id as u64)?;
    Ok(instance(id.to_string(), &planted, Pipeline::Qubo(k), qhd(8, 150), id as u64))
}

/// Every setting of the three ablations, one instance each:
/// * the penalty weights (λ_A multiplier, balance λ_S) on a 100-node matched
///   graph, direct, QHD 2 × 80 steps, seed 9;
/// * the coarsening threshold θ and the Eq. 6 weights (α, β) at θ = 100 on
///   a 250-node planted graph, multilevel, QHD 2 × 80 steps, seed 4;
/// * QHD's steps, samples, grid resolution and evolution time on the
///   CD-QUBO of a 60-node planted graph, seed 1.
///
/// # Errors
///
/// Propagates generator errors.
pub fn ablation_instances() -> Result<Vec<Instance>, CdError> {
    let graph = matched_graph(100, 750, 21)?;
    let penalty = [(1.0, 0.0), (2.0, 0.0), (2.0, 0.05), (2.0, 0.5), (4.0, 0.05)].map(|(a, b)| {
        let formulation = FormulationConfig {
            num_communities: 4,
            assignment_weight: a,
            balance_weight: b,
            ..FormulationConfig::default()
        };
        let name = format!("penalty lambda_A x{a} balance {b}");
        instance(name, &graph, Pipeline::Direct(formulation), qhd(2, 80), 9)
    });

    let graph = planted(250, 6, 0.2, 0.01, 3)?;
    let coarsen = |threshold, alpha, beta| CoarsenConfig {
        threshold,
        alpha,
        beta,
        ..CoarsenConfig::default()
    };
    let default = CoarsenConfig::default();
    let thresholds =
        [40, 80, 150].map(|t| (format!("theta {t}"), coarsen(t, default.alpha, default.beta)));
    let weights = [(1.0, 0.0), (0.5, 0.5), (0.0, 1.0)]
        .map(|(a, b)| (format!("alpha {a} beta {b} theta 100"), coarsen(100, a, b)));
    let coarsening = thresholds.into_iter().chain(weights).map(|(setting, coarsen)| {
        let pipeline = multilevel(6, coarsen);
        instance(format!("multilevel {setting}"), &graph, pipeline, qhd(2, 80), 4)
    });

    let graph = planted(60, 4, 0.35, 0.05, 17)?;
    let base = || qhd(2, 80);
    let schedules = [50, 100, 200]
        .map(|s| (format!("steps {s}"), base().steps(s)))
        .into_iter()
        .chain([1, 4, 8].map(|s| (format!("samples {s}"), base().samples(s))))
        .chain([16, 32, 64].map(|r| (format!("grid {r}"), base().grid_resolution(r))))
        .chain([5.0, 10.0, 20.0].map(|t| (format!("time {t}"), base().total_time(t))))
        .map(|(setting, qhd)| {
            instance(format!("schedule {setting}"), &graph, Pipeline::Qubo(4), qhd, 1)
        });
    Ok(penalty.into_iter().chain(coarsening).chain(schedules).collect())
}

fn instance(
    name: String,
    planted: &PlantedGraph,
    pipeline: Pipeline,
    qhd: QhdConfigBuilder,
    seed: u64,
) -> Instance {
    Instance { name, planted: planted.clone(), pipeline, qhd, seed }
}

/// QHD with `samples` samples of `steps` steps.
fn qhd(samples: usize, steps: usize) -> QhdConfigBuilder {
    QhdSolver::builder().samples(samples).steps(steps)
}

fn multilevel(k: usize, coarsen: CoarsenConfig) -> Pipeline {
    Pipeline::Multilevel(MultilevelConfig {
        num_communities: k,
        coarsen,
        ..MultilevelConfig::default()
    })
}

fn planted(
    num_nodes: usize,
    num_communities: usize,
    p_in: f64,
    p_out: f64,
    seed: u64,
) -> Result<PlantedGraph, CdError> {
    let config = PlantedPartitionConfig { num_nodes, num_communities, p_in, p_out, seed };
    Ok(generators::planted_partition(&config)?)
}
