//! Static workloads: multilevel QHD detection on the Table II-matched graphs.
//!
//! The untraced run times whole `multilevel::detect` calls. After each one it
//! publishes the partition into a serving snapshot (`StreamingService::
//! from_detector`), from which a reader thread serves one burst of reads per
//! period (the `service-churn` producer's read load) while the next
//! detection runs. Freshness and read latency thus mean the same as on the
//! streaming workload: a detection is fresh once a reader can see it.
//!
//! The traced run composes the same pipeline from its public layer calls
//! (`coarsen_hierarchy`, `build_qubo`, `QuboSolver::solve_bounded`,
//! `refine_partition`, `Partition::project`) with a span around each, beside
//! an untraced `detect` for reference, and splits one QHD sample into
//! `meanfield::evolve` and the descent the solver would pick.

use crate::report::{self, median, percentile, BenchResult, Metric, RunOutcome};
use crate::service_workload::{read_burst, PERIOD as READ_PERIOD};
use crate::trace::Tracer;
use crate::Args;
use qhdcd_core::coarsen::{coarsen_hierarchy, CoarsenConfig};
use qhdcd_core::formulation::{build_qubo, CdQubo};
use qhdcd_core::multilevel::{detect, MultilevelConfig};
use qhdcd_core::refine::refine_partition;
use qhdcd_graph::generators::{self, PlantedGraph};
use qhdcd_graph::{metrics, modularity, DynamicGraph, Graph, Partition, QualityFunction};
use qhdcd_qhd::meanfield::{self, MeanFieldConfig};
use qhdcd_qhd::{refine as descent, Backend, QhdSolver, Schedule};
use qhdcd_qubo::{Budget, Completion, QuboModel, QuboSolver};
use qhdcd_stream::{
    ServiceClient, ServiceConfig, StreamConfig, StreamingDetector, StreamingService,
};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::hint::black_box;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// A Table II row: the matched graph's size, and how many such graphs a run
/// generates. Detections cycle through the graphs, which averages out how
/// much quality and cost depend on one graph's seed; that dependence is
/// strong on lastfm, whose coarsening stall varies from graph to graph.
pub struct StaticSpec {
    pub name: &'static str,
    pub nodes: usize,
    pub edges: usize,
    pub graphs: u64,
}

pub const FACEBOOK: StaticSpec =
    StaticSpec { name: "facebook-multilevel", nodes: 4_039, edges: 88_234, graphs: 3 };
pub const LASTFM: StaticSpec =
    StaticSpec { name: "lastfm-multilevel", nodes: 7_626, edges: 27_807, graphs: 6 };

/// Coarsening threshold θ and QHD schedule of the Table II experiment.
const THRESHOLD: usize = 150;
const QHD_SAMPLES: usize = 4;
const QHD_STEPS: usize = 100;
/// Fewest set-ups per run; the median is reported.
const SETUP_REPS: u64 = 3;
/// Above this many quadratic terms the QHD solver's descent switches from
/// `pair_aware_descent` to `first_improvement_descent` (`QhdSolver::run_sample`).
const PAIR_AWARE_LIMIT: usize = 200_000;

/// Communities of a matched graph: one per ~60 nodes, clamped to [4, 8], as
/// the Table II experiment uses for both generation and detection.
fn communities_for(nodes: usize) -> usize {
    (nodes / 60).clamp(4, 8)
}

fn generate(spec: &StaticSpec, seed: u64, smoke: bool) -> BenchResult<PlantedGraph> {
    let scale = if smoke { 16 } else { 1 };
    let (nodes, edges) = (spec.nodes / scale, spec.edges / scale);
    Ok(generators::planted_partition_with_edge_budget(
        nodes,
        communities_for(nodes),
        edges,
        0.2,
        seed,
    )?)
}

fn pipeline_config(nodes: usize) -> MultilevelConfig {
    MultilevelConfig {
        num_communities: communities_for(nodes),
        coarsen: CoarsenConfig { threshold: THRESHOLD, ..CoarsenConfig::default() },
        ..MultilevelConfig::default()
    }
}

/// One generated input graph with its solver and the partition its initial
/// detection produced.
struct Input {
    pg: PlantedGraph,
    config: MultilevelConfig,
    solver: QhdSolver,
    initial: Partition,
}

pub fn run(spec: &StaticSpec, args: &Args) -> BenchResult<RunOutcome> {
    // Set-up: generation plus the initial detection, which also warms caches
    // and the allocator. Every graph is set up, and at least `SETUP_REPS`
    // set-ups run (a graph is set up again from scratch when there are fewer
    // graphs); the median is reported.
    let graphs = if args.smoke { 1 } else { spec.graphs };
    let reps = if args.smoke { 1 } else { graphs.max(SETUP_REPS) };
    let mut setup_s = Vec::new();
    let mut inputs = Vec::new();
    for rep in 0..reps {
        let seed = args.seed.wrapping_mul(1_000).wrapping_add(rep % graphs);
        let start = Instant::now();
        let pg = generate(spec, seed, args.smoke)?;
        let config = pipeline_config(pg.graph.num_nodes());
        let solver = QhdSolver::builder().samples(QHD_SAMPLES).steps(QHD_STEPS).seed(seed).build();
        let initial = detect(&pg.graph, &solver, &config)?.partition;
        setup_s.push(start.elapsed().as_secs_f64());
        if rep < graphs {
            inputs.push(Input { pg, config, solver, initial });
        }
    }
    let mut outcome = RunOutcome::default();
    if args.trace {
        traced(spec, args, &inputs, &mut outcome)?;
    } else {
        measured(args, &inputs, &mut outcome)?;
        outcome.end_to_end.push(Metric::new("setup_s", median(&setup_s), "s"));
    }
    Ok(outcome)
}

/// Publishes `partition` into a serving snapshot, as a deployment would.
fn publish(graph: &Graph, partition: &Partition) -> BenchResult<StreamingService> {
    let detector = StreamingDetector::from_partition(
        DynamicGraph::from_graph(graph),
        partition.clone(),
        StreamConfig::default(),
    )?;
    Ok(StreamingService::from_detector(detector, ServiceConfig::default())?)
}

/// Serves reads from the latest published partition until `stop` is set:
/// every read period, one burst of reads through the client in `latest`.
/// Returns the mean time of one read per group, in µs.
fn serve_reads(latest: &Mutex<ServiceClient>, stop: &AtomicBool, seed: u64) -> Vec<f64> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x5eed);
    let mut read_us = Vec::new();
    let start = Instant::now();
    for tick in 1u32.. {
        if stop.load(Ordering::Acquire) {
            break;
        }
        if let Some(wait) = (start + READ_PERIOD * tick).checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let mut client = latest.lock().expect("the detection loop never panics holding the client");
        read_burst(&mut client, &mut rng, &mut read_us);
    }
    read_us
}

fn measured(args: &Args, inputs: &[Input], outcome: &mut RunOutcome) -> BenchResult<()> {
    let (mut detect_s, mut fresh_ms) = (Vec::new(), Vec::new());
    let mut quality = vec![None; inputs.len()];
    // A reader thread serves the latest published partition while the next
    // detection runs, as a deployment that re-detects periodically would.
    let first = &inputs[0];
    let latest = Mutex::new(publish(&first.pg.graph, &first.initial)?.client());
    let stop = AtomicBool::new(false);
    let mut detections = || -> BenchResult<()> {
        let start = Instant::now();
        // Detections cycle through the graphs, each at least once.
        for (i, input) in inputs.iter().cycle().enumerate() {
            if i >= inputs.len() && start.elapsed() >= args.window {
                break;
            }
            let g = i % inputs.len();
            let graph = &input.pg.graph;
            let n = graph.num_nodes();
            outcome.attempted += 1;
            let t = Instant::now();
            let result = match detect(graph, &input.solver, &input.config) {
                Ok(result) => result,
                Err(e) => {
                    outcome.failed += 1;
                    outcome.check(false, || format!("detect failed: {e}"));
                    break;
                }
            };
            let detected = t.elapsed();
            let client = publish(graph, &result.partition)?.client();
            *latest.lock().expect("the reader never panics holding the client") = client;
            detect_s.push(detected.as_secs_f64());
            fresh_ms.push(t.elapsed().as_secs_f64() * 1e3);
            let p = &result.partition;
            outcome.check(p.num_nodes() == n && p.check_matches(graph).is_ok(), || {
                format!("partition covers {} of {n} nodes", p.num_nodes())
            });
            let recomputed = modularity::quality(graph, p, QualityFunction::default());
            outcome.check(recomputed.to_bits() == result.modularity.to_bits(), || {
                format!("reported Q {} != recomputed {recomputed}", result.modularity)
            });
            outcome.check(p.labels() == input.initial.labels(), || {
                "detect is not deterministic".into()
            });
            quality[g] = Some((
                result.modularity,
                metrics::normalized_mutual_information(p, &input.pg.ground_truth),
            ));
        }
        Ok(())
    };
    let (detected, read_us) = std::thread::scope(|scope| {
        let reader = scope.spawn(|| serve_reads(&latest, &stop, args.seed));
        let detected = detections();
        stop.store(true, Ordering::Release);
        (detected, reader.join().expect("reader thread panicked"))
    });
    detected?;
    let Some(quality) = quality.into_iter().collect::<Option<Vec<(f64, f64)>>>() else {
        return Err("a graph was never detected".into());
    };
    let graphs = inputs.len() as f64;
    let ok = outcome.attempted - outcome.failed;
    outcome.end_to_end.extend([
        Metric::new("detect_s", median(&detect_s), "s"),
        Metric::new("modularity", quality.iter().map(|q| q.0).sum::<f64>() / graphs, "Q"),
        Metric::new("nmi", quality.iter().map(|q| q.1).sum::<f64>() / graphs, "NMI"),
        Metric::new("freshness_p50_ms", median(&fresh_ms), "ms"),
        Metric::new("freshness_p99_ms", percentile(&fresh_ms, 99.0), "ms"),
        Metric::new("accepted_share", ok as f64 / outcome.attempted as f64, "share"),
        Metric::new("read_p50_us", median(&read_us), "us"),
    ]);
    Ok(())
}

/// Per-layer figures of one traced detection.
#[derive(Debug)]
pub struct LayerSample {
    pub coarsen_ms: f64,
    pub levels: usize,
    pub coarsest_nodes: usize,
    pub edges_scored: usize,
    pub last_level_shrink: f64,
    pub formulation_ms: f64,
    pub vars: usize,
    pub nnz: usize,
    pub solve_ms: f64,
    pub samples_completed: u64,
    pub energy: f64,
    pub solver_threads: usize,
    pub refine_ms: f64,
    pub final_ms: f64,
    pub moves: usize,
    pub passes: usize,
    pub project_ms: f64,
    pub coverage: f64,
    pub partition_matches: bool,
}

/// The result of [`traced_detect`].
pub struct Composed {
    pub partition: Partition,
    pub root: usize,
    pub qubo: CdQubo,
    pub sample: LayerSample,
}

/// `multilevel::detect` composed from its public layer calls, with a span
/// around each. `restarts` is the solver's configured sample/restart count
/// (the count a fully completed solve reports).
pub fn traced_detect<S: QuboSolver>(
    graph: &Graph,
    solver: &S,
    restarts: usize,
    config: &MultilevelConfig,
    tracer: &mut Tracer,
) -> BenchResult<Composed> {
    let root = tracer.begin("multilevel.detect");
    let hierarchy = tracer.time("coarsen", || coarsen_hierarchy(graph, &config.coarsen))?;
    let coarsest = hierarchy.coarsest().unwrap_or(graph);
    let mut formulation = config.formulation.clone();
    formulation.num_communities = config.num_communities.min(coarsest.num_nodes().max(1));
    let qubo = tracer.time("formulation", || build_qubo(coarsest, &formulation))?;
    let report = tracer
        .time("qhd.solve", || solver.solve_bounded(qubo.model(), None, &Budget::unlimited()))?;
    let mut partition = qubo.decode(coarsest, &report.solution)?;
    let (mut moves, mut passes) = (0, 0);
    let mut refine = |tracer: &mut Tracer, name, g: &Graph, p: &Partition| {
        let out = tracer.time(name, || refine_partition(g, p, &config.refine))?;
        moves += out.moves;
        passes += out.passes;
        BenchResult::Ok(out.partition)
    };
    partition = refine(tracer, "refine", coarsest, &partition)?;
    for index in (0..hierarchy.levels.len()).rev() {
        let coarse_of = &hierarchy.levels[index].coarse_of;
        partition = tracer.time("multilevel.project", || partition.project(coarse_of));
        let finer = if index == 0 { graph } else { &hierarchy.levels[index - 1].graph };
        partition = refine(tracer, "refine", finer, &partition)?;
    }
    if config.final_refine {
        partition = refine(tracer, "refine.final", graph, &partition)?;
    }
    black_box(modularity::quality(graph, &partition, config.formulation.quality));
    tracer.end(root);

    // Counters, gathered outside the spans.
    let sizes: Vec<usize> = std::iter::once(graph)
        .chain(hierarchy.levels.iter().map(|l| &l.graph))
        .map(Graph::num_nodes)
        .collect();
    let levels = hierarchy.num_levels();
    // Every level was matched on the graph before it; a final round that made
    // no progress also scored the coarsest graph.
    let stalled = sizes[levels] > config.coarsen.threshold && levels < config.coarsen.max_levels;
    let matched = levels + usize::from(stalled);
    let edges_scored = std::iter::once(graph)
        .chain(hierarchy.levels.iter().map(|l| &l.graph))
        .take(matched)
        .map(|g| g.edges().filter(|&(u, v, _)| u != v).count())
        .sum();
    let sample = LayerSample {
        coarsen_ms: tracer.child_ms(root, "coarsen"),
        levels,
        coarsest_nodes: sizes[levels],
        edges_scored,
        last_level_shrink: if levels == 0 {
            0.0
        } else {
            1.0 - sizes[levels] as f64 / sizes[levels - 1] as f64
        },
        formulation_ms: tracer.child_ms(root, "formulation"),
        vars: qubo.model().num_variables(),
        nnz: qubo.model().num_quadratic_terms(),
        solve_ms: tracer.child_ms(root, "qhd.solve"),
        samples_completed: match report.completion {
            Completion::Full => restarts as u64,
            Completion::Truncated { completed_restarts } => completed_restarts,
        },
        energy: report.objective,
        solver_threads: 0,
        refine_ms: tracer.child_ms(root, "refine"),
        final_ms: tracer.child_ms(root, "refine.final"),
        moves,
        passes,
        project_ms: tracer.child_ms(root, "multilevel.project"),
        coverage: 0.0,
        partition_matches: false,
    };
    Ok(Composed { partition, root, qubo, sample })
}

/// Splits one QHD sample (sample 0's seed) into the mean-field evolution and
/// the descents the solver runs on its candidate roundings, as
/// `QhdSolver::run_sample` does. Returns `(evolve_ms, descent_ms)`, or `None`
/// when the solver would use the exact state-vector backend.
fn split_sample(
    solver: &QhdSolver,
    model: &QuboModel,
    tracer: &mut Tracer,
) -> BenchResult<Option<(f64, f64)>> {
    if matches!(solver.backend_for(model), Backend::Exact) {
        return Ok(None);
    }
    let c = solver.config();
    let root = tracer.begin("qhd.sample");
    let out = tracer.time("qhd.evolve", || {
        meanfield::evolve(
            model,
            &MeanFieldConfig {
                schedule: Schedule::default_qhd(c.total_time),
                steps: c.steps,
                grid_resolution: c.grid_resolution,
                shots: c.shots,
                seed: c.seed,
                randomize_initial_state: true,
                threads: 1,
            },
        )
    })?;
    let descend = |solution: Vec<bool>| {
        if c.refine_sweeps == 0 {
            solution
        } else if model.num_quadratic_terms() <= PAIR_AWARE_LIMIT {
            descent::pair_aware_descent(model, solution, c.refine_sweeps).0
        } else {
            descent::first_improvement_descent(model, solution, c.refine_sweeps).0
        }
    };
    tracer.time("qhd.descent", || {
        black_box(descend(out.best_solution.clone()));
        let mut rng = ChaCha8Rng::seed_from_u64(c.seed ^ 0x9e37_79b9_7f4a_7c15);
        for _ in 0..c.shots.min(8) {
            let candidate: Vec<bool> =
                out.probabilities.iter().map(|&p| rng.gen::<f64>() < p).collect();
            black_box(descend(candidate));
        }
    });
    tracer.end(root);
    Ok(Some((tracer.child_ms(root, "qhd.evolve"), tracer.child_ms(root, "qhd.descent"))))
}

fn traced(
    spec: &StaticSpec,
    args: &Args,
    inputs: &[Input],
    outcome: &mut RunOutcome,
) -> BenchResult<()> {
    let mut tracer = Tracer::new();
    let (mut samples, mut evolve_ms, mut descent_ms, mut untraced) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let start = Instant::now();
    for (i, input) in inputs.iter().cycle().enumerate() {
        if i >= inputs.len() && start.elapsed() >= args.window {
            break;
        }
        let (graph, solver, config) = (&input.pg.graph, &input.solver, &input.config);
        tracer.set_group(i as u64);
        outcome.attempted += 1;
        let t = Instant::now();
        let reference = detect(graph, solver, config)?;
        let untraced_ms = t.elapsed().as_secs_f64() * 1e3;
        untraced.push(untraced_ms);
        let composed = traced_detect(graph, solver, QHD_SAMPLES, config, &mut tracer)?;
        outcome.check(reference.partition.labels() == input.initial.labels(), || {
            "detect is not deterministic".into()
        });
        let mut sample = composed.sample;
        sample.coverage = tracer.children(composed.root).map(|s| s.ms()).sum::<f64>() / untraced_ms;
        // Reported, never asserted: a library change may legitimately make
        // `detect` diverge from this outside composition.
        sample.partition_matches =
            composed.partition.renumbered().labels() == reference.partition.renumbered().labels();
        sample.solver_threads = solver.config().threads.clamp(1, QHD_SAMPLES);
        if let Some((evolve, descend)) = split_sample(solver, composed.qubo.model(), &mut tracer)? {
            evolve_ms.push(evolve);
            descent_ms.push(descend);
        }
        samples.push(sample);
    }
    outcome.per_layer = layer_metrics(&samples);
    let mut extra = vec![
        Metric::new("qhd.evolve_ms", median(&evolve_ms), "ms"),
        Metric::new("qhd.descent_ms", median(&descent_ms), "ms"),
        Metric::new("detect_untraced_ms", median(&untraced), "ms"),
    ];
    extra.extend(layer_shares(&tracer));
    finish_trace(spec.name, args, &tracer, outcome, extra)
}

/// The per-layer metrics every workload reports: for each figure, its median
/// over the traced detections.
pub fn layer_metrics(samples: &[LayerSample]) -> Vec<Metric> {
    let m = |name, f: fn(&LayerSample) -> f64, unit| {
        Metric::new(name, median(&samples.iter().map(f).collect::<Vec<_>>()), unit)
    };
    vec![
        m("coarsen.ms", |s| s.coarsen_ms, "ms"),
        m("coarsen.levels", |s| s.levels as f64, "count"),
        m("coarsen.coarsest_nodes", |s| s.coarsest_nodes as f64, "count"),
        m("coarsen.edges_scored", |s| s.edges_scored as f64, "count"),
        m("coarsen.last_level_shrink", |s| s.last_level_shrink, "share"),
        m("formulation.ms", |s| s.formulation_ms, "ms"),
        m("formulation.vars", |s| s.vars as f64, "count"),
        m("formulation.nnz", |s| s.nnz as f64, "count"),
        m("qhd.solve_ms", |s| s.solve_ms, "ms"),
        m("qhd.samples_completed", |s| s.samples_completed as f64, "count"),
        m("qhd.energy", |s| s.energy, "energy"),
        m("qhd.threads", |s| s.solver_threads as f64, "count"),
        m("refine.ms", |s| s.refine_ms, "ms"),
        m("refine.final_ms", |s| s.final_ms, "ms"),
        m("refine.moves", |s| s.moves as f64, "count"),
        m("refine.passes", |s| s.passes as f64, "count"),
        m("multilevel.project_ms", |s| s.project_ms, "ms"),
        m("trace.coverage", |s| s.coverage, "share"),
        m("trace.partition_matches", |s| f64::from(u8::from(s.partition_matches)), "share"),
    ]
}

/// Each layer's share of the traced detections' total time, by self time.
pub fn layer_shares(tracer: &Tracer) -> Vec<Metric> {
    let layers = tracer.layer_self_ms("multilevel.detect");
    let total: f64 = layers.values().sum();
    layers
        .into_iter()
        .filter_map(|(layer, ms)| {
            let name = match layer {
                "coarsen" => "share.coarsen",
                "formulation" => "share.formulation",
                "qhd" => "share.qhd",
                "refine" => "share.refine",
                "multilevel" => "share.multilevel",
                _ => return None,
            };
            Some(Metric::new(name, ms / total, "share"))
        })
        .collect()
}

/// Writes the span file and prints the trace-only figures.
pub fn finish_trace(
    workload: &str,
    args: &Args,
    tracer: &Tracer,
    outcome: &RunOutcome,
    extra: Vec<Metric>,
) -> BenchResult<()> {
    for m in &extra {
        println!("{:<28} {:>16.6} {}", m.name, m.value, m.unit);
    }
    let all: Vec<Metric> = outcome.per_layer.iter().cloned().chain(extra).collect();
    let path = Path::new("perfbench/out").join(format!("trace-{workload}-{}.json", args.seed));
    let header = [
        ("workload", format!("\"{workload}\"")),
        ("seed", args.seed.to_string()),
        ("nproc", report::host_threads().to_string()),
        ("smoke", args.smoke.to_string()),
    ];
    tracer.write(&path, &header, &all)?;
    println!("spans written to {}", path.display());
    Ok(())
}
