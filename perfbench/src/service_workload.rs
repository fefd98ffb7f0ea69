//! `service-churn`: a planted graph served by `StreamingService` under an
//! open-loop edge-churn load.
//!
//! Two threads, the host's core count: the main thread is the service's
//! writer (it applies queued batches with `StreamingService::step`), and one
//! producer thread submits fixed-size churn batches on a fixed schedule with
//! `ServiceClient::try_submit`, reading snapshots between submissions. A batch
//! refused by backpressure is counted, not retried. Freshness runs from a
//! batch's scheduled send time to the publication of the epoch that contains
//! it, so a stalled writer delays every batch scheduled behind it.
//!
//! The churn keeps the planted structure stationary: additions follow the
//! initial graph's intra/inter-community edge ratio and removals take
//! uniformly random live edges, one of each per pair of events.

use crate::report::{median, percentile, BenchResult, Metric, RunOutcome};
use crate::static_workload::{finish_trace, layer_metrics, layer_shares, traced_detect};
use crate::trace::Tracer;
use crate::Args;
use qhdcd_core::{CommunityDetector, MultilevelConfig};
use qhdcd_graph::generators::{self, PlantedGraph, PlantedPartitionConfig};
use qhdcd_graph::{metrics, modularity, DynamicGraph, EdgeEvent, Partition, QualityFunction};
use qhdcd_solvers::{runtime, MoveSet, PortfolioSolver};
use qhdcd_stream::{ServiceClient, ServiceConfig, StreamConfig, StreamingService};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::HashSet;
use std::hint::black_box;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Communities of the planted graph and of the service's detector.
const COMMUNITIES: usize = 10;
/// Events per batch: half additions, half removals.
const BATCH_EVENTS: usize = 16;
/// The producer's schedule: one batch per period, followed by one burst of
/// snapshot reads.
pub const PERIOD: Duration = Duration::from_millis(10);
/// A burst of reads: this many groups of `READS_PER_GROUP` reads of random
/// nodes, each group timed on its own. Most groups of a burst run on warm
/// caches, so the median group measures the read path rather than how the
/// reading thread's core came back from sleep.
const READ_GROUPS: usize = 16;
const READS_PER_GROUP: usize = 4;
/// `k` of each `top_communities_near` read.
const READ_TOP_K: usize = 3;
/// Batches ingested synchronously during set-up, before the window opens.
const WARMUP_BATCHES: usize = 50;
/// Queue capacity in events, far above the backlog one re-detect builds at
/// this rate, so the load stays below capacity.
const QUEUE_CAPACITY: usize = 16_384;
/// Set-ups per run; the median is reported.
const SETUP_REPS: usize = 5;
/// Full re-detect trigger: accumulated weight change as a share of the total
/// edge weight. Below the default 0.5, so that a 20 s window sees about five
/// re-detects, enough for a steady median and 99th percentile.
const DRIFT_THRESHOLD: f64 = 0.3;
/// The producer samples the published partition's NMI every this many
/// batches.
const NMI_EVERY: usize = 50;

/// Times one snapshot read per node through `client`: the latest epoch, the
/// node's community and the communities nearest to it. The reads are timed
/// as a group, so the clock's own cost stays out of a sub-microsecond read.
/// Returns the mean time of one read in µs.
fn timed_reads(client: &mut ServiceClient, nodes: &[usize]) -> f64 {
    let start = Instant::now();
    for &node in nodes {
        let snapshot = client.snapshot();
        black_box(snapshot.community_of(node));
        black_box(snapshot.top_communities_near(node, READ_TOP_K));
    }
    start.elapsed().as_secs_f64() * 1e6 / nodes.len() as f64
}

/// Times one burst of reads of random nodes through `client`, pushing the
/// mean time of one read per group, in µs, to `read_us`. Returns the burst's
/// start and end.
pub fn read_burst(
    client: &mut ServiceClient,
    rng: &mut ChaCha8Rng,
    read_us: &mut Vec<f64>,
) -> (Instant, Instant) {
    let n = client.snapshot().num_nodes();
    let start = Instant::now();
    for _ in 0..READ_GROUPS {
        let nodes: [usize; READS_PER_GROUP] = std::array::from_fn(|_| rng.gen_range(0..n));
        read_us.push(timed_reads(client, &nodes));
    }
    (start, Instant::now())
}

fn generate(seed: u64, smoke: bool) -> BenchResult<PlantedGraph> {
    // The full size is the `streaming_maintenance` instance; the smoke size
    // keeps its expected degrees, so a batch's frontier stays local.
    let (num_nodes, p_in, p_out) =
        if smoke { (2_000, 0.03, 0.0015) } else { (5_000, 0.012, 0.0006) };
    Ok(generators::planted_partition(&PlantedPartitionConfig {
        num_nodes,
        num_communities: COMMUNITIES,
        p_in,
        p_out,
        seed,
    })?)
}

fn detector(seed: u64) -> CommunityDetector {
    CommunityDetector::classical_fallback().with_communities(COMMUNITIES).with_seed(seed)
}

fn service_config(seed: u64) -> ServiceConfig {
    ServiceConfig {
        stream: StreamConfig {
            drift_threshold: DRIFT_THRESHOLD,
            detector: detector(seed),
            ..StreamConfig::default()
        },
        queue_capacity: QUEUE_CAPACITY,
        max_batch: BATCH_EVENTS,
        ..ServiceConfig::default()
    }
}

/// Seeded churn that preserves the planted structure.
struct Churn {
    rng: ChaCha8Rng,
    live: Vec<(usize, usize)>,
    present: HashSet<(usize, usize)>,
    label: Vec<usize>,
    members: Vec<Vec<usize>>,
    intra_share: f64,
}

impl Churn {
    fn new(pg: &PlantedGraph, seed: u64) -> Self {
        let label = pg.ground_truth.labels().to_vec();
        let members = pg.ground_truth.communities();
        let live: Vec<(usize, usize)> = pg
            .graph
            .edges()
            .filter(|&(u, v, _)| u != v)
            .map(|(u, v, _)| (u.min(v), u.max(v)))
            .collect();
        let intra = live.iter().filter(|&&(u, v)| label[u] == label[v]).count();
        let intra_share = intra as f64 / live.len().max(1) as f64;
        let present = live.iter().copied().collect();
        Churn { rng: ChaCha8Rng::seed_from_u64(seed), live, present, label, members, intra_share }
    }

    fn add(&mut self) -> EdgeEvent {
        let n = self.label.len();
        let intra = self.rng.gen::<f64>() < self.intra_share;
        loop {
            let u = self.rng.gen_range(0..n);
            let v = if intra {
                let community = &self.members[self.label[u]];
                community[self.rng.gen_range(0..community.len())]
            } else {
                self.rng.gen_range(0..n)
            };
            let key = (u.min(v), u.max(v));
            if u == v || (self.label[u] == self.label[v]) != intra || self.present.contains(&key) {
                continue;
            }
            self.present.insert(key);
            self.live.push(key);
            return EdgeEvent::Add { u: key.0, v: key.1, weight: 1.0 };
        }
    }

    fn remove(&mut self) -> EdgeEvent {
        let i = self.rng.gen_range(0..self.live.len());
        let (u, v) = self.live.swap_remove(i);
        self.present.remove(&(u, v));
        EdgeEvent::Remove { u, v }
    }

    fn batch(&mut self) -> Vec<EdgeEvent> {
        (0..BATCH_EVENTS).map(|i| if i % 2 == 0 { self.add() } else { self.remove() }).collect()
    }
}

/// What the producer thread saw.
#[derive(Default)]
struct ProducerLog {
    /// Scheduled send time of every accepted batch, in submission order.
    accepted_due: Vec<Instant>,
    refused: u64,
    lag_ms: Vec<f64>,
    backlog_max: usize,
    read_us: Vec<f64>,
    reads: Vec<(Instant, Instant)>,
    nmi: Vec<f64>,
}

/// What the writer thread saw, per applied batch.
#[derive(Default)]
struct WriterLog {
    published: Vec<Instant>,
    ingest: Vec<(Instant, Instant)>,
    ingest_ms: Vec<f64>,
    apply_ms: Vec<f64>,
    publish_ms: Vec<f64>,
    redetect_ms: Vec<f64>,
    frontier: Vec<f64>,
    modularity: Vec<f64>,
    moved: usize,
    passes: usize,
    errors: Vec<String>,
}

fn produce(
    mut client: ServiceClient,
    batches: &[Vec<EdgeEvent>],
    truth: &Partition,
    seed: u64,
    bell: mpsc::Sender<()>,
) -> ProducerLog {
    let mut log = ProducerLog::default();
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x7ead);
    let start = Instant::now();
    for (i, batch) in batches.iter().enumerate() {
        let due = start + PERIOD * i as u32;
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        log.lag_ms.push(Instant::now().duration_since(due).as_secs_f64() * 1e3);
        log.backlog_max = log.backlog_max.max(client.queued());
        match client.try_submit(batch) {
            Ok(()) => {
                log.accepted_due.push(due);
                // The writer may already have drained the batch; a spare
                // wake-up only makes it find an empty queue.
                let _ = bell.send(());
            }
            Err(_) => log.refused += 1,
        }
        log.reads.push(read_burst(&mut client, &mut rng, &mut log.read_us));
        if i % NMI_EVERY == NMI_EVERY - 1 {
            log.nmi.push(metrics::normalized_mutual_information(
                &client.snapshot().partition(),
                truth,
            ));
        }
    }
    log
}

fn write(service: &mut StreamingService, bell: mpsc::Receiver<()>) -> WriterLog {
    let mut log = WriterLog::default();
    let apply_queued = |service: &mut StreamingService, log: &mut WriterLog| loop {
        let t = Instant::now();
        match service.step() {
            Ok(Some(stats)) => {
                let end = Instant::now();
                let wall = end.duration_since(t).as_secs_f64() * 1e3;
                let apply = stats.elapsed.as_secs_f64() * 1e3;
                log.published.push(end);
                log.ingest.push((t, end));
                log.ingest_ms.push(wall);
                log.modularity.push(stats.modularity);
                if stats.full_redetect {
                    log.redetect_ms.push(apply);
                } else {
                    log.apply_ms.push(apply);
                    log.publish_ms.push(wall - apply);
                    log.frontier.push(stats.frontier_size as f64);
                    log.moved += stats.nodes_moved;
                    log.passes += stats.refine_passes;
                }
            }
            Ok(None) => return,
            Err(e) => log.errors.push(e.to_string()),
        }
    };
    while bell.recv().is_ok() {
        apply_queued(service, &mut log);
    }
    apply_queued(service, &mut log);
    log
}

pub fn run(args: &Args) -> BenchResult<RunOutcome> {
    let num_batches = (args.window.as_secs_f64() / PERIOD.as_secs_f64()).round() as usize;
    let warmup = if args.smoke { 5 } else { WARMUP_BATCHES };
    // Set-up: graph generation, the service's initial detection, the churn
    // schedule and a synchronous warm-up of the ingest path.
    let (mut setup_s, mut initial_detect_s) = (Vec::new(), Vec::new());
    let mut prepared = None;
    for _ in 0..if args.smoke { 1 } else { SETUP_REPS } {
        let start = Instant::now();
        let pg = generate(args.seed, args.smoke)?;
        let t = Instant::now();
        let mut service =
            StreamingService::new(DynamicGraph::from_graph(&pg.graph), service_config(args.seed))?;
        initial_detect_s.push(t.elapsed().as_secs_f64());
        let mut churn = Churn::new(&pg, args.seed);
        for _ in 0..warmup {
            service.ingest(&churn.batch())?;
        }
        let batches: Vec<Vec<EdgeEvent>> = (0..num_batches).map(|_| churn.batch()).collect();
        setup_s.push(start.elapsed().as_secs_f64());
        prepared = Some((pg, service, batches));
    }
    let (pg, mut service, batches) = prepared.expect("at least one set-up ran");
    let mut outcome = RunOutcome::default();
    let mut tracer = Tracer::new();
    let mut layer_samples = Vec::new();
    if args.trace {
        // The layers of the service's full detection, composed from their
        // public calls on the initial graph.
        let t = Instant::now();
        let reference = detector(args.seed).detect(&pg.graph)?;
        let untraced_ms = t.elapsed().as_secs_f64() * 1e3;
        let mut solver = PortfolioSolver::default().with_seed(args.seed);
        solver.config.move_set = MoveSet::PairAware;
        let config = MultilevelConfig::with_communities(COMMUNITIES);
        let composed =
            traced_detect(&pg.graph, &solver, solver.config.restarts, &config, &mut tracer)?;
        let mut sample = composed.sample;
        sample.coverage = tracer.children(composed.root).map(|s| s.ms()).sum::<f64>() / untraced_ms;
        sample.partition_matches =
            composed.partition.renumbered().labels() == reference.partition.renumbered().labels();
        sample.solver_threads =
            runtime::resolve_threads(solver.config.threads, solver.config.restarts);
        layer_samples.push(sample);
    }

    let (bell_tx, bell_rx) = mpsc::channel();
    // The producer submits and reads through one client, so its reads keep
    // its snapshot handle current: an idle handle would pin every epoch
    // published after it.
    let client = service.client();
    let (producer, writer) = std::thread::scope(|scope| {
        let producer =
            scope.spawn(|| produce(client, &batches, &pg.ground_truth, args.seed, bell_tx));
        let writer = write(&mut service, bell_rx);
        (producer.join().expect("producer thread panicked"), writer)
    });

    // Correctness of the final state.
    let accepted = producer.accepted_due.len();
    let applied = writer.published.len();
    outcome.attempted = batches.len() as u64;
    outcome.failed = producer.refused + writer.errors.len() as u64;
    for e in &writer.errors {
        outcome.check(false, || format!("batch failed: {e}"));
    }
    outcome
        .check(applied == accepted, || format!("{applied} batches applied, {accepted} accepted"));
    let detector_state = service.detector();
    let maintained = detector_state.modularity();
    let final_partition: Partition = detector_state.partition();
    let recomputed = modularity::quality(
        &detector_state.graph().snapshot(),
        &final_partition,
        QualityFunction::default(),
    );
    outcome.check((maintained - recomputed).abs() <= 1e-9, || {
        format!("maintained Q {maintained} != recomputed {recomputed}")
    });
    let epoch = service.latest_snapshot().epoch();
    let batches_applied = (warmup + applied) as u64;
    outcome.check(epoch == batches_applied, || {
        format!("published epoch {epoch} != {batches_applied} batches")
    });
    let journaled = service.journal().len();
    let events = (warmup + accepted) * BATCH_EVENTS;
    outcome.check(journaled == events, || {
        format!("journal holds {journaled} events, accepted {events}")
    });

    // Freshness: accepted batches in order map to the epochs after warm-up;
    // refused batches miss every latency limit.
    let mut fresh_ms: Vec<f64> = producer
        .accepted_due
        .iter()
        .zip(&writer.published)
        .map(|(due, published)| published.duration_since(*due).as_secs_f64() * 1e3)
        .collect();
    fresh_ms.extend(std::iter::repeat_n(f64::INFINITY, producer.refused as usize));
    let window_ms = args.window.as_secs_f64() * 1e3;
    let capped = |x: f64| if x.is_finite() { x } else { window_ms };

    if args.trace {
        outcome.per_layer = layer_metrics(&layer_samples);
        for (epoch, &(start, end)) in writer.ingest.iter().enumerate() {
            tracer.record("stream.ingest", (warmup + epoch + 1) as u64, start, end);
        }
        for &(start, end) in &producer.reads {
            tracer.record("stream.read", 0, start, end);
        }
        let incremental = writer.apply_ms.len().max(1) as f64;
        let mut extra = vec![
            Metric::new("stream.ingest_ms", median(&writer.ingest_ms), "ms"),
            Metric::new("stream.apply_ms", median(&writer.apply_ms), "ms"),
            Metric::new("stream.publish_ms", median(&writer.publish_ms), "ms"),
            Metric::new("stream.redetect_ms", median(&writer.redetect_ms), "ms"),
            Metric::new("stream.full_redetects", writer.redetect_ms.len() as f64, "count"),
            Metric::new("stream.frontier_nodes", median(&writer.frontier), "count"),
            Metric::new("stream.nodes_moved", writer.moved as f64 / incremental, "count/batch"),
            Metric::new("stream.refine_passes", writer.passes as f64 / incremental, "count/batch"),
            Metric::new("stream.backlog_max_events", producer.backlog_max as f64, "count"),
            Metric::new("stream.generator_lag_ms", percentile(&producer.lag_ms, 100.0), "ms"),
            Metric::new("stream.read_us", median(&producer.read_us), "us"),
        ];
        extra.extend(layer_shares(&tracer));
        finish_trace("service-churn", args, &tracer, &outcome, extra)?;
    } else {
        // The service's full detections in the window are its re-detects; a
        // window too short for one falls back to the set-up's initial ones.
        let detect_s = if writer.redetect_ms.is_empty() {
            median(&initial_detect_s)
        } else {
            median(&writer.redetect_ms) / 1e3
        };
        // Quality is taken over the window, not at its end, because the
        // maintained partition drifts between re-detects.
        let nmi = if producer.nmi.is_empty() {
            metrics::normalized_mutual_information(&final_partition, &pg.ground_truth)
        } else {
            median(&producer.nmi)
        };
        outcome.end_to_end.extend([
            Metric::new("detect_s", detect_s, "s"),
            Metric::new("modularity", median(&writer.modularity), "Q"),
            Metric::new("nmi", nmi, "NMI"),
            Metric::new("freshness_p50_ms", capped(percentile(&fresh_ms, 50.0)), "ms"),
            Metric::new("freshness_p99_ms", capped(percentile(&fresh_ms, 99.0)), "ms"),
            Metric::new("accepted_share", accepted as f64 / batches.len().max(1) as f64, "share"),
            Metric::new("read_p50_us", median(&producer.read_us), "us"),
            Metric::new("setup_s", median(&setup_s), "s"),
        ]);
    }
    Ok(outcome)
}
