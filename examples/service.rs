//! Streaming service: concurrent readers, backpressure, crash recovery.
//!
//! A `StreamingService` runs the streaming detector as a long-lived writer
//! behind versioned immutable partition snapshots. This example exercises the
//! three service-layer guarantees end to end:
//!
//! 1. concurrent snapshot readers query the partition lock-free while the
//!    writer drains batches from the bounded ingestion queue;
//! 2. a too-small queue surfaces a backpressure signal instead of dropping or
//!    reordering events;
//! 3. a simulated crash is recovered from the last checkpoint plus an event-
//!    log replay, bit-identical to the uninterrupted run.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example service
//! ```

use qhdcd::graph::generators;
use qhdcd::prelude::*;
use qhdcd::stream::{BackoffPolicy, StreamError};

fn main() -> Result<(), StreamError> {
    // 1. A planted-partition graph wrapped in the service layer.
    let pg = generators::planted_partition(&generators::PlantedPartitionConfig {
        num_nodes: 400,
        num_communities: 5,
        p_in: 0.12,
        p_out: 0.004,
        seed: 42,
    })?;
    let n = pg.graph.num_nodes();
    let mut config = ServiceConfig::default().with_seed(7);
    config.stream.detector = config.stream.detector.with_communities(5).with_seed(7);
    config.queue_capacity = 64;
    config.max_batch = 16;
    config.checkpoint_every = 4;
    let mut service = StreamingService::new(DynamicGraph::from_graph(&pg.graph), config.clone())?;
    println!(
        "service up: {} nodes, epoch {}, Q = {:.4}",
        n,
        service.epoch(),
        service.latest_snapshot().modularity()
    );

    // Deterministic churn without pulling in an RNG crate (SplitMix64).
    let mut state = 42u64;
    let mut next = move |bound: usize| {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((z ^ (z >> 31)) % bound as u64) as usize
    };
    let mut churn = Vec::new();
    for _ in 0..200 {
        let (u, v) = (next(n), next(n));
        if u != v {
            churn.push(EdgeEvent::Add { u, v, weight: 0.5 + (next(10) as f64) / 10.0 });
        }
    }

    // 2. Concurrency: a producer thread submits batches (blocking on
    //    backpressure), reader threads poll snapshots lock-free, the writer
    //    drains until the producer closes the service.
    let producer = service.client();
    let readers: Vec<_> = (0..3).map(|_| service.client()).collect();
    let batches = std::thread::scope(|scope| {
        scope.spawn(move || {
            for batch in churn.chunks(10) {
                producer.submit(batch).expect("service open while producing");
            }
            producer.close();
        });
        for mut client in readers {
            scope.spawn(move || {
                let mut last_epoch = 0;
                loop {
                    let snap = client.snapshot();
                    assert!(snap.epoch() >= last_epoch, "epochs are monotonic");
                    assert_eq!(snap.num_nodes(), n, "never a torn snapshot");
                    last_epoch = snap.epoch();
                    // A point query served from the immutable snapshot.
                    let _ = snap.top_communities_near(0, 3);
                    if snap.epoch() > 0 && client.queued() == 0 {
                        break;
                    }
                    std::thread::yield_now();
                }
            });
        }
        service.run_until_closed()
    })?;
    let snap = service.latest_snapshot();
    println!(
        "writer drained {} batches; epoch {}, {} communities, Q = {:.4}",
        batches,
        snap.epoch(),
        snap.num_communities(),
        snap.modularity()
    );

    // 3. Backpressure: a full queue pushes back instead of dropping; the
    //    retry helper resubmits under a deterministic capped exponential
    //    backoff until the writer frees space.
    let client = service.client();
    // (the service is closed now — demonstrate on a fresh small-queue twin)
    let mut tiny_config = config.clone();
    tiny_config.queue_capacity = 8;
    let mut tiny = StreamingService::new(DynamicGraph::from_graph(&pg.graph), tiny_config)?;
    let tiny_client = tiny.client();
    let overload: Vec<EdgeEvent> =
        (1..=12).map(|i| EdgeEvent::Add { u: 0, v: i, weight: 1.0 }).collect();
    let policy = BackoffPolicy::default();
    let mut retries = 0;
    let mut applied = 0;
    for chunk in overload.chunks(4) {
        tiny_client.retry_with_backoff(chunk, &policy, |_delay| {
            // In production the sleeper is `std::thread::sleep` and a writer
            // thread drains concurrently; here the writer shares this thread,
            // so "waiting out" the backoff delay means letting it drain.
            retries += 1;
            if let Ok(Some(stats)) = tiny.step() {
                applied += stats.events_applied;
            }
        })?;
    }
    println!(
        "submitted {} events through backoff ({retries} backpressure retries)",
        overload.len()
    );
    let drained = tiny.drain()?;
    applied += drained.iter().map(|s| s.events_applied).sum::<usize>();
    assert_eq!(applied, overload.len(), "backoff + drain loses nothing");
    println!("applied all {applied} events, no loss");
    assert!(matches!(
        client.try_submit(&[EdgeEvent::Add { u: 0, v: 1, weight: 1.0 }]),
        Err(StreamError::ServiceClosed)
    ));

    // 4. Crash recovery: the automatic checkpoint plus the journal rebuild the
    //    exact service state — partition and modularity bit-identical.
    let checkpoint = service.latest_checkpoint().expect("auto checkpoint was cut");
    let journal = service.journal_log();
    let recovered = StreamingService::recover(&checkpoint, &journal, config)?;
    assert_eq!(recovered.epoch(), service.epoch());
    assert_eq!(recovered.detector().partition(), service.detector().partition());
    assert_eq!(
        recovered.detector().modularity().to_bits(),
        service.detector().modularity().to_bits()
    );
    println!(
        "recovered from checkpoint + {}-event journal: epoch {}, Q bits identical",
        recovered.journal().len(),
        recovered.epoch()
    );
    Ok(())
}
