//! Deterministic fault-injection suite for the streaming service.
//!
//! Compiled only with `--features fault-injection`; the hooks it drives are
//! `#[cfg]`-gated in the stream crate, so default builds carry zero fault
//! code (the CI check job greps the release example binary for the injected
//! panic string to pin that down).
//!
//! Every scenario here is seed-deterministic: a failing case reproduces from
//! its [`FaultPlan`] alone. The invariants under test:
//!
//! * an injected writer panic never deadlocks the service — blocked
//!   submitters wake with [`StreamError::ServiceClosed`], readers keep
//!   serving the last published epoch, and the supervisor rebuilds a
//!   bit-identical service from the [`CheckpointStore`];
//! * an injected validation failure is quarantined to the dead-letter log
//!   without wedging the queue;
//! * a torn checkpoint write is detected structurally on recovery, never
//!   silently restored;
//! * queue-full storms lose and reorder nothing under the backoff helper.

#![cfg(feature = "fault-injection")]

use qhdcd::graph::generators;
use qhdcd::prelude::*;
use qhdcd::stream::faults::FaultPlan;
use qhdcd::stream::{BackoffPolicy, CheckpointStore, StreamError};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

fn karate_config() -> ServiceConfig {
    let mut config = ServiceConfig::default().with_seed(3);
    config.queue_capacity = 16;
    config.max_batch = 4;
    config.checkpoint_every = 1;
    config
}

fn karate_service(config: &ServiceConfig) -> StreamingService {
    StreamingService::new(DynamicGraph::from_graph(&generators::karate_club()), config.clone())
        .expect("valid service config")
}

#[test]
fn injected_writer_panic_is_contained_and_recoverable() {
    let config = karate_config();
    let mut service = karate_service(&config);
    let store = CheckpointStore::new();
    service.attach_store(&store);
    service.inject_faults(FaultPlan::default().with_panic_at_batch(2));
    let mut client = service.client();

    // Batch 1 applies normally.
    service.ingest(&[EdgeEvent::Add { u: 0, v: 20, weight: 1.0 }]).unwrap();
    assert_eq!(service.epoch(), 1);

    // Batch 2 hits the injected panic mid-apply: the batch is neither
    // journaled nor published, and the panic does not poison the store.
    let batch2 = [EdgeEvent::Add { u: 0, v: 21, weight: 1.0 }];
    let outcome = catch_unwind(AssertUnwindSafe(|| service.ingest(&batch2)));
    assert!(outcome.is_err(), "the injected panic must surface");

    // Writer death: dropping the service (as a panicking writer thread's
    // unwind would) closes the queue, so blocked submitters error out
    // instead of hanging. Fill the queue first so the submit really blocks —
    // the dead writer will never drain it.
    let fill: Vec<EdgeEvent> =
        (0..16).map(|i| EdgeEvent::Add { u: 1, v: 2 + i % 8, weight: 1.0 }).collect();
    client.try_submit(&fill).unwrap();
    let pending = {
        let client = client.clone();
        std::thread::spawn(move || client.submit(&[EdgeEvent::Add { u: 1, v: 10, weight: 1.0 }]))
    };
    std::thread::sleep(Duration::from_millis(30));
    drop(service);
    let blocked = pending.join().expect("submitter must not hang or panic");
    assert!(matches!(blocked, Err(StreamError::ServiceClosed)), "got {blocked:?}");

    // ...while readers keep serving the last published epoch.
    assert_eq!(client.snapshot().epoch(), 1);

    // The supervisor rebuilds from the store: bit-identical to the state
    // before the poisoned batch, and the un-journaled batch can be replayed.
    let mut resumed = StreamingService::resume_from_store(&store, config.clone()).unwrap();
    assert_eq!(resumed.epoch(), 1);
    let mut reference = karate_service(&config);
    reference.ingest(&[EdgeEvent::Add { u: 0, v: 20, weight: 1.0 }]).unwrap();
    assert_eq!(resumed.checkpoint(), reference.checkpoint());
    resumed.ingest(&batch2).unwrap();
    assert_eq!(resumed.epoch(), 2);
    assert!(resumed.detector().graph().has_edge(0, 21));
}

#[test]
fn injected_validation_failure_is_quarantined_without_wedging() {
    let mut config = karate_config();
    config.quarantine = true;
    let mut service = karate_service(&config);
    service.inject_faults(FaultPlan::default().with_validation_failure_at(1));
    let client = service.client();

    client.try_submit(&[EdgeEvent::Add { u: 0, v: 20, weight: 1.0 }]).unwrap();
    // The injected fault poisons validation of batch 1: quarantined, queue
    // drained, no error surfaces to the writer loop.
    assert!(service.step().unwrap().is_none());
    assert_eq!(service.epoch(), 0);
    assert_eq!(service.dead_letters().len(), 1);

    // The fault was consumed with the dead letter: the next batch at the
    // same epoch is clean and the service keeps going.
    client.try_submit(&[EdgeEvent::Add { u: 0, v: 21, weight: 1.0 }]).unwrap();
    assert!(service.step().unwrap().is_some());
    assert_eq!(service.epoch(), 1);
    assert!(service.detector().graph().has_edge(0, 21));
}

#[test]
fn torn_checkpoint_writes_are_detected_on_recovery() {
    let config = karate_config();
    let mut service = karate_service(&config);
    service.ingest(&[EdgeEvent::Add { u: 0, v: 20, weight: 1.0 }]).unwrap();
    let intact = service.latest_checkpoint().unwrap().to_string();
    service.inject_faults(FaultPlan::default().with_truncated_checkpoint(intact.len() / 2));
    let torn = service.checkpoint();
    assert!(torn.len() < intact.len(), "the torn write must lose the tail");
    // Recovery from the torn text fails structurally — never a panic, never
    // a silently partial service.
    let err = StreamingService::recover(&torn, &service.journal_log(), config.clone()).unwrap_err();
    assert!(matches!(err, StreamError::Checkpoint { .. }), "got {err:?}");
    // The truncation fault fires once: the next checkpoint is intact again
    // and recovery round-trips bit-exactly.
    let healed = service.checkpoint();
    assert_eq!(healed, intact);
    let recovered = StreamingService::recover(&healed, &service.journal_log(), config).unwrap();
    assert_eq!(recovered.epoch(), service.epoch());
}

#[test]
fn queue_full_storms_lose_and_reorder_nothing() {
    let plan = FaultPlan::from_seed(0xD1CE);
    let bursts: Vec<usize> =
        if plan.storm_bursts.is_empty() { vec![12, 7, 16] } else { plan.storm_bursts.clone() };
    let mut config = karate_config();
    config.queue_capacity = 8;
    let mut service = karate_service(&config);
    let client = service.client();
    // Each burst adds then removes a sentinel edge repeatedly; only an exact
    // in-order application leaves the graph back in its start state. The
    // sentinel endpoints are not adjacent to node 0 in the karate graph, so
    // the add really inserts (an add onto an existing edge would merge with
    // it and the paired remove would then delete the original edge).
    let sentinels = [9usize, 14, 15, 16, 18, 20, 22, 23, 24, 25, 26, 27, 28, 29];
    let mut submitted = 0usize;
    let mut applied = 0usize;
    for (b, burst) in bursts.iter().enumerate() {
        let v = sentinels[b % sentinels.len()];
        let mut events = Vec::new();
        for _ in 0..*burst {
            events.push(EdgeEvent::Add { u: 0, v, weight: 1.0 });
            events.push(EdgeEvent::Remove { u: 0, v });
        }
        submitted += events.len();
        for chunk in events.chunks(4) {
            client
                .retry_with_backoff(chunk, &BackoffPolicy::default(), |_| {
                    if let Ok(Some(stats)) = service.step() {
                        applied += stats.events_applied;
                    }
                })
                .unwrap();
        }
    }
    applied += service.drain().unwrap().iter().map(|s| s.events_applied).sum::<usize>();
    assert_eq!(applied, submitted, "storms must not drop events");
    let reference = karate_service(&config);
    assert_eq!(
        service.detector().graph().to_checkpoint_text(),
        reference.detector().graph().to_checkpoint_text(),
        "out-of-order application would leave sentinel edges behind"
    );
}

/// Randomized (but seed-deterministic) sweep: for every seed, drive a fixed
/// event script through a service with the derived fault plan installed.
/// Whatever the plan throws at it, the run must terminate, account for every
/// batch, and recovery must either succeed bit-exactly or fail structurally.
/// Runs under `--ignored` in the nightly CI sweep.
#[test]
#[ignore = "nightly sweep: run with --ignored"]
fn randomized_fault_plan_sweep() {
    'seeds: for seed in 0..48u64 {
        let plan = FaultPlan::from_seed(seed);
        let mut config = karate_config();
        config.quarantine = true;
        let mut service = karate_service(&config);
        let store = CheckpointStore::new();
        service.attach_store(&store);
        service.inject_faults(plan);
        let mut client = service.client();
        let (mut applied, mut dead, mut crashes) = (0u64, 0u64, 0u64);
        // Dead letters recorded on a writer that later crashed die with it —
        // that loss is part of the model, so track them separately.
        let mut letters_lost = 0u64;
        let mut batch_idx = 0usize;
        while batch_idx < 8 {
            let events = [EdgeEvent::Add { u: 0, v: 20 + batch_idx, weight: 1.0 }];
            client.try_submit(&events).unwrap_or_else(|e| panic!("seed {seed}: submit: {e}"));
            match catch_unwind(AssertUnwindSafe(|| service.step())) {
                Ok(Ok(Some(_))) => applied += 1,
                Ok(Ok(None)) => dead += 1,
                Ok(Err(e)) => panic!("seed {seed}: quarantine must absorb errors, got {e}"),
                Err(_) => {
                    // Writer death. The supervisor path: drop the dead
                    // service, rebuild from the store, re-drive this batch
                    // (it was drained but neither journaled nor applied).
                    crashes += 1;
                    letters_lost += service.dead_letters().len() as u64;
                    drop(service);
                    match StreamingService::resume_from_store(&store, config.clone()) {
                        Ok(rebuilt) => {
                            service = rebuilt;
                            client = service.client();
                            continue; // retry the same batch, faults now clear
                        }
                        Err(StreamError::Checkpoint { .. }) => {
                            // A torn checkpoint was detected structurally —
                            // a legitimate terminal outcome for this seed.
                            continue 'seeds;
                        }
                        Err(other) => panic!("seed {seed}: unexpected {other}"),
                    }
                }
            }
            batch_idx += 1;
        }
        assert_eq!(applied + dead, 8, "seed {seed}: unaccounted batches");
        assert!(crashes <= 1, "seed {seed}: the panic fault fires at most once");
        assert_eq!(service.epoch(), applied, "seed {seed}: epoch drifted");
        assert_eq!(
            service.dead_letters().len() as u64 + letters_lost,
            dead,
            "seed {seed}: dead letters unaccounted"
        );
        // The store always holds a recoverable state at the end.
        let resumed = StreamingService::resume_from_store(&store, config.clone())
            .unwrap_or_else(|e| panic!("seed {seed}: final resume: {e}"));
        assert_eq!(resumed.epoch(), service.epoch(), "seed {seed}: resume drifted");
    }
}
