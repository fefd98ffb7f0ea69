//! The partition-aligned sharded streaming service.
//!
//! [`ShardedService`] scales the single-writer
//! [`StreamingService`](crate::StreamingService) pattern across shard workers
//! that **own whole communities** (the paper's community structure doubles as
//! the data-placement key):
//!
//! * **Ownership** (`ownership`): every community slot is assigned to a
//!   shard by a deterministic balanced (LPT) assignment over community sizes,
//!   re-derived from scratch whenever the drift-threshold fallback runs a
//!   full re-detect (which renumbers all communities).
//! * **Routing** (`router`): each event of a batch goes to the shard(s)
//!   owning its endpoints' communities under the pre-batch labels; a
//!   cross-shard edge becomes a *boundary entry* replicated to both owners,
//!   primary on the lowest shard id. Merging all primary entries in
//!   `(batch, position)` order reconstructs the exact global journal.
//! * **Two-phase refinement** (`worker`): shard workers propose best moves
//!   for their nodes in parallel against the pass-start state; commits run
//!   sequentially in ascending node order, recomputing any proposal whose
//!   read set a committed move invalidated. The result is **bit-identical to
//!   the unsharded service for any shard count** — partitions, maintained Q
//!   bits, and the base checkpoint bytes (pinned 1/2/8 in `tests/sharded.rs`).
//! * **Per-shard checkpointing** (`recovery`): a checkpoint is a manifest
//!   embedding the unsharded [`ServiceCheckpoint`] text plus one slice per
//!   shard (owned communities, their Σ bits, the shard's journal), each
//!   FNV-1a checksummed. [`ShardedService::recover`] validates every slice
//!   (missing, mismatched, or reordered slices are rejected with the shard
//!   named), merges the primary entries back into the global journal, and
//!   replays — bit-identically — from the base offset.
//! * **Fault containment**: under the `fault-injection` feature, a
//!   `FaultPlan` shard-kill panics one worker at a chosen batch. The panic is
//!   isolated; the shard degrades to read-only (batches routed to it are
//!   rejected atomically with [`StreamError::ShardUnavailable`]) while
//!   survivors keep ingesting.
//!
//! Routing and ownership never influence refinement decisions; they only
//! decide journal placement, fault domains and checkpoint slicing. That is
//! what makes the shard count a pure deployment knob rather than a semantic
//! one.

pub(crate) mod ownership;
pub(crate) mod recovery;
pub(crate) mod router;
pub(crate) mod worker;

pub use recovery::ShardManifest;

use crate::checkpoint::{EventJournal, ServiceCheckpoint};
use crate::service::{validate_batch, EventQueue, ServiceClient};
use crate::snapshot::{PartitionSnapshot, SnapshotPublisher, SnapshotReader};
use crate::{StreamConfig, StreamError, StreamStats, StreamingDetector};
use ownership::OwnershipTable;
use qhdcd_graph::{DynamicGraph, EdgeEvent};
use router::{route_batch, RoutedBatch, ShardJournalEntry};
use std::sync::Arc;
use std::time::Duration;
use worker::{ShardWorker, TwoPhaseDriver};

/// Configuration of a [`ShardedService`].
#[derive(Debug, Clone)]
pub struct ShardedConfig {
    /// Number of shard workers. Must be positive. `1` behaves exactly like
    /// the unsharded service (and every other count is pinned bit-identical
    /// to it; shards only change parallelism and fault domains).
    pub shards: usize,
    /// Configuration of the underlying [`StreamingDetector`].
    pub stream: StreamConfig,
    /// Capacity of the bounded ingestion queue, in events. Must be positive.
    /// [`ShardedService::step`] drains everything queued (up to this bound)
    /// as one batch.
    pub queue_capacity: usize,
    /// Automatically refresh [`ShardedService::latest_checkpoint`] every this
    /// many applied batches; `0` disables automatic checkpoints.
    pub checkpoint_every: u64,
}

impl Default for ShardedConfig {
    fn default() -> Self {
        ShardedConfig {
            shards: 2,
            stream: StreamConfig::default(),
            queue_capacity: 1024,
            checkpoint_every: 0,
        }
    }
}

impl ShardedConfig {
    /// Returns a copy with the given seed on the fallback detector.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.stream = self.stream.with_seed(seed);
        self
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`StreamError::InvalidConfig`] for a zero shard count or queue
    /// capacity, and propagates [`StreamConfig::validate`] errors.
    pub fn validate(&self) -> Result<(), StreamError> {
        self.stream.validate()?;
        if self.shards == 0 {
            return Err(StreamError::InvalidConfig { reason: "shards must be > 0".into() });
        }
        if self.queue_capacity == 0 {
            return Err(StreamError::InvalidConfig { reason: "queue_capacity must be > 0".into() });
        }
        Ok(())
    }
}

/// A sharded streaming community-detection service. See the module docs for
/// the architecture and the determinism contract.
///
/// # Example
///
/// ```
/// use qhdcd_graph::{generators, DynamicGraph, EdgeEvent};
/// use qhdcd_stream::{ShardedConfig, ShardedService};
///
/// # fn main() -> Result<(), qhdcd_stream::StreamError> {
/// let graph = DynamicGraph::from_graph(&generators::karate_club());
/// let mut service = ShardedService::new(
///     graph,
///     ShardedConfig { shards: 4, ..ShardedConfig::default() }.with_seed(1),
/// )?;
/// service.ingest(&[EdgeEvent::Add { u: 0, v: 33, weight: 1.0 }])?;
/// assert_eq!(service.epoch(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct ShardedService {
    detector: StreamingDetector,
    config: ShardedConfig,
    ownership: OwnershipTable,
    workers: Vec<ShardWorker>,
    queue: Arc<EventQueue>,
    publisher: SnapshotPublisher,
    journal: EventJournal,
    epoch: u64,
    latest_checkpoint: Option<String>,
    #[cfg(feature = "fault-injection")]
    faults: crate::faults::FaultPlan,
}

impl Drop for ShardedService {
    /// Closes the ingestion queue so blocked submitters wake with
    /// [`StreamError::ServiceClosed`] (same contract as the unsharded
    /// service).
    fn drop(&mut self) {
        self.queue.close();
    }
}

impl ShardedService {
    /// Creates a sharded service, running the configured detector once to
    /// obtain the initial partition (published as epoch 0) and deriving the
    /// initial community ownership from it.
    ///
    /// # Errors
    ///
    /// Same as [`StreamingDetector::new`], plus [`StreamError::InvalidConfig`]
    /// for invalid sharded parameters.
    pub fn new(graph: DynamicGraph, config: ShardedConfig) -> Result<Self, StreamError> {
        config.validate()?;
        let detector = StreamingDetector::new(graph, config.stream.clone())?;
        Ok(Self::assemble(detector, config, EventJournal::new(), 0, None, None, None))
    }

    /// Creates a sharded service around an existing detector.
    ///
    /// # Errors
    ///
    /// Returns [`StreamError::InvalidConfig`] for invalid sharded parameters.
    pub fn from_detector(
        detector: StreamingDetector,
        config: ShardedConfig,
    ) -> Result<Self, StreamError> {
        config.validate()?;
        Ok(Self::assemble(detector, config, EventJournal::new(), 0, None, None, None))
    }

    fn assemble(
        detector: StreamingDetector,
        config: ShardedConfig,
        journal: EventJournal,
        epoch: u64,
        latest_checkpoint: Option<String>,
        ownership: Option<OwnershipTable>,
        workers: Option<Vec<ShardWorker>>,
    ) -> Self {
        let ownership = ownership.unwrap_or_else(|| {
            OwnershipTable::derive(detector.labels(), detector.sigma_tot().len(), config.shards)
        });
        let workers = workers.unwrap_or_else(|| vec![ShardWorker::default(); config.shards]);
        let snapshot = Self::build_snapshot(&detector, epoch);
        let (publisher, _) = SnapshotPublisher::new(snapshot);
        let queue = Arc::new(EventQueue::new(config.queue_capacity));
        ShardedService {
            detector,
            config,
            ownership,
            workers,
            queue,
            publisher,
            journal,
            epoch,
            latest_checkpoint,
            #[cfg(feature = "fault-injection")]
            faults: crate::faults::FaultPlan::default(),
        }
    }

    fn build_snapshot(detector: &StreamingDetector, epoch: u64) -> PartitionSnapshot {
        PartitionSnapshot::new(
            epoch,
            detector.graph().snapshot(),
            detector.partition().labels().to_vec(),
            detector.modularity(),
        )
    }

    /// A new client handle (submission + lock-free snapshot reads).
    pub fn client(&self) -> ServiceClient {
        ServiceClient::from_parts(Arc::clone(&self.queue), self.publisher.reader())
    }

    /// A new read-only handle onto the snapshot chain.
    pub fn reader(&self) -> SnapshotReader {
        self.publisher.reader()
    }

    /// The most recently published snapshot.
    pub fn latest_snapshot(&self) -> Arc<PartitionSnapshot> {
        self.publisher.latest()
    }

    /// The current epoch (number of applied batches, carried across
    /// recovery).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The underlying detector (read-only).
    pub fn detector(&self) -> &StreamingDetector {
        &self.detector
    }

    /// The global event journal (identical to the unsharded service's journal
    /// over the same batches).
    pub fn journal(&self) -> &EventJournal {
        &self.journal
    }

    /// The global journal serialized as a timestamped event log.
    pub fn journal_log(&self) -> String {
        self.journal.to_event_log()
    }

    /// Number of shard workers.
    pub fn num_shards(&self) -> usize {
        self.config.shards
    }

    /// The shard owning community slot `community` (slots index the
    /// detector's aggregate vectors).
    pub fn owner_of_community(&self, community: usize) -> usize {
        self.ownership.owner(community)
    }

    /// Whether `shard` has panicked and degraded to read-only.
    pub fn shard_is_dead(&self, shard: usize) -> bool {
        self.workers[shard].dead
    }

    /// One shard's journal slice, serialized one entry per line (the format
    /// is defined by the `router` module).
    pub fn shard_journal_log(&self, shard: usize) -> String {
        self.workers[shard].journal_log()
    }

    /// Every shard's journal slice, in shard order — the second recovery
    /// input next to the manifest.
    pub fn shard_journal_logs(&self) -> Vec<String> {
        self.workers.iter().map(ShardWorker::journal_log).collect()
    }

    /// Installs a deterministic fault plan (feature `fault-injection` only).
    /// The sharded service honours the shard-kill class
    /// ([`FaultPlan::kill_shard_at`](crate::faults::FaultPlan::kill_shard_at));
    /// other fault classes target the unsharded service.
    #[cfg(feature = "fault-injection")]
    pub fn inject_faults(&mut self, faults: crate::faults::FaultPlan) {
        self.faults = faults;
    }

    /// Applies one batch synchronously: validate atomically, route to the
    /// owning shards, refine through the two-phase driver, journal globally
    /// and per shard, publish the next epoch, and refresh the automatic
    /// checkpoint when due. An empty batch is a no-op.
    ///
    /// # Errors
    ///
    /// * [`StreamError::EventFailed`] if validation rejects the batch
    ///   (nothing applied).
    /// * [`StreamError::ShardUnavailable`] if the batch routes to a dead
    ///   shard (nothing applied; submit batches touching only live shards'
    ///   communities, or recover).
    /// * [`StreamError::Detect`] if a full re-detect fails.
    pub fn ingest(&mut self, events: &[EdgeEvent]) -> Result<StreamStats, StreamError> {
        if events.is_empty() {
            let q = self.detector.modularity();
            return Ok(StreamStats {
                events_applied: 0,
                frontier_size: 0,
                nodes_moved: 0,
                refine_passes: 0,
                full_redetect: false,
                modularity_before: q,
                modularity: q,
                modularity_delta: 0.0,
                elapsed: Duration::ZERO,
            });
        }
        validate_batch(self.detector.graph(), events)?;
        // Routing runs on the pre-batch labels and graph — deterministic for
        // a given state and shard count.
        let routed =
            route_batch(events, self.detector.labels(), self.detector.graph(), &self.ownership);
        #[cfg(feature = "fault-injection")]
        if let Some(shard) = self.faults.kills_shard_at(self.epoch + 1) {
            if shard < self.config.shards && !self.workers[shard].dead {
                // The worker panics while picking up the batch; the panic is
                // contained to the shard, which degrades to read-only.
                let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    panic!("injected fault: shard {shard} worker panic at batch {}", self.epoch + 1)
                }));
                debug_assert!(panicked.is_err());
                self.workers[shard].dead = true;
            }
        }
        if let Some(&shard) = routed.owners.iter().find(|&&s| self.workers[s].dead) {
            return Err(StreamError::ShardUnavailable { shard, index: self.epoch + 1 });
        }
        self.apply_batch(events, Some(&routed))
    }

    /// The shared application path: refine through the two-phase driver,
    /// optionally journal (`routed` is `None` during recovery replay, whose
    /// events are already journaled), publish, auto-checkpoint.
    fn apply_batch(
        &mut self,
        events: &[EdgeEvent],
        routed: Option<&RoutedBatch>,
    ) -> Result<StreamStats, StreamError> {
        let dead: Vec<bool> = self.workers.iter().map(|w| w.dead).collect();
        let mut driver = TwoPhaseDriver::new(&self.ownership, &dead);
        let stats = self.detector.apply_events_with(events, &mut driver)?;
        let rederived = driver.rederived.take();
        drop(driver);
        if let Some(ownership) = rederived {
            self.ownership = ownership;
        }
        if let Some(routed) = routed {
            let batch_index = self.journal.num_batches() as u64;
            self.journal.record_batch(events);
            for (shard, entries) in routed.per_shard.iter().enumerate() {
                for &(pos, primary) in entries {
                    self.workers[shard].entries.push(ShardJournalEntry {
                        batch: batch_index,
                        pos,
                        primary,
                        event: events[pos],
                    });
                }
            }
        }
        self.epoch += 1;
        self.publisher.publish(Self::build_snapshot(&self.detector, self.epoch));
        if self.config.checkpoint_every > 0
            && self.detector.batches_applied().is_multiple_of(self.config.checkpoint_every)
        {
            self.checkpoint();
        }
        Ok(stats)
    }

    /// Drains everything queued (in submission order, up to the queue
    /// capacity) and applies it as one batch. Returns `Ok(None)` when the
    /// queue is empty.
    ///
    /// # Errors
    ///
    /// Same as [`ShardedService::ingest`]; a failing batch is dropped from
    /// the queue as a whole with no state change.
    pub fn step(&mut self) -> Result<Option<StreamStats>, StreamError> {
        let batch = self.queue.drain_batch(self.config.queue_capacity);
        if batch.is_empty() {
            return Ok(None);
        }
        self.ingest(&batch).map(Some)
    }

    /// Applies queued events until the queue is empty.
    ///
    /// # Errors
    ///
    /// Stops at and returns the first batch error.
    pub fn drain(&mut self) -> Result<Vec<StreamStats>, StreamError> {
        let mut all = Vec::new();
        while let Some(stats) = self.step()? {
            all.push(stats);
        }
        Ok(all)
    }

    /// Cuts a sharded checkpoint at the current batch boundary: a
    /// [`ShardManifest`] whose base section is **byte-for-byte** the
    /// checkpoint the unsharded service would cut from the same state, plus
    /// one slice per shard (owned communities, their Σ bits, the shard's
    /// journal entries). Stored as [`ShardedService::latest_checkpoint`] and
    /// returned as text. Recovery needs this text plus the per-shard journal
    /// logs ([`ShardedService::shard_journal_logs`]) from the same or a later
    /// moment.
    pub fn checkpoint(&mut self) -> String {
        let (graph, labels, sigma_tot, sigma_in, drift, batches, full_redetects) =
            self.detector.checkpoint_parts();
        let base = ServiceCheckpoint {
            epoch: self.epoch,
            events_applied: self.journal.len(),
            batches,
            full_redetects,
            quality: self.detector.config().quality(),
            drift,
            labels: labels.to_vec(),
            sigma_tot: sigma_tot.to_vec(),
            sigma_in: sigma_in.to_vec(),
            graph: graph.clone(),
        };
        let slices = (0..self.config.shards)
            .map(|shard| {
                let owned = self.ownership.owned(shard);
                let sigma_bits = owned.iter().map(|&slot| sigma_tot[slot].to_bits()).collect();
                recovery::ShardSlice {
                    id: shard,
                    owned,
                    sigma_bits,
                    entries: self.workers[shard].entries.clone(),
                }
            })
            .collect();
        let manifest = ShardManifest {
            shards: self.config.shards,
            epoch: self.epoch,
            base_text: base.to_text(),
            slices,
        };
        let text = manifest.to_text();
        self.latest_checkpoint = Some(text.clone());
        text
    }

    /// The most recent checkpoint manifest (manual or automatic), if any.
    pub fn latest_checkpoint(&self) -> Option<&str> {
        self.latest_checkpoint.as_deref()
    }

    /// Rebuilds a sharded service from a checkpoint manifest and every
    /// shard's journal log, replaying journaled batches past the base offset.
    /// The recovered service is **bit-identical** to the uninterrupted run:
    /// partition, maintained quality bits, counters, epoch, ownership,
    /// journals — and its next checkpoint's base bytes.
    ///
    /// All shards come back alive (a shard killed by fault injection is an
    /// in-memory condition, not a persisted one).
    ///
    /// # Errors
    ///
    /// * [`StreamError::Manifest`] for malformed or mismatched manifests:
    ///   missing/reordered/corrupted slices, slices whose Σ bits disagree
    ///   with the base checkpoint, shard journals that do not extend their
    ///   manifest slice, or primary entries that do not reassemble into
    ///   contiguous batches (errors name the offending shard and, for offset
    ///   problems, the containing journal batch).
    /// * [`StreamError::Checkpoint`] for a corrupt base section or a quality
    ///   function mismatch.
    /// * Any replay error (indicates edited journals).
    pub fn recover(
        manifest_text: &str,
        shard_journal_logs: &[String],
        config: ShardedConfig,
    ) -> Result<Self, StreamError> {
        config.validate()?;
        let manifest = ShardManifest::from_text(manifest_text)?;
        if manifest.shards != config.shards {
            return Err(StreamError::Manifest {
                line: 3,
                reason: format!(
                    "manifest was cut with {} shards but the recovery config has {}",
                    manifest.shards, config.shards
                ),
            });
        }
        if shard_journal_logs.len() != config.shards {
            return Err(StreamError::Manifest {
                line: 0,
                reason: format!(
                    "{} shard journal logs provided for {} shards",
                    shard_journal_logs.len(),
                    config.shards
                ),
            });
        }
        let base = ServiceCheckpoint::from_text(manifest.base_text())?;
        if base.quality != config.stream.quality() {
            return Err(StreamError::Checkpoint {
                line: 0,
                reason: format!(
                    "checkpoint was cut under {:?} but the recovery config maintains {:?}",
                    base.quality,
                    config.stream.quality()
                ),
            });
        }
        let num_slots = base.sigma_tot.len();
        let owned_lists: Vec<Vec<usize>> =
            manifest.slices.iter().map(|s| s.owned.clone()).collect();
        let ownership = OwnershipTable::from_owned_lists(&owned_lists, num_slots)?;
        for slice in &manifest.slices {
            for (&slot, &bits) in slice.owned.iter().zip(&slice.sigma_bits) {
                if base.sigma_tot[slot].to_bits() != bits {
                    return Err(StreamError::Manifest {
                        line: 0,
                        reason: format!(
                            "slice of shard {} disagrees with the base checkpoint on the \
                             aggregate of community {slot} (stale or mismatched slice)",
                            slice.id
                        ),
                    });
                }
            }
        }
        // Parse the full per-shard logs and check each extends its manifest
        // slice (the logs may run past the checkpoint; never behind it).
        let mut full_logs: Vec<Vec<ShardJournalEntry>> = Vec::with_capacity(config.shards);
        for (shard, log) in shard_journal_logs.iter().enumerate() {
            let entries = router::parse_shard_log(log)?;
            let slice = &manifest.slices[shard];
            if entries.len() < slice.entries.len()
                || entries[..slice.entries.len()] != slice.entries[..]
            {
                return Err(StreamError::Manifest {
                    line: 0,
                    reason: format!(
                        "journal log of shard {shard} is not an extension of its manifest slice \
                         ({} logged vs {} checkpointed entries)",
                        entries.len(),
                        slice.entries.len()
                    ),
                });
            }
            full_logs.push(entries);
        }
        let journal = merge_primary_entries(&full_logs)?;
        if base.events_applied > journal.len() {
            return Err(StreamError::Manifest {
                line: 0,
                reason: format!(
                    "checkpoint offset {} is beyond the {}-event merged journal \
                     ({} batches journaled)",
                    base.events_applied,
                    journal.len(),
                    journal.num_batches()
                ),
            });
        }
        if !journal.is_batch_boundary(base.events_applied) {
            return Err(StreamError::Manifest {
                line: 0,
                reason: format!(
                    "checkpoint offset {} is not a batch boundary of the {}-event merged \
                     journal (it falls inside journaled batch {})",
                    base.events_applied,
                    journal.len(),
                    journal.containing_batch(base.events_applied)
                ),
            });
        }
        let detector = StreamingDetector::from_checkpoint_parts(
            base.graph,
            base.labels,
            base.sigma_tot,
            base.sigma_in,
            base.drift,
            base.batches,
            base.full_redetects,
            config.stream.clone(),
        )?;
        let workers: Vec<ShardWorker> =
            full_logs.into_iter().map(|entries| ShardWorker { entries, dead: false }).collect();
        let offset = base.events_applied;
        let mut service = Self::assemble(
            detector,
            config,
            journal,
            base.epoch,
            Some(manifest_text.to_string()),
            Some(ownership),
            Some(workers),
        );
        let replay: Vec<Vec<EdgeEvent>> =
            service.journal.batches_from(offset).map(<[EdgeEvent]>::to_vec).collect();
        for batch in replay {
            service.apply_batch(&batch, None)?;
        }
        Ok(service)
    }
}

/// Merges every shard's **primary** entries back into the global journal:
/// sorted by `(batch, position)`, each batch's positions must be contiguous
/// from zero — a missing primary entry (lost shard log) is detected here.
fn merge_primary_entries(logs: &[Vec<ShardJournalEntry>]) -> Result<EventJournal, StreamError> {
    let mut primaries: Vec<&ShardJournalEntry> =
        logs.iter().flatten().filter(|e| e.primary).collect();
    primaries.sort_by_key(|e| (e.batch, e.pos));
    let mut journal = EventJournal::new();
    let mut batch_events: Vec<EdgeEvent> = Vec::new();
    let mut current_batch = 0u64;
    let flush = |journal: &mut EventJournal, events: &mut Vec<EdgeEvent>| {
        journal.record_batch(events);
        events.clear();
    };
    for entry in primaries {
        if entry.batch != current_batch {
            if entry.batch != current_batch + 1 || batch_events.is_empty() {
                return Err(StreamError::Manifest {
                    line: 0,
                    reason: format!(
                        "merged shard journals skip from batch {current_batch} to batch {} — a \
                         primary entry (and its shard's log) is missing",
                        entry.batch
                    ),
                });
            }
            flush(&mut journal, &mut batch_events);
            current_batch = entry.batch;
        }
        if entry.pos != batch_events.len() {
            return Err(StreamError::Manifest {
                line: 0,
                reason: format!(
                    "merged shard journals miss position {} of batch {} (found position {}) — a \
                     primary entry is missing",
                    batch_events.len(),
                    entry.batch,
                    entry.pos
                ),
            });
        }
        batch_events.push(entry.event);
    }
    if !batch_events.is_empty() {
        flush(&mut journal, &mut batch_events);
    }
    Ok(journal)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qhdcd_graph::generators;

    fn karate_sharded(shards: usize) -> ShardedService {
        let graph = DynamicGraph::from_graph(&generators::karate_club());
        let detector = StreamingDetector::from_partition(
            graph,
            generators::karate_club_communities(),
            StreamConfig::default(),
        )
        .unwrap();
        ShardedService::from_detector(
            detector,
            ShardedConfig { shards, ..ShardedConfig::default() },
        )
        .unwrap()
    }

    #[test]
    fn config_validation() {
        assert!(ShardedConfig::default().validate().is_ok());
        assert!(ShardedConfig { shards: 0, ..Default::default() }.validate().is_err());
        assert!(ShardedConfig { queue_capacity: 0, ..Default::default() }.validate().is_err());
        let bad = StreamConfig { frontier_fraction: 0.0, ..Default::default() };
        assert!(ShardedConfig { stream: bad, ..Default::default() }.validate().is_err());
    }

    #[test]
    fn ingest_routes_journals_and_publishes() {
        let mut service = karate_sharded(2);
        assert_eq!(service.latest_snapshot().epoch(), 0);
        service.ingest(&[EdgeEvent::Add { u: 0, v: 33, weight: 1.0 }]).unwrap();
        assert_eq!(service.epoch(), 1);
        assert_eq!(service.journal().len(), 1);
        // The event was journaled on at least one shard, with exactly one
        // primary entry across all shards.
        let logs = service.shard_journal_logs();
        let primaries: usize = logs.iter().map(|log| log.matches(" p ").count()).sum();
        assert_eq!(primaries, 1);
        // Empty batches are no-ops.
        service.ingest(&[]).unwrap();
        assert_eq!(service.epoch(), 1);
    }

    #[test]
    fn queue_driven_steps_apply_in_submission_order() {
        let mut service = karate_sharded(3);
        let client = service.client();
        client
            .try_submit(&[
                EdgeEvent::Add { u: 0, v: 20, weight: 1.0 },
                EdgeEvent::Update { u: 0, v: 20, weight: 2.0 },
            ])
            .unwrap();
        let stats = service.step().unwrap().unwrap();
        assert_eq!(stats.events_applied, 2);
        assert!(service.step().unwrap().is_none());
        assert_eq!(client.queued(), 0);
    }

    #[test]
    fn merged_primaries_reconstruct_the_global_journal() {
        let mut service = karate_sharded(4);
        let batches: Vec<Vec<EdgeEvent>> = vec![
            vec![EdgeEvent::Add { u: 0, v: 33, weight: 1.0 }],
            vec![EdgeEvent::Add { u: 1, v: 20, weight: 0.5 }, EdgeEvent::Remove { u: 0, v: 33 }],
            vec![EdgeEvent::RemoveNode { u: 5 }],
        ];
        for batch in &batches {
            service.ingest(batch).unwrap();
        }
        let logs: Vec<Vec<ShardJournalEntry>> = service
            .shard_journal_logs()
            .iter()
            .map(|log| router::parse_shard_log(log).unwrap())
            .collect();
        let merged = merge_primary_entries(&logs).unwrap();
        assert_eq!(&merged, service.journal());
    }

    #[test]
    fn stale_slices_fail_the_sigma_cross_check() {
        let mut service = karate_sharded(2);
        service.ingest(&[EdgeEvent::Add { u: 0, v: 33, weight: 1.0 }]).unwrap();
        let logs = service.shard_journal_logs();
        let mut manifest = ShardManifest::from_text(&service.checkpoint()).unwrap();
        // Tamper one owned slot's Σ bits: the slice now claims an aggregate
        // the base checkpoint does not have — a stale or foreign slice.
        let slice = manifest.slices.iter_mut().find(|s| !s.owned.is_empty()).unwrap();
        let shard = slice.id;
        slice.sigma_bits[0] ^= 1;
        let err = ShardedService::recover(
            &manifest.to_text(),
            &logs,
            ShardedConfig { shards: 2, ..ShardedConfig::default() },
        )
        .unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains(&format!("shard {shard}")) && msg.contains("disagrees"), "{msg}");
    }

    #[test]
    fn missing_primary_entries_are_detected_on_merge() {
        let mut service = karate_sharded(2);
        service.ingest(&[EdgeEvent::Add { u: 0, v: 33, weight: 1.0 }]).unwrap();
        service.ingest(&[EdgeEvent::Add { u: 1, v: 20, weight: 1.0 }]).unwrap();
        let mut logs: Vec<Vec<ShardJournalEntry>> = service
            .shard_journal_logs()
            .iter()
            .map(|log| router::parse_shard_log(log).unwrap())
            .collect();
        // Drop every primary entry of batch 0: the merge must notice the gap.
        for log in &mut logs {
            log.retain(|e| !(e.primary && e.batch == 0));
        }
        let err = merge_primary_entries(&logs).unwrap_err();
        assert!(err.to_string().contains("missing"), "{err}");
    }
}
