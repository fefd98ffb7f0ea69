//! The concurrent streaming service: one mutating writer, lock-free readers,
//! bounded ingestion, and checkpoint/replay crash recovery.
//!
//! [`StreamingService`] wraps a [`StreamingDetector`] (the single writer) and
//! separates the three concerns a long-running deployment needs:
//!
//! * **Lock-free reads.** Every applied batch publishes a new epoch — an
//!   immutable [`PartitionSnapshot`] appended to a publication chain (see
//!   [`crate::snapshot`]). Any number of
//!   [`ServiceClient`]s / [`SnapshotReader`]s serve point queries from the
//!   latest epoch with atomic loads only, while the writer refines the next
//!   batch.
//! * **Bounded ingestion with backpressure.** Clients enqueue events into a
//!   bounded queue. [`ServiceClient::try_submit`] fails fast with
//!   [`StreamError::Backpressure`] when the batch does not fit;
//!   [`ServiceClient::submit`] blocks until the writer drains room. Events
//!   are applied strictly in submission order — the backpressure tests pin
//!   that a fill/drain cycle loses and reorders nothing.
//! * **Checkpoint / replay recovery.** Every applied batch is appended to an
//!   [`EventJournal`]; [`StreamingService::checkpoint`] freezes the full
//!   detector state bit-exactly (see [`crate::checkpoint`]).
//!   [`StreamingService::recover`] rebuilds a service from a checkpoint and
//!   the journal, replaying post-checkpoint batches with their original
//!   boundaries — the recovered partition, modularity bits, counters and
//!   epoch are **bit-identical** to the uninterrupted run.
//!
//! Batches are validated *atomically* before application: a batch that would
//! fail mid-way (out-of-range endpoint, missing edge, invalid weight) is
//! rejected as a whole and mutates nothing, so the journal always mirrors the
//! applied state exactly — a prefix-applied batch would otherwise diverge
//! from its journal entry and break replay.

use crate::checkpoint::{EventJournal, ServiceCheckpoint};
use crate::snapshot::{PartitionSnapshot, SnapshotPublisher, SnapshotReader};
use crate::{StreamConfig, StreamError, StreamStats, StreamingDetector};
use qhdcd_graph::{DynamicGraph, EdgeEvent, GraphError};
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// Configuration of a [`StreamingService`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Configuration of the underlying [`StreamingDetector`].
    pub stream: StreamConfig,
    /// Capacity of the bounded ingestion queue, in events. Must be positive.
    pub queue_capacity: usize,
    /// Maximum number of queued events drained into one detector batch by
    /// [`StreamingService::step`]. Must be positive.
    pub max_batch: usize,
    /// Automatically refresh [`StreamingService::latest_checkpoint`] every
    /// this many applied batches; `0` disables automatic checkpoints
    /// (checkpoints are then cut manually via
    /// [`StreamingService::checkpoint`]).
    pub checkpoint_every: u64,
    /// Poisoned-batch quarantine. `0` (the default) keeps the fail-fast
    /// contract: a batch failing validation is dropped and the error returned
    /// to the caller of [`StreamingService::step`]. With `n > 0`, a drained
    /// batch is validated up to `n` times; one that never passes is moved to
    /// the [dead-letter log](StreamingService::dead_letters) and *skipped*, so
    /// a single poisoned batch can never wedge the queue or kill the writer
    /// loop.
    pub max_validation_attempts: u32,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            stream: StreamConfig::default(),
            queue_capacity: 1024,
            max_batch: 256,
            checkpoint_every: 0,
            max_validation_attempts: 0,
        }
    }
}

impl ServiceConfig {
    /// Returns a copy with the given seed on the fallback detector.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.stream = self.stream.with_seed(seed);
        self
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`StreamError::InvalidConfig`] for a zero queue capacity or
    /// batch size, and propagates [`StreamConfig::validate`] errors.
    pub fn validate(&self) -> Result<(), StreamError> {
        self.stream.validate()?;
        if self.queue_capacity == 0 {
            return Err(StreamError::InvalidConfig { reason: "queue_capacity must be > 0".into() });
        }
        if self.max_batch == 0 {
            return Err(StreamError::InvalidConfig { reason: "max_batch must be > 0".into() });
        }
        Ok(())
    }
}

/// The queue contents guarded by the mutex (events plus the closed flag).
#[derive(Debug)]
struct QueueState {
    events: VecDeque<EdgeEvent>,
    closed: bool,
}

/// The bounded ingestion queue shared between clients and the writer.
///
/// `depth` mirrors `events.len()` so that clients can probe backpressure
/// without taking the lock; the mutex guards only enqueue/dequeue, never the
/// snapshot read path. Shared with the sharded service, which reuses the same
/// queue/client machinery around its own writer.
#[derive(Debug)]
pub(crate) struct EventQueue {
    state: Mutex<QueueState>,
    depth: AtomicUsize,
    capacity: usize,
    /// Signalled when the writer frees queue space (or the service closes).
    space: Condvar,
    /// Signalled when events arrive (or the service closes).
    items: Condvar,
}

impl EventQueue {
    pub(crate) fn new(capacity: usize) -> Self {
        EventQueue {
            state: Mutex::new(QueueState { events: VecDeque::new(), closed: false }),
            depth: AtomicUsize::new(0),
            capacity,
            space: Condvar::new(),
            items: Condvar::new(),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, QueueState> {
        self.state.lock().expect("ingestion queue mutex poisoned")
    }

    /// Marks the queue closed and wakes every blocked submitter and the
    /// writer loop. Used by [`ServiceClient::close`] and by the service's
    /// [`Drop`] — the latter is what turns a dead writer (panicked thread,
    /// dropped service) into prompt [`StreamError::ServiceClosed`] errors for
    /// blocked [`ServiceClient::submit`] callers instead of a deadlock.
    pub(crate) fn close(&self) {
        let mut state = self.lock();
        state.closed = true;
        drop(state);
        self.items.notify_all();
        self.space.notify_all();
    }

    /// Drains up to `max` queued events in submission order and wakes blocked
    /// submitters when space was freed — the writer-loop dequeue shared by the
    /// unsharded and sharded services.
    pub(crate) fn drain_batch(&self, max: usize) -> Vec<EdgeEvent> {
        let mut state = self.lock();
        let take = state.events.len().min(max);
        let batch: Vec<EdgeEvent> = state.events.drain(..take).collect();
        self.depth.store(state.events.len(), Ordering::Release);
        drop(state);
        if !batch.is_empty() {
            self.space.notify_all();
        }
        batch
    }
}

/// A cloneable client handle: submits events into the bounded queue and reads
/// the latest published snapshot lock-free.
#[derive(Debug, Clone)]
pub struct ServiceClient {
    queue: Arc<EventQueue>,
    reader: SnapshotReader,
}

impl ServiceClient {
    /// Assembles a client from its parts (used by the sharded service, which
    /// shares the queue/snapshot machinery).
    pub(crate) fn from_parts(queue: Arc<EventQueue>, reader: SnapshotReader) -> Self {
        ServiceClient { queue, reader }
    }

    /// Enqueues `events` if the whole batch fits, never blocking.
    ///
    /// # Errors
    ///
    /// * [`StreamError::Backpressure`] if the queue cannot hold the batch
    ///   right now (retry after the writer drains) — also, unconditionally,
    ///   for a batch larger than the queue capacity.
    /// * [`StreamError::ServiceClosed`] after [`ServiceClient::close`].
    pub fn try_submit(&self, events: &[EdgeEvent]) -> Result<(), StreamError> {
        let mut state = self.queue.lock();
        if state.closed {
            return Err(StreamError::ServiceClosed);
        }
        if state.events.len() + events.len() > self.queue.capacity {
            return Err(StreamError::Backpressure {
                queued: state.events.len(),
                capacity: self.queue.capacity,
            });
        }
        state.events.extend(events.iter().cloned());
        self.queue.depth.store(state.events.len(), Ordering::Release);
        drop(state);
        self.queue.items.notify_all();
        Ok(())
    }

    /// Enqueues `events`, blocking while the queue is full until the writer
    /// frees enough space.
    ///
    /// # Errors
    ///
    /// * [`StreamError::Backpressure`] for a batch larger than the queue
    ///   capacity (it could never fit, so blocking would deadlock).
    /// * [`StreamError::ServiceClosed`] if the service closes before the
    ///   batch is accepted.
    pub fn submit(&self, events: &[EdgeEvent]) -> Result<(), StreamError> {
        if events.len() > self.queue.capacity {
            return Err(StreamError::Backpressure { queued: 0, capacity: self.queue.capacity });
        }
        let mut state = self.queue.lock();
        loop {
            if state.closed {
                return Err(StreamError::ServiceClosed);
            }
            if state.events.len() + events.len() <= self.queue.capacity {
                state.events.extend(events.iter().cloned());
                self.queue.depth.store(state.events.len(), Ordering::Release);
                drop(state);
                self.queue.items.notify_all();
                return Ok(());
            }
            state = self.queue.space.wait(state).expect("ingestion queue mutex poisoned");
        }
    }

    /// Enqueues `events`, blocking at most `timeout` for the writer to free
    /// enough space.
    ///
    /// # Errors
    ///
    /// * [`StreamError::Backpressure`] for a batch larger than the queue
    ///   capacity (it could never fit, so waiting would be pointless).
    /// * [`StreamError::SubmitTimeout`] if the timeout elapses with the batch
    ///   still not accepted.
    /// * [`StreamError::ServiceClosed`] if the service closes before the
    ///   batch is accepted.
    pub fn submit_timeout(
        &self,
        events: &[EdgeEvent],
        timeout: Duration,
    ) -> Result<(), StreamError> {
        if events.len() > self.queue.capacity {
            return Err(StreamError::Backpressure { queued: 0, capacity: self.queue.capacity });
        }
        let deadline = std::time::Instant::now() + timeout;
        let mut state = self.queue.lock();
        loop {
            if state.closed {
                return Err(StreamError::ServiceClosed);
            }
            if state.events.len() + events.len() <= self.queue.capacity {
                state.events.extend(events.iter().cloned());
                self.queue.depth.store(state.events.len(), Ordering::Release);
                drop(state);
                self.queue.items.notify_all();
                return Ok(());
            }
            let remaining = deadline.saturating_duration_since(std::time::Instant::now());
            if remaining.is_zero() {
                return Err(StreamError::SubmitTimeout {
                    queued: state.events.len(),
                    capacity: self.queue.capacity,
                });
            }
            let (guard, _timed_out) = self
                .queue
                .space
                .wait_timeout(state, remaining)
                .expect("ingestion queue mutex poisoned");
            // Timeouts are re-derived from the deadline at the loop top, so a
            // spurious wakeup never extends the wait.
            state = guard;
        }
    }

    /// Retries [`ServiceClient::try_submit`] under a deterministic capped
    /// exponential backoff until the batch is accepted, a non-backpressure
    /// error occurs, or the policy's attempts are exhausted (the last
    /// [`StreamError::Backpressure`] is then returned). `sleeper` receives
    /// each computed delay — pass [`std::thread::sleep`] in production or a
    /// recording closure in tests; the delay sequence is a pure function of
    /// the policy, so retry schedules are reproducible.
    pub fn retry_with_backoff(
        &self,
        events: &[EdgeEvent],
        policy: &BackoffPolicy,
        mut sleeper: impl FnMut(Duration),
    ) -> Result<(), StreamError> {
        let attempts = policy.max_attempts.max(1);
        let mut delay = policy.initial_delay;
        let mut result = self.try_submit(events);
        for _ in 1..attempts {
            match result {
                Err(StreamError::Backpressure { .. }) => {
                    sleeper(delay);
                    delay = (delay * 2).min(policy.max_delay);
                    result = self.try_submit(events);
                }
                other => return other,
            }
        }
        result
    }

    /// Closes the service: pending events are still drained by the writer,
    /// but no further submissions are accepted and
    /// [`StreamingService::run_until_closed`] returns once the queue is
    /// empty.
    pub fn close(&self) {
        self.queue.close();
    }

    /// Number of events currently queued (lock-free probe).
    pub fn queued(&self) -> usize {
        self.queue.depth.load(Ordering::Acquire)
    }

    /// Capacity of the bounded queue.
    pub fn capacity(&self) -> usize {
        self.queue.capacity
    }

    /// Whether the queue is at capacity right now (lock-free probe; a
    /// `try_submit` may still fail for batches larger than the free space).
    pub fn is_backpressured(&self) -> bool {
        self.queued() >= self.capacity()
    }

    /// Advances to and returns the latest published snapshot (lock-free).
    pub fn snapshot(&mut self) -> Arc<PartitionSnapshot> {
        self.reader.latest()
    }
}

/// A deterministic capped exponential backoff schedule for
/// [`ServiceClient::retry_with_backoff`]: attempt `k` (0-based) sleeps
/// `min(initial_delay · 2ᵏ, max_delay)` before retrying, for at most
/// `max_attempts` submission attempts in total.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BackoffPolicy {
    /// Delay before the first retry.
    pub initial_delay: Duration,
    /// Upper bound on any single delay.
    pub max_delay: Duration,
    /// Total submission attempts (at least 1; includes the initial try).
    pub max_attempts: u32,
}

impl Default for BackoffPolicy {
    fn default() -> Self {
        BackoffPolicy {
            initial_delay: Duration::from_millis(1),
            max_delay: Duration::from_millis(100),
            max_attempts: 8,
        }
    }
}

/// A batch moved to the dead-letter log by the poisoned-batch quarantine
/// (see [`ServiceConfig::max_validation_attempts`]).
#[derive(Debug, Clone, PartialEq)]
pub struct DeadLetter {
    /// The quarantined batch, in submission order.
    pub batch: Vec<EdgeEvent>,
    /// The validation error of the final attempt.
    pub error: StreamError,
    /// How many validation attempts were made before giving up.
    pub attempts: u32,
}

/// Internal state of a [`CheckpointStore`].
#[derive(Debug, Default)]
struct StoreState {
    checkpoint: Option<String>,
    journal: String,
}

/// A shared, crash-surviving home for the latest checkpoint and journal text.
///
/// The service only keeps its recovery state (`latest_checkpoint`, journal)
/// in fields of its own — state that dies with the writer thread when it
/// panics. Attaching a store ([`StreamingService::attach_store`]) mirrors the
/// checkpoint at every refresh and the journal after every applied batch into
/// this handle, which the supervising side holds on to; after a writer death
/// [`StreamingService::resume_from_store`] rebuilds a bit-identical service
/// from it while existing [`SnapshotReader`]s keep serving the last published
/// epoch (degraded read-only mode).
#[derive(Debug, Clone, Default)]
pub struct CheckpointStore {
    inner: Arc<Mutex<StoreState>>,
}

impl CheckpointStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, StoreState> {
        // A writer panicking *between* store updates leaves the store intact;
        // one panicking *during* an update can poison the mutex — the stored
        // text is still a complete earlier state, so recovery proceeds.
        match self.inner.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// The most recently recorded checkpoint text, if any.
    pub fn latest_checkpoint(&self) -> Option<String> {
        self.lock().checkpoint.clone()
    }

    /// The most recently recorded journal log.
    pub fn journal_log(&self) -> String {
        self.lock().journal.clone()
    }

    fn record_checkpoint(&self, text: &str) {
        self.lock().checkpoint = Some(text.to_string());
    }

    fn record_journal(&self, log: String) {
        self.lock().journal = log;
    }
}

/// A long-running streaming community-detection service. See the module docs
/// for the architecture.
#[derive(Debug)]
pub struct StreamingService {
    detector: StreamingDetector,
    config: ServiceConfig,
    queue: Arc<EventQueue>,
    publisher: SnapshotPublisher,
    journal: EventJournal,
    epoch: u64,
    latest_checkpoint: Option<String>,
    dead_letters: Vec<DeadLetter>,
    store: Option<CheckpointStore>,
    #[cfg(feature = "fault-injection")]
    faults: crate::faults::FaultPlan,
}

impl Drop for StreamingService {
    /// Dropping the service — normally, or while a writer thread unwinds from
    /// a panic — closes the ingestion queue and wakes every blocked
    /// [`ServiceClient::submit`] caller with [`StreamError::ServiceClosed`],
    /// so a dead writer can never strand its submitters. Snapshot readers are
    /// unaffected: the publication chain is independently reference-counted
    /// and keeps serving the last published epoch.
    fn drop(&mut self) {
        self.queue.close();
    }
}

impl StreamingService {
    /// Creates a service, running the configured detector once to obtain the
    /// initial partition, published as epoch 0.
    ///
    /// # Errors
    ///
    /// Same as [`StreamingDetector::new`], plus [`StreamError::InvalidConfig`]
    /// for invalid service parameters.
    pub fn new(graph: DynamicGraph, config: ServiceConfig) -> Result<Self, StreamError> {
        config.validate()?;
        let detector = StreamingDetector::new(graph, config.stream.clone())?;
        Ok(Self::assemble(detector, config, EventJournal::new(), 0, None))
    }

    /// Creates a service around an existing detector (e.g. one seeded with a
    /// known partition), published as epoch 0.
    ///
    /// # Errors
    ///
    /// Returns [`StreamError::InvalidConfig`] for invalid service parameters.
    pub fn from_detector(
        detector: StreamingDetector,
        config: ServiceConfig,
    ) -> Result<Self, StreamError> {
        config.validate()?;
        Ok(Self::assemble(detector, config, EventJournal::new(), 0, None))
    }

    fn assemble(
        detector: StreamingDetector,
        config: ServiceConfig,
        journal: EventJournal,
        epoch: u64,
        latest_checkpoint: Option<String>,
    ) -> Self {
        let snapshot = Self::build_snapshot(&detector, epoch);
        let (publisher, _) = SnapshotPublisher::new(snapshot);
        let queue = Arc::new(EventQueue::new(config.queue_capacity));
        StreamingService {
            detector,
            config,
            queue,
            publisher,
            journal,
            epoch,
            latest_checkpoint,
            dead_letters: Vec::new(),
            store: None,
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

    /// A new client handle (submission + lock-free snapshot reads). Clients
    /// are cheap to clone and safe to move to other threads.
    pub fn client(&self) -> ServiceClient {
        ServiceClient { queue: Arc::clone(&self.queue), reader: self.publisher.reader() }
    }

    /// A new read-only handle onto the snapshot chain.
    pub fn reader(&self) -> SnapshotReader {
        self.publisher.reader()
    }

    /// The most recently published snapshot.
    pub fn latest_snapshot(&self) -> Arc<PartitionSnapshot> {
        self.publisher.latest()
    }

    /// The current epoch (number of applied batches since service start,
    /// carried across recovery).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The underlying detector (read-only).
    pub fn detector(&self) -> &StreamingDetector {
        &self.detector
    }

    /// The event journal accumulated so far.
    pub fn journal(&self) -> &EventJournal {
        &self.journal
    }

    /// The journal serialized as a timestamped event log (timestamps are
    /// batch indices; see [`crate::checkpoint`]).
    pub fn journal_log(&self) -> String {
        self.journal.to_event_log()
    }

    /// Validates `events` against the current graph state *as a batch* (see
    /// [`validate_batch`]), with the fault-injection hook applied first.
    fn validate_batch(&self, events: &[EdgeEvent]) -> Result<(), StreamError> {
        #[cfg(feature = "fault-injection")]
        if self.faults.fails_validation_at(self.epoch + 1) {
            return Err(StreamError::EventFailed {
                index: 0,
                source: GraphError::InvalidEdgeWeight { weight: f64::NAN },
            });
        }
        validate_batch(self.detector.graph(), events)
    }
}

/// Validates `events` against `graph` *as a batch*: every event is checked
/// against the state the preceding events would leave behind, without
/// mutating anything. This is what makes batch application all-or-nothing;
/// shared by [`StreamingService`] and the sharded service, which must agree
/// on acceptance decisions event for event.
pub(crate) fn validate_batch(
    graph: &DynamicGraph,
    events: &[EdgeEvent],
) -> Result<(), StreamError> {
    let n = graph.num_nodes();
    let key = |u: usize, v: usize| if u <= v { (u, v) } else { (v, u) };
    // Overlay of edge presence changes the batch would make; absent keys
    // defer to the live graph.
    let mut overlay: BTreeMap<(usize, usize), bool> = BTreeMap::new();
    let present = |overlay: &BTreeMap<(usize, usize), bool>, u: usize, v: usize| {
        overlay.get(&key(u, v)).copied().unwrap_or_else(|| graph.has_edge(u, v))
    };
    let fail = |index: usize, source: GraphError| StreamError::EventFailed { index, source };
    for (index, event) in events.iter().enumerate() {
        let check_bounds = |node: usize| -> Result<(), StreamError> {
            if node >= n {
                return Err(fail(index, GraphError::NodeOutOfBounds { node, num_nodes: n }));
            }
            Ok(())
        };
        let check_weight = |weight: f64| -> Result<(), StreamError> {
            if !weight.is_finite() || weight < 0.0 {
                return Err(fail(index, GraphError::InvalidEdgeWeight { weight }));
            }
            Ok(())
        };
        match *event {
            EdgeEvent::Add { u, v, weight } => {
                check_bounds(u)?;
                check_bounds(v)?;
                check_weight(weight)?;
                overlay.insert(key(u, v), true);
            }
            EdgeEvent::Remove { u, v } => {
                check_bounds(u)?;
                check_bounds(v)?;
                if !present(&overlay, u, v) {
                    return Err(fail(index, GraphError::EdgeNotFound { u, v }));
                }
                overlay.insert(key(u, v), false);
            }
            EdgeEvent::Update { u, v, weight } => {
                check_bounds(u)?;
                check_bounds(v)?;
                check_weight(weight)?;
                if !present(&overlay, u, v) {
                    return Err(fail(index, GraphError::EdgeNotFound { u, v }));
                }
            }
            EdgeEvent::RemoveNode { u } => {
                check_bounds(u)?;
                // Every edge incident to `u` — live or added earlier in
                // this batch — is gone after the deletion.
                let incident: Vec<(usize, usize)> =
                    overlay.keys().filter(|&&(a, b)| a == u || b == u).copied().collect();
                for k in incident {
                    overlay.insert(k, false);
                }
                for (v, _) in graph.neighbors(u) {
                    overlay.insert(key(u, v), false);
                }
            }
        }
    }
    Ok(())
}

impl StreamingService {
    /// Applies one batch synchronously: validate atomically, apply, journal,
    /// publish the next epoch, and refresh the automatic checkpoint when due.
    /// This is the deterministic ingestion path — the queue-driven
    /// [`StreamingService::step`] and crash replay both funnel through it, so
    /// a fixed event-batch sequence always produces the same state regardless
    /// of how it arrived.
    ///
    /// An empty batch is a no-op (nothing applied, journaled or published).
    ///
    /// # Errors
    ///
    /// Returns the first event's validation error ([`StreamError::EventFailed`])
    /// with **nothing applied**, or [`StreamError::Detect`] if a full
    /// re-detect fails.
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
        self.validate_batch(events)?;
        self.apply_validated(events, true)
    }

    /// Applies a pre-validated batch; `record` is false during crash replay
    /// (the events are already journaled).
    fn apply_validated(
        &mut self,
        events: &[EdgeEvent],
        record: bool,
    ) -> Result<StreamStats, StreamError> {
        #[cfg(feature = "fault-injection")]
        if record && self.faults.panics_at_batch(self.epoch + 1) {
            panic!("injected fault: writer panic at batch {}", self.epoch + 1);
        }
        let stats = self.detector.apply_events(events)?;
        if record {
            self.journal.record_batch(events);
            if let Some(store) = &self.store {
                store.record_journal(self.journal.to_event_log());
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

    /// Drains up to `max_batch` queued events (in submission order) and
    /// applies them as one batch. Returns `Ok(None)` when the queue is empty.
    ///
    /// # Errors
    ///
    /// Same as [`StreamingService::ingest`]. A batch that fails validation is
    /// dropped from the queue as a whole with no state change.
    pub fn step(&mut self) -> Result<Option<StreamStats>, StreamError> {
        loop {
            let batch = self.queue.drain_batch(self.config.max_batch);
            if batch.is_empty() {
                return Ok(None);
            }
            if self.config.max_validation_attempts == 0 {
                return self.ingest(&batch).map(Some);
            }
            // Quarantine mode: a batch failing validation
            // `max_validation_attempts` times is moved to the dead-letter log
            // and skipped, and the loop drains the next batch — one poisoned
            // batch can never wedge the queue.
            let attempts = self.config.max_validation_attempts;
            let mut outcome = self.validate_batch(&batch);
            let mut made = 1u32;
            while outcome.is_err() && made < attempts {
                outcome = self.validate_batch(&batch);
                made += 1;
            }
            match outcome {
                Ok(()) => return self.apply_validated(&batch, true).map(Some),
                Err(error) => {
                    self.dead_letters.push(DeadLetter { batch, error, attempts: made });
                    #[cfg(feature = "fault-injection")]
                    self.faults.consume_validation_fault();
                }
            }
        }
    }

    /// Applies queued events until the queue is empty, returning the per-batch
    /// statistics.
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

    /// Runs the writer loop: drain queued events, sleep until more arrive,
    /// and return once the service is closed and the queue fully drained.
    /// Returns the number of batches applied by this call.
    ///
    /// # Errors
    ///
    /// Stops at and returns the first batch error (remaining queued events
    /// stay queued).
    pub fn run_until_closed(&mut self) -> Result<u64, StreamError> {
        let mut batches = 0u64;
        loop {
            while let Some(_stats) = self.step()? {
                batches += 1;
            }
            let state = self.queue.lock();
            if state.events.is_empty() {
                if state.closed {
                    return Ok(batches);
                }
                drop(self.queue.items.wait(state).expect("ingestion queue mutex poisoned"));
            }
        }
    }

    /// Cuts a bit-exact checkpoint of the current state at the current batch
    /// boundary, stores it as [`StreamingService::latest_checkpoint`], and
    /// returns its serialized text. Recovery needs this text plus the journal
    /// ([`StreamingService::journal_log`]) from the same or a later moment.
    pub fn checkpoint(&mut self) -> String {
        let (graph, labels, sigma_tot, sigma_in, drift, batches, full_redetects) =
            self.detector.checkpoint_parts();
        let checkpoint = ServiceCheckpoint {
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
        #[allow(unused_mut)]
        let mut text = checkpoint.to_text();
        #[cfg(feature = "fault-injection")]
        if let Some(keep) = self.faults.truncates_checkpoint() {
            // Simulates a torn checkpoint write: only a prefix survives.
            text.truncate(keep.min(text.len()));
        }
        self.latest_checkpoint = Some(text.clone());
        if let Some(store) = &self.store {
            store.record_checkpoint(&text);
        }
        text
    }

    /// The most recent checkpoint text (manual or automatic), if any.
    pub fn latest_checkpoint(&self) -> Option<&str> {
        self.latest_checkpoint.as_deref()
    }

    /// Batches quarantined by the poisoned-batch dead-letter log, oldest
    /// first (see [`ServiceConfig::max_validation_attempts`]).
    pub fn dead_letters(&self) -> &[DeadLetter] {
        &self.dead_letters
    }

    /// Removes and returns the dead-letter log (e.g. after operator triage).
    pub fn take_dead_letters(&mut self) -> Vec<DeadLetter> {
        std::mem::take(&mut self.dead_letters)
    }

    /// Attaches a [`CheckpointStore`] that outlives the writer: the current
    /// state is checkpointed into it immediately (so a recovery point always
    /// exists), and every future checkpoint refresh and applied batch is
    /// mirrored. Hold the store on the supervising side and rebuild after a
    /// writer death with [`StreamingService::resume_from_store`].
    pub fn attach_store(&mut self, store: &CheckpointStore) {
        self.store = Some(store.clone());
        let text = self.checkpoint();
        store.record_checkpoint(&text);
        store.record_journal(self.journal.to_event_log());
    }

    /// Rebuilds a service from the state a [`CheckpointStore`] captured before
    /// a writer death, replaying journaled batches past the checkpoint — the
    /// supervisor's restart path. The new service re-attaches to the store.
    /// Readers of the dead service keep serving its last published epoch
    /// while this runs; hand out fresh clients/readers once it returns.
    ///
    /// # Errors
    ///
    /// * [`StreamError::InvalidConfig`] if the store holds no checkpoint (the
    ///   store was never attached to a service).
    /// * Same as [`StreamingService::recover`] for corrupt store contents.
    pub fn resume_from_store(
        store: &CheckpointStore,
        config: ServiceConfig,
    ) -> Result<Self, StreamError> {
        let checkpoint = store.latest_checkpoint().ok_or_else(|| StreamError::InvalidConfig {
            reason: "checkpoint store holds no checkpoint to resume from".into(),
        })?;
        let mut service = Self::recover(&checkpoint, &store.journal_log(), config)?;
        service.store = Some(store.clone());
        Ok(service)
    }

    /// Installs a deterministic fault plan (feature `fault-injection` only);
    /// see [`crate::faults`].
    #[cfg(feature = "fault-injection")]
    pub fn inject_faults(&mut self, faults: crate::faults::FaultPlan) {
        self.faults = faults;
    }

    /// Rebuilds a service from a checkpoint and the full event journal,
    /// replaying every journaled batch after the checkpoint's offset with its
    /// original boundaries. The recovered service is **bit-identical** to the
    /// uninterrupted run at the same point: partition, modularity bits,
    /// drift, counters, epoch and journal all match (the crash-consistency
    /// contract pinned by `tests/service.rs`).
    ///
    /// # Errors
    ///
    /// * [`StreamError::Checkpoint`] for malformed checkpoint text, or a
    ///   checkpoint offset that is beyond the journal or not on one of its
    ///   batch boundaries.
    /// * [`StreamError::Graph`] for malformed journal text.
    /// * Any replay error (replayed batches were validated when first
    ///   applied, so this indicates a truncated or edited journal).
    pub fn recover(
        checkpoint_text: &str,
        journal_text: &str,
        config: ServiceConfig,
    ) -> Result<Self, StreamError> {
        config.validate()?;
        let checkpoint = ServiceCheckpoint::from_text(checkpoint_text)?;
        let journal = EventJournal::from_event_log(journal_text)?;
        if checkpoint.events_applied > journal.len() {
            return Err(StreamError::Checkpoint {
                line: 3,
                reason: format!(
                    "checkpoint offset {} is beyond the {}-event journal ({} batches journaled)",
                    checkpoint.events_applied,
                    journal.len(),
                    journal.num_batches()
                ),
            });
        }
        if !journal.is_batch_boundary(checkpoint.events_applied) {
            return Err(StreamError::Checkpoint {
                line: 3,
                reason: format!(
                    "checkpoint offset {} is not a batch boundary of the {}-event journal \
                     (it falls inside journaled batch {})",
                    checkpoint.events_applied,
                    journal.len(),
                    journal.containing_batch(checkpoint.events_applied)
                ),
            });
        }
        // Replaying under a different quality function than the one whose
        // aggregates the checkpoint froze would silently misprice every gain
        // (and under CPM even read node counts as degree sums) — reject up
        // front instead of restoring a subtly wrong state.
        if checkpoint.quality != config.stream.quality() {
            return Err(StreamError::Checkpoint {
                line: 0,
                reason: format!(
                    "checkpoint was cut under {:?} but the recovery config maintains {:?}",
                    checkpoint.quality,
                    config.stream.quality()
                ),
            });
        }
        let detector = StreamingDetector::from_checkpoint_parts(
            checkpoint.graph,
            checkpoint.labels,
            checkpoint.sigma_tot,
            checkpoint.sigma_in,
            checkpoint.drift,
            checkpoint.batches,
            checkpoint.full_redetects,
            config.stream.clone(),
        )?;
        let offset = checkpoint.events_applied;
        let mut service = Self::assemble(
            detector,
            config,
            journal,
            checkpoint.epoch,
            Some(checkpoint_text.to_string()),
        );
        let replay: Vec<Vec<EdgeEvent>> =
            service.journal.batches_from(offset).map(<[EdgeEvent]>::to_vec).collect();
        for batch in replay {
            service.apply_validated(&batch, false)?;
        }
        Ok(service)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qhdcd_graph::generators;

    fn karate_service(config: ServiceConfig) -> StreamingService {
        let graph = DynamicGraph::from_graph(&generators::karate_club());
        let detector = StreamingDetector::from_partition(
            graph,
            generators::karate_club_communities(),
            config.stream.clone(),
        )
        .unwrap();
        StreamingService::from_detector(detector, config).unwrap()
    }

    #[test]
    fn config_validation() {
        assert!(ServiceConfig::default().validate().is_ok());
        assert!(ServiceConfig { queue_capacity: 0, ..Default::default() }.validate().is_err());
        assert!(ServiceConfig { max_batch: 0, ..Default::default() }.validate().is_err());
        let bad_stream = StreamConfig { frontier_fraction: 0.0, ..Default::default() };
        assert!(ServiceConfig { stream: bad_stream, ..Default::default() }.validate().is_err());
    }

    #[test]
    fn ingest_publishes_monotonic_epochs() {
        let mut service = karate_service(ServiceConfig::default());
        assert_eq!(service.latest_snapshot().epoch(), 0);
        service.ingest(&[EdgeEvent::Add { u: 0, v: 33, weight: 1.0 }]).unwrap();
        service.ingest(&[EdgeEvent::Remove { u: 0, v: 33 }]).unwrap();
        assert_eq!(service.epoch(), 2);
        let snap = service.latest_snapshot();
        assert_eq!(snap.epoch(), 2);
        assert_eq!(snap.num_nodes(), 34);
        // Empty batches publish nothing.
        service.ingest(&[]).unwrap();
        assert_eq!(service.epoch(), 2);
        assert_eq!(service.journal().len(), 2);
    }

    #[test]
    fn invalid_batches_are_rejected_atomically() {
        let mut service = karate_service(ServiceConfig::default());
        let before = service.detector().graph().clone();
        let epoch_before = service.epoch();
        // The first two events are fine; the third refers to a missing edge.
        let err = service
            .ingest(&[
                EdgeEvent::Add { u: 0, v: 20, weight: 1.0 },
                EdgeEvent::Update { u: 0, v: 20, weight: 2.0 },
                EdgeEvent::Remove { u: 5, v: 20 },
            ])
            .unwrap_err();
        assert!(matches!(
            err,
            StreamError::EventFailed { index: 2, source: GraphError::EdgeNotFound { u: 5, v: 20 } }
        ));
        // Nothing was applied, journaled or published.
        assert_eq!(service.detector().graph(), &before);
        assert_eq!(service.epoch(), epoch_before);
        assert!(service.journal().is_empty());
    }

    #[test]
    fn batch_validation_tracks_intra_batch_state() {
        let mut service = karate_service(ServiceConfig::default());
        // Remove-then-remove of the same edge must fail on the second event.
        let err = service
            .ingest(&[EdgeEvent::Remove { u: 0, v: 1 }, EdgeEvent::Remove { u: 0, v: 1 }])
            .unwrap_err();
        assert!(matches!(err, StreamError::EventFailed { index: 1, .. }));
        // Add-then-remove of a new edge is fine; so is updating it in between.
        service
            .ingest(&[
                EdgeEvent::Add { u: 0, v: 20, weight: 1.0 },
                EdgeEvent::Update { u: 0, v: 20, weight: 0.5 },
                EdgeEvent::Remove { u: 0, v: 20 },
            ])
            .unwrap();
        // A node deletion kills edges added earlier in the same batch.
        let err = service
            .ingest(&[
                EdgeEvent::Add { u: 0, v: 20, weight: 1.0 },
                EdgeEvent::RemoveNode { u: 0 },
                EdgeEvent::Update { u: 0, v: 20, weight: 0.5 },
            ])
            .unwrap_err();
        assert!(matches!(err, StreamError::EventFailed { index: 2, .. }));
        // ... but re-adding after the deletion is valid.
        service
            .ingest(&[
                EdgeEvent::RemoveNode { u: 0 },
                EdgeEvent::Add { u: 0, v: 20, weight: 1.0 },
                EdgeEvent::Update { u: 0, v: 20, weight: 0.5 },
            ])
            .unwrap();
        // Invalid weights and out-of-range endpoints are caught up front.
        let err = service.ingest(&[EdgeEvent::Add { u: 0, v: 1, weight: f64::NAN }]).unwrap_err();
        assert!(matches!(
            err,
            StreamError::EventFailed { index: 0, source: GraphError::InvalidEdgeWeight { .. } }
        ));
        let err = service.ingest(&[EdgeEvent::RemoveNode { u: 99 }]).unwrap_err();
        assert!(matches!(
            err,
            StreamError::EventFailed { index: 0, source: GraphError::NodeOutOfBounds { .. } }
        ));
    }

    #[test]
    fn queue_steps_in_submission_order() {
        let mut service =
            karate_service(ServiceConfig { max_batch: 2, ..ServiceConfig::default() });
        let client = service.client();
        client
            .try_submit(&[
                EdgeEvent::Add { u: 0, v: 20, weight: 1.0 },
                EdgeEvent::Update { u: 0, v: 20, weight: 2.0 },
                EdgeEvent::Remove { u: 0, v: 20 },
            ])
            .unwrap();
        assert_eq!(client.queued(), 3);
        // max_batch = 2: first step applies (add, update), second (remove) —
        // only valid if order is preserved.
        let stats = service.step().unwrap().unwrap();
        assert_eq!(stats.events_applied, 2);
        let stats = service.step().unwrap().unwrap();
        assert_eq!(stats.events_applied, 1);
        assert!(service.step().unwrap().is_none());
        assert_eq!(client.queued(), 0);
        assert!(!service.detector().graph().has_edge(0, 20));
    }

    #[test]
    fn closed_service_rejects_submissions() {
        let service = karate_service(ServiceConfig::default());
        let client = service.client();
        client.close();
        assert!(matches!(
            client.try_submit(&[EdgeEvent::Add { u: 0, v: 1, weight: 1.0 }]),
            Err(StreamError::ServiceClosed)
        ));
        assert!(matches!(
            client.submit(&[EdgeEvent::Add { u: 0, v: 1, weight: 1.0 }]),
            Err(StreamError::ServiceClosed)
        ));
    }

    #[test]
    fn oversized_batches_are_rejected_up_front() {
        let service =
            karate_service(ServiceConfig { queue_capacity: 2, ..ServiceConfig::default() });
        let client = service.client();
        let batch: Vec<EdgeEvent> =
            (0..3).map(|i| EdgeEvent::Add { u: i, v: 20, weight: 1.0 }).collect();
        assert!(matches!(client.try_submit(&batch), Err(StreamError::Backpressure { .. })));
        assert!(matches!(client.submit(&batch), Err(StreamError::Backpressure { .. })));
    }

    #[test]
    fn checkpoint_offset_must_be_a_batch_boundary() {
        let mut service = karate_service(ServiceConfig::default());
        service
            .ingest(&[
                EdgeEvent::Add { u: 0, v: 20, weight: 1.0 },
                EdgeEvent::Add { u: 0, v: 21, weight: 1.0 },
            ])
            .unwrap();
        let checkpoint = service.checkpoint();
        // Sabotage the offset into the middle of the two-event batch.
        let bad = checkpoint.replace("events_applied 2", "events_applied 1");
        let err = StreamingService::recover(&bad, &service.journal_log(), ServiceConfig::default())
            .unwrap_err();
        assert!(matches!(err, StreamError::Checkpoint { .. }));
        // And beyond the journal.
        let bad = checkpoint.replace("events_applied 2", "events_applied 4");
        let err = StreamingService::recover(&bad, &service.journal_log(), ServiceConfig::default())
            .unwrap_err();
        assert!(matches!(err, StreamError::Checkpoint { .. }));
    }

    #[test]
    fn automatic_checkpoints_refresh_on_schedule() {
        let mut service =
            karate_service(ServiceConfig { checkpoint_every: 2, ..ServiceConfig::default() });
        assert!(service.latest_checkpoint().is_none());
        service.ingest(&[EdgeEvent::Add { u: 0, v: 20, weight: 1.0 }]).unwrap();
        assert!(service.latest_checkpoint().is_none());
        service.ingest(&[EdgeEvent::Add { u: 0, v: 21, weight: 1.0 }]).unwrap();
        let first = service.latest_checkpoint().unwrap().to_string();
        service.ingest(&[EdgeEvent::Add { u: 0, v: 22, weight: 1.0 }]).unwrap();
        assert_eq!(service.latest_checkpoint().unwrap(), first, "not due yet");
        service.ingest(&[EdgeEvent::Add { u: 0, v: 23, weight: 1.0 }]).unwrap();
        assert_ne!(service.latest_checkpoint().unwrap(), first, "refreshed at batch 4");
    }

    #[test]
    fn dropping_the_service_wakes_blocked_submitters() {
        let service =
            karate_service(ServiceConfig { queue_capacity: 1, ..ServiceConfig::default() });
        let client = service.client();
        client.try_submit(&[EdgeEvent::Add { u: 0, v: 20, weight: 1.0 }]).unwrap();
        let blocked = {
            let client = client.clone();
            std::thread::spawn(move || {
                client.submit(&[EdgeEvent::Add { u: 0, v: 21, weight: 1.0 }])
            })
        };
        // Let the submitter block on the full queue, then kill the writer
        // WITHOUT a clean close() — the regression this pins is a submitter
        // hanging forever on a dead writer.
        std::thread::sleep(Duration::from_millis(50));
        drop(service);
        let result = blocked.join().expect("submitter must not panic");
        assert!(matches!(result, Err(StreamError::ServiceClosed)));
    }

    #[test]
    fn submit_timeout_reports_queue_state_and_recovers_after_drain() {
        let mut service =
            karate_service(ServiceConfig { queue_capacity: 2, ..ServiceConfig::default() });
        let client = service.client();
        client
            .try_submit(&[
                EdgeEvent::Add { u: 0, v: 20, weight: 1.0 },
                EdgeEvent::Add { u: 0, v: 21, weight: 1.0 },
            ])
            .unwrap();
        let err = client
            .submit_timeout(
                &[EdgeEvent::Add { u: 0, v: 22, weight: 1.0 }],
                Duration::from_millis(10),
            )
            .unwrap_err();
        assert_eq!(err, StreamError::SubmitTimeout { queued: 2, capacity: 2 });
        // Oversized batches fail fast rather than waiting out the timeout.
        let oversized: Vec<EdgeEvent> =
            (20..23).map(|v| EdgeEvent::Add { u: 0, v, weight: 1.0 }).collect();
        assert!(matches!(
            client.submit_timeout(&oversized, Duration::from_secs(1)),
            Err(StreamError::Backpressure { .. })
        ));
        // Draining frees space; the same submission then succeeds.
        service.step().unwrap();
        client
            .submit_timeout(
                &[EdgeEvent::Add { u: 0, v: 22, weight: 1.0 }],
                Duration::from_millis(10),
            )
            .unwrap();
        client.close();
        assert!(matches!(
            client.submit_timeout(&[EdgeEvent::Add { u: 0, v: 23, weight: 1.0 }], Duration::ZERO),
            Err(StreamError::ServiceClosed)
        ));
    }

    #[test]
    fn quarantine_dead_letters_poisoned_batches_and_keeps_draining() {
        let mut service = karate_service(ServiceConfig {
            max_batch: 1,
            max_validation_attempts: 2,
            ..ServiceConfig::default()
        });
        let client = service.client();
        let poisoned = vec![EdgeEvent::Add { u: 0, v: 20, weight: f64::NAN }];
        client.try_submit(&poisoned).unwrap();
        client.try_submit(&[EdgeEvent::Add { u: 0, v: 21, weight: 1.0 }]).unwrap();
        // One step call: the poisoned batch is dead-lettered and the writer
        // moves straight on to the healthy batch — the queue never wedges.
        let stats = service.step().unwrap().unwrap();
        assert_eq!(stats.events_applied, 1);
        assert_eq!(service.epoch(), 1);
        assert!(service.detector().graph().has_edge(0, 21));
        let letters = service.dead_letters();
        assert_eq!(letters.len(), 1);
        // NaN never compares equal, so match the quarantined batch by shape.
        assert!(matches!(letters[0].batch[..], [EdgeEvent::Add { u: 0, v: 20, .. }]));
        assert_eq!(letters[0].attempts, 2);
        assert!(matches!(letters[0].error, StreamError::EventFailed { index: 0, .. }));
        // The quarantined batch is journaled nowhere: replay stays exact.
        assert_eq!(service.journal().len(), 1);
        assert_eq!(service.take_dead_letters().len(), 1);
        assert!(service.dead_letters().is_empty());
    }

    #[test]
    fn fail_fast_mode_still_returns_validation_errors_from_step() {
        let mut service = karate_service(ServiceConfig::default());
        let client = service.client();
        client.try_submit(&[EdgeEvent::Add { u: 0, v: 20, weight: f64::NAN }]).unwrap();
        assert!(matches!(service.step(), Err(StreamError::EventFailed { .. })));
        assert!(service.dead_letters().is_empty());
    }

    #[test]
    fn store_resume_is_bit_exact_after_writer_death() {
        let config = ServiceConfig { checkpoint_every: 2, ..ServiceConfig::default() };
        let mut service = karate_service(config.clone());
        let store = CheckpointStore::new();
        service.attach_store(&store);
        for v in 20..25 {
            service.ingest(&[EdgeEvent::Add { u: 0, v, weight: 1.0 }]).unwrap();
        }
        assert_eq!(service.epoch(), 5);
        let mut client = service.client();
        let last_published = client.snapshot();
        // The store lags behind on purpose: its checkpoint is the automatic
        // one at epoch 4, and the journal holds all five batches.
        drop(service);
        // Degraded read-only mode: readers of the dead writer keep serving
        // the last published epoch while the supervisor restarts.
        assert_eq!(client.snapshot().epoch(), 5);
        let mut resumed = StreamingService::resume_from_store(&store, config.clone()).unwrap();
        assert_eq!(resumed.epoch(), 5);
        // Bit-exactness: the resumed state checkpoints identically to an
        // uninterrupted run over the same batches.
        let mut reference = karate_service(config);
        for v in 20..25 {
            reference.ingest(&[EdgeEvent::Add { u: 0, v, weight: 1.0 }]).unwrap();
        }
        assert_eq!(resumed.checkpoint(), reference.checkpoint());
        assert_eq!(resumed.journal_log(), reference.journal_log());
        assert_eq!(resumed.latest_snapshot().community_of(0), last_published.community_of(0));
        // The resumed service is re-attached: new batches keep mirroring.
        resumed.ingest(&[EdgeEvent::Add { u: 0, v: 25, weight: 1.0 }]).unwrap();
        assert_eq!(store.journal_log(), resumed.journal_log());
    }

    #[test]
    fn resume_from_an_empty_store_is_rejected() {
        let err =
            StreamingService::resume_from_store(&CheckpointStore::new(), ServiceConfig::default())
                .unwrap_err();
        assert!(matches!(err, StreamError::InvalidConfig { .. }));
    }

    #[test]
    fn retry_with_backoff_schedule_is_deterministic() {
        let mut service =
            karate_service(ServiceConfig { queue_capacity: 1, ..ServiceConfig::default() });
        let client = service.client();
        client.try_submit(&[EdgeEvent::Add { u: 0, v: 20, weight: 1.0 }]).unwrap();
        let policy = BackoffPolicy {
            initial_delay: Duration::from_millis(1),
            max_delay: Duration::from_millis(4),
            max_attempts: 5,
        };
        // Exhaustion: nothing drains, so every retry sees backpressure and
        // the capped delay sequence is exactly 1, 2, 4, 4 ms.
        let mut delays = Vec::new();
        let err = client
            .retry_with_backoff(&[EdgeEvent::Add { u: 0, v: 21, weight: 1.0 }], &policy, |d| {
                delays.push(d)
            })
            .unwrap_err();
        assert!(matches!(err, StreamError::Backpressure { .. }));
        let ms = Duration::from_millis;
        assert_eq!(delays, vec![ms(1), ms(2), ms(4), ms(4)]);
        // Success path: the sleeper doubles as the writer, draining the queue
        // before the first retry.
        let mut drains = 0;
        client
            .retry_with_backoff(&[EdgeEvent::Add { u: 0, v: 21, weight: 1.0 }], &policy, |_| {
                service.step().unwrap();
                drains += 1;
            })
            .unwrap();
        assert_eq!(drains, 1);
        // Non-backpressure errors abort the retry loop immediately.
        client.close();
        let mut sleeps = 0;
        let err = client
            .retry_with_backoff(&[EdgeEvent::Add { u: 0, v: 22, weight: 1.0 }], &policy, |_| {
                sleeps += 1;
            })
            .unwrap_err();
        assert!(matches!(err, StreamError::ServiceClosed));
        assert_eq!(sleeps, 0);
    }
}
