//! Streaming community detection: incremental maintenance of a partition
//! under a live stream of edge events.
//!
//! The static pipeline (encode → solve → refine) assumes the graph is fixed;
//! under continuous traffic, rebuilding and re-solving on every update is
//! unaffordable. This crate maintains communities *incrementally*:
//!
//! * **Event model.** The graph lives in a [`DynamicGraph`] (copy-on-write
//!   neighbour lists from `qhdcd-graph`) and is mutated by batches of
//!   [`EdgeEvent`]s — edge insertions, removals, absolute weight updates and
//!   node deletions (`RemoveNode`, which strips every incident edge and keeps
//!   the id as an isolated tombstone) — optionally parsed from timestamped
//!   logs by `qhdcd_graph::io::parse_event_log`.
//! * **Incremental bookkeeping.** [`StreamingDetector`] keeps its partition in
//!   a `qhdcd_graph::modularity::ModularityState`, the type static refinement
//!   uses: labels, per-community aggregates (`Σtot` degree sums, or carried
//!   node counts under CPM) and internal weights `Σin`. Every changed edge
//!   patches them in O(1), so the maintained quality is always available in
//!   O(k) without touching the graph.
//! * **Localized refinement.** Each batch marks a *dirty frontier* — the
//!   touched endpoints plus their neighbours — and runs quality-gain reassign
//!   moves over only that frontier, expanding outward exactly as far as moves
//!   keep paying off. The loop is `qhdcd_core::refine::refine_worklist`, the
//!   one `qhdcd_core::refine::refine_frontier` runs on a fresh state; the
//!   detector runs it on its persistent one.
//! * **Epoch fallback.** When accumulated drift (total absolute weight change
//!   since the last full solve) or the frontier size crosses a configured
//!   threshold, the detector performs a full re-detect on a CSR snapshot,
//!   warm-started from the incumbent partition via
//!   `CommunityDetector::detect_with_hint` (the portfolio seeds one restart
//!   from the incumbent, so the re-solve can only improve on local polish).
//! * **Service layer.** [`StreamingService`] (module [`service`]) runs the
//!   detector as a long-lived concurrent service: lock-free versioned
//!   snapshot reads (module [`snapshot`]), bounded-queue ingestion with
//!   backpressure, and bit-exact checkpoint/replay crash recovery (module
//!   [`checkpoint`]).
//!
//! # Determinism contract
//!
//! For a fixed initial graph, seed and event sequence, the maintained
//! partition and all reported statistics are **bit-identical across reruns**:
//! frontier sets are ordered, the refinement loop scans nodes in ascending
//! order and candidate communities in first-seen neighbour order with
//! strict-improvement tie-breaks, and
//! full re-detects use the deterministic portfolio runtime. The only escape
//! is an explicit wall-clock time limit on the fallback detector.
//!
//! # Example
//!
//! ```
//! use qhdcd_graph::{generators, DynamicGraph, EdgeEvent};
//! use qhdcd_stream::{StreamConfig, StreamingDetector};
//!
//! # fn main() -> Result<(), qhdcd_stream::StreamError> {
//! let graph = DynamicGraph::from_graph(&generators::karate_club());
//! let mut detector = StreamingDetector::new(graph, StreamConfig::default())?;
//! let stats = detector.apply_events(&[
//!     EdgeEvent::Add { u: 0, v: 33, weight: 1.0 },
//!     EdgeEvent::Add { u: 1, v: 32, weight: 1.0 },
//! ])?;
//! assert_eq!(stats.events_applied, 2);
//! assert!(detector.modularity() > 0.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod detector;
mod error;

pub mod checkpoint;
#[cfg(feature = "fault-injection")]
pub mod faults;
pub mod service;
pub mod snapshot;

pub use checkpoint::{EventJournal, ServiceCheckpoint};
pub use detector::{StreamConfig, StreamStats, StreamingDetector};
pub use error::StreamError;
pub use service::{
    BackoffPolicy, CheckpointStore, DeadLetter, ServiceClient, ServiceConfig, StreamingService,
};
pub use snapshot::{PartitionSnapshot, SnapshotReader};

// The dynamic-graph layer is re-exported so that streaming applications only
// need this crate.
pub use qhdcd_graph::{DynamicGraph, EdgeEvent};
