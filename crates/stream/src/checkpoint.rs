//! The two halves of the streaming service's recovery record, which its
//! [`CheckpointStore`](crate::CheckpointStore) keeps: the event journal and
//! the bit-exact service checkpoint, whose journal offset bounds the replay.
//!
//! Together they implement the crash-recovery contract: a crashed service is
//! reconstructed from its last checkpoint plus a replay of the journaled
//! events after the checkpoint's offset, and the result is **bit-identical**
//! to the uninterrupted run. Two details make that exact rather than
//! approximate:
//!
//! * **Raw-bit floats.** The detector's aggregates (`Σtot`, `Σin`, drift, the
//!   graph's cached degrees and total weight) are patched incrementally, so
//!   their low bits encode the mutation history. The checkpoint stores every
//!   `f64` as its 16-hex-digit bit pattern and restores it verbatim — a
//!   restore that recomputed aggregates from scratch could drift by a few
//!   ulps and flip a strict-improvement refinement decision.
//! * **Batch boundaries.** Refinement outcomes depend on how events were
//!   grouped into batches (the frontier and the drift trigger are per-batch).
//!   The journal therefore records batch boundaries, serialized as the
//!   timestamp column of the standard event-log format: the timestamp of each
//!   event is the index of the batch that applied it, so consecutive equal
//!   timestamps delimit one batch and replay regroups events exactly as the
//!   original run did.
//!
//! The reader accepts only the `qhdcd-service v2` text format.

use crate::StreamError;
use qhdcd_graph::{io, DynamicGraph, EdgeEvent, GraphError, QualityFunction};

/// An append-only record of every event batch the service has applied, in
/// application order, with batch boundaries preserved.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EventJournal {
    /// All applied events, flattened in order.
    events: Vec<EdgeEvent>,
    /// Cumulative end offset (into `events`) of each applied batch.
    batch_ends: Vec<usize>,
}

impl EventJournal {
    /// An empty journal.
    pub fn new() -> Self {
        EventJournal::default()
    }

    /// Appends one applied batch. Empty batches are not recorded (they do not
    /// change any state and replay skips them).
    pub fn record_batch(&mut self, batch: &[EdgeEvent]) {
        if batch.is_empty() {
            return;
        }
        self.events.extend_from_slice(batch);
        self.batch_ends.push(self.events.len());
    }

    /// Total number of journaled events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the journal holds no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of journaled batches.
    pub fn num_batches(&self) -> usize {
        self.batch_ends.len()
    }

    /// Whether `offset` lies on a batch boundary (0, the journal end, or the
    /// end of any applied batch) — the only offsets a checkpoint may carry.
    pub fn is_batch_boundary(&self, offset: usize) -> bool {
        offset == 0 || self.batch_ends.binary_search(&offset).is_ok()
    }

    /// The 0-based index of the journaled batch containing event offset
    /// `offset` — the number of batches that end at or before it. Used to
    /// attach batch context to recovery errors about misaligned offsets.
    pub fn containing_batch(&self, offset: usize) -> usize {
        self.batch_ends.partition_point(|&end| end <= offset)
    }

    /// The journaled batches from the event offset `from` onward, preserving
    /// the original boundaries. `from` must lie on a batch boundary (it always
    /// does for offsets produced by [`EventJournal::len`] at batch rim) —
    /// otherwise the containing batch is replayed from its start, which would
    /// double-apply events, so callers must only pass checkpoint offsets.
    pub fn batches_from(&self, from: usize) -> impl Iterator<Item = &[EdgeEvent]> + '_ {
        let mut start = from;
        self.batch_ends.iter().filter_map(move |&end| {
            if end <= start {
                return None;
            }
            let batch = &self.events[start..end];
            start = end;
            Some(batch)
        })
    }

    /// Splits the journal at the event offset `at`, which must lie on a batch
    /// boundary: `self` keeps the batches before it and the returned journal
    /// holds the rest.
    pub(crate) fn split_off(&mut self, at: usize) -> EventJournal {
        debug_assert!(self.is_batch_boundary(at));
        let kept = self.batch_ends.partition_point(|&end| end <= at);
        let events = self.events.split_off(at);
        let batch_ends = self.batch_ends.split_off(kept).into_iter().map(|end| end - at).collect();
        EventJournal { events, batch_ends }
    }

    /// Serializes the journal as a standard timestamped event log whose
    /// timestamp column is the batch index (see the module docs). The output
    /// round-trips bit-exactly through [`EventJournal::from_event_log`].
    pub fn to_event_log(&self) -> String {
        let mut timed = Vec::with_capacity(self.events.len());
        let mut start = 0usize;
        for (batch_index, &end) in self.batch_ends.iter().enumerate() {
            for event in &self.events[start..end] {
                timed.push((batch_index as u64, *event));
            }
            start = end;
        }
        io::to_event_log(&timed)
    }

    /// Parses a journal from [`EventJournal::to_event_log`] output (or any
    /// timestamped event log: each maximal run of equal timestamps becomes
    /// one batch).
    ///
    /// # Errors
    ///
    /// Propagates [`GraphError::ParseEventLog`] as [`StreamError::Graph`].
    pub fn from_event_log(text: &str) -> Result<Self, StreamError> {
        let timed = io::parse_timed_event_log(text)?;
        let mut journal = EventJournal::new();
        let mut previous: Option<u64> = None;
        for (t, event) in timed {
            if previous != Some(t) {
                journal.batch_ends.push(journal.events.len());
                previous = Some(t);
            }
            journal.events.push(event);
        }
        // `batch_ends` currently holds batch *starts*; shift to ends.
        if !journal.events.is_empty() {
            journal.batch_ends.remove(0);
            journal.batch_ends.push(journal.events.len());
        }
        Ok(journal)
    }
}

/// The frozen state of a [`StreamingService`](crate::StreamingService) at a
/// batch boundary, parsed from / serialized to a line-based text format.
///
/// The checkpoint does **not** include the configuration (a recovered service
/// is given its configuration explicitly, exactly like a fresh one) or the
/// journal (kept separately so the journal can keep growing after the
/// checkpoint is cut).
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceCheckpoint {
    /// Epoch of the snapshot current when the checkpoint was cut.
    pub epoch: u64,
    /// Number of journaled events already folded into this checkpoint; replay
    /// resumes from this offset.
    pub events_applied: usize,
    /// Detector batch counter.
    pub batches: u64,
    /// Detector full re-detect counter.
    pub full_redetects: u64,
    /// The quality function whose aggregates the checkpoint freezes. Replay
    /// must run under the same quality function for bit-identity.
    pub quality: QualityFunction,
    /// Accumulated drift since the last full solve (raw bits semantics).
    pub drift: f64,
    /// Community label per node.
    pub labels: Vec<usize>,
    /// Per-community aggregates: degree sums, or carried node counts under CPM
    /// (raw bits semantics).
    pub sigma_tot: Vec<f64>,
    /// Per-community internal weights (raw bits semantics).
    pub sigma_in: Vec<f64>,
    /// The dynamic graph, aggregates preserved verbatim.
    pub graph: DynamicGraph,
}

fn bits(x: f64) -> String {
    format!("{:016x}", x.to_bits())
}

/// FNV-1a over the checkpoint body: cheap, dependency-free, and enough to
/// catch torn writes and bit rot (the threat model is storage corruption,
/// not an adversary forging checkpoints).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn join_bits(xs: &[f64]) -> String {
    xs.iter().map(|&x| bits(x)).collect::<Vec<_>>().join(" ")
}

impl ServiceCheckpoint {
    /// Serializes the checkpoint. All floats are stored as raw bit patterns;
    /// the embedded graph section is the [`DynamicGraph::to_checkpoint_text`]
    /// format and terminates the checkpoint.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("epoch {}\n", self.epoch));
        out.push_str(&format!("events_applied {}\n", self.events_applied));
        out.push_str(&format!("batches {}\n", self.batches));
        out.push_str(&format!("full_redetects {}\n", self.full_redetects));
        let kind = match self.quality {
            QualityFunction::Modularity { .. } => "modularity",
            QualityFunction::Cpm { .. } => "cpm",
        };
        // The resolution is a raw bit pattern like every other float: a
        // recovered service must price gains with the *exact* γ of the run.
        out.push_str(&format!("quality {kind} {}\n", bits(self.quality.resolution())));
        out.push_str(&format!("drift {}\n", bits(self.drift)));
        out.push_str(&format!(
            "labels {}\n",
            self.labels.iter().map(|l| l.to_string()).collect::<Vec<_>>().join(" ")
        ));
        out.push_str(&format!("sigma_tot {}\n", join_bits(&self.sigma_tot)));
        out.push_str(&format!("sigma_in {}\n", join_bits(&self.sigma_in)));
        out.push_str("graph\n");
        out.push_str(&self.graph.to_checkpoint_text());
        // The checksum guards the body against *silent* corruption: a flipped
        // hex digit in a raw-bit float still parses, just to a different
        // value, which would otherwise restore a subtly wrong state.
        format!("qhdcd-service v2\nchecksum {:016x}\n{out}", fnv1a(out.as_bytes()))
    }

    /// Parses a checkpoint from [`ServiceCheckpoint::to_text`] output.
    ///
    /// # Errors
    ///
    /// Returns [`StreamError::Checkpoint`] with the offending 1-based line
    /// number (line 0 for truncated input) for any structural or numeric
    /// problem, including errors inside the embedded graph section (whose
    /// line numbers are shifted to the enclosing document).
    pub fn from_text(text: &str) -> Result<Self, StreamError> {
        let err = |line: usize, reason: String| StreamError::Checkpoint { line, reason };
        let mut lines = text.lines().enumerate();
        let mut expect = |keyword: &str| -> Result<(usize, String), StreamError> {
            let (lineno, raw) = lines
                .next()
                .ok_or_else(|| err(0, format!("unexpected end of input, expected `{keyword}`")))?;
            let rest = raw
                .strip_prefix(keyword)
                .ok_or_else(|| err(lineno + 1, format!("expected `{keyword}`, got `{raw}`")))?;
            Ok((lineno, rest.trim().to_string()))
        };
        let (lineno, version) = expect("qhdcd-service")?;
        if version != "v2" {
            return Err(err(lineno + 1, format!("unsupported checkpoint version `{version}`")));
        }
        // Everything after the checksum line is the checksummed body.
        let computed = text.splitn(3, '\n').nth(2).map(|body| fnv1a(body.as_bytes()));
        let (cks_lineno, cks_body) = expect("checksum")?;
        let stored = u64::from_str_radix(&cks_body, 16)
            .map_err(|e| err(cks_lineno + 1, format!("invalid checksum `{cks_body}`: {e}")))?;
        let parse_u64 = |lineno: usize, tok: &str| -> Result<u64, StreamError> {
            tok.parse::<u64>().map_err(|e| err(lineno + 1, format!("invalid count `{tok}`: {e}")))
        };
        let parse_bits = |lineno: usize, tok: &str| -> Result<f64, StreamError> {
            u64::from_str_radix(tok, 16)
                .map(f64::from_bits)
                .map_err(|e| err(lineno + 1, format!("invalid f64 bit pattern `{tok}`: {e}")))
        };
        let (lineno, body) = expect("epoch")?;
        let epoch = parse_u64(lineno, &body)?;
        let (lineno, body) = expect("events_applied")?;
        let events_applied = parse_u64(lineno, &body)? as usize;
        let (lineno, body) = expect("batches")?;
        let batches = parse_u64(lineno, &body)?;
        let (lineno, body) = expect("full_redetects")?;
        let full_redetects = parse_u64(lineno, &body)?;
        let (lineno, body) = expect("quality")?;
        let mut tokens = body.split_whitespace();
        let kind = tokens.next().unwrap_or("");
        let resolution = match tokens.next() {
            Some(tok) => parse_bits(lineno, tok)?,
            None => {
                return Err(err(
                    lineno + 1,
                    format!("missing resolution bits in quality line `{body}`"),
                ))
            }
        };
        if tokens.next().is_some() {
            return Err(err(lineno + 1, format!("unexpected tokens after quality line `{body}`")));
        }
        let quality = match kind {
            "modularity" => QualityFunction::Modularity { resolution },
            "cpm" => QualityFunction::Cpm { resolution },
            other => return Err(err(lineno + 1, format!("unknown quality function `{other}`"))),
        };
        let (lineno, body) = expect("drift")?;
        let drift = parse_bits(lineno, &body)?;
        let (lineno, body) = expect("labels")?;
        let labels = body
            .split_whitespace()
            .map(|tok| {
                tok.parse::<usize>()
                    .map_err(|e| err(lineno + 1, format!("invalid label `{tok}`: {e}")))
            })
            .collect::<Result<Vec<usize>, StreamError>>()?;
        let (lineno, body) = expect("sigma_tot")?;
        let sigma_tot = body
            .split_whitespace()
            .map(|tok| parse_bits(lineno, tok))
            .collect::<Result<Vec<f64>, StreamError>>()?;
        let (lineno, body) = expect("sigma_in")?;
        let sigma_in = body
            .split_whitespace()
            .map(|tok| parse_bits(lineno, tok))
            .collect::<Result<Vec<f64>, StreamError>>()?;
        let (graph_marker_line, rest) = expect("graph")?;
        if !rest.is_empty() {
            return Err(err(
                graph_marker_line + 1,
                format!("unexpected tokens after `graph`: `{rest}`"),
            ));
        }
        let graph_text: String =
            lines.map(|(_, raw)| format!("{raw}\n")).collect::<Vec<_>>().join("");
        let graph = DynamicGraph::from_checkpoint_text(&graph_text).map_err(|e| match e {
            GraphError::ParseCheckpoint { line, reason } => err(
                if line == 0 { 0 } else { line + graph_marker_line + 1 },
                format!("in graph section: {reason}"),
            ),
            other => err(0, format!("in graph section: {other}")),
        })?;
        // Structural errors above carry a precise line; a document that parses
        // cleanly but fails its checksum was silently bit-flipped (raw-bit
        // floats parse to a *different* value rather than failing).
        if computed != Some(stored) {
            return Err(err(
                cks_lineno + 1,
                "checksum mismatch: checkpoint body is corrupted".into(),
            ));
        }
        Ok(ServiceCheckpoint {
            epoch,
            events_applied,
            batches,
            full_redetects,
            quality,
            drift,
            labels,
            sigma_tot,
            sigma_in,
            graph,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_journal() -> EventJournal {
        let mut journal = EventJournal::new();
        journal.record_batch(&[
            EdgeEvent::Add { u: 0, v: 1, weight: 1.0 },
            EdgeEvent::Add { u: 1, v: 2, weight: 0.5 },
        ]);
        journal.record_batch(&[]);
        journal.record_batch(&[EdgeEvent::Update { u: 0, v: 1, weight: 0.1 + 0.2 }]);
        journal.record_batch(&[EdgeEvent::RemoveNode { u: 2 }, EdgeEvent::Remove { u: 0, v: 1 }]);
        journal
    }

    #[test]
    fn journal_preserves_batch_boundaries() {
        let journal = sample_journal();
        assert_eq!(journal.len(), 5);
        assert_eq!(journal.num_batches(), 3); // the empty batch is dropped
        let batches: Vec<&[EdgeEvent]> = journal.batches_from(0).collect();
        assert_eq!(batches.len(), 3);
        assert_eq!(batches[0].len(), 2);
        assert_eq!(batches[1].len(), 1);
        assert_eq!(batches[2].len(), 2);
        // Resuming from the first boundary skips the first batch only.
        let tail: Vec<&[EdgeEvent]> = journal.batches_from(2).collect();
        assert_eq!(tail.len(), 2);
        assert_eq!(tail[0], &journal.events[2..3]);
        // Resuming from the end yields nothing.
        assert_eq!(journal.batches_from(journal.len()).count(), 0);
    }

    #[test]
    fn journal_round_trips_through_the_event_log() {
        let journal = sample_journal();
        let text = journal.to_event_log();
        let parsed = EventJournal::from_event_log(&text).unwrap();
        assert_eq!(parsed, journal);
        // Weights survive bit-exactly (0.1 + 0.2 is not 0.3).
        match parsed.events[2] {
            EdgeEvent::Update { weight, .. } => {
                assert_eq!(weight.to_bits(), (0.1_f64 + 0.2).to_bits())
            }
            ref other => panic!("unexpected event {other:?}"),
        }
        let empty = EventJournal::from_event_log("").unwrap();
        assert!(empty.is_empty());
        assert_eq!(empty.num_batches(), 0);
        assert!(EventJournal::from_event_log("1 bogus 0 1\n").is_err());
    }

    #[test]
    fn checkpoint_text_round_trips() {
        let mut graph = DynamicGraph::new(3);
        graph.insert_edge(0, 1, 0.1).unwrap();
        graph.insert_edge(1, 2, 0.7).unwrap();
        // Churn to leave low-bit residue in the cached aggregates.
        for _ in 0..7 {
            graph.insert_edge(0, 2, 0.1).unwrap();
            graph.remove_edge(0, 2).unwrap();
        }
        let checkpoint = ServiceCheckpoint {
            epoch: 9,
            events_applied: 16,
            batches: 9,
            full_redetects: 2,
            quality: QualityFunction::cpm(0.75),
            drift: 0.1 + 0.2,
            labels: vec![0, 0, 1],
            sigma_tot: vec![1.0 + 1e-16, 0.7],
            sigma_in: vec![0.2, 0.0],
            graph,
        };
        let restored = ServiceCheckpoint::from_text(&checkpoint.to_text()).unwrap();
        assert_eq!(restored, checkpoint);
        assert_eq!(restored.quality, QualityFunction::cpm(0.75));
        assert_eq!(restored.drift.to_bits(), checkpoint.drift.to_bits());
        assert_eq!(
            restored.graph.total_edge_weight().to_bits(),
            checkpoint.graph.total_edge_weight().to_bits()
        );
    }

    #[test]
    fn checkpoint_parse_rejects_malformed_input() {
        let mut graph = DynamicGraph::new(2);
        graph.insert_edge(0, 1, 1.0).unwrap();
        let checkpoint = ServiceCheckpoint {
            epoch: 1,
            events_applied: 1,
            batches: 1,
            full_redetects: 0,
            quality: QualityFunction::default(),
            drift: 1.0,
            labels: vec![0, 1],
            sigma_tot: vec![1.0, 1.0],
            sigma_in: vec![0.0, 0.0],
            graph,
        };
        let text = checkpoint.to_text();
        // Truncation: line 0.
        let truncated: String = text.lines().take(3).map(|l| format!("{l}\n")).collect();
        assert!(matches!(
            ServiceCheckpoint::from_text(&truncated),
            Err(StreamError::Checkpoint { line: 0, .. })
        ));
        // Wrong version, including the retired v1: line 1.
        for version in ["v9", "v1"] {
            let bad = text.replace("qhdcd-service v2", &format!("qhdcd-service {version}"));
            assert!(matches!(
                ServiceCheckpoint::from_text(&bad),
                Err(StreamError::Checkpoint { line: 1, .. })
            ));
        }
        // A mangled checksum line: line 2.
        let bad = text.replace("checksum ", "checksum zz");
        assert!(matches!(
            ServiceCheckpoint::from_text(&bad),
            Err(StreamError::Checkpoint { line: 2, .. })
        ));
        // A corrupt quality line: line 7.
        let bad = text.replace("quality modularity", "quality banana");
        assert!(matches!(
            ServiceCheckpoint::from_text(&bad),
            Err(StreamError::Checkpoint { line: 7, .. })
        ));
        // A quality line with no resolution bits: also line 7 (γ=1 is
        // 3ff0000000000000).
        let bad = text.replace("quality modularity 3ff0000000000000", "quality modularity");
        assert!(matches!(
            ServiceCheckpoint::from_text(&bad),
            Err(StreamError::Checkpoint { line: 7, .. })
        ));
        // Corrupt drift bits: line 8.
        let bad = text.replace("drift ", "drift zz");
        assert!(matches!(
            ServiceCheckpoint::from_text(&bad),
            Err(StreamError::Checkpoint { line: 8, .. })
        ));
        // A bad label: line 9.
        let bad = text.replace("labels 0 1", "labels 0 x");
        assert!(matches!(
            ServiceCheckpoint::from_text(&bad),
            Err(StreamError::Checkpoint { line: 9, .. })
        ));
        // Graph-section errors carry document line numbers: the `graph`
        // marker is line 12, the embedded header is line 13.
        let bad = text.replace("dyngraph v1", "dyngraph v9");
        match ServiceCheckpoint::from_text(&bad) {
            Err(StreamError::Checkpoint { line, reason }) => {
                assert_eq!(line, 13, "reason: {reason}");
                assert!(reason.contains("in graph section"));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn silent_bit_flips_are_caught_by_the_checksum() {
        let mut graph = DynamicGraph::new(2);
        graph.insert_edge(0, 1, 1.0).unwrap();
        let checkpoint = ServiceCheckpoint {
            epoch: 1,
            events_applied: 1,
            batches: 1,
            full_redetects: 0,
            quality: QualityFunction::default(),
            drift: 1.0,
            labels: vec![0, 1],
            sigma_tot: vec![1.0, 1.0],
            sigma_in: vec![0.0, 0.0],
            graph,
        };
        let text = checkpoint.to_text();
        // Flip one hex digit of a raw-bit float (1.0 = 3ff0...): the token
        // still parses — only the checksum can tell the state is wrong.
        let flipped = text.replacen("3ff0", "3ff8", 1);
        assert_ne!(flipped, text, "the flip must hit a float");
        match ServiceCheckpoint::from_text(&flipped) {
            Err(StreamError::Checkpoint { line: 2, reason }) => {
                assert!(reason.contains("checksum mismatch"), "reason: {reason}");
            }
            other => panic!("unexpected {other:?}"),
        }
        // Flipping a counter digit is equally caught.
        let flipped = text.replacen("epoch 1", "epoch 2", 1);
        assert!(matches!(
            ServiceCheckpoint::from_text(&flipped),
            Err(StreamError::Checkpoint { line: 2, .. })
        ));
    }

    #[test]
    fn corruption_matrix_never_panics_or_partially_restores() {
        let mut graph = DynamicGraph::new(3);
        graph.insert_edge(0, 1, 0.5).unwrap();
        graph.insert_edge(1, 2, 1.5).unwrap();
        let checkpoint = ServiceCheckpoint {
            epoch: 3,
            events_applied: 4,
            batches: 3,
            full_redetects: 1,
            quality: QualityFunction::cpm(2.0),
            drift: 0.25,
            labels: vec![0, 0, 1],
            sigma_tot: vec![2.0, 1.5],
            sigma_in: vec![0.5, 0.0],
            graph,
        };
        let text = checkpoint.to_text();
        // Truncation at every byte boundary: a torn write yields a structured
        // error — never a panic, never a silently different state.
        for cut in 0..text.len() {
            match ServiceCheckpoint::from_text(&text[..cut]) {
                Err(StreamError::Checkpoint { .. }) => {}
                Ok(restored) => {
                    panic!("truncation to {cut} bytes restored {restored:?}")
                }
                Err(other) => panic!("unexpected error class {other:?}"),
            }
        }
        // Single-byte overwrite at every position (the classic bit-rot
        // model): either a structured parse error or a checksum mismatch;
        // an `Ok` is only acceptable if it restores the exact original.
        for pos in 0..text.len() {
            if text.as_bytes()[pos] == b'X' {
                continue;
            }
            let mut bytes = text.clone().into_bytes();
            bytes[pos] = b'X';
            let Ok(corrupted) = String::from_utf8(bytes) else { continue };
            match ServiceCheckpoint::from_text(&corrupted) {
                Err(StreamError::Checkpoint { .. }) => {}
                Ok(restored) => {
                    assert_eq!(restored, checkpoint, "overwrite at byte {pos} partially restored")
                }
                Err(other) => panic!("unexpected error class {other:?}"),
            }
        }
        // The journal side: truncating the event log at every byte never
        // panics, and whatever still parses is a prefix of the original
        // (a torn journal tail loses batches, it never invents them).
        let journal = sample_journal();
        let log = journal.to_event_log();
        for cut in 0..log.len() {
            if let Ok(parsed) = EventJournal::from_event_log(&log[..cut]) {
                assert!(parsed.len() <= journal.len(), "cut at {cut} grew the journal");
                assert!(parsed.num_batches() <= journal.num_batches());
            }
        }
    }
}
