use qhdcd_core::CdError;
use qhdcd_graph::GraphError;
use std::error::Error;
use std::fmt;

/// Errors produced by the streaming subsystem.
#[derive(Debug, Clone, PartialEq)]
pub enum StreamError {
    /// An error bubbled up from the graph substrate (snapshotting, partition
    /// construction).
    Graph(GraphError),
    /// An error bubbled up from a full re-detect.
    Detect(CdError),
    /// A batch failed its check at the event `index`; no event of the batch
    /// was applied.
    EventFailed {
        /// Position of the failing event within the batch.
        index: usize,
        /// The underlying graph error.
        source: GraphError,
    },
    /// The streaming configuration is inconsistent.
    InvalidConfig {
        /// Human readable description of the problem.
        reason: String,
    },
    /// The service's bounded ingestion queue is full; the caller should retry
    /// after the writer drains a batch.
    Backpressure {
        /// Events currently queued.
        queued: usize,
        /// Capacity of the bounded queue.
        capacity: usize,
    },
    /// The service was closed; no further events are accepted.
    ServiceClosed,
    /// A blocking submission gave up after its timeout elapsed with the queue
    /// still full.
    SubmitTimeout {
        /// Events queued when the submission gave up.
        queued: usize,
        /// Capacity of the bounded queue.
        capacity: usize,
    },
    /// A serialized service checkpoint could not be parsed.
    Checkpoint {
        /// 1-based line number of the offending entry.
        line: usize,
        /// Human readable description of the problem.
        reason: String,
    },
}

impl fmt::Display for StreamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StreamError::Graph(e) => write!(f, "graph error: {e}"),
            StreamError::Detect(e) => write!(f, "re-detect error: {e}"),
            StreamError::EventFailed { index, source } => {
                write!(f, "event {index} failed: {source}")
            }
            StreamError::InvalidConfig { reason } => write!(f, "invalid configuration: {reason}"),
            StreamError::Backpressure { queued, capacity } => {
                write!(f, "ingestion queue is full ({queued}/{capacity} events queued)")
            }
            StreamError::ServiceClosed => write!(f, "streaming service is closed"),
            StreamError::SubmitTimeout { queued, capacity } => {
                write!(f, "submission timed out ({queued}/{capacity} events still queued)")
            }
            StreamError::Checkpoint { line, reason } => {
                write!(f, "failed to parse service checkpoint at line {line}: {reason}")
            }
        }
    }
}

impl Error for StreamError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            StreamError::Graph(e) | StreamError::EventFailed { source: e, .. } => Some(e),
            StreamError::Detect(e) => Some(e),
            StreamError::InvalidConfig { .. }
            | StreamError::Backpressure { .. }
            | StreamError::ServiceClosed
            | StreamError::SubmitTimeout { .. }
            | StreamError::Checkpoint { .. } => None,
        }
    }
}

impl From<GraphError> for StreamError {
    fn from(e: GraphError) -> Self {
        StreamError::Graph(e)
    }
}

impl From<CdError> for StreamError {
    fn from(e: CdError) -> Self {
        StreamError::Detect(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source_chain() {
        let e: StreamError = GraphError::EmptyPartition.into();
        assert!(e.to_string().contains("graph error"));
        assert!(e.source().is_some());
        let e =
            StreamError::EventFailed { index: 3, source: GraphError::EdgeNotFound { u: 0, v: 1 } };
        assert!(e.to_string().contains("event 3"));
        assert!(e.source().is_some());
        let e: StreamError = CdError::InvalidConfig { reason: "x".into() }.into();
        assert!(e.to_string().contains("re-detect"));
        let e = StreamError::InvalidConfig { reason: "bad threshold".into() };
        assert!(e.to_string().contains("bad threshold"));
        assert!(e.source().is_none());
        let e = StreamError::Backpressure { queued: 64, capacity: 64 };
        assert!(e.to_string().contains("64/64"));
        assert!(e.source().is_none());
        let e = StreamError::ServiceClosed;
        assert!(e.to_string().contains("closed"));
        let e = StreamError::SubmitTimeout { queued: 8, capacity: 8 };
        assert!(e.to_string().contains("timed out"));
        assert!(e.source().is_none());
        let e = StreamError::Checkpoint { line: 4, reason: "bad token".into() };
        assert!(e.to_string().contains("line 4"));
        assert!(e.source().is_none());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<StreamError>();
    }
}
