//! Plain edge-list and edge-event-log I/O.
//!
//! The edge-list format is one edge per line: `u v [weight]`, whitespace
//! separated. Lines starting with `#` or `%` and blank lines are ignored. Node
//! ids must be non-negative integers; the graph gets `max_id + 1` nodes. This
//! matches the SNAP edge-list convention used by the datasets in the paper.
//! Because the node count is taken from the ids, it is bounded by the input:
//! an id whose node count would exceed max(input length in bytes, 2²⁰) is an
//! error, so a stray huge id cannot ask for terabytes of per-node storage,
//! while small hand-written inputs such as `0 9` still parse.
//!
//! The event-log format ([`parse_event_log`]) carries a stream of mutations
//! for the dynamic-graph layer: one event per line, optionally prefixed by a
//! non-decreasing integer timestamp:
//!
//! ```text
//! [t] add u v [w]    # insert edge (weight defaults to 1.0)
//! [t] del u v        # remove edge
//! [t] upd u v w      # set absolute edge weight
//! ```

use crate::{EdgeEvent, Graph, GraphBuilder, GraphError};
use std::fs;
use std::io::Write as _;
use std::path::Path;

/// Parses a graph from an edge-list string.
///
/// # Errors
///
/// Returns [`GraphError::ParseEdgeList`] for malformed lines and for node ids
/// beyond the bound in the [module docs](self), and
/// [`GraphError::InvalidEdgeWeight`] for negative/NaN weights.
///
/// # Example
///
/// ```
/// use qhdcd_graph::io;
///
/// # fn main() -> Result<(), qhdcd_graph::GraphError> {
/// let g = io::parse_edge_list("# comment\n0 1\n1 2 2.5\n")?;
/// assert_eq!(g.num_nodes(), 3);
/// assert_eq!(g.total_edge_weight(), 3.5);
/// # Ok(())
/// # }
/// ```
pub fn parse_edge_list(text: &str) -> Result<Graph, GraphError> {
    let max_nodes = text.len().max(1 << 20);
    let mut edges: Vec<(usize, usize, f64)> = Vec::new();
    let mut num_nodes = 0usize;
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') || line.starts_with('%') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let parse_node = |tok: Option<&str>, lineno: usize| -> Result<usize, GraphError> {
            tok.ok_or_else(|| GraphError::ParseEdgeList {
                line: lineno + 1,
                reason: "expected two node ids".into(),
            })?
            .parse::<usize>()
            .map_err(|e| GraphError::ParseEdgeList { line: lineno + 1, reason: e.to_string() })
        };
        let u = parse_node(parts.next(), lineno)?;
        let v = parse_node(parts.next(), lineno)?;
        let w = match parts.next() {
            Some(tok) => tok.parse::<f64>().map_err(|e| GraphError::ParseEdgeList {
                line: lineno + 1,
                reason: e.to_string(),
            })?,
            None => 1.0,
        };
        if parts.next().is_some() {
            return Err(GraphError::ParseEdgeList {
                line: lineno + 1,
                reason: "too many fields (expected `u v [weight]`)".into(),
            });
        }
        let id = u.max(v);
        if id >= max_nodes {
            return Err(GraphError::ParseEdgeList {
                line: lineno + 1,
                reason: format!(
                    "node id {id} needs more than the {max_nodes} nodes this input may have \
                     (max(input bytes, 2^20))"
                ),
            });
        }
        num_nodes = num_nodes.max(id + 1);
        edges.push((u, v, w));
    }
    GraphBuilder::from_edges(num_nodes, edges)
}

/// Reads a graph from an edge-list file.
///
/// # Errors
///
/// Returns [`GraphError::ParseEdgeList`] if the file cannot be read or parsed.
pub fn read_edge_list<P: AsRef<Path>>(path: P) -> Result<Graph, GraphError> {
    let text = fs::read_to_string(path.as_ref()).map_err(|e| GraphError::ParseEdgeList {
        line: 0,
        reason: format!("cannot read {}: {e}", path.as_ref().display()),
    })?;
    parse_edge_list(&text)
}

/// Serialises a graph as an edge-list string (one `u v weight` line per edge,
/// `u <= v`, weights printed only when different from 1.0).
pub fn to_edge_list(graph: &Graph) -> String {
    let mut out = String::new();
    out.push_str(&format!("# nodes {} edges {}\n", graph.num_nodes(), graph.num_edges()));
    for (u, v, w) in graph.edges() {
        if (w - 1.0).abs() < 1e-15 {
            out.push_str(&format!("{u} {v}\n"));
        } else {
            out.push_str(&format!("{u} {v} {w}\n"));
        }
    }
    out
}

/// Writes a graph to an edge-list file.
///
/// # Errors
///
/// Returns [`GraphError::ParseEdgeList`] (with line 0) if the file cannot be written.
pub fn write_edge_list<P: AsRef<Path>>(graph: &Graph, path: P) -> Result<(), GraphError> {
    let mut file = fs::File::create(path.as_ref()).map_err(|e| GraphError::ParseEdgeList {
        line: 0,
        reason: format!("cannot create {}: {e}", path.as_ref().display()),
    })?;
    file.write_all(to_edge_list(graph).as_bytes()).map_err(|e| GraphError::ParseEdgeList {
        line: 0,
        reason: format!("cannot write {}: {e}", path.as_ref().display()),
    })
}

/// Parses a timestamped edge-event log into replayable [`EdgeEvent`]s.
///
/// Each non-comment line is `[timestamp] op args` where `op` is `add u v [w]`
/// (weight defaults to 1.0), `del u v`, `upd u v w` or `del_node u` (a batched
/// node deletion). The optional leading timestamp is a non-negative integer;
/// when present, timestamps must be non-decreasing down the file (events are a
/// replay log, not a set). Lines starting with `#` or `%` and blank lines are
/// ignored.
///
/// # Errors
///
/// Returns [`GraphError::ParseEventLog`] with the 1-based line number for
/// unknown operations, missing or malformed fields, trailing fields,
/// non-finite/negative weights and out-of-order timestamps.
///
/// # Example
///
/// ```
/// use qhdcd_graph::{io, EdgeEvent};
///
/// # fn main() -> Result<(), qhdcd_graph::GraphError> {
/// let events = io::parse_event_log("# warm-up\n0 add 0 1\n3 add 1 2 2.5\n7 del 0 1\n")?;
/// assert_eq!(events.len(), 3);
/// assert_eq!(events[2], EdgeEvent::Remove { u: 0, v: 1 });
/// # Ok(())
/// # }
/// ```
pub fn parse_event_log(text: &str) -> Result<Vec<EdgeEvent>, GraphError> {
    Ok(parse_timed_event_log(text)?.into_iter().map(|(_, event)| event).collect())
}

/// Parses a timestamped edge-event log, keeping the timestamps.
///
/// Same grammar and errors as [`parse_event_log`]; lines without a timestamp
/// inherit the previous line's timestamp (0 at the start of the log). The
/// streaming service journal uses timestamps as *batch offsets*: consecutive
/// events with the same timestamp were applied as one batch, so checkpoint
/// recovery can replay the log with the exact batch boundaries of the
/// original run.
///
/// # Errors
///
/// See [`parse_event_log`].
pub fn parse_timed_event_log(text: &str) -> Result<Vec<(u64, EdgeEvent)>, GraphError> {
    let err = |line: usize, reason: String| GraphError::ParseEventLog { line: line + 1, reason };
    let mut events = Vec::new();
    let mut last_timestamp: u64 = 0;
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') || line.starts_with('%') {
            continue;
        }
        let mut toks: Vec<&str> = line.split_whitespace().collect();
        // Optional leading timestamp: a token that parses as u64.
        if let Ok(t) = toks[0].parse::<u64>() {
            toks.remove(0);
            if t < last_timestamp {
                return Err(err(
                    lineno,
                    format!(
                        "timestamp {t} is smaller than the previous timestamp {last_timestamp}"
                    ),
                ));
            }
            last_timestamp = t;
        }
        let Some((&op, args)) = toks.split_first() else {
            return Err(err(lineno, "expected an operation after the timestamp".into()));
        };
        let node = |idx: usize, name: &str| -> Result<usize, GraphError> {
            args.get(idx)
                .ok_or_else(|| err(lineno, format!("missing node id `{name}`")))?
                .parse::<usize>()
                .map_err(|e| err(lineno, format!("invalid node id `{name}`: {e}")))
        };
        let weight = |idx: usize, required: bool| -> Result<Option<f64>, GraphError> {
            match args.get(idx) {
                Some(tok) => {
                    let w = tok
                        .parse::<f64>()
                        .map_err(|e| err(lineno, format!("invalid weight: {e}")))?;
                    if !w.is_finite() || w < 0.0 {
                        return Err(err(
                            lineno,
                            format!("weight {w} is not a finite non-negative number"),
                        ));
                    }
                    Ok(Some(w))
                }
                None if required => Err(err(lineno, "missing weight".into())),
                None => Ok(None),
            }
        };
        let (event, arity) = match op {
            "add" => {
                let e = EdgeEvent::Add {
                    u: node(0, "u")?,
                    v: node(1, "v")?,
                    weight: weight(2, false)?.unwrap_or(1.0),
                };
                (e, if args.len() > 2 { 3 } else { 2 })
            }
            "del" => (EdgeEvent::Remove { u: node(0, "u")?, v: node(1, "v")? }, 2),
            "upd" => (
                EdgeEvent::Update {
                    u: node(0, "u")?,
                    v: node(1, "v")?,
                    weight: weight(2, true)?.expect("required"),
                },
                3,
            ),
            "del_node" => (EdgeEvent::RemoveNode { u: node(0, "u")? }, 1),
            other => return Err(err(lineno, format!("unknown operation `{other}`"))),
        };
        if args.len() > arity {
            return Err(err(lineno, "too many fields".into()));
        }
        events.push((last_timestamp, event));
    }
    Ok(events)
}

/// Serializes timestamped events into the [`parse_timed_event_log`] format.
///
/// Weights are printed with Rust's shortest round-trip `f64` formatting, so a
/// parse of the output reproduces every event bit-exactly — the property the
/// streaming service's journal relies on for deterministic crash replay.
pub fn to_event_log(events: &[(u64, EdgeEvent)]) -> String {
    let mut out = String::new();
    for &(t, event) in events {
        match event {
            EdgeEvent::Add { u, v, weight } => out.push_str(&format!("{t} add {u} {v} {weight}\n")),
            EdgeEvent::Remove { u, v } => out.push_str(&format!("{t} del {u} {v}\n")),
            EdgeEvent::Update { u, v, weight } => {
                out.push_str(&format!("{t} upd {u} {v} {weight}\n"))
            }
            EdgeEvent::RemoveNode { u } => out.push_str(&format!("{t} del_node {u}\n")),
        }
    }
    out
}

/// Reads an edge-event log from a file (see [`parse_event_log`]).
///
/// # Errors
///
/// Returns [`GraphError::ParseEventLog`] if the file cannot be read or parsed.
pub fn read_event_log<P: AsRef<Path>>(path: P) -> Result<Vec<EdgeEvent>, GraphError> {
    let text = fs::read_to_string(path.as_ref()).map_err(|e| GraphError::ParseEventLog {
        line: 0,
        reason: format!("cannot read {}: {e}", path.as_ref().display()),
    })?;
    parse_event_log(&text)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn parse_simple_edge_list() {
        let g = parse_edge_list("0 1\n1 2\n2 0\n").unwrap();
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 3);
    }

    #[test]
    fn parse_with_comments_weights_and_blank_lines() {
        let g =
            parse_edge_list("# header\n\n% matrix-market style comment\n0 3 2.0\n1 2\n").unwrap();
        assert_eq!(g.num_nodes(), 4);
        assert_eq!(g.edge_weight(0, 3), Some(2.0));
        assert_eq!(g.edge_weight(1, 2), Some(1.0));
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        for text in [
            "0 1\nnot_a_node 2\n".to_string(),
            format!("0 1\n0 {}\n", usize::MAX),
            // 2^61 − 1 nodes overflow the node-weight allocation, 10^12 would
            // ask for terabytes: both exceed the input-size bound.
            "0 1\n0 2305843009213693951\n".to_string(),
            "0 1\n1000000000000 0\n".to_string(),
        ] {
            match parse_edge_list(&text).unwrap_err() {
                GraphError::ParseEdgeList { line, .. } => assert_eq!(line, 2, "{text:?}"),
                other => panic!("unexpected error {other:?}"),
            }
        }
        assert!(parse_edge_list("0\n").is_err());
        assert!(parse_edge_list("0 1 1.0 extra\n").is_err());
        assert!(parse_edge_list("0 1 abc\n").is_err());
        // The bound leaves toy inputs alone.
        assert_eq!(parse_edge_list("0 9\n").unwrap().num_nodes(), 10);
    }

    #[test]
    fn empty_input_gives_empty_graph() {
        let g = parse_edge_list("# nothing here\n").unwrap();
        assert_eq!(g.num_nodes(), 0);
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn round_trip_through_string() {
        let original = generators::karate_club();
        let text = to_edge_list(&original);
        let parsed = parse_edge_list(&text).unwrap();
        assert_eq!(parsed.num_nodes(), original.num_nodes());
        assert_eq!(parsed.num_edges(), original.num_edges());
        assert_eq!(parsed.total_edge_weight(), original.total_edge_weight());
    }

    #[test]
    fn round_trip_through_file() {
        let g = generators::ring_of_cliques(3, 4).unwrap().graph;
        let dir = std::env::temp_dir().join("qhdcd_graph_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ring.edges");
        write_edge_list(&g, &path).unwrap();
        let back = read_edge_list(&path).unwrap();
        assert_eq!(back.num_edges(), g.num_edges());
        assert_eq!(back.num_nodes(), g.num_nodes());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn read_missing_file_is_an_error() {
        assert!(read_edge_list("/nonexistent/definitely_missing.edges").is_err());
    }

    #[test]
    fn parse_event_log_happy_paths() {
        let events = parse_event_log(
            "# comment\n\n% another comment\nadd 0 1\n5 add 1 2 2.5\n5 upd 1 2 0.5\n9 del 1 2\n",
        )
        .unwrap();
        assert_eq!(
            events,
            vec![
                EdgeEvent::Add { u: 0, v: 1, weight: 1.0 },
                EdgeEvent::Add { u: 1, v: 2, weight: 2.5 },
                EdgeEvent::Update { u: 1, v: 2, weight: 0.5 },
                EdgeEvent::Remove { u: 1, v: 2 },
            ]
        );
        assert!(parse_event_log("").unwrap().is_empty());
    }

    #[test]
    fn parse_event_log_replays_onto_a_dynamic_graph() {
        let events = parse_event_log("0 add 0 1\n1 add 1 2\n2 add 0 2 2.0\n3 del 0 1\n").unwrap();
        let mut g = crate::DynamicGraph::new(3);
        g.apply_events(&events).unwrap();
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.total_edge_weight(), 3.0);
    }

    #[test]
    fn parse_event_log_rejects_malformed_input() {
        let line_of = |text: &str| match parse_event_log(text).unwrap_err() {
            GraphError::ParseEventLog { line, .. } => line,
            other => panic!("unexpected error {other:?}"),
        };
        assert_eq!(line_of("add 0 1\nfrobnicate 0 1\n"), 2); // unknown op
        assert_eq!(line_of("add 0\n"), 1); // missing v
        assert_eq!(line_of("add x 1\n"), 1); // bad node id
        assert_eq!(line_of("add 0 1 oops\n"), 1); // bad weight
        assert_eq!(line_of("add 0 1 -2.0\n"), 1); // negative weight
        assert_eq!(line_of("add 0 1 inf\n"), 1); // non-finite weight
        assert_eq!(line_of("upd 0 1\n"), 1); // upd requires weight
        assert_eq!(line_of("del 0 1 1.0\n"), 1); // trailing field
        assert_eq!(line_of("add 0 1 1.0 extra\n"), 1); // trailing field
        assert_eq!(line_of("7 add 0 1\n3 add 1 2\n"), 2); // timestamps go backwards
        assert_eq!(line_of("9\n"), 1); // timestamp with no op
        assert_eq!(line_of("del_node\n"), 1); // missing node id
        assert_eq!(line_of("del_node x\n"), 1); // bad node id
        assert_eq!(line_of("del_node 0 1\n"), 1); // trailing field
        assert_eq!(line_of("3 del_node 0 1.5\n"), 1); // trailing field
    }

    #[test]
    fn parse_del_node_events() {
        let events = parse_event_log("0 add 0 1\n1 del_node 0\n1 del_node 1\n").unwrap();
        assert_eq!(
            events,
            vec![
                EdgeEvent::Add { u: 0, v: 1, weight: 1.0 },
                EdgeEvent::RemoveNode { u: 0 },
                EdgeEvent::RemoveNode { u: 1 },
            ]
        );
        let mut g = crate::DynamicGraph::new(2);
        g.apply_events(&events).unwrap();
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.num_nodes(), 2, "deleted nodes remain as tombstones");
    }

    #[test]
    fn timed_event_log_round_trips_with_batch_offsets() {
        let timed = vec![
            (0u64, EdgeEvent::Add { u: 0, v: 1, weight: 1.0 }),
            (0, EdgeEvent::Add { u: 1, v: 2, weight: 0.1 + 0.2 }), // non-representable decimal
            (1, EdgeEvent::Update { u: 1, v: 2, weight: 2.5 }),
            (2, EdgeEvent::Remove { u: 0, v: 1 }),
            (2, EdgeEvent::RemoveNode { u: 2 }),
        ];
        let text = to_event_log(&timed);
        let back = parse_timed_event_log(&text).unwrap();
        assert_eq!(back.len(), timed.len());
        for ((ta, ea), (tb, eb)) in timed.iter().zip(back.iter()) {
            assert_eq!(ta, tb);
            // Weight round trips are bit-exact (shortest round-trip printing).
            match (ea, eb) {
                (EdgeEvent::Add { weight: wa, .. }, EdgeEvent::Add { weight: wb, .. })
                | (EdgeEvent::Update { weight: wa, .. }, EdgeEvent::Update { weight: wb, .. }) => {
                    assert_eq!(wa.to_bits(), wb.to_bits());
                }
                _ => {}
            }
            assert_eq!(ea, eb);
        }
        // Untimestamped lines inherit the previous timestamp.
        let inherited = parse_timed_event_log("add 0 1\n5 add 1 2\nadd 2 3\n").unwrap();
        assert_eq!(inherited.iter().map(|&(t, _)| t).collect::<Vec<_>>(), vec![0, 5, 5]);
    }

    #[test]
    fn event_log_round_trip_through_file() {
        let dir = std::env::temp_dir().join("qhdcd_graph_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("stream.events");
        std::fs::write(&path, "0 add 0 1\n1 del 0 1\n").unwrap();
        let events = read_event_log(&path).unwrap();
        assert_eq!(events.len(), 2);
        std::fs::remove_file(&path).ok();
        assert!(read_event_log("/nonexistent/definitely_missing.events").is_err());
    }
}
