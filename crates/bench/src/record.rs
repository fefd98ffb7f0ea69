//! `BENCH_quality.json`, the one record of the experiments' fixed-seed
//! quality, and the gate that holds each recorded command line to it.
//!
//! The record holds every [`Row`] of the command lines CI runs, with the
//! core count and date of the run that recorded them. A binary run with a
//! recorded command line fails when a row's Q falls by more than
//! [`Q_TOLERANCE`], a QUBO energy rises by more than [`ENERGY_TOLERANCE`]
//! relative, or a recorded row is missing or an unrecorded one appears.
//! Branch-and-bound rows and every wall time are recorded but not gated:
//! branch and bound at matched wall time is not a function of the seed.

use crate::corpus::{self, Instance, Method, Row};
use qhdcd_core::CdError;
use std::time::Duration;

/// The record, at the root of the workspace.
pub const RECORD_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_quality.json");

/// Largest drop of a row's Q that the gate lets pass.
pub const Q_TOLERANCE: f64 = 1e-3;

/// Largest rise of a row's QUBO energy that the gate lets pass, relative to
/// the recorded energy's magnitude (at least 1).
pub const ENERGY_TOLERANCE: f64 = 1e-3;

/// Runs one command line's instances, prints their rows and gates them.
#[derive(Debug)]
pub struct Recorder {
    command: String,
    rows: Vec<Row>,
}

impl Recorder {
    /// A recorder for this process: its command line is the binary's file
    /// name followed by its arguments.
    pub fn from_args() -> Self {
        let mut args = std::env::args();
        let binary = args.next().unwrap_or_default();
        let name = binary.rsplit(['/', '\\']).next().unwrap_or_default().to_string();
        let command = std::iter::once(name).chain(args).collect::<Vec<_>>().join(" ");
        Recorder { command, rows: Vec::new() }
    }

    /// Runs `method` on `instance` (see [`corpus::run`]) and keeps its row.
    ///
    /// # Errors
    ///
    /// Propagates [`corpus::run`] errors.
    pub fn run(&mut self, instance: &Instance, method: Method) -> Result<Row, CdError> {
        let row = corpus::run(&self.command, instance, method)?;
        self.rows.push(row.clone());
        Ok(row)
    }

    /// The paper's comparison on `instance`: QHD, then branch and bound given
    /// QHD's solver wall time (at least `min_limit`), then Louvain.
    ///
    /// # Errors
    ///
    /// Propagates [`corpus::run`] errors.
    pub fn run_paper_methods(
        &mut self,
        instance: &Instance,
        min_limit: Duration,
    ) -> Result<[Row; 3], CdError> {
        let qhd = self.run(instance, Method::Qhd)?;
        let limit = Duration::from_secs_f64(qhd.solver_ms / 1e3).max(min_limit);
        let exact = self.run(instance, Method::BranchAndBound(limit))?;
        Ok([qhd, exact, self.run(instance, Method::Louvain)?])
    }

    /// Prints the rows, one JSON object a line, then gates them against
    /// [`RECORD_PATH`] if the record holds this command line. Exits the
    /// process with status 1 when the gate fails or the record is unreadable.
    pub fn finish(self) {
        println!("\n## Rows of `{}`", self.command);
        for row in &self.rows {
            println!("{}", to_json(row));
        }
        let recorded = std::fs::read_to_string(RECORD_PATH)
            .map_err(|e| e.to_string())
            .and_then(|text| parse_rows(&text));
        let failures = match recorded {
            Ok(rows) => {
                let recorded: Vec<Row> =
                    rows.into_iter().filter(|row| row.command == self.command).collect();
                if recorded.is_empty() {
                    println!("quality record: `{}` is not recorded; nothing gated", self.command);
                    return;
                }
                compare(&recorded, &self.rows)
            }
            Err(e) => vec![format!("cannot read {RECORD_PATH}: {e}")],
        };
        if failures.is_empty() {
            println!("quality record: every row of `{}` holds", self.command);
            return;
        }
        for failure in &failures {
            eprintln!("quality record: {failure}");
        }
        eprintln!("quality record: `{}` FAILED on {} rows", self.command, failures.len());
        std::process::exit(1);
    }
}

/// Compares a run's rows with the recorded rows of the same command line and
/// returns one message per failure (none when the gate passes).
pub fn compare(recorded: &[Row], run: &[Row]) -> Vec<String> {
    let key =
        |r: &Row| (r.command.clone(), r.instance.clone(), r.n, r.m, r.k, r.method.clone(), r.seed);
    let label =
        |r: &Row| format!("{} / {} / seed {} (n {}, m {})", r.instance, r.method, r.seed, r.n, r.m);
    let mut failures = Vec::new();
    for old in recorded {
        let Some(new) = run.iter().find(|new| key(new) == key(old)) else {
            failures.push(format!("{}: recorded row missing from the run", label(old)));
            continue;
        };
        if old.method.starts_with("branch-and-bound") {
            continue;
        }
        if new.q.is_nan() || new.q < old.q - Q_TOLERANCE {
            failures.push(format!("{}: Q fell from {} to {}", label(old), old.q, new.q));
        }
        if let Some(energy) = old.energy {
            let bound = energy + ENERGY_TOLERANCE * energy.abs().max(1.0);
            if !new.energy.is_some_and(|e| e <= bound) {
                failures.push(format!(
                    "{}: energy rose from {energy} to {:?}",
                    label(old),
                    new.energy
                ));
            }
        }
    }
    for new in run.iter().filter(|new| !recorded.iter().any(|old| key(old) == key(new))) {
        failures.push(format!("{}: row not in the record", label(new)));
    }
    failures
}

/// The keys of a row object, in the order [`to_json`] writes them.
const KEYS: &str = "command instance n m k method seed q nmi energy solver_ms status";

/// One row as the one-line JSON object the record stores.
pub fn to_json(r: &Row) -> String {
    let text = |s: &str| format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""));
    let null = || "null".to_string();
    let values = [
        text(&r.command),
        text(&r.instance),
        r.n.to_string(),
        r.m.to_string(),
        r.k.to_string(),
        text(&r.method),
        r.seed.to_string(),
        r.q.to_string(),
        r.nmi.to_string(),
        r.energy.map_or_else(null, |e| e.to_string()),
        format!("{:.3}", r.solver_ms),
        r.status.as_deref().map_or_else(null, text),
    ];
    let fields: Vec<String> =
        KEYS.split(' ').zip(values).map(|(k, v)| format!("\"{k}\": {v}")).collect();
    format!("{{{}}}", fields.join(", "))
}

/// Parses the rows of `BENCH_quality.json`: the lines of its `rows` array,
/// each one [`to_json`] object.
///
/// # Errors
///
/// Returns the first row line that is not a [`to_json`] object, or an error
/// if the text holds no row at all.
pub fn parse_rows(text: &str) -> Result<Vec<Row>, String> {
    let lines = text.lines().map(str::trim).filter(|line| line.starts_with("{\"command\""));
    let rows: Vec<Row> = lines.map(parse_row).collect::<Result<_, _>>()?;
    if rows.is_empty() {
        return Err("no row objects, one a line".into());
    }
    Ok(rows)
}

fn parse_row(line: &str) -> Result<Row, String> {
    let bad = || format!("malformed row: {line}");
    let body = line.trim_end_matches(',').strip_prefix('{').and_then(|l| l.strip_suffix('}'));
    let pairs: Vec<&str> = body.ok_or_else(bad)?.split(", \"").collect();
    let values: Vec<&str> = KEYS
        .split(' ')
        .zip(&pairs)
        .filter_map(|(key, pair)| {
            pair.trim_start_matches('"').strip_prefix(key)?.strip_prefix("\": ")
        })
        .collect();
    if pairs.len() != values.len() || values.len() != KEYS.split(' ').count() {
        return Err(bad());
    }
    let num = |i: usize| values[i].parse::<f64>().map_err(|_| bad());
    let text = |i: usize| {
        let quoted = values[i].strip_prefix('"').and_then(|v| v.strip_suffix('"'));
        quoted.map(|v| v.replace("\\\"", "\"").replace("\\\\", "\\")).ok_or_else(bad)
    };
    Ok(Row {
        command: text(0)?,
        instance: text(1)?,
        n: num(2)? as usize,
        m: num(3)? as usize,
        k: num(4)? as usize,
        method: text(5)?,
        seed: num(6)? as u64,
        q: num(7)?,
        nmi: num(8)?,
        energy: if values[9] == "null" { None } else { Some(num(9)?) },
        solver_ms: num(10)?,
        status: if values[11] == "null" { None } else { Some(text(11)?) },
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A QHD, a branch-and-bound and a Louvain row of one instance.
    fn recorded() -> Vec<Row> {
        let row = |method: &str, q: f64, energy: &str, status: &str| {
            let line = format!(
                "{{\"command\": \"exp_table2 --scale 16 --repeats 1\", \"instance\": \"facebook\", \
                 \"n\": 252, \"m\": 5501, \"k\": 4, \"method\": \"{method}\", \"seed\": 7, \"q\": {q}, \
                 \"nmi\": 0.75, \"energy\": {energy}, \"solver_ms\": 12.500, \"status\": {status}}}"
            );
            parse_rows(&line).unwrap().remove(0)
        };
        vec![
            row("qhd-direct", 0.6, "-120", "\"heuristic\""),
            row("branch-and-bound-direct", 0.3, "-80", "\"time-limit\""),
            row("louvain", 0.62, "null", "null"),
        ]
    }

    /// The number of failures after `change` edits the run.
    fn failures(change: impl FnOnce(&mut Vec<Row>)) -> usize {
        let mut run = recorded();
        change(&mut run);
        compare(&recorded(), &run).len()
    }

    #[test]
    fn the_gate_fails_on_a_q_drop_or_energy_rise_beyond_its_tolerance() {
        assert_eq!(failures(|_| ()), 0);
        for i in [0, 2] {
            assert_eq!(failures(|run| run[i].q -= 2e-3), 1, "row {i}");
            assert_eq!(failures(|run| run[i].q -= 5e-4), 0, "row {i}");
            assert_eq!(failures(|run| run[i].q += 0.1), 0, "row {i}");
            assert_eq!(failures(|run| run[i].q = f64::NAN), 1, "row {i}");
        }
        // 1e-3 relative to |−120| is 0.12.
        assert_eq!(failures(|run| run[0].energy = Some(-119.8)), 1);
        assert_eq!(failures(|run| run[0].energy = Some(-119.9)), 0);
        assert_eq!(failures(|run| run[0].energy = None), 1);
    }

    #[test]
    fn a_changed_branch_and_bound_row_passes() {
        let changed = |run: &mut Vec<Row>| {
            (run[1].q, run[1].energy, run[1].solver_ms) = (0.0, Some(1e9), 1e6);
            run[1].status = Some("optimal".into());
        };
        assert_eq!(failures(changed), 0);
    }

    #[test]
    fn a_missing_or_extra_row_fails() {
        assert_eq!(failures(|run| drop(run.remove(1))), 1);
        assert_eq!(
            failures(|run| run.push(Row { instance: "tvshow".into(), ..run[2].clone() })),
            1
        );
        assert_eq!(failures(|run| run[2].seed += 1), 2);
    }

    #[test]
    fn rows_round_trip_through_json_bit_for_bit() {
        let mut rows = recorded();
        rows[0].q = 0.1 + 0.2;
        rows[0].instance = "penalty \"x\" 0.05".into();
        let lines: Vec<String> = rows.iter().map(to_json).collect();
        let text = format!("{{\"nproc\": 2, \"rows\": [\n{}\n]}}\n", lines.join(",\n"));
        let parsed = parse_rows(&text).unwrap();
        assert_eq!(parsed, rows);
        assert_eq!(parsed[0].q.to_bits(), rows[0].q.to_bits());
        assert!(parse_rows(&text.replace("\"nmi\"", "\"NMI\"")).is_err());
        assert!(parse_rows(&text.replace(", \"status\": null", "")).is_err());
        assert!(parse_rows(&text.replace("0.75", "x")).is_err());
        assert!(parse_rows("{\"nproc\": 2, \"rows\": []}").is_err());
    }

    #[test]
    fn the_committed_record_parses() {
        let rows = parse_rows(&std::fs::read_to_string(RECORD_PATH).unwrap()).unwrap();
        assert!(!rows.is_empty());
    }
}
