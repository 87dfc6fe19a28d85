//! The CI contract gate: diff a fresh `exp … --json` run against the
//! committed `BENCH_engine.json` baseline.
//!
//! Both sides are JSON-Lines — one table document per line, as emitted by
//! [`crate::Table::emit`] under `--json`:
//!
//! ```json
//! {"experiment":"…","headers":["sched","legal@",…],"rows":[["sync","1402",…],…]}
//! ```
//!
//! The committed file holds only numbers that are a function of (code,
//! seed), and the printer writes a document the same way every time, so
//! the gate is a line comparison: every baseline line must reappear in the
//! fresh run byte for byte, matched by its leading `"experiment"` title.
//! Any drift is a behavior change, never noise. Host time is measured by
//! the repo benchmark (`BENCHMARK.json`), not here.
//!
//! The one other rule: a baseline document whose title contains `[full]`
//! is committed from a full-size run; when a fresh smoke run lacks it, it
//! is skipped rather than failed, and it gates whenever a full fresh run
//! supplies it. Documents only present in the fresh run are ignored (new
//! experiments do not need an old baseline).

/// Outcome of a baseline diff.
#[derive(Debug, Default)]
pub struct CheckReport {
    /// Human-readable failure descriptions (empty = gate passes).
    pub failures: Vec<String>,
    /// Baseline documents compared.
    pub compared: usize,
    /// Baseline `[full]` documents the fresh run did not supply.
    pub skipped: usize,
}

impl CheckReport {
    /// True iff the gate passes.
    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }
}

/// The `(title, body)` documents of a JSON-Lines stream. Blank lines are
/// skipped; a line that is not a whole table document is an error (a
/// truncated or malformed baseline must fail the gate loudly, not count a
/// `[full]` document it cannot read as skipped).
fn documents(input: &str) -> Result<Vec<(&str, &str)>, String> {
    let lines = input.lines().map(str::trim).enumerate();
    lines
        .filter(|(_, line)| !line.is_empty())
        .map(|(k, line)| document(line).map_err(|e| format!("line {}: {e}", k + 1)))
        .collect()
}

/// A whole table document line's (still escaped) title and body, or why
/// the line is not one.
fn document(line: &str) -> Result<(&str, &str), &'static str> {
    let (title, body) = split_title(line).ok_or("not a whole table document")?;
    let (headers, rows) = cells(body);
    if rows.is_empty() || rows.iter().any(|row| row.len() != headers.len()) {
        return Err("malformed row (no rows, or not one cell per header)");
    }
    Ok((title, body))
}

/// A table document line split into its (still escaped) title and the
/// rest. Outside its strings the rest is JSON punctuation only, every
/// quote closed: a bare number or a cut-off string is not a cell the
/// printer wrote.
fn split_title(line: &str) -> Option<(&str, &str)> {
    let rest = line.strip_prefix("{\"experiment\":\"")?;
    if !(line.ends_with("]}") && line.contains("],\"rows\":[")) {
        return None;
    }
    // The closing quote is the first one not escaped.
    let mut escaped = false;
    let (end, _) = rest.char_indices().find(|&(_, c)| {
        let close = c == '"' && !escaped;
        escaped = c == '\\' && !escaped;
        close
    })?;
    let body = &rest[end + 1..];
    let punctuation = |p: &str| p.chars().all(|c| "{}[],:".contains(c));
    let closed = body.split('"').count() % 2 == 1;
    (closed && body.split('"').step_by(2).all(punctuation)).then_some((&rest[..end], body))
}

/// The headers and row cells of a document's body (the line after its
/// title). The printer stringifies every cell and no header or cell
/// carries a quote, so after `split('"')` the odd pieces are the strings
/// and the even ones the punctuation between them: a string followed by
/// `:` is a key, and one preceded by an opening `[` starts a row.
fn cells(body: &str) -> (Vec<&str>, Vec<Vec<&str>>) {
    let parts: Vec<&str> = body.split('"').collect();
    let (mut headers, mut rows, mut key) = (Vec::new(), Vec::<Vec<&str>>::new(), "");
    for k in (1..parts.len()).step_by(2) {
        match parts[k] {
            s if parts.get(k + 1).is_some_and(|p| p.starts_with(':')) => key = s,
            s if key == "headers" => headers.push(s),
            s if key == "rows" && parts[k - 1].ends_with('[') => rows.push(vec![s]),
            s if key == "rows" => {
                if let Some(row) = rows.last_mut() {
                    row.push(s);
                }
            }
            _ => {}
        }
    }
    (headers, rows)
}

/// Name the first difference between two bodies of one document: the
/// shape change, or the first cell that drifted, with its row and column.
fn first_difference(base: &str, fresh: &str) -> String {
    let ((bh, brows), (fh, frows)) = (cells(base), cells(fresh));
    if bh != fh {
        return format!("headers changed ({bh:?} -> {fh:?}) — regenerate the baseline");
    }
    if brows.len() != frows.len() {
        return format!("row count changed ({} -> {})", brows.len(), frows.len());
    }
    for (r, (brow, frow)) in brows.iter().zip(&frows).enumerate() {
        for ((header, b), f) in bh.iter().zip(brow).zip(frow) {
            if b != f {
                return format!("row {r} `{header}`: {b:?} -> {f:?} (metric drifted)");
            }
        }
    }
    "document changed outside its headers and cells".into()
}

/// Diff `fresh` against `baseline` (both JSON-Lines table streams): every
/// baseline document must reappear in the fresh run as the identical line
/// (absent `[full]` documents excepted). Titles match, so comparing the
/// bodies compares the lines.
pub fn check_regression(baseline: &str, fresh: &str) -> CheckReport {
    let mut report = CheckReport::default();
    let (base_docs, fresh_docs) = match (documents(baseline), documents(fresh)) {
        (Ok(b), Ok(f)) => (b, f),
        (Err(e), _) => {
            report.failures.push(format!("baseline unreadable: {e}"));
            return report;
        }
        (_, Err(e)) => {
            report.failures.push(format!("fresh run unreadable: {e}"));
            return report;
        }
    };
    for (title, base) in base_docs {
        match fresh_docs.iter().find(|&&(t, _)| t == title) {
            Some(&(_, fresh)) => {
                report.compared += 1;
                if base != fresh {
                    let diff = first_difference(base, fresh);
                    report.failures.push(format!("{title:?}: {diff}"));
                }
            }
            // `[full]`-tagged documents are committed from full-size runs
            // (e.g. the E14b 1M-host rows) that CI's `--smoke` pass never
            // reproduces; their absence from a fresh run is expected, not
            // a truncation. They still gate when a full fresh run is fed.
            None if title.contains("[full]") => report.skipped += 1,
            None => report
                .failures
                .push(format!("experiment missing from fresh run: {title:?}")),
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(bytes: &str, rounds: &str) -> String {
        format!(
            "{{\"experiment\":\"E14b: memory\",\"headers\":[\"hosts\",\"rounds\",\"bytes/host\"],\
             \"rows\":[[\"65536\",\"{rounds}\",\"{bytes}\"]]}}\n"
        )
    }

    #[test]
    fn documents_are_keyed_by_their_title() {
        let line = "{\"experiment\":\"E13a: hops ≤ 2·log₂N \\\"q\\\"\",\"headers\":[\"a×\"],\
                    \"rows\":[[\"1\"]]}\n";
        let docs = documents(line).expect("parses");
        let body = ",\"headers\":[\"a×\"],\"rows\":[[\"1\"]]}";
        assert_eq!(docs, [("E13a: hops ≤ 2·log₂N \\\"q\\\"", body)]);
        let line = doc("1157", "64");
        let (_, body) = documents(&line).expect("parses")[0];
        let (headers, rows) = cells(body);
        assert_eq!(headers, ["hosts", "rounds", "bytes/host"]);
        assert_eq!(rows, [["65536", "64", "1157"]]);
    }

    #[test]
    fn identical_runs_pass() {
        let r = check_regression(&doc("1157", "64"), &doc("1157", "64"));
        assert!(r.ok(), "{:?}", r.failures);
        assert_eq!((r.compared, r.skipped), (1, 0));
    }

    #[test]
    fn any_drift_fails_exactly() {
        // A counter, and a bytes/host cell 5 % off: no cell has a tolerance.
        for (base, fresh, cell) in [
            (
                doc("1157", "64"),
                doc("1157", "65"),
                "row 0 `rounds`: \"64\" -> \"65\"",
            ),
            (doc("1000", "64"), doc("1050", "64"), "row 0 `bytes/host`"),
        ] {
            let r = check_regression(&base, &fresh);
            assert!(!r.ok());
            assert!(r.failures[0].contains("metric drifted"), "{:?}", r.failures);
            assert!(r.failures[0].contains(cell), "{:?}", r.failures);
        }
    }

    #[test]
    fn missing_experiment_and_shape_changes_fail() {
        let r = check_regression(&doc("1", "2"), "");
        assert!(!r.ok(), "missing doc must fail");
        let two_rows = doc("1", "2").replace("\"rows\":[[", "\"rows\":[[\"256\",\"2\",\"1\"],[");
        let r = check_regression(&two_rows, &doc("1", "2"));
        assert!(
            r.failures[0].contains("row count changed (2 -> 1)"),
            "{:?}",
            r.failures
        );
        let renamed = doc("1", "2").replace("\"rounds\"", "\"epochs\"");
        let r = check_regression(&doc("1", "2"), &renamed);
        assert!(
            r.failures[0].contains("headers changed"),
            "{:?}",
            r.failures
        );
    }

    #[test]
    fn full_tagged_documents_are_skipped_when_absent_and_gated_when_present() {
        let full = doc("1295", "64").replace("E14b:", "E14b [full]:");
        // Absent from a fresh smoke run: skipped, not failed.
        let r = check_regression(&full, "");
        assert!(r.ok(), "{:?}", r.failures);
        assert_eq!(r.skipped, 1, "the whole document counts as skipped");
        // Present in a full fresh run: gated exactly.
        assert!(check_regression(&full, &full).ok());
        assert!(!check_regression(&full, &full.replace("1295", "1294")).ok());
        // Untagged documents still fail loudly when missing.
        assert!(!check_regression(&doc("1295", "64"), "").ok());
    }

    #[test]
    fn real_baseline_roundtrip_passes_against_itself() {
        let r = check_regression(COMMITTED, COMMITTED);
        assert!(r.ok(), "{:?}", r.failures);
        assert!(r.compared > 0, "baseline must contain comparable documents");
    }

    /// Host time is gated by the repo benchmark alone: a wall-clock cell in
    /// the exact contract would fail every fresh run.
    #[test]
    fn committed_baseline_has_no_wall_clock_columns() {
        // `documents` also holds every row to one cell per header.
        for (title, body) in documents(COMMITTED).expect("baseline parses") {
            for h in cells(body).0 {
                assert!(
                    !(h.contains("ns/")
                        || h.ends_with("/s")
                        || ["speedup", "cores", "steals"].contains(&h)),
                    "{title:?}: wall-clock column `{h}`"
                );
            }
        }
    }

    const COMMITTED: &str = include_str!("../../../BENCH_engine.json");

    #[test]
    fn short_row_fails_with_diagnostic_not_panic() {
        let bad = "{\"experiment\":\"E14b: memory\",\"headers\":[\"hosts\",\"rounds\",\
                   \"bytes/host\"],\"rows\":[[\"65536\",\"2\"]]}\n";
        for (base, fresh) in [(bad, doc("1", "2")), (&doc("1", "2"), bad.to_string())] {
            let r = check_regression(base, &fresh);
            assert!(!r.ok());
            assert!(r.failures[0].contains("malformed row"), "{:?}", r.failures);
        }
    }

    #[test]
    fn truncated_baseline_fails_loudly() {
        for bad in [
            "{\"experiment\":\"x\",\"headers\":[",
            "{\"experiment\":\"x\",\"headers\":[\"n\"],\"rows\":[[7]]}",
            "{\"experiment\":\"x\",\"headers\":[\"n\"],\"rows\":[[\"7\"]",
            "{\"experiment\":\"x\",\"headers\":[\"n\"],\"rows\":[[\"7]]}",
            "{\"experiment\":\"x\",\"headers\":[\"n\"],\"rows\":[]}",
            "{\"headers\":[\"n\"],\"rows\":[[\"7\"]]}",
        ] {
            let r = check_regression(bad, &doc("1", "2"));
            assert!(!r.ok());
            assert!(r.failures[0].contains("baseline unreadable"), "{bad}");
        }
        // A malformed `[full]` line is not a document a smoke run skips.
        let full = "{\"experiment\":\"E14b [full]: x\",\"headers\":[\"n\"],\"rows\":[[7]]}";
        let r = check_regression(full, "");
        assert!(r.failures[0].contains("baseline unreadable"), "{r:?}");
    }
}
