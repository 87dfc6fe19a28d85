//! The CI contract gate: diff a fresh `exp … --json` run against the
//! committed `BENCH_engine.json` baseline.
//!
//! The baseline is JSON-Lines — one table document per line, as emitted by
//! [`crate::Table::emit`] under `--json`:
//!
//! ```json
//! {"experiment":"…","headers":["sched","legal@",…],"rows":[["sync","1402",…],…]}
//! ```
//!
//! Documents are matched by experiment title, rows by position (generation
//! order is deterministic), and every cell is compared for exact equality:
//! the committed file holds only numbers that are a function of (code,
//! seed), so any drift is a behavior change, never noise. Host time is
//! measured by the repo benchmark (`BENCHMARK.json`), not here.
//!
//! The one other rule: a baseline document whose title contains `[full]`
//! is committed from a full-size run; when a fresh smoke run lacks it, it
//! is skipped rather than failed, and it gates whenever a full fresh run
//! supplies it.
//!
//! The vendored `serde_json` stub is serialize-only, so parsing is done by
//! the minimal JSON reader below (strings, arrays, objects — exactly the
//! shapes `Table::emit` produces).

/// One parsed table document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Doc {
    /// Experiment title (the match key).
    pub experiment: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Row cells (all stringified by the table printer).
    pub rows: Vec<Vec<String>>,
}

/// Outcome of a baseline diff.
#[derive(Debug, Default)]
pub struct CheckReport {
    /// Human-readable failure descriptions (empty = gate passes).
    pub failures: Vec<String>,
    /// Cells compared.
    pub compared: usize,
    /// Cells of `[full]` documents the fresh run did not supply.
    pub skipped: usize,
}

impl CheckReport {
    /// True iff the gate passes.
    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }
}

// ---------------------------------------------------------------------------
// Minimal JSON reader (strings / arrays / objects of such).
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum Json {
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

struct Reader<'a> {
    s: &'a [u8],
    i: usize,
}

impl<'a> Reader<'a> {
    fn new(s: &'a str) -> Self {
        Self {
            s: s.as_bytes(),
            i: 0,
        }
    }

    fn skip_ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        self.skip_ws();
        if self.i < self.s.len() && self.s[self.i] == b {
            self.i += 1;
            Ok(())
        } else {
            Err(format!(
                "expected {:?} at byte {} of JSON document",
                b as char, self.i
            ))
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.s.get(self.i).copied()
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => {
                self.expect(b'[')?;
                let mut items = Vec::new();
                if self.peek() == Some(b']') {
                    self.i += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    match self.peek() {
                        Some(b',') => self.i += 1,
                        Some(b']') => {
                            self.i += 1;
                            return Ok(Json::Arr(items));
                        }
                        other => return Err(format!("bad array separator {other:?}")),
                    }
                }
            }
            Some(b'{') => {
                self.expect(b'{')?;
                let mut entries = Vec::new();
                if self.peek() == Some(b'}') {
                    self.i += 1;
                    return Ok(Json::Obj(entries));
                }
                loop {
                    let key = self.string()?;
                    self.expect(b':')?;
                    let val = self.value()?;
                    entries.push((key, val));
                    match self.peek() {
                        Some(b',') => self.i += 1,
                        Some(b'}') => {
                            self.i += 1;
                            return Ok(Json::Obj(entries));
                        }
                        other => return Err(format!("bad object separator {other:?}")),
                    }
                }
            }
            // The table printer stringifies every cell: a bare number or
            // boolean is not a table document.
            Some(b) => Err(format!("unexpected {:?} at byte {}", b as char, self.i)),
            None => Err("unexpected end of JSON document".into()),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        // Accumulate bytes and decode once at the end: pushing raw bytes
        // as chars would mangle multi-byte UTF-8 (the experiment titles
        // use "×", "≤", "₂", …).
        let mut out = Vec::new();
        while self.i < self.s.len() {
            match self.s[self.i] {
                b'"' => {
                    self.i += 1;
                    return String::from_utf8(out).map_err(|e| e.to_string());
                }
                b'\\' => {
                    self.i += 1;
                    let esc = *self.s.get(self.i).ok_or("truncated escape")?;
                    let decoded: char = match esc {
                        b'"' => '"',
                        b'\\' => '\\',
                        b'/' => '/',
                        b'n' => '\n',
                        b't' => '\t',
                        b'r' => '\r',
                        b'u' => {
                            // \uXXXX — the table printer never emits these,
                            // but decode rather than corrupt.
                            let hex = self
                                .s
                                .get(self.i + 1..self.i + 5)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                                16,
                            )
                            .map_err(|e| e.to_string())?;
                            self.i += 4;
                            char::from_u32(code).ok_or("bad \\u escape")?
                        }
                        other => return Err(format!("unknown escape \\{}", other as char)),
                    };
                    let mut buf = [0u8; 4];
                    out.extend_from_slice(decoded.encode_utf8(&mut buf).as_bytes());
                    self.i += 1;
                }
                b => {
                    // Multi-byte UTF-8 sequences pass through bytewise and
                    // are validated by the final `from_utf8`.
                    out.push(b);
                    self.i += 1;
                }
            }
        }
        Err("unterminated string".into())
    }
}

/// Parse one JSON-Lines stream of table documents. Blank lines are
/// skipped; any malformed line is an error (a truncated baseline must fail
/// the gate loudly, not vacuously pass).
pub fn parse_docs(input: &str) -> Result<Vec<Doc>, String> {
    let mut docs = Vec::new();
    for (lineno, line) in input.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let mut r = Reader::new(line);
        let v = r.value().map_err(|e| format!("line {}: {e}", lineno + 1))?;
        let Json::Obj(entries) = v else {
            return Err(format!("line {}: not a JSON object", lineno + 1));
        };
        let field = |name: &str| -> Option<&Json> {
            entries.iter().find(|(k, _)| k == name).map(|(_, v)| v)
        };
        let strs = |v: &Json| -> Result<Vec<String>, String> {
            match v {
                Json::Arr(items) => items
                    .iter()
                    .map(|it| match it {
                        Json::Str(s) => Ok(s.clone()),
                        _ => Err("non-string cell".to_string()),
                    })
                    .collect(),
                _ => Err("expected an array".into()),
            }
        };
        let experiment = match field("experiment") {
            Some(Json::Str(s)) => s.clone(),
            _ => return Err(format!("line {}: missing experiment title", lineno + 1)),
        };
        let headers = strs(field("headers").ok_or(format!("line {}: no headers", lineno + 1))?)
            .map_err(|e| format!("line {}: {e}", lineno + 1))?;
        let rows = match field("rows") {
            Some(Json::Arr(rows)) => rows
                .iter()
                .map(strs)
                .collect::<Result<Vec<_>, _>>()
                .map_err(|e| format!("line {}: {e}", lineno + 1))?,
            _ => return Err(format!("line {}: no rows", lineno + 1)),
        };
        docs.push(Doc {
            experiment,
            headers,
            rows,
        });
    }
    Ok(docs)
}

// ---------------------------------------------------------------------------
// The gate.
// ---------------------------------------------------------------------------

/// Diff `fresh` against `baseline` (both JSON-Lines table streams). Every
/// baseline document must appear in the fresh run with identical headers,
/// row count and cells (absent `[full]` documents excepted). Documents
/// only present in the fresh run are ignored (new experiments do not need
/// an old baseline).
pub fn check_regression(baseline: &str, fresh: &str) -> CheckReport {
    let mut report = CheckReport::default();
    let (base_docs, fresh_docs) = match (parse_docs(baseline), parse_docs(fresh)) {
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
    for base in &base_docs {
        let title = &base.experiment;
        let Some(fresh) = fresh_docs.iter().find(|d| &d.experiment == title) else {
            // `[full]`-tagged documents are committed from full-size runs
            // (e.g. the E14b 1M-host rows) that CI's `--smoke` pass never
            // reproduces; their absence from a fresh run is expected, not
            // a truncation. They still gate when a full fresh run is fed.
            if title.contains("[full]") {
                report.skipped += base.rows.len() * base.headers.len();
                continue;
            }
            report
                .failures
                .push(format!("experiment missing from fresh run: {title:?}"));
            continue;
        };
        if base.headers != fresh.headers {
            report.failures.push(format!(
                "{title:?}: headers changed ({:?} -> {:?}) — regenerate the baseline",
                base.headers, fresh.headers
            ));
            continue;
        }
        if base.rows.len() != fresh.rows.len() {
            report.failures.push(format!(
                "{title:?}: row count changed ({} -> {})",
                base.rows.len(),
                fresh.rows.len()
            ));
            continue;
        }
        // Reject malformed rows up front: the per-cell loop indexes by
        // header position, and "a truncated baseline must fail the gate
        // loudly" means with a diagnostic, not an index panic.
        if let Some((rix, row)) = base
            .rows
            .iter()
            .chain(&fresh.rows)
            .enumerate()
            .find(|(_, row)| row.len() != base.headers.len())
        {
            report.failures.push(format!(
                "{title:?}: row {} has {} cells for {} headers (malformed document)",
                rix % base.rows.len().max(1),
                row.len(),
                base.headers.len()
            ));
            continue;
        }
        for (rix, (brow, frow)) in base.rows.iter().zip(&fresh.rows).enumerate() {
            for ((header, b), f) in base.headers.iter().zip(brow).zip(frow) {
                report.compared += 1;
                if b != f {
                    report.failures.push(format!(
                        "{title:?} row {rix} `{header}`: {b:?} -> {f:?} (metric drifted)"
                    ));
                }
            }
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
    fn parses_table_documents() {
        let docs = parse_docs(&doc("1157", "64")).expect("parses");
        assert_eq!(docs.len(), 1);
        assert_eq!(docs[0].experiment, "E14b: memory");
        assert_eq!(docs[0].headers[2], "bytes/host");
        assert_eq!(docs[0].rows[0][2], "1157");
    }

    #[test]
    fn parser_preserves_multibyte_utf8_and_escapes() {
        let line = "{\"experiment\":\"E13a: hops ≤ 2·log₂N\",\"headers\":[\"a\\u0041×\"],\
                    \"rows\":[[\"1\"]]}\n";
        let docs = parse_docs(line).expect("parses");
        assert_eq!(docs[0].experiment, "E13a: hops ≤ 2·log₂N");
        assert_eq!(docs[0].headers[0], "aA×");
    }

    #[test]
    fn identical_runs_pass() {
        let r = check_regression(&doc("1157", "64"), &doc("1157", "64"));
        assert!(r.ok(), "{:?}", r.failures);
        assert_eq!((r.compared, r.skipped), (3, 0));
    }

    #[test]
    fn any_drift_fails_exactly() {
        // A counter, and a bytes/host cell 5 % off: no cell has a tolerance.
        for (base, fresh) in [
            (doc("1157", "64"), doc("1157", "65")),
            (doc("1000", "64"), doc("1050", "64")),
        ] {
            let r = check_regression(&base, &fresh);
            assert!(!r.ok());
            assert!(r.failures[0].contains("metric drifted"), "{:?}", r.failures);
        }
    }

    #[test]
    fn missing_experiment_and_shape_changes_fail() {
        let r = check_regression(&doc("1", "2"), "");
        assert!(!r.ok(), "missing doc must fail");
        let two_rows = doc("1", "2").replace("\"rows\":[[", "\"rows\":[[\"256\",\"2\",\"1\"],[");
        let r = check_regression(&two_rows, &doc("1", "2"));
        assert!(!r.ok(), "row-count change must fail");
    }

    #[test]
    fn full_tagged_documents_are_skipped_when_absent_and_gated_when_present() {
        let full = doc("1295", "64").replace("E14b:", "E14b [full]:");
        // Absent from a fresh smoke run: skipped, not failed.
        let r = check_regression(&full, "");
        assert!(r.ok(), "{:?}", r.failures);
        assert_eq!(r.skipped, 3, "the whole document counts as skipped");
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
        assert!(r.compared > 0, "baseline must contain comparable cells");
    }

    /// Host time is gated by the repo benchmark alone: a wall-clock cell in
    /// the exact contract would fail every fresh run.
    #[test]
    fn committed_baseline_has_no_wall_clock_columns() {
        for d in parse_docs(COMMITTED).expect("baseline parses") {
            for h in &d.headers {
                assert!(
                    !(h.contains("ns/")
                        || h.ends_with("/s")
                        || ["speedup", "cores", "steals"].contains(&h.as_str())),
                    "{:?}: wall-clock column `{h}`",
                    d.experiment
                );
            }
        }
    }

    const COMMITTED: &str = include_str!("../../../BENCH_engine.json");

    #[test]
    fn short_row_fails_with_diagnostic_not_panic() {
        let bad = "{\"experiment\":\"E14b: memory\",\"headers\":[\"hosts\",\"rounds\",\
                   \"bytes/host\"],\"rows\":[[\"256\",\"5\"]]}\n";
        let r = check_regression(bad, &doc("1", "2"));
        assert!(!r.ok());
        assert!(
            r.failures[0].contains("malformed document"),
            "{:?}",
            r.failures
        );
        // Also when the fresh side is the malformed one.
        let r = check_regression(&doc("1", "2"), bad);
        assert!(!r.ok());
    }

    #[test]
    fn truncated_baseline_fails_loudly() {
        for bad in [
            "{\"experiment\":\"x\",\"headers\":[",
            "{\"experiment\":\"x\",\"headers\":[\"n\"],\"rows\":[[7]]}",
        ] {
            let r = check_regression(bad, &doc("1", "2"));
            assert!(!r.ok());
            assert!(r.failures[0].contains("baseline unreadable"), "{bad}");
        }
    }
}
