//! Run metrics: the inputs to the paper's two performance measures,
//! *convergence time* (Section 2.2) and *degree expansion* (ratio of the
//! maximum degree during convergence to the maximum of the initial and final
//! configurations' degrees).

use crate::net::NetStats;
use crate::snapshot::persist_struct;
use crate::workload::RequestStats;
use serde::Serialize;

/// Metrics of a single round.
#[derive(Debug, Clone, Copy, Default, Serialize, PartialEq, Eq)]
pub struct RoundMetrics {
    /// Round number.
    pub round: u64,
    /// Messages delivered out of this round.
    pub messages: u64,
    /// Edges created by introductions this round.
    pub links_added: u64,
    /// Edges deleted this round.
    pub links_removed: u64,
    /// Model violations (dropped in lenient mode).
    pub violations: u64,
    /// Maximum node degree after the round.
    pub max_degree: usize,
    /// Total edges after the round.
    pub total_edges: usize,
    /// Nodes activated (stepped) this round — the scheduler's selection
    /// size. Equals the live node count under the synchronous daemon; the
    /// whole point of [`crate::sched::ActivityDriven`] is to drive this to
    /// zero after convergence.
    pub active_nodes: u64,
    /// Live nodes reporting [`crate::Program::is_quiescent`] after the
    /// round (tracked incrementally; recorded under every scheduler).
    pub quiescent_nodes: u64,
    /// Application requests injected this round (see [`crate::workload`]).
    pub requests_issued: u64,
    /// Application requests completed this round.
    pub requests_completed: u64,
    /// Application requests failed this round.
    pub requests_failed: u64,
    /// Application requests still in flight after the round — together with
    /// the cumulative counters this pins the conservation law
    /// `issued == completed + failed + in_flight` at every round boundary.
    pub requests_in_flight: u64,
}

/// Aggregated metrics of a run.
#[derive(Debug, Clone, Default, Serialize)]
pub struct RunMetrics {
    /// Maximum degree in the initial configuration.
    pub initial_max_degree: usize,
    /// Peak maximum degree observed over all rounds so far (including the
    /// initial configuration).
    pub peak_degree: usize,
    /// Total messages sent.
    pub total_messages: u64,
    /// Total edges created.
    pub total_links_added: u64,
    /// Total edges deleted.
    pub total_links_removed: u64,
    /// Total model violations observed (lenient mode only; strict panics).
    pub total_violations: u64,
    /// Number of completed rounds.
    pub rounds_executed: u64,
    /// Total `step()` activations across all rounds (sum of
    /// [`RoundMetrics::active_nodes`]). Under the synchronous daemon this is
    /// `Σ live(round)`; activity-driven runs spend strictly less after
    /// convergence — the ratio is the scheduler subsystem's headline metric.
    pub total_activations: u64,
    /// Hosts that joined mid-run (dynamic membership).
    pub joins: u64,
    /// Hosts that left gracefully mid-run.
    pub leaves: u64,
    /// Hosts that crashed mid-run.
    pub crashes: u64,
    /// Application-request accounting (all zero unless a workload is
    /// attached; see [`crate::workload`] and
    /// [`crate::Runtime::attach_workload`]).
    pub requests: RequestStats,
    /// Message accounting under network conditions (all zero under
    /// [`crate::NetModel::ideal`]; see [`crate::net`]). Pins the message
    /// conservation law
    /// `sent + duplicated == delivered + dropped + in_transit`.
    pub net: NetStats,
    /// Per-round rows (only when `Config::record_rounds`).
    pub per_round: Vec<RoundMetrics>,
}

impl RunMetrics {
    /// Start collecting with the given initial maximum degree.
    pub fn new(initial_max_degree: usize) -> Self {
        Self {
            initial_max_degree,
            peak_degree: initial_max_degree,
            ..Self::default()
        }
    }

    pub(crate) fn absorb(&mut self, row: RoundMetrics, record: bool) {
        self.total_messages += row.messages;
        self.total_links_added += row.links_added;
        self.total_links_removed += row.links_removed;
        self.total_violations += row.violations;
        self.peak_degree = self.peak_degree.max(row.max_degree);
        self.rounds_executed += 1;
        self.total_activations += row.active_nodes;
        if record {
            self.per_round.push(row);
        }
    }

    /// Degree expansion per Section 2.2: peak degree during convergence over
    /// `max(initial max degree, final max degree)`. The caller supplies the
    /// final configuration's maximum degree.
    pub fn degree_expansion(&self, final_max_degree: usize) -> f64 {
        let denom = self.initial_max_degree.max(final_max_degree).max(1);
        self.peak_degree as f64 / denom as f64
    }
}

/// Execution-machinery counters from [`crate::Runtime::perf_counters`].
/// Every round runs on the calling thread, so `syncs` and `par_rounds`
/// are 0 and `seq_rounds` is the round counter. Kept for
/// `crates/bench/src/bin/benchmark`, which still reads them; ROADMAP item
/// 4(a) removes them. Not part of [`RoundMetrics`]/[`RunMetrics`] and
/// never serialized.
#[derive(Debug, Default, Clone, Copy)]
pub struct PerfCounters {
    /// Pool wake-ups: always 0.
    pub syncs: u64,
    /// Rounds run on a pool: always 0.
    pub par_rounds: u64,
    /// Rounds run on the calling thread: the round counter.
    pub seq_rounds: u64,
}

persist_struct!(RoundMetrics {
    round,
    messages,
    links_added,
    links_removed,
    violations,
    max_degree,
    total_edges,
    active_nodes,
    quiescent_nodes,
    requests_issued,
    requests_completed,
    requests_failed,
    requests_in_flight,
});

persist_struct!(RunMetrics {
    initial_max_degree,
    peak_degree,
    total_messages,
    total_links_added,
    total_links_removed,
    total_violations,
    rounds_executed,
    total_activations,
    joins,
    leaves,
    crashes,
    requests,
    net,
    per_round,
});

/// Blank the numeric values of the given `"key":` fields in a serialized
/// metrics JSON string (each digit run after a listed key becomes `_`).
///
/// Support for **daemon-blind comparisons**: two executions that are
/// equivalent modulo activation counts (e.g. [`crate::sched::Synchronous`]
/// vs [`crate::sched::ActivityDriven`]) can be compared byte-for-byte
/// after scrubbing `["total_activations", "active_nodes"]`. A plain
/// textual scrub because the vendored `serde_json` is serialize-only —
/// kept here so every equivalence suite and experiment shares one
/// implementation instead of drifting copies.
pub fn blank_json_fields(json: &str, keys: &[&str]) -> String {
    let needles: Vec<String> = keys.iter().map(|k| format!("\"{k}\":")).collect();
    // Each key's next occurrence at or after `at`: a key is searched for
    // again only once the cursor has passed its last hit, and dropped once
    // `find` misses, so each key scans the string once in all.
    let mut next: Vec<(usize, &str)> = needles
        .iter()
        .filter_map(|k| Some((json.find(k.as_str())?, k.as_str())))
        .collect();
    let mut out = String::with_capacity(json.len());
    let mut at = 0;
    while let Some(&(pos, key)) = next.iter().min() {
        let val = pos + key.len();
        out.push_str(&json[at..val]);
        out.push('_');
        at = json[val..]
            .find(|c: char| !c.is_ascii_digit())
            .map_or(json.len(), |d| val + d);
        next.retain_mut(|(p, k)| {
            if *p >= at {
                return true;
            }
            json[at..].find(*k).map(|d| *p = at + d).is_some()
        });
    }
    out.push_str(&json[at..]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expansion_uses_larger_of_initial_and_final() {
        let mut m = RunMetrics::new(4);
        m.absorb(
            RoundMetrics {
                max_degree: 12,
                ..Default::default()
            },
            true,
        );
        assert_eq!(m.peak_degree, 12);
        // final degree 6 > initial 4 -> denominator 6
        assert!((m.degree_expansion(6) - 2.0).abs() < 1e-12);
        // final degree 3 < initial 4 -> denominator 4
        assert!((m.degree_expansion(3) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn expansion_of_quiet_run_is_one() {
        let m = RunMetrics::new(5);
        assert!((m.degree_expansion(5) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn blank_json_fields_scrubs_only_listed_keys() {
        let json = r#"{"total_activations":123,"messages":45,"active_nodes":6}"#;
        let got = blank_json_fields(json, &["total_activations", "active_nodes"]);
        assert_eq!(
            got,
            r#"{"total_activations":_,"messages":45,"active_nodes":_}"#
        );
        assert_eq!(blank_json_fields(json, &[]), json);
    }

    /// A key that recurs is blanked at every occurrence, a key listed
    /// twice once per occurrence, and a key that never occurs is ignored.
    #[test]
    fn blank_json_fields_handles_repeated_and_absent_keys() {
        let json = r#"[{"a":1,"b":22},{"a":333,"b":4},{"a":5}]"#;
        let want = r#"[{"a":_,"b":22},{"a":_,"b":4},{"a":_}]"#;
        assert_eq!(blank_json_fields(json, &["a"]), want);
        assert_eq!(blank_json_fields(json, &["a", "a", "zz"]), want);
        assert_eq!(blank_json_fields(json, &["zz"]), json);
        assert_eq!(
            blank_json_fields(json, &["b", "a"]),
            r#"[{"a":_,"b":_},{"a":_,"b":_},{"a":_}]"#
        );
    }

    #[test]
    fn absorb_accumulates() {
        let mut m = RunMetrics::new(0);
        for r in 0..3 {
            m.absorb(
                RoundMetrics {
                    round: r,
                    messages: 2,
                    links_added: 1,
                    ..Default::default()
                },
                true,
            );
        }
        assert_eq!(m.total_messages, 6);
        assert_eq!(m.total_links_added, 3);
        assert_eq!(m.rounds_executed, 3);
        assert_eq!(m.per_round.len(), 3);
    }
}
