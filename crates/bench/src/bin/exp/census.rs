//! E17 — the small-scope census: every connected labelled graph on a few
//! hosts, both protocols, run to legality ([`scaffold_bench::census`]).
//! A protocol bug that needs only a few hosts shows here on a start small
//! enough to read, and the committed cells pin that no start resets.

use crate::note;
use scaffold_bench::{census, stat_cell, CensusProtocol, ExpArgs, Table, CENSUS_N};

/// One document: a row per protocol and host count in `ks`. Panics, before
/// emitting, when a start misses the budget or a detector reset fires.
fn census_table(args: &ExpArgs, title: &str, ks: std::ops::RangeInclusive<usize>) {
    let mut t = Table::new(&[
        "protocol",
        "k",
        "N",
        "starts",
        "converged",
        "reset_starts",
        "resets",
        "max_rounds",
        "mean_rounds",
        "peak_deg",
        "final_deg",
    ]);
    for (name, protocol) in [
        ("Avatar(Chord)", CensusProtocol::Chord),
        ("Avatar(CBT)", CensusProtocol::Cbt),
    ] {
        for k in ks.clone() {
            let c = census(k, protocol);
            assert!(
                c.converged == c.starts && c.resets() == 0,
                "E17: {name} at k = {k}: {} of {} starts legal within budget, {} with a \
                 reset; resets by epoch offset {:?}",
                c.converged,
                c.starts,
                c.reset_starts,
                c.resets_at,
            );
            let max = c.rounds.iter().copied().fold(0.0, f64::max);
            t.row(vec![
                name.to_string(),
                k.to_string(),
                CENSUS_N.to_string(),
                c.starts.to_string(),
                c.converged.to_string(),
                c.reset_starts.to_string(),
                c.resets().to_string(),
                (max as u64).to_string(),
                stat_cell(&c.rounds, |m, _| m),
                c.peak_degree.to_string(),
                c.final_degree.to_string(),
            ]);
        }
    }
    t.emit(args, title);
}

/// E17 (`--smoke` and the default are the committed k = 2–5 document;
/// `--full` adds k = 6, a few minutes on one core). Every cell is a
/// function of the code alone.
pub fn small_scope(args: &ExpArgs) {
    census_table(
        args,
        "E17: small-scope census (every connected start on k hosts, two placements, sync)",
        2..=5,
    );
    if args.full {
        census_table(args, "E17 [full]: small-scope census at k = 6", 6..=6);
    }
    note(
        args,
        &[
            "Expected shape: every start legal within budget and no detector reset at",
            "any k — a reset on a clean start is a protocol bug, and the row panics on",
            "one, naming the epoch offsets the resets fired at.",
        ],
    );
}
