//! E11 — membership churn: the workload family the dynamic-membership
//! redesign opens. A stabilized Avatar(Chord) overlay absorbs alternating
//! host joins, graceful leaves, and crashes (one per scaffold epoch) and
//! must re-converge to the legal configuration of the *new* host set after
//! the last event.
//!
//! Each row is one `ssim::Scenario` run; under `--json` the full
//! `ScenarioReport` documents are emitted (one per line) after the table
//! document, for the benchmark-trajectory tooling. `--threads N` runs the
//! rounds on the engine's thread pool — the reports are identical at any
//! thread count (engine determinism guarantee), only faster at scale.
//! `--sched SPEC` (`sync` | `activity` | `random:<p>` | `rr:<k>`) swaps the
//! daemon, which — unlike threads — may change the report: re-convergence
//! under weaker daemons is exactly the scenario diversity the scheduler
//! subsystem opens.

use scaffold_bench::{measure_churn, Table};

fn main() {
    let args = scaffold_bench::ExpArgs::from_env();
    let episodes = args.count.unwrap_or(6) as usize;
    let mut t = Table::new(&[
        "N",
        "hosts",
        "episodes",
        "sched",
        "joins/leaves/crashes",
        "verdict",
        "rounds",
        "settled_at",
        "activations",
        "peak_deg",
        "nodes_final",
    ]);
    let mut reports = Vec::new();
    for n in [64u32, 128, 256, 512] {
        let hosts = (n / 8) as usize;
        let report = measure_churn(n, hosts, episodes, 12_000 + n as u64, &args);
        t.row(vec![
            n.to_string(),
            hosts.to_string(),
            episodes.to_string(),
            report.scheduler.clone(),
            format!("{}/{}/{}", report.joins, report.leaves, report.crashes),
            format!("{:?}", report.verdict),
            report.rounds.to_string(),
            report.satisfied_at.map_or("-".into(), |r| r.to_string()),
            report.total_activations.to_string(),
            report.peak_degree.to_string(),
            report.nodes_final.to_string(),
        ]);
        reports.push(report);
    }
    t.emit(
        &args,
        "E11: re-stabilization under true join/leave/crash churn (scenario-driven)",
    );
    if args.json {
        for r in &reports {
            println!("{}", r.to_json());
        }
    } else {
        println!("\nExpected shape: every row Satisfied; re-convergence after the last");
        println!("event within one stabilization budget; node counts differ from start.");
    }
}
