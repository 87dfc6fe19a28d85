//! E15 — the adversary gauntlet: structured attacks against a converged
//! Avatar(Chord) overlay, rule-based fault detection, and checkpoint
//! rollback measured against plain re-stabilization.
//!
//! Each cell drives one [`ssim::Adversary`] against the legal-overlay
//! fixture while open-loop lookups keep flowing and the four-rule
//! [`ssim::DetectorSuite`] scans every round, under one recovery arm:
//! **restab** (no intervention — the self-stabilizing protocol
//! re-legalizes on its own) or **rollback** (on the first *critical*
//! detection, every event-touched and detector-implicated host is rolled
//! back to the pre-attack [`ssim::Checkpoint`]). `relegal@` is rounds from
//! the attack schedule's start until legality holds again, which makes the
//! two arms directly comparable.

use crate::note;
use chord_scaffold::{ChordTarget, ScaffoldProgram};
use scaffold_bench::{budget, f2, legal_chord_runtime, seeded, ExpArgs, Table};
use ssim::{
    Adversary, Checkpoint, DetectorSuite, GauntletOutcome, NetModel, NodeId, OpenLoop, Recovery,
    RequestStats, RunVerdict, Scenario, WorkloadConfig,
};

/// Rounds the fixture is run forward before the attack so beacon receipt
/// rounds have room below them (receipt rounds are unsigned and the
/// installed fixture records its views at round 0, where aging attacks
/// would floor out invisibly).
const WARM: u64 = 16;

/// Scenario-relative round the attack schedule starts at.
const INJECT: u64 = 2;

/// One attack grid for a network of `hosts` members: every adversary class,
/// sized relative to the network.
fn roster(hosts: usize, n: u32, members: &[NodeId]) -> Vec<Adversary> {
    let region = (hosts / 4).max(2);
    let taken: std::collections::BTreeSet<NodeId> = members.iter().copied().collect();
    let joiners: Vec<NodeId> = (0..n)
        .filter(|v| !taken.contains(v))
        .take((hosts / 8).max(2))
        .collect();
    vec![
        Adversary::StaleBeacons {
            victims: region,
            age: WARM, // deep enough to dwarf any honest arrival gap
        },
        Adversary::LyingBeacons {
            victims: (hosts / 8).max(2),
        },
        Adversary::Equivocation {
            victims: 2,
            audiences: 3,
        },
        Adversary::CrashWave {
            region,
            waves: 2,
            spacing: 8,
        },
        Adversary::FlashCrowd { joiners, attach: 2 },
        Adversary::PartitionCycle {
            side: region,
            cycles: 2,
            hold: 8,
            gap: 8,
        },
    ]
}

/// Drive one gauntlet cell: restore the converged fixture, warm it forward
/// (re-stamping the installed views at the warmed round), checkpoint,
/// attach lookup traffic, and run the scheduled adversary to re-legality
/// under the chosen recovery arm.
fn run_cell(
    n: u32,
    hosts: usize,
    seed: u64,
    adv: &Adversary,
    sched: &str,
    rollback: bool,
) -> (GauntletOutcome, RequestStats) {
    let mut rt = legal_chord_runtime(n, hosts, seeded(seed), NetModel::ideal());
    rt.set_scheduler(ssim::sched::from_spec(sched, seed).expect("known spec"));
    rt.run(WARM);
    let now = rt.round();
    let ids: Vec<NodeId> = rt.ids().to_vec();
    for &v in &ids {
        rt.corrupt_node(v, |p: &mut ScaffoldProgram<ChordTarget>| {
            p.core.cbt.view.restamp(now);
        });
    }
    let ck = Checkpoint::capture(&rt);
    rt.attach_workload(OpenLoop::new(4.0, n), WorkloadConfig::default());

    let scenario = Scenario::new(format!("gauntlet-{}", adv.name())).seeded(seed);
    let scenario = adv.schedule(scenario, &ids, INJECT, seed);
    let mut suite = DetectorSuite::new();
    let recovery = if rollback {
        Recovery::Rollback(&ck)
    } else {
        Recovery::Restabilize
    };
    let outcome = ssim::run_gauntlet(
        &mut rt,
        &scenario,
        &mut suite,
        recovery,
        chord_scaffold::legality(),
        2 * budget(n, hosts) + 64,
    );
    (outcome, rt.metrics().requests.clone())
}

fn opt(r: Option<u64>) -> String {
    r.map_or("-".into(), |v| v.to_string())
}

/// Run the full grid at one network size and emit it under `title`,
/// asserting the acceptance invariants along the way.
fn gauntlet_table(args: &ExpArgs, title: &str, n: u32, hosts: usize, seed: u64) {
    let mut t = Table::new(&[
        "adversary",
        "sched",
        "recovery",
        "hosts",
        "N",
        "events",
        "detect@",
        "crit@",
        "alerts",
        "classes",
        "worst",
        "rolled_back",
        "relegal@",
        "issued",
        "completed",
        "success%",
    ]);
    // Member list is a fixture property, identical across cells: derive it
    // once so the roster (joiner ids) is stable.
    let members: Vec<NodeId> = legal_chord_runtime(n, hosts, seeded(seed), NetModel::ideal())
        .ids()
        .to_vec();
    for adv in &roster(hosts, n, &members) {
        for sched in ["sync", "activity"] {
            let mut relegal = [0u64; 2];
            for (i, arm) in ["restab", "rollback"].into_iter().enumerate() {
                let (o, s) = run_cell(n, hosts, seed, adv, sched, arm == "rollback");
                // The gauntlet must always end in re-legality: a timeout
                // means the budget or an adversary parameter is wrong, and
                // the row would gate meaningless numbers.
                assert_eq!(
                    o.verdict,
                    RunVerdict::Satisfied,
                    "E15: {}/{sched}/{arm} did not re-legalize within budget",
                    adv.name(),
                );
                relegal[i] = o.rounds;
                let classes: Vec<String> = o.by_class.iter().map(u64::to_string).collect();
                t.row(vec![
                    adv.name().to_string(),
                    sched.to_string(),
                    arm.to_string(),
                    hosts.to_string(),
                    n.to_string(),
                    o.events.len().to_string(),
                    opt(o.detect_round),
                    opt(o.first_critical),
                    o.alerts.to_string(),
                    classes.join("/"),
                    o.worst.map_or("-".into(), |w| w.label().to_string()),
                    o.rolled_back.to_string(),
                    o.rounds.to_string(),
                    s.issued.to_string(),
                    s.completed.to_string(),
                    f2(100.0 * s.success_rate()),
                ]);
            }
            // The headline acceptance: for identity corruption, rolling the
            // implicated hosts back to the verified checkpoint beats waiting
            // for the protocol to re-merge the poisoned cluster.
            let [restab, rollback] = relegal;
            assert!(
                adv.name() != "lying-beacons" || rollback < restab,
                "E15: lying-beacons/{sched}: rollback ({rollback}) must beat \
                 re-stabilization ({restab}) on time-to-relegal"
            );
        }
    }
    t.emit(args, title);
}

/// E15 (seed = `N`, default 15; `--smoke` for the committed 16-host grid;
/// `--full` adds the 64-host `[full]` document). Every column is
/// deterministic per seed. Before emitting, the row asserts that every
/// cell re-legalizes within budget and that rollback strictly beats
/// re-stabilization on the lying-beacons rows.
pub fn gauntlet(args: &ExpArgs) {
    let seed = args.count.unwrap_or(15);
    let (n, hosts): (u32, usize) = if args.smoke { (128, 16) } else { (256, 32) };
    gauntlet_table(
        args,
        "E15: adversary gauntlet (time-to-relegal + request SLOs per adversary x daemon x recovery)",
        n,
        hosts,
        seed,
    );
    if args.full {
        gauntlet_table(
            args,
            "E15 [full]: adversary gauntlet at 64 hosts",
            512,
            64,
            seed,
        );
    }

    note(
        args,
        &[
            "Expected shape: lying-beacons re-legalizes at ~inject round under rollback",
            "(state restoration is one corrupt_node sweep) vs protocol-timescale rounds",
            "under restab — the identity lie forces a CBT reversion and a full re-merge.",
            "crash-wave shows the converse: rollback cannot resurrect crashed hosts, so",
            "both arms pay the re-merge. stale-beacons and equivocation never break",
            "legality (views are not part of the legality predicate) — they are pure",
            "detection rows: staleness classifies as warnings, equivocation as criticals",
            "implicating both ends. partition-cycle is the SLO row: legality holds while",
            "cut-crossing lookups fail or expire.",
        ],
    );
}
