//! E15 — the adversary gauntlet: structured attacks against a converged
//! Avatar(Chord) overlay, rule-based fault detection, and checkpoint-rollback
//! recovery measured against plain re-stabilization.
//!
//! Each cell of the grid drives one [`ssim::Adversary`] (compiled to a
//! deterministic scenario) against the legal-overlay fixture while an
//! open-loop lookup workload keeps flowing, with the four-rule
//! [`ssim::DetectorSuite`] scanning every round:
//!
//! * **restab** — the paper's baseline: no intervention, the self-stabilizing
//!   protocol re-legalizes on its own;
//! * **rollback** — on the first *critical* detection, every event-touched
//!   and detector-implicated host is rolled back to the pre-attack
//!   checkpoint (`ssim::Checkpoint`, the hash-verified snapshot layer).
//!
//! The `relegal@` column is time-to-relegal (rounds from attack schedule
//! start until the legality monitor is satisfied again), which makes the two
//! recovery arms directly comparable. The binary *asserts* the headline
//! result: for identity-corruption attacks (lying beacons), rollback beats
//! re-stabilization outright — state restoration is cheap, re-merging a
//! poisoned cluster is not. Crash waves show the honest converse: rollback
//! cannot resurrect crashed hosts, so both arms pay the full re-merge.
//!
//! All columns are deterministic per seed (no wall-clock cells), so the
//! committed baseline gates them for exact equality; the binary additionally
//! verifies one cell end-to-end at 1 vs 4 threads and asserts byte-identical
//! outcomes — the engine's determinism guarantee extended over the whole
//! detect/rollback path.
//!
//! Usage: `exp_gauntlet [seed] [--json] [--smoke] [--full] [--threads T]`.
//! `--json` emits the JSON-Lines documents committed to `BENCH_engine.json`
//! (diffed by the `bench_check` CI gate); `--smoke` is the seconds-long CI
//! variant; `--full` additionally emits the full-size `E15 [full]` table
//! (scheduled CI only — `[full]` documents are skipped by the gate when a
//! fresh smoke run lacks them).

use chord_scaffold::{ChordTarget, ScaffoldProgram};
use scaffold_bench::{budget, f2, legal_chord_runtime, seeded, Table};
use ssim::monitor::{BeaconStaleness, DegreeAnomaly, SilenceAnomaly, ViewDivergence};
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

/// Which recovery arm a cell runs (owned, so cells can be described before
/// the per-run checkpoint exists).
#[derive(Clone, Copy, PartialEq)]
enum Arm {
    Restab,
    Rollback,
}

impl Arm {
    fn name(self) -> &'static str {
        match self {
            Arm::Restab => "restab",
            Arm::Rollback => "rollback",
        }
    }
}

struct Cell {
    outcome: GauntletOutcome,
    stats: RequestStats,
}

/// Drive one gauntlet cell: restore the converged fixture, warm it forward
/// (re-stamping the installed views at the warmed round), checkpoint,
/// attach lookup traffic, and run the compiled adversary to re-legality
/// under the chosen recovery arm.
fn run_cell(
    n: u32,
    hosts: usize,
    seed: u64,
    adv: &Adversary,
    sched: &str,
    arm: Arm,
    threads: usize,
) -> Cell {
    let cfg = seeded(seed).threads(threads);
    let mut rt = legal_chord_runtime(n, hosts, cfg, NetModel::ideal());
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
    let mut suite = DetectorSuite::new()
        .with(BeaconStaleness::new())
        .with(ViewDivergence::new())
        .with(DegreeAnomaly::new())
        .with(SilenceAnomaly::new());
    let recovery = match arm {
        Arm::Restab => Recovery::Restabilize,
        Arm::Rollback => Recovery::Rollback(&ck),
    };
    let max_rounds = 2 * budget(n, hosts) + 64;
    let outcome = run_gauntlet_cell(&mut rt, &scenario, &mut suite, recovery, max_rounds);
    Cell {
        outcome,
        stats: rt.metrics().requests.clone(),
    }
}

fn run_gauntlet_cell(
    rt: &mut ssim::Runtime<ScaffoldProgram<ChordTarget>>,
    scenario: &ssim::scenario::Scenario<ScaffoldProgram<ChordTarget>>,
    suite: &mut DetectorSuite<ScaffoldProgram<ChordTarget>>,
    recovery: Recovery<'_>,
    max_rounds: u64,
) -> GauntletOutcome {
    ssim::run_gauntlet(
        rt,
        scenario,
        suite,
        recovery,
        &mut chord_scaffold::legality(),
        max_rounds,
    )
}

fn opt(r: Option<u64>) -> String {
    r.map_or("-".into(), |v| v.to_string())
}

fn cells_of(adv: &Adversary, sched: &str, arm: Arm, hosts: usize, n: u32, c: &Cell) -> Vec<String> {
    let o = &c.outcome;
    let s = &c.stats;
    vec![
        adv.name().to_string(),
        sched.to_string(),
        arm.name().to_string(),
        hosts.to_string(),
        n.to_string(),
        o.events.len().to_string(),
        opt(o.detect_round),
        opt(o.first_critical),
        o.alerts.to_string(),
        o.by_class
            .iter()
            .map(u64::to_string)
            .collect::<Vec<_>>()
            .join("/"),
        o.worst.map_or("-".into(), |w| w.label().to_string()),
        o.rolled_back.to_string(),
        match o.verdict {
            RunVerdict::Satisfied => o.rounds.to_string(),
            _ => "-".into(),
        },
        s.issued.to_string(),
        s.completed.to_string(),
        f2(100.0 * s.success_rate()),
    ]
}

const HEADERS: &[&str] = &[
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
];

/// Run the full grid at one network size and emit it under `title`,
/// asserting the acceptance invariants along the way.
fn gauntlet_table(args: &scaffold_bench::ExpArgs, title: &str, n: u32, hosts: usize, seed: u64) {
    let mut t = Table::new(HEADERS);
    // Member list is a fixture property, identical across cells: derive it
    // once so the roster (joiner ids) is stable.
    let members: Vec<NodeId> = legal_chord_runtime(n, hosts, seeded(seed), NetModel::ideal())
        .ids()
        .to_vec();
    let threads = args.threads.unwrap_or(1).max(1);
    for adv in &roster(hosts, n, &members) {
        for sched in ["sync", "activity"] {
            let mut relegal: [Option<u64>; 2] = [None, None];
            for (i, arm) in [Arm::Restab, Arm::Rollback].into_iter().enumerate() {
                let c = run_cell(n, hosts, seed, adv, sched, arm, threads);
                if c.outcome.verdict == RunVerdict::Satisfied {
                    relegal[i] = Some(c.outcome.rounds);
                }
                // The gauntlet must always end in re-legality: a timeout
                // means the budget or an adversary parameter is wrong, and
                // the row would gate meaningless numbers.
                assert_eq!(
                    c.outcome.verdict,
                    RunVerdict::Satisfied,
                    "E15: {}/{sched}/{} did not re-legalize within budget",
                    adv.name(),
                    arm.name(),
                );
                t.row(cells_of(adv, sched, arm, hosts, n, &c));
            }
            // The headline acceptance: for identity corruption, rolling the
            // implicated hosts back to the verified checkpoint beats waiting
            // for the protocol to re-merge the poisoned cluster.
            if adv.name() == "lying-beacons" {
                let (restab, rollback) = (relegal[0].unwrap(), relegal[1].unwrap());
                assert!(
                    rollback < restab,
                    "E15: lying-beacons/{sched}: rollback ({rollback}) must beat \
                     re-stabilization ({restab}) on time-to-relegal"
                );
            }
        }
    }
    t.emit(args, title);
}

fn main() {
    let args = scaffold_bench::ExpArgs::from_env();
    let seed = args.count.unwrap_or(15);
    let smoke = args.flag("smoke");

    // ---- determinism self-check: one full detect/rollback cell ----------
    // Byte-identical outcome and request accounting at 1 vs 4 threads; the
    // suite scans and the rollback path run on the driving thread, so the
    // guarantee is inherited from the engine, but this pins it end-to-end.
    {
        let (n, hosts) = (128, 16);
        let adv = Adversary::LyingBeacons { victims: 2 };
        let print = |threads: usize| {
            let c = run_cell(n, hosts, seed, &adv, "sync", Arm::Rollback, threads);
            (
                serde_json::to_string(&c.outcome).expect("outcome JSON"),
                serde_json::to_string(&c.stats).expect("stats JSON"),
            )
        };
        assert_eq!(
            print(1),
            print(4),
            "E15: gauntlet outcome diverged between 1 and 4 threads"
        );
    }

    let (n, hosts): (u32, usize) = if smoke { (128, 16) } else { (256, 32) };
    gauntlet_table(
        &args,
        "E15: adversary gauntlet (time-to-relegal + request SLOs per adversary x daemon x recovery)",
        n,
        hosts,
        seed,
    );

    if args.flag("full") {
        gauntlet_table(
            &args,
            "E15 [full]: adversary gauntlet at 64 hosts",
            512,
            64,
            seed,
        );
    }

    if !args.json {
        println!("\nExpected shape: lying-beacons re-legalizes at ~inject round under rollback");
        println!("(state restoration is one corrupt_node sweep) vs protocol-timescale rounds");
        println!("under restab — the identity lie forces a CBT reversion and a full re-merge.");
        println!("crash-wave shows the converse: rollback cannot resurrect crashed hosts, so");
        println!("both arms pay the re-merge. stale-beacons and equivocation never break");
        println!("legality (views are not part of the legality predicate) — they are pure");
        println!("detection rows: staleness classifies as warnings, equivocation as criticals");
        println!("implicating both ends. partition-cycle is the SLO row: legality holds while");
        println!("cut-crossing lookups fail or expire.");
    }
}
