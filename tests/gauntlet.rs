//! Integration tests for the adversary gauntlet on the real protocol stack:
//! structured attacks against a converged Avatar(Chord) overlay, the
//! rule-based detector suite, and checkpoint-rollback recovery.

use chord_scaffold::{ChordTarget, ScaffoldProgram};
use scaffold_bench::{budget, legal_chord_runtime};
use ssim::{
    run_gauntlet, Adversary, Checkpoint, Config, DetectorSuite, FaultClass, GauntletOutcome,
    NetModel, NodeId, OpenLoop, Recovery, RunVerdict, Runtime, Scenario, WorkloadConfig,
};

const N: u32 = 64;
const HOSTS: usize = 8;
const WARM: u64 = 16;
const INJECT: u64 = 2;

/// The converged-overlay fixture warmed forward with its views re-stamped
/// at the warmed round (receipt rounds are unsigned; views installed at
/// round 0 leave aging attacks nowhere to go).
fn warmed_fixture(cfg: Config) -> Runtime<ScaffoldProgram<ChordTarget>> {
    let mut rt = legal_chord_runtime(N, HOSTS, cfg, NetModel::ideal());
    rt.run(WARM);
    let now = rt.round();
    let ids: Vec<NodeId> = rt.ids().to_vec();
    for &v in &ids {
        rt.corrupt_node(v, |p: &mut ScaffoldProgram<ChordTarget>| {
            p.core.cbt.view.restamp(now);
        });
    }
    rt
}

/// One gauntlet run against the real protocol, from the fixture `rt`.
fn gauntlet(
    rt: &mut Runtime<ScaffoldProgram<ChordTarget>>,
    seed: u64,
    adv: &Adversary,
    rollback: bool,
    max_rounds: u64,
) -> GauntletOutcome {
    let ck = Checkpoint::capture(rt);
    rt.attach_workload(OpenLoop::new(2.0, N), WorkloadConfig::default());
    let scenario = Scenario::new(format!("gauntlet-{}", adv.name())).seeded(seed);
    let scenario = adv.schedule(scenario, rt.ids(), INJECT, seed);
    let mut suite = DetectorSuite::new();
    let recovery = if rollback {
        Recovery::Rollback(&ck)
    } else {
        Recovery::Restabilize
    };
    let goal = chord_scaffold::legality();
    run_gauntlet(rt, &scenario, &mut suite, recovery, goal, max_rounds)
}

/// The PR's measured claim on the real protocol: rolling implicated hosts
/// back to the pre-attack checkpoint re-legalizes faster than letting the
/// poisoned cluster re-stabilize (lying beacons force a CBT reversion and a
/// full re-merge; rollback is one corrupt_node sweep).
#[test]
fn rollback_beats_restabilization_on_lying_beacons() {
    let adv = Adversary::LyingBeacons { victims: 2 };
    let max = 2 * budget(N, HOSTS) + 64;
    let mut cfg = Config::seeded(7);
    cfg.record_rounds = false;
    let restab = gauntlet(&mut warmed_fixture(cfg), 7, &adv, false, max);
    let rollback = gauntlet(&mut warmed_fixture(cfg), 7, &adv, true, max);
    assert_eq!(restab.verdict, RunVerdict::Satisfied, "{restab:?}");
    assert_eq!(rollback.verdict, RunVerdict::Satisfied, "{rollback:?}");
    assert!(rollback.rolled_back >= 2, "victims must be restored");
    assert!(
        rollback.rounds < restab.rounds,
        "time-to-relegal: rollback {} must beat restab {}",
        rollback.rounds,
        restab.rounds
    );
    // Detection is prompt: the divergence rule fires within a beacon TTL of
    // the lie reaching a neighbor's recorded view.
    assert!(rollback.first_critical.is_some());
    assert!(rollback.first_critical.unwrap() <= INJECT + avatar_cbt::state::BEACON_TTL);
}

/// The membership rules on the real protocol: a crash wave against the
/// silent legal overlay trips the degree rule (a crashed member vanished,
/// its neighbors lost edges) and the silence rule (the survivors wake to
/// repair), and the bank implicates every crashed host (the first wave's
/// only through the vanished-member report: it is gone before any scan).
#[test]
fn crash_wave_trips_the_degree_and_silence_rules() {
    let mut cfg = Config::seeded(9);
    cfg.record_rounds = false;
    let mut rt = warmed_fixture(cfg);
    let adv = Adversary::CrashWave {
        region: 2,
        waves: 2,
        spacing: 4,
    };
    let scenario = adv.schedule(Scenario::new("crash-wave").seeded(9), rt.ids(), INJECT, 9);
    let mut suite = DetectorSuite::new();
    let out = run_gauntlet(
        &mut rt,
        &scenario,
        &mut suite,
        Recovery::Restabilize,
        chord_scaffold::legality(),
        2 * budget(N, HOSTS) + 64,
    );
    assert_eq!(out.verdict, RunVerdict::Satisfied, "{out:?}");
    for class in [FaultClass::DegreeAnomaly, FaultClass::SilenceAnomaly] {
        assert!(out.by_class[class.index()] > 0, "{class:?}: {out:?}");
    }
    let crashed: Vec<NodeId> = out.events.iter().flat_map(|e| e.touched.clone()).collect();
    assert!(!crashed.is_empty(), "the wave crashed someone");
    assert!(crashed.iter().all(|v| !rt.topology().contains(*v)));
    let implicated: Vec<NodeId> = suite.implicated().collect();
    assert!(
        crashed.iter().all(|v| implicated.contains(v)),
        "every crashed host is implicated: {crashed:?} vs {implicated:?}"
    );
}

/// Per-region isolation on the real protocol (`Runtime::partition` /
/// `Runtime::heal`): a quarantined region stops serving cross-cut lookups,
/// release restores full service, and the legality predicate (which ignores
/// the message layer) holds throughout.
#[test]
fn quarantine_isolates_and_release_restores_service() {
    let mut cfg = Config::seeded(21);
    cfg.record_rounds = false;
    let mut rt = warmed_fixture(cfg);
    let region: Vec<NodeId> = rt.ids().iter().copied().take(HOSTS / 2).collect();
    assert_eq!(rt.partition(region.iter().copied()), region.len());
    assert!(rt.partitioned());
    assert!(
        chord_scaffold::runtime_is_legal(&rt),
        "quarantine is message-level only"
    );
    rt.attach_workload(OpenLoop::new(4.0, N).limited(64), WorkloadConfig::default());
    rt.run(64);
    let held = rt.request_stats().clone();
    assert!(
        held.completed < held.issued && held.in_flight > 0,
        "cut-crossing lookups must stall behind the quarantine: {held:?}"
    );
    assert!(rt.heal());
    assert!(!rt.partitioned());
    let mut waited = 0;
    while rt.request_stats().in_flight > 0 && waited < 256 {
        rt.step();
        waited += 1;
    }
    let after = rt.request_stats();
    assert!(
        after.completed > held.completed,
        "stalled lookups must complete once released: {after:?}"
    );
    assert_eq!(after.in_flight, 0, "drained after release: {after:?}");
    assert_eq!(after.completed + after.failed, after.issued);
    assert!(chord_scaffold::runtime_is_legal(&rt));
}

/// Releasing with no quarantine active is a no-op, and quarantining an
/// empty region covers nothing and cuts nothing.
#[test]
fn quarantine_edge_cases() {
    let mut cfg = Config::seeded(5);
    cfg.record_rounds = false;
    let mut rt = warmed_fixture(cfg);
    assert!(!rt.heal(), "nothing to release");
    assert_eq!(rt.partition([]), 0);
    assert!(!rt.partitioned());
}
