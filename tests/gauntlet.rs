//! Integration tests for the adversary gauntlet on the real protocol stack:
//! structured attacks against a converged Avatar(Chord) overlay, the
//! rule-based detector suite, and checkpoint-rollback recovery.
//!
//! The engine promises byte-identical execution at any thread count;
//! these tests extend that promise over the whole
//! detect/classify/rollback path (which runs on the driving thread between
//! rounds, so it inherits determinism — but only if nothing in it secretly
//! iterates a hash map or reads a clock).

use chord_scaffold::{ChordTarget, ScaffoldProgram};
use proptest::prelude::*;
use scaffold_bench::{budget, legal_chord_runtime};
use ssim::monitor::{BeaconStaleness, DegreeAnomaly, SilenceAnomaly, ViewDivergence};
use ssim::{
    run_gauntlet, Adversary, Checkpoint, Config, DetectorSuite, GauntletOutcome, NetModel, NodeId,
    OpenLoop, Recovery, RunVerdict, Runtime, Scenario, WorkloadConfig,
};

const N: u32 = 64;
const HOSTS: usize = 8;
const WARM: u64 = 16;
const INJECT: u64 = 2;

/// The converged-overlay fixture warmed forward with its views re-stamped
/// at the warmed round (receipt rounds are unsigned; views installed at
/// round 0 leave aging attacks nowhere to go).
fn warmed_fixture(seed: u64, cfg: Config) -> Runtime<ScaffoldProgram<ChordTarget>> {
    let mut rt = legal_chord_runtime(N, HOSTS, cfg, NetModel::ideal());
    rt.run(WARM);
    let now = rt.round();
    let ids: Vec<NodeId> = rt.ids().to_vec();
    for &v in &ids {
        rt.corrupt_node(v, |p: &mut ScaffoldProgram<ChordTarget>| {
            p.core.cbt.view.restamp(now);
        });
    }
    let _ = seed;
    rt
}

fn suite() -> DetectorSuite<ScaffoldProgram<ChordTarget>> {
    DetectorSuite::new()
        .with(BeaconStaleness::new())
        .with(ViewDivergence::new())
        .with(DegreeAnomaly::new())
        .with(SilenceAnomaly::new())
}

/// One gauntlet run against the real protocol; returns the outcome and the
/// runtime metrics fingerprint (request accounting included).
fn drive(
    seed: u64,
    cfg: Config,
    sched: &str,
    adv: &Adversary,
    rollback: bool,
    max_rounds: u64,
) -> (GauntletOutcome, String) {
    let mut rt = warmed_fixture(seed, cfg);
    rt.set_scheduler(ssim::sched::from_spec(sched, seed).expect("known spec"));
    let ck = Checkpoint::capture(&rt);
    rt.attach_workload(OpenLoop::new(2.0, N), WorkloadConfig::default());
    let scenario = Scenario::new(format!("gauntlet-{}", adv.name())).seeded(seed);
    let scenario = adv.schedule(scenario, rt.ids(), INJECT, seed);
    let mut suite = suite();
    let recovery = if rollback {
        Recovery::Rollback(&ck)
    } else {
        Recovery::Restabilize
    };
    let out = run_gauntlet(
        &mut rt,
        &scenario,
        &mut suite,
        recovery,
        &mut chord_scaffold::legality(),
        max_rounds,
    );
    let metrics = serde_json::to_string(rt.metrics()).expect("metrics serialize");
    (out, metrics)
}

fn fingerprint(out: &GauntletOutcome, metrics: &str) -> String {
    format!(
        "{}|{metrics}",
        serde_json::to_string(out).expect("outcome JSON")
    )
}

/// Tentpole determinism: the full attack/detect/rollback/re-legalize cycle
/// is byte-identical across thread counts, per daemon.
#[test]
fn gauntlet_runs_identically_across_threads() {
    let adv = Adversary::LyingBeacons { victims: 2 };
    let max = 2 * budget(N, HOSTS) + 64;
    for sched in ["sync", "activity"] {
        let mut reference: Option<String> = None;
        for threads in [1usize, 2, 4, 8] {
            let mut cfg = Config::seeded(33).threads(threads);
            cfg.record_rounds = false;
            let (out, metrics) = drive(33, cfg, sched, &adv, true, max);
            assert_eq!(out.verdict, RunVerdict::Satisfied);
            let fp = fingerprint(&out, &metrics);
            match &reference {
                None => reference = Some(fp),
                Some(r) => assert_eq!(
                    r, &fp,
                    "gauntlet diverged at threads={threads} sched={sched}"
                ),
            }
        }
    }
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
    let (restab, _) = drive(7, cfg, "sync", &adv, false, max);
    let (rollback, _) = drive(7, cfg, "sync", &adv, true, max);
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

/// Per-region isolation on the real protocol (`Runtime::partition` /
/// `Runtime::heal`): a quarantined region stops serving cross-cut lookups,
/// release restores full service, and the legality predicate (which ignores
/// the message layer) holds throughout.
#[test]
fn quarantine_isolates_and_release_restores_service() {
    let mut cfg = Config::seeded(21);
    cfg.record_rounds = false;
    let mut rt = warmed_fixture(21, cfg);
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
    let mut rt = warmed_fixture(5, cfg);
    assert!(!rt.heal(), "nothing to release");
    assert_eq!(rt.partition([]), 0);
    assert!(!rt.partitioned());
}

proptest! {
    /// Detector verdicts — every severity, class count, implicated set, and
    /// event record — are identical across thread counts for every
    /// adversary class. 96 deterministic cases; runs are capped well short
    /// of re-legality (the property is about detection, not recovery, and
    /// a timeout verdict must be identical too).
    #[test]
    fn detector_verdicts_identical_across_threads(
        pick in 0u8..6,
        threads in 2usize..5,
        seed in 0u64..8,
    ) {
        let adv = match pick {
            0 => Adversary::StaleBeacons { victims: 3, age: WARM },
            1 => Adversary::LyingBeacons { victims: 2 },
            2 => Adversary::Equivocation { victims: 2, audiences: 2 },
            3 => Adversary::CrashWave { region: 2, waves: 2, spacing: 4 },
            4 => Adversary::FlashCrowd { joiners: vec![N - 1, N - 2], attach: 2 },
            _ => Adversary::PartitionCycle { side: 3, cycles: 1, hold: 4, gap: 4 },
        };
        let run = |threads: usize| {
            let mut cfg = Config::seeded(seed).threads(threads);
            cfg.record_rounds = false;
            let (out, metrics) = drive(seed, cfg, "sync", &adv, false, 48);
            fingerprint(&out, &metrics)
        };
        prop_assert_eq!(run(1), run(threads));
    }
}
