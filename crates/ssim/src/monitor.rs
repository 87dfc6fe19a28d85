//! Driving a run to a goal, and the bank of rule-based fault detectors.
//!
//! The paper scores a self-stabilizing run by its convergence time: the
//! rounds until the configuration is legal (Section 2.2). So a run has one
//! kind of observer, a **goal**: any predicate `FnMut(&Runtime<P>) -> bool`,
//! such as a protocol's legality check. [`crate::Runtime::run_monitored`]
//! evaluates it before the first round and after every round, and
//! [`crate::Scenario::run`] does the same between scheduled events. Goals
//! are evaluated only *between* rounds, never inside one (see
//! [`crate::Runtime::step`] for the stages of a round). A goal is not latched: a perturbation
//! that breaks the condition again reads as "not yet", so drivers measure
//! true re-convergence.
//!
//! [`DetectorSuite`] is the gauntlet's detector bank
//! ([`crate::adversary::run_gauntlet`]): four fixed rules that classify what
//! they find into per-class counters instead of ending the run.

use crate::adversary::Introspect;
use crate::program::Program;
use crate::runtime::Runtime;
use crate::NodeId;
use std::collections::{BTreeMap, BTreeSet};

/// How a run to a goal ended.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize)]
pub enum RunVerdict {
    /// The goal held.
    Satisfied,
    /// The round budget ran out first.
    Timeout,
}

/// Result of [`crate::Runtime::run_monitored`].
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct MonitorOutcome {
    /// Rounds executed by this driver call.
    pub rounds: u64,
    /// How the run ended.
    pub verdict: RunVerdict,
}

impl MonitorOutcome {
    /// `Some(rounds)` when satisfied, `None` otherwise — the classic
    /// "rounds to convergence or timeout" `Option` shape most experiment
    /// tables want.
    pub fn rounds_if_satisfied(&self) -> Option<u64> {
        match self.verdict {
            RunVerdict::Satisfied => Some(self.rounds),
            RunVerdict::Timeout => None,
        }
    }
}

/// Name a goal at its call site: returns `pred` unchanged (the name only
/// documents the call).
pub fn goal<P, F>(_name: &'static str, pred: F) -> F
where
    P: Program,
    F: FnMut(&Runtime<P>) -> bool,
{
    pred
}

// ---------------------------------------------------------------------------
// Rule-based fault detection: classified counters, not run outcomes.
// ---------------------------------------------------------------------------

/// How bad a detection is. Only [`Severity::Critical`] detections drive
/// automated recovery ([`crate::adversary::run_gauntlet`] rolls back on the
/// first critical); warnings and infos are telemetry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, serde::Serialize)]
pub enum Severity {
    /// Expected-but-noteworthy (an unbaselined joiner, mild activity).
    Info,
    /// Suspicious but survivable (stale freshness metadata, degree drift).
    Warning,
    /// State is provably inconsistent or a member is gone/isolated.
    Critical,
}

impl Severity {
    /// Short label for tables.
    pub fn label(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warn",
            Severity::Critical => "crit",
        }
    }
}

/// What kind of fault a rule matched — the taxonomy axis of a detection
/// (in the spirit of BLEEP's typed shard fault detection). One rule of
/// [`DetectorSuite`] per class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize)]
pub enum FaultClass {
    /// An observation's age exceeds what honest aging can produce.
    BeaconStaleness,
    /// A recorded view of a node disagrees with what that node advertises.
    ViewDivergence,
    /// A member's degree collapsed/exploded against its armed baseline, or
    /// the member vanished outright.
    DegreeAnomaly,
    /// Activity in a network whose baseline was quiescent.
    SilenceAnomaly,
}

impl FaultClass {
    /// All classes, in canonical (reporting and scanning) order.
    pub const ALL: [FaultClass; 4] = [
        FaultClass::BeaconStaleness,
        FaultClass::ViewDivergence,
        FaultClass::DegreeAnomaly,
        FaultClass::SilenceAnomaly,
    ];

    /// Position in [`FaultClass::ALL`] (for per-class counters).
    pub fn index(self) -> usize {
        self as usize
    }
}

/// The detector bank the gauntlet scans once per round, between rounds. It holds
/// one rule per [`FaultClass`], scanned in [`FaultClass::ALL`] order; the
/// stateful rules arm their baseline on the first scan, which therefore
/// reports only view divergence. Scans are read-only on the runtime.
///
/// The suite aggregates classified counters: totals, per-class counts,
/// worst severity, first detection / first critical rounds, and the set of
/// implicated nodes (what rollback repairs).
#[derive(Default)]
pub struct DetectorSuite {
    staleness: BeaconStaleness,
    degree: DegreeAnomaly,
    silence: SilenceAnomaly,
    tally: Tally,
}

impl DetectorSuite {
    /// A fresh bank; every rule arms on the first scan.
    pub fn new() -> Self {
        Self::default()
    }

    /// Scan every rule once and fold what they find into the counters.
    pub fn scan<P: Introspect>(&mut self, rt: &Runtime<P>) {
        let tally = &mut self.tally;
        self.staleness.scan(rt, tally);
        view_divergence(rt, tally);
        self.degree.scan(rt, tally);
        self.silence.scan(rt, tally);
    }

    /// Total detections across all scans.
    pub fn total(&self) -> u64 {
        self.tally.total
    }

    /// Per-class counts, in [`FaultClass::ALL`] order.
    pub fn by_class(&self) -> [u64; 4] {
        self.tally.by_class
    }

    /// Critical detections so far.
    pub fn criticals(&self) -> u64 {
        self.tally.criticals
    }

    /// Worst severity observed.
    pub fn worst(&self) -> Option<Severity> {
        self.tally.worst
    }

    /// Round of the first detection.
    pub fn first_round(&self) -> Option<u64> {
        self.tally.first
    }

    /// Round of the first critical detection.
    pub fn first_critical_round(&self) -> Option<u64> {
        self.tally.first_critical
    }

    /// Every node any detection has implicated, ascending.
    pub fn implicated(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.tally.implicated.iter().copied()
    }
}

/// The suite's counters; every rule match is one [`Tally::raise`].
#[derive(Default)]
struct Tally {
    total: u64,
    criticals: u64,
    by_class: [u64; 4],
    worst: Option<Severity>,
    first: Option<u64>,
    first_critical: Option<u64>,
    implicated: BTreeSet<NodeId>,
}

impl Tally {
    /// Count one detection of `class` at `severity`, implicating `node`, in
    /// round `now`.
    fn raise(&mut self, class: FaultClass, severity: Severity, node: NodeId, now: u64) {
        self.total += 1;
        self.by_class[class.index()] += 1;
        self.worst = self.worst.max(Some(severity));
        self.first.get_or_insert(now);
        if severity == Severity::Critical {
            self.criticals += 1;
            self.first_critical.get_or_insert(now);
        }
        self.implicated.insert(node);
    }
}

/// Detects observations that aged faster than time itself. An honest,
/// never-refreshed observation ages by exactly one round per round, and a
/// refresh only makes it *younger* — so the normalized offset
/// `age − rounds_elapsed` can never rise. The rule records that offset per
/// `(holder, about)` observation on first sight, lowers it on refreshes,
/// and reports any rise as tampered freshness metadata (a stale-beacon
/// attack) against the holder, every round until it clears. Staleness alone
/// cannot make state inconsistent, so this never exceeds
/// [`Severity::Warning`].
#[derive(Default)]
struct BeaconStaleness {
    armed_at: Option<u64>,
    offsets: BTreeMap<(NodeId, NodeId), i64>,
}

impl BeaconStaleness {
    fn scan<P: Introspect>(&mut self, rt: &Runtime<P>, tally: &mut Tally) {
        let now = rt.round();
        let armed_at = *self.armed_at.get_or_insert(now);
        let elapsed = (now - armed_at) as i64;
        for (holder, p) in rt.programs() {
            for (about, age) in p.observation_ages(now) {
                let cur = age as i64 - elapsed;
                let offset = *self.offsets.entry((holder, about)).or_insert(cur);
                if cur > offset {
                    tally.raise(FaultClass::BeaconStaleness, Severity::Warning, holder, now);
                } else if cur < offset {
                    // Refreshed: tighten so a later tamper of the new
                    // recording is still caught.
                    self.offsets.insert((holder, about), cur);
                }
            }
        }
    }
}

/// Detects recorded views that disagree with what the viewed node currently
/// advertises: for every observation `holder → about` where `about` is a
/// live member, the recorded identity digest must equal `about`'s own. A
/// mismatch is [`Severity::Critical`] and implicates **both ends** — under
/// a lying-beacon attack the *about* node is corrupt, under equivocation
/// the *holder*'s record was fabricated; rolling back both covers either.
/// Stateless, so it reports from the first scan on.
fn view_divergence<P: Introspect>(rt: &Runtime<P>, tally: &mut Tally) {
    let now = rt.round();
    for (holder, p) in rt.programs() {
        for (about, _) in p.observation_ages(now) {
            if !rt.topology().contains(about) {
                continue;
            }
            let Some(recorded) = p.recorded_digest(about) else {
                continue;
            };
            if recorded != rt.program(about).identity_digest() {
                for node in [about, holder] {
                    tally.raise(FaultClass::ViewDivergence, Severity::Critical, node, now);
                }
            }
        }
    }
}

/// Detects members whose connectivity collapsed or exploded against the
/// degree baseline armed on the first scan: a vanished or isolated member is
/// [`Severity::Critical`]; a degree at most half or at least double its
/// baseline is a [`Severity::Warning`]; members joining after arming are
/// reported once as [`Severity::Info`] and then adopted into the baseline.
#[derive(Default)]
struct DegreeAnomaly {
    baseline: BTreeMap<NodeId, usize>,
    armed: bool,
}

impl DegreeAnomaly {
    fn scan<P: Program>(&mut self, rt: &Runtime<P>, tally: &mut Tally) {
        let topo = rt.topology();
        if !self.armed {
            self.armed = true;
            self.baseline = rt.ids().iter().map(|&v| (v, topo.degree(v))).collect();
            return;
        }
        let now = rt.round();
        let mut raise =
            |severity, node| tally.raise(FaultClass::DegreeAnomaly, severity, node, now);
        self.baseline.retain(|&v, &mut d0| {
            if !topo.contains(v) {
                raise(Severity::Critical, v);
                return false; // report the departure once
            }
            let d = topo.degree(v);
            if d == 0 {
                raise(Severity::Critical, v);
            } else if d0 > 0 && (d * 2 <= d0 || d >= d0 * 2) {
                raise(Severity::Warning, v);
            }
            true
        });
        for &v in rt.ids() {
            self.baseline.entry(v).or_insert_with(|| {
                raise(Severity::Info, v);
                topo.degree(v)
            });
        }
    }
}

/// Detects program activity in a network whose baseline was fully
/// quiescent — converged self-stabilizing protocols go silent, so a burst
/// of awake nodes marks a perturbation spreading. Reports one aggregated
/// detection per active round, against the first awake member:
/// [`Severity::Info`] while at most a quarter of members are awake,
/// [`Severity::Warning`] beyond that, never critical (activity is how the
/// protocol *heals*). Inert when the network was not quiescent at arming
/// time (e.g. while traffic keeps hosts busy).
#[derive(Default)]
struct SilenceAnomaly {
    was_quiet: Option<bool>,
}

impl SilenceAnomaly {
    fn scan<P: Program>(&mut self, rt: &Runtime<P>, tally: &mut Tally) {
        let quiet_now = rt.all_quiescent();
        let was_quiet = *self.was_quiet.get_or_insert(quiet_now);
        if !was_quiet || quiet_now {
            return;
        }
        let n = rt.ids().len().max(1);
        let mut awake = rt.programs().filter(|(_, p)| !p.is_quiescent());
        let Some((first, _)) = awake.next() else {
            return;
        };
        let awake = 1 + awake.count();
        let severity = if awake * 4 <= n {
            Severity::Info
        } else {
            Severity::Warning
        };
        tally.raise(FaultClass::SilenceAnomaly, severity, first, rt.round());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::Ctx;
    use crate::runtime::Config;

    struct Idle;
    impl Program for Idle {
        type Msg = ();
        fn step(&mut self, _ctx: &mut Ctx<'_, ()>) {}
        fn is_quiescent(&self) -> bool {
            true
        }
    }

    fn rt2() -> Runtime<Idle> {
        Runtime::new(Config::default(), (0..2u32).map(|i| (i, Idle)), [(0, 1)])
    }

    #[test]
    fn run_monitored_drives_to_goal() {
        let mut rt = rt2();
        let out = rt.run_monitored(|rt| rt.round() >= 3, 100);
        assert_eq!(out.verdict, RunVerdict::Satisfied);
        assert_eq!(out.rounds, 3);
        assert_eq!(out.rounds_if_satisfied(), Some(3));
    }

    #[test]
    fn run_monitored_takes_no_round_when_the_goal_holds() {
        let mut rt = rt2();
        let out = rt.run_monitored(|rt| rt.is_silent() && rt.all_quiescent(), 10);
        assert_eq!(out.verdict, RunVerdict::Satisfied);
        assert_eq!(out.rounds, 0);
        assert_eq!(
            rt.round(),
            0,
            "the goal is evaluated before the first round"
        );
    }

    #[test]
    fn run_monitored_times_out() {
        let mut rt = rt2();
        let mut never = goal("never", |_: &Runtime<Idle>| false);
        let out = rt.run_monitored(&mut never, 5);
        assert_eq!(out.verdict, RunVerdict::Timeout);
        assert_eq!(out.rounds, 5);
        assert_eq!(out.rounds_if_satisfied(), None);
    }

    /// Sends one burst to every neighbor, then idles.
    #[derive(Default)]
    struct PingOnce {
        sent: bool,
    }
    impl Program for PingOnce {
        type Msg = ();
        fn step(&mut self, ctx: &mut Ctx<'_, ()>) {
            if !self.sent {
                self.sent = true;
                for &v in ctx.neighbors() {
                    ctx.send(v, ());
                }
            }
        }
        fn is_quiescent(&self) -> bool {
            self.sent
        }
    }

    #[test]
    fn silence_counts_in_transit_messages() {
        // Regression: with a latency model installed, a round where every
        // inbox is empty but messages sit in the delay queue must NOT read
        // as silent — otherwise a lossy/laggy quiet round looks converged.
        let delayed = crate::NetModel {
            delay: 3,
            ..crate::NetModel::ideal()
        };
        let mut rt = Runtime::new(
            Config::default(),
            (0..2u32).map(|i| (i, PingOnce::default())),
            [(0, 1)],
        )
        .with_net_model(delayed);
        rt.step();
        assert_eq!(rt.in_transit(), 2, "both pings are held in the delay queue");
        assert!(
            !rt.is_silent(),
            "in-transit messages must keep the network non-silent"
        );
        let out = rt.run_monitored(|rt| rt.is_silent(), 20);
        assert_eq!(out.verdict, RunVerdict::Satisfied);
        assert!(out.rounds >= 3, "satisfied only after the delayed delivery");
        assert_eq!(rt.in_transit(), 0);
        assert!(rt.net_stats().conserved());
    }
}
