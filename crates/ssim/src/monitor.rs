//! Observer API for driving simulations: a [`Monitor`] inspects the runtime
//! between rounds and renders a [`Verdict`]. One generic driver —
//! [`crate::Runtime::run_monitored`] — serves every protocol, replacing the
//! run-to-legality free functions each crate used to re-invent. Monitors
//! observe the runtime only *between* rounds, on the driving thread, so they
//! are oblivious to whether rounds execute sequentially or on the thread
//! pool (see [`crate::Config::threads`]).
//!
//! Two monitor species compose under [`all_of`]:
//!
//! * **goal** monitors ([`goal`]) are `Satisfied` exactly while their
//!   predicate holds — e.g. a protocol's legality predicate;
//! * **invariant** monitors ([`invariant`], [`PeakDegree`],
//!   [`MessageBudget`]) are `Satisfied` while they hold and `Violated` the
//!   round they break — they never block termination, they only abort runs.
//!
//! The driver stops at the first round where every composed monitor is
//! simultaneously `Satisfied`, or aborts on the first `Violated`.

use crate::program::Program;
use crate::runtime::Runtime;

/// One observation's outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// The monitored condition holds.
    Satisfied,
    /// Not yet — keep running.
    Pending,
    /// A hard failure: abort the run and surface the reason.
    Violated(String),
}

/// Observes a runtime between rounds. Monitors are stateful: they may count
/// rounds, latch transitions, or track extrema across observations.
pub trait Monitor<P: Program> {
    /// Inspect the runtime (called once before the first round and once
    /// after every round).
    fn observe(&mut self, rt: &Runtime<P>) -> Verdict;

    /// Short label for reports.
    fn name(&self) -> &str {
        "monitor"
    }
}

/// Outcome of a monitored run.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize)]
pub enum RunVerdict {
    /// The monitor was satisfied.
    Satisfied,
    /// The round budget ran out first.
    Timeout,
    /// A monitor reported violation.
    Violated,
}

/// Result of [`crate::Runtime::run_monitored`].
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct MonitorOutcome {
    /// Rounds executed by this driver call.
    pub rounds: u64,
    /// How the run ended.
    pub verdict: RunVerdict,
    /// Violation reason, when `verdict == Violated`.
    pub reason: Option<String>,
}

impl MonitorOutcome {
    /// `Some(rounds)` when satisfied, `None` otherwise — the classic
    /// "rounds to convergence or timeout" `Option` shape most experiment
    /// tables want.
    pub fn rounds_if_satisfied(&self) -> Option<u64> {
        match self.verdict {
            RunVerdict::Satisfied => Some(self.rounds),
            _ => None,
        }
    }
}

/// A goal monitor from a predicate: `Satisfied` exactly while `pred` holds,
/// `Pending` otherwise. Deliberately *not* latched — a perturbation that
/// breaks the condition again (scenario churn) must read as `Pending`, so
/// drivers measure true re-convergence.
pub fn goal<P, F>(name: &'static str, pred: F) -> Goal<F>
where
    P: Program,
    F: FnMut(&Runtime<P>) -> bool,
{
    Goal { name, pred }
}

/// See [`goal`].
pub struct Goal<F> {
    name: &'static str,
    pred: F,
}

impl<P, F> Monitor<P> for Goal<F>
where
    P: Program,
    F: FnMut(&Runtime<P>) -> bool,
{
    fn observe(&mut self, rt: &Runtime<P>) -> Verdict {
        if (self.pred)(rt) {
            Verdict::Satisfied
        } else {
            Verdict::Pending
        }
    }

    fn name(&self) -> &str {
        self.name
    }
}

/// An invariant monitor from a predicate: `Satisfied` while `pred` holds,
/// `Violated` the first time it doesn't.
pub fn invariant<P, F>(name: &'static str, pred: F) -> Invariant<F>
where
    P: Program,
    F: FnMut(&Runtime<P>) -> bool,
{
    Invariant { name, pred }
}

/// See [`invariant`].
pub struct Invariant<F> {
    name: &'static str,
    pred: F,
}

impl<P, F> Monitor<P> for Invariant<F>
where
    P: Program,
    F: FnMut(&Runtime<P>) -> bool,
{
    fn observe(&mut self, rt: &Runtime<P>) -> Verdict {
        if (self.pred)(rt) {
            Verdict::Satisfied
        } else {
            Verdict::Violated(format!("invariant `{}` broken", self.name))
        }
    }

    fn name(&self) -> &str {
        self.name
    }
}

/// Goal: the network is silent (no messages pending) and every program
/// reports itself quiescent. In a self-stabilizing protocol this is the
/// paper's "silent network" condition. O(1) per observation: both the
/// pending-message count and the quiescent-node count are tracked
/// incrementally by the runtime (the latter via the scheduler subsystem's
/// dirty-set bookkeeping), so this no longer scans every program.
pub fn quiescence<P: Program>() -> Goal<impl FnMut(&Runtime<P>) -> bool> {
    goal("quiescence", |rt: &Runtime<P>| {
        rt.is_silent() && rt.all_quiescent()
    })
}

/// Goal: the network is silent (no messages in flight), regardless of what
/// programs report.
pub fn silence<P: Program>() -> Goal<impl FnMut(&Runtime<P>) -> bool> {
    goal("silence", |rt: &Runtime<P>| rt.is_silent())
}

/// Invariant: peak degree (over the whole run so far) stays within `max` —
/// the degree-expansion guardrail of Section 2.2.
pub struct PeakDegree {
    max: usize,
}

impl PeakDegree {
    /// Allow a peak degree of at most `max`.
    pub fn at_most(max: usize) -> Self {
        Self { max }
    }
}

impl<P: Program> Monitor<P> for PeakDegree {
    fn observe(&mut self, rt: &Runtime<P>) -> Verdict {
        // Metrics absorb degree at round boundaries; also read the live
        // topology so a perturbation spike is caught the round it lands.
        // Both reads are O(1) — the topology tracks degrees incrementally.
        let peak = rt.metrics().peak_degree.max(rt.topology().max_degree());
        if peak <= self.max {
            Verdict::Satisfied
        } else {
            Verdict::Violated(format!("peak degree {peak} exceeds budget {}", self.max))
        }
    }

    fn name(&self) -> &str {
        "peak-degree"
    }
}

/// Invariant: total messages sent stay within `max`.
pub struct MessageBudget {
    max: u64,
}

impl MessageBudget {
    /// Allow at most `max` total messages.
    pub fn at_most(max: u64) -> Self {
        Self { max }
    }
}

impl<P: Program> Monitor<P> for MessageBudget {
    fn observe(&mut self, rt: &Runtime<P>) -> Verdict {
        let sent = rt.metrics().total_messages;
        if sent <= self.max {
            Verdict::Satisfied
        } else {
            Verdict::Violated(format!("messages {sent} exceed budget {}", self.max))
        }
    }

    fn name(&self) -> &str {
        "message-budget"
    }
}

/// Conjunction: `Satisfied` when every part is simultaneously satisfied,
/// `Violated` as soon as any part is, `Pending` otherwise.
pub fn all_of<P: Program>(parts: Vec<Box<dyn Monitor<P> + Send>>) -> AllOf<P> {
    AllOf { parts }
}

/// See [`all_of`].
pub struct AllOf<P: Program> {
    parts: Vec<Box<dyn Monitor<P> + Send>>,
}

impl<P: Program> Monitor<P> for AllOf<P> {
    fn observe(&mut self, rt: &Runtime<P>) -> Verdict {
        let mut all_satisfied = true;
        for m in &mut self.parts {
            match m.observe(rt) {
                Verdict::Satisfied => {}
                Verdict::Pending => all_satisfied = false,
                Verdict::Violated(why) => return Verdict::Violated(why),
            }
        }
        if all_satisfied {
            Verdict::Satisfied
        } else {
            Verdict::Pending
        }
    }

    fn name(&self) -> &str {
        "all-of"
    }
}

/// Budget combinator ([`MonitorExt::within_budget`]): like the inner monitor,
/// but `Violated` once more than `max_rounds` observations elapse without
/// satisfaction.
pub struct WithinBudget<M> {
    inner: M,
    max_rounds: u64,
    seen: u64,
}

impl<P: Program, M: Monitor<P>> Monitor<P> for WithinBudget<M> {
    fn observe(&mut self, rt: &Runtime<P>) -> Verdict {
        let v = self.inner.observe(rt);
        match v {
            Verdict::Pending => {
                // Observation k happens after k rounds (the first one before
                // any round runs), so a Pending observation with
                // `seen == max_rounds` means the budget is spent.
                if self.seen >= self.max_rounds {
                    return Verdict::Violated(format!(
                        "`{}` not satisfied within {} rounds",
                        self.inner.name(),
                        self.max_rounds
                    ));
                }
                self.seen += 1;
                Verdict::Pending
            }
            v => v,
        }
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

/// Extension methods for fluent composition.
pub trait MonitorExt<P: Program>: Monitor<P> + Sized {
    /// `self` AND `other` (see [`all_of`] for the verdict lattice).
    fn and<M: Monitor<P> + Send + 'static>(self, other: M) -> AllOf<P>
    where
        Self: Send + 'static,
    {
        all_of(vec![Box::new(self), Box::new(other)])
    }

    /// Fail the run if satisfaction takes more than `max_rounds` rounds.
    fn within_budget(self, max_rounds: u64) -> WithinBudget<Self> {
        WithinBudget {
            inner: self,
            max_rounds,
            seen: 0,
        }
    }
}

impl<P: Program, M: Monitor<P> + Sized> MonitorExt<P> for M {}

// ---------------------------------------------------------------------------
// Rule-based fault detection: classified detections, not just verdicts.
// ---------------------------------------------------------------------------

/// How bad a [`Detection`] is. Only [`Severity::Critical`] detections drive
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
/// (in the spirit of BLEEP's typed shard fault detection).
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
    /// All classes, in canonical (reporting) order.
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

    /// Short label for tables.
    pub fn label(self) -> &'static str {
        match self {
            FaultClass::BeaconStaleness => "stale",
            FaultClass::ViewDivergence => "diverge",
            FaultClass::DegreeAnomaly => "degree",
            FaultClass::SilenceAnomaly => "silence",
        }
    }
}

/// One classified alarm raised by a [`Detector`].
#[derive(Debug, Clone, serde::Serialize)]
pub struct Detection {
    /// Which rule class matched.
    pub class: FaultClass,
    /// How bad it is.
    pub severity: Severity,
    /// The implicated node (the one recovery should touch).
    pub node: crate::NodeId,
    /// Round of detection.
    pub round: u64,
    /// Human-readable specifics.
    pub detail: String,
}

/// A rule-based fault detector: scanned once per round on the driving
/// thread (like a [`Monitor`], so detections are bit-identical at any
/// thread count), it **classifies** what it finds instead of returning a
/// run verdict. Detectors arm any baseline they need on their first scan.
pub trait Detector<P: Program> {
    /// Inspect the runtime; push one [`Detection`] per rule match.
    fn scan(&mut self, rt: &Runtime<P>, out: &mut Vec<Detection>);

    /// Detector name for reports.
    fn name(&self) -> &'static str;
}

/// Detects observations that aged faster than time itself. An honest,
/// never-refreshed observation ages by exactly one round per round, and a
/// refresh only makes it *younger* — so the normalized offset
/// `age − rounds_elapsed` can never rise. The detector records that offset
/// per `(holder, about)` observation on first sight, lowers it on
/// refreshes, and reports any rise as tampered freshness metadata (a
/// stale-beacon attack), every round until it clears. Staleness alone
/// cannot make state inconsistent, so this never exceeds
/// [`Severity::Warning`].
#[derive(Default)]
pub struct BeaconStaleness {
    armed_at: Option<u64>,
    offsets: std::collections::BTreeMap<(crate::NodeId, crate::NodeId), i64>,
}

impl BeaconStaleness {
    /// A fresh detector; arms on first scan.
    pub fn new() -> Self {
        Self::default()
    }
}

impl<P: crate::adversary::Introspect> Detector<P> for BeaconStaleness {
    fn scan(&mut self, rt: &Runtime<P>, out: &mut Vec<Detection>) {
        let now = rt.round();
        let armed_at = *self.armed_at.get_or_insert(now);
        let elapsed = (now - armed_at) as i64;
        for (holder, p) in rt.programs() {
            for (about, age) in p.observation_ages(now) {
                let cur = age as i64 - elapsed;
                let offset = *self.offsets.entry((holder, about)).or_insert(cur);
                if cur > offset {
                    out.push(Detection {
                        class: FaultClass::BeaconStaleness,
                        severity: Severity::Warning,
                        node: holder,
                        round: now,
                        detail: format!(
                            "{holder}'s view of {about} is {age} rounds old, \
                             {} more than honest aging allows",
                            cur - offset
                        ),
                    });
                } else if cur < offset {
                    // Refreshed: tighten so a later tamper of the new
                    // recording is still caught.
                    self.offsets.insert((holder, about), cur);
                }
            }
        }
    }

    fn name(&self) -> &'static str {
        "beacon-staleness"
    }
}

/// Detects recorded views that disagree with what the viewed node currently
/// advertises: for every observation `holder → about` where `about` is a
/// live member, the recorded identity digest must equal `about`'s own. A
/// mismatch is [`Severity::Critical`] and implicates **both ends** — under
/// a lying-beacon attack the *about* node is corrupt, under equivocation
/// the *holder*'s record was fabricated; rolling back both covers either.
#[derive(Default)]
pub struct ViewDivergence;

impl ViewDivergence {
    /// A fresh detector (stateless).
    pub fn new() -> Self {
        Self
    }
}

impl<P: crate::adversary::Introspect> Detector<P> for ViewDivergence {
    fn scan(&mut self, rt: &Runtime<P>, out: &mut Vec<Detection>) {
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
                    let ends = [
                        (
                            about,
                            format!("{holder}'s record of {about} diverges from its state"),
                        ),
                        (
                            holder,
                            format!("{holder} holds a divergent view of {about}"),
                        ),
                    ];
                    out.extend(ends.map(|(node, detail)| Detection {
                        class: FaultClass::ViewDivergence,
                        severity: Severity::Critical,
                        node,
                        round: now,
                        detail,
                    }));
                }
            }
        }
    }

    fn name(&self) -> &'static str {
        "view-divergence"
    }
}

/// Detects members whose connectivity collapsed or exploded against the
/// degree baseline armed on the first scan: a vanished or isolated member is
/// [`Severity::Critical`]; a degree at most half or at least double its
/// baseline is a [`Severity::Warning`]; members joining after arming are
/// reported once as [`Severity::Info`] and then adopted into the baseline.
#[derive(Default)]
pub struct DegreeAnomaly {
    baseline: std::collections::BTreeMap<crate::NodeId, usize>,
    armed: bool,
}

impl DegreeAnomaly {
    /// A fresh detector; arms on first scan.
    pub fn new() -> Self {
        Self::default()
    }
}

impl<P: Program> Detector<P> for DegreeAnomaly {
    fn scan(&mut self, rt: &Runtime<P>, out: &mut Vec<Detection>) {
        if !self.armed {
            self.armed = true;
            for &v in rt.ids() {
                self.baseline.insert(v, rt.topology().degree(v));
            }
            return;
        }
        let mut raise = |severity, node, detail| {
            out.push(Detection {
                class: FaultClass::DegreeAnomaly,
                severity,
                node,
                round: rt.round(),
                detail,
            });
        };
        self.baseline.retain(|&v, &mut d0| {
            if !rt.topology().contains(v) {
                let detail = format!("member {v} vanished (baseline degree {d0})");
                raise(Severity::Critical, v, detail);
                return false; // report the departure once
            }
            let d = rt.topology().degree(v);
            if d == 0 {
                let detail = format!("member {v} is isolated (baseline degree {d0})");
                raise(Severity::Critical, v, detail);
            } else if d0 > 0 && (d * 2 <= d0 || d >= d0 * 2) {
                let detail = format!("degree {d} drifted from baseline {d0}");
                raise(Severity::Warning, v, detail);
            }
            true
        });
        for &v in rt.ids() {
            self.baseline.entry(v).or_insert_with(|| {
                raise(
                    Severity::Info,
                    v,
                    format!("unbaselined member {v} appeared"),
                );
                rt.topology().degree(v)
            });
        }
    }

    fn name(&self) -> &'static str {
        "degree-anomaly"
    }
}

/// Detects program activity in a network whose baseline was fully
/// quiescent — converged self-stabilizing protocols go silent, so a burst
/// of awake nodes marks a perturbation spreading. Reports one aggregated
/// detection per active round: [`Severity::Info`] while at most a quarter
/// of members are awake, [`Severity::Warning`] beyond that, never critical
/// (activity is how the protocol *heals*). Inert when the network was not
/// quiescent at arming time (e.g. while traffic keeps hosts busy).
#[derive(Default)]
pub struct SilenceAnomaly {
    was_quiet: Option<bool>,
}

impl SilenceAnomaly {
    /// A fresh detector; arms on first scan.
    pub fn new() -> Self {
        Self::default()
    }
}

impl<P: Program> Detector<P> for SilenceAnomaly {
    fn scan(&mut self, rt: &Runtime<P>, out: &mut Vec<Detection>) {
        let quiet_now = rt.all_quiescent();
        let was_quiet = *self.was_quiet.get_or_insert(quiet_now);
        if !was_quiet || quiet_now {
            return;
        }
        let n = rt.ids().len().max(1);
        let mut awake = 0usize;
        let mut first: Option<crate::NodeId> = None;
        for (v, p) in rt.programs() {
            if !p.is_quiescent() {
                awake += 1;
                first.get_or_insert(v);
            }
        }
        if awake == 0 {
            return;
        }
        out.push(Detection {
            class: FaultClass::SilenceAnomaly,
            severity: if awake * 4 <= n {
                Severity::Info
            } else {
                Severity::Warning
            },
            node: first.expect("awake > 0"),
            round: rt.round(),
            detail: format!("{awake} of {n} members active in a silent-baseline network"),
        });
    }

    fn name(&self) -> &'static str {
        "silence-anomaly"
    }
}

/// A bank of detectors scanned together, aggregating classified counters
/// the gauntlet reports: totals, per-class counts, worst severity, first
/// detection / first critical rounds, and the set of implicated nodes (what
/// rollback repairs).
pub struct DetectorSuite<P: Program> {
    detectors: Vec<Box<dyn Detector<P> + Send>>,
    scratch: Vec<Detection>,
    total: u64,
    criticals: u64,
    by_class: [u64; 4],
    worst: Option<Severity>,
    first: Option<u64>,
    first_critical: Option<u64>,
    implicated: std::collections::BTreeSet<crate::NodeId>,
}

impl<P: Program> Default for DetectorSuite<P> {
    fn default() -> Self {
        Self::new()
    }
}

impl<P: Program> DetectorSuite<P> {
    /// An empty suite.
    pub fn new() -> Self {
        Self {
            detectors: Vec::new(),
            scratch: Vec::new(),
            total: 0,
            criticals: 0,
            by_class: [0; 4],
            worst: None,
            first: None,
            first_critical: None,
            implicated: std::collections::BTreeSet::new(),
        }
    }

    /// Add a detector.
    #[must_use]
    pub fn with(mut self, d: impl Detector<P> + Send + 'static) -> Self {
        self.detectors.push(Box::new(d));
        self
    }

    /// Scan every detector once and fold the detections into the counters.
    /// Returns how many detections this scan produced.
    pub fn scan(&mut self, rt: &Runtime<P>) -> usize {
        self.scratch.clear();
        for d in &mut self.detectors {
            d.scan(rt, &mut self.scratch);
        }
        let found = self.scratch.len();
        for det in self.scratch.drain(..) {
            self.total += 1;
            self.by_class[det.class.index()] += 1;
            self.worst = Some(self.worst.map_or(det.severity, |w| w.max(det.severity)));
            self.first.get_or_insert(det.round);
            if det.severity == Severity::Critical {
                self.criticals += 1;
                self.first_critical.get_or_insert(det.round);
            }
            self.implicated.insert(det.node);
        }
        found
    }

    /// Total detections across all scans.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Per-class counts, in [`FaultClass::ALL`] order.
    pub fn by_class(&self) -> [u64; 4] {
        self.by_class
    }

    /// Critical detections so far.
    pub fn criticals(&self) -> u64 {
        self.criticals
    }

    /// Worst severity observed.
    pub fn worst(&self) -> Option<Severity> {
        self.worst
    }

    /// Round of the first detection.
    pub fn first_round(&self) -> Option<u64> {
        self.first
    }

    /// Round of the first critical detection.
    pub fn first_critical_round(&self) -> Option<u64> {
        self.first_critical
    }

    /// Every node any detection has implicated, ascending.
    pub fn implicated(&self) -> impl Iterator<Item = crate::NodeId> + '_ {
        self.implicated.iter().copied()
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
    fn goal_tracks_live_predicate() {
        let rt = rt2();
        let mut hits = 0;
        let mut m = goal("every-other", move |_: &Runtime<Idle>| {
            hits += 1;
            hits == 2
        });
        assert_eq!(m.observe(&rt), Verdict::Pending);
        assert_eq!(m.observe(&rt), Verdict::Satisfied);
        assert_eq!(
            m.observe(&rt),
            Verdict::Pending,
            "goals are not latched: re-broken conditions read Pending"
        );
    }

    #[test]
    fn invariant_violates_with_name() {
        let rt = rt2();
        let mut m = invariant("never", |_: &Runtime<Idle>| false);
        match m.observe(&rt) {
            Verdict::Violated(why) => assert!(why.contains("never")),
            v => panic!("expected violation, got {v:?}"),
        }
    }

    #[test]
    fn all_of_waits_for_every_goal() {
        let rt = rt2();
        let mut m = all_of::<Idle>(vec![
            Box::new(goal("a", |_: &Runtime<Idle>| true)),
            Box::new(goal("b", |rt: &Runtime<Idle>| rt.round() >= 1)),
            Box::new(PeakDegree::at_most(10)),
        ]);
        assert_eq!(m.observe(&rt), Verdict::Pending);
        let mut rt = rt2();
        rt.step();
        assert_eq!(m.observe(&rt), Verdict::Satisfied);
    }

    #[test]
    fn budget_combinator_trips() {
        let rt = rt2();
        let mut m = goal("never", |_: &Runtime<Idle>| false).within_budget(2);
        assert_eq!(m.observe(&rt), Verdict::Pending); // pre-round observation
        assert_eq!(m.observe(&rt), Verdict::Pending); // after round 1
        let third = m.observe(&rt); // after round 2: the 2-round budget is blown
        assert!(matches!(third, Verdict::Violated(_)));
    }

    #[test]
    fn budget_combinator_allows_satisfaction_at_the_deadline() {
        let mut rt = rt2();
        let mut m = goal("two-rounds", |rt: &Runtime<Idle>| rt.round() >= 2).within_budget(2);
        let out = rt.run_monitored(&mut m, 100);
        assert_eq!(out.verdict, RunVerdict::Satisfied);
        assert_eq!(out.rounds, 2);
    }

    #[test]
    fn run_monitored_drives_to_goal() {
        let mut rt = rt2();
        let mut m = goal("three-rounds", |rt: &Runtime<Idle>| rt.round() >= 3);
        let out = rt.run_monitored(&mut m, 100);
        assert_eq!(out.verdict, RunVerdict::Satisfied);
        assert_eq!(out.rounds, 3);
        assert_eq!(out.rounds_if_satisfied(), Some(3));
    }

    #[test]
    fn run_monitored_times_out() {
        let mut rt = rt2();
        let mut m = goal("never", |_: &Runtime<Idle>| false);
        let out = rt.run_monitored(&mut m, 5);
        assert_eq!(out.verdict, RunVerdict::Timeout);
        assert_eq!(out.rounds, 5);
        assert_eq!(out.rounds_if_satisfied(), None);
    }

    #[test]
    fn run_monitored_aborts_on_violation() {
        let mut rt = rt2();
        let mut m = goal("never", |_: &Runtime<Idle>| false)
            .and(MessageBudget::at_most(u64::MAX))
            .and(PeakDegree::at_most(0));
        let out = rt.run_monitored(&mut m, 100);
        assert_eq!(out.verdict, RunVerdict::Violated);
        assert!(out.reason.unwrap().contains("peak degree"));
        assert_eq!(out.rounds, 0, "violation detected before any round");
    }

    #[test]
    fn quiescence_on_idle_network() {
        let mut rt = rt2();
        let mut m = quiescence::<Idle>();
        let out = rt.run_monitored(&mut m, 10);
        assert_eq!(out.verdict, RunVerdict::Satisfied);
        assert_eq!(out.rounds, 0);
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
        let mut m = silence::<PingOnce>();
        assert_eq!(
            m.observe(&rt),
            Verdict::Pending,
            "in-transit messages must keep the network non-silent"
        );
        let mut q = quiescence::<PingOnce>();
        assert_eq!(
            q.observe(&rt),
            Verdict::Pending,
            "quiescence inherits the in-transit guard"
        );
        let out = rt.run_monitored(&mut m, 20);
        assert_eq!(out.verdict, RunVerdict::Satisfied);
        assert!(out.rounds >= 3, "satisfied only after the delayed delivery");
        assert_eq!(rt.in_transit(), 0);
        assert!(rt.net_stats().conserved());
    }
}
