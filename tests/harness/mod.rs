//! The equivalence harness: the engine promises that an activity-driven
//! daemon and a checkpoint split never change a run, and
//! each byte-identity test of the root suites is a [`Case`] of it.
//! ARCHITECTURE.md ("The quiescence contract and the equivalence
//! argument") says what each axis compares. The daemon axis compares no
//! snapshot bytes: they embed activation counts, which legitimately differ
//! between daemons.

#![allow(dead_code)] // each suite uses a part of the harness

use ssim::{ActivityDriven, Adversarial, Config, Event, Fault, Persist, Program, Runtime};
use ssim::{Scenario, Scheduler, SnapshotError, Synchronous};
use std::fmt::Debug;

/// A daemon factory: every run installs a fresh scheduler.
pub type Daemon = fn() -> Box<dyn Scheduler>;
pub const SYNC: Daemon = || Box::new(Synchronous);
pub const ACTIVITY: Daemon = || Box::new(ActivityDriven);
/// Every live slot, in member order, through the general selection path
/// (the sanitizer and its per-slot flags), which [`SYNC`] skips: the same
/// activations, so the two runs must agree to the byte.
pub const EVERY_LIVE_SANITIZED: Daemon = || Box::new(Adversarial::round_robin(1));

/// A random member leaves, unless that disconnects the rest.
pub const LEAVE: Fault = Fault::Leave {
    id: None,
    keep_connected: true,
};

pub type Recipe<P> = fn(&[u8], Config) -> Result<Runtime<P>, SnapshotError>;
type Attach<'a, P> = Box<dyn Fn(&mut Runtime<P>) + 'a>;

/// A fixture built from a `Config`, an optional workload (re-attached
/// after every restore) and the axes to vary.
pub struct Case<'a, P: Program> {
    name: String,
    cfg: Config,
    build: Box<dyn Fn(Config) -> Runtime<P> + 'a>,
    workload: Option<Attach<'a, P>>,
    daemons: Vec<Daemon>,
    split: Option<(Recipe<P>, Vec<u64>)>,
}

/// How one run ended.
pub struct Run<T> {
    pub out: T,
    pub metrics: String,
    pub snapshot: Vec<u8>,
    pub edges: Vec<(u32, u32)>,
}

/// One run in progress: its runtime and the splits still due (as rounds).
pub struct Arm<'c, 'a, P: Program> {
    case: &'c Case<'a, P>,
    rt: Runtime<P>,
    daemon: Daemon,
    splits: Vec<u64>,
    label: String,
}

impl<'a, P: Program + Persist + Clone> Case<'a, P>
where
    P::Msg: Persist,
{
    /// The synchronous daemon and no split until the builder methods below
    /// say otherwise.
    pub fn new(
        name: impl Into<String>,
        cfg: Config,
        build: impl Fn(Config) -> Runtime<P> + 'a,
    ) -> Self {
        Self {
            name: name.into(),
            cfg,
            build: Box::new(build),
            workload: None,
            daemons: vec![SYNC],
            split: None,
        }
    }

    pub fn workload(mut self, attach: impl Fn(&mut Runtime<P>) + 'a) -> Self {
        self.workload = Some(Box::new(attach));
        self
    }

    /// The straight run's daemon first, then the daemon axis's.
    pub fn daemons(mut self, daemons: &[Daemon]) -> Self {
        self.daemons = daemons.to_vec();
        self
    }

    pub fn split(mut self, recipe: Recipe<P>, at: &[u64]) -> Self {
        self.split = Some((recipe, at.to_vec()));
        self
    }

    /// Drive straight, then once per axis; panic naming the axis at the
    /// first difference. Returns the straight run.
    pub fn run<T: PartialEq + Debug>(self, drive: impl Fn(&mut Arm<P>) -> T) -> Run<T> {
        let d = self.daemons[0];
        let label = |axis: String| format!("{}: {axis}", self.name);
        let base = self.arm(&drive, d, false, &label("straight run".into()));
        for &d in &self.daemons[1..] {
            let label = label(format!("daemon axis ({})", d().name()));
            compare(&label, &base, &self.arm(&drive, d, false, &label), true);
        }
        if let Some((_, at)) = &self.split {
            let label = label(format!("split axis (restores at {at:?})"));
            compare(&label, &base, &self.arm(&drive, d, true, &label), false);
        }
        base
    }

    /// One run; with `split` set, the run that restores at the split
    /// rounds.
    fn arm<T>(
        &self,
        drive: &impl Fn(&mut Arm<P>) -> T,
        daemon: Daemon,
        split: bool,
        label: &str,
    ) -> Run<T> {
        let mut rt = (self.build)(self.cfg);
        self.install(&mut rt, daemon);
        let splits = match &self.split {
            Some((_, at)) if split => at.iter().map(|k| rt.round() + k).collect(),
            _ => Vec::new(),
        };
        let label = label.to_string();
        let mut arm = Arm {
            case: self,
            rt,
            daemon,
            splits,
            label,
        };
        let out = drive(&mut arm);
        arm.boundary();
        let (rt, label) = (arm.rt, arm.label);
        assert!(arm.splits.is_empty(), "{label}: a split round never came");
        let metrics = serde_json::to_string(rt.metrics()).expect("metrics serialize");
        let (snapshot, edges) = (rt.save_snapshot(), rt.topology().edges());
        Run {
            out,
            metrics,
            snapshot,
            edges,
        }
    }

    /// One split: save, cold-restore, re-install.
    fn cold(&self, rt: &Runtime<P>, daemon: Daemon, label: &str) -> Runtime<P> {
        let (recipe, _) = self.split.as_ref().expect("a split has a recipe");
        let mut cfg = self.cfg;
        cfg.seed = !cfg.seed;
        let mut back = recipe(&rt.save_snapshot(), cfg).expect("own snapshot restores");
        assert_eq!(
            (back.config().seed, back.in_transit(), back.net_stats()),
            (self.cfg.seed, rt.in_transit(), rt.net_stats()),
            "{label}: the restore pins the seed and keeps the messages in transit and the net books"
        );
        let pending = back.pending_workload();
        self.install(&mut back, daemon);
        assert_eq!(
            (pending, back.pending_workload()),
            (self.workload.is_some(), false),
            "{label}: the restore holds the saved traffic without a router until re-attach"
        );
        back
    }

    fn install(&self, rt: &mut Runtime<P>, daemon: Daemon) {
        rt.set_scheduler(daemon());
        if let Some(attach) = &self.workload {
            attach(rt);
        }
    }
}

impl<P: Program + Persist + Clone> Arm<'_, '_, P>
where
    P::Msg: Persist,
{
    /// The runtime, after the split due at this round, if any.
    pub fn rt(&mut self) -> &mut Runtime<P> {
        self.boundary();
        &mut self.rt
    }

    pub fn run(&mut self, rounds: u64) {
        for _ in 0..rounds {
            self.rt().step();
        }
        self.boundary();
    }

    /// Run until `goal` holds or `budget` rounds have run, evaluating it
    /// before the first round and after each; did it hold?
    pub fn goal(&mut self, goal: fn(&Runtime<P>) -> bool, budget: u64) -> bool {
        for _ in 0..budget {
            if goal(self.rt()) {
                return true;
            }
            self.rt.step();
        }
        goal(self.rt())
    }

    /// Apply `event` now through the scenario driver: a one-event
    /// `Scenario` seeded from (case seed, round), run for 0 rounds. Returns
    /// what it changed.
    pub fn event(&mut self, event: Event<P>) -> usize {
        let seed = self.case.cfg.seed ^ self.rt().round().wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let scenario = Scenario::new("script").seeded(seed).at(0, event);
        scenario.run(self.rt(), |_| true, 0).events[0].changes
    }

    pub fn fault(&mut self, fault: Fault) -> usize {
        self.event(Event::Fault(fault))
    }

    fn boundary(&mut self) {
        let now = self.rt.round();
        if let Some(i) = self.splits.iter().position(|&k| k == now) {
            self.splits.swap_remove(i);
            self.rt = self.case.cold(&self.rt, self.daemon, &self.label);
        }
    }
}

fn compare<T: PartialEq + Debug>(label: &str, base: &Run<T>, arm: &Run<T>, blind: bool) {
    assert_eq!(base.out, arm.out, "{label}: fingerprints differ");
    let same = |what: &str, same: bool| assert!(same, "{label}: {what} differ");
    if blind {
        let blank = |json: &str| {
            ssim::metrics::blank_json_fields(json, &["total_activations", "active_nodes"])
        };
        same(
            "activity-blind metrics",
            blank(&base.metrics) == blank(&arm.metrics),
        );
        same("final edge sets", base.edges == arm.edges);
    } else {
        same("metrics JSON", base.metrics == arm.metrics);
        same("snapshot bytes", base.snapshot == arm.snapshot);
    }
}
