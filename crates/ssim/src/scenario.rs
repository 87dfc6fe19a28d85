//! Declarative perturbation schedules: a [`Scenario`] is a list of
//! `(round, Event)` entries — [`Fault`]s (edge and membership churn), state
//! corruption, daemon / network swaps, partitions — executed by the one
//! event-applying driver loop against any [`Runtime`], with a goal
//! predicate deciding when the system has (re-)converged and a JSON-serializable
//! [`ScenarioReport`] capturing what happened.
//!
//! This is the workload layer the paper motivates ("overlay networks operate
//! in fragile environments where faults that perturb the logical network
//! topology are commonplace"): instead of each example hand-rolling its own
//! inject-then-drive loop, a scenario states the perturbation schedule once
//! and any protocol/goal pair can replay it deterministically (see
//! [`crate::Runtime::step`] for the stages of a round).

use crate::fault::{inject_traced, Fault};
use crate::monitor::RunVerdict;
use crate::program::Program;
use crate::runtime::Runtime;
use crate::sched::Scheduler;
use crate::NodeId;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::rc::Rc;

/// One scheduled perturbation.
#[derive(Clone)]
pub enum Event<P: Program> {
    /// Inject a fault — edge churn, or a join / leave / crash of a random
    /// or named host; random choices draw from the scenario's seeded RNG.
    Fault(Fault),
    /// Adversarially corrupt one host's program state.
    Corrupt {
        /// The victim.
        id: NodeId,
        /// Human-readable label for the report.
        label: String,
        /// The mutation (shared so events stay cloneable).
        mutate: Rc<dyn Fn(&mut P)>,
    },
    /// Install a different daemon (see [`crate::sched`]) from this round
    /// on — scenarios can stress one protocol under several activation
    /// models in a single run (e.g. converge synchronously, then churn
    /// under an adversarial daemon).
    SetScheduler {
        /// Human-readable label for the report.
        label: String,
        /// Scheduler factory (shared so events stay cloneable; invoked
        /// once per application).
        make: Rc<dyn Fn() -> Box<dyn Scheduler>>,
    },
    /// Cut the network along a node-set bisection (see
    /// [`Runtime::partition`]): messages crossing the cut are dropped,
    /// edges and membership are untouched. Replaces any active partition.
    Partition(Vec<NodeId>),
    /// Splice a partitioned network back together (see [`Runtime::heal`]).
    Heal,
    /// Install a different network-conditions model (see
    /// [`crate::NetModel`]) from this round on — storms can degrade a
    /// converged overlay into a lossy WAN and later restore the ideal
    /// channel in a single schedule.
    SetNetModel(crate::NetModel),
}

impl<P: Program> std::fmt::Debug for Event<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Event::Fault(fault) => write!(f, "Fault({fault:?})"),
            Event::Corrupt { id, label, .. } => write!(f, "Corrupt({id}: {label})"),
            Event::SetScheduler { label, .. } => write!(f, "SetScheduler({label})"),
            Event::Partition(side) => write!(f, "Partition({side:?})"),
            Event::Heal => write!(f, "Heal"),
            Event::SetNetModel(model) => write!(f, "SetNetModel({})", crate::net::to_spec(model)),
        }
    }
}

/// A deterministic perturbation schedule. Rounds are relative to the round
/// at which [`Scenario::run`] is called.
pub struct Scenario<P: Program> {
    name: String,
    seed: u64,
    events: Vec<(u64, Event<P>)>,
}

impl<P: Program> Scenario<P> {
    /// An empty scenario. The RNG used by random faults defaults to a seed
    /// derived from the name; see [`Scenario::seeded`].
    pub fn new(name: impl Into<String>) -> Self {
        let name = name.into();
        let seed = crate::snapshot::content_hash(name.as_bytes());
        Self {
            name,
            seed,
            events: Vec::new(),
        }
    }

    /// Fix the seed of the scenario's private fault RNG.
    #[must_use]
    pub fn seeded(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Schedule `event` at `round` (relative to run start).
    #[must_use]
    pub fn at(mut self, round: u64, event: Event<P>) -> Self {
        self.events.push((round, event));
        self
    }

    /// Schedule a fault.
    #[must_use]
    pub fn fault(self, round: u64, fault: Fault) -> Self {
        self.at(round, Event::Fault(fault))
    }

    /// Schedule the join of host `id` on the named contacts
    /// ([`Fault::JoinAt`]).
    #[must_use]
    pub fn join(self, round: u64, id: NodeId, attach: &[NodeId]) -> Self {
        self.fault(
            round,
            Fault::JoinAt {
                id,
                contacts: attach.to_vec(),
            },
        )
    }

    /// Schedule the graceful leave of host `id` ([`Fault::Leave`],
    /// unguarded).
    #[must_use]
    pub fn leave(self, round: u64, id: NodeId) -> Self {
        self.fault(
            round,
            Fault::Leave {
                id: Some(id),
                keep_connected: false,
            },
        )
    }

    /// Schedule the crash of host `id` ([`Fault::Crash`], unguarded).
    #[must_use]
    pub fn crash(self, round: u64, id: NodeId) -> Self {
        self.fault(
            round,
            Fault::Crash {
                id: Some(id),
                keep_connected: false,
            },
        )
    }

    /// Schedule a daemon swap: from `round` on, rounds are driven by the
    /// scheduler `make` builds (see [`crate::sched`]).
    #[must_use]
    pub fn scheduler(
        self,
        round: u64,
        label: impl Into<String>,
        make: impl Fn() -> Box<dyn Scheduler> + 'static,
    ) -> Self {
        self.at(
            round,
            Event::SetScheduler {
                label: label.into(),
                make: Rc::new(make),
            },
        )
    }

    /// Schedule a network partition: from `round` on, messages between
    /// `side` and the rest of the members are dropped (edges untouched).
    #[must_use]
    pub fn partition(self, round: u64, side: &[NodeId]) -> Self {
        self.at(round, Event::Partition(side.to_vec()))
    }

    /// Schedule the heal of the active partition.
    #[must_use]
    pub fn heal(self, round: u64) -> Self {
        self.at(round, Event::Heal)
    }

    /// Schedule a network-conditions swap: from `round` on, deliveries are
    /// shaped by `model` (see [`crate::NetModel`]).
    #[must_use]
    pub fn net(self, round: u64, model: crate::NetModel) -> Self {
        self.at(round, Event::SetNetModel(model))
    }

    /// The scenario's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The scheduled events, in schedule order.
    pub fn events(&self) -> &[(u64, Event<P>)] {
        &self.events
    }

    /// Execute the schedule against `rt`, driving it to `goal`.
    ///
    /// Every round the driver first applies the events due, then evaluates
    /// the goal. The run ends `Satisfied` at the first round where the goal
    /// holds **and** no events remain (a goal that holds mid-schedule — e.g.
    /// legality between two fault episodes — is recorded but does not stop
    /// the run), and ends `Timeout` after `max_rounds` rounds.
    pub fn run(
        &self,
        rt: &mut Runtime<P>,
        goal: impl FnMut(&Runtime<P>) -> bool,
        max_rounds: u64,
    ) -> ScenarioReport {
        self.run_hooked(rt, goal, max_rounds, |_, _, _| {})
    }

    /// [`Scenario::run`] with a per-round hook: `each_round(rt, now,
    /// records)` runs every round after the due events applied and before
    /// the goal is evaluated, seeing every event record so far. This is the
    /// only loop in the crate that applies events; the gauntlet
    /// ([`crate::adversary::run_gauntlet`]) is this loop with a
    /// detect-and-recover hook.
    pub(crate) fn run_hooked(
        &self,
        rt: &mut Runtime<P>,
        mut goal: impl FnMut(&Runtime<P>) -> bool,
        max_rounds: u64,
        mut each_round: impl FnMut(&mut Runtime<P>, u64, &[EventRecord]),
    ) -> ScenarioReport {
        let mut rng = SmallRng::seed_from_u64(self.seed);
        let mut pending: Vec<(u64, &Event<P>)> = self.events.iter().map(|(r, e)| (*r, e)).collect();
        pending.sort_by_key(|&(r, _)| r); // stable: same-round order preserved
        let mut pending = pending.into_iter().peekable();

        let start = rt.round();
        let mut records = Vec::new();
        let mut satisfied_at: Option<u64> = None;
        let node_count_start = rt.ids().len();

        let (rounds, verdict) = loop {
            let now = rt.round() - start;
            while pending.peek().is_some_and(|&(r, _)| r <= now) {
                let (r, event) = pending.next().unwrap();
                let mut touched = Vec::new();
                let changes = apply(rt, event, &mut rng, &mut touched);
                records.push(EventRecord {
                    round: r,
                    event: format!("{event:?}"),
                    changes,
                    touched,
                });
            }
            each_round(rt, now, &records);
            if goal(rt) {
                satisfied_at.get_or_insert(now);
                if pending.peek().is_none() {
                    break (now, RunVerdict::Satisfied);
                }
            } else {
                satisfied_at = None;
            }
            if now == max_rounds {
                break (now, RunVerdict::Timeout);
            }
            rt.step();
        };

        // Final-state fields read the topology's incremental counters: O(1)
        // regardless of network size.
        let m = rt.metrics();
        ScenarioReport {
            scenario: self.name.clone(),
            seed: self.seed,
            verdict,
            rounds,
            satisfied_at,
            events: records,
            nodes_start: node_count_start,
            nodes_final: rt.ids().len(),
            final_edges: rt.topology().edge_count(),
            final_max_degree: rt.topology().max_degree(),
            peak_degree: m.peak_degree,
            total_messages: m.total_messages,
            total_activations: m.total_activations,
            scheduler: rt.scheduler_name().to_string(),
            joins: m.joins,
            leaves: m.leaves,
            crashes: m.crashes,
        }
    }
}

/// Apply one event to `rt`, appending the ids it touched to `touched`.
fn apply<P: Program>(
    rt: &mut Runtime<P>,
    event: &Event<P>,
    rng: &mut SmallRng,
    touched: &mut Vec<NodeId>,
) -> usize {
    match event {
        Event::Fault(fault) => inject_traced(rt, fault, rng, touched),
        Event::Corrupt { id, mutate, .. } => {
            if rt.topology().contains(*id) {
                rt.corrupt_node(*id, |p| mutate(p));
                touched.push(*id);
                1
            } else {
                0
            }
        }
        Event::SetScheduler { make, .. } => {
            rt.set_scheduler(make());
            1
        }
        Event::Partition(side) => {
            touched.extend(side.iter().filter(|v| rt.topology().contains(**v)));
            usize::from(rt.partition(side.iter().copied()) > 0)
        }
        Event::Heal => usize::from(rt.heal()),
        Event::SetNetModel(model) => {
            rt.set_net_model(*model);
            1
        }
    }
}

/// What one scheduled event did.
#[derive(Debug, Clone, serde::Serialize)]
pub struct EventRecord {
    /// Scheduled round (relative to run start).
    pub round: u64,
    /// Debug rendering of the event.
    pub event: String,
    /// Changes it made (edges touched / members changed / states corrupted).
    pub changes: usize,
    /// Identifiers of the nodes the event touched (edge endpoints, joiners
    /// and their contacts, departed hosts, corruption victims — the nodes
    /// the runtime marks dirty for the event). May repeat ids when several
    /// changes hit the same node; empty for scheduler swaps.
    pub touched: Vec<NodeId>,
}

/// Serializable outcome of a scenario run.
#[derive(Debug, Clone, serde::Serialize)]
pub struct ScenarioReport {
    /// Scenario name.
    pub scenario: String,
    /// Seed of the scenario's fault RNG.
    pub seed: u64,
    /// How the run ended.
    pub verdict: RunVerdict,
    /// Rounds executed by the driver.
    pub rounds: u64,
    /// Round at which the goal last began to hold (for a satisfied
    /// run: when convergence was reached, net of any later perturbations).
    pub satisfied_at: Option<u64>,
    /// Per-event application records.
    pub events: Vec<EventRecord>,
    /// Node count when the scenario started.
    pub nodes_start: usize,
    /// Node count when it ended (churn changes it).
    pub nodes_final: usize,
    /// Edges at the end.
    pub final_edges: usize,
    /// Maximum degree at the end.
    pub final_max_degree: usize,
    /// Peak degree over the whole run.
    pub peak_degree: usize,
    /// Total messages over the whole run.
    pub total_messages: u64,
    /// Total `step()` activations over the whole run (see
    /// [`crate::RunMetrics::total_activations`]).
    pub total_activations: u64,
    /// Name of the daemon installed when the run ended.
    pub scheduler: String,
    /// Join events absorbed by the runtime.
    pub joins: u64,
    /// Graceful leaves absorbed by the runtime.
    pub leaves: u64,
    /// Crashes absorbed by the runtime.
    pub crashes: u64,
}

impl ScenarioReport {
    /// Compact JSON encoding.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("report serialization is infallible")
    }

    /// True iff the run ended satisfied.
    pub fn converged(&self) -> bool {
        self.verdict == RunVerdict::Satisfied
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::Ctx;
    use crate::runtime::Config;

    /// Counts how many distinct senders each node has heard.
    #[derive(Default)]
    struct Gossip {
        heard: std::collections::BTreeSet<NodeId>,
    }

    impl crate::Persist for Gossip {
        fn save(&self, w: &mut crate::snapshot::Writer) {
            self.heard.iter().copied().collect::<Vec<NodeId>>().save(w);
        }
        fn load(r: &mut crate::snapshot::Reader<'_>) -> Result<Self, crate::SnapshotError> {
            let heard = Vec::<NodeId>::load(r)?.into_iter().collect();
            Ok(Self { heard })
        }
    }

    impl Program for Gossip {
        type Msg = ();

        fn step(&mut self, ctx: &mut Ctx<'_, ()>) {
            for &(from, _) in ctx.inbox() {
                self.heard.insert(from);
            }
            for &v in ctx.neighbors() {
                ctx.send(v, ());
            }
        }
    }

    fn ring(n: u32) -> Runtime<Gossip> {
        let edges: Vec<_> = (0..n).map(|i| (i, (i + 1) % n)).collect();
        Runtime::new(
            Config::default(),
            (0..n).map(|i| (i, Gossip::default())),
            edges,
        )
        .with_spawner(|_| Gossip::default())
    }

    #[test]
    fn scripted_churn_changes_node_set_mid_run() {
        let scenario = Scenario::new("churn")
            .join(2, 100, &[0, 3])
            .leave(4, 1)
            .crash(6, 5)
            .fault(8, Fault::Join { id: 101, attach: 2 });
        let mut rt = ring(8);
        let report = scenario.run(&mut rt, |rt| rt.round() >= 12, 100);
        assert!(report.converged());
        assert_eq!(report.rounds, 12);
        assert_eq!(report.nodes_start, 8);
        assert_eq!(report.nodes_final, 8, "8 + 2 joins - 1 leave - 1 crash");
        assert_eq!((report.joins, report.leaves, report.crashes), (2, 1, 1));
        assert_eq!(report.events.len(), 4);
        assert!(report.events.iter().all(|e| e.changes == 1));
        // The joiner has been woven into the gossip.
        assert!(!rt.program(100).heard.is_empty());
    }

    #[test]
    fn satisfied_mid_schedule_does_not_stop_the_run() {
        // Goal is satisfied from round 3 on, but an event is scheduled at
        // round 10 — the driver must keep going until it fires.
        let scenario = Scenario::<Gossip>::new("late-event").leave(10, 0);
        let mut rt = ring(4);
        let report = scenario.run(&mut rt, |rt| rt.round() >= 3, 50);
        assert!(report.converged());
        assert_eq!(report.rounds, 10);
        assert_eq!(report.leaves, 1);
        assert_eq!(report.satisfied_at, Some(3), "first satisfaction recorded");
    }

    #[test]
    fn identical_scenarios_are_deterministic() {
        let build = || {
            Scenario::new("det")
                .seeded(42)
                .fault(1, Fault::Rewire { count: 2 })
                .fault(
                    3,
                    Fault::Leave {
                        id: None,
                        keep_connected: true,
                    },
                )
                .fault(5, Fault::Join { id: 77, attach: 2 })
        };
        let run = || {
            let mut rt = ring(10);
            let report = build().run(&mut rt, |rt| rt.round() >= 20, 50);
            (report.to_json(), rt.topology().edges())
        };
        assert_eq!(run(), run());

        // One vocabulary: the join/leave/crash sugar IS the explicit fault —
        // same report, same runtime bytes, under either daemon.
        let sugar = || {
            build()
                .join(2, 100, &[0, 3])
                .leave(4, 1)
                .crash(6, 5)
                .leave(7, 99)
        };
        let explicit = || {
            let leave = |v| Fault::Leave {
                id: Some(v),
                keep_connected: false,
            };
            let crash = |v| Fault::Crash {
                id: Some(v),
                keep_connected: false,
            };
            let join = Fault::JoinAt {
                id: 100,
                contacts: vec![0, 3],
            };
            build()
                .fault(2, join)
                .fault(4, leave(1))
                .fault(6, crash(5))
                .fault(7, leave(99))
        };
        for activity in [false, true] {
            let run = |sc: Scenario<Gossip>| {
                let edges: Vec<_> = (0..10u32).map(|i| (i, (i + 1) % 10)).collect();
                let mut rt = Runtime::new(
                    Config::seeded(3),
                    (0..10).map(|i| (i, Gossip::default())),
                    edges,
                )
                .with_spawner(|_| Gossip::default());
                if activity {
                    rt.set_scheduler(Box::new(crate::ActivityDriven));
                }
                let report = sc.run(&mut rt, |rt| rt.round() >= 20, 50);
                (report.to_json(), rt.save_snapshot())
            };
            assert_eq!(run(sugar()), run(explicit()), "activity={activity}");
        }
    }

    #[test]
    fn events_on_missing_members_record_zero_changes() {
        let scenario = Scenario::<Gossip>::new("ghost")
            .leave(0, 99)
            .crash(1, 98)
            .at(
                2,
                Event::Corrupt {
                    id: 97,
                    label: "poke".into(),
                    mutate: Rc::new(|_p| {}),
                },
            );
        let mut rt = ring(4);
        let report = scenario.run(&mut rt, |rt| rt.is_silent(), 10);
        assert!(report.events.iter().all(|e| e.changes == 0));
    }

    #[test]
    fn partition_heal_and_net_events_apply_and_stay_conserved() {
        let scenario = Scenario::<Gossip>::new("wan-storm")
            .net(1, crate::NetModel::wan())
            .partition(2, &[0, 1, 2])
            .heal(6)
            .heal(7) // no active partition: records zero changes
            .net(9, crate::NetModel::ideal());
        let mut rt = ring(8);
        let report = scenario.run(&mut rt, |rt| rt.round() >= 20, 50);
        assert!(report.converged());
        assert!(!rt.partitioned());
        assert_eq!(rt.net_model(), crate::NetModel::ideal());
        let changes: Vec<usize> = report.events.iter().map(|e| e.changes).collect();
        assert_eq!(changes, [1, 1, 1, 0, 1]);
        let net = rt.net_stats();
        assert!(net.conserved(), "{net:?}");
        assert!(net.dropped_partition > 0, "gossip crossed the cut: {net:?}");
    }

    #[test]
    fn report_serializes_to_json() {
        let scenario = Scenario::<Gossip>::new("json").leave(1, 2);
        let mut rt = ring(4);
        let report = scenario.run(&mut rt, |rt| rt.round() >= 3, 10);
        let json = report.to_json();
        assert!(json.contains("\"scenario\":\"json\""));
        assert!(json.contains("\"verdict\":\"Satisfied\""));
        assert!(json.contains("\"leaves\":1"));
    }
}
