//! Structured, seeded adversaries and checkpoint-rollback recovery.
//!
//! An [`Adversary`] is a named, seeded generator of [`Event`]s: a
//! parameterized attack — stale or lying beacons, equivocation,
//! region-correlated crash waves, flash-crowd joins, repeated
//! partition+heal cycles — that [`Adversary::schedule`] appends to an
//! ordinary [`Scenario`], so every attack is deterministic under every
//! daemon and thread count, and reports the ids it touched
//! through the [`EventRecord`] path.
//!
//! Protocols opt into *targeted* state corruption by implementing
//! [`Sabotage`] (the attack surface: age recorded observations, skew the
//! node's advertised identity, plant a fabricated observation) and
//! [`Introspect`] (the inspection surface the rule-based detectors in
//! [`crate::monitor`] read: observation ages and identity digests).
//!
//! The defensive half is [`run_gauntlet`]: the scenario driver loop with a
//! per-round hook that scans a [`DetectorSuite`] and, under
//! [`Recovery::Rollback`], rolls every implicated node back to the last
//! verified [`Checkpoint`] the moment a critical detection fires — so
//! checkpoint-rollback recovery can be measured head-to-head against plain
//! re-stabilization ([`Recovery::Restabilize`]) on time-to-relegal and
//! request SLOs. Per-region isolation of a suspect zone is
//! [`Runtime::partition`] / [`Runtime::heal`].

use crate::monitor::{DetectorSuite, RunVerdict, Severity};
use crate::program::Program;
use crate::runtime::Runtime;
use crate::scenario::{Event, EventRecord, Scenario};
use crate::snapshot::Persist;
use crate::NodeId;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

/// The targeted-corruption surface a protocol exposes to structured
/// adversaries. Each method is a *semantic* fault — the adversary names what
/// it breaks (freshness, identity, a specific observation) instead of
/// scrambling random bytes, so detectors can classify what they find.
pub trait Sabotage: Program {
    /// Make every observation this node holds about its neighbors `rounds`
    /// older than it really is (a stale-beacon attack: freshness metadata is
    /// corrupted, payloads are untouched).
    fn age_observations(&mut self, rounds: u64);

    /// Corrupt the node's own advertised identity (cluster id, range,
    /// cluster minimum, …) as a deterministic function of `salt`, and wake
    /// the node so it actively *beacons the lie* to its neighbors.
    fn skew_identity(&mut self, salt: u64);

    /// Fabricate this node's recorded observation about `about` as a
    /// deterministic function of `salt` (an equivocation attack: different
    /// nodes end up holding divergent views of the same victim). Returns
    /// `false` when the node holds no observation of `about` to tamper with.
    fn plant_observation(&mut self, about: NodeId, salt: u64) -> bool;
}

/// The inspection surface the rule-based fault detectors read. Observations
/// are whatever per-neighbor soft state the protocol keeps (beacon views for
/// the CBT crates); digests summarize advertised identity so divergence is a
/// single `u64` comparison.
pub trait Introspect: Program {
    /// `(about, age)` for every observation this node currently holds, with
    /// `age` in rounds relative to `now`. Order must be deterministic.
    fn observation_ages(&self, now: u64) -> Vec<(NodeId, u64)>;

    /// Digest of the identity this node currently advertises.
    fn identity_digest(&self) -> u64;

    /// Digest of the identity this node has *recorded* for `about`, if any.
    fn recorded_digest(&self, about: NodeId) -> Option<u64>;
}

/// A named, parameterized, seeded generator of [`Event`]s.
/// [`Adversary::schedule`] appends them to a [`Scenario`], so attacks replay
/// identically at any thread count and compose with joins, daemon swaps and
/// WAN models.
#[derive(Debug, Clone)]
pub enum Adversary {
    /// Age the beacon views of `victims` random nodes by `age` rounds:
    /// freshness corruption only, payloads stay truthful.
    StaleBeacons {
        /// How many nodes get their views aged.
        victims: usize,
        /// How many rounds older every observation becomes.
        age: u64,
    },
    /// Skew the advertised identity of `victims` random nodes; each victim
    /// wakes and beacons the corrupted identity to its neighbors.
    LyingBeacons {
        /// How many nodes start lying.
        victims: usize,
    },
    /// For each of `victims` random nodes, plant divergent fabricated
    /// observations *about* it at up to `audiences` other nodes — the
    /// network ends up holding mutually inconsistent views of the victim.
    Equivocation {
        /// How many nodes are equivocated about.
        victims: usize,
        /// How many other nodes receive a fabricated view of each victim.
        audiences: usize,
    },
    /// Crash a contiguous id-region of `region` nodes in `waves` bursts
    /// spaced `spacing` rounds apart (region-correlated failure, e.g. a rack
    /// or datacenter browning out). Crashes keep the survivors connected,
    /// matching the paper's connectivity assumption.
    CrashWave {
        /// Total nodes in the doomed region.
        region: usize,
        /// Number of crash bursts the region fails in.
        waves: usize,
        /// Rounds between bursts.
        spacing: u64,
    },
    /// All of `joiners` join in one burst, each attached to `attach` random
    /// existing hosts (requires a spawner on the runtime).
    FlashCrowd {
        /// Identifiers of the joining hosts (must not be members yet).
        joiners: Vec<NodeId>,
        /// Random bootstrap contacts per joiner.
        attach: usize,
    },
    /// Repeatedly cut a contiguous id-region of `side` nodes off the
    /// network for `hold` rounds, heal for `gap` rounds, `cycles` times.
    /// Message-level only: edges and membership are untouched.
    PartitionCycle {
        /// Nodes on the cut-off side.
        side: usize,
        /// Number of partition+heal repetitions.
        cycles: usize,
        /// Rounds each partition lasts.
        hold: u64,
        /// Rounds of healthy network between partitions.
        gap: u64,
    },
}

impl Adversary {
    /// Stable name for tables and labels.
    pub fn name(&self) -> &'static str {
        match self {
            Adversary::StaleBeacons { .. } => "stale-beacons",
            Adversary::LyingBeacons { .. } => "lying-beacons",
            Adversary::Equivocation { .. } => "equivocation",
            Adversary::CrashWave { .. } => "crash-wave",
            Adversary::FlashCrowd { .. } => "flash-crowd",
            Adversary::PartitionCycle { .. } => "partition-cycle",
        }
    }

    /// Append this adversary's events to `sc`, starting at relative round
    /// `start`. Victim selection is drawn from `seed` (not from the
    /// scenario's RNG), so the same adversary picks the same victims no
    /// matter what else the scenario schedules. `members` should be the
    /// member list at schedule time; events landing on since-departed hosts
    /// degrade to recorded no-ops, like any scenario event.
    #[must_use]
    pub fn schedule<P: Sabotage>(
        &self,
        mut sc: Scenario<P>,
        members: &[NodeId],
        start: u64,
        seed: u64,
    ) -> Scenario<P> {
        let mix = crate::snapshot::content_hash(self.name().as_bytes());
        let mut rng = SmallRng::seed_from_u64(seed ^ mix);
        let mut pool: Vec<NodeId> = members.to_vec();
        pool.sort_unstable();
        match *self {
            Adversary::StaleBeacons { victims, age } => {
                for v in pick(&mut pool, victims, &mut rng) {
                    sc = sc.at(
                        start,
                        Event::Corrupt {
                            id: v,
                            label: format!("stale-beacons(age={age})"),
                            mutate: std::sync::Arc::new(move |p: &mut P| p.age_observations(age)),
                        },
                    );
                }
            }
            Adversary::LyingBeacons { victims } => {
                for v in pick(&mut pool, victims, &mut rng) {
                    let salt: u64 = rng.gen();
                    sc = sc.at(
                        start,
                        Event::Corrupt {
                            id: v,
                            label: format!("lying-beacons(salt={salt:#x})"),
                            mutate: std::sync::Arc::new(move |p: &mut P| p.skew_identity(salt)),
                        },
                    );
                }
            }
            Adversary::Equivocation { victims, audiences } => {
                for v in pick(&mut pool, victims, &mut rng) {
                    let mut others: Vec<NodeId> =
                        pool.iter().copied().filter(|&u| u != v).collect();
                    others.shuffle(&mut rng);
                    others.truncate(audiences);
                    others.sort_unstable(); // canonical event order
                    for u in others {
                        let salt: u64 = rng.gen();
                        sc = sc.at(
                            start,
                            Event::Corrupt {
                                id: u,
                                label: format!("equivocation(about={v})"),
                                mutate: std::sync::Arc::new(move |p: &mut P| {
                                    p.plant_observation(v, salt);
                                }),
                            },
                        );
                    }
                }
            }
            Adversary::CrashWave {
                region,
                waves,
                spacing,
            } => {
                let doomed = contiguous(&pool, region, &mut rng);
                let waves = waves.max(1);
                let per_wave = doomed.len().div_ceil(waves);
                for (w, chunk) in doomed.chunks(per_wave.max(1)).enumerate() {
                    let at = start + w as u64 * spacing;
                    for &v in chunk {
                        sc = sc.fault(
                            at,
                            crate::fault::Fault::Crash {
                                id: Some(v),
                                keep_connected: true,
                            },
                        );
                    }
                }
            }
            Adversary::FlashCrowd {
                ref joiners,
                attach,
            } => {
                for &id in joiners {
                    sc = sc.fault(start, crate::fault::Fault::Join { id, attach });
                }
            }
            Adversary::PartitionCycle {
                side,
                cycles,
                hold,
                gap,
            } => {
                let cut = contiguous(&pool, side, &mut rng);
                for c in 0..cycles as u64 {
                    let at = start + c * (hold + gap);
                    sc = sc.partition(at, &cut).heal(at + hold);
                }
            }
        }
        sc
    }
}

/// `k` distinct members, chosen and ordered deterministically from `rng`.
fn pick(pool: &mut [NodeId], k: usize, rng: &mut SmallRng) -> Vec<NodeId> {
    pool.shuffle(rng);
    let mut chosen: Vec<NodeId> = pool[..k.min(pool.len())].to_vec();
    chosen.sort_unstable(); // canonical event order; selection stays random
    chosen
}

/// A contiguous run of `k` ids from the sorted member list (wrapping), with
/// a seeded start — models region-correlated failure domains.
fn contiguous(sorted: &[NodeId], k: usize, rng: &mut SmallRng) -> Vec<NodeId> {
    if sorted.is_empty() {
        return Vec::new();
    }
    let at = rng.gen_range(0..sorted.len());
    (0..k.min(sorted.len()))
        .map(|i| sorted[(at + i) % sorted.len()])
        .collect()
}

/// A verified checkpoint of a full runtime, captured through the
/// hash-sealed [`crate::snapshot`] layer. Rollback restores *per-node
/// program state* from the checkpoint into a live runtime — the surgical
/// half of recovery: only implicated nodes are touched, membership and
/// topology stay live.
pub struct Checkpoint {
    bytes: Vec<u8>,
}

impl Checkpoint {
    /// Capture the current runtime. The bytes carry the snapshot layer's
    /// content hash, so a later rollback only proceeds from an intact image.
    pub fn capture<P>(rt: &Runtime<P>) -> Self
    where
        P: Program + Persist,
        P::Msg: Persist,
    {
        Self {
            bytes: rt.save_snapshot(),
        }
    }

    /// The sealed snapshot image.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Roll the program state of every node in `nodes` back to this
    /// checkpoint. The image is materialized in a single-threaded shadow
    /// runtime; each implicated node that exists in both the checkpoint and
    /// the live runtime has its program replaced wholesale (through
    /// [`Runtime::corrupt_node`], so the victim is marked dirty and
    /// re-evaluated for quiescence). Nodes that crashed since the
    /// checkpoint, or joined after it, are skipped — rollback cannot
    /// resurrect the dead. Returns how many nodes were rolled back.
    ///
    /// # Panics
    /// Panics if the verified image does not decode as a `Runtime<P>` — the
    /// checkpoint was captured from a runtime of a different program type,
    /// which is a caller bug, not a property of the bytes.
    pub fn rollback<P>(&self, rt: &mut Runtime<P>, nodes: &[NodeId]) -> usize
    where
        P: Program + Persist + Clone,
        P::Msg: Persist,
    {
        let shadow: Runtime<P> = Runtime::restore_snapshot(&self.bytes, rt.config().threads(1))
            .expect("checkpoint holds a runtime of this program type");
        let mut done = BTreeSet::new();
        let mut count = 0usize;
        for &v in nodes {
            if !done.insert(v) || !rt.topology().contains(v) || !shadow.topology().contains(v) {
                continue;
            }
            let saved = shadow.program(v).clone();
            rt.corrupt_node(v, move |p| *p = saved);
            count += 1;
        }
        count
    }
}

/// How [`run_gauntlet`] reacts to a critical detection.
#[derive(Clone, Copy)]
pub enum Recovery<'a> {
    /// Do nothing: let the protocol re-stabilize on its own (the paper's
    /// baseline self-healing path).
    Restabilize,
    /// Roll every implicated node back to the checkpoint the first time the
    /// detector suite reports a critical fault.
    Rollback(&'a Checkpoint),
}

/// Outcome of one [`run_gauntlet`] drive.
#[derive(Debug, Clone, serde::Serialize)]
pub struct GauntletOutcome {
    /// Scenario name.
    pub scenario: String,
    /// How the run ended ([`RunVerdict::Satisfied`] = re-legalized).
    pub verdict: RunVerdict,
    /// Rounds executed (for a satisfied run: time-to-relegal, including the
    /// rounds the attack itself occupied).
    pub rounds: u64,
    /// Round of the first detection of any severity, if any.
    pub detect_round: Option<u64>,
    /// Round of the first critical detection, if any.
    pub first_critical: Option<u64>,
    /// Total detections over the run.
    pub alerts: u64,
    /// Per-class detection counts, in [`crate::monitor::FaultClass::ALL`]
    /// order.
    pub by_class: Vec<u64>,
    /// Worst severity observed.
    pub worst: Option<Severity>,
    /// Nodes rolled back (0 under [`Recovery::Restabilize`] or when no
    /// critical fired).
    pub rolled_back: usize,
    /// Round the rollback happened, if it did.
    pub recovered_at: Option<u64>,
    /// Per-event application records (the [`EventRecord`] path).
    pub events: Vec<EventRecord>,
}

/// Drive `scenario` against `rt` through the scenario driver loop
/// ([`Scenario::run`]'s), with a per-round hook that scans `suite` (after
/// due events apply, before the goal is evaluated) and applies `recovery` on
/// the first critical detection: under [`Recovery::Rollback`] the union of
/// every event-touched id and every detector-implicated id is rolled back
/// to the checkpoint, once per run.
///
/// The run ends `Satisfied` at the first round where `goal` holds and no
/// events remain — for a legality goal that is exactly *time-to-relegal*,
/// making the restabilize and rollback arms directly comparable. Scans are
/// read-only, so under [`Recovery::Restabilize`] the run is exactly
/// [`Scenario::run`]'s.
pub fn run_gauntlet<P>(
    rt: &mut Runtime<P>,
    scenario: &Scenario<P>,
    suite: &mut DetectorSuite,
    recovery: Recovery<'_>,
    goal: impl FnMut(&Runtime<P>) -> bool,
    max_rounds: u64,
) -> GauntletOutcome
where
    P: Introspect + Persist + Clone,
    P::Msg: Persist,
{
    let start = rt.round();
    let mut rolled_back = 0usize;
    let mut recovered_at: Option<u64> = None;
    let report = scenario.run_hooked(rt, goal, max_rounds, |rt, now, records| {
        suite.scan(rt);
        if recovered_at.is_none() && suite.criticals() > 0 {
            if let Recovery::Rollback(ck) = recovery {
                let touched: BTreeSet<NodeId> =
                    records.iter().flat_map(|r| &r.touched).copied().collect();
                let mut targets: Vec<NodeId> = touched.into_iter().collect();
                targets.extend(suite.implicated());
                rolled_back = ck.rollback(rt, &targets);
                recovered_at = Some(now);
            }
        }
    });

    GauntletOutcome {
        scenario: report.scenario,
        verdict: report.verdict,
        rounds: report.rounds,
        detect_round: suite.first_round().map(|r| r.saturating_sub(start)),
        first_critical: suite
            .first_critical_round()
            .map(|r| r.saturating_sub(start)),
        alerts: suite.total(),
        by_class: suite.by_class().to_vec(),
        worst: suite.worst(),
        rolled_back,
        recovered_at,
        events: report.events,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monitor::FaultClass;
    use crate::program::Ctx;
    use crate::snapshot::{Reader, SnapshotError, Writer};
    use crate::Config;
    use std::collections::BTreeMap;

    /// Toy protocol for the gauntlet machinery: each node advertises a tag
    /// and records the tags it hears, with the round it heard them.
    #[derive(Debug, Clone, Default, PartialEq)]
    struct Tagger {
        tag: u64,
        clock: u64,
        view: BTreeMap<NodeId, (u64, u64)>, // about -> (recorded round, tag)
    }

    impl Program for Tagger {
        type Msg = (NodeId, u64);
        fn step(&mut self, ctx: &mut Ctx<'_, (NodeId, u64)>) {
            for &(_, (who, tag)) in ctx.inbox() {
                self.view.insert(who, (self.clock, tag));
            }
            self.clock += 1;
        }
    }

    impl Persist for Tagger {
        fn save(&self, w: &mut Writer) {
            w.u64(self.tag);
            w.u64(self.clock);
            w.seq(self.view.len());
            for (&v, &(r, t)) in &self.view {
                w.u32(v);
                w.u64(r);
                w.u64(t);
            }
        }
        fn load(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
            let tag = r.u64()?;
            let clock = r.u64()?;
            let mut view = BTreeMap::new();
            for _ in 0..r.seq()? {
                let v = r.u32()?;
                view.insert(v, (r.u64()?, r.u64()?));
            }
            Ok(Self { tag, clock, view })
        }
    }

    impl Sabotage for Tagger {
        fn age_observations(&mut self, rounds: u64) {
            for (r, _) in self.view.values_mut() {
                *r = r.saturating_sub(rounds);
            }
        }
        fn skew_identity(&mut self, salt: u64) {
            self.tag ^= salt | 1;
        }
        fn plant_observation(&mut self, about: NodeId, salt: u64) -> bool {
            match self.view.get_mut(&about) {
                Some((_, t)) => {
                    *t ^= salt | 1;
                    true
                }
                None => false,
            }
        }
    }

    impl Introspect for Tagger {
        fn observation_ages(&self, now: u64) -> Vec<(NodeId, u64)> {
            self.view
                .iter()
                .map(|(&v, &(r, _))| (v, now.saturating_sub(r)))
                .collect()
        }
        fn identity_digest(&self) -> u64 {
            self.tag ^ 0x9E37
        }
        fn recorded_digest(&self, about: NodeId) -> Option<u64> {
            self.view.get(&about).map(|&(_, t)| t ^ 0x9E37)
        }
    }

    /// How far test runtimes are run before views are recorded: gives the
    /// stale-beacon adversary room to age records (ages floor at the round
    /// counter's zero).
    const WARM: u64 = 32;

    /// A seeded ring, run [`WARM`] rounds forward, where everyone has then
    /// recorded everyone's true tag.
    fn warmed_ring(n: u32, cfg: Config) -> Runtime<Tagger> {
        let edges: Vec<_> = (0..n).map(|i| (i, (i + 1) % n)).collect();
        let mut rt = Runtime::new(
            cfg,
            (0..n).map(|i| {
                (
                    i,
                    Tagger {
                        tag: 1000 + i as u64,
                        ..Tagger::default()
                    },
                )
            }),
            edges,
        )
        .with_spawner(|v| Tagger {
            tag: 1000 + v as u64,
            ..Tagger::default()
        });
        for _ in 0..WARM {
            rt.step();
        }
        let now = rt.round();
        for i in 0..n {
            let view: BTreeMap<NodeId, (u64, u64)> = (0..n)
                .filter(|&j| j != i)
                .map(|j| (j, (now, 1000 + j as u64)))
                .collect();
            rt.corrupt_node(i, |p| p.view = view);
        }
        rt
    }

    /// Goal satisfied `rounds` rounds after the runtime's current round.
    fn ran(rt: &Runtime<Tagger>, rounds: u64) -> impl FnMut(&Runtime<Tagger>) -> bool {
        let until = rt.round() + rounds;
        move |rt: &Runtime<Tagger>| rt.round() >= until
    }

    /// `adv` alone, in a fresh scenario seeded like the adversary.
    fn compile(adv: &Adversary, members: &[NodeId], start: u64, seed: u64) -> Scenario<Tagger> {
        adv.schedule(Scenario::new(adv.name()).seeded(seed), members, start, seed)
    }

    #[test]
    fn adversary_compilation_is_deterministic() {
        let members: Vec<NodeId> = (0..32).collect();
        for adv in [
            Adversary::StaleBeacons {
                victims: 3,
                age: 50,
            },
            Adversary::LyingBeacons { victims: 2 },
            Adversary::Equivocation {
                victims: 2,
                audiences: 4,
            },
            Adversary::CrashWave {
                region: 6,
                waves: 3,
                spacing: 4,
            },
            Adversary::PartitionCycle {
                side: 8,
                cycles: 2,
                hold: 5,
                gap: 5,
            },
        ] {
            let a: Vec<String> = compile(&adv, &members, 2, 77)
                .events()
                .iter()
                .map(|(r, e)| format!("{r}:{e:?}"))
                .collect();
            let b: Vec<String> = compile(&adv, &members, 2, 77)
                .events()
                .iter()
                .map(|(r, e)| format!("{r}:{e:?}"))
                .collect();
            assert_eq!(a, b, "{} compiles identically", adv.name());
            assert!(!a.is_empty(), "{} schedules events", adv.name());
            // A different seed picks a different schedule somewhere in a
            // small seed range (region starts have only `members` choices,
            // so a single pair of seeds may legitimately collide).
            let differs = (78..90).any(|seed| {
                let c: Vec<String> = compile(&adv, &members, 2, seed)
                    .events()
                    .iter()
                    .map(|(r, e)| format!("{r}:{e:?}"))
                    .collect();
                c != a
            });
            assert!(differs, "{} responds to the seed", adv.name());
        }
    }

    #[test]
    fn crash_wave_is_region_correlated_and_spaced() {
        let members: Vec<NodeId> = (0..32).collect();
        let adv = Adversary::CrashWave {
            region: 8,
            waves: 4,
            spacing: 3,
        };
        let sc = compile(&adv, &members, 5, 9);
        let rounds: BTreeSet<u64> = sc.events().iter().map(|&(r, _)| r).collect();
        assert_eq!(
            rounds.into_iter().collect::<Vec<_>>(),
            vec![5, 8, 11, 14],
            "four bursts, three rounds apart"
        );
        assert_eq!(sc.events().len(), 8);
    }

    #[test]
    fn stale_beacons_trip_staleness_warnings_only() {
        let mut rt = warmed_ring(8, Config::seeded(1));
        let members: Vec<NodeId> = rt.ids().to_vec();
        let adv = Adversary::StaleBeacons {
            victims: 2,
            age: 100,
        };
        let sc = compile(&adv, &members, 1, 42);
        let mut suite = DetectorSuite::new();
        let ck = Checkpoint::capture(&rt);
        let goal = ran(&rt, 6);
        let out = run_gauntlet(&mut rt, &sc, &mut suite, Recovery::Rollback(&ck), goal, 50);
        assert_eq!(out.verdict, RunVerdict::Satisfied);
        assert_eq!(out.worst, Some(Severity::Warning));
        assert_eq!(out.detect_round, Some(1));
        assert!(out.by_class[FaultClass::BeaconStaleness.index()] > 0);
        assert_eq!(out.first_critical, None);
        assert_eq!(out.rolled_back, 0, "warnings never trigger rollback");
    }

    #[test]
    fn lying_beacons_are_critical_and_rolled_back() {
        let mut rt = warmed_ring(8, Config::seeded(2));
        let members: Vec<NodeId> = rt.ids().to_vec();
        let ck = Checkpoint::capture(&rt);
        let sc = compile(&Adversary::LyingBeacons { victims: 2 }, &members, 2, 7);
        let mut suite = DetectorSuite::new();
        let goal = ran(&rt, 8);
        let out = run_gauntlet(&mut rt, &sc, &mut suite, Recovery::Rollback(&ck), goal, 50);
        assert_eq!(out.verdict, RunVerdict::Satisfied);
        assert_eq!(out.worst, Some(Severity::Critical));
        assert_eq!(out.first_critical, Some(2));
        assert_eq!(out.recovered_at, Some(2));
        assert!(out.rolled_back >= 2, "victims and divergence-holders");
        assert!(out.by_class[FaultClass::ViewDivergence.index()] > 0);
        // The rollback really cleared the lie: every node's recorded views
        // agree with advertised identities again.
        let round = rt.round();
        let mut post = DetectorSuite::new();
        post.scan(&rt);
        assert_eq!(post.total(), 0, "no divergence after rollback @{round}");
    }

    #[test]
    fn restabilize_arm_records_but_does_not_roll_back() {
        let mut rt = warmed_ring(8, Config::seeded(2));
        let members: Vec<NodeId> = rt.ids().to_vec();
        let sc = compile(&Adversary::LyingBeacons { victims: 2 }, &members, 2, 7);
        let mut suite = DetectorSuite::new();
        let goal = ran(&rt, 8);
        let out = run_gauntlet(&mut rt, &sc, &mut suite, Recovery::Restabilize, goal, 50);
        assert_eq!(out.rolled_back, 0);
        assert_eq!(out.recovered_at, None);
        assert_eq!(out.first_critical, Some(2));
        assert!(out.alerts > 0);
    }

    #[test]
    fn equivocation_implicates_both_ends() {
        let mut rt = warmed_ring(8, Config::seeded(3));
        let members: Vec<NodeId> = rt.ids().to_vec();
        let ck = Checkpoint::capture(&rt);
        let adv = Adversary::Equivocation {
            victims: 1,
            audiences: 3,
        };
        let sc = compile(&adv, &members, 1, 11);
        let mut suite = DetectorSuite::new();
        let goal = ran(&rt, 5);
        let out = run_gauntlet(&mut rt, &sc, &mut suite, Recovery::Rollback(&ck), goal, 50);
        assert_eq!(out.worst, Some(Severity::Critical));
        assert!(out.by_class[FaultClass::ViewDivergence.index()] > 0);
        assert!(
            out.rolled_back >= 2,
            "the equivocated-about node and at least one audience roll back"
        );
        let mut post = DetectorSuite::new();
        post.scan(&rt);
        assert_eq!(post.total(), 0);
    }

    #[test]
    fn rollback_skips_crashed_nodes() {
        let mut rt = warmed_ring(8, Config::seeded(4));
        let ck = Checkpoint::capture(&rt);
        rt.crash(3).unwrap();
        let n = ck.rollback(&mut rt, &[2, 3, 4]);
        assert_eq!(n, 2, "3 is dead and stays dead");
    }

    #[test]
    fn gauntlet_identical_across_thread_counts() {
        let fixture = |threads: usize| {
            let rt = warmed_ring(16, Config::seeded(5).threads(threads));
            let members: Vec<NodeId> = rt.ids().to_vec();
            let sc = Scenario::new("mixed").seeded(99);
            let sc = Adversary::LyingBeacons { victims: 2 }.schedule(sc, &members, 1, 99);
            let sc = Adversary::CrashWave {
                region: 3,
                waves: 1,
                spacing: 1,
            }
            .schedule(sc, &members, 4, 99);
            (rt, sc)
        };
        let run = |threads: usize| {
            let (mut rt, sc) = fixture(threads);
            let ck = Checkpoint::capture(&rt);
            let mut suite = DetectorSuite::new();
            let goal = ran(&rt, 10);
            let out = run_gauntlet(&mut rt, &sc, &mut suite, Recovery::Rollback(&ck), goal, 50);
            (serde_json::to_string(&out).unwrap(), rt.save_snapshot())
        };
        let base = run(1);
        for t in [2, 4, 8] {
            assert_eq!(run(t), base, "threads={t}");
        }

        // One driver: scans are read-only, so with nothing recovered the
        // gauntlet IS `Scenario::run` even while the full bank detects the
        // lies and crashes — same rounds, verdict and event records, same
        // runtime bytes afterwards.
        for t in [1, 4] {
            let (mut plain_rt, sc) = fixture(t);
            let goal = ran(&plain_rt, 10);
            let report = sc.run(&mut plain_rt, goal, 50);
            let (mut rt, sc) = fixture(t);
            let goal = ran(&rt, 10);
            let out = run_gauntlet(
                &mut rt,
                &sc,
                &mut DetectorSuite::new(),
                Recovery::Restabilize,
                goal,
                50,
            );
            assert!(out.first_critical.is_some(), "the bank saw the attack");
            assert_eq!((out.rounds, out.verdict), (report.rounds, report.verdict));
            assert_eq!(
                serde_json::to_string(&out.events).unwrap(),
                serde_json::to_string(&report.events).unwrap()
            );
            assert_eq!(rt.save_snapshot(), plain_rt.save_snapshot(), "threads={t}");
        }
    }

    #[test]
    fn partition_and_heal_cut_and_restore_messages() {
        let mut rt = warmed_ring(8, Config::seeded(6));
        assert_eq!(rt.partition([0, 1, 2, 99]), 3, "dead ids not counted");
        assert!(rt.partitioned());
        for _ in 0..3 {
            rt.step();
        }
        assert!(rt.heal());
        assert!(!rt.partitioned());
        assert!(!rt.heal(), "no active cut");
        assert_eq!(rt.partition([77]), 0, "empty live set is a no-op");
        assert!(!rt.partitioned());
    }
}
