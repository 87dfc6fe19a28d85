//! Negative controls for the equivalence harness (`tests/harness`): a
//! program that breaks the contract an axis checks must fail that axis,
//! or the byte-identity cases built on the harness prove nothing. And the
//! synchronous daemon's own selection path against the general one, and
//! activations answered by `Program::idle_at` against full steps.

mod harness;

use chord_scaffolding::chord::{ChordTarget, Phase, ScafMsg, ScaffoldProgram};
use harness::{Case, Daemon, ACTIVITY, EVERY_LIVE_SANITIZED, LEAVE, SYNC};
use rand::Rng;
use ssim::snapshot::{persist_struct, Reader, Writer};
use ssim::workload::{RouteStep, Router};
use ssim::WorkloadConfig;
use ssim::{Config, Ctx, NetModel, NodeId, OpenLoop, Persist, Program, Runtime, SnapshotError};

/// A host that beacons to its neighbors for its first `left` rounds. It
/// breaks two contracts, one per control: `is_quiescent` says yes while
/// beacons are left (a daemon that trusts it skips them), and `save`
/// drops `left` (a restored host has none).
#[derive(Clone)]
struct Drip {
    left: u64,
    sent: u64,
}

impl Program for Drip {
    type Msg = u8;
    fn step(&mut self, ctx: &mut Ctx<'_, u8>) {
        if self.left > 0 {
            self.left -= 1;
            for &v in ctx.neighbors() {
                ctx.send(v, 1);
                self.sent += 1;
            }
        }
    }
    fn is_quiescent(&self) -> bool {
        true
    }
}

impl Persist for Drip {
    fn save(&self, w: &mut Writer) {
        self.sent.save(w);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        let sent = u64::load(r)?;
        Ok(Self { left: 0, sent })
    }
}

/// Host 1 has eight beacons on a three-host line; the others stay quiet.
/// No shadow-step check is armed, so only the axis comparison can catch
/// the lie, in debug and release builds alike.
fn drip_case() -> Case<'static, Drip> {
    Case::new("drip", Config::seeded(1), |cfg| {
        let host = |id, left| (id, Drip { left, sent: 0 });
        Runtime::new(
            cfg,
            [host(1, 8), host(2, 0), host(3, 0)],
            vec![(1, 2), (2, 3)],
        )
    })
}

#[test]
#[should_panic(expected = "split axis (restores at [3]): metrics JSON differ")]
fn a_save_that_drops_a_field_fails_the_split_axis() {
    drip_case()
        .split(Runtime::restore_snapshot, &[3])
        .run(|arm| arm.run(12));
}

#[test]
#[should_panic(expected = "daemon axis (activity-driven): activity-blind metrics differ")]
fn a_quiescent_host_that_still_sends_fails_the_daemon_axis() {
    drip_case()
        .daemons(&[SYNC, ACTIVITY])
        .run(|arm| arm.run(12));
}

/// A host on a timer: it folds its inbox into `heard` every step, and
/// when its `wake_me_in` timer is due it gossips `heard` to a random
/// neighbor, sometimes introduces two neighbors or drops an edge, and
/// re-arms the timer. It reports itself busy on one `heard` value in four,
/// so the quiescence flags and the self-marks of the dirty set move too.
#[derive(Clone, Default)]
struct Ticker {
    heard: u64,
    due: u64,
}

persist_struct!(Ticker { heard, due });

impl Program for Ticker {
    type Msg = u64;
    fn step(&mut self, ctx: &mut Ctx<'_, u64>) {
        for &(from, m) in ctx.inbox() {
            self.heard = self.heard.rotate_left(5) ^ m ^ u64::from(from);
        }
        if ctx.round < self.due {
            return;
        }
        let nb = ctx.neighbors();
        let delay = ctx.rng().gen_range(3..12);
        self.due = ctx.round + delay;
        ctx.wake_me_in(delay);
        if !nb.is_empty() {
            let v = nb[ctx.rng().gen_range(0..nb.len())];
            ctx.send(v, self.heard);
        }
        match ctx.rng().gen_range(0..6) {
            0 if nb.len() >= 2 => ctx.link(nb[0], nb[nb.len() - 1]),
            1 if nb.len() >= 3 => ctx.unlink(nb[0]),
            _ => {}
        }
    }
    fn is_quiescent(&self) -> bool {
        self.heard & 3 != 0
    }
}

/// `Synchronous` fills its selection straight from the live slots and
/// skips the sanitizer; a daemon that selects the same slots through the
/// sanitizer must give the same run, round by round, to the byte: the
/// dirty list (saved raw), the timers, the quiescence count and the
/// metrics, across joins (one into a recycled slot), a leave, a crash and
/// a corruption.
#[test]
fn synchronous_matches_every_live_through_the_sanitizer() {
    let case = Case::new("every live", Config::seeded(0x5E1EC7), |cfg| {
        let ring = (0..10u32).map(|i| (i, (i + 1) % 10));
        let chords = [(0, 5), (2, 7), (3, 8)];
        Runtime::new(
            cfg,
            (0..10).map(|v| (v, Ticker::default())),
            ring.chain(chords),
        )
    })
    .daemons(&[SYNC, EVERY_LIVE_SANITIZED]);
    let run = case.run(|arm| {
        let mut rounds = Vec::new();
        for r in 0..48 {
            match r {
                6 => arm.rt().join(100, Ticker::default(), &[0, 4]),
                11 => assert_eq!(arm.fault(LEAVE), 1),
                16 => arm
                    .rt()
                    .corrupt_node(2, |p| *p = Ticker { heard: 8, due: 0 }),
                21 => assert!(arm.rt().crash(6).is_some()),
                26 => arm.rt().join(101, Ticker::default(), &[1, 9]),
                _ => {}
            }
            arm.run(1);
            let rt = arm.rt();
            let metrics = serde_json::to_string(rt.metrics()).expect("metrics serialize");
            rounds.push((rt.pending_activations(), metrics, rt.save_snapshot()));
        }
        // The case exercises what the two paths could disagree on.
        let m = arm.rt().metrics();
        let quiet = m.per_round.iter().filter(|row| row.messages == 0).count();
        assert!(
            quiet > 0 && quiet < m.per_round.len(),
            "{quiet} quiet rounds"
        );
        assert!(m.total_links_added > 0 && m.total_links_removed > 0);
        assert!(m.per_round.iter().any(|row| row.quiescent_nodes < 10));
        assert_eq!((m.joins, m.leaves, m.crashes), (2, 1, 1));
        rounds
    });
    assert_eq!(run.out.len(), 48);
}

/// `ScaffoldProgram` with every hook forwarded but `idle_at`, which keeps
/// the default `false`: the engine steps it in full at every activation.
#[derive(Clone)]
struct FullStep(ScaffoldProgram);

impl Program for FullStep {
    type Msg = ScafMsg;
    fn step(&mut self, ctx: &mut Ctx<'_, ScafMsg>) {
        self.0.step(ctx);
    }
    fn is_quiescent(&self) -> bool {
        self.0.is_quiescent()
    }
    const RECORD_BYTES: usize = ScaffoldProgram::<ChordTarget>::RECORD_BYTES;
}

impl Persist for FullStep {
    fn save(&self, w: &mut Writer) {
        self.0.save(w);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        ScaffoldProgram::load(r).map(Self)
    }
}

impl Router for FullStep {
    fn route(&self, key: u32, neighbors: &[NodeId]) -> RouteStep {
        self.0.route(key, neighbors)
    }
}

/// One scripted run over a 256-host legal Avatar(Chord) with lookups. In
/// its first rounds, while most hosts are still settled, an edge is
/// removed and re-added (equal lists under new stamps), a settled host is
/// edited through `p.core`, and a host leaves, one joins and one crashes;
/// the revert wave this starts runs to the end. Returns the snapshot bytes
/// and metrics JSON after every round. `host` reaches the protocol program
/// inside `P`.
fn scripted<P: Program<Msg = ScafMsg> + Persist + Router + Clone>(
    daemon: Daemon,
    wrap: fn(ScaffoldProgram) -> P,
    host: fn(&mut P) -> &mut ScaffoldProgram,
) -> Vec<(Vec<u8>, String)> {
    let (n, cfg) = (1024, Config::seeded(0x1D1E));
    let legal = scaffold_bench::legal_chord_runtime(n, 256, cfg, NetModel::ideal());
    let mut rt = Runtime::<P>::restore_snapshot(&legal.save_snapshot(), cfg).expect("restores");
    rt.set_scheduler(daemon());
    rt.attach_workload(OpenLoop::new(4.0, n), WorkloadConfig::default());
    if cfg!(debug_assertions) {
        rt.enable_shadow_check();
    }
    let ids = rt.ids().to_vec();
    let (a, b) = (ids[0], rt.topology().neighbors(ids[0])[0]);
    let fresh = (0..n).find(|v| !ids.contains(v)).expect("a free id");
    let mut rounds = Vec::new();
    for r in 0..40 {
        match r {
            2 => assert!(rt.adversarial_remove_edge(a, b) && rt.adversarial_add_edge(a, b)),
            3 => {
                let far = |v: &NodeId| ![a, b].contains(v);
                let quiet = |v: &&NodeId| far(v) && rt.topology().neighbors(**v).iter().all(far);
                let id = *ids.iter().rev().find(quiet).expect("a quiet host");
                rt.corrupt_node(id, |p| host(p).core.phase = Phase::Chord);
            }
            4 => assert!(rt.leave(ids[3]).is_some()),
            5 => {
                let joiner = ScaffoldProgram::new(fresh, ChordTarget::classic(n), 0x5EED);
                rt.join(fresh, wrap(joiner), &[ids[1], ids[2]]);
            }
            6 => assert!(rt.crash(ids[4]).is_some()),
            _ => {}
        }
        rt.step();
        let metrics = serde_json::to_string(rt.metrics()).expect("metrics serialize");
        rounds.push((rt.save_snapshot(), metrics));
    }
    let m = rt.metrics();
    assert_eq!((m.joins, m.leaves, m.crashes), (1, 1, 1));
    assert!(m.requests.completed > 0, "lookups ran");
    rounds
}

/// A host that answers its activation from `idle_at` must leave the run
/// exactly as a full step would: the same snapshot bytes (activation
/// counts included, so nothing was skipped) and the same metrics after
/// every round, under both daemons.
#[test]
fn idle_at_never_changes_a_run() {
    for daemon in [SYNC, ACTIVITY] {
        let answered = scripted(daemon, |p| p, |p| p);
        let stepped = scripted(daemon, FullStep, |p| &mut p.0);
        let name = daemon().name().to_string();
        for (r, (x, y)) in answered.iter().zip(&stepped).enumerate() {
            assert!(x.1 == y.1, "{name}, round {r}: metrics JSON differ");
            assert!(x.0 == y.0, "{name}, round {r}: snapshot bytes differ");
        }
    }
}
