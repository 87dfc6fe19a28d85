//! The combined self-stabilizing protocol: Avatar(CBT) scaffold construction
//! plus Algorithm 1's PIF finger waves, glued by the phase machinery of
//! Section 4.4.
//!
//! Each host runs exactly one of three modes per round:
//! * `phase = CBT` — the embedded [`avatar_cbt::CbtCore`] executes. When a
//!   cluster root's feedback wave reports the whole network clean, it
//!   initiates the CBT→CHORD switch wave.
//! * `phase = CHORD` — Algorithm 1 executes: `PIF(MakeFinger(k))` waves add
//!   finger `k` for every guest; the `scaffolded` predicate (Definition 3)
//!   is evaluated every round and any violation reverts the host to CBT.
//! * `phase = DONE` — the host is silent. It only watches its neighbor list;
//!   any change (or any incoming message) drops it back to CBT.

use crate::msg::{Phase, PhaseInfo, ScafMsg};
use crate::target::InductiveTarget;
use avatar_cbt::state::ring_dist;
use avatar_cbt::{CbtCore, CbtMsg};
use ssim::snapshot::{persist_struct, Persist};
use ssim::{CompactMap, CompactSet, Ctx, NeighborBaseline, NodeId};

/// An in-flight PIF wave on this host.
#[derive(Debug, Clone)]
struct ActiveWave {
    k: u32,
    pending: Vec<NodeId>,
    ring0: Option<NodeId>,
    ring_n: Option<NodeId>,
}

/// The host state of the combined protocol.
#[derive(Debug, Clone)]
pub struct ScaffoldCore<T: InductiveTarget> {
    /// The target topology being built.
    pub target: T,
    /// The embedded scaffold protocol (cluster state, view, schedule).
    pub cbt: CbtCore,
    /// Current phase.
    pub phase: Phase,
    /// Highest wave whose feedback completed here (−1 = none).
    pub last_wave: i64,
    active: Option<ActiveWave>,
    /// Phase info last heard from each neighbor: `(round, info)`.
    pview: CompactMap<NodeId, (u64, PhaseInfo)>,
    /// First round each current neighbor was observed adjacent (edges
    /// created mid-wave get a grace period before phase info is expected).
    seen_since: CompactMap<NodeId, u64>,
    /// Round the host entered the CHORD phase.
    switch_round: u64,
    /// Root only: round at which to launch wave 0.
    wave0_at: Option<u64>,
    /// Round of the last wave progress (timeout tracking).
    last_progress: u64,
    /// DONE-wave machinery: children acks pending, armed flag, and the
    /// parent snapshotted at arming time (views go stale once beacons
    /// quiesce).
    done_pending: Option<Vec<NodeId>>,
    done_parent: Option<NodeId>,
    armed: bool,
    /// Neighbor list cached on entering DONE.
    done_neighbors: NeighborBaseline,
    done_grace: u8,
    /// Statistics: CHORD→CBT reversions and DONE completions.
    pub reverts: u64,
    /// Number of times this host reached DONE.
    pub completions: u64,
}

/// Tolerance window for phase disagreement while a switch wave propagates,
/// and the per-wave progress timeout, both `Θ(log N)` — budgeted in
/// message hops and scaled by the per-hop delivery bound `Δ`
/// (see [`avatar_cbt::Schedule::with_delta`]; `Δ = 1` is the classic
/// channel).
fn switch_window(h: u64, delta: u64) -> u64 {
    delta * (2 * h + 8)
}
fn wave_timeout(h: u64, delta: u64) -> u64 {
    delta * (6 * h + 24)
}

impl<T: InductiveTarget> ScaffoldCore<T> {
    /// A host starting in the CBT phase as a singleton cluster.
    pub fn new(id: NodeId, target: T, nonce: u64) -> Self {
        let n = target.n();
        Self {
            target,
            cbt: CbtCore::new(id, n, nonce),
            phase: Phase::Cbt,
            last_wave: -1,
            active: None,
            pview: CompactMap::new(),
            switch_round: 0,
            seen_since: CompactMap::new(),
            wave0_at: None,
            last_progress: 0,
            done_pending: None,
            done_parent: None,
            armed: false,
            done_neighbors: NeighborBaseline::default(),
            done_grace: 0,
            reverts: 0,
            completions: 0,
        }
    }

    /// Re-budget this host for a network-conditions model: the embedded
    /// CBT core re-derives its schedule, grace windows, detector patience
    /// and merge-message redundancy ([`CbtCore::with_net`]), and the
    /// CHORD-phase windows (`switch_window`, `wave_timeout`, beacon-age
    /// tolerance, DONE grace) scale with its delivery bound `Δ` too. The
    /// identity on the ideal network.
    #[must_use]
    pub fn with_net(mut self, model: ssim::NetModel) -> Self {
        self.cbt = self.cbt.with_net(model);
        self
    }

    /// Send a wave-critical message `zip_redundancy` times: the switch /
    /// target / DONE waves are single-shot tree descents and ascents, so
    /// one lost message stalls the wave until the timeout reverts the
    /// whole phase. The handlers are duplicate-tolerant. One copy (the
    /// default, and the ideal-channel setting) is the classic protocol.
    fn send_critical(&self, io: &mut Ctx<'_, ScafMsg>, to: NodeId, msg: ScafMsg) {
        for _ in 1..self.cbt.zip_redundancy {
            io.send(to, msg.clone());
        }
        io.send(to, msg);
    }

    /// Host identifier.
    pub fn id(&self) -> NodeId {
        self.cbt.id
    }

    /// True iff the host is *settled* in the DONE phase: the post-wave
    /// grace window has drained and the neighbor baseline is cached, so —
    /// absent messages or topology changes — its next `step` is a strict
    /// no-op. This is the engine's quiescence contract
    /// ([`ssim::Program::is_quiescent`]): a freshly-DONE host still counts
    /// down its grace window and must keep being scheduled.
    pub fn is_settled(&self) -> bool {
        self.phase == Phase::Done && self.done_grace == 0 && self.done_neighbors.is_set()
    }

    /// True iff the host is settled with `neighbors` as its DONE baseline:
    /// a step with an empty inbox over that neighbor list is a no-op.
    pub(crate) fn settled_on(&self, neighbors: &[NodeId]) -> bool {
        self.is_settled() && self.done_neighbors.list() == Some(neighbors)
    }

    /// Install the **settled DONE** state directly: phase DONE with the
    /// final wave completed, grace drained, and the given neighbor list
    /// cached as the baseline. Test/bench fixture machinery — together
    /// with installed cluster state and warmed beacon views this puts a
    /// runtime into the legal, silent Avatar(target) configuration without
    /// running the (hours-long at large sizes) from-scratch stabilization;
    /// see `scaffold_bench::legal_chord_runtime`. Not a protocol action.
    pub fn install_done(&mut self, neighbors: &[NodeId]) {
        self.phase = Phase::Done;
        self.last_wave = self.target.waves() as i64 - 1;
        self.active = None;
        self.armed = false;
        self.done_pending = None;
        self.done_parent = None;
        self.wave0_at = None;
        self.done_grace = 0;
        self.done_neighbors.set(neighbors);
    }

    /// Greedy guest-space routing of an application request (the
    /// [`ssim::workload::Router`] decision): deliver when this host's
    /// responsible range covers the key, otherwise forward to the current
    /// neighbor whose (beaconed) range is nearest the key by the *two-way*
    /// ring distance ([`avatar_cbt::state::ring_dist`]): the shorter of the
    /// clockwise distance from the range's last guest and the
    /// counter-clockwise distance from its first. The paper's overlay is
    /// undirected, so a lookup crosses every finger link in either
    /// direction (Ganesan & Manku, "Optimal Routing in Chord", SODA 2004);
    /// the classic clockwise-only rule uses each link one way. On the
    /// legal Avatar(Chord) of 32,768 hosts over `N = 65,536` guests (the
    /// benchmark's `serve-lookups` overlay), greedy routing over the exact
    /// geometry, 200k lookups a seed at seeds 1, 2, 3 and 7:
    ///
    /// | rule | mean hops | p50 | p99 | max | mean at 65,536 hosts, `N = 131,072` |
    /// |---|---|---|---|---|---|
    /// | clockwise | 6.32 | 6 | 10 | 13 | 6.82 |
    /// | two-way | 4.74 | 5 | 7 | 8 | 5.07 |
    ///
    /// Strict improvement is required, so a request never cycles, and
    /// equal distances go to the first neighbor in id order. On a legal
    /// overlay every host that does not cover the key has its ring
    /// predecessor and successor as neighbors, one of which is strictly
    /// nearer, so every lookup reaches its owner. A range no legal host
    /// holds (empty, inverted, or ending past `N`) is never a next hop,
    /// and as the own range it reads as infinitely far, so corruption
    /// cannot underflow the distance.
    ///
    /// Neighbor positions come from the beacon view, stale beacons included
    /// (cluster state is frozen through the CHORD and DONE phases; during
    /// CBT stabilization the views may be wrong, in which case the request
    /// bounces and retries — that race is exactly what the live-traffic
    /// experiments measure). When the view certifies its ring order the
    /// nearest neighbor is found by search, reading about three entries on
    /// a legal overlay ([`avatar_cbt::state::NeighborView::nearest`]);
    /// otherwise by one stale-tolerant pass over the view
    /// (`NeighborView::latest_along`), and debug builds assert that the
    /// two agree.
    pub fn route_request(&self, key: u32, neighbors: &[NodeId]) -> ssim::workload::RouteStep {
        use ssim::workload::RouteStep;
        let n = self.target.n();
        let key = key % n;
        if self.cbt.core.covers(key) {
            return RouteStep::Deliver;
        }
        let mine = ring_dist(self.cbt.core.range, key, n).unwrap_or(u32::MAX);
        let Some(nearest) = self.cbt.view.nearest(key, n, neighbors) else {
            return self.route_scan(key, neighbors, mine);
        };
        let step = match nearest {
            Some((v, d)) if d < mine => RouteStep::Forward(v),
            _ => RouteStep::Unroutable,
        };
        debug_assert_eq!(
            step,
            self.route_scan(key, neighbors, mine),
            "certified route of key {key} diverged from the scan: view {:?} neighbors {neighbors:?}",
            self.cbt.view
        );
        step
    }

    /// The route decision by one pass over the view: the first strict
    /// minimum of the two-way distance, among the neighbors with a range a
    /// legal host could hold, if it improves on `mine`.
    fn route_scan(&self, key: u32, neighbors: &[NodeId], mine: u32) -> ssim::workload::RouteStep {
        use ssim::workload::RouteStep;
        let n = self.target.n();
        let mut best: Option<(u32, NodeId)> = None;
        // Neighbors with no beacon ever heard (position unknown) are not
        // visited at all.
        for (v, b) in self.cbt.view.latest_along(neighbors) {
            let Some(d) = ring_dist(b.range, key, n) else {
                continue;
            };
            // First strict minimum wins (neighbors are sorted): fully
            // deterministic tie-breaking.
            if d < mine && best.is_none_or(|(bd, _)| d < bd) {
                best = Some((d, v));
            }
        }
        match best {
            Some((_, v)) => RouteStep::Forward(v),
            None => RouteStep::Unroutable,
        }
    }

    /// Execute one synchronous round.
    pub fn step(&mut self, io: &mut Ctx<'_, ScafMsg>) {
        let round = io.round;
        // Phase info and CBT beacons are ingested in every phase so views
        // stay fresh regardless of which algorithm is executing.
        for (from, m) in io.inbox() {
            match m {
                ScafMsg::Phase(pi) => {
                    self.pview.insert(*from, (round, *pi));
                }
                ScafMsg::Cbt(CbtMsg::Beacon(b)) if self.phase != Phase::Cbt => {
                    self.cbt.view.record(*from, round, *b);
                }
                _ => {}
            }
        }

        match self.phase {
            Phase::Cbt => self.step_cbt(io),
            Phase::Chord => self.step_chord(io),
            Phase::Done => self.step_done(io),
        }
    }

    // ------------------------------------------------------------------
    // CBT phase
    // ------------------------------------------------------------------

    fn step_cbt(&mut self, io: &mut Ctx<'_, ScafMsg>) {
        let events = self.cbt.step(io);

        // A switch wave reaching us from our (already switched) parent.
        let start = io
            .inbox()
            .iter()
            .any(|(_, m)| matches!(m, ScafMsg::StartChord));
        if start && !events.reset {
            self.enter_chord(io, false);
            return;
        }

        // The root saw a fully clean feedback wave: the scaffold is built.
        if events.cluster_clean && self.cbt.is_root() {
            self.enter_chord(io, true);
        }
    }

    fn enter_chord(&mut self, io: &mut Ctx<'_, ScafMsg>, as_root: bool) {
        let round = io.round;
        self.phase = Phase::Chord;
        self.last_wave = -1;
        self.active = None;
        self.switch_round = round;
        self.last_progress = round;
        self.done_pending = None;
        self.armed = false;
        self.done_neighbors.clear();
        let h = self.cbt.sched.height();
        self.wave0_at = as_root.then_some(round + switch_window(h, self.cbt.sched.delta()));
        for c in self.cbt.children(round, io.neighbors()) {
            self.send_critical(io, c, ScafMsg::StartChord);
        }
        self.emit_chord_beacons(io);
    }

    // ------------------------------------------------------------------
    // CHORD phase (Algorithm 1)
    // ------------------------------------------------------------------

    fn emit_chord_beacons(&self, io: &mut Ctx<'_, ScafMsg>) {
        if self.armed {
            return; // quiescing before DONE
        }
        let b = self.cbt.beacon();
        let pi = PhaseInfo {
            phase: self.phase,
            last_wave: self.last_wave,
        };
        io.broadcast(|| [ScafMsg::Cbt(CbtMsg::Beacon(b)), ScafMsg::Phase(pi)]);
    }

    fn revert_to_cbt(&mut self) {
        self.phase = Phase::Cbt;
        self.active = None;
        self.done_pending = None;
        self.armed = false;
        self.wave0_at = None;
        self.reverts += 1;
    }

    /// Force an immediate reversion to the CBT phase, as if Definition 3 had
    /// tripped locally. Used by the adversary layer: a host whose cluster
    /// identity has been skewed must *act* on the lie (beacon it to its
    /// neighbors every round) rather than sit silent in DONE.
    pub fn force_revert(&mut self) {
        self.revert_to_cbt();
    }

    /// Definition 3's `scaffolded` predicate, evaluated at host granularity:
    /// intact scaffold structure, and wave states of neighbors within one
    /// step of ours.
    fn scaffolded_ok(&self, round: u64, neighbors: &[NodeId]) -> bool {
        let h = self.cbt.sched.height();
        // Condition 1: scaffold structure (ranges, covers, successor line)
        // intact. Finger edges are the tolerated extras.
        if self.cbt.fault(round, neighbors, true, true).is_some() {
            return false;
        }
        // Conditions 2–4: neighbors' waves within one step of ours, and
        // every neighbor participating in the CHORD phase (after the switch
        // wave has had time to reach everyone).
        let delta = self.cbt.sched.delta();
        for &v in neighbors {
            match self.pview.get(&v) {
                // Freshness is budgeted in delivery bounds: phase infos
                // flow every round, but under WAN conditions consecutive
                // arrivals legitimately gap by jitter and the odd loss —
                // only `3Δ` rounds of silence make an entry stale (with
                // `Δ = 1` this is the classic 3-round window).
                Some((r, pi)) if round.saturating_sub(*r) < 3 * delta => {
                    if pi.phase == Phase::Chord && pi.last_wave.abs_diff(self.last_wave) > 1 {
                        return false;
                    }
                }
                _ => {
                    // A neighbor whose last word was "final wave complete"
                    // has legitimately armed for DONE and gone quiet.
                    if self.pview.get(&v).is_some_and(|(_, pi)| {
                        pi.phase == Phase::Chord && pi.last_wave == self.target.waves() as i64 - 1
                    }) {
                        continue;
                    }
                    // Otherwise a silent neighbor is only suspicious once
                    // both the switch wave has settled and the edge has
                    // existed long enough for beacons to flow (waves
                    // legitimately create new edges mid-phase).
                    let age =
                        round.saturating_sub(self.seen_since.get(&v).copied().unwrap_or(round));
                    if round > self.switch_round + switch_window(h, delta) && age > 3 * delta {
                        return false;
                    }
                }
            }
        }
        true
    }

    fn step_chord(&mut self, io: &mut Ctx<'_, ScafMsg>) {
        let (round, neighbors) = (io.round, io.neighbors());
        let h = self.cbt.sched.height();

        // Track adjacency age for the phase-info expectations.
        self.seen_since
            .retain(|v, _| neighbors.binary_search(v).is_ok());
        for &v in neighbors {
            if !self.seen_since.contains_key(&v) {
                self.seen_since.insert(v, round);
            }
        }

        if !self.armed && !self.scaffolded_ok(round, neighbors) {
            self.revert_to_cbt();
            return;
        }
        if round.saturating_sub(self.last_progress) > wave_timeout(h, self.cbt.sched.delta()) {
            self.revert_to_cbt();
            return;
        }

        for (from, m) in io.inbox() {
            match m {
                ScafMsg::Prop { k } => self.on_prop(io, *k),
                ScafMsg::Fb { k, ring0, ring_n } => self.on_fb(io, *from, *k, *ring0, *ring_n),
                ScafMsg::StartDone => self.on_start_done(io),
                ScafMsg::FbDone => self.on_fb_done(io, *from),
                _ => {}
            }
            if self.phase != Phase::Chord {
                return; // a handler reverted or completed
            }
        }

        // Retry a deferred wave completion (its feedback arrived before the
        // view caught up with freshly created edges).
        if let Some(w) = self.active.as_ref() {
            if w.pending.is_empty() {
                let k = w.k;
                self.try_complete_wave(io, k);
                if self.phase != Phase::Chord {
                    return;
                }
            }
        }

        // Root: launch wave 0 once the switch wave has propagated.
        if let Some(at) = self.wave0_at {
            if round >= at && self.cbt.is_root() && self.last_wave == -1 && self.active.is_none() {
                self.wave0_at = None;
                self.start_wave(io, 0);
            }
        }

        self.emit_chord_beacons(io);
    }

    fn start_wave(&mut self, io: &mut Ctx<'_, ScafMsg>, k: u32) {
        let round = io.round;
        let children: Vec<NodeId> = self.cbt.children(round, io.neighbors()).collect();
        for &c in &children {
            self.send_critical(io, c, ScafMsg::Prop { k });
        }
        self.active = Some(ActiveWave {
            k,
            pending: children,
            ring0: None,
            ring_n: None,
        });
        self.last_progress = round;
        if self.active.as_ref().is_some_and(|w| w.pending.is_empty()) {
            self.try_complete_wave(io, k);
        }
    }

    fn on_prop(&mut self, io: &mut Ctx<'_, ScafMsg>, k: u32) {
        if self.active.as_ref().is_some_and(|w| w.k == k) {
            return; // duplicate
        }
        if k as i64 <= self.last_wave {
            // Stale duplicate of a wave we already completed (a lossy
            // channel retransmits wave messages, and a duplicated copy can
            // outlive the wave on a leaf, which completes instantly) — not
            // an inconsistency.
            return;
        }
        if self.last_wave != k as i64 - 1 || self.active.is_some() {
            // Algorithm 1 line 7 / 14: inconsistent wave ⇒ phase := CBT.
            self.revert_to_cbt();
            return;
        }
        self.start_wave(io, k);
    }

    fn on_fb(
        &mut self,
        io: &mut Ctx<'_, ScafMsg>,
        from: NodeId,
        k: u32,
        ring0: Option<NodeId>,
        ring_n: Option<NodeId>,
    ) {
        let Some(w) = self.active.as_mut() else {
            return;
        };
        if w.k != k {
            return;
        }
        w.pending.retain(|&c| c != from);
        if ring0.is_some() {
            w.ring0 = ring0;
        }
        if ring_n.is_some() {
            w.ring_n = ring_n;
        }
        if w.pending.is_empty() {
            self.try_complete_wave(io, k);
        }
    }

    /// The feedback action of Algorithm 1 for all guests of this host, then
    /// either ascend (member) or advance to the next wave (root). Returns
    /// false (and changes nothing) when a just-created neighbor's beacon has
    /// not arrived yet — the completion is retried next round, bounded by
    /// the wave timeout.
    fn try_complete_wave(&mut self, io: &mut Ctx<'_, ScafMsg>, k: u32) -> bool {
        let (round, neighbors) = (io.round, io.neighbors());
        let me = self.id();
        let (lo, hi) = self.cbt.core.range;

        // Feedback action: create this wave's finger edges, projected onto
        // the host network, one introduction per distinct host pair. All
        // lookups must resolve before anything is committed.
        let mut links: Vec<(NodeId, NodeId)> = Vec::new();
        for a in lo..hi {
            let Some((x, y)) = self.target.feedback_edge(a, k) else {
                continue;
            };
            let (Some(hx), Some(hy)) = (
                self.cbt.host_for(round, neighbors, x),
                self.cbt.host_for(round, neighbors, y),
            ) else {
                return false; // view not caught up: retry next round
            };
            if hx != hy {
                links.push((hx.min(hy), hx.max(hy)));
            }
        }
        links.sort_unstable();
        links.dedup();
        // Every introduction endpoint must already be adjacent (the wave
        // induction invariant); a fresh edge whose beacon arrived implies
        // the edge still exists, so a miss here means the induction has not
        // caught up yet either — retry, bounded by the wave timeout.
        let adjacent = |v: NodeId| v == me || neighbors.binary_search(&v).is_ok();
        if links.iter().any(|&(x, y)| !(adjacent(x) && adjacent(y))) {
            return false;
        }
        for (x, y) in links {
            io.link(x, y);
        }

        // Wave 0: contribute/forward the walked edges to guests 0 and N−1.
        let (mut ring0, mut ring_n) = self
            .active
            .as_ref()
            .map(|w| (w.ring0, w.ring_n))
            .unwrap_or((None, None));
        if k == 0 && self.target.closes_ring() {
            if self.cbt.core.covers(0) {
                ring0 = Some(me);
            }
            if self.cbt.core.covers(self.target.n() - 1) {
                ring_n = Some(me);
            }
        }

        self.active = None;
        self.last_wave = k as i64;
        self.last_progress = round;

        if self.cbt.is_root() {
            if k == 0 && self.target.closes_ring() {
                // Close the guest ring (Algorithm 1 lines 6–7).
                if let (Some(a), Some(b)) = (ring0, ring_n) {
                    if a != b {
                        let ok = |v: NodeId| v == me || neighbors.binary_search(&v).is_ok();
                        if !(ok(a) && ok(b)) {
                            self.revert_to_cbt();
                            return true;
                        }
                        io.link(a, b);
                    }
                } else {
                    self.revert_to_cbt();
                    return true;
                }
            }
            if k + 1 < self.target.waves() {
                self.start_wave(io, k + 1);
            } else {
                // All fingers built: run the DONE handshake.
                self.begin_done_wave(io);
            }
        } else {
            let Some(p) = self.cbt.parent(round, neighbors) else {
                self.revert_to_cbt();
                return true;
            };
            // Walk the ring endpoints one level up before the feedback.
            for ep in [ring0, ring_n].into_iter().flatten() {
                if ep != me && ep != p {
                    if !io.is_neighbor(ep) {
                        self.revert_to_cbt();
                        return true;
                    }
                    io.link(ep, p);
                }
            }
            self.send_critical(io, p, ScafMsg::Fb { k, ring0, ring_n });
        }
        true
    }

    // ------------------------------------------------------------------
    // DONE handshake: StartDone↓ (arm + prune), FbDone↑, then silence.
    // ------------------------------------------------------------------

    fn begin_done_wave(&mut self, io: &mut Ctx<'_, ScafMsg>) {
        let (round, neighbors) = (io.round, io.neighbors());
        // Final transmission before quiescing: let neighbors see the
        // completed last wave so their `scaffolded` checks tolerate our
        // silence while the DONE wave descends.
        self.emit_chord_beacons(io);
        self.armed = true;
        self.last_progress = round;
        // Snapshot the tree relations while beacons are still fresh.
        self.done_parent = self.cbt.parent(round, neighbors);
        let children: Vec<NodeId> = self.cbt.children(round, neighbors).collect();
        self.prune_for_target(io);
        for &c in &children {
            self.send_critical(io, c, ScafMsg::StartDone);
        }
        if children.is_empty() {
            // Leaf: ack immediately and fall silent.
            if !self.cbt.is_root() {
                if let Some(p) = self.done_parent {
                    self.send_critical(io, p, ScafMsg::FbDone);
                }
            }
            self.enter_done();
        } else {
            self.done_pending = Some(children);
        }
    }

    fn on_start_done(&mut self, io: &mut Ctx<'_, ScafMsg>) {
        if self.armed {
            return; // duplicate: the DONE descent is already running here
        }
        if self.last_wave != self.target.waves() as i64 - 1 || self.active.is_some() {
            self.revert_to_cbt();
            return;
        }
        self.begin_done_wave(io);
    }

    fn on_fb_done(&mut self, io: &mut Ctx<'_, ScafMsg>, from: NodeId) {
        let Some(pending) = self.done_pending.as_mut() else {
            return;
        };
        pending.retain(|&c| c != from);
        if pending.is_empty() {
            self.done_pending = None;
            if self.cbt.is_root() {
                self.enter_done();
            } else if let Some(p) = self.done_parent {
                self.send_critical(io, p, ScafMsg::FbDone);
                self.enter_done();
            } else {
                self.revert_to_cbt();
            }
        }
    }

    fn enter_done(&mut self) {
        self.phase = Phase::Done;
        self.armed = false;
        // Hosts in sibling subtrees keep beaconing until the DONE wave
        // reaches them: tolerate traffic for a full descent-plus-ascent of
        // the host tree before treating messages as a wake-up signal.
        self.done_grace = ((2 * (self.cbt.sched.height() + 1) + 8) * self.cbt.sched.delta())
            .min(u8::MAX as u64) as u8;
        self.done_neighbors.clear();
        self.completions += 1;
    }

    /// Remove host edges the final Avatar(target) does not require: kept are
    /// scaffold-required edges (tree projection + successor line) and edges
    /// realizing a target guest edge. Uses stale-tolerant beacon lookups:
    /// neighbors that armed before us stopped beaconing, but their cluster
    /// state is frozen for the whole CHORD phase.
    fn prune_for_target(&mut self, io: &mut Ctx<'_, ScafMsg>) {
        let (me, neighbors) = (self.id(), io.neighbors());
        let (lo, hi) = self.cbt.core.range;
        let covering = |g: u32| -> Option<NodeId> {
            if self.cbt.core.covers(g) {
                return Some(me);
            }
            self.cbt
                .view
                .latest_along(neighbors)
                .find(|(_, b)| b.cid == self.cbt.core.cid && b.range.0 <= g && g < b.range.1)
                .map(|(v, _)| v)
        };
        // Scaffold-required neighbors, plus those never heard from (truly
        // unknown: kept conservatively).
        let mut keep: CompactSet<NodeId> = neighbors.iter().copied().collect();
        for (v, b) in self.cbt.view.latest_along(neighbors) {
            if b.cid != self.cbt.core.cid || !self.cbt.requires_edge_to(b.range) {
                keep.remove(&v);
            }
        }
        // Target-required neighbors: hosts of the target neighborhoods of my
        // guests (both edge directions of every offset, ring included).
        let (n, offsets) = (self.target.n(), self.target.offsets());
        for a in lo..hi {
            for &d in &offsets {
                for g in [(a + d) % n, (a + n - d) % n] {
                    if let Some(hg) = covering(g) {
                        if hg != me {
                            keep.insert(hg);
                        }
                    }
                }
            }
        }
        for &v in neighbors {
            if !keep.contains(&v) {
                io.unlink(v);
            }
        }
    }

    // ------------------------------------------------------------------
    // DONE phase: silence.
    // ------------------------------------------------------------------

    fn step_done(&mut self, io: &mut Ctx<'_, ScafMsg>) {
        // The topology incident to this host is final at Done entry (it
        // pruned its own non-required edges at arming), so the baseline is
        // cached on the first DONE step.
        if !self.done_neighbors.watch(io) {
            // Topology perturbed: wake up and rebuild.
            self.revert_to_cbt();
            return;
        }
        // The grace window only tolerates residual *traffic* from sibling
        // subtrees the DONE wave has not reached yet.
        if self.done_grace > 0 {
            self.done_grace -= 1;
            return;
        }
        if !io.inbox().is_empty() {
            // Someone is talking: a neighbor detected a fault. Join in.
            self.revert_to_cbt();
        }
    }
}

persist_struct!(ActiveWave {
    k,
    pending,
    ring0,
    ring_n,
});
// The compact maps iterate sorted by neighbor id, so equal states encode to
// equal bytes; their loads reject out-of-order or duplicate ids.
persist_struct!(ScaffoldCore<T: InductiveTarget + Persist> {
    target,
    cbt,
    phase,
    last_wave,
    active,
    pview,
    seen_since,
    switch_round,
    wave0_at,
    last_progress,
    done_pending,
    done_parent,
    armed,
    done_neighbors,
    done_grace,
    reverts,
    completions,
});

#[cfg(test)]
mod tests {
    use super::*;
    use crate::target::ChordTarget;
    use ssim::snapshot::{Reader, SnapshotError, Writer};
    use ssim::workload::RouteStep;
    use std::collections::BTreeMap;

    /// Corruption can leave the own responsible range empty; routing must
    /// degrade to Unroutable (retry/TTL), never underflow or panic.
    #[test]
    fn routing_with_corrupted_empty_own_range_is_safe() {
        let mut c = ScaffoldCore::new(5, ChordTarget::classic(64), 9);
        c.cbt.core.range = (7, 7);
        assert_eq!(
            c.route_request(3, &[]),
            ssim::workload::RouteStep::Unroutable
        );
        c.cbt.core.range = (3, 0);
        assert_eq!(
            c.route_request(9, &[]),
            ssim::workload::RouteStep::Unroutable
        );
    }

    /// The two-way distance as defined, in signed arithmetic: `None` for a
    /// range no legal host holds, else the distance and whether the
    /// shorter way round crosses 0/`N` (clockwise on a tie).
    fn two_way(range: (u32, u32), key: u32, n: u32) -> Option<(u32, bool)> {
        let (lo, hi) = range;
        if lo >= hi || hi > n {
            return None;
        }
        if lo <= key && key < hi {
            return Some((0, false));
        }
        let (n, key, last) = (i64::from(n), i64::from(key), i64::from(hi - 1));
        let cw = (key - last).rem_euclid(n);
        let ccw = (i64::from(lo) - key).rem_euclid(n);
        Some(if cw <= ccw {
            (cw as u32, last > key)
        } else {
            (ccw as u32, i64::from(lo) < key)
        })
    }

    /// The routing rule as defined — a beacon lookup per neighbor, the
    /// first strict minimum of [`two_way`] — kept as the oracle both router
    /// paths (search and scan) are tested against. Also returns whether
    /// the minimum is tied and whether the winner's way round wraps.
    impl<T: InductiveTarget> ScaffoldCore<T> {
        fn route_request_reference(
            &self,
            key: u32,
            neighbors: &[NodeId],
        ) -> (RouteStep, bool, bool) {
            let n = self.target.n();
            let key = key % n;
            if self.cbt.core.covers(key) {
                return (RouteStep::Deliver, false, false);
            }
            let mine = two_way(self.cbt.core.range, key, n).map_or(u32::MAX, |(d, _)| d);
            let mut best: Option<(u32, NodeId, bool)> = None;
            let mut tied = false;
            for &v in neighbors {
                let Some(b) = self.cbt.view.latest(v) else {
                    continue;
                };
                let Some((d, wraps)) = two_way(b.range, key, n) else {
                    continue;
                };
                if d < mine && best.is_none_or(|(bd, ..)| d < bd) {
                    best = Some((d, v, wraps));
                    tied = false;
                } else if best.is_some_and(|(bd, ..)| d == bd) {
                    tied = true;
                }
            }
            match best {
                Some((_, v, wraps)) => (RouteStep::Forward(v), tied, wraps),
                None => (RouteStep::Unroutable, false, false),
            }
        }
    }

    /// The router takes the oracle's decision — including the tie-break
    /// between equally near neighbors and the way round 0/`N` — on random
    /// hosts of `Chord(N)`: legal ranges and noise (wild, empty, inverted
    /// and past-`N` ranges, own range included), beacons of non-neighbors,
    /// neighbors without a beacon, no neighbors at all. At least a third of
    /// the keys the host does not cover take the certified search, some of
    /// them over a view holding a range past `N`; ties and wraps each
    /// decide hundreds of forwards. Seeded, so a failure replays.
    #[test]
    fn route_request_matches_reference() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(0x5CAF);
        let (mut routed, mut certified, mut past_n) = (0u32, 0u32, 0u32);
        let (mut ties, mut wraps) = (0u32, 0u32);
        for case in 0..4096 {
            let n = 1u32 << rng.gen_range(2..=9);
            let mut ids: Vec<NodeId> = (0..rng.gen_range(1..=16))
                .map(|_| rng.gen_range(0..n))
                .collect();
            ids.sort_unstable();
            ids.dedup();
            let av = overlay::Avatar::new(n, ids.iter().copied());
            let me = ids[rng.gen_range(0..ids.len())];
            let noise = if rng.gen_bool(0.5) { 0.0 } else { 0.5 };
            let wild = |rng: &mut SmallRng| (rng.gen_range(0..=n + 4), rng.gen_range(0..=n + 4));
            let mut c = ScaffoldCore::new(me, ChordTarget::classic(n), 1);
            let r = av.range_of(me);
            c.cbt.core.range = if rng.gen_bool(noise) {
                wild(&mut rng)
            } else {
                (r.lo, r.hi)
            };
            let (p_neighbor, p_beacon) = (
                rng.gen_range(0..=8u32) as f64 / 8.0,
                rng.gen_range(0..=8u32) as f64 / 8.0,
            );
            let mut neighbors = Vec::new();
            for v in (0..n + 8).filter(|&v| v != me) {
                let host = ids.binary_search(&v).is_ok();
                if !host && !rng.gen_bool(0.02) {
                    continue;
                }
                if rng.gen_bool(p_neighbor) {
                    neighbors.push(v);
                }
                if rng.gen_bool(p_beacon) {
                    let range = if host && !rng.gen_bool(noise) {
                        let rv = av.range_of(v);
                        (rv.lo, rv.hi)
                    } else {
                        wild(&mut rng)
                    };
                    let mut b = c.cbt.beacon();
                    b.range = range;
                    c.cbt.view.record(v, rng.gen_range(0..=10), b);
                }
            }
            let beyond = neighbors
                .iter()
                .any(|&v| c.cbt.view.latest(v).is_some_and(|b| b.range.1 > n));
            for _ in 0..8 {
                let key = rng.gen_range(0..2 * n);
                let (want, tied, wrapped) = c.route_request_reference(key, &neighbors);
                assert_eq!(
                    c.route_request(key, &neighbors),
                    want,
                    "case {case} key {key} range {:?} view {:?} neighbors {neighbors:?}",
                    c.cbt.core.range,
                    c.cbt.view
                );
                if !c.cbt.core.covers(key % n) {
                    routed += 1;
                    let search = c.cbt.view.nearest(key % n, n, &neighbors);
                    certified += u32::from(search.is_some());
                    past_n += u32::from(search.is_some() && beyond);
                }
                if matches!(want, RouteStep::Forward(_)) {
                    ties += u32::from(tied);
                    wraps += u32::from(wrapped);
                }
            }
        }
        assert!(
            3 * certified >= routed && past_n >= 100,
            "{certified} of {routed} routed keys took the certified search, {past_n} past N"
        );
        assert!(
            ties >= 100 && wraps >= 100,
            "{ties} tied and {wraps} wrapping forwards"
        );
    }

    /// A legal host `me` of `Chord(64)` with hosts 5, 12, 20, 33, 41, 50
    /// and 60 (the minimum host 5 covers `[0, 12)`), with beacons of
    /// `viewed` at their legal ranges.
    fn legal_host(me: NodeId, viewed: &[NodeId]) -> ScaffoldCore<ChordTarget> {
        let av = overlay::Avatar::new(64, [5, 12, 20, 33, 41, 50, 60]);
        let mut c = ScaffoldCore::new(me, ChordTarget::classic(64), 1);
        let r = av.range_of(me);
        c.cbt.core.range = (r.lo, r.hi);
        for &v in viewed {
            let rv = av.range_of(v);
            let mut b = c.cbt.beacon();
            b.range = (rv.lo, rv.hi);
            c.cbt.view.record(v, 0, b);
        }
        c
    }

    /// Every key routes as the oracle does, and takes the certified search
    /// iff `certified`.
    fn routes_like_the_scan(c: &ScaffoldCore<ChordTarget>, neighbors: &[NodeId], certified: bool) {
        for key in 0..64 {
            assert_eq!(
                c.route_request(key, neighbors),
                c.route_request_reference(key, neighbors).0,
                "key {key} view {:?} neighbors {neighbors:?}",
                c.cbt.view
            );
            let search = c.cbt.view.nearest(key, 64, neighbors);
            assert_eq!(search.is_some(), certified, "key {key}");
        }
    }

    /// The cases the certified search distinguishes, each checked key by
    /// key against the scan: the minimum host (`lo = 0 < id`), wraps at
    /// `N` and at 0, `key == hi - 1`, a tie, a view that strictly contains
    /// the neighbors and the reverse, one overlapping pair, and a last
    /// range ending past `N`.
    #[test]
    fn certified_route_cases() {
        let all = [5, 12, 20, 41, 50, 60];
        let c = legal_host(33, &all);
        routes_like_the_scan(&c, &all, true);
        // The minimum host covers keys below its id.
        assert_eq!(c.route_request(2, &all), RouteStep::Forward(5));
        // `key == hi - 1` is covered, not preceded.
        assert_eq!(c.route_request(11, &all), RouteStep::Forward(5));
        assert_eq!(c.route_request(19, &all), RouteStep::Forward(12));
        // Below the own range, counter-clockwise.
        assert_eq!(c.route_request(30, &all), RouteStep::Forward(20));
        // Wrap at `N`: every neighbor entry starts after the key, and the
        // last one is nearest clockwise.
        let high = [41, 50, 60];
        let c = legal_host(33, &high);
        routes_like_the_scan(&c, &high, true);
        assert_eq!(c.route_request(10, &high), RouteStep::Forward(60));
        // Wrap at 0: the first entry is nearest counter-clockwise.
        let ends = [5, 50];
        let c = legal_host(33, &ends);
        routes_like_the_scan(&c, &ends, true);
        assert_eq!(c.route_request(62, &ends), RouteStep::Forward(5));
        assert_eq!(c.route_request(61, &ends), RouteStep::Forward(50));
        // A tie, 11 from 12's last guest and from 41's first: the lower id.
        let pair = [12, 41];
        let c = legal_host(5, &pair);
        routes_like_the_scan(&c, &pair, true);
        assert_eq!(c.route_request(30, &pair), RouteStep::Forward(12));
        // A view that strictly contains the neighbors, and the reverse.
        let some = [12, 50];
        let c = legal_host(33, &all);
        routes_like_the_scan(&c, &some, true);
        assert_eq!(c.route_request(25, &some), RouteStep::Forward(12));
        let c = legal_host(33, &some);
        routes_like_the_scan(&c, &all, true);
        assert_eq!(c.route_request(25, &all), RouteStep::Forward(12));
        // One overlapping pair scans.
        let mut c = legal_host(33, &all);
        c.cbt.view.tamper(12, |b| b.range = (12, 22));
        routes_like_the_scan(&c, &all, false);
        // A last range past `N` keeps the certificate and is never a next
        // hop: key 62 goes counter-clockwise to 5 instead of to 60.
        let mut c = legal_host(33, &all);
        c.cbt.view.tamper(60, |b| b.range = (60, 70));
        routes_like_the_scan(&c, &all, true);
        assert_eq!(c.route_request(62, &all), RouteStep::Forward(5));
    }

    /// Every lookup on legal Avatar(Chord) overlays reaches its owner
    /// within `2 log₂ N + 2` hops (the benchmark's bound): from every host
    /// to every key, `N` = 16 to 256, three seeded placements each of a
    /// sparse, a half-full and a full guest space. Each hop takes the
    /// certified search, and its answer is the scan's.
    #[test]
    fn every_lookup_on_a_legal_overlay_reaches_its_owner() {
        let mut longest = 0;
        for n in [16u32, 32, 64, 128, 256] {
            for (placement, hosts) in [n / 8, n / 2, n].into_iter().enumerate() {
                for seed in 0..3u64 {
                    let (ids, _) =
                        ssim::init::place_hosts(hosts as usize, n, 100 * seed + placement as u64);
                    let target = ChordTarget::classic(n);
                    let av = overlay::Avatar::new(n, ids.iter().copied());
                    let mut adj: BTreeMap<NodeId, Vec<NodeId>> =
                        ids.iter().map(|&v| (v, Vec::new())).collect();
                    for (a, b) in crate::expected_edges(&target, &ids) {
                        adj.get_mut(&a).unwrap().push(b);
                        adj.get_mut(&b).unwrap().push(a);
                    }
                    let cores: BTreeMap<NodeId, ScaffoldCore<ChordTarget>> = ids
                        .iter()
                        .map(|&v| {
                            let nb = adj.get_mut(&v).unwrap();
                            nb.sort_unstable();
                            nb.dedup();
                            let mut c = ScaffoldCore::new(v, target, 1);
                            let r = av.range_of(v);
                            c.cbt.core.range = (r.lo, r.hi);
                            for &u in nb.iter() {
                                let ru = av.range_of(u);
                                let mut b = c.cbt.beacon();
                                b.range = (ru.lo, ru.hi);
                                c.cbt.view.record(u, 0, b);
                            }
                            (v, c)
                        })
                        .collect();
                    let bound = 2 * n.ilog2() + 2;
                    for &origin in &ids {
                        for key in 0..n {
                            let (mut at, mut hops) = (origin, 0);
                            loop {
                                let (c, nb) = (&cores[&at], &adj[&at]);
                                let step = c.route_request(key, nb);
                                if step == RouteStep::Deliver {
                                    break;
                                }
                                let mine = ring_dist(c.cbt.core.range, key, n).unwrap();
                                let search = c.cbt.view.nearest(key, n, nb);
                                let scan = c.route_scan(key, nb, mine);
                                let RouteStep::Forward(next) = step else {
                                    panic!("N {n} ids {ids:?}: key {key} stuck at {at}");
                                };
                                assert!(
                                    search.is_some_and(|hit| hit.map(|(v, _)| v) == Some(next)),
                                    "N {n} ids {ids:?}: key {key} at {at}: search {search:?}"
                                );
                                assert_eq!(step, scan, "N {n} ids {ids:?}: key {key} at {at}");
                                (at, hops) = (next, hops + 1);
                                assert!(
                                    hops <= bound,
                                    "N {n} ids {ids:?}: key {key} from {origin}"
                                );
                            }
                            assert!(av.range_of(at).lo <= key && key < av.range_of(at).hi);
                            longest = longest.max(hops);
                        }
                    }
                }
            }
        }
        assert!(longest >= 4, "the longest lookup took {longest} hops");
    }

    /// Pins one value's encoding: the bytes themselves (as hex), `save ∘
    /// load ∘ save` identity, and `Err` — never a panic — for every
    /// truncated prefix.
    fn pin<T: Persist>(label: &str, value: &T, golden: &str) {
        let encode = |v: &T| {
            let mut w = Writer::new();
            v.save(&mut w);
            w.into_bytes()
        };
        let bytes = encode(value);
        let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(hex, golden, "{label}: encoding drifted");
        let mut r = Reader::new(&bytes);
        let back = T::load(&mut r).unwrap_or_else(|e| panic!("{label}: {e}"));
        r.finish().unwrap();
        assert_eq!(encode(&back), bytes, "{label}: save ∘ load ∘ save");
        for cut in 0..bytes.len() {
            assert!(
                T::load(&mut Reader::new(&bytes[..cut])).is_err(),
                "{label}: a {cut}-byte prefix loaded"
            );
        }
    }

    /// Pins every variant of an enum whose tags run `0..len`, in tag order,
    /// and checks that the first unused tag is `Corrupt("<Type> tag t")`.
    fn pin_enum<T: Persist>(ty: &str, variants: &[(T, &str)]) {
        for (tag, (v, golden)) in variants.iter().enumerate() {
            pin(&format!("{ty} tag {tag}"), v, golden);
        }
        let tag = variants.len() as u8;
        match T::load(&mut Reader::new(&[tag])).err() {
            Some(SnapshotError::Corrupt(why)) => assert_eq!(why, format!("{ty} tag {tag}")),
            other => panic!("{ty} tag {tag}: {other:?}"),
        }
    }

    fn sample_beacon() -> avatar_cbt::Beacon {
        avatar_cbt::Beacon {
            cid: 0xC1D,
            range: (8, 16),
            cluster_min: 3,
            role: Some(avatar_cbt::Role::Follower),
            epoch: 300,
        }
    }

    /// One value of each `CbtMsg` variant, in tag order.
    fn sample_cbt_msgs() -> Vec<CbtMsg> {
        use avatar_cbt::msg::{WalkKind, ZipChildInfo, ZipExpect, ZipMeet};
        use avatar_cbt::Role;
        vec![
            CbtMsg::Beacon(sample_beacon()),
            CbtMsg::Sleep,
            CbtMsg::Poll {
                epoch: 5,
                role: Role::Leader,
            },
            CbtMsg::Report {
                epoch: 6,
                candidate: true,
                clean: false,
            },
            CbtMsg::Nominate { epoch: 7 },
            CbtMsg::MergeReq {
                epoch: 8,
                fcid: u64::MAX,
                fmin: 9,
            },
            CbtMsg::WalkUp {
                epoch: 9,
                kind: WalkKind::ContactPull {
                    fcid: 0xABCDEF,
                    fmin: 1,
                },
                endpoint: 200,
            },
            CbtMsg::MatchMade {
                epoch: 10,
                partner: 4,
            },
            CbtMsg::AnchorDone { epoch: 11 },
            CbtMsg::MergeHello {
                epoch: 12,
                cid: 1 << 40,
                cluster_min: 2,
            },
            CbtMsg::ZipMeet(Box::new(ZipMeet {
                epoch: 7,
                level: 2,
                range: (3, 9),
                cid: 0xdead,
                cluster_min: 1,
                new_cid: 0xbeef,
                new_min: 4,
            })),
            CbtMsg::ZipChildInfo(Box::new(ZipChildInfo {
                epoch: 7,
                level: 3,
                entries: vec![(5, 2), (6, 8)],
                new_cid: 0xbeef,
                new_min: 4,
                cid: 0xdead,
            })),
            CbtMsg::ZipExpect(Box::new(ZipExpect {
                epoch: 7,
                level: 3,
                counterpart: 9,
                partner_cid: 0xdead,
                new_cid: 0xbeef,
                new_min: 4,
            })),
        ]
    }

    /// One value of each `ScafMsg` variant, in tag order.
    fn sample_scaf_msgs() -> Vec<ScafMsg> {
        vec![
            ScafMsg::Cbt(CbtMsg::Nominate { epoch: 3 }),
            ScafMsg::Phase(PhaseInfo {
                phase: Phase::Chord,
                last_wave: -1,
            }),
            ScafMsg::StartChord,
            ScafMsg::Prop { k: 3 },
            ScafMsg::Fb {
                k: 0,
                ring0: Some(5),
                ring_n: None,
            },
            ScafMsg::StartDone,
            ScafMsg::FbDone,
        ]
    }

    fn sample_merge() -> avatar_cbt::scratch::Merge {
        avatar_cbt::scratch::Merge {
            partner_cid: 0xFEED,
            new_cid: 1 << 50,
            new_min: 2,
            pending: vec![(1, 17), (2, 40)],
            awaiting: vec![(0, 30)],
            decided: [30u32, 5].into_iter().collect(),
            won: vec![(16, 24)],
            failed: true,
        }
    }

    fn sample_scratch() -> avatar_cbt::scratch::Scratch {
        avatar_cbt::scratch::Scratch {
            epoch: 41,
            role: Some(avatar_cbt::Role::Leader),
            report_children: Some(vec![17, 30]),
            reports: [(30u32, (true, false)), (17, (false, true))]
                .into_iter()
                .collect(),
            report_sent: true,
            self_candidate: false,
            cand_child: Some(30),
            nominated: true,
            merge_req_sent: false,
            contacts: vec![avatar_cbt::scratch::Contact {
                endpoint: 55,
                fcid: 0xF0,
                fmin: 50,
            }],
            matched: true,
            merge: Some(sample_merge()),
            committed: false,
            observed_clean: true,
        }
    }

    /// A CHORD-phase host mid-wave with every optional field set.
    fn sample_core() -> ScaffoldCore<ChordTarget> {
        let mut core = ScaffoldCore::new(17, ChordTarget::classic(64), 0xBEEF);
        core.cbt.view.record(3, 40, sample_beacon());
        core.cbt.scratch = sample_scratch();
        core.cbt.resets = 2;
        core.phase = Phase::Chord;
        core.last_wave = 2;
        core.active = Some(ActiveWave {
            k: 3,
            pending: vec![30, 41],
            ring0: Some(3),
            ring_n: None,
        });
        let pi = PhaseInfo {
            phase: Phase::Chord,
            last_wave: 2,
        };
        core.pview.insert(3, (40, pi));
        core.seen_since.insert(3, 12);
        core.seen_since.insert(30, 38);
        core.switch_round = 12;
        core.wave0_at = Some(30);
        core.last_progress = 39;
        core.done_pending = Some(vec![30]);
        core.done_parent = Some(3);
        core.armed = true;
        core.done_neighbors.set(&[3, 30, 41]);
        core.done_grace = 9;
        core.reverts = 1;
        core.completions = 4;
        core
    }

    /// Every snapshot layout of the protocol stack, pinned byte for byte:
    /// one value of each `CbtMsg` and `ScafMsg` variant, every variant of
    /// the tag-only enums, and a populated `Merge`, `Scratch` and
    /// `ScaffoldCore`. The hex strings were captured from the hand-written
    /// `save`/`load` pairs the declarations replaced; a drift here is a
    /// snapshot format change. The `WalkUp` and `WalkKind` strings were
    /// rewritten by hand for format version 7, which moved the remote
    /// cluster identity into the contact-pull walk kind, and the
    /// `MatchMade` string for version 8, which dropped its three unread
    /// fields (`partner_cid` 77, `walk_first`, `self_match`: the trailing
    /// `4d0100`).
    #[test]
    fn snapshot_encodings_are_pinned() {
        use avatar_cbt::msg::WalkKind;
        use avatar_cbt::Role;
        use ssim::RequestOutcome;

        let cbt_hex = [
            "009d180810030101ac02",
            "01",
            "020500",
            "03060100",
            "0407",
            "0508ffffffffffffffffff0109",
            "060900ef9baf0501c801",
            "070a04",
            "080b",
            "090c80808080802002",
            "0a07020309adbd0301effd0204",
            "0b07030205020608effd0204adbd03",
            "0c070309adbd03effd0204",
        ];
        let cbt: Vec<_> = sample_cbt_msgs().into_iter().zip(cbt_hex).collect();
        pin_enum("CbtMsg", &cbt);
        let scaf_hex = ["000403", "010101", "02", "0303", "0400010500", "05", "06"];
        let scaf: Vec<_> = sample_scaf_msgs().into_iter().zip(scaf_hex).collect();
        pin_enum("ScafMsg", &scaf);

        pin_enum("Role", &[(Role::Leader, "00"), (Role::Follower, "01")]);
        pin_enum(
            "WalkKind",
            &[
                (WalkKind::ContactPull { fcid: 5, fmin: 3 }, "000503"),
                (WalkKind::MatchW1, "01"),
                (WalkKind::MatchW2, "02"),
            ],
        );
        pin_enum(
            "Phase",
            &[
                (Phase::Cbt, "00"),
                (Phase::Chord, "01"),
                (Phase::Done, "02"),
            ],
        );
        pin_enum(
            "RequestOutcome",
            &[
                (RequestOutcome::Completed, "00"),
                (RequestOutcome::Expired, "01"),
                (RequestOutcome::HopBudget, "02"),
                (RequestOutcome::HostDeparted, "03"),
            ],
        );

        pin(
            "Merge",
            &sample_merge(),
            "edfd03808080808080800202020111022801001e02051e01101801",
        );
        pin(
            "Scratch",
            &sample_scratch(),
            concat!(
                "2901000102111e021100011e01000100011e01000137f001320101",
                "edfd03808080808080800202020111022801001e02051e011018010001",
            ),
        );
        pin(
            "ScaffoldCore",
            &sample_core(),
            concat!(
                "4006114001effd020040110103509d180a10030101d80403",
                "2901000102111e021100011e01000100011e01000137f001320101",
                "edfd03808080808080800202020111022801001e02051e0110180100",
                "010202000100000000000000010101040103021e2901030001032801",
                "0402030c1e260c011e2701011e0103010103031e29090104",
            ),
        );
    }

    /// A neighbor's `PhaseInfo`, `Runtime::corrupt_node` or a re-sealed
    /// snapshot can carry any `last_wave`: Definition 3's wave check must
    /// answer "not scaffolded" for the extremes — fresh or stale, whatever
    /// our own wave — and never overflow.
    #[test]
    fn extreme_neighbor_waves_are_unscaffolded_not_overflows() {
        // A singleton host (no detector fault) with one long-adjacent
        // neighbor, heard from this round or long ago.
        let host = |own: i64, wave: i64, heard: u64| {
            let mut c = ScaffoldCore::new(5, ChordTarget::classic(64), 9);
            c.phase = Phase::Chord;
            c.last_wave = own;
            let pi = PhaseInfo {
                phase: Phase::Chord,
                last_wave: wave,
            };
            c.pview.insert(7, (heard, pi));
            c.seen_since.insert(7, 0);
            c
        };
        for own in [-1i64, 0] {
            assert!(host(own, own, 100).scaffolded_ok(100, &[7]), "control");
            for wave in [i64::MIN, i64::MAX] {
                for heard in [100u64, 0] {
                    assert!(
                        !host(own, wave, heard).scaffolded_ok(100, &[7]),
                        "own {own}, neighbor {wave} heard at {heard}"
                    );
                }
            }
        }
    }

    #[test]
    fn new_core_starts_in_cbt() {
        let c = ScaffoldCore::new(5, ChordTarget::classic(64), 9);
        assert_eq!(c.phase, Phase::Cbt);
        assert_eq!(c.last_wave, -1);
    }

    #[test]
    fn windows_are_logarithmic() {
        assert!(switch_window(10, 1) < 40);
        assert!(wave_timeout(10, 1) < 100);
        assert_eq!(switch_window(10, 3), 3 * switch_window(10, 1));
        assert_eq!(wave_timeout(10, 3), 3 * wave_timeout(10, 1));
    }
}
