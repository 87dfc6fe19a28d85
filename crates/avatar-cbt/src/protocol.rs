//! The self-stabilizing Avatar(CBT) node program: per-round fault detection,
//! epoch-aligned matching, and the handoff into the zipper merge
//! (see [`crate::merge`] for the zipper itself).

use crate::hosttree::GeometryMemo;
use crate::msg::{Beacon, Carrier, CbtMsg, WalkKind};
use crate::schedule::Schedule;
use crate::scratch::{Contact, Merge, Scratch, MAX_CONTACTS};
use crate::state::{ClusterCore, NeighborView, Role};
use overlay::cbt::Cbt;
use rand::Rng;
use ssim::snapshot::{persist_struct, Persist, Reader, SnapshotError, Writer};
use ssim::{Ctx, NeighborBaseline, NodeId};

/// Events surfaced by one protocol step (consumed by the scaffolding layer).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StepEvents {
    /// The detector fired and this host reset to a singleton cluster.
    pub reset: bool,
    /// This host is a cluster root and its feedback wave reported the whole
    /// cluster clean (no external edges, no faults): the scaffold is built.
    pub cluster_clean: bool,
}

/// The protocol state of one host.
#[derive(Debug, Clone)]
pub struct CbtCore {
    /// Host identifier.
    pub id: NodeId,
    /// Guest capacity `N`.
    pub n: u32,
    /// The guest tree structure.
    pub cbt: Cbt,
    /// The epoch schedule for this `N`.
    pub sched: Schedule,
    /// Durable cluster membership state.
    pub core: ClusterCore,
    /// Latest neighbor beacons.
    pub view: NeighborView,
    /// Per-epoch scratch.
    pub scratch: Scratch,
    /// Rounds during which the unexplained-edge detector rule is suppressed
    /// (post-reset / post-commit).
    pub grace: u8,
    /// Number of detector resets performed (statistic).
    pub resets: u64,
    /// Number of merges committed (statistic).
    pub merges: u64,
    /// Suppress beacon traffic (set while dormant; the network is then
    /// *silent*).
    pub beacons_enabled: bool,
    /// Opt into the quiesce wave: when the root observes a fully clean
    /// feedback wave it broadcasts [`CbtMsg::Sleep`] down the host tree and
    /// the whole (now legal) network goes dormant — no beacons, no epoch
    /// machinery — until a message or a neighborhood change wakes it.
    /// Standalone Avatar(CBT) runs enable this
    /// ([`crate::CbtProgram::new`] does); the scaffolding layer keeps it
    /// off because it has its own CBT→CHORD phase switch at cleanliness.
    pub sleep_on_clean: bool,
    /// Dormant flag (see [`CbtCore::sleep_on_clean`]). While set, `step`
    /// is a no-op apart from the wake checks, so dormant hosts satisfy the
    /// engine's quiescence contract and activity-driven scheduling skips
    /// them entirely.
    pub asleep: bool,
    /// Rounds of residual traffic still tolerated while falling asleep
    /// (the Sleep wave needs a tree descent before the last beacons drain).
    pub sleep_grace: u8,
    /// Neighbor list cached at sleep time; any deviation is a wake-up.
    pub sleep_neighbors: NeighborBaseline,
    /// Rounds after a wake-up during which beacon lookups are
    /// stale-tolerant: sleeping neighbors' states are frozen, so their last
    /// beacons are still accurate while everyone re-awakens and resumes
    /// beaconing.
    pub stale_grace: u8,
    /// Number of times this host fell asleep (statistic).
    pub sleeps: u64,
    /// Consecutive rounds the detector has reported a fault. A reset fires
    /// only once the fault has persisted for [`CbtCore::fault_patience`]
    /// rounds.
    pub fault_streak: u8,
    /// Rounds a detector fault must persist before the reset fires; 1 —
    /// the classic detector, reset on the first faulty round — on the
    /// ideal channel, where a merge that commits on both sides leaves no
    /// fault at all: the census (`exp small_scope`) and E16's ideal row
    /// run to legality with patience 1 and no reset. The resets that
    /// once fired at `t_commit + 1` were one-sided commits, a real fault
    /// no patience should absorb. Latency does make a transient one:
    /// beacons spend up to `Δ` rounds in flight, so for up to `Δ - 1`
    /// rounds after a both-sided commit a neighbor's latest beacon can
    /// still carry the pre-merge cluster id, and the cover rule fails
    /// until the new-cid beacon lands. Jitter stretches the gap between
    /// consecutive beacons to up to `1 + jitter` rounds, and each lost
    /// post-commit beacon adds `Δ` more. [`CbtCore::with_net`] therefore
    /// sets `Δ`, and `3Δ` under loss or jitter. Measured on E16's
    /// `delay=1,jitter=2` row (`Δ = 4`, 8 hosts, every merge committed on
    /// both sides): patience 1 or 2 never reaches legality (1,597–1,764
    /// resets within the budget); `Δ` resets 5 times and is legal at
    /// round 3,163; `3Δ` resets none and is legal at 2,092.
    pub fault_patience: u8,
    /// Copies sent of each merge-critical message (`MergeHello` and the
    /// three zip kinds). The zipper's commit is evaluated *locally* per
    /// host, so a single lost zip message yields asymmetric outcomes: one
    /// side commits, the other aborts, and the half-merged cluster resets.
    /// Retransmission drops the per-message effective loss from `p` to
    /// `p^k` (draws are independent); the handlers are idempotent, so
    /// extra copies are harmless. 1 (the default, and the ideal-channel
    /// setting) is bit-for-bit the classic single-send protocol. Walk
    /// messages must never be duplicated — each receipt forwards, so
    /// copies would multiply hop over hop.
    pub zip_redundancy: u8,
    /// Memo of the own range's crossing edges (see
    /// [`CbtCore::with_geometry`]); derived state, never persisted.
    pub(crate) geometry: GeometryMemo,
}

impl CbtCore {
    /// A host starting as a singleton cluster (the post-reset state).
    pub fn new(id: NodeId, n: u32, nonce: u64) -> Self {
        Self {
            id,
            n,
            cbt: Cbt::new(n),
            sched: Schedule::new(n),
            core: ClusterCore::singleton(id, n, nonce),
            view: NeighborView::default(),
            scratch: Scratch::new(0),
            grace: 2,
            resets: 0,
            merges: 0,
            beacons_enabled: true,
            sleep_on_clean: false,
            asleep: false,
            sleep_grace: 0,
            sleep_neighbors: NeighborBaseline::default(),
            stale_grace: 0,
            sleeps: 0,
            fault_streak: 0,
            fault_patience: 1,
            zip_redundancy: 1,
            geometry: GeometryMemo::default(),
        }
    }

    /// Re-budget this host for a network-conditions model — the one place
    /// the `(Δ, fault_patience, zip_redundancy)` rule lives; runtime
    /// builders, restores and join spawners of both protocol crates all
    /// come through here. For the model's per-hop delivery bound `Δ`
    /// ([`ssim::NetModel::delivery_bound`]) the epoch schedule stretches
    /// uniformly (see [`Schedule::with_delta`]), the beacon staleness
    /// horizon scales, and every grace window is re-derived; loss and
    /// jitter add detector patience and retransmission, below. With
    /// [`ssim::NetModel::ideal`] (`Δ = 1`) this is the identity. Call
    /// before the first step — the schedule realigns epoch arithmetic.
    #[must_use]
    pub fn with_net(mut self, model: ssim::NetModel) -> Self {
        let delta = model.delivery_bound();
        self.sched = self.sched.with_delta(delta);
        self.view.set_delta(delta);
        self.grace = Self::hops(delta, 2);
        self.fault_patience = Self::hops(delta, 1);
        // A lossy channel can swallow the first post-commit beacon of an
        // edge, keeping the detector's cover fault alive for a further `Δ`
        // rounds per loss — so the detector waits out two consecutive
        // losses before treating the fault as real. Jitter needs the same
        // slack without any loss at all: consecutive beacons legitimately
        // arrive up to `1 + jitter` rounds apart (measured in
        // `CbtCore::fault_patience`'s doc).
        if model.loss > 0.0 || model.jitter > 0 {
            self.fault_patience = Self::hops(delta, 3);
        }
        // Merge-critical messages are retransmitted on lossy channels: the
        // zipper commit is local per host, so one lost zip message produces
        // a one-sided commit and a guaranteed reset (see
        // `CbtCore::zip_redundancy`). Two copies drop the effective loss to
        // `p²` — at the wan preset's 2% that is 4·10⁻⁴ per message.
        if model.loss > 0.0 {
            self.zip_redundancy = 2;
        }
        self
    }

    /// Send a merge-critical message [`CbtCore::zip_redundancy`] times.
    pub(crate) fn send_critical(&self, io: &mut Ctx<'_, impl Carrier>, to: NodeId, msg: CbtMsg) {
        for _ in 1..self.zip_redundancy {
            send(io, to, msg.clone());
        }
        send(io, to, msg);
    }

    /// A grace window of `hops` message hops expressed in rounds under
    /// delivery bound `delta`, clamped to the `u8` counters.
    fn hops(delta: u64, hops: u64) -> u8 {
        (delta.max(1) * hops).min(u8::MAX as u64) as u8
    }

    /// Grace window of `hops` hops under this host's own delivery bound.
    pub(crate) fn grace_hops(&self, hops: u64) -> u8 {
        Self::hops(self.sched.delta(), hops)
    }

    /// This host's beacon for the current epoch.
    pub fn beacon(&self) -> Beacon {
        Beacon {
            cid: self.core.cid,
            range: self.core.range,
            cluster_min: self.core.cluster_min,
            role: self.scratch.role,
            epoch: self.scratch.epoch,
        }
    }

    /// Reset to a singleton cluster with a fresh random nonce.
    pub fn reset(&mut self, io: &mut Ctx<'_, impl Carrier>) {
        let nonce = io.rng().gen::<u64>();
        self.core = ClusterCore::singleton(self.id, self.n, nonce);
        self.scratch = Scratch::new(self.scratch.epoch);
        self.grace = self.grace_hops(3);
        self.fault_streak = 0;
        self.resets += 1;
        // A reset host is wide awake and beaconing.
        self.asleep = false;
        self.sleep_neighbors.clear();
        self.beacons_enabled = true;
        self.stale_grace = 0;
    }

    /// True iff the host is dormant with the grace window drained and the
    /// neighbor baseline cached — i.e. its next `step` is a guaranteed
    /// no-op absent external input (the engine's quiescence contract).
    pub fn is_dormant(&self) -> bool {
        self.asleep && self.sleep_grace == 0 && self.sleep_neighbors.is_set()
    }

    /// [`ssim::Sabotage::skew_identity`], written once for the standalone
    /// program and for every protocol embedding this core: skews the
    /// cluster identity ([`ClusterCore::skew`]) and wakes the host, so the
    /// lie is actively beaconed to the neighbors rather than sitting inert
    /// in a dormant node.
    pub fn skew_identity(&mut self, salt: u64) {
        self.core.skew(salt);
        self.asleep = false;
        self.beacons_enabled = true;
        self.sleep_neighbors.clear();
    }

    /// [`ssim::Sabotage::plant_observation`]: the recorded beacon of
    /// `about` is re-forged with the same skew an identity lie uses.
    pub fn plant_observation(&mut self, about: NodeId, salt: u64) -> bool {
        self.view.tamper(about, |b| {
            let mut fake = ClusterCore {
                cid: b.cid,
                range: b.range,
                cluster_min: b.cluster_min,
            };
            fake.skew(salt);
            b.cid = fake.cid;
            b.range = fake.range;
            b.cluster_min = fake.cluster_min;
        })
    }

    /// Tree routing of an application request (the
    /// [`ssim::workload::Router`] decision): deliver when this host's
    /// responsible range covers the key; otherwise walk the fixed guest-CBT
    /// path from the guest root to the key, and forward to the same-cluster
    /// neighbor covering the path guest after the deepest one this host
    /// covers (up the host tree when it covers none). On a legal
    /// `Avatar(Cbt)` this is exactly the dilation-1 host-tree route —
    /// `O(log N)` hops.
    ///
    /// Neighbor ranges come from one stale-tolerant pass over the beacon
    /// view ([`NeighborView::latest_along`]; dormant hosts' cluster states
    /// are frozen, so their last beacons stay accurate — and routing must
    /// keep working while the legal network sleeps). Mid-merge or mid-reset
    /// views can fail to resolve; the request then retries against the
    /// healing overlay, bounded by its TTL.
    pub fn route_request(&self, key: u32, neighbors: &[NodeId]) -> ssim::workload::RouteStep {
        use ssim::workload::RouteStep;
        let key = key % self.n;
        if self.core.covers(key) {
            return RouteStep::Deliver;
        }
        // The guest-tree path root → key is fixed (BST descent). Routing
        // must be a function of the request's *progress along that path*,
        // not of the holder's range root: contiguous ranges can interleave
        // along the path (its values oscillate around the key as the
        // interval narrows), and two hosts each restarting from their own
        // range root would bounce the request between them forever. So:
        // find the deepest path guest this host covers and hand the
        // request to the host covering the *next* path guest — strictly
        // monotone, loop-free, ≤ height hops. Allocation-free: one walk
        // down the path, O(log N) `children` per step.
        let mut g = self.cbt.root();
        let mut next_after_covered: Option<u32> = None;
        let cur = loop {
            let next = if g == key {
                None
            } else {
                let (left, right) = self.cbt.children(g);
                if key < g {
                    left
                } else {
                    right
                }
            };
            if self.core.covers(g) {
                next_after_covered = next;
            }
            match next {
                Some(nx) => g = nx,
                None => break next_after_covered,
            }
        };
        let cur = match cur {
            // Covers part of the path: the next path guest is the hop.
            Some(nx) => nx,
            // Covers nothing on the path: route up the host tree — the
            // parent of the range root lies in an ancestor host's range
            // (strictly lower range-root level each hop), and the host
            // covering the guest root is on every path. A corrupted own
            // range has no range root: unroutable until the detector resets
            // it (routing runs in the traffic stage, whatever the detector
            // has or has not done yet).
            None => match self.up_guest().and_then(|rr| self.cbt.parent(rr)) {
                Some(p) => p,
                None => return RouteStep::Unroutable,
            },
        };
        debug_assert!(!self.core.covers(cur));
        self.view
            .latest_along(neighbors)
            .find(|(_, b)| b.cid == self.core.cid && b.range.0 <= cur && cur < b.range.1)
            .map_or(RouteStep::Unroutable, |(v, _)| RouteStep::Forward(v))
    }

    /// Enter the dormant state and propagate the Sleep wave.
    ///
    /// The wave floods over **all** incident edges, not just tree children:
    /// a node must fall asleep within one round of its first sleeping
    /// neighbor or its detector would see that neighbor's beacons go stale
    /// (TTL 3) before a tree-path descent reaches it — non-tree neighbors
    /// (the successor line, range-crossing edges) would reset and wake the
    /// whole network again. Flooding keeps the gap at one round, strictly
    /// inside the TTL.
    fn begin_sleep(&mut self, io: &mut Ctx<'_, impl Carrier>) {
        for &v in io.neighbors() {
            send(io, v, CbtMsg::Sleep);
        }
        self.asleep = true;
        self.beacons_enabled = false;
        // Neighbor baseline is cached on the next step. Residual traffic
        // keeps arriving until the wave has flooded the whole network and
        // the last beacons have drained — tolerate it for a grace window.
        self.sleep_neighbors.clear();
        self.sleep_grace =
            ((2 * (self.sched.height() + 1) + 8) * self.sched.delta()).min(u8::MAX as u64) as u8;
        self.sleeps += 1;
    }

    /// Leave the dormant state: resume beaconing and, for a few rounds,
    /// trust stale beacons — sleeping neighbors' cluster states are frozen,
    /// so their last beacons are accurate while the wake-up ripples out and
    /// fresh beacons return.
    fn wake(&mut self) {
        self.asleep = false;
        self.beacons_enabled = true;
        self.sleep_neighbors.clear();
        self.sleep_grace = 0;
        self.stale_grace = self.grace_hops(6);
        self.grace = self.grace.max(self.grace_hops(2));
    }

    /// Execute one synchronous round against the host's context. Only the
    /// CBT traffic in the inbox is this protocol's; an embedding protocol's
    /// own messages are skipped.
    pub fn step(&mut self, io: &mut Ctx<'_, impl Carrier>) -> StepEvents {
        let mut ev = StepEvents::default();
        let (round, neighbors) = (io.round, io.neighbors());
        let inbox = io
            .inbox()
            .iter()
            .filter_map(|(from, m)| Some((*from, m.peel()?)));

        // ---- Dormant fast path (standalone runs after the quiesce wave):
        // wake on any neighborhood change or, once the fall-asleep grace
        // has drained, on any message; otherwise the step is a strict
        // no-op — no scratch wipes, no beacons, no PRNG draws — so a
        // dormant network costs nothing under activity-driven scheduling.
        if self.asleep {
            if !self.sleep_neighbors.watch(io) {
                self.wake();
                return ev; // resume the full protocol next round
            }
            if self.sleep_grace > 0 {
                self.sleep_grace -= 1;
                return ev; // residual traffic of the descending wave
            }
            if inbox.clone().next().is_some() {
                self.wake();
            }
            return ev;
        }
        self.stale_grace = self.stale_grace.saturating_sub(1);
        let (epoch, offset) = self.sched.locate(round);

        // ---- Epoch boundary: wipe scratch. Note that the protocol never
        // deletes edges outside the post-commit prune: a "transient" walk
        // copy can coincide with an original edge whose deletion would
        // disconnect the network, so leftovers are left in place as external
        // edges (absorbed and pruned when their clusters eventually merge).
        if offset == 0 || self.scratch.epoch != epoch {
            self.scratch = Scratch::new(epoch);
        }

        // ---- Ingest beacons first so every other handler sees fresh state.
        for (from, m) in inbox.clone() {
            if let CbtMsg::Beacon(b) = m {
                self.view.record(from, round, *b);
            }
        }
        self.view.retain_neighbors(neighbors);

        // ---- Local fault detection (every round, grace-gated extras rule).
        // Shortly after a wake-up the freshness rule is relaxed: still-
        // sleeping neighbors' last beacons describe frozen state and remain
        // trustworthy until the wake ripple restores live beaconing.
        let fault = self.fault(round, neighbors, self.grace > 0, self.stale_grace > 0);
        self.grace = self.grace.saturating_sub(1);
        // Debounce: reset only when the fault has persisted (see
        // [`CbtCore::fault_patience`]). Patience 1 resets on the first one.
        self.fault_streak = if fault.is_some() {
            self.fault_streak.saturating_add(1)
        } else {
            0
        };
        if self.fault_streak >= self.fault_patience {
            self.reset(io);
            ev.reset = true;
            self.emit_beacon(io);
            return ev; // start over next round from the singleton state
        }

        // ---- Handle protocol messages.
        for (from, m) in inbox {
            self.handle(io, epoch, offset, from, m);
        }

        // ---- Scheduled actions for this offset.
        self.scheduled(io, epoch, offset, &mut ev);

        // ---- Zipper merge rounds (see merge.rs).
        self.merge_tick(io, offset);

        self.emit_beacon(io);
        ev
    }

    fn emit_beacon(&self, io: &mut Ctx<'_, impl Carrier>) {
        if !self.beacons_enabled {
            return;
        }
        let b = self.beacon();
        io.broadcast(|| [Carrier::wrap(CbtMsg::Beacon(b))]);
    }

    /// External neighbors whose cluster advertises `Leader` for this epoch.
    fn leader_neighbors(&self, round: u64, epoch: u64, neighbors: &[NodeId]) -> Vec<NodeId> {
        self.view
            .fresh(round, neighbors)
            .filter(|(_, b)| {
                b.cid != self.core.cid && b.epoch == epoch && b.role == Some(Role::Leader)
            })
            .map(|(v, _)| v)
            .collect()
    }

    /// Member-level cleanliness: no external edges, no pending machinery —
    /// every neighbor has a fresh same-cluster beacon.
    fn locally_clean(&self, round: u64, neighbors: &[NodeId]) -> bool {
        self.scratch.merge.is_none()
            && self
                .view
                .fresh(round, neighbors)
                .filter(|(_, b)| b.cid == self.core.cid)
                .count()
                == neighbors.len()
    }

    fn handle(
        &mut self,
        io: &mut Ctx<'_, impl Carrier>,
        epoch: u64,
        offset: u64,
        from: NodeId,
        m: &CbtMsg,
    ) {
        let (round, neighbors) = (io.round, io.neighbors());
        match m {
            CbtMsg::Beacon(_) => {} // ingested earlier
            CbtMsg::Sleep => {
                // Quiesce order from my (clean) parent. Only meaningful in
                // standalone runs, and never while a merge is in flight —
                // a clean cluster has none, so a Sleep that arrives mid-
                // merge is stale and dropped.
                if self.sleep_on_clean && !self.asleep && self.scratch.merge.is_none() {
                    self.begin_sleep(io);
                }
            }
            CbtMsg::Poll { epoch: e, role } => {
                if *e == epoch && self.scratch.role.is_none() {
                    self.scratch.role = Some(*role);
                    for c in self.children(round, neighbors) {
                        send(io, c, CbtMsg::Poll { epoch, role: *role });
                    }
                }
            }
            CbtMsg::Report {
                epoch: e,
                candidate,
                clean,
            } => {
                if *e == epoch {
                    self.scratch.reports.insert(from, (*candidate, *clean));
                }
            }
            CbtMsg::Nominate { epoch: e } => {
                if *e == epoch {
                    self.forward_nomination(io, epoch, offset);
                }
            }
            CbtMsg::MergeReq {
                epoch: e,
                fcid,
                fmin,
            } => {
                if *e == epoch
                    && self.scratch.role == Some(Role::Leader)
                    && offset < self.sched.t_match_deadline()
                {
                    self.start_contact_pull(io, epoch, from, *fcid, *fmin);
                }
            }
            CbtMsg::WalkUp {
                epoch: e,
                kind,
                endpoint,
            } => {
                if *e == epoch {
                    self.continue_walk(io, epoch, *kind, *endpoint);
                }
            }
            CbtMsg::MatchMade { epoch: e, partner } => {
                if *e == epoch && self.scratch.nominated {
                    // Begin the follower-side walk carrying the partner
                    // endpoint toward my cluster root. For a self-match the
                    // partner endpoint is the leader root itself.
                    self.start_match_walk(io, epoch, *partner);
                }
            }
            CbtMsg::AnchorDone { epoch: e } => {
                if *e == epoch {
                    // I am the second contact: the first follower's root
                    // (`from`) now holds the match edge. Carry it up my tree.
                    self.start_anchor_walk(io, epoch, from);
                }
            }
            CbtMsg::MergeHello {
                epoch: e,
                cid,
                cluster_min,
            } => {
                if *e == epoch && offset < self.sched.t_zip() && self.is_root() {
                    self.on_merge_hello(io, epoch, from, *cid, *cluster_min);
                }
            }
            CbtMsg::ZipMeet(z) if z.epoch == epoch => self.on_zip_meet(io, from, z),
            CbtMsg::ZipChildInfo(z) if z.epoch == epoch => self.on_zip_child_info(io, z),
            CbtMsg::ZipExpect(z) if z.epoch == epoch => self.on_zip_expect(z),
            CbtMsg::ZipMeet(_) | CbtMsg::ZipChildInfo(_) | CbtMsg::ZipExpect(_) => {} // stale
        }
    }

    fn scheduled(
        &mut self,
        io: &mut Ctx<'_, impl Carrier>,
        epoch: u64,
        offset: u64,
        ev: &mut StepEvents,
    ) {
        let (round, neighbors) = (io.round, io.neighbors());

        // Epoch start: the root flips this epoch's role and starts the poll.
        if offset == self.sched.t_poll() && self.is_root() {
            let role = if io.rng().gen_bool(0.5) {
                Role::Leader
            } else {
                Role::Follower
            };
            self.scratch.role = Some(role);
            for c in self.children(round, neighbors) {
                send(io, c, CbtMsg::Poll { epoch, role });
            }
        }

        // Report window: snapshot children once, send upward when complete.
        if offset == self.sched.t_report_start() {
            self.scratch.report_children = Some(self.children(round, neighbors).collect());
            self.scratch.self_candidate =
                !self.leader_neighbors(round, epoch, neighbors).is_empty()
                    && self.scratch.role == Some(Role::Follower);
        }
        if offset >= self.sched.t_report_start()
            && offset < self.sched.t_report_deadline()
            && !self.scratch.report_sent
        {
            if let Some(children) = self.scratch.report_children.clone() {
                let all_in = children
                    .iter()
                    .all(|c| self.scratch.reports.contains_key(c));
                if all_in && !self.is_root() {
                    let agg_cand = self.scratch.self_candidate
                        || children.iter().any(|c| self.scratch.reports[c].0);
                    let agg_clean = self.locally_clean(round, neighbors)
                        && children.iter().all(|c| self.scratch.reports[c].1);
                    // Remember which branch supplied the candidate for the
                    // nomination descent.
                    self.scratch.cand_child = if self.scratch.self_candidate {
                        None
                    } else {
                        children.iter().find(|c| self.scratch.reports[c].0).copied()
                    };
                    if let Some(p) = self.parent(round, neighbors) {
                        send(
                            io,
                            p,
                            CbtMsg::Report {
                                epoch,
                                candidate: agg_cand,
                                clean: agg_clean,
                            },
                        );
                        self.scratch.report_sent = true;
                    }
                }
            }
        }

        // Root finalization: cleanliness signal and follower nomination.
        if offset == self.sched.t_nominate() && self.is_root() {
            let children = self.scratch.report_children.clone().unwrap_or_default();
            let all_in = children
                .iter()
                .all(|c| self.scratch.reports.contains_key(c));
            let clean = all_in
                && self.locally_clean(round, neighbors)
                && children.iter().all(|c| self.scratch.reports[c].1);
            if clean {
                self.scratch.observed_clean = true;
                ev.cluster_clean = true;
                // Standalone runs: the scaffold is built and the network is
                // legal — quiesce it. (The scaffolding layer reacts to
                // `cluster_clean` with its own CBT→CHORD switch instead.)
                if self.sleep_on_clean && !self.asleep {
                    self.begin_sleep(io);
                }
            }
            if self.scratch.role == Some(Role::Follower) {
                self.scratch.cand_child = if self.scratch.self_candidate {
                    None
                } else {
                    children
                        .iter()
                        .find(|c| self.scratch.reports.get(c).is_some_and(|r| r.0))
                        .copied()
                };
                if self.scratch.self_candidate || self.scratch.cand_child.is_some() {
                    self.forward_nomination(io, epoch, offset);
                }
            }
        }

        // Leader root: pair the collected contacts.
        if offset == self.sched.t_match()
            && self.is_root()
            && self.scratch.role == Some(Role::Leader)
            && !self.scratch.matched
        {
            self.dispatch_matches(io, epoch);
        }

        // Commit and prune are driven from merge.rs via merge_tick.
    }

    /// Route the nomination token: either I am the contact, or pass it to
    /// the child whose subtree reported the candidate.
    fn forward_nomination(&mut self, io: &mut Ctx<'_, impl Carrier>, epoch: u64, offset: u64) {
        if self.scratch.nominated || offset >= self.sched.t_match_deadline() {
            return;
        }
        if self.scratch.self_candidate {
            self.scratch.nominated = true;
            self.send_merge_req(io, epoch);
        } else if let Some(c) = self.scratch.cand_child {
            if io.is_neighbor(c) {
                send(io, c, CbtMsg::Nominate { epoch });
            }
        }
    }

    /// The nominated contact asks its smallest external leader neighbor.
    fn send_merge_req(&mut self, io: &mut Ctx<'_, impl Carrier>, epoch: u64) {
        if self.scratch.merge_req_sent {
            return;
        }
        if let Some(&l) = self
            .leader_neighbors(io.round, epoch, io.neighbors())
            .first()
        {
            send(
                io,
                l,
                CbtMsg::MergeReq {
                    epoch,
                    fcid: self.core.cid,
                    fmin: self.core.cluster_min,
                },
            );
            self.scratch.merge_req_sent = true;
        }
    }

    /// Leader member adjacent to a requesting follower: begin pulling the
    /// contact edge up to the leader root.
    fn start_contact_pull(
        &mut self,
        io: &mut Ctx<'_, impl Carrier>,
        epoch: u64,
        follower: NodeId,
        fcid: u64,
        fmin: NodeId,
    ) {
        if self.is_root() {
            self.accept_contact(follower, fcid, fmin);
            return;
        }
        if let Some(p) = self.parent(io.round, io.neighbors()) {
            io.link(follower, p);
            send(
                io,
                p,
                CbtMsg::WalkUp {
                    epoch,
                    kind: WalkKind::ContactPull { fcid, fmin },
                    endpoint: follower,
                },
            );
            // The (me, follower) edge is the original external edge: keep it.
        }
    }

    /// A walk step arrived: I now hold an edge to `endpoint`. Either absorb
    /// it (walk complete at a root) or hand it to my parent and drop my copy.
    fn continue_walk(
        &mut self,
        io: &mut Ctx<'_, impl Carrier>,
        epoch: u64,
        kind: WalkKind,
        endpoint: NodeId,
    ) {
        if !io.is_neighbor(endpoint) {
            return; // edge never materialized (peer reset); drop the walk
        }
        if self.is_root() {
            match kind {
                WalkKind::ContactPull { fcid, fmin } => {
                    if self.scratch.role == Some(Role::Leader) {
                        self.accept_contact(endpoint, fcid, fmin);
                    }
                }
                WalkKind::MatchW1 => {
                    // The match edge is anchored at my root; tell the far
                    // endpoint (second contact) to carry me up its tree.
                    send(io, endpoint, CbtMsg::AnchorDone { epoch });
                }
                // endpoint is the partner cluster's root: handshake, and
                // prime from its answer (see `on_merge_hello`).
                WalkKind::MatchW2 => self.send_hello(io, epoch, endpoint),
            }
            return;
        }
        if let Some(p) = self.parent(io.round, io.neighbors()) {
            io.link(endpoint, p);
            send(
                io,
                p,
                CbtMsg::WalkUp {
                    epoch,
                    kind,
                    endpoint,
                },
            );
        }
        // The copy this host holds lingers as an external edge; see the
        // epoch-boundary note (only the prune ever deletes edges).
    }

    fn accept_contact(&mut self, endpoint: NodeId, fcid: u64, fmin: NodeId) {
        let dup = self.scratch.contacts.iter().any(|c| c.fcid == fcid);
        if dup || self.scratch.contacts.len() >= MAX_CONTACTS || self.scratch.matched {
            return;
        }
        self.scratch.contacts.push(Contact {
            endpoint,
            fcid,
            fmin,
        });
    }

    /// Leader root at match time: pair contacts; odd leftover merges with us.
    fn dispatch_matches(&mut self, io: &mut Ctx<'_, impl Carrier>, epoch: u64) {
        self.scratch.matched = true;
        let mut contacts = std::mem::take(&mut self.scratch.contacts);
        contacts.sort_by_key(|c| c.fcid);
        contacts.retain(|c| io.is_neighbor(c.endpoint));
        let mut iter = contacts.chunks_exact(2);
        for pair in iter.by_ref() {
            let (a, b) = (pair[0], pair[1]);
            io.link(a.endpoint, b.endpoint);
            send(
                io,
                a.endpoint,
                CbtMsg::MatchMade {
                    epoch,
                    partner: b.endpoint,
                },
            );
            send(
                io,
                b.endpoint,
                CbtMsg::MatchMade {
                    epoch,
                    partner: a.endpoint,
                },
            );
        }
        if let [last] = iter.remainder() {
            // Odd contact: the leader cluster itself merges with it. The
            // contact walks the (leader-root, contact) edge up its own tree.
            send(
                io,
                last.endpoint,
                CbtMsg::MatchMade {
                    epoch,
                    partner: self.id,
                },
            );
            // Keep the edge; the far side's root will Hello us.
        }
    }

    /// First contact of a pair (or the self-match contact): walk the match
    /// edge up to my cluster root, carrying the partner endpoint.
    fn start_match_walk(&mut self, io: &mut Ctx<'_, impl Carrier>, epoch: u64, partner: NodeId) {
        if !io.is_neighbor(partner) {
            return;
        }
        if self.is_root() {
            // Degenerate: the contact *is* the root (e.g. singleton cluster).
            send(io, partner, CbtMsg::AnchorDone { epoch });
            return;
        }
        if let Some(p) = self.parent(io.round, io.neighbors()) {
            io.link(partner, p);
            send(
                io,
                p,
                CbtMsg::WalkUp {
                    epoch,
                    kind: WalkKind::MatchW1,
                    endpoint: partner,
                },
            );
        }
    }

    /// Second contact after `AnchorDone`: carry the anchored root (`anchor`)
    /// up my own tree to my root.
    fn start_anchor_walk(&mut self, io: &mut Ctx<'_, impl Carrier>, epoch: u64, anchor: NodeId) {
        if !io.is_neighbor(anchor) {
            return;
        }
        if self.is_root() {
            // Degenerate: I am my cluster's root; handshake directly.
            self.send_hello(io, epoch, anchor);
            return;
        }
        if let Some(p) = self.parent(io.round, io.neighbors()) {
            io.link(anchor, p);
            send(
                io,
                p,
                CbtMsg::WalkUp {
                    epoch,
                    kind: WalkKind::MatchW2,
                    endpoint: anchor,
                },
            );
        }
    }

    /// Root-to-root handshake: prime the merge from the partner's own cid
    /// and answer the Hello once. This is the only place a merge is primed
    /// at a root, so a root never names its partner by a placeholder:
    /// `join_merge` would reject every one of the partner's meets as stale,
    /// and the merge would commit on one side only.
    fn on_merge_hello(
        &mut self,
        io: &mut Ctx<'_, impl Carrier>,
        epoch: u64,
        from: NodeId,
        cid: u64,
        cluster_min: NodeId,
    ) {
        if !io.is_neighbor(from) || cid == self.core.cid || self.scratch.merge.is_some() {
            return;
        }
        let mut m = Merge {
            partner_cid: cid,
            new_cid: mix_cids(self.core.cid, cid),
            new_min: self.core.cluster_min.min(cluster_min),
            ..Merge::default()
        };
        m.pending.push((0, from));
        self.scratch.merge = Some(m);
        self.send_hello(io, epoch, from);
    }

    /// Introduce this root to the partner root `to`.
    fn send_hello(&self, io: &mut Ctx<'_, impl Carrier>, epoch: u64, to: NodeId) {
        self.send_critical(
            io,
            to,
            CbtMsg::MergeHello {
                epoch,
                cid: self.core.cid,
                cluster_min: self.core.cluster_min,
            },
        );
    }
}

persist_struct!(StepEvents {
    reset,
    cluster_clean,
});

impl Persist for CbtCore {
    fn save(&self, w: &mut Writer) {
        w.u32(self.id);
        w.u32(self.n);
        // `cbt` is a pure function of `n` and `sched` of `(n, Δ)` — rebuilt
        // on load, not serialized (they dominate the state size and cannot
        // drift). Only the delivery bound Δ needs to travel.
        w.u64(self.sched.delta());
        self.core.save(w);
        self.view.save(w);
        self.scratch.save(w);
        w.u8(self.grace);
        w.u64(self.resets);
        w.u64(self.merges);
        w.bool(self.beacons_enabled);
        w.bool(self.sleep_on_clean);
        w.bool(self.asleep);
        w.u8(self.sleep_grace);
        self.sleep_neighbors.save(w);
        w.u8(self.stale_grace);
        w.u64(self.sleeps);
        w.u8(self.fault_streak);
        w.u8(self.fault_patience);
        w.u8(self.zip_redundancy);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        let id = r.u32()?;
        let n = r.u32()?;
        if n == 0 {
            return Err(SnapshotError::Corrupt("CbtCore with n = 0".into()));
        }
        let delta = r.u64()?;
        if delta == 0 || delta > u32::MAX as u64 {
            return Err(SnapshotError::Corrupt(format!("CbtCore with Δ = {delta}")));
        }
        Ok(Self {
            id,
            n,
            cbt: Cbt::new(n),
            sched: Schedule::new(n).with_delta(delta),
            core: ClusterCore::load(r)?,
            view: NeighborView::load(r)?,
            scratch: Scratch::load(r)?,
            grace: r.u8()?,
            resets: r.u64()?,
            merges: r.u64()?,
            beacons_enabled: r.bool()?,
            sleep_on_clean: r.bool()?,
            asleep: r.bool()?,
            sleep_grace: r.u8()?,
            sleep_neighbors: NeighborBaseline::load(r)?,
            stale_grace: r.u8()?,
            sleeps: r.u64()?,
            fault_streak: r.u8()?,
            fault_patience: match r.u8()? {
                0 => return Err(SnapshotError::Corrupt("zero fault patience".into())),
                p => p,
            },
            zip_redundancy: match r.u8()? {
                0 => return Err(SnapshotError::Corrupt("zero zip redundancy".into())),
                k => k,
            },
            geometry: GeometryMemo::default(),
        })
    }
}

/// Send a CBT message over whatever wire type the host's context carries.
pub(crate) fn send<M: Carrier>(io: &mut Ctx<'_, M>, to: NodeId, msg: CbtMsg) {
    io.send(to, M::wrap(msg));
}

/// Symmetric combination of two cluster ids into the merged cluster's id.
pub fn mix_cids(a: u64, b: u64) -> u64 {
    use ssim::runtime::splitmix64;
    splitmix64(a) ^ splitmix64(b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssim::workload::RouteStep;

    /// Tree routing on a legal cluster: following `route_request` hop by
    /// hop from any host reaches the host covering the key within the
    /// host-tree depth bound, and the covering host delivers.
    #[test]
    fn tree_routing_walks_to_the_covering_host() {
        use crate::msg::Beacon;
        use ssim::workload::RouteStep;
        let n = 64u32;
        let hosts = [3u32, 17, 30, 41, 55];
        let av = overlay::Avatar::new(n, hosts.iter().copied());
        let cores: Vec<CbtCore> = hosts
            .iter()
            .map(|&u| {
                let mut c = CbtCore::new(u, n, 7);
                let r = av.range_of(u);
                c.core = ClusterCore {
                    cid: 7,
                    range: (r.lo, r.hi),
                    cluster_min: 3,
                };
                for &v in &hosts {
                    if v != u {
                        let rv = av.range_of(v);
                        c.view.record(
                            v,
                            10,
                            Beacon {
                                cid: 7,
                                range: (rv.lo, rv.hi),
                                cluster_min: 3,
                                role: None,
                                epoch: 0,
                            },
                        );
                    }
                }
                c
            })
            .collect();
        for key in [0u32, 16, 31, 50, 63] {
            let responsible = av.host_of(key);
            for &start in &hosts {
                let mut cur = start;
                let mut hops = 0;
                loop {
                    let idx = hosts.iter().position(|&h| h == cur).unwrap();
                    let neighbors: Vec<ssim::NodeId> =
                        hosts.iter().copied().filter(|&v| v != cur).collect();
                    match cores[idx].route_request(key, &neighbors) {
                        RouteStep::Deliver => {
                            assert_eq!(cur, responsible, "key {key} from {start}");
                            break;
                        }
                        RouteStep::Forward(v) => {
                            cur = v;
                            hops += 1;
                            assert!(
                                hops <= cores[idx].cbt.height() + 2,
                                "key {key} from {start}: too many hops"
                            );
                        }
                        RouteStep::Unroutable => panic!("key {key} unroutable at {cur}"),
                    }
                }
            }
        }
    }

    /// Corruption can leave the own responsible range empty or reaching
    /// past the guest space; routing must degrade to Unroutable (retry/TTL),
    /// never trip `Cbt::range_root`'s interval assertion mid-round.
    #[test]
    fn routing_with_corrupted_own_range_is_safe() {
        let mut c = CbtCore::new(5, 64, 9);
        for range in [(7, 7), (60, 90), (3, 0)] {
            c.core.range = range;
            assert_eq!(
                c.route_request(3, &[]),
                ssim::workload::RouteStep::Unroutable,
                "own range {range:?}"
            );
        }
    }

    /// `route_request` as first written — a beacon lookup per neighbor —
    /// kept as the oracle the single-pass router is property-tested
    /// against.
    impl CbtCore {
        fn route_request_reference(&self, key: u32, neighbors: &[NodeId]) -> RouteStep {
            let key = key % self.n;
            if self.core.covers(key) {
                return RouteStep::Deliver;
            }
            let mut g = self.cbt.root();
            let mut next_after_covered: Option<u32> = None;
            let cur = loop {
                let next = if g == key {
                    None
                } else {
                    let (left, right) = self.cbt.children(g);
                    if key < g {
                        left
                    } else {
                        right
                    }
                };
                if self.core.covers(g) {
                    next_after_covered = next;
                }
                match next {
                    Some(nx) => g = nx,
                    None => break next_after_covered,
                }
            };
            let cur = match cur {
                Some(nx) => nx,
                None => match self.up_guest().and_then(|rr| self.cbt.parent(rr)) {
                    Some(p) => p,
                    None => return RouteStep::Unroutable,
                },
            };
            for &v in neighbors {
                if let Some(b) = self.view.latest(v) {
                    if b.cid == self.core.cid && b.range.0 <= cur && cur < b.range.1 {
                        return RouteStep::Forward(v);
                    }
                }
            }
            RouteStep::Unroutable
        }
    }

    /// One random routing input: a host of `Cbt(n)` with its view and
    /// sorted neighbor list. Half the inputs start from a legal embedding
    /// (so most keys forward); the rest is noise — a wild own range,
    /// foreign cluster ids, empty, inverted and past-`N` beacon ranges,
    /// beacons of non-neighbors, neighbors without a beacon, no neighbors.
    fn random_router(rng: &mut rand::rngs::SmallRng) -> (CbtCore, Vec<NodeId>) {
        let n = rng.gen_range(1..=512u32);
        let cid = rng.gen_range(1..=3u64);
        let mut ids: Vec<NodeId> = (0..rng.gen_range(1..=16))
            .map(|_| rng.gen_range(0..n))
            .collect();
        ids.sort_unstable();
        ids.dedup();
        let av = overlay::Avatar::new(n, ids.iter().copied());
        let me = ids[rng.gen_range(0..ids.len())];
        let noise = if rng.gen_bool(0.5) { 0.0 } else { 0.5 };
        let wild =
            |rng: &mut rand::rngs::SmallRng| (rng.gen_range(0..=n + 4), rng.gen_range(0..=n + 4));
        let mut c = CbtCore::new(me, n, cid);
        let r = av.range_of(me);
        c.core.range = if rng.gen_bool(noise) {
            wild(rng)
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
                    wild(rng)
                };
                let b = Beacon {
                    cid: if rng.gen_bool(noise) {
                        rng.gen_range(1..=3)
                    } else {
                        cid
                    },
                    range,
                    cluster_min: ids[0],
                    role: None,
                    epoch: 0,
                };
                c.view.record(v, rng.gen_range(0..=10), b);
            }
        }
        (c, neighbors)
    }

    proptest::proptest! {
        /// The single-pass router takes the oracle's decision — deliver,
        /// the same next hop, or unroutable — on every random input.
        #[test]
        fn route_request_matches_reference(seed in 0u64..u64::MAX) {
            use rand::SeedableRng;
            let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
            for _ in 0..64 {
                let (c, neighbors) = random_router(&mut rng);
                for _ in 0..8 {
                    let key = rng.gen_range(0..2 * c.n);
                    proptest::prop_assert_eq!(
                        c.route_request(key, &neighbors),
                        c.route_request_reference(key, &neighbors),
                        "key {} core {:?} view {:?} neighbors {:?}", key, c.core, c.view, neighbors
                    );
                }
            }
        }
    }

    /// A merge handshake names each root's partner by the partner's own
    /// cid. On the five-host start where a second-walk root (host 23)
    /// once primed with a placeholder cid of 0, every root that holds a
    /// level-0 meet with a partner root holds that root's current cid as
    /// `partner_cid`, at the end of every round to legality, and both
    /// roots of each handshake name each other.
    #[test]
    fn merge_handshake_names_the_partner_roots_real_cid() {
        let ids = [5, 11, 18, 23, 30];
        let edges = vec![(5, 18), (5, 23), (5, 30), (11, 18), (11, 30)];
        let mut rt = crate::legal::runtime(32, &ids, edges, ssim::Config::seeded(1));
        let mut primed = std::collections::BTreeSet::new();
        let legal = rt.run_monitored(
            |rt| {
                for (r, p) in rt.programs() {
                    let Some(m) = &p.core.scratch.merge else {
                        continue;
                    };
                    let meets = m.pending.iter().chain(&m.awaiting);
                    for &(_, partner) in meets.filter(|&&(level, _)| level == 0) {
                        assert!(p.core.is_root(), "round {}: {r} is no root", rt.round());
                        let real = rt.program(partner).core.core.cid;
                        assert_ne!(m.partner_cid, 0, "round {}: {r}", rt.round());
                        assert_eq!(m.partner_cid, real, "round {}: {r}", rt.round());
                        primed.insert((p.core.scratch.epoch, r, partner));
                    }
                }
                crate::legal::runtime_is_legal(rt)
            },
            81 * 40,
        );
        assert_eq!(legal.rounds_if_satisfied(), Some(484));
        assert!(primed.iter().any(|&(_, r, _)| r == 23), "{primed:?}");
        for &(epoch, r, partner) in &primed {
            assert!(primed.contains(&(epoch, partner, r)), "{primed:?}");
        }
    }

    #[test]
    fn mix_cids_is_symmetric_and_fresh() {
        assert_eq!(mix_cids(3, 9), mix_cids(9, 3));
        assert_ne!(mix_cids(3, 9), 3);
        assert_ne!(mix_cids(3, 9), 9);
        assert_ne!(mix_cids(3, 9), mix_cids(3, 10));
    }

    #[test]
    fn new_core_is_singleton() {
        let c = CbtCore::new(7, 64, 42);
        assert_eq!(c.core.range, (0, 64));
        assert_eq!(c.core.cluster_min, 7);
        assert!(c.is_root());
    }
}
