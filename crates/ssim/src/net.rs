//! Deterministic WAN network conditions: latency, loss, reordering,
//! duplication, and per-edge bandwidth pacing between emit and delivery.
//!
//! The round engine's default network is the paper's fully-synchronous
//! channel: a message sent in round `i` is received in round `i + 1`,
//! reliably, in emission order. A [`NetModel`] relaxes that assumption. It
//! sits between the emit phase and inbox delivery: every send the apply
//! phase processes is either delivered immediately (extra delay 0, exactly
//! the classic path), dropped (loss, or a [`Runtime::partition`] cut), or
//! parked in the runtime's **in-transit buffer** to be delivered — and only
//! then made visible, marked dirty, and counted — in a later round.
//!
//! Determinism is preserved by construction: all net decisions (loss,
//! delay, duplication, pacing) are drawn from one dedicated RNG **on the
//! driving thread, in canonical sink-merge order** — the same selection
//! order the sequential engine applies sends in — so the schedule is
//! byte-identical at any thread count or under any equivalence-claiming
//! daemon. The in-transit buffer and the net RNG position are covered by
//! [`Runtime::save_snapshot`], so a run can be split mid-delay and the
//! restored half continues byte-identically.
//!
//! Accounting follows the engine's conservation-law idiom (see
//! [`crate::workload::RequestStats`]): every send is classified exactly
//! once, and [`NetStats`] pins
//! `sent + duplicated == delivered + dropped + in_transit`
//! at every round boundary (debug-asserted by the runtime).
//!
//! [`Runtime::partition`]: crate::Runtime::partition
//! [`Runtime::save_snapshot`]: crate::Runtime::save_snapshot

use crate::program::Outgoing;
use crate::runtime::splitmix64;
use crate::snapshot::{persist_struct, Persist, Reader, SnapshotError, Writer};
use crate::topology::Topology;
use crate::NodeId;
use rand::rngs::SmallRng;
use rand::Rng;
use serde::Serialize;
use std::collections::BTreeMap;

/// Seeded, deterministic WAN conditions applied to every message between
/// emission and delivery. Plain data (`Copy`): scenarios swap models
/// mid-run via [`crate::Event::SetNetModel`], snapshots persist them, and
/// CLI presets parse into them ([`from_spec`]).
///
/// [`NetModel::ideal`] (the default) is the paper's reliable synchronous
/// channel and takes a zero-overhead fast path: no RNG draws, no transit
/// buffer traffic — the engine is bit-for-bit the classic one.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize)]
pub struct NetModel {
    /// Extra delivery delay in rounds added to every message (on top of
    /// the model's one synchronous hop). `0` = next-round delivery.
    pub delay: u64,
    /// Uniform per-message jitter: each message draws an extra delay in
    /// `0..=jitter` rounds. Nonzero jitter yields **bounded reordering** —
    /// two messages on the same channel may arrive up to `jitter` rounds
    /// out of order, never unboundedly late.
    pub jitter: u64,
    /// Message loss probability in `[0, 1]`; i.i.d. per message by
    /// default, scaled per directed link when [`NetModel::per_link`] is
    /// set.
    pub loss: f64,
    /// Derive a *per-link* loss rate from a hash of the directed edge
    /// (uniform in `[0, 2·loss]`, clamped to `[0, 1]`, mean `loss`)
    /// instead of one i.i.d. rate — some links are then reliably good and
    /// some reliably bad, which stresses protocols differently than
    /// uniform noise.
    pub per_link: bool,
    /// Probability in `[0, 1]` that a message is duplicated: the copy
    /// draws its own delay/jitter (so the pair may arrive out of order)
    /// and is never itself lost or re-duplicated. Counted separately in
    /// [`NetStats::duplicated`].
    pub dup: f64,
    /// Per-directed-edge bandwidth cap in messages per round; `0` means
    /// unlimited. Excess messages on a channel are **paced**, not dropped:
    /// delivery slides to the channel's next free round (FIFO per channel,
    /// so a capped channel never reorders).
    pub bandwidth: u32,
}

impl NetModel {
    /// The reliable synchronous channel of the paper's model: zero extra
    /// latency, no loss, no duplication, unlimited bandwidth. Reproduces
    /// the classic engine bit-for-bit (no net RNG draws at all).
    pub fn ideal() -> Self {
        Self::default()
    }

    /// The default WAN preset (`--net wan`): one round of base latency,
    /// up to two rounds of jitter, 2% i.i.d. loss, 0.5% duplication,
    /// unlimited bandwidth. Lossy and reordering, but kind enough that
    /// both protocol crates stabilize within their usual budgets.
    pub fn wan() -> Self {
        Self {
            delay: 1,
            jitter: 2,
            loss: 0.02,
            dup: 0.005,
            ..Self::ideal()
        }
    }

    /// Worst-case rounds one delivered message can spend per hop:
    /// `1 + delay + jitter` (fits `u32` for every model that passes
    /// [`NetModel::validate`]). Protocols whose stage windows are budgeted in
    /// message hops (e.g. `avatar_cbt::Schedule`) stretch each hop budget
    /// to this bound so that a *deterministic* latency cannot make them
    /// miss every window forever.
    pub fn delivery_bound(&self) -> u64 {
        1 + self.delay + self.jitter
    }

    /// True iff this model is the ideal network — the zero-overhead fast
    /// path that skips every draw and the transit buffer entirely.
    pub fn is_ideal(&self) -> bool {
        self.delay == 0
            && self.jitter == 0
            && self.loss == 0.0
            && self.dup == 0.0
            && self.bandwidth == 0
    }

    /// Effective loss rate of the directed channel `from → to`: the
    /// configured rate, or — with [`NetModel::per_link`] — that rate
    /// scaled by a deterministic per-edge hash (uniform in `[0, 2·loss]`,
    /// clamped to 1).
    pub fn loss_rate(&self, from: NodeId, to: NodeId) -> f64 {
        if !self.per_link || self.loss == 0.0 {
            return self.loss;
        }
        let h = splitmix64(((from as u64) << 32) | to as u64 ^ 0x11E7_1055);
        let u = (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64); // [0, 1)
        (self.loss * 2.0 * u).min(1.0)
    }

    /// Draw one message's extra delivery delay (base + jitter) from the
    /// net RNG. Draws only when `jitter > 0`, so models differing in
    /// constant fields alone consume identical RNG streams.
    pub(crate) fn draw_delay(&self, rng: &mut SmallRng) -> u64 {
        if self.jitter == 0 {
            self.delay
        } else {
            self.delay + rng.gen_range(0..=self.jitter)
        }
    }

    /// Validate the model's parameters: probabilities in `[0, 1]`, and a
    /// per-hop [`NetModel::delivery_bound`] that neither overflows nor
    /// leaves `u32` (the protocols' type for the bound Δ).
    pub fn validate(&self) -> Result<(), String> {
        for (name, p) in [("loss", self.loss), ("dup", self.dup)] {
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("net model: {name} = {p} outside [0, 1]"));
            }
        }
        let bound = self
            .delay
            .checked_add(self.jitter)
            .and_then(|d| d.checked_add(1));
        if bound.is_none_or(|b| b > u64::from(u32::MAX)) {
            return Err(format!(
                "net model: 1 + delay {} + jitter {} exceeds {}",
                self.delay,
                self.jitter,
                u32::MAX
            ));
        }
        Ok(())
    }
}

/// Parse a CLI network spec into a [`NetModel`] — the `--net` counterpart
/// of [`crate::sched::from_spec`].
///
/// Accepted forms:
///
/// * `ideal` — [`NetModel::ideal`] (the default network).
/// * `wan` — the [`NetModel::wan`] preset.
/// * `wan:key=value,...` — the preset with overrides: `loss=0.05`
///   (probability), `delay=2` (rounds), `jitter=3` (rounds), `dup=0.01`
///   (probability), `bw=64` (messages/round/edge, 0 = unlimited), and the
///   flag `linkloss` (per-link loss rates).
pub fn from_spec(spec: &str) -> Result<NetModel, String> {
    let spec = spec.trim();
    if spec == "ideal" {
        return Ok(NetModel::ideal());
    }
    let rest = match spec.split_once(':') {
        None if spec == "wan" => return Ok(NetModel::wan()),
        Some(("wan", rest)) => rest,
        _ => {
            return Err(format!(
                "unknown net spec `{spec}` (expected `ideal`, `wan`, or `wan:key=value,...`)"
            ))
        }
    };
    fn num<T: std::str::FromStr>(key: &str, v: &str) -> Result<T, String> {
        v.parse().map_err(|_| format!("bad {key} `{v}`"))
    }
    let mut m = NetModel::wan();
    for part in rest.split(',').filter(|p| !p.is_empty()) {
        match part.split_once('=') {
            None if part == "linkloss" => m.per_link = true,
            Some((k @ "loss", v)) => m.loss = num(k, v)?,
            Some((k @ "dup", v)) => m.dup = num(k, v)?,
            Some((k @ "delay", v)) => m.delay = num(k, v)?,
            Some((k @ "jitter", v)) => m.jitter = num(k, v)?,
            Some((k @ "bw", v)) => m.bandwidth = num(k, v)?,
            _ => return Err(format!("unknown net option `{part}`")),
        }
    }
    m.validate()?;
    Ok(m)
}

/// Render a model as a [`from_spec`]-compatible string (for reports and
/// bench tables).
pub fn to_spec(m: &NetModel) -> String {
    if m.is_ideal() {
        return "ideal".into();
    }
    let mut s = format!(
        "wan:loss={},delay={},jitter={},dup={}",
        m.loss, m.delay, m.jitter, m.dup
    );
    if m.bandwidth != 0 {
        s.push_str(&format!(",bw={}", m.bandwidth));
    }
    if m.per_link {
        s.push_str(",linkloss");
    }
    s
}

persist_struct!(NetModel {
    delay,
    jitter,
    loss,
    per_link,
    dup,
    bandwidth,
});

/// Cumulative message accounting of the network layer, pinned by the
/// **message conservation law**
///
/// ```text
/// sent + duplicated == delivered + dropped + in_transit
/// ```
///
/// where `dropped` is the sum of the three drop classes. The runtime
/// debug-asserts the law at every round boundary (the message-level
/// counterpart of the request law in [`crate::workload::RequestStats`]);
/// under [`NetModel::ideal`] with no partition it degenerates to
/// `sent == delivered`.
#[derive(Debug, Clone, Copy, Default, Serialize, PartialEq, Eq)]
pub struct NetStats {
    /// Messages emitted by programs and handed to the network layer
    /// (duplicate copies are *not* re-counted here).
    pub sent: u64,
    /// Extra copies created by [`NetModel::dup`].
    pub duplicated: u64,
    /// Messages (and copies) that reached a recipient's inbox.
    pub delivered: u64,
    /// Dropped by random loss ([`NetModel::loss`]).
    pub dropped_loss: u64,
    /// Dropped because the channel crossed an active
    /// [`crate::Runtime::partition`] cut — at send time, or already in
    /// transit when the cut landed.
    pub dropped_partition: u64,
    /// In-transit messages purged because an endpoint departed
    /// (leave/crash): in the synchronous model a message is received only
    /// if its channel still exists, and the channels die with the host.
    pub dropped_departed: u64,
    /// Messages currently parked in the in-transit buffer.
    pub in_transit: u64,
}

impl NetStats {
    /// Sum of all drop classes.
    pub fn dropped(&self) -> u64 {
        self.dropped_loss + self.dropped_partition + self.dropped_departed
    }

    /// The conservation law, as a checkable predicate.
    pub fn conserved(&self) -> bool {
        self.sent + self.duplicated == self.delivered + self.dropped() + self.in_transit
    }
}

persist_struct!(NetStats {
    sent,
    duplicated,
    delivered,
    dropped_loss,
    dropped_partition,
    dropped_departed,
    in_transit,
});

/// One delayed message parked in the [`Wire`]'s in-transit buffer,
/// scheduled for a future round's delivery. Both endpoint *ids* ride along
/// with the slots: departures purge the buffer eagerly, and delivery
/// re-checks id-at-slot anyway (the same guard the timer heap uses), so a
/// recycled slot can never receive a ghost message.
pub(crate) struct Transit<M> {
    pub(crate) to_slot: u32,
    pub(crate) from_slot: u32,
    pub(crate) from: NodeId,
    pub(crate) to: NodeId,
    msg: M,
}

impl<M> Transit<M> {
    /// The message, ready for its recipient's inbox.
    pub(crate) fn land(self) -> Outgoing<M> {
        Outgoing {
            to_slot: self.to_slot,
            from_slot: self.from_slot,
            from: self.from,
            msg: self.msg,
        }
    }
}

/// The wire: everything between a send leaving the emit stage and a message
/// landing in an inbox — the installed [`NetModel`], its RNG, the active
/// partition, the in-transit buffer and the bandwidth pacing state.
pub(crate) struct Wire<M> {
    /// [`NetModel::ideal`] — the paper's reliable synchronous channel —
    /// unless [`crate::Runtime::set_net_model`] says otherwise.
    model: NetModel,
    /// The network layer's dedicated RNG (see the module docs for where it
    /// may be drawn from).
    rng: SmallRng,
    /// In-transit buffer: delivery round → parked messages, appended in
    /// decision order. A `BTreeMap` so iteration (and thus drain and
    /// snapshot order) is canonical.
    transit: BTreeMap<u64, Vec<Transit<M>>>,
    /// Messages currently parked in `transit` — O(1) silence checks.
    transit_count: u64,
    /// Recycled transit buckets. Under a latency/jitter model every round
    /// drains one or more wheel buckets and opens new ones; without a pool
    /// that is one heap allocation per bucket per round, forever. Drained
    /// (and purge-emptied) buckets park here, capacity intact.
    transit_pool: Vec<Vec<Transit<M>>>,
    /// Active partition: the sorted ids of one side of the cut. Channels
    /// crossing the cut drop their messages; edges and membership are
    /// untouched (contrast [`crate::fault::Fault::Crash`]).
    partition: Option<Vec<NodeId>>,
    /// Per-directed-channel bandwidth pacing state:
    /// `(from, to) → (next delivery round, deliveries scheduled in it)`.
    /// Only consulted when the model caps bandwidth; purged on departure.
    bw_state: BTreeMap<(NodeId, NodeId), (u64, u32)>,
}

/// True iff the channel `a ↔ b` crosses the cut around the sorted `side`.
pub(crate) fn crosses(side: &[NodeId], a: NodeId, b: NodeId) -> bool {
    side.binary_search(&a).is_ok() != side.binary_search(&b).is_ok()
}

impl<M> Wire<M> {
    pub(crate) fn new(rng: SmallRng) -> Self {
        Self {
            model: NetModel::ideal(),
            rng,
            transit: BTreeMap::new(),
            transit_count: 0,
            transit_pool: Vec::new(),
            partition: None,
            bw_state: BTreeMap::new(),
        }
    }

    pub(crate) fn model(&self) -> NetModel {
        self.model
    }

    /// Install a (validated) model. Messages already in transit keep the
    /// delivery rounds they were scheduled with.
    pub(crate) fn set_model(&mut self, m: NetModel) {
        self.model = m;
    }

    /// Whether every send needs a driver-side decision (a non-ideal model
    /// or an active cut): loss/delay/duplication draws happen in canonical
    /// sink-merge order on the driving thread — the determinism argument.
    /// An inactive wire is bypassed entirely, which keeps the ideal
    /// network on the classic engine's path bit-for-bit.
    pub(crate) fn is_active(&self) -> bool {
        !self.model.is_ideal() || self.partition.is_some()
    }

    pub(crate) fn in_transit(&self) -> u64 {
        self.transit_count
    }

    pub(crate) fn partitioned(&self) -> bool {
        self.partition.is_some()
    }

    /// True iff the channel `a ↔ b` crosses the active partition cut.
    pub(crate) fn crosses_cut(&self, a: NodeId, b: NodeId) -> bool {
        self.partition.as_ref().is_some_and(|s| crosses(s, a, b))
    }

    /// Install the cut around the sorted, deduplicated `side` (replacing
    /// any active one) and purge the messages in transit across it; returns
    /// how many.
    pub(crate) fn cut(&mut self, side: Vec<NodeId>) -> u64 {
        let purged = self.purge(|t| crosses(&side, t.from, t.to));
        self.partition = Some(side);
        purged
    }

    pub(crate) fn heal(&mut self) -> Option<Vec<NodeId>> {
        self.partition.take()
    }

    /// Drop every in-transit message matching `dead` and report how many;
    /// emptied buckets are recycled.
    pub(crate) fn purge(&mut self, mut dead: impl FnMut(&Transit<M>) -> bool) -> u64 {
        if self.transit_count == 0 {
            return 0;
        }
        let mut purged = 0u64;
        let pool = &mut self.transit_pool;
        self.transit.retain(|_, bucket| {
            let before = bucket.len();
            bucket.retain(|t| !dead(t));
            purged += (before - bucket.len()) as u64;
            if bucket.is_empty() {
                Self::recycle_bucket(pool, std::mem::take(bucket));
                return false;
            }
            true
        });
        self.transit_count -= purged;
        purged
    }

    /// A departure: every in-transit message with `id` as an endpoint is
    /// purged (returns how many) — which is what keeps every parked
    /// endpoint live, so a delayed message can never be delivered to the
    /// departed host's recycled slot — and the bandwidth pacing state of
    /// its channels goes with it.
    pub(crate) fn forget(&mut self, id: NodeId) -> u64 {
        if !self.bw_state.is_empty() {
            self.bw_state.retain(|&(a, b), _| a != id && b != id);
        }
        self.purge(|t| t.from == id || t.to == id)
    }

    /// Park an emptied transit bucket for reuse, bounding both the pool
    /// depth and the capacity any parked bucket may pin (a burst bucket is
    /// dropped rather than kept hot — the capacity-retention policy the
    /// inbox arena applies to its cold pages).
    fn recycle_bucket(pool: &mut Vec<Vec<Transit<M>>>, mut bucket: Vec<Transit<M>>) {
        const POOL_DEPTH: usize = 32;
        const MAX_KEPT_CAP: usize = 4096;
        if pool.len() < POOL_DEPTH && bucket.capacity() <= MAX_KEPT_CAP {
            bucket.clear();
            pool.push(bucket);
        }
    }

    /// Bandwidth pacing: final delivery delay for a message on channel
    /// `from → to` that wants to arrive `delay` rounds out. With a cap of
    /// `c` messages/round/channel, excess deliveries slide to the
    /// channel's next free round — paced FIFO, never dropped (a capped
    /// channel therefore never reorders, whatever the jitter draws).
    fn pace(&mut self, from: NodeId, to: NodeId, round: u64, delay: u64) -> u64 {
        let cap = self.model.bandwidth;
        if cap == 0 {
            return delay;
        }
        let e = self.bw_state.entry((from, to)).or_insert((0, 0));
        let t = (round + delay).max(e.0);
        if t > e.0 {
            *e = (t, 0);
        }
        e.1 += 1;
        if e.1 >= cap {
            *e = (t + 1, 0);
        }
        t - round
    }

    /// Decide the fate of one send to `to` in `round`. Decision order per
    /// message — partition (no draw), loss, delay, duplication, bandwidth
    /// pacing — so the RNG stream is a pure function of the send stream and
    /// the model, never of the thread count. Copies due with no extra delay
    /// go to `land` (the classic next-round inbox path); the rest are
    /// parked for a later round's [`Wire::arrivals`].
    pub(crate) fn send(
        &mut self,
        stats: &mut NetStats,
        round: u64,
        to: NodeId,
        o: Outgoing<M>,
        mut land: impl FnMut(Outgoing<M>),
    ) where
        M: Clone,
    {
        let model = self.model;
        if self.crosses_cut(o.from, to) {
            stats.dropped_partition += 1;
            return;
        }
        if model.loss > 0.0 && self.rng.gen_bool(model.loss_rate(o.from, to)) {
            stats.dropped_loss += 1;
            return;
        }
        let delay = model.draw_delay(&mut self.rng);
        let dup = model.dup > 0.0 && self.rng.gen_bool(model.dup);
        // The duplicate draws its own delay *before* either copy is paced,
        // so the RNG stream never depends on pacing state.
        let dup_delay = dup.then(|| model.draw_delay(&mut self.rng));
        let delay = self.pace(o.from, to, round, delay);
        if let Some(dd) = dup_delay {
            stats.duplicated += 1;
            let dd = self.pace(o.from, to, round, dd);
            let copy = Outgoing {
                msg: o.msg.clone(),
                ..o
            };
            self.forward(copy, to, round, delay.min(dd), &mut land);
            self.forward(o, to, round, delay.max(dd), &mut land);
        } else {
            self.forward(o, to, round, delay, &mut land);
        }
    }

    /// Hand `o` to `land` now (extra delay 0) or park it for
    /// `round + delay`.
    fn forward(
        &mut self,
        o: Outgoing<M>,
        to: NodeId,
        round: u64,
        delay: u64,
        land: &mut impl FnMut(Outgoing<M>),
    ) {
        if delay == 0 {
            return land(o);
        }
        let pool = &mut self.transit_pool;
        self.transit
            .entry(round + delay)
            .or_insert_with(|| pool.pop().unwrap_or_default())
            .push(Transit {
                to_slot: o.to_slot,
                from_slot: o.from_slot,
                from: o.from,
                to,
                msg: o.msg,
            });
        self.transit_count += 1;
    }

    /// Transit arrivals: hand every message whose delivery round has come
    /// to `land`, in decision order. The round calls this after the
    /// activated inboxes were consumed (an arrival becomes readable at the
    /// *next* activation, exactly like a fresh send) and before the round's
    /// new sends are delivered (an older message never queues behind a
    /// younger one in a shared inbox). Arrival — not the send — is where
    /// the recipient is marked dirty (dirty-set soundness: a delayed
    /// message is a wake-up condition on its **delivery** round).
    pub(crate) fn arrivals(&mut self, round: u64, mut land: impl FnMut(Transit<M>)) {
        while let Some(entry) = self.transit.first_entry() {
            if *entry.key() > round {
                break;
            }
            let mut bucket = entry.remove();
            self.transit_count -= bucket.len() as u64;
            bucket.drain(..).for_each(&mut land);
            Self::recycle_bucket(&mut self.transit_pool, bucket);
        }
    }

    /// Whether the O(1) in-transit count agrees with the buffer (a
    /// round-boundary invariant).
    pub(crate) fn count_is_exact(&self) -> bool {
        self.transit_count as usize == self.transit.values().map(Vec::len).sum::<usize>()
    }

    /// Heap bytes of the in-transit wheel: parked messages, bucket slack,
    /// and the recycled-bucket pool.
    pub(crate) fn transit_bytes(&self) -> usize {
        use std::mem::size_of;
        let entry_overhead = size_of::<u64>() + size_of::<Vec<Transit<M>>>();
        let parked: usize = self
            .transit
            .values()
            .map(|b| entry_overhead + b.capacity() * size_of::<Transit<M>>())
            .sum();
        let pooled: usize = self
            .transit_pool
            .iter()
            .map(|b| b.capacity() * size_of::<Transit<M>>())
            .sum();
        parked + pooled
    }

    /// Heap bytes of the bandwidth pacing table.
    pub(crate) fn pacing_bytes(&self) -> usize {
        use std::mem::size_of;
        self.bw_state.len() * (size_of::<(NodeId, NodeId)>() + size_of::<(u64, u32)>())
    }

    /// Cross-check a restored wire against the restored membership, round
    /// and metrics — including what `step` would otherwise trip over later:
    /// a probability `gen_bool` panics on, a cut side `binary_search`
    /// silently misreads.
    pub(crate) fn validate(
        &self,
        topo: &Topology,
        round: u64,
        stats: &NetStats,
    ) -> Result<(), SnapshotError> {
        let corrupt = |what: String| Err(SnapshotError::Corrupt(what));
        if let Err(e) = self.model.validate() {
            return corrupt(e);
        }
        if let Some(side) = &self.partition {
            if !side.windows(2).all(|w| w[0] < w[1]) {
                return corrupt("partition side is not strictly ascending".into());
            }
        }
        for (&due, bucket) in &self.transit {
            if due < round {
                return corrupt(format!(
                    "in-transit bucket due round {due} is before current round {round}"
                ));
            }
            for t in bucket {
                let fs = topo.slot_of(t.from).map(|s| s.index() as u32);
                let ts = topo.slot_of(t.to).map(|s| s.index() as u32);
                if fs != Some(t.from_slot) || ts != Some(t.to_slot) {
                    return corrupt(format!(
                        "in-transit message {} -> {} disagrees with membership",
                        t.from, t.to
                    ));
                }
            }
        }
        if stats.in_transit != self.transit_count {
            return corrupt(format!(
                "metrics claim {} in-transit messages but the delay queue holds {}",
                stats.in_transit, self.transit_count
            ));
        }
        Ok(())
    }
}

/// The model, the net RNG position, the active partition, the in-transit
/// buffer, and the bandwidth pacing state. `BTreeMap` iteration is already
/// canonical, and bucket entries are kept in decision order, so identical
/// states serialize identically.
impl<M: Persist> Persist for Wire<M> {
    fn save(&self, w: &mut Writer) {
        self.model.save(w);
        self.rng.save(w);
        self.partition.save(w);
        w.seq(self.transit.len());
        for (&due, bucket) in &self.transit {
            w.u64(due);
            w.seq(bucket.len());
            for t in bucket {
                w.u32(t.to_slot);
                w.u32(t.from_slot);
                w.u32(t.from);
                w.u32(t.to);
                t.msg.save(w);
            }
        }
        w.seq(self.bw_state.len());
        for (&(a, b), &(next, used)) in &self.bw_state {
            w.u32(a);
            w.u32(b);
            w.u64(next);
            w.u32(used);
        }
    }

    fn load(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        let corrupt = |what: String| Err(SnapshotError::Corrupt(what));
        let model = NetModel::load(r)?;
        let mut wire = Self::new(SmallRng::load(r)?);
        wire.model = model;
        wire.partition = Option::load(r)?;
        for _ in 0..r.seq()? {
            let due = r.u64()?;
            let len = r.seq()?;
            let mut bucket = Vec::with_capacity(len.min(1024));
            for _ in 0..len {
                bucket.push(Transit {
                    to_slot: r.u32()?,
                    from_slot: r.u32()?,
                    from: r.u32()?,
                    to: r.u32()?,
                    msg: M::load(r)?,
                });
            }
            wire.transit_count += len as u64;
            if wire.transit.insert(due, bucket).is_some() {
                return corrupt(format!("duplicate in-transit bucket for round {due}"));
            }
        }
        for _ in 0..r.seq()? {
            let channel = (r.u32()?, r.u32()?);
            let state = (r.u64()?, r.u32()?);
            if wire.bw_state.insert(channel, state).is_some() {
                let (a, b) = channel;
                return corrupt(format!("duplicate bandwidth state for channel {a} -> {b}"));
            }
        }
        Ok(wire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn ideal_is_ideal_and_default() {
        assert!(NetModel::ideal().is_ideal());
        assert!(NetModel::default().is_ideal());
        assert!(!NetModel::wan().is_ideal());
        // Each single relaxation already leaves the fast path.
        for m in [
            NetModel {
                delay: 1,
                ..NetModel::ideal()
            },
            NetModel {
                jitter: 1,
                ..NetModel::ideal()
            },
            NetModel {
                loss: 0.1,
                ..NetModel::ideal()
            },
            NetModel {
                dup: 0.1,
                ..NetModel::ideal()
            },
            NetModel {
                bandwidth: 8,
                ..NetModel::ideal()
            },
        ] {
            assert!(!m.is_ideal(), "{m:?}");
        }
    }

    #[test]
    fn spec_roundtrip_and_presets() {
        assert_eq!(from_spec("ideal").unwrap(), NetModel::ideal());
        assert_eq!(from_spec("wan").unwrap(), NetModel::wan());
        let m = from_spec("wan:loss=0.05,delay=2,jitter=3,dup=0.01,bw=64,linkloss").unwrap();
        assert_eq!(
            m,
            NetModel {
                delay: 2,
                jitter: 3,
                loss: 0.05,
                per_link: true,
                dup: 0.01,
                bandwidth: 64,
            }
        );
        // to_spec output parses back to the same model.
        assert_eq!(from_spec(&to_spec(&m)).unwrap(), m);
        assert_eq!(
            from_spec(&to_spec(&NetModel::ideal())).unwrap(),
            NetModel::ideal()
        );
    }

    #[test]
    fn spec_rejects_garbage() {
        assert!(from_spec("lan").is_err());
        assert!(from_spec("wan:lossy=1").is_err());
        assert!(from_spec("wan:loss=nope").is_err());
        assert!(
            from_spec("wan:loss=1.5").is_err(),
            "probability out of range"
        );
    }

    #[test]
    fn per_link_loss_is_deterministic_and_mean_preserving() {
        let m = NetModel {
            loss: 0.2,
            per_link: true,
            ..NetModel::ideal()
        };
        assert_eq!(m.loss_rate(3, 7), m.loss_rate(3, 7), "pure in the edge");
        let mut sum = 0.0;
        let mut lo = f64::MAX;
        let mut hi: f64 = 0.0;
        let pairs = 1000;
        for i in 0..pairs as u32 {
            let r = m.loss_rate(i, i + 1);
            assert!((0.0..=1.0).contains(&r));
            sum += r;
            lo = lo.min(r);
            hi = hi.max(r);
        }
        let mean = sum / pairs as f64;
        assert!((mean - 0.2).abs() < 0.02, "mean {mean} far from loss 0.2");
        assert!(hi > 0.3 && lo < 0.1, "rates should spread: [{lo}, {hi}]");
        // Directed: the reverse channel draws its own rate.
        assert!((0..100u32).any(|i| m.loss_rate(i, i + 1) != m.loss_rate(i + 1, i)));
    }

    #[test]
    fn delay_draws_respect_bounds_and_skip_rng_when_constant() {
        let base = NetModel {
            delay: 2,
            jitter: 3,
            ..NetModel::ideal()
        };
        let mut rng = SmallRng::seed_from_u64(9);
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..200 {
            let d = base.draw_delay(&mut rng);
            assert!((2..=5).contains(&d));
            seen.insert(d);
        }
        assert_eq!(seen.len(), 4, "all jitter values hit");
        // jitter == 0 draws nothing from the stream.
        let fixed = NetModel {
            delay: 4,
            jitter: 0,
            ..NetModel::ideal()
        };
        let before = rng.clone();
        assert_eq!(fixed.draw_delay(&mut rng), 4);
        assert!(rng == before, "constant delay must not consume the RNG");
    }

    #[test]
    fn stats_conservation_predicate() {
        let mut s = NetStats {
            sent: 10,
            duplicated: 2,
            delivered: 7,
            dropped_loss: 2,
            dropped_partition: 1,
            dropped_departed: 1,
            in_transit: 1,
        };
        assert!(s.conserved());
        s.in_transit = 0;
        assert!(!s.conserved());
    }

    #[test]
    fn delivery_bound_covers_worst_case_hop() {
        assert_eq!(NetModel::ideal().delivery_bound(), 1);
        assert_eq!(NetModel::wan().delivery_bound(), 4);
        let m = NetModel {
            delay: 2,
            jitter: 3,
            ..NetModel::ideal()
        };
        assert_eq!(m.delivery_bound(), 6);
    }

    /// The per-hop bound must fit `u32`, whether the model arrives as a
    /// `--net` spec or inside a (re-sealed) snapshot's wire section.
    #[test]
    fn delivery_bound_out_of_range_is_rejected_on_parse_and_restore() {
        let max = u64::from(u32::MAX);
        for (delay, jitter, ok) in [
            (0, 0, true),
            (max - 1, 0, true),
            (1, max - 2, true),
            (max, 0, false),
            (0, max, false),
            (u64::MAX, 0, false),
            (0, u64::MAX, false),
            (u64::MAX / 2 + 1, u64::MAX / 2, false),
        ] {
            let spec = format!("wan:delay={delay},jitter={jitter}");
            assert_eq!(from_spec(&spec).is_ok(), ok, "parse {spec}");
            let mut wire = Wire::<()>::new(SmallRng::seed_from_u64(1));
            wire.set_model(NetModel {
                delay,
                jitter,
                ..NetModel::wan()
            });
            let mut w = Writer::new();
            wire.save(&mut w);
            let bytes = w.into_bytes();
            let back = Wire::<()>::load(&mut Reader::new(&bytes)).expect("well-framed");
            let topo = Topology::new(std::iter::empty(), std::iter::empty());
            let checked = back.validate(&topo, 0, &NetStats::default());
            assert_eq!(checked.is_ok(), ok, "restore {spec}");
        }
    }

    #[test]
    fn model_persist_roundtrip() {
        let m = from_spec("wan:loss=0.07,delay=1,jitter=4,dup=0.02,bw=16,linkloss").unwrap();
        let mut w = Writer::new();
        m.save(&mut w);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let back = NetModel::load(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(back, m);
    }
}
