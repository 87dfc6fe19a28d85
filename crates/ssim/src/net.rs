//! Deterministic WAN network conditions between emit and delivery:
//! latency, loss, reordering and duplication.
//!
//! The round engine's default network is the paper's fully-synchronous
//! channel: a message sent in round `i` is received in round `i + 1`,
//! reliably, in emission order. A [`NetModel`] relaxes that assumption. It
//! sits between a send and inbox delivery: every send is decided as
//! [`crate::Ctx::send`] emits it — delivered at once to the recipient's
//! next-round inbox (extra delay 0, exactly the classic path), dropped
//! (loss, or a [`Runtime::partition`] cut), or parked in the runtime's
//! **in-transit buffer** to be delivered — and only then made visible,
//! marked dirty, and counted — in a later round.
//!
//! Determinism is preserved by construction: all net decisions (loss,
//! delay, duplication) are drawn from one dedicated RNG **in canonical
//! selection order** — the order the selected programs emit their sends
//! in — so the schedule is byte-identical under any equivalence-claiming
//! daemon. The in-transit buffer and the net RNG position are covered by
//! [`Runtime::save_snapshot`], so a run can be split mid-delay and the
//! restored half continues byte-identically.
//!
//! Accounting follows the engine's conservation-law idiom (see
//! [`crate::workload::RequestStats`]): every send is classified exactly
//! once, and [`NetStats`] pins
//! `sent + duplicated == delivered + dropped + in_transit`
//! at every round boundary (debug-asserted by the runtime). The `Wire`
//! keeps those books itself: each of its methods that parks, lands or
//! purges a message updates the `NetStats` it is handed, so the
//! in-transit count lives there and nowhere else.
//!
//! [`Runtime::partition`]: crate::Runtime::partition
//! [`Runtime::save_snapshot`]: crate::Runtime::save_snapshot

use crate::snapshot::{persist_struct, Persist, Reader, SnapshotError, Writer};
use crate::topology::{NodeSlot, Topology};
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
/// buffer traffic — the engine is bit-for-bit the classic one. Every knob
/// acts per message; the wire keeps no per-channel state.
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
    /// Message loss probability in `[0, 1]`, i.i.d. per message.
    pub loss: f64,
    /// Probability in `[0, 1]` that a message is duplicated: the copy
    /// draws its own delay/jitter (so the pair may arrive out of order)
    /// and is never itself lost or re-duplicated. Counted separately in
    /// [`NetStats::duplicated`].
    pub dup: f64,
}

impl NetModel {
    /// The reliable synchronous channel of the paper's model: zero extra
    /// latency, no loss, no duplication. Reproduces the classic engine
    /// bit-for-bit (no net RNG draws at all).
    pub fn ideal() -> Self {
        Self::default()
    }

    /// The default WAN preset (`--net wan`): one round of base latency,
    /// up to two rounds of jitter, 2% i.i.d. loss, 0.5% duplication.
    /// Lossy and reordering, but kind enough that both protocol crates
    /// stabilize within their usual budgets.
    pub fn wan() -> Self {
        Self {
            delay: 1,
            jitter: 2,
            loss: 0.02,
            dup: 0.005,
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
        *self == Self::ideal()
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
///   (probability), `delay=2` (rounds), `jitter=3` (rounds) and `dup=0.01`
///   (probability).
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
            Some((k @ "loss", v)) => m.loss = num(k, v)?,
            Some((k @ "dup", v)) => m.dup = num(k, v)?,
            Some((k @ "delay", v)) => m.delay = num(k, v)?,
            Some((k @ "jitter", v)) => m.jitter = num(k, v)?,
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
    format!(
        "wan:loss={},delay={},jitter={},dup={}",
        m.loss, m.delay, m.jitter, m.dup
    )
}

persist_struct!(NetModel {
    delay,
    jitter,
    loss,
    dup,
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

    /// The conservation law, as a checkable predicate. Summed in `u128`,
    /// so counters decoded from outside input cannot overflow it.
    pub fn conserved(&self) -> bool {
        let sum = |xs: &[u64]| xs.iter().map(|&x| x as u128).sum::<u128>();
        sum(&[self.sent, self.duplicated])
            == sum(&[
                self.delivered,
                self.dropped_loss,
                self.dropped_partition,
                self.dropped_departed,
                self.in_transit,
            ])
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

/// One message on the wire: handed to [`Wire::send`] by
/// [`crate::Ctx::send`], with everything the wire needs resolved at
/// emission (both endpoints' slots, against the round-start member map —
/// membership never changes mid-step), and parked as is in the in-transit
/// buffer when delayed. Both endpoint *ids* ride along with the slots:
/// departures purge the buffer eagerly, and delivery re-checks id-at-slot
/// anyway (the same guard the timer heap uses), so a recycled slot can
/// never receive a ghost message.
pub(crate) struct Transit<M> {
    pub(crate) to_slot: u32,
    /// The sender's slot: read only by the transit wheel, whose snapshot
    /// layout and id-at-slot arrival guard record both endpoints' slots.
    pub(crate) from_slot: u32,
    pub(crate) from: NodeId,
    pub(crate) to: NodeId,
    pub(crate) msg: M,
}

/// The wire: everything between a send leaving the emit stage and a message
/// landing in an inbox — the installed [`NetModel`], its RNG, the active
/// partition and the in-transit buffer. It owns the network's books: the
/// methods that park, land or purge messages update the [`NetStats`] they
/// are handed (`in_transit` and the drop classes), which is the only
/// in-transit count.
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
    /// Recycled transit buckets. Under a latency/jitter model every round
    /// drains one or more wheel buckets and opens new ones; without a pool
    /// that is one heap allocation per bucket per round, forever. Drained
    /// (and purge-emptied) buckets park here, capacity intact.
    transit_pool: Vec<Vec<Transit<M>>>,
    /// Active partition: the sorted ids of one side of the cut. Channels
    /// crossing the cut drop their messages; edges and membership are
    /// untouched (contrast [`crate::fault::Fault::Crash`]).
    partition: Option<Vec<NodeId>>,
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
            transit_pool: Vec::new(),
            partition: None,
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
    /// selection order — the determinism argument.
    /// An inactive wire is bypassed entirely, which keeps the ideal
    /// network on the classic engine's path bit-for-bit.
    pub(crate) fn is_active(&self) -> bool {
        !self.model.is_ideal() || self.partition.is_some()
    }

    pub(crate) fn partitioned(&self) -> bool {
        self.partition.is_some()
    }

    /// True iff the channel `a ↔ b` crosses the active partition cut.
    pub(crate) fn crosses_cut(&self, a: NodeId, b: NodeId) -> bool {
        self.partition.as_ref().is_some_and(|s| crosses(s, a, b))
    }

    /// Install the cut around the sorted, deduplicated `side` (replacing
    /// any active one) and purge the messages in transit across it
    /// (counted in [`NetStats::dropped_partition`]).
    pub(crate) fn cut(&mut self, stats: &mut NetStats, side: Vec<NodeId>) {
        let purged = self.purge(stats, |t| crosses(&side, t.from, t.to));
        stats.dropped_partition += purged;
        self.partition = Some(side);
    }

    pub(crate) fn heal(&mut self) -> Option<Vec<NodeId>> {
        self.partition.take()
    }

    /// Drop every in-transit message matching `dead`, take it off
    /// `stats.in_transit` and report how many; emptied buckets are
    /// recycled.
    fn purge(&mut self, stats: &mut NetStats, mut dead: impl FnMut(&Transit<M>) -> bool) -> u64 {
        if self.transit.is_empty() {
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
        stats.in_transit -= purged;
        purged
    }

    /// A departure: every in-transit message with `id` as an endpoint is
    /// purged (counted in [`NetStats::dropped_departed`]) — which is what
    /// keeps every parked endpoint live, so a delayed message can never be
    /// delivered to the departed host's recycled slot.
    pub(crate) fn forget(&mut self, stats: &mut NetStats, id: NodeId) {
        stats.dropped_departed += self.purge(stats, |t| t.from == id || t.to == id);
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

    /// Decide the fate of one send in `round`. Decision order per
    /// message — partition (no draw), loss, delay, duplication — so the RNG
    /// stream is a pure function of the send stream and the model. Copies
    /// due with no extra delay go to `land` (the classic next-round inbox
    /// path); the rest are parked for a later round's [`Wire::arrivals`].
    pub(crate) fn send(
        &mut self,
        stats: &mut NetStats,
        round: u64,
        t: Transit<M>,
        mut land: impl FnMut(Transit<M>),
    ) where
        M: Clone,
    {
        let model = self.model;
        if self.crosses_cut(t.from, t.to) {
            stats.dropped_partition += 1;
            return;
        }
        if model.loss > 0.0 && self.rng.gen_bool(model.loss) {
            stats.dropped_loss += 1;
            return;
        }
        let delay = model.draw_delay(&mut self.rng);
        if model.dup > 0.0 && self.rng.gen_bool(model.dup) {
            let dd = model.draw_delay(&mut self.rng);
            stats.duplicated += 1;
            let copy = Transit {
                msg: t.msg.clone(),
                ..t
            };
            self.forward(stats, copy, round, delay.min(dd), &mut land);
            self.forward(stats, t, round, delay.max(dd), &mut land);
        } else {
            self.forward(stats, t, round, delay, &mut land);
        }
    }

    /// Hand `t` to `land` now (extra delay 0) or park it for
    /// `round + delay`.
    fn forward(
        &mut self,
        stats: &mut NetStats,
        t: Transit<M>,
        round: u64,
        delay: u64,
        land: &mut impl FnMut(Transit<M>),
    ) {
        if delay == 0 {
            return land(t);
        }
        let pool = &mut self.transit_pool;
        self.transit
            .entry(round + delay)
            .or_insert_with(|| pool.pop().unwrap_or_default())
            .push(t);
        stats.in_transit += 1;
    }

    /// Transit arrivals: hand every message whose delivery round has come
    /// to `land`, in decision order. The round calls this before its first
    /// step, landing each arrival in its recipient's incoming chain, so it
    /// becomes readable at the *next* activation, exactly like a fresh
    /// send, and it queues ahead of the round's new sends (an older
    /// message never queues behind a younger one in a shared inbox).
    /// Arrival — not the send — is where the recipient is logged for the
    /// dirty mark (dirty-set soundness: a delayed message is a wake-up
    /// condition on its **delivery** round).
    ///
    /// Departures purge the buffer eagerly, so both endpoints are live; the
    /// id-at-slot guard against `topo` (the timer heap's guard) is defense
    /// in depth — a recycled slot must never receive a ghost message, even
    /// if the purge ever regressed — and counts what it stops in
    /// [`NetStats::dropped_departed`].
    pub(crate) fn arrivals(
        &mut self,
        stats: &mut NetStats,
        round: u64,
        topo: &Topology,
        mut land: impl FnMut(Transit<M>),
    ) {
        let at = |slot: u32| topo.id_at(NodeSlot::new(slot as usize));
        while let Some(entry) = self.transit.first_entry() {
            if *entry.key() > round {
                break;
            }
            let mut bucket = entry.remove();
            stats.in_transit -= bucket.len() as u64;
            for t in bucket.drain(..) {
                if at(t.to_slot) == Some(t.to) && at(t.from_slot) == Some(t.from) {
                    land(t);
                } else {
                    stats.dropped_departed += 1;
                }
            }
            Self::recycle_bucket(&mut self.transit_pool, bucket);
        }
    }

    /// Messages parked in the buffer, counted the slow way.
    fn parked(&self) -> u64 {
        self.transit.values().map(|b| b.len() as u64).sum()
    }

    /// Whether `stats.in_transit` agrees with the buffer (a round-boundary
    /// invariant).
    pub(crate) fn count_is_exact(&self, stats: &NetStats) -> bool {
        stats.in_transit == self.parked()
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

    /// Cross-check a restored wire against the restored membership, round
    /// and metrics — including what `step` would otherwise trip over later:
    /// a probability `gen_bool` panics on, a cut side `binary_search`
    /// silently misreads, an in-transit count the buffer does not hold,
    /// counters that break the conservation law `step` asserts.
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
        if !self.count_is_exact(stats) {
            return corrupt(format!(
                "metrics claim {} in-transit messages but the delay queue holds {}",
                stats.in_transit,
                self.parked()
            ));
        }
        if !stats.conserved() {
            return corrupt(format!(
                "net counters break the conservation law: {stats:?}"
            ));
        }
        Ok(())
    }
}

/// The model, the net RNG position, the active partition and the
/// in-transit buffer. `BTreeMap` iteration is already canonical, and bucket
/// entries are kept in decision order, so identical states serialize
/// identically.
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
    }

    fn load(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
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
            if wire.transit.insert(due, bucket).is_some() {
                return Err(SnapshotError::Corrupt(format!(
                    "duplicate in-transit bucket for round {due}"
                )));
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
        ] {
            assert!(!m.is_ideal(), "{m:?}");
        }
    }

    #[test]
    fn spec_roundtrip_and_presets() {
        assert_eq!(from_spec("ideal").unwrap(), NetModel::ideal());
        assert_eq!(from_spec("wan").unwrap(), NetModel::wan());
        let m = from_spec("wan:loss=0.05,delay=2,jitter=3,dup=0.01").unwrap();
        assert_eq!(
            m,
            NetModel {
                delay: 2,
                jitter: 3,
                loss: 0.05,
                dup: 0.01,
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
        // The two retired options (a per-edge cap and hashed per-link
        // loss) are rejected by name, not ignored.
        for option in ["bw=64", "linkloss"] {
            let err = from_spec(&format!("wan:{option}")).unwrap_err();
            assert!(err.contains(option), "{option}: {err}");
        }
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

    /// The wire keeps `NetStats` itself: every park, land and purge moves
    /// `in_transit` and the drop class it causes, so the conservation law
    /// and the buffer count hold after each call.
    #[test]
    fn wire_books_follow_send_cut_forget_and_arrivals() {
        let mut topo = Topology::new(0..4u32, []);
        let mut wire = Wire::<u8>::new(SmallRng::seed_from_u64(3));
        wire.set_model(NetModel {
            delay: 2,
            ..NetModel::ideal()
        });
        let mut s = NetStats::default();
        let mut landed = Vec::new();
        let slot = |t: &Topology, v: NodeId| t.slot_of(v).unwrap().index() as u32;
        let send = |wire: &mut Wire<u8>, s: &mut NetStats, topo: &Topology, from, to| {
            s.sent += 1;
            let t = Transit {
                to_slot: slot(topo, to),
                from_slot: slot(topo, from),
                from,
                to,
                msg: 0,
            };
            wire.send(s, 0, t, |_| panic!("delay 2 parks every send"));
        };
        let check = |wire: &Wire<u8>, s: &NetStats, transit, partition, departed| {
            assert_eq!(
                (s.in_transit, s.dropped_partition, s.dropped_departed),
                (transit, partition, departed)
            );
            assert!(wire.count_is_exact(s) && s.conserved(), "{s:?}");
        };
        for (from, to) in [(0, 1), (1, 2), (2, 3), (3, 0), (1, 3)] {
            send(&mut wire, &mut s, &topo, from, to);
        }
        check(&wire, &s, 5, 0, 0);
        // 1 -> 2 and 3 -> 0 cross the cut around {0, 1}; 1 -> 3 does too.
        wire.cut(&mut s, vec![0, 1]);
        check(&wire, &s, 2, 3, 0);
        wire.heal();
        send(&mut wire, &mut s, &topo, 1, 3);
        check(&wire, &s, 3, 3, 0);
        wire.forget(&mut s, 2);
        check(&wire, &s, 2, 3, 1);
        // Nothing is due before round 2.
        wire.arrivals(&mut s, 1, &topo, |o| landed.push(o.from));
        check(&wire, &s, 2, 3, 1);
        // Host 3 leaves without a purge: the arrival guard stops its
        // message and books it as a departure drop.
        topo.remove_node(3);
        wire.arrivals(&mut s, 2, &topo, |o| landed.push(o.from));
        assert_eq!(landed, [0]);
        s.delivered += landed.len() as u64;
        check(&wire, &s, 0, 3, 2);
    }

    #[test]
    fn model_persist_roundtrip() {
        let m = from_spec("wan:loss=0.07,delay=1,jitter=4,dup=0.02").unwrap();
        let mut w = Writer::new();
        m.save(&mut w);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let back = NetModel::load(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(back, m);
    }
}
