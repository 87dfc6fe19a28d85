//! Fixtures the benchmark owns: the installed-legal Avatar(Chord) runtime
//! and the two host types (plain and timed) every workload is generic over.
//!
//! Nothing here touches a checkpoint cache or the environment: a fixture is
//! a pure function of `(size, config, network model)`, built from public
//! API of `chord-scaffold`, `avatar-cbt`, `overlay` and `ssim`, so set-up
//! costs the same on every run of the same code.

use crate::trace::Timed;
use chord_scaffold::{ChordTarget, ScafMsg, ScaffoldProgram};
use rand::SeedableRng;
use ssim::workload::Router;
use ssim::{Config, NetModel, NodeId, Persist, Program, Runtime, SnapshotError};

/// The protocol program as the library ships it.
pub type Plain = ScaffoldProgram<ChordTarget>;

/// Guest capacity `N` and host count of one overlay.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    pub n: u32,
    pub hosts: usize,
}

impl Size {
    pub fn target(&self) -> ChordTarget {
        ChordTarget::classic(self.n)
    }

    /// Round budget of a from-scratch stabilization on the ideal network:
    /// a generous multiple of `epoch · log hosts`, the same shape the
    /// experiment binaries budget with.
    pub fn budget(&self) -> u64 {
        let epoch = avatar_cbt::Schedule::new(self.n).epoch_len();
        let log_hosts = u64::from(usize::BITS - self.hosts.leading_zeros());
        epoch * (8 * log_hosts + 16)
    }
}

/// Every workload's engine configuration: strict model checking, no
/// per-round metric rows, `threads` round-execution threads.
pub fn config(seed: u64, threads: usize) -> Config {
    let mut cfg = Config::seeded(seed).threads(threads);
    cfg.record_rounds = false;
    cfg
}

/// An independent seed for instance `i` of a run (splitmix64 of the pair).
pub fn sub_seed(seed: u64, i: u64) -> u64 {
    let mut x = seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// `hosts` random host identifiers in `[0, n)`, placed by `seed`.
pub fn host_ids(size: Size, seed: u64) -> Vec<NodeId> {
    let mut rng = rand::rngs::SmallRng::seed_from_u64(seed ^ 0xA5A5_5A5A);
    ssim::init::random_ids(size.hosts, size.n, &mut rng)
}

/// A runtime already in the legal, silent Avatar(Chord) configuration: the
/// exact expected edge set, every host settled in the DONE phase with
/// correct responsible ranges, and beacon views warmed with what real
/// round-0 beacons would carry (request routing reads them). Host placement
/// derives from `cfg.seed`.
pub fn legal_chord(size: Size, cfg: Config, model: NetModel) -> Runtime<Plain> {
    const CID: u64 = 0xFEED_F00D;
    let target = size.target();
    let ids = host_ids(size, cfg.seed);
    let edges = chord_scaffold::expected_edges(&target, &ids);
    let mut rt = chord_scaffold::runtime_with_net(target, &ids, edges, cfg, model);
    let av = overlay::Avatar::new(size.n, ids.iter().copied());
    let min = *ids.iter().min().expect("at least one host");
    for &v in &ids {
        let r = av.range_of(v);
        let neighbors: Vec<NodeId> = rt.topology().neighbors(v).to_vec();
        rt.corrupt_node(v, |p| {
            p.core.cbt.core.cid = CID;
            p.core.cbt.core.range = (r.lo, r.hi);
            p.core.cbt.core.cluster_min = min;
            p.core.install_done(&neighbors);
            for &u in &neighbors {
                let ru = av.range_of(u);
                p.core.cbt.view.record(
                    u,
                    0,
                    avatar_cbt::Beacon {
                        cid: CID,
                        range: (ru.lo, ru.hi),
                        cluster_min: min,
                        role: None,
                        epoch: 0,
                    },
                );
            }
        });
    }
    rt
}

/// What a workload needs from a host program: the protocol's engine
/// traits, plus a way to reach the plain program inside and to move a
/// runtime between the plain and the timed representation.
pub trait Host: Program<Msg = ScafMsg> + Router + Persist + Sized + 'static {
    fn plain(&self) -> &Plain;

    /// Turn a freshly built plain runtime into a runtime of this host type
    /// that continues identically.
    fn adopt(rt: Runtime<Plain>) -> Runtime<Self>;

    /// Restore a runtime of this host type from snapshot bytes.
    fn restore(bytes: &[u8], cfg: Config) -> Result<Runtime<Self>, SnapshotError>;
}

impl Host for Plain {
    fn plain(&self) -> &Plain {
        self
    }
    fn adopt(rt: Runtime<Plain>) -> Runtime<Self> {
        rt
    }
    fn restore(bytes: &[u8], cfg: Config) -> Result<Runtime<Self>, SnapshotError> {
        chord_scaffold::restore_runtime(bytes, cfg)
    }
}

impl Host for Timed<Plain> {
    fn plain(&self) -> &Plain {
        &self.0
    }

    /// Through a snapshot: `Timed<P>` serializes exactly like `P`, and a
    /// restored runtime continues byte-identically. The plain runtime stays
    /// behind as the donor of join programs, so joiners boot exactly as
    /// the library's own spawner boots them.
    fn adopt(rt: Runtime<Plain>) -> Runtime<Self> {
        let mut timed = Runtime::<Self>::restore_snapshot(&rt.save_snapshot(), rt.config())
            .expect("a snapshot just taken restores");
        let mut donor = rt;
        timed.set_spawner(move |v| {
            // A host that departed from the timed runtime may come back;
            // the donor still has it.
            donor.leave(v);
            donor.join_spawned(v, &[]);
            Timed(donor.leave(v).expect("just joined"))
        });
        timed
    }

    fn restore(bytes: &[u8], cfg: Config) -> Result<Runtime<Self>, SnapshotError> {
        Runtime::<Self>::restore_snapshot(bytes, cfg)
    }
}

/// The global legality predicate of Avatar(Chord), for either host type.
pub fn is_legal<H: Host>(rt: &Runtime<H>, target: &ChordTarget) -> bool {
    chord_scaffold::is_legal(target, rt.topology(), rt.programs().map(|(_, p)| p.plain()))
}

/// Hash of the serialized `RunMetrics` — every simulated statistic of a
/// run in one number, which a speed-only change must leave identical.
pub fn sim_digest<P: Program>(rt: &Runtime<P>) -> u64 {
    ssim::snapshot::content_hash(metrics_json(rt).as_bytes())
}

pub fn metrics_json<P: Program>(rt: &Runtime<P>) -> String {
    serde_json::to_string(rt.metrics()).expect("metrics serialize")
}

#[cfg(test)]
mod tests {
    use super::*;

    const TOY: Size = Size { n: 64, hosts: 8 };

    #[test]
    fn installed_fixture_is_legal_and_silent() {
        let mut rt = legal_chord(TOY, config(3, 1), NetModel::ideal());
        assert!(is_legal(&rt, &TOY.target()));
        assert!(chord_scaffold::runtime_is_legal(&rt));
        rt.run(64);
        assert_eq!(rt.metrics().total_messages, 0);
        assert!(is_legal(&rt, &TOY.target()));
    }

    #[test]
    fn timed_runtime_serializes_like_the_plain_one() {
        let build = || {
            let mut rt = chord_scaffold::runtime_from_shape(
                TOY.target(),
                TOY.hosts,
                ssim::init::Shape::Random,
                config(5, 1),
            );
            rt.run(40);
            rt
        };
        let plain = build();
        let mut timed = Timed::<Plain>::adopt(build());
        assert_eq!(plain.save_snapshot(), timed.save_snapshot());
        // ... and keeps doing so as both advance, joins included.
        let mut plain = plain;
        for _ in 0..2 {
            let joiner = (0..TOY.n)
                .find(|&v| !plain.topology().contains(v))
                .expect("a free id");
            plain.join_spawned(joiner, &[plain.ids()[0]]);
            timed.join_spawned(joiner, &[timed.ids()[0]]);
            plain.run(30);
            timed.run(30);
            assert_eq!(plain.save_snapshot(), timed.save_snapshot());
        }
        assert!(crate::trace::Calls::now().step_calls > 0);
    }

    #[test]
    fn sub_seeds_differ() {
        let a: Vec<u64> = (0..4).map(|i| sub_seed(7, i)).collect();
        let b: Vec<u64> = (0..4).map(|i| sub_seed(8, i)).collect();
        let mut all = [a.clone(), b].concat();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 8);
        assert_eq!(a, (0..4).map(|i| sub_seed(7, i)).collect::<Vec<_>>());
    }
}
