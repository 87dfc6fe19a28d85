//! Stabilization under WAN network conditions ([`ssim::net`]): latency,
//! jitter, loss, and duplication exercise the scaffold's beacon-freshness
//! logic with *real* staleness, and partitions + churn force
//! re-stabilization after the network is spliced back together.

use chord_scaffold::{legality, runtime, runtime_is_legal, runtime_with_net, ChordTarget};
use ssim::monitor::RunVerdict;
use ssim::{Config, NetModel};

/// Convergence budget in rounds under delivery bound `delta` — the epoch
/// length scales with `Δ`, so the budget must too.
fn budget(n: u32, hosts: usize, delta: u64) -> u64 {
    let e = avatar_cbt::Schedule::new(n).with_delta(delta).epoch_len();
    let logn = (usize::BITS - hosts.leading_zeros()) as u64;
    e * (6 * logn + 12)
}

fn ring_ids() -> Vec<u32> {
    vec![1, 9, 17, 25, 33, 41, 49, 57]
}

#[test]
fn eight_hosts_stabilize_under_lossy_wan() {
    let model = NetModel::wan();
    let delta = model.delivery_bound();
    let t = ChordTarget::classic(64);
    let ids = ring_ids();
    let edges = ssim::init::ring(&ids);
    let mut rt = runtime_with_net(t, &ids, edges, Config::seeded(31), model);
    let out = rt.run_monitored(legality(), 6 * budget(64, 8, delta));
    assert_eq!(out.verdict, RunVerdict::Satisfied, "lossy WAN stalls");
    let net = rt.net_stats();
    assert!(net.conserved(), "{net:?}");
    assert!(net.dropped_loss > 0, "the WAN preset must actually drop");
}

#[test]
fn partition_with_churn_heals_back_to_legal() {
    let t = ChordTarget::classic(64);
    let ids = ring_ids();
    let edges = ssim::init::ring(&ids);
    let mut rt = runtime(t, &ids, edges, Config::seeded(32));
    let out = rt.run_monitored(legality(), budget(64, 8, 1));
    assert_eq!(out.verdict, RunVerdict::Satisfied, "ideal convergence");

    // Cut the converged overlay in half and churn both sides while the
    // cut is up: a partition alone never breaks legality (edges are node
    // state and stay untouched), but departures during the cut force the
    // survivors to rebuild across a boundary they cannot talk over.
    rt.partition([1u32, 9, 17, 25]);
    rt.leave(9);
    rt.leave(41);
    for _ in 0..20 {
        rt.step();
    }
    assert!(rt.partitioned());
    assert!(
        !runtime_is_legal(&rt),
        "churn during the cut must leave the overlay illegal"
    );
    rt.heal();
    let out = rt.run_monitored(legality(), 4 * budget(64, 8, 1));
    assert_eq!(out.verdict, RunVerdict::Satisfied, "no re-stabilization");
    let net = rt.net_stats();
    assert!(net.conserved(), "{net:?}");
    assert!(
        net.dropped_partition > 0,
        "the cut must have dropped traffic"
    );
}

/// Regression: a restored WAN runtime spawns joiners with the restored
/// model's budgets, like the constructed hosts — not ideal-network ones
/// (which livelock their detectors on latency-induced staleness).
#[test]
fn restored_wan_runtime_spawns_joiners_with_wan_budgets() {
    let t = ChordTarget::classic(64);
    let ids = ring_ids();
    let edges = ssim::init::ring(&ids);
    let mut rt = runtime_with_net(t, &ids, edges, Config::seeded(33), NetModel::wan());
    rt.run(5);
    let mut back =
        chord_scaffold::restore_runtime::<ChordTarget>(&rt.save_snapshot(), Config::seeded(33))
            .expect("own snapshot restores");
    back.join_spawned(5, &[1]);
    let (host, joiner) = (&back.program(1).core.cbt, &back.program(5).core.cbt);
    assert_eq!(joiner.sched.delta(), NetModel::wan().delivery_bound());
    assert_eq!(joiner.sched.delta(), host.sched.delta());
    assert_eq!(joiner.fault_patience, host.fault_patience);
    assert_eq!(joiner.zip_redundancy, host.zip_redundancy);
    assert_eq!(joiner.zip_redundancy, 2, "the wan preset is lossy");
}
