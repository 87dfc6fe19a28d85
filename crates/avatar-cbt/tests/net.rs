//! Stabilization under WAN network conditions ([`ssim::net`]): latency and
//! jitter exercise the delivery-bound re-budgeting ([`Schedule::with_delta`]),
//! loss and duplication exercise the epoch-retry argument, and partitions +
//! churn force re-stabilization after the network is spliced back together.

use avatar_cbt::{legality, runtime, runtime_is_legal, runtime_with_net, Schedule};
use ssim::monitor::RunVerdict;
use ssim::{Config, NetModel};

/// Convergence budget in rounds for `hosts` hosts on guest capacity `n`
/// under delivery bound `delta` — the epoch length scales with `Δ`, so the
/// budget must too.
fn budget(n: u32, hosts: usize, delta: u64) -> u64 {
    let e = Schedule::new(n).with_delta(delta).epoch_len();
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
    let ids = ring_ids();
    let edges = ssim::init::ring(&ids);
    let mut rt = runtime_with_net(64, &ids, edges, Config::seeded(31), model);
    let out = rt.run_monitored(legality(), 6 * budget(64, 8, delta));
    assert_eq!(out.verdict, RunVerdict::Satisfied, "lossy WAN stalls");
    let net = rt.net_stats();
    assert!(net.conserved(), "{net:?}");
    assert!(net.dropped_loss > 0, "the WAN preset must actually drop");
}

#[test]
fn deterministic_latency_alone_stabilizes() {
    // Pure delay + jitter, zero loss: without the `Δ`-scaled schedule this
    // configuration stalls *forever* (every fixed window is missed every
    // epoch — deterministically, unlike loss which merely costs retries).
    let model = NetModel {
        delay: 2,
        jitter: 1,
        ..NetModel::ideal()
    };
    let delta = model.delivery_bound();
    let ids = ring_ids();
    let edges = ssim::init::ring(&ids);
    let mut rt = runtime_with_net(64, &ids, edges, Config::seeded(33), model);
    let out = rt.run_monitored(legality(), 4 * budget(64, 8, delta));
    assert_eq!(out.verdict, RunVerdict::Satisfied, "latency stalls");
    assert!(rt.net_stats().conserved());
}

#[test]
fn partition_with_churn_heals_back_to_legal() {
    let ids = ring_ids();
    let edges = ssim::init::ring(&ids);
    let mut rt = runtime(64, &ids, edges, Config::seeded(32));
    let out = rt.run_monitored(legality(), budget(64, 8, 1));
    assert_eq!(out.verdict, RunVerdict::Satisfied, "ideal convergence");

    // Cut the converged overlay in half and churn both sides while the
    // cut is up: a partition alone never breaks legality (edges are node
    // state and stay untouched), but departures during the cut force the
    // survivors to rebuild across a boundary they cannot talk over.
    // (17 and 33 are safe departures: the legal topology keeps direct
    // 9–25 and 25–41 edges, so the survivor graph stays connected —
    // self-stabilization cannot reconnect a disconnected graph.)
    rt.partition([1u32, 9, 17, 25]);
    rt.leave(17);
    rt.leave(33);
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
    let ids = ring_ids();
    let edges = ssim::init::ring(&ids);
    let mut rt = runtime_with_net(64, &ids, edges, Config::seeded(33), NetModel::wan());
    rt.run(5);
    let mut back = avatar_cbt::restore_runtime(&rt.save_snapshot(), Config::seeded(33))
        .expect("own snapshot restores");
    back.join_spawned(5, &[1]);
    let (host, joiner) = (&back.program(1).core, &back.program(5).core);
    assert_eq!(joiner.sched.delta(), NetModel::wan().delivery_bound());
    assert_eq!(joiner.sched.delta(), host.sched.delta());
    assert_eq!(joiner.fault_patience, host.fault_patience);
    assert_eq!(joiner.zip_redundancy, host.zip_redundancy);
    assert_eq!(joiner.zip_redundancy, 2, "the wan preset is lossy");
}

/// Arbitrary state is the model: a host whose own range is corrupted to
/// reach past `N` beacons that range for up to `Δ` rounds (the detector's
/// WAN patience) before its `BadRange` reset. Its neighbors must judge the
/// lie — never decompose it — and the overlay must re-legalize. Host 45
/// (`[45, 49)`) is the liar's host-tree parent without being its
/// predecessor, which is where the two-sided adjacency test used to
/// decompose the neighbor's range.
#[test]
fn beaconed_range_past_n_is_survived_under_latency() {
    let model = NetModel {
        delay: 2,
        ..NetModel::ideal()
    };
    let delta = model.delivery_bound();
    let ids = vec![1, 20, 41, 45, 49, 50];
    let edges = ssim::init::ring(&ids);
    let mut rt = runtime_with_net(64, &ids, edges, Config::seeded(35), model);
    for &v in &ids {
        // Keep the legal network awake: a dormant host inspects nothing.
        rt.corrupt_node(v, |p| p.core.sleep_on_clean = false);
    }
    let out = rt.run_monitored(legality(), 4 * budget(64, 6, delta));
    assert_eq!(out.verdict, RunVerdict::Satisfied);
    rt.run(Schedule::new(64).with_delta(delta).epoch_len());
    rt.corrupt_node(50, |p| p.core.core.range.1 = 70);
    let out = rt.run_monitored(legality(), 4 * budget(64, 6, delta));
    assert_eq!(out.verdict, RunVerdict::Satisfied);
    assert!(rt.program(50).core.resets > 0, "the liar reset itself");
}
