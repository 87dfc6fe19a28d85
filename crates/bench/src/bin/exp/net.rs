//! E16 — stabilization and serving quality under WAN network conditions
//! (`ssim::net`): a loss × latency sweep over from-scratch Avatar(Chord)
//! stabilization with live lookup traffic racing it.

use crate::note;
use scaffold_bench::{budget, f2, seeded, ExpArgs, Table};
use ssim::{NetModel, OpenLoop, WorkloadConfig};

/// E16 (seed = `N`, default 16; `--smoke` for the committed sizes). Each
/// cell runs the full protocol stack under one [`ssim::NetModel`]: hosts
/// start as singleton clusters on a ring, open-loop lookups flow from
/// round 0, and the run is driven to the legal, silent configuration.
/// Reported per cell: stabilization rounds (latency stretches every stage
/// window by the delivery bound `Δ = 1 + delay + jitter`; loss adds
/// detector patience, retransmission of merge/wave-critical messages, and
/// extra resets when both copies die), the lookup SLOs of the requests
/// issued while the overlay heals, and the channel accounting of
/// [`ssim::NetStats`], whose conservation law is asserted on every cell.
pub fn net(args: &ExpArgs) {
    let seed = args.count.unwrap_or(16);
    let smoke = args.smoke;

    let (hosts, n): (usize, u32) = if smoke { (8, 64) } else { (16, 128) };
    // latency × loss grid: (delay, jitter) sweeps the delivery bound,
    // loss sweeps channel quality (the wan preset sits at (1,2) / 2%).
    let latencies: &[(u64, u64)] = if smoke {
        &[(0, 0), (1, 2)]
    } else {
        &[(0, 0), (1, 2), (2, 3)]
    };
    let losses: &[f64] = &[0.0, 0.02, 0.05];

    let mut t = Table::new(&[
        "net",
        "delta",
        "loss%",
        "hosts",
        "N",
        "rounds",
        "issued",
        "completed",
        "success%",
        "mean_lat",
        "max_lat",
        "sent",
        "lost",
        "dup",
    ]);
    for &(delay, jitter) in latencies {
        for &loss in losses {
            let model = NetModel {
                delay,
                jitter,
                loss,
                dup: if loss > 0.0 { 0.005 } else { 0.0 },
            };
            let delta = model.delivery_bound();
            let target = chord_scaffold::ChordTarget::classic(n);
            // Evenly spaced host placement: the sweep isolates *channel*
            // effects, so every cell shares one balanced embedding.
            // (Random placement adds its own variance axis: uneven
            // ranges mean longer zipper walks, and walk messages cannot
            // be retransmitted — each copy forwards — so clustered ids
            // stretch WAN convergence by placement, not by channel.)
            let ids: Vec<u32> = (0..hosts as u32)
                .map(|i| i * (n / hosts as u32) + 1)
                .collect();
            let edges = ssim::init::ring(&ids);
            let mut rt = chord_scaffold::runtime_with_net(target, &ids, edges, seeded(seed), model);
            let wl = WorkloadConfig {
                ttl: WorkloadConfig::default().ttl * delta,
                ..WorkloadConfig::default()
            };
            rt.attach_workload(OpenLoop::new(2.0, n), wl);
            let out = rt.run_monitored(chord_scaffold::legality(), 8 * delta * budget(n, hosts));
            let s = rt.request_stats().clone();
            let net = rt.net_stats();
            assert!(
                net.conserved(),
                "E16 conservation law violated at {}: {net:?}",
                ssim::net::to_spec(&model)
            );
            t.row(vec![
                ssim::net::to_spec(&model),
                delta.to_string(),
                f2(100.0 * loss),
                hosts.to_string(),
                n.to_string(),
                out.rounds_if_satisfied()
                    .map_or("-".into(), |r| r.to_string()),
                s.issued.to_string(),
                s.completed.to_string(),
                f2(100.0 * s.success_rate()),
                f2(s.mean_latency()),
                s.max_latency_seen().to_string(),
                net.sent.to_string(),
                net.dropped_loss.to_string(),
                net.duplicated.to_string(),
            ]);
        }
    }
    t.emit(
        args,
        "E16: stabilization rounds and lookup SLOs under WAN conditions (loss x latency)",
    );
    note(
        args,
        &[
            "Expected shape: rounds grow with the delivery bound (every stage window",
            "stretches by delta) and degrade gracefully with loss — retransmission of",
            "merge/wave-critical messages keeps the reset rate near the ideal-channel",
            "one at 2% loss. Lookup latency scales with delta while success stays high;",
            "the conservation law is asserted on every cell.",
        ],
    );
}
