//! E16 — stabilization and serving quality under WAN network conditions
//! (`ssim::net`): a loss% × latency sweep over from-scratch Avatar(Chord)
//! stabilization with live lookup traffic racing it.
//!
//! Each cell runs the full protocol stack under one [`ssim::NetModel`]:
//! hosts start as singleton clusters on a random-id ring, an open-loop
//! lookup workload flows from round 0 (requests ride a reliable control
//! channel that shares the model's latency — see `ssim::workload`), and
//! the run is driven until the overlay reaches the legal, silent
//! configuration. Reported per cell:
//!
//! * **rounds** — stabilization rounds under the model (the paper's
//!   headline metric, now as a function of channel quality). Latency
//!   stretches every stage window by the delivery bound `Δ = 1 + delay +
//!   jitter`; loss adds detector patience and retransmission of the
//!   merge/wave-critical messages, and costs extra resets when both
//!   copies of a critical message die.
//! * **lookup SLOs** — success%, mean and max round-trip latency of the
//!   lookups issued *during* stabilization (the user-visible cost of a
//!   degraded network while the overlay is still healing).
//! * **channel accounting** — sent / lost / duplicated message counts
//!   from [`ssim::NetStats`]; the binary asserts the conservation law
//!   `sent + duplicated == delivered + dropped + in_transit` on every
//!   cell before emitting.
//!
//! Every column is simulation-deterministic (no wall-clock cells), so the
//! committed `BENCH_engine.json` rows gate exact — any drift in protocol
//! behavior under WAN conditions fails CI by name.
//!
//! Usage: `exp_net [seed] [--json] [--smoke]`.

use scaffold_bench::{budget, f2, Table};
use ssim::{Config, NetModel, OpenLoop, WorkloadConfig};

fn main() {
    let args = scaffold_bench::ExpArgs::from_env();
    let seed = args.count.unwrap_or(16);
    let smoke = args.flag("smoke");

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
                per_link: false,
                dup: if loss > 0.0 { 0.005 } else { 0.0 },
                bandwidth: 0,
            };
            let delta = model.delivery_bound();
            let target = chord_scaffold::ChordTarget::classic(n);
            let mut cfg = Config::seeded(seed);
            cfg.record_rounds = false;
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
            let mut rt = chord_scaffold::runtime_with_net(target, &ids, edges, cfg, model);
            let wl = WorkloadConfig {
                ttl: WorkloadConfig::default().ttl * delta,
                ..WorkloadConfig::default()
            };
            rt.attach_workload(OpenLoop::new(2.0, n), wl);
            let out = rt.run_monitored(
                &mut chord_scaffold::legality(),
                8 * delta * budget(n, hosts),
            );
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
        &args,
        "E16: stabilization rounds and lookup SLOs under WAN conditions (loss x latency)",
    );
    if !args.json {
        println!("\nExpected shape: rounds grow with the delivery bound (every stage window");
        println!("stretches by delta) and degrade gracefully with loss — retransmission of");
        println!("merge/wave-critical messages keeps the reset rate near the ideal-channel");
        println!("one at 2% loss. Lookup latency scales with delta while success stays high;");
        println!("the conservation law is asserted on every cell.");
    }
}
