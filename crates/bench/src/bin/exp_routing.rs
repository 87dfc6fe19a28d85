//! E9 — the application payoff: greedy finger routing takes `O(log N)`
//! hops, and the legal configuration is *silent*.
//!
//! Since the live-traffic subsystem ([`ssim::workload`]) landed, E9a
//! measures routing **on the live overlay**: lookups are injected as real
//! requests and forwarded hop-by-hop over the host links the engine
//! maintains, by the protocol's own [`ssim::workload::Router`] (greedy
//! guest-space routing over beacon views). The old static-oracle numbers —
//! greedy walks on the *ideal* `Chord(N)` finger table — are kept as
//! labeled `ideal_*` columns for comparison: live host-level hops should
//! track the ideal guest-level bound (hosts simulate contiguous guest
//! ranges, so host hops ≤ guest hops).

use overlay::routing::hop_statistics;
use overlay::Chord;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use scaffold_bench::{f2, legal_chord_runtime, measure_chord, seeded, Table};
use ssim::{init::Shape, OpenLoop, WorkloadConfig};

fn main() {
    let args = scaffold_bench::ExpArgs::from_env();

    // E9a: live routed lookups vs the ideal finger-table oracle.
    let mut t = Table::new(&[
        "N",
        "hosts",
        "lookups",
        "success%",
        "mean hops",
        "max hops",
        "ideal mean",
        "ideal max",
        "log2 N",
    ]);
    let mut rng = SmallRng::seed_from_u64(9);
    for n in [64u32, 256, 1024, 4096] {
        let hosts = (n / 8) as usize;
        // Live: a converged Avatar(Chord) serving real routed requests.
        const RATE: f64 = 16.0;
        let mut rt = legal_chord_runtime(n, hosts, seeded(9), ssim::NetModel::ideal());
        let lookups = 2000u64;
        rt.attach_workload(
            OpenLoop::new(RATE, n).limited(lookups),
            WorkloadConfig::default(),
        );
        // Injection window plus a full TTL to drain the in-flight tail.
        rt.run(lookups / RATE as u64 + WorkloadConfig::default().ttl);
        let s = rt.request_stats();
        assert_eq!(s.in_flight, 0, "drained");
        // Ideal: greedy walks on the Chord(N) finger table (the old E9a).
        let c = Chord::classic(n);
        let (ideal_mean, ideal_max) = if n <= 1024 {
            hop_statistics(&c, None)
        } else {
            hop_statistics(&c, Some((2000, &mut rng)))
        };
        t.row(vec![
            n.to_string(),
            hosts.to_string(),
            s.issued.to_string(),
            f2(100.0 * s.success_rate()),
            f2(s.mean_hops()),
            s.max_hops_seen().to_string(),
            f2(ideal_mean),
            ideal_max.to_string(),
            f2((n as f64).log2()),
        ]);
    }
    t.emit(
        &args,
        "E9a: greedy routing hops — live routed requests vs ideal finger-table oracle",
    );

    // Silence of the stabilized network.
    let mut t = Table::new(&[
        "N",
        "hosts",
        "rounds_to_legal",
        "msgs after legal (100 rounds)",
    ]);
    for n in [64u32, 256] {
        let hosts = (n / 8) as usize;
        let o = measure_chord(n, hosts, Shape::Random, 9000);
        // Re-run to capture the silent tail.
        let target = chord_scaffold::ChordTarget::classic(n);
        let mut rt = chord_scaffold::runtime_from_shape(target, hosts, Shape::Random, seeded(9000));
        rt.run_monitored(
            &mut chord_scaffold::legality(),
            scaffold_bench::budget(n, hosts),
        )
        .rounds_if_satisfied()
        .unwrap();
        for _ in 0..5 {
            rt.step(); // drain in-flight traffic
        }
        let before = rt.metrics().total_messages;
        for _ in 0..100 {
            rt.step();
        }
        let silent_msgs = rt.metrics().total_messages - before;
        t.row(vec![
            n.to_string(),
            hosts.to_string(),
            o.rounds.map_or("timeout".into(), |r| r.to_string()),
            silent_msgs.to_string(),
        ]);
    }
    t.emit(
        &args,
        "E9b: silence of the legal Avatar(Chord) configuration (expect 0 messages)",
    );
}
