//! IoT-style churn scenario — with *real* membership churn. A stabilized
//! Avatar(Chord) overlay absorbs hosts joining, leaving gracefully, and
//! crashing mid-run (the node set genuinely grows and shrinks), plus edge
//! rewires and state corruption, all declared as one `Scenario` and driven
//! to the legality goal. This is the paper's motivating deployment:
//! "overlay networks operate in fragile environments where faults that
//! perturb the logical network topology are commonplace."
//!
//! ```text
//! cargo run --release --example churn_recovery
//! ```

use chord_scaffolding::chord::{self, ChordTarget};
use chord_scaffolding::sim::fault::Fault;
use chord_scaffolding::sim::scenario::Scenario;
use chord_scaffolding::sim::{init::Shape, Config};

fn main() {
    let n_guests = 128;
    let hosts = 16;
    let target = ChordTarget::classic(n_guests);

    let mut rt = chord::runtime_from_shape(target, hosts, Shape::Star, Config::seeded(9));
    let out = rt.run_monitored(chord::legality(), 200_000);
    println!(
        "initial stabilization: {} rounds over {} hosts",
        out.rounds,
        rt.ids().len()
    );
    assert!(out.rounds_if_satisfied().is_some(), "initial stabilization");

    // Fresh guest identifiers for the joiners: not hosted yet.
    let taken: std::collections::HashSet<u32> = rt.ids().iter().copied().collect();
    let mut fresh = (0..n_guests).filter(|v| !taken.contains(v));
    let (a, b, c) = (
        fresh.next().unwrap(),
        fresh.next().unwrap(),
        fresh.next().unwrap(),
    );
    let anchor = rt.ids()[0];
    let victim = rt.ids()[hosts / 2];

    // One epoch of breathing room between perturbation episodes.
    let gap = chord_scaffolding::scaffold::Schedule::new(n_guests).epoch_len();
    let scenario = Scenario::new("iot-churn")
        .seeded(2024)
        // Episode 1: two hosts join, one attached to a named anchor.
        .join(0, a, &[anchor])
        .fault(gap, Fault::Join { id: b, attach: 2 })
        // Episode 2: a named host leaves; a random one crashes.
        .leave(2 * gap, victim)
        .fault(
            3 * gap,
            Fault::Crash {
                id: None,
                keep_connected: true,
            },
        )
        // Episode 3: classic transient faults on top of the churn. The
        // state corruption goes through the structured adversary library
        // (targeted, detectable identity corruption) instead of an ad-hoc
        // mutation closure: the anchor starts lying about its cluster.
        .fault(4 * gap, Fault::Rewire { count: 2 });
    let scenario = chord_scaffolding::sim::Adversary::LyingBeacons { victims: 1 }
        .schedule(scenario, &[anchor], 4 * gap, 2024)
        // Episode 4: one more join at the end, for good measure.
        .fault(5 * gap, Fault::Join { id: c, attach: 2 });

    let nodes_before = rt.ids().len();
    let report = scenario.run(&mut rt, chord::legality(), 200_000);

    for e in &report.events {
        println!("round {:>4}: {} ({} changes)", e.round, e.event, e.changes);
    }
    println!(
        "verdict: {:?} after {} rounds (re-converged at {:?})",
        report.verdict, report.rounds, report.satisfied_at
    );
    println!(
        "hosts: {} -> {} ({} joins, {} leaves, {} crashes); peak degree {}",
        nodes_before,
        report.nodes_final,
        report.joins,
        report.leaves,
        report.crashes,
        report.peak_degree
    );
    assert!(
        report.converged(),
        "overlay must heal from membership churn"
    );
    assert_eq!(report.nodes_final, nodes_before + 3 - 2);
    assert!(chord::runtime_is_legal(&rt));
    println!("report: {}", report.to_json());
    println!("✓ survived all churn episodes (node set changed mid-run)");
}
