//! Quickstart: build a self-stabilizing Avatar(Chord) network from an
//! arbitrary connected start and watch it converge.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use chord_scaffolding::chord::{self, ChordTarget, Phase};
use chord_scaffolding::sim::{init::Shape, Config};

fn main() {
    let n_guests = 256; // guest capacity N (power of two)
    let hosts = 24; // real nodes n ≤ N
    let target = ChordTarget::classic(n_guests);

    println!("Building Avatar(Chord({n_guests})) over {hosts} hosts from a random start…");
    let mut rt = chord::runtime_from_shape(target, hosts, Shape::Random, Config::seeded(42));

    let budget = 200_000;
    let rounds = rt
        .run_monitored(chord::legality(), budget)
        .rounds_if_satisfied()
        .expect("self-stabilization within budget");

    println!("✓ stabilized in {rounds} rounds");
    println!("  hosts:            {:?}", rt.ids());
    println!("  final edges:      {}", rt.topology().edge_count());
    println!("  final max degree: {}", rt.topology().max_degree());
    println!("  peak degree:      {}", rt.metrics().peak_degree);
    println!(
        "  degree expansion: {:.2}",
        rt.metrics().degree_expansion(rt.topology().max_degree())
    );
    println!("  total messages:   {}", rt.metrics().total_messages);

    // The legal network is silent: phases are DONE and nothing is sent.
    let before = rt.metrics().total_messages;
    for _ in 0..50 {
        rt.step();
    }
    let all_done = rt.programs().all(|(_, p)| p.core.phase == Phase::Done);
    let quiet = rt.metrics().total_messages == before;
    println!("  silent:           {all_done} (0 messages over 50 extra rounds: {quiet})");
    assert!(all_done && quiet, "the legal network must be silent");
}
