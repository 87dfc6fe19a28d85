//! The generalized network-scaffolding pattern (Section 6): plug a different
//! target topology into the same scaffold machinery. Here the truncated
//! Chord target (fewer finger levels — a lower-degree, higher-diameter
//! trade-off) is built with the identical protocol.
//!
//! ```text
//! cargo run --release --example scaffold_pattern
//! ```

use chord_scaffolding::chord::{self, legality_for, InductiveTarget, TruncatedChordTarget};
use chord_scaffolding::sim::{init, Config};
use rand::SeedableRng;

fn main() {
    let n_guests = 128u32;
    let hosts = 12usize;
    // Only 3 finger levels instead of log N = 7.
    let target = TruncatedChordTarget::new(n_guests, 3);
    println!(
        "building Avatar({}) with {} waves over {hosts} hosts…",
        target.name(),
        target.waves()
    );

    let mut rng = rand::rngs::SmallRng::seed_from_u64(5);
    let ids = init::random_ids(hosts, n_guests, &mut rng);
    let mut rt = chord::runtime(target, &ids, init::line(&ids), Config::seeded(31));

    let rounds = rt
        .run_monitored(legality_for(target), 200_000)
        .rounds_if_satisfied()
        .expect("pattern instance must stabilize");

    println!("✓ stabilized in {rounds} rounds");
    println!("  final max degree: {}", rt.topology().max_degree());
    println!("  final edges:      {}", rt.topology().edge_count());
    println!(
        "  (full Chord would need {} waves; the pattern reuses the same scaffold, \
         detector, and phase machinery)",
        (n_guests as f64).log2() as u32
    );
}
