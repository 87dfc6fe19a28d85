//! E8 — the robustness motivation (Section 1): the paper targets Chord
//! because "the failure of a few nodes is insufficient to disconnect the
//! network", unlike the CBT scaffold where any internal tree node is a cut
//! vertex. Measures survival probability under random node failures.

use overlay::{Cbt, Chord, Graph};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use scaffold_bench::{f2, Table};

fn main() {
    let args = scaffold_bench::ExpArgs::from_env();
    let trials = args.count.unwrap_or(200) as usize;
    let mut rng = SmallRng::seed_from_u64(8);
    let mut t = Table::new(&["N", "failures", "P(survive) CBT", "P(survive) Chord"]);
    for n in [64u32, 256, 1024] {
        let cbt = Graph::new(0..n, Cbt::new(n).edges());
        let chord = Graph::new(0..n, Chord::classic(n).edges());
        for frac in [1usize, 2, 5, 10, 25] {
            let f = (n as usize * frac) / 100;
            if f == 0 {
                continue;
            }
            let pc = cbt.survival_probability(f, trials, &mut rng);
            let ph = chord.survival_probability(f, trials, &mut rng);
            t.row(vec![
                n.to_string(),
                format!("{f} ({frac}%)"),
                f2(pc),
                f2(ph),
            ]);
        }
    }
    t.emit(
        &args,
        "E8: survival probability under random node failures (guest networks)",
    );
    if !args.json {
        println!("\nExpected shape: the tree disconnects with any internal failure;");
        println!("Chord survives large failure fractions with high probability.");
    }
}
