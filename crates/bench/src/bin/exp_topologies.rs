//! E10 — sensitivity to the initial configuration: self-stabilization
//! promises convergence from *any* weakly-connected start; this sweep
//! exercises the adversarial shape family.

use scaffold_bench::{f2, measure_chord, Table};
use ssim::init::Shape;

fn main() {
    let args = scaffold_bench::ExpArgs::from_env();
    let n = 256u32;
    let hosts = 32usize;
    let seeds = args.count.unwrap_or(3);
    let mut t = Table::new(&["shape", "rounds(mean)", "peak_deg(mean)", "expansion(mean)"]);
    for shape in Shape::ALL {
        let mut rounds = Vec::new();
        let mut peaks = Vec::new();
        let mut exps = Vec::new();
        for s in 0..seeds {
            let o = measure_chord(n, hosts, shape, 10_000 + s);
            if let Some(r) = o.rounds {
                rounds.push(r as f64);
            }
            peaks.push(o.peak_degree as f64);
            exps.push(o.expansion);
        }
        let (rm, _) = scaffold_bench::mean_std(&rounds);
        let (pm, _) = scaffold_bench::mean_std(&peaks);
        let (em, _) = scaffold_bench::mean_std(&exps);
        t.row(vec![shape.label().to_string(), f2(rm), f2(pm), f2(em)]);
    }
    t.emit(
        &args,
        &format!("E10: Avatar(Chord) stabilization across initial shapes (N={n}, n={hosts})"),
    );
}
