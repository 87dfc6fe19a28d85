//! E2 — Theorem 2/5: Avatar(Chord) converges in `O(log² N)` expected rounds
//! from arbitrary connected configurations.

use scaffold_bench::{f2, log2_sq, mean_std, measure_chord, Table};
use ssim::init::Shape;

fn main() {
    let args = scaffold_bench::ExpArgs::from_env();
    let seeds: u64 = args.count.unwrap_or(5);
    let mut t = Table::new(&[
        "N",
        "hosts",
        "rounds(mean)",
        "rounds(std)",
        "rounds/log²N",
        "peak_deg",
        "final_deg",
    ]);
    for n in [64u32, 128, 256, 512, 1024, 2048] {
        let hosts = (n / 8) as usize;
        let mut rounds = Vec::new();
        let mut peaks = Vec::new();
        let mut finals = Vec::new();
        for s in 0..seeds {
            let o = measure_chord(n, hosts, Shape::Random, 2000 + s);
            match o.rounds {
                Some(r) => rounds.push(r as f64),
                None => eprintln!("warn: N={n} seed={s} did not converge in budget"),
            }
            peaks.push(o.peak_degree as f64);
            finals.push(o.final_degree as f64);
        }
        let (rm, rs) = mean_std(&rounds);
        let (pm, _) = mean_std(&peaks);
        let (fm, _) = mean_std(&finals);
        t.row(vec![
            n.to_string(),
            hosts.to_string(),
            f2(rm),
            f2(rs),
            f2(rm / log2_sq(n)),
            f2(pm),
            f2(fm),
        ]);
    }
    t.emit(
        &args,
        "E2: Avatar(Chord) convergence vs N (Theorem 2/5; expect flat rounds/log²N)",
    );
}
