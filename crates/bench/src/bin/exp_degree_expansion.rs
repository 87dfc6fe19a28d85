//! E3 — Theorem 3/7: degree expansion is `O(log² N)` in expectation.
//!
//! Tracks the peak degree during full Avatar(Chord) stabilization relative
//! to `max(initial, final)` degree, normalized by `log² N`.

use scaffold_bench::{f2, log2_sq, mean_std, measure_chord, Table};
use ssim::init::Shape;

fn main() {
    let args = scaffold_bench::ExpArgs::from_env();
    let seeds: u64 = args.count.unwrap_or(5);
    let mut t = Table::new(&[
        "N",
        "hosts",
        "expansion(mean)",
        "expansion(std)",
        "expansion/log²N",
        "peak_deg",
    ]);
    for n in [64u32, 128, 256, 512, 1024, 2048] {
        let hosts = (n / 8) as usize;
        let mut exps = Vec::new();
        let mut peaks = Vec::new();
        for s in 0..seeds {
            let o = measure_chord(n, hosts, Shape::Random, 3000 + s);
            exps.push(o.expansion);
            peaks.push(o.peak_degree as f64);
        }
        let (em, es) = mean_std(&exps);
        let (pm, _) = mean_std(&peaks);
        t.row(vec![
            n.to_string(),
            hosts.to_string(),
            f2(em),
            f2(es),
            f2(em / log2_sq(n)),
            f2(pm),
        ]);
    }
    t.emit(
        &args,
        "E3: degree expansion vs N (Theorem 3/7; expect sub-log²N growth)",
    );
}
