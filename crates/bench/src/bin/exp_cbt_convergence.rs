//! E1 — Theorem 1/4: Avatar(CBT) converges in `O(log² N)` expected rounds.
//!
//! Sweeps `N` with `n = N/8` hosts starting from random connected graphs and
//! reports mean rounds over seeds, normalized by `log² N`. The paper's claim
//! holds if the normalized column is roughly flat (up to the epoch constant).

use scaffold_bench::{f2, log2_sq, mean_std, measure_cbt, Table};
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
        "expansion",
    ]);
    for n in [64u32, 128, 256, 512, 1024, 2048] {
        let hosts = (n / 8) as usize;
        let mut rounds = Vec::new();
        let mut peaks = Vec::new();
        let mut exps = Vec::new();
        for s in 0..seeds {
            let o = measure_cbt(n, hosts, Shape::Random, 1000 + s);
            match o.rounds {
                Some(r) => rounds.push(r as f64),
                None => eprintln!("warn: N={n} seed={s} did not converge in budget"),
            }
            peaks.push(o.peak_degree as f64);
            exps.push(o.expansion);
        }
        let (rm, rs) = mean_std(&rounds);
        let (pm, _) = mean_std(&peaks);
        let (em, _) = mean_std(&exps);
        t.row(vec![
            n.to_string(),
            hosts.to_string(),
            f2(rm),
            f2(rs),
            f2(rm / log2_sq(n)),
            f2(pm),
            f2(em),
        ]);
    }
    t.emit(
        &args,
        "E1: Avatar(CBT) convergence vs N (Theorem 1/4; expect flat rounds/log²N)",
    );
}
