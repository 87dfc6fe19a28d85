//! E6 — Lemma 4: during a "false CHORD" phase (nodes incorrectly believing
//! they are building Chord from a scaffold), the degree of any node at most
//! doubles before it reverts to the CBT algorithm.
//!
//! Construction: legal Avatar(CBT) topology with hosts adversarially set to
//! a *plausible-looking* CHORD state (consistent wave counters), so waves
//! actually fire and add edges before detection. We measure the maximum
//! per-node degree-growth factor up to the round every node is back in CBT.

use chord_scaffold::Phase;
use scaffold_bench::{f2, legal_cbt_runtime, mean_std, Table};
use std::collections::HashMap;

fn main() {
    let args = scaffold_bench::ExpArgs::from_env();
    let seeds: u64 = args.count.unwrap_or(10);
    let mut t = Table::new(&[
        "N",
        "hosts",
        "max_growth(mean)",
        "max_growth(worst)",
        "bound",
    ]);
    for n in [64u32, 128, 256, 512, 1024] {
        let hosts = (n / 8) as usize;
        let mut factors = Vec::new();
        let mut worst: f64 = 0.0;
        for s in 0..seeds {
            let mut rt = legal_cbt_runtime(n, hosts, 6000 + s);
            let ids: Vec<u32> = rt.ids().to_vec();
            // Plausible false-CHORD: every host believes the same wave is in
            // progress (k = 1 everywhere), so the predicate holds just long
            // enough for one wave's worth of links.
            for &v in &ids {
                rt.corrupt_node(v, |p| {
                    p.core.phase = Phase::Chord;
                    p.core.last_wave = 1;
                });
            }
            let initial: HashMap<u32, usize> =
                ids.iter().map(|&v| (v, rt.topology().degree(v))).collect();
            let mut max_factor: f64 = 1.0;
            for _ in 0..10 * (2 * ((n as f64).log2() as u64 + 1)) {
                rt.step();
                for &v in &ids {
                    let d0 = initial[&v].max(1);
                    let f = rt.topology().degree(v) as f64 / d0 as f64;
                    max_factor = max_factor.max(f);
                }
                if rt.programs().all(|(_, p)| p.core.phase == Phase::Cbt) {
                    break;
                }
            }
            factors.push(max_factor);
            worst = worst.max(max_factor);
        }
        let (m, _) = mean_std(&factors);
        t.row(vec![
            n.to_string(),
            hosts.to_string(),
            f2(m),
            f2(worst),
            "2.00".to_string(),
        ]);
    }
    t.emit(
        &args,
        "E6: degree growth during a false-CHORD phase (Lemma 4; bound 2×)",
    );
}
