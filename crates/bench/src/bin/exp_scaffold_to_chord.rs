//! E5 — Lemma 3: from the correct Avatar(CBT) scaffold, the Chord target is
//! built in `O(log² N)` rounds (`log N` PIF waves of `O(log N)` rounds each,
//! plus the clean-detection epoch and the DONE handshake).

use scaffold_bench::{f2, legal_cbt_runtime, log2_sq, mean_std, Table};

fn main() {
    let args = scaffold_bench::ExpArgs::from_env();
    let seeds: u64 = args.count.unwrap_or(5);
    let mut t = Table::new(&[
        "N",
        "hosts",
        "rounds(mean)",
        "rounds/log²N",
        "waves",
        "peak_deg",
        "final_deg",
    ]);
    for n in [64u32, 128, 256, 512, 1024, 2048] {
        let hosts = (n / 8) as usize;
        let waves = (n as f64).log2() as u32;
        let mut rounds = Vec::new();
        let mut peaks = Vec::new();
        let mut finals = Vec::new();
        for s in 0..seeds {
            let mut rt = legal_cbt_runtime(n, hosts, 5000 + s);
            let r = rt
                .run_monitored(
                    &mut chord_scaffold::legality(),
                    scaffold_bench::budget(n, hosts),
                )
                .rounds_if_satisfied()
                .expect("scaffold→chord must converge");
            rounds.push(r as f64);
            peaks.push(rt.metrics().peak_degree as f64);
            finals.push(rt.topology().max_degree() as f64);
        }
        let (rm, _) = mean_std(&rounds);
        let (pm, _) = mean_std(&peaks);
        let (fm, _) = mean_std(&finals);
        t.row(vec![
            n.to_string(),
            hosts.to_string(),
            f2(rm),
            f2(rm / log2_sq(n)),
            waves.to_string(),
            f2(pm),
            f2(fm),
        ]);
    }
    t.emit(
        &args,
        "E5: scaffold→Chord build time from legal Avatar(CBT) (Lemma 3)",
    );
}
