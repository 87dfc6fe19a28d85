//! E4 — Lemmas 1/2: from a configuration that is neither legal
//! Avatar(Chord) nor a scaffolded Chord configuration, every node is
//! executing the CBT algorithm within `2(log N + 1)` rounds.
//!
//! Construction: a legal Avatar(CBT) with every host adversarially placed in
//! `phase = CHORD` with *inconsistent* wave counters. The `scaffolded`
//! predicate must fail and the phase must collapse to CBT everywhere within
//! the lemma's bound.

use chord_scaffold::Phase;
use scaffold_bench::{f2, legal_cbt_runtime, mean_std, Table};

fn main() {
    let args = scaffold_bench::ExpArgs::from_env();
    let seeds: u64 = args.count.unwrap_or(10);
    let mut t = Table::new(&[
        "N",
        "hosts",
        "reset_rounds(mean)",
        "reset_rounds(max)",
        "bound 2(logN+1)",
    ]);
    for n in [64u32, 128, 256, 512, 1024] {
        let hosts = (n / 8) as usize;
        let bound = 2 * ((n as f64).log2() as u64 + 1);
        let mut obs = Vec::new();
        let mut worst = 0u64;
        for s in 0..seeds {
            let mut rt = legal_cbt_runtime(n, hosts, 4000 + s);
            // Adversarial "false CHORD": wave counters scattered far apart.
            let ids: Vec<u32> = rt.ids().to_vec();
            for (i, &v) in ids.iter().enumerate() {
                rt.corrupt_node(v, |p| {
                    p.core.phase = Phase::Chord;
                    p.core.last_wave = ((i * 3) % 7) as i64; // inconsistent
                });
            }
            type Rt = ssim::Runtime<chord_scaffold::ScaffoldProgram<chord_scaffold::ChordTarget>>;
            let reset = rt
                .run_monitored(
                    &mut ssim::monitor::goal("all-cbt", |r: &Rt| {
                        r.programs().all(|(_, p)| p.core.phase == Phase::Cbt)
                    }),
                    10 * bound + 50,
                )
                .rounds_if_satisfied()
                .expect("phase must collapse to CBT");
            obs.push(reset as f64);
            worst = worst.max(reset);
        }
        let (m, _) = mean_std(&obs);
        t.row(vec![
            n.to_string(),
            hosts.to_string(),
            f2(m),
            worst.to_string(),
            bound.to_string(),
        ]);
    }
    t.emit(
        &args,
        "E4: rounds until all nodes execute CBT from a false-CHORD state (Lemma 1/2)",
    );
}
