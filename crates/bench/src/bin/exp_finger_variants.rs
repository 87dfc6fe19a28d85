//! Ablation — Definition 1 vs Algorithm 1 finger counts.
//!
//! The paper's Definition 1 bounds fingers by `k < log N − 1` while
//! Algorithm 1 runs `log N` waves. This ablation builds both variants and
//! compares build time, final degree, and routing quality: the missing top
//! finger halves the longest jump, costing about one extra routing hop in
//! exchange for a slightly cheaper build.

use overlay::routing::hop_statistics;
use overlay::Chord;
use scaffold_bench::{f2, legal_cbt_runtime, mean_std, Table};

fn build_rounds(n: u32, hosts: usize, paper_variant: bool, seeds: u64) -> (f64, f64) {
    let mut rounds = Vec::new();
    let mut finals = Vec::new();
    for s in 0..seeds {
        let mut rt = legal_cbt_runtime(n, hosts, 11_000 + s);
        if paper_variant {
            // Swap the target on every host before anything runs.
            let ids: Vec<u32> = rt.ids().to_vec();
            for &v in &ids {
                rt.corrupt_node(v, |p| {
                    p.core.target = chord_scaffold::ChordTarget::paper(n);
                });
            }
        }
        let target = if paper_variant {
            chord_scaffold::ChordTarget::paper(n)
        } else {
            chord_scaffold::ChordTarget::classic(n)
        };
        let r = rt
            .run_monitored(
                &mut chord_scaffold::legality_for(target),
                scaffold_bench::budget(n, hosts),
            )
            .rounds_if_satisfied()
            .expect("variant must converge");
        rounds.push(r as f64);
        finals.push(rt.topology().max_degree() as f64);
    }
    (mean_std(&rounds).0, mean_std(&finals).0)
}

fn main() {
    let args = scaffold_bench::ExpArgs::from_env();
    let seeds: u64 = args.count.unwrap_or(3);
    let mut t = Table::new(&[
        "N",
        "variant",
        "fingers",
        "build rounds",
        "final max deg",
        "route mean",
        "route max",
    ]);
    for n in [64u32, 256, 1024] {
        let hosts = (n / 8) as usize;
        for paper_variant in [false, true] {
            let c = if paper_variant {
                Chord::paper(n)
            } else {
                Chord::classic(n)
            };
            let (rounds, deg) = build_rounds(n, hosts, paper_variant, seeds);
            let (mean_hops, max_hops) = hop_statistics(&c, None);
            t.row(vec![
                n.to_string(),
                if paper_variant {
                    "paper(Def.1)"
                } else {
                    "classic"
                }
                .into(),
                c.finger_count().to_string(),
                f2(rounds),
                f2(deg),
                f2(mean_hops),
                max_hops.to_string(),
            ]);
        }
    }
    t.emit(
        &args,
        "Ablation: Definition 1 (log N − 1 fingers) vs Algorithm 1 (log N fingers)",
    );
    if !args.json {
        println!("\nExpected shape: one fewer wave ⇒ slightly faster build and lower degree,");
        println!("one extra routing hop on average (longest jump halves).");
    }
}
