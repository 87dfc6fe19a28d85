//! E7 — the related-work comparison (Sections 1, 4.1, 6): scaffolded
//! Avatar(Chord) vs the Transitive Closure Framework (clique space cost) vs
//! the Re-Chord-style linear scaffold (list time cost).
//!
//! All three build a Chord-family overlay over the same node count starting
//! from a sorted line. Expected shape: TCF wins on rounds but its peak
//! degree is `n − 1`; the linear scaffold keeps degree low but needs `Θ(n)`
//! rounds; scaffolding is polylogarithmic in both.

use baselines::{chord_over_ids_target, LinearProgram, TcfProgram};
use scaffold_bench::{measure_chord, Table};
use ssim::{init::Shape, Config, NodeId, Runtime};

fn run_tcf(hosts: usize, seed: u64) -> (Option<u64>, usize, u64) {
    let ids: Vec<NodeId> = (0..hosts as u32).map(|i| i * 2 + 1).collect();
    let edges = ssim::init::line(&ids);
    let target = chord_over_ids_target();
    let nodes = ids.iter().map(|&v| (v, TcfProgram::new(target.clone())));
    let mut cfg = Config::seeded(seed);
    cfg.record_rounds = false;
    let mut rt = Runtime::new(cfg, nodes, edges);
    let rounds = rt
        .run_monitored(&mut baselines::tcf_done(), 10_000)
        .rounds_if_satisfied();
    (
        rounds,
        rt.metrics().peak_degree,
        rt.metrics().total_messages,
    )
}

fn run_linear(hosts: usize, seed: u64) -> (Option<u64>, usize, u64) {
    let ids: Vec<NodeId> = (0..hosts as u32).map(|i| i * 2 + 1).collect();
    let edges = ssim::init::line(&ids);
    let fingers = (usize::BITS - hosts.leading_zeros()).max(2);
    let nodes = ids.iter().map(|&v| (v, LinearProgram::new(fingers)));
    let mut cfg = Config::seeded(seed);
    cfg.record_rounds = false;
    let mut rt = Runtime::new(cfg, nodes, edges);
    let rounds = rt
        .run_monitored(&mut baselines::linear_done(), 64 * hosts as u64 + 1000)
        .rounds_if_satisfied();
    (
        rounds,
        rt.metrics().peak_degree,
        rt.metrics().total_messages,
    )
}

fn main() {
    let args = scaffold_bench::ExpArgs::from_env();
    let mut t = Table::new(&["n", "algo", "rounds", "peak_deg", "messages"]);
    for hosts in [16usize, 32, 64, 128, 256] {
        let n_guests = (hosts as u32 * 8).next_power_of_two();
        let o = measure_chord(n_guests, hosts, Shape::Line, 7000 + hosts as u64);
        t.row(vec![
            hosts.to_string(),
            "scaffold".into(),
            o.rounds.map_or("timeout".into(), |r| r.to_string()),
            o.peak_degree.to_string(),
            o.messages.to_string(),
        ]);
        let (r, d, m) = run_tcf(hosts, 7100 + hosts as u64);
        t.row(vec![
            hosts.to_string(),
            "tcf".into(),
            r.map_or("timeout".into(), |r| r.to_string()),
            d.to_string(),
            m.to_string(),
        ]);
        let (r, d, m) = run_linear(hosts, 7200 + hosts as u64);
        t.row(vec![
            hosts.to_string(),
            "linear".into(),
            r.map_or("timeout".into(), |r| r.to_string()),
            d.to_string(),
            m.to_string(),
        ]);
    }
    t.emit(
        &args,
        "E7: scaffolding vs TCF vs linear scaffold (rounds / peak degree / messages)",
    );
    if !args.json {
        println!("\nExpected shape: TCF peak degree = n−1 (linear in n); linear-scaffold");
        println!("rounds grow linearly in n; scaffolding stays polylogarithmic in both.");
    }
}
