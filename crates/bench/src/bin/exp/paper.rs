//! The paper's tables (E1–E10 and the finger-count ablation) and the churn
//! sweep (E11). The paper is a theory paper — its results are theorems with
//! asymptotic bounds — so each row measures a bound's empirical shape. No
//! cell is timed; none is committed.

use crate::note;
use baselines::{chord_over_ids_target, linear_done, tcf_done, LinearProgram, TcfProgram};
use chord_scaffold::{ChordTarget, Phase, ScaffoldProgram};
use overlay::routing::hop_statistics;
use overlay::{Cbt, Chord};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use scaffold_bench::{
    budget, f2, legal_cbt_runtime, legal_chord_runtime, log2_sq, measure_cbt, measure_chord,
    measure_churn, seeded, stat_cell, survival_probability, ExpArgs, Outcome, Table,
};
use ssim::{init::Shape, Config, NodeId, OpenLoop, Runtime, Topology, WorkloadConfig};

/// Guest-space sizes of the `N` sweeps; every sweep runs `N/8` hosts.
const NS: [u32; 6] = [64, 128, 256, 512, 1024, 2048];

/// The mean of `xs` as a cell (`-` for no samples).
fn mean(xs: &[f64]) -> String {
    stat_cell(xs, |m, _| m)
}

/// Per-seed outcomes of one sweep point. A run that exhausts its budget
/// counts in `seeds` and in the degree samples, not in `rounds`.
#[derive(Default)]
struct Samples {
    seeds: u64,
    rounds: Vec<f64>,
    peaks: Vec<f64>,
    finals: Vec<f64>,
    exps: Vec<f64>,
}

/// Stabilize `seeds` runs from `shape`, seeded `base, base + 1, …`.
fn samples(
    measure: fn(u32, usize, Shape, u64) -> Outcome,
    n: u32,
    hosts: usize,
    shape: Shape,
    seeds: u64,
    base: u64,
) -> Samples {
    let mut s = Samples {
        seeds,
        ..Samples::default()
    };
    for seed in base..base + seeds {
        let o = measure(n, hosts, shape, seed);
        s.rounds.extend(o.rounds.map(|r| r as f64));
        s.peaks.push(o.peak_degree as f64);
        s.finals.push(o.final_degree as f64);
        s.exps.push(o.expansion);
    }
    s
}

impl Samples {
    /// Seeds that converged within budget, of all seeds run: `k/total`.
    fn converged(&self) -> String {
        format!("{}/{}", self.rounds.len(), self.seeds)
    }
}

/// One row per `N` of [`NS`] from random connected starts, over the
/// positional count of seeds (default 5) from `base`; `cells` renders the
/// columns after `N`, `hosts` and `converged`, which `headers` omits.
fn n_sweep(
    args: &ExpArgs,
    title: &str,
    headers: &[&str],
    measure: fn(u32, usize, Shape, u64) -> Outcome,
    base: u64,
    cells: impl Fn(u32, &Samples) -> Vec<String>,
) {
    let seeds = args.count.unwrap_or(5);
    let mut t = Table::new(&[&["N", "hosts", "converged"], headers].concat());
    for n in NS {
        let hosts = (n / 8) as usize;
        let s = samples(measure, n, hosts, Shape::Random, seeds, base);
        let mut row = vec![n.to_string(), hosts.to_string(), s.converged()];
        row.extend(cells(n, &s));
        t.row(row);
    }
    t.emit(args, title);
}

/// E1 — Theorem 1/4: Avatar(CBT) converges in `O(log² N)` expected rounds;
/// the claim holds if `rounds/log²N` is roughly flat.
pub fn cbt_convergence(args: &ExpArgs) {
    n_sweep(
        args,
        "E1: Avatar(CBT) convergence vs N (Theorem 1/4; expect flat rounds/log²N)",
        &[
            "rounds(mean)",
            "rounds(std)",
            "rounds/log²N",
            "peak_deg",
            "expansion",
        ],
        measure_cbt,
        1000,
        |n, s| {
            vec![
                mean(&s.rounds),
                stat_cell(&s.rounds, |_, sd| sd),
                stat_cell(&s.rounds, |m, _| m / log2_sq(n)),
                mean(&s.peaks),
                mean(&s.exps),
            ]
        },
    );
}

/// E2 — Theorem 2/5: Avatar(Chord) converges in `O(log² N)` expected rounds
/// from arbitrary connected configurations.
pub fn chord_convergence(args: &ExpArgs) {
    n_sweep(
        args,
        "E2: Avatar(Chord) convergence vs N (Theorem 2/5; expect flat rounds/log²N)",
        &[
            "rounds(mean)",
            "rounds(std)",
            "rounds/log²N",
            "peak_deg",
            "final_deg",
        ],
        measure_chord,
        2000,
        |n, s| {
            vec![
                mean(&s.rounds),
                stat_cell(&s.rounds, |_, sd| sd),
                stat_cell(&s.rounds, |m, _| m / log2_sq(n)),
                mean(&s.peaks),
                mean(&s.finals),
            ]
        },
    );
}

/// E3 — Theorem 3/7: degree expansion (peak degree during stabilization
/// over `max(initial, final)`) is `O(log² N)` in expectation.
pub fn degree_expansion(args: &ExpArgs) {
    n_sweep(
        args,
        "E3: degree expansion vs N (Theorem 3/7; expect sub-log²N growth)",
        &[
            "expansion(mean)",
            "expansion(std)",
            "expansion/log²N",
            "peak_deg",
        ],
        measure_chord,
        3000,
        |n, s| {
            vec![
                mean(&s.exps),
                stat_cell(&s.exps, |_, sd| sd),
                stat_cell(&s.exps, |m, _| m / log2_sq(n)),
                mean(&s.peaks),
            ]
        },
    );
}

/// E4 — Lemmas 1/2: from a configuration that is neither legal
/// Avatar(Chord) nor scaffolded — a legal Avatar(CBT) with every host in
/// `phase = CHORD` and *inconsistent* wave counters — every host executes
/// the CBT algorithm again within `2(log N + 1)` rounds.
pub fn phase_reset(args: &ExpArgs) {
    let seeds = args.count.unwrap_or(10);
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
        for s in 0..seeds {
            let mut rt = legal_cbt_runtime(n, hosts, 4000 + s);
            let ids: Vec<u32> = rt.ids().to_vec();
            for (i, &v) in ids.iter().enumerate() {
                rt.corrupt_node(v, |p| {
                    p.core.phase = Phase::Chord;
                    p.core.last_wave = ((i * 3) % 7) as i64; // inconsistent
                });
            }
            type Rt = Runtime<ScaffoldProgram<ChordTarget>>;
            let all_cbt = |r: &Rt| r.programs().all(|(_, p)| p.core.phase == Phase::Cbt);
            let reset = rt
                .run_monitored(all_cbt, 10 * bound + 50)
                .rounds_if_satisfied()
                .expect("phase must collapse to CBT");
            obs.push(reset);
        }
        let worst = obs.iter().copied().max().unwrap_or(0);
        let obs: Vec<f64> = obs.into_iter().map(|r| r as f64).collect();
        t.row(vec![
            n.to_string(),
            hosts.to_string(),
            mean(&obs),
            worst.to_string(),
            bound.to_string(),
        ]);
    }
    t.emit(
        args,
        "E4: rounds until all nodes execute CBT from a false-CHORD state (Lemma 1/2)",
    );
}

/// E5 — Lemma 3: from the correct Avatar(CBT) scaffold the Chord target is
/// built in `O(log² N)` rounds (`log N` PIF waves of `O(log N)` rounds
/// each, plus the clean-detection epoch and the DONE handshake).
pub fn scaffold_to_chord(args: &ExpArgs) {
    let seeds = args.count.unwrap_or(5);
    let mut t = Table::new(&[
        "N",
        "hosts",
        "rounds(mean)",
        "rounds/log²N",
        "waves",
        "peak_deg",
        "final_deg",
    ]);
    for n in NS {
        let hosts = (n / 8) as usize;
        let mut s = Samples::default();
        for seed in 5000..5000 + seeds {
            let mut rt = legal_cbt_runtime(n, hosts, seed);
            let r = rt
                .run_monitored(chord_scaffold::legality(), budget(n, hosts))
                .rounds_if_satisfied()
                .expect("scaffold→chord must converge");
            s.rounds.push(r as f64);
            s.peaks.push(rt.metrics().peak_degree as f64);
            s.finals.push(rt.topology().max_degree() as f64);
        }
        t.row(vec![
            n.to_string(),
            hosts.to_string(),
            mean(&s.rounds),
            stat_cell(&s.rounds, |m, _| m / log2_sq(n)),
            ((n as f64).log2() as u32).to_string(),
            mean(&s.peaks),
            mean(&s.finals),
        ]);
    }
    t.emit(
        args,
        "E5: scaffold→Chord build time from legal Avatar(CBT) (Lemma 3)",
    );
}

/// E6 — Lemma 4: during a "false CHORD" phase the degree of any node at
/// most doubles before it reverts to the CBT algorithm. The start is a
/// legal Avatar(CBT) topology with every host in a *plausible* CHORD state
/// (the same wave everywhere), so waves fire and add edges before
/// detection; the row reports the largest per-node degree-growth factor
/// up to the round every host is back in CBT.
pub fn false_chord(args: &ExpArgs) {
    let seeds = args.count.unwrap_or(10);
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
        for s in 0..seeds {
            let mut rt = legal_cbt_runtime(n, hosts, 6000 + s);
            let ids: Vec<u32> = rt.ids().to_vec();
            for &v in &ids {
                rt.corrupt_node(v, |p| {
                    p.core.phase = Phase::Chord;
                    p.core.last_wave = 1;
                });
            }
            let initial: Vec<usize> = ids
                .iter()
                .map(|&v| rt.topology().degree(v).max(1))
                .collect();
            let mut max_factor: f64 = 1.0;
            for _ in 0..10 * (2 * ((n as f64).log2() as u64 + 1)) {
                rt.step();
                for (&v, &d0) in ids.iter().zip(&initial) {
                    max_factor = max_factor.max(rt.topology().degree(v) as f64 / d0 as f64);
                }
                if rt.programs().all(|(_, p)| p.core.phase == Phase::Cbt) {
                    break;
                }
            }
            factors.push(max_factor);
        }
        let worst = factors.iter().copied().fold(0.0, f64::max);
        t.row(vec![
            n.to_string(),
            hosts.to_string(),
            mean(&factors),
            f2(worst),
            "2.00".to_string(),
        ]);
    }
    t.emit(
        args,
        "E6: degree growth during a false-CHORD phase (Lemma 4; bound 2×)",
    );
}

/// `(rounds to done, peak degree, messages)` of a baseline protocol run
/// from a sorted line of `hosts` odd ids.
fn run_baseline<P: ssim::Program>(
    hosts: usize,
    seed: u64,
    program: impl Fn() -> P,
    done: impl FnMut(&Runtime<P>) -> bool,
    max_rounds: u64,
) -> (Option<u64>, usize, u64) {
    let ids: Vec<NodeId> = (0..hosts as u32).map(|i| i * 2 + 1).collect();
    let edges = ssim::init::line(&ids);
    let mut cfg = Config::seeded(seed);
    cfg.record_rounds = false;
    let mut rt = Runtime::new(cfg, ids.iter().map(|&v| (v, program())), edges);
    let rounds = rt.run_monitored(done, max_rounds).rounds_if_satisfied();
    (
        rounds,
        rt.metrics().peak_degree,
        rt.metrics().total_messages,
    )
}

/// E7 — the related-work comparison (Sections 1, 4.1, 6): scaffolded
/// Avatar(Chord) vs the Transitive Closure Framework (clique space cost)
/// vs the Re-Chord-style linear scaffold (list time cost), all from a
/// sorted line.
pub fn baselines(args: &ExpArgs) {
    let mut t = Table::new(&["n", "algo", "rounds", "peak_deg", "messages"]);
    for hosts in [16usize, 32, 64, 128, 256] {
        let n_guests = (hosts as u32 * 8).next_power_of_two();
        let o = measure_chord(n_guests, hosts, Shape::Line, 7000 + hosts as u64);
        let target = chord_over_ids_target();
        let fingers = (usize::BITS - hosts.leading_zeros()).max(2);
        let runs = [
            ("scaffold", (o.rounds, o.peak_degree, o.messages)),
            (
                "tcf",
                run_baseline(
                    hosts,
                    7100 + hosts as u64,
                    || TcfProgram::new(target.clone()),
                    tcf_done(),
                    10_000,
                ),
            ),
            (
                "linear",
                run_baseline(
                    hosts,
                    7200 + hosts as u64,
                    || LinearProgram::new(fingers),
                    linear_done(),
                    64 * hosts as u64 + 1000,
                ),
            ),
        ];
        for (algo, (rounds, peak, messages)) in runs {
            t.row(vec![
                hosts.to_string(),
                algo.into(),
                rounds.map_or("timeout".into(), |r| r.to_string()),
                peak.to_string(),
                messages.to_string(),
            ]);
        }
    }
    t.emit(
        args,
        "E7: scaffolding vs TCF vs linear scaffold (rounds / peak degree / messages)",
    );
    note(
        args,
        &[
            "Expected shape: TCF peak degree = n−1 (linear in n); linear-scaffold",
            "rounds grow linearly in n; scaffolding stays polylogarithmic in both.",
        ],
    );
}

/// E8 — the robustness motivation (Section 1): any internal CBT node is a
/// cut vertex, while "the failure of a few nodes is insufficient to
/// disconnect" Chord. Survival probability under random node failures.
pub fn robustness(args: &ExpArgs) {
    let trials = args.count.unwrap_or(200) as usize;
    let mut rng = SmallRng::seed_from_u64(8);
    let mut t = Table::new(&["N", "failures", "P(survive) CBT", "P(survive) Chord"]);
    for n in [64u32, 256, 1024] {
        let cbt = Topology::new(0..n, Cbt::new(n).edges());
        let chord = Topology::new(0..n, Chord::classic(n).edges());
        for frac in [1usize, 2, 5, 10, 25] {
            let f = (n as usize * frac) / 100;
            if f == 0 {
                continue;
            }
            let pc = survival_probability(&cbt, f, trials, &mut rng);
            let ph = survival_probability(&chord, f, trials, &mut rng);
            t.row(vec![
                n.to_string(),
                format!("{f} ({frac}%)"),
                f2(pc),
                f2(ph),
            ]);
        }
    }
    t.emit(
        args,
        "E8: survival probability under random node failures (guest networks)",
    );
    note(
        args,
        &[
            "Expected shape: the tree disconnects with any internal failure;",
            "Chord survives large failure fractions with high probability.",
        ],
    );
}

/// E9 — the application payoff: greedy finger routing takes `O(log N)`
/// hops, and the legal configuration is *silent*. E9a routes real requests
/// hop by hop over the live host links with the protocol's own
/// [`ssim::workload::Router`], beside the `ideal_*` greedy walks on the
/// ideal `Chord(N)` finger table (hosts simulate contiguous guest ranges,
/// so host hops ≤ guest hops).
pub fn routing(args: &ExpArgs) {
    let mut t = Table::new(&[
        "N",
        "hosts",
        "lookups",
        "success%",
        "mean hops",
        "max hops",
        "ideal mean",
        "ideal max",
        "log2 N",
    ]);
    let mut rng = SmallRng::seed_from_u64(9);
    for n in [64u32, 256, 1024, 4096] {
        let hosts = (n / 8) as usize;
        const RATE: f64 = 16.0;
        const LOOKUPS: u64 = 2000;
        let mut rt = legal_chord_runtime(n, hosts, seeded(9), ssim::NetModel::ideal());
        let wl = WorkloadConfig::default();
        rt.attach_workload(OpenLoop::new(RATE, n).limited(LOOKUPS), wl);
        // Injection window plus a full TTL to drain the in-flight tail.
        rt.run(LOOKUPS / RATE as u64 + wl.ttl);
        let s = rt.request_stats();
        assert_eq!(s.in_flight, 0, "drained");
        let c = Chord::classic(n);
        let (ideal_mean, ideal_max) = if n <= 1024 {
            hop_statistics(&c, None)
        } else {
            hop_statistics(&c, Some((2000, &mut rng)))
        };
        t.row(vec![
            n.to_string(),
            hosts.to_string(),
            s.issued.to_string(),
            f2(100.0 * s.success_rate()),
            f2(s.mean_hops()),
            s.max_hops_seen().to_string(),
            f2(ideal_mean),
            ideal_max.to_string(),
            f2((n as f64).log2()),
        ]);
    }
    t.emit(
        args,
        "E9a: greedy routing hops — live routed requests vs ideal finger-table oracle",
    );

    let mut t = Table::new(&[
        "N",
        "hosts",
        "rounds_to_legal",
        "msgs after legal (100 rounds)",
    ]);
    for n in [64u32, 256] {
        let hosts = (n / 8) as usize;
        let target = ChordTarget::classic(n);
        let mut rt = chord_scaffold::runtime_from_shape(target, hosts, Shape::Random, seeded(9000));
        let rounds = rt
            .run_monitored(chord_scaffold::legality(), budget(n, hosts))
            .rounds_if_satisfied()
            .expect("E9b overlay stabilizes");
        rt.run(5); // drain in-flight traffic
        let before = rt.metrics().total_messages;
        rt.run(100);
        t.row(vec![
            n.to_string(),
            hosts.to_string(),
            rounds.to_string(),
            (rt.metrics().total_messages - before).to_string(),
        ]);
    }
    t.emit(
        args,
        "E9b: silence of the legal Avatar(Chord) configuration (expect 0 messages)",
    );
}

/// E10 — sensitivity to the initial configuration: self-stabilization
/// promises convergence from *any* weakly-connected start.
pub fn topologies(args: &ExpArgs) {
    let (n, hosts) = (256u32, 32usize);
    let seeds = args.count.unwrap_or(3);
    let mut t = Table::new(&[
        "shape",
        "converged",
        "rounds(mean)",
        "peak_deg(mean)",
        "expansion(mean)",
    ]);
    for shape in Shape::ALL {
        let s = samples(measure_chord, n, hosts, shape, seeds, 10_000);
        t.row(vec![
            shape.label().to_string(),
            s.converged(),
            mean(&s.rounds),
            mean(&s.peaks),
            mean(&s.exps),
        ]);
    }
    t.emit(
        args,
        &format!("E10: Avatar(Chord) stabilization across initial shapes (N={n}, n={hosts})"),
    );
}

/// E11 — membership churn: a stabilized Avatar(Chord) overlay absorbs
/// alternating joins, graceful leaves and crashes (one per scaffold epoch;
/// `N` is the episode count) and must re-converge to the legal
/// configuration of the *new* host set. Under `--json` the full
/// `ScenarioReport`s follow the table document, one per line. `--sched`
/// and `--net` may change a report — that is the point of sweeping them.
pub fn churn(args: &ExpArgs) {
    let episodes = args.count.unwrap_or(6) as usize;
    let mut t = Table::new(&[
        "N",
        "hosts",
        "episodes",
        "sched",
        "joins/leaves/crashes",
        "verdict",
        "rounds",
        "settled_at",
        "activations",
        "peak_deg",
        "nodes_final",
    ]);
    let mut reports = Vec::new();
    for n in [64u32, 128, 256, 512] {
        let hosts = (n / 8) as usize;
        let report = measure_churn(n, hosts, episodes, 12_000 + n as u64, args);
        t.row(vec![
            n.to_string(),
            hosts.to_string(),
            episodes.to_string(),
            report.scheduler.clone(),
            format!("{}/{}/{}", report.joins, report.leaves, report.crashes),
            format!("{:?}", report.verdict),
            report.rounds.to_string(),
            report.satisfied_at.map_or("-".into(), |r| r.to_string()),
            report.total_activations.to_string(),
            report.peak_degree.to_string(),
            report.nodes_final.to_string(),
        ]);
        reports.push(report);
    }
    t.emit(
        args,
        "E11: re-stabilization under true join/leave/crash churn (scenario-driven)",
    );
    if args.json {
        for r in &reports {
            println!("{}", r.to_json());
        }
    }
    note(
        args,
        &[
            "Expected shape: every row Satisfied; re-convergence after the last",
            "event within one stabilization budget; node counts differ from start.",
        ],
    );
}

/// Ablation — Definition 1 (`k < log N − 1` fingers) vs Algorithm 1
/// (`log N` waves): build rounds, final degree and routing quality of both
/// targets from a legal Avatar(CBT). The missing top finger halves the
/// longest jump — about one extra hop for a slightly cheaper build.
pub fn finger_variants(args: &ExpArgs) {
    let seeds = args.count.unwrap_or(3);
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
        for (variant, target, chord) in [
            ("classic", ChordTarget::classic(n), Chord::classic(n)),
            ("paper(Def.1)", ChordTarget::paper(n), Chord::paper(n)),
        ] {
            let mut s = Samples::default();
            for seed in 11_000..11_000 + seeds {
                let mut rt = legal_cbt_runtime(n, hosts, seed);
                // Swap the target on every host before anything runs.
                for v in rt.ids().to_vec() {
                    rt.corrupt_node(v, |p| p.core.target = target);
                }
                let r = rt
                    .run_monitored(chord_scaffold::legality_for(target), budget(n, hosts))
                    .rounds_if_satisfied()
                    .expect("variant must converge");
                s.rounds.push(r as f64);
                s.finals.push(rt.topology().max_degree() as f64);
            }
            let (mean_hops, max_hops) = hop_statistics(&chord, None);
            t.row(vec![
                n.to_string(),
                variant.into(),
                chord.finger_count().to_string(),
                mean(&s.rounds),
                mean(&s.finals),
                f2(mean_hops),
                max_hops.to_string(),
            ]);
        }
    }
    t.emit(
        args,
        "Ablation: Definition 1 (log N − 1 fingers) vs Algorithm 1 (log N fingers)",
    );
    note(
        args,
        &[
            "Expected shape: one fewer wave ⇒ slightly faster build and lower degree,",
            "one extra routing hop on average (longest jump halves).",
        ],
    );
}
