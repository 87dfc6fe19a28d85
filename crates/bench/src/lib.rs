//! # scaffold-bench — the experiment harness
//!
//! Regenerates every table/figure-equivalent of the paper (the experiment
//! list is in this crate's README). The paper is a theory paper — its
//! "results" are theorems with asymptotic bounds — so each experiment
//! measures the bound's empirical shape: convergence rounds and degree
//! expansion against `log² N`, the phase-reset and false-Chord lemmas, and
//! the related-work comparisons against TCF and the linear scaffold.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod check;

use avatar_cbt::CbtCore;
use chord_scaffold::{ChordTarget, ScaffoldProgram};
use rand::seq::SliceRandom;
use rand::Rng;
use serde::Serialize;
use ssim::scenario::{Scenario, ScenarioReport};
use ssim::{fault::Fault, init::Shape, Config, NetModel, NodeId, Program, Runtime};

/// Outcome of one stabilization run.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Rounds to the legal configuration (None = budget exhausted).
    pub rounds: Option<u64>,
    /// Maximum degree observed during convergence.
    pub peak_degree: usize,
    /// Maximum degree of the final configuration.
    pub final_degree: usize,
    /// Degree expansion (Section 2.2).
    pub expansion: f64,
    /// Total messages sent.
    pub messages: u64,
}

/// Round budget for a stabilization run: generous multiple of E·log n.
pub fn budget(n_guests: u32, hosts: usize) -> u64 {
    let e = avatar_cbt::Schedule::new(n_guests).epoch_len();
    let logn = (usize::BITS - hosts.leading_zeros()) as u64;
    e * (8 * logn + 16)
}

/// `log2(N)²` — the paper's bound shape, for normalized columns.
pub fn log2_sq(n: u32) -> f64 {
    let l = (n as f64).log2();
    l * l
}

/// `Config::seeded(seed)` without per-round metric rows — what every
/// harness fixture runs under unless a sweep tunes the config itself.
pub fn seeded(seed: u64) -> Config {
    let mut cfg = Config::seeded(seed);
    cfg.record_rounds = false;
    cfg
}

/// Run the full Avatar(Chord) stabilization from a shaped initial topology.
pub fn measure_chord(n_guests: u32, hosts: usize, shape: Shape, seed: u64) -> Outcome {
    let target = ChordTarget::classic(n_guests);
    let mut rt = chord_scaffold::runtime_from_shape(target, hosts, shape, seeded(seed));
    let rounds = rt
        .run_monitored(chord_scaffold::legality(), budget(n_guests, hosts))
        .rounds_if_satisfied();
    outcome_of(rounds, &rt)
}

/// Run only the Avatar(CBT) scaffold stabilization.
pub fn measure_cbt(n_guests: u32, hosts: usize, shape: Shape, seed: u64) -> Outcome {
    let mut rt = avatar_cbt::runtime_from_shape(n_guests, hosts, shape, seeded(seed));
    let rounds = rt
        .run_monitored(avatar_cbt::legality(), budget(n_guests, hosts))
        .rounds_if_satisfied();
    outcome_of(rounds, &rt)
}

/// Stabilize an Avatar(Chord) overlay, then subject it to `episodes` rounds
/// of true membership churn — alternating joins of fresh hosts, graceful
/// leaves, and crashes, one event per scaffold epoch — and measure the
/// re-convergence through the scenario driver. Honors the shared experiment
/// options `--sched` (the daemon — which may legitimately change the
/// report: that is the point of sweeping it) and `--net`.
pub fn measure_churn(
    n_guests: u32,
    hosts: usize,
    episodes: usize,
    seed: u64,
    args: &ExpArgs,
) -> ScenarioReport {
    let target = ChordTarget::classic(n_guests);
    let cfg = seeded(seed);
    // `--net` runs the whole measurement under WAN conditions; every
    // stage window below is re-budgeted for the model's delivery bound
    // (with the default ideal network this is exactly the classic run).
    let model = args.net;
    let delta = model.delivery_bound();
    let (ids, mut rng) = ssim::init::place_hosts(hosts, n_guests, cfg.seed);
    let edges = Shape::Random.edges(&ids, &mut rng);
    let mut rt = chord_scaffold::runtime_with_net(target, &ids, edges, cfg, model);
    args.apply_sched(&mut rt, seed);
    // Linear `Δ` scaling is not enough headroom off the ideal channel:
    // loss resets and jitter-stretched stages compound, so non-ideal
    // models get the same 8x budget the E16 sweep grants (identity on
    // the default ideal model).
    let headroom = if model.is_ideal() { 1 } else { 8 };
    let baseline = rt.run_monitored(
        chord_scaffold::legality(),
        headroom * delta * budget(n_guests, hosts),
    );
    assert!(
        baseline.rounds_if_satisfied().is_some(),
        "measure_churn: baseline overlay (N={n_guests}, n={hosts}, seed={seed}) \
         failed to stabilize within budget — churn measurement would be meaningless"
    );

    // Fresh identifiers for joiners: smallest guest ids not already hosting.
    let taken: std::collections::HashSet<NodeId> = rt.ids().iter().copied().collect();
    let mut fresh = (0..n_guests).filter(|v| !taken.contains(v));

    let gap = avatar_cbt::Schedule::new(n_guests)
        .with_delta(delta)
        .epoch_len();
    let mut scenario = Scenario::new(format!("churn-n{n_guests}-h{hosts}")).seeded(seed);
    for e in 0..episodes {
        let round = gap * e as u64;
        scenario = match e % 3 {
            0 => {
                let id = fresh.next().expect("guest space exhausted");
                scenario.fault(round, Fault::Join { id, attach: 2 })
            }
            1 => scenario.fault(
                round,
                Fault::Leave {
                    id: None,
                    keep_connected: true,
                },
            ),
            _ => scenario.fault(
                round,
                Fault::Crash {
                    id: None,
                    keep_connected: true,
                },
            ),
        };
    }
    let max_rounds = gap * episodes as u64 + delta * budget(n_guests, hosts);
    scenario.run(&mut rt, chord_scaffold::legality(), max_rounds)
}

/// Guest space of the small-scope census.
pub const CENSUS_N: u32 = 32;

/// The protocol a census start runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CensusProtocol {
    /// The full Avatar(Chord) protocol ([`chord_scaffold::runtime`]).
    Chord,
    /// The standalone Avatar(CBT) core ([`avatar_cbt::legal::runtime`]).
    Cbt,
}

/// One census cell: every start of one protocol at one host count.
#[derive(Debug, Clone, Default)]
pub struct Census {
    /// Starts run: connected labelled graphs × placements.
    pub starts: u64,
    /// Starts legal within [`budget`].
    pub converged: u64,
    /// Starts with at least one detector reset on the way.
    pub reset_starts: u64,
    /// Detector resets, by the epoch offset of the round they fired in.
    pub resets_at: std::collections::BTreeMap<u64, u64>,
    /// Rounds to legality of every converged start.
    pub rounds: Vec<f64>,
    /// Largest degree any start reached on the way.
    pub peak_degree: usize,
    /// Largest degree of any start's final configuration.
    pub final_degree: usize,
}

impl Census {
    /// Detector resets over all starts.
    pub fn resets(&self) -> u64 {
        self.resets_at.values().sum()
    }
}

/// The small-scope census (the small-scope hypothesis: a protocol bug
/// shows on some small start): run every connected labelled graph on `k`
/// hosts, under each of two seeded placements in `N = 32` (placement seed
/// `1000 + p`, [`seeded`]`(p)`, `p ∈ {0, 1}`), to legality under the
/// synchronous daemon within [`budget`]. Resets are read off the CBT
/// cores' `resets` statistic after every round — the counter the reset
/// path bumps when it raises [`avatar_cbt::StepEvents::reset`] — so a
/// reset is attributed to the epoch offset of the round it fired in.
pub fn census(k: usize, protocol: CensusProtocol) -> Census {
    let pairs: Vec<(usize, usize)> = (0..k)
        .flat_map(|i| (i + 1..k).map(move |j| (i, j)))
        .collect();
    let sched = avatar_cbt::Schedule::new(CENSUS_N);
    let budget = budget(CENSUS_N, k);
    let mut out = Census::default();
    for p in 0..2 {
        let (ids, _) = ssim::init::place_hosts(k, CENSUS_N, 1000 + p);
        for mask in 0u64..1 << pairs.len() {
            let edges: Vec<(NodeId, NodeId)> = (pairs.iter().enumerate())
                .filter(|&(bit, _)| mask >> bit & 1 == 1)
                .map(|(_, &(i, j))| (ids[i], ids[j]))
                .collect();
            if !ssim::Topology::new(ids.iter().copied(), edges.clone()).is_connected() {
                continue;
            }
            let (cfg, mut seen) = (seeded(p), 0);
            let tally = |round: u64, resets: u64| {
                if resets > seen {
                    *out.resets_at.entry(sched.locate(round - 1).1).or_default() += resets - seen;
                    seen = resets;
                }
            };
            let o = match protocol {
                CensusProtocol::Chord => run_counting_resets(
                    chord_scaffold::runtime(ChordTarget::classic(CENSUS_N), &ids, edges, cfg),
                    chord_scaffold::legality(),
                    |p| p.core.cbt.resets,
                    budget,
                    tally,
                ),
                CensusProtocol::Cbt => run_counting_resets(
                    avatar_cbt::legal::runtime(CENSUS_N, &ids, edges, cfg),
                    avatar_cbt::legality(),
                    |p| p.core.resets,
                    budget,
                    tally,
                ),
            };
            out.starts += 1;
            out.converged += u64::from(o.rounds.is_some());
            out.reset_starts += u64::from(seen > 0);
            out.rounds.extend(o.rounds.map(|r| r as f64));
            out.peak_degree = out.peak_degree.max(o.peak_degree);
            out.final_degree = out.final_degree.max(o.final_degree);
        }
    }
    out
}

/// Run `rt` to `legal` within `budget`, handing `tally` the round and the
/// hosts' summed `resets_of` after every round.
fn run_counting_resets<P: Program>(
    mut rt: Runtime<P>,
    mut legal: impl FnMut(&Runtime<P>) -> bool,
    resets_of: impl Fn(&P) -> u64,
    budget: u64,
    mut tally: impl FnMut(u64, u64),
) -> Outcome {
    let run = rt.run_monitored(
        |rt| {
            tally(rt.round(), rt.programs().map(|(_, p)| resets_of(p)).sum());
            legal(rt)
        },
        budget,
    );
    outcome_of(run.rounds_if_satisfied(), &rt)
}

fn outcome_of<P: Program>(rounds: Option<u64>, rt: &Runtime<P>) -> Outcome {
    let final_degree = rt.topology().max_degree();
    Outcome {
        rounds,
        peak_degree: rt.metrics().peak_degree,
        final_degree,
        expansion: rt.metrics().degree_expansion(final_degree),
        messages: rt.metrics().total_messages,
    }
}

/// Overwrite every host's cluster state with the legal single-cluster
/// Avatar(CBT) state — one cluster id, the correct responsible range, the
/// cluster minimum — and, when `warm_views`, record for each neighbor the
/// beacon a real round 0 would carry. `cbt_of(program, neighbors)` reaches
/// the CBT core inside a host program (and may install whatever else the
/// fixture wants settled on the way).
///
/// Why warm the views: the detector demands *fresh* same-cluster beacons
/// covering every crossing edge, and at round 0 no beacon has flowed yet —
/// without them every standalone host fires MissingCover and the "legal"
/// network resets itself to singletons on the spot; request routing and the
/// DONE-phase stale-tolerant lookups read them too. The installed beacons
/// describe exactly the state real round-0 beacons will carry, so the
/// warm-up is indistinguishable from having run one round earlier.
fn install_legal_cbt_state<P: Program>(
    rt: &mut Runtime<P>,
    n_guests: u32,
    warm_views: bool,
    mut cbt_of: impl for<'a> FnMut(&'a mut P, &[NodeId]) -> &'a mut CbtCore,
) {
    const CID: u64 = 0xFEED_F00D;
    let ids = rt.ids().to_vec();
    let av = overlay::Avatar::new(n_guests, ids.iter().copied());
    let min = *ids.iter().min().expect("at least one host");
    for &v in &ids {
        let r = av.range_of(v);
        let neighbors: Vec<NodeId> = rt.topology().neighbors(v).to_vec();
        rt.corrupt_node(v, |p| {
            let cbt = cbt_of(p, &neighbors);
            cbt.core.cid = CID;
            cbt.core.range = (r.lo, r.hi);
            cbt.core.cluster_min = min;
            if !warm_views {
                return;
            }
            for &u in &neighbors {
                let ru = av.range_of(u);
                let beacon = avatar_cbt::Beacon {
                    cid: CID,
                    range: (ru.lo, ru.hi),
                    cluster_min: min,
                    role: None,
                    epoch: 0,
                };
                cbt.view.record(u, 0, beacon);
            }
        });
    }
}

/// Build a runtime already in the legal Avatar(CBT) configuration with every
/// host's cluster state installed (the starting point of Lemma 3 /
/// experiment E5). Beacon views stay cold: the E5–E7 tables are measured
/// from exactly this state and move if round-0 views are pre-warmed.
pub fn legal_cbt_runtime(
    n_guests: u32,
    hosts: usize,
    seed: u64,
) -> Runtime<ScaffoldProgram<ChordTarget>> {
    let target = ChordTarget::classic(n_guests);
    let (ids, _) = ssim::init::place_hosts(hosts, n_guests, seed);
    let edges = avatar_cbt::legal::expected_edges(n_guests, &ids);
    let mut rt = chord_scaffold::runtime(target, &ids, edges, seeded(seed));
    install_legal_cbt_state(&mut rt, n_guests, false, |p, _| &mut p.core.cbt);
    rt
}

/// Build a **standalone** Avatar(CBT) runtime already in the legal
/// configuration: single cluster, correct responsible ranges, exactly the
/// legal edge set. The E12d post-convergence fixture — from-scratch
/// stabilization at 10k hosts takes minutes (an E2 run stabilized 16,384
/// hosts in 558 s on a 2-vCPU VM, at 20.3–25.1 rounds per log² N from 64
/// hosts up; E12c measures time-to-legality at feasible sizes), while the
/// post-convergence *window* E12d measures only needs a converged network,
/// however obtained. The first epochs still run
/// the real machinery: the root observes the clean feedback wave and the
/// quiesce wave puts the network to sleep exactly as in a natural run.
pub fn legal_cbt_standalone(
    n_guests: u32,
    hosts: usize,
    seed: u64,
) -> Runtime<avatar_cbt::CbtProgram> {
    let (ids, _) = ssim::init::place_hosts(hosts, n_guests, seed);
    let edges = avatar_cbt::legal::expected_edges(n_guests, &ids);
    let mut rt = avatar_cbt::legal::runtime(n_guests, &ids, edges, seeded(seed));
    install_legal_cbt_state(&mut rt, n_guests, true, |p, _| &mut p.core);
    debug_assert!(avatar_cbt::runtime_is_legal(&rt));
    rt
}

/// Build a runtime already in the **legal, silent Avatar(Chord)**
/// configuration: the exact expected edge set (scaffold + projected
/// fingers), every host settled in the DONE phase with the final wave
/// completed, correct responsible ranges, and warmed beacon views. Hosts
/// (and any mid-run joiners) carry window budgets matched to `model`'s
/// delivery bound, exactly as [`chord_scaffold::runtime_with_net`] hosts do.
/// The install uses `cfg.seed` for host placement, so identical arguments
/// give identical fixtures.
///
/// The live-traffic fixture: from-scratch Avatar(Chord) stabilization at
/// 512+ hosts takes minutes-to-hours, but serving-quality experiments
/// (`exp workload`) only need *a* converged network, however obtained —
/// the installed state is indistinguishable from a naturally converged one
/// (the shadow check audits that every host's step really is a no-op).
/// The build is linear in the hosts up to 256k: 0.28 s at 65,536 hosts
/// and 1.7 s at 262,144 (2-vCPU x86-64 Linux, release build; E14c,
/// `exp silent_round`, prints it per size), so no cache is kept.
pub fn legal_chord_runtime(
    n_guests: u32,
    hosts: usize,
    cfg: Config,
    model: NetModel,
) -> Runtime<ScaffoldProgram<ChordTarget>> {
    let target = ChordTarget::classic(n_guests);
    let (ids, _) = ssim::init::place_hosts(hosts, n_guests, cfg.seed);
    let edges = chord_scaffold::expected_edges(&target, &ids);
    let mut rt = chord_scaffold::runtime_with_net(target, &ids, edges, cfg, model);
    install_legal_cbt_state(&mut rt, n_guests, true, |p, neighbors| {
        p.core.install_done(neighbors);
        &mut p.core.cbt
    });
    debug_assert!(chord_scaffold::runtime_is_legal(&rt));
    rt
}

/// Mean and sample standard deviation.
pub fn mean_std(xs: &[f64]) -> (f64, f64) {
    let n = xs.len().max(1) as f64;
    let mean = xs.iter().sum::<f64>() / n;
    let var = if xs.len() > 1 {
        xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0)
    } else {
        0.0
    };
    (mean, var.sqrt())
}

/// The probability that `t` stays connected after `f` random nodes fail,
/// estimated over `trials` samples — E8's robustness measure (the paper's
/// reason to prefer Chord: "the failure of a few nodes is insufficient to
/// disconnect the network"). Each trial shuffles a copy of `t.ids()` and
/// removes its first `f` entries.
pub fn survival_probability(
    t: &ssim::Topology,
    f: usize,
    trials: usize,
    rng: &mut impl Rng,
) -> f64 {
    if f >= t.node_count() {
        return 0.0;
    }
    let mut pool = t.ids().to_vec();
    let survived = (0..trials)
        .filter(|_| {
            pool.copy_from_slice(t.ids());
            pool.shuffle(rng);
            t.connected_without(&pool[..f])
        })
        .count();
    survived as f64 / trials as f64
}

/// The command line of the `exp` binary, checked where it enters: every
/// value is validated by [`ExpArgs::from_env`], so an experiment never
/// runs on a misspelled or half-parsed option.
///
/// * positional names — the experiment rows to run, in order;
/// * first numeric positional — override the seed/trial count where the
///   row takes one;
/// * `--json` — emit machine-readable JSON (one document per table) instead
///   of fixed-width tables;
/// * `--smoke` — the seconds-long variant of the rows that have one;
/// * `--full` — also emit the row's `[full]`-tagged document;
/// * `--sched SPEC` (or `--sched=SPEC`) — the daemon driving the rounds:
///   `sync` (default), `activity`, `random:<p>`, or `rr:<k>` (see
///   [`ssim::sched::from_spec`]). The daemon may change results — that is
///   the point of sweeping it;
/// * `--net SPEC` (or `--net=SPEC`) — network conditions
///   ([`ssim::net::from_spec`]: `ideal` | `wan` | `wan:key=value,...`).
#[derive(Debug, Clone, Default)]
pub struct ExpArgs {
    /// Row names (the non-numeric positionals), in command-line order.
    pub rows: Vec<String>,
    /// Emit JSON instead of human tables.
    pub json: bool,
    /// `--smoke`: small sizes, few rounds.
    pub smoke: bool,
    /// `--full`: also emit the `[full]`-tagged documents.
    pub full: bool,
    /// Optional numeric positional (seeds / trials), experiment-specific.
    pub count: Option<u64>,
    /// `--sched SPEC`: a recognized scheduler spec (see [`ExpArgs::scheduler`]).
    pub sched: Option<String>,
    /// `--net SPEC`: the network model (ideal when absent).
    pub net: NetModel,
}

impl ExpArgs {
    /// Parse the options from `std::env::args`; `Err` names the first
    /// argument that is not a count, a row name or a well-formed option.
    pub fn from_env() -> Result<Self, String> {
        parse_exp_args(std::env::args().skip(1))
    }

    /// Build the `--sched` scheduler, seeding randomized daemons with
    /// `seed`; `None` when the flag is absent (keep the runtime's default).
    pub fn scheduler(&self, seed: u64) -> Option<Box<dyn ssim::sched::Scheduler>> {
        ssim::sched::from_spec(self.sched.as_deref()?, seed)
    }

    /// Install the `--sched` scheduler (when given) on a runtime.
    pub fn apply_sched<P: ssim::Program>(&self, rt: &mut ssim::Runtime<P>, seed: u64) {
        if let Some(s) = self.scheduler(seed) {
            rt.set_scheduler(s);
        }
    }
}

fn parse_exp_args(args: impl IntoIterator<Item = String>) -> Result<ExpArgs, String> {
    let mut out = ExpArgs::default();
    let mut args = args.into_iter();
    while let Some(a) = args.next() {
        let Some(opt) = a.strip_prefix("--") else {
            match a.parse() {
                Ok(_) if out.count.is_some() => return Err(format!("a second count {a:?}")),
                Ok(n) => out.count = Some(n),
                Err(_) => out.rows.push(a),
            }
            continue;
        };
        let (name, inline) = match opt.split_once('=') {
            Some((name, v)) => (name, Some(v.to_string())),
            None => (opt, None),
        };
        let flag = match name {
            "json" => &mut out.json,
            "smoke" => &mut out.smoke,
            "full" => &mut out.full,
            "sched" | "net" => {
                // A missing value must not swallow the next option.
                let v = inline
                    .or_else(|| args.next().filter(|v| !v.starts_with("--")))
                    .ok_or(format!("--{name} needs a value"))?;
                match name {
                    "sched" if ssim::sched::from_spec(&v, 0).is_none() => {
                        return Err(format!(
                            "--sched {v:?}: want sync | activity | random:<p> | rr:<k>"
                        ))
                    }
                    "sched" => out.sched = Some(v),
                    _ => {
                        out.net =
                            ssim::net::from_spec(&v).map_err(|e| format!("--net {v:?}: {e}"))?
                    }
                }
                continue;
            }
            _ => {
                return Err(format!(
                    "unknown option {a:?} (flags: --json --smoke --full; \
                     options: --sched <spec> --net <spec>)"
                ))
            }
        };
        if inline.is_some() {
            return Err(format!("--{name} takes no value"));
        }
        *flag = true;
    }
    Ok(out)
}

/// Fixed-width table printer for experiment rows, JSON-emitting under
/// `--json`.
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

#[derive(Serialize)]
struct JsonTable<'a> {
    experiment: &'a str,
    headers: &'a Vec<String>,
    rows: &'a Vec<Vec<String>>,
}

impl Table {
    /// A table with the given column headers.
    pub fn new(headers: &[&str]) -> Self {
        Self {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (stringified cells).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len());
        self.rows.push(cells);
    }

    /// Render to stdout: a fixed-width table, or one JSON document when the
    /// shared `--json` flag is set.
    pub fn emit(&self, args: &ExpArgs, title: &str) {
        if args.json {
            let doc = JsonTable {
                experiment: title,
                headers: &self.headers,
                rows: &self.rows,
            };
            println!("{}", serde_json::to_string(&doc).expect("table JSON"));
            return;
        }
        println!("\n== {title} ==");
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let line = |cells: &[String]| {
            let parts: Vec<String> = cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>w$}", c, w = widths[i]))
                .collect();
            println!("  {}", parts.join("  "));
        };
        line(&self.headers);
        println!(
            "  {}",
            widths
                .iter()
                .map(|w| "-".repeat(*w))
                .collect::<Vec<_>>()
                .join("  ")
        );
        for row in &self.rows {
            line(row);
        }
    }
}

/// Format a float with 2 decimals.
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

/// A statistic of the samples `xs` — `stat` of their mean and sample
/// standard deviation — as a 2-decimal cell, or `-` when there are none: a
/// statistic of no samples is not a number, and rendering it as 0 would
/// read as a measurement.
pub fn stat_cell(xs: &[f64], stat: impl FnOnce(f64, f64) -> f64) -> String {
    if xs.is_empty() {
        return "-".into();
    }
    let (mean, std) = mean_std(xs);
    f2(stat(mean, std))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Result<ExpArgs, String> {
        parse_exp_args(v.iter().map(|s| s.to_string()))
    }

    /// Every listed command line is answered with an error naming the bad
    /// argument, never with a run on a default.
    fn assert_rejected(bad: &[&[&str]]) {
        for v in bad {
            let e = args(v).expect_err(&format!("{v:?} must be rejected"));
            assert!(!e.is_empty());
        }
    }

    #[test]
    fn exp_args_parse_flags() {
        let a = args(&["net", "--json", "--smoke", "7", "gauntlet"]).unwrap();
        assert!(a.json && a.smoke && !a.full);
        assert_eq!(a.rows, ["net", "gauntlet"]);
        assert_eq!(a.count, Some(7));
        assert_rejected(&[
            &["--threads", "4"],
            &["--threads=2"],
            &["--smok"],
            &["--e14b-full"],
            &["--json=1"],
            &["1", "2"],
        ]);
    }

    /// The unknown-option answer lists every flag and option the parser
    /// takes.
    #[test]
    fn unknown_option_lists_every_flag_and_option() {
        let e = args(&["--threads", "4"]).unwrap_err();
        assert_eq!(
            e,
            "unknown option \"--threads\" (flags: --json --smoke --full; \
             options: --sched <spec> --net <spec>)"
        );
    }

    #[test]
    fn exp_args_parse_scheduler_spec() {
        let a = args(&["--sched", "activity", "--json"]).unwrap();
        assert_eq!(a.sched.as_deref(), Some("activity"));
        assert_eq!(a.scheduler(1).unwrap().name(), "activity-driven");
        let r = args(&["--sched=random:0.25"]).unwrap();
        assert_eq!(r.scheduler(7).unwrap().name(), "random-subset");
        assert!(
            args(&[]).unwrap().scheduler(1).is_none(),
            "absent flag: keep default"
        );
        assert_eq!(args(&["--net", "wan"]).unwrap().net, NetModel::wan());
        assert!(args(&[]).unwrap().net.is_ideal());
        assert_rejected(&[
            &["--sched", "bogus"],
            &["--sched", "random:nan"],
            &["--sched=random:1.5"],
            &["--sched", "rr:0"],
            &["--sched", "--json"],
            &["--sched"],
            &["--net", "bogus"],
            &["--net=wan:loss=x"],
            &["--net", "wan:delay=18446744073709551615"],
            &["--net", "--json"],
        ]);
    }

    /// Fixtures are built, never read from or written to a file: the
    /// removed `--{load,save}-snapshot` path options are unknown.
    #[test]
    fn exp_args_reject_snapshot_paths() {
        for verb in ["load", "save"] {
            let flag = format!("--{verb}-snapshot");
            assert_rejected(&[&["workload", &flag, "x"], &[&format!("{flag}=x")]]);
        }
    }

    #[test]
    fn legal_chord_runtime_is_deterministic() {
        // Two calls with the same parameters serve traffic byte-identically.
        let run = || {
            let mut rt = legal_chord_runtime(256, 32, seeded(11), NetModel::ideal());
            rt.attach_workload(
                ssim::OpenLoop::new(4.0, 256).limited(100),
                ssim::WorkloadConfig::default(),
            );
            rt.run(80);
            serde_json::to_string(rt.metrics()).expect("metrics serialize")
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn mean_std_basics() {
        let (m, s) = mean_std(&[2.0, 4.0, 6.0]);
        assert!((m - 4.0).abs() < 1e-12);
        assert!((s - 2.0).abs() < 1e-12);
    }

    #[test]
    fn stat_cell_of_no_samples_is_a_dash() {
        assert_eq!(stat_cell(&[], |m, _| m), "-");
        assert_eq!(stat_cell(&[], |_, sd| sd), "-");
        assert_eq!(stat_cell(&[2.0, 4.0, 6.0], |m, _| m), "4.00");
        assert_eq!(stat_cell(&[2.0, 4.0, 6.0], |_, sd| sd), "2.00");
    }

    #[test]
    fn small_chord_measurement_succeeds() {
        let o = measure_chord(32, 4, Shape::Line, 1);
        assert!(o.rounds.is_some());
        assert!(o.expansion >= 1.0);
    }

    #[test]
    fn legal_cbt_runtime_is_cbt_legal() {
        let rt = legal_cbt_runtime(64, 8, 2);
        let ids: Vec<_> = rt.ids().to_vec();
        let expect = avatar_cbt::legal::expected_edges(64, &ids);
        assert_eq!(rt.topology().edges(), expect);
    }

    #[test]
    fn legal_cbt_standalone_serves_tree_routed_lookups() {
        let mut rt = legal_cbt_standalone(128, 16, 5);
        rt.attach_workload(
            ssim::OpenLoop::new(2.0, 128).limited(100),
            ssim::WorkloadConfig::default(),
        );
        rt.run(150);
        let s = rt.request_stats();
        assert_eq!(s.issued, 100);
        assert_eq!(
            s.completed, 100,
            "tree routing serves the legal scaffold: {s:?}"
        );
        assert!(
            s.max_hops_seen() <= 2 * 7 + 2,
            "host-tree hops bounded by ~2·height: got {}",
            s.max_hops_seen()
        );
    }

    #[test]
    fn legal_chord_runtime_serves_live_lookups() {
        let mut rt = legal_chord_runtime(256, 32, seeded(3), NetModel::ideal());
        assert!(chord_scaffold::runtime_is_legal(&rt));
        rt.attach_workload(
            ssim::OpenLoop::new(4.0, 256).limited(200),
            ssim::WorkloadConfig::default(),
        );
        rt.run(120);
        let s = rt.request_stats();
        assert_eq!(s.issued, 200);
        assert_eq!(s.completed, 200, "converged overlay: every lookup lands");
        assert!(
            s.max_hops_seen() <= 18,
            "hops bounded by O(log N), got {}",
            s.max_hops_seen()
        );
        assert!(
            chord_scaffold::runtime_is_legal(&rt),
            "traffic must not perturb the legal overlay"
        );
    }

    /// E8's cells, pinned: the CBT and Chord(64) survival probabilities at
    /// f ∈ {1, 3, 6}, 50 trials, one RNG seeded 8 and drawn as E8 draws it
    /// (CBT, then Chord, per f). The values were captured from the previous
    /// graph type's estimator, so a change in the masked search or in the
    /// shuffle shows here. No failure leaves every node alive and connected.
    #[test]
    fn survival_probability_is_pinned() {
        use overlay::{Cbt, Chord};
        use rand::SeedableRng;
        let cbt = ssim::Topology::new(0..64, Cbt::new(64).edges());
        let chord = ssim::Topology::new(0..64, Chord::classic(64).edges());
        let mut rng = rand::rngs::SmallRng::seed_from_u64(8);
        let got: Vec<[f64; 2]> = [1, 3, 6]
            .map(|f| [&cbt, &chord].map(|t| survival_probability(t, f, 50, &mut rng)))
            .to_vec();
        assert_eq!(got, [[0.58, 1.0], [0.1, 1.0], [0.04, 1.0]]);
        for seed in 0..20 {
            let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
            assert_eq!(survival_probability(&cbt, 0, 10, &mut rng), 1.0);
            assert_eq!(survival_probability(&chord, 0, 10, &mut rng), 1.0);
        }
    }
}
