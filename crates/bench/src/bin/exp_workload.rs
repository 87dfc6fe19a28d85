//! E13 — live traffic over the evolving overlay: routed request workloads
//! racing stabilization and churn (the application-level payoff the
//! overlays exist for), plus the serving-quality numbers the CI perf gate
//! pins.
//!
//! Three measurements, all on **live host links** — every lookup travels
//! hop-by-hop over the edges the engine actually maintains, forwarded by
//! the protocol's own [`ssim::workload::Router`] (greedy guest-space
//! routing); nothing consults an ideal finger table:
//!
//! * **E13a — converged service quality**: an open-loop lookup workload on
//!   a legal, silent Avatar(Chord), per scheduler (`sync`, `activity`) and
//!   thread count {1, 2, 4}. The binary *asserts* the acceptance
//!   invariants: every thread count produces byte-identical metrics, the
//!   activity-driven daemon serves exactly like the synchronous one
//!   (request-carrying hosts are dirty, so it activates them), lookup
//!   success exceeds 99%, and hop counts stay within the `O(log N)`
//!   bound. A smoke failure here is a correctness regression, not noise.
//! * **E13b — traffic under churn storms**: the same workload while hosts
//!   leave and join every scaffold epoch. Requests in flight when their
//!   next hop vanishes retry against the healing overlay or fail at their
//!   TTL — success rate, failure breakdown, and latency tails quantify
//!   what users experience *during* stabilization and churn.
//! * **E13c — load sweep**: ns/round across request rates on the converged
//!   overlay under the activity daemon (the serving-cost baseline: with no
//!   protocol work left, round cost is pure traffic).
//!
//! Usage: `exp_workload [seed] [--json] [--smoke] [--threads T]
//! [--net SPEC] [--save-snapshot PATH] [--load-snapshot PATH]`.
//! `--net wan` (or `wan:key=value,...`) runs E13a/E13b under WAN network
//! conditions (`ssim::net`): the converged fixture and every joiner carry
//! delivery-bound-matched window budgets, and request TTLs stretch with
//! the per-hop bound so SLOs degrade for protocol reasons, not because
//! the clock was left at ideal-network settings.
//! `--json` emits the JSON-Lines documents captured in `BENCH_engine.json`
//! (the committed baseline the `bench_check` CI gate diffs); `--smoke` is
//! the seconds-long CI variant; the snapshot options write E13c's converged
//! fixture to a file / read it back instead of building (see
//! [`scaffold_bench::ExpArgs::fixture_snapshot`]).

use scaffold_bench::{budget, f2, legal_chord_runtime, seeded, Table};
use ssim::{fault::Fault, NetModel, OpenLoop, RequestStats, WorkloadConfig};
use std::time::Instant;

/// Strip the scheduler-dependent activity columns from a metrics JSON
/// fingerprint (activations legitimately differ between daemons;
/// everything else — including every request metric — must not).
fn activity_blind(metrics_json: &str) -> String {
    ssim::metrics::blank_json_fields(metrics_json, &["total_activations", "active_nodes"])
}

struct ServiceRun {
    ns_per_round: f64,
    metrics_json: String,
    stats: RequestStats,
}

/// The size/seed/load/channel shape of a service run (everything except
/// the daemon and thread count, which the sweeps vary per row).
#[derive(Clone, Copy)]
struct ServiceSpec {
    n: u32,
    hosts: usize,
    seed: u64,
    rate: f64,
    rounds: u64,
    model: NetModel,
}

/// One converged-overlay traffic run: `rate` lookups/round for `rounds`
/// rounds, then drain the in-flight tail.
fn service_run(spec: ServiceSpec, sched: &str, threads: usize) -> ServiceRun {
    let ServiceSpec {
        n,
        hosts,
        seed,
        rate,
        rounds,
        model,
    } = spec;
    let mut rt = legal_chord_runtime(n, hosts, seeded(seed).threads(threads), model);
    rt.set_scheduler(ssim::sched::from_spec(sched, seed).expect("known spec"));
    let total = (rate * rounds as f64) as u64;
    let wl = WorkloadConfig {
        ttl: WorkloadConfig::default().ttl * model.delivery_bound(),
        ..WorkloadConfig::default()
    };
    rt.attach_workload(OpenLoop::new(rate, n).limited(total), wl);
    let t0 = Instant::now();
    rt.run(rounds);
    let elapsed = t0.elapsed();
    // Drain the in-flight tail (the generator has hit its issue limit).
    let mut waited = 0;
    while rt.request_stats().in_flight > 0 && waited < wl.ttl + 16 {
        rt.step();
        waited += 1;
    }
    ServiceRun {
        ns_per_round: elapsed.as_nanos() as f64 / rounds as f64,
        metrics_json: serde_json::to_string(rt.metrics()).expect("metrics serialize"),
        stats: rt.metrics().requests.clone(),
    }
}

fn service_cells(sched: &str, threads: usize, hosts: usize, n: u32, r: &ServiceRun) -> Vec<String> {
    let s = &r.stats;
    vec![
        sched.to_string(),
        threads.to_string(),
        hosts.to_string(),
        n.to_string(),
        s.issued.to_string(),
        s.completed.to_string(),
        s.failed.to_string(),
        f2(100.0 * s.success_rate()),
        f2(s.mean_hops()),
        s.max_hops_seen().to_string(),
        f2(s.mean_latency()),
        s.max_latency_seen().to_string(),
        f2(r.ns_per_round),
    ]
}

fn log2_ceil(n: u32) -> u32 {
    32 - n.saturating_sub(1).leading_zeros()
}

fn main() {
    let args = scaffold_bench::ExpArgs::from_env();
    let seed = args.count.unwrap_or(13);
    let smoke = args.flag("smoke");
    let model = args.net_model().unwrap_or_default();

    // ---- E13a: converged service quality --------------------------------
    let sizes: &[(usize, u32)] = if smoke {
        &[(512, 1024)]
    } else {
        &[(512, 1024), (2048, 4096)]
    };
    let thread_counts: Vec<usize> = match args.threads {
        Some(t) if t > 1 => vec![1, t],
        Some(_) => vec![1],
        None => vec![1, 2, 4],
    };
    let (rate, rounds): (f64, u64) = if smoke { (32.0, 192) } else { (64.0, 512) };

    let mut t = Table::new(&[
        "sched",
        "threads",
        "hosts",
        "N",
        "issued",
        "completed",
        "failed",
        "success%",
        "mean_hops",
        "max_hops",
        "mean_lat",
        "max_lat",
        "ns/round",
    ]);
    for &(hosts, n) in sizes {
        let hop_bound = (2 * log2_ceil(n) + 2) as usize;
        let mut sync_blind: Option<String> = None;
        for sched in ["sync", "activity"] {
            let spec = ServiceSpec {
                n,
                hosts,
                seed,
                rate,
                rounds,
                model,
            };
            let base = service_run(spec, sched, 1);
            // Acceptance: byte-identical metrics across thread counts.
            for &threads in thread_counts.iter().filter(|&&t| t != 1) {
                let run = service_run(spec, sched, threads);
                assert_eq!(
                    base.metrics_json, run.metrics_json,
                    "E13a: {sched} diverged between 1 and {threads} threads"
                );
                t.row(service_cells(sched, threads, hosts, n, &run));
            }
            // Acceptance: the activity daemon serves exactly like sync.
            let blind = activity_blind(&base.metrics_json);
            match &sync_blind {
                None => sync_blind = Some(blind),
                Some(sb) => assert_eq!(
                    sb, &blind,
                    "E13a: activity-driven execution diverged from synchronous"
                ),
            }
            // Acceptance: service quality on the converged overlay.
            let s = &base.stats;
            assert!(
                s.issued > 0 && s.success_rate() > 0.99,
                "E13a: success rate {:.4} ≤ 0.99 on a converged overlay",
                s.success_rate()
            );
            assert!(
                s.max_hops_seen() <= hop_bound,
                "E13a: max hops {} exceeds 2·log₂N+2 = {hop_bound}",
                s.max_hops_seen()
            );
            assert_eq!(
                s.issued,
                s.completed + s.failed + s.in_flight,
                "E13a: conservation law"
            );
            t.row(service_cells(sched, 1, hosts, n, &base));
        }
    }
    t.emit(
        &args,
        "E13a: live routed lookups on converged Avatar(Chord) (per daemon x threads)",
    );

    // ---- E13b: traffic under churn storms -------------------------------
    let (churn_hosts, churn_n, episodes): (usize, u32, usize) =
        if smoke { (48, 256, 6) } else { (128, 512, 12) };
    let mut t = Table::new(&[
        "sched",
        "hosts",
        "N",
        "episodes",
        "issued",
        "completed",
        "expired",
        "hop_fail",
        "departed",
        "success%",
        "mean_lat",
        "max_lat",
        "relegal@",
    ]);
    for sched in ["sync", "activity"] {
        use rand::SeedableRng;
        let mut rt = legal_chord_runtime(churn_n, churn_hosts, seeded(seed), model);
        rt.set_scheduler(ssim::sched::from_spec(sched, seed).expect("known spec"));
        let wl = WorkloadConfig {
            ttl: WorkloadConfig::default().ttl * model.delivery_bound(),
            ..WorkloadConfig::default()
        };
        rt.attach_workload(OpenLoop::new(4.0, churn_n), wl);
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed ^ 0x57_0B_13);
        let gap = avatar_cbt::Schedule::new(churn_n)
            .with_delta(model.delivery_bound())
            .epoch_len();
        for e in 0..episodes {
            let fault = if e % 2 == 0 {
                Fault::Leave {
                    id: None,
                    keep_connected: true,
                }
            } else {
                let id = (0..churn_n)
                    .find(|v| !rt.topology().contains(*v))
                    .expect("guest space has room");
                Fault::Join { id, attach: 2 }
            };
            ssim::fault::inject(&mut rt, &fault, &mut rng);
            rt.run(gap);
        }
        // Let the overlay heal while traffic keeps flowing.
        let heal = rt.run_monitored(
            &mut chord_scaffold::legality(),
            2 * model.delivery_bound() * budget(churn_n, churn_hosts),
        );
        let s = rt.request_stats();
        t.row(vec![
            sched.to_string(),
            churn_hosts.to_string(),
            churn_n.to_string(),
            episodes.to_string(),
            s.issued.to_string(),
            s.completed.to_string(),
            s.failed_expired.to_string(),
            s.failed_hops.to_string(),
            s.failed_departed.to_string(),
            f2(100.0 * s.success_rate()),
            f2(s.mean_latency()),
            s.max_latency_seen().to_string(),
            heal.rounds_if_satisfied()
                .map_or("-".into(), |r| r.to_string()),
        ]);
    }
    t.emit(
        &args,
        "E13b: routed lookups during churn storms (leave/join per epoch, healing overlay)",
    );

    // ---- E13c: load sweep (serving cost on the converged overlay) -------
    // The three rate points share one fixture: snapshot it once (or honor
    // --load-snapshot / --save-snapshot for cross-run reuse) and restore
    // per point — identical state every time, guaranteed by the format's
    // content hash rather than by rebuild determinism.
    let (lc_hosts, lc_n): (usize, u32) = if smoke { (256, 512) } else { (1024, 2048) };
    let lc_rounds: u64 = if smoke { 128 } else { 256 };
    let lc_cfg = seeded(seed);
    let lc_bytes = args.fixture_snapshot(|| {
        legal_chord_runtime(lc_n, lc_hosts, lc_cfg, NetModel::ideal()).save_snapshot()
    });
    let mut t = Table::new(&["hosts", "N", "rate", "rounds", "completed", "ns/round"]);
    for rate in [1.0f64, 8.0, 64.0] {
        let mut rt =
            chord_scaffold::restore_runtime::<chord_scaffold::ChordTarget>(&lc_bytes, lc_cfg)
                .expect("E13c fixture restores");
        rt.set_scheduler(Box::new(ssim::ActivityDriven));
        rt.attach_workload(OpenLoop::new(rate, lc_n), WorkloadConfig::default());
        rt.run(8); // warm buffers and the first lookups
        let t0 = Instant::now();
        rt.run(lc_rounds);
        let elapsed = t0.elapsed();
        t.row(vec![
            lc_hosts.to_string(),
            lc_n.to_string(),
            f2(rate),
            lc_rounds.to_string(),
            rt.request_stats().completed.to_string(),
            f2(elapsed.as_nanos() as f64 / lc_rounds as f64),
        ]);
    }
    t.emit(
        &args,
        "E13c: serving cost vs request rate (activity daemon, converged overlay)",
    );

    if !args.json {
        println!("\nExpected shape: E13a success 100% with max_hops ≤ 2·log2(N)+2 — greedy");
        println!("finger routing over live host links matches the ideal-table bound; all");
        println!("rows byte-identical across threads and (modulo activation counts) across");
        println!("the sync/activity daemons. E13b: success dips below 100% exactly by the");
        println!("requests caught on departing hosts or expiring mid-heal — the honest");
        println!("user-visible cost of churn. E13c: activity-daemon round cost scales with");
        println!("traffic, not network size (the dormant overlay is free).");
    }
}
