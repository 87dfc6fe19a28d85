//! E13 — live traffic over the evolving overlay: routed request workloads
//! racing stabilization and churn. Every lookup travels hop by hop over
//! the host links the engine maintains, forwarded by the protocol's own
//! [`ssim::workload::Router`]; nothing consults an ideal finger table.

use crate::note;
use scaffold_bench::{budget, f2, legal_chord_runtime, seeded, ExpArgs, Table};
use ssim::{fault::Fault, NetModel, OpenLoop, RequestStats, WorkloadConfig};

/// The size/seed/load/channel shape of a service run (everything except
/// the daemon and thread count, which the sweep varies per row).
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
/// rounds, then drain the in-flight tail. Returns the metrics JSON (the
/// byte-identity fingerprint), the request accounting and the rounds whose
/// emit ran on the pool.
fn service_run(spec: ServiceSpec, sched: &str, threads: usize) -> (String, RequestStats, u64) {
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
    let wl = ttl_scaled(model);
    rt.attach_workload(OpenLoop::new(rate, n).limited(total), wl);
    rt.run(rounds);
    // Drain the in-flight tail (the generator has hit its issue limit).
    let mut waited = 0;
    while rt.request_stats().in_flight > 0 && waited < wl.ttl + 16 {
        rt.step();
        waited += 1;
    }
    (
        serde_json::to_string(rt.metrics()).expect("metrics serialize"),
        rt.metrics().requests.clone(),
        rt.perf_counters().par_rounds,
    )
}

/// Request TTLs stretched by the model's per-hop bound, so SLOs degrade
/// for protocol reasons, not because the clock kept ideal-network settings.
fn ttl_scaled(model: NetModel) -> WorkloadConfig {
    WorkloadConfig {
        ttl: WorkloadConfig::default().ttl * model.delivery_bound(),
        ..WorkloadConfig::default()
    }
}

fn service_cells(
    sched: &str,
    threads: usize,
    hosts: usize,
    n: u32,
    s: &RequestStats,
) -> Vec<String> {
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
    ]
}

fn log2_ceil(n: u32) -> u32 {
    32 - n.saturating_sub(1).leading_zeros()
}

/// E13a–c (seed = `N`, default 13; `--smoke` for the committed sizes;
/// `--net` runs E13a/E13b under that model; the snapshot options apply to
/// E13c's fixture). The row *asserts* E13a's acceptance invariants before
/// emitting: byte-identical metrics across thread counts (the multi-thread
/// runs on the pool), the activity daemon serving exactly like the
/// synchronous one, > 99 % lookup success and the `2·log₂N + 2` hop bound.
pub fn workload(args: &ExpArgs) {
    let seed = args.count.unwrap_or(13);
    let smoke = args.smoke;
    let model = args.net;

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
            let (base_json, s, _) = service_run(spec, sched, 1);
            // Acceptance: byte-identical metrics across thread counts, the
            // multi-thread runs on the pool.
            for &threads in thread_counts.iter().filter(|&&t| t != 1) {
                let (json, stats, pooled) = service_run(spec, sched, threads);
                assert!(
                    pooled > 0,
                    "E13a: no {sched} round ran on the {threads}-thread pool"
                );
                assert_eq!(
                    base_json, json,
                    "E13a: {sched} diverged between 1 and {threads} threads"
                );
                t.row(service_cells(sched, threads, hosts, n, &stats));
            }
            // Acceptance: the activity daemon serves exactly like sync —
            // everything but the activity columns, which legitimately
            // differ between daemons.
            let blind = ssim::metrics::blank_json_fields(
                &base_json,
                &["total_activations", "active_nodes"],
            );
            match &sync_blind {
                None => sync_blind = Some(blind),
                Some(sb) => assert_eq!(
                    sb, &blind,
                    "E13a: activity-driven execution diverged from synchronous"
                ),
            }
            // Acceptance: service quality on the converged overlay.
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
            t.row(service_cells(sched, 1, hosts, n, &s));
        }
    }
    t.emit(
        args,
        "E13a: live routed lookups on converged Avatar(Chord) (per daemon x threads)",
    );

    // ---- E13b: traffic under churn storms -------------------------------
    // Requests in flight when their next hop vanishes retry against the
    // healing overlay or fail at their TTL.
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
        rt.attach_workload(OpenLoop::new(4.0, churn_n), ttl_scaled(model));
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
            chord_scaffold::legality(),
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
        args,
        "E13b: routed lookups during churn storms (leave/join per epoch, healing overlay)",
    );

    // ---- E13c: completed lookups vs request rate on the converged overlay
    // The three rate points share one fixture: snapshot it once in memory
    // and restore per point — identical state every time, guaranteed by
    // the format's content hash rather than by rebuild determinism.
    let (lc_hosts, lc_n): (usize, u32) = if smoke { (256, 512) } else { (1024, 2048) };
    let lc_rounds: u64 = if smoke { 128 } else { 256 };
    let lc_cfg = seeded(seed);
    let lc_bytes = legal_chord_runtime(lc_n, lc_hosts, lc_cfg, NetModel::ideal()).save_snapshot();
    let mut t = Table::new(&["hosts", "N", "rate", "rounds", "completed"]);
    for rate in [1.0f64, 8.0, 64.0] {
        let mut rt =
            chord_scaffold::restore_runtime::<chord_scaffold::ChordTarget>(&lc_bytes, lc_cfg)
                .expect("E13c fixture restores");
        rt.set_scheduler(Box::new(ssim::ActivityDriven));
        rt.attach_workload(OpenLoop::new(rate, lc_n), WorkloadConfig::default());
        rt.run(8 + lc_rounds);
        t.row(vec![
            lc_hosts.to_string(),
            lc_n.to_string(),
            f2(rate),
            lc_rounds.to_string(),
            rt.request_stats().completed.to_string(),
        ]);
    }
    t.emit(
        args,
        "E13c: serving cost vs request rate (activity daemon, converged overlay)",
    );

    note(
        args,
        &[
            "Expected shape: E13a success 100% with max_hops ≤ 2·log2(N)+2 — greedy",
            "finger routing over live host links matches the ideal-table bound; all",
            "rows byte-identical across threads and (modulo activation counts) across",
            "the sync/activity daemons. E13b: success dips below 100% exactly by the",
            "requests caught on departing hosts or expiring mid-heal — the honest",
            "user-visible cost of churn. E13c: completed lookups track the offered",
            "rate on the dormant overlay.",
        ],
    );
}
