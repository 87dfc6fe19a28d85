//! Engine-level tests of the live-traffic subsystem ([`ssim::workload`]):
//! hop-by-hop delivery over live links, the conservation law, honest
//! behavior under churn (retry or fail, never teleport), scheduler
//! equivalence, and thread-count byte-identity.

use ssim::{
    ActivityDriven, Config, Ctx, NodeId, OpenLoop, Program, RequestOutcome, RouteStep, Router,
    Runtime, Silent, WorkloadConfig,
};

/// A do-nothing, always-quiescent program whose *identity* is its routing
/// table: a request for key `k` is delivered at host `k` and greedily
/// forwarded toward it by numeric distance. On a line 0–1–…–n this takes
/// exactly |key − start| hops, which makes accounting checks exact.
#[derive(Clone)]
struct IdHost {
    id: NodeId,
}

impl Program for IdHost {
    type Msg = ();
    fn step(&mut self, _ctx: &mut Ctx<'_, ()>) {}
    fn is_quiescent(&self) -> bool {
        true
    }
}

impl Router for IdHost {
    fn route(&self, key: u32, neighbors: &[NodeId]) -> RouteStep {
        if key == self.id {
            return RouteStep::Deliver;
        }
        let d = |v: NodeId| (v as i64 - key as i64).abs();
        let best = neighbors.iter().copied().min_by_key(|&v| (d(v), v));
        match best {
            Some(v) if d(v) < d(self.id) => RouteStep::Forward(v),
            _ => RouteStep::Unroutable,
        }
    }
}

fn line(n: u32, cfg: Config) -> Runtime<IdHost> {
    Runtime::new(
        cfg,
        (0..n).map(|i| (i, IdHost { id: i })),
        (0..n - 1).map(|i| (i, i + 1)),
    )
    .with_spawner(|id| IdHost { id })
}

#[test]
fn manual_request_routes_hop_by_hop_with_exact_latency() {
    let mut rt = line(8, Config::default());
    rt.attach_workload(Silent, WorkloadConfig::default());
    rt.inject_request(0, 5);
    // One hop per round: rounds 0..=4 forward 0→1→…→5, delivery happens in
    // the round the request sits at host 5 with ready_round ≤ round.
    rt.run(6);
    let s = rt.request_stats();
    assert_eq!(s.issued, 1);
    assert_eq!(s.completed, 1);
    assert_eq!(s.in_flight, 0);
    assert_eq!(s.hop_histogram, vec![0, 0, 0, 0, 0, 1], "exactly 5 hops");
    assert_eq!(s.max_latency_seen(), 5, "5 forwarding rounds");
    assert_eq!(s.forwards, 5);
    assert_eq!(s.issued, s.completed + s.failed + s.in_flight);
}

#[test]
fn request_to_own_key_completes_with_zero_hops() {
    let mut rt = line(4, Config::default());
    rt.attach_workload(Silent, WorkloadConfig::default());
    rt.inject_request(2, 2);
    rt.run(1);
    let s = rt.request_stats();
    assert_eq!(
        (s.completed, s.max_hops_seen(), s.max_latency_seen()),
        (1, 0, 0)
    );
}

#[test]
fn departed_holder_fails_requests_and_conservation_holds() {
    let mut rt = line(8, Config::default());
    rt.attach_workload(Silent, WorkloadConfig::default());
    rt.inject_request(0, 7);
    rt.run(3); // request now sits at host 3
    rt.leave(3).expect("member");
    let s = rt.request_stats();
    assert_eq!(s.failed, 1);
    assert_eq!(s.failed_departed, 1);
    assert_eq!(s.in_flight, 0);
    assert_eq!(s.issued, s.completed + s.failed + s.in_flight);
    rt.run(3); // the shrunk network keeps stepping fine
}

#[test]
fn vanished_next_hop_retries_in_place_until_route_heals() {
    let mut rt = line(6, Config::default());
    let wcfg = WorkloadConfig {
        record_requests: true,
        ..WorkloadConfig::default()
    };
    rt.attach_workload(Silent, wcfg);
    rt.inject_request(0, 4);
    rt.run(2); // request at host 2
    rt.adversarial_remove_edge(2, 3); // its next hop edge vanishes
    rt.run(3); // unroutable: retries in place, never teleports
    assert_eq!(rt.request_stats().completed, 0);
    assert!(rt.request_stats().retries >= 3);
    assert_eq!(rt.request_stats().in_flight, 1);
    rt.adversarial_add_edge(2, 3); // stabilization "heals" the route
    rt.run(4);
    let s = rt.request_stats();
    assert_eq!(s.completed, 1, "request completes after the route heals");
    let rec = s.records[0];
    assert_eq!(rec.outcome, RequestOutcome::Completed);
    assert_eq!(rec.dest, Some(4));
    assert!(rec.retries >= 3);
}

#[test]
fn unroutable_requests_expire_at_ttl() {
    let mut rt = line(4, Config::default());
    let wcfg = WorkloadConfig {
        ttl: 5,
        ..WorkloadConfig::default()
    };
    rt.attach_workload(Silent, wcfg);
    rt.inject_request(3, 17); // key 17 routes right, off the end of the line
    rt.run(10);
    let s = rt.request_stats();
    assert_eq!(s.failed_expired, 1);
    assert_eq!(s.in_flight, 0);
    assert_eq!(s.issued, s.completed + s.failed + s.in_flight);
}

#[test]
fn hop_budget_fails_runaway_requests() {
    let mut rt = line(12, Config::default());
    let wcfg = WorkloadConfig {
        max_hops: 3,
        ttl: 100,
        ..WorkloadConfig::default()
    };
    rt.attach_workload(Silent, wcfg);
    rt.inject_request(0, 11);
    rt.run(10);
    let s = rt.request_stats();
    assert_eq!(s.failed_hops, 1);
    assert_eq!(s.completed, 0);
}

#[test]
fn open_loop_paces() {
    let mut rt = line(8, Config::seeded(5));
    rt.attach_workload(OpenLoop::new(2.0, 8), WorkloadConfig::default());
    rt.run(10);
    assert_eq!(rt.request_stats().issued, 20, "2 requests per round");
}

/// The headline determinism claims: byte-identical request metrics across
/// thread counts, and ActivityDriven ≡ Synchronous with traffic attached
/// (request holders are dirty, so the activity daemon keeps serving).
#[test]
fn traffic_is_thread_count_invariant_and_scheduler_equivalent() {
    // With threads > 1 every round's emit runs on the pool, with the debug
    // shadow-step check armed.
    let run = |threads: usize, activity: bool| {
        let cfg = Config::seeded(9).threads(threads);
        let mut rt = line(16, cfg);
        if activity {
            rt.set_scheduler(Box::new(ActivityDriven));
        }
        rt.enable_shadow_check();
        rt.attach_workload(OpenLoop::new(1.5, 16), WorkloadConfig::default());
        rt.run(40);
        serde_json::to_string(rt.metrics()).expect("metrics serialize")
    };
    let base = run(1, false);
    assert_eq!(base, run(2, false), "2 threads");
    assert_eq!(base, run(4, false), "4 threads");
    assert_eq!(base, run(8, false), "8 threads");
    // Activity-driven: same requests, same hops, same latencies — only the
    // activation columns may differ. With idle IdHost programs the dirty
    // set is exactly the traffic, so scrub activations before comparing.
    let scrub = |s: &str| {
        ssim::metrics::blank_json_fields(
            s,
            &["total_activations", "active_nodes", "quiescent_nodes"],
        )
    };
    let act = run(1, true);
    assert_eq!(scrub(&base), scrub(&act), "activity ≡ sync on traffic");
    assert_eq!(scrub(&act), scrub(&run(4, true)), "activity across threads");
}

#[test]
fn per_round_rows_pin_the_conservation_law() {
    let mut rt = line(10, Config::seeded(3));
    rt.attach_workload(OpenLoop::new(1.0, 10), WorkloadConfig::default());
    rt.run(25);
    let m = rt.metrics();
    let (mut issued, mut done, mut failed) = (0u64, 0u64, 0u64);
    for row in &m.per_round {
        issued += row.requests_issued;
        done += row.requests_completed;
        failed += row.requests_failed;
        assert_eq!(
            issued,
            done + failed + row.requests_in_flight,
            "conservation at round {}",
            row.round
        );
    }
    assert_eq!(issued, m.requests.issued);
    assert_eq!(done, m.requests.completed);
}

#[test]
fn success_rate_vacuous_then_judging() {
    let mut rt = line(4, Config::default());
    rt.attach_workload(
        Silent,
        WorkloadConfig {
            ttl: 2,
            ..WorkloadConfig::default()
        },
    );
    let stats = &rt.metrics().requests;
    assert_eq!(stats.decided(), 0);
    assert_eq!(stats.success_rate(), 1.0, "vacuous before traffic");
    rt.inject_request(3, 17); // will expire unrouted
    rt.inject_request(0, 99); // ditto
    rt.run(5);
    let stats = &rt.metrics().requests;
    assert_eq!(stats.decided(), 2);
    assert_eq!(stats.failed_expired, 2);
    assert_eq!(stats.success_rate(), 0.0);
}

#[test]
fn requests_wait_for_skipped_holders_under_partial_daemons() {
    // Under round-robin over 3 classes a holder advances only when its
    // class comes up — delivery is delayed, never dropped. (Routing
    // *against* the class order: host i is in class i mod 3 but the
    // request reaches it at round 5 − i, so almost every hop waits.)
    let mut rt = line(6, Config::default());
    rt.set_scheduler(Box::new(ssim::Adversarial::round_robin(3)));
    rt.attach_workload(Silent, WorkloadConfig::default());
    rt.inject_request(5, 0);
    rt.run(40);
    let s = rt.request_stats();
    assert_eq!(s.completed, 1, "eventually delivered");
    assert!(
        s.max_latency_seen() > 5,
        "slower than the synchronous 5 rounds"
    );
}

/// The traffic line-up is the selection, in selection order. A scripted
/// daemon is the one daemon that bends member order: reversing it reverses
/// the order in which a round's holders are served — visible in the request
/// log, since completions are recorded as they are served — and a holder
/// the script leaves out keeps its request for a later round.
#[test]
fn scripted_daemon_order_is_the_serve_order() {
    let wcfg = WorkloadConfig {
        record_requests: true,
        ..WorkloadConfig::default()
    };
    let reversed: Vec<NodeId> = (0..6).rev().collect();
    // One round of six requests, each completing where it is issued.
    let one_round = |script: Vec<NodeId>| {
        let mut rt = line(6, Config::default());
        rt.set_scheduler(Box::new(ssim::Adversarial::script(vec![script])));
        rt.attach_workload(Silent, wcfg);
        for v in 0..6 {
            rt.inject_request(v, v);
        }
        rt.run(1);
        let s = rt.request_stats();
        let dests: Vec<NodeId> = s.records.iter().map(|r| r.dest.unwrap()).collect();
        (dests, s.in_flight)
    };
    assert_eq!(one_round(reversed.clone()), (reversed.clone(), 0));
    assert_eq!(
        one_round(vec![4, 1, 3]),
        (vec![4, 1, 3], 3),
        "the others wait"
    );

    // With live traffic and forwarding: under the reversed script every
    // round's completions come in descending host order (a holder's whole
    // queue is served before the next holder's), under the synchronous
    // daemon in ascending order — and both deliver the same requests.
    let traffic = |script: Option<Vec<NodeId>>| {
        let mut rt = line(6, Config::seeded(4));
        if let Some(script) = script {
            rt.set_scheduler(Box::new(ssim::Adversarial::script(vec![script])));
        }
        rt.attach_workload(OpenLoop::new(2.0, 6), wcfg);
        rt.run(40);
        let s = rt.request_stats();
        assert_eq!(s.issued, s.completed + s.failed + s.in_flight);
        assert_eq!(s.failed, 0);
        let mut by_round = std::collections::BTreeMap::<u64, Vec<NodeId>>::new();
        for r in &s.records {
            by_round
                .entry(r.done_round)
                .or_default()
                .push(r.dest.unwrap());
        }
        let mut ids: Vec<u64> = s.records.iter().map(|r| r.id).collect();
        ids.sort_unstable();
        (by_round, ids)
    };
    let (rev_rounds, rev_ids) = traffic(Some(reversed));
    let (sync_rounds, sync_ids) = traffic(None);
    assert!(rev_rounds
        .values()
        .all(|d| d.windows(2).all(|w| w[0] >= w[1])));
    assert!(sync_rounds
        .values()
        .all(|d| d.windows(2).all(|w| w[0] <= w[1])));
    assert!(
        rev_rounds
            .values()
            .any(|d| d.windows(2).any(|w| w[0] > w[1])),
        "some round serves several holders"
    );
    assert_eq!(rev_ids, sync_ids, "the same requests complete");
}

#[test]
fn rejoined_slot_starts_with_a_clean_queue() {
    let mut rt = line(6, Config::default());
    rt.attach_workload(Silent, WorkloadConfig::default());
    rt.inject_request(0, 4);
    rt.run(2); // request at host 2
    rt.leave(2); // request dies with the holder
    rt.join(2, IdHost { id: 2 }, &[1, 3]);
    rt.inject_request(0, 4);
    rt.run(8);
    let s = rt.request_stats();
    assert_eq!(s.failed_departed, 1);
    assert_eq!(
        s.completed, 1,
        "the re-issued request routes through the rejoined host"
    );
}
