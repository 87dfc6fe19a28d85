//! Distributed key–value lookups over the stabilized overlay: the classic
//! Chord application, now on **live routed traffic** — every lookup is a
//! real request traveling hop-by-hop over the host links the engine
//! maintains, forwarded by the protocol's own greedy guest-space router
//! (`O(log N)` hops). Nothing consults an ideal finger table: the route a
//! request takes is whatever the stabilized hosts actually know.
//!
//! ```text
//! cargo run --release --example kv_lookup
//! ```

use chord_scaffolding::chord::{self, ChordTarget};
use chord_scaffolding::sim::workload::Silent;
use chord_scaffolding::sim::{init::Shape, Config, WorkloadConfig};
use chord_scaffolding::topology::Avatar;

fn hash_key(key: &str, n: u32) -> u32 {
    // FNV-1a, folded into the guest space.
    let mut h: u64 = 0xcbf29ce484222325;
    for b in key.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    (h % n as u64) as u32
}

fn main() {
    let n_guests = 256;
    let hosts = 20;
    let target = ChordTarget::classic(n_guests);

    let mut rt = chord::runtime_from_shape(target, hosts, Shape::Ring, Config::seeded(77));
    let rounds = rt
        .run_monitored(chord::legality(), 200_000)
        .rounds_if_satisfied()
        .expect("stabilization");
    println!(
        "overlay ready after {rounds} rounds; hosts = {:?}",
        rt.ids()
    );

    // Attach the traffic subsystem in manual mode (requests come from
    // `inject_request`, not a generator) and keep per-request records.
    let wcfg = WorkloadConfig {
        record_requests: true,
        ..WorkloadConfig::default()
    };
    rt.attach_workload(Silent, wcfg);

    // The Avatar embedding predicts each key's responsible host — the live
    // route must resolve at exactly that host.
    let av = Avatar::new(n_guests, rt.ids().iter().copied());
    let gateway = *rt.ids().iter().min().unwrap(); // requests enter here

    let keys = ["alpha", "bravo", "charlie", "delta", "echo"];
    for key in keys {
        rt.inject_request(gateway, hash_key(key, n_guests));
    }
    // Drive the network until every lookup resolves (one hop per round;
    // the legal overlay stays silent while serving — only traffic moves).
    while rt.request_stats().in_flight > 0 {
        rt.step();
    }

    // Records land in completion order; request ids are issue order, so
    // sorting by id realigns them with `keys` for the printout.
    let mut records = rt.request_stats().records.clone();
    records.sort_unstable_by_key(|r| r.id);
    for (key, rec) in keys.iter().zip(&records) {
        let dest = rec.dest.expect("lookup completed");
        println!(
            "key {key:8} → guest slot {:3} → host {dest:3} ({} live hops, {} rounds)",
            rec.key,
            rec.hops,
            rec.done_round - rec.issued_round
        );
        assert_eq!(
            dest,
            av.host_of(rec.key),
            "route resolved at the responsible host"
        );
    }
    assert_eq!(rt.request_stats().completed, keys.len() as u64);
    assert!(
        chord::runtime_is_legal(&rt),
        "traffic left the overlay legal"
    );
    println!("✓ all lookups resolved over live links");

    // ---- checkpoint/restore: converge once, serve anywhere --------------
    // The stabilized (and still serving) runtime serializes to a sealed,
    // hash-verified snapshot. Restoring skips the stabilization budget
    // entirely: the restored overlay is already legal and keeps serving
    // exactly where the original left off — including the per-request
    // records of the batch above.
    let path = std::env::temp_dir().join("kv_lookup_demo.snap");
    rt.save_snapshot_to(&path).expect("snapshot writes");
    let bytes = std::fs::read(&path).expect("snapshot reads back");
    println!(
        "checkpoint: {} bytes ({} per host) at {}",
        bytes.len(),
        bytes.len() / hosts,
        path.display()
    );

    let mut rt2 = chord::restore_runtime::<ChordTarget>(&bytes, Config::seeded(77))
        .expect("snapshot restores");
    std::fs::remove_file(&path).ok();
    assert!(
        chord::runtime_is_legal(&rt2),
        "restored overlay is legal without re-running stabilization"
    );
    // The snapshot carried the whole workload, `Silent` generator
    // included; re-attaching it arms the router, which is code, and resumes
    // the saved traffic (the saved WorkloadConfig wins, so the restored run
    // keeps recording requests).
    rt2.attach_workload(Silent, WorkloadConfig::default());

    let more = ["foxtrot", "golf", "hotel"];
    for key in more {
        rt2.inject_request(gateway, hash_key(key, n_guests));
    }
    while rt2.request_stats().in_flight > 0 {
        rt2.step();
    }
    let mut records = rt2.request_stats().records.clone();
    records.sort_unstable_by_key(|r| r.id);
    for (key, rec) in more.iter().zip(records.iter().skip(keys.len())) {
        let dest = rec.dest.expect("lookup completed");
        println!(
            "key {key:8} → guest slot {:3} → host {dest:3} ({} live hops, restored runtime)",
            rec.key, rec.hops
        );
        assert_eq!(dest, av.host_of(rec.key), "restored routes stay correct");
    }
    assert_eq!(
        rt2.request_stats().completed,
        (keys.len() + more.len()) as u64,
        "the restored runtime continued the original request accounting"
    );
    println!("✓ restored from checkpoint and kept serving");
}
