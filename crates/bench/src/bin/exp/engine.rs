//! The engine rows. `engine_scale` emits the exact engine documents of
//! `BENCH_engine.json` — the daemon sweep (E12c), post-convergence
//! activations (E12d) and memory at scale (E14b). `silent_round` prints
//! host time, so no document of it is ever committed.

use crate::note;
use scaffold_bench::{budget, f2, legal_cbt_standalone, seeded, ExpArgs, Table};
use ssim::{init::Shape, NetModel};
use std::time::Instant;

/// The exact engine documents of `BENCH_engine.json` (seed = `N`, default
/// 42; `--smoke` for the committed sizes, `--full` adds the 256k/1M-host
/// E14b rows).
pub fn engine_scale(args: &ExpArgs) {
    let seed = args.count.unwrap_or(42);
    let smoke = args.smoke;

    // E12c: daemon sweep — Avatar(CBT) stabilization under each scheduler.
    let mut daemons = Table::new(&[
        "sched",
        "hosts",
        "N",
        "legal@",
        "rounds",
        "activations",
        "avg_active",
    ]);
    let (cbt_hosts, cbt_n): (usize, u32) = if smoke { (48, 256) } else { (512, 2048) };
    for spec in ["sync", "activity", "random:0.5", "rr:4"] {
        let mut rt = avatar_cbt::runtime_from_shape(cbt_n, cbt_hosts, Shape::Random, seeded(seed));
        rt.set_scheduler(ssim::sched::from_spec(spec, seed).expect("known spec"));
        let out = rt.run_monitored(avatar_cbt::legality(), budget(cbt_n, cbt_hosts));
        let rounds = rt.metrics().rounds_executed.max(1);
        let acts = rt.metrics().total_activations;
        daemons.row(vec![
            spec.to_string(),
            cbt_hosts.to_string(),
            cbt_n.to_string(),
            out.rounds_if_satisfied()
                .map_or("-".into(), |r| r.to_string()),
            rounds.to_string(),
            acts.to_string(),
            f2(acts as f64 / rounds as f64),
        ]);
    }
    daemons.emit(
        args,
        "E12c: daemon sweep (Avatar(CBT) stabilization per scheduler)",
    );

    // E12d: post-convergence activations. The fixture starts in the
    // installed legal configuration (from-scratch stabilization at 10k
    // hosts takes minutes: an E2 run stabilized 16,384 hosts in 558 s on a
    // 2-vCPU VM; E12c measures time-to-legality at feasible sizes), so
    // legality holds from round 0 and the measured window — one
    // stabilization budget, the engine's canonical convergence-scale
    // duration — is pure post-convergence behavior: the root observes the
    // clean feedback wave within the first epoch, the quiesce wave drains,
    // and the dormant network makes the activity-driven window (nearly)
    // free while the synchronous daemon keeps paying `hosts` per round.
    let (big_hosts, big_n): (usize, u32) = if smoke { (256, 1024) } else { (10_000, 16_384) };
    let win = budget(big_n, big_hosts);
    let window = |activity: bool| -> u64 {
        let mut rt = legal_cbt_standalone(big_n, big_hosts, seed);
        assert!(
            avatar_cbt::runtime_is_legal(&rt),
            "E12d fixture must start legal"
        );
        if activity {
            rt.set_scheduler(Box::new(ssim::sched::ActivityDriven));
        }
        rt.run(win);
        assert!(
            avatar_cbt::runtime_is_legal(&rt),
            "E12d fixture must stay legal through the window"
        );
        rt.metrics().total_activations
    };
    let sync_acts = window(false);
    let act_acts = window(true);
    let mut post = Table::new(&[
        "hosts",
        "N",
        "window",
        "sync_activations",
        "activity_activations",
        "ratio",
    ]);
    post.row(vec![
        big_hosts.to_string(),
        big_n.to_string(),
        win.to_string(),
        sync_acts.to_string(),
        act_acts.to_string(),
        f2(sync_acts as f64 / act_acts.max(1) as f64),
    ]);
    post.emit(
        args,
        "E12d: post-convergence activations, sync vs activity-driven \
         (installed-legal start, window = one stabilization budget)",
    );

    // E14b: memory at scale over installed-legal Avatar(Chord) fixtures,
    // each built, snapshotted and restored from those bytes — snapshot
    // `bytes/host` (varint encoding, interned neighbor state, boxed zip
    // payloads) and resident `mem bytes/host` from `Runtime::mem_footprint`
    // (paged inboxes, adjacency arena, transit pool, engine scratch). The
    // 256k- and 1M-host rows form a separate `[full]` document.
    let e14b_groups: &[(&str, &[(usize, u32)])] = {
        const SMOKE_DOC: &str =
            "E14b: engine memory at scale (snapshot + resident bytes/host, compaction gate)";
        const FULL_DOC: &str =
            "E14b [full]: engine memory at 256k-1M hosts (snapshot + resident bytes/host)";
        const SMOKE_SIZES: &[(usize, u32)] = &[(65_536, 131_072)];
        const FULL_SIZES: &[(usize, u32)] = &[(262_144, 524_288), (1_048_576, 2_097_152)];
        if smoke && !args.full {
            &[(SMOKE_DOC, SMOKE_SIZES)]
        } else {
            &[(SMOKE_DOC, SMOKE_SIZES), (FULL_DOC, FULL_SIZES)]
        }
    };
    let e14b_rounds: u64 = 64;
    for &(doc, sizes) in e14b_groups {
        let mut e14b = Table::new(&["hosts", "N", "rounds", "bytes/host", "mem bytes/host"]);
        for &(hosts, n) in sizes {
            let cfg = seeded(seed);
            let bytes = scaffold_bench::legal_chord_runtime(n, hosts, cfg, NetModel::ideal())
                .save_snapshot();
            let mut rt =
                chord_scaffold::restore_runtime::<chord_scaffold::ChordTarget>(&bytes, cfg)
                    .expect("E14b snapshot restores");
            assert_eq!(rt.ids().len(), hosts, "E14b: restored host count");
            rt.run(e14b_rounds);
            assert_eq!(
                rt.metrics().total_violations,
                0,
                "E14b: the restored legal overlay must stay silent"
            );
            // Steady-state footprint: measured after the rounds so inbox
            // pages, emit sinks and transit buckets sit at their recycled
            // capacities, not the restore minimum.
            let mem = rt.mem_footprint().total();
            e14b.row(vec![
                hosts.to_string(),
                n.to_string(),
                e14b_rounds.to_string(),
                (bytes.len() / hosts).to_string(),
                (mem / hosts).to_string(),
            ]);
        }
        e14b.emit(args, doc);
    }

    note(
        args,
        &[
            "Expected shape: in the daemon sweep `activity` matches `sync` on legal@",
            "exactly (execution equivalence) at the same activations until legal;",
            "`random`/`rr` may time out — the protocol's beacon freshness assumes the",
            "synchronous daemon, which is precisely what those stress daemons probe.",
            "Post-convergence: the dormant network makes the activity window ~free",
            "(ratio >> 5).",
            "E14b: both bytes/host columns roughly flat in hosts; the snapshot column is",
            "the compaction headline, the resident column the live heap.",
        ],
    );
}

/// E14c: the wall-clock cost of one silent synchronous round per host, at
/// 32k, 64k and 256k hosts (`--smoke`: 32k only; `--full` adds 1M, which
/// peaks near 5.5 GB resident). Each size is an installed-legal Avatar(Chord) with
/// `N` = 2 × hosts, warmed for 256 rounds, then timed over 15 segments of
/// about 2^22 host-rounds; the cells are the quartiles of the segments.
/// `build s` is the wall-clock time of the fixture's build
/// ([`scaffold_bench::legal_chord_runtime`]), one sample per size: its
/// ratio to the host count shows whether the build stays linear. `sys s`
/// is the part of it the process spent in the kernel (page faults on
/// fresh memory, mostly), read from its own `/proc/self/stat`.
/// Host time: print it, never commit it.
pub fn silent_round(args: &ExpArgs) {
    let seed = args.count.unwrap_or(7);
    let mut sizes = if args.smoke {
        vec![32_768]
    } else {
        vec![32_768, 65_536, 262_144]
    };
    if args.full {
        sizes.push(1_048_576);
    }
    let mut table = Table::new(&[
        "hosts",
        "N",
        "build s",
        "sys s",
        "rounds",
        "ns q1",
        "ns median",
        "ns q3",
    ]);
    for hosts in sizes {
        let n = 2 * hosts as u32;
        let (t0, sys0) = (Instant::now(), sys_seconds());
        let mut rt = scaffold_bench::legal_chord_runtime(n, hosts, seeded(seed), NetModel::ideal());
        let build = t0.elapsed().as_secs_f64();
        let sys = sys0.zip(sys_seconds()).map(|(a, b)| b - a);
        rt.run(256);
        let seg = ((1 << 22) / hosts as u64).max(4);
        let mut ns: Vec<f64> = (0..15)
            .map(|_| {
                let t0 = Instant::now();
                rt.run(seg);
                t0.elapsed().as_nanos() as f64 / (seg * hosts as u64) as f64
            })
            .collect();
        assert_eq!(
            rt.metrics().total_messages,
            0,
            "E14c: the round stays silent"
        );
        ns.sort_by(f64::total_cmp);
        table.row(vec![
            hosts.to_string(),
            n.to_string(),
            format!("{build:.3}"),
            sys.map_or("-".into(), |s| format!("{s:.2}")),
            (15 * seg).to_string(),
            f2(ns[3]),
            f2(ns[7]),
            f2(ns[11]),
        ]);
    }
    table.emit(
        args,
        "E14c: ns per host-round of a silent synchronous round (host time, print only)",
    );
    note(
        args,
        &[
            "Host time on this machine: compare sizes within one run, and a change",
            "against its parent in interleaved runs. Flat in hosts means the round runs",
            "at memory speed; a step up at some size is the cliff ARCHITECTURE.md",
            "(\"What a silent round costs\") describes. `build s` over hosts flat means",
            "the fixture build is linear (ARCHITECTURE.md, \"What building a legal",
            "overlay costs\"); `sys s` is its kernel share, in 10 ms ticks.",
        ],
    );
}

/// The process's own kernel-mode CPU time in seconds: `stime` from
/// `/proc/self/stat`, in the 1/100 s ticks (`USER_HZ`) Linux reports
/// there, or `None` where that file cannot be read.
fn sys_seconds() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // The command name (field 2) may hold spaces; field 15 is the 13th
    // after its closing parenthesis.
    let (_, rest) = stat.rsplit_once(')')?;
    let ticks: u64 = rest.split_whitespace().nth(12)?.parse().ok()?;
    Some(ticks as f64 / 100.0)
}
