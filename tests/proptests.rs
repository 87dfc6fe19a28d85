//! Property-based tests (proptest) on the core invariants.

use chord_scaffolding::topology::{cbt::Cbt, chord::Chord, Avatar};
use proptest::prelude::*;

proptest! {
    /// Responsible ranges always partition the guest space.
    #[test]
    fn avatar_ranges_partition(
        n_exp in 3u32..11,
        picks in proptest::collection::btree_set(0u32..2048, 1..40),
    ) {
        let n = 1u32 << n_exp;
        let hosts: Vec<u32> = picks.into_iter().filter(|&v| v < n).collect();
        prop_assume!(!hosts.is_empty());
        let av = Avatar::new(n, hosts.iter().copied());
        prop_assert!(av.ranges_partition_guest_space());
        // host_of is consistent with range_of.
        for g in 0..n {
            let h = av.host_of(g);
            prop_assert!(av.range_of(h).contains(g));
        }
    }

    /// CBT parent/child relations are mutually inverse and levels increase.
    #[test]
    fn cbt_structure_consistent(n in 1u32..600) {
        let t = Cbt::new(n);
        for g in 0..n {
            if let Some(p) = t.parent(g) {
                let (l, r) = t.children(p);
                prop_assert!(l == Some(g) || r == Some(g));
                prop_assert_eq!(t.level(g), t.level(p) + 1);
            }
        }
    }

    /// Canonical decomposition tiles any interval disjointly.
    #[test]
    fn cbt_decompose_tiles(
        (n, a, b) in (2u32..400).prop_flat_map(|n| (Just(n), 0..n, 1..=n)),
    ) {
        prop_assume!(a < b);
        let t = Cbt::new(n);
        let mut covered: Vec<u32> = t
            .decompose(a, b)
            .into_iter()
            .flat_map(|p| p.interval.0..p.interval.1)
            .collect();
        covered.sort_unstable();
        let expect: Vec<u32> = (a..b).collect();
        prop_assert_eq!(covered, expect);
    }

    /// Crossing edges found by the O(log N) routine match brute force.
    #[test]
    fn cbt_crossing_edges_exact(
        (n, a, b) in (2u32..200).prop_flat_map(|n| (Just(n), 0..n, 1..=n)),
    ) {
        prop_assume!(a < b);
        let t = Cbt::new(n);
        let mut expect: Vec<(u32, u32)> = Vec::new();
        for g in a..b {
            for nb in t.neighborhood(g) {
                if !(a <= nb && nb < b) {
                    expect.push((g, nb));
                }
            }
        }
        expect.sort_unstable();
        prop_assert_eq!(t.crossing_edges(a, b), expect);
    }

    /// Chord finger arithmetic: source inverts finger; neighborhoods are
    /// symmetric.
    #[test]
    fn chord_fingers_involutive(
        (n_exp, i, k) in (2u32..12).prop_flat_map(|e| (Just(e), 0..(1u32 << e), 0..e)),
    ) {
        let n = 1u32 << n_exp;
        let c = Chord::classic(n);
        prop_assume!(k < c.finger_count());
        let j = c.finger(i, k);
        prop_assert_eq!(c.finger_source(j, k), i);
        prop_assert!(c.neighborhood(j).contains(&i) || i == j);
    }

    /// Greedy routing on the ideal table always reaches within log2 N hops.
    #[test]
    fn chord_routing_reaches(
        (n_exp, s, t) in (3u32..10).prop_flat_map(|e| (Just(e), 0..(1u32 << e), 0..(1u32 << e))),
    ) {
        let n = 1u32 << n_exp;
        prop_assume!(s != t);
        let c = Chord::classic(n);
        let r = chord_scaffolding::topology::routing::ideal_route(&c, s, t);
        prop_assert!(r.reached);
        prop_assert!(r.hops() as u32 <= n_exp + 1);
    }

    /// The merge ownership rule agrees with the global Avatar assignment for
    /// arbitrary two-cluster splits.
    #[test]
    fn merge_winner_matches_avatar(
        n_exp in 3u32..10,
        picks in proptest::collection::btree_set(0u32..512, 2..24),
        split_seed in 0u64..1000,
    ) {
        let n = 1u32 << n_exp;
        let all: Vec<u32> = picks.into_iter().filter(|&v| v < n).collect();
        prop_assume!(all.len() >= 2);
        // Deterministic split into two non-empty sides.
        let mut a_side = Vec::new();
        let mut b_side = Vec::new();
        for (i, &v) in all.iter().enumerate() {
            if (split_seed >> (i % 60)) & 1 == 0 {
                a_side.push(v);
            } else {
                b_side.push(v);
            }
        }
        prop_assume!(!a_side.is_empty() && !b_side.is_empty());
        let av_union = Avatar::new(n, all.iter().copied());
        let av_a = Avatar::new(n, a_side.iter().copied());
        let av_b = Avatar::new(n, b_side.iter().copied());
        for g in 0..n {
            let ha = av_a.host_of(g);
            let hb = av_b.host_of(g);
            let winner = if chord_scaffolding::scaffold::merge::won_by(ha, hb, (g, g + 1))
                .is_empty()
            {
                hb
            } else {
                ha
            };
            prop_assert_eq!(winner, av_union.host_of(g), "guest {}", g);
        }
    }

    /// Simulator invariant: after arbitrary small protocol runs, adjacency
    /// stays symmetric and sorted (checked via the topology's own audit).
    #[test]
    fn sim_topology_invariants(seed in 0u64..50, extra in 0usize..20) {
        use chord_scaffolding::sim::{init, Config, Runtime, Program, Ctx};
        use rand::SeedableRng;
        struct Chatter;
        impl Program for Chatter {
            type Msg = u8;
            fn step(&mut self, ctx: &mut Ctx<'_, u8>) {
                let nb = ctx.neighbors();
                for &v in nb.iter().take(2) {
                    ctx.send(v, 1);
                }
                if nb.len() >= 2 {
                    ctx.link(nb[0], nb[nb.len() - 1]);
                }
                if nb.len() >= 3 {
                    ctx.unlink(nb[1]);
                }
            }
        }
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        let ids = init::random_ids(12, 64, &mut rng);
        let edges = init::random_connected(&ids, extra, &mut rng);
        let mut rt = Runtime::new(
            Config::seeded(seed),
            ids.iter().map(|&v| (v, Chatter)),
            edges,
        );
        rt.run(15);
        prop_assert!(rt.topology().check_invariants());
    }
}
