//! Cross-crate integration tests: the full stack from arbitrary initial
//! configurations to the silent legal Avatar(Chord), plus the guarantees the
//! stabilized overlay provides to applications.

use chord_scaffolding::chord::{self, ChordTarget, Phase};
use chord_scaffolding::sim::{init::Shape, Config, Runtime};
use chord_scaffolding::topology::{Avatar, Cbt, Chord};
use scaffold_bench::{budget, survival_probability};

/// Drive to Avatar(Chord) legality with the run-to-goal driver.
fn stabilize(
    rt: &mut Runtime<chord::ScaffoldProgram<ChordTarget>>,
    max_rounds: u64,
) -> Option<u64> {
    rt.run_monitored(chord::legality(), max_rounds)
        .rounds_if_satisfied()
}

#[test]
fn stabilizes_from_every_shape_and_matches_projection() {
    let n = 128u32;
    let hosts = 12usize;
    let target = ChordTarget::classic(n);
    for (i, shape) in Shape::ALL.into_iter().enumerate() {
        let mut rt =
            chord::runtime_from_shape(target, hosts, shape, Config::seeded(500 + i as u64));
        stabilize(&mut rt, budget(n, hosts))
            .unwrap_or_else(|| panic!("{} failed to stabilize", shape.label()));
        // The final host topology realizes every guest Chord edge.
        let ids: Vec<u32> = rt.ids().to_vec();
        let av = Avatar::new(n, ids.iter().copied());
        let guest_chord = Chord::classic(n);
        for (a, b) in guest_chord.edges() {
            let (ha, hb) = (av.host_of(a), av.host_of(b));
            if ha != hb {
                assert!(
                    rt.topology().has_edge(ha, hb),
                    "{}: guest edge ({a},{b}) not realized",
                    shape.label()
                );
            }
        }
        // And the scaffold tree stays embedded (the pattern keeps it).
        for (a, b) in Cbt::new(n).edges() {
            let (ha, hb) = (av.host_of(a), av.host_of(b));
            if ha != hb {
                assert!(rt.topology().has_edge(ha, hb));
            }
        }
    }
}

#[test]
fn stabilized_overlay_is_failure_robust() {
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    let n = 256u32;
    let hosts = 32usize;
    let target = ChordTarget::classic(n);
    let mut rt = chord::runtime_from_shape(target, hosts, Shape::Random, Config::seeded(600));
    stabilize(&mut rt, budget(n, hosts)).expect("stabilization");

    let mut rng = SmallRng::seed_from_u64(601);
    // Removing 2 random hosts almost never disconnects the Chord overlay;
    // the pure scaffold tree would disconnect on any internal host.
    let p = survival_probability(rt.topology(), 2, 50, &mut rng);
    assert!(p > 0.85, "survival probability {p} too low");
}

#[test]
fn repeated_faults_always_heal() {
    use chord_scaffolding::sim::fault::{inject, Fault};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    let n = 64u32;
    let hosts = 8usize;
    let target = ChordTarget::classic(n);
    let mut rt = chord::runtime_from_shape(target, hosts, Shape::Line, Config::seeded(700));
    stabilize(&mut rt, budget(n, hosts)).expect("initial");
    let mut rng = SmallRng::seed_from_u64(701);
    for episode in 0..3 {
        inject(&mut rt, &Fault::Rewire { count: 2 }, &mut rng);
        stabilize(&mut rt, budget(n, hosts))
            .unwrap_or_else(|| panic!("episode {episode} failed to heal"));
    }
}

#[test]
fn every_host_ends_done_and_quiet() {
    let n = 128u32;
    let hosts = 16usize;
    let target = ChordTarget::classic(n);
    let mut rt = chord::runtime_from_shape(target, hosts, Shape::TwoCliques, Config::seeded(800));
    stabilize(&mut rt, budget(n, hosts)).expect("stabilization");
    for _ in 0..5 {
        rt.step();
    }
    assert!(rt.programs().all(|(_, p)| p.core.phase == Phase::Done));
    let before = rt.metrics().total_messages;
    rt.run(30);
    assert_eq!(
        rt.metrics().total_messages,
        before,
        "network must be silent"
    );
}

#[test]
fn guest_routing_works_on_final_overlay() {
    use chord_scaffolding::topology::routing::ideal_route;
    let n = 128u32;
    let chord_desc = Chord::classic(n);
    for s in [0u32, 17, 99] {
        for t in [3u32, 64, 127] {
            if s == t {
                continue;
            }
            let r = ideal_route(&chord_desc, s, t);
            assert!(r.reached);
            assert!(r.hops() as u32 <= chord_desc.finger_count() + 1);
        }
    }
}
