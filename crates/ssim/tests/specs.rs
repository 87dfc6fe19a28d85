//! Generated strings against the two CLI spec parsers, `net::from_spec`
//! (`--net`) and `sched::from_spec` (`--sched`). Every string must be
//! answered with a value or an error, never a panic; every accepted network
//! model must be valid and survive `to_spec` unchanged.

use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use ssim::net::{from_spec as net_spec, to_spec};
use ssim::sched::{from_spec as sched_spec, SchedView};
use ssim::{NodeSlot, Topology};

/// Heads of both grammars, valid and near misses.
const HEADS: &[&str] = &[
    "",
    "wan",
    "ideal",
    "lan",
    "WAN",
    " wan",
    "wan ",
    "sync",
    "synchronous",
    "activity",
    "activity-driven",
    "random",
    "rr",
    "rr:",
    "random:",
];
/// Option keys, the four real ones among empty, retired and misspelt keys.
const KEYS: &[&str] = &[
    "loss", "dup", "delay", "jitter", "", "bw", "linkloss", "LOSS", "loss ", " delay", "p",
];
/// Values: the edges of every numeric type the parsers meet.
const VALUES: &[&str] = &[
    "",
    "0",
    "1",
    "2",
    "0.5",
    "1.5",
    "-1",
    "-0",
    "-0.0",
    "+1",
    "1e-9",
    "5e-324",
    "1e309",
    "NaN",
    "nan",
    "inf",
    "-inf",
    "infinity",
    "Infinity",
    "0x10",
    " 1",
    "1 ",
    "1_000",
    "4294967293",
    "4294967294",
    "4294967295",
    "18446744073709551615",
    "18446744073709551616",
    "99999999999999999999999999",
    "abc",
    "é",
];
/// Separators, doubled and stray ones included.
const SEPS: &[&str] = &[":", ",", "=", ",,", "::", "==", ":,", ",=", " ", ";"];

/// One generated spec: a head, then a few `sep key sep value` pieces, with
/// now and then a raw fragment or arbitrary character spliced in.
fn generate(rng: &mut SmallRng) -> String {
    let pick = |rng: &mut SmallRng, xs: &[&str]| -> String { xs.choose(rng).unwrap().to_string() };
    let mut s = pick(rng, HEADS);
    for _ in 0..rng.gen_range(0..5) {
        match rng.gen_range(0..8) {
            0 => s.push_str(&pick(rng, SEPS)),
            1 => s.push_str(&pick(rng, VALUES)),
            2 => s.push(char::from_u32(rng.gen_range(0..0x3000)).unwrap_or('\u{fffd}')),
            _ => {
                let sep = if s.ends_with(':') || s.ends_with(',') {
                    String::new()
                } else {
                    pick(rng, &[":", ","])
                };
                s.push_str(&sep);
                s.push_str(&pick(rng, KEYS));
                s.push('=');
                s.push_str(&pick(rng, VALUES));
            }
        }
    }
    s
}

/// The check every string gets from both parsers.
fn check(spec: &str, accepted: &mut [usize; 2]) {
    if let Ok(m) = net_spec(spec) {
        accepted[0] += 1;
        assert_eq!(m.validate(), Ok(()), "{spec:?} accepted an invalid model");
        let text = to_spec(&m);
        assert_eq!(
            net_spec(&text),
            Ok(m),
            "{spec:?} -> {text:?} does not round-trip"
        );
    }
    if let Some(mut s) = sched_spec(spec, 7) {
        accepted[1] += 1;
        // An accepted daemon must also be usable: one selection.
        let topo = Topology::new(0..4u32, [(0, 1), (1, 2), (2, 3)]);
        let dirty: Vec<NodeSlot> = topo.live_slots().map(|(slot, _)| slot).collect();
        let mut out = Vec::new();
        s.select(
            &SchedView {
                round: 3,
                topo: &topo,
                dirty: &dirty,
            },
            &mut out,
        );
        assert!(out.len() <= 4, "{spec:?} selected {out:?}");
    }
}

#[test]
fn fixed_edge_cases_answer_without_panicking() {
    let mut accepted = [0; 2];
    for spec in [
        "",
        ":",
        "wan:",
        "wan:,",
        "wan:,,",
        "wan:=",
        "wan:=1",
        "wan:loss",
        "wan:loss=",
        "wan:loss==1",
        "wan:loss=NaN",
        "wan:dup=nan",
        "wan:loss=inf",
        "wan:dup=-inf",
        "wan:loss=-0.1",
        "wan:delay=-1",
        "wan:jitter=-0",
        "wan:delay=18446744073709551615",
        "wan:delay=18446744073709551616",
        "wan:delay=4294967294",
        "wan:delay=4294967295",
        "wan:delay=4294967294,jitter=1",
        "wan:loss=1e309",
        "wan:loss=5e-324",
        "wan::loss=1",
        "wan:loss=1,",
        ",wan",
        "random:",
        "random:NaN",
        "random:inf",
        "random:-0.1",
        "random:1.5",
        "random:-0",
        "random:1e-300",
        "rr:",
        "rr:0",
        "rr:-1",
        "rr:18446744073709551615",
        "rr:18446744073709551616",
        "rr:1:2",
        "random:0.5:1",
    ] {
        check(spec, &mut accepted);
    }
    // The rejections the parsers are for (a sample, not the whole list).
    for bad in [
        "wan:loss=NaN",
        "wan:loss=inf",
        "wan:delay=-1",
        "wan:delay=4294967295",
        "wan:=",
    ] {
        assert!(net_spec(bad).is_err(), "{bad:?}");
    }
    for bad in [
        "random:NaN",
        "random:inf",
        "random:-0.1",
        "rr:0",
        "rr:-1",
        "rr:",
    ] {
        assert!(sched_spec(bad, 7).is_none(), "{bad:?}");
    }
}

#[test]
fn generated_specs_answer_without_panicking() {
    let mut rng = SmallRng::seed_from_u64(0x5BEC);
    let mut accepted = [0; 2];
    for _ in 0..20_000 {
        let spec = generate(&mut rng);
        check(&spec, &mut accepted);
    }
    // The generator reaches both sides of each parser.
    assert!(
        accepted[0] > 100 && accepted[1] > 100,
        "accepted {accepted:?}"
    );
}
