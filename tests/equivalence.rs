//! Negative controls for the equivalence harness (`tests/harness`): a
//! program that breaks the contract an axis checks must fail that axis,
//! or the byte-identity cases built on the harness prove nothing.

mod harness;

use harness::{Case, ACTIVITY, SYNC};
use ssim::snapshot::{Reader, Writer};
use ssim::{Config, Ctx, Persist, Program, Runtime, SnapshotError};

/// A host that beacons to its neighbors for its first `left` rounds. It
/// breaks two contracts, one per control: `is_quiescent` says yes while
/// beacons are left (a daemon that trusts it skips them), and `save`
/// drops `left` (a restored host has none).
#[derive(Clone)]
struct Drip {
    left: u64,
    sent: u64,
}

impl Program for Drip {
    type Msg = u8;
    fn step(&mut self, ctx: &mut Ctx<'_, u8>) {
        if self.left > 0 {
            self.left -= 1;
            for &v in ctx.neighbors() {
                ctx.send(v, 1);
                self.sent += 1;
            }
        }
    }
    fn is_quiescent(&self) -> bool {
        true
    }
}

impl Persist for Drip {
    fn save(&self, w: &mut Writer) {
        self.sent.save(w);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        let sent = u64::load(r)?;
        Ok(Self { left: 0, sent })
    }
}

/// Host 1 has eight beacons on a three-host line; the others stay quiet.
/// No shadow-step check is armed, so only the axis comparison can catch
/// the lie, in debug and release builds alike.
fn drip_case() -> Case<'static, Drip> {
    Case::new("drip", Config::seeded(1), |cfg| {
        let host = |id, left| (id, Drip { left, sent: 0 });
        Runtime::new(
            cfg,
            [host(1, 8), host(2, 0), host(3, 0)],
            vec![(1, 2), (2, 3)],
        )
    })
}

#[test]
#[should_panic(expected = "split axis (restores at [3] on 1 threads): metrics JSON differ")]
fn a_save_that_drops_a_field_fails_the_split_axis() {
    drip_case()
        .split(Runtime::restore_snapshot, &[3])
        .run(|arm| arm.run(12));
}

#[test]
#[should_panic(expected = "daemon axis (activity-driven): activity-blind metrics differ")]
fn a_quiescent_host_that_still_sends_fails_the_daemon_axis() {
    drip_case()
        .daemons(&[SYNC, ACTIVITY])
        .run(|arm| arm.run(12));
}
