//! Messages of the combined scaffolding protocol: the embedded Avatar(CBT)
//! traffic plus the phase machinery and the PIF finger waves of Algorithm 1.

use avatar_cbt::CbtMsg;
use ssim::snapshot::{Persist, Reader, SnapshotError, Writer};
use ssim::NodeId;

/// The phase of Section 4.4: which algorithm a host is executing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize)]
pub enum Phase {
    /// Building the scaffold: executing the Avatar(CBT) algorithm.
    Cbt,
    /// Building the target: executing the PIF waves of Algorithm 1.
    Chord,
    /// Legal target reached: take no actions while the neighborhood is
    /// consistent (the network is *silent*).
    Done,
}

/// Per-round phase information shared with neighbors during the CHORD phase
/// (part of the state exchange Definition 3's `scaffolded` predicate reads).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseInfo {
    /// The sender's phase.
    pub phase: Phase,
    /// Highest wave whose feedback the sender completed (−1 = none).
    pub last_wave: i64,
}

/// Messages of the scaffolding protocol.
#[derive(Debug, Clone)]
pub enum ScafMsg {
    /// Embedded Avatar(CBT) protocol traffic.
    Cbt(CbtMsg),
    /// Phase/wave state exchange (CHORD phase only; DONE is silent).
    Phase(PhaseInfo),
    /// Phase switch CBT→CHORD, propagated down the host tree by the root
    /// after a clean feedback wave.
    StartChord,
    /// `PIF(MakeFinger(k))` propagate action (Algorithm 1 lines 2, 10).
    Prop {
        /// The wave (finger) index.
        k: u32,
    },
    /// Feedback action of wave `k` (Algorithm 1 lines 3–7, 11–14), carrying
    /// the walked edges to guests `0` and `N − 1` during wave 0.
    Fb {
        /// The wave index.
        k: u32,
        /// Carried endpoint owning guest 0 (wave 0 only).
        ring0: Option<NodeId>,
        /// Carried endpoint owning guest `N − 1` (wave 0 only).
        ring_n: Option<NodeId>,
    },
    /// Final wave: set phase to DONE if the local neighborhood is consistent
    /// with the legal Avatar(Chord) network.
    StartDone,
    /// Feedback of the DONE wave.
    FbDone,
}

impl avatar_cbt::Carrier for ScafMsg {
    fn wrap(msg: CbtMsg) -> Self {
        ScafMsg::Cbt(msg)
    }
    fn peel(&self) -> Option<&CbtMsg> {
        match self {
            ScafMsg::Cbt(m) => Some(m),
            _ => None,
        }
    }
}

impl Persist for Phase {
    fn save(&self, w: &mut Writer) {
        w.u8(match self {
            Phase::Cbt => 0,
            Phase::Chord => 1,
            Phase::Done => 2,
        });
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        match r.u8()? {
            0 => Ok(Phase::Cbt),
            1 => Ok(Phase::Chord),
            2 => Ok(Phase::Done),
            t => Err(SnapshotError::Corrupt(format!("Phase tag {t}"))),
        }
    }
}

impl Persist for PhaseInfo {
    fn save(&self, w: &mut Writer) {
        self.phase.save(w);
        w.i64(self.last_wave);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        Ok(Self {
            phase: Phase::load(r)?,
            last_wave: r.i64()?,
        })
    }
}

impl Persist for ScafMsg {
    fn save(&self, w: &mut Writer) {
        match self {
            ScafMsg::Cbt(m) => {
                w.u8(0);
                m.save(w);
            }
            ScafMsg::Phase(pi) => {
                w.u8(1);
                pi.save(w);
            }
            ScafMsg::StartChord => w.u8(2),
            ScafMsg::Prop { k } => {
                w.u8(3);
                w.u32(*k);
            }
            ScafMsg::Fb { k, ring0, ring_n } => {
                w.u8(4);
                w.u32(*k);
                ring0.save(w);
                ring_n.save(w);
            }
            ScafMsg::StartDone => w.u8(5),
            ScafMsg::FbDone => w.u8(6),
        }
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        match r.u8()? {
            0 => Ok(ScafMsg::Cbt(CbtMsg::load(r)?)),
            1 => Ok(ScafMsg::Phase(PhaseInfo::load(r)?)),
            2 => Ok(ScafMsg::StartChord),
            3 => Ok(ScafMsg::Prop { k: r.u32()? }),
            4 => Ok(ScafMsg::Fb {
                k: r.u32()?,
                ring0: Option::load(r)?,
                ring_n: Option::load(r)?,
            }),
            5 => Ok(ScafMsg::StartDone),
            6 => Ok(ScafMsg::FbDone),
            t => Err(SnapshotError::Corrupt(format!("ScafMsg tag {t}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `ScafMsg` wraps `CbtMsg` with zero width overhead: the wrapper's
    /// discriminant fits the inner enum's niche. Pinned so a new variant or
    /// field cannot silently widen every in-flight message of the combined
    /// protocol.
    #[test]
    #[cfg(target_pointer_width = "64")]
    fn message_layout_stays_compact() {
        use std::mem::size_of;
        assert_eq!(
            size_of::<ScafMsg>(),
            size_of::<CbtMsg>(),
            "niche-packed wrapper"
        );
        assert_eq!(size_of::<ScafMsg>(), 40);
        assert_eq!(size_of::<PhaseInfo>(), 16);
    }
}
