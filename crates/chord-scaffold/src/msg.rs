//! Messages of the combined scaffolding protocol: the embedded Avatar(CBT)
//! traffic plus the phase machinery and the PIF finger waves of Algorithm 1.

use avatar_cbt::CbtMsg;
use ssim::snapshot::{persist_enum, persist_struct};
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

persist_enum!(Phase {
    0 => Cbt,
    1 => Chord,
    2 => Done,
});
persist_struct!(PhaseInfo { phase, last_wave });
persist_enum!(ScafMsg {
    0 => Cbt(m),
    1 => Phase(pi),
    2 => StartChord,
    3 => Prop { k },
    4 => Fb { k, ring0, ring_n },
    5 => StartDone,
    6 => FbDone,
});

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
