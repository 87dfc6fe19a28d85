//! # overlay — topology definitions for the network-scaffolding reproduction
//!
//! Pure (simulator-independent) definitions of the overlay topologies used in
//! Berns, *"Network Scaffolding for Efficient Stabilization of the Chord
//! Overlay Network"* (SPAA 2021):
//!
//! * [`chord`] — the `Chord(N)` guest network of Definition 1: node set
//!   `[0, N)` with finger edges `(i, (i + 2^k) mod N)`.
//! * [`cbt`] — the `Cbt(N)` guest network: a complete binary search tree over
//!   `[0, N)`, the scaffold topology of Berns' earlier Avatar work.
//! * [`avatar`] — the Avatar framework: dilation-1 embedding of an `N`-node
//!   guest network onto `n ≤ N` host nodes via *responsible ranges*, plus the
//!   local-checkability predicates the paper's phase selection relies on.
//! * [`routing`] — greedy finger routing on `Chord(N)` (used by experiment E9
//!   to demonstrate the O(log N) lookup quality of the stabilized network).
//!
//! All identifier arithmetic is `u32`-based; guest spaces up to `2^31` are
//! supported which is far beyond what the simulator exercises.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod avatar;
pub mod cbt;
pub mod chord;
pub mod routing;

pub use avatar::{Avatar, ResponsibleRange};
pub use cbt::Cbt;
pub use chord::Chord;

/// Identifier of a node (host or guest). Guest identifiers live in `[0, N)`;
/// host identifiers are an arbitrary subset of `[0, N)`.
pub type Id = u32;

/// Integer base-2 logarithm of a power of two.
///
/// # Panics
/// Panics if `n` is not a positive power of two.
pub fn log2_exact(n: u32) -> u32 {
    assert!(n.is_power_of_two(), "n = {n} must be a power of two");
    n.trailing_zeros()
}

/// `ceil(log2(n))` for `n ≥ 1`.
pub fn log2_ceil(n: u32) -> u32 {
    assert!(n >= 1);
    32 - (n - 1).leading_zeros()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log2_exact_powers() {
        assert_eq!(log2_exact(1), 0);
        assert_eq!(log2_exact(2), 1);
        assert_eq!(log2_exact(1024), 10);
    }

    #[test]
    #[should_panic]
    fn log2_exact_rejects_non_powers() {
        log2_exact(12);
    }

    #[test]
    fn log2_ceil_values() {
        assert_eq!(log2_ceil(1), 0);
        assert_eq!(log2_ceil(2), 1);
        assert_eq!(log2_ceil(3), 2);
        assert_eq!(log2_ceil(4), 2);
        assert_eq!(log2_ceil(5), 3);
        assert_eq!(log2_ceil(1023), 10);
        assert_eq!(log2_ceil(1024), 10);
        assert_eq!(log2_ceil(1025), 11);
    }
}
