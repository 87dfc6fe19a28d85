//! In-crate property tests for the topology layer.

use overlay::{Avatar, Cbt, Chord};
use proptest::prelude::*;
use ssim::Topology;

proptest! {
    /// Projection of a connected guest graph over any host set stays
    /// connected (dilation-1 embeddings preserve connectivity).
    #[test]
    fn projection_preserves_connectivity(
        n_exp in 3u32..9,
        picks in proptest::collection::btree_set(0u32..256, 1..20),
    ) {
        let n = 1u32 << n_exp;
        let hosts: Vec<u32> = picks.into_iter().filter(|&v| v < n).collect();
        prop_assume!(!hosts.is_empty());
        let av = Avatar::new(n, hosts.iter().copied());
        let edges = av.project_edges(Cbt::new(n).edges());
        let g = Topology::new(hosts.iter().copied(), edges);
        prop_assert!(g.is_connected());
    }

    /// Chord guest graphs are vertex-transitive in degree and connected.
    #[test]
    fn chord_uniform_degree(n_exp in 2u32..11) {
        let n = 1u32 << n_exp;
        let c = Chord::classic(n);
        let g = Topology::new(0..n, c.edges());
        prop_assert!(g.is_connected());
        let max = g.max_degree();
        prop_assert!((0..n).all(|v| g.degree(v) == max), "ring symmetry ⇒ uniform degree");
    }
}
