//! Analysis utilities for the paper's structural claims, chiefly Lemma 15:
//! with `⌊n/c⌋ + 1` robots on an `n`-node connected graph, some pair of
//! robots is at hop distance at most `2c − 2`.

use gather_graph::{NodeId, PortGraph};
pub use gather_sim::placement::closest_pair_distance;

/// The distance bound guaranteed by Lemma 15 for `k` robots on `n` nodes:
/// the smallest `2c − 2` over all constants `c ≥ 1` with `k ≥ ⌊n/c⌋ + 1`.
///
/// Returns `None` when `k < 2` (no pair exists) — for any `k ≥ 2` the bound is
/// at most `2n − 2`, which is trivially true on a connected graph.
pub fn lemma15_bound(n: usize, k: usize) -> Option<usize> {
    if k < 2 || n == 0 {
        return None;
    }
    // The bound 2c - 2 improves as c decreases, so find the smallest c that
    // still guarantees a close pair.
    (1..=n).find(|&c| k > n / c).map(|c| 2 * c - 2)
}

/// The number of robots needed for Lemma 15 to guarantee a pair within
/// distance `2c − 2`: `⌊n/c⌋ + 1`.
pub fn robots_needed_for_bound(n: usize, c: usize) -> usize {
    assert!(c >= 1);
    n / c + 1
}

/// Checks Lemma 15 on a concrete configuration: the closest pair must be
/// within the guaranteed bound. Returns `true` when the claim holds (or when
/// it makes no prediction, i.e. `k < 2`).
pub fn verify_lemma15(graph: &PortGraph, positions: &[NodeId]) -> bool {
    match (
        closest_pair_distance(graph, positions),
        lemma15_bound(graph.n(), positions.len()),
    ) {
        (Some(dist), Some(bound)) => dist <= bound,
        _ => true,
    }
}

/// Which of Theorem 16's robot-count regimes a `(n, k)` pair falls into:
/// returns the exponent shorthand `3`, `4` or `5` for `O(n³)`, `O(n⁴ log n)`
/// and `Õ(n⁵)` respectively.
pub fn theorem16_regime(n: usize, k: usize) -> u32 {
    if k > n / 2 {
        3
    } else if k > n / 3 {
        4
    } else {
        5
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gather_graph::generators;
    use gather_sim::placement::{self, PlacementKind};

    #[test]
    fn closest_pair_basics() {
        let g = generators::path(10).unwrap();
        assert_eq!(closest_pair_distance(&g, &[0, 9]), Some(9));
        assert_eq!(closest_pair_distance(&g, &[0, 9, 5]), Some(4));
        assert_eq!(closest_pair_distance(&g, &[3, 3]), Some(0));
        assert_eq!(closest_pair_distance(&g, &[3]), None);
        assert_eq!(closest_pair_distance(&g, &[]), None);
    }

    #[test]
    fn lemma15_bound_matches_the_paper_thresholds() {
        // k >= floor(n/2) + 1 -> c = 2 -> bound 2.
        assert_eq!(lemma15_bound(10, 6), Some(2));
        // floor(n/3) + 1 <= k < floor(n/2)+1 -> c = 3 -> bound 4.
        assert_eq!(lemma15_bound(10, 4), Some(4));
        assert_eq!(lemma15_bound(10, 5), Some(4));
        // k = n + 1 -> c = 1 -> bound 0 (pigeonhole).
        assert_eq!(lemma15_bound(10, 11), Some(0));
        // Two robots -> c = 6 is the smallest with ⌊10/6⌋ + 1 = 2, bound 10
        // (trivially true since the diameter of a 10-node graph is at most 9).
        assert_eq!(lemma15_bound(10, 2), Some(10));
        assert!(lemma15_bound(10, 1).is_none());
    }

    #[test]
    fn lemma15_bound_is_monotone_in_k() {
        let n = 24;
        let mut prev = usize::MAX;
        for k in 2..=n + 1 {
            let b = lemma15_bound(n, k).unwrap();
            assert!(b <= prev, "bound must not get worse as k grows");
            prev = b;
        }
        assert_eq!(prev, 0);
    }

    #[test]
    fn robots_needed_matches_bound() {
        let n = 30;
        for c in 1..=n {
            let k = robots_needed_for_bound(n, c);
            assert!(lemma15_bound(n, k).unwrap() <= 2 * c - 2);
        }
    }

    #[test]
    fn lemma15_holds_on_adversarial_max_spread_placements() {
        // Even placements engineered to spread robots out cannot violate the
        // lemma — this is exactly the paper's counting argument.
        for family in generators::Family::ALL {
            let g = family.instantiate(18, 3).unwrap();
            let n = g.n();
            for k in [n / 2 + 1, n / 3 + 1, (n / 4 + 1).max(2)] {
                if k > n {
                    continue;
                }
                let ids = placement::sequential_ids(k);
                let p = placement::generate(&g, PlacementKind::MaxSpread, &ids, 7);
                assert!(
                    verify_lemma15(&g, &p.nodes()),
                    "Lemma 15 violated on {} with k={k}",
                    g.name()
                );
            }
        }
    }

    #[test]
    fn theorem16_regimes() {
        assert_eq!(theorem16_regime(10, 6), 3);
        assert_eq!(theorem16_regime(10, 5), 4);
        assert_eq!(theorem16_regime(10, 4), 4);
        assert_eq!(theorem16_regime(10, 3), 5);
        assert_eq!(theorem16_regime(9, 5), 3);
    }
}
