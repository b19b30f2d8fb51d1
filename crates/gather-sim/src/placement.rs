//! Initial robot placements and label assignment.
//!
//! The paper's bounds are worst-case over an *adversarial* initial placement;
//! the experiment harness therefore needs placements that realise the regimes
//! the theorems distinguish: dispersed vs undispersed configurations, a pair
//! of robots at an exact hop distance `i`, maximally spread-out robots, and
//! random baselines.

use crate::robot::RobotId;
use gather_graph::{algo, NodeId, PortGraph};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// A concrete initial configuration: which robot (by label) starts where.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Placement {
    /// `(label, start node)` for every robot. Labels are unique.
    pub robots: Vec<(RobotId, NodeId)>,
}

/// The minimum pairwise hop distance among the given robot positions
/// (`None` for fewer than two robots). Positions may repeat (distance 0).
pub fn closest_pair_distance(graph: &PortGraph, positions: &[NodeId]) -> Option<usize> {
    if positions.len() < 2 {
        return None;
    }
    let mut best = usize::MAX;
    for (i, &u) in positions.iter().enumerate() {
        let dist = algo::bfs_distances(graph, u);
        for &v in positions.iter().skip(i + 1) {
            best = best.min(dist[v]);
            if best == 0 {
                return Some(0);
            }
        }
    }
    Some(best)
}

impl Placement {
    /// Builds a placement from explicit `(label, node)` pairs.
    pub fn new(robots: Vec<(RobotId, NodeId)>) -> Self {
        Placement { robots }
    }

    /// Number of robots `k`.
    pub fn k(&self) -> usize {
        self.robots.len()
    }

    /// The start nodes in robot order.
    pub fn nodes(&self) -> Vec<NodeId> {
        self.robots.iter().map(|&(_, v)| v).collect()
    }

    /// The labels in robot order.
    pub fn ids(&self) -> Vec<RobotId> {
        self.robots.iter().map(|&(id, _)| id).collect()
    }

    /// True if no node holds more than one robot (the paper's *dispersed*
    /// configuration).
    pub fn is_dispersed(&self) -> bool {
        let mut nodes = self.nodes();
        nodes.sort_unstable();
        nodes.windows(2).all(|w| w[0] != w[1])
    }

    /// True if at least one node holds two or more robots (*undispersed*).
    pub fn is_undispersed(&self) -> bool {
        !self.is_dispersed()
    }

    /// The minimum hop distance between any two distinct robots
    /// (0 if two robots share a node; `None` for fewer than two robots).
    pub fn closest_pair_distance(&self, graph: &PortGraph) -> Option<usize> {
        closest_pair_distance(graph, &self.nodes())
    }

    /// The maximum hop distance between any two robots (`None` for fewer than
    /// two robots).
    pub fn max_pair_distance(&self, graph: &PortGraph) -> Option<usize> {
        if self.k() < 2 {
            return None;
        }
        let nodes = self.nodes();
        let mut best = 0usize;
        for (i, &u) in nodes.iter().enumerate() {
            let dist = algo::bfs_distances(graph, u);
            for &v in nodes.iter().skip(i + 1) {
                best = best.max(dist[v]);
            }
        }
        Some(best)
    }
}

/// The placement strategies supported by [`generate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PlacementKind {
    /// `k` robots on `k` distinct uniformly random nodes (requires `k <= n`).
    DispersedRandom,
    /// Random placement guaranteed to have at least one node with two robots.
    UndispersedRandom,
    /// Greedy farthest-point placement: robots as spread out as possible
    /// (an adversarial dispersed placement).
    MaxSpread,
    /// All robots on one (random) node.
    AllOnOneNode,
    /// Robots split into two groups placed at two mutually farthest nodes.
    TwoClusters,
    /// A dispersed placement containing a pair of robots at exactly the given
    /// hop distance, with all other robots kept at least that far from
    /// everyone where possible.
    PairAtDistance(usize),
}

/// Assigns `k` distinct labels `1..=k` (the smallest labels allowed by the
/// model). Deterministic.
pub fn sequential_ids(k: usize) -> Vec<RobotId> {
    (1..=k as RobotId).collect()
}

/// Assigns `k` distinct labels drawn uniformly from `[1, n^b]`, matching the
/// paper's label range. Requires `n^b >= k`.
pub fn random_ids(k: usize, n: usize, b: u32, seed: u64) -> Vec<RobotId> {
    let max = (n as u128).saturating_pow(b).min(u64::MAX as u128) as u64;
    assert!(
        max as usize >= k,
        "label space [1, n^b] too small for k robots"
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let mut chosen = std::collections::BTreeSet::new();
    while chosen.len() < k {
        chosen.insert(rng.gen_range(1..=max));
    }
    chosen.into_iter().collect()
}

/// Greedy farthest-point node selection: picks `count` nodes, each maximising
/// its minimum distance to the already-picked ones. Deterministic given the
/// seeded choice of the first node.
fn farthest_point_nodes(graph: &PortGraph, count: usize, rng: &mut StdRng) -> Vec<NodeId> {
    let n = graph.n();
    let count = count.min(n);
    let dist = algo::distance_matrix(graph);
    let mut chosen: Vec<NodeId> = Vec::with_capacity(count);
    chosen.push(rng.gen_range(0..n));
    while chosen.len() < count {
        let mut best_node = 0usize;
        let mut best_score = 0usize;
        for v in (0..n).filter(|v| !chosen.contains(v)) {
            let score = chosen.iter().map(|&c| dist[c][v]).min().unwrap_or(0);
            if score > best_score {
                best_score = score;
                best_node = v;
            }
        }
        if best_score == 0 {
            // All remaining nodes are already chosen (count > n can't happen
            // here) — fall back to any unchosen node.
            if let Some(v) = (0..n).find(|v| !chosen.contains(v)) {
                chosen.push(v);
            } else {
                break;
            }
        } else {
            chosen.push(best_node);
        }
    }
    chosen
}

/// Generates a placement of `k` robots with labels `ids` according to `kind`.
///
/// Panics if the requested kind is impossible on this graph (e.g. a dispersed
/// placement with `k > n`, or a pair distance larger than the diameter).
pub fn generate(graph: &PortGraph, kind: PlacementKind, ids: &[RobotId], seed: u64) -> Placement {
    let n = graph.n();
    let k = ids.len();
    assert!(k >= 1, "need at least one robot");
    let mut rng = StdRng::seed_from_u64(seed);
    let nodes: Vec<NodeId> = match kind {
        PlacementKind::DispersedRandom => {
            assert!(k <= n, "dispersed placement requires k <= n");
            let mut all: Vec<NodeId> = (0..n).collect();
            all.shuffle(&mut rng);
            all.truncate(k);
            all
        }
        PlacementKind::UndispersedRandom => {
            assert!(k >= 2, "an undispersed placement needs at least two robots");
            // Place k-1 robots at distinct random nodes, then duplicate one.
            let mut all: Vec<NodeId> = (0..n).collect();
            all.shuffle(&mut rng);
            let mut picked: Vec<NodeId> = all.into_iter().take((k - 1).min(n)).collect();
            while picked.len() < k {
                let dup = picked[rng.gen_range(0..picked.len().min(k - 1))];
                picked.push(dup);
            }
            picked
        }
        PlacementKind::MaxSpread => {
            assert!(k <= n, "max-spread placement requires k <= n");
            farthest_point_nodes(graph, k, &mut rng)
        }
        PlacementKind::AllOnOneNode => {
            let node = rng.gen_range(0..n);
            vec![node; k]
        }
        PlacementKind::TwoClusters => {
            let a = rng.gen_range(0..n);
            let (b, _) = algo::farthest_node(graph, a);
            let half = k / 2;
            let mut v = vec![a; half];
            v.extend(std::iter::repeat_n(b, k - half));
            v
        }
        PlacementKind::PairAtDistance(d) => {
            assert!(k >= 2, "a distance pair needs at least two robots");
            assert!(k <= n, "dispersed placement requires k <= n");
            let dist = algo::distance_matrix(graph);
            // Find a pair at exactly distance d, deterministically but seeded.
            let mut candidates: Vec<(NodeId, NodeId)> = Vec::new();
            for (u, row) in dist.iter().enumerate() {
                for (v, &duv) in row.iter().enumerate().skip(u + 1) {
                    if duv == d {
                        candidates.push((u, v));
                    }
                }
            }
            assert!(
                !candidates.is_empty(),
                "no pair of nodes at distance {d} in this graph"
            );
            let &(a, b) = candidates
                .get(rng.gen_range(0..candidates.len()))
                .expect("non-empty");
            let mut picked = vec![a, b];
            // Place the rest greedily, preferring nodes at distance >= d from
            // every picked node so the closest pair stays exactly (a, b).
            while picked.len() < k {
                let mut best: Option<(usize, NodeId)> = None;
                for v in (0..n).filter(|v| !picked.contains(v)) {
                    let min_d = picked.iter().map(|&c| dist[c][v]).min().unwrap_or(0);
                    if best.map(|(s, _)| min_d > s).unwrap_or(true) {
                        best = Some((min_d, v));
                    }
                }
                match best {
                    Some((_, v)) => picked.push(v),
                    None => break,
                }
            }
            picked
        }
    };
    assert_eq!(
        nodes.len(),
        k,
        "placement generator produced wrong robot count"
    );
    Placement::new(ids.iter().copied().zip(nodes).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use gather_graph::generators;

    #[test]
    fn sequential_ids_are_unique_and_start_at_one() {
        assert_eq!(sequential_ids(4), vec![1, 2, 3, 4]);
        assert!(sequential_ids(0).is_empty());
    }

    #[test]
    fn random_ids_are_distinct_and_in_range() {
        let ids = random_ids(10, 16, 2, 99);
        assert_eq!(ids.len(), 10);
        let max = 16u64.pow(2);
        assert!(ids.iter().all(|&id| id >= 1 && id <= max));
        let mut sorted = ids.clone();
        sorted.dedup();
        assert_eq!(sorted.len(), 10);
    }

    #[test]
    fn dispersed_random_is_dispersed() {
        let g = generators::random_connected(20, 0.2, 1).unwrap();
        for seed in 0..10 {
            let p = generate(
                &g,
                PlacementKind::DispersedRandom,
                &sequential_ids(12),
                seed,
            );
            assert!(p.is_dispersed());
            assert_eq!(p.k(), 12);
        }
    }

    #[test]
    fn undispersed_random_is_undispersed() {
        let g = generators::random_connected(20, 0.2, 1).unwrap();
        for seed in 0..10 {
            let p = generate(
                &g,
                PlacementKind::UndispersedRandom,
                &sequential_ids(8),
                seed,
            );
            assert!(p.is_undispersed());
            assert_eq!(p.closest_pair_distance(&g), Some(0));
        }
    }

    #[test]
    fn all_on_one_node_gathers_everyone() {
        let g = generators::cycle(9).unwrap();
        let p = generate(&g, PlacementKind::AllOnOneNode, &sequential_ids(5), 3);
        assert_eq!(p.max_pair_distance(&g), Some(0));
        assert!(p.is_undispersed());
    }

    #[test]
    fn max_spread_on_path_puts_robots_far_apart() {
        let g = generators::path(20).unwrap();
        let p = generate(&g, PlacementKind::MaxSpread, &sequential_ids(2), 0);
        // The first node is random, the second is the farthest from it, so
        // the pair is at least half the path apart.
        assert!(p.closest_pair_distance(&g).unwrap() >= 9);
    }

    #[test]
    fn two_clusters_are_far_apart() {
        let g = generators::path(15).unwrap();
        let p = generate(&g, PlacementKind::TwoClusters, &sequential_ids(6), 7);
        assert_eq!(p.k(), 6);
        assert!(p.is_undispersed());
        assert!(p.max_pair_distance(&g).unwrap() >= 7);
    }

    #[test]
    fn pair_at_distance_hits_exact_distance() {
        let g = generators::cycle(16).unwrap();
        for d in 1..=5usize {
            let p = generate(&g, PlacementKind::PairAtDistance(d), &sequential_ids(2), 11);
            assert_eq!(p.closest_pair_distance(&g), Some(d), "d = {d}");
            assert!(p.is_dispersed());
        }
    }

    #[test]
    fn pair_at_distance_with_more_robots_keeps_closest_pair() {
        let g = generators::grid(6, 6).unwrap();
        let p = generate(&g, PlacementKind::PairAtDistance(2), &sequential_ids(4), 5);
        assert_eq!(p.closest_pair_distance(&g), Some(2));
        assert!(p.is_dispersed());
    }

    #[test]
    #[should_panic(expected = "no pair of nodes at distance")]
    fn pair_at_impossible_distance_panics() {
        let g = generators::complete(6).unwrap();
        let _ = generate(&g, PlacementKind::PairAtDistance(4), &sequential_ids(2), 0);
    }

    #[test]
    #[should_panic(expected = "requires k <= n")]
    fn dispersed_with_too_many_robots_panics() {
        let g = generators::path(3).unwrap();
        let _ = generate(&g, PlacementKind::DispersedRandom, &sequential_ids(5), 0);
    }

    #[test]
    fn placement_accessors() {
        let p = Placement::new(vec![(5, 0), (9, 2)]);
        assert_eq!(p.ids(), vec![5, 9]);
        assert_eq!(p.nodes(), vec![0, 2]);
        assert_eq!(p.k(), 2);
    }

    #[test]
    fn closest_pair_distance_none_for_single_robot() {
        let g = generators::path(5).unwrap();
        let p = Placement::new(vec![(1, 2)]);
        assert_eq!(p.closest_pair_distance(&g), None);
        assert_eq!(p.max_pair_distance(&g), None);
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let g = generators::random_connected(18, 0.2, 3).unwrap();
        let a = generate(&g, PlacementKind::MaxSpread, &sequential_ids(6), 42);
        let b = generate(&g, PlacementKind::MaxSpread, &sequential_ids(6), 42);
        assert_eq!(a, b);
    }
}
