//! Swarm trade-off study: sweep the number of robots `k` on a fixed graph and
//! watch the Theorem 16 regimes appear — the more robots, the faster
//! deterministic gathering with detection becomes, because the initial
//! closest pair gets provably closer (Lemma 15).
//!
//! The whole study is one [`Sweep`]: the `k` axis is expressed as a list of
//! placement specs and every cell runs in parallel over the thread pool.
//!
//! Run with:
//! ```text
//! cargo run --release --example swarm_tradeoff
//! ```

use gathering::prelude::*;

fn main() {
    let n = 18usize;
    let ks = [2usize, 4, 6, 7, 9, 10, 13, 18];

    // One declarative grid: cycle(18) × (MaxSpread placements at each k) ×
    // Faster-Gathering. MaxSpread is the adversarial dispersed placement —
    // the worst case for regrouping.
    let report = SweepSpec::new()
        .graph(GraphSpec::new(Family::Cycle, n))
        .placements(
            ks.iter()
                .map(|&k| PlacementSpec::new(PlacementKind::MaxSpread, k)),
        )
        .algorithm(AlgorithmSpec::new("faster_gathering"))
        .seeds([99])
        .into_sweep()
        .run_default();

    println!(
        "{:>3} {:>8} {:>22} {:>18} {:>12} {:>10}",
        "k", "regime", "Lemma 15 bound (hops)", "measured closest", "rounds", "detected"
    );

    for row in &report.rows {
        let bound = analysis::lemma15_bound(n, row.k).unwrap();
        let measured = row.closest_pair.expect("k >= 2");
        assert!(
            measured <= bound,
            "Lemma 15 must hold even for adversarial placements"
        );
        println!(
            "{:>3} {:>8} {:>22} {:>18} {:>12} {:>10}",
            row.k,
            format!("O(n^{})", analysis::theorem16_regime(n, row.k)),
            bound,
            measured,
            row.rounds,
            row.detected_ok
        );
    }
    assert!(report.all_detected_ok());

    println!(
        "\nAs k crosses n/3 and n/2 the guaranteed closest-pair distance drops to 4 and 2, \
         letting Faster-Gathering stop at earlier steps — exactly the trade-off of Theorem 16."
    );
}
