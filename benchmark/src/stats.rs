//! Order statistics and process measurements the report is built from.

use std::collections::{HashSet, VecDeque};
use std::time::Instant;

/// The `q`-quantile (`0 <= q <= 1`) of `samples` by the nearest-rank rule;
/// 0 for no samples.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median of `samples` (the mean of the middle two for an even count).
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), or 0 where the
/// kernel does not report it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
            Some(kib / 1024.0)
        })
        .unwrap_or(0.0)
}

/// A fixed piece of work owned by the benchmark, so no change to the
/// program can speed it up: a breadth-first search over a small made-up
/// state space that clones, hashes and deduplicates states the way the
/// checker does. Returns its wall time in microseconds. The run's median of
/// it measures how fast the host is running at the time.
pub fn reference_work_us() -> f64 {
    const STATES: usize = 20_000;
    let started = Instant::now();
    let mut seen: HashSet<Vec<u32>> = HashSet::with_capacity(STATES);
    let mut frontier = VecDeque::from([vec![0u32; 8]]);
    while let Some(state) = frontier.pop_front() {
        if seen.len() >= STATES {
            break;
        }
        for choice in 0..2 {
            let mut next = state.clone();
            for (i, slot) in (0u32..).zip(next.iter_mut()) {
                *slot = (slot.wrapping_mul(31) + choice + i) % 97;
            }
            if seen.insert(next.clone()) {
                frontier.push_back(next);
            }
        }
    }
    std::hint::black_box(seen.len());
    started.elapsed().as_secs_f64() * 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_use_the_nearest_rank() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&samples, 0.5), 50.0);
        assert_eq!(quantile(&samples, 0.99), 99.0);
        assert_eq!(quantile(&samples, 1.0), 100.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn the_median_averages_the_middle_pair() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
