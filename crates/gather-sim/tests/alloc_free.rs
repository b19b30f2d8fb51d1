//! Proves the round loop is allocation-free in steady state.
//!
//! A counting global allocator wraps the system allocator; the same scenario
//! is then run at two different round caps. Every allocation the engine
//! makes is either setup (buffers pre-sized from `n`/`k` before round 0) or
//! teardown (materializing `SimOutcome`), both independent of the number of
//! rounds — so if the loop itself allocated anything per round, the longer
//! run would observe strictly more allocations. Equality of the two counts
//! is therefore exactly the claim "zero heap allocations per round after
//! warm-up".
//!
//! The robots used here exchange `u64` messages every round and move every
//! round (touching fresh nodes, exercising occupancy rebuilds and the
//! message arena) while allocating nothing themselves, so the measured
//! counts isolate the engine. The *robot* side of the claim — the four
//! built-in algorithms' decide paths — is pinned by the same technique in
//! `gather-core/tests/alloc_free_robots.rs` (the built-ins live above this
//! crate in the dependency graph, so their test must too).

// A counting `GlobalAlloc` is necessarily `unsafe`; the workspace denies
// `unsafe_code`, so this test opts back in explicitly.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use gather_graph::generators;
use gather_sim::{Action, Inbox, Observation, Robot, RobotId, SimConfig, Simulator};

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Moves out of port 0 every round and announces its id; never allocates.
struct MarchingChatter {
    id: RobotId,
    heard: u64,
}

impl Robot for MarchingChatter {
    type Msg = u64;

    fn id(&self) -> RobotId {
        self.id
    }

    fn announce(&mut self, _obs: &Observation) -> u64 {
        self.id
    }

    fn decide(&mut self, obs: &Observation, inbox: Inbox<'_, u64>) -> Action {
        for (_, &m) in inbox.iter() {
            self.heard = self.heard.wrapping_add(m);
        }
        if obs.degree > 0 {
            Action::Move(0)
        } else {
            Action::Stay
        }
    }
}

fn make_robots(k: usize, n: usize, spread: bool) -> Vec<(MarchingChatter, usize)> {
    (0..k)
        .map(|i| {
            let start = if spread { (i * 5) % n } else { 3 };
            (
                MarchingChatter {
                    id: (k - i) as u64, // deliberately unsorted ids
                    heard: 0,
                },
                start,
            )
        })
        .collect()
}

fn run_scenario(rounds: u64, k: usize, spread: bool) -> u64 {
    let g = generators::cycle(32).unwrap();
    let robots = make_robots(k, g.n(), spread);
    let sim = Simulator::new(&g, SimConfig::with_max_rounds(rounds));
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let out = sim.run(robots);
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert_eq!(out.rounds, rounds, "scenario must run to its cap");
    after - before
}

/// The engine's allocation count for a scenario is deterministic, but the
/// process-global counter occasionally also sees a stray allocation from the
/// test harness's own threads landing inside the measured window. Noise is
/// strictly additive, so the minimum over a few repetitions recovers the
/// engine's true count.
fn min_allocs(mut measure: impl FnMut() -> u64) -> u64 {
    (0..5).map(|_| measure()).min().unwrap()
}

#[test]
fn steady_state_round_loop_performs_zero_heap_allocations() {
    // Metrics and per-phase timing detail stay ON for the whole test: the
    // engine's instrumentation (gather-obs counters, rounds/sec and
    // per-phase histograms) must not cost a single steady-state
    // allocation. Registration in the global registry allocates once, but
    // the warm-up runs below absorb it.
    gather_obs::set_detail(true);
    // One test function only: the counter is process-global and parallel
    // tests would pollute each other's deltas.
    for (k, spread) in [(8, false), (8, true), (1, false)] {
        // Warm up caches/lazy statics outside the measured runs.
        let _ = run_scenario(4, k, spread);
        let short = min_allocs(|| run_scenario(100, k, spread));
        let long = min_allocs(|| run_scenario(400, k, spread));
        assert_eq!(
            short, long,
            "k={k} spread={spread}: allocation count grows with round count — \
             the round loop allocates in steady state ({short} vs {long})"
        );
        assert!(
            short > 0,
            "sanity: setup/teardown allocations should be visible"
        );
    }
}
