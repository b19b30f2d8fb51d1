//! Proves the *robot decide path* is allocation-free in steady state for all
//! four built-in algorithms.
//!
//! `gather-sim/tests/alloc_free.rs` pins the engine/message side with
//! inert robots; this test closes the loop on the algorithm side (it lives
//! here because the built-ins are `gather-core` types, which `gather-sim`
//! cannot depend on). The same counting-allocator technique applies: a
//! scenario is run to two different round caps whose difference window is
//! pure steady state — every one-time allocation (robot construction,
//! Phase 1 map building, tour preparation, shared-sequence memoization)
//! falls before the lower cap, so if any robot allocated per round inside
//! the window, the longer run would observe strictly more allocations.
//! Equality of the two counts is exactly the claim "zero heap allocations
//! per steady-state round, robots included".
//!
//! Windows are chosen per algorithm to exercise their hot loops:
//!
//! * `uxs_gathering` — leaders walking the shared exploration sequence;
//! * `undispersed_gathering` — Phase 2 touring/adoption (the former
//!   per-round `peers: Vec` collection, now a single pass over the inbox);
//! * `faster_gathering` — the embedded hop-meeting segment (the former
//!   per-cycle `BoundedDfs` construction, now one rewound DFS per robot)
//!   and the embedded UXS segment, entered directly via
//!   [`FasterRobot::with_known_distance`];
//! * `expanding_baseline` — its radius-1 hop-meeting phase;
//! * `faster_gathering` from a dispersed start, inside step 1's Phase 1,
//!   where every robot waits: the whole window is one idle-round jump, so
//!   the jump itself must not allocate.
//!
//! Idle-round jumps let the engine skip rounds nobody acts in, so each
//! window also reports how many rounds it actually stepped: the decide-path
//! windows must still step rounds, and the Phase-1 window must step none.

// A counting `GlobalAlloc` is necessarily `unsafe`; the workspace denies
// `unsafe_code`, so this test opts back in explicitly.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use gather_core::schedule::{hop_meeting_rounds, undispersed_phase1_rounds};
use gather_core::{ExpandingRobot, FasterRobot, GatherConfig, UndispersedRobot, UxsGatherRobot};
use gather_graph::generators;
use gather_obs::Counter;
use gather_sim::{Robot, SimConfig, Simulator};

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

/// Runs pre-built robots to `rounds` and returns the allocations the run
/// performed (setup + rounds + teardown; robot construction is excluded by
/// building the robots before the measured window), plus the rounds the
/// engine stepped rather than jumped.
fn alloc_delta<R: Robot>(
    graph: &gather_graph::PortGraph,
    robots: Vec<(R, usize)>,
    rounds: u64,
    stepped: &Counter,
) -> (u64, u64) {
    let sim = Simulator::new(graph, SimConfig::with_max_rounds(rounds));
    let stepped_before = stepped.get();
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let out = sim.run(robots);
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert_eq!(
        out.rounds, rounds,
        "scenario must run to its cap (robots terminated early?)"
    );
    (after - before, stepped.get() - stepped_before)
}

/// The engine's allocation count for a scenario is deterministic, but the
/// process-global counter occasionally sees stray allocations from the test
/// harness landing inside the measured window. Noise is strictly additive,
/// so the minimum over a few repetitions recovers the true count.
fn min_allocs(mut measure: impl FnMut() -> u64) -> u64 {
    (0..5).map(|_| measure()).min().unwrap()
}

/// Asserts the rounds in `(lo, hi]` allocate nothing, for one robot builder
/// on one graph, and returns how many of them the engine stepped.
fn check_case<R, F>(name: &str, graph: &gather_graph::PortGraph, mk: F, lo: u64, hi: u64) -> u64
where
    R: Robot,
    F: Fn() -> Vec<(R, usize)>,
{
    // Warm up process-wide memoized state (shared UXS sequences, shared
    // faster schedules, lazy statics, the engine's metric handles) outside
    // the measured runs.
    let stepped = gather_obs::Registry::global().counter("engine_rounds_stepped_total");
    let (_, stepped_lo) = alloc_delta(graph, mk(), lo, &stepped);
    let (_, stepped_hi) = alloc_delta(graph, mk(), hi, &stepped);

    let short = min_allocs(|| alloc_delta(graph, mk(), lo, &stepped).0);
    let long = min_allocs(|| alloc_delta(graph, mk(), hi, &stepped).0);
    assert_eq!(
        short, long,
        "{name}: allocation count grows with round count — the robot \
         decide path allocates in steady state ({short} vs {long})"
    );
    assert!(
        short > 0,
        "{name}: sanity — setup allocations should be visible"
    );
    stepped_hi - stepped_lo
}

/// [`check_case`] for a window whose decide path must actually run.
fn check_stepped_case<R, F>(name: &str, graph: &gather_graph::PortGraph, mk: F, lo: u64, hi: u64)
where
    R: Robot,
    F: Fn() -> Vec<(R, usize)>,
{
    let stepped = check_case(name, graph, mk, lo, hi);
    assert!(
        stepped > 0,
        "{name}: every round of ({lo}, {hi}] was jumped; the window no longer exercises decide"
    );
}

#[test]
fn steady_state_robot_decide_paths_perform_zero_heap_allocations() {
    // Metrics and per-phase timing detail stay ON for the whole test: the
    // engine's gather-obs instrumentation must not cost a steady-state
    // allocation (registration happens once, absorbed by the warm-up runs
    // in `check_case`).
    gather_obs::set_detail(true);
    // One test function only: the counter is process-global and parallel
    // tests would pollute each other's deltas.
    let cfg = GatherConfig::fast();

    // §2.1 UXS gathering: four spread-out leaders walking the shared
    // exploration sequence (T = n³ = 32768 ≫ the caps, so nobody
    // terminates). Steady state from round 1.
    {
        let g = generators::cycle(32).unwrap();
        check_stepped_case(
            "uxs_gathering",
            &g,
            || {
                [(3u64, 0usize), (5, 8), (9, 16), (12, 24)]
                    .into_iter()
                    .map(|(id, node)| (UxsGatherRobot::new(id, 32, &cfg), node))
                    .collect()
            },
            200,
            800,
        );
    }

    // §2.2 Undispersed-Gathering: the measured window lies inside Phase 2
    // (tour + adoption), after the one-time map construction and tour
    // preparation. The finder tours, collects the waiter, and returns —
    // the former per-round `peers: Vec` collection would show up here.
    {
        let g = generators::cycle(16).unwrap();
        let r1 = undispersed_phase1_rounds(16, &cfg);
        check_stepped_case(
            "undispersed_gathering",
            &g,
            || {
                [(1u64, 0usize), (2, 0), (3, 8)]
                    .into_iter()
                    .map(|(id, node)| (UndispersedRobot::new(id, 16, &cfg), node))
                    .collect()
            },
            r1 + 4,
            r1 + 28,
        );
    }

    // §2.3 Faster-Gathering, hop-meeting segment: two robots too far apart
    // to meet at radius 1 start directly at step 2 (Remark 13) and run
    // repeated DFS exploration cycles — the former per-cycle `BoundedDfs`
    // allocation would show up here. Both caps are inside the segment
    // (duration 2(n-1)·max_id_bits(n) = 682 for n = 32).
    {
        let g = generators::cycle(32).unwrap();
        assert!(hop_meeting_rounds(1, 32) > 500, "caps must stay in-segment");
        check_stepped_case(
            "faster_gathering (hop segment)",
            &g,
            || {
                [(5u64, 0usize), (7, 10)]
                    .into_iter()
                    .map(|(id, node)| (FasterRobot::with_known_distance(id, 32, &cfg, 1), node))
                    .collect()
            },
            100,
            500,
        );
    }

    // §2.3 Faster-Gathering, UXS fallback segment (step 7), entered
    // directly via a known distance beyond the hop radii.
    {
        let g = generators::cycle(32).unwrap();
        check_stepped_case(
            "faster_gathering (uxs segment)",
            &g,
            || {
                [(5u64, 0usize), (7, 10)]
                    .into_iter()
                    .map(|(id, node)| (FasterRobot::with_known_distance(id, 32, &cfg, 9), node))
                    .collect()
            },
            200,
            800,
        );
    }

    // Expanding-radius baseline: its radius-1 hop-meeting phase (the two
    // robots are 10 hops apart, far beyond radius 1, so the phase runs to
    // its fixed end well past the caps).
    {
        let g = generators::cycle(32).unwrap();
        assert!(hop_meeting_rounds(1, 32) > 500, "caps must stay in-phase");
        check_stepped_case(
            "expanding_baseline",
            &g,
            || {
                [(5u64, 0usize), (7, 10)]
                    .into_iter()
                    .map(|(id, node)| (ExpandingRobot::new(id, 32), node))
                    .collect()
            },
            100,
            500,
        );
    }

    // §2.3 Faster-Gathering from a dispersed start: in step 1's Phase 1
    // every robot is a waiter, so after round 1 the engine jumps straight
    // to the cap — or to `R1 - 1`, where finders would prepare their tour.
    {
        let g = generators::cycle(16).unwrap();
        let r1 = undispersed_phase1_rounds(16, &cfg);
        let stepped = check_case(
            "faster_gathering (phase-1 jump)",
            &g,
            || {
                [(2u64, 0usize), (3, 5), (6, 11)]
                    .into_iter()
                    .map(|(id, node)| (FasterRobot::new(id, 16, &cfg), node))
                    .collect()
            },
            10,
            r1 - 10,
        );
        assert_eq!(stepped, 0, "the Phase-1 window is one jump");
    }
}
