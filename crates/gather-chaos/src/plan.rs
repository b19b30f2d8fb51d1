//! The chaos plan: a serializable, seeded description of how the proxy
//! misbehaves, and the pure decision functions the proxy consults.
//!
//! Every decision is a pure function of `(seed, connection index, frame
//! index)` through the SplitMix64 finalizer — the same derivation
//! discipline as `gather_sim::faults::FaultPlan` and the client's backoff
//! jitter — so two proxies loaded with the same plan misbehave
//! identically against the same connection/frame sequence, and a failing
//! chaos run is replayable from its serialized plan alone.
//!
//! Action semantics (normative copy in `docs/CHAOS.md`):
//!
//! * **delay** — before forwarding a selected daemon→client frame, sleep
//!   `fixed_ms` plus a deterministic jitter in `[0, jitter_ms]`.
//! * **throttle** — pace daemon→client bytes at `bytes_per_sec`.
//! * **drop_after_frames** — on a selected connection, forward `frames`
//!   daemon→client frames, then sever both directions.
//! * **truncate** — forward only a prefix of a selected frame, then
//!   sever: the peer sees a torn line ending in connection loss.
//! * **corrupt** — overwrite `bytes` positions of a selected frame with
//!   `NUL` (0x00). `NUL` never occurs in a JSON line, so corruption is
//!   always *detectable* (a parse error), never a silently wrong row.
//! * **blackhole** — wall-clock windows (relative to proxy start) during
//!   which both directions stall; traffic resumes when the window ends.

use serde::{Deserialize, Serialize};
use std::time::Duration;

/// SplitMix64 finalizer: the workspace-standard way to derive independent
/// pseudo-random values from a seed. A copy of `gather_sim::faults::mix`,
/// kept because this crate does not depend on `gather-sim`.
fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Distinct decision streams, so e.g. "is frame 3 delayed?" and "is frame
/// 3 truncated?" are independent draws from the same seed.
mod tag {
    pub const DELAY_HIT: u64 = 1;
    pub const DELAY_JITTER: u64 = 2;
    pub const DROP_CONN: u64 = 3;
    pub const TRUNCATE: u64 = 4;
    pub const CORRUPT: u64 = 5;
    pub const CORRUPT_POS: u64 = 6;
    pub const RANDOMIZE: u64 = 7;
}

/// Fixed-plus-jitter latency on selected daemon→client frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct Delay {
    /// Milliseconds added to every selected frame.
    pub fixed_ms: u64,
    /// Upper bound of the deterministic extra jitter, in milliseconds.
    pub jitter_ms: u64,
    /// Percent of frames selected (0–100).
    pub prob_pct: u8,
}

/// Bandwidth cap on the daemon→client direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct Throttle {
    /// Pacing rate; 0 disables the throttle rather than stalling forever.
    pub bytes_per_sec: u64,
}

/// Sever selected connections after a fixed number of forwarded frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct DropAfter {
    /// Daemon→client frames forwarded before the cut.
    pub frames: u64,
    /// Percent of connections selected (0–100).
    pub prob_pct: u8,
}

/// Tear selected frames mid-line and sever the connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct Truncate {
    /// Percent of frames selected (0–100).
    pub prob_pct: u8,
}

/// Overwrite bytes of selected frames with `NUL` (always detectable).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct Corrupt {
    /// Percent of frames selected (0–100).
    pub prob_pct: u8,
    /// How many byte positions to overwrite per selected frame.
    pub bytes: usize,
}

/// A wall-clock stall window, relative to proxy start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct Window {
    /// Window start, milliseconds since the proxy started.
    pub start_ms: u64,
    /// Window end (exclusive), milliseconds since the proxy started.
    pub end_ms: u64,
}

/// A complete, serializable description of one proxy's misbehavior.
///
/// The default plan injects nothing: a proxy under `ChaosPlan::default()`
/// is a transparent TCP relay (pinned by `tests/proxy.rs` — rows through
/// it are byte-identical to a direct connection). Every absent field means
/// "that action is off", so a minimal `{"seed": 7}` plan file is valid; a
/// key that names no field, here or in an action, is a parse error, so a
/// misspelt action cannot silently arm nothing.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct ChaosPlan {
    /// Master seed every decision derives from.
    pub seed: u64,
    /// Frame latency injection, if any.
    pub delay: Option<Delay>,
    /// Bandwidth throttling, if any.
    pub throttle: Option<Throttle>,
    /// Connection-severing after k frames, if any.
    pub drop_after_frames: Option<DropAfter>,
    /// Mid-line frame truncation, if any.
    pub truncate: Option<Truncate>,
    /// Detectable byte corruption, if any.
    pub corrupt: Option<Corrupt>,
    /// Stall windows; empty means the proxy never blackholes.
    #[serde(default)]
    pub blackhole: Vec<Window>,
}

impl ChaosPlan {
    /// A fault-free plan under `seed` — a transparent relay until builder
    /// calls arm individual actions.
    pub fn new(seed: u64) -> ChaosPlan {
        ChaosPlan {
            seed,
            ..ChaosPlan::default()
        }
    }

    /// Arms frame delays.
    pub fn with_delay(mut self, fixed_ms: u64, jitter_ms: u64, prob_pct: u8) -> Self {
        self.delay = Some(Delay {
            fixed_ms,
            jitter_ms,
            prob_pct,
        });
        self
    }

    /// Arms bandwidth throttling.
    pub fn with_throttle(mut self, bytes_per_sec: u64) -> Self {
        self.throttle = Some(Throttle { bytes_per_sec });
        self
    }

    /// Arms connection severing after `frames` forwarded frames.
    pub fn with_drop_after(mut self, frames: u64, prob_pct: u8) -> Self {
        self.drop_after_frames = Some(DropAfter { frames, prob_pct });
        self
    }

    /// Arms mid-line truncation.
    pub fn with_truncate(mut self, prob_pct: u8) -> Self {
        self.truncate = Some(Truncate { prob_pct });
        self
    }

    /// Arms detectable byte corruption.
    pub fn with_corrupt(mut self, prob_pct: u8, bytes: usize) -> Self {
        self.corrupt = Some(Corrupt { prob_pct, bytes });
        self
    }

    /// Adds a blackhole window `[start_ms, end_ms)` after proxy start.
    pub fn with_blackhole(mut self, start_ms: u64, end_ms: u64) -> Self {
        self.blackhole.push(Window { start_ms, end_ms });
        self
    }

    /// One decision draw on stream `t` for `(conn, frame)`.
    fn roll(&self, t: u64, conn: u64, frame: u64) -> u64 {
        mix(mix(mix(self.seed, t), conn), frame)
    }

    /// `true` with probability `pct`% on the given stream.
    fn hits(&self, t: u64, conn: u64, frame: u64, pct: u8) -> bool {
        self.roll(t, conn, frame) % 100 < u64::from(pct.min(100))
    }

    /// The latency to inject before forwarding frame `frame` of
    /// connection `conn`, if this frame is selected.
    pub fn frame_delay(&self, conn: u64, frame: u64) -> Option<Duration> {
        let delay = self.delay?;
        if !self.hits(tag::DELAY_HIT, conn, frame, delay.prob_pct) {
            return None;
        }
        let roll = self.roll(tag::DELAY_JITTER, conn, frame);
        // `jitter_ms == u64::MAX` spans every draw.
        let jitter = match delay.jitter_ms.checked_add(1) {
            Some(span) => roll % span,
            None => roll,
        };
        Some(Duration::from_millis(delay.fixed_ms.saturating_add(jitter)))
    }

    /// The pacing pause after forwarding `len` bytes, if throttled.
    pub fn throttle_pause(&self, len: usize) -> Option<Duration> {
        let throttle = self.throttle?;
        if throttle.bytes_per_sec == 0 {
            return None;
        }
        let nanos = (len as u128)
            .saturating_mul(1_000_000_000)
            .checked_div(u128::from(throttle.bytes_per_sec))?;
        Some(Duration::from_nanos(nanos.min(u128::from(u64::MAX)) as u64))
    }

    /// `Some(k)` when connection `conn` is selected for severing after
    /// `k` forwarded daemon→client frames.
    pub fn drop_after(&self, conn: u64) -> Option<u64> {
        let drop = self.drop_after_frames?;
        self.hits(tag::DROP_CONN, conn, 0, drop.prob_pct)
            .then_some(drop.frames)
    }

    /// `true` when frame `frame` of connection `conn` is torn mid-line.
    pub fn truncates(&self, conn: u64, frame: u64) -> bool {
        self.truncate
            .is_some_and(|t| self.hits(tag::TRUNCATE, conn, frame, t.prob_pct))
    }

    /// The byte positions of a `len`-byte frame to overwrite with `NUL`,
    /// empty when the frame is not selected. Positions are deterministic
    /// and in-range; the trailing newline (position `len - 1` of the
    /// wire line) is never targeted, so framing survives and the
    /// corruption surfaces as a parse error, not a merged line. A frame
    /// takes at most `len - 1` draws, so `corrupt.bytes` beyond that
    /// (from a plan file or the command line) costs no more than
    /// `len - 1`.
    pub fn corrupt_positions(&self, conn: u64, frame: u64, len: usize) -> Vec<usize> {
        let Some(corrupt) = self.corrupt else {
            return Vec::new();
        };
        if len <= 1 || !self.hits(tag::CORRUPT, conn, frame, corrupt.prob_pct) {
            return Vec::new();
        }
        (0..corrupt.bytes.min(len - 1) as u64)
            .map(|i| {
                let draw = mix(self.roll(tag::CORRUPT_POS, conn, frame), i);
                (draw % (len as u64 - 1)) as usize
            })
            .collect()
    }

    /// How much longer a transfer at `elapsed` since proxy start must
    /// stall before leaving every blackhole window, `None` outside all
    /// windows.
    pub fn blackhole_remaining(&self, elapsed: Duration) -> Option<Duration> {
        let now_ms = elapsed.as_millis().min(u128::from(u64::MAX)) as u64;
        self.blackhole
            .iter()
            .filter(|w| w.start_ms <= now_ms && now_ms < w.end_ms)
            .map(|w| Duration::from_millis(w.end_ms - now_ms))
            .max()
    }

    /// A randomized-but-pinned plan for soak testing: `seed` fully
    /// determines which actions are armed and how hard. Intensities are
    /// calibrated for test grids — delays of a few milliseconds, small
    /// drop budgets — so a soak iteration finishes in seconds while still
    /// exercising every failure path across a handful of seeds.
    pub fn randomized(seed: u64) -> ChaosPlan {
        let draw = |n: u64| mix(seed, mix(tag::RANDOMIZE, n));
        let mut plan = ChaosPlan::new(seed).with_delay(
            1 + draw(0) % 10,
            draw(1) % 10,
            (50 + draw(2) % 51) as u8,
        );
        if draw(3) % 100 < 50 {
            plan = plan.with_throttle(16 * 1024 + draw(4) % (48 * 1024));
        }
        if draw(5) % 100 < 60 {
            plan = plan.with_drop_after(2 + draw(6) % 11, (40 + draw(7) % 51) as u8);
        }
        if draw(8) % 100 < 40 {
            plan = plan.with_truncate((10 + draw(9) % 31) as u8);
        }
        if draw(10) % 100 < 40 {
            plan = plan.with_corrupt((10 + draw(11) % 21) as u8, 1 + (draw(12) % 4) as usize);
        }
        if draw(13) % 100 < 30 {
            let start = 100 + draw(14) % 300;
            plan = plan.with_blackhole(start, start + 100 + draw(15) % 200);
        }
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_pure_functions_of_seed_conn_and_frame() {
        let plan = ChaosPlan::new(42)
            .with_delay(5, 10, 50)
            .with_drop_after(4, 50)
            .with_truncate(30)
            .with_corrupt(30, 2);
        let replay = plan.clone();
        for conn in 0..8 {
            assert_eq!(plan.drop_after(conn), replay.drop_after(conn));
            for frame in 0..64 {
                assert_eq!(
                    plan.frame_delay(conn, frame),
                    replay.frame_delay(conn, frame)
                );
                assert_eq!(plan.truncates(conn, frame), replay.truncates(conn, frame));
                assert_eq!(
                    plan.corrupt_positions(conn, frame, 100),
                    replay.corrupt_positions(conn, frame, 100)
                );
            }
        }
        // A different seed produces a different decision sequence.
        let other = ChaosPlan {
            seed: 43,
            ..plan.clone()
        };
        let differs = (0..64).any(|f| plan.truncates(0, f) != other.truncates(0, f));
        assert!(differs, "seed must matter");
    }

    #[test]
    fn probabilities_are_honored_at_the_extremes() {
        let always = ChaosPlan::new(7)
            .with_delay(3, 0, 100)
            .with_drop_after(2, 100)
            .with_truncate(100)
            .with_corrupt(100, 1);
        let never = ChaosPlan::new(7)
            .with_delay(3, 0, 0)
            .with_drop_after(2, 0)
            .with_truncate(0)
            .with_corrupt(0, 1);
        for conn in 0..4 {
            assert_eq!(always.drop_after(conn), Some(2));
            assert_eq!(never.drop_after(conn), None);
            for frame in 0..16 {
                assert_eq!(
                    always.frame_delay(conn, frame),
                    Some(Duration::from_millis(3))
                );
                assert_eq!(never.frame_delay(conn, frame), None);
                assert!(always.truncates(conn, frame));
                assert!(!never.truncates(conn, frame));
                assert_eq!(always.corrupt_positions(conn, frame, 50).len(), 1);
                assert!(never.corrupt_positions(conn, frame, 50).is_empty());
            }
        }
    }

    #[test]
    fn jitter_stays_within_its_bound_and_positions_stay_in_range() {
        let plan = ChaosPlan::new(9).with_delay(2, 7, 100).with_corrupt(100, 5);
        for frame in 0..128 {
            let d = plan.frame_delay(1, frame).unwrap();
            assert!(d >= Duration::from_millis(2) && d <= Duration::from_millis(9));
            for pos in plan.corrupt_positions(1, frame, 33) {
                assert!(pos < 32, "never the newline position");
            }
        }
        // Degenerate frames are never corrupted (nothing before the
        // newline to flip).
        assert!(plan.corrupt_positions(1, 0, 1).is_empty());
        assert!(plan.corrupt_positions(1, 0, 0).is_empty());
    }

    #[test]
    fn a_huge_corrupt_byte_count_is_bounded_by_the_frame_length() {
        let plan = ChaosPlan::new(3).with_corrupt(100, 1 << 20);
        let positions = plan.corrupt_positions(0, 0, 64);
        assert!(positions.len() < 64, "{} positions", positions.len());
        assert!(positions.iter().all(|&pos| pos < 63));
        // Counts below the frame length draw exactly the same positions as
        // an unbounded plan would.
        let small = ChaosPlan::new(3).with_corrupt(100, 5);
        assert_eq!(small.corrupt_positions(0, 0, 64), positions[..5]);
    }

    #[test]
    fn extreme_delays_saturate_instead_of_overflowing() {
        let plan = ChaosPlan::new(5).with_delay(u64::MAX, u64::MAX, 100);
        for frame in 0..16 {
            assert_eq!(
                plan.frame_delay(0, frame),
                Some(Duration::from_millis(u64::MAX))
            );
        }
        let wide = ChaosPlan::new(5).with_delay(0, u64::MAX, 100);
        assert!((0..16).all(|frame| wide.frame_delay(0, frame).is_some()));
    }

    #[test]
    fn blackhole_windows_report_the_remaining_stall() {
        let plan = ChaosPlan::new(1)
            .with_blackhole(100, 200)
            .with_blackhole(150, 400);
        assert_eq!(plan.blackhole_remaining(Duration::from_millis(50)), None);
        assert_eq!(
            plan.blackhole_remaining(Duration::from_millis(120)),
            Some(Duration::from_millis(80))
        );
        // Overlapping windows: the longest remaining stall wins.
        assert_eq!(
            plan.blackhole_remaining(Duration::from_millis(160)),
            Some(Duration::from_millis(240))
        );
        assert_eq!(plan.blackhole_remaining(Duration::from_millis(400)), None);
    }

    #[test]
    fn throttle_pause_scales_with_length_and_zero_rate_disables() {
        let plan = ChaosPlan::new(1).with_throttle(1000);
        assert_eq!(plan.throttle_pause(500), Some(Duration::from_millis(500)));
        assert_eq!(ChaosPlan::new(1).throttle_pause(500), None);
        assert_eq!(ChaosPlan::new(1).with_throttle(0).throttle_pause(500), None);
    }

    #[test]
    fn plans_roundtrip_through_json_and_tolerate_minimal_files() {
        let plan = ChaosPlan::randomized(0xC0FFEE);
        let json = serde_json::to_string(&plan).unwrap();
        let back: ChaosPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(back, plan);
        // A minimal hand-written plan file: everything absent is off.
        let minimal: ChaosPlan = serde_json::from_str("{\"seed\": 7}").unwrap();
        assert_eq!(minimal, ChaosPlan::new(7));
        assert!(minimal.blackhole.is_empty());
    }

    #[test]
    fn randomized_plans_differ_across_seeds_but_replay_within_one() {
        let a = ChaosPlan::randomized(1);
        assert_eq!(a, ChaosPlan::randomized(1));
        let distinct = (2..10).any(|s| ChaosPlan::randomized(s) != a);
        assert!(distinct, "randomization must actually vary");
        // Every randomized plan arms at least the delay action.
        for seed in 0..16 {
            assert!(ChaosPlan::randomized(seed).delay.is_some());
        }
    }
}
