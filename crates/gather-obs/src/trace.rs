//! Structured trace events with per-thread ring buffers.
//!
//! Every thread that records gets its own bounded ring (so the sweep
//! worker pool and coordinator merge threads never contend on a shared
//! buffer); [`drain`] merges all rings into one timestamp-ordered batch
//! and clears them. Records are drainable as JSONL ([`drain_jsonl`]) —
//! one JSON object per line, the format the telemetry endpoint serves
//! under `/trace`.
//!
//! Recording allocates (the name/detail strings), so traces belong on
//! *event* paths — connections, jobs, chunk failures, re-dispatch — not
//! inside the engine's per-round loop. Rings are bounded
//! ([`RING_CAPACITY`] records per thread): when full, the oldest record
//! is dropped and the drop is counted, so a chatty subsystem can never
//! balloon memory. A thread's ring goes when the thread exits: its records
//! move into one shared ring of the same capacity that keeps exited
//! threads' records until the next drain, so a daemon that runs one thread
//! per connection holds rings for its live threads only.

use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::time::Instant;

/// Per-thread ring capacity, in records.
pub const RING_CAPACITY: usize = 4096;

/// One trace record. `dur_micros` is set for spans (recorded at span
/// end, timestamped at span start) and `null` for point events.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceRecord {
    /// Microseconds since the process's first trace (monotonic clock).
    pub ts_micros: u64,
    /// Small per-process id of the recording thread.
    pub thread: u64,
    /// Event name (snake_case, stable — part of the trace schema).
    pub name: String,
    /// Free-form human context.
    pub detail: String,
    /// Span duration in microseconds; `null` for point events.
    pub dur_micros: Option<u64>,
}

struct Ring {
    records: VecDeque<TraceRecord>,
    dropped: u64,
}

impl Ring {
    fn push(&mut self, record: TraceRecord) {
        if self.records.len() == RING_CAPACITY {
            self.records.pop_front();
            self.dropped += 1;
        }
        self.records.push_back(record);
    }
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_micros() -> u64 {
    epoch().elapsed().as_micros().min(u128::from(u64::MAX)) as u64
}

/// Every ring a drain reads.
struct Rings {
    /// The rings of threads that have recorded and are still running.
    live: Vec<Arc<Mutex<Ring>>>,
    /// The records of threads that have exited, bounded like any ring.
    exited: Ring,
}

fn rings() -> &'static Mutex<Rings> {
    static RINGS: OnceLock<Mutex<Rings>> = OnceLock::new();
    RINGS.get_or_init(|| {
        Mutex::new(Rings {
            live: Vec::new(),
            exited: Ring {
                records: VecDeque::new(),
                dropped: 0,
            },
        })
    })
}

fn thread_id() -> u64 {
    static NEXT: OnceLock<Mutex<u64>> = OnceLock::new();
    thread_local! {
        static ID: u64 = {
            let next = NEXT.get_or_init(|| Mutex::new(0));
            let mut next = next.lock().expect("trace id counter poisoned");
            *next += 1;
            *next
        };
    }
    ID.with(|id| *id)
}

/// The current thread's ring, registered in [`rings`] while the thread
/// runs.
struct LocalRing(Arc<Mutex<Ring>>);

impl Drop for LocalRing {
    /// The thread is exiting: its records move to the exited ring and its
    /// ring leaves the registry.
    fn drop(&mut self) {
        // A panic here would abort the process: take poisoned locks as
        // they are.
        let mut rings = rings().lock().unwrap_or_else(PoisonError::into_inner);
        rings.live.retain(|ring| !Arc::ptr_eq(ring, &self.0));
        let mut ring = self.0.lock().unwrap_or_else(PoisonError::into_inner);
        for record in ring.records.drain(..) {
            rings.exited.push(record);
        }
        rings.exited.dropped += ring.dropped;
    }
}

thread_local! {
    static LOCAL_RING: LocalRing = {
        let ring = Arc::new(Mutex::new(Ring { records: VecDeque::new(), dropped: 0 }));
        rings()
            .lock()
            .expect("trace ring registry poisoned")
            .live
            .push(Arc::clone(&ring));
        LocalRing(ring)
    };
}

fn push(record: TraceRecord) {
    LOCAL_RING.with(|ring| ring.0.lock().expect("trace ring poisoned").push(record));
}

/// Records a point event on the current thread's ring.
pub fn event(name: &str, detail: impl std::fmt::Display) {
    push(TraceRecord {
        ts_micros: now_micros(),
        thread: thread_id(),
        name: name.to_string(),
        detail: detail.to_string(),
        dur_micros: None,
    });
}

/// An RAII span: records one [`TraceRecord`] with `dur_micros` set when
/// dropped, timestamped at construction.
pub struct Span {
    name: String,
    detail: String,
    ts_micros: u64,
    start: Instant,
}

impl Drop for Span {
    fn drop(&mut self) {
        push(TraceRecord {
            ts_micros: self.ts_micros,
            thread: thread_id(),
            name: std::mem::take(&mut self.name),
            detail: std::mem::take(&mut self.detail),
            dur_micros: Some(self.start.elapsed().as_micros().min(u128::from(u64::MAX)) as u64),
        });
    }
}

/// Starts a span; the record is written when the returned guard drops.
pub fn span(name: &str, detail: impl std::fmt::Display) -> Span {
    Span {
        name: name.to_string(),
        detail: detail.to_string(),
        ts_micros: now_micros(),
        start: Instant::now(),
    }
}

/// Drains every thread's ring, and the records of exited threads, into one
/// batch sorted by timestamp, and clears the rings. Returns
/// `(records, dropped)` where `dropped` counts records lost to ring
/// overflow since the last drain.
pub fn drain() -> (Vec<TraceRecord>, u64) {
    let mut rings = rings().lock().expect("trace ring registry poisoned");
    let mut all: Vec<TraceRecord> = rings.exited.records.drain(..).collect();
    let mut dropped = std::mem::take(&mut rings.exited.dropped);
    for ring in rings.live.iter() {
        let mut ring = ring.lock().expect("trace ring poisoned");
        all.extend(ring.records.drain(..));
        dropped += ring.dropped;
        ring.dropped = 0;
    }
    drop(rings);
    all.sort_by_key(|r| r.ts_micros);
    (all, dropped)
}

/// [`drain`], rendered as JSONL: one record per line. A final
/// `trace_dropped` record is appended when ring overflow lost records.
pub fn drain_jsonl() -> String {
    let (records, dropped) = drain();
    let mut out = String::new();
    for r in &records {
        out.push_str(&serde_json::to_string(r).expect("trace record serializes"));
        out.push('\n');
    }
    if dropped > 0 {
        let marker = TraceRecord {
            ts_micros: now_micros(),
            thread: 0,
            name: "trace_dropped".to_string(),
            detail: format!("{dropped} records lost to ring overflow"),
            dur_micros: None,
        };
        out.push_str(&serde_json::to_string(&marker).expect("trace record serializes"));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    // One test fn: drain() is process-global, and the test harness runs
    // sibling tests on other threads whose rings would interleave.
    #[test]
    fn events_and_spans_record_merge_sorted_and_drain() {
        event("test_start", "first");
        {
            let _span = span("test_span", "scoped work");
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let handle = std::thread::spawn(|| {
            event("other_thread", "hello");
        });
        handle.join().unwrap();
        event("test_end", "last");

        let (records, dropped) = drain();
        assert_eq!(dropped, 0);
        let names: Vec<_> = records.iter().map(|r| r.name.as_str()).collect();
        assert!(names.contains(&"test_start"));
        assert!(names.contains(&"test_span"));
        assert!(names.contains(&"other_thread"));
        assert!(names.contains(&"test_end"));
        assert!(records.windows(2).all(|w| w[0].ts_micros <= w[1].ts_micros));
        let span_rec = records.iter().find(|r| r.name == "test_span").unwrap();
        assert!(span_rec.dur_micros.unwrap() >= 1000);
        let other = records.iter().find(|r| r.name == "other_thread").unwrap();
        let here = records.iter().find(|r| r.name == "test_start").unwrap();
        assert_ne!(other.thread, here.thread);

        // Draining clears: a second drain starts empty.
        assert!(drain().0.is_empty());

        // JSONL renders one object per line and round-trips.
        event("jsonl_probe", "x");
        let jsonl = drain_jsonl();
        let lines: Vec<_> = jsonl.lines().collect();
        assert_eq!(lines.len(), 1);
        let back: TraceRecord = serde_json::from_str(lines[0]).unwrap();
        assert_eq!(back.name, "jsonl_probe");
        assert_eq!(back.dur_micros, None);

        // An exited thread's ring leaves the registry; its records stay
        // until the next drain.
        let live = || rings().lock().unwrap().live.len();
        let before = live();
        for i in 0..16 {
            std::thread::spawn(move || event("exited_thread", i))
                .join()
                .unwrap();
        }
        assert!(live() < before + 16, "exited threads' rings are released");
        let (records, dropped) = drain();
        assert_eq!(dropped, 0);
        let exited = records.iter().filter(|r| r.name == "exited_thread");
        assert_eq!(exited.count(), 16);

        // Overflow drops oldest and is counted.
        for i in 0..(RING_CAPACITY + 10) {
            event("flood", i);
        }
        let (records, dropped) = drain();
        assert_eq!(records.len(), RING_CAPACITY);
        assert_eq!(dropped, 10);
        assert_eq!(records.first().unwrap().detail, "10");
    }
}
