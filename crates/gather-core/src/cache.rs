//! Content-addressed result cache for scenario runs.
//!
//! A [`crate::scenario::ScenarioSpec`] is a pure function of its fields: the
//! same spec always produces the same [`crate::scenario::ScenarioOutcome`]
//! (graph and placement randomness are derived from the spec's own seed).
//! That makes scenario results *content-addressable* — a run can be stored
//! under a stable hash of the spec and every later execution of the same
//! spec becomes an O(1) lookup instead of a simulation. Repeated heavy sweep
//! traffic (CI re-runs, dashboards, parameter grids that share cells) is
//! exactly the workload this pays off on.
//!
//! ## The key format
//!
//! [`spec_key`] produces keys of the form
//!
//! ```text
//! v1e1-9c56cc51b374c3ba189210d5b6d4bf57790d351c96c47c02190ecf1e430635ab
//!      └──────────────────── 64 hex chars of SHA-256 ───────────────────┘
//! ```
//!
//! * `v1` is [`KEY_FORMAT_VERSION`]. It is bumped whenever the canonical
//!   form, the hash, or the semantics of any spec field change, so caches
//!   written under an older format are never consulted by a newer binary.
//! * `e1` is [`ENGINE_VERSION`]. A cached result is a function of the spec
//!   *and* of the algorithms/engine that produced it; this component is
//!   bumped whenever an intentional behaviour change alters the outcome of
//!   an unchanged spec (round counts, metrics, final positions), so stale
//!   results from the previous engine are never served. The
//!   `engine_equivalence` fixture tests catch *unintentional* behaviour
//!   changes; this constant records the intentional ones.
//! * The digest is SHA-256 over the **canonical JSON** of the spec: the
//!   serde value tree with every object's keys sorted (recursively),
//!   serialized compactly. Canonicalisation makes the key independent of
//!   field order, so a spec parsed from hand-written JSON with reordered
//!   fields hashes identically to one built in Rust. The text is streamed
//!   into the hasher as it is written ([`serde_json::write_canonical`]);
//!   it is never materialised.
//!
//! The key format is pinned by a fixture test
//! (`spec_key_is_pinned_across_releases`): it must never change silently,
//! because persisted caches depend on it.
//!
//! ## Stores
//!
//! [`ResultStore`] is the storage abstraction; two implementations ship:
//!
//! * [`MemStore`] — a `Mutex<HashMap>`; per-process, used by tests and
//!   long-running services.
//! * [`DirStore`] — append-only segment files under a root directory (the
//!   repo convention is `results/cache/`). Each store instance appends
//!   checksummed records, each holding an entry as compact single-line
//!   JSON, to a `seg-<pid>-<n>.log` of its own, and indexes every segment
//!   in the directory in memory, so processes sharing a root serve each
//!   other's results. A record cut short by a crash reads as a miss; a
//!   damaged one is skipped and recomputed. Any other file under the root
//!   is ignored.
//!
//! Lookups verify that the stored spec equals the requested spec before a
//! hit is served, so even a hash collision (or a manually edited file)
//! degrades to a miss, never to a wrong result.
//!
//! ## Policies
//!
//! [`CachePolicy`] selects how [`crate::scenario::ScenarioSpec::run_cached`]
//! and [`crate::sweep::Sweep`] use a store: [`CachePolicy::Off`] bypasses it
//! entirely, [`CachePolicy::ReadWrite`] serves hits and stores misses, and
//! [`CachePolicy::ReadOnly`] serves hits but never writes (useful for
//! read-only deployments and for consuming a shared cache without
//! mutating it). Failed runs are never cached under any policy.

use crate::scenario::{ScenarioOutcome, ScenarioSpec};
use gather_obs::{Counter, Registry};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::{Duration, SystemTime};

/// Key-format version tag embedded in every [`spec_key`].
///
/// Bump this whenever the canonical serialization, the hash function, or
/// the meaning of any [`ScenarioSpec`] field changes; old cache entries are
/// then invisible to the new format instead of silently wrong.
pub const KEY_FORMAT_VERSION: u32 = 1;

/// Engine-behaviour version tag embedded in every [`spec_key`].
///
/// Bump this whenever an intentional algorithm or engine change alters the
/// outcome an unchanged spec produces (round counts, metrics, final
/// positions); results cached by the previous engine then miss instead of
/// being served stale. Unintentional behaviour drift is caught separately
/// by the `engine_equivalence` fixtures.
pub const ENGINE_VERSION: u32 = 1;

/// The stable content-address of a scenario:
/// `v<format>e<engine>-<sha256 hex>` over the spec's canonical JSON (object
/// keys sorted recursively).
///
/// Equal specs always produce equal keys regardless of how they were built
/// (Rust constructors, JSON in any field order); specs differing in any
/// field produce different keys. See the module docs for the exact format.
pub fn spec_key(spec: &ScenarioSpec) -> String {
    let value = serde_json::to_value(spec).expect("ScenarioSpec serializes");
    let mut hasher = Sha256::new();
    serde_json::write_canonical(&mut hasher, &value).expect("hashing never fails");
    format!(
        "v{KEY_FORMAT_VERSION}e{ENGINE_VERSION}-{}",
        hex(&hasher.finish())
    )
}

// ---------------------------------------------------------------------------
// SHA-256 (FIPS 180-4). Hand-rolled because the build environment has no
// crate registry; pinned against the standard test vectors below.
// ---------------------------------------------------------------------------

const SHA256_K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// Streaming SHA-256: feed bytes with [`Sha256::update`] (or as text via
/// [`std::fmt::Write`]) in pieces of any size, then take the digest with
/// [`Sha256::finish`]. Only a partial 64-byte block is ever buffered.
struct Sha256 {
    state: [u32; 8],
    block: [u8; 64],
    filled: usize,
    len: u64,
}

impl Sha256 {
    fn new() -> Self {
        Sha256 {
            state: [
                0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab,
                0x5be0cd19,
            ],
            block: [0; 64],
            filled: 0,
            len: 0,
        }
    }

    fn update(&mut self, mut data: &[u8]) {
        self.len = self.len.wrapping_add(data.len() as u64);
        if self.filled > 0 {
            let take = data.len().min(64 - self.filled);
            self.block[self.filled..self.filled + take].copy_from_slice(&data[..take]);
            self.filled += take;
            data = &data[take..];
            if self.filled < 64 {
                return;
            }
            compress(&mut self.state, &self.block);
            self.filled = 0;
        }
        let mut blocks = data.chunks_exact(64);
        for block in &mut blocks {
            compress(&mut self.state, block.try_into().expect("64-byte chunk"));
        }
        let rest = blocks.remainder();
        self.block[..rest.len()].copy_from_slice(rest);
        self.filled = rest.len();
    }

    /// Pads (message ‖ 0x80 ‖ zeros ‖ 64-bit big-endian bit length) and
    /// returns the digest.
    fn finish(mut self) -> [u8; 32] {
        let bit_len = self.len.wrapping_mul(8);
        let mut pad = [0u8; 64];
        pad[0] = 0x80;
        let zeros_to = if self.filled < 56 { 56 } else { 120 };
        self.update(&pad[..zeros_to - self.filled]);
        self.update(&bit_len.to_be_bytes());
        debug_assert_eq!(self.filled, 0);
        let mut out = [0u8; 32];
        for (i, word) in self.state.iter().enumerate() {
            out[4 * i..4 * i + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }
}

impl fmt::Write for Sha256 {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.update(s.as_bytes());
        Ok(())
    }
}

/// One SHA-256 compression round over a 64-byte block.
fn compress(h: &mut [u32; 8], block: &[u8; 64]) {
    let mut w = [0u32; 64];
    for (i, word) in w.iter_mut().take(16).enumerate() {
        *word = u32::from_be_bytes(block[4 * i..4 * i + 4].try_into().expect("4-byte word"));
    }
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16]
            .wrapping_add(s0)
            .wrapping_add(w[i - 7])
            .wrapping_add(s1);
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut hh] = *h;
    for i in 0..64 {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ (!e & g);
        let t1 = hh
            .wrapping_add(s1)
            .wrapping_add(ch)
            .wrapping_add(SHA256_K[i])
            .wrapping_add(w[i]);
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let t2 = s0.wrapping_add(maj);
        hh = g;
        g = f;
        f = e;
        e = d.wrapping_add(t1);
        d = c;
        c = b;
        b = a;
        a = t1.wrapping_add(t2);
    }
    for (slot, v) in h.iter_mut().zip([a, b, c, d, e, f, g, hh]) {
        *slot = slot.wrapping_add(v);
    }
}

/// Lowercase hex, one allocation: [`spec_key`] runs on every cache hit.
fn hex(bytes: &[u8]) -> String {
    const DIGITS: &[u8; 16] = b"0123456789abcdef";
    let mut s = String::with_capacity(bytes.len() * 2);
    for &b in bytes {
        s.push(char::from(DIGITS[usize::from(b >> 4)]));
        s.push(char::from(DIGITS[usize::from(b & 0xf)]));
    }
    s
}

/// How a run consults a [`ResultStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum CachePolicy {
    /// Never touch the store; always simulate.
    #[default]
    Off,
    /// Serve cached results; store the results of cache misses.
    ReadWrite,
    /// Serve cached results but never write (consume a cache without
    /// mutating it).
    ReadOnly,
}

impl CachePolicy {
    /// True unless the policy is [`CachePolicy::Off`].
    pub fn reads(&self) -> bool {
        !matches!(self, CachePolicy::Off)
    }

    /// True only for [`CachePolicy::ReadWrite`].
    pub fn writes(&self) -> bool {
        matches!(self, CachePolicy::ReadWrite)
    }
}

/// One cached run: the key, the full spec it was computed from (verified on
/// lookup — a collision degrades to a miss, never a wrong result) and the
/// outcome.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CacheEntry {
    /// The [`spec_key`] this entry is stored under.
    pub key: String,
    /// The exact spec that produced [`CacheEntry::outcome`].
    pub spec: ScenarioSpec,
    /// The stored scenario result.
    pub outcome: ScenarioOutcome,
}

impl CacheEntry {
    /// Packages a finished run for storage.
    pub fn new(key: String, spec: ScenarioSpec, outcome: ScenarioOutcome) -> Self {
        CacheEntry { key, spec, outcome }
    }
}

/// Keyed storage for scenario results.
///
/// Implementations must be callable from many sweep worker threads at once.
/// `put` is best-effort: storage failures (full disk, read-only mount) must
/// degrade to "the next lookup misses", never to a panic or a wrong result.
pub trait ResultStore: Send + Sync {
    /// Looks up an entry by key; `None` on miss *or* on an unreadable entry.
    fn get(&self, key: &str) -> Option<CacheEntry>;

    /// Stores an entry under `entry.key` (best effort).
    fn put(&self, entry: &CacheEntry);
}

/// Process-global store counters, shared by every [`ResultStore`]
/// implementation in this module. Hits/misses are counted at the store
/// boundary (the same place [`crate::sweep::SweepStats`] counts them),
/// so a daemon's scraped counters and its reported sweep stats agree.
struct StoreObs {
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    corrupt: Arc<Counter>,
    puts: Arc<Counter>,
}

fn store_obs() -> &'static StoreObs {
    static OBS: OnceLock<StoreObs> = OnceLock::new();
    OBS.get_or_init(|| {
        let registry = Registry::global();
        StoreObs {
            hits: registry.counter("store_hits_total"),
            misses: registry.counter("store_misses_total"),
            corrupt: registry.counter("store_corrupt_total"),
            puts: registry.counter("store_puts_total"),
        }
    })
}

/// In-memory [`ResultStore`] behind a mutex.
#[derive(Debug, Default)]
pub struct MemStore {
    map: Mutex<HashMap<String, CacheEntry>>,
}

impl MemStore {
    /// An empty store.
    pub fn new() -> Self {
        MemStore::default()
    }

    /// Number of stored entries.
    pub fn len(&self) -> usize {
        self.map.lock().expect("MemStore lock").len()
    }

    /// True if no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl ResultStore for MemStore {
    fn get(&self, key: &str) -> Option<CacheEntry> {
        let hit = self.map.lock().expect("MemStore lock").get(key).cloned();
        let obs = store_obs();
        match &hit {
            Some(_) => obs.hits.inc(),
            None => obs.misses.inc(),
        }
        hit
    }

    fn put(&self, entry: &CacheEntry) {
        store_obs().puts.inc();
        self.map
            .lock()
            .expect("MemStore lock")
            .insert(entry.key.clone(), entry.clone());
    }
}

/// Numbers every segment this process creates, so no two [`DirStore`]
/// instances in one process (a daemon restarted in-process, two stores on
/// one root) ever append to the same file.
static SEGMENT_COUNTER: AtomicU64 = AtomicU64::new(0);

/// Bytes a record adds around its key and entry: two `u32` lengths in
/// front, a `u64` checksum behind.
const RECORD_OVERHEAD: usize = 16;

/// Longest key a record may carry. [`spec_key`]s are 69 bytes; a length
/// field beyond this marks a damaged record, never an allocation.
const MAX_KEY_LEN: usize = 1024;

/// The window segment scans read through: a scan never holds more of a
/// segment than this, however long the segment or a record in it.
const SCAN_WINDOW: usize = 64 * 1024;

/// How much older than the moment of a listing the root's mtime must be
/// before an unchanged mtime may skip the next listing. Directory mtimes
/// come from a coarse clock (a kernel tick, up to 10 ms); filesystems whose
/// mtimes carry no sub-second part get a margin past their 1–2 s
/// granularity.
const FINE_MTIME_MARGIN: Duration = Duration::from_millis(100);
/// See [`FINE_MTIME_MARGIN`].
const COARSE_MTIME_MARGIN: Duration = Duration::from_millis(2500);

/// On-disk [`ResultStore`] under a root directory (the repo convention is
/// `results/cache/`): append-only segment files.
///
/// Each instance appends the records it writes to a segment of its own,
/// `seg-<pid>-<n>.log`, created on the first [`ResultStore::put`]. A record
/// is
///
/// ```text
/// key_len: u32 LE | entry_len: u32 LE | key | entry JSON | FNV-1a-64 of all before, u64 LE
/// ```
///
/// with the entry as compact single-line JSON. An in-memory index maps a
/// 64-bit hash of each key to its record's segment and offset (no key or
/// entry bytes); a hit is one positioned read from an open segment,
/// re-verified, key included. (Two keys whose hashes collide cost one of
/// them its hits, never a wrong result.) On an index miss the instance
/// first catches up with the directory: it scans the tails of segments
/// that grew, then lists the root for new segments (skipped while the
/// root's mtime is unchanged and old enough to trust). So processes sharing
/// a root see each other's results.
///
/// A tail shorter than its length prefix is a record still being written
/// (or cut short by a crash): it reads as a miss and is re-examined on the
/// next catch-up. A complete record that fails its checksum, or whose key
/// disagrees with its entry, is skipped and counted in
/// `store_corrupt_total`. Segments only ever grow: if one this instance
/// knows disappears (the root was removed under a live store), shrinks, or
/// fails verification on a read, the instance forgets everything it
/// indexed and re-reads the directory, and its next put goes to a new
/// segment (recreating the root if need be).
pub struct DirStore {
    root: PathBuf,
    state: Mutex<State>,
}

/// Everything one [`DirStore`] instance knows about its root.
#[derive(Default)]
struct State {
    /// Segments found or created, with how far each has been indexed.
    segments: Vec<Known>,
    /// [`key_hash`] → its record. Holds no key or entry bytes: the index
    /// is rebuilt on every reset, and per-key allocations would fragment
    /// the heap.
    index: HashMap<u64, Loc>,
    /// The root's mtime at the last listing, if old enough to trust: while
    /// the root still shows it, no entry was added since that listing.
    listed: Option<SystemTime>,
    /// Position in `segments` of the segment this instance appends to.
    writer: Option<usize>,
}

struct Known {
    seg: Arc<Segment>,
    /// Bytes of the segment indexed so far: the start of a torn tail, or
    /// its length.
    scanned: u64,
}

/// An open segment file, with the identity it had when opened.
struct Segment {
    path: PathBuf,
    file: File,
    id: FileId,
}

/// Where a key's record lives: `len` bytes at `offset` of `segments[seg]`.
#[derive(Clone, Copy)]
struct Loc {
    seg: usize,
    offset: u64,
    len: u64,
}

impl DirStore {
    /// A store rooted at `root` (created lazily on first write).
    pub fn new(root: impl Into<PathBuf>) -> Self {
        DirStore {
            root: root.into(),
            state: Mutex::default(),
        }
    }

    /// The directory entries are stored in.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().expect("DirStore lock")
    }

    /// Number of distinct keys with a verified record on disk.
    pub fn len(&self) -> usize {
        let mut state = self.lock();
        state.catch_up(&self.root, true);
        state.index.len()
    }

    /// True if no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The record indexed under `key`'s hash, catching up with the root
    /// first if this instance has none (or its segment is gone).
    fn locate(&self, key: &str) -> Option<(Arc<Segment>, Loc)> {
        let hash = key_hash(key.as_bytes());
        let mut state = self.lock();
        if let Some((seg, loc)) = state.record(hash) {
            if seg.linked_len().is_some() {
                return Some((seg, loc));
            }
            state.reset();
        }
        state.catch_up(&self.root, false);
        state.record(hash)
    }
}

impl fmt::Debug for DirStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DirStore")
            .field("root", &self.root)
            .finish_non_exhaustive()
    }
}

impl State {
    fn record(&self, hash: u64) -> Option<(Arc<Segment>, Loc)> {
        let loc = *self.index.get(&hash)?;
        Some((Arc::clone(&self.segments[loc.seg].seg), loc))
    }

    /// Forgets everything, keeping the collections' capacity for the
    /// re-read that follows.
    fn reset(&mut self) {
        self.segments.clear();
        self.index.clear();
        self.listed = None;
        self.writer = None;
    }

    /// Brings the index up to date with the root: scans what known segments
    /// appended, then lists the root for new segments unless its mtime proves nothing was added since the last listing
    /// (`force` lists regardless). Segments only ever grow: if a known one
    /// shrank or is gone, or the root is, forget everything.
    fn catch_up(&mut self, root: &Path, force: bool) {
        for at in 0..self.segments.len() {
            let known = &self.segments[at];
            match known.seg.linked_len() {
                Some(len) if len > known.scanned => self.scan(at, len),
                Some(len) if len == known.scanned => {}
                _ => {
                    self.reset();
                    break;
                }
            }
        }
        let now = SystemTime::now();
        let Ok(mtime) = fs::metadata(root).and_then(|meta| meta.modified()) else {
            self.reset();
            return;
        };
        if !force && self.listed == Some(mtime) {
            return;
        }
        let Ok(dir) = fs::read_dir(root) else {
            self.reset();
            return;
        };
        for name in dir.filter_map(|e| e.ok()).map(|e| e.file_name()) {
            let Some(name) = name.to_str() else { continue };
            if !(name.starts_with("seg-") && name.ends_with(".log")) {
                continue;
            }
            let path = root.join(name);
            if self.segments.iter().all(|k| k.seg.path != path) {
                if let Some((seg, len)) = Segment::open(path) {
                    self.segments.push(Known {
                        seg: Arc::new(seg),
                        scanned: 0,
                    });
                    self.scan(self.segments.len() - 1, len);
                }
            }
        }
        let margin = if mtime_is_coarse(mtime) {
            COARSE_MTIME_MARGIN
        } else {
            FINE_MTIME_MARGIN
        };
        self.listed = mtime
            .checked_add(margin)
            .is_some_and(|trusted| trusted < now)
            .then_some(mtime);
    }

    /// Indexes the verified records of `segments[at]` from where its last
    /// scan stopped up to `end`, stopping early at a torn tail.
    fn scan(&mut self, at: usize, end: u64) {
        let seg = Arc::clone(&self.segments[at].seg);
        let mut window = Window::new(&seg.file, end);
        let mut offset = self.segments[at].scanned;
        while let Some(scanned) = window.record(offset) {
            match scanned {
                Scanned::Record(hash, len) => {
                    self.index.entry(hash).or_insert(Loc {
                        seg: at,
                        offset,
                        len,
                    });
                    offset += len;
                }
                Scanned::Damaged(len) => {
                    store_obs().corrupt.inc();
                    offset += len;
                }
                Scanned::Torn => break,
            }
        }
        self.segments[at].scanned = offset;
    }

    /// The segment this instance appends to, creating the root and a new
    /// segment if there is none yet or the old one is gone or was changed
    /// by another hand (so no record is ever appended behind damage).
    fn writer(&mut self, root: &Path) -> Option<usize> {
        if let Some(at) = self.writer {
            let known = &self.segments[at];
            if known.seg.linked_len() == Some(known.scanned) {
                return Some(at);
            }
            self.reset();
        }
        fs::create_dir_all(root).ok()?;
        let seg = Segment::create(root)?;
        self.segments.push(Known {
            seg: Arc::new(seg),
            scanned: 0,
        });
        self.writer = Some(self.segments.len() - 1);
        self.writer
    }
}

impl Segment {
    /// Creates a segment under a name this process has never used. A name
    /// left by an earlier process with the same pid is skipped, never
    /// appended to.
    fn create(root: &Path) -> Option<Segment> {
        for _ in 0..1024 {
            let n = SEGMENT_COUNTER.fetch_add(1, Ordering::Relaxed);
            let path = root.join(format!("seg-{}-{n}.log", std::process::id()));
            let opened = OpenOptions::new()
                .read(true)
                .append(true)
                .create_new(true)
                .open(&path);
            match opened {
                Ok(file) => {
                    let id = file_id(&file.metadata().ok()?);
                    return Some(Segment { path, file, id });
                }
                Err(e) if e.kind() == io::ErrorKind::AlreadyExists => continue,
                Err(_) => return None,
            }
        }
        None
    }

    /// Opens another instance's segment for reading, with its length.
    fn open(path: PathBuf) -> Option<(Segment, u64)> {
        let file = File::open(&path).ok()?;
        let meta = file.metadata().ok()?;
        let id = file_id(&meta);
        Some((Segment { path, file, id }, meta.len()))
    }

    /// The segment's length, if its path still names the file this handle
    /// opened. `None` once it was removed (the old handle would otherwise
    /// go on reading unlinked data) or replaced.
    fn linked_len(&self) -> Option<u64> {
        let meta = fs::metadata(&self.path).ok()?;
        (file_id(&meta) == self.id).then_some(meta.len())
    }

    /// Reads and verifies the record at `loc`: its entry if it is `key`'s,
    /// `Ok(None)` if it is another key's (their hashes collide), `Err` if
    /// it no longer verifies.
    fn read(&self, loc: Loc, key: &str) -> Result<Option<CacheEntry>, ()> {
        let mut record = vec![0; usize::try_from(loc.len).map_err(|_| ())?];
        read_exact_at(&self.file, &mut record, loc.offset).map_err(|_| ())?;
        let (stored_key, entry) = decode_record(&record).ok_or(())?;
        if stored_key != key.as_bytes() {
            return Ok(None);
        }
        match serde_json::from_str::<CacheEntry>(entry) {
            Ok(entry) if entry.key == key => Ok(Some(entry)),
            _ => Err(()),
        }
    }
}

/// A bounded view of one segment for scanning: holds at most
/// [`SCAN_WINDOW`] bytes of it at a time.
struct Window<'f> {
    file: &'f File,
    /// The segment's length as the scan found it.
    end: u64,
    /// File offset of `buf[0]`.
    start: u64,
    buf: Vec<u8>,
}

impl<'f> Window<'f> {
    fn new(file: &'f File, end: u64) -> Self {
        Window {
            file,
            end,
            start: 0,
            buf: Vec::new(),
        }
    }

    /// The `len` bytes at `at` (`len` ≤ [`SCAN_WINDOW`], `at + len` ≤ the
    /// scanned end), read from the file when the window does not hold them.
    fn bytes(&mut self, at: u64, len: usize) -> Option<&[u8]> {
        let held = at >= self.start && at + len as u64 <= self.start + self.buf.len() as u64;
        if !held {
            let fill = (self.end - at).min(SCAN_WINDOW as u64) as usize;
            self.buf.resize(fill, 0);
            read_exact_at(self.file, &mut self.buf, at).ok()?;
            self.start = at;
        }
        let from = (at - self.start) as usize;
        self.buf.get(from..from + len)
    }

    /// The record at `offset`, or `None` at the scanned end.
    fn record(&mut self, offset: u64) -> Option<Scanned> {
        if offset >= self.end {
            return None;
        }
        let Some(header) = self
            .bytes(offset, 8)
            .map(|b| <[u8; 8]>::try_from(b).expect("8 bytes"))
        else {
            return Some(Scanned::Torn);
        };
        let key_len = u32::from_le_bytes(header[..4].try_into().expect("4 bytes")) as usize;
        let entry_len = u32::from_le_bytes(header[4..].try_into().expect("4 bytes")) as u64;
        let len = (RECORD_OVERHEAD + key_len) as u64 + entry_len;
        if offset + len > self.end {
            return Some(Scanned::Torn);
        }
        let mut sum = Fnv::new();
        sum.update(&header);
        let body_end = offset + len - 8;
        let mut at = offset + 8;
        while at < body_end {
            let take = (body_end - at).min(SCAN_WINDOW as u64) as usize;
            let Some(chunk) = self.bytes(at, take) else {
                return Some(Scanned::Torn);
            };
            sum.update(chunk);
            at += take as u64;
        }
        let Some(stored) = self
            .bytes(body_end, 8)
            .map(|b| b.try_into().expect("8 bytes"))
        else {
            return Some(Scanned::Torn);
        };
        if u64::from_le_bytes(stored) != sum.0 || key_len > MAX_KEY_LEN {
            return Some(Scanned::Damaged(len));
        }
        // The key and the start of the entry after it, which must name it.
        let prefix_len = (ENTRY_KEY_PREFIX.len() + key_len + 1).min(entry_len as usize);
        let Some(head) = self.bytes(offset + 8, key_len + prefix_len) else {
            return Some(Scanned::Torn);
        };
        let (key, entry) = head.split_at(key_len);
        Some(if entry_names_key(entry, key) {
            Scanned::Record(key_hash(key), len)
        } else {
            Scanned::Damaged(len)
        })
    }
}

/// What a scan found at one offset.
enum Scanned {
    /// A verified record for the key with this [`key_hash`], this many
    /// bytes long.
    Record(u64, u64),
    /// A complete record that fails its checksum or whose key disagrees
    /// with its entry, this many bytes long.
    Damaged(u64),
    /// A record still being written, or cut short by a crash (or a read
    /// that failed): examined again on the next scan.
    Torn,
}

/// How every entry [`DirStore`] writes begins: `key` is [`CacheEntry`]'s
/// first field.
const ENTRY_KEY_PREFIX: &[u8] = b"{\"key\":\"";

/// True if compact entry JSON begins by naming `key`.
fn entry_names_key(entry: &[u8], key: &[u8]) -> bool {
    entry
        .strip_prefix(ENTRY_KEY_PREFIX)
        .and_then(|rest| rest.strip_prefix(key))
        .is_some_and(|rest| rest.first() == Some(&b'"'))
}

/// One segment record for `key` with `entry` (compact JSON); `None` if a
/// length does not fit its field.
fn encode_record(key: &str, entry: &[u8]) -> Option<Vec<u8>> {
    if key.len() > MAX_KEY_LEN {
        return None;
    }
    let entry_len = u32::try_from(entry.len()).ok()?;
    let mut record = Vec::with_capacity(RECORD_OVERHEAD + key.len() + entry.len());
    record.extend_from_slice(&(key.len() as u32).to_le_bytes());
    record.extend_from_slice(&entry_len.to_le_bytes());
    record.extend_from_slice(key.as_bytes());
    record.extend_from_slice(entry);
    let mut sum = Fnv::new();
    sum.update(&record);
    record.extend_from_slice(&sum.0.to_le_bytes());
    Some(record)
}

/// The key and entry JSON of a whole record read back, if it verifies.
fn decode_record(record: &[u8]) -> Option<(&[u8], &str)> {
    let (body, stored) = record.split_at(record.len().checked_sub(8)?);
    let mut sum = Fnv::new();
    sum.update(body);
    if u64::from_le_bytes(stored.try_into().ok()?) != sum.0 {
        return None;
    }
    let key_len = u32::from_le_bytes(body.get(..4)?.try_into().ok()?) as usize;
    let entry_len = u32::from_le_bytes(body.get(4..8)?.try_into().ok()?) as usize;
    let rest = body.get(8..)?;
    if rest.len() != key_len + entry_len {
        return None;
    }
    let (key, entry) = rest.split_at(key_len);
    Some((key, std::str::from_utf8(entry).ok()?))
}

/// What the index files a key under.
fn key_hash(key: &[u8]) -> u64 {
    let mut sum = Fnv::new();
    sum.update(key);
    sum.0
}

/// FNV-1a, 64-bit: the per-record checksum. It catches any single changed
/// byte (each step is a bijection of the state), costs about a nanosecond
/// per byte, and is not meant to resist deliberate forgery — a lookup
/// still verifies the stored key and spec.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// True for an mtime with no sub-second part: a filesystem that keeps
/// whole seconds (or two).
fn mtime_is_coarse(mtime: SystemTime) -> bool {
    mtime
        .duration_since(SystemTime::UNIX_EPOCH)
        .map_or(true, |since| since.subsec_nanos() == 0)
}

/// What tells two files apart while both exist.
type FileId = (u64, u64);

#[cfg(unix)]
fn file_id(meta: &fs::Metadata) -> FileId {
    use std::os::unix::fs::MetadataExt;
    (meta.dev(), meta.ino())
}

#[cfg(unix)]
fn read_exact_at(file: &File, buf: &mut [u8], offset: u64) -> io::Result<()> {
    std::os::unix::fs::FileExt::read_exact_at(file, buf, offset)
}

#[cfg(windows)]
fn file_id(meta: &fs::Metadata) -> FileId {
    use std::os::windows::fs::MetadataExt;
    (meta.creation_time(), 0)
}

#[cfg(windows)]
fn read_exact_at(file: &File, mut buf: &mut [u8], mut offset: u64) -> io::Result<()> {
    use std::os::windows::fs::FileExt;
    while !buf.is_empty() {
        match file.seek_read(buf, offset)? {
            0 => return Err(io::ErrorKind::UnexpectedEof.into()),
            n => {
                buf = &mut buf[n..];
                offset += n as u64;
            }
        }
    }
    Ok(())
}

impl ResultStore for DirStore {
    fn get(&self, key: &str) -> Option<CacheEntry> {
        let obs = store_obs();
        // A present-but-unusable entry is a *corrupt* miss: the distinction
        // separates "cold cache" from "damaged cache" on a dashboard.
        let found = match self.locate(key) {
            None => Ok(None),
            Some((seg, loc)) => seg.read(loc, key).inspect_err(|()| {
                // The segment changed after it was indexed: re-read the
                // directory from scratch, and write somewhere fresh.
                self.lock().reset();
            }),
        };
        match found {
            Ok(Some(entry)) => {
                obs.hits.inc();
                Some(entry)
            }
            Ok(None) => {
                obs.misses.inc();
                None
            }
            Err(()) => {
                obs.corrupt.inc();
                obs.misses.inc();
                None
            }
        }
    }

    fn put(&self, entry: &CacheEntry) {
        store_obs().puts.inc();
        let Some(record) = serde_json::to_string(entry)
            .ok()
            .and_then(|json| encode_record(&entry.key, json.as_bytes()))
        else {
            return;
        };
        let mut state = self.lock();
        let Some(at) = state.writer(&self.root) else {
            return;
        };
        let known = &mut state.segments[at];
        let offset = known.scanned;
        if (&known.seg.file).write_all(&record).is_err() {
            // Cut the partial record off and never append here again, so
            // no reader ever sees records behind a damaged one.
            let _ = known.seg.file.set_len(offset);
            state.writer = None;
            return;
        }
        known.scanned += record.len() as u64;
        let loc = Loc {
            seg: at,
            offset,
            len: record.len() as u64,
        };
        state.index.insert(key_hash(entry.key.as_bytes()), loc);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{AlgorithmSpec, GraphSpec, PlacementSpec};
    use gather_graph::generators::Family;
    use gather_sim::placement::PlacementKind;

    fn demo_spec() -> ScenarioSpec {
        ScenarioSpec::new(
            GraphSpec::new(Family::Cycle, 8),
            PlacementSpec::new(PlacementKind::UndispersedRandom, 3),
            AlgorithmSpec::new("faster_gathering"),
        )
        .with_seed(7)
    }

    fn temp_root(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("gather-cache-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    /// FIPS 180-4 example messages plus runs of `a` whose lengths sit on
    /// either side of the padding (55/56 bytes) and block (64 bytes)
    /// boundaries, with digests from an independent implementation.
    fn sha256_vectors() -> Vec<(Vec<u8>, &'static str)> {
        let a = |n: usize| vec![b'a'; n];
        vec![
            (b"".to_vec(), "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
            (b"abc".to_vec(), "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"),
            (
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq".to_vec(),
                "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
            ),
            (
                b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu"
                    .to_vec(),
                "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1",
            ),
            (a(55), "9f4390f8d30c2dd92ec9f095b65e2b9ae9b0a925a5258e241c9f1e910f734318"),
            (a(56), "b35439a4ac6f0948b6d6f9e3c6af0f5f590ce20f1bde7090ef7970686ec6738a"),
            (a(63), "7d3e74a05d7db15bce4ad9ec0658ea98e3f06eeecf16b4c6fff2da457ddc2f34"),
            (a(64), "ffe054fe7ae0cb6dc65c3af9b61d5209f439851db43d0ba5997337df154668eb"),
            (a(65), "635361c48bb9eab14198e76ea8ab7f1a41685d6ad62aa9146d301d4f17eb0ae0"),
            (a(119), "31eba51c313a5c08226adf18d4a359cfdfd8d2e816b13f4af952f7ea6584dcfb"),
            (a(120), "2f3d335432c70b580af0e8e1b3674a7c020d683aa5f73aaaedfdc55af904c21c"),
        ]
    }

    fn digest_of(pieces: &[&[u8]]) -> String {
        let mut hasher = Sha256::new();
        for piece in pieces {
            hasher.update(piece);
        }
        hex(&hasher.finish())
    }

    #[test]
    fn sha256_matches_the_fips_test_vectors() {
        for (data, want) in sha256_vectors() {
            assert_eq!(digest_of(&[&data]), want, "{} bytes", data.len());
        }
    }

    #[test]
    fn sha256_matches_the_test_vectors_fed_byte_by_byte() {
        for (data, want) in sha256_vectors() {
            let bytes: Vec<&[u8]> = data.chunks(1).collect();
            assert_eq!(digest_of(&bytes), want, "{} bytes", data.len());
        }
    }

    #[test]
    fn sha256_matches_the_test_vectors_split_at_padding_and_block_boundaries() {
        for (data, want) in sha256_vectors() {
            for split in [55, 56, 63, 64, 65] {
                if split <= data.len() {
                    let (head, tail) = data.split_at(split);
                    assert_eq!(
                        digest_of(&[head, &[], tail]),
                        want,
                        "{} bytes split at {split}",
                        data.len()
                    );
                }
            }
        }
    }

    #[test]
    fn sha256_accepts_text_through_fmt_write() {
        use std::fmt::Write as _;
        let mut hasher = Sha256::new();
        let middle = 'b';
        write!(hasher, "a{middle}c").unwrap();
        assert_eq!(
            hex(&hasher.finish()),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn spec_key_is_field_order_independent() {
        let built = demo_spec();
        // Same scenario, hand-written with every object's fields reordered.
        let reordered = ScenarioSpec::from_json(
            r#"{
              "max_rounds": 2000000000,
              "seed": 7,
              "algorithm": {"config": {"map_bound": "Paper",
                                        "uxs_policy": {"Polynomial": 3}},
                             "name": "faster_gathering"},
              "placement": {"labels": "Sequential", "k": 3,
                             "kind": "UndispersedRandom"},
              "graph": {"n": 8, "family": "Cycle"}
            }"#,
        )
        .unwrap();
        assert_eq!(built, reordered);
        assert_eq!(spec_key(&built), spec_key(&reordered));
    }

    #[test]
    fn spec_key_separates_every_axis() {
        let base = demo_spec();
        let keys = [
            spec_key(&base),
            spec_key(&base.clone().with_seed(8)),
            spec_key(&base.clone().with_max_rounds(99)),
            spec_key(&{
                let mut s = base.clone();
                s.graph.n = 9;
                s
            }),
            spec_key(&{
                let mut s = base.clone();
                s.algorithm.name = "uxs_gathering".into();
                s
            }),
            spec_key(&{
                let mut s = base.clone();
                s.placement.k = 4;
                s
            }),
        ];
        let mut unique = keys.to_vec();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), keys.len(), "{keys:?}");
    }

    #[test]
    fn keys_carry_both_version_tags_and_a_full_digest() {
        let key = spec_key(&demo_spec());
        assert!(key.starts_with(&format!("v{KEY_FORMAT_VERSION}e{ENGINE_VERSION}-")));
        let digest = key.split_once('-').unwrap().1;
        assert_eq!(digest.len(), 64);
        assert!(digest.chars().all(|c| c.is_ascii_hexdigit()));
    }

    #[test]
    fn mem_store_round_trips_entries() {
        let store = MemStore::new();
        let spec = demo_spec();
        let key = spec_key(&spec);
        assert!(store.get(&key).is_none());
        let outcome = spec.run_default().unwrap();
        store.put(&CacheEntry::new(key.clone(), spec.clone(), outcome.clone()));
        assert_eq!(store.len(), 1);
        let hit = store.get(&key).unwrap();
        assert_eq!(hit.spec, spec);
        assert_eq!(hit.outcome.outcome.rounds, outcome.outcome.rounds);
    }

    fn demo_entry(seed: u64) -> CacheEntry {
        let spec = demo_spec().with_seed(seed);
        let outcome = spec.run_default().unwrap();
        CacheEntry::new(spec_key(&spec), spec, outcome)
    }

    /// The segment files under `root`, sorted.
    fn segment_files(root: &Path) -> Vec<PathBuf> {
        let mut found: Vec<PathBuf> = fs::read_dir(root)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|ext| ext == "log"))
            .collect();
        found.sort();
        found
    }

    #[test]
    fn fnv1a_matches_the_reference_vectors() {
        for (data, want) in [
            (&b""[..], 0xcbf2_9ce4_8422_2325),
            (b"a", 0xaf63_dc4c_8601_ec8c),
            (b"foobar", 0x8594_4171_f739_67e8),
        ] {
            let mut sum = Fnv::new();
            sum.update(data);
            assert_eq!(sum.0, want, "{data:?}");
        }
    }

    #[test]
    fn dir_store_round_trips_and_tolerates_corruption() {
        let root = temp_root("roundtrip");
        let store = DirStore::new(&root);
        let entry = demo_entry(7);
        let key = entry.key.clone();
        assert!(store.get(&key).is_none(), "empty store must miss");
        assert!(!root.exists(), "a miss creates nothing");
        store.put(&entry);
        assert_eq!(store.len(), 1);
        assert!(store.get(&key).is_some());

        // Truncate the record: the store must degrade to a miss, not error,
        // both for the instance that indexed it and for a fresh one.
        let [segment] = &segment_files(&root)[..] else {
            panic!("one segment")
        };
        let full = fs::read(segment).unwrap();
        fs::write(segment, &full[..full.len() / 2]).unwrap();
        assert!(store.get(&key).is_none(), "truncated record must miss");
        assert!(DirStore::new(&root).get(&key).is_none());
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn dir_store_writes_compact_entries() {
        let root = temp_root("compact");
        let store = DirStore::new(&root);
        let entry = demo_entry(7);
        store.put(&entry);
        let compact = serde_json::to_string(&entry).unwrap();
        assert!(
            !compact.contains('\n'),
            "entries are single-line: {compact}"
        );
        // The segment holds exactly one record around the compact entry.
        let [segment] = &segment_files(&root)[..] else {
            panic!("one segment")
        };
        let record = fs::read(segment).unwrap();
        assert_eq!(
            record,
            encode_record(&entry.key, compact.as_bytes()).unwrap()
        );
        assert_eq!(
            decode_record(&record),
            Some((entry.key.as_bytes(), compact.as_str()))
        );
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn dir_store_leaves_no_temp_files_behind() {
        let root = temp_root("tmpfiles");
        let store = DirStore::new(&root);
        for seed in [1, 2, 3] {
            store.put(&demo_entry(seed));
        }
        // Three puts, one file: the instance's segment, and nothing else.
        let names: Vec<String> = fs::read_dir(&root)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        let pid = std::process::id();
        assert!(
            matches!(&names[..], [name] if name.starts_with(&format!("seg-{pid}-")) && name.ends_with(".log")),
            "{names:?}"
        );
        assert_eq!(store.len(), 3);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn dir_store_misses_once_its_root_is_removed_and_recreates_it_on_put() {
        let root = temp_root("removed");
        let store = DirStore::new(&root);
        let entry = demo_entry(7);
        store.put(&entry);
        assert!(store.get(&entry.key).is_some());
        let before = segment_files(&root);

        fs::remove_dir_all(&root).unwrap();
        assert!(store.get(&entry.key).is_none(), "a removed store must miss");
        assert!(store.is_empty());

        store.put(&entry);
        let after = segment_files(&root);
        assert_eq!(after.len(), 1, "{after:?}");
        assert_ne!(after, before, "the put lands in a new segment");
        assert!(store.get(&entry.key).is_some());
        assert!(DirStore::new(&root).get(&entry.key).is_some());
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn two_dir_stores_on_one_root_write_different_segments_and_share_entries() {
        let root = temp_root("two");
        let (a, b) = (DirStore::new(&root), DirStore::new(&root));
        let (first, second, shared) = (demo_entry(1), demo_entry(2), demo_entry(3));
        a.put(&first);
        b.put(&second);
        assert_eq!(segment_files(&root).len(), 2, "one segment per instance");
        assert!(a.get(&second.key).is_some(), "a serves b's entry");
        assert!(b.get(&first.key).is_some(), "b serves a's entry");

        // The same key written by both counts once.
        a.put(&shared);
        b.put(&shared);
        assert_eq!(a.len(), 3);
        assert_eq!(DirStore::new(&root).len(), 3);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn a_listing_trusts_only_an_mtime_older_than_the_margin() {
        let root = temp_root("mtime");
        let (first, second, third) = (demo_entry(1), demo_entry(2), demo_entry(3));
        DirStore::new(&root).put(&first);
        let set_mtime = |t| File::open(&root).unwrap().set_modified(t).unwrap();
        let reader = DirStore::new(&root);

        // An mtime within the margin of the listing proves nothing: a
        // segment created within the same clock tick (simulated by putting
        // the mtime back) is still found. (A future mtime stays within the
        // margin however slowly this test runs.)
        let fresh = SystemTime::now() + Duration::from_secs(3600);
        set_mtime(fresh);
        assert!(reader.get(&second.key).is_none());
        DirStore::new(&root).put(&second);
        set_mtime(fresh);
        assert!(reader.get(&second.key).is_some());

        // An old mtime is trusted until the directory changes.
        set_mtime(SystemTime::now() - Duration::from_secs(3600));
        assert!(reader.get(&third.key).is_none());
        DirStore::new(&root).put(&third);
        assert!(reader.get(&third.key).is_some());
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn a_record_appended_in_two_halves_misses_then_hits() {
        let root = temp_root("halves");
        fs::create_dir_all(&root).unwrap();
        let entry = demo_entry(7);
        let json = serde_json::to_string(&entry).unwrap();
        let record = encode_record(&entry.key, json.as_bytes()).unwrap();
        // Another process's segment, caught mid-append.
        let path = root.join("seg-0-0.log");
        let (head, tail) = record.split_at(record.len() / 2);
        fs::write(&path, head).unwrap();
        let reader = DirStore::new(&root);
        assert!(reader.get(&entry.key).is_none(), "a torn tail is a miss");
        assert!(reader.is_empty());

        let mut file = OpenOptions::new().append(true).open(&path).unwrap();
        file.write_all(tail).unwrap();
        assert!(reader.get(&entry.key).is_some(), "the finished record hits");
        assert_eq!(reader.len(), 1);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn a_key_json_file_is_inert() {
        // One file per entry, compact or pretty, as builds before segment
        // files wrote them: neither is read or counted.
        let root = temp_root("key-json");
        fs::create_dir_all(&root).unwrap();
        let (compact, pretty) = (demo_entry(1), demo_entry(2));
        fs::write(
            root.join(format!("{}.json", compact.key)),
            serde_json::to_string(&compact).unwrap(),
        )
        .unwrap();
        fs::write(
            root.join(format!("{}.json", pretty.key)),
            serde_json::to_string_pretty(&pretty).unwrap(),
        )
        .unwrap();
        let store = DirStore::new(&root);
        for entry in [&compact, &pretty] {
            assert!(store.get(&entry.key).is_none(), "a <key>.json must miss");
        }
        assert_eq!(store.len(), 0);
        // The recomputed result goes into a segment and hits from there.
        store.put(&compact);
        let hit = store.get(&compact.key).expect("the segment record hits");
        assert_eq!(hit.spec, compact.spec);
        assert_eq!(store.len(), 1);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn an_entry_with_the_old_trace_key_still_hits_and_rows_like_a_fresh_run() {
        // `demo_spec()` as builds whose `SimOutcome` still had a `trace`
        // field stored it (and its row): every cache on disk holds entries
        // of this form.
        const OLD_ENTRY: &str = r#"{"key":"v1e1-7e2bb39be24a30e02084f276b9d92a2a39b1310215427fa897f627d03d0c9c4a","spec":{"graph":{"family":"Cycle","n":8},"placement":{"kind":"UndispersedRandom","k":3,"labels":"Sequential"},"algorithm":{"name":"faster_gathering","config":{"uxs_policy":{"Polynomial":3},"map_bound":"Paper"}},"seed":7,"max_rounds":2000000000},"outcome":{"n":8,"k":3,"closest_pair":0,"outcome":{"rounds":10257,"gathered":true,"gather_node":2,"first_gather_round":25,"first_contact_round":0,"all_terminated":true,"termination_round":10256,"false_detection":false,"timed_out":false,"metrics":{"rounds":10257,"total_moves":165,"messages_delivered":20450,"moves_per_robot":{"1":126,"2":11,"3":28},"peak_memory_bits":{"1":1480,"2":1024,"3":1024}},"final_positions":{"1":2,"2":2,"3":2},"trace":null}}}"#;
        const OLD_ROW: &str = r#"{"family":"cycle","n":8,"k":3,"kind":"UndispersedRandom","algorithm":"faster_gathering","seed":7,"closest_pair":0,"rounds":10257,"total_moves":165,"messages":20450,"peak_memory_bits":1480,"detected_ok":true,"error":null}"#;
        let spec = demo_spec();
        let key = spec_key(&spec);
        let root = temp_root("trace-key");
        fs::create_dir_all(&root).unwrap();
        fs::write(
            root.join("seg-0-0.log"),
            encode_record(&key, OLD_ENTRY.as_bytes()).unwrap(),
        )
        .unwrap();
        let (cached, hit) = spec
            .run_cached(
                crate::registry::global(),
                &DirStore::new(&root),
                CachePolicy::ReadOnly,
            )
            .unwrap();
        assert!(hit, "the old entry must decode and be served");
        let row =
            |outcome| serde_json::to_string(&crate::sweep::SweepRow::ok(&spec, outcome)).unwrap();
        assert_eq!(row(&cached), OLD_ROW);
        assert_eq!(row(&spec.run_default().unwrap()), OLD_ROW);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn policy_predicates() {
        assert!(!CachePolicy::Off.reads() && !CachePolicy::Off.writes());
        assert!(CachePolicy::ReadWrite.reads() && CachePolicy::ReadWrite.writes());
        assert!(CachePolicy::ReadOnly.reads() && !CachePolicy::ReadOnly.writes());
        assert_eq!(CachePolicy::default(), CachePolicy::Off);
    }
}
