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
//! because persisted caches and CI cache keys depend on it.
//!
//! ## Stores
//!
//! [`ResultStore`] is the storage abstraction; two implementations ship:
//!
//! * [`MemStore`] — a `Mutex<HashMap>`; per-process, used by tests and
//!   long-running services.
//! * [`DirStore`] — one `<key>.json` file per entry under a root directory
//!   (the repo convention is `results/cache/`), holding the entry as
//!   compact single-line JSON (pretty entries written by older builds
//!   still read). Writes go through a
//!   temp-file + atomic rename so concurrent sweep workers and interrupted
//!   runs can never leave a half-written entry behind; unreadable or corrupt
//!   entries are treated as misses and recomputed.
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
//! read-only deployments and for consuming a CI-restored cache without
//! mutating it). Failed runs are never cached under any policy.

use crate::scenario::{ScenarioOutcome, ScenarioSpec};
use gather_obs::{Counter, Registry};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Key-format version tag embedded in every [`spec_key`].
///
/// Bump this whenever the canonical serialization, the hash function, or
/// the meaning of any [`ScenarioSpec`] field changes; old cache entries are
/// then invisible to the new format instead of silently wrong. The CI cache
/// key in `.github/workflows/ci.yml` mirrors this constant.
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

/// Distinguishes concurrent writers' temp files within one process.
static TMP_COUNTER: AtomicU64 = AtomicU64::new(0);

/// On-disk [`ResultStore`]: one `<key>.json` file per entry under a root
/// directory (the repo convention is `results/cache/`).
///
/// Writes land in a `.tmp-…` sibling first and are atomically renamed into
/// place, so a concurrent reader sees either the complete entry or nothing.
/// Corrupt, truncated or foreign files under the root are treated as misses.
#[derive(Debug, Clone)]
pub struct DirStore {
    root: PathBuf,
}

impl DirStore {
    /// A store rooted at `root` (created lazily on first write).
    pub fn new(root: impl Into<PathBuf>) -> Self {
        DirStore { root: root.into() }
    }

    /// The directory entries are stored in.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn entry_path(&self, key: &str) -> PathBuf {
        self.root.join(format!("{key}.json"))
    }

    /// Number of well-formed `.json` entries currently on disk.
    pub fn len(&self) -> usize {
        fs::read_dir(&self.root)
            .map(|it| {
                it.filter_map(|e| e.ok())
                    .filter(|e| {
                        let name = e.file_name();
                        let name = name.to_string_lossy();
                        name.ends_with(".json") && !name.starts_with(".tmp-")
                    })
                    .count()
            })
            .unwrap_or(0)
    }

    /// True if no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl ResultStore for DirStore {
    fn get(&self, key: &str) -> Option<CacheEntry> {
        let obs = store_obs();
        let Ok(raw) = fs::read_to_string(self.entry_path(key)) else {
            obs.misses.inc();
            return None;
        };
        // A present-but-unusable file is a *corrupt* miss: the distinction
        // separates "cold cache" from "damaged cache" on a dashboard. That
        // covers unparseable JSON and a file renamed by hand (or a partially
        // synced directory), which must not serve a result for the wrong
        // spec.
        let entry = match serde_json::from_str::<CacheEntry>(&raw) {
            Ok(entry) if entry.key == key => entry,
            _ => {
                obs.corrupt.inc();
                obs.misses.inc();
                return None;
            }
        };
        obs.hits.inc();
        Some(entry)
    }

    fn put(&self, entry: &CacheEntry) {
        store_obs().puts.inc();
        if fs::create_dir_all(&self.root).is_err() {
            return;
        }
        let Ok(json) = serde_json::to_string(entry) else {
            return;
        };
        let tmp = self.root.join(format!(
            ".tmp-{}-{}-{}",
            std::process::id(),
            TMP_COUNTER.fetch_add(1, Ordering::Relaxed),
            entry.key
        ));
        if fs::write(&tmp, json).is_err() {
            let _ = fs::remove_file(&tmp);
            return;
        }
        if fs::rename(&tmp, self.entry_path(&entry.key)).is_err() {
            let _ = fs::remove_file(&tmp);
        }
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
        let dir = std::env::temp_dir().join(format!(
            "gather-cache-test-{tag}-{}-{}",
            std::process::id(),
            TMP_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
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

    #[test]
    fn dir_store_round_trips_and_tolerates_corruption() {
        let root = temp_root("roundtrip");
        let store = DirStore::new(&root);
        let spec = demo_spec();
        let key = spec_key(&spec);
        assert!(store.get(&key).is_none(), "empty store must miss");
        let outcome = spec.run_default().unwrap();
        store.put(&CacheEntry::new(key.clone(), spec.clone(), outcome));
        assert_eq!(store.len(), 1);
        assert!(store.get(&key).is_some());

        // Truncate the entry: the store must degrade to a miss, not error.
        let path = root.join(format!("{key}.json"));
        let full = fs::read_to_string(&path).unwrap();
        fs::write(&path, &full[..full.len() / 2]).unwrap();
        assert!(store.get(&key).is_none(), "truncated entry must miss");

        // Valid JSON under the wrong file name must also miss.
        fs::write(&path, &full).unwrap();
        let other = spec_key(&demo_spec().with_seed(1234));
        fs::copy(&path, root.join(format!("{other}.json"))).unwrap();
        assert!(store.get(&other).is_none(), "renamed entry must miss");

        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn dir_store_writes_compact_entries_and_still_hits_pretty_ones() {
        let root = temp_root("compact");
        let store = DirStore::new(&root);
        let spec = demo_spec();
        let key = spec_key(&spec);
        let entry = CacheEntry::new(key.clone(), spec.clone(), spec.run_default().unwrap());
        store.put(&entry);
        let path = root.join(format!("{key}.json"));
        let compact = fs::read_to_string(&path).unwrap();
        assert!(
            !compact.contains('\n'),
            "entries are single-line: {compact}"
        );
        assert_eq!(compact, serde_json::to_string(&entry).unwrap());

        // An entry as older builds wrote it, pretty-printed, is still a
        // verified hit with the same outcome.
        let pretty = serde_json::to_string_pretty(&entry).unwrap();
        assert!(pretty.len() > compact.len());
        fs::write(&path, &pretty).unwrap();
        let registry = crate::registry::global();
        let (outcome, hit) = spec
            .run_cached(registry, &store, CachePolicy::ReadOnly)
            .unwrap();
        assert!(hit, "a pretty entry must be served");
        assert_eq!(
            serde_json::to_string(&outcome).unwrap(),
            serde_json::to_string(&entry.outcome).unwrap()
        );
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn dir_store_leaves_no_temp_files_behind() {
        let root = temp_root("tmpfiles");
        let store = DirStore::new(&root);
        let spec = demo_spec();
        let outcome = spec.run_default().unwrap();
        store.put(&CacheEntry::new(spec_key(&spec), spec, outcome));
        let leftovers: Vec<_> = fs::read_dir(&root)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().starts_with(".tmp-"))
            .collect();
        assert!(leftovers.is_empty(), "{leftovers:?}");
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
