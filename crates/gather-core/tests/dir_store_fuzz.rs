//! Fixed-seed fuzzing of `DirStore`, the trust boundary between a result
//! cache on disk and the rows a sweep serves.
//!
//! Two layers are mutated byte-wise (bit flips, inserted bytes, deleted
//! bytes, NUL overwrites) and looked up through the verified-hit path:
//!
//! * the entry JSON of a segment's only record, with the checksum computed
//!   over the mutated bytes, so every case passes the checksum; one that
//!   keeps the entry's leading `{"key":"<key>"` then meets the decoder.
//!   Named cases pin the JSON parser's fast paths (escape-free string runs,
//!   plain integers) against the inputs they must still reject;
//! * a segment of records, as another process's store appends them: damage
//!   inside a record, every cut through the last record, length prefixes
//!   past the end, and a record whose key disagrees with its entry.
//!
//! Every case must end as a miss or as a hit whose stored spec equals the
//! requested spec; nothing may panic. The seeds are fixed, so any failure
//! reproduces.

mod mutate;

use gather_core::cache::{spec_key, CacheEntry, CachePolicy, DirStore, ResultStore};
use gather_core::registry;
use gather_core::scenario::{AlgorithmSpec, GraphSpec, PlacementSpec, ScenarioSpec};
use gather_graph::generators::Family;
use gather_sim::placement::PlacementKind;
use mutate::{mutate, Rng};
use std::fs;
use std::io::Write;
use std::ops::Range;
use std::path::PathBuf;

fn spec() -> ScenarioSpec {
    ScenarioSpec::new(
        GraphSpec::new(Family::Cycle, 6),
        PlacementSpec::new(PlacementKind::UndispersedRandom, 3),
        AlgorithmSpec::new("faster_gathering"),
    )
    .with_seed(7)
}

fn entry(spec: &ScenarioSpec) -> CacheEntry {
    let outcome = spec.run_default().expect("the fixture spec runs");
    CacheEntry::new(spec_key(spec), spec.clone(), outcome)
}

fn temp_root(tag: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!("gather-store-fuzz-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&root);
    root
}

/// One entry's JSON, looked up as the only record of a segment.
struct Fixture {
    root: PathBuf,
    spec: ScenarioSpec,
    key: String,
    entry: String,
}

impl Fixture {
    fn new(tag: &str) -> Fixture {
        let spec = spec();
        let entry = entry(&spec);
        let key = entry.key.clone();
        let entry = serde_json::to_string(&entry).unwrap();
        Fixture {
            root: temp_root(tag),
            spec,
            key,
            entry,
        }
    }

    /// Stores `bytes` as the entry of the only record under a fresh root
    /// and looks it up through a fresh store. Returns whether a hit was
    /// served, after checking that a served hit is exactly the one the
    /// store returned and carries the requested spec.
    fn lookup(&self, bytes: &[u8]) -> bool {
        let _ = fs::remove_dir_all(&self.root);
        fs::create_dir_all(&self.root).unwrap();
        fs::write(self.root.join("seg-0-0.log"), record(&self.key, bytes)).unwrap();
        let store = DirStore::new(&self.root);
        let stored = store.get(&self.key);
        let (outcome, hit) = self
            .spec
            .run_cached(registry::global(), &store, CachePolicy::ReadOnly)
            .expect("a miss recomputes");
        let verified = stored.filter(|e| e.key == self.key && e.spec == self.spec);
        assert_eq!(
            hit,
            verified.is_some(),
            "{}",
            String::from_utf8_lossy(bytes)
        );
        if let Some(entry) = verified {
            assert_eq!(
                serde_json::to_string(&entry.outcome).unwrap(),
                serde_json::to_string(&outcome).unwrap()
            );
        }
        hit
    }

    /// The entry with the first occurrence of `from` replaced by `to`.
    fn patched(&self, from: &str, to: &[u8]) -> Vec<u8> {
        let at = self.entry.find(from).unwrap_or_else(|| panic!("{from}"));
        let mut bytes = self.entry.as_bytes().to_vec();
        bytes.splice(at..at + from.len(), to.iter().copied());
        bytes
    }
}

impl Drop for Fixture {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.root);
    }
}

#[test]
fn the_unmutated_compact_entry_is_a_verified_hit() {
    let fx = Fixture::new("clean");
    assert!(!fx.entry.contains('\n'), "entries are single-line");
    assert!(fx.lookup(fx.entry.as_bytes()));
}

#[test]
fn seeded_byte_mutations_miss_or_hit_the_requested_spec() {
    let fx = Fixture::new("seeded");
    for seed in [1u64, 2, 3, 4] {
        let mut rng = Rng(seed);
        let mut hits = 0;
        for _ in 0..64 {
            if fx.lookup(&mutate(&mut rng, fx.entry.as_bytes())) {
                hits += 1;
            }
        }
        // Most mutations break the JSON or the key; none may be served
        // for another spec. A few land in outcome digits and still hit.
        assert!(hits < 64, "seed {seed}: every mutation hit");
    }
}

#[test]
fn invalid_utf8_inside_a_string_run_misses() {
    let fx = Fixture::new("utf8");
    for bad in [
        &b"faster\xffgathering"[..],
        b"faster\xc3gathering",
        b"\xe2\x82",
    ] {
        assert!(!fx.lookup(&fx.patched("faster_gathering", bad)));
    }
}

#[test]
fn raw_control_bytes_inside_a_string_run_miss() {
    let fx = Fixture::new("control");
    for control in [0x00u8, 0x01, b'\n', 0x1f] {
        let name = [&b"faster"[..], &[control], b"_gathering"].concat();
        let key = [&b"\"ke"[..], &[control], b"y\""].concat();
        for bytes in [
            fx.patched("faster_gathering", &name),
            fx.patched("\"key\"", &key),
        ] {
            assert!(!fx.lookup(&bytes));
            // Rejected by the parser itself, not only by spec verification.
            let text = String::from_utf8(bytes).unwrap();
            assert!(serde_json::from_str::<serde_json::Value>(&text).is_err());
        }
    }
}

#[test]
fn a_twenty_digit_integer_overflowing_u64_misses() {
    let fx = Fixture::new("overflow");
    assert!(!fx.lookup(&fx.patched("\"seed\":7", b"\"seed\":18446744073709551616")));
    // The largest u64 still takes the general path and reads exactly; it
    // names another spec, so the lookup is an unverified miss.
    assert!(!fx.lookup(&fx.patched("\"seed\":7", b"\"seed\":18446744073709551615")));
    // Leading zeros were always accepted and still are.
    assert!(fx.lookup(&fx.patched("\"seed\":7", b"\"seed\":0007")));
}

#[test]
fn a_valid_entry_for_another_spec_is_never_served() {
    let fx = Fixture::new("respec");
    assert!(!fx.lookup(&fx.patched("\"seed\":7", b"\"seed\":8")));
    assert!(!fx.lookup(&fx.patched("faster_gathering", b"uxs_gathering")));
}

// ---------------------------------------------------------------------------
// Segment records
// ---------------------------------------------------------------------------

/// A segment of three records, as another process's store appended them.
struct SegmentFixture {
    root: PathBuf,
    entries: Vec<CacheEntry>,
    /// The segment's bytes.
    segment: Vec<u8>,
    /// Where each record lies in `segment`.
    records: Vec<Range<usize>>,
}

impl SegmentFixture {
    fn new(tag: &str) -> SegmentFixture {
        let root = temp_root(tag);
        let entries: Vec<CacheEntry> = [7, 8, 9]
            .into_iter()
            .map(|seed| entry(&spec().with_seed(seed)))
            .collect();
        let writer = DirStore::new(&root);
        for entry in &entries {
            writer.put(entry);
        }
        let [segment] = &fs::read_dir(&root)
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect::<Vec<_>>()[..]
        else {
            panic!("one writer, one segment");
        };
        let segment = fs::read(segment).unwrap();
        let mut records = Vec::new();
        let mut at = 0;
        while at < segment.len() {
            let len = |i: usize| {
                u32::from_le_bytes(segment[at + i..at + i + 4].try_into().unwrap()) as usize
            };
            let end = at + 16 + len(0) + len(4);
            records.push(at..end);
            at = end;
        }
        assert_eq!(records.len(), entries.len());
        SegmentFixture {
            root,
            entries,
            segment,
            records,
        }
    }

    fn segment_path(&self) -> PathBuf {
        self.root.join("seg-1-0.log")
    }

    /// Makes `bytes` the only segment under a fresh root and looks every
    /// entry up through a fresh store. Returns which entries hit, after
    /// checking that each hit is exactly the entry that was stored.
    fn lookup(&self, bytes: &[u8]) -> (DirStore, Vec<bool>) {
        let _ = fs::remove_dir_all(&self.root);
        fs::create_dir_all(&self.root).unwrap();
        fs::write(self.segment_path(), bytes).unwrap();
        let store = DirStore::new(&self.root);
        let hits = self.hits(&store);
        (store, hits)
    }

    fn hits(&self, store: &DirStore) -> Vec<bool> {
        self.entries
            .iter()
            .map(|want| match store.get(&want.key) {
                None => false,
                Some(got) => {
                    assert_eq!(got.key, want.key);
                    assert_eq!(got.spec, want.spec);
                    assert_eq!(
                        serde_json::to_string(&got.outcome).unwrap(),
                        serde_json::to_string(&want.outcome).unwrap()
                    );
                    true
                }
            })
            .collect()
    }
}

impl Drop for SegmentFixture {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.root);
    }
}

/// A record in the documented layout, built independently of the store:
/// `key_len: u32 LE | entry_len: u32 LE | key | entry | FNV-1a-64 u64 LE`.
/// The entry need not be UTF-8: mutated bytes often are not.
fn record(key: &str, entry: impl AsRef<[u8]>) -> Vec<u8> {
    let entry = entry.as_ref();
    let mut bytes = Vec::new();
    bytes.extend_from_slice(&(key.len() as u32).to_le_bytes());
    bytes.extend_from_slice(&(entry.len() as u32).to_le_bytes());
    bytes.extend_from_slice(key.as_bytes());
    bytes.extend_from_slice(entry);
    let mut sum: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in &bytes {
        sum = (sum ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    bytes.extend_from_slice(&sum.to_le_bytes());
    bytes
}

fn corrupt_total() -> u64 {
    gather_obs::Registry::global()
        .counter("store_corrupt_total")
        .get()
}

#[test]
fn an_undamaged_segment_hits_every_record() {
    let fx = SegmentFixture::new("seg-clean");
    assert_eq!(fx.lookup(&fx.segment).1, [true, true, true]);
    // The store writes the documented layout.
    let rebuilt: Vec<u8> = fx
        .entries
        .iter()
        .flat_map(|e| record(&e.key, serde_json::to_string(e).unwrap()))
        .collect();
    assert_eq!(rebuilt, fx.segment);
}

#[test]
fn seeded_mutations_inside_a_record_miss_it_and_spare_the_records_before() {
    let fx = SegmentFixture::new("seg-seeded");
    for seed in [1u64, 2, 3, 4] {
        let mut rng = Rng(seed);
        for _ in 0..48 {
            let damaged = rng.below(fx.records.len());
            let range = fx.records[damaged].clone();
            let mutated = mutate(&mut rng, &fx.segment[range.clone()]);
            let same_length = mutated.len() == range.len();
            let mut bytes = fx.segment[..range.start].to_vec();
            bytes.extend_from_slice(&mutated);
            bytes.extend_from_slice(&fx.segment[range.end..]);
            let (store, hits) = fx.lookup(&bytes);
            // A damaged record is never indexed, so never counted.
            let verified = hits.iter().filter(|&&h| h).count();
            assert_eq!(store.len(), verified, "seed {seed}: {hits:?}");
            assert!(hits[..damaged].iter().all(|&h| h), "seed {seed}: {hits:?}");
            if mutated != fx.segment[range] {
                assert!(!hits[damaged], "seed {seed}: a damaged record hit");
            }
            // A record whose length fields survived is skipped, and the
            // scan goes on past it.
            let header_intact = bytes[fx.records[damaged].start..][..8]
                == fx.segment[fx.records[damaged].start..][..8];
            if same_length && header_intact {
                assert!(
                    hits[damaged + 1..].iter().all(|&h| h),
                    "seed {seed}: {hits:?}"
                );
            }
        }
    }
}

#[test]
fn every_cut_through_the_last_record_misses_it_until_the_rest_is_appended() {
    let fx = SegmentFixture::new("seg-cuts");
    let last = fx.records.last().unwrap().clone();
    for cut in last {
        let (store, hits) = fx.lookup(&fx.segment[..cut]);
        assert_eq!(hits, [true, true, false], "cut at {cut}");
        let mut file = fs::OpenOptions::new()
            .append(true)
            .open(fx.segment_path())
            .unwrap();
        file.write_all(&fx.segment[cut..]).unwrap();
        assert_eq!(fx.hits(&store), [true, true, true], "cut at {cut}");
    }
}

#[test]
fn a_length_prefix_past_the_end_is_a_torn_tail() {
    let fx = SegmentFixture::new("seg-past-eof");
    for (damaged, field) in [(2, 4), (2, 0), (1, 4), (1, 0)] {
        for len in [u32::MAX, (fx.segment.len() as u32) + 1] {
            let mut bytes = fx.segment.clone();
            let at = fx.records[damaged].start + field;
            bytes[at..at + 4].copy_from_slice(&len.to_le_bytes());
            let (_, hits) = fx.lookup(&bytes);
            let want: Vec<bool> = (0..fx.records.len()).map(|i| i < damaged).collect();
            assert_eq!(hits, want, "record {damaged}, field {field}, length {len}");
        }
    }
}

#[test]
fn a_record_whose_key_disagrees_with_its_entry_is_skipped_and_counted() {
    let fx = SegmentFixture::new("seg-rekeyed");
    let json = |i: usize| serde_json::to_string(&fx.entries[i]).unwrap();
    let mut bytes = record(&fx.entries[0].key, json(0));
    bytes.extend(record(&fx.entries[1].key, json(2)));
    bytes.extend(record(&fx.entries[2].key, json(2)));
    let corrupt = corrupt_total();
    let (store, hits) = fx.lookup(&bytes);
    assert_eq!(hits, [true, false, true]);
    assert!(
        corrupt_total() > corrupt,
        "the rekeyed record counts as damage"
    );
    assert_eq!(store.len(), 2);
}

#[test]
fn a_record_changed_after_it_was_indexed_misses_and_the_rest_still_hit() {
    let fx = SegmentFixture::new("seg-changed");
    let (store, hits) = fx.lookup(&fx.segment);
    assert_eq!(hits, [true, true, true]);
    // Same length, valid JSON, another outcome: only the checksum tells.
    let record = &fx.segment[fx.records[1].clone()];
    let at = fx.records[1].start
        + record
            .windows(9)
            .position(|w| w == b"\"rounds\":")
            .expect("an outcome field")
        + 9;
    let mut bytes = fx.segment.clone();
    bytes[at] = if bytes[at] == b'1' { b'2' } else { b'1' };
    fs::write(fx.segment_path(), &bytes).unwrap();
    assert_eq!(fx.hits(&store), [true, false, true]);
    assert_eq!(store.len(), 2, "the re-read skips the changed record");
    store.put(&fx.entries[1]);
    assert_eq!(fx.hits(&store), [true, true, true]);
}

#[test]
fn a_record_whose_entry_nests_deeply_is_a_corrupt_miss() {
    let fx = SegmentFixture::new("seg-nested");
    let json = |i: usize| serde_json::to_string(&fx.entries[i]).unwrap();
    for depth in [10_000, 100_000] {
        let mut bytes = record(&fx.entries[0].key, json(0));
        bytes.extend(record(&fx.entries[1].key, "[".repeat(depth)));
        bytes.extend(record(&fx.entries[2].key, json(2)));
        let corrupt = corrupt_total();
        let (store, hits) = fx.lookup(&bytes);
        assert_eq!(hits, [true, false, true], "depth {depth}");
        assert!(corrupt_total() > corrupt, "depth {depth}: not counted");
        assert_eq!(store.len(), 2);
    }
    // So does a record holding nothing but the nesting.
    assert!(!Fixture::new("nested").lookup("[".repeat(10_000).as_bytes()));
}
