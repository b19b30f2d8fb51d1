//! Fixed-seed fuzzing of `DirStore` entries, the trust boundary between a
//! result cache on disk and the rows a sweep serves.
//!
//! A valid entry is mutated byte-wise (bit flips, inserted bytes, deleted
//! bytes, NUL overwrites) and looked up through the verified-hit path. Every
//! mutation must end as a miss or as a hit whose stored spec equals the
//! requested spec; nothing may panic. The seeds are fixed, so any failure
//! reproduces; named cases below pin the parser's fast paths (escape-free
//! string runs, plain integers) against the inputs they must still reject.

use gather_core::cache::{spec_key, CacheEntry, CachePolicy, DirStore, ResultStore};
use gather_core::registry;
use gather_core::scenario::{AlgorithmSpec, GraphSpec, PlacementSpec, ScenarioSpec};
use gather_graph::generators::Family;
use gather_sim::placement::PlacementKind;
use std::fs;
use std::path::PathBuf;

fn spec() -> ScenarioSpec {
    ScenarioSpec::new(
        GraphSpec::new(Family::Cycle, 6),
        PlacementSpec::new(PlacementKind::UndispersedRandom, 3),
        AlgorithmSpec::new("faster_gathering"),
    )
    .with_seed(7)
}

struct Fixture {
    root: PathBuf,
    store: DirStore,
    spec: ScenarioSpec,
    key: String,
    entry: String,
}

impl Fixture {
    fn new(tag: &str) -> Fixture {
        let root =
            std::env::temp_dir().join(format!("gather-store-fuzz-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        let store = DirStore::new(&root);
        let spec = spec();
        let key = spec_key(&spec);
        let outcome = spec.run_default().expect("the fixture spec runs");
        store.put(&CacheEntry::new(key.clone(), spec.clone(), outcome));
        let entry = fs::read_to_string(root.join(format!("{key}.json"))).unwrap();
        Fixture {
            root,
            store,
            spec,
            key,
            entry,
        }
    }

    /// Stores `bytes` as the entry and looks it up. Returns whether a hit
    /// was served, after checking that a served hit is exactly the one the
    /// store returned and carries the requested spec.
    fn lookup(&self, bytes: &[u8]) -> bool {
        fs::write(self.root.join(format!("{}.json", self.key)), bytes).unwrap();
        let stored = self.store.get(&self.key);
        let (outcome, hit) = self
            .spec
            .run_cached(registry::global(), &self.store, CachePolicy::ReadOnly)
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

/// SplitMix64, so the mutation schedule is a pure function of the seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

fn mutate(rng: &mut Rng, entry: &[u8]) -> Vec<u8> {
    let mut bytes = entry.to_vec();
    for _ in 0..1 + rng.below(3) {
        let at = rng.below(bytes.len());
        match rng.below(4) {
            0 => bytes[at] ^= 1 << rng.below(8),
            1 => {
                // Bytes the fast paths branch on, plus arbitrary ones.
                let pool = [b'"', b'\\', b'0', b'9', b'-', b'.', b'e', 0x01, 0x80, 0xff];
                let byte = if rng.below(2) == 0 {
                    pool[rng.below(pool.len())]
                } else {
                    rng.next() as u8
                };
                bytes.insert(at, byte);
            }
            2 => {
                bytes.remove(at);
            }
            _ => bytes[at] = 0,
        }
    }
    bytes
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
