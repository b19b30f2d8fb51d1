//! Seeded byte mutation shared by the fuzz tests: the mutation schedule is
//! a pure function of the seed, so any failure reproduces.

/// SplitMix64.
pub struct Rng(pub u64);

impl Rng {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

use serde_json::MAX_DEPTH;

/// Lengths of the nesting runs [`mutate`] splices in: on both sides of the
/// JSON parser's depth cap, and far beyond it.
const NEST_RUNS: [usize; 5] = [
    MAX_DEPTH - 1,
    MAX_DEPTH,
    MAX_DEPTH + 1,
    2 * MAX_DEPTH,
    100 * MAX_DEPTH,
];

/// One to three bit flips, inserted bytes, deleted bytes, NUL overwrites or
/// spliced runs of `[` / `{"a":` at random positions of `input`.
pub fn mutate(rng: &mut Rng, input: &[u8]) -> Vec<u8> {
    let mut bytes = input.to_vec();
    for _ in 0..1 + rng.below(3) {
        let at = rng.below(bytes.len());
        match rng.below(5) {
            0 => bytes[at] ^= 1 << rng.below(8),
            1 => {
                // Bytes the JSON parser's fast paths branch on, plus
                // arbitrary ones.
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
            3 => bytes[at] = 0,
            _ => {
                let open: &[u8] = if rng.below(2) == 0 { b"[" } else { b"{\"a\":" };
                let run = open.repeat(NEST_RUNS[rng.below(NEST_RUNS.len())]);
                bytes.splice(at..at, run);
            }
        }
    }
    bytes
}
