//! Offline shim for the `rand_chacha` crate (see `shims/README.md`).
//!
//! [`ChaCha8Rng`] is a genuine ChaCha8 implementation — the standard
//! quarter-round/double-round block function over the "expand 32-byte k"
//! state layout with a 64-bit block counter — exposed through the
//! `RngCore`/`SeedableRng` traits of the in-tree `rand` shim. Output is
//! platform-independent and fully determined by the 32-byte seed, which is
//! the property the testbed's named RNG streams rely on. The word-level
//! output order is this shim's own; it does not bit-match the upstream
//! `rand_chacha` crate.

pub use rand::{RngCore, SeedableRng};

/// Re-export module matching `rand_chacha::rand_core`.
pub mod rand_core {
    pub use rand::{RngCore, SeedableRng};
}

const CHACHA_ROUNDS: usize = 8;

/// A ChaCha8 random number generator seeded from 32 bytes.
#[derive(Clone, PartialEq, Eq)]
pub struct ChaCha8Rng {
    /// Key words (state[4..12] of the ChaCha matrix).
    key: [u32; 8],
    /// 64-bit block counter (state[12..14]); the stream/nonce words are 0.
    counter: u64,
    /// The current decoded keystream block.
    block: [u32; 16],
    /// Next unread word in `block`; 16 means exhausted.
    cursor: usize,
}

impl std::fmt::Debug for ChaCha8Rng {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print key material by accident; the counter identifies
        // stream position, which is all debugging needs.
        f.debug_struct("ChaCha8Rng").field("counter", &self.counter).finish()
    }
}

#[inline(always)]
fn quarter_round(state: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(16);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(12);
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(8);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(7);
}

impl ChaCha8Rng {
    fn refill(&mut self) {
        let mut state = [0u32; 16];
        // "expand 32-byte k"
        state[0] = 0x6170_7865;
        state[1] = 0x3320_646e;
        state[2] = 0x7962_2d32;
        state[3] = 0x6b20_6574;
        state[4..12].copy_from_slice(&self.key);
        state[12] = self.counter as u32;
        state[13] = (self.counter >> 32) as u32;
        // state[14], state[15]: stream id, fixed at 0.
        let mut working = state;
        for _ in 0..CHACHA_ROUNDS / 2 {
            // Column round.
            quarter_round(&mut working, 0, 4, 8, 12);
            quarter_round(&mut working, 1, 5, 9, 13);
            quarter_round(&mut working, 2, 6, 10, 14);
            quarter_round(&mut working, 3, 7, 11, 15);
            // Diagonal round.
            quarter_round(&mut working, 0, 5, 10, 15);
            quarter_round(&mut working, 1, 6, 11, 12);
            quarter_round(&mut working, 2, 7, 8, 13);
            quarter_round(&mut working, 3, 4, 9, 14);
        }
        for i in 0..16 {
            self.block[i] = working[i].wrapping_add(state[i]);
        }
        self.counter = self.counter.wrapping_add(1);
        self.cursor = 0;
    }

    /// The number of 64-byte blocks consumed so far (diagnostics).
    pub fn block_count(&self) -> u64 {
        self.counter
    }
}

impl SeedableRng for ChaCha8Rng {
    type Seed = [u8; 32];

    fn from_seed(seed: [u8; 32]) -> Self {
        let mut key = [0u32; 8];
        for (i, k) in key.iter_mut().enumerate() {
            *k = u32::from_le_bytes(seed[4 * i..4 * i + 4].try_into().expect("4-byte chunk"));
        }
        ChaCha8Rng { key, counter: 0, block: [0; 16], cursor: 16 }
    }
}

impl RngCore for ChaCha8Rng {
    fn next_u32(&mut self) -> u32 {
        if self.cursor >= 16 {
            self.refill();
        }
        let word = self.block[self.cursor];
        self.cursor += 1;
        word
    }

    fn next_u64(&mut self) -> u64 {
        // Both words in the current block: read them without two refill
        // checks. Otherwise the pair straddles a refill, word by word.
        if self.cursor <= 14 {
            let (lo, hi) = (self.block[self.cursor] as u64, self.block[self.cursor + 1] as u64);
            self.cursor += 2;
            return hi << 32 | lo;
        }
        let lo = self.next_u32() as u64;
        let hi = self.next_u32() as u64;
        hi << 32 | lo
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn same_seed_same_stream() {
        let seed = [7u8; 32];
        let a: Vec<u64> = {
            let mut r = ChaCha8Rng::from_seed(seed);
            (0..64).map(|_| r.gen()).collect()
        };
        let b: Vec<u64> = {
            let mut r = ChaCha8Rng::from_seed(seed);
            (0..64).map(|_| r.gen()).collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = ChaCha8Rng::from_seed([1u8; 32]);
        let mut b = ChaCha8Rng::from_seed([2u8; 32]);
        let va: Vec<u32> = (0..8).map(|_| a.next_u32()).collect();
        let vb: Vec<u32> = (0..8).map(|_| b.next_u32()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn single_bit_seed_change_avalanches() {
        let s1 = [0u8; 32];
        let mut s2 = [0u8; 32];
        s2[31] = 1;
        let mut a = ChaCha8Rng::from_seed(s1);
        let mut b = ChaCha8Rng::from_seed(s2);
        let mut differing_bits = 0u32;
        for _ in 0..16 {
            differing_bits += (a.next_u64() ^ b.next_u64()).count_ones();
        }
        // 1024 output bits; a real cipher flips about half.
        assert!(differing_bits > 384, "weak diffusion: {differing_bits}/1024 bits");
    }

    #[test]
    fn blocks_advance() {
        let mut r = ChaCha8Rng::from_seed([9u8; 32]);
        let first: Vec<u32> = (0..16).map(|_| r.next_u32()).collect();
        let second: Vec<u32> = (0..16).map(|_| r.next_u32()).collect();
        assert_ne!(first, second);
        assert_eq!(r.block_count(), 2);
    }

    #[test]
    fn clone_preserves_position() {
        let mut r = ChaCha8Rng::from_seed([3u8; 32]);
        for _ in 0..5 {
            r.next_u32();
        }
        let mut c = r.clone();
        assert_eq!(r.next_u64(), c.next_u64());
    }

    #[test]
    fn next_u64_is_two_words_at_any_alignment() {
        for skip in 0..16 {
            let mut words = ChaCha8Rng::from_seed([5u8; 32]);
            let mut pairs = words.clone();
            for _ in 0..skip {
                words.next_u32();
                pairs.next_u32();
            }
            for _ in 0..40 {
                let lo = words.next_u32() as u64;
                let hi = words.next_u32() as u64;
                assert_eq!(pairs.next_u64(), hi << 32 | lo, "skip {skip}");
            }
        }
    }

    #[test]
    fn uniformity_smoke_test() {
        let mut r = ChaCha8Rng::from_seed([42u8; 32]);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| r.gen::<f64>()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }
}
