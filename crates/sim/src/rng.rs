//! Reproducible, named random-number streams.
//!
//! Every stochastic component in the testbed (per-VM I/O jitter, workload
//! mixes, antagonist placement, …) draws from its own independently seeded
//! ChaCha8 stream derived from a master seed and a component label. This has
//! two properties the experiments rely on:
//!
//! * **Reproducibility** — the same master seed always yields the same run,
//!   on any platform.
//! * **Insulation** — adding a new component (a new label) never changes the
//!   values drawn by existing components, so ablations are comparable.

use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Factory for deterministic named RNG streams.
///
/// ```
/// use perfcloud_sim::RngFactory;
/// use rand::Rng;
///
/// let f = RngFactory::new(42);
/// let mut a = f.stream("disk-jitter");
/// let mut b = f.stream("disk-jitter");
/// assert_eq!(a.gen::<u64>(), b.gen::<u64>()); // same label => same stream
///
/// let mut c = f.stream("cpi-jitter");
/// assert_ne!(f.stream("disk-jitter").gen::<u64>(), c.gen::<u64>());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RngFactory {
    master_seed: u64,
}

impl RngFactory {
    /// Creates a factory from a master seed.
    pub const fn new(master_seed: u64) -> Self {
        RngFactory { master_seed }
    }

    /// The master seed this factory was built from.
    pub const fn master_seed(&self) -> u64 {
        self.master_seed
    }

    /// Returns the RNG stream for `label`. The same `(seed, label)` pair
    /// always produces an identical stream.
    pub fn stream(&self, label: &str) -> ChaCha8Rng {
        let mut seed = [0u8; 32];
        seed[..8].copy_from_slice(&self.master_seed.to_le_bytes());
        let h = fnv1a64(label.as_bytes());
        seed[8..16].copy_from_slice(&h.to_le_bytes());
        // Mix a second pass so that labels differing only in a suffix still
        // diverge in the high seed words.
        let h2 = fnv1a64(&h.to_le_bytes()).wrapping_add(self.master_seed.rotate_left(17));
        seed[16..24].copy_from_slice(&h2.to_le_bytes());
        ChaCha8Rng::from_seed(seed)
    }

    /// Returns the stream for a label with a numeric suffix, e.g. per-VM
    /// streams `"io-jitter/vm7"`.
    pub fn stream_indexed(&self, label: &str, index: u64) -> ChaCha8Rng {
        self.stream(&format!("{label}/{index}"))
    }

    /// Derives a child factory (e.g. one per experiment repetition) whose
    /// streams are unrelated to the parent's.
    pub fn child(&self, label: &str) -> RngFactory {
        let h = fnv1a64(label.as_bytes());
        RngFactory::new(self.master_seed.rotate_left(29) ^ h.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// Derives a child factory with a numeric suffix.
    pub fn child_indexed(&self, label: &str, index: u64) -> RngFactory {
        self.child(&format!("{label}/{index}"))
    }
}

/// FNV-1a 64-bit hash; tiny, stable across platforms and Rust versions
/// (unlike `DefaultHasher`, whose output may change between releases). Also
/// the basis for the fault injector's stateless Bernoulli decisions and the
/// golden-trace digests, which need the same stability guarantee.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_extend(FNV1A64_OFFSET, bytes)
}

/// The FNV-1a 64-bit offset basis: the hash of the empty input.
pub const FNV1A64_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Continues an FNV-1a 64-bit hash `h` over `bytes`, so hashing a byte
/// stream chunk by chunk from [`FNV1A64_OFFSET`] equals [`fnv1a64`] of the
/// concatenation.
pub fn fnv1a64_extend(mut h: u64, bytes: &[u8]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(PRIME);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn same_label_same_stream() {
        let f = RngFactory::new(7);
        let xs: Vec<u64> =
            (0..16).map(|_| 0u64).scan(f.stream("a"), |r, _| Some(r.gen())).collect();
        let ys: Vec<u64> =
            (0..16).map(|_| 0u64).scan(f.stream("a"), |r, _| Some(r.gen())).collect();
        assert_eq!(xs, ys);
    }

    #[test]
    fn different_labels_diverge() {
        let f = RngFactory::new(7);
        let mut a = f.stream("alpha");
        let mut b = f.stream("beta");
        let va: Vec<u64> = (0..4).map(|_| a.gen()).collect();
        let vb: Vec<u64> = (0..4).map(|_| b.gen()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = RngFactory::new(1).stream("x");
        let mut b = RngFactory::new(2).stream("x");
        assert_ne!(a.gen::<u64>(), b.gen::<u64>());
    }

    #[test]
    fn indexed_streams_are_distinct() {
        let f = RngFactory::new(3);
        let mut s0 = f.stream_indexed("vm", 0);
        let mut s1 = f.stream_indexed("vm", 1);
        assert_ne!(s0.gen::<u64>(), s1.gen::<u64>());
    }

    #[test]
    fn suffix_only_labels_diverge() {
        let f = RngFactory::new(3);
        let mut a = f.stream("vm/1");
        let mut b = f.stream("vm/11");
        assert_ne!(a.gen::<u64>(), b.gen::<u64>());
    }

    #[test]
    fn child_factories_are_insulated() {
        let f = RngFactory::new(9);
        let c1 = f.child_indexed("rep", 1);
        let c2 = f.child_indexed("rep", 2);
        assert_ne!(c1.stream("x").gen::<u64>(), c2.stream("x").gen::<u64>());
        // Parent streams unaffected by deriving children.
        let before: u64 = f.stream("x").gen();
        let _ = f.child("whatever");
        assert_eq!(f.stream("x").gen::<u64>(), before);
    }

    #[test]
    fn fnv_matches_known_vectors() {
        // Known FNV-1a test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
