//! The workspace's one non-cryptographic hash: SplitMix64 (Steele et
//! al., "Fast splittable pseudorandom number generators", OOPSLA 2014).
//!
//! Everything seeded or content-addressed goes through here: address
//! generators and the fallback memory hash ([`mix64`]), the workload
//! generator's PRNG, trace content digests, and the experiment
//! fingerprints that key warped-serve's caches ([`ConfigHasher`]). It
//! lives in the lowest crate so the workspace needs no hashing
//! dependency. Every value is persisted somewhere — a cache key, a
//! disk-cache file name, a generated workload — so the folds below
//! must never change; the repository pins their outputs as literals.

const GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

/// SplitMix64's avalanche finalizer.
fn avalanche(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One SplitMix64 output: the finalizer applied to `z` plus the golden
/// gamma, i.e. the draw a generator in state `z` returns next.
#[inline]
#[must_use]
pub fn mix64(z: u64) -> u64 {
    avalanche(z.wrapping_add(GAMMA))
}

/// A streaming word hasher with SplitMix64's finalizer as its mixing
/// function. Not cryptographic — collision resistance here only needs
/// to beat accidental config aliasing, the same bar the workload
/// generator's PRNG clears.
///
/// # Examples
///
/// ```
/// use warped_isa::ConfigHasher;
///
/// let mut a = ConfigHasher::new(7);
/// a.word(1).word(2);
/// let mut b = ConfigHasher::new(7);
/// b.word(2).word(1);
/// assert_ne!(a.finish(), b.finish(), "word order is significant");
/// ```
#[derive(Debug, Clone)]
pub struct ConfigHasher {
    state: u64,
}

impl ConfigHasher {
    /// Starts a hash stream under a domain tag (distinct tags keep
    /// unrelated hash uses from colliding on equal word streams).
    #[must_use]
    pub fn new(domain_tag: u64) -> Self {
        ConfigHasher {
            state: mix64(domain_tag),
        }
    }

    /// Folds one 64-bit word into the stream.
    #[inline]
    pub fn word(&mut self, w: u64) -> &mut Self {
        self.state = avalanche(self.state.wrapping_add(GAMMA) ^ w);
        self
    }

    /// Folds a float by its exact bit pattern (so `0.1` and the nearest
    /// neighbouring double hash differently, and NaN payloads are
    /// significant rather than collapsed).
    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.word(v.to_bits())
    }

    /// Folds a byte string: length first, then the bytes in 8-byte
    /// little-endian words (zero-padded tail), so `"ab", "c"` and
    /// `"a", "bc"` cannot alias across adjacent fields, nor `"abc"`
    /// with `"abc\0"`.
    pub fn bytes(&mut self, b: &[u8]) -> &mut Self {
        self.word(b.len() as u64);
        for chunk in b.chunks(8) {
            let mut w = [0u8; 8];
            w[..chunk.len()].copy_from_slice(chunk);
            self.word(u64::from_le_bytes(w));
        }
        self
    }

    /// Folds a string's UTF-8 bytes (see [`ConfigHasher::bytes`]).
    pub fn str(&mut self, s: &str) -> &mut Self {
        self.bytes(s.as_bytes())
    }

    /// The digest of everything folded so far.
    #[must_use]
    pub fn finish(&self) -> u64 {
        avalanche(self.state)
    }
}
