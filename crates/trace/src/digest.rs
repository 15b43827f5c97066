//! Content digest of raw trace bytes.
//!
//! Downstream cache keys (the serve tier's `cell_fingerprint`) must be
//! a function of the trace's *content*, never its filename: two
//! directories holding the same bytes under different names must share
//! cache lines, and editing one byte of a trace must move every key.
//! This module provides that digest — a [`ConfigHasher`] byte fold
//! under a fixed domain tag, the workspace's one non-cryptographic
//! mixer, so the crate stays dependency-free.

use warped_isa::ConfigHasher;

/// The content digest of a byte string: length first, then the bytes in
/// 8-byte little-endian words (zero-padded tail), folded through the
/// SplitMix64 avalanche under a fixed domain tag
/// ([`ConfigHasher::bytes`]).
///
/// Not cryptographic — collision resistance only needs to beat
/// accidental aliasing between distinct checked-in traces, the same bar
/// the workspace's config fingerprints clear.
///
/// # Examples
///
/// ```
/// use warped_trace::content_digest;
///
/// let a = content_digest(b"WGT1 k\n");
/// assert_eq!(a, content_digest(b"WGT1 k\n"), "pure function");
/// assert_ne!(a, content_digest(b"WGT1 j\n"), "one byte moves the digest");
/// ```
#[must_use]
pub fn content_digest(bytes: &[u8]) -> u64 {
    // Domain tag: b"wgtrace1" as a little-endian word.
    ConfigHasher::new(u64::from_le_bytes(*b"wgtrace1"))
        .bytes(bytes)
        .finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_deterministic() {
        let text = b"WGT1 hotspot\nlaunch warps=1 block=1 stagger=0 waves=1\n";
        assert_eq!(content_digest(text), content_digest(text));
    }

    #[test]
    fn single_byte_edits_move_the_digest() {
        let base = b"i ldg d=120 s=16 lat=1".to_vec();
        let reference = content_digest(&base);
        for i in 0..base.len() {
            let mut edited = base.clone();
            edited[i] ^= 1;
            assert_ne!(
                content_digest(&edited),
                reference,
                "flipping byte {i} must move the digest"
            );
        }
    }

    #[test]
    fn length_extension_does_not_alias() {
        // Zero-padded tails must not collide with explicit zero bytes.
        assert_ne!(content_digest(b"abc"), content_digest(b"abc\0"));
        assert_ne!(content_digest(b""), content_digest(b"\0"));
    }
}
