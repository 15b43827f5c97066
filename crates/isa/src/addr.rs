//! Deterministic per-warp address generators for memory instructions.
//!
//! A memory instruction may carry an [`AddrGen`] descriptor: a small,
//! integer-only program that maps `(warp, dynamic access index)` to a
//! byte address. This makes access locality a *property of the kernel*
//! — strided streams, row-major tiled walks, or seeded indirect
//! gathers — instead of a probability drawn at issue time, which is
//! what a real cache hierarchy needs to produce meaningful hit/miss
//! shapes.
//!
//! Descriptors are pure functions: the same `(warp, index)` always
//! yields the same address, so every clock backend of the simulator
//! observes the same stream.

use std::fmt;

/// Finalizer of SplitMix64 — the same avalanche the rest of the
/// workspace uses for seeded hashing.
#[must_use]
pub fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A deterministic address-stream descriptor attached to a load/store.
///
/// All fields are integers so instructions stay `Copy + Eq + Hash`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AddrGen {
    /// A linear stream: `base + warp * warp_stride + index * stride`.
    ///
    /// `stride` smaller than a cache line gives spatial locality;
    /// `warp_stride == 0` makes every warp share the same line
    /// (maximal miss merging).
    Strided {
        /// Base byte address of the stream.
        base: u64,
        /// Bytes advanced per dynamic access.
        stride: u32,
        /// Byte offset between consecutive warps' streams.
        warp_stride: u32,
    },
    /// A row-major walk of a 2D array in square tiles of `tile × tile`
    /// 4-byte elements, `row_len` elements per row. Consecutive warps
    /// start one tile apart, so neighbouring warps revisit each other's
    /// lines — the classic blocked-GEMM reuse shape.
    Tiled {
        /// Base byte address of the array.
        base: u64,
        /// Elements per row (must be a multiple of `tile`).
        row_len: u32,
        /// Tile edge length in elements (must be >= 1).
        tile: u32,
    },
    /// A seeded indirect gather: each access hashes
    /// `(seed, warp, index)` onto a `footprint`-byte window. Large
    /// footprints defeat the cache; small ones turn into hits.
    IndirectRandom {
        /// Hash seed (decorrelates kernels from each other).
        seed: u64,
        /// Window size in bytes the gather is spread over.
        footprint: u64,
    },
}

impl AddrGen {
    /// The byte address of dynamic access `index` by warp `warp`.
    #[must_use]
    pub fn address(self, warp: u32, index: u64) -> u64 {
        match self {
            AddrGen::Strided {
                base,
                stride,
                warp_stride,
            } => base
                .wrapping_add(u64::from(warp) * u64::from(warp_stride))
                .wrapping_add(index.wrapping_mul(u64::from(stride))),
            AddrGen::Tiled {
                base,
                row_len,
                tile,
            } => {
                let tile = u64::from(tile.max(1));
                let row_len = u64::from(row_len.max(1)).max(tile);
                let per_tile = tile * tile;
                let tiles_per_row = (row_len / tile).max(1);
                // Consecutive warps start one tile later in the walk.
                let e = index + u64::from(warp) * per_tile;
                let tile_idx = e / per_tile;
                let within = e % per_tile;
                let tile_row = tile_idx / tiles_per_row;
                let tile_col = tile_idx % tiles_per_row;
                let row = tile_row * tile + within / tile;
                let col = tile_col * tile + within % tile;
                base + (row * row_len + col) * 4
            }
            AddrGen::IndirectRandom { seed, footprint } => {
                let h = mix64(
                    seed ^ u64::from(warp).wrapping_mul(0x1000_0001)
                        ^ index.wrapping_mul(0x0071_0003),
                );
                (h % footprint.max(1)) & !3
            }
        }
    }
}

impl fmt::Display for AddrGen {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AddrGen::Strided {
                base,
                stride,
                warp_stride,
            } => write!(
                f,
                "strided(base={base:#x}, +{stride}/acc, +{warp_stride}/warp)"
            ),
            AddrGen::Tiled {
                base,
                row_len,
                tile,
            } => write!(f, "tiled(base={base:#x}, row={row_len}, tile={tile})"),
            AddrGen::IndirectRandom { seed, footprint } => {
                write!(f, "random(seed={seed:#x}, footprint={footprint})")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strided_streams_are_linear_and_warp_offset() {
        let g = AddrGen::Strided {
            base: 0x1000,
            stride: 4,
            warp_stride: 256,
        };
        assert_eq!(g.address(0, 0), 0x1000);
        assert_eq!(g.address(0, 10), 0x1000 + 40);
        assert_eq!(g.address(3, 0), 0x1000 + 768);
    }

    #[test]
    fn tiled_walk_stays_inside_a_tile_before_moving_on() {
        let g = AddrGen::Tiled {
            base: 0,
            row_len: 8,
            tile: 2,
        };
        // First tile (rows 0-1, cols 0-1): elements 0,1,8,9 in row-major
        // element coordinates -> byte addresses x4.
        let first_tile: Vec<u64> = (0..4).map(|i| g.address(0, i)).collect();
        assert_eq!(first_tile, vec![0, 4, 32, 36]);
        // Second tile starts at column 2 of row 0.
        assert_eq!(g.address(0, 4), 8);
        // Warp 1 starts exactly one tile later than warp 0.
        assert_eq!(g.address(1, 0), g.address(0, 4));
    }

    #[test]
    fn indirect_random_is_deterministic_and_bounded() {
        let g = AddrGen::IndirectRandom {
            seed: 0x5eed,
            footprint: 4096,
        };
        for w in 0..4 {
            for i in 0..100 {
                let a = g.address(w, i);
                assert_eq!(a, g.address(w, i), "pure function");
                assert!(a < 4096);
                assert_eq!(a % 4, 0, "word aligned");
            }
        }
        // Different warps see different streams.
        assert_ne!(g.address(0, 5), g.address(1, 5));
    }
}
