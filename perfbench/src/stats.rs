//! Small numeric and host helpers: medians, nearest-rank percentiles,
//! the seeded order permutation, and process memory.

/// Median of `values` (mean of the middle pair for even lengths).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile (`q` in `(0, 1]`) of `values`, sorting in
/// place.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile<T: Copy + Ord>(values: &mut [T], q: f64) -> T {
    assert!(!values.is_empty(), "percentile of nothing");
    values.sort_unstable();
    let rank = (q * values.len() as f64).ceil() as usize;
    values[rank.clamp(1, values.len()) - 1]
}

/// Sub-bucket bits of [`Histogram`]: buckets are 2^-7 (0.8%) wide.
const SUB: u32 = 7;

/// A log-linear histogram of nanosecond latencies: constant memory
/// however many requests are recorded, exact below 128 ns and within
/// 0.8% above. Quantiles interpolate inside their bucket.
#[derive(Debug, Clone)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: vec![0; 64 << SUB],
            total: 0,
        }
    }
}

impl Histogram {
    fn index(v: u64) -> usize {
        if v < 1 << SUB {
            return v as usize;
        }
        let e = 63 - v.leading_zeros();
        let mantissa = (v >> (e - SUB)) & ((1 << SUB) - 1);
        (((e - SUB + 1) << SUB) as u64 | mantissa) as usize
    }

    /// Lower bound and width of bucket `i`.
    fn bucket(i: usize) -> (f64, f64) {
        if i < 1 << SUB {
            return (i as f64, 1.0);
        }
        let e = (i >> SUB) as u32 + SUB - 1;
        let mantissa = (i & ((1 << SUB) - 1)) as u64;
        let lower = (1u64 << e) | (mantissa << (e - SUB));
        (lower as f64, (1u64 << (e - SUB)) as f64)
    }

    /// Records one value.
    pub fn record(&mut self, v: u64) {
        self.counts[Self::index(v)] += 1;
        self.total += 1;
    }

    /// Adds every value recorded in `other`.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
    }

    /// Values recorded.
    pub fn len(&self) -> u64 {
        self.total
    }

    /// The nearest-rank quantile `q`, interpolated within its bucket;
    /// 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total.max(1));
        let mut below = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            if c > 0 && below + c >= rank {
                let (lower, width) = Self::bucket(i);
                return lower + width * ((rank - below) as f64 - 0.5) / c as f64;
            }
            below += c;
        }
        0.0
    }

    /// Share of recorded values at or above `v`'s bucket.
    pub fn share_from(&self, v: u64) -> f64 {
        let above: u64 = self.counts[Self::index(v)..].iter().sum();
        above as f64 / self.total.max(1) as f64
    }
}

/// SplitMix64: the seeded stream behind [`permutation`].
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// A seeded Fisher-Yates permutation of `0..n` for pass `pass` of a
/// run: every pass gets its own order, so a run's median pass averages
/// over several load-balance outcomes. The seed only ever reorders
/// work; it never reaches a simulated input.
pub fn permutation(n: usize, seed: u64, pass: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    let mut rng = SplitMix(seed ^ (pass as u64).wrapping_mul(0xd134_2543_de82_ef95));
    for i in (1..n).rev() {
        let j = (rng.next() % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

/// The process's peak resident set (`VmHWM`) in MiB, or 0 when
/// `/proc/self/status` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let mut v: Vec<u32> = (1..=100).collect();
        assert_eq!(percentile(&mut v, 0.5), 50);
        assert_eq!(percentile(&mut v, 0.99), 99);
        assert_eq!(percentile(&mut v, 1.0), 100);
    }

    #[test]
    fn histogram_buckets_round_trip_and_quantiles_track_exact_ones() {
        for v in [
            0u64,
            1,
            127,
            128,
            129,
            255,
            256,
            1000,
            123_456,
            u64::from(u32::MAX),
        ] {
            let (lower, width) = Histogram::bucket(Histogram::index(v));
            assert!(lower <= v as f64 && (v as f64) < lower + width, "{v}");
        }
        let mut h = Histogram::default();
        let mut exact: Vec<u64> = (1..=10_000).map(|i| i * 37 % 20_011 + 500).collect();
        for &v in &exact {
            h.record(v);
        }
        for q in [0.5, 0.99, 0.999] {
            let want = percentile(&mut exact, q) as f64;
            assert!((h.quantile(q) - want).abs() <= want / 64.0, "q={q}");
        }
        let above = exact.iter().filter(|&&v| v >= 10_496).count() as f64 / exact.len() as f64;
        assert!(
            (h.share_from(10_500) - above).abs() < 1e-9,
            "10_496 starts 10_500's bucket"
        );
    }

    #[test]
    fn permutation_is_a_seeded_bijection() {
        let p = permutation(108, 7, 0);
        let mut sorted = p.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..108).collect::<Vec<_>>());
        assert_eq!(p, permutation(108, 7, 0));
        assert_ne!(p, permutation(108, 8, 0));
        assert_ne!(p, permutation(108, 7, 1));
    }
}
