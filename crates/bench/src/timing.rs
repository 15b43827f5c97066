//! A minimal wall-clock benchmark harness for the `benches/` targets.
//!
//! The original Criterion harness needs a registry download, which is
//! unavailable offline; these benches only need "did this hot path get
//! slower", so a warmup + median-of-samples loop over
//! [`std::time::Instant`] is enough and keeps the workspace
//! dependency-free. Each `[[bench]]` target is a plain `fn main()` that
//! calls [`bench()`] per case (run them with `cargo bench`).

use std::cmp::Ordering;
use std::fmt;
use std::time::{Duration, Instant};

/// Number of timed samples per case.
const SAMPLES: usize = 15;

/// Minimum wall-clock per sample; iterations scale until a sample takes
/// at least this long, so per-iteration noise stays bounded.
const MIN_SAMPLE: Duration = Duration::from_millis(20);

/// A per-iteration time in fractional nanoseconds.
///
/// A [`Duration`] holds whole nanoseconds, so dividing a sample by its
/// iteration count truncates any sub-nanosecond routine to zero. This
/// keeps the fraction, compares against `Duration`s and prints with a
/// unit that fits its size.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct PerIter {
    ns: f64,
}

impl PerIter {
    /// `total` spread over `iters` iterations (the full `u64` count).
    fn of(total: Duration, iters: u64) -> Self {
        PerIter {
            ns: total.as_nanos() as f64 / iters as f64,
        }
    }

    /// Nanoseconds per iteration.
    #[must_use]
    pub fn as_nanos_f64(self) -> f64 {
        self.ns
    }

    /// Seconds per iteration.
    #[must_use]
    pub fn as_secs_f64(self) -> f64 {
        self.ns / 1e9
    }
}

impl PartialEq<Duration> for PerIter {
    fn eq(&self, other: &Duration) -> bool {
        self.ns == other.as_nanos() as f64
    }
}

impl PartialOrd<Duration> for PerIter {
    fn partial_cmp(&self, other: &Duration) -> Option<Ordering> {
        self.ns.partial_cmp(&(other.as_nanos() as f64))
    }
}

impl fmt::Display for PerIter {
    /// Two decimals in the largest unit that keeps the value at least
    /// 1 (nanoseconds below that), like `Duration`'s `Debug`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (value, unit) = match self.ns {
            ns if ns >= 1e9 => (ns / 1e9, "s"),
            ns if ns >= 1e6 => (ns / 1e6, "ms"),
            ns if ns >= 1e3 => (ns / 1e3, "µs"),
            ns => (ns, "ns"),
        };
        f.pad(&format!("{value:.2}{unit}"))
    }
}

/// Sorts `samples` and returns the median.
fn median(mut samples: Vec<PerIter>) -> PerIter {
    samples.sort_by(|a, b| a.ns.total_cmp(&b.ns));
    samples[samples.len() / 2]
}

/// Times `f`, printing `label: <median> per iter (<iters> iters x <samples> samples)`.
///
/// Returns the median per-iteration time so callers can derive
/// throughput numbers. The result of `f` is consumed with
/// [`std::hint::black_box`] so the optimizer cannot delete the work.
pub fn bench<T>(label: &str, mut f: impl FnMut() -> T) -> PerIter {
    // Warm up and calibrate the per-sample iteration count.
    let mut iters = 1u64;
    loop {
        let start = Instant::now();
        for _ in 0..iters {
            std::hint::black_box(f());
        }
        if start.elapsed() >= MIN_SAMPLE {
            break;
        }
        iters = iters.saturating_mul(2);
    }

    let median = median(
        (0..SAMPLES)
            .map(|_| {
                let start = Instant::now();
                for _ in 0..iters {
                    std::hint::black_box(f());
                }
                PerIter::of(start.elapsed(), iters)
            })
            .collect(),
    );
    println!("{label:<42} {median:>12} per iter ({iters} iters x {SAMPLES} samples)");
    median
}

/// Inputs built per timed batch by [`bench_batched`].
const BATCH: usize = 64;

/// Like [`bench()`], but times only `routine`: each input comes from
/// `setup`, built in batches of `BATCH` (64) outside the timed region, and
/// `routine` runs once per input. Use it when building the input costs
/// as much as the work being measured.
pub fn bench_batched<S, T>(
    label: &str,
    mut setup: impl FnMut() -> S,
    mut routine: impl FnMut(&mut S) -> T,
) -> PerIter {
    let mut run = |batches: u64| {
        let mut timed = Duration::ZERO;
        for _ in 0..batches {
            let mut inputs: Vec<S> = (0..BATCH).map(|_| setup()).collect();
            let start = Instant::now();
            for input in &mut inputs {
                std::hint::black_box(routine(input));
            }
            timed += start.elapsed();
        }
        timed
    };
    let mut batches = 1u64;
    while run(batches) < MIN_SAMPLE {
        batches = batches.saturating_mul(2);
    }
    let iters = batches * BATCH as u64;
    let median = median(
        (0..SAMPLES)
            .map(|_| PerIter::of(run(batches), iters))
            .collect(),
    );
    println!("{label:<42} {median:>12} per iter ({iters} iters x {SAMPLES} samples)");
    median
}

/// Prints a bench-group heading.
pub fn group(title: &str) {
    println!("\n-- {title} --");
}

/// The `q`-quantile (0.0 ≤ q ≤ 1.0) of a set of latency samples by the
/// nearest-rank method, so p99 of 100 samples is the 99th-smallest
/// sample, not an interpolated value that nobody measured. Returns
/// [`Duration::ZERO`] on an empty set.
#[must_use]
pub fn percentile(samples: &mut [Duration], q: f64) -> Duration {
    if samples.is_empty() {
        return Duration::ZERO;
    }
    samples.sort_unstable();
    let rank = (q.clamp(0.0, 1.0) * samples.len() as f64).ceil() as usize;
    samples[rank.saturating_sub(1).min(samples.len() - 1)]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_uses_nearest_rank() {
        let mut samples: Vec<Duration> = (1..=100).map(Duration::from_millis).collect();
        assert_eq!(percentile(&mut samples, 0.50), Duration::from_millis(50));
        assert_eq!(percentile(&mut samples, 0.99), Duration::from_millis(99));
        assert_eq!(percentile(&mut samples, 1.0), Duration::from_millis(100));
        assert_eq!(percentile(&mut samples, 0.0), Duration::from_millis(1));
        assert_eq!(percentile(&mut [], 0.5), Duration::ZERO);
        let mut one = [Duration::from_millis(7)];
        assert_eq!(percentile(&mut one, 0.99), Duration::from_millis(7));
    }

    #[test]
    fn per_iteration_times_keep_sub_nanosecond_fractions() {
        let t = PerIter::of(Duration::from_nanos(3), 10);
        assert!((t.as_nanos_f64() - 0.3).abs() < 1e-12);
        assert!(t > Duration::ZERO && t < Duration::from_nanos(1));
        assert_eq!(t.to_string(), "0.30ns");
        // The divisor is the full u64 count, not clamped at u32::MAX.
        let many = PerIter::of(Duration::from_secs(16), 1 << 33);
        assert!((many.as_nanos_f64() - 16e9 / 8_589_934_592.0).abs() < 1e-9);
        assert_eq!(
            PerIter::of(Duration::from_micros(1500), 1).to_string(),
            "1.50ms"
        );
        assert_eq!(
            format!("{:>8}", PerIter::of(Duration::from_nanos(2), 1)),
            "  2.00ns"
        );
    }

    #[test]
    fn bench_returns_a_positive_median() {
        let d = bench("spin", || {
            let mut acc = 0u64;
            for i in 0..10_000u64 {
                acc = acc.wrapping_add(i * i);
            }
            acc
        });
        assert!(d > Duration::ZERO);
    }

    #[test]
    fn bench_batched_runs_the_routine_on_fresh_inputs() {
        let d = bench_batched(
            "sum",
            || vec![3u64; 1000],
            |v| {
                let s: u64 = v.iter().sum();
                v.clear();
                s
            },
        );
        assert!(d > Duration::ZERO);
    }
}
