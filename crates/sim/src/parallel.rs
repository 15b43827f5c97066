//! A std-only scoped worker pool for embarrassingly parallel job grids.
//!
//! The simulator's experiment surface is dominated by independent runs —
//! benchmark × technique grids, per-SM chip simulations, parameter
//! sweeps. Each job is a pure function of its inputs, so fanning them
//! across cores cannot change any result; only wall-clock time. This
//! module provides the one primitive everything else builds on:
//! [`par_map`], an ordered parallel map over job indices backed by
//! [`std::thread::scope`] and an atomic work-queue cursor (no external
//! dependencies, no unsafe code, no locks on the hot path).
//!
//! Determinism guarantee: `par_map(n, w, f)` returns exactly
//! `(0..n).map(f)` in index order for every worker count `w`, provided
//! `f` itself is deterministic. Workers only race for *which* index they
//! pull next; results are reassembled by index.

use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};

/// The environment variable overriding the default worker count.
pub const JOBS_ENV: &str = "WARPED_JOBS";

/// A job that panicked inside [`try_par_map`].
///
/// Carries the job's grid index and the panic payload rendered as text,
/// so a grid runner can report *which* cell died and *why* without
/// losing the rest of the grid.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobFailure {
    /// The index the failed job was invoked with.
    pub index: usize,
    /// The panic payload, stringified (see [`panic_message`]).
    pub message: String,
}

impl std::fmt::Display for JobFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job {} panicked: {}", self.index, self.message)
    }
}

impl std::error::Error for JobFailure {}

/// Renders a caught panic payload as text.
///
/// `panic!("...")` produces `&'static str` payloads and
/// `panic!("{x}")`-style formatting produces `String`; anything else
/// (a custom `panic_any` value) is reported opaquely rather than lost.
#[must_use]
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// Parses a `WARPED_JOBS` value into a worker count.
///
/// # Errors
///
/// Returns a descriptive message for `0` and for anything that is not
/// an integer — a set-but-invalid override is a configuration mistake,
/// and silently falling back would run the grid at an unintended
/// parallelism.
pub fn parse_jobs(value: &str) -> Result<usize, String> {
    match value.trim().parse::<usize>() {
        Ok(0) => Err(format!(
            "{JOBS_ENV} must be a positive integer, got 0 \
             (unset it to use all cores)"
        )),
        Ok(n) => Ok(n),
        Err(_) => Err(format!(
            "{JOBS_ENV} must be a positive integer, got {value:?}"
        )),
    }
}

/// The worker count used when a caller does not pin one: the value of
/// the `WARPED_JOBS` environment variable if set, otherwise
/// [`std::thread::available_parallelism`] (1 if unknown).
///
/// This is the fallible variant for callers that want to report a bad
/// override themselves (binaries print it with their usage text and
/// exit 2 instead of unwinding with a backtrace).
///
/// # Errors
///
/// Returns the [`parse_jobs`] message if `WARPED_JOBS` is set but is
/// not a positive integer.
pub fn try_worker_count() -> Result<usize, String> {
    match std::env::var(JOBS_ENV) {
        Ok(v) => parse_jobs(&v),
        Err(std::env::VarError::NotPresent) => {
            Ok(std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get))
        }
        Err(std::env::VarError::NotUnicode(_)) => Err(format!(
            "{JOBS_ENV} must be a positive integer, got non-unicode bytes"
        )),
    }
}

/// [`try_worker_count`], panicking on a bad `WARPED_JOBS` override.
///
/// # Panics
///
/// Panics if `WARPED_JOBS` is set but is not a positive integer (see
/// [`parse_jobs`]).
#[must_use]
pub fn worker_count() -> usize {
    match try_worker_count() {
        Ok(n) => n,
        Err(e) => panic!("{e}"),
    }
}

/// Maps `f` over `0..n` with up to `workers` threads, returning results
/// in index order.
///
/// With `workers <= 1` (or `n <= 1`) the map runs inline on the calling
/// thread — the serial reference path the determinism tests compare
/// against. A panic inside any job is propagated to the caller once all
/// workers have drained.
///
/// # Examples
///
/// ```
/// use warped_sim::parallel::par_map;
///
/// let squares = par_map(5, 4, |i| i * i);
/// assert_eq!(squares, vec![0, 1, 4, 9, 16]);
/// ```
pub fn par_map<T, F>(n: usize, workers: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = workers.min(n);
    if workers <= 1 {
        return (0..n).map(f).collect();
    }

    let cursor = AtomicUsize::new(0);
    let (cursor, f) = (&cursor, &f);
    let mut batches: Vec<Vec<(usize, T)>> = Vec::with_capacity(workers);
    let mut panic: Option<Box<dyn std::any::Any + Send>> = None;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(move || {
                    let mut local = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            return local;
                        }
                        local.push((i, f(i)));
                    }
                })
            })
            .collect();
        for h in handles {
            match h.join() {
                Ok(batch) => batches.push(batch),
                Err(e) => panic = Some(e),
            }
        }
    });
    if let Some(e) = panic {
        std::panic::resume_unwind(e);
    }

    let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
    for (i, value) in batches.into_iter().flatten() {
        debug_assert!(slots[i].is_none(), "job {i} ran twice");
        slots[i] = Some(value);
    }
    slots
        .into_iter()
        .enumerate()
        .map(|(i, s)| s.unwrap_or_else(|| panic!("job {i} produced no result")))
        .collect()
}

/// [`par_map`] with per-job panic isolation: a job that panics yields
/// `Err(`[`JobFailure`]`)` in its slot while every other job still runs
/// to completion on the surviving workers.
///
/// Each job runs under [`std::panic::catch_unwind`], so one poisoned
/// grid cell cannot take down the pool — the failure surfaces as data
/// (index + panic message) for the caller to report. The worker that
/// caught the panic keeps pulling jobs from the queue.
///
/// Successful results are bit-identical to what [`par_map`] (and the
/// serial path) would have produced: isolation only changes what
/// happens to *failed* slots.
///
/// # Examples
///
/// ```
/// use warped_sim::parallel::try_par_map;
///
/// let out = try_par_map(4, 2, |i| {
///     assert!(i != 2, "cell {i} is poisoned");
///     i * 10
/// });
/// assert_eq!(out[0], Ok(0));
/// assert_eq!(out[3], Ok(30));
/// let failure = out[2].as_ref().unwrap_err();
/// assert_eq!(failure.index, 2);
/// assert!(failure.message.contains("poisoned"));
/// ```
pub fn try_par_map<T, F>(n: usize, workers: usize, f: F) -> Vec<Result<T, JobFailure>>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    // `AssertUnwindSafe` is sound here: a panicked job's result slot is
    // replaced by the failure record, and `f` is a `Fn` shared by
    // reference, so no caller ever observes state a unwound job left
    // half-mutated through this path.
    let guarded = |i: usize| {
        std::panic::catch_unwind(AssertUnwindSafe(|| f(i))).map_err(|payload| JobFailure {
            index: i,
            message: panic_message(payload.as_ref()),
        })
    };
    par_map(n, workers, guarded)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_index_order() {
        let out = par_map(100, 8, |i| i * 3);
        assert_eq!(out, (0..100).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn serial_and_parallel_agree() {
        let job = |i: usize| {
            // A job with some state-dependent arithmetic, not just `i`.
            let mut acc = i as u64;
            for k in 0..50 {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(k);
            }
            acc
        };
        assert_eq!(par_map(37, 1, job), par_map(37, 6, job));
    }

    #[test]
    fn empty_and_tiny_grids_work() {
        assert_eq!(par_map(0, 4, |i| i), Vec::<usize>::new());
        assert_eq!(par_map(1, 4, |i| i + 7), vec![7]);
    }

    #[test]
    fn more_workers_than_jobs_is_fine() {
        assert_eq!(par_map(3, 64, |i| i), vec![0, 1, 2]);
    }

    #[test]
    fn every_job_runs_exactly_once() {
        use std::sync::atomic::AtomicU32;
        let counts: Vec<AtomicU32> = (0..200).map(|_| AtomicU32::new(0)).collect();
        let counts_ref = &counts;
        par_map(200, 7, |i| {
            counts_ref[i].fetch_add(1, Ordering::Relaxed);
        });
        for (i, c) in counts.iter().enumerate() {
            assert_eq!(c.load(Ordering::Relaxed), 1, "job {i}");
        }
    }

    #[test]
    fn worker_count_is_positive() {
        assert!(worker_count() >= 1);
    }

    #[test]
    fn parse_jobs_accepts_positive_integers() {
        assert_eq!(parse_jobs("1"), Ok(1));
        assert_eq!(parse_jobs("16"), Ok(16));
        assert_eq!(parse_jobs("  8 "), Ok(8), "surrounding whitespace is fine");
    }

    #[test]
    fn parse_jobs_rejects_zero() {
        let err = parse_jobs("0").unwrap_err();
        assert!(err.contains(JOBS_ENV), "error names the variable: {err}");
        assert!(
            err.contains("positive"),
            "error states the constraint: {err}"
        );
    }

    #[test]
    fn parse_jobs_rejects_garbage() {
        for bad in ["", "all", "-3", "4.5", "0x10"] {
            let err = parse_jobs(bad).unwrap_err();
            assert!(err.contains(JOBS_ENV), "{bad:?} error names the variable");
            assert!(
                err.contains(&format!("{bad:?}")),
                "{bad:?} error echoes the offending value: {err}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "boom 13")]
    fn job_panics_propagate() {
        let _ = par_map(32, 4, |i| {
            assert!(i != 13, "boom {i}");
            i
        });
    }

    #[test]
    fn try_par_map_isolates_failures_and_keeps_the_rest() {
        let out = try_par_map(64, 4, |i| {
            assert!(i % 17 != 5, "poisoned cell {i}");
            i * 2
        });
        assert_eq!(out.len(), 64);
        for (i, r) in out.iter().enumerate() {
            if i % 17 == 5 {
                let e = r.as_ref().unwrap_err();
                assert_eq!(e.index, i);
                assert!(e.message.contains(&format!("poisoned cell {i}")), "{e}");
            } else {
                assert_eq!(*r, Ok(i * 2), "surviving job {i} unchanged");
            }
        }
    }

    #[test]
    fn try_par_map_serial_and_parallel_agree() {
        let job = |i: usize| {
            assert!(i != 7 && i != 20, "dead {i}");
            i * i
        };
        let serial = try_par_map(30, 1, job);
        let parallel = try_par_map(30, 6, job);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn try_par_map_all_failures_is_not_fatal() {
        let out = try_par_map(8, 3, |i| -> usize { panic!("all dead {i}") });
        assert!(out.iter().all(Result::is_err));
    }

    #[test]
    fn job_failure_display_names_index_and_message() {
        let f = JobFailure {
            index: 42,
            message: "kaput".to_owned(),
        };
        assert_eq!(f.to_string(), "job 42 panicked: kaput");
    }

    #[test]
    fn panic_message_handles_both_string_payloads() {
        let static_p = std::panic::catch_unwind(|| panic!("static payload")).unwrap_err();
        assert_eq!(panic_message(static_p.as_ref()), "static payload");
        let n = 3;
        let formatted = std::panic::catch_unwind(|| panic!("formatted {n}")).unwrap_err();
        assert_eq!(panic_message(formatted.as_ref()), "formatted 3");
        let opaque = std::panic::catch_unwind(|| std::panic::panic_any(17u32)).unwrap_err();
        assert_eq!(panic_message(opaque.as_ref()), "non-string panic payload");
    }

    #[test]
    fn try_worker_count_matches_worker_count_when_env_is_sane() {
        // The test runner does not set WARPED_JOBS to garbage, so the
        // fallible and panicking variants must agree.
        assert_eq!(try_worker_count().unwrap(), worker_count());
    }
}
