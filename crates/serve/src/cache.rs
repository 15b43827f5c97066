//! Sharded, content-addressed result cache with single-flight
//! deduplication and an LRU byte budget.
//!
//! The experiment engine is deterministic, so a response body is a pure
//! function of its request's canonical fingerprint
//! ([`warped_gates::fingerprint::cell_fingerprint`]). The cache maps
//! `fingerprint → response bytes` and guarantees **single-flight**: when
//! N identical requests arrive concurrently, exactly one computes and
//! the other N−1 block on the in-flight entry and reuse its bytes
//! (counted as hits — they cost no simulation). Failed computations are
//! *not* cached; every waiter sees the error and the next request
//! retries fresh, so a transient fault cannot poison a cache line.
//!
//! Keys shard by their low bits so concurrent requests for different
//! cells rarely contend on a lock, and each shard evicts its
//! least-recently-used *ready* entries once its share of the byte
//! budget is exceeded (in-flight entries are never evicted).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

struct Flight<E> {
    done: Mutex<Option<Result<Arc<Vec<u8>>, E>>>,
    cv: Condvar,
}

enum Entry<E> {
    Ready { bytes: Arc<Vec<u8>>, last_used: u64 },
    InFlight(Arc<Flight<E>>),
}

struct Shard<E> {
    entries: HashMap<u64, Entry<E>>,
    bytes: usize,
}

/// The cache, whose computations fail with `E`. Cheap to share behind
/// an `Arc`.
pub struct ResultCache<E> {
    shards: Vec<Mutex<Shard<E>>>,
    budget_per_shard: usize,
    tick: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl<E> std::fmt::Debug for ResultCache<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResultCache")
            .field("shards", &self.shards.len())
            .field("budget_per_shard", &self.budget_per_shard)
            .field("hits", &self.hits())
            .field("misses", &self.misses())
            .finish_non_exhaustive()
    }
}

impl<E> ResultCache<E> {
    /// A cache of `shards` shards splitting `byte_budget` evenly.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    #[must_use]
    pub fn new(shards: usize, byte_budget: usize) -> Self {
        assert!(shards > 0, "cache needs at least one shard");
        ResultCache {
            shards: (0..shards)
                .map(|_| {
                    Mutex::new(Shard {
                        entries: HashMap::new(),
                        bytes: 0,
                    })
                })
                .collect(),
            budget_per_shard: byte_budget.div_ceil(shards).max(1),
            tick: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    fn shard(&self, key: u64) -> &Mutex<Shard<E>> {
        &self.shards[(key as usize) % self.shards.len()]
    }

    fn lock(&self, key: u64) -> std::sync::MutexGuard<'_, Shard<E>> {
        self.shard(key).lock().expect("cache shard poisoned")
    }

    /// Total hits so far (ready hits plus coalesced waiters).
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Total misses so far (lookups that ran the computation).
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Ready entries evicted under byte pressure so far.
    #[must_use]
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Bytes currently held by ready entries.
    #[must_use]
    pub fn bytes(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache shard poisoned").bytes)
            .sum()
    }

    /// Looks `key` up, computing it with `compute` on a miss.
    ///
    /// `compute` runs *without* the shard lock held, so long
    /// simulations never block unrelated lookups. Concurrent callers
    /// with the same key coalesce onto one computation (a waiter counts
    /// as a hit). Only `compute` knows where fresh bytes came from, so
    /// any side effect of a miss belongs inside it.
    ///
    /// # Errors
    ///
    /// Propagates `compute`'s error to the computing caller and every
    /// coalesced waiter; the error is not cached.
    pub fn get_or_compute(
        &self,
        key: u64,
        compute: impl FnOnce() -> Result<Arc<Vec<u8>>, E>,
    ) -> Result<Arc<Vec<u8>>, E>
    where
        E: Clone,
    {
        let flight = {
            let mut shard = self.lock(key);
            match shard.entries.get_mut(&key) {
                Some(Entry::Ready { bytes, last_used }) => {
                    *last_used = self.tick.fetch_add(1, Ordering::Relaxed);
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    return Ok(Arc::clone(bytes));
                }
                Some(Entry::InFlight(flight)) => Some(Arc::clone(flight)),
                None => {
                    let flight = Arc::new(Flight {
                        done: Mutex::new(None),
                        cv: Condvar::new(),
                    });
                    shard
                        .entries
                        .insert(key, Entry::InFlight(Arc::clone(&flight)));
                    None
                }
            }
        };

        if let Some(flight) = flight {
            // Someone else is computing: wait for their verdict.
            let mut done = flight.done.lock().expect("flight poisoned");
            while done.is_none() {
                done = flight.cv.wait(done).expect("flight poisoned");
            }
            self.hits.fetch_add(1, Ordering::Relaxed);
            return done.clone().expect("checked above");
        }

        // This caller owns the flight.
        self.misses.fetch_add(1, Ordering::Relaxed);
        let result = compute();
        {
            let mut shard = self.lock(key);
            let Some(Entry::InFlight(flight)) = shard.entries.remove(&key) else {
                unreachable!("flight entry vanished while computing");
            };
            if let Ok(bytes) = &result {
                shard.bytes += bytes.len();
                shard.entries.insert(
                    key,
                    Entry::Ready {
                        bytes: Arc::clone(bytes),
                        last_used: self.tick.fetch_add(1, Ordering::Relaxed),
                    },
                );
                self.evict_locked(&mut shard);
            }
            let mut done = flight.done.lock().expect("flight poisoned");
            *done = Some(result.clone());
            flight.cv.notify_all();
        }
        result
    }

    /// Evicts least-recently-used ready entries until the shard fits
    /// its budget (must hold the shard lock).
    fn evict_locked(&self, shard: &mut Shard<E>) {
        while shard.bytes > self.budget_per_shard {
            let victim = shard
                .entries
                .iter()
                .filter_map(|(k, e)| match e {
                    Entry::Ready { last_used, .. } => Some((*last_used, *k)),
                    Entry::InFlight(_) => None,
                })
                .min();
            let Some((_, key)) = victim else {
                break; // only in-flight entries left
            };
            if let Some(Entry::Ready { bytes, .. }) = shard.entries.remove(&key) {
                shard.bytes -= bytes.len();
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Barrier;

    fn bytes(b: &[u8]) -> Result<Arc<Vec<u8>>, String> {
        Ok(Arc::new(b.to_vec()))
    }

    #[test]
    fn hit_after_miss_returns_the_same_bytes() {
        let cache: ResultCache<String> = ResultCache::new(4, 1 << 20);
        let a = cache.get_or_compute(7, || bytes(b"abc"));
        assert_eq!((cache.hits(), cache.misses()), (0, 1));
        let b = cache.get_or_compute(7, || panic!("must not recompute"));
        assert!(Arc::ptr_eq(&a.unwrap(), &b.unwrap()));
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
    }

    #[test]
    fn concurrent_identical_lookups_single_flight() {
        let cache = Arc::new(ResultCache::<String>::new(4, 1 << 20));
        let computed = Arc::new(AtomicUsize::new(0));
        let barrier = Arc::new(Barrier::new(16));
        let handles: Vec<_> = (0..16)
            .map(|_| {
                let (cache, computed, barrier) = (
                    Arc::clone(&cache),
                    Arc::clone(&computed),
                    Arc::clone(&barrier),
                );
                std::thread::spawn(move || {
                    barrier.wait();
                    let result = cache.get_or_compute(42, || {
                        computed.fetch_add(1, Ordering::SeqCst);
                        // Widen the race window so waiters really wait.
                        std::thread::sleep(std::time::Duration::from_millis(30));
                        bytes(b"payload")
                    });
                    result.unwrap()
                })
            })
            .collect();
        let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert_eq!(
            computed.load(Ordering::SeqCst),
            1,
            "exactly one computation"
        );
        assert!(results.iter().all(|r| **r == b"payload".to_vec()));
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.hits(), 15, "waiters count as hits");
    }

    #[test]
    fn errors_are_not_cached_and_propagate_to_waiters() {
        let cache: ResultCache<String> = ResultCache::new(2, 1 << 20);
        let r = cache.get_or_compute(9, || Err("boom".to_owned()));
        assert_eq!(r.unwrap_err(), "boom");
        assert_eq!(cache.misses(), 1);
        // The next lookup recomputes (and can succeed).
        let r2 = cache.get_or_compute(9, || bytes(b"ok"));
        assert_eq!(cache.misses(), 2);
        assert_eq!(*r2.unwrap(), b"ok".to_vec());
    }

    #[test]
    fn lru_eviction_respects_the_byte_budget() {
        let cache: ResultCache<String> = ResultCache::new(1, 100);
        for key in 0..10u64 {
            cache.get_or_compute(key, || bytes(&[0u8; 30])).unwrap();
        }
        assert!(cache.bytes() <= 100, "budget respected: {}", cache.bytes());
        assert!(cache.evictions() >= 6);
        // Recently used keys survive; the oldest were evicted.
        let _ = cache.get_or_compute(9, || bytes(&[1u8; 30]));
        assert_eq!((cache.hits(), cache.misses()), (1, 10));
        let _ = cache.get_or_compute(0, || bytes(&[1u8; 30]));
        assert_eq!(cache.misses(), 11, "oldest entry was evicted");
    }

    #[test]
    fn different_keys_do_not_coalesce() {
        let cache: ResultCache<String> = ResultCache::new(8, 1 << 20);
        let a = cache.get_or_compute(1, || bytes(b"a"));
        let b = cache.get_or_compute(2, || bytes(b"b"));
        assert_ne!(*a.unwrap(), *b.unwrap());
        assert_eq!(cache.misses(), 2);
    }
}
