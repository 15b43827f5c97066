//! The SM's future-event schedule: a bounded time wheel.
//!
//! [`TimeQ`] is a ring of power-of-two slots covering the `horizon`
//! cycles from the clock's current cycle on; a slot is the FIFO of
//! that cycle's events. Push and drain are O(1). An occupancy bitmap
//! over the slots answers "is anything due *now*?" with a single bit
//! test and "when is the next event?" with a handful of word scans,
//! independent of how far away that event is — which is what turns
//! `try_fast_forward` into "find the next event, jump there".
//!
//! The wheel has a fixed capacity: in-flight latencies are bounded, so
//! the caller sizes the horizon past the longest delay it can schedule
//! and [`TimeQ::push`] asserts every delay fits. Events scheduled for
//! the same cycle drain in exactly the order they were pushed (see
//! `DESIGN.md` §14).

/// A stable time-ordered event queue with a fixed horizon.
///
/// # Examples
///
/// ```
/// use warped_sim::timeq::TimeQ;
///
/// let mut q = TimeQ::with_horizon(64);
/// q.push(0, 10, "writeback");
/// q.push(0, 4, "retire");
/// q.push(0, 10, "wakeup");
/// assert_eq!(q.next_cycle(), Some(4));
/// assert_eq!(q.take_due(4), vec!["retire"]);
/// assert!(!q.has_due(5), "nothing due at cycle 5");
/// // Same-cycle events drain in push order (stable FIFO).
/// assert_eq!(q.next_cycle(), Some(10));
/// assert_eq!(q.take_due(10), vec!["writeback", "wakeup"]);
/// assert!(q.is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct TimeQ<T> {
    /// Slot `cycle & (wheel.len() - 1)` holds the FIFO of events due at
    /// `cycle`, for every pending `cycle` in `[base, base + wheel.len())`.
    wheel: Vec<Vec<T>>,
    /// One bit per wheel slot: set iff the slot is non-empty.
    occ: Vec<u64>,
    /// The latest clock cycle seen by a push or a drain; no pending
    /// event lies before it.
    base: u64,
    len: usize,
    peak: usize,
}

impl<T> TimeQ<T> {
    /// Creates an empty queue whose wheel covers at least
    /// `min_horizon` cycles (rounded up to a power of two, minimum 64).
    /// Every delay later passed to [`TimeQ::push`] must be shorter than
    /// that capacity.
    #[must_use]
    pub fn with_horizon(min_horizon: usize) -> Self {
        let n = min_horizon.next_power_of_two().max(64);
        TimeQ {
            wheel: (0..n).map(|_| Vec::new()).collect(),
            occ: vec![0u64; n / 64],
            base: 0,
            len: 0,
            peak: 0,
        }
    }

    /// Schedules `item` for `delta` cycles after `now`, the clock's
    /// current cycle. Events due at `now` itself must already have been
    /// drained: the clock dispatches every event at its due cycle.
    ///
    /// # Panics
    ///
    /// Panics if `now` lies before a cycle the clock has already
    /// reached, or if `delta` does not fit inside the wheel.
    pub fn push(&mut self, now: u64, delta: u64, item: T) {
        assert!(
            now >= self.base,
            "event scheduled at cycle {now}, before the clock's cycle {}",
            self.base
        );
        let n = self.wheel.len() as u64;
        assert!(
            delta < n,
            "event latency {delta} exceeds the event wheel's capacity {n}"
        );
        debug_assert!(
            self.next_cycle().is_none_or(|c| c >= now),
            "an event due before cycle {now} was never drained"
        );
        self.base = now;
        let s = ((now + delta) & (n - 1)) as usize;
        self.wheel[s].push(item);
        self.occ[s >> 6] |= 1u64 << (s & 63);
        self.len += 1;
        if self.len > self.peak {
            self.peak = self.len;
        }
    }

    /// The cycle of the earliest pending event, if any: an occupancy-
    /// bitmap word scan that wraps exactly one lap — a handful of word
    /// reads, independent of how many events are pending or how far
    /// away they are.
    #[must_use]
    pub fn next_cycle(&self) -> Option<u64> {
        let words = self.occ.len();
        let mask = self.wheel.len() - 1;
        let s0 = (self.base as usize) & mask;
        let (w0, b0) = (s0 >> 6, s0 & 63);
        let slot = 'found: {
            let hi = self.occ[w0] & (!0u64 << b0);
            if hi != 0 {
                break 'found (w0 << 6) | hi.trailing_zeros() as usize;
            }
            for k in 1..words {
                let w = (w0 + k) & (words - 1);
                if self.occ[w] != 0 {
                    break 'found (w << 6) | self.occ[w].trailing_zeros() as usize;
                }
            }
            let lo = self.occ[w0] & !(!0u64 << b0);
            if lo != 0 {
                break 'found (w0 << 6) | lo.trailing_zeros() as usize;
            }
            return None;
        };
        Some(self.base + (slot.wrapping_sub(s0) & mask) as u64)
    }

    /// Whether any event is due at exactly `cycle`: a single occupancy
    /// bit test. Exact whenever `cycle` has not run ahead of a pending
    /// event (the simulator's clock never does — it dispatches every
    /// event at its due cycle).
    #[must_use]
    pub fn has_due(&self, cycle: u64) -> bool {
        let n = self.wheel.len() as u64;
        if cycle < self.base || cycle >= self.base + n {
            return false;
        }
        let s = (cycle & (n - 1)) as usize;
        self.occ[s >> 6] & (1u64 << (s & 63)) != 0
    }

    /// Removes and returns *all* events due at `cycle` as one buffer,
    /// in push order — `Vec::new()` (no allocation) when none are due.
    /// O(1): the slot's backing storage is moved out wholesale. Hand
    /// the drained buffer back through [`TimeQ::restore`] so its
    /// capacity parks in the slot and is reused one lap later.
    pub fn take_due(&mut self, cycle: u64) -> Vec<T> {
        if !self.has_due(cycle) {
            return Vec::new();
        }
        debug_assert_eq!(
            self.next_cycle(),
            Some(cycle),
            "drained past a pending event"
        );
        self.base = cycle;
        let s = (cycle as usize) & (self.wheel.len() - 1);
        let buf = std::mem::take(&mut self.wheel[s]);
        self.occ[s >> 6] &= !(1u64 << (s & 63));
        self.len -= buf.len();
        buf
    }

    /// Returns a buffer drained by [`TimeQ::take_due`] to the slot it
    /// came from. The buffer must be empty; if the slot has since
    /// received new events the buffer is simply dropped.
    pub fn restore(&mut self, cycle: u64, buf: Vec<T>) {
        debug_assert!(buf.is_empty(), "restore expects a drained buffer");
        let s = (cycle as usize) & (self.wheel.len() - 1);
        if self.wheel[s].is_empty() {
            self.wheel[s] = buf;
        }
    }

    /// Number of pending events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// High-water mark of [`TimeQ::len`] over the queue's lifetime.
    #[must_use]
    pub fn peak(&self) -> usize {
        self.peak
    }

    /// Earliest pending cycle found by a *linear scan* over the wheel
    /// slots themselves, not through the occupancy bitmap. The
    /// simulator's sanitizer uses this as an independent re-derivation
    /// of [`TimeQ::next_cycle`]: if the bitmap were ever corrupted, peek
    /// and scan would disagree.
    #[must_use]
    pub fn min_cycle_by_scan(&self) -> Option<u64> {
        let n = self.wheel.len();
        let mask = n - 1;
        let s0 = (self.base as usize) & mask;
        (0..n)
            .find(|d| !self.wheel[(s0 + d) & mask].is_empty())
            .map(|d| self.base + d as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drains the next pending cycle, returning it with its events.
    fn pop_next<T>(q: &mut TimeQ<T>) -> Option<(u64, Vec<T>)> {
        let c = q.next_cycle()?;
        Some((c, q.take_due(c)))
    }

    #[test]
    fn pops_in_cycle_order() {
        let mut q = TimeQ::with_horizon(64);
        q.push(0, 30, 'c');
        q.push(0, 10, 'a');
        q.push(0, 20, 'b');
        assert_eq!(pop_next(&mut q), Some((10, vec!['a'])));
        assert_eq!(pop_next(&mut q), Some((20, vec!['b'])));
        assert_eq!(pop_next(&mut q), Some((30, vec!['c'])));
        assert_eq!(q.next_cycle(), None);
    }

    #[test]
    fn same_cycle_events_are_fifo() {
        let mut q = TimeQ::with_horizon(64);
        for i in 0..100 {
            q.push(0, 7, i);
        }
        assert_eq!(q.take_due(7), (0..100).collect::<Vec<_>>());
        assert!(q.is_empty());
    }

    #[test]
    fn interleaved_cycles_stay_fifo_within_each_cycle() {
        let mut q = TimeQ::with_horizon(64);
        q.push(0, 7, "a7");
        q.push(0, 3, "a3");
        q.push(0, 7, "b7");
        q.push(0, 3, "b3");
        assert_eq!(q.take_due(3), vec!["a3", "b3"]);
        // A push made later in time, landing on the same cycle, drains
        // after the earlier ones.
        q.push(3, 4, "c7");
        assert_eq!(q.take_due(7), vec!["a7", "b7", "c7"]);
        assert!(q.is_empty());
    }

    #[test]
    fn take_due_ignores_future_events() {
        let mut q = TimeQ::with_horizon(64);
        q.push(0, 9, ());
        assert!(!q.has_due(8));
        assert_eq!(q.take_due(8), Vec::<()>::new());
        assert_eq!(q.len(), 1);
        assert_eq!(q.take_due(9), vec![()]);
    }

    #[test]
    fn peak_tracks_high_water_mark() {
        let mut q = TimeQ::with_horizon(64);
        q.push(0, 1, ());
        q.push(0, 2, ());
        q.push(0, 3, ());
        let _ = q.take_due(1);
        q.push(1, 3, ());
        assert_eq!(q.peak(), 3);
        assert_eq!(q.len(), 3);
    }

    #[test]
    fn scan_agrees_with_peek() {
        let mut q = TimeQ::with_horizon(64);
        assert_eq!(q.min_cycle_by_scan(), None);
        for c in [44u64, 12, 60, 12, 59] {
            q.push(0, c, c);
        }
        while let Some(min) = q.next_cycle() {
            assert_eq!(q.min_cycle_by_scan(), Some(min));
            let _ = q.take_due(min);
        }
    }

    #[test]
    fn wheel_wraps_across_many_laps() {
        let mut q = TimeQ::with_horizon(64);
        let mut now = 0u64;
        for lap in 0u64..10 {
            let delta = 40 + lap; // co-prime-ish stride across wrap points
            q.push(now, delta, now + delta);
            now += delta;
            assert_eq!(q.next_cycle(), Some(now));
            assert_eq!(q.min_cycle_by_scan(), Some(now));
            assert_eq!(q.take_due(now), vec![now]);
        }
        assert!(q.is_empty());
    }

    #[test]
    fn a_push_after_a_long_quiet_gap_lands_relative_to_now() {
        // Nothing drains between cycle 5 and cycle 1000, so only the
        // push itself can move the wheel's window forward.
        let mut q = TimeQ::with_horizon(64);
        q.push(0, 5, 'a');
        assert_eq!(q.take_due(5), vec!['a']);
        q.push(1000, 50, 'b');
        q.push(1000, 2, 'c');
        assert_eq!(q.next_cycle(), Some(1002));
        assert_eq!(q.min_cycle_by_scan(), Some(1002));
        assert!(!q.has_due(1050 - 64));
        assert_eq!(q.take_due(1002), vec!['c']);
        assert_eq!(q.take_due(1050), vec!['b']);
    }

    #[test]
    fn take_due_drains_a_whole_cycle_in_push_order() {
        let mut q = TimeQ::with_horizon(64);
        q.push(0, 5, 'a');
        q.push(0, 9, 'x');
        q.push(0, 5, 'b');
        assert_eq!(q.take_due(4), Vec::<char>::new(), "nothing due early");
        let mut buf = q.take_due(5);
        assert_eq!(buf, vec!['a', 'b']);
        assert_eq!(q.len(), 1);
        assert_eq!(q.next_cycle(), Some(9));
        buf.clear();
        q.restore(5, buf);
        // One lap later the same slot's capacity is reused.
        q.push(5, 64 - 1, 'c');
        assert_eq!(q.take_due(9), vec!['x']);
        assert_eq!(q.take_due(5 + 63), vec!['c']);
        assert!(q.is_empty());
    }

    #[test]
    #[should_panic(expected = "exceeds the event wheel's capacity 64")]
    fn a_delay_past_the_horizon_panics() {
        let mut q = TimeQ::with_horizon(1);
        q.push(0, 64, ());
    }

    #[test]
    #[should_panic(expected = "before the clock")]
    fn scheduling_into_the_past_panics() {
        let mut q = TimeQ::with_horizon(64);
        q.push(0, 10, ());
        assert_eq!(q.take_due(10), vec![()]);
        q.push(9, 1, ());
    }
}
