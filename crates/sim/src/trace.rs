//! Cycle observers: a tap into the simulator's per-cycle state for
//! tracing, waveform rendering, and time-series analysis.
//!
//! The simulator calls the installed [`CycleObserver`] once per cycle
//! with the busy and powered flags of every gating domain plus issue
//! activity. This module defines only the tap itself (the sample types
//! and the trait); ready-made consumers — the ASCII
//! `UtilizationTrace`, Perfetto export, metrics rollups — live in the
//! `warped-telemetry` crate, and the structured event recorder they
//! feed on is [`crate::probe`].

use crate::domain::NUM_DOMAINS;
use crate::gate_iface::GateTransition;

/// One cycle's observable state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CycleSample {
    /// The cycle number.
    pub cycle: u64,
    /// Whether each domain's pipeline held at least one instruction.
    pub busy: [bool; NUM_DOMAINS],
    /// Whether each domain was powered (not gated, not waking).
    pub powered: [bool; NUM_DOMAINS],
    /// Instructions issued this cycle (0..=issue width).
    pub issued: u8,
    /// Warps in the active set this cycle.
    pub active_warps: u32,
}

/// A contiguous run of cycles the simulator fast-forwarded through in
/// one step.
///
/// During the span nothing issues (`issued` is 0 for every covered
/// cycle) and the busy flags and active-warp count are constant; only
/// the powered flags can change, and every such edge is listed in
/// `transitions` with the offset convention of [`GateTransition`]: the
/// sample at span offset `k` (cycle `start_cycle + k`) reflects every
/// transition with `offset <= k`. `powered` is the state the issue
/// stage saw on the span's first cycle (offset 0).
#[derive(Debug, Clone, Copy)]
pub struct SpanSample<'a> {
    /// First cycle covered by the span.
    pub start_cycle: u64,
    /// Number of cycles covered (at least 1).
    pub cycles: u64,
    /// Busy flags, constant across the span.
    pub busy: [bool; NUM_DOMAINS],
    /// Powered flags at span offset 0.
    pub powered: [bool; NUM_DOMAINS],
    /// Power-state edges inside the span, offsets non-decreasing.
    pub transitions: &'a [GateTransition],
    /// Warps in the active set, constant across the span.
    pub active_warps: u32,
}

impl SpanSample<'_> {
    /// Expands the span into the exact per-cycle samples a stepped
    /// simulation would have produced, in cycle order.
    pub fn for_each_cycle(&self, mut f: impl FnMut(&CycleSample)) {
        let mut powered = self.powered;
        let mut next = 0;
        for k in 0..self.cycles {
            while next < self.transitions.len() && self.transitions[next].offset <= k {
                let t = &self.transitions[next];
                powered[t.domain.index()] = t.powered;
                next += 1;
            }
            f(&CycleSample {
                cycle: self.start_cycle + k,
                busy: self.busy,
                powered,
                issued: 0,
                active_warps: self.active_warps,
            });
        }
    }
}

/// A per-cycle tap into the simulation.
///
/// Implementations should be cheap: the hook runs every simulated
/// cycle. The default observer ([`NullObserver`]) compiles to nothing.
pub trait CycleObserver {
    /// Receives one cycle's state.
    fn observe(&mut self, sample: &CycleSample);

    /// Receives a fast-forwarded span of cycles in one call.
    ///
    /// The default implementation expands the span and calls
    /// [`observe`](CycleObserver::observe) once per covered cycle,
    /// which is exact by construction. Observers that can integrate a
    /// constant-state run in closed form (e.g. the sanitizer) override
    /// this; overrides must leave the observer in the same state as the
    /// expanded per-cycle delivery.
    fn observe_span(&mut self, span: &SpanSample<'_>) {
        span.for_each_cycle(|s| self.observe(s));
    }
}

/// The no-op observer (default).
#[derive(Debug, Clone, Copy, Default)]
pub struct NullObserver;

impl CycleObserver for NullObserver {
    fn observe(&mut self, _sample: &CycleSample) {}

    fn observe_span(&mut self, _span: &SpanSample<'_>) {}
}

impl<T: CycleObserver> CycleObserver for std::rc::Rc<std::cell::RefCell<T>> {
    fn observe(&mut self, sample: &CycleSample) {
        self.borrow_mut().observe(sample);
    }

    fn observe_span(&mut self, span: &SpanSample<'_>) {
        self.borrow_mut().observe_span(span);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::DomainId;

    #[test]
    fn span_expansion_applies_transitions_at_their_offset() {
        let mut seen = Vec::new();
        let span = SpanSample {
            start_cycle: 100,
            cycles: 5,
            busy: [false; NUM_DOMAINS],
            powered: [true; NUM_DOMAINS],
            transitions: &[GateTransition {
                offset: 2,
                domain: DomainId::INT0,
                powered: false,
            }],
            active_warps: 3,
        };
        span.for_each_cycle(|s| seen.push(*s));
        assert_eq!(seen.len(), 5);
        assert_eq!(seen[0].cycle, 100);
        assert_eq!(seen[4].cycle, 104);
        let int0: Vec<bool> = seen.iter().map(|s| s.powered[0]).collect();
        assert_eq!(int0, [true, true, false, false, false]);
        assert!(seen.iter().all(|s| s.issued == 0 && s.active_warps == 3));
    }
}
