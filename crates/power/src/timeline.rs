//! Epoch-resolved energy accounting: a [`CycleObserver`] that integrates
//! leakage and gating-overhead energy over fixed windows, giving the
//! energy-over-time view that aggregate reports hide (ramp phases,
//! steady state, drains, and the moments a gating policy pays for
//! itself).

use crate::params::PowerParams;
use warped_isa::UnitType;
use warped_sim::trace::{CycleObserver, CycleSample};
use warped_sim::{DomainLayout, NUM_DOMAINS};

/// One epoch's integrated energy for a single unit type.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EpochEnergy {
    /// Leakage burned by powered clusters (gated clusters burn none).
    pub static_energy: f64,
    /// Sleep-transistor switching energy charged at gate-entry edges.
    pub overhead: f64,
    /// Leakage an always-on design would have burned (the baseline).
    pub always_on_static: f64,
}

impl EpochEnergy {
    /// Net static-energy savings in this epoch (can be negative when
    /// overhead outweighs the gated time).
    #[must_use]
    pub fn savings(&self) -> f64 {
        self.always_on_static - self.static_energy - self.overhead
    }

    /// Savings as a fraction of the always-on leakage (0 when the epoch
    /// is empty).
    #[must_use]
    pub fn savings_fraction(&self) -> f64 {
        if self.always_on_static <= 0.0 {
            0.0
        } else {
            self.savings() / self.always_on_static
        }
    }
}

/// A cycle observer that integrates per-unit-type energy over fixed
/// epochs.
///
/// Gate-entry edges are detected from the `powered` flags (a domain
/// going powered→unpowered pays one gating-event overhead; the wakeup
/// transition is free in this model because the overhead constant
/// covers the full sleep/wake pair, consistent with
/// [`PowerParams::gate_event_overhead`]).
///
/// # Examples
///
/// ```
/// use warped_power::{EnergyTimeline, PowerParams};
/// use warped_sim::trace::{CycleObserver, CycleSample};
/// use warped_sim::{DomainLayout, NUM_DOMAINS};
/// use warped_isa::UnitType;
///
/// let mut t = EnergyTimeline::new(PowerParams::default(), DomainLayout::fermi(), 14, 100);
/// t.observe(&CycleSample {
///     cycle: 0,
///     busy: [false; NUM_DOMAINS],
///     powered: [true; NUM_DOMAINS],
///     issued: 0,
///     active_warps: 0,
/// });
/// // One cycle, both INT clusters powered: 2 leakage-cycle units burned.
/// let open = t.current_epoch(UnitType::Int);
/// assert!((open.static_energy - 2.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct EnergyTimeline {
    params: PowerParams,
    layout: DomainLayout,
    bet: u32,
    epoch_len: u64,
    prev_powered: Option<[bool; NUM_DOMAINS]>,
    current: [EpochEnergy; 4],
    cycles_in_epoch: u64,
    epochs: Vec<[EpochEnergy; 4]>,
}

impl EnergyTimeline {
    /// Creates a timeline with the given epoch length in cycles.
    ///
    /// `bet` must match the gating controller's break-even time (it
    /// sets the per-event overhead).
    ///
    /// # Panics
    ///
    /// Panics if `epoch_len` is zero or the power parameters are
    /// invalid.
    #[must_use]
    pub fn new(params: PowerParams, layout: DomainLayout, bet: u32, epoch_len: u64) -> Self {
        params.validate();
        assert!(epoch_len > 0, "epoch length must be positive");
        EnergyTimeline {
            params,
            layout,
            bet,
            epoch_len,
            prev_powered: None,
            current: [EpochEnergy::default(); 4],
            cycles_in_epoch: 0,
            epochs: Vec::new(),
        }
    }

    /// Completed epochs so far.
    #[must_use]
    pub fn epochs(&self) -> &[[EpochEnergy; 4]] {
        &self.epochs
    }

    /// The epoch length in cycles this timeline integrates over.
    #[must_use]
    pub fn epoch_len(&self) -> u64 {
        self.epoch_len
    }

    /// The (partial) energy of the epoch currently being integrated.
    #[must_use]
    pub fn current_epoch(&self, unit: UnitType) -> EpochEnergy {
        self.current[unit.index()]
    }

    /// Per-epoch savings fractions for `unit`, ready for a sparkline.
    #[must_use]
    pub fn savings_series(&self, unit: UnitType) -> Vec<f64> {
        self.epochs
            .iter()
            .map(|e| e[unit.index()].savings_fraction())
            .collect()
    }

    /// Renders a savings series as a Unicode sparkline (one char per
    /// epoch, ▁ = none/negative, █ = all leakage eliminated).
    #[must_use]
    pub fn sparkline(&self, unit: UnitType) -> String {
        const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
        self.savings_series(unit)
            .iter()
            .map(|&f| {
                let idx = (f.clamp(0.0, 1.0) * 7.0).round() as usize;
                BARS[idx]
            })
            .collect()
    }
}

impl CycleObserver for EnergyTimeline {
    fn observe(&mut self, sample: &CycleSample) {
        for unit in [UnitType::Int, UnitType::Fp] {
            let slot = &mut self.current[unit.index()];
            for d in self.layout.domains_of(unit) {
                let di = d.index();
                slot.always_on_static += self.params.static_power_per_cluster;
                if sample.powered[di] {
                    slot.static_energy += self.params.static_power_per_cluster;
                }
                if let Some(prev) = &self.prev_powered {
                    if prev[di] && !sample.powered[di] {
                        slot.overhead += self.params.gate_event_overhead(self.bet);
                    }
                }
            }
        }
        self.prev_powered = Some(sample.powered);
        self.cycles_in_epoch += 1;
        if self.cycles_in_epoch == self.epoch_len {
            self.epochs.push(self.current);
            self.current = [EpochEnergy::default(); 4];
            self.cycles_in_epoch = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use warped_sim::trace::SpanSample;
    use warped_sim::DomainId;

    fn sample(powered_int0: bool) -> CycleSample {
        let mut powered = [true; NUM_DOMAINS];
        powered[DomainId::INT0.index()] = powered_int0;
        CycleSample {
            cycle: 0,
            busy: [false; NUM_DOMAINS],
            powered,
            issued: 0,
            active_warps: 0,
        }
    }

    fn timeline(epoch: u64) -> EnergyTimeline {
        EnergyTimeline::new(PowerParams::default(), DomainLayout::fermi(), 14, epoch)
    }

    #[test]
    fn always_on_epoch_saves_nothing() {
        let mut t = timeline(10);
        for _ in 0..10 {
            t.observe(&sample(true));
        }
        let e = t.epochs()[0][UnitType::Int.index()];
        assert_eq!(e.static_energy, 20.0);
        assert_eq!(e.always_on_static, 20.0);
        assert_eq!(e.overhead, 0.0);
        assert_eq!(e.savings(), 0.0);
    }

    #[test]
    fn gating_saves_leakage_but_charges_the_edge() {
        let mut t = timeline(20);
        t.observe(&sample(true));
        for _ in 0..19 {
            t.observe(&sample(false)); // INT0 gated for 19 cycles
        }
        let e = t.epochs()[0][UnitType::Int.index()];
        // INT1 always powered (20), INT0 powered 1 cycle.
        assert_eq!(e.static_energy, 21.0);
        assert_eq!(e.overhead, 14.0, "one gate-entry edge at BET=14");
        // Saved 19 leakage-cycles, paid 14: net +5.
        assert!((e.savings() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn short_gating_event_is_net_negative() {
        let mut t = timeline(10);
        t.observe(&sample(true));
        for _ in 0..5 {
            t.observe(&sample(false)); // gated 5 < BET
        }
        for _ in 0..4 {
            t.observe(&sample(true));
        }
        let e = t.epochs()[0][UnitType::Int.index()];
        assert!(
            e.savings() < 0.0,
            "5 gated cycles cannot pay a 14-cycle overhead"
        );
    }

    #[test]
    fn epochs_partition_the_run() {
        let mut t = timeline(7);
        for _ in 0..21 {
            t.observe(&sample(true));
        }
        assert_eq!(t.epochs().len(), 3);
        assert_eq!(t.current_epoch(UnitType::Fp), EpochEnergy::default());
    }

    #[test]
    fn sparkline_length_matches_epochs() {
        let mut t = timeline(5);
        for i in 0..25 {
            t.observe(&sample(i % 2 == 0));
        }
        assert_eq!(t.sparkline(UnitType::Int).chars().count(), 5);
    }

    #[test]
    #[should_panic(expected = "epoch length")]
    fn zero_epoch_rejected() {
        let _ = timeline(0);
    }

    #[test]
    fn span_integration_matches_per_cycle_delivery() {
        use warped_sim::GateTransition;

        // A span that exercises everything at once: an entry edge (the
        // pre-span sample has INT0 powered, the span starts with it
        // gated), in-span transitions in both directions, several epoch
        // closures, and a trailing transition at offset == cycles that
        // must only affect the *next* observation.
        let mut entry = [true; NUM_DOMAINS];
        entry[DomainId::INT0.index()] = false;
        let transitions = vec![
            GateTransition {
                offset: 3,
                domain: DomainId::FP1,
                powered: false,
            },
            GateTransition {
                offset: 9,
                domain: DomainId::INT0,
                powered: true,
            },
            GateTransition {
                offset: 15,
                domain: DomainId::INT0,
                powered: false,
            },
            GateTransition {
                offset: 22,
                domain: DomainId::INT1,
                powered: false,
            },
            GateTransition {
                offset: 22,
                domain: DomainId::FP1,
                powered: true,
            },
            GateTransition {
                offset: 31,
                domain: DomainId::SFU,
                powered: false,
            },
        ];
        let span = SpanSample {
            start_cycle: 5,
            cycles: 31,
            busy: [false; NUM_DOMAINS],
            powered: entry,
            transitions: &transitions,
            active_warps: 0,
        };

        let mut batched = timeline(7);
        let mut stepped = timeline(7);
        // Shared pre-span history so both have a prev_powered sample and
        // a partially filled epoch.
        for t in [&mut batched, &mut stepped] {
            t.observe(&sample(true));
            t.observe(&sample(true));
        }
        batched.observe_span(&span);
        span.for_each_cycle(|s| stepped.observe(s));

        assert_eq!(batched.epochs(), stepped.epochs());
        assert_eq!(batched.cycles_in_epoch, stepped.cycles_in_epoch);
        for unit in [UnitType::Int, UnitType::Fp] {
            assert_eq!(
                batched.current_epoch(unit),
                stepped.current_epoch(unit),
                "{unit:?} open epoch diverges"
            );
        }
        assert_eq!(batched.prev_powered, stepped.prev_powered);

        // One more per-cycle observation with INT1 restored: both paths
        // must agree on the edges it implies (SFU's trailing transition
        // is invisible to the energy model; INT1's wake is free).
        let post = sample(true);
        batched.observe(&post);
        stepped.observe(&post);
        assert_eq!(
            batched.current_epoch(UnitType::Int),
            stepped.current_epoch(UnitType::Int)
        );
    }
}
