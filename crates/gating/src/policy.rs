//! Gating policies and idle-detect tuners.

use crate::machine::GateState;
use crate::params::GatingParams;
use warped_isa::UnitType;
use warped_sim::DomainId;

/// Gating states of the *other* clusters of a domain's unit type (the
/// generalisation of the paper's two-cluster "peer" to Kepler/GCN-like
/// layouts with up to six clusters).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PeerSummary {
    /// Peer clusters currently powered and usable.
    pub active: u32,
    /// Peer clusters currently gated (in blackout under those policies).
    pub gated: u32,
    /// Peer clusters restoring voltage.
    pub waking: u32,
}

impl PeerSummary {
    /// Summarises a list of peer states.
    #[must_use]
    pub fn from_states(states: &[GateState]) -> Self {
        let mut out = PeerSummary::default();
        for s in states {
            match s {
                GateState::Active { .. } => out.active += 1,
                GateState::Gated { .. } => out.gated += 1,
                GateState::Waking { .. } => out.waking += 1,
            }
        }
        out
    }

    /// Total peer clusters.
    #[must_use]
    pub fn total(self) -> u32 {
        self.active + self.gated + self.waking
    }
}

/// Everything a [`GatePolicy`] may consult when deciding whether to gate
/// or wake a domain this cycle.
#[derive(Debug, Clone, Copy)]
pub struct PolicyCtx<'a> {
    /// The domain under consideration.
    pub domain: DomainId,
    /// Circuit timing parameters.
    pub params: &'a GatingParams,
    /// The effective idle-detect window for this domain this cycle
    /// (per-unit-type; may differ from `params.idle_detect` under
    /// adaptive idle detect).
    pub idle_detect: u32,
    /// Consecutive idle cycles observed (including the current one).
    pub idle_run: u32,
    /// Summary of the *other* same-type clusters' states (empty for
    /// SFU/LDST, which have a single domain each).
    pub peers: PeerSummary,
    /// Warps currently waiting in the active-warp subset of this
    /// domain's unit type (the `INT_ACTV`/`FP_ACTV` counters).
    pub active_subset: u32,
    /// Ready instructions of this domain's type blocked this cycle
    /// because no cluster could accept them.
    pub demand: u32,
}

/// A closed-form description of when [`GatePolicy::should_gate`] fires
/// as a domain's idle run grows with every *other* context field frozen.
///
/// This is the [`Controller`](crate::Controller)'s per-cycle deadline
/// for an idle, powered domain, not only a fast-forward aid: after each
/// evaluation the controller turns the forecast into the observation at
/// which the domain must next be looked at, and leaves it alone until
/// then. The contract is exact, not approximate: a policy returning
/// [`GateForecast::AtIdleRun`]`(t)` promises that, for a context
/// identical to `ctx` except for `idle_run`, `should_gate(idle_run = x)`
/// is `true` exactly when `x >= t`. The controller re-evaluates the
/// domain (and so asks again) whenever any other context field could
/// have changed — its unit's demand or active subset, a same-type
/// peer's state class, or the idle-detect window at a tuner epoch — so
/// the frozen-context assumption holds wherever the forecast is used.
/// [`GateForecast::Unknown`] costs an evaluation on every idle cycle;
/// [`GateForecast::Never`] costs none until an input changes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GateForecast {
    /// No closed form: the controller must evaluate `should_gate` every
    /// cycle (always safe, never fast).
    Unknown,
    /// `should_gate` is `idle_run >= t` under the frozen context.
    AtIdleRun(u32),
    /// `should_gate` is `false` for every idle run under the frozen
    /// context.
    Never,
}

impl GateForecast {
    /// The forecast's verdict for a specific idle run: `Some(true)` if
    /// the policy gates at `idle_run`, `Some(false)` if it does not, and
    /// `None` when there is no closed form ([`GateForecast::Unknown`])
    /// and `should_gate` must be consulted directly.
    ///
    /// This is the misuse-proof way to consume a forecast: callers get a
    /// three-way answer instead of pattern-matching and panicking on the
    /// variants they did not expect.
    #[must_use]
    pub fn predicts(self, idle_run: u32) -> Option<bool> {
        match self {
            GateForecast::Unknown => None,
            GateForecast::AtIdleRun(t) => Some(idle_run >= t),
            GateForecast::Never => Some(false),
        }
    }

    /// The gating threshold, when the forecast has one: `Some(t)` for
    /// [`GateForecast::AtIdleRun`]`(t)`, `None` for both `Unknown` (no
    /// closed form) and `Never` (no finite threshold).
    #[must_use]
    pub fn at_idle_run(self) -> Option<u32> {
        match self {
            GateForecast::AtIdleRun(t) => Some(t),
            GateForecast::Unknown | GateForecast::Never => None,
        }
    }
}

/// A power-gating decision policy.
///
/// The framework calls [`should_gate`](GatePolicy::should_gate) for an
/// idle, powered domain and [`may_wake`](GatePolicy::may_wake) for a
/// gated domain with pending demand. All bookkeeping (counters, state
/// transitions, statistics) lives in the
/// [`Controller`](crate::Controller).
pub trait GatePolicy {
    /// Whether an idle, powered domain should be gated now.
    fn should_gate(&self, ctx: &PolicyCtx<'_>) -> bool;

    /// Whether a gated domain with demand may start waking after
    /// `elapsed` gated cycles.
    fn may_wake(&self, ctx: &PolicyCtx<'_>, elapsed: u32) -> bool;

    /// Closed form of `should_gate` as a function of the idle run, with
    /// every other field of `ctx` held fixed (see [`GateForecast`]).
    ///
    /// The default is [`GateForecast::Unknown`], which keeps custom
    /// policies correct at the cost of evaluating them on every idle
    /// cycle.
    fn forecast_gate(&self, ctx: &PolicyCtx<'_>) -> GateForecast {
        let _ = ctx;
        GateForecast::Unknown
    }

    /// The minimum number of gated cycles this policy guarantees before
    /// [`may_wake`](GatePolicy::may_wake) can return `true` for
    /// `domain` — the floor the gating sanitizer holds the controller
    /// to. Blackout policies return `params.bet` for CUDA cores; the
    /// default of `0` claims nothing (always safe: the sanitizer then
    /// only checks the structural one-cycle minimum).
    fn wake_floor(&self, domain: DomainId, params: &GatingParams) -> u32 {
        let _ = (domain, params);
        0
    }

    /// Policy name, used as the controller name in reports.
    fn name(&self) -> &'static str;
}

/// Conventional power gating (Hu et al.): gate after the idle-detect
/// window; wake on demand at any time — even before the break-even time,
/// which is what produces net-negative gating events.
#[derive(Debug, Clone, Copy, Default)]
pub struct ConvPgPolicy {
    _private: (),
}

impl ConvPgPolicy {
    /// Creates the conventional policy.
    #[must_use]
    pub fn new() -> Self {
        ConvPgPolicy { _private: () }
    }
}

impl GatePolicy for ConvPgPolicy {
    fn should_gate(&self, ctx: &PolicyCtx<'_>) -> bool {
        ctx.idle_run >= ctx.idle_detect
    }

    fn may_wake(&self, _ctx: &PolicyCtx<'_>, _elapsed: u32) -> bool {
        true
    }

    fn forecast_gate(&self, ctx: &PolicyCtx<'_>) -> GateForecast {
        GateForecast::AtIdleRun(ctx.idle_detect)
    }

    fn name(&self) -> &'static str {
        "ConvPG"
    }
}

/// A runtime adjuster for the per-unit-type idle-detect window.
///
/// The controller calls [`on_epoch`](IdleDetectTuner::on_epoch) at every
/// epoch boundary for each CUDA-core unit type (INT and FP), passing the
/// number of critical wakeups observed in the epoch; the tuner mutates
/// the window in place.
pub trait IdleDetectTuner {
    /// Adjusts `idle_detect` for `unit` after an epoch with
    /// `critical_wakeups` critical wakeups.
    fn on_epoch(&mut self, unit: UnitType, critical_wakeups: u32, idle_detect: &mut u32);

    /// Length of an epoch in cycles.
    fn epoch_len(&self) -> u64 {
        1000
    }

    /// The inclusive bounds this tuner promises to keep every
    /// idle-detect window within, or `None` when it makes no promise
    /// (the sanitizer then pins the window to its static value). The
    /// adaptive tuner returns the paper's 5..=10.
    fn window_bounds(&self) -> Option<(u32, u32)> {
        None
    }

    /// Tuner name for reporting; empty for the static tuner.
    fn name(&self) -> &'static str;
}

/// The fixed idle-detect window (no runtime adaptation).
#[derive(Debug, Clone, Copy, Default)]
pub struct StaticIdleDetect {
    _private: (),
}

impl StaticIdleDetect {
    /// Creates the static (no-op) tuner.
    #[must_use]
    pub fn new() -> Self {
        StaticIdleDetect { _private: () }
    }
}

impl IdleDetectTuner for StaticIdleDetect {
    fn on_epoch(&mut self, _unit: UnitType, _critical: u32, _idle_detect: &mut u32) {}

    fn name(&self) -> &'static str {
        ""
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(idle_run: u32, idle_detect: u32, params: &GatingParams) -> PolicyCtx<'_> {
        PolicyCtx {
            domain: DomainId::INT0,
            params,
            idle_detect,
            idle_run,
            peers: PeerSummary::from_states(&[GateState::active()]),
            active_subset: 0,
            demand: 0,
        }
    }

    #[test]
    fn conv_pg_gates_exactly_at_idle_detect() {
        let p = GatingParams::default();
        let policy = ConvPgPolicy::new();
        assert!(!policy.should_gate(&ctx(4, 5, &p)));
        assert!(policy.should_gate(&ctx(5, 5, &p)));
        assert!(policy.should_gate(&ctx(6, 5, &p)));
    }

    #[test]
    fn conv_pg_wakes_any_time() {
        let p = GatingParams::default();
        let policy = ConvPgPolicy::new();
        let c = ctx(0, 5, &p);
        assert!(policy.may_wake(&c, 1), "even before break-even");
        assert!(policy.may_wake(&c, 100));
    }

    #[test]
    fn conv_pg_forecast_matches_should_gate_pointwise() {
        let p = GatingParams::default();
        let policy = ConvPgPolicy::new();
        let forecast = policy.forecast_gate(&ctx(0, 5, &p));
        assert_eq!(forecast.at_idle_run(), Some(5), "ConvPG has a closed form");
        for x in 0..20 {
            assert_eq!(
                Some(policy.should_gate(&ctx(x, 5, &p))),
                forecast.predicts(x),
                "forecast must agree with should_gate at idle_run={x}"
            );
        }
    }

    #[test]
    fn forecast_predicts_covers_every_variant() {
        assert_eq!(GateForecast::Unknown.predicts(7), None);
        assert_eq!(GateForecast::AtIdleRun(5).predicts(4), Some(false));
        assert_eq!(GateForecast::AtIdleRun(5).predicts(5), Some(true));
        assert_eq!(GateForecast::Never.predicts(u32::MAX), Some(false));
        assert_eq!(GateForecast::Unknown.at_idle_run(), None);
        assert_eq!(GateForecast::Never.at_idle_run(), None);
    }

    #[test]
    fn default_wake_floor_claims_nothing() {
        let p = GatingParams::default();
        assert_eq!(ConvPgPolicy::new().wake_floor(DomainId::INT0, &p), 0);
    }

    #[test]
    fn static_tuner_promises_no_bounds() {
        assert_eq!(StaticIdleDetect::new().window_bounds(), None);
    }

    #[test]
    fn default_forecast_is_unknown() {
        struct Opaque;
        impl GatePolicy for Opaque {
            fn should_gate(&self, _ctx: &PolicyCtx<'_>) -> bool {
                false
            }
            fn may_wake(&self, _ctx: &PolicyCtx<'_>, _elapsed: u32) -> bool {
                true
            }
            fn name(&self) -> &'static str {
                "Opaque"
            }
        }
        let p = GatingParams::default();
        assert_eq!(Opaque.forecast_gate(&ctx(3, 5, &p)), GateForecast::Unknown);
    }

    #[test]
    fn static_tuner_never_changes_the_window() {
        let mut t = StaticIdleDetect::new();
        let mut w = 5;
        t.on_epoch(UnitType::Int, 100, &mut w);
        assert_eq!(w, 5);
        assert_eq!(t.epoch_len(), 1000);
    }
}
