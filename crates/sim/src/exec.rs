//! Execution-unit pipelines, the busy mask, and dispatch-port bits.

use crate::domain::{DomainId, DomainMask, NUM_DOMAINS};

/// A pipelined execution cluster (one gating domain's worth of hardware).
///
/// The pipeline accepts at most one warp instruction per cycle (initiation
/// interval 1) and keeps each instruction in flight for its latency. The
/// cluster is *busy* in a cycle when any instruction occupies any stage —
/// the signal the power gating controller's idle detector watches.
#[derive(Debug, Clone, Default)]
pub(crate) struct Pipeline {
    in_flight: u32,
    issued_total: u64,
}

impl Pipeline {
    pub(crate) fn issue(&mut self) {
        self.in_flight += 1;
        self.issued_total += 1;
    }

    pub(crate) fn retire(&mut self) {
        debug_assert!(self.in_flight > 0, "retire without matching issue");
        self.in_flight -= 1;
    }

    pub(crate) fn is_busy(&self) -> bool {
        self.in_flight > 0
    }

    #[cfg(test)]
    pub(crate) fn in_flight(&self) -> u32 {
        self.in_flight
    }

    #[cfg(test)]
    pub(crate) fn issued_total(&self) -> u64 {
        self.issued_total
    }
}

/// The SM's full set of execution pipelines, one per gating domain.
#[derive(Debug, Clone, Default)]
pub(crate) struct ExecUnits {
    pipes: [Pipeline; NUM_DOMAINS],
    /// Domains whose pipeline holds at least one instruction, kept in
    /// step with every [`ExecUnits::issue`] and [`ExecUnits::retire`].
    busy: DomainMask,
}

impl ExecUnits {
    #[cfg(test)]
    pub(crate) fn pipe(&self, d: DomainId) -> &Pipeline {
        &self.pipes[d.index()]
    }

    /// Starts an instruction in `d`'s pipeline.
    pub(crate) fn issue(&mut self, d: DomainId) {
        self.pipes[d.index()].issue();
        self.busy |= d.bit();
    }

    /// Retires an instruction from `d`'s pipeline.
    pub(crate) fn retire(&mut self, d: DomainId) {
        let pipe = &mut self.pipes[d.index()];
        pipe.retire();
        if !pipe.is_busy() {
            self.busy &= !d.bit();
        }
    }

    /// The busy domains.
    pub(crate) fn busy_mask(&self) -> DomainMask {
        self.busy
    }
}

/// The dispatch-port bits `domain` claims when it accepts an
/// instruction.
///
/// The SM has four dispatch ports: SP0, SP1, SFU, LDST. An INT or FP
/// instruction consumes the port of the SP cluster it dispatches to, so
/// two INT instructions can co-issue (one per cluster), and an INT plus an
/// FP can co-issue to different clusters, but INT0 and FP0 conflict: an
/// SP claim marks both of its cluster's domains used.
pub(crate) fn port_bits(domain: DomainId) -> DomainMask {
    match domain.sp_cluster() {
        Some(c) => DomainId::int(c).bit() | DomainId::fp(c).bit(),
        None => domain.bit(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipeline_busy_tracks_in_flight() {
        let mut p = Pipeline::default();
        assert!(!p.is_busy());
        p.issue();
        p.issue();
        assert!(p.is_busy());
        assert_eq!(p.in_flight(), 2);
        p.retire();
        assert!(p.is_busy());
        p.retire();
        assert!(!p.is_busy());
        assert_eq!(p.issued_total(), 2);
    }

    #[test]
    fn ports_allow_dual_issue_to_distinct_clusters() {
        let used = port_bits(DomainId::INT0);
        assert_ne!(used & DomainId::INT0.bit(), 0);
        assert_ne!(used & DomainId::FP0.bit(), 0, "FP0 shares SP0's port");
        assert_eq!(used & DomainId::INT1.bit(), 0);
        assert_eq!(used & port_bits(DomainId::FP1), 0, "SP1 is a second port");
    }

    #[test]
    fn sfu_and_ldst_have_independent_ports() {
        assert_eq!(port_bits(DomainId::SFU), DomainId::SFU.bit());
        assert_eq!(port_bits(DomainId::LDST), DomainId::LDST.bit());
        let sp = port_bits(DomainId::INT0) | port_bits(DomainId::INT1);
        assert_eq!(sp & (DomainId::SFU.bit() | DomainId::LDST.bit()), 0);
    }

    #[test]
    fn reset_clears_everything() {
        // Retiring every in-flight instruction empties the busy mask.
        let mut units = ExecUnits::default();
        units.issue(DomainId::FP1);
        units.issue(DomainId::FP1);
        units.issue(DomainId::SFU);
        units.retire(DomainId::FP1);
        assert_eq!(units.busy_mask(), DomainId::FP1.bit() | DomainId::SFU.bit());
        units.retire(DomainId::FP1);
        units.retire(DomainId::SFU);
        assert_eq!(units.busy_mask(), 0);
    }

    #[test]
    fn busy_flags_reflect_each_domain() {
        let mut units = ExecUnits::default();
        units.issue(DomainId::FP0);
        assert_eq!(units.busy_mask(), DomainId::FP0.bit());
        assert!(units.pipe(DomainId::FP0).is_busy());
        assert!(!units.pipe(DomainId::INT0).is_busy());
    }
}
