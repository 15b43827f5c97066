//! Per-epoch metrics rollups streamed as JSONL.
//!
//! A recording's [`EpochCounters`] are already aggregated by the probe;
//! this module flattens them into self-describing [`RollupRow`]s — one
//! JSON object per epoch, one line per object — optionally merged with
//! the per-epoch static-energy deltas an
//! [`EnergyTimeline`] integrated over the
//! same run. JSONL keeps the stream appendable and trivially parseable
//! (`jq`, pandas, a for-loop) without holding the whole run in memory.

use std::io::{self, Write};

use warped_isa::UnitType;
use warped_power::EnergyTimeline;
use warped_sim::probe::{EpochCounters, TelemetryLog};

/// Per-unit-type energy summary for one epoch, in leakage-cycle units.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyDelta {
    /// Net static-energy savings vs. always-on (negative when overhead
    /// outweighed the gated time).
    pub savings: f64,
    /// Savings as a fraction of the always-on leakage.
    pub savings_fraction: f64,
}

/// One epoch of the metrics stream: counters plus (optionally) the
/// energy view of the same window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RollupRow {
    /// Zero-based epoch index.
    pub epoch: usize,
    /// First cycle of the epoch (`epoch * epoch_len`).
    pub start_cycle: u64,
    /// The probe's counters for this epoch.
    pub counters: EpochCounters,
    /// INT static-energy delta, when an energy timeline was merged.
    pub int_energy: Option<EnergyDelta>,
    /// FP static-energy delta, when an energy timeline was merged.
    pub fp_energy: Option<EnergyDelta>,
}

impl RollupRow {
    /// Renders the row as one JSON object (no trailing newline). Field
    /// order is fixed, so output is deterministic.
    #[must_use]
    pub fn to_json(&self) -> String {
        let c = &self.counters;
        let mut s = format!(
            "{{\"epoch\":{},\"start_cycle\":{},\"cycles\":{},\"issued\":{},\
             \"active_warp_cycles\":{},\"gate_events\":{},\"wakeups\":{},\
             \"critical_wakeups\":{},\"wasted_gates\":{},\"blackout_holds\":{},\
             \"ff_spans\":{},\"ff_cycles\":{},\"priority_flips\":{}",
            self.epoch,
            self.start_cycle,
            c.cycles,
            c.issued,
            c.active_warp_cycles,
            c.gate_events,
            c.wakeups,
            c.critical_wakeups,
            c.wasted_gates,
            c.blackout_holds,
            c.ff_spans,
            c.ff_cycles,
            c.priority_flips,
        );
        for (key, delta) in [("int", self.int_energy), ("fp", self.fp_energy)] {
            if let Some(d) = delta {
                s.push_str(&format!(
                    ",\"{key}_savings\":{:.6},\"{key}_savings_fraction\":{:.6}",
                    d.savings, d.savings_fraction
                ));
            }
        }
        s.push('}');
        s
    }
}

/// Flattens a log's epochs into rollup rows (no energy columns).
#[must_use]
pub fn rows(log: &TelemetryLog) -> Vec<RollupRow> {
    log.epochs
        .iter()
        .enumerate()
        .map(|(i, c)| RollupRow {
            epoch: i,
            start_cycle: i as u64 * log.epoch_len,
            counters: *c,
            int_energy: None,
            fp_energy: None,
        })
        .collect()
}

/// Flattens a log's epochs and merges each with the matching epoch of
/// an energy timeline that observed the same run.
///
/// Only INT and FP deltas are emitted — the energy model gates the CUDA
/// core types; SFU/LDST leakage is tracked elsewhere. Epochs past the
/// end of the (shorter) timeline simply omit the energy columns, which
/// happens naturally for the final partial epoch.
///
/// # Panics
///
/// Panics if the two epoch lengths differ — the rows would silently
/// misalign otherwise.
#[must_use]
pub fn rows_with_energy(log: &TelemetryLog, energy: &EnergyTimeline) -> Vec<RollupRow> {
    assert_eq!(
        log.epoch_len,
        energy.epoch_len(),
        "recorder and energy timeline must use the same epoch length"
    );
    let mut out = rows(log);
    for (row, epoch) in out.iter_mut().zip(energy.epochs()) {
        let delta = |unit: UnitType| {
            let e = epoch[unit.index()];
            EnergyDelta {
                savings: e.savings(),
                savings_fraction: e.savings_fraction(),
            }
        };
        row.int_energy = Some(delta(UnitType::Int));
        row.fp_energy = Some(delta(UnitType::Fp));
    }
    out
}

/// Writes rows as JSONL: one [`RollupRow::to_json`] object per line.
///
/// # Errors
///
/// Propagates any I/O error from the sink.
pub fn write_jsonl<W: Write>(rows: &[RollupRow], mut sink: W) -> io::Result<()> {
    for row in rows {
        sink.write_all(row.to_json().as_bytes())?;
        sink.write_all(b"\n")?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use warped_power::PowerParams;
    use warped_sim::probe::{Event, Recorder, RecorderConfig};
    use warped_sim::trace::{CycleObserver, CycleSample};
    use warped_sim::{DomainId, DomainLayout, NUM_DOMAINS};

    fn recorder(epoch_len: u64) -> Recorder {
        Recorder::new(RecorderConfig {
            capacity: 4096,
            epoch_len,
        })
    }

    #[test]
    fn rows_carry_epoch_indices_and_counters() {
        let rec = recorder(10);
        for c in 0..25u64 {
            rec.observe_sample(&CycleSample {
                cycle: c,
                busy: [false; NUM_DOMAINS],
                powered: [true; NUM_DOMAINS],
                issued: 1,
                active_warps: 4,
            });
        }
        rec.record(
            3,
            Event::Gate {
                domain: DomainId::INT1,
            },
        );
        rec.record(
            17,
            Event::Wakeup {
                domain: DomainId::INT1,
                gated: 14,
                critical: false,
                premature: false,
            },
        );
        let rows = rows(&rec.take());
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[1].epoch, 1);
        assert_eq!(rows[1].start_cycle, 10);
        assert_eq!(rows[0].counters.gate_events, 1);
        assert_eq!(rows[1].counters.wakeups, 1);
        assert_eq!(rows[2].counters.cycles, 5);
        assert!(rows.iter().all(|r| r.int_energy.is_none()));
    }

    #[test]
    fn energy_merge_requires_matching_epochs_and_fills_deltas() {
        let rec = recorder(10);
        let mut energy = EnergyTimeline::new(PowerParams::default(), DomainLayout::fermi(), 14, 10);
        for c in 0..40u64 {
            let mut powered = [true; NUM_DOMAINS];
            // Gate one INT cluster from cycle 10 on; epoch 2 is fully
            // gated with no entry edge, so its savings are pure.
            powered[DomainId::INT1.index()] = c < 10;
            let s = CycleSample {
                cycle: c,
                busy: [false; NUM_DOMAINS],
                powered,
                issued: 0,
                active_warps: 0,
            };
            rec.observe_sample(&s);
            energy.observe(&s);
        }
        let rows = rows_with_energy(&rec.take(), &energy);
        assert_eq!(rows.len(), 4);
        let int2 = rows[2].int_energy.expect("merged epoch has INT delta");
        assert!(int2.savings > 0.0, "gated epoch saves energy: {int2:?}");
        assert!(rows[2].fp_energy.is_some());
    }

    #[test]
    #[should_panic(expected = "same epoch length")]
    fn mismatched_epoch_lengths_are_rejected() {
        let rec = recorder(10);
        rec.observe_sample(&CycleSample {
            cycle: 0,
            busy: [false; NUM_DOMAINS],
            powered: [true; NUM_DOMAINS],
            issued: 0,
            active_warps: 0,
        });
        let energy = EnergyTimeline::new(PowerParams::default(), DomainLayout::fermi(), 14, 99);
        let _ = rows_with_energy(&rec.take(), &energy);
    }

    #[test]
    fn jsonl_is_one_parseable_object_per_line() {
        let rec = recorder(5);
        for c in 0..12u64 {
            rec.observe_sample(&CycleSample {
                cycle: c,
                busy: [false; NUM_DOMAINS],
                powered: [true; NUM_DOMAINS],
                issued: 2,
                active_warps: 1,
            });
        }
        let rows = rows(&rec.take());
        let mut buf = Vec::new();
        write_jsonl(&rows, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        for (i, line) in lines.iter().enumerate() {
            assert!(
                line.starts_with(&format!("{{\"epoch\":{i},")),
                "line: {line}"
            );
            assert!(line.ends_with('}'));
            // Balanced braces, no raw newlines inside a row.
            assert_eq!(line.matches('{').count(), line.matches('}').count());
        }
        assert!(lines[1].contains("\"issued\":10"));
    }

    #[test]
    fn energy_columns_round_to_six_decimals() {
        let row = RollupRow {
            epoch: 0,
            start_cycle: 0,
            counters: EpochCounters::default(),
            int_energy: Some(EnergyDelta {
                savings: 1.0 / 3.0,
                savings_fraction: 2.0 / 3.0,
            }),
            fp_energy: None,
        };
        let json = row.to_json();
        assert!(json.contains("\"int_savings\":0.333333"), "{json}");
        assert!(json.contains("\"int_savings_fraction\":0.666667"));
        assert!(!json.contains("fp_savings"));
    }
}
