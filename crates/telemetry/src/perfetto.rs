//! Perfetto/Chrome trace-event JSON export.
//!
//! [`render`] turns a [`TelemetryLog`] into the JSON object format both
//! [Perfetto](https://ui.perfetto.dev) and `chrome://tracing` open
//! directly. Timestamps are **simulation cycles** (the `ts`/`dur`
//! microsecond fields reinterpreted), never wall-clock, so the output
//! is byte-deterministic for a deterministic run.
//!
//! Track layout:
//!
//! * process "execution units" — one thread per gating domain (INT0,
//!   INT1, FP0, … SFU, LDST), carrying disjoint slices for the gating
//!   state machine: `busy` (from busy edges), `idle-detect`
//!   (idle-detect start → gate or busy), `gated` (gate → wakeup, with
//!   the gated length, blackout-hold count, and critical/premature
//!   classification in its args), and `waking` (wakeup → completion).
//!   These lanes are the paper's Figure 2c state machine drawn over
//!   time, and stacking the per-domain tracks reproduces the Figure 3/4
//!   idle/overlap illustrations from a live run.
//! * process "scheduler" — a `priority` thread showing which CUDA-core
//!   type GATES holds highest (slices between priority flips; absent
//!   when no flip ever fired) and an `issue` thread with a per-epoch
//!   issued-instruction counter.
//! * process "gating" — a `tuner` thread with the per-type idle-detect
//!   window counters (one sample per tuner epoch) and a `clock` thread
//!   with one slice per fast-forward jump.

use crate::json::escape;
use warped_isa::UnitType;
use warped_power::EnergyTimeline;
use warped_sim::probe::{Event, TelemetryLog};
use warped_sim::DomainLayout;

const PID_UNITS: u64 = 1;
const PID_SCHED: u64 = 2;
const PID_GATING: u64 = 3;
const PID_ENERGY: u64 = 4;

const TID_PRIORITY: u64 = 1;
const TID_ISSUE: u64 = 2;
const TID_TUNER: u64 = 1;
const TID_CLOCK: u64 = 2;
const TID_INT_SAVINGS: u64 = 1;
const TID_FP_SAVINGS: u64 = 2;

/// One trace event, pre-serialized; kept sortable so the output is
/// stable per track.
struct Ev {
    pid: u64,
    tid: u64,
    /// Metadata events sort before payload events on their track.
    meta: bool,
    ts: u64,
    seq: usize,
    json: String,
}

struct Trace {
    events: Vec<Ev>,
}

impl Trace {
    fn push(&mut self, pid: u64, tid: u64, meta: bool, ts: u64, json: String) {
        let seq = self.events.len();
        self.events.push(Ev {
            pid,
            tid,
            meta,
            ts,
            seq,
            json,
        });
    }

    fn meta_name(&mut self, pid: u64, tid: Option<u64>, name: &str) {
        let (kind, tid) = match tid {
            Some(t) => ("thread_name", t),
            None => ("process_name", 0),
        };
        let json = format!(
            "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\"name\":\"{kind}\",\
             \"args\":{{\"name\":\"{}\"}}}}",
            escape(name)
        );
        self.push(pid, tid, true, 0, json);
    }

    /// A complete ("X") slice. `args` must already be a JSON object
    /// body (without braces) or empty.
    fn slice(&mut self, pid: u64, tid: u64, ts: u64, dur: u64, name: &str, args: &str) {
        let args = if args.is_empty() {
            String::new()
        } else {
            format!(",\"args\":{{{args}}}")
        };
        let json = format!(
            "{{\"ph\":\"X\",\"pid\":{pid},\"tid\":{tid},\"ts\":{ts},\"dur\":{dur},\
             \"name\":\"{}\"{args}}}",
            escape(name)
        );
        self.push(pid, tid, false, ts, json);
    }

    /// A counter ("C") sample with a single series.
    fn counter(&mut self, pid: u64, tid: u64, ts: u64, name: &str, series: &str, value: u64) {
        let json = format!(
            "{{\"ph\":\"C\",\"pid\":{pid},\"tid\":{tid},\"ts\":{ts},\"name\":\"{}\",\
             \"args\":{{\"{}\":{value}}}}}",
            escape(name),
            escape(series)
        );
        self.push(pid, tid, false, ts, json);
    }

    /// A counter ("C") sample with a single float series, formatted
    /// with the rollup's fixed six-decimal precision so output stays
    /// byte-deterministic.
    fn counter_f64(&mut self, pid: u64, tid: u64, ts: u64, name: &str, series: &str, value: f64) {
        let json = format!(
            "{{\"ph\":\"C\",\"pid\":{pid},\"tid\":{tid},\"ts\":{ts},\"name\":\"{}\",\
             \"args\":{{\"{}\":{value:.6}}}}}",
            escape(name),
            escape(series)
        );
        self.push(pid, tid, false, ts, json);
    }
}

/// The gating state lane currently open on a domain's track.
enum Lane {
    Closed,
    IdleDetect {
        start: u64,
    },
    Gated {
        start: u64,
        holds: u64,
    },
    Waking {
        start: u64,
        gated: u32,
        critical: bool,
        premature: bool,
    },
}

/// Renders a recording as Perfetto/Chrome trace-event JSON.
///
/// `layout` selects which domain tracks exist; `title` lands in the
/// trace's `otherData` block (shown by Perfetto's info panel). The
/// output is deterministic: identical logs render to identical bytes,
/// and events on each `(pid, tid)` track are emitted with
/// non-decreasing timestamps.
#[must_use]
pub fn render(log: &TelemetryLog, layout: DomainLayout, title: &str) -> String {
    render_with_energy(log, layout, title, None)
}

/// [`render`] plus per-epoch energy counter tracks.
///
/// When an [`EnergyTimeline`] that observed the same run is supplied,
/// an "energy" process is added with one counter track per CUDA-core
/// unit type carrying the rollup's energy columns — `int_savings` and
/// `fp_savings` per epoch, in leakage-cycle units — so energy over
/// time renders directly under the gating lanes that explain it.
///
/// # Panics
///
/// Panics if the timeline's epoch length differs from the recording's
/// (the counters would silently misalign otherwise).
#[must_use]
pub fn render_with_energy(
    log: &TelemetryLog,
    layout: DomainLayout,
    title: &str,
    energy: Option<&EnergyTimeline>,
) -> String {
    let mut tr = Trace { events: Vec::new() };
    let end = log.last_cycle + 1;

    tr.meta_name(PID_UNITS, None, "execution units");
    tr.meta_name(PID_SCHED, None, "scheduler");
    tr.meta_name(PID_GATING, None, "gating");
    tr.meta_name(PID_SCHED, Some(TID_PRIORITY), "priority");
    tr.meta_name(PID_SCHED, Some(TID_ISSUE), "issue");
    tr.meta_name(PID_GATING, Some(TID_TUNER), "tuner");
    tr.meta_name(PID_GATING, Some(TID_CLOCK), "clock");

    // --- execution-unit tracks: busy slices + gating state lanes ---
    for domain in layout.all().iter().copied() {
        let tid = domain.index() as u64 + 1;
        tr.meta_name(PID_UNITS, Some(tid), &domain.to_string());

        let mut busy_since: Option<u64> = match log.baseline {
            Some(b) if b.busy[domain.index()] => Some(b.cycle),
            _ => None,
        };
        let mut lane = Lane::Closed;
        for s in log.events_for(domain) {
            match s.event {
                Event::BusyEdge { busy, .. } => {
                    if busy {
                        if let Lane::IdleDetect { start } = lane {
                            tr.slice(PID_UNITS, tid, start, s.cycle - start, "idle-detect", "");
                            lane = Lane::Closed;
                        }
                        busy_since = Some(s.cycle);
                    } else if let Some(start) = busy_since.take() {
                        tr.slice(PID_UNITS, tid, start, s.cycle - start, "busy", "");
                    }
                }
                Event::IdleDetect { .. } => {
                    if matches!(lane, Lane::Closed) {
                        lane = Lane::IdleDetect { start: s.cycle };
                    }
                }
                Event::Gate { .. } => {
                    if let Lane::IdleDetect { start } = lane {
                        tr.slice(PID_UNITS, tid, start, s.cycle - start, "idle-detect", "");
                    }
                    lane = Lane::Gated {
                        start: s.cycle,
                        holds: 0,
                    };
                }
                Event::BlackoutHold { .. } => {
                    if let Lane::Gated { holds, .. } = &mut lane {
                        *holds += 1;
                    }
                }
                Event::Wakeup {
                    gated,
                    critical,
                    premature,
                    ..
                } => {
                    if let Lane::Gated { start, holds } = lane {
                        let args = format!(
                            "\"gated\":{gated},\"holds\":{holds},\
                             \"critical\":{critical},\"premature\":{premature}"
                        );
                        tr.slice(PID_UNITS, tid, start, s.cycle - start, "gated", &args);
                    }
                    lane = Lane::Waking {
                        start: s.cycle,
                        gated,
                        critical,
                        premature,
                    };
                }
                Event::WakeComplete { .. } => {
                    if let Lane::Waking {
                        start,
                        gated,
                        critical,
                        premature,
                    } = lane
                    {
                        let args = format!(
                            "\"gated\":{gated},\"critical\":{critical},\
                             \"premature\":{premature}"
                        );
                        tr.slice(PID_UNITS, tid, start, s.cycle - start, "waking", &args);
                    }
                    lane = Lane::Closed;
                }
                _ => {}
            }
        }
        // Close whatever is still open at the end of the recording.
        if let Some(start) = busy_since {
            tr.slice(PID_UNITS, tid, start, end - start, "busy", "");
        }
        match lane {
            Lane::Closed => {}
            Lane::IdleDetect { start } => {
                tr.slice(PID_UNITS, tid, start, end - start, "idle-detect", "");
            }
            Lane::Gated { start, holds } => {
                let args = format!("\"holds\":{holds},\"open\":true");
                tr.slice(PID_UNITS, tid, start, end - start, "gated", &args);
            }
            Lane::Waking {
                start,
                gated,
                critical,
                premature,
            } => {
                let args =
                    format!("\"gated\":{gated},\"critical\":{critical},\"premature\":{premature}");
                tr.slice(PID_UNITS, tid, start, end - start, "waking", &args);
            }
        }
    }

    // --- scheduler: priority slices (only when a flip ever fired) ---
    let flips: Vec<(u64, UnitType)> = log
        .events
        .iter()
        .filter_map(|s| match s.event {
            Event::PriorityFlip { high } => Some((s.cycle, high)),
            _ => None,
        })
        .collect();
    if let Some(&(_, first_high)) = flips.first() {
        let other = |u: UnitType| match u {
            UnitType::Int => UnitType::Fp,
            _ => UnitType::Int,
        };
        let start0 = log.baseline.map_or(0, |b| b.cycle);
        let mut at = start0;
        let mut high = other(first_high);
        for &(cycle, next_high) in &flips {
            if cycle > at {
                tr.slice(
                    PID_SCHED,
                    TID_PRIORITY,
                    at,
                    cycle - at,
                    &high.to_string(),
                    "",
                );
            }
            at = cycle;
            high = next_high;
        }
        if end > at {
            tr.slice(PID_SCHED, TID_PRIORITY, at, end - at, &high.to_string(), "");
        }
    }

    // --- scheduler: per-epoch issue counter ---
    for (i, e) in log.epochs.iter().enumerate() {
        let ts = i as u64 * log.epoch_len;
        tr.counter(
            PID_SCHED,
            TID_ISSUE,
            ts,
            "issued per epoch",
            "issued",
            e.issued,
        );
    }

    // --- gating: tuner window counters + fast-forward clock slices ---
    for s in &log.events {
        match s.event {
            Event::TunerEpoch { unit, window, .. } => {
                let name = format!("window {unit}");
                tr.counter(
                    PID_GATING,
                    TID_TUNER,
                    s.cycle,
                    &name,
                    "window",
                    u64::from(window),
                );
            }
            Event::FastForward { cycles } => {
                tr.slice(PID_GATING, TID_CLOCK, s.cycle, cycles, "fast-forward", "");
            }
            _ => {}
        }
    }

    // --- energy: per-epoch static-savings counter tracks ---
    if let Some(timeline) = energy {
        assert_eq!(
            log.epoch_len,
            timeline.epoch_len(),
            "recorder and energy timeline must use the same epoch length"
        );
        tr.meta_name(PID_ENERGY, None, "energy");
        tr.meta_name(PID_ENERGY, Some(TID_INT_SAVINGS), "INT static savings");
        tr.meta_name(PID_ENERGY, Some(TID_FP_SAVINGS), "FP static savings");
        for (i, epoch) in timeline.epochs().iter().enumerate() {
            let ts = i as u64 * log.epoch_len;
            for (tid, series, unit) in [
                (TID_INT_SAVINGS, "int_savings", UnitType::Int),
                (TID_FP_SAVINGS, "fp_savings", UnitType::Fp),
            ] {
                tr.counter_f64(
                    PID_ENERGY,
                    tid,
                    ts,
                    &format!("{series} per epoch"),
                    series,
                    epoch[unit.index()].savings(),
                );
            }
        }
    }

    // Stable per-track ordering: metadata first, then by timestamp, ties
    // broken by emission order. This guarantees monotone `ts` per
    // (pid, tid) track and byte-determinism.
    tr.events
        .sort_by_key(|e| (e.pid, e.tid, !e.meta, e.ts, e.seq));

    let mut out = String::from("{\"traceEvents\":[");
    for (i, e) in tr.events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('\n');
        out.push_str(&e.json);
    }
    out.push_str("\n],\"displayTimeUnit\":\"ns\",\"otherData\":{\"title\":\"");
    out.push_str(&escape(title));
    out.push_str("\",\"dropped_events\":");
    out.push_str(&log.dropped.to_string());
    out.push_str(",\"timestamps\":\"simulation cycles\"}}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use warped_power::PowerParams;
    use warped_sim::probe::{Recorder, RecorderConfig};
    use warped_sim::trace::{CycleObserver, CycleSample};
    use warped_sim::{DomainId, NUM_DOMAINS};

    fn demo_log() -> TelemetryLog {
        let rec = Recorder::new(RecorderConfig {
            capacity: 1024,
            epoch_len: 100,
        });
        // Baseline sample, one busy burst, then a full gating episode on
        // INT0 plus scheduler/tuner/clock events.
        let mut busy = [false; NUM_DOMAINS];
        busy[0] = true;
        rec.observe_sample(&CycleSample {
            cycle: 0,
            busy,
            powered: [true; NUM_DOMAINS],
            issued: 1,
            active_warps: 8,
        });
        rec.observe_sample(&CycleSample {
            cycle: 1,
            busy: [false; NUM_DOMAINS],
            powered: [true; NUM_DOMAINS],
            issued: 0,
            active_warps: 8,
        });
        rec.record(
            1,
            Event::IdleDetect {
                domain: DomainId::INT0,
            },
        );
        rec.record(
            6,
            Event::Gate {
                domain: DomainId::INT0,
            },
        );
        rec.record(
            20,
            Event::BlackoutHold {
                domain: DomainId::INT0,
            },
        );
        rec.record(
            21,
            Event::Wakeup {
                domain: DomainId::INT0,
                gated: 15,
                critical: false,
                premature: false,
            },
        );
        rec.record(
            24,
            Event::WakeComplete {
                domain: DomainId::INT0,
            },
        );
        rec.record(30, Event::PriorityFlip { high: UnitType::Fp });
        rec.record(
            99,
            Event::TunerEpoch {
                unit: UnitType::Int,
                critical_wakeups: 2,
                window: 6,
            },
        );
        rec.record(40, Event::FastForward { cycles: 10 });
        rec.take()
    }

    #[test]
    fn render_is_deterministic() {
        let log = demo_log();
        let a = render(&log, DomainLayout::fermi(), "demo");
        let b = render(&log, DomainLayout::fermi(), "demo");
        assert_eq!(a, b);
    }

    #[test]
    fn render_contains_all_track_kinds() {
        let log = demo_log();
        let json = render(&log, DomainLayout::fermi(), "demo");
        for needle in [
            "\"execution units\"",
            "\"scheduler\"",
            "\"gating\"",
            "\"INT0\"",
            "\"LDST\"",
            "\"busy\"",
            "\"idle-detect\"",
            "\"gated\"",
            "\"waking\"",
            "\"FP\"", // priority lane after the flip
            "\"window INT\"",
            "\"fast-forward\"",
            "\"issued per epoch\"",
        ] {
            assert!(json.contains(needle), "missing {needle} in:\n{json}");
        }
    }

    #[test]
    fn gated_slice_carries_hold_and_classification_args() {
        let log = demo_log();
        let json = render(&log, DomainLayout::fermi(), "demo");
        assert!(json.contains("\"gated\":15,\"holds\":1,\"critical\":false,\"premature\":false"));
    }

    #[test]
    fn timestamps_are_monotone_per_track() {
        let log = demo_log();
        let json = render(&log, DomainLayout::fermi(), "demo");
        // Cheap structural check without a JSON parser: per line, pull
        // pid/tid/ts and verify non-decreasing ts per (pid, tid).
        let mut last: std::collections::HashMap<(u64, u64), u64> = Default::default();
        for line in json.lines().filter(|l| l.contains("\"ts\":")) {
            let grab = |key: &str| -> u64 {
                let at = line.find(key).unwrap() + key.len();
                line[at..]
                    .chars()
                    .take_while(char::is_ascii_digit)
                    .collect::<String>()
                    .parse()
                    .unwrap()
            };
            let k = (grab("\"pid\":"), grab("\"tid\":"));
            let ts = grab("\"ts\":");
            assert!(
                *last.get(&k).unwrap_or(&0) <= ts,
                "track {k:?} went backwards"
            );
            last.insert(k, ts);
        }
        assert!(!last.is_empty());
    }

    #[test]
    fn priority_track_renders_the_pre_flip_span() {
        let log = demo_log();
        let json = render(&log, DomainLayout::fermi(), "demo");
        // GATES flips to FP at cycle 30, so INT held priority before.
        assert!(json.contains("\"name\":\"INT\""));
        assert!(json.contains("\"name\":\"FP\""));
    }

    #[test]
    fn empty_log_renders_valid_skeleton() {
        let rec = Recorder::new(RecorderConfig::default());
        let json = render(&rec.take(), DomainLayout::fermi(), "empty");
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"dropped_events\":0"));
        assert!(!json.contains("\"ph\":\"X\""), "no slices without events");
    }

    #[test]
    fn energy_counters_render_when_a_timeline_is_supplied() {
        let rec = Recorder::new(RecorderConfig {
            capacity: 1024,
            epoch_len: 10,
        });
        let mut energy = EnergyTimeline::new(PowerParams::default(), DomainLayout::fermi(), 14, 10);
        for c in 0..40u64 {
            let mut powered = [true; NUM_DOMAINS];
            // Gate one INT cluster from cycle 10 on so the INT savings
            // counter climbs above zero.
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
        let log = rec.take();
        let json = render_with_energy(&log, DomainLayout::fermi(), "demo", Some(&energy));
        for needle in [
            "\"energy\"",
            "\"INT static savings\"",
            "\"FP static savings\"",
            "\"int_savings\"",
            "\"fp_savings\"",
        ] {
            assert!(json.contains(needle), "missing {needle} in:\n{json}");
        }
        // Counter samples land on epoch boundaries with fixed precision.
        assert!(json.contains("\"ph\":\"C\",\"pid\":4"));
        // Without a timeline the energy process never appears.
        let plain = render(&log, DomainLayout::fermi(), "demo");
        assert!(!plain.contains("int_savings"));
        assert!(!plain.contains("\"pid\":4"));
    }

    #[test]
    fn energy_render_is_deterministic() {
        let rec = Recorder::new(RecorderConfig {
            capacity: 256,
            epoch_len: 10,
        });
        let mut energy = EnergyTimeline::new(PowerParams::default(), DomainLayout::fermi(), 14, 10);
        for c in 0..25u64 {
            let s = CycleSample {
                cycle: c,
                busy: [false; NUM_DOMAINS],
                powered: [true; NUM_DOMAINS],
                issued: 0,
                active_warps: 0,
            };
            rec.observe_sample(&s);
            energy.observe(&s);
        }
        let log = rec.take();
        let a = render_with_energy(&log, DomainLayout::fermi(), "x", Some(&energy));
        let b = render_with_energy(&log, DomainLayout::fermi(), "x", Some(&energy));
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "same epoch length")]
    fn mismatched_energy_epoch_length_is_rejected() {
        let rec = Recorder::new(RecorderConfig {
            capacity: 64,
            epoch_len: 10,
        });
        rec.observe_sample(&CycleSample {
            cycle: 0,
            busy: [false; NUM_DOMAINS],
            powered: [true; NUM_DOMAINS],
            issued: 0,
            active_warps: 0,
        });
        let energy = EnergyTimeline::new(PowerParams::default(), DomainLayout::fermi(), 14, 20);
        let _ = render_with_energy(&rec.take(), DomainLayout::fermi(), "bad", Some(&energy));
    }
}
