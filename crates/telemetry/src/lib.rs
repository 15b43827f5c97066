//! # warped-telemetry
//!
//! Structured observability for the *Warped Gates* reproduction: the
//! exporter-and-views layer over the simulator's telemetry probe
//! ([`warped_sim::probe`]).
//!
//! The division of labour: the probe (the [`Recorder`] ring buffer and
//! its [`Event`] vocabulary) lives inside `warped-sim` so the gating
//! controller and scheduler can stamp events with zero new dependency
//! edges; everything that *consumes* a recording lives here:
//!
//! * [`json`] — the workspace's one JSON string escaper and bounded
//!   value parser, shared by every crate that writes or reads JSON.
//! * [`perfetto`] — renders a [`TelemetryLog`] as a deterministic
//!   Perfetto/Chrome trace-event JSON file: one track per
//!   execution-unit domain with busy activity and gating state lanes
//!   (idle-detect / gated / waking), a scheduler track with GATES
//!   priority flips, tuner-window and issue counters, and fast-forward
//!   clock spans. Timestamps are simulation cycles, never wall-clock.
//! * [`rollup`] — per-epoch metrics rows (gating events, wasted gates,
//!   critical wakeups, fast-forward coverage) merged with
//!   [`EnergyTimeline`](warped_power::EnergyTimeline) epoch energy,
//!   streamed as JSONL.
//! * [`waveform`] — the ASCII [`UtilizationTrace`] view (an observer
//!   recording a bounded sample window) plus replay helpers that
//!   reconstruct the same waveforms from a recorded event log.
//!
//! Arm telemetry by putting a [`Recorder`] on
//! [`SmConfig::telemetry`](warped_sim::SmConfig); run the simulation;
//! then [`Recorder::take`] the log and hand it to an exporter:
//!
//! ```
//! use warped_isa::KernelBuilder;
//! use warped_sim::{AlwaysOn, LaunchConfig, Sm, SmConfig, TwoLevelScheduler};
//! use warped_telemetry::{perfetto, Recorder, RecorderConfig};
//!
//! let kernel = KernelBuilder::new("tiny")
//!     .begin_loop(4)
//!     .iadd(1, 0, 0)
//!     .end_loop()
//!     .build();
//! let rec = Recorder::new(RecorderConfig::default());
//! let mut cfg = SmConfig::small_for_tests();
//! cfg.telemetry = Some(rec.clone());
//! let sm = Sm::new(
//!     cfg,
//!     LaunchConfig::new(kernel, 8),
//!     Box::new(TwoLevelScheduler::new()),
//!     Box::new(AlwaysOn::new()),
//! );
//! let outcome = sm.run();
//! let log = rec.take();
//! let json = perfetto::render(&log, outcome.stats.layout, "tiny × Baseline");
//! assert!(json.starts_with("{\"traceEvents\":["));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;
pub mod perfetto;
pub mod rollup;
pub mod waveform;

pub use rollup::RollupRow;
pub use warped_sim::probe::{
    Baseline, EpochCounters, Event, Recorder, RecorderConfig, Stamped, TelemetryChunk, TelemetryLog,
};
pub use waveform::UtilizationTrace;
