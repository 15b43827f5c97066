//! # warped-gates-repro
//!
//! Facade crate for the reproduction of *Warped Gates: Gating Aware
//! Scheduling and Power Gating for GPGPUs* (MICRO 2013).
//!
//! This crate re-exports every workspace crate under one roof so that the
//! examples and integration tests in the repository root can say
//! `use warped_gates_repro::prelude::*` and get the whole system:
//!
//! * [`isa`] — the timing-oriented micro ISA and kernel builder,
//! * [`mem`] — the deterministic L1/L2 + MSHR cache hierarchy,
//! * [`sim`] — the cycle-level GTX480-like SM simulator,
//! * [`gating`] — the power-gating framework and conventional baseline,
//! * [`power`] — GPUWattch-style energy/area models,
//! * [`workloads`] — the 18 synthetic benchmark stand-ins,
//! * [`gates`] — the paper's contribution: GATES, Blackout, adaptive
//!   idle detect, and the experiment runner,
//! * [`telemetry`] — structured observability: the event-recorder views,
//!   Perfetto trace export, and per-epoch metrics rollups.
//!
//! See the repository's `README.md` for a guided tour and
//! `EXPERIMENTS.md` for the paper-vs-measured record of every figure.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use warped_gates as gates;
pub use warped_gating as gating;
pub use warped_isa as isa;
pub use warped_mem as mem;
pub use warped_power as power;
pub use warped_sim as sim;
pub use warped_telemetry as telemetry;
pub use warped_workloads as workloads;

/// One-stop imports for examples and tests.
pub mod prelude {
    pub use warped_gates::*;
    pub use warped_isa::{
        Instruction, InstructionMix, Kernel, KernelBuilder, Opcode, Reg, UnitType,
    };
    pub use warped_sim::{
        AlwaysOn, DomainId, LaunchConfig, PowerGating, Sm, SmConfig, SmOutcome, TwoLevelScheduler,
        WarpScheduler,
    };
    pub use warped_workloads::{Benchmark, BenchmarkSpec};
}
