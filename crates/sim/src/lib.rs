//! # warped-sim
//!
//! A cycle-level timing simulator for a Fermi (GTX480)-like GPGPU
//! streaming multiprocessor, built as the substrate for reproducing
//! *Warped Gates: Gating Aware Scheduling and Power Gating for GPGPUs*
//! (MICRO 2013).
//!
//! The simulator models, per SM:
//!
//! * up to 48 resident warps with per-warp instruction buffers,
//! * a scoreboard tracking in-flight register writes (separately for
//!   short-latency ALU producers and long-latency global loads),
//! * the two-level warp scheduler's **pending / active** warp sets
//!   (warps whose next instruction waits on a long-latency load are
//!   parked in the pending set),
//! * a dual-issue front end (two schedulers × one instruction per cycle),
//! * execution resources: two SP clusters (each with independently
//!   power-gateable INT and FP pipelines of 16 lanes), four SFUs and
//!   sixteen LD/ST units,
//! * a latency-based memory subsystem with an MSHR-style cap on
//!   outstanding requests,
//! * per-execution-unit busy/idle traces and idle-period histograms —
//!   the raw material of every figure in the paper.
//!
//! Scheduling policy and power gating policy are both pluggable:
//! [`WarpScheduler`] implementations decide *which* ready warps issue
//! (baselines [`LrrScheduler`] and [`TwoLevelScheduler`] live here; the
//! paper's GATES scheduler lives in the `warped-gates` crate), and
//! [`PowerGating`] implementations decide when execution-unit clusters
//! sleep and wake (the `warped-gating` crate provides the framework and
//! the conventional-power-gating baseline).
//!
//! ## Quick example
//!
//! ```
//! use warped_isa::KernelBuilder;
//! use warped_sim::{AlwaysOn, LaunchConfig, Sm, SmConfig, TwoLevelScheduler};
//!
//! let kernel = KernelBuilder::new("tiny")
//!     .begin_loop(8)
//!     .iadd(1, 0, 0)
//!     .fadd(2, 1, 2)
//!     .end_loop()
//!     .build();
//! let launch = LaunchConfig::new(kernel, 16);
//! let mut sm = Sm::new(
//!     SmConfig::gtx480(),
//!     launch,
//!     Box::new(TwoLevelScheduler::new()),
//!     Box::new(AlwaysOn::new()),
//! );
//! let outcome = sm.run();
//! assert!(outcome.stats.cycles > 0);
//! assert!(!outcome.timed_out);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod decode;
mod domain;
mod exec;
mod gate_iface;
mod gpu;
mod mem;
pub mod parallel;
pub mod probe;
pub mod sanitize;
mod sched;
mod scoreboard;
mod sm;
pub mod stats;
pub mod summary;
pub mod timeq;
pub mod trace;
mod warp;

pub use config::{HierarchyConfig, MemoryConfig, SmConfig};
pub use decode::{DecodedInstr, DecodedProgram};
pub use domain::{
    DomainId, DomainLayout, DomainMask, MAX_SP_CLUSTERS, NUM_DOMAINS, NUM_SP_CLUSTERS,
};
pub use gate_iface::{
    AlwaysOn, CycleObservation, DomainGatingStats, GateTransition, GatingReport, PowerGating,
};
pub use gpu::{Gpu, GpuOutcome, LaunchConfig};
pub use mem::{LoadIssue, MemorySubsystem};
pub use probe::{Event, Recorder, RecorderConfig, Stamped, TelemetryChunk, TelemetryLog};
pub use sanitize::{GatingInvariants, Sanitizer};
pub use sched::{
    round_robin, Candidate, GtoScheduler, IssueCtx, LrrScheduler, RoundRobin, TwoLevelScheduler,
    WarpScheduler,
};
pub use scoreboard::Scoreboard;
pub use sm::{Sm, SmOutcome};
pub use stats::{IdleHistogram, MemoryStats, SimStats, UnitStats};
pub use warp::{WarpId, WarpSlot};
