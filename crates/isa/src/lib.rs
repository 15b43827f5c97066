//! # warped-isa
//!
//! A compact, timing-oriented micro ISA for GPGPU simulation.
//!
//! This crate defines the instruction set understood by the
//! [`warped-sim`](../warped_sim/index.html) cycle-level streaming
//! multiprocessor (SM) simulator. It is *timing only*: instructions carry
//! register operands so that dependencies can be tracked through a
//! scoreboard, but no values are ever computed.
//!
//! The ISA mirrors what the Warped Gates paper (MICRO 2013) needs to
//! observe: every instruction belongs to one of four execution-unit classes
//! ([`UnitType`]) — integer, floating point, special function, and
//! load/store — because the paper's scheduling and power gating mechanisms
//! act on the occupancy of those unit types.
//!
//! ## Quick example
//!
//! ```
//! use warped_isa::{KernelBuilder, UnitType};
//!
//! let kernel = KernelBuilder::new("axpy")
//!     .load_global(1)             // r1 <- mem
//!     .fmul(2, 1, 0)              // r2 <- r1 * r0
//!     .fadd(3, 2, 3)              // r3 <- r2 + r3
//!     .store_global(3)
//!     .build();
//!
//! assert_eq!(kernel.len(), 4);
//! assert_eq!(kernel.instruction(1).unwrap().unit(), UnitType::Fp);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod addr;
mod builder;
pub mod hash;
mod instr;
mod kernel;
mod mix;
mod reg;

pub use addr::AddrGen;
pub use builder::KernelBuilder;
pub use hash::{mix64, ConfigHasher};
pub use instr::{Instruction, MemSpace, Opcode, UnitType, MAX_SRCS};
pub use kernel::{Kernel, KernelCursor, Segment};
pub use mix::InstructionMix;
pub use reg::{Reg, NUM_REGS};
