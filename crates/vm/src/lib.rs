//! # openarc-vm
//!
//! Bytecode compiler and wave interpreter for MiniC.
//!
//! The same bytecode executes in two worlds, on one engine
//! ([`interp::Wave`]):
//!
//! * **Host**: a one-lane wave running the translated host program against
//!   host memory (plus runtime hooks, in `openarc-core`).
//! * **Device**: waves of many lanes — one per simulated GPU thread —
//!   advanced in lockstep rounds by `openarc-gpusim` against device
//!   memory.
//!
//! Lockstep rounds (one instruction per live lane per
//! [`interp::Wave::round`], in thread-id order) are the key property:
//! they interleave threads deterministically, so the data races the
//! paper's kernel-verification tool must catch actually occur and are
//! reproducible.

#![warn(missing_docs)]

pub mod binio;
pub mod bytecode;
pub mod compile;
pub mod error;
pub mod interp;
pub mod mem;
pub mod value;

pub use bytecode::{Chunk, GlobalInfo, Instr, Intrinsic, Module};
pub use compile::{compile, GLOBALS_INIT, HOST_OP};
pub use error::VmError;
pub use interp::{call_function, BasicEnv, Env, Wave};
pub use mem::{BufData, Buffer, MemSpace};
pub use value::{Handle, Value};
