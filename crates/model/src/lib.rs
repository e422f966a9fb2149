//! The shared-memory model of the space-hierarchy paper, made executable.
//!
//! Section 2 of *"A Complexity-Based Hierarchy for Multiprocessor
//! Synchronization"* (PODC 2016) defines an asynchronous system of `n ≥ 2`
//! processes applying deterministic synchronization **instructions** to a set of
//! identical **memory locations**, where every location supports the *same* set
//! of instructions (the *uniformity requirement*). Each step is one atomic
//! instruction on one location, chosen by an adversarial scheduler.
//!
//! This crate is that model:
//!
//! - [`Value`] — what a memory word holds (unbounded integers, `⊥`, sequences);
//! - [`Instruction`] / [`Op`] — every instruction the paper uses, plus atomic
//!   multi-location assignment (Section 7);
//! - [`InstructionSet`] — the uniform instruction sets of Table 1, enforced by
//!   the memory;
//! - [`CellState`] / [`Memory`] — per-location semantics (plain words,
//!   `ℓ`-buffers, max-register ordering);
//! - [`Process`] / [`Protocol`] — deterministic processes as cloneable state
//!   machines, so schedulers, adversaries and model checkers can replay and
//!   branch configurations;
//! - [`fingerprint_of`] / [`Fp128Hasher`] — stable 128-bit fingerprints of
//!   values, cells, memories and process states, the currency of the
//!   state-space engine's seen-sets;
//! - [`Schedule`] — pid sequences with a stable wire format, so
//!   counterexamples and shrunken fuzzer reproducers replay across versions.
//!
//! # Examples
//!
//! Solve 2-process wait-free binary consensus with one location supporting
//! `{fetch-and-add(2), test-and-set()}` — the paper's introductory example:
//!
//! ```
//! use cbh_model::{Instruction, InstructionSet, Memory, MemorySpec, Op, Value};
//!
//! let spec = MemorySpec::bounded(InstructionSet::FaaTas, 1);
//! let mut mem = Memory::new(&spec);
//! // Process with input 0 performs fetch-and-add(2):
//! let r0 = mem.apply(&Op::single(0, Instruction::fetch_and_add(2))).unwrap();
//! // Process with input 1 performs test-and-set():
//! let r1 = mem.apply(&Op::single(0, Instruction::TestAndSet)).unwrap();
//! assert_eq!(r0, Value::int(0)); // even and not 0-from-TAS => decides 0
//! assert_eq!(r1, Value::int(2)); // even => decides 0: agreement
//! ```

mod cell;
mod error;
mod fingerprint;
mod instruction;
mod iset;
mod memory;
pub mod packed;
mod process;
mod schedule;
pub mod trace;
mod value;

pub use cell::CellState;
pub use error::ModelError;
pub use fingerprint::{fingerprint_of, Fp128Hasher};
pub use instruction::{Instruction, InstructionKind, Op};
pub use iset::InstructionSet;
pub use memory::{Locations, Memory, MemorySpec};
pub use packed::delta::{
    apply_delta, apply_delta_into, decode_flat, encode_delta, encode_flat, DeltaError,
};
pub use packed::frame::{
    decode_frame, decode_frame_exact, encode_frame, FrameError, FrameReader, FRAME_MAGIC,
    FRAME_VERSION, MAX_FRAME_PAYLOAD,
};
pub use packed::{PackedCache, PackedCtx, PackedState, PackedStepOutcome, PackedUndo};
pub use process::{Action, ConsensusInput, Process, Protocol};
pub use schedule::{Schedule, ScheduleParseError};
pub use trace::{CompactTrace, OpKind, TraceError, TraceFrame, TRACE_MAGIC, TRACE_VERSION};
pub use value::Value;

/// Result alias for fallible model operations.
pub type Result<T> = std::result::Result<T, ModelError>;
