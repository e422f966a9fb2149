//! Deterministic execution of protocols under adversarial schedulers.
//!
//! The paper's computation model (Section 2) puts *scheduling* in the hands of
//! an adversary: each step, the adversary picks an undecided process, which
//! atomically applies its poised instruction. This crate provides:
//!
//! - [`Machine`] — a configuration (process states + memory) that can be
//!   stepped, cloned and branched;
//! - [`Scheduler`] implementations: [`SoloScheduler`], [`RoundRobinScheduler`],
//!   [`RandomScheduler`], [`ScriptedScheduler`] and the burst-based
//!   [`ObstructionScheduler`];
//! - [`run_consensus`] / [`adversarial_then_solo`] — harnesses that execute a
//!   [`cbh_model::Protocol`] and produce a checkable
//!   [`ConsensusReport`];
//! - obstruction-freedom checking: from any reachable configuration, a solo
//!   run must decide ([`Machine::run_solo`]).
//!
//! # Examples
//!
//! ```
//! use cbh_model::{Action, Instruction, MemorySpec, InstructionSet, Op, Process, Protocol, Value};
//!
//! // A trivial "protocol": every process reads once and decides its input.
//! #[derive(Debug, Clone, PartialEq, Eq, Hash)]
//! struct ReadOnce { input: u64, done: bool }
//! impl Process for ReadOnce {
//!     fn action(&self) -> Action {
//!         if self.done { Action::Decide(self.input) } else { Action::Invoke(Op::read(0)) }
//!     }
//!     fn absorb(&mut self, _r: Value) { self.done = true; }
//! }
//! struct Demo;
//! impl Protocol for Demo {
//!     type Proc = ReadOnce;
//!     fn name(&self) -> String { "demo".into() }
//!     fn n(&self) -> usize { 2 }
//!     fn domain(&self) -> u64 { 2 }
//!     fn memory_spec(&self) -> MemorySpec { MemorySpec::bounded(InstructionSet::ReadWrite, 1) }
//!     fn spawn(&self, _pid: usize, input: u64) -> ReadOnce { ReadOnce { input, done: false } }
//! }
//!
//! let report = cbh_sim::run_consensus(&Demo, &[1, 1], cbh_sim::RoundRobinScheduler::new(), 100)
//!     .unwrap();
//! assert_eq!(report.decisions, vec![Some(1), Some(1)]);
//! ```

mod machine;
mod report;
mod scheduler;

pub use machine::{Event, Machine, SimError, StepOutcome};
pub use report::{ConsensusReport, Violation};
pub use scheduler::{
    ObstructionScheduler, RandomScheduler, RoundRobinScheduler, Scheduler, ScriptedScheduler,
    SoloScheduler,
};

// Schedules are produced here (by runs) and consumed here (by replays), so
// re-export the wire type alongside the schedulers that speak it. The packed
// configuration types are re-exported for the same reason: machines pack
// into and unpack from them.
pub use cbh_model::{PackedCtx, PackedState, Schedule};

use cbh_model::Protocol;

/// Runs a protocol with all `n` processes under `scheduler` for at most
/// `adversarial_steps` steps, then lets each undecided process finish solo
/// (which obstruction-freedom guarantees terminates).
///
/// This is the standard correctness harness: the adversarial prefix explores
/// interleavings, the solo suffix guarantees every process decides, and the
/// returned [`ConsensusReport`] can be checked for agreement and validity.
///
/// # Errors
///
/// Returns [`SimError`] if the protocol steps outside the model (uniformity
/// violation, type mismatch) or a solo run exceeds `solo_budget` steps.
pub fn adversarial_then_solo<P: Protocol>(
    protocol: &P,
    inputs: &[u64],
    scheduler: impl Scheduler,
    adversarial_steps: u64,
    solo_budget: u64,
) -> Result<ConsensusReport, SimError> {
    let mut machine = Machine::start(protocol, inputs)?;
    machine.run(scheduler, adversarial_steps)?;
    for pid in 0..machine.n() {
        if machine.decision(pid).is_none() {
            machine.run_solo(pid, solo_budget)?;
            if machine.decision(pid).is_none() {
                return Err(SimError::SoloBudgetExhausted {
                    pid,
                    budget: solo_budget,
                });
            }
        }
    }
    Ok(machine.report())
}

/// Runs a protocol under `scheduler` until every process decides or
/// `max_steps` is hit; undecided processes are then finished solo with the
/// same budget.
///
/// # Errors
///
/// Propagates [`SimError`] like [`adversarial_then_solo`].
pub fn run_consensus<P: Protocol>(
    protocol: &P,
    inputs: &[u64],
    scheduler: impl Scheduler,
    max_steps: u64,
) -> Result<ConsensusReport, SimError> {
    adversarial_then_solo(protocol, inputs, scheduler, max_steps, max_steps)
}

/// Replays `schedule` verbatim from the initial configuration and reports the
/// configuration it reaches — no solo suffix, no extra steps.
///
/// This is the replay half of the model checker's counterexamples and the
/// conformance fuzzer's shrunken reproducers: the checker guarantees every
/// scheduled pid is undecided when its turn comes, so the replay executes the
/// schedule step for step and the returned report shows the exact decision
/// vector (including poised decisions) at the violating configuration.
///
/// # Errors
///
/// Propagates [`SimError`] if the protocol steps outside the model.
pub fn replay_schedule<P: Protocol>(
    protocol: &P,
    inputs: &[u64],
    schedule: &Schedule,
) -> Result<ConsensusReport, SimError> {
    let mut machine = Machine::start(protocol, inputs)?;
    machine.run(
        ScriptedScheduler::from_schedule(schedule),
        schedule.len() as u64,
    )?;
    Ok(machine.report())
}
