//! A steppable, cloneable configuration.

use crate::report::ConsensusReport;
use crate::scheduler::Scheduler;
use cbh_model::{
    Action, Memory, ModelError, Op, PackedCache, PackedCtx, PackedState, Process,
    Protocol, Value,
};
use std::fmt;

/// An error raised while executing a protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The underlying memory rejected a step.
    Model {
        /// Offending process.
        pid: usize,
        /// Global step index at which the failure occurred.
        step: u64,
        /// The memory's complaint.
        source: ModelError,
    },
    /// A decided process was scheduled.
    SteppedDecided {
        /// The decided process.
        pid: usize,
    },
    /// A solo run did not decide within its step budget — an
    /// obstruction-freedom violation (or a budget that is too small).
    SoloBudgetExhausted {
        /// The process that failed to decide.
        pid: usize,
        /// The budget that was exhausted.
        budget: u64,
    },
    /// Input vector length differs from the protocol's `n`.
    WrongInputCount {
        /// Expected `n`.
        expected: usize,
        /// Supplied inputs.
        found: usize,
    },
    /// A memory-budget spill to disk failed (disk full, permissions,
    /// short write, or a corrupt run file). Exploration stops cleanly
    /// instead of panicking inside a worker.
    Spill {
        /// Human-readable description of the underlying IO failure.
        detail: String,
    },
    /// The exploration's resident footprint outgrew its `memory_budget`
    /// beyond the evictable slack. Append-only state (the packed intern
    /// tables) cannot be spilled, so when a value-diverse protocol pushes
    /// them past `budget` plus the fixed tolerance the engine stops with
    /// this error instead of silently overrunning the cap.
    Budget {
        /// Resident bytes the exploration needed at the point it gave up.
        needed: usize,
        /// The configured `memory_budget` in bytes.
        budget: usize,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Model { pid, step, source } => {
                write!(f, "process {pid} failed at step {step}: {source}")
            }
            SimError::SteppedDecided { pid } => {
                write!(f, "scheduler stepped decided process {pid}")
            }
            SimError::SoloBudgetExhausted { pid, budget } => write!(
                f,
                "process {pid} did not decide within a solo budget of {budget} steps"
            ),
            SimError::WrongInputCount { expected, found } => {
                write!(f, "protocol expects {expected} inputs, got {found}")
            }
            SimError::Spill { detail } => {
                write!(f, "memory-budget spill failed: {detail}")
            }
            SimError::Budget { needed, budget } => write!(
                f,
                "resident state ({needed} bytes) outgrew the memory budget ({budget} bytes): \
                 intern tables are append-only and cannot be evicted"
            ),
        }
    }
}

impl std::error::Error for SimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SimError::Model { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// What happened when a process was stepped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StepOutcome {
    /// The process performed `op` and absorbed `result`.
    Invoked {
        /// The atomic step taken.
        op: Op,
        /// The value the instruction returned.
        result: Value,
    },
    /// The process had already decided; no step was taken.
    AlreadyDecided(u64),
}

/// One entry of an execution trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Global step index.
    pub step: u64,
    /// Which process moved.
    pub pid: usize,
    /// The step it performed.
    pub op: Op,
    /// The result it received.
    pub result: Value,
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "#{:<4} p{}: {} → {}",
            self.step, self.pid, self.op, self.result
        )
    }
}

/// A full configuration of the system: every process state plus the memory.
///
/// Configurations are ordinary values — clone one to branch an execution, as
/// the indistinguishability arguments in the paper's proofs do, or hash it to
/// memoise a state search.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Machine<P: Process> {
    procs: Vec<P>,
    decided: Vec<Option<u64>>,
    memory: Memory,
    steps: u64,
    proc_steps: Vec<u64>,
}

impl<P: Process> Machine<P> {
    /// Builds the initial configuration of `protocol` on `inputs`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::WrongInputCount`] if `inputs.len() != protocol.n()`.
    pub fn start<Pr>(protocol: &Pr, inputs: &[u64]) -> Result<Self, SimError>
    where
        Pr: Protocol<Proc = P>,
    {
        if inputs.len() != protocol.n() {
            return Err(SimError::WrongInputCount {
                expected: protocol.n(),
                found: inputs.len(),
            });
        }
        let procs = inputs
            .iter()
            .enumerate()
            .map(|(pid, &input)| protocol.spawn(pid, input))
            .collect();
        Ok(Machine {
            procs,
            decided: vec![None; inputs.len()],
            memory: Memory::new(&protocol.memory_spec()),
            steps: 0,
            proc_steps: vec![0; inputs.len()],
        })
    }

    /// Number of processes.
    pub fn n(&self) -> usize {
        self.procs.len()
    }

    /// Total steps taken so far.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Steps taken by process `pid`.
    pub fn steps_of(&self, pid: usize) -> u64 {
        self.proc_steps[pid]
    }

    /// The memory of this configuration.
    pub fn memory(&self) -> &Memory {
        &self.memory
    }

    /// The state of process `pid`.
    pub fn process(&self, pid: usize) -> &P {
        &self.procs[pid]
    }

    /// The decision of `pid`, if it has decided.
    pub fn decision(&self, pid: usize) -> Option<u64> {
        self.decided[pid].or_else(|| self.procs[pid].action().decision())
    }

    /// Pids that have not yet decided.
    pub fn active(&self) -> Vec<usize> {
        self.active_iter().collect()
    }

    /// Iterator over undecided pids, without allocating.
    ///
    /// The frontier explorer visits every configuration once and asks this
    /// question once per visit; the `Vec` that [`Machine::active`] builds is
    /// pure overhead there.
    pub fn active_iter(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.n()).filter(move |&p| self.decision(p).is_none())
    }

    /// Returns `true` once every process has decided.
    pub fn all_decided(&self) -> bool {
        (0..self.n()).all(|p| self.decision(p).is_some())
    }

    /// The action process `pid` is poised to take.
    pub fn action(&self, pid: usize) -> Action {
        self.procs[pid].action()
    }

    /// Executes one step of process `pid`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Model`] if memory rejects the op. A decided process
    /// yields [`StepOutcome::AlreadyDecided`] and takes no step.
    pub fn step(&mut self, pid: usize) -> Result<StepOutcome, SimError> {
        match self.procs[pid].action() {
            Action::Decide(v) => {
                self.decided[pid] = Some(v);
                Ok(StepOutcome::AlreadyDecided(v))
            }
            Action::Invoke(op) => {
                let result = self.memory.apply(&op).map_err(|source| SimError::Model {
                    pid,
                    step: self.steps,
                    source,
                })?;
                self.procs[pid].absorb(result.clone());
                self.steps += 1;
                self.proc_steps[pid] += 1;
                if let Action::Decide(v) = self.procs[pid].action() {
                    self.decided[pid] = Some(v);
                }
                Ok(StepOutcome::Invoked { op, result })
            }
        }
    }

    /// The decision recorded for `pid` by a past step, without consulting the
    /// process's poised action. [`Machine::decision`] is the semantic query;
    /// this accessor exposes exactly the stored state, so a comparison of two
    /// configurations (as the reference oracle makes) sees what a step wrote.
    pub fn recorded_decision(&self, pid: usize) -> Option<u64> {
        self.decided[pid]
    }

    /// Clones this configuration and steps `pid` in the copy — the branching
    /// primitive of the state-space engine.
    ///
    /// Exploration needs one child configuration per active process; with the
    /// inline small-integer words this clone is a few flat `memcpy`s, and the
    /// parent stays borrowed-shared so siblings can branch from it too.
    ///
    /// # Errors
    ///
    /// Propagates [`SimError`] from [`Machine::step`].
    pub fn branch_step(&self, pid: usize) -> Result<Machine<P>, SimError> {
        let mut next = self.clone();
        next.step(pid)?;
        Ok(next)
    }

    /// Stable 128-bit fingerprint of the *semantic* configuration: process
    /// states, decisions and memory. The step counters are deliberately
    /// excluded — they are bookkeeping, not state: two configurations that
    /// differ only in step counts behave identically under every future
    /// schedule, so a state-space search that fingerprints them as equal
    /// explores strictly fewer configurations with the same verdicts.
    ///
    /// Deterministic across runs and platforms (see
    /// [`cbh_model::fingerprint_of`]).
    pub fn fingerprint(&self) -> u128 {
        use std::hash::Hash;
        let mut hasher = cbh_model::Fp128Hasher::new();
        self.procs.hash(&mut hasher);
        self.decided.hash(&mut hasher);
        self.memory.hash(&mut hasher);
        hasher.finish128()
    }

    /// Fingerprint quotiented by process identity: configurations that differ
    /// only by a permutation of (process state, decision) pairs fingerprint
    /// identically.
    ///
    /// This is the one-shot API for the process-symmetry quotient. (The
    /// checker's symmetry reduction computes the same quotient with its own
    /// incrementally-updatable digest, so the two functions agree on *which*
    /// configurations merge, not on digest values.) The quotient is **sound
    /// only for anonymous protocols** — ones whose processes never consult
    /// their pid, like the paper's Section 8 swap protocol — where any
    /// reachable configuration's permutation is reachable by the permuted
    /// schedule. For pid-aware protocols it may merge genuinely distinct
    /// states.
    pub fn fingerprint_symmetric(&self) -> u128 {
        use std::hash::{Hash, Hasher};
        let mut per_process: Vec<u128> = (0..self.n())
            .map(|pid| {
                let mut hasher = cbh_model::Fp128Hasher::new();
                self.procs[pid].hash(&mut hasher);
                self.decided[pid].hash(&mut hasher);
                hasher.finish128()
            })
            .collect();
        per_process.sort_unstable();
        let mut hasher = cbh_model::Fp128Hasher::new();
        for fp in per_process {
            hasher.write_u128(fp);
        }
        self.memory.hash(&mut hasher);
        hasher.finish128()
    }

    /// Executes one step of `pid` and records it into `trace`.
    ///
    /// # Errors
    ///
    /// Propagates [`SimError`] from [`Machine::step`].
    pub fn step_traced(
        &mut self,
        pid: usize,
        trace: &mut Vec<Event>,
    ) -> Result<StepOutcome, SimError> {
        let at = self.steps;
        let outcome = self.step(pid)?;
        if let StepOutcome::Invoked { op, result } = &outcome {
            trace.push(Event {
                step: at,
                pid,
                op: op.clone(),
                result: result.clone(),
            });
        }
        Ok(outcome)
    }

    /// Runs under `scheduler` until everyone decides, the scheduler stops, or
    /// `max_steps` elapse.
    ///
    /// # Errors
    ///
    /// Propagates [`SimError`] from [`Machine::step`].
    pub fn run(&mut self, mut scheduler: impl Scheduler, max_steps: u64) -> Result<(), SimError> {
        for _ in 0..max_steps {
            let active = self.active();
            if active.is_empty() {
                return Ok(());
            }
            let Some(pid) = scheduler.next(&active, self.steps) else {
                return Ok(());
            };
            debug_assert!(active.contains(&pid), "scheduler chose inactive process");
            self.step(pid)?;
        }
        Ok(())
    }

    /// Runs process `pid` solo until it decides or `budget` steps elapse,
    /// returning its decision. Obstruction-freedom promises this decides from
    /// *every* reachable configuration, for a large enough budget.
    ///
    /// # Errors
    ///
    /// Propagates [`SimError`] from [`Machine::step`].
    pub fn run_solo(&mut self, pid: usize, budget: u64) -> Result<Option<u64>, SimError> {
        for _ in 0..budget {
            if let Some(v) = self.decision(pid) {
                self.decided[pid] = Some(v);
                return Ok(Some(v));
            }
            self.step(pid)?;
        }
        Ok(self.decision(pid))
    }

    /// A [`PackedCtx`] matching this machine's memory policy — the execution
    /// context its packed form runs against.
    pub fn packed_ctx(&self) -> PackedCtx<P> {
        PackedCtx::for_memory(&self.memory, self.n())
    }

    /// Packs this configuration into the flat representation the state-space
    /// engine explores. Round-trips through [`Machine::from_packed`]: the
    /// semantic state (process states, recorded decisions, memory, total
    /// step count) is preserved exactly; only the per-process step counters
    /// — bookkeeping outside every fingerprint — are dropped.
    pub fn pack(&self, ctx: &PackedCtx<P>) -> PackedState {
        ctx.pack(&self.procs, &self.decided, &self.memory, self.steps)
    }

    /// Rebuilds a full machine from a packed configuration — the debugging
    /// and counterexample-reconstruction view of the packed engine (solo
    /// probes, replays and reports all run on the unpacked machine).
    ///
    /// Per-process step counters restart at zero; everything semantic,
    /// including [`Machine::fingerprint`], is restored exactly.
    pub fn from_packed(ctx: &PackedCtx<P>, state: &PackedState) -> Machine<P> {
        let (procs, decided, memory, steps) = ctx.unpack(state);
        Machine {
            proc_steps: vec![0; procs.len()],
            procs,
            decided,
            memory,
            steps,
        }
    }

    /// [`Machine::from_packed`] through a worker-local intern cache — the
    /// variant the explorer's solo probes use so repeated reconstructions
    /// skip the shared intern-table locks.
    pub fn from_packed_cached(
        ctx: &PackedCtx<P>,
        cache: &mut PackedCache<P>,
        state: &PackedState,
    ) -> Machine<P> {
        let (procs, decided, memory, steps) = ctx.unpack_cached(cache, state);
        Machine {
            proc_steps: vec![0; procs.len()],
            procs,
            decided,
            memory,
            steps,
        }
    }

    /// Summarises the configuration as a [`ConsensusReport`].
    pub fn report(&self) -> ConsensusReport {
        ConsensusReport {
            decisions: (0..self.n()).map(|p| self.decision(p)).collect(),
            steps: self.steps,
            locations_allocated: self.memory.len(),
            locations_touched: self.memory.touched(),
        }
    }
}

impl<P: Process> fmt::Debug for Machine<P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Machine after {} steps", self.steps)?;
        writeln!(f, "  memory: {:?}", self.memory)?;
        for (pid, p) in self.procs.iter().enumerate() {
            writeln!(
                f,
                "  p{pid}: decided={:?} poised={:?}",
                self.decision(pid),
                p.action()
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::{RoundRobinScheduler, SoloScheduler};
    use cbh_model::{Instruction, InstructionSet, MemorySpec};

    /// Each process fetch-and-adds 1 a fixed number of times, then decides the
    /// final value it saw mod 2.
    #[derive(Debug, Clone, PartialEq, Eq, Hash)]
    struct Adder {
        remaining: u32,
        last: u64,
    }

    impl Process for Adder {
        fn action(&self) -> Action {
            if self.remaining == 0 {
                Action::Decide(self.last % 2)
            } else {
                Action::Invoke(Op::single(0, Instruction::FetchAndIncrement))
            }
        }
        fn absorb(&mut self, result: Value) {
            self.last = result.as_u64().unwrap();
            self.remaining -= 1;
        }
    }

    struct AdderProtocol {
        n: usize,
        rounds: u32,
    }

    impl Protocol for AdderProtocol {
        type Proc = Adder;
        fn name(&self) -> String {
            "adder".into()
        }
        fn n(&self) -> usize {
            self.n
        }
        fn domain(&self) -> u64 {
            2
        }
        fn memory_spec(&self) -> MemorySpec {
            MemorySpec::bounded(InstructionSet::ReadWriteFetchIncrement, 1)
        }
        fn spawn(&self, _pid: usize, _input: u64) -> Adder {
            Adder {
                remaining: self.rounds,
                last: 0,
            }
        }
    }

    #[test]
    fn round_robin_interleaves_and_counts_steps() {
        let p = AdderProtocol { n: 3, rounds: 4 };
        let mut m = Machine::start(&p, &[0, 0, 0]).unwrap();
        m.run(RoundRobinScheduler::new(), 1_000).unwrap();
        assert!(m.all_decided());
        assert_eq!(m.steps(), 12);
        assert_eq!(m.steps_of(0), 4);
        // Total of 12 increments: the last value seen by the last process is 11.
        let word = m.memory().cell(0).unwrap().as_word().unwrap().clone();
        assert_eq!(word, Value::int(12));
    }

    #[test]
    fn solo_run_decides() {
        let p = AdderProtocol { n: 2, rounds: 3 };
        let mut m = Machine::start(&p, &[0, 0]).unwrap();
        assert_eq!(m.run_solo(1, 100).unwrap(), Some(0)); // sees 0,1,2 → 2 % 2
        assert_eq!(m.decision(1), Some(0));
        assert_eq!(m.decision(0), None);
    }

    #[test]
    fn stepping_a_decided_process_is_a_noop() {
        let p = AdderProtocol { n: 2, rounds: 1 };
        let mut m = Machine::start(&p, &[0, 0]).unwrap();
        m.run(SoloScheduler::new(0), 10).unwrap();
        assert_eq!(m.step(0).unwrap(), StepOutcome::AlreadyDecided(0));
        assert_eq!(m.steps(), 1, "no extra step charged");
    }

    #[test]
    fn wrong_input_count_is_rejected() {
        let p = AdderProtocol { n: 2, rounds: 1 };
        assert!(matches!(
            Machine::start(&p, &[0]),
            Err(SimError::WrongInputCount { expected: 2, found: 1 })
        ));
    }

    #[test]
    fn cloning_branches_configurations() {
        let p = AdderProtocol { n: 2, rounds: 2 };
        let mut a = Machine::start(&p, &[0, 0]).unwrap();
        a.step(0).unwrap();
        let mut b = a.clone();
        assert_eq!(a, b);
        a.step(0).unwrap();
        b.step(1).unwrap();
        // Same number of increments ⇒ same memory, different process states.
        assert_eq!(
            a.memory().cell(0).unwrap().as_word(),
            b.memory().cell(0).unwrap().as_word()
        );
        assert_ne!(a, b);
    }

    #[test]
    fn trace_records_ops_and_results() {
        let p = AdderProtocol { n: 1, rounds: 2 };
        let mut m = Machine::start(&p, &[0]).unwrap();
        let mut trace = Vec::new();
        m.step_traced(0, &mut trace).unwrap();
        m.step_traced(0, &mut trace).unwrap();
        assert_eq!(trace.len(), 2);
        assert_eq!(trace[1].result, Value::int(1));
        assert!(trace[0].to_string().contains("p0"));
    }

    /// Forever poised to write 0 over the 0 already there: every step leaves
    /// the semantic configuration untouched and only advances step counters.
    #[derive(Debug, Clone, PartialEq, Eq, Hash)]
    struct Spin;

    impl Process for Spin {
        fn action(&self) -> Action {
            Action::Invoke(Op::single(0, Instruction::write(0)))
        }
        fn absorb(&mut self, _result: Value) {}
    }

    struct SpinProtocol;

    impl Protocol for SpinProtocol {
        type Proc = Spin;
        fn name(&self) -> String {
            "spin".into()
        }
        fn n(&self) -> usize {
            2
        }
        fn domain(&self) -> u64 {
            2
        }
        fn memory_spec(&self) -> MemorySpec {
            MemorySpec::bounded(InstructionSet::ReadWrite, 1)
        }
        fn spawn(&self, _pid: usize, _input: u64) -> Spin {
            Spin
        }
    }

    #[test]
    fn fingerprint_ignores_step_counters() {
        // One no-op write vs two: past the first touch, the only difference
        // is the step counters. The machines are unequal but fingerprint
        // identically, so a state-space search memoising fingerprints visits
        // this configuration once, not once per path length.
        let a = Machine::start(&SpinProtocol, &[0, 0])
            .unwrap()
            .branch_step(0)
            .unwrap();
        let b = a.branch_step(0).unwrap();
        assert_ne!(a, b);
        assert_eq!(a.fingerprint(), b.fingerprint());
        // A semantic change does move the fingerprint.
        let p = AdderProtocol { n: 2, rounds: 2 };
        let base = Machine::start(&p, &[0, 0]).unwrap();
        assert_ne!(
            base.fingerprint(),
            base.branch_step(0).unwrap().fingerprint()
        );
    }

    #[test]
    fn symmetric_fingerprint_quotients_process_permutations() {
        let p = AdderProtocol { n: 2, rounds: 3 };
        let a = Machine::start(&p, &[0, 0]).unwrap();
        // p0 two steps vs p1 two steps: mirrored configurations.
        let left = a.branch_step(0).unwrap().branch_step(0).unwrap();
        let right = a.branch_step(1).unwrap().branch_step(1).unwrap();
        assert_ne!(left.fingerprint(), right.fingerprint());
        assert_eq!(left.fingerprint_symmetric(), right.fingerprint_symmetric());
    }

    #[test]
    fn pack_roundtrips_and_steps_in_lockstep() {
        let p = AdderProtocol { n: 2, rounds: 2 };
        let mut m = Machine::start(&p, &[0, 0]).unwrap();
        m.step(0).unwrap();
        let ctx = m.packed_ctx();
        let mut packed = m.pack(&ctx);
        // Unpack restores the semantic configuration and the step count.
        let back = Machine::from_packed(&ctx, &packed);
        assert_eq!(back.fingerprint(), m.fingerprint());
        assert_eq!(back.steps(), m.steps());
        assert_eq!(back.report(), m.report());
        // Stepping the packed form tracks stepping the machine.
        for pid in [1, 0, 1] {
            ctx.step(&mut packed, pid).unwrap();
            m.step(pid).unwrap();
            let view = Machine::from_packed(&ctx, &packed);
            assert_eq!(view.fingerprint(), m.fingerprint(), "after pid {pid}");
            assert_eq!(
                (0..2).map(|p| view.decision(p)).collect::<Vec<_>>(),
                (0..2).map(|p| m.decision(p)).collect::<Vec<_>>(),
            );
        }
    }

    #[test]
    fn branch_step_leaves_the_parent_untouched() {
        let p = AdderProtocol { n: 2, rounds: 2 };
        let parent = Machine::start(&p, &[0, 0]).unwrap();
        let snapshot = parent.clone();
        let child = parent.branch_step(1).unwrap();
        assert_eq!(parent, snapshot);
        assert_eq!(child.steps(), 1);
        assert_eq!(parent.active(), parent.active_iter().collect::<Vec<_>>());
    }

    #[test]
    fn model_errors_carry_context() {
        #[derive(Debug, Clone, PartialEq, Eq, Hash)]
        struct Bad;
        impl Process for Bad {
            fn action(&self) -> Action {
                Action::Invoke(Op::read(0)) // read() not in {compare-and-swap}
            }
            fn absorb(&mut self, _r: Value) {}
        }
        struct BadProtocol;
        impl Protocol for BadProtocol {
            type Proc = Bad;
            fn name(&self) -> String {
                "bad".into()
            }
            fn n(&self) -> usize {
                1
            }
            fn domain(&self) -> u64 {
                1
            }
            fn memory_spec(&self) -> MemorySpec {
                MemorySpec::bounded(InstructionSet::Cas, 1)
            }
            fn spawn(&self, _pid: usize, _input: u64) -> Bad {
                Bad
            }
        }
        let mut m = Machine::start(&BadProtocol, &[0]).unwrap();
        let err = m.step(0).unwrap_err();
        assert!(matches!(err, SimError::Model { pid: 0, .. }));
        assert!(err.to_string().contains("not in the uniform set"));
    }
}
