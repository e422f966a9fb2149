//! Bounded exhaustive model checking over schedules.
//!
//! For small numbers of processes and bounded horizons, *every* interleaving
//! of a protocol can be explored. The checker walks the configuration graph
//! of a [`Protocol`] breadth-first with an iterative frontier, memoises
//! configurations by their stable 128-bit [fingerprint](Machine::fingerprint)
//! (16 bytes per visited state instead of a deep-cloned `Machine`), and
//! reports:
//!
//! - agreement/validity violations, with a shortest-in-steps schedule (pid
//!   sequence) reconstructed from parent links;
//! - valency information ("can value `v` still be decided from here?") — the
//!   `can decide` relation the paper's covering arguments are built on;
//! - obstruction-freedom failures (a reachable configuration from which some
//!   process's solo run does not decide).
//!
//! The engine is exposed twice: [`explore`] is the plain sequential entry
//! point, and [`Explorer`] adds worker-thread fan-out and an optional
//! process-symmetry reduction. Both produce **identical** outcomes — every
//! order-sensitive decision is made by a sequential committer consuming
//! results in admission order, so the verdict and any counterexample
//! schedule are bit-for-bit the same at any worker count.
//!
//! Since the packed-state refactor, exploration runs on the flat
//! [`cbh_model::PackedState`] representation (see
//! [`crate::packed_engine`]'s module docs for the worker-pool
//! architecture); [`Machine`]s appear only at the edges — the root, solo
//! probes, and counterexample reconstruction. The clone-based
//! [`crate::reference`] BFS remains the conformance oracle's ground truth,
//! and every engine — this one and the sharded [`crate::dist`] explorer —
//! must agree with it bit for bit.

use crate::fpset::FpHashSet;
use crate::packed_engine;
use crate::packed_engine::CheckpointCfg;
use crate::snapshot::{Snapshot, SnapshotError};
use cbh_model::{Process, Protocol};
use cbh_sim::{Machine, SimError};
use std::path::PathBuf;

/// What the exhaustive exploration found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExploreOutcome {
    /// No violation within the horizon; `complete` tells whether the whole
    /// reachable space was covered (no depth/size cutoff was hit).
    Clean {
        /// Configurations visited.
        configs: usize,
        /// `true` if exploration exhausted all reachable configurations.
        complete: bool,
    },
    /// Two processes decided differently; the schedule (pid sequence) leads
    /// there from the initial configuration.
    AgreementViolation {
        /// Conflicting decisions.
        decisions: (u64, u64),
        /// The offending schedule.
        schedule: Vec<usize>,
    },
    /// A process decided a value nobody proposed.
    ValidityViolation {
        /// The invalid decision.
        decided: u64,
        /// The offending schedule.
        schedule: Vec<usize>,
    },
    /// A reachable configuration from which `pid`'s solo run failed to decide
    /// within the solo budget.
    ObstructionFailure {
        /// The starved process.
        pid: usize,
        /// Schedule reaching the bad configuration.
        schedule: Vec<usize>,
    },
}

impl ExploreOutcome {
    /// `true` if no violation was found.
    pub fn is_clean(&self) -> bool {
        matches!(self, ExploreOutcome::Clean { .. })
    }

    /// The witness schedule, when the outcome carries one (violations and
    /// obstruction failures do; clean outcomes don't).
    pub fn schedule(&self) -> Option<&[usize]> {
        match self {
            ExploreOutcome::Clean { .. } => None,
            ExploreOutcome::AgreementViolation { schedule, .. }
            | ExploreOutcome::ValidityViolation { schedule, .. }
            | ExploreOutcome::ObstructionFailure { schedule, .. } => Some(schedule),
        }
    }
}

/// Comparable exploration counters, reported for **every** outcome (the
/// `configs` inside [`ExploreOutcome::Clean`] exists only on clean runs).
///
/// The first three fields are the numbers the conformance oracle diffs
/// across independent engines: two backends exploring the same protocol
/// under the same limits must agree on them bit for bit — at any worker
/// count and under any [`ExploreLimits::memory_budget`].
///
/// The remaining fields are **resource telemetry**: they describe how this
/// engine happened to hold the frontier and the seen set (RAM vs spill
/// runs), not the explored space, so they vary across engines, budgets and
/// worker interleavings. They are deliberately **excluded from
/// `PartialEq`/`Eq`** — that is what lets a budgeted run compare
/// bit-identical to an unbounded one while still reporting that it spilled.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExploreStats {
    /// Distinct configurations fingerprinted (including the root, and
    /// including a final over-cap configuration if `max_configs` was hit).
    pub configs: usize,
    /// Largest breadth-first layer held live at once.
    pub frontier_peak: usize,
    /// Breadth-first layers fully expanded before the run ended.
    pub depth_reached: usize,
    /// Encoded bytes the frontier stores and the tiered fingerprint set
    /// wrote to the spill arena (telemetry; `0` on unbounded runs and for
    /// the clone-based reference).
    pub bytes_spilled: u64,
    /// High-water mark of tracked resident bytes — the admission queue, a
    /// pool's dealt window, seen set and intern tables (telemetry; the figure to
    /// derive a [`ExploreLimits::memory_budget`] from).
    pub peak_resident_bytes: usize,
    /// Resident bytes of the seen set (the exact hash table's real size, or
    /// the tiered store's hot table + Bloom + run indexes) when the run ended
    /// (telemetry).
    pub seen_resident_bytes: usize,
    /// Resident bytes of the shared intern tables when the run ended
    /// (telemetry; `0` for the clone-based engines, which intern nothing).
    pub intern_resident_bytes: usize,
    /// Live bytes of evicted fingerprint runs on disk when the run ended
    /// (telemetry; non-zero only when a budget forced the tiered store to
    /// evict).
    pub fpset_disk_bytes: u64,
    /// Total bytes written by checkpoint snapshots during the run
    /// (telemetry; `0` unless checkpointing was enabled).
    pub checkpoint_bytes: u64,
    /// Cumulative wall-clock milliseconds spent writing checkpoint
    /// snapshots (telemetry; the committer is paused while writing, so this
    /// is the run-time cost of the chosen [`ExploreLimits::checkpoint_every`]
    /// cadence).
    pub checkpoint_ms: u64,
    /// Wire frames the distributed coordinator sent plus received
    /// (telemetry; `0` for every single-process engine).
    pub frames_exchanged: u64,
    /// Total encoded bytes of those frames, headers and CRC trailers
    /// included (telemetry; `0` for every single-process engine).
    pub frame_bytes: u64,
}

/// Semantic counters only: the byte-telemetry fields are engine-strategy
/// details and never part of backend conformance.
impl PartialEq for ExploreStats {
    fn eq(&self, other: &Self) -> bool {
        self.configs == other.configs
            && self.frontier_peak == other.frontier_peak
            && self.depth_reached == other.depth_reached
    }
}

impl Eq for ExploreStats {}

/// Exploration limits.
///
/// # Picking limits
///
/// The engine visits each *semantically distinct* configuration once (step
/// counters are excluded from the fingerprint), so the costs to budget for
/// are:
///
/// - **`max_configs`** bounds memory: 16 bytes of fingerprint per visited
///   configuration, plus one packed state per *frontier* entry (admitted
///   but not yet expanded, not the whole history). The default
///   of one million configurations is a few hundred megabytes in the worst
///   frontier-heavy case and explores in seconds.
/// - **`depth`** bounds the schedule length. Terminating protocols stop
///   growing the frontier on their own — a generous depth costs nothing
///   extra once the space is exhausted (`complete: true`). For protocols
///   that loop under contention (max-register rounds, swap laps), reachable
///   states grow with depth, so `depth` is the knob that actually decides
///   runtime; raise it until `max_configs` becomes the binding cutoff.
/// - **`solo_check_budget`** multiplies the per-configuration cost by
///   `n × budget` in the worst case; enable it on small horizons only.
/// - **`memory_budget`** caps the bytes the engines keep resident: the
///   frontier (queued configurations awaiting expansion or in-order
///   commit), the **seen set** (admitted fingerprints route through the
///   tiered store in [`crate::fpset`], which evicts cold fingerprints to
///   sorted on-disk runs once the budget is hit) and the shared intern
///   tables are all charged to one tracker. Past the budget, frontier
///   entries are delta-compressed and spilled to a temp-file arena and
///   streamed back in admission order, and cold fingerprints move to runs
///   probed through a Bloom front — outcomes and the semantic stats are
///   bit-identical at any budget, only wall-clock and
///   `ExploreStats::bytes_spilled` change. The default `None` never spills.
///   To pick a value: run once unbounded, read
///   [`ExploreStats::peak_resident_bytes`], and budget the fraction of it
///   you can afford to keep in RAM (the stress suite runs at 10%); the
///   budget is near-hard — tracked resident bytes stay within it plus a
///   small fixed slack (in-flight double-buffered spill writes, one
///   streamed-back run, bounded merge buffers).
#[derive(Debug, Clone, Copy)]
pub struct ExploreLimits {
    /// Maximum schedule length explored.
    pub depth: usize,
    /// Maximum distinct configurations visited before giving up.
    pub max_configs: usize,
    /// If set, every visited configuration is also checked for solo
    /// termination within this many steps (expensive).
    pub solo_check_budget: Option<u64>,
    /// If set, frontier bytes beyond this budget spill to disk (see the
    /// struct docs for how to size it).
    pub memory_budget: Option<usize>,
    /// Admissions between checkpoint snapshots, for runs with a checkpoint
    /// path configured ([`Explorer::checkpoint_to`]).
    /// `None` uses [`DEFAULT_CHECKPOINT_EVERY`]. Without a checkpoint path
    /// the cadence is inert — setting it alone never writes anything.
    ///
    /// # Picking a cadence
    ///
    /// A snapshot costs one atomic file write of roughly
    /// `17 × configs-so-far` bytes (16-byte fingerprint plus ~1–3 link bytes
    /// per admitted configuration) plus an fsync, taken while the committer
    /// is paused — so the total checkpoint overhead grows quadratically in
    /// the number of checkpoints taken over a run. The default (65 536
    /// admissions) keeps overhead under a few percent on million-config
    /// explorations while bounding lost work to under a second of re-run;
    /// lower it for expensive-per-step protocols (solo checks enabled),
    /// raise it for raw-throughput deep horizons. Snapshots land only at
    /// admission boundaries, so the cadence never affects outcomes — a
    /// resumed run is bit-identical to an uninterrupted one at any value.
    pub checkpoint_every: Option<u64>,
}

impl Default for ExploreLimits {
    fn default() -> Self {
        // Sized for the fingerprint-based frontier engine: the original
        // recursive checker defaulted to depth 40 / 200k configurations of
        // deep-cloned machines; fingerprints and inline integer words push
        // the same memory budget past a million configurations. Frontier
        // memory is unbounded by default: spilling is strictly opt-in.
        ExploreLimits {
            depth: 64,
            max_configs: 1_000_000,
            solo_check_budget: None,
            memory_budget: None,
            checkpoint_every: None,
        }
    }
}

/// Checkpoint cadence (in admissions) used when a checkpoint path is
/// configured but [`ExploreLimits::checkpoint_every`] is `None`.
pub const DEFAULT_CHECKPOINT_EVERY: u64 = 65_536;

/// Sentinel for "no parent": the initial configuration's link.
pub(crate) const NO_LINK: usize = usize::MAX;

/// One admitted configuration's provenance: (parent link index, pid stepped).
pub(crate) type Link = (usize, usize);

/// The link of admitted node `index`: a link list holds one entry per
/// non-root admission, in admission order, so node `i > 0` owns link
/// `i - 1`.
pub(crate) fn link_of(index: usize) -> usize {
    index.checked_sub(1).unwrap_or(NO_LINK)
}

/// Walks the schedule back through the parent links.
pub(crate) fn schedule_of(links: &[Link], mut link: usize) -> Vec<usize> {
    let mut out = Vec::new();
    while link != NO_LINK {
        let (parent, pid) = links[link];
        out.push(pid);
        link = parent;
    }
    out.reverse();
    out
}

/// A consensus defect detected on one configuration's decision vector,
/// before a counterexample schedule is attached. The distributed explorer
/// classifies defects shard-side (shards hold the states) and lets the
/// coordinator — who holds the provenance links — build the schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Defect {
    /// Some process decided a value no process proposed.
    Validity {
        /// The out-of-domain decision.
        decided: u64,
    },
    /// Two processes decided different values.
    Agreement {
        /// The first adjacent disagreeing pair, in pid order.
        a: u64,
        /// Second member of that pair.
        b: u64,
    },
}

impl Defect {
    /// Attaches a counterexample schedule, producing the outcome every
    /// engine reports for this defect.
    pub(crate) fn into_outcome(self, schedule: Vec<usize>) -> ExploreOutcome {
        match self {
            Defect::Validity { decided } => ExploreOutcome::ValidityViolation { decided, schedule },
            Defect::Agreement { a, b } => {
                ExploreOutcome::AgreementViolation { decisions: (a, b), schedule }
            }
        }
    }
}

/// Validity/agreement check on a collected decision vector, mirroring the
/// paper's order: all decisions validated against the inputs first, then
/// pairwise agreement. Shared by every engine (packed, reference,
/// distributed), so violation selection cannot drift between the backends
/// the conformance oracle diffs.
pub(crate) fn decision_defect(decisions: &[u64], inputs: &[u64]) -> Option<Defect> {
    for &d in decisions {
        if !inputs.contains(&d) {
            return Some(Defect::Validity { decided: d });
        }
    }
    decisions
        .iter()
        .zip(decisions.iter().skip(1))
        .find(|(a, b)| a != b)
        .map(|(&a, &b)| Defect::Agreement { a, b })
}

/// [`decision_defect`] with the counterexample schedule attached from the
/// caller's provenance links.
pub(crate) fn violation_from_decisions(
    decisions: &[u64],
    inputs: &[u64],
    link: usize,
    links: &[Link],
) -> Option<ExploreOutcome> {
    decision_defect(decisions, inputs).map(|d| d.into_outcome(schedule_of(links, link)))
}

/// [`violation_from_decisions`] on a machine's semantic decision vector.
pub(crate) fn decision_violation<Proc: Process>(
    machine: &Machine<Proc>,
    inputs: &[u64],
    link: usize,
    links: &[Link],
) -> Option<ExploreOutcome> {
    let decisions: Vec<u64> = (0..machine.n()).filter_map(|p| machine.decision(p)).collect();
    violation_from_decisions(&decisions, inputs, link, links)
}

/// Exhaustively explores all schedules of `protocol` on `inputs`,
/// single-threaded.
///
/// Equivalent to [`Explorer::new().explore(..)`](Explorer::explore) with one
/// worker and no symmetry reduction, but without the `Send + Sync` bounds on
/// the process type.
///
/// # Errors
///
/// Propagates [`SimError`] if the protocol steps outside the model.
pub fn explore<P: Protocol>(
    protocol: &P,
    inputs: &[u64],
    limits: ExploreLimits,
) -> Result<ExploreOutcome, SimError> {
    explore_stats(protocol, inputs, limits).map(|(outcome, _)| outcome)
}

/// [`explore`], additionally reporting the engine's [`ExploreStats`] — the
/// comparable counters the conformance oracle diffs against independent
/// backends (the stats arrive for violating outcomes too, which the
/// `configs` field of [`ExploreOutcome::Clean`] cannot).
///
/// # Errors
///
/// Propagates [`SimError`] if the protocol steps outside the model.
pub fn explore_stats<P: Protocol>(
    protocol: &P,
    inputs: &[u64],
    limits: ExploreLimits,
) -> Result<(ExploreOutcome, ExploreStats), SimError> {
    packed_engine::explore_packed_seq(protocol, inputs, limits, false, None, None)
}

/// Configurable frontier exploration: worker-thread fan-out and optional
/// process-symmetry reduction on top of [`explore`]'s engine.
///
/// Outcomes are **identical at any worker count**, including counterexample
/// schedules: workers only preview configurations (solo probes and
/// read-only successor digests), and a sequential committer consumes their
/// results in admission order, materialising every admitted successor
/// itself, before any stateful decision is made. See
/// [`crate::packed_engine`] for the worker-pool architecture and the
/// determinism argument.
///
/// # Examples
///
/// ```
/// use cbh_verify::checker::{ExploreLimits, Explorer};
/// use cbh_verify::strawmen::OneMaxRegister;
///
/// let explorer = Explorer::new().workers(4);
/// let outcome = explorer.explore(&OneMaxRegister::new(), &[0, 1]).unwrap();
/// assert!(!outcome.is_clean()); // Theorem 4.1: one max-register fails
/// ```
#[derive(Debug, Clone)]
pub struct Explorer {
    limits: ExploreLimits,
    workers: usize,
    symmetry: bool,
    checkpoint: Option<PathBuf>,
    retain_checkpoints: bool,
}

impl Default for Explorer {
    fn default() -> Self {
        Explorer {
            limits: ExploreLimits::default(),
            workers: 1,
            symmetry: false,
            checkpoint: None,
            retain_checkpoints: false,
        }
    }
}

impl Explorer {
    /// Default limits, one worker, no symmetry reduction.
    pub fn new() -> Self {
        Explorer::default()
    }

    /// Replaces the exploration limits.
    pub fn limits(mut self, limits: ExploreLimits) -> Self {
        self.limits = limits;
        self
    }

    /// Caps frontier-resident memory at `budget` bytes (`None`, the default,
    /// never spills). Shorthand for setting
    /// [`ExploreLimits::memory_budget`]; outcomes and semantic stats are
    /// bit-identical at any budget — only wall-clock and the
    /// [`ExploreStats`] spill telemetry change.
    pub fn memory_budget(mut self, budget: Option<usize>) -> Self {
        self.limits.memory_budget = budget;
        self
    }

    /// Number of pool threads previewing frontier entries (the pool is not
    /// layer-synchronous). `1` (the default) stays on the calling thread.
    /// At any count a run starts there too, and starts the pool only once
    /// its live frontier holds 1024 nodes; a narrower run never spawns a
    /// thread. The outcome is the same either way.
    ///
    /// # Panics
    ///
    /// Panics if `workers == 0`.
    pub fn workers(mut self, workers: usize) -> Self {
        assert!(workers >= 1, "at least one worker is required");
        self.workers = workers;
        self
    }

    /// Enables the process-symmetry reduction: configurations differing only
    /// by a permutation of process identities are merged. (The engine's
    /// incremental fingerprint drops the pid tag from its per-process
    /// components, making the digest permutation-invariant — the same
    /// quotient [`Machine::fingerprint_symmetric`] computes one-shot.)
    ///
    /// Sound **only for anonymous protocols** — ones whose processes never
    /// consult their pid, such as the paper's Section 8 swap protocol. For
    /// such protocols it cuts the explored space by up to `n!` while
    /// preserving verdicts; counterexample schedules remain genuine
    /// executions of the unreduced machine.
    pub fn symmetry_reduction(mut self, on: bool) -> Self {
        self.symmetry = on;
        self
    }

    /// Enables periodic crash-safe checkpoints: every
    /// [`ExploreLimits::checkpoint_every`] admissions (default
    /// [`DEFAULT_CHECKPOINT_EVERY`]) the engine atomically writes a
    /// [`Snapshot`] of its complete logical state to `path`, always at an
    /// admission boundary so the snapshot is a prefix of the deterministic
    /// reference order. A run killed at any point resumes from the last
    /// snapshot ([`Explorer::explore_resumable`]) bit-identically to an
    /// uninterrupted run — at any worker count and memory budget.
    pub fn checkpoint_to(mut self, path: impl Into<PathBuf>) -> Self {
        self.checkpoint = Some(path.into());
        self
    }

    /// Additionally keeps a numbered copy (`<path>.ck0`, `<path>.ck1`, …) of
    /// every snapshot written, instead of each overwriting the last. A test
    /// hook: the kill-at-every-checkpoint matrix resumes from each retained
    /// snapshot in turn. Off by default.
    pub fn retain_checkpoints(mut self, on: bool) -> Self {
        self.retain_checkpoints = on;
        self
    }

    fn checkpoint_cfg<P: Protocol>(&self, protocol: &P) -> Option<CheckpointCfg> {
        self.checkpoint.as_ref().map(|path| CheckpointCfg {
            path: path.clone(),
            every: self.limits.checkpoint_every.unwrap_or(DEFAULT_CHECKPOINT_EVERY).max(1),
            retain: self.retain_checkpoints,
            protocol: protocol.name(),
        })
    }

    /// Runs the exhaustive exploration.
    ///
    /// # Errors
    ///
    /// Propagates [`SimError`] if the protocol steps outside the model.
    pub fn explore<P: Protocol>(
        &self,
        protocol: &P,
        inputs: &[u64],
    ) -> Result<ExploreOutcome, SimError>
    where
        P::Proc: Send + Sync,
    {
        self.explore_stats(protocol, inputs)
            .map(|(outcome, _)| outcome)
    }

    /// [`Explorer::explore`], additionally reporting [`ExploreStats`]. Like
    /// the outcome, the stats are bit-identical at any worker count.
    ///
    /// # Errors
    ///
    /// Propagates [`SimError`] if the protocol steps outside the model.
    pub fn explore_stats<P: Protocol>(
        &self,
        protocol: &P,
        inputs: &[u64],
    ) -> Result<(ExploreOutcome, ExploreStats), SimError>
    where
        P::Proc: Send + Sync,
    {
        packed_engine::explore_packed_par(
            protocol,
            inputs,
            self.limits,
            self.symmetry,
            self.workers,
            self.checkpoint_cfg(protocol),
            None,
        )
    }

    /// Resumes an exploration from a previously written [`Snapshot`] and
    /// runs it to its end. The snapshot's identity (protocol, inputs,
    /// semantic limits, symmetry flag) must match this call; the worker
    /// count and memory budget may differ freely — the final
    /// `(ExploreOutcome, ExploreStats)` is bit-identical to an
    /// uninterrupted run either way. Checkpointing continues if a path is
    /// configured.
    ///
    /// # Errors
    ///
    /// [`SimError::Spill`] wrapping the typed [`SnapshotError`] on identity
    /// mismatch, plus everything [`Explorer::explore_stats`] can return.
    pub fn resume_stats<P: Protocol>(
        &self,
        protocol: &P,
        inputs: &[u64],
        snapshot: &Snapshot,
    ) -> Result<(ExploreOutcome, ExploreStats), SimError>
    where
        P::Proc: Send + Sync,
    {
        packed_engine::explore_packed_par(
            protocol,
            inputs,
            self.limits,
            self.symmetry,
            self.workers,
            self.checkpoint_cfg(protocol),
            Some(snapshot),
        )
    }

    /// Crash-safe exploration against the configured checkpoint path: if a
    /// valid snapshot exists there, resume from it; otherwise start fresh.
    /// Either way, snapshots keep landing on the
    /// [`ExploreLimits::checkpoint_every`] cadence, so the call can be
    /// killed and re-issued any number of times and still produce the
    /// bit-identical `(ExploreOutcome, ExploreStats)` of one uninterrupted
    /// run.
    ///
    /// A snapshot that exists but is corrupt or belongs to a different
    /// exploration is an **error**, not a silent fresh start — crashes
    /// cannot corrupt a snapshot (writes are atomic), so damage means
    /// something external happened and deserves a decision, not a
    /// multi-hour re-run.
    ///
    /// # Panics
    ///
    /// Panics if no checkpoint path was configured
    /// ([`Explorer::checkpoint_to`]) — resuming without one is builder
    /// misuse, like `workers(0)`.
    ///
    /// # Errors
    ///
    /// Everything [`Explorer::explore_stats`] can return, plus
    /// [`SimError::Spill`] wrapping the typed [`SnapshotError`] for an
    /// unusable existing snapshot.
    pub fn explore_resumable<P: Protocol>(
        &self,
        protocol: &P,
        inputs: &[u64],
    ) -> Result<(ExploreOutcome, ExploreStats), SimError>
    where
        P::Proc: Send + Sync,
    {
        let path = self
            .checkpoint
            .as_ref()
            .expect("explore_resumable requires a checkpoint path (Explorer::checkpoint_to)");
        match Snapshot::read(path) {
            Ok(snapshot) => self.resume_stats(protocol, inputs, &snapshot),
            Err(SnapshotError::Io { kind: std::io::ErrorKind::NotFound, .. }) => {
                self.explore_stats(protocol, inputs)
            }
            Err(e) => Err(packed_engine::snapshot_sim_err(&e)),
        }
    }
}

/// Valency probe: can the set of all processes still decide `v` from this
/// configuration within `depth` further steps?
///
/// This is the "`P` can decide `v` from `C`" relation of Section 6's covering
/// argument, made executable for small horizons. Breadth-first with a
/// fingerprint seen-set: each semantically distinct configuration is visited
/// once, at its minimal distance — so unlike a depth-budgeted DFS, a state
/// first reached on a long path can't shadow a short path through it.
///
/// # Errors
///
/// Propagates [`SimError`].
pub fn can_decide<Proc: Process>(
    machine: &Machine<Proc>,
    v: u64,
    depth: usize,
) -> Result<bool, SimError> {
    can_decide_stats(machine, v, depth).map(|(decidable, _)| decidable)
}

/// [`can_decide`], additionally reporting how many distinct configurations
/// the probe visited before answering — the comparable counter a conformance
/// oracle diffs against an independent implementation of the same relation.
///
/// The count includes the starting configuration; a `true` answer reports the
/// configurations visited up to (not including) the deciding successor, so
/// equal-probe comparisons must compare counts only alongside equal answers.
///
/// # Errors
///
/// Propagates [`SimError`].
pub fn can_decide_stats<Proc: Process>(
    machine: &Machine<Proc>,
    v: u64,
    depth: usize,
) -> Result<(bool, usize), SimError> {
    // Packed BFS: the probe branches at every edge, so the flat clone is
    // where the packed representation pays off hardest. The seen-set keys on
    // the packed digest, which partitions configurations exactly like
    // `Machine::fingerprint` — so the visited counts the conformance oracle
    // compares are unchanged by the representation swap.
    let ctx = machine.packed_ctx();
    let root = machine.pack(&ctx);
    // A probe-local intern cache: the branch-at-every-edge loop below reads
    // the same entries over and over, and this context is private to the
    // probe, so the shard locks are pure overhead.
    let mut cache = cbh_model::PackedCache::new();
    let decides = |cache: &mut cbh_model::PackedCache<Proc>, s: &cbh_model::PackedState| {
        (0..s.n()).any(|p| ctx.decision_cached(cache, s, p) == Some(v))
    };
    if decides(&mut cache, &root) {
        return Ok((true, 1));
    }
    let mut seen = FpHashSet::default();
    seen.insert(ctx.digest_cached(&mut cache, &root, false));
    let mut frontier = vec![root];
    for _ in 0..depth {
        let mut next = Vec::new();
        for s in &frontier {
            for pid in (0..s.n()).filter(|&p| ctx.is_active(s, p)) {
                let child = ctx.branch_step_cached(&mut cache, s, pid).map_err(|source| {
                    SimError::Model {
                        pid,
                        step: s.steps(),
                        source,
                    }
                })?;
                if decides(&mut cache, &child) {
                    return Ok((true, seen.len()));
                }
                if seen.insert(ctx.digest_cached(&mut cache, &child, false)) {
                    next.push(child);
                }
            }
        }
        if next.is_empty() {
            break;
        }
        frontier = next;
    }
    Ok((false, seen.len()))
}

/// Bivalence probe: can both 0 and 1 still be decided from this
/// configuration? (Within `depth` steps; binary-consensus configurations.)
///
/// # Errors
///
/// Propagates [`SimError`].
pub fn bivalent<Proc: Process>(
    machine: &Machine<Proc>,
    depth: usize,
) -> Result<bool, SimError> {
    Ok(can_decide(machine, 0, depth)? && can_decide(machine, 1, depth)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strawmen::{OneMaxRegister, OneRegister};
    use cbh_core::cas::CasConsensus;
    use cbh_core::intro::{DecMulConsensus, FaaTasConsensus};
    use cbh_core::maxreg::MaxRegConsensus;

    #[test]
    fn cas_is_exhaustively_clean() {
        // CAS consensus terminates in one step per process: the whole space
        // is tiny and completely clean.
        for inputs in [[0u64, 1], [1, 0], [1, 1]] {
            let out = explore(
                &CasConsensus::new(2),
                &inputs,
                ExploreLimits {
                    depth: 10,
                    max_configs: 10_000,
                    solo_check_budget: Some(10),
                    memory_budget: None,
                    checkpoint_every: None,
                },
            )
            .unwrap();
            assert!(matches!(out, ExploreOutcome::Clean { complete: true, .. }), "{out:?}");
        }
    }

    #[test]
    fn faa_tas_is_exhaustively_clean_for_three_processes() {
        for mask in 0..8u64 {
            let inputs: Vec<u64> = (0..3).map(|i| (mask >> i) & 1).collect();
            let out = explore(
                &FaaTasConsensus::new(3),
                &inputs,
                ExploreLimits {
                    depth: 12,
                    max_configs: 100_000,
                    solo_check_budget: Some(12),
                    memory_budget: None,
                    checkpoint_every: None,
                },
            )
            .unwrap();
            assert!(matches!(out, ExploreOutcome::Clean { complete: true, .. }), "{out:?}");
        }
    }

    #[test]
    fn dec_mul_is_exhaustively_clean() {
        for inputs in [[0u64, 1], [1, 0], [0, 0], [1, 1]] {
            let out = explore(
                &DecMulConsensus::new(2),
                &inputs,
                ExploreLimits {
                    depth: 10,
                    max_configs: 10_000,
                    solo_check_budget: Some(10),
                    memory_budget: None,
                    checkpoint_every: None,
                },
            )
            .unwrap();
            assert!(out.is_clean(), "{out:?}");
        }
    }

    #[test]
    fn max_register_protocol_clean_to_depth() {
        // Not complete (the protocol loops under contention) but no violation
        // exists within the horizon.
        let out = explore(
            &MaxRegConsensus::new(2),
            &[0, 1],
            ExploreLimits {
                depth: 18,
                max_configs: 400_000,
                solo_check_budget: None,
                memory_budget: None,
                checkpoint_every: None,
            },
        )
        .unwrap();
        assert!(out.is_clean(), "{out:?}");
    }

    #[test]
    fn checker_finds_the_one_max_register_violation() {
        // The exhaustive checker independently rediscovers what the
        // Theorem 4.1 adversary constructs.
        let out = explore(
            &OneMaxRegister::new(),
            &[0, 1],
            ExploreLimits::default(),
        )
        .unwrap();
        match out {
            ExploreOutcome::AgreementViolation { decisions, schedule } => {
                assert_ne!(decisions.0, decisions.1);
                assert!(!schedule.is_empty());
            }
            other => panic!("expected agreement violation, got {other:?}"),
        }
    }

    #[test]
    fn checker_finds_the_one_register_violation() {
        let out = explore(&OneRegister::new(2), &[0, 1], ExploreLimits::default()).unwrap();
        assert!(
            matches!(out, ExploreOutcome::AgreementViolation { .. }),
            "one plain register cannot do 2-process consensus: {out:?}"
        );
    }

    #[test]
    fn counterexample_schedules_replay_to_the_violation() {
        // The reconstructed parent-link schedule is a genuine execution: replay
        // it step by step and watch the disagreement appear.
        let out = explore(&OneRegister::new(2), &[0, 1], ExploreLimits::default()).unwrap();
        let ExploreOutcome::AgreementViolation { decisions, schedule } = out else {
            panic!("expected agreement violation");
        };
        let mut machine = Machine::start(&OneRegister::new(2), &[0, 1]).unwrap();
        for &pid in &schedule {
            machine.step(pid).unwrap();
        }
        let seen: Vec<u64> = (0..machine.n()).filter_map(|p| machine.decision(p)).collect();
        assert!(seen.contains(&decisions.0) && seen.contains(&decisions.1), "{seen:?}");
    }

    #[test]
    fn explorer_outcome_is_invariant_under_worker_count() {
        for (clean, limits) in [
            (false, ExploreLimits::default()),
            (
                true,
                ExploreLimits {
                    depth: 12,
                    max_configs: 100_000,
                    solo_check_budget: Some(12),
                    memory_budget: None,
                    checkpoint_every: None,
                },
            ),
        ] {
            let run = |workers| {
                let explorer = Explorer::new().workers(workers).limits(limits);
                if clean {
                    explorer.explore(&CasConsensus::new(3), &[0, 1, 2]).unwrap()
                } else {
                    explorer.explore(&OneMaxRegister::new(), &[0, 1]).unwrap()
                }
            };
            let reference = run(1);
            assert_eq!(reference.is_clean(), clean);
            for workers in [2, 3, 8] {
                assert_eq!(run(workers), reference, "workers={workers}");
            }
        }
    }

    #[test]
    fn symmetry_reduction_shrinks_anonymous_state_spaces() {
        // MaxRegConsensus processes never consult their pid, so with
        // duplicated inputs the state graph has genuine process-permutation
        // orbits: the quotiented space must be strictly smaller and reach
        // the same verdict.
        let limits = ExploreLimits {
            depth: 10,
            max_configs: 500_000,
            solo_check_budget: None,
            memory_budget: None,
            checkpoint_every: None,
        };
        let protocol = MaxRegConsensus::new(3);
        let inputs = [0, 0, 1];
        let plain = Explorer::new().limits(limits).explore(&protocol, &inputs).unwrap();
        let reduced = Explorer::new()
            .limits(limits)
            .symmetry_reduction(true)
            .explore(&protocol, &inputs)
            .unwrap();
        let (ExploreOutcome::Clean { configs: full, .. }, ExploreOutcome::Clean { configs: quotiented, .. }) =
            (&plain, &reduced)
        else {
            panic!("expected clean outcomes, got {plain:?} / {reduced:?}");
        };
        assert!(quotiented < full, "symmetry reduction must merge states: {quotiented} vs {full}");
    }

    #[test]
    fn engine_counts_match_a_reference_clone_based_search() {
        // Ground truth: a naive BFS that stores whole machines keyed by
        // semantic state. The incremental-fingerprint engine must visit
        // exactly the same number of distinct configurations — this is the
        // guard against both fingerprint aliasing (undercount) and stale
        // incremental updates (over- or undercount).
        use std::collections::HashMap;
        let protocol = MaxRegConsensus::new(3);
        let inputs = [0u64, 1, 2];
        let depth = 8;
        let root = Machine::start(&protocol, &inputs).unwrap();
        let mut seen: HashMap<u128, Machine<_>> = HashMap::new();
        seen.insert(root.fingerprint(), root.clone());
        let mut frontier = vec![root];
        for _ in 0..depth {
            let mut next = Vec::new();
            for m in &frontier {
                for pid in m.active() {
                    let child = m.branch_step(pid).unwrap();
                    if let Some(prev) = seen.get(&child.fingerprint()) {
                        assert_eq!(prev.memory(), child.memory(), "fingerprint collision");
                    } else {
                        seen.insert(child.fingerprint(), child.clone());
                        next.push(child);
                    }
                }
            }
            frontier = next;
        }
        let out = explore(
            &protocol,
            &inputs,
            ExploreLimits {
                depth,
                max_configs: 1_000_000,
                solo_check_budget: None,
                memory_budget: None,
                checkpoint_every: None,
            },
        )
        .unwrap();
        let ExploreOutcome::Clean { configs, .. } = out else {
            panic!("expected clean, got {out:?}");
        };
        assert_eq!(configs, seen.len());
    }

    #[test]
    fn valency_probes() {
        // Initially, a 2-process CAS consensus with inputs {0,1} is bivalent.
        let protocol = CasConsensus::new(2);
        let machine = Machine::start(&protocol, &[0, 1]).unwrap();
        assert!(bivalent(&machine, 5).unwrap());
        // After p0's CAS, only 0 can be decided: the configuration is
        // univalent.
        let mut after = machine.clone();
        after.step(0).unwrap();
        assert!(can_decide(&after, 0, 5).unwrap());
        assert!(!can_decide(&after, 1, 5).unwrap());
    }
}
