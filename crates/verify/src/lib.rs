//! Executable lower-bound artifacts of the space hierarchy.
//!
//! A space *lower* bound is a statement about **all** protocols, so it cannot
//! be "run" the way an algorithm can. What can be run is the executable core
//! of each proof: an **adversary** that, handed any concrete protocol using
//! too few locations, constructs an execution violating agreement. This crate
//! provides:
//!
//! - [`adversary`] — the interleaving adversary of Theorem 4.1 (one
//!   max-register), the fetch-and-increment adversary of Theorem 5.1 (one
//!   `{read, write, fetch-and-increment}` location), and the location-
//!   escalation adversary behind Lemma 9.1/Theorem 9.2 (test-and-set/
//!   write(1) memories need unboundedly many locations);
//! - [`checker`] — a bounded exhaustive model checker over schedules
//!   (agreement/validity violations, valency probes, obstruction-freedom
//!   checks): since the packed-state refactor it runs on the flat
//!   [`cbh_model::packed`] representation with a barrier-free
//!   worker pool ([`packed_engine`]) whose outcomes are
//!   deterministic at any worker count, plus an opt-in process-symmetry
//!   reduction;
//! - [`frontier`] — memory-bounded frontier storage: a budgeted FIFO
//!   admission queue that delta-compresses past
//!   [`checker::ExploreLimits::memory_budget`] into a self-deleting
//!   temp-file arena and streams back in admission order, shared by every
//!   engine;
//! - [`packing`] — Lemma 7.1's `k`-packing repair algorithm (the Eulerian
//!   multigraph argument) as a standalone combinatorial routine, plus
//!   `k`-packing construction and the fully-packed-location computation used
//!   by the multi-assignment lower bound (Theorem 7.5);
//! - [`covering`] — Section 6.2's covering-configuration vocabulary (covers,
//!   `k`-covered locations, block writes) computed on live configurations;
//! - [`dist`] — distributed sharded exploration: partitions the fingerprint
//!   space across shard workers (in-process threads or separate processes
//!   over Unix sockets) that exchange fingerprint-and-provenance candidates
//!   through a coordinator replaying the single-process admission order
//!   exactly, so outcomes stay bit-identical at any shard count;
//! - [`snapshot`] — crash-safe checkpoint/resume: a versioned, CRC-guarded
//!   on-disk capture of the committer's logical state at an admission
//!   boundary, written atomically on the [`checker::ExploreLimits::checkpoint_every`]
//!   cadence so a killed run resumes bit-identically at any worker count and
//!   memory budget;
//! - [`reference`](mod@reference) — a clone-everything BFS with independently implemented
//!   hashing and traversal, mirroring the frontier engine's semantics
//!   bit-for-bit: the differential-testing oracle the conformance fuzzer
//!   diffs the fast engine against;
//! - [`strawmen`] — deliberately undersized protocols (one max-register, one
//!   fetch-and-increment word, one plain register) for the adversaries and
//!   checker to defeat, witnessing each lower bound's claim *on code*.

pub mod adversary;
pub mod checker;
pub mod claim;
pub mod covering;
pub mod dist;
pub mod fpset;
pub mod frontier;
pub mod packed_engine;
pub mod packing;
pub mod reference;
pub mod snapshot;
pub mod strawmen;
