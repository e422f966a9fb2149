//! Temp-dir hygiene for the spillable frontier: arena files must be deleted
//! on normal exit **and** when a run unwinds — whether the panic starts on
//! the committer thread (sequential engine) or inside a pool worker (the
//! packed engine's `StopGuard` release path).
//!
//! The whole suite is one `#[test]` because it owns the `CBH_SPILL_DIR`
//! process environment variable: the spill arenas of every phase land in
//! one fresh directory this test creates, watches and removes.

use space_hierarchy::model::{Action, Op, Process, Protocol, Value};
use space_hierarchy::protocols::bitwise::tas_reset_consensus;
use space_hierarchy::verify::checker::{explore_stats, ExploreLimits, Explorer};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

/// Counts the spill files currently in `dir`.
fn spill_files(dir: &Path) -> Vec<PathBuf> {
    std::fs::read_dir(dir)
        .expect("spill dir exists")
        .map(|e| e.expect("dir entry").path())
        .collect()
}

// ---------------------------------------------------------------------------
// A protocol whose processes detonate at a chosen depth
// ---------------------------------------------------------------------------

/// Fetch-and-increments forever; panics when a process has absorbed `fuse`
/// results. Every interleaving of observed counter values is a distinct
/// configuration, so the state space is 3^depth — wide enough to push the
/// parallel engine past its sequential-probe threshold before the fuse
/// burns.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct FuseProc {
    seen: Vec<u64>,
    fuse: usize,
}

impl Process for FuseProc {
    fn action(&self) -> Action {
        Action::Invoke(Op::single(0, space_hierarchy::model::Instruction::FetchAndIncrement))
    }

    fn absorb(&mut self, result: Value) {
        self.seen.push(result.as_u64().unwrap_or(0));
        assert!(self.seen.len() < self.fuse, "injected fuse panic");
    }
}

struct FuseProtocol {
    n: usize,
    fuse: usize,
}

impl Protocol for FuseProtocol {
    type Proc = FuseProc;

    fn n(&self) -> usize {
        self.n
    }

    fn domain(&self) -> u64 {
        self.n as u64
    }

    fn name(&self) -> String {
        format!("fuse({})", self.fuse)
    }

    fn memory_spec(&self) -> space_hierarchy::model::MemorySpec {
        space_hierarchy::model::MemorySpec::bounded(
            space_hierarchy::model::InstructionSet::ReadWriteFetchIncrement,
            1,
        )
    }

    fn spawn(&self, _pid: usize, _input: u64) -> FuseProc {
        FuseProc {
            seen: Vec::new(),
            fuse: self.fuse,
        }
    }
}

#[test]
fn spill_arenas_are_deleted_on_exit_and_on_panic() {
    let dir = std::env::temp_dir().join(format!("cbh-spill-hygiene-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create spill dir");
    // Every arena of this process now lands in the watched directory. Safe
    // to set: this file is its own test binary and runs the one test.
    std::env::set_var("CBH_SPILL_DIR", &dir);

    // -- normal exit, sequential engine -----------------------------------
    let limits = ExploreLimits {
        depth: 8,
        max_configs: 100_000,
        solo_check_budget: None,
        memory_budget: Some(0),
        checkpoint_every: None,
    };
    let (outcome, stats) = explore_stats(&tas_reset_consensus(3), &[0, 1, 2], limits).unwrap();
    assert!(outcome.is_clean(), "{outcome:?}");
    assert!(stats.bytes_spilled > 0, "the run must have spilled");
    assert_eq!(
        spill_files(&dir),
        Vec::<PathBuf>::new(),
        "files survived a normal sequential exit"
    );

    // -- normal exit, worker pool ------------------------------------------
    let (outcome, stats) = Explorer::new()
        .workers(4)
        .limits(ExploreLimits {
            depth: 9,
            ..limits
        })
        .explore_stats(&tas_reset_consensus(3), &[0, 1, 2])
        .unwrap();
    assert!(outcome.is_clean(), "{outcome:?}");
    assert!(stats.bytes_spilled > 0);
    assert_eq!(
        spill_files(&dir),
        Vec::<PathBuf>::new(),
        "files survived a normal pool exit"
    );

    // Silence the expected panic spew (worker threads print otherwise).
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));

    // -- panic on the committer thread (sequential engine) -----------------
    // Fuse 4 burns at depth ~10 of a 3-process walk; the budget keeps every
    // earlier layer spilling first.
    let result = catch_unwind(AssertUnwindSafe(|| {
        explore_stats(&FuseProtocol { n: 3, fuse: 4 }, &[0, 1, 2], limits)
    }));
    assert!(result.is_err(), "the fuse must burn");
    assert_eq!(
        spill_files(&dir),
        Vec::<PathBuf>::new(),
        "files survived a sequential panic unwind"
    );

    // -- panic inside a pool worker (StopGuard path) -----------------------
    // 3^7 = 2187 distinct configurations precede the first fuse-8 node, so
    // the live frontier has passed 1,024 nodes and the real pool is running
    // — with a spilled admission queue — when a worker detonates. The StopGuard wakes the committer, whose
    // "worker terminated abnormally" assert unwinds through every store.
    let result = catch_unwind(AssertUnwindSafe(|| {
        Explorer::new()
            .workers(4)
            .limits(ExploreLimits {
                depth: 12,
                ..limits
            })
            .explore_stats(&FuseProtocol { n: 3, fuse: 8 }, &[0, 1, 2])
    }));
    assert!(result.is_err(), "the pooled fuse must burn");
    assert_eq!(
        spill_files(&dir),
        Vec::<PathBuf>::new(),
        "files survived a worker panic (StopGuard) unwind"
    );

    std::panic::set_hook(default_hook);
    std::env::remove_var("CBH_SPILL_DIR");
    std::fs::remove_dir(&dir).expect("watched dir is empty and removable");
}
