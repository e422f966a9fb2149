//! Distributed sharded exploration: fingerprint-partitioned shards that
//! exchange candidates as fingerprint plus provenance.
//!
//! # Architecture
//!
//! The configuration space is partitioned by fingerprint: shard
//! [`shard_of`]`(fp, shards)` *owns* every configuration whose digest lands
//! in its slice, holds the only seen-set entry for it, and is the only
//! place its frontier node is ever expanded. A **coordinator** drives the
//! shards through bulk-synchronous rounds — one breadth-first layer per
//! round — by exchanging messages with them:
//!
//! ```text
//!   coordinator                                shard 0 .. shard S-1
//!       | ROUND{expand}  ------------------------->  |
//!       |                 pop the layer and hold it; |
//!       |                 preview its edges          |
//!       | <- SUCC{dest, candidates}  (routed on) ->  |   speculative
//!       | <- DONE{any_active, events}                |
//!       | FLUSH  ----------------------------------> |
//!       |                 sort, dedup; build only    |
//!       |                 the fresh; classify        |
//!       | <- VERDICTS{fresh candidates + defects}    |
//!       |                 drop the held layer        |
//!       |        merge sweep (sequential,            |
//!       |        reference admission order)          |   deterministic
//!       | COMMIT{indices, links} ------------------> |
//! ```
//!
//! # Determinism argument
//!
//! The run's outcome is decided entirely by the coordinator's **merge
//! sweep**, which replays the single-process reference admission order:
//!
//! - **Dedup is owner-exclusive.** A fingerprint's owner is a pure function
//!   of its bits, so every candidate for the same configuration reaches the
//!   same shard. Local dedup against that shard's seen set is therefore
//!   *identical* to global dedup — no other shard ever votes on that
//!   fingerprint.
//! - **Per-shard verdict order is the global order restricted to the
//!   shard.** Owners sort their round's candidates by `(parent index,
//!   pid)` before admitting — exactly the reference's frontier-order-then-
//!   pid-order within a layer. The coordinator merges all shards' verdict
//!   lists (plus the round's solo-failure/error events) back into one
//!   totally ordered stream keyed `(node, stage, pid)` and sweeps it
//!   sequentially: `max_configs` accounting, link construction, violation
//!   selection and completeness all happen there, single-threaded, exactly
//!   as [`crate::reference::reference_explore`] would.
//! - **Every cut is run-terminating.** A violation, a solo-check failure,
//!   a step error or the config cap ends the run immediately, so shard
//!   seen-sets that speculatively admitted candidates *past* the cut never
//!   need rollback — their extra entries are unobservable.
//!
//! Hence `(ExploreOutcome, ExploreStats)` — verdict, counterexample
//! schedule, configuration count, frontier peak, depth — are bit-identical
//! to the single-process engines at any shard count × worker count ×
//! memory budget. The conformance oracle and `tests/dist_explore.rs`
//! enforce exactly this.
//!
//! # One message format, two transports
//!
//! A shard is a state machine with one handler that takes a message
//! `(kind, payload)` and emits replies. [`coordinate`] / [`shard_serve`]
//! run each shard as a process that reads the CRC-guarded frames of
//! [`cbh_model::packed::frame`] off a Unix-domain socket and writes its
//! replies back; a fatal error crosses as its rendering. [`explore_sharded`]
//! keeps the shards in the calling process: sending a message calls the
//! owner's handler and queues its replies, and errors reach the caller as
//! exact values. No socket or thread is involved until a round's frontier
//! reaches the packed engine's parallel threshold; wider rounds run each
//! shard's `ROUND` and `FLUSH` on a scoped thread. Both modes count each
//! message as the frame it is on a socket, so their telemetry agrees.
//! Intern ids are process-local (see [`cbh_model::packed::delta`]), so a
//! `SUCC` candidate is only `(parent index, pid, fingerprint)`. Digests
//! hash content, never ids, so a replica's fingerprint provably matches
//! the producer's.
//!
//! # Paying only for admissions
//!
//! Expansion previews edge digests and builds no state. A shard builds a
//! candidate's state at `FLUSH`, and only once its seen set has admitted
//! the fingerprint:
//!
//! - A candidate it produced itself steps its parent, which the shard
//!   holds (in the popped layer) from `ROUND` until the verdicts are sent.
//! - A remote candidate is replayed along its pid path. Candidates are
//!   admitted in `(parent index, pid)` order and BFS indices are monotone
//!   in ancestry, so consecutive replays share long ancestor prefixes: the
//!   shard keeps the last replayed chain and steps only below the deepest
//!   shared ancestor.
//! - At the horizon with no solo checks to run, an admitted node will
//!   never be expanded, so the shard settles its activity bit right there
//!   (as the packed engine does) and reports it in the next `DONE`
//!   instead of storing the widest layer for an edge-free round.
//!
//! # Budgets
//!
//! [`ExploreLimits::memory_budget`] is interpreted **per shard**: each
//! shard owns a private [`SpillContext`], seen backend and frontier store,
//! so an `S`-shard run holds up to `S ×` the budget resident in aggregate
//! (that is the point — sharding multiplies the memory ceiling). The
//! single-process engines' intern-table budget charging and typed
//! budget-overrun error are not replicated here: shard interners are
//! per-process and reported as telemetry only. The layer a shard holds
//! from `ROUND` to `VERDICTS` is charged to its tracker meanwhile.

use crate::checker::{
    decision_defect, decision_violation, link_of, schedule_of, Defect, ExploreLimits,
    ExploreOutcome, ExploreStats, Link, NO_LINK,
};
use crate::fpset::SeenBackend;
use crate::frontier::{FrontierStore, SpillCodec, SpillContext, SpillError};
use crate::packed_engine::{
    cache_cap_of, expand_node, Edge, Node, NodeCodec, RunCfg, MIN_PARALLEL_CONFIGS,
};
use cbh_model::packed::delta::{read_varint, write_varint};
use cbh_model::packed::frame::frame_len;
use cbh_model::{
    encode_frame, FrameReader, PackedCache, PackedCtx, PackedState, Process, Protocol,
};
use cbh_sim::{Machine, SimError};
use std::collections::{HashMap, VecDeque};
use std::io::Write;
use std::os::unix::net::{UnixListener, UnixStream};
use std::sync::mpsc;

// ---------------------------------------------------------------------------
// Wire vocabulary
// ---------------------------------------------------------------------------

/// Shard-to-coordinator greeting carrying the shard id; sent only by
/// process shards ([`shard_serve`]) and consumed by [`accept_shards`]
/// before the round protocol starts.
const K_HELLO: u8 = 1;
/// Coordinator → shards: start a round; payload `[expand: u8]`.
const K_ROUND: u8 = 2;
/// Successor candidates routed to their owner shard via the coordinator;
/// payload `dest, count, {parent_idx, pid, fp}*`. No state rides along:
/// the owner replays the ones it admits.
const K_SUCC: u8 = 3;
/// Shard → coordinator: expansion phase over; payload
/// `any_active, event_count, events*`. `any_active` also carries the
/// activity of horizon nodes settled at the previous [`K_FLUSH`].
const K_DONE: u8 = 4;
/// Coordinator → shards: all candidates routed; sort, dedup, classify.
const K_FLUSH: u8 = 5;
/// Shard → coordinator: the round's fresh admissions in `(parent_idx,
/// pid)` order, each with its defect classification.
const K_VERDICTS: u8 = 6;
/// Coordinator → shards: payload `[halt]` or
/// `[0, my_count, my_indices*, link_count, (parent_idx, pid)*]`.
const K_COMMIT: u8 = 7;
/// Shard → coordinator, after a halting COMMIT: five telemetry varints.
const K_STATS: u8 = 8;
/// Shard process → coordinator: fatal shard-local failure, payload is the
/// rendered error message; the shard exits right after sending.
const K_ERROR: u8 = 0x7F;

/// Candidates per [`K_SUCC`] message: bounds frame size while amortising
/// the header + CRC.
const SUCC_BATCH: usize = 512;

/// The owner shard of fingerprint `fp` among `shards` shards: the high
/// 64 bits modulo the shard count. The engines' digests mix every state
/// component into both halves, so the high half alone spreads evenly.
pub fn shard_of(fp: u128, shards: usize) -> usize {
    ((fp >> 64) as u64 % shards as u64) as usize
}

/// Topology knobs for one distributed run. In-process and process shards
/// take the same config and exchange the same messages.
#[derive(Debug, Clone, Copy)]
pub struct DistConfig {
    /// Fingerprint-space partitions (≥ 1); also the shard-process count.
    pub shards: usize,
    /// Expansion worker threads *per shard* (≥ 1).
    pub workers: usize,
    /// Process-symmetry reduction, as in
    /// [`crate::checker::Explorer::symmetry_reduction`].
    pub symmetric: bool,
}

impl Default for DistConfig {
    fn default() -> Self {
        DistConfig {
            shards: 2,
            workers: 1,
            symmetric: false,
        }
    }
}

/// Wire-protocol failures surface through the engines' existing error
/// type, like spill-arena and checkpoint failures before them.
fn wire_err(detail: impl std::fmt::Display) -> SimError {
    SimError::Spill {
        detail: format!("dist wire: {detail}"),
    }
}

// ---------------------------------------------------------------------------
// Shard side
// ---------------------------------------------------------------------------

/// Why a shard stopped serving.
enum ShardExit {
    /// The coordinator vanished or spoke garbage: exit without ceremony —
    /// there is nobody left to report to.
    Silent,
    /// A shard-local failure worth reporting before exiting.
    Fatal(SimError),
}

impl ShardExit {
    /// The error the coordinator reports for shard `shard` stopping so.
    fn into_error(self, shard: usize) -> SimError {
        match self {
            ShardExit::Fatal(err) => err,
            ShardExit::Silent => wire_err(format_args!("shard {shard} terminated unexpectedly")),
        }
    }
}

impl From<SpillError> for ShardExit {
    fn from(e: SpillError) -> Self {
        ShardExit::Fatal(e.into())
    }
}

/// [`Cand::slot`] of a candidate whose parent is not in this shard's held
/// layer: one received from another shard, or one bound for another shard.
const REMOTE: u32 = u32::MAX;

/// A successor candidate awaiting its owner's dedup verdict. No state rides
/// along: the owner builds one only for candidates its seen set admits —
/// stepping the parent held in its layer for local ones, replaying the pid
/// path along a shared ancestor chain for remote ones.
struct Cand {
    /// Global index of the expanded parent node.
    parent_idx: u64,
    /// The pid stepped to produce this candidate.
    pid: u64,
    /// The candidate's digest — the routing and dedup key.
    fp: u128,
    /// The parent's position in the shard's held layer for candidates this
    /// shard owns; [`REMOTE`] otherwise.
    slot: u32,
}

/// One per-node incident from the expansion phase, reported in DONE.
enum RoundEvent {
    /// `pid`'s solo run from node `idx` failed to decide within budget.
    SoloFail { idx: u64, pid: u64 },
    /// Expanding node `idx` stepped outside the model (or a solo probe
    /// did). The wire carries its rendering; the shard keeps the value.
    Failed { idx: u64, err: SimError },
}

/// What one shard's expansion of its slice of a layer produced.
struct LayerOut {
    any_active: bool,
    events: Vec<RoundEvent>,
    cands: Vec<Cand>,
}

/// Expands a contiguous chunk of shard `shard`'s held layer (of `shards`),
/// starting at position `base`. Per-node failures become [`RoundEvent`]s rather than
/// aborting the chunk: the coordinator's sweep cuts at the first event in
/// *global* order, which this shard cannot know locally.
fn expand_chunk<P: Process>(
    ctx: &PackedCtx<P>,
    chunk: &[Node],
    base: usize,
    run: RunCfg,
    (shard, shards): (usize, usize),
    cache: &mut PackedCache<P>,
) -> LayerOut {
    let mut out = LayerOut {
        any_active: false,
        events: Vec::new(),
        cands: Vec::new(),
    };
    for (slot, node) in (base..).zip(chunk) {
        match expand_node(ctx, node, run, cache) {
            Err(err) => out.events.push(RoundEvent::Failed {
                idx: node.index as u64,
                err,
            }),
            Ok(exp) => {
                out.any_active |= exp.has_active;
                if let Some(pid) = exp.solo_failure {
                    out.events.push(RoundEvent::SoloFail {
                        idx: node.index as u64,
                        pid: pid as u64,
                    });
                    continue;
                }
                for Edge { pid, fp } in exp.edges {
                    let owned = shard_of(fp, shards) == shard;
                    out.cands.push(Cand {
                        parent_idx: node.index as u64,
                        pid: pid as u64,
                        fp,
                        slot: if owned { slot as u32 } else { REMOTE },
                    });
                }
            }
        }
    }
    if let Some(cap) = run.cache_cap {
        cache.evict_if_over(cap);
    }
    out
}

/// Expands the shard's whole held layer. Layers of at least
/// [`MIN_PARALLEL_CONFIGS`] nodes fan out over up to `caches.len()` scoped
/// threads in contiguous chunks (results concatenate in chunk order;
/// ordering is re-established downstream anyway — owners sort candidates,
/// the coordinator sorts events); smaller ones expand on the calling
/// thread, where a spawn would cost more than the work. Each thread
/// borrows one of the shard's long-lived caches, so intern entries and
/// memoised transitions carry over from layer to layer.
fn expand_layer<P: Process + Send + Sync>(
    ctx: &PackedCtx<P>,
    nodes: &[Node],
    run: RunCfg,
    owner: (usize, usize), // (shard, shards), as in `expand_chunk`
    caches: &mut [PackedCache<P>],
) -> LayerOut {
    let workers = caches.len().min(nodes.len());
    if workers <= 1 || nodes.len() < MIN_PARALLEL_CONFIGS {
        return expand_chunk(ctx, nodes, 0, run, owner, &mut caches[0]);
    }
    let chunk_len = nodes.len().div_ceil(workers);
    let outs: Vec<LayerOut> = std::thread::scope(|scope| {
        let handles: Vec<_> = nodes
            .chunks(chunk_len)
            .zip(caches.iter_mut())
            .enumerate()
            .map(|(i, (chunk, cache))| {
                scope.spawn(move || expand_chunk(ctx, chunk, i * chunk_len, run, owner, cache))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("shard expansion worker panicked"))
            .collect()
    });
    let mut merged = LayerOut {
        any_active: false,
        events: Vec::new(),
        cands: Vec::new(),
    };
    for out in outs {
        merged.any_active |= out.any_active;
        merged.events.extend(out.events);
        merged.cands.extend(out.cands);
    }
    merged
}

// ---------------------------------------------------------------------------
// Shard wire helpers
// ---------------------------------------------------------------------------

/// Varint field read, shard side: wire garbage means the coordinator (or
/// the kernel) is broken — exit silently.
fn rv(p: &mut &[u8]) -> Result<u64, ShardExit> {
    read_varint(p).map_err(|_| ShardExit::Silent)
}

/// 16-byte little-endian fingerprint read.
fn take_fp(p: &mut &[u8]) -> Result<u128, ShardExit> {
    if p.len() < 16 {
        return Err(ShardExit::Silent);
    }
    let (fp, rest) = p.split_at(16);
    *p = rest;
    Ok(u128::from_le_bytes(fp.try_into().expect("16 bytes")))
}

fn take_u8(p: &mut &[u8]) -> Result<u8, ShardExit> {
    let (&b, rest) = p.split_first().ok_or(ShardExit::Silent)?;
    *p = rest;
    Ok(b)
}

/// Blocking frame read: refills the reassembly buffer from the socket
/// until one complete frame is available. `None` on EOF, IO failure or a
/// typed frame corruption — all equally terminal for a shard.
fn read_frame(reader: &mut FrameReader, mut sock: &UnixStream) -> Option<(u8, Vec<u8>)> {
    loop {
        match reader.next_frame() {
            Ok(Some(frame)) => return Some(frame),
            Ok(None) => {}
            Err(_) => return None,
        }
        match reader.fill_from(&mut sock) {
            Ok(0) | Err(_) => return None,
            Ok(_) => {}
        }
    }
}

/// Rebuilds an admitted remote candidate's state by replaying its pid path
/// through this shard's own intern tables. `meta` maps every admitted
/// global index to `(parent global index, pid)`; `depth` is the parent's
/// BFS depth.
///
/// `path` holds the ancestor chain of the last replay — `path[d]` is the
/// depth-`d` ancestor's `(global index, state)`, `path[0]` the root — and
/// is extended in place. Candidates arrive sorted by `(parent_idx, pid)`,
/// and BFS indices are monotone in ancestry, so consecutive parents share
/// long ancestor prefixes: the walk up stops at the first ancestor already
/// on `path`, and only the steps below it are replayed. Digests hash
/// content, never intern ids, so the replica's fingerprint matches the
/// producer's.
fn replay_state<P: Process>(
    ctx: &PackedCtx<P>,
    meta: &[(u64, u64)],
    path: &mut Vec<(u64, PackedState)>,
    depth: usize,
    parent_idx: u64,
    pid: u64,
    cache: &mut PackedCache<P>,
) -> Result<PackedState, ShardExit> {
    // The unreplayed part of the parent's ancestor chain, deepest first.
    let mut chain = Vec::new();
    let (mut idx, mut d) = (parent_idx, depth);
    while d > 0 && path.get(d).is_none_or(|&(on_path, _)| on_path != idx) {
        let Some(&(parent, stepped)) = meta.get(idx as usize) else {
            // A candidate for a parent we were never told about: protocol
            // corruption, not a local failure.
            return Err(ShardExit::Silent);
        };
        chain.push((idx, stepped));
        idx = parent;
        d -= 1;
    }
    if d == 0 && idx != 0 {
        return Err(ShardExit::Silent); // a chain that misses the root
    }
    path.truncate(d + 1);
    let step = |cache: &mut PackedCache<P>, state: &PackedState, pid: u64| {
        // Every step of this path succeeded on the shard that admitted it,
        // so a failure here is a genuine model error worth reporting.
        ctx.branch_step_cached(cache, state, pid as usize)
            .map_err(|source| {
                ShardExit::Fatal(SimError::Model {
                    pid: pid as usize,
                    step: state.steps(),
                    source,
                })
            })
    };
    for &(idx, stepped) in chain.iter().rev() {
        let next = step(cache, &path[path.len() - 1].1, stepped)?;
        path.push((idx, next));
    }
    step(cache, &path[path.len() - 1].1, pid)
}

// ---------------------------------------------------------------------------
// The shard state machine
// ---------------------------------------------------------------------------

/// One shard's share of the engine state, driven one coordinator message
/// at a time by [`Shard::handle`]: a budgeted seen backend over its
/// fingerprint slice, a budgeted frontier store of its owned nodes, the
/// layer being expanded, the provenance mirror (`meta`) and the round's
/// pending candidates.
struct Shard<'a, P: Process> {
    ctx: &'a PackedCtx<P>,
    inputs: &'a [u64],
    limits: ExploreLimits,
    cfg: DistConfig,
    /// This shard's id in `0..cfg.shards`.
    id: usize,
    run: RunCfg,
    mem: SpillContext,
    seen: SeenBackend,
    frontier: FrontierStore<NodeCodec>,
    /// One cache per expansion thread for the shard's whole lifetime; the
    /// first also serves the handler's own materialisations, replays and
    /// decision checks.
    caches: Vec<PackedCache<P>>,
    /// Global node index -> (parent global index, pid): the coordinator's
    /// link list mirrored shard-side, extended by every COMMIT. Index 0 is
    /// the root; its entry is never dereferenced.
    meta: Vec<(u64, u64)>,
    /// The last replayed ancestor chain (see `replay_state`).
    path: Vec<(u64, PackedState)>,
    /// The layer popped by the current round, held (and charged to the
    /// tracker as `layer_cost`) until its owned candidates are
    /// materialised at FLUSH.
    layer: Vec<Node>,
    layer_cost: usize,
    /// Rounds started so far: round `r` expands depth `r - 1` and admits
    /// depth `r`.
    round: usize,
    pending: Vec<Cand>,
    /// This round's admissions awaiting indices: how many, and the nodes
    /// of those that will be expanded, in verdict order.
    admitted: usize,
    fresh: Vec<Node>,
    /// Admissions at the horizon with no solo checks to run are never
    /// expanded: only their activity matters, settled at admission (as the
    /// packed engine's `inline_active`) and reported in the next DONE.
    horizon_active: bool,
    /// Exact values of this shard's expansion errors by node index; the
    /// wire carries only their renderings.
    errors: HashMap<u64, SimError>,
}

impl<'a, P: Process + Send + Sync> Shard<'a, P> {
    /// A shard with the root in its frontier if it owns the root.
    fn new(
        ctx: &'a PackedCtx<P>,
        root: PackedState,
        inputs: &'a [u64],
        limits: ExploreLimits,
        cfg: DistConfig,
        id: usize,
    ) -> Result<Self, ShardExit> {
        let mem = SpillContext::new(limits.memory_budget);
        let mut shard = Shard {
            ctx,
            inputs,
            limits,
            cfg,
            id,
            run: RunCfg {
                solo_budget: limits.solo_check_budget,
                symmetric: cfg.symmetric,
                cache_cap: cache_cap_of(limits.memory_budget),
            },
            seen: SeenBackend::new((limits.max_configs / cfg.shards).max(64), &mem),
            frontier: FrontierStore::new(NodeCodec, mem.clone()),
            mem,
            caches: (0..cfg.workers.max(1)).map(|_| PackedCache::new()).collect(),
            meta: vec![(u64::MAX, 0)],
            path: vec![(0, root.clone())],
            layer: Vec::new(),
            layer_cost: 0,
            round: 0,
            pending: Vec::new(),
            admitted: 0,
            fresh: Vec::new(),
            horizon_active: false,
            errors: HashMap::new(),
        };
        let root_fp = ctx.digest_cached(&mut shard.caches[0], &root, cfg.symmetric);
        if shard_of(root_fp, cfg.shards) == id {
            let fresh_root = shard.seen.admit(root_fp)?;
            debug_assert!(fresh_root, "fresh seen set: the root cannot be pre-admitted");
            shard.frontier.push(Node {
                index: 0,
                state: root,
                fp: root_fp,
                expand: true,
            })?;
        }
        Ok(shard)
    }

    /// Handles one coordinator message, passing each reply to `reply` as
    /// soon as it is made. `Ok(true)` after a halting COMMIT: the shard has
    /// sent its telemetry and serves no more.
    #[allow(clippy::too_many_lines)]
    fn handle(
        &mut self,
        kind: u8,
        payload: &[u8],
        reply: &mut impl FnMut(u8, Vec<u8>) -> Result<(), ShardExit>,
    ) -> Result<bool, ShardExit> {
        let (ctx, cfg, id) = (self.ctx, self.cfg, self.id);
        match kind {
            K_ROUND => {
                let expand = payload.first().copied().unwrap_or(0) != 0;
                self.round += 1;
                while let Some(mut node) = self.frontier.pop()? {
                    node.expand = expand;
                    self.layer_cost += NodeCodec.cost(&node);
                    self.layer.push(node);
                }
                assert!(self.layer.len() < REMOTE as usize, "layer slots fit a u32");
                self.mem.tracker().add_resident(self.layer_cost);
                let out = expand_layer(ctx, &self.layer, self.run, (id, cfg.shards), &mut self.caches);
                // Route candidates: owned ones go straight to pending,
                // remote ones to their owner in batched SUCC messages.
                let mut by_dest: Vec<Vec<Cand>> = (0..cfg.shards).map(|_| Vec::new()).collect();
                for cand in out.cands {
                    let dest = shard_of(cand.fp, cfg.shards);
                    if dest == id {
                        self.pending.push(cand);
                    } else {
                        by_dest[dest].push(cand);
                    }
                }
                for (dest, cands) in by_dest.iter().enumerate() {
                    for batch in cands.chunks(SUCC_BATCH) {
                        let mut p = Vec::new();
                        write_varint(&mut p, dest as u64);
                        write_varint(&mut p, batch.len() as u64);
                        for cand in batch {
                            write_varint(&mut p, cand.parent_idx);
                            write_varint(&mut p, cand.pid);
                            p.extend_from_slice(&cand.fp.to_le_bytes());
                        }
                        reply(K_SUCC, p)?;
                    }
                }
                let mut p = Vec::new();
                p.push(u8::from(out.any_active || self.horizon_active));
                self.horizon_active = false;
                write_varint(&mut p, out.events.len() as u64);
                for event in out.events {
                    match event {
                        RoundEvent::SoloFail { idx, pid } => {
                            p.push(0);
                            write_varint(&mut p, idx);
                            write_varint(&mut p, pid);
                        }
                        RoundEvent::Failed { idx, err } => {
                            p.push(1);
                            write_varint(&mut p, idx);
                            let msg = err.to_string();
                            write_varint(&mut p, msg.len() as u64);
                            p.extend_from_slice(msg.as_bytes());
                            self.errors.insert(idx, err);
                        }
                    }
                }
                reply(K_DONE, p)?;
            }
            K_SUCC => {
                let mut p = payload;
                let dest = rv(&mut p)?;
                if dest as usize != id {
                    return Err(ShardExit::Silent); // misrouted: protocol dead
                }
                let count = rv(&mut p)?;
                for _ in 0..count {
                    self.pending.push(Cand {
                        parent_idx: rv(&mut p)?,
                        pid: rv(&mut p)?,
                        fp: take_fp(&mut p)?,
                        slot: REMOTE,
                    });
                }
            }
            K_FLUSH => {
                // The shard-global admission order: the reference's layer
                // order restricted to this shard's owned fingerprints.
                self.pending.sort_unstable_by_key(|c| (c.parent_idx, c.pid));
                self.fresh.clear();
                self.admitted = 0;
                let horizon =
                    self.round == self.limits.depth && self.limits.solo_check_budget.is_none();
                let mut records = Vec::new();
                for cand in self.pending.drain(..) {
                    if !self.seen.admit(cand.fp)? {
                        continue;
                    }
                    // Materialised only now that dedup said fresh.
                    let cache = &mut self.caches[0];
                    let state = if cand.slot == REMOTE {
                        replay_state(
                            ctx,
                            &self.meta,
                            &mut self.path,
                            self.round - 1,
                            cand.parent_idx,
                            cand.pid,
                            cache,
                        )?
                    } else {
                        let parent = &self.layer[cand.slot as usize].state;
                        ctx.branch_step_cached(cache, parent, cand.pid as usize)
                            .expect("previewed edge steps")
                    };
                    debug_assert_eq!(
                        cand.fp,
                        ctx.digest(&state, cfg.symmetric),
                        "candidate digest out of sync with its state"
                    );
                    let decisions: Vec<u64> = (0..state.n())
                        .filter_map(|p| ctx.decision_cached(cache, &state, p))
                        .collect();
                    write_varint(&mut records, cand.parent_idx);
                    write_varint(&mut records, cand.pid);
                    match decision_defect(&decisions, self.inputs) {
                        None => records.push(0),
                        Some(Defect::Validity { decided }) => {
                            records.push(1);
                            write_varint(&mut records, decided);
                        }
                        Some(Defect::Agreement { a, b }) => {
                            records.push(2);
                            write_varint(&mut records, a);
                            write_varint(&mut records, b);
                        }
                    }
                    self.admitted += 1;
                    if horizon {
                        self.horizon_active |= ctx.has_active(&state);
                    } else {
                        self.fresh.push(Node {
                            index: 0, // assigned by the COMMIT that follows
                            state,
                            fp: cand.fp,
                            expand: true,
                        });
                    }
                }
                let mut p = Vec::new();
                write_varint(&mut p, self.admitted as u64);
                p.extend_from_slice(&records);
                reply(K_VERDICTS, p)?;
                self.layer.clear();
                self.mem.tracker().sub_resident(self.layer_cost);
                self.layer_cost = 0;
            }
            K_COMMIT => {
                let mut p = payload;
                if take_u8(&mut p)? != 0 {
                    // Halt: report telemetry and stop.
                    let mut sp = Vec::new();
                    write_varint(&mut sp, self.mem.tracker().bytes_spilled());
                    write_varint(&mut sp, self.mem.tracker().peak_resident_bytes() as u64);
                    write_varint(&mut sp, self.seen.seen_resident_bytes() as u64);
                    write_varint(&mut sp, ctx.intern_resident_bytes() as u64);
                    write_varint(&mut sp, self.seen.fpset_disk_bytes());
                    reply(K_STATS, sp)?;
                    return Ok(true);
                }
                let mine = rv(&mut p)? as usize;
                if mine != self.admitted {
                    return Err(ShardExit::Silent);
                }
                let mut indices = Vec::with_capacity(mine);
                for _ in 0..mine {
                    indices.push(rv(&mut p)?);
                }
                let link_count = rv(&mut p)? as usize;
                self.meta.reserve(link_count);
                for _ in 0..link_count {
                    let parent = rv(&mut p)?;
                    let pid = rv(&mut p)?;
                    self.meta.push((parent, pid));
                }
                // Horizon admissions take no frontier slot (`fresh` is then
                // empty): their indices are only mirrored in `meta`.
                for (mut node, idx) in self.fresh.drain(..).zip(indices) {
                    debug_assert!((idx as usize) < self.meta.len(), "index past the link mirror");
                    node.index = idx as usize;
                    self.frontier.push(node)?;
                }
            }
            _ => return Err(ShardExit::Silent),
        }
        Ok(false)
    }
}

/// Serves one shard over a socket until a halting COMMIT: read a frame,
/// run the handler, write each reply as a frame. A fatal failure goes
/// upstream in a [`K_ERROR`] frame before the shard exits.
pub(crate) fn shard_loop<P: Process + Send + Sync>(
    ctx: &PackedCtx<P>,
    root: PackedState,
    inputs: &[u64],
    limits: ExploreLimits,
    cfg: DistConfig,
    id: usize,
    sock: UnixStream,
) {
    let mut wire = Vec::new();
    let mut reply = |kind: u8, payload: Vec<u8>| {
        wire.clear();
        encode_frame(kind, &payload, &mut wire);
        (&sock).write_all(&wire).map_err(|_| ShardExit::Silent)
    };
    let served = Shard::new(ctx, root, inputs, limits, cfg, id).and_then(|mut shard| {
        let mut reader = FrameReader::new();
        loop {
            let (kind, payload) = read_frame(&mut reader, &sock).ok_or(ShardExit::Silent)?;
            if shard.handle(kind, &payload, &mut reply)? {
                return Ok(());
            }
        }
    });
    if let Err(ShardExit::Fatal(err)) = served {
        let _ = reply(K_ERROR, err.to_string().into_bytes());
    }
}

// ---------------------------------------------------------------------------
// Coordinator side: transports
// ---------------------------------------------------------------------------

/// What the coordinator receives from a shard.
enum Inbound {
    /// One reply (across processes, a reassembled, CRC-verified frame).
    Frame(u8, Vec<u8>),
    /// The shard stopped serving: its stream ended (EOF, IO failure or
    /// frame corruption) or its handler failed.
    Gone,
}

/// How the coordinator reaches its shards.
trait Transport {
    /// Delivers one message to `shard`.
    fn send(&mut self, shard: usize, kind: u8, payload: &[u8]) -> Result<(), SimError>;
    /// Delivers one message to every shard. `wide` says the round's
    /// frontier holds at least [`MIN_PARALLEL_CONFIGS`] nodes: work enough
    /// to pay for a thread per shard.
    fn broadcast(&mut self, kind: u8, payload: &[u8], wide: bool) -> Result<(), SimError>;
    /// The next reply from any shard; `None` once none can come.
    fn recv(&mut self) -> Option<(usize, Inbound)>;
    /// The exact error behind `shard`'s failure to expand node `Some(idx)`,
    /// or behind its stopping (`None`), if this transport can see it.
    fn exact(&mut self, shard: usize, node: Option<u64>) -> Option<SimError>;
    /// Why `shard` stopped serving.
    fn stopped(&mut self, shard: usize) -> SimError {
        self.exact(shard, None).unwrap_or_else(|| ShardExit::Silent.into_error(shard))
    }
}

/// The process transport: one writer per shard on the calling thread, one
/// detached reader thread per shard draining frames into a single channel.
/// Readers *always* drain — that is the deadlock-freedom argument: a
/// shard's writes complete regardless of what the coordinator is doing, so
/// a shard busy expanding eventually returns to its read loop and unblocks
/// any coordinator forward stuck on its socket.
struct Sockets {
    writers: Vec<UnixStream>,
    rx: mpsc::Receiver<(usize, Inbound)>,
}

impl Sockets {
    fn new(streams: Vec<UnixStream>) -> std::io::Result<Self> {
        let (tx, rx) = mpsc::channel();
        let mut writers = Vec::with_capacity(streams.len());
        for (id, stream) in streams.into_iter().enumerate() {
            let rd = stream.try_clone()?;
            let tx = tx.clone();
            std::thread::spawn(move || {
                let mut reader = FrameReader::new();
                while let Some((kind, payload)) = read_frame(&mut reader, &rd) {
                    if tx.send((id, Inbound::Frame(kind, payload))).is_err() {
                        return; // hub dropped: nobody is listening
                    }
                }
                let _ = tx.send((id, Inbound::Gone));
            });
            writers.push(stream);
        }
        Ok(Sockets { writers, rx })
    }
}

impl Transport for Sockets {
    fn send(&mut self, shard: usize, kind: u8, payload: &[u8]) -> Result<(), SimError> {
        let mut wire = Vec::with_capacity(frame_len(payload.len()));
        encode_frame(kind, payload, &mut wire);
        self.writers[shard]
            .write_all(&wire)
            .map_err(|e| wire_err(format_args!("send to shard {shard}: {e}")))
    }

    fn broadcast(&mut self, kind: u8, payload: &[u8], _wide: bool) -> Result<(), SimError> {
        (0..self.writers.len()).try_for_each(|shard| self.send(shard, kind, payload))
    }

    fn recv(&mut self) -> Option<(usize, Inbound)> {
        self.rx.recv().ok()
    }

    fn exact(&mut self, _shard: usize, _node: Option<u64>) -> Option<SimError> {
        None
    }
}

/// The in-process transport: every shard lives here, and delivering a
/// message is a call to its owner's handler. Replies queue in `inbox`.
struct Local<'a, P: Process> {
    /// A serving shard or, once it stopped, the exact error of a failed
    /// one until the coordinator takes it.
    shards: Vec<Result<Shard<'a, P>, Option<SimError>>>,
    inbox: VecDeque<(usize, Inbound)>,
}

/// One handler call's outcome and replies, in order.
type Served = (Result<bool, ShardExit>, Vec<(u8, Vec<u8>)>);

/// Runs one shard's handler on one message, collecting its replies.
fn call<P: Process + Send + Sync>(shard: &mut Shard<'_, P>, kind: u8, payload: &[u8]) -> Served {
    let mut out = Vec::new();
    let served = shard.handle(kind, payload, &mut |kind, p| {
        out.push((kind, p));
        Ok(())
    });
    (served, out)
}

impl<P: Process + Send + Sync> Local<'_, P> {
    /// Queues a call's replies. A halted or failed shard stops serving; a
    /// failed one queues [`Inbound::Gone`] after its replies.
    fn settle(&mut self, shard: usize, (served, out): Served) {
        self.inbox.extend(out.into_iter().map(|(kind, p)| (shard, Inbound::Frame(kind, p))));
        match served {
            Ok(false) => {}
            Ok(true) => self.shards[shard] = Err(None),
            Err(exit) => {
                self.shards[shard] = Err(Some(exit.into_error(shard)));
                self.inbox.push_back((shard, Inbound::Gone));
            }
        }
    }
}

impl<P: Process + Send + Sync> Transport for Local<'_, P> {
    fn send(&mut self, shard: usize, kind: u8, payload: &[u8]) -> Result<(), SimError> {
        let Ok(state) = &mut self.shards[shard] else {
            return Err(self.stopped(shard));
        };
        let served = call(state, kind, payload);
        self.settle(shard, served);
        Ok(())
    }

    fn broadcast(&mut self, kind: u8, payload: &[u8], wide: bool) -> Result<(), SimError> {
        if !wide || self.shards.len() == 1 {
            return (0..self.shards.len()).try_for_each(|shard| self.send(shard, kind, payload));
        }
        if let Some(shard) = self.shards.iter().position(Result::is_err) {
            return Err(self.stopped(shard));
        }
        let calls: Vec<Served> = std::thread::scope(|scope| {
            let spawn = |shard| scope.spawn(move || call(shard, kind, payload));
            let handles: Vec<_> = self.shards.iter_mut().flatten().map(spawn).collect();
            handles.into_iter().map(|h| h.join().expect("shard handler panicked")).collect()
        });
        for (shard, served) in calls.into_iter().enumerate() {
            self.settle(shard, served);
        }
        Ok(())
    }

    fn recv(&mut self) -> Option<(usize, Inbound)> {
        self.inbox.pop_front()
    }

    fn exact(&mut self, shard: usize, node: Option<u64>) -> Option<SimError> {
        match (&mut self.shards[shard], node) {
            (Ok(state), Some(idx)) => state.errors.remove(&idx),
            (Err(failed), None) => failed.take(),
            _ => None,
        }
    }
}

/// The coordinator's end of a transport: frame accounting, stopped shards
/// and the halt.
struct Hub<T: Transport> {
    link: T,
    gone: Vec<bool>,
    /// Messages sent plus received ([`ExploreStats::frames_exchanged`]).
    frames_exchanged: u64,
    /// Their encoded frame bytes, headers and CRCs included.
    frame_bytes: u64,
    halted: bool,
}

impl<T: Transport> Hub<T> {
    fn new(link: T, shards: usize) -> Self {
        Hub {
            link,
            gone: vec![false; shards],
            frames_exchanged: 0,
            frame_bytes: 0,
            halted: false,
        }
    }

    /// Counts `frames` messages of a `payload_len`-byte payload as the
    /// frames they are on a socket.
    fn count(&mut self, frames: usize, payload_len: usize) {
        self.frames_exchanged += frames as u64;
        self.frame_bytes += (frames * frame_len(payload_len)) as u64;
    }

    fn send(&mut self, shard: usize, kind: u8, payload: &[u8]) -> Result<(), SimError> {
        self.count(1, payload.len());
        self.link.send(shard, kind, payload)
    }

    fn broadcast(&mut self, kind: u8, payload: &[u8], wide: bool) -> Result<(), SimError> {
        self.count(self.gone.len(), payload.len());
        self.link.broadcast(kind, payload, wide)
    }

    fn recv(&mut self) -> Option<(usize, Inbound)> {
        let (shard, inbound) = self.link.recv()?;
        match &inbound {
            Inbound::Gone => self.gone[shard] = true,
            Inbound::Frame(_, payload) => self.count(1, payload.len()),
        }
        Some((shard, inbound))
    }

    /// Best-effort halting COMMIT to every shard; idempotent. Shards that
    /// already stopped fail the send, which is fine — they are where we
    /// are sending them.
    fn halt_all(&mut self) {
        if self.halted {
            return;
        }
        self.halted = true;
        self.count(self.gone.len(), 1);
        for shard in 0..self.gone.len() {
            let _ = self.link.send(shard, K_COMMIT, &[1]);
        }
    }
}

/// A halt reaches the shards on **every** exit path — normal, error or
/// unwinding — or socket shards would block forever on a socket the
/// reader threads keep open.
impl<T: Transport> Drop for Hub<T> {
    fn drop(&mut self) {
        self.halt_all();
    }
}

/// A shard process reported a fatal failure before exiting.
fn reported(payload: &[u8]) -> SimError {
    SimError::Spill {
        detail: format!("dist shard: {}", String::from_utf8_lossy(payload)),
    }
}

// ---------------------------------------------------------------------------
// Coordinator side: the round loop
// ---------------------------------------------------------------------------

/// Varint field read, coordinator side.
fn rv_c(p: &mut &[u8]) -> Result<u64, SimError> {
    read_varint(p).map_err(|_| wire_err("truncated varint field"))
}

/// One entry of the coordinator's merge sweep: a round's solo failures,
/// expansion errors and fresh admissions, totally ordered by
/// `(node index, stage, pid)` — events attach to the node being expanded
/// (stage 0), verdicts to the parent's outgoing edges (stage 1), exactly
/// the reference's within-layer processing order.
enum SweepItem {
    Solo { idx: u64, pid: u64 },
    Failed { shard: usize, idx: u64, msg: String },
    Fresh {
        shard: usize,
        parent_idx: u64,
        pid: u64,
        defect: Option<Defect>,
    },
}

impl SweepItem {
    fn key(&self) -> (u64, u8, u64) {
        match *self {
            SweepItem::Solo { idx, pid } => (idx, 0, pid),
            // An expansion aborts the whole node, before any of its edges
            // (and a node has at most one event), so the pid slot is moot.
            SweepItem::Failed { idx, .. } => (idx, 0, 0),
            SweepItem::Fresh { parent_idx, pid, .. } => (parent_idx, 1, pid),
        }
    }
}

/// Gathers the expansion phase: forwards [`K_SUCC`] messages to their
/// owner as they arrive, collects every shard's [`K_DONE`].
fn gather_round<T: Transport>(hub: &mut Hub<T>) -> Result<(bool, Vec<SweepItem>), SimError> {
    let shards = hub.gone.len();
    let mut any_active = false;
    let mut items = Vec::new();
    let mut done = vec![false; shards];
    while done.iter().any(|d| !d) {
        let Some((shard, inbound)) = hub.recv() else {
            return Err(wire_err("every shard fell silent mid-round"));
        };
        match inbound {
            Inbound::Gone => return Err(hub.link.stopped(shard)),
            Inbound::Frame(K_SUCC, payload) => {
                let mut peek = payload.as_slice();
                let dest = rv_c(&mut peek)? as usize;
                if dest >= shards || dest == shard {
                    return Err(wire_err("candidate routed to an impossible shard"));
                }
                hub.send(dest, K_SUCC, &payload)?;
            }
            Inbound::Frame(K_DONE, payload) => {
                if done[shard] {
                    return Err(wire_err("shard finished the same round twice"));
                }
                let mut p = payload.as_slice();
                let pp = &mut p;
                let active = {
                    let (&b, rest) = pp.split_first().ok_or_else(|| wire_err("empty DONE"))?;
                    *pp = rest;
                    b != 0
                };
                any_active |= active;
                let events = rv_c(pp)?;
                for _ in 0..events {
                    let (&tag, rest) = pp.split_first().ok_or_else(|| wire_err("truncated event"))?;
                    *pp = rest;
                    let idx = rv_c(pp)?;
                    match tag {
                        0 => {
                            let pid = rv_c(pp)?;
                            items.push(SweepItem::Solo { idx, pid });
                        }
                        1 => {
                            let len = rv_c(pp)? as usize;
                            if len > pp.len() {
                                return Err(wire_err("event message past payload end"));
                            }
                            let (msg, rest) = pp.split_at(len);
                            *pp = rest;
                            items.push(SweepItem::Failed {
                                shard,
                                idx,
                                msg: String::from_utf8_lossy(msg).into_owned(),
                            });
                        }
                        _ => return Err(wire_err("unknown event tag")),
                    }
                }
                done[shard] = true;
            }
            Inbound::Frame(K_ERROR, payload) => return Err(reported(&payload)),
            Inbound::Frame(..) => return Err(wire_err("unexpected frame kind during a round")),
        }
    }
    Ok((any_active, items))
}

/// Gathers one [`K_VERDICTS`] message per shard after the flush barrier.
fn gather_verdicts<T: Transport>(
    hub: &mut Hub<T>,
    items: &mut Vec<SweepItem>,
) -> Result<(), SimError> {
    let mut got = vec![false; hub.gone.len()];
    while got.iter().any(|g| !g) {
        let Some((shard, inbound)) = hub.recv() else {
            return Err(wire_err("every shard fell silent mid-flush"));
        };
        match inbound {
            Inbound::Gone => return Err(hub.link.stopped(shard)),
            Inbound::Frame(K_VERDICTS, payload) => {
                if got[shard] {
                    return Err(wire_err("shard flushed the same round twice"));
                }
                let mut p = payload.as_slice();
                let count = rv_c(&mut p)?;
                for _ in 0..count {
                    let parent_idx = rv_c(&mut p)?;
                    let pid = rv_c(&mut p)?;
                    let (&tag, rest) =
                        p.split_first().ok_or_else(|| wire_err("truncated verdict"))?;
                    p = rest;
                    let defect = match tag {
                        0 => None,
                        1 => Some(Defect::Validity {
                            decided: rv_c(&mut p)?,
                        }),
                        2 => Some(Defect::Agreement {
                            a: rv_c(&mut p)?,
                            b: rv_c(&mut p)?,
                        }),
                        _ => return Err(wire_err("unknown defect tag")),
                    };
                    items.push(SweepItem::Fresh {
                        shard,
                        parent_idx,
                        pid,
                        defect,
                    });
                }
                got[shard] = true;
            }
            Inbound::Frame(K_ERROR, payload) => return Err(reported(&payload)),
            Inbound::Frame(..) => return Err(wire_err("unexpected frame kind during a flush")),
        }
    }
    Ok(())
}

/// Aggregated shard telemetry.
#[derive(Default)]
struct AggStats {
    bytes_spilled: u64,
    peak_resident: usize,
    seen_resident: usize,
    intern_resident: usize,
    fpset_disk: u64,
}

/// Halts every shard and folds their [`K_STATS`] reports: additive
/// counters sum; residency high-water marks take the max (per-shard
/// budgets bind per shard, and in-process shards all report the same
/// shared intern tables).
fn drain_stats<T: Transport>(hub: &mut Hub<T>) -> AggStats {
    hub.halt_all();
    let shards = hub.gone.len();
    let mut agg = AggStats::default();
    let mut got = vec![false; shards];
    while (0..shards).any(|s| !got[s] && !hub.gone[s]) {
        let Some((shard, inbound)) = hub.recv() else { break };
        match inbound {
            Inbound::Frame(kind, payload) if kind == K_STATS && !got[shard] => {
                let mut p = payload.as_slice();
                let rv0 = |p: &mut &[u8]| read_varint(p).unwrap_or(0);
                agg.bytes_spilled += rv0(&mut p);
                agg.peak_resident = agg.peak_resident.max(rv0(&mut p) as usize);
                agg.seen_resident += rv0(&mut p) as usize;
                agg.intern_resident = agg.intern_resident.max(rv0(&mut p) as usize);
                agg.fpset_disk += rv0(&mut p);
                got[shard] = true;
            }
            // Stray in-flight frames from the cut round and duplicate
            // Gones are expected here; skip them.
            Inbound::Frame(..) | Inbound::Gone => {}
        }
    }
    agg
}

/// The coordinator's round loop: the distributed counterpart of the
/// packed engine's committer. Every stateful decision — admission count,
/// cap, links, violation selection, completeness, layer bookkeeping —
/// happens here, single-threaded, on the merge sweep's totally ordered
/// stream; shards only influence *when* verdicts arrive, never what the
/// sweep does with them.
fn coordinate_loop<T: Transport>(
    hub: &mut Hub<T>,
    limits: &ExploreLimits,
    root_violation: Option<ExploreOutcome>,
) -> Result<(ExploreOutcome, ExploreStats), SimError> {
    let shards = hub.gone.len();
    let mut configs = 1usize; // the root
    let mut links: Vec<Link> = Vec::new();
    let mut complete = true;
    let mut frontier_peak = 1usize;
    let mut depth_reached = 0usize;
    let mut frontier_len = 1usize;
    macro_rules! finish {
        ($outcome:expr) => {{
            let outcome = $outcome;
            let agg = drain_stats(hub);
            return Ok((
                outcome,
                ExploreStats {
                    configs,
                    frontier_peak,
                    depth_reached,
                    bytes_spilled: agg.bytes_spilled,
                    peak_resident_bytes: agg.peak_resident,
                    seen_resident_bytes: agg.seen_resident,
                    intern_resident_bytes: agg.intern_resident,
                    fpset_disk_bytes: agg.fpset_disk,
                    frames_exchanged: hub.frames_exchanged,
                    frame_bytes: hub.frame_bytes,
                    ..ExploreStats::default()
                },
            ));
        }};
    }

    if let Some(violation) = root_violation {
        finish!(violation);
    }
    loop {
        if frontier_len == 0 {
            finish!(ExploreOutcome::Clean { configs, complete });
        }
        // The layer is fully admitted by the time the loop comes back
        // around, so this is the reference's at-layer-top peak — partial
        // layers cut mid-sweep never reach here.
        frontier_peak = frontier_peak.max(frontier_len);
        let expand = depth_reached < limits.depth;
        let wide = frontier_len >= MIN_PARALLEL_CONFIGS;
        hub.broadcast(K_ROUND, &[u8::from(expand)], wide)?;
        let (any_active, mut items) = gather_round(hub)?;
        if !expand && any_active {
            complete = false;
        }
        hub.broadcast(K_FLUSH, &[], wide)?;
        gather_verdicts(hub, &mut items)?;
        items.sort_by_key(SweepItem::key);
        let mut per_shard: Vec<Vec<u64>> = (0..shards).map(|_| Vec::new()).collect();
        let mut round_links: Vec<(u64, u64)> = Vec::new();
        for item in items {
            match item {
                SweepItem::Solo { idx, pid } => {
                    finish!(ExploreOutcome::ObstructionFailure {
                        pid: pid as usize,
                        schedule: schedule_of(&links, link_of(idx as usize)),
                    });
                }
                SweepItem::Failed { shard, idx, msg } => {
                    let err = hub
                        .link
                        .exact(shard, Some(idx))
                        .unwrap_or(SimError::Spill { detail: msg });
                    hub.halt_all();
                    return Err(err);
                }
                SweepItem::Fresh {
                    shard,
                    parent_idx,
                    pid,
                    defect,
                } => {
                    configs += 1;
                    if configs > limits.max_configs {
                        // Mirror of the reference: the over-cap admission
                        // stays counted, nothing else of the layer does —
                        // not even its link or violation check.
                        finish!(ExploreOutcome::Clean {
                            configs,
                            complete: false,
                        });
                    }
                    let child_link = links.len();
                    links.push((link_of(parent_idx as usize), pid as usize));
                    if let Some(defect) = defect {
                        finish!(defect.into_outcome(schedule_of(&links, child_link)));
                    }
                    per_shard[shard].push((child_link + 1) as u64);
                    round_links.push((parent_idx, pid));
                }
            }
        }
        if expand {
            depth_reached += 1;
        }
        frontier_len = round_links.len();
        if frontier_len == 0 {
            continue; // the loop top finishes with the final counters
        }
        for (shard, indices) in per_shard.iter().enumerate() {
            let mut p = vec![0u8];
            write_varint(&mut p, indices.len() as u64);
            for &idx in indices {
                write_varint(&mut p, idx);
            }
            write_varint(&mut p, round_links.len() as u64);
            for &(parent_idx, pid) in &round_links {
                write_varint(&mut p, parent_idx);
                write_varint(&mut p, pid);
            }
            hub.send(shard, K_COMMIT, &p)?;
        }
    }
}

// ---------------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------------

/// Sharded exploration within one process: shards sharing one
/// [`PackedCtx`] partition the fingerprint space, and the coordinator on
/// the calling thread delivers each message by calling its owner's
/// handler directly — the messages process shards exchange as frames
/// ([`shard_serve`]), with no socket in between. Rounds whose frontier
/// reaches the packed engine's parallel threshold run the shards on
/// scoped threads; narrower ones spawn nothing. Outcomes and semantic
/// stats are bit-identical to [`crate::checker::explore_stats`] and
/// [`crate::reference::reference_explore`] at any `shards × workers ×
/// memory_budget` — see the module docs for the argument.
///
/// # Errors
///
/// Propagates [`SimError`] exactly as the single-process engines do,
/// including the exact value of a shard-local failure.
///
/// # Panics
///
/// Panics if `cfg.shards == 0`.
pub fn explore_sharded<P: Protocol>(
    protocol: &P,
    inputs: &[u64],
    limits: ExploreLimits,
    cfg: DistConfig,
) -> Result<(ExploreOutcome, ExploreStats), SimError>
where
    P::Proc: Send + Sync,
{
    assert!(cfg.shards >= 1, "explore_sharded needs at least one shard");
    let machine = Machine::start(protocol, inputs)?;
    let ctx = machine.packed_ctx();
    let root = machine.pack(&ctx);
    if let Some(violation) = decision_violation(&machine, inputs, NO_LINK, &[]) {
        let stats = ExploreStats {
            configs: 1,
            frontier_peak: 1,
            ..ExploreStats::default()
        };
        return Ok((violation, stats));
    }
    let shards = (0..cfg.shards)
        .map(|shard| match Shard::new(&ctx, root.clone(), inputs, limits, cfg, shard) {
            Ok(state) => Ok(Ok(state)),
            Err(exit) => Err(exit.into_error(shard)),
        })
        .collect::<Result<_, _>>()?;
    let local = Local {
        shards,
        inbox: VecDeque::new(),
    };
    let mut hub = Hub::new(local, cfg.shards);
    coordinate_loop(&mut hub, &limits, None)
}

/// Multi-process coordinator: drives already-connected shard processes
/// (ordered by shard id — see [`accept_shards`]) through the round
/// protocol. The coordinator needs no packed context of its own: root
/// ownership and candidate states are shard-side concerns; it holds only
/// the provenance links and the counters.
///
/// # Errors
///
/// As [`explore_sharded`]; a dead shard process surfaces as
/// [`SimError::Spill`].
///
/// # Panics
///
/// Panics if `shard_streams.len() != cfg.shards` or `cfg.shards == 0`.
pub fn coordinate<P: Protocol>(
    protocol: &P,
    inputs: &[u64],
    limits: ExploreLimits,
    cfg: DistConfig,
    shard_streams: Vec<UnixStream>,
) -> Result<(ExploreOutcome, ExploreStats), SimError> {
    assert!(cfg.shards >= 1, "coordinate needs at least one shard");
    assert_eq!(
        shard_streams.len(),
        cfg.shards,
        "one connected stream per shard"
    );
    let machine = Machine::start(protocol, inputs)?;
    let root_violation = decision_violation(&machine, inputs, NO_LINK, &[]);
    let sockets = Sockets::new(shard_streams).map_err(|e| wire_err(format_args!("hub: {e}")))?;
    coordinate_loop(&mut Hub::new(sockets, cfg.shards), &limits, root_violation)
}

/// Shard-process entry point: builds the protocol's packed context,
/// announces itself with a HELLO frame and serves the round protocol
/// until a halting COMMIT (or the coordinator vanishes). Frames carry
/// fingerprints and provenance only — intern ids are local to this
/// process, so admitted remote candidates are replayed through its own tables.
///
/// # Errors
///
/// Propagates [`SimError`] from starting the protocol's machine and
/// [`SimError::Spill`] if the coordinator is unreachable at HELLO time.
pub fn shard_serve<P: Protocol>(
    protocol: &P,
    inputs: &[u64],
    limits: ExploreLimits,
    cfg: DistConfig,
    shard: usize,
    mut sock: UnixStream,
) -> Result<(), SimError>
where
    P::Proc: Send + Sync,
{
    assert!(shard < cfg.shards, "shard id within the partition");
    let machine = Machine::start(protocol, inputs)?;
    let ctx = machine.packed_ctx();
    let root = machine.pack(&ctx);
    let mut hello = Vec::new();
    write_varint(&mut hello, shard as u64);
    let mut wire = Vec::new();
    encode_frame(K_HELLO, &hello, &mut wire);
    sock.write_all(&wire)
        .map_err(|e| wire_err(format_args!("hello: {e}")))?;
    shard_loop(&ctx, root, inputs, limits, cfg, shard, sock);
    Ok(())
}

/// Accepts `shards` connections on `listener` and orders them by the
/// shard id each announces in its HELLO frame, so [`coordinate`] can
/// address shard `i` at index `i` regardless of connection order.
///
/// # Errors
///
/// IO failures from the listener, plus `InvalidData` for a connection
/// whose first frame is not a well-formed HELLO with a fresh id.
pub fn accept_shards(listener: &UnixListener, shards: usize) -> std::io::Result<Vec<UnixStream>> {
    use std::io::{Error, ErrorKind};
    let invalid = |what: &str| Error::new(ErrorKind::InvalidData, format!("dist hello: {what}"));
    let mut slots: Vec<Option<UnixStream>> = (0..shards).map(|_| None).collect();
    for _ in 0..shards {
        let (mut sock, _) = listener.accept()?;
        let mut reader = FrameReader::new();
        let id = loop {
            match reader.next_frame() {
                Ok(Some((K_HELLO, payload))) => {
                    let mut p = payload.as_slice();
                    break read_varint(&mut p).map_err(|_| invalid("truncated id"))? as usize;
                }
                Ok(Some(_)) => return Err(invalid("expected a HELLO frame")),
                Err(_) => return Err(invalid("corrupt greeting")),
                Ok(None) => {
                    if reader.fill_from(&mut sock)? == 0 {
                        return Err(invalid("connection closed before HELLO"));
                    }
                }
            }
        };
        if id >= shards {
            return Err(invalid("shard id out of range"));
        }
        if slots[id].replace(sock).is_some() {
            return Err(invalid("duplicate shard id"));
        }
    }
    Ok(slots.into_iter().map(|s| s.expect("every slot filled")).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::reference_explore;
    use crate::strawmen::{OneMaxRegister, OneRegister};
    use cbh_core::cas::CasConsensus;
    use cbh_core::maxreg::MaxRegConsensus;

    fn agree<P: Protocol>(protocol: &P, inputs: &[u64], limits: ExploreLimits)
    where
        P::Proc: Send + Sync,
    {
        let oracle = reference_explore(protocol, inputs, limits).unwrap();
        for shards in [1, 2, 3] {
            for workers in [1, 2] {
                let cfg = DistConfig {
                    shards,
                    workers,
                    symmetric: false,
                };
                let dist = explore_sharded(protocol, inputs, limits, cfg).unwrap();
                assert_eq!(
                    dist, oracle,
                    "sharded run diverged at {shards} shards x {workers} workers"
                );
            }
        }
    }

    #[test]
    fn sharded_matches_reference_on_clean_protocols() {
        agree(
            &CasConsensus::new(3),
            &[0, 1, 2],
            ExploreLimits {
                depth: 10,
                max_configs: 100_000,
                solo_check_budget: Some(10),
                memory_budget: None,
                checkpoint_every: None,
            },
        );
    }

    #[test]
    fn sharded_matches_reference_on_violations_including_the_schedule() {
        agree(&OneMaxRegister::new(), &[0, 1], ExploreLimits::default());
        agree(&OneRegister::new(3), &[0, 1, 1], ExploreLimits::default());
    }

    #[test]
    fn sharded_matches_reference_under_the_config_cap() {
        for cap in [1, 2, 7, 50, 400] {
            agree(
                &MaxRegConsensus::new(2),
                &[1, 0],
                ExploreLimits {
                    depth: 12,
                    max_configs: cap,
                    solo_check_budget: None,
                    memory_budget: None,
                    checkpoint_every: None,
                },
            );
        }
    }

    #[test]
    fn sharded_matches_reference_at_shallow_horizons() {
        // Both horizon paths: without solo checks a shard settles the
        // horizon layer's activity at admission; with them the layer is
        // held for a solo-probing round. CAS at n = 3 ends at depth 3, so
        // its horizon layer there is all-terminal and the run complete.
        for solo_check_budget in [None, Some(64)] {
            for depth in 0..8 {
                let limits = ExploreLimits {
                    depth,
                    max_configs: 100_000,
                    solo_check_budget,
                    memory_budget: None,
                    checkpoint_every: None,
                };
                agree(&MaxRegConsensus::new(3), &[0, 1, 2], limits);
                agree(&CasConsensus::new(3), &[0, 1, 2], limits);
            }
        }
    }

    #[test]
    fn shared_path_replay_matches_root_replay_and_fingerprints() {
        // A breadth-first search in the reference's admission order yields
        // the provenance mirror every shard holds. Each shard of a 2-shard
        // run replays its owned nodes in that order, which is
        // `(parent_idx, pid)` order within and across rounds, through one
        // shared path; every state must match a from-root replay and its
        // fingerprint.
        let protocol = MaxRegConsensus::new(3);
        let machine = Machine::start(&protocol, &[0, 1, 2]).unwrap();
        let ctx = machine.packed_ctx();
        let root = machine.pack(&ctx);
        let mut cache = PackedCache::new();
        let mut meta: Vec<(u64, u64)> = vec![(u64::MAX, 0)];
        let mut nodes = vec![(root.clone(), ctx.digest(&root, false), 0usize)];
        let mut seen: std::collections::HashSet<u128> = [nodes[0].1].into();
        let mut next = 0;
        while next < nodes.len() {
            let (state, _, depth) = nodes[next].clone();
            if depth < 10 {
                for pid in (0..state.n()).filter(|&p| ctx.is_active(&state, p)) {
                    let child = ctx.branch_step_cached(&mut cache, &state, pid).unwrap();
                    let fp = ctx.digest(&child, false);
                    if seen.insert(fp) {
                        meta.push((next as u64, pid as u64));
                        nodes.push((child, fp, depth + 1));
                    }
                }
            }
            next += 1;
        }
        assert!(nodes.len() > 500, "too small a space to share paths");
        for shard in 0..2 {
            let mut path = vec![(0, root.clone())];
            let mut replays = 0;
            for (idx, (_, fp, depth)) in nodes.iter().enumerate().skip(1) {
                if shard_of(*fp, 2) != shard {
                    continue;
                }
                let (parent, pid) = meta[idx];
                let shared =
                    replay_state(&ctx, &meta, &mut path, depth - 1, parent, pid, &mut cache)
                        .unwrap_or_else(|_| panic!("shared-path replay of node {idx} failed"));
                let mut sched = Vec::new();
                let mut at = idx as u64;
                while at != 0 {
                    sched.push(meta[at as usize].1 as usize);
                    at = meta[at as usize].0;
                }
                let mut from_root = root.clone();
                for &pid in sched.iter().rev() {
                    ctx.step_cached(&mut cache, &mut from_root, pid).unwrap();
                }
                let digest = ctx.digest(&shared, false);
                assert_eq!(
                    digest,
                    ctx.digest(&from_root, false),
                    "node {idx} vs from-root replay"
                );
                assert_eq!(digest, *fp, "node {idx} vs its fingerprint");
                replays += 1;
            }
            assert!(replays > 0, "shard {shard} owns no node");
        }
    }

    #[test]
    fn sharded_matches_reference_under_a_starvation_budget() {
        // memory_budget: Some(0) forces every tier (frontier spill, seen-set
        // disk runs, interner eviction) onto its most hostile path in every
        // shard; the semantic triple must not move.
        agree(
            &MaxRegConsensus::new(2),
            &[0, 1],
            ExploreLimits {
                depth: 9,
                max_configs: 100_000,
                solo_check_budget: None,
                memory_budget: Some(0),
                checkpoint_every: None,
            },
        );
    }

    #[test]
    fn thread_and_process_shards_speak_one_wire() {
        // Drive the process-shard discipline without spawning processes:
        // each socket shard runs on a thread and builds its own packed
        // context, exactly as a child process would. In-process shards (one
        // shared context, direct calls) must then count the very same
        // frames. The n = 4 row's rounds reach the parallel threshold, so
        // there the in-process shards run their handlers on threads.
        for (n, depth) in [(2, 8), (4, 10)] {
            let protocol = MaxRegConsensus::new(n);
            let inputs: Vec<u64> = (0..n as u64).collect();
            let limits = ExploreLimits {
                depth,
                ..ExploreLimits::default()
            };
            let oracle = reference_explore(&protocol, &inputs, limits).unwrap();
            if n == 4 {
                assert!(oracle.1.frontier_peak >= MIN_PARALLEL_CONFIGS, "{:?}", oracle.1);
            }
            for shards in [1usize, 2, 3] {
                let (coord_ends, shard_ends): (Vec<_>, Vec<_>) =
                    (0..shards).map(|_| UnixStream::pair().unwrap()).unzip();
                let cfg = DistConfig {
                    shards,
                    workers: 1,
                    symmetric: false,
                };
                let separate = std::thread::scope(|scope| {
                    for (shard, sock) in shard_ends.into_iter().enumerate() {
                        let (protocol, inputs) = (&protocol, &inputs);
                        scope.spawn(move || {
                            let machine = Machine::start(protocol, inputs).unwrap();
                            let ctx = machine.packed_ctx();
                            let root = machine.pack(&ctx);
                            shard_loop(&ctx, root, inputs, limits, cfg, shard, sock);
                        });
                    }
                    coordinate(&protocol, &inputs, limits, cfg, coord_ends)
                })
                .unwrap();
                assert_eq!(separate, oracle, "n = {n}: own contexts diverged at {shards} shards");
                let shared = explore_sharded(&protocol, &inputs, limits, cfg).unwrap();
                assert_eq!(shared, oracle, "n = {n}: shared context diverged at {shards} shards");
                assert_eq!(
                    shared.1.frames_exchanged, separate.1.frames_exchanged,
                    "n = {n}: frame count differs between the modes at {shards} shards"
                );
                // Only the closing K_STATS residency varints may differ in
                // length (shared vs per-shard contexts): 5 × 9 bytes per shard.
                assert!(
                    shared.1.frame_bytes.abs_diff(separate.1.frame_bytes) <= 45 * shards as u64,
                    "n = {n}: frame bytes differ between the modes at {shards} shards: {} vs {}",
                    shared.1.frame_bytes,
                    separate.1.frame_bytes
                );
            }
        }
    }

    #[test]
    fn cross_shard_exchange_is_counted() {
        let protocol = MaxRegConsensus::new(2);
        let limits = ExploreLimits {
            depth: 8,
            max_configs: 100_000,
            solo_check_budget: None,
            memory_budget: None,
            checkpoint_every: None,
        };
        let cfg = DistConfig {
            shards: 2,
            workers: 1,
            symmetric: false,
        };
        let (_, stats) = explore_sharded(&protocol, &[0, 1], limits, cfg).unwrap();
        assert!(stats.frames_exchanged > 0, "round protocol moved no frames");
        assert!(stats.frame_bytes > 0, "round protocol moved no bytes");
    }

    #[test]
    fn shard_of_partitions_the_full_space() {
        for shards in 1..=5 {
            for hi in 0..64u128 {
                let fp = hi << 64 | 0xdead_beef;
                assert!(shard_of(fp, shards) < shards);
            }
        }
        // Partitioning keys on the high half only: the low half never moves
        // a fingerprint across shards.
        assert_eq!(shard_of(7 << 64, 3), shard_of(7 << 64 | u128::MAX >> 64, 3));
    }
}
