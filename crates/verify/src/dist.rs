//! Distributed sharded exploration: fingerprint-partitioned shards with
//! delta-framed frontier exchange.
//!
//! # Architecture
//!
//! The configuration space is partitioned by fingerprint: shard
//! [`shard_of`]`(fp, shards)` *owns* every configuration whose digest lands
//! in its slice, holds the only seen-set entry for it, and is the only
//! place its frontier node is ever expanded. A **coordinator** drives the
//! shards through bulk-synchronous rounds — one breadth-first layer per
//! round — over Unix-domain sockets carrying the CRC-guarded frames of
//! [`cbh_model::packed::frame`]:
//!
//! ```text
//!   coordinator                                shard 0 .. shard S-1
//!       | ROUND{expand}  ------------------------->  |
//!       |                 expand owned frontier      |
//!       | <- SUCC{dest, candidates}  (routed on) ->  |   speculative
//!       | <- DONE{any_active, events}                |
//!       | FLUSH  ----------------------------------> |
//!       |                 sort, dedup, classify      |
//!       | <- VERDICTS{fresh candidates + defects}    |
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
//! # Two modes, one protocol
//!
//! - [`explore_sharded`] runs shards as threads of one process sharing one
//!   [`PackedCtx`]; cross-shard candidates ship their [`PackedState`]s
//!   delta-chained inside the frame ([`cbh_model::StateChainEncoder`] —
//!   the spill-run discipline applied to the wire).
//! - [`coordinate`] / [`shard_serve`] run shards as separate processes.
//!   Intern ids are process-local (see [`cbh_model::packed::delta`]), so
//!   frames carry fingerprints and provenance only; an owner reconstructs
//!   an *admitted* remote candidate by replaying its pid path from the
//!   root through its own intern tables — digests hash content, never ids,
//!   so the replica's fingerprint provably matches the producer's.
//!
//! # Budgets
//!
//! [`ExploreLimits::memory_budget`] is interpreted **per shard**: each
//! shard owns a private [`SpillContext`], seen backend and frontier store,
//! so an `S`-shard run holds up to `S ×` the budget resident in aggregate
//! (that is the point — sharding multiplies the memory ceiling). The
//! single-process engines' intern-table budget charging and typed
//! budget-overrun error are not replicated here: shard interners are
//! per-process and reported as telemetry only.

use crate::checker::{
    decision_defect, decision_violation, schedule_of, Defect, ExploreLimits, ExploreOutcome,
    ExploreStats, Link, NO_LINK,
};
use crate::fpset::{AdmitSet, SeenBackend};
use crate::frontier::{FrontierStore, SpillContext, SpillError};
use crate::packed_engine::{cache_cap_of, expand_node, Edge, Node, NodeCodec, RunCfg};
use cbh_model::packed::delta::{read_varint, write_varint};
use cbh_model::packed::frame::frame_len;
use cbh_model::{
    encode_frame, FrameReader, PackedCache, PackedCtx, PackedState, Process, Protocol,
    StateChainDecoder, StateChainEncoder,
};
use cbh_sim::{Machine, SimError};
use std::collections::HashMap;
use std::io::Write;
use std::os::unix::net::{UnixListener, UnixStream};
use std::sync::{mpsc, Mutex};

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
/// payload `dest, count, {parent_idx, pid, fp, has_state, [state chain]}*`.
const K_SUCC: u8 = 3;
/// Shard → coordinator: expansion phase over; payload
/// `any_active, event_count, events*`.
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
/// Shard → coordinator: fatal shard-local failure, payload is the rendered
/// error message; the shard exits right after sending.
const K_ERROR: u8 = 0x7F;

/// Candidates per [`K_SUCC`] frame: bounds frame size (and the delta
/// chain's error blast radius) while amortising the header + CRC.
const SUCC_BATCH: usize = 512;

/// The owner shard of fingerprint `fp` among `shards` shards: the high
/// 64 bits modulo the shard count. The engines' digests mix every state
/// component into both halves, so the high half alone spreads evenly.
pub fn shard_of(fp: u128, shards: usize) -> usize {
    ((fp >> 64) as u64 % shards as u64) as usize
}

/// Topology and mode knobs for one distributed run.
#[derive(Debug, Clone, Copy)]
pub struct DistConfig {
    /// Fingerprint-space partitions (≥ 1); also the process/thread count.
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
// Side channel: exact error values for the in-process mode
// ---------------------------------------------------------------------------

/// In-process error fidelity: the wire renders [`SimError`]s to strings
/// (fine for cross-process diagnostics), but when shards are threads the
/// caller deserves the exact typed value. Shards deposit errors here keyed
/// by the node they occurred on; the coordinator prefers a deposit over
/// the wire rendering.
#[derive(Debug, Default)]
pub(crate) struct SideChannel {
    /// Expansion errors by global node index.
    errors: Mutex<HashMap<u64, SimError>>,
    /// First fatal shard-local failure (spill IO, commit application).
    fatal: Mutex<Option<SimError>>,
}

impl SideChannel {
    fn new() -> Self {
        SideChannel::default()
    }

    fn put(&self, idx: u64, err: SimError) {
        self.errors.lock().unwrap().entry(idx).or_insert(err);
    }

    fn take(&self, idx: u64) -> Option<SimError> {
        self.errors.lock().unwrap().remove(&idx)
    }

    fn put_fatal(&self, err: SimError) {
        self.fatal.lock().unwrap().get_or_insert(err);
    }

    fn take_fatal(&self) -> Option<SimError> {
        self.fatal.lock().unwrap().take()
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
    /// A shard-local failure worth a [`K_ERROR`] frame before exiting.
    Fatal(SimError),
}

impl From<SpillError> for ShardExit {
    fn from(e: SpillError) -> Self {
        ShardExit::Fatal(e.into())
    }
}

/// Per-shard constants, fixed for the whole run.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ShardCfg {
    /// This shard's id in `0..shards`.
    pub(crate) shard: usize,
    /// Total shard count (the fingerprint-partition modulus).
    pub(crate) shards: usize,
    /// Expansion worker threads within this shard.
    pub(crate) workers: usize,
    /// `true` when all shards share one [`PackedCtx`] (thread mode):
    /// cross-shard candidates carry their packed states delta-chained in
    /// the frame. `false` across processes: frames carry fingerprint +
    /// provenance only and owners replay admitted states from the root.
    pub(crate) ship_states: bool,
    /// Process-symmetry reduction flag (digest mode).
    pub(crate) symmetric: bool,
}

/// A successor candidate awaiting its owner's dedup verdict.
struct Cand {
    /// Global index of the expanded parent node.
    parent_idx: u64,
    /// The pid stepped to produce this candidate.
    pid: u64,
    /// The candidate's digest — the routing and dedup key.
    fp: u128,
    /// The candidate's state, when this side can build it (always in
    /// ship-states mode; owner-local candidates in replay mode).
    state: Option<PackedState>,
}

/// One per-node incident from the expansion phase, reported in DONE.
enum RoundEvent {
    /// `pid`'s solo run from node `idx` failed to decide within budget.
    SoloFail { idx: u64, pid: u64 },
    /// Expanding node `idx` stepped outside the model (or a solo probe
    /// did). The exact value also goes to the side channel when present.
    Failed { idx: u64, err: SimError },
}

/// What one shard's expansion of its slice of a layer produced.
struct LayerOut {
    any_active: bool,
    events: Vec<RoundEvent>,
    cands: Vec<Cand>,
}

/// Expands a contiguous chunk of the shard's frontier slice. Per-node
/// failures become [`RoundEvent`]s rather than aborting the chunk: the
/// coordinator's sweep cuts at the first event in *global* order, which
/// this shard cannot know locally.
fn expand_chunk<P: Process>(
    ctx: &PackedCtx<P>,
    chunk: &[Node],
    run: RunCfg,
    cfg: ShardCfg,
    cache: &mut PackedCache<P>,
) -> LayerOut {
    let mut out = LayerOut {
        any_active: false,
        events: Vec::new(),
        cands: Vec::new(),
    };
    for node in chunk {
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
                    let dest = shard_of(fp, cfg.shards);
                    // Ship mode: every candidate crosses with its state.
                    // Replay mode: only candidates we will own ourselves
                    // are materialised; remote ones replay owner-side.
                    let state = (cfg.ship_states || dest == cfg.shard).then(|| {
                        ctx.branch_step_cached(cache, &node.state, pid)
                            .expect("previewed edge steps")
                    });
                    out.cands.push(Cand {
                        parent_idx: node.index as u64,
                        pid: pid as u64,
                        fp,
                        state,
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

/// Expands the shard's whole slice of the current layer, fanning out over
/// up to `caches.len()` scoped threads in contiguous chunks (results
/// concatenate in chunk order; ordering is re-established downstream
/// anyway — owners sort candidates, the coordinator sorts events). Each
/// thread borrows one of the shard's long-lived caches, so intern entries
/// and memoised transitions carry over from layer to layer.
fn expand_layer<P: Process + Send + Sync>(
    ctx: &PackedCtx<P>,
    nodes: &[Node],
    run: RunCfg,
    cfg: ShardCfg,
    caches: &mut [PackedCache<P>],
) -> LayerOut {
    let workers = caches.len().min(nodes.len()).max(1);
    if workers <= 1 {
        return expand_chunk(ctx, nodes, run, cfg, &mut caches[0]);
    }
    let chunk_len = nodes.len().div_ceil(workers);
    let outs: Vec<LayerOut> = std::thread::scope(|scope| {
        let handles: Vec<_> = nodes
            .chunks(chunk_len)
            .zip(caches.iter_mut())
            .map(|(chunk, cache)| scope.spawn(move || expand_chunk(ctx, chunk, run, cfg, cache)))
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

/// Encodes and writes one frame; a failed write means the peer is gone.
fn send_frame(sock: &mut UnixStream, kind: u8, payload: &[u8]) -> Result<(), ShardExit> {
    let mut wire = Vec::with_capacity(frame_len(payload.len()));
    encode_frame(kind, payload, &mut wire);
    sock.write_all(&wire).map_err(|_| ShardExit::Silent)
}

/// Blocking frame read: refills the reassembly buffer from the socket
/// until one complete frame is available. `None` on EOF, IO failure or a
/// typed frame corruption — all equally terminal for a shard.
fn read_frame(reader: &mut FrameReader, sock: &mut UnixStream) -> Option<(u8, Vec<u8>)> {
    loop {
        match reader.next_frame() {
            Ok(Some(frame)) => return Some(frame),
            Ok(None) => {}
            Err(_) => return None,
        }
        match reader.fill_from(sock) {
            Ok(0) | Err(_) => return None,
            Ok(_) => {}
        }
    }
}

/// Rebuilds an admitted remote candidate's state by replaying its pid
/// path from the root through this shard's own intern tables (replay
/// mode). `meta` maps every admitted global index to `(parent global
/// index, pid)`; the walk is O(depth) packed steps. Digests hash content,
/// never intern ids, so the replica's fingerprint matches the producer's.
fn replay_state<P: Process>(
    ctx: &PackedCtx<P>,
    root: &PackedState,
    meta: &[(u64, u64)],
    parent_idx: u64,
    pid: u64,
    cache: &mut PackedCache<P>,
) -> Result<PackedState, ShardExit> {
    let mut sched = vec![pid as usize];
    let mut idx = parent_idx;
    while idx != 0 {
        let Some(&(parent, stepped)) = meta.get(idx as usize) else {
            // A candidate for a parent we were never told about: protocol
            // corruption, not a local failure.
            return Err(ShardExit::Silent);
        };
        sched.push(stepped as usize);
        idx = parent;
    }
    sched.reverse();
    let mut state = root.clone();
    for pid in sched {
        // Every step of this path succeeded on the shard that admitted it,
        // so a failure here is a genuine model error worth reporting.
        ctx.step_cached(cache, &mut state, pid)
            .map_err(|source| {
                ShardExit::Fatal(SimError::Model {
                    pid,
                    step: state.steps(),
                    source,
                })
            })?;
    }
    Ok(state)
}

// ---------------------------------------------------------------------------
// The shard serving loop
// ---------------------------------------------------------------------------

/// Runs one shard to completion: a thin wrapper over [`shard_run`] that
/// reports fatal failures upstream (side channel + [`K_ERROR`] frame)
/// before exiting.
pub(crate) fn shard_loop<P: Process + Send + Sync>(
    ctx: &PackedCtx<P>,
    root: PackedState,
    inputs: &[u64],
    limits: ExploreLimits,
    cfg: ShardCfg,
    mut sock: UnixStream,
    side: Option<&SideChannel>,
) {
    match shard_run(ctx, root, inputs, limits, cfg, &mut sock, side) {
        Ok(()) | Err(ShardExit::Silent) => {}
        Err(ShardExit::Fatal(err)) => {
            if let Some(side) = side {
                side.put_fatal(err.clone());
            }
            let mut wire = Vec::new();
            encode_frame(K_ERROR, err.to_string().as_bytes(), &mut wire);
            let _ = sock.write_all(&wire);
        }
    }
}

/// The shard's kind-dispatched protocol loop. Owns the shard's quarter of
/// the engine state: a budgeted seen backend over its fingerprint slice, a
/// budgeted frontier store of its owned nodes, the provenance mirror
/// (`meta`) and the round's pending candidates.
#[allow(clippy::too_many_lines)]
fn shard_run<P: Process + Send + Sync>(
    ctx: &PackedCtx<P>,
    root: PackedState,
    inputs: &[u64],
    limits: ExploreLimits,
    cfg: ShardCfg,
    sock: &mut UnixStream,
    side: Option<&SideChannel>,
) -> Result<(), ShardExit> {
    let run = RunCfg {
        solo_budget: limits.solo_check_budget,
        symmetric: cfg.symmetric,
        cache_cap: cache_cap_of(limits.memory_budget),
    };
    let mem = SpillContext::new(limits.memory_budget);
    let mut seen = SeenBackend::new((limits.max_configs / cfg.shards).max(64), &mem);
    let mut frontier = FrontierStore::new(NodeCodec, mem.clone());
    // One cache per expansion thread for the shard's whole lifetime; the
    // first also serves this loop's own replays and decision checks.
    let mut caches: Vec<PackedCache<P>> = (0..cfg.workers.max(1))
        .map(|_| PackedCache::new())
        .collect();
    // Global node index -> (parent global index, pid): the coordinator's
    // link list mirrored shard-side, extended by every COMMIT. Index 0 is
    // the root; its entry is never dereferenced.
    let mut meta: Vec<(u64, u64)> = vec![(u64::MAX, 0)];
    let mut pending: Vec<Cand> = Vec::new();
    // This round's fresh admissions, in verdict order, awaiting indices.
    let mut fresh: Vec<Node> = Vec::new();
    let mut reader = FrameReader::new();

    let root_fp = ctx.digest_cached(&mut caches[0], &root, cfg.symmetric);
    if shard_of(root_fp, cfg.shards) == cfg.shard {
        let fresh_root = seen.admit(root_fp)?;
        debug_assert!(fresh_root, "fresh seen set: the root cannot be pre-admitted");
        frontier.push(Node {
            index: 0,
            state: root.clone(),
            fp: root_fp,
            expand: true,
        })?;
    }

    loop {
        let Some((kind, payload)) = read_frame(&mut reader, sock) else {
            return Err(ShardExit::Silent);
        };
        match kind {
            K_ROUND => {
                let expand = payload.first().copied().unwrap_or(0) != 0;
                let mut nodes: Vec<Node> = Vec::new();
                while let Some(mut node) = frontier.pop()? {
                    node.expand = expand;
                    nodes.push(node);
                }
                let out = expand_layer(ctx, &nodes, run, cfg, &mut caches);
                // Route candidates: owned ones go straight to pending,
                // remote ones to their owner in batched SUCC frames.
                let mut by_dest: Vec<Vec<Cand>> = (0..cfg.shards).map(|_| Vec::new()).collect();
                for cand in out.cands {
                    let dest = shard_of(cand.fp, cfg.shards);
                    if dest == cfg.shard {
                        pending.push(cand);
                    } else {
                        by_dest[dest].push(cand);
                    }
                }
                for (dest, cands) in by_dest.iter().enumerate() {
                    for batch in cands.chunks(SUCC_BATCH) {
                        let mut p = Vec::new();
                        write_varint(&mut p, dest as u64);
                        write_varint(&mut p, batch.len() as u64);
                        let mut chain = StateChainEncoder::new();
                        for cand in batch {
                            write_varint(&mut p, cand.parent_idx);
                            write_varint(&mut p, cand.pid);
                            p.extend_from_slice(&cand.fp.to_le_bytes());
                            match (&cand.state, cfg.ship_states) {
                                (Some(state), true) => {
                                    p.push(1);
                                    chain.push(state, &mut p);
                                }
                                _ => p.push(0),
                            }
                        }
                        send_frame(sock, K_SUCC, &p)?;
                    }
                }
                // Events: exact values to the side channel, renderings to
                // the wire.
                let mut p = Vec::new();
                p.push(u8::from(out.any_active));
                write_varint(&mut p, out.events.len() as u64);
                for event in &out.events {
                    match event {
                        RoundEvent::SoloFail { idx, pid } => {
                            p.push(0);
                            write_varint(&mut p, *idx);
                            write_varint(&mut p, *pid);
                        }
                        RoundEvent::Failed { idx, err } => {
                            if let Some(side) = side {
                                side.put(*idx, err.clone());
                            }
                            p.push(1);
                            write_varint(&mut p, *idx);
                            let msg = err.to_string();
                            write_varint(&mut p, msg.len() as u64);
                            p.extend_from_slice(msg.as_bytes());
                        }
                    }
                }
                send_frame(sock, K_DONE, &p)?;
            }
            K_SUCC => {
                let mut p = payload.as_slice();
                let dest = rv(&mut p)?;
                if dest as usize != cfg.shard {
                    return Err(ShardExit::Silent); // misrouted: protocol dead
                }
                let count = rv(&mut p)?;
                let mut chain = StateChainDecoder::new();
                for _ in 0..count {
                    let parent_idx = rv(&mut p)?;
                    let pid = rv(&mut p)?;
                    let fp = take_fp(&mut p)?;
                    let state = match take_u8(&mut p)? {
                        0 => None,
                        1 => Some(chain.next(&mut p).map_err(|_| ShardExit::Silent)?),
                        _ => return Err(ShardExit::Silent),
                    };
                    pending.push(Cand {
                        parent_idx,
                        pid,
                        fp,
                        state,
                    });
                }
            }
            K_FLUSH => {
                // The shard-global admission order: the reference's layer
                // order restricted to this shard's owned fingerprints.
                pending.sort_unstable_by_key(|c| (c.parent_idx, c.pid));
                fresh.clear();
                let mut records = Vec::new();
                for cand in pending.drain(..) {
                    if !seen.admit(cand.fp)? {
                        continue;
                    }
                    let state = match cand.state {
                        Some(state) => state,
                        None => replay_state(
                            ctx,
                            &root,
                            &meta,
                            cand.parent_idx,
                            cand.pid,
                            &mut caches[0],
                        )?,
                    };
                    debug_assert_eq!(
                        cand.fp,
                        ctx.digest(&state, cfg.symmetric),
                        "candidate digest out of sync with its state"
                    );
                    let decisions: Vec<u64> = (0..state.n())
                        .filter_map(|p| ctx.decision_cached(&mut caches[0], &state, p))
                        .collect();
                    let defect = decision_defect(&decisions, inputs);
                    write_varint(&mut records, cand.parent_idx);
                    write_varint(&mut records, cand.pid);
                    match defect {
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
                    fresh.push(Node {
                        index: 0, // assigned by the COMMIT that follows
                        state,
                        fp: cand.fp,
                        expand: true,
                    });
                }
                let mut p = Vec::new();
                write_varint(&mut p, fresh.len() as u64);
                p.extend_from_slice(&records);
                send_frame(sock, K_VERDICTS, &p)?;
            }
            K_COMMIT => {
                let mut p = payload.as_slice();
                if take_u8(&mut p)? != 0 {
                    // Halt: report telemetry and exit.
                    let mut sp = Vec::new();
                    write_varint(&mut sp, mem.tracker().bytes_spilled());
                    write_varint(&mut sp, mem.tracker().peak_resident_bytes() as u64);
                    write_varint(&mut sp, seen.seen_resident_bytes() as u64);
                    write_varint(&mut sp, ctx.intern_resident_bytes() as u64);
                    write_varint(&mut sp, seen.fpset_disk_bytes());
                    let _ = send_frame(sock, K_STATS, &sp);
                    return Ok(());
                }
                let mine = rv(&mut p)? as usize;
                if mine != fresh.len() {
                    return Err(ShardExit::Silent);
                }
                let mut indices = Vec::with_capacity(mine);
                for _ in 0..mine {
                    indices.push(rv(&mut p)?);
                }
                let link_count = rv(&mut p)? as usize;
                meta.reserve(link_count);
                for _ in 0..link_count {
                    let parent = rv(&mut p)?;
                    let pid = rv(&mut p)?;
                    meta.push((parent, pid));
                }
                for (mut node, idx) in fresh.drain(..).zip(indices) {
                    debug_assert!((idx as usize) < meta.len(), "index past the link mirror");
                    node.index = idx as usize;
                    frontier.push(node)?;
                }
            }
            _ => return Err(ShardExit::Silent),
        }
    }
}

// ---------------------------------------------------------------------------
// Coordinator side
// ---------------------------------------------------------------------------

/// What a hub reader thread delivers for its shard.
enum Inbound {
    /// One reassembled, CRC-verified frame.
    Frame(u8, Vec<u8>),
    /// The shard's stream ended (EOF, IO failure or frame corruption).
    Gone,
}

/// The coordinator's socket fan: one writer per shard on the calling
/// thread, one detached reader thread per shard draining frames into a
/// single channel. Readers *always* drain — that is the deadlock-freedom
/// argument: a shard's writes complete regardless of what the coordinator
/// is doing, so a shard busy expanding eventually returns to its read
/// loop and unblocks any coordinator forward stuck on its socket.
struct Hub {
    writers: Vec<UnixStream>,
    rx: mpsc::Receiver<(usize, Inbound)>,
    gone: Vec<bool>,
    /// Frames this hub sent plus received ([`ExploreStats::frames_exchanged`]).
    frames_exchanged: u64,
    /// Encoded bytes of those frames, headers and CRCs included.
    frame_bytes: u64,
    halted: bool,
}

impl Hub {
    fn new(streams: Vec<UnixStream>) -> std::io::Result<Hub> {
        let shards = streams.len();
        let (tx, rx) = mpsc::channel();
        let mut writers = Vec::with_capacity(shards);
        for (id, stream) in streams.into_iter().enumerate() {
            let mut rd = stream.try_clone()?;
            let tx = tx.clone();
            std::thread::spawn(move || {
                let mut reader = FrameReader::new();
                loop {
                    loop {
                        match reader.next_frame() {
                            Ok(Some((kind, payload))) => {
                                if tx.send((id, Inbound::Frame(kind, payload))).is_err() {
                                    return; // hub dropped: nobody is listening
                                }
                            }
                            Ok(None) => break,
                            Err(_) => {
                                let _ = tx.send((id, Inbound::Gone));
                                return;
                            }
                        }
                    }
                    match reader.fill_from(&mut rd) {
                        Ok(0) | Err(_) => {
                            let _ = tx.send((id, Inbound::Gone));
                            return;
                        }
                        Ok(_) => {}
                    }
                }
            });
            writers.push(stream);
        }
        Ok(Hub {
            writers,
            rx,
            gone: vec![false; shards],
            frames_exchanged: 0,
            frame_bytes: 0,
            halted: false,
        })
    }

    fn send(&mut self, shard: usize, kind: u8, payload: &[u8]) -> Result<(), SimError> {
        let mut wire = Vec::with_capacity(frame_len(payload.len()));
        encode_frame(kind, payload, &mut wire);
        self.frames_exchanged += 1;
        self.frame_bytes += wire.len() as u64;
        self.writers[shard]
            .write_all(&wire)
            .map_err(|e| wire_err(format_args!("send to shard {shard}: {e}")))
    }

    fn broadcast(&mut self, kind: u8, payload: &[u8]) -> Result<(), SimError> {
        for shard in 0..self.writers.len() {
            self.send(shard, kind, payload)?;
        }
        Ok(())
    }

    /// The next inbound message from any shard; `None` once every reader
    /// thread has exited and drained.
    fn recv(&mut self) -> Option<(usize, Inbound)> {
        match self.rx.recv().ok()? {
            (shard, Inbound::Gone) => {
                self.gone[shard] = true;
                Some((shard, Inbound::Gone))
            }
            (shard, Inbound::Frame(kind, payload)) => {
                self.frames_exchanged += 1;
                self.frame_bytes += frame_len(payload.len()) as u64;
                Some((shard, Inbound::Frame(kind, payload)))
            }
        }
    }

    /// Best-effort halting COMMIT to every shard; idempotent. Shards that
    /// already exited fail the write, which is fine — they are where we
    /// are sending them.
    fn halt_all(&mut self) {
        if self.halted {
            return;
        }
        self.halted = true;
        let mut wire = Vec::new();
        encode_frame(K_COMMIT, &[1], &mut wire);
        self.frames_exchanged += self.writers.len() as u64;
        self.frame_bytes += (wire.len() * self.writers.len()) as u64;
        for writer in &mut self.writers {
            let _ = writer.write_all(&wire);
        }
    }
}

/// A halt reaches the shards on **every** exit path — normal, error or
/// unwinding — or thread-mode shards would block forever on a socket the
/// reader threads keep open, deadlocking the caller's `thread::scope`.
impl Drop for Hub {
    fn drop(&mut self) {
        self.halt_all();
    }
}

/// A shard died without a [`K_ERROR`] report: prefer the side channel's
/// exact deposit (thread mode), else a rendered diagnostic.
fn shard_died(shard: usize, side: Option<&SideChannel>) -> SimError {
    side.and_then(SideChannel::take_fatal)
        .unwrap_or_else(|| wire_err(format_args!("shard {shard} terminated unexpectedly")))
}

/// A shard reported a fatal failure before exiting.
fn shard_reported(payload: &[u8], side: Option<&SideChannel>) -> SimError {
    side.and_then(SideChannel::take_fatal).unwrap_or_else(|| SimError::Spill {
        detail: format!("dist shard: {}", String::from_utf8_lossy(payload)),
    })
}

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
    Failed { idx: u64, msg: String },
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

/// Gathers the expansion phase: forwards [`K_SUCC`] frames to their owner
/// as they arrive, collects every shard's [`K_DONE`].
fn gather_round(
    hub: &mut Hub,
    shards: usize,
    side: Option<&SideChannel>,
) -> Result<(bool, Vec<SweepItem>), SimError> {
    let mut any_active = false;
    let mut items = Vec::new();
    let mut done = vec![false; shards];
    while done.iter().any(|d| !d) {
        let Some((shard, inbound)) = hub.recv() else {
            return Err(wire_err("every shard reader exited mid-round"));
        };
        match inbound {
            Inbound::Gone => return Err(shard_died(shard, side)),
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
                                idx,
                                msg: String::from_utf8_lossy(msg).into_owned(),
                            });
                        }
                        _ => return Err(wire_err("unknown event tag")),
                    }
                }
                done[shard] = true;
            }
            Inbound::Frame(K_ERROR, payload) => return Err(shard_reported(&payload, side)),
            Inbound::Frame(..) => return Err(wire_err("unexpected frame kind during a round")),
        }
    }
    Ok((any_active, items))
}

/// Gathers one [`K_VERDICTS`] frame per shard after the flush barrier.
fn gather_verdicts(
    hub: &mut Hub,
    shards: usize,
    side: Option<&SideChannel>,
    items: &mut Vec<SweepItem>,
) -> Result<(), SimError> {
    let mut got = vec![false; shards];
    while got.iter().any(|g| !g) {
        let Some((shard, inbound)) = hub.recv() else {
            return Err(wire_err("every shard reader exited mid-flush"));
        };
        match inbound {
            Inbound::Gone => return Err(shard_died(shard, side)),
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
            Inbound::Frame(K_ERROR, payload) => return Err(shard_reported(&payload, side)),
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
/// budgets bind per shard, and thread-mode shards all report the same
/// shared intern tables).
fn drain_stats(hub: &mut Hub, shards: usize) -> AggStats {
    hub.halt_all();
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

/// The parent-link index of global node `idx`: the coordinator's link
/// list has one entry per non-root admission, in admission order, so node
/// `i > 0` owns link `i - 1`.
fn link_of(idx: u64) -> usize {
    if idx == 0 {
        NO_LINK
    } else {
        idx as usize - 1
    }
}

/// The coordinator's round loop: the distributed counterpart of the
/// packed engine's committer. Every stateful decision — admission count,
/// cap, links, violation selection, completeness, layer bookkeeping —
/// happens here, single-threaded, on the merge sweep's totally ordered
/// stream; shards only influence *when* verdicts arrive, never what the
/// sweep does with them.
fn coordinate_loop(
    hub: &mut Hub,
    shards: usize,
    limits: &ExploreLimits,
    root_violation: Option<ExploreOutcome>,
    side: Option<&SideChannel>,
) -> Result<(ExploreOutcome, ExploreStats), SimError> {
    let mut configs = 1usize; // the root
    let mut links: Vec<Link> = Vec::new();
    let mut complete = true;
    let mut frontier_peak = 1usize;
    let mut depth_reached = 0usize;
    let mut frontier_len = 1usize;
    macro_rules! finish {
        ($outcome:expr) => {{
            let outcome = $outcome;
            let agg = drain_stats(hub, shards);
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
                    checkpoint_bytes: 0,
                    checkpoint_ms: 0,
                    frames_exchanged: hub.frames_exchanged,
                    frame_bytes: hub.frame_bytes,
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
        hub.broadcast(K_ROUND, &[u8::from(expand)])?;
        let (any_active, mut items) = gather_round(hub, shards, side)?;
        if !expand && any_active {
            complete = false;
        }
        hub.broadcast(K_FLUSH, &[])?;
        gather_verdicts(hub, shards, side, &mut items)?;
        items.sort_by_key(SweepItem::key);
        let mut per_shard: Vec<Vec<u64>> = (0..shards).map(|_| Vec::new()).collect();
        let mut round_links: Vec<(u64, u64)> = Vec::new();
        for item in items {
            match item {
                SweepItem::Solo { idx, pid } => {
                    finish!(ExploreOutcome::ObstructionFailure {
                        pid: pid as usize,
                        schedule: schedule_of(&links, link_of(idx)),
                    });
                }
                SweepItem::Failed { idx, msg } => {
                    let err = side
                        .and_then(|sc| sc.take(idx))
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
                    links.push((link_of(parent_idx), pid as usize));
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

/// Stats for a root-violation exit taken before any shard machinery runs.
fn root_stats() -> ExploreStats {
    ExploreStats {
        configs: 1,
        frontier_peak: 1,
        depth_reached: 0,
        bytes_spilled: 0,
        peak_resident_bytes: 0,
        seen_resident_bytes: 0,
        intern_resident_bytes: 0,
        fpset_disk_bytes: 0,
        checkpoint_bytes: 0,
        checkpoint_ms: 0,
        frames_exchanged: 0,
        frame_bytes: 0,
    }
}

/// Sharded exploration within one process: shard threads partition the
/// fingerprint space and exchange delta-framed candidates over socketpairs
/// with a coordinator on the calling thread. Outcomes and semantic stats
/// are bit-identical to [`crate::checker::explore_stats`] and
/// [`crate::reference::reference_explore`] at any `shards × workers ×
/// memory_budget` — see the module docs for the argument.
///
/// # Errors
///
/// Propagates [`SimError`] exactly as the single-process engines do, plus
/// [`SimError::Spill`]-wrapped wire failures if a shard dies.
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
        return Ok((violation, root_stats()));
    }
    let side = SideChannel::new();
    let mut coord_ends = Vec::with_capacity(cfg.shards);
    let mut shard_ends = Vec::with_capacity(cfg.shards);
    for _ in 0..cfg.shards {
        let (coord, shard) =
            UnixStream::pair().map_err(|e| wire_err(format_args!("socketpair: {e}")))?;
        coord_ends.push(coord);
        shard_ends.push(shard);
    }
    std::thread::scope(|scope| {
        for (shard, sock) in shard_ends.into_iter().enumerate() {
            let ctx = &ctx;
            let side = &side;
            let root = root.clone();
            let scfg = ShardCfg {
                shard,
                shards: cfg.shards,
                workers: cfg.workers,
                ship_states: true,
                symmetric: cfg.symmetric,
            };
            scope.spawn(move || shard_loop(ctx, root, inputs, limits, scfg, sock, Some(side)));
        }
        let mut hub = Hub::new(coord_ends).map_err(|e| wire_err(format_args!("hub: {e}")))?;
        coordinate_loop(&mut hub, cfg.shards, &limits, None, Some(&side))
    })
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
    let mut hub = Hub::new(shard_streams).map_err(|e| wire_err(format_args!("hub: {e}")))?;
    coordinate_loop(&mut hub, cfg.shards, &limits, root_violation, None)
}

/// Shard-process entry point: builds the protocol's packed context,
/// announces itself with a HELLO frame and serves the round protocol
/// until a halting COMMIT (or the coordinator vanishes). Frames carry
/// fingerprints and provenance only — intern ids are local to this
/// process, so admitted remote candidates are replayed from the root.
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
    let scfg = ShardCfg {
        shard,
        shards: cfg.shards,
        workers: cfg.workers,
        ship_states: false,
        symmetric: cfg.symmetric,
    };
    shard_loop(&ctx, root, inputs, limits, scfg, sock, None);
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
        for depth in 0..8 {
            agree(
                &MaxRegConsensus::new(3),
                &[0, 1, 2],
                ExploreLimits {
                    depth,
                    max_configs: 100_000,
                    solo_check_budget: None,
                    memory_budget: None,
                    checkpoint_every: None,
                },
            );
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
    fn replay_mode_matches_reference_without_shipping_states() {
        // Exercise the multi-process wire discipline (ship_states: false —
        // owners replay admitted remote candidates from the root) without
        // spawning processes: each shard thread builds its own packed
        // context, exactly as a child process would.
        let protocol = MaxRegConsensus::new(2);
        let inputs = [0u64, 1];
        let limits = ExploreLimits {
            depth: 8,
            max_configs: 100_000,
            solo_check_budget: None,
            memory_budget: None,
            checkpoint_every: None,
        };
        let oracle = reference_explore(&protocol, &inputs, limits).unwrap();
        for shards in [1usize, 2, 3] {
            let mut coord_ends = Vec::new();
            let mut shard_ends = Vec::new();
            for _ in 0..shards {
                let (c, s) = UnixStream::pair().unwrap();
                coord_ends.push(c);
                shard_ends.push(s);
            }
            let dist = std::thread::scope(|scope| {
                for (shard, sock) in shard_ends.into_iter().enumerate() {
                    let protocol = &protocol;
                    let inputs = &inputs;
                    scope.spawn(move || {
                        let machine = Machine::start(protocol, inputs).unwrap();
                        let ctx = machine.packed_ctx();
                        let root = machine.pack(&ctx);
                        let scfg = ShardCfg {
                            shard,
                            shards,
                            workers: 1,
                            ship_states: false,
                            symmetric: false,
                        };
                        shard_loop(&ctx, root, inputs, limits, scfg, sock, None);
                    });
                }
                let cfg = DistConfig {
                    shards,
                    workers: 1,
                    symmetric: false,
                };
                coordinate(&protocol, &inputs, limits, cfg, coord_ends)
            })
            .unwrap();
            assert_eq!(dist, oracle, "replay-mode run diverged at {shards} shards");
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
