//! The packed work-stealing explorer: the production state-space engine.
//!
//! # Architecture
//!
//! The engine splits exploration into a **parallel preview phase** and a
//! **deterministic sequential commit**:
//!
//! - **Workers** are pure previews. They own per-worker deques of node
//!   batches and steal from each other when idle. A node is one admitted
//!   configuration (a flat [`PackedState`]); the worker runs its optional
//!   solo probes and walks its outgoing edges with the *read-only*
//!   [`PackedCtx::edge_digest`] preview, through a thread-local memoised
//!   [`PackedCache`] over the shared intern tables. It returns the solo
//!   verdict, `has_active` and one `(pid, fp)` `Edge` per active pid —
//!   never a successor state — and publishes the whole batch as **one**
//!   reorder-buffer record keyed by the batch's first admission index.
//! - The **committer** (the calling thread) takes those records in
//!   admission order, drains each locally, and replays, verbatim, the
//!   sequential algorithm of the clone-based reference BFS: authoritative
//!   admission into the run's one seen set (`crate::fpset`'s
//!   `SeenBackend`), `max_configs` accounting, violation selection,
//!   parent-link construction, layer bookkeeping. It
//!   materialises every admitted child itself, with one memoised
//!   `branch_step_cached` from the parent. Every order-sensitive decision is
//!   made here, single-threaded, on a totally ordered stream. While a record
//!   it needs is still being computed, the committer *helps*: it pops and
//!   expands a backlogged batch itself instead of sleeping.
//!
//! Workers therefore touch no shared state except the deques, the reorder
//! buffer and the append-only intern tables: no claims, no speculative
//! children, and one lock, one buffer insert and one tracker update per
//! batch rather than per node.
//!
//! A pool only pays once a frontier is wide, so every run starts on the
//! calling thread with the sequential engine's admission queue. The first
//! time the live frontier holds `MIN_PARALLEL_CONFIGS` nodes, the run
//! spawns its workers, deals them the queue in admission order and reserves
//! room in the seen set for the whole run; a narrower run spawns no thread
//! at all.
//!
//! # Determinism argument
//!
//! The admission index of a node is assigned by the committer, and a node's
//! children are admitted only while committing that node — so index order
//! equals the reference BFS's admission order (layer by layer, frontier
//! order within a layer, pid order within a node) *by construction*,
//! independent of how worker threads raced. A worker's output is a pure
//! function of the node it previews, so workers influence only *when* a
//! record becomes available, never *what* the committer does with it. A
//! stop mid-batch (a violation, the config cap, a solo failure) discards the
//! rest of the batch and any records past it. Hence `(ExploreOutcome,
//! ExploreStats)` — verdict, counterexample schedule, configuration count,
//! frontier peak, depth — are bit-identical at any worker count, and
//! bit-identical to [`crate::reference::reference_explore`]. The
//! conformance oracle enforces exactly this.
//!
//! The only shared writes workers make are intern-table insertions, and
//! their ids race between threads; but digests hash *content*, never ids,
//! so outcomes cannot observe interning order, and the per-thread caches
//! only memoise those immutable entries and are equally unobservable.
//!
//! # Memory-bounded frontiers
//!
//! All three queues that scale with frontier width — the sequential
//! engine's admission queue, the pool's per-worker deques, and the
//! committer's reorder buffer of batch records — live in [`crate::frontier`]
//! stores: within [`ExploreLimits::memory_budget`] they are the plain
//! in-memory structures described above; past it, backlogs delta-compress
//! ([`cbh_model::packed::delta`]) into a temp-file arena and stream back. A
//! batch record parks whole, and only if every result in it is `Ok`.
//! Spilling only moves *where* a node waits, never the order the committer
//! consumes results in, so the determinism argument — and bit-identical
//! `(ExploreOutcome, ExploreStats)` — holds at any budget; the budgeted
//! runs additionally report [`ExploreStats::bytes_spilled`] and
//! [`ExploreStats::peak_resident_bytes`] (telemetry, excluded from stats
//! equality).

use crate::checker::{schedule_of, ExploreLimits, ExploreOutcome, ExploreStats, Link, NO_LINK};
use crate::fpset::SeenBackend;
use crate::frontier::{FrontierStore, ReorderBuffer, SpillCodec, SpillContext, SpillError};
use crate::snapshot::{Snapshot, SnapshotError, NO_PARENT};
use cbh_model::packed::delta::{read_varint, write_varint};
use cbh_model::{apply_delta, apply_delta_into, decode_flat, encode_delta, encode_flat, PackedCache, PackedCtx,
    PackedState, Process, Protocol};
use cbh_sim::{Machine, SimError};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex};
use std::thread::Scope;
use std::time::{Duration, Instant};

// The snapshot wire format and the engine share the "no parent" sentinel, so
// links round-trip without translation.
const _: () = assert!(NO_PARENT == NO_LINK);

/// Tolerated overrun above [`ExploreLimits::memory_budget`] before the
/// engine gives up with [`SimError::Budget`]: covers the evictable stores'
/// bounded slack (in-flight double-buffered spill writes, one streamed-back
/// run, merge buffers) — the same envelope the budget-stress suite asserts
/// `peak_resident_bytes` stays within. Append-only intern tables that push
/// residency past it cannot be evicted, so continuing would silently break
/// the cap.
const BUDGET_OVERRUN_SLACK: usize = 4 << 20;

/// Periodic-checkpoint configuration threaded into the commit loop.
pub(crate) struct CheckpointCfg {
    /// Where the snapshot lands (atomically, via temp file + rename).
    pub(crate) path: PathBuf,
    /// Admissions between snapshots (≥ 1).
    pub(crate) every: u64,
    /// Keep a numbered copy (`<path>.ck0`, `<path>.ck1`, …) of every
    /// snapshot instead of overwriting — the kill-at-every-checkpoint
    /// matrix's hook.
    pub(crate) retain: bool,
    /// [`Protocol::name`] of the run, stored in the snapshot identity.
    pub(crate) protocol: String,
}

/// Snapshot failures surface through the engine's existing error type: they
/// are exploration-persistence failures exactly like spill-arena ones. The
/// typed [`SnapshotError`] detail rides in the message.
pub(crate) fn snapshot_sim_err(err: &SnapshotError) -> SimError {
    SimError::Spill {
        detail: format!("checkpoint: {err}"),
    }
}

/// Per-run constants every worker needs.
#[derive(Clone, Copy)]
pub(crate) struct RunCfg {
    pub(crate) solo_budget: Option<u64>,
    pub(crate) symmetric: bool,
    /// Budgeted runs bound each thread's intern cache to this many bytes;
    /// past it the cache is cleared wholesale (entries re-fetch from the
    /// shared tables on demand). `None` = unbounded, the historical
    /// behaviour of unbudgeted runs.
    pub(crate) cache_cap: Option<usize>,
}

/// Per-thread intern-cache byte cap under a memory budget: an eighth of the
/// budget, floored so tiny stress budgets don't thrash re-fetches.
pub(crate) fn cache_cap_of(memory_budget: Option<usize>) -> Option<usize> {
    memory_budget.map(|b| (b / 8).max(64 * 1024))
}

/// Below this many frontier nodes (a run's live frontier, or a shard's
/// layer) thread spawns and hand-offs dominate real work, so the engines
/// stay on the calling thread. Every parallel path is bit-identical to its
/// sequential one, so the threshold is unobservable in outcomes.
pub(crate) const MIN_PARALLEL_CONFIGS: usize = 1024;

/// One admitted configuration awaiting expansion.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct Node {
    pub(crate) index: usize,
    pub(crate) state: PackedState,
    /// The node's own digest (base of the incremental edge previews).
    pub(crate) fp: u128,
    /// `false` for horizon nodes: only solo probes / activity reporting.
    pub(crate) expand: bool,
}

/// One unit of pool work: a batch of nodes (admission siblings ride
/// together, so the per-task synchronisation — deque push, wakeup, result
/// insertion — is paid once per batch instead of once per node).
type Batch = Vec<Node>;

/// Bounds on the adaptive batch size (see [`PoolSource::batch_target`]).
/// Batches amortise the pool's per-task mutex and condvar traffic, but a
/// batch also rides one deque slot — too coarse and a narrow frontier lands
/// on one worker while the rest starve. The committer therefore sizes each
/// batch from the live outstanding-node count instead of a fixed constant.
const MIN_BATCH: usize = 1;
const MAX_BATCH: usize = 64;

/// One outgoing edge of an expanded node, in pid order: the previewed
/// successor digest only. The committer materialises the children it admits.
#[derive(Debug, PartialEq)]
pub(crate) struct Edge {
    pub(crate) pid: usize,
    pub(crate) fp: u128,
}

/// What expanding one node produced.
#[derive(Debug, PartialEq)]
pub(crate) struct Expansion {
    /// First active pid whose solo run failed to decide, if solo checks ran.
    pub(crate) solo_failure: Option<usize>,
    /// `true` if some process can still move (horizon completeness).
    pub(crate) has_active: bool,
    pub(crate) edges: Vec<Edge>,
}

/// An expanded node: the node itself travels back so the committer can
/// materialise admitted children from its state.
#[derive(Debug, PartialEq)]
struct NodeResult {
    node: Node,
    out: Result<Expansion, SimError>,
}

/// An expanded batch, in dispatch order: the pool's unit of hand-off to the
/// committer, keyed in the reorder buffer by its first node's index.
type ResultBatch = Vec<NodeResult>;

// ---------------------------------------------------------------------------
// Spill codecs: how the engine's queues cross the memory/disk boundary
// ---------------------------------------------------------------------------

/// Encodes one node; `base` is the spill run's previous state (delta base).
/// The state rides last and unframed — both state decoders are strict, so
/// the record's end delimits it.
fn encode_node(node: &Node, base: Option<&PackedState>, out: &mut Vec<u8>) {
    write_varint(out, node.index as u64);
    out.extend_from_slice(&node.fp.to_le_bytes());
    out.push(u8::from(node.expand));
    match base {
        Some(base) => {
            out.push(1);
            encode_delta(base, &node.state, out);
        }
        None => {
            out.push(0);
            encode_flat(&node.state, out);
        }
    }
}

fn decode_node(mut bytes: &[u8], base: Option<&PackedState>) -> Node {
    let index = read_varint(&mut bytes).expect("node record: index") as usize;
    let (fp_bytes, rest) = bytes.split_at(16);
    let fp = u128::from_le_bytes(fp_bytes.try_into().expect("16-byte digest"));
    let expand = rest[0] != 0;
    let tag = rest[1];
    let state_bytes = &rest[2..];
    let state = match (tag, base) {
        (1, Some(base)) => apply_delta(base, state_bytes).expect("node record: delta"),
        (0, _) => decode_flat(state_bytes).expect("node record: flat state"),
        _ => unreachable!("spill record base/tag mismatch"),
    };
    Node {
        index,
        state,
        fp,
        expand,
    }
}

/// Codec for the sequential engine's admission queue: records chain across
/// the whole run, each state a delta against the previously spilled one.
pub(crate) struct NodeCodec;

impl SpillCodec for NodeCodec {
    type Item = Node;

    fn encode(&self, node: &Node, prev: Option<&Node>, out: &mut Vec<u8>) {
        encode_node(node, prev.map(|p| &p.state), out);
    }

    fn decode(&self, bytes: &[u8], prev: Option<&Node>) -> Node {
        decode_node(bytes, prev.map(|p| &p.state))
    }

    /// Streamed-back records patch the chained base **in place** (a delta
    /// touches a handful of positions) and clone once to return — instead of
    /// building a state from the base and cloning it again for the chain.
    fn decode_step(&self, mut bytes: &[u8], prev: &mut Option<Node>) -> Node {
        let Some(node) = prev else {
            let item = self.decode(bytes, None);
            *prev = Some(item.clone());
            return item;
        };
        node.index = read_varint(&mut bytes).expect("node record: index") as usize;
        let (fp_bytes, rest) = bytes.split_at(16);
        node.fp = u128::from_le_bytes(fp_bytes.try_into().expect("16-byte digest"));
        node.expand = rest[0] != 0;
        let tag = rest[1];
        let state_bytes = &rest[2..];
        match tag {
            1 => apply_delta_into(&mut node.state, state_bytes).expect("node record: delta"),
            0 => node.state = decode_flat(state_bytes).expect("node record: flat state"),
            _ => unreachable!("spill record base/tag mismatch"),
        }
        node.clone()
    }

    fn cost(&self, node: &Node) -> usize {
        std::mem::size_of::<Node>() + node.state.resident_bytes()
    }
}

/// Codec for the pool's per-worker deques: a record is a whole batch, its
/// nodes length-framed and delta-chained (admission siblings compress
/// against each other; the first node chains to the previous batch's last).
struct BatchCodec;

impl SpillCodec for BatchCodec {
    type Item = Batch;

    fn encode(&self, batch: &Batch, prev: Option<&Batch>, out: &mut Vec<u8>) {
        write_varint(out, batch.len() as u64);
        let mut base = prev.and_then(|b| b.last()).map(|n| &n.state);
        let mut record = Vec::new();
        for node in batch {
            record.clear();
            encode_node(node, base, &mut record);
            write_varint(out, record.len() as u64);
            out.extend_from_slice(&record);
            base = Some(&node.state);
        }
    }

    fn decode(&self, mut bytes: &[u8], prev: Option<&Batch>) -> Batch {
        let count = read_varint(&mut bytes).expect("batch record: count") as usize;
        let mut batch = Vec::with_capacity(count);
        for _ in 0..count {
            let len = read_varint(&mut bytes).expect("batch record: framing") as usize;
            let base = batch.last().or_else(|| prev.and_then(|b: &Batch| b.last()));
            let node = decode_node(&bytes[..len], base.map(|n: &Node| &n.state));
            bytes = &bytes[len..];
            batch.push(node);
        }
        batch
    }

    /// Only the chain's *last* node ever serves as a delta base, so keep a
    /// one-node stub instead of cloning the whole batch between records.
    fn decode_step(&self, bytes: &[u8], prev: &mut Option<Batch>) -> Batch {
        let batch = self.decode(bytes, prev.as_ref());
        // An empty batch leaves the chain where it was, exactly as `encode`
        // leaves its base untouched when it writes zero nodes.
        if let Some(last) = batch.last() {
            *prev = Some(vec![last.clone()]);
        }
        batch
    }

    fn cost(&self, batch: &Batch) -> usize {
        batch
            .iter()
            .map(|n| std::mem::size_of::<Node>() + n.state.resident_bytes())
            .sum()
    }
}

/// Codec for the committer's reorder buffer. A record is one expanded
/// batch, parked whole (no run chaining): each node record is framed like
/// [`BatchCodec`]'s, its state a delta against its batch predecessor's, and
/// its expansion follows it. Batches holding an error result are never
/// parked (the committer consumes and propagates errors immediately).
struct ResultCodec;

impl SpillCodec for ResultCodec {
    type Item = ResultBatch;

    fn encode(&self, batch: &ResultBatch, _prev: Option<&ResultBatch>, out: &mut Vec<u8>) {
        write_varint(out, batch.len() as u64);
        let mut base = None;
        let mut record = Vec::new();
        for result in batch {
            let expansion = result.out.as_ref().expect("error batches are unspillable");
            record.clear();
            encode_node(&result.node, base, &mut record);
            write_varint(out, record.len() as u64);
            out.extend_from_slice(&record);
            base = Some(&result.node.state);
            out.push(u8::from(expansion.has_active));
            write_varint(out, expansion.solo_failure.map_or(0, |pid| pid as u64 + 1));
            write_varint(out, expansion.edges.len() as u64);
            for edge in &expansion.edges {
                write_varint(out, edge.pid as u64);
                out.extend_from_slice(&edge.fp.to_le_bytes());
            }
        }
    }

    fn decode(&self, mut bytes: &[u8], _prev: Option<&ResultBatch>) -> ResultBatch {
        let count = read_varint(&mut bytes).expect("result record: count") as usize;
        let mut batch: ResultBatch = Vec::with_capacity(count);
        for _ in 0..count {
            let len = read_varint(&mut bytes).expect("result record: framing") as usize;
            let node = decode_node(&bytes[..len], batch.last().map(|r| &r.node.state));
            let has_active = bytes[len] != 0;
            bytes = &bytes[len + 1..];
            let solo_failure = match read_varint(&mut bytes).expect("result record: solo pid") {
                0 => None,
                pid => Some(pid as usize - 1),
            };
            let edge_count = read_varint(&mut bytes).expect("result record: edges") as usize;
            let mut edges = Vec::with_capacity(edge_count);
            for _ in 0..edge_count {
                let pid = read_varint(&mut bytes).expect("result record: pid") as usize;
                let (fp_bytes, rest) = bytes.split_at(16);
                let fp = u128::from_le_bytes(fp_bytes.try_into().expect("16-byte digest"));
                bytes = rest;
                edges.push(Edge { pid, fp });
            }
            let out = Ok(Expansion {
                solo_failure,
                has_active,
                edges,
            });
            batch.push(NodeResult { node, out });
        }
        batch
    }

    fn cost(&self, batch: &ResultBatch) -> usize {
        batch
            .iter()
            .map(|r| {
                let edges = r.out.as_ref().map_or(0, |e| e.edges.len());
                std::mem::size_of::<NodeResult>()
                    + r.node.state.resident_bytes()
                    + edges * std::mem::size_of::<Edge>()
            })
            .sum()
    }

    fn spillable(&self, batch: &ResultBatch) -> bool {
        batch.iter().all(|r| r.out.is_ok())
    }
}

/// Expands one node: solo probes first (mirroring the reference: a failure
/// suppresses the edges), then one previewed edge per active pid. Read-only
/// on the node; all intern-table traffic goes through the expander's
/// thread-local `cache`.
pub(crate) fn expand_node<P: Process>(
    ctx: &PackedCtx<P>,
    node: &Node,
    cfg: RunCfg,
    cache: &mut PackedCache<P>,
) -> Result<Expansion, SimError> {
    let state = &node.state;
    let has_active = ctx.has_active(state);
    if let Some(budget) = cfg.solo_budget {
        // One unpack per node, one machine clone per probe — the same cost
        // shape as the reference's per-pid `machine.clone()`.
        let base = Machine::from_packed_cached(ctx, cache, state);
        for pid in (0..state.n()).filter(|&p| ctx.is_active(state, p)) {
            let mut probe = base.clone();
            if probe.run_solo(pid, budget)?.is_none() {
                return Ok(Expansion {
                    solo_failure: Some(pid),
                    has_active,
                    edges: Vec::new(),
                });
            }
        }
    }
    let mut edges = Vec::new();
    if node.expand {
        for pid in (0..state.n()).filter(|&p| ctx.is_active(state, p)) {
            let fp = ctx
                .edge_digest_cached(cache, state, pid, node.fp, cfg.symmetric)
                .map_err(|source| SimError::Model {
                    pid,
                    step: state.steps(),
                    source,
                })?;
            edges.push(Edge { pid, fp });
        }
    }
    Ok(Expansion {
        solo_failure: None,
        has_active,
        edges,
    })
}

/// Expands a pool batch on the calling thread, one result per node in
/// dispatch order.
fn expand_batch<P: Process>(
    ctx: &PackedCtx<P>,
    cfg: RunCfg,
    cache: &mut PackedCache<P>,
    batch: Batch,
) -> ResultBatch {
    let results = batch
        .into_iter()
        .map(|node| {
            let out = expand_node(ctx, &node, cfg, cache);
            NodeResult { node, out }
        })
        .collect();
    if let Some(cap) = cfg.cache_cap {
        cache.evict_if_over(cap);
    }
    results
}

// ---------------------------------------------------------------------------
// Result sources: where the committer gets ordered node results from
// ---------------------------------------------------------------------------

/// The committer's view of the expansion machinery: it hands out tasks and
/// asks for node results in admission order. Sequential and work-stealing
/// implementations share the one committer, which is what makes them
/// bit-identical. Both calls are fallible because a budgeted run's queues
/// may touch disk.
trait ResultSource<P: Process> {
    fn dispatch(&mut self, node: Node) -> Result<(), SimError>;
    fn take(&mut self, index: usize) -> Result<NodeResult, SimError>;
    /// Called once, the first time the live frontier is wide; `true` if
    /// that started a pool.
    fn widen(&mut self) -> Result<bool, SimError> {
        Ok(false)
    }
}

/// In-process source: tasks run inline, in dispatch order, on the calling
/// thread. The admission queue is a budgeted [`FrontierStore`]: within the
/// memory budget it is the plain deque this engine always used, past it the
/// backlog spills to the run's arena and streams back in the same order, so
/// `take` still sees exactly the dispatch sequence.
struct SeqSource<'c, P: Process> {
    ctx: &'c PackedCtx<P>,
    cfg: RunCfg,
    queue: FrontierStore<NodeCodec>,
    cache: PackedCache<P>,
}

impl<'c, P: Process> SeqSource<'c, P> {
    fn new(ctx: &'c PackedCtx<P>, cfg: RunCfg, mem: &SpillContext) -> Self {
        SeqSource {
            ctx,
            cfg,
            queue: FrontierStore::new(NodeCodec, mem.clone()),
            cache: PackedCache::new(),
        }
    }
}

impl<P: Process> ResultSource<P> for SeqSource<'_, P> {
    fn dispatch(&mut self, node: Node) -> Result<(), SimError> {
        self.queue.push(node)?;
        Ok(())
    }

    fn take(&mut self, index: usize) -> Result<NodeResult, SimError> {
        let node = self.queue.pop()?.expect("take follows dispatch");
        debug_assert_eq!(node.index, index);
        let out = expand_node(self.ctx, &node, self.cfg, &mut self.cache);
        if let Some(cap) = self.cfg.cache_cap {
            self.cache.evict_if_over(cap);
        }
        Ok(NodeResult { node, out })
    }
}

/// Everything the worker threads and the committer share.
struct Pool {
    /// One deque per worker: the committer deals node batches round-robin;
    /// owners pop the front, idle workers steal from the front of other
    /// deques (FIFO everywhere keeps completion roughly in admission order,
    /// which keeps the committer's reorder buffer small). Each deque is a
    /// budgeted [`FrontierStore`], so backlogged batches spill rather than
    /// accumulate.
    deques: Vec<Mutex<FrontierStore<BatchCodec>>>,
    /// Expanded batches, keyed by their first admission index; large-index
    /// batches park in the spill arena past the budget.
    results: Mutex<ReorderBuffer<ResultCodec>>,
    results_ready: Condvar,
    /// Parking lot for idle workers.
    idle: Mutex<()>,
    work_ready: Condvar,
    stop: AtomicBool,
    /// First spill-IO failure observed by any pool thread. A worker that
    /// hits one records it here and stops the pool; the committer turns it
    /// into a clean [`SimError::Spill`] instead of the abnormal-termination
    /// panic reserved for genuine worker crashes.
    io_error: Mutex<Option<SpillError>>,
}

impl Pool {
    fn pop_batch(&self, home: usize) -> Result<Option<Batch>, SpillError> {
        let workers = self.deques.len();
        for offset in 0..workers {
            let deque = &self.deques[(home + offset) % workers];
            if let Some(batch) = deque.lock().unwrap().pop()? {
                return Ok(Some(batch));
            }
        }
        Ok(None)
    }

    /// Records the first spill failure (later ones lose the race and are
    /// dropped: one failure already stops the run).
    fn record_io_error(&self, err: SpillError) {
        self.io_error
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .get_or_insert(err);
    }

    /// Takes the recorded spill failure, if any (committer side).
    fn take_io_error(&self) -> Option<SpillError> {
        self.io_error
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .take()
    }

    fn worker_loop<P: Process>(&self, ctx: &PackedCtx<P>, cfg: RunCfg, home: usize) {
        let _guard = StopGuard(self);
        // Thread-local read-through view of the shared intern tables; lives
        // for the whole run, so entries are fetched under a shard lock at
        // most once per worker (unless a budget caps and clears it).
        let mut cache = PackedCache::new();
        loop {
            if self.stop.load(Ordering::Acquire) {
                return; // abandon queued leftovers: the run is decided
            }
            let popped = match self.pop_batch(home) {
                Ok(popped) => popped,
                Err(err) => {
                    // StopGuard (not us) wakes the committer, which maps the
                    // recorded error to a clean outcome.
                    self.record_io_error(err);
                    return;
                }
            };
            if let Some(batch) = popped {
                // The whole batch is one record: one lock, one buffer
                // insert, one committer wakeup.
                let first = batch[0].index;
                let results = expand_batch(ctx, cfg, &mut cache, batch);
                if let Err(err) = self.results.lock().unwrap().insert(first, results) {
                    self.record_io_error(err);
                    return;
                }
                self.results_ready.notify_one();
                continue;
            }
            // Nothing to run or steal: park. The re-check under the idle
            // lock pairs with `dispatch` taking the same lock around its
            // notify, so a task pushed between our failed pop and the wait
            // cannot be missed; the timeout is pure belt-and-braces.
            let guard = self.idle.lock().unwrap();
            if self.stop.load(Ordering::Acquire) {
                return;
            }
            if self.pop_would_succeed() {
                continue;
            }
            let _ = self
                .work_ready
                .wait_timeout(guard, Duration::from_millis(10))
                .unwrap();
        }
    }

    fn pop_would_succeed(&self) -> bool {
        self.deques
            .iter()
            .any(|deque| !deque.lock().unwrap().is_empty())
    }
}

/// Sets the pool's stop flag and wakes everyone on drop — including during
/// unwinding. Held by the committer (so a committer panic releases the
/// workers instead of hanging `thread::scope`'s implicit join) and by every
/// worker (so a worker panic wakes a committer blocked on the result that
/// will now never arrive).
struct StopGuard<'p>(&'p Pool);

impl Drop for StopGuard<'_> {
    fn drop(&mut self) {
        self.0.stop.store(true, Ordering::Release);
        // Poison-tolerant locking: this drop runs *during unwinding* (that
        // is its whole job), where finding a mutex the panicking thread
        // poisoned is expected — an `unwrap` here would be a panic inside a
        // drop, turning a clean unwind into a process abort.
        let guard = self.0.idle.lock().unwrap_or_else(|e| e.into_inner());
        self.0.work_ready.notify_all();
        drop(guard);
        let results = self.0.results.lock().unwrap_or_else(|e| e.into_inner());
        self.0.results_ready.notify_all();
        drop(results);
    }
}

/// Work-stealing source: the committer side of the pool.
struct PoolSource<'p, P: Process> {
    pool: &'p Pool,
    ctx: &'p PackedCtx<P>,
    cfg: RunCfg,
    /// The committer's own intern cache, used when it helps expand.
    cache: PackedCache<P>,
    next_deque: usize,
    /// Nodes admitted but not yet pushed to a deque; flushed as one batch.
    pending: Batch,
    /// Nodes dispatched but not yet taken — the live frontier width the
    /// batch size adapts to.
    outstanding: usize,
    /// The rest of the batch record being committed, drained without
    /// touching the shared buffer again.
    drained: std::vec::IntoIter<NodeResult>,
}

impl<P: Process> PoolSource<'_, P> {
    /// Live batch size: a fraction of the outstanding work per worker, so
    /// wide frontiers amortise pool traffic with big batches while narrow
    /// ones split into single nodes that spread across workers instead of
    /// queueing behind one.
    fn batch_target(&self) -> usize {
        (self.outstanding / (4 * self.pool.deques.len())).clamp(MIN_BATCH, MAX_BATCH)
    }

    fn flush(&mut self) -> Result<(), SimError> {
        if self.pending.is_empty() {
            return Ok(());
        }
        let batch = std::mem::take(&mut self.pending);
        let deques = &self.pool.deques;
        deques[self.next_deque % deques.len()]
            .lock()
            .unwrap()
            .push(batch)?;
        self.next_deque += 1;
        // Serialize the notify against the workers' park re-check: a worker
        // either holds `idle` (and will observe the push above), or is
        // already waiting (and receives this notification).
        let _guard = self.pool.idle.lock().unwrap();
        self.pool.work_ready.notify_one();
        Ok(())
    }

    /// Pops one backlogged batch and expands it on the committer's thread —
    /// what `take` does instead of sleeping while its result is in flight.
    /// Returns `false` if every deque was empty.
    fn help(&mut self) -> Result<bool, SimError> {
        let Some(batch) = self.pool.pop_batch(self.next_deque % self.pool.deques.len())? else {
            return Ok(false);
        };
        let first = batch[0].index;
        let results = expand_batch(self.ctx, self.cfg, &mut self.cache, batch);
        self.pool.results.lock().unwrap().insert(first, results)?;
        Ok(true)
    }

    /// Waits for the batch record whose first node is `index`.
    fn take_batch(&mut self, index: usize) -> Result<ResultBatch, SimError> {
        // Nodes buffer in admission order, so the buffer's first index is
        // its minimum: flush iff the node we are about to wait for (or any
        // earlier one) is still sitting in the buffer.
        if self.pending.first().is_some_and(|node| node.index <= index) {
            self.flush()?;
        }
        loop {
            {
                let mut results = self.pool.results.lock().unwrap();
                if let Some(batch) = results.remove(index)? {
                    return Ok(batch);
                }
                // `stop` flips mid-run only when a worker unwound (its
                // StopGuard) or hit a spill failure; without this check the
                // committer would wait forever for the batch that worker
                // was computing.
                if self.pool.stop.load(Ordering::Acquire) {
                    drop(results);
                    return Err(self.stopped_abnormally());
                }
            }
            // The batch is in flight. Expand a backlogged batch ourselves
            // rather than sleeping — on saturated machines the committer is
            // effectively one more worker; on oversubscribed ones it keeps
            // progress independent of the scheduler.
            if self.help()? {
                continue;
            }
            // Nothing to help with: park until a worker delivers. The
            // re-check under the lock pairs with the workers' insert-then-
            // notify; the timeout covers the window between our failed help
            // and the wait.
            let mut results = self.pool.results.lock().unwrap();
            if let Some(batch) = results.remove(index)? {
                return Ok(batch);
            }
            if self.pool.stop.load(Ordering::Acquire) {
                drop(results);
                return Err(self.stopped_abnormally());
            }
            let _ = self
                .pool
                .results_ready
                .wait_timeout(results, Duration::from_millis(10))
                .unwrap();
        }
    }

    /// A worker stopped the pool mid-run: a recorded spill failure becomes a
    /// clean error, anything else is the abnormal-termination panic.
    fn stopped_abnormally(&self) -> SimError {
        match self.pool.take_io_error() {
            Some(err) => err.into(),
            None => panic!("explorer worker terminated abnormally"),
        }
    }
}

impl<P: Process> ResultSource<P> for PoolSource<'_, P> {
    fn dispatch(&mut self, node: Node) -> Result<(), SimError> {
        self.pending.push(node);
        self.outstanding += 1;
        if self.pending.len() >= self.batch_target() {
            self.flush()?;
        }
        Ok(())
    }

    fn take(&mut self, index: usize) -> Result<NodeResult, SimError> {
        // Takes follow dispatch order and batches are flushed in that order,
        // so once a record is drained the next index opens the next record.
        let result = match self.drained.next() {
            Some(result) => result,
            None => {
                self.drained = self.take_batch(index)?.into_iter();
                self.drained.next().expect("batches are never empty")
            }
        };
        debug_assert_eq!(result.node.index, index, "batches drain in admission order");
        self.outstanding -= 1;
        Ok(result)
    }
}

#[cfg(test)]
thread_local! {
    /// Pools started on this thread: a test sees narrow runs never spawn.
    static POOL_STARTS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// A parallel run's source: the inline [`SeqSource`] until the frontier is
/// wide, then the pool, whose workers [`ResultSource::widen`] spawns in the
/// run's thread scope and deals the inline queue in admission order.
struct ParSource<'s, 'e, P: Process> {
    scope: &'s Scope<'s, 'e>,
    /// `Some` until the handoff.
    inline: Option<SeqSource<'e, P>>,
    pool: PoolSource<'e, P>,
}

impl<P: Process + Send + Sync> ResultSource<P> for ParSource<'_, '_, P> {
    fn dispatch(&mut self, node: Node) -> Result<(), SimError> {
        match &mut self.inline {
            Some(inline) => inline.dispatch(node),
            None => self.pool.dispatch(node),
        }
    }

    fn take(&mut self, index: usize) -> Result<NodeResult, SimError> {
        match &mut self.inline {
            Some(inline) => inline.take(index),
            None => self.pool.take(index),
        }
    }

    fn widen(&mut self) -> Result<bool, SimError> {
        let Some(mut inline) = self.inline.take() else {
            return Ok(false);
        };
        #[cfg(test)]
        POOL_STARTS.with(|starts| starts.set(starts.get() + 1));
        let (pool, ctx, cfg) = (self.pool.pool, self.pool.ctx, self.pool.cfg);
        for home in 0..pool.deques.len() {
            self.scope.spawn(move || pool.worker_loop(ctx, cfg, home));
        }
        self.pool.cache = inline.cache;
        while let Some(node) = inline.queue.pop()? {
            self.pool.dispatch(node)?;
        }
        Ok(true)
    }
}

// ---------------------------------------------------------------------------
// The deterministic committer
// ---------------------------------------------------------------------------

/// Validity/agreement check on one packed configuration: collects the
/// semantic decision vector and defers to the engine-shared
/// [`crate::checker::violation_from_decisions`], so both representations'
/// checks can never drift apart.
pub(crate) fn packed_violation<P: Process>(
    ctx: &PackedCtx<P>,
    cache: &mut PackedCache<P>,
    state: &PackedState,
    inputs: &[u64],
    link: usize,
    links: &[Link],
) -> Option<ExploreOutcome> {
    let decisions: Vec<u64> = (0..state.n())
        .filter_map(|p| ctx.decision_cached(cache, state, p))
        .collect();
    crate::checker::violation_from_decisions(&decisions, inputs, link, links)
}

/// The sequential commit loop: consumes node results in admission order and
/// makes every stateful decision exactly the way the clone-based reference
/// BFS does. This is the *only* place the admitted set, links, counters and
/// outcome are touched, which is the whole determinism argument — the seen
/// set is this loop's own, called in one deterministic order.
#[allow(clippy::too_many_arguments)]
fn drive<P, S>(
    ctx: &PackedCtx<P>,
    root: PackedState,
    inputs: &[u64],
    limits: ExploreLimits,
    symmetric: bool,
    source: &mut S,
    mem: &SpillContext,
    ckpt: Option<&CheckpointCfg>,
    resume: Option<&Snapshot>,
) -> Result<(ExploreOutcome, ExploreStats), SimError>
where
    P: Process,
    S: ResultSource<P>,
{
    // Unbudgeted: an exact fingerprint set (charged to the tracker at its
    // real size, so unbounded peaks tell the truth). Budgeted: the tiered
    // fingerprint store, which evicts cold fingerprints to sorted runs
    // instead of growing.
    let mut admit = SeenBackend::new(limits.max_configs, mem);
    // The committer's own memoised read-through intern cache (child
    // materialisation, violation checks, the root digest).
    let mut cache: PackedCache<P> = PackedCache::new();
    // Admitted-configuration count: tracks `admit` admissions one-for-one.
    let mut configs = 0usize;
    let mut links: Vec<Link> = Vec::new();
    // (parent link, depth) per admitted node, in admission order.
    let mut meta: Vec<(usize, usize)> = Vec::new();
    let mut complete = true;
    let mut frontier_peak = 1usize;
    let mut depth_reached = 0usize;
    // Admitted / committed node counts per breadth-first layer. A layer's
    // admissions close when the previous layer is fully committed; indices
    // are therefore grouped by layer, in layer order.
    let mut layer_total: Vec<usize> = vec![1];
    let mut layer_done: Vec<usize> = vec![0];
    // Intern-table bytes already charged to the tracker. The tables are
    // append-only (spilled states embed intern ids, so entries can never be
    // evicted); the committer polls their growth into the shared tracker so
    // the budget sees frontier + seen set + interners as one total.
    let mut interned_charged = 0usize;
    let cache_cap = cache_cap_of(limits.memory_budget);
    // Checkpoint telemetry (stays 0 without a checkpoint config; excluded
    // from stats equality like the other byte counters).
    let mut ckpt_seq = 0u64;
    let mut ckpt_bytes = 0u64;
    let mut ckpt_ms = 0u64;
    macro_rules! stats {
        () => {
            ExploreStats {
                configs,
                frontier_peak,
                depth_reached,
                bytes_spilled: mem.tracker().bytes_spilled(),
                peak_resident_bytes: mem.tracker().peak_resident_bytes(),
                seen_resident_bytes: admit.seen_resident_bytes(),
                intern_resident_bytes: ctx.intern_resident_bytes(),
                fpset_disk_bytes: admit.fpset_disk_bytes(),
                checkpoint_bytes: ckpt_bytes,
                checkpoint_ms: ckpt_ms,
                ..ExploreStats::default()
            }
        };
    }

    // Horizon nodes with no solo checks to run have a fixed, edge-free
    // expansion; computing their `has_active` bit inline at admission (flag
    // reads only, no table locks) spares the biggest layer of a
    // depth-limited run a pool round-trip per node.
    let mut inline_active: HashMap<usize, bool> = HashMap::new();
    let solo = limits.solo_check_budget.is_some();

    let n = root.n();
    let root_fp = ctx.digest_cached(&mut cache, &root, symmetric);
    let mut next_commit = 0usize;
    if let Some(snap) = resume {
        // --- Resume: restore the committer's logical state, then rebuild
        // everything physical deterministically. ---
        //
        // The snapshot stores membership and provenance, not layouts: the
        // seen set is re-admitted fp by fp (its tiering afterwards differs
        // from the killed run's — telemetry, excluded from stats equality),
        // and every pending node's state is replayed from the root through
        // the *current* intern tables, because intern ids are internal to a
        // process lifetime and digests hash content, never ids.
        if snap.seen.binary_search(&root_fp).is_err() {
            return Err(snapshot_sim_err(&SnapshotError::IdentityMismatch {
                detail: "root fingerprint absent from the snapshot's seen set".to_string(),
            }));
        }
        for &fp in &snap.seen {
            let fresh = admit.admit(fp)?;
            debug_assert!(fresh, "snapshot seen set carries duplicates");
        }
        configs = snap.seen.len();
        links.clone_from(&snap.links);
        complete = snap.complete;
        frontier_peak = snap.frontier_peak;
        depth_reached = snap.depth_reached;
        next_commit = snap.next_commit;
        // Per-node (parent link, depth) and the layer counters are pure
        // functions of the link list: node `j + 1`'s link is `j`, its depth
        // is one past its parent's, and layers admit index-contiguously.
        meta.push((NO_LINK, 0));
        for (j, &(parent, _)) in links.iter().enumerate() {
            let parent_index = if parent == NO_LINK { 0 } else { parent + 1 };
            let depth = meta[parent_index].1 + 1;
            meta.push((j, depth));
            if layer_total.len() <= depth {
                layer_total.push(0);
                layer_done.push(0);
            }
            layer_total[depth] += 1;
        }
        for &(_, depth) in &meta[..next_commit] {
            layer_done[depth] += 1;
        }
        // Snapshots land at admission boundaries, so the pending frontier is
        // exactly the uncommitted index suffix; re-dispatch it in admission
        // order (the order `take` will ask for it back in).
        for (index, &(link, d)) in meta.iter().enumerate().skip(next_commit) {
            let mut state = root.clone();
            for pid in schedule_of(&links, link) {
                ctx.step_cached(&mut cache, &mut state, pid).map_err(|source| {
                    SimError::Model {
                        pid,
                        step: state.steps(),
                        source,
                    }
                })?;
            }
            let fp = ctx.digest_cached(&mut cache, &state, symmetric);
            let expand = d < limits.depth;
            if expand || solo {
                source.dispatch(Node { index, state, fp, expand })?;
            } else {
                inline_active.insert(index, ctx.has_active(&state));
            }
        }
    } else {
        let _root_new = admit.admit(root_fp)?;
        debug_assert!(_root_new, "fresh run: the root cannot be pre-admitted");
        configs += 1;
        if let Some(violation) = packed_violation(ctx, &mut cache, &root, inputs, NO_LINK, &links) {
            return Ok((violation, stats!()));
        }
        meta.push((NO_LINK, 0));
        if limits.depth > 0 || solo {
            source.dispatch(Node {
                index: 0,
                state: root,
                fp: root_fp,
                expand: limits.depth > 0,
            })?;
        } else {
            inline_active.insert(0, ctx.has_active(&root));
        }
    }

    let mut next_ckpt_at = ckpt.map(|ck| configs as u64 + ck.every);
    let mut wide = false;
    while next_commit < meta.len() {
        // Admitted, uncommitted nodes outside `inline_active` are the live
        // frontier. The first time it is wide, the source may start its
        // pool, and then the seen set reserves room for the whole run.
        if !wide && meta.len() - next_commit - inline_active.len() >= MIN_PARALLEL_CONFIGS {
            wide = true;
            if source.widen()? {
                admit.reserve(limits.max_configs);
            }
        }
        // Fold intern-table growth (the committer's own and every worker's)
        // into the shared resident total before the admissions below consult
        // the budget. The tables only grow, so this is a one-way delta.
        let interned = ctx.intern_resident_bytes();
        if interned > interned_charged {
            mem.tracker().add_resident(interned - interned_charged);
            interned_charged = interned;
        }
        // The evictable stores keep themselves within the budget (plus a
        // bounded slack), but the intern tables just charged are append-only:
        // once they push the total past the envelope nothing can shrink it
        // back, so stop with the typed error instead of silently overrunning
        // the cap the caller asked for.
        if let Some(budget) = limits.memory_budget {
            let resident = mem.tracker().resident_bytes();
            if resident > budget.saturating_add(BUDGET_OVERRUN_SLACK) {
                return Err(SimError::Budget {
                    needed: resident,
                    budget,
                });
            }
        }
        // Periodic snapshot, taken strictly at an admission boundary: the
        // node at `next_commit` is not yet expanded, so the admitted set,
        // links and counters are exactly the reference order's prefix.
        if let (Some(ck), Some(at)) = (ckpt, next_ckpt_at.as_mut()) {
            if configs as u64 >= *at {
                let started = Instant::now();
                // Queued spill-arena writes drain and fsync first, so the
                // on-disk arena is never staler than the snapshot beside it.
                mem.sync()?;
                let mut seen = admit.collect_fps()?;
                seen.sort_unstable();
                debug_assert_eq!(seen.len(), configs, "admissions track configs 1:1");
                let snap = Snapshot {
                    protocol: ck.protocol.clone(),
                    n,
                    inputs: inputs.to_vec(),
                    depth: limits.depth,
                    max_configs: limits.max_configs,
                    solo_check_budget: limits.solo_check_budget,
                    symmetric,
                    links: links.clone(),
                    seen,
                    next_commit,
                    frontier_peak,
                    depth_reached,
                    complete,
                };
                let written = snap.write(&ck.path).map_err(|e| snapshot_sim_err(&e))?;
                if ck.retain {
                    let numbered = PathBuf::from(format!("{}.ck{ckpt_seq}", ck.path.display()));
                    std::fs::copy(&ck.path, &numbered).map_err(|e| SimError::Spill {
                        detail: format!("checkpoint: retaining copy failed: {}", e.kind()),
                    })?;
                }
                ckpt_seq += 1;
                ckpt_bytes += written;
                ckpt_ms += started.elapsed().as_millis() as u64;
                *at = configs as u64 + ck.every;
            }
        }
        if let Some(cap) = cache_cap {
            cache.evict_if_over(cap);
        }
        let (parent_link, d) = meta[next_commit];
        let (expansion, parent) = match inline_active.remove(&next_commit) {
            Some(has_active) => (
                Expansion {
                    solo_failure: None,
                    has_active,
                    edges: Vec::new(),
                },
                None,
            ),
            None => {
                let result = source.take(next_commit)?;
                (result.out?, Some(result.node))
            }
        };
        if let Some(pid) = expansion.solo_failure {
            return Ok((
                ExploreOutcome::ObstructionFailure {
                    pid,
                    schedule: schedule_of(&links, parent_link),
                },
                stats!(),
            ));
        }
        // A horizon node with moves left is what the depth cutoff hides.
        if d >= limits.depth && expansion.has_active {
            complete = false;
        }
        for Edge { pid, fp } in expansion.edges {
            if !admit.admit(fp)? {
                continue;
            }
            configs += 1;
            if configs > limits.max_configs {
                // Mirror of the reference: the over-cap configuration stays
                // counted, nothing else of the partial layer does.
                complete = false;
                return Ok((
                    ExploreOutcome::Clean { configs, complete },
                    stats!(),
                ));
            }
            // Edges only come from dispatched nodes, so the parent is present.
            let parent = parent.as_ref().expect("expanded node");
            let child_state = ctx
                .branch_step_cached(&mut cache, &parent.state, pid)
                .expect("previewed edge steps");
            debug_assert_eq!(
                fp,
                ctx.digest(&child_state, symmetric),
                "incremental digest out of sync with full scan"
            );
            let link = links.len();
            links.push((parent_link, pid));
            if let Some(violation) =
                packed_violation(ctx, &mut cache, &child_state, inputs, link, &links)
            {
                return Ok((violation, stats!()));
            }
            let child_depth = d + 1;
            let index = meta.len();
            meta.push((link, child_depth));
            if layer_total.len() <= child_depth {
                layer_total.push(0);
                layer_done.push(0);
            }
            layer_total[child_depth] += 1;
            let expand = child_depth < limits.depth;
            if expand || solo {
                source.dispatch(Node {
                    index,
                    state: child_state,
                    fp,
                    expand,
                })?;
            } else {
                inline_active.insert(index, ctx.has_active(&child_state));
            }
        }
        next_commit += 1;
        layer_done[d] += 1;
        // Commits run in index order and layers are index-contiguous, so
        // this fires exactly when layer `d`'s last node commits.
        if layer_done[d] == layer_total[d] {
            // Layer `d` fully expanded...
            if d < limits.depth {
                depth_reached = d + 1;
            }
            // ...and layer `d+1`'s admissions are closed — it is exactly the
            // breadth-first frontier the reference would hold live next.
            if let Some(&next_layer) = layer_total.get(d + 1) {
                if next_layer > 0 {
                    frontier_peak = frontier_peak.max(next_layer);
                }
            }
        }
    }
    Ok((
        ExploreOutcome::Clean { configs, complete },
        stats!(),
    ))
}

// ---------------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------------

/// Sequential packed exploration (no thread bounds on the process type),
/// with optional periodic checkpoints and an optional snapshot to resume
/// from.
pub(crate) fn explore_packed_seq<P: Protocol>(
    protocol: &P,
    inputs: &[u64],
    limits: ExploreLimits,
    symmetric: bool,
    ckpt: Option<CheckpointCfg>,
    resume: Option<&Snapshot>,
) -> Result<(ExploreOutcome, ExploreStats), SimError> {
    let (ctx, root, cfg, mem) = start(protocol, inputs, limits, symmetric, resume)?;
    let mut source = SeqSource::new(&ctx, cfg, &mem);
    drive(&ctx, root, inputs, limits, symmetric, &mut source, &mem, ckpt.as_ref(), resume)
}

/// A run's setup: checks a resumed snapshot's identity, then builds the
/// packed context, the root, the per-run constants and the memory context.
#[allow(clippy::type_complexity)]
fn start<P: Protocol>(
    protocol: &P,
    inputs: &[u64],
    limits: ExploreLimits,
    symmetric: bool,
    resume: Option<&Snapshot>,
) -> Result<(PackedCtx<P::Proc>, PackedState, RunCfg, SpillContext), SimError> {
    if let Some(snap) = resume {
        snap.check_identity(protocol, inputs, &limits, symmetric)
            .map_err(|e| snapshot_sim_err(&e))?;
    }
    let machine = Machine::start(protocol, inputs)?;
    let ctx = machine.packed_ctx();
    let root = machine.pack(&ctx);
    let cfg = RunCfg {
        solo_budget: limits.solo_check_budget,
        symmetric,
        cache_cap: cache_cap_of(limits.memory_budget),
    };
    Ok((ctx, root, cfg, SpillContext::new(limits.memory_budget)))
}

/// Parallel packed exploration: starts inline like [`explore_packed_seq`]
/// and hands its frontier to a persistent work-stealing pool of `workers`
/// threads once it is wide, with optional periodic checkpoints and an
/// optional snapshot to resume from.
#[allow(clippy::too_many_arguments)]
pub(crate) fn explore_packed_par<P: Protocol>(
    protocol: &P,
    inputs: &[u64],
    limits: ExploreLimits,
    symmetric: bool,
    workers: usize,
    ckpt: Option<CheckpointCfg>,
    resume: Option<&Snapshot>,
) -> Result<(ExploreOutcome, ExploreStats), SimError>
where
    P::Proc: Send + Sync,
{
    if workers <= 1 {
        return explore_packed_seq(protocol, inputs, limits, symmetric, ckpt, resume);
    }
    let (ctx, root, cfg, mem) = start(protocol, inputs, limits, symmetric, resume)?;
    let pool = Pool {
        deques: (0..workers)
            .map(|_| Mutex::new(FrontierStore::new(BatchCodec, mem.clone())))
            .collect(),
        results: Mutex::new(ReorderBuffer::new(ResultCodec, mem.clone())),
        results_ready: Condvar::new(),
        idle: Mutex::new(()),
        work_ready: Condvar::new(),
        stop: AtomicBool::new(false),
        io_error: Mutex::new(None),
    };
    std::thread::scope(|scope| {
        let mut source = ParSource {
            scope,
            inline: Some(SeqSource::new(&ctx, cfg, &mem)),
            pool: PoolSource {
                pool: &pool,
                ctx: &ctx,
                cfg,
                cache: PackedCache::new(),
                next_deque: 0,
                pending: Vec::new(),
                outstanding: 0,
                drained: Vec::new().into_iter(),
            },
        };
        // The guard (not explicit code) stops the pool, so the workers are
        // released even if `drive` panics mid-commit — otherwise the scope's
        // implicit join would turn the panic into a deadlock.
        let _stop = StopGuard(&pool);
        drive(&ctx, root, inputs, limits, symmetric, &mut source, &mem, ckpt.as_ref(), resume)
    })
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
        let seq = explore_packed_seq(protocol, inputs, limits, false, None, None).unwrap();
        assert_eq!(seq, oracle, "sequential packed engine vs reference");
        for workers in [2, 4, 8] {
            let par =
                explore_packed_par(protocol, inputs, limits, false, workers, None, None).unwrap();
            assert_eq!(par, oracle, "packed engine at {workers} workers vs reference");
        }
        // A zero memory budget (every push spills, root included) must be
        // unobservable in the outcome — the full budget matrix lives in
        // tests/memory_budget.rs; this pins the local invariant.
        let budgeted = ExploreLimits {
            memory_budget: Some(0),
            ..limits
        };
        let spill = explore_packed_seq(protocol, inputs, budgeted, false, None, None).unwrap();
        assert_eq!(spill, oracle, "zero-budget packed engine vs reference");
        // Depth-0 runs without solo checks queue nothing, so only runs that
        // dispatch at least the root are required to have spilled.
        if limits.depth > 0 || limits.solo_check_budget.is_some() {
            assert!(spill.1.bytes_spilled > 0, "zero budget must spill");
        }
    }

    /// A batch record mixing every result shape: a solo failure (budget 0
    /// fails the first active pid), an edge-free horizon node, and two
    /// multi-edge nodes.
    fn mixed_batch(first: usize) -> ResultBatch {
        let machine = Machine::start(&MaxRegConsensus::new(3), &[0, 1, 2]).unwrap();
        let ctx = machine.packed_ctx();
        let mut cache = PackedCache::new();
        let root = machine.pack(&ctx);
        let child = ctx.branch_step_cached(&mut cache, &root, 1).unwrap();
        let plain = RunCfg { solo_budget: None, symmetric: false, cache_cap: None };
        let solo = RunCfg { solo_budget: Some(0), ..plain };
        [(&root, true, solo), (&child, false, plain), (&root, true, plain), (&child, true, plain)]
            .into_iter()
            .enumerate()
            .map(|(i, (state, expand, cfg))| {
                let fp = ctx.digest(state, false);
                let node = Node { index: first + 2 * i, state: state.clone(), fp, expand };
                let out = expand_node(&ctx, &node, cfg, &mut cache);
                NodeResult { node, out }
            })
            .collect()
    }

    #[test]
    fn batch_records_round_trip_and_park_in_first_index_order() {
        let batch = mixed_batch(5);
        let shapes: Vec<_> = batch.iter().map(|r| r.out.as_ref().unwrap()).collect();
        assert_eq!(shapes[0].solo_failure, Some(0));
        assert!(shapes[1].edges.is_empty() && shapes[1].has_active);
        assert!(shapes[2].edges.len() > 1 && shapes[3].edges.len() > 1);
        let mut bytes = Vec::new();
        ResultCodec.encode(&batch, None, &mut bytes);
        assert_eq!(ResultCodec.decode(&bytes, None), batch);

        // One error result pins the whole record in memory.
        let mut failing = mixed_batch(0);
        assert!(ResultCodec.spillable(&failing));
        failing[2].out = Err(SimError::SteppedDecided { pid: 1 });
        assert!(!ResultCodec.spillable(&failing));

        // At a zero budget every record parks, and comes back by first index.
        let mem = SpillContext::new(Some(0));
        let mut buffer = ReorderBuffer::new(ResultCodec, mem.clone());
        for first in [40, 0, 20] {
            buffer.insert(first, mixed_batch(first)).unwrap();
        }
        assert!(mem.tracker().bytes_spilled() > 0, "zero budget must park batches");
        for first in [0, 20, 40] {
            assert_eq!(buffer.remove(first).unwrap(), Some(mixed_batch(first)));
        }
        assert_eq!(mem.tracker().resident_bytes(), 0);
    }

    #[test]
    fn packed_engine_matches_reference_on_clean_and_violating_runs() {
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
        agree(&OneMaxRegister::new(), &[0, 1], ExploreLimits::default());
        agree(&OneRegister::new(3), &[0, 1, 1], ExploreLimits::default());
    }

    #[test]
    fn packed_engine_matches_reference_under_caps_and_horizons() {
        // Small caps stop while the parallel entry is still inline...
        for cap in [1, 2, 7, 50, 400] {
            agree(
                &MaxRegConsensus::new(2),
                &[1, 0],
                ExploreLimits {
                    depth: 12,
                    max_configs: cap,
                    ..ExploreLimits::default()
                },
            );
        }
        // ...so a row that hands off (after about 2,210 admissions) is
        // needed to exercise the work-stealing committer's over-cap shutdown
        // (early return while workers still preview) against the reference.
        for cap in [2_300, 4_096] {
            agree(
                &MaxRegConsensus::new(4),
                &[0, 1, 2, 3],
                ExploreLimits {
                    depth: 10,
                    max_configs: cap,
                    ..ExploreLimits::default()
                },
            );
        }
        for depth in 0..8 {
            agree(
                &MaxRegConsensus::new(3),
                &[0, 1, 2],
                ExploreLimits {
                    depth,
                    max_configs: 100_000,
                    ..ExploreLimits::default()
                },
            );
        }
    }

    #[test]
    fn only_a_wide_frontier_starts_the_pool() {
        // `MaxRegConsensus::new(3)` to depth 14 never queues more than 933
        // nodes; `new(4)` to depth 10 queues past the threshold once.
        for (n, depth, pools) in [(3, 14, 0), (4, 10, 1)] {
            let inputs: Vec<u64> = (0..n as u64).collect();
            let limits = ExploreLimits { depth, ..ExploreLimits::default() };
            let before = POOL_STARTS.with(std::cell::Cell::get);
            explore_packed_par(&MaxRegConsensus::new(n), &inputs, limits, false, 8, None, None).unwrap();
            assert_eq!(POOL_STARTS.with(std::cell::Cell::get) - before, pools, "n = {n}");
        }
    }
}
