//! The packed pooled explorer: the production state-space engine.
//!
//! # Architecture
//!
//! The engine splits exploration into a **parallel preview phase** and a
//! **deterministic sequential commit**:
//!
//! - **Workers** are pure previews. They pop node batches from one shared
//!   FIFO. A node is one admitted configuration (a flat [`PackedState`]);
//!   the worker runs its optional solo probes and walks its outgoing edges
//!   with the *read-only* [`PackedCtx::edge_digest`] preview, through a
//!   thread-local memoised [`PackedCache`] over the shared intern tables. It
//!   returns the solo verdict, `has_active` and one `(pid, fp)` `Edge` per
//!   active pid — never a successor state — and publishes the whole batch
//!   as **one** result record keyed by the batch's first admission index.
//! - The **committer** (the calling thread) owns the run's admission queue.
//!   It deals batches from the queue's head into the pool, takes the result
//!   records back in admission order, drains each locally, and replays,
//!   verbatim, the sequential algorithm of the clone-based reference BFS:
//!   authoritative admission into the run's one seen set (`crate::fpset`'s
//!   `SeenBackend`), `max_configs` accounting, violation selection,
//!   parent-link construction, layer bookkeeping. Provenance is positional:
//!   node `i`'s link is `i − 1`, so beyond the links and the seen set the
//!   committer keeps only scalars and the horizon layer's `has_active`
//!   bits. It materialises every admitted child itself, with one memoised
//!   `branch_step_cached` from the parent. Every order-sensitive decision is
//!   made here, single-threaded, on a totally ordered stream. While a record
//!   it needs is still being computed, the committer *helps*: it pops and
//!   expands a dealt batch itself instead of sleeping.
//!
//! Workers therefore touch no shared state except the work FIFO, the result
//! map and the append-only intern tables: no claims, no speculative
//! children, no spill IO, and one lock per batch rather than per node.
//!
//! A pool only pays once a frontier is wide, so every run starts on the
//! calling thread with the sequential engine's admission queue. The first
//! time the live frontier holds `MIN_PARALLEL_CONFIGS` nodes, the run
//! spawns its workers; a narrower run spawns no thread at all. The queue
//! stays where it is: the committer keeps admitting into it and tops the
//! pool up from its head whenever less than a fixed window of nodes, capped
//! in count and in bytes, is dealt but not yet taken.
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
//! The one queue that scales with frontier width — the admission queue —
//! is a [`crate::frontier`] store: within [`ExploreLimits::memory_budget`]
//! it is a plain in-memory deque; past it, its backlog delta-compresses
//! ([`cbh_model::packed::delta`]) into a temp-file arena and streams back in
//! admission order. The pool's window bounds everything else a parallel run
//! holds per node (dealt batches and their result records), so that stays
//! in memory, charged to the run's tracker. Spilling only moves *where* a
//! node waits, never the order the committer consumes results in, so the
//! determinism argument — and bit-identical `(ExploreOutcome,
//! ExploreStats)` — holds at any budget; the budgeted runs additionally
//! report [`ExploreStats::bytes_spilled`] and
//! [`ExploreStats::peak_resident_bytes`] (telemetry, excluded from stats
//! equality).

use crate::checker::{link_of, schedule_of, ExploreLimits, ExploreOutcome, ExploreStats, Link, NO_LINK};
use crate::fpset::SeenBackend;
use crate::frontier::{FrontierStore, SpillCodec, SpillContext, SpillError};
use crate::snapshot::{Snapshot, SnapshotError, NO_PARENT};
use cbh_model::packed::delta::{write_varint, DeltaError};
use cbh_model::packed::frame::FieldReader;
use cbh_model::{apply_delta, apply_delta_into, decode_flat, encode_delta, encode_flat, PackedCache, PackedCtx,
    PackedState, Process, Protocol};
use cbh_sim::{Machine, SimError};
use std::collections::{HashMap, VecDeque};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex};
use std::thread::Scope;
use std::time::Instant;

// The snapshot wire format and the engine share the "no parent" sentinel, so
// links round-trip without translation.
const _: () = assert!(NO_PARENT == NO_LINK);

/// Tolerated overrun above [`ExploreLimits::memory_budget`] before the
/// engine gives up with [`SimError::Budget`]: covers the evictable stores'
/// bounded slack (in-flight double-buffered spill writes, one streamed-back
/// run, merge buffers) and a pool's window of dealt nodes (half of it, see
/// [`WINDOW_BYTES`]) — the same envelope the budget-stress suite asserts
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
/// together, so the per-task synchronisation — FIFO push, wakeup, result
/// insertion — is paid once per batch instead of once per node).
type Batch = Vec<Node>;

/// Bounds on the adaptive batch size (see `ParSource::batch_target`).
/// Batches amortise the pool's per-task mutex and condvar traffic, but a
/// batch also goes to one worker — too coarse and a narrow frontier lands
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
struct NodeResult {
    node: Node,
    out: Result<Expansion, SimError>,
}

/// An expanded batch, in dispatch order: the pool's unit of hand-off to the
/// committer, keyed in the pool's result map by its first node's index.
type ResultBatch = Vec<NodeResult>;

// ---------------------------------------------------------------------------
// Spill codec: how the admission queue crosses the memory/disk boundary
// ---------------------------------------------------------------------------

/// Codec for the admission queue: records chain across the whole run, each
/// state a delta against the previously spilled one. The state rides last
/// and unframed — both state decoders are strict, so the record's end
/// delimits it.
pub(crate) struct NodeCodec;

fn corrupt_node(detail: impl std::fmt::Display) -> SpillError {
    SpillError::Corrupt {
        detail: format!("node record: {detail}"),
    }
}

/// Parses a node record's fixed fields with checked reads: its index,
/// digest, expand flag, base tag (0 flat, 1 delta) and the state bytes.
fn decode_header(bytes: &[u8]) -> Result<(usize, u128, bool, u8, &[u8]), SpillError> {
    let mut r = FieldReader::new(bytes);
    let mut fields = || Ok::<_, DeltaError>((r.usize()?, r.fp()?, r.bool()?, r.u8()?));
    let (index, fp, expand, tag) = fields().map_err(corrupt_node)?;
    if tag > 1 {
        return Err(corrupt_node(format_args!("bad base tag {tag}")));
    }
    Ok((index, fp, expand, tag, r.rest()))
}

impl SpillCodec for NodeCodec {
    type Item = Node;

    fn encode(&self, node: &Node, prev: Option<&Node>, out: &mut Vec<u8>) {
        write_varint(out, node.index as u64);
        out.extend_from_slice(&node.fp.to_le_bytes());
        out.push(u8::from(node.expand));
        match prev {
            Some(base) => {
                out.push(1);
                encode_delta(&base.state, &node.state, out);
            }
            None => {
                out.push(0);
                encode_flat(&node.state, out);
            }
        }
    }

    fn decode(&self, bytes: &[u8], prev: Option<&Node>) -> Result<Node, SpillError> {
        let (index, fp, expand, tag, state_bytes) = decode_header(bytes)?;
        let state = match (tag, prev) {
            (0, _) => decode_flat(state_bytes).map_err(corrupt_node)?,
            (_, Some(base)) => apply_delta(&base.state, state_bytes).map_err(corrupt_node)?,
            (_, None) => return Err(corrupt_node("delta record without a base")),
        };
        Ok(Node {
            index,
            state,
            fp,
            expand,
        })
    }

    /// Streamed-back records patch the chained base **in place** (a delta
    /// touches a handful of positions) and clone once to return — instead of
    /// building a state from the base and cloning it again for the chain.
    fn decode_step(&self, bytes: &[u8], prev: &mut Option<Node>) -> Result<Node, SpillError> {
        let Some(node) = prev else {
            let item = self.decode(bytes, None)?;
            *prev = Some(item.clone());
            return Ok(item);
        };
        let (index, fp, expand, tag, state_bytes) = decode_header(bytes)?;
        match tag {
            0 => node.state = decode_flat(state_bytes).map_err(corrupt_node)?,
            _ => apply_delta_into(&mut node.state, state_bytes).map_err(corrupt_node)?,
        }
        node.index = index;
        node.fp = fp;
        node.expand = expand;
        Ok(node.clone())
    }

    fn cost(&self, node: &Node) -> usize {
        std::mem::size_of::<Node>() + node.state.resident_bytes()
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
/// asks for node results in admission order. Sequential and pooled
/// implementations share the one committer, which is what makes them
/// bit-identical. Both calls are fallible because a budgeted run's queue
/// may touch disk.
trait ResultSource<P: Process> {
    fn dispatch(&mut self, node: Node) -> Result<(), SimError>;
    fn take(&mut self, index: usize) -> Result<NodeResult, SimError>;
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
    /// Batches dealt from the head of the admission queue, oldest first.
    /// Workers and the helping committer pop the front, so completion runs
    /// roughly in admission order.
    work: Mutex<VecDeque<Batch>>,
    work_ready: Condvar,
    /// Expanded batches, keyed by their first admission index. The window
    /// bounds how many exist at once.
    results: Mutex<HashMap<usize, ResultBatch>>,
    results_ready: Condvar,
    stop: AtomicBool,
}

impl Pool {
    fn worker_loop<P: Process>(&self, ctx: &PackedCtx<P>, cfg: RunCfg) {
        let _guard = StopGuard(self);
        // Thread-local read-through view of the shared intern tables; lives
        // for the whole run, so entries are fetched under a shard lock at
        // most once per worker (unless a budget caps and clears it).
        let mut cache = PackedCache::new();
        loop {
            let batch = {
                let mut work = self.work.lock().unwrap();
                loop {
                    // Checked under the lock `StopGuard` notifies under, so
                    // a stop cannot slip between this check and the wait.
                    if self.stop.load(Ordering::Acquire) {
                        return; // abandon dealt leftovers: the run is decided
                    }
                    if let Some(batch) = work.pop_front() {
                        break batch;
                    }
                    work = self.work_ready.wait(work).unwrap();
                }
            };
            // The whole batch is one record: one lock, one map insert, one
            // committer wakeup.
            let first = batch[0].index;
            let results = expand_batch(ctx, cfg, &mut cache, batch);
            self.results.lock().unwrap().insert(first, results);
            self.results_ready.notify_one();
        }
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
        let work = self.0.work.lock().unwrap_or_else(|e| e.into_inner());
        self.0.work_ready.notify_all();
        drop(work);
        let results = self.0.results.lock().unwrap_or_else(|e| e.into_inner());
        self.0.results_ready.notify_all();
        drop(results);
    }
}

/// Dealt-but-untaken bytes a pool may hold, beyond the node that crosses
/// the mark: half of `BUDGET_OVERRUN_SLACK`, whatever the worker count, so
/// the window never spills yet stays inside the slack beside the stores' own
/// bounded overrun. Its node count is capped separately at one full batch
/// per worker (see [`ParSource::window`]); the byte cap binds only on large
/// states, e.g. from about 7 workers on `tas-reset` n=4's 4.4 KB states.
const WINDOW_BYTES: usize = BUDGET_OVERRUN_SLACK / 2;

#[cfg(test)]
thread_local! {
    /// Pools started on this thread: a test sees narrow runs never spawn.
    static POOL_STARTS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    /// Most nodes, and most bytes, a pool driven from this thread held dealt
    /// but untaken.
    static WINDOW_PEAK: std::cell::Cell<(usize, usize)> = const { std::cell::Cell::new((0, 0)) };
}

/// A parallel run's source: the inline [`SeqSource`] until the frontier is
/// wide; then `take` spawns the workers in the run's thread scope, and the
/// committer deals them batches from the head of the same admission queue,
/// never more than the window at a time.
struct ParSource<'s, 'e, P: Process> {
    scope: &'s Scope<'s, 'e>,
    pool: &'e Pool,
    workers: usize,
    mem: &'e SpillContext,
    /// The admission queue, and the committer's cache for helping.
    inline: SeqSource<'e, P>,
    live: bool,
    /// Nodes dealt to the pool but not yet taken, and their cost.
    in_flight: usize,
    in_flight_bytes: usize,
    /// The rest of the result record being committed, drained without
    /// touching the shared map again.
    drained: std::vec::IntoIter<NodeResult>,
}

impl<P: Process> ParSource<'_, '_, P> {
    /// The window's node cap: one full batch per worker keeps every worker
    /// busy while the committer drains the oldest record. Two and four
    /// batches per worker measured no faster on `deep_explore`.
    fn window(&self) -> usize {
        self.workers * MAX_BATCH
    }

    /// Live batch size: a fraction of the outstanding work per worker, so
    /// wide frontiers amortise pool traffic with big batches while narrow
    /// ones split into single nodes that spread across workers instead of
    /// queueing behind one.
    fn batch_target(&self) -> usize {
        let outstanding = self.inline.queue.len() + self.in_flight;
        (outstanding / (4 * self.workers)).clamp(MIN_BATCH, MAX_BATCH)
    }

    /// Tops the pool up from the head of the admission queue: a full batch
    /// whenever the window has room for one, and a short one only when the
    /// pool holds nothing (the committer's next node is then at the head) or
    /// when the batch reaches the window's byte cap.
    fn deal(&mut self) -> Result<(), SimError> {
        loop {
            let target = self.batch_target();
            let size = target.min(self.inline.queue.len());
            let fits = self.in_flight == 0
                || (size == target && self.in_flight + size <= self.window() && self.in_flight_bytes < WINDOW_BYTES);
            if size == 0 || !fits {
                return Ok(());
            }
            let mut batch = Vec::with_capacity(size);
            while batch.len() < size && self.in_flight_bytes < WINDOW_BYTES {
                let node = self.inline.queue.pop()?.expect("queue holds `size` nodes");
                let cost = NodeCodec.cost(&node);
                self.mem.tracker().add_resident(cost);
                self.in_flight_bytes += cost;
                batch.push(node);
            }
            self.in_flight += batch.len();
            #[cfg(test)]
            WINDOW_PEAK.with(|peak| {
                let (nodes, bytes) = peak.get();
                peak.set((nodes.max(self.in_flight), bytes.max(self.in_flight_bytes)));
            });
            self.pool.work.lock().unwrap().push_back(batch);
            self.pool.work_ready.notify_one();
        }
    }

    /// Waits for the result record whose first node is `index`, expanding
    /// dealt batches itself while that record is in flight.
    fn take_batch(&mut self, index: usize) -> ResultBatch {
        loop {
            if let Some(batch) = self.pool.results.lock().unwrap().remove(&index) {
                return batch;
            }
            // Rather than sleep, expand the oldest dealt batch: on saturated
            // machines the committer is effectively one more worker; on
            // oversubscribed ones it keeps progress independent of the
            // scheduler.
            let Some(batch) = self.pool.work.lock().unwrap().pop_front() else {
                break;
            };
            let first = batch[0].index;
            let results = expand_batch(self.inline.ctx, self.inline.cfg, &mut self.inline.cache, batch);
            if first == index {
                return results;
            }
            self.pool.results.lock().unwrap().insert(first, results);
        }
        // Only the committer deals, so nothing is left to help with: the
        // record is with a worker. Park until it arrives; the check under
        // the lock pairs with the workers' insert-then-notify.
        let mut results = self.pool.results.lock().unwrap();
        loop {
            if let Some(batch) = results.remove(&index) {
                return batch;
            }
            // `stop` flips mid-run only when a worker unwound (its
            // StopGuard); without this check the committer would wait
            // forever for the record that worker was computing.
            assert!(
                !self.pool.stop.load(Ordering::Acquire),
                "explorer worker terminated abnormally"
            );
            results = self.pool.results_ready.wait(results).unwrap();
        }
    }
}

impl<P: Process + Send + Sync> ResultSource<P> for ParSource<'_, '_, P> {
    fn dispatch(&mut self, node: Node) -> Result<(), SimError> {
        self.inline.dispatch(node)
    }

    fn take(&mut self, index: usize) -> Result<NodeResult, SimError> {
        if !self.live {
            // The queue holds exactly the live frontier: every dispatched,
            // untaken node. The first time it is wide, the workers start.
            if self.inline.queue.len() < MIN_PARALLEL_CONFIGS {
                return self.inline.take(index);
            }
            #[cfg(test)]
            POOL_STARTS.with(|starts| starts.set(starts.get() + 1));
            let (pool, ctx, cfg) = (self.pool, self.inline.ctx, self.inline.cfg);
            for _ in 0..self.workers {
                self.scope.spawn(move || pool.worker_loop(ctx, cfg));
            }
            self.live = true;
        }
        self.deal()?;
        // Takes follow admission order and batches are dealt in that order,
        // so once a record is drained the next index opens the next record.
        let result = match self.drained.next() {
            Some(result) => result,
            None => {
                self.drained = self.take_batch(index).into_iter();
                self.drained.next().expect("batches are never empty")
            }
        };
        debug_assert_eq!(result.node.index, index, "batches drain in admission order");
        let cost = NodeCodec.cost(&result.node);
        self.in_flight -= 1;
        self.in_flight_bytes -= cost;
        self.mem.tracker().sub_resident(cost);
        Ok(result)
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
    // Provenance is positional: node `i` owns link `link_of(i)`, so the
    // admitted count is `links.len() + 1` and needs no list of its own.
    let mut links: Vec<Link> = Vec::new();
    let mut complete = true;
    let mut frontier_peak = 1usize;
    let mut depth_reached = 0usize;
    // Layers admit index-contiguously, so the committer needs only the
    // depth `d` of the node at `next_commit` and the end of its layer: when
    // `next_commit` reaches `layer_end`, layer `d + 1` is exactly the
    // admitted suffix `layer_end..links.len() + 1`.
    let mut d = 0usize;
    let mut layer_end = 1usize;
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
            stats!(links.len() + 1)
        };
        ($configs:expr) => {
            ExploreStats {
                configs: $configs,
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
    // depth-limited run a pool round-trip per node. They are exactly the
    // horizon layer, so they commit in admission order: a FIFO suffices.
    // `queue` sends every admitted node one way or the other.
    let mut inline_active: VecDeque<bool> = VecDeque::new();
    let solo = limits.solo_check_budget.is_some();
    let queue = |source: &mut S, inline_active: &mut VecDeque<bool>, node: Node| {
        if node.expand || solo {
            source.dispatch(node)
        } else {
            inline_active.push_back(ctx.has_active(&node.state));
            Ok(())
        }
    };

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
        links.clone_from(&snap.links);
        complete = snap.complete;
        frontier_peak = snap.frontier_peak;
        depth_reached = snap.depth_reached;
        next_commit = snap.next_commit;
        // Link parents never decrease (the snapshot decoder refuses links
        // that do), so a node starts a new layer exactly when its parent
        // sits in the deepest layer so far. One pass finds that layer; the
        // node at `next_commit` is in it or in the layer before, because a
        // child exists only once its parent has committed.
        let (mut deepest, mut deepest_start) = (0usize, 0usize);
        for (j, &(parent, _)) in links.iter().enumerate() {
            let parent_index = if parent == NO_LINK { 0 } else { parent + 1 };
            if parent_index >= deepest_start {
                deepest += 1;
                deepest_start = j + 1;
            }
        }
        (d, layer_end) = if next_commit >= deepest_start {
            (deepest, links.len() + 1)
        } else {
            (deepest - 1, deepest_start)
        };
        // Snapshots land at admission boundaries, so the pending frontier is
        // exactly the uncommitted index suffix; re-dispatch it in admission
        // order (the order `take` will ask for it back in).
        for index in next_commit..=links.len() {
            let mut state = root.clone();
            for pid in schedule_of(&links, link_of(index)) {
                ctx.step_cached(&mut cache, &mut state, pid).map_err(|source| {
                    SimError::Model {
                        pid,
                        step: state.steps(),
                        source,
                    }
                })?;
            }
            let fp = ctx.digest_cached(&mut cache, &state, symmetric);
            let expand = d + usize::from(index >= layer_end) < limits.depth;
            queue(source, &mut inline_active, Node { index, state, fp, expand })?;
        }
    } else {
        let _root_new = admit.admit(root_fp)?;
        debug_assert!(_root_new, "fresh run: the root cannot be pre-admitted");
        if let Some(violation) = packed_violation(ctx, &mut cache, &root, inputs, NO_LINK, &links) {
            return Ok((violation, stats!()));
        }
        let expand = limits.depth > 0;
        queue(source, &mut inline_active, Node { index: 0, state: root, fp: root_fp, expand })?;
    }

    let mut next_ckpt_at = ckpt.map(|ck| links.len() as u64 + 1 + ck.every);
    while next_commit <= links.len() {
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
            let configs = links.len() as u64 + 1;
            if configs >= *at {
                let started = Instant::now();
                // Queued spill-arena writes drain and fsync first, so the
                // on-disk arena is never staler than the snapshot beside it.
                mem.sync()?;
                let mut seen = admit.collect_fps()?;
                seen.sort_unstable();
                debug_assert_eq!(seen.len() as u64, configs, "admissions track configs 1:1");
                // The links travel into the snapshot and back, uncopied.
                let snap = Snapshot {
                    protocol: ck.protocol.clone(),
                    n,
                    inputs: inputs.to_vec(),
                    depth: limits.depth,
                    max_configs: limits.max_configs,
                    solo_check_budget: limits.solo_check_budget,
                    symmetric,
                    links: std::mem::take(&mut links),
                    seen,
                    next_commit,
                    frontier_peak,
                    depth_reached,
                    complete,
                };
                let written = snap.write(&ck.path).map_err(|e| snapshot_sim_err(&e))?;
                links = snap.links;
                if ck.retain {
                    let numbered = PathBuf::from(format!("{}.ck{ckpt_seq}", ck.path.display()));
                    std::fs::copy(&ck.path, &numbered).map_err(|e| SimError::Spill {
                        detail: format!("checkpoint: retaining copy failed: {}", e.kind()),
                    })?;
                }
                ckpt_seq += 1;
                ckpt_bytes += written;
                ckpt_ms += started.elapsed().as_millis() as u64;
                *at = configs + ck.every;
            }
        }
        if let Some(cap) = cache_cap {
            cache.evict_if_over(cap);
        }
        let parent_link = link_of(next_commit);
        let (expansion, parent) = if d >= limits.depth && !solo {
            let has_active = inline_active.pop_front().expect("horizon nodes wait inline");
            let expansion = Expansion {
                solo_failure: None,
                has_active,
                edges: Vec::new(),
            };
            (expansion, None)
        } else {
            let result = source.take(next_commit)?;
            (result.out?, Some(result.node))
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
            let configs = links.len() + 2;
            if configs > limits.max_configs {
                // Mirror of the reference: the over-cap configuration stays
                // counted, nothing else of the partial layer does.
                complete = false;
                return Ok((
                    ExploreOutcome::Clean { configs, complete },
                    stats!(configs),
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
            let (index, expand) = (links.len(), d + 1 < limits.depth);
            queue(source, &mut inline_active, Node { index, state: child_state, fp, expand })?;
        }
        next_commit += 1;
        if next_commit == layer_end {
            // Layer `d` is fully expanded, and layer `d + 1`'s admissions
            // are closed — it is exactly the breadth-first frontier the
            // reference would hold live next.
            if d < limits.depth {
                depth_reached = d + 1;
            }
            layer_end = links.len() + 1;
            frontier_peak = frontier_peak.max(layer_end - next_commit);
            d += 1;
        }
    }
    Ok((
        ExploreOutcome::Clean {
            configs: links.len() + 1,
            complete,
        },
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
/// and hands its frontier to a persistent pool of `workers`
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
        work: Mutex::new(VecDeque::new()),
        work_ready: Condvar::new(),
        results: Mutex::new(HashMap::new()),
        results_ready: Condvar::new(),
        stop: AtomicBool::new(false),
    };
    std::thread::scope(|scope| {
        let mut source = ParSource {
            scope,
            pool: &pool,
            workers,
            mem: &mem,
            inline: SeqSource::new(&ctx, cfg, &mem),
            live: false,
            in_flight: 0,
            in_flight_bytes: 0,
            drained: Vec::new().into_iter(),
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

    #[test]
    fn node_records_decode_totally() {
        let machine = Machine::start(&MaxRegConsensus::new(3), &[0, 1, 2]).unwrap();
        let ctx = machine.packed_ctx();
        let root = machine.pack(&ctx);
        let child = ctx.branch_step(&root, 1).unwrap();
        let node = |index, state: &PackedState| Node { index, fp: ctx.digest(state, false), state: state.clone(), expand: true };
        let (first, second) = (node(3, &root), node(4, &child));
        let (mut flat, mut delta) = (Vec::new(), Vec::new());
        NodeCodec.encode(&first, None, &mut flat);
        NodeCodec.encode(&second, Some(&first), &mut delta);
        assert_eq!(NodeCodec.decode(&flat, None), Ok(first.clone()));
        let mut chain = Some(first.clone());
        assert_eq!(NodeCodec.decode_step(&delta, &mut chain), Ok(second.clone()));
        assert_eq!(chain, Some(second));

        let is_corrupt = |got: Result<Node, SpillError>| matches!(got, Err(SpillError::Corrupt { .. }));
        // Every truncation — mid-index, mid-digest, before the flags, mid-state.
        for (record, base) in [(&flat, None), (&delta, Some(&first))] {
            for len in 0..record.len() {
                assert!(is_corrupt(NodeCodec.decode(&record[..len], base)), "{len} of {} bytes", record.len());
                let mut chain = base.cloned();
                assert!(is_corrupt(NodeCodec.decode_step(&record[..len], &mut chain)), "step, {len} bytes");
            }
        }
        // The base tag sits after the 1-byte index, the digest and the flag.
        for tag in 2..=u8::MAX {
            let mut bad = flat.clone();
            bad[18] = tag;
            assert!(is_corrupt(NodeCodec.decode(&bad, None)), "tag {tag}");
            assert!(is_corrupt(NodeCodec.decode_step(&bad, &mut Some(first.clone()))), "step, tag {tag}");
        }
        // A delta record needs a base to patch.
        assert!(is_corrupt(NodeCodec.decode(&delta, None)));
        assert!(is_corrupt(NodeCodec.decode_step(&delta, &mut None)));
        // Spilled and damaged on disk in one digest byte (after the 10-byte
        // frame header, the length prefix and the 1-byte index), a record
        // fails its run's CRC instead of decoding to a node with another fp.
        let mem = SpillContext::new(Some(0));
        let mut queue = FrontierStore::new(NodeCodec, mem.clone());
        queue.push(first).unwrap();
        mem.sync().unwrap();
        let path = mem.arena().durable_path().expect("spill file exists");
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[12] ^= 0x01;
        std::fs::write(&path, bytes).unwrap();
        assert!(matches!(queue.pop(), Err(SpillError::Corrupt { .. })));
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
        // needed to exercise the pooled committer's over-cap shutdown
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

    /// The pool's (node, byte) high-water mark on one run.
    fn window_peak<P>(protocol: &P, depth: usize, workers: usize) -> (usize, usize)
    where
        P: Protocol,
        P::Proc: Send + Sync,
    {
        let limits = ExploreLimits { depth, ..ExploreLimits::default() };
        let inputs: Vec<u64> = (0..protocol.n() as u64).collect();
        WINDOW_PEAK.with(|peak| peak.set((0, 0)));
        explore_packed_par(protocol, &inputs, limits, false, workers, None, None).unwrap();
        WINDOW_PEAK.with(std::cell::Cell::get)
    }

    #[test]
    fn the_pool_never_holds_more_than_its_window() {
        // `MaxRegConsensus::new(4)`'s small states fill the node cap.
        for workers in [2, 8] {
            let (nodes, _) = window_peak(&MaxRegConsensus::new(4), 14, workers);
            let window = workers * MAX_BATCH;
            assert!(nodes > 0 && nodes <= window, "{workers} workers: {nodes} dealt nodes, window {window}");
        }
        // `tas-reset` n=4's 4.4 KB states reach the byte cap at 32 workers,
        // whose node cap (2,048) would hold 9 MB; the cap is overshot by at
        // most the one node that crosses it.
        let (nodes, bytes) = window_peak(&cbh_core::bitwise::tas_reset_consensus(4), 12, 32);
        assert!(nodes < 32 * MAX_BATCH, "{nodes} dealt nodes");
        assert!((WINDOW_BYTES..WINDOW_BYTES + 8192).contains(&bytes), "{bytes} dealt bytes");
    }
}
