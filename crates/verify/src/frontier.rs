//! Memory-bounded frontier storage: in-memory queues that spill to disk.
//!
//! The exploration engines hold their pending nodes in an admission queue
//! (the packed engine's, or a shard's), bounded only by the frontier width,
//! which on dense rows outgrows RAM long before the time budget is spent. A
//! parallel run deals its workers a bounded window from that queue's head,
//! so the queue is the one structure that needs a budgeted backend:
//! [`FrontierStore`], a FIFO queue. Within the budget it *is* the plain
//! `VecDeque` the engines always used (the in-memory backend); past the
//! budget it drains its resident backlog as **runs** of encoded records
//! into a [`SpillArena`] and streams each run back, record by record, when
//! the queue's head reaches it. Runs are written in admission order and read
//! in admission order, so the queue's FIFO contract — and therefore the
//! committer's determinism argument — is untouched by where the bytes live.
//!
//! Encoding is delegated to a [`SpillCodec`]; the packed engine's codec
//! delta-compresses each record against its predecessor in the run
//! (consecutive admissions are siblings or cousins, so a record is a few
//! bytes — see [`cbh_model::packed::delta`]).
//!
//! Each run is sealed as one [`cbh_model::packed::frame`] frame: its
//! payload is the run's records, each behind a varint length prefix, and
//! the frame's CRC covers them all. A backlog is cut into runs of about
//! 1 MiB of records, far below the frame payload cap. Reading a run back
//! checks its frame first, so a byte damaged on disk is a typed
//! [`SpillError::Corrupt`], never a record that still parses as a
//! different item.
//!
//! # Budget semantics
//!
//! The budget is **shared and soft**: every store of one run updates one
//! [`MemTracker`], spilling is triggered when the *global* resident total
//! exceeds the budget, and each store drains only its own backlog — so the
//! peak can overshoot by the in-flight run being encoded or streamed back.
//! [`MemTracker::peak_resident_bytes`] reports the truth either way, which
//! is also how callers pick a budget: run once unbounded, read the peak,
//! budget a fraction of it.
//!
//! # Hygiene
//!
//! Arena files live under [`spill_dir`] (`CBH_SPILL_DIR`, else the system
//! temp dir) and are deleted when the arena drops — on normal return *and*
//! during unwinding, so a panicking run (a committer, or a pool worker on
//! the engine's `StopGuard` path) leaves no orphaned spill files behind.

use std::collections::VecDeque;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use cbh_model::packed::delta::write_varint;
use cbh_model::packed::frame::{
    decode_frame_exact, encode_frame, frame_len, FieldReader, FRAME_HEADER_LEN,
};

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// A typed spill-IO failure: what went wrong when the budgeted stores tried
/// to move bytes to or from disk, or what failed to parse when they read
/// them back. The engines map these to a clean
/// [`cbh_sim::SimError::Spill`] instead of panicking, so a full disk or an
/// unwritable spill directory surfaces as an error outcome, not an abort.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpillError {
    /// Creating the arena file failed (missing/unwritable spill dir, EMFILE).
    Create {
        /// The path that could not be created.
        path: String,
        /// The OS-level failure class.
        kind: std::io::ErrorKind,
    },
    /// Writing a run failed mid-stream (disk full, IO error).
    Write {
        /// The OS-level failure class.
        kind: std::io::ErrorKind,
    },
    /// The OS accepted fewer bytes than the run holds.
    ShortWrite,
    /// Reading a run back failed.
    Read {
        /// The OS-level failure class.
        kind: std::io::ErrorKind,
    },
    /// The file ended before the run's recorded length — truncation.
    ShortRead {
        /// Offset the read started at.
        offset: u64,
        /// Bytes the run index said were there.
        wanted: usize,
    },
    /// Bytes read back don't parse as the structure that was written
    /// (framing violation, unsorted fingerprint run).
    Corrupt {
        /// What failed to parse.
        detail: String,
    },
}

impl fmt::Display for SpillError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpillError::Create { path, kind } => {
                write!(f, "create spill arena {path}: {kind}")
            }
            SpillError::Write { kind } => write!(f, "write spill run: {kind}"),
            SpillError::ShortWrite => write!(f, "short write to spill arena"),
            SpillError::Read { kind } => write!(f, "read spill run: {kind}"),
            SpillError::ShortRead { offset, wanted } => {
                write!(f, "spill run truncated: wanted {wanted} bytes at offset {offset}")
            }
            SpillError::Corrupt { detail } => write!(f, "corrupt spill run: {detail}"),
        }
    }
}

impl std::error::Error for SpillError {}

impl From<SpillError> for cbh_sim::SimError {
    fn from(err: SpillError) -> Self {
        cbh_sim::SimError::Spill {
            detail: err.to_string(),
        }
    }
}

/// How a store element crosses the memory/disk boundary.
///
/// `decode` consumes exactly the bytes `encode` produced for the record (the
/// store length-prefixes each record inside its run's CRC-checked frame);
/// `prev` is the record encoded immediately before this one in the same
/// run — the delta base — and is `None` for a run's first record.
pub trait SpillCodec {
    /// The element type stored.
    type Item;

    /// Appends `item`'s record to `out`, optionally delta-encoded against
    /// `prev`.
    fn encode(&self, item: &Self::Item, prev: Option<&Self::Item>, out: &mut Vec<u8>);

    /// Rebuilds an item from the exact bytes `encode` wrote.
    ///
    /// # Errors
    ///
    /// [`SpillError::Corrupt`] if the bytes do not parse as a record: the
    /// arena's bytes come back from disk, so decoding is total.
    fn decode(&self, bytes: &[u8], prev: Option<&Self::Item>) -> Result<Self::Item, SpillError>;

    /// Decodes the next record of a streamed-back run, advancing the delta
    /// chain: `prev` holds the previously decoded item on entry and must
    /// hold this record's item on exit (it is the next record's base).
    ///
    /// The default matches `decode` + a clone. Codecs whose items are
    /// expensive to clone override it to patch `prev` in place (one state
    /// build per record instead of two); codecs that ignore `prev` override
    /// it to skip chain upkeep entirely.
    ///
    /// # Errors
    ///
    /// As [`SpillCodec::decode`].
    fn decode_step(&self, bytes: &[u8], prev: &mut Option<Self::Item>) -> Result<Self::Item, SpillError>
    where
        Self::Item: Clone,
    {
        let item = self.decode(bytes, prev.as_ref())?;
        *prev = Some(item.clone());
        Ok(item)
    }

    /// Approximate resident footprint of `item` in bytes (budget accounting).
    fn cost(&self, item: &Self::Item) -> usize;
}

/// The directory spill arenas are created in: `CBH_SPILL_DIR` if set (the
/// hygiene tests point it at a fresh directory to observe cleanup), else the
/// system temp dir.
pub fn spill_dir() -> PathBuf {
    std::env::var_os("CBH_SPILL_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(std::env::temp_dir)
}

// ---------------------------------------------------------------------------
// Arena
// ---------------------------------------------------------------------------

static ARENA_SEQ: AtomicU64 = AtomicU64::new(0);

/// At most this many appended runs may sit in the writer's queue: the one
/// being written plus one more being encoded — the classic double buffer.
/// Appending a third blocks until the in-flight write retires, which bounds
/// the unaccounted encoded bytes to two runs (covered by the documented
/// budget slack).
const MAX_PENDING_WRITES: usize = 2;

/// State shared between appenders/readers and the background writer thread.
struct WriterState {
    file: Option<Arc<File>>,
    path: Option<PathBuf>,
    /// Logical file length: every append reserves its offset here
    /// immediately, before the bytes hit the disk.
    len: u64,
    /// Runs accepted but not yet written, in offset order.
    pending: VecDeque<(u64, Arc<Vec<u8>>)>,
    /// The run the writer thread is currently writing, still readable from
    /// memory until the write retires.
    in_flight: Option<(u64, Arc<Vec<u8>>)>,
    /// First IO failure; sticky. Once set, appends and reads fail fast and
    /// queued runs are discarded.
    error: Option<SpillError>,
    shutdown: bool,
}

struct WriterShared {
    state: Mutex<WriterState>,
    /// Signals the writer thread that work (or shutdown) arrived.
    work: Condvar,
    /// Signals appenders (backpressure) and readers (drain) that a write
    /// retired or failed.
    done: Condvar,
}

/// Writes `bytes` at `offset` with positioned IO (no shared cursor), so the
/// writer thread and concurrent positioned reads never race a seek.
fn write_at(file: &File, offset: u64, bytes: &[u8]) -> Result<(), SpillError> {
    #[cfg(unix)]
    {
        use std::os::unix::fs::FileExt;
        file.write_all_at(bytes, offset).map_err(|e| {
            if e.kind() == std::io::ErrorKind::WriteZero {
                SpillError::ShortWrite
            } else {
                SpillError::Write { kind: e.kind() }
            }
        })
    }
    #[cfg(not(unix))]
    {
        use std::io::{Seek, SeekFrom, Write};
        let mut f = file;
        f.seek(SeekFrom::Start(offset))
            .and_then(|_| f.write_all(bytes))
            .map_err(|e| {
                if e.kind() == std::io::ErrorKind::WriteZero {
                    SpillError::ShortWrite
                } else {
                    SpillError::Write { kind: e.kind() }
                }
            })
    }
}

/// Reads exactly `len` bytes at `offset` with positioned IO.
fn read_exact_at(file: &File, offset: u64, len: usize) -> Result<Vec<u8>, SpillError> {
    let mut buf = vec![0u8; len];
    let res = {
        #[cfg(unix)]
        {
            use std::os::unix::fs::FileExt;
            file.read_exact_at(&mut buf, offset)
        }
        #[cfg(not(unix))]
        {
            use std::io::{Read, Seek, SeekFrom};
            let mut f = file;
            f.seek(SeekFrom::Start(offset))
                .and_then(|_| f.read_exact(&mut buf))
        }
    };
    res.map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            SpillError::ShortRead { offset, wanted: len }
        } else {
            SpillError::Read { kind: e.kind() }
        }
    })?;
    Ok(buf)
}

fn writer_loop(shared: Arc<WriterShared>) {
    let mut st = shared.state.lock().unwrap();
    loop {
        if let Some((offset, bytes)) = st.pending.pop_front() {
            if st.error.is_some() {
                // Sticky failure: discard queued runs so appenders blocked on
                // backpressure wake up and observe the error.
                shared.done.notify_all();
                continue;
            }
            let file = Arc::clone(st.file.as_ref().expect("file created before first append"));
            // Readers can still serve this run from memory while its write
            // is in flight.
            st.in_flight = Some((offset, Arc::clone(&bytes)));
            drop(st);
            let res = write_at(&file, offset, &bytes);
            st = shared.state.lock().unwrap();
            st.in_flight = None;
            if let Err(e) = res {
                st.error = Some(e);
            }
            shared.done.notify_all();
        } else if st.shutdown {
            return;
        } else {
            st = shared.work.wait(st).unwrap();
        }
    }
}

/// One run's append-only spill file, shared by every store of the run (the
/// admission queue and the tiered seen set).
///
/// Created lazily on the first spill (a run that never exceeds its budget
/// never touches the filesystem); the file is removed when the arena drops,
/// including during panic unwinding.
///
/// Writes are **double-buffered**: [`SpillArena::append`] reserves the run's
/// offset, hands the encoded bytes to a background writer thread and returns
/// immediately, so the caller encodes its next run while this one's IO is in
/// flight. At most `MAX_PENDING_WRITES` runs queue before an append blocks.
/// Reads never wait for the writer: a run still queued or mid-write is
/// served from its in-memory buffer, and durable bytes are read with
/// positioned IO that cannot race the writer's positioned writes. IO
/// failures are sticky and typed: the first [`SpillError`] is returned from
/// every subsequent append or read.
pub struct SpillArena {
    shared: Arc<WriterShared>,
    worker: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl SpillArena {
    fn new() -> Self {
        SpillArena {
            shared: Arc::new(WriterShared {
                state: Mutex::new(WriterState {
                    file: None,
                    path: None,
                    len: 0,
                    pending: VecDeque::new(),
                    in_flight: None,
                    error: None,
                    shutdown: false,
                }),
                work: Condvar::new(),
                done: Condvar::new(),
            }),
            worker: Mutex::new(None),
        }
    }

    /// Queues `bytes` for appending and returns their reserved offset. The
    /// write itself happens on the background writer thread; this call only
    /// blocks when `MAX_PENDING_WRITES` runs are already queued.
    ///
    /// # Errors
    ///
    /// [`SpillError::Create`] if the spill file cannot be created, or the
    /// arena's sticky IO error if a previous write failed.
    pub fn append(&self, bytes: Vec<u8>) -> Result<u64, SpillError> {
        let mut st = self.shared.state.lock().unwrap();
        if let Some(e) = &st.error {
            return Err(e.clone());
        }
        if st.file.is_none() {
            // Each process salts its own subdirectory: sharded exploration
            // runs many explorer processes against one CBH_SPILL_DIR, and
            // the per-pid directory keeps their arenas from colliding while
            // giving crash cleanup a single obvious unit to sweep.
            let dir = spill_dir().join(format!("cbh-spill-{}", std::process::id()));
            let path = dir.join(format!(
                "cbh-spill-{}-{}.bin",
                std::process::id(),
                ARENA_SEQ.fetch_add(1, Ordering::Relaxed)
            ));
            // A sibling arena's drop removes the directory once it empties,
            // which can land between our `create_dir` and `open`; the open
            // then fails with `NotFound` and the pair is retried.
            let mut attempts = 0;
            let file = loop {
                // `create_dir`, not `create_dir_all`: an unusable or missing
                // spill *base* directory must stay a typed `Create` error,
                // not be silently conjured into existence.
                if let Err(e) = std::fs::create_dir(&dir) {
                    if e.kind() != std::io::ErrorKind::AlreadyExists {
                        return Err(SpillError::Create {
                            path: dir.display().to_string(),
                            kind: e.kind(),
                        });
                    }
                }
                let opened = OpenOptions::new().create_new(true).read(true).write(true).open(&path);
                attempts += 1;
                match opened {
                    Err(e) if e.kind() == std::io::ErrorKind::NotFound && attempts < 8 => {}
                    opened => {
                        break opened.map_err(|e| SpillError::Create {
                            path: path.display().to_string(),
                            kind: e.kind(),
                        })?
                    }
                }
            };
            st.file = Some(Arc::new(file));
            st.path = Some(path);
            let shared = Arc::clone(&self.shared);
            let handle = std::thread::Builder::new()
                .name("cbh-spill-writer".into())
                .spawn(move || writer_loop(shared))
                .map_err(|e| SpillError::Create {
                    path: "spill writer thread".into(),
                    kind: e.kind(),
                })?;
            *self.worker.lock().unwrap() = Some(handle);
        }
        while st.pending.len() >= MAX_PENDING_WRITES && st.error.is_none() {
            st = self.shared.done.wait(st).unwrap();
        }
        if let Some(e) = &st.error {
            return Err(e.clone());
        }
        let offset = st.len;
        st.len += bytes.len() as u64;
        st.pending.push_back((offset, Arc::new(bytes)));
        self.shared.work.notify_one();
        Ok(offset)
    }

    /// Reads `len` bytes back from `offset`. Never waits on in-flight IO:
    /// a run still queued (or mid-write) is served straight from its
    /// in-memory buffer, and anything already durable is read with
    /// positioned IO outside the state lock. Every read range lies entirely
    /// within one appended run, so the memory/disk split is never torn.
    pub(crate) fn read(&self, offset: u64, len: usize) -> Result<Vec<u8>, SpillError> {
        let file = {
            let st = self.shared.state.lock().unwrap();
            if let Some(e) = &st.error {
                return Err(e.clone());
            }
            let covering = st
                .pending
                .iter()
                .chain(st.in_flight.as_ref())
                .find(|(run_off, bytes)| {
                    offset >= *run_off && offset + len as u64 <= run_off + bytes.len() as u64
                });
            if let Some((run_off, bytes)) = covering {
                let start = (offset - run_off) as usize;
                return Ok(bytes[start..start + len].to_vec());
            }
            Arc::clone(
                st.file
                    .as_ref()
                    .ok_or(SpillError::ShortRead { offset, wanted: len })?,
            )
        };
        read_exact_at(&file, offset, len)
    }

    /// Drains the writer queue and syncs the file to stable storage: on
    /// return, every previously appended run is durable on disk (or the
    /// sticky IO error is reported). Checkpoints call this before recording
    /// arena offsets, so a snapshot can never reference a run whose bytes
    /// were still queued in the double buffer when the process died.
    pub(crate) fn sync(&self) -> Result<(), SpillError> {
        let file = {
            let mut st = self.shared.state.lock().unwrap();
            while (!st.pending.is_empty() || st.in_flight.is_some()) && st.error.is_none() {
                st = self.shared.done.wait(st).unwrap();
            }
            if let Some(e) = &st.error {
                return Err(e.clone());
            }
            match &st.file {
                Some(file) => Arc::clone(file),
                // Nothing was ever spilled: trivially durable.
                None => return Ok(()),
            }
        };
        file.sync_data()
            .map_err(|e| SpillError::Write { kind: e.kind() })
    }

    /// The durable file's path, if a spill has occurred. Test-only: lets the
    /// drain-and-sync test read the file back *bypassing* the in-memory
    /// double buffer, proving the bytes really reached the disk.
    #[cfg(test)]
    pub(crate) fn durable_path(&self) -> Option<PathBuf> {
        self.shared.state.lock().unwrap().path.clone()
    }
}

impl Drop for SpillArena {
    fn drop(&mut self) {
        // Poison-tolerant: the arena drops during panic unwinds too, and the
        // file must be removed even if the panicking thread held the lock.
        let path = {
            let mut st = self
                .shared
                .state
                .lock()
                .unwrap_or_else(|e| e.into_inner());
            st.shutdown = true;
            st.pending.clear(); // the file is about to be deleted
            self.shared.work.notify_all();
            st.path.take()
        };
        if let Some(handle) = self
            .worker
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .take()
        {
            let _ = handle.join();
        }
        if let Some(path) = path {
            let _ = std::fs::remove_file(&path);
            // Last arena out turns off the lights: removing the pid-salted
            // subdirectory only succeeds once it is empty, which is exactly
            // the hygiene invariant (errors mean a sibling arena is still
            // live, and its own drop will retry).
            if let Some(dir) = path.parent() {
                let _ = std::fs::remove_dir(dir);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Shared accounting
// ---------------------------------------------------------------------------

/// Run-wide memory accounting, shared by every store of one exploration.
#[derive(Default)]
pub struct MemTracker {
    resident: AtomicUsize,
    peak: AtomicUsize,
    spilled: AtomicU64,
}

impl MemTracker {
    pub(crate) fn add_resident(&self, n: usize) {
        let now = self.resident.fetch_add(n, Ordering::Relaxed) + n;
        self.peak.fetch_max(now, Ordering::Relaxed);
    }

    pub(crate) fn sub_resident(&self, n: usize) {
        self.resident.fetch_sub(n, Ordering::Relaxed);
    }

    pub(crate) fn add_spilled(&self, n: u64) {
        self.spilled.fetch_add(n, Ordering::Relaxed);
    }

    /// Bytes currently resident across all stores.
    pub fn resident_bytes(&self) -> usize {
        self.resident.load(Ordering::Relaxed)
    }

    /// High-water mark of [`MemTracker::resident_bytes`].
    pub fn peak_resident_bytes(&self) -> usize {
        self.peak.load(Ordering::Relaxed)
    }

    /// Total encoded bytes written to the arena.
    pub fn bytes_spilled(&self) -> u64 {
        self.spilled.load(Ordering::Relaxed)
    }
}

/// The handle an exploration run threads through its stores: one arena, one
/// tracker, one budget. Cloning shares all three.
#[derive(Clone)]
pub struct SpillContext {
    arena: Arc<SpillArena>,
    tracker: Arc<MemTracker>,
    budget: Option<usize>,
}

impl SpillContext {
    /// A fresh context; `budget: None` never spills (the pure in-memory
    /// backend) but still tracks the resident peak.
    pub fn new(budget: Option<usize>) -> Self {
        SpillContext {
            arena: Arc::new(SpillArena::new()),
            tracker: Arc::new(MemTracker::default()),
            budget,
        }
    }

    /// The run-wide accounting shared by this context's stores.
    pub fn tracker(&self) -> &MemTracker {
        &self.tracker
    }

    /// The shared arena this context's stores spill into. Public so the
    /// hygiene integration test can provoke a spill file directly and
    /// observe the pid-salted directory lifecycle from outside the crate.
    pub fn arena(&self) -> &SpillArena {
        &self.arena
    }

    /// Drains and fsyncs the arena; see [`SpillArena::sync`].
    pub(crate) fn sync(&self) -> Result<(), SpillError> {
        self.arena.sync()
    }

    /// The byte budget this context enforces (`None` = unbounded).
    pub(crate) fn budget(&self) -> Option<usize> {
        self.budget
    }

    /// `true` when the run-wide resident total exceeds the budget.
    pub(crate) fn over_budget(&self) -> bool {
        self.budget
            .is_some_and(|b| self.tracker.resident_bytes() > b)
    }

    /// Stores amortise spilling by draining only backlogs of at least this
    /// many bytes — a quarter of the budget (split across however many
    /// stores are active), capped so huge budgets still spill in bounded
    /// runs, and floored at 4 KiB so tight budgets batch writer round trips
    /// instead of trickling sub-KB runs (the overshoot rides the documented
    /// slack). The floor never exceeds the budget itself, so sub-4 KiB
    /// budgets still spill as soon as the backlog outgrows them, and a
    /// **zero** budget keeps the historical spill-on-every-push
    /// degeneration, which is exactly what the spill-every-layer stress
    /// tests ask for.
    fn min_run_bytes(&self) -> usize {
        const MAX_RUN: usize = 1 << 20;
        match self.budget {
            None => MAX_RUN,
            Some(0) => 0,
            Some(b) => (b / 4).clamp(4096, MAX_RUN).min(b),
        }
    }
}

// ---------------------------------------------------------------------------
// FIFO store
// ---------------------------------------------------------------------------

/// Frame kind of a spilled run.
const K_RUN: u8 = 1;

/// A run is sealed once its records reach this many bytes: far below the
/// frame payload cap, and a bound on what one streamed-back run holds
/// resident.
const RUN_CUT: usize = 1 << 20;

/// One spilled run: a frame of length-prefixed records, `bytes` long at
/// `offset`.
struct Run {
    offset: u64,
    bytes: usize,
}

/// A run being streamed back: its frame up to the payload's end, the read
/// position, and the previously decoded record (the delta base for the
/// next one).
struct Cursor<T> {
    buf: Vec<u8>,
    pos: usize,
    prev: Option<T>,
}

/// A run that fails its frame check or its record framing.
fn corrupt_run(detail: impl fmt::Display) -> SpillError {
    SpillError::Corrupt {
        detail: format!("spill run: {detail}"),
    }
}

/// A FIFO queue of `C::Item` with a byte budget.
///
/// Always pops in exact push order. Within the budget it behaves like (and
/// costs like) a `VecDeque`; past it, the resident backlog is encoded as
/// admission-ordered runs in the shared arena and streamed back — decoded one
/// record at a time, each the delta base of the next — when its turn to pop
/// comes. Pop order is `oldest run → … → newest run → resident backlog`,
/// which is push order because spilling always drains the *entire* backlog.
pub struct FrontierStore<C: SpillCodec> {
    codec: C,
    ctx: SpillContext,
    back: VecDeque<(C::Item, usize)>,
    back_cost: usize,
    runs: VecDeque<Run>,
    cursor: Option<Cursor<C::Item>>,
    len: usize,
}

impl<C: SpillCodec> FrontierStore<C>
where
    C::Item: Clone,
{
    /// An empty store drawing on `ctx`'s arena, tracker and budget.
    pub fn new(codec: C, ctx: SpillContext) -> Self {
        FrontierStore {
            codec,
            ctx,
            back: VecDeque::new(),
            back_cost: 0,
            runs: VecDeque::new(),
            cursor: None,
            len: 0,
        }
    }

    /// Items queued (resident and spilled).
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Enqueues `item`; may spill the resident backlog to stay near budget.
    ///
    /// # Errors
    ///
    /// Propagates the arena's typed [`SpillError`] if the backlog had to
    /// spill and the write could not be queued.
    pub fn push(&mut self, item: C::Item) -> Result<(), SpillError> {
        let cost = self.codec.cost(&item);
        self.ctx.tracker.add_resident(cost);
        self.back.push_back((item, cost));
        self.back_cost += cost;
        self.len += 1;
        if self.ctx.over_budget() && self.back_cost >= self.ctx.min_run_bytes() {
            self.spill_back()?;
        }
        Ok(())
    }

    /// Encodes the whole resident backlog, in order, as runs of at most
    /// one frame each.
    fn spill_back(&mut self) -> Result<(), SpillError> {
        let mut buf = Vec::new();
        let mut prev: Option<&C::Item> = None;
        let mut record = Vec::new();
        for (i, (item, _)) in self.back.iter().enumerate() {
            record.clear();
            self.codec.encode(item, prev, &mut record);
            write_varint(&mut buf, record.len() as u64);
            buf.extend_from_slice(&record);
            prev = Some(item);
            if buf.len() >= RUN_CUT || i + 1 == self.back.len() {
                let mut frame = Vec::with_capacity(frame_len(buf.len()));
                encode_frame(K_RUN, &buf, &mut frame);
                let bytes = frame.len();
                let offset = self.ctx.arena.append(frame)?;
                self.ctx.tracker.add_spilled(bytes as u64);
                self.runs.push_back(Run { offset, bytes });
                // The next run decodes on its own: it starts without a base.
                prev = None;
                buf.clear();
            }
        }
        self.ctx.tracker.sub_resident(self.back_cost);
        self.back.clear();
        self.back_cost = 0;
        Ok(())
    }

    /// Dequeues the oldest item.
    ///
    /// # Errors
    ///
    /// Propagates the arena's typed [`SpillError`] if a spilled run could
    /// not be streamed back, and [`SpillError::Corrupt`] if its frame fails
    /// its check.
    pub fn pop(&mut self) -> Result<Option<C::Item>, SpillError> {
        loop {
            if let Some(cursor) = &mut self.cursor {
                if cursor.pos < cursor.buf.len() {
                    let mut r = FieldReader::new(&cursor.buf[cursor.pos..]);
                    let record = r.bytes().map_err(corrupt_run)?;
                    let item = self.codec.decode_step(record, &mut cursor.prev)?;
                    cursor.pos = cursor.buf.len() - r.rest().len();
                    self.len -= 1;
                    return Ok(Some(item));
                }
                let spent = self.cursor.take().expect("checked above");
                self.ctx.tracker.sub_resident(spent.buf.len());
            } else if let Some(run) = self.runs.pop_front() {
                // Stream the oldest run back once its frame checks: its
                // (delta-compressed) records become resident while being
                // consumed.
                let mut buf = self.ctx.arena.read(run.offset, run.bytes)?;
                let (_, payload, _) = decode_frame_exact(&buf).map_err(corrupt_run)?;
                buf.truncate(FRAME_HEADER_LEN + payload.len());
                self.ctx.tracker.add_resident(buf.len());
                self.cursor = Some(Cursor {
                    buf,
                    pos: FRAME_HEADER_LEN,
                    prev: None,
                });
            } else {
                let Some((item, cost)) = self.back.pop_front() else {
                    return Ok(None);
                };
                self.back_cost -= cost;
                self.ctx.tracker.sub_resident(cost);
                self.len -= 1;
                return Ok(Some(item));
            }
        }
    }
}

impl<C: SpillCodec> Drop for FrontierStore<C> {
    fn drop(&mut self) {
        // Return the unconsumed resident cost so a store dropped mid-run
        // (early verdicts, panics) leaves the shared accounting exact.
        self.ctx.tracker.sub_resident(self.back_cost);
        if let Some(cursor) = &self.cursor {
            self.ctx.tracker.sub_resident(cursor.buf.len());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Test codec: u64 items, encoded as (delta against prev) varints.
    #[derive(Clone)]
    struct U64Codec;

    impl SpillCodec for U64Codec {
        type Item = u64;

        fn encode(&self, item: &u64, prev: Option<&u64>, out: &mut Vec<u8>) {
            write_varint(out, item ^ prev.copied().unwrap_or(0));
        }

        fn decode(&self, bytes: &[u8], prev: Option<&u64>) -> Result<u64, SpillError> {
            Ok(FieldReader::new(bytes).varint().expect("test record") ^ prev.copied().unwrap_or(0))
        }

        fn cost(&self, _item: &u64) -> usize {
            8
        }
    }

    fn drain<C: SpillCodec<Item = u64>>(store: &mut FrontierStore<C>) -> Vec<u64>
    where
        C::Item: Clone,
    {
        std::iter::from_fn(|| store.pop().unwrap()).collect()
    }

    #[test]
    fn unbudgeted_store_is_plain_fifo() {
        let ctx = SpillContext::new(None);
        let mut store = FrontierStore::new(U64Codec, ctx.clone());
        for v in 0..100 {
            store.push(v).unwrap();
        }
        assert_eq!(store.len(), 100);
        assert_eq!(drain(&mut store), (0..100).collect::<Vec<_>>());
        assert_eq!(ctx.tracker().bytes_spilled(), 0);
        assert_eq!(ctx.tracker().peak_resident_bytes(), 800);
        assert_eq!(ctx.tracker().resident_bytes(), 0);
    }

    #[test]
    fn spilling_store_preserves_fifo_across_runs() {
        // Budget of one item: every push past the first spills.
        let ctx = SpillContext::new(Some(8));
        let mut store = FrontierStore::new(U64Codec, ctx.clone());
        let mut expect = Vec::new();
        // Interleave pushes and pops so runs, cursors and the resident
        // backlog all participate.
        let mut popped = Vec::new();
        for round in 0..10u64 {
            for i in 0..20 {
                let v = round * 100 + i;
                store.push(v).unwrap();
                expect.push(v);
            }
            for _ in 0..5 {
                popped.push(store.pop().unwrap().unwrap());
            }
        }
        popped.extend(drain(&mut store));
        assert_eq!(popped, expect);
        assert!(ctx.tracker().bytes_spilled() > 0);
        assert_eq!(ctx.tracker().resident_bytes(), 0);
    }

    #[test]
    fn zero_budget_spills_every_push() {
        let ctx = SpillContext::new(Some(0));
        let mut store = FrontierStore::new(U64Codec, ctx.clone());
        for v in 0..10 {
            store.push(v).unwrap();
        }
        assert!(ctx.tracker().bytes_spilled() > 0);
        assert_eq!(drain(&mut store), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn sync_makes_queued_runs_durable_before_a_snapshot() {
        // Fill the double buffer to its limit (MAX_PENDING_WRITES = 2 runs
        // may sit queued/in-flight), then sync and read the bytes back from
        // the file *directly* — not through SpillArena::read, which would
        // happily serve them from the in-memory queue. This is the property
        // a checkpoint relies on: after sync, every recorded arena offset
        // resolves from the durable file alone.
        let ctx = SpillContext::new(Some(0));
        let run_a: Vec<u8> = (0u8..64).collect();
        let run_b: Vec<u8> = (64u8..128).collect();
        let off_a = ctx.arena().append(run_a.clone()).unwrap();
        let off_b = ctx.arena().append(run_b.clone()).unwrap();
        ctx.sync().unwrap();
        let path = ctx.arena().durable_path().expect("spill file exists");
        let file = File::open(&path).unwrap();
        assert_eq!(read_exact_at(&file, off_a, run_a.len()).unwrap(), run_a);
        assert_eq!(read_exact_at(&file, off_b, run_b.len()).unwrap(), run_b);
        // Sync on a never-spilled arena is a no-op, not an error.
        SpillContext::new(None).sync().unwrap();
    }

    /// Spills `7` alone at a zero budget, a one-frame run with the payload
    /// `[len = 1, 7]`, and overwrites payload byte `at` in the durable file.
    fn pop_after_damage(at: usize, byte: u8) -> Result<Option<u64>, SpillError> {
        let ctx = SpillContext::new(Some(0));
        let mut store = FrontierStore::new(U64Codec, ctx.clone());
        store.push(7).unwrap();
        ctx.sync().unwrap();
        let path = ctx.arena().durable_path().expect("spill file exists");
        let file = OpenOptions::new().write(true).open(path).unwrap();
        write_at(&file, (FRAME_HEADER_LEN + at) as u64, &[byte]).unwrap();
        store.pop()
    }

    #[test]
    fn damaged_spill_runs_are_typed_errors() {
        // A record longer than the whole run, and a value that parses as
        // well as `7` does: only the run's CRC tells `6` apart.
        for (at, byte) in [(0, 0x7f), (1, 6)] {
            let damaged = pop_after_damage(at, byte);
            assert!(matches!(damaged, Err(SpillError::Corrupt { .. })));
        }
    }

    #[test]
    fn a_backlog_past_one_run_spills_as_several() {
        // 150,001 records of 10 bytes (each value differs from the last in
        // its top byte) fill the budget until the last, which spills them all
        // at once: more than one run's worth.
        let ctx = SpillContext::new(Some(1_200_000));
        let mut store = FrontierStore::new(U64Codec, ctx.clone());
        let items: Vec<u64> = (0..150_001).map(|i: u64| i << 56).collect();
        for &v in &items {
            store.push(v).unwrap();
        }
        assert_eq!(store.runs.len(), 2);
        assert_eq!(drain(&mut store), items);
        assert_eq!(ctx.tracker().resident_bytes(), 0);
    }

    #[test]
    fn dropped_stores_release_their_accounting_and_files() {
        let ctx = SpillContext::new(Some(0));
        {
            let mut store = FrontierStore::new(U64Codec, ctx.clone());
            for v in 0..10 {
                store.push(v).unwrap();
            }
            store.pop().unwrap();
        }
        assert_eq!(ctx.tracker().resident_bytes(), 0);
    }

}
