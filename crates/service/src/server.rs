//! The TCP front-end.
//!
//! [`KvServer`] binds a listener, accepts connections on a dedicated
//! accept thread, and leases each connection to a [`ThreadPool`] worker
//! that speaks the [`protocol`](crate::protocol) until the client hangs
//! up. A write is acknowledged (`OK` frame sent) only after the owning
//! shard's WAL append returned, so every acknowledged write survives a
//! crash of the whole process — the property the crash-recovery tests
//! assert.
//!
//! Shutdown is cooperative: workers poll a shared flag between frames
//! (connections carry a short read timeout), the accept thread polls it
//! between accepts, and [`ServerHandle::shutdown`] joins everything.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bytes::Bytes;
use lsm_engine::WriteBatch;
use obs::{HistogramSnapshot, LatencyHistogram};

use crate::admission::{AdmissionConfig, AdmissionController};
use crate::protocol::{
    read_frame, seq_of, write_frame, EventBatch, FrameRead, Request, Response, WireEvent,
    MAX_FRAME_LEN, MAX_WIRE_ELEMENTS, SCAN_BATCH_MAX_BYTES, SCAN_BATCH_MAX_ENTRIES,
    UNSOLICITED_SEQ,
};
use crate::{Error, ShardedKv, ThreadPool};

/// How long a worker blocks on a quiet connection before re-checking
/// the shutdown flag.
const POLL_READ_TIMEOUT: Duration = Duration::from_millis(50);

/// How long the accept thread sleeps when no connection is pending.
const ACCEPT_IDLE: Duration = Duration::from_millis(2);

/// How long a single socket write may stall before the connection is
/// declared dead. Point responses never get near this; it bounds how
/// long a scan stream to a stalled client (full TCP send buffer, peer
/// not reading) can pin a pool worker — and therefore the worst-case
/// shutdown join.
const WRITE_STALL_TIMEOUT: Duration = Duration::from_secs(5);

/// Events returned for an `EVENTS` request that leaves `max` at 0.
const EVENTS_BATCH_DEFAULT: usize = 1024;

/// Server-side request latency histograms, shared by every connection:
/// the time from a decoded request to the frame that ends its reply
/// being ready to send (for scans, the whole stream before it). This is
/// the server's honest counterpart to whatever a load generator
/// measures client-side — only the wire and the client's own queueing
/// are excluded — and it rides the `METRICS` frame as `server_*_us`
/// next to the engine's `engine_*_us`.
#[derive(Debug, Clone, Default)]
struct ServerMetrics {
    get: LatencyHistogram,
    put: LatencyHistogram,
    delete: LatencyHistogram,
    delete_range: LatencyHistogram,
    batch: LatencyHistogram,
    scan: LatencyHistogram,
}

impl ServerMetrics {
    /// The histogram timing `request`, if that kind is timed. Cheap to
    /// clone (histograms are handles over shared atomics).
    fn timer_for(&self, request: &Request) -> Option<LatencyHistogram> {
        match request {
            Request::Get { .. } => Some(self.get.clone()),
            Request::Put { .. } => Some(self.put.clone()),
            Request::Delete { .. } => Some(self.delete.clone()),
            Request::DeleteRange { .. } => Some(self.delete_range.clone()),
            Request::Batch { .. } => Some(self.batch.clone()),
            Request::Scan { .. } | Request::SnapScan { .. } => Some(self.scan.clone()),
            // Introspection and snapshot-lifecycle requests are not
            // worth a histogram each.
            Request::Metrics
            | Request::Events { .. }
            | Request::SnapCreate
            | Request::SnapRelease { .. }
            | Request::SnapGet { .. } => None,
        }
    }

    /// Snapshots every histogram under its stable exposition name.
    fn named_snapshots(&self) -> Vec<(&'static str, HistogramSnapshot)> {
        vec![
            ("server_get_us", self.get.snapshot()),
            ("server_put_us", self.put.snapshot()),
            ("server_delete_us", self.delete.snapshot()),
            ("server_delete_range_us", self.delete_range.snapshot()),
            ("server_batch_us", self.batch.snapshot()),
            ("server_scan_us", self.scan.snapshot()),
        ]
    }
}

/// Server tuning: worker count, the session cap, and the (optional)
/// admission-control policy.
///
/// # Examples
///
/// ```
/// use std::time::Duration;
/// use kv_service::{AdmissionConfig, ServerOptions};
///
/// let options = ServerOptions::default()
///     .workers(8)
///     .max_sessions(32)
///     .admission(AdmissionConfig::default().stall_budget(Duration::from_millis(50)));
/// assert_eq!(options.worker_count(), 8);
/// assert_eq!(options.session_cap(), 32);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerOptions {
    workers: usize,
    /// Explicit session cap; `None` defaults to `4 × workers` at use.
    max_sessions: Option<usize>,
    admission: Option<AdmissionConfig>,
}

impl Default for ServerOptions {
    fn default() -> Self {
        Self {
            workers: 4,
            max_sessions: None,
            admission: None,
        }
    }
}

impl ServerOptions {
    /// Sets the pool worker count — client sessions served
    /// *concurrently* (clamped to ≥ 1).
    #[must_use]
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Caps concurrently accepted connections (serving + waiting for a
    /// worker; clamped to ≥ 1). A connection arriving at the cap is
    /// refused with one `BUSY` frame and closed, instead of queueing
    /// unboundedly in the thread pool. Defaults to `4 × workers` when
    /// never set — setter order does not matter.
    #[must_use]
    pub fn max_sessions(mut self, sessions: usize) -> Self {
        self.max_sessions = Some(sessions.max(1));
        self
    }

    /// Enables pressure-driven admission control: writes to a shard past
    /// the configured budgets are refused with `BUSY` (see
    /// [`AdmissionConfig`]). Disabled by default.
    #[must_use]
    pub fn admission(mut self, config: AdmissionConfig) -> Self {
        self.admission = Some(config);
        self
    }

    /// The configured worker count.
    #[must_use]
    pub fn worker_count(&self) -> usize {
        self.workers
    }

    /// The session cap: the explicitly configured value, else
    /// `4 × workers`.
    #[must_use]
    pub fn session_cap(&self) -> usize {
        self.max_sessions.unwrap_or(self.workers * 4)
    }

    /// The configured admission policy, if any.
    #[must_use]
    pub fn admission_policy(&self) -> Option<AdmissionConfig> {
        self.admission
    }
}

/// A sharded KV server bound to a TCP address.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use kv_service::{KvClient, KvServer, ShardedKv};
/// use lsm_engine::LsmOptions;
///
/// # fn main() -> Result<(), kv_service::Error> {
/// let store = Arc::new(ShardedKv::open_in_memory(2, LsmOptions::default())?);
/// let handle = KvServer::bind(store, "127.0.0.1:0", 2)?.spawn();
/// let mut client = KvClient::connect(handle.addr())?;
/// client.put(b"k".to_vec(), b"v".to_vec())?;
/// assert_eq!(client.get(b"k")?, Some(b"v".to_vec()));
/// handle.shutdown();
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct KvServer {
    store: Arc<ShardedKv>,
    listener: TcpListener,
    options: ServerOptions,
}

impl KvServer {
    /// Binds a server for `store` on `addr` (use port 0 for an
    /// ephemeral port) with `workers` pool workers — the number of
    /// client sessions served concurrently — and the default session
    /// cap of `4 × workers`. Use [`KvServer::bind_with`] for the full
    /// option set (session cap, admission control).
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn bind(
        store: Arc<ShardedKv>,
        addr: impl ToSocketAddrs,
        workers: usize,
    ) -> Result<Self, Error> {
        Self::bind_with(store, addr, ServerOptions::default().workers(workers))
    }

    /// Binds a server for `store` on `addr` with explicit
    /// [`ServerOptions`].
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn bind_with(
        store: Arc<ShardedKv>,
        addr: impl ToSocketAddrs,
        options: ServerOptions,
    ) -> Result<Self, Error> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        Ok(Self {
            store,
            listener,
            options,
        })
    }

    /// The bound address (resolve the ephemeral port here).
    ///
    /// # Errors
    ///
    /// Propagates socket failures.
    pub fn local_addr(&self) -> Result<SocketAddr, Error> {
        Ok(self.listener.local_addr()?)
    }

    /// Starts the accept loop on its own thread and returns a handle
    /// for shutdown.
    ///
    /// Connections beyond the configured session cap (serving plus
    /// waiting for a worker) are refused with one `BUSY` frame and
    /// closed — the same shed path as admission control — instead of
    /// queueing unboundedly in the thread pool.
    #[must_use]
    pub fn spawn(self) -> ServerHandle {
        let addr = self
            .listener
            .local_addr()
            .expect("freshly bound listener has an address");
        let state = Arc::new(ServerState {
            store: self.store,
            controller: AdmissionController::new(self.options.admission_policy()),
            metrics: ServerMetrics::default(),
            snapshots: SnapshotRegistry::default(),
            shutdown: AtomicBool::new(false),
        });
        let accept_state = Arc::clone(&state);
        let listener = self.listener;
        let max_sessions = self.options.session_cap();
        let workers = self.options.worker_count();
        let accept = std::thread::Builder::new()
            .name("kv-accept".to_owned())
            .spawn(move || {
                let state = accept_state;
                let pool = ThreadPool::new(workers);
                let sessions = Arc::new(AtomicUsize::new(0));
                while !state.shutdown.load(Ordering::SeqCst) {
                    match listener.accept() {
                        Ok((stream, _peer)) => {
                            if sessions.load(Ordering::SeqCst) >= max_sessions {
                                state.controller.record_shed_connection();
                                refuse_connection(stream);
                                continue;
                            }
                            let session = SessionGuard::enter(&sessions);
                            let state = Arc::clone(&state);
                            pool.execute(move || {
                                let _session = session;
                                serve_connection(&state, stream);
                            });
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                            std::thread::sleep(ACCEPT_IDLE);
                        }
                        Err(_) => break,
                    }
                }
                // Dropping the pool joins the workers; they observe the
                // shutdown flag at their next poll tick.
            })
            .expect("spawning the accept thread");
        ServerHandle {
            addr,
            state,
            accept: Some(accept),
        }
    }
}

/// What every connection of one server shares.
#[derive(Debug)]
struct ServerState {
    store: Arc<ShardedKv>,
    controller: AdmissionController,
    metrics: ServerMetrics,
    snapshots: SnapshotRegistry,
    shutdown: AtomicBool,
}

/// Holds one slot of the session cap; the slot frees when the session
/// ends (or when a queued job is discarded at pool teardown).
#[derive(Debug)]
struct SessionGuard(Arc<AtomicUsize>);

impl SessionGuard {
    fn enter(sessions: &Arc<AtomicUsize>) -> Self {
        sessions.fetch_add(1, Ordering::SeqCst);
        Self(Arc::clone(sessions))
    }
}

impl Drop for SessionGuard {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Most snapshot handles the server keeps alive at once. A pinned
/// snapshot blocks tombstone GC and bounds what compaction may drop on
/// every shard, so handles a client abandoned (crashed, never sent
/// `SNAP_RELEASE`) must not accumulate and pin history forever: at the
/// cap, creating a new handle evicts the *oldest* live one.
const MAX_SNAPSHOT_HANDLES: usize = 64;

/// The server's snapshot-handle table, shared by every connection: a
/// `SNAP_CREATE` on one connection is readable via `SNAP_GET` /
/// `SNAP_SCAN` on any other. Ids are per-process ephemeral state —
/// they do not survive a restart (the pins they name don't either).
#[derive(Debug, Default)]
struct SnapshotRegistry {
    inner: Mutex<SnapshotTable>,
}

#[derive(Debug, Default)]
struct SnapshotTable {
    next_id: u64,
    /// Live handles, keyed by id. Ids are allocated monotonically, so
    /// the map's smallest key is the oldest handle — the eviction
    /// victim at the cap.
    live: BTreeMap<u64, Arc<crate::ShardedSnapshot>>,
}

impl SnapshotRegistry {
    /// Pins a store-wide snapshot and registers it, evicting the
    /// oldest live handle if the table is full.
    fn create(&self, store: &ShardedKv) -> u64 {
        let mut table = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        if table.live.len() >= MAX_SNAPSHOT_HANDLES {
            let oldest = *table.live.keys().next().expect("non-empty at the cap");
            table.live.remove(&oldest);
        }
        let id = table.next_id;
        table.next_id += 1;
        table.live.insert(id, Arc::new(store.snapshot()));
        id
    }

    /// Releases handle `id`; reports whether it was live. Dropping the
    /// last `Arc` releases every shard's pin.
    fn release(&self, id: u64) -> bool {
        let mut table = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        table.live.remove(&id).is_some()
    }

    /// The snapshot behind handle `id`, if still live. The clone keeps
    /// the pin alive for the duration of the read even if the handle is
    /// released or evicted mid-request.
    fn get(&self, id: u64) -> Option<Arc<crate::ShardedSnapshot>> {
        let table = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        table.live.get(&id).cloned()
    }
}

/// How long each I/O step of a connection refusal may take. The
/// refusal runs inline on the single accept thread, so its worst case
/// (one write + two reads) must stay far below human-visible latency —
/// a connection flood at the session cap must not turn the accept loop
/// into the bottleneck for legitimate reconnects.
const REFUSE_IO_TIMEOUT: Duration = Duration::from_millis(10);

/// Best-effort `BUSY` to a connection refused at the session cap: the
/// client learns it was shed rather than seeing a bare RST. After the
/// frame, writes are shut down and anything the client already sent is
/// drained (at most two short reads) — closing with unread received
/// data would make the kernel send RST, which on many stacks discards
/// the BUSY frame sitting in the peer's receive queue. Worst case this
/// holds the accept thread ~3 × [`REFUSE_IO_TIMEOUT`].
fn refuse_connection(stream: TcpStream) {
    let mut stream = stream;
    let _ = stream.set_nodelay(true);
    let _ = stream.set_write_timeout(Some(REFUSE_IO_TIMEOUT));
    let _ = stream.set_read_timeout(Some(REFUSE_IO_TIMEOUT));
    if send(&mut stream, UNSOLICITED_SEQ, &Response::Busy).is_err() {
        return;
    }
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let mut sink = [0u8; 1024];
    for _ in 0..2 {
        match std::io::Read::read(&mut stream, &mut sink) {
            Ok(0) | Err(_) => break, // EOF / timeout: peer saw the frame or left
            Ok(_) => {}
        }
    }
}

/// A running server: its address and the means to stop it.
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    state: Arc<ServerState>,
    accept: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The address clients connect to.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Signals shutdown and joins the accept thread and every worker.
    /// In-flight requests complete; idle connections close at their
    /// next poll tick.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.state.shutdown.store(true, Ordering::SeqCst);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Sends one reply frame echoing `seq` — the only place a response is
/// encoded.
fn send(stream: &mut TcpStream, seq: u64, response: &Response) -> Result<(), Error> {
    write_frame(stream, &response.encode(seq))
}

/// One client session: frames in, frames out, until EOF / error /
/// shutdown. Requests are answered strictly in arrival order, each
/// reply frame echoing its request's sequence id, so a client may keep
/// many requests in flight on this connection.
fn serve_connection(state: &ServerState, mut stream: TcpStream) {
    // One small response frame per request: without NODELAY every
    // closed-loop round-trip pays Nagle + delayed-ACK (~40 ms).
    if stream.set_nodelay(true).is_err()
        || stream.set_read_timeout(Some(POLL_READ_TIMEOUT)).is_err()
        || stream.set_write_timeout(Some(WRITE_STALL_TIMEOUT)).is_err()
    {
        return;
    }
    loop {
        if state.shutdown.load(Ordering::SeqCst) {
            let _ = stream.flush();
            return;
        }
        let payload = match read_frame(&mut stream) {
            Ok(FrameRead::Frame(payload)) => payload,
            Ok(FrameRead::Idle) => continue,
            Ok(FrameRead::Eof) | Err(_) => return,
        };
        let (seq, response) = match Request::decode(&payload) {
            Ok((seq, request)) => {
                let timer = state.metrics.timer_for(&request);
                let started = Instant::now();
                let Ok(response) = execute(state, &mut stream, seq, request) else {
                    return;
                };
                if let Some(timer) = timer {
                    timer.record_duration(started.elapsed());
                }
                (seq, response)
            }
            // A payload that got as far as carrying an id has its `ERR`
            // matched to it; a shorter one answers no request.
            Err(e) => (seq_of(&payload), Response::Err(e.to_string())),
        };
        if send(&mut stream, seq, &response).is_err() {
            return;
        }
    }
}

/// Encoded overhead of a `BATCH_VALUES` frame around one pair: status
/// byte + sequence id + pair count + the two per-pair length prefixes.
const BATCH_SINGLETON_OVERHEAD: usize = 1 + 8 + 4 + 4 + 4;

/// Lowers wire scan bounds (`start` bytes, empty `end` = unbounded)
/// into the engine's key-range bounds.
fn scan_bounds(
    start: Vec<u8>,
    end: Vec<u8>,
) -> (
    std::ops::Bound<lsm_engine::Key>,
    std::ops::Bound<lsm_engine::Key>,
) {
    use std::ops::Bound;
    let start = Bound::Included(Bytes::from(start));
    let end = if end.is_empty() {
        Bound::Unbounded
    } else {
        Bound::Excluded(Bytes::from(end))
    };
    (start, end)
}

/// Streams one range scan back as bounded `BATCH_VALUES` frames echoing
/// `seq` and returns the frame that terminates the stream — `SCAN_END`,
/// or `ERR` — for the caller to send like any other reply. The pair
/// source is lazy ([`ShardedKv::scan`] or a pinned
/// [`ShardedSnapshot::scan`](crate::ShardedSnapshot::scan) — `SCAN`
/// and `SNAP_SCAN` share this path), so only one chunk is ever
/// materialized — a scan over the whole keyspace runs in constant
/// server memory. A chunk closes *before* a pair would cross either
/// bound, so no frame exceeds the byte bound unless a single pair
/// alone does (an oversized-beyond-`MAX_FRAME_LEN` entry ends the
/// stream with `ERR` rather than a dropped connection).
///
/// Checks the shutdown flag between frames: a server shutting down
/// mid-scan terminates the stream with `ERR` instead of streaming to
/// completion.
///
/// Returns `Err` only for transport failures (the connection is dead);
/// store-side scan errors terminate the stream as `ERR`.
fn stream_pairs(
    stream: &mut TcpStream,
    seq: u64,
    pairs: impl Iterator<Item = Result<(lsm_engine::Key, lsm_engine::Value), Error>>,
    limit: u32,
    shutdown: &AtomicBool,
) -> Result<Response, Error> {
    let mut remaining: u64 = if limit == 0 {
        u64::MAX
    } else {
        u64::from(limit)
    };
    let mut chunk: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
    let mut chunk_bytes = 0usize;
    let mut flush = |chunk: &mut Vec<(Vec<u8>, Vec<u8>)>| {
        if chunk.is_empty() {
            return Ok(());
        }
        send(stream, seq, &Response::BatchValues(std::mem::take(chunk)))
    };
    for item in pairs {
        if remaining == 0 {
            break;
        }
        let (key, value) = match item {
            Ok(pair) => pair,
            Err(e) => {
                flush(&mut chunk)?;
                return Ok(Response::Err(e.to_string()));
            }
        };
        let pair_bytes = key.len() + value.len() + 8;
        if key.len() + value.len() + BATCH_SINGLETON_OVERHEAD > MAX_FRAME_LEN {
            // The entry cannot fit any legal frame: report it instead
            // of tearing the connection down.
            flush(&mut chunk)?;
            let detail = format!("entry of {pair_bytes} bytes exceeds the frame limit");
            return Ok(Response::Err(detail));
        }
        // Close the current chunk before this pair would cross a bound
        // (between frames is also where shutdown lands).
        if !chunk.is_empty()
            && (chunk.len() >= SCAN_BATCH_MAX_ENTRIES
                || chunk_bytes + pair_bytes > SCAN_BATCH_MAX_BYTES)
        {
            flush(&mut chunk)?;
            chunk_bytes = 0;
            if shutdown.load(Ordering::SeqCst) {
                return Ok(Response::Err("server shutting down".to_owned()));
            }
        }
        remaining -= 1;
        chunk_bytes += pair_bytes;
        chunk.push((key.to_vec(), value.to_vec()));
    }
    flush(&mut chunk)?;
    Ok(Response::ScanEnd)
}

/// Applies one request to the store and returns the frame that ends
/// its reply; a scan's `BATCH_VALUES` frames go out on `stream` before
/// that (see [`stream_pairs`]) and no other request touches the
/// stream. Writes pass through the admission controller first: a
/// write to a shard past its budgets is answered `BUSY` without
/// touching the engine (reads never are).
///
/// Returns `Err` only when the connection died mid-stream.
fn execute(
    state: &ServerState,
    stream: &mut TcpStream,
    seq: u64,
    request: Request,
) -> Result<Response, Error> {
    let ServerState {
        store,
        controller,
        metrics,
        snapshots,
        shutdown,
    } = state;
    Ok(match request {
        Request::Scan { start, end, limit } => {
            let pairs = store.scan(scan_bounds(start, end));
            stream_pairs(stream, seq, pairs, limit, shutdown)?
        }
        Request::SnapScan {
            id,
            start,
            end,
            limit,
        } => match snapshots.get(id) {
            // The Arc keeps the pin alive for the whole stream even if
            // the handle is released concurrently.
            Some(snap) => {
                let pairs = snap.scan(scan_bounds(start, end));
                stream_pairs(stream, seq, pairs, limit, shutdown)?
            }
            None => Response::Err(format!("unknown snapshot handle {id}")),
        },
        Request::Get { key } => match store.get(key) {
            Ok(Some(value)) => Response::Value(value.to_vec()),
            Ok(None) => Response::NotFound,
            Err(e) => Response::Err(e.to_string()),
        },
        Request::Put { key, value } => {
            // Lazy probe: with no admission policy configured the
            // pressure snapshot (a handful of brief lock acquisitions)
            // is never taken.
            if !controller.admit_write(std::iter::once_with(|| store.pressure_for_key(&key))) {
                return Ok(Response::Busy);
            }
            match store.put(key, value.into()) {
                Ok(()) => Response::Ok,
                Err(e) => Response::Err(e.to_string()),
            }
        }
        Request::Delete { key } => {
            if !controller.admit_write(std::iter::once_with(|| store.pressure_for_key(&key))) {
                return Ok(Response::Busy);
            }
            match store.delete(key) {
                Ok(()) => Response::Ok,
                Err(e) => Response::Err(e.to_string()),
            }
        }
        Request::DeleteRange { start, end } => {
            // The tombstone is broadcast to every shard, so the
            // admission decision spans every shard's pressure — like a
            // batch that touches all of them.
            if !controller.admit_write((0..store.shard_count()).map(|s| store.shard_pressure(s))) {
                return Ok(Response::Busy);
            }
            match store.delete_range(start, end) {
                Ok(()) => Response::Ok,
                Err(e) => Response::Err(e.to_string()),
            }
        }
        Request::SnapCreate => Response::Snapshot(snapshots.create(store)),
        Request::SnapRelease { id } => {
            if snapshots.release(id) {
                Response::Ok
            } else {
                Response::NotFound
            }
        }
        Request::SnapGet { id, key } => match snapshots.get(id) {
            // `NOT_FOUND` is reserved for "key absent at the cut":
            // a dead handle is an error, not an empty read.
            None => Response::Err(format!("unknown snapshot handle {id}")),
            Some(snap) => match snap.get(key) {
                Ok(Some(value)) => Response::Value(value.to_vec()),
                Ok(None) => Response::NotFound,
                Err(e) => Response::Err(e.to_string()),
            },
        },
        Request::Batch { ops } => {
            // One admission decision for the whole batch, over the
            // distinct shards it touches: a batch is all-or-nothing at
            // the admission gate, never half-applied because one shard
            // was busy.
            let mut touched: Vec<usize> = ops.iter().map(|op| store.shard_index(&op.key)).collect();
            touched.sort_unstable();
            touched.dedup();
            if !controller.admit_write(touched.into_iter().map(|s| store.shard_pressure(s))) {
                return Ok(Response::Busy);
            }
            let mut batch = WriteBatch::with_capacity(ops.len());
            for op in ops {
                if op.is_delete {
                    batch.delete(Bytes::from(op.key));
                } else {
                    batch.put(Bytes::from(op.key), Bytes::from(op.value));
                }
            }
            match store.apply_batch(batch) {
                Ok(()) => Response::Ok,
                Err(e) => Response::Err(e.to_string()),
            }
        }
        Request::Metrics => {
            // The store contributes the merged engine histograms plus
            // the aggregated engine statistics as `stats_` counters; the
            // server layers its admission counters and request
            // histograms on top. One frame, fully self-describing.
            let mut snapshot = store.metrics_snapshot();
            let admission = controller.counters();
            snapshot.counters.push((
                "stats_admitted_writes".to_owned(),
                admission.admitted_writes,
            ));
            snapshot
                .counters
                .push(("stats_shed_writes".to_owned(), admission.shed_writes));
            snapshot.counters.push((
                "stats_shed_connections".to_owned(),
                admission.shed_connections,
            ));
            for (name, hist) in metrics.named_snapshots() {
                snapshot.histograms.push((name.to_owned(), hist));
            }
            Response::Metrics(snapshot)
        }
        Request::Events { cursor, max } => {
            let max = if max == 0 {
                EVENTS_BATCH_DEFAULT
            } else {
                (max as usize).min(MAX_WIRE_ELEMENTS)
            };
            let drained = store.events().since(cursor, max);
            Response::Events(EventBatch {
                next_cursor: drained.next_cursor,
                dropped: drained.dropped,
                events: drained
                    .events
                    .into_iter()
                    .map(|event| WireEvent {
                        seq: event.seq,
                        at_micros: event.at_micros,
                        shard: event.shard,
                        kind: event.kind.as_str().to_owned(),
                        fields: event
                            .fields
                            .into_iter()
                            .map(|(name, value)| (name.to_owned(), value))
                            .collect(),
                    })
                    .collect(),
            })
        }
    })
}
