//! The length-prefixed wire protocol.
//!
//! Every message — request or response — is one *frame*: a little-endian
//! `u32` payload length followed by the payload. Every payload is
//! `tag u8 | seq u64 LE | body`: the tag is an opcode (`GET` / `PUT` /
//! `DEL` / `BATCH` / `SCAN` / …) on a request and a status on a
//! response, and `seq` is the request's sequence id, which the server
//! echoes on every frame that answers it. All integers are
//! little-endian; keys and values are length-prefixed byte strings. The
//! protocol is deliberately minimal — `std::net` only, no external wire
//! formats — but framed so requests and responses survive TCP
//! segmentation.
//!
//! | opcode | request              | response                      |
//! |--------|----------------------|-------------------------------|
//! | `GET`  | key                  | `VALUE(v)` or `NOT_FOUND`     |
//! | `PUT`  | key, value           | `OK` (durable once received)  |
//! | `DEL`  | key                  | `OK`                          |
//! | `BATCH`| n × (kind, key, val?) | `OK` (applied per-shard batch)|
//! | `SCAN` | start, end, limit    | stream: 0+ × `BATCH_VALUES`, then `SCAN_END` (or `ERR`), every frame echoing the scan's seq |
//! | `METRICS`| —                  | `METRICS(snapshot)`           |
//! | `EVENTS` | cursor, max        | `EVENTS(batch)`               |
//! | `DELRANGE` | start, end       | `OK` (one range tombstone per shard) |
//! | `SNAP_CREATE` | —             | `SNAPSHOT(id)`                |
//! | `SNAP_RELEASE` | id           | `OK` or `NOT_FOUND`           |
//! | `SNAP_GET` | id, key          | `VALUE(v)` / `NOT_FOUND` / `ERR` |
//! | `SNAP_SCAN` | id, start, end, limit | same stream as `SCAN`   |
//!
//! # Sequence ids
//!
//! A client numbers its requests from 1 and may keep many in flight on
//! one connection; the server answers one connection's requests
//! strictly in order and stamps each reply with the id of the request
//! it answers. Sequence id 0 is reserved for replies that answer no
//! request: the session-cap `BUSY` sent to a refused connection, and
//! the `ERR` for a payload too short to carry an id.
//!
//! `SCAN` and `SNAP_SCAN` are the requests answered by **more than one
//! frame**: the server streams the range back as bounded `BATCH_VALUES`
//! chunks (at most [`SCAN_BATCH_MAX_ENTRIES`] pairs /
//! ~[`SCAN_BATCH_MAX_BYTES`] payload bytes each) terminated by
//! `SCAN_END` (or `ERR`), so a scan over millions of keys never
//! materializes server-side. Because replies are in request order the
//! stream's frames are contiguous on the connection, and
//! `BATCH_VALUES` is by definition never the last frame of a reply. An
//! empty `end` means "unbounded"; `limit` 0 means "no limit".
//!
//! # Snapshots over the wire (`SNAP_*`)
//!
//! `SNAP_CREATE` pins one LSN per shard — a consistent cut across the
//! whole sharded store — and answers with a server-assigned handle id.
//! `SNAP_GET` and `SNAP_SCAN` read *at* that cut: writes, flushes,
//! compactions and tombstone GC that happen after the pin are invisible
//! through the handle. `SNAP_RELEASE` drops the pin; the server also
//! bounds abandoned handles, so a crashed client cannot pin history
//! forever. Snapshot ids are per-server ephemeral state, not durable.
//!
//! # Self-describing metrics (`METRICS` / `EVENTS`)
//!
//! `METRICS` is the one statistics frame: every counter and histogram
//! travels as a *name-tagged* entry (`name, value` / `name, sum, sparse
//! buckets`), so servers may add, remove or reorder metrics freely and
//! old clients keep decoding. The counters are the aggregated engine
//! and admission statistics under `stats_`-prefixed names; the
//! histograms are the engine's latency/stall distributions plus the
//! server's per-opcode request timings. `EVENTS` drains the engine's
//! bounded maintenance-trace ring from a client-held cursor; each event
//! carries its kind as a string and its payload as named `u64` fields —
//! same reasoning, same forward compatibility.
//!
//! # Overload (`BUSY`)
//!
//! `BUSY` is the server's load-shedding reply: the owning shard is past
//! its stall budget (admission control) or the server is out of
//! connection capacity. The request was **not** applied — a client may
//! retry later. Writes are shed; reads are never refused.

use std::io::{Read, Write};

use bytes::{Buf, BufMut, BytesMut};
use obs::{HistogramSnapshot, MetricsSnapshot};

use crate::Error;

/// Largest accepted frame payload (64 MiB); anything larger is treated
/// as a protocol violation rather than an allocation request.
pub const MAX_FRAME_LEN: usize = 64 * 1024 * 1024;

/// Most `(key, value)` pairs the server packs into one `BATCH_VALUES`
/// frame of a scan stream.
pub const SCAN_BATCH_MAX_ENTRIES: usize = 256;

/// Approximate payload-byte bound per `BATCH_VALUES` frame; the frame
/// closes at whichever of the two bounds is hit first (plus the pair
/// that crossed it).
pub const SCAN_BATCH_MAX_BYTES: usize = 64 * 1024;

/// Sequence id of a reply that answers no request (see the module
/// docs); clients number their requests from 1.
pub const UNSOLICITED_SEQ: u64 = 0;

const OP_GET: u8 = 1;
const OP_PUT: u8 = 2;
const OP_DEL: u8 = 3;
const OP_BATCH: u8 = 4;
// Opcode 5 is reserved: never assign it, so it keeps decoding as `Err`.
const OP_SCAN: u8 = 6;
const OP_METRICS: u8 = 7;
const OP_EVENTS: u8 = 8;
const OP_DELRANGE: u8 = 9;
const OP_SNAP_CREATE: u8 = 10;
const OP_SNAP_RELEASE: u8 = 11;
const OP_SNAP_GET: u8 = 12;
const OP_SNAP_SCAN: u8 = 13;

const ST_OK: u8 = 0;
const ST_VALUE: u8 = 1;
const ST_NOT_FOUND: u8 = 2;
// Status 3 is reserved: never assign it, so it keeps decoding as `Err`.
const ST_ERR: u8 = 4;
const ST_BATCH_VALUES: u8 = 5;
const ST_SCAN_END: u8 = 6;
const ST_BUSY: u8 = 7;
const ST_METRICS: u8 = 8;
const ST_EVENTS: u8 = 9;
const ST_SNAPSHOT: u8 = 10;

/// Hard cap on element counts decoded from untrusted METRICS/EVENTS
/// frames (counters, histograms, events, fields per event). The frame
/// length already bounds allocation; this bounds hostile counts before
/// the per-element truncation checks reject the frame. Also the upper
/// bound the server clamps an `EVENTS` batch request to.
pub(crate) const MAX_WIRE_ELEMENTS: usize = 65_536;

/// One operation of a wire-level batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireOp {
    /// The user key.
    pub key: Vec<u8>,
    /// The value (ignored for deletes).
    pub value: Vec<u8>,
    /// `true` for a delete, `false` for a put.
    pub is_delete: bool,
}

impl WireOp {
    /// A put operation.
    #[must_use]
    pub fn put(key: Vec<u8>, value: Vec<u8>) -> Self {
        Self {
            key,
            value,
            is_delete: false,
        }
    }

    /// A delete operation.
    #[must_use]
    pub fn delete(key: Vec<u8>) -> Self {
        Self {
            key,
            value: Vec::new(),
            is_delete: true,
        }
    }
}

/// A client request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Point read.
    Get {
        /// The key to read.
        key: Vec<u8>,
    },
    /// Insert/overwrite.
    Put {
        /// The key to write.
        key: Vec<u8>,
        /// The value to store.
        value: Vec<u8>,
    },
    /// Delete (tombstone write).
    Delete {
        /// The key to delete.
        key: Vec<u8>,
    },
    /// Batched puts/deletes, applied as one per-shard [`WriteBatch`](lsm_engine::WriteBatch).
    Batch {
        /// The operations, in application order.
        ops: Vec<WireOp>,
    },
    /// Streaming range scan. Answered by zero or more
    /// [`Response::BatchValues`] frames followed by
    /// [`Response::ScanEnd`] (or [`Response::Err`] on failure).
    Scan {
        /// Inclusive start key of the range.
        start: Vec<u8>,
        /// Exclusive end key; empty means "to the end of the keyspace".
        end: Vec<u8>,
        /// Most keys to return; 0 means unlimited.
        limit: u32,
    },
    /// Self-describing metrics snapshot (named counters + named latency
    /// histograms).
    Metrics,
    /// Drain the server's maintenance-event ring from `cursor`.
    Events {
        /// Resume cursor: 0 for "from the oldest retained event", else
        /// the `next_cursor` of the previous [`Response::Events`].
        cursor: u64,
        /// Most events to return in one batch; 0 means "server's cap".
        max: u32,
    },
    /// Range delete: erase every key in `[start, end)` with one range
    /// tombstone per shard. Inverted or empty bounds are an `OK` no-op.
    DeleteRange {
        /// Inclusive start key of the interval.
        start: Vec<u8>,
        /// Exclusive end key of the interval.
        end: Vec<u8>,
    },
    /// Pin a consistent point-in-time snapshot across every shard.
    /// Answered by [`Response::Snapshot`] carrying the handle id that
    /// snapshot-scoped reads pass back.
    SnapCreate,
    /// Release a snapshot handle created by [`Request::SnapCreate`],
    /// letting the engines reclaim the history it pinned. Unknown ids
    /// answer `NOT_FOUND`.
    SnapRelease {
        /// The handle id being released.
        id: u64,
    },
    /// Point read *at* a pinned snapshot: sees exactly the state the
    /// snapshot captured, regardless of later writes.
    SnapGet {
        /// The snapshot handle id.
        id: u64,
        /// The key to read.
        key: Vec<u8>,
    },
    /// Streaming range scan at a pinned snapshot — same response stream
    /// as [`Request::Scan`].
    SnapScan {
        /// The snapshot handle id.
        id: u64,
        /// Inclusive start key of the range.
        start: Vec<u8>,
        /// Exclusive end key; empty means "to the end of the keyspace".
        end: Vec<u8>,
        /// Most keys to return; 0 means unlimited.
        limit: u32,
    },
}

/// A server response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// The request was applied (and, for writes, is durable).
    Ok,
    /// A `GET` hit.
    Value(
        /// The stored value.
        Vec<u8>,
    ),
    /// A `GET` miss (never written, or deleted).
    NotFound,
    /// One bounded chunk of a `SCAN` stream: `(key, value)` pairs in
    /// ascending key order.
    BatchValues(
        /// The chunk's key/value pairs.
        Vec<(Vec<u8>, Vec<u8>)>,
    ),
    /// Terminates a `SCAN` stream: every in-range key has been sent.
    ScanEnd,
    /// The server shed the request instead of executing it: the owning
    /// shard is past its stall budget, or the server is out of
    /// connection capacity. Nothing was applied; retry later.
    Busy,
    /// The server failed to execute the request.
    Err(
        /// The server-side error message.
        String,
    ),
    /// A `METRICS` snapshot: named counters and histograms.
    Metrics(MetricsSnapshot),
    /// An `EVENTS` batch: a drained slice of the maintenance trace.
    Events(EventBatch),
    /// A snapshot handle minted by `SNAP_CREATE`; pass the id to
    /// `SNAP_GET` / `SNAP_SCAN` / `SNAP_RELEASE`.
    Snapshot(
        /// The server-assigned handle id.
        u64,
    ),
}

/// One traced maintenance event carried over the wire. The kind is a
/// string and the payload is named fields, so new event kinds and new
/// fields never break old consumers.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WireEvent {
    /// Ring-global sequence number (drain cursor space).
    pub seq: u64,
    /// Microseconds since the emitting store opened.
    pub at_micros: u64,
    /// Shard that emitted the event.
    pub shard: u32,
    /// Event kind, e.g. `memtable_freeze` or `compaction_planned`.
    pub kind: String,
    /// Named payload fields (generation ids, costs, queue depths, …).
    pub fields: Vec<(String, u64)>,
}

impl WireEvent {
    /// Looks up a payload field by name.
    #[must_use]
    pub fn field(&self, name: &str) -> Option<u64> {
        self.fields.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }
}

/// A drained slice of the server's bounded event ring.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EventBatch {
    /// Pass as the next request's cursor to continue where this batch
    /// ended.
    pub next_cursor: u64,
    /// Events that aged out of the ring between the client's cursor and
    /// the oldest retained event (0 = the client kept up).
    pub dropped: u64,
    /// The drained events, oldest first.
    pub events: Vec<WireEvent>,
}

fn put_bytes(buf: &mut BytesMut, data: &[u8]) {
    buf.put_u32_le(data.len() as u32);
    buf.put_slice(data);
}

fn get_bytes(cursor: &mut &[u8]) -> Result<Vec<u8>, Error> {
    if cursor.remaining() < 4 {
        return Err(Error::protocol("truncated length prefix"));
    }
    let len = cursor.get_u32_le() as usize;
    if cursor.remaining() < len {
        return Err(Error::protocol("truncated byte string"));
    }
    let out = cursor[..len].to_vec();
    cursor.advance(len);
    Ok(out)
}

fn get_string(cursor: &mut &[u8]) -> Result<String, Error> {
    String::from_utf8(get_bytes(cursor)?).map_err(|_| Error::protocol("non-utf8 metric name"))
}

fn read_u64(cursor: &mut &[u8]) -> Result<u64, Error> {
    if cursor.remaining() < 8 {
        return Err(Error::protocol("truncated u64"));
    }
    Ok(cursor.get_u64_le())
}

/// Reads the `tag u8 | seq u64 LE` header every payload starts with.
fn read_header(cursor: &mut &[u8]) -> Result<(u8, u64), Error> {
    if cursor.remaining() < 9 {
        return Err(Error::protocol("payload too short for tag and sequence id"));
    }
    Ok((cursor.get_u8(), cursor.get_u64_le()))
}

/// The sequence id `payload` carries — what the `ERR` for a request
/// that does not decode echoes — or [`UNSOLICITED_SEQ`] when it is too
/// short to carry one.
#[must_use]
pub fn seq_of(mut payload: &[u8]) -> u64 {
    read_header(&mut payload).map_or(UNSOLICITED_SEQ, |(_tag, seq)| seq)
}

/// Reads an element count and rejects hostile values up front (the
/// per-element reads would catch the truncation anyway, but this keeps
/// the failure mode "protocol error", never a large-allocation stall).
fn get_count(cursor: &mut &[u8]) -> Result<usize, Error> {
    if cursor.remaining() < 4 {
        return Err(Error::protocol("truncated element count"));
    }
    let count = cursor.get_u32_le() as usize;
    if count > MAX_WIRE_ELEMENTS {
        return Err(Error::protocol("element count exceeds wire cap"));
    }
    Ok(count)
}

fn encode_metrics(snapshot: &MetricsSnapshot, buf: &mut BytesMut) {
    buf.put_u32_le(snapshot.counters.len() as u32);
    for (name, value) in &snapshot.counters {
        put_bytes(buf, name.as_bytes());
        buf.put_u64_le(*value);
    }
    buf.put_u32_le(snapshot.histograms.len() as u32);
    for (name, hist) in &snapshot.histograms {
        put_bytes(buf, name.as_bytes());
        buf.put_u64_le(hist.sum());
        let sparse = hist.sparse_buckets();
        buf.put_u32_le(sparse.len() as u32);
        for (idx, count) in sparse {
            buf.put_u8(idx);
            buf.put_u64_le(count);
        }
    }
}

fn decode_metrics(cursor: &mut &[u8]) -> Result<MetricsSnapshot, Error> {
    let n_counters = get_count(cursor)?;
    let mut counters = Vec::with_capacity(n_counters);
    for _ in 0..n_counters {
        let name = get_string(cursor)?;
        counters.push((name, read_u64(cursor)?));
    }
    let n_histograms = get_count(cursor)?;
    let mut histograms = Vec::with_capacity(n_histograms);
    for _ in 0..n_histograms {
        let name = get_string(cursor)?;
        let sum = read_u64(cursor)?;
        let n_buckets = get_count(cursor)?;
        let mut sparse = Vec::with_capacity(n_buckets);
        for _ in 0..n_buckets {
            if cursor.remaining() < 9 {
                return Err(Error::protocol("truncated histogram bucket"));
            }
            let idx = cursor.get_u8();
            sparse.push((idx, cursor.get_u64_le()));
        }
        // `from_sparse` ignores out-of-range bucket indices: wire input
        // is untrusted, so a corrupt index degrades, never panics.
        histograms.push((name, HistogramSnapshot::from_sparse(&sparse, sum)));
    }
    Ok(MetricsSnapshot {
        counters,
        histograms,
    })
}

fn encode_events(batch: &EventBatch, buf: &mut BytesMut) {
    buf.put_u64_le(batch.next_cursor);
    buf.put_u64_le(batch.dropped);
    buf.put_u32_le(batch.events.len() as u32);
    for event in &batch.events {
        buf.put_u64_le(event.seq);
        buf.put_u64_le(event.at_micros);
        buf.put_u32_le(event.shard);
        put_bytes(buf, event.kind.as_bytes());
        buf.put_u32_le(event.fields.len() as u32);
        for (name, value) in &event.fields {
            put_bytes(buf, name.as_bytes());
            buf.put_u64_le(*value);
        }
    }
}

fn decode_events(cursor: &mut &[u8]) -> Result<EventBatch, Error> {
    let next_cursor = read_u64(cursor)?;
    let dropped = read_u64(cursor)?;
    let n_events = get_count(cursor)?;
    let mut events = Vec::with_capacity(n_events);
    for _ in 0..n_events {
        let seq = read_u64(cursor)?;
        let at_micros = read_u64(cursor)?;
        if cursor.remaining() < 4 {
            return Err(Error::protocol("truncated event shard"));
        }
        let shard = cursor.get_u32_le();
        let kind = get_string(cursor)?;
        let n_fields = get_count(cursor)?;
        let mut fields = Vec::with_capacity(n_fields);
        for _ in 0..n_fields {
            let name = get_string(cursor)?;
            fields.push((name, read_u64(cursor)?));
        }
        events.push(WireEvent {
            seq,
            at_micros,
            shard,
            kind,
            fields,
        });
    }
    Ok(EventBatch {
        next_cursor,
        dropped,
        events,
    })
}

impl Request {
    /// Serializes the request payload (without the frame header)
    /// carrying sequence id `seq`, which the server echoes on every
    /// frame of the reply.
    #[must_use]
    pub fn encode(&self, seq: u64) -> Vec<u8> {
        let mut buf = BytesMut::new();
        buf.put_u8(match self {
            Request::Get { .. } => OP_GET,
            Request::Put { .. } => OP_PUT,
            Request::Delete { .. } => OP_DEL,
            Request::Batch { .. } => OP_BATCH,
            Request::Scan { .. } => OP_SCAN,
            Request::Metrics => OP_METRICS,
            Request::Events { .. } => OP_EVENTS,
            Request::DeleteRange { .. } => OP_DELRANGE,
            Request::SnapCreate => OP_SNAP_CREATE,
            Request::SnapRelease { .. } => OP_SNAP_RELEASE,
            Request::SnapGet { .. } => OP_SNAP_GET,
            Request::SnapScan { .. } => OP_SNAP_SCAN,
        });
        buf.put_u64_le(seq);
        match self {
            Request::Get { key } | Request::Delete { key } => {
                put_bytes(&mut buf, key);
            }
            Request::Put { key, value } => {
                put_bytes(&mut buf, key);
                put_bytes(&mut buf, value);
            }
            Request::Batch { ops } => {
                buf.put_u32_le(ops.len() as u32);
                for op in ops {
                    buf.put_u8(u8::from(op.is_delete));
                    put_bytes(&mut buf, &op.key);
                    if !op.is_delete {
                        put_bytes(&mut buf, &op.value);
                    }
                }
            }
            Request::Metrics => {}
            Request::Scan { start, end, limit } => {
                put_bytes(&mut buf, start);
                put_bytes(&mut buf, end);
                buf.put_u32_le(*limit);
            }
            Request::Events { cursor, max } => {
                buf.put_u64_le(*cursor);
                buf.put_u32_le(*max);
            }
            Request::DeleteRange { start, end } => {
                put_bytes(&mut buf, start);
                put_bytes(&mut buf, end);
            }
            Request::SnapCreate => {}
            Request::SnapRelease { id } => buf.put_u64_le(*id),
            Request::SnapGet { id, key } => {
                buf.put_u64_le(*id);
                put_bytes(&mut buf, key);
            }
            Request::SnapScan {
                id,
                start,
                end,
                limit,
            } => {
                buf.put_u64_le(*id);
                put_bytes(&mut buf, start);
                put_bytes(&mut buf, end);
                buf.put_u32_le(*limit);
            }
        }
        buf.to_vec()
    }

    /// Deserializes a request payload into its sequence id and the
    /// request.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Protocol`] for unknown opcodes or truncation.
    pub fn decode(payload: &[u8]) -> Result<(u64, Self), Error> {
        let mut cursor = payload;
        let (tag, seq) = read_header(&mut cursor)?;
        let request = match tag {
            OP_GET => Request::Get {
                key: get_bytes(&mut cursor)?,
            },
            OP_PUT => Request::Put {
                key: get_bytes(&mut cursor)?,
                value: get_bytes(&mut cursor)?,
            },
            OP_DEL => Request::Delete {
                key: get_bytes(&mut cursor)?,
            },
            OP_BATCH => {
                if cursor.remaining() < 4 {
                    return Err(Error::protocol("truncated batch count"));
                }
                let count = cursor.get_u32_le() as usize;
                let mut ops = Vec::with_capacity(count.min(1024));
                for _ in 0..count {
                    if cursor.is_empty() {
                        return Err(Error::protocol("truncated batch op"));
                    }
                    let is_delete = cursor.get_u8() != 0;
                    let key = get_bytes(&mut cursor)?;
                    let value = if is_delete {
                        Vec::new()
                    } else {
                        get_bytes(&mut cursor)?
                    };
                    ops.push(WireOp {
                        key,
                        value,
                        is_delete,
                    });
                }
                Request::Batch { ops }
            }
            OP_SCAN => {
                let start = get_bytes(&mut cursor)?;
                let end = get_bytes(&mut cursor)?;
                if cursor.remaining() < 4 {
                    return Err(Error::protocol("truncated scan limit"));
                }
                Request::Scan {
                    start,
                    end,
                    limit: cursor.get_u32_le(),
                }
            }
            OP_METRICS => Request::Metrics,
            OP_EVENTS => {
                let cursor_pos = read_u64(&mut cursor)?;
                if cursor.remaining() < 4 {
                    return Err(Error::protocol("truncated events max"));
                }
                Request::Events {
                    cursor: cursor_pos,
                    max: cursor.get_u32_le(),
                }
            }
            OP_DELRANGE => Request::DeleteRange {
                start: get_bytes(&mut cursor)?,
                end: get_bytes(&mut cursor)?,
            },
            OP_SNAP_CREATE => Request::SnapCreate,
            OP_SNAP_RELEASE => Request::SnapRelease {
                id: read_u64(&mut cursor)?,
            },
            OP_SNAP_GET => Request::SnapGet {
                id: read_u64(&mut cursor)?,
                key: get_bytes(&mut cursor)?,
            },
            OP_SNAP_SCAN => {
                let id = read_u64(&mut cursor)?;
                let start = get_bytes(&mut cursor)?;
                let end = get_bytes(&mut cursor)?;
                if cursor.remaining() < 4 {
                    return Err(Error::protocol("truncated snapshot-scan limit"));
                }
                Request::SnapScan {
                    id,
                    start,
                    end,
                    limit: cursor.get_u32_le(),
                }
            }
            other => return Err(Error::protocol(format!("unknown opcode {other}"))),
        };
        if !cursor.is_empty() {
            return Err(Error::protocol("trailing bytes after request"));
        }
        Ok((seq, request))
    }
}

impl Response {
    /// Serializes the response payload (without the frame header)
    /// echoing `seq`, the id of the request it answers.
    #[must_use]
    pub fn encode(&self, seq: u64) -> Vec<u8> {
        let mut buf = BytesMut::new();
        buf.put_u8(match self {
            Response::Ok => ST_OK,
            Response::Value(_) => ST_VALUE,
            Response::NotFound => ST_NOT_FOUND,
            Response::BatchValues(_) => ST_BATCH_VALUES,
            Response::ScanEnd => ST_SCAN_END,
            Response::Busy => ST_BUSY,
            Response::Err(_) => ST_ERR,
            Response::Metrics(_) => ST_METRICS,
            Response::Events(_) => ST_EVENTS,
            Response::Snapshot(_) => ST_SNAPSHOT,
        });
        buf.put_u64_le(seq);
        match self {
            Response::Ok | Response::NotFound | Response::ScanEnd | Response::Busy => {}
            Response::Value(value) => put_bytes(&mut buf, value),
            Response::BatchValues(pairs) => {
                buf.put_u32_le(pairs.len() as u32);
                for (key, value) in pairs {
                    put_bytes(&mut buf, key);
                    put_bytes(&mut buf, value);
                }
            }
            Response::Err(message) => put_bytes(&mut buf, message.as_bytes()),
            Response::Metrics(snapshot) => encode_metrics(snapshot, &mut buf),
            Response::Events(batch) => encode_events(batch, &mut buf),
            Response::Snapshot(id) => buf.put_u64_le(*id),
        }
        buf.to_vec()
    }

    /// Deserializes a response payload into the echoed sequence id
    /// and the response.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Protocol`] for unknown status bytes or
    /// truncation.
    pub fn decode(payload: &[u8]) -> Result<(u64, Self), Error> {
        let mut cursor = payload;
        let (tag, seq) = read_header(&mut cursor)?;
        let response = match tag {
            ST_OK => Response::Ok,
            ST_VALUE => Response::Value(get_bytes(&mut cursor)?),
            ST_NOT_FOUND => Response::NotFound,
            ST_BATCH_VALUES => {
                if cursor.remaining() < 4 {
                    return Err(Error::protocol("truncated batch-values count"));
                }
                let count = cursor.get_u32_le() as usize;
                let mut pairs = Vec::with_capacity(count.min(SCAN_BATCH_MAX_ENTRIES));
                for _ in 0..count {
                    let key = get_bytes(&mut cursor)?;
                    let value = get_bytes(&mut cursor)?;
                    pairs.push((key, value));
                }
                Response::BatchValues(pairs)
            }
            ST_SCAN_END => Response::ScanEnd,
            ST_BUSY => Response::Busy,
            ST_ERR => Response::Err(
                String::from_utf8(get_bytes(&mut cursor)?)
                    .map_err(|_| Error::protocol("non-utf8 error message"))?,
            ),
            ST_METRICS => Response::Metrics(decode_metrics(&mut cursor)?),
            ST_EVENTS => Response::Events(decode_events(&mut cursor)?),
            ST_SNAPSHOT => Response::Snapshot(read_u64(&mut cursor)?),
            other => return Err(Error::protocol(format!("unknown status {other}"))),
        };
        if !cursor.is_empty() {
            return Err(Error::protocol("trailing bytes after response"));
        }
        Ok((seq, response))
    }
}

/// Outcome of reading one frame from a stream.
#[derive(Debug)]
pub enum FrameRead {
    /// A complete frame payload.
    Frame(Vec<u8>),
    /// The peer closed the connection cleanly (EOF before any byte).
    Eof,
    /// A read timeout fired before any byte of a new frame arrived
    /// (only possible when the stream has a read timeout configured;
    /// the server uses this to poll its shutdown flag).
    Idle,
}

/// How many consecutive zero-progress timed-out reads are tolerated
/// mid-frame before the connection is declared dead. With the server's
/// 50 ms poll timeout this is ~5 s of total silence inside one frame;
/// it bounds both a half-frame denial-of-service (a stalled sender
/// cannot pin a pool worker forever) and the worst-case shutdown join.
const MAX_IDLE_READS_MID_FRAME: u32 = 100;

/// Reads exactly `buf.len()` bytes, retrying interrupted and timed-out
/// reads: once the first byte of a frame has arrived we are committed to
/// it — but only for a bounded stall (see [`MAX_IDLE_READS_MID_FRAME`]).
fn read_full(reader: &mut impl Read, buf: &mut [u8]) -> Result<(), Error> {
    let mut filled = 0;
    let mut idle_reads = 0u32;
    while filled < buf.len() {
        match reader.read(&mut buf[filled..]) {
            Ok(0) => return Err(Error::protocol("connection closed mid-frame")),
            Ok(n) => {
                filled += n;
                idle_reads = 0;
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                idle_reads += 1;
                if idle_reads >= MAX_IDLE_READS_MID_FRAME {
                    return Err(Error::protocol("peer stalled mid-frame"));
                }
            }
            Err(e) => return Err(Error::Io(e)),
        }
    }
    Ok(())
}

/// Reads one frame.
///
/// # Errors
///
/// Returns [`Error::Protocol`] for oversized or torn frames and
/// propagates I/O failures.
pub fn read_frame(reader: &mut impl Read) -> Result<FrameRead, Error> {
    // The first byte decides between Frame / Eof / Idle; after it we are
    // committed to the frame.
    let mut first = [0u8; 1];
    loop {
        match reader.read(&mut first) {
            Ok(0) => return Ok(FrameRead::Eof),
            Ok(_) => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                return Ok(FrameRead::Idle)
            }
            Err(e) => return Err(Error::Io(e)),
        }
    }
    let mut rest = [0u8; 3];
    read_full(reader, &mut rest)?;
    let len = u32::from_le_bytes([first[0], rest[0], rest[1], rest[2]]) as usize;
    if len > MAX_FRAME_LEN {
        return Err(Error::protocol(format!("frame of {len} bytes rejected")));
    }
    let mut payload = vec![0u8; len];
    read_full(reader, &mut payload)?;
    Ok(FrameRead::Frame(payload))
}

/// Writes one frame.
///
/// # Errors
///
/// Returns [`Error::Protocol`] for oversized payloads and propagates
/// I/O failures.
pub fn write_frame(writer: &mut impl Write, payload: &[u8]) -> Result<(), Error> {
    if payload.len() > MAX_FRAME_LEN {
        return Err(Error::protocol("refusing to send oversized frame"));
    }
    writer.write_all(&(payload.len() as u32).to_le_bytes())?;
    writer.write_all(payload)?;
    writer.flush()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The sequence id the single-frame tests stamp on what they encode.
    const SEQ: u64 = 0x0102_0304_0506_0708;

    #[test]
    fn request_roundtrips() {
        let requests = vec![
            Request::Get { key: b"k".to_vec() },
            Request::Put {
                key: b"key".to_vec(),
                value: b"value".to_vec(),
            },
            Request::Delete {
                key: b"gone".to_vec(),
            },
            Request::Batch {
                ops: vec![
                    WireOp::put(b"a".to_vec(), b"1".to_vec()),
                    WireOp::delete(b"b".to_vec()),
                    WireOp::put(Vec::new(), Vec::new()),
                ],
            },
            Request::Scan {
                start: b"a".to_vec(),
                end: b"z".to_vec(),
                limit: 500,
            },
            Request::Scan {
                start: Vec::new(),
                end: Vec::new(),
                limit: 0,
            },
            Request::DeleteRange {
                start: b"a".to_vec(),
                end: b"m".to_vec(),
            },
            Request::DeleteRange {
                start: Vec::new(),
                end: Vec::new(),
            },
            Request::SnapCreate,
            Request::SnapRelease { id: u64::MAX },
            Request::SnapGet {
                id: 7,
                key: b"k".to_vec(),
            },
            Request::SnapScan {
                id: 9,
                start: b"a".to_vec(),
                end: Vec::new(),
                limit: 128,
            },
        ];
        for request in requests {
            let decoded = Request::decode(&request.encode(SEQ)).unwrap();
            assert_eq!(decoded, (SEQ, request));
        }
    }

    #[test]
    fn response_roundtrips() {
        let responses = vec![
            Response::Ok,
            Response::Value(b"payload".to_vec()),
            Response::NotFound,
            Response::Err("went wrong".to_owned()),
            Response::Busy,
            Response::BatchValues(vec![
                (b"k1".to_vec(), b"v1".to_vec()),
                (b"k2".to_vec(), Vec::new()),
                (Vec::new(), b"v".to_vec()),
            ]),
            Response::BatchValues(Vec::new()),
            Response::ScanEnd,
            Response::Snapshot(0),
            Response::Snapshot(u64::MAX),
        ];
        for response in responses {
            let decoded = Response::decode(&response.encode(SEQ)).unwrap();
            assert_eq!(decoded, (SEQ, response));
        }
    }

    #[test]
    fn snapshot_and_delrange_frames_reject_truncation() {
        let requests = [
            Request::DeleteRange {
                start: b"aa".to_vec(),
                end: b"zz".to_vec(),
            },
            Request::SnapRelease { id: 3 },
            Request::SnapGet {
                id: 3,
                key: b"key".to_vec(),
            },
            Request::SnapScan {
                id: 3,
                start: b"a".to_vec(),
                end: b"z".to_vec(),
                limit: 5,
            },
        ];
        for request in &requests {
            let encoded = request.encode(SEQ);
            for cut in 0..encoded.len() {
                assert!(
                    Request::decode(&encoded[..cut]).is_err(),
                    "prefix of {cut} bytes decoded"
                );
            }
            let mut long = encoded.clone();
            long.push(0);
            assert!(Request::decode(&long).is_err());
        }
        let encoded = Response::Snapshot(42).encode(SEQ);
        for cut in 0..encoded.len() {
            assert!(Response::decode(&encoded[..cut]).is_err());
        }
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(Request::decode(&[]).is_err());
        // A bare tag, and a tag with half a sequence id.
        assert!(Request::decode(&[OP_GET]).is_err());
        assert!(Response::decode(&[ST_OK, 1, 0, 0, 0]).is_err());
        // Unknown tags behind a full header — including a known opcode
        // or status with its high bit set.
        for tag in [99, OP_GET | 0x80, OP_SCAN | 0x80] {
            let mut payload = Request::Metrics.encode(SEQ);
            payload[0] = tag;
            let err = Request::decode(&payload).unwrap_err();
            assert!(err.to_string().contains("unknown opcode"), "{err}");
        }
        for tag in [77, ST_OK | 0x80, ST_BUSY | 0x80] {
            let mut payload = Response::Ok.encode(SEQ);
            payload[0] = tag;
            let err = Response::decode(&payload).unwrap_err();
            assert!(err.to_string().contains("unknown status"), "{err}");
        }
        // Truncated PUT: header + half a key length.
        let mut put = Request::Metrics.encode(SEQ);
        put[0] = OP_PUT;
        put.extend_from_slice(&[5, 0]);
        assert!(Request::decode(&put).is_err());
        // Trailing junk.
        let mut ok = Request::Metrics.encode(SEQ);
        ok.push(0);
        assert!(Request::decode(&ok).is_err());
        // The reserved opcode 5 / status 3 stay unassigned, bare or with
        // a body behind them.
        for body_len in [0, 29 * 8] {
            let mut frame = vec![5u8];
            frame.resize(9 + body_len, 0);
            assert!(Request::decode(&frame).is_err());
            frame[0] = 3;
            assert!(Response::decode(&frame).is_err());
        }
    }

    #[test]
    fn scan_decode_rejects_truncation_and_junk() {
        let scan = Request::Scan {
            start: b"aa".to_vec(),
            end: b"zz".to_vec(),
            limit: 7,
        };
        let encoded = scan.encode(SEQ);
        // Every strict prefix of a SCAN request is rejected (the limit
        // field, the byte strings and their length prefixes all check).
        for cut in 0..encoded.len() {
            assert!(
                Request::decode(&encoded[..cut]).is_err(),
                "prefix of {cut} bytes decoded"
            );
        }
        // Trailing junk after a complete SCAN.
        let mut long = encoded.clone();
        long.push(9);
        assert!(Request::decode(&long).is_err());

        let batch = Response::BatchValues(vec![
            (b"key-1".to_vec(), b"value-1".to_vec()),
            (b"key-2".to_vec(), b"value-2".to_vec()),
        ]);
        let encoded = batch.encode(SEQ);
        // A torn BATCH_VALUES (count says 2, payload holds fewer) and
        // every other strict prefix are rejected.
        for cut in 0..encoded.len() {
            assert!(
                Response::decode(&encoded[..cut]).is_err(),
                "prefix of {cut} bytes decoded"
            );
        }
        let mut long = encoded.clone();
        long.push(0);
        assert!(Response::decode(&long).is_err());

        // SCAN_END carries no payload: any trailing byte is junk.
        let mut end = Response::ScanEnd.encode(SEQ);
        assert_eq!(Response::decode(&end).unwrap(), (SEQ, Response::ScanEnd));
        end.push(1);
        assert!(Response::decode(&end).is_err());
    }

    #[test]
    fn busy_roundtrips_and_carries_no_payload() {
        let encoded = Response::Busy.encode(SEQ);
        assert_eq!(Response::decode(&encoded).unwrap(), (SEQ, Response::Busy));
        let mut junk = encoded.clone();
        junk.push(0);
        assert!(Response::decode(&junk).is_err());
    }

    #[test]
    fn metrics_response_roundtrips_name_tagged() {
        let hist = obs::LatencyHistogram::new();
        for v in [1u64, 10, 100, 1_000, 100_000] {
            hist.record(v);
        }
        let snapshot = MetricsSnapshot {
            counters: vec![
                ("stats_puts".to_owned(), 42),
                ("stats_shed_writes".to_owned(), 7),
            ],
            histograms: vec![
                ("server_get_us".to_owned(), hist.snapshot()),
                ("engine_flush_us".to_owned(), HistogramSnapshot::default()),
            ],
        };
        let response = Response::Metrics(snapshot.clone());
        match Response::decode(&response.encode(SEQ)).unwrap() {
            (SEQ, Response::Metrics(decoded)) => {
                assert_eq!(decoded, snapshot);
                assert_eq!(decoded.counter("stats_puts"), Some(42));
                let h = decoded.histogram("server_get_us").unwrap();
                assert_eq!(h.count(), 5);
                assert_eq!(h.sum(), snapshot.histogram("server_get_us").unwrap().sum());
            }
            other => panic!("expected metrics, got {other:?}"),
        }
    }

    #[test]
    fn events_response_roundtrips_with_cursor_and_fields() {
        let batch = EventBatch {
            next_cursor: 99,
            dropped: 3,
            events: vec![
                WireEvent {
                    seq: 96,
                    at_micros: 12_345,
                    shard: 2,
                    kind: "memtable_freeze".to_owned(),
                    fields: vec![("generation".to_owned(), 4), ("entries".to_owned(), 128)],
                },
                WireEvent {
                    seq: 98,
                    at_micros: 12_399,
                    shard: 0,
                    kind: "compaction_planned".to_owned(),
                    fields: Vec::new(),
                },
            ],
        };
        match Response::decode(&Response::Events(batch.clone()).encode(SEQ)).unwrap() {
            (SEQ, Response::Events(decoded)) => {
                assert_eq!(decoded, batch);
                assert_eq!(decoded.events[0].field("generation"), Some(4));
                assert_eq!(decoded.events[0].field("missing"), None);
            }
            other => panic!("expected events, got {other:?}"),
        }
    }

    #[test]
    fn torn_metrics_and_events_frames_never_decode() {
        let metrics = Response::Metrics(MetricsSnapshot {
            counters: vec![("stats_gets".to_owned(), 5)],
            histograms: vec![(
                "server_put_us".to_owned(),
                HistogramSnapshot::from_sparse(&[(3, 2), (40, 1)], 999),
            )],
        })
        .encode(SEQ);
        for cut in 0..metrics.len() {
            assert!(
                Response::decode(&metrics[..cut]).is_err(),
                "metrics prefix of {cut} bytes decoded"
            );
        }
        let events = Response::Events(EventBatch {
            next_cursor: 5,
            dropped: 0,
            events: vec![WireEvent {
                seq: 4,
                at_micros: 1,
                shard: 1,
                kind: "flush_start".to_owned(),
                fields: vec![("generation".to_owned(), 0)],
            }],
        })
        .encode(SEQ);
        for cut in 0..events.len() {
            assert!(
                Response::decode(&events[..cut]).is_err(),
                "events prefix of {cut} bytes decoded"
            );
        }
        // Hostile element counts are a protocol error, not an allocation.
        let mut hostile = Response::Ok.encode(SEQ);
        hostile[0] = ST_METRICS;
        hostile.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(Response::decode(&hostile).is_err());
    }

    #[test]
    fn frames_roundtrip_over_a_buffer() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"hello").unwrap();
        write_frame(&mut wire, b"").unwrap();
        let mut reader = wire.as_slice();
        match read_frame(&mut reader).unwrap() {
            FrameRead::Frame(p) => assert_eq!(p, b"hello"),
            other => panic!("expected frame, got {other:?}"),
        }
        match read_frame(&mut reader).unwrap() {
            FrameRead::Frame(p) => assert!(p.is_empty()),
            other => panic!("expected frame, got {other:?}"),
        }
        assert!(matches!(read_frame(&mut reader).unwrap(), FrameRead::Eof));
    }

    #[test]
    fn torn_frame_is_a_protocol_error() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"hello world").unwrap();
        wire.truncate(wire.len() - 4);
        let mut reader = wire.as_slice();
        assert!(read_frame(&mut reader).is_err());
    }

    #[test]
    fn oversized_frames_are_rejected() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&(u32::MAX).to_le_bytes());
        let mut reader = wire.as_slice();
        assert!(read_frame(&mut reader).is_err());
        let huge = vec![0u8; MAX_FRAME_LEN + 1];
        assert!(write_frame(&mut Vec::new(), &huge).is_err());
    }
}
