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

/// Most elements one wire list may carry, so a hostile count cannot make
/// a decoder allocate far beyond its frame; also the most events the
/// server returns in one `EVENTS` batch.
pub(crate) const MAX_WIRE_ELEMENTS: usize = 65_536;

/// Most elements a decoder reserves room for up front from a wire count.
const PREALLOC_ELEMENTS: usize = 1024;

/// One value's wire layout: `put` appends it, `get` reads it back off
/// the front of `cursor`. Every truncation and count check of the codec
/// lives in these readers, so a message declared from fields is
/// bounds-checked by construction.
trait Field: Sized {
    fn put(&self, buf: &mut Vec<u8>);
    fn get(cursor: &mut &[u8]) -> Result<Self, Error>;
}

/// Splits `n` bytes off the front of `cursor`: the one truncation check.
fn take<'a>(cursor: &mut &'a [u8], n: usize) -> Result<&'a [u8], Error> {
    let (head, tail) = cursor
        .split_at_checked(n)
        .ok_or_else(|| Error::protocol("truncated payload"))?;
    *cursor = tail;
    Ok(head)
}

macro_rules! le_int_fields {
    ($($int:ty),*) => {$(
        impl Field for $int {
            fn put(&self, buf: &mut Vec<u8>) {
                buf.extend_from_slice(&self.to_le_bytes());
            }
            fn get(cursor: &mut &[u8]) -> Result<Self, Error> {
                let bytes = take(cursor, std::mem::size_of::<Self>())?;
                Ok(Self::from_le_bytes(bytes.try_into().expect("took the integer's width")))
            }
        }
    )*};
}

le_int_fields!(u32, u64);

/// A byte string: `len u32 | bytes`, decoded with one slice copy.
impl Field for Vec<u8> {
    fn put(&self, buf: &mut Vec<u8>) {
        (self.len() as u32).put(buf);
        buf.extend_from_slice(self);
    }

    fn get(cursor: &mut &[u8]) -> Result<Self, Error> {
        let len = u32::get(cursor)? as usize;
        Ok(take(cursor, len)?.to_vec())
    }
}

/// A UTF-8 byte string.
impl Field for String {
    fn put(&self, buf: &mut Vec<u8>) {
        (self.len() as u32).put(buf);
        buf.extend_from_slice(self.as_bytes());
    }

    fn get(cursor: &mut &[u8]) -> Result<Self, Error> {
        String::from_utf8(Vec::get(cursor)?).map_err(|_| Error::protocol("non-utf8 string"))
    }
}

/// A list: `count u32 | count × element`.
impl<T: Field> Field for Vec<T> {
    fn put(&self, buf: &mut Vec<u8>) {
        (self.len() as u32).put(buf);
        for item in self {
            item.put(buf);
        }
    }

    fn get(cursor: &mut &[u8]) -> Result<Self, Error> {
        // The one count rule: a count beyond the bytes left (every
        // element takes at least one) or beyond the wire cap is refused
        // before anything is reserved for it.
        let count = u32::get(cursor)? as usize;
        if count > cursor.len().min(MAX_WIRE_ELEMENTS) {
            return Err(Error::protocol("element count beyond the payload or cap"));
        }
        let mut items = Vec::with_capacity(count.min(PREALLOC_ELEMENTS));
        for _ in 0..count {
            items.push(T::get(cursor)?);
        }
        Ok(items)
    }
}

impl<A: Field, B: Field> Field for (A, B) {
    fn put(&self, buf: &mut Vec<u8>) {
        self.0.put(buf);
        self.1.put(buf);
    }

    fn get(cursor: &mut &[u8]) -> Result<Self, Error> {
        Ok((A::get(cursor)?, B::get(cursor)?))
    }
}

/// A histogram bucket, `index u8 | count u64` (`u8` is no `Field`: `Vec<u8>` is a byte string).
impl Field for (u8, u64) {
    fn put(&self, buf: &mut Vec<u8>) {
        buf.push(self.0);
        self.1.put(buf);
    }

    fn get(cursor: &mut &[u8]) -> Result<Self, Error> {
        Ok((take(cursor, 1)?[0], u64::get(cursor)?))
    }
}

/// `sum u64 | sparse buckets`.
impl Field for HistogramSnapshot {
    fn put(&self, buf: &mut Vec<u8>) {
        self.sum().put(buf);
        self.sparse_buckets().put(buf);
    }

    fn get(cursor: &mut &[u8]) -> Result<Self, Error> {
        let sum = u64::get(cursor)?;
        // `from_sparse` ignores out-of-range bucket indices: wire input
        // is untrusted, so a corrupt index degrades, never panics.
        Ok(Self::from_sparse(&Vec::get(cursor)?, sum))
    }
}

/// `is_delete u8 | key | value` — a delete carries no value.
impl Field for WireOp {
    fn put(&self, buf: &mut Vec<u8>) {
        buf.push(u8::from(self.is_delete));
        self.key.put(buf);
        if !self.is_delete {
            self.value.put(buf);
        }
    }

    fn get(cursor: &mut &[u8]) -> Result<Self, Error> {
        if take(cursor, 1)?[0] != 0 {
            Ok(WireOp::delete(Vec::get(cursor)?))
        } else {
            Ok(WireOp::put(Vec::get(cursor)?, Vec::get(cursor)?))
        }
    }
}

/// Implements [`Field`] for structs laid out as their fields in order.
macro_rules! struct_fields {
    ($($ty:ident { $($field:ident),* })*) => {$(
        impl Field for $ty {
            fn put(&self, buf: &mut Vec<u8>) {
                $(self.$field.put(buf);)*
            }
            fn get(cursor: &mut &[u8]) -> Result<Self, Error> {
                Ok(Self { $($field: Field::get(cursor)?),* })
            }
        }
    )*};
}

struct_fields! {
    MetricsSnapshot { counters, histograms }
    WireEvent { seq, at_micros, shard, kind, fields }
    EventBatch { next_cursor, dropped, events }
}

/// The sequence id `payload` carries — what the `ERR` for a request
/// that does not decode echoes — or [`UNSOLICITED_SEQ`] when it is too
/// short to carry one.
#[must_use]
pub fn seq_of(payload: &[u8]) -> u64 {
    let mut after_tag = payload.get(1..).unwrap_or_default();
    u64::get(&mut after_tag).unwrap_or(UNSOLICITED_SEQ)
}

/// Declares a message enum from one row per message — `tag => Variant`
/// with named fields `{ .. }`, one tuple field `(T)`, or none — and
/// generates its `tag | seq | body` codec from the same rows, the body
/// being the fields in order. `$tag_name` names the tag in the error
/// for an unassigned one.
macro_rules! messages {
    // Binds a tuple variant's unnamed field as `$value` in a pattern.
    (@bind $value:ident $ty:ty) => { $value };
    (
        $(#[$enum_doc:meta])*
        pub enum $name:ident: $tag_name:literal {
            $(
                $(#[$doc:meta])*
                $tag:literal => $variant:ident
                $({ $($(#[$field_doc:meta])* $field:ident: $field_ty:ty),* $(,)? })?
                $(($tuple_ty:ty))?
            ),* $(,)?
        }
    ) => {
        $(#[$enum_doc])*
        #[derive(Debug, Clone, PartialEq, Eq)]
        pub enum $name {
            $(
                $(#[$doc])*
                $variant
                $({ $($(#[$field_doc])* $field: $field_ty),* })?
                $(($tuple_ty))?,
            )*
        }

        impl $name {
            /// Serializes the payload (without the frame header) as
            /// `tag | seq | body`. A request carries its own sequence
            /// id; a response echoes the id of the request it answers.
            #[must_use]
            pub fn encode(&self, seq: u64) -> Vec<u8> {
                let mut buf = Vec::new();
                match self {
                    $(
                        Self::$variant
                        $({ $($field),* })?
                        $((messages!(@bind value $tuple_ty)))? => {
                            buf.push($tag);
                            seq.put(&mut buf);
                            $($(<$field_ty as Field>::put($field, &mut buf);)*)?
                            $(<$tuple_ty as Field>::put(value, &mut buf);)?
                        }
                    )*
                }
                buf
            }

            /// Deserializes a payload into its sequence id and message.
            ///
            /// # Errors
            ///
            /// Returns [`Error::Protocol`] for an unknown tag, a
            /// truncated body or bytes trailing it.
            pub fn decode(payload: &[u8]) -> Result<(u64, Self), Error> {
                let mut cursor = payload;
                let tag = take(&mut cursor, 1)?[0];
                let seq = u64::get(&mut cursor)?;
                let message = match tag {
                    $(
                        $tag => Self::$variant
                        $({ $($field: <$field_ty as Field>::get(&mut cursor)?),* })?
                        $((<$tuple_ty as Field>::get(&mut cursor)?))?,
                    )*
                    other => return Err(Error::protocol(format!("unknown {} {other}", $tag_name))),
                };
                if !cursor.is_empty() {
                    return Err(Error::protocol("trailing bytes after the message body"));
                }
                Ok((seq, message))
            }
        }
    };
}

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

messages! {
    /// A client request.
    pub enum Request: "opcode" {
        /// Point read.
        1 => Get {
            /// The key to read.
            key: Vec<u8>,
        },
        /// Insert/overwrite.
        2 => Put {
            /// The key to write.
            key: Vec<u8>,
            /// The value to store.
            value: Vec<u8>,
        },
        /// Delete (tombstone write).
        3 => Delete {
            /// The key to delete.
            key: Vec<u8>,
        },
        /// Batched puts/deletes, applied as one per-shard [`WriteBatch`](lsm_engine::WriteBatch).
        4 => Batch {
            /// The operations, in application order.
            ops: Vec<WireOp>,
        },
        // Opcode 5 is reserved: never assign it, so it keeps decoding as `Err`.
        /// Streaming range scan. Answered by zero or more
        /// [`Response::BatchValues`] frames followed by
        /// [`Response::ScanEnd`] (or [`Response::Err`] on failure).
        6 => Scan {
            /// Inclusive start key of the range.
            start: Vec<u8>,
            /// Exclusive end key; empty means "to the end of the keyspace".
            end: Vec<u8>,
            /// Most keys to return; 0 means unlimited.
            limit: u32,
        },
        /// Self-describing metrics snapshot: named counters and histograms.
        7 => Metrics,
        /// Drain the server's maintenance-event ring from `cursor`.
        8 => Events {
            /// Resume cursor: 0 for "from the oldest retained event", else
            /// the `next_cursor` of the previous [`Response::Events`].
            cursor: u64,
            /// Most events to return in one batch; 0 means "server's cap".
            max: u32,
        },
        /// Range delete: erase every key in `[start, end)` with one range
        /// tombstone per shard. Inverted or empty bounds are an `OK` no-op.
        9 => DeleteRange {
            /// Inclusive start key of the interval.
            start: Vec<u8>,
            /// Exclusive end key of the interval.
            end: Vec<u8>,
        },
        /// Pin a consistent point-in-time snapshot across every shard;
        /// answered by [`Response::Snapshot`] with the id snapshot reads pass.
        10 => SnapCreate,
        /// Release a snapshot handle created by [`Request::SnapCreate`],
        /// letting the engines reclaim the history it pinned. Unknown ids
        /// answer `NOT_FOUND`.
        11 => SnapRelease {
            /// The handle id being released.
            id: u64,
        },
        /// Point read *at* a pinned snapshot: sees exactly the state the
        /// snapshot captured, regardless of later writes.
        12 => SnapGet {
            /// The snapshot handle id.
            id: u64,
            /// The key to read.
            key: Vec<u8>,
        },
        /// Streaming range scan at a pinned snapshot — same response stream
        /// as [`Request::Scan`].
        13 => SnapScan {
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
}

messages! {
    /// A server response.
    pub enum Response: "status" {
        /// The request was applied (and, for writes, is durable).
        0 => Ok,
        /// A `GET` hit: the stored value.
        1 => Value(Vec<u8>),
        /// A `GET` miss (never written, or deleted).
        2 => NotFound,
        // Status 3 is reserved: never assign it, so it keeps decoding as `Err`.
        /// The server failed to execute the request; carries its message.
        4 => Err(String),
        /// One bounded chunk of a `SCAN` stream: `(key, value)` pairs in
        /// ascending key order.
        5 => BatchValues(Vec<(Vec<u8>, Vec<u8>)>),
        /// Terminates a `SCAN` stream: every in-range key has been sent.
        6 => ScanEnd,
        /// The server shed the request — a shard past its stall budget, or
        /// no connection capacity left — and applied nothing; retry later.
        7 => Busy,
        /// A `METRICS` snapshot: named counters and histograms.
        8 => Metrics(MetricsSnapshot),
        /// An `EVENTS` batch: a drained slice of the maintenance trace.
        9 => Events(EventBatch),
        /// The server-assigned handle id minted by `SNAP_CREATE`; pass it
        /// to `SNAP_GET` / `SNAP_SCAN` / `SNAP_RELEASE`.
        10 => Snapshot(u64),
    }
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
    /// The next request's cursor, to continue where this batch ended.
    pub next_cursor: u64,
    /// Events that aged out of the ring between the client's cursor and
    /// the oldest retained event (0 = the client kept up).
    pub dropped: u64,
    /// The drained events, oldest first.
    pub events: Vec<WireEvent>,
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

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    fn unhex(text: &str) -> Vec<u8> {
        let digits: Vec<u8> = text.bytes().filter(|b| *b != b' ').collect();
        digits
            .chunks(2)
            .map(|pair| u8::from_str_radix(std::str::from_utf8(pair).unwrap(), 16).unwrap())
            .collect()
    }

    /// Every variant's exact wire bytes at [`SEQ`] (spaces split the
    /// tag, the sequence id and each field, for the reader only). A bug
    /// symmetric in encode and decode passes every round-trip test but
    /// not these literals.
    #[test]
    fn wire_bytes_are_pinned() {
        let requests = [
            (
                Request::Get { key: b"k".to_vec() },
                "01 0807060504030201 01000000 6b",
            ),
            (
                Request::Put {
                    key: b"key".to_vec(),
                    value: b"value".to_vec(),
                },
                "02 0807060504030201 03000000 6b6579 05000000 76616c7565",
            ),
            (
                Request::Delete {
                    key: b"gone".to_vec(),
                },
                "03 0807060504030201 04000000 676f6e65",
            ),
            (
                Request::Batch {
                    ops: vec![
                        WireOp::put(b"a".to_vec(), b"1".to_vec()),
                        WireOp::delete(b"b".to_vec()),
                    ],
                },
                "04 0807060504030201 02000000 00 01000000 61 01000000 31 01 01000000 62",
            ),
            (
                Request::Scan {
                    start: b"a".to_vec(),
                    end: b"z".to_vec(),
                    limit: 500,
                },
                "06 0807060504030201 01000000 61 01000000 7a f4010000",
            ),
            (Request::Metrics, "07 0807060504030201"),
            (
                Request::Events {
                    cursor: 17,
                    max: 64,
                },
                "08 0807060504030201 1100000000000000 40000000",
            ),
            (
                Request::DeleteRange {
                    start: b"a".to_vec(),
                    end: b"m".to_vec(),
                },
                "09 0807060504030201 01000000 61 01000000 6d",
            ),
            (Request::SnapCreate, "0a 0807060504030201"),
            (
                Request::SnapRelease { id: 3 },
                "0b 0807060504030201 0300000000000000",
            ),
            (
                Request::SnapGet {
                    id: 7,
                    key: b"k".to_vec(),
                },
                "0c 0807060504030201 0700000000000000 01000000 6b",
            ),
            (
                Request::SnapScan {
                    id: 9,
                    start: b"a".to_vec(),
                    end: Vec::new(),
                    limit: 128,
                },
                "0d 0807060504030201 0900000000000000 01000000 61 00000000 80000000",
            ),
        ];
        for (request, bytes) in requests {
            assert_eq!(hex(&request.encode(SEQ)), hex(&unhex(bytes)), "{request:?}");
            assert_eq!(Request::decode(&unhex(bytes)).unwrap(), (SEQ, request));
        }

        let responses = [
            (Response::Ok, "00 0807060504030201"),
            (
                Response::Value(b"payload".to_vec()),
                "01 0807060504030201 07000000 7061796c6f6164",
            ),
            (Response::NotFound, "02 0807060504030201"),
            (
                Response::BatchValues(vec![
                    (b"k1".to_vec(), b"v1".to_vec()),
                    (Vec::new(), b"v".to_vec()),
                ]),
                "05 0807060504030201 02000000 02000000 6b31 02000000 7631 00000000 01000000 76",
            ),
            (Response::ScanEnd, "06 0807060504030201"),
            (Response::Busy, "07 0807060504030201"),
            (
                Response::Err("oops".to_owned()),
                "04 0807060504030201 04000000 6f6f7073",
            ),
            (
                Response::Metrics(MetricsSnapshot {
                    counters: vec![("gets".to_owned(), 5)],
                    histograms: vec![(
                        "put_us".to_owned(),
                        HistogramSnapshot::from_sparse(&[(3, 2), (40, 1)], 999),
                    )],
                }),
                "08 0807060504030201 \
                 01000000 04000000 67657473 0500000000000000 \
                 01000000 06000000 7075745f7573 e703000000000000 \
                 02000000 03 0200000000000000 28 0100000000000000",
            ),
            (
                Response::Events(EventBatch {
                    next_cursor: 5,
                    dropped: 1,
                    events: vec![WireEvent {
                        seq: 4,
                        at_micros: 300,
                        shard: 2,
                        kind: "flush".to_owned(),
                        fields: vec![("gen".to_owned(), 6)],
                    }],
                }),
                "09 0807060504030201 0500000000000000 0100000000000000 01000000 \
                 0400000000000000 2c01000000000000 02000000 05000000 666c757368 \
                 01000000 03000000 67656e 0600000000000000",
            ),
            (
                Response::Snapshot(42),
                "0a 0807060504030201 2a00000000000000",
            ),
        ];
        for (response, bytes) in responses {
            assert_eq!(
                hex(&response.encode(SEQ)),
                hex(&unhex(bytes)),
                "{response:?}"
            );
            assert_eq!(Response::decode(&unhex(bytes)).unwrap(), (SEQ, response));
        }
    }

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
        assert!(Request::decode(&[1]).is_err());
        assert!(Response::decode(&[0, 1, 0, 0, 0]).is_err());
        // Unknown tags behind a full header — including a known opcode
        // (GET, SCAN) or status (OK, BUSY) with its high bit set.
        for tag in [99, 1 | 0x80, 6 | 0x80] {
            let mut payload = Request::Metrics.encode(SEQ);
            payload[0] = tag;
            let err = Request::decode(&payload).unwrap_err();
            assert!(err.to_string().contains("unknown opcode"), "{err}");
        }
        for tag in [77, 0x80, 7 | 0x80] {
            let mut payload = Response::Ok.encode(SEQ);
            payload[0] = tag;
            let err = Response::decode(&payload).unwrap_err();
            assert!(err.to_string().contains("unknown status"), "{err}");
        }
        // Truncated PUT: header + half a key length.
        let mut put = Request::Metrics.encode(SEQ);
        put[0] = 2;
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
        hostile[0] = 8; // METRICS
        hostile.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(Response::decode(&hostile).is_err());
        // So is a count the payload could hold that passes the wire cap.
        for (count, decodes) in [(MAX_WIRE_ELEMENTS, true), (MAX_WIRE_ELEMENTS + 1, false)] {
            let mut frame = hostile[..9].to_vec();
            frame.extend_from_slice(&(count as u32).to_le_bytes());
            // `count` counters with empty names and zero values, then no
            // histograms.
            frame.resize(frame.len() + count * 12 + 4, 0);
            assert_eq!(
                Response::decode(&frame).is_ok(),
                decodes,
                "{count} counters"
            );
        }
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
