//! A blocking TCP client for the KV service.

use std::net::{Shutdown, TcpStream, ToSocketAddrs};

use lsm_engine::IntoKey;
use obs::MetricsSnapshot;

use crate::protocol::{
    read_frame, write_frame, EventBatch, FrameRead, Request, Response, WireOp, UNSOLICITED_SEQ,
};
use crate::{wire, Error};

/// A blocking client over one TCP connection.
///
/// One request is in flight at a time (closed-loop), read back on the
/// calling thread; the load harness runs many clients on separate
/// threads to generate concurrency.
#[derive(Debug)]
pub struct KvClient {
    stream: TcpStream,
    /// Sequence id of the request in flight (clients number from 1).
    seq: u64,
}

impl KvClient {
    /// Connects to a [`KvServer`](crate::KvServer).
    ///
    /// # Errors
    ///
    /// Propagates connection failures.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, Error> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Self {
            stream,
            seq: UNSOLICITED_SEQ,
        })
    }

    /// Sends `request` under the next sequence id.
    fn send(&mut self, request: &Request) -> Result<(), Error> {
        self.seq += 1;
        write_frame(&mut self.stream, &request.encode(self.seq))
    }

    /// Blocks for the next frame answering the request in flight.
    fn reply(&mut self) -> Result<Response, Error> {
        // No read timeout is set, so anything but a frame is the end.
        let FrameRead::Frame(payload) = read_frame(&mut self.stream)? else {
            return Err(Error::protocol("server closed the connection"));
        };
        match Response::decode(&payload)? {
            (seq, response) if seq == self.seq => Ok(response),
            // The session-cap refusal answers no request.
            (UNSOLICITED_SEQ, Response::Busy) => Err(Error::Busy),
            (seq, _) => Err(Error::protocol(format!(
                "reply to request {seq} while waiting on request {}",
                self.seq
            ))),
        }
    }

    fn roundtrip(&mut self, request: &Request) -> Result<Response, Error> {
        self.send(request)?;
        self.reply()
    }

    fn expect_ok(&mut self, request: &Request) -> Result<(), Error> {
        wire::expect_ok(self.roundtrip(request)?)
    }

    /// Point read.
    ///
    /// # Errors
    ///
    /// Propagates transport, protocol and server errors.
    pub fn get(&mut self, key: impl IntoKey) -> Result<Option<Vec<u8>>, Error> {
        wire::expect_value(self.roundtrip(&Request::Get { key: wire_key(key) })?)
    }

    /// Insert/overwrite; durable on the server once this returns.
    ///
    /// # Errors
    ///
    /// Propagates transport, protocol and server errors.
    pub fn put(&mut self, key: impl IntoKey, value: impl Into<Vec<u8>>) -> Result<(), Error> {
        self.expect_ok(&Request::Put {
            key: wire_key(key),
            value: value.into(),
        })
    }

    /// Delete.
    ///
    /// # Errors
    ///
    /// Propagates transport, protocol and server errors.
    pub fn delete(&mut self, key: impl IntoKey) -> Result<(), Error> {
        self.expect_ok(&Request::Delete { key: wire_key(key) })
    }

    /// Deletes every key in `[start, end)` server-side with one range
    /// tombstone per shard (`DELRANGE`) — O(shards) work however many
    /// keys the interval covers. Inverted or empty bounds are an `OK`
    /// no-op.
    ///
    /// # Errors
    ///
    /// Propagates transport, protocol and server errors.
    pub fn delete_range(&mut self, start: impl IntoKey, end: impl IntoKey) -> Result<(), Error> {
        self.expect_ok(&Request::DeleteRange {
            start: wire_key(start),
            end: wire_key(end),
        })
    }

    /// Pins a server-side snapshot (`SNAP_CREATE`): a consistent cut
    /// across every shard, addressed by the returned handle id via
    /// [`KvClient::snap_get`] / [`KvClient::snap_scan`] until released
    /// with [`KvClient::snap_release`]. The server bounds live handles,
    /// so an abandoned id may be evicted.
    ///
    /// # Errors
    ///
    /// Propagates transport, protocol and server errors.
    pub fn snap_create(&mut self) -> Result<u64, Error> {
        wire::expect_snapshot(self.roundtrip(&Request::SnapCreate)?)
    }

    /// Releases snapshot handle `id` (`SNAP_RELEASE`), letting the
    /// server reclaim the pinned history.
    ///
    /// # Errors
    ///
    /// Fails with a remote error if the handle is unknown (already
    /// released or evicted); propagates transport and protocol errors.
    pub fn snap_release(&mut self, id: u64) -> Result<(), Error> {
        match self.roundtrip(&Request::SnapRelease { id })? {
            Response::NotFound => Err(Error::remote(format!("unknown snapshot handle {id}"))),
            other => wire::expect_ok(other),
        }
    }

    /// Point read at pinned snapshot `id` (`SNAP_GET`): sees exactly
    /// the state the snapshot captured, regardless of writes since.
    ///
    /// # Errors
    ///
    /// Propagates transport, protocol and server errors (including an
    /// unknown/evicted handle, reported by the server as `ERR`).
    pub fn snap_get(&mut self, id: u64, key: impl IntoKey) -> Result<Option<Vec<u8>>, Error> {
        wire::expect_value(self.roundtrip(&Request::SnapGet {
            id,
            key: wire_key(key),
        })?)
    }

    /// Applies `ops` as one wire batch (grouped per shard server-side,
    /// one WAL frame per touched shard).
    ///
    /// # Errors
    ///
    /// Propagates transport, protocol and server errors.
    pub fn batch(&mut self, ops: Vec<WireOp>) -> Result<(), Error> {
        if ops.is_empty() {
            return Ok(());
        }
        self.expect_ok(&Request::Batch { ops })
    }

    /// Fetches the self-describing metrics snapshot: named counters
    /// (the aggregated engine and admission statistics, `stats_`-prefixed)
    /// plus the server's `server_*_us` request histograms and the
    /// engine's `engine_*_us` histograms merged across shards. Nothing
    /// here is positional — servers can add metrics without breaking
    /// this client.
    ///
    /// # Errors
    ///
    /// Propagates transport, protocol and server errors.
    pub fn metrics(&mut self) -> Result<MetricsSnapshot, Error> {
        wire::expect_metrics(self.roundtrip(&Request::Metrics)?)
    }

    /// Drains the server's maintenance event ring from `cursor` (0 =
    /// oldest retained), returning at most `max` events (0 = server's
    /// default batch). Feed the batch's `next_cursor` back in to tail
    /// the trace; its `dropped` count reports ring overflow between
    /// polls.
    ///
    /// # Errors
    ///
    /// Propagates transport, protocol and server errors.
    pub fn events(&mut self, cursor: u64, max: u32) -> Result<EventBatch, Error> {
        wire::expect_events(self.roundtrip(&Request::Events { cursor, max })?)
    }

    /// Starts a streaming range scan: every key in `[start, end)` (an
    /// empty `end` means "to the end of the keyspace"), at most `limit`
    /// keys (`0` = unlimited). Returns a blocking iterator over the
    /// `(key, value)` pairs as the server streams them in bounded
    /// `BATCH_VALUES` chunks — the full result never materializes on
    /// either side.
    ///
    /// The stream borrows the client exclusively; dropping it early
    /// drains the remaining frames (up to a bounded budget) so the
    /// connection stays usable. Abandoning a scan with more than
    /// ~64 MiB still in flight closes the connection instead of
    /// blocking in the destructor — reconnect after that.
    ///
    /// # Errors
    ///
    /// Fails if the request cannot be sent; per-item errors surface
    /// through the iterator.
    pub fn scan(
        &mut self,
        start: impl IntoKey,
        end: impl IntoKey,
        limit: u32,
    ) -> Result<ScanStream<'_>, Error> {
        self.start_stream(&Request::Scan {
            start: wire_key(start),
            end: wire_key(end),
            limit,
        })
    }

    /// Streaming range scan at pinned snapshot `id` (`SNAP_SCAN`): the
    /// same chunked stream as [`KvClient::scan`], read at the cut the
    /// snapshot captured instead of the live store. An unknown/evicted
    /// handle ends the stream with a remote error on the first item.
    ///
    /// # Errors
    ///
    /// Fails if the request cannot be sent; per-item errors surface
    /// through the iterator.
    pub fn snap_scan(
        &mut self,
        id: u64,
        start: impl IntoKey,
        end: impl IntoKey,
        limit: u32,
    ) -> Result<ScanStream<'_>, Error> {
        self.start_stream(&Request::SnapScan {
            id,
            start: wire_key(start),
            end: wire_key(end),
            limit,
        })
    }

    /// Sends one streaming request and wraps the reply stream.
    fn start_stream(&mut self, request: &Request) -> Result<ScanStream<'_>, Error> {
        self.send(request)?;
        Ok(ScanStream {
            client: self,
            pending: Vec::new().into_iter(),
            batches: 0,
            keys: 0,
            finished: false,
        })
    }
}

/// The wire form of a key.
fn wire_key(key: impl IntoKey) -> Vec<u8> {
    key.into_key().to_vec()
}

/// A blocking iterator over one in-flight `SCAN` stream.
///
/// Produced by [`KvClient::scan`]. Yields pairs in ascending key order;
/// the first transport/protocol/server error ends the stream.
#[derive(Debug)]
pub struct ScanStream<'a> {
    client: &'a mut KvClient,
    pending: std::vec::IntoIter<(Vec<u8>, Vec<u8>)>,
    batches: u64,
    keys: u64,
    finished: bool,
}

impl ScanStream<'_> {
    /// `BATCH_VALUES` frames received so far (observability: proves a
    /// big scan arrived chunked, not as one giant frame).
    #[must_use]
    pub fn batches(&self) -> u64 {
        self.batches
    }

    /// Keys yielded so far.
    #[must_use]
    pub fn keys(&self) -> u64 {
        self.keys
    }

    /// Reads the next frame of the stream, refilling `pending`. Any
    /// outcome but a `BATCH_VALUES` frame finishes the stream.
    fn fill(&mut self) -> Result<(), Error> {
        let response = self.client.reply();
        if let Ok(Response::BatchValues(pairs)) = response {
            self.batches += 1;
            self.pending = pairs.into_iter();
            return Ok(());
        }
        self.finished = true;
        match response? {
            Response::ScanEnd => Ok(()),
            Response::Err(detail) => Err(Error::remote(detail)),
            other => Err(Error::protocol(format!(
                "unexpected response {other:?} inside a scan stream"
            ))),
        }
    }
}

impl Iterator for ScanStream<'_> {
    type Item = Result<(Vec<u8>, Vec<u8>), Error>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if let Some(pair) = self.pending.next() {
                self.keys += 1;
                return Some(Ok(pair));
            }
            if self.finished {
                return None;
            }
            if let Err(e) = self.fill() {
                return Some(Err(e));
            }
        }
    }
}

/// Most frames a dropped [`ScanStream`] will read to resynchronize the
/// connection (~64 MiB of residual stream at the chunk byte bound).
/// Past the budget the socket is shut down instead: blocking a
/// destructor for an arbitrarily large abandoned scan is worse than
/// making the caller reconnect.
const DROP_DRAIN_FRAME_BUDGET: u64 = 1024;

impl Drop for ScanStream<'_> {
    /// Drains the rest of the stream so an early-dropped scan leaves no
    /// stale frames to desynchronize the next request on this
    /// connection; a stream with more than [`DROP_DRAIN_FRAME_BUDGET`]
    /// residual frames closes the connection instead.
    fn drop(&mut self) {
        let mut drained = 0u64;
        while !self.finished {
            if drained >= DROP_DRAIN_FRAME_BUDGET {
                let _ = self.client.stream.shutdown(Shutdown::Both);
                break;
            }
            if self.fill().is_err() {
                break;
            }
            drained += 1;
        }
    }
}
