//! A pipelined (non-closed-loop) client: up to `W` requests in flight
//! on one connection.
//!
//! The closed-loop [`KvClient`](crate::KvClient) waits for every reply
//! before sending the next request, so each connection's throughput is
//! capped at `1 / round-trip`, and a benchmark built on it can never
//! actually saturate the server — the condition under which compaction
//! stalls matter. [`PipelinedClient`] removes that cap: every request
//! carries a sequence id (see [`protocol`](crate::protocol)) and a
//! dedicated reader thread matches each reply back to its request by
//! the id it echoes, so up to a configurable window `W` of requests ride
//! the connection concurrently. The server processes one connection's
//! requests in order, but it never idles waiting for the client's next
//! frame — the pipeline keeps its input buffer full.
//!
//! The submit path blocks (or reports "full", for open-loop callers
//! that shed instead of queueing) only when the window is exhausted,
//! which is exactly the moment the server is the bottleneck.
//!
//! `SCAN` / `SNAP_SCAN` ride the pipeline like any other request: each
//! `BATCH_VALUES` frame of the reply is handed out as its own
//! completion carrying the scan's id, and the scan keeps its window
//! slot until the frame that ends the stream (`SCAN_END` or `ERR`)
//! arrives. Replies come back in request order, so a scan's frames are
//! contiguous in the completion stream. The reader buffers frames as
//! they arrive: collect a large scan's completions as it streams.

use std::net::{Shutdown, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender, TryRecvError};
use std::sync::{mpsc, Arc, Condvar};
use std::thread::JoinHandle;
use std::time::Duration;

use parking_lot::Mutex;

use crate::protocol::{read_frame, write_frame, FrameRead, Request, Response, UNSOLICITED_SEQ};
use crate::Error;

/// How long a window-full [`PipelinedClient::submit`] waits between
/// re-checks of the connection-failure flag.
const SUBMIT_POLL: Duration = Duration::from_millis(50);

/// Per-completion timeout inside [`PipelinedClient::drain`]: a server
/// that goes silent this long with requests outstanding is treated as
/// lost rather than blocking the caller forever.
const DRAIN_STEP_TIMEOUT: Duration = Duration::from_secs(10);

/// A pipelined client over one TCP connection.
///
/// Submit requests with [`PipelinedClient::submit`] (blocking when the
/// window is full) or [`PipelinedClient::try_submit`] (reporting a full
/// window, for open-loop load generators that shed instead of queue);
/// collect `(sequence id, response frame)` completions with
/// [`PipelinedClient::try_completion`] /
/// [`PipelinedClient::wait_completion`] / [`PipelinedClient::drain`].
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use kv_service::{KvServer, PipelinedClient, Request, Response, ShardedKv};
/// use lsm_engine::LsmOptions;
///
/// # fn main() -> Result<(), kv_service::Error> {
/// let store = Arc::new(ShardedKv::open_in_memory(2, LsmOptions::default())?);
/// let handle = KvServer::bind(store, "127.0.0.1:0", 2)?.spawn();
/// let mut client = PipelinedClient::connect(handle.addr(), 8)?;
/// for i in 0u64..32 {
///     client.submit(&Request::Put {
///         key: i.to_be_bytes().to_vec(),
///         value: b"v".to_vec(),
///     })?;
/// }
/// let completions = client.drain()?;
/// assert_eq!(completions.len(), 32);
/// assert!(completions.iter().all(|(_, r)| *r == Response::Ok));
/// handle.shutdown();
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct PipelinedClient {
    writer: TcpStream,
    window: usize,
    next_seq: u64,
    /// Submitted requests whose last reply frame has not been handed
    /// out: exact, unlike the window count which decrements before the
    /// completion is buffered.
    outstanding: u64,
    shared: Arc<Shared>,
    completions: Receiver<(u64, Response)>,
    reader: Option<JoinHandle<()>>,
}

/// State shared between the submit path and the reader thread.
#[derive(Debug)]
struct Shared {
    /// Requests currently occupying a window slot.
    inflight: Mutex<usize>,
    slot_free: Condvar,
    /// Set by the reader when the connection dies; wakes blocked
    /// submitters.
    failed: AtomicBool,
    /// Set alongside `failed` when the death was the server's
    /// session-cap refusal (a `BUSY` frame answering no request):
    /// surfaced as [`Error::Busy`] so callers can tell "shed, retry
    /// later" from corruption.
    refused: AtomicBool,
}

impl PipelinedClient {
    /// Connects to a [`KvServer`](crate::KvServer) and allows up to
    /// `window` requests in flight (clamped to ≥ 1).
    ///
    /// # Errors
    ///
    /// Propagates connection failures.
    pub fn connect(addr: impl ToSocketAddrs, window: usize) -> Result<Self, Error> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        let reader_stream = writer.try_clone()?;
        let shared = Arc::new(Shared {
            inflight: Mutex::new(0),
            slot_free: Condvar::new(),
            failed: AtomicBool::new(false),
            refused: AtomicBool::new(false),
        });
        let (tx, rx) = mpsc::channel();
        let reader = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("kv-pipeline-reader".to_owned())
                .spawn(move || read_loop(reader_stream, &shared, &tx))
                .map_err(Error::Io)?
        };
        Ok(Self {
            writer,
            window: window.max(1),
            next_seq: UNSOLICITED_SEQ + 1,
            outstanding: 0,
            shared,
            completions: rx,
            reader: Some(reader),
        })
    }

    /// The configured window.
    #[must_use]
    pub fn window(&self) -> usize {
        self.window
    }

    /// Requests occupying a window slot right now.
    #[must_use]
    pub fn in_flight(&self) -> usize {
        *self.shared.inflight.lock()
    }

    /// Submitted requests whose reply has not yet been handed to the
    /// caller in full.
    #[must_use]
    pub fn outstanding(&self) -> u64 {
        self.outstanding
    }

    /// Submits `request`, blocking while the window is full. Returns
    /// the sequence id every completion answering it will carry.
    ///
    /// # Errors
    ///
    /// Fails if the connection has died or the request cannot be sent.
    pub fn submit(&mut self, request: &Request) -> Result<u64, Error> {
        self.claim_slot(true)?;
        self.send_claimed(request)
    }

    /// Non-blocking [`PipelinedClient::submit`]: returns `Ok(None)`
    /// when the window is full — the open-loop generator's shed signal.
    ///
    /// # Errors
    ///
    /// Same as [`PipelinedClient::submit`].
    pub fn try_submit(&mut self, request: &Request) -> Result<Option<u64>, Error> {
        if !self.claim_slot(false)? {
            return Ok(None);
        }
        self.send_claimed(request).map(Some)
    }

    /// Typed [`PipelinedClient::submit`]: `PUT key value`.
    ///
    /// # Errors
    ///
    /// Same as [`PipelinedClient::submit`].
    pub fn submit_put(&mut self, key: Vec<u8>, value: Vec<u8>) -> Result<u64, Error> {
        self.submit(&Request::Put { key, value })
    }

    /// Typed [`PipelinedClient::submit`]: `GET key`.
    ///
    /// # Errors
    ///
    /// Same as [`PipelinedClient::submit`].
    pub fn submit_get(&mut self, key: &[u8]) -> Result<u64, Error> {
        self.submit(&Request::Get { key: key.to_vec() })
    }

    /// Claims a window slot; with `block`, waits for one.
    fn claim_slot(&mut self, block: bool) -> Result<bool, Error> {
        let mut inflight = self.shared.inflight.lock();
        loop {
            if self.shared.failed.load(Ordering::SeqCst) {
                if self.shared.refused.load(Ordering::SeqCst) {
                    return Err(Error::Busy);
                }
                return Err(Error::protocol("pipelined connection lost"));
            }
            if *inflight < self.window {
                *inflight += 1;
                return Ok(true);
            }
            if !block {
                return Ok(false);
            }
            inflight = self
                .shared
                .slot_free
                .wait_timeout(inflight, SUBMIT_POLL)
                .unwrap_or_else(|e| e.into_inner())
                .0;
        }
    }

    /// Sends `request` on the slot just claimed, releasing the slot on
    /// failure.
    fn send_claimed(&mut self, request: &Request) -> Result<u64, Error> {
        let seq = self.next_seq;
        if let Err(e) = write_frame(&mut self.writer, &request.encode(seq)) {
            self.release_slot();
            return Err(e);
        }
        self.next_seq += 1;
        self.outstanding += 1;
        Ok(seq)
    }

    fn release_slot(&self) {
        let mut inflight = self.shared.inflight.lock();
        *inflight = inflight.saturating_sub(1);
        drop(inflight);
        self.shared.slot_free.notify_one();
    }

    /// Hands out one buffered completion, if any, without blocking.
    ///
    /// # Errors
    ///
    /// Fails if the connection died with requests still outstanding.
    pub fn try_completion(&mut self) -> Result<Option<(u64, Response)>, Error> {
        match self.completions.try_recv() {
            Ok(completion) => Ok(Some(self.hand_out(completion))),
            Err(TryRecvError::Empty) => Ok(None),
            Err(TryRecvError::Disconnected) => Err(self.lost()),
        }
    }

    /// Waits up to `timeout` for the next completion; `Ok(None)` on
    /// timeout.
    ///
    /// # Errors
    ///
    /// Fails if the connection died with requests still outstanding.
    pub fn wait_completion(&mut self, timeout: Duration) -> Result<Option<(u64, Response)>, Error> {
        match self.completions.recv_timeout(timeout) {
            Ok(completion) => Ok(Some(self.hand_out(completion))),
            Err(RecvTimeoutError::Timeout) => Ok(None),
            Err(RecvTimeoutError::Disconnected) => Err(self.lost()),
        }
    }

    /// Collects every outstanding completion (blocking), leaving the
    /// pipeline empty.
    ///
    /// # Errors
    ///
    /// Fails if the connection dies, or goes silent for
    /// [`DRAIN_STEP_TIMEOUT`] with requests still outstanding.
    pub fn drain(&mut self) -> Result<Vec<(u64, Response)>, Error> {
        let mut out = Vec::with_capacity(self.outstanding as usize);
        while self.outstanding > 0 {
            match self.wait_completion(DRAIN_STEP_TIMEOUT)? {
                Some(completion) => out.push(completion),
                None => return Err(Error::protocol("pipeline drain timed out")),
            }
        }
        Ok(out)
    }

    /// Accounts for a completion leaving the buffer: a request is done
    /// with the frame that ends its reply.
    fn hand_out(&mut self, completion: (u64, Response)) -> (u64, Response) {
        if ends_reply(&completion.1) {
            self.outstanding -= 1;
        }
        completion
    }

    fn lost(&self) -> Error {
        if self.shared.refused.load(Ordering::SeqCst) {
            return Error::Busy;
        }
        if self.outstanding > 0 {
            Error::protocol(format!(
                "pipelined connection lost with {} requests outstanding",
                self.outstanding
            ))
        } else {
            Error::protocol("pipelined connection lost")
        }
    }
}

impl Drop for PipelinedClient {
    fn drop(&mut self) {
        // Unblock and terminate the reader, then join it.
        let _ = self.writer.shutdown(Shutdown::Both);
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
    }
}

/// Whether `response` is the last frame of its request's reply.
/// `BATCH_VALUES` never is (a scan stream ends with `SCAN_END` or
/// `ERR`); every other frame always is.
fn ends_reply(response: &Response) -> bool {
    !matches!(response, Response::BatchValues(_))
}

/// The reader half: takes reply frames off the wire, frees a request's
/// window slot when its reply ends, and buffers completions for the
/// submit thread.
fn read_loop(mut stream: TcpStream, shared: &Shared, completions: &Sender<(u64, Response)>) {
    loop {
        let completion = match read_frame(&mut stream) {
            Ok(FrameRead::Idle) => continue,
            Ok(FrameRead::Eof) | Err(_) => None,
            Ok(FrameRead::Frame(payload)) => match Response::decode(&payload) {
                // A BUSY answering no request is the server's
                // session-cap refusal (sent before it read any request
                // of ours): the connection is dead, but the caller
                // should see "shed, retry later", not corruption.
                Ok((UNSOLICITED_SEQ, Response::Busy)) => {
                    shared.refused.store(true, Ordering::SeqCst);
                    None
                }
                // Any other frame answering no request means the two
                // sides disagree about what is in flight: the
                // connection is unusable.
                Ok((UNSOLICITED_SEQ, _)) | Err(_) => None,
                Ok(completion) => Some(completion),
            },
        };
        let Some(completion) = completion else {
            shared.failed.store(true, Ordering::SeqCst);
            shared.slot_free.notify_all();
            return;
        };
        if ends_reply(&completion.1) {
            {
                let mut inflight = shared.inflight.lock();
                *inflight = inflight.saturating_sub(1);
            }
            shared.slot_free.notify_one();
        }
        if completions.send(completion).is_err() {
            return; // client dropped
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{KvServer, ShardedKv};
    use lsm_engine::LsmOptions;
    use std::collections::HashMap;
    use std::sync::Arc;

    fn server() -> (crate::ServerHandle, Arc<ShardedKv>) {
        let store = Arc::new(
            ShardedKv::open_in_memory(2, LsmOptions::default().memtable_capacity(64).wal(false))
                .unwrap(),
        );
        let handle = KvServer::bind(Arc::clone(&store), "127.0.0.1:0", 2)
            .unwrap()
            .spawn();
        (handle, store)
    }

    #[test]
    fn pipelined_puts_and_gets_match_by_sequence_id() {
        let (handle, _store) = server();
        let mut client = PipelinedClient::connect(handle.addr(), 8).unwrap();
        assert_eq!(client.window(), 8);

        let mut expected: HashMap<u64, u64> = HashMap::new();
        for i in 0u64..100 {
            let seq = client
                .submit(&Request::Put {
                    key: i.to_be_bytes().to_vec(),
                    value: format!("v{i}").into_bytes(),
                })
                .unwrap();
            expected.insert(seq, i);
        }
        let completions = client.drain().unwrap();
        assert_eq!(completions.len(), 100);
        for (seq, response) in &completions {
            assert!(expected.contains_key(seq));
            assert_eq!(*response, Response::Ok);
        }
        assert_eq!(client.in_flight(), 0);
        assert_eq!(client.outstanding(), 0);

        // Pipelined reads: every reply must carry the value of the key
        // its sequence id was issued for.
        let mut keys_by_seq: HashMap<u64, u64> = HashMap::new();
        for i in 0u64..100 {
            let seq = client
                .submit(&Request::Get {
                    key: i.to_be_bytes().to_vec(),
                })
                .unwrap();
            keys_by_seq.insert(seq, i);
        }
        let completions = client.drain().unwrap();
        assert_eq!(completions.len(), 100);
        for (seq, response) in completions {
            let key = keys_by_seq[&seq];
            assert_eq!(
                response,
                Response::Value(format!("v{key}").into_bytes()),
                "reply for seq {seq} must be key {key}'s value"
            );
        }
        handle.shutdown();
    }

    #[test]
    fn try_submit_reports_a_full_window_instead_of_blocking() {
        let (handle, _store) = server();
        let mut client = PipelinedClient::connect(handle.addr(), 2).unwrap();
        // Fill the window faster than the server can possibly drain it
        // is racy; instead check the invariant directly: claim both
        // slots, then try_submit must refuse while neither completed.
        let a = client
            .try_submit(&Request::Put {
                key: b"a".to_vec(),
                value: b"1".to_vec(),
            })
            .unwrap();
        assert!(a.is_some());
        let b = client
            .try_submit(&Request::Put {
                key: b"b".to_vec(),
                value: b"2".to_vec(),
            })
            .unwrap();
        assert!(b.is_some());
        // The window may already have drained (fast server) — only
        // assert refusal if both are still in flight.
        if client.in_flight() >= 2 {
            assert!(client
                .try_submit(&Request::Put {
                    key: b"c".to_vec(),
                    value: b"3".to_vec(),
                })
                .unwrap()
                .is_none());
        }
        client.drain().unwrap();
        handle.shutdown();
    }

    /// Against a scripted peer, so the stream can be held open between
    /// frames: a scan keeps its window slot and stays outstanding
    /// through every `BATCH_VALUES` frame and gives both up exactly at
    /// the frame that ends the stream.
    #[test]
    fn scan_holds_its_slot_until_the_stream_ends() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = PipelinedClient::connect(listener.local_addr().unwrap(), 1).unwrap();
        let (mut peer, _) = listener.accept().unwrap();
        let scan = Request::Scan {
            start: Vec::new(),
            end: Vec::new(),
            limit: 0,
        };
        let seq = client.submit(&scan).unwrap();
        assert_eq!(seq, 1, "clients number their requests from 1");
        match read_frame(&mut peer).unwrap() {
            FrameRead::Frame(payload) => {
                assert_eq!(Request::decode(&payload).unwrap(), (seq, scan.clone()));
            }
            other => panic!("expected the scan request, got {other:?}"),
        }

        let chunk = Response::BatchValues(vec![(b"k".to_vec(), b"v".to_vec())]);
        for _ in 0..3 {
            write_frame(&mut peer, &chunk.encode(seq)).unwrap();
            let got = client.wait_completion(Duration::from_secs(10)).unwrap();
            assert_eq!(got, Some((seq, chunk.clone())));
            assert_eq!(client.in_flight(), 1, "BATCH_VALUES must not free the slot");
            assert_eq!(client.outstanding(), 1);
            assert_eq!(
                client.try_submit(&scan).unwrap(),
                None,
                "window of 1 is full"
            );
        }
        write_frame(&mut peer, &Response::ScanEnd.encode(seq)).unwrap();
        let got = client.wait_completion(Duration::from_secs(10)).unwrap();
        assert_eq!(got, Some((seq, Response::ScanEnd)));
        // The reader frees the slot before it buffers the completion.
        assert_eq!(client.in_flight(), 0);
        assert_eq!(client.outstanding(), 0);
        assert_eq!(client.try_submit(&scan).unwrap(), Some(seq + 1));
    }

    #[test]
    fn session_cap_refusal_surfaces_as_busy_not_corruption() {
        use std::time::Instant;
        let store =
            Arc::new(ShardedKv::open_in_memory(1, LsmOptions::default().wal(false)).unwrap());
        let handle = crate::KvServer::bind_with(
            Arc::clone(&store),
            "127.0.0.1:0",
            crate::ServerOptions::default().workers(1).max_sessions(1),
        )
        .unwrap()
        .spawn();
        // Occupy the single session (round-trip proves it is serving).
        let mut held = crate::KvClient::connect(handle.addr()).unwrap();
        held.put(1, b"v".to_vec()).unwrap();

        // The pipelined client's connection is refused with a BUSY
        // that answers no request; the reader must latch that as
        // "shed", not as protocol corruption.
        let mut refused = PipelinedClient::connect(handle.addr(), 4).unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            match refused.try_completion() {
                Ok(None) => {
                    assert!(Instant::now() < deadline, "refusal never observed");
                    std::thread::sleep(Duration::from_millis(1));
                }
                Err(Error::Busy) => break,
                other => panic!("expected Busy, got {other:?}"),
            }
        }
        // Submits on the refused connection report Busy too.
        match refused.submit(&Request::Put {
            key: b"k".to_vec(),
            value: b"v".to_vec(),
        }) {
            Err(Error::Busy) => {}
            other => panic!("expected Busy from submit, got {other:?}"),
        }
        handle.shutdown();
    }

    #[test]
    fn server_death_unblocks_the_pipeline() {
        let (handle, _store) = server();
        let mut client = PipelinedClient::connect(handle.addr(), 4).unwrap();
        client
            .submit(&Request::Put {
                key: b"k".to_vec(),
                value: b"v".to_vec(),
            })
            .unwrap();
        client.drain().unwrap();
        handle.shutdown();
        // Submits eventually fail instead of hanging forever.
        let mut failed = false;
        for i in 0u64..1_000 {
            let put = Request::Put {
                key: i.to_be_bytes().to_vec(),
                value: b"v".to_vec(),
            };
            if client.submit(&put).is_err() {
                failed = true;
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(failed, "submits must fail after the server is gone");
    }
}
