//! Request construction and response interpretation shared by the
//! clients.
//!
//! The closed-loop [`KvClient`](crate::KvClient) and the pipelined
//! [`PipelinedClient`](crate::PipelinedClient) speak the same frames;
//! before this module each built its `Request` values and unpacked its
//! `Response`s inline, and the two copies had started to drift (error
//! mapping, integer-key conventions). The builders and interpreters
//! here are the single source of truth — the clients differ only in
//! *transport*: one frame in flight versus a sequenced window.
//!
//! Everything is `pub(crate)`: the wire vocabulary itself stays in
//! [`protocol`](crate::protocol); this module is only the shared
//! client-side grammar over it.

use crate::protocol::{EventBatch, Request, Response};
use crate::Error;
use obs::MetricsSnapshot;

// ---------------------------------------------------------------------
// Request builders.
// ---------------------------------------------------------------------

/// `GET key`.
pub(crate) fn get(key: &[u8]) -> Request {
    Request::Get { key: key.to_vec() }
}

/// `PUT key value`.
pub(crate) fn put(key: Vec<u8>, value: Vec<u8>) -> Request {
    Request::Put { key, value }
}

/// `DEL key`.
pub(crate) fn delete(key: Vec<u8>) -> Request {
    Request::Delete { key }
}

/// `DELRANGE [start, end)`.
pub(crate) fn delete_range(start: Vec<u8>, end: Vec<u8>) -> Request {
    Request::DeleteRange { start, end }
}

/// `SCAN [start, end) limit` (empty `end` = to the end of the
/// keyspace, `limit` 0 = unlimited).
pub(crate) fn scan(start: Vec<u8>, end: Vec<u8>, limit: u32) -> Request {
    Request::Scan { start, end, limit }
}

/// `SNAP_GET id key`.
pub(crate) fn snap_get(id: u64, key: &[u8]) -> Request {
    Request::SnapGet {
        id,
        key: key.to_vec(),
    }
}

/// `SNAP_SCAN id [start, end) limit`.
pub(crate) fn snap_scan(id: u64, start: Vec<u8>, end: Vec<u8>, limit: u32) -> Request {
    Request::SnapScan {
        id,
        start,
        end,
        limit,
    }
}

/// Big-endian integer key encoding — the one convention both clients
/// (and the engine's `key_from_u64`) share.
pub(crate) fn u64_key(key: u64) -> Vec<u8> {
    key.to_be_bytes().to_vec()
}

// ---------------------------------------------------------------------
// Response interpreters.
// ---------------------------------------------------------------------

/// Maps the failure responses every request can produce: `BUSY` is the
/// admission/session shed signal, `ERR` a server-reported failure, and
/// anything else a protocol-level surprise.
fn fail(other: Response) -> Error {
    match other {
        Response::Busy => Error::Busy,
        Response::Err(detail) => Error::remote(detail),
        other => Error::protocol(format!("unexpected response {other:?}")),
    }
}

/// Interprets a write acknowledgement: `OK` or a failure.
pub(crate) fn expect_ok(response: Response) -> Result<(), Error> {
    match response {
        Response::Ok => Ok(()),
        other => Err(fail(other)),
    }
}

/// Interprets a point-read reply: `VALUE`, `NOT_FOUND`, or a failure.
pub(crate) fn expect_value(response: Response) -> Result<Option<Vec<u8>>, Error> {
    match response {
        Response::Value(value) => Ok(Some(value)),
        Response::NotFound => Ok(None),
        other => Err(fail(other)),
    }
}

/// Interprets a `SNAP_CREATE` reply: the handle id or a failure.
pub(crate) fn expect_snapshot(response: Response) -> Result<u64, Error> {
    match response {
        Response::Snapshot(id) => Ok(id),
        other => Err(fail(other)),
    }
}

/// Interprets a `METRICS` reply.
pub(crate) fn expect_metrics(response: Response) -> Result<MetricsSnapshot, Error> {
    match response {
        Response::Metrics(snapshot) => Ok(snapshot),
        other => Err(fail(other)),
    }
}

/// Interprets an `EVENTS` reply.
pub(crate) fn expect_events(response: Response) -> Result<EventBatch, Error> {
    match response {
        Response::Events(batch) => Ok(batch),
        other => Err(fail(other)),
    }
}

/// Whether `request` is answered by a multi-frame stream rather than a
/// single response — such requests cannot ride a sequenced pipeline and
/// must run closed-loop.
pub(crate) fn is_streaming(request: &Request) -> bool {
    matches!(
        request,
        Request::Scan { .. } | Request::SnapScan { .. }
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interpreters_map_shared_failure_responses() {
        assert!(matches!(expect_ok(Response::Ok), Ok(())));
        assert!(matches!(expect_ok(Response::Busy), Err(Error::Busy)));
        assert!(matches!(
            expect_value(Response::Err("boom".to_owned())),
            Err(Error::Remote { detail }) if detail == "boom"
        ));
        assert_eq!(expect_value(Response::NotFound).unwrap(), None);
        assert_eq!(
            expect_value(Response::Value(b"v".to_vec())).unwrap(),
            Some(b"v".to_vec())
        );
        assert_eq!(expect_snapshot(Response::Snapshot(9)).unwrap(), 9);
        assert!(expect_snapshot(Response::Ok).is_err());
    }

    #[test]
    fn streaming_requests_are_exactly_the_scans() {
        assert!(is_streaming(&scan(Vec::new(), Vec::new(), 0)));
        assert!(is_streaming(&snap_scan(1, Vec::new(), Vec::new(), 0)));
        assert!(!is_streaming(&get(b"k")));
        assert!(!is_streaming(&delete_range(b"a".to_vec(), b"z".to_vec())));
        assert!(!is_streaming(&Request::SnapCreate));
    }

    #[test]
    fn u64_keys_are_big_endian() {
        assert_eq!(u64_key(1), vec![0, 0, 0, 0, 0, 0, 0, 1]);
        assert_eq!(u64_key(u64::MAX), vec![0xFF; 8]);
    }
}
