//! Response interpretation behind [`KvClient`](crate::KvClient)'s typed
//! methods: the single mapping from a reply frame to a `Result`
//! (`BUSY` → [`Error::Busy`], `ERR` → [`Error::Remote`], anything
//! unexpected → a protocol error).

use crate::protocol::{EventBatch, Response};
use crate::Error;
use obs::MetricsSnapshot;

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
}
