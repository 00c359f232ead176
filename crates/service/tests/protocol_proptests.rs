//! Property-based tests of the one wire framing, `tag | seq | body`:
//! every request and response round-trips with its sequence id, every
//! strict prefix (a torn frame) is rejected, a flipped bit either fails
//! to decode or decodes to a well-formed value, hostile element counts
//! are errors rather than allocations, and a server answers a payload
//! too short to carry an id with `ERR` under sequence id 0.

use std::net::TcpStream;
use std::sync::Arc;

use kv_service::protocol::{read_frame, write_frame, FrameRead};
use kv_service::{EventBatch, KvServer, Request, Response, ShardedKv, WireEvent, WireOp};
use lsm_engine::LsmOptions;
use obs::{HistogramSnapshot, MetricsSnapshot};
use proptest::prelude::*;

fn arb_bytes(max_len: usize) -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(any::<u8>(), 0..max_len)
}

/// Short lowercase metric / event / field names.
fn arb_name() -> impl Strategy<Value = String> {
    proptest::collection::vec(0u8..27, 1..16).prop_map(|v| {
        v.into_iter()
            .map(|b| if b == 26 { '_' } else { (b'a' + b) as char })
            .collect()
    })
}

/// Histograms via the canonical sparse constructor, so round-trip
/// equality is exact.
fn arb_histogram() -> impl Strategy<Value = HistogramSnapshot> {
    (
        proptest::collection::vec((0u8..64, any::<u64>()), 0..8),
        any::<u64>(),
    )
        .prop_map(|(pairs, sum)| HistogramSnapshot::from_sparse(&pairs, sum))
}

fn arb_metrics() -> impl Strategy<Value = MetricsSnapshot> {
    (
        proptest::collection::vec((arb_name(), any::<u64>()), 0..8),
        proptest::collection::vec((arb_name(), arb_histogram()), 0..4),
    )
        .prop_map(|(counters, histograms)| MetricsSnapshot {
            counters,
            histograms,
        })
}

fn arb_event_batch() -> impl Strategy<Value = EventBatch> {
    (
        any::<u64>(),
        any::<u64>(),
        proptest::collection::vec(
            (
                any::<u64>(),
                any::<u64>(),
                any::<u32>(),
                arb_name(),
                proptest::collection::vec((arb_name(), any::<u64>()), 0..5),
            ),
            0..6,
        ),
    )
        .prop_map(|(next_cursor, dropped, events)| EventBatch {
            next_cursor,
            dropped,
            events: events
                .into_iter()
                .map(|(seq, at_micros, shard, kind, fields)| WireEvent {
                    seq,
                    at_micros,
                    shard,
                    kind,
                    fields,
                })
                .collect(),
        })
}

fn arb_wire_op() -> impl Strategy<Value = WireOp> {
    (arb_bytes(16), arb_bytes(24), 0u8..2).prop_map(|(key, value, kind)| {
        if kind == 1 {
            WireOp::delete(key)
        } else {
            WireOp::put(key, value)
        }
    })
}

/// Every request variant, empty keys and bounds included.
fn arb_request() -> impl Strategy<Value = Request> {
    let key = || arb_bytes(32);
    prop_oneof![
        key().prop_map(|key| Request::Get { key }),
        (key(), arb_bytes(48)).prop_map(|(key, value)| Request::Put { key, value }),
        key().prop_map(|key| Request::Delete { key }),
        proptest::collection::vec(arb_wire_op(), 0..6).prop_map(|ops| Request::Batch { ops }),
        (key(), key(), any::<u32>()).prop_map(|(start, end, limit)| Request::Scan {
            start,
            end,
            limit
        }),
        Just(Request::Metrics),
        (any::<u64>(), any::<u32>()).prop_map(|(cursor, max)| Request::Events { cursor, max }),
        (key(), key()).prop_map(|(start, end)| Request::DeleteRange { start, end }),
        Just(Request::SnapCreate),
        any::<u64>().prop_map(|id| Request::SnapRelease { id }),
        (any::<u64>(), key()).prop_map(|(id, key)| Request::SnapGet { id, key }),
        (any::<u64>(), key(), key(), any::<u32>()).prop_map(|(id, start, end, limit)| {
            Request::SnapScan {
                id,
                start,
                end,
                limit,
            }
        }),
    ]
}

/// Every response variant.
fn arb_response() -> impl Strategy<Value = Response> {
    prop_oneof![
        Just(Response::Ok),
        arb_bytes(48).prop_map(Response::Value),
        Just(Response::NotFound),
        proptest::collection::vec((arb_bytes(16), arb_bytes(24)), 0..8)
            .prop_map(Response::BatchValues),
        Just(Response::ScanEnd),
        Just(Response::Busy),
        arb_name().prop_map(Response::Err),
        arb_metrics().prop_map(Response::Metrics),
        arb_event_batch().prop_map(Response::Events),
        any::<u64>().prop_map(Response::Snapshot),
    ]
}

/// Every payload obtained from `payload` by flipping one bit.
fn single_bit_flips(payload: &[u8]) -> impl Iterator<Item = Vec<u8>> + '_ {
    (0..payload.len() * 8).map(|bit| {
        let mut flipped = payload.to_vec();
        flipped[bit / 8] ^= 1 << (bit % 8);
        flipped
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// (a) Every request round-trips with an arbitrary sequence id, and
    /// every strict prefix or extension of its payload is rejected —
    /// never a silent truncation to fewer ops or a shorter key.
    #[test]
    fn requests_roundtrip_and_tear_safely(
        request in arb_request(),
        seq in any::<u64>(),
        junk in proptest::collection::vec(any::<u8>(), 1..8),
    ) {
        let encoded = request.encode(seq);
        prop_assert_eq!(Request::decode(&encoded).unwrap(), (seq, request));
        for cut in 0..encoded.len() {
            prop_assert!(
                Request::decode(&encoded[..cut]).is_err(),
                "prefix of {} / {} bytes decoded", cut, encoded.len()
            );
        }
        let mut long = encoded;
        long.extend_from_slice(&junk);
        prop_assert!(Request::decode(&long).is_err());
    }

    /// (a) The same for every response.
    #[test]
    fn responses_roundtrip_and_tear_safely(
        response in arb_response(),
        seq in any::<u64>(),
        junk in proptest::collection::vec(any::<u8>(), 1..8),
    ) {
        let encoded = response.encode(seq);
        prop_assert_eq!(Response::decode(&encoded).unwrap(), (seq, response));
        for cut in 0..encoded.len() {
            prop_assert!(
                Response::decode(&encoded[..cut]).is_err(),
                "prefix of {} / {} bytes decoded", cut, encoded.len()
            );
        }
        let mut long = encoded;
        long.extend_from_slice(&junk);
        prop_assert!(Response::decode(&long).is_err());
    }

    /// (b) Flipping any single bit of a valid payload never panics a
    /// decoder; whatever still decodes is a well-formed value — its
    /// canonical re-encoding decodes back to itself. A flip in a count
    /// or length field must hit a truncation check or the element cap.
    #[test]
    fn single_bit_flips_never_panic(
        request in arb_request(),
        response in arb_response(),
        seq in any::<u64>(),
    ) {
        for flipped in single_bit_flips(&request.encode(seq)) {
            if let Ok((seq, decoded)) = Request::decode(&flipped) {
                prop_assert_eq!(Request::decode(&decoded.encode(seq)).unwrap(), (seq, decoded));
            }
        }
        for flipped in single_bit_flips(&response.encode(seq)) {
            if let Ok((seq, decoded)) = Response::decode(&flipped) {
                prop_assert_eq!(Response::decode(&decoded.encode(seq)).unwrap(), (seq, decoded));
            }
        }
    }

    /// (b) Random byte soup never panics a decoder either, and what it
    /// accepts is well-formed in the same sense.
    #[test]
    fn random_bytes_decode_safely(payload in arb_bytes(64)) {
        if let Ok((seq, request)) = Request::decode(&payload) {
            prop_assert_eq!(Request::decode(&request.encode(seq)).unwrap(), (seq, request));
        }
        if let Ok((seq, response)) = Response::decode(&payload) {
            prop_assert_eq!(Response::decode(&response.encode(seq)).unwrap(), (seq, response));
        }
    }

    /// (c) The tag byte is an opcode or a status and nothing else: a
    /// valid payload whose tag gains the high bit is an unknown
    /// opcode/status, whatever body follows.
    #[test]
    fn high_bit_tags_are_unknown(
        request in arb_request(),
        response in arb_response(),
        seq in any::<u64>(),
    ) {
        let mut payload = request.encode(seq);
        payload[0] |= 0x80;
        let err = Request::decode(&payload).unwrap_err();
        prop_assert!(err.to_string().contains("unknown opcode"), "{}", err);

        let mut payload = response.encode(seq);
        payload[0] |= 0x80;
        let err = Response::decode(&payload).unwrap_err();
        prop_assert!(err.to_string().contains("unknown status"), "{}", err);
    }
}

/// (b) A count field claiming `u32::MAX` elements over a near-empty
/// body is a decode error: no decoder sizes an allocation by a count it
/// has not checked against the bytes actually present.
#[test]
fn hostile_counts_are_errors_not_allocations() {
    let seq = 7;
    let hostile = |payload: Vec<u8>, count_at: usize| {
        let mut payload = payload;
        payload[count_at..count_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        payload
    };
    // The first count of each counted frame sits right after the
    // 9-byte header (EVENTS carries two u64s before it).
    let batch = Request::Batch {
        ops: vec![WireOp::put(b"k".to_vec(), b"v".to_vec())],
    };
    assert!(Request::decode(&hostile(batch.encode(seq), 9)).is_err());
    let values = Response::BatchValues(vec![(b"k".to_vec(), b"v".to_vec())]);
    assert!(Response::decode(&hostile(values.encode(seq), 9)).is_err());
    let metrics = Response::Metrics(MetricsSnapshot {
        counters: vec![("stats_puts".to_owned(), 1)],
        histograms: Vec::new(),
    });
    assert!(Response::decode(&hostile(metrics.encode(seq), 9)).is_err());
    let events = Response::Events(EventBatch::default());
    assert!(Response::decode(&hostile(events.encode(seq), 9 + 16)).is_err());
    // A byte-string length prefix gets the same treatment.
    let get = Request::Get { key: b"k".to_vec() };
    assert!(Request::decode(&hostile(get.encode(seq), 9)).is_err());
}

/// (c) No two variants share a tag, and the reserved opcode 5 /
/// status 3 decode as errors, bare or with a body behind them.
#[test]
fn tags_are_distinct_and_reserved_ones_stay_unassigned() {
    let requests = [
        Request::Get { key: Vec::new() },
        Request::Put {
            key: Vec::new(),
            value: Vec::new(),
        },
        Request::Delete { key: Vec::new() },
        Request::Batch { ops: Vec::new() },
        Request::Scan {
            start: Vec::new(),
            end: Vec::new(),
            limit: 0,
        },
        Request::Metrics,
        Request::Events { cursor: 0, max: 0 },
        Request::DeleteRange {
            start: Vec::new(),
            end: Vec::new(),
        },
        Request::SnapCreate,
        Request::SnapRelease { id: 0 },
        Request::SnapGet {
            id: 0,
            key: Vec::new(),
        },
        Request::SnapScan {
            id: 0,
            start: Vec::new(),
            end: Vec::new(),
            limit: 0,
        },
    ];
    let mut tags: Vec<u8> = requests.iter().map(|r| r.encode(1)[0]).collect();
    tags.sort_unstable();
    tags.dedup();
    assert_eq!(tags.len(), requests.len());
    assert!(!tags.contains(&5));

    let responses = [
        Response::Ok,
        Response::Value(Vec::new()),
        Response::NotFound,
        Response::Busy,
        Response::BatchValues(Vec::new()),
        Response::ScanEnd,
        Response::Err(String::new()),
        Response::Snapshot(0),
        Response::Metrics(MetricsSnapshot::default()),
        Response::Events(EventBatch::default()),
    ];
    let mut tags: Vec<u8> = responses.iter().map(|r| r.encode(1)[0]).collect();
    tags.sort_unstable();
    tags.dedup();
    assert_eq!(tags.len(), responses.len());
    assert!(!tags.contains(&3));

    for body_len in [0usize, 8, 29 * 8] {
        let mut payload = vec![0u8; 9 + body_len];
        payload[0] = 5;
        assert!(Request::decode(&payload).is_err());
        payload[0] = 3;
        assert!(Response::decode(&payload).is_err());
    }
}

/// (d) A payload too short to carry a sequence id is answered `ERR`
/// under id 0, a longer malformed one under the id it carried, and the
/// connection serves the next well-formed request either way.
#[test]
fn short_payloads_get_err_with_seq_zero_and_the_connection_survives() {
    let store = Arc::new(ShardedKv::open_in_memory(1, LsmOptions::default().wal(false)).unwrap());
    let handle = KvServer::bind(store, "127.0.0.1:0", 1).unwrap().spawn();
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    let mut exchange = |payload: &[u8]| {
        write_frame(&mut stream, payload).unwrap();
        match read_frame(&mut stream).unwrap() {
            FrameRead::Frame(reply) => Response::decode(&reply).unwrap(),
            other => panic!("expected a reply frame, got {other:?}"),
        }
    };

    let put = Request::Put {
        key: b"k".to_vec(),
        value: b"v".to_vec(),
    };
    for len in 0..9 {
        let reply = exchange(&put.encode(41)[..len]);
        assert!(
            matches!(reply, (0, Response::Err(_))),
            "a {len}-byte payload was answered {reply:?}"
        );
    }
    // Header intact, body torn: the ERR is matched to the request.
    let reply = exchange(&put.encode(42)[..12]);
    assert!(matches!(reply, (42, Response::Err(_))), "{reply:?}");

    assert_eq!(exchange(&put.encode(43)), (43, Response::Ok));
    let get = Request::Get { key: b"k".to_vec() };
    assert_eq!(
        exchange(&get.encode(44)),
        (44, Response::Value(b"v".to_vec()))
    );
    handle.shutdown();
}
