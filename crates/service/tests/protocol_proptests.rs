//! Property-based wire-protocol tests, centered on the scan and
//! introspection frames: every structurally valid `SCAN` /
//! `BATCH_VALUES` / `SCAN_END` / `METRICS` / `EVENTS` message
//! round-trips byte-exactly, every strict prefix (a torn frame) is
//! rejected, and random garbage never decodes to the wrong thing or
//! panics.

use kv_service::{EventBatch, Request, Response, WireEvent, WireOp};
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// SCAN requests round-trip for arbitrary start/end/limit, including
    /// empty keys (the "unbounded" encoding).
    #[test]
    fn scan_request_roundtrips(
        start in arb_bytes(48),
        end in arb_bytes(48),
        limit in any::<u32>(),
    ) {
        let request = Request::Scan { start, end, limit };
        prop_assert_eq!(Request::decode(&request.encode()).unwrap(), request);
    }

    /// BATCH_VALUES frames round-trip for arbitrary pair sets, and
    /// SCAN_END (no payload) stays stable alongside them.
    #[test]
    fn batch_values_roundtrips(
        pairs in proptest::collection::vec((arb_bytes(32), arb_bytes(64)), 0..24),
    ) {
        let response = Response::BatchValues(pairs);
        prop_assert_eq!(Response::decode(&response.encode()).unwrap(), response);
        prop_assert_eq!(
            Response::decode(&Response::ScanEnd.encode()).unwrap(),
            Response::ScanEnd
        );
    }

    /// Torn frames: every strict prefix of a valid SCAN request or
    /// BATCH_VALUES response is a decode error, never a silent
    /// truncation to fewer pairs.
    #[test]
    fn torn_scan_frames_are_rejected(
        start in arb_bytes(24),
        end in arb_bytes(24),
        limit in any::<u32>(),
        pairs in proptest::collection::vec((arb_bytes(16), arb_bytes(24)), 1..8),
        cut_seed in any::<u32>(),
    ) {
        let request = Request::Scan { start, end, limit }.encode();
        let cut = cut_seed as usize % request.len();
        prop_assert!(
            Request::decode(&request[..cut]).is_err(),
            "request prefix of {} / {} bytes decoded",
            cut,
            request.len()
        );

        let response = Response::BatchValues(pairs).encode();
        let cut = cut_seed as usize % response.len();
        prop_assert!(
            Response::decode(&response[..cut]).is_err(),
            "response prefix of {} / {} bytes decoded",
            cut,
            response.len()
        );
    }

    /// Valid frames with trailing garbage are rejected (the decoder
    /// must consume the payload exactly).
    #[test]
    fn trailing_garbage_is_rejected(
        start in arb_bytes(16),
        junk in proptest::collection::vec(any::<u8>(), 1..8),
    ) {
        let mut request = Request::Scan { start, end: Vec::new(), limit: 1 }.encode();
        request.extend_from_slice(&junk);
        prop_assert!(Request::decode(&request).is_err());

        let mut response = Response::ScanEnd.encode();
        response.extend_from_slice(&junk);
        prop_assert!(Response::decode(&response).is_err());
    }

    /// Random byte soup never panics a decoder: whatever decodes is a
    /// stable value (its canonical re-encoding decodes back to itself).
    #[test]
    fn random_bytes_decode_safely(payload in arb_bytes(64)) {
        if let Ok(request) = Request::decode(&payload) {
            prop_assert_eq!(Request::decode(&request.encode()).unwrap(), request);
        }
        if let Ok(response) = Response::decode(&payload) {
            prop_assert_eq!(Response::decode(&response.encode()).unwrap(), response);
        }
        // The dual-framing decoders survive the same soup, and whatever
        // they accept round-trips with its sequence id intact.
        if let Ok((seq, request)) = Request::decode_any(&payload) {
            let reencoded = match seq {
                None => request.encode(),
                Some(seq) => request.encode_sequenced(seq),
            };
            prop_assert_eq!(reencoded, payload.clone());
        }
        if let Ok((seq, response)) = Response::decode_any(&payload) {
            let reencoded = match seq {
                None => response.encode(),
                Some(seq) => response.encode_sequenced(seq),
            };
            prop_assert_eq!(reencoded, payload.clone());
        }
    }

    /// The MVCC frames — DELRANGE and the SNAP_* family — round-trip
    /// for arbitrary bounds, keys, ids and limits (empty bounds
    /// included), and every strict prefix is rejected, in both the
    /// legacy and the sequenced framing.
    #[test]
    fn mvcc_frames_roundtrip_and_tear_safely(
        start in arb_bytes(32),
        end in arb_bytes(32),
        key in arb_bytes(32),
        id in any::<u64>(),
        limit in any::<u32>(),
        seq in any::<u64>(),
        cut_seed in any::<u32>(),
    ) {
        let requests = [
            Request::DeleteRange { start: start.clone(), end: end.clone() },
            Request::SnapCreate,
            Request::SnapRelease { id },
            Request::SnapGet { id, key },
            Request::SnapScan { id, start, end, limit },
        ];
        for request in requests {
            let encoded = request.encode();
            prop_assert_eq!(&Request::decode(&encoded).unwrap(), &request);
            let cut = cut_seed as usize % encoded.len();
            prop_assert!(
                Request::decode(&encoded[..cut]).is_err(),
                "{:?} prefix of {} / {} bytes decoded",
                request,
                cut,
                encoded.len()
            );
            let sequenced = request.encode_sequenced(seq);
            let (got_seq, decoded) = Request::decode_any(&sequenced).unwrap();
            prop_assert_eq!(got_seq, Some(seq));
            prop_assert_eq!(&decoded, &request);
        }

        let response = Response::Snapshot(id);
        let encoded = response.encode();
        prop_assert_eq!(&Response::decode(&encoded).unwrap(), &response);
        let cut = cut_seed as usize % encoded.len();
        prop_assert!(Response::decode(&encoded[..cut]).is_err());
    }

    /// Sequenced frames round-trip for arbitrary ids and bodies, the
    /// legacy decoder rejects them, and every strict prefix (torn
    /// frame) is rejected — the id is length-checked like everything
    /// else.
    #[test]
    fn sequenced_frames_roundtrip_and_tear_safely(
        seq in any::<u64>(),
        key in arb_bytes(32),
        value in arb_bytes(48),
        cut_seed in any::<u32>(),
    ) {
        let request = Request::Put { key, value };
        let encoded = request.encode_sequenced(seq);
        let (got_seq, decoded) = Request::decode_any(&encoded).unwrap();
        prop_assert_eq!(got_seq, Some(seq));
        prop_assert_eq!(&decoded, &request);
        prop_assert!(Request::decode(&encoded).is_err());
        let cut = cut_seed as usize % encoded.len();
        prop_assert!(
            Request::decode_any(&encoded[..cut]).is_err(),
            "sequenced request prefix of {} / {} bytes decoded",
            cut,
            encoded.len()
        );

        // The same holds for every sequenced response shape, BUSY
        // included (the overload reply must survive the same torture).
        for response in [
            Response::Ok,
            Response::Busy,
            Response::Value(b"v".to_vec()),
            Response::NotFound,
            Response::Err("shed".to_owned()),
        ] {
            let encoded = response.encode_sequenced(seq);
            let (got_seq, decoded) = Response::decode_any(&encoded).unwrap();
            prop_assert_eq!(got_seq, Some(seq));
            prop_assert_eq!(&decoded, &response);
            prop_assert!(Response::decode(&encoded).is_err());
            let cut = cut_seed as usize % encoded.len();
            prop_assert!(
                Response::decode_any(&encoded[..cut]).is_err(),
                "sequenced response prefix of {} bytes decoded",
                cut
            );
        }
    }

    /// Corrupting a single byte of a sequenced frame never panics
    /// either decoder; if it still decodes, only the id and/or content
    /// bytes moved (the re-encoding reproduces the corrupted frame).
    #[test]
    fn sequenced_single_byte_corruption_never_panics(
        seq in any::<u64>(),
        key in arb_bytes(16),
        pos_seed in any::<u32>(),
        flip in 1u8..=255,
    ) {
        let mut encoded = Request::Get { key }.encode_sequenced(seq);
        let pos = pos_seed as usize % encoded.len();
        encoded[pos] ^= flip;
        if let Ok((got_seq, decoded)) = Request::decode_any(&encoded) {
            let reencoded = match got_seq {
                None => decoded.encode(),
                Some(s) => decoded.encode_sequenced(s),
            };
            prop_assert_eq!(reencoded, encoded);
        }
    }

    /// METRICS frames round-trip for arbitrary named counters and
    /// sparse histograms, and every strict prefix (a torn frame) is a
    /// decode error — never a silently truncated metric set.
    #[test]
    fn metrics_frames_roundtrip_and_tear_safely(
        snapshot in arb_metrics(),
        cut_seed in any::<u32>(),
    ) {
        let response = Response::Metrics(snapshot);
        let encoded = response.encode();
        prop_assert_eq!(&Response::decode(&encoded).unwrap(), &response);
        let cut = cut_seed as usize % encoded.len();
        prop_assert!(
            Response::decode(&encoded[..cut]).is_err(),
            "METRICS prefix of {} / {} bytes decoded",
            cut,
            encoded.len()
        );
    }

    /// EVENTS frames round-trip for arbitrary cursors, drop counts and
    /// structured events, and every strict prefix is rejected. The
    /// EVENTS *request* (cursor + max) gets the same treatment.
    #[test]
    fn events_frames_roundtrip_and_tear_safely(
        batch in arb_event_batch(),
        cursor in any::<u64>(),
        max in any::<u32>(),
        cut_seed in any::<u32>(),
    ) {
        let response = Response::Events(batch);
        let encoded = response.encode();
        prop_assert_eq!(&Response::decode(&encoded).unwrap(), &response);
        let cut = cut_seed as usize % encoded.len();
        prop_assert!(
            Response::decode(&encoded[..cut]).is_err(),
            "EVENTS prefix of {} / {} bytes decoded",
            cut,
            encoded.len()
        );

        let request = Request::Events { cursor, max };
        let encoded = request.encode();
        prop_assert_eq!(Request::decode(&encoded).unwrap(), request);
        let cut = cut_seed as usize % encoded.len();
        prop_assert!(Request::decode(&encoded[..cut]).is_err());
    }

    /// Corrupting a single byte of a METRICS or EVENTS frame never
    /// panics the decoder; whatever still decodes is a stable value
    /// (its canonical re-encoding decodes back to itself). A flip in a
    /// count field may hit the element cap or a truncation check — both
    /// must surface as `Err`, not as a panic or hang.
    #[test]
    fn corrupt_introspection_frames_never_panic(
        snapshot in arb_metrics(),
        batch in arb_event_batch(),
        pos_seed in any::<u32>(),
        flip in 1u8..=255,
    ) {
        for encoded in [Response::Metrics(snapshot).encode(), Response::Events(batch).encode()] {
            let mut corrupted = encoded;
            let pos = pos_seed as usize % corrupted.len();
            corrupted[pos] ^= flip;
            if let Ok(decoded) = Response::decode(&corrupted) {
                let reencoded = decoded.encode();
                prop_assert_eq!(Response::decode(&reencoded).unwrap(), decoded);
            }
        }
    }

    /// Corrupting a single byte of a BATCH_VALUES frame either still
    /// decodes (the flip hit key/value content — contents are opaque)
    /// or errors; a flip inside the count/length structure must never
    /// panic or mis-shape the result silently.
    #[test]
    fn single_byte_corruption_never_panics(
        pairs in proptest::collection::vec((arb_bytes(8), arb_bytes(8)), 1..6),
        pos_seed in any::<u32>(),
        flip in 1u8..=255,
    ) {
        let mut encoded = Response::BatchValues(pairs).encode();
        let pos = pos_seed as usize % encoded.len();
        encoded[pos] ^= flip;
        if let Ok(decoded) = Response::decode(&encoded) {
            prop_assert_eq!(decoded.encode(), encoded);
        }
    }
}

/// The full request/response palette round-trips with no tag
/// collisions, and the reserved opcode 5 / status 3 decode as errors.
#[test]
fn whole_palette_roundtrips() {
    let requests = vec![
        Request::Get { key: b"k".to_vec() },
        Request::Put {
            key: b"k".to_vec(),
            value: b"v".to_vec(),
        },
        Request::Delete { key: b"k".to_vec() },
        Request::Batch {
            ops: vec![WireOp::put(b"a".to_vec(), b"1".to_vec())],
        },
        Request::Scan {
            start: b"a".to_vec(),
            end: b"b".to_vec(),
            limit: 3,
        },
        Request::Metrics,
        Request::Events { cursor: 42, max: 8 },
        Request::DeleteRange {
            start: b"a".to_vec(),
            end: b"b".to_vec(),
        },
        Request::SnapCreate,
        Request::SnapRelease { id: 7 },
        Request::SnapGet {
            id: 7,
            key: b"k".to_vec(),
        },
        Request::SnapScan {
            id: 7,
            start: b"a".to_vec(),
            end: b"b".to_vec(),
            limit: 3,
        },
    ];
    let mut encoded_requests: Vec<Vec<u8>> = Vec::new();
    for request in &requests {
        let encoded = request.encode();
        assert_eq!(&Request::decode(&encoded).unwrap(), request);
        encoded_requests.push(encoded);
    }
    // Distinct opcodes: no two different requests share an encoding.
    for (i, a) in encoded_requests.iter().enumerate() {
        for b in encoded_requests.iter().skip(i + 1) {
            assert_ne!(a, b);
        }
    }

    let responses = vec![
        Response::Ok,
        Response::Value(b"v".to_vec()),
        Response::NotFound,
        Response::Busy,
        Response::BatchValues(vec![(b"k".to_vec(), b"v".to_vec())]),
        Response::ScanEnd,
        Response::Err("boom".to_owned()),
        Response::Snapshot(u64::MAX),
        Response::Metrics(MetricsSnapshot {
            counters: vec![("stats_puts".to_owned(), 9)],
            histograms: vec![("server_get_us".to_owned(), HistogramSnapshot::default())],
        }),
        Response::Events(EventBatch {
            next_cursor: 5,
            dropped: 1,
            events: vec![WireEvent {
                seq: 4,
                at_micros: 77,
                shard: 2,
                kind: "flush_publish".to_owned(),
                fields: vec![("generation".to_owned(), 3)],
            }],
        }),
    ];
    for response in &responses {
        assert_eq!(&Response::decode(&response.encode()).unwrap(), response);
    }
    // Reserved tags never decode, bare or with a body behind them, in
    // either framing.
    for body_len in [0usize, 8, 29 * 8] {
        for flag in [0u8, 0x80] {
            let mut frame = vec![0u8; 1 + body_len];
            frame[0] = 5 | flag;
            assert!(Request::decode_any(&frame).is_err());
            frame[0] = 3 | flag;
            assert!(Response::decode_any(&frame).is_err());
        }
    }
}
