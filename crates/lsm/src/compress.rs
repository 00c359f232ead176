//! In-tree block compression for the sstable format.
//!
//! Every data block is stored inside a small envelope:
//!
//! ```text
//! +-----+----------------------+------------------------+
//! | tag |       payload        | crc32(tag || payload)  |
//! | u8  |                      | u32 LE                 |
//! +-----+----------------------+------------------------+
//! ```
//!
//! * tag 0 (`None`) — payload is the raw logical block bytes.
//! * tag 1 (`Lz`)   — payload is `u32 LE` logical length followed by an
//!   LZ stream (below).
//!
//! The envelope CRC is verified *before* the tag is trusted, so a
//! bit-flipped tag or a torn payload surfaces as
//! [`Error::Corruption`] — never a panic, never a misdecoded block.
//! It is the block's only checksum: it covers every stored byte, so the
//! logical block inside carries none of its own (see
//! [`Block::decode`](crate::Block::decode)). A raw payload is handed on as a
//! slice of the stored bytes, not a copy.
//!
//! The workspace is offline (no crates.io), so the codec is a small
//! Snappy-style byte-oriented LZ implemented here: greedy hash-table
//! matching over 4-byte sequences, emitted as literal runs and
//! (length, distance) copies. The wire format is the contract; the
//! codec only has to be correct and cheap enough that decompression
//! beats the storage round-trips it saves. Blocks the codec cannot
//! shrink are stored with tag `None`, so pathological input costs five
//! bytes of framing, never an inflated payload.
//!
//! LZ stream format, driven by a control byte:
//!
//! * `0xxxxxxx` — literal run of `x + 1` bytes (1..=128) follows.
//! * `1xxxxxxx` — copy of `x + 4` bytes (4..=131) from `distance`
//!   bytes back, where `distance` is the next `u16 LE` (1..=65535).
//!   Distances shorter than the copy length overlap, giving RLE for
//!   free.

use bytes::Bytes;

use crate::crc::{crc32, verified};
use crate::Error;

/// Per-block compression applied by the sstable builder.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CompressionType {
    /// Store block bytes raw (still CRC-framed in the envelope).
    None,
    /// The in-tree byte-oriented LZ codec (Snappy-style greedy
    /// matcher). Falls back to `None` per block when it cannot shrink
    /// the bytes.
    #[default]
    Lz,
}

impl CompressionType {
    /// Human-readable name, used by benches and reports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::None => "none",
            Self::Lz => "lz",
        }
    }
}

/// Envelope tag: payload is the raw logical bytes.
const TAG_NONE: u8 = 0;
/// Envelope tag: payload is `u32 LE` logical length + LZ stream.
const TAG_LZ: u8 = 1;

/// Envelope framing overhead: tag byte + trailing CRC32.
pub(crate) const ENVELOPE_OVERHEAD: usize = 1 + 4;

/// Shortest possible match the LZ codec emits.
const MIN_MATCH: usize = 4;
/// Longest copy one control byte can encode.
const MAX_MATCH: usize = MIN_MATCH + 0x7F;
/// Matches further back than a `u16` distance cannot be encoded.
const MAX_DISTANCE: usize = u16::MAX as usize;
const HASH_BITS: u32 = 13;

/// Most output bytes one stream byte can produce (a three-byte copy
/// yields `MAX_MATCH`): a declared logical length past this ratio is
/// refused before it sizes the output buffer.
const MAX_EXPANSION: usize = MAX_MATCH.div_ceil(3);

/// Wraps one logical data block in the envelope, compressing the
/// payload per `ty` (with per-block fallback to raw when compression
/// does not shrink the bytes).
pub(crate) fn encode_block_envelope(ty: CompressionType, logical: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(logical.len() + ENVELOPE_OVERHEAD);
    match ty {
        CompressionType::None => {
            out.push(TAG_NONE);
            out.extend_from_slice(logical);
        }
        CompressionType::Lz => {
            let stream = lz_compress(logical);
            // Only keep the compressed form when it pays for its own
            // length prefix; otherwise store raw under tag None.
            if stream.len() + 4 < logical.len() {
                out.push(TAG_LZ);
                out.extend_from_slice(&(logical.len() as u32).to_le_bytes());
                out.extend_from_slice(&stream);
            } else {
                out.push(TAG_NONE);
                out.extend_from_slice(logical);
            }
        }
    }
    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// Unwraps a block envelope back to the logical block bytes: a slice of
/// `raw` for a raw payload, a fresh buffer for a compressed one.
///
/// The envelope CRC is checked before anything else is trusted; an
/// unknown tag, bad stream, or logical-length mismatch is
/// [`Error::Corruption`].
pub(crate) fn decode_block_envelope(raw: &Bytes) -> Result<Bytes, Error> {
    let body =
        verified(raw).ok_or_else(|| Error::corruption("block envelope checksum mismatch"))?;
    let (&tag, payload) = body
        .split_first()
        .ok_or_else(|| Error::corruption("block envelope shorter than framing"))?;
    match tag {
        TAG_NONE => Ok(raw.slice(1..body.len())),
        TAG_LZ => {
            let (logical_len, stream) = payload
                .split_first_chunk()
                .ok_or_else(|| Error::corruption("compressed block missing length prefix"))?;
            let logical_len = u32::from_le_bytes(*logical_len) as usize;
            Ok(Bytes::from(lz_decompress(stream, logical_len)?))
        }
        _ => Err(Error::corruption("unknown block compression tag")),
    }
}

fn hash4(bytes: &[u8]) -> usize {
    let v = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
    (v.wrapping_mul(0x9E37_79B1) >> (32 - HASH_BITS)) as usize
}

/// Compresses `input` into an LZ stream (no framing; the caller adds
/// the logical-length prefix and envelope CRC).
pub(crate) fn lz_compress(input: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(input.len() / 2 + 16);
    let mut table = vec![usize::MAX; 1 << HASH_BITS];
    let mut literal_start = 0usize;
    let mut i = 0usize;
    while i + MIN_MATCH <= input.len() {
        let h = hash4(&input[i..]);
        let candidate = table[h];
        table[h] = i;
        if candidate != usize::MAX
            && i - candidate <= MAX_DISTANCE
            && input[candidate..candidate + MIN_MATCH] == input[i..i + MIN_MATCH]
        {
            let limit = (input.len() - i).min(MAX_MATCH);
            let mut len = MIN_MATCH;
            while len < limit && input[candidate + len] == input[i + len] {
                len += 1;
            }
            flush_literals(&mut out, &input[literal_start..i]);
            out.push(0x80 | (len - MIN_MATCH) as u8);
            out.extend_from_slice(&((i - candidate) as u16).to_le_bytes());
            i += len;
            literal_start = i;
        } else {
            i += 1;
        }
    }
    flush_literals(&mut out, &input[literal_start..]);
    out
}

fn flush_literals(out: &mut Vec<u8>, mut literals: &[u8]) {
    while !literals.is_empty() {
        let take = literals.len().min(128);
        out.push((take - 1) as u8);
        out.extend_from_slice(&literals[..take]);
        literals = &literals[take..];
    }
}

/// Decompresses an LZ stream that must expand to exactly
/// `logical_len` bytes; any structural mismatch is corruption.
pub(crate) fn lz_decompress(stream: &[u8], logical_len: usize) -> Result<Vec<u8>, Error> {
    if logical_len > stream.len().saturating_mul(MAX_EXPANSION) {
        return Err(Error::corruption(
            "lz logical length exceeds what the stream can expand to",
        ));
    }
    let mut out = Vec::with_capacity(logical_len);
    let mut i = 0usize;
    while i < stream.len() {
        let ctrl = stream[i];
        i += 1;
        if ctrl & 0x80 == 0 {
            let run = ctrl as usize + 1;
            let literals = stream
                .get(i..i + run)
                .ok_or_else(|| Error::corruption("lz literal run past end of stream"))?;
            out.extend_from_slice(literals);
            i += run;
        } else {
            let len = (ctrl & 0x7F) as usize + MIN_MATCH;
            let distance_bytes = stream
                .get(i..i + 2)
                .ok_or_else(|| Error::corruption("lz match truncated"))?;
            let distance = u16::from_le_bytes([distance_bytes[0], distance_bytes[1]]) as usize;
            i += 2;
            if distance == 0 || distance > out.len() {
                return Err(Error::corruption("lz match distance out of range"));
            }
            let start = out.len() - distance;
            if distance >= len {
                out.extend_from_within(start..start + len);
            } else {
                // An overlapping (RLE) copy reads bytes it has just
                // appended, so it goes byte by byte.
                for j in 0..len {
                    let byte = out[start + j];
                    out.push(byte);
                }
            }
        }
        if out.len() > logical_len {
            return Err(Error::corruption("lz stream overruns declared length"));
        }
    }
    if out.len() != logical_len {
        return Err(Error::corruption("lz stream shorter than declared length"));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(input: &[u8]) {
        let stream = lz_compress(input);
        let back = lz_decompress(&stream, input.len()).unwrap();
        assert_eq!(back, input, "lz roundtrip of {} bytes", input.len());
    }

    #[test]
    fn lz_roundtrips_structured_and_degenerate_inputs() {
        roundtrip(b"");
        roundtrip(b"abc");
        roundtrip(&[0u8; 10_000]);
        roundtrip(b"abcabcabcabcabcabcabcabcabcabc");
        let blockish: Vec<u8> = (0..2_000u32)
            .flat_map(|i| {
                let mut e = format!("user{:08}", i % 37).into_bytes();
                e.extend_from_slice(&i.to_le_bytes());
                e
            })
            .collect();
        roundtrip(&blockish);
    }

    /// Copies at distance 1 (RLE), `len - 1` (overlapping by one byte)
    /// and `len` (adjacent, the bulk path), built by hand so each shape
    /// is certain to occur.
    #[test]
    fn lz_copies_at_every_overlap_shape() {
        let literal = |bytes: &[u8]| [&[(bytes.len() - 1) as u8][..], bytes].concat();
        let copy = |len: usize, distance: u16| {
            [
                &[0x80 | (len - MIN_MATCH) as u8][..],
                &distance.to_le_bytes(),
            ]
            .concat()
        };
        for (stream, expect) in [
            ([literal(b"a"), copy(6, 1)].concat(), b"aaaaaaa".to_vec()),
            (
                [literal(b"abcde"), copy(6, 5)].concat(),
                b"abcdeabcdea".to_vec(),
            ),
            (
                [literal(b"abcdef"), copy(6, 6)].concat(),
                b"abcdefabcdef".to_vec(),
            ),
            (
                [literal(b"abcdefg"), copy(4, 6)].concat(),
                b"abcdefgbcde".to_vec(),
            ),
        ] {
            assert_eq!(lz_decompress(&stream, expect.len()).unwrap(), expect);
        }
        for len in [MIN_MATCH, 17, MAX_MATCH] {
            for distance in [1, len - 1, len, len + 1] {
                let input: Vec<u8> = (0..distance as u8)
                    .cycle()
                    .take(distance + len + 5)
                    .collect();
                roundtrip(&input);
            }
        }
    }

    /// A declared logical length past what the stream could expand to is
    /// refused before it sizes the output buffer — even behind a valid
    /// envelope CRC.
    #[test]
    fn a_forged_logical_length_is_refused_before_allocating() {
        let stream = lz_compress(&[7u8; 1_000]);
        assert!(lz_decompress(&stream, 1_000).is_ok());
        let cap = stream.len() * MAX_EXPANSION;
        for logical_len in [cap + 1, u32::MAX as usize] {
            let mut forged = vec![TAG_LZ];
            forged.extend_from_slice(&(logical_len as u32).to_le_bytes());
            forged.extend_from_slice(&stream);
            let crc = crc32(&forged);
            forged.extend_from_slice(&crc.to_le_bytes());
            let err = decode_block_envelope(&forged.into()).unwrap_err();
            assert!(err.to_string().contains("exceeds what the stream"), "{err}");
        }
    }

    #[test]
    fn lz_roundtrips_incompressible_bytes() {
        // A cheap PRNG stream: almost no 4-byte repeats in range.
        let mut state = 0x12345678u64;
        let noise: Vec<u8> = (0..4096)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 33) as u8
            })
            .collect();
        roundtrip(&noise);
    }

    #[test]
    fn lz_shrinks_repetitive_block_payloads() {
        let payload: Vec<u8> = (0..500u32)
            .flat_map(|i| format!("key-{:06}=value-{:06};", i, i).into_bytes())
            .collect();
        let stream = lz_compress(&payload);
        assert!(
            stream.len() * 2 < payload.len(),
            "structured payload must compress at least 2x: {} -> {}",
            payload.len(),
            stream.len()
        );
    }

    #[test]
    fn envelope_roundtrips_both_types() {
        let logical: Vec<u8> = (0..300u32)
            .flat_map(|i| format!("entry-{i:04}").into_bytes())
            .collect();
        for ty in [CompressionType::None, CompressionType::Lz] {
            let raw = encode_block_envelope(ty, &logical);
            let back = decode_block_envelope(&raw.into()).unwrap();
            assert_eq!(back.as_ref(), logical.as_slice(), "{ty:?}");
        }
        let lz = encode_block_envelope(CompressionType::Lz, &logical);
        assert!(
            lz.len() < logical.len(),
            "compressible payload must shrink: {} -> {}",
            logical.len(),
            lz.len()
        );
    }

    #[test]
    fn envelope_falls_back_to_raw_for_incompressible_payloads() {
        let mut state = 0xDEADBEEFu64;
        let noise: Vec<u8> = (0..1024)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 33) as u8
            })
            .collect();
        let raw = encode_block_envelope(CompressionType::Lz, &noise);
        assert_eq!(raw[0], TAG_NONE, "codec must not inflate noise");
        assert_eq!(raw.len(), noise.len() + ENVELOPE_OVERHEAD);
        assert_eq!(
            decode_block_envelope(&raw.into()).unwrap().as_ref(),
            noise.as_slice()
        );
    }

    #[test]
    fn every_single_bit_flip_in_the_envelope_is_caught() {
        let logical: Vec<u8> = (0..200u32)
            .flat_map(|i| format!("key-{i:05}:payload").into_bytes())
            .collect();
        let good = encode_block_envelope(CompressionType::Lz, &logical);
        for byte in 0..good.len() {
            let mut bad = good.clone();
            bad[byte] ^= 0x10;
            match decode_block_envelope(&bad.into()) {
                Err(Error::Corruption { .. }) => {}
                Ok(decoded) => panic!(
                    "flip at byte {byte} silently decoded ({} bytes)",
                    decoded.len()
                ),
                Err(other) => panic!("flip at byte {byte} gave non-corruption error {other:?}"),
            }
        }
    }

    #[test]
    fn truncated_envelopes_are_corruption_not_panics() {
        let logical = b"some block payload with enough bytes to compress nicely nicely";
        let good = encode_block_envelope(CompressionType::Lz, logical);
        for cut in 0..good.len() {
            assert!(
                matches!(
                    decode_block_envelope(&good[..cut].to_vec().into()),
                    Err(Error::Corruption { .. })
                ),
                "truncation at {cut} must be corruption"
            );
        }
    }
}
