//! CRC-32 (IEEE 802.3 polynomial, reflected), the checksum on every
//! stored byte: block envelopes, sstable footer and sections, WAL
//! frames, manifest checkpoints and `CURRENT`.

/// Slicing-by-8 tables, built at compile time: `TABLES[0][b]` is the CRC
/// of byte `b`, `TABLES[k][b]` that CRC pushed through `k` zero bytes.
static TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut byte = 0;
    while byte < 256 {
        // Eight bit steps per table: table `k` is where step `8(k + 1)` lands.
        let (mut crc, mut step) = (byte as u32, 1);
        while step <= 64 {
            crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
            if step % 8 == 0 {
                tables[step / 8 - 1][byte] = crc;
            }
            step += 1;
        }
        byte += 1;
    }
    tables
};

/// CRC-32 of `data`, folding eight bytes per table step — the standard
/// output, so bytes already on storage still verify.
#[must_use]
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = !0u32;
    let mut chunks = data.chunks_exact(8);
    for chunk in &mut chunks {
        let word = u64::from_le_bytes(chunk.try_into().expect("8 bytes")) ^ u64::from(crc);
        crc = (0..8).fold(0, |acc, i| {
            acc ^ TABLES[7 - i][(word >> (8 * i)) as u8 as usize]
        });
    }
    for &byte in chunks.remainder() {
        crc = (crc >> 8) ^ TABLES[0][usize::from(crc as u8 ^ byte)];
    }
    !crc
}

/// `data` less its trailing little-endian CRC-32 — the framing of every
/// checksummed blob and section — if that CRC matches the bytes before
/// it.
#[must_use]
pub(crate) fn verified(data: &[u8]) -> Option<&[u8]> {
    let (payload, crc) = data.split_at(data.len().checked_sub(4)?);
    (crc32(payload).to_le_bytes() == crc).then_some(payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The textbook bit-at-a-time CRC-32 the tables must agree with.
    fn bitwise(data: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &byte in data {
            crc ^= u32::from(byte);
            for _ in 0..8 {
                crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
            }
        }
        !crc
    }

    fn noise(len: usize, mut state: u64) -> Vec<u8> {
        (0..len)
            .map(|_| {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                (state >> 33) as u8
            })
            .collect()
    }

    #[test]
    fn known_vector() {
        // "123456789" has the well-known CRC-32 of 0xCBF43926.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// Every length through the 8-byte folding and the tail loop, from
    /// several start offsets (so the chunks fall on different
    /// alignments), and whole random 4 KiB blocks.
    #[test]
    fn tables_match_the_bitwise_reference() {
        let buf = noise(64 + 8, 1);
        for start in 0..8 {
            for len in 0..=64 {
                let data = &buf[start..start + len];
                assert_eq!(crc32(data), bitwise(data), "start {start} len {len}");
            }
        }
        for seed in 0..16 {
            let block = noise(4096, seed);
            assert_eq!(crc32(&block), bitwise(&block), "seed {seed}");
        }
    }
}
