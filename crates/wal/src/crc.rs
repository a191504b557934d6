//! CRC-32 (IEEE 802.3 polynomial), slicing-by-8.
//!
//! Each redo record carries a CRC over its body so torn or corrupted
//! shipping batches are detected at replay time, and a group-commit sync
//! extends the tail-page CRC over the same bytes. Eight tables let the
//! loop fold eight bytes per step; the output is the byte-at-a-time
//! table walk's.

const POLY: u32 = 0xEDB8_8320;

/// `TABLES[0]` is the classic byte table; `TABLES[k][b]` is the CRC
/// state of byte `b` followed by `k` zero bytes.
static TABLES: [[u32; 256]; 8] = make_tables();

const fn make_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut j = 0;
        while j < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            j += 1;
        }
        t[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

/// CRC-32 of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    crc32_extend(0, data)
}

/// CRC-32 of `prefix ‖ data`, given `crc = crc32(prefix)` — a running
/// checksum continued over appended bytes without re-reading the prefix.
pub fn crc32_extend(crc: u32, data: &[u8]) -> u32 {
    let t = &TABLES;
    let mut crc = !crc;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Standard check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    #[test]
    fn extend_equals_one_pass_at_every_split() {
        let data = b"group commit tail page".to_vec();
        for cut in 0..=data.len() {
            let (a, b) = data.split_at(cut);
            assert_eq!(crc32_extend(crc32(a), b), crc32(&data), "split at {cut}");
        }
    }

    #[test]
    fn detects_single_bit_flip() {
        let data = b"the quick brown fox".to_vec();
        let base = crc32(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                let mut corrupted = data.clone();
                corrupted[byte] ^= 1 << bit;
                assert_ne!(crc32(&corrupted), base, "flip at {byte}:{bit} undetected");
            }
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// The spec: one table lookup per byte.
    fn crc32_bytewise(crc: u32, data: &[u8]) -> u32 {
        let mut crc = !crc;
        for &b in data {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        !crc
    }

    proptest! {
        /// Slicing-by-8 equals the byte walk for any seed and any length,
        /// so every tail and every misaligned start is covered.
        #[test]
        fn slicing_by_8_matches_bytewise(
            seed in any::<u32>(),
            data in proptest::collection::vec(any::<u8>(), 0..300),
        ) {
            prop_assert_eq!(crc32_extend(seed, &data), crc32_bytewise(seed, &data));
        }
    }
}
