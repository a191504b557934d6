//! CRC-32 (IEEE 802.3 polynomial), table-driven.
//!
//! Each redo record carries a CRC over its body so torn or corrupted
//! shipping batches are detected at replay time.

const POLY: u32 = 0xEDB8_8320;

fn make_table() -> [u32; 256] {
    let mut table = [0u32; 256];
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
        table[i] = crc;
        i += 1;
    }
    table
}

/// Precomputed at first use; `OnceLock` keeps this dependency-free.
fn table() -> &'static [u32; 256] {
    use std::sync::OnceLock;
    static TABLE: OnceLock<[u32; 256]> = OnceLock::new();
    TABLE.get_or_init(make_table)
}

/// CRC-32 of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    crc32_extend(0, data)
}

/// CRC-32 of `prefix ‖ data`, given `crc = crc32(prefix)` — a running
/// checksum continued over appended bytes without re-reading the prefix.
pub fn crc32_extend(crc: u32, data: &[u8]) -> u32 {
    let t = table();
    let mut crc = !crc;
    for &b in data {
        crc = (crc >> 8) ^ t[((crc ^ b as u32) & 0xFF) as usize];
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
