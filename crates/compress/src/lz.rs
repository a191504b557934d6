//! The LZ77 codec using the LZ4 block layout.

use std::fmt;

/// Errors surfaced while decoding a compressed block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompressError {
    /// The wire bytes ended mid-sequence.
    Truncated,
    /// A match referenced data before the start of the output.
    BadOffset { offset: usize, produced: usize },
    /// Decoded length does not match the header.
    LengthMismatch { expected: usize, actual: usize },
    /// The varint length header is malformed.
    BadHeader,
}

impl fmt::Display for CompressError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompressError::Truncated => write!(f, "compressed block truncated"),
            CompressError::BadOffset { offset, produced } => {
                write!(f, "match offset {offset} exceeds produced bytes {produced}")
            }
            CompressError::LengthMismatch { expected, actual } => {
                write!(f, "decoded {actual} bytes, header said {expected}")
            }
            CompressError::BadHeader => write!(f, "malformed length header"),
        }
    }
}

impl std::error::Error for CompressError {}

const MIN_MATCH: usize = 4;
const MAX_OFFSET: usize = 65_535;
/// The last bytes of the input are always emitted as literals (mirrors the
/// LZ4 end-of-block conditions and keeps the hot loop bound-check friendly).
const TAIL_LITERALS: usize = 12;
const HASH_LOG: u32 = 16;

#[inline]
fn hash4(v: u32) -> usize {
    (v.wrapping_mul(2654435761) >> (32 - HASH_LOG)) as usize
}

#[inline]
fn read_u32(data: &[u8], i: usize) -> u32 {
    u32::from_le_bytes([data[i], data[i + 1], data[i + 2], data[i + 3]])
}

fn write_varint(out: &mut Vec<u8>, mut v: usize) {
    loop {
        let b = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(b);
            break;
        }
        out.push(b | 0x80);
    }
}

fn read_varint(data: &[u8], pos: &mut usize) -> Result<usize, CompressError> {
    let mut v: usize = 0;
    let mut shift = 0u32;
    loop {
        let b = *data.get(*pos).ok_or(CompressError::BadHeader)?;
        *pos += 1;
        v |= ((b & 0x7f) as usize) << shift;
        if b & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
        if shift > 42 {
            return Err(CompressError::BadHeader);
        }
    }
}

fn write_len_nibble(out: &mut Vec<u8>, mut extra: usize) {
    while extra >= 255 {
        out.push(255);
        extra -= 255;
    }
    out.push(extra as u8);
}

fn emit_sequence(
    out: &mut Vec<u8>,
    literals: &[u8],
    match_offset: Option<(usize, usize)>, // (offset, match_len)
) {
    let lit_len = literals.len();
    let lit_nibble = lit_len.min(15) as u8;
    let match_nibble = match match_offset {
        Some((_, ml)) => (ml - MIN_MATCH).min(15) as u8,
        None => 0,
    };
    out.push((lit_nibble << 4) | match_nibble);
    if lit_len >= 15 {
        write_len_nibble(out, lit_len - 15);
    }
    out.extend_from_slice(literals);
    if let Some((offset, ml)) = match_offset {
        out.extend_from_slice(&(offset as u16).to_le_bytes());
        if ml - MIN_MATCH >= 15 {
            write_len_nibble(out, ml - MIN_MATCH - 15);
        }
    }
}

/// Compress `data` into a self-contained block.
pub fn compress(data: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len() / 2 + 16);
    let mut table = MatchTable::default();
    compress_into(data, &mut table, &mut out);
    out
}

/// Reusable hash table for [`compress_into`], never cleared between
/// blocks: a slot holds `base + position + 1` of the block that wrote it
/// and `base` moves past every finished block, so whatever earlier blocks
/// left behind is `<= base` and reads as empty. A block touches one slot
/// per byte it hashes, not all 65 536 — what a three-record ship batch
/// needs. The slots are zeroed only when `base` would overflow `u32`.
#[derive(Debug)]
pub struct MatchTable {
    slots: Vec<u32>,
    base: u32,
    slots_cleared: u64,
}

impl Default for MatchTable {
    fn default() -> Self {
        MatchTable {
            slots: vec![0u32; 1 << HASH_LOG],
            base: 0,
            slots_cleared: 0,
        }
    }
}

impl MatchTable {
    /// Slots zeroed so far (work counter: 0 until `base` wraps).
    pub fn slots_cleared(&self) -> u64 {
        self.slots_cleared
    }

    /// A table whose next block starts `headroom` positions below the
    /// `u32` wrap, so tests reach the clear branch with small inputs.
    #[cfg(test)]
    fn near_wrap(headroom: u32) -> Self {
        MatchTable {
            base: u32::MAX - headroom,
            ..Self::default()
        }
    }

    /// The base for a block of `n` bytes: the running one if every
    /// `base + position + 1` still fits, else 0 over zeroed slots.
    fn begin_block(&mut self, n: usize) -> u32 {
        if self.base as u64 + n as u64 > u32::MAX as u64 {
            self.slots.fill(0);
            self.slots_cleared += self.slots.len() as u64;
            self.base = 0;
        }
        self.base
    }
}

/// [`compress`] appending to a caller-owned buffer — byte-identical
/// output, no allocations once `out` and `table` have warmed up.
pub fn compress_into(data: &[u8], table: &mut MatchTable, out: &mut Vec<u8>) {
    write_varint(out, data.len());
    let n = data.len();
    if n < MIN_MATCH + TAIL_LITERALS {
        if n > 0 {
            emit_sequence(out, data, None);
        }
        return;
    }

    let base = table.begin_block(n);
    let slots = &mut table.slots; // base + position + 1
    let match_limit = n - TAIL_LITERALS;
    let mut i = 0usize;
    let mut anchor = 0usize;

    while i < match_limit {
        let h = hash4(read_u32(data, i));
        let cand = slots[h];
        slots[h] = base.wrapping_add((i + 1) as u32);
        if cand > base {
            let pos = (cand - base) as usize - 1;
            if i - pos <= MAX_OFFSET && read_u32(data, pos) == read_u32(data, i) {
                // Extend the match forward.
                let mut ml = MIN_MATCH;
                while i + ml < match_limit && data[pos + ml] == data[i + ml] {
                    ml += 1;
                }
                emit_sequence(out, &data[anchor..i], Some((i - pos, ml)));
                i += ml;
                anchor = i;
                continue;
            }
        }
        i += 1;
    }
    emit_sequence(out, &data[anchor..], None);
    table.base = base.wrapping_add(n as u32);
}

/// Decompress a block produced by [`compress`].
pub fn decompress(wire: &[u8]) -> Result<Vec<u8>, CompressError> {
    let mut out = Vec::new();
    decompress_into(wire, &mut out)?;
    Ok(out)
}

/// [`decompress`] into a caller-owned buffer (cleared first, capacity
/// reused across calls on the replay path).
pub fn decompress_into(wire: &[u8], out: &mut Vec<u8>) -> Result<(), CompressError> {
    out.clear();
    let mut pos = 0usize;
    let expected = read_varint(wire, &mut pos)?;
    // Cap the pre-allocation: a corrupt header must not abort the process.
    out.reserve(expected.min(1 << 20));
    if expected == 0 {
        return if pos == wire.len() {
            Ok(())
        } else {
            Err(CompressError::LengthMismatch {
                expected,
                actual: wire.len() - pos,
            })
        };
    }

    let read_extended = |pos: &mut usize, nibble: usize| -> Result<usize, CompressError> {
        let mut len = nibble;
        if nibble == 15 {
            loop {
                let b = *wire.get(*pos).ok_or(CompressError::Truncated)?;
                *pos += 1;
                len += b as usize;
                if b != 255 {
                    break;
                }
            }
        }
        Ok(len)
    };

    while pos < wire.len() {
        let token = wire[pos];
        pos += 1;
        let lit_len = read_extended(&mut pos, (token >> 4) as usize)?;
        if pos + lit_len > wire.len() {
            return Err(CompressError::Truncated);
        }
        if out.len() + lit_len > expected {
            return Err(CompressError::LengthMismatch {
                expected,
                actual: out.len() + lit_len,
            });
        }
        out.extend_from_slice(&wire[pos..pos + lit_len]);
        pos += lit_len;
        if pos == wire.len() {
            break; // final literal-only sequence
        }
        if pos + 2 > wire.len() {
            return Err(CompressError::Truncated);
        }
        let offset = u16::from_le_bytes([wire[pos], wire[pos + 1]]) as usize;
        pos += 2;
        let match_len = MIN_MATCH + read_extended(&mut pos, (token & 0x0f) as usize)?;
        if out.len() + match_len > expected {
            return Err(CompressError::LengthMismatch {
                expected,
                actual: out.len() + match_len,
            });
        }
        if offset == 0 || offset > out.len() {
            return Err(CompressError::BadOffset {
                offset,
                produced: out.len(),
            });
        }
        // Byte-by-byte copy: offsets smaller than the match length overlap
        // (RLE-style), which is the whole point of LZ77.
        let start = out.len() - offset;
        for k in 0..match_len {
            let b = out[start + k];
            out.push(b);
        }
    }

    if out.len() != expected {
        return Err(CompressError::LengthMismatch {
            expected,
            actual: out.len(),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(data: &[u8]) {
        let c = compress(data);
        assert_eq!(decompress(&c).unwrap(), data, "roundtrip failed");
    }

    #[test]
    fn empty_and_tiny_inputs() {
        roundtrip(b"");
        roundtrip(b"a");
        roundtrip(b"abc");
        roundtrip(b"abcdefghijklmno"); // below MIN_MATCH + TAIL_LITERALS
    }

    #[test]
    fn incompressible_random_bytes_roundtrip() {
        // A fixed pseudo-random buffer (xorshift) with no repeats.
        let mut x = 0x12345678u32;
        let data: Vec<u8> = (0..10_000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                (x & 0xff) as u8
            })
            .collect();
        let c = compress(&data);
        assert_eq!(decompress(&c).unwrap(), data);
        // Expansion overhead stays small (< 1%).
        assert!(c.len() < data.len() + data.len() / 100 + 16);
    }

    #[test]
    fn highly_repetitive_compresses_hard() {
        let data = vec![0xAB; 100_000];
        let c = compress(&data);
        assert!(c.len() < 1_000, "RLE case: got {}", c.len());
        assert_eq!(decompress(&c).unwrap(), data);
    }

    #[test]
    fn overlapping_match_copy() {
        // "abcabcabc..." exercises offset < match_len copies.
        let data: Vec<u8> = b"abc".iter().cycle().take(5_000).copied().collect();
        roundtrip(&data);
    }

    #[test]
    fn redo_log_like_payload_ratio() {
        // Synthetic redo records: repeating structure with varying ids —
        // the realistic case for log shipping.
        let mut data = Vec::new();
        for i in 0u32..2_000 {
            data.extend_from_slice(b"INSERT:warehouse=");
            data.extend_from_slice(&(i % 600).to_le_bytes());
            data.extend_from_slice(b":district=");
            data.extend_from_slice(&(i % 10).to_le_bytes());
            data.extend_from_slice(b":payload=");
            data.extend_from_slice(&[b'x'; 64]);
        }
        let c = compress(&data);
        assert!(
            c.len() * 3 < data.len(),
            "expected ≥3x on log-like data, got {} of {}",
            c.len(),
            data.len()
        );
        assert_eq!(decompress(&c).unwrap(), data);
    }

    #[test]
    fn long_literal_runs_use_extension_bytes() {
        // 300 distinct bytes (no matches) forces lit_len > 15 + 255.
        let data: Vec<u8> = (0..300u32).flat_map(|i| i.to_le_bytes()).collect();
        roundtrip(&data);
    }

    #[test]
    fn truncated_wire_is_an_error() {
        let c = compress(&vec![7u8; 1000]);
        for cut in [1, c.len() / 2, c.len() - 1] {
            assert!(decompress(&c[..cut]).is_err(), "cut at {cut} must fail");
        }
    }

    #[test]
    fn corrupt_offset_is_an_error() {
        // Hand-craft: header len=8, token with 0 literals + match, offset 9
        // pointing before the start.
        let mut wire = Vec::new();
        wire.push(8); // varint length 8
        wire.push(0x04); // 0 literals, match_len = 4 + 4
        wire.extend_from_slice(&9u16.to_le_bytes());
        match decompress(&wire) {
            Err(CompressError::BadOffset { .. }) => {}
            other => panic!("expected BadOffset, got {other:?}"),
        }
    }

    #[test]
    fn length_mismatch_detected() {
        let mut c = compress(b"hello world hello world hello world");
        // Tamper with the declared length.
        c[0] = c[0].wrapping_add(1);
        assert!(matches!(
            decompress(&c),
            Err(CompressError::LengthMismatch { .. }) | Err(CompressError::Truncated)
        ));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// A block of 0…4 KiB: random bytes, or a short chunk repeated.
    fn arb_block() -> impl Strategy<Value = Vec<u8>> {
        prop_oneof![
            proptest::collection::vec(any::<u8>(), 0..4097),
            (proptest::collection::vec(any::<u8>(), 1..48), 0usize..4097)
                .prop_map(|(chunk, len)| chunk.iter().cycle().take(len).copied().collect()),
        ]
    }

    proptest! {
        #[test]
        fn roundtrip_arbitrary(data in proptest::collection::vec(any::<u8>(), 0..4096)) {
            let c = compress(&data);
            prop_assert_eq!(decompress(&c).unwrap(), data);
        }

        #[test]
        fn roundtrip_structured(
            seed in any::<u8>(),
            reps in 1usize..200,
            chunk in proptest::collection::vec(any::<u8>(), 1..64),
        ) {
            // Repetitive data (chunk repeated) with a seed-based prefix.
            let mut data = vec![seed; 8];
            for _ in 0..reps {
                data.extend_from_slice(&chunk);
            }
            let c = compress(&data);
            prop_assert_eq!(decompress(&c).unwrap(), data);
        }

        /// Blocks through one reused table are byte-identical to a fresh
        /// table per block — from a new table, and from one whose base
        /// starts a few KiB below `u32::MAX`, so the stream crosses the
        /// clear-and-restart branch with live entries in the slots.
        #[test]
        fn reused_table_matches_fresh_table_per_block(
            blocks in proptest::collection::vec(arb_block(), 1..12),
            headroom in proptest::option::of(0u32..12_288),
        ) {
            let wraps = headroom.is_some();
            let mut table = headroom.map_or_else(MatchTable::default, MatchTable::near_wrap);
            let total: usize = blocks.iter().map(Vec::len).sum();
            let mut out = Vec::new();
            for block in &blocks {
                out.clear();
                compress_into(block, &mut table, &mut out);
                prop_assert_eq!(&out, &compress(block), "block of {} bytes", block.len());
                prop_assert_eq!(&decompress(&out).unwrap(), block);
            }
            if !wraps {
                prop_assert_eq!(table.slots_cleared(), 0);
            } else if total > 2 * 12_288 {
                prop_assert!(table.slots_cleared() > 0, "the base never wrapped");
            }
        }

        #[test]
        fn decoder_never_panics_on_garbage(wire in proptest::collection::vec(any::<u8>(), 0..512)) {
            let _ = decompress(&wire); // must not panic, Err is fine
        }
    }
}
