//! LZ4-block-format-style compression, implemented from scratch.
//!
//! GaussDB-Global compresses redo logs with LZ4 before shipping them across
//! regions (paper §V-A). This crate provides a compatible-in-spirit LZ77
//! codec using the LZ4 block layout (token byte, literal run, little-endian
//! 16-bit match offset, extension bytes), tuned for the highly repetitive
//! byte patterns of physical redo logs.
//!
//! The format produced here is *self-contained*, not interoperable with
//! reference LZ4 (we prepend the decompressed length as a varint so the
//! decoder can pre-allocate); everything else follows the block spec:
//!
//! ```text
//! [uncompressed-len varint] then sequences of:
//!   token: (literal_len:4 | match_len-4:4)
//!   [literal_len 255-extension bytes]*  literals
//!   offset: u16 LE (1..=65535)          — absent in the final sequence
//!   [match_len 255-extension bytes]*
//! ```

pub mod lz;

pub use lz::{compress, compress_into, decompress, CompressError, MatchTable};

/// Which codec a replication channel uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Codec {
    /// Ship raw bytes.
    #[default]
    None,
    /// LZ4-style compression (paper's configuration).
    Lz4,
}

impl Codec {
    /// Encode `data`, returning the wire bytes.
    pub fn encode(&self, data: &[u8]) -> Vec<u8> {
        match self {
            Codec::None => data.to_vec(),
            Codec::Lz4 => compress(data),
        }
    }

    /// [`Codec::encode`] into a caller-owned buffer (cleared first),
    /// reusing `table` for the compressor's match state. Byte-identical
    /// output; allocation-free once the buffers are warm — the shape the
    /// per-batch log-ship path wants.
    pub fn encode_into(&self, data: &[u8], table: &mut MatchTable, out: &mut Vec<u8>) {
        out.clear();
        match self {
            Codec::None => out.extend_from_slice(data),
            Codec::Lz4 => compress_into(data, table, out),
        }
    }

    /// Decode wire bytes produced by [`Codec::encode`].
    pub fn decode(&self, wire: &[u8]) -> Result<Vec<u8>, CompressError> {
        match self {
            Codec::None => Ok(wire.to_vec()),
            Codec::Lz4 => decompress(wire),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codec_none_is_identity() {
        let data = b"hello world".to_vec();
        let wire = Codec::None.encode(&data);
        assert_eq!(wire, data);
        assert_eq!(Codec::None.decode(&wire).unwrap(), data);
    }

    #[test]
    fn codec_lz4_roundtrip_and_shrinks_redundancy() {
        let data: Vec<u8> = b"redo-record:".iter().cycle().take(4096).copied().collect();
        let wire = Codec::Lz4.encode(&data);
        assert!(
            wire.len() < data.len() / 4,
            "got {} of {}",
            wire.len(),
            data.len()
        );
        assert_eq!(Codec::Lz4.decode(&wire).unwrap(), data);
    }

    #[test]
    fn into_variants_match_allocating_paths() {
        let data: Vec<u8> = b"redo-record:".iter().cycle().take(4096).copied().collect();
        let mut table = MatchTable::default();
        let mut wire = Vec::new();
        for codec in [Codec::None, Codec::Lz4] {
            // Dirty the buffer to prove reuse clears it.
            wire.extend_from_slice(b"stale");
            codec.encode_into(&data, &mut table, &mut wire);
            assert_eq!(wire, codec.encode(&data), "{codec:?} encode differs");
            assert_eq!(
                codec.decode(&wire).unwrap(),
                data,
                "{codec:?} decode differs"
            );
        }
        // Back-to-back blocks through one table stay byte-identical
        // (the match state must not leak across blocks).
        let other: Vec<u8> = (0u32..1000).flat_map(|i| i.to_le_bytes()).collect();
        let mut second = Vec::new();
        Codec::Lz4.encode_into(&other, &mut table, &mut second);
        assert_eq!(second, Codec::Lz4.encode(&other));
    }
}
