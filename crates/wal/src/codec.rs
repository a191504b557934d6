//! Low-level binary encoding helpers: LEB128 varints, length-prefixed
//! strings, and datum/row/key encoding shared by all redo record types.

use gdb_model::{DataType, Datum, Row, RowKey};
use std::fmt;

/// Decode failure: the byte stream is malformed or truncated.
///
/// Deliberately `Copy` with only static payloads: decode errors used to
/// carry a formatted `String`, which put an allocation (and a `format!`)
/// on every hot-path error check even though the message was always one
/// of a handful of fixed shapes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// The stream ended before the named field completed.
    Truncated(&'static str),
    /// A varint ran past 64 bits.
    VarintOverflow,
    /// A string field held invalid UTF-8.
    InvalidUtf8,
    /// An unrecognized tag byte for the named kind.
    UnknownTag { kind: &'static str, tag: u8 },
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated(what) => write!(f, "truncated {what}"),
            DecodeError::VarintOverflow => write!(f, "varint overflow"),
            DecodeError::InvalidUtf8 => write!(f, "invalid utf8"),
            DecodeError::UnknownTag { kind, tag } => write!(f, "unknown {kind} tag {tag}"),
        }
    }
}

impl std::error::Error for DecodeError {}

pub type DecodeResult<T> = Result<T, DecodeError>;

pub fn put_varint(out: &mut Vec<u8>, mut v: u64) {
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

pub fn put_varint_i64(out: &mut Vec<u8>, v: i64) {
    // ZigZag encoding.
    put_varint(out, ((v << 1) ^ (v >> 63)) as u64);
}

pub fn put_bytes(out: &mut Vec<u8>, data: &[u8]) {
    put_varint(out, data.len() as u64);
    out.extend_from_slice(data);
}

pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_bytes(out, s.as_bytes());
}

/// A cursor over encoded bytes.
#[derive(Debug)]
pub struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub fn new(data: &'a [u8]) -> Self {
        Reader { data, pos: 0 }
    }

    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    pub fn u8(&mut self) -> DecodeResult<u8> {
        let b = *self
            .data
            .get(self.pos)
            .ok_or(DecodeError::Truncated("u8"))?;
        self.pos += 1;
        Ok(b)
    }

    pub fn varint(&mut self) -> DecodeResult<u64> {
        let mut v: u64 = 0;
        let mut shift = 0u32;
        loop {
            let b = self.u8()?;
            v |= ((b & 0x7f) as u64) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
            if shift >= 64 {
                return Err(DecodeError::VarintOverflow);
            }
        }
    }

    pub fn varint_i64(&mut self) -> DecodeResult<i64> {
        let z = self.varint()?;
        Ok(((z >> 1) as i64) ^ -((z & 1) as i64))
    }

    pub fn bytes(&mut self) -> DecodeResult<&'a [u8]> {
        let len = self.varint()? as usize;
        // A corrupt length near `u64::MAX` must not wrap past the check.
        let end = self
            .pos
            .checked_add(len)
            .filter(|&end| end <= self.data.len())
            .ok_or(DecodeError::Truncated("bytes"))?;
        let s = &self.data[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    /// Borrow a string field out of the underlying buffer: validates
    /// UTF-8 in place, no copy. The hot replay path for callers that
    /// only inspect (or intern) the text.
    pub fn str_ref(&mut self) -> DecodeResult<&'a str> {
        let b = self.bytes()?;
        std::str::from_utf8(b).map_err(|_| DecodeError::InvalidUtf8)
    }

    /// Owned string field. One validation, one allocation (the old
    /// implementation copied the bytes first and validated the copy).
    pub fn str(&mut self) -> DecodeResult<String> {
        self.str_ref().map(str::to_string)
    }
}

// Datum tags.
const T_NULL: u8 = 0;
const T_INT: u8 = 1;
const T_DECIMAL: u8 = 2;
const T_TEXT: u8 = 3;
const T_BOOL_F: u8 = 4;
const T_BOOL_T: u8 = 5;

pub fn put_datum(out: &mut Vec<u8>, d: &Datum) {
    match d {
        Datum::Null => out.push(T_NULL),
        Datum::Int(v) => {
            out.push(T_INT);
            put_varint_i64(out, *v);
        }
        Datum::Decimal(v) => {
            out.push(T_DECIMAL);
            put_varint_i64(out, *v);
        }
        Datum::Text(s) => {
            out.push(T_TEXT);
            put_str(out, s);
        }
        Datum::Bool(false) => out.push(T_BOOL_F),
        Datum::Bool(true) => out.push(T_BOOL_T),
    }
}

pub fn get_datum(r: &mut Reader) -> DecodeResult<Datum> {
    Ok(match r.u8()? {
        T_NULL => Datum::Null,
        T_INT => Datum::Int(r.varint_i64()?),
        T_DECIMAL => Datum::Decimal(r.varint_i64()?),
        T_TEXT => Datum::Text(r.str_ref()?.into()),
        T_BOOL_F => Datum::Bool(false),
        T_BOOL_T => Datum::Bool(true),
        t => {
            return Err(DecodeError::UnknownTag {
                kind: "datum",
                tag: t,
            })
        }
    })
}

pub fn put_row(out: &mut Vec<u8>, row: &Row) {
    put_varint(out, row.0.len() as u64);
    for d in &row.0 {
        put_datum(out, d);
    }
}

pub fn get_row(r: &mut Reader) -> DecodeResult<Row> {
    let n = r.varint()? as usize;
    let mut row = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        row.push(get_datum(r)?);
    }
    Ok(Row(row))
}

pub fn put_key(out: &mut Vec<u8>, key: &RowKey) {
    put_varint(out, key.0.len() as u64);
    for d in key.0.iter() {
        put_datum(out, d);
    }
}

pub fn get_key(r: &mut Reader) -> DecodeResult<RowKey> {
    // Every datum takes at least one byte, so a column count beyond the
    // remaining input is corrupt — and is rejected before anything is
    // allocated for it.
    let n = r.varint()?;
    if n > r.remaining() as u64 {
        return Err(DecodeError::Truncated("key"));
    }
    RowKey::try_from_fn(n as usize, |_| get_datum(r))
}

pub fn put_data_type(out: &mut Vec<u8>, dt: DataType) {
    out.push(match dt {
        DataType::Int => 0,
        DataType::Decimal => 1,
        DataType::Text => 2,
        DataType::Bool => 3,
    });
}

pub fn get_data_type(r: &mut Reader) -> DecodeResult<DataType> {
    Ok(match r.u8()? {
        0 => DataType::Int,
        1 => DataType::Decimal,
        2 => DataType::Text,
        3 => DataType::Bool,
        t => {
            return Err(DecodeError::UnknownTag {
                kind: "data type",
                tag: t,
            })
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_roundtrip_extremes() {
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            let mut out = Vec::new();
            put_varint(&mut out, v);
            assert_eq!(Reader::new(&out).varint().unwrap(), v);
        }
    }

    #[test]
    fn zigzag_roundtrip() {
        for v in [0i64, -1, 1, -64, 64, i64::MIN, i64::MAX] {
            let mut out = Vec::new();
            put_varint_i64(&mut out, v);
            assert_eq!(Reader::new(&out).varint_i64().unwrap(), v);
        }
    }

    #[test]
    fn datum_roundtrip_all_variants() {
        let datums = [
            Datum::Null,
            Datum::Int(-42),
            Datum::Decimal(999_999),
            Datum::Text("héllo".into()),
            Datum::Bool(true),
            Datum::Bool(false),
        ];
        let mut out = Vec::new();
        for d in &datums {
            put_datum(&mut out, d);
        }
        let mut r = Reader::new(&out);
        for d in &datums {
            assert_eq!(&get_datum(&mut r).unwrap(), d);
        }
        assert!(r.is_empty());
    }

    #[test]
    fn row_and_key_roundtrip() {
        let row = Row(vec![Datum::Int(1), Datum::Text("x".into()), Datum::Null]);
        let key = RowKey::new(vec![Datum::Int(7), Datum::Int(8)]);
        let mut out = Vec::new();
        put_row(&mut out, &row);
        put_key(&mut out, &key);
        let mut r = Reader::new(&out);
        assert_eq!(get_row(&mut r).unwrap(), row);
        assert_eq!(get_key(&mut r).unwrap(), key);
    }

    #[test]
    fn truncation_errors_not_panics() {
        let mut out = Vec::new();
        put_str(&mut out, "hello world");
        let mut r = Reader::new(&out[..3]);
        assert!(r.str().is_err());
        let mut r2 = Reader::new(&[0x80, 0x80]);
        assert!(r2.varint().is_err());
    }

    #[test]
    fn invalid_utf8_is_error() {
        let mut out = Vec::new();
        put_bytes(&mut out, &[0xff, 0xfe]);
        assert!(Reader::new(&out).str().is_err());
        assert_eq!(
            Reader::new(&out).str_ref().unwrap_err(),
            DecodeError::InvalidUtf8
        );
    }

    #[test]
    fn str_ref_borrows_from_input() {
        let mut out = Vec::new();
        put_str(&mut out, "héllo");
        let mut r = Reader::new(&out);
        let s: &str = r.str_ref().unwrap();
        assert_eq!(s, "héllo");
        // The borrow points into `out`, not a copy.
        assert_eq!(s.as_ptr(), out[out.len() - s.len()..].as_ptr());
    }

    #[test]
    fn oversized_lengths_are_errors_not_panics() {
        // A length varint of u64::MAX used to wrap `pos + len` past the
        // bounds check and panic on the slice.
        let mut data = vec![0xff; 9];
        data.push(0x01);
        data.extend([0; 8]);
        assert_eq!(
            Reader::new(&data).bytes(),
            Err(DecodeError::Truncated("bytes"))
        );
        // A key claiming more columns than there are bytes left.
        let mut key = Vec::new();
        put_varint(&mut key, u64::MAX);
        assert!(get_key(&mut Reader::new(&key)).is_err());
    }

    #[test]
    fn unknown_tags_name_the_kind() {
        let err = get_datum(&mut Reader::new(&[99])).unwrap_err();
        assert_eq!(
            err,
            DecodeError::UnknownTag {
                kind: "datum",
                tag: 99
            }
        );
        assert!(err.to_string().contains("datum"));
    }
}
