//! SQL values and their types.

use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

/// The SQL data types supported by the engine — the set needed by the TPC-C
/// and Sysbench schemas (integers, decimals-as-scaled-integers, text,
/// timestamps-as-integers).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DataType {
    /// 64-bit signed integer.
    Int,
    /// Fixed-point decimal stored as a scaled i64 (TPC-C money columns).
    /// The scale (digits after the point) is part of the column definition.
    Decimal,
    /// Variable-length UTF-8 string.
    Text,
    /// Boolean.
    Bool,
}

/// A single SQL value.
///
/// `Decimal` carries its scaled integer representation; arithmetic on
/// decimals is the caller's responsibility (the executor keeps track of
/// scales via the schema).
///
/// `Text` is a shared, immutable string: cloning a datum (and so a row
/// image) bumps a reference count instead of copying the bytes, so the
/// versions, write sets, redo records and replica copies of one value
/// all point at one allocation. Hashing, ordering and `Display` see only
/// the string, exactly as they would a `String`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Datum {
    Null,
    Int(i64),
    Decimal(i64),
    Text(Arc<str>),
    Bool(bool),
}

impl Datum {
    /// The type of this value, or `None` for NULL (which is typeless).
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Datum::Null => None,
            Datum::Int(_) => Some(DataType::Int),
            Datum::Decimal(_) => Some(DataType::Decimal),
            Datum::Text(_) => Some(DataType::Text),
            Datum::Bool(_) => Some(DataType::Bool),
        }
    }

    /// True if this is the SQL NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, Datum::Null)
    }

    /// Extract an integer, if this is one.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Datum::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// Extract a decimal's scaled representation, if this is one.
    /// Integers coerce to decimals (scale handled by the caller).
    pub fn as_decimal(&self) -> Option<i64> {
        match self {
            Datum::Decimal(v) | Datum::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// Extract a string slice, if this is text.
    pub fn as_text(&self) -> Option<&str> {
        match self {
            Datum::Text(s) => Some(s.as_ref()),
            _ => None,
        }
    }

    /// SQL comparison: NULL compares as unknown (`None`); numeric types
    /// compare across Int/Decimal by raw value.
    pub fn sql_cmp(&self, other: &Datum) -> Option<Ordering> {
        match (self, other) {
            (Datum::Null, _) | (_, Datum::Null) => None,
            (Datum::Int(a), Datum::Int(b)) => Some(a.cmp(b)),
            (Datum::Decimal(a), Datum::Decimal(b)) => Some(a.cmp(b)),
            (Datum::Int(a), Datum::Decimal(b)) | (Datum::Decimal(a), Datum::Int(b)) => {
                Some(a.cmp(b))
            }
            (Datum::Text(a), Datum::Text(b)) => Some(a.cmp(b)),
            (Datum::Bool(a), Datum::Bool(b)) => Some(a.cmp(b)),
            _ => None,
        }
    }

    /// Total order used for index keys and ORDER BY: NULLs sort first, then
    /// by type tag, then by value. Unlike [`Datum::sql_cmp`] this is total.
    pub fn key_cmp(&self, other: &Datum) -> Ordering {
        fn rank(d: &Datum) -> u8 {
            match d {
                Datum::Null => 0,
                Datum::Bool(_) => 1,
                Datum::Int(_) => 2,
                Datum::Decimal(_) => 2, // numeric types share a rank
                Datum::Text(_) => 3,
            }
        }
        match (self, other) {
            (Datum::Null, Datum::Null) => Ordering::Equal,
            (Datum::Int(a), Datum::Int(b)) => a.cmp(b),
            (Datum::Decimal(a), Datum::Decimal(b)) => a.cmp(b),
            (Datum::Int(a), Datum::Decimal(b)) | (Datum::Decimal(a), Datum::Int(b)) => a.cmp(b),
            (Datum::Text(a), Datum::Text(b)) => a.cmp(b),
            (Datum::Bool(a), Datum::Bool(b)) => a.cmp(b),
            (a, b) => rank(a).cmp(&rank(b)),
        }
    }

    /// A stable 64-bit hash of the value, used for hash distribution of rows
    /// to shards. Independent of the process's default hasher so that shard
    /// placement is deterministic across runs.
    pub fn stable_hash(&self) -> u64 {
        // FNV-1a over a tag byte plus the value bytes.
        const OFFSET: u64 = 0xcbf29ce484222325;
        const PRIME: u64 = 0x100000001b3;
        fn fnv(bytes: &[u8], mut h: u64) -> u64 {
            for &b in bytes {
                h ^= b as u64;
                h = h.wrapping_mul(PRIME);
            }
            h
        }
        match self {
            Datum::Null => fnv(&[0], OFFSET),
            Datum::Int(v) | Datum::Decimal(v) => fnv(&v.to_le_bytes(), fnv(&[1], OFFSET)),
            Datum::Text(s) => fnv(s.as_bytes(), fnv(&[2], OFFSET)),
            Datum::Bool(b) => fnv(&[*b as u8], fnv(&[3], OFFSET)),
        }
    }
}

/// The [`Datum::key_cmp`] order, so that a key's datums compare as a
/// slice (`[Datum]`) exactly as the [`crate::RowKey`] holding them.
impl Ord for Datum {
    fn cmp(&self, other: &Self) -> Ordering {
        self.key_cmp(other)
    }
}

impl PartialOrd for Datum {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl fmt::Display for Datum {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Datum::Null => write!(f, "NULL"),
            Datum::Int(v) => write!(f, "{v}"),
            Datum::Decimal(v) => write!(f, "{v}¤"),
            Datum::Text(s) => write!(f, "'{s}'"),
            Datum::Bool(b) => write!(f, "{b}"),
        }
    }
}

impl From<i64> for Datum {
    fn from(v: i64) -> Self {
        Datum::Int(v)
    }
}

impl From<&str> for Datum {
    fn from(v: &str) -> Self {
        Datum::Text(v.into())
    }
}

impl From<String> for Datum {
    fn from(v: String) -> Self {
        Datum::Text(v.into())
    }
}

impl From<bool> for Datum {
    fn from(v: bool) -> Self {
        Datum::Bool(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_comparisons_are_unknown() {
        assert_eq!(Datum::Null.sql_cmp(&Datum::Int(1)), None);
        assert_eq!(Datum::Int(1).sql_cmp(&Datum::Null), None);
    }

    #[test]
    fn numeric_cross_type_compare() {
        assert_eq!(
            Datum::Int(5).sql_cmp(&Datum::Decimal(5)),
            Some(Ordering::Equal)
        );
        assert_eq!(
            Datum::Decimal(4).sql_cmp(&Datum::Int(5)),
            Some(Ordering::Less)
        );
    }

    #[test]
    fn key_cmp_is_total_nulls_first() {
        assert_eq!(Datum::Null.key_cmp(&Datum::Int(-100)), Ordering::Less);
        assert_eq!(
            Datum::Int(1).key_cmp(&Datum::Text("a".into())),
            Ordering::Less
        );
        assert_eq!(Datum::Null.key_cmp(&Datum::Null), Ordering::Equal);
    }

    #[test]
    fn stable_hash_differs_by_type_tag() {
        assert_ne!(
            Datum::Int(0).stable_hash(),
            Datum::Bool(false).stable_hash()
        );
        assert_ne!(Datum::Int(1).stable_hash(), Datum::Int(2).stable_hash());
        // Deterministic across calls.
        assert_eq!(
            Datum::Text("hello".into()).stable_hash(),
            Datum::Text("hello".into()).stable_hash()
        );
    }

    #[test]
    fn text_clones_share_one_string() {
        assert_eq!(std::mem::size_of::<Datum>(), 24);
        let a = Datum::from("shared");
        let b = a.clone();
        match (&a, &b) {
            (Datum::Text(x), Datum::Text(y)) => assert!(Arc::ptr_eq(x, y)),
            _ => unreachable!(),
        }
    }

    #[test]
    fn conversions() {
        assert_eq!(Datum::from(42i64), Datum::Int(42));
        assert_eq!(Datum::from("x"), Datum::Text("x".into()));
        assert_eq!(Datum::from(true), Datum::Bool(true));
        assert!(Datum::Null.is_null());
        assert_eq!(Datum::Int(3).as_int(), Some(3));
        assert_eq!(Datum::Text("t".into()).as_text(), Some("t"));
    }
}
