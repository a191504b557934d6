//! Rows and row keys.

use crate::datum::Datum;
use serde::{Deserialize, Serialize};
use std::borrow::Borrow;
use std::cmp::Ordering;
use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

/// A row: a vector of datums in schema column order.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct Row(pub Vec<Datum>);

impl Row {
    pub fn new(values: Vec<Datum>) -> Self {
        Row(values)
    }

    pub fn get(&self, idx: usize) -> Option<&Datum> {
        self.0.get(idx)
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Project the datums at `indices` into a new row (used to extract keys).
    pub fn project(&self, indices: &[usize]) -> Row {
        Row(indices.iter().map(|&i| self.0[i].clone()).collect())
    }
}

impl fmt::Display for Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, d) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, ")")
    }
}

impl From<Vec<Datum>> for Row {
    fn from(v: Vec<Datum>) -> Self {
        Row(v)
    }
}

/// A primary-key value: the tuple of key-column datums.
///
/// Ordered with [`Datum::key_cmp`] so it can index a B-tree; hashed with
/// [`Datum::stable_hash`] so shard placement is deterministic.
///
/// The datums sit in one shared, immutable slice: the lock table, the
/// transaction's lock list and overlay, the write set, the redo record,
/// every replica's copy and the version B-tree all hold the same
/// allocation, and cloning a key bumps a reference count. Hot paths
/// build keys with [`FromIterator`] over an iterator of known length
/// (one allocation) or [`RowKey::try_from_fn`], never a `Vec` first.
///
/// A key is only allocated to be kept. A lookup borrows the datums as a
/// `&[Datum]` — a key dereferences to one, and maps keyed by `RowKey`
/// are probed by one ([`Borrow`]), since a key hashes, compares and
/// orders exactly as its slice does.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct RowKey(pub Arc<[Datum]>);

impl Deref for RowKey {
    type Target = [Datum];

    fn deref(&self) -> &[Datum] {
        &self.0
    }
}

impl Borrow<[Datum]> for RowKey {
    fn borrow(&self) -> &[Datum] {
        &self.0
    }
}

/// A copy of borrowed datums, in one allocation: how a probed key
/// becomes one that is kept.
impl From<&[Datum]> for RowKey {
    fn from(values: &[Datum]) -> Self {
        RowKey(values.into())
    }
}

impl RowKey {
    /// A key from an owned vector (a second allocation; off the hot path).
    pub fn new(values: Vec<Datum>) -> Self {
        RowKey(values.into())
    }

    /// Single-column key helper.
    pub fn single(d: impl Into<Datum>) -> Self {
        std::iter::once(d.into()).collect()
    }

    /// A `len`-column key whose `i`-th datum is `value(i)`, in one
    /// allocation; the first error stops further calls and is returned.
    pub fn try_from_fn<E>(
        len: usize,
        mut value: impl FnMut(usize) -> Result<Datum, E>,
    ) -> Result<RowKey, E> {
        let mut failed = None;
        // `Range` mapped is an exact-length iterator, so the shared slice
        // is allocated once at its final size.
        let key = (0..len)
            .map(|i| {
                if failed.is_none() {
                    match value(i) {
                        Ok(d) => return d,
                        Err(e) => failed = Some(e),
                    }
                }
                Datum::Null
            })
            .collect();
        failed.map_or(Ok(key), Err)
    }

    /// True if this key sorts at or below the upper bound `hi` on `hi`'s
    /// own columns: a bound covers every key it is a prefix of, so
    /// `(1)` admits `(1, 'x')` whatever the later columns hold.
    pub fn within_upper(&self, hi: &[Datum]) -> bool {
        for (a, b) in self.0.iter().zip(hi) {
            match a.key_cmp(b) {
                Ordering::Equal => continue,
                ord => return ord == Ordering::Less,
            }
        }
        true
    }

    /// True if this key lies in the inclusive range `[lo, hi]` (`None` =
    /// unbounded), the upper bound prefix-inclusive as in
    /// [`RowKey::within_upper`].
    pub fn in_range(&self, lo: Option<&[Datum]>, hi: Option<&[Datum]>) -> bool {
        lo.is_none_or(|l| self[..] >= *l) && hi.is_none_or(|h| self.within_upper(h))
    }

    /// Combined stable hash of all key columns (for hash distribution).
    pub fn stable_hash(&self) -> u64 {
        Self::stable_hash_of(self.0.iter())
    }

    /// [`RowKey::stable_hash`] of the key `values` would form, without
    /// building it.
    pub fn stable_hash_of<'d>(values: impl IntoIterator<Item = &'d Datum>) -> u64 {
        let mut h: u64 = 0x9e3779b97f4a7c15;
        for d in values {
            h = h.rotate_left(13) ^ d.stable_hash();
            h = h.wrapping_mul(0xff51afd7ed558ccd);
        }
        h
    }
}

impl FromIterator<Datum> for RowKey {
    fn from_iter<I: IntoIterator<Item = Datum>>(values: I) -> Self {
        RowKey(values.into_iter().collect())
    }
}

impl PartialOrd for RowKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Column by column in [`Datum::key_cmp`] order, a prefix first: the
/// order of the slice of datums.
impl Ord for RowKey {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0[..].cmp(&other.0[..])
    }
}

impl fmt::Display for RowKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, d) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_projection() {
        let r = Row::new(vec![Datum::Int(1), Datum::Text("a".into()), Datum::Int(3)]);
        assert_eq!(
            r.project(&[2, 0]),
            Row::new(vec![Datum::Int(3), Datum::Int(1)])
        );
    }

    #[test]
    fn key_ordering_lexicographic() {
        let a = RowKey::new(vec![Datum::Int(1), Datum::Int(2)]);
        let b = RowKey::new(vec![Datum::Int(1), Datum::Int(3)]);
        let c = RowKey::new(vec![Datum::Int(2)]);
        assert!(a < b);
        assert!(b < c);
        // Prefix sorts before its extension.
        let p = RowKey::new(vec![Datum::Int(1)]);
        assert!(p < a);
    }

    #[test]
    fn upper_bounds_cover_their_extensions() {
        let key = |d: Vec<Datum>| RowKey::new(d);
        let p = key(vec![Datum::Int(1)]);
        let high_text = key(vec![Datum::Int(1), Datum::Text("\u{10FFFF}z".into())]);
        assert!(high_text.within_upper(&p));
        let bound = Some(&p[..]);
        assert!(high_text.in_range(bound, bound));
        assert!(
            p.within_upper(&high_text),
            "a bound's own prefix is below it"
        );
        assert!(!key(vec![Datum::Int(2)]).within_upper(&p));
        assert!(!key(vec![Datum::Int(0), Datum::Int(9)]).in_range(bound, None));
        assert!(key(vec![Datum::Int(5)]).in_range(None, None));
    }

    #[test]
    fn try_from_fn_builds_or_stops_at_the_first_error() {
        let key = RowKey::try_from_fn(3, |i| Ok::<_, ()>(Datum::Int(i as i64))).unwrap();
        assert_eq!(
            key,
            RowKey::new(vec![Datum::Int(0), Datum::Int(1), Datum::Int(2)])
        );
        let mut calls = 0;
        let err = RowKey::try_from_fn(5, |i| {
            calls += 1;
            if i == 1 {
                Err(i)
            } else {
                Ok(Datum::Null)
            }
        });
        assert_eq!(err, Err(1));
        assert_eq!(calls, 2, "no value is computed after the first error");
    }

    #[test]
    fn key_hash_order_independent_of_process() {
        let k = RowKey::new(vec![Datum::Int(42), Datum::Text("w".into())]);
        assert_eq!(k.stable_hash(), k.clone().stable_hash());
        assert_ne!(
            RowKey::single(1i64).stable_hash(),
            RowKey::single(2i64).stable_hash()
        );
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_datum() -> impl Strategy<Value = Datum> {
        prop_oneof![
            Just(Datum::Null),
            any::<i64>().prop_map(Datum::Int),
            any::<i64>().prop_map(Datum::Decimal),
            "[a-z]{0,8}".prop_map(Datum::from),
            any::<bool>().prop_map(Datum::Bool),
        ]
    }

    fn arb_key() -> impl Strategy<Value = RowKey> {
        proptest::collection::vec(arb_datum(), 1..4).prop_map(RowKey::new)
    }

    proptest! {
        /// RowKey ordering is a total order: antisymmetric and transitive
        /// (required for BTreeMap correctness).
        #[test]
        fn key_order_is_total(a in arb_key(), b in arb_key(), c in arb_key()) {
            use std::cmp::Ordering::*;
            // Antisymmetry.
            match a.cmp(&b) {
                Less => prop_assert_eq!(b.cmp(&a), Greater),
                Greater => prop_assert_eq!(b.cmp(&a), Less),
                Equal => prop_assert_eq!(b.cmp(&a), Equal),
            }
            // Transitivity.
            if a.cmp(&b) != Greater && b.cmp(&c) != Greater {
                prop_assert_ne!(a.cmp(&c), Greater);
            }
        }

        /// Equal keys hash equally (stable hash is a function of value).
        #[test]
        fn equal_keys_equal_hashes(a in arb_key()) {
            let b = a.clone();
            prop_assert_eq!(a.stable_hash(), b.stable_hash());
        }

        /// Ordering agrees with equality.
        #[test]
        fn order_consistent_with_eq(a in arb_key(), b in arb_key()) {
            prop_assert_eq!(a == b, a.cmp(&b) == std::cmp::Ordering::Equal);
        }
    }
}
