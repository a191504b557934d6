//! `(table, row key) → V` map probed through a borrowed `&RowKey`.
//!
//! A flat `HashMap<(TableId, RowKey), V>` forces every lookup to build
//! an owned tuple, i.e. to clone the key's datum vector per probe. This
//! map nests instead (table, then row key) over the fast hasher, so
//! lookups borrow and the key is cloned only when an entry is first
//! inserted. The lock table, the replica applier's pending-tuple locks
//! and the transaction write overlay are all this shape.
//!
//! Iteration order is unspecified; callers must not let it reach
//! results (sort, or fold with an order-insensitive operation).

use crate::fxhash::FxHashMap;
use crate::ids::TableId;
use crate::row::RowKey;

#[derive(Debug, Clone)]
pub struct RowMap<V> {
    tables: FxHashMap<TableId, FxHashMap<RowKey, V>>,
}

impl<V> Default for RowMap<V> {
    fn default() -> Self {
        RowMap {
            tables: FxHashMap::default(),
        }
    }
}

impl<V> RowMap<V> {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn get(&self, table: TableId, key: &RowKey) -> Option<&V> {
        self.tables.get(&table)?.get(key)
    }

    pub fn get_mut(&mut self, table: TableId, key: &RowKey) -> Option<&mut V> {
        self.tables.get_mut(&table)?.get_mut(key)
    }

    pub fn contains_key(&self, table: TableId, key: &RowKey) -> bool {
        self.get(table, key).is_some()
    }

    /// Set the entry, returning the value it replaced. Clones `key` only
    /// when the entry is new.
    pub fn insert(&mut self, table: TableId, key: &RowKey, value: V) -> Option<V> {
        let rows = self.tables.entry(table).or_default();
        match rows.get_mut(key) {
            Some(slot) => Some(std::mem::replace(slot, value)),
            None => {
                rows.insert(key.clone(), value);
                None
            }
        }
    }

    pub fn remove(&mut self, table: TableId, key: &RowKey) -> Option<V> {
        self.tables.get_mut(&table)?.remove(key)
    }

    /// Every entry of one table.
    pub fn in_table(&self, table: TableId) -> impl Iterator<Item = (&RowKey, &V)> {
        self.tables.get(&table).into_iter().flatten()
    }

    pub fn iter(&self) -> impl Iterator<Item = (TableId, &RowKey, &V)> {
        self.tables
            .iter()
            .flat_map(|(&t, rows)| rows.iter().map(move |(k, v)| (t, k, v)))
    }

    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut V> {
        self.tables.values_mut().flat_map(|rows| rows.values_mut())
    }

    /// Keep only the entries whose value satisfies `keep`.
    pub fn retain(&mut self, mut keep: impl FnMut(&V) -> bool) {
        for rows in self.tables.values_mut() {
            rows.retain(|_, v| keep(v));
        }
    }

    pub fn len(&self) -> usize {
        self.tables.values().map(|rows| rows.len()).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn clear(&mut self) {
        self.tables.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const T1: TableId = TableId(1);
    const T2: TableId = TableId(2);

    #[test]
    fn same_key_in_two_tables_is_two_entries() {
        let mut m = RowMap::new();
        let k = RowKey::single(7i64);
        assert_eq!(m.insert(T1, &k, "a"), None);
        assert_eq!(m.insert(T2, &k, "b"), None);
        assert_eq!(m.insert(T1, &k, "c"), Some("a"));
        assert_eq!(m.get(T1, &k), Some(&"c"));
        assert_eq!(m.get(T2, &k), Some(&"b"));
        assert_eq!(m.len(), 2);
        assert_eq!(m.remove(T1, &k), Some("c"));
        assert!(!m.contains_key(T1, &k));
        assert!(m.contains_key(T2, &k));
    }

    #[test]
    fn iteration_covers_every_entry_once() {
        let mut m = RowMap::new();
        for i in 0..10i64 {
            m.insert(if i % 2 == 0 { T1 } else { T2 }, &RowKey::single(i), i);
        }
        let mut all: Vec<i64> = m.iter().map(|(_, _, &v)| v).collect();
        all.sort_unstable();
        assert_eq!(all, (0..10).collect::<Vec<_>>());
        let mut evens: Vec<i64> = m.in_table(T1).map(|(_, &v)| v).collect();
        evens.sort_unstable();
        assert_eq!(evens, vec![0, 2, 4, 6, 8]);
        assert_eq!(m.in_table(TableId(9)).count(), 0);
        m.values_mut().for_each(|v| *v += 100);
        m.retain(|&v| v >= 105);
        assert_eq!(m.len(), 5);
        m.clear();
        assert!(m.is_empty());
    }
}
