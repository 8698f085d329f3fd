//! The database catalog: tables, B+tree indexes, columnstore indexes and
//! statistics, addressed by id.
//!
//! The catalog also exposes the simulator's analog of the
//! `sys.column_store_segments` DMV, which the client-side progress estimator
//! queries for segment totals (paper §4.7).

use crate::btree::BTreeIndex;
use crate::columnstore::ColumnstoreIndex;
use crate::stats::TableStats;
use crate::table::Table;

/// Identifies a table in the catalog.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TableId(pub usize);

/// Identifies a B+tree index in the catalog.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct IndexId(pub usize);

/// Identifies a columnstore index in the catalog.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ColumnstoreId(pub usize);

struct IndexEntry {
    table: TableId,
    index: BTreeIndex,
}

struct ColumnstoreEntry {
    table: TableId,
    index: ColumnstoreIndex,
}

/// One row of the simulated `sys.column_store_segments` view.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnstoreSegmentRow {
    /// Owning columnstore index.
    pub(crate) columnstore: ColumnstoreId,
    /// Owning table.
    pub table: TableId,
    /// Segment ordinal.
    pub(crate) segment_id: usize,
    /// Rows in the segment.
    pub(crate) row_count: usize,
}

/// An in-memory database: the unit the executor and planner operate on.
#[derive(Default)]
pub struct Database {
    tables: Vec<Table>,
    stats: Vec<Option<TableStats>>,
    indexes: Vec<IndexEntry>,
    columnstores: Vec<ColumnstoreEntry>,
}

impl Database {
    /// An empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a table. Statistics are computed lazily via
    /// [`Database::analyze`] or eagerly with [`Database::add_table_analyzed`].
    pub(crate) fn add_table(&mut self, table: Table) -> TableId {
        let id = TableId(self.tables.len());
        self.tables.push(table);
        self.stats.push(None);
        id
    }

    /// Register a table and immediately compute its statistics.
    pub fn add_table_analyzed(&mut self, table: Table) -> TableId {
        let id = self.add_table(table);
        self.analyze(id);
        id
    }

    /// (Re)compute statistics for a table.
    pub(crate) fn analyze(&mut self, id: TableId) {
        self.stats[id.0] = Some(TableStats::compute(&self.tables[id.0]));
    }

    /// The table with the given id.
    pub fn table(&self, id: TableId) -> &Table {
        &self.tables[id.0]
    }

    /// Look up a table by name.
    pub fn table_by_name(&self, name: &str) -> Option<TableId> {
        self.tables
            .iter()
            .position(|t| t.name() == name)
            .map(TableId)
    }

    /// Number of tables.
    pub fn table_count(&self) -> usize {
        self.tables.len()
    }

    /// Statistics for a table.
    ///
    /// # Panics
    /// Panics if the table was never analyzed — the planner requires stats.
    pub fn stats(&self, id: TableId) -> &TableStats {
        self.stats[id.0]
            .as_ref()
            .unwrap_or_else(|| panic!("table {:?} has no statistics; call analyze()", id))
    }

    /// Statistics for a table, or `None` if it was never analyzed.
    /// Robust consumers (the progress estimator's statics pass) use this
    /// and fall back to live physical counts instead of panicking.
    pub fn try_stats(&self, id: TableId) -> Option<&TableStats> {
        self.stats[id.0].as_ref()
    }

    /// Build a B+tree index over `key_columns` of `table`.
    pub fn create_btree_index(
        &mut self,
        name: impl Into<String>,
        table: TableId,
        key_columns: Vec<usize>,
    ) -> IndexId {
        let rows = self.tables[table.0].rows();
        let index = BTreeIndex::bulk_load(name, key_columns, rows);
        let id = IndexId(self.indexes.len());
        self.indexes.push(IndexEntry { table, index });
        id
    }

    /// Build a columnstore index covering all columns of `table`.
    pub fn create_columnstore_index(
        &mut self,
        name: impl Into<String>,
        table: TableId,
    ) -> ColumnstoreId {
        let index = ColumnstoreIndex::build(name, &self.tables[table.0]);
        let id = ColumnstoreId(self.columnstores.len());
        self.columnstores.push(ColumnstoreEntry { table, index });
        id
    }

    /// The B+tree index with the given id.
    pub fn btree(&self, id: IndexId) -> &BTreeIndex {
        &self.indexes[id.0].index
    }

    /// The table an index belongs to.
    pub fn btree_table(&self, id: IndexId) -> TableId {
        self.indexes[id.0].table
    }

    /// The columnstore index with the given id.
    pub fn columnstore(&self, id: ColumnstoreId) -> &ColumnstoreIndex {
        &self.columnstores[id.0].index
    }

    /// The table a columnstore belongs to.
    pub fn columnstore_table(&self, id: ColumnstoreId) -> TableId {
        self.columnstores[id.0].table
    }

    /// The simulated `sys.column_store_segments` view: one row per segment
    /// of every columnstore index in the database.
    pub fn column_store_segments(&self) -> Vec<ColumnstoreSegmentRow> {
        self.columnstores
            .iter()
            .enumerate()
            .flat_map(|(i, e)| {
                e.index
                    .segments()
                    .iter()
                    .map(move |s| ColumnstoreSegmentRow {
                        columnstore: ColumnstoreId(i),
                        table: e.table,
                        segment_id: s.id,
                        row_count: s.row_count,
                    })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Column, Schema};
    use crate::value::{DataType, Value};

    fn db_with_table(n: i64) -> (Database, TableId) {
        let mut t = Table::new(
            "orders",
            Schema::new(vec![
                Column::new("id", DataType::Int),
                Column::new("cust", DataType::Int),
            ]),
        );
        for i in 0..n {
            t.insert(vec![Value::Int(i), Value::Int(i % 37)]).unwrap();
        }
        let mut db = Database::new();
        let id = db.add_table_analyzed(t);
        (db, id)
    }

    #[test]
    fn catalog_lookup() {
        let (db, id) = db_with_table(100);
        assert_eq!(db.table_by_name("orders"), Some(id));
        assert_eq!(db.table_by_name("nope"), None);
        assert_eq!(db.table(id).row_count(), 100);
        assert_eq!(db.stats(id).row_count, 100.0);
    }

    #[test]
    fn btree_index_over_table() {
        let (mut db, id) = db_with_table(1000);
        let ix = db.create_btree_index("ix_cust", id, vec![1]);
        let (rids, _) = db.btree(ix).seek(&[Value::Int(5)]);
        assert!(!rids.is_empty());
        for rid in rids {
            assert_eq!(db.table(id).row(rid)[1], Value::Int(5));
        }
        assert_eq!(db.btree_table(ix), id);
    }

    #[test]
    fn columnstore_segments_dmv() {
        let (mut db, id) = db_with_table(10_000);
        let cs = db.create_columnstore_index("cs_orders", id);
        let rows = db.column_store_segments();
        assert_eq!(rows.len(), db.columnstore(cs).segment_count());
        let total: usize = rows.iter().map(|r| r.row_count).sum();
        assert_eq!(total, 10_000);
        assert!(rows.iter().all(|r| r.table == id));
    }

    #[test]
    #[should_panic(expected = "has no statistics")]
    fn stats_require_analyze() {
        let mut db = Database::new();
        let t = Table::new("t", Schema::new(vec![Column::new("a", DataType::Int)]));
        let id = db.add_table(t);
        db.stats(id);
    }
}
