//! Heap tables with a page-packing model for logical-I/O accounting.
//!
//! The paper's §4.3 technique ("predicates evaluated in the storage engine")
//! bases progress on the *fraction of logical I/O operations issued* while
//! scanning a table. To make that meaningful in the simulator, every table
//! models an on-disk layout: rows are packed into fixed-size pages and scans
//! report one logical read per page touched.

use crate::schema::{Schema, SchemaError};
use crate::value::Value;
use std::sync::Arc;

/// Simulated page size in bytes (SQL Server uses 8 KiB pages).
pub(crate) const PAGE_SIZE: usize = 8192;

/// Per-page header overhead in bytes (slot array, header).
pub(crate) const PAGE_HEADER: usize = 96;

/// A row is a boxed slice of values; `Arc` keeps spools/buffers cheap.
pub type Row = Arc<[Value]>;

/// Identifies a row within its table (heap RID).
pub type RowId = usize;

/// A heap table: schema + row store + derived page layout.
#[derive(Debug, Clone)]
pub struct Table {
    name: String,
    schema: Schema,
    rows: Vec<Row>,
    /// `page_of[r]` = page number holding row `r`.
    page_of: Vec<u32>,
    /// Total number of data pages.
    page_count: usize,
    /// Bytes still free on the last page (greedy packer state).
    space_left: usize,
}

impl Table {
    /// Create an empty table.
    pub fn new(name: impl Into<String>, schema: Schema) -> Self {
        Table {
            name: name.into(),
            schema,
            rows: Vec::new(),
            page_of: Vec::new(),
            page_count: 0,
            space_left: 0,
        }
    }

    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Table schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows.
    pub fn row_count(&self) -> usize {
        self.rows.len()
    }

    /// Number of data pages (≥ 1 once any row exists).
    pub fn page_count(&self) -> usize {
        self.page_count
    }

    /// The page number of a row, for I/O charging during scans.
    pub fn page_of(&self, rid: RowId) -> usize {
        self.page_of[rid] as usize
    }

    /// All rows, in heap (insertion) order.
    pub fn rows(&self) -> &[Row] {
        &self.rows
    }

    /// The row with the given id.
    pub fn row(&self, rid: RowId) -> &Row {
        &self.rows[rid]
    }

    /// Append a row, validating it against the schema.
    pub fn insert(&mut self, row: Vec<Value>) -> Result<RowId, SchemaError> {
        self.schema.validate_row(&row)?;
        let width: usize = row.iter().map(Value::byte_width).sum::<usize>() + 8; // slot overhead
        let rid = self.rows.len();
        // Page packing: greedy fill. Track remaining space in the last page
        // via a small recomputation from the previous row's page.
        let page = if rid == 0 {
            self.space_left = PAGE_SIZE - PAGE_HEADER;
            0
        } else {
            let last_page = self.page_of[rid - 1] as usize;
            if width <= self.space_left {
                last_page
            } else {
                self.space_left = PAGE_SIZE - PAGE_HEADER;
                last_page + 1
            }
        };
        self.space_left = self.space_left.saturating_sub(width);
        self.page_of.push(page as u32);
        self.page_count = page + 1;
        self.rows.push(row.into());
        Ok(rid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Column;
    use crate::value::DataType;

    fn table() -> Table {
        Table::new(
            "t",
            Schema::new(vec![
                Column::new("id", DataType::Int),
                Column::new("payload", DataType::Str),
            ]),
        )
    }

    #[test]
    fn insert_and_read_back() {
        let mut t = table();
        let rid = t.insert(vec![Value::Int(1), Value::str("x")]).unwrap();
        assert_eq!(rid, 0);
        assert_eq!(t.row_count(), 1);
        assert_eq!(t.row(0)[0], Value::Int(1));
    }

    #[test]
    fn schema_violation_rejected() {
        let mut t = table();
        assert!(t.insert(vec![Value::str("no"), Value::str("x")]).is_err());
        assert_eq!(t.row_count(), 0);
    }

    #[test]
    fn page_packing_monotone_and_dense() {
        let mut t = table();
        for i in 0..5000 {
            t.insert(vec![Value::Int(i), Value::str("some payload text")])
                .unwrap();
        }
        // Pages are assigned monotonically.
        for r in 1..t.row_count() {
            assert!(t.page_of(r) >= t.page_of(r - 1));
            assert!(t.page_of(r) <= t.page_of(r - 1) + 1);
        }
        // Each row is 8 (int) + 19 (str) + 8 (slot) = 35 bytes; 8096/35 ≈ 231
        // rows per page.
        let expected_pages = 5000 / 231;
        assert!(
            t.page_count() >= expected_pages - 3 && t.page_count() <= expected_pages + 5,
            "page_count {} not near {}",
            t.page_count(),
            expected_pages
        );
    }

    #[test]
    fn empty_table_has_zero_pages() {
        assert_eq!(table().page_count(), 0);
    }
}
