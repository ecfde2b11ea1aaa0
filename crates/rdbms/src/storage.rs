//! Page-based row storage.
//!
//! Rows are fixed-width `u32` tuples stored in pages of [`PAGE_ROWS`] rows.
//! Every page-granularity access is reported to the owning database's
//! [`crate::bufferpool::BufferPool`], which is how the Tuffy-mm baseline
//! models disk residency. Only a bounded pool counts pages; the unbounded
//! pool of [`crate::Database::in_memory`], which grounding uses, returns
//! at once. Tables also expose their exact in-memory footprint, used for
//! the paper's space-efficiency measurements (Tables 4–5).
//!
//! # Equality indexes
//!
//! Each column can carry an equality index: its distinct values, sorted,
//! with the ascending ids of the rows holding each (a CSR). An index is
//! built on first use ([`Table::lookup`]) behind a `OnceLock`, so
//! readers that share a `&Table` — the planner and the grounder's worker
//! pool — build it at most once between mutations. The
//! build reads the table like a sequential scan (one page read per page).
//! Every mutation of the rows (`insert`, `bulk_load`, `update_cell`,
//! `truncate`) goes through one private accessor that drops every index,
//! so a lookup never serves rows the table no longer holds. A lookup
//! charges one page read per distinct page its rows sit on, never more
//! than a sequential scan of the table.

use crate::bufferpool::BufferPool;
use crate::error::DbError;
use crate::schema::TableSchema;
use std::sync::OnceLock;

/// Rows per page. With 4-byte values, a 4-column table has ~16 KiB pages,
/// in the ballpark of PostgreSQL's 8 KiB heap pages.
pub const PAGE_ROWS: usize = 1024;

/// A borrowed row.
pub type Row<'a> = &'a [u32];

/// An equality index over one column: the column's distinct values in
/// ascending order and, for each, the ascending ids of the rows holding
/// it, laid out as one CSR (no per-value allocation).
#[derive(Clone, Debug)]
pub(crate) struct ColumnIndex {
    /// Distinct values, ascending.
    values: Vec<u32>,
    /// `rows[offsets[k]..offsets[k + 1]]` hold `values[k]`.
    offsets: Vec<u32>,
    /// Row ids grouped by value, ascending within each group.
    rows: Vec<u32>,
}

impl ColumnIndex {
    /// Indexes column `col` of `table`: one sort of packed `(value, row)`
    /// keys, then one pass that cuts the sorted keys into groups.
    fn build(table: &Table, col: usize, pool: &BufferPool) -> ColumnIndex {
        assert!(
            u32::try_from(table.len()).is_ok(),
            "row ids of an indexed table fit in u32"
        );
        let mut keys: Vec<u64> = table
            .scan(pool)
            .zip(0u64..)
            .map(|(row, id)| u64::from(row[col]) << 32 | id)
            .collect();
        keys.sort_unstable();
        let mut index = ColumnIndex {
            values: Vec::new(),
            offsets: Vec::new(),
            rows: Vec::with_capacity(keys.len()),
        };
        for key in keys {
            let value = (key >> 32) as u32;
            if index.values.last() != Some(&value) {
                index.values.push(value);
                index.offsets.push(index.rows.len() as u32);
            }
            index.rows.push(key as u32);
        }
        index.offsets.push(index.rows.len() as u32);
        index
    }

    /// Ids of the rows whose column equals `value`, ascending.
    pub(crate) fn postings(&self, value: u32) -> &[u32] {
        match self.values.binary_search(&value) {
            Ok(k) => &self.rows[self.offsets[k] as usize..self.offsets[k + 1] as usize],
            Err(_) => &[],
        }
    }
}

/// A heap table: schema + paged rows.
#[derive(Clone, Debug)]
pub struct Table {
    /// Table name (unique within a database).
    pub name: String,
    /// Column schema.
    pub schema: TableSchema,
    /// Numeric id assigned by the catalog (used in page keys).
    pub id: u32,
    width: usize,
    /// Flattened pages: each holds up to `PAGE_ROWS * width` values.
    pages: Vec<Vec<u32>>,
    nrows: usize,
    /// One lazily built equality index per column; emptied by every
    /// mutation (module docs).
    index: Vec<OnceLock<ColumnIndex>>,
}

impl Table {
    /// Creates an empty table. Arity-0 tables are not supported.
    pub fn new(name: impl Into<String>, schema: TableSchema, id: u32) -> Self {
        let width = schema.arity().max(1);
        Table {
            name: name.into(),
            schema,
            id,
            width,
            pages: Vec::new(),
            nrows: 0,
            index: (0..width).map(|_| OnceLock::new()).collect(),
        }
    }

    /// The pages, for writing: the one path to mutable row data, so every
    /// mutation drops the equality indexes built over the old rows.
    fn pages_mut(&mut self) -> &mut Vec<Vec<u32>> {
        for index in &mut self.index {
            index.take();
        }
        &mut self.pages
    }

    /// The equality index of column `col`, built on first use (charging
    /// `pool` one read per page, as a sequential scan would).
    pub(crate) fn index(&self, col: usize, pool: &BufferPool) -> &ColumnIndex {
        self.index[col].get_or_init(|| ColumnIndex::build(self, col, pool))
    }

    /// The rows whose column `col` equals `value`, in table order, read
    /// through the column's equality index. Charges one page read per
    /// distinct page the matching rows sit on.
    pub fn lookup<'t>(
        &'t self,
        col: usize,
        value: u32,
        pool: &'t BufferPool,
    ) -> impl Iterator<Item = Row<'t>> + 't {
        let mut last_page = usize::MAX;
        self.index(col, pool)
            .postings(value)
            .iter()
            .map(move |&id| {
                let (page, slot) = (id as usize / PAGE_ROWS, id as usize % PAGE_ROWS);
                if page != last_page {
                    pool.touch_read((self.id, page as u32));
                    last_page = page;
                }
                &self.pages[page][slot * self.width..(slot + 1) * self.width]
            })
    }

    /// Number of rows.
    #[inline]
    pub fn len(&self) -> usize {
        self.nrows
    }

    /// Whether the table has no rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.nrows == 0
    }

    /// Row width (arity).
    #[inline]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of pages.
    #[inline]
    pub fn page_count(&self) -> usize {
        self.pages.len()
    }

    /// Appends a row. The write touches the last page via `pool`.
    pub fn insert(&mut self, row: &[u32], pool: &BufferPool) -> Result<(), DbError> {
        if row.len() != self.width {
            return Err(DbError::ArityMismatch {
                got: row.len(),
                expected: self.width,
            });
        }
        let (slot, width) = (self.nrows % PAGE_ROWS, self.width);
        let pages = self.pages_mut();
        if slot == 0 {
            pages.push(Vec::with_capacity(PAGE_ROWS * width));
        }
        let page_idx = pages.len() - 1;
        pages[page_idx].extend_from_slice(row);
        self.nrows += 1;
        pool.touch_write((self.id, page_idx as u32));
        Ok(())
    }

    /// Bulk-loads rows from an iterator (single write accounting per page).
    pub fn bulk_load<'a, I>(&mut self, rows: I, pool: &BufferPool) -> Result<usize, DbError>
    where
        I: IntoIterator<Item = &'a [u32]>,
    {
        let mut n = 0;
        for row in rows {
            self.insert(row, pool)?;
            n += 1;
        }
        Ok(n)
    }

    /// Reads one row by index, charging a page read.
    pub fn row(&self, idx: usize, pool: &BufferPool) -> Row<'_> {
        let page = idx / PAGE_ROWS;
        let slot = idx % PAGE_ROWS;
        pool.touch_read((self.id, page as u32));
        let base = slot * self.width;
        &self.pages[page][base..base + self.width]
    }

    /// Reads a single cell, charging a page read.
    pub fn cell(&self, idx: usize, col: usize, pool: &BufferPool) -> u32 {
        self.row(idx, pool)[col]
    }

    /// Overwrites a single cell, charging a page write.
    pub fn update_cell(&mut self, idx: usize, col: usize, value: u32, pool: &BufferPool) {
        let page = idx / PAGE_ROWS;
        let slot = idx % PAGE_ROWS;
        pool.touch_write((self.id, page as u32));
        let width = self.width;
        self.pages_mut()[page][slot * width + col] = value;
    }

    /// Iterates over all rows sequentially, charging one page read per page.
    pub fn scan<'t>(&'t self, pool: &'t BufferPool) -> impl Iterator<Item = Row<'t>> + 't {
        let width = self.width;
        let id = self.id;
        let nrows = self.nrows;
        self.pages.iter().enumerate().flat_map(move |(pi, page)| {
            pool.touch_read((id, pi as u32));
            let rows_here = if (pi + 1) * PAGE_ROWS <= nrows {
                PAGE_ROWS
            } else {
                nrows - pi * PAGE_ROWS
            };
            (0..rows_here).map(move |s| &page[s * width..(s + 1) * width])
        })
    }

    /// Removes all rows.
    pub fn truncate(&mut self, pool: &BufferPool) {
        self.pages_mut().clear();
        self.nrows = 0;
        pool.evict_table(self.id);
    }

    /// Exact heap footprint of the stored rows, in bytes.
    pub fn bytes(&self) -> usize {
        self.pages.iter().map(|p| p.capacity() * 4).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> (Table, BufferPool) {
        (
            Table::new("t", TableSchema::new(vec!["a", "b"]), 0),
            BufferPool::new(64),
        )
    }

    #[test]
    fn insert_and_read_roundtrip() {
        let (mut t, pool) = table();
        t.insert(&[1, 2], &pool).unwrap();
        t.insert(&[3, 4], &pool).unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t.row(0, &pool), &[1, 2]);
        assert_eq!(t.row(1, &pool), &[3, 4]);
    }

    #[test]
    fn arity_checked() {
        let (mut t, pool) = table();
        assert!(t.insert(&[1], &pool).is_err());
    }

    #[test]
    fn scan_crosses_page_boundaries() {
        let (mut t, pool) = table();
        let n = PAGE_ROWS + 7;
        for i in 0..n {
            t.insert(&[i as u32, (i * 2) as u32], &pool).unwrap();
        }
        assert_eq!(t.page_count(), 2);
        let rows: Vec<Vec<u32>> = t.scan(&pool).map(|r| r.to_vec()).collect();
        assert_eq!(rows.len(), n);
        assert_eq!(
            rows[PAGE_ROWS],
            vec![PAGE_ROWS as u32, 2 * PAGE_ROWS as u32]
        );
    }

    #[test]
    fn update_cell_visible() {
        let (mut t, pool) = table();
        t.insert(&[1, 2], &pool).unwrap();
        t.update_cell(0, 1, 99, &pool);
        assert_eq!(t.row(0, &pool), &[1, 99]);
    }

    #[test]
    fn truncate_clears() {
        let (mut t, pool) = table();
        t.insert(&[1, 2], &pool).unwrap();
        t.truncate(&pool);
        assert!(t.is_empty());
        assert_eq!(t.scan(&pool).count(), 0);
    }

    #[test]
    fn sequential_scan_charges_once_per_page() {
        let (mut t, _unused) = table();
        let pool = BufferPool::new(0); // every touch is a miss, so reads == pages
        for i in 0..(2 * PAGE_ROWS) {
            t.insert(&[i as u32, 0], &pool).unwrap();
        }
        pool.reset_stats();
        let _ = t.scan(&pool).count();
        assert_eq!(pool.stats().page_reads, 2);
    }

    #[test]
    fn lookup_reads_matching_rows_on_their_pages_only() {
        let (mut t, _unused) = table();
        let pool = BufferPool::new(0);
        for i in 0..(3 * PAGE_ROWS) {
            // Value 7 sits only on the first and third pages.
            let v = if i % PAGE_ROWS == 5 && i / PAGE_ROWS != 1 {
                7
            } else {
                1
            };
            t.insert(&[v, i as u32], &pool).unwrap();
        }
        let index = t.index(0, &pool);
        assert_eq!(index.postings(7), &[5, 2 * PAGE_ROWS as u32 + 5]);
        assert_eq!(index.postings(1).len(), 3 * PAGE_ROWS - 2);
        assert!(index.postings(2).is_empty());
        pool.reset_stats();
        let rows: Vec<Vec<u32>> = t.lookup(0, 7, &pool).map(<[u32]>::to_vec).collect();
        assert_eq!(rows, vec![vec![7, 5], vec![7, 2 * PAGE_ROWS as u32 + 5]]);
        assert_eq!(pool.stats().page_reads, 2);
        t.update_cell(0, 0, 7, &pool);
        assert_eq!(
            t.lookup(0, 7, &pool).count(),
            3,
            "a mutation drops the index"
        );
    }
}
