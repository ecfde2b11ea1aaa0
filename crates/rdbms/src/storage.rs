//! Flat row storage.
//!
//! A table holds its fixed-width `u32` rows in one row-major vector: row
//! `i` occupies words `i*width..(i+1)*width`. A sequential scan walks it
//! in whole rows, and a lookup slices rows by id.
//!
//! # Equality indexes
//!
//! Each column can carry an equality index: its distinct values, sorted,
//! with the ascending ids of the rows holding each (a CSR). An index is
//! built on first use ([`Table::lookup`]) behind a `OnceLock`, so
//! readers that share a `&Table` — the planner and the grounder's worker
//! pool — build it at most once between mutations. Every mutation of the
//! rows (`insert`, `append`, `truncate`) goes through one private accessor
//! that drops every index, so a lookup never serves rows the table no
//! longer holds.

use crate::error::DbError;
use crate::schema::TableSchema;
use std::sync::OnceLock;

/// Rows per page. The optimizer reads a constant selection through the
/// equality index only on a table longer than one page, and the Tuffy-mm
/// baseline counts its simulated disk reads in pages of this many rows.
/// With 4-byte values, a 4-column page is ~16 KiB, in the ballpark of
/// PostgreSQL's 8 KiB heap pages.
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
    fn build(table: &Table, col: usize) -> ColumnIndex {
        assert!(
            u32::try_from(table.len()).is_ok(),
            "row ids of an indexed table fit in u32"
        );
        let mut keys: Vec<u64> = table
            .scan()
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

/// A heap table: schema + flat rows.
#[derive(Clone, Debug)]
pub struct Table {
    /// Table name (unique within a database).
    pub name: String,
    /// Column schema.
    pub schema: TableSchema,
    width: usize,
    /// Row-major rows, `width` words each.
    words: Vec<u32>,
    /// One lazily built equality index per column; emptied by every
    /// mutation (module docs).
    index: Vec<OnceLock<ColumnIndex>>,
}

impl Table {
    /// Creates an empty table. Arity-0 tables are not supported.
    pub fn new(name: impl Into<String>, schema: TableSchema) -> Self {
        let width = schema.arity().max(1);
        Table {
            name: name.into(),
            schema,
            width,
            words: Vec::new(),
            index: (0..width).map(|_| OnceLock::new()).collect(),
        }
    }

    /// The rows, for writing: the one path to mutable row data, so every
    /// mutation drops the equality indexes built over the old rows.
    fn words_mut(&mut self) -> &mut Vec<u32> {
        for index in &mut self.index {
            index.take();
        }
        &mut self.words
    }

    /// The equality index of column `col`, built on first use.
    pub(crate) fn index(&self, col: usize) -> &ColumnIndex {
        self.index[col].get_or_init(|| ColumnIndex::build(self, col))
    }

    /// The rows whose column `col` equals `value`, in table order, read
    /// through the column's equality index.
    pub fn lookup(&self, col: usize, value: u32) -> impl Iterator<Item = Row<'_>> + '_ {
        let width = self.width;
        self.index(col)
            .postings(value)
            .iter()
            .map(move |&id| &self.words[id as usize * width..(id as usize + 1) * width])
    }

    /// Number of rows.
    #[inline]
    pub fn len(&self) -> usize {
        self.words.len() / self.width
    }

    /// Whether the table has no rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Row width (arity).
    #[inline]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Reserves room for exactly `rows` more rows.
    pub fn reserve_exact(&mut self, rows: usize) {
        self.words.reserve_exact(rows * self.width);
    }

    /// Appends a row.
    pub fn insert(&mut self, row: &[u32]) -> Result<(), DbError> {
        self.check_width(row.len())?;
        self.words_mut().extend_from_slice(row);
        Ok(())
    }

    /// Appends every row of `other`, which must have the same width.
    pub fn append(&mut self, other: &Table) -> Result<(), DbError> {
        self.check_width(other.width)?;
        self.words_mut().extend_from_slice(&other.words);
        Ok(())
    }

    fn check_width(&self, got: usize) -> Result<(), DbError> {
        if got == self.width {
            Ok(())
        } else {
            Err(DbError::ArityMismatch {
                got,
                expected: self.width,
            })
        }
    }

    /// Iterates over all rows in table order.
    pub fn scan(&self) -> std::slice::ChunksExact<'_, u32> {
        self.words.chunks_exact(self.width)
    }

    /// Removes all rows.
    pub fn truncate(&mut self) {
        self.words_mut().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> Table {
        Table::new("t", TableSchema::new(vec!["a", "b"]))
    }

    #[test]
    fn insert_and_read_roundtrip() {
        let mut t = table();
        t.insert(&[1, 2]).unwrap();
        t.insert(&[3, 4]).unwrap();
        assert_eq!(t.len(), 2);
        let rows: Vec<&[u32]> = t.scan().collect();
        assert_eq!(rows, [&[1, 2], &[3, 4]]);
    }

    #[test]
    fn arity_checked() {
        let mut t = table();
        assert!(t.insert(&[1]).is_err());
        let wide = Table::new("w", TableSchema::new(vec!["a", "b", "c"]));
        assert!(t.append(&wide).is_err());
    }

    #[test]
    fn scan_crosses_page_boundaries() {
        let mut t = table();
        let n = PAGE_ROWS + 7;
        for i in 0..n {
            t.insert(&[i as u32, (i * 2) as u32]).unwrap();
        }
        let rows: Vec<&[u32]> = t.scan().collect();
        assert_eq!(rows.len(), n);
        assert_eq!(rows[PAGE_ROWS], [PAGE_ROWS as u32, 2 * PAGE_ROWS as u32]);
    }

    #[test]
    fn truncate_clears() {
        let mut t = table();
        t.insert(&[1, 2]).unwrap();
        t.truncate();
        assert!(t.is_empty());
        assert_eq!(t.scan().count(), 0);
    }

    #[test]
    fn append_copies_rows_in_order() {
        let mut t = table();
        t.insert(&[1, 2]).unwrap();
        let mut u = table();
        u.insert(&[0, 0]).unwrap();
        u.append(&t).unwrap();
        u.append(&t).unwrap();
        let rows: Vec<&[u32]> = u.scan().collect();
        assert_eq!(rows, [&[0, 0], &[1, 2], &[1, 2]]);
    }

    #[test]
    fn lookup_reads_matching_rows_on_their_pages_only() {
        let mut t = table();
        for i in 0..(3 * PAGE_ROWS) {
            // Value 7 sits only on the first and third pages.
            let v = if i % PAGE_ROWS == 5 && i / PAGE_ROWS != 1 {
                7
            } else {
                1
            };
            t.insert(&[v, i as u32]).unwrap();
        }
        let index = t.index(0);
        assert_eq!(index.postings(7), &[5, 2 * PAGE_ROWS as u32 + 5]);
        assert_eq!(index.postings(1).len(), 3 * PAGE_ROWS - 2);
        assert!(index.postings(2).is_empty());
        let rows: Vec<Vec<u32>> = t.lookup(0, 7).map(<[u32]>::to_vec).collect();
        assert_eq!(rows, vec![vec![7, 5], vec![7, 2 * PAGE_ROWS as u32 + 5]]);
        t.insert(&[7, 0]).unwrap();
        assert_eq!(t.lookup(0, 7).count(), 3, "a mutation drops the index");
    }
}
