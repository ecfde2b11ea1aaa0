//! The database: a catalog of tables plus the shared buffer pool.
//!
//! The pool counts page accesses only when it is bounded, as in the
//! Tuffy-mm baseline's database; [`Database::in_memory`], the grounder's,
//! counts none.
//!
//! One kind of derived state hangs off each table: the per-column
//! equality indexes. They live in the [`Table`] itself, built on first
//! use by whoever reads through `&Database` (the planner, the executor,
//! the grounder's chunker, from any thread), and dropped by the table on
//! any change to its rows — whether it arrives through
//! [`Database::insert`], [`Database::bulk_load`],
//! [`Database::update_cell`], [`Database::truncate`] or the `&mut Table`
//! that [`Database::table_mut`] hands out.

use crate::bufferpool::{BufferPool, DiskModel, IoStats};
use crate::error::DbError;
use crate::schema::TableSchema;
use crate::storage::Table;
use tuffy_mln::fxhash::FxHashMap;

/// A dense table identifier.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct TableId(pub u32);

impl TableId {
    /// Raw index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// An embedded database instance: tables and a buffer pool.
pub struct Database {
    tables: Vec<Table>,
    by_name: FxHashMap<String, TableId>,
    pool: BufferPool,
    disk: DiskModel,
}

impl Database {
    /// Creates a database whose buffer pool holds `pool_pages` pages under
    /// the given disk model. Use [`Database::in_memory`] for the common
    /// no-latency configuration.
    pub fn new(pool_pages: usize, disk: DiskModel) -> Self {
        Database {
            tables: Vec::new(),
            by_name: FxHashMap::default(),
            pool: BufferPool::new(pool_pages),
            disk,
        }
    }

    /// A database whose pool holds every page, under zero I/O latency.
    /// It keeps no I/O counters: its [`Database::io_stats`] stay zero.
    pub fn in_memory() -> Self {
        Self::new(usize::MAX, DiskModel::in_memory())
    }

    /// Creates a table, returning its id. Errors if the name exists.
    pub fn create_table(
        &mut self,
        name: impl Into<String>,
        schema: TableSchema,
    ) -> Result<TableId, DbError> {
        let name = name.into();
        if self.by_name.contains_key(&name) {
            return Err(DbError::BadQuery(format!("table `{name}` already exists")));
        }
        let id = TableId(self.tables.len() as u32);
        self.tables.push(Table::new(name.clone(), schema, id.0));
        self.by_name.insert(name, id);
        Ok(id)
    }

    /// Looks up a table id by name.
    pub fn table_id(&self, name: &str) -> Result<TableId, DbError> {
        self.by_name
            .get(name)
            .copied()
            .ok_or_else(|| DbError::UnknownTable(name.to_string()))
    }

    /// Immutable access to a table.
    pub fn table(&self, id: TableId) -> &Table {
        &self.tables[id.index()]
    }

    /// Mutable access to a table (the table drops its own equality
    /// indexes if its rows change).
    pub fn table_mut(&mut self, id: TableId) -> &mut Table {
        &mut self.tables[id.index()]
    }

    /// The shared buffer pool.
    pub fn pool(&self) -> &BufferPool {
        &self.pool
    }

    /// Cumulative I/O counters of a bounded pool (all zero for
    /// [`Database::in_memory`], which keeps none).
    pub fn io_stats(&self) -> IoStats {
        self.pool.stats()
    }

    /// Simulated I/O time for the counters so far, in nanoseconds.
    pub fn simulated_io_nanos(&self) -> u128 {
        self.pool.stats().simulated_nanos(&self.disk)
    }

    /// Inserts a row into `id`, charging I/O to the shared pool.
    pub fn insert(&mut self, id: TableId, row: &[u32]) -> Result<(), DbError> {
        self.tables[id.index()].insert(row, &self.pool)
    }

    /// Bulk-loads rows into `id`.
    pub fn bulk_load<'a, I>(&mut self, id: TableId, rows: I) -> Result<usize, DbError>
    where
        I: IntoIterator<Item = &'a [u32]>,
    {
        self.tables[id.index()].bulk_load(rows, &self.pool)
    }

    /// Updates one cell of `id`.
    pub fn update_cell(&mut self, id: TableId, row: usize, col: usize, value: u32) {
        self.tables[id.index()].update_cell(row, col, value, &self.pool);
    }

    /// Reads one row of `id` through the shared pool.
    pub fn row(&self, id: TableId, idx: usize) -> crate::storage::Row<'_> {
        self.tables[id.index()].row(idx, &self.pool)
    }

    /// Sequentially scans `id` through the shared pool.
    pub fn scan(&self, id: TableId) -> impl Iterator<Item = crate::storage::Row<'_>> + '_ {
        self.tables[id.index()].scan(&self.pool)
    }

    /// Removes all rows of `id`.
    pub fn truncate(&mut self, id: TableId) {
        self.tables[id.index()].truncate(&self.pool);
    }

    /// Number of tables.
    pub fn table_count(&self) -> usize {
        self.tables.len()
    }

    /// Total bytes across all tables.
    pub fn total_bytes(&self) -> usize {
        self.tables.iter().map(Table::bytes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_lookup_and_insert() {
        let mut db = Database::in_memory();
        let id = db
            .create_table("wrote", TableSchema::new(vec!["author", "paper"]))
            .unwrap();
        assert_eq!(db.table_id("wrote").unwrap(), id);
        assert!(db.table_id("absent").is_err());
        db.insert(id, &[1, 2]).unwrap();
        assert_eq!(db.table(id).len(), 1);
        assert_eq!(db.row(id, 0), &[1, 2]);
        let rows: Vec<Vec<u32>> = db.scan(id).map(|r| r.to_vec()).collect();
        assert_eq!(rows, vec![vec![1, 2]]);
    }

    #[test]
    fn duplicate_name_rejected() {
        let mut db = Database::in_memory();
        db.create_table("t", TableSchema::new(vec!["a"])).unwrap();
        assert!(db.create_table("t", TableSchema::new(vec!["a"])).is_err());
    }
}
