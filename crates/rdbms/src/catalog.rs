//! The database: a catalog of tables plus the shared buffer pool.
//!
//! The pool counts page accesses only when it is bounded, as in the
//! Tuffy-mm baseline's database; [`Database::in_memory`], the grounder's,
//! counts none.
//!
//! Two kinds of derived state hang off each table, and a mutation drops
//! both. Statistics (`ANALYZE`, [`Database::analyze`]) live here and are
//! dropped by every mutator below, [`Database::table_mut`] included. The
//! per-column equality indexes live in the [`Table`] itself, built on
//! first use by whoever reads through `&Database` (the planner, the
//! executor, the grounder's chunker, from any thread), and dropped by the
//! table on any change to its rows — whether it arrives through
//! [`Database::insert`], [`Database::bulk_load`],
//! [`Database::update_cell`], [`Database::truncate`] or the `&mut Table`
//! that [`Database::table_mut`] hands out.

use crate::bufferpool::{BufferPool, DiskModel, IoStats};
use crate::error::DbError;
use crate::schema::TableSchema;
use crate::stats::TableStats;
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

/// An embedded database instance: tables, statistics, and a buffer pool.
pub struct Database {
    tables: Vec<Table>,
    by_name: FxHashMap<String, TableId>,
    stats: Vec<Option<TableStats>>,
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
            stats: Vec::new(),
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
        self.stats.push(None);
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

    /// Mutable access to a table (invalidates its statistics; the table
    /// drops its own equality indexes if its rows change).
    pub fn table_mut(&mut self, id: TableId) -> &mut Table {
        self.stats[id.index()] = None;
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

    /// Computes (and caches) statistics for `id` — `ANALYZE`.
    pub fn analyze(&mut self, id: TableId) -> &TableStats {
        if self.stats[id.index()].is_none() {
            let t = &self.tables[id.index()];
            self.stats[id.index()] = Some(TableStats::compute(t, &self.pool));
        }
        self.stats[id.index()].as_ref().unwrap()
    }

    /// Cached statistics if `ANALYZE` has run since the last mutation.
    pub fn stats(&self, id: TableId) -> Option<&TableStats> {
        self.stats[id.index()].as_ref()
    }

    /// `ANALYZE` for every table whose statistics are stale or absent.
    /// Cheap to call repeatedly: tables untouched since the last analyze
    /// keep their cached statistics. The grounder runs this at the start
    /// of each closure round so the immutable [`crate::plan_query`] path
    /// (required by parallel planning) always sees fresh statistics.
    pub fn analyze_all(&mut self) {
        for i in 0..self.tables.len() {
            self.analyze(TableId(i as u32));
        }
    }

    /// Inserts a row into `id`, charging I/O to the shared pool.
    pub fn insert(&mut self, id: TableId, row: &[u32]) -> Result<(), DbError> {
        self.stats[id.index()] = None;
        self.tables[id.index()].insert(row, &self.pool)
    }

    /// Bulk-loads rows into `id`.
    pub fn bulk_load<'a, I>(&mut self, id: TableId, rows: I) -> Result<usize, DbError>
    where
        I: IntoIterator<Item = &'a [u32]>,
    {
        self.stats[id.index()] = None;
        self.tables[id.index()].bulk_load(rows, &self.pool)
    }

    /// Updates one cell of `id`.
    pub fn update_cell(&mut self, id: TableId, row: usize, col: usize, value: u32) {
        self.stats[id.index()] = None;
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
        self.stats[id.index()] = None;
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

    #[test]
    fn analyze_invalidated_by_mutation() {
        let mut db = Database::in_memory();
        let id = db.create_table("t", TableSchema::new(vec!["a"])).unwrap();
        db.analyze(id);
        assert!(db.stats(id).is_some());
        db.table_mut(id); // any mutable access invalidates
        assert!(db.stats(id).is_none());
    }
}
