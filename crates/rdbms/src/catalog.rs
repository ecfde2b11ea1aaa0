//! The database: a catalog of tables.
//!
//! One kind of derived state hangs off each table: the per-column
//! equality indexes. They live in the [`Table`] itself, built on first
//! use by whoever reads through `&Database` (the planner, the executor,
//! the grounder's chunker, from any thread), and dropped by the table on
//! any change to its rows — [`Database::insert`], [`Database::append`] or
//! [`Database::truncate`].

use crate::error::DbError;
use crate::schema::TableSchema;
use crate::storage::{Row, Table};
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

/// An embedded database instance: its tables, by id and by name.
#[derive(Default)]
pub struct Database {
    tables: Vec<Table>,
    by_name: FxHashMap<String, TableId>,
}

impl Database {
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
        self.tables.push(Table::new(name.clone(), schema));
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

    /// Reserves room for exactly `rows` more rows in `id`.
    pub fn reserve_exact(&mut self, id: TableId, rows: usize) {
        self.tables[id.index()].reserve_exact(rows);
    }

    /// Inserts a row into `id`.
    pub fn insert(&mut self, id: TableId, row: &[u32]) -> Result<(), DbError> {
        self.tables[id.index()].insert(row)
    }

    /// Appends every row of `from` to `to`, a different table of the same
    /// width.
    pub fn append(&mut self, to: TableId, from: TableId) -> Result<(), DbError> {
        let (to, from) = (to.index(), from.index());
        if to == from {
            return Err(DbError::BadQuery("append: a table onto itself".into()));
        }
        let (low, high) = self.tables.split_at_mut(to.max(from));
        if to < from {
            low[to].append(&high[0])
        } else {
            high[0].append(&low[from])
        }
    }

    /// Sequentially scans `id`.
    pub fn scan(&self, id: TableId) -> impl Iterator<Item = Row<'_>> + '_ {
        self.tables[id.index()].scan()
    }

    /// Removes all rows of `id`.
    pub fn truncate(&mut self, id: TableId) {
        self.tables[id.index()].truncate();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_lookup_and_insert() {
        let mut db = Database::default();
        let id = db
            .create_table("wrote", TableSchema::new(vec!["author", "paper"]))
            .unwrap();
        assert_eq!(db.table_id("wrote").unwrap(), id);
        assert!(db.table_id("absent").is_err());
        db.insert(id, &[1, 2]).unwrap();
        assert_eq!(db.table(id).len(), 1);
        let rows: Vec<Vec<u32>> = db.scan(id).map(|r| r.to_vec()).collect();
        assert_eq!(rows, vec![vec![1, 2]]);
    }

    #[test]
    fn duplicate_name_rejected() {
        let mut db = Database::default();
        db.create_table("t", TableSchema::new(vec!["a"])).unwrap();
        assert!(db.create_table("t", TableSchema::new(vec!["a"])).is_err());
    }
}
