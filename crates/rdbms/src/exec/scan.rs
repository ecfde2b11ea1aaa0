//! Base-table access with predicate pushdown and projection: a sequential
//! scan, or a lookup through a column's equality index.

use super::Batch;
use crate::pred::Pred;
use crate::storage::{Row, Table};

/// Scans `table`, applying `preds` to each row (pushdown) and projecting to
/// `projection` (or all columns when `None`).
pub fn seq_scan(table: &Table, preds: &[Pred], projection: Option<&[usize]>) -> Batch {
    let width = projection.map_or(table.width(), <[usize]>::len);
    let mut out = Batch::with_capacity(width, table.len());
    seq_scan_into(table, preds, projection, &mut out);
    out
}

/// [`seq_scan`] into a caller-owned batch: `out` is reset to the scan's
/// width and refilled, reusing its allocation.
pub fn seq_scan_into(table: &Table, preds: &[Pred], projection: Option<&[usize]>, out: &mut Batch) {
    out.reset(projection.map_or(table.width(), <[usize]>::len));
    filter_project(table.scan(), preds, projection, out);
}

/// The rows of `table` whose column `col` equals `value`, read through
/// the column's equality index ([`Table::lookup`]), then filtered by
/// `preds` and projected like [`seq_scan`]. Rows come out in table order,
/// so the result equals the sequential scan with the extra predicate
/// `col = value`; the output is sized by the matching rows.
pub fn index_scan(
    table: &Table,
    col: usize,
    value: u32,
    preds: &[Pred],
    projection: Option<&[usize]>,
) -> Batch {
    let matches = table.index(col).postings(value).len();
    let mut out = Batch::with_capacity(projection.map_or(table.width(), <[usize]>::len), matches);
    filter_project(table.lookup(col, value), preds, projection, &mut out);
    out
}

/// Appends the rows satisfying every predicate of `preds`, projected to
/// `projection` (all columns when `None`), to `out`.
fn filter_project<'t>(
    rows: impl Iterator<Item = Row<'t>>,
    preds: &[Pred],
    projection: Option<&[usize]>,
    out: &mut Batch,
) {
    match projection {
        None => {
            for row in rows {
                if preds.iter().all(|p| p.eval(row)) {
                    out.push(row);
                }
            }
        }
        Some(cols) => {
            let mut buf = Vec::with_capacity(cols.len());
            for row in rows {
                if preds.iter().all(|p| p.eval(row)) {
                    buf.clear();
                    buf.extend(cols.iter().map(|&c| row[c]));
                    out.push(&buf);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::TableSchema;

    fn fixture() -> Table {
        let mut t = Table::new("t", TableSchema::new(vec!["a", "b", "c"]));
        t.insert(&[1, 10, 100]).unwrap();
        t.insert(&[2, 20, 200]).unwrap();
        t.insert(&[2, 30, 300]).unwrap();
        t
    }

    #[test]
    fn scan_all() {
        let t = fixture();
        let b = seq_scan(&t, &[], None);
        assert_eq!(b.len(), 3);
        assert_eq!(b.width(), 3);
    }

    #[test]
    fn pushdown_filter() {
        let t = fixture();
        let b = seq_scan(&t, &[Pred::ColEqConst { col: 0, value: 2 }], None);
        assert_eq!(b.len(), 2);
    }

    #[test]
    fn projection_narrows() {
        let t = fixture();
        let b = seq_scan(&t, &[Pred::ColEqConst { col: 0, value: 2 }], Some(&[2]));
        assert_eq!(b.width(), 1);
        assert_eq!(b.row(0), &[200]);
        assert_eq!(b.row(1), &[300]);
    }
}
