//! Relation residency under a byte budget: sorted-run spilling, lazy
//! k-way merge, and grace-hash partition files.
//!
//! The executor ([`crate::executor`]) walks a plan once; every relation
//! flowing between its operators is a [`SpillableBatch`] that lives
//! either in memory (within the [`SpillManager`]'s budget) or as
//! **sorted runs** on a [`StorageBackend`] (over it). This module is the
//! storage half of that contract — the paper's RDBMS architecture exists
//! for the regime where an intermediate join result outgrows RAM (§3.1):
//!
//! * [`SpillManager`] — the budget (`0` = unbounded: nothing ever
//!   spills and the backend is never written), the backend, and
//!   cumulative [`SpillStats`].
//! * `SpillWriter` — accumulates an operator's output and cuts a sorted
//!   run whenever its buffer passes a fraction of the budget; a small
//!   output stays a `Mem` batch.
//! * [`RowCursor`] / [`merge_cursor`] — read relations back in
//!   **canonical** (lexicographic) row order, merging sorted runs lazily
//!   so at most one read buffer per run is resident. Canonical order
//!   depends only on the row *multiset*, which is why a result is
//!   bit-identical whatever spilled.
//! * `partition` — hash-partitions a relation into unsorted partition
//!   files for the executor's grace-hash join.
//!
//! Spilled runs are freed eagerly: dropping a [`SpillableBatch`] (or
//! consuming a grace-hash partition) releases its backend storage, so
//! disk usage tracks live intermediates, not the whole execution.

use crate::backend::{RunHandle, StorageBackend};
use crate::error::DbError;
use crate::exec::Batch;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Maximum grace-hash fan-out per join.
pub(crate) const MAX_PARTITIONS: usize = 64;

/// Spill instrumentation counters (cumulative per [`SpillManager`]).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SpillStats {
    /// Sorted or partition runs written to the backend.
    pub runs_written: u64,
    /// Bytes spilled to the backend across the manager's lifetime.
    pub bytes_spilled: u64,
    /// Grace-hash partition files created.
    pub partitions: u64,
    /// Joins that exceeded the budget and ran as grace-hash joins.
    pub grace_joins: u64,
}

/// Shared residency policy: a byte budget, a [`StorageBackend`], and
/// cumulative [`SpillStats`]. One manager serves a whole grounding run
/// (all threads).
pub struct SpillManager {
    /// `None` for [`UNBOUNDED`], which never spills.
    backend: Option<Arc<dyn StorageBackend>>,
    /// `usize::MAX` when unbounded.
    budget: usize,
    runs_written: AtomicU64,
    partitions: AtomicU64,
    pub(crate) grace_joins: AtomicU64,
}

/// The manager [`crate::executor::execute`] and `execute_profiled` run
/// under: no budget, so nothing spills and it needs no backend; every
/// call shares it.
pub(crate) static UNBOUNDED: SpillManager = SpillManager {
    backend: None,
    budget: usize::MAX,
    runs_written: AtomicU64::new(0),
    partitions: AtomicU64::new(0),
    grace_joins: AtomicU64::new(0),
};

impl std::fmt::Debug for SpillManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpillManager")
            .field("budget", &self.budget)
            .field("stats", &self.stats())
            .finish()
    }
}

impl SpillManager {
    /// A manager over an explicit backend. `budget` is the in-memory
    /// byte threshold above which relations spill; `0` means unbounded
    /// (the meaning of [`crate::OptimizerConfig::mem_budget_bytes`]):
    /// every relation stays resident and the backend is never written.
    pub fn new(budget: usize, backend: Arc<dyn StorageBackend>) -> SpillManager {
        SpillManager {
            backend: Some(backend),
            budget: if budget == 0 { usize::MAX } else { budget },
            runs_written: AtomicU64::new(0),
            partitions: AtomicU64::new(0),
            grace_joins: AtomicU64::new(0),
        }
    }

    /// A manager spilling to heap vectors ([`crate::MemBackend`]) —
    /// exercises the full spill policy without file I/O.
    pub fn in_memory(budget: usize) -> SpillManager {
        SpillManager::new(budget, Arc::new(crate::backend::MemBackend::new()))
    }

    /// A manager spilling to files in the system temporary directory
    /// ([`crate::FileBackend`]); the spill directory is created by the
    /// first run written and removed when the last reference (manager or
    /// spilled batch) drops.
    pub fn file_backed(budget: usize) -> Result<SpillManager, DbError> {
        Ok(SpillManager::new(
            budget,
            Arc::new(crate::backend::FileBackend::in_temp_dir()?),
        ))
    }

    /// The configured budget in bytes (`usize::MAX` when unbounded).
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// Cumulative spill counters.
    pub fn stats(&self) -> SpillStats {
        SpillStats {
            runs_written: self.runs_written.load(Ordering::Relaxed),
            bytes_spilled: self.backend.as_ref().map_or(0, |b| b.words_written() * 4),
            partitions: self.partitions.load(Ordering::Relaxed),
            grace_joins: self.grace_joins.load(Ordering::Relaxed),
        }
    }

    /// Where runs go; only a run over the budget asks.
    fn backend(&self) -> &Arc<dyn StorageBackend> {
        let backend = self.backend.as_ref();
        backend.expect("only a bounded manager spills, and it has a backend")
    }

    fn write_run(&self, words: &[u32]) -> Result<RunHandle, DbError> {
        self.runs_written.fetch_add(1, Ordering::Relaxed);
        self.backend().write_run(words)
    }

    /// Per-run buffer threshold: a fraction of the budget so several
    /// buffers (writer + readers + the operator's own state) coexist
    /// within it, floored to keep degenerate budgets from producing
    /// thousands of single-row runs.
    fn chunk_bytes(&self) -> usize {
        (self.budget / 4).max(1024)
    }

    /// Words per read buffer when streaming runs back.
    fn read_words(&self) -> usize {
        (self.budget / 16 / 4).clamp(256, 1 << 20)
    }
}

/// A spilled relation: whole rows in per-run sorted order across one or
/// more backend runs. Dropping it frees the runs.
pub struct SpilledRel {
    width: usize,
    rows: usize,
    runs: Vec<RunHandle>,
    backend: Arc<dyn StorageBackend>,
}

impl Drop for SpilledRel {
    fn drop(&mut self) {
        for r in &self.runs {
            self.backend.free_run(*r);
        }
    }
}

impl std::fmt::Debug for SpilledRel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpilledRel")
            .field("width", &self.width)
            .field("rows", &self.rows)
            .field("runs", &self.runs.len())
            .finish()
    }
}

/// A relation that is either materialized in memory or spilled to
/// backend runs. The executor's inter-operator currency.
#[derive(Debug)]
pub enum SpillableBatch {
    /// Small relation, fully in memory.
    Mem(Batch),
    /// Large relation as sorted backend runs.
    Spilled(SpilledRel),
}

impl SpillableBatch {
    /// Row width.
    pub fn width(&self) -> usize {
        match self {
            SpillableBatch::Mem(b) => b.width(),
            SpillableBatch::Spilled(s) => s.width,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        match self {
            SpillableBatch::Mem(b) => b.len(),
            SpillableBatch::Spilled(s) => s.rows,
        }
    }

    /// Whether the relation has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows() == 0
    }

    /// Whether the relation lives on the backend rather than in memory.
    pub fn is_spilled(&self) -> bool {
        matches!(self, SpillableBatch::Spilled(_))
    }

    /// Approximate bytes of row data (independent of residency).
    pub fn approx_bytes(&self) -> usize {
        self.rows() * self.width() * 4
    }

    /// Consumes the relation into one in-memory batch: a resident batch
    /// is returned as is, spilled runs are concatenated sequentially
    /// (per-run order preserved).
    pub fn into_batch(self) -> Result<Batch, DbError> {
        match self {
            SpillableBatch::Mem(b) => Ok(b),
            SpillableBatch::Spilled(s) => read_runs(s.backend.as_ref(), &s.runs, s.width),
        }
    }

    /// A k-way-merging cursor over the relation's canonical
    /// (lexicographic) row order.
    pub fn cursor<'a>(&'a self, mgr: &SpillManager) -> Result<RowCursor<'a>, DbError> {
        merge_cursor(std::slice::from_ref(self), mgr)
    }

    fn streams<'a>(&'a self, read_words: usize) -> Result<Vec<Stream<'a>>, DbError> {
        match self {
            SpillableBatch::Mem(batch) => Ok(vec![Stream::Mem { batch, i: 0 }]),
            SpillableBatch::Spilled(s) => s
                .runs
                .iter()
                .map(|&run| Stream::new_run(s.backend.as_ref(), run, s.width, read_words))
                .collect(),
        }
    }
}

/// Concatenates whole runs, in order, into one batch.
fn read_runs(
    backend: &dyn StorageBackend,
    runs: &[RunHandle],
    width: usize,
) -> Result<Batch, DbError> {
    let mut words = Vec::with_capacity(runs.iter().map(|r| r.words as usize).sum());
    let mut buf = Vec::new();
    for run in runs {
        backend.read_range(*run, 0, run.words as usize, &mut buf)?;
        words.extend_from_slice(&buf);
    }
    Ok(Batch::from_words(width, words))
}

/// One sorted row source inside a [`RowCursor`].
enum Stream<'a> {
    Mem {
        batch: &'a Batch,
        i: usize,
    },
    Run {
        backend: &'a dyn StorageBackend,
        run: RunHandle,
        width: usize,
        /// Next word offset to read from the run.
        next_word: u64,
        buf: Vec<u32>,
        buf_pos: usize,
        read_words: usize,
    },
}

impl<'a> Stream<'a> {
    fn new_run(
        backend: &'a dyn StorageBackend,
        run: RunHandle,
        width: usize,
        read_words: usize,
    ) -> Result<Stream<'a>, DbError> {
        // Whole rows per read.
        let read_words = (read_words / width.max(1)).max(1) * width.max(1);
        let mut s = Stream::Run {
            backend,
            run,
            width,
            next_word: 0,
            buf: Vec::new(),
            buf_pos: 0,
            read_words,
        };
        s.refill()?;
        Ok(s)
    }

    fn refill(&mut self) -> Result<(), DbError> {
        if let Stream::Run {
            backend,
            run,
            next_word,
            buf,
            buf_pos,
            read_words,
            ..
        } = self
        {
            let remaining = run.words - *next_word;
            let take = (*read_words as u64).min(remaining) as usize;
            if take == 0 {
                buf.clear();
                *buf_pos = 0;
                return Ok(());
            }
            backend.read_range(*run, *next_word, take, buf)?;
            *next_word += take as u64;
            *buf_pos = 0;
        }
        Ok(())
    }

    fn peek(&self) -> Option<&[u32]> {
        match self {
            Stream::Mem { batch, i } => (*i < batch.len()).then(|| batch.row(*i)),
            Stream::Run {
                buf,
                buf_pos,
                width,
                ..
            } => (*buf_pos < buf.len()).then(|| &buf[*buf_pos..*buf_pos + *width]),
        }
    }

    fn advance(&mut self) -> Result<(), DbError> {
        match self {
            Stream::Mem { i, .. } => *i += 1,
            Stream::Run {
                buf,
                buf_pos,
                width,
                ..
            } => {
                *buf_pos += *width;
                if *buf_pos >= buf.len() {
                    return self.refill();
                }
            }
        }
        Ok(())
    }
}

/// Streaming k-way merge over one or more canonically sorted
/// [`SpillableBatch`]es, yielding rows in global lexicographic order —
/// the same sequence [`Batch::sort_rows`] would produce on the
/// concatenation. Rows are visited with [`RowCursor::next_into`] so no
/// more than one read buffer per run is ever resident.
pub struct RowCursor<'a> {
    width: usize,
    streams: Vec<Stream<'a>>,
}

impl RowCursor<'_> {
    /// Copies the next row (in canonical order) into `out`. Returns
    /// `false` when the stream is exhausted.
    pub fn next_into(&mut self, out: &mut Vec<u32>) -> Result<bool, DbError> {
        let mut best: Option<usize> = None;
        for (i, s) in self.streams.iter().enumerate() {
            let Some(row) = s.peek() else { continue };
            let better = match best {
                None => true,
                Some(b) => row < self.streams[b].peek().expect("best stream has a row"),
            };
            if better {
                best = Some(i);
            }
        }
        let Some(b) = best else { return Ok(false) };
        out.clear();
        out.extend_from_slice(self.streams[b].peek().expect("chosen stream has a row"));
        self.streams[b].advance()?;
        Ok(true)
    }

    /// Row width of the merged stream.
    pub fn width(&self) -> usize {
        self.width
    }
}

/// A merging cursor over several canonically sorted relations of equal
/// width — the grounder's phase-C entry point: per-chunk grounding
/// results stream directly into clause emission without materializing
/// the merged relation.
pub fn merge_cursor<'a>(
    parts: &'a [SpillableBatch],
    mgr: &SpillManager,
) -> Result<RowCursor<'a>, DbError> {
    let width = parts.first().map_or(0, SpillableBatch::width);
    let mut streams = Vec::new();
    for p in parts {
        debug_assert_eq!(p.width(), width, "merged parts must share a width");
        streams.extend(p.streams(mgr.read_words())?);
    }
    Ok(RowCursor { width, streams })
}

/// Accumulates rows and cuts **sorted runs** whenever the buffer passes
/// the manager's chunk threshold; small outputs stay in memory.
pub(crate) struct SpillWriter<'a> {
    mgr: &'a SpillManager,
    width: usize,
    buf: Batch,
    runs: Vec<RunHandle>,
    rows: usize,
}

impl<'a> SpillWriter<'a> {
    pub(crate) fn new(mgr: &'a SpillManager, width: usize) -> SpillWriter<'a> {
        SpillWriter {
            mgr,
            width,
            buf: Batch::new(width),
            runs: Vec::new(),
            rows: 0,
        }
    }

    fn buffered_bytes(&self) -> usize {
        self.buf.len() * self.width * 4
    }

    pub(crate) fn push_row(&mut self, row: &[u32]) -> Result<(), DbError> {
        self.buf.push(row);
        self.rows += 1;
        self.maybe_flush()
    }

    pub(crate) fn push_batch(&mut self, b: &Batch) -> Result<(), DbError> {
        debug_assert_eq!(b.width(), self.width);
        for row in b.iter() {
            self.buf.push(row);
        }
        self.rows += b.len();
        self.maybe_flush()
    }

    fn maybe_flush(&mut self) -> Result<(), DbError> {
        // Zero-width relations carry no words — they can never spill
        // (and never need to: a row count is all they are).
        if self.width > 0 && self.buffered_bytes() >= self.mgr.chunk_bytes() {
            self.flush()?;
        }
        Ok(())
    }

    fn flush(&mut self) -> Result<(), DbError> {
        if self.buf.is_empty() {
            return Ok(());
        }
        self.buf.sort_rows();
        self.runs.push(self.mgr.write_run(self.buf.words())?);
        self.buf.reset(self.width);
        Ok(())
    }

    pub(crate) fn finish(mut self) -> Result<SpillableBatch, DbError> {
        if self.runs.is_empty() {
            self.buf.sort_rows();
            return Ok(SpillableBatch::Mem(self.buf));
        }
        self.flush()?;
        Ok(SpillableBatch::Spilled(SpilledRel {
            width: self.width,
            rows: self.rows,
            runs: std::mem::take(&mut self.runs),
            backend: Arc::clone(self.mgr.backend()),
        }))
    }
}

/// Streams a relation chunk by chunk as in-memory [`Batch`]es (per-run
/// order; *not* globally merged — use [`RowCursor`] for canonical
/// order). The closure never sees more than one read buffer at a time.
pub(crate) fn for_each_chunk(
    input: &SpillableBatch,
    mgr: &SpillManager,
    mut f: impl FnMut(&Batch) -> Result<(), DbError>,
) -> Result<(), DbError> {
    match input {
        SpillableBatch::Mem(b) => f(b),
        SpillableBatch::Spilled(s) => {
            let chunk_words = (mgr.read_words() / s.width.max(1)).max(1) * s.width.max(1);
            let mut buf = Vec::new();
            for run in &s.runs {
                let mut offset = 0u64;
                while offset < run.words {
                    let take = (chunk_words as u64).min(run.words - offset) as usize;
                    s.backend.read_range(*run, offset, take, &mut buf)?;
                    offset += take as u64;
                    let chunk = Batch::from_words(s.width, std::mem::take(&mut buf));
                    f(&chunk)?;
                    buf = chunk.into_words();
                }
            }
            Ok(())
        }
    }
}

/// FNV-fold partition hash over the key columns (deliberately seeded
/// differently from the join-operator hash so partition skew and bucket
/// collisions stay independent).
#[inline]
fn partition_of(row: &[u32], cols: &[usize], parts: usize) -> usize {
    let mut h = 0x9e37_79b9_7f4a_7c15u64;
    for &c in cols {
        h ^= row[c] as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    (h % parts as u64) as usize
}

/// One side's grace-hash partition files (unsorted whole rows).
pub(crate) struct Partitions {
    width: usize,
    runs: Vec<Vec<RunHandle>>,
    backend: Arc<dyn StorageBackend>,
}

impl Drop for Partitions {
    fn drop(&mut self) {
        for p in &self.runs {
            for r in p {
                self.backend.free_run(*r);
            }
        }
    }
}

impl Partitions {
    /// Materializes partition `p` and frees its runs.
    pub(crate) fn take(&mut self, p: usize) -> Result<Batch, DbError> {
        let runs = std::mem::take(&mut self.runs[p]);
        let batch = read_runs(self.backend.as_ref(), &runs, self.width);
        for run in runs {
            self.backend.free_run(run);
        }
        batch
    }
}

/// Hash-partitions `input` on `cols` into `parts` partition files.
pub(crate) fn partition(
    input: &SpillableBatch,
    cols: &[usize],
    parts: usize,
    mgr: &SpillManager,
) -> Result<Partitions, DbError> {
    let width = input.width();
    let mut bufs: Vec<Batch> = (0..parts).map(|_| Batch::new(width)).collect();
    let mut runs: Vec<Vec<RunHandle>> = vec![Vec::new(); parts];
    // Per-partition buffer threshold: the budget split across the
    // fan-out, with a small floor.
    let per_part = (mgr.budget / (2 * parts)).max(1024);
    for_each_chunk(input, mgr, |chunk| {
        for row in chunk.iter() {
            let p = partition_of(row, cols, parts);
            bufs[p].push(row);
            if bufs[p].len() * width * 4 >= per_part {
                runs[p].push(mgr.write_run(bufs[p].words())?);
                bufs[p].reset(width);
            }
        }
        Ok(())
    })?;
    for (p, b) in bufs.iter_mut().enumerate() {
        if !b.is_empty() {
            runs[p].push(mgr.write_run(b.words())?);
        }
    }
    mgr.partitions.fetch_add(parts as u64, Ordering::Relaxed);
    Ok(Partitions {
        width,
        runs,
        backend: Arc::clone(mgr.backend()),
    })
}

/// Converts an in-memory batch into a spillable one, cutting it into
/// sorted runs when it exceeds the budget (so oversized results never
/// ride across operator boundaries in RAM).
pub(crate) fn wrap(b: Batch, mgr: &SpillManager) -> Result<SpillableBatch, DbError> {
    if b.width() == 0 || b.len() * b.width() * 4 <= mgr.budget {
        return Ok(SpillableBatch::Mem(b));
    }
    let mut w = SpillWriter::new(mgr, b.width());
    w.push_batch(&b)?;
    w.finish()
}

/// Collects a cursor into a batch (test / small-result helper).
pub fn collect_cursor(mut cur: RowCursor<'_>) -> Result<Batch, DbError> {
    let mut out = Batch::new(cur.width());
    let mut row = Vec::new();
    while cur.next_into(&mut row)? {
        out.push(&row);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Database;
    use crate::executor::execute_spill;
    use crate::optimizer::{run_query, JoinAlgorithmPolicy, JoinOrderPolicy, OptimizerConfig};
    use crate::query::{ColumnBinding, ConjunctiveQuery, QueryAtom};
    use crate::schema::TableSchema;

    /// A two-table join workload big enough to overflow a small budget.
    fn build_db(rows: u32) -> (Database, ConjunctiveQuery) {
        let mut db = Database::default();
        let a = db
            .create_table("a", TableSchema::new(vec!["x", "y"]))
            .unwrap();
        let b = db
            .create_table("b", TableSchema::new(vec!["y", "z"]))
            .unwrap();
        // Deterministic skewed data with duplicate join keys.
        for i in 0..rows {
            db.insert(a, &[i % 97, i % 31]).unwrap();
            db.insert(b, &[i % 31, i % 53]).unwrap();
        }
        let q = ConjunctiveQuery {
            atoms: vec![
                QueryAtom {
                    table: a,
                    bindings: vec![ColumnBinding::Var(0), ColumnBinding::Var(1)],
                },
                QueryAtom {
                    table: b,
                    bindings: vec![ColumnBinding::Var(1), ColumnBinding::Var(2)],
                },
            ],
            anti_atoms: vec![],
            neq: vec![(0, 2)],
            neq_const: vec![],
            ranges: vec![],
            output: vec![0, 1, 2],
            distinct: false,
        };
        (db, q)
    }

    /// Canonical result under `budget` (0 = unbounded), plus the manager
    /// that ran it.
    fn run_under(db: &Database, q: &ConjunctiveQuery, mgr: SpillManager) -> (Batch, SpillManager) {
        let out = execute_spill(db, q, &OptimizerConfig::default(), &mgr).unwrap();
        let rows = collect_cursor(out.cursor(&mgr).unwrap()).unwrap();
        (rows, mgr)
    }

    /// The independent oracle: the fully lesioned plan (program order,
    /// nested loops only, no pushdown), sorted.
    fn lesion_rows(db: &mut Database, q: &ConjunctiveQuery) -> Batch {
        let cfg = OptimizerConfig {
            join_order: JoinOrderPolicy::Program,
            join_algorithm: JoinAlgorithmPolicy::NestedLoopOnly,
            pushdown: false,
            ..Default::default()
        };
        let mut b = run_query(db, q, &cfg).unwrap();
        b.sort_rows();
        b
    }

    #[test]
    fn tiny_budget_matches_unbounded_and_lesion_plan_bitwise() {
        let (mut db, q) = build_db(2000);
        let (expected, unbounded) = run_under(&db, &q, SpillManager::in_memory(0));
        assert_eq!(unbounded.stats(), SpillStats::default());
        assert_eq!(expected, lesion_rows(&mut db, &q));
        for budget in [4 * 1024, 64 * 1024] {
            for mgr in [
                SpillManager::in_memory(budget),
                SpillManager::file_backed(budget).unwrap(),
            ] {
                let (got, _) = run_under(&db, &q, mgr);
                assert_eq!(got, expected, "budget={budget}");
            }
        }
    }

    #[test]
    fn small_budget_actually_spills() {
        let (db, q) = build_db(2000);
        let mgr = SpillManager::in_memory(4 * 1024);
        let cfg = OptimizerConfig {
            mem_budget_bytes: 4 * 1024,
            ..Default::default()
        };
        let out = execute_spill(&db, &q, &cfg, &mgr).unwrap();
        assert!(out.is_spilled(), "result larger than budget must spill");
        let stats = mgr.stats();
        assert!(stats.runs_written > 0);
        assert!(stats.bytes_spilled > 0);
        assert!(stats.grace_joins > 0, "oversized join must grace-hash");
        assert!(stats.partitions >= 2);
    }

    #[test]
    fn generous_budget_stays_in_memory() {
        let (db, q) = build_db(200);
        let mgr = SpillManager::in_memory(64 * 1024 * 1024);
        let cfg = OptimizerConfig {
            mem_budget_bytes: 64 * 1024 * 1024,
            ..Default::default()
        };
        let out = execute_spill(&db, &q, &cfg, &mgr).unwrap();
        assert!(!out.is_spilled());
        assert_eq!(mgr.stats().runs_written, 0);
    }

    #[test]
    fn merge_cursor_across_parts_is_globally_sorted() {
        let mgr = SpillManager::in_memory(1024);
        let mut w1 = SpillWriter::new(&mgr, 2);
        let mut w2 = SpillWriter::new(&mgr, 2);
        for i in (0..500u32).rev() {
            w1.push_row(&[i * 2, i]).unwrap();
            w2.push_row(&[i * 2 + 1, i]).unwrap();
        }
        let parts = vec![w1.finish().unwrap(), w2.finish().unwrap()];
        let cur = merge_cursor(&parts, &mgr).unwrap();
        let merged = collect_cursor(cur).unwrap();
        assert_eq!(merged.len(), 1000);
        let mut expected: Vec<Vec<u32>> = (0..500u32)
            .flat_map(|i| [vec![i * 2, i], vec![i * 2 + 1, i]])
            .collect();
        expected.sort();
        let got: Vec<Vec<u32>> = merged.iter().map(<[u32]>::to_vec).collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn spilled_batches_free_their_runs_on_drop() {
        let backend = Arc::new(crate::backend::MemBackend::new());
        let mgr = SpillManager::new(1024, Arc::clone(&backend) as Arc<dyn StorageBackend>);
        let mut w = SpillWriter::new(&mgr, 2);
        for i in 0..2000u32 {
            w.push_row(&[i, i]).unwrap();
        }
        let out = w.finish().unwrap();
        assert!(out.is_spilled());
        drop(out);
        // All runs freed: a read of any id must fail.
        let mut buf = Vec::new();
        assert!(backend
            .read_range(RunHandle { id: 0, words: 2 }, 0, 2, &mut buf)
            .is_err());
    }

    #[test]
    fn cross_product_of_spilled_relations_respects_the_budget() {
        let mut db = Database::default();
        let a = db.create_table("a", TableSchema::new(vec!["x"])).unwrap();
        let b = db.create_table("b", TableSchema::new(vec!["y"])).unwrap();
        for i in 0..2000u32 {
            db.insert(a, &[i]).unwrap();
            db.insert(b, &[(i * 7) % 2000]).unwrap();
        }
        let atom = |table, v| QueryAtom {
            table,
            bindings: vec![ColumnBinding::Var(v)],
        };
        let q = ConjunctiveQuery {
            atoms: vec![atom(a, 0), atom(b, 1)],
            anti_atoms: vec![],
            neq: vec![],
            neq_const: vec![],
            ranges: vec![],
            output: vec![0, 1],
            distinct: false,
        };
        let cfg = OptimizerConfig::default();
        let unbounded = SpillManager::in_memory(0);
        let expected = execute_spill(&db, &q, &cfg, &unbounded)
            .unwrap()
            .into_batch()
            .unwrap();
        assert_eq!(expected.len(), 2000 * 2000);
        assert_eq!(unbounded.stats().runs_written, 0);

        let mgr = SpillManager::in_memory(4 * 1024);
        let out = execute_spill(&db, &q, &cfg, &mgr).unwrap();
        assert!(out.is_spilled());
        // The product was cut into budget-sized runs as it was produced:
        // far more runs than the two inputs alone account for.
        let product_bytes = 2000 * 2000 * 2 * 4;
        assert!(mgr.stats().runs_written as usize >= product_bytes / mgr.budget());
        // Row for row: thousands of runs make the k-way cursor quadratic,
        // so concatenate and sort instead.
        let mut got = out.into_batch().unwrap();
        got.sort_rows();
        assert_eq!(got, expected);
    }

    #[test]
    fn spill_directory_is_created_lazily_and_removed_on_drop() {
        use crate::backend::FileBackend;
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let fresh = std::env::temp_dir().join(format!(
            "tuffy-lazy-spill-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&fresh).unwrap();
        let entries = || std::fs::read_dir(&fresh).unwrap().count();
        let manager =
            |budget| SpillManager::new(budget, Arc::new(FileBackend::in_dir(&fresh).unwrap()));
        let (db, q) = build_db(2000);
        let cfg = OptimizerConfig::default();

        let roomy = manager(64 << 20);
        let out = execute_spill(&db, &q, &cfg, &roomy).unwrap();
        assert!(!out.is_spilled());
        assert_eq!(entries(), 0, "nothing overflowed: no spill directory");
        drop((out, roomy));

        let tight = manager(4 * 1024);
        let out = execute_spill(&db, &q, &cfg, &tight).unwrap();
        assert!(out.is_spilled());
        let dir = std::fs::read_dir(&fresh).unwrap().next().unwrap().unwrap();
        assert!(std::fs::read_dir(dir.path()).unwrap().count() > 0);
        drop((out, tight));
        assert_eq!(entries(), 0, "spill directory removed with its last user");
        std::fs::remove_dir(&fresh).unwrap();
    }
}
