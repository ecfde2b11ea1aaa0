//! Out-of-core query execution: grace-hash partitioning and sorted-run
//! spilling under a byte budget.
//!
//! The in-memory executor ([`crate::executor`]) materializes every
//! operator's full output — fine until an intermediate join result
//! outgrows RAM, which is exactly the regime the paper's RDBMS
//! architecture targets (§3.1). This module is the out-of-core twin: it
//! walks the *same* [`QueryPlan`] tree, but every relation flowing
//! between operators is a [`SpillableBatch`] that transparently lives
//! either in memory (small) or as **sorted runs** on a
//! [`StorageBackend`] (large), cut whenever a buffer exceeds the
//! configured [`SpillManager`] budget.
//!
//! # Spill semantics
//!
//! * **Scans** stay in memory (base tables already are).
//! * **Equi-joins** whose combined inputs exceed the budget run as
//!   **grace-hash joins**: both sides are hash-partitioned on the join
//!   key into `P ≈ ⌈bytes/budget⌉` partition files, then each partition
//!   pair is joined in memory and the output streamed through a sorted
//!   spill writer. Within-budget joins use the ordinary in-memory
//!   operators.
//! * **Anti-joins** materialize the (small, evidence-derived) `NOT
//!   EXISTS` side and stream the outer side through it chunk by chunk.
//! * **Distinct** externally sorts (sorted runs + k-way merge) and
//!   deduplicates adjacent rows of the merged stream.
//! * The final result is **canonically ordered**: in-memory results are
//!   [`Batch::sort_rows`]-sorted, spilled results are per-run sorted and
//!   k-way merged lazily by [`RowCursor`]. Because canonical order
//!   depends only on the result *multiset*, a spilled execution is
//!   **bit-identical** to the in-memory execution of the same query —
//!   the grounder's determinism contract survives spilling.
//!
//! Spilled runs are freed eagerly: dropping a [`SpillableBatch`] (or
//! consuming a grace-hash partition) releases its backend storage, so
//! disk usage tracks live intermediates, not the whole execution.

use crate::backend::{RunHandle, StorageBackend};
use crate::catalog::Database;
use crate::error::DbError;
use crate::exec::agg::distinct;
use crate::exec::join::{cross_join, hash_anti_join, hash_join, nested_loop_join, sort_merge_join};
use crate::exec::scan::seq_scan;
use crate::exec::Batch;
use crate::executor::{is_identity, project_owned};
use crate::optimizer::{plan_query, OptimizerConfig};
use crate::plan::{PhysicalPlan, PlanOp, QueryPlan};
use crate::query::ConjunctiveQuery;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Maximum grace-hash fan-out per join.
const MAX_PARTITIONS: usize = 64;

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

/// Shared spill policy: a byte budget, a [`StorageBackend`], and
/// cumulative [`SpillStats`]. One manager serves a whole grounding run
/// (all threads); cloning the `Arc` shares budget and counters.
pub struct SpillManager {
    backend: Arc<dyn StorageBackend>,
    budget: usize,
    runs_written: AtomicU64,
    partitions: AtomicU64,
    grace_joins: AtomicU64,
}

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
    /// byte threshold above which relations spill; it must be non-zero.
    pub fn new(budget: usize, backend: Arc<dyn StorageBackend>) -> SpillManager {
        assert!(budget > 0, "a zero budget means spilling is disabled");
        SpillManager {
            backend,
            budget,
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
    /// ([`crate::FileBackend`]); the spill directory is removed when the
    /// last reference (manager or spilled batch) drops.
    pub fn file_backed(budget: usize) -> Result<SpillManager, DbError> {
        Ok(SpillManager::new(
            budget,
            Arc::new(crate::backend::FileBackend::in_temp_dir()?),
        ))
    }

    /// The configured budget in bytes.
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// Cumulative spill counters.
    pub fn stats(&self) -> SpillStats {
        SpillStats {
            runs_written: self.runs_written.load(Ordering::Relaxed),
            bytes_spilled: self.backend.words_written() * 4,
            partitions: self.partitions.load(Ordering::Relaxed),
            grace_joins: self.grace_joins.load(Ordering::Relaxed),
        }
    }

    fn write_run(&self, words: &[u32]) -> Result<RunHandle, DbError> {
        self.runs_written.fetch_add(1, Ordering::Relaxed);
        self.backend.write_run(words)
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
/// backend runs. The spill executor's inter-operator currency.
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

    /// Fully materializes the relation into one in-memory batch
    /// (sequential run concatenation — per-run order preserved).
    pub fn materialize(&self) -> Result<Batch, DbError> {
        match self {
            SpillableBatch::Mem(b) => Ok(b.clone()),
            SpillableBatch::Spilled(s) => {
                let mut words = Vec::with_capacity(s.rows * s.width);
                let mut buf = Vec::new();
                for run in &s.runs {
                    s.backend
                        .read_range(*run, 0, run.words as usize, &mut buf)?;
                    words.extend_from_slice(&buf);
                }
                Ok(Batch::from_words(s.width, words))
            }
        }
    }

    /// A k-way-merging cursor over the relation's canonical
    /// (lexicographic) row order.
    pub fn cursor<'a>(&'a self, mgr: &SpillManager) -> Result<RowCursor<'a>, DbError> {
        merge_cursor(std::slice::from_ref(self), mgr)
    }

    fn streams<'a>(&'a self, read_words: usize) -> Result<Vec<Stream<'a>>, DbError> {
        match self {
            SpillableBatch::Mem(b) => Ok(vec![Stream::new_mem(b)]),
            SpillableBatch::Spilled(s) => s
                .runs
                .iter()
                .map(|&run| Stream::new_run(s.backend.as_ref(), run, s.width, read_words))
                .collect(),
        }
    }
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
    fn new_mem(batch: &'a Batch) -> Stream<'a> {
        Stream::Mem { batch, i: 0 }
    }

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
            Stream::Mem { i, .. } => {
                *i += 1;
                Ok(())
            }
            Stream::Run { .. } => {
                if let Stream::Run {
                    buf,
                    buf_pos,
                    width,
                    ..
                } = self
                {
                    *buf_pos += *width;
                    if *buf_pos < buf.len() {
                        return Ok(());
                    }
                }
                self.refill()
            }
        }
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
struct SpillWriter<'a> {
    mgr: &'a SpillManager,
    width: usize,
    buf: Batch,
    runs: Vec<RunHandle>,
    rows: usize,
}

impl<'a> SpillWriter<'a> {
    fn new(mgr: &'a SpillManager, width: usize) -> SpillWriter<'a> {
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

    fn push_row(&mut self, row: &[u32]) -> Result<(), DbError> {
        self.buf.push(row);
        self.rows += 1;
        self.maybe_flush()
    }

    fn push_batch(&mut self, b: &Batch) -> Result<(), DbError> {
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

    fn finish(mut self) -> Result<SpillableBatch, DbError> {
        if self.runs.is_empty() {
            self.buf.sort_rows();
            return Ok(SpillableBatch::Mem(self.buf));
        }
        self.flush()?;
        Ok(SpillableBatch::Spilled(SpilledRel {
            width: self.width,
            rows: self.rows,
            runs: std::mem::take(&mut self.runs),
            backend: Arc::clone(&self.mgr.backend),
        }))
    }
}

/// Streams a relation chunk by chunk as in-memory [`Batch`]es (per-run
/// order; *not* globally merged — use [`RowCursor`] for canonical
/// order). The closure never sees more than one read buffer at a time.
fn for_each_chunk(
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
struct Partitions {
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
    /// Materializes partition `p`, freeing its runs as they are read.
    fn take(&mut self, p: usize) -> Result<Batch, DbError> {
        let runs = std::mem::take(&mut self.runs[p]);
        let mut words = Vec::new();
        let mut buf = Vec::new();
        for run in runs {
            self.backend
                .read_range(run, 0, run.words as usize, &mut buf)?;
            words.extend_from_slice(&buf);
            self.backend.free_run(run);
        }
        Ok(Batch::from_words(self.width, words))
    }
}

/// Hash-partitions `input` on `cols` into `parts` partition files.
fn partition(
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
        backend: Arc::clone(&mgr.backend),
    })
}

/// Joins two relations under the budget: in-memory when both sides fit,
/// grace-hash partitioned otherwise. `algo_hint` picks the in-memory
/// algorithm for within-budget inputs (all algorithms agree on results).
fn spill_join(
    left: SpillableBatch,
    right: SpillableBatch,
    keys: &[(usize, usize)],
    keep: &[usize],
    algo: &PlanOp,
    mgr: &SpillManager,
) -> Result<SpillableBatch, DbError> {
    let small = !left.is_spilled()
        && !right.is_spilled()
        && left.approx_bytes() + right.approx_bytes() <= mgr.budget;
    if keys.is_empty() || small {
        let l = left.materialize()?;
        let r = right.materialize()?;
        let joined = match algo {
            _ if keys.is_empty() => cross_join(&l, &r),
            PlanOp::SortMergeJoin(_) => sort_merge_join(&l, &r, keys),
            PlanOp::NestedLoopJoin(_) => nested_loop_join(&l, &r, keys),
            _ => hash_join(&l, &r, keys),
        };
        let out = project_owned(joined, keep);
        return wrap(out, mgr);
    }
    mgr.grace_joins.fetch_add(1, Ordering::Relaxed);
    let bytes = left.approx_bytes() + right.approx_bytes();
    let parts = (bytes / mgr.budget + 1).clamp(2, MAX_PARTITIONS);
    let (lk, rk): (Vec<usize>, Vec<usize>) = keys.iter().copied().unzip();
    let mut lp = partition(&left, &lk, parts, mgr)?;
    drop(left);
    let mut rp = partition(&right, &rk, parts, mgr)?;
    drop(right);
    let mut writer = SpillWriter::new(mgr, keep.len());
    for p in 0..parts {
        let lb = lp.take(p)?;
        let rb = rp.take(p)?;
        if lb.is_empty() || rb.is_empty() {
            continue;
        }
        let joined = hash_join(&lb, &rb, keys);
        writer.push_batch(&project_owned(joined, keep))?;
    }
    writer.finish()
}

/// Converts an in-memory batch into a spillable one, cutting it into
/// sorted runs when it exceeds the budget (so oversized results never
/// ride across operator boundaries in RAM).
fn wrap(b: Batch, mgr: &SpillManager) -> Result<SpillableBatch, DbError> {
    if b.width() == 0 || b.len() * b.width() * 4 <= mgr.budget {
        return Ok(SpillableBatch::Mem(b));
    }
    let mut w = SpillWriter::new(mgr, b.width());
    w.push_batch(&b)?;
    w.finish()
}

/// External distinct: sort (sorted runs + merge) then drop adjacent
/// duplicates of the merged stream.
fn spill_distinct(
    input: SpillableBatch,
    project: &[usize],
    mgr: &SpillManager,
) -> Result<SpillableBatch, DbError> {
    // Zero-width projection (existence check): one empty row survives.
    if project.is_empty() {
        let mut out = Batch::new(0);
        if !input.is_empty() {
            out.push(&[]);
        }
        return Ok(SpillableBatch::Mem(out));
    }
    let identity = is_identity(project, input.width());
    // Project into a sorted writer...
    let mut w = SpillWriter::new(mgr, project.len());
    let mut row_buf: Vec<u32> = Vec::with_capacity(project.len());
    for_each_chunk(&input, mgr, |chunk| {
        for row in chunk.iter() {
            if identity {
                w.push_row(row)?;
            } else {
                row_buf.clear();
                row_buf.extend(project.iter().map(|&c| row[c]));
                w.push_row(&row_buf)?;
            }
        }
        Ok(())
    })?;
    let sorted = w.finish()?;
    drop(input);
    // ...then dedup the merged canonical stream.
    if let SpillableBatch::Mem(b) = &sorted {
        return Ok(SpillableBatch::Mem(distinct(b)));
    }
    let mut out = SpillWriter::new(mgr, sorted.width());
    let mut cur = sorted.cursor(mgr)?;
    let mut row: Vec<u32> = Vec::new();
    let mut last: Option<Vec<u32>> = None;
    while cur.next_into(&mut row)? {
        if last.as_deref() != Some(row.as_slice()) {
            out.push_row(&row)?;
            last = Some(row.clone());
        }
    }
    out.finish()
}

/// Anti-join with a materialized `NOT EXISTS` side: the sub side is an
/// evidence-table scan (small by construction — it carries only the
/// correlation columns), the outer side streams through it.
fn spill_anti_join(
    input: SpillableBatch,
    sub: SpillableBatch,
    keys: &[(usize, usize)],
    mgr: &SpillManager,
) -> Result<SpillableBatch, DbError> {
    if sub.is_empty() || input.is_empty() {
        return Ok(input);
    }
    let sub = sub.materialize()?;
    let mut w = SpillWriter::new(mgr, input.width());
    for_each_chunk(&input, mgr, |chunk| {
        w.push_batch(&hash_anti_join(chunk, &sub, keys))
    })?;
    w.finish()
}

/// Filter applied chunk by chunk.
fn spill_filter(
    input: SpillableBatch,
    preds: &[crate::pred::Pred],
    mgr: &SpillManager,
) -> Result<SpillableBatch, DbError> {
    if !input.is_spilled() {
        let SpillableBatch::Mem(b) = input else {
            unreachable!()
        };
        return wrap(b.filter(preds), mgr);
    }
    let mut w = SpillWriter::new(mgr, input.width());
    for_each_chunk(&input, mgr, |chunk| w.push_batch(&chunk.filter(preds)))?;
    w.finish()
}

fn exec_node_spill(
    db: &Database,
    node: &PhysicalPlan,
    mgr: &SpillManager,
) -> Result<SpillableBatch, DbError> {
    match &node.op {
        PlanOp::SeqScan(s) => {
            let batch = seq_scan(db.table(s.table), db.pool(), &s.preds, Some(&s.project));
            wrap(batch, mgr)
        }
        PlanOp::FilterScan { input, preds } => {
            let inp = exec_node_spill(db, input, mgr)?;
            spill_filter(inp, preds, mgr)
        }
        PlanOp::HashJoin(j) | PlanOp::SortMergeJoin(j) | PlanOp::NestedLoopJoin(j) => {
            let l = exec_node_spill(db, &j.left, mgr)?;
            let r = exec_node_spill(db, &j.right, mgr)?;
            spill_join(l, r, &j.keys, &j.keep, &node.op, mgr)
        }
        PlanOp::CrossJoin { left, right } => {
            let l = exec_node_spill(db, left, mgr)?.materialize()?;
            let r = exec_node_spill(db, right, mgr)?.materialize()?;
            wrap(cross_join(&l, &r), mgr)
        }
        PlanOp::AntiJoin { input, sub, keys } => {
            let inp = exec_node_spill(db, input, mgr)?;
            let sub = exec_node_spill(db, sub, mgr)?;
            spill_anti_join(inp, sub, keys, mgr)
        }
        PlanOp::Distinct { input, project } => {
            let inp = exec_node_spill(db, input, mgr)?;
            spill_distinct(inp, project, mgr)
        }
    }
}

/// Plans and executes `query` with spilling under the manager's budget,
/// returning the result in **canonical row order** (per-run sorted,
/// merged lazily by [`SpillableBatch::cursor`]; in-memory results are
/// `sort_rows`-sorted). The output multiset — and therefore the
/// canonical row sequence — is identical to the in-memory executor's,
/// whatever spilled.
pub fn execute_spill(
    db: &Database,
    query: &ConjunctiveQuery,
    config: &OptimizerConfig,
    mgr: &SpillManager,
) -> Result<SpillableBatch, DbError> {
    let plan = plan_query(db, query, config)?;
    execute_plan_spill(db, &plan, mgr)
}

/// Executes an already-built plan with spilling (see [`execute_spill`]).
pub fn execute_plan_spill(
    db: &Database,
    plan: &QueryPlan,
    mgr: &SpillManager,
) -> Result<SpillableBatch, DbError> {
    let out = exec_node_spill(db, &plan.root, mgr)?;
    let identity = is_identity(&plan.output, out.width());
    let projected = if identity {
        out
    } else if plan.output.is_empty() {
        // Zero-width output: preserve multiplicity as a row count.
        let mut b = Batch::new(0);
        for _ in 0..out.rows() {
            b.push(&[]);
        }
        SpillableBatch::Mem(b)
    } else {
        let mut w = SpillWriter::new(mgr, plan.output.len());
        let mut row_buf: Vec<u32> = Vec::with_capacity(plan.output.len());
        for_each_chunk(&out, mgr, |chunk| {
            for row in chunk.iter() {
                row_buf.clear();
                row_buf.extend(plan.output.iter().map(|&c| row[c]));
                w.push_row(&row_buf)?;
            }
            Ok(())
        })?;
        w.finish()?
    };
    // Canonical order: sorted runs merge lazily; Mem batches sort here.
    match projected {
        SpillableBatch::Mem(mut b) => {
            b.sort_rows();
            Ok(SpillableBatch::Mem(b))
        }
        spilled => Ok(spilled),
    }
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
    use crate::optimizer::run_query;
    use crate::query::{ColumnBinding, QueryAtom};
    use crate::schema::TableSchema;

    /// A two-table join workload big enough to overflow a small budget.
    fn build_db(rows: u32) -> (Database, ConjunctiveQuery) {
        let mut db = Database::in_memory();
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
        db.analyze_all();
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

    fn reference_rows(db: &mut Database, q: &ConjunctiveQuery) -> Batch {
        let mut b = run_query(db, q, &OptimizerConfig::default()).unwrap();
        b.sort_rows();
        b
    }

    #[test]
    fn spilled_execution_matches_in_memory_bitwise() {
        let (mut db, q) = build_db(2000);
        let expected = reference_rows(&mut db, &q);
        for budget in [4 * 1024, 64 * 1024] {
            for mgr in [
                SpillManager::in_memory(budget),
                SpillManager::file_backed(budget).unwrap(),
            ] {
                let cfg = OptimizerConfig {
                    mem_budget_bytes: budget,
                    ..Default::default()
                };
                let out = execute_spill(&db, &q, &cfg, &mgr).unwrap();
                let got = collect_cursor(out.cursor(&mgr).unwrap()).unwrap();
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
    fn distinct_dedups_across_runs() {
        let mgr = SpillManager::in_memory(1024);
        let mut w = SpillWriter::new(&mgr, 1);
        for _ in 0..4 {
            for i in 0..600u32 {
                w.push_row(&[i % 100]).unwrap();
            }
        }
        let input = w.finish().unwrap();
        assert!(input.is_spilled());
        let out = spill_distinct(input, &[0], &mgr).unwrap();
        let got = collect_cursor(out.cursor(&mgr).unwrap()).unwrap();
        assert_eq!(got.len(), 100);
        let vals: Vec<u32> = got.iter().map(|r| r[0]).collect();
        assert_eq!(vals, (0..100).collect::<Vec<_>>());
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
}
