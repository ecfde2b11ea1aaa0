//! The durable serving lineage: base generation + delta WAL.
//!
//! [`Engine::save`]/[`Engine::load`] persist one *base* generation; a
//! serving process that commits incremental applies on top of it would
//! lose them all on a crash. [`DurableEngine`] closes that window with
//! write-ahead logging (see [`tuffy_store::wal`] for the on-disk
//! format):
//!
//! * [`DurableEngine::apply`] forks the new generation in memory,
//!   appends the delta's source text to the WAL, `fsync`s it, and only
//!   then commits the fork and acknowledges — an acknowledged apply is
//!   durable, an unacknowledged one leaves the lineage (and the log)
//!   exactly as before;
//! * [`DurableEngine::open`] loads the base generation, recovers the
//!   WAL records above the base's folded sequence, and lands on the
//!   exact pre-crash generation — bit-identically, because delta
//!   parsing (constant interning order) and incremental grounding are
//!   deterministic. It does not re-run history one apply at a time.
//!   Some records re-ground on *any* store — a closed-world change, a
//!   retract or a flip ([`forces_reground`]) — and a from-scratch
//!   grounding depends only on program, evidence and config (paper
//!   §3.1: it is a set of queries over the evidence tables). So every
//!   record up to the last such record *r* is folded into the evidence
//!   alone, the lineage grounds once with the program and evidence as
//!   they stood after *r*, and only the records after *r* are forked
//!   one by one. The pre-crash lineage re-grounded at *r* from those
//!   very inputs, so everything after it replays bit for bit. (Folding
//!   the whole suffix into one net change would not be exact: a patched
//!   lineage numbers its atoms differently from a fresh grounding.)
//!   Restart cost is base load, plus one grounding at *r*, plus one
//!   patch per later record;
//! * [`DurableEngine::checkpoint`] folds the lineage head into a new
//!   base generation atomically (recording the folded WAL sequence
//!   *inside* the base file), then truncates the log; a crash between
//!   the two steps is safe because replay skips folded records.
//!
//! Unlike per-caller [`Session`]s — whose applies fork private
//! generations — a durable engine is **one shared lineage**, like a
//! database: every committed apply is visible to every subsequent
//! reader ([`DurableEngine::reader`]).

use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::engine::Engine;
use crate::persist::{load_with_folded_seq, save_snapshot};
use crate::session::{ApplyReport, Session};
use crate::snapshot::Snapshot;
use tuffy_grounder::incremental::forces_reground;
use tuffy_mln::evidence::{EvidenceChange, EvidenceSet};
use tuffy_mln::program::MlnProgram;
use tuffy_mln::MlnError;
use tuffy_store::wal::{Wal, WalRecord, WalStorage};
use tuffy_store::{StoreError, WalOpenReport};

/// File name of the delta WAL inside a store directory, next to
/// [`GENERATION_FILE`](crate::GENERATION_FILE).
pub const WAL_FILE: &str = "deltas.twl";

/// Why a durable apply was refused. The two classes matter to callers:
/// an invalid delta is the client's fault and costs nothing; a storage
/// failure means the delta was **not** made durable (and was not
/// committed — the lineage still serves the previous generation).
#[derive(Debug)]
pub enum DurableError {
    /// The delta failed to parse or to apply (engine-level rejection).
    Invalid(MlnError),
    /// The WAL append or fsync failed; the apply was rolled back.
    Store(StoreError),
}

impl fmt::Display for DurableError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DurableError::Invalid(e) => write!(f, "{e}"),
            DurableError::Store(e) => write!(f, "delta not durable: {e}"),
        }
    }
}

impl std::error::Error for DurableError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DurableError::Invalid(e) => Some(e),
            DurableError::Store(e) => Some(e),
        }
    }
}

/// What a committed [`DurableEngine::apply`] did.
#[derive(Debug)]
pub struct ApplyOutcome {
    /// The engine-level apply report (incrementality, patch stats…).
    pub report: ApplyReport,
    /// The delta's WAL sequence number — the durable coordinate of this
    /// commit (generation numbers restart at a reload; sequences don't).
    pub seq: u64,
    /// The lineage head's generation after the apply.
    pub generation: u64,
    /// Whether this apply tripped the checkpoint threshold and folded
    /// the WAL into a new base generation.
    pub checkpointed: bool,
}

/// What [`DurableEngine::open`] recovered.
#[derive(Debug)]
pub struct RecoveryReport {
    /// WAL records replayed on top of the base generation.
    pub replayed: u64,
    /// Records skipped because the base had already folded them (a
    /// crash landed between checkpoint and WAL reset).
    pub skipped: u64,
    /// Whether a torn tail record — an append the crash interrupted
    /// before it was acknowledged — was truncated away.
    pub truncated_tail: bool,
    /// The recovered head's generation.
    pub generation: u64,
    /// The WAL sequence the lineage has committed through.
    pub seq: u64,
    /// Grounding runs replay paid for: one at the last record that
    /// forces a re-ground (if any), plus any later record that falls
    /// outside the patch fragment.
    pub regrounds: u64,
    /// Records whose evidence was folded into that one grounding with no
    /// grounding work of their own: every record before the last
    /// forcing one.
    pub evidence_only: u64,
    /// Wall-clock time of load + replay.
    pub wall: Duration,
}

/// One crash-durable serving lineage over a store directory. See the
/// [module docs](self).
pub struct DurableEngine {
    engine: Engine,
    /// The lineage's program: extended copy-on-write as committed
    /// deltas intern new constants. Failed applies never touch it —
    /// interning order must match what a future replay will do.
    program: Arc<MlnProgram>,
    head: Snapshot,
    wal: Wal,
    dir: PathBuf,
    checkpoint_every: u64,
    last_checkpoint_error: Option<StoreError>,
}

impl DurableEngine {
    /// Starts a fresh durable lineage in `dir`: saves `engine`'s base
    /// generation and creates an empty WAL. `checkpoint_every` is the
    /// auto-checkpoint threshold in WAL records (0 disables).
    pub fn create(
        engine: Engine,
        dir: &Path,
        checkpoint_every: u64,
    ) -> Result<DurableEngine, StoreError> {
        save_snapshot(&engine.snapshot(), dir, 0)?;
        let (wal, _) = Wal::open(&dir.join(WAL_FILE), 0)?;
        Ok(DurableEngine::assemble(engine, wal, dir, checkpoint_every))
    }

    /// Recovers the durable lineage in `dir`: loads the base
    /// generation and opens the WAL above the base's folded sequence,
    /// truncating a torn tail. Replay then runs in two passes (see the
    /// [module docs](self)). The first parses every record against
    /// throw-away copies of program and evidence to find the last record
    /// that forces a re-ground. The second folds the records up to it
    /// into the evidence, in order (so constants intern as they did
    /// live), grounds once, and forks the head through the records after
    /// it. Returns the lineage at its exact pre-crash head plus what
    /// recovery found.
    pub fn open(
        dir: &Path,
        checkpoint_every: u64,
    ) -> Result<(DurableEngine, RecoveryReport), StoreError> {
        let start = Instant::now();
        let (engine, folded_seq) = load_with_folded_seq(dir)?;
        let (wal, report) = Wal::open(&dir.join(WAL_FILE), folded_seq)?;
        DurableEngine::replay(engine, wal, report, dir, checkpoint_every, start)
    }

    /// [`DurableEngine::create`] with the WAL on a caller-supplied
    /// [`WalStorage`] — the chaos harness's fault-injection seam.
    pub fn create_with_wal(
        engine: Engine,
        dir: &Path,
        storage: Box<dyn WalStorage>,
        checkpoint_every: u64,
    ) -> Result<DurableEngine, StoreError> {
        save_snapshot(&engine.snapshot(), dir, 0)?;
        let (wal, _) = Wal::with_storage(storage, 0)?;
        Ok(DurableEngine::assemble(engine, wal, dir, checkpoint_every))
    }

    /// [`DurableEngine::open`] with the WAL on a caller-supplied
    /// [`WalStorage`].
    pub fn open_with_wal(
        dir: &Path,
        storage: Box<dyn WalStorage>,
        checkpoint_every: u64,
    ) -> Result<(DurableEngine, RecoveryReport), StoreError> {
        let start = Instant::now();
        let (engine, folded_seq) = load_with_folded_seq(dir)?;
        let (wal, report) = Wal::with_storage(storage, folded_seq)?;
        DurableEngine::replay(engine, wal, report, dir, checkpoint_every, start)
    }

    fn assemble(engine: Engine, wal: Wal, dir: &Path, checkpoint_every: u64) -> DurableEngine {
        let head = engine.snapshot();
        DurableEngine {
            program: head.program_arc(),
            head,
            engine,
            wal,
            dir: dir.to_path_buf(),
            checkpoint_every,
            last_checkpoint_error: None,
        }
    }

    /// The two replay passes of [`DurableEngine::open`] over the loaded
    /// base. `start` is when the caller began loading, so the report's
    /// wall time covers load and replay.
    fn replay(
        engine: Engine,
        wal: Wal,
        found: WalOpenReport,
        dir: &Path,
        checkpoint_every: u64,
        start: Instant,
    ) -> Result<(DurableEngine, RecoveryReport), StoreError> {
        let mut durable = DurableEngine::assemble(engine, wal, dir, checkpoint_every);
        let groundings = durable.engine.groundings_performed();
        let records = &found.replay;

        // Pass 1: how many leading records end at the last one that
        // re-grounds on any store (0 when none does)?
        let forced = {
            let mut program = durable.program.clone();
            let mut evidence = durable.head.evidence().clone();
            let mut forced = 0;
            for (i, record) in records.iter().enumerate() {
                let changes = fold_record(&mut program, &mut evidence, record)?;
                if forces_reground(&program, &changes).is_some() {
                    forced = i + 1;
                }
            }
            forced
        };

        // Pass 2: fold those records into the evidence and ground once
        // under the program as it stood after the last of them; fork the
        // head through the rest exactly as the live applies did.
        if let Some(last) = forced.checked_sub(1) {
            let mut program = durable.program.clone();
            let mut evidence = durable.head.evidence().clone();
            for record in &records[..forced] {
                fold_record(&mut program, &mut evidence, record)?;
            }
            durable.head = durable
                .head
                .regrounded(&program, evidence)
                .map_err(|e| replay_failed(&records[last], e))?;
            durable.program = program;
        }
        for record in &records[forced..] {
            durable
                .fork_head(record_source(record)?)
                .map_err(|e| replay_failed(record, e))?;
        }

        let report = RecoveryReport {
            replayed: records.len() as u64,
            skipped: found.skipped,
            truncated_tail: found.truncated,
            generation: durable.head.generation(),
            seq: durable.wal.next_seq() - 1,
            regrounds: durable.engine.groundings_performed() - groundings,
            evidence_only: forced.saturating_sub(1) as u64,
            wall: start.elapsed(),
        };
        Ok((durable, report))
    }

    /// Parses `src` and forks the lineage head, committing program and
    /// head only on full success — a failed delta must not perturb
    /// constant-interning order, or replay would diverge.
    fn fork_head(&mut self, src: &str) -> Result<ApplyReport, MlnError> {
        let mut program = self.program.clone();
        let delta = tuffy_mln::parser::parse_delta(Arc::make_mut(&mut program), src)?;
        let (head, report, _) = self.head.fork(&program, &delta)?;
        self.program = program;
        self.head = head;
        Ok(report)
    }

    /// Commits one delta durably: fork in memory, WAL append + `fsync`,
    /// then advance the head. On `Err` nothing moved — the previous
    /// generation is still served and the log holds no trace of the
    /// failed delta.
    pub fn apply(&mut self, src: &str) -> Result<ApplyOutcome, DurableError> {
        // Stage the fork first (cheap to discard); the WAL append is
        // the commit point.
        let staged_program = {
            let mut program = self.program.clone();
            let delta = tuffy_mln::parser::parse_delta(Arc::make_mut(&mut program), src)
                .map_err(DurableError::Invalid)?;
            let (head, report, _) = self
                .head
                .fork(&program, &delta)
                .map_err(DurableError::Invalid)?;
            (program, head, report)
        };
        let (program, head, report) = staged_program;
        let seq = self
            .wal
            .append(src.as_bytes())
            .map_err(DurableError::Store)?;
        self.program = program;
        self.head = head;
        let mut checkpointed = false;
        if self.checkpoint_every > 0 && self.wal.records() >= self.checkpoint_every {
            match self.checkpoint() {
                Ok(_) => checkpointed = true,
                Err(e) => self.last_checkpoint_error = Some(e),
            }
        }
        Ok(ApplyOutcome {
            report,
            seq,
            generation: self.head.generation(),
            checkpointed,
        })
    }

    /// Commits learned rule weights durably: forks the head through
    /// [`Snapshot::relearn`] (O(clauses), structural arenas shared, no
    /// grounding) and immediately folds the new generation into the base
    /// file. A weight change has no WAL-delta representation, so the
    /// checkpoint *is* the commit point — on success the learned weight
    /// columns are on disk and a crash recovers them; on `Err` before
    /// the base save, nothing moved and the lineage still serves the
    /// previous weights. Returns the new base path.
    pub fn relearn(&mut self, rule_weights: &[tuffy_mln::Weight]) -> Result<PathBuf, DurableError> {
        let head = self
            .head
            .relearn(rule_weights)
            .map_err(DurableError::Invalid)?;
        let folded = self.wal.next_seq() - 1;
        let path = save_snapshot(&head, &self.dir, folded).map_err(DurableError::Store)?;
        // The base is durable: advance the head before truncating the
        // log, so a reset failure leaves a fully consistent lineage
        // (replay skips records the base already folded).
        self.program = head.program_arc();
        self.head = head;
        self.wal.reset().map_err(DurableError::Store)?;
        Ok(path)
    }

    /// Folds the lineage head into a new base generation (atomic
    /// replace, folded sequence recorded inside the file), then
    /// truncates the WAL. A crash between the steps is safe: replay
    /// skips records the base already folded.
    pub fn checkpoint(&mut self) -> Result<PathBuf, StoreError> {
        let folded = self.wal.next_seq() - 1;
        let path = save_snapshot(&self.head, &self.dir, folded)?;
        self.wal.reset()?;
        Ok(path)
    }

    /// A fresh read session over the current lineage head. Queries (and
    /// ephemeral `given` forks) run against it without holding the
    /// durable lineage.
    pub fn reader(&self) -> Session {
        Session::from_snapshot(self.head.clone())
    }

    /// The lineage head's generation number (restarts with the process;
    /// [`ApplyOutcome::seq`] is the durable coordinate).
    pub fn generation(&self) -> u64 {
        self.head.generation()
    }

    /// The shared engine instrumentation this lineage forks from.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// The store directory this lineage persists into.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The WAL sequence committed through (0 = base only).
    pub fn committed_seq(&self) -> u64 {
        self.wal.next_seq() - 1
    }

    /// Records currently in the WAL (resets to 0 at a checkpoint).
    pub fn wal_records(&self) -> u64 {
        self.wal.records()
    }

    /// WAL size in bytes, header included.
    pub fn wal_len_bytes(&self) -> u64 {
        self.wal.len_bytes()
    }

    /// `fsync`s the WAL (the drain path calls this; appends already
    /// sync themselves).
    pub fn sync(&mut self) -> Result<(), StoreError> {
        self.wal.sync()
    }

    /// Takes the error of the most recent *automatic* checkpoint, if it
    /// failed. An auto-checkpoint failure does not fail the apply that
    /// tripped it — the WAL still holds every committed delta — but the
    /// caller should surface it.
    pub fn take_checkpoint_error(&mut self) -> Option<StoreError> {
        self.last_checkpoint_error.take()
    }
}

/// A WAL record's delta source text.
fn record_source(record: &WalRecord) -> Result<&str, StoreError> {
    std::str::from_utf8(&record.payload).map_err(|_| {
        StoreError::malformed(format!(
            "wal record seq {} payload is not UTF-8",
            record.seq
        ))
    })
}

fn replay_failed(record: &WalRecord, e: MlnError) -> StoreError {
    StoreError::malformed(format!("wal replay of seq {} failed: {e}", record.seq))
}

/// Parses `record` against `program` (interning its constants) and
/// applies it to `evidence` alone, returning the net changes.
fn fold_record(
    program: &mut Arc<MlnProgram>,
    evidence: &mut EvidenceSet,
    record: &WalRecord,
) -> Result<Vec<EvidenceChange>, StoreError> {
    let src = record_source(record)?;
    let delta = tuffy_mln::parser::parse_delta(Arc::make_mut(program), src)
        .map_err(|e| replay_failed(record, e))?;
    evidence
        .apply(program, &delta)
        .map_err(|e| replay_failed(record, e))
}
