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
//!   then publishes the fork as the head and acknowledges — an
//!   acknowledged apply is durable, an unacknowledged one leaves the
//!   lineage (and the log) exactly as before;
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
//! A lineage is **one shared head**, like a database, read committed: a
//! [`LineageHead`] holds the last committed generation, and readers take
//! it without waiting for a writer. The head is published at the commit
//! point and nowhere else — by `apply` once the WAL append is fsynced
//! (before any auto-checkpoint), by `relearn` once the base is saved,
//! and by `open` once replay ends — so a reader sees the generation
//! before a commit or the one after it, never one that is not durable.
//! [`DurableEngine::in_memory`] keeps the same lineage with no store
//! behind it: applies commit without a log, and a restart starts over
//! from the engine it was built from.

use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use crate::engine::Engine;
use crate::persist::{load_with_folded_seq, save_snapshot};
use crate::session::{ApplyReport, Session};
use crate::snapshot::Snapshot;
use tuffy_grounder::incremental::forces_reground;
use tuffy_mln::evidence::{EvidenceChange, EvidenceSet};
use tuffy_mln::program::MlnProgram;
use tuffy_mln::MlnError;
use tuffy_store::wal::{FileStorage, Wal, WalRecord, WalStorage};
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

/// A lineage's committed head, read without the lineage: cloneable, and
/// shared by every reader and the one writer that publishes to it (see
/// the [module docs](self)). A read costs one `Arc` clone under a mutex.
#[derive(Clone)]
pub struct LineageHead(Arc<Mutex<Snapshot>>);

impl LineageHead {
    fn new(head: Snapshot) -> LineageHead {
        LineageHead(Arc::new(Mutex::new(head)))
    }

    /// The committed head. Poison is cleared: the critical sections
    /// only clone or swap a `Snapshot`.
    fn get(&self) -> Snapshot {
        self.0
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// Makes `head` the committed head. The generation it replaces is
    /// dropped after the lock is released.
    fn publish(&self, head: Snapshot) {
        let old = std::mem::replace(
            &mut *self.0.lock().unwrap_or_else(PoisonError::into_inner),
            head,
        );
        drop(old);
    }

    /// A fresh read session over the committed head.
    pub fn reader(&self) -> Session {
        Session::from_snapshot(self.get())
    }

    /// The committed head's generation number.
    pub fn generation(&self) -> u64 {
        self.get().generation()
    }
}

/// One serving lineage, crash-durable over a store directory unless
/// built [in memory](DurableEngine::in_memory). See the
/// [module docs](self).
pub struct DurableEngine {
    engine: Engine,
    /// The lineage's program: extended copy-on-write as committed
    /// deltas intern new constants. Failed applies never touch it —
    /// interning order must match what a future replay will do.
    program: Arc<MlnProgram>,
    head: LineageHead,
    /// The delta log and the directory of the base generation; `None`
    /// for an in-memory lineage.
    store: Option<(Wal, PathBuf)>,
    /// The sequence committed through (0 = base only).
    seq: u64,
    checkpoint_every: u64,
    last_checkpoint_error: Option<StoreError>,
}

impl DurableEngine {
    /// Starts a fresh durable lineage in `dir`: empties the WAL, then
    /// saves `engine`'s base generation, replacing whatever lineage `dir`
    /// held. `checkpoint_every` is the auto-checkpoint threshold in WAL
    /// records (0 disables).
    pub fn create(
        engine: Engine,
        dir: &Path,
        checkpoint_every: u64,
    ) -> Result<DurableEngine, StoreError> {
        std::fs::create_dir_all(dir)
            .map_err(|e| StoreError::io(format!("create store dir {}", dir.display()), e))?;
        let storage = FileStorage::open(&dir.join(WAL_FILE))?;
        DurableEngine::create_with_wal(engine, dir, Box::new(storage), checkpoint_every)
    }

    /// A lineage over `engine` with no store: applies commit in memory
    /// only, and nothing survives the process.
    pub fn in_memory(engine: Engine) -> DurableEngine {
        DurableEngine::assemble(engine, None, 0)
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
        let storage = FileStorage::open(&dir.join(WAL_FILE))?;
        DurableEngine::open_with_wal(dir, Box::new(storage), checkpoint_every)
    }

    /// [`DurableEngine::create`] with the WAL on a caller-supplied
    /// [`WalStorage`] — the chaos harness's fault-injection seam.
    pub fn create_with_wal(
        engine: Engine,
        dir: &Path,
        mut storage: Box<dyn WalStorage>,
        checkpoint_every: u64,
    ) -> Result<DurableEngine, StoreError> {
        // The old log goes (unread: it may be damaged) and the empty one
        // is synced before the new base is saved, so a crash in between
        // leaves the old base without its log, never the new base with
        // the old records.
        storage
            .truncate_to(0)
            .map_err(|e| StoreError::io("discard the previous wal", e))?;
        let (wal, _) = Wal::with_storage(storage, 0)?;
        save_snapshot(&engine.snapshot(), dir, 0)?;
        let store = Some((wal, dir.to_path_buf()));
        Ok(DurableEngine::assemble(engine, store, checkpoint_every))
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

    fn assemble(
        engine: Engine,
        store: Option<(Wal, PathBuf)>,
        checkpoint_every: u64,
    ) -> DurableEngine {
        let head = engine.snapshot();
        DurableEngine {
            program: head.program_arc(),
            head: LineageHead::new(head),
            engine,
            seq: store.as_ref().map_or(0, |(wal, _)| wal.next_seq() - 1),
            store,
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
        let store = Some((wal, dir.to_path_buf()));
        let mut durable = DurableEngine::assemble(engine, store, checkpoint_every);
        let groundings = durable.engine.groundings_performed();
        let records = &found.replay;
        let mut head = durable.head.get();

        // Pass 1: how many leading records end at the last one that
        // re-grounds on any store (0 when none does)?
        let forced = {
            let mut program = durable.program.clone();
            let mut evidence = head.evidence().clone();
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
            let mut evidence = head.evidence().clone();
            for record in &records[..forced] {
                fold_record(&mut program, &mut evidence, record)?;
            }
            head = head
                .regrounded(&program, evidence)
                .map_err(|e| replay_failed(&records[last], e))?;
            durable.program = program;
        }
        for record in &records[forced..] {
            let (program, next, _) = durable
                .stage(&head, record_source(record)?)
                .map_err(|e| replay_failed(record, e))?;
            durable.program = program;
            head = next;
        }
        let generation = head.generation();
        durable.head.publish(head);

        let report = RecoveryReport {
            replayed: records.len() as u64,
            skipped: found.skipped,
            truncated_tail: found.truncated,
            generation,
            seq: durable.seq,
            regrounds: durable.engine.groundings_performed() - groundings,
            evidence_only: forced.saturating_sub(1) as u64,
            wall: start.elapsed(),
        };
        Ok((durable, report))
    }

    /// Parses `src` against the lineage program (copied only if the delta
    /// interns a constant) and forks `head` under it, touching neither the
    /// lineage's program nor its head: the caller commits both only on
    /// full success, since a failed delta must not perturb
    /// constant-interning order, or replay would diverge.
    fn stage(
        &self,
        head: &Snapshot,
        src: &str,
    ) -> Result<(Arc<MlnProgram>, Snapshot, ApplyReport), MlnError> {
        let mut program = self.program.clone();
        let delta = tuffy_mln::parser::parse_delta_shared(&mut program, src)?;
        let (head, report, _) = head.fork(&program, &delta)?;
        Ok((program, head, report))
    }

    /// Commits one delta: fork in memory, WAL append + `fsync` (when the
    /// lineage has a store), then publish the head — before an
    /// auto-checkpoint, so readers never wait for one. On `Err` nothing
    /// moved — the previous generation is still served and the log holds
    /// no trace of the failed delta.
    pub fn apply(&mut self, src: &str) -> Result<ApplyOutcome, DurableError> {
        // Stage the fork first (cheap to discard); the WAL append is
        // the commit point.
        let (program, head, report) = self
            .stage(&self.head.get(), src)
            .map_err(DurableError::Invalid)?;
        if let Some((wal, _)) = &mut self.store {
            wal.append(src.as_bytes()).map_err(DurableError::Store)?;
        }
        self.seq += 1;
        self.program = program;
        let generation = head.generation();
        self.head.publish(head);
        let mut checkpointed = false;
        if self.checkpoint_every > 0 && self.wal_records() >= self.checkpoint_every {
            match self.checkpoint() {
                Ok(_) => checkpointed = true,
                Err(e) => self.last_checkpoint_error = Some(e),
            }
        }
        Ok(ApplyOutcome {
            report,
            seq: self.seq,
            generation,
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
    /// previous weights. Returns the new base path; an in-memory lineage
    /// has no base to fold into and refuses.
    pub fn relearn(&mut self, rule_weights: &[tuffy_mln::Weight]) -> Result<PathBuf, DurableError> {
        let head = self
            .head
            .get()
            .relearn(rule_weights)
            .map_err(DurableError::Invalid)?;
        let (wal, dir) = store(&mut self.store).map_err(DurableError::Store)?;
        let path = save_snapshot(&head, dir, self.seq).map_err(DurableError::Store)?;
        // The base is durable: publish the head before truncating the
        // log, so a reset failure leaves a fully consistent lineage
        // (replay skips records the base already folded).
        self.program = head.program_arc();
        self.head.publish(head);
        wal.reset().map_err(DurableError::Store)?;
        Ok(path)
    }

    /// Folds the lineage head into a new base generation (atomic
    /// replace, folded sequence recorded inside the file), then
    /// truncates the WAL. A crash between the steps is safe: replay
    /// skips records the base already folded. An in-memory lineage has
    /// no base to fold into and refuses.
    pub fn checkpoint(&mut self) -> Result<PathBuf, StoreError> {
        let (wal, dir) = store(&mut self.store)?;
        let path = save_snapshot(&self.head.get(), dir, self.seq)?;
        wal.reset()?;
        Ok(path)
    }

    /// A fresh read session over the committed head. Queries (and
    /// ephemeral `given` forks) run against it without holding the
    /// durable lineage.
    pub fn reader(&self) -> Session {
        self.head.reader()
    }

    /// A read handle on the committed head, for readers that must not
    /// wait for this lineage's writer (see [`LineageHead`]).
    pub fn head(&self) -> LineageHead {
        self.head.clone()
    }

    /// The committed head's generation number (restarts with the
    /// process; [`ApplyOutcome::seq`] is the durable coordinate).
    pub fn generation(&self) -> u64 {
        self.head.generation()
    }

    /// The shared engine instrumentation this lineage forks from.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// The sequence committed through (0 = base only).
    pub fn committed_seq(&self) -> u64 {
        self.seq
    }

    /// Records currently in the WAL (resets to 0 at a checkpoint; always
    /// 0 in memory).
    pub fn wal_records(&self) -> u64 {
        self.store.as_ref().map_or(0, |(wal, _)| wal.records())
    }

    /// WAL size in bytes, header included (0 in memory).
    pub fn wal_len_bytes(&self) -> u64 {
        self.store.as_ref().map_or(0, |(wal, _)| wal.len_bytes())
    }

    /// `fsync`s the WAL, if any (the drain path calls this; appends
    /// already sync themselves).
    pub fn sync(&mut self) -> Result<(), StoreError> {
        self.store.as_mut().map_or(Ok(()), |(wal, _)| wal.sync())
    }

    /// Takes the error of the most recent *automatic* checkpoint, if it
    /// failed. An auto-checkpoint failure does not fail the apply that
    /// tripped it — the WAL still holds every committed delta — but the
    /// caller should surface it.
    pub fn take_checkpoint_error(&mut self) -> Option<StoreError> {
        self.last_checkpoint_error.take()
    }
}

/// The log and directory of a lineage's store, or why an in-memory one
/// cannot fold into a base.
fn store(store: &mut Option<(Wal, PathBuf)>) -> Result<(&mut Wal, &Path), StoreError> {
    match store {
        Some((wal, dir)) => Ok((wal, dir)),
        None => Err(StoreError::io(
            "fold the lineage into a base",
            std::io::Error::new(std::io::ErrorKind::Unsupported, "the lineage has no store"),
        )),
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
    let delta = tuffy_mln::parser::parse_delta_shared(program, src)
        .map_err(|e| replay_failed(record, e))?;
    evidence
        .apply(program, &delta)
        .map_err(|e| replay_failed(record, e))
}
