//! Pluggable run storage for out-of-core execution.
//!
//! The paper's headline claim is that an RDBMS takes MLN grounding past
//! RAM (§3.1); this module is the storage seam that makes that possible
//! in the embedded engine. A [`StorageBackend`] stores immutable *runs*
//! — flat `u32` word sequences written once and then read back in
//! arbitrary ranges — which is exactly what relations over the
//! executor's memory budget ([`crate::spill`]) need: sorted runs for
//! external merge, and partition files for grace-hash joins.
//!
//! # Backend contract
//!
//! * [`StorageBackend::write_run`] persists `data` and returns a
//!   [`RunHandle`] identifying it. Runs are immutable once written.
//! * [`StorageBackend::read_range`] reads `len` words starting at word
//!   `offset` of a run. Implementations must return exactly the words
//!   written, in order — the spill layer's determinism contract (a
//!   result is bit-identical whatever spilled) rests on this.
//! * [`StorageBackend::free_run`] releases a run's storage. Freeing an
//!   unknown or already-freed handle is a no-op.
//! * Implementations are `Send + Sync`: the parallel grounder calls them
//!   from worker threads concurrently.
//!
//! Two implementations ship: [`MemBackend`] (runs in heap vectors — the
//! testing / "spill policy without real I/O" backend) and
//! [`FileBackend`] (one file per run in a private temporary directory,
//! created by the first write and removed on drop — the real out-of-core
//! backend).

use crate::error::DbError;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::fs;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// Identifies one immutable run held by a [`StorageBackend`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct RunHandle {
    /// Backend-assigned run id.
    pub id: u64,
    /// Run length in `u32` words.
    pub words: u64,
}

/// Immutable-run storage; see the module docs for the contract.
pub trait StorageBackend: Send + Sync {
    /// Persists `data` as a new run.
    fn write_run(&self, data: &[u32]) -> Result<RunHandle, DbError>;

    /// Reads `len` words starting at word `offset` into `out` (which is
    /// cleared first). Errors if the range exceeds the run.
    fn read_range(
        &self,
        run: RunHandle,
        offset: u64,
        len: usize,
        out: &mut Vec<u32>,
    ) -> Result<(), DbError>;

    /// Releases a run's storage (no-op for unknown handles).
    fn free_run(&self, run: RunHandle);

    /// Total words ever written (instrumentation).
    fn words_written(&self) -> u64;
}

/// Heap-backed run storage: the "mem" backend. Spill *policy* (when to
/// cut runs, partition counts, merge order) is identical to
/// [`FileBackend`]; only the bytes never leave RAM. Useful for tests and
/// for bounding working-set size without paying file I/O.
#[derive(Debug, Default)]
pub struct MemBackend {
    runs: Mutex<HashMap<u64, Vec<u32>>>,
    next_id: AtomicU64,
    written: AtomicU64,
}

impl MemBackend {
    /// New empty backend.
    pub fn new() -> MemBackend {
        MemBackend::default()
    }
}

impl StorageBackend for MemBackend {
    fn write_run(&self, data: &[u32]) -> Result<RunHandle, DbError> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.written.fetch_add(data.len() as u64, Ordering::Relaxed);
        self.runs.lock().insert(id, data.to_vec());
        Ok(RunHandle {
            id,
            words: data.len() as u64,
        })
    }

    fn read_range(
        &self,
        run: RunHandle,
        offset: u64,
        len: usize,
        out: &mut Vec<u32>,
    ) -> Result<(), DbError> {
        out.clear();
        let runs = self.runs.lock();
        let data = runs
            .get(&run.id)
            .ok_or_else(|| DbError::Io(format!("unknown run {}", run.id)))?;
        let start = offset as usize;
        let end = start
            .checked_add(len)
            .filter(|&e| e <= data.len())
            .ok_or_else(|| DbError::Io(format!("read past end of run {}", run.id)))?;
        out.extend_from_slice(&data[start..end]);
        Ok(())
    }

    fn free_run(&self, run: RunHandle) {
        self.runs.lock().remove(&run.id);
    }

    fn words_written(&self) -> u64 {
        self.written.load(Ordering::Relaxed)
    }
}

/// File-backed run storage: one little-endian `u32` stream per run in a
/// private temporary directory, created by the first [`write_run`] (a
/// backend that never receives a run touches no filesystem) and removed
/// (with every remaining run) when the backend drops. This is the real
/// out-of-core backend — spilled intermediate state lives on disk, not
/// in the heap.
///
/// [`write_run`]: StorageBackend::write_run
#[derive(Debug)]
pub struct FileBackend {
    dir: PathBuf,
    next_id: AtomicU64,
    written: AtomicU64,
    open: Mutex<HashMap<u64, ()>>,
}

impl FileBackend {
    /// Creates a backend spilling into a fresh subdirectory of `base`
    /// (made on the first write).
    pub fn in_dir(base: &std::path::Path) -> Result<FileBackend, DbError> {
        static DIR_SEQ: AtomicU64 = AtomicU64::new(0);
        let unique = format!(
            "tuffy-spill-{}-{}",
            std::process::id(),
            DIR_SEQ.fetch_add(1, Ordering::Relaxed)
        );
        Ok(FileBackend {
            dir: base.join(unique),
            next_id: AtomicU64::new(0),
            written: AtomicU64::new(0),
            open: Mutex::new(HashMap::new()),
        })
    }

    /// Creates a backend spilling into the system temporary directory.
    pub fn in_temp_dir() -> Result<FileBackend, DbError> {
        FileBackend::in_dir(&std::env::temp_dir())
    }

    /// The directory runs are written into (absent until the first run).
    pub fn dir(&self) -> &std::path::Path {
        &self.dir
    }

    fn run_path(&self, id: u64) -> PathBuf {
        self.dir.join(format!("run-{id}.u32"))
    }
}

impl Drop for FileBackend {
    fn drop(&mut self) {
        // Best-effort cleanup of the private spill directory.
        let _ = fs::remove_dir_all(&self.dir);
    }
}

fn io_err(e: std::io::Error) -> DbError {
    DbError::Io(e.to_string())
}

impl StorageBackend for FileBackend {
    fn write_run(&self, data: &[u32]) -> Result<RunHandle, DbError> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let path = self.run_path(id);
        let mut f = match fs::File::create(&path) {
            // First run: the private directory does not exist yet.
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                fs::create_dir_all(&self.dir).map_err(io_err)?;
                fs::File::create(&path)
            }
            other => other,
        }
        .map_err(io_err)?;
        // Little-endian words, buffered through a chunk to avoid a
        // full-run byte copy.
        let mut buf = Vec::with_capacity(64 * 1024);
        for chunk in data.chunks(16 * 1024) {
            buf.clear();
            for &w in chunk {
                buf.extend_from_slice(&w.to_le_bytes());
            }
            f.write_all(&buf).map_err(io_err)?;
        }
        f.flush().map_err(io_err)?;
        self.written.fetch_add(data.len() as u64, Ordering::Relaxed);
        self.open.lock().insert(id, ());
        Ok(RunHandle {
            id,
            words: data.len() as u64,
        })
    }

    fn read_range(
        &self,
        run: RunHandle,
        offset: u64,
        len: usize,
        out: &mut Vec<u32>,
    ) -> Result<(), DbError> {
        out.clear();
        if offset + len as u64 > run.words {
            return Err(DbError::Io(format!("read past end of run {}", run.id)));
        }
        let mut f = fs::File::open(self.run_path(run.id)).map_err(io_err)?;
        f.seek(SeekFrom::Start(offset * 4)).map_err(io_err)?;
        let mut bytes = vec![0u8; len * 4];
        f.read_exact(&mut bytes).map_err(io_err)?;
        out.reserve(len);
        for c in bytes.chunks_exact(4) {
            out.push(u32::from_le_bytes([c[0], c[1], c[2], c[3]]));
        }
        Ok(())
    }

    fn free_run(&self, run: RunHandle) {
        if self.open.lock().remove(&run.id).is_some() {
            let _ = fs::remove_file(self.run_path(run.id));
        }
    }

    fn words_written(&self) -> u64 {
        self.written.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(backend: &dyn StorageBackend) {
        let data: Vec<u32> = (0..1000).map(|i| i * 7 + 3).collect();
        let run = backend.write_run(&data).unwrap();
        assert_eq!(run.words, 1000);
        let mut out = Vec::new();
        backend.read_range(run, 0, 1000, &mut out).unwrap();
        assert_eq!(out, data);
        backend.read_range(run, 500, 10, &mut out).unwrap();
        assert_eq!(out, &data[500..510]);
        assert!(backend.read_range(run, 995, 10, &mut out).is_err());
        assert_eq!(backend.words_written(), 1000);
        backend.free_run(run);
        backend.free_run(run); // double-free is a no-op
    }

    #[test]
    fn mem_backend_roundtrip() {
        roundtrip(&MemBackend::new());
    }

    #[test]
    fn file_backend_roundtrip() {
        let b = FileBackend::in_temp_dir().unwrap();
        let dir = b.dir().to_path_buf();
        assert!(!dir.exists(), "spill dir is created by the first write");
        roundtrip(&b);
        assert!(dir.exists());
        drop(b);
        assert!(!dir.exists(), "spill dir removed on drop");
    }

    #[test]
    fn file_backend_runs_freed_on_free() {
        let b = FileBackend::in_temp_dir().unwrap();
        let run = b.write_run(&[1, 2, 3]).unwrap();
        let path = b.dir().join(format!("run-{}.u32", run.id));
        assert!(path.exists());
        b.free_run(run);
        assert!(!path.exists());
    }
}
