//! Buffer pool, I/O accounting, and the simulated disk model.
//!
//! The paper's hybrid-architecture argument (§3.2, Appendix B.2/C.1) rests
//! on a quantitative fact: a WalkSAT step against RDBMS-resident data pays
//! a page access (~10 ms if it goes to a random disk location) where an
//! in-memory step pays nanoseconds, so an RDBMS-backed search is three to
//! five orders of magnitude slower per flip. To reproduce that behaviour
//! deterministically on any machine, every page access runs through a
//! [`BufferPool`]: hits are free, misses are counted, and a [`DiskModel`]
//! converts miss counts into simulated I/O time. Experiments report
//! wall-clock time plus simulated I/O time.
//!
//! Only a bounded pool counts: the Tuffy-mm baseline's
//! (`tuffy_search::rdbms_search`) and tests'. The unbounded pool of
//! [`crate::Database::in_memory`], which grounding uses, never misses,
//! evicts or writes back, so an access returns before taking the lock.

use parking_lot::Mutex;
use std::collections::VecDeque;
use tuffy_mln::fxhash::FxHashMap;

/// Identifies a page: (table id, page index within the table).
pub type PageKey = (u32, u32);

/// Cumulative I/O counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IoStats {
    /// Buffer-pool hits (no I/O charged).
    pub hits: u64,
    /// Page reads from "disk" (pool misses).
    pub page_reads: u64,
    /// Dirty-page write-backs on eviction or flush.
    pub page_writes: u64,
}

impl IoStats {
    /// Total simulated I/O time under `model`.
    pub fn simulated_nanos(&self, model: &DiskModel) -> u128 {
        self.page_reads as u128 * model.read_latency_ns as u128
            + self.page_writes as u128 * model.write_latency_ns as u128
    }
}

/// A simple latency-per-page disk cost model.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DiskModel {
    /// Simulated latency of reading one page.
    pub read_latency_ns: u64,
    /// Simulated latency of writing one page.
    pub write_latency_ns: u64,
}

impl DiskModel {
    /// No simulated latency: pure in-memory operation (I/O still counted).
    pub const fn in_memory() -> Self {
        DiskModel {
            read_latency_ns: 0,
            write_latency_ns: 0,
        }
    }

    /// A magnetic-disk-like model: ~10 ms per random page access, the
    /// number Appendix C.1 uses to bound RDBMS-backed search at ≤100
    /// flips/second.
    pub const fn spinning_disk() -> Self {
        DiskModel {
            read_latency_ns: 10_000_000,
            write_latency_ns: 10_000_000,
        }
    }

    /// An SSD-like model (~100 µs per page).
    pub const fn ssd() -> Self {
        DiskModel {
            read_latency_ns: 100_000,
            write_latency_ns: 100_000,
        }
    }
}

/// Residency record of one page.
struct Page {
    dirty: bool,
    /// Tick of the page's most recent access; the LRU entry carrying
    /// this tick is the live one, older entries for the page are stale.
    tick: u64,
}

#[derive(Default)]
struct PoolState {
    /// Pages currently resident.
    resident: FxHashMap<PageKey, Page>,
    /// LRU queue of `(page, access tick)` (front = oldest). An access
    /// pushes a fresh entry instead of moving the old one, so the queue
    /// may hold stale entries — evicted pages, or ticks older than the
    /// page's current one; `resident` is authoritative. Compaction keeps
    /// the queue within twice the resident page count.
    lru: VecDeque<(PageKey, u64)>,
    /// Access counter the ticks are drawn from.
    tick: u64,
    stats: IoStats,
}

impl PoolState {
    /// Drops stale entries once they outnumber the live ones: amortized
    /// O(1) per access, and the queue stays bounded however long a pool
    /// that never evicts lives.
    fn compact_lru(&mut self) {
        if self.lru.len() > 2 * self.resident.len() {
            let resident = &self.resident;
            self.lru.retain(|&entry| is_live(resident, entry));
        }
    }
}

/// Whether an LRU entry is its page's most recent one.
fn is_live(resident: &FxHashMap<PageKey, Page>, (key, tick): (PageKey, u64)) -> bool {
    resident.get(&key).is_some_and(|p| p.tick == tick)
}

/// An LRU buffer pool over page keys.
///
/// The pool tracks *which* pages are resident, not their bytes — table data
/// lives in process memory either way (this is a simulation of disk
/// residency, faithful in its access pattern and counters).
pub struct BufferPool {
    capacity: usize,
    state: Mutex<PoolState>,
}

impl BufferPool {
    /// Creates a pool holding at most `capacity` pages. A capacity of 0
    /// disables caching entirely (every access is a miss). A capacity of
    /// `usize::MAX` holds every page: each access is a hit that is not
    /// counted, and the pool keeps no state.
    pub fn new(capacity: usize) -> Self {
        BufferPool {
            capacity,
            state: Mutex::new(PoolState::default()),
        }
    }

    /// Records an access to `key` for reading; returns `true` on a hit.
    pub fn touch_read(&self, key: PageKey) -> bool {
        self.access(key, false)
    }

    /// Records an access to `key` for writing (marks the page dirty).
    pub fn touch_write(&self, key: PageKey) -> bool {
        self.access(key, true)
    }

    fn access(&self, key: PageKey, write: bool) -> bool {
        if self.capacity == usize::MAX {
            return true;
        }
        let st = &mut *self.state.lock();
        if let Some(page) = st.resident.get_mut(&key) {
            page.dirty |= write;
            st.stats.hits += 1;
            // A page accessed twice in a row is already at the back.
            if st.lru.back().map(|&(back, _)| back) != Some(key) {
                st.tick += 1;
                page.tick = st.tick;
                st.lru.push_back((key, st.tick));
                st.compact_lru();
            }
            return true;
        }
        st.stats.page_reads += 1;
        if self.capacity == 0 {
            if write {
                st.stats.page_writes += 1;
            }
            return false;
        }
        while st.resident.len() >= self.capacity {
            let Some(oldest) = st.lru.pop_front() else {
                break;
            };
            // Skip stale entries: the page was evicted or touched since.
            if !is_live(&st.resident, oldest) {
                continue;
            }
            if st.resident.remove(&oldest.0).is_some_and(|p| p.dirty) {
                st.stats.page_writes += 1;
            }
        }
        st.tick += 1;
        st.lru.push_back((key, st.tick));
        let page = Page {
            dirty: write,
            tick: st.tick,
        };
        st.resident.insert(key, page);
        false
    }

    /// Drops every resident page belonging to `table`, writing back dirty
    /// ones (used when a table is truncated or dropped).
    pub fn evict_table(&self, table: u32) {
        if self.capacity == usize::MAX {
            return;
        }
        let mut st = self.state.lock();
        let keys: Vec<PageKey> = st
            .resident
            .keys()
            .copied()
            .filter(|(t, _)| *t == table)
            .collect();
        for k in keys {
            if st.resident.remove(&k).is_some_and(|p| p.dirty) {
                st.stats.page_writes += 1;
            }
        }
        st.lru.retain(|(k, _)| k.0 != table);
    }

    /// Snapshot of the counters.
    pub fn stats(&self) -> IoStats {
        self.state.lock().stats
    }

    /// Resets the counters (pool contents are kept).
    pub fn reset_stats(&self) {
        self.state.lock().stats = IoStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_after_miss() {
        let pool = BufferPool::new(4);
        assert!(!pool.touch_read((0, 0)));
        assert!(pool.touch_read((0, 0)));
        let s = pool.stats();
        assert_eq!(s.page_reads, 1);
        assert_eq!(s.hits, 1);
    }

    #[test]
    fn lru_eviction() {
        let pool = BufferPool::new(2);
        pool.touch_read((0, 0));
        pool.touch_read((0, 1));
        pool.touch_read((0, 2)); // evicts (0,0)
        assert!(!pool.touch_read((0, 0))); // miss again
        assert_eq!(pool.stats().page_reads, 4);
    }

    #[test]
    fn recently_used_page_survives_eviction() {
        let pool = BufferPool::new(2);
        pool.touch_read((0, 0));
        pool.touch_read((0, 1));
        pool.touch_read((0, 0)); // refresh 0
        pool.touch_read((0, 2)); // should evict (0,1), not (0,0)
        assert!(pool.touch_read((0, 0)));
    }

    #[test]
    fn lru_order_survives_compaction() {
        let pool = BufferPool::new(3);
        for p in 0..3 {
            pool.touch_read((0, p));
        }
        // Enough alternating hits to compact the queue many times over,
        // ending with page 1 least recently used.
        for _ in 0..100 {
            pool.touch_read((0, 1));
            pool.touch_read((0, 0));
            pool.touch_read((0, 2));
        }
        pool.touch_read((0, 3)); // evicts (0,1)
        assert!(pool.touch_read((0, 0)));
        assert!(pool.touch_read((0, 2)));
        assert!(!pool.touch_read((0, 1)));
    }

    #[test]
    fn unbounded_pool_keeps_nothing() {
        let pool = BufferPool::new(usize::MAX);
        assert!(pool.touch_read((0, 0)));
        assert!(pool.touch_write((0, 1)));
        pool.evict_table(0);
        assert_eq!(pool.stats(), IoStats::default());
        assert!(pool.state.lock().lru.is_empty());
    }

    #[test]
    fn hits_leave_the_lru_queue_bounded() {
        // A pool larger than every table never evicts, so eviction cannot
        // be what trims the queue.
        let pool = BufferPool::new(usize::MAX / 2);
        for p in 0..4 {
            pool.touch_read((0, p));
        }
        for i in 0..1_000_000u32 {
            pool.touch_read((0, i % 4));
        }
        assert_eq!(pool.stats().hits, 1_000_000);
        let st = pool.state.lock();
        assert_eq!(st.resident.len(), 4);
        assert!(st.lru.len() <= 8, "queue grew to {}", st.lru.len());
    }

    #[test]
    fn dirty_pages_written_back() {
        let pool = BufferPool::new(1);
        pool.touch_write((0, 0));
        pool.touch_read((0, 1)); // evicts dirty (0,0)
        assert_eq!(pool.stats().page_writes, 1);
    }

    #[test]
    fn zero_capacity_never_caches() {
        let pool = BufferPool::new(0);
        pool.touch_read((0, 0));
        pool.touch_read((0, 0));
        assert_eq!(pool.stats().page_reads, 2);
        assert_eq!(pool.stats().hits, 0);
    }

    #[test]
    fn simulated_time_accounts_reads_and_writes() {
        let s = IoStats {
            page_reads: 3,
            page_writes: 2,
            ..Default::default()
        };
        let m = DiskModel {
            read_latency_ns: 10,
            write_latency_ns: 100,
        };
        assert_eq!(s.simulated_nanos(&m), 230);
    }

    #[test]
    fn evict_table_writes_dirty_pages() {
        let pool = BufferPool::new(8);
        pool.touch_write((1, 0));
        pool.touch_read((2, 0));
        pool.evict_table(1);
        assert_eq!(pool.stats().page_writes, 1);
        // Table 2's page is still resident.
        assert!(pool.touch_read((2, 0)));
    }
}
