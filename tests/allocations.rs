//! Allocation pins of the serving MAP path: a query's heap traffic must
//! not grow with the number of scheduled units or of true atoms.
//!
//! This binary installs a counting `#[global_allocator]` (the pattern of
//! `crates/grounder/tests/heap_bytes.rs`) that counts, per thread, the
//! blocks allocated. A reallocation is not a new block: a buffer that
//! grows by doubling counts once. Every run here is on one thread, so
//! the counts see all of its work.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use tuffy::{PartitionStrategy, Query, Tuffy, TuffyConfig, WalkSatParams};
use tuffy_search::{Scheduler, SchedulerConfig, TimeCostTrace};
use tuffy_serve::wire::{encode_response, Response, WireMapAnswer};

thread_local! {
    /// Allocations (not reallocations) made on this thread.
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

fn count_block() {
    // After the thread's locals are gone (thread exit) nothing is counted.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

struct Counting;

// SAFETY: every call is forwarded unchanged to the system allocator; the
// bookkeeping touches only a const-initialized thread-local `Cell`, which
// neither allocates nor registers a destructor.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            count_block();
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            count_block();
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// `run()`'s value and the blocks it allocated on this thread.
fn allocations<T>(run: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCS.with(Cell::get);
    let value = run();
    (value, ALLOCS.with(Cell::get) - before)
}

/// Example 1 of the paper with `n` two-atom components, on one thread, at
/// a flip budget that reaches every component's optimum.
fn example1(n: usize) -> Tuffy {
    let ds = tuffy_datagen::example1(n);
    Tuffy::from_parts(ds.program, ds.evidence).with_config(TuffyConfig {
        partitioning: PartitionStrategy::Components,
        threads: 1,
        search: WalkSatParams {
            max_flips: 20 * n as u64,
            seed: 7,
            ..Default::default()
        },
        ..Default::default()
    })
}

#[test]
fn encoding_a_map_answer_allocates_once() {
    let encode = |n: usize| {
        let answer = Response::Map(WireMapAnswer {
            generation: 1,
            cost_hard: 0,
            cost_soft_bits: 2.5f64.to_bits(),
            flips: 10_000,
            atoms: (0..n).map(|i| format!("label(Doc{i}, \"x\\y\")")).collect(),
        });
        allocations(|| encode_response(&answer)).1
    };
    assert_eq!(encode(10), 1);
    assert_eq!(encode(10_000), 1);
}

#[test]
fn a_scheduled_map_allocates_nothing_per_unit() {
    let run = |n: usize| {
        let grounding = example1(n).ground().unwrap();
        let mrf = &grounding.mrf;
        let scheduler = Scheduler::new(
            mrf,
            SchedulerConfig {
                threads: 1,
                search: WalkSatParams {
                    max_flips: 20 * n as u64,
                    seed: 7,
                    ..Default::default()
                },
                ..Default::default()
            },
        );
        assert_eq!(scheduler.schedule().units.len(), n);
        let init = vec![false; mrf.num_atoms()];
        let (r, plain) = allocations(|| scheduler.run_from(&init, None));
        assert_eq!(r.cost, tuffy::Cost::soft(n as f64), "every optimum found");
        let mut trace = TimeCostTrace::new();
        let (_, traced) = allocations(|| scheduler.run_from(&init, Some(&mut trace)));
        assert!(trace.points().len() > n, "a point per component at least");
        (plain, traced)
    };
    assert_eq!(run(1_000), run(10_000));
}

#[test]
fn a_map_query_renders_nothing_until_asked() {
    let query = |n: usize| {
        let engine = example1(n).build_engine().unwrap();
        let snapshot = engine.snapshot();
        // The first query plans the generation's schedule.
        snapshot.query(&Query::map()).unwrap();
        let (answer, answered) = allocations(|| snapshot.query(&Query::map()).unwrap());
        let r = answer.into_map().unwrap();
        let (atoms, listed) = allocations(|| r.true_atoms().len());
        // Each component's optimum costs 1 with one atom true or both.
        assert!(atoms >= n, "{atoms} true atoms");
        assert!(listed > atoms, "a ground atom per true atom: {listed}");
        answered
    };
    assert_eq!(query(100), query(1_000));
}
