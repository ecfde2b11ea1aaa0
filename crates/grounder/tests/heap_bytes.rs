//! Byte counts checked against the allocator: what a structure's
//! `bytes()` reports must be the heap bytes it holds.
//!
//! This binary installs a counting `#[global_allocator]` that keeps a
//! per-thread balance of live heap bytes (requested sizes, reallocations
//! included) and a per-thread count of allocations. [`heap_of`]
//! measures what a value built on the test's thread keeps live,
//! [`freed_by_drop`] what dropping it gives back, and [`allocations`]
//! how many blocks a call allocates; tests run in parallel without
//! disturbing each other's counts. To check another structure's byte
//! figure (an `Mrf`'s footprint, say), add a test here and compare it
//! with the first two.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use tuffy_grounder::{ground_bottom_up, AtomRegistry, GroundingMode};
use tuffy_mln::evidence::EvidenceSet;
use tuffy_mln::parser::{parse_delta, parse_evidence, parse_program};
use tuffy_mln::printer::render_evidence;
use tuffy_mln::program::MlnProgram;
use tuffy_mln::schema::PredicateId;
use tuffy_rdbms::OptimizerConfig;

thread_local! {
    /// Live heap bytes allocated minus freed on this thread.
    static LIVE: Cell<isize> = const { Cell::new(0) };
    /// Allocations (not reallocations) made on this thread.
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

fn count(delta: isize) {
    // After the thread's locals are gone (thread exit) nothing is counted.
    let _ = LIVE.try_with(|live| live.set(live.get() + delta));
}

fn count_block() {
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
            count(layout.size() as isize);
            count_block();
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            count(layout.size() as isize);
            count_block();
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        count(-(layout.size() as isize));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            count(new_size as isize - layout.size() as isize);
        }
        p
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn live() -> isize {
    LIVE.with(Cell::get)
}

/// `build()`'s value and the heap bytes it keeps live on this thread.
fn heap_of<T>(build: impl FnOnce() -> T) -> (T, usize) {
    let before = live();
    let value = build();
    let held = live() - before;
    (
        value,
        usize::try_from(held).expect("a build cannot free net bytes"),
    )
}

/// `run()`'s value and the blocks it allocated on this thread.
fn allocations<T>(run: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCS.with(Cell::get);
    let value = run();
    (value, ALLOCS.with(Cell::get) - before)
}

/// The heap bytes dropping `value` frees on this thread.
fn freed_by_drop<T>(value: T) -> usize {
    let before = live();
    drop(value);
    usize::try_from(before - live()).expect("a drop cannot allocate net bytes")
}

const PROGRAM: &str = "*link(node, node)\nlabel(node, tag)\n\
                       1 link(x, y), label(x, t) => label(y, t)\n\
                       -0.5 label(x, T0)\n";

/// A few thousand evidence lines: links in a ring with chords, some
/// labels of either polarity.
fn evidence_text(nodes: usize) -> String {
    let mut out = String::new();
    for i in 0..nodes {
        out.push_str(&format!("link(N{i}, N{})\n", (i + 1) % nodes));
        if i % 3 == 0 {
            out.push_str(&format!("link(N{i}, N{})\n", (i * 7 + 3) % nodes));
        }
        if i % 5 == 0 {
            let bang = if i % 10 == 0 { "!" } else { "" };
            out.push_str(&format!("{bang}label(N{i}, T{})\n", i % 4));
        }
    }
    out
}

/// The program with every constant of `text` interned, so parsing `text`
/// again grows nothing but the evidence set.
fn warmed(text: &str) -> MlnProgram {
    let mut program = parse_program(PROGRAM).unwrap();
    parse_evidence(&mut program, text).unwrap();
    program
}

#[test]
fn evidence_bytes_are_the_heap_it_holds() {
    let text = evidence_text(3000);
    let mut program = warmed(&text);
    let (set, held) = heap_of(|| parse_evidence(&mut program, &text).unwrap());
    assert!(set.len() > 3000);
    assert_eq!(set.bytes(), held, "parsed");

    let (copy, held) = heap_of(|| set.clone());
    assert_eq!(copy.bytes(), held, "cloned");
    assert_eq!(freed_by_drop(copy), held);

    // A retract compacts the rows and rebuilds the indexes in place.
    let mut edited = set.clone();
    let delta = {
        let mut p = program.clone();
        parse_delta(&mut p, "-link(N0, N1)\n~label(N5, T1)\nlink(N1, N0)\n").unwrap()
    };
    edited.apply(&program, &delta).unwrap();
    assert_eq!(edited.len(), set.len());
    let bytes = edited.bytes();
    assert_eq!(freed_by_drop(edited), bytes, "edited");

    let bytes = set.bytes();
    assert_eq!(freed_by_drop(set), bytes, "parsed, dropped");
    let (empty, held) = heap_of(EvidenceSet::new);
    assert_eq!(empty.bytes(), held, "empty");
}

#[test]
fn registry_bytes_are_the_heap_it_holds() {
    let text = evidence_text(2000);
    let mut program = parse_program(PROGRAM).unwrap();
    let evidence = parse_evidence(&mut program, &text).unwrap();
    let grounding = ground_bottom_up(
        &program,
        &evidence,
        GroundingMode::LazyClosure,
        &OptimizerConfig::default(),
    )
    .unwrap();
    let registry = &grounding.registry;
    assert!(registry.len() > 1000, "{} atoms", registry.len());
    assert!(grounding.stats.peak_bytes >= registry.bytes());

    let (copy, held) = heap_of(|| registry.clone());
    assert_eq!(copy.bytes(), held, "cloned");

    // Interned one atom at a time, as grounding does, with every
    // growth step of the columns and indexes.
    let (built, held) = heap_of(|| {
        let mut r = AtomRegistry::new();
        for (_, pred, args) in registry.iter() {
            r.intern(pred, args);
        }
        r.intern(PredicateId(0), &[1, 2]);
        r
    });
    assert_eq!(built.bytes(), held, "interned");
    assert_eq!(freed_by_drop(built), held);

    let (loaded, held) =
        heap_of(|| AtomRegistry::from_entries(registry.iter().map(|(_, p, a)| (p, a))).unwrap());
    assert_eq!(loaded.bytes(), held, "from entries");
    assert_eq!(freed_by_drop(loaded), held);
    let bytes = copy.bytes();
    assert_eq!(freed_by_drop(copy), bytes);
}

#[test]
fn evidence_lines_allocate_nothing_of_their_own() {
    // Thousands of lines; the columns, arena, indexes and output string
    // grow by doubling, so a few dozen blocks in all.
    let text = evidence_text(3000);
    let mut program = warmed(&text);
    let (set, blocks) = allocations(|| parse_evidence(&mut program, &text).unwrap());
    assert!(set.len() > 4000);
    assert!(
        blocks < 100,
        "parsing {} lines took {blocks} blocks",
        set.len()
    );
    let (lines, blocks) = allocations(|| set.iter().filter(|e| e.positive).count());
    assert!(lines > 0);
    assert_eq!(blocks, 0, "iterating");
    let (rendered, blocks) = allocations(|| render_evidence(&program, &set));
    assert_eq!(rendered, text);
    assert!(blocks < 40, "rendering took {blocks} blocks");
}
