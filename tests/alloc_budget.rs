//! Allocation budget of the backward search.
//!
//! A counting global allocator (per thread, so the test harness's other
//! threads do not count) measures OpenSudoku's un-annotated leak triage at
//! `--jobs 1`, the configuration of `thresher-cli corpus/opensudoku.tir
//! --leaks --jobs 1`, and bounds the heap allocations per executed command.
//! A command transfer on one query allocates nothing and a fork copies
//! only flat vectors, so the count is dominated by forks; the bound catches
//! a per-transfer allocation creeping back into the hot path.
//!
//! This file is its own test binary because the allocator is process-wide.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use obs::{Counter, MemRecorder, RingCapacity};
use symex::SymexConfig;
use thresher::{PointsToPolicy, Thresher};

/// Allocations (fresh blocks, not resizes) per executed command. The flat
/// query representation measures 2.2 (290,546 over 132,676 commands); the
/// map- and clone-based one it replaced measured 17.2.
const MAX_ALLOCS_PER_CMD: f64 = 4.0;

struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: allocations during thread teardown are not counted.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards to the system allocator unchanged; the
// counter is a const-initialized thread-local `Cell` that never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded with the caller's layout.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded with the caller's layout.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr` was allocated by `System` with `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

#[test]
fn leak_triage_stays_within_allocation_budget() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../corpus/opensudoku.tir");
    let src = std::fs::read_to_string(path).expect("read the OpenSudoku corpus file");
    let program = tir::parse(&src).expect("corpus file parses");
    let thresher =
        Thresher::with_setup(&program, PointsToPolicy::Insensitive, SymexConfig::default())
            .with_jobs(1);

    // The measured run has no recorder installed, like a plain CLI run.
    let before = allocs();
    let report = thresher.check_activity_leaks();
    let spent = allocs() - before;

    // The search is deterministic: a second, recorded run executes the
    // same commands and counts them.
    let rec = MemRecorder::install_static(RingCapacity::default());
    let again = thresher.check_activity_leaks();
    obs::uninstall();
    let cmds = rec.counter(Counter::CmdsExecuted);
    assert_eq!(report.num_refuted(), again.num_refuted(), "the two runs answered differently");
    assert!(cmds > 100_000, "OpenSudoku's triage executed only {cmds} commands");

    let per_cmd = spent as f64 / cmds as f64;
    println!("{spent} allocations over {cmds} commands: {per_cmd:.2} per command");
    assert!(
        per_cmd <= MAX_ALLOCS_PER_CMD,
        "{per_cmd:.2} allocations per executed command exceed the budget of {MAX_ALLOCS_PER_CMD}"
    );
}
