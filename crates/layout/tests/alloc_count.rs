//! Allocation-count pin for layout construction: building the Figure 6
//! cell's declustered layout must make a small, size-independent number
//! of heap allocations (one per table column, a few per disk), not one
//! or more per parity group. Counts are deterministic, so this pins the
//! construction mechanism without a timing.
//!
//! A pass-through global allocator counts allocations and reallocations
//! made by the current thread only, so the test harness's other threads
//! cannot disturb the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use cms_bibd::{best_design, DesignRequest, Pgt};
use cms_layout::declustered;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn note_alloc() {
    // `try_with`: the slot may already be gone during thread teardown.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: defers entirely to `System`; the bookkeeping is a const-
// initialised thread-local counter and never allocates itself.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Allocations made by `f` on this thread.
fn allocs_during<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - before)
}

/// Data blocks of the Figure 6 cell's catalog (d = 32, p = 4).
const PAPER_CELL_BLOCKS: u64 = 65_600;

#[test]
fn declustered_build_allocations_do_not_scale_with_groups() {
    let pgt = Pgt::new(
        &best_design(DesignRequest { v: 32, k: 4, allow_fallback: true, seed: 1 }).unwrap(),
    );
    let (layout, cell) = allocs_during(|| declustered::build(&pgt, PAPER_CELL_BLOCKS).unwrap());
    assert!(layout.num_groups() > 20_000, "the cell has ~21.9k groups");
    drop(layout);
    let (layout, doubled) =
        allocs_during(|| declustered::build(&pgt, 2 * PAPER_CELL_BLOCKS).unwrap());
    drop(layout);
    assert!(cell <= 1_024, "paper cell build made {cell} allocations (limit 1024)");
    assert!(
        doubled <= cell + 64,
        "doubling the blocks took {cell} → {doubled} allocations (limit +64)"
    );
}
