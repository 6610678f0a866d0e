//! A counting `#[global_allocator]` for allocation gates. Each thread
//! counts its own allocations, so a test reads exactly what its thread
//! did while other tests of the same binary run beside it.
//!
//! Include with `mod counting;` (or a `#[path]` to this file) and
//! install with
//! `#[global_allocator] static ALLOC: counting::Counting = counting::Counting;`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The counting allocator: `System`, plus a per-thread count of
/// allocations and reallocations.
pub struct Counting;

thread_local! {
    // `const` initialisation and no destructor: counting never allocates
    // and works at any point of a thread's life.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    ALLOCS.with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, l: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(l) }
    }
    unsafe fn dealloc(&self, p: *mut u8, l: Layout) {
        unsafe { System.dealloc(p, l) }
    }
    unsafe fn realloc(&self, p: *mut u8, l: Layout, n: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(p, l, n) }
    }
    unsafe fn alloc_zeroed(&self, l: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc_zeroed(l) }
    }
}

/// Allocations the calling thread has made so far.
pub fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}
