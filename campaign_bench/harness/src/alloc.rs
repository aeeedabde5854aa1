//! A per-thread counting allocator.
//!
//! The traced run counts the allocations of one call by differencing the
//! calling thread's own counters, so nothing another thread allocates (a
//! supervisor relay, the test harness of a sibling test) can leak into
//! the count. Process-global atomics cannot give that guarantee.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    // const-initialised and free of destructors: reading it never
    // allocates, so the allocator may touch it re-entrantly
    static COUNTS: Cell<Counts> = const { Cell::new(Counts { allocs: 0, bytes: 0 }) };
}

/// Allocation calls (malloc + realloc) and newly requested bytes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    pub allocs: u64,
    pub bytes: u64,
}

impl std::ops::Sub for Counts {
    type Output = Counts;
    fn sub(self, earlier: Counts) -> Counts {
        Counts {
            allocs: self.allocs - earlier.allocs,
            bytes: self.bytes - earlier.bytes,
        }
    }
}

fn note(bytes: usize) {
    // `try_with` fails only while the thread's TLS is being torn down;
    // allocations made then are not counted, and none are measured then
    let _ = COUNTS.try_with(|c| {
        let mut n = c.get();
        n.allocs += 1;
        n.bytes += bytes as u64;
        c.set(n);
    });
}

/// This thread's counters since it started.
pub fn thread_counts() -> Counts {
    COUNTS.try_with(Cell::get).unwrap_or_default()
}

/// `System`, plus two thread-local counters per allocation.
pub struct CountingAlloc;

// SAFETY: every operation is delegated to `System` unchanged; the
// counters are side-effect-only and never allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract,
        // which is forwarded unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // only the growth is newly requested memory
        note(new_size.saturating_sub(layout.size()));
        // SAFETY: forwarded unchanged; `ptr` came from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}
