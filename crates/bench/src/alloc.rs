//! A counting global allocator: turns "the hot loop is allocation-free"
//! from prose into a measured number.
//!
//! The type is always compiled (it is inert unless installed); binaries
//! that want the gauge install it explicitly:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: ecn_bench::alloc::CountingAlloc = ecn_bench::alloc::CountingAlloc;
//! ```
//!
//! The `probe_hot_loop` bench installs it behind the `alloc-count`
//! feature (so default bench runs measure undisturbed wall clock), and
//! the `alloc_regression` integration test installs it unconditionally —
//! its whole point is the count.
//!
//! Every allocation is counted twice: on the allocating thread's own
//! counters, which [`measure`] and [`count_allocations`] difference, and
//! on one process-wide counter ([`allocation_count`]). A measurement of
//! a single-threaded call must use the former: tests run in parallel on
//! a multi-core machine, and a process-wide difference would also count
//! whatever sibling tests allocate meanwhile. The process-wide counter
//! is for measuring calls that fan out to threads of their own, such as
//! a whole engine run.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    // const-initialised and free of destructors: reading it never
    // allocates, so the allocator may touch it re-entrantly
    static COUNTS: Cell<Counts> = const { Cell::new(Counts { allocs: 0, bytes: 0 }) };
}

/// Allocation calls (malloc + realloc) and newly requested bytes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// Allocation calls.
    pub allocs: u64,
    /// Bytes requested (for a realloc, only the growth).
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
    ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    // `try_with` fails only while the thread's TLS is being torn down;
    // allocations made then are not counted, and none are measured then
    let _ = COUNTS.try_with(|c| {
        let mut n = c.get();
        n.allocs += 1;
        n.bytes += bytes as u64;
        c.set(n);
    });
}

/// `System`, plus a process-wide and two thread-local counters per
/// allocation.
pub struct CountingAlloc;

// SAFETY: delegates every operation to `System` unchanged; the counters
// are side-effect-only and never allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // only the growth is newly-requested memory; counting the full
        // new_size would overstate realloc-heavy (Vec-growth) workloads
        note(new_size.saturating_sub(layout.size()));
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocations (malloc + realloc calls) by every thread since process
/// start.
pub fn allocation_count() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// This thread's counters since it started.
pub fn thread_counts() -> Counts {
    COUNTS.try_with(Cell::get).unwrap_or_default()
}

/// What the calling thread allocated across `f` (meaningful only in
/// binaries that installed [`CountingAlloc`]; zero otherwise).
/// Allocations `f` makes on other threads are not counted.
pub fn measure<T>(f: impl FnOnce() -> T) -> (T, Counts) {
    let before = thread_counts();
    let value = f();
    (value, thread_counts() - before)
}

/// Allocation count of the calling thread across `f` (see [`measure`]).
pub fn count_allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let (value, counts) = measure(f);
    (value, counts.allocs)
}
