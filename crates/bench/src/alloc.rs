//! Process-wide allocation counter for the throughput binaries.
//!
//! A binary opts in with
//! `#[global_allocator] static GLOBAL: CountingAlloc = CountingAlloc;`
//! and reads [`allocations`] around a timed loop. The count covers every
//! thread of the process.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// The system allocator wrapped with an allocation counter.
pub struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates directly to `System`; the counter is a relaxed atomic
// side effect and does not affect allocation behavior.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

/// Allocations and reallocations so far, across all threads, when
/// [`CountingAlloc`] is the global allocator (always 0 otherwise).
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[global_allocator]
    static GLOBAL: CountingAlloc = CountingAlloc;

    #[test]
    fn counts_allocations() {
        let before = allocations();
        let v = std::hint::black_box(vec![0u8; 64]);
        assert!(allocations() > before);
        drop(v);
    }
}
