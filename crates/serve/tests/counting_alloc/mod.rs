//! A global allocator that counts every allocation in the process (the
//! default `realloc` is an `alloc` here). A test binary that declares this
//! module holds one test, so nothing else allocates while it counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

pub struct Counting(AtomicU64);

impl Counting {
    /// Allocations so far.
    pub fn count(&self) -> u64 {
        self.0.load(Relaxed)
    }
}

// SAFETY: every call goes to `System` with the caller's arguments as is.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        self.0.fetch_add(1, Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
pub static ALLOCS: Counting = Counting(AtomicU64::new(0));
