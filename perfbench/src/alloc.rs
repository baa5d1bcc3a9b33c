//! Memory accounting: a counting global allocator for per-layer
//! allocation volume, and the kernel's high-water mark for peak RSS.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Pass-through to `System` that counts allocation events and bytes
/// requested (alloc, alloc_zeroed, and the new size of a realloc).
pub struct CountingAlloc;

static EVENTS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

#[inline]
fn count(bytes: usize) {
    EVENTS.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
}

// SAFETY: a pure pass-through wrapper around `System` — every method
// delegates with the caller's own layout/pointer arguments unchanged,
// so `System`'s guarantees carry over; the counters are plain atomics
// that never touch the allocation.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: same `layout` the caller passed; delegation only.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr`/`layout` are the caller's, and every allocation
        // this wrapper hands out comes from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: unmodified caller arguments, and the allocation being
        // resized originated from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: same `layout` the caller passed; delegation only.
        unsafe { System.alloc_zeroed(layout) }
    }
}

/// Allocation counters at one instant; subtract two to charge a call.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct AllocMark {
    /// Allocation events (alloc, alloc_zeroed, realloc).
    pub events: u64,
    /// Bytes requested by those events.
    pub bytes: u64,
}

impl AllocMark {
    /// The counters now.
    pub fn now() -> Self {
        AllocMark {
            events: EVENTS.load(Ordering::Relaxed),
            bytes: BYTES.load(Ordering::Relaxed),
        }
    }

    /// What was allocated between `self` and now.
    pub fn since(self) -> AllocMark {
        let now = AllocMark::now();
        AllocMark {
            events: now.events - self.events,
            bytes: now.bytes - self.bytes,
        }
    }

    /// Bytes requested, in MB (10^6 bytes).
    pub fn mb(self) -> f64 {
        self.bytes as f64 / 1e6
    }
}

/// Peak resident set size of this process (`VmHWM`), in MB (10^6
/// bytes). `None` where `/proc/self/status` is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024.0 / 1e6)
}
