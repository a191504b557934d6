//! Process-wide set-up the measurements depend on: a counting global
//! allocator and CPU pinning.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// Counts every allocator call of every thread and tracks live bytes and
/// their peak. All counters are statistics that publish no other data,
/// hence `Relaxed`.
pub struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

fn grow(bytes: u64) {
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    // A load first: once the heap is warm the peak rarely moves, and a
    // plain load is much cheaper than a read-modify-write per allocation.
    if live > PEAK.load(Relaxed) {
        PEAK.fetch_max(live, Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counters touch no
// allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        grow(layout.size() as u64);
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        grow(layout.size() as u64);
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as u64, Relaxed);
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        LIVE.fetch_sub(layout.size() as u64, Relaxed);
        grow(new_size as u64);
        // SAFETY: `ptr` came from `System` with `layout`; `new_size` is the
        // caller's, unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocator calls so far (alloc, alloc_zeroed and realloc; all threads).
pub fn allocs() -> u64 {
    ALLOCS.load(Relaxed)
}

/// Bytes currently allocated.
pub fn live_bytes() -> u64 {
    LIVE.load(Relaxed)
}

/// Highest [`live_bytes`] since the last [`reset_peak`].
pub fn peak_bytes() -> u64 {
    PEAK.load(Relaxed)
}

/// Restart peak tracking from the current live heap.
pub fn reset_peak() {
    PEAK.store(LIVE.load(Relaxed), Relaxed);
}

extern "C" {
    fn sched_getcpu() -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Pin this thread — and every thread it spawns later, which inherit the
/// mask — to the CPU it is running on. Returns that CPU.
///
/// Not optional: on a 2-core box the thread and tcp backends measured
/// 158–1283 txn/s unpinned (cross-core futex wake-ups between the driver
/// and the silo threads) and 1110–1194 pinned, with the same binary.
pub fn pin_to_current_cpu() -> Result<usize, String> {
    // SAFETY: `sched_getcpu` takes no arguments and only reads kernel state.
    let cpu = unsafe { sched_getcpu() };
    if !(0..1024).contains(&cpu) {
        return Err(format!("sched_getcpu returned {cpu}"));
    }
    let cpu = cpu as usize;
    let mut mask = [0u64; 16];
    mask[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `mask` is a live, initialised 128-byte buffer and the size
    // passed is exactly its size; pid 0 means the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if rc == 0 {
        Ok(cpu)
    } else {
        Err(format!("sched_setaffinity(cpu {cpu}) failed"))
    }
}
