//! `Msg::decode` sizes memory by the frame it decodes, not by the counts
//! the frame claims.  A counting global allocator records the largest
//! single allocation made during one decode call.  This file holds one
//! test, so no other test allocates while the counter is armed.

use parcolor_dist::proto::Msg;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

struct Counting;

static ARMED: AtomicBool = AtomicBool::new(false);
static LARGEST: AtomicUsize = AtomicUsize::new(0);

fn observe(size: usize) {
    if ARMED.load(Ordering::SeqCst) {
        LARGEST.fetch_max(size, Ordering::SeqCst);
    }
}

// SAFETY: every call forwards to `System` unchanged; the wrapper only
// reads the requested size.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        observe(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        observe(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        observe(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// A `Welcome` whose history count claims 2^24 selections (about 1 GiB
/// of `SeedSelection`s) but carries none must fail on truncation
/// without reserving more than 1 MiB at once.
#[test]
fn welcome_history_count_cannot_reserve_past_the_frame() {
    let mut wire = Msg::Welcome {
        worker_id: 1,
        epoch: 1,
        job: b"job".to_vec(),
        history: Vec::new(),
    }
    .encode();
    // The history count is the frame's last field when it is empty.
    let at = wire.len() - 4;
    wire[at..].copy_from_slice(&(1u32 << 24).to_le_bytes());

    ARMED.store(true, Ordering::SeqCst);
    let decoded = Msg::decode(&wire);
    ARMED.store(false, Ordering::SeqCst);

    assert!(
        decoded.is_err(),
        "a history with no entries must not decode"
    );
    let largest = LARGEST.load(Ordering::SeqCst);
    assert!(
        largest <= 1 << 20,
        "decode made a {largest}-byte allocation for a {}-byte frame",
        wire.len()
    );
}
