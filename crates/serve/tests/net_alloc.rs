//! Encode-path allocation guarantee: once a frame scratch buffer has
//! grown to its steady-state size, re-encoding through the `*_into`
//! entry points performs **zero heap allocation** — measured with a
//! counting global allocator, in the style of the runtime's
//! `arena_reuse` suite.
//!
//! This is the acceptance gate for the reactor's reply path: the old
//! per-connection writer thread called `wire::encode` (a fresh `Vec`
//! per frame) and cloned the answer matrix into a `Message::Reply`;
//! the reactor borrows the answer's storage and recycles one buffer
//! per connection.

use biq_serve::net::wire::{self, Message, RejectCode};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts allocations made through the global allocator **per thread, and
/// only while that thread is inside [`count_allocs`]**. `cargo test` runs
/// the tests of this binary on parallel threads; a process-wide counter
/// would charge one test's set-up allocations to another test's measured
/// region. Thread-local, armed-only counting makes each zero-allocation
/// assertion see exactly the allocations of its own measured code, at any
/// `--test-threads`.
struct CountingAlloc;

thread_local! {
    // `const` initialisers with no destructor: touching these from inside
    // the allocator never allocates or registers a TLS destructor.
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn note_alloc() {
    // `try_with`: an allocation during thread teardown must not panic.
    let _ = ARMED.try_with(|armed| {
        if armed.get() {
            let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        }
    });
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static A: CountingAlloc = CountingAlloc;

/// Runs `f` as the measured region and returns how many times the calling
/// thread allocated inside it.
fn count_allocs(f: impl FnOnce()) -> u64 {
    ALLOCS.with(|n| n.set(0));
    ARMED.with(|a| a.set(true));
    f();
    ARMED.with(|a| a.set(false));
    ALLOCS.with(|n| n.get())
}

#[test]
fn warmed_reply_encodes_allocate_nothing() {
    // The reactor's hot path: a reply frame per request, encoded from a
    // borrowed result slice into a recycled buffer.
    let data = vec![0.125f32; 512 * 4];
    let mut scratch = Vec::new();
    wire::encode_reply_into(&mut scratch, 1, 512, 4, &data); // warm-up grows the buffer
    let allocs = count_allocs(|| {
        for req_id in 2..34u64 {
            wire::encode_reply_into(&mut scratch, req_id, 512, 4, &data);
        }
    });
    assert_eq!(allocs, 0, "32 steady-state reply encodes allocated {allocs}");
}

#[test]
fn warmed_request_encodes_allocate_nothing() {
    // The client's pipelined send path: op name and payload are borrowed,
    // the scratch frame is reused.
    let data = vec![0.5f32; 256 * 2];
    let mut scratch = Vec::new();
    wire::encode_request_into(&mut scratch, 1, "enc0.attn.wq", 256, 2, &data);
    let allocs = count_allocs(|| {
        for req_id in 2..34u64 {
            wire::encode_request_into(&mut scratch, req_id, "enc0.attn.wq", 256, 2, &data);
        }
    });
    assert_eq!(allocs, 0, "32 steady-state request encodes allocated {allocs}");
}

#[test]
fn warmed_message_encodes_reuse_the_buffer() {
    // The general `encode_into` (admin verbs, rejects) reuses capacity
    // too: the frame bytes themselves never allocate once warm. (The
    // `Message` is pre-built here; the reactor's reject path does build
    // its message string — that is the error path, not steady state.)
    let reject =
        Message::Reject { req_id: 7, code: RejectCode::Busy, msg: "queue full".to_string() };
    let mut scratch = Vec::new();
    wire::encode_into(&mut scratch, &reject);
    let allocs = count_allocs(|| {
        for _ in 0..32 {
            wire::encode_into(&mut scratch, &reject);
        }
    });
    assert_eq!(allocs, 0, "32 steady-state reject encodes allocated {allocs}");
}

#[test]
fn the_owned_encode_allocates_every_call() {
    // Contrast case documenting what the reactor path removed: `encode`
    // returns a fresh `Vec` per frame by construction.
    let message = Message::Reply { req_id: 1, rows: 32, cols: 2, data: vec![0.25f32; 64] };
    let mut frame = Vec::new();
    let allocs = count_allocs(|| frame = wire::encode(&message));
    assert!(allocs > 0, "owned encode unexpectedly allocation-free");

    // And the two paths agree byte for byte.
    let mut scratch = Vec::new();
    wire::encode_reply_into(&mut scratch, 1, 32, 2, &[0.25f32; 64]);
    assert_eq!(scratch, frame);
}
