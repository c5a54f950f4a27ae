//! Heap-allocation accounting for the HMAC and coin-tape paths.
//!
//! `Hmac::new` builds its pad blocks on the stack and the tape clones its
//! seed's keyed HMAC state per block, so a one-shot HMAC, opening a tape
//! and reading a long stream off it must not touch the heap at all. A
//! counting global allocator verifies exactly that. (The lib crate
//! forbids `unsafe`; this integration-test crate hosts the allocator shim
//! instead.)

use rsse_crypto::{hmac_sha256, Hmac, SecretKey, Sha256, Tape};
use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCS: AtomicU64 = AtomicU64::new(0);

struct CountingAllocator;

// SAFETY: delegates directly to the system allocator; the counter is a
// side effect that never touches the returned memory.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static COUNTER: CountingAllocator = CountingAllocator;

fn allocations_during<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCS.load(Ordering::Relaxed);
    let result = f();
    (ALLOCS.load(Ordering::Relaxed) - before, result)
}

// A single test function: the measurements must not interleave with other
// tests in this binary mutating the global counter.
#[test]
fn hmac_and_tape_paths_do_not_allocate() {
    let key = SecretKey::derive(b"alloc count", "tape");
    let long_key = [0xaa; 131];
    let transcript = b"alloc count transcript";
    let mut stream = vec![0u8; 40_000];

    let (allocs, _) = allocations_during(|| black_box(hmac_sha256(key.as_bytes(), transcript)));
    assert_eq!(allocs, 0, "hmac_sha256");

    // A key longer than the block is hashed into the pad block first.
    let (allocs, _) = allocations_during(|| black_box(hmac_sha256(&long_key, transcript)));
    assert_eq!(allocs, 0, "hmac_sha256 with a long key");

    let (allocs, mut tape) = allocations_during(|| Tape::new(&key, transcript));
    assert_eq!(allocs, 0, "Tape::new");

    let (allocs, ()) = allocations_during(|| tape.fill_bytes(&mut stream));
    assert_eq!(allocs, 0, "fill_bytes of 40,000 bytes");

    let keyed = Hmac::<Sha256>::new(key.as_bytes());
    let (allocs, _) = allocations_during(|| {
        let mut tape = Tape::new_keyed(&keyed, transcript);
        tape.fill_bytes(&mut stream[..1000]);
    });
    assert_eq!(allocs, 0, "Tape::new_keyed and a 1,000-byte read");

    // The counter is live: a heap allocation in the window is seen.
    let (allocs, v) = allocations_during(|| black_box(vec![0u8; 64]));
    assert!(allocs >= 1, "the counting allocator saw no allocation");
    drop(v);
}
