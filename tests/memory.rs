//! Memory regression tests: the simulator's own heap must track what it
//! models. A counting global allocator measures the live heap of the test
//! thread (the simulation is single-threaded, so other test threads do not
//! disturb the count).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::rc::Rc;
use std::time::Duration;

use nbkv::core::cluster::{build_cluster, ClusterConfig};
use nbkv::core::designs::Design;
use nbkv::simrt::{timeout, yield_now, Sim};
use nbkv::workload::runner::preload;

struct Counting;

thread_local! {
    static LIVE: Cell<isize> = const { Cell::new(0) };
}

fn track(delta: isize) {
    // `try_with` fails only while the thread is being torn down.
    let _ = LIVE.try_with(|l| l.set(l.get() + delta));
}

// SAFETY: every call forwards to `System` unchanged; the counter is a
// const-initialised thread-local `Cell` that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        track(layout.size() as isize);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        track(layout.size() as isize);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        track(-(layout.size() as isize));
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        track(new_size as isize - layout.size() as isize);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Bytes this thread currently holds on the heap.
fn live_bytes() -> isize {
    LIVE.with(Cell::get)
}

/// Slab page size of the default store configuration.
const PAGE_BYTES: usize = 1 << 20;

/// Index, LRU and chain bookkeeping a stored key may cost beyond its slab
/// chunk. A key that pins its ~1.1 KiB request frame exceeds it.
const PER_KEY_BOUND: isize = 512;

#[test]
fn preloaded_keys_cost_their_slab_pages_plus_a_small_index_entry() {
    const KEYS: usize = 4000;
    const VALUE_LEN: usize = 1024;
    let sim = Sim::new();
    let cluster = build_cluster(&sim, &ClusterConfig::new(Design::RdmaMem, 16 << 20));
    let client = Rc::clone(&cluster.clients[0]);
    let server = Rc::clone(&cluster.servers[0]);

    // Settle the connections (and whatever they allocate once) first.
    let c = Rc::clone(&client);
    sim.run_until(async move { preload(&c, 1, VALUE_LEN).await });
    let pages_before = server.store().slab_stats().pages_in_use;
    let before = live_bytes();

    sim.run_until(async move { preload(&client, KEYS, VALUE_LEN).await });
    let grown = live_bytes() - before;
    let slab = server.store().slab_stats();
    assert_eq!(slab.live_items, KEYS as u64);
    let page_bytes = ((slab.pages_in_use - pages_before) * PAGE_BYTES) as isize;
    assert!(
        page_bytes >= (KEYS * VALUE_LEN) as isize,
        "the keys fill slab pages"
    );
    // The pages live in the registered window allocated (zeroed, so not
    // yet resident) when the server was built: preloading grows the heap
    // by the per-key bookkeeping alone.
    let per_key = grown / KEYS as isize;
    assert!(
        per_key <= PER_KEY_BOUND,
        "{KEYS} keys of {VALUE_LEN} B filled {page_bytes} B of slab pages and grew the \
         heap by {grown} B: {per_key} B per key (bound {PER_KEY_BOUND})"
    );
    sim.shutdown();
}

#[test]
fn finished_timeouts_leave_no_timer_behind() {
    const CALLS: usize = 100_000;
    let sim = Sim::new();
    let s = sim.clone();
    let (warm, grown, pending) = sim.run_until(async move {
        let round = |n: usize| {
            let s = s.clone();
            async move {
                for _ in 0..n {
                    // Pending once, so the deadline registers, then done.
                    let out = timeout(&s, Duration::from_millis(500), yield_now()).await;
                    assert!(out.is_ok());
                }
            }
        };
        round(1000).await;
        let warm = live_bytes();
        round(CALLS).await;
        (warm, live_bytes() - warm, s.stats().pending_timers)
    });
    assert_eq!(pending, 0, "finished timeouts left timers pending");
    assert!(
        grown <= 4096,
        "{CALLS} finished timeouts grew the heap by {grown} B (from {warm} B)"
    );
    // No abandoned deadline moves the clock: nothing ever slept.
    assert_eq!(sim.run().as_nanos(), 0);
    sim.shutdown();
}
