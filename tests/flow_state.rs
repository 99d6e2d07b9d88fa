//! Heap per offered flow: the transport state a run keeps must scale with
//! the flows in flight, not with the flows offered.
//!
//! A counting global allocator tracks live and peak heap bytes. The same
//! recipe — 32:1 incast jobs under packet spraying (RPS) on the paper's
//! fat-tree at 40 % load, seed 7 — runs with 6 ms and with 24 ms of
//! arrivals, each to completion, and measures the peak heap above the
//! generated flow specs (the caller's input). Both runs reach about the
//! same in-flight concurrency, so the difference of their peaks divided by
//! the difference of their flow counts is what the simulator keeps per
//! offered flow: its recorder entry, its copy in the sender's schedule,
//! the receiver's record, and whatever else set-up and the run hold on
//! to. The test prints that figure and holds it to a bound.
//!
//! This file is its own test binary with a single test, so no other test
//! thread allocates while it measures. Run it with
//! `cargo test --release --test flow_state -- --nocapture`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

use netsim::{DetRng, SimTime, Simulator};
use topology::{build_fat_tree, FatTreeParams};
use transport::install_agents;

/// Live heap bytes, and the most there have been since the last reset.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// The system allocator, counting the bytes it hands out.
struct Counting;

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(live, Relaxed);
}

fn shrank(bytes: usize) {
    LIVE.fetch_sub(bytes, Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters only observe sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` obligations pass straight through.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // this `layout`.
        unsafe { System.dealloc(ptr, layout) };
        shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr` came from `System` with `layout`; the caller
        // guarantees `new_size` is valid for it.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            shrank(layout.size());
            grew(new_size);
        }
        p
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Generous drain after the last arrival: every job of the recipe is done
/// within a few milliseconds of it.
const DRAIN: SimTime = SimTime::from_ms(100);

/// Run the recipe with `window` of arrivals to completion. Returns the
/// flows offered and the peak heap above what was live once they were
/// generated.
fn peak_heap(window: SimTime) -> (usize, usize) {
    let p = FatTreeParams::paper();
    let scheme = experiments::Scheme::Rps;
    let mut rng = DetRng::new(7, 0x5_7A7E);
    let specs = workloads::patterns::incast(32).generate(&p, 0.4, window, &mut rng);
    let horizon = specs.last().expect("the window admits jobs").start + DRAIN;
    let base = LIVE.load(Relaxed);
    PEAK.store(base, Relaxed);
    let mut sim = Simulator::new(7);
    build_fat_tree(&mut sim, p, scheme.switch_config());
    install_agents(&mut sim, &specs, &scheme.tcp_config());
    sim.run_until(horizon);
    let rec = sim.into_recorder();
    assert_eq!(rec.completed_count(), specs.len(), "every flow completes");
    (specs.len(), PEAK.load(Relaxed) - base)
}

#[test]
fn heap_per_offered_flow_is_bounded() {
    let (n_short, peak_short) = peak_heap(SimTime::from_ms(6));
    let (n_long, peak_long) = peak_heap(SimTime::from_ms(24));
    assert!(n_long > 2 * n_short, "{n_short} vs {n_long} flows");
    let per_flow = (peak_long as f64 - peak_short as f64) / (n_long - n_short) as f64;
    println!(
        "flow state: {per_flow:.0} B of peak heap per offered flow \
         ({n_short} flows: {peak_short} B, {n_long} flows: {peak_long} B)"
    );
    assert!(
        per_flow <= 192.0,
        "{per_flow:.0} B of peak heap per offered flow (bound 192 B)"
    );
}
