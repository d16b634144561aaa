//! Allocation budget of a TranSend request.
//!
//! Replays the configuration of perfbench's `sim_transend` workload
//! (10 worker nodes, 2 front ends, 4 cache partitions, origin penalty
//! ×0.1; 400 users, 2 000 shared objects, 40 req/s) for two simulated
//! minutes on seed 1 and counts the heap allocations the replay makes
//! after cluster boot. A per-dispatch clone of a class name, an op
//! string, an effect buffer or an argument map puts allocations per
//! request back and fails the budget.
//!
//! This window measures 29.75 allocations (6 649 bytes) per request.
//! Before class and op names became `Copy`, the dispatch drivers kept
//! their effect buffers and jobs shared one args map, it measured 75.58
//! (11 589 bytes). The budget allows 5 %: a fresh effect buffer per
//! `ManagerStub::dispatch_to` adds 2.0 (6.7 %) and must fail, and a
//! copy of the defaults per request adds 6.0. Run it with `--nocapture`
//! to print the figures.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::time::Duration;

use sns_sim::time::SimTime;
use sns_transend::TranSendBuilder;
use sns_workload::trace::{TraceGenerator, WorkloadConfig};

thread_local! {
    /// (allocations, bytes) made by this thread. `const`-initialised
    /// `Cell`s need no lazy set-up, so counting never allocates.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

/// `System`, counting each allocation against the allocating thread:
/// the test harness's own threads do not disturb the measuring one.
struct Counting;

fn count(bytes: usize) {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    let _ = BYTES.try_with(|n| n.set(n.get() + bytes as u64));
}

// SAFETY: every method passes its arguments unchanged to `System`, so
// each caller's contract is `System`'s; counting only touches this
// thread's `const` cells, which neither allocate nor unwind.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// The measured figure plus 5 %.
const BUDGET_PER_REQUEST: f64 = 29.75 * 1.05;

fn counted() -> (u64, u64) {
    (ALLOCS.with(Cell::get), BYTES.with(Cell::get))
}

#[test]
fn a_request_stays_within_its_allocation_budget() {
    let window = Duration::from_secs(120);
    let boot = Duration::from_secs(5);
    let mut gen = TraceGenerator::new(WorkloadConfig {
        seed: 1,
        users: 400,
        shared_objects: 2_000,
        ..Default::default()
    });
    let items: Vec<_> = gen
        .constant_rate(40.0, window)
        .records
        .into_iter()
        .map(|r| (r.at, r))
        .collect();
    let requests = items.len() as u64;
    let mut cluster = TranSendBuilder::new()
        .with_seed(1)
        .with_worker_nodes(10)
        .with_frontends(2)
        .with_cache_partitions(4)
        .with_min_distillers(2)
        .with_origin_penalty_scale(0.1)
        .build();
    let report = cluster.attach_client(items, boot);
    cluster.sim.run_until(SimTime::ZERO + boot);

    let (allocs0, bytes0) = counted();
    cluster
        .sim
        .run_until(SimTime::ZERO + boot + window + Duration::from_secs(60));
    let (allocs1, bytes1) = counted();

    let responses = report.borrow().responses;
    assert_eq!(responses, requests, "every request answered");
    let per_request = (allocs1 - allocs0) as f64 / requests as f64;
    let bytes_per_request = (bytes1 - bytes0) as f64 / requests as f64;
    println!(
        "alloc_budget: {requests} requests, {per_request:.2} allocations and \
         {bytes_per_request:.0} bytes per request (budget {BUDGET_PER_REQUEST:.2})"
    );
    assert!(
        per_request <= BUDGET_PER_REQUEST,
        "{per_request:.2} allocations per request, over the budget of {BUDGET_PER_REQUEST:.2}"
    );
}
