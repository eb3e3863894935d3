//! Recycling end-to-end: the node-block pool must take the global allocator
//! off the steady-state hot path.
//!
//! This binary installs the counting global allocator and runs the same
//! single-threaded 50i-50d churn twice over a Harris list — once with the
//! recycling pool, once with `SmrConfig::recycle` off — and asserts that with
//! recycling the number of *global-allocator* calls during the measured
//! window collapses to the warm-up residue (limbo bag growth, one-off
//! scratch growth), while the bypass run pays roughly one allocation per
//! successful insert.
//!
//! It also checks that building an `HmHashMap` costs a number of global
//! allocations that does not grow with its bucket count.
//!
//! Kept alone in its own test binary: the allocator counters are
//! process-global, so a concurrently running test would pollute the deltas.
//! The tests here take `SERIAL` for the same reason.

use conc_ds::{ConcurrentSet, HarrisList, HmHashMap};
use nbr::NbrPlus;
use smr_common::{Smr, SmrConfig};
use smr_harness::alloc_track::{self, CountingAlloc};
use std::sync::Mutex;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

static SERIAL: Mutex<()> = Mutex::new(());

const WARM_OPS: u64 = 4_000;
const MEASURED_OPS: u64 = 20_000;
const KEY_RANGE: u64 = 128;

/// Alternating insert/remove churn over a rolling key window: every pair of
/// operations allocates one node and retires one node at steady state.
fn churn(list: &HarrisList<NbrPlus>, ctx: &mut <NbrPlus as Smr>::ThreadCtx, ops: u64) {
    for i in 0..ops {
        let key = 1 + (i / 2) % KEY_RANGE;
        if i % 2 == 0 {
            list.insert(ctx, key);
        } else {
            list.remove(ctx, key);
        }
    }
}

/// Runs the workload and returns (global allocations during the measured
/// window, merged thread stats).
fn measure(recycle: bool) -> (u64, smr_common::ThreadStats) {
    let config = SmrConfig::for_tests()
        .with_max_threads(4)
        .with_recycle(recycle);
    let list = HarrisList::<NbrPlus>::new(config);
    let mut ctx = list.smr().register(0);
    churn(&list, &mut ctx, WARM_OPS);
    let before = alloc_track::total_allocs();
    churn(&list, &mut ctx, MEASURED_OPS);
    let during = alloc_track::total_allocs() - before;
    let stats = list.smr().thread_stats(&ctx);
    list.smr().unregister(&mut ctx);
    (during, stats)
}

#[test]
fn steady_state_bounds_global_allocator_calls() {
    let _serial = SERIAL.lock().unwrap();
    assert!(alloc_track::is_installed());

    let (allocs_pooled, stats_pooled) = measure(true);
    let (allocs_bypassed, stats_bypassed) = measure(false);

    // Sanity of the workload: the bypass run pays the allocator roughly once
    // per successful insert (~MEASURED_OPS / 2).
    assert!(
        allocs_bypassed as f64 > MEASURED_OPS as f64 / 4.0,
        "bypass run must hit the global allocator per insert, saw {allocs_bypassed}"
    );
    assert_eq!(stats_bypassed.pool_hits, 0, "recycle off must not pool");
    assert_eq!(stats_bypassed.pool_recycled, 0, "recycle off must not pool");

    // The recycling run must be bounded by the warm-up residue: once the
    // pool is primed, nodes cycle magazine → structure → limbo → magazine
    // without touching the global allocator.
    assert!(
        allocs_pooled < MEASURED_OPS / 20,
        "recycling must bound global allocations to the residue, saw {allocs_pooled} in {MEASURED_OPS} ops"
    );
    assert!(
        allocs_pooled * 8 < allocs_bypassed,
        "recycling ({allocs_pooled}) must beat the bypass ({allocs_bypassed}) by far"
    );

    // And the pool counters must explain where the allocations went.
    assert!(
        stats_pooled.pool_hits > stats_pooled.pool_misses,
        "steady state must be dominated by pool hits: {} hits vs {} misses",
        stats_pooled.pool_hits,
        stats_pooled.pool_misses
    );
    assert!(stats_pooled.pool_recycled > 0);
}

/// Global allocations made by `HmHashMap::with_buckets(config, buckets)`.
fn hash_map_build_allocs(buckets: usize) -> u64 {
    let config = SmrConfig::for_tests().with_max_threads(4);
    let before = alloc_track::total_allocs();
    let _map = HmHashMap::<NbrPlus>::with_buckets(config, buckets);
    alloc_track::total_allocs() - before
}

#[test]
fn hash_map_buckets_cost_no_allocation_each() {
    let _serial = SERIAL.lock().unwrap();
    assert!(alloc_track::is_installed());

    // A bucket is an inline head link in the one bucket array, so 4096 buckets
    // cost what one does; a per-bucket head or tail allocation would add
    // 4096 each. The slack absorbs the test harness's own allocations
    // (progress output) racing the window.
    let one = hash_map_build_allocs(1);
    let many = hash_map_build_allocs(4096);
    assert!(
        many <= one + 16,
        "4096 buckets made {many} global allocations, one bucket made {one}"
    );
}
