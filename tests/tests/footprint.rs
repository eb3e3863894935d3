//! The hash map's bucket footprint: a bucket is one 8-byte head link.
//!
//! `HmHashMap` allocates its bucket array once, so two maps that differ only
//! in bucket count differ in live heap by exactly the extra buckets. This
//! pins that difference at 8 bytes per bucket (the crate-internal `HmCore`
//! is one `Atomic<Node>` link, with no inline head node), guarding the
//! standing benchmark's `hash_zipf` heap row without running it.
//!
//! Kept alone in its own test binary with a single test: the allocator
//! counters are process-global, so a concurrently running test would pollute
//! the deltas.

use conc_ds::HmHashMap;
use smr_baselines::Leaky;
use smr_common::SmrConfig;
use smr_harness::alloc_track::{self, CountingAlloc};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Bytes one bucket occupies in the map's bucket array.
const BUCKET_BYTES: usize = 8;

/// Live heap bytes that building (and keeping) a map of `buckets` adds.
fn live_bytes_of(buckets: usize) -> (HmHashMap<Leaky>, usize) {
    let before = alloc_track::current_bytes();
    let map = HmHashMap::<Leaky>::with_buckets(SmrConfig::default(), buckets);
    (map, alloc_track::current_bytes() - before)
}

#[test]
fn a_bucket_is_one_eight_byte_link() {
    // Warm up whatever a first construction initialises once per process.
    drop(live_bytes_of(1));
    let (large, large_bytes) = live_bytes_of(32_768);
    let (small, small_bytes) = live_bytes_of(1);
    assert!(alloc_track::is_installed());
    assert_eq!((large.buckets(), small.buckets()), (32_768, 1));
    assert_eq!(large_bytes - small_bytes, 32_767 * BUCKET_BYTES);
}
