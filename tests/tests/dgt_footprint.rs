//! The DGT tree's node footprint: an internal node is 40 bytes and a leaf is
//! its own 16-byte `[key, header]` record.
//!
//! Each insert into an external tree adds one leaf and one internal node, so
//! `n` inserts grow the live heap by exactly `n × (16 + 40)` bytes (with a
//! 40-byte leaf it would be `n × 80`). Dropping the tree must return every
//! byte: a leaf freed with the internal node's layout would show up as 24
//! bytes per leaf too many given back. This guards the standing benchmark's
//! `tree_update` and `tree_stall` heap rows without running them.
//!
//! Kept alone in its own test binary with a single test: the allocator
//! counters are process-global, so a concurrently running test would pollute
//! the deltas.

use conc_ds::{ConcurrentSet, DgtTree};
use smr_baselines::Leaky;
use smr_common::{Smr, SmrConfig};
use smr_harness::alloc_track::{self, CountingAlloc};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Bytes of one leaf plus one internal node.
const BYTES_PER_KEY: usize = 16 + 40;

/// Builds a tree, inserts `1..=n`, and returns `(bytes the inserts added,
/// bytes still live after the tree and its thread context are dropped,
/// relative to before the tree was built)`.
fn footprint(n: u64) -> (usize, isize) {
    let before = alloc_track::current_bytes();
    let tree = DgtTree::<Leaky>::new(SmrConfig::default());
    let mut ctx = tree.smr().register(0);
    let empty = alloc_track::current_bytes();
    for key in 1..=n {
        assert!(tree.insert(&mut ctx, key));
    }
    let grown = alloc_track::current_bytes() - empty;
    tree.smr().unregister(&mut ctx);
    drop(ctx);
    drop(tree);
    let left = alloc_track::current_bytes() as isize - before as isize;
    (grown, left)
}

#[test]
fn a_key_costs_a_16_byte_leaf_and_a_40_byte_node() {
    // Warm up whatever a first construction initialises once per process.
    footprint(8);
    assert!(alloc_track::is_installed());
    let n = 1_000;
    let (grown, left) = footprint(n);
    assert_eq!(grown, n as usize * BYTES_PER_KEY);
    assert_eq!(left, 0, "dropping the tree must return every byte it took");
}
