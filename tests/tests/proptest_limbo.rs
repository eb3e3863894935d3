//! Property-based tests (proptest) for the limbo bag's retire order and
//! its watermark-check cadence.
//!
//! NBR+'s prefix bookmark and the interval schemes' era sweeps both assume
//! the limbo bag yields records **in retire order**. These properties pin
//! that down against a plain `Vec` model, for bags grown past their
//! initial 256-record reservation and for arbitrary interleavings of
//! stages and drains:
//!
//! 1. a prefix sweep keeps survivors and the suffix in retire order, and
//!    `drain()` returns every held record exactly once, in that order;
//! 2. `len()` always counts every held record (the watermark trigger reads
//!    it, so an undercount would defer scans unboundedly);
//! 3. `stage()` returns `true` exactly once per `RETIRE_BATCH_CAP` pushes.

use proptest::collection::vec;
use proptest::prelude::*;
use smr_common::recycle::alloc_node_raw;
use smr_common::{LimboBag, Magazine, NodeHeader, Retired, ThreadStats, RETIRE_BATCH_CAP};

struct Node {
    header: NodeHeader,
    #[allow(dead_code)]
    key: u64,
}
smr_common::impl_smr_node!(Node);

/// A freshly allocated record stamped with `era` as its retire era; the
/// stamp doubles as the record's sequence number in the properties below.
fn retired(era: u64) -> Retired {
    let raw = alloc_node_raw(Node {
        header: NodeHeader::new(),
        key: era,
    });
    // SAFETY: `raw` was just allocated with the node-heap ABI and is not
    // linked anywhere; it is retired exactly once.
    unsafe { Retired::new(raw, era) }
}

fn reclaim_all(records: Vec<Retired>) {
    for r in records {
        // SAFETY: the record left the bag and no thread ever saw the node.
        unsafe { r.reclaim() };
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// One uninterrupted run of stages, one prefix sweep that frees every
    /// `step`-th record retired before a bookmark, then a drain: survivors
    /// and the suffix past the bookmark come out in retire order, also past
    /// the bag's initial reservation.
    #[test]
    fn drain_preserves_retire_order(n in 0usize..600, cut in 0usize..600, step in 2u64..5) {
        let mut bag = LimboBag::with_capacity(256);
        for i in 0..n {
            bag.stage(retired(i as u64));
            assert_eq!(bag.len(), i + 1, "len must count staged records");
        }
        let bookmark = cut.min(n);
        let mut stats = ThreadStats::default();
        let mut mag = Magazine::disabled();
        // SAFETY: no thread ever saw these records.
        let freed = unsafe {
            bag.reclaim_prefix_if(bookmark, |r| r.retire_era() % step == 0, &mut stats, &mut mag)
        };
        let out = bag.drain();
        let eras: Vec<u64> = out.iter().map(|r| r.retire_era()).collect();
        let expected: Vec<u64> = (0..n as u64)
            .filter(|&e| e >= bookmark as u64 || e % step != 0)
            .collect();
        assert_eq!(eras, expected, "sweep and drain must preserve retire order");
        assert_eq!(freed, n - expected.len());
        assert!(bag.is_empty());
        reclaim_all(out);
    }

    /// Arbitrary interleaving of stages and mid-sequence drains: the
    /// concatenation of all drained outputs is still the exact retire
    /// sequence — a drain may cut a batch anywhere without reordering or
    /// dropping records.
    #[test]
    fn interleaved_drains_concatenate_to_the_retire_sequence(
        // 1 = stage the next record, 0 = drain the bag
        script in vec(0u8..2, 0..128),
    ) {
        let mut bag = LimboBag::new();
        let mut next_era = 0u64;
        let mut collected = Vec::new();
        for do_stage in script {
            if do_stage == 1 {
                bag.stage(retired(next_era));
                next_era += 1;
            } else {
                collected.extend(bag.drain());
                assert_eq!(bag.len(), 0, "drain must empty the bag");
            }
        }
        collected.extend(bag.drain());
        let eras: Vec<u64> = collected.iter().map(|r| r.retire_era()).collect();
        let expected: Vec<u64> = (0..next_era).collect();
        assert_eq!(
            eras, expected,
            "drains must neither reorder, drop nor duplicate records"
        );
        reclaim_all(collected);
    }

    /// `stage`'s `true` drives every watermark check in the schemes, so its
    /// cadence is part of the contract: whatever the bag held when a run of
    /// stages began, every `RETIRE_BATCH_CAP` consecutive stages of the run
    /// return `true` exactly once.
    #[test]
    fn flush_signal_fires_exactly_at_batch_boundaries(
        held in 0usize..3 * RETIRE_BATCH_CAP,
        n in 1usize..96,
    ) {
        let mut bag = LimboBag::new();
        for i in 0..held {
            bag.push(retired(i as u64));
        }
        let checks: Vec<bool> = (0..n).map(|i| bag.stage(retired((held + i) as u64))).collect();
        for (start, window) in checks.windows(RETIRE_BATCH_CAP).enumerate() {
            assert_eq!(
                window.iter().filter(|&&c| c).count(),
                1,
                "{held} held: stages {start}..{} must check exactly once",
                start + RETIRE_BATCH_CAP
            );
        }
        reclaim_all(bag.drain());
    }
}
