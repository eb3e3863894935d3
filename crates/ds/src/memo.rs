//! Epoch-stamped per-thread lookup memo for Zipf-hot `contains` calls.
//!
//! A skewed read-mostly workload (the paper's Zipf(0.99) distribution) sends
//! most lookups to a handful of keys, and every one of them pays a full
//! traversal. This module caches `(structure, key) → node pointer` in a small
//! **thread-local direct-mapped table**, stamped with the reclaimer clock
//! value [`Smr::validation_stamp`](smr_common::Smr::validation_stamp)
//! returned when the entry was recorded. A later lookup whose current stamp
//! equals the recorded one may dereference the cached pointer without
//! re-traversing: by the stamp contract, no record retired at or after the
//! recorded era has been freed in between, and the node was observed
//! *unmarked* (hence not yet retired) when it was recorded — so the memory
//! is still a node, and one mark-bit + key check re-establishes presence.
//!
//! Any mismatch — wrong structure, wrong key, stale stamp, marked node,
//! recycled key — falls back to the ordinary traversal, which refreshes the
//! entry. Schemes whose clock cannot support the argument (the interval,
//! hazard and phase families) return `None` from `validation_stamp` and the
//! memo is bypassed entirely; see DESIGN.md, "Memo validation against the
//! reclaimer clock".
//!
//! The table is thread-local and never shared, so there is no coherence
//! traffic and no synchronization on the hit path. Entries are tagged with a
//! `memo_id` (from a process-global counter, never reused) — one per
//! structure instance, or one per bucket for a hash map — so a table
//! outliving a structure can never serve its stale pointers to a new one.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};

/// Number of direct-mapped slots per thread. Power of two; sized to cover
/// the hot set of a Zipf(0.99) key distribution while keeping the table a
/// few cache lines.
pub const MEMO_SLOTS: usize = 64;

/// One direct-mapped entry. `memo_id == 0` means empty.
#[derive(Clone, Copy)]
struct Entry {
    memo_id: u64,
    key: u64,
    addr: usize,
    stamp: u64,
}

const EMPTY: Entry = Entry {
    memo_id: 0,
    key: 0,
    addr: 0,
    stamp: 0,
};

thread_local! {
    static TABLE: RefCell<[Entry; MEMO_SLOTS]> = const { RefCell::new([EMPTY; MEMO_SLOTS]) };
}

/// Process-global structure-instance counter. Starts at 1 so 0 can mean
/// "empty slot"; monotonically increasing, never reused.
static NEXT_MEMO_ID: AtomicU64 = AtomicU64::new(1);

/// Allocates `count` consecutive fresh memo identities and returns the
/// first: one for a single-root structure, one per bucket for a hash map.
pub fn next_memo_ids(count: u64) -> u64 {
    NEXT_MEMO_ID.fetch_add(count, Ordering::Relaxed)
}

#[inline]
fn slot(key: u64) -> usize {
    (key as usize) & (MEMO_SLOTS - 1)
}

/// Returns the cached node address for `(memo_id, key)` if the entry exists
/// and its recorded stamp equals `stamp`. The caller still owns the
/// re-validation of the node itself (mark bit + key); a hit here only
/// certifies that dereferencing the address is as safe as it was when the
/// entry was stored.
#[inline]
pub fn lookup(memo_id: u64, key: u64, stamp: u64) -> Option<usize> {
    TABLE.with(|t| {
        let e = t.borrow()[slot(key)];
        (e.memo_id == memo_id && e.key == key && e.stamp == stamp).then_some(e.addr)
    })
}

/// Records `(memo_id, key) → addr` at `stamp`, evicting whatever occupied
/// the slot. Only call with a node that was observed **unmarked** under the
/// operation whose validation stamp is `stamp`.
#[inline]
pub fn store(memo_id: u64, key: u64, addr: usize, stamp: u64) {
    TABLE.with(|t| {
        t.borrow_mut()[slot(key)] = Entry {
            memo_id,
            key,
            addr,
            stamp,
        };
    });
}

/// Drops the entry for `(memo_id, key)` if present — the eager invalidation
/// a `remove` performs on its own key so this thread's next lookup does not
/// waste a validation on a node it just deleted.
#[inline]
pub fn invalidate(memo_id: u64, key: u64) {
    TABLE.with(|t| {
        let mut table = t.borrow_mut();
        let e = &mut table[slot(key)];
        if e.memo_id == memo_id && e.key == key {
            *e = EMPTY;
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_requires_exact_stamp() {
        let id = next_memo_ids(1);
        store(id, 7, 0xDEAD_B000, 3);
        assert_eq!(lookup(id, 7, 3), Some(0xDEAD_B000));
        assert_eq!(lookup(id, 7, 4), None, "stale stamp must miss");
        assert_eq!(
            lookup(id, 7 + MEMO_SLOTS as u64, 3),
            None,
            "slot collision must miss"
        );
    }

    #[test]
    fn memo_ids_partition_structures() {
        let a = next_memo_ids(1);
        let b = next_memo_ids(1);
        store(a, 9, 0x1000, 1);
        assert_eq!(lookup(b, 9, 1), None, "another structure's entry must miss");
        store(b, 9, 0x2000, 1);
        assert_eq!(lookup(a, 9, 1), None, "direct-mapped slot was evicted");
        assert_eq!(lookup(b, 9, 1), Some(0x2000));
    }

    #[test]
    fn invalidate_is_scoped_to_the_owner() {
        let a = next_memo_ids(1);
        let b = next_memo_ids(1);
        store(a, 5, 0x3000, 2);
        invalidate(b, 5);
        assert_eq!(
            lookup(a, 5, 2),
            Some(0x3000),
            "foreign invalidate is a no-op"
        );
        invalidate(a, 5);
        assert_eq!(lookup(a, 5, 2), None);
    }
}
