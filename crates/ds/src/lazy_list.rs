//! The lazy list of Heller et al. (LL05) — "a lazy concurrent list-based set".
//!
//! * `contains` traverses without any synchronization and decides membership
//!   from the target node's mark.
//! * `insert` / `remove` traverse optimistically, lock the two affected nodes
//!   (`pred`, `curr`), validate (neither is marked and `pred.next == curr`),
//!   and then perform the update; `remove` marks the node
//!   (logical delete) before unlinking it (physical delete).
//!
//! The mark is the dead bit of the node's [`SeqLock`] word, set by
//! [`SeqLock::mark_dead`] under the lock `remove` already holds; a node is
//! `[key, next, lock, header]`, 32 bytes, with the two fields a traversal
//! hop reads in its first 16.
//!
//! This is the paper's canonical "synchronization-free search followed by an
//! update" structure (Figure 2): the search is the NBR Φ_read, the lock /
//! validate / update sequence is the Φ_write, and the records reserved at the
//! phase boundary are exactly `pred` and `curr` (2 reservations, matching the
//! paper's observation in Section 4.4).
//!
//! Note that HP cannot protect this list without losing the wait-freedom of
//! `contains` (Table 1 row LL05); like the paper's artifact we still *run* HP
//! on it, validating by a re-read of the source field, which is what produces
//! HP's large slowdown in Figure 3b. HP on this list is a Table 1 "no" pair,
//! and the schedule explorer finds a use-after-free for it with
//! `run_matrix_one(Scheme::Hp, Structure::LazyList, Strategy::Pct { depth: 3
//! }, 0x608a64ef8139a1ef, &Params::default())`.

use crate::{check_key, ConcurrentSet, KEY_MAX, KEY_MIN};
use smr_common::{recycle, Atomic, NodeHeader, SeqLock, Shared, Smr, SmrConfig};
use std::sync::atomic::Ordering;

/// A node of the lazy list. The fields a traversal hop reads come first.
#[repr(C)]
pub struct Node {
    key: u64,
    next: Atomic<Node>,
    /// Lock, version and the logical-deletion mark (its dead bit).
    lock: SeqLock,
    header: NodeHeader,
}
smr_common::impl_smr_node!(Node);

const _: () = assert!(std::mem::size_of::<Node>() == 32);

impl Node {
    fn new(key: u64) -> Self {
        Self {
            key,
            next: Atomic::null(),
            lock: SeqLock::new(),
            header: NodeHeader::new(),
        }
    }

    #[inline]
    fn is_marked(&self) -> bool {
        self.lock.is_dead()
    }
}

/// The lazy concurrent list-based set.
pub struct LazyList<S: Smr> {
    smr: S,
    head: Box<Node>,
}

impl<S: Smr> LazyList<S> {
    /// Creates an empty list whose reclaimer is configured by `config`.
    pub fn new(config: SmrConfig) -> Self {
        Self::with_smr(S::new(config))
    }

    /// Creates an empty list around an existing reclaimer instance.
    pub fn with_smr(smr: S) -> Self {
        let tail = recycle::alloc_node_raw(Node::new(KEY_MAX));
        // lint:allow-box-node — head sentinel: owned by the structure,
        // never published for retirement, freed by Box's own drop.
        let head = Box::new(Node {
            next: Atomic::from_raw(tail),
            ..Node::new(KEY_MIN)
        });
        Self { smr, head }
    }

    #[inline]
    fn head_shared(&self) -> Shared<Node> {
        Shared::from_raw(&*self.head as *const Node as *mut Node)
    }

    /// One Φ_read attempt: walk to the first node with `key >= target`.
    /// Returns `(pred, curr, slot_of_curr)` or `None` when neutralized.
    #[inline]
    fn traverse(
        &self,
        ctx: &mut S::ThreadCtx,
        key: u64,
    ) -> Option<(Shared<Node>, Shared<Node>, usize)> {
        let mut pred = self.head_shared();
        let mut slot = 0usize;
        // SAFETY: `pred` starts at the sentinel (never reclaimed); thereafter
        // every dereference is of a pointer obtained in the current read phase
        // and guarded by the SMR protocol (protect + checkpoint).
        let mut curr = self.smr.protect(ctx, slot, unsafe { &pred.deref().next });
        if self.smr.checkpoint(ctx) {
            return None;
        }
        loop {
            // SAFETY: `curr` is covered by `slot` (the `protect` above).
            let curr_ref = unsafe { curr.deref() };
            if curr_ref.key >= key {
                return Some((pred, curr, slot));
            }
            pred = curr;
            slot ^= 1;
            // SAFETY: `pred` (the old `curr`) is still covered by the other
            // slot until this `protect` returns.
            curr = self.smr.protect(ctx, slot, unsafe { &pred.deref().next });
            if self.smr.checkpoint(ctx) {
                return None;
            }
        }
    }

    /// Heller et al.'s validation: both nodes unmarked and still adjacent.
    #[inline]
    fn validate(pred: &Node, curr_ptr: Shared<Node>, pred_is_head: bool) -> bool {
        let pred_ok = pred_is_head || !pred.is_marked();
        // SAFETY: the caller reserved `curr_ptr` before calling `validate`.
        pred_ok
            && !unsafe { curr_ptr.deref() }.is_marked()
            && pred.next.load(Ordering::Acquire).ptr_eq(curr_ptr)
    }
}

impl<S: Smr> ConcurrentSet<S> for LazyList<S> {
    fn smr(&self) -> &S {
        &self.smr
    }

    fn contains(&self, ctx: &mut S::ThreadCtx, key: u64) -> bool {
        check_key(key);
        self.smr.begin_op(ctx);
        let found = loop {
            self.smr.begin_read_phase(ctx);
            let Some((_pred, curr, _)) = self.traverse(ctx, key) else {
                continue;
            };
            // SAFETY: `curr` is still protected by its traversal slot.
            let curr_ref = unsafe { curr.deref() };
            let found = curr_ref.key == key && !curr_ref.is_marked();
            // Read-only operation: no reservations needed.
            self.smr.end_read_phase(ctx, &[]);
            break found;
        };
        self.smr.clear_protections(ctx);
        self.smr.end_op(ctx);
        found
    }

    fn insert(&self, ctx: &mut S::ThreadCtx, key: u64) -> bool {
        check_key(key);
        self.smr.begin_op(ctx);
        let inserted = loop {
            self.smr.begin_read_phase(ctx);
            let Some((pred, curr, _)) = self.traverse(ctx, key) else {
                continue;
            };
            // SAFETY: `curr` is still protected by its traversal slot.
            let curr_ref = unsafe { curr.deref() };
            if curr_ref.key == key && !curr_ref.is_marked() {
                // Already present; linearizes at the mark read.
                self.smr.end_read_phase(ctx, &[]);
                break false;
            }

            // Φ_write: reserve exactly the records the update touches.
            self.smr
                .end_read_phase(ctx, &[pred.untagged_usize(), curr.untagged_usize()]);

            // SAFETY: `pred` was just reserved by `end_read_phase`.
            let pred_ref = unsafe { pred.deref() };
            let pred_is_head = pred.ptr_eq(self.head_shared());
            pred_ref.lock.lock();
            curr_ref.lock.lock();
            if !Self::validate(pred_ref, curr, pred_is_head) {
                curr_ref.lock.unlock();
                pred_ref.lock.unlock();
                continue;
            }
            if curr_ref.key == key {
                // Validated unmarked duplicate.
                curr_ref.lock.unlock();
                pred_ref.lock.unlock();
                break false;
            }
            // Allocation happens in the write phase (system calls are not
            // permitted in Φ_read — Section 4.1, Phase 1).
            let mut node = Node::new(key);
            node.next = Atomic::new(curr);
            let node = self.smr.alloc(ctx, node);
            pred_ref.next.store(node, Ordering::Release);
            curr_ref.lock.unlock();
            pred_ref.lock.unlock();
            break true;
        };
        self.smr.clear_protections(ctx);
        self.smr.end_op(ctx);
        inserted
    }

    fn remove(&self, ctx: &mut S::ThreadCtx, key: u64) -> bool {
        check_key(key);
        self.smr.begin_op(ctx);
        let removed = loop {
            self.smr.begin_read_phase(ctx);
            let Some((pred, curr, _)) = self.traverse(ctx, key) else {
                continue;
            };
            // SAFETY: `curr` is still protected by its traversal slot.
            let curr_ref = unsafe { curr.deref() };
            if curr_ref.key != key || curr_ref.is_marked() {
                self.smr.end_read_phase(ctx, &[]);
                break false;
            }

            self.smr
                .end_read_phase(ctx, &[pred.untagged_usize(), curr.untagged_usize()]);

            // SAFETY: `pred` was just reserved by `end_read_phase`.
            let pred_ref = unsafe { pred.deref() };
            let pred_is_head = pred.ptr_eq(self.head_shared());
            pred_ref.lock.lock();
            curr_ref.lock.lock();
            if !Self::validate(pred_ref, curr, pred_is_head) {
                curr_ref.lock.unlock();
                pred_ref.lock.unlock();
                continue;
            }
            debug_assert_eq!(curr_ref.key, key);
            // Logical delete, then physical unlink.
            curr_ref.lock.mark_dead();
            let next = curr_ref.next.load(Ordering::Acquire);
            pred_ref.next.store(next, Ordering::Release);
            curr_ref.lock.unlock();
            pred_ref.lock.unlock();
            // The node is unlinked: hand it to the reclaimer.
            // SAFETY: `curr` was just unlinked by this thread (it held both
            // locks), so it is retired exactly once.
            unsafe { self.smr.retire(ctx, curr) };
            break true;
        };
        self.smr.clear_protections(ctx);
        self.smr.end_op(ctx);
        removed
    }

    fn size(&self, ctx: &mut S::ThreadCtx) -> usize {
        self.smr.begin_op(ctx);
        self.smr.begin_read_phase(ctx);
        let mut count = 0usize;
        let mut curr = self.head.next.load(Ordering::Acquire);
        loop {
            // SAFETY: `size` runs inside a read phase; under the reclaimers
            // this structure is used with, every node reachable from the
            // head stays dereferenceable for the announced phase.
            let node = unsafe { curr.deref() };
            if node.key == KEY_MAX {
                break;
            }
            if !node.is_marked() {
                count += 1;
            }
            curr = node.next.load(Ordering::Acquire);
        }
        self.smr.end_read_phase(ctx, &[]);
        self.smr.end_op(ctx);
        count
    }

    fn name() -> &'static str {
        "lazy-list"
    }
}

impl<S: Smr> Drop for LazyList<S> {
    fn drop(&mut self) {
        // All threads have deregistered; free every node still linked
        // (unlinked nodes are owned by the reclaimer's limbo bags).
        let mut curr = self.head.next.load(Ordering::Relaxed);
        while !curr.is_null() {
            // SAFETY: `&mut self` — no concurrent access remains; every
            // linked node is exclusively ours and freed exactly once.
            let next = unsafe { curr.deref() }.next.load(Ordering::Relaxed);
            // SAFETY: as above.
            unsafe { recycle::free_node_raw(curr.as_raw()) };
            curr = next;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::{disjoint_key_stress, model_check};
    use nbr::{Nbr, NbrPlus};
    use smr_baselines::{Debra, HazardPointers, Ibr, Leaky};
    use std::sync::Arc;

    #[test]
    fn sequential_basics() {
        let list = LazyList::<NbrPlus>::new(SmrConfig::for_tests());
        let mut ctx = list.smr().register(0);
        assert!(!list.contains(&mut ctx, 5));
        assert!(list.insert(&mut ctx, 5));
        assert!(!list.insert(&mut ctx, 5));
        assert!(list.contains(&mut ctx, 5));
        assert!(list.insert(&mut ctx, 3));
        assert!(list.insert(&mut ctx, 7));
        assert_eq!(list.size(&mut ctx), 3);
        assert!(list.remove(&mut ctx, 5));
        assert!(!list.remove(&mut ctx, 5));
        assert!(!list.contains(&mut ctx, 5));
        assert_eq!(list.size(&mut ctx), 2);
        list.smr().unregister(&mut ctx);
    }

    #[test]
    fn model_check_under_nbr_plus() {
        let list = LazyList::<NbrPlus>::new(SmrConfig::for_tests());
        model_check(&list, 4_000, 64, 0xA11CE);
    }

    #[test]
    fn model_check_under_nbr() {
        let list = LazyList::<Nbr>::new(SmrConfig::for_tests());
        model_check(&list, 4_000, 64, 0xB0B);
    }

    #[test]
    fn model_check_under_debra() {
        let list = LazyList::<Debra>::new(SmrConfig::for_tests());
        model_check(&list, 4_000, 64, 0xCAFE);
    }

    #[test]
    fn model_check_under_hazard_pointers() {
        let list = LazyList::<HazardPointers>::new(SmrConfig::for_tests());
        model_check(&list, 4_000, 64, 0xD00D);
    }

    #[test]
    fn model_check_under_ibr() {
        let list = LazyList::<Ibr>::new(SmrConfig::for_tests());
        model_check(&list, 4_000, 64, 0xE44);
    }

    #[test]
    fn model_check_under_leaky() {
        let list = LazyList::<Leaky>::new(SmrConfig::for_tests());
        model_check(&list, 4_000, 64, 0xF00);
    }

    #[test]
    fn concurrent_disjoint_stress_nbr_plus() {
        let list = Arc::new(LazyList::<NbrPlus>::new(SmrConfig::for_tests()));
        disjoint_key_stress(list, 4, 3_000);
    }

    #[test]
    fn concurrent_disjoint_stress_hp() {
        let list = Arc::new(LazyList::<HazardPointers>::new(SmrConfig::for_tests()));
        disjoint_key_stress(list, 4, 3_000);
    }

    #[test]
    fn memory_is_reclaimed_under_churn() {
        let list = LazyList::<NbrPlus>::new(SmrConfig::for_tests());
        let mut ctx = list.smr().register(0);
        for round in 0..200u64 {
            for k in 1..=20u64 {
                list.insert(&mut ctx, k * 13 + round % 7);
            }
            for k in 1..=20u64 {
                list.remove(&mut ctx, k * 13 + round % 7);
            }
        }
        list.smr().flush(&mut ctx);
        let stats = list.smr().thread_stats(&ctx);
        assert!(stats.retires > 1_000);
        assert!(
            stats.frees > stats.retires / 2,
            "most retired nodes must actually be freed (frees={}, retires={})",
            stats.frees,
            stats.retires
        );
        list.smr().unregister(&mut ctx);
    }

    #[test]
    fn traversal_fields_fill_the_first_16_bytes() {
        use std::mem::offset_of;
        assert_eq!(offset_of!(Node, key), 0);
        assert_eq!(offset_of!(Node, next), 8);
        assert_eq!(offset_of!(Node, lock), 16);
        assert_eq!(offset_of!(Node, header), 24);
    }

    #[test]
    #[should_panic(expected = "sentinel")]
    fn sentinel_keys_are_rejected() {
        let list = LazyList::<Leaky>::new(SmrConfig::for_tests());
        let mut ctx = list.smr().register(0);
        list.insert(&mut ctx, KEY_MAX);
    }
}
