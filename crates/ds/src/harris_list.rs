//! The lock-free linked list of Harris (HL01), "A pragmatic implementation of
//! non-blocking linked-lists".
//!
//! A node is logically deleted by setting the *mark* bit on its `next` pointer
//! (tag 1 on the [`Atomic`] word); `search` physically unlinks any chain of
//! marked nodes it passes over with a single CAS and then — crucially for NBR —
//! **restarts from the head**.
//!
//! This is the paper's worked example of a data structure with *multiple
//! read-write phases* (Algorithm 3 and Section 5.2): every iteration of
//! `search_again` is a fresh Φ_read starting at the root; the unlink CAS (an
//! auxiliary update) and the caller's insert/delete CAS are Φ_writes operating
//! only on the reserved `left`/`right` records. The chain of nodes removed by
//! the unlink CAS is retired by the unlinking thread — those records were just
//! unlinked by *this* thread and are not yet in any limbo bag, so walking them
//! to retire them cannot race with their reclamation.

use crate::{check_key, memo, ConcurrentSet, KEY_MAX, KEY_MIN};
use smr_common::{recycle, Atomic, NodeHeader, Shared, Smr, SmrConfig};
use std::sync::atomic::Ordering;

/// Mark bit: set on `node.next` when `node` is logically deleted.
const MARK: usize = 1;

/// Hazard-slot layout used during traversals.
const SLOT_LEFT: usize = 0;
const SLOT_T_A: usize = 1;
const SLOT_T_B: usize = 2;

/// A node of the Harris list.
pub struct Node {
    header: NodeHeader,
    key: u64,
    next: Atomic<Node>,
}
smr_common::impl_smr_node!(Node);

impl Node {
    fn new(key: u64) -> Self {
        Self {
            header: NodeHeader::new(),
            key,
            next: Atomic::null(),
        }
    }
}

/// Result of a successful search: `left.key < key <= right.key`, `left` and
/// `right` adjacent and unmarked at the linearization point, and both reserved
/// for the caller's write phase.
struct SearchResult {
    left: Shared<Node>,
    right: Shared<Node>,
}

/// The Harris lock-free list-based set.
pub struct HarrisList<S: Smr> {
    smr: S,
    head: Box<Node>,
    tail: Shared<Node>,
    /// Identity of this instance in the thread-local lookup memo.
    memo_id: u64,
}

// SAFETY: the list owns its nodes through `Atomic` links; every shared
// access goes through the `Smr` protection protocol, and `Smr: Send + Sync`.
unsafe impl<S: Smr> Send for HarrisList<S> {}
// SAFETY: as above — all mutation is via atomics and CAS.
unsafe impl<S: Smr> Sync for HarrisList<S> {}

impl<S: Smr> HarrisList<S> {
    /// Creates an empty list whose reclaimer is configured by `config`.
    pub fn new(config: SmrConfig) -> Self {
        Self::with_smr(S::new(config))
    }

    /// Creates an empty list around an existing reclaimer instance.
    pub fn with_smr(smr: S) -> Self {
        let tail = Shared::from_raw(recycle::alloc_node_raw(Node::new(KEY_MAX)));
        // lint:allow-box-node — head sentinel: owned by the structure,
        // never published for retirement, freed by Box's own drop.
        let head = Box::new(Node {
            header: NodeHeader::new(),
            key: KEY_MIN,
            next: Atomic::new(tail),
        });
        Self {
            smr,
            head,
            tail,
            memo_id: memo::next_memo_ids(1),
        }
    }

    #[inline]
    fn head_shared(&self) -> Shared<Node> {
        Shared::from_raw(&*self.head as *const Node as *mut Node)
    }

    /// Harris's `search`, integrated with NBR exactly as in Algorithm 3 of the
    /// paper. On return the read phase has been ended with `left` and `right`
    /// reserved, so the caller may immediately CAS on them.
    fn search(&self, ctx: &mut S::ThreadCtx, key: u64) -> SearchResult {
        'search_again: loop {
            self.smr.begin_read_phase(ctx);

            let mut t = self.head_shared();
            // Slot protecting `t` itself (meaningless for the head sentinel)
            // and slot protecting the freshly loaded `t_next`.
            let mut t_prot_slot = SLOT_T_B;
            let mut t_next_slot = SLOT_T_A;
            // SAFETY: `t` is the head sentinel, owned by the list and
            // never freed while it exists.
            let mut t_next = self
                .smr
                .protect(ctx, t_next_slot, unsafe { &t.deref().next });
            if self.smr.checkpoint(ctx) {
                continue 'search_again;
            }
            let mut left = t;
            let mut left_next = t_next;

            // Phase 1: find left (last unmarked node with key < `key`) and
            // right (first node with key >= `key`).
            loop {
                if t_next.tag() & MARK == 0 {
                    left = t;
                    left_next = t_next;
                    self.smr.protect_copy(ctx, SLOT_LEFT, t_prot_slot, left);
                }
                // Advance: `t` takes over `t_next`'s protection slot.
                t = t_next.with_tag(0);
                t_prot_slot = t_next_slot;
                if t.ptr_eq(self.tail) {
                    break;
                }
                t_next_slot = if t_prot_slot == SLOT_T_A {
                    SLOT_T_B
                } else {
                    SLOT_T_A
                };
                // SAFETY: `t` was returned by `protect` into `t_prot_slot`
                // (or is the head) and that slot still covers it.
                t_next = self
                    .smr
                    .protect(ctx, t_next_slot, unsafe { &t.deref().next });
                if self.smr.checkpoint(ctx) {
                    continue 'search_again;
                }
                if t_next.tag() & MARK != 0 && !S::CAN_TRAVERSE_UNLINKED {
                    // `t` is logically deleted. Validating reclaimers (HP,
                    // HP-POP, IBR, HE, WFE) must not follow pointers out of
                    // records that may already be unlinked — the validating
                    // re-read targets a *frozen* field, so it can never
                    // observe that the pointee was retired and freed, and an
                    // era announced after a scan does not cover a record
                    // that scan already freed (DESIGN.md, "Traversals through
                    // unlinked records under the interval reclaimers" and
                    // "Why the HP family keeps the Harris-Michael
                    // fallback"). Instead of walking the marked chain we
                    // unlink this single node from `left` (which is its
                    // immediate predecessor here, since we never walk past a
                    // marked node in this mode) and restart from the head —
                    // i.e. the Harris-Michael behaviour Table 1 requires for
                    // the HP family.
                    self.smr
                        .end_read_phase(ctx, &[left.untagged_usize(), t.untagged_usize()]);
                    // SAFETY: `left` is covered by SLOT_LEFT and was just
                    // reserved by `end_read_phase` above.
                    let left_ref = unsafe { left.deref() };
                    if left_ref
                        .next
                        .compare_exchange(
                            left_next,
                            t_next.with_tag(0),
                            Ordering::AcqRel,
                            Ordering::Acquire,
                        )
                        .is_ok()
                    {
                        // SAFETY: unlinked by this thread's CAS just now.
                        unsafe { self.smr.retire(ctx, t) };
                    }
                    continue 'search_again;
                }
                // SAFETY: `t` is covered by `t_prot_slot` (taken over from
                // the `protect` that returned it).
                let t_key = unsafe { t.deref().key };
                if t_next.tag() & MARK == 0 && t_key >= key {
                    break;
                }
            }
            let right = t;

            // Phase 2: left and right already adjacent?
            if left_next.with_tag(0).ptr_eq(right) {
                // SAFETY: `right` (== the last `t`) is covered by
                // `t_prot_slot` for the duration of the read phase.
                let right_marked = !right.ptr_eq(self.tail)
                    && unsafe { right.deref() }.next.load(Ordering::Acquire).tag() & MARK != 0;
                if right_marked {
                    continue 'search_again;
                }
                self.smr
                    .end_read_phase(ctx, &[left.untagged_usize(), right.untagged_usize()]);
                return SearchResult { left, right };
            }

            // Phase 3 (Φ_write): unlink the chain of marked nodes between
            // left and right with one CAS, then retire them.
            self.smr
                .end_read_phase(ctx, &[left.untagged_usize(), right.untagged_usize()]);
            // SAFETY: `left` was reserved by `end_read_phase` just above.
            let left_ref = unsafe { left.deref() };
            if left_ref
                .next
                .compare_exchange(left_next, right, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                // Retire the unlinked chain. These nodes were unlinked by this
                // thread just now, so no reclaimer can free them before the
                // retire below; dereferencing them here is safe even though
                // they are not reserved. Retiring strictly *after* the unlink
                // CAS keeps every chain record's retire era at or after the
                // unlink era (fact F4 in DESIGN.md, "Traversals through
                // unlinked records under the interval reclaimers").
                let mut c = left_next.with_tag(0);
                while !c.ptr_eq(right) {
                    // SAFETY: `c` is on the chain this thread's CAS just
                    // unlinked (see the comment above): not yet retired, so
                    // no reclaimer can have freed it.
                    let nxt = unsafe { c.deref() }
                        .next
                        .load(Ordering::Acquire)
                        .with_tag(0);
                    // SAFETY: unlinked above by this thread's CAS; retired once.
                    unsafe { self.smr.retire(ctx, c) };
                    c = nxt;
                }
                // SAFETY: `right` was reserved by `end_read_phase` above.
                let right_marked = !right.ptr_eq(self.tail)
                    && unsafe { right.deref() }.next.load(Ordering::Acquire).tag() & MARK != 0;
                if right_marked {
                    continue 'search_again;
                }
                return SearchResult { left, right };
            }
            continue 'search_again;
        }
    }
}

impl<S: Smr> ConcurrentSet<S> for HarrisList<S> {
    fn smr(&self) -> &S {
        &self.smr
    }

    fn contains(&self, ctx: &mut S::ThreadCtx, key: u64) -> bool {
        check_key(key);
        self.smr.begin_op(ctx);
        // Zipf-hot lookup memo: when the reclaimer clock can validate a
        // cached pointer (`validation_stamp`), a hit skips the traversal.
        let stamp = self.smr.validation_stamp(ctx);
        if let Some(stamp) = stamp {
            if let Some(addr) = memo::lookup(self.memo_id, key, stamp) {
                let node = addr as *const Node;
                // SAFETY: the entry was stored under an operation with the
                // same validation stamp, pointing at a node then observed
                // unmarked (hence reachable, not yet retired). By the
                // `validation_stamp` contract, stamp equality means no
                // record retired at or after that era has been freed, so
                // the memory is still this node.
                let next = unsafe { &(*node).next }.load(Ordering::Acquire);
                // SAFETY: as above — the node is still allocated.
                if next.tag() & MARK == 0 && unsafe { (*node).key } == key {
                    // Unmarked ⇒ still reachable (Harris unlinks only after
                    // marking): the key is present, linearized at the load.
                    self.smr.thread_stats_mut(ctx).memo_hits += 1;
                    self.smr.end_op(ctx);
                    return true;
                }
                memo::invalidate(self.memo_id, key);
            }
            self.smr.thread_stats_mut(ctx).memo_misses += 1;
        }
        let r = self.search(ctx, key);
        // SAFETY: `search` returned with `r.right` reserved for this thread.
        let found = !r.right.ptr_eq(self.tail) && unsafe { r.right.deref() }.key == key;
        if found {
            if let Some(stamp) = stamp {
                // `search` observed `r.right` unmarked at its linearization
                // point — the precondition for memoizing it.
                memo::store(self.memo_id, key, r.right.untagged_usize(), stamp);
            }
        }
        self.smr.clear_protections(ctx);
        self.smr.end_op(ctx);
        found
    }

    fn insert(&self, ctx: &mut S::ThreadCtx, key: u64) -> bool {
        check_key(key);
        self.smr.begin_op(ctx);
        let inserted = loop {
            let r = self.search(ctx, key);
            // SAFETY: `search` returned with `r.right` reserved.
            if !r.right.ptr_eq(self.tail) && unsafe { r.right.deref() }.key == key {
                break false;
            }
            // Φ_write: allocate and link the new node under the reservation of
            // `left` (the CAS target) and `right` (the successor).
            let mut node = Node::new(key);
            node.next = Atomic::new(r.right);
            let node = self.smr.alloc(ctx, node);
            // SAFETY: `search` returned with `r.left` reserved.
            let left_ref = unsafe { r.left.deref() };
            if left_ref
                .next
                .compare_exchange(r.right, node, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                break true;
            }
            // Lost the race: the node was never published, free it directly.
            // SAFETY: `node` was allocated above and never made reachable.
            unsafe { self.smr.dealloc_unpublished(ctx, node) };
        };
        self.smr.clear_protections(ctx);
        self.smr.end_op(ctx);
        inserted
    }

    fn remove(&self, ctx: &mut S::ThreadCtx, key: u64) -> bool {
        check_key(key);
        self.smr.begin_op(ctx);
        let removed = loop {
            let r = self.search(ctx, key);
            // SAFETY: `search` returned with `r.right` reserved (both derefs).
            if r.right.ptr_eq(self.tail) || unsafe { r.right.deref() }.key != key {
                break false;
            }
            // SAFETY: as above — `r.right` is still reserved.
            let right_ref = unsafe { r.right.deref() };
            let right_next = right_ref.next.load(Ordering::Acquire);
            if right_next.tag() & MARK != 0 {
                // Another thread is already deleting it; retry from the root.
                continue;
            }
            // Logical delete: mark `right.next`.
            if right_ref
                .next
                .compare_exchange(
                    right_next,
                    right_next.with_tag(MARK),
                    Ordering::AcqRel,
                    Ordering::Acquire,
                )
                .is_err()
            {
                continue;
            }
            // Eager memo invalidation: this thread just logically deleted
            // the node its memo may be caching for `key`. (Other threads'
            // entries die at the stamp/mark validation.)
            memo::invalidate(self.memo_id, key);
            // Physical delete: try to unlink it ourselves; if we fail, a
            // subsequent search (ours, below, or any other thread's) unlinks
            // and retires it.
            // SAFETY: `search` returned with `r.left` reserved.
            let left_ref = unsafe { r.left.deref() };
            if left_ref
                .next
                .compare_exchange(
                    r.right,
                    right_next.with_tag(0),
                    Ordering::AcqRel,
                    Ordering::Acquire,
                )
                .is_ok()
            {
                // SAFETY: unlinked by this thread's CAS; retired exactly once.
                unsafe { self.smr.retire(ctx, r.right) };
            } else {
                let _ = self.search(ctx, key);
            }
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
            let node = curr.with_tag(0);
            if node.ptr_eq(self.tail) {
                break;
            }
            // SAFETY: `size` runs inside a read phase; under the reclaimers
            // whose `CAN_TRAVERSE_UNLINKED` contract this structure is used
            // with, every node reachable from the head stays dereferenceable
            // for the duration of the announced phase.
            let next = unsafe { node.deref() }.next.load(Ordering::Acquire);
            if next.tag() & MARK == 0 {
                count += 1;
            }
            curr = next;
        }
        self.smr.end_read_phase(ctx, &[]);
        self.smr.end_op(ctx);
        count
    }

    fn name() -> &'static str {
        "harris-list"
    }
}

impl<S: Smr> Drop for HarrisList<S> {
    fn drop(&mut self) {
        let mut curr = self.head.next.load(Ordering::Relaxed).with_tag(0);
        while !curr.is_null() {
            // SAFETY: `&mut self` — no thread can hold references into the
            // list any more; every remaining node is exclusively ours.
            let next = unsafe { curr.deref() }
                .next
                .load(Ordering::Relaxed)
                .with_tag(0);
            // SAFETY: as above; each node is freed exactly once here.
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
    use smr_baselines::{Debra, HazardEras, HazardPointers, Rcu};
    use std::sync::Arc;

    #[test]
    fn sequential_basics() {
        let list = HarrisList::<NbrPlus>::new(SmrConfig::for_tests());
        let mut ctx = list.smr().register(0);
        assert!(list.insert(&mut ctx, 10));
        assert!(list.insert(&mut ctx, 5));
        assert!(list.insert(&mut ctx, 15));
        assert!(!list.insert(&mut ctx, 10));
        assert!(list.contains(&mut ctx, 10));
        assert!(!list.contains(&mut ctx, 11));
        assert_eq!(list.size(&mut ctx), 3);
        assert!(list.remove(&mut ctx, 10));
        assert!(!list.remove(&mut ctx, 10));
        assert_eq!(list.size(&mut ctx), 2);
        list.smr().unregister(&mut ctx);
    }

    #[test]
    fn model_check_under_nbr_plus() {
        let list = HarrisList::<NbrPlus>::new(SmrConfig::for_tests());
        model_check(&list, 4_000, 64, 1);
    }

    #[test]
    fn model_check_under_nbr() {
        let list = HarrisList::<Nbr>::new(SmrConfig::for_tests());
        model_check(&list, 4_000, 64, 2);
    }

    #[test]
    fn model_check_under_debra() {
        let list = HarrisList::<Debra>::new(SmrConfig::for_tests());
        model_check(&list, 4_000, 64, 3);
    }

    #[test]
    fn model_check_under_hp() {
        let list = HarrisList::<HazardPointers>::new(SmrConfig::for_tests());
        model_check(&list, 4_000, 64, 4);
    }

    #[test]
    fn model_check_under_hazard_eras() {
        let list = HarrisList::<HazardEras>::new(SmrConfig::for_tests());
        model_check(&list, 4_000, 64, 5);
    }

    #[test]
    fn model_check_under_rcu() {
        let list = HarrisList::<Rcu>::new(SmrConfig::for_tests());
        model_check(&list, 4_000, 64, 6);
    }

    #[test]
    fn concurrent_disjoint_stress_nbr_plus() {
        let list = Arc::new(HarrisList::<NbrPlus>::new(SmrConfig::for_tests()));
        disjoint_key_stress(list, 4, 3_000);
    }

    #[test]
    fn concurrent_disjoint_stress_debra() {
        let list = Arc::new(HarrisList::<Debra>::new(SmrConfig::for_tests()));
        disjoint_key_stress(list, 4, 3_000);
    }

    #[test]
    fn memo_hits_on_repeated_hot_lookup() {
        // DEBRA supplies a validation stamp, so the second lookup of an
        // undisturbed key must be served from the memo.
        let list = HarrisList::<Debra>::new(SmrConfig::for_tests());
        let mut ctx = list.smr().register(0);
        assert!(list.insert(&mut ctx, 42));
        assert!(list.contains(&mut ctx, 42)); // miss + store
        let miss_baseline = list.smr().thread_stats(&ctx).memo_misses;
        assert!(miss_baseline >= 1);
        assert!(list.contains(&mut ctx, 42)); // hit
        let s = list.smr().thread_stats(&ctx);
        assert_eq!(s.memo_hits, 1, "hot repeat lookup must hit the memo");
        assert_eq!(
            s.memo_misses, miss_baseline,
            "a hit must not count as a miss"
        );
        list.smr().unregister(&mut ctx);
    }

    #[test]
    fn memo_disabled_by_config_never_hits() {
        let list = HarrisList::<Debra>::new(SmrConfig::for_tests().with_memo(false));
        let mut ctx = list.smr().register(0);
        assert!(list.insert(&mut ctx, 42));
        assert!(list.contains(&mut ctx, 42));
        assert!(list.contains(&mut ctx, 42));
        let s = list.smr().thread_stats(&ctx);
        assert_eq!(s.memo_hits, 0);
        assert_eq!(s.memo_misses, 0, "no stamp ⇒ the memo is bypassed entirely");
        list.smr().unregister(&mut ctx);
    }

    #[test]
    fn memo_entry_dies_with_local_remove() {
        let list = HarrisList::<Debra>::new(SmrConfig::for_tests());
        let mut ctx = list.smr().register(0);
        assert!(list.insert(&mut ctx, 7));
        assert!(list.contains(&mut ctx, 7)); // memoized
        assert!(list.remove(&mut ctx, 7)); // eager invalidation
        assert!(!list.contains(&mut ctx, 7), "removed key must read absent");
        assert!(list.insert(&mut ctx, 7));
        assert!(
            list.contains(&mut ctx, 7),
            "re-inserted key must read present"
        );
        list.smr().unregister(&mut ctx);
    }

    #[test]
    fn stale_memo_entry_across_unlink_misses_validation() {
        // The resurrection scenario: an entry recorded before an unlink must
        // fail the stamp check once the reclaimer clock has advanced — even
        // if (as here) the entry is maliciously re-planted after the node
        // was retired, churned over and possibly freed. A correct memo falls
        // back to the traversal and reports the key absent; a broken one
        // would dereference reclaimed memory and may report it present.
        let list = HarrisList::<Debra>::new(SmrConfig::for_tests());
        let mut ctx = list.smr().register(0);
        assert!(list.insert(&mut ctx, 7));
        assert!(list.contains(&mut ctx, 7)); // memoized at the current stamp
        list.smr().begin_op(&mut ctx);
        let stale_stamp = list.smr().validation_stamp(&mut ctx).unwrap();
        let stale_addr = crate::memo::lookup(list.memo_id, 7, stale_stamp)
            .expect("the lookup above must have memoized key 7");
        list.smr().end_op(&mut ctx);

        assert!(list.remove(&mut ctx, 7));
        // Churn far past the epoch frequency so the global epoch advances
        // and the unlinked node is actually reclaimed.
        for k in 100..300u64 {
            assert!(list.insert(&mut ctx, k));
            assert!(list.remove(&mut ctx, k));
        }
        list.smr().flush(&mut ctx);

        // Re-plant the stale entry, as if this thread had never observed
        // the removal.
        crate::memo::store(list.memo_id, 7, stale_addr, stale_stamp);
        list.smr().begin_op(&mut ctx);
        let now_stamp = list.smr().validation_stamp(&mut ctx).unwrap();
        list.smr().end_op(&mut ctx);
        assert_ne!(now_stamp, stale_stamp, "churn must have advanced the clock");
        let hits_before = list.smr().thread_stats(&ctx).memo_hits;
        assert!(
            !list.contains(&mut ctx, 7),
            "stale entry must miss validation and fall back to the traversal"
        );
        assert_eq!(
            list.smr().thread_stats(&ctx).memo_hits,
            hits_before,
            "the stale entry must not be served as a hit"
        );
        list.smr().unregister(&mut ctx);
    }

    #[test]
    fn churn_reclaims_memory() {
        let list = HarrisList::<NbrPlus>::new(SmrConfig::for_tests());
        let mut ctx = list.smr().register(0);
        for round in 0..300u64 {
            for k in 1..=16u64 {
                list.insert(&mut ctx, k * 3 + round % 5);
            }
            for k in 1..=16u64 {
                list.remove(&mut ctx, k * 3 + round % 5);
            }
        }
        list.smr().flush(&mut ctx);
        let s = list.smr().thread_stats(&ctx);
        assert!(s.retires > 1_000);
        assert!(s.frees > s.retires / 2);
        list.smr().unregister(&mut ctx);
    }
}
