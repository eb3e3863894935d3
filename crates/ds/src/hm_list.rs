//! The Harris-Michael lock-free list (HM04) and its restart-from-root variant.
//!
//! Michael's refinement of the Harris list unlinks marked nodes one at a time
//! during traversal and — in its original form — *continues the traversal from
//! `pred`* after each unlink. That makes it incompatible with NBR (Table 1,
//! row HM04): the read phase that follows the auxiliary write phase does not
//! start from the root, so newly discovered records would be unreserved.
//!
//! Experiment E4 of the paper therefore modifies HM04 so that every unlink is
//! followed by a restart from the head, which makes NBR applicable, and then
//! measures the cost of those extra restarts by also running the modified list
//! under DEBRA ("debra-restarts") against the original under DEBRA
//! ("debra-norestarts"). [`HmList`] implements both behaviours behind the
//! [`RestartPolicy`] knob so the exact same comparison can be reproduced.
//!
//! The list logic itself lives in the crate-internal `HmCore`, which is
//! nothing but the head link: there is no head node, chains end in null
//! (Michael's layout, with no tail sentinel either), and `find` carries
//! `prev`, the link it will CAS, instead of a node to CAS it in. The
//! reclaimer, the restart policy and the memo identity all belong to the
//! owner and are passed into every call. One core is therefore one 8-byte
//! bucket, and an array of them sharing one `S` is the fixed-size hash map
//! of HM-list buckets ([`HmHashMap`](crate::HmHashMap), the related repos'
//! HMLHT structure).
//!
//! **Safety note:** the `ContinueFromPred` policy must only be paired with
//! reclaimers that do not rely on the NBR phase protocol (it is a documented
//! phase-rule violation for NBR/NBR+, exactly as the paper describes); the
//! tests only use it with DEBRA and the leaky reclaimer.

use crate::{check_key, memo, ConcurrentSet};
use smr_common::atomic::MARK;
use smr_common::{recycle, Atomic, NodeHeader, Shared, Smr, SmrConfig};
use std::sync::atomic::Ordering;

/// What a traversal does after performing an auxiliary unlink.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RestartPolicy {
    /// Restart the search from the head (the paper's modified HM04; required
    /// for NBR/NBR+).
    FromRoot,
    /// Continue from `pred` (original HM04; only valid with EBR-family or
    /// leaky reclaimers).
    ContinueFromPred,
}

/// A node of the Harris-Michael list.
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

/// Where `find` stopped: `curr` is the first node whose key is not below
/// the searched key (null at the chain's end), read from the link `prev`.
///
/// `prev` is `&core.head` while `pred` is null, and `&pred.next` once the
/// traversal has passed a node. It is therefore valid exactly as long as
/// `pred` is: the head lives as long as the core, and `pred.next` lies inside
/// `pred`, which the current read phase covers (its hazard slot, or the
/// reservation `end_read_phase` publishes).
struct FindResult {
    prev: *const Atomic<Node>,
    pred: Shared<Node>,
    curr: Shared<Node>,
}

impl FindResult {
    /// Whether `curr` is the node holding `key` (the chain may have ended).
    #[inline]
    fn holds(&self, key: u64) -> bool {
        // SAFETY: `find` returned with `curr` still protected.
        !self.curr.is_null() && unsafe { self.curr.deref() }.key == key
    }
}

/// One Harris-Michael list: its head link and the traversal/update logic.
/// A core is exactly one [`Atomic`] link (asserted below), so an
/// [`HmHashMap`](crate::HmHashMap) bucket is 8 bytes and no `Node` is ever
/// formed over it. The owning structure supplies the reclaimer, the restart
/// policy and the core's memo identity to every call; operations bracket
/// themselves with `begin_op`/`end_op` and follow the NBR phase discipline,
/// with the head link acting as the operation's root.
///
/// No node ever points at the head and every operation recomputes its
/// address from `&self`, so a core may be moved while no operation runs.
pub(crate) struct HmCore {
    head: Atomic<Node>,
}

const _: () = assert!(std::mem::size_of::<HmCore>() == 8);

impl HmCore {
    pub(crate) fn new() -> Self {
        Self {
            head: Atomic::null(),
        }
    }

    /// Michael's `find`: returns `(prev, pred, curr)` with `pred.key < key
    /// <= curr.key` (`pred` null when `curr` hangs off the head, `curr` null
    /// when every key is smaller), both reachable and unmarked at the
    /// linearization point, and unlinks any marked node it encounters along
    /// the way. On return the thread is still inside a read phase with
    /// `pred`/`curr` protected.
    fn find<S: Smr>(
        &self,
        smr: &S,
        ctx: &mut S::ThreadCtx,
        policy: RestartPolicy,
        key: u64,
    ) -> FindResult {
        'from_root: loop {
            smr.begin_read_phase(ctx);
            let mut prev: *const Atomic<Node> = &self.head;
            let mut pred = Shared::null();
            // Rotating hazard slots: pred, curr, next.
            let mut pred_slot = 2usize;
            let mut curr_slot = 0usize;
            let mut curr = smr.protect(ctx, curr_slot, &self.head);
            if smr.checkpoint(ctx) {
                continue 'from_root;
            }
            loop {
                debug_assert_eq!(curr.tag(), 0);
                if curr.is_null() {
                    return FindResult { prev, pred, curr };
                }
                // The remaining slot of {0, 1, 2}.
                let next_slot = 3 - pred_slot - curr_slot;
                // SAFETY: `curr` is covered by `curr_slot` (the `protect`
                // that returned it).
                let curr_next = unsafe { &curr.deref().next };
                let next = smr.protect(ctx, next_slot, curr_next);
                if smr.checkpoint(ctx) {
                    continue 'from_root;
                }
                if next.tag() & MARK != 0 {
                    // `curr` is logically deleted: unlink it (auxiliary Φ_write
                    // on the reserved pred/curr pair), then resume according to
                    // the policy.
                    smr.end_read_phase(ctx, &[pred.untagged_usize(), curr.untagged_usize()]);
                    // SAFETY: `prev` is the head or lies inside `pred`, which
                    // `end_read_phase` just reserved (a null `pred` is the
                    // head's case, and the head lives as long as `self`).
                    let unlinked = unsafe { &*prev }
                        .compare_exchange(
                            curr,
                            next.with_tag(0),
                            Ordering::AcqRel,
                            Ordering::Acquire,
                        )
                        .is_ok();
                    if unlinked {
                        // SAFETY: unlinked by this thread's CAS just now.
                        unsafe { smr.retire(ctx, curr) };
                    }
                    match policy {
                        RestartPolicy::FromRoot => continue 'from_root,
                        RestartPolicy::ContinueFromPred => {
                            if !unlinked {
                                continue 'from_root;
                            }
                            // Original HM04: keep going from pred. Re-open a
                            // read phase so the phase brackets stay balanced
                            // (this path is never used with NBR).
                            smr.begin_read_phase(ctx);
                            curr = next.with_tag(0);
                            // pred and prev stay; curr takes over next's slot.
                            curr_slot = next_slot;
                            continue;
                        }
                    }
                }
                // SAFETY: `curr` is covered by `curr_slot`.
                let curr_key = unsafe { curr.deref().key };
                if curr_key >= key {
                    return FindResult { prev, pred, curr };
                }
                prev = curr_next;
                pred = curr;
                pred_slot = curr_slot;
                curr = next;
                curr_slot = next_slot;
            }
        }
    }

    /// `memo_id` is this core's identity in the thread-local lookup memo;
    /// no two cores may share one, so they never serve each other's cached
    /// pointers.
    pub(crate) fn contains<S: Smr>(
        &self,
        smr: &S,
        ctx: &mut S::ThreadCtx,
        policy: RestartPolicy,
        memo_id: u64,
        key: u64,
    ) -> bool {
        check_key(key);
        smr.begin_op(ctx);
        // Zipf-hot lookup memo: when the reclaimer clock can validate a
        // cached pointer (`validation_stamp`), a hit skips the traversal.
        let stamp = smr.validation_stamp(ctx);
        if let Some(stamp) = stamp {
            if let Some(addr) = memo::lookup(memo_id, key, stamp) {
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
                    // Unmarked ⇒ still reachable (HM04 unlinks only after
                    // marking): the key is present, linearized at the load.
                    smr.thread_stats_mut(ctx).memo_hits += 1;
                    smr.end_op(ctx);
                    return true;
                }
                memo::invalidate(memo_id, key);
            }
            smr.thread_stats_mut(ctx).memo_misses += 1;
        }
        let r = self.find(smr, ctx, policy, key);
        let found = r.holds(key);
        if found {
            if let Some(stamp) = stamp {
                // `find` observed `r.curr` unmarked at its linearization
                // point — the precondition for memoizing it.
                memo::store(memo_id, key, r.curr.untagged_usize(), stamp);
            }
        }
        smr.end_read_phase(ctx, &[]);
        smr.clear_protections(ctx);
        smr.end_op(ctx);
        found
    }

    pub(crate) fn insert<S: Smr>(
        &self,
        smr: &S,
        ctx: &mut S::ThreadCtx,
        policy: RestartPolicy,
        key: u64,
    ) -> bool {
        check_key(key);
        smr.begin_op(ctx);
        let inserted = loop {
            let r = self.find(smr, ctx, policy, key);
            if r.holds(key) {
                smr.end_read_phase(ctx, &[]);
                break false;
            }
            smr.end_read_phase(ctx, &[r.pred.untagged_usize(), r.curr.untagged_usize()]);
            let mut node = Node::new(key);
            node.next = Atomic::new(r.curr);
            let node = smr.alloc(ctx, node);
            // SAFETY: `r.prev` is the head or lies inside `r.pred`, which
            // `end_read_phase` reserved above.
            if unsafe { &*r.prev }
                .compare_exchange(r.curr, node, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                break true;
            }
            // SAFETY: never published.
            unsafe { smr.dealloc_unpublished(ctx, node) };
        };
        smr.clear_protections(ctx);
        smr.end_op(ctx);
        inserted
    }

    pub(crate) fn remove<S: Smr>(
        &self,
        smr: &S,
        ctx: &mut S::ThreadCtx,
        policy: RestartPolicy,
        memo_id: u64,
        key: u64,
    ) -> bool {
        check_key(key);
        smr.begin_op(ctx);
        let removed = loop {
            let r = self.find(smr, ctx, policy, key);
            if !r.holds(key) {
                smr.end_read_phase(ctx, &[]);
                break false;
            }
            smr.end_read_phase(ctx, &[r.pred.untagged_usize(), r.curr.untagged_usize()]);
            // SAFETY: `r.curr` was reserved by `end_read_phase` above.
            let curr_ref = unsafe { r.curr.deref() };
            let next = curr_ref.next.load(Ordering::Acquire);
            if next.tag() & MARK != 0 {
                // Someone else is deleting it; help by retrying (the next find
                // unlinks it) and report "not present".
                continue;
            }
            // Logical delete.
            if curr_ref
                .next
                .compare_exchange(
                    next,
                    next.with_tag(MARK),
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
            memo::invalidate(memo_id, key);
            // Physical delete: if our unlink fails, some traversal will do it
            // (and retire the node).
            // SAFETY: `r.prev` is the head or lies inside `r.pred`, which
            // `end_read_phase` reserved above.
            if unsafe { &*r.prev }
                .compare_exchange(
                    r.curr,
                    next.with_tag(0),
                    Ordering::AcqRel,
                    Ordering::Acquire,
                )
                .is_ok()
            {
                // SAFETY: unlinked by this thread's CAS; retired exactly once.
                unsafe { smr.retire(ctx, r.curr) };
            } else {
                let _ = self.find(smr, ctx, policy, key);
                smr.end_read_phase(ctx, &[]);
            }
            break true;
        };
        smr.clear_protections(ctx);
        smr.end_op(ctx);
        removed
    }

    /// Counts the unmarked nodes by raw traversal (no protection — only
    /// meaningful while no other thread mutates the core).
    pub(crate) fn count<S: Smr>(&self, smr: &S, ctx: &mut S::ThreadCtx) -> usize {
        smr.begin_op(ctx);
        smr.begin_read_phase(ctx);
        let mut count = 0usize;
        let mut curr = self.head.load(Ordering::Acquire).with_tag(0);
        while !curr.is_null() {
            // SAFETY: `count` runs inside a read phase; see its doc — only
            // meaningful while no other thread mutates the core.
            let next = unsafe { curr.deref() }.next.load(Ordering::Acquire);
            if next.tag() & MARK == 0 {
                count += 1;
            }
            curr = next.with_tag(0);
        }
        smr.end_read_phase(ctx, &[]);
        smr.end_op(ctx);
        count
    }
}

impl Drop for HmCore {
    fn drop(&mut self) {
        let mut curr = self.head.load(Ordering::Relaxed).with_tag(0);
        while !curr.is_null() {
            // SAFETY: `&mut self` — no concurrent access remains; every
            // node is exclusively ours and freed exactly once.
            let next = unsafe { curr.deref() }
                .next
                .load(Ordering::Relaxed)
                .with_tag(0);
            // SAFETY: as above.
            unsafe { recycle::free_node_raw(curr.as_raw()) };
            curr = next;
        }
    }
}

/// The Harris-Michael lock-free list-based set.
pub struct HmList<S: Smr> {
    smr: S,
    core: HmCore,
    policy: RestartPolicy,
    /// Identity of this list in the thread-local lookup memo.
    memo_id: u64,
}

// SAFETY: the core owns its nodes through `Atomic` links; all shared access
// goes through the `Smr` protection protocol, and `Smr: Send + Sync`.
unsafe impl<S: Smr> Send for HmList<S> {}
// SAFETY: as above — all mutation is via atomics and CAS.
unsafe impl<S: Smr> Sync for HmList<S> {}

impl<S: Smr> HmList<S> {
    /// Creates an empty list with the given restart policy.
    pub fn with_policy(config: SmrConfig, policy: RestartPolicy) -> Self {
        Self {
            smr: S::new(config),
            core: HmCore::new(),
            policy,
            memo_id: memo::next_memo_ids(1),
        }
    }

    /// Creates an empty list with the restart-from-root policy (the variant
    /// that is safe under every reclaimer, including NBR/NBR+).
    pub fn new(config: SmrConfig) -> Self {
        Self::with_policy(config, RestartPolicy::FromRoot)
    }

    /// The restart policy this list was created with.
    pub fn policy(&self) -> RestartPolicy {
        self.policy
    }
}

impl<S: Smr> ConcurrentSet<S> for HmList<S> {
    fn smr(&self) -> &S {
        &self.smr
    }

    fn contains(&self, ctx: &mut S::ThreadCtx, key: u64) -> bool {
        self.core
            .contains(&self.smr, ctx, self.policy, self.memo_id, key)
    }

    fn insert(&self, ctx: &mut S::ThreadCtx, key: u64) -> bool {
        self.core.insert(&self.smr, ctx, self.policy, key)
    }

    fn remove(&self, ctx: &mut S::ThreadCtx, key: u64) -> bool {
        self.core
            .remove(&self.smr, ctx, self.policy, self.memo_id, key)
    }

    fn size(&self, ctx: &mut S::ThreadCtx) -> usize {
        self.core.count(&self.smr, ctx)
    }

    fn name() -> &'static str {
        "hm-list"
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::test_support::{disjoint_key_stress, model_check};
    use crate::KEY_MAX;
    use nbr::NbrPlus;
    use smr_baselines::{Debra, HazardPointers, Ibr, Leaky};
    use std::sync::Arc;

    /// Marks the node holding `key` the way a remover does before its
    /// unlink, leaving it linked for a traversal to clean up.
    fn mark(core: &HmCore, key: u64) {
        let mut node = core.head.load(Ordering::Acquire);
        let next = loop {
            // SAFETY: single-threaded test; every node on the chain is
            // still linked, and `key` is on it.
            let n = unsafe { node.deref() };
            if n.key == key {
                break &n.next;
            }
            node = n.next.load(Ordering::Acquire);
        };
        let succ = next.load(Ordering::Acquire);
        assert!(next
            .compare_exchange(
                succ,
                succ.with_tag(MARK),
                Ordering::AcqRel,
                Ordering::Acquire,
            )
            .is_ok());
    }

    /// The key of the node the bucket link points at, read from the link
    /// itself (`None` when the bucket is empty).
    fn first_key(core: &HmCore) -> Option<u64> {
        let first = core.head.load(Ordering::Acquire);
        // SAFETY: single-threaded test; a node the head points at is live.
        (!first.is_null()).then(|| unsafe { first.deref() }.key)
    }

    /// Drives both ends of a null-terminated chain through `set`, all of
    /// whose keys live in `core`. At the head link: an insert into the empty
    /// bucket, removing the only node and reinserting it, removing the first
    /// node, and a marked first node that `find` unlinks with a CAS on the
    /// head link itself. At the tail: keys above every key in the chain, a
    /// removed last node (its `next` becomes `null|MARK`), and a marked last
    /// node nobody unlinked, each followed by an insert past it.
    pub(crate) fn chain_end_paths<S: Smr>(set: &impl ConcurrentSet<S>, core: &HmCore) {
        let mut ctx = set.smr().register(0);
        assert!(!set.contains(&mut ctx, 5), "empty chain");
        assert!(!set.remove(&mut ctx, 5), "empty chain");
        assert!(set.insert(&mut ctx, 20), "into an empty bucket");
        assert_eq!(first_key(core), Some(20));
        assert!(set.remove(&mut ctx, 20), "the only node");
        assert_eq!(first_key(core), None, "the head link is null again");
        assert!(set.insert(&mut ctx, 20), "reinsert after the only node");
        for k in [10, 30] {
            assert!(set.insert(&mut ctx, k));
        }
        assert_eq!(first_key(core), Some(10), "linked at the head");
        assert!(set.remove(&mut ctx, 10), "the first node");
        assert_eq!(first_key(core), Some(20), "unlinked from the head link");
        assert!(set.insert(&mut ctx, 10));
        mark(core, 10);
        assert!(!set.contains(&mut ctx, 10), "the marked first node is gone");
        assert_eq!(first_key(core), Some(20), "find unlinked it at the head");
        assert!(!set.contains(&mut ctx, 40), "above every key");
        assert!(!set.remove(&mut ctx, 40), "above every key");
        assert!(set.remove(&mut ctx, 30), "last node");
        assert!(set.insert(&mut ctx, 35), "past the removed last node");
        mark(core, 35);
        assert!(set.insert(&mut ctx, KEY_MAX - 1), "past a marked last node");
        assert!(!set.contains(&mut ctx, 35), "the marked node is gone");
        assert!(set.contains(&mut ctx, KEY_MAX - 1));
        assert_eq!(set.size(&mut ctx), 2);
        set.smr().unregister(&mut ctx);
    }

    fn chain_ends<S: Smr>(policy: RestartPolicy) {
        let list = HmList::<S>::with_policy(SmrConfig::for_tests(), policy);
        chain_end_paths(&list, &list.core);
    }

    #[test]
    fn chain_ends_under_nbr_plus() {
        chain_ends::<NbrPlus>(RestartPolicy::FromRoot);
    }

    #[test]
    fn chain_ends_under_debra() {
        chain_ends::<Debra>(RestartPolicy::FromRoot);
        chain_ends::<Debra>(RestartPolicy::ContinueFromPred);
    }

    #[test]
    fn chain_ends_under_hp() {
        chain_ends::<HazardPointers>(RestartPolicy::FromRoot);
    }

    #[test]
    fn chain_ends_under_ibr() {
        chain_ends::<Ibr>(RestartPolicy::FromRoot);
    }

    /// A list holding keys is moved into a `Box` between operations and
    /// keeps working: nothing points at the inline head link.
    fn survives_a_move<S: Smr>() {
        let list = HmList::<S>::new(SmrConfig::for_tests());
        let mut ctx = list.smr().register(0);
        for k in 1..=16 {
            assert!(list.insert(&mut ctx, k));
        }
        list.smr().unregister(&mut ctx);
        let before = &list.core as *const HmCore;
        let list = Box::new(list);
        assert_ne!(before, &list.core as *const HmCore, "the head moved");
        let mut ctx = list.smr().register(0);
        for k in 1..=16 {
            assert!(list.contains(&mut ctx, k));
        }
        for k in (1..=16).step_by(2) {
            assert!(list.remove(&mut ctx, k));
        }
        assert!(list.insert(&mut ctx, 17));
        assert!(!list.contains(&mut ctx, 1));
        assert_eq!(list.size(&mut ctx), 9);
        list.smr().unregister(&mut ctx);
    }

    #[test]
    fn survives_a_move_under_nbr_plus() {
        survives_a_move::<NbrPlus>();
    }

    #[test]
    fn survives_a_move_under_debra() {
        survives_a_move::<Debra>();
    }

    #[test]
    fn survives_a_move_under_hp() {
        survives_a_move::<HazardPointers>();
    }

    #[test]
    fn sequential_basics_restart_variant() {
        let list = HmList::<NbrPlus>::new(SmrConfig::for_tests());
        let mut ctx = list.smr().register(0);
        assert!(list.insert(&mut ctx, 4));
        assert!(list.insert(&mut ctx, 2));
        assert!(!list.insert(&mut ctx, 2));
        assert!(list.contains(&mut ctx, 2));
        assert!(list.remove(&mut ctx, 2));
        assert!(!list.contains(&mut ctx, 2));
        assert_eq!(list.size(&mut ctx), 1);
        list.smr().unregister(&mut ctx);
    }

    #[test]
    fn sequential_basics_norestart_variant() {
        let list =
            HmList::<Debra>::with_policy(SmrConfig::for_tests(), RestartPolicy::ContinueFromPred);
        assert_eq!(list.policy(), RestartPolicy::ContinueFromPred);
        let mut ctx = list.smr().register(0);
        for k in 1..=32u64 {
            assert!(list.insert(&mut ctx, k));
        }
        for k in (1..=32u64).step_by(2) {
            assert!(list.remove(&mut ctx, k));
        }
        assert_eq!(list.size(&mut ctx), 16);
        list.smr().unregister(&mut ctx);
    }

    #[test]
    fn model_check_restart_under_nbr_plus() {
        let list = HmList::<NbrPlus>::new(SmrConfig::for_tests());
        model_check(&list, 4_000, 64, 11);
    }

    #[test]
    fn model_check_restart_under_hp() {
        let list = HmList::<HazardPointers>::new(SmrConfig::for_tests());
        model_check(&list, 4_000, 64, 12);
    }

    #[test]
    fn model_check_norestart_under_debra() {
        let list =
            HmList::<Debra>::with_policy(SmrConfig::for_tests(), RestartPolicy::ContinueFromPred);
        model_check(&list, 4_000, 64, 13);
    }

    #[test]
    fn model_check_norestart_under_leaky() {
        let list =
            HmList::<Leaky>::with_policy(SmrConfig::for_tests(), RestartPolicy::ContinueFromPred);
        model_check(&list, 4_000, 64, 14);
    }

    #[test]
    fn concurrent_disjoint_stress_restart_nbr_plus() {
        let list = Arc::new(HmList::<NbrPlus>::new(SmrConfig::for_tests()));
        disjoint_key_stress(list, 4, 3_000);
    }

    #[test]
    fn concurrent_disjoint_stress_norestart_debra() {
        let list = Arc::new(HmList::<Debra>::with_policy(
            SmrConfig::for_tests(),
            RestartPolicy::ContinueFromPred,
        ));
        disjoint_key_stress(list, 4, 3_000);
    }
}
