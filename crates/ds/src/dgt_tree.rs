//! The external binary search tree of David, Guerraoui & Trigonakis (DGT15,
//! "Asynchronized Concurrency: The Secret to Scaling Concurrent Search Data
//! Structures"), the tree used for experiments E1 and E2 of the paper.
//!
//! * It is *external* (leaf-oriented): internal nodes only route, leaves hold
//!   the set's keys.
//! * Searches are completely synchronization-free.
//! * `insert` locks the parent of the target leaf; `remove` locks the
//!   grandparent and the parent; both validate after locking (the node is not
//!   removed and still points to the child that was read) and retry from the
//!   root on failure. The original uses ticket locks whose version doubles as
//!   the validation stamp; the [`SeqLock`] versioned lock plays that role
//!   here, and its dead bit is the "removed" flag: `remove` sets it on the
//!   spliced-out parent with [`SeqLock::mark_dead`] while holding that
//!   parent's lock. Only parents and grandparents are ever checked, so the
//!   retired leaf is not marked.
//! * An internal [`Node`] is `[key, left, right, lock, header]`, 40 bytes,
//!   with the three fields a search hop reads in its first 24. A [`Leaf`] is
//!   its own `[key, header]` record, 16 bytes: it has no children and is never
//!   locked. A child link to a leaf carries the `LEAF` tag, and the search
//!   stops on that tag before dereferencing anything.
//!
//! This is the structure the paper singles out as supported by NBR but **not**
//! by HP-style schemes (Table 1: "no marks, cannot validate HP"): there is no
//! marked bit a hazard-pointer validation could test. The tree still runs
//! under HP, whose protect re-reads the source field, so Figure 3a's HP curve
//! can be reproduced; but HP on this tree is a Table 1 "no" pair, and the
//! schedule explorer finds a use-after-free for it with
//! `run_matrix_one(Scheme::Hp, Structure::DgtTree, Strategy::Random {
//! switch_one_in: 1 }, 0xe33701cc92fbd3fd, &Params::default())`. Correctness
//! under NBR relies only on the phase protocol.
//!
//! NBR integration: the search is the Φ_read; `insert` reserves
//! `[parent, leaf]` and `remove` reserves `[gparent, parent, leaf]` (at most 3
//! reservations, as stated in Section 4.4).

use crate::{check_key, ConcurrentSet, KEY_MAX, KEY_MIN};
use smr_common::atomic::{MARK, TAG_MASK};
use smr_common::{recycle, Atomic, NodeHeader, SeqLock, Shared, Smr, SmrConfig};
use std::sync::atomic::Ordering;

/// An internal node of the external BST: it routes, and is locked as a
/// parent or grandparent. The fields a search hop reads come first.
#[repr(C)]
pub struct Node {
    key: u64,
    left: Atomic<Node>,
    right: Atomic<Node>,
    /// Lock, version and the "removed" flag (its dead bit).
    lock: SeqLock,
    header: NodeHeader,
}
smr_common::impl_smr_node!(Node);

const _: () = assert!(std::mem::size_of::<Node>() == 40);

/// A leaf of the external BST: one key of the set. It has no children and is
/// never locked, so it carries neither links nor a lock.
#[repr(C)]
pub struct Leaf {
    key: u64,
    header: NodeHeader,
}
smr_common::impl_smr_node!(Leaf);

const _: () = assert!(std::mem::size_of::<Leaf>() == 16);

impl Leaf {
    fn new(key: u64) -> Self {
        Self {
            key,
            header: NodeHeader::new(),
        }
    }
}

/// The tag of a child link that points to a [`Leaf`]; a link to an internal
/// [`Node`] carries tag 0. Bit 1, so bit 0 stays free for [`MARK`], the bit
/// HP-POP's oracle mirror reads as "logically deleted".
///
/// The rule the three helpers below keep: a `LEAF`-tagged `Shared<Node>` is
/// never dereferenced as a `Node`. Test it with [`is_leaf`] and recover the
/// leaf with [`as_leaf`].
const LEAF: usize = 2;

const _: () = assert!(LEAF & MARK == 0 && LEAF & TAG_MASK == LEAF);

/// The child link to `leaf`: its address under the [`LEAF`] tag.
#[inline]
fn leaf_link(leaf: Shared<Leaf>) -> Shared<Node> {
    Shared::from_usize(leaf.untagged_usize() | LEAF)
}

/// True when `link` points to a [`Leaf`] (it carries the [`LEAF`] tag).
#[inline]
fn is_leaf(link: Shared<Node>) -> bool {
    link.tag() & LEAF != 0
}

/// The leaf a [`LEAF`]-tagged `link` points to.
#[inline]
fn as_leaf(link: Shared<Node>) -> Shared<Leaf> {
    debug_assert!(is_leaf(link));
    Shared::from_usize(link.untagged_usize())
}

impl Node {
    fn new(key: u64, left: Shared<Node>, right: Shared<Node>) -> Self {
        Self {
            key,
            left: Atomic::new(left),
            right: Atomic::new(right),
            lock: SeqLock::new(),
            header: NodeHeader::new(),
        }
    }

    #[inline]
    fn is_removed(&self) -> bool {
        self.lock.is_dead()
    }

    /// The child an operation on `key` must follow.
    #[inline]
    fn child_for(&self, key: u64) -> &Atomic<Node> {
        if key < self.key {
            &self.left
        } else {
            &self.right
        }
    }
}

struct SearchResult {
    gparent: Shared<Node>,
    parent: Shared<Node>,
    /// The [`LEAF`]-tagged link the search ended on, as read from `parent`.
    leaf: Shared<Node>,
}

/// The DGT external binary search tree.
pub struct DgtTree<S: Smr> {
    smr: S,
    /// Sentinel internal root with key `KEY_MAX`; its left subtree holds every
    /// real key, its right child is a sentinel leaf. Never removed.
    root: Box<Node>,
}

// SAFETY: the tree owns its nodes through `Atomic` links; all shared access
// goes through the `Smr` protection protocol, and `Smr: Send + Sync`.
unsafe impl<S: Smr> Send for DgtTree<S> {}
// SAFETY: as above — mutation is via atomics under per-node locks.
unsafe impl<S: Smr> Sync for DgtTree<S> {}

impl<S: Smr> DgtTree<S> {
    /// Creates an empty tree whose reclaimer is configured by `config`.
    pub fn new(config: SmrConfig) -> Self {
        Self::with_smr(S::new(config))
    }

    /// Creates an empty tree around an existing reclaimer instance.
    pub fn with_smr(smr: S) -> Self {
        let sentinel = |key| leaf_link(Shared::from_raw(recycle::alloc_node_raw(Leaf::new(key))));
        // lint:allow-box-node — root sentinel: owned by the structure,
        // never published for retirement, freed by Box's own drop.
        let root = Box::new(Node::new(KEY_MAX, sentinel(KEY_MIN), sentinel(KEY_MAX)));
        Self { smr, root }
    }

    #[inline]
    fn root_shared(&self) -> Shared<Node> {
        Shared::from_raw(&*self.root as *const Node as *mut Node)
    }

    /// Synchronization-free search (Φ_read): walk from the root to the leaf
    /// responsible for `key`, remembering the parent and grandparent. Hazard
    /// slots rotate over {0, 1, 2} so the last three nodes stay protected.
    /// The walk stops on the [`LEAF`] tag of the link it loaded, before any
    /// dereference.
    fn traverse(&self, ctx: &mut S::ThreadCtx, key: u64) -> Option<SearchResult> {
        let mut gparent = Shared::null();
        let mut parent = self.root_shared();
        let mut slot = 0usize;
        // SAFETY: `parent` is the root sentinel, owned by the tree.
        let mut curr = self
            .smr
            .protect(ctx, slot, unsafe { parent.deref() }.child_for(key));
        if self.smr.checkpoint(ctx) {
            return None;
        }
        while !is_leaf(curr) {
            // SAFETY: `curr` is covered by `slot` (the `protect` above), and
            // an untagged link points to an internal `Node`.
            let curr_ref = unsafe { curr.deref() };
            gparent = parent;
            parent = curr;
            slot = (slot + 1) % 3;
            curr = self.smr.protect(ctx, slot, curr_ref.child_for(key));
            if self.smr.checkpoint(ctx) {
                return None;
            }
        }
        Some(SearchResult {
            gparent,
            parent,
            leaf: curr,
        })
    }
}

impl<S: Smr> ConcurrentSet<S> for DgtTree<S> {
    fn smr(&self) -> &S {
        &self.smr
    }

    fn contains(&self, ctx: &mut S::ThreadCtx, key: u64) -> bool {
        check_key(key);
        self.smr.begin_op(ctx);
        let found = loop {
            self.smr.begin_read_phase(ctx);
            let Some(r) = self.traverse(ctx, key) else {
                continue;
            };
            // SAFETY: `r.leaf` is still protected by its traversal slot.
            let found = unsafe { as_leaf(r.leaf).deref() }.key == key;
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
            let Some(r) = self.traverse(ctx, key) else {
                continue;
            };
            // SAFETY: `r.leaf` is still protected by its traversal slot.
            let leaf_key = unsafe { as_leaf(r.leaf).deref() }.key;
            if leaf_key == key {
                self.smr.end_read_phase(ctx, &[]);
                break false;
            }

            // Φ_write touches the parent (lock + child swing): reserve it,
            // and the leaf the new internal node adopts.
            self.smr
                .end_read_phase(ctx, &[r.parent.untagged_usize(), r.leaf.untagged_usize()]);

            // SAFETY: `r.parent` was just reserved by `end_read_phase`.
            let parent_ref = unsafe { r.parent.deref() };
            parent_ref.lock.lock();
            let child_slot = parent_ref.child_for(key);
            let valid =
                !parent_ref.is_removed() && child_slot.load(Ordering::Acquire).ptr_eq(r.leaf);
            if !valid {
                parent_ref.lock.unlock();
                continue;
            }
            // Build the replacement subtree: a new internal node routing
            // between the existing leaf and a new leaf holding `key`.
            let new_leaf = leaf_link(self.smr.alloc(ctx, Leaf::new(key)));
            let (left, right, routing) = if key < leaf_key {
                (new_leaf, r.leaf, leaf_key)
            } else {
                (r.leaf, new_leaf, key)
            };
            let new_internal = self.smr.alloc(ctx, Node::new(routing, left, right));
            child_slot.store(new_internal, Ordering::Release);
            parent_ref.lock.unlock();
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
            let Some(r) = self.traverse(ctx, key) else {
                continue;
            };
            // SAFETY: `r.leaf` is still protected by its traversal slot.
            if unsafe { as_leaf(r.leaf).deref() }.key != key {
                self.smr.end_read_phase(ctx, &[]);
                break false;
            }
            // The sentinel structure guarantees a real key's leaf always has an
            // internal parent and grandparent.
            debug_assert!(!r.gparent.is_null());

            self.smr.end_read_phase(
                ctx,
                &[
                    r.gparent.untagged_usize(),
                    r.parent.untagged_usize(),
                    r.leaf.untagged_usize(),
                ],
            );

            // SAFETY: `r.gparent` was just reserved by `end_read_phase`.
            let gparent_ref = unsafe { r.gparent.deref() };
            // SAFETY: `r.parent` was just reserved by `end_read_phase`.
            let parent_ref = unsafe { r.parent.deref() };
            // Lock order: ancestor first (consistent tree order ⇒ no deadlock).
            gparent_ref.lock.lock();
            parent_ref.lock.lock();
            let gchild_slot = gparent_ref.child_for(key);
            let child_slot = parent_ref.child_for(key);
            let valid = !gparent_ref.is_removed()
                && !parent_ref.is_removed()
                && gchild_slot.load(Ordering::Acquire).ptr_eq(r.parent)
                && child_slot.load(Ordering::Acquire).ptr_eq(r.leaf);
            if !valid {
                parent_ref.lock.unlock();
                gparent_ref.lock.unlock();
                continue;
            }
            // Splice the parent out: the grandparent adopts the leaf's sibling.
            let sibling = if key < parent_ref.key {
                parent_ref.right.load(Ordering::Acquire)
            } else {
                parent_ref.left.load(Ordering::Acquire)
            };
            gchild_slot.store(sibling, Ordering::Release);
            parent_ref.lock.mark_dead();
            parent_ref.lock.unlock();
            gparent_ref.lock.unlock();
            // SAFETY: both records were just unlinked by this thread (it held
            // the locks), so each is retired exactly once, under its own type.
            unsafe {
                self.smr.retire(ctx, r.parent);
                self.smr.retire(ctx, as_leaf(r.leaf));
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
        // Iterative DFS over the (quiescent) tree, counting non-sentinel leaves.
        let mut stack = vec![self.root_shared()];
        let mut count = 0usize;
        while let Some(link) = stack.pop() {
            if is_leaf(link) {
                // SAFETY: `size` runs inside a read phase; under the
                // reclaimers this structure is used with, every record
                // reachable from the root stays dereferenceable for the
                // announced phase.
                let key = unsafe { as_leaf(link).deref() }.key;
                if key != KEY_MIN && key != KEY_MAX {
                    count += 1;
                }
            } else {
                // SAFETY: as above; an untagged link is an internal `Node`.
                let node_ref = unsafe { link.deref() };
                stack.push(node_ref.left.load(Ordering::Acquire));
                stack.push(node_ref.right.load(Ordering::Acquire));
            }
        }
        self.smr.end_read_phase(ctx, &[]);
        self.smr.end_op(ctx);
        count
    }

    fn name() -> &'static str {
        "dgt-tree"
    }
}

impl<S: Smr> Drop for DgtTree<S> {
    fn drop(&mut self) {
        // Free every record still reachable (unlinked records are owned by
        // the reclaimer's limbo bags / orphan pool), each with its own
        // type's layout.
        let mut stack = vec![
            self.root.left.load(Ordering::Relaxed),
            self.root.right.load(Ordering::Relaxed),
        ];
        while let Some(link) = stack.pop() {
            if is_leaf(link) {
                // SAFETY: `&mut self` — no concurrent access remains; every
                // reachable record is exclusively ours and freed exactly once.
                unsafe { recycle::free_node_raw(as_leaf(link).as_raw()) };
                continue;
            }
            // SAFETY: as above; an untagged link is an internal `Node`.
            let node_ref = unsafe { link.deref() };
            stack.push(node_ref.left.load(Ordering::Relaxed));
            stack.push(node_ref.right.load(Ordering::Relaxed));
            // SAFETY: as above.
            unsafe { recycle::free_node_raw(link.as_raw()) };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::{disjoint_key_stress, model_check};
    use nbr::{Nbr, NbrPlus};
    use smr_baselines::{Debra, HazardPointers, Ibr, Qsbr, Rcu};
    use std::sync::Arc;

    #[test]
    fn sequential_basics() {
        let tree = DgtTree::<NbrPlus>::new(SmrConfig::for_tests());
        let mut ctx = tree.smr().register(0);
        assert!(!tree.contains(&mut ctx, 50));
        assert!(tree.insert(&mut ctx, 50));
        assert!(tree.insert(&mut ctx, 30));
        assert!(tree.insert(&mut ctx, 70));
        assert!(tree.insert(&mut ctx, 60));
        assert!(!tree.insert(&mut ctx, 60));
        assert_eq!(tree.size(&mut ctx), 4);
        assert!(tree.contains(&mut ctx, 60));
        assert!(tree.remove(&mut ctx, 50));
        assert!(!tree.remove(&mut ctx, 50));
        assert!(!tree.contains(&mut ctx, 50));
        assert!(tree.contains(&mut ctx, 30) && tree.contains(&mut ctx, 70));
        assert_eq!(tree.size(&mut ctx), 3);
        tree.smr().unregister(&mut ctx);
    }

    #[test]
    fn ascending_and_descending_insertions() {
        let tree = DgtTree::<NbrPlus>::new(SmrConfig::for_tests());
        let mut ctx = tree.smr().register(0);
        for k in 1..=100u64 {
            assert!(tree.insert(&mut ctx, k));
        }
        for k in (101..=200u64).rev() {
            assert!(tree.insert(&mut ctx, k));
        }
        assert_eq!(tree.size(&mut ctx), 200);
        for k in 1..=200u64 {
            assert!(tree.contains(&mut ctx, k));
            assert!(tree.remove(&mut ctx, k));
        }
        assert_eq!(tree.size(&mut ctx), 0);
        tree.smr().unregister(&mut ctx);
    }

    #[test]
    fn traversal_fields_fill_the_first_24_bytes() {
        use std::mem::offset_of;
        assert_eq!(offset_of!(Node, key), 0);
        assert_eq!(offset_of!(Node, left), 8);
        assert_eq!(offset_of!(Node, right), 16);
        assert_eq!(offset_of!(Node, lock), 24);
        assert_eq!(offset_of!(Node, header), 32);
    }

    #[test]
    fn a_leaf_is_a_16_byte_key_and_header() {
        use std::mem::{offset_of, size_of};
        assert_eq!(size_of::<Leaf>(), 16);
        assert_eq!(offset_of!(Leaf, key), 0);
        assert_eq!(offset_of!(Leaf, header), 8);
    }

    /// Walks the quiescent tree and checks the link tags: every link is
    /// either `LEAF` (to a leaf) or 0 (to an internal node), the leaves read
    /// in order are `KEY_MIN`, the set's keys ascending, then `KEY_MAX`, and
    /// every internal node routes its subtrees (left below its key, right at
    /// or above it). A link to a leaf carrying 0 would be read as a 40-byte
    /// `Node` and break the routing check; a link to an internal node
    /// carrying `LEAF` would cut off its subtree's keys. Returns the keys.
    fn walk_checking_tags<S: Smr>(tree: &DgtTree<S>) -> Vec<u64> {
        let max = tree.root.right.load(Ordering::Relaxed);
        assert_eq!(max.tag(), LEAF, "the KEY_MAX sentinel is a leaf");
        // SAFETY: the tree is quiescent and owned by the caller.
        assert_eq!(unsafe { as_leaf(max).deref() }.key, KEY_MAX);
        let mut leaves = Vec::new();
        // (link, keys in its subtree lie in [lo, hi))
        let mut stack = vec![(tree.root.left.load(Ordering::Relaxed), KEY_MIN, KEY_MAX)];
        let mut internal = 0usize;
        while let Some((link, lo, hi)) = stack.pop() {
            assert!(link.tag() == LEAF || link.tag() == 0, "stray tag {link:?}");
            assert!(!link.is_null());
            if is_leaf(link) {
                // SAFETY: the tree is quiescent and owned by the caller.
                let key = unsafe { as_leaf(link).deref() }.key;
                assert!(lo <= key && key < hi, "leaf {key} outside [{lo}, {hi})");
                leaves.push(key);
            } else {
                // SAFETY: as above; an untagged link is an internal node.
                let node = unsafe { link.deref() };
                let key = node.key;
                assert!(lo < key && key < hi, "router {key} outside ({lo}, {hi})");
                assert!(!node.is_removed(), "a reachable node is marked removed");
                internal += 1;
                // Right first, so leaves pop in ascending order.
                stack.push((node.right.load(Ordering::Relaxed), key, hi));
                stack.push((node.left.load(Ordering::Relaxed), lo, key));
            }
        }
        // An external tree: every internal node has two children, so the
        // root's left subtree has one more leaf than internal nodes.
        assert_eq!(leaves.len(), internal + 1);
        assert_eq!(
            leaves.first(),
            Some(&KEY_MIN),
            "the KEY_MIN sentinel is a leaf"
        );
        assert!(leaves.windows(2).all(|w| w[0] < w[1]));
        leaves.remove(0);
        leaves
    }

    /// `threads` threads churn overlapping keys, then the walk checks every
    /// tag and that the leaves hold exactly the keys `contains` reports.
    fn tags_survive_churn<S: Smr + 'static>(threads: usize, seed: u64) {
        use crate::test_support::SplitMix;
        const KEYS: u64 = 64;
        let tree = Arc::new(DgtTree::<S>::new(SmrConfig::for_tests()));
        let workers: Vec<_> = (0..threads)
            .map(|tid| {
                let tree = Arc::clone(&tree);
                std::thread::spawn(move || {
                    let mut ctx = tree.smr().register(tid);
                    let mut rng = SplitMix(seed + tid as u64);
                    for _ in 0..4_000 {
                        let key = 1 + rng.next() % KEYS;
                        if rng.next() % 2 == 0 {
                            tree.insert(&mut ctx, key);
                        } else {
                            tree.remove(&mut ctx, key);
                        }
                    }
                    tree.smr().unregister(&mut ctx);
                })
            })
            .collect();
        for w in workers {
            w.join().unwrap();
        }
        let keys = walk_checking_tags(&tree);
        let mut ctx = tree.smr().register(0);
        let present: Vec<u64> = (1..=KEYS).filter(|&k| tree.contains(&mut ctx, k)).collect();
        assert_eq!(keys, present);
        assert_eq!(tree.size(&mut ctx), keys.len());
        tree.smr().unregister(&mut ctx);
    }

    #[test]
    fn leaf_tags_hold_after_churn_under_nbr_plus() {
        tags_survive_churn::<NbrPlus>(2, 31);
    }

    // HP and IBR churn from one thread. On this tree both are Table 1 "no"
    // pairs, which the schedule explorer turns into a use-after-free; with two
    // threads the same race misplaces keys in about 1-3 % of runs, with or
    // without the leaf tag. One thread still drives their alloc, retire and
    // recycle paths.
    #[test]
    fn leaf_tags_hold_after_churn_under_hp() {
        tags_survive_churn::<HazardPointers>(1, 32);
    }

    #[test]
    fn leaf_tags_hold_after_churn_under_ibr() {
        tags_survive_churn::<Ibr>(1, 33);
    }

    #[test]
    fn model_check_under_nbr_plus() {
        let tree = DgtTree::<NbrPlus>::new(SmrConfig::for_tests());
        model_check(&tree, 5_000, 128, 21);
    }

    #[test]
    fn model_check_under_nbr() {
        let tree = DgtTree::<Nbr>::new(SmrConfig::for_tests());
        model_check(&tree, 5_000, 128, 22);
    }

    #[test]
    fn model_check_under_debra() {
        let tree = DgtTree::<Debra>::new(SmrConfig::for_tests());
        model_check(&tree, 5_000, 128, 23);
    }

    #[test]
    fn model_check_under_qsbr() {
        let tree = DgtTree::<Qsbr>::new(SmrConfig::for_tests());
        model_check(&tree, 5_000, 128, 24);
    }

    #[test]
    fn model_check_under_rcu() {
        let tree = DgtTree::<Rcu>::new(SmrConfig::for_tests());
        model_check(&tree, 5_000, 128, 25);
    }

    #[test]
    fn model_check_under_hp() {
        let tree = DgtTree::<HazardPointers>::new(SmrConfig::for_tests());
        model_check(&tree, 5_000, 128, 26);
    }

    #[test]
    fn model_check_under_ibr() {
        let tree = DgtTree::<Ibr>::new(SmrConfig::for_tests());
        model_check(&tree, 5_000, 128, 27);
    }

    #[test]
    fn concurrent_disjoint_stress_nbr_plus() {
        let tree = Arc::new(DgtTree::<NbrPlus>::new(SmrConfig::for_tests()));
        disjoint_key_stress(tree, 4, 3_000);
    }

    #[test]
    fn concurrent_disjoint_stress_ibr() {
        let tree = Arc::new(DgtTree::<Ibr>::new(SmrConfig::for_tests()));
        disjoint_key_stress(tree, 4, 3_000);
    }

    #[test]
    fn churn_reclaims_memory() {
        let tree = DgtTree::<NbrPlus>::new(SmrConfig::for_tests());
        let mut ctx = tree.smr().register(0);
        for round in 0..200u64 {
            for k in 1..=32u64 {
                tree.insert(&mut ctx, k * 7 + round % 11);
            }
            for k in 1..=32u64 {
                tree.remove(&mut ctx, k * 7 + round % 11);
            }
        }
        tree.smr().flush(&mut ctx);
        let s = tree.smr().thread_stats(&ctx);
        assert!(s.retires > 2_000);
        assert!(s.frees > s.retires / 2);
        tree.smr().unregister(&mut ctx);
    }
}
