//! Recycling safety: address reuse is the ABA case the birth-era header
//! exists for.
//!
//! A block enters the pool only after the owning scheme's scan proved the
//! old record unreserved, so no thread holds a *protected* pointer to the
//! address when it is re-issued. What recycling must preserve is the
//! interval-based schemes' story about the *new* incarnation: the reused
//! block's `NodeHeader` birth era must be re-stamped with the current global
//! era by `Smr::alloc` before publication. These tests force an address to
//! be recycled under HE and IBR and assert (a) the re-stamp happened and
//! (b) a reader protecting the new incarnation pins it across scans exactly
//! like a fresh allocation.

use smr_baselines::{HazardEras, Ibr};
use smr_common::{Atomic, NodeHeader, Shared, Smr, SmrConfig, SmrNode};
use smr_harness::families::HarrisListFamily;
use smr_harness::{run_with, SmrKind, StopCondition, WorkloadMix, WorkloadSpec};
use std::sync::atomic::Ordering;

struct Node {
    header: NodeHeader,
    key: u64,
}
smr_common::impl_smr_node!(Node);

fn node(key: u64) -> Node {
    Node {
        header: NodeHeader::new(),
        key,
    }
}

/// Allocate → retire → flush until `Smr::alloc` hands an address back out
/// again, then return that (recycled) allocation.
fn force_reuse<S: Smr>(smr: &S, ctx: &mut S::ThreadCtx, mk: impl Fn(u64) -> Node) -> Shared<Node> {
    let first = smr.alloc(ctx, mk(1));
    let addr = first.untagged_usize();
    // SAFETY: never published; retire-as-unlinked is the single-owner case.
    unsafe { smr.retire(ctx, first) };
    smr.flush(ctx);
    for round in 0..1_000u64 {
        let p = smr.alloc(ctx, mk(100 + round));
        if p.untagged_usize() == addr {
            return p;
        }
        unsafe { smr.retire(ctx, p) };
        smr.flush(ctx);
    }
    panic!("block was never recycled — is the pool enabled?");
}

#[test]
fn hazard_eras_restamps_birth_era_on_reuse() {
    let smr = HazardEras::new(SmrConfig::for_tests().with_epoch_freq(1));
    let mut ctx = smr.register(0);
    // Churn so the era has advanced well past the first allocation's birth.
    for i in 0..64 {
        let p = smr.alloc(&mut ctx, node(i));
        unsafe { smr.retire(&mut ctx, p) };
    }
    smr.flush(&mut ctx);
    let era_before = smr.global_era();
    let reused = force_reuse(&smr, &mut ctx, node);
    let stamped = unsafe { reused.deref().header().birth_era() };
    assert!(
        stamped >= era_before,
        "recycled block must carry a fresh birth era (got {stamped}, era was {era_before}) — \
         a stale era would misdate the new incarnation's lifetime"
    );
    unsafe { smr.retire(&mut ctx, reused) };
    smr.unregister(&mut ctx);
}

#[test]
fn ibr_restamps_birth_era_on_reuse() {
    let smr = Ibr::new(SmrConfig::for_tests().with_epoch_freq(1));
    let mut ctx = smr.register(0);
    for i in 0..64 {
        smr.begin_op(&mut ctx);
        let p = smr.alloc(&mut ctx, node(i));
        unsafe { smr.retire(&mut ctx, p) };
        smr.end_op(&mut ctx);
    }
    smr.flush(&mut ctx);
    let era_before = smr.global_era();
    let reused = force_reuse(&smr, &mut ctx, node);
    let stamped = unsafe { reused.deref().header().birth_era() };
    assert!(stamped >= era_before, "got {stamped}, era was {era_before}");
    unsafe { smr.retire(&mut ctx, reused) };
    smr.unregister(&mut ctx);
}

/// The end-to-end regression: a *recycled* record protected by a reader must
/// survive the owner's scans exactly like a fresh one — the re-stamped birth
/// era puts the reader's announced era inside the record's lifetime.
#[test]
fn hazard_eras_does_not_free_protected_recycled_record_early() {
    let smr = HazardEras::new(SmrConfig::for_tests().with_epoch_freq(1));
    let mut owner = smr.register(0);
    let mut reader = smr.register(1);

    let reused = force_reuse(&smr, &mut owner, node);
    let reused_addr = reused.untagged_usize();
    let reused_key = unsafe { reused.deref().key };
    let shared = Atomic::<Node>::null();
    shared.store(reused, Ordering::Release);

    // Reader announces an era covering the recycled record's (new) lifetime.
    let p = smr.protect(&mut reader, 0, &shared);
    assert_eq!(p.untagged_usize(), reused_addr);
    assert_eq!(unsafe { p.deref().key }, reused_key);

    // Owner unlinks + retires the recycled record and churns hard.
    let old = shared.swap(Shared::null(), Ordering::AcqRel);
    unsafe { smr.retire(&mut owner, old) };
    for i in 0..200 {
        let f = smr.alloc(&mut owner, node(i));
        unsafe { smr.retire(&mut owner, f) };
    }
    smr.flush(&mut owner);

    // Still protected: the recycled record must not have been freed (a free
    // would recycle the block and the key would be overwritten by the churn
    // allocations above — or ASAN would flag the read).
    assert_eq!(unsafe { p.deref().key }, reused_key);
    assert!(
        smr.limbo_len(&owner) >= 1,
        "protected record must stay in limbo"
    );

    smr.clear_protections(&mut reader);
    smr.flush(&mut owner);
    assert_eq!(smr.limbo_len(&owner), 0, "released record must be freed");

    smr.unregister(&mut reader);
    smr.unregister(&mut owner);
}

/// Marked-chain traversal composed with recycling: a traverser that follows a
/// frozen marked pointer out of an unlinked record must never land on a
/// *recycled* block. The argument (DESIGN.md, "Traversals through unlinked
/// records under the interval reclaimers") has two halves, and this test
/// pins both:
///
/// 1. While a traverser's announced interval overlaps the chain records'
///    lifetimes, no scan frees them — so no re-stamp can have happened and
///    the frozen pointer still leads to the original record.
/// 2. Once the traverser lets go and the successor block *is* recycled, its
///    re-stamped birth era is strictly later than the old incarnation's
///    retire era (`Smr::alloc` stamps after the magazine pop, which
///    happens-after the free), so the old lifetime interval and the new one
///    never overlap — an interval that pins the old incarnation can never be
///    mistaken for a claim on the new one, and vice versa.
#[test]
fn ibr_marked_chain_successor_recycle_keeps_intervals_disjoint() {
    struct ChainNode {
        header: NodeHeader,
        key: u64,
        next: Atomic<ChainNode>,
    }
    smr_common::impl_smr_node!(ChainNode);
    fn chain_node(key: u64) -> ChainNode {
        ChainNode {
            header: NodeHeader::new(),
            key,
            next: Atomic::null(),
        }
    }
    const MARK: usize = 1;

    // Quiet config: the test chooses every scan point; epoch_freq = 1 makes
    // each allocation advance the era.
    let smr = Ibr::new(
        SmrConfig::for_tests()
            .with_epoch_freq(1)
            .with_watermarks(1 << 20, 8)
            .with_scan_heartbeat_ops(0),
    );
    let mut w = smr.register(0);
    let mut r = smr.register(1);

    // W: head → A → B → tail.
    let tail = smr.alloc(&mut w, chain_node(u64::MAX));
    let b = smr.alloc(&mut w, chain_node(20));
    unsafe { b.deref() }.next.store(tail, Ordering::Release);
    let a = smr.alloc(&mut w, chain_node(10));
    unsafe { a.deref() }.next.store(b, Ordering::Release);
    let head = Atomic::new(a);

    // R: protect A inside an operation (the traverser parks here).
    smr.begin_op(&mut r);
    let ra = smr.protect(&mut r, 0, &head);
    assert_eq!(ra.untagged_usize(), a.untagged_usize());

    // W: delete the whole chain — mark B, mark A (freezing their next
    // pointers), batch-unlink, retire in chain order.
    unsafe { b.deref() }
        .next
        .store(tail.with_tag(MARK), Ordering::Release);
    unsafe { a.deref() }
        .next
        .store(b.with_tag(MARK), Ordering::Release);
    head.store(tail, Ordering::Release);
    unsafe { smr.retire(&mut w, a) };
    unsafe { smr.retire(&mut w, b) };
    let era_retired = smr.global_era();

    // Half 1: R's interval overlaps the chain lifetimes, so W's scan must
    // not free (and therefore cannot recycle) either record, even though R
    // has only announced protection for A so far.
    smr.flush(&mut w);
    assert_eq!(
        smr.limbo_len(&w),
        2,
        "no chain record may be freed (= recycled) while the traverser's \
         interval overlaps its lifetime"
    );
    // R: the traversal hop through unlinked A lands on the original B.
    let rb = smr.protect(&mut r, 1, unsafe { &ra.deref().next });
    assert_eq!(rb.untagged_usize(), b.untagged_usize());
    assert_eq!(unsafe { rb.with_tag(0).deref().key }, 20);

    // R lets go; now the chain is reclaimable and the blocks enter the
    // thread-local magazine (LIFO: B's block is re-issued first).
    smr.clear_protections(&mut r);
    smr.end_op(&mut r);
    smr.flush(&mut w);
    assert_eq!(smr.limbo_len(&w), 0);

    // Half 2: force B's block back out of the pool and check the re-stamp.
    let mut reused = None;
    for round in 0..1_000u64 {
        let p = smr.alloc(&mut w, chain_node(500 + round));
        if p.untagged_usize() == b.untagged_usize() {
            reused = Some(p);
            break;
        }
        unsafe { smr.retire(&mut w, p) };
        smr.flush(&mut w);
    }
    let reused = reused.expect("B's block must be recycled — is the pool enabled?");
    let stamped = unsafe { reused.deref().header().birth_era() };
    assert!(
        stamped > era_retired,
        "the recycled successor's re-stamped birth era ({stamped}) must be \
         strictly later than the old incarnation's retire era (≤ {era_retired}): \
         the old interval and the new one must never overlap"
    );
    unsafe { smr.retire(&mut w, reused) };
    unsafe { smr.retire(&mut w, tail) };
    smr.flush(&mut w);
    smr.unregister(&mut r);
    smr.unregister(&mut w);
}

/// `SmrConfig::recycle` off reproduces the pre-pool behaviour: a full driver
/// trial runs green with the pool bypassed and reports zero pool traffic,
/// while the same trial with recycling reports the pool doing the work.
#[test]
fn no_recycle_bypasses_the_pool_end_to_end() {
    let spec = WorkloadSpec::new(
        WorkloadMix::UPDATE_HEAVY,
        128,
        2,
        StopCondition::TotalOps(20_000),
    )
    .with_prefill(64);
    let base = SmrConfig::default()
        .with_max_threads(8)
        .with_watermarks(128, 32);

    for &kind in &[SmrKind::NbrPlus, SmrKind::Debra, SmrKind::He] {
        let off = run_with::<HarrisListFamily>(kind, &spec, base.clone().with_recycle(false));
        assert_eq!(
            off.smr_totals.pool_hits, 0,
            "{kind:?}: bypass must not pool"
        );
        assert_eq!(off.smr_totals.pool_recycled, 0);
        assert!(
            off.smr_totals.frees > 0,
            "{kind:?}: bypass must still reclaim"
        );

        let on = run_with::<HarrisListFamily>(kind, &spec, base.clone());
        assert!(
            on.smr_totals.pool_recycled > 0,
            "{kind:?}: recycling run must return blocks to the pool"
        );
        assert!(
            on.smr_totals.pool_hits > 0,
            "{kind:?}: recycling run must serve allocations from the pool"
        );
    }
}
