//! Deterministic forced-interleaving reproducers for the marked-chain
//! traversal races of the interval reclaimers (DESIGN.md, "Traversals
//! through unlinked records under the interval reclaimers").
//!
//! The interleaving below is the Harris-list scenario distilled to its four
//! checkpoints, driven from **one** test thread through two registered
//! contexts, so every step lands exactly where the race needs it (the same
//! spirit as `recycle_aba.rs`'s forced address reuse — no timing, no luck):
//!
//! ```text
//! traverser R                      writer W
//! -----------                      --------
//! protect(A)  @ era e1
//!                                  insert B after A      (birth b > e1)
//!                                  mark A, mark B
//!                                  batch-unlink A→B, retire A then B
//!                                  (churn: era advances past B's retire r)
//! read A.next → B  @ era e2        -- A.next is frozen by A's mark, so the
//! (validated protect)                 hop lands on the unlinked B; e2 > r
//!                                  scan
//! deref B                          -- safe only if the scan kept B
//! ```
//!
//! B's lifetime `[b, r]` lies **strictly between** R's two announced eras:
//! `e1 < b ≤ r < e2`. A reclaimer that pins the *contiguous interval*
//! between its announced bounds (IBR) keeps B: `[e1, e2] ⊇ [b, r]`. One that
//! checks announced eras as *points* (hazard eras and WFE, the published HE
//! rule) covers B with neither era and frees it while R holds a validated
//! pointer. `ibr_marked_chain_traversal_pins_the_unlinked_chain` and the
//! `…_hop_then_scan_frees_the_frozen_successor` tests run this order, 1 000
//! seeded era paddings each, and assert each scheme's outcome; under HE and
//! WFE, B is never dereferenced.
//!
//! Moving W's scan to just *before* R's hop breaks every rule: R's
//! announcement is still `[e1, e1]` when the scan reads it, B is freed, and
//! the validated hop through A's frozen `next` still returns B's address.
//! The `…_scan_before_hop_frees_the_frozen_successor` tests assert exactly
//! that (never dereferencing B). That order is why IBR keeps
//! `CAN_TRAVERSE_UNLINKED = false`, and both orders are why HE and WFE do:
//! the Harris list restarts instead of making this hop under them.
//!
//! The writer-side steps use only public `Smr` API calls, and the traverser
//! side issues the exact `protect` sequence the Harris list's `search` emits.

use smr_baselines::{HazardEras, Ibr, Wfe};
use smr_common::{Atomic, NodeHeader, Smr, SmrConfig};
use std::sync::atomic::Ordering;

/// Mark bit, exactly as the Harris list uses it on `next` pointers.
const MARK: usize = 1;

struct Node {
    header: NodeHeader,
    key: u64,
    next: Atomic<Node>,
}
smr_common::impl_smr_node!(Node);

fn node(key: u64) -> Node {
    Node {
        header: NodeHeader::new(),
        key,
        next: Atomic::null(),
    }
}

/// Advance the global era by `n` steps without touching the limbo bag
/// (`epoch_freq = 1` makes every allocation an era advance; the block is
/// immediately taken back as never-published).
fn advance_era<S: Smr>(smr: &S, ctx: &mut S::ThreadCtx, n: u64) {
    for i in 0..n.max(1) {
        let p = smr.alloc(ctx, node(1_000 + i));
        // SAFETY: allocated above, never published.
        unsafe { smr.dealloc_unpublished(ctx, p) };
    }
}

/// Config that never scans on its own: the test chooses the scan point.
fn quiet_config() -> SmrConfig {
    SmrConfig::for_tests()
        .with_epoch_freq(1)
        .with_watermarks(1 << 20, 8)
        .with_scan_heartbeat_ops(0)
}

/// Where W's scan falls relative to R's hop through A, and what the
/// scheme's sweep must then keep.
#[derive(Clone, Copy)]
enum Order {
    /// The scan runs just before the hop: R's announcement still ends at
    /// e1 < birth(B), so every sweep frees B, and the hop that follows still
    /// returns B's address because A's `next` is frozen. Nothing R can
    /// announce after loading a pointer protects a record freed before the
    /// load; B is never dereferenced.
    ScanBeforeHop,
    /// The hop, then the scan. `pins_gap` says whether the sweep covers a
    /// lifetime lying strictly between R's two eras: IBR's interval does,
    /// HE's and WFE's points do not.
    HopThenScan { pins_gap: bool },
}

/// One forced interleaving. `pad` varies the era distances between the four
/// checkpoints (seeded by the caller); the gap shape `e1 < birth ≤ retire
/// < e2` holds for every positive padding, so each iteration is the same
/// race with differently spaced eras.
///
/// `order` places W's scan relative to R's hop through A (see [`Order`]).
fn run_interleaving<S: Smr>(smr: &S, pad: [u64; 3], order: Order) {
    let mut w = smr.register(0);
    let mut r = smr.register(1);

    // W: head → A → tail.
    let tail = smr.alloc(&mut w, node(u64::MAX));
    let a = smr.alloc(&mut w, node(10));
    unsafe { a.deref() }.next.store(tail, Ordering::Release);
    let head = Atomic::new(a);

    // R: begin an operation and protect A, announcing era e1 (slot 0) — the
    // Harris list's first hop.
    smr.begin_op(&mut r);
    let ra = smr.protect(&mut r, 0, &head);
    assert_eq!(ra.untagged_usize(), a.untagged_usize());
    assert_eq!(unsafe { ra.deref().key }, 10);

    // W: era moves on, then B is inserted *after* R's announcement, so B's
    // birth era is strictly greater than e1.
    advance_era(smr, &mut w, pad[0]);
    let b = smr.alloc(&mut w, node(20));
    unsafe { b.deref() }.next.store(tail, Ordering::Release);
    unsafe { a.deref() }.next.store(b, Ordering::Release);
    advance_era(smr, &mut w, pad[1]);

    // W: logically delete B then A (mark = freeze their next pointers), then
    // batch-unlink the whole chain with one store on head (the Harris
    // phase-3 CAS) and retire it in chain order: A first, then B.
    unsafe { b.deref() }
        .next
        .store(tail.with_tag(MARK), Ordering::Release);
    unsafe { a.deref() }
        .next
        .store(b.with_tag(MARK), Ordering::Release);
    head.store(tail, Ordering::Release);
    unsafe { smr.retire(&mut w, a) };
    unsafe { smr.retire(&mut w, b) };

    // W: era keeps moving, so B's whole lifetime is now in the past.
    advance_era(smr, &mut w, pad[2]);

    match order {
        Order::ScanBeforeHop => {
            // W: the scan runs while R's announcement still ends at
            // e1 < birth(B).
            smr.flush(&mut w);
            assert_eq!(smr.limbo_len(&w), 1, "B freed, A kept by R's era e1");
            // R: the validated hop through A's frozen `next` still yields B.
            let rb = smr.protect(&mut r, 1, unsafe { &ra.deref().next });
            assert_eq!(rb.untagged_usize(), b.untagged_usize());
        }
        Order::HopThenScan { pins_gap } => {
            // R: the traversal hops through the *unlinked* A. A's next is
            // frozen by the mark, so the validated protect returns B — at an
            // era strictly greater than B's retire era.
            let rb = smr.protect(&mut r, 1, unsafe { &ra.deref().next });
            assert_eq!(rb.untagged_usize(), b.untagged_usize());

            // W: reclamation scan. R's announced eras are e1 (covering A)
            // and e2 > retire(B); only the interval [e1, e2] covers B.
            smr.flush(&mut w);
            if pins_gap {
                assert_eq!(
                    smr.limbo_len(&w),
                    2,
                    "both chain records must survive the scan while the \
                     traverser's announced interval spans their lifetimes"
                );
                // The deref the Harris list would do next. If B had been
                // freed, the recycling magazine re-issues its block to the
                // next allocation (LIFO), so a stale key here is the
                // use-after-free made visible.
                assert_eq!(unsafe { rb.with_tag(0).deref().key }, 20);
            } else {
                // B is not dereferenced: it is freed, and the Harris list
                // never makes this hop under a point sweep.
                assert_eq!(
                    smr.limbo_len(&w),
                    1,
                    "neither announced era lies in B's lifetime, so the point \
                     sweep frees B and keeps only A (pinned by e1)"
                );
            }
        }
    }

    // Wind down: once R lets go, the chain must be reclaimable.
    smr.clear_protections(&mut r);
    smr.end_op(&mut r);
    smr.flush(&mut w);
    assert_eq!(smr.limbo_len(&w), 0, "released chain must be freed");
    unsafe { smr.retire(&mut w, tail) };
    smr.flush(&mut w);
    smr.unregister(&mut r);
    smr.unregister(&mut w);
}

fn seeded_paddings(iterations: u64) -> impl Iterator<Item = [u64; 3]> {
    let mut state = 0x5EED_CAFE_F00D_u64;
    (0..iterations).map(move |_| {
        let mut next = || {
            // SplitMix64 step — deterministic, dependency-free.
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        [1 + next() % 7, 1 + next() % 7, 1 + next() % 7]
    })
}

/// The hop, then the scan, under hazard eras: the point sweep frees B, whose
/// lifetime lies between R's two eras, and keeps A.
#[test]
fn hazard_eras_hop_then_scan_frees_the_frozen_successor() {
    for pad in seeded_paddings(1_000) {
        let smr = HazardEras::new(quiet_config());
        run_interleaving(&smr, pad, Order::HopThenScan { pins_gap: false });
    }
}

/// The same order under WFE, which shares HE's point sweep.
#[test]
fn wfe_hop_then_scan_frees_the_frozen_successor() {
    for pad in seeded_paddings(1_000) {
        let smr = Wfe::new(quiet_config());
        run_interleaving(&smr, pad, Order::HopThenScan { pins_gap: false });
    }
}

/// The same interleaving under IBR: the announced `[lower, upper]` interval
/// is contiguous by construction, so it spans B's lifetime and keeps the
/// whole chain.
#[test]
fn ibr_marked_chain_traversal_pins_the_unlinked_chain() {
    for pad in seeded_paddings(1_000) {
        let smr = Ibr::new(quiet_config());
        run_interleaving(&smr, pad, Order::HopThenScan { pins_gap: true });
    }
}

/// The scan-before-hop order under hazard eras: the validated protect
/// returns B's address after B was freed.
#[test]
fn hazard_eras_scan_before_hop_frees_the_frozen_successor() {
    for pad in seeded_paddings(100) {
        let smr = HazardEras::new(quiet_config());
        run_interleaving(&smr, pad, Order::ScanBeforeHop);
    }
}

/// The same scan-before-hop order under WFE.
#[test]
fn wfe_scan_before_hop_frees_the_frozen_successor() {
    for pad in seeded_paddings(100) {
        let smr = Wfe::new(quiet_config());
        run_interleaving(&smr, pad, Order::ScanBeforeHop);
    }
}

/// The same scan-before-hop order under IBR: the contiguous interval
/// `[e1, e1]` announced before the hop does not reach B's birth.
#[test]
fn ibr_scan_before_hop_frees_the_frozen_successor() {
    for pad in seeded_paddings(100) {
        let smr = Ibr::new(quiet_config());
        run_interleaving(&smr, pad, Order::ScanBeforeHop);
    }
}
