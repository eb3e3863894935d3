//! The reclaim pipeline's accounting rules (`smr_common::reclaim`, "The
//! pipeline's rules"), asserted through the public `Smr` API of every scheme
//! in the registry — twelve hand-copied pipelines had each drifted on one of
//! them (DESIGN.md, "The reclaim pipeline", lists who):
//!
//! * `scans_counted_<scheme>` — every scan that enters its sweep counts one
//!   `reclaim_scans`, and one that frees something is no skip.
//! * `skip_means_nothing_freed_<scheme>` — a skip is a scan that freed
//!   nothing from a non-empty bag, whether a ping round was conceded or the
//!   bag was fully protected. A conceded ping round counts one
//!   `ping_concessions`, a completed one none, and only the four schemes
//!   that ping count any.
//!
//! The leaky scheme never scans; its rows assert exactly that.

use nbr::{Nbr, NbrPlus};
use smr_baselines::Leaky;
use smr_common::{Atomic, NodeHeader, Shared, Smr, SmrConfig};
use smr_pop::{EpochPop, HpPop};
use std::sync::atomic::Ordering;

struct Node {
    header: NodeHeader,
    #[allow(dead_code)]
    key: u64,
}
smr_common::impl_smr_node!(Node);

fn node(key: u64) -> Node {
    Node {
        header: NodeHeader::new(),
        key,
    }
}

/// One operation that allocates a record and retires it straight away.
fn op_with_retire<S: Smr>(smr: &S, ctx: &mut S::ThreadCtx, key: u64) {
    smr.begin_op(ctx);
    smr.begin_read_phase(ctx);
    smr.end_read_phase(ctx, &[]);
    let p = smr.alloc(ctx, node(key));
    // SAFETY: never published, retired exactly once.
    unsafe { smr.retire(ctx, p) };
    smr.clear_protections(ctx);
    smr.end_op(ctx);
}

fn leaky<S: Smr>() -> bool {
    S::NAME == Leaky::NAME
}

/// The schemes whose scans run `ReclaimCore::ping_round`.
fn pings<S: Smr>() -> bool {
    [Nbr::NAME, NbrPlus::NAME, EpochPop::NAME, HpPop::NAME].contains(&S::NAME)
}

fn scans_counted<S: Smr>() {
    let smr = S::new(SmrConfig::for_tests());
    let mut ctx = smr.register(0);
    for key in 0..2_000 {
        op_with_retire(&smr, &mut ctx, key);
    }
    smr.flush(&mut ctx);
    let stats = smr.thread_stats(&ctx);
    if leaky::<S>() {
        assert_eq!((stats.reclaim_scans, stats.frees), (0, 0));
    } else {
        assert!(stats.frees > 0, "{}: nothing freed", S::NAME);
        assert!(stats.reclaim_scans > 0, "{}: no scan counted", S::NAME);
        assert!(
            stats.reclaim_skips < stats.reclaim_scans,
            "{}: a scan that freed something counted as a skip",
            S::NAME
        );
    }
    smr.unregister(&mut ctx);
}

fn skip_means_nothing_freed<S: Smr>() {
    // A short ack window: the parked reader below never polls, so every
    // ping-based scan concedes its round.
    let mut config = SmrConfig::for_tests().with_scan_heartbeat_ops(0);
    config.ack_spin_limit = 64;
    let smr = S::new(config);
    let mut worker = smr.register(0);
    let mut reader = smr.register(1);

    let shared = Atomic::<Node>::null();
    smr.begin_op(&mut worker);
    let record = smr.alloc(&mut worker, node(7));
    shared.store(record, Ordering::Release);
    smr.end_op(&mut worker);

    // The reader parks inside an operation, holding the record every way a
    // scheme can ask for: an open operation, an open read phase, a
    // protected (and checkpointed) load.
    smr.begin_op(&mut reader);
    smr.begin_read_phase(&mut reader);
    let held = smr.protect(&mut reader, 0, &shared);
    assert!(held.ptr_eq(record));
    assert!(!smr.checkpoint(&mut reader));

    smr.begin_op(&mut worker);
    let unlinked = shared.swap(Shared::null(), Ordering::AcqRel);
    // SAFETY: unlinked above, retired exactly once.
    unsafe { smr.retire(&mut worker, unlinked) };
    smr.end_op(&mut worker);
    smr.flush(&mut worker);

    let pinned = smr.thread_stats(&worker);
    if leaky::<S>() {
        assert_eq!((pinned.reclaim_scans, pinned.reclaim_skips), (0, 0));
    } else {
        assert_eq!(pinned.frees, 0, "{}: freed a held record", S::NAME);
        assert_eq!(smr.limbo_len(&worker), 1);
        assert!(pinned.reclaim_scans >= 1, "{}: flush did not scan", S::NAME);
        assert_eq!(
            pinned.reclaim_skips,
            pinned.reclaim_scans,
            "{}: every scan of the pinned bag is a skip (conceded or protected alike)",
            S::NAME
        );
    }
    if pings::<S>() {
        assert!(
            pinned.ping_concessions >= 1,
            "{}: the silent reader conceded no round",
            S::NAME
        );
        assert!(
            pinned.ping_concessions <= pinned.reclaim_skips,
            "{}: a conceded round that was not a skip",
            S::NAME
        );
    } else {
        assert_eq!(pinned.ping_concessions, 0, "{}: never pings", S::NAME);
    }

    // The reader leaves; the next scan frees the record and is no skip.
    smr.clear_protections(&mut reader);
    smr.end_op(&mut reader);
    smr.unregister(&mut reader);
    smr.flush(&mut worker);
    let released = smr.thread_stats(&worker);
    if !leaky::<S>() {
        assert_eq!(released.frees, 1, "{}: record not freed", S::NAME);
        assert_eq!(smr.limbo_len(&worker), 0);
        assert!(released.reclaim_scans > pinned.reclaim_scans);
        assert_eq!(
            released.reclaim_skips,
            pinned.reclaim_skips,
            "{}: a scan that freed something is not a skip",
            S::NAME
        );
        assert_eq!(
            released.ping_concessions,
            pinned.ping_concessions,
            "{}: a completed round conceded",
            S::NAME
        );
    }
    smr.unregister(&mut worker);
}

macro_rules! rules {
    ($({ $variant:ident, $snake:ident, $smr:ty, $($rest:tt)* })*) => {
        paste::paste! {
            $(
                #[test]
                fn [<scans_counted_ $snake>]() {
                    scans_counted::<$smr>();
                }

                #[test]
                fn [<skip_means_nothing_freed_ $snake>]() {
                    skip_means_nothing_freed::<$smr>();
                }
            )*
        }
    };
}
smr_harness::for_each_scheme!(rules);
