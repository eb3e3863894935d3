//! `Traced<S>` must be invisible to the program: same consts, same reclaimer
//! behaviour. A wrapper that forgot to forward one defaulted `Smr` item would
//! measure a different program from the one the end-to-end pass runs (IBR-style
//! `alloc` overrides replaced by the trait default, the memo switched off by a
//! `validation_stamp` that answers `None`).

use conc_ds::{ConcurrentSet, HmHashMap};
use nbr::NbrPlus;
use nbr_benchmark::driver::{self, Family, Hashes, Trees};
use nbr_benchmark::gen::{self, decode, OpKind, Workload};
use nbr_benchmark::traced::{Hook, Instrument, Traced};
use smr_baselines::{Debra, HazardPointers, Leaky};
use smr_common::{Smr, SmrConfig, ThreadStats};

const OPS: usize = 200_000;

fn assert_consts_equal<S: Smr>() {
    assert_eq!(<Traced<S> as Smr>::NAME, S::NAME);
    assert_eq!(<Traced<S> as Smr>::USES_PHASES, S::USES_PHASES);
    assert_eq!(<Traced<S> as Smr>::USES_PROTECTION, S::USES_PROTECTION);
    assert_eq!(
        <Traced<S> as Smr>::CAN_TRAVERSE_UNLINKED,
        S::CAN_TRAVERSE_UNLINKED
    );
}

/// Prefills a fresh structure and replays a fixed ring on it, single-threaded
/// (so every counter is deterministic). Returns the reclaimer's counters, the
/// ops' return values folded into a checksum, and the probe if there is one.
fn replay<F: Family, S: Instrument>(
    w: &Workload,
) -> (ThreadStats, u64, Option<nbr_benchmark::traced::Probe>) {
    let inputs = driver::make_inputs(w, 42);
    let (ds, failed) = driver::build_prefilled::<F, S>(w, &inputs.prefill);
    assert_eq!(failed, 0);
    let smr = ds.smr();
    let mut ctx = smr.register(0);
    let mut checksum = 0u64;
    for (i, &word) in inputs.rings[0][..OPS].iter().enumerate() {
        let (kind, key) = decode(word);
        // Exercise the sampled-op path on the wrapper too: timing a hook
        // must not change what it does.
        let sampled = i % 61 == 0;
        if sampled {
            S::op_begin(&mut ctx);
        }
        let ok = match kind {
            OpKind::Contains => ds.contains(&mut ctx, key),
            OpKind::Insert => ds.insert(&mut ctx, key),
            OpKind::Remove => ds.remove(&mut ctx, key),
        };
        if sampled {
            S::op_end(&mut ctx, kind, 0, 1_000);
        }
        checksum = checksum.rotate_left(1) ^ u64::from(ok);
    }
    smr.flush(&mut ctx);
    let stats = smr.thread_stats(&ctx);
    let probe = S::take_probe(&mut ctx);
    smr.unregister(&mut ctx);
    (stats, checksum, probe)
}

fn assert_transparent<F: Family, S: Instrument>(w: &Workload) {
    assert_consts_equal::<S>();
    let (plain, plain_sum, none) = replay::<F, S>(w);
    let (traced, traced_sum, probe) = replay::<F, Traced<S>>(w);
    assert!(none.is_none());
    assert_eq!(
        plain_sum,
        traced_sum,
        "{} on {}: op results differ",
        S::NAME,
        w.name
    );
    let key = |s: &ThreadStats| {
        (
            s.allocs,
            s.retires,
            s.frees,
            s.reclaim_scans,
            s.pool_hits,
            s.memo_hits,
            s.memo_misses,
            s.epoch_advances,
            s.peak_limbo,
        )
    };
    assert_eq!(
        key(&plain),
        key(&traced),
        "{} on {}: counters differ under the wrapper",
        S::NAME,
        w.name
    );
    assert!(
        plain.allocs > 0 && plain.retires > 0,
        "the replay must exercise the lifecycle"
    );

    // The wrapper saw what the scheme counted.
    let probe = probe.expect("Traced hands out its probe");
    let calls = |h: Hook| probe.calls[h as usize];
    assert_eq!(calls(Hook::Retire), traced.retires);
    assert_eq!(
        calls(Hook::Alloc) - calls(Hook::DeallocUnpublished),
        traced.allocs
    );
    assert_eq!(calls(Hook::BeginOp), OPS as u64);
    assert_eq!(calls(Hook::EndOp), OPS as u64);
    assert!(calls(Hook::Protect) >= OPS as u64);
    let sampled: u64 = probe.outside_ns.iter().map(|h| h.count()).sum();
    assert_eq!(sampled, (OPS as u64).div_ceil(61));
    // Per-hop hooks are counted into the sampled ops, never timed.
    let hops: u64 = probe.sampled_hops.iter().sum();
    assert!(hops >= sampled && hops < calls(Hook::Protect));
}

#[test]
fn traced_is_transparent_on_the_tree_for_the_panel_and_none() {
    let w = gen::workload("tree_update").unwrap();
    assert_transparent::<Trees, NbrPlus>(w);
    assert_transparent::<Trees, Debra>(w);
    assert_transparent::<Trees, HazardPointers>(w);
    assert_transparent::<Trees, Leaky>(w);
}

#[test]
fn traced_is_transparent_on_the_hash_map_where_the_memo_engages() {
    let w = gen::workload("hash_zipf").unwrap();
    assert_transparent::<Hashes, NbrPlus>(w);
    assert_transparent::<Hashes, Debra>(w);
    assert_transparent::<Hashes, HazardPointers>(w);
    assert_transparent::<Hashes, Leaky>(w);
    // The forwarded `validation_stamp` is what keeps the memo alive under
    // the wrapper: DEBRA must hit, NBR+ must not.
    assert!(replay::<Hashes, Traced<Debra>>(w).0.memo_hits > 0);
    assert_eq!(replay::<Hashes, Traced<NbrPlus>>(w).0.memo_hits, 0);
}

#[test]
fn traced_forwards_the_items_no_structure_calls_on_every_path() {
    // `global_era`, `magazine_mut`, `config` and `limbo_len` are only reached
    // through default methods or the driver: check them directly.
    let map = HmHashMap::<Traced<Debra>>::with_buckets(SmrConfig::default(), 64);
    let plain = HmHashMap::<Debra>::with_buckets(SmrConfig::default(), 64);
    let (t, p) = (map.smr(), plain.smr());
    let (mut tc, mut pc) = (t.register(0), p.register(0));
    assert_eq!(t.global_era(), p.global_era());
    assert_eq!(t.config().hi_watermark, p.config().hi_watermark);
    assert_eq!(
        t.magazine_mut(&mut tc).is_some(),
        p.magazine_mut(&mut pc).is_some()
    );
    for k in 1..=300 {
        assert_eq!(map.insert(&mut tc, k), plain.insert(&mut pc, k));
    }
    for k in 1..=300 {
        assert_eq!(map.remove(&mut tc, k), plain.remove(&mut pc, k));
    }
    assert_eq!(t.limbo_len(&tc), p.limbo_len(&pc));
    assert!(t.limbo_len(&tc) > 0);
    t.flush(&mut tc);
    p.flush(&mut pc);
    assert_eq!(t.limbo_len(&tc), p.limbo_len(&pc));
    assert_eq!(t.validation_stamp(&mut tc), p.validation_stamp(&mut pc));
    t.unregister(&mut tc);
    p.unregister(&mut pc);
}
