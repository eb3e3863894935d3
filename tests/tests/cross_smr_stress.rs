//! Cross-crate stress tests: every data structure × representative reclaimers,
//! exercising the public API exactly as a downstream user would.

use conc_ds::{AbTree, DgtTree, HarrisList, HmHashMap, HmList, LazyList};
use integration_tests::{chain_unlink_stress, contended_stress, disjoint_stress, model_check};
use nbr::{Nbr, NbrPlus};
use smr_baselines::{Debra, HazardEras, HazardPointers, Ibr};
use smr_common::SmrConfig;
use smr_pop::{EpochPop, HpPop};
use std::sync::Arc;

fn cfg() -> SmrConfig {
    SmrConfig::default()
        .with_max_threads(16)
        .with_watermarks(128, 32)
}

// ---------------------------------------------------------------------------
// Model checks through the public API (one per structure × a couple of SMRs).
// ---------------------------------------------------------------------------

#[test]
fn model_lazy_list_nbr_plus() {
    model_check(&LazyList::<NbrPlus>::new(cfg()), 3_000, 96, 7);
}

#[test]
fn model_harris_list_nbr() {
    model_check(&HarrisList::<Nbr>::new(cfg()), 3_000, 96, 8);
}

#[test]
fn model_hm_list_debra() {
    model_check(&HmList::<Debra>::new(cfg()), 3_000, 96, 9);
}

#[test]
fn model_dgt_tree_hp() {
    model_check(&DgtTree::<HazardPointers>::new(cfg()), 3_000, 256, 10);
}

#[test]
fn model_ab_tree_ibr() {
    model_check(&AbTree::<Ibr>::new(cfg()), 3_000, 1024, 11);
}

// ---------------------------------------------------------------------------
// Concurrent disjoint-key stress (checkable return values).
// ---------------------------------------------------------------------------

#[test]
fn disjoint_lazy_list_nbr_plus() {
    disjoint_stress(Arc::new(LazyList::<NbrPlus>::new(cfg())), 4, 2_500, 400);
}

#[test]
fn disjoint_harris_list_hp() {
    disjoint_stress(
        Arc::new(HarrisList::<HazardPointers>::new(cfg())),
        4,
        2_500,
        400,
    );
}

#[test]
fn disjoint_dgt_tree_nbr() {
    disjoint_stress(Arc::new(DgtTree::<Nbr>::new(cfg())), 4, 2_500, 2_000);
}

#[test]
fn disjoint_ab_tree_nbr_plus() {
    disjoint_stress(Arc::new(AbTree::<NbrPlus>::new(cfg())), 4, 2_500, 2_000);
}

#[test]
fn disjoint_hm_list_debra() {
    disjoint_stress(Arc::new(HmList::<Debra>::new(cfg())), 4, 2_500, 400);
}

// ---------------------------------------------------------------------------
// Maximum-contention stress (all threads share a tiny key range), which is
// where reclamation races are most likely to surface as crashes or
// inconsistencies.
// ---------------------------------------------------------------------------

#[test]
fn contended_lazy_list_nbr_plus() {
    contended_stress(Arc::new(LazyList::<NbrPlus>::new(cfg())), 4, 4_000, 32);
}

#[test]
fn contended_harris_list_nbr_plus() {
    contended_stress(Arc::new(HarrisList::<NbrPlus>::new(cfg())), 4, 4_000, 32);
}

#[test]
fn contended_harris_list_ibr() {
    contended_stress(Arc::new(HarrisList::<Ibr>::new(cfg())), 4, 4_000, 32);
}

#[test]
fn contended_harris_list_he() {
    contended_stress(Arc::new(HarrisList::<HazardEras>::new(cfg())), 4, 4_000, 32);
}

// ---------------------------------------------------------------------------
// Marked-chain regression at high oversubscription: the scheduling that
// originally surfaced the interval-reclaimer traversal race (8 threads on a
// 2-core CI box) hammering the Harris list under IBR and HE, which take the
// Harris-Michael fallback (`CAN_TRAVERSE_UNLINKED = false`). The
// deterministic reproducers live in `marked_chain_race.rs`; these are the
// probabilistic canaries on top of them.
// ---------------------------------------------------------------------------

#[test]
fn oversubscribed_chain_unlink_harris_list_ibr() {
    chain_unlink_stress(Arc::new(HarrisList::<Ibr>::new(cfg())), 8, 150, 4, 8);
}

#[test]
fn oversubscribed_chain_unlink_harris_list_he() {
    chain_unlink_stress(Arc::new(HarrisList::<HazardEras>::new(cfg())), 8, 150, 4, 8);
}

#[test]
fn contended_dgt_tree_nbr_plus() {
    contended_stress(Arc::new(DgtTree::<NbrPlus>::new(cfg())), 4, 4_000, 64);
}

#[test]
fn contended_dgt_tree_debra() {
    contended_stress(Arc::new(DgtTree::<Debra>::new(cfg())), 4, 4_000, 64);
}

#[test]
fn contended_ab_tree_nbr() {
    contended_stress(Arc::new(AbTree::<Nbr>::new(cfg())), 4, 4_000, 64);
}

#[test]
fn contended_hm_list_hp() {
    contended_stress(Arc::new(HmList::<HazardPointers>::new(cfg())), 4, 4_000, 32);
}

// ---------------------------------------------------------------------------
// Publish-on-Ping reclaimers: the handshake (ping → publish → ack → sweep)
// runs constantly under contention, so these are the POP races' best canary.
// ---------------------------------------------------------------------------

#[test]
fn contended_harris_list_epoch_pop() {
    contended_stress(Arc::new(HarrisList::<EpochPop>::new(cfg())), 4, 4_000, 32);
}

#[test]
fn contended_harris_list_hp_pop() {
    contended_stress(Arc::new(HarrisList::<HpPop>::new(cfg())), 4, 4_000, 32);
}

#[test]
fn contended_dgt_tree_hp_pop() {
    contended_stress(Arc::new(DgtTree::<HpPop>::new(cfg())), 4, 4_000, 64);
}

#[test]
fn disjoint_lazy_list_epoch_pop() {
    disjoint_stress(Arc::new(LazyList::<EpochPop>::new(cfg())), 4, 2_500, 400);
}

#[test]
fn disjoint_hm_hashmap_hp_pop() {
    disjoint_stress(Arc::new(HmHashMap::<HpPop>::new(cfg())), 4, 2_500, 400);
}

#[test]
fn contended_hm_hashmap_nbr_plus() {
    contended_stress(Arc::new(HmHashMap::<NbrPlus>::new(cfg())), 4, 4_000, 32);
}
