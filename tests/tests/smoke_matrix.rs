//! Smoke matrix: one fast, named `model_check` per (SMR × data structure)
//! pair, so a broken pairing fails as `smoke_<smr>_<ds>` immediately instead
//! of surfacing deep inside a stress run or a benchmark.
//!
//! Every pair runs a short single-threaded randomized differential test
//! against a `BTreeSet` with a tiny-watermark config, which forces the
//! reclamation paths to execute constantly even at this small scale.
//!
//! Every registry row (12 reclaimers today, incl. the Publish-on-Ping family
//! and WFE) × 6 structures
//! (incl. the HM-list hash map) = 72 model-check cases, plus one
//! multi-threaded chain-unlink stress case per reclaimer on the Harris
//! list (84 total) — the marked-chain batch-unlink path only exists under
//! concurrency.

use conc_ds::{AbTree, DgtTree, HarrisList, HmHashMap, HmList, LazyList};
use integration_tests::{chain_unlink_stress, model_check};
use smr_common::SmrConfig;
use std::sync::Arc;

fn cfg() -> SmrConfig {
    SmrConfig::for_tests()
}

const OPS: usize = 3_000;
const KEY_RANGE: u64 = 64;

// Generated from the scheme registry (`smr_harness::for_each_scheme!`): per
// row, `smoke_<scheme>_<structure>` for each of the six structures plus
// `chain_unlink_<scheme>`, so a reclaimer added to the registry is covered
// here without touching this file.
//
// Chain-unlink stress: concurrent adjacent deletions grow multi-node marked
// chains in the Harris list, which the single-threaded model checks never
// do. One case per reclaimer, oversubscribed past CI's core count, so every
// scheme executes either the batch-unlink fast path
// (`CAN_TRAVERSE_UNLINKED`: the epoch family and NBR/NBR+) or the
// Harris-Michael fallback (the HP family and the interval schemes IBR, HE
// and WFE) under the scheduling that exposed the original marked-chain
// race.
macro_rules! smoke_rows {
    ($({ $variant:ident, $snake:ident, $smr:ty, $($flags:tt)* })*) => {
        paste::paste! {
            $(
                #[test]
                fn [<smoke_ $snake _lazy_list>]() {
                    model_check(&LazyList::<$smr>::new(cfg()), OPS, KEY_RANGE, 0xDEAD_BEEF);
                }

                #[test]
                fn [<smoke_ $snake _harris_list>]() {
                    model_check(&HarrisList::<$smr>::new(cfg()), OPS, KEY_RANGE, 0xDEAD_BEEF);
                }

                #[test]
                fn [<smoke_ $snake _hm_list>]() {
                    model_check(&HmList::<$smr>::new(cfg()), OPS, KEY_RANGE, 0xDEAD_BEEF);
                }

                #[test]
                fn [<smoke_ $snake _hm_hashmap>]() {
                    model_check(&HmHashMap::<$smr>::new(cfg()), OPS, KEY_RANGE, 0xDEAD_BEEF);
                }

                #[test]
                fn [<smoke_ $snake _dgt_tree>]() {
                    model_check(&DgtTree::<$smr>::new(cfg()), OPS, KEY_RANGE, 0xDEAD_BEEF);
                }

                #[test]
                fn [<smoke_ $snake _ab_tree>]() {
                    model_check(&AbTree::<$smr>::new(cfg()), OPS, KEY_RANGE, 0xDEAD_BEEF);
                }

                #[test]
                fn [<chain_unlink_ $snake>]() {
                    let list = Arc::new(HarrisList::<$smr>::new(cfg().with_max_threads(8)));
                    chain_unlink_stress(list, 8, 60, 4, 8);
                }
            )*
        }
    };
}
smr_harness::for_each_scheme!(smoke_rows);
