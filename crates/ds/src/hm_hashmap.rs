//! A fixed-size hash map with Harris-Michael-list buckets (the HMLHT
//! structure of the Publish-on-Ping benchmark / setbench).
//!
//! The map is an array of `HmCore` buckets (the engine behind
//! [`HmList`](crate::HmList)) sharing **one** reclaimer instance. A bucket is
//! a bare 8-byte head link with no head node, whose chain ends in null, as
//! in Michael's hash table: building a map makes one allocation, for the
//! bucket array, whatever its size. A key is hashed (SplitMix64 finalizer)
//! to pick its bucket and the operation proceeds exactly as on the flat
//! list, with the bucket's link as the operation's root. Since every bucket
//! list restarts from its own head (the `FromRoot` policy), the NBR phase
//! discipline is preserved — a neutralized operation restarts its read phase
//! from the root it started at — so the map runs under every reclaimer in
//! the workspace, including NBR/NBR+ and the Publish-on-Ping family.
//!
//! The bucket count is fixed at construction (no resizing), mirroring the
//! related repos' HMLHT: short chains turn the lists' O(n) traversals into
//! near-O(1) operations, which shifts the SMR cost profile from
//! traversal-dominated to operation-bracket-dominated — a usefully different
//! scenario for the benchmark matrix.

use crate::hm_list::{HmCore, RestartPolicy};
use crate::{memo, ConcurrentSet};
use smr_common::{Smr, SmrConfig};

/// Default number of buckets (used by [`HmHashMap::new`]).
pub const DEFAULT_BUCKETS: usize = 64;

/// A fixed-size hash set of `u64` keys built from Harris-Michael-list
/// buckets sharing one reclaimer.
pub struct HmHashMap<S: Smr> {
    smr: S,
    buckets: Box<[HmCore]>,
    /// Memo identity of bucket 0; bucket `i` uses `memo_base + i`.
    memo_base: u64,
}

// SAFETY: buckets own their nodes through `Atomic` links; all shared access
// goes through the `Smr` protection protocol, and `Smr: Send + Sync`.
unsafe impl<S: Smr> Send for HmHashMap<S> {}
// SAFETY: as above — all mutation is via atomics and CAS.
unsafe impl<S: Smr> Sync for HmHashMap<S> {}

/// SplitMix64 finalizer: spreads adjacent keys across buckets.
#[inline]
fn hash(key: u64) -> u64 {
    let mut z = key.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl<S: Smr> HmHashMap<S> {
    /// Creates an empty map with [`DEFAULT_BUCKETS`] buckets.
    pub fn new(config: SmrConfig) -> Self {
        Self::with_buckets(config, DEFAULT_BUCKETS)
    }

    /// Creates an empty map with a specific bucket count.
    pub fn with_buckets(config: SmrConfig, buckets: usize) -> Self {
        assert!(buckets > 0, "hash map needs at least one bucket");
        Self {
            smr: S::new(config),
            buckets: (0..buckets).map(|_| HmCore::new()).collect(),
            memo_base: memo::next_memo_ids(buckets as u64),
        }
    }

    /// Number of buckets.
    pub fn buckets(&self) -> usize {
        self.buckets.len()
    }

    /// The bucket `key` hashes to, with that bucket's memo identity.
    #[inline]
    fn bucket(&self, key: u64) -> (&HmCore, u64) {
        let i = hash(key) % self.buckets.len() as u64;
        (&self.buckets[i as usize], self.memo_base + i)
    }
}

impl<S: Smr> ConcurrentSet<S> for HmHashMap<S> {
    fn smr(&self) -> &S {
        &self.smr
    }

    fn contains(&self, ctx: &mut S::ThreadCtx, key: u64) -> bool {
        let (bucket, memo_id) = self.bucket(key);
        bucket.contains(&self.smr, ctx, RestartPolicy::FromRoot, memo_id, key)
    }

    fn insert(&self, ctx: &mut S::ThreadCtx, key: u64) -> bool {
        let (bucket, _) = self.bucket(key);
        bucket.insert(&self.smr, ctx, RestartPolicy::FromRoot, key)
    }

    fn remove(&self, ctx: &mut S::ThreadCtx, key: u64) -> bool {
        let (bucket, memo_id) = self.bucket(key);
        bucket.remove(&self.smr, ctx, RestartPolicy::FromRoot, memo_id, key)
    }

    fn size(&self, ctx: &mut S::ThreadCtx) -> usize {
        self.buckets.iter().map(|b| b.count(&self.smr, ctx)).sum()
    }

    fn name() -> &'static str {
        "hm-hashmap"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hm_list::tests::chain_end_paths;
    use crate::test_support::{disjoint_key_stress, model_check};
    use nbr::NbrPlus;
    use smr_baselines::{Debra, HazardPointers, Ibr};
    use std::sync::Arc;

    #[test]
    fn sequential_basics() {
        let map = HmHashMap::<NbrPlus>::new(SmrConfig::for_tests());
        let mut ctx = map.smr().register(0);
        assert!(map.insert(&mut ctx, 4));
        assert!(map.insert(&mut ctx, 68)); // likely a different bucket
        assert!(!map.insert(&mut ctx, 4));
        assert!(map.contains(&mut ctx, 4));
        assert!(map.remove(&mut ctx, 4));
        assert!(!map.contains(&mut ctx, 4));
        assert_eq!(map.size(&mut ctx), 1);
        map.smr().unregister(&mut ctx);
    }

    #[test]
    fn keys_spread_across_buckets() {
        let map = HmHashMap::<Debra>::with_buckets(SmrConfig::for_tests(), 8);
        let mut ctx = map.smr().register(0);
        for k in 1..=256u64 {
            assert!(map.insert(&mut ctx, k));
        }
        assert_eq!(map.size(&mut ctx), 256);
        let occupied = map
            .buckets
            .iter()
            .filter(|b| b.count(map.smr(), &mut ctx) > 0)
            .count();
        assert_eq!(occupied, 8, "256 keys must land in all 8 buckets");
        map.smr().unregister(&mut ctx);
    }

    #[test]
    fn single_bucket_chain_ends() {
        fn run<S: Smr>() {
            let map = HmHashMap::<S>::with_buckets(SmrConfig::for_tests(), 1);
            chain_end_paths(&map, &map.buckets[0]);
        }
        run::<NbrPlus>();
        run::<Debra>();
        run::<HazardPointers>();
        run::<Ibr>();
    }

    #[test]
    fn model_check_under_nbr_plus() {
        let map = HmHashMap::<NbrPlus>::with_buckets(SmrConfig::for_tests(), 8);
        model_check(&map, 4_000, 64, 21);
    }

    #[test]
    fn model_check_under_hp() {
        let map = HmHashMap::<HazardPointers>::with_buckets(SmrConfig::for_tests(), 8);
        model_check(&map, 4_000, 64, 22);
    }

    #[test]
    fn concurrent_disjoint_stress() {
        let map = Arc::new(HmHashMap::<NbrPlus>::new(SmrConfig::for_tests()));
        disjoint_key_stress(map, 4, 3_000);
    }
}
