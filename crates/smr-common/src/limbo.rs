//! Per-thread limbo bags (Algorithm 1, line 2).
//!
//! Each thread accumulates the records it has unlinked in a private
//! [`LimboBag`]. When the bag grows past the reclaimer's scan trigger (see
//! [`reclaim`](crate::reclaim), "Scan triggers") the reclaimer runs its
//! scan (signals + reservation scan for NBR, epoch scan for DEBRA, hazard
//! scan for HP, …) and frees every record the scan proves safe.
//!
//! The bag is one vector of [`Retired`] records in retire order, the same
//! shape for all twelve schemes. A reclamation sweep compacts it in place,
//! so a scan allocates nothing and survivors keep their order.
//!
//! The bag preserves retire order, which NBR+ relies on: a thread at the
//! LoWatermark bookmarks the current tail, moves the bookmark up to the tail
//! while its peers stay quiet, and may later free exactly the prefix retired
//! before the bookmark (Algorithm 2, lines 14/19). Records only ever join
//! the bag at its end, and in-place compaction never reorders survivors, so
//! the bookmark stays valid.
//!
//! Reclamation is *sort-then-sweep*: the caller sorts its snapshot of the
//! announced protections once (hazard addresses, eras, or interval bounds) and
//! the sweep tests each retired record with a binary search — so the
//! interval-based schemes (IBR, HE) go from O(records × threads) per scan to
//! O((records + threads) · log threads), and the address-based schemes (HP,
//! NBR) keep their binary search without any per-record indirection.

use crate::recycle::Magazine;
use crate::retired::Retired;
use crate::stats::ThreadStats;

/// Retires per watermark check: [`LimboBag::stage`] returns `true` once
/// every this many records, and only then does the retire path read the
/// bag length against the HiWatermark. Also the slack the robust garbage
/// bounds allow: at most `RETIRE_BATCH_CAP - 1` records are retired past a
/// check.
pub const RETIRE_BATCH_CAP: usize = 8;

/// Records a bag reserves up front at most; past that the vector grows.
const INITIAL_CAPACITY: usize = 256;

/// An ordered bag of retired records owned by a single thread.
#[derive(Debug, Default)]
pub struct LimboBag {
    /// Every held record, oldest first.
    records: Vec<Retired>,
}

impl LimboBag {
    /// An empty bag.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty bag with room for `capacity` records, up to the first 256
    /// (the rest is allocated as the bag grows).
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            records: Vec::with_capacity(capacity.clamp(1, INITIAL_CAPACITY)),
        }
    }

    /// [`LimboBag::with_capacity`] for a caller that sizes the bag from an
    /// `SmrConfig`: `batch_cap` is
    /// [`SmrConfig::retire_batch_cap`](crate::SmrConfig::retire_batch_cap),
    /// which is always [`RETIRE_BATCH_CAP`], the fixed cadence of
    /// [`stage`](LimboBag::stage).
    pub fn with_capacity_and_batch(capacity: usize, batch_cap: usize) -> Self {
        debug_assert_eq!(batch_cap, RETIRE_BATCH_CAP);
        Self::with_capacity(capacity)
    }

    /// Appends a retired record (Algorithm 1, line 19) behind everything
    /// retired so far — orphan adoption and combiner hand-offs use this.
    #[inline]
    pub fn push(&mut self, retired: Retired) {
        self.records.push(retired);
    }

    /// Appends one retire and returns `true` once every
    /// [`RETIRE_BATCH_CAP`] records — when the length reaches a multiple of
    /// it: the caller's cue to run its watermark/policy checks, which is
    /// what bounds the overshoot past a check to `RETIRE_BATCH_CAP - 1`
    /// records.
    #[inline]
    pub fn stage(&mut self, retired: Retired) -> bool {
        self.records.push(retired);
        self.records.len() % RETIRE_BATCH_CAP == 0
    }

    /// Number of unreclaimed records currently held.
    #[inline]
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when the bag holds no records.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Iterates over the held records in retire order (used by
    /// interval-based scans that need eras rather than addresses).
    pub fn iter(&self) -> impl Iterator<Item = &Retired> {
        self.records.iter()
    }

    /// The core sweep: frees every record in the prefix `[0, up_to)` whose
    /// fate `decide` approves, compacting the bag in place so survivors (and
    /// the suffix past `up_to`) keep their retire order. Returns the number
    /// of records freed.
    ///
    /// `Retired` has no `Drop` glue (dropping one leaks rather than frees), so
    /// the raw moves below are plain bit copies. The length is zeroed for the
    /// duration of the sweep: if `decide` panics, the in-flight records leak
    /// — which is safe — instead of being double-freed by an unwinding
    /// caller.
    ///
    /// # Safety
    /// The caller must guarantee that any record for which `decide` returns
    /// `true` is safe in the sense of Section 3: unlinked and unreachable from
    /// every thread's private pointers.
    unsafe fn sweep_prefix(
        &mut self,
        up_to: usize,
        mut decide: impl FnMut(&Retired) -> bool,
        mag: &mut Magazine,
    ) -> usize {
        let len = self.records.len();
        let limit = up_to.min(len);
        if limit == 0 {
            return 0;
        }
        let ptr = self.records.as_mut_ptr();
        self.records.set_len(0);
        let mut write = 0usize;
        for read in 0..limit {
            let rec = ptr.add(read);
            if decide(&*rec) {
                core::ptr::read(rec).reclaim_into(mag);
            } else {
                if write != read {
                    core::ptr::copy_nonoverlapping(rec, ptr.add(write), 1);
                }
                write += 1;
            }
        }
        if write != limit {
            core::ptr::copy(ptr.add(limit), ptr.add(write), len - limit);
        }
        self.records.set_len(write + len - limit);
        limit - write
    }

    /// Frees every record in the prefix `[0, up_to)` whose fate `decide`
    /// approves, retaining (in order) the survivors and the suffix.
    ///
    /// `decide` receives each candidate and returns `true` if the record is
    /// *safe* to free now (not reserved / not protected / outside every active
    /// interval). Returns the number of records freed.
    ///
    /// # Safety
    /// The caller must guarantee that any record for which `decide` returns
    /// `true` is safe in the sense of Section 3: unlinked and unreachable from
    /// every thread's private pointers.
    pub unsafe fn reclaim_prefix_if(
        &mut self,
        up_to: usize,
        decide: impl FnMut(&Retired) -> bool,
        stats: &mut ThreadStats,
        mag: &mut Magazine,
    ) -> usize {
        let freed = self.sweep_prefix(up_to, decide, mag);
        stats.frees += freed as u64;
        freed
    }

    /// Frees every record in the bag whose fate `decide` approves.
    ///
    /// # Safety
    /// Same contract as [`LimboBag::reclaim_prefix_if`].
    pub unsafe fn reclaim_if(
        &mut self,
        decide: impl FnMut(&Retired) -> bool,
        stats: &mut ThreadStats,
        mag: &mut Magazine,
    ) -> usize {
        self.reclaim_prefix_if(usize::MAX, decide, stats, mag)
    }

    /// Frees every record in the prefix `[0, up_to)` whose address is absent
    /// from `reserved`, which **must be sorted** (binary search per record).
    /// This is the NBR/NBR+/HP sweep: one sorted snapshot of the announced
    /// reservations or hazards, swept against the batch in a single pass.
    ///
    /// # Safety
    /// `reserved` must contain every address a registered thread may still
    /// dereference; beyond that, same contract as
    /// [`LimboBag::reclaim_prefix_if`].
    pub unsafe fn reclaim_prefix_unreserved(
        &mut self,
        up_to: usize,
        reserved: &[usize],
        stats: &mut ThreadStats,
        mag: &mut Magazine,
    ) -> usize {
        debug_assert!(reserved.windows(2).all(|w| w[0] <= w[1]));
        let freed = self.sweep_prefix(
            up_to,
            |r| reserved.binary_search(&r.address()).is_err(),
            mag,
        );
        stats.frees += freed as u64;
        freed
    }

    /// Frees every record whose lifetime `[birth, retire]` is disjoint from
    /// every announced interval, given the interval **lower bounds and upper
    /// bounds each sorted separately** — the sweep every era-based scheme
    /// shares: IBR (2GEIBR) passes its announced `[lower, upper]` pairs,
    /// hazard eras and WFE each announced era `e` as the degenerate interval
    /// `[e, e]` (`ReclaimLocal::sweep_outside_eras`), which pins exactly the
    /// lifetimes containing `e`.
    ///
    /// An interval `[lo, up]` overlaps `[birth, retire]` iff
    /// `lo ≤ retire ∧ up ≥ birth`. Since every valid interval has `lo ≤ up`,
    /// the intervals with `up < birth` are a subset of those with
    /// `lo ≤ retire`, so the overlap count is
    /// `|{lo ≤ retire}| − |{up < birth}|` — two binary searches per record
    /// instead of a walk over every announced interval.
    ///
    /// # Safety
    /// `lowers`/`uppers` must cover every interval announced by a registered
    /// thread at the scan's linearization point; same overall contract as
    /// [`LimboBag::reclaim_prefix_if`].
    pub unsafe fn reclaim_disjoint_intervals(
        &mut self,
        lowers: &[u64],
        uppers: &[u64],
        stats: &mut ThreadStats,
        mag: &mut Magazine,
    ) -> usize {
        debug_assert_eq!(lowers.len(), uppers.len());
        debug_assert!(lowers.windows(2).all(|w| w[0] <= w[1]));
        debug_assert!(uppers.windows(2).all(|w| w[0] <= w[1]));
        let freed = self.sweep_prefix(
            usize::MAX,
            |r| {
                let starts_at_or_before = lowers.partition_point(|&lo| lo <= r.retire_era());
                let ends_before = uppers.partition_point(|&up| up < r.birth_era());
                starts_at_or_before == ends_before
            },
            mag,
        );
        stats.frees += freed as u64;
        freed
    }

    /// Frees everything unconditionally. Used at shutdown, after all threads
    /// have deregistered (when every record is trivially safe), and by the
    /// leaky reclaimer's drop path in tests.
    ///
    /// # Safety
    /// No thread may still hold a reference to any record in the bag.
    pub unsafe fn reclaim_all(&mut self, stats: &mut ThreadStats, mag: &mut Magazine) -> usize {
        self.reclaim_if(|_| true, stats, mag)
    }

    /// Removes and returns all records without freeing them (ownership moves
    /// to the caller, e.g. a global pool at thread deregistration). The bag
    /// keeps its allocation.
    pub fn drain(&mut self) -> Vec<Retired> {
        self.records.drain(..).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::header::NodeHeader;
    use crate::recycle::alloc_node_raw;

    struct N {
        header: NodeHeader,
        #[allow(dead_code)]
        k: u64,
    }
    crate::impl_smr_node!(N);

    fn retire_one(k: u64, era: u64) -> Retired {
        let raw = alloc_node_raw(N {
            header: NodeHeader::new(),
            k,
        });
        unsafe { Retired::new(raw, era) }
    }

    fn retire_interval(k: u64, birth: u64, retire: u64) -> Retired {
        let mut node = N {
            header: NodeHeader::new(),
            k,
        };
        use crate::header::SmrNode;
        node.header_mut().set_birth_era(birth);
        let raw = alloc_node_raw(node);
        unsafe { Retired::new(raw, retire) }
    }

    #[test]
    fn push_and_len() {
        let mut bag = LimboBag::with_capacity(4);
        assert!(bag.is_empty());
        for i in 0..4 {
            bag.push(retire_one(i, i));
        }
        assert_eq!(bag.len(), 4);
        let mut stats = ThreadStats::default();
        let mut mag = Magazine::disabled();
        unsafe { bag.reclaim_all(&mut stats, &mut mag) };
        assert_eq!(stats.frees, 4);
        assert!(bag.is_empty());
    }

    #[test]
    fn reclaim_prefix_respects_bookmark_and_reservations() {
        let mut bag = LimboBag::new();
        let mut addrs = Vec::new();
        for i in 0..6 {
            let r = retire_one(i, i);
            addrs.push(r.address());
            bag.push(r);
        }
        let reserved = addrs[1];
        let mut stats = ThreadStats::default();
        let mut mag = Magazine::disabled();
        // Bookmark at 4: only records 0..4 are candidates; record 1 is reserved.
        let freed =
            unsafe { bag.reclaim_prefix_if(4, |r| r.address() != reserved, &mut stats, &mut mag) };
        assert_eq!(freed, 3);
        assert_eq!(bag.len(), 3); // reserved survivor + 2 past the bookmark
        assert_eq!(stats.frees, 3);
        // Survivors keep their order: reserved record first, then the suffix.
        let remaining: Vec<usize> = bag.iter().map(|r| r.address()).collect();
        assert_eq!(remaining, vec![addrs[1], addrs[4], addrs[5]]);
        unsafe { bag.reclaim_all(&mut stats, &mut mag) };
    }

    #[test]
    fn reclaim_if_scans_entire_bag() {
        let mut bag = LimboBag::new();
        for i in 0..10 {
            bag.push(retire_one(i, i));
        }
        let mut stats = ThreadStats::default();
        let mut mag = Magazine::disabled();
        let freed = unsafe { bag.reclaim_if(|r| r.retire_era() % 2 == 0, &mut stats, &mut mag) };
        assert_eq!(freed, 5);
        assert_eq!(bag.len(), 5);
        unsafe { bag.reclaim_all(&mut stats, &mut mag) };
        assert_eq!(stats.frees, 10);
    }

    #[test]
    fn drain_transfers_ownership_without_freeing() {
        let mut bag = LimboBag::new();
        for i in 0..3 {
            bag.push(retire_one(i, i));
        }
        let drained = bag.drain();
        assert_eq!(drained.len(), 3);
        assert!(bag.is_empty());
        let mut stats = ThreadStats::default();
        for r in drained {
            unsafe { r.reclaim() };
            stats.frees += 1;
        }
        assert_eq!(stats.frees, 3);
    }

    #[test]
    fn reclaim_prefix_unreserved_uses_sorted_addresses() {
        let mut bag = LimboBag::new();
        let mut addrs = Vec::new();
        for i in 0..8 {
            let r = retire_one(i, i);
            addrs.push(r.address());
            bag.push(r);
        }
        let mut reserved = vec![addrs[2], addrs[5], addrs[7]];
        reserved.sort_unstable();
        let mut stats = ThreadStats::default();
        let mut mag = Magazine::disabled();
        // Prefix of 6: records 0..6 except the reserved 2 and 5 are freed;
        // 6, 7 lie past the bookmark.
        let freed = unsafe { bag.reclaim_prefix_unreserved(6, &reserved, &mut stats, &mut mag) };
        assert_eq!(freed, 4);
        let survivors: Vec<usize> = bag.iter().map(|r| r.address()).collect();
        assert_eq!(survivors, vec![addrs[2], addrs[5], addrs[6], addrs[7]]);
        unsafe { bag.reclaim_all(&mut stats, &mut mag) };
    }

    /// The hazard-eras point sweep is the interval sweep with degenerate
    /// (single-era) intervals: a point `[e, e]` pins exactly the lifetimes
    /// containing `e`, and a record strictly *between* two points is freed.
    #[test]
    fn degenerate_intervals_behave_like_point_eras() {
        let mut bag = LimboBag::new();
        // Lifetimes: [0,1] [2,4] [5,5] [3,8] [9,10]
        for &(k, b, r) in &[(0, 0, 1), (1, 2, 4), (2, 5, 5), (3, 3, 8), (4, 9, 10)] {
            bag.push(retire_interval(k, b, r));
        }
        // Two single-era intervals: [4,4] and [9,9].
        let bounds = vec![4, 9];
        let mut stats = ThreadStats::default();
        let mut mag = Magazine::disabled();
        // Era 4 pins [2,4] and [3,8]; era 9 pins [9,10]. [0,1] and [5,5] free.
        let freed =
            unsafe { bag.reclaim_disjoint_intervals(&bounds, &bounds, &mut stats, &mut mag) };
        assert_eq!(freed, 2);
        let remaining: Vec<(u64, u64)> = bag
            .iter()
            .map(|r| (r.birth_era(), r.retire_era()))
            .collect();
        assert_eq!(remaining, vec![(2, 4), (3, 8), (9, 10)]);
        unsafe { bag.reclaim_all(&mut stats, &mut mag) };
    }

    #[test]
    fn staging_counts_toward_len_and_flushes_on_fill() {
        let mut bag = LimboBag::new();
        let mut addrs = Vec::new();
        for i in 1..=3 * RETIRE_BATCH_CAP {
            let r = retire_one(i as u64, i as u64);
            addrs.push(r.address());
            assert_eq!(
                bag.stage(r),
                i % RETIRE_BATCH_CAP == 0,
                "one check per batch, at stage {i}"
            );
            assert_eq!(bag.len(), i);
        }
        let seen: Vec<usize> = bag.iter().map(|r| r.address()).collect();
        assert_eq!(seen, addrs, "staging keeps retire order");
        let mut stats = ThreadStats::default();
        let mut mag = Magazine::disabled();
        unsafe { bag.reclaim_all(&mut stats, &mut mag) };
    }

    #[test]
    fn push_after_staging_flushes_first_to_keep_order() {
        let mut bag = LimboBag::new();
        let mut addrs = Vec::new();
        for i in 0..3 {
            let r = retire_one(i, i);
            addrs.push(r.address());
            bag.stage(r);
        }
        // An orphan-adoption-style direct push lands behind the staged
        // records.
        let orphan = retire_one(50, 50);
        addrs.push(orphan.address());
        bag.push(orphan);
        let seen: Vec<usize> = bag.iter().map(|r| r.address()).collect();
        assert_eq!(seen, addrs);
        let mut stats = ThreadStats::default();
        let mut mag = Magazine::disabled();
        unsafe { bag.reclaim_all(&mut stats, &mut mag) };
    }

    #[test]
    fn sweeps_and_drain_observe_staged_records() {
        let mut bag = LimboBag::new();
        for i in 0..4 {
            bag.stage(retire_one(i, i));
        }
        let mut stats = ThreadStats::default();
        let mut mag = Magazine::disabled();
        // A full-bag sweep frees records staged mid-batch.
        let freed = unsafe { bag.reclaim_if(|_| true, &mut stats, &mut mag) };
        assert_eq!(freed, 4);
        assert!(bag.is_empty());

        for i in 0..3 {
            bag.stage(retire_one(i, i));
        }
        let drained = bag.drain();
        assert_eq!(drained.len(), 3, "drain must not strand mid-batch records");
        assert!(bag.is_empty());
        for r in drained {
            unsafe { r.reclaim() };
        }
    }

    #[test]
    fn prefix_bookmark_taken_over_staged_records_stays_valid() {
        // NBR+'s bookmark is an index into the retire order captured from
        // `len()`; later stages must keep it pointing at the same records.
        let mut bag = LimboBag::new();
        let mut addrs = Vec::new();
        for i in 0..5 {
            let r = retire_one(i, i);
            addrs.push(r.address());
            bag.stage(r);
        }
        let bookmark = bag.len(); // 5, mid-batch
        for i in 5..10 {
            let r = retire_one(i, i);
            addrs.push(r.address());
            bag.stage(r);
        }
        let mut stats = ThreadStats::default();
        let mut mag = Magazine::disabled();
        let freed = unsafe { bag.reclaim_prefix_if(bookmark, |_| true, &mut stats, &mut mag) };
        assert_eq!(freed, 5);
        let survivors: Vec<usize> = bag.iter().map(|r| r.address()).collect();
        assert_eq!(survivors, addrs[5..].to_vec());
        unsafe { bag.reclaim_all(&mut stats, &mut mag) };
    }

    #[test]
    fn reclaim_disjoint_intervals_matches_linear_check() {
        let mut bag = LimboBag::new();
        // Lifetimes: [0,1] [2,4] [6,7] [3,8] [12,14]
        for &(k, b, r) in &[(0, 0, 1), (1, 2, 4), (2, 6, 7), (3, 3, 8), (4, 12, 14)] {
            bag.push(retire_interval(k, b, r));
        }
        // Announced intervals (already per-bound sorted): [3,5] and [9,13].
        let lowers = vec![3, 9];
        let uppers = vec![5, 13];
        let mut stats = ThreadStats::default();
        let mut mag = Magazine::disabled();
        // [3,5] overlaps [2,4] and [3,8]; [9,13] overlaps [12,14].
        // [0,1] and [6,7] are disjoint from both and must be freed.
        let freed =
            unsafe { bag.reclaim_disjoint_intervals(&lowers, &uppers, &mut stats, &mut mag) };
        assert_eq!(freed, 2);
        let remaining: Vec<(u64, u64)> = bag
            .iter()
            .map(|r| (r.birth_era(), r.retire_era()))
            .collect();
        assert_eq!(remaining, vec![(2, 4), (3, 8), (12, 14)]);
        unsafe { bag.reclaim_all(&mut stats, &mut mag) };
    }
}
