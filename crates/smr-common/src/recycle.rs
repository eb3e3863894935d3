//! Node-block recycling: thread-local magazines over a shared depot.
//!
//! Every mutating operation in the benchmark matrix pays the global allocator
//! twice — once in [`Smr::alloc`](crate::Smr::alloc) and once when a
//! reclamation scan destroys the record. After PR 2/3 removed the fence and
//! protection costs from the hot paths, that malloc/free pair is the largest
//! remaining per-operation overhead *shared by every reclaimer* (the paper's
//! artifact sidesteps it with jemalloc; this vendored-offline build cannot).
//! Recycling is also exactly what reclamation makes safe: a record a scan has
//! proven unreachable can be handed straight to the next allocation instead
//! of round-tripping through the system allocator.
//!
//! The design is a classic magazine/depot allocator (Bonwick's vmem paper),
//! scoped to SMR nodes:
//!
//! * **Node-heap ABI** — every node is allocated with [`node_layout`], the
//!   record's layout mapped to an **exact-fit** size class (8-byte
//!   granularity up to 1 KiB, coarser above). [`alloc_node_raw`] /
//!   [`free_node_raw`] are the global fallbacks; because the layout is a
//!   pure function of the node type, any block can later be freed (or
//!   recycled) without knowing how it was allocated. Types too big or
//!   over-aligned for every class fall back to their exact layout and are
//!   never pooled.
//! * **[`Magazine`]** — a per-thread cache of free blocks, one bounded bin
//!   per size class, owned by the reclaimer's thread context. Allocation
//!   pops from the bin; a reclamation sweep pushes destroyed blocks back.
//!   No synchronization on either path.
//! * **[`BlockPool`]** — the shared depot magazines spill to when a bin
//!   overflows (a reclamation burst frees more than the owner will
//!   re-allocate soon) and refill from when a bin runs dry (this thread
//!   allocates what another thread's scan freed). Accessed in batches, so
//!   the depot mutex is off the per-operation path. The depot is bounded;
//!   overflow beyond the bound is returned to the global allocator, which
//!   keeps the pool's footprint at a small multiple of the limbo watermark.
//!
//! # Recycling is downstream of safety
//!
//! A block enters a magazine only from [`Retired::reclaim_into`]
//! (<=> the owning scheme's scan just proved the record *safe*: unlinked and
//! reserved/protected by no thread) or from
//! [`Smr::dealloc_unpublished`](crate::Smr::dealloc_unpublished) (the record
//! was never published). Address reuse is therefore the ABA case the
//! [`NodeHeader`](crate::NodeHeader) birth era already exists for: a recycled
//! block returned by [`Smr::alloc`](crate::Smr::alloc) is re-stamped with the
//! *current* global era before it is published, so interval-based schemes
//! (IBR, HE) see the new incarnation's lifetime start at its true birth and
//! cannot confuse it with the previous occupant of the same address. The
//! interval reclaimers' own `alloc` overrides (IBR, HE — the only schemes
//! whose sweeps consult birth eras) read the era clock **after** popping
//! the block (the pop happens-after the free: same-thread program order,
//! or the depot mutex across threads), so the new birth era is provably ≥
//! every era observed while the old incarnation was swept — the two
//! lifetimes of one address can never overlap, which is what lets
//! traversal-through-unlinked compose with recycling (DESIGN.md,
//! "Traversals through unlinked records under the interval reclaimers").
//! The *default* `Smr::alloc` stamps before the pop (cheaper, and inert:
//! no scheme using it sweeps by birth era); a new interval-style scheme
//! must override `alloc` and stamp after the pop like IBR/HE do.

use crate::header::SmrNode;
use crate::smr::SmrConfig;
use crate::stats::ThreadStats;
use std::alloc::{alloc, dealloc, handle_alloc_error, Layout};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Alignment of every pooled block. Covers every node type in the workspace
/// (`u64`s, pointers, atomics); types with stricter alignment fall back to
/// the global allocator with their exact layout.
const BLOCK_ALIGN: usize = 8;

/// Size classes are **exact-fit** at 8-byte granularity up to this size.
/// Exactness matters more than a small class table: rounding a 24-byte list
/// node up to 32 bytes inflates the allocator's chunk stride (glibc:
/// 32 → 48 bytes) and measurably hurts traversal locality on large lists,
/// even for code that never touches the pool. Every real node size is a
/// multiple of 8 already, so fine classes cost nothing in fragmentation.
const FINE_LIMIT: usize = 1024;

/// Granularity of the fine classes.
const FINE_STEP: usize = 8;

/// After a depot refill returns empty-handed, a magazine serves this many
/// further misses from the global allocator before re-checking the depot
/// (cleared early whenever the magazine itself releases a block). Keeps the
/// depot mutex off the hot path of allocation-only phases while another
/// thread's spill is still picked up within a bounded number of allocs.
const DRY_BACKOFF_MISSES: u32 = 64;

/// Above [`FINE_LIMIT`], classes step by this much up to [`MAX_BLOCK`]
/// (node types are few; coarse steps keep the table small).
const COARSE_STEP: usize = 256;

/// Largest pooled block; bigger types use their exact layout, unpooled.
const MAX_BLOCK: usize = 4096;

/// Number of size classes.
const CLASS_COUNT: usize = FINE_LIMIT / FINE_STEP + (MAX_BLOCK - FINE_LIMIT) / COARSE_STEP;

/// The size class covering `layout`, or `None` when the layout is too big or
/// too strictly aligned to pool.
#[inline]
pub fn class_for_layout(layout: Layout) -> Option<usize> {
    if layout.align() > BLOCK_ALIGN {
        return None;
    }
    let size = layout.size().max(1);
    if size <= FINE_LIMIT {
        Some(size.div_ceil(FINE_STEP) - 1)
    } else if size <= MAX_BLOCK {
        Some(FINE_LIMIT / FINE_STEP + (size - FINE_LIMIT).div_ceil(COARSE_STEP) - 1)
    } else {
        None
    }
}

/// The allocation size of size class `class`.
#[inline]
fn class_size(class: usize) -> usize {
    if class < FINE_LIMIT / FINE_STEP {
        (class + 1) * FINE_STEP
    } else {
        FINE_LIMIT + (class + 1 - FINE_LIMIT / FINE_STEP) * COARSE_STEP
    }
}

/// The allocation layout of size class `class`.
#[inline]
fn class_layout(class: usize) -> Layout {
    // SAFETY-adjacent: sizes and the alignment are non-zero multiples of a
    // power of two; the unwrap can never fire.
    Layout::from_size_align(class_size(class), BLOCK_ALIGN).expect("valid class layout")
}

/// The size class node type `T` is pooled in, or `None` when `T` only ever
/// uses the global allocator.
#[inline]
pub fn node_class<T>() -> Option<usize> {
    class_for_layout(Layout::new::<T>())
}

/// The layout every node of type `T` is allocated with — the node-heap ABI.
///
/// Class-rounded when `T` fits a size class, exact otherwise. Both
/// [`Smr::alloc`](crate::Smr::alloc) and every free path
/// ([`Retired`](crate::Retired), [`free_node_raw`], data-structure `Drop`
/// impls) derive the layout from this one function, so blocks can flow
/// between the pool and the global allocator without per-block bookkeeping.
#[inline]
pub fn node_layout<T>() -> Layout {
    match node_class::<T>() {
        Some(class) => class_layout(class),
        None => Layout::new::<T>(),
    }
}

/// Allocates a node on the global allocator with the node-heap ABI layout
/// and moves `value` into it. The pool-bypassing fallback every allocation
/// path shares (sentinels, recycling off, magazine misses).
pub fn alloc_node_raw<T: SmrNode>(value: T) -> *mut T {
    let layout = node_layout::<T>();
    debug_assert!(layout.size() > 0, "SMR nodes are never zero-sized");
    // SAFETY: layout has non-zero size (every node embeds a NodeHeader).
    let ptr = unsafe { alloc(layout) }.cast::<T>();
    if ptr.is_null() {
        handle_alloc_error(layout);
    }
    // SAFETY: freshly allocated, exclusively owned, large enough for T.
    unsafe { ptr.write(value) };
    crate::check::on_raw_alloc(ptr as usize);
    ptr
}

/// Runs `T`'s destructor and returns the block to the global allocator.
///
/// # Safety
/// `ptr` must have been allocated with the node-heap ABI ([`alloc_node_raw`]
/// or [`Magazine::alloc_node`]), must be exclusively owned by the caller, and
/// must not be used afterwards.
pub unsafe fn free_node_raw<T: SmrNode>(ptr: *mut T) {
    crate::check::on_owner_free(ptr as usize);
    core::ptr::drop_in_place(ptr);
    dealloc(ptr.cast(), node_layout::<T>());
}

/// The shared overflow depot: per-size-class free lists magazines spill to
/// and refill from in batches.
///
/// Blocks are stored as raw addresses of *uninitialized* memory (destructors
/// already ran before a block entered the pool); the only operation ever
/// applied to them again is a write of a fresh node or a final `dealloc`.
pub struct BlockPool {
    /// One free list per size class ([`CLASS_COUNT`] of them), or empty when
    /// the owning config disabled recycling.
    bins: Box<[Mutex<Vec<usize>>]>,
    /// Maximum blocks the depot holds per class; beyond this, spilled blocks
    /// go back to the global allocator (bounds the pool's idle footprint).
    per_class_cap: usize,
    /// Blocks handed from the depot to magazines (diagnostic).
    refills: AtomicU64,
    /// Blocks spilled from magazines into the depot (diagnostic).
    spills: AtomicU64,
}

impl BlockPool {
    /// Creates the depot for one reclaimer instance, sized from its config:
    /// `magazine_cap × max_threads` for the steady-state circulation plus
    /// twice the HiWatermark so a full reclamation burst fits — the epoch
    /// family frees multi-bag bursts well past one watermark, and blocks the
    /// depot cannot absorb go back to the global allocator (defeating the
    /// pool for exactly the schemes with the most allocator traffic).
    pub fn from_config(config: &SmrConfig) -> Arc<Self> {
        let per_class_cap =
            config.magazine_cap.max(1) * config.max_threads.max(1) + 2 * config.hi_watermark;
        // With recycling off the reclaimer still holds a depot handle, but
        // its disabled magazines never touch it — build it bin-less so the
        // recycling-off configuration carries no idle pool state.
        let bins = if config.recycle { CLASS_COUNT } else { 0 };
        Arc::new(Self {
            bins: (0..bins).map(|_| Mutex::new(Vec::new())).collect(),
            per_class_cap,
            refills: AtomicU64::new(0),
            spills: AtomicU64::new(0),
        })
    }

    /// Moves up to `max` blocks of `class` into `out`.
    fn refill(&self, class: usize, out: &mut Vec<usize>, max: usize) {
        let mut bin = self.bins[class].lock().expect("depot mutex poisoned");
        let n = bin.len().min(max);
        let split = bin.len() - n;
        out.extend(bin.drain(split..));
        drop(bin);
        self.refills.fetch_add(n as u64, Ordering::Relaxed);
    }

    /// Moves the blocks of `bin` beyond index `keep` into the depot, up to
    /// the depot bound; blocks that fit neither are returned to the global
    /// allocator. Drains `bin` in place (no temporary vector — this runs on
    /// the reclamation path the pool exists to keep allocation-free).
    fn spill_from(&self, class: usize, bin: &mut Vec<usize>, keep: usize) {
        let keep = keep.min(bin.len());
        let mut depot = self.bins[class].lock().expect("depot mutex poisoned");
        let room = self.per_class_cap.saturating_sub(depot.len());
        let n = (bin.len() - keep).min(room);
        let split = bin.len() - n;
        depot.extend(bin.drain(split..));
        drop(depot);
        self.spills.fetch_add(n as u64, Ordering::Relaxed);
        // No room for the rest: give it back to the system.
        for addr in bin.drain(keep..) {
            // SAFETY: every block in a class bin was allocated with exactly
            // that class's layout (node-heap ABI) and is exclusively owned
            // by the pool.
            unsafe { dealloc(addr as *mut u8, class_layout(class)) };
        }
    }

    /// Blocks currently parked in the depot (all classes).
    pub fn depot_len(&self) -> usize {
        self.bins
            .iter()
            .map(|b| b.lock().expect("depot mutex poisoned").len())
            .sum()
    }

    /// Total depot→magazine and magazine→depot block transfers so far.
    pub fn transfer_counts(&self) -> (u64, u64) {
        (
            self.refills.load(Ordering::Relaxed),
            self.spills.load(Ordering::Relaxed),
        )
    }
}

impl Drop for BlockPool {
    fn drop(&mut self) {
        for (class, bin) in self.bins.iter().enumerate() {
            let mut bin = bin.lock().expect("depot mutex poisoned");
            for addr in bin.drain(..) {
                // SAFETY: class bins hold exclusively-owned blocks allocated
                // with the class layout; the pool is going away.
                unsafe { dealloc(addr as *mut u8, class_layout(class)) };
            }
        }
    }
}

/// A thread-local cache of free node blocks, one bounded bin per size class.
///
/// Owned by a reclaimer's thread context. Allocation pops a block with two
/// plain vector operations; reclamation sweeps push destroyed blocks back.
/// When a bin overflows, half of it is spilled to the shared [`BlockPool`]
/// depot; when it runs dry, a batch is pulled back. A disabled magazine
/// ([`SmrConfig::recycle`] = false) bypasses the pool
/// entirely: every allocation and free goes straight to the global
/// allocator, reproducing the pre-recycling behaviour exactly.
pub struct Magazine {
    pool: Option<Arc<BlockPool>>,
    bins: Vec<Vec<usize>>,
    /// Per-bin block bound ([`SmrConfig::magazine_cap`]).
    cap: usize,
    /// Per-class backoff after a depot refill came back empty: this many
    /// further misses of that class skip the depot entirely, so an
    /// allocation-only phase (prefill, the leaky scheme — which never frees)
    /// does not pay a shared mutex lock per node. Releasing a block of the
    /// class resets its backoff.
    dry_backoff: Vec<u32>,
    hits: u64,
    misses: u64,
    recycled: u64,
}

impl Magazine {
    /// A magazine spilling to / refilling from `pool`, or a disabled one when
    /// the config switched recycling off.
    pub fn from_config(pool: &Arc<BlockPool>, config: &SmrConfig) -> Self {
        if config.recycle {
            Self {
                pool: Some(Arc::clone(pool)),
                bins: (0..CLASS_COUNT).map(|_| Vec::new()).collect(),
                cap: config.magazine_cap.max(1),
                dry_backoff: vec![0; CLASS_COUNT],
                hits: 0,
                misses: 0,
                recycled: 0,
            }
        } else {
            Self::disabled()
        }
    }

    /// A magazine that never pools: every operation falls through to the
    /// global allocator (used with recycling off and by standalone tests).
    pub fn disabled() -> Self {
        Self {
            pool: None,
            bins: Vec::new(),
            cap: 0,
            dry_backoff: Vec::new(),
            hits: 0,
            misses: 0,
            recycled: 0,
        }
    }

    /// Whether this magazine participates in recycling.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.pool.is_some()
    }

    /// Allocates a node, preferring a recycled block of `T`'s size class and
    /// falling back to the global allocator.
    #[inline]
    pub fn alloc_node<T: SmrNode>(&mut self, value: T) -> *mut T {
        if self.enabled() {
            if let Some(class) = node_class::<T>() {
                if let Some(addr) = self.pop_block(class) {
                    self.hits += 1;
                    let ptr = addr as *mut T;
                    // SAFETY: blocks in class `class` were allocated with
                    // `class_layout(class)` = `node_layout::<T>()`, hold no
                    // live value (destructors ran before pooling), and are
                    // exclusively owned by this magazine.
                    unsafe { ptr.write(value) };
                    crate::check::on_raw_alloc(ptr as usize);
                    return ptr;
                }
                self.misses += 1;
            }
        }
        alloc_node_raw(value)
    }

    /// Runs the destructor of a node that was never published and recycles
    /// its block (the [`Smr::dealloc_unpublished`](crate::Smr::dealloc_unpublished)
    /// path).
    ///
    /// # Safety
    /// Same contract as [`free_node_raw`].
    #[inline]
    pub unsafe fn free_node<T: SmrNode>(&mut self, ptr: *mut T) {
        crate::check::on_owner_free(ptr as usize);
        core::ptr::drop_in_place(ptr);
        self.release(ptr.cast(), node_layout::<T>());
    }

    /// Accepts a destroyed block back into the pool (or hands it to the
    /// global allocator when recycling is off / the layout is not pooled).
    ///
    /// # Safety
    /// `ptr` must have been allocated with exactly `layout` under the
    /// node-heap ABI, its value must already be destroyed, and the caller
    /// transfers ownership of the block.
    #[inline]
    pub unsafe fn release(&mut self, ptr: *mut u8, layout: Layout) {
        if self.enabled() {
            if let Some(class) = class_for_layout(layout) {
                if layout == class_layout(class) {
                    self.recycled += 1;
                    self.dry_backoff[class] = 0;
                    self.bins[class].push(ptr as usize);
                    if self.bins[class].len() > self.cap {
                        self.spill(class);
                    }
                    return;
                }
            }
        }
        dealloc(ptr, layout);
    }

    #[inline]
    fn pop_block(&mut self, class: usize) -> Option<usize> {
        if let Some(addr) = self.bins[class].pop() {
            return Some(addr);
        }
        if self.dry_backoff[class] > 0 {
            // The depot was empty moments ago and nothing of this class has
            // been released since; skip the lock instead of hammering it
            // once per alloc.
            self.dry_backoff[class] -= 1;
            return None;
        }
        // Bin dry: pull a batch from the depot (amortizes the lock over
        // cap/2 allocations).
        let pool = self.pool.as_ref().expect("pop_block only when enabled");
        pool.refill(class, &mut self.bins[class], (self.cap / 2).max(1));
        let popped = self.bins[class].pop();
        if popped.is_none() {
            self.dry_backoff[class] = DRY_BACKOFF_MISSES;
        }
        popped
    }

    fn spill(&mut self, class: usize) {
        let keep = self.cap / 2;
        self.pool
            .as_ref()
            .expect("spill only when enabled")
            .spill_from(class, &mut self.bins[class], keep);
    }

    /// Returns every cached block to the depot (called at thread
    /// deregistration; also run by `Drop`).
    pub fn flush(&mut self) {
        if let Some(pool) = &self.pool {
            for (class, bin) in self.bins.iter_mut().enumerate() {
                if !bin.is_empty() {
                    pool.spill_from(class, bin, 0);
                }
            }
        }
    }

    /// Merges this magazine's counters into a copy of `stats` (reclaimers
    /// call this from `thread_stats`, keeping the counters off the hot-path
    /// borrow graph).
    pub fn fold_stats(&self, mut stats: ThreadStats) -> ThreadStats {
        stats.pool_hits += self.hits;
        stats.pool_misses += self.misses;
        stats.pool_recycled += self.recycled;
        stats
    }

    /// Recycled-block allocations served so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Pool-eligible allocations that fell through to the global allocator.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Blocks accepted back into the pool so far.
    pub fn recycled(&self) -> u64 {
        self.recycled
    }
}

impl Drop for Magazine {
    fn drop(&mut self) {
        self.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::header::NodeHeader;

    struct Small {
        header: NodeHeader,
        key: u64,
    }
    crate::impl_smr_node!(Small);

    #[repr(align(64))]
    struct OverAligned {
        header: NodeHeader,
    }
    crate::impl_smr_node!(OverAligned);

    struct Huge {
        header: NodeHeader,
        _payload: [u64; 1024],
    }
    crate::impl_smr_node!(Huge);

    fn test_config() -> SmrConfig {
        let mut c = SmrConfig::for_tests();
        c.magazine_cap = 4;
        c.max_threads = 2;
        c
    }

    #[test]
    fn class_rounding_covers_node_sizes() {
        assert_eq!(
            node_class::<Small>(),
            class_for_layout(Layout::new::<Small>())
        );
        let l = node_layout::<Small>();
        // Exact fit: node sizes are 8-byte multiples and must not be
        // inflated (a bigger request inflates the allocator's chunk stride
        // and hurts traversal locality even when the pool is bypassed).
        assert_eq!(l.size(), std::mem::size_of::<Small>());
        assert_eq!(l.align(), BLOCK_ALIGN);
        // Round-trip of every size up to the cap: the class layout covers
        // the request, never by more than one step, and maps back to the
        // same class.
        for size in 1..=MAX_BLOCK {
            let layout = Layout::from_size_align(size, 8).unwrap();
            let class = class_for_layout(layout).expect("covered size");
            assert!(class < CLASS_COUNT);
            let cl = class_layout(class);
            assert!(cl.size() >= size);
            assert!(
                cl.size() - size
                    < if size <= FINE_LIMIT {
                        FINE_STEP
                    } else {
                        COARSE_STEP
                    }
            );
            assert_eq!(class_for_layout(cl), Some(class));
        }
        assert_eq!(
            class_for_layout(Layout::from_size_align(MAX_BLOCK + 1, 8).unwrap()),
            None
        );
    }

    #[test]
    fn over_aligned_and_huge_types_bypass_the_pool() {
        assert_eq!(node_class::<OverAligned>(), None);
        assert_eq!(node_layout::<OverAligned>(), Layout::new::<OverAligned>());
        assert_eq!(node_class::<Huge>(), None);
        // They still allocate and free cleanly through the raw path.
        let p = alloc_node_raw(OverAligned {
            header: NodeHeader::new(),
        });
        unsafe { free_node_raw(p) };
        let h = alloc_node_raw(Huge {
            header: NodeHeader::new(),
            _payload: [0; 1024],
        });
        unsafe { free_node_raw(h) };
    }

    #[test]
    fn magazine_recycles_blocks_by_address() {
        let config = test_config();
        let pool = BlockPool::from_config(&config);
        let mut mag = Magazine::from_config(&pool, &config);
        let p = mag.alloc_node(Small {
            header: NodeHeader::new(),
            key: 1,
        });
        let addr = p as usize;
        unsafe { mag.free_node(p) };
        assert_eq!(mag.recycled(), 1);
        let q = mag.alloc_node(Small {
            header: NodeHeader::new(),
            key: 2,
        });
        assert_eq!(q as usize, addr, "block must be recycled LIFO");
        assert_eq!(mag.hits(), 1);
        assert_eq!(unsafe { (*q).key }, 2);
        unsafe { mag.free_node(q) };
    }

    #[test]
    fn overflow_spills_to_depot_and_refills_cross_magazine() {
        let config = test_config();
        let pool = BlockPool::from_config(&config);
        let mut a = Magazine::from_config(&pool, &config);
        let mut b = Magazine::from_config(&pool, &config);
        let ptrs: Vec<*mut Small> = (0..32)
            .map(|i| {
                a.alloc_node(Small {
                    header: NodeHeader::new(),
                    key: i,
                })
            })
            .collect();
        for p in ptrs {
            unsafe { a.free_node(p) };
        }
        // cap = 4, so the bin must have spilled into the depot.
        assert!(
            pool.depot_len() > 0,
            "magazine overflow must reach the depot"
        );
        // Another thread's magazine refills from the depot.
        let p = b.alloc_node(Small {
            header: NodeHeader::new(),
            key: 99,
        });
        assert_eq!(b.hits(), 1, "depot block must serve the other magazine");
        unsafe { b.free_node(p) };
        let (refills, spills) = pool.transfer_counts();
        assert!(refills > 0 && spills > 0);
    }

    #[test]
    fn depot_bound_returns_overflow_to_the_system() {
        let config = test_config();
        let per_class_cap = config.magazine_cap * config.max_threads + 2 * config.hi_watermark;
        let pool = BlockPool::from_config(&config);
        let mut mag = Magazine::from_config(&pool, &config);
        let ptrs: Vec<*mut Small> = (0..per_class_cap * 3)
            .map(|i| {
                mag.alloc_node(Small {
                    header: NodeHeader::new(),
                    key: i as u64,
                })
            })
            .collect();
        for p in ptrs {
            unsafe { mag.free_node(p) };
        }
        mag.flush();
        let parked = pool.depot_len();
        assert!(
            parked <= per_class_cap,
            "depot must stay within its per-class bound ({parked} > {per_class_cap})"
        );
        assert!(parked > 0, "the bounded depot must still hold a burst");
    }

    #[test]
    fn disabled_magazine_bypasses_the_pool() {
        let mut mag = Magazine::disabled();
        assert!(!mag.enabled());
        let p = mag.alloc_node(Small {
            header: NodeHeader::new(),
            key: 7,
        });
        unsafe { mag.free_node(p) };
        assert_eq!(mag.hits() + mag.misses() + mag.recycled(), 0);
    }

    #[test]
    fn destructors_run_before_blocks_enter_the_pool() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        struct Probed {
            header: NodeHeader,
        }
        impl Drop for Probed {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::SeqCst);
            }
        }
        crate::impl_smr_node!(Probed);

        let config = test_config();
        let pool = BlockPool::from_config(&config);
        let mut mag = Magazine::from_config(&pool, &config);
        let p = mag.alloc_node(Probed {
            header: NodeHeader::new(),
        });
        assert_eq!(DROPS.load(Ordering::SeqCst), 0);
        unsafe { mag.free_node(p) };
        assert_eq!(
            DROPS.load(Ordering::SeqCst),
            1,
            "dtor must run at free time"
        );
    }
}
