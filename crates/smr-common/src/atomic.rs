//! Tagged atomic pointers.
//!
//! Lock-free lists in the paper's evaluation (Harris list, Harris-Michael
//! list) steal the low bit of a node's `next` pointer as the *mark* ("logically
//! deleted") flag. [`Atomic<T>`]/[`Shared<T>`] provide that representation:
//! a `Shared<T>` is a word that packs an (aligned) `*mut T` and a small tag in
//! the low bits, and an `Atomic<T>` is its atomically updatable cell.
//!
//! Unlike `crossbeam_epoch::Atomic`, these types are *reclamation agnostic*:
//! they do not tie loads to a guard. Which loads are safe is governed by the
//! SMR protocol the data structure is instrumented with (see the
//! [`Smr`](crate::Smr) trait); this is exactly the discipline the paper's
//! C++ artifact uses.

use core::fmt;
use core::marker::PhantomData;
use core::sync::atomic::{AtomicUsize, Ordering};

/// Number of low bits available for tags. Nodes are heap allocated and at
/// least 8-byte aligned in every data structure in this workspace, so two tag
/// bits are always available: bit 0 is the Harris mark ([`MARK`]), bit 1 the
/// DGT tree's leaf tag.
pub const TAG_BITS: usize = 2;
/// Mask selecting the tag bits of a packed word.
pub const TAG_MASK: usize = (1 << TAG_BITS) - 1;
/// The Harris mark: set on a node's link when the node is logically deleted.
/// Reclaimers that read tags (HP-POP's oracle mirror) test this bit alone.
pub const MARK: usize = 1;

/// A pointer-with-tag snapshot, as loaded from an [`Atomic<T>`].
///
/// `Shared` is `Copy` and carries no lifetime or guard: dereferencing it is
/// `unsafe` and is only sound while the governing SMR protocol protects the
/// pointee (read phase for NBR, hazard slot for HP, active epoch for EBR, …).
pub struct Shared<T> {
    data: usize,
    _marker: PhantomData<*mut T>,
}

impl<T> Clone for Shared<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for Shared<T> {}

impl<T> PartialEq for Shared<T> {
    fn eq(&self, other: &Self) -> bool {
        self.data == other.data
    }
}
impl<T> Eq for Shared<T> {}

impl<T> fmt::Debug for Shared<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Shared")
            .field("ptr", &(self.untagged_usize() as *const T))
            .field("tag", &self.tag())
            .finish()
    }
}

impl<T> Default for Shared<T> {
    fn default() -> Self {
        Self::null()
    }
}

impl<T> Shared<T> {
    /// The null pointer (tag 0).
    #[inline]
    pub const fn null() -> Self {
        Self {
            data: 0,
            _marker: PhantomData,
        }
    }

    /// Packs a raw pointer (tag 0). The pointer must be aligned to at least
    /// `1 << TAG_BITS` bytes (any heap-allocated node is).
    #[inline]
    pub fn from_raw(ptr: *mut T) -> Self {
        let data = ptr as usize;
        debug_assert_eq!(data & TAG_MASK, 0, "pointer not sufficiently aligned");
        Self {
            data,
            _marker: PhantomData,
        }
    }

    /// Reconstructs a `Shared` from a packed word (pointer | tag).
    #[inline]
    pub fn from_usize(data: usize) -> Self {
        Self {
            data,
            _marker: PhantomData,
        }
    }

    /// The packed word (pointer | tag).
    #[inline]
    pub fn into_usize(self) -> usize {
        self.data
    }

    /// The pointer portion as a usize (tag stripped).
    #[inline]
    pub fn untagged_usize(self) -> usize {
        self.data & !TAG_MASK
    }

    /// The pointer portion (tag stripped).
    #[inline]
    pub fn as_raw(self) -> *mut T {
        self.untagged_usize() as *mut T
    }

    /// The tag in the low bits.
    #[inline]
    pub fn tag(self) -> usize {
        self.data & TAG_MASK
    }

    /// Returns the same pointer with the given tag.
    #[inline]
    pub fn with_tag(self, tag: usize) -> Self {
        debug_assert!(tag <= TAG_MASK);
        Self {
            data: self.untagged_usize() | (tag & TAG_MASK),
            _marker: PhantomData,
        }
    }

    /// True if the pointer portion is null (regardless of tag).
    #[inline]
    pub fn is_null(self) -> bool {
        self.untagged_usize() == 0
    }

    /// Dereferences the (untagged) pointer.
    ///
    /// # Safety
    /// The pointee must be protected from reclamation by the governing SMR
    /// protocol for the duration of the borrow, and must not be null.
    #[inline]
    pub unsafe fn deref<'a>(self) -> &'a T {
        debug_assert!(!self.is_null());
        crate::check::assert_live(self.untagged_usize());
        &*self.as_raw()
    }

    /// Dereferences the (untagged) pointer, returning `None` when null.
    ///
    /// # Safety
    /// Same contract as [`Shared::deref`].
    #[inline]
    pub unsafe fn as_ref<'a>(self) -> Option<&'a T> {
        if self.is_null() {
            None
        } else {
            crate::check::assert_live(self.untagged_usize());
            Some(&*self.as_raw())
        }
    }

    /// Two `Shared`s point to the same record, ignoring tags.
    #[inline]
    pub fn ptr_eq(self, other: Self) -> bool {
        self.untagged_usize() == other.untagged_usize()
    }
}

/// An atomic cell holding a tagged pointer.
pub struct Atomic<T> {
    data: AtomicUsize,
    _marker: PhantomData<*mut T>,
}

// SAFETY: `Atomic<T>` is a word-sized atomic cell; the pointee is only ever
// touched through `Shared::deref`, whose own contract (caller-proved
// protection) carries the burden — so sharing the cell needs no more than
// `T: Send + Sync` for the access it can hand out.
unsafe impl<T: Send + Sync> Send for Atomic<T> {}
// SAFETY: as above — `load`/`store`/`compare_exchange` are atomic.
unsafe impl<T: Send + Sync> Sync for Atomic<T> {}
// SAFETY: `Shared<T>` is a plain tagged pointer value; dereferencing it is
// its own unsafe contract, so the value may move between threads whenever
// `T` itself tolerates shared cross-thread access.
unsafe impl<T: Send + Sync> Send for Shared<T> {}
// SAFETY: as above — `Shared<T>` exposes no interior mutation of its own.
unsafe impl<T: Send + Sync> Sync for Shared<T> {}

impl<T> fmt::Debug for Atomic<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = Shared::<T>::from_usize(self.data.load(Ordering::Relaxed));
        write!(f, "Atomic({:?})", s)
    }
}

impl<T> Default for Atomic<T> {
    fn default() -> Self {
        Self::null()
    }
}

impl<T> Atomic<T> {
    /// A cell holding null.
    pub const fn null() -> Self {
        Self {
            data: AtomicUsize::new(0),
            _marker: PhantomData,
        }
    }

    /// A cell holding `shared`.
    pub fn new(shared: Shared<T>) -> Self {
        Self {
            data: AtomicUsize::new(shared.into_usize()),
            _marker: PhantomData,
        }
    }

    /// A cell holding the given raw pointer (tag 0).
    pub fn from_raw(ptr: *mut T) -> Self {
        Self::new(Shared::from_raw(ptr))
    }

    /// Atomically loads the tagged pointer.
    #[inline]
    pub fn load(&self, order: Ordering) -> Shared<T> {
        crate::check::preempt("atomic.load", self as *const _ as usize);
        Shared::from_usize(self.data.load(order))
    }

    /// The raw atomic word backing this cell, for type-erased helper
    /// protocols (WFE parks the word's address on its help board so a
    /// fulfiller can load it without knowing `T` — and without the
    /// instrumentation preempt point of [`Atomic::load`], which must not
    /// fire inside a lock-held critical section under the deterministic
    /// explorer). The word's encoding is `Shared::into_usize`.
    #[inline]
    pub fn raw_word(&self) -> &AtomicUsize {
        &self.data
    }

    /// Atomically stores the tagged pointer.
    #[inline]
    pub fn store(&self, val: Shared<T>, order: Ordering) {
        crate::check::preempt("atomic.store", self as *const _ as usize);
        self.data.store(val.into_usize(), order);
    }

    /// Atomically swaps the tagged pointer, returning the previous value.
    #[inline]
    pub fn swap(&self, val: Shared<T>, order: Ordering) -> Shared<T> {
        crate::check::preempt("atomic.swap", self as *const _ as usize);
        Shared::from_usize(self.data.swap(val.into_usize(), order))
    }

    /// Compare-and-swap. On failure returns the actual current value.
    #[inline]
    pub fn compare_exchange(
        &self,
        current: Shared<T>,
        new: Shared<T>,
        success: Ordering,
        failure: Ordering,
    ) -> Result<Shared<T>, Shared<T>> {
        crate::check::preempt("atomic.cas", self as *const _ as usize);
        self.data
            .compare_exchange(current.into_usize(), new.into_usize(), success, failure)
            .map(Shared::from_usize)
            .map_err(Shared::from_usize)
    }

    /// Weak compare-and-swap (may fail spuriously); use in retry loops.
    #[inline]
    pub fn compare_exchange_weak(
        &self,
        current: Shared<T>,
        new: Shared<T>,
        success: Ordering,
        failure: Ordering,
    ) -> Result<Shared<T>, Shared<T>> {
        crate::check::preempt("atomic.cas-weak", self as *const _ as usize);
        self.data
            .compare_exchange_weak(current.into_usize(), new.into_usize(), success, failure)
            .map(Shared::from_usize)
            .map_err(Shared::from_usize)
    }

    /// Atomically ORs tag bits into the word (e.g. setting the Harris mark).
    /// Returns the previous value.
    #[inline]
    pub fn fetch_or_tag(&self, tag: usize, order: Ordering) -> Shared<T> {
        crate::check::preempt("atomic.fetch-or-tag", self as *const _ as usize);
        Shared::from_usize(self.data.fetch_or(tag & TAG_MASK, order))
    }

    /// Consumes the cell, returning the held pointer.
    pub fn into_shared(self) -> Shared<T> {
        Shared::from_usize(self.data.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::Ordering::{AcqRel, Acquire, Relaxed, Release, SeqCst};

    #[test]
    fn null_roundtrip() {
        let s = Shared::<u64>::null();
        assert!(s.is_null());
        assert_eq!(s.tag(), 0);
        assert!(s.as_raw().is_null());
        assert!(unsafe { s.as_ref() }.is_none());
    }

    #[test]
    fn tag_packing_roundtrip() {
        let b = Box::into_raw(Box::new(7u64));
        let s = Shared::from_raw(b);
        assert_eq!(s.tag(), 0);
        let m = s.with_tag(1);
        assert_eq!(m.tag(), 1);
        assert_eq!(m.as_raw(), b);
        assert!(m.ptr_eq(s));
        assert_ne!(m, s);
        assert_eq!(m.with_tag(0), s);
        unsafe { drop(Box::from_raw(b)) };
    }

    #[test]
    fn null_with_tag_is_still_null() {
        let s = Shared::<u64>::null().with_tag(1);
        assert!(s.is_null());
        assert_eq!(s.tag(), 1);
    }

    #[test]
    fn atomic_load_store_swap() {
        let b = Box::into_raw(Box::new(1u64));
        let c = Box::into_raw(Box::new(2u64));
        let a = Atomic::from_raw(b);
        assert_eq!(a.load(Acquire).as_raw(), b);
        a.store(Shared::from_raw(c), Release);
        assert_eq!(a.load(Acquire).as_raw(), c);
        let old = a.swap(Shared::null(), AcqRel);
        assert_eq!(old.as_raw(), c);
        assert!(a.load(Relaxed).is_null());
        unsafe {
            drop(Box::from_raw(b));
            drop(Box::from_raw(c));
        }
    }

    #[test]
    fn atomic_cas_success_and_failure() {
        let b = Box::into_raw(Box::new(1u64));
        let c = Box::into_raw(Box::new(2u64));
        let a = Atomic::from_raw(b);
        let cur = a.load(Acquire);
        assert!(a
            .compare_exchange(cur, Shared::from_raw(c), SeqCst, Relaxed)
            .is_ok());
        // Second CAS with the stale expected value must fail and report the
        // actual current value.
        let err = a
            .compare_exchange(cur, Shared::null(), SeqCst, Relaxed)
            .unwrap_err();
        assert_eq!(err.as_raw(), c);
        unsafe {
            drop(Box::from_raw(b));
            drop(Box::from_raw(c));
        }
    }

    #[test]
    fn fetch_or_tag_marks_pointer() {
        let b = Box::into_raw(Box::new(5u64));
        let a = Atomic::from_raw(b);
        let prev = a.fetch_or_tag(1, SeqCst);
        assert_eq!(prev.tag(), 0);
        let now = a.load(Acquire);
        assert_eq!(now.tag(), 1);
        assert_eq!(now.as_raw(), b);
        unsafe { drop(Box::from_raw(b)) };
    }

    #[test]
    fn deref_reads_pointee() {
        let b = Box::into_raw(Box::new(99u64));
        let s = Shared::from_raw(b).with_tag(1);
        assert_eq!(unsafe { *s.deref() }, 99);
        unsafe { drop(Box::from_raw(b)) };
    }
}
