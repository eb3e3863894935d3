//! The per-thread protection slots every reservation-publishing reclaimer
//! shares: NBR's reservations array (Algorithm 1, line 5), HP's and
//! HP-POP's hazards, HE's and WFE's era announcements.
//!
//! A [`SlotBlock`] is one allocation of `max_threads` rows. Each row is one
//! [`CachePadded`] line of [`SLOTS_PER_THREAD`] words, so a row starts on a
//! 128-byte boundary and no two threads' slots share a line. Schemes read
//! the first `max_reservations` words of a row; the rest stay zero.

use crate::check;
use crate::pad::CachePadded;
use crate::registry::Registry;
use crate::smr::SmrConfig;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Words in one row: sixteen 8-byte words fill one 128-byte pad unit
/// exactly, which is the cap on [`SmrConfig::max_reservations`].
pub const SLOTS_PER_THREAD: usize = 16;

/// One line-aligned row of single-writer slots per thread. A zero slot is
/// empty.
pub struct SlotBlock {
    rows: Box<[CachePadded<[AtomicUsize; SLOTS_PER_THREAD]>]>,
    width: usize,
}

impl SlotBlock {
    /// `config.max_threads` rows of `config.max_reservations` slots, all
    /// empty. The config must have passed [`SmrConfig::validate`].
    pub fn new(config: &SmrConfig) -> Self {
        let rows = (0..config.max_threads)
            .map(|_| CachePadded::new(std::array::from_fn(|_| AtomicUsize::new(0))))
            .collect();
        Self {
            rows,
            width: config.max_reservations,
        }
    }

    /// Thread `tid`'s slots.
    #[inline]
    pub fn of(&self, tid: usize) -> &[AtomicUsize] {
        &self.rows[tid][..self.width]
    }

    /// Withdraws every protection `tid` announced. The oracle's mirrored
    /// claims drop first, so they stay a subset of the real slots. Slots
    /// already empty are not stored to; `Release` is enough because a
    /// scanner that still sees a stale value only keeps a record longer.
    #[inline]
    pub fn clear(&self, tid: usize) {
        check::clear_claims(tid);
        for s in self.of(tid) {
            if s.load(Ordering::Relaxed) != 0 {
                s.store(0, Ordering::Release);
            }
        }
    }

    /// Publishes `values` into `tid`'s row, zeroing the slots past its end.
    /// A slot that already holds its value is not stored to: the row is
    /// single-writer, so that earlier store is still the slot's latest, and
    /// a reader that synchronizes with a later step of the owner sees it.
    /// `Release` is enough for callers whose readers trust the row only
    /// after a later `SeqCst` step of the owner.
    #[inline]
    pub fn publish(&self, tid: usize, values: &[usize]) {
        let slots = self.of(tid);
        assert!(
            values.len() <= slots.len(),
            "too many reservations: {} > max_reservations {}",
            values.len(),
            slots.len()
        );
        for (i, s) in slots.iter().enumerate() {
            let value = values.get(i).copied().unwrap_or(0);
            if s.load(Ordering::Relaxed) != value {
                s.store(value, Ordering::Release);
            }
        }
    }

    /// Pushes every non-empty slot of every active thread except `skip`
    /// onto `out`, with `Acquire` loads. The caller supplies whatever fence
    /// its scan argument needs before the call.
    pub fn collect_into(&self, registry: &Registry, skip: Option<usize>, out: &mut Vec<usize>) {
        for tid in registry.active_tids() {
            if Some(tid) == skip {
                continue;
            }
            for s in self.of(tid) {
                let value = s.load(Ordering::Acquire);
                if value != 0 {
                    out.push(value);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block(threads: usize) -> SlotBlock {
        SlotBlock::new(&SmrConfig::for_tests().with_max_threads(threads))
    }

    #[test]
    fn rows_are_line_aligned_and_line_apart() {
        let b = block(4);
        assert_eq!(b.of(0).len(), SmrConfig::for_tests().max_reservations);
        for tid in 0..4 {
            assert_eq!(b.of(tid).as_ptr() as usize % 128, 0, "row {tid}");
        }
        for tid in 1..4 {
            let gap = b.of(tid).as_ptr() as usize - b.of(tid - 1).as_ptr() as usize;
            assert!(gap >= 128, "rows {} and {tid} are {gap} B apart", tid - 1);
        }
    }

    #[test]
    fn publish_zero_fills_the_row_and_clear_zeroes_it() {
        let b = block(2);
        let row = |tid: usize| -> Vec<usize> {
            b.of(tid)
                .iter()
                .map(|s| s.load(Ordering::Relaxed))
                .collect()
        };
        b.publish(1, &[0x10, 0x20, 0x30, 0x40]);
        b.publish(1, &[0x50, 0x20]);
        assert_eq!(row(1), [0x50, 0x20, 0, 0]);
        b.publish(0, &[0x60]);
        b.clear(1);
        assert_eq!(row(1), [0; 4]);
        assert_eq!(row(0), [0x60, 0, 0, 0], "other rows kept");
    }

    #[test]
    #[should_panic(expected = "too many reservations")]
    fn publish_rejects_more_values_than_slots() {
        block(1).publish(0, &[1; 5]);
    }

    #[test]
    fn collect_skips_empty_slots_the_skipped_tid_and_inactive_tids() {
        let b = block(4);
        let registry = Registry::new(4);
        for tid in 0..3 {
            assert!(registry.register_tid(tid));
        }
        b.of(0)[1].store(0x10, Ordering::Relaxed);
        b.of(1)[0].store(0x20, Ordering::Relaxed);
        b.of(1)[3].store(0x30, Ordering::Relaxed);
        b.of(2)[0].store(0x40, Ordering::Relaxed);
        b.of(3)[0].store(0x50, Ordering::Relaxed); // tid 3 never registered
        let mut out = Vec::new();
        b.collect_into(&registry, Some(2), &mut out);
        assert_eq!(out, vec![0x10, 0x20, 0x30]);
        out.clear();
        b.collect_into(&registry, None, &mut out);
        assert_eq!(out, vec![0x10, 0x20, 0x30, 0x40]);
    }
}
