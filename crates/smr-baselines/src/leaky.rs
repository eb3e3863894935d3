//! The "none" reclaimer: retire is a no-op in the sense that nothing is ever
//! freed while the benchmark runs.
//!
//! The paper's evaluation includes a *leaky* configuration as the upper bound
//! on throughput — it pays no reclamation cost at all, at the price of
//! unbounded memory. To keep the test-suite and examples leak-free, retired
//! records are still tracked and destroyed when the reclaimer itself is
//! dropped (i.e. after every participating thread has finished), which costs
//! nothing on the hot path.

use smr_common::{
    Magazine, ReclaimCore, ReclaimLocal, Retired, Shared, Smr, SmrConfig, SmrNode, ThreadStats,
};

/// Per-thread context for [`Leaky`].
pub struct LeakyCtx {
    local: ReclaimLocal,
}

/// The leaky ("none") reclaimer.
pub struct Leaky {
    core: ReclaimCore,
}

impl Smr for Leaky {
    type ThreadCtx = LeakyCtx;

    const NAME: &'static str = "none";

    fn new(config: SmrConfig) -> Self {
        Self {
            core: ReclaimCore::new(config),
        }
    }

    fn config(&self) -> &SmrConfig {
        self.core.config()
    }

    fn register(&self, tid: usize) -> LeakyCtx {
        LeakyCtx {
            local: self.core.register(tid),
        }
    }

    fn unregister(&self, ctx: &mut LeakyCtx) {
        // Everything retired is orphaned: the records are destroyed when the
        // reclaimer drops, i.e. after the structure is gone.
        self.core.unregister(&mut ctx.local);
    }

    #[inline]
    fn magazine_mut<'a>(&self, ctx: &'a mut LeakyCtx) -> Option<&'a mut Magazine> {
        Some(&mut ctx.local.mag)
    }

    unsafe fn retire<T: SmrNode>(&self, ctx: &mut LeakyCtx, ptr: Shared<T>) {
        debug_assert!(!ptr.is_null());
        // Nothing is ever swept here, so the cue is ignored: the retire
        // skeleton only counts the record and tracks the peak limbo.
        self.core
            .retire(&mut ctx.local, Retired::new(ptr.as_raw(), 0));
    }

    #[inline]
    fn validation_stamp(&self, _ctx: &mut LeakyCtx) -> Option<u64> {
        // Trivially sound: the leaky reclaimer never frees during the run,
        // so any constant stamp validates.
        self.core.config().memo.then_some(0)
    }

    fn thread_stats(&self, ctx: &LeakyCtx) -> ThreadStats {
        ctx.local.stats_snapshot()
    }

    fn thread_stats_mut<'a>(&self, ctx: &'a mut LeakyCtx) -> &'a mut ThreadStats {
        &mut ctx.local.stats
    }

    fn limbo_len(&self, ctx: &LeakyCtx) -> usize {
        ctx.local.limbo.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smr_common::NodeHeader;

    struct Node {
        header: NodeHeader,
        #[allow(dead_code)]
        key: u64,
    }
    smr_common::impl_smr_node!(Node);

    #[test]
    fn never_frees_during_operation() {
        let smr = Leaky::new(SmrConfig::for_tests());
        let mut ctx = smr.register(0);
        for i in 0..100 {
            let p = smr.alloc(
                &mut ctx,
                Node {
                    header: NodeHeader::new(),
                    key: i,
                },
            );
            unsafe { smr.retire(&mut ctx, p) };
        }
        assert_eq!(smr.thread_stats(&ctx).frees, 0);
        assert_eq!(smr.limbo_len(&ctx), 100);
        smr.unregister(&mut ctx);
        assert_eq!(
            smr.thread_stats(&ctx).frees,
            0,
            "unregister must not free either"
        );
    }

    #[test]
    fn drop_releases_everything() {
        let smr = Leaky::new(SmrConfig::for_tests());
        let mut ctx = smr.register(0);
        for i in 0..10 {
            let p = smr.alloc(
                &mut ctx,
                Node {
                    header: NodeHeader::new(),
                    key: i,
                },
            );
            unsafe { smr.retire(&mut ctx, p) };
        }
        smr.unregister(&mut ctx);
        drop(smr); // would be reported by leak checkers if it leaked
    }

    #[test]
    fn stats_track_retires() {
        let smr = Leaky::new(SmrConfig::for_tests());
        let mut ctx = smr.register(3);
        let p = smr.alloc(
            &mut ctx,
            Node {
                header: NodeHeader::new(),
                key: 0,
            },
        );
        unsafe { smr.retire(&mut ctx, p) };
        let s = smr.thread_stats(&ctx);
        assert_eq!(s.allocs, 1);
        assert_eq!(s.retires, 1);
        assert_eq!(s.outstanding(), 1);
        smr.unregister(&mut ctx);
    }
}
