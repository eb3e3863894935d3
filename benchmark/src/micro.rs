//! Micro-loops: direct back-to-back calls of one layer's public functions.
//!
//! A 1 ns hook cannot be timed with a 20 ns clock from inside a traced op,
//! so the per-call cost of the cheap layers comes from here: `iters` calls
//! between one clock pair, the median of `reps` repeats. These numbers omit
//! everything the op path adds (cold lines, the other thread), which is why
//! they are per-layer metrics and carry no bound.

use crate::driver;
use crate::gen::Workload;
use crate::histo::Histo;
use crate::traced::now_ns;
use conc_ds::ConcurrentSet;
use smr_baselines::Leaky;
use smr_common::{
    Atomic, BlockPool, LimboBag, Magazine, NodeHeader, PingChannel, PingOutcome, Registry, Retired,
    Smr, SmrConfig, ThreadStats,
};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::Duration;

/// How much work each micro-loop does.
#[derive(Debug, Clone, Copy)]
pub struct MicroCfg {
    pub iters: usize,
    pub reps: usize,
}

impl MicroCfg {
    pub const FULL: MicroCfg = MicroCfg {
        iters: 1_000_000,
        reps: 5,
    };
    pub const SMOKE: MicroCfg = MicroCfg {
        iters: 50_000,
        reps: 3,
    };
}

/// A list-node-sized record (header + key + link = 24 bytes, the lazy list's
/// pooled size class is the next one up).
struct Node {
    header: NodeHeader,
    #[allow(dead_code)]
    key: u64,
    #[allow(dead_code)]
    next: usize,
}
smr_common::impl_smr_node!(Node);

fn node(key: u64) -> Node {
    Node {
        header: NodeHeader::new(),
        key,
        next: 0,
    }
}

fn median(v: Vec<f64>) -> f64 {
    crate::report::quartiles(&v).1
}

/// `protect` + `checkpoint` per hop on a quiescent single-thread instance,
/// inside an open read phase (what a traversal pays per pointer followed).
pub fn per_hop_ns<S: Smr>(cfg: MicroCfg) -> f64 {
    let smr = S::new(SmrConfig::default());
    let mut ctx = smr.register(0);
    let target = smr.alloc(&mut ctx, node(1));
    let src = Atomic::new(target);
    smr.begin_op(&mut ctx);
    smr.begin_read_phase(&mut ctx);
    let ns = median(
        (0..cfg.reps)
            .map(|_| {
                let t0 = now_ns();
                for i in 0..cfg.iters {
                    black_box(smr.protect(&mut ctx, i & 1, black_box(&src)));
                    black_box(smr.checkpoint(&mut ctx));
                }
                (now_ns() - t0) as f64 / cfg.iters as f64
            })
            .collect(),
    );
    smr.end_read_phase(&mut ctx, &[]);
    smr.clear_protections(&mut ctx);
    smr.end_op(&mut ctx);
    // SAFETY: `target` came from `smr.alloc` above and was only ever
    // reachable through the local `src`.
    unsafe { smr.dealloc_unpublished(&mut ctx, target) };
    smr.unregister(&mut ctx);
    ns
}

/// `limbo.*`: ns per record for staging (amortised flush included) and for
/// the sorted-reservation sweep NBR+ and HP run (one binary search per
/// record): against a two-thread reservation snapshot that names none of the
/// records, so all are freed into the magazine, and against one that names
/// every record, so all are kept.
pub struct LimboCosts {
    pub stage_ns: f64,
    pub sweep_ns_per_record: f64,
    pub sweep_keep_ns_per_record: f64,
}

pub fn limbo(cfg: MicroCfg) -> LimboCosts {
    const BAG: usize = 1024;
    let config = SmrConfig::default();
    let pool = BlockPool::from_config(&config);
    let mut mag = Magazine::from_config(&pool, &config);
    let mut stats = ThreadStats::default();
    let rounds = (cfg.iters / BAG).max(1);
    // 2 threads × `max_reservations` addresses no node can have (odd).
    let foreign: Vec<usize> = (0..2 * config.max_reservations)
        .map(|i| 2 * i + 1)
        .collect();
    let (mut stage, mut sweep, mut keep) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..cfg.reps {
        let (mut stage_ns, mut sweep_ns, mut keep_ns) = (0, 0, 0);
        let mut bag =
            LimboBag::with_capacity_and_batch(config.hi_watermark + 1, config.retire_batch_cap());
        for _ in 0..rounds {
            let nodes: Vec<*mut Node> = (0..BAG).map(|i| mag.alloc_node(node(i as u64))).collect();
            let mut all: Vec<usize> = nodes.iter().map(|&p| p as usize).collect();
            all.sort_unstable();
            let t0 = now_ns();
            for &p in &nodes {
                // SAFETY: `p` is a live node-heap allocation owned by this
                // loop, staged exactly once.
                black_box(bag.stage(unsafe { Retired::new(p, 0) }));
            }
            let t1 = now_ns();
            // SAFETY: no other thread ever saw these records, and a snapshot
            // naming all of them frees nothing.
            let kept = unsafe {
                bag.reclaim_prefix_unreserved(usize::MAX, black_box(&all), &mut stats, &mut mag)
            };
            let t2 = now_ns();
            // SAFETY: as above — every record is exclusively owned here.
            let freed = unsafe {
                bag.reclaim_prefix_unreserved(usize::MAX, black_box(&foreign), &mut stats, &mut mag)
            };
            let t3 = now_ns();
            assert_eq!((kept, freed), (0, BAG));
            stage_ns += t1 - t0;
            keep_ns += t2 - t1;
            sweep_ns += t3 - t2;
        }
        let records = (rounds * BAG) as f64;
        stage.push(stage_ns as f64 / records);
        keep.push(keep_ns as f64 / records);
        sweep.push(sweep_ns as f64 / records);
    }
    LimboCosts {
        stage_ns: median(stage),
        sweep_ns_per_record: median(sweep),
        sweep_keep_ns_per_record: median(keep),
    }
}

/// `recycle.*`: ns per call on a `Magazine` over its `BlockPool` depot.
pub struct RecycleCosts {
    pub alloc_hit_ns: f64,
    pub alloc_miss_ns: f64,
    pub free_ns: f64,
    pub spill_ns_per_block: f64,
}

pub fn recycle(cfg: MicroCfg) -> RecycleCosts {
    let config = SmrConfig::default();
    let (mut hit, mut miss, mut free, mut spill) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for _ in 0..cfg.reps {
        // Hit / free: a warm magazine cycling fewer blocks than its cap, so
        // neither a refill nor a spill ever runs.
        let pool = BlockPool::from_config(&config);
        let mut mag = Magazine::from_config(&pool, &config);
        let batch = config.magazine_cap - config.magazine_cap / 4;
        let mut held: Vec<*mut Node> = (0..batch).map(|i| mag.alloc_node(node(i as u64))).collect();
        // SAFETY (all `free_node` calls below): every pointer in `held` came
        // from `alloc_node` on this magazine, is exclusively owned, and is
        // freed exactly once.
        held.drain(..).for_each(|p| unsafe { mag.free_node(p) });
        let rounds = (cfg.iters / batch).max(1);
        let (mut hit_ns, mut free_ns) = (0, 0);
        for _ in 0..rounds {
            let t0 = now_ns();
            for i in 0..batch {
                held.push(mag.alloc_node(node(i as u64)));
            }
            let t1 = now_ns();
            for &p in &held {
                unsafe { mag.free_node(p) };
            }
            let t2 = now_ns();
            held.clear();
            hit_ns += t1 - t0;
            free_ns += t2 - t1;
        }
        assert_eq!(mag.misses(), batch as u64, "only the warm-up may miss");
        hit.push(hit_ns as f64 / (rounds * batch) as f64);
        free.push(free_ns as f64 / (rounds * batch) as f64);

        // Miss: an empty magazine over an empty depot; every alloc falls
        // through to the global allocator. Blocks go back to the allocator
        // directly so the pool stays empty.
        let pool = BlockPool::from_config(&config);
        let mut mag = Magazine::from_config(&pool, &config);
        const MISS_BATCH: usize = 4096;
        let rounds = (cfg.iters / MISS_BATCH).max(1);
        let mut miss_ns = 0;
        for _ in 0..rounds {
            let t0 = now_ns();
            for i in 0..MISS_BATCH {
                held.push(mag.alloc_node(node(i as u64)));
            }
            miss_ns += now_ns() - t0;
            // SAFETY: node-heap allocations owned by this loop.
            held.drain(..)
                .for_each(|p| unsafe { smr_common::recycle::free_node_raw(p) });
        }
        assert_eq!(mag.hits(), 0);
        miss.push(miss_ns as f64 / (rounds * MISS_BATCH) as f64);

        // Spill: a free burst well past `magazine_cap` (what a reclamation
        // sweep does to the magazine): every `cap/2` frees move half the bin
        // into the depot under its mutex. The burst fits the depot's bound.
        let burst = 8 * config.magazine_cap;
        let rounds = (cfg.iters / burst).max(1);
        let mut spill_ns = 0;
        for _ in 0..rounds {
            let pool = BlockPool::from_config(&config);
            let mut mag = Magazine::from_config(&pool, &config);
            held.extend((0..burst).map(|i| mag.alloc_node(node(i as u64))));
            let t0 = now_ns();
            for &p in &held {
                unsafe { mag.free_node(p) };
            }
            spill_ns += now_ns() - t0;
            held.clear();
            assert!(pool.transfer_counts().1 > 0, "the burst must have spilled");
        }
        spill.push(spill_ns as f64 / (rounds * burst) as f64);
    }
    RecycleCosts {
        alloc_hit_ns: median(hit),
        alloc_miss_ns: median(miss),
        free_ns: median(free),
        spill_ns_per_block: median(spill),
    }
}

/// `ping.*`: round-trip of one `ping_all` + `await_acks` to a single peer.
pub struct PingCosts {
    pub rtt_ns_p50: f64,
    pub rtt_ns_p99: f64,
    pub rtt_parked_ns_p50: f64,
}

/// Round-trips to a peer that acks from a tight `poll` loop (`parked` =
/// false) or from a `yield_now` loop (the `tree_stall` reader's shape).
fn ping_rtts(rounds: usize, parked: bool) -> Histo {
    let ch = PingChannel::new(2, 0);
    let reg = Registry::new(2);
    assert!(reg.register_tid(0) && reg.register_tid(1));
    let stop = AtomicBool::new(false);
    let start = Barrier::new(2);
    let mut rtt = Histo::default();
    std::thread::scope(|sc| {
        let peer = sc.spawn(|| {
            start.wait();
            while !stop.load(Ordering::Acquire) {
                if let Some(seq) = ch.poll(1) {
                    ch.ack(1, seq);
                }
                if parked {
                    std::thread::yield_now();
                } else {
                    std::hint::spin_loop();
                }
            }
        });
        start.wait();
        for _ in 0..rounds {
            let t0 = now_ns();
            let (seq, sent) = ch.ping_all(0, &reg);
            let outcome = ch.await_acks(0, seq, &reg, usize::MAX, |_| false, || {});
            rtt.record(now_ns() - t0);
            assert_eq!((sent, outcome), (1, PingOutcome::AllAcked));
        }
        stop.store(true, Ordering::Release);
        peer.join().expect("ping peer panicked");
    });
    rtt
}

pub fn ping(cfg: MicroCfg) -> PingCosts {
    // A round trip is ~100× a magazine pop: a fifth of the iterations keeps
    // this loop at a comparable wall time and still leaves p99 two thousand
    // samples beyond it.
    let rounds = (cfg.iters / 5).max(1_000);
    let tight = ping_rtts(rounds, false);
    let parked = ping_rtts(rounds, true);
    PingCosts {
        rtt_ns_p50: tight.quantile(0.5),
        rtt_ns_p99: tight.quantile(0.99),
        rtt_parked_ns_p50: parked.quantile(0.5),
    }
}

/// A set that does nothing: what is left of an op is the driver's own loop
/// (ring read, decode, dispatch, sampling countdown, counters).
struct NullSet {
    smr: Leaky,
}

impl ConcurrentSet<Leaky> for NullSet {
    fn smr(&self) -> &Leaky {
        &self.smr
    }
    fn contains(&self, _: &mut <Leaky as Smr>::ThreadCtx, key: u64) -> bool {
        black_box(key) & 1 == 0
    }
    fn insert(&self, _: &mut <Leaky as Smr>::ThreadCtx, key: u64) -> bool {
        black_box(key) & 1 == 0
    }
    fn remove(&self, _: &mut <Leaky as Smr>::ThreadCtx, key: u64) -> bool {
        black_box(key) & 1 == 0
    }
    fn size(&self, _: &mut <Leaky as Smr>::ThreadCtx) -> usize {
        0
    }
    fn name() -> &'static str {
        "null"
    }
}

/// `driver.loop_ns_per_op`: one worker replaying thread 0's ring into
/// [`NullSet`] (sampled ops pay their clock pair, as in a real slice).
pub fn driver_loop_ns_per_op(w: &Workload, rings: &[Vec<u64>], cfg: MicroCfg) -> f64 {
    let set = NullSet {
        smr: Leaky::new(SmrConfig::default()),
    };
    let solo = Workload {
        stalled_reader: false,
        ..*w
    };
    // ~2.5 ns per op: about `iters` × 8 ops per repeat.
    let dur = Duration::from_micros((cfg.iters / 50) as u64);
    median(
        (0..cfg.reps)
            .map(|_| {
                let slice =
                    driver::run_slice(&set, &solo, &rings[..1], dur).expect("null-set slice");
                slice.worker_ns / slice.counts.total() as f64
            })
            .collect(),
    )
}

/// Every micro-loop of one traced run.
pub struct MicroOut {
    pub loop_ns_per_op: f64,
    pub per_hop_ns: [f64; 3],
    pub limbo: LimboCosts,
    pub recycle: RecycleCosts,
    pub ping: PingCosts,
}

pub fn run_all(w: &Workload, rings: &[Vec<u64>], cfg: MicroCfg) -> MicroOut {
    MicroOut {
        loop_ns_per_op: driver_loop_ns_per_op(w, rings, cfg),
        per_hop_ns: [
            per_hop_ns::<nbr::NbrPlus>(cfg),
            per_hop_ns::<smr_baselines::Debra>(cfg),
            per_hop_ns::<smr_baselines::HazardPointers>(cfg),
        ],
        limbo: limbo(cfg),
        recycle: recycle(cfg),
        ping: ping(cfg),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn micro_loops_run_at_smoke_scale_and_report_positive_costs() {
        let cfg = MicroCfg {
            iters: 20_000,
            reps: 3,
        };
        let l = limbo(cfg);
        assert!(
            l.stage_ns > 0.0 && l.sweep_ns_per_record > 0.0 && l.sweep_keep_ns_per_record > 0.0
        );
        let r = recycle(cfg);
        assert!(
            r.alloc_hit_ns > 0.0
                && r.alloc_miss_ns > 0.0
                && r.free_ns > 0.0
                && r.spill_ns_per_block > 0.0
        );
        assert!(per_hop_ns::<smr_baselines::HazardPointers>(cfg) > 0.0);
        let w = crate::gen::workload("tree_stall").unwrap();
        let inputs = driver::make_inputs(w, 1);
        assert!(driver_loop_ns_per_op(w, &inputs.rings, cfg) > 0.0);
    }

    #[test]
    fn ping_round_trips_complete() {
        let p = ping(MicroCfg {
            iters: 5_000,
            reps: 1,
        });
        assert!(p.rtt_ns_p50 > 0.0 && p.rtt_ns_p99 >= p.rtt_ns_p50 && p.rtt_parked_ns_p50 > 0.0);
    }
}
