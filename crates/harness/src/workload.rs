//! Workload specification and key generation.
//!
//! The paper's evaluation (Section 7) sweeps three operation mixes —
//! update-intensive (50% insert / 50% delete), balanced (25/25/50) and
//! search-intensive (5/5/90) — over several key-range sizes, prefilling each
//! structure to half the key range before the timed trial. [`WorkloadMix`] and
//! [`WorkloadSpec`] encode exactly those parameters; keys are drawn
//! uniformly.

use rand::distributions::{Distribution, Uniform};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

/// Fractions of each operation type, in percent. The remainder of
/// `insert + remove` is `contains`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkloadMix {
    /// Percentage of insert operations.
    pub insert_pct: u8,
    /// Percentage of remove operations.
    pub remove_pct: u8,
}

impl WorkloadMix {
    /// 50% insert / 50% delete (the paper's "update-intensive" mix).
    pub const UPDATE_HEAVY: Self = Self {
        insert_pct: 50,
        remove_pct: 50,
    };
    /// 25% insert / 25% delete / 50% search ("balanced").
    pub const BALANCED: Self = Self {
        insert_pct: 25,
        remove_pct: 25,
    };
    /// 5% insert / 5% delete / 90% search ("search-intensive").
    pub const READ_HEAVY: Self = Self {
        insert_pct: 5,
        remove_pct: 5,
    };

    /// Creates a mix, checking that the percentages are sane.
    pub fn new(insert_pct: u8, remove_pct: u8) -> Self {
        assert!(insert_pct as u16 + remove_pct as u16 <= 100);
        Self {
            insert_pct,
            remove_pct,
        }
    }

    /// Percentage of contains operations.
    pub fn contains_pct(&self) -> u8 {
        100 - self.insert_pct - self.remove_pct
    }

    /// The label the paper uses for this mix (e.g. `50i-50d`).
    pub fn label(&self) -> String {
        format!("{}i-{}d", self.insert_pct, self.remove_pct)
    }
}

/// When a trial stops.
#[derive(Debug, Clone, Copy)]
pub enum StopCondition {
    /// Run for a fixed wall-clock duration (the paper runs 5-second trials).
    Duration(Duration),
    /// Run until the given total number of operations has completed across all
    /// threads (a deterministic amount of work per trial).
    TotalOps(u64),
}

/// A complete benchmark configuration for one trial.
#[derive(Debug, Clone)]
pub struct WorkloadSpec {
    /// Operation mix.
    pub mix: WorkloadMix,
    /// Keys are drawn uniformly from `1..=key_range`.
    pub key_range: u64,
    /// Number of keys inserted before the timed portion (the paper prefills to
    /// half the key range).
    pub prefill: u64,
    /// Number of worker threads.
    pub threads: usize,
    /// Stop condition for the timed portion.
    pub stop: StopCondition,
    /// Optional stalled thread (experiment E2): one extra thread that begins an
    /// operation and then sleeps for the entire trial.
    pub stalled_thread: bool,
    /// Seed for the per-thread RNGs (trials are reproducible given a seed).
    pub seed: u64,
    /// Optional fault-injection plan (stalls, departures, black-holed
    /// pings); `None` runs the trial fault-free.
    pub fault_plan: Option<std::sync::Arc<crate::fault::FaultPlan>>,
}

impl WorkloadSpec {
    /// A specification with the paper's defaults: prefill to half the key
    /// range, no stalled thread.
    pub fn new(mix: WorkloadMix, key_range: u64, threads: usize, stop: StopCondition) -> Self {
        Self {
            mix,
            key_range,
            prefill: key_range / 2,
            threads,
            stop,
            stalled_thread: false,
            seed: 0x5EED_0BAD_F00D,
            fault_plan: None,
        }
    }

    /// Enables the E2 stalled-thread scenario.
    pub fn with_stalled_thread(mut self, stalled: bool) -> Self {
        self.stalled_thread = stalled;
        self
    }

    /// Overrides the prefill size.
    pub fn with_prefill(mut self, prefill: u64) -> Self {
        self.prefill = prefill;
        self
    }

    /// Attaches a fault-injection plan (see [`crate::fault`]).
    pub fn with_fault_plan(mut self, plan: crate::fault::FaultPlan) -> Self {
        self.fault_plan = Some(std::sync::Arc::new(plan));
        self
    }
}

/// One thread's operation generator.
pub struct OpGenerator {
    rng: SmallRng,
    keys: Uniform<u64>,
    insert_threshold: u8,
    remove_threshold: u8,
}

/// A single generated operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Insert the key.
    Insert(u64),
    /// Remove the key.
    Remove(u64),
    /// Look the key up.
    Contains(u64),
}

impl OpGenerator {
    /// Creates the generator for one worker thread.
    pub fn new(spec: &WorkloadSpec, thread_id: usize) -> Self {
        Self {
            rng: SmallRng::seed_from_u64(spec.seed ^ (0x9E37_79B9 * (thread_id as u64 + 1))),
            keys: Uniform::new_inclusive(1, spec.key_range.max(1)),
            insert_threshold: spec.mix.insert_pct,
            remove_threshold: spec.mix.insert_pct + spec.mix.remove_pct,
        }
    }

    /// Draws the next operation.
    #[inline]
    pub fn next_op(&mut self) -> Op {
        let key = self.next_key();
        let roll: u8 = self.rng.gen_range(0..100);
        if roll < self.insert_threshold {
            Op::Insert(key)
        } else if roll < self.remove_threshold {
            Op::Remove(key)
        } else {
            Op::Contains(key)
        }
    }

    /// Draws a key only (used for prefilling).
    #[inline]
    pub fn next_key(&mut self) -> u64 {
        self.keys.sample(&mut self.rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_percentages_add_up() {
        assert_eq!(WorkloadMix::UPDATE_HEAVY.contains_pct(), 0);
        assert_eq!(WorkloadMix::BALANCED.contains_pct(), 50);
        assert_eq!(WorkloadMix::READ_HEAVY.contains_pct(), 90);
        assert_eq!(WorkloadMix::UPDATE_HEAVY.label(), "50i-50d");
    }

    #[test]
    #[should_panic]
    fn overfull_mix_rejected() {
        let _ = WorkloadMix::new(80, 30);
    }

    #[test]
    fn generator_respects_mix_roughly() {
        let spec = WorkloadSpec::new(WorkloadMix::BALANCED, 1000, 1, StopCondition::TotalOps(1));
        let mut g = OpGenerator::new(&spec, 0);
        let mut ins = 0;
        let mut rem = 0;
        let mut con = 0;
        let n = 20_000;
        for _ in 0..n {
            match g.next_op() {
                Op::Insert(k) | Op::Remove(k) | Op::Contains(k) if k == 0 || k > 1000 => {
                    panic!("key out of range")
                }
                Op::Insert(_) => ins += 1,
                Op::Remove(_) => rem += 1,
                Op::Contains(_) => con += 1,
            }
        }
        let pct = |x: i32| (x * 100) / n;
        assert!((20..=30).contains(&pct(ins)), "insert share {}%", pct(ins));
        assert!((20..=30).contains(&pct(rem)), "remove share {}%", pct(rem));
        assert!(
            (45..=55).contains(&pct(con)),
            "contains share {}%",
            pct(con)
        );
    }

    #[test]
    fn generators_are_deterministic_per_seed_and_thread() {
        let spec = WorkloadSpec::new(
            WorkloadMix::UPDATE_HEAVY,
            100,
            2,
            StopCondition::TotalOps(1),
        );
        let mut a = OpGenerator::new(&spec, 0);
        let mut b = OpGenerator::new(&spec, 0);
        let mut c = OpGenerator::new(&spec, 1);
        let seq_a: Vec<Op> = (0..32).map(|_| a.next_op()).collect();
        let seq_b: Vec<Op> = (0..32).map(|_| b.next_op()).collect();
        let seq_c: Vec<Op> = (0..32).map(|_| c.next_op()).collect();
        assert_eq!(seq_a, seq_b);
        assert_ne!(seq_a, seq_c);
    }
}
