//! The benchmark's own input generator: workloads, SplitMix64, an alias-table
//! Zipf sampler, and the per-thread operation rings.
//!
//! Nothing here depends on the program under test (not `vendor/rand`, not
//! `smr-harness`), so a change to the program can never change its inputs:
//! the same `(seed, workload, thread)` always yields the same ring.

/// Ops per ring. A slice replays its ring from index 0 and wraps.
pub const RING_LEN: usize = 1 << 20;

/// Ops of thread 0's ring replayed against the `BTreeSet` model.
pub const REPLAY_OPS: usize = 100_000;

/// Which `conc-ds` structure a workload runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Structure {
    LazyList,
    DgtTree,
    HmHashMap { buckets: usize },
}

/// Key distribution of a workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum KeyDist {
    Uniform,
    Zipf(f64),
}

/// One benchmark workload. The names are fixed: `BENCHMARK.json` declares
/// them and `--smoke` checks the two lists against each other.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub structure: Structure,
    /// Keys are drawn from `1..=key_range`.
    pub key_range: u64,
    /// Distinct keys inserted before timing (half the range: the paper's rule).
    pub prefill: usize,
    pub insert_pct: u64,
    pub remove_pct: u64,
    pub dist: KeyDist,
    /// `tree_stall`: one worker plus a reader parked inside an open read phase.
    pub stalled_reader: bool,
}

impl Workload {
    /// Threads that issue operations during a slice.
    pub fn workers(&self) -> usize {
        if self.stalled_reader {
            1
        } else {
            2
        }
    }
}

/// The four workloads, in reporting order. Why each is here: README.md.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "list_read",
        structure: Structure::LazyList,
        key_range: 2_000,
        prefill: 1_000,
        insert_pct: 5,
        remove_pct: 5,
        dist: KeyDist::Uniform,
        stalled_reader: false,
    },
    Workload {
        name: "tree_update",
        structure: Structure::DgtTree,
        key_range: 20_000,
        prefill: 10_000,
        insert_pct: 50,
        remove_pct: 50,
        dist: KeyDist::Uniform,
        stalled_reader: false,
    },
    Workload {
        name: "hash_zipf",
        structure: Structure::HmHashMap { buckets: 32_768 },
        key_range: 65_536,
        prefill: 32_768,
        insert_pct: 25,
        remove_pct: 25,
        dist: KeyDist::Zipf(0.99),
        stalled_reader: false,
    },
    Workload {
        name: "tree_stall",
        structure: Structure::DgtTree,
        key_range: 20_000,
        prefill: 10_000,
        insert_pct: 25,
        remove_pct: 25,
        dist: KeyDist::Uniform,
        stalled_reader: true,
    },
];

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// SplitMix64 (Steele, Lea & Flood): one add and a three-step finalizer.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (multiply-shift; bias < 2^-40 for the ranges used).
    #[inline]
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    #[inline]
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Independent generator streams of one run. Worker rings use the thread
/// index; the others sit far above any thread count.
const STREAM_PREFILL: u64 = 1 << 32;
const STREAM_PERMUTATION: u64 = (1 << 32) + 1;

/// The seed of round `round` of a run started with `--seed seed`: every round
/// is an independent replicate with its own rings, prefill order and (under
/// Zipf) hot-key placement, so the median over rounds averages over inputs
/// as well as over time. Round 0 keeps the run's own seed.
pub fn round_seed(seed: u64, round: usize) -> u64 {
    if round == 0 {
        return seed;
    }
    SplitMix64::new(seed ^ (round as u64).wrapping_mul(0xD6E8_FEB8_6659_FD93)).next_u64()
}

/// A generator for one `(seed, workload, stream)` triple.
fn stream(seed: u64, workload: &str, stream: u64) -> SplitMix64 {
    // FNV-1a over the name, then two SplitMix rounds to decorrelate the
    // three coordinates.
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for b in workload.bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
    }
    let mut g = SplitMix64::new(seed ^ h.rotate_left(17));
    let a = g.next_u64();
    let mut g = SplitMix64::new(a ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93));
    g.next_u64();
    g
}

/// Zipf(θ) over ranks `0..n` by Walker/Vose alias tables: O(n) to build, one
/// uniform draw and one table probe per sample.
pub struct Zipf {
    prob: Vec<f64>,
    alias: Vec<u32>,
}

impl Zipf {
    pub fn new(n: usize, theta: f64) -> Self {
        let weights: Vec<f64> = (0..n).map(|r| ((r + 1) as f64).powf(-theta)).collect();
        let total: f64 = weights.iter().sum();
        let mut scaled: Vec<f64> = weights.iter().map(|w| w / total * n as f64).collect();
        let mut prob = vec![1.0; n];
        let mut alias: Vec<u32> = (0..n as u32).collect();
        let (mut small, mut large): (Vec<usize>, Vec<usize>) =
            (0..n).partition(|&i| scaled[i] < 1.0);
        while let (Some(&s), Some(&l)) = (small.last(), large.last()) {
            small.pop();
            prob[s] = scaled[s];
            alias[s] = l as u32;
            scaled[l] -= 1.0 - scaled[s];
            if scaled[l] < 1.0 {
                large.pop();
                small.push(l);
            }
        }
        Self { prob, alias }
    }

    /// Draws a rank (0 = hottest).
    #[inline]
    pub fn sample(&self, rng: &mut SplitMix64) -> usize {
        let i = rng.below(self.prob.len() as u64) as usize;
        if rng.unit() < self.prob[i] {
            i
        } else {
            self.alias[i] as usize
        }
    }
}

/// Draws keys of one workload. Shared by the rings of all threads, so under
/// Zipf the hot keys are the *same* keys on every thread (they collide).
pub struct KeySampler {
    key_range: u64,
    /// Zipf only: the sampler and a seeded rank → key permutation that
    /// scatters the hot ranks over the key space (and over hash buckets).
    zipf: Option<(Zipf, Vec<u32>)>,
}

impl KeySampler {
    pub fn new(w: &Workload, seed: u64) -> Self {
        let zipf = match w.dist {
            KeyDist::Uniform => None,
            KeyDist::Zipf(theta) => {
                let n = w.key_range as usize;
                let mut perm: Vec<u32> = (0..n as u32).collect();
                let mut rng = stream(seed, w.name, STREAM_PERMUTATION);
                for i in (1..n).rev() {
                    perm.swap(i, rng.below(i as u64 + 1) as usize);
                }
                Some((Zipf::new(n, theta), perm))
            }
        };
        Self {
            key_range: w.key_range,
            zipf,
        }
    }

    /// A key in `1..=key_range` (0 and `u64::MAX` are the structures' sentinels).
    #[inline]
    pub fn key(&self, rng: &mut SplitMix64) -> u64 {
        match &self.zipf {
            None => 1 + rng.below(self.key_range),
            Some((zipf, perm)) => 1 + u64::from(perm[zipf.sample(rng)]),
        }
    }
}

/// Operation kinds, as encoded in the top two bits of a ring word.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum OpKind {
    Contains = 0,
    Insert = 1,
    Remove = 2,
}

impl OpKind {
    pub const ALL: [OpKind; 3] = [OpKind::Contains, OpKind::Insert, OpKind::Remove];

    pub fn name(self) -> &'static str {
        match self {
            OpKind::Contains => "contains",
            OpKind::Insert => "insert",
            OpKind::Remove => "remove",
        }
    }
}

const KIND_SHIFT: u32 = 62;

/// Packs an op into its 8-byte ring word.
#[inline]
pub fn encode(kind: OpKind, key: u64) -> u64 {
    debug_assert!(key < 1 << KIND_SHIFT);
    ((kind as u64) << KIND_SHIFT) | key
}

/// Unpacks a ring word.
#[inline]
pub fn decode(word: u64) -> (OpKind, u64) {
    let kind = match word >> KIND_SHIFT {
        0 => OpKind::Contains,
        1 => OpKind::Insert,
        _ => OpKind::Remove,
    };
    (kind, word & ((1 << KIND_SHIFT) - 1))
}

/// The ring of `RING_LEN` pre-generated ops for one worker thread.
pub fn make_ring(w: &Workload, sampler: &KeySampler, seed: u64, thread: usize) -> Vec<u64> {
    let mut rng = stream(seed, w.name, thread as u64);
    (0..RING_LEN)
        .map(|_| {
            let roll = rng.below(100);
            let kind = if roll < w.insert_pct {
                OpKind::Insert
            } else if roll < w.insert_pct + w.remove_pct {
                OpKind::Remove
            } else {
                OpKind::Contains
            };
            encode(kind, sampler.key(&mut rng))
        })
        .collect()
}

/// The `w.prefill` distinct keys inserted before timing, in insertion order
/// (uniform even for the Zipf workload: which hot keys start present is a
/// coin flip per key). The order is random, so the external BST is balanced
/// in expectation, and fixed by `seed`.
pub fn prefill_keys(w: &Workload, seed: u64) -> Vec<u64> {
    let mut rng = stream(seed, w.name, STREAM_PREFILL);
    let mut present = vec![false; w.key_range as usize + 1];
    let mut keys = Vec::with_capacity(w.prefill);
    while keys.len() < w.prefill {
        let k = 1 + rng.below(w.key_range);
        if !std::mem::replace(&mut present[k as usize], true) {
            keys.push(k);
        }
    }
    keys
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rings_are_deterministic_per_seed_workload_thread() {
        for w in &WORKLOADS {
            let s = KeySampler::new(w, 7);
            let a = make_ring(w, &s, 7, 0);
            let b = make_ring(w, &KeySampler::new(w, 7), 7, 0);
            assert_eq!(
                a, b,
                "{}: same (seed, workload, thread) must repeat",
                w.name
            );
            assert_ne!(a, make_ring(w, &s, 7, 1), "{}: threads must differ", w.name);
            assert_ne!(
                a,
                make_ring(w, &KeySampler::new(w, 8), 8, 0),
                "{}: seeds must differ",
                w.name
            );
            assert_eq!(prefill_keys(w, 7), prefill_keys(w, 7));
        }
        // Same structure, same range: only the workload name separates them.
        let (u, s) = (
            workload("tree_update").unwrap(),
            workload("tree_stall").unwrap(),
        );
        assert_ne!(prefill_keys(u, 7), prefill_keys(s, 7));
    }

    #[test]
    fn round_seeds_are_distinct_and_repeatable() {
        let seeds: Vec<u64> = (0..12).map(|r| round_seed(9, r)).collect();
        assert_eq!(seeds[0], 9);
        assert_eq!(seeds, (0..12).map(|r| round_seed(9, r)).collect::<Vec<_>>());
        let distinct: std::collections::BTreeSet<_> = seeds.iter().collect();
        assert_eq!(distinct.len(), seeds.len());
        assert_ne!(round_seed(9, 1), round_seed(10, 1));
    }

    #[test]
    fn mix_shares_are_within_one_point() {
        for w in &WORKLOADS {
            let ring = make_ring(w, &KeySampler::new(w, 1), 1, 0);
            let mut counts = [0u64; 3];
            for &word in &ring[..1_000_000] {
                let (kind, key) = decode(word);
                counts[kind as usize] += 1;
                assert!((1..=w.key_range).contains(&key), "{}: key {key}", w.name);
            }
            let pct = |k: OpKind| counts[k as usize] as f64 / 10_000.0;
            let contains_pct = 100 - w.insert_pct - w.remove_pct;
            assert!(
                (pct(OpKind::Insert) - w.insert_pct as f64).abs() < 1.0,
                "{}",
                w.name
            );
            assert!(
                (pct(OpKind::Remove) - w.remove_pct as f64).abs() < 1.0,
                "{}",
                w.name
            );
            assert!(
                (pct(OpKind::Contains) - contains_pct as f64).abs() < 1.0,
                "{}",
                w.name
            );
        }
    }

    #[test]
    fn zipf_top_decile_holds_most_of_the_mass() {
        let n = 65_536;
        let zipf = Zipf::new(n, 0.99);
        let mut rng = SplitMix64::new(3);
        let draws = 1_000_000;
        let mut top = 0u64;
        for _ in 0..draws {
            let r = zipf.sample(&mut rng);
            assert!(r < n);
            top += u64::from(r < n / 10);
        }
        assert!(
            top as f64 / draws as f64 > 0.5,
            "top decile mass {top}/{draws}"
        );
    }

    #[test]
    fn zipf_hot_keys_are_shared_across_threads() {
        let w = workload("hash_zipf").unwrap();
        let s = KeySampler::new(w, 1);
        let hottest = |ring: &[u64]| {
            let mut counts = std::collections::BTreeMap::new();
            for &word in ring {
                *counts.entry(decode(word).1).or_insert(0u32) += 1;
            }
            counts.into_iter().max_by_key(|&(_, c)| c).unwrap().0
        };
        assert_eq!(
            hottest(&make_ring(w, &s, 1, 0)),
            hottest(&make_ring(w, &s, 1, 1))
        );
    }

    #[test]
    fn prefill_is_half_the_range_and_distinct() {
        for w in &WORKLOADS {
            let keys = prefill_keys(w, 1);
            assert_eq!(keys.len() as u64 * 2, w.key_range, "{}", w.name);
            let set: std::collections::BTreeSet<_> = keys.iter().copied().collect();
            assert_eq!(set.len(), keys.len());
            assert!(set.iter().all(|k| (1..=w.key_range).contains(k)));
        }
    }

    #[test]
    fn encode_decode_roundtrip() {
        for kind in OpKind::ALL {
            assert_eq!(decode(encode(kind, 65_536)), (kind, 65_536));
        }
    }
}
