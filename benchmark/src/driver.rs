//! The closed-loop driver: set-up, the replay and size checks, timed slices,
//! and the round protocol.
//!
//! Each worker issues its next operation as soon as the previous one returns
//! (a closed loop: callers of a concurrent set wait for the reply), from a
//! pre-generated ring, against the public `ConcurrentSet` API only. Worker
//! threads never outnumber the two cores: the main thread sleeps in `join`
//! while a slice runs.

use crate::alloc_count::{self, LEDGER};
use crate::gen::{self, decode, OpKind, Structure, Workload, REPLAY_OPS, RING_LEN};
use crate::histo::Histo;
use crate::traced::{now_ns, Instrument, Probe};
use conc_ds::{ConcurrentSet, DgtTree, HmHashMap, LazyList};
use smr_baselines::Leaky;
use smr_common::{Smr, SmrConfig, ThreadStats};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Every 61st op is latency-sampled. Prime, so co-prime with the 64-op
/// batch, the 8-entry retire batch and the 1024-op heartbeat: the sampled op
/// drifts through every phase of each instead of always being, say, the
/// first op after a stop check.
pub const SAMPLE_PERIOD: u64 = 61;

/// Ops between deadline checks and `limbo_len` reads.
pub const BATCH: usize = 64;

/// `*.peak_garbage` is this quantile of a worker's per-batch `limbo_len`
/// readings, not their maximum. The maximum of a slice is set by the longest
/// stretch for which the OS descheduled the *peer* (NBR+ cannot neutralize a
/// thread that is not running: its scans concede and the bag overshoots by
/// ~1 000 records per millisecond of absence), so it measures the host, not
/// the reclaimer, and does not repeat. The 99th percentile is the height of
/// the regular fill-and-sweep sawtooth — it moves with the watermarks, the
/// heartbeat and the scan policy — and ignores absences that add up to less
/// than 1% of a slice. The maximum stays visible as `core.garbage_max`.
pub const GARBAGE_QUANTILE: f64 = 0.99;

/// A structure family: the same `conc-ds` structure over any reclaimer.
pub trait Family: 'static {
    type Set<S: Smr>: ConcurrentSet<S> + 'static;
    fn build<S: Smr>(w: &Workload) -> Self::Set<S>;
}

pub struct Lists;
pub struct Trees;
pub struct Hashes;

// `SmrConfig::default()` everywhere: the configuration users get.
impl Family for Lists {
    type Set<S: Smr> = LazyList<S>;
    fn build<S: Smr>(_: &Workload) -> LazyList<S> {
        LazyList::new(SmrConfig::default())
    }
}

impl Family for Trees {
    type Set<S: Smr> = DgtTree<S>;
    fn build<S: Smr>(_: &Workload) -> DgtTree<S> {
        DgtTree::new(SmrConfig::default())
    }
}

impl Family for Hashes {
    type Set<S: Smr> = HmHashMap<S>;
    fn build<S: Smr>(w: &Workload) -> HmHashMap<S> {
        let Structure::HmHashMap { buckets } = w.structure else {
            unreachable!("Hashes is only built for hash workloads")
        };
        HmHashMap::with_buckets(SmrConfig::default(), buckets)
    }
}

/// The generated inputs of one run: a ring per worker and the prefill keys.
pub struct Inputs {
    pub rings: Vec<Vec<u64>>,
    pub prefill: Vec<u64>,
}

pub fn make_inputs(w: &Workload, seed: u64) -> Inputs {
    let sampler = gen::KeySampler::new(w, seed);
    Inputs {
        rings: (0..w.workers())
            .map(|t| gen::make_ring(w, &sampler, seed, t))
            .collect(),
        prefill: gen::prefill_keys(w, seed),
    }
}

/// Builds one structure and inserts the prefill keys, single-threaded.
/// Returns the structure and how many prefill inserts did not report `true`.
pub fn build_prefilled<F: Family, S: Smr>(w: &Workload, prefill: &[u64]) -> (F::Set<S>, u64) {
    let ds = F::build::<S>(w);
    let smr = ds.smr();
    let mut ctx = smr.register(0);
    let failed = prefill.iter().filter(|&&k| !ds.insert(&mut ctx, k)).count() as u64;
    smr.flush(&mut ctx);
    smr.unregister(&mut ctx);
    (ds, failed)
}

/// One prefilled structure per panel scheme.
pub struct Panel<F: Family, A: Smr, B: Smr, C: Smr> {
    pub a: F::Set<A>,
    pub b: F::Set<B>,
    pub c: F::Set<C>,
    pub prefill_failed: u64,
}

pub fn build_panel<F: Family, A: Smr, B: Smr, C: Smr>(
    w: &Workload,
    prefill: &[u64],
) -> Panel<F, A, B, C> {
    let (a, fa) = build_prefilled::<F, A>(w, prefill);
    let (b, fb) = build_prefilled::<F, B>(w, prefill);
    let (c, fc) = build_prefilled::<F, C>(w, prefill);
    Panel {
        a,
        b,
        c,
        prefill_failed: fa + fb + fc,
    }
}

#[inline]
fn apply<S: Smr, DS: ConcurrentSet<S>>(
    ds: &DS,
    ctx: &mut S::ThreadCtx,
    kind: OpKind,
    key: u64,
) -> bool {
    match kind {
        OpKind::Contains => ds.contains(ctx, key),
        OpKind::Insert => ds.insert(ctx, key),
        OpKind::Remove => ds.remove(ctx, key),
    }
}

/// Replays the first [`REPLAY_OPS`] ops of `ring` single-threaded on a
/// freshly prefilled structure and on a `BTreeSet`, comparing every return
/// value and the final size. Returns `(ops compared, mismatches)`.
pub fn replay_check<S: Smr, DS: ConcurrentSet<S>>(
    ds: &DS,
    prefill: &[u64],
    ring: &[u64],
) -> (u64, u64) {
    let mut model: BTreeSet<u64> = prefill.iter().copied().collect();
    let smr = ds.smr();
    let mut ctx = smr.register(0);
    let mut failed = 0;
    for &word in &ring[..REPLAY_OPS] {
        let (kind, key) = decode(word);
        let expected = match kind {
            OpKind::Contains => model.contains(&key),
            OpKind::Insert => model.insert(key),
            OpKind::Remove => model.remove(&key),
        };
        failed += u64::from(apply(ds, &mut ctx, kind, key) != expected);
    }
    failed += u64::from(ds.size(&mut ctx) != model.len());
    smr.flush(&mut ctx);
    smr.unregister(&mut ctx);
    (REPLAY_OPS as u64, failed)
}

/// Pins the calling thread to the `index`-th CPU this process may run on
/// (modulo their number), so that the two slice threads sit on one core each
/// for the whole slice instead of wherever the wake-up from the start barrier
/// left them — the parked reader's `yield_now` loop in particular must not
/// share the worker's core. Best effort: `false` (and no change) where the
/// call is unavailable or refused.
#[cfg(target_os = "linux")]
fn pin_to_cpu(index: usize) -> bool {
    // `cpu_set_t` is 1024 bits; std already links libc, which provides both.
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    let mut allowed = [0u64; 16];
    // SAFETY: `allowed` is a writable buffer of exactly the size passed; pid
    // 0 names the calling thread.
    if unsafe { sched_getaffinity(0, std::mem::size_of_val(&allowed), allowed.as_mut_ptr()) } != 0 {
        return false;
    }
    let cpus: Vec<usize> = (0..1024)
        .filter(|c| allowed[c / 64] >> (c % 64) & 1 == 1)
        .collect();
    if cpus.is_empty() {
        return false;
    }
    let cpu = cpus[index % cpus.len()];
    let mut one = [0u64; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable buffer of exactly the size passed.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) == 0 }
}

#[cfg(not(target_os = "linux"))]
fn pin_to_cpu(_: usize) -> bool {
    false
}

/// Ops issued and ops that returned `true`, per [`OpKind`].
#[derive(Debug, Clone, Copy, Default)]
pub struct OpCounts {
    pub issued: [u64; 3],
    pub ok: [u64; 3],
}

impl OpCounts {
    pub fn total(&self) -> u64 {
        self.issued.iter().sum()
    }

    /// Net change of the set's size these ops must have caused.
    pub fn net_inserted(&self) -> i64 {
        self.ok[OpKind::Insert as usize] as i64 - self.ok[OpKind::Remove as usize] as i64
    }

    fn add(&mut self, o: &OpCounts) {
        for k in 0..3 {
            self.issued[k] += o.issued[k];
            self.ok[k] += o.ok[k];
        }
    }
}

/// What one worker measured in one slice.
struct WorkerOut {
    counts: OpCounts,
    elapsed: Duration,
    lat: Histo,
    /// `limbo_len` after every batch.
    limbo: Histo,
    stats: ThreadStats,
    probe: Option<Probe>,
}

/// Cross-thread state of one slice.
struct SliceSync {
    start: Barrier,
    workers: usize,
    /// Workers that have closed their counted window.
    finished: AtomicUsize,
    has_reader: bool,
    reader_out: AtomicBool,
}

fn worker<S: Instrument, DS: ConcurrentSet<S>>(
    ds: &DS,
    tid: usize,
    ring: &[u64],
    dur: Duration,
    sync: &SliceSync,
) -> WorkerOut {
    assert_eq!(ring.len(), RING_LEN);
    pin_to_cpu(tid);
    let smr = ds.smr();
    let mut ctx = smr.register(tid);
    let mut counts = OpCounts::default();
    let mut lat = Histo::default();
    let mut limbo = Histo::default();
    let mut pos = 0usize;
    let mut until_sample = SAMPLE_PERIOD - 1;
    sync.start.wait();
    let t0 = Instant::now();
    let deadline = t0 + dur;
    loop {
        for _ in 0..BATCH {
            let (kind, key) = decode(ring[pos & (RING_LEN - 1)]);
            pos += 1;
            let ok = if until_sample == 0 {
                until_sample = SAMPLE_PERIOD - 1;
                S::op_begin(&mut ctx);
                let start = now_ns();
                let ok = apply(ds, &mut ctx, kind, key);
                let ns = now_ns() - start;
                lat.record(ns);
                S::op_end(&mut ctx, kind, start, ns);
                ok
            } else {
                until_sample -= 1;
                apply(ds, &mut ctx, kind, key)
            };
            counts.issued[kind as usize] += 1;
            counts.ok[kind as usize] += u64::from(ok);
        }
        limbo.record(smr.limbo_len(&ctx) as u64);
        if Instant::now() >= deadline {
            break;
        }
    }
    let elapsed = t0.elapsed();
    let stats = smr.thread_stats(&ctx);
    let probe = S::take_probe(&mut ctx);
    // The counted window is closed. Keep answering pings and stay
    // registered until every worker has closed its own (a peer that stopped
    // polling would cost the others a full spin budget per scan), and until
    // the parked reader — which lifts its reservation only now, after the
    // counters above were read — is gone, so the flush below can drain.
    sync.finished.fetch_add(1, Ordering::AcqRel);
    while sync.finished.load(Ordering::Acquire) < sync.workers
        || (sync.has_reader && !sync.reader_out.load(Ordering::Acquire))
    {
        let _ = smr.checkpoint(&mut ctx);
        std::thread::yield_now();
    }
    smr.flush(&mut ctx);
    smr.unregister(&mut ctx);
    alloc_count::flush_thread();
    WorkerOut {
        counts,
        elapsed,
        lat,
        limbo,
        stats,
        probe,
    }
}

/// `tree_stall`'s hostile peer: parked inside `begin_op` + `begin_read_phase`
/// for the whole slice (pinning DEBRA's epoch), answering `checkpoint` from a
/// `yield_now` loop — the cooperative stand-in for a signal interrupting a
/// sleeping thread (DESIGN.md, S1).
fn parked_reader<S: Smr>(smr: &S, tid: usize, sync: &SliceSync) {
    pin_to_cpu(tid);
    let mut ctx = smr.register(tid);
    smr.begin_op(&mut ctx);
    smr.begin_read_phase(&mut ctx);
    sync.start.wait();
    while sync.finished.load(Ordering::Acquire) < sync.workers {
        let _ = smr.checkpoint(&mut ctx);
        std::thread::yield_now();
    }
    smr.end_read_phase(&mut ctx, &[]);
    smr.end_op(&mut ctx);
    smr.unregister(&mut ctx);
    sync.reader_out.store(true, Ordering::Release);
}

/// `size()` from a spare thread slot.
fn measured_size<S: Smr, DS: ConcurrentSet<S>>(ds: &DS, tid: usize) -> usize {
    let mut ctx = ds.smr().register(tid);
    let n = ds.size(&mut ctx);
    ds.smr().unregister(&mut ctx);
    n
}

/// One timed slice of one scheme.
pub struct SliceOut {
    pub counts: OpCounts,
    /// Σ over workers of ops ÷ that worker's own elapsed time.
    pub ops_per_s: f64,
    /// Σ over workers of elapsed time (the op time scan time is a share of).
    pub worker_ns: f64,
    pub lat: Histo,
    /// Σ over workers of the 99th percentile of `limbo_len` read after every
    /// batch: the height the bag reaches in its regular fill-and-sweep cycle.
    pub peak_garbage: f64,
    /// Σ over workers of the largest `limbo_len` read after a batch.
    pub max_garbage: u64,
    pub stats: ThreadStats,
    pub peak_heap_bytes: i64,
    pub alloc_calls: u64,
    pub alloc_bytes: u64,
    /// `size()` after = `size()` before + successful inserts − removes.
    pub size_ok: bool,
    pub probes: Vec<Probe>,
}

/// Runs one slice of `dur` on `ds`. `Err` when a thread panicked.
pub fn run_slice<S: Instrument, DS: ConcurrentSet<S>>(
    ds: &DS,
    w: &Workload,
    rings: &[Vec<u64>],
    dur: Duration,
) -> Result<SliceOut, String> {
    // One worker per ring handed in (`Inputs` holds `w.workers()` of them).
    let workers = rings.len();
    let spare_tid = workers + 1;
    let size_before = measured_size(ds, spare_tid);
    let sync = SliceSync {
        start: Barrier::new(workers + usize::from(w.stalled_reader)),
        workers,
        finished: AtomicUsize::new(0),
        has_reader: w.stalled_reader,
        reader_out: AtomicBool::new(false),
    };
    alloc_count::flush_thread();
    LEDGER.reset_peak();
    let (calls0, bytes0) = (LEDGER.calls(), LEDGER.bytes());
    let (outs, reader_ok) = std::thread::scope(|sc| {
        let sync = &sync;
        let handles: Vec<_> = (0..workers)
            .map(|tid| {
                let ring = &rings[tid][..];
                sc.spawn(move || worker(ds, tid, ring, dur, sync))
            })
            .collect();
        let reader = w
            .stalled_reader
            .then(|| sc.spawn(move || parked_reader(ds.smr(), workers, sync)));
        let outs: Vec<_> = handles.into_iter().map(|h| h.join()).collect();
        let reader_ok = reader.is_none_or(|r| r.join().is_ok());
        (outs, reader_ok)
    });
    if !reader_ok || outs.iter().any(|o| o.is_err()) {
        return Err(format!(
            "a thread panicked in a {} slice of {}",
            S::NAME,
            w.name
        ));
    }
    let mut out = SliceOut {
        counts: OpCounts::default(),
        ops_per_s: 0.0,
        worker_ns: 0.0,
        lat: Histo::default(),
        peak_garbage: 0.0,
        max_garbage: 0,
        stats: ThreadStats::default(),
        peak_heap_bytes: LEDGER.peak(),
        alloc_calls: LEDGER.calls() - calls0,
        alloc_bytes: LEDGER.bytes() - bytes0,
        size_ok: false,
        probes: Vec::new(),
    };
    for o in outs.into_iter().flatten() {
        out.counts.add(&o.counts);
        out.ops_per_s += o.counts.total() as f64 / o.elapsed.as_secs_f64();
        out.worker_ns += o.elapsed.as_nanos() as f64;
        out.lat.merge(&o.lat);
        out.peak_garbage += o.limbo.quantile(GARBAGE_QUANTILE);
        out.max_garbage += o.limbo.max();
        out.stats += o.stats;
        out.probes.extend(o.probe);
    }
    let size_after = measured_size(ds, spare_tid);
    out.size_ok = size_after as i64 == size_before as i64 + out.counts.net_inserted();
    Ok(out)
}

/// How long and how often a pass runs.
#[derive(Debug, Clone, Copy)]
pub struct PassCfg {
    /// Index of the first round to run: it picks the round's seed and its
    /// scheme order, so a process that runs only round `r` of a pass does
    /// exactly what the whole pass would do in its round `r`.
    pub first_round: usize,
    pub rounds: usize,
    pub slice: Duration,
    /// Length of the `none` calibration slice closing each round, if any.
    pub none_slice: Option<Duration>,
}

impl PassCfg {
    /// Splits `seconds` of measurement over `rounds` rounds of three panel
    /// slices and one `none` slice a fifth as long.
    pub fn end_to_end(rounds: usize, seconds: f64) -> Self {
        let slice = seconds / (rounds as f64 * 3.2);
        Self {
            first_round: 0,
            rounds,
            slice: Duration::from_secs_f64(slice),
            none_slice: Some(Duration::from_secs_f64(slice / 5.0)),
        }
    }

    pub fn total(&self) -> Duration {
        (self.slice * 3 + self.none_slice.unwrap_or_default()) * self.rounds as u32
    }
}

/// The slices of one pass: `panel[i][round]`, and the `none` slices.
pub struct PassOut {
    pub panel: [Vec<SliceOut>; 3],
    pub none: Vec<SliceOut>,
    /// Seconds each round's set-up took (inputs + build + prefill).
    pub setup_s: Vec<f64>,
    /// Prefill inserts that did not report `true`, over all rounds.
    pub prefill_failed: u64,
}

impl PassOut {
    pub fn slices(&self) -> impl Iterator<Item = &SliceOut> {
        self.panel.iter().flatten().chain(&self.none)
    }
}

/// Runs `cfg.rounds` rounds, starting at `cfg.first_round`. Every round is
/// an independent replicate: it sets up its own inputs ([`gen::round_seed`])
/// and its own freshly built and prefilled structures, because throughput on
/// one fixed instance repeats within a process to ~1% but differs by 10–60%
/// between instances (which tree the prefill order grew, what the allocator
/// placed beside the reclaimer's unpadded per-thread slot arrays): a run
/// measured on a single instance reports that instance's luck. Within a
/// round each panel scheme runs once, in an order rotated per round (no
/// scheme always runs first on a cold machine or last on a warm one), then a
/// `none` slice runs on a fresh structure dropped afterwards, which bounds
/// the leaky scheme's memory growth.
pub fn run_pass<F, A, B, C>(w: &Workload, seed: u64, cfg: PassCfg) -> Result<PassOut, String>
where
    F: Family,
    A: Instrument,
    B: Instrument,
    C: Instrument,
{
    let mut out = PassOut {
        panel: [Vec::new(), Vec::new(), Vec::new()],
        none: Vec::new(),
        setup_s: Vec::new(),
        prefill_failed: 0,
    };
    let mut previous = None;
    for round in cfg.first_round..cfg.first_round + cfg.rounds {
        let t0 = Instant::now();
        let inputs = make_inputs(w, gen::round_seed(seed, round));
        let panel = build_panel::<F, A, B, C>(w, &inputs.prefill);
        out.setup_s.push(t0.elapsed().as_secs_f64());
        out.prefill_failed += panel.prefill_failed;
        // The last round's instance goes only now that this one is built,
        // so the allocator cannot hand the same blocks straight back.
        drop(previous.take());
        for k in 0..3 {
            let i = (round + k) % 3;
            let slice = match i {
                0 => run_slice(&panel.a, w, &inputs.rings, cfg.slice),
                1 => run_slice(&panel.b, w, &inputs.rings, cfg.slice),
                _ => run_slice(&panel.c, w, &inputs.rings, cfg.slice),
            }?;
            out.panel[i].push(slice);
        }
        if let Some(dur) = cfg.none_slice {
            let (ds, prefill_failed) = build_prefilled::<F, Leaky>(w, &inputs.prefill);
            out.prefill_failed += prefill_failed;
            out.none.push(run_slice(&ds, w, &inputs.rings, dur)?);
        }
        previous = Some((inputs, panel));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use smr_baselines::Debra;

    fn tiny() -> Workload {
        Workload {
            name: "tiny",
            structure: Structure::LazyList,
            key_range: 200,
            prefill: 100,
            insert_pct: 30,
            remove_pct: 30,
            dist: gen::KeyDist::Uniform,
            stalled_reader: false,
        }
    }

    /// A set that claims one insert it never performed.
    struct DropsOneInsert {
        inner: LazyList<Debra>,
        dropped: AtomicBool,
    }

    impl ConcurrentSet<Debra> for DropsOneInsert {
        fn smr(&self) -> &Debra {
            self.inner.smr()
        }
        fn contains(&self, ctx: &mut <Debra as Smr>::ThreadCtx, key: u64) -> bool {
            self.inner.contains(ctx, key)
        }
        fn insert(&self, ctx: &mut <Debra as Smr>::ThreadCtx, key: u64) -> bool {
            if !self.inner.contains(ctx, key) && !self.dropped.swap(true, Ordering::Relaxed) {
                return true;
            }
            self.inner.insert(ctx, key)
        }
        fn remove(&self, ctx: &mut <Debra as Smr>::ThreadCtx, key: u64) -> bool {
            self.inner.remove(ctx, key)
        }
        fn size(&self, ctx: &mut <Debra as Smr>::ThreadCtx) -> usize {
            self.inner.size(ctx)
        }
        fn name() -> &'static str {
            "drops-one-insert"
        }
    }

    #[test]
    fn size_check_passes_on_a_correct_set_and_catches_a_dropped_insert() {
        let w = tiny();
        let inputs = make_inputs(&w, 1);
        let dur = Duration::from_millis(30);

        let (good, failed) = build_prefilled::<Lists, Debra>(&w, &inputs.prefill);
        assert_eq!(failed, 0);
        let slice = run_slice(&good, &w, &inputs.rings, dur).unwrap();
        assert!(slice.size_ok);
        assert!(slice.counts.total() > 0 && slice.lat.count() > 0);

        let bad = DropsOneInsert {
            inner: build_prefilled::<Lists, Debra>(&w, &inputs.prefill).0,
            dropped: AtomicBool::new(false),
        };
        let slice = run_slice(&bad, &w, &inputs.rings, dur).unwrap();
        assert!(
            bad.dropped.load(Ordering::Relaxed),
            "the fault must have fired"
        );
        assert!(
            !slice.size_ok,
            "a claimed-but-dropped insert must fail the size check"
        );
    }

    #[test]
    fn replay_check_agrees_with_the_model_and_counts_mismatches() {
        let w = tiny();
        let inputs = make_inputs(&w, 2);
        let (good, _) = build_prefilled::<Lists, Debra>(&w, &inputs.prefill);
        assert_eq!(
            replay_check(&good, &inputs.prefill, &inputs.rings[0]),
            (REPLAY_OPS as u64, 0)
        );

        let bad = DropsOneInsert {
            inner: build_prefilled::<Lists, Debra>(&w, &inputs.prefill).0,
            dropped: AtomicBool::new(false),
        };
        let (_, failed) = replay_check(&bad, &inputs.prefill, &inputs.rings[0]);
        assert!(failed >= 1, "the dropped insert must surface as a mismatch");
    }

    #[test]
    fn stalled_reader_slice_runs_one_worker_and_terminates() {
        let w = Workload {
            stalled_reader: true,
            ..tiny()
        };
        let inputs = make_inputs(&w, 3);
        assert_eq!(inputs.rings.len(), 1);
        let (ds, _) = build_prefilled::<Lists, Debra>(&w, &inputs.prefill);
        let slice = run_slice(&ds, &w, &inputs.rings, Duration::from_millis(30)).unwrap();
        assert!(slice.size_ok);
        // The pinned epoch kept every retired record in limbo.
        assert_eq!(slice.stats.frees, 0);
        assert!(slice.max_garbage > 0 && slice.max_garbage <= slice.stats.retires);
        assert!(slice.peak_garbage > 0.0 && slice.peak_garbage <= slice.max_garbage as f64);
    }

    #[test]
    fn pass_config_splits_the_budget() {
        let cfg = PassCfg::end_to_end(6, 28.8);
        assert!((cfg.slice.as_secs_f64() - 1.5).abs() < 1e-9);
        assert!((cfg.none_slice.unwrap().as_secs_f64() - 0.3).abs() < 1e-9);
        assert!((cfg.total().as_secs_f64() - 28.8).abs() < 1e-6);
    }

    #[test]
    fn a_pass_runs_every_scheme_every_round_on_fresh_inputs() {
        let cfg = PassCfg {
            first_round: 0,
            rounds: 3,
            slice: Duration::from_millis(20),
            none_slice: Some(Duration::from_millis(5)),
        };
        let out = run_pass::<Lists, Debra, Debra, Leaky>(&tiny(), 4, cfg).unwrap();
        assert!(out.panel.iter().all(|p| p.len() == 3) && out.none.len() == 3);
        assert_eq!((out.setup_s.len(), out.prefill_failed), (3, 0));
        assert!(out.slices().all(|s| s.size_ok && s.counts.total() > 0));
    }
}
