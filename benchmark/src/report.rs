//! Turns slices, probes and micro-loop costs into named metrics, and writes
//! the result line and the Chrome-trace file.
//!
//! The names, units and directions here are the ones `BENCHMARK.json`
//! declares; `--smoke` fails when the two lists drift apart.

use crate::driver::{PassOut, SliceOut};
use crate::gen::OpKind;
use crate::histo::Histo;
use crate::manifest::Json;
use crate::micro::MicroOut;
use crate::traced::{Calibration, Hook, Probe, SpanName};
use smr_common::ThreadStats;
use std::io::Write;

/// Panel order everywhere: `PassOut::panel[i]` is `SCHEMES[i]`.
pub const SCHEMES: [&str; 3] = ["nbrplus", "debra", "hp"];
const NBRPLUS: usize = 0;
const DEBRA: usize = 1;
const HP: usize = 2;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One reported value.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub better: Better,
    /// Printed beside the value (per-round values, sample counts).
    pub note: String,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str, better: Better) -> Metric {
    Metric {
        name: name.into(),
        value: if value.is_finite() { value } else { 0.0 },
        unit,
        better,
        note: String::new(),
    }
}

fn lower(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    metric(name, value, unit, Better::Lower)
}

fn higher(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    metric(name, value, unit, Better::Higher)
}

/// `(q1, median, q3)` by linear interpolation between order statistics.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return (0.0, 0.0, 0.0);
    }
    let at = |q: f64| {
        let x = q * (v.len() - 1) as f64;
        let (lo, hi) = (x.floor() as usize, x.ceil() as usize);
        v[lo] + (v[hi] - v[lo]) * (x - lo as f64)
    };
    (at(0.25), at(0.5), at(0.75))
}

fn rounds_note(per_round: &[f64]) -> String {
    let (q1, med, q3) = quartiles(per_round);
    format!(
        "q1 {q1:.4e} med {med:.4e} q3 {q3:.4e}  rounds [{}]",
        per_round
            .iter()
            .map(|v| format!("{v:.4e}"))
            .collect::<Vec<_>>()
            .join(" ")
    )
}

/// How many rounds must reach a timing's reported level: it is the
/// `GOOD_ROUNDS`-th best round.
pub const GOOD_ROUNDS: usize = 5;

/// A timing metric over the rounds of a run: the fifth-best round (fifth
/// highest throughput, fifth lowest latency or `setup_s`).
///
/// What disturbs a timing in this sandbox only ever makes it worse: the
/// host slows a vCPU to about half its speed in bursts of milliseconds whose
/// share of the time drifts over minutes between nothing and most of it (a
/// neighbour on the core; not something a process in the guest can see or
/// avoid), and a peer gets descheduled. The rounds are a clean level plus
/// one-sided dirt, and a run can be mostly dirt: over ten runs the *median*
/// round spreads by 20–45% on throughput. So the reported level is a low
/// order statistic, and which one is a trade measured on three ten-run
/// studies of 36 rounds, one on a quiet host and two on a disturbed one
/// (`BASELINE.md`): the best rounds are flukes — `hp` on `hash_zipf` lands
/// in a placement half again as fast in 1–10% of its processes, and on a
/// disturbed host the few clean rounds are flukes of the same kind — so
/// the third-best flipped between two levels from run to run (44% spread
/// on that throughput, 25–35% on `list_read`'s `nbrplus.op_p99_ns`), while
/// from the eighth-best on the disturbed rounds leak in (`list_read`'s
/// throughput spread goes from 5% to 17%). The fifth-best held every timing
/// within 21% on the moderately disturbed host and within 11% on the quiet
/// one. A change that slows the code moves every round and so moves it. What it leaves out — how many
/// rounds were disturbed — is `driver.round_iqr_pct.*` and the per-round
/// values printed beside it.
fn good_round(
    name: impl Into<String>,
    unit: &'static str,
    better: Better,
    per_round: &[f64],
) -> Metric {
    let mut sorted = per_round.to_vec();
    sorted.sort_by(f64::total_cmp);
    if better == Better::Higher {
        sorted.reverse();
    }
    let value = sorted
        .get(GOOD_ROUNDS.min(sorted.len()).saturating_sub(1))
        .copied()
        .unwrap_or(0.0);
    Metric {
        note: rounds_note(per_round),
        ..metric(name, value, unit, better)
    }
}

/// The plain median over rounds: the size metrics (see [`end_to_end`]) and
/// the per-layer metrics.
fn median_of(
    name: impl Into<String>,
    unit: &'static str,
    better: Better,
    per_round: &[f64],
) -> Metric {
    Metric {
        note: rounds_note(per_round),
        ..metric(name, quartiles(per_round).1, unit, better)
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn per_mop(count: u64, ops: u64) -> f64 {
    ratio(count as f64 * 1e6, ops as f64)
}

/// Pools the sampled latencies of every round of one scheme.
fn pooled_latency(slices: &[SliceOut]) -> Histo {
    let mut h = Histo::default();
    slices.iter().for_each(|s| h.merge(&s.lat));
    h
}

fn total_stats(slices: &[SliceOut]) -> (ThreadStats, u64) {
    let mut stats = ThreadStats::default();
    let mut ops = 0;
    for s in slices {
        stats += s.stats;
        ops += s.counts.total();
    }
    (stats, ops)
}

fn column(slices: &[SliceOut], f: impl Fn(&SliceOut) -> f64) -> Vec<f64> {
    slices.iter().map(f).collect()
}

/// What the end-to-end metrics need from one slice: small enough to cross a
/// process boundary as one line of JSON.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SliceSummary {
    pub ops: u64,
    pub size_ok: bool,
    pub ops_per_s: f64,
    pub p50_ns: f64,
    pub p99_ns: f64,
    /// Sampled ops, and how many of them lie beyond the p99.
    pub samples: u64,
    pub beyond_p99: u64,
    pub peak_garbage: f64,
    pub peak_heap_bytes: f64,
}

impl SliceSummary {
    pub fn of(s: &SliceOut) -> Self {
        Self {
            ops: s.counts.total(),
            size_ok: s.size_ok,
            ops_per_s: s.ops_per_s,
            p50_ns: s.lat.quantile(0.5),
            p99_ns: s.lat.quantile(0.99),
            samples: s.lat.count(),
            beyond_p99: s.lat.samples_beyond(0.99),
            peak_garbage: s.peak_garbage,
            peak_heap_bytes: s.peak_heap_bytes as f64,
        }
    }

    fn to_json(self) -> String {
        format!(
            "{{\"ops\": {}, \"size_ok\": {}, \"ops_per_s\": {}, \"p50_ns\": {}, \"p99_ns\": {}, \"samples\": {}, \"beyond_p99\": {}, \"peak_garbage\": {}, \"peak_heap_bytes\": {}}}",
            self.ops,
            self.size_ok,
            self.ops_per_s,
            self.p50_ns,
            self.p99_ns,
            self.samples,
            self.beyond_p99,
            self.peak_garbage,
            self.peak_heap_bytes
        )
    }

    fn from_json(j: &Json) -> Option<Self> {
        let num = |k: &str| j.get(k).and_then(Json::as_f64);
        Some(Self {
            ops: num("ops")? as u64,
            size_ok: j.get("size_ok")? == &Json::Bool(true),
            ops_per_s: num("ops_per_s")?,
            p50_ns: num("p50_ns")?,
            p99_ns: num("p99_ns")?,
            samples: num("samples")? as u64,
            beyond_p99: num("beyond_p99")? as u64,
            peak_garbage: num("peak_garbage")?,
            peak_heap_bytes: num("peak_heap_bytes")?,
        })
    }
}

/// One round of the end-to-end pass, as its own process reports it.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundSummary {
    pub setup_s: f64,
    pub prefill_failed: u64,
    /// In [`SCHEMES`] order.
    pub panel: [SliceSummary; 3],
    pub none: SliceSummary,
}

impl RoundSummary {
    /// Summarises a pass that ran exactly one round with a `none` slice.
    pub fn of(pass: &PassOut) -> Self {
        Self {
            setup_s: pass.setup_s[0],
            prefill_failed: pass.prefill_failed,
            panel: [0, 1, 2].map(|i| SliceSummary::of(&pass.panel[i][0])),
            none: SliceSummary::of(&pass.none[0]),
        }
    }

    /// The one line a round's process prints last.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"setup_s\": {}, \"prefill_failed\": {}, \"panel\": [{}], \"none\": {}}}",
            self.setup_s,
            self.prefill_failed,
            self.panel.map(SliceSummary::to_json).join(", "),
            self.none.to_json()
        )
    }

    pub fn from_json(text: &str) -> Result<Self, String> {
        let j = crate::manifest::parse(text)?;
        let parsed = || {
            let panel = j.get("panel")?.as_arr()?;
            Some(Self {
                setup_s: j.get("setup_s")?.as_f64()?,
                prefill_failed: j.get("prefill_failed")?.as_f64()? as u64,
                panel: [
                    SliceSummary::from_json(panel.first()?)?,
                    SliceSummary::from_json(panel.get(1)?)?,
                    SliceSummary::from_json(panel.get(2)?)?,
                ],
                none: SliceSummary::from_json(j.get("none")?)?,
            })
        };
        parsed().ok_or_else(|| format!("not a round summary: {text}"))
    }

    /// Ops issued in this round's slices, and ops counted as failed: all of
    /// a slice whose size check failed, plus the prefill inserts that did
    /// not report `true`.
    pub fn tally(&self) -> (u64, u64) {
        let (mut ops, mut failed) = (0, self.prefill_failed);
        for s in self.panel.iter().chain([&self.none]) {
            ops += s.ops;
            failed += if s.size_ok { 0 } else { s.ops };
        }
        (ops, failed)
    }
}

/// The eleven end-to-end metrics: timings as the fifth-best round
/// ([`good_round`]), sizes as the median round.
pub fn end_to_end(rounds: &[RoundSummary]) -> Vec<Metric> {
    use Better::{Higher, Lower};
    let scheme = |i: usize, f: fn(&SliceSummary) -> f64| {
        rounds.iter().map(|r| f(&r.panel[i])).collect::<Vec<f64>>()
    };
    let setup: Vec<f64> = rounds.iter().map(|r| r.setup_s).collect();
    let mut out = vec![good_round("setup_s", "s", Lower, &setup)];
    for (i, name) in SCHEMES.iter().enumerate() {
        out.push(good_round(
            format!("{name}.ops_per_s"),
            "1/s",
            Higher,
            &scheme(i, |s| s.ops_per_s),
        ));
    }
    // Percentiles are taken per round: pooling the rounds' samples would let
    // one disturbed round (a few seconds of interference triple its p99) set
    // the value.
    let latency = |i: usize, label: &str, f: fn(&SliceSummary) -> f64| {
        let mut m = good_round(
            format!("{}.op_{label}_ns", SCHEMES[i]),
            "ns",
            Lower,
            &scheme(i, f),
        );
        m.note = format!(
            "{} samples, >= {} beyond p99 per round  {}",
            rounds.iter().map(|r| r.panel[i].samples).sum::<u64>(),
            rounds
                .iter()
                .map(|r| r.panel[i].beyond_p99)
                .min()
                .unwrap_or(0),
            m.note
        );
        m
    };
    out.push(latency(NBRPLUS, "p50", |s| s.p50_ns));
    for i in 0..3 {
        out.push(latency(i, "p99", |s| s.p99_ns));
    }
    // Sizes are not timings: a disturbed round holds more garbage, a round in
    // which the two workers happened to ride each other's grace periods holds
    // less, so their scatter is two-sided and the median is the steady value.
    out.push(median_of(
        "nbrplus.peak_garbage",
        "records",
        Lower,
        &scheme(NBRPLUS, |s| s.peak_garbage),
    ));
    out.push(median_of(
        "nbrplus.peak_heap_bytes",
        "bytes",
        Lower,
        &scheme(NBRPLUS, |s| s.peak_heap_bytes),
    ));
    out.push(median_of(
        "hp.peak_garbage",
        "records",
        Lower,
        &scheme(HP, |s| s.peak_garbage),
    ));
    out
}

/// One scheme's probes of the traced pass, merged over workers.
struct TraceAgg {
    calls: [u64; crate::traced::HOOKS],
    outside_ns: [Histo; 3],
    sampled_hops: [u64; 3],
    bracket_ns: Histo,
    retire_fast_ns: Histo,
    scan_ns: Histo,
    scan_ns_total: u64,
    scan_freed: u64,
    ops: u64,
    worker_ns: f64,
}

impl TraceAgg {
    fn new(slices: &[SliceOut]) -> Self {
        let mut a = TraceAgg {
            calls: [0; crate::traced::HOOKS],
            outside_ns: Default::default(),
            sampled_hops: [0; 3],
            bracket_ns: Histo::default(),
            retire_fast_ns: Histo::default(),
            scan_ns: Histo::default(),
            scan_ns_total: 0,
            scan_freed: 0,
            ops: 0,
            worker_ns: 0.0,
        };
        for s in slices {
            a.ops += s.counts.total();
            a.worker_ns += s.worker_ns;
            for p in &s.probes {
                for (c, n) in a.calls.iter_mut().zip(p.calls) {
                    *c += n;
                }
                for k in 0..3 {
                    a.outside_ns[k].merge(&p.outside_ns[k]);
                    a.sampled_hops[k] += p.sampled_hops[k];
                }
                a.bracket_ns.merge(&p.bracket_ns);
                a.retire_fast_ns.merge(&p.retire_fast_ns);
                a.scan_ns.merge(&p.scan_ns);
                a.scan_ns_total += p.scan_ns_total;
                a.scan_freed += p.scan_freed;
            }
        }
        a
    }

    fn calls_per_op(&self, h: Hook) -> f64 {
        ratio(self.calls[h as usize] as f64, self.ops as f64)
    }
}

/// Everything the traced run measured besides the end-to-end pass.
pub struct LayerInputs<'a> {
    /// The untraced pass (the *stats* metrics and the trust metrics).
    pub untraced: &'a PassOut,
    /// The traced pass: one round, no `none` slice.
    pub traced: &'a PassOut,
    pub micro: &'a MicroOut,
    pub cal: Calibration,
}

/// The per-layer metrics, layer by layer in README order.
pub fn per_layer(inp: &LayerInputs<'_>) -> Vec<Metric> {
    let un = inp.untraced;
    let agg: Vec<TraceAgg> = inp.traced.panel.iter().map(|s| TraceAgg::new(s)).collect();
    let totals: Vec<(ThreadStats, u64)> = un.panel.iter().map(|s| total_stats(s)).collect();
    let ops_per_s: Vec<Vec<f64>> = un
        .panel
        .iter()
        .map(|s| column(s, |x| x.ops_per_s))
        .collect();
    let none_ops = column(&un.none, |s| s.ops_per_s);
    let mut out = Vec::new();

    // driver — whether the run is trustworthy; moves nothing.
    out.push(lower(
        "driver.loop_ns_per_op",
        inp.micro.loop_ns_per_op,
        "ns",
    ));
    out.push(lower("driver.clock_ns", inp.cal.clock_ns, "ns"));
    let traced_nbrplus = quartiles(&column(&inp.traced.panel[NBRPLUS], |s| s.ops_per_s)).1;
    let untraced_nbrplus = quartiles(&ops_per_s[NBRPLUS]).1;
    out.push(lower(
        "driver.trace_overhead_pct",
        100.0 * (1.0 - ratio(traced_nbrplus, untraced_nbrplus)),
        "%",
    ));
    out.push(median_of(
        "driver.none_ops_per_s",
        "1/s",
        Better::Higher,
        &none_ops,
    ));
    for (i, scheme) in SCHEMES.iter().enumerate() {
        // Paired per round: the scheme's slice against the `none` slice that
        // closed the same round.
        let paired: Vec<f64> = ops_per_s[i]
            .iter()
            .zip(&none_ops)
            .map(|(s, n)| ratio(*s, *n))
            .collect();
        out.push(median_of(
            format!("driver.vs_none.{scheme}"),
            "ratio",
            Better::Higher,
            &paired,
        ));
    }
    for (i, scheme) in SCHEMES.iter().enumerate() {
        // How far apart the rounds of one run lie: what the fifth-best
        // rounds of the end-to-end timings leave out.
        let (q1, med, q3) = quartiles(&ops_per_s[i]);
        out.push(lower(
            format!("driver.round_iqr_pct.{scheme}"),
            100.0 * ratio(q3 - q1, med),
            "%",
        ));
    }
    for (i, scheme) in SCHEMES.iter().enumerate() {
        let h = pooled_latency(&un.panel[i]);
        out.push(Metric {
            note: format!("{} samples, {} beyond", h.count(), h.samples_beyond(0.999)),
            ..lower(
                format!("driver.op_p999_ns.{scheme}"),
                h.quantile(0.999),
                "ns",
            )
        });
    }
    out.push(lower(
        "driver.op_max_ns.nbrplus",
        pooled_latency(&un.panel[NBRPLUS]).max() as f64,
        "ns",
    ));

    // ds — traversal and update code: the NBR+ op span minus its timed hook
    // spans, minus the untimed per-hop hooks at the micro-loop's price.
    let n = &agg[NBRPLUS];
    for kind in OpKind::ALL {
        let h = &n.outside_ns[kind as usize];
        let hops = ratio(n.sampled_hops[kind as usize] as f64, h.count() as f64);
        let self_ns = (h.quantile(0.5) - hops * inp.micro.per_hop_ns[NBRPLUS]).max(0.0);
        out.push(Metric {
            note: format!("{} sampled ops, {hops:.1} hops each", h.count()),
            ..lower(format!("ds.{}_self_ns", kind.name()), self_ns, "ns")
        });
    }
    out.push(lower(
        "ds.hops_per_op",
        n.calls_per_op(Hook::Protect),
        "count",
    ));
    out.push(lower(
        "ds.read_phases_per_op",
        n.calls_per_op(Hook::BeginReadPhase),
        "count",
    ));
    let mut updates = (0u64, 0u64);
    for s in &un.panel[NBRPLUS] {
        for k in [OpKind::Insert, OpKind::Remove] {
            updates.0 += s.counts.ok[k as usize];
            updates.1 += s.counts.issued[k as usize];
        }
    }
    out.push(higher(
        "ds.update_success_ratio",
        ratio(updates.0 as f64, updates.1 as f64),
        "ratio",
    ));
    let d = &totals[DEBRA].0;
    out.push(higher(
        "ds.memo_hit_ratio.debra",
        ratio(d.memo_hits as f64, (d.memo_hits + d.memo_misses) as f64),
        "ratio",
    ));

    // core — NBR+ and the neutralization handshake.
    let (s, ops) = &totals[NBRPLUS];
    out.push(lower("core.bracket_ns", n.bracket_ns.quantile(0.5), "ns"));
    out.push(lower(
        "core.per_hop_ns",
        inp.micro.per_hop_ns[NBRPLUS],
        "ns",
    ));
    out.push(lower(
        "core.retire_fast_ns",
        n.retire_fast_ns.quantile(0.5),
        "ns",
    ));
    out.push(Metric {
        note: format!("{} scan calls", n.scan_ns.count()),
        ..lower("core.scan_ns_p50", n.scan_ns.quantile(0.5), "ns")
    });
    out.push(lower("core.scan_ns_p99", n.scan_ns.quantile(0.99), "ns"));
    out.push(lower(
        "core.scan_share_pct",
        100.0 * ratio(n.scan_ns_total as f64, n.worker_ns),
        "%",
    ));
    out.push(lower(
        "core.scans_per_mop",
        per_mop(n.scan_ns.count(), n.ops),
        "1/Mop",
    ));
    let sweeps = s.reclaim_scans + s.rgp_reclaims;
    out.push(higher(
        "core.frees_per_scan",
        ratio(s.frees as f64, sweeps as f64),
        "records",
    ));
    out.push(lower(
        "core.scan_skip_ratio",
        ratio(s.reclaim_skips as f64, s.reclaim_scans as f64),
        "ratio",
    ));
    out.push(lower(
        "core.signals_per_free",
        ratio(s.signals_sent as f64, s.frees as f64),
        "ratio",
    ));
    out.push(lower(
        "core.neutralizations_per_mop",
        per_mop(s.neutralizations, *ops),
        "1/Mop",
    ));
    out.push(higher(
        "core.rgp_reclaim_share",
        ratio(s.rgp_reclaims as f64, sweeps as f64),
        "ratio",
    ));
    out.push(lower(
        "core.ping_concessions_per_mop",
        per_mop(s.ping_concessions, *ops),
        "1/Mop",
    ));
    out.push(median_of(
        "core.garbage_max",
        "records",
        Better::Lower,
        &column(&un.panel[NBRPLUS], |s| s.max_garbage as f64),
    ));

    // baselines — DEBRA and HP.
    let both = [(DEBRA, "debra"), (HP, "hp")];
    for (i, scheme) in both {
        out.push(lower(
            format!("baselines.bracket_ns.{scheme}"),
            agg[i].bracket_ns.quantile(0.5),
            "ns",
        ));
    }
    for (i, scheme) in both {
        out.push(lower(
            format!("baselines.per_hop_ns.{scheme}"),
            inp.micro.per_hop_ns[i],
            "ns",
        ));
    }
    for (i, scheme) in both {
        out.push(Metric {
            note: format!("{} scan calls", agg[i].scan_ns.count()),
            ..lower(
                format!("baselines.scan_ns_p50.{scheme}"),
                agg[i].scan_ns.quantile(0.5),
                "ns",
            )
        });
    }
    for (i, scheme) in both {
        out.push(lower(
            format!("baselines.scans_per_mop.{scheme}"),
            per_mop(agg[i].scan_ns.count(), agg[i].ops),
            "1/Mop",
        ));
    }
    for (i, scheme) in both {
        out.push(higher(
            format!("baselines.frees_per_scan.{scheme}"),
            ratio(agg[i].scan_freed as f64, agg[i].scan_ns.count() as f64),
            "records",
        ));
    }
    out.push(lower(
        "baselines.protect_failures_per_mop.hp",
        per_mop(totals[HP].0.protect_failures, totals[HP].1),
        "1/Mop",
    ));
    out.push(higher(
        "baselines.epoch_advances_per_mop.debra",
        per_mop(totals[DEBRA].0.epoch_advances, totals[DEBRA].1),
        "1/Mop",
    ));
    out.push(median_of(
        "baselines.garbage_per_kop.debra",
        "records/kop",
        Better::Lower,
        &column(&un.panel[DEBRA], |s| {
            ratio(s.peak_garbage * 1e3, s.counts.total() as f64)
        }),
    ));

    // limbo, recycle, ping — micro-loops on the shared substrate.
    let m = inp.micro;
    out.push(lower("limbo.stage_ns", m.limbo.stage_ns, "ns"));
    out.push(lower(
        "limbo.sweep_ns_per_record",
        m.limbo.sweep_ns_per_record,
        "ns",
    ));
    out.push(lower(
        "limbo.sweep_keep_ns_per_record",
        m.limbo.sweep_keep_ns_per_record,
        "ns",
    ));
    out.push(lower("recycle.alloc_hit_ns", m.recycle.alloc_hit_ns, "ns"));
    out.push(lower(
        "recycle.alloc_miss_ns",
        m.recycle.alloc_miss_ns,
        "ns",
    ));
    out.push(lower("recycle.free_ns", m.recycle.free_ns, "ns"));
    out.push(lower(
        "recycle.spill_ns_per_block",
        m.recycle.spill_ns_per_block,
        "ns",
    ));
    for (i, scheme) in SCHEMES.iter().enumerate() {
        out.push(higher(
            format!("recycle.pool_hit_ratio.{scheme}"),
            totals[i].0.pool_hit_rate(),
            "ratio",
        ));
    }
    out.push(lower("ping.rtt_ns_p50", m.ping.rtt_ns_p50, "ns"));
    out.push(lower("ping.rtt_ns_p99", m.ping.rtt_ns_p99, "ns"));
    out.push(lower(
        "ping.rtt_parked_ns_p50",
        m.ping.rtt_parked_ns_p50,
        "ns",
    ));

    // combine — expected ≈ 0 at two threads.
    out.push(higher(
        "combine.publishes_per_mop",
        per_mop(s.combine_publishes, *ops),
        "1/Mop",
    ));
    out.push(higher(
        "combine.adoptions_per_mop",
        per_mop(s.combine_adoptions, *ops),
        "1/Mop",
    ));

    // alloc — what reaches the global allocator.
    for (i, scheme) in SCHEMES.iter().enumerate() {
        let calls: u64 = un.panel[i].iter().map(|s| s.alloc_calls).sum();
        out.push(lower(
            format!("alloc.calls_per_kop.{scheme}"),
            ratio(calls as f64 * 1e3, totals[i].1 as f64),
            "1/kop",
        ));
    }
    let bytes: u64 = un.panel[NBRPLUS].iter().map(|s| s.alloc_bytes).sum();
    out.push(lower(
        "alloc.bytes_per_op.nbrplus",
        ratio(bytes as f64, *ops as f64),
        "bytes",
    ));
    out
}

/// Ops issued and ops counted as failed over an in-process pass: all ops of
/// a slice that fails its size check, plus failed prefill inserts.
pub fn slice_tally(pass: &PassOut) -> (u64, u64) {
    pass.slices()
        .fold((0, pass.prefill_failed), |(att, failed), s| {
            let ops = s.counts.total();
            (att + ops, failed + if s.size_ok { 0 } else { ops })
        })
}

/// Prints every metric by name with its unit, one per line.
pub fn print_table(title: &str, metrics: &[Metric]) {
    println!("# {title}");
    for m in metrics {
        println!(
            "{:<42} {:>18.6} {:<12} {:<7} {}",
            m.name,
            m.value,
            m.unit,
            m.better.name(),
            m.note
        );
    }
}

/// The one-line result object the builder's contract prescribes.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Writes the spans of a traced pass as Chrome-trace JSON (`chrome://tracing`,
/// Perfetto): one process per scheme, one thread per worker; an op span and
/// its hook spans carry the same `op` argument.
pub fn write_chrome_trace(path: &std::path::Path, traced: &PassOut) -> std::io::Result<usize> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    let mut written = 0;
    writeln!(f, "{{\"displayTimeUnit\": \"ns\", \"traceEvents\": [")?;
    for (pid, scheme) in SCHEMES.iter().enumerate() {
        writeln!(
            f,
            "{{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": {pid}, \"args\": {{\"name\": \"{scheme}\"}}}},"
        )?;
        let probes: Vec<&Probe> = traced.panel[pid].iter().flat_map(|s| &s.probes).collect();
        for (tid, probe) in probes.iter().enumerate() {
            for span in &probe.spans {
                let (name, cat, extra) = match span.name {
                    SpanName::Op { kind, hops } => {
                        (kind.name(), "op", format!(", \"hops\": {hops}"))
                    }
                    SpanName::Hook(hook) => (hook.name(), "hook", String::new()),
                    SpanName::Scan { via, freed } => (
                        "scan",
                        "scan",
                        format!(", \"via\": \"{}\", \"freed\": {freed}", via.name()),
                    ),
                };
                writeln!(
                    f,
                    "{{\"name\": \"{name}\", \"cat\": \"{cat}\", \"ph\": \"X\", \"pid\": {pid}, \"tid\": {tid}, \"ts\": {:.3}, \"dur\": {:.3}, \"args\": {{\"op\": {}{extra}}}}},",
                    span.start_ns as f64 / 1e3,
                    span.dur_ns as f64 / 1e3,
                    span.op_id
                )?;
                written += 1;
            }
        }
    }
    // A closing metadata event keeps the array free of a trailing comma.
    writeln!(f, "{{\"name\": \"spans_written\", \"ph\": \"M\", \"pid\": 0, \"args\": {{\"count\": {written}}}}}")?;
    writeln!(f, "]}}")?;
    f.flush()?;
    Ok(written)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_interpolate() {
        assert_eq!(quartiles(&[4.0, 1.0, 3.0, 2.0, 5.0]), (2.0, 3.0, 4.0));
        assert_eq!(quartiles(&[1.0, 2.0]), (1.25, 1.5, 1.75));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0, 7.0));
        assert_eq!(quartiles(&[]), (0.0, 0.0, 0.0));
    }

    #[test]
    fn round_summary_survives_its_json_line() {
        let slice = |k: f64| SliceSummary {
            ops: 1_000_000 + k as u64,
            size_ok: k != 2.0,
            ops_per_s: 5.25e6 + k,
            p50_ns: 390.123456789 + k,
            p99_ns: 851.5,
            samples: 16_393,
            beyond_p99: 163,
            peak_garbage: 1931.0625,
            peak_heap_bytes: 37_377_290.0,
        };
        let round = RoundSummary {
            setup_s: 0.013_245_678,
            prefill_failed: 0,
            panel: [slice(0.0), slice(1.0), slice(2.0)],
            none: slice(3.0),
        };
        assert_eq!(RoundSummary::from_json(&round.to_json()), Ok(round.clone()));
        // The slice that failed its size check counts all its ops as failed.
        assert_eq!(round.tally(), (4_000_006, 1_000_002));
        assert!(RoundSummary::from_json("{\"setup_s\": 1}").is_err());
    }

    #[test]
    fn good_round_follows_the_direction() {
        let rounds = [9.0, 1.0, 7.0, 3.0, 5.0, 2.0, 8.0];
        assert_eq!(good_round("x", "1/s", Better::Higher, &rounds).value, 3.0);
        assert_eq!(good_round("x", "ns", Better::Lower, &rounds).value, 7.0);
        assert_eq!(median_of("x", "ns", Better::Lower, &rounds).value, 5.0);
        // Fewer rounds than five (`--smoke` runs one): the worst of them.
        assert_eq!(good_round("x", "ns", Better::Lower, &[4.0, 6.0]).value, 6.0);
        assert_eq!(good_round("x", "ns", Better::Lower, &[4.0]).value, 4.0);
    }

    #[test]
    fn result_line_is_the_contract_object() {
        let line = result_line(
            true,
            10,
            0,
            &[lower("a.b", 1.5, "ns"), higher("nan", f64::NAN, "ratio")],
        );
        let json = crate::manifest::parse(&line).expect("valid JSON");
        assert_eq!(
            json.get("correct"),
            Some(&crate::manifest::Json::Bool(true))
        );
        assert_eq!(json.get("attempted").and_then(|j| j.as_f64()), Some(10.0));
        let m = json.get("metrics").unwrap();
        assert_eq!(
            m.get("a.b").unwrap().get("value").unwrap().as_f64(),
            Some(1.5)
        );
        assert_eq!(
            m.get("nan").unwrap().get("value").unwrap().as_f64(),
            Some(0.0)
        );
    }
}
