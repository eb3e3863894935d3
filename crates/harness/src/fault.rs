//! Fault-injection adversary: seeded plans of stalls, departures and
//! black-holed pings (ROADMAP 1(a), the fault rows).
//!
//! A [`FaultPlan`] names, per victim thread, one fault and the operation
//! count at which it fires. The [`driver`](crate::driver) checks the plan at
//! every batch boundary, so faults land at instrumented checkpoints — the
//! same places a real preemption or crash would be observed by the
//! reclaimer. Plans are pure functions of their seed: printing the seed is
//! enough to replay a failing cell (the CI `fault-smoke` job pins its
//! seeds for exactly this reason).
//!
//! A *sweep* is the sequence of plans `stress --faults <base>` runs, one per
//! round: [`FaultPlan::for_round`] is the one derivation of a round's plan
//! from the sweep's base seed, shared by `stress` and `trace --seed <base>`
//! (which captures round 0), and [`replay_args`] / [`parse_sweep_args`] are
//! the two ends of `stress`'s replay line.
//!
//! The three fault kinds probe three different degradation paths:
//!
//! * [`FaultKind::Stall`] — the victim parks *inside* an operation (epoch
//!   pinned, read phase open) but keeps servicing neutralization
//!   checkpoints, like a thread descheduled on a core that still handles
//!   signals. Probes garbage bounds: robust schemes (HP/IBR/HE/WFE, NBR via
//!   neutralization) stay bounded, the EBR family grows.
//! * [`FaultKind::BlackholePings`] — a stall that additionally never
//!   acknowledges pings, like a thread wedged in the kernel with signals
//!   blocked. Probes `PingChannel::await_acks` degradation: the victim must
//!   cost one conceded window with exponentially shrinking re-checks, not a
//!   full `ack_spin_limit` spin on every scan.
//! * [`FaultKind::Depart`] — the victim abandons the trial mid-operation:
//!   no flush, no quiescing, just context unregistration. Probes the orphan
//!   handoff — the departing thread's limbo bag must flow through the
//!   `OrphanPool` to survivors, its magazines back to the depot, and its
//!   ping slot must be permanently exempted.

use std::fmt;

/// One kind of injected fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Park inside an open operation until roughly `for_ops` further
    /// operations complete globally, servicing checkpoints while parked.
    Stall {
        /// Global operations to stay parked for.
        for_ops: u64,
    },
    /// Like [`FaultKind::Stall`], but never acknowledge pings while parked.
    BlackholePings {
        /// Global operations to stay parked for.
        for_ops: u64,
    },
    /// Leave the trial mid-operation: unregister without flushing and exit.
    Depart,
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultKind::Stall { for_ops } => write!(f, "stall({for_ops})"),
            FaultKind::BlackholePings { for_ops } => write!(f, "blackhole({for_ops})"),
            FaultKind::Depart => write!(f, "depart"),
        }
    }
}

/// One fault bound to a victim thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSpec {
    /// Worker tid the fault fires on.
    pub victim: usize,
    /// The victim's local operation count at which the fault fires (checked
    /// at batch boundaries, so it lands on the next multiple of the batch).
    pub at_op: u64,
    /// What happens.
    pub kind: FaultKind,
}

impl fmt::Display for FaultSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}@{}:{}", self.victim, self.at_op, self.kind)
    }
}

/// A full trial's worth of faults: at most one per victim, never all
/// threads, so the trial always keeps at least one unfaulted worker making
/// progress (a plan that stalled or departed everyone could never finish an
/// operation-budget trial).
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// Seed the plan was derived from (0 for hand-built plans).
    pub seed: u64,
    faults: Vec<FaultSpec>,
}

/// xorshift64* — tiny, deterministic, good enough for picking victims.
fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

impl FaultPlan {
    /// A plan with a single hand-chosen fault.
    pub fn single(victim: usize, at_op: u64, kind: FaultKind) -> Self {
        Self {
            seed: 0,
            faults: vec![FaultSpec {
                victim,
                at_op,
                kind,
            }],
        }
    }

    /// Adds one more hand-chosen fault to the plan. Panics if the victim
    /// already has a fault — plans carry at most one fault per thread.
    pub fn with(mut self, victim: usize, at_op: u64, kind: FaultKind) -> Self {
        assert!(
            self.fault_for(victim).is_none(),
            "victim t{victim} already has a fault"
        );
        self.faults.push(FaultSpec {
            victim,
            at_op,
            kind,
        });
        self
    }

    /// Derives a plan from a seed for a trial with `threads` workers: 1 to
    /// `threads - 1` faults on distinct victims (at least one worker always
    /// survives unfaulted), firing between 256 and ~4k local operations in,
    /// parked for 1k–8k global operations. Pure in `seed` — the same seed
    /// always replays the same plan.
    pub fn seeded(seed: u64, threads: usize) -> Self {
        assert!(threads >= 2, "fault plans need at least 2 workers");
        let mut rng = seed | 1; // xorshift must not start at 0
        let max_faults = (threads - 1).min(3);
        let n = 1 + (xorshift(&mut rng) as usize) % max_faults;
        let mut victims: Vec<usize> = (0..threads).collect();
        // Partial Fisher-Yates: the first n entries become the victims.
        for i in 0..n {
            let j = i + (xorshift(&mut rng) as usize) % (threads - i);
            victims.swap(i, j);
        }
        let faults = victims[..n]
            .iter()
            .map(|&victim| {
                let at_op = 256 * (1 + xorshift(&mut rng) % 16);
                let for_ops = 1024 * (1 + xorshift(&mut rng) % 8);
                let kind = match xorshift(&mut rng) % 3 {
                    0 => FaultKind::Stall { for_ops },
                    1 => FaultKind::BlackholePings { for_ops },
                    _ => FaultKind::Depart,
                };
                FaultSpec {
                    victim,
                    at_op,
                    kind,
                }
            })
            .collect();
        Self { seed, faults }
    }

    /// Round `round`'s plan of the sweep seeded with `base`, for a trial
    /// with `threads` workers. The base and round are mixed into one seed,
    /// so successive rounds explore different plans.
    pub fn for_round(base: u64, round: usize, threads: usize) -> Self {
        let seed = base
            .wrapping_add(round as u64)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            | 1;
        Self::seeded(seed, threads)
    }

    /// The fault assigned to `tid`, if any.
    pub fn fault_for(&self, tid: usize) -> Option<FaultSpec> {
        self.faults.iter().copied().find(|f| f.victim == tid)
    }

    /// All faults in the plan.
    pub fn faults(&self) -> &[FaultSpec] {
        &self.faults
    }
}

/// The base seed `stress --faults` and `trace` use when none is given.
pub const DEFAULT_SWEEP_SEED: u64 = 0x5EED_FA17;

/// The `stress` arguments that replay round `round` of the sweep seeded
/// with `base`: they run rounds `0..=round`, the last of which rebuilds
/// that round's plan.
pub fn replay_args(base: u64, round: usize) -> String {
    format!("{} --faults {base:#x}", round + 1)
}

/// Parses `stress`'s arguments, `[rounds] [--faults [seed]]`: the round
/// count (default 1) and, with `--faults`, the sweep's base seed (default
/// [`DEFAULT_SWEEP_SEED`]). A value right after `--faults` is the seed,
/// never the round count.
pub fn parse_sweep_args(args: &[String]) -> Result<(usize, Option<u64>), String> {
    let mut rounds = 1;
    let mut base = None;
    let mut it = args.iter().peekable();
    while let Some(a) = it.next() {
        if a == "--faults" {
            let seed = it.peek().and_then(|s| parse_seed(s));
            if seed.is_some() {
                it.next();
            }
            base = Some(seed.unwrap_or(DEFAULT_SWEEP_SEED));
        } else {
            rounds = a
                .parse()
                .map_err(|_| format!("usage: stress [rounds] [--faults [seed]], got {a}"))?;
        }
    }
    Ok((rounds, base))
}

/// Parses a seed written in hex (`0x…`) or decimal.
pub fn parse_seed(s: &str) -> Option<u64> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "seed={:#x}[", self.seed)?;
        for (i, fault) in self.faults.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{fault}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_plans_are_deterministic() {
        let a = FaultPlan::seeded(0xDEAD_BEEF, 8);
        let b = FaultPlan::seeded(0xDEAD_BEEF, 8);
        assert_eq!(a.faults(), b.faults());
        let c = FaultPlan::seeded(0xDEAD_BEF0, 8);
        // Different seeds almost surely differ; this seed pair does.
        assert_ne!(a.faults(), c.faults());
    }

    #[test]
    fn seeded_plans_leave_a_survivor_on_distinct_victims() {
        for seed in 0..200u64 {
            for threads in 2..8usize {
                let plan = FaultPlan::seeded(seed, threads);
                assert!(!plan.faults().is_empty());
                assert!(
                    plan.faults().len() < threads,
                    "seed {seed} threads {threads}: every worker faulted"
                );
                let mut victims: Vec<_> = plan.faults().iter().map(|f| f.victim).collect();
                victims.sort_unstable();
                victims.dedup();
                assert_eq!(victims.len(), plan.faults().len(), "duplicate victim");
                assert!(victims.iter().all(|&v| v < threads));
            }
        }
    }

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn replay_line_rebuilds_the_round_it_names() {
        for base in [DEFAULT_SWEEP_SEED, 0, 12_345, u64::MAX] {
            for round in 0..6 {
                let derived = FaultPlan::for_round(base, round, 4);
                let (rounds, replay_base) =
                    parse_sweep_args(&args(&replay_args(base, round))).unwrap();
                let replayed = FaultPlan::for_round(replay_base.unwrap(), rounds - 1, 4);
                assert_eq!(
                    (derived.seed, derived.faults()),
                    (replayed.seed, replayed.faults())
                );
            }
            // `trace --seed <base>` captures round 0 of the same sweep.
            let traced = FaultPlan::for_round(parse_seed(&format!("{base:#x}")).unwrap(), 0, 4);
            let round0 = FaultPlan::for_round(base, 0, 4);
            assert_eq!(traced.faults(), round0.faults());
            assert_eq!(traced.seed, base.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
        }
    }

    #[test]
    fn a_value_after_faults_is_the_seed_not_the_round_count() {
        let parse = |line: &str| parse_sweep_args(&args(line));
        assert_eq!(parse("--faults 12345"), Ok((1, Some(12_345))));
        assert_eq!(parse("--faults 3"), Ok((1, Some(3))));
        assert_eq!(parse("2 --faults 0x5EEDFA17"), Ok((2, Some(0x5EED_FA17))));
        assert_eq!(parse("--faults"), Ok((1, Some(DEFAULT_SWEEP_SEED))));
        assert_eq!(parse("4"), Ok((4, None)));
        assert_eq!(parse(""), Ok((1, None)));
        assert!(parse("--faults 0x5EED --bogus").is_err());
    }

    #[test]
    fn display_is_replayable_shorthand() {
        let plan = FaultPlan::single(2, 512, FaultKind::BlackholePings { for_ops: 1024 });
        assert_eq!(format!("{plan}"), "seed=0x0[t2@512:blackhole(1024)]");
        assert_eq!(
            format!(
                "{}",
                FaultSpec {
                    victim: 0,
                    at_op: 64,
                    kind: FaultKind::Depart
                }
            ),
            "t0@64:depart"
        );
    }
}
