//! `nbr-benchmark` — see `README.md`; normally started through `run.sh`.

use nbr::NbrPlus;
use nbr_benchmark::driver::{self, Family, Hashes, Inputs, Lists, PassCfg, PassOut, Trees};
use nbr_benchmark::gen::{self, Structure, Workload, WORKLOADS};
use nbr_benchmark::manifest::Manifest;
use nbr_benchmark::micro::{self, MicroCfg};
use nbr_benchmark::report::{self, LayerInputs, Metric, RoundSummary};
use nbr_benchmark::traced::{self, Traced};
use smr_baselines::{Debra, HazardPointers, Leaky};
use std::process::ExitCode;
use std::time::{Duration, Instant};

const USAGE: &str =
    "usage: nbr-benchmark [--workload <name>|all] [--seed n] [--seconds s] [--trace 0|1] \
[--sets N] [--smoke]";

/// Read and written relative to the repository root, where `run.sh` starts us.
const MANIFEST: &str = "BENCHMARK.json";
const OUT_DIR: &str = "benchmark/out";

/// Rounds of a pass; an end-to-end value is an order statistic over them.
/// As many as the declared run length pays for at quarter-second slices: the
/// reported level needs five undisturbed rounds, and the host's disturbed
/// stretches last seconds.
const ROUNDS: usize = 33;
/// What `BENCHMARK.json` declares as `run_seconds`.
const DEFAULT_SECONDS: f64 = 28.0;

#[derive(Debug, Clone)]
struct Opts {
    workloads: Vec<&'static Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    sets: usize,
    smoke: bool,
    /// Internal: run only this round of the end-to-end pass and print its
    /// [`RoundSummary`] (how a run gives every round a process of its own).
    round: Option<usize>,
}

fn parse_args() -> Result<Opts, String> {
    let mut o = Opts {
        workloads: WORKLOADS.iter().collect(),
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        sets: 0,
        smoke: false,
        round: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value\n{USAGE}"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if name != "all" {
                    o.workloads =
                        vec![gen::workload(&name).ok_or(format!("unknown workload {name}"))?];
                }
            }
            "--seed" => o.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                o.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(o.seconds > 0.0 && o.seconds <= 600.0) {
                    return Err("--seconds must lie in (0, 600]".into());
                }
            }
            "--trace" => {
                o.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--sets" => o.sets = value()?.parse().map_err(|e| format!("--sets: {e}"))?,
            "--smoke" => o.smoke = true,
            "--round" => o.round = Some(value()?.parse().map_err(|e| format!("--round: {e}"))?),
            _ => return Err(format!("unknown argument {flag}\n{USAGE}")),
        }
    }
    Ok(o)
}

/// The in-process passes behind the per-layer metrics.
#[derive(Clone, Copy)]
struct LayerPlan {
    /// Untraced: the *stats* metrics, the trust metrics, the overhead's base.
    untraced: PassCfg,
    /// Traced: one round, no `none` slice.
    traced: PassCfg,
    micro: MicroCfg,
}

/// How one run spends its time.
struct Plan {
    /// The end-to-end pass, one process per round.
    end_to_end: Option<PassCfg>,
    layers: Option<LayerPlan>,
}

impl Plan {
    fn new(o: &Opts) -> Self {
        if o.smoke {
            let slice = Duration::from_millis(200);
            let one_round = PassCfg {
                first_round: 0,
                rounds: 1,
                slice,
                none_slice: Some(slice / 5),
            };
            return Plan {
                end_to_end: Some(one_round),
                layers: Some(LayerPlan {
                    untraced: one_round,
                    traced: PassCfg {
                        none_slice: None,
                        ..one_round
                    },
                    micro: MicroCfg::SMOKE,
                }),
            };
        }
        if !o.trace {
            return Plan {
                end_to_end: Some(PassCfg::end_to_end(ROUNDS, o.seconds)),
                layers: None,
            };
        }
        // Two thirds of the budget for the untraced rounds, a twentieth per
        // traced scheme slice (1.4 s at the declared 28 s), and the
        // micro-loops in what is left.
        Plan {
            end_to_end: None,
            layers: Some(LayerPlan {
                untraced: PassCfg::end_to_end(ROUNDS, o.seconds * 0.65),
                traced: PassCfg {
                    first_round: 0,
                    rounds: 1,
                    slice: Duration::from_secs_f64(o.seconds * 0.05),
                    none_slice: None,
                },
                micro: MicroCfg::FULL,
            }),
        }
    }

    fn measured(&self) -> Duration {
        let layers = self
            .layers
            .map_or(Duration::ZERO, |l| l.untraced.total() + l.traced.total());
        self.end_to_end.map_or(Duration::ZERO, |c| c.total()) + layers
    }
}

/// What one run of one workload produced.
struct Outcome {
    attempted: u64,
    failed: u64,
    end_to_end: Vec<Metric>,
    per_layer: Vec<Metric>,
}

/// The replay check on one fresh structure per scheme, `none` included.
fn replay_all<F: Family>(w: &Workload, inputs: &Inputs) -> (u64, u64) {
    fn one<F: Family, S: smr_common::Smr>(w: &Workload, inputs: &Inputs) -> (u64, u64) {
        let (ds, prefill_failed) = driver::build_prefilled::<F, S>(w, &inputs.prefill);
        let (ops, failed) = driver::replay_check(&ds, &inputs.prefill, &inputs.rings[0]);
        (ops, failed + prefill_failed)
    }
    [
        one::<F, NbrPlus>(w, inputs),
        one::<F, Debra>(w, inputs),
        one::<F, HazardPointers>(w, inputs),
        one::<F, Leaky>(w, inputs),
    ]
    .iter()
    .fold((0, 0), |(a, f), (ops, failed)| (a + ops, f + failed))
}

/// Runs round `round` of the end-to-end pass in a process of its own (this
/// binary again, with `--round`) and waits for it. Within one process every
/// instance shares that process's luck — which physical pages its heap got
/// decides the cache conflicts of a working set sized near the L2, and a
/// whole run came out 15–25% slow for one scheme that way — so a run draws
/// it afresh per round, like the inputs and the instances.
fn round_in_child(w: &Workload, o: &Opts, round: usize) -> Result<RoundSummary, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = std::process::Command::new(exe);
    cmd.args(["--workload", w.name, "--seed", &o.seed.to_string()])
        .args([
            "--seconds",
            &o.seconds.to_string(),
            "--round",
            &round.to_string(),
        ]);
    if o.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd.output().map_err(|e| format!("round {round}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    match (out.status.success(), stdout.lines().last()) {
        (true, Some(line)) => RoundSummary::from_json(line),
        _ => Err(format!(
            "round {round} of {} failed ({}): {}",
            w.name,
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        )),
    }
}

/// `--round r`: this process *is* round `r` of the end-to-end pass.
fn run_round<F: Family>(w: &Workload, seed: u64, cfg: PassCfg, round: usize) -> Result<(), String> {
    let one = PassCfg {
        first_round: round,
        rounds: 1,
        ..cfg
    };
    let pass = driver::run_pass::<F, NbrPlus, Debra, HazardPointers>(w, seed, one)?;
    println!("{}", RoundSummary::of(&pass).to_json());
    Ok(())
}

fn run_family<F: Family>(w: &Workload, o: &Opts, plan: &Plan) -> Result<Outcome, String> {
    // Round 0's inputs: the replay check, and the micro-loop over the driver.
    let inputs = driver::make_inputs(w, gen::round_seed(o.seed, 0));
    let (mut attempted, mut failed) = replay_all::<F>(w, &inputs);

    let mut end_to_end = Vec::new();
    if let Some(cfg) = plan.end_to_end {
        let rounds = (0..cfg.rounds)
            .map(|r| round_in_child(w, o, r))
            .collect::<Result<Vec<_>, _>>()?;
        for r in &rounds {
            let (ops, bad) = r.tally();
            attempted += ops;
            failed += bad;
        }
        end_to_end = report::end_to_end(&rounds);
    }

    let mut per_layer = Vec::new();
    if let Some(l) = plan.layers {
        let cal = traced::calibration();
        let untraced: PassOut =
            driver::run_pass::<F, NbrPlus, Debra, HazardPointers>(w, o.seed, l.untraced)?;
        let traced = driver::run_pass::<F, Traced<NbrPlus>, Traced<Debra>, Traced<HazardPointers>>(
            w, o.seed, l.traced,
        )?;
        for pass in [&untraced, &traced] {
            let (ops, bad) = report::slice_tally(pass);
            attempted += ops;
            failed += bad;
        }
        let micro = micro::run_all(w, &inputs.rings, l.micro);
        per_layer = report::per_layer(&LayerInputs {
            untraced: &untraced,
            traced: &traced,
            micro: &micro,
            cal,
        });
        let path =
            std::path::Path::new(OUT_DIR).join(format!("trace_{}_seed{}.json", w.name, o.seed));
        let spans = report::write_chrome_trace(&path, &traced)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!("# {spans} spans written to {}", path.display());
    }
    Ok(Outcome {
        attempted,
        failed,
        end_to_end,
        per_layer,
    })
}

/// Calls `$f::<F>(..)` with `F` the structure family of workload `$w`.
macro_rules! for_family {
    ($w:expr, $f:ident($($arg:expr),*)) => {
        match $w.structure {
            Structure::LazyList => $f::<Lists>($($arg),*),
            Structure::DgtTree => $f::<Trees>($($arg),*),
            Structure::HmHashMap { .. } => $f::<Hashes>($($arg),*),
        }
    };
}

fn run_workload(w: &Workload, o: &Opts, plan: &Plan) -> Result<Outcome, String> {
    for_family!(w, run_family(w, o, plan))
}

/// `--smoke`: the names this binary emits against the ones declared.
fn check_names(manifest: &Manifest, outcome: &Outcome) -> Result<(), String> {
    let names = |ms: &[Metric]| -> Vec<[String; 3]> {
        ms.iter()
            .map(|m| {
                [
                    m.name.clone(),
                    m.unit.to_string(),
                    m.better.name().to_string(),
                ]
            })
            .collect()
    };
    let declared = |ds: &[nbr_benchmark::manifest::Declared]| -> Vec<[String; 3]> {
        ds.iter()
            .map(|d| [d.name.clone(), d.unit.clone(), d.better.clone()])
            .collect()
    };
    for (what, emitted, want) in [
        (
            "end_to_end",
            names(&outcome.end_to_end),
            declared(&manifest.end_to_end),
        ),
        (
            "per_layer",
            names(&outcome.per_layer),
            declared(&manifest.per_layer),
        ),
    ] {
        if emitted != want {
            let missing: Vec<_> = want.iter().filter(|d| !emitted.contains(d)).collect();
            let extra: Vec<_> = emitted.iter().filter(|e| !want.contains(e)).collect();
            return Err(format!(
                "{what} metrics differ from BENCHMARK.json: not emitted {missing:?}, not declared {extra:?} \
                 (or the order differs)"
            ));
        }
    }
    let workloads: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    if manifest.workloads != workloads {
        return Err(format!(
            "workloads differ from BENCHMARK.json: {workloads:?} vs {:?}",
            manifest.workloads
        ));
    }
    Ok(())
}

/// `--sets N`: N end-to-end sets per workload in one invocation, each
/// metric's set-to-set deviation ((max − min) ÷ median) beside its bound.
fn run_sets(o: &Opts, manifest: &Manifest) -> Result<bool, String> {
    let o = &Opts {
        trace: false,
        smoke: false,
        ..o.clone()
    };
    let plan = Plan::new(o);
    let mut all_within = true;
    for w in &o.workloads {
        let mut sets: Vec<Outcome> = Vec::new();
        for _ in 0..o.sets {
            sets.push(run_workload(w, o, &plan)?);
        }
        let failed: u64 = sets.iter().map(|s| s.failed).sum();
        let attempted: u64 = sets.iter().map(|s| s.attempted).sum();
        println!(
            "\n### `{}` — seed {}, {} sets × {:.1} s, attempted {attempted}, failed {failed}\n",
            w.name,
            o.seed,
            o.sets,
            plan.measured().as_secs_f64()
        );
        println!(
            "| metric | unit | {} | deviation | bound | |",
            (1..=o.sets)
                .map(|i| format!("set {i}"))
                .collect::<Vec<_>>()
                .join(" | ")
        );
        println!("|---|---|{}---|---|---|", "---|".repeat(o.sets));
        for (i, m) in sets[0].end_to_end.iter().enumerate() {
            let values: Vec<f64> = sets.iter().map(|s| s.end_to_end[i].value).collect();
            let (lo, hi) = values
                .iter()
                .fold((f64::MAX, f64::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)));
            let median = report::quartiles(&values).1;
            let deviation = if median > 0.0 {
                (hi - lo) / median
            } else {
                0.0
            };
            let bound = manifest
                .bound(&m.name)
                .ok_or(format!("{} has no bound in BENCHMARK.json", m.name))?;
            let within = deviation <= bound;
            all_within &= within && failed == 0;
            println!(
                "| `{}` | {} | {} | {:.2}% | {:.0}% | {} |",
                m.name,
                m.unit,
                values
                    .iter()
                    .map(|v| format!("{v:.6e}"))
                    .collect::<Vec<_>>()
                    .join(" | "),
                100.0 * deviation,
                100.0 * bound,
                if within { "ok" } else { "EXCEEDS" }
            );
        }
    }
    Ok(all_within)
}

fn run(o: &Opts) -> Result<bool, String> {
    if let Some(round) = o.round {
        let cfg = Plan::new(o)
            .end_to_end
            .ok_or("--round belongs to an end-to-end run")?;
        let w = o.workloads[0];
        for_family!(w, run_round(w, o.seed, cfg, round))?;
        return Ok(true);
    }
    if o.sets > 0 {
        return run_sets(o, &Manifest::load(MANIFEST)?);
    }
    let manifest = if o.smoke {
        Some(Manifest::load(MANIFEST)?)
    } else {
        None
    };
    let plan = Plan::new(o);
    let mut all_correct = true;
    for w in &o.workloads {
        let started = Instant::now();
        let outcome = run_workload(w, o, &plan)?;
        println!(
            "# {} seed {} — {:.1} s measured, {:.1} s wall, {} hardware threads",
            w.name,
            o.seed,
            plan.measured().as_secs_f64(),
            started.elapsed().as_secs_f64(),
            std::thread::available_parallelism().map_or(0, usize::from)
        );
        if o.smoke || !o.trace {
            report::print_table("end to end (tracing off)", &outcome.end_to_end);
        }
        if o.smoke || o.trace {
            report::print_table(
                "per layer (traced pass, micro-loops, stats of the untraced slices)",
                &outcome.per_layer,
            );
        }
        if let Some(manifest) = &manifest {
            check_names(manifest, &outcome)?;
        }
        let correct = outcome.failed == 0;
        all_correct &= correct;
        // The contract's result object: per-layer metrics with `--trace 1`,
        // end-to-end metrics otherwise. Last line of a single-workload run.
        let metrics = if o.trace {
            &outcome.per_layer
        } else {
            &outcome.end_to_end
        };
        println!(
            "{}",
            report::result_line(correct, outcome.attempted, outcome.failed, metrics)
        );
    }
    if o.smoke {
        println!(
            "# smoke: all checks passed, metric and workload names match {}",
            MANIFEST
        );
    }
    Ok(all_correct)
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    match run(&opts) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("nbr-benchmark: failed operations or a bound exceeded (see above)");
            ExitCode::from(1)
        }
        Err(e) => {
            eprintln!("nbr-benchmark: {e}");
            println!("{{\"correct\": false, \"attempted\": 1, \"failed\": 1, \"metrics\": {{}}}}");
            ExitCode::from(1)
        }
    }
}
