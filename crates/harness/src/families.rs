//! Runtime dispatch over the statically-typed (reclaimer × data structure)
//! matrix.
//!
//! Data structures are generic over `S: Smr` and monomorphized per reclaimer;
//! the experiment runners, however, want to iterate "for every reclaimer the
//! paper compares". [`SmrKind`] names each reclaimer and
//! [`run_with`] dispatches one trial to the right monomorphization of
//! [`run_trial`](crate::driver::run_trial) for a given [`DsFamily`].

use crate::driver::{
    build_and_prefill, run_trial, run_trial_on, Buildable, HmListNoRestart, TrialResult,
};
use crate::workload::WorkloadSpec;
use conc_ds::{AbTree, DgtTree, HarrisList, HmHashMap, HmList, LazyList};
use smr_common::{Smr, SmrConfig};
use std::marker::PhantomData;
use std::sync::Arc;

/// The reclaimer types the registry names, re-exported so
/// [`for_each_scheme!`](crate::for_each_scheme) expands in crates that do not
/// depend on the scheme crates themselves.
pub mod schemes {
    pub use nbr::{Nbr, NbrPlus};
    pub use smr_baselines::{Debra, HazardEras, HazardPointers, Ibr, Leaky, Qsbr, Rcu, Wfe};
    pub use smr_pop::{EpochPop, HpPop};
}

/// **The** scheme registry: the one list a new reclaimer is added to.
///
/// Invokes `$callback!` once with every scheme as a
/// `{ Variant, snake_name, Type, "label", e1, bench, interval }` row:
///
/// * `Variant` / `"label"` — the [`SmrKind`] variant and its report label
///   (the paper's legend);
/// * `snake_name` — identifier fragment for generated test names
///   (`smoke_<snake_name>_lazy_list`, `<snake_name>_hash`, …);
/// * `e1` — in the set experiment E1 (Figure 3) compares;
/// * `bench` — in the subset the Criterion figure benches and the `stress`
///   bin sweep (keeps `cargo bench` time reasonable while covering every
///   family, including the Publish-on-Ping schemes);
/// * `interval` — stamps monotonically increasing birth eras (what makes
///   the smr-check oracle's incarnation-disjointness rule sound).
///
/// Everything that enumerates reclaimers — [`SmrKind`] and its dispatch
/// tables, the bench/stress subsets, smr-check's matrix, the smoke-test
/// matrix — is generated from these rows, in this (canonical) order.
#[macro_export]
macro_rules! for_each_scheme {
    ($callback:ident) => {
        $callback! {
            // Variant  snake      type                                         label       e1     bench  interval
            { NbrPlus,  nbr_plus,  $crate::families::schemes::NbrPlus,          "NBR+",     true,  true,  false }
            { Nbr,      nbr,       $crate::families::schemes::Nbr,              "NBR",      false, true,  false }
            { Debra,    debra,     $crate::families::schemes::Debra,            "DEBRA",    true,  true,  false }
            { Qsbr,     qsbr,      $crate::families::schemes::Qsbr,             "QSBR",     true,  false, false }
            { Rcu,      rcu,       $crate::families::schemes::Rcu,              "RCU",      true,  false, false }
            { Ibr,      ibr,       $crate::families::schemes::Ibr,              "IBR",      true,  true,  true  }
            { He,       he,        $crate::families::schemes::HazardEras,       "HE",       false, false, true  }
            { Wfe,      wfe,       $crate::families::schemes::Wfe,              "WFE",      false, true,  true  }
            { Hp,       hp,        $crate::families::schemes::HazardPointers,   "HP",       true,  true,  false }
            { EpochPop, epoch_pop, $crate::families::schemes::EpochPop,         "EpochPOP", false, true,  false }
            { HpPop,    hp_pop,    $crate::families::schemes::HpPop,            "HP-POP",   false, true,  false }
            { Leaky,    leaky,     $crate::families::schemes::Leaky,            "none",     true,  true,  false }
        }
    };
}

macro_rules! define_smr_kind {
    ($({ $variant:ident, $snake:ident, $ty:ty, $label:literal, $e1:literal, $bench:literal, $interval:literal })*) => {
        /// The reclamation algorithms of the paper's evaluation and the
        /// schemes grown around them — one variant per
        /// [`for_each_scheme!`](crate::for_each_scheme) row.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        pub enum SmrKind {
            $(
                #[doc = concat!("The `", $label, "` reclaimer ([`", stringify!($ty), "`]).")]
                $variant,
            )*
        }

        /// Every kind, in the registry's canonical order.
        const ALL: &[SmrKind] = &[$(SmrKind::$variant,)*];
        /// Per kind, its `[e1, bench]` subset columns.
        const SUBSETS: &[[bool; 2]] = &[$([$e1, $bench],)*];

        impl SmrKind {
            /// The label used in benchmark output (matches the paper's legends).
            pub fn label(self) -> &'static str {
                match self {
                    $(SmrKind::$variant => $label,)*
                }
            }

            /// Whether the scheme stamps monotonically increasing birth eras
            /// (IBR, HE, WFE) — the interval family.
            pub fn interval(self) -> bool {
                match self {
                    $(SmrKind::$variant => $interval,)*
                }
            }
        }
    };
}
for_each_scheme!(define_smr_kind);

/// The kinds whose subset column `column` is set, packed to the front.
const fn select(column: usize) -> ([SmrKind; ALL.len()], usize) {
    let mut out = [ALL[0]; ALL.len()];
    let (mut n, mut i) = (0, 0);
    while i < ALL.len() {
        if SUBSETS[i][column] {
            out[n] = ALL[i];
            n += 1;
        }
        i += 1;
    }
    (out, n)
}

static E1: ([SmrKind; ALL.len()], usize) = select(0);
static BENCH: ([SmrKind; ALL.len()], usize) = select(1);

impl SmrKind {
    /// Every implemented reclaimer, in the registry's canonical order.
    pub fn all() -> &'static [SmrKind] {
        ALL
    }

    /// The full set compared in experiment E1 (Figure 3).
    pub fn e1_set() -> &'static [SmrKind] {
        &E1.0[..E1.1]
    }

    /// The subset the Criterion figure benches and the `stress` bin sweep.
    pub fn bench_set() -> &'static [SmrKind] {
        &BENCH.0[..BENCH.1]
    }

    /// Parses a label (as printed by [`SmrKind::label`]).
    pub fn parse(s: &str) -> Option<Self> {
        Self::all()
            .iter()
            .copied()
            .find(|k| k.label().eq_ignore_ascii_case(s))
    }
}

/// A family of data structures: one generic definition instantiable with any
/// reclaimer.
pub trait DsFamily {
    /// The concrete structure for reclaimer `S`.
    type Ds<S: Smr>: Buildable<S> + Send + Sync;
    /// Family label used in reports.
    fn label() -> &'static str;
}

/// The lazy list (LL05).
pub struct LazyListFamily;
impl DsFamily for LazyListFamily {
    type Ds<S: Smr> = LazyList<S>;
    fn label() -> &'static str {
        "lazy-list"
    }
}

/// The Harris lock-free list (HL01).
pub struct HarrisListFamily;
impl DsFamily for HarrisListFamily {
    type Ds<S: Smr> = HarrisList<S>;
    fn label() -> &'static str {
        "harris-list"
    }
}

/// The Harris-Michael list modified to restart from the root (E4).
pub struct HmListRestartFamily;
impl DsFamily for HmListRestartFamily {
    type Ds<S: Smr> = HmList<S>;
    fn label() -> &'static str {
        "hm-list-restart"
    }
}

/// The original Harris-Michael list (E4's "norestarts" baseline).
pub struct HmListNoRestartFamily;
impl DsFamily for HmListNoRestartFamily {
    type Ds<S: Smr> = HmListNoRestart<S>;
    fn label() -> &'static str {
        "hm-list-norestart"
    }
}

/// The DGT external BST (E1 trees, E2).
pub struct DgtTreeFamily;
impl DsFamily for DgtTreeFamily {
    type Ds<S: Smr> = DgtTree<S>;
    fn label() -> &'static str {
        "dgt-tree"
    }
}

/// The (a,b)-tree (E3; substitution S3 for Brown's ABTree).
pub struct AbTreeFamily;
impl DsFamily for AbTreeFamily {
    type Ds<S: Smr> = AbTree<S>;
    fn label() -> &'static str {
        "ab-tree"
    }
}

/// The fixed-size hash map of Harris-Michael-list buckets (HMLHT).
pub struct HmHashMapFamily;
impl DsFamily for HmHashMapFamily {
    type Ds<S: Smr> = HmHashMap<S>;
    fn label() -> &'static str {
        "hm-hashmap"
    }
}

/// Runs one trial of `spec` for data-structure family `F` under the reclaimer
/// named by `kind`.
pub fn run_with<F: DsFamily>(kind: SmrKind, spec: &WorkloadSpec, config: SmrConfig) -> TrialResult {
    macro_rules! dispatch {
        ($({ $variant:ident, $snake:ident, $ty:ty, $($flags:tt)* })*) => {
            match kind {
                $(SmrKind::$variant => run_trial::<$ty, F::Ds<$ty>>(spec, config),)*
            }
        };
    }
    for_each_scheme!(dispatch)
}

/// A prefilled (reclaimer × structure) instance that can run the measured
/// portion of many trials — the type-erased handle benchmark matrices hold so
/// one prefill is shared across operation mixes and Criterion samples.
pub trait PrefilledTrial: Send + Sync {
    /// Runs the measured portion of `spec` on the shared structure (no
    /// prefill — see [`run_trial_on`]).
    fn run(&self, spec: &WorkloadSpec) -> TrialResult;
}

struct Prefilled<S: Smr, DS: Buildable<S> + Send + Sync> {
    ds: Arc<DS>,
    _smr: PhantomData<fn() -> S>,
}

impl<S: Smr, DS: Buildable<S> + Send + Sync> PrefilledTrial for Prefilled<S, DS> {
    fn run(&self, spec: &WorkloadSpec) -> TrialResult {
        run_trial_on::<S, DS>(&self.ds, spec)
    }
}

/// Builds and prefills one structure of family `F` under the reclaimer named
/// by `kind`, returning a reusable trial runner. `spec` supplies the key
/// range, prefill size and thread count used for the prefill phase.
pub fn build_prefilled<F: DsFamily>(
    kind: SmrKind,
    spec: &WorkloadSpec,
    config: SmrConfig,
) -> Box<dyn PrefilledTrial> {
    fn mk<S: Smr, DS: Buildable<S> + Send + Sync>(
        spec: &WorkloadSpec,
        config: SmrConfig,
    ) -> Box<dyn PrefilledTrial> {
        Box::new(Prefilled::<S, DS> {
            ds: build_and_prefill::<S, DS>(spec, config),
            _smr: PhantomData,
        })
    }
    macro_rules! dispatch {
        ($({ $variant:ident, $snake:ident, $ty:ty, $($flags:tt)* })*) => {
            match kind {
                $(SmrKind::$variant => mk::<$ty, F::Ds<$ty>>(spec, config),)*
            }
        };
    }
    for_each_scheme!(dispatch)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{StopCondition, WorkloadMix};

    #[test]
    fn labels_parse_back() {
        for &k in SmrKind::all() {
            assert_eq!(SmrKind::parse(k.label()), Some(k));
        }
        assert_eq!(SmrKind::parse("nbr+"), Some(SmrKind::NbrPlus));
        assert_eq!(SmrKind::parse("unknown"), None);
    }

    #[test]
    fn registry_rows_are_distinct_and_subsets_keep_canonical_order() {
        let all = SmrKind::all();
        assert_eq!(all.len(), 12, "one row per implemented reclaimer");
        for (i, a) in all.iter().enumerate() {
            for b in &all[i + 1..] {
                assert_ne!(a, b);
                assert!(!a.label().eq_ignore_ascii_case(b.label()));
            }
        }
        let in_order = |subset: &[SmrKind]| {
            let mut rest = all.iter();
            subset.iter().all(|k| rest.any(|a| a == k))
        };
        assert!(in_order(SmrKind::e1_set()) && SmrKind::e1_set().len() == 7);
        assert!(in_order(SmrKind::bench_set()) && SmrKind::bench_set().len() == 9);
        let interval: Vec<_> = all.iter().filter(|k| k.interval()).collect();
        assert_eq!(interval, [&SmrKind::Ibr, &SmrKind::He, &SmrKind::Wfe]);
    }

    #[test]
    fn e1_set_is_subset_of_all() {
        for k in SmrKind::e1_set() {
            assert!(SmrKind::all().contains(k));
        }
    }

    #[test]
    fn dispatch_runs_every_reclaimer_on_the_lazy_list() {
        let spec = WorkloadSpec::new(
            WorkloadMix::UPDATE_HEAVY,
            128,
            2,
            StopCondition::TotalOps(4_000),
        )
        .with_prefill(64);
        let config = SmrConfig::default()
            .with_max_threads(8)
            .with_watermarks(128, 32);
        for &kind in SmrKind::all() {
            let r = run_with::<LazyListFamily>(kind, &spec, config.clone());
            assert_eq!(r.smr, kind.label(), "label mismatch for {kind:?}");
            assert!(r.total_ops >= 4_000);
        }
    }
}
