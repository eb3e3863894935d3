//! Runtime dispatch over the statically-typed (reclaimer × data structure)
//! matrix.
//!
//! Data structures are generic over `S: Smr` and monomorphized per reclaimer;
//! the tests, the `stress` bin and the examples, however, want to iterate
//! "for every reclaimer". [`SmrKind`] names each reclaimer and
//! [`run_with`] dispatches one trial to the right monomorphization of
//! [`run_trial`](crate::driver::run_trial) for a given [`DsFamily`].

use crate::driver::{run_trial, Buildable, TrialResult};
use crate::workload::WorkloadSpec;
use conc_ds::{DgtTree, HarrisList, LazyList};
use smr_common::{Smr, SmrConfig};

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
/// `{ Variant, snake_name, Type, "label", interval }` row:
///
/// * `Variant` / `"label"` — the [`SmrKind`] variant and its report label
///   (the paper's legend);
/// * `snake_name` — identifier fragment for generated test names
///   (`smoke_<snake_name>_lazy_list`, `<snake_name>_hash`, …);
/// * `interval` — stamps monotonically increasing birth eras (what makes
///   the smr-check oracle's incarnation-disjointness rule sound).
///
/// Everything that enumerates reclaimers — [`SmrKind`] and its dispatch
/// table, smr-check's matrix, the smoke-test matrix — is generated from
/// these rows, in this (canonical) order.
#[macro_export]
macro_rules! for_each_scheme {
    ($callback:ident) => {
        $callback! {
            // Variant  snake      type                                         label       interval
            { NbrPlus,  nbr_plus,  $crate::families::schemes::NbrPlus,          "NBR+",     false }
            { Nbr,      nbr,       $crate::families::schemes::Nbr,              "NBR",      false }
            { Debra,    debra,     $crate::families::schemes::Debra,            "DEBRA",    false }
            { Qsbr,     qsbr,      $crate::families::schemes::Qsbr,             "QSBR",     false }
            { Rcu,      rcu,       $crate::families::schemes::Rcu,              "RCU",      false }
            { Ibr,      ibr,       $crate::families::schemes::Ibr,              "IBR",      true  }
            { He,       he,        $crate::families::schemes::HazardEras,       "HE",       true  }
            { Wfe,      wfe,       $crate::families::schemes::Wfe,              "WFE",      true  }
            { Hp,       hp,        $crate::families::schemes::HazardPointers,   "HP",       false }
            { EpochPop, epoch_pop, $crate::families::schemes::EpochPop,         "EpochPOP", false }
            { HpPop,    hp_pop,    $crate::families::schemes::HpPop,            "HP-POP",   false }
            { Leaky,    leaky,     $crate::families::schemes::Leaky,            "none",     false }
        }
    };
}

macro_rules! define_smr_kind {
    ($({ $variant:ident, $snake:ident, $ty:ty, $label:literal, $interval:literal })*) => {
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

        impl SmrKind {
            /// Every implemented reclaimer, in the registry's canonical order.
            pub fn all() -> &'static [SmrKind] {
                &[$(SmrKind::$variant,)*]
            }

            /// The label used in reports (matches the paper's legends).
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

impl SmrKind {
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
}

/// The lazy list (LL05).
pub struct LazyListFamily;
impl DsFamily for LazyListFamily {
    type Ds<S: Smr> = LazyList<S>;
}

/// The Harris lock-free list (HL01).
pub struct HarrisListFamily;
impl DsFamily for HarrisListFamily {
    type Ds<S: Smr> = HarrisList<S>;
}

/// The DGT external BST.
pub struct DgtTreeFamily;
impl DsFamily for DgtTreeFamily {
    type Ds<S: Smr> = DgtTree<S>;
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
        let interval: Vec<_> = all.iter().filter(|k| k.interval()).collect();
        assert_eq!(interval, [&SmrKind::Ibr, &SmrKind::He, &SmrKind::Wfe]);
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
