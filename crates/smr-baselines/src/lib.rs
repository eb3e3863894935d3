//! # smr-baselines — the SMR algorithms NBR is compared against
//!
//! Reimplementations of the reclamation schemes used as baselines in the
//! paper's evaluation (Section 7), all behind the common
//! [`Smr`](smr_common::Smr) trait so every data structure in `conc-ds` can be
//! run against every reclaimer:
//!
//! | name | module | family | bounded garbage? |
//! |---|---|---|---|
//! | `DEBRA` | [`debra`] | epoch-based (fastest EBR) | no |
//! | `QSBR` | [`qsbr`] | quiescent-state-based | no |
//! | `RCU` | [`rcu`] | epoch/era read-side critical sections | no |
//! | `HP` | [`hazard`] | hazard pointers | yes |
//! | `IBR` | [`ibr`] | interval-based (2GEIBR) | yes |
//! | `HE` | [`hazard_eras`] | hazard eras | yes |
//! | `WFE` | [`wfe`] | wait-free eras (robust: bounded under stall) | yes |
//! | `none` | [`leaky`] | no reclamation (throughput upper bound) | n/a |
//!
//! The NBR and NBR+ algorithms themselves live in the `nbr` crate.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod debra;
pub mod hazard;
pub mod hazard_eras;
pub mod ibr;
pub mod leaky;
pub mod qsbr;
pub mod rcu;
pub mod wfe;

pub use debra::{Debra, DebraCtx};
pub use hazard::{HazardPointers, HpCtx};
pub use hazard_eras::{HazardEras, HeCtx};
pub use ibr::{Ibr, IbrCtx};
pub use leaky::{Leaky, LeakyCtx};
pub use qsbr::{Qsbr, QsbrCtx};
pub use rcu::{Rcu, RcuCtx};
pub use wfe::{Wfe, WfeCtx};
