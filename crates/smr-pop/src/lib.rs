//! # smr-pop — Publish-on-Ping reclaimers on the cooperative ping substrate
//!
//! The reclaimers in this crate (after *Publish on Ping: A Better Way to
//! Publish Reservations in Memory Reclamation for Concurrent Data
//! Structures*, PPoPP 2025) invert the usual reservation protocol: readers
//! keep their reservations in **thread-private memory** — a plain store, no
//! fence, no shared-cache-line traffic — and promote them to shared slots
//! only when a thread that wants to reclaim **pings** them. The ping/ack
//! handshake is the [`PingChannel`](smr_common::PingChannel) extracted from
//! this repo's cooperative neutralization substrate (DESIGN.md,
//! substitution S1): the same channel NBR uses to neutralize readers is
//! reused here to make readers *publish* instead of *restart*.
//!
//! | scheme | reservation granularity | fast-path cost per hop | robust? |
//! |---|---|---|---|
//! | [`EpochPop`] | one era per thread | nothing (one plain private store per *operation*) | no (epoch family) |
//! | [`HpPop`] | `K` per-record slots | `Acquire` load + plain private store | yes (`K` records/thread) |
//!
//! Both implement the workspace-wide [`Smr`](smr_common::Smr) trait, so every
//! data structure in `conc-ds` runs under them unchanged, and both reuse the
//! shared [`LimboBag`](smr_common::LimboBag) sort-then-sweep reclamation
//! entry points and the scan triggers of
//! [`ReclaimCore`](smr_common::ReclaimCore). The safety argument for
//! publish-on-ping over the cooperative channel — why a ping-then-scan
//! observes every reservation taken before the ping — is written out in
//! DESIGN.md, "Publish-on-Ping on the cooperative channel".

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod epoch_pop;
pub mod hp_pop;

pub use epoch_pop::{EpochPop, EpochPopCtx};
pub use hp_pop::{HpPop, HpPopCtx};
