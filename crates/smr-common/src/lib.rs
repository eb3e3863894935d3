//! # smr-common — shared safe-memory-reclamation framework
//!
//! This crate is the substrate shared by every safe memory reclamation (SMR)
//! algorithm in the workspace: the NBR / NBR+ algorithms of the paper
//! (*NBR: Neutralization Based Reclamation*, Singh, Brown & Mashtizadeh,
//! PPoPP 2021) live in the `nbr` crate, the baselines
//! (DEBRA, QSBR, RCU, hazard pointers, IBR, hazard eras, leaky) live in
//! `smr-baselines`, and all of them implement the [`Smr`] trait defined here.
//!
//! The design mirrors the role of setbench's *record manager* in the paper's
//! artifact: concurrent data structures are written **once**, generically over
//! `S: Smr`, and every reclaimer plugs into the same instrumentation points:
//!
//! * [`Smr::begin_op`] / [`Smr::end_op`] — operation brackets used by the
//!   epoch-based family (DEBRA, QSBR, RCU, IBR, HE).
//! * [`Smr::begin_read_phase`] / [`Smr::checkpoint`] / [`Smr::end_read_phase`]
//!   — the NBR phase protocol of the paper (Φ_read, reservation, Φ_write).
//! * [`Smr::protect`] / [`Smr::clear_protections`] — per-access protection used
//!   by the hazard-pointer family (HP, IBR, HE).
//! * [`Smr::alloc`] / [`Smr::retire`] — record lifecycle (allocated → reachable
//!   → unlinked → safe → reclaimed, Section 3 of the paper).
//!
//! Hooks that a given reclaimer does not need are inlined empty defaults, so a
//! single data-structure source compiles down to exactly the instrumentation
//! each reclaimer requires — which is what makes the cross-SMR comparison fair.
//!
//! The crate also provides the low-level building blocks the reclaimers and
//! data structures share:
//!
//! * [`Atomic`] / [`Shared`] — tagged atomic pointers (mark bits in the low
//!   bits, as used by the Harris list).
//! * [`NodeHeader`] / [`SmrNode`] — the per-record metadata (birth era) that
//!   interval-based reclaimers need.
//! * [`Retired`] / [`LimboBag`] — type-erased deferred destruction and the
//!   per-thread limbo bags of Algorithm 1.
//! * [`BlockPool`] / [`Magazine`] — the node-block recycling layer
//!   (thread-local magazines over a shared depot) that takes malloc/free off
//!   the reclamation hot path (`recycle` module).
//! * [`Registry`] — the fixed-capacity thread-slot registry.
//! * [`SlotBlock`] — one line-aligned row of protection slots per thread,
//!   the reservations/hazards/era array every protecting reclaimer publishes
//!   into.
//! * [`ReclaimCore`] / [`ReclaimLocal`] — the retire → scan → adopt → sweep
//!   pipeline every reclaimer is assembled on (`reclaim` module): a scheme
//!   supplies only its reservation rule, its retire stamp, its frontier and
//!   its choice of [`LimboBag`] sweep.
//! * [`PingChannel`] — the cooperative per-thread ping/ack handshake shared
//!   by NBR's neutralization (`nbr` crate) and the Publish-on-Ping
//!   reclaimers (`smr-pop` crate).
//! * [`EraClock`] / [`OrphanPool`] — the global era counter and the
//!   deregistration orphan pool shared by the epoch/era-based reclaimers.
//! * [`CachePadded`], [`Backoff`], [`SeqLock`] — performance primitives.
//! * [`barrier`] — asymmetric fences (`membarrier(2)`-backed `heavy`, a
//!   compiler-fence `light`) that take hazard pointers' per-hop fence off
//!   the reader.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod atomic;
pub mod backoff;
pub mod barrier;
pub mod check;
pub mod header;
pub mod limbo;
pub mod pad;
pub mod ping;
pub mod policy;
pub mod reclaim;
pub mod recycle;
pub mod registry;
pub mod retired;
pub mod slots;
pub mod smr;
pub mod stats;
pub mod trace;
pub mod util;
pub mod vlock;

pub use atomic::{Atomic, Shared};
pub use backoff::Backoff;
pub use header::{NodeHeader, SmrNode};
pub use limbo::{LimboBag, RETIRE_BATCH_CAP};
pub use pad::CachePadded;
pub use ping::{PingChannel, PingOutcome};
pub use policy::{ScanPolicy, ScanState};
pub use reclaim::{ReclaimCore, ReclaimLocal};
pub use recycle::{BlockPool, Magazine};
pub use registry::{Registry, ThreadSlot};
pub use retired::Retired;
pub use slots::{SlotBlock, SLOTS_PER_THREAD};
pub use smr::{Smr, SmrConfig};
pub use stats::ThreadStats;
pub use util::{EraClock, OrphanPool};
pub use vlock::SeqLock;
