//! # nbr — Neutralization Based Reclamation
//!
//! A Rust reproduction of **NBR** and **NBR+**, the safe memory reclamation
//! (SMR) algorithms of *NBR: Neutralization Based Reclamation* (Singh, Brown &
//! Mashtizadeh, PPoPP 2021).
//!
//! ## The algorithms in one paragraph
//!
//! Every thread collects the records it unlinks in a private *limbo bag*
//! (Algorithm 1). Data-structure operations are split into a **read phase**
//! (Φ_read: synchronization-free traversal, no writes to shared memory) and a
//! **write phase** (Φ_write: the update, touching only records *reserved* at
//! the phase boundary). When a thread's bag fills up it *neutralizes* all other
//! threads: any thread still in its read phase discards its pointers and
//! restarts from the root, any thread in its write phase is already covered by
//! its reservations — so after scanning the reservations the reclaimer can free
//! everything else in its bag. **NBR+** (Algorithm 2) adds LoWatermark
//! bookkeeping so threads can piggyback on neutralizations broadcast by other
//! threads (*relaxed grace periods*) and reclaim without sending signals of
//! their own, reducing the signal count from `O(n²)` to `O(n)` per
//! system-wide reclamation wave.
//!
//! The result combines EBR-like speed with HP-like bounded garbage, while
//! only requiring the data structure to be expressible as (a sequence of)
//! read-then-write phases that restart from the root — which covers lazy
//! lists, Harris lists, DGT-style external BSTs, (a,b)-trees and many more
//! (Table 1 of the paper; see the `conc-ds` crate for the implementations used
//! in the evaluation).
//!
//! ## What is different from the paper (and why)
//!
//! The paper delivers neutralization with POSIX signals and `siglongjmp`.
//! Longjmping over Rust frames is undefined behaviour unless every skipped
//! frame is trivially destructible, so this reproduction delivers
//! neutralization **cooperatively**: reclaimers publish a signal sequence
//! number per thread, readers observe it at *checkpoints* (one relaxed load per
//! pointer hop) and restart via structured control flow, and reclaimers verify
//! the handshake before freeing. The full argument for why this preserves the
//! paper's safety reasoning (and what it costs) is in `DESIGN.md`,
//! substitution S1, and in the [`neutralize`] module docs.
//!
//! ## Quick start
//!
//! ```
//! use nbr::{NbrPlus, OpResult, SmrHandle};
//! use smr_common::{Atomic, NodeHeader, Smr, SmrConfig, Shared};
//! use std::sync::atomic::Ordering;
//!
//! struct Node { header: NodeHeader, value: u64 }
//! smr_common::impl_smr_node!(Node);
//!
//! // One reclaimer instance shared by all threads of the data structure.
//! let smr = NbrPlus::new(SmrConfig::default());
//!
//! // Each thread registers once and runs operations through its handle.
//! let mut handle = SmrHandle::register(&smr, 0);
//! let root = Atomic::<Node>::null();
//! let n = handle.alloc(Node { header: NodeHeader::new(), value: 42 });
//! root.store(n, Ordering::Release);
//!
//! let v = handle.run(|phase| {
//!     let p = phase.load(0, &root)?;          // Φ_read: checkpointed load
//!     let v = unsafe { p.deref().value };
//!     phase.reserve(&[p.untagged_usize()]);   // reservation + Φ_write begins
//!     OpResult::done(v)
//! });
//! assert_eq!(v, 42);
//!
//! // Unlink + retire: the record is freed once it is provably safe.
//! let old = root.swap(Shared::null(), Ordering::AcqRel);
//! unsafe { handle.retire(old) };
//! ```
//!
//! For full data structures integrated with NBR (lazy list, Harris list,
//! Harris-Michael list, DGT external BST, (a,b)-tree) see the `conc-ds` crate
//! and the `examples/` directory of the workspace.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod guard;
pub mod nbr;
pub mod nbr_plus;
pub mod neutralize;

pub use guard::{Neutralized, OpResult, ReadPhase, SmrHandle};
pub use nbr::{Nbr, NbrCtx};
pub use nbr_plus::{NbrPlus, NbrPlusCtx};
pub use neutralize::{NeutralizationCore, RgpProgress, SignalSlot};

// Re-export the framework types users need to implement their own nodes.
pub use smr_common::{Atomic, NodeHeader, Shared, Smr, SmrConfig, SmrNode};
