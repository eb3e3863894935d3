//! The standing benchmark of the NBR reproduction: a three-scheme panel
//! (`NbrPlus`, `Debra`, `HazardPointers`) over four workloads, measured end
//! to end with tracing off and, in a separate traced pass plus micro-loops,
//! layer by layer. `README.md` is the reference for every metric name.
//!
//! Everything here drives the public API of the crates under test and
//! nothing else: its own generator ([`gen`]), its own closed-loop driver
//! ([`driver`]), its own histogram ([`histo`]) and allocator ledger
//! ([`alloc_count`]), so that a change to the program cannot change how it
//! is measured.

pub mod alloc_count;
pub mod driver;
pub mod gen;
pub mod histo;
pub mod manifest;
pub mod micro;
pub mod report;
pub mod traced;

/// Installed for the binary and every test target of this package: the
/// `peak_heap_bytes` and `alloc.*` metrics read its ledger.
#[global_allocator]
static ALLOCATOR: alloc_count::Counting = alloc_count::Counting;
