//! Per-record SMR metadata.
//!
//! Interval-based reclaimers (IBR's 2GEIBR, hazard eras) need to know the
//! global era in which each record was *born*; they compare it against the
//! per-thread era intervals announced by readers. Following the IBR benchmark
//! (which the paper adapts its baselines from), every node embeds a small
//! [`NodeHeader`] that carries this metadata. For the other reclaimers (NBR,
//! DEBRA, QSBR, RCU, HP, leaky) the header is inert padding, uniformly across
//! all of them, so relative comparisons remain fair.

/// Per-record metadata embedded in every data-structure node.
///
/// The header may sit anywhere in the node: reclaimers reach it only through
/// [`SmrNode::header`], never by offset, so a node type is free to put the
/// fields its traversal reads first and the header last.
#[derive(Debug, Default, Clone)]
pub struct NodeHeader {
    /// Global era at which the record was allocated (IBR / HE). Written once
    /// before the record is published, read only after the record is retired.
    birth_era: u64,
}

impl NodeHeader {
    /// A header with birth era 0 (used by reclaimers that do not track eras).
    pub const fn new() -> Self {
        Self { birth_era: 0 }
    }

    /// The era at which the record was allocated.
    #[inline]
    pub fn birth_era(&self) -> u64 {
        self.birth_era
    }

    /// Sets the birth era. Only called before the record is shared.
    #[inline]
    pub fn set_birth_era(&mut self, era: u64) {
        self.birth_era = era;
    }
}

/// Implemented by every data-structure node type managed by an [`Smr`]
/// reclaimer.
///
/// The only requirement is access to the embedded [`NodeHeader`]; the blanket
/// lifecycle machinery (type-erased deferred destruction in
/// [`Retired`](crate::Retired)) takes care of the rest.
///
/// # Safety-adjacent contract
/// `header`/`header_mut` must return the *same* embedded header for the
/// lifetime of the node, and the node must be `'static` (it is owned by the
/// data structure, not borrowed).
pub trait SmrNode: Send + Sized + 'static {
    /// Shared access to the embedded header.
    fn header(&self) -> &NodeHeader;
    /// Exclusive access to the embedded header (only used before publication).
    fn header_mut(&mut self) -> &mut NodeHeader;
}

/// Convenience macro implementing [`SmrNode`] for a node struct with a field
/// named `header` of type [`NodeHeader`].
#[macro_export]
macro_rules! impl_smr_node {
    ($ty:ident $(< $($gen:ident),+ >)?) => {
        impl $(< $($gen),+ >)? $crate::SmrNode for $ty $(< $($gen),+ >)?
        where
            $ty $(< $($gen),+ >)?: Send + 'static,
        {
            #[inline]
            fn header(&self) -> &$crate::NodeHeader {
                &self.header
            }
            #[inline]
            fn header_mut(&mut self) -> &mut $crate::NodeHeader {
                &mut self.header
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    struct TestNode {
        header: NodeHeader,
        #[allow(dead_code)]
        key: u64,
    }
    crate::impl_smr_node!(TestNode);

    #[test]
    fn header_default_era_is_zero() {
        let h = NodeHeader::new();
        assert_eq!(h.birth_era(), 0);
    }

    #[test]
    fn set_birth_era_roundtrip() {
        let mut h = NodeHeader::default();
        h.set_birth_era(42);
        assert_eq!(h.birth_era(), 42);
    }

    #[test]
    fn macro_implements_trait() {
        let mut n = TestNode {
            header: NodeHeader::new(),
            key: 1,
        };
        n.header_mut().set_birth_era(7);
        assert_eq!(n.header().birth_era(), 7);
    }
}
