//! Node references and the internal node representation.

use serde::{Deserialize, Serialize};

/// Index of a boolean failure variable. Variable 0 is the topmost level;
/// the variable order is fixed at allocation time.
pub type Var = u32;

const TERM_BIT: u32 = 1 << 31;

/// Inner nodes and terminals are each indexed below 2^30 (16 GiB of
/// nodes), so bit 30 of a raw handle is always clear: the computed table
/// relies on it to tell `ite` keys from tagged ones (`table.rs`).
const INDEX_LIMIT: usize = 1 << 30;

/// A reference to an MTBDD node (inner node or terminal) inside one
/// [`Mtbdd`](crate::Mtbdd) manager.
///
/// Because nodes are hash-consed, two `NodeRef`s from the *same* manager are
/// equal if and only if they denote the same pseudo-boolean function. A
/// `NodeRef` is meaningless in any other manager.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct NodeRef(pub(crate) u32);

impl NodeRef {
    pub(crate) fn inner(ix: usize) -> NodeRef {
        assert!(ix < INDEX_LIMIT, "MTBDD node table overflow");
        NodeRef(ix as u32)
    }

    pub(crate) fn terminal(ix: usize) -> NodeRef {
        assert!(ix < INDEX_LIMIT, "MTBDD terminal table overflow");
        NodeRef(ix as u32 | TERM_BIT)
    }

    /// Whether this reference denotes a terminal (constant) node.
    pub fn is_terminal(&self) -> bool {
        self.0 & TERM_BIT != 0
    }

    pub(crate) fn index(&self) -> usize {
        (self.0 & !TERM_BIT) as usize
    }
}

/// An inner decision node: `var == 0` follows `lo`, `var == 1` follows `hi`.
///
/// By the failure-variable convention, `hi` is the "element alive" branch and
/// `lo` the "element failed" branch. `alive` is the terminal the node
/// evaluates to with every variable alive (`β₀`): the end of its hi-spine,
/// filled by [`Mtbdd::node`](crate::Mtbdd::node) from `hi` and therefore a
/// function of the identity `(var, lo, hi)`, not part of it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Node {
    pub var: Var,
    pub lo: NodeRef,
    pub hi: NodeRef,
    pub alive: NodeRef,
}

impl Node {
    /// Whether this node is the decision `(var, lo, hi)` — the identity
    /// the unique table hashes and compares.
    #[inline]
    pub fn is(&self, var: Var, lo: NodeRef, hi: NodeRef) -> bool {
        self.var == var && self.lo == lo && self.hi == hi
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_is_four_words() {
        assert_eq!(std::mem::size_of::<Node>(), 16);
    }
}
