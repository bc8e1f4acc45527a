//! A reusable per-thread node-mark buffer for graph walks.
//!
//! Extraction marks a few hundred nodes of a graph with thousands; a hash
//! set pays hashing on every probe, a fresh dense array pays clearing the
//! whole graph per call. [`NodeMarks`] keeps one `u32` stamp per node:
//! starting a pass bumps the epoch, which unmarks every node in O(1).
//! Only when the epoch wraps are the stamps cleared, so a stamp left from
//! an earlier cycle never reads as a mark. A node also carries a `u32`
//! value (extraction stores local indices there), valid only while it is
//! marked in the current pass. Values sit in their own array so that a
//! walk, which reads only stamps, touches half the cache lines that
//! (stamp, value) pairs would; between extractions the model's forward
//! pass evicts the buffer, so those lines come back cold.

use std::cell::RefCell;

/// Epoch-stamped dense node marks (see the module docs).
#[derive(Debug, Default)]
pub(crate) struct NodeMarks {
    /// Pass that marked each node; 0 is never a live epoch.
    stamps: Vec<u32>,
    values: Vec<u32>,
    epoch: u32,
}

thread_local! {
    static MARKS: RefCell<NodeMarks> = RefCell::new(NodeMarks::default());
}

/// Run `f` on this thread's mark buffer. Callers never nest: `f` must
/// not call back into a function that takes the buffer.
pub(crate) fn with_marks<R>(f: impl FnOnce(&mut NodeMarks) -> R) -> R {
    MARKS.with_borrow_mut(f)
}

impl NodeMarks {
    /// A buffer whose next passes run the epoch up to and across its wrap.
    #[cfg(test)]
    pub(crate) fn starting_at(epoch: u32) -> Self {
        Self {
            epoch,
            ..Self::default()
        }
    }

    /// Start a pass over a graph of `num_nodes` nodes: every node reads
    /// unmarked afterwards. Grows the buffer when the graph has grown.
    pub(crate) fn begin(&mut self, num_nodes: usize) {
        if self.stamps.len() < num_nodes {
            self.stamps.resize(num_nodes, 0);
            self.values.resize(num_nodes, 0);
        }
        if self.epoch == u32::MAX {
            self.stamps.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
    }

    /// Mark `node`; true when it was not yet marked in this pass.
    pub(crate) fn mark(&mut self, node: u32) -> bool {
        let stamp = &mut self.stamps[node as usize];
        if *stamp == self.epoch {
            return false;
        }
        *stamp = self.epoch;
        true
    }

    /// Clear `node`'s mark in this pass.
    pub(crate) fn unmark(&mut self, node: u32) {
        self.stamps[node as usize] = 0;
    }

    /// Mark `node` and attach `value` to it.
    pub(crate) fn set(&mut self, node: u32, value: u32) {
        self.stamps[node as usize] = self.epoch;
        self.values[node as usize] = value;
    }

    /// The value attached to `node`, if it is marked in this pass.
    pub(crate) fn get(&self, node: u32) -> Option<u32> {
        (self.stamps[node as usize] == self.epoch).then(|| self.values[node as usize])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_new_pass_unmarks_everything() {
        let mut m = NodeMarks::default();
        m.begin(4);
        assert!(m.mark(2));
        assert!(!m.mark(2));
        m.set(3, 7);
        assert_eq!(m.get(3), Some(7));
        m.unmark(2);
        assert!(m.mark(2), "an unmarked node marks again");
        m.begin(4);
        assert_eq!(m.get(3), None);
        assert!(m.mark(2));
    }

    #[test]
    fn the_buffer_grows_with_the_graph() {
        let mut m = NodeMarks::default();
        m.begin(3);
        m.mark(1);
        m.begin(3000);
        assert!(m.mark(2999));
        assert!(m.mark(1));
        m.begin(30);
        assert!(m.mark(1), "a smaller graph after a larger one");
    }

    #[test]
    fn epoch_wrap_leaves_no_stale_mark() {
        let mut m = NodeMarks::default();
        m.begin(8);
        // Epoch 1: a stamp that would read as a mark when the counter
        // comes round to 1 again, unless the wrap clears it.
        m.set(5, 42);
        m.epoch = u32::MAX - 2;
        m.begin(8);
        assert_eq!(m.get(5), None);
        m.mark(6);
        m.begin(8);
        assert_eq!(m.epoch, u32::MAX);
        m.mark(7);
        m.begin(8);
        assert_eq!(m.epoch, 1, "the wrap restarts at the first live epoch");
        for node in 0..8 {
            assert_eq!(m.get(node), None, "node {node} kept a stale mark");
        }
        assert!(m.mark(5) && m.mark(7));
    }
}
