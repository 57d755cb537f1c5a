//! Compact open-addressed set for undirected-edge deduplication.
//!
//! `gnm` and `power_law` must reject duplicate draws at generation time
//! (the draw loop's accept/reject sequence is part of their pinned
//! deterministic output).  A `std::collections::HashSet<(u32, u32)>`
//! does the job but costs ≥ 20 bytes per edge (tuple + control bytes +
//! power-of-two over-allocation) — at m = 10^7 that rivals the CSR
//! arrays themselves.  [`EdgeSet`] packs each normalized edge into one
//! `u64` slot (~10 bytes per edge at the 0.8 target load factor, slots
//! sized to the requested capacity rather than the next power of two)
//! while preserving *set semantics exactly*: `insert` returns whether
//! the edge was new, so the accept sequence — and therefore every
//! generated graph — is bit-identical to the `HashSet` version.

use parcolor_local::graph::NodeId;
use parcolor_local::tape::splitmix64;

/// Open-addressed set of undirected edges with linear probing.
///
/// Keys are `((min << 32) | max) + 1` so that `0` can mark an empty
/// slot (the `+1` never collides: `max < 2^32 - 1` is guaranteed by
/// `NodeId` arithmetic on graphs with at least two nodes).
#[derive(Clone, Debug)]
pub struct EdgeSet {
    slots: Vec<u64>,
    len: usize,
}

impl EdgeSet {
    /// A set expecting about `edges` distinct insertions.  Sized for a
    /// 0.8 maximum load factor; grows (rehashes) if exceeded.
    pub fn with_capacity(edges: usize) -> Self {
        let cap = edges + edges / 4 + 16;
        EdgeSet {
            slots: vec![0u64; cap],
            len: 0,
        }
    }

    /// Number of distinct edges inserted so far.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no edge has been inserted yet.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    fn key(u: NodeId, v: NodeId) -> u64 {
        let (a, b) = if u < v { (u, v) } else { (v, u) };
        (((a as u64) << 32) | b as u64) + 1
    }

    /// Map a hash onto `0..cap` without requiring a power-of-two table
    /// (Lemire's multiply-shift range reduction).
    #[inline]
    fn bucket(hash: u64, cap: usize) -> usize {
        ((hash as u128 * cap as u128) >> 64) as usize
    }

    /// Insert the undirected edge `{u, v}`; returns `true` iff it was
    /// not present.  Orientation is ignored, matching `HashSet` keyed
    /// on the normalized tuple.
    pub fn insert(&mut self, u: NodeId, v: NodeId) -> bool {
        debug_assert!(u != v, "self loop {u}");
        if self.len + 1 > self.slots.len() * 4 / 5 {
            self.grow();
        }
        let key = Self::key(u, v);
        let cap = self.slots.len();
        let mut i = Self::bucket(splitmix64(key), cap);
        loop {
            match self.slots[i] {
                0 => {
                    self.slots[i] = key;
                    self.len += 1;
                    return true;
                }
                k if k == key => return false,
                _ => i = if i + 1 == cap { 0 } else { i + 1 },
            }
        }
    }

    /// Call `f(a, b)` once for every edge in the set, with `a < b`, in
    /// slot order.
    pub fn for_each(&self, mut f: impl FnMut(NodeId, NodeId)) {
        for &key in self.slots.iter().filter(|&&k| k != 0) {
            let k = key - 1;
            f((k >> 32) as NodeId, k as NodeId);
        }
    }

    fn grow(&mut self) {
        let new_cap = self.slots.len() * 2;
        let old = std::mem::replace(&mut self.slots, vec![0u64; new_cap]);
        for key in old.into_iter().filter(|&k| k != 0) {
            let mut i = Self::bucket(splitmix64(key), new_cap);
            while self.slots[i] != 0 {
                i = if i + 1 == new_cap { 0 } else { i + 1 };
            }
            self.slots[i] = key;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn matches_hashset_accept_sequence() {
        let mut ours = EdgeSet::with_capacity(8); // undersized: forces growth
        let mut std_set: HashSet<(NodeId, NodeId)> = HashSet::new();
        let mut state = 12345u64;
        for _ in 0..5000 {
            state = splitmix64(state);
            let u = (state >> 32) as NodeId % 97;
            let v = state as NodeId % 97;
            if u == v {
                continue;
            }
            let key = if u < v { (u, v) } else { (v, u) };
            assert_eq!(ours.insert(u, v), std_set.insert(key));
        }
        assert_eq!(ours.len(), std_set.len());
    }

    #[test]
    fn orientation_is_ignored() {
        let mut s = EdgeSet::with_capacity(4);
        assert!(s.insert(3, 7));
        assert!(!s.insert(7, 3));
        assert_eq!(s.len(), 1);
        assert!(!s.is_empty());
    }

    #[test]
    fn for_each_decodes_every_edge_once() {
        let mut ours = EdgeSet::with_capacity(8); // undersized: forces growth
        let mut want: HashSet<(NodeId, NodeId)> = HashSet::new();
        for i in 0..500u32 {
            let (u, v) = (i * 7 % 101, (i * 13 + 5) % 103);
            if u != v {
                ours.insert(u, v);
                want.insert((u.min(v), u.max(v)));
            }
        }
        let mut got = Vec::new();
        ours.for_each(|a, b| got.push((a, b)));
        assert_eq!(got.len(), ours.len());
        assert!(got.iter().all(|&(a, b)| a < b));
        assert_eq!(got.into_iter().collect::<HashSet<_>>(), want);
    }
}
