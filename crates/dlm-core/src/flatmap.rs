//! Sorted flat maps keyed by [`NodeId`] for the per-node bookkeeping tables.
//!
//! Copysets and grant/freeze bookkeeping are maps from a handful of peers to
//! small `Copy` values. `BTreeMap` pays a heap node allocation the moment a
//! map goes non-empty — which the shared-mode churn path does every round as
//! the copyset flips between empty and one child. A [`FlatMap`] keeps up to
//! `N` entries inline in its owner (the node's peer box), sorted by key, and
//! only touches the heap if the map outgrows the inline capacity (and even
//! then the spill vector's capacity is retained when the map empties, so
//! steady-state transitions stay allocation-free).
//!
//! Iteration order is ascending by `NodeId`, identical to the `BTreeMap`s
//! this replaces — the structural fingerprints that serve as the
//! bit-exactness oracle depend on that order.

use crate::ids::NodeId;
use core::fmt;

/// Inline capacity used for the protocol's per-node maps. Copysets hold a
/// node's *children in the grant tree*, which the paper's O(log n) argument
/// keeps small; four inline slots cover every workload in this repo.
pub const MAP_INLINE: usize = 4;

/// A node's copyset: child → strongest mode granted to that child's subtree.
pub type CopySet = FlatMap<dlm_modes::Mode, MAP_INLINE>;

/// A sorted array-backed map from [`NodeId`] to a small `Copy` value.
///
/// Entries live either entirely inline (`len` of `inline` occupied, sorted)
/// or entirely in `spill` (sorted); the map moves to the spill vector when an
/// insert would exceed `N` and re-arms inline storage when it empties.
#[derive(Clone)]
pub struct FlatMap<V: Copy + Default, const N: usize> {
    /// Occupied prefix length of `inline`; unused when spilled.
    len: usize,
    inline: [(NodeId, V); N],
    /// True while entries live in `spill` instead of `inline`.
    spilled: bool,
    spill: Vec<(NodeId, V)>,
}

impl<V: Copy + Default, const N: usize> FlatMap<V, N> {
    /// Create an empty map. Allocation-free.
    pub fn new() -> Self {
        FlatMap::empty(V::default())
    }

    /// An empty map in `const` context, where `V::default()` cannot be
    /// called: `pad` fills the unoccupied inline slots and is never read.
    pub const fn empty(pad: V) -> Self {
        FlatMap {
            len: 0,
            inline: [(NodeId(0), pad); N],
            spilled: false,
            spill: Vec::new(),
        }
    }

    /// The entries as a sorted slice.
    #[inline]
    fn entries(&self) -> &[(NodeId, V)] {
        if self.spilled {
            &self.spill
        } else {
            &self.inline[..self.len]
        }
    }

    /// Binary-search for `key`: `Ok(pos)` if present, `Err(insert_pos)` if not.
    #[inline]
    fn position(&self, key: NodeId) -> Result<usize, usize> {
        self.entries().binary_search_by(|&(k, _)| k.cmp(&key))
    }

    /// Number of entries.
    #[inline]
    pub fn len(&self) -> usize {
        if self.spilled {
            self.spill.len()
        } else {
            self.len
        }
    }

    /// True if the map holds no entries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Look up the value for `key`.
    #[inline]
    pub fn get(&self, key: &NodeId) -> Option<&V> {
        match self.position(*key) {
            Ok(i) => Some(&self.entries()[i].1),
            Err(_) => None,
        }
    }

    /// True if `key` has an entry.
    #[inline]
    pub fn contains_key(&self, key: &NodeId) -> bool {
        self.position(*key).is_ok()
    }

    /// Insert or replace; returns the previous value if any.
    pub fn insert(&mut self, key: NodeId, value: V) -> Option<V> {
        match self.position(key) {
            Ok(i) => {
                let slot = if self.spilled {
                    &mut self.spill[i].1
                } else {
                    &mut self.inline[i].1
                };
                Some(core::mem::replace(slot, value))
            }
            Err(i) => {
                if self.spilled {
                    self.spill.insert(i, (key, value));
                } else if self.len < N {
                    self.inline.copy_within(i..self.len, i + 1);
                    self.inline[i] = (key, value);
                    self.len += 1;
                } else {
                    // Outgrew the inline capacity: move everything to the
                    // spill vector (which keeps its capacity from any prior
                    // spill episode).
                    self.spill.extend_from_slice(&self.inline);
                    self.spill.insert(i, (key, value));
                    self.spilled = true;
                    self.len = 0;
                }
                None
            }
        }
    }

    /// Remove `key`; returns its value if present.
    pub fn remove(&mut self, key: &NodeId) -> Option<V> {
        match self.position(*key) {
            Ok(i) => {
                let value = if self.spilled {
                    let v = self.spill.remove(i).1;
                    if self.spill.is_empty() {
                        // Re-arm inline storage; the spill Vec keeps its
                        // capacity for the next overflow episode.
                        self.spilled = false;
                    }
                    v
                } else {
                    let v = self.inline[i].1;
                    self.inline.copy_within(i + 1..self.len, i);
                    self.len -= 1;
                    v
                };
                Some(value)
            }
            Err(_) => None,
        }
    }

    /// The `i`-th entry in ascending key order (panics if out of range).
    ///
    /// Lets callers walk the map by index while mutating *other* fields of
    /// the owning struct — the pattern the freeze fan-out loops use instead
    /// of collecting the children into a temporary `Vec`.
    #[inline]
    pub fn get_index(&self, i: usize) -> (NodeId, V) {
        self.entries()[i]
    }

    /// Iterate entries in ascending key order, by value.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, V)> + '_ {
        self.entries().iter().copied()
    }
}

impl<V: Copy + Default, const N: usize> Default for FlatMap<V, N> {
    fn default() -> Self {
        FlatMap::new()
    }
}

impl<V: Copy + Default + fmt::Debug, const N: usize> fmt::Debug for FlatMap<V, N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map()
            .entries(self.entries().iter().map(|&(k, v)| (k, v)))
            .finish()
    }
}

impl<V: Copy + Default + PartialEq, const N: usize> PartialEq for FlatMap<V, N> {
    fn eq(&self, other: &Self) -> bool {
        self.entries() == other.entries()
    }
}

impl<V: Copy + Default + Eq, const N: usize> Eq for FlatMap<V, N> {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn insert_get_remove_inline() {
        let mut m: FlatMap<u64, 4> = FlatMap::new();
        assert!(m.is_empty());
        assert_eq!(m.insert(NodeId(3), 30), None);
        assert_eq!(m.insert(NodeId(1), 10), None);
        assert_eq!(m.insert(NodeId(2), 20), None);
        assert_eq!(m.insert(NodeId(2), 21), Some(20));
        assert_eq!(m.len(), 3);
        assert_eq!(m.get(&NodeId(2)), Some(&21));
        assert!(m.contains_key(&NodeId(1)));
        assert!(!m.contains_key(&NodeId(9)));
        let keys: Vec<u32> = m.iter().map(|(k, _)| k.0).collect();
        assert_eq!(keys, vec![1, 2, 3], "ascending key order");
        assert_eq!(m.remove(&NodeId(1)), Some(10));
        assert_eq!(m.remove(&NodeId(1)), None);
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn spills_past_inline_capacity_and_rearms_when_empty() {
        let mut m: FlatMap<u64, 2> = FlatMap::new();
        for k in [5u32, 1, 3, 4, 2] {
            m.insert(NodeId(k), u64::from(k) * 10);
        }
        assert_eq!(m.len(), 5);
        let keys: Vec<u32> = m.iter().map(|(k, _)| k.0).collect();
        assert_eq!(keys, vec![1, 2, 3, 4, 5]);
        for k in 1..=5u32 {
            assert_eq!(m.remove(&NodeId(k)), Some(u64::from(k) * 10));
        }
        assert!(m.is_empty());
        // After emptying, inline storage is active again.
        m.insert(NodeId(7), 70);
        assert!(!m.spilled);
        assert_eq!(m.get(&NodeId(7)), Some(&70));
    }

    #[test]
    fn matches_btreemap_under_random_ops() {
        // Deterministic LCG so the test needs no external entropy.
        let mut state = 0x243f_6a88_85a3_08d3u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as u32
        };
        let mut flat: FlatMap<u64, 4> = FlatMap::new();
        let mut model: BTreeMap<NodeId, u64> = BTreeMap::new();
        for _ in 0..4000 {
            let key = NodeId(next() % 12);
            match next() % 3 {
                0 | 1 => {
                    let v = u64::from(next());
                    assert_eq!(flat.insert(key, v), model.insert(key, v));
                }
                _ => assert_eq!(flat.remove(&key), model.remove(&key)),
            }
            assert_eq!(flat.len(), model.len());
            let a: Vec<(NodeId, u64)> = flat.iter().collect();
            let b: Vec<(NodeId, u64)> = model.iter().map(|(&k, &v)| (k, v)).collect();
            assert_eq!(a, b, "iteration order/content diverged from BTreeMap");
            for (i, &entry) in a.iter().enumerate() {
                assert_eq!(flat.get_index(i), entry);
            }
        }
    }

    #[test]
    fn debug_formats_like_a_map() {
        let mut m: FlatMap<u64, 4> = FlatMap::new();
        m.insert(NodeId(2), 5);
        assert_eq!(format!("{m:?}"), "{NodeId(2): 5}");
    }
}
