//! Small labelled counter sets.

use serde::Serialize;

/// A set of named monotonically increasing counters (message kinds, grant
/// kinds, …). Serialize-only: counter names are `&'static str` labels baked
/// into the binary.
///
/// The labels are a closed vocabulary of a few dozen entries at most, so the
/// set is a flat vector in first-seen order rather than an ordered map:
/// [`CounterSet::add`] on a known label is a linear scan comparing label
/// addresses (one pointer compare per entry, no string compare, no
/// allocation). A label whose text is already present at another address
/// falls back to a content compare, so the set is keyed by label text either
/// way. Name order — what reports and [`CounterSet::iter`] promise — is
/// produced only when the set is read.
#[derive(Debug, Clone, Default, Serialize)]
pub struct CounterSet {
    /// One entry per distinct label text, in first-seen order.
    counters: Vec<(&'static str, u64)>,
}

/// The same label: same address and length, which the hot path hits, or
/// else the same text.
fn position(counters: &[(&'static str, u64)], name: &str) -> Option<usize> {
    counters
        .iter()
        .position(|&(k, _)| k.as_ptr() == name.as_ptr() && k.len() == name.len())
        .or_else(|| counters.iter().position(|&(k, _)| k == name))
}

impl CounterSet {
    /// Empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `delta` to counter `name` (creating it at zero).
    pub fn add(&mut self, name: &'static str, delta: u64) {
        match position(&self.counters, name) {
            Some(i) => self.counters[i].1 += delta,
            None => self.counters.push((name, delta)),
        }
    }

    /// Increment counter `name` by one.
    pub fn incr(&mut self, name: &'static str) {
        self.add(name, 1);
    }

    /// Read a counter (0 when absent).
    pub fn get(&self, name: &str) -> u64 {
        position(&self.counters, name).map_or(0, |i| self.counters[i].1)
    }

    /// Sum across all counters.
    pub fn total(&self) -> u64 {
        self.counters.iter().map(|&(_, v)| v).sum()
    }

    /// Iterate `(name, value)` in name order (sorted here, on read).
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> {
        let mut sorted = self.counters.clone();
        sorted.sort_unstable_by_key(|&(k, _)| k);
        sorted.into_iter()
    }

    /// Merge another counter set into this one.
    pub fn merge(&mut self, other: &CounterSet) {
        for (k, v) in other.iter() {
            self.add(k, v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn add_get_total() {
        let mut c = CounterSet::new();
        c.incr("request");
        c.add("request", 2);
        c.incr("grant");
        assert_eq!(c.get("request"), 3);
        assert_eq!(c.get("grant"), 1);
        assert_eq!(c.get("missing"), 0);
        assert_eq!(c.total(), 4);
    }

    #[test]
    fn iteration_is_name_ordered() {
        let mut c = CounterSet::new();
        c.incr("zeta");
        c.incr("alpha");
        let names: Vec<&str> = c.iter().map(|(k, _)| k).collect();
        assert_eq!(names, vec!["alpha", "zeta"]);
    }

    #[test]
    fn merge_adds_counters() {
        let mut a = CounterSet::new();
        a.add("x", 2);
        let mut b = CounterSet::new();
        b.add("x", 3);
        b.add("y", 1);
        a.merge(&b);
        assert_eq!(a.get("x"), 5);
        assert_eq!(a.get("y"), 1);
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
        // "grant" twice: equal text at two addresses must be one counter.
        let leaked: &'static str = Box::leak(String::from("grant").into_boxed_str());
        let vocab = [
            "request", "grant", "token", "release", "freeze", "zeta", "a", leaked,
        ];
        assert_ne!(vocab[1].as_ptr(), leaked.as_ptr());
        let absent = ["missing", "gran", "grants", ""];

        let mut set = CounterSet::new();
        let mut model: BTreeMap<&str, u64> = BTreeMap::new();
        let mut other = CounterSet::new();
        let mut other_model: BTreeMap<&str, u64> = BTreeMap::new();
        for _ in 0..4000 {
            let name = vocab[next() as usize % vocab.len()];
            match next() % 8 {
                0..=3 => {
                    let delta = u64::from(next() % 100);
                    set.add(name, delta);
                    *model.entry(name).or_insert(0) += delta;
                }
                4 | 5 => {
                    set.incr(name);
                    *model.entry(name).or_insert(0) += 1;
                }
                6 => {
                    other.incr(name);
                    *other_model.entry(name).or_insert(0) += 1;
                }
                _ => {
                    set.merge(&other);
                    for (&k, &v) in &other_model {
                        *model.entry(k).or_insert(0) += v;
                    }
                }
            }
            for name in vocab.iter().chain(&absent) {
                assert_eq!(set.get(name), model.get(name).copied().unwrap_or(0));
            }
            assert_eq!(set.total(), model.values().sum::<u64>());
            let a: Vec<(&str, u64)> = set.iter().collect();
            let b: Vec<(&str, u64)> = model.iter().map(|(&k, &v)| (k, v)).collect();
            assert_eq!(a, b, "iteration order/content diverged from BTreeMap");
        }
    }
}
