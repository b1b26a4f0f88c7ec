//! Auto-enumerated scenario families with symmetry deduplication.
//!
//! A family is "every way to hand out up to `pairs` acquire/release pairs
//! over a mode alphabet to the nodes of a fixed topology". Scripts are
//! built from *atoms* — `[Acquire(m), Release]`, plus `[Acquire(U),
//! Upgrade, Release]` when `U` is in the alphabet — so every enumerated
//! scenario is deadlock-free by construction and any reported deadlock or
//! violation is a protocol bug, not a script artifact.
//!
//! Node permutations that fix the topology (leaf swaps in a star, subtree
//! swaps in a complete binary tree) map scenarios onto behaviourally
//! identical ones, so only one representative per orbit is kept: two
//! scenarios are the same up to such a permutation iff their roots have the
//! same tree signature ([`crate::canon`], the signature the symmetry group
//! of a scenario is computed from).

use crate::canon::{tree_signatures, TreeSignature};
use crate::scenario::{Op, Scenario};
use dlm_core::ProtocolConfig;
use dlm_modes::Mode;
use std::collections::BTreeSet;

/// Initial-tree shapes for enumerated families.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topology {
    /// Node 0 is the root; everyone else is its direct child.
    Star,
    /// `0 ← 1 ← 2 ← …` (maximal forwarding depth).
    Chain,
    /// Complete binary tree (`parents[i] = (i-1)/2`).
    BinaryTree,
}

impl Topology {
    /// Parse a CLI name.
    pub fn parse(s: &str) -> Option<Topology> {
        match s {
            "star" => Some(Topology::Star),
            "chain" => Some(Topology::Chain),
            "btree" | "binary-tree" | "tree" => Some(Topology::BinaryTree),
            _ => None,
        }
    }
}

impl std::fmt::Display for Topology {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Topology::Star => write!(f, "star"),
            Topology::Chain => write!(f, "chain"),
            Topology::BinaryTree => write!(f, "btree"),
        }
    }
}

/// An auto-enumerated scenario family.
#[derive(Debug, Clone)]
pub struct Family {
    /// Initial tree shape.
    pub topology: Topology,
    /// Number of nodes.
    pub nodes: usize,
    /// Mode alphabet for acquire atoms.
    pub modes: Vec<Mode>,
    /// Maximum total acquire/release pairs across all nodes (each scenario
    /// uses between 1 and `pairs`).
    pub pairs: usize,
    /// Protocol configuration every scenario runs.
    pub config: ProtocolConfig,
}

impl Family {
    /// Enumerate all scenarios of the family, one representative per
    /// symmetry orbit, in deterministic order.
    pub fn scenarios(&self) -> Vec<Scenario> {
        assert!(self.nodes >= 1);
        let atoms = atoms(&self.modes);
        let mut scripts_per_count: Vec<Vec<Vec<Op>>> = vec![vec![Vec::new()]];
        for count in 1..=self.pairs {
            let mut level = Vec::new();
            for prefix in &scripts_per_count[count - 1] {
                for atom in &atoms {
                    let mut s = prefix.clone();
                    s.extend_from_slice(atom);
                    level.push(s);
                }
            }
            scripts_per_count.push(level);
        }

        let mut seen = BTreeSet::new();
        let mut out = Vec::new();
        let mut assignment: Vec<Vec<Op>> = vec![Vec::new(); self.nodes];
        self.assign(
            0,
            self.pairs,
            false,
            &scripts_per_count,
            &mut assignment,
            &mut seen,
            &mut out,
        );
        out
    }

    /// Recursively choose each node's script (by atom count, then by
    /// content), keeping only canonical representatives.
    #[allow(clippy::too_many_arguments)]
    fn assign(
        &self,
        node: usize,
        budget: usize,
        any_used: bool,
        scripts_per_count: &[Vec<Vec<Op>>],
        assignment: &mut Vec<Vec<Op>>,
        seen: &mut BTreeSet<TreeSignature>,
        out: &mut Vec<Scenario>,
    ) {
        if node == self.nodes {
            if !any_used {
                return; // the all-empty scenario is trivial
            }
            let scenario = self.build(assignment.clone());
            if seen.insert(Self::canonical_key(&scenario)) {
                out.push(scenario);
            }
            return;
        }
        for count in 0..=budget {
            for script in &scripts_per_count[count] {
                assignment[node] = script.clone();
                self.assign(
                    node + 1,
                    budget - count,
                    any_used || count > 0,
                    scripts_per_count,
                    assignment,
                    seen,
                    out,
                );
            }
        }
        assignment[node] = Vec::new();
    }

    fn build(&self, scripts: Vec<Vec<Op>>) -> Scenario {
        match self.topology {
            Topology::Star => Scenario::star(self.nodes, scripts, self.config),
            Topology::Chain => Scenario::chain(self.nodes, scripts, self.config),
            Topology::BinaryTree => Scenario::binary_tree(self.nodes, scripts, self.config),
        }
    }

    /// What names `scenario` up to the node permutations that fix its tree:
    /// the tree signature of its root.
    fn canonical_key(scenario: &Scenario) -> TreeSignature {
        let (root, mut signatures) = tree_signatures(scenario);
        signatures.swap_remove(root)
    }
}

/// The script atoms over a mode alphabet.
fn atoms(modes: &[Mode]) -> Vec<Vec<Op>> {
    let mut out = Vec::new();
    for &m in modes {
        out.push(vec![Op::Acquire(m), Op::Release]);
        if m == Mode::Upgrade {
            out.push(vec![Op::Acquire(m), Op::Upgrade, Op::Release]);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn family(topology: Topology, nodes: usize, pairs: usize) -> Family {
        Family {
            topology,
            nodes,
            modes: vec![Mode::Read, Mode::Write],
            pairs,
            config: ProtocolConfig::paper(),
        }
    }

    #[test]
    fn star_symmetry_dedup_collapses_leaf_permutations() {
        // 3-node star, one pair: the pair goes to the root (2 mode choices)
        // or to *a* leaf (2 mode choices — which leaf is symmetric).
        let f = family(Topology::Star, 3, 1);
        assert_eq!(f.scenarios().len(), 4);

        // Without symmetry the leaf placements would double: a chain of 3
        // distinguishes all positions.
        let f = family(Topology::Chain, 3, 1);
        assert_eq!(f.scenarios().len(), 6);
    }

    #[test]
    fn btree_sibling_subtrees_are_deduped() {
        // 3-node binary tree = root + two symmetric leaves: same counts as
        // the 3-node star.
        let star = family(Topology::Star, 3, 2).scenarios().len();
        let btree = family(Topology::BinaryTree, 3, 2).scenarios().len();
        assert_eq!(star, btree);
    }

    #[test]
    fn upgrade_mode_contributes_the_rule7_atom() {
        let f = Family {
            topology: Topology::Star,
            nodes: 2,
            modes: vec![Mode::Upgrade],
            pairs: 1,
            config: ProtocolConfig::paper(),
        };
        let scenarios = f.scenarios();
        // One pair on root or leaf, each with plain-U and U-then-upgrade
        // variants: 4 scenarios, one containing Op::Upgrade per placement.
        assert_eq!(scenarios.len(), 4);
        assert!(scenarios
            .iter()
            .any(|s| s.scripts.iter().any(|sc| sc.contains(&Op::Upgrade))));
    }

    #[test]
    fn scenarios_respect_the_pair_budget() {
        for s in family(Topology::Chain, 3, 2).scenarios() {
            let pairs: usize = s
                .scripts
                .iter()
                .map(|sc| sc.iter().filter(|op| matches!(op, Op::Release)).count())
                .sum();
            assert!((1..=2).contains(&pairs));
        }
    }
}
