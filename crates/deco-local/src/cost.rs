//! Round-cost accounting for LOCAL algorithms.
//!
//! Every algorithm in this workspace reports *how many synchronous rounds it
//! used* via a [`CostNode`] tree mirroring the algorithm's structure:
//!
//! * a **leaf** charges a fixed number of rounds (e.g. "exchange colors with
//!   neighbors" = 1);
//! * a **sequential** node runs its children one after another — rounds add;
//! * a **parallel** node runs its children simultaneously on edge-disjoint
//!   subinstances — rounds take the maximum.
//!
//! Each node optionally carries the *scheduled budget*: the worst-case number
//! of rounds allotted by the fixed LOCAL schedule. In faithful mode
//! actual == budget; in practical mode actual ≤ budget is asserted by
//! tests.

use std::fmt;

/// How the children of a [`CostNode`] compose in time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Compose {
    /// Children run one after the other; rounds add.
    Sequential,
    /// Children run at the same time on disjoint parts; rounds take the max.
    Parallel,
}

/// A node in the round-cost tree of an algorithm execution.
#[derive(Debug, Clone, PartialEq)]
pub struct CostNode {
    /// Human-readable label ("defective-coloring", "phase 4", …).
    pub label: String,
    /// How children compose.
    pub compose: Compose,
    /// Rounds charged by this node itself, in addition to its children.
    pub own_rounds: u64,
    /// Scheduled worst-case rounds for this node (including children), if a
    /// fixed schedule was computed.
    pub budget: Option<f64>,
    /// Sub-steps.
    pub children: Vec<CostNode>,
}

impl CostNode {
    /// A leaf charging `rounds` rounds.
    pub fn leaf(label: impl Into<String>, rounds: u64) -> CostNode {
        CostNode {
            label: label.into(),
            compose: Compose::Sequential,
            own_rounds: rounds,
            budget: None,
            children: Vec::new(),
        }
    }

    /// A zero-cost marker (useful for skipped phases).
    pub fn free(label: impl Into<String>) -> CostNode {
        CostNode::leaf(label, 0)
    }

    /// A sequential composition of `children`.
    pub fn seq(label: impl Into<String>, children: Vec<CostNode>) -> CostNode {
        CostNode {
            label: label.into(),
            compose: Compose::Sequential,
            own_rounds: 0,
            budget: None,
            children,
        }
    }

    /// A parallel composition of `children` (they run simultaneously on
    /// disjoint subinstances; cost is the max).
    pub fn par(label: impl Into<String>, children: Vec<CostNode>) -> CostNode {
        CostNode {
            label: label.into(),
            compose: Compose::Parallel,
            own_rounds: 0,
            budget: None,
            children,
        }
    }

    /// Sets the scheduled budget, builder-style.
    pub fn with_budget(mut self, budget: f64) -> CostNode {
        self.budget = Some(budget);
        self
    }

    /// Adds rounds charged by this node itself, builder-style.
    pub fn with_own_rounds(mut self, rounds: u64) -> CostNode {
        self.own_rounds = rounds;
        self
    }

    /// Total actual rounds: own rounds plus the sequential-sum / parallel-max
    /// of the children.
    pub fn actual_rounds(&self) -> u64 {
        let child_total = match self.compose {
            Compose::Sequential => self.children.iter().map(CostNode::actual_rounds).sum(),
            Compose::Parallel => self
                .children
                .iter()
                .map(CostNode::actual_rounds)
                .max()
                .unwrap_or(0),
        };
        self.own_rounds + child_total
    }

    /// Number of nodes in the tree (for trace-size reporting).
    pub fn size(&self) -> usize {
        1 + self.children.iter().map(CostNode::size).sum::<usize>()
    }

    /// Renders the tree with per-node actual rounds (and budgets when set).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, 0);
        out
    }

    fn render_into(&self, out: &mut String, depth: usize) {
        use std::fmt::Write as _;
        let indent = "  ".repeat(depth);
        let tag = match self.compose {
            Compose::Sequential if self.children.is_empty() => "",
            Compose::Sequential => " [seq]",
            Compose::Parallel => " [par]",
        };
        let _ = write!(
            out,
            "{indent}{}{tag}: {} rounds",
            self.label,
            self.actual_rounds()
        );
        if let Some(b) = self.budget {
            let _ = write!(out, " (budget {b:.0})");
        }
        out.push('\n');
        for c in &self.children {
            c.render_into(out, depth + 1);
        }
    }
}

impl fmt::Display for CostNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leaf_cost() {
        let n = CostNode::leaf("exchange", 1);
        assert_eq!(n.actual_rounds(), 1);
        assert_eq!(n.size(), 1);
    }

    #[test]
    fn sequential_adds() {
        let n = CostNode::seq(
            "two-steps",
            vec![CostNode::leaf("a", 2), CostNode::leaf("b", 3)],
        );
        assert_eq!(n.actual_rounds(), 5);
    }

    #[test]
    fn parallel_maxes() {
        let n = CostNode::par(
            "instances",
            vec![
                CostNode::leaf("a", 2),
                CostNode::leaf("b", 7),
                CostNode::leaf("c", 1),
            ],
        );
        assert_eq!(n.actual_rounds(), 7);
    }

    #[test]
    fn nested_composition() {
        // seq( leaf 1, par(3, seq(2,2)), leaf 1 ) = 1 + max(3,4) + 1 = 6
        let n = CostNode::seq(
            "outer",
            vec![
                CostNode::leaf("pre", 1),
                CostNode::par(
                    "mid",
                    vec![
                        CostNode::leaf("x", 3),
                        CostNode::seq("y", vec![CostNode::leaf("y1", 2), CostNode::leaf("y2", 2)]),
                    ],
                ),
                CostNode::leaf("post", 1),
            ],
        );
        assert_eq!(n.actual_rounds(), 6);
        assert_eq!(n.size(), 8); // outer, pre, mid, x, y, y1, y2, post
    }

    #[test]
    fn own_rounds_add_to_children() {
        let n = CostNode::par("p", vec![CostNode::leaf("a", 4)]).with_own_rounds(2);
        assert_eq!(n.actual_rounds(), 6);
    }

    #[test]
    fn empty_parallel_is_zero() {
        assert_eq!(CostNode::par("none", vec![]).actual_rounds(), 0);
        assert_eq!(CostNode::free("skip").actual_rounds(), 0);
    }

    #[test]
    fn render_mentions_budget() {
        let n = CostNode::leaf("step", 3).with_budget(10.0);
        let s = n.render();
        assert!(s.contains("step"));
        assert!(s.contains("3 rounds"));
        assert!(s.contains("budget 10"));
    }
}
