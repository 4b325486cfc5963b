//! List edge coloring problem instances — the paper's `P(Δ̄, S, C)` family.
//!
//! An instance bundles a conflict graph with one [`ColorList`] per edge and
//! the palette size `C`. The *slack* of an edge is `|L_e| / deg(e)`; the
//! instance family `P(Δ̄, S, C)` requires `|L_e| > S·deg(e)` for every edge.
//! `S = 1` is the (deg(e)+1)-list edge coloring problem, the paper's main
//! object.

use crate::lists::ColorList;
use deco_graph::coloring::{Color, EdgeColoring};
use deco_graph::{EdgeId, Graph};
use rand::prelude::*;
use rand::rngs::StdRng;
use std::fmt;

/// A list edge coloring instance: graph + per-edge lists + palette bound.
#[derive(Debug, Clone)]
pub struct ListInstance {
    graph: Graph,
    lists: Vec<ColorList>,
    palette: u32,
}

/// Why an instance failed validation.
#[derive(Debug, Clone, PartialEq)]
pub enum InstanceError {
    /// `lists` length differs from the edge count.
    WrongListCount {
        /// Number of lists supplied.
        lists: usize,
        /// Number of edges in the graph.
        edges: usize,
    },
    /// Some list contains a color outside the palette.
    ColorOutOfPalette {
        /// The offending edge.
        edge: EdgeId,
        /// The out-of-range color.
        color: Color,
    },
    /// Some list is too small for the requested slack.
    InsufficientSlack {
        /// The offending edge.
        edge: EdgeId,
        /// The list size found.
        list_len: usize,
        /// The minimum size required (`> slack · deg(e)`).
        required_exclusive: f64,
    },
}

impl fmt::Display for InstanceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InstanceError::WrongListCount { lists, edges } => {
                write!(f, "{lists} lists supplied for {edges} edges")
            }
            InstanceError::ColorOutOfPalette { edge, color } => {
                write!(f, "edge {edge} lists color {color} outside the palette")
            }
            InstanceError::InsufficientSlack {
                edge,
                list_len,
                required_exclusive,
            } => {
                write!(
                    f,
                    "edge {edge} has a list of {list_len} colors, needs more than \
                     {required_exclusive}"
                )
            }
        }
    }
}

impl std::error::Error for InstanceError {}

impl ListInstance {
    /// Builds an instance, validating palette membership and the `S = 1`
    /// ((deg+1)-list) slack requirement.
    ///
    /// # Errors
    ///
    /// Returns [`InstanceError`] if the lists are malformed or too small.
    pub fn new(graph: Graph, lists: Vec<ColorList>, palette: u32) -> Result<Self, InstanceError> {
        if lists.len() != graph.num_edges() {
            return Err(InstanceError::WrongListCount {
                lists: lists.len(),
                edges: graph.num_edges(),
            });
        }
        let inst = ListInstance {
            graph,
            lists,
            palette,
        };
        inst.validate_palette()?;
        inst.validate_slack(1.0)?;
        Ok(inst)
    }

    /// Builds an instance without slack validation (palette membership is
    /// still the caller's responsibility; checked in debug builds).
    pub fn new_unchecked(graph: Graph, lists: Vec<ColorList>, palette: u32) -> Self {
        assert_eq!(lists.len(), graph.num_edges(), "one list per edge");
        let inst = ListInstance {
            graph,
            lists,
            palette,
        };
        debug_assert!(inst.validate_palette().is_ok());
        inst
    }

    /// The conflict graph.
    #[inline]
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The list of edge `e`.
    #[inline]
    pub fn list(&self, e: EdgeId) -> &ColorList {
        &self.lists[e.index()]
    }

    /// All lists, indexed by edge.
    #[inline]
    pub fn lists(&self) -> &[ColorList] {
        &self.lists
    }

    /// Palette size `C`; all list colors are `< C`.
    #[inline]
    pub fn palette(&self) -> u32 {
        self.palette
    }

    /// Maximum edge degree Δ̄ of the instance graph.
    pub fn max_edge_degree(&self) -> usize {
        self.graph.max_edge_degree()
    }

    /// Checks every list color is inside the palette. Each list is asked
    /// for its first color at or above the palette, so no color below the
    /// palette is visited.
    ///
    /// # Errors
    ///
    /// Returns [`InstanceError::ColorOutOfPalette`] for the first offending
    /// edge, naming its smallest out-of-palette color.
    pub fn validate_palette(&self) -> Result<(), InstanceError> {
        for e in self.graph.edges() {
            if let Some(color) = self.lists[e.index()].first_from(self.palette) {
                return Err(InstanceError::ColorOutOfPalette { edge: e, color });
            }
        }
        Ok(())
    }

    /// Checks the instance is in `P(Δ̄, slack, C)`: `|L_e| > slack · deg(e)`
    /// for every edge `e`.
    ///
    /// # Errors
    ///
    /// Returns the first [`InstanceError::InsufficientSlack`] found.
    pub fn validate_slack(&self, slack: f64) -> Result<(), InstanceError> {
        self.validate_list_count()?;
        for e in self.graph.edges() {
            let need = slack * self.graph.edge_degree(e) as f64;
            let len = self.lists[e.index()].len();
            if (len as f64) <= need {
                return Err(InstanceError::InsufficientSlack {
                    edge: e,
                    list_len: len,
                    required_exclusive: need,
                });
            }
        }
        Ok(())
    }

    fn validate_list_count(&self) -> Result<(), InstanceError> {
        if self.lists.len() != self.graph.num_edges() {
            return Err(InstanceError::WrongListCount {
                lists: self.lists.len(),
                edges: self.graph.num_edges(),
            });
        }
        Ok(())
    }

    /// The minimum slack over edges: `min_e |L_e| / deg(e)` (∞ if every edge
    /// has degree 0 or the graph is edgeless).
    pub fn min_slack(&self) -> f64 {
        self.graph
            .edges()
            .filter(|&e| self.graph.edge_degree(e) > 0)
            .map(|e| self.lists[e.index()].len() as f64 / self.graph.edge_degree(e) as f64)
            .fold(f64::INFINITY, f64::min)
    }

    /// Checks that `coloring` solves this instance: complete, proper, and
    /// every color taken from the edge's list.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violation.
    pub fn check_solution(&self, coloring: &EdgeColoring) -> Result<(), String> {
        deco_graph::coloring::check_edge_coloring(&self.graph, coloring)
            .map_err(|v| v.to_string())?;
        for e in self.graph.edges() {
            let c = coloring.get(e).expect("completeness checked above");
            if !self.lists[e.index()].contains(c) {
                return Err(format!("edge {e} colored {c}, not in its list"));
            }
        }
        Ok(())
    }
}

/// The classic `(2Δ−1)`-edge coloring instance: every edge gets the full
/// palette `{0, …, 2Δ−2}`. This is a `(deg(e)+1)`-list instance because
/// `deg(e) ≤ 2Δ−2`.
pub fn two_delta_minus_one(g: &Graph) -> ListInstance {
    let palette = (2 * g.max_degree()).saturating_sub(1).max(1) as u32;
    let lists = g.edges().map(|_| ColorList::range(0, palette)).collect();
    ListInstance::new(g.clone(), lists, palette).expect("full palette always has slack 1")
}

/// A random `(deg(e)+1)`-list instance: each edge independently draws
/// `deg(e)+1` distinct colors from `{0, …, palette−1}`.
///
/// # Panics
///
/// Panics if `palette ≤ Δ̄` (some edge could not fill its list).
pub fn random_deg_plus_one(g: &Graph, palette: u32, seed: u64) -> ListInstance {
    let dbar = g.max_edge_degree() as u32;
    assert!(palette > dbar, "palette {palette} must exceed Δ̄ = {dbar}");
    let mut rng = StdRng::seed_from_u64(seed);
    let lists = g
        .edges()
        .map(|e| {
            let need = g.edge_degree(e) + 1;
            let mut all: Vec<Color> = (0..palette).collect();
            all.shuffle(&mut rng);
            all.truncate(need);
            ColorList::new(all)
        })
        .collect();
    ListInstance::new(g.clone(), lists, palette).expect("deg+1 lists by construction")
}

/// A random instance with slack `s`: each edge draws
/// `⌊s·deg(e)⌋ + 1` distinct colors.
///
/// # Panics
///
/// Panics if the palette cannot accommodate the largest required list.
pub fn random_with_slack(g: &Graph, palette: u32, s: f64, seed: u64) -> ListInstance {
    let mut rng = StdRng::seed_from_u64(seed);
    let lists: Vec<ColorList> = g
        .edges()
        .map(|e| {
            let need = (s * g.edge_degree(e) as f64).floor() as usize + 1;
            assert!(
                need <= palette as usize,
                "palette {palette} too small for slack-{s} list of size {need}"
            );
            let mut all: Vec<Color> = (0..palette).collect();
            all.shuffle(&mut rng);
            all.truncate(need);
            ColorList::new(all)
        })
        .collect();
    let inst = ListInstance::new_unchecked(g.clone(), lists, palette);
    debug_assert!(inst.validate_slack(s).is_ok());
    inst
}

#[cfg(test)]
mod tests {
    use super::*;
    use deco_graph::generators;

    #[test]
    fn two_delta_instance_is_valid() {
        let g = generators::random_regular(20, 4, 1);
        let inst = two_delta_minus_one(&g);
        assert_eq!(inst.palette(), 7);
        assert!(inst.validate_slack(1.0).is_ok());
        assert!(inst.min_slack() >= 7.0 / 6.0 - 1e-9);
    }

    #[test]
    fn random_instance_has_deg_plus_one_lists() {
        let g = generators::gnp(30, 0.2, 2);
        let inst = random_deg_plus_one(&g, 2 * g.max_edge_degree() as u32 + 5, 3);
        for e in g.edges() {
            assert_eq!(inst.list(e).len(), g.edge_degree(e) + 1);
        }
        assert!(inst.validate_slack(1.0).is_ok());
    }

    #[test]
    fn slack_validation_catches_small_lists() {
        let g = generators::path(3); // two adjacent edges, deg = 1 each
        let lists = vec![ColorList::new(vec![0]), ColorList::new(vec![1, 2])];
        let err = ListInstance::new(g, lists, 3).unwrap_err();
        assert!(matches!(err, InstanceError::InsufficientSlack { .. }));
    }

    #[test]
    fn palette_validation_catches_stray_colors() {
        let g = generators::path(3);
        let lists = vec![ColorList::new(vec![0, 99]), ColorList::new(vec![1, 2])];
        let err = ListInstance::new(g, lists, 3).unwrap_err();
        assert!(matches!(
            err,
            InstanceError::ColorOutOfPalette { color: 99, .. }
        ));
    }

    #[test]
    fn palette_validation_names_the_smallest_stray_color() {
        // Palette 70: the strays of edge 1 sit in the palette's last word
        // (70) and in later words (130, 500); edge 0 is clean.
        let g = generators::path(3);
        let lists = vec![
            ColorList::range(0, 70),
            ColorList::new(vec![1, 2, 500, 130, 70]),
        ];
        let err = ListInstance::new(g.clone(), lists, 70).unwrap_err();
        assert_eq!(
            err,
            InstanceError::ColorOutOfPalette {
                edge: EdgeId(1),
                color: 70
            }
        );
        // The stray alone in a later word than the palette's last.
        let lists = vec![ColorList::range(0, 2), ColorList::new(vec![0, 1, 2, 200])];
        let err = ListInstance::new(g, lists, 64).unwrap_err();
        assert_eq!(
            err,
            InstanceError::ColorOutOfPalette {
                edge: EdgeId(1),
                color: 200
            }
        );
    }

    #[test]
    fn check_solution_accepts_and_rejects() {
        let g = generators::path(3);
        let inst = two_delta_minus_one(&g);
        let good = EdgeColoring::from_complete(vec![0, 1]);
        assert!(inst.check_solution(&good).is_ok());
        let improper = EdgeColoring::from_complete(vec![0, 0]);
        assert!(inst.check_solution(&improper).is_err());
        let incomplete = EdgeColoring::uncolored(2);
        assert!(inst.check_solution(&incomplete).is_err());
    }

    #[test]
    fn check_solution_rejects_off_list_colors() {
        let g = generators::path(3);
        let lists = vec![ColorList::new(vec![0, 1]), ColorList::new(vec![2, 3])];
        let inst = ListInstance::new(g, lists, 4).unwrap();
        let off_list = EdgeColoring::from_complete(vec![0, 1]); // 1 not in list of e1
        assert!(inst.check_solution(&off_list).is_err());
    }

    #[test]
    fn slack_instances() {
        let g = generators::random_regular(16, 3, 5);
        let inst = random_with_slack(&g, 60, 3.0, 7);
        assert!(inst.validate_slack(3.0).is_ok());
        assert!(inst.min_slack() > 3.0);
    }

    #[test]
    fn min_slack_of_edgeless_graph_is_infinite() {
        let inst = two_delta_minus_one(&Graph::empty(4));
        assert!(inst.min_slack().is_infinite());
    }
}
