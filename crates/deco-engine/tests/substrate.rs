//! Substrate property sweep: for every scenario family in the standard
//! matrix, the binary snapshot round-trips the graph bit for bit.
//!
//! The comparison digests the *whole* CSR — edge list (EdgeId order) and
//! per-node adjacency (neighbor + edge per port, port order). EdgeId order
//! fixes color attribution, and port order fixes inbox order. Re-writing
//! the loaded graph must reproduce the same bytes, mirror-port section
//! included.

use deco_engine::ScenarioMatrix;
use deco_graph::{io, Graph};

/// Everything observable about a graph's CSR, in one comparable value:
/// edge endpoints and per-port `(neighbor, edge)` pairs.
type Digest = (Vec<[u32; 2]>, Vec<Vec<(u32, u32)>>);

fn digest(g: &Graph) -> Digest {
    let edges = g.edge_list().iter().map(|[u, v]| [u.0, v.0]).collect();
    let adjacency = g
        .nodes()
        .map(|v| {
            g.adjacent(v)
                .iter()
                .map(|a| (a.neighbor.0, a.edge.0))
                .collect()
        })
        .collect();
    (edges, adjacency)
}

#[test]
fn snapshot_round_trips_every_family() {
    let matrix = ScenarioMatrix::standard(907);
    for s in matrix.iter() {
        let g = s.graph();
        let mut bytes = Vec::new();
        io::write_snapshot(&g, &mut bytes).expect("vec write");
        let loaded = io::read_snapshot(&bytes[..]).expect("own snapshot loads");
        assert_eq!(digest(&g), digest(&loaded), "{}", s.name);

        // Re-serializing the loaded graph reproduces the same bytes — the
        // format has one canonical encoding per graph.
        let mut again = Vec::new();
        io::write_snapshot(&loaded, &mut again).expect("vec write");
        assert_eq!(bytes, again, "{}", s.name);
    }
}
