//! Substrate property sweep: for every scenario family in the standard
//! matrix, the bulk CSR `Builder` reproduces the per-edge `GraphBuilder`'s
//! graph exactly, and the binary snapshot round-trips it bit for bit.
//!
//! The comparison digests the *whole* CSR — edge list (EdgeId order),
//! per-node adjacency (neighbor + edge per port, port order), and the
//! mirror back-port table. EdgeId order fixes color attribution, port
//! order fixes inbox order, and the back-port table is part of the
//! snapshot format, which validates it on load.

use deco_engine::ScenarioMatrix;
use deco_graph::{io, Builder, Graph};

/// Everything observable about a graph's CSR, in one comparable value:
/// edge endpoints, per-port `(neighbor, edge)` pairs, mirror back-ports.
type Digest = (Vec<[u32; 2]>, Vec<Vec<(u32, u32)>>, Vec<Vec<u32>>);

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
    let back_ports = g.nodes().map(|v| g.back_ports(v).to_vec()).collect();
    (edges, adjacency, back_ports)
}

#[test]
fn bulk_builder_matches_graph_builder_across_all_families() {
    let matrix = ScenarioMatrix::standard(2031);
    let mut checked = 0;
    for s in matrix.iter() {
        let g = s.graph();
        let mut b = Builder::with_capacity(g.num_nodes(), g.num_edges());
        for [u, v] in g.edge_list() {
            b.add_edge(u.index(), v.index()).expect("edge is simple");
        }
        let rebuilt = b.build().expect("edge set is valid");
        assert_eq!(digest(&g), digest(&rebuilt), "{}", s.name);
        checked += 1;
    }
    assert!(checked >= 40, "matrix should be broad, got {checked}");
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
