//! Substrate property sweep: for every scenario family in the standard
//! matrix, the bulk CSR `Builder` reproduces the per-edge `GraphBuilder`'s
//! graph exactly, the binary snapshot round-trips it bit for bit, and the
//! line view `Network::line` is the materialized `LineGraph::of` node for
//! node and port for port.
//!
//! The comparison digests the *whole* CSR — edge list (EdgeId order),
//! per-node adjacency (neighbor + edge per port, port order), and the
//! mirror back-port table. EdgeId order fixes color attribution, port
//! order fixes inbox order, and the back-port table is part of the
//! snapshot format, which validates it on load.

use deco_engine::ScenarioMatrix;
use deco_graph::{generators, io, Builder, Graph, LineGraph, NodeId};
use deco_local::network::{IdAssignment, Network};

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

/// Everything the executors and protocols read of a network's topology:
/// node count, each node's degree and neighbors in port order, maximum
/// degree and port count — plus the IDs.
type Topology = (usize, Vec<usize>, Vec<Vec<u32>>, usize, usize, Vec<u64>);

fn topology(net: &Network<'_>) -> Topology {
    let nodes = (0..net.num_nodes()).map(NodeId::from);
    (
        net.num_nodes(),
        nodes.clone().map(|v| net.degree(v)).collect(),
        nodes
            .map(|v| net.neighbors(v).map(|u| u.0).collect())
            .collect(),
        net.max_degree(),
        net.num_ports(),
        net.ids().to_vec(),
    )
}

#[test]
fn line_view_matches_the_materialized_line_graph() {
    let matrix = ScenarioMatrix::standard(2031);
    let mut cases: Vec<(String, Graph, IdAssignment)> = matrix
        .iter()
        .map(|s| (s.name.clone(), s.graph(), s.id_assignment()))
        .collect();
    for (name, g) in [
        ("edgeless", Graph::empty(6)),
        (
            "isolated-nodes",
            Graph::from_edges(9, [(1, 3), (3, 4), (4, 1), (4, 7), (6, 8)]).unwrap(),
        ),
        ("star", generators::star(7)),
        ("single-edge", Graph::from_edges(2, [(0, 1)]).unwrap()),
    ] {
        cases.push((name.to_string(), g, IdAssignment::Shuffled(11)));
    }
    for (name, g, assignment) in &cases {
        let lg = LineGraph::of(g);
        let view = Network::line(g, *assignment);
        let materialized = Network::new(lg.graph(), *assignment);
        let got = topology(&view);
        assert_eq!(got, topology(&materialized), "{name}");
        assert_eq!(got.4, lg.graph().degree_sum(), "{name}");
        assert_eq!(got.3, g.max_edge_degree(), "{name}");
    }
}
