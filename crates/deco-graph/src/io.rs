//! Graph serialization: human-editable edge lists and binary CSR snapshots.
//!
//! Two formats, two regimes:
//!
//! - **Plain text** (`n m` header + `m` edge lines, `#` comments): the
//!   small-case format. [`to_edge_list`]/[`parse_edge_list`] keep example
//!   inputs human-editable; [`read_edge_list`] is the streaming variant that
//!   parses straight off any [`BufRead`] so large text files are never held
//!   in memory twice.
//! - **Binary snapshot** (`DECOSNAP` magic + version + little-endian CSR
//!   arrays): the million-edge format. [`write_snapshot`] dumps the built
//!   CSR arrays verbatim, plus a mirror-port section it derives from the
//!   adjacency; [`read_snapshot`] loads them back in O(read) plus one
//!   structural validation pass — no text parsing, no re-sorting, no
//!   adjacency reconstruction.
//!
//! ## Snapshot layout (version 1, all integers little-endian)
//!
//! ```text
//! offset  size       field
//! 0       8          magic  b"DECOSNAP"
//! 8       4          version  u32 (currently 1)
//! 12      8          n  u64 (node count)
//! 20      8          m  u64 (edge count)
//! 28      m × 8      edges         [u: u32, v: u32] per edge, u < v
//! …       (n+1) × 8  offsets       u64 prefix sums, offsets[n] == 2m
//! …       2m × 8     adjacency     [neighbor: u32, edge: u32] per port slot
//! …       2m × 4     mirror_ports  u32 mirror port per slot
//! ```
//!
//! Slot `offsets[v] + j` of `mirror_ports` is the port at which the
//! neighbour behind `v`'s port `j` sees the same edge. [`Graph`] does not
//! keep this table: the writer derives it from the adjacency, and the
//! reader checks it and drops it.
//!
//! The reader rejects anything incoherent — bad magic, unknown version,
//! truncation, trailing bytes, non-monotone offsets, out-of-range ids,
//! broken mirror-port involutions, duplicate edges — so a loaded [`Graph`]
//! carries exactly the invariants a built one does.

use crate::{Adjacent, EdgeId, Graph, GraphBuilder, NodeId};
use std::fmt;
use std::io::{BufRead, Read, Write};
use std::path::Path;

/// Error from [`parse_edge_list`] / [`read_edge_list`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseGraphError {
    /// The header line `n m` is missing or malformed.
    BadHeader(String),
    /// An edge line is malformed.
    BadEdgeLine {
        /// 1-based line number of the offending line.
        line_no: usize,
        /// The offending line's text.
        line: String,
    },
    /// Declared edge count does not match the number of edge lines.
    EdgeCountMismatch {
        /// Edge count from the header.
        declared: usize,
        /// Number of edge lines actually present.
        found: usize,
    },
    /// The edges do not form a valid simple graph.
    InvalidGraph(crate::BuildGraphError),
    /// The underlying reader failed (streaming variant only; the message is
    /// the I/O error's rendering, kept as text so this enum stays `Eq`).
    Io(String),
}

impl fmt::Display for ParseGraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseGraphError::BadHeader(l) => write!(f, "bad header line: {l:?}"),
            ParseGraphError::BadEdgeLine { line_no, line } => {
                write!(f, "bad edge on line {line_no}: {line:?}")
            }
            ParseGraphError::EdgeCountMismatch { declared, found } => {
                write!(f, "header declared {declared} edges but found {found}")
            }
            ParseGraphError::InvalidGraph(e) => write!(f, "invalid graph: {e}"),
            ParseGraphError::Io(e) => write!(f, "read failed: {e}"),
        }
    }
}

impl std::error::Error for ParseGraphError {}

impl From<crate::BuildGraphError> for ParseGraphError {
    fn from(e: crate::BuildGraphError) -> Self {
        ParseGraphError::InvalidGraph(e)
    }
}

/// Serializes `g` in the `n m` + edge-lines format.
pub fn to_edge_list(g: &Graph) -> String {
    let mut out = format!("{} {}\n", g.num_nodes(), g.num_edges());
    for [u, v] in g.edge_list() {
        out.push_str(&format!("{} {}\n", u.0, v.0));
    }
    out
}

/// Parses the `n m` + edge-lines format produced by [`to_edge_list`].
///
/// Equivalent to [`read_edge_list`] over the string's bytes; use the
/// streaming variant when the text comes from a file, so the whole file is
/// never buffered alongside the parsed edges.
///
/// # Errors
///
/// Returns [`ParseGraphError`] on malformed input or an invalid graph.
pub fn parse_edge_list(text: &str) -> Result<Graph, ParseGraphError> {
    read_edge_list(text.as_bytes())
}

/// Streaming parser for the `n m` + edge-lines format: consumes any
/// [`BufRead`] line by line, holding only the edge array — not the text —
/// in memory.
///
/// # Errors
///
/// Returns [`ParseGraphError`] on malformed input, an invalid graph, or a
/// failing reader ([`ParseGraphError::Io`]).
pub fn read_edge_list<R: BufRead>(mut reader: R) -> Result<Graph, ParseGraphError> {
    let mut line = String::new();
    let mut line_no = 0usize;
    let mut header: Option<(usize, usize)> = None;
    let mut builder = GraphBuilder::new(0);
    let mut found = 0usize;
    loop {
        line.clear();
        let read = reader
            .read_line(&mut line)
            .map_err(|e| ParseGraphError::Io(e.to_string()))?;
        if read == 0 {
            break;
        }
        line_no += 1;
        let text = line.trim();
        if text.is_empty() || text.starts_with('#') {
            continue;
        }
        match header {
            None => {
                let mut parts = text.split_whitespace();
                let bad = || ParseGraphError::BadHeader(text.into());
                let n: usize = parts.next().and_then(|t| t.parse().ok()).ok_or_else(bad)?;
                let m: usize = parts.next().and_then(|t| t.parse().ok()).ok_or_else(bad)?;
                if parts.next().is_some() {
                    return Err(bad());
                }
                header = Some((n, m));
                builder = GraphBuilder::with_capacity(n, m);
            }
            Some(_) => {
                let mut parts = text.split_whitespace();
                let bad = || ParseGraphError::BadEdgeLine {
                    line_no,
                    line: text.into(),
                };
                let u: u32 = parts.next().and_then(|t| t.parse().ok()).ok_or_else(bad)?;
                let v: u32 = parts.next().and_then(|t| t.parse().ok()).ok_or_else(bad)?;
                if parts.next().is_some() {
                    return Err(bad());
                }
                builder.add_edge(NodeId(u), NodeId(v));
                found += 1;
            }
        }
    }
    let (_, m) = header.ok_or_else(|| ParseGraphError::BadHeader("<empty input>".into()))?;
    if found != m {
        return Err(ParseGraphError::EdgeCountMismatch { declared: m, found });
    }
    Ok(builder.build()?)
}

/// Magic bytes opening every binary snapshot.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"DECOSNAP";

/// Current snapshot format version.
pub const SNAPSHOT_VERSION: u32 = 1;

/// Error from [`read_snapshot`] / [`write_snapshot`].
#[derive(Debug)]
pub enum SnapshotError {
    /// The underlying reader or writer failed.
    Io(std::io::Error),
    /// The first 8 bytes are not [`SNAPSHOT_MAGIC`].
    BadMagic([u8; 8]),
    /// The version field names a format this build does not understand.
    UnsupportedVersion(u32),
    /// The stream ended before the declared arrays were complete.
    Truncated {
        /// Which array (or header) was cut short.
        section: &'static str,
    },
    /// The arrays are structurally inconsistent; the message names the
    /// violated invariant.
    Malformed(&'static str),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot I/O failed: {e}"),
            SnapshotError::BadMagic(m) => {
                write!(f, "not a graph snapshot (magic {m:02x?})")
            }
            SnapshotError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported snapshot version {v} (expected {SNAPSHOT_VERSION})"
                )
            }
            SnapshotError::Truncated { section } => {
                write!(f, "snapshot truncated in {section}")
            }
            SnapshotError::Malformed(what) => write!(f, "malformed snapshot: {what}"),
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

/// The snapshot's mirror-port section, derived from the adjacency: slot
/// `offsets[v] + j` holds the port at which `v`'s `j`-th neighbour sees the
/// same edge. `ports[e]` records edge `e`'s port at its smaller and at its
/// larger endpoint.
fn mirror_ports(g: &Graph) -> Vec<u32> {
    let mut ports = vec![[0u32; 2]; g.num_edges()];
    for v in g.nodes() {
        for (j, a) in g.adjacent(v).iter().enumerate() {
            let j = u32::try_from(j).expect("degree fits u32");
            ports[a.edge.index()][usize::from(v > a.neighbor)] = j;
        }
    }
    let mut back = Vec::with_capacity(g.degree_sum());
    for v in g.nodes() {
        for a in g.adjacent(v) {
            back.push(ports[a.edge.index()][usize::from(a.neighbor > v)]);
        }
    }
    back
}

/// Writes `g` as a binary CSR snapshot (see the module docs for the layout).
///
/// # Errors
///
/// Returns [`SnapshotError::Io`] if the writer fails.
pub fn write_snapshot<W: Write>(g: &Graph, mut w: W) -> Result<(), SnapshotError> {
    let (edges, offsets, adjacency) = g.csr_parts();
    w.write_all(&SNAPSHOT_MAGIC)?;
    w.write_all(&SNAPSHOT_VERSION.to_le_bytes())?;
    w.write_all(&(g.num_nodes() as u64).to_le_bytes())?;
    w.write_all(&(g.num_edges() as u64).to_le_bytes())?;
    // Buffer each array into one contiguous byte run: four large writes
    // instead of millions of 4-byte syscall-sized ones.
    let mut buf = Vec::with_capacity(edges.len() * 8);
    for [u, v] in edges {
        buf.extend_from_slice(&u.0.to_le_bytes());
        buf.extend_from_slice(&v.0.to_le_bytes());
    }
    w.write_all(&buf)?;
    buf.clear();
    buf.reserve(offsets.len() * 8);
    for o in offsets {
        buf.extend_from_slice(&(*o as u64).to_le_bytes());
    }
    w.write_all(&buf)?;
    buf.clear();
    buf.reserve(adjacency.len() * 8);
    for a in adjacency {
        buf.extend_from_slice(&a.neighbor.0.to_le_bytes());
        buf.extend_from_slice(&a.edge.0.to_le_bytes());
    }
    w.write_all(&buf)?;
    buf.clear();
    buf.reserve(adjacency.len() * 4);
    for p in mirror_ports(g) {
        buf.extend_from_slice(&p.to_le_bytes());
    }
    w.write_all(&buf)?;
    Ok(())
}

/// Reads one section of `len` bytes, mapping EOF to a truncation report
/// that names the section.
fn read_section<R: Read>(
    r: &mut R,
    len: usize,
    section: &'static str,
) -> Result<Vec<u8>, SnapshotError> {
    let mut buf = vec![0u8; len];
    r.read_exact(&mut buf).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            SnapshotError::Truncated { section }
        } else {
            SnapshotError::Io(e)
        }
    })?;
    Ok(buf)
}

fn le_u32(chunk: &[u8]) -> u32 {
    u32::from_le_bytes(chunk.try_into().expect("4-byte chunk"))
}

fn le_u64(chunk: &[u8]) -> u64 {
    u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"))
}

/// Reads a binary CSR snapshot back into a [`Graph`], validating every
/// structural invariant the builder would have established.
///
/// The validation pass is O(n + m) integer work — magnitudes cheaper than
/// re-parsing text or re-deriving the CSR arrays — and is what lets the
/// loaded graph skip [`GraphBuilder`] entirely.
///
/// # Errors
///
/// Returns [`SnapshotError`] on I/O failure, bad magic, an unknown version,
/// truncation, trailing bytes, or any structural inconsistency.
pub fn read_snapshot<R: Read>(mut r: R) -> Result<Graph, SnapshotError> {
    let header = read_section(&mut r, 28, "header")?;
    let mut magic = [0u8; 8];
    magic.copy_from_slice(&header[..8]);
    if magic != SNAPSHOT_MAGIC {
        return Err(SnapshotError::BadMagic(magic));
    }
    let version = le_u32(&header[8..12]);
    if version != SNAPSHOT_VERSION {
        return Err(SnapshotError::UnsupportedVersion(version));
    }
    let n = usize::try_from(le_u64(&header[12..20]))
        .map_err(|_| SnapshotError::Malformed("node count exceeds address space"))?;
    let m = usize::try_from(le_u64(&header[20..28]))
        .map_err(|_| SnapshotError::Malformed("edge count exceeds address space"))?;
    if u64::try_from(n).unwrap() > u64::from(u32::MAX) {
        return Err(SnapshotError::Malformed("node count exceeds u32 id space"));
    }
    if u64::try_from(m).unwrap() > u64::from(u32::MAX) {
        return Err(SnapshotError::Malformed("edge count exceeds u32 id space"));
    }

    let edge_bytes = read_section(&mut r, m * 8, "edges")?;
    let mut edges: Vec<[NodeId; 2]> = Vec::with_capacity(m);
    for pair in edge_bytes.chunks_exact(8) {
        let u = le_u32(&pair[..4]);
        let v = le_u32(&pair[4..]);
        if u >= v {
            return Err(SnapshotError::Malformed(
                "edge endpoints not normalized (expected u < v)",
            ));
        }
        if v as usize >= n {
            return Err(SnapshotError::Malformed("edge endpoint out of range"));
        }
        edges.push([NodeId(u), NodeId(v)]);
    }

    let offset_bytes = read_section(&mut r, (n + 1) * 8, "offsets")?;
    let mut offsets: Vec<usize> = Vec::with_capacity(n + 1);
    for chunk in offset_bytes.chunks_exact(8) {
        let o = usize::try_from(le_u64(chunk))
            .map_err(|_| SnapshotError::Malformed("offset exceeds address space"))?;
        if let Some(prev) = offsets.last() {
            if o < *prev {
                return Err(SnapshotError::Malformed("offsets not monotone"));
            }
        } else if o != 0 {
            return Err(SnapshotError::Malformed("offsets[0] must be 0"));
        }
        offsets.push(o);
    }
    if offsets[n] != 2 * m {
        return Err(SnapshotError::Malformed("offsets[n] must equal 2m"));
    }

    let adj_bytes = read_section(&mut r, 2 * m * 8, "adjacency")?;
    let mut adjacency: Vec<Adjacent> = Vec::with_capacity(2 * m);
    for pair in adj_bytes.chunks_exact(8) {
        let neighbor = le_u32(&pair[..4]);
        let edge = le_u32(&pair[4..]);
        if neighbor as usize >= n {
            return Err(SnapshotError::Malformed("adjacency neighbor out of range"));
        }
        if edge as usize >= m {
            return Err(SnapshotError::Malformed("adjacency edge out of range"));
        }
        adjacency.push(Adjacent {
            neighbor: NodeId(neighbor),
            edge: EdgeId(edge),
        });
    }

    let bp_bytes = read_section(&mut r, 2 * m * 4, "mirror_ports")?;
    let mirror_ports: Vec<u32> = bp_bytes.chunks_exact(4).map(le_u32).collect();

    let mut trailing = [0u8; 1];
    match r.read(&mut trailing) {
        Ok(0) => {}
        Ok(_) => return Err(SnapshotError::Malformed("trailing bytes after arrays")),
        Err(e) => return Err(SnapshotError::Io(e)),
    }

    validate_csr(n, m, &edges, &offsets, &adjacency, &mirror_ports)?;
    Ok(Graph::from_csr_parts(edges, offsets, adjacency))
}

/// Structural validation: every invariant `assemble_csr` establishes must
/// hold for the deserialized arrays before they become a [`Graph`], and
/// the mirror-port section must be the one [`write_snapshot`] derives.
fn validate_csr(
    n: usize,
    m: usize,
    edges: &[[NodeId; 2]],
    offsets: &[usize],
    adjacency: &[Adjacent],
    mirror_ports: &[u32],
) -> Result<(), SnapshotError> {
    debug_assert_eq!(adjacency.len(), 2 * m);
    debug_assert_eq!(mirror_ports.len(), 2 * m);
    // Each edge id must appear on exactly two port slots (one per endpoint).
    let mut slots_per_edge = vec![0u8; m];
    // Stamp sweep doubling as the duplicate-edge check, as in the builder.
    let mut stamp = vec![u32::MAX; n];
    for v in 0..n {
        let (start, end) = (offsets[v], offsets[v + 1]);
        for (j, (a, bp)) in adjacency[start..end]
            .iter()
            .zip(&mirror_ports[start..end])
            .enumerate()
        {
            let w = a.neighbor.index();
            if w == v {
                return Err(SnapshotError::Malformed("self-loop in adjacency"));
            }
            if stamp[w] == v as u32 {
                return Err(SnapshotError::Malformed("duplicate edge in adjacency"));
            }
            stamp[w] = v as u32;
            let [lo, hi] = edges[a.edge.index()];
            let (el, eh) = (lo.index(), hi.index());
            let (vl, vh) = if v < w { (v, w) } else { (w, v) };
            if (el, eh) != (vl, vh) {
                return Err(SnapshotError::Malformed(
                    "adjacency slot disagrees with its edge's endpoints",
                ));
            }
            let w_deg = offsets[w + 1] - offsets[w];
            let bp = *bp as usize;
            if bp >= w_deg {
                return Err(SnapshotError::Malformed("mirror port out of range"));
            }
            let mirror = &adjacency[offsets[w] + bp];
            if mirror.edge != a.edge || mirror.neighbor.index() != v {
                return Err(SnapshotError::Malformed("mirror port is not an involution"));
            }
            if mirror_ports[offsets[w] + bp] as usize != j {
                return Err(SnapshotError::Malformed("mirror port is not an involution"));
            }
            let count = &mut slots_per_edge[a.edge.index()];
            *count = count.saturating_add(1);
        }
    }
    if slots_per_edge.iter().any(|c| *c != 2) {
        return Err(SnapshotError::Malformed(
            "an edge id does not appear on exactly two port slots",
        ));
    }
    Ok(())
}

/// Writes `g` as a snapshot file at `path` (buffered).
///
/// # Errors
///
/// Same as [`write_snapshot`].
pub fn write_snapshot_file<P: AsRef<Path>>(g: &Graph, path: P) -> Result<(), SnapshotError> {
    let file = std::fs::File::create(path)?;
    let mut w = std::io::BufWriter::new(file);
    write_snapshot(g, &mut w)?;
    w.flush()?;
    Ok(())
}

/// Reads a snapshot file from `path` (buffered).
///
/// # Errors
///
/// Same as [`read_snapshot`].
pub fn read_snapshot_file<P: AsRef<Path>>(path: P) -> Result<Graph, SnapshotError> {
    let file = std::fs::File::open(path)?;
    read_snapshot(std::io::BufReader::new(file))
}

/// Reads an edge-list text file from `path`, streaming (buffered).
///
/// # Errors
///
/// Same as [`read_edge_list`].
pub fn read_edge_list_file<P: AsRef<Path>>(path: P) -> Result<Graph, ParseGraphError> {
    let file = std::fs::File::open(path).map_err(|e| ParseGraphError::Io(e.to_string()))?;
    read_edge_list(std::io::BufReader::new(file))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn roundtrip() {
        let g = generators::petersen();
        let text = to_edge_list(&g);
        let h = parse_edge_list(&text).unwrap();
        assert_eq!(g, h);
    }

    #[test]
    fn streaming_matches_in_memory_parse() {
        let g = generators::gnp(60, 0.12, 7);
        let text = to_edge_list(&g);
        let streamed = read_edge_list(text.as_bytes()).unwrap();
        assert_eq!(g, streamed);
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let text = "# a graph\n\n3 2\n0 1\n# middle\n1 2\n";
        let g = parse_edge_list(text).unwrap();
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn bad_header_rejected() {
        assert!(matches!(
            parse_edge_list("x y\n"),
            Err(ParseGraphError::BadHeader(_))
        ));
        assert!(matches!(
            parse_edge_list(""),
            Err(ParseGraphError::BadHeader(_))
        ));
        assert!(matches!(
            parse_edge_list("3 1 7\n0 1\n"),
            Err(ParseGraphError::BadHeader(_))
        ));
    }

    #[test]
    fn bad_edge_line_rejected() {
        let err = parse_edge_list("2 1\n0\n").unwrap_err();
        assert!(matches!(err, ParseGraphError::BadEdgeLine { .. }));
    }

    #[test]
    fn count_mismatch_rejected() {
        let err = parse_edge_list("3 2\n0 1\n").unwrap_err();
        assert_eq!(
            err,
            ParseGraphError::EdgeCountMismatch {
                declared: 2,
                found: 1
            }
        );
    }

    #[test]
    fn invalid_graph_rejected() {
        let err = parse_edge_list("2 1\n0 0\n").unwrap_err();
        assert!(matches!(err, ParseGraphError::InvalidGraph(_)));
    }

    #[test]
    fn snapshot_roundtrip() {
        for g in [
            generators::petersen(),
            generators::cycle(17),
            generators::complete(9),
            Graph::empty(5),
            Graph::empty(0),
            generators::gnp(80, 0.1, 11),
        ] {
            let mut bytes = Vec::new();
            write_snapshot(&g, &mut bytes).unwrap();
            let h = read_snapshot(&bytes[..]).unwrap();
            assert_eq!(g, h);
        }
    }

    #[test]
    fn snapshot_bytes_are_pinned() {
        // A triangle with a pendant edge. The last line is the mirror-port
        // row the writer derives. v1 has one encoding per graph, so these
        // bytes must not move.
        let g = Graph::from_edges(4, [(0, 1), (2, 1), (0, 2), (3, 2)]).unwrap();
        let pinned = concat!(
            "4445434f534e41500100000004000000000000000400000000000000",
            "0000000001000000010000000200000000000000020000000200000003000000",
            "0000000000000000020000000000000004000000000000000700000000000000",
            "0800000000000000",
            "0100000000000000020000000200000000000000000000000200000001000000",
            "0100000001000000000000000200000003000000030000000200000003000000",
            "0000000001000000000000000000000001000000010000000000000002000000",
        );
        let mut bytes = Vec::new();
        write_snapshot(&g, &mut bytes).unwrap();
        let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(hex, pinned);
        assert_eq!(read_snapshot(&bytes[..]).unwrap(), g);
    }

    #[test]
    fn snapshot_rejects_bad_magic() {
        let mut bytes = Vec::new();
        write_snapshot(&generators::petersen(), &mut bytes).unwrap();
        bytes[0] = b'X';
        assert!(matches!(
            read_snapshot(&bytes[..]),
            Err(SnapshotError::BadMagic(_))
        ));
    }

    #[test]
    fn snapshot_rejects_unknown_version() {
        let mut bytes = Vec::new();
        write_snapshot(&generators::petersen(), &mut bytes).unwrap();
        bytes[8..12].copy_from_slice(&99u32.to_le_bytes());
        assert!(matches!(
            read_snapshot(&bytes[..]),
            Err(SnapshotError::UnsupportedVersion(99))
        ));
    }

    #[test]
    fn snapshot_rejects_truncation_at_every_section() {
        let mut bytes = Vec::new();
        write_snapshot(&generators::petersen(), &mut bytes).unwrap();
        // Cut the stream at a few strategic places: inside the header, the
        // edge array, and the final mirror-ports array.
        for cut in [4, 20, 40, bytes.len() - 3] {
            assert!(
                matches!(
                    read_snapshot(&bytes[..cut]),
                    Err(SnapshotError::Truncated { .. })
                ),
                "cut at {cut} must report truncation"
            );
        }
    }

    #[test]
    fn snapshot_rejects_trailing_bytes() {
        let mut bytes = Vec::new();
        write_snapshot(&generators::petersen(), &mut bytes).unwrap();
        bytes.push(0);
        assert!(matches!(
            read_snapshot(&bytes[..]),
            Err(SnapshotError::Malformed(_))
        ));
    }

    #[test]
    fn snapshot_rejects_corrupted_arrays() {
        let g = generators::petersen();
        let clean = {
            let mut b = Vec::new();
            write_snapshot(&g, &mut b).unwrap();
            b
        };
        // Flipping any single early array byte to an out-of-range value must
        // be caught by validation, not produce a silently wrong graph.
        let mut corrupt = clean.clone();
        corrupt[28] = 0xFF; // first edge endpoint -> out of range / denormalized
        assert!(matches!(
            read_snapshot(&corrupt[..]),
            Err(SnapshotError::Malformed(_))
        ));
        let adj_start = 28 + g.num_edges() * 8 + (g.num_nodes() + 1) * 8;
        let mut corrupt = clean.clone();
        corrupt[adj_start] ^= 0x01; // first adjacency neighbor id
        assert!(matches!(
            read_snapshot(&corrupt[..]),
            Err(SnapshotError::Malformed(_))
        ));
        let bp_start = adj_start + g.degree_sum() * 8;
        let mut corrupt = clean;
        corrupt[bp_start] ^= 0x01; // first mirror port
        assert!(matches!(
            read_snapshot(&corrupt[..]),
            Err(SnapshotError::Malformed(_))
        ));
    }

    #[test]
    fn snapshot_file_helpers_roundtrip() {
        let g = generators::gnp(40, 0.2, 3);
        let dir = std::env::temp_dir().join("deco-graph-io-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("roundtrip.snap");
        write_snapshot_file(&g, &path).unwrap();
        let h = read_snapshot_file(&path).unwrap();
        assert_eq!(g, h);
        std::fs::remove_file(&path).ok();
    }
}
