#![warn(missing_docs)]
//! DIMACS I/O and the `parcolor` CLI's plumbing.
//!
//! Supported formats:
//! * **DIMACS `.col`** (graph coloring challenge format): `c` comment
//!   lines, one `p edge <n> <m>` problem line, `e <u> <v>` edge lines
//!   with **1-based** node ids.
//! * **Binary `.pcg`** (see [`pcg`]): the CSR arrays in a versioned
//!   little-endian container with an integrity checksum, loaded
//!   zero-copy via `mmap` on little-endian unix.  The scale format —
//!   `parcolor convert` translates between the two.
//! * **Coloring files**: one `<node> <color>` pair per line (0-based),
//!   as written by `parcolor solve` and read by `parcolor verify`.

use parcolor_core::{D1lcInstance, Graph, NodeId};
use std::io::{BufRead, Write};

/// A DIMACS `p` line may declare up to this many nodes whatever the
/// input size; past it, `n` may not exceed the input's byte count.
/// Building the CSR costs 16 bytes per node (offsets and a write
/// cursor) before any edge names one, so without this bound a 20-byte
/// header could size gigabytes.
const DIMACS_FREE_NODES: usize = 1 << 20;

/// Parse a DIMACS `.col` graph from a reader.
///
/// Rejects a `p` line declaring more than `max(DIMACS_FREE_NODES, input
/// bytes)` nodes, checked after the last line and before anything
/// sized by `n` is allocated.
pub fn parse_dimacs<R: BufRead>(mut reader: R) -> Result<Graph, String> {
    // `(n, line number)` of the `p` line.
    let mut header: Option<(usize, usize)> = None;
    let mut edges: Vec<(NodeId, NodeId)> = Vec::new();
    let mut bytes = 0usize;
    let mut buf = String::new();
    for lineno in 1.. {
        buf.clear();
        let read = reader
            .read_line(&mut buf)
            .map_err(|e| format!("line {lineno}: {e}"))?;
        if read == 0 {
            break;
        }
        bytes += read;
        let line = buf.trim();
        if line.is_empty() || line.starts_with('c') {
            continue;
        }
        let mut parts = line.split_whitespace();
        match parts.next() {
            Some("p") => {
                let kind = parts
                    .next()
                    .ok_or_else(|| format!("line {lineno}: missing format"))?;
                if kind != "edge" && kind != "edges" && kind != "col" {
                    return Err(format!("line {lineno}: unsupported problem type {kind}"));
                }
                let nn: usize = parts
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| format!("line {lineno}: bad n"))?;
                if nn > u32::MAX as usize {
                    return Err(format!(
                        "line {lineno}: n = {nn} exceeds the node-id range (at most {})",
                        u32::MAX
                    ));
                }
                if header.replace((nn, lineno)).is_some() {
                    return Err(format!("line {lineno}: duplicate p line"));
                }
            }
            Some("e") => {
                let (n, _) = header.ok_or_else(|| format!("line {lineno}: e before p"))?;
                let u: usize = parts
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| format!("line {lineno}: bad endpoint"))?;
                let v: usize = parts
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| format!("line {lineno}: bad endpoint"))?;
                if u == 0 || v == 0 || u > n || v > n {
                    return Err(format!("line {lineno}: endpoint out of range (1-based)"));
                }
                if u != v {
                    edges.push(((u - 1) as NodeId, (v - 1) as NodeId));
                }
            }
            Some(other) => {
                return Err(format!("line {lineno}: unknown directive {other}"));
            }
            None => {}
        }
    }
    let (n, p_line) = header.ok_or("missing p line")?;
    if n > DIMACS_FREE_NODES.max(bytes) {
        return Err(format!(
            "line {p_line}: n = {n} exceeds what a {bytes}-byte input may declare \
             (at most max({DIMACS_FREE_NODES}, input bytes) nodes)"
        ));
    }
    Ok(Graph::from_edges(n, &edges))
}

/// Write a graph as DIMACS `.col`.
pub fn write_dimacs<W: Write>(mut w: W, g: &Graph, comment: &str) -> std::io::Result<()> {
    if !comment.is_empty() {
        writeln!(w, "c {comment}")?;
    }
    writeln!(w, "p edge {} {}", g.n(), g.m())?;
    for (u, v) in g.edges() {
        writeln!(w, "e {} {}", u + 1, v + 1)?;
    }
    w.flush()
}

/// Write a coloring as `<node> <color>` lines (0-based).
pub fn write_coloring<W: Write>(mut w: W, colors: &[u32]) -> std::io::Result<()> {
    for (v, c) in colors.iter().enumerate() {
        writeln!(w, "{v} {c}")?;
    }
    w.flush()
}

/// Parse a coloring file produced by [`write_coloring`].
pub fn parse_coloring<R: BufRead>(reader: R, n: usize) -> Result<Vec<u32>, String> {
    let mut colors = vec![u32::MAX; n];
    for (lineno, line) in reader.lines().enumerate() {
        let line = line.map_err(|e| format!("line {}: {e}", lineno + 1))?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let v: usize = parts
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| format!("line {}: bad node", lineno + 1))?;
        let c: u32 = parts
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| format!("line {}: bad color", lineno + 1))?;
        if v >= n {
            return Err(format!("line {}: node {v} out of range", lineno + 1));
        }
        colors[v] = c;
    }
    if let Some(v) = colors.iter().position(|&c| c == u32::MAX) {
        return Err(format!("node {v} has no color assigned"));
    }
    Ok(colors)
}

/// The (Δ+1) instance of a parsed graph — the CLI's default palettes.
pub fn instance_of(g: Graph) -> D1lcInstance {
    D1lcInstance::delta_plus_one(g)
}

/// Load a graph by file extension: `.pcg` binary (mmap'd where the
/// platform allows) or text DIMACS for everything else.
pub fn load_graph(path: &str) -> Result<Graph, String> {
    if path.ends_with(".pcg") {
        pcg::load_pcg(std::path::Path::new(path))
    } else {
        let f = std::fs::File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
        parse_dimacs(std::io::BufReader::new(f))
    }
}

pub mod args;
pub mod job;
pub mod pcg;

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    const SAMPLE: &str = "c sample graph\np edge 4 4\ne 1 2\ne 2 3\ne 3 4\ne 4 1\n";

    #[test]
    fn parses_sample() {
        let g = parse_dimacs(Cursor::new(SAMPLE)).unwrap();
        assert_eq!(g.n(), 4);
        assert_eq!(g.m(), 4);
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(3, 0));
    }

    #[test]
    fn roundtrip() {
        let g = parse_dimacs(Cursor::new(SAMPLE)).unwrap();
        let mut buf = Vec::new();
        write_dimacs(&mut buf, &g, "roundtrip").unwrap();
        let g2 = parse_dimacs(Cursor::new(buf)).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn rejects_missing_p() {
        assert!(parse_dimacs(Cursor::new("e 1 2\n")).is_err());
    }

    #[test]
    fn rejects_out_of_range() {
        assert!(parse_dimacs(Cursor::new("p edge 2 1\ne 1 5\n")).is_err());
        assert!(parse_dimacs(Cursor::new("p edge 2 1\ne 0 1\n")).is_err());
        let e = parse_dimacs(Cursor::new("c big\np edge 99999999999 1\n")).unwrap_err();
        assert!(e.starts_with("line 2:"), "{e}");
        // A header alone may not size memory past the input.
        let e = parse_dimacs(Cursor::new("p edge 4000000000 0\n")).unwrap_err();
        assert!(e.starts_with("line 1:"), "{e}");
        let g = parse_dimacs(Cursor::new("p edge 1048576 0\n")).unwrap();
        assert_eq!(g.n(), DIMACS_FREE_NODES);
    }

    #[test]
    fn tolerates_self_loops_and_duplicates() {
        let g = parse_dimacs(Cursor::new("p edge 3 3\ne 1 1\ne 1 2\ne 2 1\n")).unwrap();
        assert_eq!(g.m(), 1);
    }

    #[test]
    fn coloring_roundtrip() {
        let colors = vec![0u32, 2, 1];
        let mut buf = Vec::new();
        write_coloring(&mut buf, &colors).unwrap();
        let parsed = parse_coloring(Cursor::new(buf), 3).unwrap();
        assert_eq!(parsed, colors);
    }

    #[test]
    fn coloring_detects_missing_nodes() {
        assert!(parse_coloring(Cursor::new("0 1\n"), 2).is_err());
    }

    /// A sink that accepts nothing, like a full disk.
    struct Full;

    impl Write for Full {
        fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
            Err(std::io::Error::other("no space left"))
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn writers_report_a_failing_sink_behind_a_buffer() {
        // Both outputs fit the buffer, so only the final flush reaches
        // the sink; an error there must not be lost on drop.
        let g = parse_dimacs(Cursor::new(SAMPLE)).unwrap();
        assert!(write_dimacs(std::io::BufWriter::new(Full), &g, "x").is_err());
        assert!(write_coloring(std::io::BufWriter::new(Full), &[0, 1, 0, 1]).is_err());
    }
}
