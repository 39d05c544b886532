//! Graph serialization: text edge lists and a compact binary CSR format.
//!
//! Lets downstream users bring their own graphs instead of the synthetic
//! generators: load an edge list (the format OGB/SNAP dumps use), or
//! round-trip the compact binary format for fast reloads.

use crate::csr::{Csr, VertexId};
use crate::{GraphBuilder, GraphError};
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

/// Errors from graph I/O (wraps [`GraphError`] for format problems).
#[derive(Debug)]
pub enum IoError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The file content was not a valid graph.
    Format(String),
    /// The parsed structure failed validation.
    Graph(GraphError),
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "io error: {e}"),
            IoError::Format(m) => write!(f, "format error: {m}"),
            IoError::Graph(e) => write!(f, "graph error: {e}"),
        }
    }
}

impl std::error::Error for IoError {}

impl From<std::io::Error> for IoError {
    fn from(e: std::io::Error) -> Self {
        IoError::Io(e)
    }
}

impl From<GraphError> for IoError {
    fn from(e: GraphError) -> Self {
        IoError::Graph(e)
    }
}

/// Reads a whitespace-separated edge list (`src dst [weight]` per line;
/// `#`-prefixed lines are comments). `num_vertices` of `None` infers
/// `max id + 1`.
///
/// Lines stream straight into a [`GraphBuilder`] (8 bytes an edge, 12 once
/// a weight has been seen) — nothing is buffered per line. If any line
/// carries a weight the graph is weighted and the lines without one weigh
/// `1.0`, wherever in the file the first weight appears. The edge count is
/// bounded by memory only: the builder sorts the edges themselves, not
/// 32-bit edge numbers, so nothing truncates past 2³² edges.
pub fn read_edge_list(
    path: &Path,
    num_vertices: Option<usize>,
) -> std::result::Result<Csr, IoError> {
    let file = std::fs::File::open(path)?;
    let reader = BufReader::new(file);
    let mut b = GraphBuilder::new(num_vertices.unwrap_or(0));
    let mut max_id: VertexId = 0;
    for (lineno, line) in reader.lines().enumerate() {
        let line = line?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let parse = |tok: Option<&str>, what: &str| -> std::result::Result<VertexId, IoError> {
            let id = tok
                .ok_or_else(|| IoError::Format(format!("line {}: missing {what}", lineno + 1)))?
                .parse::<u64>()
                .map_err(|_| IoError::Format(format!("line {}: bad {what}", lineno + 1)))?;
            VertexId::try_from(id)
                .map_err(|_| IoError::Format(format!("line {}: vertex id exceeds u32", lineno + 1)))
        };
        let s = parse(parts.next(), "src")?;
        let d = parse(parts.next(), "dst")?;
        match parts.next() {
            Some(tok) => {
                let w = tok
                    .parse::<f32>()
                    .map_err(|_| IoError::Format(format!("line {}: bad weight", lineno + 1)))?;
                b.add_weighted_edge(s, d, w);
            }
            None => b.add_edge(s, d),
        }
        max_id = max_id.max(s).max(d);
    }
    if num_vertices.is_none() {
        b.grow_to(max_id as usize + 1);
    }
    Ok(b.build()?)
}

/// Writes a graph as a text edge list (with weights if present).
pub fn write_edge_list(csr: &Csr, path: &Path) -> std::result::Result<(), IoError> {
    let file = std::fs::File::create(path)?;
    let mut w = BufWriter::new(file);
    writeln!(
        w,
        "# gnnlab edge list: {} vertices, {} edges",
        csr.num_vertices(),
        csr.num_edges()
    )?;
    for v in 0..csr.num_vertices() as VertexId {
        let nbrs = csr.neighbors(v);
        match csr.edge_weights(v) {
            Some(ws) => {
                for (d, wt) in nbrs.iter().zip(ws) {
                    writeln!(w, "{v} {d} {wt}")?;
                }
            }
            None => {
                for d in nbrs {
                    writeln!(w, "{v} {d}")?;
                }
            }
        }
    }
    Ok(())
}

const MAGIC: &[u8; 8] = b"GNNLCSR1";

/// Writes the compact binary CSR format (little-endian):
/// magic, n, m, weighted flag, indptr (u64), indices (u32), weights (f32).
pub fn write_binary(csr: &Csr, path: &Path) -> std::result::Result<(), IoError> {
    let file = std::fs::File::create(path)?;
    let mut w = BufWriter::new(file);
    w.write_all(MAGIC)?;
    let n = csr.num_vertices() as u64;
    let m = csr.num_edges() as u64;
    w.write_all(&n.to_le_bytes())?;
    w.write_all(&m.to_le_bytes())?;
    w.write_all(&[u8::from(csr.is_weighted())])?;
    let mut off: u64 = 0;
    w.write_all(&off.to_le_bytes())?;
    for v in 0..csr.num_vertices() as VertexId {
        off += csr.out_degree(v) as u64;
        w.write_all(&off.to_le_bytes())?;
    }
    for v in 0..csr.num_vertices() as VertexId {
        for d in csr.neighbors(v) {
            w.write_all(&d.to_le_bytes())?;
        }
    }
    if csr.is_weighted() {
        for v in 0..csr.num_vertices() as VertexId {
            let ws = csr.edge_weights(v).ok_or_else(|| {
                IoError::Format(format!(
                    "graph reports weighted but vertex {v} has no weight array"
                ))
            })?;
            for wt in ws {
                w.write_all(&wt.to_le_bytes())?;
            }
        }
    }
    Ok(())
}

/// Bytes a well-formed binary CSR file must occupy: magic + header +
/// indptr (u64 × n+1) + indices (u32 × m) + optional weights (f32 × m).
fn binary_file_size(n: u64, m: u64, weighted: bool) -> Option<u64> {
    let header = 8u64 + 8 + 8 + 1;
    let indptr = n.checked_add(1)?.checked_mul(8)?;
    let indices = m.checked_mul(4)?;
    let weights = if weighted { indices } else { 0 };
    header
        .checked_add(indptr)?
        .checked_add(indices)?
        .checked_add(weights)
}

/// Reads exactly `buf.len()` bytes of `section`. An early EOF becomes a
/// section-named [`IoError::Format`] ("truncated <section> section") so
/// callers learn *where* a torn file ends, not just that a read failed;
/// every other I/O failure stays an [`IoError::Io`].
fn read_section(
    r: &mut impl Read,
    buf: &mut [u8],
    section: &str,
) -> std::result::Result<(), IoError> {
    r.read_exact(buf).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            IoError::Format(format!("truncated {section} section"))
        } else {
            IoError::Io(e)
        }
    })
}

fn read_exact_u64(r: &mut impl Read, section: &str) -> std::result::Result<u64, IoError> {
    let mut buf = [0u8; 8];
    read_section(r, &mut buf, section)?;
    Ok(u64::from_le_bytes(buf))
}

/// Reads the compact binary CSR format written by [`write_binary`].
///
/// The header is validated against the actual file size before any
/// allocation, so a truncated or corrupted file yields a typed
/// [`IoError::Format`] instead of a partial read or an absurd
/// `Vec::with_capacity` from a garbage edge count. No single allocation
/// is larger than the file, the read buffer's included.
pub fn read_binary(path: &Path) -> std::result::Result<Csr, IoError> {
    let file = std::fs::File::open(path)?;
    let file_len = file.metadata()?.len();
    let mut r = BufReader::with_capacity(file_len.min(8 * 1024) as usize, file);
    let mut magic = [0u8; 8];
    read_section(&mut r, &mut magic, "magic")?;
    if &magic != MAGIC {
        return Err(IoError::Format(
            "bad magic; not a gnnlab binary CSR".to_string(),
        ));
    }
    let n64 = read_exact_u64(&mut r, "header")?;
    let m64 = read_exact_u64(&mut r, "header")?;
    let mut flag = [0u8; 1];
    read_section(&mut r, &mut flag, "header")?;
    if flag[0] > 1 {
        return Err(IoError::Format(format!(
            "bad weighted flag {} (want 0 or 1)",
            flag[0]
        )));
    }
    let weighted = flag[0] != 0;
    let expected = binary_file_size(n64, m64, weighted).ok_or_else(|| {
        IoError::Format(format!(
            "header claims {n64} vertices / {m64} edges, which overflows any real file"
        ))
    })?;
    if file_len != expected {
        return Err(IoError::Format(format!(
            "file is {file_len} bytes but header ({n64} vertices, {m64} edges, \
             weighted={weighted}) requires exactly {expected}; truncated or corrupt"
        )));
    }
    let n = n64 as usize;
    let m = m64 as usize;
    let mut indptr = Vec::with_capacity(n + 1);
    for _ in 0..=n {
        indptr.push(read_exact_u64(&mut r, "indptr")?);
    }
    let mut indices = Vec::with_capacity(m);
    let mut buf4 = [0u8; 4];
    for _ in 0..m {
        read_section(&mut r, &mut buf4, "indices")?;
        indices.push(u32::from_le_bytes(buf4));
    }
    let csr = Csr::from_parts(indptr, indices)?;
    if weighted {
        let mut weights = Vec::with_capacity(m);
        for _ in 0..m {
            read_section(&mut r, &mut buf4, "weights")?;
            weights.push(f32::from_le_bytes(buf4));
        }
        Ok(csr.with_weights(weights)?)
    } else {
        Ok(csr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::chung_lu;

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("gnnlab_io_test_{}_{name}", std::process::id()));
        p
    }

    fn graphs_equal(a: &Csr, b: &Csr) {
        assert_eq!(a.num_vertices(), b.num_vertices());
        assert_eq!(a.num_edges(), b.num_edges());
        for v in 0..a.num_vertices() as VertexId {
            assert_eq!(a.neighbors(v), b.neighbors(v), "v={v}");
            assert_eq!(a.edge_weights(v).is_some(), b.edge_weights(v).is_some());
            if let (Some(wa), Some(wb)) = (a.edge_weights(v), b.edge_weights(v)) {
                assert_eq!(wa, wb);
            }
        }
    }

    #[test]
    fn edge_list_roundtrip() {
        let g = chung_lu(200, 2000, 2.0, 1).unwrap();
        let path = tmp("edges.txt");
        write_edge_list(&g, &path).unwrap();
        let g2 = read_edge_list(&path, Some(200)).unwrap();
        graphs_equal(&g, &g2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn weighted_edge_list_roundtrip() {
        let g = crate::gen::recency_weights(chung_lu(100, 800, 2.0, 2).unwrap(), 3).unwrap();
        let path = tmp("wedges.txt");
        write_edge_list(&g, &path).unwrap();
        let g2 = read_edge_list(&path, Some(100)).unwrap();
        assert!(g2.is_weighted());
        assert_eq!(g.num_edges(), g2.num_edges());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn binary_roundtrip() {
        let g = chung_lu(300, 3000, 2.0, 4).unwrap();
        let path = tmp("graph.bin");
        write_binary(&g, &path).unwrap();
        let g2 = read_binary(&path).unwrap();
        graphs_equal(&g, &g2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn binary_weighted_roundtrip() {
        let g = crate::gen::recency_weights(chung_lu(150, 1000, 2.0, 5).unwrap(), 7).unwrap();
        let path = tmp("wgraph.bin");
        write_binary(&g, &path).unwrap();
        let g2 = read_binary(&path).unwrap();
        graphs_equal(&g, &g2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_garbage() {
        let path = tmp("garbage.bin");
        std::fs::write(&path, b"not a graph at all").unwrap();
        assert!(matches!(read_binary(&path), Err(IoError::Format(_))));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn edge_list_parses_comments_and_infers_n() {
        let path = tmp("comments.txt");
        std::fs::write(&path, "# header\n0 1\n\n2 0\n").unwrap();
        let g = read_edge_list(&path, None).unwrap();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn edge_list_weight_on_a_later_line_back_fills_ones() {
        // The first weight appears on the third edge; the lines around it
        // that carry none weigh 1.0, and parallel edges keep file order.
        let path = tmp("mixed.txt");
        std::fs::write(&path, "2 0\n0 1\n0 1 0.5\n# note\n0 1 0.25\n2 2\n0 0 4\n").unwrap();
        let g = read_edge_list(&path, None).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.neighbors(0), &[0, 1, 1, 1]);
        assert_eq!(g.edge_weights(0), Some(&[4.0, 1.0, 0.5, 0.25][..]));
        assert_eq!(g.neighbors(2), &[0, 2]);
        assert_eq!(g.edge_weights(2), Some(&[1.0, 1.0][..]));
    }

    #[test]
    fn edge_list_without_weights_stays_unweighted() {
        let path = tmp("plain.txt");
        std::fs::write(&path, "1 0\n0 1\n").unwrap();
        let g = read_edge_list(&path, Some(4)).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(g.num_vertices(), 4);
        assert!(!g.is_weighted());
    }

    #[test]
    fn edge_list_rejects_bad_lines() {
        let path = tmp("bad.txt");
        std::fs::write(&path, "0 x\n").unwrap();
        assert!(matches!(
            read_edge_list(&path, None),
            Err(IoError::Format(_))
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn edge_list_rejects_partial_lines() {
        // A write interrupted mid-line leaves a trailing src with no dst.
        let path = tmp("partial.txt");
        std::fs::write(&path, "0 1\n1 2\n2\n").unwrap();
        let err = read_edge_list(&path, None).unwrap_err();
        match err {
            IoError::Format(m) => assert!(m.contains("line 3"), "{m}"),
            other => panic!("expected Format, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn edge_list_rejects_partial_weighted_lines() {
        let path = tmp("partial_w.txt");
        std::fs::write(&path, "0 1 0.5\n1 2 oops\n").unwrap();
        let err = read_edge_list(&path, None).unwrap_err();
        match err {
            IoError::Format(m) => assert!(m.contains("bad weight"), "{m}"),
            other => panic!("expected Format, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncated_binary_is_a_format_error() {
        let g = chung_lu(120, 900, 2.0, 9).unwrap();
        let path = tmp("trunc.bin");
        write_binary(&g, &path).unwrap();
        let full = std::fs::read(&path).unwrap();
        // Cut at several depths: inside indptr, inside indices, one byte
        // short of complete. Every cut must surface as a typed error, not
        // a panic or a silently partial graph.
        for cut in [30, full.len() / 2, full.len() - 1] {
            std::fs::write(&path, &full[..cut]).unwrap();
            let err = read_binary(&path).unwrap_err();
            match err {
                IoError::Format(m) => {
                    assert!(m.contains("truncated"), "cut={cut}: {m}")
                }
                other => panic!("cut={cut}: expected Format, got {other:?}"),
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncated_header_names_the_section() {
        // Not even a full magic: the early EOF surfaces as a typed format
        // error naming the section the file tore in, not a bare Io error.
        let path = tmp("trunc_hdr.bin");
        std::fs::write(&path, &MAGIC[..6]).unwrap();
        match read_binary(&path).unwrap_err() {
            IoError::Format(m) => assert!(m.contains("truncated magic"), "{m}"),
            other => panic!("expected Format, got {other:?}"),
        }
        // Magic intact but the counts cut short: the header section.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC);
        bytes.extend_from_slice(&7u64.to_le_bytes()[..4]);
        std::fs::write(&path, &bytes).unwrap();
        match read_binary(&path).unwrap_err() {
            IoError::Format(m) => assert!(m.contains("truncated header"), "{m}"),
            other => panic!("expected Format, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn oversized_binary_is_a_format_error() {
        let g = chung_lu(50, 200, 2.0, 3).unwrap();
        let path = tmp("padded.bin");
        write_binary(&g, &path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(&[0u8; 16]);
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(read_binary(&path), Err(IoError::Format(_))));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn absurd_edge_count_is_rejected_without_allocating() {
        // Header claims ~u64::MAX edges; the size check must reject it
        // before any Vec::with_capacity sees the number.
        let path = tmp("absurd.bin");
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC);
        bytes.extend_from_slice(&4u64.to_le_bytes());
        bytes.extend_from_slice(&u64::MAX.to_le_bytes());
        bytes.push(0);
        bytes.extend_from_slice(&[0u8; 40]); // fake indptr
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(read_binary(&path), Err(IoError::Format(_))));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bad_weighted_flag_is_rejected() {
        let path = tmp("badflag.bin");
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC);
        bytes.extend_from_slice(&1u64.to_le_bytes());
        bytes.extend_from_slice(&0u64.to_le_bytes());
        bytes.push(7);
        bytes.extend_from_slice(&[0u8; 16]);
        std::fs::write(&path, &bytes).unwrap();
        let err = read_binary(&path).unwrap_err();
        match err {
            IoError::Format(m) => assert!(m.contains("flag"), "{m}"),
            other => panic!("expected Format, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }
}
