//! Plain-text edge-list I/O.
//!
//! The network data repository distributes graphs as whitespace-separated
//! edge lists (`src dst [weight]`, `%`/`#` comment lines). This module
//! parses and writes that format so the scaled stand-ins can be exported
//! and, if the original datasets ever become available, loaded directly.

use std::fmt;
use std::io::{BufRead, Write};

use crate::csr::Csr;
use crate::VertexId;

/// Error parsing an edge-list document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseEdgeListError {
    line: usize,
    message: String,
    snippet: String,
}

impl ParseEdgeListError {
    fn at(line: usize, text: &str, message: String) -> Self {
        ParseEdgeListError {
            line,
            message,
            snippet: text.chars().take(60).collect(),
        }
    }

    /// 1-based line where the error occurred.
    pub fn line(&self) -> usize {
        self.line
    }

    /// The offending line's text (truncated to 60 characters).
    pub fn snippet(&self) -> &str {
        &self.snippet
    }
}

impl fmt::Display for ParseEdgeListError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid edge list at line {}: {} in `{}`",
            self.line, self.message, self.snippet
        )
    }
}

impl std::error::Error for ParseEdgeListError {}

/// Parses an edge-list document into a [`Csr`].
///
/// Each non-comment line is `src dst` or `src dst weight`. Vertex IDs may be
/// arbitrary (the vertex count is `max id + 1`). Lines starting with `#` or
/// `%` and blank lines are skipped.
///
/// # Errors
///
/// Returns [`ParseEdgeListError`] on malformed lines or unparsable
/// numbers, or, naming the line with the largest vertex id, when the
/// graph's arrays cannot be allocated.
///
/// # Examples
///
/// ```
/// let g = sparseweaver_graph::io::parse_edge_list("0 1\n1 2 5\n# comment\n")?;
/// assert_eq!(g.num_vertices(), 3);
/// assert_eq!(g.num_edges(), 2);
/// # Ok::<(), sparseweaver_graph::io::ParseEdgeListError>(())
/// ```
pub fn parse_edge_list(text: &str) -> Result<Csr, ParseEdgeListError> {
    let mut edges: Vec<(VertexId, VertexId, u32)> = Vec::new();
    let mut max_v: u64 = 0;
    // The first line holding `max_v`, which sets the vertex count.
    let mut max_line = (0, "");
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') || line.starts_with('%') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let err = |message: &str| ParseEdgeListError::at(i + 1, line, message.to_string());
        let src: u64 = parts
            .next()
            .ok_or_else(|| err("missing source"))?
            .parse()
            .map_err(|_| err("bad source id"))?;
        let dst: u64 = parts
            .next()
            .ok_or_else(|| err("missing destination"))?
            .parse()
            .map_err(|_| err("bad destination id"))?;
        let w: u32 = match parts.next() {
            Some(tok) => tok.parse().map_err(|_| err("bad weight"))?,
            None => 1,
        };
        if parts.next().is_some() {
            return Err(err("trailing tokens"));
        }
        if src > u32::MAX as u64 - 1 || dst > u32::MAX as u64 - 1 {
            return Err(err("vertex id out of range"));
        }
        if src.max(dst) > max_v || edges.is_empty() {
            max_v = src.max(dst);
            max_line = (i + 1, line);
        }
        edges.push((src as VertexId, dst as VertexId, w));
    }
    let n = if edges.is_empty() {
        0
    } else {
        max_v as usize + 1
    };
    Csr::try_from_weighted_edges(n, &edges).map_err(|_| {
        let message = format!("vertex id {max_v} implies {n} vertices, too many to allocate");
        ParseEdgeListError::at(max_line.0, max_line.1, message)
    })
}

/// Reads an edge list from any [`BufRead`] (a `&mut` reference works too).
///
/// # Errors
///
/// Returns an I/O error or, boxed inside `InvalidData`, a parse error.
pub fn read_edge_list<R: BufRead>(mut reader: R) -> std::io::Result<Csr> {
    let mut text = String::new();
    reader.read_to_string(&mut text)?;
    parse_edge_list(&text).map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
}

/// Writes `g` as an edge list (`src dst weight` per line) to any
/// [`Write`] (a `&mut` reference works too).
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn write_edge_list<W: Write>(g: &Csr, mut writer: W) -> std::io::Result<()> {
    writeln!(
        writer,
        "# {} vertices, {} edges",
        g.num_vertices(),
        g.num_edges()
    )?;
    for (s, d, w) in g.iter_edges() {
        writeln!(writer, "{s} {d} {w}")?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        let g = crate::generators::uniform(40, 120, 17);
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let g2 = read_edge_list(&buf[..]).unwrap();
        // Vertex count may shrink if trailing vertices are isolated; edge
        // multiset must match.
        let e1: Vec<_> = g.iter_edges().collect();
        let e2: Vec<_> = g2.iter_edges().collect();
        assert_eq!(e1, e2);
    }

    #[test]
    fn comments_and_blanks_skipped() {
        let g = parse_edge_list("% header\n\n# note\n0 1\n").unwrap();
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn default_weight_is_one() {
        let g = parse_edge_list("0 1\n").unwrap();
        assert_eq!(g.weights(), &[1]);
    }

    #[test]
    fn explicit_weight() {
        let g = parse_edge_list("0 1 9\n").unwrap();
        assert_eq!(g.weights(), &[9]);
    }

    #[test]
    fn error_reports_line() {
        let e = parse_edge_list("0 1\nxyz 3\n").unwrap_err();
        assert_eq!(e.line(), 2);
        assert!(e.to_string().contains("line 2"));
        assert_eq!(e.snippet(), "xyz 3");
        assert!(e.to_string().contains("`xyz 3`"));
    }

    #[test]
    fn long_offending_lines_are_truncated_in_errors() {
        let junk = "z".repeat(500);
        let e = parse_edge_list(&format!("0 1\n{junk}\n")).unwrap_err();
        assert_eq!(e.snippet().chars().count(), 60);
    }

    #[test]
    fn trailing_tokens_rejected() {
        assert!(parse_edge_list("0 1 2 3\n").is_err());
    }

    #[test]
    fn missing_destination_rejected() {
        assert!(parse_edge_list("0\n").is_err());
    }

    #[test]
    fn empty_document_is_empty_graph() {
        let g = parse_edge_list("").unwrap();
        assert_eq!(g.num_vertices(), 0);
    }
}
