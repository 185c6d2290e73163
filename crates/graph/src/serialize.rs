//! Bounded binary (de)serialization of the refined graph.
//!
//! The graph is one chunk of the persistent model artifact (DESIGN.md
//! §6.10): deployment featurization walks `neighbors`/`degree`/`value_node`
//! at serving time, so the adjacency — CSR-style counts plus `(target,
//! weight-bits)` pairs — must round-trip bitwise. Derived structures
//! (`kinds`, the dense token→value-node map) are *reconstructed* from the
//! primary data rather than stored, which both shrinks the artifact and
//! removes a class of inconsistent-buffer states.
//!
//! Decoding follows the bounded-decode rules: counts are validated against
//! the remaining buffer before any allocation, node/token references are
//! range-checked, and all failures are typed [`DecodeError`]s.

use crate::builder::{Csr, LevaGraph, NodeKind, RefineStats, NO_VALUE_NODE};
use leva_interner::codec::{ByteReader, ByteWriter, DecodeError};
use leva_interner::{Buf, LazyCheck, TokenId, TokenInterner};
use std::sync::Arc;

/// Validates that the CSR adjacency encodes an *undirected* graph: every
/// directed edge `(u, v, w)` has a reverse `(v, u, w)` with identical
/// weight bits, and no node links to itself. Decoded graphs rely on this
/// for `n_edges()` (`directed / 2`), walk transition symmetry, and the
/// featurizer's two-hop mass; a hostile artifact that re-stamps the chunk
/// CRC after skewing edges is caught here, not by the checksum.
pub(crate) fn validate_symmetry(
    offsets: &[u64],
    targets: &[u32],
    weights: &[f64],
) -> Result<(), DecodeError> {
    let n_nodes = offsets.len().saturating_sub(1);
    // Cheap reject: per-node in-degree must equal out-degree, which also
    // means the forward offsets bound the transpose below.
    let mut indeg = vec![0u64; n_nodes];
    for &v in targets {
        indeg[v as usize] += 1; // targets were range-checked by the decoder
    }
    for u in 0..n_nodes {
        if indeg[u] != offsets[u + 1] - offsets[u] {
            return Err(DecodeError::Invalid("adjacency is not symmetric"));
        }
    }
    // Counting-sort transpose: rev[offsets[v]..offsets[v+1]] collects the
    // (source, weight-bits) of every edge into v.
    let mut cursor: Vec<u64> = offsets[..n_nodes].to_vec();
    let mut rev: Vec<(u32, u64)> = vec![(0, 0); targets.len()];
    for u in 0..n_nodes {
        let (lo, hi) = (offsets[u] as usize, offsets[u + 1] as usize);
        for i in lo..hi {
            let v = targets[i] as usize;
            if v == u {
                return Err(DecodeError::Invalid("self-loop in adjacency"));
            }
            rev[cursor[v] as usize] = (u as u32, weights[i].to_bits());
            cursor[v] += 1;
        }
    }
    // Per-node multiset compare, weights bitwise.
    let mut fwd: Vec<(u32, u64)> = Vec::new();
    for u in 0..n_nodes {
        let (lo, hi) = (offsets[u] as usize, offsets[u + 1] as usize);
        fwd.clear();
        fwd.extend((lo..hi).map(|i| (targets[i], weights[i].to_bits())));
        fwd.sort_unstable();
        let back = &mut rev[lo..hi];
        back.sort_unstable();
        if fwd != back {
            return Err(DecodeError::Invalid("adjacency is not symmetric"));
        }
    }
    Ok(())
}

impl LevaGraph {
    /// Serializes the graph (without its symbol table, which the artifact
    /// stores once and shares across chunks) in the *aligned CSR* layout:
    /// after the variable-length table names, the adjacency is three
    /// contiguous arrays — `u64` cumulative offsets, `u32` targets, `f64`
    /// weights — each preceded by `pad_to(8)` so that, framed at an
    /// 8-aligned payload offset, every array is naturally aligned in a file
    /// mapping. Decodes with [`LevaGraph::decode_aligned`].
    pub fn encode_aligned_into(&self, w: &mut ByteWriter) {
        w.put_u32(u32::try_from(self.table_names.len()).expect("table count fits u32"));
        for name in &self.table_names {
            w.put_str(name);
        }
        w.put_u64(self.n_row_nodes as u64);
        w.put_u32(u32::try_from(self.node_tokens.len()).expect("node count fits u32"));
        for &t in &self.node_tokens {
            w.put_u32(t.raw());
        }
        w.pad_to(8);
        w.put_u64_slice(
            &self
                .row_offsets
                .iter()
                .map(|&o| o as u64)
                .collect::<Vec<_>>(),
        );
        w.put_u64_slice(&self.adj.offsets);
        w.put_u32_slice(&self.adj.targets);
        w.pad_to(8);
        w.put_f64_slice(&self.adj.weights);
        w.put_u64_slice(&[
            self.stats.tokens_total as u64,
            self.stats.tokens_removed_missing as u64,
            self.stats.token_attrs_removed as u64,
            self.stats.singleton_tokens_skipped as u64,
        ]);
    }

    /// Decodes a whole `GRPH` payload (see
    /// [`LevaGraph::encode_aligned_into`]), resolving node identities
    /// through `symbols` — the one decoder for every load path.
    ///
    /// The variable-length header (table names, node tokens, row offsets)
    /// is small and copied. The three CSR arrays become [`Buf`]s: zero-copy
    /// views when `check` defers the CRC of a payload inside a file mapping
    /// (and the addresses allow it), owned little-endian decodes otherwise.
    /// All *geometry* — bounds, monotone offsets, in-range targets, value
    /// nodes with distinct tokens — is validated here, so no later access
    /// can index outside the graph. The adjacency symmetry check runs here
    /// too when nothing is deferred; otherwise it settles with the CRC on
    /// [`LevaGraph::verify`], keeping a mapped load free of the `O(E log E)`
    /// pass.
    pub fn decode_aligned(
        payload: &[u8],
        symbols: Arc<TokenInterner>,
        check: LazyCheck,
    ) -> Result<LevaGraph, DecodeError> {
        let mut r = ByteReader::new(payload);
        let n_tables = r.take_count(4)?;
        let mut table_names = Vec::with_capacity(n_tables);
        for _ in 0..n_tables {
            table_names.push(r.take_str()?.to_owned());
        }
        let n_row_nodes = r.take_usize()?;
        let n_nodes = r.take_count(4)?;
        if n_row_nodes > n_nodes {
            return Err(DecodeError::Invalid("row-node count exceeds node count"));
        }
        let mut node_tokens = Vec::with_capacity(n_nodes);
        for _ in 0..n_nodes {
            let raw = r.take_u32()?;
            if raw as usize >= symbols.len() {
                return Err(DecodeError::Invalid("node token outside symbol table"));
            }
            node_tokens.push(TokenId::from_index(raw as usize));
        }
        r.pad_to(8)?;
        if r.remaining() < n_tables.saturating_mul(8) {
            return Err(DecodeError::Truncated);
        }
        let mut row_offsets = Vec::with_capacity(n_tables);
        for _ in 0..n_tables {
            row_offsets.push(r.take_usize()?);
        }
        // Row offsets must be monotonically non-decreasing and stay within
        // the row-node range, or `row_node()` would index out of the graph.
        let mut prev = 0usize;
        for &off in &row_offsets {
            if off < prev || off > n_row_nodes {
                return Err(DecodeError::Invalid("row offsets not monotonic"));
            }
            prev = off;
        }
        if n_row_nodes > 0 && row_offsets.first() != Some(&0) {
            return Err(DecodeError::Invalid("first row offset must be zero"));
        }
        // CSR offsets: n_nodes + 1 monotone u64s bounding the edge count.
        if r.remaining() < (n_nodes + 1).saturating_mul(8) {
            return Err(DecodeError::Truncated);
        }
        let offsets = Buf::<u64>::from_le_bytes(r.take_raw((n_nodes + 1) * 8)?, check.map());
        if offsets.first() != Some(&0) {
            return Err(DecodeError::Invalid("first CSR offset must be zero"));
        }
        if offsets.windows(2).any(|w| w[0] > w[1]) {
            return Err(DecodeError::Invalid("CSR offsets not monotonic"));
        }
        let n_edges = usize::try_from(*offsets.last().expect("offsets non-empty"))
            .map_err(|_| DecodeError::LengthOverflow)?;
        // Targets (4 bytes) + alignment + weights (8 bytes) must fit.
        if n_edges
            .checked_mul(12)
            .is_none_or(|need| need > r.remaining())
        {
            return Err(DecodeError::LengthOverflow);
        }
        // A dangling node id must never be usable as an index, even before
        // a deferred check settles.
        let targets = Buf::<u32>::from_le_bytes(r.take_raw(n_edges * 4)?, check.map());
        if targets.iter().any(|&v| v as usize >= n_nodes) {
            return Err(DecodeError::Invalid("adjacency target out of range"));
        }
        r.pad_to(8)?;
        let weights = Buf::<f64>::from_le_bytes(r.take_raw(n_edges * 8)?, check.map());
        let stats = RefineStats {
            tokens_total: r.take_usize()?,
            tokens_removed_missing: r.take_usize()?,
            token_attrs_removed: r.take_usize()?,
            singleton_tokens_skipped: r.take_usize()?,
        };
        if !r.is_exhausted() {
            return Err(DecodeError::Invalid("trailing bytes after graph"));
        }
        if check.map().is_none() {
            validate_symmetry(&offsets, &targets, &weights)?;
        }
        let adj = Csr {
            offsets,
            targets,
            weights,
        };
        Self::reconstruct(
            symbols,
            table_names,
            row_offsets,
            n_row_nodes,
            node_tokens,
            adj,
            check,
            stats,
        )
    }

    /// Rebuilds the derived structures (`kinds`, the token→value-node map)
    /// from the primary decoded data and assembles the graph. Kinds: nodes
    /// below `n_row_nodes` are rows of the table whose offset range contains
    /// them; the rest are value nodes.
    #[allow(clippy::too_many_arguments)]
    fn reconstruct(
        symbols: Arc<TokenInterner>,
        table_names: Vec<String>,
        row_offsets: Vec<usize>,
        n_row_nodes: usize,
        node_tokens: Vec<TokenId>,
        adj: Csr,
        check: LazyCheck,
        stats: RefineStats,
    ) -> Result<LevaGraph, DecodeError> {
        let n_nodes = node_tokens.len();
        let mut kinds = Vec::with_capacity(n_nodes);
        let mut table = 0usize;
        for node in 0..n_row_nodes {
            while table + 1 < row_offsets.len() && row_offsets[table + 1] <= node {
                table += 1;
            }
            if row_offsets.is_empty() {
                return Err(DecodeError::Invalid("row nodes without tables"));
            }
            kinds.push(NodeKind::Row {
                table: u32::try_from(table).map_err(|_| DecodeError::LengthOverflow)?,
                row: u32::try_from(node - row_offsets[table])
                    .map_err(|_| DecodeError::LengthOverflow)?,
            });
        }
        kinds.resize(n_nodes, NodeKind::Value);
        let mut value_nodes = vec![NO_VALUE_NODE; symbols.len()];
        for (node, &token) in node_tokens.iter().enumerate().skip(n_row_nodes) {
            let slot = &mut value_nodes[token.index()];
            if *slot != NO_VALUE_NODE {
                return Err(DecodeError::Invalid("two value nodes share a token"));
            }
            *slot = u32::try_from(node).map_err(|_| DecodeError::LengthOverflow)?;
        }

        Ok(LevaGraph {
            kinds,
            node_tokens,
            symbols,
            adj,
            check,
            n_row_nodes,
            row_offsets,
            table_names,
            stats,
            value_nodes,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{build_graph, GraphConfig};
    use leva_relational::{Database, Table, Value};
    use leva_textify::{textify, TextifyConfig};

    fn graph() -> LevaGraph {
        let mut db = Database::new();
        let mut a = Table::new("a", vec!["name", "city"]);
        let mut b = Table::new("b", vec!["name", "amount"]);
        for i in 0..12 {
            a.push_row(vec![format!("u{i}").into(), ["nyc", "sfo"][i % 2].into()])
                .unwrap();
            b.push_row(vec![format!("u{i}").into(), Value::Float(i as f64)])
                .unwrap();
        }
        db.add_table(a).unwrap();
        db.add_table(b).unwrap();
        build_graph(
            &textify(&db, &TextifyConfig::default()),
            &GraphConfig::default(),
        )
    }

    fn encode(g: &LevaGraph) -> Vec<u8> {
        let mut w = ByteWriter::new();
        g.encode_aligned_into(&mut w);
        w.into_bytes()
    }

    fn decode(bytes: &[u8], symbols: &Arc<TokenInterner>) -> Result<LevaGraph, DecodeError> {
        LevaGraph::decode_aligned(bytes, Arc::clone(symbols), LazyCheck::default())
    }

    #[test]
    fn codec_round_trip_is_bitwise() {
        let g = graph();
        let bytes = encode(&g);
        let back = decode(&bytes, g.symbols()).unwrap();
        assert!(!back.is_mapped());
        assert_eq!(back.n_nodes(), g.n_nodes());
        assert_eq!(back.n_row_nodes(), g.n_row_nodes());
        assert_eq!(back.table_names(), g.table_names());
        assert_eq!(back.stats(), g.stats());
        for node in 0..g.n_nodes() as u32 {
            assert_eq!(back.kind(node), g.kind(node));
            assert_eq!(back.token(node), g.token(node));
            let (a, b) = (g.neighbors(node), back.neighbors(node));
            assert_eq!(a.len(), b.len());
            for ((v1, w1), (v2, w2)) in a.iter().zip(b) {
                assert_eq!(v1, v2);
                assert_eq!(w1.to_bits(), w2.to_bits(), "weight bits differ");
            }
        }
        // Derived maps agree: every surviving value token resolves back.
        assert_eq!(back.value_node("u3"), g.value_node("u3"));
        assert_eq!(back.value_node("nyc"), g.value_node("nyc"));
        assert_eq!(back.value_node("never-seen"), None);
        assert_eq!(back.row_node(1, 5), g.row_node(1, 5));
        assert_eq!(encode(&back), bytes, "codec is not a fixed point");
    }

    #[test]
    fn truncation_and_flips_never_panic() {
        let g = graph();
        let mut bytes = encode(&g);
        for cut in 0..bytes.len() {
            assert!(
                decode(&bytes[..cut], g.symbols()).is_err(),
                "cut at {cut} decoded"
            );
        }
        // Flipping bytes anywhere must never panic (errors are fine; some
        // flips still decode — the artifact layer's CRC catches those).
        for i in (0..bytes.len()).step_by(7) {
            bytes[i] ^= 0x5a;
            let _ = decode(&bytes, g.symbols());
            bytes[i] ^= 0x5a;
        }
    }

    #[test]
    fn asymmetric_adjacency_rejected() {
        // Hand-build a 2-node "graph" with a one-directional edge: it must
        // be rejected even though offsets are monotone and targets in range.
        assert!(validate_symmetry(&[0, 1, 1], &[1], &[0.5]).is_err());
        // Degree-symmetric but weight-skewed: 0->1 at 0.5, 1->0 at 0.25.
        assert!(validate_symmetry(&[0, 1, 2], &[1, 0], &[0.5, 0.25]).is_err());
        // Self-loops never occur in the bipartite builder output.
        assert!(validate_symmetry(&[0, 1, 1], &[0], &[1.0]).is_err());
        // The mirrored form passes.
        assert!(validate_symmetry(&[0, 1, 2], &[1, 0], &[0.5, 0.5]).is_ok());
        // And so does a built graph end to end.
        let g = graph();
        let adj = &g.adj;
        assert!(validate_symmetry(&adj.offsets, &adj.targets, &adj.weights).is_ok());
    }

    #[test]
    fn dangling_references_rejected() {
        // Decode against a *smaller* symbol table so every node token is
        // out of range.
        let g = graph();
        let tiny = Arc::new(TokenInterner::new());
        assert!(matches!(
            decode(&encode(&g), &tiny).unwrap_err(),
            DecodeError::Invalid(_) | DecodeError::Truncated | DecodeError::LengthOverflow
        ));
    }

    /// A `GRPH` payload inside a mapping is viewed in place; its CRC and
    /// the symmetry audit settle on `verify`, and an asymmetric adjacency
    /// loads (geometry is fine) but never verifies.
    #[test]
    fn mapped_payload_defers_crc_and_symmetry() {
        use leva_interner::codec::crc32;
        use leva_interner::MmapFile;

        let g = graph();
        let bytes = encode(&g);
        let n = bytes.len();
        let mut skewed = bytes.clone();
        // The payload ends with 4 stats u64s preceded by the weights:
        // skew one directed copy of the last edge weight.
        skewed[n - 32 - 6] ^= 0x40;
        let path = std::env::temp_dir().join(format!("leva_grph_{}.bin", std::process::id()));
        std::fs::write(&path, [bytes.as_slice(), skewed.as_slice()].concat()).unwrap();
        let map = Arc::new(MmapFile::open(&path).unwrap());
        let decode_at = |offset: usize, payload: &[u8]| {
            let check = LazyCheck::crc(&map, offset, n, crc32(payload));
            LevaGraph::decode_aligned(&map[offset..offset + n], Arc::clone(g.symbols()), check)
                .unwrap()
        };

        let good = decode_at(0, &bytes);
        if cfg!(all(unix, target_endian = "little")) {
            assert!(good.is_mapped());
            assert_eq!(good.estimated_adjacency_bytes(), 0);
        }
        assert!(good.verify());
        assert_eq!(encode(&good), bytes);

        assert!(n.is_multiple_of(8), "second copy must stay aligned");
        let asymmetric = decode_at(n, &skewed);
        assert!(!asymmetric.verify(), "CRC matches, symmetry must not");
        // The byte decode runs the same audit eagerly.
        assert_eq!(
            decode(&skewed, g.symbols()).unwrap_err(),
            DecodeError::Invalid("adjacency is not symmetric")
        );
        drop((good, asymmetric, map));
        std::fs::remove_file(&path).ok();
    }
}
