//! Embedding deployment (§4.4): turning a fitted [`LevaModel`] into feature
//! matrices for downstream ML.
//!
//! The featurization is defined so that in-graph (training) rows and
//! out-of-sample (test) rows go through *structurally identical* paths —
//! otherwise a model fitted on training features fails on test features:
//!
//! * **Value half** ("Row" in the paper's Table 6 ablation): the mean of
//!   the embeddings of the row's value nodes. For a training row these are
//!   its graph neighbours; for a test row they are the value nodes of its
//!   encoded tokens (numeric cells quantized with the *training*
//!   histograms, §2.4). The two coincide by construction.
//! * **Related-row half** (the "+ Value" augmentation): the mean of the
//!   row-node embeddings reachable through those value nodes — the rows
//!   the graph considers related entities. Again identical for train
//!   (2-hop neighbourhood) and test (token → value node → rows).
//!
//! Tokens never seen in training contribute nothing (their information is
//! simply absent, as with unseen one-hot categories); numeric out-of-range
//! values clamp into boundary bins.
//!
//! Serving goes through the precomputed [`Featurizer`] engine (DESIGN.md
//! §6.11): per-value-node aggregates are cached once per model, so each
//! row costs `O(#tokens · d)` dense adds instead of a two-hop graph walk,
//! and batches shard rows over deterministic thread bands. The original
//! walk survives as the `*_walk` reference implementations that the
//! equivalence tests (and the stages bench) compare against.

use crate::config::Featurization;
use crate::featurizer::Featurizer;
use crate::pipeline::{LevaError, LevaModel};
use leva_linalg::{for_each_row_band, Matrix};
use leva_relational::Table;
use leva_textify::ColumnEncoder;
use std::ops::Range;

impl LevaModel {
    /// Embedding dimensionality of a single featurized row under `feat`.
    pub fn feature_dim(&self, feat: Featurization) -> usize {
        match feat {
            Featurization::RowOnly => self.store.dim(),
            Featurization::RowPlusValue => 2 * self.store.dim(),
        }
    }

    /// The precomputed serving featurizer, built lazily on first use (an
    /// `O(E·d)` pass, roughly the cost of naively featurizing two rows) and
    /// cached for the model's lifetime. The caches snapshot the current
    /// graph + store; every supported mutation path keeps them coherent —
    /// [`LevaModel::append_rows`] patches exactly the touched slots, and
    /// mutations the patch cannot model drop the cache for a lazy rebuild.
    /// Mutating the public fields directly is unsupported.
    pub fn featurizer(&self) -> &Featurizer {
        self.featurizer
            .get_or_init(|| Featurizer::build(&self.graph, &self.store, self.config.threads))
    }

    /// Carries `source`'s warm featurizer cache into this model's empty
    /// lazy slot, skipping the `O(E·d)` rebuild. Sound only when both
    /// models hold bitwise-identical graph + store state — the intended
    /// caller clones a model (which deliberately drops the cache) and
    /// warms the clone from its origin before mutating it, so a
    /// subsequent [`LevaModel::append_rows`] patches slots instead of
    /// rebuilding. No-ops when `source` has no built cache or when this
    /// model already has one.
    pub fn warm_featurizer_from(&mut self, source: &LevaModel) {
        if let Some(cache) = source.featurizer.get() {
            if self.featurizer.get().is_none() {
                let _ = self.featurizer.set(cache.clone());
            }
        }
    }

    /// Reference implementation of the per-row accumulation: the two-hop
    /// graph walk the [`Featurizer`] caches replace. Kept for equivalence
    /// tests and the stages bench.
    ///
    /// Contributions are weighted by the *stored* edge weights — `conf /
    /// deg(value)`, the same "hub values carry weak inclusion-dependency
    /// evidence" rationale as the graph's edge weighting (§3.2) with
    /// discovery confidences riding along: a bin token shared by hundreds
    /// of rows says little about this row; a key shared by two rows says a
    /// lot; an edge injected at confidence 0.6 says 0.6 of what an organic
    /// edge would. Hop 2 recovers the confidence as `w(v,r)·deg(v)` and
    /// renormalizes by the related row's degree. For a purely organic graph
    /// every stored weight is bitwise `1/deg(value)` and this reduces to
    /// the classic inverse-degree walk. The augmentation half is
    /// *sum*-pooled (weighted), not mean-pooled: aggregate targets (a total
    /// over N joined rows, a count of related events) need the multiplicity
    /// of the join to survive featurization.
    fn accumulate_walk<I: IntoIterator<Item = (u32, f64)>>(
        &self,
        value_nodes: I,
        skip_row: Option<u32>,
        out_row: &mut [f64],
        feat: Featurization,
    ) {
        let dim = self.store.dim();
        let mut v_acc = vec![0.0; dim];
        let mut v_weight = 0.0f64;
        let mut x_acc = vec![0.0; dim];
        let mut x_weight = 0.0f64;
        for (v, w1) in value_nodes {
            if let Some(emb) = self.store.get_id(self.graph.token(v)) {
                for (a, &e) in v_acc.iter_mut().zip(emb) {
                    *a += w1 * e;
                }
                v_weight += w1;
            }
            if feat == Featurization::RowPlusValue {
                // The augmentation half walks one join hop further: the
                // value nodes of the rows this value connects to — i.e. the
                // attributes the recovered join would have brought in.
                let dv = self.graph.degree(v).max(1) as f64;
                for (r, wvr) in self.graph.neighbors(v) {
                    if Some(r) == skip_row {
                        continue;
                    }
                    // conf(v,r) = wᵥᵣ·deg(v); step weight conf/deg(r).
                    let wr = w1 * (wvr * dv) / self.graph.degree(r).max(1) as f64;
                    for (v2, w2s) in self.graph.neighbors(r) {
                        if v2 == v {
                            continue;
                        }
                        let w2 = wr * w2s;
                        if let Some(emb) = self.store.get_id(self.graph.token(v2)) {
                            for (a, &e) in x_acc.iter_mut().zip(emb) {
                                *a += w2 * e;
                            }
                            x_weight += w2;
                        }
                    }
                }
            }
        }
        if v_weight > 0.0 {
            for (o, a) in out_row[..dim].iter_mut().zip(&v_acc) {
                *o = a / v_weight;
            }
        }
        if feat == Featurization::RowPlusValue && x_weight > 0.0 {
            out_row[dim..].copy_from_slice(&x_acc);
        }
    }

    /// Number of rows in the base table (the row count of
    /// [`RowSource::BaseAll`](crate::RowSource)).
    pub fn base_row_count(&self) -> usize {
        self.tokenized
            .tables
            .get(self.base_table_index)
            .map(|t| t.rows.len())
            .unwrap_or(0)
    }

    /// Featurizes in-graph base-table rows (by row index) into a matrix.
    ///
    /// Rows are sharded over deterministic thread bands
    /// ([`LevaConfig::threads`](crate::LevaConfig)); results are bitwise
    /// identical at any thread count. A row index outside the base table
    /// featurizes to a zero row — this is the lenient variant of the
    /// unified [`LevaModel::featurize`] entry point, sharing its kernel;
    /// use [`LevaModel::try_featurize_base_rows`] (or `featurize` itself)
    /// to surface bad indices as typed errors instead.
    pub fn featurize_base_rows(&self, rows: &[usize], feat: Featurization) -> Matrix {
        self.featurize_base_rows_kernel(rows, feat)
    }

    /// The banded parallel base-row kernel behind both the unified
    /// [`LevaModel::featurize`] entry point and the lenient
    /// [`LevaModel::featurize_base_rows`] wrapper. Out-of-range indices
    /// produce zero rows; strict callers validate beforehand.
    pub(crate) fn featurize_base_rows_kernel(&self, rows: &[usize], feat: Featurization) -> Matrix {
        let fz = self.featurizer();
        let width = self.feature_dim(feat);
        let mut out = Matrix::zeros(rows.len(), width);
        for_each_row_band(out.data_mut(), width, self.config.threads, |range, band| {
            for (offset, i) in range.enumerate() {
                let out_row = &mut band[offset * width..(offset + 1) * width];
                let Ok(node) = self.graph.try_row_node(self.base_table_index, rows[i]) else {
                    continue;
                };
                let Ok(neighbors) = self.graph.try_neighbors(node) else {
                    continue;
                };
                fz.accumulate(&self.graph, neighbors, Some(node), out_row, feat);
            }
        });
        out
    }

    /// Like [`LevaModel::featurize_base_rows`], but any out-of-range row
    /// index is a typed [`LevaError::NodeIndex`] instead of a zero row.
    /// Delegates to the unified [`LevaModel::featurize`] entry point.
    pub fn try_featurize_base_rows(
        &self,
        rows: &[usize],
        feat: Featurization,
    ) -> Result<Matrix, LevaError> {
        self.featurize(&crate::FeaturizeRequest::base_rows(rows.to_vec(), feat))
    }

    /// Featurizes all rows of the base table. Delegates to the unified
    /// [`LevaModel::featurize`] entry point with
    /// [`RowSource::BaseAll`](crate::RowSource), which uses the stored
    /// base-table index — a by-name lookup that disagreed with it would
    /// silently featurize zero rows.
    pub fn featurize_base(&self, feat: Featurization) -> Matrix {
        self.featurize(&crate::FeaturizeRequest::base_all(feat))
            // BaseAll performs no fallible lookups; keep the wrapper
            // infallible (and panic-free) like it always was.
            .unwrap_or_else(|_| Matrix::zeros(0, self.feature_dim(feat)))
    }

    /// Reference (two-hop walk) implementation of
    /// [`LevaModel::featurize_base_rows`], kept for the cached-vs-naive
    /// equivalence tests and the stages bench. Not a serving API.
    #[doc(hidden)]
    pub fn featurize_base_rows_walk(&self, rows: &[usize], feat: Featurization) -> Matrix {
        let mut out = Matrix::zeros(rows.len(), self.feature_dim(feat));
        for (i, &r) in rows.iter().enumerate() {
            let Ok(node) = self.graph.try_row_node(self.base_table_index, r) else {
                continue;
            };
            self.accumulate_walk(self.graph.neighbors(node), Some(node), out.row_mut(i), feat);
        }
        out
    }

    /// Featurizes *out-of-sample* rows of a table with the base table's
    /// schema (minus the target column). Unseen values are quantized by the
    /// training encoders; completely unseen tokens contribute nothing. Rows
    /// are sharded over deterministic thread bands, bitwise identical at
    /// any thread count. Shares its kernel with the unified
    /// [`LevaModel::featurize`] entry point
    /// ([`RowSource::External`](crate::RowSource)); the borrowed-table
    /// signature is kept so callers need not move their table into a
    /// request.
    pub fn featurize_external(&self, table: &Table, feat: Featurization) -> Matrix {
        self.featurize_external_kernel(table, feat)
    }

    /// The whole-table external kernel behind the unified
    /// [`LevaModel::featurize`] entry point and
    /// [`LevaModel::featurize_external`]: encoders resolved once, rows
    /// featurized in one banded chunk.
    pub(crate) fn featurize_external_kernel(&self, table: &Table, feat: Featurization) -> Matrix {
        let encoders = self.external_encoders(table);
        self.featurize_external_chunk(table, &encoders, 0..table.row_count(), feat)
    }

    /// Reference (two-hop walk) implementation of
    /// [`LevaModel::featurize_external`], kept for the cached-vs-naive
    /// equivalence tests. Not a serving API.
    #[doc(hidden)]
    pub fn featurize_external_walk(&self, table: &Table, feat: Featurization) -> Matrix {
        let encoders = self.external_encoders(table);
        let mut out = Matrix::zeros(table.row_count(), self.feature_dim(feat));
        for r in 0..table.row_count() {
            let pairs = self.external_row_value_pairs(table, &encoders, r);
            self.accumulate_walk(pairs.iter().copied(), None, out.row_mut(r), feat);
        }
        out
    }

    /// Streams featurizations of an external table in chunks of
    /// `chunk_rows` rows — the serving shape when the batch does not fit
    /// in memory at once. Concatenating the yielded matrices is bitwise
    /// identical to [`LevaModel::featurize_external`] on the whole table,
    /// at any thread count.
    pub fn featurize_batch<'a>(
        &'a self,
        table: &'a Table,
        chunk_rows: usize,
        feat: Featurization,
    ) -> FeaturizeBatch<'a> {
        FeaturizeBatch {
            model: self,
            encoders: self.external_encoders(table),
            table,
            feat,
            chunk_rows: chunk_rows.max(1),
            next_row: 0,
        }
    }

    /// Per-column training encoders for an external table's schema,
    /// resolved once per batch rather than once per row.
    fn external_encoders(&self, table: &Table) -> Vec<Option<&ColumnEncoder>> {
        table
            .column_names()
            .iter()
            .map(|c| self.tokenized.encoder(&self.base_table, c))
            .collect()
    }

    /// The sorted, deduplicated value nodes of one external row. Each
    /// emitted token costs exactly one interner lookup; the node id is then
    /// a dense array index into the featurizer caches (no re-hashing).
    fn external_row_value_nodes(
        &self,
        table: &Table,
        encoders: &[Option<&ColumnEncoder>],
        row: usize,
    ) -> Vec<u32> {
        let mut value_nodes = Vec::new();
        for (c, enc) in encoders.iter().enumerate() {
            let Some(enc) = enc else { continue };
            let Ok(v) = table.value(row, c) else { continue };
            for token in enc.encode(v) {
                if let Some(node) = self.graph.value_node(&token) {
                    value_nodes.push(node);
                }
            }
        }
        value_nodes.sort_unstable();
        value_nodes.dedup();
        value_nodes
    }

    /// [`LevaModel::external_row_value_nodes`] paired with the hop-1 weight
    /// an organic unit-confidence edge to that value node would carry
    /// (`1/deg(v)` — external rows have no stored edge to read).
    fn external_row_value_pairs(
        &self,
        table: &Table,
        encoders: &[Option<&ColumnEncoder>],
        row: usize,
    ) -> Vec<(u32, f64)> {
        self.external_row_value_nodes(table, encoders, row)
            .into_iter()
            .map(|v| (v, 1.0 / self.graph.degree(v).max(1) as f64))
            .collect()
    }

    /// Featurizes one contiguous row range of an external table (shared by
    /// [`LevaModel::featurize_external`] and [`FeaturizeBatch`]).
    fn featurize_external_chunk(
        &self,
        table: &Table,
        encoders: &[Option<&ColumnEncoder>],
        rows: Range<usize>,
        feat: Featurization,
    ) -> Matrix {
        let fz = self.featurizer();
        let width = self.feature_dim(feat);
        let mut out = Matrix::zeros(rows.len(), width);
        let start = rows.start;
        for_each_row_band(out.data_mut(), width, self.config.threads, |range, band| {
            for (offset, i) in range.enumerate() {
                let out_row = &mut band[offset * width..(offset + 1) * width];
                let pairs = self.external_row_value_pairs(table, encoders, start + i);
                fz.accumulate(&self.graph, pairs.iter().copied(), None, out_row, feat);
            }
        });
        out
    }

    /// The embedding vector of an arbitrary node by graph name (rows:
    /// `row::<table>::<idx>`; values: the token). String boundary: the
    /// name is hashed once against the shared symbol table.
    pub fn node_embedding(&self, name: &str) -> Option<&[f64]> {
        self.store.get(name)
    }

    /// Like [`LevaModel::node_embedding`], but a missing token surfaces as
    /// a typed [`crate::LevaError::UnknownToken`] instead of `None`.
    pub fn require_node_embedding(&self, name: &str) -> Result<&[f64], crate::LevaError> {
        Ok(self.store.try_get(name)?)
    }

    /// The embedding of row `row` of table index `table_idx` — resolved
    /// through the graph's row node and its interned identity token, so no
    /// `row::<table>::<idx>` string is formatted or hashed.
    pub fn row_embedding(&self, table_idx: usize, row: usize) -> Option<&[f64]> {
        let node = self.graph.try_row_node(table_idx, row).ok()?;
        self.store.get_id(self.graph.token(node))
    }
}

/// Streaming external featurization (see [`LevaModel::featurize_batch`]):
/// an iterator yielding one feature matrix per chunk of rows. Encoders are
/// resolved once at construction; each chunk runs the same banded parallel
/// kernel as [`LevaModel::featurize_external`].
#[derive(Debug)]
pub struct FeaturizeBatch<'a> {
    model: &'a LevaModel,
    table: &'a Table,
    encoders: Vec<Option<&'a ColumnEncoder>>,
    feat: Featurization,
    chunk_rows: usize,
    next_row: usize,
}

impl Iterator for FeaturizeBatch<'_> {
    type Item = Matrix;

    fn next(&mut self) -> Option<Matrix> {
        let total = self.table.row_count();
        if self.next_row >= total {
            return None;
        }
        let end = (self.next_row + self.chunk_rows).min(total);
        let chunk = self.model.featurize_external_chunk(
            self.table,
            &self.encoders,
            self.next_row..end,
            self.feat,
        );
        self.next_row = end;
        Some(chunk)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let remaining = self.table.row_count().saturating_sub(self.next_row);
        let chunks = remaining.div_ceil(self.chunk_rows);
        (chunks, Some(chunks))
    }
}

impl ExactSizeIterator for FeaturizeBatch<'_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LevaConfig;
    use crate::pipeline::Leva;
    use leva_relational::{Database, Value};

    fn fit_fast(database: &Database) -> LevaModel {
        Leva::with_config(LevaConfig::fast())
            .base_table("base")
            .target("target")
            .fit(database)
            .unwrap()
    }

    fn db() -> Database {
        let mut db = Database::new();
        let mut base = Table::new("base", vec!["id", "grp", "amount", "target"]);
        let mut aux = Table::new("aux", vec!["id", "tag"]);
        for i in 0..40 {
            base.push_row(vec![
                format!("e{i}").into(),
                ["a", "b"][i % 2].into(),
                Value::Float(i as f64),
                Value::Int((i % 2) as i64),
            ])
            .unwrap();
            aux.push_row(vec![format!("e{i}").into(), format!("t{}", i % 4).into()])
                .unwrap();
        }
        db.add_table(base).unwrap();
        db.add_table(aux).unwrap();
        db
    }

    #[test]
    fn base_featurization_shapes() {
        let model = fit_fast(&db());
        let row_only = model.featurize_base(Featurization::RowOnly);
        assert_eq!(row_only.rows(), 40);
        assert_eq!(row_only.cols(), 32);
        let rv = model.featurize_base(Featurization::RowPlusValue);
        assert_eq!(rv.cols(), 64);
    }

    #[test]
    fn featurize_base_uses_stored_index_not_name() {
        // Regression: `featurize_base` used to re-derive the base-table
        // index by *name* while `featurize_base_rows` used the stored
        // index; any disagreement silently featurized zero rows.
        let mut model = fit_fast(&db());
        model.base_table = "renamed-elsewhere".to_owned();
        let x = model.featurize_base(Featurization::RowPlusValue);
        assert_eq!(x.rows(), 40);
        assert_eq!(x.cols(), model.feature_dim(Featurization::RowPlusValue));
        // And it matches the row-indexed path exactly.
        let rows: Vec<usize> = (0..40).collect();
        let y = model.featurize_base_rows(&rows, Featurization::RowPlusValue);
        for r in 0..40 {
            assert_eq!(x.row(r), y.row(r));
        }
    }

    #[test]
    fn both_halves_populated() {
        let model = fit_fast(&db());
        let rv = model.featurize_base_rows(&[0], Featurization::RowPlusValue);
        assert!(rv.row(0)[..32].iter().any(|&v| v != 0.0));
        assert!(rv.row(0)[32..].iter().any(|&v| v != 0.0));
    }

    /// The cached engine agrees with the reference two-hop walk on every
    /// row and both featurizations (reassociation noise only).
    #[test]
    fn cached_engine_matches_walk_reference() {
        let model = fit_fast(&db());
        let rows: Vec<usize> = (0..40).collect();
        for feat in [Featurization::RowOnly, Featurization::RowPlusValue] {
            let cached = model.featurize_base_rows(&rows, feat);
            let walk = model.featurize_base_rows_walk(&rows, feat);
            for r in 0..rows.len() {
                for (a, b) in cached.row(r).iter().zip(walk.row(r)) {
                    assert!((a - b).abs() <= 1e-12, "row {r}: {a} vs {b}");
                }
            }
        }
    }

    #[test]
    fn out_of_range_rows_zero_fill_or_error() {
        let model = fit_fast(&db());
        let x = model.featurize_base_rows(&[0, 400], Featurization::RowPlusValue);
        assert!(x.row(0).iter().any(|&v| v != 0.0));
        assert!(x.row(1).iter().all(|&v| v == 0.0));
        let err = model
            .try_featurize_base_rows(&[0, 400], Featurization::RowPlusValue)
            .unwrap_err();
        assert!(matches!(err, LevaError::NodeIndex(_)), "{err}");
        let ok = model
            .try_featurize_base_rows(&[0, 1], Featurization::RowPlusValue)
            .unwrap();
        assert_eq!(ok.rows(), 2);
    }

    #[test]
    fn train_and_external_paths_agree() {
        // Featurizing an in-graph row through the external path must land
        // very close to the training featurization (value half especially).
        let database = db();
        let model = fit_fast(&database);
        let train = model.featurize_base_rows(&[7], Featurization::RowOnly);
        let base = database.table("base").unwrap();
        let mut one = Table::new("t", base.column_names());
        one.push_row(base.row(7).unwrap()).unwrap();
        let one = one.drop_columns(&["target"]).unwrap();
        let ext = model.featurize_external(&one, Featurization::RowOnly);
        let cos = leva_linalg::cosine_similarity(train.row(0), ext.row(0));
        assert!(cos > 0.98, "train/external cosine {cos}");
    }

    #[test]
    fn external_rows_use_training_encoders() {
        let model = fit_fast(&db());
        let mut test = Table::new("test", vec!["id", "grp", "amount"]);
        test.push_row(vec!["unseen_id".into(), "a".into(), Value::Float(1e9)])
            .unwrap();
        let x = model.featurize_external(&test, Featurization::RowOnly);
        assert_eq!(x.rows(), 1);
        assert!(x.row(0).iter().any(|&v| v != 0.0));
    }

    #[test]
    fn fully_unseen_row_is_zero_vector() {
        let model = fit_fast(&db());
        let mut test = Table::new("test", vec!["grp"]);
        test.push_row(vec!["never_seen_value_xyz".into()]).unwrap();
        let x = model.featurize_external(&test, Featurization::RowOnly);
        assert!(x.row(0).iter().all(|&v| v == 0.0));
    }

    /// Chunked streaming yields exactly the rows of the one-shot external
    /// featurization, bit for bit, for every chunk size.
    #[test]
    fn featurize_batch_matches_external_bitwise() {
        let database = db();
        let model = fit_fast(&database);
        let ext = database
            .table("base")
            .unwrap()
            .drop_columns(&["target"])
            .unwrap();
        let whole = model.featurize_external(&ext, Featurization::RowPlusValue);
        for chunk_rows in [1usize, 7, 40, 1000] {
            let mut seen = 0usize;
            let mut chunks = 0usize;
            for chunk in model.featurize_batch(&ext, chunk_rows, Featurization::RowPlusValue) {
                assert_eq!(chunk.cols(), whole.cols());
                for r in 0..chunk.rows() {
                    for (a, b) in chunk.row(r).iter().zip(whole.row(seen + r)) {
                        assert_eq!(a.to_bits(), b.to_bits(), "chunk_rows={chunk_rows}");
                    }
                }
                seen += chunk.rows();
                chunks += 1;
            }
            assert_eq!(seen, whole.rows());
            assert_eq!(chunks, whole.rows().div_ceil(chunk_rows));
        }
        // A zero chunk size is clamped rather than looping forever.
        assert_eq!(
            model
                .featurize_batch(&ext, 0, Featurization::RowOnly)
                .count(),
            ext.row_count()
        );
    }

    #[test]
    fn row_embedding_lookup() {
        let model = fit_fast(&db());
        assert!(model.row_embedding(0, 5).is_some());
        assert!(model.row_embedding(1, 5).is_some());
        assert!(model.row_embedding(7, 0).is_none());
        assert!(model.row_embedding(0, 4000).is_none());
        assert!(model.node_embedding("e3").is_some());
    }

    /// The dense row-node lookup returns the same vectors as the old
    /// string-formatting path (`row::<table>::<idx>` hashed per call).
    #[test]
    fn row_embedding_matches_string_path() {
        let model = fit_fast(&db());
        for table_idx in 0..model.graph.table_names().len() {
            let name = model.graph.table_names()[table_idx].clone();
            for row in 0..40 {
                let via_string = model.store.get(&leva_textify::row_name(&name, row));
                assert_eq!(
                    model.row_embedding(table_idx, row),
                    via_string,
                    "table {table_idx} row {row}"
                );
            }
        }
    }

    #[test]
    fn missing_token_surfaces_typed_error() {
        let model = fit_fast(&db());
        assert!(model.require_node_embedding("e3").is_ok());
        let err = model
            .require_node_embedding("definitely_not_a_token")
            .unwrap_err();
        assert!(matches!(err, crate::LevaError::UnknownToken(_)));
        assert!(err.to_string().contains("definitely_not_a_token"));
    }
}
