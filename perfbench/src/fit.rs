//! Fit, holdout quality, offline featurization and the artifact, timed
//! end to end through `Leva::fit_csv` and, when traced, layer by layer
//! through each crate's public functions.

use std::time::{Duration, Instant};

use leva::{
    EmbeddingMethod, Featurization, FeaturizeRequest, Featurizer, Leva, LevaConfig, LevaModel,
};
use leva_embedding::{
    build_mf_embedding, generate_walks, proximity_matrix, train_sgns, EmbeddingStore,
};
use leva_graph::{build_graph_with_relationships, resolve_relationship_edges};
use leva_linalg::{resolve_threads, Matrix};
use leva_ml::{accuracy, LogisticRegression, Model, Standardizer};
use leva_relational::{csv, Database, IngestOptions};
use leva_textify::textify;

use crate::data::Inputs;
use crate::report::{Checks, Metrics, Ops};
use crate::stats::median;
use crate::trace::Tracer;

/// Rounds timed per phase at the least, however short the budget.
const MIN_ROUNDS: usize = 3;
/// Holdout accuracy every fit must reach. Random-walk features at
/// `fit_rw`'s scale sit close to chance (0.51–0.64 over ten seeds), so
/// the floor catches a model that is systematically wrong, not a weak one.
const ACCURACY_FLOOR: f64 = 0.45;

/// Repeated fits of one workload, each followed by a short offline
/// featurization of its model, made in slices spread over the run. On a
/// shared host the machine slows for seconds at a time; timings from
/// the start, middle and end of a run give figures that one slow spell
/// cannot carry.
pub struct Fits<'a> {
    leva: &'a Leva,
    cfg: &'a LevaConfig,
    inputs: &'a Inputs,
    /// Seconds per untraced `fit_csv` call, over every slice.
    pub fit_s: Vec<f64>,
    /// Fits attempted and failed.
    pub ops: Ops,
    /// Rows featurized offline, over every slice.
    pub featurized_rows: f64,
    /// Seconds spent featurizing them.
    pub featurize_s: f64,
    /// First MF artifact, timings cleared, that every refit must repeat.
    first_bytes: Option<Vec<u8>>,
}

impl<'a> Fits<'a> {
    /// No fits yet.
    pub fn new(leva: &'a Leva, cfg: &'a LevaConfig, inputs: &'a Inputs) -> Self {
        Fits {
            leva,
            cfg,
            inputs,
            fit_s: Vec::new(),
            ops: Ops::default(),
            featurized_rows: 0.0,
            featurize_s: 0.0,
            first_bytes: None,
        }
    }

    /// Fits until `budget` is spent on fitting, at least once, featurizing
    /// each model for `featurize` on top, and returns the last model.
    /// Traced, each fit also runs the staged pipeline under spans, so the
    /// overhead compares traced and untraced fits made side by side.
    pub fn slice(
        &mut self,
        budget: Duration,
        featurize: Duration,
        tr: &mut Tracer,
        checks: &mut Checks,
    ) -> Result<LevaModel, String> {
        let sources = self.inputs.sources();
        let start = Instant::now();
        let mut model = None;
        let mut staged = None;
        let mut featurizing = Duration::ZERO;
        while model.is_none() || start.elapsed() - featurizing < budget {
            if tr.enabled() {
                staged = Some(staged_fit(tr, self.cfg, self.inputs)?);
            }
            self.ops.attempted += 1;
            let t = Instant::now();
            let fitted = self.leva.fit_csv(&sources);
            self.fit_s.push(t.elapsed().as_secs_f64());
            let mut fitted = fitted.map_err(|e| format!("fit_csv failed: {e}"))?;
            if matches!(self.cfg.method, EmbeddingMethod::MatrixFactorization) {
                // The artifact records each fit's stage timings; everything
                // else in it must repeat.
                let timings = std::mem::take(&mut fitted.timings);
                let bytes = fitted.to_bytes();
                fitted.timings = timings;
                match &self.first_bytes {
                    None => self.first_bytes = Some(bytes),
                    Some(first) => checks.expect(
                        "mf_refit_bytes_identical",
                        *first == bytes,
                        "a repeated MF fit changed the artifact bytes beyond its timings",
                    ),
                }
            }
            let (rows, secs) = featurize_for(&fitted, self.inputs, featurize, tr)?;
            self.featurized_rows += rows;
            self.featurize_s += secs;
            featurizing += Duration::from_secs_f64(secs);
            model = Some(fitted);
        }
        let model = model.expect("at least one fit ran");
        let finite = model
            .store
            .iter()
            .all(|(_, v)| v.iter().all(|x| x.is_finite()));
        checks.expect("embeddings_finite", finite, "non-finite embedding");
        if let Some(store) = staged {
            let identical = store.len() == model.store.len()
                && model.store.iter().all(|(t, v)| store.get(t) == Some(v));
            checks.expect(
                "staged_fit_matches_fit_csv",
                identical,
                "staged layer calls diverged from Leva::fit_csv",
            );
        }
        Ok(model)
    }

    /// Per-layer fit metrics from the spans of every slice.
    pub fn layer_metrics(&self, tr: &Tracer, metrics: &mut Metrics) {
        layer_fit_metrics(tr, metrics, self.cfg, &self.fit_s);
    }
}

/// The pipeline of `Leva::fit_csv`, one public layer call per span.
fn staged_fit(
    tr: &mut Tracer,
    cfg: &LevaConfig,
    inputs: &Inputs,
) -> Result<EmbeddingStore, String> {
    tr.span("fit", |tr| {
        let mut db = Database::new();
        for (name, text) in inputs.sources() {
            let ingested = tr.span("relational.csv_read", |_| {
                csv::read_csv_str_with(name, text, &IngestOptions::strict())
            });
            db.add_table(ingested.map_err(|e| e.to_string())?.table)
                .map_err(|e| e.to_string())?;
        }
        db.table_mut(&inputs.base_table)
            .and_then(|t| t.remove_column(&inputs.target))
            .map_err(|e| e.to_string())?;
        let threads = resolve_threads(cfg.threads);
        let mut textify_cfg = cfg.textify.clone();
        textify_cfg.threads = threads;
        let tokenized = tr.span("textify", |_| textify(&db, &textify_cfg));
        tr.count("textify.tokens", tokenized.total_tokens() as f64);
        let graph = tr.span("graph.build", |_| {
            let groups = resolve_relationship_edges(&db, &tokenized, &[]);
            build_graph_with_relationships(&tokenized, &cfg.graph, &groups).0
        });
        tr.count("graph.nodes", graph.n_nodes() as f64);
        tr.count("graph.edges", graph.n_edges() as f64);
        Ok(match cfg.method {
            EmbeddingMethod::RandomWalk => {
                let mut walks = cfg.walks;
                walks.threads = threads;
                let corpus = tr.span("embedding.walks", |_| generate_walks(&graph, &walks));
                tr.count("embedding.walk_tokens", corpus.total_tokens() as f64);
                let sgns = tr.span("embedding.sgns", |_| train_sgns(&corpus, &cfg.sgns));
                sgns.into_store(&corpus, cfg.sgns.dim)
            }
            _ => {
                let mut mf = cfg.mf;
                mf.threads = threads;
                let m = tr.span("embedding.proximity", |_| proximity_matrix(&graph, mf.tau));
                tr.count("embedding.proximity_nnz", m.nnz() as f64);
                tr.span("embedding.mf", |_| build_mf_embedding(&graph, &mf))
            }
        })
    })
}

/// Per-layer fit metrics from the spans: medians over the staged fits.
fn layer_fit_metrics(tr: &Tracer, metrics: &mut Metrics, cfg: &LevaConfig, fit_s: &[f64]) {
    let med = |v: Vec<f64>| if v.is_empty() { 0.0 } else { median(&v) };
    metrics.set(
        "relational.csv_read_s",
        med(tr.child_secs("fit", "relational.csv_read")),
    );
    metrics.set("textify.s", med(tr.secs("textify")));
    metrics.set("graph.build_s", med(tr.secs("graph.build")));
    let proximity_s = med(tr.secs("embedding.proximity"));
    let sgns_s = med(tr.secs("embedding.sgns"));
    metrics.set("embedding.proximity_s", proximity_s);
    metrics.set("embedding.mf_s", med(tr.secs("embedding.mf")));
    metrics.set("embedding.walks_s", med(tr.secs("embedding.walks")));
    metrics.set("embedding.sgns_s", sgns_s);
    for name in [
        "textify.tokens",
        "graph.nodes",
        "graph.edges",
        "embedding.proximity_nnz",
        "embedding.walk_tokens",
    ] {
        metrics.set(name, tr.counted(name).unwrap_or(0.0));
    }
    let trained = tr.counted("embedding.walk_tokens").unwrap_or(0.0) * cfg.sgns.epochs as f64;
    metrics.set(
        "embedding.sgns_tokens_per_s_per_thread",
        if sgns_s > 0.0 {
            trained / sgns_s / cfg.sgns.threads as f64
        } else {
            0.0
        },
    );
    // The staged fit computes the proximity matrix once more on its own
    // span; without it, a staged fit does the work of one `fit_csv`.
    let staged = med(tr.secs("fit")) - proximity_s;
    metrics.set("trace.overhead_pct", (staged / median(fit_s) - 1.0) * 100.0);
}

/// Folds of the holdout evaluation; each is an 80/20 split.
const FOLDS: usize = 5;

/// Elastic-net logistic regression on `RowPlusValue` features, scored
/// over [`FOLDS`] 80/20 splits so that every base row is tested once.
/// Fitted rows are featurized from the model, held-out rows as external
/// rows, as a deployment would see them.
pub fn holdout_accuracy(model: &LevaModel, inputs: &Inputs) -> Result<f64, String> {
    let feat = Featurization::RowPlusValue;
    let base = model
        .featurize(&FeaturizeRequest::base_all(feat))
        .map_err(|e| e.to_string())?;
    let external = model
        .featurize(&FeaturizeRequest::external(inputs.held_out.clone(), feat))
        .map_err(|e| e.to_string())?;
    let rows: Vec<&[f64]> = (0..base.rows())
        .map(|r| base.row(r))
        .chain((0..external.rows()).map(|r| external.row(r)))
        .collect();
    let y = &inputs.labels;
    let mut correct = 0.0;
    for fold in 0..FOLDS {
        let (test, train): (Vec<usize>, Vec<usize>) =
            (0..rows.len()).partition(|i| i % FOLDS == fold);
        let pick =
            |idx: &[usize]| Matrix::from_rows(&idx.iter().map(|&i| rows[i]).collect::<Vec<_>>());
        let labels = |idx: &[usize]| idx.iter().map(|&i| y[i]).collect::<Vec<_>>();
        let (x_train, x_test) = (pick(&train), pick(&test));
        let s = Standardizer::fit(&x_train);
        let mut clf = LogisticRegression::new(inputs.n_classes, 1e-2, 0.5);
        clf.fit(&s.transform(&x_train), &labels(&train));
        correct +=
            accuracy(&labels(&test), &clf.predict(&s.transform(&x_test))) * test.len() as f64;
    }
    Ok(correct / rows.len() as f64)
}

/// Checks holdout quality against [`ACCURACY_FLOOR`].
pub fn check_accuracy(acc: f64, checks: &mut Checks) {
    checks.expect(
        "holdout_accuracy_floor",
        acc >= ACCURACY_FLOOR,
        format!("accuracy {acc} below {ACCURACY_FLOOR}"),
    );
}

/// Offline featurization of the train (base) and test (external)
/// matrices with a warm featurizer, repeated until `budget` is spent;
/// rows featurized and seconds taken.
fn featurize_for(
    model: &LevaModel,
    inputs: &Inputs,
    budget: Duration,
    tr: &mut Tracer,
) -> Result<(f64, f64), String> {
    let feat = Featurization::RowPlusValue;
    let base = FeaturizeRequest::base_all(feat);
    let external = FeaturizeRequest::external(inputs.held_out.clone(), feat);
    let rows = (model.base_row_count() + inputs.held_out.row_count()) as f64;
    let run = |r: &FeaturizeRequest| model.featurize(r).map(|m| std::hint::black_box(m).rows());
    model.featurizer();
    let start = Instant::now();
    let mut calls = 0;
    while calls < MIN_ROUNDS || start.elapsed() < budget {
        let a = tr.span("core.featurize_base", |_| run(&base));
        let b = tr.span("core.featurize_external", |_| run(&external));
        a.and(b).map_err(|e| e.to_string())?;
        calls += 1;
    }
    Ok((rows * calls as f64, start.elapsed().as_secs_f64()))
}

/// Per-layer featurize rates from the spans of every round.
pub fn featurize_layer(inputs: &Inputs, tr: &Tracer, metrics: &mut Metrics) {
    let per_s = |name: &str, n: usize| n as f64 / median(&tr.secs(name));
    metrics.set(
        "core.featurize_base_rows_per_s",
        per_s("core.featurize_base", inputs.fitted_rows),
    );
    metrics.set(
        "core.featurize_external_rows_per_s",
        per_s("core.featurize_external", inputs.held_out.row_count()),
    );
}

/// Times the featurizer's build and records its cache size.
pub fn featurizer_layer(model: &LevaModel, tr: &mut Tracer, metrics: &mut Metrics) {
    let threads = resolve_threads(model.config.threads);
    for _ in 0..MIN_ROUNDS {
        tr.span("core.featurizer_build", |_| {
            std::hint::black_box(Featurizer::build(&model.graph, &model.store, threads))
        });
    }
    metrics.set(
        "core.featurizer_build_s",
        median(&tr.secs("core.featurizer_build")),
    );
    metrics.set(
        "core.featurizer_cache_bytes",
        model.featurizer().estimated_bytes() as f64,
    );
}

/// Encodes the artifact, checks that save → load → save is a byte fixed
/// point, and writes it to `path` for the daemon. Traced, also times
/// decode, the mapped load and the first featurize from the mapping.
pub fn artifact_phase(
    model: &LevaModel,
    path: &std::path::Path,
    tr: &mut Tracer,
    metrics: &mut Metrics,
    checks: &mut Checks,
) -> Result<Vec<u8>, String> {
    let rounds = if tr.enabled() { MIN_ROUNDS } else { 1 };
    let mut bytes = Vec::new();
    let mut reloaded = None;
    for _ in 0..rounds {
        bytes = tr.span("core.artifact_encode", |_| model.to_bytes());
        reloaded = Some(tr.span("core.artifact_decode", |_| LevaModel::from_bytes(&bytes)));
    }
    let reloaded = reloaded
        .expect("one round ran")
        .map_err(|e| e.to_string())?;
    checks.expect(
        "artifact_save_load_save_fixed_point",
        reloaded.to_bytes() == bytes,
        "save → load → save changed the bytes",
    );
    std::fs::write(path, &bytes).map_err(|e| format!("writing {}: {e}", path.display()))?;
    if tr.enabled() {
        metrics.set(
            "core.artifact_encode_s",
            median(&tr.secs("core.artifact_encode")),
        );
        metrics.set(
            "core.artifact_decode_s",
            median(&tr.secs("core.artifact_decode")),
        );
        metrics.set("core.artifact_bytes", bytes.len() as f64);
        let mapped = tr
            .span("core.artifact_load_mmap", |_| LevaModel::load_mmap(path))
            .map_err(|e| e.to_string())?;
        let request = FeaturizeRequest::base_rows((0..16).collect(), Featurization::RowPlusValue);
        let first = tr
            .span("core.first_featurize_mmap", |_| mapped.featurize(&request))
            .map_err(|e| e.to_string())?;
        let heap = model.featurize(&request).map_err(|e| e.to_string())?;
        checks.expect(
            "mmap_featurize_matches_heap",
            same_bits(&first, &heap),
            "mapped model differs",
        );
        metrics.set(
            "core.artifact_load_mmap_s",
            median(&tr.secs("core.artifact_load_mmap")),
        );
        metrics.set(
            "core.first_featurize_mmap_s",
            median(&tr.secs("core.first_featurize_mmap")),
        );
    }
    Ok(bytes)
}

/// In-process appends of the serving mix's append bodies on a copy of
/// `model`, each parsed exactly as the daemon parses it.
pub fn append_layer(
    model: &LevaModel,
    table: &str,
    bodies: &[String],
    tr: &mut Tracer,
    metrics: &mut Metrics,
) -> Result<(), String> {
    let mut m = model.clone();
    m.warm_featurizer_from(model);
    let mut updated = Vec::new();
    let mut patched = Vec::new();
    for body in bodies {
        let req = leva_serve::wire::parse_append_request(body).map_err(|e| e.to_string())?;
        let report = tr
            .span("core.append", |_| {
                m.append_rows_with(table, &req.rows, &req.options)
            })
            .map_err(|e| e.to_string())?;
        updated.push(report.retrofit.updated as f64);
        patched.push(report.featurizer_slots_patched as f64);
    }
    metrics.set("core.append_ms", median(&tr.secs("core.append")) * 1e3);
    metrics.set("core.append_retrofit_updated", median(&updated));
    metrics.set("core.append_slots_patched", median(&patched));
    Ok(())
}

/// Bitwise equality of two matrices.
pub fn same_bits(a: &Matrix, b: &Matrix) -> bool {
    a.rows() == b.rows()
        && a.cols() == b.cols()
        && a.data()
            .iter()
            .zip(b.data())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}
