//! Skip-gram with negative sampling (SGNS), from scratch.
//!
//! This is the "language modeling technique" applied to walk corpora
//! (§4.2.2). SGNS implicitly factorizes the same shifted-PMI matrix the MF
//! path factorizes explicitly (Levy & Goldberg 2014), which is why the paper
//! treats the two embedding methods as interchangeable in quality and
//! different mainly in their time/memory profile.
//!
//! Supports optional Hogwild-style multithreading (lock-free shared updates,
//! as in the reference word2vec implementation); single-threaded training is
//! fully deterministic and is what the test-suite exercises.

use crate::corpus::Corpus;
use crate::store::EmbeddingStore;
use leva_graph::AliasTable;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// SGNS hyperparameters.
#[derive(Debug, Clone, Copy)]
pub struct SgnsConfig {
    /// Embedding dimensionality (paper default 100).
    pub dim: usize,
    /// Maximum context window radius (a per-position radius is sampled
    /// uniformly from `1..=window`, as in word2vec).
    pub window: usize,
    /// Negative samples per positive pair.
    pub negative: usize,
    /// Passes over the corpus.
    pub epochs: usize,
    /// Starting learning rate, decayed linearly to `min_lr`.
    pub initial_lr: f64,
    /// Floor learning rate.
    pub min_lr: f64,
    /// RNG seed.
    pub seed: u64,
    /// Worker threads (1 = deterministic).
    pub threads: usize,
}

impl Default for SgnsConfig {
    fn default() -> Self {
        Self {
            dim: 100,
            window: 5,
            negative: 5,
            epochs: 5,
            initial_lr: 0.025,
            min_lr: 1e-4,
            seed: 0x5643,
            threads: 1,
        }
    }
}

/// Trained SGNS factors.
#[derive(Debug, Clone)]
pub struct SgnsModel {
    /// Input ("node") vectors per vocabulary id — the embedding Leva uses.
    pub input: Vec<Vec<f64>>,
    /// Output ("context") vectors per vocabulary id.
    pub output: Vec<Vec<f64>>,
}

impl SgnsModel {
    /// Converts the trained factors into an [`EmbeddingStore`] keyed by the
    /// corpus vocabulary. Uses the mean of the input and output vectors:
    /// first-order (input·output) similarity then survives in the stored
    /// representation, which matters for Leva's value-mean featurization.
    pub fn into_store(self, corpus: &Corpus, dim: usize) -> EmbeddingStore {
        let mut store = EmbeddingStore::with_symbols(Arc::clone(&corpus.symbols), dim);
        for (id, (mut vin, vout)) in self.input.into_iter().zip(self.output).enumerate() {
            for (a, b) in vin.iter_mut().zip(&vout) {
                *a = (*a + *b) * 0.5;
            }
            store.insert_id(corpus.vocab[id], &vin);
        }
        store
    }
}

/// Trains SGNS over a corpus; results are deterministic at `threads: 1`.
pub fn train_sgns(corpus: &Corpus, cfg: &SgnsConfig) -> SgnsModel {
    let vocab = corpus.vocab_size();
    let dim = cfg.dim;
    let mut rng = StdRng::seed_from_u64(cfg.seed);

    // Negative-sampling distribution: unigram^0.75 (word2vec).
    let freqs = corpus.frequencies();
    let weights: Vec<f64> = freqs.iter().map(|&f| (f as f64).powf(0.75)).collect();
    let neg_table = AliasTable::new(&weights);

    // Init: input uniform in [-0.5/dim, 0.5/dim], output zeros.
    let mut input = vec![0.0; vocab * dim];
    for v in &mut input {
        *v = (rng.gen::<f64>() - 0.5) / dim as f64;
    }
    let output = vec![0.0; vocab * dim];

    let total_positions = (corpus.total_tokens() * cfg.epochs).max(1);
    let shared = SharedParams { input, output, dim };

    if cfg.threads <= 1 {
        let mut worker = Worker {
            params: &shared,
            cfg,
            neg_table: neg_table.as_ref(),
            rng: StdRng::seed_from_u64(cfg.seed.wrapping_add(1)),
            processed_base: 0,
            total_positions,
        };
        for epoch in 0..cfg.epochs {
            worker.processed_base = epoch * corpus.total_tokens();
            worker.run(&corpus.sequences);
        }
    } else {
        // Hogwild: threads update the shared parameter arrays without locks;
        // occasional lost updates are benign (word2vec does the same).
        let chunks: Vec<&[Vec<u32>]> = chunk_sequences(&corpus.sequences, cfg.threads);
        // `chunk_sequences` splits by *sentence* count, so chunks can carry
        // very different token counts. Each worker's LR schedule must decay
        // over the positions it will actually process, not an equal-share
        // estimate — otherwise workers with long sentences clamp to `min_lr`
        // early while others never finish decaying.
        let chunk_tokens = chunk_token_counts(&chunks);
        let _ = crossbeam::scope(|s| {
            for (t, chunk) in chunks.into_iter().enumerate() {
                let shared_ref = &shared;
                let neg_ref = neg_table.as_ref();
                let own_tokens = chunk_tokens[t];
                s.spawn(move |_| {
                    let mut worker = Worker {
                        params: shared_ref,
                        cfg,
                        neg_table: neg_ref,
                        rng: StdRng::seed_from_u64(cfg.seed.wrapping_add(17 * t as u64 + 1)),
                        processed_base: 0,
                        total_positions: (own_tokens * cfg.epochs).max(1),
                    };
                    for epoch in 0..cfg.epochs {
                        worker.processed_base = epoch * own_tokens;
                        worker.run(chunk);
                    }
                });
            }
        });
        // A crashed worker only loses its share of the gradient updates —
        // Hogwild training already tolerates lost updates, so don't turn a
        // worker failure into a process abort.
    }

    let SharedParams { input, output, dim } = shared;
    let to_rows =
        |flat: Vec<f64>| -> Vec<Vec<f64>> { flat.chunks(dim).map(<[f64]>::to_vec).collect() };
    SgnsModel {
        input: to_rows(input),
        output: to_rows(output),
    }
}

/// Shared parameter arrays. With `threads > 1` these are mutated through
/// raw pointers Hogwild-style; the data races are deliberate and benign for
/// SGD on disjoint-ish rows (see Recht et al., NIPS'11).
struct SharedParams {
    input: Vec<f64>,
    output: Vec<f64>,
    dim: usize,
}

unsafe impl Sync for SharedParams {}

impl SharedParams {
    #[allow(clippy::mut_from_ref)]
    unsafe fn row_mut(vec: &[f64], id: u32, dim: usize) -> &mut [f64] {
        let ptr = vec.as_ptr() as *mut f64;
        std::slice::from_raw_parts_mut(ptr.add(id as usize * dim), dim)
    }
}

struct Worker<'a> {
    params: &'a SharedParams,
    cfg: &'a SgnsConfig,
    neg_table: Option<&'a AliasTable>,
    rng: StdRng,
    processed_base: usize,
    total_positions: usize,
}

impl Worker<'_> {
    fn run(&mut self, sequences: &[Vec<u32>]) {
        let dim = self.params.dim;
        let mut processed = self.processed_base;
        let mut grad_accum = vec![0.0f64; dim];
        for seq in sequences {
            for (pos, &center) in seq.iter().enumerate() {
                let lr = self.current_lr(processed);
                processed += 1;
                let radius = self.rng.gen_range(1..=self.cfg.window.max(1));
                let lo = pos.saturating_sub(radius);
                let hi = (pos + radius + 1).min(seq.len());
                for ctx_pos in lo..hi {
                    if ctx_pos == pos {
                        continue;
                    }
                    let context = seq[ctx_pos];
                    self.train_pair(center, context, lr, &mut grad_accum);
                }
            }
        }
        let _ = dim;
    }

    fn current_lr(&self, processed: usize) -> f64 {
        let frac = processed as f64 / self.total_positions as f64;
        (self.cfg.initial_lr * (1.0 - frac)).max(self.cfg.min_lr)
    }

    /// One positive pair plus `negative` sampled negatives.
    fn train_pair(&mut self, center: u32, context: u32, lr: f64, grad: &mut [f64]) {
        let dim = self.params.dim;
        grad.fill(0.0);
        // SAFETY: Hogwild — concurrent unsynchronized updates are accepted.
        let w_in = unsafe { SharedParams::row_mut(&self.params.input, center, dim) };
        for k in 0..=self.cfg.negative {
            let (target, label) = if k == 0 {
                (context, 1.0)
            } else {
                let neg = match self.neg_table {
                    Some(t) => t.sample(&mut self.rng) as u32,
                    // No negative table: skip the negatives but still fall
                    // through to the flush below — `return` here would
                    // silently discard the positive pair's accumulated
                    // input gradient.
                    None => break,
                };
                if neg == context {
                    continue;
                }
                (neg, 0.0)
            };
            let w_out = unsafe { SharedParams::row_mut(&self.params.output, target, dim) };
            let dot = leva_linalg::dot(w_in, w_out);
            let pred = sigmoid(dot);
            let g = (label - pred) * lr;
            for ((ga, &wi), wo) in grad.iter_mut().zip(w_in.iter()).zip(w_out.iter_mut()) {
                *ga += g * *wo;
                *wo += g * wi;
            }
        }
        for (wi, &ga) in w_in.iter_mut().zip(grad.iter()) {
            *wi += ga;
        }
    }
}

/// Numerically clamped logistic function.
fn sigmoid(x: f64) -> f64 {
    if x > 8.0 {
        1.0
    } else if x < -8.0 {
        0.0
    } else {
        1.0 / (1.0 + (-x).exp())
    }
}

fn chunk_sequences(sequences: &[Vec<u32>], n: usize) -> Vec<&[Vec<u32>]> {
    let n = n.max(1).min(sequences.len().max(1));
    let chunk = sequences.len().div_ceil(n);
    sequences.chunks(chunk.max(1)).collect()
}

/// Actual token count per chunk — the denominator of each Hogwild worker's
/// LR schedule.
fn chunk_token_counts(chunks: &[&[Vec<u32>]]) -> Vec<usize> {
    chunks
        .iter()
        .map(|c| c.iter().map(Vec::len).sum())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use leva_linalg::cosine_similarity;

    /// Corpus where "a" and "b" always co-occur, "x" and "y" always
    /// co-occur, and the two groups never mix.
    fn clustered_corpus() -> Corpus {
        let mut sentences = Vec::new();
        for i in 0..200 {
            if i % 2 == 0 {
                sentences.push(vec!["a", "b", "a", "b", "a"]);
            } else {
                sentences.push(vec!["x", "y", "x", "y", "x"]);
            }
        }
        Corpus::from_sentences(sentences)
    }

    #[test]
    fn cooccurring_tokens_embed_closer() {
        let corpus = clustered_corpus();
        let cfg = SgnsConfig {
            dim: 16,
            epochs: 8,
            window: 2,
            ..Default::default()
        };
        let model = train_sgns(&corpus, &cfg);
        let a = &model.input[0];
        let b = &model.input[1];
        let x = &model.input[2];
        let sim_ab = cosine_similarity(a, b);
        let sim_ax = cosine_similarity(a, x);
        assert!(
            sim_ab > sim_ax + 0.2,
            "within-cluster sim {sim_ab} should beat cross-cluster {sim_ax}"
        );
    }

    #[test]
    fn deterministic_single_thread() {
        let corpus = clustered_corpus();
        let cfg = SgnsConfig {
            dim: 8,
            epochs: 2,
            ..Default::default()
        };
        let m1 = train_sgns(&corpus, &cfg);
        let m2 = train_sgns(&corpus, &cfg);
        assert_eq!(m1.input, m2.input);
    }

    #[test]
    fn multithreaded_training_still_learns() {
        let corpus = clustered_corpus();
        let cfg = SgnsConfig {
            dim: 16,
            epochs: 8,
            window: 2,
            threads: 4,
            ..Default::default()
        };
        let model = train_sgns(&corpus, &cfg);
        let sim_ab = cosine_similarity(&model.input[0], &model.input[1]);
        let sim_ax = cosine_similarity(&model.input[0], &model.input[2]);
        assert!(sim_ab > sim_ax);
    }

    #[test]
    fn into_store_keys_by_vocab() {
        let corpus = clustered_corpus();
        let cfg = SgnsConfig {
            dim: 8,
            epochs: 1,
            ..Default::default()
        };
        let store = train_sgns(&corpus, &cfg).into_store(&corpus, 8);
        assert_eq!(store.len(), 4);
        assert!(store.contains("a"));
        assert!(store.contains("y"));
        assert_eq!(store.get("a").unwrap().len(), 8);
    }

    #[test]
    fn empty_corpus_is_safe() {
        let corpus = Corpus::from_sentences(Vec::<Vec<&str>>::new());
        let model = train_sgns(
            &corpus,
            &SgnsConfig {
                dim: 4,
                ..Default::default()
            },
        );
        assert!(model.input.is_empty());
    }

    #[test]
    fn missing_negative_table_still_applies_positive_update() {
        // Regression: `train_pair` used to `return` when no alias table was
        // available, exiting *before* the input-gradient flush — positive
        // pairs accumulated a gradient and then dropped it on the floor.
        let cfg = SgnsConfig {
            dim: 4,
            negative: 5,
            window: 1,
            ..Default::default()
        };
        let shared = SharedParams {
            input: vec![0.1f64; 2 * 4],
            // Output must be nonzero: the input gradient is g * w_out, so a
            // zero context vector would mask the bug.
            output: vec![0.2f64; 2 * 4],
            dim: 4,
        };
        let before = shared.input.clone();
        let mut worker = Worker {
            params: &shared,
            cfg: &cfg,
            neg_table: None,
            rng: StdRng::seed_from_u64(1),
            processed_base: 0,
            total_positions: 10,
        };
        worker.run(&[vec![0, 1, 0, 1]]);
        assert_ne!(
            shared.input, before,
            "positive-pair input gradient must land even without negatives"
        );
        assert!(shared.input.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn hogwild_lr_schedule_uses_actual_chunk_tokens() {
        // Uneven sentence lengths: chunking by sentence count gives chunk 0
        // (one 100-token sentence) far more tokens than chunk 1 (one
        // 4-token sentence). Each worker's schedule must decay over its own
        // token count so every worker ends exactly at LR fraction 1.0.
        let sequences = vec![vec![0u32; 100], vec![1u32; 4]];
        let chunks = chunk_sequences(&sequences, 2);
        let counts = chunk_token_counts(&chunks);
        assert_eq!(counts, vec![100, 4]);
        let total = sequences.iter().map(Vec::len).sum::<usize>();
        let naive_per_thread = total / 2; // the old, wrong denominator
        assert_ne!(counts[0], naive_per_thread);
        let cfg = SgnsConfig {
            dim: 2,
            epochs: 3,
            initial_lr: 0.025,
            min_lr: 1e-4,
            ..Default::default()
        };
        let shared = SharedParams {
            input: vec![0.0; 2 * 2],
            output: vec![0.0; 2 * 2],
            dim: 2,
        };
        for &tokens in &counts {
            let total_positions = (tokens * cfg.epochs).max(1);
            let worker = Worker {
                params: &shared,
                cfg: &cfg,
                neg_table: None,
                rng: StdRng::seed_from_u64(0),
                processed_base: (cfg.epochs - 1) * tokens,
                total_positions,
            };
            // At its own final position every worker has decayed the full
            // schedule: fraction 1.0 ⇒ the floor LR, no early clamping and
            // no unfinished decay.
            let final_lr = worker.current_lr(worker.processed_base + tokens);
            assert_eq!(final_lr, cfg.min_lr, "tokens={tokens}");
            // Halfway through, the decay is still in progress.
            let mid = worker.current_lr(total_positions / 2);
            assert!(mid > cfg.min_lr && mid < cfg.initial_lr, "tokens={tokens}");
        }
    }

    #[test]
    fn vectors_stay_finite() {
        let corpus = clustered_corpus();
        let cfg = SgnsConfig {
            dim: 8,
            epochs: 10,
            initial_lr: 0.05,
            ..Default::default()
        };
        let model = train_sgns(&corpus, &cfg);
        for v in &model.input {
            assert!(v.iter().all(|x| x.is_finite()));
        }
    }
}
