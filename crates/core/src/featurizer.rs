//! The precomputed serving featurizer (DESIGN.md §6.11).
//!
//! Deployment featurization (§4.4) is the serving hot path, but the naive
//! implementation re-walks a two-hop graph traversal per featurized row:
//! for every value node `v` of the row it visits every related row `r ∈
//! N(v)` and every value node `v2 ∈ N(r)` — `O(Σ deg(v)·deg(r))` work per
//! row, repeated for every row of every batch.
//!
//! The walk is *edge-weighted*: the graph stores `w(u, v) = conf / deg(v)`
//! on both directions of every row↔value edge, where `conf` is 1 for
//! organic edges and the discovery confidence (< 1) for injected ones
//! (§3.2 + DESIGN.md §6.13). Hop 1 uses the stored weight `w1 = w(R, v)`
//! directly; hop 2 recovers the confidence as `conf = w(v, r) · deg(v)` and
//! steps with `w1 · conf / deg(r)`; hop 3 again uses the stored
//! `w(r, v2)`. For a purely organic graph every stored weight is bitwise
//! `1/deg(value)` and the weighted walk coincides with the classic
//! inverse-degree walk.
//!
//! The [`Featurizer`] precomputes, once per model, dense per-value-node
//! caches indexed by `node_id - n_row_nodes`:
//!
//! * `val_contrib[v] = emb(v)` (zeros when the token has no embedding) and
//!   `val_weight[v] ∈ {0, 1}` (embedding present?). Hop-1 weights vary per
//!   *edge* now, so they are applied at accumulation time rather than
//!   folded into the cache: the value half of a row is
//!   `Σ w1 · val_contrib[v] / Σ w1 · val_weight[v]`.
//! * `two_hop[v]` / `two_hop_weight[v]`: the *full* related-row sum the
//!   value node contributes per unit of hop-1 weight when **no** row is
//!   excluded:
//!
//!   ```text
//!   two_hop[v] = deg(v) · Σ_{(r, wᵥᵣ) ∈ N(v)} (wᵥᵣ/deg(r)) · rowsum[r]
//!              − deg(v) · (Σ wᵥᵣ²/deg(r)) · val_contrib[v]
//!   rowsum[r]  = Σ_{(v', w') ∈ N(r)} w' · emb(v')    (embedded v' only)
//!   ```
//!
//!   The second term is the naive walk's `v2 ≠ v` exclusion, hoisted out of
//!   the loop (the reverse edge stores the same `conf/deg(v)` value, so the
//!   echo of `v` through `r` carries weight `wᵥᵣ²·deg(v)/deg(r)`). `rowsum`
//!   is a transient build-time buffer. Accumulation adds `w1 · two_hop[v]`.
//!
//! Featurizing a row is then `O(#tokens · d)` dense adds. The `skip_row`
//! self-exclusion (a training row must not see itself among its related
//! rows) stays a closed-form subtraction: through each of its value nodes
//! `v` the skipped row `R` echoes `(w1²·deg(v)/deg(R)) · (rowsum[R] −
//! w1·emb(v))`, and `rowsum[R]` is exactly the raw value half `v_acc`
//! already accumulated in the same pass — so the related half subtracts
//! `(M₂/deg(R)) · v_acc` with `M₂ = Σ_v w1²·deg(v)`, after restoring each
//! value node's own `w1³·deg(v)/deg(R) · val_contrib[v]` echo term.
//!
//! The cache build is `O(E·d)` — the cost of featurizing a couple of rows
//! naively — and both the build and the batch APIs shard rows over
//! contiguous bands via [`leva_linalg::for_each_row_band`], so results are
//! bitwise identical at any thread count. Cached and naive paths agree to
//! ~1e-15 per element (float reassociation only), which tests pin at 1e-12.

use crate::config::Featurization;
use leva_embedding::EmbeddingStore;
use leva_graph::LevaGraph;
use leva_linalg::for_each_row_band;
use std::time::{Duration, Instant};

/// Dense per-value-node deployment caches for a fitted model, making
/// per-row featurization `O(#tokens · d)` instead of a two-hop graph walk.
///
/// Built once per model (see `LevaModel::featurizer`) against a specific
/// graph + store pair; the caches mirror that pair and are not invalidated
/// by later mutation of the model's public fields.
#[derive(Debug, Clone)]
pub struct Featurizer {
    dim: usize,
    /// Value nodes occupy graph ids `n_row_nodes..`; cache slot = id − this.
    first_value_node: u32,
    /// `max(deg(v), 1)` per value node, as f64 (echo-term factor).
    degree: Vec<f64>,
    /// `emb(v)` per value node, zeros when the token has no embedding.
    val_contrib: Vec<f64>,
    /// 1 when `emb(v)` is present, else 0 (the value-half presence mass).
    val_weight: Vec<f64>,
    /// Per-unit-hop-1-weight two-hop related-row sum of each value node.
    two_hop: Vec<f64>,
    /// Weight mass of `two_hop` (drives the "any related row?" test).
    two_hop_weight: Vec<f64>,
    build_time: Duration,
}

impl Featurizer {
    /// Precomputes the deployment caches for `graph` + `store` in `O(E·d)`,
    /// sharding the dense passes over `threads` row bands (bitwise
    /// identical at any thread count).
    pub fn build(graph: &LevaGraph, store: &EmbeddingStore, threads: usize) -> Featurizer {
        let start = Instant::now();
        let dim = store.dim();
        let n_rows = graph.n_row_nodes();
        let n_values = graph.n_value_nodes();
        let first_value_node = n_rows as u32;
        // Borrowed dense view: one lookup per graph node below, no store
        // indirection inside the banded loops.
        let view = store.dense_view();

        // Pass 1: per-value-node degrees and raw embeddings.
        let mut degree = vec![0.0; n_values];
        let mut val_weight = vec![0.0; n_values];
        let mut val_contrib = vec![0.0; n_values * dim];
        for_each_row_band(&mut val_contrib, dim.max(1), threads, |slots, band| {
            for (offset, vi) in slots.enumerate() {
                let node = first_value_node + vi as u32;
                if let Some(emb) = view.get(graph.token(node)) {
                    band[offset * dim..(offset + 1) * dim].copy_from_slice(emb);
                }
            }
        });
        for (vi, (d_slot, m_slot)) in degree.iter_mut().zip(&mut val_weight).enumerate() {
            let node = first_value_node + vi as u32;
            *d_slot = graph.degree(node).max(1) as f64;
            if view.get(graph.token(node)).is_some() {
                *m_slot = 1.0;
            }
        }

        // Pass 2 (transient): per-row weighted sums of the value embeddings,
        // using the stored (confidence-bearing) edge weights.
        let value_slot = |v: u32| -> Option<usize> {
            let vi = v.checked_sub(first_value_node)? as usize;
            (vi < n_values).then_some(vi)
        };
        let mut rowsum = vec![0.0; n_rows * dim];
        for_each_row_band(&mut rowsum, dim.max(1), threads, |rows, band| {
            for (offset, r) in rows.enumerate() {
                let out = &mut band[offset * dim..(offset + 1) * dim];
                for (v, w) in graph.neighbors(r as u32) {
                    let Some(vi) = value_slot(v) else { continue };
                    for (o, &c) in out.iter_mut().zip(&val_contrib[vi * dim..(vi + 1) * dim]) {
                        *o += w * c;
                    }
                }
            }
        });
        let mut row_weight = vec![0.0; n_rows];
        for (r, mass) in row_weight.iter_mut().enumerate() {
            for (v, w) in graph.neighbors(r as u32) {
                if let Some(vi) = value_slot(v) {
                    *mass += w * val_weight[vi];
                }
            }
        }

        // Pass 3: fold the row sums into per-value-node two-hop caches,
        // subtracting each value node's own echo (the naive `v2 ≠ v` test).
        // Hop-1 weights are per-edge, so the caches are normalized per unit
        // of hop-1 weight; accumulation rescales by the actual `w1`.
        let mut two_hop = vec![0.0; n_values * dim];
        for_each_row_band(&mut two_hop, dim.max(1), threads, |slots, band| {
            for (offset, vi) in slots.enumerate() {
                let node = first_value_node + vi as u32;
                let dv = degree[vi];
                let out = &mut band[offset * dim..(offset + 1) * dim];
                let mut echo_mass = 0.0; // Σ wᵥᵣ²/deg(r)
                for (r, wvr) in graph.neighbors(node) {
                    if r >= first_value_node {
                        continue; // defensive: a non-bipartite edge
                    }
                    let inv_r = 1.0 / graph.degree(r).max(1) as f64;
                    echo_mass += wvr * wvr * inv_r;
                    let wr = wvr * inv_r;
                    let r = r as usize;
                    for (o, &s) in out.iter_mut().zip(&rowsum[r * dim..(r + 1) * dim]) {
                        *o += wr * s;
                    }
                }
                let own = &val_contrib[vi * dim..(vi + 1) * dim];
                for (o, &c) in out.iter_mut().zip(own) {
                    *o = dv * *o - dv * echo_mass * c;
                }
            }
        });
        let mut two_hop_weight = vec![0.0; n_values];
        for (vi, mass) in two_hop_weight.iter_mut().enumerate() {
            let node = first_value_node + vi as u32;
            let dv = degree[vi];
            let mut acc = 0.0;
            let mut echo_mass = 0.0;
            for (r, wvr) in graph.neighbors(node) {
                if r >= first_value_node {
                    continue;
                }
                let inv_r = 1.0 / graph.degree(r).max(1) as f64;
                echo_mass += wvr * wvr * inv_r;
                acc += wvr * inv_r * row_weight[r as usize];
            }
            *mass = dv * acc - dv * echo_mass * val_weight[vi];
        }

        Featurizer {
            dim,
            first_value_node,
            degree,
            val_contrib,
            val_weight,
            two_hop,
            two_hop_weight,
            build_time: start.elapsed(),
        }
    }

    /// Patches the caches in place after a delta append instead of a full
    /// rebuild: only the `changed_values` slots are recomputed (plus new
    /// slots appended for value nodes the patch created), everything else
    /// is carried over untouched.
    ///
    /// `graph` and `store` are the *post-append* pair; `changed_values` are
    /// post-append value-node ids and must cover every node whose cache
    /// entry could differ: values with changed adjacency or embedding, and
    /// values adjacent to any row whose edges or neighbor embeddings
    /// changed (the two-hop caches read those rows' sums). The recompute
    /// follows the exact accumulation order of [`Featurizer::build`], so a
    /// patched cache matches a freshly built one on every slot (pinned at
    /// ≤1e-12 by the regression tests).
    pub fn patch(&mut self, graph: &LevaGraph, store: &EmbeddingStore, changed_values: &[u32]) {
        let start = Instant::now();
        let dim = self.dim;
        let n_values = graph.n_value_nodes();
        self.first_value_node = graph.n_row_nodes() as u32;
        let first = self.first_value_node;
        self.degree.resize(n_values, 0.0);
        self.val_weight.resize(n_values, 0.0);
        self.val_contrib.resize(n_values * dim, 0.0);
        self.two_hop.resize(n_values * dim, 0.0);
        self.two_hop_weight.resize(n_values, 0.0);

        let mut slots: Vec<usize> = changed_values
            .iter()
            .filter_map(|&v| v.checked_sub(first).map(|i| i as usize))
            .filter(|&i| i < n_values)
            .collect();
        slots.sort_unstable();
        slots.dedup();

        // Pass 1 (changed slots only): degree, embedding, presence.
        let view = store.dense_view();
        for &vi in &slots {
            let node = first + vi as u32;
            let out = &mut self.val_contrib[vi * dim..(vi + 1) * dim];
            out.fill(0.0);
            if let Some(emb) = view.get(graph.token(node)) {
                out.copy_from_slice(emb);
                self.val_weight[vi] = 1.0;
            } else {
                self.val_weight[vi] = 0.0;
            }
            self.degree[vi] = graph.degree(node).max(1) as f64;
        }

        // Pass 3 (changed slots only), with each neighbor row's transient
        // sums recomputed on the fly in the same CSR order pass 2 uses —
        // the add sequence per slot is identical to a full build's.
        let value_slot = |v: u32| -> Option<usize> {
            let vi = v.checked_sub(first)? as usize;
            (vi < n_values).then_some(vi)
        };
        let mut rowsum = vec![0.0f64; dim];
        let mut acc = vec![0.0f64; dim];
        for &vi in &slots {
            let node = first + vi as u32;
            let dv = self.degree[vi];
            acc.fill(0.0);
            let mut echo_mass = 0.0;
            let mut mass_acc = 0.0;
            for (r, wvr) in graph.neighbors(node) {
                if r >= first {
                    continue; // defensive: a non-bipartite edge
                }
                rowsum.fill(0.0);
                let mut row_w = 0.0;
                for (v2, w2) in graph.neighbors(r) {
                    let Some(v2i) = value_slot(v2) else { continue };
                    let contrib = &self.val_contrib[v2i * dim..(v2i + 1) * dim];
                    for (o, &c) in rowsum.iter_mut().zip(contrib) {
                        *o += w2 * c;
                    }
                    row_w += w2 * self.val_weight[v2i];
                }
                let inv_r = 1.0 / graph.degree(r).max(1) as f64;
                echo_mass += wvr * wvr * inv_r;
                let wr = wvr * inv_r;
                for (o, &s) in acc.iter_mut().zip(&rowsum) {
                    *o += wr * s;
                }
                mass_acc += wvr * inv_r * row_w;
            }
            let own = &self.val_contrib[vi * dim..(vi + 1) * dim];
            let out_iter = acc.iter().zip(own);
            let two_hop = &mut self.two_hop[vi * dim..(vi + 1) * dim];
            for (o, (&a, &c)) in two_hop.iter_mut().zip(out_iter) {
                *o = dv * a - dv * echo_mass * c;
            }
            self.two_hop_weight[vi] = dv * mass_acc - dv * echo_mass * self.val_weight[vi];
        }
        self.build_time += start.elapsed();
    }

    /// Embedding dimensionality of the underlying store.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Wall time spent building the caches.
    pub fn build_time(&self) -> Duration {
        self.build_time
    }

    /// Estimated heap bytes of the dense caches.
    pub fn estimated_bytes(&self) -> usize {
        (self.degree.len()
            + self.val_contrib.len()
            + self.val_weight.len()
            + self.two_hop.len()
            + self.two_hop_weight.len())
            * std::mem::size_of::<f64>()
    }

    /// Featurizes one row — given as `(value_node, hop-1 weight)` pairs —
    /// into `out_row` (`dim` wide for [`Featurization::RowOnly`], `2·dim`
    /// for [`Featurization::RowPlusValue`]; must arrive zeroed).
    ///
    /// In-graph rows pass their adjacency pairs verbatim (the stored weight
    /// *is* the hop-1 weight, carrying the edge's discovery confidence);
    /// external rows pass `(v, 1/deg(v))` — the stored-weight value an
    /// organic unit-confidence edge would have.
    ///
    /// `skip_row` excludes a training row's own node from its related-row
    /// half via the cached-subtraction identity (see the module docs);
    /// external rows pass `None` and get the full cached two-hop sums.
    /// Value nodes outside the cache (a foreign graph) contribute nothing.
    pub fn accumulate<I>(
        &self,
        graph: &LevaGraph,
        value_nodes: I,
        skip_row: Option<u32>,
        out_row: &mut [f64],
        feat: Featurization,
    ) where
        I: IntoIterator<Item = (u32, f64)>,
    {
        let dim = self.dim;
        let related = feat == Featurization::RowPlusValue;
        // Inverse degree of the skipped row (its echo normalizer).
        let skip_w = skip_row.map(|r| {
            let deg = graph.try_neighbors(r).map_or(0, |n| n.len());
            1.0 / deg.max(1) as f64
        });
        let mut v_weight = 0.0;
        let mut x_weight = 0.0;
        let mut echo_m2 = 0.0; // M₂ = Σ w1²·deg(v) over the row's value nodes
        for (v, w1) in value_nodes {
            let Some(vi) = v
                .checked_sub(self.first_value_node)
                .map(|i| i as usize)
                .filter(|&i| i < self.degree.len())
            else {
                continue;
            };
            let contrib = &self.val_contrib[vi * dim..(vi + 1) * dim];
            for (o, &c) in out_row[..dim].iter_mut().zip(contrib) {
                *o += w1 * c;
            }
            v_weight += w1 * self.val_weight[vi];
            if related {
                let cached = &self.two_hop[vi * dim..(vi + 1) * dim];
                let out = &mut out_row[dim..];
                match skip_w {
                    // Σ (w1·two_hop[v] + sd·w1³·deg(v)·val_contrib[v]): the
                    // second term restores the part of the row's own echo
                    // that the per-value caches already subtracted as the
                    // `v2 = v` exclusion — without it the echo would be
                    // removed twice once the M₂·v_acc term comes off below.
                    Some(sd) => {
                        let dv = self.degree[vi];
                        echo_m2 += w1 * w1 * dv;
                        let echo = sd * w1 * w1 * w1 * dv;
                        for ((o, &t), &c) in out.iter_mut().zip(cached).zip(contrib) {
                            *o += w1 * t + echo * c;
                        }
                        x_weight += w1 * self.two_hop_weight[vi] + echo * self.val_weight[vi];
                    }
                    None => {
                        for (o, &t) in out.iter_mut().zip(cached) {
                            *o += w1 * t;
                        }
                        x_weight += w1 * self.two_hop_weight[vi];
                    }
                }
            }
        }
        if related {
            if let Some(sd) = skip_w {
                // Subtract the skipped row's full echo: through each of its
                // value nodes v it would contribute
                // (w1²·deg(v)/deg(R))·rowsum(R), and rowsum(R) = Σ w1·emb(v)
                // is exactly v_acc, still raw in the value half.
                let (value_half, related_half) = out_row.split_at_mut(dim);
                for (o, &a) in related_half.iter_mut().zip(value_half.iter()) {
                    *o -= sd * echo_m2 * a;
                }
                x_weight -= sd * echo_m2 * v_weight;
            }
            // Mirror the naive walk: a related-row half with no (or only
            // cancelled) mass stays the zero vector.
            if x_weight <= 0.0 {
                out_row[dim..].fill(0.0);
            }
        }
        if v_weight > 0.0 {
            for o in &mut out_row[..dim] {
                *o /= v_weight;
            }
        } else {
            out_row[..dim].fill(0.0);
        }
    }
}
