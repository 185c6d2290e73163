//! Metric names and units, output checks, and the result line.
//!
//! The names and units here are the ones `BENCHMARK.json` declares; a
//! test keeps the two in step.

use std::collections::BTreeMap;

/// End-to-end metrics, printed by the untraced run: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 12] = [
    ("setup_s", "s"),
    ("fit_s", "s"),
    ("holdout_accuracy", "fraction"),
    ("featurize_rows_per_s", "rows/s"),
    ("artifact_mb", "MB"),
    ("cold_start_ms", "ms"),
    ("rss_mb", "MB"),
    ("read_p50_ms", "ms"),
    ("read_p99_ms", "ms"),
    ("saturation_rps", "1/s"),
    ("append_p50_ms", "ms"),
    ("mixed_read_p99_ms", "ms"),
];

/// Per-layer metrics, printed by the traced run: `(name, unit)`.
pub const PER_LAYER: [(&str, &str); 38] = [
    ("relational.csv_read_s", "s"),
    ("textify.s", "s"),
    ("textify.tokens", "count"),
    ("graph.build_s", "s"),
    ("graph.nodes", "count"),
    ("graph.edges", "count"),
    ("embedding.proximity_s", "s"),
    ("embedding.mf_s", "s"),
    ("embedding.proximity_nnz", "count"),
    ("embedding.walks_s", "s"),
    ("embedding.walk_tokens", "count"),
    ("embedding.sgns_s", "s"),
    ("embedding.sgns_tokens_per_s_per_thread", "1/s"),
    ("core.featurize_base_rows_per_s", "rows/s"),
    ("core.featurize_external_rows_per_s", "rows/s"),
    ("core.featurizer_build_s", "s"),
    ("core.featurizer_cache_bytes", "bytes"),
    ("core.artifact_encode_s", "s"),
    ("core.artifact_decode_s", "s"),
    ("core.artifact_bytes", "bytes"),
    ("core.artifact_load_mmap_s", "s"),
    ("core.first_featurize_mmap_s", "s"),
    ("core.append_ms", "ms"),
    ("core.append_retrofit_updated", "count"),
    ("core.append_slots_patched", "count"),
    ("serve.server_p50_us", "us"),
    ("serve.server_p99_us", "us"),
    ("serve.batches", "count"),
    ("serve.requests_per_batch", "count"),
    ("serve.cache_bytes", "bytes"),
    ("serve.socket_gap_p50_ms", "ms"),
    ("serve.wire_encode_us", "us"),
    ("serve.wire_decode_us", "us"),
    ("serve.request_bytes", "bytes"),
    ("serve.response_bytes", "bytes"),
    ("max_rate_rps", "1/s"),
    ("loadgen.lateness_p99_ms", "ms"),
    ("trace.overhead_pct", "%"),
];

/// Metric values by name, restricted to the declared names.
#[derive(Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    /// Records `value` under a declared metric name.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(&PER_LAYER).any(|(n, _)| *n == name),
            "undeclared metric {name}"
        );
        self.0.insert(name, value);
    }

    /// The value recorded under `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// `{"name": {"value": v, "unit": u}, ...}` over `names`; a metric
    /// never recorded is an error.
    pub fn json(&self, names: &[(&str, &str)]) -> Result<String, String> {
        let mut parts = Vec::with_capacity(names.len());
        for (name, unit) in names {
            let v = self
                .get(name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !v.is_finite() {
                return Err(format!("metric {name} is {v}"));
            }
            parts.push(format!(
                "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
            ));
        }
        Ok(format!("{{{}}}", parts.join(", ")))
    }
}

/// Named output checks; the run is correct when every one passed.
#[derive(Default)]
pub struct Checks(Vec<(String, bool)>);

impl Checks {
    /// Records check `name`, printing `detail` when it failed.
    pub fn expect(&mut self, name: &str, ok: bool, detail: impl std::fmt::Display) {
        if !ok {
            eprintln!("check {name} FAILED: {detail}");
        }
        self.0.push((name.to_owned(), ok));
    }

    /// Whether every check passed.
    pub fn all_passed(&self) -> bool {
        self.0.iter().all(|(_, ok)| *ok)
    }

    /// `{"name": {"runs": n, "failed": f}, ...}`.
    pub fn json(&self) -> String {
        let mut by_name: BTreeMap<&str, (usize, usize)> = BTreeMap::new();
        for (name, ok) in &self.0 {
            let e = by_name.entry(name).or_default();
            e.0 += 1;
            e.1 += usize::from(!ok);
        }
        let parts: Vec<String> = by_name
            .iter()
            .map(|(n, (runs, fails))| format!("\"{n}\": {{\"runs\": {runs}, \"failed\": {fails}}}"))
            .collect();
        format!("{{{}}}", parts.join(", "))
    }
}

/// Operations attempted and failed in one phase.
#[derive(Debug, Default, Clone, Copy)]
pub struct Ops {
    /// Operations started.
    pub attempted: usize,
    /// Operations that failed, were refused or never completed.
    pub failed: usize,
}

impl Ops {
    /// Adds another phase's counts.
    pub fn add(&mut self, other: Ops) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// One phase of a run: its operations and, for open-loop read phases,
/// how the generator kept to its schedule.
pub struct Phase {
    /// Phase name, e.g. `reference` or `ladder_400`.
    pub name: String,
    /// Operations attempted and failed.
    pub ops: Ops,
    /// Generator lateness p99 in ms, and outstanding requests at the
    /// middle and at the end of sending.
    pub load: Option<(f64, usize, usize)>,
}

impl Phase {
    /// A phase without an arrival schedule.
    pub fn new(name: impl Into<String>, ops: Ops) -> Phase {
        Phase {
            name: name.into(),
            ops,
            load: None,
        }
    }

    /// The phase as a JSON object.
    pub fn json(&self) -> String {
        let load = self.load.map_or(String::new(), |(late, mid, end)| {
            format!(", \"lateness_p99_ms\": {late}, \"backlog_mid\": {mid}, \"backlog_end\": {end}")
        });
        format!(
            "{{\"phase\": \"{}\", \"attempted\": {}, \"failed\": {}{load}}}",
            self.name, self.ops.attempted, self.ops.failed
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use leva_embedding::json;

    fn declared(doc: &json::Value, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(json::Value::as_array)
            .expect("metric list")
            .iter()
            .map(|m| {
                let s = |k| m.get(k).and_then(json::Value::as_str).unwrap().to_owned();
                (s("name"), s("unit"))
            })
            .collect()
    }

    #[test]
    fn names_and_units_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let doc = json::parse(&text).expect("BENCHMARK.json parses");
        let owned = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(declared(&doc, "end_to_end"), owned(&END_TO_END));
        assert_eq!(declared(&doc, "per_layer"), owned(&PER_LAYER));
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(json::Value::as_array)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(json::Value::as_str).unwrap())
            .collect();
        assert_eq!(workloads, crate::WORKLOADS.map(|w| w.name));
    }

    #[test]
    fn result_json_needs_every_metric() {
        let mut m = Metrics::default();
        m.set("fit_s", 1.5);
        assert!(m
            .json(&[("fit_s", "s")])
            .unwrap()
            .contains("\"value\": 1.5"));
        assert!(m.json(&END_TO_END).is_err());
    }
}
