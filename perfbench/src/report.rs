//! Metric registry and the result document.
//!
//! Every metric the benchmark can print is declared here once, with its
//! unit. `BENCHMARK.json` lists the same names (a test keeps the two in
//! step), and [`Metrics::result_line`] refuses to print a name that is not
//! declared or to leave a declared one out.

use std::collections::BTreeMap;

use rpt_json::{Json, Map};

/// A declared metric: name and unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    /// Metric name (`[A-Za-z0-9_.-]`).
    pub name: &'static str,
    /// Unit string as printed.
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

/// End-to-end metrics, printed by every dark (`--trace 0`) run. Each has
/// one definition per workload (see README.md).
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s"),
    m("p50_ms", "ms"),
    m("p99_ms", "ms"),
    m("pairs_per_s", "pairs/s"),
    m("tok_s", "tokens/s"),
    m("slo_frac", "fraction"),
    m("ok_frac", "fraction"),
    m("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, printed by every traced (`--trace 1`) run. A layer
/// the workload never enters reads 0.
pub const PER_LAYER: &[MetricDef] = &[
    m("http.parse_us", "us"),
    m("http.write_us", "us"),
    m("api.parse_us", "us"),
    m("api.render_us", "us"),
    m("serve.queue_wait_ms.p50", "ms"),
    m("serve.queue_wait_ms.p99", "ms"),
    m("serve.batch_wait_ms.p50", "ms"),
    m("serve.batch_wait_ms.p99", "ms"),
    m("serve.decode_ms.p50", "ms"),
    m("serve.decode_ms.p99", "ms"),
    m("serve.occupancy", "rows"),
    m("serve.rejected", "count"),
    m("mb.admit_us", "us"),
    m("mb.step_ms.p50", "ms"),
    m("mb.step_ms.p99", "ms"),
    m("mb.rows_per_step", "rows"),
    m("mb.steps_per_req", "count"),
    m("nn.encode_us", "us"),
    m("mb.append_us", "us"),
    m("kernel.matmul_calls_per_step", "count"),
    m("kernel.madds_per_tok", "count"),
    m("kernel.logit_gflops", "GFLOP/s"),
    m("kernel.qdot_gops", "GOP/s"),
    m("corpus.load_ms", "ms"),
    m("corpus.overlap_ratio", "ratio"),
    m("train.mask_us", "us"),
    m("train.fwd_ms", "ms"),
    m("train.bwd_ms", "ms"),
    m("train.opt_ms", "ms"),
    m("train.par_speedup", "ratio"),
    m("train.final_loss", "nats"),
    m("tensor.tape_nodes_per_step", "count"),
    m("ckpt.save_ms", "ms"),
    m("ckpt.save_bytes", "bytes"),
    m("ckpt.load_ms", "ms"),
    m("setup.quantize_ms", "ms"),
    m("setup.start_ms", "ms"),
    m("trace.overhead_pct", "%"),
    m("replay.unaccounted_frac", "fraction"),
];

/// True when `name` uses only the characters metric names may contain.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.as_bytes()[0].is_ascii_alphanumeric()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'.' || b == b'-')
}

/// Metric values collected by one run, keyed by declared name.
#[derive(Debug, Default, Clone)]
pub struct Metrics {
    values: BTreeMap<&'static str, f64>,
}

impl Metrics {
    /// Records `value` under `name`; panics on an undeclared name or a
    /// non-finite value (both are benchmark bugs).
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|d| d.name == name),
            "metric {name:?} is not declared"
        );
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.values.insert(name, value);
    }

    /// Records 0 for every metric of `set` not yet recorded: the layers a
    /// workload never enters.
    pub fn fill_absent(&mut self, set: &[MetricDef]) {
        for def in set {
            self.values.entry(def.name).or_insert(0.0);
        }
    }

    /// The recorded metrics of `set` as a JSON object of `{value, unit}`.
    pub fn to_json(&self, set: &[MetricDef]) -> Json {
        let mut out = Map::new();
        for def in set {
            let Some(&value) = self.values.get(def.name) else {
                continue;
            };
            let mut entry = Map::new();
            entry.insert("value".into(), Json::Float(value));
            entry.insert("unit".into(), Json::from(def.unit));
            out.insert(def.name.to_string(), Json::Object(entry));
        }
        Json::Object(out)
    }

    /// The final line of a run: exactly `correct`, `attempted`, `failed`
    /// and `metrics` (every metric of `set`, none other). Panics when a
    /// metric of `set` was not recorded, so a dark run can never print a
    /// made-up zero for an end-to-end metric.
    pub fn result_line(
        &self,
        set: &[MetricDef],
        correct: bool,
        attempted: u64,
        failed: u64,
    ) -> String {
        for def in set {
            assert!(
                self.values.contains_key(def.name),
                "metric {} was not measured",
                def.name
            );
        }
        let mut doc = Map::new();
        doc.insert("correct".into(), Json::Bool(correct));
        doc.insert("attempted".into(), Json::from(attempted.max(1)));
        doc.insert("failed".into(), Json::from(failed));
        doc.insert("metrics".into(), self.to_json(set));
        Json::Object(doc).to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root, parsed.
    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
        Json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn declared(doc: &Json, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Json::as_array)
            .expect("metric list")
            .iter()
            .map(|e| {
                let s = |k: &str| e.get(k).and_then(Json::as_str).expect(k).to_string();
                (s("name"), s("unit"))
            })
            .collect()
    }

    #[test]
    fn every_printed_metric_is_declared_in_benchmark_json() {
        let doc = benchmark_json();
        for (key, set) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let want: Vec<(String, String)> = set
                .iter()
                .map(|d| (d.name.to_string(), d.unit.to_string()))
                .collect();
            assert_eq!(declared(&doc, key), want, "{key} differs from the registry");
        }
    }

    #[test]
    fn metric_names_use_only_allowed_characters() {
        let mut seen = std::collections::HashSet::new();
        for def in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(def.name), "bad metric name {:?}", def.name);
            assert!(
                seen.insert(def.name),
                "duplicate metric name {:?}",
                def.name
            );
        }
        assert!(!valid_name("p99 ms"));
        assert!(!valid_name("_x"));
    }

    #[test]
    fn result_line_prints_exactly_the_declared_set() {
        let mut m = Metrics::default();
        for (i, def) in END_TO_END.iter().enumerate() {
            m.set(def.name, i as f64 + 0.5);
        }
        let line = m.result_line(END_TO_END, true, 10, 0);
        let doc = Json::parse(&line).unwrap();
        let keys: Vec<&str> = doc.as_object().unwrap().iter().map(|(k, _)| k).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let metrics = doc.get("metrics").unwrap().as_object().unwrap();
        assert_eq!(metrics.len(), END_TO_END.len());
        assert_eq!(
            metrics
                .get("p50_ms")
                .unwrap()
                .get("value")
                .unwrap()
                .as_f64(),
            Some(1.5)
        );
    }

    #[test]
    #[should_panic(expected = "was not measured")]
    fn result_line_refuses_a_missing_end_to_end_metric() {
        Metrics::default().result_line(END_TO_END, true, 1, 0);
    }
}
