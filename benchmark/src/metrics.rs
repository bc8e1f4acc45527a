//! The metric table (the same names and units `BENCHMARK.json` declares)
//! and the per-run outcome every workload returns.

use std::collections::BTreeMap;

/// A metric's name and unit.
pub type MetricDef = (&'static str, &'static str);

/// End-to-end metrics, printed by every untraced run. Each workload
/// defines them for its own use of the system; see the README glossary.
pub const END_TO_END: &[MetricDef] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("work_per_s", "1/s"),
    ("control_work_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
];

/// Per-layer metrics, printed by every traced run. Every time among them
/// is measured in every traced run, by a probe where the workload does not
/// run the layer itself; a count, rate or ratio the workload has no use
/// for (the DGCNN AUC of a serving run, `max_qps` of a training run) reads
/// 0.
pub const PER_LAYER: &[MetricDef] = &[
    ("data.gen_s", "s"),
    ("graph.khop.busy_s", "s"),
    ("graph.khop.calls", "count"),
    ("graph.khop.mean_us", "us"),
    ("graph.drnl.busy_s", "s"),
    ("graph.commit_p50_ms", "ms"),
    ("graph.region_nodes_mean", "nodes"),
    ("sample.tensorize.busy_s", "s"),
    ("sample.nodes_mean", "nodes"),
    ("sample.messages_mean", "messages"),
    ("store.flush_s", "s"),
    ("store.bytes", "bytes"),
    ("store.open_s", "s"),
    ("store.decode_s", "s"),
    ("store.hits", "count"),
    ("store.misses", "count"),
    ("nn.pack_us", "us"),
    ("nn.gnn.fwd_us", "us"),
    ("nn.gcn.fwd_us", "us"),
    ("nn.readout.fwd_us", "us"),
    ("nn.bwd_us", "us"),
    ("nn.batched_over_per_sample", "ratio"),
    ("train.forward.busy_s", "s"),
    ("train.backward.busy_s", "s"),
    ("train.optimizer.busy_s", "s"),
    ("train.epoch.self_s", "s"),
    ("train.checkpoint.save_ms", "ms"),
    ("train.checkpoint.bytes", "bytes"),
    ("train.eval.busy_s", "s"),
    ("train.am_test_auc", "auc"),
    ("train.dgcnn_test_auc", "auc"),
    ("engine.cache_hit_rate", "ratio"),
    ("engine.dedup_hits", "count"),
    ("engine.busy_s", "s"),
    ("engine.stale_serves", "count"),
    ("engine.miss_prep_us", "us"),
    ("engine.miss_fwd_us", "us"),
    ("engine.cache_invalidated", "count"),
    ("engine.cache_migrated", "count"),
    ("engine.kept_frac", "ratio"),
    ("server.queue_wait_p50_ms", "ms"),
    ("server.queue_wait_p99_ms", "ms"),
    ("server.batch_size_mean", "queries"),
    ("server.batches", "count"),
    ("server.shed", "count"),
    ("serve.p50_ms", "ms"),
    ("serve.p99_ms", "ms"),
    ("serve.peak_p99_ms", "ms"),
    ("serve.max_qps", "1/s"),
    ("serve.freshness_p50_ms", "ms"),
    ("serve.freshness_p95_ms", "ms"),
    ("serve.fail_frac", "ratio"),
    ("roll.engine_load_ms", "ms"),
    ("roll.migrate_ms", "ms"),
    ("roll.swap_ms", "ms"),
    ("loadgen.lag_p99_ms", "ms"),
    ("loadgen.sent", "count"),
    ("loadgen.answered", "count"),
    ("trace.overhead_frac", "ratio"),
];

/// What one run of a workload produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Metric values by name (end-to-end and, in traced runs, per-layer).
    pub values: BTreeMap<&'static str, f64>,
    /// Operations the run attempted and how many of them failed.
    pub attempted: u64,
    pub failed: u64,
    /// Failed output checks, one line each; empty means correct.
    pub problems: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "undeclared metric {name}"
        );
        self.values.insert(name, value);
    }

    /// Record a failed output check.
    pub fn check(&mut self, ok: bool, problem: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(problem());
        }
    }

    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    /// The result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`, the latter holding every metric of `defs`.
    pub fn result_json(&self, defs: &[MetricDef]) -> String {
        let metrics: Vec<String> = defs
            .iter()
            .map(|(name, unit)| {
                let value = self.values.get(name).copied().unwrap_or(0.0);
                format!(
                    "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                    json_num(value)
                )
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }
}

/// A finite JSON number with every digit Rust's shortest round-trip
/// formatting keeps; non-finite values are a bug in the workload.
fn json_num(v: f64) -> String {
    assert!(v.is_finite(), "metric value {v} is not finite");
    format!("{v:?}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let mut o = Outcome {
            attempted: 3,
            ..Default::default()
        };
        o.set("setup_s", 0.25);
        let v: serde::Value = serde_json::from_str(&o.result_json(END_TO_END)).expect("json");
        let keys: Vec<&str> = v
            .as_object()
            .expect("object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let metrics = v
            .get("metrics")
            .and_then(|m| m.as_object())
            .expect("metrics");
        assert_eq!(metrics.len(), END_TO_END.len());
        assert_eq!(
            v.get("metrics").and_then(|m| m.get("setup_s")),
            serde_json::from_str::<serde::Value>("{\"value\":0.25,\"unit\":\"s\"}")
                .ok()
                .as_ref()
        );
    }

    /// `BENCHMARK.json` at the repository root declares this table.
    #[test]
    fn benchmark_json_declares_the_same_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
        let cfg: serde::Value = serde_json::from_str(&text).expect("parse BENCHMARK.json");
        for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let Some(serde::Value::Array(items)) = cfg.get(key) else {
                panic!("{key} is not a list");
            };
            let declared: Vec<(String, String)> = items
                .iter()
                .map(|m| {
                    let field = |f: &str| match m.get(f) {
                        Some(serde::Value::Str(s)) => s.clone(),
                        other => panic!("{key} entry field {f}: {other:?}"),
                    };
                    (field("name"), field("unit"))
                })
                .collect();
            let expected: Vec<(String, String)> = defs
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(declared, expected, "{key} differs from the metric table");
        }
    }
}
