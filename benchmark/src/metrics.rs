//! The metric and workload names this benchmark emits, and the contract
//! they share with `BENCHMARK.json` at the root of the repository.

use serde::ser::JsonWriter;
use serde::{Deserialize, Serialize};

/// `BENCHMARK.json`, compiled in so the emitted names, the bounds the
/// self-check applies and the file the driver reads cannot drift apart.
pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

pub const WORKLOADS: [&str; 4] = ["op_search", "net_search", "baseline_search", "served_jobs"];

/// End-to-end metrics, one value per workload, as `(name, unit)`.
///
/// `sim_ms` and `sim_s` are simulated quantities of the hardware model,
/// deterministic for a given search; everything in `s` is wall clock.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("trials_per_s", "1/s"),
    ("job_turnaround_s", "s"),
    ("best_latency_ms", "sim_ms"),
    ("trials_to_target", "count"),
    ("sim_search_s", "sim_s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics as `(name, unit)`; `<crate>.<metric>`. A layer a
/// workload bypasses reports 0.
pub const PER_LAYER: [(&str, &str); 65] = [
    ("harl.round_ms_p50", "ms"),
    ("harl.round_ms_p90", "ms"),
    ("harl.rounds", "count"),
    ("harl.episode_self_share", "share"),
    ("harl.topk_select_share", "share"),
    ("harl.checkpoint_build_ms", "ms"),
    ("harl.checkpoint_encode_ms", "ms"),
    ("harl.checkpoint_bytes", "bytes"),
    ("harl.checkpoint_share", "share"),
    ("harl.restore_ms", "ms"),
    ("harl.restore_bytes", "bytes"),
    ("harl.allocs_per_trial", "count"),
    ("harl.alloc_bytes_per_trial", "bytes"),
    ("nnet.ppo_act_share", "share"),
    ("nnet.ppo_train_share", "share"),
    ("simd.gemm_share", "share"),
    ("simd.gemm_calls", "count"),
    ("nnet.act_batch_us", "us"),
    ("nnet.train_minibatch_us", "us"),
    ("simd.gemm_gflops", "GFLOP/s"),
    ("par.map_overhead_us", "us"),
    ("gbt.score_share", "share"),
    ("gbt.retrain_share", "share"),
    ("gbt.retrain_count", "count"),
    ("gbt.candidates_per_trial", "count"),
    ("gbt.cache_hit_rate", "share"),
    ("verify.reject_rate", "share"),
    ("verify.lint_ns_per_schedule", "ns"),
    ("tensor-ir.extract_ns_per_row", "ns"),
    ("gbt.predict_ns_per_row", "ns"),
    ("gbt.pipeline_miss_ns", "ns"),
    ("gbt.pipeline_full_miss_ns", "ns"),
    ("gbt.pipeline_hit_ns", "ns"),
    ("gbt.retrain_ms_at_1k", "ms"),
    ("tensor-ir.sketch_gen_us", "us"),
    ("tensor-ir.mutate_ns", "ns"),
    ("gbt.score_est_lint_share", "share"),
    ("gbt.score_est_extract_share", "share"),
    ("gbt.score_est_predict_share", "share"),
    ("gbt.score_est_coverage", "share"),
    ("tensor-sim.measure_share", "share"),
    ("tensor-sim.measure_ns_per_trial", "ns"),
    ("bandit.pick_share", "share"),
    ("bandit.select_update_ns", "ns"),
    ("ansor.evolve_share", "share"),
    ("mcts.playouts_share", "share"),
    ("store.append_us_per_record", "us"),
    ("store.open_ms_per_1k_records", "ms"),
    ("store.checkpoint_write_ms", "ms"),
    ("store.bytes_per_trial", "bytes"),
    ("serve.submit_ack_ms", "ms"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.result_fetch_ms", "ms"),
    ("serve.recovery_start_ms", "ms"),
    ("serve.resume_ms", "ms"),
    ("serve.warm_records", "count"),
    ("serve.job_overhead_share", "share"),
    ("net.status_rtt_ms_p50", "ms"),
    ("net.status_rtt_ms_p99", "ms"),
    ("net.status_samples", "count"),
    ("net.idle_status_rtt_ms_p50", "ms"),
    ("obs.trace_overhead_share", "share"),
    ("obs.trace_records", "count"),
    ("obs.trace_dropped", "count"),
    ("calib.scalar_gemm_ms", "ms"),
];

/// A name the driver accepts: starts with a letter or digit, then at most
/// 63 more of letters, digits, `_`, `.` and `-`.
#[cfg(test)]
pub fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    (1..=64).contains(&name.len())
        && name.chars().all(ok)
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
}

#[derive(Debug, Deserialize)]
pub struct WorkloadDecl {
    pub name: String,
    pub why: String,
}

#[derive(Debug, Deserialize)]
pub struct BoundedDecl {
    pub name: String,
    pub unit: String,
    pub better: String,
    pub bound: f64,
}

#[derive(Debug, Deserialize)]
pub struct LayerDecl {
    pub name: String,
    pub unit: String,
    pub better: String,
}

/// The shape of `BENCHMARK.json`.
#[derive(Debug, Deserialize)]
pub struct BenchmarkDecl {
    pub command: Vec<String>,
    pub paths: Vec<String>,
    pub run_seconds: u64,
    pub workloads: Vec<WorkloadDecl>,
    pub end_to_end: Vec<BoundedDecl>,
    pub per_layer: Vec<LayerDecl>,
}

impl BenchmarkDecl {
    pub fn load() -> BenchmarkDecl {
        serde_json::from_str(BENCHMARK_JSON).expect("BENCHMARK.json matches its declared shape")
    }

    /// Checks the file against the driver's limits and against the names
    /// and units this binary emits, in order.
    pub fn check(&self) -> Result<(), String> {
        let fail = |what: &str| Err(format!("BENCHMARK.json: {what}"));
        if self.paths != ["benchmark"] || self.command.is_empty() || self.command.len() > 32 {
            return fail("command or paths are not this benchmark's");
        }
        if !(1..=60).contains(&self.run_seconds) || BENCHMARK_JSON.len() > 64 * 1024 {
            return fail("run_seconds or file size out of range");
        }
        let names: Vec<&str> = self.workloads.iter().map(|w| w.name.as_str()).collect();
        if names != WORKLOADS {
            return fail("workloads differ from the ones this binary runs");
        }
        if self
            .workloads
            .iter()
            .any(|w| w.why.len() > 200 || w.why.contains('\n'))
        {
            return fail("a workload's why is not one line of at most 200 characters");
        }
        let direction = |b: &str| b == "lower" || b == "higher";
        let declared: Vec<(&str, &str)> = self
            .end_to_end
            .iter()
            .map(|m| (m.name.as_str(), m.unit.as_str()))
            .collect();
        if declared != END_TO_END {
            return fail("end_to_end names, units or order differ from the emitted ones");
        }
        let in_range = |m: &BoundedDecl| m.bound > 0.0 && m.bound <= 0.25 && direction(&m.better);
        if !self.end_to_end.iter().all(in_range) {
            return fail("an end_to_end bound or direction is out of range");
        }
        if !self
            .end_to_end
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == "lower")
        {
            return fail("setup_s must be in seconds, lower is better");
        }
        let declared: Vec<(&str, &str)> = self
            .per_layer
            .iter()
            .map(|m| (m.name.as_str(), m.unit.as_str()))
            .collect();
        if declared != PER_LAYER || self.per_layer.iter().any(|m| !direction(&m.better)) {
            return fail(
                "per_layer names, units, order or directions differ from the emitted ones",
            );
        }
        Ok(())
    }
}

/// The values one run reports, in emission order.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    /// Fills `table` (every name of one metric list) from `value_of`.
    pub fn from_table(
        table: &[(&'static str, &'static str)],
        value_of: impl Fn(&str) -> f64,
    ) -> Metrics {
        Metrics(table.iter().map(|&(n, u)| (n, value_of(n), u)).collect())
    }
}

impl Serialize for Metrics {
    fn serialize(&self, w: &mut JsonWriter) {
        w.begin_object();
        for (name, value, unit) in &self.0 {
            w.key(name);
            w.begin_object();
            w.key("value");
            value.serialize(w);
            w.key("unit");
            w.string(unit);
            w.end_object();
        }
        w.end_object();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_valid_unique_and_within_the_count_limits() {
        assert!(valid_name("tensor-ir.extract_ns_per_row"));
        assert!(!valid_name(""));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("has space"));
        assert!(!valid_name(&"x".repeat(65)));
        assert!(WORKLOADS.len() >= 2 && WORKLOADS.len() <= 8);
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        let all: Vec<&str> = WORKLOADS
            .iter()
            .copied()
            .chain(END_TO_END.iter().map(|m| m.0))
            .chain(PER_LAYER.iter().map(|m| m.0))
            .collect();
        assert!(all.iter().all(|n| valid_name(n)), "invalid name in {all:?}");
        let mut unique = all.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), all.len(), "a name is used twice");
    }

    #[test]
    fn benchmark_json_declares_exactly_what_is_emitted() {
        let mut decl = BenchmarkDecl::load();
        assert_eq!(decl.check(), Ok(()));
        decl.per_layer.swap(0, 1);
        assert!(decl.check().is_err(), "a reordered metric must be noticed");
    }

    #[test]
    fn metrics_serialise_as_an_object_keyed_by_name() {
        let m = Metrics(vec![("a.b", 1.5, "ms"), ("c", 2.0, "count")]);
        assert_eq!(
            serde_json::to_string(&m).unwrap(),
            r#"{"a.b":{"value":1.5,"unit":"ms"},"c":{"value":2,"unit":"count"}}"#
        );
    }
}
