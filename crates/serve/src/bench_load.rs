//! Load benchmark for a running daemon: M concurrent clients mixing
//! `submit` / `status` / `list` traffic against one address, reporting
//! per-verb p50/p99 latency and aggregate throughput.
//!
//! Latencies go into a *local* [`harl_obs::MetricsRegistry`] (the global
//! one belongs to the daemon under test), using the fine-grained bucket
//! ladder so sub-millisecond wire round-trips still resolve a p50. The
//! JSON report is rendered by hand with a stable key order, so two
//! reports diff cleanly. `ci/smoke.sh` runs it as the concurrent-client
//! traffic generator and requires `"errors": 0`.

use std::sync::Arc;
use std::time::Instant;

use crate::client::Client;
use crate::error::ServeError;
use crate::job::{JobSpec, Preset, TunerKind, WorkloadSpec};

/// Load-mix knobs.
#[derive(Debug, Clone)]
pub struct BenchLoadConfig {
    /// Concurrent client threads.
    pub clients: usize,
    /// Requests issued per client.
    pub requests: usize,
    /// Every Nth request is a `submit` of a tiny job (0 disables; `busy`
    /// backpressure replies count as served requests).
    pub submit_every: usize,
    /// Every Nth request is a `list` (0 disables); the rest are
    /// watch-style `status` polls of a seed job.
    pub list_every: usize,
    /// Marks the report as a reduced smoke run (CI) rather than a
    /// full-size one.
    pub smoke: bool,
}

impl Default for BenchLoadConfig {
    fn default() -> BenchLoadConfig {
        BenchLoadConfig {
            clients: 8,
            requests: 200,
            submit_every: 100,
            list_every: 10,
            smoke: false,
        }
    }
}

/// One verb's latency distribution.
#[derive(Debug, Clone)]
pub struct VerbStats {
    /// Wire verb name.
    pub verb: String,
    /// Requests measured.
    pub count: u64,
    /// Median latency, milliseconds.
    pub p50_ms: f64,
    /// Tail latency, milliseconds.
    pub p99_ms: f64,
}

/// The benchmark's result.
#[derive(Debug, Clone)]
pub struct BenchLoadReport {
    /// Concurrent client threads.
    pub clients: usize,
    /// Requests issued per client.
    pub requests_per_client: usize,
    /// Requests answered across all clients.
    pub total_requests: u64,
    /// Requests that errored (excluded from latency stats).
    pub errors: u64,
    /// Wall-clock of the load phase, milliseconds.
    pub duration_ms: f64,
    /// Answered requests per second.
    pub throughput_rps: f64,
    /// Per-verb latency stats, stable order: submit, status, list.
    pub verbs: Vec<VerbStats>,
    /// True for reduced CI smoke runs.
    pub smoke: bool,
}

impl BenchLoadReport {
    /// Renders the report as pretty JSON with a stable key order.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"clients\": {},\n", self.clients));
        out.push_str(&format!(
            "  \"requests_per_client\": {},\n",
            self.requests_per_client
        ));
        out.push_str(&format!("  \"total_requests\": {},\n", self.total_requests));
        out.push_str(&format!("  \"errors\": {},\n", self.errors));
        out.push_str(&format!("  \"duration_ms\": {:.3},\n", self.duration_ms));
        out.push_str(&format!(
            "  \"throughput_rps\": {:.1},\n",
            self.throughput_rps
        ));
        out.push_str("  \"verbs\": {\n");
        for (i, v) in self.verbs.iter().enumerate() {
            let comma = if i + 1 < self.verbs.len() { "," } else { "" };
            out.push_str(&format!(
                "    \"{}\": {{\"count\": {}, \"p50_ms\": {:.4}, \"p99_ms\": {:.4}}}{comma}\n",
                v.verb, v.count, v.p50_ms, v.p99_ms
            ));
        }
        out.push_str("  },\n");
        out.push_str(&format!("  \"smoke\": {}\n", self.smoke));
        out.push('}');
        out
    }
}

fn tiny_spec() -> JobSpec {
    JobSpec {
        workload: WorkloadSpec::Gemm {
            m: 16,
            k: 16,
            n: 16,
        },
        tuner: TunerKind::Harl,
        preset: Preset::Tiny,
        hardware: "cpu".into(),
        trials: 4,
        priority: 0,
        target_ms: None,
        parallelism: None,
        finetune: false,
    }
}

/// Runs the load mix against `addr` and aggregates the report.
///
/// A seed job is submitted first so `status` polls hit a real registry
/// entry; the mixed-in `submit`s may be answered `busy` once the queue
/// bound is reached — backpressure is part of the measured behavior, not
/// an error.
pub fn run(addr: &str, cfg: &BenchLoadConfig) -> Result<BenchLoadReport, ServeError> {
    let reg = Arc::new(harl_obs::MetricsRegistry::new());
    let seed_id = Arc::new(Client::new(addr).submit(&tiny_spec())?);
    let errors = reg.counter("errors");

    let started = Instant::now();
    let handles: Vec<_> = (0..cfg.clients.max(1))
        .map(|_| {
            let addr = addr.to_string();
            let cfg = cfg.clone();
            let reg = reg.clone();
            let seed_id = seed_id.clone();
            std::thread::spawn(move || {
                let client = Client::new(&addr);
                let errors = reg.counter("errors");
                for i in 1..=cfg.requests {
                    let verb = if cfg.submit_every > 0 && i % cfg.submit_every == 0 {
                        "submit"
                    } else if cfg.list_every > 0 && i % cfg.list_every == 0 {
                        "list"
                    } else {
                        "status"
                    };
                    let t = Instant::now();
                    let ok = match verb {
                        "submit" => client.request(&crate::Request::Submit(tiny_spec())).is_ok(),
                        "list" => client.list().is_ok(),
                        _ => client.status(&seed_id).is_ok(),
                    };
                    if ok {
                        reg.histogram(verb, harl_obs::FINE_SECONDS_BOUNDS)
                            .observe(t.elapsed().as_secs_f64());
                    } else {
                        errors.inc();
                    }
                }
            })
        })
        .collect();
    for h in handles {
        let _ = h.join();
    }
    let duration = started.elapsed();

    let mut verbs = Vec::new();
    let mut total = 0u64;
    for verb in ["submit", "status", "list"] {
        let h = reg.histogram(verb, harl_obs::FINE_SECONDS_BOUNDS);
        if h.count() == 0 {
            continue;
        }
        total += h.count();
        verbs.push(VerbStats {
            verb: verb.to_string(),
            count: h.count(),
            p50_ms: h.quantile(0.50) * 1e3,
            p99_ms: h.quantile(0.99) * 1e3,
        });
    }
    let duration_ms = duration.as_secs_f64() * 1e3;
    Ok(BenchLoadReport {
        clients: cfg.clients.max(1),
        requests_per_client: cfg.requests,
        total_requests: total,
        errors: errors.get(),
        duration_ms,
        throughput_rps: total as f64 / duration.as_secs_f64().max(1e-9),
        verbs,
        smoke: cfg.smoke,
    })
}
