//! End-to-end network experiments: Figures 8–10 and Table 4.

use serde::Serialize;

use harl_core::{AnsorNetworkTuner, HarlConfig, HarlNetworkTuner};
use harl_tensor_ir::models::Network;
use harl_tensor_sim::{Hardware, MeasureConfig, Measurer};

use crate::report::{f3, fx, Table};
use crate::scale::Scale;

/// Relative overhead added to the estimated (sum of subgraphs) latency to
/// model inter-subgraph communication — the gap between "Estimated HARL"
/// and "Measured HARL" in Table 4.
pub const BOUNDARY_OVERHEAD: f64 = 0.03;

/// One network × hardware × batch comparison.
#[derive(Debug, Serialize)]
pub struct NetPair {
    pub network: String,
    pub gpu: bool,
    pub batch: u32,
    pub ansor_latency: f64,
    pub harl_latency: f64,
    pub ansor_seconds: f64,
    pub harl_seconds: f64,
    pub harl_seconds_to_ansor: Option<f64>,
    pub trials: u64,
}

impl NetPair {
    pub fn perf_ratio(&self) -> f64 {
        self.ansor_latency / self.harl_latency
    }

    pub fn search_time_ratio(&self) -> f64 {
        match self.harl_seconds_to_ansor {
            Some(t) => (t / self.ansor_seconds).min(1.0),
            None => 1.0,
        }
    }
}

/// Runs Ansor and HARL network tuning with identical budgets.
pub fn run_net_pair(scale: &Scale, net: Network, hw: &Hardware, batch: u32) -> NetPair {
    let trials = scale.net_budget(net);

    let am = Measurer::new(hw.clone(), MeasureConfig::default());
    let mut ansor = AnsorNetworkTuner::new(net.subgraphs(batch), &am, scale.ansor_config());
    ansor.tune(trials);

    let hm = Measurer::new(hw.clone(), MeasureConfig::default());
    let mut harl = HarlNetworkTuner::new(net.subgraphs(batch), &hm, scale.harl_config());
    harl.tune(trials);

    let harl_seconds_to_ansor = harl
        .trace
        .first_reaching(ansor.network_latency())
        .map(|(_, s)| s);
    NetPair {
        network: net.name().to_string(),
        gpu: matches!(hw, Hardware::Gpu(_)),
        batch,
        ansor_latency: ansor.network_latency(),
        harl_latency: harl.network_latency(),
        ansor_seconds: am.sim_seconds(),
        harl_seconds: hm.sim_seconds(),
        harl_seconds_to_ansor,
        trials,
    }
}

/// Figures 8 and 9 data: all network × hardware × batch pairs.
#[derive(Debug, Serialize)]
pub struct NetworkComparison {
    pub pairs: Vec<NetPair>,
}

pub fn network_comparison(scale: &Scale) -> NetworkComparison {
    // every (network, hardware, batch) run is independent: fan out
    let mut jobs = Vec::new();
    for net in Network::ALL {
        for hw in [Hardware::cpu(), Hardware::gpu()] {
            for &batch in &scale.batches {
                jobs.push((net, hw.clone(), batch));
            }
        }
    }
    let mut pairs: Vec<Option<NetPair>> = Vec::new();
    pairs.resize_with(jobs.len(), || None);
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    let chunk = jobs.len().div_ceil(workers);
    std::thread::scope(|scope| {
        for (job_chunk, out_chunk) in jobs.chunks(chunk).zip(pairs.chunks_mut(chunk)) {
            scope.spawn(move || {
                for ((net, hw, batch), slot) in job_chunk.iter().zip(out_chunk.iter_mut()) {
                    *slot = Some(run_net_pair(scale, *net, hw, *batch));
                }
            });
        }
    });
    NetworkComparison {
        pairs: pairs.into_iter().flatten().collect(),
    }
}

fn pair_label(p: &NetPair) -> String {
    format!(
        "{}-b{}{}",
        p.network,
        p.batch,
        if p.gpu { " (G)" } else { "" }
    )
}

pub fn render_fig8(c: &NetworkComparison) -> String {
    let mut t = Table::new(
        "Fig 8: normalized end-to-end performance (best-of-pair = 1.0)",
        &["network", "Ansor", "HARL", "HARL/Ansor"],
    );
    for p in &c.pairs {
        let r = p.perf_ratio();
        let (a, h) = if r >= 1.0 { (1.0 / r, 1.0) } else { (1.0, r) };
        t.row(vec![pair_label(p), f3(a), f3(h), fx(r)]);
    }
    let cpu: Vec<f64> = c
        .pairs
        .iter()
        .filter(|p| !p.gpu)
        .map(NetPair::perf_ratio)
        .collect();
    let gpu: Vec<f64> = c
        .pairs
        .iter()
        .filter(|p| p.gpu)
        .map(NetPair::perf_ratio)
        .collect();
    format!(
        "{}\nmean HARL/Ansor performance: CPU {}, GPU {}\n",
        t.render(),
        fx(crate::report::geomean(&cpu)),
        fx(crate::report::geomean(&gpu))
    )
}

pub fn render_fig9(c: &NetworkComparison) -> String {
    let mut t = Table::new(
        "Fig 9: normalized search time to reach Ansor's final performance",
        &["network", "Ansor", "HARL", "reduction"],
    );
    for p in &c.pairs {
        let s = p.search_time_ratio();
        t.row(vec![
            pair_label(p),
            f3(1.0),
            f3(s),
            format!("-{:.0}%", (1.0 - s) * 100.0),
        ]);
    }
    let cpu: Vec<f64> = c
        .pairs
        .iter()
        .filter(|p| !p.gpu)
        .map(NetPair::search_time_ratio)
        .collect();
    let gpu: Vec<f64> = c
        .pairs
        .iter()
        .filter(|p| p.gpu)
        .map(NetPair::search_time_ratio)
        .collect();
    format!(
        "{}\nmean HARL search time: CPU {} of Ansor, GPU {} of Ansor\n",
        t.render(),
        f3(crate::report::geomean(&cpu)),
        f3(crate::report::geomean(&gpu))
    )
}

/// Table 4 + Fig. 10: BERT-on-CPU deep dive with the subgraph-MAB ablation.
#[derive(Debug, Serialize)]
pub struct BertStudy {
    pub rows: Vec<BertRow>,
    pub estimated_speedup: f64,
    pub measured_speedup: f64,
    pub measured_speedup_no_mab: f64,
    /// Fig. 10 allocations: per subgraph `(T^n up to '=Ansor', total T^n)`.
    pub alloc_mab: Vec<(u64, u64)>,
    pub alloc_no_mab: Vec<(u64, u64)>,
}

#[derive(Debug, Serialize)]
pub struct BertRow {
    pub subgraph: String,
    /// Fraction of HARL's summed execution time.
    pub contribution: f64,
    /// Per-subgraph speedup of HARL over Ansor.
    pub speedup: f64,
}

fn allocations_split(rounds: &[(usize, u64)], n_tasks: usize, cut_trials: u64) -> Vec<(u64, u64)> {
    let mut upto = vec![0u64; n_tasks];
    let mut total = vec![0u64; n_tasks];
    let mut prev = 0u64;
    for &(task, after) in rounds {
        let used = after - prev;
        prev = after;
        total[task] += used;
        if after <= cut_trials {
            upto[task] += used;
        }
    }
    upto.into_iter().zip(total).collect()
}

pub fn bert_study(scale: &Scale) -> BertStudy {
    let net = Network::Bert;
    let batch = 1;
    let trials = scale.net_budget(net);
    let hw = Hardware::cpu();

    let am = Measurer::new(hw.clone(), MeasureConfig::default());
    let mut ansor = AnsorNetworkTuner::new(net.subgraphs(batch), &am, scale.ansor_config());
    ansor.tune(trials);
    let ansor_latency = ansor.network_latency();

    let hm = Measurer::new(hw.clone(), MeasureConfig::default());
    let mut harl = HarlNetworkTuner::new(net.subgraphs(batch), &hm, scale.harl_config());
    harl.tune(trials);

    let nm = Measurer::new(hw.clone(), MeasureConfig::default());
    let no_mab_cfg = HarlConfig {
        subgraph_mab: false,
        ..scale.harl_config()
    };
    let mut no_mab = HarlNetworkTuner::new(net.subgraphs(batch), &nm, no_mab_cfg);
    no_mab.tune(trials);

    // --- Table 4 rows -----------------------------------------------------
    let total: f64 = harl
        .infos
        .iter()
        .zip(&harl.states)
        .map(|(i, s)| i.weight * s.best_time)
        .sum();
    let mut rows: Vec<BertRow> = (0..harl.infos.len())
        .map(|i| BertRow {
            subgraph: harl.infos[i].name.clone(),
            contribution: harl.infos[i].weight * harl.states[i].best_time / total,
            speedup: ansor.states[i].best_time / harl.states[i].best_time,
        })
        .collect();
    rows.sort_by(|a, b| {
        b.contribution
            .partial_cmp(&a.contribution)
            .unwrap_or(std::cmp::Ordering::Equal)
    });

    let estimated_speedup = ansor_latency / harl.network_latency();
    // measured = estimated + identical communication overhead on both sides
    let overhead = ansor_latency * BOUNDARY_OVERHEAD;
    let measured_speedup = (ansor_latency + overhead) / (harl.network_latency() + overhead);
    let measured_speedup_no_mab =
        (ansor_latency + overhead) / (no_mab.network_latency() + overhead);

    // --- Fig. 10 allocation split ------------------------------------------
    let cut = |tuner_rounds: &[(usize, u64, f64)]| -> u64 {
        tuner_rounds
            .iter()
            .find(|(_, _, lat)| *lat <= ansor_latency)
            .map(|(_, after, _)| *after)
            .unwrap_or(u64::MAX)
    };
    let harl_rounds: Vec<(usize, u64, f64)> = harl
        .rounds
        .iter()
        .map(|r| (r.task, r.trials_after, r.latency))
        .collect();
    let no_mab_rounds: Vec<(usize, u64, f64)> = no_mab
        .rounds
        .iter()
        .map(|r| (r.task, r.trials_after, r.latency))
        .collect();
    let n = harl.infos.len();
    let alloc_mab = allocations_split(
        &harl_rounds
            .iter()
            .map(|&(t, a, _)| (t, a))
            .collect::<Vec<_>>(),
        n,
        cut(&harl_rounds),
    );
    let alloc_no_mab = allocations_split(
        &no_mab_rounds
            .iter()
            .map(|&(t, a, _)| (t, a))
            .collect::<Vec<_>>(),
        n,
        cut(&no_mab_rounds),
    );

    BertStudy {
        rows,
        estimated_speedup,
        measured_speedup,
        measured_speedup_no_mab,
        alloc_mab,
        alloc_no_mab,
    }
}

pub fn render_table4(s: &BertStudy) -> String {
    let mut t = Table::new(
        "Table 4: BERT on CPU — contributions and speedups",
        &["subgraph", "exec-time contribution", "speedup"],
    );
    for r in &s.rows {
        t.row(vec![
            r.subgraph.clone(),
            format!("{:.1}%", r.contribution * 100.0),
            fx(r.speedup),
        ]);
    }
    t.row(vec![
        "Estimated HARL (sum)".into(),
        "100%".into(),
        fx(s.estimated_speedup),
    ]);
    t.row(vec![
        "Measured HARL".into(),
        "-".into(),
        fx(s.measured_speedup),
    ]);
    t.row(vec![
        "Measured HARL (w/o subgraph MAB)".into(),
        "-".into(),
        fx(s.measured_speedup_no_mab),
    ]);
    t.render()
}

pub fn render_fig10(s: &BertStudy, names: &[String]) -> String {
    let mut t = Table::new(
        "Fig 10: BERT subgraph trial allocations ('=Ansor' | '>Ansor')",
        &[
            "subgraph",
            "HARL =Ansor",
            "HARL >Ansor",
            "no-MAB =Ansor",
            "no-MAB >Ansor",
        ],
    );
    for (i, name) in names.iter().enumerate() {
        let (mu, mt) = s.alloc_mab[i];
        let (nu, nt) = s.alloc_no_mab[i];
        t.row(vec![
            name.clone(),
            mu.to_string(),
            (mt - mu).to_string(),
            nu.to_string(),
            (nt - nu).to_string(),
        ]);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Scale {
        Scale::tiny()
    }

    #[test]
    fn net_pair_runs() {
        let p = run_net_pair(&tiny(), Network::Bert, &Hardware::cpu(), 1);
        assert!(p.ansor_latency.is_finite() && p.harl_latency.is_finite());
        assert!(p.perf_ratio() > 0.0);
    }

    #[test]
    fn bert_study_shapes() {
        let s = bert_study(&tiny());
        assert_eq!(s.rows.len(), 10);
        let total: f64 = s.rows.iter().map(|r| r.contribution).sum();
        assert!(
            (total - 1.0).abs() < 1e-6,
            "contributions sum to 1, got {total}"
        );
        assert!(s.estimated_speedup > 0.0);
        // communication overhead pulls the measured ratio toward 1
        let d_est = (s.estimated_speedup - 1.0).abs();
        let d_meas = (s.measured_speedup - 1.0).abs();
        assert!(d_meas <= d_est + 1e-9);
        assert_eq!(s.alloc_mab.len(), 10);
        for &(upto, total) in s.alloc_mab.iter().chain(&s.alloc_no_mab) {
            assert!(upto <= total);
        }
    }

    #[test]
    fn allocation_split_is_consistent() {
        let rounds = vec![(0usize, 10u64), (1, 20), (0, 35), (1, 50)];
        let split = allocations_split(&rounds, 2, 20);
        assert_eq!(split, vec![(10, 25), (10, 25)]);
    }
}
