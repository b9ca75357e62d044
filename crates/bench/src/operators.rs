//! Tensor-operator experiments: Figures 5–7 and the sensitivity Tables 7–8.

use serde::Serialize;

use harl_core::ansor::{AnsorConfig, AnsorTuner};
use harl_core::{critical_step_histogram, HarlConfig, HarlOperatorTuner};
use harl_tensor_ir::models::operators::{operator_suite, OperatorClass};
use harl_tensor_ir::Subgraph;
use harl_tensor_sim::{Hardware, MeasureConfig, Measurer, TuneTrace};

use crate::report::{f3, fx, geomean, par_map, pct, Table};
use crate::scale::Scale;

/// One Ansor-vs-HARL run on a single workload.
#[derive(Debug, Serialize)]
pub struct PairResult {
    pub workload: String,
    pub batch: u32,
    /// Best execution times (noise-free), seconds.
    pub ansor_best: f64,
    pub harl_best: f64,
    /// Total simulated search seconds each tuner used.
    pub ansor_seconds: f64,
    pub harl_seconds: f64,
    /// Simulated seconds HARL needed to reach Ansor's final best
    /// (`None` when it never got there).
    pub harl_seconds_to_ansor: Option<f64>,
    pub trials: u64,
}

impl PairResult {
    /// Performance ratio HARL/Ansor (>1 = HARL wins); performance is 1/time.
    pub fn perf_ratio(&self) -> f64 {
        self.ansor_best / self.harl_best
    }

    /// Normalized search time: HARL's time-to-Ansor-final over Ansor's
    /// total search time (the Fig. 6 metric; 1.0 when HARL never reaches).
    pub fn search_time_ratio(&self) -> f64 {
        match self.harl_seconds_to_ansor {
            Some(t) => (t / self.ansor_seconds).min(1.0),
            None => 1.0,
        }
    }
}

/// Runs Ansor and HARL on one workload with identical budgets.
pub fn run_pair(
    graph: &Subgraph,
    hw: &Hardware,
    trials: u64,
    ansor_cfg: AnsorConfig,
    harl_cfg: HarlConfig,
) -> PairResult {
    let batch = 1; // recorded by caller when meaningful
    let ansor_m = Measurer::new(hw.clone(), MeasureConfig::default());
    let mut ansor = AnsorTuner::new(graph.clone(), &ansor_m, ansor_cfg);
    ansor.tune(trials);

    let harl_m = Measurer::new(hw.clone(), MeasureConfig::default());
    let mut harl = HarlOperatorTuner::new(graph.clone(), &harl_m, harl_cfg);
    harl.tune(trials);

    let harl_seconds_to_ansor = harl.trace.first_reaching(ansor.best_time).map(|(_, s)| s);
    PairResult {
        workload: graph.name.clone(),
        batch,
        ansor_best: ansor.best_time,
        harl_best: harl.best_time,
        ansor_seconds: ansor.trace.total_seconds(),
        harl_seconds: harl.trace.total_seconds(),
        harl_seconds_to_ansor,
        trials,
    }
}

/// Figures 5 and 6: per-class normalized performance and search time.
#[derive(Debug, Serialize)]
pub struct OperatorComparison {
    pub classes: Vec<ClassResult>,
}

#[derive(Debug, Serialize)]
pub struct ClassResult {
    pub class: String,
    pub runs: Vec<PairResult>,
    /// Geomean HARL/Ansor performance ratio.
    pub perf_ratio: f64,
    /// Geomean normalized search time (HARL time to reach Ansor's best /
    /// Ansor total; Ansor ≡ 1.0).
    pub search_time: f64,
}

pub fn operator_comparison(scale: &Scale, hw: &Hardware) -> OperatorComparison {
    // collect all independent runs, then fan out over the cores
    struct Job {
        class_idx: usize,
        graph: Subgraph,
        batch: u32,
        shape_idx: usize,
    }
    let mut jobs = Vec::new();
    for (class_idx, class) in OperatorClass::ALL.iter().enumerate() {
        for &batch in &scale.batches {
            for (shape_idx, graph) in operator_suite(*class, batch)
                .into_iter()
                .take(scale.shapes_per_class)
                .enumerate()
            {
                jobs.push(Job {
                    class_idx,
                    graph,
                    batch,
                    shape_idx,
                });
            }
        }
    }

    let results = par_map(&jobs, |job| {
        let mut ac = scale.ansor_config();
        ac.seed ^= (job.shape_idx as u64) << 16 | (job.batch as u64) << 24;
        let mut hc = scale.harl_config();
        hc.seed ^= (job.shape_idx as u64) << 16 | (job.batch as u64) << 24;
        let mut r = run_pair(&job.graph, hw, scale.op_trials, ac, hc);
        r.batch = job.batch;
        (job.class_idx, r)
    });

    let mut classes: Vec<ClassResult> = OperatorClass::ALL
        .iter()
        .map(|c| ClassResult {
            class: c.name().to_string(),
            runs: Vec::new(),
            perf_ratio: f64::NAN,
            search_time: f64::NAN,
        })
        .collect();
    for (class_idx, r) in results {
        classes[class_idx].runs.push(r);
    }
    for cl in &mut classes {
        cl.perf_ratio = geomean(
            &cl.runs
                .iter()
                .map(PairResult::perf_ratio)
                .collect::<Vec<_>>(),
        );
        cl.search_time = geomean(
            &cl.runs
                .iter()
                .map(PairResult::search_time_ratio)
                .collect::<Vec<_>>(),
        );
    }
    OperatorComparison { classes }
}

/// Fig. 5 view: normalized performance per class (Ansor vs HARL).
pub fn render_fig5(c: &OperatorComparison) -> String {
    let mut t = Table::new(
        "Fig 5: normalized performance (1/exec-time, best-of-pair = 1.0)",
        &["operator", "Ansor", "HARL", "HARL/Ansor"],
    );
    for cl in &c.classes {
        let (a, h) = if cl.perf_ratio >= 1.0 {
            (1.0 / cl.perf_ratio, 1.0)
        } else {
            (1.0, cl.perf_ratio)
        };
        t.row(vec![cl.class.clone(), f3(a), f3(h), fx(cl.perf_ratio)]);
    }
    let overall = geomean(&c.classes.iter().map(|c| c.perf_ratio).collect::<Vec<_>>());
    format!(
        "{}\noverall HARL/Ansor performance: {}\n",
        t.render(),
        fx(overall)
    )
}

/// Fig. 6 view: normalized search time per class.
pub fn render_fig6(c: &OperatorComparison) -> String {
    let mut t = Table::new(
        "Fig 6: normalized search time to reach Ansor's final performance",
        &["operator", "Ansor", "HARL", "speedup"],
    );
    for cl in &c.classes {
        let sp = if cl.search_time > 0.0 {
            1.0 / cl.search_time
        } else {
            f64::INFINITY
        };
        t.row(vec![cl.class.clone(), f3(1.0), f3(cl.search_time), fx(sp)]);
    }
    let overall = geomean(&c.classes.iter().map(|c| c.search_time).collect::<Vec<_>>());
    format!(
        "{}\noverall HARL search time: {} of Ansor ({} faster)\n",
        t.render(),
        f3(overall),
        fx(1.0 / overall)
    )
}

/// Fig. 7(a): ablation convergence curves on GEMM-L 1024³.
#[derive(Debug, Serialize)]
pub struct Fig7a {
    /// `(trials, normalized best performance)` checkpoints per variant.
    pub ansor: Vec<(u64, f64)>,
    pub hierarchical_rl: Vec<(u64, f64)>,
    pub harl: Vec<(u64, f64)>,
}

fn normalize_curve(trace: &TuneTrace, best: f64) -> Vec<(u64, f64)> {
    trace
        .points
        .iter()
        .map(|p| (p.trials, best / p.best_time))
        .collect()
}

pub fn fig7a(scale: &Scale, hw: &Hardware) -> (Fig7a, Fig7b) {
    let g = operator_suite(OperatorClass::GemmL, 1).remove(0); // 1024x1024x1024

    let am = Measurer::new(hw.clone(), MeasureConfig::default());
    let mut ansor = AnsorTuner::new(g.clone(), &am, scale.ansor_config());
    ansor.tune(scale.op_trials);

    let fm = Measurer::new(hw.clone(), MeasureConfig::default());
    let fixed_cfg = HarlConfig {
        adaptive_stopping: false,
        ..scale.harl_config()
    };
    let mut fixed = HarlOperatorTuner::new(g.clone(), &fm, fixed_cfg);
    fixed.tune(scale.op_trials);

    let hm = Measurer::new(hw.clone(), MeasureConfig::default());
    let mut harl = HarlOperatorTuner::new(g.clone(), &hm, scale.harl_config());
    harl.tune(scale.op_trials);

    let best = ansor.best_time.min(fixed.best_time).min(harl.best_time);
    let f7a = Fig7a {
        ansor: normalize_curve(&ansor.trace, best),
        hierarchical_rl: normalize_curve(&fixed.trace, best),
        harl: normalize_curve(&harl.trace, best),
    };
    let f7b = Fig7b {
        fixed_histogram: critical_step_histogram(&fixed.proposer().critical_steps, 10),
        adaptive_histogram: critical_step_histogram(&harl.proposer().critical_steps, 10),
        fixed_last10: last_bin_fraction(&fixed.proposer().critical_steps),
        adaptive_last10: last_bin_fraction(&harl.proposer().critical_steps),
    };
    (f7a, f7b)
}

fn last_bin_fraction(steps: &[harl_core::CriticalStep]) -> f64 {
    if steps.is_empty() {
        return 0.0;
    }
    steps.iter().filter(|s| s.relative() >= 0.9).count() as f64 / steps.len() as f64
}

pub fn render_fig7a(r: &Fig7a) -> String {
    let mut t = Table::new(
        "Fig 7(a): GEMM-L convergence (normalized best performance)",
        &["trials", "Ansor", "Hierarchical-RL", "HARL"],
    );
    let at = |c: &[(u64, f64)], trials: u64| -> f64 {
        c.iter()
            .take_while(|(t, _)| *t <= trials)
            .map(|(_, p)| *p)
            .fold(0.0, f64::max)
    };
    let max_trials = r
        .ansor
        .last()
        .map(|p| p.0)
        .unwrap_or(0)
        .max(r.harl.last().map(|p| p.0).unwrap_or(0));
    let steps = 8u64;
    for i in 1..=steps {
        let trials = max_trials * i / steps;
        t.row(vec![
            trials.to_string(),
            f3(at(&r.ansor, trials)),
            f3(at(&r.hierarchical_rl, trials)),
            f3(at(&r.harl, trials)),
        ]);
    }
    t.render()
}

/// Fig. 7(b): critical-step histograms, fixed vs adaptive.
#[derive(Debug, Serialize)]
pub struct Fig7b {
    pub fixed_histogram: Vec<u64>,
    pub adaptive_histogram: Vec<u64>,
    pub fixed_last10: f64,
    pub adaptive_last10: f64,
}

pub fn render_fig7b(r: &Fig7b) -> String {
    let mut t = Table::new(
        "Fig 7(b): critical-step position histogram (10 bins)",
        &["bin", "fixed-length", "adaptive-stopping"],
    );
    for i in 0..10 {
        t.row(vec![
            format!("{:.1}-{:.1}", i as f64 / 10.0, (i + 1) as f64 / 10.0),
            r.fixed_histogram[i].to_string(),
            r.adaptive_histogram[i].to_string(),
        ]);
    }
    format!(
        "{}\ncritical steps in last 10% of track: fixed {} vs adaptive {}\n",
        t.render(),
        pct(r.fixed_last10),
        pct(r.adaptive_last10)
    )
}

/// Tables 7 and 8: sensitivity of λ and ρ on 1024³ GEMM.
#[derive(Debug, Serialize)]
pub struct SensitivityRow {
    pub value: f64,
    pub normalized_performance: f64,
    pub normalized_time_per_iteration: f64,
}

#[derive(Debug, Serialize)]
pub struct Sensitivity {
    pub parameter: String,
    pub rows: Vec<SensitivityRow>,
}

fn sensitivity_run(
    scale: &Scale,
    hw: &Hardware,
    cfgs: Vec<(f64, HarlConfig)>,
    name: &str,
) -> Sensitivity {
    let g = operator_suite(OperatorClass::GemmL, 1).remove(0);
    let mut raw = Vec::new();
    for (value, cfg) in cfgs {
        let m = Measurer::new(hw.clone(), MeasureConfig::default());
        let mut t = HarlOperatorTuner::new(g.clone(), &m, cfg);
        t.tune(scale.op_trials);
        let iters = t.proposer().rounds.len().max(1) as f64;
        raw.push((value, 1.0 / t.best_time, m.sim_seconds() / iters));
    }
    let max_perf = raw.iter().map(|r| r.1).fold(0.0f64, f64::max);
    let max_tpi = raw.iter().map(|r| r.2).fold(0.0f64, f64::max);
    Sensitivity {
        parameter: name.to_string(),
        rows: raw
            .into_iter()
            .map(|(value, perf, tpi)| SensitivityRow {
                value,
                normalized_performance: perf / max_perf,
                normalized_time_per_iteration: tpi / max_tpi,
            })
            .collect(),
    }
}

/// Table 7: λ ∈ {10, 20, 40, 80} (fast scale uses the same ratios on a
/// smaller λ base so episodes stay proportionate to the track count).
pub fn table7(scale: &Scale, hw: &Hardware) -> Sensitivity {
    let base = scale.harl_config();
    let lambdas: Vec<usize> = if scale.paper {
        vec![10, 20, 40, 80]
    } else {
        vec![3, 5, 10, 20]
    };
    let cfgs = lambdas
        .into_iter()
        .map(|l| {
            (
                l as f64,
                HarlConfig {
                    lambda: l,
                    ..base.clone()
                },
            )
        })
        .collect();
    sensitivity_run(scale, hw, cfgs, "lambda")
}

/// Table 8: ρ ∈ {0.75, 0.5, 0.25}.
pub fn table8(scale: &Scale, hw: &Hardware) -> Sensitivity {
    let base = scale.harl_config();
    let cfgs = [0.75, 0.5, 0.25]
        .into_iter()
        .map(|r| {
            (
                r,
                HarlConfig {
                    rho: r,
                    ..base.clone()
                },
            )
        })
        .collect();
    sensitivity_run(scale, hw, cfgs, "rho")
}

pub fn render_sensitivity(s: &Sensitivity, title: &str) -> String {
    let mut t = Table::new(
        title,
        &[
            &s.parameter,
            "Normalized Performance",
            "Normalized Time/Iteration",
        ],
    );
    for r in &s.rows {
        t.row(vec![
            format!("{}", r.value),
            f3(r.normalized_performance),
            f3(r.normalized_time_per_iteration),
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
    fn pair_run_produces_consistent_metrics() {
        let scale = tiny();
        let g = operator_suite(OperatorClass::GemmS, 1).remove(0);
        let r = run_pair(
            &g,
            &Hardware::cpu(),
            scale.op_trials,
            scale.ansor_config(),
            scale.harl_config(),
        );
        assert!(r.ansor_best.is_finite() && r.harl_best.is_finite());
        assert!(r.perf_ratio() > 0.0);
        assert!((0.0..=1.0).contains(&r.search_time_ratio()));
    }

    #[test]
    fn fig7_runs_and_renders() {
        let (a, b) = fig7a(&tiny(), &Hardware::cpu());
        assert!(!a.harl.is_empty());
        assert_eq!(b.fixed_histogram.len(), 10);
        assert!(!render_fig7a(&a).is_empty());
        assert!(!render_fig7b(&b).is_empty());
    }

    #[test]
    fn sensitivity_normalizes_to_one() {
        let s = table8(&tiny(), &Hardware::cpu());
        assert_eq!(s.rows.len(), 3);
        let maxp = s
            .rows
            .iter()
            .map(|r| r.normalized_performance)
            .fold(0.0f64, f64::max);
        assert!((maxp - 1.0).abs() < 1e-9);
        let maxt = s
            .rows
            .iter()
            .map(|r| r.normalized_time_per_iteration)
            .fold(0.0f64, f64::max);
        assert!((maxt - 1.0).abs() < 1e-9);
    }
}
