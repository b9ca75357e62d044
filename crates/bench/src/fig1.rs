//! Figure 1 — the motivating observations on current auto-schedulers.
//!
//! * **Fig. 1(a)**: greedy (Ansor) task allocation on BERT spends >35% of
//!   trials on the last 1% of improvement, concentrated on the most
//!   time-consuming subgraphs.
//! * **Fig. 1(b)**: uniform next-schedule selection produces improvement
//!   ratios clustered around zero.
//! * **Fig. 1(c)**: fixed-length (Flextensor) search paths find their best
//!   schedule early — most critical steps fall in the first 40%.

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;

use harl_core::ansor::{FlextensorConfig, FlextensorTuner};
use harl_core::AnsorNetworkTuner;
use harl_tensor_ir::models::{bert, operators};
use harl_tensor_ir::{generate_sketches, mutate, Schedule, Target};
use harl_tensor_sim::{Hardware, MeasureConfig, Measurer};

use crate::report::{pct, Table};
use crate::scale::Scale;

/// Fig. 1(a) result: per-subgraph trial allocation with the greedy task
/// scheduler, split at the last-1%-improvement point.
#[derive(Debug, Serialize)]
pub struct Fig1a {
    pub rows: Vec<Fig1aRow>,
    pub wasted_fraction: f64,
}

#[derive(Debug, Serialize)]
pub struct Fig1aRow {
    pub subgraph: String,
    pub total_trials: u64,
    pub trials_last_1pct: u64,
}

pub fn fig1a(scale: &Scale) -> Fig1a {
    let measurer = Measurer::new(Hardware::cpu(), MeasureConfig::default());
    let subgraphs = bert(1);
    let names: Vec<String> = subgraphs.iter().map(|g| g.name.clone()).collect();
    let weights: Vec<f64> = subgraphs.iter().map(|g| g.weight).collect();
    let mut nt = AnsorNetworkTuner::new(subgraphs, &measurer, scale.ansor_config());
    nt.tune(scale.net_budget(harl_tensor_ir::models::Network::Bert));

    let final_latency = nt.network_latency();
    // the round after which only the last 1% of improvement remains
    let threshold = final_latency * 1.01;
    let cut = nt
        .rounds
        .iter()
        .position(|r| r.latency <= threshold)
        .unwrap_or(nt.rounds.len().saturating_sub(1));

    let n = names.len();
    let mut total = vec![0u64; n];
    let mut late = vec![0u64; n];
    let mut prev = 0u64;
    for (i, r) in nt.rounds.iter().enumerate() {
        let used = r.trials_after - prev;
        prev = r.trials_after;
        total[r.task] += used;
        if i > cut {
            late[r.task] += used;
        }
    }

    // top-5 most time-consuming subgraphs (by weighted best time)
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| {
        let ca = weights[a] * nt.states[a].best_time;
        let cb = weights[b] * nt.states[b].best_time;
        cb.partial_cmp(&ca).unwrap_or(std::cmp::Ordering::Equal)
    });

    let rows: Vec<Fig1aRow> = order
        .into_iter()
        .take(5)
        .map(|i| Fig1aRow {
            subgraph: names[i].clone(),
            total_trials: total[i],
            trials_last_1pct: late[i],
        })
        .collect();

    let all: u64 = total.iter().sum();
    let all_late: u64 = late.iter().sum();
    Fig1a {
        rows,
        wasted_fraction: if all > 0 {
            all_late as f64 / all as f64
        } else {
            0.0
        },
    }
}

pub fn render_fig1a(r: &Fig1a) -> String {
    let mut t = Table::new(
        "Fig 1(a): greedy trial allocation on top-5 BERT subgraphs",
        &["subgraph", "total trials", "trials for last 1%"],
    );
    for row in &r.rows {
        t.row(vec![
            row.subgraph.clone(),
            row.total_trials.to_string(),
            row.trials_last_1pct.to_string(),
        ]);
    }
    format!(
        "{}\ntrials spent on the last 1% of improvement: {}\n",
        t.render(),
        pct(r.wasted_fraction)
    )
}

/// Fig. 1(b) result: distribution of improvement ratios under uniform
/// next-schedule selection.
#[derive(Debug, Serialize)]
pub struct Fig1b {
    pub mean: f64,
    pub median: f64,
    pub p25: f64,
    pub p75: f64,
    /// Fraction of steps with |improvement| < 2%.
    pub near_zero_fraction: f64,
    /// 20-bin histogram over [-0.5, 0.5].
    pub histogram: Vec<u64>,
}

pub fn fig1b(scale: &Scale) -> Fig1b {
    let hw = Hardware::cpu();
    let g = operators::operator_suite(operators::OperatorClass::GemmM, 1)
        .into_iter()
        .next()
        .expect("gemm-m suite non-empty");
    let sketches = generate_sketches(&g, Target::Cpu);
    let mut rng = StdRng::seed_from_u64(scale.seed ^ 0x1b);

    let mut ratios: Vec<f64> = Vec::new();
    for _ in 0..scale.fig1b_programs {
        let sk = &sketches[0];
        let mut s = Schedule::random(sk, Target::Cpu, &mut rng);
        let mut t = hw.execution_time(&g, sk, &s);
        for _ in 0..scale.fig1b_mutations {
            let next = mutate(sk, Target::Cpu, &s, &mut rng);
            let tn = hw.execution_time(&g, sk, &next);
            // improvement ratio of performance (1/t)
            ratios.push((t - tn) / tn);
            s = next;
            t = tn;
        }
    }

    ratios.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let q = |p: f64| ratios[((ratios.len() - 1) as f64 * p) as usize];
    let mean = ratios.iter().sum::<f64>() / ratios.len() as f64;
    let near_zero = ratios.iter().filter(|r| r.abs() < 0.02).count() as f64 / ratios.len() as f64;
    let mut histogram = vec![0u64; 20];
    for &r in &ratios {
        let b = (((r + 0.5) / 1.0 * 20.0) as isize).clamp(0, 19) as usize;
        histogram[b] += 1;
    }
    Fig1b {
        mean,
        median: q(0.5),
        p25: q(0.25),
        p75: q(0.75),
        near_zero_fraction: near_zero,
        histogram,
    }
}

pub fn render_fig1b(r: &Fig1b) -> String {
    let mut t = Table::new(
        "Fig 1(b): improvement-ratio distribution under uniform selection",
        &["stat", "value"],
    );
    t.row(vec!["mean".into(), format!("{:+.4}", r.mean)]);
    t.row(vec!["median".into(), format!("{:+.4}", r.median)]);
    t.row(vec!["p25".into(), format!("{:+.4}", r.p25)]);
    t.row(vec!["p75".into(), format!("{:+.4}", r.p75)]);
    t.row(vec!["|ratio| < 2%".into(), pct(r.near_zero_fraction)]);
    let mut s = t.render();
    s.push_str("histogram over [-0.5, 0.5):\n");
    let max = r.histogram.iter().copied().max().unwrap_or(1).max(1);
    for (i, &h) in r.histogram.iter().enumerate() {
        let lo = -0.5 + i as f64 / 20.0;
        let bar = "#".repeat((h * 40 / max) as usize);
        s.push_str(&format!("{lo:+.2} | {bar} {h}\n"));
    }
    s
}

/// Fig. 1(c) result: histogram of relative critical-step positions on the
/// fixed-length (Flextensor) tuner.
#[derive(Debug, Serialize)]
pub struct Fig1c {
    /// 10-bin histogram of best-schedule positions / path length.
    pub histogram: Vec<u64>,
    /// Fraction of paths whose best was found in the first 40% of steps.
    pub early_fraction: f64,
}

pub fn fig1c(scale: &Scale) -> Fig1c {
    let mut all_steps = Vec::new();
    let gemms = operators::operator_suite(operators::OperatorClass::GemmM, 1);
    for (i, g) in gemms.into_iter().take(scale.shapes_per_class).enumerate() {
        let measurer = Measurer::new(Hardware::cpu(), MeasureConfig::default());
        let cfg = FlextensorConfig {
            episode_len: 16,
            tracks: 8,
            seed: scale.seed ^ (i as u64) << 8,
            ..Default::default()
        };
        let mut t = FlextensorTuner::new(g, &measurer, cfg);
        t.tune(scale.op_trials);
        all_steps.extend(t.proposer().critical_steps.iter().map(|c| c.relative()));
    }
    let mut histogram = vec![0u64; 10];
    for &r in &all_steps {
        let b = ((r * 10.0) as usize).min(9);
        histogram[b] += 1;
    }
    let early =
        all_steps.iter().filter(|&&r| r <= 0.4).count() as f64 / all_steps.len().max(1) as f64;
    Fig1c {
        histogram,
        early_fraction: early,
    }
}

pub fn render_fig1c(r: &Fig1c) -> String {
    let mut s = String::from("== Fig 1(c): critical-step positions, fixed-length search ==\n");
    let max = r.histogram.iter().copied().max().unwrap_or(1).max(1);
    for (i, &h) in r.histogram.iter().enumerate() {
        let bar = "#".repeat((h * 40 / max) as usize);
        s.push_str(&format!(
            "{:.1}-{:.1} | {bar} {h}\n",
            i as f64 / 10.0,
            (i + 1) as f64 / 10.0
        ));
    }
    s.push_str(&format!(
        "best found within first 40% of path: {}\n",
        pct(r.early_fraction)
    ));
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Scale {
        Scale {
            net_trials: Some(100),
            ..Scale::tiny()
        }
    }

    #[test]
    fn fig1a_produces_five_rows() {
        let r = fig1a(&tiny());
        assert_eq!(r.rows.len(), 5);
        assert!((0.0..=1.0).contains(&r.wasted_fraction));
        assert!(!render_fig1a(&r).is_empty());
    }

    #[test]
    fn fig1b_ratios_cluster_near_zero() {
        let r = fig1b(&tiny());
        assert_eq!(r.histogram.iter().sum::<u64>() as usize, 10 * 5);
        // the paper's point: the median improvement is ~0
        assert!(r.median.abs() < 0.25, "median {}", r.median);
        assert!(!render_fig1b(&r).is_empty());
    }

    #[test]
    fn fig1c_histogram_covers_all_paths() {
        let r = fig1c(&tiny());
        assert!(r.histogram.iter().sum::<u64>() > 0);
        assert!((0.0..=1.0).contains(&r.early_fraction));
        assert!(!render_fig1c(&r).is_empty());
    }
}
