//! Evolutionary parameter search — the schedule-exploration engine of the
//! Ansor baseline (Zheng et al., OSDI'20 §5.2).
//!
//! Each round seeds a population from the best measured schedules plus
//! fresh random samples, evolves it for a few generations under the cost
//! model's fitness (selection is fitness-proportional; offspring are
//! mutated and occasionally crossed over), and finally emits measurement
//! candidates by ε-greedy top-K: mostly the model's best, with a small
//! random fraction for exploration.

use std::collections::HashSet;

use rand::Rng;

use harl_gbt::{CostModel, ScoringPipeline};
use harl_tensor_ir::{crossover, mutate, FeaturePlan, Schedule, Sketch, Target};

/// Evolutionary-search hyper-parameters (defaults follow Ansor's published
/// settings scaled to this simulator).
#[derive(Debug, Clone)]
pub struct EvoConfig {
    /// Population size per generation.
    pub population: usize,
    /// Generations evolved per round.
    pub generations: usize,
}

impl Default for EvoConfig {
    fn default() -> Self {
        EvoConfig {
            population: 256,
            generations: 4,
        }
    }
}

/// Fraction of the initial population seeded from best measured schedules.
const ELITE_RATIO: f64 = 0.25;
/// Probability a child is produced by crossover (same-sketch parents);
/// otherwise by mutation.
const CROSSOVER_PROB: f64 = 0.3;
/// Mutations applied to every child.
const MUTATIONS_PER_CHILD: usize = 2;
/// Fraction of measurement candidates picked at random (ε-greedy).
const EPS_GREEDY: f64 = 0.05;

/// One evolutionary round: returns up to `num_candidates` distinct
/// schedules to measure, avoiding anything whose dedup key is in `seen`.
///
/// `elites` are previously measured good schedules (best first); sketches
/// are chosen uniformly for random seeding (Ansor's sketch policy).
/// `plans[i]` is the feature plan of `sketches[i]`.
///
/// Fitness evaluation goes through `pipeline`: each generation (and the
/// final ε-greedy pass) scores the whole population in one batch, with
/// surviving elites and duplicate offspring hitting the feature cache.
/// Scores are bit-identical to per-candidate `extract → score`, so the
/// RNG stream and selection are unchanged from the serial implementation.
#[allow(clippy::too_many_arguments)]
pub fn evolve_candidates<R: Rng + ?Sized>(
    plans: &[FeaturePlan],
    sketches: &[Sketch],
    target: Target,
    cost_model: &CostModel,
    elites: &[Schedule],
    seen: &HashSet<u64>,
    num_candidates: usize,
    cfg: &EvoConfig,
    pipeline: &mut ScoringPipeline,
    rng: &mut R,
) -> Vec<Schedule> {
    assert!(
        !sketches.is_empty(),
        "subgraph must have at least one sketch"
    );
    let extract = |s: &Schedule, buf: &mut Vec<f32>| plans[s.sketch_id].extract_into(s, buf);

    // --- initial population ---------------------------------------------
    let n_elite = ((cfg.population as f64 * ELITE_RATIO) as usize).min(elites.len());
    let mut pop: Vec<Schedule> = elites.iter().take(n_elite).cloned().collect();
    while pop.len() < cfg.population {
        let sk = &sketches[rng.gen_range(0..sketches.len())];
        pop.push(Schedule::random(sk, target, rng));
    }

    // --- generations ------------------------------------------------------
    let mut scores: Vec<f64> = Vec::new();
    for _ in 0..cfg.generations {
        pipeline.score(cost_model, &pop, extract, &mut scores);
        // fitness-proportional selection over positive scores
        let total: f64 = scores.iter().sum();
        let pick_parent = |rng: &mut R| -> usize {
            if total <= 0.0 {
                return rng.gen_range(0..pop.len());
            }
            let mut r = rng.gen::<f64>() * total;
            for (i, &s) in scores.iter().enumerate() {
                r -= s;
                if r <= 0.0 {
                    return i;
                }
            }
            pop.len() - 1
        };

        let mut next: Vec<Schedule> = Vec::with_capacity(cfg.population);
        // keep the single best as elite
        if let Some((bi, _)) = scores
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
        {
            next.push(pop[bi].clone());
        }
        while next.len() < cfg.population {
            let pa = pick_parent(rng);
            let mut child = if rng.gen::<f64>() < CROSSOVER_PROB {
                let pb = pick_parent(rng);
                if pop[pa].sketch_id == pop[pb].sketch_id {
                    crossover(&pop[pa], &pop[pb], rng)
                } else {
                    pop[pa].clone()
                }
            } else {
                pop[pa].clone()
            };
            for _ in 0..MUTATIONS_PER_CHILD {
                child = mutate(&sketches[child.sketch_id], target, &child, rng);
            }
            next.push(child);
        }
        pop = next;
    }

    // --- ε-greedy top-K selection ----------------------------------------
    pipeline.score(cost_model, &pop, extract, &mut scores);
    let mut scored: Vec<(f64, Schedule)> = scores.iter().copied().zip(pop).collect();
    scored.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal));

    let n_random = (num_candidates as f64 * EPS_GREEDY).round() as usize;
    let mut out: Vec<Schedule> = Vec::with_capacity(num_candidates);
    let mut local_seen: HashSet<u64> = HashSet::new();
    for (_, s) in &scored {
        if out.len() + n_random >= num_candidates {
            break;
        }
        let key = s.dedup_key();
        if seen.contains(&key) || !local_seen.insert(key) {
            continue;
        }
        out.push(s.clone());
    }
    // random exploration tail (fresh samples, not just population members)
    let mut guard = 0;
    while out.len() < num_candidates && guard < num_candidates * 50 {
        guard += 1;
        let sk = &sketches[rng.gen_range(0..sketches.len())];
        let s = Schedule::random(sk, target, rng);
        let key = s.dedup_key();
        if seen.contains(&key) || !local_seen.insert(key) {
            continue;
        }
        out.push(s);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use harl_gbt::GbtParams;
    use harl_tensor_ir::{extract_features, generate_sketches, workload, Subgraph};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (Subgraph, Vec<Sketch>, Vec<FeaturePlan>) {
        let g = workload::gemm(256, 256, 256);
        let sk = generate_sketches(&g, Target::Cpu);
        let plans = (sk.iter())
            .map(|s| FeaturePlan::new(&g, s, Target::Cpu))
            .collect();
        (g, sk, plans)
    }

    #[test]
    fn produces_requested_distinct_candidates() {
        let (_, sk, plans) = setup();
        let cm = CostModel::new(GbtParams::default());
        let mut rng = StdRng::seed_from_u64(1);
        let cands = evolve_candidates(
            &plans,
            &sk,
            Target::Cpu,
            &cm,
            &[],
            &HashSet::new(),
            32,
            &EvoConfig::default(),
            &mut ScoringPipeline::default(),
            &mut rng,
        );
        assert_eq!(cands.len(), 32);
        let keys: HashSet<u64> = cands.iter().map(Schedule::dedup_key).collect();
        assert_eq!(keys.len(), 32, "candidates must be distinct");
        for c in &cands {
            c.validate(&sk[c.sketch_id], Target::Cpu).expect("valid");
        }
    }

    #[test]
    fn avoids_already_measured() {
        let (_, sk, plans) = setup();
        let cm = CostModel::new(GbtParams::default());
        let mut rng = StdRng::seed_from_u64(2);
        let first = evolve_candidates(
            &plans,
            &sk,
            Target::Cpu,
            &cm,
            &[],
            &HashSet::new(),
            16,
            &EvoConfig::default(),
            &mut ScoringPipeline::default(),
            &mut rng,
        );
        let seen: HashSet<u64> = first.iter().map(Schedule::dedup_key).collect();
        let second = evolve_candidates(
            &plans,
            &sk,
            Target::Cpu,
            &cm,
            &first,
            &seen,
            16,
            &EvoConfig::default(),
            &mut ScoringPipeline::default(),
            &mut rng,
        );
        for s in &second {
            assert!(!seen.contains(&s.dedup_key()));
        }
    }

    #[test]
    fn trained_model_biases_selection() {
        // train the cost model to prefer high unroll_idx; evolution should
        // then emit mostly high-unroll candidates.
        let (g, sk, plans) = setup();
        let mut cm = CostModel::new(GbtParams::default());
        let mut rng = StdRng::seed_from_u64(3);
        let mut batch = Vec::new();
        for _ in 0..200 {
            let s = Schedule::random(&sk[0], Target::Cpu, &mut rng);
            let f = extract_features(&g, &sk[0], Target::Cpu, &s);
            let y = 1e9 * (1.0 + s.unroll_idx as f64 * 10.0);
            batch.push((f, y));
        }
        cm.update_batch(batch);
        let cands = evolve_candidates(
            &plans,
            &sk,
            Target::Cpu,
            &cm,
            &[],
            &HashSet::new(),
            32,
            &EvoConfig::default(),
            &mut ScoringPipeline::default(),
            &mut rng,
        );
        let max_unroll = Target::Cpu.unroll_depths().len() - 1;
        let high = cands.iter().filter(|c| c.unroll_idx == max_unroll).count();
        assert!(
            high > 16,
            "evolution should exploit the model: {high}/32 high-unroll"
        );
    }
}
