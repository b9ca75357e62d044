//! Evolutionary parameter search — the schedule-exploration engine of the
//! Ansor baseline (Zheng et al., OSDI'20 §5.2).
//!
//! Each round seeds a population from the best measured schedules plus
//! fresh random samples, evolves it for a few generations under the cost
//! model's fitness (selection is fitness-proportional; offspring are
//! mutated and occasionally crossed over), and ranks the last generation
//! by the model; the round then picks its measurement candidates from
//! that ranking by ε-greedy top-K.

use rand::Rng;

use harl_tensor_ir::{crossover, mutate, FeaturePlan, Schedule, Sketch, Target};

use crate::search::Learner;

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

/// One evolutionary round: returns the last generation ranked by the
/// model's score, best first (ties keep population order), duplicates
/// and measured schedules included.
///
/// `elites` are previously measured good schedules (best first); sketches
/// are chosen uniformly for random seeding (Ansor's sketch policy).
/// `plans[i]` is the feature plan of `sketches[i]`.
///
/// Fitness evaluation goes through the learner's pipeline: each
/// generation (and the final ranking) scores the whole population in one
/// batch. Scores are bit-identical to per-candidate `extract → score`, so
/// the RNG stream and selection are unchanged from the serial
/// implementation.
pub fn evolve_candidates<R: Rng + ?Sized>(
    plans: &[FeaturePlan],
    sketches: &[Sketch],
    target: Target,
    learner: &mut Learner,
    elites: &[Schedule],
    cfg: &EvoConfig,
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
        (learner.pipeline).score(&learner.model, &pop, extract, &mut scores);
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

    // --- the last generation, ranked ----------------------------------------
    (learner.pipeline).score(&learner.model, &pop, extract, &mut scores);
    let mut scored: Vec<(f64, Schedule)> = scores.iter().copied().zip(pop).collect();
    scored.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal));
    scored.into_iter().map(|(_, s)| s).collect()
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
    fn returns_the_whole_last_generation_valid_and_ranked() {
        let (_, sk, plans) = setup();
        let mut learner = Learner::new(GbtParams::default());
        let mut rng = StdRng::seed_from_u64(1);
        let cfg = EvoConfig::default();
        let ranked = evolve_candidates(&plans, &sk, Target::Cpu, &mut learner, &[], &cfg, &mut rng);
        assert_eq!(ranked.len(), cfg.population);
        for c in &ranked {
            c.validate(&sk[c.sketch_id], Target::Cpu).expect("valid");
        }
        let extract = |s: &Schedule, buf: &mut Vec<f32>| plans[s.sketch_id].extract_into(s, buf);
        let mut scores = Vec::new();
        (learner.pipeline).score(&learner.model, &ranked, extract, &mut scores);
        assert!(scores.windows(2).all(|w| w[0] >= w[1]), "best first");
    }

    #[test]
    fn trained_model_biases_selection() {
        // train the cost model to prefer high unroll_idx; evolution should
        // then rank mostly high-unroll schedules first.
        let (g, sk, plans) = setup();
        let mut learner = Learner::new(GbtParams::default());
        let mut rng = StdRng::seed_from_u64(3);
        let mut batch = Vec::new();
        for _ in 0..200 {
            let s = Schedule::random(&sk[0], Target::Cpu, &mut rng);
            let f = extract_features(&g, &sk[0], Target::Cpu, &s);
            let y = 1e9 * (1.0 + s.unroll_idx as f64 * 10.0);
            batch.push((f, y));
        }
        learner.model.update_batch(batch);
        let cfg = EvoConfig::default();
        let ranked = evolve_candidates(&plans, &sk, Target::Cpu, &mut learner, &[], &cfg, &mut rng);
        let max_unroll = Target::Cpu.unroll_depths().len() - 1;
        let high = ranked[..32]
            .iter()
            .filter(|c| c.unroll_idx == max_unroll)
            .count();
        assert!(
            high > 16,
            "evolution should exploit the model: {high}/32 high-unroll"
        );
    }
}
