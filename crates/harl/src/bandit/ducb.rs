//! Discounted UCB (D-UCB) — the other non-stationary policy analysed by
//! Garivier & Moulines alongside SW-UCB, provided as an ablation
//! alternative for HARL's subgraph/sketch selection.
//!
//! Instead of a hard window, past rewards decay geometrically with factor
//! `γ ∈ (0, 1)`:
//!
//! ```text
//! N_t(γ, a) = Σ_s γ^{t-s} 1{O_s = a}
//! Q_t(γ, a) = (Σ_s γ^{t-s} r_s 1{O_s = a}) / N_t(γ, a)
//! O_t = argmax_a Q_t(γ, a) + c √( ln n_t / N_t(γ, a) ),  n_t = Σ_a N_t(γ, a)
//! ```

use rand::Rng;
use serde::{Deserialize, Serialize};

use super::Bandit;

/// Discounted UCB policy state.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DiscountedUcb {
    /// Discount factor γ.
    gamma: f64,
    /// Exploration constant `c`.
    c: f64,
    /// Discounted pull counts per arm.
    counts: Vec<f64>,
    /// Discounted reward sums per arm.
    sums: Vec<f64>,
}

impl DiscountedUcb {
    /// D-UCB over `arms` arms with exploration constant `c` and discount `gamma`.
    pub fn new(arms: usize, c: f64, gamma: f64) -> Self {
        assert!(arms > 0);
        assert!((0.0..1.0).contains(&gamma), "gamma must be in (0,1)");
        DiscountedUcb {
            gamma,
            c,
            counts: vec![0.0; arms],
            sums: vec![0.0; arms],
        }
    }

    /// Discounted mean reward of an arm.
    pub fn q(&self, arm: usize) -> f64 {
        if self.counts[arm] <= 0.0 {
            0.0
        } else {
            self.sums[arm] / self.counts[arm]
        }
    }

    /// Discounted pull count of an arm.
    pub fn n(&self, arm: usize) -> f64 {
        self.counts[arm]
    }

    fn ucb(&self, arm: usize) -> f64 {
        if self.counts[arm] < 1e-9 {
            return f64::INFINITY;
        }
        let total: f64 = self.counts.iter().sum();
        self.q(arm) + self.c * (total.max(2.0).ln() / self.counts[arm]).sqrt()
    }
}

impl Bandit for DiscountedUcb {
    fn num_arms(&self) -> usize {
        self.counts.len()
    }

    fn select<R: Rng + ?Sized>(&mut self, _rng: &mut R) -> usize {
        (0..self.counts.len())
            .max_by(|&a, &b| {
                self.ucb(a)
                    .partial_cmp(&self.ucb(b))
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            .unwrap_or(0)
    }

    fn update(&mut self, arm: usize, reward: f64) {
        for i in 0..self.counts.len() {
            self.counts[i] *= self.gamma;
            self.sums[i] *= self.gamma;
        }
        self.counts[arm] += 1.0;
        self.sums[arm] += reward;
    }
}

/// Thompson sampling with Gaussian posteriors over arm means and an
/// exponential forgetting factor — a sampling-based non-stationary
/// alternative.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GaussianThompson {
    gamma: f64,
    counts: Vec<f64>,
    sums: Vec<f64>,
    sq_sums: Vec<f64>,
}

impl GaussianThompson {
    /// Thompson sampler with forgetting factor `gamma`.
    pub fn new(arms: usize, gamma: f64) -> Self {
        GaussianThompson {
            gamma,
            counts: vec![0.0; arms],
            sums: vec![0.0; arms],
            sq_sums: vec![0.0; arms],
        }
    }

    fn posterior_sample<R: Rng + ?Sized>(&self, arm: usize, rng: &mut R) -> f64 {
        if self.counts[arm] < 1e-9 {
            return f64::INFINITY; // force exploration of unpulled arms
        }
        let n = self.counts[arm];
        let mean = self.sums[arm] / n;
        let var = (self.sq_sums[arm] / n - mean * mean).max(1e-6);
        let std = (var / n).sqrt();
        // Box-Muller
        let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
        let u2: f64 = rng.gen();
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        mean + std * z
    }
}

impl Bandit for GaussianThompson {
    fn num_arms(&self) -> usize {
        self.counts.len()
    }

    fn select<R: Rng + ?Sized>(&mut self, rng: &mut R) -> usize {
        (0..self.counts.len())
            .map(|a| (a, self.posterior_sample(a, rng)))
            .max_by(|x, y| x.1.partial_cmp(&y.1).unwrap_or(std::cmp::Ordering::Equal))
            .map(|(a, _)| a)
            .unwrap_or(0)
    }

    fn update(&mut self, arm: usize, reward: f64) {
        for i in 0..self.counts.len() {
            self.counts[i] *= self.gamma;
            self.sums[i] *= self.gamma;
            self.sq_sums[i] *= self.gamma;
        }
        self.counts[arm] += 1.0;
        self.sums[arm] += reward;
        self.sq_sums[arm] += reward * reward;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn run<B: Bandit>(
        b: &mut B,
        means: impl Fn(u64, usize) -> f64,
        steps: u64,
        seed: u64,
    ) -> Vec<u64> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut pulls = vec![0u64; b.num_arms()];
        for t in 0..steps {
            let a = b.select(&mut rng);
            pulls[a] += 1;
            let noise: f64 = rng.gen_range(-0.05..0.05);
            b.update(a, means(t, a) + noise);
        }
        pulls
    }

    #[test]
    fn ducb_prefers_best_arm() {
        let mut b = DiscountedUcb::new(3, 0.5, 0.99);
        let pulls = run(&mut b, |_, a| [0.2, 0.8, 0.4][a], 1000, 1);
        assert!(pulls[1] > pulls[0] + pulls[2], "{pulls:?}");
    }

    #[test]
    fn ducb_adapts_to_switch() {
        let mut b = DiscountedUcb::new(2, 0.5, 0.97);
        let mut rng = StdRng::seed_from_u64(2);
        let mut late = [0u64; 2];
        for t in 0..1500u64 {
            let a = b.select(&mut rng);
            let r = if t < 500 {
                [0.9, 0.1][a]
            } else {
                [0.1, 0.9][a]
            };
            b.update(a, r);
            if t >= 1000 {
                late[a] += 1;
            }
        }
        assert!(late[1] > 3 * late[0], "D-UCB must switch: {late:?}");
    }

    #[test]
    fn ducb_discount_bounds_effective_history() {
        let mut b = DiscountedUcb::new(1, 0.5, 0.9);
        for _ in 0..1000 {
            b.update(0, 1.0);
        }
        // geometric series limit: 1/(1-γ) = 10
        assert!((b.n(0) - 10.0).abs() < 0.1, "effective count {}", b.n(0));
        assert!((b.q(0) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn thompson_prefers_best_arm() {
        let mut b = GaussianThompson::new(3, 0.999);
        let pulls = run(&mut b, |_, a| [0.2, 0.8, 0.4][a], 1500, 3);
        assert!(pulls[1] > pulls[0] + pulls[2], "{pulls:?}");
    }

    #[test]
    fn thompson_explores_all_arms_initially() {
        let mut b = GaussianThompson::new(4, 0.999);
        let mut rng = StdRng::seed_from_u64(4);
        let mut seen = [false; 4];
        for _ in 0..4 {
            let a = b.select(&mut rng);
            seen[a] = true;
            b.update(a, 0.5);
        }
        assert!(seen.iter().all(|&s| s), "{seen:?}");
    }
}
